"""Command-line front door: ball | gap | descend | verify | moduli.

One JSON config file drives each run; a handful of flags override config
fields.  One table, `_CONFIG`, lists for each command the keys it takes,
each key's converter (type and range) and its default; `load_config` reads,
converts and defaults every value through it, the ball radius included,
whether it comes from a flag, the config or the group spec.  Reports are
emitted as canonical JSON (sorted keys, floats at 17 significant digits)
and written atomically, so identical config plus seed gives byte-identical
output.

Exit codes: 0 ok, 1 property failure, 2 validation, 3 domain
precondition, 4 solver stall.  Exit 2 covers every config value, flag,
group-spec entry and input file (config, group spec, multiplication table,
v0 and cocycle CSVs) that the run cannot use: the `validation error:` line
names the key, parameter or path; a list-valued key (gap's `radius`,
verify's `p` and `suites`) must hold at least one entry.  Exit 3 covers a
fixed vector in the domain, a domain that holds only the zero vector (the
mean-zero space of a one-element group), mass outside a truncated domain,
a finite-group operation on an infinite group, a gradient asked for at a
fixed point, and verify's gradient suite on an instance where every
sampled energy vanishes (a one-element group).  An asymmetric generating
set is not among them: `build_group` closes the set under inverses and
gives each inverse pair one weight, or rejects the weights with exit 2.

gap takes the keys group, radius (one radius, or a list that runs a
sweep), p, r, seed, starts, iters, battery, threads and out.  The group
fixes the space the constants are taken over: the mean-zero space when
the ball is the whole (finite) group, the dirichlet interior of any other
ball; and the oracle that applies to that space always runs.  So no key
selects either: `domain` and `exact`, which once did, are unknown keys and
exit 2.

gap.json's report tags each constant by method ("exact-fourier",
"exact-eigen", "bracketed" or "multistart"; see `pgaplab.gaps`) and gives
it a `bounds` entry {"lower": L}, a certified lower bound on the
constant: the value itself for an exact method; otherwise a bound on C_p,
propagated to the constant, which is the exact C_2 at p = 2 and Barta's
bound on a dirichlet ball at p != 2 (also when its bracket did not close
and the value is a multistart's).  L is null only on mean-zero domains at
p != 2, where no oracle applies, and where Barta's vector vanishes inside
the ball (`gaps.barta_lower_bound`).  The chain checks L <= value.

Three keys are accepted only so that old configs load, and change
nothing: gap's `threads` (null or 1; the multistart runs on one thread),
moduli's `budget` (the moduli are exact) and descend's `seed` (descent
draws no random numbers).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .action import AffineAction, Cocycle, Representation, default_domain
from .errors import (
    AtFixedPoint,
    FixedVectorPresent,
    InfiniteGroup,
    PgapError,
    SupportViolation,
    ValidationError,
    ZeroDomain,
    integer,
    number,
    read_json_object,
)
from .gaps import GapOptions, equivalence_report, gap_sweep
from .gradient import DescentOptions, descend, restricted_slope
from .groups import GroupHandle, ball, build_group, check_symmetry, full_ball, load_group_spec
from .lpspace import vector_from_csv
from .moduli import duality_continuity_check, modulus_convexity, modulus_smoothness
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3
EXIT_STALL = 4


# ---------------------------------------------------------------------------
# canonical JSON


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            out.append('"nan"')
        elif math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config handling


# the ball radius when neither a flag, the config nor the group spec gives one
DEFAULT_BALL_RADIUS = 3

# a config entry's converter takes the value and the name to report it by


def _count(low):
    return lambda value, name: integer(value, name, low)


def _within(low, high, closed=False):
    return lambda value, name: number(value, name, low, high, closed=closed)


def _of_type(*kinds):
    def converted(value, name):
        if not isinstance(value, kinds):
            raise ValidationError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, not {value!r}")
        return value

    return converted


def _one_of(*choices):
    def converted(value, name):
        if value not in choices:
            raise ValidationError(f"{name} must be one of {list(choices)}, not {value!r}")
        return value

    return converted


def _list_of(convert, *, nonempty=False):
    def converted(value, name):
        items = _of_type(list)(value, name)
        if nonempty and not items:
            raise ValidationError(f"{name} must hold at least one entry, not []")
        return [convert(item, name) for item in items]

    return converted


def _optional(convert):
    return lambda value, name: None if value is None else convert(value, name)


def _one_or_list(convert, entry):
    # a list runs the command once for each entry, so it needs one
    listed = _list_of(entry, nonempty=True)
    return lambda value, name: listed(value, name) if isinstance(value, list) else convert(value, name)


_UNSET = object()  # no default: the key is absent unless given
_GROUP = (_of_type(str, dict), _UNSET)
_RADIUS = (_optional(_count(0)), _UNSET)
_OUT = (_of_type(str), ".")
_SEED = (_count(0), 0)
_EXPONENT = _within(1.0, math.inf)
_P = (_EXPONENT, 2.0)
_TOLERANCE = _within(0.0, math.inf, closed=True)

# command -> config key -> (converter, default).  load_config reads every
# config value through this table and nowhere else.  Converter None: the
# value is accepted as it is and nothing reads it; such keys, and descend's
# seed, are accepted so that old configs load.
_CONFIG = {
    "ball": {"group": _GROUP, "radius": _RADIUS, "out": _OUT},
    "gap": {
        "group": _GROUP,
        "radius": (_one_or_list(_optional(_count(0)), _count(0)), _UNSET),  # a list runs a sweep
        "p": _P,
        "r": (_optional(_within(1.0, math.inf, closed=True)), None),  # null: r = p
        "seed": _SEED,
        "starts": (_count(1), 32),
        "iters": (_count(0), 10_000),
        "battery": (_count(0), 0),
        "threads": (_one_of(None, 1), _UNSET),  # multistart runs on one thread
        "out": _OUT,
    },
    "descend": {
        "group": _GROUP,
        "radius": _RADIUS,
        "p": _P,
        "domain": (_optional(_of_type(str)), None),
        "cocycle": (_optional(_of_type(dict)), {"zero": True}),
        "v0": (_of_type(str), "zero"),  # "zero" or the path of a CSV vector
        "absTol": (_TOLERANCE, 1e-8),
        "gradTol": (_TOLERANCE, 1e-6),
        "maxIters": (_count(0), 10_000),
        "seed": (_count(0), _UNSET),  # descent draws no random numbers
        "out": _OUT,
    },
    "verify": {
        "group": _GROUP,
        "radius": _RADIUS,
        "p": (_one_or_list(_EXPONENT, _EXPONENT), 2.0),
        "suites": (_list_of(_one_of(*SUITES), nonempty=True), list(SUITES)),
        "seed": _SEED,
        "out": _OUT,
    },
    "moduli": {
        "p": _P,
        "dim": (_count(2), 8),
        "convexityGrid": (_list_of(number), [0.25, 0.5, 1.0, 1.5, 2.0]),
        "smoothnessGrid": (_list_of(number), [0.25, 0.5, 1.0, 2.0]),
        "budget": (None, _UNSET),  # the moduli are exact
        "trials": (_count(0), 10_000),
        "seed": _SEED,
        "out": _OUT,
    },
}

# flags that override the config key of the same name; the table converts them
_FLAGS = ("seed", "radius", "p", "r", "starts", "out")


def load_config(command: str, args) -> tuple[dict, GroupHandle | None, int | list | None]:
    """The command's config, its group and its ball radius.

    A flag wins over the config file, and the file over the table's
    default.  The radius comes from a flag, the config or the group spec,
    in that order, else it is DEFAULT_BALL_RADIUS for ball and None (the
    whole group) for the other commands.  Each value goes through its
    table converter, so a bad one is a ValidationError that names it."""
    entries = _CONFIG[command]
    given = read_json_object(args.config, "config") if args.config else {}
    unknown = set(given) - set(entries)
    if unknown:
        raise ValidationError(f"unknown config keys for {command}: {sorted(unknown)}")
    flags = {f: getattr(args, f) for f in _FLAGS if getattr(args, f) is not None}
    stray = set(flags) - set(entries)
    if stray:
        raise ValidationError(f"{command} takes no {', '.join('--' + f for f in sorted(stray))}")
    given.update(flags)
    config = {}
    for key, (convert, default) in entries.items():
        if key in given:
            value = given[key]
            config[key] = value if convert is None else convert(value, f"{command} config key {key!r}")
        elif default is not _UNSET:
            config[key] = default
    if "r" in config and config["r"] is None:
        config["r"] = config["p"]  # r = p, the energy's own exponent
    if "group" not in entries:
        return config, None, None
    if "group" not in config:
        raise ValidationError("config needs a 'group' entry (inline spec or path)")
    spec, radius = load_group_spec(config["group"])
    if config.get("radius") is not None:
        radius = config["radius"]
    elif radius is not None:
        radius = entries["radius"][0](radius, "group spec key 'radius'")
    elif command == "ball":
        radius = DEFAULT_BALL_RADIUS
    return config, build_group(spec), radius


def _representations(handle, radius, ps) -> list[Representation]:
    """One representation per exponent, all on one ball: the whole group
    when the radius is None, in full mode when the ball is the whole group."""
    if handle.order is None and radius is None:
        raise ValidationError("infinite groups need an explicit radius")
    b = full_ball(handle) if radius is None else ball(handle, radius)
    mode = "full" if b.is_full else "dirichlet"
    return [Representation(b, p, mode) for p in ps]


# ---------------------------------------------------------------------------
# commands


def cmd_ball(args) -> int:
    config, handle, radius = load_config("ball", args)
    b = ball(handle, radius)
    sym = check_symmetry(handle)
    report = {
        "version": __version__,
        "config": {"group": config["group"], "radius": radius},
        "group": handle.label,
        "size": b.size,
        "perDepth": b.per_depth(),
        "full": b.is_full,
        "symmetry": sym.to_dict(),
    }
    write_atomic(Path(config["out"]) / "ball.json", canonical_json(report))
    print(canonical_json({"size": b.size, "perDepth": b.per_depth()}))
    return EXIT_OK


def cmd_gap(args) -> int:
    config, handle, radius = load_config("gap", args)
    p, r = config["p"], config["r"]
    opts = GapOptions(starts=config["starts"], iters=config["iters"], seed=config["seed"])
    battery = config["battery"]

    out_dir = Path(config["out"])
    if isinstance(radius, list):
        reports = gap_sweep(handle, p, r, radius, opts, battery=battery)
        rows = ["R,C_disp,C_r,C_grad,C_lap"]
        for R, rep_ in zip(radius, reports):
            c = rep_.constants
            rows.append(f"{R},{c['C_disp']!r},{c['C_r']!r},{c['C_grad']!r},{c['C_lap']!r}")
        write_atomic(out_dir / "gap_sweep.csv", "\n".join(rows) + "\n")
        payload = {"reports": [rp.to_dict() for rp in reports]}
        summary = {"radii": radius, "C_lap": [rp.constants["C_lap"] for rp in reports]}
    else:
        [rep] = _representations(handle, radius, [p])
        reports = [equivalence_report(default_domain(rep), r, opts, battery=battery)]
        payload = {"report": reports[0].to_dict()}
        summary = reports[0].constants
    payload.update(version=__version__, config={k: v for k, v in config.items() if k != "out"})
    write_atomic(out_dir / "gap.json", canonical_json(payload))
    print(canonical_json(summary))
    chains_hold = all(v for rp in reports for v in rp.chain.values() if v is not None)
    return EXIT_OK if chains_hold else EXIT_PROPERTY


def _load_action(rep: Representation, cocycle) -> AffineAction:
    """The affine action of a descend config's `cocycle` entry."""
    if cocycle is None or cocycle.get("zero"):
        return AffineAction.linear(rep)
    if "potential" in cocycle:
        return AffineAction.from_potential(rep, vector_from_csv(rep.ball, cocycle["potential"]))
    if isinstance(cocycle.get("values"), dict):
        mapping = {name: vector_from_csv(rep.ball, path) for name, path in cocycle["values"].items()}
        return AffineAction(rep, Cocycle.from_generator_values(rep, mapping))
    raise ValidationError("descend config key 'cocycle' needs 'zero', 'potential' or 'values'")


def cmd_descend(args) -> int:
    """Descend toward a fixed point and report the restricted slope at the
    terminal.  Descent draws no random numbers: a `seed` in the config is
    accepted and echoed, and changes nothing.

    `energyEvals` counts the energies descent took: its start's and one per
    line-search trial.  `steepestSteps` counts the accepted steps of the
    steepest fallback (`gradient.descend`); the other steps are
    quasi-Newton.  `contraction` is (finalEnergy / F_0)^(1/steps), the
    geometric mean of the factors by which the accepted steps shrank F, or
    null when no step was accepted or F_0 = 0.  In descend_trace.csv, `step` is the l^p length
    |w - v|_p of each iteration's accepted step (0 on a final row).  With a
    potential, `recoveryError` is the l^p distance from the terminal to the
    fixed-point set of the action (`AffineAction.fixed_point_distance`)."""
    config, handle, radius = load_config("descend", args)
    [rep] = _representations(handle, radius, [config["p"]])
    domain = default_domain(rep, config["domain"])
    action = _load_action(rep, config["cocycle"])
    if config["v0"] == "zero":
        v0 = rep.zero()
    else:
        v0 = vector_from_csv(rep.ball, config["v0"])
    options = DescentOptions(
        abs_tol=config["absTol"], grad_tol=config["gradTol"], max_iters=config["maxIters"]
    )
    trace = descend(action, v0, options, domain=domain)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "descend_trace.csv")

    slope, _ = restricted_slope(action, trace.terminal, domain, trace.final_energy)
    steps = sum(1 for *_, step in trace.rows if step > 0.0)
    f_0 = trace.rows[0][1] if trace.rows else 0.0
    contraction = (trace.final_energy / f_0) ** (1.0 / steps) if steps and f_0 > 0.0 else None
    payload = {
        "version": __version__,
        "config": {k: v for k, v in config.items() if k != "out"},
        "reason": trace.reason,
        "iterations": len(trace.rows),
        "energyEvals": trace.energy_evals,
        "steepestSteps": trace.steepest_steps,
        "contraction": contraction,
        "finalEnergy": trace.final_energy,
        "terminalGradient": slope,
        "terminal": trace.terminal.tolist(),
    }
    if action.potential is not None:
        payload["recoveryError"] = action.fixed_point_distance(trace.terminal)
    write_atomic(out_dir / "descend.json", canonical_json(payload))
    print(canonical_json({"reason": trace.reason, "finalEnergy": trace.final_energy}))
    if trace.reason == "stalled":
        return EXIT_STALL
    return EXIT_OK


def cmd_verify(args) -> int:
    config, handle, radius = load_config("verify", args)
    ps = config["p"] if isinstance(config["p"], list) else [config["p"]]
    all_rows = []
    for p, rep in zip(ps, _representations(handle, radius, ps)):
        for row in run_suites(rep, config["suites"], seed=config["seed"]):
            d = row.to_dict()
            d["p"] = p
            all_rows.append(d)
    n_failed = sum(1 for row in all_rows if not row["passed"])
    payload = {
        "version": __version__,
        "config": {k: v for k, v in config.items() if k != "out"},
        "checks": all_rows,
        "failed": n_failed,
    }
    write_atomic(Path(config["out"]) / "verify.json", canonical_json(payload))
    for row in all_rows:
        status = "pass" if row["passed"] else "FAIL"
        print(f"{status}  p={row['p']}  {row['suite']}.{row['name']}")
    return EXIT_OK if n_failed == 0 else EXIT_PROPERTY


def cmd_moduli(args) -> int:
    config, _, _ = load_config("moduli", args)
    p, dim = config["p"], config["dim"]
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    conv = modulus_convexity(p, dim, config["convexityGrid"])
    smooth = modulus_smoothness(p, dim, config["smoothnessGrid"])
    conv.to_csv(out_dir / "moduli_convexity.csv")
    smooth.to_csv(out_dir / "moduli_smoothness.csv")
    continuity = duality_continuity_check(p, dim, config["trials"], seed=config["seed"])
    payload = {
        "version": __version__,
        "config": {k: v for k, v in config.items() if k != "out"},
        "convexity": {"args": conv.args, "estimates": conv.estimates},
        "smoothness": {"args": smooth.args, "estimates": smooth.estimates},
        "continuityCheck": continuity,
    }
    write_atomic(out_dir / "moduli.json", canonical_json(payload))
    print(canonical_json({"violations": continuity["violations"], "trials": continuity["trials"]}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgaplab",
        description="gap constants, descent to fixed points, and l^p moduli "
        "for isometric group actions on Cayley-graph truncations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("ball", cmd_ball),
        ("gap", cmd_gap),
        ("descend", cmd_descend),
        ("verify", cmd_verify),
        ("moduli", cmd_moduli),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        for flag in _FLAGS:
            sp.add_argument(f"--{flag}", default=None)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FixedVectorPresent, ZeroDomain, SupportViolation, InfiniteGroup, AtFixedPoint) as exc:
        print(f"domain precondition failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
