"""Command-line front door: ball | gap | descend | verify | moduli.

One JSON config file drives each run; a handful of flags override config
fields.  Reports are emitted as canonical JSON (sorted keys, floats at 17
significant digits) and written atomically, so identical config plus seed
gives byte-identical output.  Exit codes: 0 ok, 1 property failure,
2 validation, 3 domain precondition, 4 solver stall.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .action import AffineAction, Cocycle, Representation, default_domain, norm_minimising_shift
from .errors import (
    AsymmetricSetup,
    AtFixedPoint,
    FixedVectorPresent,
    InfiniteGroup,
    PgapError,
    SupportViolation,
    ValidationError,
)
from .gaps import GapOptions, equivalence_report, gap_sweep
from .gradient import DescentOptions, descend, restricted_slope
from .groups import ball, build_group, check_symmetry, full_ball, load_group_spec
from .lpspace import power_norm, vector_from_csv
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
        if np.isnan(x):
            out.append('"nan"')
        elif np.isinf(x):
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


_SCHEMAS = {
    "ball": {"group", "radius", "out"},
    "gap": {
        "group",
        "radius",
        "p",
        "r",
        "domain",
        "seed",
        "starts",
        "iters",
        "battery",
        "threads",
        "exact",
        "out",
    },
    "descend": {
        "group",
        "radius",
        "p",
        "domain",
        "cocycle",
        "v0",
        "absTol",
        "gradTol",
        "maxIters",
        "seed",
        "out",
    },
    "verify": {"group", "radius", "p", "suites", "seed", "out"},
    "moduli": {
        "p",
        "dim",
        "convexityGrid",
        "smoothnessGrid",
        # the moduli are exact, so nothing reads budget; it is accepted so
        # that old configs load
        "budget",
        "trials",
        "seed",
        "out",
    },
}

# the ball radius when neither the config, a flag nor the group spec gives one;
# not a config default, which would override the spec's radius
DEFAULT_BALL_RADIUS = 3

_DEFAULTS = {
    "gap": {
        "r": None,
        "domain": None,
        "seed": 0,
        "starts": 32,
        "iters": 10_000,
        "battery": 0,
        "exact": "auto",
    },
    "descend": {
        "domain": None,
        "cocycle": {"zero": True},
        "v0": "zero",
        "absTol": 1e-8,
        "gradTol": 1e-6,
        "maxIters": 10_000,
    },
    "verify": {"suites": list(SUITES), "seed": 0, "p": 2.0},
    "moduli": {
        "dim": 8,
        "convexityGrid": [0.25, 0.5, 1.0, 1.5, 2.0],
        "smoothnessGrid": [0.25, 0.5, 1.0, 2.0],
        "trials": 10_000,
        "seed": 0,
    },
}


# flags that override the config key of the same name, with their types
_FLAGS = {"seed": int, "radius": int, "p": float, "r": str, "starts": int}


def _integer(value) -> int:
    n = int(value)
    if n != float(value):
        raise ValueError(f"{value!r} is not an integer")
    return n


def _floats(value) -> list:
    return [float(x) for x in value]


def _float_or_floats(value):
    return _floats(value) if isinstance(value, list) else float(value)


def _float_or_none(value):
    # float() reads "inf" and "infinity" in any case
    return None if value is None else float(value)


# config values of a fixed type, converted here and nowhere else, so that a
# value of the wrong type is a validation error that names its key
_CONVERSIONS = {
    "p": float,
    "r": _float_or_none,
    "dim": _integer,
    "trials": _integer,
    "seed": _integer,
    "starts": _integer,
    "iters": _integer,
    "battery": _integer,
    "maxIters": _integer,
    "absTol": float,
    "gradTol": float,
    "convexityGrid": _floats,
    "smoothnessGrid": _floats,
}


def _convert(command: str, config: dict) -> None:
    conversions = _CONVERSIONS
    if command == "verify":  # verify takes a list of p
        conversions = {**_CONVERSIONS, "p": _float_or_floats}
    for key in config.keys() & conversions.keys():
        try:
            config[key] = conversions[key](config[key])
        except (TypeError, ValueError, OverflowError):  # int(inf) overflows
            message = f"{command} config key {key!r} has a bad value: {config[key]!r}"
            raise ValidationError(message) from None
    if config.get("trials", 0) < 0:
        raise ValidationError(f"{command} config key 'trials' must be >= 0, not {config['trials']}")


def load_config(command: str, args) -> dict:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    unknown = set(config) - _SCHEMAS[command]
    if unknown:
        raise ValidationError(f"unknown config keys for {command}: {sorted(unknown)}")
    flags = {f: getattr(args, f) for f in _FLAGS if getattr(args, f) is not None}
    stray = set(flags) - _SCHEMAS[command]
    if stray:
        raise ValidationError(f"{command} takes no {', '.join('--' + f for f in sorted(stray))}")
    resolved = dict(_DEFAULTS.get(command, {}))
    resolved.update(config)
    resolved.update(flags)
    if args.out is not None:
        resolved["out"] = args.out
    resolved.setdefault("out", ".")
    _convert(command, resolved)
    return resolved


def _build_handle(config) -> tuple:
    if "group" not in config:
        raise ValidationError("config needs a 'group' entry (inline spec or path)")
    spec_source = config["group"]
    spec, radius = load_group_spec(spec_source)
    if config.get("radius") is not None:
        radius = config["radius"]
    handle = build_group(spec)
    return handle, radius


def _representation(handle, radius, p) -> Representation:
    if handle.order is not None:
        b = full_ball(handle) if radius is None else ball(handle, int(radius))
        if b.is_full:
            return Representation(b, p, "full")
        return Representation(b, p, "dirichlet")
    if radius is None:
        raise ValidationError("infinite groups need an explicit radius")
    return Representation(ball(handle, int(radius)), p, "dirichlet")


# ---------------------------------------------------------------------------
# commands


def cmd_ball(args) -> int:
    config = load_config("ball", args)
    handle, radius = _build_handle(config)
    if radius is None:
        radius = DEFAULT_BALL_RADIUS
    b = ball(handle, int(radius))
    sym = check_symmetry(handle)
    report = {
        "version": __version__,
        "config": {"group": config["group"], "radius": int(radius)},
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
    config = load_config("gap", args)
    # multistart runs on one thread; the key stays so that old configs load
    if config.get("threads") not in (None, 1):
        raise ValidationError(f"threads must be null or 1, not {config['threads']!r}")
    handle, radius = _build_handle(config)
    p = config.get("p", 2.0)
    r = p if config.get("r") is None else config["r"]
    opts = GapOptions(
        starts=config["starts"], iters=config["iters"], seed=config["seed"], exact=config["exact"]
    )
    battery = config["battery"]
    resolved = {k: v for k, v in config.items() if k != "out"}
    resolved["p"] = p
    resolved["r"] = "inf" if np.isinf(r) else r

    out_dir = Path(config["out"])
    if isinstance(radius, (list, tuple)):
        reports = gap_sweep(handle, p, r, radius, opts, battery=battery)
        rows = ["R,C_disp,C_r,C_grad,C_lap"]
        for R, rep_ in zip(radius, reports):
            c = rep_.constants
            rows.append(
                f"{int(R)},{c['C_disp']!r},{c['C_r']!r},{c['C_grad']!r},{c['C_lap']!r}"
            )
        write_atomic(out_dir / "gap_sweep.csv", "\n".join(rows) + "\n")
        payload = {
            "version": __version__,
            "config": resolved,
            "reports": [rp.to_dict() for rp in reports],
        }
        write_atomic(out_dir / "gap.json", canonical_json(payload))
        print(canonical_json({"radii": list(radius), "C_lap": [rp.constants["C_lap"] for rp in reports]}))
    else:
        rep = _representation(handle, radius, p)
        domain = default_domain(rep, config.get("domain"))
        reports = [equivalence_report(rep, r, opts, domain, battery=battery)]
        payload = {"version": __version__, "config": resolved, "report": reports[0].to_dict()}
        write_atomic(out_dir / "gap.json", canonical_json(payload))
        print(canonical_json(reports[0].constants))
    chains_hold = all(v for rp in reports for v in rp.chain.values() if v is not None)
    return EXIT_OK if chains_hold else EXIT_PROPERTY


def _load_action(rep: Representation, spec) -> AffineAction:
    """The affine action of a descend config's `cocycle` entry."""
    if spec is None or spec.get("zero"):
        return AffineAction.linear(rep)
    if "potential" in spec:
        return AffineAction.from_potential(rep, vector_from_csv(rep.ball, spec["potential"]))
    if "values" in spec:
        mapping = {name: vector_from_csv(rep.ball, path) for name, path in spec["values"].items()}
        return AffineAction(rep, Cocycle.from_generator_values(rep, mapping))
    raise ValidationError("cocycle entry needs 'zero', 'potential' or 'values'")


def cmd_descend(args) -> int:
    """Descend toward a fixed point and report the restricted slope at the
    terminal.  Descent draws no random numbers: a `seed` in the config is
    accepted and echoed, and changes nothing.

    With a potential f0, `recoveryError` is the l^p distance from the
    terminal to the fixed-point set of the action: -f0 + c 1 for every c in
    full mode, where constants are invariant, and -f0 alone in dirichlet
    mode."""
    config = load_config("descend", args)
    handle, radius = _build_handle(config)
    p = config.get("p", 2.0)
    rep = _representation(handle, radius, p)
    domain = default_domain(rep, config.get("domain"))
    action = _load_action(rep, config.get("cocycle"))
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

    slope, _ = restricted_slope(action, trace.terminal, domain)
    payload = {
        "version": __version__,
        "config": {k: v for k, v in config.items() if k != "out"},
        "reason": trace.reason,
        "iterations": len(trace.rows),
        "finalEnergy": trace.final_energy,
        "terminalGradient": slope,
        "terminal": trace.terminal.tolist(),
    }
    if action.potential is not None:
        offset = trace.terminal + action.potential
        if rep.mode == "full":
            offset = offset - norm_minimising_shift(offset, p)
        payload["recoveryError"] = power_norm(offset, p)
    write_atomic(out_dir / "descend.json", canonical_json(payload))
    print(canonical_json({"reason": trace.reason, "finalEnergy": trace.final_energy}))
    if trace.reason == "stalled":
        return EXIT_STALL
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config("verify", args)
    handle, radius = _build_handle(config)
    ps = config["p"] if isinstance(config["p"], list) else [config["p"]]
    suites = config["suites"]
    all_rows = []
    for p in ps:
        rep = _representation(handle, radius, p)
        rows = run_suites(rep, suites, seed=config["seed"])
        for row in rows:
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
    config = load_config("moduli", args)
    p, dim = config.get("p", 2.0), config["dim"]
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
        sp.add_argument("--out", type=str, default=None)
        for flag, kind in _FLAGS.items():
            sp.add_argument(f"--{flag}", type=kind, default=None)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FixedVectorPresent, SupportViolation, InfiniteGroup, AtFixedPoint, AsymmetricSetup) as exc:
        print(f"domain precondition failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
