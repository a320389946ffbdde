"""The four workloads: their inputs, their CLI calls and the checks on outputs.

A workload is a list of CLI calls made through `pgaplab.cli.main`.  After
each round, every call's outputs are checked against `oracles`; a call
yields one operation, except `moduli`, which also yields one operation per
grid estimate and one for the continuity check.  An operation fails when
its call exits non-zero or raises, or when one of its checks fails.

Known faults of the program are listed in KNOWN_FAULTS as (operation,
check) pairs.  An operation that fails only on those checks still counts
as failed, but does not make the run incorrect.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

# Reduced budgets: a round of each workload takes 2 to 5 s on a 2-core
# machine, so that a run holds several rounds and reports their median.
# No fixed-point battery: its descents run with the default cap of 10,000
# iterations, which a gap config cannot lower, and on some seeds they spin
# in the line search for a minute (symmetric(4), p = 3, seed 33), so a
# round's time would hang on the seed.  Descent is measured in graph_descent.
GAP_BUDGET = {"starts": 2, "iters": 150, "battery": 0, "threads": 1}
DESCEND_CAPS = {"symmetric": 350, "integer_lattice": 400, "free": 3000}
MODULI_BUDGET = 2

# Iteration-capped descents report as finalEnergy the energy before their
# last accepted step, not the energy at the terminal they report.  On
# symmetric(6) that step is a null step today (see graph_descent), so the
# fault shows only on the lattice leg.  moduli reports delta_p(2) below its
# exact value 1, and checks duality-map continuity against a smoothness
# curve that clamps beyond tau = 2.  Only checks that fail today are listed.
KNOWN_FAULTS = {
    ("descend integer_lattice(2) R=20 p=3", "final_energy_at_terminal"),
    ("moduli p=3 delta(2)", "within_bounds"),
    ("moduli p=1.5 delta(2)", "within_bounds"),
    ("moduli p=3 continuity", "no_violations"),
    ("moduli p=1.5 continuity", "no_violations"),
}

REL = 1e-9  # relative agreement of a re-evaluated figure


@dataclass
class Call:
    """One CLI call and the check that turns its outputs into operations."""

    name: str
    argv: list
    out: Path
    check: object  # Call -> list of (operation name, names of failed checks)
    code: object = None  # what the last round's call returned
    seconds: float = 0.0
    stdout: str = ""
    error: str = ""


_PARAM = {"cyclic": "n", "symmetric": "n", "integer_lattice": "d", "free": "k"}


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in ".-" else "_" for ch in name)


def _write_config(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return str(path)


def _failed(checks: dict) -> list[str]:
    return sorted(name for name, ok in checks.items() if not ok)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@functools.cache
def _ball(fam_name: str, param: int, radius) -> oracles.Ball:
    return oracles.enumerate_ball(oracles.family(fam_name, param), radius)


@functools.cache
def _evaluator(fam_name: str, param: int, radius, p: float) -> oracles.Evaluator:
    return oracles.Evaluator(_ball(fam_name, param, radius), p)


@functools.cache
def _hilbert_gap(fam_name: str, param: int, radius) -> float:
    return oracles.hilbert_gap(_ball(fam_name, param, radius))


def _in_domain(v: np.ndarray, ball: oracles.Ball) -> bool:
    scale = float(np.abs(v).max(initial=0.0)) or 1.0
    if ball.radius is None:
        return abs(float(v.sum())) <= 1e-12 * scale * ball.size
    return bool((v[~ball.interior()] == 0.0).all())


# ---------------------------------------------------------------------------
# gap


def _gap_call(root: Path, label, fam_name, param, radius, p, seed) -> Call:
    group = {"family": fam_name, "params": {_PARAM[fam_name]: param}}
    cfg = {"group": group, "p": p, "seed": seed, **GAP_BUDGET}
    if radius is not None:
        cfg["radius"] = radius
    name = f"gap {label} p={p:g}"
    out = root / _slug(name)
    path = _write_config(out / "config.json", cfg)

    def check(call: Call):
        checks = {"exit_ok": call.code == 0}
        try:
            report = json.loads((out / "gap.json").read_text())["report"]
        except (OSError, ValueError, KeyError):
            return [(name, ["report_readable"])]
        c = report["constants"]
        certs = {k: np.asarray(v, dtype=float) for k, v in report["certificates"].items()}
        ball = _ball(fam_name, param, radius)
        ev = _evaluator(fam_name, param, radius, p)

        checks["C_disp_attained"] = _close(ev.ratio(certs["C_disp"], math.inf), c["C_disp"])
        checks["C_r_attained"] = _close(ev.ratio(certs["C_r"], p), c["C_r"])
        checks["certificates_in_domain"] = all(_in_domain(v, ball) for v in certs.values())
        m_min = float(ball.weights.min())
        checks["C_r<=C_disp"] = c["C_r"] <= c["C_disp"] * (1 + REL)
        checks["m_min^(1/r)C_disp<=C_r"] = m_min ** (1.0 / p) * c["C_disp"] <= c["C_r"] * (1 + REL)
        checks["C_grad>=C_r"] = c["C_grad"] >= c["C_r"] * (1 - REL)
        ambient, restricted = ev.slopes(certs["C_grad"], mean_zero=ball.radius is None)
        checks["ambient_slope>=C_r"] = ambient >= c["C_r"] * (1 - REL)
        checks["restricted_slope>=C_r"] = restricted >= c["C_r"] * (1 - REL)
        if p == 2.0:
            exact = _hilbert_gap(fam_name, param, radius)
            checks["C_r=sqrt(2mu_min)"] = abs(c["C_r"] - exact) <= 1e-6
            checks["C_r>=sqrt(2mu_min)"] = c["C_r"] >= exact - 1e-9
        if fam_name == "cyclic":
            checks["C_disp=2sin(pi/n)"] = _close(c["C_disp"], 2.0 * math.sin(math.pi / param))
        if fam_name == "free" and p == 2.0:
            checks["C_r>=kesten"] = c["C_r"] >= oracles.kesten_free2()
        return [(name, _failed(checks))]

    return Call(name, ["gap", "--config", path, "--out", str(out)], out, check)


def gap_finite(root: Path, seed: int) -> list[Call]:
    calls = [_gap_call(root, "symmetric(4)", "symmetric", 4, None, p, seed) for p in (1.5, 2.0, 3.0)]
    return calls + [_gap_call(root, "cyclic(12)", "cyclic", 12, None, 2.0, seed)]


def gap_free2_dirichlet(root: Path, seed: int) -> list[Call]:
    return [_gap_call(root, "free(2) R=6", "free", 2, 6, p, seed) for p in (3.0, 2.0)]


# ---------------------------------------------------------------------------
# graph and descent


def _ball_call(root: Path, fam_name, param, radius, sizes) -> Call:
    name = f"ball {fam_name}({param}) R={radius}"
    out = root / _slug(name)
    group = {"family": fam_name, "params": {_PARAM[fam_name]: param}}
    path = _write_config(out / "config.json", {"group": group, "radius": radius})
    size, per_depth, full = sizes

    def check(call: Call):
        checks = {"exit_ok": call.code == 0}
        try:
            report = json.loads((out / "ball.json").read_text())
            printed = json.loads(call.stdout.strip().splitlines()[-1])
        except (OSError, ValueError, IndexError):
            return [(name, ["report_readable"])]
        checks["size"] = report["size"] == size and printed["size"] == size
        checks["per_depth"] = report["perDepth"] == per_depth and printed["perDepth"] == per_depth
        checks["full"] = report["full"] is full
        return [(name, _failed(checks))]

    return Call(name, ["ball", "--config", path, "--out", str(out)], out, check)


def _verify_call(root: Path, label, cfg) -> Call:
    name = f"verify {label}"
    out = root / _slug(name)
    path = _write_config(out / "config.json", cfg)

    def check(call: Call):
        checks = {"exit_ok": call.code == 0}
        try:
            report = json.loads((out / "verify.json").read_text())
        except (OSError, ValueError):
            return [(name, ["report_readable"])]
        checks["no_failed_check"] = report["failed"] == 0 and all(
            row["passed"] for row in report["checks"]
        )
        return [(name, _failed(checks))]

    return Call(name, ["verify", "--config", path, "--out", str(out)], out, check)


def _support(fam_name: str, param: int, radius) -> tuple[int, int | None]:
    """Ball size and the number of interior elements (None on a finite
    group), in closed form: the potentials are made inside the set-up
    window, which should not pay for enumerating a ball.  Balls are
    breadth first, so the interior is a prefix of the canonical order."""
    if radius is None and fam_name == "symmetric":
        return math.factorial(param), None
    if fam_name == "free" and param == 2:
        return oracles.free_ball_size(radius), oracles.free_ball_size(radius - 1)
    if fam_name == "integer_lattice" and param == 2:
        return oracles.lattice2_ball_size(radius), oracles.lattice2_ball_size(radius - 1)
    raise ValueError(f"no closed-form support for {fam_name}({param}) R={radius}")


def _potential(fam_name, param, radius, p: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian potential on the admissible support, mean zero on a finite
    group, of unit l^p norm; -f is then a fixed point in the domain."""
    size, inner = _support(fam_name, param, radius)
    f = rng.standard_normal(size)
    if inner is None:
        f -= f.mean()
    else:
        f[inner:] = 0.0
    return f / oracles.Evaluator.norm(f, p)


def _descend_call(root: Path, label, fam_name, param, radius, p, *, f_seed, seed, converges):
    name = f"descend {label} p={p:g}"
    out = root / _slug(name)
    f = _potential(fam_name, param, radius, p, np.random.default_rng(f_seed))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "potential.csv", "w") as fh:
        fh.writelines(f"{i},{float(x)!r}\n" for i, x in enumerate(f))
    cfg = {
        "group": {"family": fam_name, "params": {_PARAM[fam_name]: param}},
        "p": p,
        "cocycle": {"potential": str(out / "potential.csv")},
        "maxIters": DESCEND_CAPS[fam_name],
        "seed": seed,
    }
    if radius is not None:
        cfg["radius"] = radius
    path = _write_config(out / "config.json", cfg)

    def check(call: Call):
        checks = {"exit_ok": call.code == 0}
        try:
            report = json.loads((out / "descend.json").read_text())
            with open(out / "descend_trace.csv") as fh:
                energies = [float(row["F"]) for row in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError):
            return [(name, ["report_readable"])]
        ev = _evaluator(fam_name, param, radius, p)
        ball = _ball(fam_name, param, radius)
        terminal = np.asarray(report["terminal"], dtype=float)
        F = ev.energy(terminal, p, f)
        checks["final_energy_at_terminal"] = _close(F, report["finalEnergy"])
        checks["energies_nonincreasing"] = all(b <= a for a, b in zip(energies, energies[1:]))
        checks["terminal_in_domain"] = _in_domain(terminal, ball)
        checks["F<=2|terminal+f|"] = F <= 2.0 * ev.norm(terminal + f, p) * (1 + REL)
        checks["not_stalled"] = report["reason"] != "stalled"
        if converges:
            checks["reaches_f_tol"] = report["reason"] == "f_tol"
        return [(name, _failed(checks))]

    return Call(name, ["descend", "--config", path, "--out", str(out)], out, check)


# Potentials of the iteration-capped legs do not depend on the seed: those
# legs fail on a known fault every time, and a failure must not come and go
# with the seed.  With this potential, descent on symmetric(6) reaches
# F ~ 7e-7 after about 300 iterations and then accepts steps too small to
# change v, each after some 50 energy evaluations, until the cap.
FIXED_POTENTIAL_SEED = 0


def graph_descent(root: Path, seed: int) -> list[Call]:
    free2 = {"family": "free", "params": {"k": 2}}
    s7 = {"family": "symmetric", "params": {"n": 7}}
    fixed = {"f_seed": FIXED_POTENTIAL_SEED, "seed": 0, "converges": False}
    return [
        _ball_call(root, "free", 2, 9, (oracles.free_ball_size(9), oracles.free_per_depth(9), False)),
        _ball_call(root, "symmetric", 7, 21, (math.factorial(7), oracles.mahonian(7), True)),
        _verify_call(root, "symmetric(7)", {"group": s7, "suites": ["ball", "lp", "action"], "seed": seed}),
        _descend_call(root, "symmetric(6)", "symmetric", 6, None, 3.0, **fixed),
        _descend_call(root, "integer_lattice(2) R=20", "integer_lattice", 2, 20, 3.0, **fixed),
        _descend_call(
            root, "free(2) R=7", "free", 2, 7, 1.5,
            f_seed=np.random.SeedSequence([seed, 7]), seed=seed, converges=True,
        ),
        _verify_call(root, "free(2) R=6", {"group": free2, "radius": 6, "p": [1.5, 3.0], "seed": seed}),
    ]


# ---------------------------------------------------------------------------
# moduli

MODULI_SEED = 0  # fixed: four of its operations fail on known faults
CONVEXITY_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)  # the CLI's default grids
SMOOTHNESS_GRID = (0.25, 0.5, 1.0, 2.0)


def _moduli_call(root: Path, p: float) -> Call:
    name = f"moduli p={p:g}"
    out = root / _slug(name)
    path = _write_config(
        out / "config.json", {"p": p, "dim": 8, "budget": MODULI_BUDGET, "seed": MODULI_SEED}
    )
    names = (
        [f"{name} delta({e:g})" for e in CONVEXITY_GRID]
        + [f"{name} rho({t:g})" for t in SMOOTHNESS_GRID]
        + [f"{name} continuity"]
    )

    def check(call: Call):
        try:
            report = json.loads((out / "moduli.json").read_text())
            conv, smooth = report["convexity"], report["smoothness"]
            violations = report["continuityCheck"]["violations"]
        except (OSError, ValueError, KeyError):
            return [(name, ["exit_ok", "report_readable"])] + [(n, ["report_readable"]) for n in names]
        ops = [(name, [] if call.code == 0 else ["exit_ok"])]
        for eps, est, op in zip(CONVEXITY_GRID, conv["estimates"], names):
            exact = oracles.modulus_convexity(p, eps)
            ok = exact - 1e-9 <= est <= exact + 1e-6  # an upper estimate of an infimum
            ops.append((op, [] if ok else ["within_bounds"]))
        for tau, est, op in zip(SMOOTHNESS_GRID, smooth["estimates"], names[len(CONVEXITY_GRID):]):
            exact = oracles.modulus_smoothness(p, tau)
            ok = exact - 1e-6 <= est <= exact + 1e-9  # a lower estimate of a supremum
            ops.append((op, [] if ok else ["within_bounds"]))
        ops.append((names[-1], [] if violations == 0 else ["no_violations"]))
        if list(conv["args"]) != list(CONVEXITY_GRID) or list(smooth["args"]) != list(SMOOTHNESS_GRID):
            ops[0] = (name, ops[0][1] + ["grids"])
        return ops

    return Call(name, ["moduli", "--config", path, "--out", str(out)], out, check)


def moduli_lp(root: Path, seed: int) -> list[Call]:
    """The seed is unused; see MODULI_SEED."""
    return [_moduli_call(root, p) for p in (3.0, 1.5)]


WORKLOADS = {
    "gap-finite": gap_finite,
    "gap-free2-dirichlet": gap_free2_dirichlet,
    "graph-descent": graph_descent,
    "moduli-lp": moduli_lp,
}
