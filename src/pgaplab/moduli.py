"""Moduli of convexity and smoothness of finite-dimensional l^p, estimated.

The convexity modulus at eps is an infimum over constrained pairs, so every
reported value is an upper bound; the smoothness modulus is a supremum, so
reported values are lower bounds.  Structured two-dimensional starts seed
the local solver (they are exact in the Hilbert case) and random starts
polish.  The duality-map continuity inequality is checked against the
estimated smoothness curve inflated by a configurable envelope factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BadEpsilon, ValidationError
from .lpspace import signed_power


# unlike lpspace.power_norm this does not sort, and moduli.json depends on its rounding
def _pnorm(x: np.ndarray, p: float) -> float:
    m = float(np.max(np.abs(x), initial=0.0))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((np.abs(x) / m) ** p) ** (1.0 / p))


def hilbert_modulus_convexity(eps: float) -> float:
    # parallelogram law: |u+v|^2 + |u-v|^2 = 2|u|^2 + 2|v|^2
    return 1.0 - np.sqrt(max(0.0, 1.0 - eps**2 / 4.0))


def hilbert_modulus_smoothness(tau: float) -> float:
    return np.sqrt(1.0 + tau**2) - 1.0


@dataclass
class ModulusCurve:
    """Estimated modulus curve on a grid of arguments."""

    p: float
    dim: int
    kind: str  # "convexity" | "smoothness"
    args: np.ndarray
    estimates: np.ndarray
    starts: int
    spread: np.ndarray  # max - min over successful starts, per argument

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("argument,estimate,starts,spread\n")
            for a, e, s in zip(self.args, self.estimates, self.spread):
                fh.write(f"{float(a)!r},{float(e)!r},{self.starts},{float(s)!r}\n")

    def interpolator(self):
        """Piecewise-linear evaluation through (0, 0) and the grid knots."""
        xs = np.concatenate([[0.0], self.args])
        ys = np.concatenate([[0.0], self.estimates])
        return lambda t: np.interp(t, xs, ys)


def _solve_batch(objective, constraints, starts, *, maximize=False):
    best = np.inf
    values = []
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-12},
        )
        if not np.isfinite(res.fun):
            continue
        # clamp back to the feasible set before trusting the value
        ok = all(c["fun"](res.x) >= -1e-9 for c in constraints)
        if ok:
            values.append(float(res.fun))
            best = min(best, float(res.fun))
    if not values:
        return None, []
    return best, values


def modulus_convexity(
    p: float, dim: int, eps_grid, budget: int = 256, seed: int = 0
) -> ModulusCurve:
    """Upper estimates of inf {1 - |u+v|/2 : |u|,|v| <= 1, |u-v| >= eps}."""
    if not 1.0 < p < np.inf:
        raise ValidationError(f"exponent must lie in (1, inf): {p}")
    if dim < 2:
        raise ValidationError("modulus estimation needs dim >= 2")
    eps_grid = np.asarray(sorted(float(e) for e in eps_grid))
    if (eps_grid <= 0).any() or (eps_grid > 2).any():
        raise BadEpsilon("convexity arguments must lie in (0, 2]")
    rng = np.random.default_rng(seed)

    estimates = np.empty(len(eps_grid))
    spread = np.empty(len(eps_grid))
    for i, eps in enumerate(eps_grid):
        def objective(x):
            u, v = x[:dim], x[dim:]
            return 1.0 - _pnorm(u + v, p) / 2.0

        constraints = [
            {"type": "ineq", "fun": lambda x: 1.0 - _pnorm(x[:dim], p)},
            {"type": "ineq", "fun": lambda x: 1.0 - _pnorm(x[dim:], p)},
            {"type": "ineq", "fun": lambda x, e=eps: _pnorm(x[:dim] - x[dim:], p) - e},
        ]
        starts = []
        half = (eps / 2.0) ** p
        if half < 1.0:
            a = (1.0 - half) ** (1.0 / p)
            s = np.zeros(2 * dim)
            s[0], s[1] = a, eps / 2.0
            s[dim], s[dim + 1] = a, -eps / 2.0
            starts.append(s)
        anti = np.zeros(2 * dim)
        anti[0], anti[dim] = 1.0, -1.0
        starts.append(anti)
        for _ in range(budget):
            x = rng.standard_normal(2 * dim)
            x[:dim] /= max(_pnorm(x[:dim], p), 1e-12)
            x[dim:] /= max(_pnorm(x[dim:], p), 1e-12)
            starts.append(x)
        best, values = _solve_batch(objective, constraints, starts)
        if best is None:
            best, values = 1.0, [1.0]
        estimates[i] = min(max(best, 0.0), 1.0)
        spread[i] = max(values) - min(values)

    # a pair feasible at a larger eps is feasible at any smaller one
    for i in range(len(eps_grid) - 2, -1, -1):
        estimates[i] = min(estimates[i], estimates[i + 1])

    return ModulusCurve(p, dim, "convexity", eps_grid, estimates, len(starts), spread)


def modulus_smoothness(
    p: float, dim: int, tau_grid, budget: int = 256, seed: int = 0
) -> ModulusCurve:
    """Lower estimates of sup {(|u+v| + |u-v|)/2 - 1 : |u| <= 1, |v| <= tau}."""
    if not 1.0 < p < np.inf:
        raise ValidationError(f"exponent must lie in (1, inf): {p}")
    if dim < 2:
        raise ValidationError("modulus estimation needs dim >= 2")
    tau_grid = np.asarray(sorted(float(t) for t in tau_grid))
    if (tau_grid <= 0).any():
        raise ValidationError("smoothness arguments must be positive")
    rng = np.random.default_rng(seed)

    estimates = np.empty(len(tau_grid))
    spread = np.empty(len(tau_grid))
    for i, tau in enumerate(tau_grid):
        def objective(x):
            u, v = x[:dim], x[dim:]
            return -((_pnorm(u + v, p) + _pnorm(u - v, p)) / 2.0 - 1.0)

        constraints = [
            {"type": "ineq", "fun": lambda x: 1.0 - _pnorm(x[:dim], p)},
            {"type": "ineq", "fun": lambda x, t=tau: t - _pnorm(x[dim:], p)},
        ]
        starts = []
        s1 = np.zeros(2 * dim)
        s1[0], s1[dim + 1] = 1.0, tau
        starts.append(s1)
        s2 = np.zeros(2 * dim)
        s2[0], s2[dim] = 1.0, tau
        starts.append(s2)
        s3 = np.zeros(2 * dim)
        w = 2.0 ** (-1.0 / p)
        s3[0], s3[1] = w, w
        s3[dim], s3[dim + 1] = tau * w, -tau * w
        starts.append(s3)
        for _ in range(budget):
            x = rng.standard_normal(2 * dim)
            x[:dim] /= max(_pnorm(x[:dim], p), 1e-12)
            x[dim:] *= tau / max(_pnorm(x[dim:], p), 1e-12)
            starts.append(x)
        best, values = _solve_batch(objective, constraints, starts)
        if best is None:
            best, values = 0.0, [0.0]
        estimates[i] = max(-best, 0.0)
        spread[i] = max(values) - min(values)

    # a witness with |v| <= tau_i works at every larger tau
    for i in range(1, len(tau_grid)):
        estimates[i] = max(estimates[i], estimates[i - 1])

    return ModulusCurve(p, dim, "smoothness", tau_grid, estimates, len(starts), spread)


# ---------------------------------------------------------------------------
# duality-map continuity


def duality_continuity_check(
    p: float,
    dim: int,
    trials: int,
    *,
    seed: int = 0,
    envelope: float = 1.05,
    rho_curve: ModulusCurve | None = None,
    rho_budget: int = 32,
    rho_grid_size: int = 48,
    max_examples: int = 100,
) -> dict:
    """Check |j(v/|v|) - j(u/|u|)|_q <= envelope * 2 rho(2s)/s + 1e-6 on
    random pairs, s the normalized-gap norm.

    The Hilbert smoothness modulus is known in closed form, so p = 2 uses
    it directly; other exponents interpolate an estimated (lower-bound)
    curve, inflated by `envelope` to absorb the one-sided error.
    """
    if not 1.0 < p < np.inf:
        raise ValidationError(f"exponent must lie in (1, inf): {p}")
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)

    if p == 2.0:
        rho = hilbert_modulus_smoothness
        rho_source = "hilbert-closed-form"
    else:
        if rho_curve is None:
            grid = np.linspace(4.0 / rho_grid_size, 4.0, rho_grid_size)
            rho_curve = modulus_smoothness(p, dim, grid, budget=rho_budget, seed=seed + 1)
        rho = rho_curve.interpolator()
        rho_source = "estimated-curve"

    v = rng.standard_normal((trials, dim))
    u = rng.standard_normal((trials, dim))
    vn = np.sum(np.abs(v) ** p, axis=1) ** (1.0 / p)
    un = np.sum(np.abs(u) ** p, axis=1) ** (1.0 / p)
    keep = (vn > 1e-12) & (un > 1e-12)
    v = v[keep] / vn[keep, None]
    u = u[keep] / un[keep, None]
    s = np.sum(np.abs(v - u) ** p, axis=1) ** (1.0 / p)
    distinct = s > 1e-9
    v, u, s = v[distinct], u[distinct], s[distinct]

    jv = signed_power(v, p - 1.0)  # support functionals of the unit rows
    ju = signed_power(u, p - 1.0)
    lhs = np.sum(np.abs(jv - ju) ** q, axis=1) ** (1.0 / q)
    rhs = envelope * 2.0 * np.asarray(rho(2.0 * s)) / s + 1e-6
    bad = lhs > rhs

    examples = []
    for idx in np.nonzero(bad)[0][:max_examples]:
        examples.append(
            {
                "s": float(s[idx]),
                "lhs": float(lhs[idx]),
                "rhs": float(rhs[idx]),
                "v": v[idx].tolist(),
                "u": u[idx].tolist(),
            }
        )
    checked = int(s.size)
    return {
        "p": p,
        "dim": dim,
        "trials": checked,
        "skipped": int(trials - checked),
        "violations": int(bad.sum()),
        "violationRate": float(bad.sum()) / max(checked, 1),
        "envelope": envelope,
        "rhoSource": rho_source,
        "examples": examples,
    }
