"""Moduli of convexity and smoothness of finite-dimensional l^p.

The convexity modulus delta_p is reported exactly (`lp_modulus_convexity`):
Clarkson's closed form for p >= 2 and the root of Hanner's equation for
1 < p < 2.  Both are attained on two coordinates, so they hold in l^p_dim
for every dim >= 2.

The smoothness modulus rho is estimated.  It is a supremum, so reported
values are lower bounds.  Structured two-dimensional starts seed the local
solver SLSQP and random starts polish.  Objectives and constraints are
p-norms of u, v, u + v and u - v, so SLSQP is given their analytic
gradients (`_pnorm_grad`) instead of differencing them.  A solution is
scaled back into its two balls and re-evaluated before it counts, so each
reported rho is attained by a feasible pair.  No such exact repair exists
for a pair that breaks the separation |u - v| >= eps of delta, which is why
delta is not estimated this way.

rho_p is also known in closed form (`lp_modulus_smoothness`); the
duality-map continuity check measures against that exact rho, with no
allowance for estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import BadEpsilon, ValidationError
from .lpspace import conjugate_exponent, signed_power


# unlike lpspace.power_norm this does not sort, and moduli.json depends on its rounding
def _pnorm(x: np.ndarray, p: float) -> float:
    m = float(np.max(np.abs(x), initial=0.0))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((np.abs(x) / m) ** p) ** (1.0 / p))


def _pnorm_grad(x: np.ndarray, p: float) -> np.ndarray:
    """Gradient of |x|_p: signed_power(x / |x|_p, p - 1), and 0 at x = 0."""
    n = _pnorm(x, p)
    if n == 0.0:
        return np.zeros_like(x)
    return signed_power(x / n, p - 1.0)


def lp_modulus_smoothness(p: float, tau):
    """Exact rho_p(tau) of l^p_n, n >= 2 (Lindenstrauss-Tzafriri, Classical
    Banach Spaces II, 1.e); tau may be an array.

    (1 + tau^p)^(1/p) - 1 for p <= 2, ((|1 + tau|^p + |1 - tau|^p)/2)^(1/p) - 1
    for p >= 2.  Both are attained on two coordinates.
    """
    if p <= 2.0:
        return (1.0 + tau**p) ** (1.0 / p) - 1.0
    return ((np.abs(1.0 + tau) ** p + np.abs(1.0 - tau) ** p) / 2.0) ** (1.0 / p) - 1.0


def hilbert_modulus_smoothness(tau: float) -> float:
    return lp_modulus_smoothness(2.0, tau)


def lp_modulus_convexity(p: float, eps: float) -> float:
    """Exact delta_p(eps) of l^p_n, n >= 2, for 0 <= eps <= 2 (Hanner, Ark.
    Mat. 3, 1956; Lindenstrauss-Tzafriri, Classical Banach Spaces II, 1.e).

    1 - (1 - (eps/2)^p)^(1/p) for p >= 2, attained by u, v = (a, +-eps/2);
    for 1 < p < 2 the root delta of (1 - delta + eps/2)^p + |1 - delta -
    eps/2|^p = 2, attained by u = (s, t), v = (t, s) with s, t =
    (1 - delta +- eps/2) / 2^(1/p).
    """
    if p >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
    if eps >= 2.0:
        return 1.0  # the root sits on the end of the bracket

    def excess(delta):  # decreasing from >= 0 at delta = 0 to < 0 at delta = 1
        return (1.0 - delta + eps / 2.0) ** p + abs(1.0 - delta - eps / 2.0) ** p - 2.0

    return brentq(excess, 0.0, 1.0, xtol=1e-15, maxiter=500)


def hilbert_modulus_convexity(eps: float) -> float:
    return lp_modulus_convexity(2.0, eps)


@dataclass
class ModulusCurve:
    """Modulus curve on a grid of arguments: exact for convexity (no starts,
    zero spread), an SLSQP estimate for smoothness."""

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


# Problems are posed on x = (u, v), u = x[:dim] and v = x[dim:].


def _norm_bound(p: float, part: slice, bound: float) -> dict:
    """bound - |x[part]|_p >= 0 as an SLSQP inequality, with its Jacobian."""

    def jac(x):
        g = np.zeros_like(x)
        g[part] = -_pnorm_grad(x[part], p)
        return g

    return {"type": "ineq", "fun": lambda x: bound - _pnorm(x[part], p), "jac": jac}


def _into_ball(y: np.ndarray, p: float, radius: float) -> np.ndarray:
    """y scaled into the p-norm ball of `radius`.  y / |y| can round to just
    outside, so the scale steps down until the norm is within the radius."""
    n = _pnorm(y, p)
    while n > radius:
        y = y * np.nextafter(radius / n, 0.0)
        n = _pnorm(y, p)
    return y


def _smoothness_problem(p: float, dim: int, tau: float):
    """Objective -((|u+v| + |u-v|)/2 - 1), its gradient, and |u| <= 1, |v| <= tau."""

    def objective(x):
        u, v = x[:dim], x[dim:]
        return -((_pnorm(u + v, p) + _pnorm(u - v, p)) / 2.0 - 1.0)

    def gradient(x):
        a = _pnorm_grad(x[:dim] + x[dim:], p)
        b = _pnorm_grad(x[:dim] - x[dim:], p)
        return np.concatenate([a + b, a - b]) / -2.0

    balls = [_norm_bound(p, slice(None, dim), 1.0), _norm_bound(p, slice(dim, None), tau)]
    return objective, gradient, balls


def _solve_batch(objective, gradient, constraints, starts, repair):
    """Objective values of the accepted SLSQP solutions from `starts`.

    Each solution is first mapped by `repair` and re-evaluated there, and
    counts only if it breaks no constraint at all.
    """
    values = []
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            jac=gradient,
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-12},
        )
        x = repair(res.x)
        fun = float(objective(x))
        if np.isfinite(fun) and all(c["fun"](x) >= 0.0 for c in constraints):
            values.append(fun)
    return values


def _check_space(p: float, dim: int) -> None:
    conjugate_exponent(p)  # rejects p outside (1, inf)
    if dim < 2:
        raise ValidationError("l^p moduli need dim >= 2")


def modulus_convexity(p: float, dim: int, eps_grid) -> ModulusCurve:
    """Exact inf {1 - |u+v|/2 : |u|,|v| <= 1, |u-v| >= eps} on the grid."""
    _check_space(p, dim)
    eps_grid = np.asarray(sorted(float(e) for e in eps_grid))
    if (eps_grid <= 0).any() or (eps_grid > 2).any():
        raise BadEpsilon("convexity arguments must lie in (0, 2]")
    estimates = np.array([lp_modulus_convexity(p, e) for e in eps_grid])
    return ModulusCurve(p, dim, "convexity", eps_grid, estimates, 0, np.zeros(len(eps_grid)))


def modulus_smoothness(
    p: float, dim: int, tau_grid, budget: int = 256, seed: int = 0
) -> ModulusCurve:
    """Lower estimates of sup {(|u+v| + |u-v|)/2 - 1 : |u| <= 1, |v| <= tau}."""
    _check_space(p, dim)
    tau_grid = np.asarray(sorted(float(t) for t in tau_grid))
    if (tau_grid <= 0).any():
        raise ValidationError("smoothness arguments must be positive")
    rng = np.random.default_rng(seed)

    estimates = np.empty(len(tau_grid))
    spread = np.empty(len(tau_grid))
    for i, tau in enumerate(tau_grid):
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

        def into_balls(x, t=tau):
            # both constraints are norm bounds, so scaling is an exact repair
            return np.concatenate([_into_ball(x[:dim], p, 1.0), _into_ball(x[dim:], p, t)])

        values = _solve_batch(*_smoothness_problem(p, dim, tau), starts, into_balls) or [0.0]
        estimates[i] = max(-min(values), 0.0)
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
    max_examples: int = 100,
) -> dict:
    """Check |j(v) - j(u)|_q <= 2 rho_p(2s)/s + 1e-6 on random pairs of
    unit vectors of l^p_dim, s = |v - u|_p and j the duality map.

    rho_p is the exact smoothness modulus (`lp_modulus_smoothness`), so a
    violation is a violation of the inequality itself, not of an estimate;
    the 1e-6 absorbs rounding only.
    """
    q = conjugate_exponent(p)
    rng = np.random.default_rng(seed)

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
    rhs = 2.0 * lp_modulus_smoothness(p, 2.0 * s) / s + 1e-6
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
        "examples": examples,
    }
