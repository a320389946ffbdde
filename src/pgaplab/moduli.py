"""Moduli of convexity and smoothness of finite-dimensional l^p.

Both moduli are reported exactly, from their closed forms (Hanner, Ark.
Mat. 3, 1956; Lindenstrauss-Tzafriri, Classical Banach Spaces II, 1.e):
- delta_p (`lp_modulus_convexity`): Clarkson's closed form for p >= 2 and
  the root of Hanner's equation for 1 < p < 2;
- rho_p (`lp_modulus_smoothness`): (1 + tau^p)^(1/p) - 1 for p <= 2 and a
  two-point mean for p >= 2.

Both are attained on two coordinates, so they hold in l^p_dim for every
dim >= 2.  The duality-map continuity check measures against the exact
rho_p, with no allowance for estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadEpsilon, ValidationError
from .lpspace import conjugate_exponent, signed_power


# No code in the program calls this.  It stays, importing scipy at first
# call, because benchmarks/tracing.py patches moduli.minimize at install.
def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported at first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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
    # the left side decreases in delta, from >= 2 at 0 to < 2 at 1: bisect,
    # keeping lo where it exceeds 2, until the midpoint no longer moves
    lo, mid, hi = 0.0, 0.5, 1.0
    while lo < mid < hi:
        if (1.0 - mid + eps / 2.0) ** p + abs(1.0 - mid - eps / 2.0) ** p > 2.0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
    return mid


def hilbert_modulus_convexity(eps: float) -> float:
    return lp_modulus_convexity(2.0, eps)


@dataclass
class ModulusCurve:
    """Exact modulus curve of l^p_dim on a grid of arguments."""

    p: float
    dim: int
    kind: str  # "convexity" | "smoothness"
    args: np.ndarray
    estimates: np.ndarray

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("argument,estimate\n")
            for a, e in zip(self.args, self.estimates):
                fh.write(f"{float(a)!r},{float(e)!r}\n")


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
    return ModulusCurve(p, dim, "convexity", eps_grid, estimates)


def modulus_smoothness(p: float, dim: int, tau_grid) -> ModulusCurve:
    """Exact sup {(|u+v| + |u-v|)/2 - 1 : |u| <= 1, |v| <= tau} on the grid."""
    _check_space(p, dim)
    tau_grid = np.asarray(sorted(float(t) for t in tau_grid))
    if (tau_grid <= 0).any():
        raise ValidationError("smoothness arguments must be positive")
    return ModulusCurve(p, dim, "smoothness", tau_grid, lp_modulus_smoothness(p, tau_grid))


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
