"""Displacement energies, cocycle norms, the Dirichlet norm and p-Laplacian.

The displacement energy of an affine isometric action alpha at v is the
weighted r-mean over generators of |alpha(g) v - v|_p (max over K at
r = inf).  It vanishes exactly at fixed points, is convex, 2-Lipschitz,
and for linear actions positively homogeneous.

The ambient exponent p is the representation's, read through the action
or cocycle; an energy takes only the generator exponent r, which defaults
to p.  Vectors are float64 (n,) arrays in l^p; the p-Laplacian and the
gradient field return the l^q coefficient array of a functional,
q = p/(p-1).
"""

from __future__ import annotations

import numpy as np

from . import lpspace
from .action import AffineAction, Cocycle, Representation, coboundary
from .errors import ValidationError
from .lpspace import row_power_norms, signed_power

# nothing here calls it: benchmarks/test_oracles.py checks that the tracer
# restores the alias energy.power_norm
power_norm = lpspace.power_norm


def weighted_r_mean(values: np.ndarray, weights: np.ndarray, r: float) -> float:
    """(sum w_i x_i^r)^(1/r) for x >= 0; max at r = inf.  An r outside
    [1, inf], NaN included, raises ValidationError."""
    if not 1.0 <= r <= np.inf:
        raise ValidationError(f"generator exponent must lie in [1, inf]: {r}")
    values = np.asarray(values, dtype=np.float64)
    if np.isinf(r):
        return float(values.max(initial=0.0))
    m = float(values.max(initial=0.0))
    if m == 0.0:
        return 0.0
    return m * float(np.sum(weights * (values / m) ** r) ** (1.0 / r))


def displacement_energy(action: AffineAction, v: np.ndarray, r: float | None = None, *, check=True) -> float:
    """Weighted r-mean over generators of |alpha(g) v - v|_p; r defaults to p."""
    rep = action.rep
    if check:
        rep.check_admissible(v)
    disp = row_power_norms(action.displacements(v), rep.p)
    return weighted_r_mean(disp, rep.weights, rep.p if r is None else r)


def cocycle_norm(c: Cocycle, r: float | None = None) -> float:
    """Weighted r-mean of |c(g)|_p over generators, r defaulting to p; the
    Z^1 norm."""
    rep = c.rep
    return weighted_r_mean(row_power_norms(c.values, rep.p), rep.weights, rep.p if r is None else r)


def dirichlet_norm(rep: Representation, f: np.ndarray, *, check=True) -> float:
    """(sum_g |df(g)|_p^p m(g))^(1/p); vanishes exactly on constants."""
    if check:
        rep.check_admissible(f)
    return cocycle_norm(coboundary(rep, f))


def p_laplacian(rep: Representation, f: np.ndarray, *, check=True) -> np.ndarray:
    """Pointwise sum_g |df(g)(x)|^(p-2) df(g)(x) m(g), paired with l^q.

    The factor |t|^(p-2) t is evaluated as sign(t) |t|^(p-1), which is zero
    at t = 0 for every p > 1.  It is the gradient field of the linear action.
    """
    return gradient_field(AffineAction.linear(rep), f, check=check)


def weighted_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k weights[k] rows[k], accumulated in generator order from zero."""
    return np.add.reduce(weights[:, None] * rows, axis=0, initial=0.0)


def gradient_field(action: AffineAction, f: np.ndarray, *, check=True) -> np.ndarray:
    """Pointwise sum_g |Dv(g)(x)|^(p-2) Dv(g)(x) m(g) with Dv(g) = alpha(g)v - v.

    Coincides with the p-Laplacian when the cocycle part vanishes.
    """
    rep = action.rep
    if check:
        rep.check_admissible(f)
    return weighted_sum(rep.weights, signed_power(action.displacements(f), rep.p - 1.0))


def markov_operator(rep: Representation, f: np.ndarray) -> np.ndarray:
    """Weighted mean of the generator translates, sum_g m(g) pi(g) f."""
    return weighted_sum(rep.weights, rep.apply_array(slice(None), f))
