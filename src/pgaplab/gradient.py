"""Absolute gradient of the displacement energy: closed form, descent, and a
sampled lower bound kept as a diagnostic.

At a point with positive energy the maximal descent slope of F over unit
directions has the closed form 2 |xi|_q / F^(p-1), where xi is the weighted
sum of the generator displacement functionals.  The direction attaining it
is recovered by inverse duality, which is what the descent loop follows.
`directional_derivative` takes the slope along a given direction from the
forward gather, so it checks the closed form without sampling.

Two slopes are in use.  The ambient slope (`abs_gradient`) ranges over every
unit direction of l^p(G).  The restricted slope (`restricted_slope`) ranges
over the unit directions of a domain, the space of the representation the
estimate is restricted to; it replaces xi by `Domain.restrict_dual(xi)`.
`descend` follows the restricted slope, and the gap constants C_grad and
C_lap are its infimum and half of it; `abs_gradient` is the restricted
slope on the ambient `FullDomain`.

F is the displacement energy at r = p, and p is the representation's
exponent, read off the action or the domain: no function here takes an
exponent.  Points and directions are float64 (n,) arrays in l^p; xi and
the other dual elements are l^q coefficient arrays, q = p/(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import AffineAction, Domain, FullDomain, default_domain
from .energy import displacement_energy, gradient_field, weighted_r_mean
from .errors import AtFixedPoint, NonsmoothPoint, ValidationError
from .lpspace import (
    conjugate_exponent,
    norming_vector,
    power_norm,
    row_power_norms,
    signed_power,
)


@dataclass
class GradientResult:
    """Closed-form absolute gradient at a point.

    value is 2 |dual_element|_q / F^(p-1), with dual_element the l^q
    coefficient array of the pointwise gradient field.  steepest_direction
    is the unit l^p array attaining the descent slope (norming vector of the
    dual element); stepping along it with a positive step decreases the
    energy.
    """

    value: float
    energy: float
    dual_element: np.ndarray
    steepest_direction: np.ndarray


def abs_gradient(action: AffineAction, v: np.ndarray, *, check=True) -> GradientResult:
    """Closed-form ambient absolute gradient 2 |xi|_q / F^(p-1) at v, over
    every direction of l^p(G) (needs F(v) > 0): the restricted slope on the
    ambient `FullDomain`."""
    rep = action.rep
    f_val = displacement_energy(action, v, check=check)
    if f_val == 0.0:
        raise AtFixedPoint("energy vanishes at v; the gradient is 0 by convention")
    value, xi = restricted_slope(action, v, FullDomain(rep), f_val)
    return GradientResult(
        value=value,
        energy=f_val,
        dual_element=xi,
        steepest_direction=norming_vector(xi, conjugate_exponent(rep.p)),
    )


def finite_difference_quotient(
    action: AffineAction, v: np.ndarray, u: np.ndarray, h: float, scheme="central"
) -> float:
    """Finite-difference value of the descent quotient (F(v) - F(v+eps u))/eps,
    F = F_p."""
    f = lambda w: displacement_energy(action, w, check=False)
    if scheme == "central":
        return -(f(v + h * u) - f(v - h * u)) / (2.0 * h)
    return (f(v) - f(v + h * u)) / h


def directional_derivative(
    action: AffineAction,
    v: np.ndarray,
    u: np.ndarray,
    *,
    h: float = 1e-5,
    nonsmooth: str = "fallback",
) -> float:
    """Limit of the descent quotient (F(v) - F(v + eps u))/eps as eps -> 0+.

    Uses the closed form when every generator displacement is a nonzero
    vector; otherwise falls back to a one-sided finite difference (or raises
    NonsmoothPoint when nonsmooth="raise").
    """
    rep = action.rep
    p = rep.p
    rep.check_admissible(v)
    disp = action.displacements(v)
    norms = row_power_norms(disp, p)
    f_val = weighted_r_mean(norms, rep.weights, p)  # F_p(v), as displacement_energy takes it
    if f_val == 0.0:
        raise AtFixedPoint("descent quotient undefined where the energy vanishes")
    if (norms == 0.0).any():
        if nonsmooth == "raise":
            raise NonsmoothPoint("some generator displacement vanishes at v")
        return finite_difference_quotient(action, v, u, h, scheme="one_sided")

    du = rep.apply_array(slice(None), u) - u
    jd = signed_power(disp / norms[:, None], p - 1.0)
    coef = rep.weights * (norms / f_val) ** (p - 1.0)
    return -float(np.dot(coef, np.einsum("kn,kn->k", jd, du)))


def abs_gradient_sampled(
    action: AffineAction,
    v: np.ndarray,
    budget: int = 64,
    *,
    seed: int = 0,
    domain: Domain | None = None,
    fixed_point: np.ndarray | None = None,
    include_steepest: bool = True,
) -> float:
    """Lower-bound estimate of the absolute gradient of F_p by difference
    quotients.

    Samples random unit directions at radii {1e-3, 1e-2, 0.1, 1} times |v|,
    plus the ray toward a known fixed point and the closed-form steepest
    direction when available.  Always a valid lower bound for the true value.
    A diagnostic only: `verify` checks the closed-form slope exactly, through
    `directional_derivative` and central differences, and never calls it.
    """
    if budget < 1:
        raise ValidationError("sampling budget must be >= 1")
    rep = action.rep
    if domain is None:
        domain = default_domain(rep, "full" if rep.mode == "full" else "dirichlet")
    p = rep.p
    q = conjugate_exponent(p)
    rng = np.random.default_rng(seed)
    f_v = displacement_energy(action, v)
    scale = power_norm(v, p) or 1.0
    radii = np.array([1e-3, 1e-2, 0.1, 1.0]) * scale

    directions = [domain.random_unit(rng) for _ in range(budget)]
    if include_steepest and f_v > 0.0:
        xi = domain.restrict_dual(gradient_field(action, v, check=False))
        if power_norm(xi, q) > 0.0:
            vals = domain.project(norming_vector(xi, q))
            nrm = power_norm(vals, p)
            if nrm > 0.0:
                directions.append(vals / nrm)
    candidates = []
    if fixed_point is not None:
        diff = fixed_point - v
        nd = power_norm(diff, p)
        if nd > 0.0:
            directions.append((1.0 / nd) * diff)
            candidates.append(fixed_point)

    best = 0.0
    for u in directions:
        for s in radii:
            w = v + float(s) * u
            f_w = displacement_energy(action, w, check=False)
            best = max(best, (f_v - f_w) / float(s))
    for w in candidates:
        dist = power_norm(v - w, p)
        if dist > 0.0:
            f_w = displacement_energy(action, w, check=False)
            best = max(best, (f_v - f_w) / dist)
    return max(best, 0.0)


def restricted_slope(
    action: AffineAction, v: np.ndarray, domain: Domain, energy: float | None = None
) -> tuple[float, np.ndarray | None]:
    """Restricted absolute gradient 2 |restrict_dual(xi)|_q / F^(p-1) at v.

    Returns the slope and the restricted dual element, whose norming vector
    is the steepest descent direction inside the domain; (0.0, None) where
    the energy vanishes.  `energy`, when given, is F_p(v).
    """
    p = action.rep.p
    if energy is None:
        energy = displacement_energy(action, v, check=False)
    if energy == 0.0:
        return 0.0, None
    xi = domain.restrict_dual(gradient_field(action, v, check=False))
    return 2.0 * power_norm(xi, conjugate_exponent(p)) / energy ** (p - 1.0), xi


def steepest_direction(domain: Domain, xi: np.ndarray) -> np.ndarray:
    """Unit steepest descent direction inside the domain for the restricted
    dual element xi: its norming vector, projected onto the domain (which
    removes rounding off it) and renormalised."""
    p = domain.rep.p
    vals = domain.project(norming_vector(xi, conjugate_exponent(p)))
    return vals / power_norm(vals, p)


# descend's Armijo line search: sufficient-decrease fraction, step shrink
# factor and the number of rejected steps after which it stalls
ARMIJO = 0.5
SHRINK = 0.5
MAX_HALVINGS = 60


@dataclass
class DescentOptions:
    abs_tol: float = 1e-8
    grad_tol: float = 1e-6
    max_iters: int = 10_000


@dataclass
class DescentTrace:
    """Record of a subgradient descent run toward a fixed point."""

    rows: list = field(default_factory=list)  # (iter, F, grad, step)
    terminal: np.ndarray | None = None
    reason: str = ""
    final_energy: float = float("nan")  # energy at the terminal
    energy_evals: int = 0  # energies taken: the start's and each trial's

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,F,grad,step\n")
            for it, f, g, s in self.rows:
                fh.write(f"{it},{f!r},{g!r},{s!r}\n")


def descend(
    action: AffineAction,
    v0: np.ndarray,
    options: DescentOptions | None = None,
    *,
    domain: Domain | None = None,
) -> DescentTrace:
    """Backtracking steepest descent on the displacement energy.

    v_{k+1} = v_k + t_k u_k with u_k the domain-restricted steepest descent
    direction and t_k found by Armijo backtracking: the first trial is
    F(v_0)/2 at the start and min(2 t_{k-1}, F(v_k)/2) after an accepted
    step t_{k-1}, and each rejected trial is halved.  Stops at
    F <= abs_tol, slope <= grad_tol, the iteration cap, or a stall after
    MAX_HALVINGS rejected steps (reported in the trace, not raised).
    v0 must pass `check_admissible`; the descent starts from its projection
    onto the domain.

    F is a cone at its fixed points, so the slope does not vanish near one:
    on a fixed-vector-free domain the restricted slope is at least C_p
    everywhere, and the grad_tol stop fires only when C_p <= grad_tol.
    The slope is exact on every domain, mean-zero included, where
    `restrict_dual` solves for its shift to rounding at any scale; an
    overstated slope would make Armijo demand more decrease than the
    direction gives, and accept only null steps near a fixed point.
    Each accepted trial's energy is carried as the next iterate's, so
    final_energy is F at the terminal.
    """
    opts = options or DescentOptions()
    rep = action.rep
    if domain is None:
        domain = default_domain(rep, "full" if rep.mode == "full" else "dirichlet")

    rep.check_admissible(v0)
    v = domain.project(v0)
    f_v = displacement_energy(action, v, check=False)
    trace = DescentTrace(energy_evals=1)
    reason = "max_iters"
    t = np.inf  # the last accepted step
    for it in range(opts.max_iters):
        if f_v <= opts.abs_tol:
            trace.rows.append((it, f_v, 0.0, 0.0))
            reason = "f_tol"
            break
        slope, xi = restricted_slope(action, v, domain, f_v)
        if slope <= opts.grad_tol:
            trace.rows.append((it, f_v, slope, 0.0))
            reason = "grad_tol"
            break
        u = steepest_direction(domain, xi)

        t = min(2.0 * t, f_v / 2.0)
        accepted = False
        for _ in range(MAX_HALVINGS):
            w = v + t * u
            f_w = displacement_energy(action, w, check=False)
            trace.energy_evals += 1
            if f_w <= f_v - ARMIJO * t * slope:
                trace.rows.append((it, f_v, slope, t))
                rep.check_admissible(w)  # f_w was taken without the check
                v, f_v = w, f_w
                accepted = True
                break
            t *= SHRINK
        if not accepted:
            trace.rows.append((it, f_v, slope, 0.0))
            reason = "stalled"
            break
    trace.terminal = v
    trace.reason = reason
    trace.final_energy = f_v
    return trace
