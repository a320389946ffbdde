"""Absolute gradient of the displacement energy: closed form, descent, and a
sampled lower bound kept as a diagnostic.

At a point with positive energy the maximal descent slope of F over unit
directions has the closed form 2 |xi|_q / F^(p-1), where xi is the weighted
sum of the generator displacement functionals.  The direction attaining it
is recovered by inverse duality.  The same identity gives the Euclidean
gradient -2 F^(1-p) xi of F, and so -4 F^(2-p) xi of F^2
(`energy_gradient`), with no second derivative.  `directional_derivative`
takes the slope along a given direction from the forward gather, so it
checks the closed form without sampling.

Two slopes are in use.  The ambient slope (`abs_gradient`) ranges over every
unit direction of l^p(G).  The restricted slope (`restricted_slope`) ranges
over the unit directions of a domain, the space of the representation the
estimate is restricted to; it replaces xi by `Domain.restrict_dual(xi)`.
The gap constants C_grad and C_lap are its infimum and half of it;
`abs_gradient` is the restricted slope on the ambient `FullDomain`.

`descend` runs a limited-memory quasi-Newton (L-BFGS) descent on F^2 inside
the domain, and falls back to a steepest step on F along the restricted
steepest direction where the quasi-Newton step does not descend.

F is the displacement energy at r = p, and p is the representation's
exponent, read off the action or the domain: no function here takes an
exponent.  Points and directions are float64 (n,) arrays in l^p; xi and
the other dual elements are l^q coefficient arrays, q = p/(p-1).
"""

from __future__ import annotations

from collections import deque
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
    same_point,
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


def energy_gradient(domain: Domain, energy: float, xi: np.ndarray) -> np.ndarray:
    """Euclidean gradient of F^2 inside the domain, -4 F^(2-p) xi, at a point
    where F = energy > 0 and xi is the restricted dual element
    (`restricted_slope`).  It is the identity behind the closed-form slope:
    the derivative of F along u is -2 F^(1-p) <xi, u>."""
    return domain.project((-4.0 * energy ** (2.0 - domain.rep.p)) * xi)


def lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the pairs (s, y, 1/(s.y)),
    oldest first, by the two-loop recursion, with the initial H scaled by
    s.y / y.y of the newest pair (Liu-Nocedal, Math. Programming 45, 1989)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    _, y, rho = pairs[-1]
    r = q / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return -r


# descend's steepest step: its Armijo fraction of the slope, the step
# shrink factor of both line searches and their number of trials
ARMIJO = 0.5
SHRINK = 0.5
MAX_HALVINGS = 60
# descend's quasi-Newton step: the (s, y) pairs kept and the Armijo
# fraction of its test on F^2
LBFGS_MEMORY = 5
LBFGS_ARMIJO = 1e-4


@dataclass
class DescentOptions:
    abs_tol: float = 1e-8
    grad_tol: float = 1e-6
    max_iters: int = 10_000


@dataclass
class DescentTrace:
    """Record of a descent run toward a fixed point: one row per iteration,
    with F and the restricted slope at the iterate and the length |w - v|_p
    of the accepted step (0 on a final row)."""

    rows: list = field(default_factory=list)  # (iter, F, grad, step)
    terminal: np.ndarray | None = None
    reason: str = ""
    final_energy: float = float("nan")  # energy at the terminal
    energy_evals: int = 0  # energies taken: the start's and each trial's
    steepest_steps: int = 0  # accepted steps of the steepest fallback

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,F,grad,step\n")
            for it, f, g, s in self.rows:
                fh.write(f"{it},{f!r},{g!r},{s!r}\n")


def _line_search(action, v, direction, t, accepts, trace):
    """Trials v + t direction, t halved after each rejection, until
    accepts(t, F(trial)): returns (trial, F(trial)), or None after
    MAX_HALVINGS trials or at a trial at v's point (`same_point`), which is
    not evaluated."""
    for _ in range(MAX_HALVINGS):
        w = v + t * direction
        if same_point(w, v):
            return None
        f_w = displacement_energy(action, w, check=False)
        trace.energy_evals += 1
        if accepts(t, f_w):
            return w, f_w
        t *= SHRINK
    return None


def descend(
    action: AffineAction,
    v0: np.ndarray,
    options: DescentOptions | None = None,
    *,
    domain: Domain | None = None,
) -> DescentTrace:
    """Limited-memory quasi-Newton descent on E = F^2, with a steepest
    descent step on F as its fallback.

    F is a cone at its fixed points (F >= C_p dist on a fixed-vector-free
    domain, a weak sharp minimum), so unit steps on F rarely pass; E is
    smooth there, and a quadratic at p = 2.  At each iterate v the
    Euclidean gradient g of E inside the domain is `energy_gradient`, and
    the direction d is `lbfgs_direction` over the last LBFGS_MEMORY pairs
    (s, y) = (step, change of g) with s.y > 0, projected onto the domain.
    Its line search tries v + t d from t = 1 with the Armijo test
    E(w) <= E(v) + LBFGS_ARMIJO t <g, d>, halving t.  The memory is
    cleared, and the steepest step taken instead, when there is no pair
    yet, when <g, d> >= 0, or when that search fails within MAX_HALVINGS
    trials or reaches a trial at v's point (`same_point`).  The steepest
    step follows the unit restricted steepest direction u from t = F(v)/2
    with the Armijo test F(w) <= F(v) - ARMIJO t slope, halving t; when it
    fails too, or reaches a trial at v's point, descent stops `stalled`.

    Stops, in this order: F <= abs_tol, slope <= grad_tol (each with a
    final row), the iteration cap, a stall (reported in the trace, not
    raised).  Each trial's energy is taken once, and an accepted one is
    carried as the next iterate's, so final_energy is F at the terminal and
    energy_evals is 1 + the number of trials.  Each accepted point passes
    `check_admissible`.  v0 must pass it too; the descent starts from its
    projection onto the domain.

    On a fixed-vector-free domain the restricted slope is at least C_p
    everywhere, so the grad_tol stop fires only when C_p <= grad_tol, or
    when the action has no fixed point in the domain.  The slope is exact
    on every domain, mean-zero included, where `restrict_dual` solves for
    its shift to rounding at any scale; an overstated slope would make the
    fallback's Armijo test demand more decrease than the direction gives.
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
    pairs = deque(maxlen=LBFGS_MEMORY)
    s = g_prev = None
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
        g = energy_gradient(domain, f_v, xi)
        if s is not None:
            y = g - g_prev
            sy = float(s @ y)
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))

        found = None
        if pairs:
            d = domain.project(lbfgs_direction(g, pairs))
            gd = float(g @ d)
            if gd < 0.0:
                e_v = f_v * f_v
                found = _line_search(
                    action, v, d, 1.0, lambda t, f_w: f_w * f_w <= e_v + LBFGS_ARMIJO * t * gd, trace
                )
        if found is None:
            pairs.clear()
            u = steepest_direction(domain, xi)
            found = _line_search(
                action, v, u, f_v / 2.0, lambda t, f_w: f_w <= f_v - ARMIJO * t * slope, trace
            )
            if found is None:
                trace.rows.append((it, f_v, slope, 0.0))
                reason = "stalled"
                break
            trace.steepest_steps += 1
        w, f_w = found
        s, g_prev = w - v, g
        trace.rows.append((it, f_v, slope, power_norm(s, rep.p)))
        rep.check_admissible(w)  # f_w was taken without the check
        v, f_v = w, f_w
    trace.terminal = v
    trace.reason = reason
    trace.final_energy = f_v
    return trace
