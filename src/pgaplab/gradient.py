"""Absolute gradient of the displacement energy: closed form, samplers, descent.

At a point with positive energy the maximal descent slope of F over unit
directions has the closed form 2 |xi|_q / F^(p-1), where xi is the weighted
sum of the generator displacement functionals.  The direction attaining it
is recovered by inverse duality, which is what the descent loop follows.

Two slopes are in use.  The ambient slope (`abs_gradient`) ranges over every
unit direction of l^p(G).  The restricted slope (`restricted_slope`) ranges
over the unit directions of a domain, the space of the representation the
estimate is restricted to; it replaces xi by `Domain.restrict_dual(xi)`.
`descend` follows the restricted slope, and the gap constants C_grad and
C_lap are its infimum and half of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import AffineAction, Domain, default_domain
from .energy import (
    EnergyParams,
    displacement_energy,
    gradient_field,
)
from .errors import AsymmetricSetup, AtFixedPoint, NonsmoothPoint, ValidationError
from .groups import check_symmetry
from .lpspace import (
    DualVector,
    LpVector,
    duality_map,
    norming_vector,
    power_norm,
    row_power_norms,
    signed_power,
)


@dataclass
class GradientResult:
    """Closed-form absolute gradient at a point.

    value uses the pointwise field form; value_dual_form re-derives it from
    per-generator duality maps as a cross-check.  steepest_direction is the
    unit vector attaining the descent slope (norming vector of the dual
    element); stepping along it with a positive step decreases the energy.
    """

    value: float
    value_dual_form: float
    energy: float
    dual_element: DualVector
    steepest_direction: LpVector

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "valueDualForm": self.value_dual_form,
            "energy": self.energy,
            "dualElement": self.dual_element.values.tolist(),
            "steepestDirection": self.steepest_direction.values.tolist(),
        }


def _require_symmetric(action: AffineAction):
    report = check_symmetry(action.rep.handle)
    if not report.ok:
        raise AsymmetricSetup(
            "closed-form gradient needs a symmetric generating set and weight: "
            f"{report.to_dict()}"
        )


def abs_gradient(action: AffineAction, v: LpVector, *, check=True) -> GradientResult:
    """Closed-form ambient absolute gradient 2 |xi|_q / F^(p-1) at v, over
    every direction of l^p(G) (needs F(v) > 0); see `restricted_slope` for
    the slope inside a domain."""
    _require_symmetric(action)
    rep = action.rep
    p = rep.p
    params = EnergyParams(r=p, p=p)
    f_val = displacement_energy(action, params, v, check=check)
    if f_val == 0.0:
        raise AtFixedPoint("energy vanishes at v; the gradient is 0 by convention")

    xi = gradient_field(action, v, check=False)
    value = 2.0 * xi.norm() / f_val ** (p - 1.0)

    # independent assembly through per-generator duality maps
    disp = action.displacements(v.values)
    acc = np.zeros(rep.ball.size)
    for k, d in enumerate(disp):
        w = LpVector(rep.ball, d, p)
        nw = w.norm()
        if nw == 0.0:
            continue
        acc += rep.weights[k] * nw ** (p - 1.0) * duality_map(w).values
    value_dual = 2.0 * power_norm(acc, xi.q) / f_val ** (p - 1.0)

    steepest = norming_vector(xi)
    return GradientResult(
        value=value,
        value_dual_form=value_dual,
        energy=f_val,
        dual_element=xi,
        steepest_direction=steepest,
    )


def finite_difference_quotient(
    action: AffineAction, params: EnergyParams, v: LpVector, u: LpVector, h: float, scheme="central"
) -> float:
    """Finite-difference value of the descent quotient (F(v) - F(v+eps u))/eps."""
    f = lambda w: displacement_energy(action, params, w, check=False)
    if scheme == "central":
        return -(f(v + h * u) - f(v - h * u)) / (2.0 * h)
    return (f(v) - f(v + h * u)) / h


def directional_derivative(
    action: AffineAction,
    v: LpVector,
    u: LpVector,
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
    params = EnergyParams(r=p, p=p)
    f_val = displacement_energy(action, params, v)
    if f_val == 0.0:
        raise AtFixedPoint("descent quotient undefined where the energy vanishes")
    disp = action.displacements(v.values)
    norms = row_power_norms(disp, p)
    if any(n == 0.0 for n in norms):
        if nonsmooth == "raise":
            raise NonsmoothPoint("some generator displacement vanishes at v")
        return finite_difference_quotient(action, params, v, u, h, scheme="one_sided")

    du = rep.apply_array(slice(None), u.values) - u.values
    total = 0.0
    for k, (d, nd) in enumerate(zip(disp, norms)):
        jd = signed_power(d / nd, p - 1.0)
        total += rep.weights[k] * (nd / f_val) ** (p - 1.0) * float(np.dot(jd, du[k]))
    return -total


def abs_gradient_sampled(
    action: AffineAction,
    params: EnergyParams,
    v: LpVector,
    budget: int = 64,
    *,
    seed: int = 0,
    domain: Domain | None = None,
    fixed_point: LpVector | None = None,
    include_steepest: bool = True,
) -> float:
    """Lower-bound estimate of the absolute gradient by difference quotients.

    Samples random unit directions at radii {1e-3, 1e-2, 0.1, 1} times |v|,
    plus the ray toward a known fixed point and the closed-form steepest
    direction when available.  Always a valid lower bound for the true value.
    """
    if budget < 1:
        raise ValidationError("sampling budget must be >= 1")
    rep = action.rep
    if domain is None:
        domain = default_domain(rep, "full" if rep.mode == "full" else "dirichlet")
    rng = np.random.default_rng(seed)
    f_v = displacement_energy(action, params, v)
    scale = v.norm() or 1.0
    radii = np.array([1e-3, 1e-2, 0.1, 1.0]) * scale

    directions = [domain.random_unit(rng) for _ in range(budget)]
    if include_steepest and params.r == params.p and f_v > 0.0:
        xi = domain.restrict_dual(gradient_field(action, v, check=False))
        if xi.norm() > 0.0:
            u = norming_vector(xi)
            vals = domain.project(u.values)
            nrm = power_norm(vals, rep.p)
            if nrm > 0.0:
                directions.append(LpVector(rep.ball, vals / nrm, rep.p))
    candidates = []
    if fixed_point is not None:
        diff = fixed_point - v
        nd = diff.norm()
        if nd > 0.0:
            directions.append((1.0 / nd) * diff)
            candidates.append(fixed_point)

    best = 0.0
    for u in directions:
        for s in radii:
            w = v + float(s) * u
            f_w = displacement_energy(action, params, w, check=False)
            best = max(best, (f_v - f_w) / float(s))
    for w in candidates:
        dist = (v - w).norm()
        if dist > 0.0:
            f_w = displacement_energy(action, params, w, check=False)
            best = max(best, (f_v - f_w) / dist)
    return max(best, 0.0)


def restricted_slope(
    action: AffineAction, v: LpVector, domain: Domain, energy: float | None = None
) -> tuple[float, DualVector | None]:
    """Restricted absolute gradient 2 |restrict_dual(xi)|_q / F^(p-1) at v.

    Returns the slope and the restricted dual element, whose norming vector
    is the steepest descent direction inside the domain; (0.0, None) where
    the energy vanishes.  `energy`, when given, is F_p(v).
    """
    p = action.rep.p
    if energy is None:
        energy = displacement_energy(action, EnergyParams(r=p, p=p), v, check=False)
    if energy == 0.0:
        return 0.0, None
    xi = domain.restrict_dual(gradient_field(action, v, check=False))
    return 2.0 * xi.norm() / energy ** (p - 1.0), xi


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
    terminal: LpVector | None = None
    reason: str = ""
    final_energy: float = float("nan")  # energy at the terminal

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,F,grad,step\n")
            for it, f, g, s in self.rows:
                fh.write(f"{it},{f!r},{g!r},{s!r}\n")


def descend(
    action: AffineAction,
    v0: LpVector,
    options: DescentOptions | None = None,
    *,
    domain: Domain | None = None,
) -> DescentTrace:
    """Backtracking steepest descent on the displacement energy.

    v_{k+1} = v_k + t_k u_k with u_k the domain-restricted steepest descent
    direction and t_k found by Armijo backtracking from F(v_k)/2.  Stops at
    F <= abs_tol, slope <= grad_tol, the iteration cap, or a stall after
    MAX_HALVINGS rejected steps (reported in the trace, not raised).

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
    p = rep.p
    params = EnergyParams(r=p, p=p)
    if domain is None:
        domain = default_domain(rep, "full" if rep.mode == "full" else "dirichlet")

    v = LpVector(rep.ball, domain.project(v0.values), p)
    f_v = displacement_energy(action, params, v)
    trace = DescentTrace()
    reason = "max_iters"
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
        u = norming_vector(xi)
        uvals = domain.project(u.values)
        uvals /= power_norm(uvals, p)
        u = LpVector(rep.ball, uvals, p)

        t = f_v / 2.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            w = v + t * u
            f_w = displacement_energy(action, params, w, check=False)
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
