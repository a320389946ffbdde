"""Runnable invariant suites over a configured instance.

Each suite returns a list of (name, passed, detail) rows; details carry a
counterexample when a check fails.  The CLI `verify` command maps any
failure to exit code 1.

The gradient suite checks the closed-form slope exactly, at random points,
both the ambient slope `abs_gradient` and the restricted slope on the
instance's default domain:
- universal_bound: the ambient slope is at most 2;
- scaling_lower_bound: it is at least F(v)/|v| (the ray toward 0);
- steepest_attains_slope: the directional derivative along each slope's
  `steepest_direction`, a forward gather, equals the slope, an adjoint
  sum, to 1e-12 relative;
- central_difference_meets_slope: (F(v - hu) - F(v + hu)) / 2h along the
  same directions, with h = CENTRAL_STEP, matches the slope to 1e-7
  relative;
- random_directions_below_slope: no direction of the domain near the
  restricted steepest one (tilted at random by RANDOM_TILT) descends
  faster than the restricted slope;
- descent_reaches_fixed_point: `descend` from 0 ends within 1e-6 of the
  fixed-point set, in the distance `descend`'s CLI report also reads
  (`AffineAction.fixed_point_distance`); its detail gives the stop reason,
  the iterations and the energy evaluations.
The rows above the last read only points where F > 0; when every sampled
point has F = 0 (a one-element group) the suite raises AtFixedPoint
instead of passing with nothing checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import (
    AffineAction,
    FullDomain,
    Representation,
    coboundary,
    default_domain,
    inverse_law_residual,
)
from .energy import (
    cocycle_norm,
    dirichlet_norm,
    displacement_energy,
    gradient_field,
    p_laplacian,
)
from .errors import AtFixedPoint, PgapError
from .gradient import (
    DescentOptions,
    abs_gradient,
    descend,
    directional_derivative,
    finite_difference_quotient,
    restricted_slope,
    steepest_direction,
)
from .groups import check_ball_invariants, check_symmetry
from .lpspace import (
    conjugate_exponent,
    duality_map,
    norming_vector,
    power_norm,
    vector_from_bytes,
    vector_to_bytes,
)

SUITES = ("ball", "lp", "action", "energy", "gradient")


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: dict

    def to_dict(self):
        return {"suite": self.suite, "name": self.name, "passed": self.passed, "detail": self.detail}


def _rand_vec(rep, rng, *, mean_zero=False):
    v = rep.random_admissible(rng, mean_zero=mean_zero)
    n = power_norm(v, rep.p)
    return v if n == 0 else (1.0 / n) * v


def suite_ball(rep: Representation, rng) -> list[CheckResult]:
    rows = []
    problems = check_ball_invariants(rep.ball)
    rows.append(CheckResult("ball", "ball_invariants", not problems, {"violations": problems}))
    sym = check_symmetry(rep.handle)
    rows.append(CheckResult("ball", "generator_symmetry", sym.ok, sym.to_dict()))
    return rows


def suite_lp(rep: Representation, rng, trials=50) -> list[CheckResult]:
    rows = []
    p = rep.p
    q = conjugate_exponent(p)
    worst_holder = 0.0
    worst_support = 0.0
    worst_unit = 0.0
    worst_scale = 0.0
    worst_round = 0.0
    example = {}
    for _ in range(trials):
        f = _rand_vec(rep, rng)
        nf = power_norm(f, p)
        g = duality_map(_rand_vec(rep, rng), p)
        worst_holder = max(worst_holder, abs(float(np.dot(g, f))) - power_norm(g, q) * nf)
        j = duality_map(f, p)
        worst_support = max(worst_support, abs(float(np.dot(j, f)) - nf))
        worst_unit = max(worst_unit, abs(power_norm(j, q) - 1.0))
        t = float(rng.uniform(0.5, 3.0))
        worst_scale = max(worst_scale, float(np.abs(duality_map(t * f, p) - j).max()))
        u = norming_vector(j, q)
        worst_round = max(worst_round, power_norm(u - (1.0 / nf) * f, p))
    rows.append(CheckResult("lp", "holder_inequality", worst_holder <= 1e-12, {"excess": worst_holder}))
    rows.append(CheckResult("lp", "support_functional_value", worst_support <= 1e-9, {"worst": worst_support}))
    rows.append(CheckResult("lp", "support_functional_unit_norm", worst_unit <= 1e-9, {"worst": worst_unit}))
    rows.append(CheckResult("lp", "duality_scale_invariance", worst_scale <= 1e-12, {"worst": worst_scale}))
    rows.append(CheckResult("lp", "duality_round_trip", worst_round <= 1e-10, {"worst": worst_round}))

    f = _rand_vec(rep, rng)
    back = vector_from_bytes(rep.ball, vector_to_bytes(f))
    rows.append(CheckResult("lp", "binary_round_trip", bool((back == f).all()), {}))
    return rows


def suite_action(rep: Representation, rng, trials=25) -> list[CheckResult]:
    rows = []
    p = rep.p
    h = rep.handle
    worst_iso = 0.0
    worst_inv = 0.0
    worst_lin = 0.0
    worst_mz = 0.0
    for _ in range(trials):
        v = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
        k = int(rng.integers(h.n_generators))
        ki = int(h.inverse_index[k])
        pv = rep.apply_generator(k, v)
        worst_iso = max(worst_iso, abs(power_norm(pv, p) - power_norm(v, p)))
        back = rep.apply_generator(ki, pv, check=False)
        worst_inv = max(worst_inv, power_norm(back - v, p))
        u = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
        lhs = coboundary(rep, 2.0 * u + 3.0 * v).values[k]
        rhs = 2.0 * coboundary(rep, u).values[k] + 3.0 * coboundary(rep, v).values[k]
        worst_lin = max(worst_lin, power_norm(lhs - rhs, p))
        if rep.mode == "full":
            worst_mz = max(worst_mz, abs(float(pv.sum()) - float(v.sum())))
    rows.append(CheckResult("action", "isometry", worst_iso <= 1e-14 * 10, {"worst": worst_iso}))
    rows.append(CheckResult("action", "inverse_composition", worst_inv == 0.0, {"worst": worst_inv}))
    rows.append(CheckResult("action", "coboundary_linearity", worst_lin <= 1e-12, {"worst": worst_lin}))
    if rep.mode == "full":
        rows.append(CheckResult("action", "mean_zero_invariance", worst_mz <= 1e-12, {"worst": worst_mz}))

    v = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
    c = coboundary(rep, v)
    worst_law = inverse_law_residual(c)
    rows.append(CheckResult("action", "cocycle_inverse_law", worst_law <= 1e-12, {"worst": worst_law}))

    word = [int(rng.integers(h.n_generators))]
    word.append(int(h.inverse_index[word[0]]))
    ext = power_norm(c.extend(word), p)
    rows.append(CheckResult("action", "extension_over_cancelling_word", ext <= 1e-12, {"norm": ext}))
    return rows


def suite_energy(rep: Representation, rng, trials=25) -> list[CheckResult]:
    rows = []
    p = rep.p
    act = AffineAction.linear(rep)
    m_min = rep.handle.min_weight()
    worst_conv = -np.inf
    worst_lip = -np.inf
    worst_sand = -np.inf
    worst_hom = 0.0
    worst_dbound = -np.inf
    for _ in range(trials):
        v = _rand_vec(rep, rng)
        u = _rand_vec(rep, rng)
        fv = displacement_energy(act, v)
        fu = displacement_energy(act, u)
        for t in (0.25, 0.5, 0.75):
            mid = displacement_energy(act, t * v + (1 - t) * u)
            worst_conv = max(worst_conv, mid - (t * fv + (1 - t) * fu))
        worst_lip = max(worst_lip, abs(fv - fu) - 2.0 * power_norm(v - u, p))
        f_inf = displacement_energy(act, v, np.inf)
        worst_sand = max(worst_sand, fv - f_inf, m_min ** (1.0 / p) * f_inf - fv)
        t = float(rng.uniform(0.1, 2.5)) * (1 if rng.random() < 0.5 else -1)
        worst_hom = max(worst_hom, abs(displacement_energy(act, t * v) - abs(t) * fv))
        worst_dbound = max(worst_dbound, cocycle_norm(coboundary(rep, v)) - 2.0 * power_norm(v, p))
    rows.append(CheckResult("energy", "convexity", worst_conv <= 1e-12, {"excess": worst_conv}))
    rows.append(CheckResult("energy", "two_lipschitz", worst_lip <= 1e-12, {"excess": worst_lip}))
    rows.append(CheckResult("energy", "r_inf_sandwich", worst_sand <= 1e-12, {"excess": worst_sand}))
    rows.append(CheckResult("energy", "homogeneity", worst_hom <= 1e-10, {"worst": worst_hom}))
    rows.append(CheckResult("energy", "coboundary_norm_bound", worst_dbound <= 1e-12, {"excess": worst_dbound}))

    # pointwise field matches the Laplacian of the shifted argument
    f0 = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
    cob = AffineAction.from_potential(rep, f0)
    worst_field = 0.0
    for _ in range(5):
        f = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
        lhs = gradient_field(cob, f)
        rhs = p_laplacian(rep, f + f0)
        worst_field = max(worst_field, float(np.abs(lhs - rhs).max()))
    rows.append(CheckResult("energy", "field_vs_shifted_laplacian", worst_field <= 1e-12, {"worst": worst_field}))

    if p == 2.0:
        worst_d2 = 0.0
        for _ in range(5):
            f = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
            lhs = dirichlet_norm(rep, f) ** 2
            rhs = -2.0 * float(np.dot(p_laplacian(rep, f), f))
            worst_d2 = max(worst_d2, abs(lhs - rhs))
        rows.append(CheckResult("energy", "dirichlet_identity_p2", worst_d2 <= 1e-10, {"worst": worst_d2}))
    return rows


# central-difference step along a unit direction.  The rounding error of the
# quotient is about 1e-16 / h relative; its truncation error is O(h^2) but,
# at p < 2, grows without bound as a displacement entry nears 0 (h = 1e-4
# left 8.6e-6 on symmetric(4), p = 1.5).  h = 1e-6 keeps both near 1e-9, so
# a tolerance of 1e-7 still catches a slope overstated by 1e-6.
CENTRAL_STEP = 1e-6

# relative size of the random tilt of the steepest direction in
# random_directions_below_slope
RANDOM_TILT = 1e-4


def suite_gradient(rep: Representation, rng, trials=15) -> list[CheckResult]:
    rows = []
    p = rep.p
    act = AffineAction.linear(rep)
    ambient = FullDomain(rep)
    domain = default_domain(rep)
    worst_bound = -np.inf
    worst_scaling = -np.inf
    worst_attain = 0.0
    worst_central = 0.0
    worst_random = -np.inf
    for _ in range(trials):
        v = _rand_vec(rep, rng)
        f = displacement_energy(act, v)
        if f == 0.0:
            continue
        res = abs_gradient(act, v)
        worst_bound = max(worst_bound, res.value - 2.0)
        worst_scaling = max(worst_scaling, f / power_norm(v, p) - res.value)
        slope, xi = restricted_slope(act, v, domain, f)
        # the ambient slope over every direction of l^p(G), the restricted
        # one over the domain's; each is attained along its steepest direction
        for dom, value, dual in ((ambient, res.value, res.dual_element), (domain, slope, xi)):
            u = steepest_direction(dom, dual)
            along = directional_derivative(act, v, u)
            worst_attain = max(worst_attain, abs(along - value) / value)
            central = finite_difference_quotient(act, v, u, CENTRAL_STEP)
            worst_central = max(worst_central, abs(central - value) / value)
        # u is now the restricted steepest direction.  Directions near it
        # descend to within about 1e-7 of the slope, so an understated slope
        # shows here
        for _ in range(4):
            w = u + RANDOM_TILT * domain.random_unit(rng)
            along = directional_derivative(act, v, w * (1.0 / power_norm(w, p)))
            worst_random = max(worst_random, along / slope - 1.0)
    if worst_bound == -np.inf:  # every trial had F = 0, so no row below would check anything
        raise AtFixedPoint("gradient suite: the energy vanishes at every sampled point")
    rows.append(CheckResult("gradient", "universal_bound", worst_bound <= 1e-12, {"excess": worst_bound}))
    rows.append(CheckResult("gradient", "scaling_lower_bound", worst_scaling <= 1e-9, {"excess": worst_scaling}))
    rows.append(CheckResult("gradient", "steepest_attains_slope", worst_attain <= 1e-12, {"worst": worst_attain}))
    rows.append(
        CheckResult("gradient", "central_difference_meets_slope", worst_central <= 1e-7, {"worst": worst_central})
    )
    rows.append(
        CheckResult("gradient", "random_directions_below_slope", worst_random <= 1e-12, {"excess": worst_random})
    )

    f0 = _rand_vec(rep, rng, mean_zero=(rep.mode == "full"))
    cob = AffineAction.from_potential(rep, f0)
    trace = descend(cob, rep.zero(), DescentOptions())
    dist = cob.fixed_point_distance(trace.terminal)
    rows.append(
        CheckResult(
            "gradient",
            "descent_reaches_fixed_point",
            trace.final_energy <= 1e-6 and dist <= 1e-6,
            {
                "finalF": trace.final_energy,
                "terminalDistance": dist,
                "reason": trace.reason,
                "iterations": len(trace.rows),
                "energyEvals": trace.energy_evals,
            },
        )
    )
    return rows


_SUITE_FUNCS = {
    "ball": suite_ball,
    "lp": suite_lp,
    "action": suite_action,
    "energy": suite_energy,
    "gradient": suite_gradient,
}


def run_suites(rep: Representation, suites=SUITES, seed: int = 0) -> list[CheckResult]:
    """Run the selected invariant suites on one instance."""
    rows = []
    for name in suites:
        if name not in _SUITE_FUNCS:
            raise PgapError(f"unknown suite {name!r}; choose from {sorted(_SUITE_FUNCS)}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, SUITES.index(name)]))
        rows.extend(_SUITE_FUNCS[name](rep, rng))
    return rows
