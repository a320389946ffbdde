"""Shared multistart machinery for scale-invariant objectives on sphere domains.

All objectives handled here are 0-homogeneous, so trajectories renormalize
freely onto the unit sphere of the domain's l^p norm; p is `domain.rep.p`,
and no function here takes it.  An objective maps a vector to (value,
gradient), where the value is a float computed at once and gradient is a
zero-argument callable that returns the euclidean gradient from the
intermediates the value built.  A line search therefore evaluates each
trial point once and pays for a gradient only at the points it accepts.

Multistart runs are seeded per trajectory and pooled in seed order, which
makes every estimate reproducible; the caller reduces the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lpspace import power_norm, same_point

STOP_REASONS = ("iters", "stalled", "zero_gradient")
ARMIJO = 1e-4  # sufficient-decrease fraction of sphere_minimize's line search
# a trajectory reached the best value of its run when within this relative gap
REACHED_BEST_RTOL = 1e-6


def _normalize(domain, values):
    """values projected onto the domain and scaled to unit l^p norm, p the
    domain's; None when the projection is zero."""
    vals = domain.project(values)
    n = power_norm(vals, domain.rep.p)
    if n == 0.0:
        return None
    return vals / n


@dataclass(frozen=True)
class Trajectory:
    """How one sphere_minimize run went: line searches, objective values and
    gradients computed, and the reason it stopped (one of STOP_REASONS)."""

    iterations: int
    value_evals: int
    gradient_evals: int
    stop: str


def sphere_minimize(objective, domain, v0, iters):
    """Projected gradient descent with backtracking on the unit l^p sphere of
    a domain, p the domain's.

    objective(values) -> (value, gradient), gradient() giving the euclidean
    gradient at values.  Each distinct trial point is evaluated once, and a
    trial at v's point (`same_point`) not at all; a gradient is taken only
    at the start and at accepted points, when the next iteration needs it.
    Returns (value, values, Trajectory) for the best point seen.  A line
    search that finds no Armijo step leaves the point, the step and the
    gradient as they were, so any further round would repeat it exactly:
    the trajectory stops there as stalled.
    """
    v = _normalize(domain, v0)
    if v is None:
        raise ValueError("start vector projects to zero")
    val, gradient = objective(v)
    value_evals, gradient_evals, iterations = 1, 0, 0
    g = None  # raw gradient at v, taken when an iteration first needs it
    t = 1.0
    stop = "iters"
    for _ in range(iters):
        if g is None:
            g = gradient()
            gradient_evals += 1
        pg = domain.project(g)
        gn2 = float(np.dot(pg, pg))
        if gn2 == 0.0:
            stop = "zero_gradient"
            break
        iterations += 1
        step = t
        last = None  # the last trial evaluated, with its value and gradient
        for _ in range(40):
            w = _normalize(domain, v - step * pg)
            if w is not None and not same_point(w, v):
                if last is None or not same_point(w, last):
                    last = w
                    last_val, last_gradient = objective(w)
                    value_evals += 1
                if last_val < val - ARMIJO * step * gn2:
                    v, val, gradient, g = last, last_val, last_gradient, None
                    t = step * 2.0
                    break
            step *= 0.5
        else:
            stop = "stalled"
            break
    return val, v, Trajectory(iterations, value_evals, gradient_evals, stop)


def trajectory_summary(runs) -> dict:
    """Deterministic totals over the (final value, Trajectory) pairs of one
    estimator's runs; pairs without a Trajectory (starts that project to
    zero) are left out.  `finalSpread` is the range of the finite final
    values and `reachedBest` counts the runs within REACHED_BEST_RTOL of
    the best of them; a run given a nan final value counts in the totals
    only."""
    runs = [(val, tr) for val, tr in runs if tr is not None]
    finals = [val for val, _ in runs if np.isfinite(val)]
    best = min(finals, default=0.0)
    tol = REACHED_BEST_RTOL * max(1.0, abs(best))
    return {
        "trajectories": len(runs),
        "iterations": sum(tr.iterations for _, tr in runs),
        "valueEvals": sum(tr.value_evals for _, tr in runs),
        "gradientEvals": sum(tr.gradient_evals for _, tr in runs),
        "stops": {reason: sum(tr.stop == reason for _, tr in runs) for reason in STOP_REASONS},
        "finalSpread": float(max(finals) - best) if finals else 0.0,
        "reachedBest": int(sum(val - best <= tol for val in finals)),
    }


def multistart_minimize(
    objective,
    domain,
    *,
    starts=32,
    iters=10_000,
    seed=0,
    extra_starts=(),
) -> list:
    """Run seeded trajectories, then the user starts, and pool them in that
    order: one (value, vector, Trajectory or None) per trajectory, a start
    that projects to zero giving (inf, start, None).  A ValueError when
    none ends at a finite value.

    `objective` follows the (value, gradient callable) contract of
    sphere_minimize.
    """
    rng_seeds = np.random.SeedSequence(seed).spawn(max(0, starts))
    jobs = [np.random.default_rng(ss).standard_normal(domain.rep.ball.size) for ss in rng_seeds]
    jobs += [np.array(vec, dtype=float) for vec in extra_starts]

    def run(v0):
        v0 = domain.project(v0)
        if power_norm(v0, domain.rep.p) == 0.0:
            return (np.inf, v0, None)
        return sphere_minimize(objective, domain, v0, iters)

    results = [run(job) for job in jobs]
    if not any(np.isfinite(r[0]) for r in results):
        raise ValueError("no multistart trajectory produced a usable point")
    return results
