"""The multistart engine: one evaluation per trial point, gradients on demand."""

import numpy as np
import pytest

import pgaplab as pg
from pgaplab._optimize import (
    STOP_REASONS,
    Trajectory,
    _normalize,
    multistart_minimize,
    sphere_minimize,
    trajectory_summary,
)
from pgaplab.action import default_domain
from pgaplab.gaps import make_energy_ratio_objective
from pgaplab.lpspace import same_point


def instances():
    sym3 = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 3.0)
    free2 = pg.Representation(pg.ball(pg.free_group(2), 3), 1.5)
    return [sym3, free2]


def reference_sphere_minimize(objective, domain, v0, iters, armijo=1e-4, stall_limit=3):
    """The descent as written before gradients were deferred: it evaluates
    the value and the gradient at every point, and again at the top of
    each iteration."""

    def full(values):
        val, gradient = objective(values)
        return val, gradient()

    v = _normalize(domain, v0)
    val, _ = full(v)
    t, stalls = 1.0, 0
    for _ in range(iters):
        _, g = full(v)
        g = domain.project(g)
        gn2 = float(np.dot(g, g))
        if gn2 == 0.0:
            break
        improved = False
        step = t
        for _ in range(40):
            w = _normalize(domain, v - step * g)
            if w is not None:
                wval, _ = full(w)
                if wval < val - armijo * step * gn2:
                    v, val, t, improved = w, wval, step * 2.0, True
                    break
            step *= 0.5
        if not improved:
            stalls += 1
            if stalls >= stall_limit:
                break
        else:
            stalls = 0
    return val, v


class CountingObjective:
    """Records every point evaluated and every gradient taken."""

    def __init__(self, objective):
        self.objective = objective
        self.points = []  # bytes of each evaluated point
        self.values = []
        self.gradient_values = []  # objective value at each point whose gradient was taken

    def __call__(self, values):
        val, gradient = self.objective(values)
        self.points.append(values.tobytes())
        self.values.append(val)
        taken = []

        def counted():
            taken.append(True)
            assert len(taken) == 1, "gradient of one point taken twice"
            self.gradient_values.append(val)
            return gradient()

        return val, counted


@pytest.mark.parametrize("rep", instances(), ids=["symmetric(3)", "free(2) R=3"])
@pytest.mark.parametrize("kind", ["ratio-p", "ratio-inf"])
def test_one_value_per_point_and_gradients_only_at_accepted_points(rep, kind):
    action = pg.AffineAction.linear(rep)
    objective = {
        "ratio-p": lambda: make_energy_ratio_objective(action, rep.p),
        "ratio-inf": lambda: make_energy_ratio_objective(action, np.inf),
    }[kind]()
    domain = default_domain(rep)
    v0 = domain.project(np.random.default_rng(3).standard_normal(rep.ball.size))
    counting = CountingObjective(objective)
    val, v, traj = sphere_minimize(counting, domain, v0, 80)

    assert len(set(counting.points)) == len(counting.points) == traj.value_evals
    assert len(counting.gradient_values) == traj.gradient_evals
    # gradients are taken at the start and then only at accepted (improving) points
    assert counting.gradient_values[0] == counting.values[0]
    assert all(b < a for a, b in zip(counting.gradient_values, counting.gradient_values[1:]))
    assert traj.gradient_evals <= traj.iterations + 1
    assert traj.stop in STOP_REASONS
    assert traj.iterations <= 80

    ref_val, ref_v = reference_sphere_minimize(objective, domain, v0, 80)
    assert val == ref_val
    assert np.array_equal(v, ref_v)


def test_stalled_trajectory_matches_the_recomputing_descent():
    # the max is not smooth, so descent on it stalls: the trajectory stops at
    # its first failed line search, where the recomputing descent repeats it
    # three times, and both end on the same point
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 3.0)
    action = pg.AffineAction.linear(rep)
    objective = make_energy_ratio_objective(action, np.inf)
    domain = default_domain(rep)
    for seed in range(3):
        v0 = domain.project(np.random.default_rng(seed).standard_normal(rep.ball.size))
        val, v, traj = sphere_minimize(objective, domain, v0, 500)
        ref_val, ref_v = reference_sphere_minimize(objective, domain, v0, 500)
        assert traj.stop == "stalled"
        assert traj.gradient_evals <= traj.iterations
        assert val == ref_val and np.array_equal(v, ref_v)


def test_zero_gradient_stop_and_no_iterations_budget():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 2.0)
    domain = default_domain(rep)
    flat = lambda values: (1.0, lambda: np.zeros_like(values))
    v0 = domain.project(np.arange(4.0))
    assert sphere_minimize(flat, domain, v0, 10)[2] == Trajectory(0, 1, 1, "zero_gradient")
    assert sphere_minimize(flat, domain, v0, 0)[2] == Trajectory(0, 1, 0, "iters")


def test_sphere_minimize_ends_on_the_unit_sphere_of_the_domains_exponent():
    # p = 3 is read off the domain: the point is a unit vector in l^3, not l^2
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 3.0)
    domain = default_domain(rep)
    objective = make_energy_ratio_objective(pg.AffineAction.linear(rep), 3.0)
    v0 = domain.project(np.random.default_rng(4).standard_normal(rep.ball.size))
    for iters in (0, 40):
        val, v, _ = sphere_minimize(objective, domain, 5.0 * v0, iters)
        assert pg.power_norm(v, 3.0) == pytest.approx(1.0, rel=1e-14)
        assert abs(pg.power_norm(v, 2.0) - 1.0) > 1e-3
        assert val == objective(v)[0]


def test_multistart_pool_carries_trajectories_and_summary():
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 3.0)
    action = pg.AffineAction.linear(rep)
    domain = default_domain(rep)
    zero_start = np.ones(rep.ball.size)  # projects to zero on the mean-zero domain
    objective = make_energy_ratio_objective(action, 3.0)
    pool = multistart_minimize(
        objective, domain, starts=3, iters=40, seed=2, extra_starts=(zero_start,)
    )
    assert [len(entry) for entry in pool] == [3, 3, 3, 3]
    # the seeded runs come first, in seed order, then the user start
    for entry, ss in zip(pool, np.random.SeedSequence(2).spawn(3)):
        start = np.random.default_rng(ss).standard_normal(rep.ball.size)
        val, vec, traj = sphere_minimize(objective, domain, domain.project(start), 40)
        assert entry[0] == val and np.array_equal(entry[1], vec) and entry[2] == traj
    assert all(isinstance(entry[2], Trajectory) for entry in pool[:3])
    assert pool[3][0] == np.inf and pool[3][2] is None
    assert np.array_equal(pool[3][1], np.zeros(rep.ball.size))
    summary = trajectory_summary((val, tr) for (val, _vec, tr) in pool)
    trajs = [entry[2] for entry in pool[:3]]
    assert summary["trajectories"] == 3
    assert summary["iterations"] == sum(t.iterations for t in trajs)
    assert summary["valueEvals"] == sum(t.value_evals for t in trajs)
    assert summary["gradientEvals"] == sum(t.gradient_evals for t in trajs)
    assert sum(summary["stops"].values()) == 3
    finals = [entry[0] for entry in pool[:3]]
    assert summary["finalSpread"] == max(finals) - min(finals)
    assert 1 <= summary["reachedBest"] <= 3


def test_same_point_compares_values_not_bits():
    # both line searches skip a trial at their start's point; -0.0 there has
    # the start's value, so it must not cost an evaluation or the halvings
    v = np.array([0.0, 1.0, -2.0])
    assert same_point(np.array([-0.0, 1.0, -2.0]), v)
    assert not same_point(np.array([0.0, np.nextafter(1.0, 2.0), -2.0]), v)


def test_multistart_with_no_usable_start_raises():
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 3.0)
    action = pg.AffineAction.linear(rep)
    with pytest.raises(ValueError, match="no multistart trajectory"):
        multistart_minimize(
            make_energy_ratio_objective(action, 3.0),
            default_domain(rep),
            starts=0,
            extra_starts=(np.ones(rep.ball.size),),  # projects to zero on the mean-zero domain
        )


def test_trajectory_summary_of_no_runs():
    assert trajectory_summary([]) == {
        "trajectories": 0,
        "iterations": 0,
        "valueEvals": 0,
        "gradientEvals": 0,
        "stops": {"iters": 0, "stalled": 0, "zero_gradient": 0},
        "finalSpread": 0.0,
        "reachedBest": 0,
    }
