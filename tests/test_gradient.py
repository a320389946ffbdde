import numpy as np
import pytest

import pgaplab as pg
from pgaplab.action import MeanZeroDomain, default_domain
from pgaplab.errors import (
    AtFixedPoint,
    NonsmoothPoint,
    SupportViolation,
    ValidationError,
)
from pgaplab.gradient import finite_difference_quotient
from pgaplab.lpspace import power_norm

from conftest import dense_gap_constant, unit_vector
from test_energy import alternating_vector


@pytest.fixture(scope="module")
def linear_c4(cyclic4):
    rep = pg.Representation(cyclic4, 2.0, "full")
    return pg.AffineAction.linear(rep)


def test_alternating_vector_saturates_bound(linear_c4, cyclic4):
    v = alternating_vector(cyclic4)
    res = pg.abs_gradient(linear_c4, v)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert pg.directional_derivative(linear_c4, v, res.steepest_direction) == pytest.approx(2.0, abs=1e-12)
    # steepest direction points toward the fixed point at the origin
    assert np.allclose(res.steepest_direction, -v / power_norm(v, 2.0), atol=1e-12)


def test_gradient_scale_invariant_for_linear_actions(linear_c4, cyclic4):
    rng = np.random.default_rng(0)
    rep = linear_c4.rep
    v = unit_vector(rep, rng)
    base = pg.abs_gradient(linear_c4, v).value
    for t in (0.1, 2.0, 17.0):
        assert pg.abs_gradient(linear_c4, t * v).value == pytest.approx(base, rel=1e-10)


def test_gradient_forms_cross_check(sym3):
    # the closed form sums the adjoint field; the directional derivative
    # gathers forward along the steepest direction, and must attain it
    rng = np.random.default_rng(1)
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        for _ in range(20):
            v = unit_vector(rep, rng)
            res = pg.abs_gradient(act, v)
            along = pg.directional_derivative(act, v, res.steepest_direction)
            assert along == pytest.approx(res.value, rel=1e-12)


def test_gradient_p2_matches_laplacian_ratio(cyclic8):
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = unit_vector(rep, rng, mean_zero=True)
        res = pg.abs_gradient(act, v)
        expected = 2.0 * power_norm(pg.p_laplacian(rep, v), 2.0) / pg.dirichlet_norm(rep, v)
        assert res.value == pytest.approx(expected, abs=1e-12)


def test_gradient_eigen_oracle_cyclic5():
    # p = 2 linear case diagonalizes: the infimum over the mean-zero sphere
    # is sqrt(2 mu_min) and pointwise values never go below it
    h = pg.cyclic_group(5)
    rep = pg.Representation(pg.full_ball(h), 2.0, "full")
    act = pg.AffineAction.linear(rep)
    dom = default_domain(rep, "mean-zero")
    oracle = dense_gap_constant(dom)
    rng = np.random.default_rng(3)
    values = []
    for _ in range(200):
        v = unit_vector(rep, rng, mean_zero=True)
        values.append(pg.abs_gradient(act, v).value)
    assert min(values) >= oracle - 1e-9
    # a pure character mode attains it
    mode = np.cos(2 * np.pi * np.array([int(g) for g in rep.ball.elements]) / 5)
    v = MeanZeroDomain(rep).project(mode)
    assert pg.abs_gradient(act, v).value == pytest.approx(oracle, abs=1e-10)


def test_at_fixed_point_raises(linear_c4, cyclic4):
    with pytest.raises(AtFixedPoint):
        pg.abs_gradient(linear_c4, np.ones(4))


def test_universal_and_scaling_bounds(sym3):
    rng = np.random.default_rng(4)
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        for _ in range(300):
            v = unit_vector(rep, rng)
            res = pg.abs_gradient(act, v)
            f = pg.displacement_energy(act, v)
            assert res.value <= 2.0 + 1e-12
            assert res.value >= f / power_norm(v, p) - 1e-9


# --- directional derivatives ----------------------------------------------


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_directional_derivative_matches_central_differences(p, sym3):
    rng = np.random.default_rng(5)
    rep = pg.Representation(sym3, p, "full")
    act = pg.AffineAction.linear(rep)
    for _ in range(25):
        v = unit_vector(rep, rng)
        u = unit_vector(rep, rng)
        dd = pg.directional_derivative(act, v, u)
        fd = finite_difference_quotient(act, v, u, 1e-5)
        assert dd == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_directional_derivative_toward_origin(cyclic8):
    # moving a linear action's argument toward 0 descends at rate F(v)/|v|
    rng = np.random.default_rng(6)
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    v = 1.7 * unit_vector(rep, rng)
    u = (-1.0 / power_norm(v, 2.0)) * v
    dd = pg.directional_derivative(act, v, u)
    assert dd == pytest.approx(pg.displacement_energy(act, v) / power_norm(v, 2.0), rel=1e-12)


def test_directional_derivative_along_steepest_attains_gradient(sym3):
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        for _ in range(10):
            v = unit_vector(rep, rng)
            res = pg.abs_gradient(act, v)
            dd = pg.directional_derivative(act, v, res.steepest_direction)
            assert dd == pytest.approx(res.value, abs=1e-8)


def test_directional_derivative_orthogonal_direction_p2(cyclic8):
    rng = np.random.default_rng(8)
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    v = unit_vector(rep, rng)
    xi = pg.gradient_field(act, v)
    u_raw = rng.standard_normal(cyclic8.size)
    u_raw -= np.dot(u_raw, xi) / np.dot(xi, xi) * xi
    u = (1.0 / power_norm(u_raw, 2.0)) * u_raw
    assert abs(pg.directional_derivative(act, v, u)) <= 1e-10


def nonsmooth_point(sym3):
    # indicator of {e, (12)} is invariant under (12) but not under (23)
    vals = np.zeros(sym3.size)
    vals[sym3.locate((0, 1, 2))] = 1.0
    vals[sym3.locate((1, 0, 2))] = 1.0
    return vals


def test_nonsmooth_point_falls_back_to_finite_differences(sym3):
    rep = pg.Representation(sym3, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    v = nonsmooth_point(sym3)
    disp = [np.linalg.norm(d) for d in act.displacements(v)]
    assert min(disp) == 0.0 and max(disp) > 0.0  # genuinely nonsmooth, not fixed
    rng = np.random.default_rng(9)
    u = unit_vector(rep, rng)
    with pytest.raises(NonsmoothPoint):
        pg.directional_derivative(act, v, u, nonsmooth="raise")
    dd = pg.directional_derivative(act, v, u)  # fallback
    fd = finite_difference_quotient(act, v, u, 1e-5, scheme="one_sided")
    assert dd == pytest.approx(fd, abs=1e-12)


# --- sampled gradient -------------------------------------------------------


def test_sampled_gradient_at_fixed_point_is_zero(cyclic8):
    rng = np.random.default_rng(10)
    rep = pg.Representation(cyclic8, 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    est = pg.abs_gradient_sampled(act, -1.0 * f0, budget=64, seed=0)
    assert est == 0.0


def test_sampled_gradient_meets_closed_form(linear_c4, cyclic4):
    v = alternating_vector(cyclic4)
    est = pg.abs_gradient_sampled(linear_c4, v, budget=10_000, seed=1)
    assert est >= 2.0 - 1e-3
    assert est <= 2.0 + 1e-12


def test_sampled_is_lower_bound_and_close(sym3):
    rng = np.random.default_rng(11)
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        for i in range(10):
            v = unit_vector(rep, rng)
            closed = pg.abs_gradient(act, v).value
            sampled = pg.abs_gradient_sampled(act, v, budget=32, seed=100 + i)
            assert closed >= sampled - 1e-9
            assert abs(closed - sampled) <= 2e-3


def test_sampled_gradient_respects_universal_bound(sym3):
    rng = np.random.default_rng(12)
    rep = pg.Representation(sym3, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    for i in range(20):
        v = 3.0 * unit_vector(rep, rng)
        est = pg.abs_gradient_sampled(act, v, budget=16, seed=i)
        assert est <= 2.0 + 1e-12


def test_sampled_gradient_uses_known_fixed_point(cyclic8):
    rng = np.random.default_rng(13)
    rep = pg.Representation(cyclic8, 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    v = unit_vector(rep, rng, mean_zero=True)
    with_fp = pg.abs_gradient_sampled(
        act, v, budget=4, seed=2, fixed_point=-1.0 * f0, include_steepest=False
    )
    f_v = pg.displacement_energy(act, v)
    assert with_fp >= f_v / power_norm(v - (-1.0 * f0), 2.0) - 1e-12


# --- descent -----------------------------------------------------------------


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_descent_recovers_constructed_fixed_point(p, cyclic8):
    rng = np.random.default_rng(14)
    rep = pg.Representation(cyclic8, p, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    dom = default_domain(rep, "mean-zero")
    trace = pg.descend(act, rep.zero(), domain=dom)
    assert trace.reason == "f_tol"
    assert trace.final_energy <= 1e-6
    assert power_norm(trace.terminal - (-1.0 * f0), p) <= 1e-4


def test_descent_on_linear_action_slides_to_origin(cyclic8):
    rng = np.random.default_rng(15)
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    dom = default_domain(rep, "mean-zero")
    v0 = unit_vector(rep, rng, mean_zero=True)
    trace = pg.descend(act, v0, domain=dom)
    assert trace.reason == "f_tol"
    assert trace.final_energy <= 1e-8
    assert power_norm(trace.terminal, 2.0) <= 1e-6  # only the origin is fixed


def test_descent_free_group_dirichlet_p3():
    rng = np.random.default_rng(16)
    rep = pg.Representation(pg.ball(pg.free_group(2), 4), 3.0, "dirichlet")
    f0 = unit_vector(rep, rng)
    act = pg.AffineAction.from_potential(rep, f0)
    trace = pg.descend(act, rep.zero(), pg.DescentOptions(abs_tol=1e-7))
    assert trace.reason == "f_tol"
    assert trace.final_energy <= 1e-6
    assert power_norm(trace.terminal - (-1.0 * f0), 3.0) <= 1e-4
    assert len(trace.rows) <= 10_000


def test_descent_energy_monotone(cyclic8):
    rng = np.random.default_rng(17)
    rep = pg.Representation(cyclic8, 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    trace = pg.descend(act, rep.zero(), domain=default_domain(rep, "mean-zero"))
    energies = [row[1] for row in trace.rows]
    assert all(a >= b for a, b in zip(energies, energies[1:]))


def test_descent_zero_start_at_fixed_point(cyclic8):
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    trace = pg.descend(act, rep.zero())
    assert trace.reason == "f_tol"
    assert len(trace.rows) == 1
    assert trace.final_energy == 0.0


def test_descent_trace_csv(tmp_path, cyclic8):
    rng = np.random.default_rng(18)
    rep = pg.Representation(cyclic8, 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    trace = pg.descend(act, rep.zero(), domain=default_domain(rep, "mean-zero"))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,F,grad,step"
    assert len(lines) == len(trace.rows) + 1


def test_capped_descent_reports_energy_at_terminal():
    rng = np.random.default_rng(19)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    trace = pg.descend(act, rep.zero(), pg.DescentOptions(max_iters=5))
    assert trace.reason == "max_iters"
    assert len(trace.rows) == 5  # no extra row for the final evaluation
    assert trace.final_energy == pg.displacement_energy(act, trace.terminal)
    assert trace.final_energy < trace.rows[-1][1]


def test_descent_evaluates_each_trial_point_once(monkeypatch):
    rng = np.random.default_rng(20)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0, "full")
    act = pg.AffineAction.from_potential(rep, unit_vector(rep, rng, mean_zero=True))
    calls = []
    original = pg.gradient.displacement_energy

    def counting(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append((args[1], value))
        return value

    monkeypatch.setattr(pg.gradient, "displacement_energy", counting)
    for max_iters, reason in ((5, "max_iters"), (10_000, "f_tol")):
        calls.clear()
        trace = pg.descend(act, rep.zero(), pg.DescentOptions(max_iters=max_iters))
        assert trace.reason == reason
        assert len(calls) == trace.energy_evals
        assert len({w.tobytes() for w, _ in calls}) == len(calls)  # no point twice
        assert calls[-1][0] is trace.terminal
        # the start, then each iteration's trials: quasi-Newton ones from
        # t = 1 along the two-loop direction, then, if those fail, steepest
        # ones from F/2 along a unit direction; each rejected trial is half
        # as far from v as the one before, and the accepted one is the last
        v, f_v = calls[0]
        pos = 1
        next_energies = [row[1] for row in trace.rows[1:]] + [trace.final_energy]
        for (it, f, _, step), f_next in zip(trace.rows, next_energies):
            assert f == f_v
            if step == 0.0:
                break  # the final row
            lengths = []
            while calls[pos - 1][1] != f_next or not lengths:
                w, f_v = calls[pos]
                lengths.append(power_norm(w - v, 3.0))
                pos += 1
            v = w
            assert lengths[-1] == pytest.approx(step, rel=1e-6)
            breaks = [j for j in range(1, len(lengths)) if lengths[j] != pytest.approx(lengths[j - 1] / 2, rel=1e-6)]
            assert len(breaks) <= 1
            if it == 0 or breaks:  # no pair yet, or the quasi-Newton search failed
                assert lengths[breaks[0] if breaks else 0] == pytest.approx(f / 2, rel=1e-6)
        assert pos == len(calls)


def test_descent_off_the_dirichlet_support_raises():
    # the unrestricted domain steps onto the boundary layer, where the
    # truncated action is not defined; the accepted step is rejected
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.0, "dirichlet")
    act = pg.AffineAction.from_potential(rep, rep.random_admissible(np.random.default_rng(1)))
    with pytest.raises(SupportViolation):
        pg.descend(act, rep.zero(), domain=default_domain(rep, "full"))


def test_descent_rejects_a_malformed_start():
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 3.0, "dirichlet")
    act = pg.AffineAction.linear(rep)
    for v0 in (np.zeros(52), np.zeros((1, 53)), np.full(53, np.nan)):
        with pytest.raises(ValidationError):
            pg.descend(act, v0)
    v0 = np.zeros(53)
    v0[40] = 7.0  # on the boundary layer, which the dirichlet projection would drop
    with pytest.raises(SupportViolation):
        pg.descend(act, v0)


def test_descent_on_symmetric6_takes_no_null_steps():
    # the benchmark's fixed potential; an inexact restricted dual used to
    # double the slope near the fixed point, after which Armijo accepted only
    # steps too small to move v (F stuck at 7.07e-7 until the cap)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(6)), 3.0, "full")
    f = np.random.default_rng(0).standard_normal(720)
    f -= f.mean()
    f /= power_norm(f, 3.0)
    act = pg.AffineAction.from_potential(rep, f)
    trace = pg.descend(
        act, rep.zero(), pg.DescentOptions(max_iters=350), domain=default_domain(rep, "mean-zero")
    )
    assert trace.reason != "stalled"
    assert min(step for _, _, _, step in trace.rows if step > 0.0) >= 1e-15
    assert trace.final_energy < 7e-7


def test_descent_on_symmetric6_reaches_f_tol_in_few_evaluations():
    # the benchmark's fixed potential again: restarting every line search at
    # F/2 took 1344 energy evaluations over 460 iterations to reach f_tol;
    # starting from twice the last accepted step takes about half as many
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(6)), 3.0, "full")
    f = np.random.default_rng(0).standard_normal(720)
    f -= f.mean()
    f /= power_norm(f, 3.0)
    act = pg.AffineAction.from_potential(rep, f)
    trace = pg.descend(act, rep.zero(), domain=default_domain(rep, "mean-zero"))
    assert trace.reason == "f_tol"
    assert trace.energy_evals <= 750


def _symmetric6_benchmark_action():
    # the benchmark's fixed potential on symmetric(6), p = 3
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(6)), 3.0, "full")
    f = np.random.default_rng(0).standard_normal(720)
    f -= f.mean()
    f /= power_norm(f, 3.0)
    return pg.AffineAction.from_potential(rep, f)


def test_descent_on_symmetric6_reaches_f_tol_in_100_evaluations():
    # steepest descent alone took 692 energy evaluations over 346 iterations
    act = _symmetric6_benchmark_action()
    trace = pg.descend(act, act.rep.zero(), domain=default_domain(act.rep, "mean-zero"))
    assert trace.reason == "f_tol"
    assert trace.energy_evals <= 100


def test_descent_on_the_lattice_leg_reaches_f_tol_within_400_iterations():
    # the benchmark's lattice leg: its fixed potential (seed 0) on the
    # interior of integer_lattice(2) R = 20, of unit l^3 norm; steepest
    # descent stopped at the 400-iteration cap with F = 6.4e-4
    rep = pg.Representation(pg.ball(pg.integer_lattice(2), 20), 3.0, "dirichlet")
    f = np.random.default_rng(0).standard_normal(rep.ball.size)
    f[~rep.admissible_mask] = 0.0
    f /= power_norm(f, 3.0)
    act = pg.AffineAction.from_potential(rep, f)
    trace = pg.descend(act, rep.zero(), pg.DescentOptions(max_iters=400))
    assert trace.reason == "f_tol"
    assert act.fixed_point_distance(trace.terminal) <= 1e-6


def _free2_values_action(p):
    # generator values with no potential: an action that need not have a
    # fixed point in the domain
    rep = pg.Representation(pg.ball(pg.free_group(2), 4), p, "dirichlet")
    rng = np.random.default_rng(21)
    make = lambda: np.where(rep.admissible_mask, rng.standard_normal(rep.ball.size), 0.0)
    return pg.AffineAction(rep, pg.Cocycle.from_generator_values(rep, {"a": make(), "b": make()}))


def _symmetric4_potential_action(p):
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), p, "full")
    return pg.AffineAction.from_potential(rep, unit_vector(rep, np.random.default_rng(22), mean_zero=True))


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("make_action", [_symmetric4_potential_action, _free2_values_action])
def test_energy_gradient_pairs_to_the_directional_derivative(make_action, p):
    # descend steps on F^2 with the gradient -4 F^(2-p) xi, so the gradient
    # of F is that over 2F, and -<grad F, u> is the descent quotient along u
    act = make_action(p)
    dom = default_domain(act.rep)
    rng = np.random.default_rng(23)
    for _ in range(3):
        v = dom.random_unit(rng)
        f_v = pg.displacement_energy(act, v)
        _, xi = pg.gradient.restricted_slope(act, v, dom, f_v)
        grad_f = pg.gradient.energy_gradient(dom, f_v, xi) / (2.0 * f_v)
        for _ in range(3):
            u = dom.random_unit(rng)
            expected = pg.directional_derivative(act, v, u, nonsmooth="raise")
            assert -float(grad_f @ u) == pytest.approx(expected, rel=1e-10)


def test_descent_with_an_uphill_two_loop_direction_takes_only_steepest_steps(monkeypatch):
    original = pg.gradient.lbfgs_direction
    monkeypatch.setattr(pg.gradient, "lbfgs_direction", lambda g, pairs: -original(g, pairs))
    act = _symmetric4_potential_action(3.0)
    trace = pg.descend(act, act.rep.zero())
    assert trace.reason == "f_tol"
    steps = len(trace.rows) - 1  # the last row is the f_tol stop
    assert steps > 0 and trace.steepest_steps == steps
    assert act.fixed_point_distance(trace.terminal) <= 1e-6


def test_descent_stalls_where_a_trial_keeps_v_bits():
    # with no tolerance left, the steps shrink until v + t u rounds to v; that
    # trial is not taken and descent stops at once, where halving to
    # MAX_HALVINGS would have accepted null steps until the cap
    act = _symmetric4_potential_action(3.0)
    trace = pg.descend(act, act.rep.zero(), pg.DescentOptions(abs_tol=0.0, grad_tol=0.0, max_iters=3000))
    assert trace.reason == "stalled"
    assert trace.final_energy < 1e-14
    assert trace.energy_evals < len(trace.rows) + pg.gradient.MAX_HALVINGS
