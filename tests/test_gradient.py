import numpy as np
import pytest

import pgaplab as pg
from pgaplab.action import default_domain
from pgaplab.errors import AsymmetricSetup, AtFixedPoint, NonsmoothPoint, SupportViolation
from pgaplab.gradient import finite_difference_quotient

from conftest import unit_vector
from test_energy import alternating_vector


@pytest.fixture(scope="module")
def linear_c4(cyclic4):
    rep = pg.Representation(cyclic4, 2.0, "full")
    return pg.AffineAction.linear(rep)


def test_alternating_vector_saturates_bound(linear_c4, cyclic4):
    v = alternating_vector(cyclic4)
    res = pg.abs_gradient(linear_c4, v)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.value_dual_form == pytest.approx(2.0, abs=1e-12)
    # steepest direction points toward the fixed point at the origin
    assert np.allclose(res.steepest_direction.values, -v.values / v.norm(), atol=1e-12)


def test_gradient_scale_invariant_for_linear_actions(linear_c4, cyclic4):
    rng = np.random.default_rng(0)
    rep = linear_c4.rep
    v = unit_vector(rep, rng)
    base = pg.abs_gradient(linear_c4, v).value
    for t in (0.1, 2.0, 17.0):
        assert pg.abs_gradient(linear_c4, t * v).value == pytest.approx(base, rel=1e-10)


def test_gradient_forms_cross_check(sym3):
    rng = np.random.default_rng(1)
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        for _ in range(20):
            v = unit_vector(rep, rng)
            res = pg.abs_gradient(act, v)
            assert abs(res.value - res.value_dual_form) <= 1e-10


def test_gradient_p2_matches_laplacian_ratio(cyclic8):
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = unit_vector(rep, rng, mean_zero=True)
        res = pg.abs_gradient(act, v)
        expected = 2.0 * pg.p_laplacian(rep, v).norm() / pg.dirichlet_norm(rep, v)
        assert res.value == pytest.approx(expected, abs=1e-12)


def test_gradient_eigen_oracle_cyclic5():
    # p = 2 linear case diagonalizes: the infimum over the mean-zero sphere
    # is sqrt(2 mu_min) and pointwise values never go below it
    h = pg.cyclic_group(5)
    rep = pg.Representation(pg.full_ball(h), 2.0, "full")
    act = pg.AffineAction.linear(rep)
    dom = default_domain(rep, "mean-zero")
    oracle = pg.hilbert_gap_constant(rep, dom)
    rng = np.random.default_rng(3)
    values = []
    for _ in range(200):
        v = unit_vector(rep, rng, mean_zero=True)
        values.append(pg.abs_gradient(act, v).value)
    assert min(values) >= oracle - 1e-9
    # a pure character mode attains it
    mode = np.cos(2 * np.pi * np.array([int(g) for g in rep.ball.elements]) / 5)
    v = pg.mean_zero_project(pg.LpVector(rep.ball, mode, 2.0))
    assert pg.abs_gradient(act, v).value == pytest.approx(oracle, abs=1e-10)


def test_at_fixed_point_raises(linear_c4, cyclic4):
    ones = pg.LpVector(cyclic4, np.ones(4), 2.0)
    with pytest.raises(AtFixedPoint):
        pg.abs_gradient(linear_c4, ones)


def test_asymmetric_setup_raises():
    h = pg.cyclic_group(4, generators=[1, 3], weights=[0.7, 0.3], strict_weights=False)
    rep = pg.Representation(pg.full_ball(h), 2.0, "full")
    act = pg.AffineAction.linear(rep)
    v = alternating_vector(rep.ball)
    with pytest.raises(AsymmetricSetup):
        pg.abs_gradient(act, v)


def test_universal_and_scaling_bounds(sym3):
    rng = np.random.default_rng(4)
    params_by_p = {}
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        params = pg.EnergyParams(p, p)
        for _ in range(300):
            v = unit_vector(rep, rng)
            res = pg.abs_gradient(act, v)
            f = pg.displacement_energy(act, params, v)
            assert res.value <= 2.0 + 1e-12
            assert res.value >= f / v.norm() - 1e-9


# --- directional derivatives ----------------------------------------------


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_directional_derivative_matches_central_differences(p, sym3):
    rng = np.random.default_rng(5)
    rep = pg.Representation(sym3, p, "full")
    act = pg.AffineAction.linear(rep)
    params = pg.EnergyParams(p, p)
    for _ in range(25):
        v = unit_vector(rep, rng)
        u = unit_vector(rep, rng)
        dd = pg.directional_derivative(act, v, u)
        fd = finite_difference_quotient(act, params, v, u, 1e-5)
        assert dd == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_directional_derivative_toward_origin(cyclic8):
    # moving a linear action's argument toward 0 descends at rate F(v)/|v|
    rng = np.random.default_rng(6)
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    params = pg.EnergyParams(2, 2)
    v = 1.7 * unit_vector(rep, rng)
    u = (-1.0 / v.norm()) * v
    dd = pg.directional_derivative(act, v, u)
    assert dd == pytest.approx(pg.displacement_energy(act, params, v) / v.norm(), rel=1e-12)


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
    u_raw -= np.dot(u_raw, xi.values) / np.dot(xi.values, xi.values) * xi.values
    u = pg.LpVector(cyclic8, u_raw, 2.0)
    u = (1.0 / u.norm()) * u
    assert abs(pg.directional_derivative(act, v, u)) <= 1e-10


def nonsmooth_point(sym3):
    # indicator of {e, (12)} is invariant under (12) but not under (23)
    vals = np.zeros(sym3.size)
    vals[sym3.locate((0, 1, 2))] = 1.0
    vals[sym3.locate((1, 0, 2))] = 1.0
    return pg.LpVector(sym3, vals, 2.0)


def test_nonsmooth_point_falls_back_to_finite_differences(sym3):
    rep = pg.Representation(sym3, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    v = nonsmooth_point(sym3)
    disp = [np.linalg.norm(d) for d in act.displacements(v.values)]
    assert min(disp) == 0.0 and max(disp) > 0.0  # genuinely nonsmooth, not fixed
    rng = np.random.default_rng(9)
    u = unit_vector(rep, rng)
    with pytest.raises(NonsmoothPoint):
        pg.directional_derivative(act, v, u, nonsmooth="raise")
    dd = pg.directional_derivative(act, v, u)  # fallback
    params = pg.EnergyParams(2, 2)
    fd = finite_difference_quotient(act, params, v, u, 1e-5, scheme="one_sided")
    assert dd == pytest.approx(fd, abs=1e-12)


# --- sampled gradient -------------------------------------------------------


def test_sampled_gradient_at_fixed_point_is_zero(cyclic8):
    rng = np.random.default_rng(10)
    rep = pg.Representation(cyclic8, 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    est = pg.abs_gradient_sampled(act, pg.EnergyParams(2, 2), -1.0 * f0, budget=64, seed=0)
    assert est == 0.0


def test_sampled_gradient_meets_closed_form(linear_c4, cyclic4):
    v = alternating_vector(cyclic4)
    est = pg.abs_gradient_sampled(linear_c4, pg.EnergyParams(2, 2), v, budget=10_000, seed=1)
    assert est >= 2.0 - 1e-3
    assert est <= 2.0 + 1e-12


def test_sampled_is_lower_bound_and_close(sym3):
    rng = np.random.default_rng(11)
    for p in (1.5, 2.0, 3.0):
        rep = pg.Representation(sym3, p, "full")
        act = pg.AffineAction.linear(rep)
        params = pg.EnergyParams(p, p)
        for i in range(10):
            v = unit_vector(rep, rng)
            closed = pg.abs_gradient(act, v).value
            sampled = pg.abs_gradient_sampled(act, params, v, budget=32, seed=100 + i)
            assert closed >= sampled - 1e-9
            assert abs(closed - sampled) <= 2e-3


def test_sampled_gradient_respects_universal_bound(sym3):
    rng = np.random.default_rng(12)
    rep = pg.Representation(sym3, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    params = pg.EnergyParams(2, 2)
    for i in range(20):
        v = 3.0 * unit_vector(rep, rng)
        est = pg.abs_gradient_sampled(act, params, v, budget=16, seed=i)
        assert est <= 2.0 + 1e-12


def test_sampled_gradient_uses_known_fixed_point(cyclic8):
    rng = np.random.default_rng(13)
    rep = pg.Representation(cyclic8, 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    params = pg.EnergyParams(2, 2)
    v = unit_vector(rep, rng, mean_zero=True)
    with_fp = pg.abs_gradient_sampled(
        act, params, v, budget=4, seed=2, fixed_point=-1.0 * f0, include_steepest=False
    )
    f_v = pg.displacement_energy(act, params, v)
    assert with_fp >= f_v / (v - (-1.0 * f0)).norm() - 1e-12


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
    assert (trace.terminal - (-1.0 * f0)).norm() <= 1e-4


def test_descent_on_linear_action_slides_to_origin(cyclic8):
    rng = np.random.default_rng(15)
    rep = pg.Representation(cyclic8, 2.0, "full")
    act = pg.AffineAction.linear(rep)
    dom = default_domain(rep, "mean-zero")
    v0 = unit_vector(rep, rng, mean_zero=True)
    trace = pg.descend(act, v0, domain=dom)
    assert trace.reason == "f_tol"
    assert trace.final_energy <= 1e-8
    assert trace.terminal.norm() <= 1e-6  # only the origin is fixed


def test_descent_free_group_dirichlet_p3():
    rng = np.random.default_rng(16)
    rep = pg.Representation(pg.ball(pg.free_group(2), 4), 3.0, "dirichlet")
    f0 = unit_vector(rep, rng)
    act = pg.AffineAction.from_potential(rep, f0)
    trace = pg.descend(act, rep.zero(), pg.DescentOptions(abs_tol=1e-7))
    assert trace.reason == "f_tol"
    assert trace.final_energy <= 1e-6
    assert (trace.terminal - (-1.0 * f0)).norm() <= 1e-4
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
    params = pg.EnergyParams(r=3.0, p=3.0)
    trace = pg.descend(act, rep.zero(), pg.DescentOptions(max_iters=5))
    assert trace.reason == "max_iters"
    assert len(trace.rows) == 5  # no extra row for the final evaluation
    assert trace.final_energy == pg.displacement_energy(act, params, trace.terminal)
    assert trace.final_energy < trace.rows[-1][1]


def test_descent_evaluates_each_trial_point_once(monkeypatch):
    rng = np.random.default_rng(20)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0, "full")
    act = pg.AffineAction.from_potential(rep, unit_vector(rep, rng, mean_zero=True))
    calls = []
    original = pg.gradient.displacement_energy

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(pg.gradient, "displacement_energy", counting)
    for max_iters, reason in ((5, "max_iters"), (10_000, "f_tol")):
        calls.clear()
        trace = pg.descend(act, rep.zero(), pg.DescentOptions(max_iters=max_iters))
        assert trace.reason == reason
        # the start, then each line-search trial t = F/2, F/4, ... once
        trials = sum(round(np.log2(f / 2.0 / t)) + 1 for _, f, _, t in trace.rows if t > 0.0)
        assert len(calls) == 1 + trials
        assert calls[-1] is trace.terminal


def test_descent_off_the_dirichlet_support_raises():
    # the unrestricted domain steps onto the boundary layer, where the
    # truncated action is not defined; the accepted step is rejected
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.0, "dirichlet")
    act = pg.AffineAction.from_potential(rep, rep.random_admissible(np.random.default_rng(1)))
    with pytest.raises(SupportViolation):
        pg.descend(act, rep.zero(), domain=default_domain(rep, "full"))


def test_descent_on_symmetric6_takes_no_null_steps():
    # the benchmark's fixed potential; an inexact restricted dual used to
    # double the slope near the fixed point, after which Armijo accepted only
    # steps too small to move v (F stuck at 7.07e-7 until the cap)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(6)), 3.0, "full")
    f = np.random.default_rng(0).standard_normal(720)
    f -= f.mean()
    f /= pg.lpspace.power_norm(f, 3.0)
    act = pg.AffineAction.from_potential(rep, pg.LpVector(rep.ball, f, 3.0))
    trace = pg.descend(
        act, rep.zero(), pg.DescentOptions(max_iters=350), domain=default_domain(rep, "mean-zero")
    )
    assert trace.reason != "stalled"
    assert min(step for _, _, _, step in trace.rows if step > 0.0) >= 1e-15
    assert trace.final_energy < 7e-7
