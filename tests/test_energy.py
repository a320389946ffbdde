import numpy as np
import pytest

import pgaplab as pg
from pgaplab.energy import weighted_r_mean
from pgaplab.errors import SupportViolation, ValidationError
from pgaplab.lpspace import power_norm

from conftest import unit_vector


def alternating_vector(ball):
    return np.array([0.5 * (-1.0) ** (x % 2) for x in ball.elements])


@pytest.mark.parametrize("r", [0.5, 0.0, -1.0, np.nan])
def test_generator_exponent_outside_1_inf_raises(sym3, r):
    rep = pg.Representation(sym3, 3.0)
    v = unit_vector(rep, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="generator exponent"):
        pg.displacement_energy(pg.AffineAction.linear(rep), v, r)
    with pytest.raises(ValidationError, match="generator exponent"):
        pg.cocycle_norm(pg.coboundary(rep, v), r)


def test_energy_exponent_defaults_to_the_representations(free2_r3):
    # the ambient exponent is read off the action; r = p is the default
    rng = np.random.default_rng(8)
    for p in (1.5, 3.0):
        rep = pg.Representation(free2_r3, p)
        f0 = unit_vector(rep, rng)
        act = pg.AffineAction.from_potential(rep, f0)
        v = unit_vector(rep, rng)
        assert pg.displacement_energy(act, v) == pg.displacement_energy(act, v, act.rep.p)
        assert pg.cocycle_norm(act.cocycle) == pg.cocycle_norm(act.cocycle, p)


def test_alternating_vector_energy_is_two(cyclic4):
    rep = pg.Representation(cyclic4, 2.0)
    act = pg.AffineAction.linear(rep)
    v = alternating_vector(cyclic4)
    assert power_norm(v, 2.0) == pytest.approx(1.0)
    assert pg.displacement_energy(act, v) == pytest.approx(2.0, abs=1e-14)


def test_energy_vanishes_at_fixed_point_of_coboundary(cyclic8):
    rng = np.random.default_rng(0)
    rep = pg.Representation(cyclic8, 2.0)
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    value = pg.displacement_energy(act, -1.0 * f0)
    assert value <= 1e-14


def test_energy_two_lipschitz(sym3):
    rng = np.random.default_rng(1)
    rep = pg.Representation(sym3, 3.0)
    f0 = unit_vector(rep, rng)
    act = pg.AffineAction.from_potential(rep, f0)
    for _ in range(100):
        u = unit_vector(rep, rng)
        v = 2.0 * unit_vector(rep, rng)
        lhs = abs(
            pg.displacement_energy(act, u) - pg.displacement_energy(act, v)
        )
        assert lhs <= 2.0 * power_norm(u - v, 3.0) + 1e-12


def test_energy_convexity(cyclic8):
    rng = np.random.default_rng(2)
    rep = pg.Representation(cyclic8, 1.5)
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    for r in (1.0, 1.5, 2.0, 4.0, np.inf):
        for _ in range(30):
            u = unit_vector(rep, rng)
            v = unit_vector(rep, rng)
            fu = pg.displacement_energy(act, u, r)
            fv = pg.displacement_energy(act, v, r)
            for t in (0.25, 0.5, 0.75):
                mid = pg.displacement_energy(act, t * u + (1 - t) * v, r)
                assert mid <= t * fu + (1 - t) * fv + 1e-12


def test_energy_homogeneity_linear_action(cyclic8):
    rng = np.random.default_rng(3)
    rep = pg.Representation(cyclic8, 2.0)
    act = pg.AffineAction.linear(rep)
    v = unit_vector(rep, rng)
    fv = pg.displacement_energy(act, v)
    for t in (-2.0, -0.5, 0.25, 3.0):
        assert pg.displacement_energy(act, t * v) == pytest.approx(abs(t) * fv, rel=1e-12)


def test_energy_sandwich(sym3):
    rng = np.random.default_rng(4)
    rep = pg.Representation(sym3, 2.0)
    act = pg.AffineAction.linear(rep)
    m_min = rep.handle.min_weight()
    for r in (1.5, 2.0, 8.0):
        for _ in range(50):
            v = unit_vector(rep, rng)
            fr = pg.displacement_energy(act, v, r)
            finf = pg.displacement_energy(act, v, np.inf)
            assert fr <= finf + 1e-12
            assert m_min ** (1.0 / r) * finf <= fr + 1e-12


def test_cocycle_norm_matches_energy(cyclic8):
    rng = np.random.default_rng(5)
    rep = pg.Representation(cyclic8, 2.0)
    v = unit_vector(rep, rng)
    c = pg.coboundary(rep, v)
    act = pg.AffineAction.linear(rep)
    assert pg.cocycle_norm(c) == pytest.approx(pg.displacement_energy(act, v), abs=1e-14)
    zero = pg.Cocycle.zero(rep)
    assert pg.cocycle_norm(zero) == 0.0


def test_coboundary_norm_bound(cyclic8):
    rng = np.random.default_rng(6)
    rep = pg.Representation(cyclic8, 3.0)
    for r in (1.0, 2.0, np.inf):
        for _ in range(50):
            v = unit_vector(rep, rng)
            assert pg.cocycle_norm(pg.coboundary(rep, v), r) <= 2.0 * power_norm(v, 3.0) + 1e-12


def test_dirichlet_norm_on_constants(cyclic4):
    rep = pg.Representation(cyclic4, 2.0)
    assert pg.dirichlet_norm(rep, np.ones(4)) == 0.0


def test_dirichlet_norm_delta_cyclic3():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(3)), 2.0)
    de = pg.delta(rep.ball, rep.ball.locate(0))
    assert pg.dirichlet_norm(rep, de) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_dirichlet_norm_is_cocycle_norm_of_coboundary(free2_r3):
    rng = np.random.default_rng(7)
    rep = pg.Representation(free2_r3, 2.5)
    v = unit_vector(rep, rng)
    lhs = pg.dirichlet_norm(rep, v)
    rhs = pg.cocycle_norm(pg.coboundary(rep, v))
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_p_laplacian_of_constant_vanishes(cyclic4):
    rep = pg.Representation(cyclic4, 3.0)
    assert power_norm(pg.p_laplacian(rep, np.ones(4)), 1.5) == 0.0


def test_p_laplacian_lattice_delta():
    b = pg.ball(pg.integer_lattice(1), 2)
    rep = pg.Representation(b, 2.0)
    d0 = pg.delta(b, b.locate((0,)))
    lap = pg.p_laplacian(rep, d0)
    assert lap[b.locate((0,))] == pytest.approx(-1.0)
    assert lap[b.locate((1,))] == pytest.approx(0.5)
    assert lap[b.locate((-1,))] == pytest.approx(0.5)
    others = [i for i in range(b.size) if i not in {b.locate((0,)), b.locate((1,)), b.locate((-1,))}]
    assert np.all(lap[others] == 0.0)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: pg.cyclic_group(7),
        lambda: pg.dihedral_group(4),
        lambda: pg.symmetric_group(3),
    ],
)
def test_dirichlet_identity_p2(maker):
    rep = pg.Representation(pg.full_ball(maker()), 2.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = unit_vector(rep, rng)
        lhs = pg.dirichlet_norm(rep, f) ** 2
        rhs = -2.0 * np.dot(pg.p_laplacian(rep, f), f)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_p2_laplacian_is_markov_minus_identity(cyclic8):
    rep = pg.Representation(cyclic8, 2.0)
    rng = np.random.default_rng(9)
    f = unit_vector(rep, rng)
    lap = pg.p_laplacian(rep, f)
    mk = pg.markov_operator(rep, f)
    assert np.abs(lap - (mk - f)).max() <= 1e-14


def test_gradient_field_matches_laplacian_for_linear_action(sym3):
    rep = pg.Representation(sym3, 1.5)
    act = pg.AffineAction.linear(rep)
    rng = np.random.default_rng(10)
    f = unit_vector(rep, rng)
    lhs = pg.gradient_field(act, f)
    rhs = pg.p_laplacian(rep, f)
    assert np.all(lhs == rhs)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_field_of_affine_action_is_shifted_laplacian(p, cyclic8):
    rep = pg.Representation(cyclic8, p)
    rng = np.random.default_rng(11)
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    for _ in range(10):
        f = unit_vector(rep, rng, mean_zero=True)
        lhs = pg.gradient_field(act, f)
        rhs = pg.p_laplacian(rep, f + f0)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_gradient_field_vanishes_at_fixed_point(cyclic8):
    rng = np.random.default_rng(12)
    rep = pg.Representation(cyclic8, 3.0)
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    field = pg.gradient_field(act, -1.0 * f0)
    assert power_norm(field, 1.5) <= 1e-14


def test_weighted_r_mean_max():
    vals = np.array([1.0, 3.0, 2.0])
    w = np.array([0.25, 0.5, 0.25])
    assert weighted_r_mean(vals, w, np.inf) == 3.0
    assert weighted_r_mean(vals, w, 1.0) == pytest.approx(0.25 + 1.5 + 0.5)


def test_support_violation_propagates(free2_r3):
    rep = pg.Representation(free2_r3, 2.0)
    vals = np.zeros(free2_r3.size)
    vals[-1] = 1.0
    bad = vals
    act = pg.AffineAction.linear(rep)
    with pytest.raises(SupportViolation):
        pg.displacement_energy(act, bad)
    with pytest.raises(SupportViolation):
        pg.p_laplacian(rep, bad)

