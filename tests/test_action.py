import numpy as np
import pytest

import pgaplab as pg
from pgaplab.action import (
    Cocycle,
    DirichletDomain,
    MeanZeroDomain,
    default_domain,
    extend_all,
    inverse_law_residual,
    potential_from_cocycle,
    validate_cocycle,
)
from pgaplab.errors import InfiniteGroup, SupportViolation, ValidationError
from pgaplab.lpspace import power_norm

from conftest import unit_vector


@pytest.fixture(scope="module")
def rep_c3():
    return pg.Representation(pg.full_ball(pg.cyclic_group(3)), 2.0, "full")


@pytest.fixture(scope="module")
def rep_free():
    return pg.Representation(pg.ball(pg.free_group(2), 3), 2.0, "dirichlet")


def test_regular_action_permutes_basis(rep_c3):
    b = rep_c3.ball
    de = pg.delta(b, b.locate(0), 2.0)
    out = rep_c3.apply(1, de)  # generator s
    assert out.values[b.locate(1)] == 1.0
    assert out.norm() == de.norm()


def test_identity_element_acts_trivially(rep_c3):
    rng = np.random.default_rng(0)
    v = rep_c3.random_admissible(rng)
    out = rep_c3.apply(0, v)  # the element 0 is the identity of cyclic(3)
    assert (out.values == v.values).all()


def test_free_group_shift_preserves_norm(rep_free):
    b = rep_free.ball
    de = pg.delta(b, b.locate(()), 2.0)
    out = rep_free.apply_generator(0, de)  # generator a
    assert out.values[b.locate((1,))] == 1.0
    assert out.norm() == de.norm()


def test_isometry_and_inverse_composition(rep_free):
    rng = np.random.default_rng(1)
    v = rep_free.random_admissible(rng)
    for k in range(rep_free.handle.n_generators):
        ki = int(rep_free.handle.inverse_index[k])
        moved = rep_free.apply_generator(k, v)
        assert moved.norm() == v.norm()  # exact: permutation + sorted summation
        back = rep_free.apply_generator(ki, moved, check=False)
        assert (back.values == v.values).all()


def test_support_violation_in_dirichlet_mode(rep_free):
    vals = np.zeros(rep_free.ball.size)
    vals[-1] = 1.0  # deepest element has depth R
    v = pg.LpVector(rep_free.ball, vals, 2.0)
    with pytest.raises(SupportViolation):
        rep_free.apply_generator(0, v)
    with pytest.raises(SupportViolation):
        pg.coboundary(rep_free, v)


def test_coboundary_of_constant_vanishes(rep_c3):
    ones = pg.LpVector(rep_c3.ball, np.ones(3), 2.0)
    c = pg.coboundary(rep_c3, ones)
    assert np.array_equal(c.values, np.zeros((2, 3)))


def test_coboundary_of_delta(rep_c3):
    b = rep_c3.ball
    de = pg.delta(b, b.locate(0), 2.0)
    c = pg.coboundary(rep_c3, de)
    k_s = list(b.handle.generators).index(1)
    expected = np.zeros(3)
    expected[b.locate(1)] = 1.0
    expected[b.locate(0)] = -1.0
    assert np.allclose(c.values[k_s], expected)


def test_coboundary_linearity(rep_c3):
    rng = np.random.default_rng(2)
    u = rep_c3.random_admissible(rng)
    v = rep_c3.random_admissible(rng)
    lhs = pg.coboundary(rep_c3, 2.0 * u + 3.0 * v)
    rhs_u = pg.coboundary(rep_c3, u)
    rhs_v = pg.coboundary(rep_c3, v)
    for k in range(rep_c3.handle.n_generators):
        diff = lhs.values[k] - (2.0 * rhs_u.values[k] + 3.0 * rhs_v.values[k])
        assert power_norm(diff, 2.0) <= 1e-12


def test_extend_empty_word_is_zero(rep_c3):
    rng = np.random.default_rng(3)
    c = pg.coboundary(rep_c3, rep_c3.random_admissible(rng))
    assert c.extend([]).norm() == 0.0


def test_extend_cancelling_word_is_zero(rep_c3):
    rng = np.random.default_rng(4)
    c = pg.coboundary(rep_c3, rep_c3.random_admissible(rng))
    for k in range(rep_c3.handle.n_generators):
        ki = int(rep_c3.handle.inverse_index[k])
        assert c.extend([k, ki]).norm() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_extension_of_coboundary_matches_direct_evaluation(seed):
    rng = np.random.default_rng(seed)
    h = pg.symmetric_group(3)
    rep = pg.Representation(pg.full_ball(h), 2.0, "full")
    v = rep.random_admissible(rng)
    c = pg.coboundary(rep, v)
    word = [int(rng.integers(h.n_generators)) for _ in range(6)]
    lhs = c.extend(word)
    moved = v
    for k in reversed(word):
        moved = rep.apply_generator(k, moved, check=False)
    assert (lhs - (moved - v)).norm() <= 1e-12


def test_extend_all_matches_words(rep_c3):
    rng = np.random.default_rng(5)
    v = rep_c3.random_admissible(rng)
    c = pg.coboundary(rep_c3, v)
    ext = extend_all(c)
    for i in range(rep_c3.ball.size):
        assert (ext[i] - c.extend(rep_c3.ball.word_for(i))).norm() <= 1e-12


def test_cocycle_validation_accepts_coboundaries(rep_c3):
    rng = np.random.default_rng(6)
    c = pg.coboundary(rep_c3, rep_c3.random_admissible(rng))
    report = validate_cocycle(c)
    assert report["ok"]
    assert report["maxResidual"] <= 1e-12


@pytest.mark.parametrize("max_pairs", [20000, 10])
def test_cocycle_validation_checks_all_or_sampled_pairs(max_pairs):
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 2.5, "full")
    rng = np.random.default_rng(6)
    good = pg.coboundary(rep, rep.random_admissible(rng))
    bad = Cocycle(rep, rng.standard_normal((rep.handle.n_generators, rep.ball.size)))
    k = rep.handle.n_generators
    # every (generator, element) pair, or all generator pairs plus 100 random
    pairs = k * 24 if max_pairs == 20000 else k * k + 100
    for c, ok in ((good, True), (bad, False)):
        report = validate_cocycle(c, max_pairs=max_pairs)
        assert report["ok"] == ok
        assert report["pairsChecked"] == k + pairs


def test_cocycle_from_values_rejects_inconsistent_assignment(rep_c3):
    b = rep_c3.ball
    with pytest.raises(ValidationError):
        Cocycle.from_generator_values(rep_c3, {"s^1": pg.delta(b, 0, 2.0)})


def test_cocycle_from_values_accepts_consistent_assignment(rep_c3):
    b = rep_c3.ball
    vals = pg.delta(b, 0, 2.0).values - 1.0 / 3.0
    c = Cocycle.from_generator_values(rep_c3, {"s^1": pg.LpVector(b, vals, 2.0)})
    assert validate_cocycle(c)["ok"]


@pytest.mark.parametrize("key", [-1, 4, "c"])
def test_cocycle_from_values_rejects_unknown_generator(rep_free, key):
    v = pg.LpVector(rep_free.ball, rep_free.admissible_mask.astype(float), 2.0)
    with pytest.raises(ValidationError, match="generator"):
        Cocycle.from_generator_values(rep_free, {0: v, 2: v, key: v})


def test_free_group_assignment_is_unconstrained(rep_free):
    rng = np.random.default_rng(7)
    b = rep_free.ball
    mask = rep_free.admissible_mask
    make = lambda: pg.LpVector(b, np.where(mask, rng.standard_normal(b.size), 0.0), 2.0)
    c = Cocycle.from_generator_values(rep_free, {"a": make(), "b": make()})
    # inverse values were derived, whole assignment is a valid cocycle
    names = rep_free.handle.names
    assert set(names) == {"a", "a^-1", "b", "b^-1"}


def test_cocycle_inverse_law_for_coboundaries(rep_free):
    rng = np.random.default_rng(8)
    v = rep_free.random_admissible(rng)
    c = pg.coboundary(rep_free, v)
    h = rep_free.handle
    worst = 0.0
    for k in range(h.n_generators):
        ki = int(h.inverse_index[k])
        image = rep_free.apply_generator(ki, pg.LpVector(rep_free.ball, c.values[k], 2.0), check=False)
        resid = power_norm(c.values[ki] + image.values, 2.0)
        assert resid <= 1e-12
        worst = max(worst, resid)
    assert inverse_law_residual(c) == worst


def test_cohomology_dims_cyclic3(rep_c3):
    dims = pg.cohomology_dims(rep_c3)
    assert dims == {"dimZ1": 2, "dimB1": 2, "dimH1": 0}


def test_cohomology_dims_sym3():
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 2.0, "full")
    dims = pg.cohomology_dims(rep)
    assert dims["dimH1"] == 0
    assert dims["dimB1"] == 5  # |G| - 1


def test_cohomology_dims_trivial_group():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(1)), 2.0, "full")
    assert pg.cohomology_dims(rep) == {"dimZ1": 0, "dimB1": 0, "dimH1": 0}


def test_cohomology_requires_finite_group(rep_free):
    with pytest.raises(InfiniteGroup):
        pg.cohomology_dims(rep_free)


def test_potential_recovery_least_squares():
    rng = np.random.default_rng(9)
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(6)), 2.0, "full")
    f0 = rep.random_admissible(rng, mean_zero=True)
    c = pg.coboundary(rep, f0)
    f_rec, resid = potential_from_cocycle(c)
    assert resid <= 1e-9
    assert (f_rec - f0).norm() <= 1e-9  # mean-zero representative recovered


def test_mean_zero_projection(cyclic4):
    ones = pg.LpVector(cyclic4, np.ones(4), 2.0)
    assert pg.mean_zero_project(ones).norm() == 0.0
    de = pg.delta(cyclic4, 0, 2.0)
    proj = pg.mean_zero_project(de)
    assert np.allclose(proj.values, de.values - 0.25)
    again = pg.mean_zero_project(proj)
    assert (again - proj).norm() <= 1e-15


def test_mean_zero_subspace_invariant(cyclic4):
    rep = pg.Representation(cyclic4, 2.0, "full")
    rng = np.random.default_rng(10)
    v = rep.random_admissible(rng, mean_zero=True)
    for k in range(rep.handle.n_generators):
        moved = rep.apply_generator(k, v)
        assert abs(moved.values.sum()) <= 1e-12


def test_affine_action_fixed_point():
    rng = np.random.default_rng(11)
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(5)), 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    fixed = -1.0 * f0
    for k in range(rep.handle.n_generators):
        assert (act.apply(k, fixed) - fixed).norm() <= 1e-12


def test_affine_action_potential_mismatch_rejected():
    rng = np.random.default_rng(12)
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(5)), 2.0, "full")
    f0 = unit_vector(rep, rng, mean_zero=True)
    g0 = unit_vector(rep, rng, mean_zero=True)
    c = pg.coboundary(rep, f0)
    with pytest.raises(ValidationError, match="declared potential does not match cocycle"):
        pg.AffineAction(rep, c, potential=g0)
    assert pg.AffineAction(rep, c, potential=f0).cocycle is c


@pytest.mark.parametrize("shape", [(2, 4), (3, 3), (6,), (1, 2, 3)])
def test_cocycle_rejects_wrong_shape(rep_c3, shape):
    with pytest.raises(ValidationError, match="shape"):
        Cocycle(rep_c3, np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cocycle_rejects_non_finite_rows(rep_c3, bad):
    values = np.zeros((2, 3))
    values[1, 2] = bad
    with pytest.raises(ValidationError, match="finite"):
        Cocycle(rep_c3, values)


def test_cocycle_routines_build_no_vectors(monkeypatch):
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 3.0, "dirichlet")
    f0 = rep.random_admissible(np.random.default_rng(13))
    built = []
    original = pg.LpVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(pg.LpVector, "__post_init__", counting)
    c = pg.coboundary(rep, f0)
    act = pg.AffineAction.from_potential(rep, f0)
    pg.cocycle_norm(c, pg.EnergyParams(r=2.0, p=3.0))
    assert built == []
    assert np.array_equal(act.cocycle.values, c.values)


def test_domain_projections(rep_free):
    dom = default_domain(rep_free)
    assert isinstance(dom, DirichletDomain)
    vals = np.ones(rep_free.ball.size)
    proj = dom.project(vals)
    assert (proj[~rep_free.admissible_mask] == 0.0).all()

    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 2.0, "full")
    mz = default_domain(rep)
    assert isinstance(mz, MeanZeroDomain)
    assert abs(mz.project(np.arange(4.0)).sum()) <= 1e-12


def test_mean_zero_dual_restriction_q2():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 2.0, "full")
    dom = MeanZeroDomain(rep)
    xi = pg.DualVector(rep.ball, np.array([3.0, 1.0, 1.0, 1.0]), 2.0)
    r = dom.restrict_dual(xi)
    assert abs(r.values.sum()) <= 1e-12
    assert r.norm() <= xi.norm()


def test_mean_zero_dual_restriction_general_q():
    # restricted functional must dominate the pairing on mean-zero vectors
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(6)), 3.0, "full")
    dom = MeanZeroDomain(rep)
    rng = np.random.default_rng(13)
    xi = pg.DualVector(rep.ball, rng.standard_normal(6), 1.5)
    r = dom.restrict_dual(xi)
    u = pg.norming_vector(r)
    assert abs(u.values.sum()) <= 1e-9  # attaining direction is mean-zero
    assert np.dot(xi.values, u.values) == pytest.approx(r.norm(), abs=1e-9)


@pytest.fixture(scope="module")
def mean_zero24():
    return MeanZeroDomain(pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0, "full"))


def _dual(domain, values, q):
    return pg.DualVector(domain.rep.ball, values, q)


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0])
def test_mean_zero_dual_restriction_is_scale_free(mean_zero24, q):
    # near a fixed point every dual entry is tiny; the shift must scale with them
    xi = np.random.default_rng(21).standard_normal(24)
    base = mean_zero24.restrict_dual(_dual(mean_zero24, xi, q)).values
    for t in (1e-13, 1e-6, 1.0, 1e6):
        got = mean_zero24.restrict_dual(_dual(mean_zero24, t * xi, q)).values
        assert np.max(np.abs(got - t * base)) <= 1e-12 * t * np.max(np.abs(base))


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("seed", range(5))
def test_mean_zero_dual_restriction_solves_optimality(mean_zero24, q, seed):
    # the shift c is a root of sum psi(x - c), psi(t) = sign(t)|t|^(q-1), up to
    # what one ulp of c and the rounding of the sum can move it
    x = np.random.default_rng(seed).standard_normal(24) * 10.0 ** (3 * seed - 6)
    d = mean_zero24.restrict_dual(_dual(mean_zero24, x, q)).values
    c = float(np.mean(x - d))
    residual = abs(np.sum(np.sign(d) * np.abs(d) ** (q - 1.0)))
    slope = (q - 1.0) * np.sum(np.abs(d) ** (q - 2.0))
    rounding = slope * np.spacing(c) + d.size * np.finfo(float).eps * np.sum(np.abs(d) ** (q - 1.0))
    assert residual <= 4.0 * rounding


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0])
def test_mean_zero_dual_restriction_beats_bounded_brent(mean_zero24, q):
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(22)
    for t in (1e-13, 1.0, 1e6):
        for _ in range(20):
            x = t * rng.standard_normal(24)
            res = minimize_scalar(
                lambda c: float(np.sum(np.abs(x - c) ** q)),
                bounds=(x.min(), x.max()),
                method="bounded",
                options={"xatol": 1e-14},
            )
            brent = power_norm(x - res.x, q)
            ours = power_norm(mean_zero24.restrict_dual(_dual(mean_zero24, x, q)).values, q)
            # both may sit at the minimum, where their norms differ by rounding
            assert ours <= brent * (1.0 + 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
def test_mean_zero_dual_restriction_of_a_constant_is_zero(mean_zero24, q):
    r = mean_zero24.restrict_dual(_dual(mean_zero24, np.full(24, -0.75), q))
    assert np.array_equal(r.values, np.zeros(24))


def test_mean_zero_dual_restriction_q2_subtracts_the_mean(mean_zero24):
    vals = np.random.default_rng(23).standard_normal(24) * 1e-9
    r = mean_zero24.restrict_dual(_dual(mean_zero24, vals, 2.0))
    assert np.array_equal(r.values, vals - vals.mean())


def _oracle(rep, g, f):
    """(pi(g) f)(x) = f(g^-1 x) from the group oracle; zero off the ball."""
    h, b = rep.handle, rep.ball
    gi = h.invert(g)
    out = np.zeros(b.size)
    for i, x in enumerate(b.elements):
        j = b.index.get(h.key(h.multiply(gi, x)))
        if j is not None:
            out[i] = f[j]
    return out


@pytest.mark.parametrize("case", ["free2-dirichlet", "sym4-full"])
def test_stacked_operators_match_group_oracle(case):
    if case == "free2-dirichlet":
        rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.5, "dirichlet")
    else:
        rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 2.5, "full")
    h, b = rep.handle, rep.ball
    rng = np.random.default_rng(3)
    f = rng.standard_normal(b.size)  # mass on the boundary layer too
    assert (b.depth == b.radius).any() and np.all(f[b.depth == b.radius] != 0.0)
    want = np.array([_oracle(rep, g, f) for g in h.generators])

    assert np.array_equal(rep.apply_array(slice(None), f), want)
    for k in range(h.n_generators):
        assert np.array_equal(rep.apply_array(k, f), want[k])
        image = rep.apply_generator(k, pg.LpVector(b, f, rep.p), check=False)
        assert np.array_equal(image.values, want[k])
    # a 2-D argument: row j is acted on by the j-th selected generator
    rows = rng.standard_normal((h.n_generators, b.size))
    stacked = rep.apply_array(h.inverse_index, rows)
    for k in range(h.n_generators):
        assert np.array_equal(stacked[k], _oracle(rep, h.generators[h.inverse_index[k]], rows[k]))

    c = Cocycle(rep, rng.standard_normal((h.n_generators, b.size)))
    act = pg.AffineAction(rep, c)
    assert np.array_equal(act.displacements(f), want - f + c.values)
    assert np.array_equal(pg.AffineAction.linear(rep).displacements(f), want - f)

    mk = pg.markov_operator(rep, pg.LpVector(b, f, rep.p)).values
    assert np.allclose(mk, rep.weights @ want, rtol=0, atol=1e-14)

    if rep.mode == "full":
        for i in (0, 7, 13, 23):
            g = b.elements[i]
            got = rep.apply(g, pg.LpVector(b, f, rep.p)).values
            assert np.array_equal(got, _oracle(rep, g, f))
