import functools
import itertools

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
from pgaplab import lpspace
from pgaplab.errors import InfiniteGroup, SupportViolation, ValidationError
from pgaplab.lpspace import conjugate_exponent, power_norm

from conftest import generator_differences, unit_vector


@pytest.fixture(scope="module")
def rep_c3():
    return pg.Representation(pg.full_ball(pg.cyclic_group(3)), 2.0)


@pytest.fixture(scope="module")
def rep_free():
    return pg.Representation(pg.ball(pg.free_group(2), 3), 2.0)


def test_regular_action_permutes_basis(rep_c3):
    b = rep_c3.ball
    de = pg.delta(b, b.locate(0))
    out = rep_c3.apply(1, de)  # generator s
    assert out[b.locate(1)] == 1.0
    assert power_norm(out, 2.0) == power_norm(de, 2.0)


def test_identity_element_acts_trivially(rep_c3):
    rng = np.random.default_rng(0)
    v = rep_c3.random_admissible(rng)
    out = rep_c3.apply(0, v)  # the element 0 is the identity of cyclic(3)
    assert (out == v).all()


def test_free_group_shift_preserves_norm(rep_free):
    b = rep_free.ball
    de = pg.delta(b, b.locate(()))
    out = rep_free.apply_generator(0, de)  # generator a
    assert out[b.locate((1,))] == 1.0
    assert power_norm(out, 2.0) == power_norm(de, 2.0)


def test_isometry_and_inverse_composition(rep_free):
    rng = np.random.default_rng(1)
    v = rep_free.random_admissible(rng)
    for k in range(rep_free.handle.n_generators):
        ki = int(rep_free.handle.inverse_index[k])
        moved = rep_free.apply_generator(k, v)
        assert power_norm(moved, 2.0) == power_norm(v, 2.0)  # exact: permutation + sorted summation
        back = rep_free.apply_generator(ki, moved, check=False)
        assert (back == v).all()


def test_support_violation_in_dirichlet_mode(rep_free):
    vals = np.zeros(rep_free.ball.size)
    vals[-1] = 1.0  # deepest element has depth R
    with pytest.raises(SupportViolation):
        rep_free.apply_generator(0, vals)
    with pytest.raises(SupportViolation):
        pg.coboundary(rep_free, vals)


def test_coboundary_of_constant_vanishes(rep_c3):
    c = pg.coboundary(rep_c3, np.ones(3))
    assert np.array_equal(c.values, np.zeros((2, 3)))


def test_coboundary_of_delta(rep_c3):
    b = rep_c3.ball
    de = pg.delta(b, b.locate(0))
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
    assert power_norm(c.extend([]), 2.0) == 0.0


def test_extend_cancelling_word_is_zero(rep_c3):
    rng = np.random.default_rng(4)
    c = pg.coboundary(rep_c3, rep_c3.random_admissible(rng))
    for k in range(rep_c3.handle.n_generators):
        ki = int(rep_c3.handle.inverse_index[k])
        assert power_norm(c.extend([k, ki]), 2.0) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_extension_of_coboundary_matches_direct_evaluation(seed):
    rng = np.random.default_rng(seed)
    h = pg.symmetric_group(3)
    rep = pg.Representation(pg.full_ball(h), 2.0)
    v = rep.random_admissible(rng)
    c = pg.coboundary(rep, v)
    word = [int(rng.integers(h.n_generators)) for _ in range(6)]
    lhs = c.extend(word)
    moved = v
    for k in reversed(word):
        moved = rep.apply_generator(k, moved, check=False)
    assert power_norm(lhs - (moved - v), 2.0) <= 1e-12


def test_extend_all_matches_words(rep_c3):
    rng = np.random.default_rng(5)
    v = rep_c3.random_admissible(rng)
    c = pg.coboundary(rep_c3, v)
    ext = extend_all(c)
    assert ext.shape == (rep_c3.ball.size, rep_c3.ball.size)
    for i in range(rep_c3.ball.size):
        assert power_norm(ext[i] - c.extend(rep_c3.ball.word_for(i)), 2.0) <= 1e-12


def test_cocycle_validation_accepts_coboundaries(rep_c3):
    rng = np.random.default_rng(6)
    c = pg.coboundary(rep_c3, rep_c3.random_admissible(rng))
    report = validate_cocycle(c)
    assert report["ok"]
    assert report["maxResidual"] <= 1e-12


@pytest.mark.parametrize("max_pairs", [20000, 10])
def test_cocycle_validation_checks_all_or_sampled_pairs(max_pairs):
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 2.5)
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
        Cocycle.from_generator_values(rep_c3, {"s^1": pg.delta(b, 0)})


def test_cocycle_from_values_accepts_consistent_assignment(rep_c3):
    b = rep_c3.ball
    vals = pg.delta(b, 0) - 1.0 / 3.0
    c = Cocycle.from_generator_values(rep_c3, {"s^1": vals})
    assert validate_cocycle(c)["ok"]


@pytest.mark.parametrize("key", [-1, 4, "c"])
def test_cocycle_from_values_rejects_unknown_generator(rep_free, key):
    v = rep_free.admissible_mask.astype(float)
    with pytest.raises(ValidationError, match="generator"):
        Cocycle.from_generator_values(rep_free, {0: v, 2: v, key: v})


def test_free_group_assignment_is_unconstrained(rep_free):
    rng = np.random.default_rng(7)
    b = rep_free.ball
    mask = rep_free.admissible_mask
    make = lambda: np.where(mask, rng.standard_normal(b.size), 0.0)
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
        image = rep_free.apply_generator(ki, c.values[k], check=False)
        resid = power_norm(c.values[ki] + image, 2.0)
        assert resid <= 1e-12
        worst = max(worst, resid)
    assert inverse_law_residual(c) == worst


def test_cohomology_dims_cyclic3(rep_c3):
    dims = pg.cohomology_dims(rep_c3)
    assert dims == {"dimZ1": 2, "dimB1": 2, "dimH1": 0}


def test_cohomology_dims_sym3():
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(3)), 2.0)
    dims = pg.cohomology_dims(rep)
    assert dims["dimH1"] == 0
    assert dims["dimB1"] == 5  # |G| - 1


def test_cohomology_dims_trivial_group():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(1)), 2.0)
    assert pg.cohomology_dims(rep) == {"dimZ1": 0, "dimB1": 0, "dimH1": 0}


def test_cohomology_requires_finite_group(rep_free):
    with pytest.raises(InfiniteGroup):
        pg.cohomology_dims(rep_free)


def test_potential_recovery_least_squares():
    rng = np.random.default_rng(9)
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(6)), 2.0)
    f0 = rep.random_admissible(rng, mean_zero=True)
    c = pg.coboundary(rep, f0)
    f_rec, resid = potential_from_cocycle(c)
    assert resid <= 1e-9
    assert power_norm(f_rec - f0, 2.0) <= 1e-9  # mean-zero representative recovered


def test_mean_zero_projection(cyclic4):
    dom = MeanZeroDomain(pg.Representation(cyclic4, 2.0))
    assert power_norm(dom.project(np.ones(4)), 2.0) == 0.0
    de = pg.delta(cyclic4, 0)
    proj = dom.project(de)
    assert np.allclose(proj, de - 0.25)
    again = dom.project(proj)
    assert power_norm(again - proj, 2.0) <= 1e-15


def test_mean_zero_subspace_invariant(cyclic4):
    rep = pg.Representation(cyclic4, 2.0)
    rng = np.random.default_rng(10)
    v = rep.random_admissible(rng, mean_zero=True)
    for k in range(rep.handle.n_generators):
        moved = rep.apply_generator(k, v)
        assert abs(moved.sum()) <= 1e-12


def test_affine_action_fixed_point():
    rng = np.random.default_rng(11)
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(5)), 2.0)
    f0 = unit_vector(rep, rng, mean_zero=True)
    act = pg.AffineAction.from_potential(rep, f0)
    fixed = -1.0 * f0
    for k in range(rep.handle.n_generators):
        assert power_norm(act.apply(k, fixed) - fixed, 2.0) <= 1e-12


def test_affine_action_potential_mismatch_rejected():
    rng = np.random.default_rng(12)
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(5)), 2.0)
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
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 3.0)
    f0 = rep.random_admissible(np.random.default_rng(13))
    built = []
    original = lpspace.LpVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(lpspace.LpVector, "__post_init__", counting)
    c = pg.coboundary(rep, f0)
    act = pg.AffineAction.from_potential(rep, f0)
    pg.cocycle_norm(c, 2.0)
    assert built == []
    assert np.array_equal(act.cocycle.values, c.values)


def test_domain_projections(rep_free):
    dom = default_domain(rep_free)
    assert isinstance(dom, DirichletDomain)
    vals = np.ones(rep_free.ball.size)
    proj = dom.project(vals)
    assert (proj[~rep_free.admissible_mask] == 0.0).all()

    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 2.0)
    mz = default_domain(rep)
    assert isinstance(mz, MeanZeroDomain)
    assert abs(mz.project(np.arange(4.0)).sum()) <= 1e-12


def test_mean_zero_dual_restriction_q2():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 2.0)
    dom = MeanZeroDomain(rep)
    xi = np.array([3.0, 1.0, 1.0, 1.0])
    r = dom.restrict_dual(xi)
    assert abs(r.sum()) <= 1e-12
    assert power_norm(r, 2.0) <= power_norm(xi, 2.0)


def test_mean_zero_dual_restriction_general_q():
    # restricted functional must dominate the pairing on mean-zero vectors
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(6)), 3.0)
    dom = MeanZeroDomain(rep)
    rng = np.random.default_rng(13)
    xi = rng.standard_normal(6)
    r = dom.restrict_dual(xi)
    u = pg.norming_vector(r, 1.5)
    assert abs(u.sum()) <= 1e-9  # attaining direction is mean-zero
    assert np.dot(xi, u) == pytest.approx(power_norm(r, 1.5), abs=1e-9)


@functools.lru_cache
def _mean_zero24(q):
    """The mean-zero domain of symmetric(4) whose dual exponent is q."""
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), conjugate_exponent(q))
    assert conjugate_exponent(rep.p) == q
    return MeanZeroDomain(rep)


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0])
def test_mean_zero_dual_restriction_is_scale_free(q):
    # near a fixed point every dual entry is tiny; the shift must scale with them
    dom = _mean_zero24(q)
    xi = np.random.default_rng(21).standard_normal(24)
    base = dom.restrict_dual(xi)
    for t in (1e-13, 1e-6, 1.0, 1e6):
        got = dom.restrict_dual(t * xi)
        assert np.max(np.abs(got - t * base)) <= 1e-12 * t * np.max(np.abs(base))


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("seed", range(5))
def test_mean_zero_dual_restriction_solves_optimality(q, seed):
    # the shift c is a root of sum psi(x - c), psi(t) = sign(t)|t|^(q-1), up to
    # what one ulp of c and the rounding of the sum can move it
    dom = _mean_zero24(q)
    x = np.random.default_rng(seed).standard_normal(24) * 10.0 ** (3 * seed - 6)
    d = dom.restrict_dual(x)
    c = float(np.mean(x - d))
    residual = abs(np.sum(np.sign(d) * np.abs(d) ** (q - 1.0)))
    slope = (q - 1.0) * np.sum(np.abs(d) ** (q - 2.0))
    rounding = slope * np.spacing(c) + d.size * np.finfo(float).eps * np.sum(np.abs(d) ** (q - 1.0))
    assert residual <= 4.0 * rounding


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0])
def test_mean_zero_dual_restriction_beats_bounded_brent(q):
    from scipy.optimize import minimize_scalar

    dom = _mean_zero24(q)
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
            ours = power_norm(dom.restrict_dual(x), q)
            # both may sit at the minimum, where their norms differ by rounding
            assert ours <= brent * (1.0 + 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
def test_mean_zero_dual_restriction_of_a_constant_is_zero(q):
    r = _mean_zero24(q).restrict_dual(np.full(24, -0.75))
    assert np.array_equal(r, np.zeros(24))


def test_mean_zero_dual_restriction_q2_subtracts_the_mean():
    vals = np.random.default_rng(23).standard_normal(24) * 1e-9
    r = _mean_zero24(2.0).restrict_dual(vals)
    assert np.array_equal(r, vals - vals.mean())


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
        rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.5)
    else:
        rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 2.5)
    h, b = rep.handle, rep.ball
    rng = np.random.default_rng(3)
    f = rng.standard_normal(b.size)  # mass on the boundary layer too
    assert (b.depth == b.radius).any() and np.all(f[b.depth == b.radius] != 0.0)
    want = np.array([_oracle(rep, g, f) for g in h.generators])

    assert np.array_equal(rep.apply_array(slice(None), f), want)
    for k in range(h.n_generators):
        assert np.array_equal(rep.apply_array(k, f), want[k])
        image = rep.apply_generator(k, f, check=False)
        assert np.array_equal(image, want[k])
    # a 2-D argument: row j is acted on by the j-th selected generator
    rows = rng.standard_normal((h.n_generators, b.size))
    stacked = rep.apply_array(h.inverse_index, rows)
    for k in range(h.n_generators):
        assert np.array_equal(stacked[k], _oracle(rep, h.generators[h.inverse_index[k]], rows[k]))

    c = Cocycle(rep, rng.standard_normal((h.n_generators, b.size)))
    act = pg.AffineAction(rep, c)
    assert np.array_equal(act.displacements(f), want - f + c.values)
    assert np.array_equal(pg.AffineAction.linear(rep).displacements(f), want - f)

    mk = pg.markov_operator(rep, f)
    assert np.allclose(mk, rep.weights @ want, rtol=0, atol=1e-14)

    if rep.mode == "full":
        for i in (0, 7, 13, 23):
            g = b.elements[i]
            got = rep.apply(g, f)
            assert np.array_equal(got, _oracle(rep, g, f))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_fixed_point_distance_minimises_over_the_constants_in_full_mode(p):
    from scipy.optimize import minimize_scalar

    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), p)
    rng = np.random.default_rng(7)
    f0 = rng.standard_normal(24)
    f0 -= f0.mean()
    action = pg.AffineAction.from_potential(rep, f0)
    v = -f0 + 0.3 + rng.standard_normal(24) * 1e-2
    offset = v + f0
    best = minimize_scalar(
        lambda c: power_norm(offset - c, p),
        bounds=(offset.min(), offset.max()),
        method="bounded",
        options={"xatol": 1e-13},
    )
    assert action.fixed_point_distance(v) == pytest.approx(best.fun, rel=1e-12)
    # the terminal's mean is not the best shift at p != 2
    assert action.fixed_point_distance(v) < power_norm(offset - offset.mean(), p)


def test_fixed_point_distance_of_a_basis_vector():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 3.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    action = pg.AffineAction.from_potential(rep, np.zeros(4))
    # min_c (|1 - c|^3 + 3|c|^3)^(1/3), at c = 1/(1 + sqrt 3); |x - mean(x)|_3 reads 0.777
    assert action.fixed_point_distance(x) == pytest.approx(0.738, abs=5e-4)
    assert power_norm(x - x.mean(), 3.0) == pytest.approx(0.777, abs=5e-4)
    dirichlet = pg.Representation(pg.ball(pg.free_group(2), 2), 3.0)
    f0 = np.zeros(dirichlet.ball.size)
    f0[0] = 0.5
    assert pg.AffineAction.from_potential(dirichlet, f0).fixed_point_distance(np.zeros_like(f0)) == 0.5


def _symmetric3_table():
    # the multiplication table of S_3, permutations in lexicographic order,
    # so that element 0 is the identity
    perms = list(itertools.permutations(range(3)))
    index = {perm: i for i, perm in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms]


def _invariant_dimension(domain):
    """The dimension of the vectors of the domain that every generator
    fixes, by a dense null space: v = Z c is invariant when (P_k - 1) Z c = 0
    for every k (`generator_differences`)."""
    Z, D = generator_differences(domain)
    return Z.shape[1] - np.linalg.matrix_rank(D.reshape(-1, Z.shape[1]))


def _finite_cases():
    for name, handle in (
        ("cyclic(6)", pg.cyclic_group(6)),
        ("dihedral(4)", pg.dihedral_group(4)),
        ("symmetric(3)", pg.symmetric_group(3)),
        ("table S3", pg.table_group(_symmetric3_table(), generators=[1, 2])),
    ):
        diameter = pg.full_ball(handle).radius
        for radius in (1, diameter, diameter + 2):
            yield pytest.param(handle, radius, id=f"{name}-R{radius}")


def _infinite_cases():
    for name, handle in (("free(2)", pg.free_group(2)), ("integer_lattice(2)", pg.integer_lattice(2))):
        for radius in (1, 2, 3):
            yield pytest.param(handle, radius, id=f"{name}-R{radius}")


@pytest.mark.parametrize("handle, radius", [*_finite_cases(), *_infinite_cases()])
def test_default_domain_holds_no_invariant_vector(handle, radius):
    # the ball alone fixes the representation's mode and its space, so the
    # gap estimators need no run-time check for invariant vectors
    rep = pg.Representation(pg.ball(handle, radius), 2.0)
    domain = default_domain(rep)
    assert rep.mode == ("full" if rep.ball.is_full else "dirichlet")
    assert domain.dimension > 0
    assert _invariant_dimension(domain) == 0
