import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgaplab as pg
from pgaplab.errors import ValidationError, ZeroFunctional
from pgaplab.lpspace import (
    conjugate_exponent,
    power_norm,
    row_power_norms,
    vector_from_bytes,
    vector_from_csv,
    vector_to_bytes,
    vector_to_csv,
)

from conftest import embed


@pytest.fixture(scope="module")
def ball8():
    return pg.full_ball(pg.cyclic_group(8))


def test_norm_euclidean(ball8):
    f = embed(ball8, [3.0, -4.0])
    assert power_norm(f, 2.0) == pytest.approx(5.0, abs=1e-14)


def test_norm_p4(ball8):
    f = embed(ball8, [1.0, 1.0, 1.0, 1.0])
    assert power_norm(f, 4.0) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_norm_zero(ball8):
    assert power_norm(np.zeros(ball8.size), 2.0) == 0.0


def test_dual_norm_values(ball8):
    g = embed(ball8, [1.0, 1.0])
    assert power_norm(g, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    g = embed(ball8, [1.0, -1.0])
    assert power_norm(g, 1.5) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-14)
    assert power_norm(np.zeros(8), 1.5) == 0.0


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    with pytest.raises(ValidationError):
        conjugate_exponent(1.0)


def test_duality_map_hilbert(ball8):
    f = embed(ball8, [3.0, -4.0])
    j = pg.duality_map(f, 2.0)
    assert np.allclose(j[:2], [0.6, -0.8], atol=1e-14)
    assert np.all(j[2:] == 0.0)


def test_duality_map_p3(ball8):
    f = embed(ball8, [1.0, -1.0])
    j = pg.duality_map(f, 3.0)
    expected = 2.0 ** (-2.0 / 3.0)
    assert np.allclose(j[:2], [expected, -expected], atol=1e-14)
    assert np.dot(j, f) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert np.dot(j, f) == pytest.approx(power_norm(f, 3.0), abs=1e-12)
    assert power_norm(j, 1.5) == pytest.approx(1.0, abs=1e-12)


def test_duality_map_of_zero_is_zero_functional(ball8):
    j = pg.duality_map(np.zeros(ball8.size), 2.5)
    assert j.shape == (ball8.size,) and not j.any()


def test_norming_vector_hilbert(ball8):
    u = pg.norming_vector(embed(ball8, [1.0, 1.0]), 2.0)
    assert np.allclose(u[:2], [1 / np.sqrt(2)] * 2, atol=1e-14)


def test_norming_vector_attains_dual_norm(ball8):
    g = embed(ball8, [1.0, -1.0])
    u = pg.norming_vector(g, 1.5)
    assert power_norm(u, 3.0) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(g, u) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)


def test_norming_vector_single_support(ball8):
    for t in (2.5, -0.3):
        u = pg.norming_vector(embed(ball8, [t]), 1.25)
        assert u[0] == pytest.approx(np.sign(t), abs=1e-14)
        assert np.all(u[1:] == 0.0)


def test_norming_vector_zero_raises(ball8):
    with pytest.raises(ZeroFunctional):
        pg.norming_vector(np.zeros(8), 2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_support_functional_identities_bulk(ball8, p):
    # 10^4 random vectors per exponent; identities hold to 1e-9
    rng = np.random.default_rng(42)
    q = conjugate_exponent(p)
    worst_val = 0.0
    worst_unit = 0.0
    for _ in range(10_000):
        f = rng.standard_normal(ball8.size)
        j = pg.duality_map(f, p)
        worst_val = max(worst_val, abs(np.dot(j, f) - power_norm(f, p)))
        worst_unit = max(worst_unit, abs(power_norm(j, q) - 1.0))
    assert worst_val <= 1e-9
    assert worst_unit <= 1e-9


def test_holder_on_random_pairs(ball8):
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0):
        q = conjugate_exponent(p)
        for _ in range(200):
            f = rng.standard_normal(8)
            g = rng.standard_normal(8)
            assert abs(np.dot(g, f)) <= power_norm(g, q) * power_norm(f, p) + 1e-12


# coordinates that stay normal floats after scaling by t in [0.01, 100]: a
# subnormal one loses relative precision, and 5e-324 * 0.5 rounds to 0
scalable_coords = st.floats(-100, 100, allow_subnormal=False).filter(lambda x: x == 0.0 or abs(x) >= 1e-300)


@settings(max_examples=150, deadline=None)
@given(
    coords=st.lists(scalable_coords, min_size=8, max_size=8),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    t=st.floats(0.01, 100.0),
)
def test_duality_map_scale_invariant(coords, p, t):
    f = np.array(coords)
    if power_norm(f, p) == 0.0:
        return
    j1 = pg.duality_map(f, p)
    j2 = pg.duality_map(t * f, p)
    assert np.abs(j1 - j2).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    coords=st.lists(st.floats(-50, 50), min_size=8, max_size=8),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_duality_round_trip(coords, p):
    f = np.array(coords)
    nf = power_norm(f, p)
    if nf < 1e-6:
        return
    u = pg.norming_vector(pg.duality_map(f, p), conjugate_exponent(p))
    assert power_norm(u - (1.0 / nf) * f, p) <= 1e-10


def test_csv_round_trip(ball8, tmp_path):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(8)
    path = tmp_path / "vec.csv"
    vector_to_csv(f, path)
    g = vector_from_csv(ball8, path)
    assert g.dtype == np.float64 and (g == f).all()


def test_binary_round_trip(ball8):
    rng = np.random.default_rng(4)
    f = rng.standard_normal(8)
    blob = vector_to_bytes(f)
    assert blob[:8] == (8).to_bytes(8, "little")
    g = vector_from_bytes(ball8, blob)
    assert (g == f).all()


def test_readers_reject_a_wrong_length(ball8, tmp_path):
    with pytest.raises(ValidationError, match="does not match ball size"):
        vector_from_bytes(ball8, vector_to_bytes(np.zeros(7)))
    path = tmp_path / "vec.csv"
    path.write_text("8,1.0\n")
    with pytest.raises(ValidationError, match="outside ball"):
        vector_from_csv(ball8, path)


def test_csv_reader_rejects_a_repeated_index(ball8, tmp_path):
    path = tmp_path / "vec.csv"
    path.write_text("0,1.0\n1,-1.0\n\n0,5.0\n")
    with pytest.raises(ValidationError, match="line 4: index 0 repeats line 1"):
        vector_from_csv(ball8, path)


def test_nonfinite_entries_rejected(ball8, tmp_path):
    reps = [pg.Representation(ball8, 2.0), pg.Representation(pg.ball(pg.free_group(2), 2), 2.0)]
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros(8)
        vals[3] = bad
        path = tmp_path / "vec.csv"
        vector_to_csv(vals, path)
        with pytest.raises(ValidationError, match="line 4: value .* is not finite"):
            vector_from_csv(ball8, path)
        with pytest.raises(ValidationError, match="must be finite"):
            vector_from_bytes(ball8, vector_to_bytes(vals))
        for rep in reps:
            vals = np.zeros(rep.ball.size)
            vals[0] = bad  # inside the dirichlet support, so only finiteness fails
            with pytest.raises(ValidationError, match="finite"):
                rep.check_admissible(vals)


def test_check_admissible_rejects_a_wrong_shape(ball8):
    rep = pg.Representation(ball8, 2.0)
    for shape in [(7,), (9,), (1, 8), ()]:
        with pytest.raises(ValidationError, match="does not match ball size"):
            rep.check_admissible(np.zeros(shape))
    rep.check_admissible(np.zeros(8))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e300])
def test_row_power_norms_equal_power_norm_bit_for_bit(p, n, scale):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((5, n)) * scale
    rows[1] = 0.0
    rows[3, : n // 2] = 0.0
    got = row_power_norms(rows, p)
    assert got.shape == (5,)
    assert got[1] == 0.0
    assert [float(x) for x in got] == [power_norm(row, p) for row in rows]


def test_row_power_norms_all_zero_and_empty():
    assert list(row_power_norms(np.zeros((3, 4)), 2.0)) == [0.0, 0.0, 0.0]
    assert row_power_norms(np.zeros((0, 4)), 2.0).shape == (0,)


def _reference_power_norm(values, p):
    """power_norm as a max pass, a sorted copy and out-of-place powers."""
    a = np.abs(values)
    m = float(a.max(initial=0.0))
    if m == 0.0:
        return 0.0
    a = np.sort(a)
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


def _reference_row_power_norms(rows, p):
    a = np.abs(rows)
    m = a.max(axis=1, initial=0.0)
    out = np.zeros(len(a))
    live = np.nonzero(m)[0]
    if live.size:
        scale = m[live]
        sums = np.sum((np.sort(a[live], axis=1) / scale[:, None]) ** p, axis=1)
        out[live] = [mk * float(sk ** (1.0 / p)) for mk, sk in zip(scale, sums)]
    return out


def _same_bits(got, want):
    """Equal entries, or NaN in both."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all((got == want) | (np.isnan(got) & np.isnan(want))))


_exponents = st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.05, 8.0))
_specials = st.sampled_from([0.0, -0.0, 5e-324, -3e-310, 2.2250738585072014e-308, np.inf, -np.inf, np.nan])


@st.composite
def _blocks(draw):
    """A (K, n) block at a scale from 1e-300 to 1e300, with zero entries,
    zero rows, a few subnormal, infinite or NaN entries, in C or F order."""
    k, n = draw(st.integers(0, 6)), draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.standard_normal((k, n)) * 10.0 ** draw(st.integers(-300, 300))
    block[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    if k and n:
        for row in draw(st.lists(st.integers(0, k - 1), max_size=3)):
            block[row] = 0.0
        for i, j, x in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1), _specials), max_size=3)):
            block[i, j] = x
    return np.asfortranarray(block) if draw(st.booleans()) else block


@settings(max_examples=200, deadline=None)
@given(_blocks(), _exponents)
def test_norm_kernels_match_the_reference_formulas_bit_for_bit(block, p):
    with np.errstate(invalid="ignore"):  # inf / inf in a row with an infinite entry
        assert _same_bits(row_power_norms(block, p), _reference_row_power_norms(block, p))
        for row in block:
            assert _same_bits(power_norm(row, p), _reference_power_norm(row, p))
        assert _same_bits(power_norm(block.ravel(), p), _reference_power_norm(block.ravel(), p))


@settings(deadline=None)
@given(st.lists(st.integers(-(10**6), 10**6), max_size=40), _exponents)
def test_norm_kernels_take_lists_and_integer_arrays(ints, p):
    want = _reference_power_norm(ints, p)
    assert _same_bits(power_norm(ints, p), want)
    assert _same_bits(power_norm(np.array(ints, dtype=np.int64), p), want)
    rows = np.array([ints, ints[::-1]], dtype=np.int64).reshape(2, len(ints))
    assert _same_bits(row_power_norms(rows, p), _reference_row_power_norms(rows, p))


def test_norm_kernels_on_empty_input():
    for p in (1.5, 3.0):
        assert power_norm(np.zeros(0), p) == power_norm([], p) == 0.0
        assert list(row_power_norms(np.zeros((3, 0)), p)) == [0.0, 0.0, 0.0]
        assert row_power_norms(np.zeros((0, 0)), p).shape == (0,)
