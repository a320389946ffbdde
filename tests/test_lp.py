import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgaplab as pg
from pgaplab.errors import ValidationError, ZeroFunctional
from pgaplab.lpspace import (
    DualVector,
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
    f = embed(ball8, [3.0, -4.0], 2.0)
    assert pg.norm_p(f) == pytest.approx(5.0, abs=1e-14)


def test_norm_p4(ball8):
    f = embed(ball8, [1.0, 1.0, 1.0, 1.0], 4.0)
    assert pg.norm_p(f) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_norm_zero(ball8):
    assert pg.zero_vector(ball8, 2.0).norm() == 0.0


def test_dual_norm_values(ball8):
    g = DualVector(ball8, np.concatenate([[1.0, 1.0], np.zeros(6)]), 2.0)
    assert pg.dual_norm_q(g) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    g = DualVector(ball8, np.concatenate([[1.0, -1.0], np.zeros(6)]), 1.5)
    assert pg.dual_norm_q(g) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-14)
    assert DualVector(ball8, np.zeros(8), 1.5).norm() == 0.0


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    with pytest.raises(ValidationError):
        conjugate_exponent(1.0)


def test_duality_map_hilbert(ball8):
    f = embed(ball8, [3.0, -4.0], 2.0)
    j = pg.duality_map(f)
    assert np.allclose(j.values[:2], [0.6, -0.8], atol=1e-14)
    assert np.all(j.values[2:] == 0.0)


def test_duality_map_p3(ball8):
    f = embed(ball8, [1.0, -1.0], 3.0)
    j = pg.duality_map(f)
    expected = 2.0 ** (-2.0 / 3.0)
    assert np.allclose(j.values[:2], [expected, -expected], atol=1e-14)
    assert pg.pair(j, f) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert pg.pair(j, f) == pytest.approx(f.norm(), abs=1e-12)
    assert j.norm() == pytest.approx(1.0, abs=1e-12)


def test_duality_map_of_zero_is_zero_functional(ball8):
    j = pg.duality_map(pg.zero_vector(ball8, 2.5))
    assert not j.values.any()


def test_norming_vector_hilbert(ball8):
    g = DualVector(ball8, np.concatenate([[1.0, 1.0], np.zeros(6)]), 2.0)
    u = pg.norming_vector(g)
    assert np.allclose(u.values[:2], [1 / np.sqrt(2)] * 2, atol=1e-14)


def test_norming_vector_attains_dual_norm(ball8):
    g = DualVector(ball8, np.concatenate([[1.0, -1.0], np.zeros(6)]), 1.5)
    u = pg.norming_vector(g)
    assert u.norm() == pytest.approx(1.0, abs=1e-12)
    assert pg.pair(g, u) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)


def test_norming_vector_single_support(ball8):
    for t in (2.5, -0.3):
        g = DualVector(ball8, np.concatenate([[t], np.zeros(7)]), 1.25)
        u = pg.norming_vector(g)
        assert u.values[0] == pytest.approx(np.sign(t), abs=1e-14)
        assert np.all(u.values[1:] == 0.0)


def test_norming_vector_zero_raises(ball8):
    with pytest.raises(ZeroFunctional):
        pg.norming_vector(DualVector(ball8, np.zeros(8), 2.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_support_functional_identities_bulk(ball8, p):
    # 10^4 random vectors per exponent; identities hold to 1e-9
    rng = np.random.default_rng(42)
    q = conjugate_exponent(p)
    worst_val = 0.0
    worst_unit = 0.0
    for _ in range(10_000):
        vals = rng.standard_normal(ball8.size)
        f = pg.LpVector(ball8, vals, p)
        j = pg.duality_map(f)
        worst_val = max(worst_val, abs(pg.pair(j, f) - f.norm()))
        worst_unit = max(worst_unit, abs(j.norm() - 1.0))
    assert worst_val <= 1e-9
    assert worst_unit <= 1e-9


def test_holder_on_random_pairs(ball8):
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0):
        for _ in range(200):
            f = pg.LpVector(ball8, rng.standard_normal(8), p)
            g = DualVector(ball8, rng.standard_normal(8), conjugate_exponent(p))
            assert abs(pg.pair(g, f)) <= g.norm() * f.norm() + 1e-12


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
    ball = test_duality_map_scale_invariant.ball
    f = pg.LpVector(ball, np.array(coords), p)
    if f.norm() == 0.0:
        return
    j1 = pg.duality_map(f)
    j2 = pg.duality_map(t * f)
    assert np.abs(j1.values - j2.values).max() <= 1e-12


test_duality_map_scale_invariant.ball = pg.full_ball(pg.cyclic_group(8))


@settings(max_examples=150, deadline=None)
@given(
    coords=st.lists(st.floats(-50, 50), min_size=8, max_size=8),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_duality_round_trip(coords, p):
    ball = test_duality_map_scale_invariant.ball
    f = pg.LpVector(ball, np.array(coords), p)
    if f.norm() < 1e-6:
        return
    u = pg.norming_vector(pg.duality_map(f))
    assert (u - (1.0 / f.norm()) * f).norm() <= 1e-10


def test_vectors_from_different_balls_never_combine(ball8):
    other = pg.full_ball(pg.cyclic_group(8))
    f = pg.zero_vector(ball8, 2.0)
    g = pg.zero_vector(other, 2.0)
    with pytest.raises(ValidationError):
        _ = f + g


def test_exponent_mismatch_rejected(ball8):
    f = pg.zero_vector(ball8, 2.0)
    g = pg.zero_vector(ball8, 3.0)
    with pytest.raises(ValidationError):
        _ = f + g


def test_pairing_requires_conjugate_exponents(ball8):
    f = pg.zero_vector(ball8, 2.0)
    g = DualVector(ball8, np.zeros(8), 1.5)
    with pytest.raises(ValidationError):
        pg.pair(g, f)


def test_csv_round_trip(ball8, tmp_path):
    rng = np.random.default_rng(3)
    f = pg.LpVector(ball8, rng.standard_normal(8), 2.0)
    path = tmp_path / "vec.csv"
    vector_to_csv(f, path)
    g = vector_from_csv(ball8, path, 2.0)
    assert (g.values == f.values).all()


def test_binary_round_trip(ball8):
    rng = np.random.default_rng(4)
    f = pg.LpVector(ball8, rng.standard_normal(8), 3.0)
    blob = vector_to_bytes(f)
    assert blob[:8] == (8).to_bytes(8, "little")
    g = vector_from_bytes(ball8, blob, 3.0)
    assert (g.values == f.values).all()


def test_nonfinite_entries_rejected(ball8):
    vals = np.zeros(8)
    vals[3] = np.nan
    with pytest.raises(ValidationError):
        pg.LpVector(ball8, vals, 2.0)


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
