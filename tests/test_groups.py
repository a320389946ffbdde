import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgaplab as pg
from pgaplab.errors import (
    BadWeights,
    BallTooLarge,
    NotAGroup,
    ValidationError,
)
from pgaplab.groups import (
    OUT_OF_BALL,
    GroupSpec,
    _first_occurrences,
    _free_mul,
    _free_reduce,
    check_ball_invariants,
    free_ball_size,
)


def test_cyclic_generators_closed_under_inversion():
    h = pg.cyclic_group(4, generators=[1, 3], weights=[0.5, 0.5])
    assert h.n_generators == 2
    assert set(h.generators) == {1, 3}


def test_cyclic2_involution_weight_one():
    h = pg.cyclic_group(2, generators=[1], weights=[1.0])
    assert h.generators == (1,)
    assert h.weights.tolist() == [1.0]
    assert pg.check_symmetry(h).ok


def test_free_group_reduction():
    h = pg.free_group(2)
    a, a_inv = (1,), (-1,)
    assert h.multiply(a, a_inv) == ()
    assert h.multiply((1, 2), (-2,)) == (1,)
    assert h.invert((1, -2)) == (2, -1)
    # key reduces and validates outside words
    assert h.key([1, 2, -2, -1, 2]) == (2,)
    for bad in [(3,), (0, 1)]:
        with pytest.raises(ValidationError):
            h.key(bad)


def test_auto_closure_adds_inverse():
    with pytest.warns(UserWarning, match="normalizing"):
        h = pg.cyclic_group(4, generators=[1], weights=[1.0])
    assert set(h.generators) == {1, 3}
    assert np.allclose(h.weights, [0.5, 0.5])


def test_bad_weights():
    with pytest.raises(BadWeights):
        pg.cyclic_group(4, generators=[1, 3], weights=[0.7, 0.3])
    with pytest.raises(BadWeights):
        pg.cyclic_group(4, generators=[1, 3], weights=[-0.5, 1.5])


def test_weight_total_that_overflows_is_rejected():
    # each weight is finite, but their sum is not: normalizing by it made [0, 0]
    with pytest.raises(BadWeights, match=r"\[1e\+308, 1e\+308\] sum to inf"):
        pg.cyclic_group(4, generators=[1, 3], weights=[1e308, 1e308])


def test_weight_normalization_warns():
    with pytest.warns(UserWarning):
        h = pg.cyclic_group(4, generators=[1, 3], weights=[2.0, 2.0])
    assert np.isclose(h.weights.sum(), 1.0)


def test_near_symmetric_weights_become_one_weight_per_pair():
    # within build_group's 1e-12 relative tolerance, but 5e-13 apart after
    # normalizing: each pair now carries the mean of its two weights
    with pytest.warns(UserWarning, match="normalizing"):
        h = pg.cyclic_group(8, generators=[1, 7], weights=[1e-3, 1.0000000005e-3])
    assert h.weights[0].tobytes() == h.weights[1].tobytes()
    assert h.weights.sum() == 1.0
    assert pg.check_symmetry(h).ok


def test_symmetric_weights_keep_their_bits():
    weights = [0.1, 0.1, 0.3, 0.3, 0.3]
    with pytest.warns(UserWarning, match="normalizing"):
        h = pg.cyclic_group(8, generators=[1, 7, 2, 6, 4], weights=weights)
    assert h.weights.tolist() == [w / sum(weights) for w in weights]


@pytest.mark.parametrize(
    "handle",
    [
        pg.cyclic_group(2, generators=[1], weights=[1.0]),
        pg.cyclic_group(7, generators=[1, 3], weights=[0.25, 0.25]),
        pg.dihedral_group(5),
        pg.symmetric_group(4),
        pg.integer_lattice(3),
        pg.free_group(3),
        pg.free_group(2, generators=[[1], [1, 2]], weights=[0.25, 0.25]),
        pg.table_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], generators=[1], weights=[0.5]),
    ],
    ids=lambda h: h.label,
)
def test_inverse_index_pairs_each_generator_with_its_inverse(handle):
    inv = handle.inverse_index
    assert inv.dtype == np.int64
    assert inv[inv].tolist() == list(range(handle.n_generators))
    for k, g in enumerate(handle.generators):
        assert handle.generators[inv[k]] == handle.key(handle.invert(g))
        assert handle.weights[inv[k]] == handle.weights[k]


def test_check_symmetry_calls_neither_key_nor_invert():
    h = pg.free_group(3)
    calls = []

    def counted(f):
        return lambda *args: calls.append(f) or f(*args)

    h.key, h.invert = counted(h.key), counted(h.invert)
    assert pg.check_symmetry(h).ok
    assert calls == []


def test_check_symmetry_reads_the_recorded_pairing():
    h = pg.cyclic_group(4, generators=[1, 3, 2], weights=[0.25, 0.25, 0.5])
    assert pg.check_symmetry(h).ok
    lopsided = dataclasses.replace(h, weights=np.array([0.3, 0.2, 0.5]))
    report = pg.check_symmetry(lopsided)
    assert not report.ok
    assert report.asymmetric_pairs == [("s^1", "s^3", 0.3, 0.2)]
    unpaired = dataclasses.replace(h, inverse_index=np.array([1, 1, 2]))
    report = pg.check_symmetry(unpaired)
    assert not report.closed_under_inverse
    assert report.missing_inverses == ["s^1"]


def test_symmetric_group_transpositions_pass_symmetry():
    gens = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
    h = pg.symmetric_group(3, generators=gens, weights=[1 / 3] * 3)
    assert pg.check_symmetry(h).ok
    assert h.order == 6


@pytest.mark.parametrize("R,size", [(0, 1), (1, 5), (2, 17), (3, 53)])
def test_free2_ball_sizes(R, size):
    b = pg.ball(pg.free_group(2), R)
    assert b.size == size == free_ball_size(2, R)


@pytest.mark.parametrize("k", [2, 3])
def test_free_ball_formula_vs_enumeration(k):
    h = pg.free_group(k)
    for R in range(5 if k == 2 else 4):
        assert pg.ball(h, R).size == free_ball_size(k, R)


def test_free2_ball_formula_up_to_radius_six():
    h = pg.free_group(2)
    assert pg.ball(h, 6).size == free_ball_size(2, 6) == 2 * 3**6 - 1


def test_lattice_ball_growth():
    h = pg.integer_lattice(1)
    for R in range(7):
        assert pg.ball(h, R).size == 2 * R + 1


def test_cyclic5_ball_saturates():
    b = pg.ball(pg.cyclic_group(5), 2)
    assert b.size == 5
    assert b.is_full
    assert b.per_depth() == [1, 2, 2]


def test_radius_zero_single_element():
    for h in (pg.cyclic_group(7), pg.free_group(2), pg.integer_lattice(2)):
        b = pg.ball(h, 0)
        assert b.size == 1
        assert b.elements[0] == h.identity


def test_ball_invariants_clean():
    for h in (pg.free_group(2), pg.dihedral_group(4), pg.symmetric_group(3)):
        b = pg.ball(h, 3)
        assert check_ball_invariants(b) == []


def test_ball_invariants_catch_corruption():
    b = pg.ball(pg.free_group(2), 3)
    b.translate[0][0] = -1  # identity is interior, must never hit the sentinel
    problems = check_ball_invariants(b)
    assert problems
    assert "sentinel" in problems[0]


def test_ball_invariants_compare_the_table_with_the_oracle():
    # swap the numbers of two elements of one depth throughout the table:
    # it stays a consistent table of permutations, but of the wrong elements
    b = pg.full_ball(pg.symmetric_group(4))
    assert check_ball_invariants(b) == []
    i, j = np.flatnonzero(b.depth == 2)[:2]
    swap = np.arange(b.size)
    swap[[i, j]] = [j, i]
    b.translate = swap[b.translate][:, swap]
    assert check_ball_invariants(b) == [
        "translate((1 2)) at index 3 reads 4, but the product is 5",
        "translate((2 3)) at index 1 reads 5, but the product is 4",
        "translate((3 4)) at index 1 reads 4, but the product is 5",
    ]


def test_ball_invariants_look_sampled_products_up_without_key(monkeypatch):
    # a product of canonical elements is canonical: key runs only on the
    # identity and the 100 index entries it checks, not on 256 products
    b = pg.full_ball(pg.symmetric_group(5))
    calls = []
    original = b.handle.key

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(b.handle, "key", counting)
    assert check_ball_invariants(b) == []
    assert len(calls) <= 101


def test_translation_tables_are_permutations_when_full():
    b = pg.full_ball(pg.dihedral_group(5))
    n = b.size
    for k in range(b.handle.n_generators):
        assert sorted(b.translate[k].tolist()) == list(range(n))


def test_ball_cap():
    with pytest.raises(BallTooLarge):
        pg.ball(pg.free_group(2), 8, cap=1000)


@pytest.mark.parametrize(
    "make", [lambda: pg.free_group(2), lambda: pg.integer_lattice(2)], ids=["free2", "lattice2"]
)
def test_full_ball_of_infinite_group_stops_at_cap_in_small_memory(make):
    # full_ball asks for radius = cap; nothing may be sized by that radius
    h = make()
    tracemalloc.start()
    try:
        with pytest.raises(BallTooLarge):
            pg.full_ball(h, cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_groups_whose_int64_codes_could_overflow_are_rejected():
    # the largest accepted ones are reference-checked below
    for make in (pg.cyclic_group, pg.dihedral_group):
        with pytest.raises(ValidationError, match="'n' must lie in"):
            make(2**62 + 1)
    with pytest.raises(ValidationError, match="2\\*\\*32"):
        pg.integer_lattice(1, generators=[[2**32 + 1], [-(2**32) - 1]])


def test_bfs_prefix_property():
    h = pg.free_group(2)
    small = pg.ball(h, 2)
    big = pg.ball(h, 4)
    assert big.elements[: small.size] == small.elements


def test_word_reconstruction():
    b = pg.ball(pg.free_group(2), 4)
    h = b.handle
    for i in (0, 5, 17, 52):
        word = b.word_for(i)
        acc = h.identity
        for k in word:  # left-to-right product
            acc = h.multiply(acc, h.generators[k])
        assert h.key(acc) == b.elements[i]
        assert len(word) == b.depth[i]


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_table_group_roundtrip():
    h = pg.table_group(_cyclic_table(5), generators=[1, 4])
    b = pg.full_ball(h)
    assert b.size == 5
    assert h.invert(2) == 3


def test_table_not_square():
    with pytest.raises(NotAGroup):
        pg.table_group([[0, 1], [1]], generators=[1])


def test_table_without_identity():
    t = [[1, 0], [0, 1]]
    with pytest.raises(NotAGroup):
        pg.table_group(t, generators=[1])


def test_table_not_latin():
    t = _cyclic_table(3)
    t[1][1] = 1  # duplicate in row and column
    with pytest.raises(NotAGroup):
        pg.table_group(t, generators=[1])


def test_table_not_associative():
    # a Latin square with identity that is not a group (order-5 loop)
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup):
        pg.table_group(t, generators=[1, 2])


def test_table_from_csv(tmp_path):
    path = tmp_path / "c4.csv"
    path.write_text("\n".join(",".join(str(x) for x in row) for row in _cyclic_table(4)))
    h = pg.table_group(str(path), generators=[1, 3])
    assert pg.full_ball(h).size == 4


def test_group_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"family": "cyclic", "params": {"n": 6}, "radius": 2}')
    spec, radius = pg.load_group_spec(str(path))
    assert radius == 2
    h = pg.build_group(spec)
    assert h.order == 6


def test_group_spec_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        pg.load_group_spec({"family": "cyclic", "params": {"n": 3}, "bogus": 1})


def test_unknown_family():
    with pytest.raises(ValidationError):
        GroupSpec("quaternion", {"n": 8})


def test_dihedral_arithmetic():
    h = pg.dihedral_group(4)
    r, f = (1, 0), (0, 1)
    # f r f = r^-1
    assert h.multiply(h.multiply(f, r), f) == h.invert(r)
    assert h.invert(f) == f
    assert pg.full_ball(h).size == 8


def _counting(h):
    """Wrap h.multiply with a call counter; returns the counter list."""
    calls = [0]
    multiply = h.multiply

    def counted(a, b):
        calls[0] += 1
        return multiply(a, b)

    h.multiply = counted
    return calls


def _counting_key(h):
    """Wrap h.key with a call counter; returns the counter list."""
    calls = [0]
    key = h.key

    def counted(a):
        calls[0] += 1
        return key(a)

    h.key = counted
    return calls


@pytest.mark.parametrize(
    "make,R",
    [
        (lambda: pg.symmetric_group(5), 3),
        (lambda: pg.dihedral_group(6), 2),
        (lambda: pg.free_group(2), 4),
        (lambda: pg.integer_lattice(2), 3),
        (lambda: pg.table_group(_cyclic_table(6), generators=[1, 5]), 2),
    ],
    ids=["symmetric5", "dihedral6", "free2", "lattice2", "table6"],
)
def test_ball_calls_neither_multiply_nor_key(make, R):
    h = make()
    products, keys = _counting(h), _counting_key(h)
    balls = [pg.ball(h, R)] + ([pg.full_ball(h)] if h.order is not None else [])
    assert products[0] == keys[0] == 0
    for b in balls:
        # the elements are rebuilt on first read, one multiply each
        products[0] = 0
        assert len(b.elements) == b.size
        assert products[0] == b.size - 1
        assert keys[0] == 0


@pytest.mark.parametrize(
    "h",
    [
        pg.cyclic_group(7),
        pg.dihedral_group(5),
        pg.symmetric_group(4),
        pg.table_group(_cyclic_table(6), generators=[1, 5]),
    ],
    ids=["cyclic", "dihedral", "symmetric", "table"],
)
def test_full_ball_is_ball_at_diameter(h):
    full = pg.full_ball(h)
    diameter = int(full.depth.max())
    b = pg.ball(h, diameter)
    assert full.radius == b.radius == diameter
    assert full.elements == b.elements
    assert full.index == b.index
    for name in ("depth", "translate", "parent", "parent_gen"):
        assert np.array_equal(getattr(full, name), getattr(b, name)), name
    assert full.is_full and full.size == h.order


def _reference_ball(h, radius):
    """The BFS that passes every product through key: the element order,
    index and tables the ball must reproduce bit for bit."""
    elements = [h.identity]
    index = {h.key(h.identity): 0}
    depth, parent, parent_gen = [0], [-1], [-1]
    rows = [[] for _ in h.generators]
    frontier, r = [0], 0
    while frontier:
        nxt = []
        for i in frontier:
            for k, gen in enumerate(h.generators):
                x = h.key(h.multiply(gen, elements[i]))
                j = index.get(x, OUT_OF_BALL)
                if j == OUT_OF_BALL and r < radius:
                    j = index[x] = len(elements)
                    elements.append(x)
                    depth.append(r + 1)
                    parent.append(i)
                    parent_gen.append(k)
                    nxt.append(j)
                rows[k].append(j)
        frontier, r = nxt, r + 1
    return elements, index, depth, rows, parent, parent_gen, r - 1


# generators listed with their inverses, so no weight is renormalized
_FREE3_WORDS = [(1, 2), (-2, -1), (3,), (-3,)]
_FREE3_OVERLAP = [(1, 2), (-2, -1), (2, 3), (-3, -2), (1, -3), (3, -1)]


# a 3-cycle and a 5-cycle with their inverses: they generate A5, a ball
# that closes at half of S5
_S5_CYCLES = [(1, 2, 0, 3, 4), (2, 0, 1, 3, 4), (1, 2, 3, 4, 0), (4, 0, 1, 2, 3)]
_LATTICE3_DIAGONAL = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0), (-1, -1, 0)
]
# codes spread so far apart that a packed key would need 64 bits, so the
# ball is keyed by the bytes of its code rows
_LATTICE2_FAR = [(2**32, 0), (-(2**32), 0), (0, 2**32), (0, -(2**32)), (1, 1), (-1, -1)]


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(a[i] for i in b)) for b in perms] for a in perms]


@pytest.mark.parametrize(
    "make,R",
    [
        (lambda: pg.cyclic_group(7), 2),
        (lambda: pg.cyclic_group(7), None),
        (lambda: pg.dihedral_group(5), None),
        (lambda: pg.symmetric_group(5), 3),
        (lambda: pg.symmetric_group(5), None),
        (lambda: pg.integer_lattice(2), 4),
        (lambda: pg.free_group(2), 5),
        (lambda: pg.table_group(_s3_table(), generators=[1, 2]), None),
        (lambda: pg.free_group(3, generators=_FREE3_WORDS), 4),
        (lambda: pg.free_group(3, generators=_FREE3_OVERLAP), 3),
        (lambda: pg.symmetric_group(5, generators=_S5_CYCLES), None),
        (lambda: pg.integer_lattice(3, generators=_LATTICE3_DIAGONAL), 3),
        (lambda: pg.integer_lattice(2, generators=_LATTICE2_FAR), 3),
        (lambda: pg.dihedral_group(6), 2),
        (lambda: pg.symmetric_group(4), 0),
        (lambda: pg.cyclic_group(2**62), 3),
        (lambda: pg.dihedral_group(2**62), 2),
        (lambda: pg.integer_lattice(1, generators=[[2**32], [-(2**32)], [1], [-1]]), 3),
        (lambda: pg.free_group(1), 30),
        (lambda: pg.free_group(2), 7),
    ],
    ids=[
        "cyclic7-R2",
        "cyclic7-full",
        "dihedral5-full",
        "symmetric5-R3",
        "symmetric5-full",
        "lattice2-R4",
        "free2-R5",
        "table-s3-full",
        "free3-words-R4",
        "free3-overlap-R3",
        "symmetric5-cycles-full",
        "lattice3-diagonal-R3",
        "lattice2-far-R3",
        "dihedral6-R2",
        "symmetric4-R0",
        "cyclic-2^62-R3",
        "dihedral-2^62-R2",
        "lattice1-2^32-R3",
        "free1-R30",
        "free2-R7",
    ],
)
def test_ball_matches_keyed_reference_bfs(make, R):
    h = make()
    b = pg.full_ball(h) if R is None else pg.ball(h, R)
    elements, index, depth, rows, parent, parent_gen, deepest = _reference_ball(
        h, R if R is not None else 10**6
    )
    assert b.radius == (R if R is not None else deepest)
    # repr also tells an int from a numpy integer or a list from a tuple
    assert [repr(g) for g in b.elements] == [repr(g) for g in elements]
    assert list(b.index.items()) == list(index.items())
    assert b.depth.tolist() == depth
    assert b.translate.tolist() == rows
    assert b.translate.flags.c_contiguous
    assert b.parent.tolist() == parent
    assert b.parent_gen.tolist() == parent_gen


_reduced_words = st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=12).map(_free_reduce)


@settings(max_examples=300, deadline=None)
@given(_reduced_words, _reduced_words, st.integers(0, 12))
def test_junction_multiply_equals_full_reduction(a, c, cut):
    # b opens with the inverse of a suffix of a, so long cancellations occur
    suffix = a[len(a) - min(cut, len(a)) :]
    b = _free_reduce(tuple(-x for x in reversed(suffix)) + c)
    assert _free_mul(a, b) == _free_reduce(a + b)
    a_inv = tuple(-x for x in reversed(a))
    assert _free_mul(a, a_inv) == () == _free_mul(a_inv, a)
    assert _free_mul(a, ()) == a == _free_mul((), a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=30))
def test_first_occurrences_number_keys_like_a_dict(values):
    numbers = {}
    for x in values:
        numbers.setdefault(x, len(numbers))
    number, first = _first_occurrences(np.array(values, dtype=np.int64))
    assert number.tolist() == [numbers[x] for x in values]
    assert first.tolist() == [values.index(x) for x in numbers]


def test_locate_keys_outside_input_once():
    h = pg.free_group(2)
    b = pg.ball(h, 5)
    b.index  # built before counting
    calls = _counting_key(h)
    assert b.locate([1, 2, -2]) == b.index[(1,)]
    assert calls[0] == 1
