"""Finitely generated groups as element oracles, and word-metric balls.

Groups enter through a small oracle interface (identity, multiply, invert,
canonical key) so that exact arithmetic is available for every supported
family: cyclic, dihedral, symmetric, integer lattices, free groups, and
explicit multiplication tables.  The word-metric ball of the Cayley graph
is enumerated breadth-first with a fixed generator order, which makes every
downstream artifact bit-reproducible.

Oracle contract: `multiply` maps two canonical elements to the canonical
element of their product, and `key` canonicalizes and validates outside
input (user generators, elements passed to `CayleyBall.locate` or
`Representation.apply`).  `build_group` keys the identity and every
generator, so every element rebuilt by multiplying canonical elements is
canonical by induction.  `multiply` and `key` are the exact oracle: the
ball's element list, `locate`, `check_ball_invariants` and the tests use
them, while the BFS that builds the ball calls neither.

The weighted generating set is symmetric by construction: `build_group`
closes it under inverses, records each generator's inverse in the
handle's `inverse_index`, and gives both members of each inverse pair one
weight.  It is the only code that computes `key(invert(g))`; everything
downstream (the adjoint, the closed-form slope, `check_symmetry`, the
BFS's two-layer lookup) reads `inverse_index` or relies on the pairing.

Element codes: each family also encodes its elements as rows of small
integers (a residue; a rotation and a flip; the image row of a
permutation; lattice coordinates; the letters of a reduced word, padded
with zeros to the longest word in the block; a table index) and multiplies
a whole block of rows on the left by one generator in numpy.  The ball is built on these codes one
BFS layer at a time: each row is packed into one integer key in a mixed
radix taken from the codes reached (or into its bytes when 63 bits cannot
hold that radix), and looked up with a sorted search.

The ball carries one translate table: translate[k, i] is the index of
generators[k] * elements[i], or OUT_OF_BALL when that product leaves the
ball.  The BFS fills it layer by layer while it enumerates; representations
on the ball read every generator operator from this table (see action.py).

Families: FAMILIES declares each family with one integer parameter
(cyclic, dihedral and symmetric take n, integer_lattice d, free k): the
parameter's name, its least and greatest value, and the builder that maps
the value to the family's oracle and default generating set.
`build_group` converts the parameter once, through `errors.integer`, and
labels the group with the converted value, as in "cyclic(4)".  The
`table` family takes an explicit multiplication table, inline or as a CSV
file, and needs explicit generators.  Every integer read from a spec
(parameter, generator coordinate, table entry) goes through
`errors.integer`, so a bad one is a ValidationError that names it.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import (
    BadWeights,
    BallTooLarge,
    NotAGroup,
    ValidationError,
    integer,
    number,
    read_json_object,
    read_text,
)

DEFAULT_BALL_CAP = 10**6
OUT_OF_BALL = -1
INVARIANT_SAMPLE = 64  # elements whose translate entries check_ball_invariants multiplies


# ---------------------------------------------------------------------------
# group specification


@dataclass
class GroupSpec:
    """Declarative description of a group plus its weighted generating set."""

    family: str
    params: dict
    generators: list | None = None
    weights: list | None = None

    def __post_init__(self):
        if self.family not in (*FAMILIES, "table"):
            raise ValidationError(f"unknown group family {self.family!r}")


def load_group_spec(source) -> tuple[GroupSpec, int | None]:
    """Read a GroupSpec (and optional radius) from a JSON file or dict."""
    data = read_json_object(source, "group spec") if isinstance(source, (str, Path)) else dict(source)
    allowed = {"family", "params", "generators", "weights", "radius"}
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"unknown group spec keys: {sorted(unknown)}")
    if "family" not in data:
        raise ValidationError("group spec needs a 'family' field")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"group spec 'params' must be an object, not {params!r}")
    spec = GroupSpec(
        family=data["family"],
        params=params,
        generators=data.get("generators"),
        weights=data.get("weights"),
    )
    return spec, data.get("radius")


# ---------------------------------------------------------------------------
# element arithmetic per family


def _perm_mul(a, b):
    # (a*b)(i) = a[b[i]]
    return tuple(map(a.__getitem__, b))


def _perm_inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _free_reduce(word):
    """Freely reduce any word, letter by letter (for `key` on outside input)."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _free_mul(a, b):
    # a and b are reduced, so letters cancel only where the two words meet
    n = min(len(a), len(b))
    i = 0
    while i < n and a[-1 - i] == -b[i]:
        i += 1
    return a[: len(a) - i] + b[i:]


_FREE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _free_name(word):
    if not word:
        return "e"
    parts = []
    for x in word:
        letter = _FREE_LETTERS[abs(x) - 1]
        parts.append(letter if x > 0 else letter + "^-1")
    return "*".join(parts)


def _perm_name(p):
    # cycle notation on 1-based points, fixed points omitted
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "e"


# ---------------------------------------------------------------------------
# handle


@dataclass
class GroupHandle:
    """Element oracle plus a canonicalized, inverse-closed weighted gen set.

    Built only by `build_group`, which pairs each generator with its
    inverse: generators[inverse_index[k]] is the inverse of generators[k],
    and the two carry the same weight.  `identity` and `generators` are
    canonical.  `multiply` of two canonical elements returns the canonical
    product, so code that only multiplies elements it already holds needs
    no `key`; `key` is for outside input, which it validates and reduces to
    canonical form.  `identity_code` is the identity's code row, and
    `left_multiply(k, X)` maps the (m, w) code rows X to the rows of
    generators[k] * X (the width may change for free groups).
    """

    family: str
    identity: Any
    multiply: Callable[[Any, Any], Any]
    invert: Callable[[Any], Any]
    key: Callable[[Any], Any]
    generators: tuple
    weights: np.ndarray
    names: tuple[str, ...]
    inverse_index: np.ndarray = field(repr=False)
    identity_code: np.ndarray = field(repr=False)
    left_multiply: Callable[[int, np.ndarray], np.ndarray] = field(repr=False)
    order: int | None = None  # |group| when finite and known a priori
    label: str = ""

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def min_weight(self) -> float:
        return float(self.weights.min())


@dataclass
class SymmetryReport:
    """Outcome of checking K = K^-1, weight symmetry and normalization."""

    closed_under_inverse: bool
    weight_sum: float
    asymmetric_pairs: list
    missing_inverses: list

    @property
    def ok(self) -> bool:
        return (
            self.closed_under_inverse
            and not self.asymmetric_pairs
            and abs(self.weight_sum - 1.0) <= 1e-12
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "closedUnderInverse": self.closed_under_inverse,
            "weightSum": self.weight_sum,
            "asymmetricPairs": self.asymmetric_pairs,
            "missingInverses": self.missing_inverses,
        }


def check_symmetry(handle: GroupHandle) -> SymmetryReport:
    """Check that inverse_index pairs the generators off (an involution),
    that both members of each pair carry the same weight, and that the
    weights sum to one; violations are listed rather than raised.  One pass
    over the handle's pairing: `build_group` makes all three hold, and this
    re-reads what it recorded without calling `key` or `invert`."""
    pairing, w, names = handle.inverse_index.tolist(), handle.weights, handle.names
    missing = []
    pairs = []
    for i, j in enumerate(pairing):
        if not (0 <= j < len(pairing) and pairing[j] == i):
            missing.append(names[i])
        elif i < j and w[i] != w[j]:
            pairs.append((names[i], names[j], float(w[i]), float(w[j])))
    return SymmetryReport(
        closed_under_inverse=not missing,
        weight_sum=float(handle.weights.sum()),
        asymmetric_pairs=pairs,
        missing_inverses=missing,
    )


# ---------------------------------------------------------------------------
# families


def _coordinates(a, what: str, length: int | None = None) -> tuple:
    """The integer coordinates of an outside element given as a list."""
    if not isinstance(a, (list, tuple)) or length is not None and len(a) != length:
        size = "a list of" if length is None else f"a list of {length}"
        raise ValidationError(f"{what} must be {size} integers, not {a!r}")
    return tuple(integer(x, f"{what} coordinate") for x in a)


def _rotations(n):
    # s and s^-1 of the cyclic group of order n, once each
    return sorted({1 % n, -1 % n})


def _cyclic(n):
    def coder(gens):
        g = np.array(gens, dtype=np.int64)
        return np.zeros(1, dtype=np.int64), lambda k, X: (X + g[k]) % n

    return (
        0,
        lambda a, b: (a + b) % n,
        lambda a: (-a) % n,
        lambda a: integer(a, "a cyclic element") % n,
        lambda a: "e" if a % n == 0 else f"s^{a % n}",
        n,
        _rotations(n),
        coder,
    )


def _dihedral(n):
    def mul(a, b):
        (x, s), (y, t) = a, b
        return ((x + y) % n if s == 0 else (x - y) % n, s ^ t)

    def inv(a):
        x, s = a
        return ((-x) % n, 0) if s == 0 else (x, 1)

    def key(a):
        x, s = _coordinates(a, "a dihedral element", 2)
        return (x % n, s % 2)

    def name(a):
        x, s = key(a)
        rot = "e" if x == 0 else (f"r^{x}" if x > 1 else "r")
        if s == 0:
            return rot
        return "f" if x == 0 else rot + "*f"

    def coder(gens):
        g = np.array(gens, dtype=np.int64)

        def left(k, X):
            x, s = g[k]
            out = np.empty_like(X)
            out[:, 0] = (x + X[:, 0] if s == 0 else x - X[:, 0]) % n
            out[:, 1] = X[:, 1] ^ s
            return out

        return np.zeros(2, dtype=np.int64), left

    return ((0, 0), mul, inv, key, name, 2 * n, [(x, 0) for x in _rotations(n)] + [(0, 1)], coder)


def _symmetric(n):
    ident = tuple(range(n))

    def key(a):
        t = _coordinates(a, "a permutation")
        if sorted(t) != list(ident):
            raise ValidationError(f"not a permutation of 0..{n - 1}: {a}")
        return t

    def coder(gens):
        # (g * x)(i) = g[x[i]]: one gather of the generator's row per code row
        G = np.array(gens, dtype=np.min_scalar_type(n - 1))
        return np.arange(n, dtype=G.dtype), lambda k, X: G[k][X]

    swaps = [ident[:i] + (i + 1, i) + ident[i + 2 :] for i in range(n - 1)]
    return (ident, _perm_mul, _perm_inv, key, _perm_name, math.factorial(n), swaps or [ident], coder)


# lattice generator coordinates are at most this in absolute value, so the
# int64 codes of any ball that fits in memory cannot overflow
_LATTICE_STEP = 2**32


def _integer_lattice(d):
    ident = (0,) * d

    def coder(gens):
        for g in gens:
            if max(map(abs, g)) > _LATTICE_STEP:
                raise ValidationError(
                    f"lattice generator {list(g)} has a coordinate beyond 2**32 in absolute value"
                )
        g = np.array(gens, dtype=np.int64)
        return np.zeros(d, dtype=np.int64), lambda k, X: X + g[k]

    return (
        ident,
        lambda a, b: tuple(map(operator.add, a, b)),
        lambda a: tuple(-x for x in a),
        lambda a: _coordinates(a, "a lattice element", d),
        lambda a: "(" + ",".join(str(x) for x in a) + ")",
        None,
        [ident[:i] + (s,) + ident[i + 1 :] for i in range(d) for s in (1, -1)],
        coder,
    )


def _prepend(letter, X):
    """Left multiply reduced words, coded as zero-padded letter rows, by one
    letter: it cancels a leading inverse letter, else it goes in front."""
    m, w = X.shape
    out = np.zeros((m, w + 1), dtype=X.dtype)
    out[:, 0] = letter
    out[:, 1:] = X
    if w:
        cancel = X[:, 0] == -letter
        out[cancel, : w - 1] = X[cancel, 1:]
        out[cancel, w - 1 :] = 0
    return out


def _free(k):
    def key(a):
        word = _coordinates(a, "a free-group word")
        for x in word:
            if x == 0 or abs(x) > k:
                raise ValidationError(f"free-group letter out of range: {x}")
        return _free_reduce(word)

    def coder(gens):
        def left(j, X):
            for letter in reversed(gens[j]):  # a generator word acts letter by letter
                X = _prepend(letter, X)
                while X.shape[1] and not X[:, -1].any():  # padding in every row
                    X = X[:, :-1]
            return X

        return np.zeros(0, dtype=np.int8), left

    letters = [(s * i,) for i in range(1, k + 1) for s in (1, -1)]
    return ((), _free_mul, lambda a: tuple(-x for x in reversed(a)), key, _free_name, None, letters, coder)


# family -> (its one parameter, the parameter's least and greatest value,
# the builder that maps the parameter's value to the oracle); residues mod
# n <= 2**62 add without overflow in int64 codes
FAMILIES = {
    "cyclic": ("n", 1, 2**62, _cyclic),
    "dihedral": ("n", 1, 2**62, _dihedral),
    "symmetric": ("n", 1, math.inf, _symmetric),
    "integer_lattice": ("d", 1, math.inf, _integer_lattice),
    "free": ("k", 1, len(_FREE_LETTERS), _free),
}


def _table(params):
    """The oracle of a multiplication table given inline (`table`, a list
    of rows) or as a CSV file (`path`), with index 0 as the identity.  A
    table has no default generators."""
    if "table" in params:
        rows = params["table"]
    elif "path" in params:
        rows = [row for row in csv.reader(read_text(params["path"], "table").splitlines()) if row]
    else:
        raise ValidationError("table family needs parameter 'table' or 'path'")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError(f"table parameter 'table' must be a list of rows, not {rows!r}")
    rows = [[integer(x, "a table entry") for x in row] for row in rows]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NotAGroup("multiplication table is not square")
    T = np.asarray(rows, dtype=np.int64)
    if T.min() < 0 or T.max() >= n:
        raise NotAGroup("table entries must be indices in [0, n)")
    if not np.array_equal(T[0], np.arange(n)) or not np.array_equal(T[:, 0], np.arange(n)):
        raise NotAGroup("index 0 must act as the identity")
    target = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(T[i]), target) or not np.array_equal(np.sort(T[:, i]), target):
            raise NotAGroup(f"table is not a Latin square (row/column {i})")
    if n <= 1024:
        for a in range(n):
            # associativity: T[T[a,b],c] == T[a,T[b,c]] for all b,c
            if not np.array_equal(T[T[a], :], T[a][T]):
                raise NotAGroup(f"table is not associative at row {a}")
    inv = np.empty(n, dtype=np.int64)
    for a in range(n):
        inv[a] = int(np.nonzero(T[a] == 0)[0][0])

    def coder(gens):
        g = np.array(gens, dtype=np.int64)
        return np.zeros(1, dtype=np.int64), lambda k, X: T[g[k]][X]

    return (
        0,
        lambda a, b: int(T[a, b]),
        lambda a: int(inv[a]),
        lambda a: integer(a, "a table element", 0, n - 1),
        lambda a: f"g{a}",
        n,
        None,
        coder,
    )


def build_group(spec: GroupSpec) -> GroupHandle:
    """Construct the element oracle for a GroupSpec.

    The family's parameter is converted once, and a missing, non-integral,
    out-of-range or unknown parameter is a ValidationError.  The generating
    set is canonicalized, deduplicated and closed under inverses; a weight
    that is nonpositive, or that differs from its inverse's by more than
    1e-12 relative, raises BadWeights.  Each generator is paired with its
    inverse here and nowhere else: both members of a pair get one weight,
    their mean, so the stored weights are exactly symmetric (a symmetric
    input keeps its bits), and the weight is normalized to sum to one.
    """
    family = spec.family
    known = ("table", "path") if family == "table" else FAMILIES[family][:1]
    for name in spec.params:
        if name not in known:
            raise ValidationError(f"{family} takes no parameter {name!r}")
    if family == "table":
        oracle = _table(spec.params)
        label = f"table({oracle[5]})"
    else:
        param, low, high, builder = FAMILIES[family]
        if param not in spec.params:
            raise ValidationError(f"{family} needs parameter {param!r}")
        value = integer(spec.params[param], f"{family} parameter {param!r}", low, high)
        oracle = builder(value)
        label = f"{family}({value})"
    identity, multiply, invert, key, namer, order, default_generators, coder = oracle

    # a table has no default generators
    raw_gens = default_generators if spec.generators is None else spec.generators
    if not isinstance(raw_gens, (list, tuple)) or not raw_gens:
        raise ValidationError(f"group spec 'generators' must be a nonempty list, not {raw_gens!r}")
    try:
        gens = [key(g) for g in raw_gens]
    except ValidationError as exc:
        raise ValidationError(f"group spec 'generators': {exc}") from None

    if spec.weights is not None:
        if not isinstance(spec.weights, (list, tuple)) or len(spec.weights) != len(gens):
            raise ValidationError("group spec 'weights' must be a list aligned with generators")
        weights = [number(w, "group spec 'weights'") for w in spec.weights]
    else:
        weights = [1.0 / len(gens)] * len(gens)
    if any(w <= 0 for w in weights):
        raise BadWeights("all generator weights must be strictly positive")

    # merge duplicates produced by canonicalization
    merged: dict = {}
    order_seen = []
    for g, w in zip(gens, weights):
        if g in merged:
            merged[g] += w
            warnings.warn(f"duplicate generator {namer(g)} merged", stacklevel=2)
        else:
            merged[g] = w
            order_seen.append(g)

    # close under inversion, recording each generator's inverse
    inverse = {}
    for g in list(order_seen):
        gi = inverse[g] = key(invert(g))
        if gi not in merged:
            inverse[gi] = g
            merged[gi] = merged[g]
            order_seen.append(gi)

    # weight symmetry, then one weight per inverse pair
    for g in order_seen:
        gi = inverse[g]
        if abs(merged[g] - merged[gi]) > 1e-12 * max(1.0, abs(merged[g])):
            raise BadWeights(
                f"weight asymmetric on pair ({namer(g)}, {namer(gi)}): "
                f"{merged[g]} vs {merged[gi]}"
            )
    for g in order_seen:
        w, wi = merged[g], merged[inverse[g]]
        merged[g] = merged[inverse[g]] = w + (wi - w) / 2  # their mean, w when wi == w

    total = sum(merged.values())
    if not math.isfinite(total):
        raise BadWeights(f"generator weights {weights} sum to {total}, not a finite number")
    if abs(total - 1.0) > 1e-12:
        warnings.warn(f"generator weights sum to {total}; normalizing", stacklevel=2)
    final_weights = np.array([merged[g] / total for g in order_seen], dtype=np.float64)
    position = {g: i for i, g in enumerate(order_seen)}
    identity_code, left_multiply = coder(tuple(order_seen))

    return GroupHandle(
        family=family,
        identity=key(identity),
        multiply=multiply,
        invert=invert,
        key=key,
        generators=tuple(order_seen),
        weights=final_weights,
        names=tuple(namer(g) for g in order_seen),
        inverse_index=np.array([position[inverse[g]] for g in order_seen], dtype=np.int64),
        identity_code=identity_code,
        left_multiply=left_multiply,
        order=order,
        label=label,
    )


# convenience constructors used throughout the test batteries


def cyclic_group(n, generators=None, weights=None):
    return build_group(GroupSpec("cyclic", {"n": n}, generators, weights))


def dihedral_group(n, generators=None, weights=None):
    return build_group(GroupSpec("dihedral", {"n": n}, generators, weights))


def symmetric_group(n, generators=None, weights=None):
    return build_group(GroupSpec("symmetric", {"n": n}, generators, weights))


def integer_lattice(d, generators=None, weights=None):
    return build_group(GroupSpec("integer_lattice", {"d": d}, generators, weights))


def free_group(k, generators=None, weights=None):
    return build_group(GroupSpec("free", {"k": k}, generators, weights))


def table_group(table, generators, weights=None):
    params = {"path": table} if isinstance(table, (str, Path)) else {"table": table}
    return build_group(GroupSpec("table", params, generators, weights))


# ---------------------------------------------------------------------------
# word-metric ball


@dataclass
class CayleyBall:
    """Indexed word-metric ball B_R with per-generator translation tables.

    Elements are numbered in BFS discovery order (identity first, generator
    order breaking ties); element i is generators[parent_gen[i]] times
    element parent[i], at word length depth[i].  translate[k, i] is the
    index of the left product generators[k] * elements[i], or OUT_OF_BALL
    when it leaves B_R.  `elements` (canonical elements, as the oracle makes
    them) and `index` (element -> i) are built on first read, with one
    `multiply` per element.
    """

    handle: GroupHandle
    radius: int
    depth: np.ndarray
    translate: np.ndarray
    parent: np.ndarray
    parent_gen: np.ndarray

    @cached_property
    def elements(self) -> list:
        mul, gens = self.handle.multiply, self.handle.generators
        out = [self.handle.identity]
        for i, k in zip(self.parent[1:].tolist(), self.parent_gen[1:].tolist()):
            out.append(mul(gens[k], out[i]))
        return out

    @cached_property
    def index(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.depth)

    @property
    def is_full(self) -> bool:
        """True when the ball is closed under all generators, i.e. it carries
        the whole (necessarily finite) group."""
        return bool((self.translate != OUT_OF_BALL).all())

    def per_depth(self) -> list[int]:
        return np.bincount(self.depth, minlength=self.radius + 1).tolist()

    def word_for(self, i: int) -> list[int]:
        """Canonical BFS word (generator indices, left to right) for element i."""
        word = []
        while i != 0:
            word.append(int(self.parent_gen[i]))
            i = int(self.parent[i])
        return word

    def locate(self, element) -> int:
        k = self.handle.key(element)
        if k not in self.index:
            raise KeyError(f"element {k} outside ball of radius {self.radius}")
        return self.index[k]


def _widen(X: np.ndarray, w: int) -> np.ndarray:
    """Code rows X padded with zero columns to width w."""
    if X.shape[1] == w:
        return X
    out = np.zeros((len(X), w), dtype=X.dtype)
    out[:, : X.shape[1]] = X
    return out


def _radix(X: np.ndarray) -> tuple:
    """Per-column least and greatest code over the code rows X, and the
    spans between them; the spans are None when their mixed radix needs
    64 bits."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = (hi.astype(np.int64) - lo + 1).tolist()
    return lo, hi, (span if math.prod(span) < 2**63 else None)


def _pack(X: np.ndarray, radix) -> np.ndarray:
    """Sortable keys of the code rows X (of the radix's width), equal
    exactly when the rows are: one int64 per row in the mixed radix, packed
    column by column, or the row's bytes when the radix needs 64 bits.  The
    key of a row outside the radix is meaningless (see `_fit`)."""
    lo, hi, span = radix
    if span is None:
        X = np.ascontiguousarray(X)
        return X.view(np.dtype((np.void, X.dtype.itemsize * len(lo))))[:, 0]
    key = np.zeros(len(X), dtype=np.int64)
    for c in reversed(range(len(lo))):  # Horner: sum_c (X[:, c] - lo[c]) * prod(span[:c])
        key *= span[c]
        key += X[:, c]
        key -= lo[c]
    return key


def _fit(X: np.ndarray, radix) -> tuple[np.ndarray, np.ndarray]:
    """Code rows X cut or padded to the radix's width, and a mask of the
    rows outside the radix: a code beyond its range, or a nonzero code in a
    column beyond its width (those columns are padding)."""
    lo, hi, _ = radix
    w = len(lo)
    fitted = _widen(X[:, :w], w)
    return fitted, X[:, w:].any(axis=1) | ((fitted < lo) | (fitted > hi)).any(axis=1)


def _searcher(keys: np.ndarray, base: int):
    """Finder of packed code rows among the distinct elements whose keys
    are `keys`, numbered from `base` on: it returns each row's number, or
    OUT_OF_BALL when the row is not among them."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    def find(x, outside=None):
        pos = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
        hit = keys[pos] == x
        if outside is not None:
            hit &= ~outside
        return np.where(hit, base + order[pos], OUT_OF_BALL)

    return find


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys in the order of their first occurrence:
    each key's number, and the positions of the first occurrences (one per
    distinct key, ascending).  Only a stable sort, as in the rest of the BFS."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = order[starts]  # per distinct key, in key order
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    number = np.empty(len(keys), dtype=np.int64)
    number[order] = (np.cumsum(is_first) - 1)[first][np.cumsum(starts) - 1]
    return number, np.flatnonzero(is_first)


def ball(handle: GroupHandle, radius: int, cap: int = DEFAULT_BALL_CAP) -> CayleyBall:
    """Enumerate the word-metric ball B_radius breadth first, a layer at a
    time, on the family's element codes (see the module docstring).

    The generating set is symmetric, so a generator moves an element of
    layer r into layer r - 1, r or r + 1; each product is looked up among
    layers r - 1 and r, and the misses, numbered by first occurrence in
    (element, generator) order, make layer r + 1.  That is the order in
    which a BFS that multiplies one pair at a time meets them, so every
    table keeps its bits.  The layer at depth `radius` is expanded one
    generator at a time, for the table only.  Widths and radices come from
    the layers reached, so nothing is sized by `radius` or `cap`; neither
    `multiply` nor `key` is called.  BallTooLarge when B_radius has more
    than `cap` elements.
    """
    if radius < 0:
        raise ValidationError("ball radius must be >= 0")
    K, left = handle.n_generators, handle.left_multiply
    cur = handle.identity_code[None, :]
    prev = cur[:0]
    start = 0  # number of cur's first element; prev's numbers end there
    root = np.array([-1])
    depth, parent, parent_gen = [np.zeros(1, dtype=np.int64)], [root], [root]
    table = []  # (K, len(layer)) blocks of translate
    r = 0
    while len(cur):
        m = len(cur)
        w = max(prev.shape[1], cur.shape[1])
        if r < radius:
            products = [left(k, cur) for k in range(K)]
            w = max(w, *(P.shape[1] for P in products))
            rows = np.zeros((m, K, w), dtype=cur.dtype)
            for k, P in enumerate(products):
                rows[:, k, : P.shape[1]] = P
            rows = rows.reshape(m * K, w)  # (element, generator) order
            # layers r - 1 and r, then the products, keyed in one radix
            codes = np.concatenate([_widen(prev, w), _widen(cur, w), rows])
            keys = _pack(codes, _radix(codes))
            n = len(codes) - len(rows)
            j = _searcher(keys[:n], start - len(prev))(keys[n:])
            miss = np.flatnonzero(j == OUT_OF_BALL)
            number, first = _first_occurrences(keys[n:][miss])
            if start + m + len(first) > cap:
                raise BallTooLarge(f"ball of radius {radius} exceeds cap of {cap} elements")
            j[miss] = start + m + number
            at = miss[first]  # the new elements' (element, generator) positions
            new = rows[at]
            depth.append(np.full(len(at), r + 1, dtype=np.int64))
            parent.append(start + at // K)
            parent_gen.append(at % K)
            table.append(j.reshape(m, K).T)
        else:
            known = np.concatenate([_widen(prev, w), _widen(cur, w)])
            radix = _radix(known)
            find = _searcher(_pack(known, radix), start - len(prev))
            block = np.empty((K, m), dtype=np.int64)
            for k in range(K):
                X, outside = _fit(left(k, cur), radix)
                block[k] = find(_pack(X, radix), outside)
            table.append(block)
            new = cur[:0]
        prev, cur, start = cur, new, start + m
        r += 1
    return CayleyBall(
        handle=handle,
        radius=radius,
        depth=np.concatenate(depth),
        # C order, so that each generator's row is contiguous for the gathers
        translate=np.ascontiguousarray(np.concatenate(table, axis=1)),
        parent=np.concatenate(parent),
        parent_gen=np.concatenate(parent_gen),
    )


def full_ball(handle: GroupHandle, cap: int = DEFAULT_BALL_CAP) -> CayleyBall:
    """Ball that saturates a finite group; its radius is the deepest layer.

    Runs the BFS of `ball` until the ball closes: no ball within the cap
    reaches depth `cap`, so an infinite group ends in BallTooLarge.
    """
    if handle.order is not None and handle.order > cap:
        raise BallTooLarge(f"group order {handle.order} exceeds cap {cap}")
    b = ball(handle, cap, cap=cap)
    b.radius = int(b.depth.max())
    return b


def check_ball_invariants(b: CayleyBall) -> list[str]:
    """Return a list of human-readable invariant violations (empty = pass).

    Besides the table's own consistency, a seeded sample of at most
    INVARIANT_SAMPLE elements has every translate entry compared with the
    oracle: the index of multiply(generator, element), or OUT_OF_BALL when
    that product is not in the ball.  The product of two canonical elements
    is canonical by the oracle contract, so it is looked up as it is, and a
    non-canonical product fails the lookup."""
    problems = []
    h = b.handle
    if b.elements[0] != h.key(h.identity) or b.depth[0] != 0:
        problems.append("identity is not at index 0 with depth 0")
    if (np.diff(b.depth) < 0).any():
        problems.append("depth is not nondecreasing along the element list")
    interior = b.depth <= b.radius - 1
    for k in range(h.n_generators):
        row = b.translate[k]
        if (row[interior] == OUT_OF_BALL).any():
            i = int(np.nonzero(interior & (row == OUT_OF_BALL))[0][0])
            problems.append(
                f"translate({h.names[k]}) hits the sentinel at interior index {i}"
            )
        ki = int(h.inverse_index[k])
        comp = b.translate[k][b.translate[ki]]
        idx = np.nonzero(interior)[0]
        bad = idx[comp[idx] != idx]
        if bad.size:
            problems.append(
                f"translate({h.names[k]}) o translate({h.names[ki]}) is not the "
                f"identity at index {int(bad[0])}"
            )
    if b.is_full:
        target = np.arange(b.size)
        for k in range(h.n_generators):
            if not np.array_equal(np.sort(b.translate[k]), target):
                problems.append(f"translate({h.names[k]}) is not a permutation on the full group")
    if len(b.index) != b.size:
        problems.append(f"{b.size - len(b.index)} elements are listed more than once")
    for g, i in itertools.islice(b.index.items(), 100):
        if h.key(b.elements[i]) != g:
            problems.append(f"index map inconsistent at {g!r}")
            break
    rng = np.random.default_rng(0)
    sample = np.sort(rng.choice(b.size, min(b.size, INVARIANT_SAMPLE), replace=False))
    for k, gen in enumerate(h.generators):
        for i, j in zip(sample.tolist(), b.translate[k, sample].tolist()):
            want = b.index.get(h.multiply(gen, b.elements[i]), OUT_OF_BALL)
            if j != want:
                problems.append(
                    f"translate({h.names[k]}) at index {i} reads {j}, but the product is {want}"
                )
                break
    return problems


def free_ball_size(k: int, radius: int) -> int:
    """Ball cardinality of the rank-k free group with 2k standard generators."""
    if radius == 0:
        return 1
    if k == 1:
        return 2 * radius + 1
    q = 2 * k - 1
    return 1 + 2 * k * (q**radius - 1) // (q - 1)
