"""Real l^p vectors on a Cayley ball: norms, duality maps, norming vectors.

A vector, and a functional given by its l^q coefficients, is a float64
array of shape (n,) in the ball's order.  The array carries no exponent:
the caller reads p from its `Representation` (q = p/(p-1) for a
functional), and every function here takes the exponent it needs
explicitly, as `power_norm` does.

Exponents live in (1, inf) so norms are smooth away from zero and the
duality map is single valued.  The pointwise convention sign(x)*|x|^(p-1)
for |x|^(p-2)*x extends continuously through x = 0 for every p > 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroFunctional, read_text
from .groups import CayleyBall


def conjugate_exponent(p: float) -> float:
    if not 1.0 < p < np.inf:
        raise ValidationError(f"exponent must lie in (1, inf): {p}")
    return p / (p - 1.0)


def signed_power(x: np.ndarray, e: float) -> np.ndarray:
    """sign(x) * |x|**e, elementwise; zero at zero for every e > 0."""
    return np.sign(x) * np.abs(x) ** e


def same_point(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b are one point, entry by entry in value (0.0 is -0.0).
    A line-search trial at its start's point has the start's value, so it
    passes no Armijo test, and neither engine evaluates it."""
    return np.array_equal(a, b)


def power_norm(values: np.ndarray, p: float) -> float:
    """(sum |v|^p)^(1/p), scaled for overflow safety.

    Terms are accumulated in ascending order, so the result is invariant
    under permutations of the entries (isometries stay exact isometries).
    The sorted |v| is the only array made: its last entry is the scale, and
    it is divided and raised to p in place.
    """
    a = np.abs(values, dtype=np.float64)
    a.sort()
    m = float(a[-1]) if a.size else 0.0
    if m == 0.0:
        return 0.0
    a /= m
    a **= p
    return m * float(np.add.reduce(a) ** (1.0 / p))


def row_power_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """power_norm of each row of a (K, n) array, bit for bit; 0 for a zero row.

    One in-place sort and one sum over all rows, with each row's scale read
    off its last sorted entry; zero rows are dropped only when there are
    any.  Each row's root is taken as a scalar, as power_norm takes it.
    """
    a = np.abs(rows, dtype=np.float64, order="C")  # rows summed in power_norm's order
    out = np.zeros(len(a))
    if not a.size:
        return out
    a.sort(axis=-1)
    scale = a[:, -1].copy()
    live = scale != 0.0
    if not live.all():
        a, scale = a[live], scale[live]
    a /= scale[:, None]
    a **= p
    sums = np.add.reduce(a, axis=-1)
    out[live] = [mk * float(sk ** (1.0 / p)) for mk, sk in zip(scale, sums)]
    return out


@dataclass(frozen=True)
class LpVector:
    """Real function on a Cayley ball with an l^p exponent.

    Nothing in the program builds one: vectors are plain arrays.  The class
    stays because benchmarks/tracing.py patches its __post_init__ at install.
    """

    ball: CayleyBall
    values: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (self.ball.size,):
            raise ValidationError(
                f"vector length {self.values.shape} does not match ball size {self.ball.size}"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("vector entries must be finite")
        if not 1.0 < self.p < np.inf:
            raise ValidationError(f"l^p exponent must lie in (1, inf): {self.p}")


def delta(ball: CayleyBall, element) -> np.ndarray:
    """Indicator of a single group element."""
    i = element if isinstance(element, (int, np.integer)) else ball.locate(element)
    v = np.zeros(ball.size)
    v[i] = 1.0
    return v


def duality_map(values: np.ndarray, p: float) -> np.ndarray:
    """Support functional of f in l^p: the unit l^q element j(f) with
    <j(f), f> = |f|_p.

    The zero vector maps to the zero functional by convention.
    """
    nf = power_norm(values, p)
    if nf == 0.0:
        return np.zeros(len(values))
    return signed_power(values / nf, p - 1.0)


def norming_vector(values: np.ndarray, q: float) -> np.ndarray:
    """Unit l^p vector u with <g, u> = |g|_q for g in l^q (inverse duality)."""
    ng = power_norm(values, q)
    if ng == 0.0:
        raise ZeroFunctional("no norming vector for the zero functional")
    return signed_power(values / ng, q - 1.0)


# ---------------------------------------------------------------------------
# serialization: CSV (index,value) and a little-endian binary column


def vector_to_csv(values: np.ndarray, path):
    with open(path, "w") as fh:
        for i, x in enumerate(values):
            fh.write(f"{i},{float(x)!r}\n")


def vector_from_csv(ball: CayleyBall, path) -> np.ndarray:
    """Vector on the ball from 'index,value' lines; unlisted entries are 0.

    A file it cannot read, an index outside the ball, an index listed twice
    or a non-finite value is a ValidationError.
    """
    values = np.zeros(ball.size)
    seen = {}
    for lineno, line in enumerate(read_text(path, "vector").split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            i_s, x_s = line.split(",")
            i, x = int(i_s), float(x_s)
        except ValueError:
            raise ValidationError(
                f"{path}, line {lineno}: expected 'index,value', got {line!r}"
            ) from None
        if not 0 <= i < ball.size:
            raise ValidationError(f"vector index {i} outside ball of size {ball.size}")
        if i in seen:
            raise ValidationError(f"{path}, line {lineno}: index {i} repeats line {seen[i]}")
        if not np.isfinite(x):
            raise ValidationError(f"{path}, line {lineno}: value {x!r} is not finite")
        seen[i] = lineno
        values[i] = x
    return values


def vector_to_bytes(values: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return struct.pack("<Q", len(values)) + payload


def vector_from_bytes(ball: CayleyBall, blob: bytes) -> np.ndarray:
    (n,) = struct.unpack_from("<Q", blob, 0)
    if n != ball.size:
        raise ValidationError(f"binary vector length {n} does not match ball size {ball.size}")
    values = np.frombuffer(blob, dtype="<f8", count=n, offset=8).copy()
    if not np.isfinite(values).all():
        raise ValidationError("binary vector entries must be finite")
    return values
