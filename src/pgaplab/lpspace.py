"""Real l^p vectors on a Cayley ball: norms, duality maps, norming vectors.

Exponents live in (1, inf) so norms are smooth away from zero and the
duality map is single valued.  The pointwise convention sign(x)*|x|^(p-1)
for |x|^(p-2)*x extends continuously through x = 0 for every p > 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroFunctional
from .groups import CayleyBall


def conjugate_exponent(p: float) -> float:
    if not 1.0 < p < np.inf:
        raise ValidationError(f"exponent must lie in (1, inf): {p}")
    return p / (p - 1.0)


def signed_power(x: np.ndarray, e: float) -> np.ndarray:
    """sign(x) * |x|**e, elementwise; zero at zero for every e > 0."""
    return np.sign(x) * np.abs(x) ** e


def power_norm(values: np.ndarray, p: float) -> float:
    """(sum |v|^p)^(1/p), scaled for overflow safety.

    Terms are accumulated in ascending order, so the result is invariant
    under permutations of the entries (isometries stay exact isometries).
    """
    a = np.abs(values)
    m = float(a.max(initial=0.0))
    if m == 0.0:
        return 0.0
    a = np.sort(a)
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


def row_power_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """power_norm of each row of a (K, n) array, bit for bit; 0 for a zero row.

    One sort and one sum over all rows; each row's root is taken as a
    scalar, as power_norm takes it.
    """
    a = np.abs(rows)
    m = a.max(axis=1, initial=0.0)
    out = np.zeros(len(a))
    live = np.nonzero(m)[0]
    if live.size:
        scale = m[live]
        sums = np.sum((np.sort(a[live], axis=1) / scale[:, None]) ** p, axis=1)
        out[live] = [mk * float(sk ** (1.0 / p)) for mk, sk in zip(scale, sums)]
    return out


@dataclass(frozen=True)
class LpVector:
    """Real function on a Cayley ball, regarded as an l^p element."""

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

    def norm(self) -> float:
        return power_norm(self.values, self.p)

    def _wrap(self, values) -> "LpVector":
        return LpVector(self.ball, values, self.p)

    def _check_mate(self, other: "LpVector"):
        if other.ball is not self.ball:
            raise ValidationError("vectors live on different balls")
        if other.p != self.p:
            raise ValidationError(f"exponent mismatch: {self.p} vs {other.p}")

    def __add__(self, other):
        self._check_mate(other)
        return self._wrap(self.values + other.values)

    def __sub__(self, other):
        self._check_mate(other)
        return self._wrap(self.values - other.values)

    def __mul__(self, t: float):
        return self._wrap(self.values * float(t))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.values)


@dataclass(frozen=True)
class DualVector:
    """Functional on l^p represented by its l^q coefficient array."""

    ball: CayleyBall
    values: np.ndarray
    q: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (self.ball.size,):
            raise ValidationError("dual vector length does not match ball size")
        if not 1.0 < self.q < np.inf:
            raise ValidationError(f"dual exponent must lie in (1, inf): {self.q}")

    def norm(self) -> float:
        return power_norm(self.values, self.q)


def zero_vector(ball: CayleyBall, p: float) -> LpVector:
    return LpVector(ball, np.zeros(ball.size), p)


def delta(ball: CayleyBall, element, p: float) -> LpVector:
    """Indicator of a single group element."""
    i = element if isinstance(element, (int, np.integer)) else ball.locate(element)
    v = np.zeros(ball.size)
    v[i] = 1.0
    return LpVector(ball, v, p)


def norm_p(f: LpVector) -> float:
    return f.norm()


def dual_norm_q(g: DualVector) -> float:
    return g.norm()


def pair(g: DualVector, f: LpVector) -> float:
    """Dual pairing <g, f> = sum g(x) f(x)."""
    if g.ball is not f.ball:
        raise ValidationError("pairing across different balls")
    if abs(g.q - conjugate_exponent(f.p)) > 1e-12 * max(1.0, g.q):
        raise ValidationError(f"exponents not conjugate: q={g.q}, p={f.p}")
    return float(np.dot(g.values, f.values))


def duality_map(f: LpVector) -> DualVector:
    """Support functional of f: the unit functional attaining <j(f), f> = |f|_p.

    The zero vector maps to the zero functional by convention.
    """
    q = conjugate_exponent(f.p)
    nf = f.norm()
    if nf == 0.0:
        return DualVector(f.ball, np.zeros(f.ball.size), q)
    vals = signed_power(f.values / nf, f.p - 1.0)
    return DualVector(f.ball, vals, q)


def norming_vector(g: DualVector) -> LpVector:
    """Unit l^p vector u with <g, u> = |g|_q (inverse duality)."""
    p = conjugate_exponent(g.q)
    ng = g.norm()
    if ng == 0.0:
        raise ZeroFunctional("no norming vector for the zero functional")
    vals = signed_power(g.values / ng, g.q - 1.0)
    return LpVector(g.ball, vals, p)


# ---------------------------------------------------------------------------
# serialization: CSV (index,value) and a little-endian binary column


def vector_to_csv(f: LpVector, path):
    with open(path, "w") as fh:
        for i, x in enumerate(f.values):
            fh.write(f"{i},{float(x)!r}\n")


def vector_from_csv(ball: CayleyBall, path, p: float) -> LpVector:
    values = np.zeros(ball.size)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
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
            values[i] = x
    return LpVector(ball, values, p)


def vector_to_bytes(f: LpVector) -> bytes:
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    return struct.pack("<Q", f.ball.size) + payload


def vector_from_bytes(ball: CayleyBall, blob: bytes, p: float) -> LpVector:
    (n,) = struct.unpack_from("<Q", blob, 0)
    if n != ball.size:
        raise ValidationError(f"binary vector length {n} does not match ball size {ball.size}")
    values = np.frombuffer(blob, dtype="<f8", count=n, offset=8).copy()
    return LpVector(ball, values, p)
