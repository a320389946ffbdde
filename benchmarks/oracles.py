"""Reference computations made apart from pgaplab.

Nothing here imports pgaplab.  Groups are re-implemented from their
definitions, balls are enumerated with the documented canonical order
(identity first, breadth first, left multiplication by the generators in
their default order), and every quantity the benchmark checks is computed
from those elements and a closed form:

- displacement energies, and the ambient and domain-restricted slopes;
- the p = 2 gap constant sqrt(2 mu_min) by a dense eigenvalue solve;
- the l^p moduli of Hanner (1956) and Lindenstrauss-Tzafriri;
- ball sizes and per-depth counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# groups and balls


def _perm_compose(a, b):
    """(a b)(i) = a(b(i)): apply b first."""
    return tuple(a[x] for x in b)


def _perm_inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _free_reduce_concat(a, b):
    word = list(a)
    for letter in b:
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return tuple(word)


@dataclass(frozen=True)
class Family:
    """Element arithmetic and the default symmetric generating set."""

    name: str
    identity: tuple | int
    generators: tuple
    order: int | None

    def multiply(self, a, b):
        if self.name == "cyclic":
            return (a + b) % self.order
        if self.name == "symmetric":
            return _perm_compose(a, b)
        if self.name == "integer_lattice":
            return tuple(x + y for x, y in zip(a, b))
        if self.name == "free":
            return _free_reduce_concat(a, b)
        raise ValueError(self.name)

    def invert(self, a):
        if self.name == "cyclic":
            return (-a) % self.order
        if self.name == "symmetric":
            return _perm_inverse(a)
        if self.name == "integer_lattice":
            return tuple(-x for x in a)
        if self.name == "free":
            return tuple(-x for x in reversed(a))
        raise ValueError(self.name)


def family(name: str, param: int) -> Family:
    """Group families with pgaplab's default generators, in the same order."""
    if name == "cyclic":
        return Family(name, 0, (1, param - 1), param)
    if name == "symmetric":
        gens = []
        for i in range(param - 1):
            p = list(range(param))
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(tuple(p))
        return Family(name, tuple(range(param)), tuple(gens), math.factorial(param))
    if name == "integer_lattice":
        gens = []
        for i in range(param):
            for s in (1, -1):
                e = [0] * param
                e[i] = s
                gens.append(tuple(e))
        return Family(name, (0,) * param, tuple(gens), None)
    if name == "free":
        gens = []
        for i in range(1, param + 1):
            gens += [(i,), (-i,)]
        return Family(name, (), tuple(gens), None)
    raise ValueError(f"no reference arithmetic for {name!r}")


@dataclass
class Ball:
    """Ball elements in canonical order, their depths, and generator actions."""

    fam: Family
    radius: int | None  # None: the whole finite group
    elements: list
    depth: np.ndarray
    index: dict

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def weights(self) -> np.ndarray:
        k = len(self.fam.generators)
        return np.full(k, 1.0 / k)

    def interior(self) -> np.ndarray:
        """Admissible support: everything on a finite group, depth <= R-1 else."""
        if self.radius is None:
            return np.ones(self.size, dtype=bool)
        return self.depth <= self.radius - 1

    def source_index(self, k: int) -> np.ndarray:
        """j with (pi(g_k) f)(x_i) = f(x_j), i.e. x_j = g_k^-1 x_i; -1 off the ball."""
        gi = self.fam.invert(self.fam.generators[k])
        return np.array(
            [self.index.get(self.fam.multiply(gi, x), -1) for x in self.elements], dtype=np.int64
        )


def enumerate_ball(fam: Family, radius: int | None) -> Ball:
    """Breadth-first enumeration by left multiplication, generators in order."""
    elements = [fam.identity]
    index = {fam.identity: 0}
    depth = [0]
    frontier = [fam.identity]
    r = 0
    while frontier and (radius is None or r < radius):
        r += 1
        nxt = []
        for x in frontier:
            for g in fam.generators:
                y = fam.multiply(g, x)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    depth.append(r)
                    nxt.append(y)
        frontier = nxt
    return Ball(fam, radius, elements, np.asarray(depth, dtype=np.int64), index)


def free_ball_size(radius: int) -> int:
    """|B_R| in the free group of rank 2: 1 + 4 (3^R - 1) / 2."""
    return 1 + 4 * (3**radius - 1) // 2


def lattice2_ball_size(radius: int) -> int:
    """|B_R| in Z^2 with the l^1 word length: 2 R^2 + 2 R + 1."""
    return 2 * radius * radius + 2 * radius + 1


def free_per_depth(radius: int) -> list[int]:
    return [1] + [4 * 3 ** (d - 1) for d in range(1, radius + 1)]


def mahonian(n: int) -> list[int]:
    """Permutations of n points by inversion count: coefficients of
    prod_{k=1..n} (1 + x + ... + x^(k-1)).  These are the sphere sizes of
    the symmetric group under adjacent transpositions; they sum to n!."""
    coeffs = [1]
    for k in range(1, n + 1):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                out[i + j] += c
        coeffs = out
    return coeffs


# ---------------------------------------------------------------------------
# energies and slopes on a ball


class Evaluator:
    """Displacement energies of the regular representation on a ball."""

    def __init__(self, ball: Ball, p: float):
        self.ball = ball
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.sources = [ball.source_index(k) for k in range(len(ball.fam.generators))]
        self.m = ball.weights

    def _translate(self, k: int, v: np.ndarray) -> np.ndarray:
        src = self.sources[k]
        out = np.zeros_like(v)
        ok = src >= 0
        out[ok] = v[src[ok]]
        return out

    def displacements(self, v: np.ndarray, f: np.ndarray | None = None) -> list[np.ndarray]:
        """pi(g) v - v, plus the coboundary pi(g) f - f of a potential f."""
        w = v if f is None else v + f
        return [self._translate(k, w) - w for k in range(len(self.sources))]

    @staticmethod
    def norm(x: np.ndarray, p: float) -> float:
        return float(np.sum(np.abs(x) ** p) ** (1.0 / p))

    def energy(self, v: np.ndarray, r: float, f: np.ndarray | None = None) -> float:
        """(sum_g m(g) |alpha(g) v - v|_p^r)^(1/r); the max over g at r = inf."""
        norms = np.array([self.norm(d, self.p) for d in self.displacements(v, f)])
        if math.isinf(r):
            return float(norms.max())
        return float(np.sum(self.m * norms**r) ** (1.0 / r))

    def ratio(self, v: np.ndarray, r: float) -> float:
        return self.energy(v, r) / self.norm(v, self.p)

    def slopes(self, v: np.ndarray, mean_zero: bool) -> tuple[float, float]:
        """(ambient, domain-restricted) absolute gradient 2 |xi|_q / F^(p-1) of
        the linear energy, xi = sum_g m(g) sign(d_g) |d_g|^(p-1)."""
        p, q = self.p, self.q
        disp = self.displacements(v)
        F = self.energy(v, p)
        xi = sum(mk * np.sign(d) * np.abs(d) ** (p - 1.0) for mk, d in zip(self.m, disp))
        scale = 2.0 / F ** (p - 1.0)
        ambient = scale * self.norm(xi, q)
        if mean_zero:
            restricted = quotient_norm(xi, q)
        else:
            restricted = self.norm(np.where(self.ball.interior(), xi, 0.0), q)
        return ambient, scale * restricted


def quotient_norm(x: np.ndarray, q: float) -> float:
    """min_c |x - c 1|_q, the dual norm on mean-zero vectors.

    The derivative sum sign(x - c) |x - c|^(q-1) is decreasing in c, so its
    root in [min x, max x] is found by bracketing.
    """
    from scipy.optimize import brentq  # here, so that run.py's set-up does not import it

    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return 0.0

    def slope(c):
        d = x - c
        return float(np.sum(np.sign(d) * np.abs(d) ** (q - 1.0)))

    c = brentq(slope, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)
    return Evaluator.norm(x - c, q)


def hilbert_gap(ball: Ball) -> float:
    """sqrt(2 mu_min) with mu_min the least eigenvalue of I - M on the domain.

    M is the uniform average of the generator translations.  On a finite
    group the domain is the mean-zero subspace, which I - M preserves; the
    constants are moved out of the way by adding 4 J / n.  On a truncated
    infinite group the domain is the interior, and I - M is compressed to it.
    """
    n = ball.size
    k = len(ball.fam.generators)
    M = np.zeros((n, n))
    rows = np.arange(n)
    for j in range(k):
        src = ball.source_index(j)
        ok = src >= 0
        np.add.at(M, (rows[ok], src[ok]), 1.0 / k)
    A = np.eye(n) - 0.5 * (M + M.T)
    if ball.radius is None:
        A = A + 4.0 * np.ones((n, n)) / n
    else:
        inner = np.nonzero(ball.interior())[0]
        A = A[np.ix_(inner, inner)]
    mu = float(np.linalg.eigvalsh(A)[0])
    return math.sqrt(max(2.0 * mu, 0.0))


def kesten_free2() -> float:
    """sqrt(2 (1 - sqrt(3)/2)): the averaging operator of the rank-2 free
    group has norm sqrt(3)/2, which bounds the r = 2 constant below."""
    return math.sqrt(2.0 * (1.0 - math.sqrt(3.0) / 2.0))


# ---------------------------------------------------------------------------
# moduli of l^p (Hanner 1956; Lindenstrauss-Tzafriri, Classical Banach
# Spaces II, 1.e).  Both are attained on two coordinates, so they hold in
# l^p_n for every n >= 2.


def _delta_power(p: float, eps: float) -> float:
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def _delta_root(p: float, eps: float) -> float:
    """Root delta of (1 - delta + eps/2)^p + |1 - delta - eps/2|^p = 2."""
    from scipy.optimize import brentq

    if eps >= 2.0:
        return 1.0
    g = lambda d: (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0
    return brentq(g, 0.0, 1.0, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)


def modulus_convexity(p: float, eps: float) -> float:
    """delta_p(eps): closed form for p >= 2, a root-find for 1 < p < 2."""
    return _delta_power(p, eps) if p >= 2.0 else _delta_root(p, eps)


def _rho_power(p: float, tau: float) -> float:
    return (1.0 + tau**p) ** (1.0 / p) - 1.0


def _rho_mean(p: float, tau: float) -> float:
    return ((abs(1.0 + tau) ** p + abs(1.0 - tau) ** p) / 2.0) ** (1.0 / p) - 1.0


def modulus_smoothness(p: float, tau: float) -> float:
    """rho_p(tau): (1 + tau^p)^(1/p) - 1 for p <= 2, the two-point mean above."""
    return _rho_power(p, tau) if p <= 2.0 else _rho_mean(p, tau)
