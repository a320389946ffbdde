"""Left regular representation on ball truncations, cocycles, affine actions.

Two domain conventions are supported.  In "full" mode the ball carries a
whole finite group and every generator acts by a permutation of indices.
In "dirichlet" mode (infinite groups truncated to B_R) vectors that are
acted on must be supported at word depth <= R-1, so each generator image
stays inside the ball and every formula is exact, with no boundary leakage.

Every generator operator is read from one table.  A Representation builds
it once: row k is the ball's translate row of the inverse generator, so
(pi(g_k) f)[i] = f[table[k, i]], and an OUT_OF_BALL entry points at a
padding slot at index n that holds zero.  All generators act at once by
indexing the padded vector with the whole table.  The adjoint of pi(g_k)
is the row of the inverse generator, table[inverse_index[k]]; in dirichlet
mode that is exact at the boundary too, since it is the transpose of the
truncated gather.

A cocycle is stored in the same layout as the table: one (K, n) array whose
row k is c(g_k).  An affine action adds these rows to the stacked linear
displacements, and the cocycle routines (the inverse law, norms, extension
along words) act on all rows at once through the table.  A single vector
is a float64 (n,) array, and its exponent is the representation's p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InfiniteGroup, SupportViolation, ValidationError
from .groups import OUT_OF_BALL, CayleyBall
from .lpspace import conjugate_exponent, power_norm, row_power_norms


@dataclass
class Representation:
    """Regular representation gamma . f = f(gamma^-1 x) on a ball truncation."""

    ball: CayleyBall
    p: float
    mode: str = "full"  # "full" | "dirichlet"
    table: np.ndarray = field(init=False, repr=False)  # (K, n) gather indices

    def __post_init__(self):
        if self.mode not in ("full", "dirichlet"):
            raise ValidationError(f"unknown representation mode {self.mode!r}")
        if self.mode == "full" and not self.ball.is_full:
            raise ValidationError(
                "full mode needs a saturated ball; use dirichlet mode or a larger radius"
            )
        if self.mode == "dirichlet" and self.ball.radius < 1:
            raise ValidationError("dirichlet mode needs radius >= 1")
        if not 1.0 < self.p < np.inf:
            raise ValidationError(f"exponent must lie in (1, inf): {self.p}")
        table = self.ball.translate[self.handle.inverse_index]
        self.table = np.where(table == OUT_OF_BALL, self.ball.size, table)

    @property
    def handle(self):
        return self.ball.handle

    @property
    def weights(self) -> np.ndarray:
        return self.ball.handle.weights

    @property
    def admissible_mask(self) -> np.ndarray:
        if self.mode == "full":
            return np.ones(self.ball.size, dtype=bool)
        return self.ball.depth <= self.ball.radius - 1

    def check_admissible(self, values: np.ndarray):
        """Raise ValidationError unless values is an (n,) array of finite
        entries, and SupportViolation on mass outside the dirichlet support."""
        if np.shape(values) != (self.ball.size,):
            raise ValidationError(
                f"vector length {np.shape(values)} does not match ball size {self.ball.size}"
            )
        if not np.isfinite(values).all():
            raise ValidationError("vector entries must be finite")
        if self.mode == "dirichlet":
            outside = ~self.admissible_mask
            if np.any(values[outside] != 0.0):
                bad = int(np.nonzero(outside & (values != 0.0))[0][0])
                raise SupportViolation(
                    f"vector has mass at depth {int(self.ball.depth[bad])} "
                    f"> {self.ball.radius - 1} (index {bad})"
                )

    def zero(self) -> np.ndarray:
        return np.zeros(self.ball.size)

    def random_admissible(self, rng: np.random.Generator, *, mean_zero=False) -> np.ndarray:
        vals = rng.standard_normal(self.ball.size)
        vals[~self.admissible_mask] = 0.0
        if mean_zero:
            vals -= vals.mean()
        return vals

    def apply_array(self, k, values: np.ndarray) -> np.ndarray:
        """Raw-array image under generator(s) k; no admissibility check.

        k is one generator index, or a slice or index array of them.  A 1-D
        `values` is acted on by every selected generator; a 2-D `values`
        holds one row per selected generator, acted on by that generator.
        """
        padded = np.zeros(values.shape[:-1] + (self.ball.size + 1,))
        padded[..., :-1] = values
        rows = self.table[k]
        if values.ndim == 1:
            return padded[rows]
        return np.take_along_axis(padded, rows, axis=-1)

    def apply_generator(self, k: int, v: np.ndarray, *, check=True) -> np.ndarray:
        """Image of v under the k-th generator of K."""
        if check:
            self.check_admissible(v)
        return self.apply_array(k, v)

    def apply(self, gamma, v: np.ndarray, *, check=True) -> np.ndarray:
        """Image of v under a group element (use apply_generator for an index
        into K).  Arbitrary elements need full mode; dirichlet mode only acts
        by generators.  A non-generator acts as the product of the generator
        operators along its BFS word."""
        h = self.handle
        key = h.key(gamma)
        for k, g in enumerate(h.generators):
            if g == key:
                return self.apply_generator(k, v, check=check)
        if self.mode != "full":
            raise SupportViolation(
                "dirichlet mode only acts by generators; got a non-generator element"
            )
        if check:
            self.check_admissible(v)
        out = v.copy()
        for k in reversed(self.ball.word_for(self.ball.locate(key))):
            out = self.apply_array(k, out)
        return out


@dataclass
class Cocycle:
    """A 1-cocycle given by its values on the generating set.

    `values` is a float64 (K, n) array whose row k is c(g_k), a vector on
    the representation's ball; every cocycle routine works on these rows.
    """

    rep: Representation
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        shape = (self.rep.handle.n_generators, self.rep.ball.size)
        if self.values.shape != shape:
            raise ValidationError(
                f"cocycle values need shape {shape} (one row per generator), "
                f"got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("cocycle values must be finite")

    @classmethod
    def zero(cls, rep: Representation) -> "Cocycle":
        return cls(rep, np.zeros((rep.handle.n_generators, rep.ball.size)))

    @classmethod
    def from_generator_values(cls, rep: Representation, assignment: dict, *, tol=1e-9) -> "Cocycle":
        """Build a cocycle from values on part of K, deriving inverses.

        `assignment` maps generator names or indices to (n,) arrays.  Missing
        inverse generators get the forced value -pi(g^-1) c(g); an involution
        must satisfy c(g) = -pi(g) c(g) up to `tol` or the data is rejected.
        """
        h = rep.handle
        values = np.zeros((h.n_generators, rep.ball.size))
        given = np.zeros(h.n_generators, dtype=bool)
        for key, vec in assignment.items():
            if isinstance(key, (int, np.integer)):
                k = int(key)
                if not 0 <= k < h.n_generators:
                    raise ValidationError(f"generator index {k} outside 0..{h.n_generators - 1}")
            else:
                try:
                    k = h.names.index(key)
                except ValueError:
                    raise ValidationError(f"unknown generator {key!r}") from None
            if np.shape(vec) != (rep.ball.size,):
                raise ValidationError(
                    f"cocycle value of {h.names[k]} has shape {np.shape(vec)}, "
                    f"not the ball's ({rep.ball.size},)"
                )
            values[k] = vec
            given[k] = True
        missing = np.nonzero(~given)[0]
        for k in missing:
            if not given[h.inverse_index[k]]:
                raise ValidationError(
                    f"no value given for generator {h.names[k]} or its inverse"
                )
        values[missing] = -rep.apply_array(missing, values[h.inverse_index[missing]])
        c = cls(rep, values)
        report = validate_cocycle(c, tol=tol)
        if not report["ok"]:
            raise ValidationError(
                f"assignment does not extend to a cocycle: max residual {report['maxResidual']:.3e}"
            )
        return c

    def extend(self, word: Sequence[int]) -> np.ndarray:
        """Cocycle value on the product of a generator word.

        Peeling the leftmost generator, c(g w) = pi(g) c(w) + c(g); the
        accumulator therefore runs from the right end of the word.
        """
        acc = np.zeros(self.rep.ball.size)
        for k in reversed(list(word)):
            acc = self.rep.apply_array(int(k), acc) + self.values[int(k)]
        return acc


def coboundary(rep: Representation, v: np.ndarray) -> Cocycle:
    """The cocycle g -> pi(g) v - v."""
    rep.check_admissible(v)
    return Cocycle(rep, rep.apply_array(slice(None), v) - v)


def extend_all(c: Cocycle) -> np.ndarray:
    """(n, n) array whose row i is c at ball element i, along BFS words.

    Row i is pi(g) row(parent) + c(g) with g = parent_gen[i]; a whole depth
    layer is gathered at once, since its parents are all one layer up.
    Exact in full mode; on truncations the values are exact as long as the
    accumulated supports stay inside the ball.
    """
    b = c.rep.ball
    out = np.zeros((b.size, b.size))
    for d in range(1, int(b.depth.max(initial=0)) + 1):
        layer = np.nonzero(b.depth == d)[0]
        k = b.parent_gen[layer]
        out[layer] = c.rep.apply_array(k, out[b.parent[layer]]) + c.values[k]
    return out


def inverse_law_residual(c: Cocycle) -> float:
    """max_k |c(g_k^-1) + pi(g_k^-1) c(g_k)|_p; zero for a cocycle, and exact
    for coboundaries in every mode."""
    inv = c.rep.handle.inverse_index
    resid = c.values[inv] + c.rep.apply_array(inv, c.values)
    return float(row_power_norms(resid, c.rep.p).max(initial=0.0))


def validate_cocycle(c: Cocycle, *, tol=1e-9, max_pairs=20000, seed=0) -> dict:
    """Check the cocycle law c(gh) = pi(g)c(h) + c(g) on the ball.

    Full mode checks all (generator, element) pairs up to `max_pairs`, then
    falls back to all generator pairs plus 100 seeded random ones.  Dirichlet
    mode checks the inverse law only (longer products leave the truncation).
    """
    rep = c.rep
    h = rep.handle
    b = rep.ball
    worst = inverse_law_residual(c)
    checked = h.n_generators

    if rep.mode == "full":
        ext = extend_all(c)
        n = b.size
        if h.n_generators * n <= max_pairs:
            ks, js = np.divmod(np.arange(h.n_generators * n), n)
        else:
            rng = np.random.default_rng(seed)
            pairs = [(k, j) for k in range(h.n_generators) for j in b.translate[:, 0]]
            pairs += [(rng.integers(h.n_generators), rng.integers(n)) for _ in range(100)]
            ks, js = np.array(pairs).T
        # blocks of n pairs keep the residual rows no larger than ext
        for s in range(0, len(ks), n):
            k, j = ks[s : s + n], js[s : s + n]
            resid = ext[b.translate[k, j]] - rep.apply_array(k, ext[j]) - c.values[k]
            worst = max(worst, float(row_power_norms(resid, rep.p).max()))
        checked += len(ks)

    scale = float(np.max(row_power_norms(c.values, rep.p), initial=1.0))
    return {"ok": worst <= tol * scale, "maxResidual": worst, "pairsChecked": checked}


@dataclass
class AffineAction:
    """alpha(g) v = pi(g) v + c(g); linear part plus cocycle part."""

    rep: Representation
    cocycle: Cocycle | None = None
    potential: np.ndarray | None = None  # f with c = d f, when known

    def __post_init__(self):
        if self.cocycle is not None and self.cocycle.rep is not self.rep:
            raise ValidationError("cocycle belongs to a different representation")
        if self.potential is not None:
            want = coboundary(self.rep, self.potential)
            if self.cocycle is None:
                self.cocycle = want
            else:
                resid = row_power_norms(want.values - self.cocycle.values, self.rep.p).max()
                if resid > 1e-12 * max(1.0, power_norm(self.potential, self.rep.p)):
                    raise ValidationError(
                        f"declared potential does not match cocycle (residual {resid:.3e})"
                    )

    @classmethod
    def linear(cls, rep: Representation) -> "AffineAction":
        return cls(rep, None, None)

    @classmethod
    def from_potential(cls, rep: Representation, f: np.ndarray) -> "AffineAction":
        """The action whose cocycle is the coboundary of f; -f is a fixed point."""
        return cls(rep, None, f)

    def displacements(self, values: np.ndarray) -> np.ndarray:
        """(K, n) array whose row k is alpha(g_k) v - v, for v given by its
        raw values; no admissibility check."""
        d = self.rep.apply_array(slice(None), values) - values
        if self.cocycle is not None:
            d = d + self.cocycle.values
        return d

    def apply(self, k: int, v: np.ndarray) -> np.ndarray:
        self.rep.check_admissible(v)
        w = self.rep.apply_array(k, v)
        if self.cocycle is not None:
            w = w + self.cocycle.values[k]
        return w

    def fixed_point_distance(self, v: np.ndarray) -> float:
        """The l^p distance from v to the fixed points of an action with a
        potential f0: -f0 + c 1 for every c in full mode, where constants
        are invariant, and -f0 alone in dirichlet mode."""
        offset = v + self.potential
        if self.rep.mode == "full":
            offset = offset - norm_minimising_shift(offset, self.rep.p)
        return power_norm(offset, self.rep.p)


# ---------------------------------------------------------------------------
# cohomology dimensions by rank computation (finite groups)


def cohomology_dims(rep: Representation, *, rank_tol=None, size_cap=64) -> dict:
    """dim Z^1, dim B^1 and dim H^1 of the regular representation.

    Z^1 is the solution space of the linear consistency constraints on the
    generator values (extension along canonical words must satisfy the
    cocycle law against every generator at every element); B^1 is the rank
    of the coboundary map.  Finite groups only.
    """
    if rep.mode != "full":
        raise InfiniteGroup("cohomology dimensions need a finite group in full mode")
    b = rep.ball
    h = rep.handle
    n = b.size
    m = h.n_generators
    if n > size_cap:
        raise ValidationError(f"cohomology rank computation capped at {size_cap} elements")

    perms = []
    for s in rep.table:
        P = np.zeros((n, n))
        P[np.arange(n), s] = 1.0
        perms.append(P)

    # symbolic extension: value at element i is S[i] @ U with U the stacked
    # generator unknowns (m blocks of length n)
    S = [None] * n
    S[0] = np.zeros((n, m * n))
    E = []
    for k in range(m):
        Ek = np.zeros((n, m * n))
        Ek[:, k * n : (k + 1) * n] = np.eye(n)
        E.append(Ek)
    for i in range(1, n):
        k = int(b.parent_gen[i])
        S[i] = perms[k] @ S[int(b.parent[i])] + E[k]

    rows = []
    for k in range(m):
        for j in range(n):
            t = int(b.translate[k][j])
            rows.append(S[t] - perms[k] @ S[j] - E[k])
    A = np.vstack(rows)
    rank_a = np.linalg.matrix_rank(A, tol=rank_tol)
    dim_z1 = m * n - int(rank_a)

    D = np.vstack([P - np.eye(n) for P in perms])
    dim_b1 = int(np.linalg.matrix_rank(D, tol=rank_tol))

    return {"dimZ1": dim_z1, "dimB1": dim_b1, "dimH1": dim_z1 - dim_b1}


def potential_from_cocycle(c: Cocycle) -> tuple[np.ndarray, float]:
    """Least-squares potential f with d f = c; returns (f, residual).

    The mean-zero representative is returned (uniqueness up to constants).
    """
    rep = c.rep
    b = rep.ball
    n = b.size
    mask = rep.admissible_mask
    cols = np.nonzero(mask)[0]
    blocks = []
    for k in range(rep.handle.n_generators):
        P = np.zeros((n, n + 1))  # the last column is the padding slot
        P[np.arange(n), rep.table[k]] = 1.0
        blocks.append((P[:, :n] - np.eye(n))[:, cols])
    A = np.vstack(blocks)
    bvec = c.values.reshape(-1)
    sol, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    values = np.zeros(n)
    values[cols] = sol
    if rep.mode == "full":
        values -= values.mean()
    resid = float(np.linalg.norm(A @ sol - bvec))
    return values, resid


# ---------------------------------------------------------------------------
# optimization domains


class Domain:
    """Linear subspace of admissible vectors for optimization and sampling."""

    name = "ambient"

    def __init__(self, rep: Representation):
        self.rep = rep

    def project(self, values: np.ndarray) -> np.ndarray:
        return values

    @property
    def dimension(self) -> int:
        return self.rep.ball.size

    def random_unit(self, rng: np.random.Generator) -> np.ndarray:
        for _ in range(100):
            vals = self.project(rng.standard_normal(self.rep.ball.size))
            nrm = power_norm(vals, self.rep.p)
            if nrm > 0:
                return vals / nrm
        raise ValidationError("could not sample a nonzero domain vector")

    def restrict_dual(self, xi: np.ndarray) -> np.ndarray:
        """Functional (l^q coefficients) with the same action on the domain,
        maximal-slope form."""
        return xi


class FullDomain(Domain):
    name = "full"


class MeanZeroDomain(Domain):
    """Orthogonal complement of constants on a finite group."""

    name = "mean-zero"

    def project(self, values: np.ndarray) -> np.ndarray:
        return values - values.mean()

    @property
    def dimension(self) -> int:
        return self.rep.ball.size - 1

    def restrict_dual(self, xi: np.ndarray) -> np.ndarray:
        # On mean-zero vectors, xi and xi - c*1 act identically; the quotient
        # representative of minimal l^q norm gives the exact restricted slope.
        q = conjugate_exponent(self.rep.p)
        if abs(q - 2.0) < 1e-14:
            c = xi.mean()
        else:
            c = norm_minimising_shift(xi, q)
        return xi - c


def norm_minimising_shift(vals: np.ndarray, q: float) -> float:
    """The c minimising sum |vals - c|^q, to rounding.

    c is the root of the strictly decreasing g(c) = sum psi(vals - c),
    psi(t) = sign(t)|t|^(q-1), which [min, max] brackets.  Newton steps from
    the mean.  A bisection replaces a step that leaves the bracket, that
    fails to halve the step before last, or that has no finite derivative
    (c on an entry, q < 2).  The search ends when g(c) is 0 up to the
    rounding of its terms, when a Newton step no longer moves c, or when no
    float is left inside the bracket.
    No tolerance is absolute, so the shift scales with vals.  That matters
    near a fixed point, where every dual entry is tiny: an absolute
    tolerance there returns a shift far from the minimiser, and so an
    overstated slope.
    """
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi or not np.isfinite(vals).all():
        return lo  # a constant, or no bracket to search
    c = min(max(float(vals.mean()), lo), hi)
    step_before_last = step = hi - lo
    while True:
        d = vals - c
        a = np.abs(d)
        psi = a ** (q - 1.0)
        g = float(np.sum(np.sign(d) * psi))
        if abs(g) <= np.finfo(float).eps * float(np.sum(psi)):
            return c  # g is 0 to within the rounding of its own terms
        if g > 0.0:
            lo = c
        else:
            hi = c
        with np.errstate(divide="ignore"):
            slope = (q - 1.0) * float(np.sum(a ** (q - 2.0)))  # -g'(c), > 0
        newton = c + g / slope
        if newton == c and slope < np.inf:
            return c
        if lo < newton < hi and abs(newton - c) <= step_before_last / 2.0:
            nxt = newton
        else:
            nxt = 0.5 * (lo + hi)
            if nxt in (lo, hi):
                return c
        step_before_last, step = step, abs(nxt - c)
        c = nxt


class DirichletDomain(Domain):
    """Vectors supported at word depth <= R-1 on a truncated infinite group."""

    name = "dirichlet"

    def __init__(self, rep: Representation):
        super().__init__(rep)
        self.mask = rep.admissible_mask

    def project(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        out[~self.mask] = 0.0
        return out

    @property
    def dimension(self) -> int:
        return int(np.count_nonzero(self.mask))

    def restrict_dual(self, xi: np.ndarray) -> np.ndarray:
        return self.project(xi)


def default_domain(rep: Representation, kind: str | None = None) -> Domain:
    """Domain factory: 'full', 'mean-zero' or 'dirichlet' (mode default)."""
    if kind is None:
        kind = "dirichlet" if rep.mode == "dirichlet" else "mean-zero"
    if kind in ("full", "ambient"):
        return FullDomain(rep)
    if kind in ("mean-zero", "mean_zero"):
        if rep.mode != "full":
            raise ValidationError("mean-zero domain needs a finite group in full mode")
        return MeanZeroDomain(rep)
    if kind == "dirichlet":
        if rep.mode != "dirichlet":
            raise ValidationError("dirichlet domain needs a dirichlet-mode representation")
        return DirichletDomain(rep)
    raise ValidationError(f"unknown domain kind {kind!r}")
