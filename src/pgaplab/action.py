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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InfiniteGroup, SupportViolation, ValidationError
from .groups import OUT_OF_BALL, CayleyBall
from .lpspace import LpVector, DualVector, power_norm, zero_vector


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

    def check_admissible(self, v: LpVector):
        if self.mode == "dirichlet":
            outside = ~self.admissible_mask
            if np.any(v.values[outside] != 0.0):
                bad = int(np.nonzero(outside & (v.values != 0.0))[0][0])
                raise SupportViolation(
                    f"vector has mass at depth {int(self.ball.depth[bad])} "
                    f"> {self.ball.radius - 1} (index {bad})"
                )

    def zero(self) -> LpVector:
        return zero_vector(self.ball, self.p)

    def random_admissible(self, rng: np.random.Generator, *, mean_zero=False) -> LpVector:
        vals = rng.standard_normal(self.ball.size)
        vals[~self.admissible_mask] = 0.0
        if mean_zero:
            vals -= vals.mean()
        return LpVector(self.ball, vals, self.p)

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

    def apply_generator(self, k: int, v: LpVector, *, check=True) -> LpVector:
        """Image of v under the k-th generator of K."""
        if check:
            self.check_admissible(v)
        return LpVector(self.ball, self.apply_array(k, v.values), self.p)

    def apply(self, gamma, v: LpVector, *, check=True) -> LpVector:
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
        out = v.values.copy()
        for k in reversed(self.ball.word_for(self.ball.locate(key))):
            out = self.apply_array(k, out)
        return LpVector(self.ball, out, self.p)


@dataclass
class Cocycle:
    """Values of a cocycle on the generating set, one l^p vector per generator."""

    rep: Representation
    values: list

    def __post_init__(self):
        if len(self.values) != self.rep.handle.n_generators:
            raise ValidationError("cocycle needs one value per generator")
        for v in self.values:
            if v.ball is not self.rep.ball or v.p != self.rep.p:
                raise ValidationError("cocycle values must live on the representation's ball")

    @classmethod
    def zero(cls, rep: Representation) -> "Cocycle":
        return cls(rep, [rep.zero() for _ in range(rep.handle.n_generators)])

    @classmethod
    def from_generator_values(cls, rep: Representation, assignment: dict, *, tol=1e-9) -> "Cocycle":
        """Build a cocycle from values on part of K, deriving inverses.

        `assignment` maps generator names or indices to LpVectors.  Missing
        inverse generators get the forced value -pi(g^-1) c(g); an involution
        must satisfy c(g) = -pi(g) c(g) up to `tol` or the data is rejected.
        """
        h = rep.handle
        by_index: dict[int, LpVector] = {}
        for key, vec in assignment.items():
            if isinstance(key, (int, np.integer)):
                k = int(key)
            else:
                try:
                    k = h.names.index(key)
                except ValueError:
                    raise ValidationError(f"unknown generator {key!r}") from None
            by_index[k] = vec
        values: list = [None] * h.n_generators
        for k, vec in by_index.items():
            values[k] = vec
        for k in range(h.n_generators):
            if values[k] is not None:
                continue
            ki = int(h.inverse_index[k])
            if values[ki] is None:
                raise ValidationError(
                    f"no value given for generator {h.names[k]} or its inverse"
                )
            values[k] = -rep.apply_generator(k, values[ki], check=False)
        c = cls(rep, values)
        report = validate_cocycle(c, tol=tol)
        if not report["ok"]:
            raise ValidationError(
                f"assignment does not extend to a cocycle: max residual {report['maxResidual']:.3e}"
            )
        return c

    def extend(self, word: Sequence[int]) -> LpVector:
        """Cocycle value on the product of a generator word.

        Peeling the leftmost generator, c(g w) = pi(g) c(w) + c(g); the
        accumulator therefore runs from the right end of the word.
        """
        acc = self.rep.zero()
        for k in reversed(list(word)):
            acc = self.rep.apply_generator(int(k), acc, check=False) + self.values[int(k)]
        return acc


def coboundary(rep: Representation, v: LpVector) -> Cocycle:
    """The cocycle g -> pi(g) v - v."""
    rep.check_admissible(v)
    disp = rep.apply_array(slice(None), v.values) - v.values
    return Cocycle(rep, [LpVector(rep.ball, d, rep.p) for d in disp])


def extend_all(c: Cocycle) -> list[LpVector]:
    """Extend a cocycle to every ball element along canonical BFS words.

    Exact in full mode; on truncations the values are exact as long as the
    accumulated supports stay inside the ball.
    """
    b = c.rep.ball
    out: list = [None] * b.size
    out[0] = c.rep.zero()
    for i in range(1, b.size):
        k = int(b.parent_gen[i])
        out[i] = c.rep.apply_generator(k, out[int(b.parent[i])], check=False) + c.values[k]
    return out


def validate_cocycle(c: Cocycle, *, tol=1e-9, max_pairs=20000, seed=0) -> dict:
    """Check the cocycle law c(gh) = pi(g)c(h) + c(g) on the ball.

    Full mode checks all (generator, element) pairs up to `max_pairs`, then
    falls back to all generator pairs plus 100 seeded random ones.  Dirichlet
    mode checks the inverse law only (longer products leave the truncation).
    """
    rep = c.rep
    h = rep.handle
    b = rep.ball
    worst = 0.0
    checked = 0

    # inverse law c(g^-1) = -pi(g^-1) c(g); exact for coboundaries
    for k in range(h.n_generators):
        ki = int(h.inverse_index[k])
        resid = (c.values[ki] + rep.apply_generator(ki, c.values[k], check=False)).norm()
        worst = max(worst, resid)
        checked += 1

    if rep.mode == "full":
        ext = extend_all(c)
        n = b.size
        pairs: list[tuple[int, int]] = []
        if h.n_generators * n <= max_pairs:
            pairs = [(k, j) for k in range(h.n_generators) for j in range(n)]
        else:
            gen_indices = [b.translate[k][0] for k in range(h.n_generators)]
            pairs = [(k, int(j)) for k in range(h.n_generators) for j in gen_indices]
            rng = np.random.default_rng(seed)
            pairs += [
                (int(rng.integers(h.n_generators)), int(rng.integers(n))) for _ in range(100)
            ]
        for k, j in pairs:
            t = int(b.translate[k][j])
            resid = (
                ext[t] - rep.apply_generator(k, ext[j], check=False) - c.values[k]
            ).norm()
            worst = max(worst, resid)
            checked += 1

    scale = max([v.norm() for v in c.values] + [1.0])
    return {"ok": worst <= tol * scale, "maxResidual": worst, "pairsChecked": checked}


@dataclass
class AffineAction:
    """alpha(g) v = pi(g) v + c(g); linear part plus cocycle part."""

    rep: Representation
    cocycle: Cocycle | None = None
    potential: LpVector | None = None  # f with c = d f, when known
    shift: np.ndarray | None = field(init=False, repr=False)  # (K, n) cocycle values

    def __post_init__(self):
        if self.cocycle is not None and self.cocycle.rep is not self.rep:
            raise ValidationError("cocycle belongs to a different representation")
        if self.potential is not None:
            want = coboundary(self.rep, self.potential)
            if self.cocycle is None:
                self.cocycle = want
            else:
                resid = max(
                    (want.values[k] - self.cocycle.values[k]).norm()
                    for k in range(self.rep.handle.n_generators)
                )
                if resid > 1e-12 * max(1.0, self.potential.norm()):
                    raise ValidationError(
                        f"declared potential does not match cocycle (residual {resid:.3e})"
                    )
        self.shift = None
        if self.cocycle is not None:
            self.shift = np.stack([c.values for c in self.cocycle.values])

    @classmethod
    def linear(cls, rep: Representation) -> "AffineAction":
        return cls(rep, None, None)

    @classmethod
    def from_potential(cls, rep: Representation, f: LpVector) -> "AffineAction":
        rep.check_admissible(f)
        return cls(rep, coboundary(rep, f), f)

    def displacements(self, values: np.ndarray) -> np.ndarray:
        """(K, n) array whose row k is alpha(g_k) v - v, for v given by its
        raw values; no admissibility check."""
        d = self.rep.apply_array(slice(None), values) - values
        if self.shift is not None:
            d = d + self.shift
        return d

    def apply(self, k: int, v: LpVector) -> LpVector:
        w = self.rep.apply_generator(k, v)
        if self.cocycle is not None:
            w = w + self.cocycle.values[k]
        return w


def mean_zero_project(v: LpVector) -> LpVector:
    """Subtract the mean; idempotent, kills constants, preserved by the action."""
    return LpVector(v.ball, v.values - v.values.mean(), v.p)


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


def potential_from_cocycle(c: Cocycle) -> tuple[LpVector, float]:
    """Least-squares potential f with d f = c; returns (f, residual).

    The mean-zero representative is returned (uniqueness up to constants).
    """
    rep = c.rep
    b = rep.ball
    n = b.size
    mask = rep.admissible_mask
    cols = np.nonzero(mask)[0]
    blocks = []
    rhs = []
    for k in range(rep.handle.n_generators):
        P = np.zeros((n, n + 1))  # the last column is the padding slot
        P[np.arange(n), rep.table[k]] = 1.0
        blocks.append((P[:, :n] - np.eye(n))[:, cols])
        rhs.append(c.values[k].values)
    A = np.vstack(blocks)
    bvec = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    values = np.zeros(n)
    values[cols] = sol
    if rep.mode == "full":
        values -= values.mean()
    f = LpVector(b, values, rep.p)
    resid = float(np.linalg.norm(A @ sol - bvec))
    return f, resid


# ---------------------------------------------------------------------------
# optimization domains


class Domain:
    """Linear subspace of admissible vectors for optimization and sampling."""

    name = "ambient"
    fixed_vector_free = False  # set once gaps.ensure_no_fixed_vectors has passed

    def __init__(self, rep: Representation):
        self.rep = rep

    def project(self, values: np.ndarray) -> np.ndarray:
        return values

    def random_unit(self, rng: np.random.Generator) -> LpVector:
        for _ in range(100):
            vals = self.project(rng.standard_normal(self.rep.ball.size))
            nrm = power_norm(vals, self.rep.p)
            if nrm > 0:
                return LpVector(self.rep.ball, vals / nrm, self.rep.p)
        raise ValidationError("could not sample a nonzero domain vector")

    def restrict_dual(self, xi: DualVector) -> DualVector:
        """Functional with the same action on the domain, maximal-slope form."""
        return xi


class FullDomain(Domain):
    name = "full"


class MeanZeroDomain(Domain):
    """Orthogonal complement of constants on a finite group."""

    name = "mean-zero"

    def project(self, values: np.ndarray) -> np.ndarray:
        return values - values.mean()

    def restrict_dual(self, xi: DualVector) -> DualVector:
        # On mean-zero vectors, xi and xi - c*1 act identically; the quotient
        # representative of minimal l^q norm gives the exact restricted slope.
        from scipy.optimize import minimize_scalar

        vals = xi.values
        if abs(xi.q - 2.0) < 1e-14:
            c = vals.mean()
        else:
            lo, hi = float(vals.min()), float(vals.max())
            if lo == hi:
                c = lo
            else:
                res = minimize_scalar(
                    lambda c: float(np.sum(np.abs(vals - c) ** xi.q)),
                    bounds=(lo, hi),
                    method="bounded",
                    options={"xatol": 1e-14},
                )
                c = float(res.x)
        return DualVector(xi.ball, vals - c, xi.q)


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

    def restrict_dual(self, xi: DualVector) -> DualVector:
        return DualVector(xi.ball, self.project(xi.values), xi.q)


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
