"""Gap constants: displacement, gradient infimum, Laplacian inequality.

The paper's constants live on the part of the representation with no
invariant vectors, and the ball fixes it (`default_domain`): the mean-zero
space of a whole finite group, the dirichlet interior of any other ball.
`equivalence_report` and `displacement_constant` take the representation
and build that domain themselves, so no caller hands them another space;
the helpers below them act on the domain they are given.  The guard
(`ensure_no_fixed_vectors`) rejects a domain that holds only the zero
vector.

Every estimate of an infimum produced here is an upper bound (optimization
can miss the global minimum) unless an exact oracle gave it, and is tagged
by method.  There are two exact oracles, both at p = 2, where F_2(v)^2 =
<v, L v> is a quadratic form and C_2 is the square root of L's least
eigenvalue on the domain:

- "exact-fourier": character diagonalization on the mean-zero space of a
  cyclic group gives C_2 and C_disp;
- "exact-eigen": on every other domain, Lanczos through the gather table
  gives a Ritz vector v and C_2 = F_2(v)/|v|.  It certifies C_disp =
  F_inf(v)/|v| as well when every generator displaces v by the same
  amount to rounding (free groups and lattices on dirichlet balls); on a
  degenerate eigenspace (symmetric and dihedral groups) it does not, and
  C_disp is a multistart estimate.

A third tag certifies an upper bound within a relative width of its true
value:

- "bracketed": on a dirichlet domain at p != 2, one descent on F_p/|.|_p
  from |Ritz vector of L| ends at v, and Barta's inequality for the graph
  p-Laplacian turns phi = |v| into a lower bound L <= C_p
  (`barta_lower_bound`).  C_p = F_p(v)/|v|_p and C_disp = F_inf(v)/|v|_p
  are tagged when their value is within BRACKET_RTOL of L, relative; they
  are upper bounds with L as a certified lower bound.  When the bracket
  does not close, the multistart runs as before, with v in its pool and L
  still the certified lower bound.

The dense eigenvalue solve that cross-checks the Lanczos value lives in
the tests only.

Each estimate is keyed by its generator exponent: C_disp by inf, C_r by r
and C_p by p.  The oracle that applies to the domain always runs, once per
report, and gives exact or bracketed estimates by exponent; the others
minimize energy ratios F_r(v)/|v|_p by multistart descent, with SMOOTH_R
in place of r = inf.  A caller that wants the multistart alone passes
`displacement_constant` an empty `Oracle`.  Every point those runs
produce, and every oracle vector, joins one ordered pool, and each
multistart estimate is the first minimum of its ratio over the pool, taken
once per vector and distinct exponent.  The slope is taken inside the
domain; there inf slope = C_p and inf Laplacian ratio = C_p/2 (see
`gradient_constant`), so C_grad and C_lap are read off the C_p estimate.
A report gives each constant a certified lower bound where one is known
(`lower_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._optimize import (
    _normalize,
    multistart_minimize,
    sphere_minimize,
    trajectory_summary,
)
from .action import (
    AffineAction,
    DirichletDomain,
    Domain,
    MeanZeroDomain,
    Representation,
    default_domain,
)
from .energy import dirichlet_norm, p_laplacian, weighted_r_mean, weighted_sum
from .errors import ValidationError, ZeroDomain
from .gradient import abs_gradient, descend, DescentOptions, restricted_slope
from .lpspace import conjugate_exponent, power_norm, row_power_norms, signed_power


@dataclass
class GapOptions:
    """Reproducibility knobs for the multistart minimizations: starts and
    iterations per run, the seed, and warm starts that join every run.  The
    oracle that applies to a domain always runs (`_guarded_oracle`)."""

    starts: int = 32
    iters: int = 10_000
    seed: int = 0
    extra_starts: tuple = ()

    def to_dict(self) -> dict:
        return {
            "starts": self.starts,
            "iters": self.iters,
            "seed": self.seed,
            "extraStarts": len(self.extra_starts),
        }


# ---------------------------------------------------------------------------
# fixed-vector guard


def ensure_no_fixed_vectors(domain: Domain):
    """Raise ZeroDomain when the domain holds only the zero vector: the
    mean-zero space of a one-element group, where no unit vector exists to
    take an infimum over.

    `default_domain` holds no nonzero invariant vector, so nothing else is
    checked here.  The ball is a connected Cayley graph, so an invariant
    vector is constant on it.  On a whole finite group the mean-zero space
    holds no nonzero constant; a ball that is not the whole group has a
    nonempty layer at depth R >= 1, where dirichlet vectors vanish and a
    nonzero constant does not.
    """
    if domain.dimension == 0:
        rep = domain.rep
        raise ZeroDomain(f"domain {domain.name!r} on {rep.handle.label} holds only the zero vector")


# ---------------------------------------------------------------------------
# objectives (euclidean, 0-homogeneous): values to (value, gradient callable)


def _adjoint_sum(rep: Representation, coef: np.ndarray, rows: np.ndarray, gens=slice(None)):
    """sum_k coef[k] (pi(g_k)^* - 1) rows[k] over the generators `gens`.

    pi(g_k)^* is pi of the inverse generator, so one gather through the
    table's inverse rows applies every adjoint at once.
    """
    adjoint = rep.apply_array(rep.handle.inverse_index[gens], rows) - rows
    return weighted_sum(coef, adjoint)


def make_energy_ratio_objective(action: AffineAction, r: float):
    """Objective F_r(v) / |v|_p for the multistart engine.

    Maps values to (value, gradient): the ratio, computed at once, and a
    zero-argument callable that returns its euclidean gradient from the
    displacements and norms the value already built.
    """
    rep = action.rep
    p = rep.p
    m = rep.weights

    def value_and_gradient(values: np.ndarray):
        disp = action.displacements(values)
        norms = row_power_norms(disp, p)
        nv = power_norm(values, p)
        F = float(norms.max(initial=0.0)) if np.isinf(r) else weighted_r_mean(norms, m, r)

        def gradient():
            if np.isinf(r):
                k_star = int(np.argmax(norms))
                if F == 0.0:
                    gF = np.zeros_like(values)
                else:
                    jv = signed_power(disp[k_star], p - 1.0) / F ** (p - 1.0)
                    gF = rep.apply_array(rep.handle.inverse_index[k_star], jv) - jv
            else:
                gF = np.zeros_like(values)
                if F > 0.0:
                    live = np.nonzero(norms)[0]  # a zero displacement has no slope
                    # scalar powers: an array ** can round differently in the last bit
                    scale = np.array([norms[k] ** (p - 1.0) for k in live])
                    coef = np.array([m[k] * (norms[k] / F) ** (r - 1.0) for k in live])
                    jd = signed_power(disp[live], p - 1.0) / scale[:, None]
                    gF = _adjoint_sum(rep, coef, jd, live)
            jn = signed_power(values, p - 1.0) / nv ** (p - 1.0)
            return (gF * nv - F * jn) / nv**2

        return F / nv, gradient

    return value_and_gradient


# ---------------------------------------------------------------------------
# exact oracles


def character_displacements(handle, mode: int) -> np.ndarray:
    """Per-generator displacement factors |exp(2 pi i k a / n) - 1| on mode k,
    computed as 2 sin(pi j / n) with j = (k a) mod n folded to min(j, n - j),
    so that modes k and n - k, and generators a and -a, give equal bits."""
    n = handle.order
    j = np.array([mode * int(g) % n for g in handle.generators])
    return 2.0 * np.sin(np.pi * np.minimum(j, n - j) / n)


def cyclic_exact_constants(rep: Representation) -> dict:
    """Exact estimates of a cyclic group at p = 2, keyed by generator
    exponent: {inf: C_disp, 2.0: C_2}.

    On the mean-zero complement the squared generator displacement of a
    unit vector is a convex combination sum_k nu_k d(g,k)^2 over nontrivial
    modes, so the minimax (r = inf) is a small linear program and the r = 2
    constant is attained on a pure mode.
    """
    h = rep.handle
    if h.family != "cyclic" or rep.p != 2.0:
        raise ValidationError("exact character oracle needs a cyclic group at p = 2")
    n = h.order
    modes = list(range(1, n))
    d2 = np.array([character_displacements(h, k) ** 2 for k in modes])  # (modes, K)
    m = h.weights

    # r = 2: linear in nu, minimized on a pure mode
    per_mode_r2 = np.sqrt(d2 @ m)
    k2 = int(np.argmin(per_mode_r2))
    c_2 = float(per_mode_r2[k2])

    # r = inf: min over nu of max_g nu . d2[:, g]
    from scipy.optimize import linprog

    n_modes = len(modes)
    # variables: (nu_1..nu_m, z); minimize z subject to d2^T nu <= z, sum nu = 1
    c = np.zeros(n_modes + 1)
    c[-1] = 1.0
    A_ub = np.hstack([d2.T, -np.ones((len(h.generators), 1))])
    b_ub = np.zeros(len(h.generators))
    A_eq = np.zeros((1, n_modes + 1))
    A_eq[0, :n_modes] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=[(0, None)] * n_modes + [(None, None)])
    if not res.success:
        raise ValidationError(f"character linear program failed: {res.message}")
    nu = res.x[:n_modes]
    c_disp = float(np.sqrt(res.x[-1]))

    def mode_vector(weights_nu):
        vals = np.zeros(rep.ball.size)
        for k, w in zip(modes, weights_nu):
            if w <= 1e-15:
                continue
            col = np.array([np.cos(2 * np.pi * k * int(g) / n) for g in rep.ball.elements])
            col -= col.mean()
            norm = np.linalg.norm(col)
            if norm == 0.0:
                col = np.array([np.sin(2 * np.pi * k * int(g) / n) for g in rep.ball.elements])
                norm = np.linalg.norm(col)
            vals += np.sqrt(w) * col / norm
        return vals

    return {
        np.inf: ConstantEstimate(c_disp, mode_vector(nu), "exact-fourier"),
        2.0: ConstantEstimate(c_2, mode_vector(np.eye(n_modes)[k2]), "exact-fourier"),
    }


# Lanczos stops once a Ritz residual, or the next Krylov direction, is at
# most 4 * LANCZOS_RTOL: the weights sum to 1, so 4 bounds the norm of L
LANCZOS_RTOL = 1e-13
LANCZOS_BLOCK = 16  # basis rows allocated at a time
# F_inf(v) <= (1 + EQUAL_DISPLACEMENT_RTOL) F_2(v) certifies C_disp at v
EQUAL_DISPLACEMENT_RTOL = 1e-12


def _lanczos_ritz_vector(domain: Domain, seed: int) -> np.ndarray:
    """A unit Ritz vector for the least Ritz value of the p = 2 energy form
    L = sum_k w_k (pi(g_k)^* - 1)(pi(g_k) - 1) on the domain, where
    F_2(v)^2 = <v, L v>.

    Lanczos from a projected Gaussian drawn from `seed`, with every new
    direction orthogonalised against the whole basis twice.  L is applied
    through the gather table and never built.  The basis grows a block of
    rows at a time, and the tridiagonal matrix is diagonalised only at
    steps spaced a quarter apart, and at the last.  The run stops when the
    least Ritz pair's residual beta_j |s_j| is at most 4 * LANCZOS_RTOL,
    when beta_j itself is (the Krylov space is invariant to rounding), or
    when the basis spans the domain.
    """
    rep = domain.rep
    n = rep.ball.size
    dim = domain.dimension
    tol = 4.0 * LANCZOS_RTOL

    def apply_form(v):
        d = rep.apply_array(slice(None), v) - v
        return domain.project(_adjoint_sum(rep, rep.weights, d))

    q = domain.project(np.random.default_rng(seed).standard_normal(n))
    q /= np.linalg.norm(q)
    blocks = []  # unfilled rows are zero, so they drop out of the products
    alpha, beta = [], []
    check = 8
    while True:
        j = len(alpha)
        if j % LANCZOS_BLOCK == 0:
            blocks.append(np.zeros((LANCZOS_BLOCK, n)))
        blocks[-1][j % LANCZOS_BLOCK] = q
        w = apply_form(q)
        alpha.append(float(q @ w))
        for _ in range(2):
            for block in blocks:
                w -= block.T @ (block @ w)
        # the projection keeps rounding off the domain from growing when w is small
        w = domain.project(w)
        beta.append(float(np.linalg.norm(w)))
        steps = j + 1
        last = beta[-1] <= tol or steps == dim
        if last or steps >= check:
            off = beta[:-1]
            _, s = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
            if last or beta[-1] * abs(s[-1, 0]) <= tol:
                break
            check = steps + max(1, steps // 4)
        q = w / beta[-1]
    coef = np.zeros(len(blocks) * LANCZOS_BLOCK)
    coef[:steps] = s[:, 0]
    v = sum(c @ block for c, block in zip(coef.reshape(len(blocks), -1), blocks))
    return _normalize(domain, v)


def eigen_exact_constants(domain: Domain, seed: int) -> dict:
    """Exact estimates at p = 2 from a Lanczos Ritz vector v, keyed by
    generator exponent: {2.0: C_2}, and {inf: C_disp} as well when v
    certifies it.

    C_2 = F_2(v)/|v|.  Power means give C_2 <= C_disp <= F_inf(v)/|v|, so
    when every generator displaces v by the same amount, F_inf(v) <=
    (1 + EQUAL_DISPLACEMENT_RTOL) F_2(v), C_disp is F_inf(v)/|v| to
    rounding.  On a degenerate bottom eigenspace (symmetric and dihedral
    groups) the generators displace v unequally, and C_disp is left out.
    """
    v = _lanczos_ritz_vector(domain, seed)
    action = AffineAction.linear(domain.rep)
    c_2 = make_energy_ratio_objective(action, 2.0)(v)[0]
    c_inf = make_energy_ratio_objective(action, np.inf)(v)[0]
    exact = {2.0: ConstantEstimate(c_2, v, "exact-eigen")}
    if c_inf <= (1.0 + EQUAL_DISPLACEMENT_RTOL) * c_2:
        exact[np.inf] = ConstantEstimate(c_inf, v, "exact-eigen")
    return exact


# a bracketed estimate's value is within this of its lower bound, relative.
# The value is quadratic in the error of the end point and Barta's bound
# linear, so a descent stalls at widths near 1e-6 on lattice balls
# (integer_lattice(1) R = 16, p = 1.5: 1.05e-6); 1e-5 leaves a margin.
BRACKET_RTOL = 1e-5

# a multistart at r = inf minimizes F_SMOOTH_R, a smooth proxy for the max;
# C_disp's polish runs on the max itself, at most POLISH_ITERS iterations each
SMOOTH_R = 64.0
POLISH_ITERS = 500


def barta_lower_bound(domain: Domain, phi: np.ndarray) -> float | None:
    """Barta's lower bound on C_p from phi > 0 on a dirichlet domain: the
    p-th root of the least (L_p phi)(x) / phi(x)^(p-1) over the domain's
    support, or None when phi vanishes there.

    At r = p, F_p(f)^p is the p-Dirichlet energy, whose gradient is p L_p f
    with L_p f = sum_k w_k (pi(g_k)^* - 1) psi(pi(g_k) f - f), psi(t) =
    |t|^(p-2) t.  Picone's inequality, edge by edge, bounds the energy of
    every f supported on the domain by that least quotient times |f|_p^p
    (Amghibech, Ars Combin. 67, 2003).  One gather and one adjoint sum, so
    no n x n array is built.  A negative least quotient bounds C_p by 0.
    """
    support = domain.mask
    if not (phi[support] > 0.0).all():
        return None
    rep = domain.rep
    p = rep.p
    d = rep.apply_array(slice(None), phi) - phi
    lap = _adjoint_sum(rep, rep.weights, signed_power(d, p - 1.0))
    least = float(np.min(lap[support] / phi[support] ** (p - 1.0)))
    return max(least, 0.0) ** (1.0 / p)


@dataclass
class Oracle:
    """What the oracles give a domain before any multistart: exact or
    bracketed estimates by generator exponent, a certified lower bound on
    C_p (None when none is known), and the vectors that join every
    multistart pool, each once."""

    estimates: dict = field(default_factory=dict)
    lower: float | None = None
    vectors: list = field(default_factory=list)


def _exact_oracle(exact: dict) -> Oracle:
    """The Oracle of exact p = 2 estimates: C_2 bounds itself, and each
    distinct certificate joins the pool once, in estimate order."""
    certificates = {id(est.certificate): est.certificate for est in exact.values()}
    return Oracle(exact, exact[2.0].value, list(certificates.values()))


def bracketed_constants(domain: DirichletDomain, opts: GapOptions) -> Oracle:
    """Bracketed estimates of C_p and C_disp on a dirichlet domain at p != 2.

    One sphere_minimize run on F_p/|.|_p, capped at opts.iters, starts from
    |v0|, v0 the Lanczos Ritz vector of the p = 2 form (which does not
    depend on p), and ends at v.  L = `barta_lower_bound` at |v| is a
    certified lower bound on C_p, and so on C_disp >= C_p.  C_p =
    F_p(v)/|v|_p, and C_disp = F_inf(v)/|v|_p, are each tagged "bracketed"
    when (value - L) <= BRACKET_RTOL value; at the minimizer every
    generator displaces v equally, so both close together.  When C_p's
    bracket does not close, the Oracle gives no estimate, and v and L only.
    """
    action = AffineAction.linear(domain.rep)
    start = np.abs(_lanczos_ritz_vector(domain, opts.seed))
    objective = make_energy_ratio_objective(action, domain.rep.p)
    value, v, traj = sphere_minimize(objective, domain, start, opts.iters)
    lower = barta_lower_bound(domain, np.abs(v))
    oracle = Oracle(lower=lower, vectors=[v])
    if lower is None or value - lower > BRACKET_RTOL * value:
        return oracle
    diagnostics = trajectory_summary([(value, traj)])
    oracle.estimates[domain.rep.p] = ConstantEstimate(value, v, "bracketed", diagnostics)
    c_inf = make_energy_ratio_objective(action, np.inf)(v)[0]
    if c_inf - lower <= BRACKET_RTOL * c_inf:
        oracle.estimates[np.inf] = ConstantEstimate(c_inf, v, "bracketed", diagnostics)
    return oracle


def kesten_bound(rank: int, p: float) -> float:
    """Lower bound on C_p for the free group of rank k with its 2k standard
    generators and uniform weight, on every finitely supported vector.

    Barta's quotient of the radial phi(x) = a^|x| is, at |x| >= 1,
    (1 - a)^(p-1) ((2k - 1) - a^(1-p)) / k, and larger at the identity and
    next to a truncation, so C_p^p is at least its maximum over 0 < a < 1.
    The derivative in a has the sign of a^(-p) - (2k - 1), so the maximum
    is at a = (2k - 1)^(-1/p), where the quotient is (2k - 1)(1 - a)^p / k.
    At p = 2 this is Kesten's sqrt(2 (1 - sqrt(2k-1)/k)), returned in that
    closed form.
    """
    k = rank
    if p == 2.0:
        return float(np.sqrt(2.0 * (1.0 - np.sqrt(2.0 * k - 1.0) / k)))
    c = 2.0 * k - 1.0
    return ((c / k) ** (1.0 / p)) * (1.0 - c ** (-1.0 / p))


def kesten_displacement_bound(rank: int) -> float:
    """Lower bound sqrt(2 (1 - sqrt(2k-1)/k)) on C_2 for the free group of rank k.

    The averaging operator on the rank-k free group with its 2k standard
    generators and uniform weight has norm sqrt(2k-1)/k, so the r = 2
    energy of every unit vector is at least sqrt(2(1 - sqrt(2k-1)/k)).
    It is `kesten_bound(rank, 2.0)`.
    """
    return kesten_bound(rank, 2.0)


def tent_vector(rep: Representation) -> np.ndarray:
    """Tent profile max(0, 1 - |x|/R) on a rank-1 lattice ball; admissible."""
    h = rep.handle
    if h.family != "integer_lattice" or len(rep.ball.elements[0]) != 1:
        raise ValidationError("tent profile is defined for integer_lattice(1)")
    R = rep.ball.radius
    return np.array([max(0.0, 1.0 - abs(g[0]) / R) for g in rep.ball.elements])


def laplacian_ratio(rep: Representation, f: np.ndarray) -> float:
    """Ambient Laplacian ratio |Delta_p f|_q / |f|_{D_p}^(p-1).

    It is half the ambient slope `abs_gradient` at f.  C_lap is the infimum
    of half the restricted slope instead (`laplacian_constant`), which is
    at most this ratio on every vector of the domain.
    """
    dnorm = dirichlet_norm(rep, f)
    if dnorm == 0.0:
        raise ValidationError("Laplacian ratio undefined on constants")
    lap = p_laplacian(rep, f)
    return power_norm(lap, conjugate_exponent(rep.p)) / dnorm ** (rep.p - 1.0)


# ---------------------------------------------------------------------------
# constant estimators


@dataclass
class ConstantEstimate:
    value: float
    certificate: np.ndarray
    method: str
    # trajectory_summary of the runs behind the estimate; no runs for an exact one
    diagnostics: dict = field(default_factory=lambda: trajectory_summary([]))
    # the leading pool vectors a multistart estimate has been reduced over
    pool: list = field(default_factory=list)


def _guarded_oracle(domain: Domain, opts: GapOptions) -> Oracle:
    """The fixed-vector guard, then the oracle that applies to the domain:
    at p = 2 the character oracle's exact estimates on the mean-zero space
    of a cyclic group, the Lanczos oracle's (`eigen_exact_constants`) on
    every other domain; at p != 2 the bracketed ones (`bracketed_constants`)
    on a dirichlet domain.  An empty Oracle on a mean-zero domain at p != 2,
    where none applies.

    The guard comes first: the oracles have no unit vector to build on a
    domain that holds only the zero vector.  A caller that wants the
    multistart alone passes `displacement_constant` an empty Oracle."""
    ensure_no_fixed_vectors(domain)
    rep = domain.rep
    if rep.p != 2.0:
        return bracketed_constants(domain, opts) if isinstance(domain, DirichletDomain) else Oracle()
    if rep.handle.family == "cyclic" and rep.mode == "full" and isinstance(domain, MeanZeroDomain):
        return _exact_oracle(cyclic_exact_constants(rep))
    return _exact_oracle(eigen_exact_constants(domain, opts.seed))


def _ratio_multistart(action: AffineAction, r: float, opts: GapOptions, domain: Domain):
    """Multistart descent on F_r/|.|_p, on F_SMOOTH_R/|.|_p for r = inf:
    the finite end points in pool order, and the (final value, Trajectory)
    pair of every run."""
    r_run = SMOOTH_R if np.isinf(r) else r
    pool = multistart_minimize(
        make_energy_ratio_objective(action, r_run),
        domain,
        starts=opts.starts,
        iters=opts.iters,
        seed=opts.seed,
        extra_starts=opts.extra_starts,
    )
    vecs = [vec for (val, vec, _traj) in pool if np.isfinite(val)]
    return vecs, [(val, traj) for (val, _vec, traj) in pool]


def _multistart_estimate(runs) -> ConstantEstimate:
    """A multistart estimate before any pool reduction, with the
    trajectory_summary of its (final value, Trajectory) runs."""
    return ConstantEstimate(np.inf, None, "multistart", trajectory_summary(runs))


def _reduce(action: AffineAction, estimates: dict, exponents: dict, pool: list) -> dict:
    """The estimates, by name, with each multistart one continued over the
    pool vectors it has not been reduced over, in pool order, to the first
    minimum of the energy ratio at its generator exponent (`exponents`, by
    name).  Estimates that share an exponent share one reduction: the first
    leads, and the others take its value and certificate but keep their
    own diagnostics."""
    leaders = {}
    for key, est in estimates.items():
        leaders.setdefault(exponents[key], est)
    for exponent, est in leaders.items():
        if est.method == "multistart":
            objective = make_energy_ratio_objective(action, exponent)
            for v in pool[len(est.pool):]:
                value = objective(v)[0]
                if value < est.value:
                    est = replace(est, value=value, certificate=v)
            leaders[exponent] = replace(est, pool=pool)
    return {key: replace(leaders[exponents[key]], diagnostics=est.diagnostics) for key, est in estimates.items()}


def displacement_constant(
    rep: Representation, r: float, options: GapOptions | None = None, *, oracle: Oracle | None = None
) -> tuple[ConstantEstimate, ConstantEstimate]:
    """Estimate (C_disp, C_r) on `default_domain(rep)`: infima over its unit
    sphere of the max generator displacement and of the r-mean displacement
    energy.

    `oracle` is what `_guarded_oracle` gave for that domain; by default the
    guard and the oracle run here, and an empty Oracle leaves both
    estimates to the multistart.  Estimates its exact or bracketed ones
    lack come from multistart projected gradient descent at r (at SMOOTH_R
    for r = inf), and a polish of every end point on the max itself, of at
    most POLISH_ITERS iterations.  When only C_r is given (C_2 on a
    degenerate eigenspace, or a bracketed C_p beside an open C_disp
    bracket), the multistart still runs at r to seed C_disp's polish, and
    C_disp's diagnostics count its runs with the polish runs, the seed
    runs without their final values, which are of another objective.
    Both are reduced over one pool: the end points, the polished points,
    the warm starts and every oracle vector, once.  At r = inf C_r is
    C_disp with its own diagnostics.  Warm starts lower only multistart
    estimates; a bracketed one is within BRACKET_RTOL of the infimum, so
    sweeps of it are nonincreasing up to that, not by construction.
    """
    opts = options or GapOptions()
    domain = default_domain(rep)
    if oracle is None:
        oracle = _guarded_oracle(domain, opts)
    exact = oracle.estimates
    if np.inf in exact and r in exact:
        return exact[np.inf], exact[r]
    action = AffineAction.linear(rep)
    runs, seed_runs = _ratio_multistart(action, r, opts, domain)

    # polish toward the true max with the active-generator subgradient
    obj_inf = make_energy_ratio_objective(action, np.inf)
    polish_runs = [sphere_minimize(obj_inf, domain, vec, POLISH_ITERS) for vec in runs]
    # the raw warm starts too, not just the trajectories they seed: that makes
    # sweep estimates nonincreasing under warm starting by construction
    extras = [_normalize(domain, np.asarray(v, dtype=float)) for v in opts.extra_starts]
    pool = runs + [w for (_val, w, _traj) in polish_runs] + [w for w in extras if w is not None]
    pool += oracle.vectors

    disp_runs = [(val, traj) for (val, _w, traj) in polish_runs]
    if r in exact:
        disp_runs = [(np.nan, traj) for (_val, traj) in seed_runs] + disp_runs
    estimates = {
        "C_disp": exact.get(np.inf) or _multistart_estimate(disp_runs),
        "C_r": exact.get(r) or _multistart_estimate(seed_runs),
    }
    reduced = _reduce(action, estimates, {"C_disp": np.inf, "C_r": r}, pool)
    return reduced["C_disp"], reduced["C_r"]


def gradient_constant(est_p: ConstantEstimate, domain: Domain) -> ConstantEstimate:
    """C_grad, the infimum of the restricted slope over the domain, read off
    an estimate of C_p, the infimum of F_p(v)/|v|_p.

    Stepping along -v, which stays in the domain, gives slope(v) >=
    F_p(v)/|v|_p, with equality at a minimizer of F_p/|.|_p by its Lagrange
    condition; so inf slope = C_p.  The estimate takes C_p's value,
    certificate, method and trajectory summary, and records the restricted
    slope at the certificate: its excess over C_p shows how far the
    certificate is from stationary.
    """
    slope, _ = restricted_slope(AffineAction.linear(domain.rep), est_p.certificate, domain)
    diagnostics = {**est_p.diagnostics, "slopeAtCertificate": slope}
    return ConstantEstimate(est_p.value, est_p.certificate, est_p.method, diagnostics)


def laplacian_constant(est_p: ConstantEstimate) -> ConstantEstimate:
    """C_lap = C_p/2: the restricted Laplacian ratio is half the restricted
    slope, so its infimum is half of C_grad = C_p."""
    return ConstantEstimate(est_p.value / 2.0, est_p.certificate, est_p.method, est_p.diagnostics)


def lower_bounds(estimates: dict, lower_p: float | None, r: float, p: float, m_min: float) -> dict:
    """A certified lower bound on each constant of a report, by name; None
    where none is known.

    lower_p is the oracle's: the exact C_2 at p = 2, Barta's bound on a
    dirichlet domain at p != 2 (None where its vector vanishes inside), and
    None on a mean-zero domain at p != 2, where no oracle applies.  An
    exact estimate bounds itself.  Otherwise lower_p, a certified lower
    bound on C_p, bounds C_grad = C_p, C_disp >= C_p (the max is at least
    every power mean) and C_r for r >= p (power means grow with the
    exponent); C_lap = C_p/2 takes lower_p/2, and C_r for r < p takes
    m_min^(1/r) times C_disp's bound, as F_r >= m_min^(1/r) F_inf.
    """

    def exact_or(key, bound):
        est = estimates[key]
        return est.value if est.method.startswith("exact") else bound

    lower = {
        "C_disp": exact_or("C_disp", lower_p),
        "C_grad": exact_or("C_grad", lower_p),
        "C_lap": exact_or("C_lap", None if lower_p is None else lower_p / 2.0),
    }
    if r >= p or lower["C_disp"] is None:
        lower_r = lower_p
    else:
        lower_r = m_min ** (1.0 / r) * lower["C_disp"]
    lower["C_r"] = exact_or("C_r", lower_r)
    return lower


def _brackets_close(domain: Domain, bracketed: dict) -> bool:
    """Whether every bracketed estimate, by name, is within BRACKET_RTOL of
    Barta's bound at its own certificate, recomputed here (half of it for
    C_lap = C_p/2)."""
    barta = {}
    for key, est in bracketed.items():
        if id(est.certificate) not in barta:
            barta[id(est.certificate)] = barta_lower_bound(domain, np.abs(est.certificate))
        lower = barta[id(est.certificate)]
        if lower is None:
            return False
        if key == "C_lap":
            lower /= 2.0
        if est.value - lower > BRACKET_RTOL * est.value:
            return False
    return True


def _default_free_rank(handle) -> int | None:
    """k when the handle is the free group of rank k with its 2k standard
    generators at uniform weight, where `kesten_bound` holds; else None."""
    k = handle.n_generators // 2
    letters = {(s * i,) for i in range(1, k + 1) for s in (1, -1)}
    if handle.family != "free" or set(handle.generators) != letters:
        return None
    return k if (handle.weights == handle.weights[0]).all() else None


# ---------------------------------------------------------------------------
# equivalence report

BATTERY_SAMPLES = 4  # unit vectors sampled per battery row for its observed gradient


@dataclass
class GapReport:
    group: str
    p: float
    r: float
    domain: str
    radius: int | None
    constants: dict
    methods: dict
    chain: dict
    certificates: dict
    battery: list
    options: dict
    # per constant, the trajectory_summary of its runs (counts only, no timings)
    diagnostics: dict = field(default_factory=dict)
    # per constant, {"lower": a certified lower bound, or None}
    bounds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field by its name, with r = inf written "inf"."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if np.isinf(self.r):
            out["r"] = "inf"
        return out


def equivalence_report(
    rep: Representation, r: float | None = None, options: GapOptions | None = None, *, battery: int = 0
) -> GapReport:
    """All gap constants on `default_domain(rep)`, chain verdicts, and a
    fixed-point battery of random coboundary actions (each has a fixed point
    by construction; descent residuals and observed gradients are recorded).
    A battery row's `recoveryError` is the l^p distance from the descent's
    terminal to the fixed-point set (`AffineAction.fixed_point_distance`).

    The guard and the oracle run once, and `displacement_constant` gets
    what the oracle gave.  C_grad = C_p and C_lap = C_p/2, with C_p = C_r
    when r = p; otherwise the oracle's estimate at p, or one more
    energy-ratio multistart at r = p, supplies C_p.  At p = 2 the oracle
    gives C_p on every domain, and at p != 2 on a dirichlet domain when its
    bracket closes, so no run at r = p is made.  When it gives C_p but not
    C_disp, C_disp is the polished multistart at r, which
    `displacement_constant` runs even at r = p, reduced over a pool that
    holds the oracle's vector.  The pool grows by the end points of the run
    at r = p and the battery's samples, and each multistart estimate is
    reduced over the vectors it has not seen.

    `bounds` gives each constant a certified lower bound (`lower_bounds`):
    an exact value, Barta's bound propagated, or None.  The chain checks
    that no bound exceeds its value, that every bracketed value is within
    BRACKET_RTOL of Barta's bound recomputed at its certificate, and, on a
    free group with its standard generators at r = p, that C_r is at least
    `kesten_bound`.  Bracketed values ignore warm starts, so a sweep of
    them is nonincreasing up to BRACKET_RTOL, not by construction.
    """
    opts = options or GapOptions()
    domain = default_domain(rep)
    p = rep.p
    if r is None:
        r = p
    oracle = _guarded_oracle(domain, opts)
    est_disp, est_r = displacement_constant(rep, r, opts, oracle=oracle)
    action = AffineAction.linear(rep)
    # the multistart estimates share one pool; an exact or bracketed one holds none
    pool = list(est_r.pool or est_disp.pool)
    # C_p, the energy ratio at r = p, supplies C_grad and C_lap
    estimates = {"C_disp": est_disp, "C_r": est_r}
    if r != p:
        estimates["C_p"] = oracle.estimates.get(p)
        if estimates["C_p"] is None:
            runs, p_runs = _ratio_multistart(action, p, opts, domain)
            estimates["C_p"] = _multistart_estimate(p_runs)
            pool += runs

    battery_rows = []
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed).spawn(1)[0])
    for i in range(battery):
        f0 = domain.random_unit(rng)
        cob = AffineAction.from_potential(rep, f0)
        trace = descend(cob, rep.zero(), DescentOptions())
        min_grad = np.inf
        for _ in range(BATTERY_SAMPLES):
            # the affine gradient at v equals the linear one at v + f0, so
            # sampling w = v + f0 on the unit sphere normalizes the energy
            w = domain.random_unit(rng)
            v_sample = w - f0
            min_grad = min(min_grad, abs_gradient(cob, v_sample).value)
            pool.append(w)
        battery_rows.append(
            {
                "index": i,
                "terminalF": trace.final_energy,
                "recoveryError": cob.fixed_point_distance(trace.terminal),
                "iterations": len(trace.rows),
                "reason": trace.reason,
                "minGradientObserved": float(min_grad),
            }
        )

    estimates = _reduce(action, estimates, {"C_disp": np.inf, "C_r": r, "C_p": p}, pool)
    est_p = estimates.pop("C_p", estimates["C_r"])
    estimates["C_grad"] = gradient_constant(est_p, domain)
    estimates["C_lap"] = laplacian_constant(est_p)
    c = {key: float(est.value) for key, est in estimates.items()}

    m_min = rep.handle.min_weight()
    slack = 1e-9
    sandwich_lo = m_min ** (1.0 / r) if not np.isinf(r) else 1.0
    slope = estimates["C_grad"].diagnostics["slopeAtCertificate"]
    chain = {
        "C_r <= C_disp": bool(c["C_r"] <= c["C_disp"] + slack),
        "m_min^(1/r) C_disp <= C_r": bool(sandwich_lo * c["C_disp"] <= c["C_r"] + slack),
        # F_r <= F_p for r < p (power means); C_grad = C_p
        "C_grad >= C_r": bool(c["C_grad"] >= c["C_r"] - slack) if r < p else None,
        "restricted slope at C_grad certificate >= C_grad": bool(
            slope >= c["C_grad"] * (1.0 - slack)
        ),
    }
    lower = lower_bounds(estimates, oracle.lower, r, p, m_min)
    known = [(c[key], lo) for key, lo in lower.items() if lo is not None]
    # 1e-12: the rounding where a value meets its bound
    chain["lower <= value"] = bool(all(lo <= v * (1.0 + 1e-12) for v, lo in known)) if known else None
    bracketed = {key: est for key, est in estimates.items() if est.method == "bracketed"}
    chain["bracket width <= BRACKET_RTOL"] = _brackets_close(domain, bracketed) if bracketed else None
    rank = _default_free_rank(rep.handle)
    chain["C_r >= kesten(p)"] = bool(c["C_r"] >= kesten_bound(rank, p) - slack) if rank and r == p else None
    if battery_rows:
        min_battery = min(row["minGradientObserved"] for row in battery_rows)
        chain["battery min gradient >= C_grad"] = bool(min_battery >= c["C_grad"] - 1e-6)

    return GapReport(
        group=rep.handle.label,
        p=p,
        r=r,
        domain=domain.name,
        radius=rep.ball.radius if rep.mode == "dirichlet" else None,
        constants=c,
        methods={key: est.method for key, est in estimates.items()},
        chain=chain,
        certificates={key: np.asarray(est.certificate).tolist() for key, est in estimates.items()},
        battery=battery_rows,
        options=opts.to_dict(),
        diagnostics={key: est.diagnostics for key, est in estimates.items()},
        bounds={key: {"lower": lo} for key, lo in lower.items()},
    )


def lift_vector(values: np.ndarray, old_size: int, new_size: int) -> np.ndarray:
    """Zero-pad a vector from a smaller ball; BFS order makes it a prefix."""
    out = np.zeros(new_size)
    out[:old_size] = values[:old_size]
    return out


def gap_sweep(handle, p: float, r: float, radii, options: GapOptions | None = None, *, battery=0):
    """Equivalence reports over increasing radii with warm starts, each on
    the space its ball fixes, as a single-radius report is.

    Certificates from each radius are injected as extra starts at the next
    one (zero-padded; BFS ordering makes smaller balls prefixes of larger
    ones).  While the ball is not the whole group the domains are dirichlet
    interiors that grow with R, so the multistart estimates are
    nonincreasing in R by construction, and the exact p = 2 estimates are
    too, up to rounding.  Bracketed estimates at p != 2 take no warm start:
    each lies within BRACKET_RTOL above the infimum, which falls as the
    domains grow, so they are nonincreasing up to a relative BRACKET_RTOL,
    not by construction.  Once the ball is the whole group the domain is the
    mean-zero space, which holds no dirichlet interior, and the estimates
    may rise.
    """
    from .groups import ball as make_ball

    opts = options or GapOptions()
    reports = []
    carried: list[np.ndarray] = []
    prev_size = None
    for R in radii:
        b = make_ball(handle, int(R))
        rep = Representation(b, p)
        extra = list(opts.extra_starts)
        for vals in carried:
            extra.append(lift_vector(vals, prev_size, b.size))
        if handle.family == "integer_lattice":
            try:
                extra.append(tent_vector(rep))
            except ValidationError:
                pass
        local = replace(opts, extra_starts=tuple(extra))
        report = equivalence_report(rep, r, local, battery=battery)
        reports.append(report)
        # C_lap's certificate is C_grad's, which is C_r's when r = p
        keys = ("C_disp", "C_r") if r == p else ("C_disp", "C_r", "C_grad")
        carried = [np.asarray(report.certificates[k]) for k in keys]
        prev_size = b.size
    return reports
