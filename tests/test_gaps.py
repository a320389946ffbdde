import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import pgaplab as pg
from pgaplab import gaps
from pgaplab.action import MeanZeroDomain, default_domain
from pgaplab.cli import main
from pgaplab.errors import ValidationError
from pgaplab.gaps import (
    GapOptions,
    ensure_no_fixed_vectors,
    lift_vector,
    make_energy_ratio_objective,
)
from pgaplab.gradient import restricted_slope
from pgaplab.lpspace import power_norm

from conftest import dense_gap_constant


def full_rep(handle, p=2.0):
    return pg.Representation(pg.full_ball(handle), p)


@pytest.fixture
def multistart_only(monkeypatch):
    """Reports run the fixed-vector guard and no oracle, so every estimate
    is a multistart's."""

    def guard_only(domain, opts):
        ensure_no_fixed_vectors(domain)
        return gaps.Oracle()

    monkeypatch.setattr(gaps, "_guarded_oracle", guard_only)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_exact_displacement_constant_cyclic(n):
    rep = full_rep(pg.cyclic_group(n))
    est_disp, est_r = pg.displacement_constant(rep, 2.0)
    assert est_disp.method == "exact-fourier"
    assert est_disp.value == pytest.approx(2.0 * np.sin(np.pi / n), abs=1e-12)
    assert est_r.value == pytest.approx(2.0 * np.sin(np.pi / n), abs=1e-12)


def test_cyclic12_exact_constants_within_one_ulp():
    # modes 1 and 11 displace by the same amount; the factor used to be
    # |exp(2 pi i k a / n) - 1|, whose rounding picked mode 11 and read
    # 0.5176380902050386 for C_r and C_grad
    report = pg.equivalence_report(full_rep(pg.cyclic_group(12)))
    exact = 2.0 * math.sin(math.pi / 12)
    for name in ("C_disp", "C_r", "C_grad"):
        assert report.methods[name] == "exact-fourier"
        assert abs(report.constants[name] - exact) <= math.ulp(exact), name


def test_exact_displacement_cyclic2():
    rep = full_rep(pg.cyclic_group(2))
    est_disp, _ = pg.displacement_constant(rep, 2.0)
    assert est_disp.value == pytest.approx(2.0, abs=1e-12)


def test_certificate_attains_reported_value():
    rep = full_rep(pg.cyclic_group(6))
    est_disp, est_r = pg.displacement_constant(rep, 2.0)
    act = pg.AffineAction.linear(rep)
    v = np.asarray(est_disp.certificate)
    ratio = pg.displacement_energy(act, v, np.inf) / power_norm(v, 2.0)
    assert ratio == pytest.approx(est_disp.value, abs=1e-10)


@pytest.mark.parametrize("n", [4, 6])
def test_multistart_agrees_with_character_oracle(n):
    rep = full_rep(pg.cyclic_group(n))
    opts = GapOptions(starts=16, iters=4000, seed=3)
    est_disp, est_r = pg.displacement_constant(rep, 2.0, opts, oracle=gaps.Oracle())
    assert est_disp.method == "multistart"
    exact = 2.0 * np.sin(np.pi / n)
    assert abs(est_disp.value - exact) <= 1e-6
    assert abs(est_r.value - exact) <= 1e-6


def test_eigen_oracle_matches_characters():
    for n in (4, 5, 7):
        rep = full_rep(pg.cyclic_group(n))
        dom = default_domain(rep)
        assert dense_gap_constant(dom) == pytest.approx(2.0 * np.sin(np.pi / n), abs=1e-12)


def test_gradient_constant_cyclic4(multistart_only):
    rep = full_rep(pg.cyclic_group(4))
    opts = GapOptions(starts=8, iters=2000)
    report = pg.equivalence_report(rep, options=opts)
    c_grad = report.constants["C_grad"]
    exact = dense_gap_constant(default_domain(rep))
    assert report.methods["C_grad"] == "multistart"
    assert c_grad <= 2.0
    assert c_grad >= exact - 1e-9  # pointwise values never undershoot
    assert c_grad == pytest.approx(exact, abs=1e-6)


def test_laplacian_constant_is_half_gradient_constant(multistart_only):
    # at r != p a separate energy-ratio run at r = p supplies C_grad and C_lap
    rep = full_rep(pg.cyclic_group(4))
    opts = GapOptions(starts=8, iters=2000)
    report = pg.equivalence_report(rep, np.inf, opts)
    c = report.constants
    assert c["C_lap"] == c["C_grad"] / 2.0
    assert report.certificates["C_lap"] == report.certificates["C_grad"]
    assert c["C_grad"] == pytest.approx(dense_gap_constant(default_domain(rep)), abs=1e-6)
    assert report.diagnostics["C_grad"]["trajectories"] == 8
    assert report.chain["C_grad >= C_r"] is None  # not a theorem for r > p


def test_mean_zero_domain_has_no_fixed_vectors():
    rep = full_rep(pg.symmetric_group(3))
    ensure_no_fixed_vectors(default_domain(rep))


def test_dirichlet_domain_has_no_fixed_vectors():
    rep = pg.Representation(pg.ball(pg.integer_lattice(1), 8), 2.0)
    ensure_no_fixed_vectors(default_domain(rep))


def test_tent_vector_ratio():
    for R in (4, 8, 16):
        rep = pg.Representation(pg.ball(pg.integer_lattice(1), R), 2.0)
        t = pg.tent_vector(rep)
        rep.check_admissible(t)
        assert pg.laplacian_ratio(rep, t) == pytest.approx(np.sqrt(3.0 / (4.0 * R)), rel=1e-12)


def test_tent_vector_needs_rank_one_lattice():
    rep = full_rep(pg.cyclic_group(4))
    with pytest.raises(ValidationError):
        pg.tent_vector(rep)


def test_kesten_bound_value():
    assert pg.kesten_displacement_bound(2) == pytest.approx(np.sqrt(2.0 - np.sqrt(3.0)), abs=1e-15)


def test_kesten_bound_holds_pointwise_on_truncation():
    rng = np.random.default_rng(0)
    rep = pg.Representation(pg.ball(pg.free_group(2), 4), 2.0)
    act = pg.AffineAction.linear(rep)
    bound = pg.kesten_displacement_bound(2)
    for _ in range(50):
        v = rep.random_admissible(rng)
        assert pg.displacement_energy(act, v) >= bound * power_norm(v, 2.0) - 1e-12


def test_equivalence_report_cyclic8():
    rep = full_rep(pg.cyclic_group(8))
    opts = GapOptions(starts=8, iters=2000, seed=5)
    report = pg.equivalence_report(rep, 2.0, opts, battery=3)
    c = report.constants
    assert report.chain["C_r <= C_disp"]
    assert report.chain["m_min^(1/r) C_disp <= C_r"]
    assert report.chain["C_grad >= C_r"] is None  # C_grad = C_r at r = p
    assert report.chain["restricted slope at C_grad certificate >= C_grad"]
    assert report.chain["battery min gradient >= C_grad"]
    assert c["C_disp"] == pytest.approx(2.0 * np.sin(np.pi / 8), abs=1e-9)
    for row in report.battery:
        assert row["terminalF"] <= 1e-6
        assert row["recoveryError"] <= 1e-4
        assert row["reason"] == "f_tol"


def test_battery_recovery_error_is_the_distance_to_the_fixed_points(monkeypatch):
    descents = []

    def recorded(action, v0, options):
        trace = pg.descend(action, v0, options)
        descents.append((action, trace))
        return trace

    monkeypatch.setattr(gaps, "descend", recorded)
    rep = full_rep(pg.symmetric_group(4), 3.0)
    opts = GapOptions(starts=2, iters=150, seed=3)
    report = pg.equivalence_report(rep, 3.0, opts, battery=1)
    [(cob, trace)] = descents
    [row] = report.battery
    assert row["recoveryError"] == cob.fixed_point_distance(trace.terminal)
    # the nearest fixed point is -f0 + c 1, not -f0 (|terminal + f0|_3 reads 5.862797373e-09)
    assert row["recoveryError"] < power_norm(trace.terminal + cob.potential, 3.0)
    assert row["recoveryError"] == pytest.approx(5.862503859e-09, rel=1e-9)


def test_battery_descents_reach_f_tol_in_few_iterations():
    # the seed whose battery descents spun in the line search under steepest
    # descent (about 130 iterations each at the 2 x 150 budget)
    rep = full_rep(pg.symmetric_group(4), 3.0)
    opts = GapOptions(starts=2, iters=150, seed=33)
    report = pg.equivalence_report(rep, 3.0, opts, battery=2)
    assert len(report.battery) == 2
    for row in report.battery:
        assert row["reason"] == "f_tol"
        assert row["iterations"] <= 60
        assert row["recoveryError"] <= 1e-6


def test_equivalence_report_empty_battery():
    rep = full_rep(pg.cyclic_group(4))
    report = pg.equivalence_report(rep, 2.0, GapOptions(starts=4, iters=1000), battery=0)
    assert report.battery == []
    assert set(report.constants) == {"C_disp", "C_r", "C_grad", "C_lap"}


def test_equivalence_report_free2():
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.0)
    opts = GapOptions(starts=6, iters=1500, seed=1)
    report = pg.equivalence_report(rep, 2.0, opts, battery=2)
    assert report.domain == "dirichlet"
    assert report.radius == 3
    assert report.constants["C_disp"] >= pg.kesten_displacement_bound(2) - 1e-3
    assert report.chain["C_r <= C_disp"]
    assert report.chain["restricted slope at C_grad certificate >= C_grad"]
    for row in report.battery:
        assert row["terminalF"] <= 1e-6


def test_gap_sweep_lattice_monotone():
    opts = GapOptions(starts=4, iters=800, seed=2)
    reports = pg.gap_sweep(pg.integer_lattice(1), 2.0, 2.0, [4, 8], opts)
    c4, c8 = (rep.constants["C_lap"] for rep in reports)
    assert c8 < c4
    assert c4 < np.sqrt(3.0 / 16.0)  # below the tent bound at R = 4
    assert c8 < np.sqrt(3.0 / 32.0)


def test_lift_vector_prefix():
    h = pg.free_group(2)
    small = pg.ball(h, 2)
    big = pg.ball(h, 3)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(small.size)
    lifted = lift_vector(vals, small.size, big.size)
    assert (lifted[: small.size] == vals).all()
    assert (lifted[small.size :] == 0.0).all()
    # same element order in the shared prefix, so energies agree exactly
    rep_s = pg.Representation(small, 2.0)
    rep_b = pg.Representation(big, 2.0)
    act_s = pg.AffineAction.linear(rep_s)
    act_b = pg.AffineAction.linear(rep_b)
    v_s = np.where(rep_s.admissible_mask, vals, 0.0)
    v_b = lift_vector(v_s, small.size, big.size)
    assert pg.displacement_energy(act_s, v_s) == pytest.approx(pg.displacement_energy(act_b, v_b), abs=1e-14)


def ratio_instances(p):
    return {
        "symmetric(3) full": pg.Representation(pg.full_ball(pg.symmetric_group(3)), p),
        "free(2) R=3 dirichlet": pg.Representation(pg.ball(pg.free_group(2), 3), p),
    }


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("r_kind", ["p", "64"])
@pytest.mark.parametrize("name", ["symmetric(3) full", "free(2) R=3 dirichlet"])
def test_energy_ratio_objective_gradient_matches_finite_differences(name, r_kind, p):
    rep = ratio_instances(p)[name]
    r = p if r_kind == "p" else 64.0
    act = pg.AffineAction.linear(rep)
    obj = make_energy_ratio_objective(act, r)
    domain = default_domain(rep)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = domain.random_unit(rng)
        val, gradient = obj(v)
        assert val == pytest.approx(pg.displacement_energy(act, v, r) / power_norm(v, p), rel=1e-12)
        direction = domain.project(rng.standard_normal(rep.ball.size))
        h = 1e-6
        fd = (obj(v + h * direction)[0] - obj(v - h * direction)[0]) / (2 * h)
        assert fd == pytest.approx(float(np.dot(gradient(), direction)), rel=1e-5, abs=1e-8)


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


# Constants and sha256 digests of the certificates (little-endian float64)
# of equivalence_report with 2 starts x 60 iterations at seed 5.  C_disp and
# C_r are as computed by the descent that evaluated every point's value and
# gradient together; C_grad and C_lap are C_r and C_r/2 with C_r's certificate.
# Each entry runs the multistart alone (`multistart_only`), unless
# GOLDEN_WITH_ORACLE names it.
GOLDEN = {
    "symmetric(4) p=3": {
        "C_disp": (0.5845714697373975, "f9201a5905dff7d74345f83254a627cba8ef586fcb69021db027c5a2ed1227a2"),
        "C_r": (0.580495504153174, "d7b472301cd477f8e54b80737d8d4a80e3f59a1f28f4ddea90ea7db6f3776d45"),
        "C_grad": (0.580495504153174, "d7b472301cd477f8e54b80737d8d4a80e3f59a1f28f4ddea90ea7db6f3776d45"),
        "C_lap": (0.290247752076587, "d7b472301cd477f8e54b80737d8d4a80e3f59a1f28f4ddea90ea7db6f3776d45"),
    },
    "free(2) R=4 p=1.5": {
        "C_disp": (0.850511826652111, "3858c434f3c07f40d8e4a34ce0281f15ff03c56a8de961205f2d8cc2c060b44a"),
        "C_r": (0.8505118266457521, "11de472982d62511009c7d65460c47f9a70e21d8cfd85ad207345702ea0dabb1"),
        "C_grad": (0.8505118266457521, "11de472982d62511009c7d65460c47f9a70e21d8cfd85ad207345702ea0dabb1"),
        "C_lap": (0.42525591332287604, "11de472982d62511009c7d65460c47f9a70e21d8cfd85ad207345702ea0dabb1"),
    },
    # the default path: the Ritz-started run's bracket does not close in 60
    # iterations, so the multistart runs with its end point in the pool,
    # which beats the multistart's C_r of 0.8505118266457521 above
    "free(2) R=4 p=1.5 auto": {
        "C_disp": (0.8505117265301053, "b9972e67d23d17f0a054143aaa318a22fa218573b4d61af653d7eefa7285ecb4"),
        "C_r": (0.8505117265301053, "b9972e67d23d17f0a054143aaa318a22fa218573b4d61af653d7eefa7285ecb4"),
        "C_grad": (0.8505117265301053, "b9972e67d23d17f0a054143aaa318a22fa218573b4d61af653d7eefa7285ecb4"),
        "C_lap": (0.42525586326505266, "b9972e67d23d17f0a054143aaa318a22fa218573b4d61af653d7eefa7285ecb4"),
    },
}

GOLDEN_WITH_ORACLE = {"free(2) R=4 p=1.5 auto"}


def golden_rep(name):
    if name == "symmetric(4) p=3":
        return pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0)
    return pg.Representation(pg.ball(pg.free_group(2), 4), 1.5)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_equivalence_report_golden_constants_and_certificates(request, name):
    if name not in GOLDEN_WITH_ORACLE:
        request.getfixturevalue("multistart_only")
    opts = GapOptions(starts=2, iters=60, seed=5)
    report = pg.equivalence_report(golden_rep(name), options=opts)
    for key, (value, digest) in GOLDEN[name].items():
        assert report.constants[key] == value, key
        assert _digest(report.certificates[key]) == digest, key


@pytest.mark.parametrize(
    "r, want",
    [
        # r = p: C_disp and C_r over the 4 battery samples only (28 at the parent)
        (3.0, {np.inf: 4, 3.0: 4}),
        # r != p: C_disp and C_r over the 2 vectors of the run at r = p and the
        # 4 samples; C_p over those and the 4 vectors displacement_constant saw
        (2.0, {np.inf: 6, 2.0: 6, 3.0: 10}),
        # r = inf: C_disp and C_r share one reduction, and C_p meets each
        # certificate once
        (np.inf, {np.inf: 6, 3.0: 10}),
    ],
)
def test_equivalence_report_evaluates_each_pool_vector_once(monkeypatch, r, want):
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0)
    evals = []
    busy = []  # open displacement_constant and multistart calls
    original = gaps.make_energy_ratio_objective

    def counting(action, r_obj):
        objective = original(action, r_obj)

        def counted(values):
            if not busy:
                evals.append(r_obj)
            return objective(values)

        return counted

    def marking(fn):
        def marked(*args, **kwargs):
            busy.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                busy.pop()

        return marked

    monkeypatch.setattr(gaps, "make_energy_ratio_objective", counting)
    monkeypatch.setattr(gaps, "displacement_constant", marking(gaps.displacement_constant))
    monkeypatch.setattr(gaps, "_ratio_multistart", marking(gaps._ratio_multistart))
    opts = GapOptions(starts=2, iters=150, seed=11)
    report = pg.equivalence_report(rep, r, opts, battery=1)
    assert {e: evals.count(e) for e in set(evals)} == want
    assert False not in report.chain.values()


@pytest.mark.parametrize("r", [np.inf, 3.0])
def test_character_oracle_runs_once_per_report(monkeypatch, r):
    # cyclic(8) at p = 2: C_disp is exact, and so is C_p = C_2 beside a
    # multistart C_r at r = 3
    rep = full_rep(pg.cyclic_group(8))
    calls = []
    original = gaps.cyclic_exact_constants

    def counting(rep_):
        calls.append(rep_)
        return original(rep_)

    monkeypatch.setattr(gaps, "cyclic_exact_constants", counting)
    report = pg.equivalence_report(rep, r, GapOptions(starts=2, iters=50, seed=1))
    assert len(calls) == 1
    exact = 2.0 * math.sin(math.pi / 8)
    assert report.methods["C_disp"] == report.methods["C_grad"] == "exact-fourier"
    assert report.constants["C_disp"] == pytest.approx(exact, abs=1e-12)
    assert report.constants["C_grad"] == pytest.approx(exact, abs=1e-12)


def test_fixed_vector_guard_probes_once_per_report(monkeypatch):
    rep = full_rep(pg.symmetric_group(3), p=3.0)
    calls = []
    original = gaps.ensure_no_fixed_vectors

    def counting(domain):
        calls.append(domain)
        return original(domain)

    monkeypatch.setattr(gaps, "ensure_no_fixed_vectors", counting)
    pg.equivalence_report(rep, options=GapOptions(starts=1, iters=20))
    assert len(calls) == 1
    pg.equivalence_report(rep, np.inf, GapOptions(starts=1, iters=20))
    # C_grad and C_lap run no optimization, and the run at r = p for r != p
    # shares the guarded domain
    assert len(calls) == 2


def test_report_diagnostics_count_trajectories():
    rep = full_rep(pg.symmetric_group(3), p=3.0)
    opts = GapOptions(starts=3, iters=40, seed=4)
    diag = pg.equivalence_report(rep, options=opts).to_dict()["diagnostics"]
    assert set(diag) == {"C_disp", "C_r", "C_grad", "C_lap"}
    for key, d in diag.items():
        assert d["trajectories"] == 3, key  # C_disp: one polish per multistart point
        assert sum(d["stops"].values()) == 3
        # a gradient per line search, plus one where a trajectory stops on a zero gradient
        assert d["iterations"] <= d["gradientEvals"] <= d["iterations"] + 3
        assert d["valueEvals"] >= d["iterations"] + 3
        assert 1 <= d["reachedBest"] <= 3
        assert d["finalSpread"] >= 0.0
    for key in ("C_r", "C_grad", "C_lap"):
        assert diag[key]["iterations"] <= 3 * 40


def test_exact_constants_have_no_trajectories():
    rep = full_rep(pg.cyclic_group(8))
    diag = pg.equivalence_report(rep, 2.0, GapOptions(starts=2, iters=50)).diagnostics
    assert diag["C_disp"]["trajectories"] == diag["C_r"]["trajectories"] == 0
    assert diag["C_grad"]["trajectories"] == diag["C_lap"]["trajectories"] == 0


IDENTITY_INSTANCES = {
    "symmetric(4) p=3 mean-zero": (
        lambda: pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0),
        "multistart",
    ),
    "free(2) R=4 p=1.5 dirichlet": (
        lambda: pg.Representation(pg.ball(pg.free_group(2), 4), 1.5),
        "bracketed",
    ),
    "cyclic(8) p=2 exact": (
        lambda: pg.Representation(pg.full_ball(pg.cyclic_group(8)), 2.0),
        "exact-fourier",
    ),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_INSTANCES))
def test_gradient_and_laplacian_constants_are_read_off_c_p(name):
    make, method = IDENTITY_INSTANCES[name]
    rep = make()
    report = pg.equivalence_report(rep, options=GapOptions(starts=3, iters=200, seed=2))
    c, cert = report.constants, report.certificates
    assert c["C_grad"] == c["C_r"]
    assert c["C_lap"] == c["C_r"] / 2.0
    assert cert["C_grad"] == cert["C_lap"] == cert["C_r"]
    assert report.methods["C_grad"] == report.methods["C_lap"] == method
    assert report.chain["restricted slope at C_grad certificate >= C_grad"] is True
    assert "C_lap == C_grad/2 (2e-3)" not in report.chain
    # the recorded slope is the restricted slope at the certificate
    act = pg.AffineAction.linear(rep)
    slope, _ = restricted_slope(act, np.asarray(cert["C_grad"]), default_domain(rep))
    assert report.diagnostics["C_grad"]["slopeAtCertificate"] == slope
    assert slope >= c["C_grad"] * (1.0 - 1e-9)


def test_slope_at_certificate_meets_c_grad_when_converged():
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0)
    report = pg.equivalence_report(rep, options=GapOptions(starts=8, iters=2000))
    slope = report.diagnostics["C_grad"]["slopeAtCertificate"]
    assert slope == pytest.approx(report.constants["C_grad"], rel=1e-6)


def test_restricted_slope_check_catches_a_wrong_restriction(monkeypatch):
    # a restriction that drops half of the dual element understates the slope
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0)
    original = MeanZeroDomain.restrict_dual

    def halved(self, xi):
        return 0.5 * original(self, xi)

    monkeypatch.setattr(MeanZeroDomain, "restrict_dual", halved)
    report = pg.equivalence_report(rep, options=GapOptions(starts=2, iters=60, seed=5))
    assert report.chain["restricted slope at C_grad certificate >= C_grad"] is False


# ---------------------------------------------------------------------------
# the Lanczos oracle at p = 2

LANCZOS_INSTANCES = {
    "symmetric(5)": lambda: pg.Representation(pg.full_ball(pg.symmetric_group(5)), 2.0),
    "dihedral(5)": lambda: pg.Representation(pg.full_ball(pg.dihedral_group(5)), 2.0),
    "free(2) R=2": lambda: pg.Representation(pg.ball(pg.free_group(2), 2), 2.0),
    "free(2) R=6": lambda: pg.Representation(pg.ball(pg.free_group(2), 6), 2.0),
    "free(3) R=3": lambda: pg.Representation(pg.ball(pg.free_group(3), 3), 2.0),
    "integer_lattice(1) R=16": lambda: pg.Representation(pg.ball(pg.integer_lattice(1), 16), 2.0),
    "integer_lattice(1) R=64": lambda: pg.Representation(pg.ball(pg.integer_lattice(1), 64), 2.0),
    "integer_lattice(2) R=6": lambda: pg.Representation(pg.ball(pg.integer_lattice(2), 6), 2.0),
    "integer_lattice(2) R=20": lambda: pg.Representation(pg.ball(pg.integer_lattice(2), 20), 2.0),
}


@pytest.mark.parametrize("name", sorted(LANCZOS_INSTANCES))
def test_lanczos_c2_matches_the_dense_solve(name):
    domain = default_domain(LANCZOS_INSTANCES[name]())
    report = pg.equivalence_report(domain.rep, options=GapOptions(starts=1, iters=20, seed=3))
    assert report.methods["C_r"] == report.methods["C_grad"] == "exact-eigen"
    assert report.constants["C_r"] == pytest.approx(dense_gap_constant(domain), rel=1e-11, abs=0.0)


def test_lanczos_oracle_on_a_cyclic_group_called_directly():
    # the report takes the character oracle here; the Lanczos one agrees
    domain = default_domain(full_rep(pg.cyclic_group(7)))
    exact = gaps.eigen_exact_constants(domain, seed=0)
    assert exact[2.0].value == pytest.approx(dense_gap_constant(domain), rel=1e-11, abs=0.0)
    assert exact[2.0].value == pytest.approx(2.0 * math.sin(math.pi / 7), rel=1e-11, abs=0.0)


def _in_domain(domain, v):
    if isinstance(domain, MeanZeroDomain):
        return abs(float(np.sum(v))) <= 1e-13
    return bool((v[~domain.rep.admissible_mask] == 0.0).all())


@pytest.mark.parametrize("name", ["dihedral(5)", "free(2) R=6", "integer_lattice(2) R=6"])
def test_eigen_certificates_lie_in_the_domain_and_attain_their_values(name):
    domain = default_domain(LANCZOS_INSTANCES[name]())
    act = pg.AffineAction.linear(domain.rep)
    first = gaps.eigen_exact_constants(domain, seed=4)
    again = gaps.eigen_exact_constants(domain, seed=4)
    for r, est in first.items():
        v = est.certificate
        assert est.method == "exact-eigen"
        assert _in_domain(domain, v)
        assert make_energy_ratio_objective(act, r)(v)[0] == est.value
        assert pg.displacement_energy(act, v, r) / power_norm(v, 2.0) == est.value
        assert again[r].value == est.value and _digest(again[r].certificate) == _digest(v)
    # C_disp is certified on the free group and the lattice only
    assert (np.inf in first) == (name != "dihedral(5)")


CERTIFIED_INSTANCES = {
    "free(2) R=6": LANCZOS_INSTANCES["free(2) R=6"],
    "integer_lattice(2) R=8": lambda: pg.Representation(pg.ball(pg.integer_lattice(2), 8), 2.0),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_INSTANCES))
@pytest.mark.parametrize("r", [2.0, np.inf])
def test_certified_c_disp_runs_no_multistart(monkeypatch, name, r):
    rep = CERTIFIED_INSTANCES[name]()
    calls = []
    original = gaps.multistart_minimize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gaps, "multistart_minimize", counting)
    report = pg.equivalence_report(rep, r, GapOptions(starts=2, iters=150, seed=11))
    assert calls == []
    assert set(report.methods.values()) == {"exact-eigen"}
    c = report.constants
    # C_disp = F_inf(v)/|v| and C_2 = F_2(v)/|v| agree to the certifying tolerance
    assert c["C_disp"] == pytest.approx(c["C_grad"], rel=gaps.EQUAL_DISPLACEMENT_RTOL, abs=0.0)
    assert c["C_r"] == (c["C_disp"] if np.isinf(r) else c["C_grad"])
    assert all(d["trajectories"] == 0 for d in report.diagnostics.values())
    assert False not in report.chain.values()


def test_uncertified_c_disp_is_polished_from_the_multistart_seeds():
    # the bottom eigenspace of dihedral(5) is degenerate: the Ritz vector
    # is a saddle of the max, and a polish from it alone stalls above 1.1
    rep = LANCZOS_INSTANCES["dihedral(5)"]()
    opts = GapOptions(starts=2, iters=150, seed=11)
    report = pg.equivalence_report(rep, 2.0, opts)
    assert report.methods["C_disp"] == "multistart"
    assert report.methods["C_r"] == "exact-eigen"
    assert report.constants["C_disp"] < 1.1
    # the two seed runs and their two polish runs
    assert report.diagnostics["C_disp"]["trajectories"] == 4
    assert report.diagnostics["C_r"]["trajectories"] == 0


def test_c_p_from_the_oracle_saves_the_run_at_r_equal_p(monkeypatch):
    calls = []
    original = gaps.multistart_minimize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gaps, "multistart_minimize", counting)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 2.0)
    report = pg.equivalence_report(rep, 3.0, GapOptions(starts=2, iters=150, seed=11))
    assert len(calls) == 1  # the run at r = 3; C_2 comes from the oracle
    assert report.methods["C_grad"] == "exact-eigen"
    assert report.methods["C_r"] == report.methods["C_disp"] == "multistart"
    assert report.chain["C_grad >= C_r"] is None  # r > p


def test_lanczos_oracle_builds_no_square_array():
    domain = default_domain(pg.Representation(pg.ball(pg.free_group(2), 7), 2.0))
    tracemalloc.start()
    try:
        gaps.eigen_exact_constants(domain, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 4373 x 4373 float64 array would take 153 MB
    assert peak < 8 * 2**20


def test_gap_sweep_over_a_free_group_at_p2_is_nonincreasing():
    opts = GapOptions(starts=2, iters=100, seed=6)
    reports = pg.gap_sweep(pg.free_group(2), 2.0, 2.0, [2, 3, 4, 5], opts)
    for key in ("C_disp", "C_r", "C_grad", "C_lap"):
        values = [report.constants[key] for report in reports]
        assert all(b <= a for a, b in zip(values, values[1:])), (key, values)
    assert reports[-1].constants["C_r"] >= pg.kesten_displacement_bound(2)


def test_c_disp_spread_is_over_the_polish_runs_only():
    # symmetric(4) at p = 2: C_2 is exact, and C_disp's seed runs (final
    # values of F_2) are counted without their finals beside the polish
    # runs (final values of F_inf)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 2.0)
    domain = default_domain(rep)
    opts = GapOptions(starts=2, iters=150, seed=11)
    oracle = gaps._guarded_oracle(domain, opts)
    est_disp, _ = pg.displacement_constant(domain.rep, 2.0, opts, oracle=oracle)
    d = est_disp.diagnostics
    assert d["trajectories"] == 4
    act = pg.AffineAction.linear(rep)
    runs, _ = gaps._ratio_multistart(act, 2.0, opts, domain)
    obj_inf = make_energy_ratio_objective(act, np.inf)
    finals = [gaps.sphere_minimize(obj_inf, domain, v, gaps.POLISH_ITERS)[0] for v in runs]
    assert d["finalSpread"] == max(finals) - min(finals)
    assert d["finalSpread"] < 1e-3  # 0.0626 when the F_2 finals were counted


# ---------------------------------------------------------------------------
# the bracketed oracle at p != 2

BRACKET_INSTANCES = {
    "free(2) R=4": (pg.free_group(2), 4),
    "free(2) R=6": (pg.free_group(2), 6),
    "integer_lattice(1) R=16": (pg.integer_lattice(1), 16),
    "integer_lattice(2) R=8": (pg.integer_lattice(2), 8),
}


def dirichlet_domain(handle, radius, p):
    return default_domain(pg.Representation(pg.ball(handle, radius), p))


@pytest.mark.parametrize("name", sorted(BRACKET_INSTANCES))
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_bracket_closes_below_its_value(name, p):
    domain = dirichlet_domain(*BRACKET_INSTANCES[name], p)
    oracle = gaps.bracketed_constants(domain, GapOptions(seed=3))
    lower = oracle.lower
    assert set(oracle.estimates) == {p, np.inf}
    for est in oracle.estimates.values():
        assert est.method == "bracketed"
        assert 0.0 < lower <= est.value
        assert est.value - lower <= gaps.BRACKET_RTOL * est.value
        assert _in_domain(domain, est.certificate)
    act = pg.AffineAction.linear(domain.rep)
    v = oracle.estimates[p].certificate
    assert oracle.estimates[p].value == make_energy_ratio_objective(act, p)(v)[0]
    assert oracle.estimates[np.inf].value == make_energy_ratio_objective(act, np.inf)(v)[0]


@pytest.mark.parametrize("name", ["free(2) R=6", "integer_lattice(2) R=6", "integer_lattice(1) R=16"])
def test_barta_bound_at_p2_is_the_lanczos_c2(name):
    # at p = 2 Barta's quotient of the bottom eigenvector is its eigenvalue
    # at every point, so the bound meets C_2: a check of the formula's scale
    domain = default_domain(LANCZOS_INSTANCES[name]())
    exact = gaps.eigen_exact_constants(domain, seed=0)[2.0]
    lower = gaps.barta_lower_bound(domain, np.abs(exact.certificate))
    assert lower == pytest.approx(exact.value, rel=1e-9, abs=0.0)


def test_barta_bound_needs_a_positive_vector():
    domain = dirichlet_domain(pg.free_group(2), 3, 3.0)
    phi = domain.project(np.ones(domain.rep.ball.size))
    assert gaps.barta_lower_bound(domain, phi) is not None
    phi[0] = 0.0
    assert gaps.barta_lower_bound(domain, phi) is None


def test_a_bracketed_report_runs_one_trajectory_and_no_polish(monkeypatch):
    calls = {"multistart": 0, "sphere": 0}
    multistart, sphere = gaps.multistart_minimize, gaps.sphere_minimize

    def counting_multistart(*args, **kwargs):
        calls["multistart"] += 1
        return multistart(*args, **kwargs)

    def counting_sphere(*args, **kwargs):
        calls["sphere"] += 1
        return sphere(*args, **kwargs)

    monkeypatch.setattr(gaps, "multistart_minimize", counting_multistart)
    monkeypatch.setattr(gaps, "sphere_minimize", counting_sphere)
    domain = dirichlet_domain(pg.free_group(2), 6, 3.0)
    report = pg.equivalence_report(domain.rep, options=GapOptions(starts=2, iters=150, seed=11))
    assert calls == {"multistart": 0, "sphere": 1}
    assert set(report.methods.values()) == {"bracketed"}
    for d in report.diagnostics.values():
        assert d["trajectories"] == 1
    c = report.constants
    lower = {key: b["lower"] for key, b in report.bounds.items()}
    assert lower["C_lap"] == lower["C_grad"] / 2.0
    assert lower["C_disp"] == lower["C_r"] == lower["C_grad"]
    for key in c:
        assert lower[key] <= c[key] <= lower[key] * (1.0 + 2.0 * gaps.BRACKET_RTOL)
    assert report.chain["lower <= value"] is True
    assert report.chain["bracket width <= BRACKET_RTOL"] is True
    assert report.chain["C_r >= kesten(p)"] is True
    assert False not in report.chain.values()
    # the multistart at 2 x 150 read 0.4961383305906136
    assert c["C_r"] < 0.4934


def test_the_fallback_keeps_the_ritz_end_point_in_the_pool(monkeypatch):
    oracles = []
    original = gaps.bracketed_constants

    def recorded(domain, opts):
        oracles.append(original(domain, opts))
        return oracles[-1]

    monkeypatch.setattr(gaps, "bracketed_constants", recorded)
    domain = dirichlet_domain(pg.free_group(2), 4, 1.5)
    report = pg.equivalence_report(domain.rep, options=GapOptions(starts=2, iters=60, seed=5))
    [oracle] = oracles
    assert oracle.estimates == {}  # 60 iterations do not close the bracket
    [end] = oracle.vectors
    act = pg.AffineAction.linear(domain.rep)
    assert set(report.methods.values()) == {"multistart"}
    # the end point beats both multistart runs, so it is C_r's certificate
    assert report.constants["C_r"] == make_energy_ratio_objective(act, 1.5)(end)[0]
    assert _digest(report.certificates["C_r"]) == _digest(end)
    assert report.diagnostics["C_r"]["trajectories"] == 2
    # L stays the certified lower bound of every constant
    assert report.bounds["C_r"]["lower"] == oracle.lower < report.constants["C_r"]
    assert report.chain["bracket width <= BRACKET_RTOL"] is None
    assert report.chain["lower <= value"] is True


def test_bracketed_oracle_builds_no_square_array():
    domain = dirichlet_domain(pg.free_group(2), 7, 3.0)
    tracemalloc.start()
    try:
        oracle = gaps.bracketed_constants(domain, GapOptions(seed=0, iters=300))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.lower is not None
    # one 4373 x 4373 float64 array would take 153 MB
    assert peak < 8 * 2**20


def test_bracketed_gap_json_is_byte_identical(tmp_path):
    cfg = tmp_path / "gap.json"
    group = {"family": "free", "params": {"k": 2}}
    cfg.write_text(json.dumps({"group": group, "radius": 5, "p": 3.0, "seed": 7, "starts": 2, "iters": 150}))
    assert main(["gap", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["gap", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    blob = (tmp_path / "a" / "gap.json").read_bytes()
    assert blob == (tmp_path / "b" / "gap.json").read_bytes()
    assert b'"bracketed"' in blob and b'"bounds"' in blob


@pytest.mark.parametrize("r", [2.0, np.inf])
def test_bounds_propagate_to_every_exponent(r):
    # p = 3 on free(2) R = 5: C_disp and C_p are bracketed; r = 2 < p is a
    # multistart bounded by m_min^(1/r) L, and r = inf is C_disp itself
    domain = dirichlet_domain(pg.free_group(2), 5, 3.0)
    report = pg.equivalence_report(domain.rep, r, GapOptions(starts=2, iters=150, seed=11))
    lower = {key: b["lower"] for key, b in report.bounds.items()}
    L = lower["C_grad"]
    assert report.methods["C_grad"] == report.methods["C_disp"] == "bracketed"
    assert lower["C_disp"] == L and lower["C_lap"] == L / 2.0
    if np.isinf(r):
        assert lower["C_r"] == L and report.methods["C_r"] == "bracketed"
    else:
        assert lower["C_r"] == 0.25 ** 0.5 * L and report.methods["C_r"] == "multistart"
    assert False not in report.chain.values()


def test_bounds_are_exact_values_or_unknown():
    # exact estimates bound themselves; a mean-zero multistart has no bound
    exact = pg.equivalence_report(full_rep(pg.cyclic_group(8)), options=GapOptions(starts=2, iters=50))
    assert {key: b["lower"] for key, b in exact.bounds.items()} == exact.constants
    rep = full_rep(pg.symmetric_group(4), 3.0)
    multi = pg.equivalence_report(rep, options=GapOptions(starts=2, iters=60, seed=5))
    assert all(b["lower"] is None for b in multi.bounds.values())
    assert multi.chain["lower <= value"] is None
    assert multi.chain["bracket width <= BRACKET_RTOL"] is None
    assert multi.chain["C_r >= kesten(p)"] is None


def test_lower_bound_check_catches_an_overstated_bound(monkeypatch):
    original = gaps.barta_lower_bound
    monkeypatch.setattr(gaps, "barta_lower_bound", lambda domain, phi: 1.01 * original(domain, phi))
    domain = dirichlet_domain(pg.free_group(2), 4, 3.0)
    report = pg.equivalence_report(domain.rep, options=GapOptions(starts=2, iters=150, seed=1))
    assert report.chain["lower <= value"] is False


def test_bracket_width_check_recomputes_the_bound_at_the_certificate():
    domain = dirichlet_domain(pg.free_group(2), 4, 3.0)
    oracle = gaps.bracketed_constants(domain, GapOptions(seed=1))
    est = oracle.estimates[3.0]
    assert gaps._brackets_close(domain, {"C_r": est, "C_lap": gaps.laplacian_constant(est)})
    # another positive certificate with the same value: its own bound is far lower
    other = domain.project(np.ones(domain.rep.ball.size))
    assert not gaps._brackets_close(domain, {"C_r": gaps.replace(est, certificate=other)})


# ---------------------------------------------------------------------------
# the Kesten bound at every p


def test_kesten_bound_at_p2_is_the_closed_form_bit_for_bit():
    for k in (1, 2, 3, 5):
        closed = float(np.sqrt(2.0 * (1.0 - np.sqrt(2.0 * k - 1.0) / k)))
        assert gaps.kesten_bound(k, 2.0) == closed == pg.kesten_displacement_bound(k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_kesten_bound_is_the_maximum_of_the_radial_quotient(k, p):
    a = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
    quotient = (1.0 - a) ** (p - 1.0) * ((2 * k - 1) - a ** (1.0 - p)) / k
    assert gaps.kesten_bound(k, p) ** p == pytest.approx(quotient.max(), rel=1e-9)
    assert gaps.kesten_bound(k, p) ** p >= quotient.max() * (1.0 - 1e-15)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_kesten_bound_holds_under_the_bracket(p):
    domain = dirichlet_domain(pg.free_group(2), 5, p)
    oracle = gaps.bracketed_constants(domain, GapOptions(seed=2))
    assert oracle.lower >= gaps.kesten_bound(2, p)
    # Barta's bound at the radial profile a^|x| is the Kesten bound
    a = 3.0 ** (-1.0 / p)
    phi = domain.project(a ** domain.rep.ball.depth.astype(float))
    assert gaps.barta_lower_bound(domain, phi) == pytest.approx(gaps.kesten_bound(2, p), rel=1e-12)


def test_kesten_check_needs_the_standard_generators(monkeypatch):
    domain = dirichlet_domain(pg.free_group(2), 4, 3.0)
    monkeypatch.setattr(gaps, "kesten_bound", lambda rank, p: 1.0)
    report = pg.equivalence_report(domain.rep, options=GapOptions(starts=2, iters=150, seed=1))
    assert report.chain["C_r >= kesten(p)"] is False
    other = pg.free_group(2, generators=[[1], [1, 2]], weights=[0.25, 0.25])
    assert gaps._default_free_rank(other) is None
    assert gaps._default_free_rank(pg.free_group(3)) == 3
