"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import json
import time

import numpy as np

import pgaplab as pg
from pgaplab.action import default_domain
from pgaplab.cli import main as cli_main
from pgaplab.gaps import GapOptions, displacement_constant
from pgaplab.gradient import finite_difference_quotient


def verdict(n, ok, detail):
    print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n}: {detail}"


def finite_battery():
    groups = [pg.cyclic_group(n) for n in range(3, 13)]
    groups += [pg.dihedral_group(3), pg.dihedral_group(4), pg.dihedral_group(6)]
    groups += [pg.symmetric_group(3), pg.symmetric_group(4)]
    return groups


def unit(rep, rng, *, mean_zero=False):
    v = rep.random_admissible(rng, mean_zero=mean_zero)
    return (1.0 / pg.power_norm(v, rep.p)) * v


def smooth_unit(action, rng):
    rep = action.rep
    for _ in range(200):
        v = unit(rep, rng, mean_zero=(rep.mode == "full"))
        if all(np.any(d != 0.0) for d in action.displacements(v)):
            return v
    raise RuntimeError("could not sample a smooth point")


def test_criterion_01_abelian_exactness():
    t0 = time.time()
    worst = 0.0
    for n in range(3, 13):
        rep = pg.Representation(pg.full_ball(pg.cyclic_group(n)), 2.0, "full")
        est_disp, _ = pg.displacement_constant(default_domain(rep), 2.0)
        worst = max(worst, abs(est_disp.value - 2.0 * np.sin(np.pi / n)))
    elapsed = time.time() - t0
    verdict(1, worst <= 1e-6 and elapsed < 5.0, f"max |C_disp - 2 sin(pi/n)| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gradient_closed_form_vs_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(202)
    groups = finite_battery()
    worst_rel = 0.0
    worst_attain = 0.0
    count = 0
    while count < 200:
        h = groups[count % len(groups)]
        p = (1.5, 2.0, 3.0)[count % 3]
        rep = pg.Representation(pg.full_ball(h), p, "full")
        if rng.random() < 0.5:
            action = pg.AffineAction.linear(rep)
        else:
            action = pg.AffineAction.from_potential(rep, unit(rep, rng, mean_zero=True))
        v = smooth_unit(action, rng)
        u = None
        for _ in range(50):
            cand = unit(rep, rng)
            if abs(pg.directional_derivative(action, v, cand)) >= 1e-2:
                u = cand
                break
        if u is None:
            continue
        dd = pg.directional_derivative(action, v, u)
        fd = finite_difference_quotient(action, v, u, 1e-5)
        worst_rel = max(worst_rel, abs(dd - fd) / abs(fd))
        res = pg.abs_gradient(action, v)
        along_steepest = pg.directional_derivative(action, v, res.steepest_direction)
        worst_attain = max(worst_attain, abs(along_steepest - res.value))
        count += 1
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-5 and worst_attain <= 1e-8 and elapsed < 30.0
    verdict(2, ok, f"200 instances, worst rel fd err {worst_rel:.2e}, "
                   f"worst attainment err {worst_attain:.2e}, {elapsed:.1f}s")


def test_criterion_03_gradient_equals_laplacian_ratio():
    rng = np.random.default_rng(303)
    groups = finite_battery()
    worst = 0.0
    for i in range(100):
        h = groups[i % len(groups)]
        p = (1.5, 2.0, 3.0)[i % 3]
        rep = pg.Representation(pg.full_ball(h), p, "full")
        f_alpha = unit(rep, rng, mean_zero=True)
        action = pg.AffineAction.from_potential(rep, f_alpha)
        v = unit(rep, rng, mean_zero=True)
        shifted = v + f_alpha
        if pg.dirichlet_norm(rep, shifted) == 0.0:
            continue
        lhs = pg.abs_gradient(action, v).value
        lap = pg.power_norm(pg.p_laplacian(rep, shifted), pg.conjugate_exponent(p))
        rhs = 2.0 * lap / pg.dirichlet_norm(rep, shifted) ** (p - 1.0)
        worst = max(worst, abs(lhs - rhs))
    verdict(3, worst <= 1e-10, f"100 instances, worst |closed - 2|Dp|_q/|.|_D^(p-1)| = {worst:.2e}")


def test_criterion_04_dirichlet_identity_p2():
    rng = np.random.default_rng(404)
    groups = finite_battery() + [pg.dihedral_group(50)]  # orders up to 100
    worst = 0.0
    for h in groups:
        rep = pg.Representation(pg.full_ball(h), 2.0, "full")
        assert rep.ball.size <= 200
        for _ in range(5):
            f = unit(rep, rng)
            lhs = pg.dirichlet_norm(rep, f) ** 2
            rhs = -2.0 * np.dot(pg.p_laplacian(rep, f), f)
            worst = max(worst, abs(lhs - rhs))
    verdict(4, worst <= 1e-10, f"{len(groups)} groups, worst identity residual {worst:.2e}")


def test_criterion_05_universal_and_scaling_bounds():
    rng = np.random.default_rng(505)
    reps = [
        pg.Representation(pg.full_ball(pg.cyclic_group(6)), 1.5, "full"),
        pg.Representation(pg.full_ball(pg.cyclic_group(6)), 2.0, "full"),
        pg.Representation(pg.full_ball(pg.symmetric_group(3)), 3.0, "full"),
        pg.Representation(pg.full_ball(pg.dihedral_group(4)), 2.0, "full"),
    ]
    worst_upper = -np.inf
    worst_lower = -np.inf
    for rep in reps:
        action = pg.AffineAction.linear(rep)
        for _ in range(2500):
            v = unit(rep, rng)
            f = pg.displacement_energy(action, v)
            if f == 0.0:
                continue
            g = pg.abs_gradient(action, v).value
            worst_upper = max(worst_upper, g - 2.0)
            worst_lower = max(worst_lower, f / pg.power_norm(v, rep.p) - g)
    ok = worst_upper <= 1e-12 and worst_lower <= 1e-9
    verdict(5, ok, f"10^4 points, bound excess {worst_upper:.2e}, scaling defect {worst_lower:.2e}")


def test_criterion_06_fixed_point_descent():
    t0 = time.time()
    rng = np.random.default_rng(606)
    cases = []
    for p in (2.0, 3.0):
        cases.append((pg.Representation(pg.full_ball(pg.cyclic_group(8)), p, "full"), "mean-zero"))
        cases.append((pg.Representation(pg.full_ball(pg.symmetric_group(4)), p, "full"), "mean-zero"))
        cases.append((pg.Representation(pg.ball(pg.free_group(2), 4), p, "dirichlet"), "dirichlet"))
    worst_f = 0.0
    worst_rec = 0.0
    worst_grad = 0.0
    for rep, dom_kind in cases:
        dom = default_domain(rep, dom_kind)
        f0 = unit(rep, rng, mean_zero=(dom_kind == "mean-zero"))
        action = pg.AffineAction.from_potential(rep, f0)
        f_init = pg.displacement_energy(action, rep.zero())
        trace = pg.descend(action, rep.zero(), domain=dom)
        worst_f = max(worst_f, trace.final_energy / max(1.0, f_init))
        worst_rec = max(worst_rec, pg.power_norm(trace.terminal - (-1.0 * f0), rep.p))
        worst_grad = max(
            worst_grad,
            pg.abs_gradient_sampled(action, trace.terminal, budget=64, seed=6, domain=dom),
        )
    elapsed = time.time() - t0
    ok = worst_f <= 1e-6 and worst_rec <= 1e-4 and worst_grad <= 1e-3 and elapsed < 60.0
    verdict(6, ok, f"6 runs, F_end/max(1,F0) {worst_f:.1e}, recovery {worst_rec:.1e}, "
                   f"terminal sampled grad {worst_grad:.1e}, {elapsed:.1f}s")


def test_criterion_07_cohomology_vanishes():
    groups = [pg.cyclic_group(n) for n in range(3, 13)]
    groups += [pg.dihedral_group(4), pg.symmetric_group(3), pg.symmetric_group(4)]
    bad = []
    for h in groups:
        rep = pg.Representation(pg.full_ball(h), 2.0, "full")
        dims = pg.cohomology_dims(rep)
        if dims["dimH1"] != 0:
            bad.append((h.label, dims))
    verdict(7, not bad, f"{len(groups)} groups, dim H1 = 0 exactly" + (f"; failures {bad}" if bad else ""))


def test_criterion_08_amenable_vs_nonamenable_sweeps():
    t0 = time.time()
    # integer lattice: C_lap strictly decreasing and below the tent bound
    lat = pg.integer_lattice(1)
    radii = [4, 8, 16, 32, 64]
    prev = np.inf
    carried = None
    prev_size = None
    lat_ok = True
    lat_detail = []
    for R in radii:
        rep = pg.Representation(pg.ball(lat, R), 2.0, "dirichlet")
        extras = [pg.tent_vector(rep)]
        if carried is not None:
            lifted = np.zeros(rep.ball.size)
            lifted[:prev_size] = carried
            extras.append(lifted)
        opts = GapOptions(starts=6, iters=1500, seed=8, extra_starts=tuple(extras))
        report = pg.equivalence_report(default_domain(rep), options=opts)
        c_lap = report.constants["C_lap"]
        tent_bound = pg.laplacian_ratio(rep, pg.tent_vector(rep))
        lat_ok &= c_lap < tent_bound and c_lap < prev
        lat_detail.append(round(c_lap, 6))
        prev = c_lap
        carried = np.asarray(report.certificates["C_lap"])
        prev_size = rep.ball.size
    # free group: C_disp above the Kesten bound and nonincreasing in R
    free = pg.free_group(2)
    bound = pg.kesten_displacement_bound(2)
    prev = np.inf
    carried = None
    prev_size = None
    free_ok = True
    free_detail = []
    for R in range(2, 7):
        rep = pg.Representation(pg.ball(free, R), 2.0, "dirichlet")
        extras = []
        if carried is not None:
            lifted = np.zeros(rep.ball.size)
            lifted[:prev_size] = carried
            extras.append(lifted)
        opts = GapOptions(starts=4, iters=600, seed=9, extra_starts=tuple(extras))
        est_disp, _ = displacement_constant(default_domain(rep), 2.0, opts)
        free_ok &= est_disp.value >= bound - 1e-3 and est_disp.value <= prev + 1e-12
        free_detail.append(round(est_disp.value, 6))
        prev = est_disp.value
        carried = np.asarray(est_disp.certificate)
        prev_size = rep.ball.size
    elapsed = time.time() - t0
    ok = lat_ok and free_ok and elapsed < 300.0
    verdict(8, ok, f"lattice C_lap {lat_detail}, free C_disp {free_detail} "
                   f"(kesten {bound:.4f}), {elapsed:.1f}s")


def test_criterion_09_moduli_and_continuity():
    conv = pg.modulus_convexity(2.0, 8, [1.0])
    smooth = pg.modulus_smoothness(2.0, 8, [1.0])
    d_err = abs(conv.estimates[0] - (1.0 - np.sqrt(3.0) / 2.0))
    r_err = abs(smooth.estimates[0] - (np.sqrt(2.0) - 1.0))
    hilbert = pg.duality_continuity_check(2.0, 8, 10_000, seed=12)
    violations = {
        p: pg.duality_continuity_check(p, 8, 10_000, seed=12)["violations"] for p in (1.5, 3.0)
    }
    ok = (
        d_err <= 1e-15
        and r_err <= 1e-15
        and hilbert["violations"] == 0
        and all(n == 0 for n in violations.values())
    )
    verdict(9, ok, f"delta err {d_err:.1e}, rho err {r_err:.1e}, hilbert violations "
                   f"{hilbert['violations']}, violations {violations}")


def test_criterion_10_report_determinism(tmp_path):
    config = {
        "group": {"family": "cyclic", "params": {"n": 6}},
        "p": 2.0,
        "r": 2.0,
        "seed": 13,
        "starts": 4,
        "iters": 800,
        "battery": 1,
    }
    cfg = tmp_path / "gap.json"
    cfg.write_text(json.dumps(config))
    assert cli_main(["gap", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["gap", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    blob_a = (tmp_path / "a" / "gap.json").read_bytes()
    blob_b = (tmp_path / "b" / "gap.json").read_bytes()
    verdict(10, blob_a == blob_b, f"{len(blob_a)} bytes, byte-identical: {blob_a == blob_b}")
