import numpy as np
import pytest

import pgaplab as pg
from pgaplab.errors import BadEpsilon, ValidationError
from pgaplab.lpspace import power_norm
from pgaplab.moduli import duality_continuity_check, lp_modulus_convexity, lp_modulus_smoothness


def test_hilbert_convexity_dim2_and_dim8():
    for dim in (2, 8):
        curve = pg.modulus_convexity(2.0, dim, [1.0])
        assert curve.estimates[0] == pytest.approx(1.0 - np.sqrt(3.0) / 2.0, rel=1e-14)
        assert pg.hilbert_modulus_convexity(1.0) == curve.estimates[0]


def test_hilbert_smoothness_dim2_and_dim8():
    for dim in (2, 8):
        curve = pg.modulus_smoothness(2.0, dim, [1.0])
        assert curve.estimates[0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-15)
        assert pg.hilbert_modulus_smoothness(1.0) == curve.estimates[0]


def test_convexity_small_eps_head_vanishes():
    curve = pg.modulus_convexity(2.5, 4, [0.01, 0.05])
    assert curve.estimates[0] <= 5e-3
    assert curve.estimates[1] <= 2e-2


def test_convexity_at_two_forces_antipodal():
    for p in (1.5, 2.0, 3.0):
        assert pg.modulus_convexity(p, 4, [2.0]).estimates[0] == 1.0


def test_bad_epsilon_rejected():
    with pytest.raises(BadEpsilon):
        pg.modulus_convexity(2.0, 4, [0.0])
    with pytest.raises(BadEpsilon):
        pg.modulus_convexity(2.0, 4, [2.5])


def test_dim_guard():
    with pytest.raises(ValidationError):
        pg.modulus_convexity(2.0, 1, [1.0])
    with pytest.raises(ValidationError):
        pg.modulus_smoothness(2.0, 1, [1.0])


def test_curves_monotone():
    grid = [0.25, 0.5, 1.0, 1.5, 2.0]
    for p in (1.5, 3.0):
        conv = pg.modulus_convexity(p, 4, grid)
        assert (np.diff(conv.estimates) >= -1e-12).all()
        smooth = pg.modulus_smoothness(p, 4, grid)
        assert (np.diff(smooth.estimates) > 0).all()


def test_smoothness_curve_convex_on_grid():
    grid = np.linspace(0.25, 2.0, 8)
    curve = pg.modulus_smoothness(3.0, 4, grid)
    second = np.diff(curve.estimates, 2)
    assert (second > 0).all()


def test_smoothness_over_tau_vanishing_head():
    # uniform smoothness signature: rho(tau)/tau decreasing toward 0
    grid = [0.001, 0.01, 0.1, 1.0]
    curve = pg.modulus_smoothness(2.0, 4, grid)
    ratios = curve.estimates / curve.args
    assert (np.diff(ratios) > 0).all()
    assert ratios[0] == pytest.approx(grid[0] / 2.0, rel=1e-6)  # rho_2(tau) ~ tau^2 / 2


def test_dimension_monotonicity_of_convexity():
    # delta_p is attained on two coordinates, so it is the same in every dim >= 2
    for p in (1.5, 2.0, 3.0):
        base = pg.modulus_convexity(p, 2, [1.0]).estimates[0]
        for dim in (4, 8):
            assert pg.modulus_convexity(p, dim, [1.0]).estimates[0] == base


def test_curve_csv(tmp_path):
    curve = pg.modulus_convexity(2.0, 2, [0.5, 1.0])
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    rows = [f"{a},{float(e)!r}" for a, e in zip((0.5, 1.0), curve.estimates)]
    assert lines == ["argument,estimate"] + rows


def test_duality_continuity_hilbert_no_violations():
    report = duality_continuity_check(2.0, 8, 5000, seed=9)
    assert report["violations"] == 0
    assert report["examples"] == []


def test_duality_continuity_p3_no_violations():
    report = duality_continuity_check(3.0, 4, 3000, seed=10)
    assert report["violations"] == 0


def test_duality_continuity_skips_coincident_pairs():
    report = duality_continuity_check(2.0, 4, 500, seed=11)
    assert report["trials"] + report["skipped"] == 500


def test_lp_modulus_smoothness_attained_by_two_point_witnesses():
    tau = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    assert lp_modulus_smoothness(2.0, tau) == pytest.approx(np.sqrt(1.0 + tau**2) - 1.0)
    for p in (1.5, 3.0):
        w = 2.0 ** (-1.0 / p)
        for t in tau:
            if p <= 2.0:  # u = e1, v = t e2
                u, v = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, t, 0.0, 0.0])
            else:  # u = (e1 + e2) / 2^(1/p), v = t (e1 - e2) / 2^(1/p)
                u, v = np.array([w, w, 0.0, 0.0]), np.array([t * w, -t * w, 0.0, 0.0])
            assert power_norm(u, p) == pytest.approx(1.0, abs=1e-15)
            assert power_norm(v, p) == pytest.approx(t, rel=1e-15)
            witness = (power_norm(u + v, p) + power_norm(u - v, p)) / 2.0 - 1.0
            assert witness == pytest.approx(lp_modulus_smoothness(p, t), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_smoothness_estimates_never_exceed_exact(p):
    grid = (2.0, 0.25, 1.0, 0.5)
    curve = pg.modulus_smoothness(p, 8, grid)
    assert curve.args.tolist() == sorted(grid)
    assert curve.estimates.tolist() == lp_modulus_smoothness(p, np.array(sorted(grid))).tolist()


EPS = (0.01, 0.25, 0.5, 1.0, 1.5, 1.9, 1.999, 2.0)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
def test_lp_modulus_convexity_attained_by_two_coordinate_witnesses(p):
    for eps in EPS:
        delta = lp_modulus_convexity(p, eps)
        if p >= 2.0:  # u, v = (a, +-eps/2)
            a = (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
            u, v = np.array([a, eps / 2.0]), np.array([a, -eps / 2.0])
        else:  # u = (s, t), v = (t, s) with s, t = (1 - delta +- eps/2) / 2^(1/p)
            d = 1.0 - delta
            s, t = (d + eps / 2.0) / 2.0 ** (1.0 / p), (d - eps / 2.0) / 2.0 ** (1.0 / p)
            u, v = np.array([s, t]), np.array([t, s])
        assert power_norm(u, p) == pytest.approx(1.0, abs=1e-12)
        assert power_norm(v, p) == pytest.approx(1.0, abs=1e-12)
        assert power_norm(u - v, p) == pytest.approx(eps, abs=1e-12)
        assert 1.0 - power_norm(u + v, p) / 2.0 == pytest.approx(delta, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lindenstrauss_duality_between_exact_moduli(p):
    # rho of the dual l^q is sup over eps in [0, 2] of (tau eps / 2 - delta_p(eps))
    from scipy.optimize import minimize_scalar

    q = p / (p - 1.0)
    for tau in (0.1, 0.25, 0.5, 1.0, 2.0):
        res = minimize_scalar(
            lambda e: lp_modulus_convexity(p, e) - tau * e / 2.0,
            bounds=(0.0, 2.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert -res.fun == pytest.approx(lp_modulus_smoothness(q, tau), abs=1e-9)


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.9, 1.99])
def test_hanner_bisection_matches_brentq(p):
    from scipy.optimize import brentq

    for eps in np.concatenate([np.logspace(-6, 0, 25), np.linspace(1.0, 2.0, 21)[1:-1]]):
        def excess(d):
            return (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0

        root = brentq(excess, 0.0, 1.0, xtol=1e-15, maxiter=500)
        assert lp_modulus_convexity(p, eps) == pytest.approx(root, abs=1e-14)


def test_lp_modulus_convexity_limits():
    for p in (1.5, 3.0):
        assert lp_modulus_convexity(p, 0.0) == 0.0
        assert lp_modulus_convexity(p, 2.0) == 1.0
        values = [lp_modulus_convexity(p, e) for e in EPS]
        assert (np.diff(values) > 0).all()
    # near 0, delta_p(eps) ~ (p - 1) eps^2 / 8 for p < 2 and (eps / 2)^p / p for p >= 2
    assert lp_modulus_convexity(1.5, 1e-3) == pytest.approx(0.5 * 1e-6 / 8.0, rel=1e-3)
    assert lp_modulus_convexity(3.0, 1e-3) == pytest.approx((5e-4) ** 3 / 3.0, rel=1e-3)
