"""Tests of the benchmark's own oracles and tracer.

    python3 -m pytest benchmarks -q

Each oracle is held against a second oracle or a known value.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize(
    "name,param,radius",
    [("cyclic", 12, None), ("symmetric", 4, None), ("integer_lattice", 2, 2), ("free", 2, 2)],
)
def test_group_axioms(name, param, radius):
    fam = oracles.family(name, param)
    elements = oracles.enumerate_ball(fam, radius or 3).elements[:20]
    for a, b, c in itertools.product(elements[:8], repeat=3):
        assert fam.multiply(fam.multiply(a, b), c) == fam.multiply(a, fam.multiply(b, c))
    for a in elements:
        assert fam.multiply(a, fam.invert(a)) == fam.identity == fam.multiply(fam.invert(a), a)
    gens = set(fam.generators)
    assert {fam.invert(g) for g in gens} == gens


def test_permutation_product_is_matrix_product():
    fam = oracles.family("symmetric", 4)
    eye = np.eye(4)
    for a, b in itertools.product(oracles.enumerate_ball(fam, None).elements[:12], repeat=2):
        # P_a e_i = e_a(i), so P_a P_b = P_(a b)
        Pa, Pb = eye[:, list(a)], eye[:, list(b)]
        assert np.array_equal(Pa @ Pb, eye[:, list(fam.multiply(a, b))])


@pytest.mark.parametrize("n,k", [(12, 1), (12, 5), (7, 2)])
def test_energy_of_a_fourier_mode(n, k):
    ball = oracles.enumerate_ball(oracles.family("cyclic", n), None)
    ev = oracles.Evaluator(ball, 2.0)
    v = np.cos(2 * np.pi * k * np.array(ball.elements) / n)
    want = 2 * math.sin(math.pi * k / n)
    assert ev.ratio(v, 2.0) == pytest.approx(want, rel=1e-12)
    assert ev.ratio(v, math.inf) == pytest.approx(want, rel=1e-12)


def test_translations_are_isometries_and_energies_are_sandwiched():
    rng = np.random.default_rng(0)
    ball = oracles.enumerate_ball(oracles.family("symmetric", 4), None)
    for p in (1.5, 3.0):
        ev = oracles.Evaluator(ball, p)
        v = rng.standard_normal(ball.size)
        for k in range(3):
            assert ev.norm(ev._translate(k, v), p) == pytest.approx(ev.norm(v, p), rel=1e-14)
        f_inf, f_p = ev.energy(v, math.inf), ev.energy(v, p)
        assert (1 / 3) ** (1 / p) * f_inf <= f_p <= f_inf
        # the slope along -v is F(v)/|v|, so both slopes are at least that
        ambient, restricted = ev.slopes(v - v.mean(), mean_zero=True)
        assert ambient >= restricted >= ev.ratio(v - v.mean(), p) * (1 - 1e-12)


def test_quotient_norm_against_a_grid_and_at_q2():
    x = np.random.default_rng(1).standard_normal(30)
    grid = np.linspace(x.min(), x.max(), 20001)
    brute = min(oracles.Evaluator.norm(x - c, 1.5) for c in grid)
    assert oracles.quotient_norm(x, 1.5) == pytest.approx(brute, rel=1e-7)
    assert oracles.quotient_norm(x, 2.0) == pytest.approx(np.linalg.norm(x - x.mean()), rel=1e-12)


def test_ball_order_matches_the_program():
    import pgaplab as pg

    cases = [
        (pg.full_ball(pg.symmetric_group(4)), ("symmetric", 4, None)),
        (pg.full_ball(pg.cyclic_group(12)), ("cyclic", 12, None)),
        (pg.ball(pg.free_group(2), 4), ("free", 2, 4)),
        (pg.ball(pg.integer_lattice(2), 5), ("integer_lattice", 2, 5)),
    ]
    for theirs, (name, param, radius) in cases:
        ours = oracles.enumerate_ball(oracles.family(name, param), radius)
        assert ours.elements == list(theirs.elements)
        assert ours.depth.tolist() == theirs.depth.tolist()


@pytest.mark.parametrize("n", [3, 5, 8, 12, 17])
def test_hilbert_gap_on_cyclic_groups(n):
    ball = oracles.enumerate_ball(oracles.family("cyclic", n), None)
    assert oracles.hilbert_gap(ball) == pytest.approx(2 * math.sin(math.pi / n), rel=1e-10)


def test_hilbert_gap_on_free2_decreases_to_kesten():
    fam = oracles.family("free", 2)
    gaps = [oracles.hilbert_gap(oracles.enumerate_ball(fam, R)) for R in (2, 3, 4, 5)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] > oracles.kesten_free2()


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 1.5, 1.99, 2.0])
def test_convexity_modulus_at_p2_is_hilbert(eps):
    want = 1 - math.sqrt(1 - eps**2 / 4)
    assert oracles._delta_power(2.0, eps) == pytest.approx(want, abs=1e-14)
    assert oracles._delta_root(2.0, eps) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_smoothness_modulus_at_p2_is_hilbert(tau):
    want = math.sqrt(1 + tau**2) - 1
    assert oracles._rho_power(2.0, tau) == pytest.approx(want, abs=1e-14)
    assert oracles._rho_mean(2.0, tau) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lindenstrauss_duality(p):
    """rho of the dual space: rho_q(tau) = sup_eps (tau eps / 2 - delta_p(eps))."""
    q = p / (p - 1)
    eps = np.linspace(1e-4, 2.0, 40001)
    delta = np.array([oracles.modulus_convexity(p, e) for e in eps])
    for tau in (0.1, 0.5, 1.0, 2.0):
        sup = float(np.max(tau * eps / 2 - delta))
        assert sup == pytest.approx(oracles.modulus_smoothness(q, tau), abs=2e-6)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_moduli_attained_by_two_coordinate_pairs(p):
    """Hanner's extremal pairs: u, v = (a, +-b) and (b, +-a) patterns in l^p_2."""
    for eps in (0.5, 1.0, 1.5):
        # brute force over unit u, v in the plane with |u - v| >= eps
        t = np.linspace(0, 2 * np.pi, 721)
        circle = np.stack([np.cos(t), np.sin(t)], axis=1)
        circle /= np.sum(np.abs(circle) ** p, axis=1, keepdims=True) ** (1 / p)
        best = 1.0
        for u in circle[::2]:
            far = np.sum(np.abs(circle - u) ** p, axis=1) ** (1 / p) >= eps
            if far.any():
                mid = np.sum(np.abs(circle[far] + u) ** p, axis=1) ** (1 / p) / 2
                best = min(best, 1 - float(mid.max()))
        assert best >= oracles.modulus_convexity(p, eps) - 1e-9
        assert best == pytest.approx(oracles.modulus_convexity(p, eps), abs=5e-3)


def test_ball_sizes_against_enumeration():
    fam = oracles.family("free", 2)
    for R in range(7):
        ball = oracles.enumerate_ball(fam, R)
        assert ball.size == oracles.free_ball_size(R)
        assert np.bincount(ball.depth).tolist() == oracles.free_per_depth(R)
    for R in range(1, 7):
        lattice = oracles.enumerate_ball(oracles.family("integer_lattice", 2), R)
        assert lattice.size == oracles.lattice2_ball_size(R)
        # breadth first: the interior is a prefix of the canonical order
        inner = oracles.lattice2_ball_size(R - 1)
        assert lattice.interior().tolist() == [i < inner for i in range(lattice.size)]
    for n in (3, 4, 5, 6):
        ball = oracles.enumerate_ball(oracles.family("symmetric", n), None)
        assert ball.size == math.factorial(n)
        assert np.bincount(ball.depth).tolist() == oracles.mahonian(n)
    assert sum(oracles.mahonian(7)) == math.factorial(7) == 5040


def test_traced_counts_repeat_and_wrappers_come_off(tmp_path):
    import pgaplab.energy
    import pgaplab.gaps
    import pgaplab.lpspace
    from pgaplab.cli import main

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "group": {"family": "cyclic", "params": {"n": 6}},
                "p": 3.0,
                "starts": 1,
                "iters": 20,
                "battery": 1,
                "threads": 1,
            }
        )
    )
    originals = (pgaplab.gaps.multistart_minimize, pgaplab.energy.power_norm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rounds = []
        for _ in range(2):
            tracer.reset()
            assert main(["gap", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
            rounds.append(tracer.metrics())
    finally:
        tracer.uninstall()
    first, second = rounds
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(first)
    for m in spec["per_layer"]:
        if m["unit"] != "s":
            assert first[m["name"]] == second[m["name"]], m["name"]
    assert first["optimize.trajectories"] == 3  # one start for each of three estimators
    assert first["lpspace.power_norm_calls"] > 0 and first["cli.report_bytes"] > 0
    assert (pgaplab.gaps.multistart_minimize, pgaplab.energy.power_norm) == originals
    assert pgaplab.lpspace.power_norm is originals[1]
    assert {s[2] for s in tracer.spans} >= {"gaps.equivalence_report", "energy.displacement_energy"}

