import numpy as np
import pytest

import pgaplab as pg
from pgaplab import verify
from pgaplab.errors import PgapError
from pgaplab.verify import SUITES, run_suites


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_all_suites_pass_on_cyclic6(p):
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(6)), p, "full")
    rows = run_suites(rep, SUITES, seed=0)
    failures = [r for r in rows if not r.passed]
    assert failures == [], [f"{r.suite}.{r.name}: {r.detail}" for r in failures]


def test_suites_pass_on_free2_dirichlet():
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.0, "dirichlet")
    rows = run_suites(rep, SUITES, seed=1)
    failures = [r for r in rows if not r.passed]
    assert failures == [], [f"{r.suite}.{r.name}: {r.detail}" for r in failures]


def test_unknown_suite_rejected():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(4)), 2.0, "full")
    with pytest.raises(PgapError):
        run_suites(rep, ["nope"])


def test_corrupted_ball_is_caught():
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 2.0, "dirichlet")
    rep.ball.translate[0][0] = -1
    rows = run_suites(rep, ["ball"], seed=0)
    bad = [r for r in rows if r.name == "ball_invariants"]
    assert bad and not bad[0].passed
    assert bad[0].detail["violations"]  # counterexample is reported


def test_deterministic_given_seed():
    rep = pg.Representation(pg.full_ball(pg.cyclic_group(5)), 2.0, "full")
    a = [r.to_dict() for r in run_suites(rep, ["lp", "energy"], seed=9)]
    b = [r.to_dict() for r in run_suites(rep, ["lp", "energy"], seed=9)]
    assert a == b


@pytest.mark.parametrize(
    "group, radius, shift, passes",
    [
        (pg.cyclic_group(6), None, "delta", False),
        (pg.free_group(2), 3, "delta", False),
        # in full mode the fixed points are -f0 plus the constants
        (pg.cyclic_group(6), None, "constant", True),
    ],
    ids=["cyclic6-off", "free2-off", "cyclic6-constant"],
)
def test_descent_check_measures_distance_to_fixed_points(monkeypatch, group, radius, shift, passes):
    if radius is None:
        rep = pg.Representation(pg.full_ball(group), 2.0, "full")
    else:
        rep = pg.Representation(pg.ball(group, radius), 2.0, "dirichlet")
    real_descend = verify.descend

    def moved(action, v0, options):
        trace = real_descend(action, v0, options)
        step = np.ones(rep.ball.size) if shift == "constant" else pg.delta(rep.ball, 0)
        trace.terminal = trace.terminal + 1e-3 * step
        return trace

    monkeypatch.setattr(verify, "descend", moved)
    (row,) = [r for r in run_suites(rep, ["gradient"], seed=0) if r.name == "descent_reaches_fixed_point"]
    assert row.detail["finalF"] <= 1e-6
    assert row.passed == passes
    assert (row.detail["terminalDistance"] > 1e-4) == (not passes)


SLOPE_CASES = [
    pytest.param(lambda: pg.Representation(pg.full_ball(pg.cyclic_group(6)), 1.5, "full"), id="cyclic6-p1.5"),
    pytest.param(lambda: pg.Representation(pg.ball(pg.free_group(2), 3), 3.0, "dirichlet"), id="free2-p3"),
]


def skewed_gradient_rows(monkeypatch, rep, factor):
    real_slope = verify.restricted_slope

    def skewed(*args, **kwargs):
        slope, xi = real_slope(*args, **kwargs)
        return slope * factor, xi

    monkeypatch.setattr(verify, "restricted_slope", skewed)
    return {r.name: r for r in run_suites(rep, ["gradient"], seed=0)}


@pytest.mark.parametrize("make_rep", SLOPE_CASES)
def test_slope_checks_catch_an_overstated_slope(monkeypatch, make_rep):
    rows = skewed_gradient_rows(monkeypatch, make_rep(), 1.0 + 1e-6)
    assert not rows["steepest_attains_slope"].passed
    assert not rows["central_difference_meets_slope"].passed
    assert rows["steepest_attains_slope"].detail["worst"] >= 9e-7


@pytest.mark.parametrize("make_rep", SLOPE_CASES)
def test_slope_checks_catch_an_understated_slope(monkeypatch, make_rep):
    rows = skewed_gradient_rows(monkeypatch, make_rep(), 1.0 - 1e-6)
    assert not (rows["random_directions_below_slope"].passed and rows["steepest_attains_slope"].passed)


@pytest.mark.parametrize("make_rep", SLOPE_CASES)
def test_random_directions_catch_an_understated_slope(monkeypatch, make_rep):
    # the directions are tilted off the steepest one, so they come within
    # about 1e-7 of the slope and beat one understated by 1e-6
    rows = skewed_gradient_rows(monkeypatch, make_rep(), 1.0 - 1e-6)
    assert not rows["random_directions_below_slope"].passed
    assert rows["random_directions_below_slope"].detail["excess"] >= 9e-7


@pytest.mark.parametrize("make_rep", SLOPE_CASES)
def test_slope_checks_pass_on_the_exact_slope(make_rep):
    rows = {r.name: r for r in run_suites(make_rep(), ["gradient"], seed=0)}
    assert rows["steepest_attains_slope"].detail["worst"] <= 1e-14
    assert rows["central_difference_meets_slope"].detail["worst"] <= 1e-8
    assert rows["random_directions_below_slope"].detail["excess"] < 0.0
    assert all(r.passed for r in rows.values())


def test_gradient_suite_never_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify sampled the gradient")

    monkeypatch.setattr(pg.gradient, "abs_gradient_sampled", refuse)
    monkeypatch.setattr(pg, "abs_gradient_sampled", refuse)
    monkeypatch.setattr(verify, "abs_gradient_sampled", refuse, raising=False)
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 3.0, "dirichlet")
    rows = run_suites(rep, ["gradient"], seed=0)
    assert all(r.passed for r in rows), [f"{r.name}: {r.detail}" for r in rows if not r.passed]


def test_gradient_suite_energy_evaluation_count(monkeypatch):
    # 185: 15 trial points of 6 energies each (the point, abs_gradient and
    # two central differences of two energies; a directional derivative
    # reads F off its own row norms), then the descent check's 95.  The
    # suite took 2115 while it ran the sampler.
    calls = []
    for module in (verify, pg.gradient):
        original = module.displacement_energy

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "displacement_energy", counting)
    rep = pg.Representation(pg.ball(pg.free_group(2), 3), 3.0, "dirichlet")
    run_suites(rep, ["gradient"], seed=0)
    assert len(calls) <= 200
