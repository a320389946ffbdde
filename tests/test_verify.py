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
        step = np.ones(rep.ball.size) if shift == "constant" else pg.delta(rep.ball, 0, 2.0).values
        trace.terminal = pg.LpVector(rep.ball, trace.terminal.values + 1e-3 * step, 2.0)
        return trace

    monkeypatch.setattr(verify, "descend", moved)
    (row,) = [r for r in run_suites(rep, ["gradient"], seed=0) if r.name == "descent_reaches_fixed_point"]
    assert row.detail["finalF"] <= 1e-6
    assert row.passed == passes
    assert (row.detail["terminalDistance"] > 1e-4) == (not passes)
