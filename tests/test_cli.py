import hashlib
import json
import math

import numpy as np
import pytest

import pgaplab as pg
from pgaplab import cli, lpspace
from pgaplab.cli import canonical_json, main
from pgaplab.gradient import restricted_slope
from pgaplab.lpspace import vector_to_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_canonical_json_sorted_and_17_digits():
    text = canonical_json({"b": 1 / 3, "a": [True, None, 2]})
    assert text == '{"a":[true,null,2],"b":0.33333333333333331}'
    assert canonical_json({"x": np.inf}) == '{"x":"inf"}'


@pytest.mark.parametrize(
    "value, text",
    [
        (float("nan"), '"nan"'),
        (np.nan, '"nan"'),
        (np.float32("nan"), '"nan"'),
        (math.inf, '"inf"'),
        (-math.inf, '"-inf"'),
        (np.float64("-inf"), '"-inf"'),
        (np.float32("inf"), '"inf"'),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float64(-2.5e-300), "-2.5e-300"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.bool_(True), "true"),
        (np.bool_(False), "false"),
        (np.int64(-7), "-7"),
        ([[1.0, [np.float64(2.0), None]], (np.bool_(False), -0.0)], "[[1,[2,null]],[false,-0]]"),
        (np.array([[0.5, np.inf], [np.nan, -1.0]]), '[[0.5,"inf"],["nan",-1]]'),
    ],
)
def test_canonical_json_scalars_and_nesting(value, text):
    assert canonical_json(value) == text


def test_ball_command_free2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "ball.json", {"group": {"family": "free", "params": {"k": 2}}, "radius": 3}
    )
    code = main(["ball", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed == {"size": 53, "perDepth": [1, 4, 12, 36]}
    report = json.loads((tmp_path / "out" / "ball.json").read_text())
    assert report["size"] == 53
    assert report["symmetry"]["ok"]


def test_ball_command_cyclic5(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "ball.json", {"group": {"family": "cyclic", "params": {"n": 5}}, "radius": 2}
    )
    assert main(["ball", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["size"] == 5


def test_asymmetric_weights_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "group": {
                "family": "cyclic",
                "params": {"n": 4},
                "generators": [1, 3],
                "weights": [0.7, 0.3],
            },
            "radius": 2,
        },
    )
    code = main(["ball", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "s^1" in err and "s^3" in err  # names the violating pair


def test_weights_whose_total_overflows_exit_2(tmp_path, capsys):
    group = {"family": "cyclic", "params": {"n": 4}, "generators": [1, 3], "weights": [1e308, 1e308]}
    cfg = write_config(tmp_path, "ball.json", {"group": group, "radius": 2})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "[1e+308, 1e+308] sum to inf" in capsys.readouterr().err
    assert not (tmp_path / "o" / "ball.json").exists()


# accepted by build_group's 1e-12 relative tolerance, but 5e-13 apart after
# normalizing; build_group gives the pair its mean weight
_NEAR_SYMMETRIC = {
    "family": "cyclic",
    "params": {"n": 8},
    "generators": [1, 7],
    "weights": [1e-3, 1.0000000005e-3],
}


def test_ball_near_symmetric_weights_pass_the_symmetry_check(tmp_path):
    cfg = write_config(tmp_path, "ball.json", {"group": _NEAR_SYMMETRIC})
    with pytest.warns(UserWarning, match="normalizing"):
        assert main(["ball", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    symmetry = json.loads((tmp_path / "o" / "ball.json").read_text())["symmetry"]
    assert symmetry["ok"] and symmetry["asymmetricPairs"] == []


def test_verify_near_symmetric_weights_exit_0(tmp_path, capsys):
    cfg = write_config(tmp_path, "verify.json", {"group": _NEAR_SYMMETRIC, "p": 3.0})
    with pytest.warns(UserWarning, match="normalizing"):
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_gap_battery_near_symmetric_weights_exit_0(tmp_path):
    config = {"group": _NEAR_SYMMETRIC, "p": 3.0, "starts": 1, "iters": 20, "battery": 1}
    cfg = write_config(tmp_path, "gap.json", config)
    with pytest.warns(UserWarning, match="normalizing"):
        assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "gap.json").read_text())["report"]
    assert len(report["battery"]) == 1


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("gap", {"group": {"family": "cyclic", "params": {"n": 4}}, "radius": []}, "gap config key 'radius'"),
        ("verify", {"group": {"family": "cyclic", "params": {"n": 4}}, "p": []}, "verify config key 'p'"),
        # used to run no check and report "failed": 0
        ("verify", {"group": {"family": "cyclic", "params": {"n": 4}}, "suites": []}, "verify config key 'suites'"),
    ],
    ids=["gap-radius", "verify-p", "verify-suites"],
)
def test_an_empty_list_of_runs_exits_2(tmp_path, capsys, command, config, named):
    cfg = write_config(tmp_path, "config.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "group",
    [
        {"family": "cyclic", "params": {"n": 1}},
        {"family": "symmetric", "params": {"n": 1}},
        {"family": "table", "params": {"table": [[0]]}, "generators": [0]},
    ],
    ids=["cyclic1", "symmetric1", "table1"],
)
def test_gap_on_a_one_element_group_exits_3(tmp_path, capsys, group):
    # the mean-zero space of a one-element group is {0}; cyclic(1) used to
    # fail in the character oracle, the others in the multistart
    cfg = write_config(tmp_path, "gap.json", {"group": group, "starts": 2, "iters": 20})
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain precondition failed:") and "'mean-zero'" in err
    assert "zero vector" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_exit_2(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"group": {"family": "cyclic", "params": {"n": 4}}, "bogus": 1})
    assert main(["gap", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_gap_determinism_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "gap.json",
        {
            "group": {"family": "cyclic", "params": {"n": 6}},
            "p": 2.0,
            "r": 2.0,
            "seed": 11,
            "starts": 4,
            "iters": 800,
            "battery": 1,
        },
    )
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    blob_a = (tmp_path / "a" / "gap.json").read_bytes()
    blob_b = (tmp_path / "b" / "gap.json").read_bytes()
    assert blob_a == blob_b


def test_gap_cyclic12_matches_character_value(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "gap.json",
        {
            "group": {"family": "cyclic", "params": {"n": 12}},
            "p": 2.0,
            "r": 2.0,
            "starts": 4,
            "iters": 500,
        },
    )
    assert main(["gap", "--config", cfg, "--out", str(tmp_path)]) == 0
    constants = json.loads(capsys.readouterr().out.strip())
    assert constants["C_disp"] == pytest.approx(2.0 * np.sin(np.pi / 12), abs=1e-6)


def test_gap_r_inf_exit_0(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "gap.json",
        {"group": {"family": "symmetric", "params": {"n": 4}}, "p": 3.0, "starts": 2, "iters": 100},
    )
    assert main(["gap", "--config", cfg, "--r", "inf", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "gap.json").read_text())["report"]
    assert report["r"] == "inf"
    assert report["chain"]["C_grad >= C_r"] is None
    assert report["chain"]["restricted slope at C_grad certificate >= C_grad"] is True
    assert "threads" not in report["options"]


@pytest.mark.parametrize("threads,code", [(None, 0), (1, 0), (2, 2), (0, 2)])
def test_gap_threads_must_be_null_or_1(tmp_path, threads, code):
    cfg = write_config(
        tmp_path,
        "gap.json",
        {"group": {"family": "cyclic", "params": {"n": 4}}, "starts": 1, "iters": 20, "threads": threads},
    )
    assert main(["gap", "--config", cfg, "--out", str(tmp_path)]) == code


def test_gap_sweep_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        "gap.json",
        {
            "group": {"family": "integer_lattice", "params": {"d": 1}},
            "radius": [4, 8],
            "p": 2.0,
            "starts": 3,
            "iters": 400,
        },
    )
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "gap_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "R,C_disp,C_r,C_grad,C_lap"
    assert len(lines) == 3
    c_lap = [float(line.split(",")[4]) for line in lines[1:]]
    assert c_lap[1] < c_lap[0]


def test_gap_sweep_exit_1_on_false_chain(tmp_path, monkeypatch):
    def one_false(handle, p, r, radii, options=None, *, battery=0):
        return [
            pg.GapReport(
                group="integer_lattice(1)",
                p=p,
                r=r,
                domain="dirichlet",
                radius=int(R),
                constants={"C_disp": 1.0, "C_r": 1.0, "C_grad": 1.0, "C_lap": 0.5},
                methods={},
                chain={"C_grad >= C_r": R != radii[-1], "unset": None},
                certificates={},
                battery=[],
                options={},
            )
            for R in radii
        ]

    monkeypatch.setattr("pgaplab.cli.gap_sweep", one_false)
    cfg = write_config(
        tmp_path,
        "gap.json",
        {"group": {"family": "integer_lattice", "params": {"d": 1}}, "radius": [4, 8], "p": 2.0},
    )
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    assert (tmp_path / "s" / "gap_sweep.csv").exists()


@pytest.mark.parametrize("line", ["0,np.float64(0.4)", "0.5", "1,2,3", "x,1.0"])
def test_descend_malformed_potential_exit_2(tmp_path, capsys, line):
    pot_path = tmp_path / "potential.csv"
    pot_path.write_text(f"0,0.5\n\n{line}\n")
    cfg = write_config(
        tmp_path,
        "descend.json",
        {
            "group": {"family": "cyclic", "params": {"n": 4}},
            "p": 2.0,
            "cocycle": {"potential": str(pot_path)},
            "v0": "zero",
        },
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert str(pot_path) in err and "line 3" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # a repeated index used to keep its last value and descend from f(0) = 5
        ("0,1.0\n1,-1.0\n0,5.0\n", "line 3: index 0 repeats line 1"),
        ("0,1.0\n1,nan\n", "line 2: value nan is not finite"),
        ("0,1.0\n\n1,-inf\n", "line 3: value -inf is not finite"),
    ],
    ids=["repeated-index", "nan", "inf"],
)
def test_descend_potential_csv_rejected_exit_2(tmp_path, capsys, text, message):
    pot_path = tmp_path / "potential.csv"
    pot_path.write_text(text)
    cfg = write_config(
        tmp_path,
        "descend.json",
        {
            "group": {"family": "cyclic", "params": {"n": 4}},
            "p": 2.0,
            "cocycle": {"potential": str(pot_path)},
            "v0": "zero",
        },
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and f"{pot_path}, {message}" in err
    assert not (tmp_path / "d" / "descend.json").exists()


def test_descend_coboundary_from_potential_file(tmp_path, capsys, monkeypatch):
    built = []
    original = pg.action.coboundary

    def counting(rep, v):
        built.append(v)
        return original(rep, v)

    monkeypatch.setattr(pg.action, "coboundary", counting)
    h = pg.cyclic_group(8)
    b = pg.full_ball(h)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(8)
    vals -= vals.mean()
    f0 = vals / np.abs(vals).max()
    pot_path = tmp_path / "potential.csv"
    vector_to_csv(f0, pot_path)
    cfg = write_config(
        tmp_path,
        "descend.json",
        {
            "group": {"family": "cyclic", "params": {"n": 8}},
            "p": 2.0,
            "cocycle": {"potential": str(pot_path)},
            "v0": "zero",
        },
    )
    code = main(["descend", "--config", cfg, "--out", str(tmp_path / "d")])
    assert code == 0
    assert len(built) == 1  # the action's cocycle is the potential's one coboundary
    result = json.loads((tmp_path / "d" / "descend.json").read_text())
    assert result["reason"] == "f_tol"
    assert result["finalEnergy"] <= 1e-6
    assert result["recoveryError"] <= 1e-4
    trace = (tmp_path / "d" / "descend_trace.csv").read_text().splitlines()
    assert trace[0] == "iter,F,grad,step"


def test_descend_reports_the_restricted_slope_without_sampling(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("descend sampled the gradient")

    monkeypatch.setattr(pg.gradient, "abs_gradient_sampled", refuse)
    monkeypatch.setattr(pg, "abs_gradient_sampled", refuse)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), 3.0, "full")
    vals = np.random.default_rng(3).standard_normal(rep.ball.size)
    f0 = vals - vals.mean()
    pot_path = tmp_path / "potential.csv"
    vector_to_csv(f0, pot_path)
    cfg = write_config(
        tmp_path,
        "descend.json",
        {
            "group": {"family": "symmetric", "params": {"n": 4}},
            "p": 3.0,
            "cocycle": {"potential": str(pot_path)},
            "maxIters": 5,
            "seed": 9,
        },
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    result = json.loads((tmp_path / "d" / "descend.json").read_text())
    assert "terminalSampledGradient" not in result
    assert result["config"]["seed"] == 9
    action = pg.AffineAction.from_potential(rep, f0)
    terminal = np.asarray(result["terminal"])
    slope, _ = restricted_slope(action, terminal, pg.default_domain(rep))
    assert slope > 0.0
    assert result["terminalGradient"] == slope


@pytest.mark.parametrize("mode", ["full", "dirichlet"])
def test_descend_recovery_error_is_the_distance_to_the_fixed_points(tmp_path, mode):
    # in full mode the fixed points are -f0 + c 1; a potential whose mean is
    # not zero used to read |mean| * 24^(1/3) = 0.357 from a converged run
    if mode == "full":
        ball = {"group": {"family": "symmetric", "params": {"n": 4}}}
        n = 24
    else:
        ball = {"group": {"family": "free", "params": {"k": 2}}, "radius": 3}
        n = 53
    vals = np.random.default_rng(5).standard_normal(n)
    vals = vals - vals.mean() + 0.124
    if mode == "dirichlet":
        vals[17:] = 0.0  # the interior of the radius-3 ball is its first 17 elements
    pot_path = tmp_path / "potential.csv"
    vector_to_csv(vals, pot_path)
    cfg = write_config(
        tmp_path, "descend.json", {**ball, "p": 3.0, "cocycle": {"potential": str(pot_path)}}
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    result = json.loads((tmp_path / "d" / "descend.json").read_text())
    assert result["reason"] == "f_tol"
    offset = np.asarray(result["terminal"]) + vals
    if mode == "full":
        # the minimum over c of |offset - c|_3, at most its value at the mean
        assert result["recoveryError"] <= pg.power_norm(offset - offset.mean(), 3.0)
        assert result["recoveryError"] <= 1e-6
        assert pg.power_norm(offset, 3.0) == pytest.approx(0.124 * 24 ** (1 / 3), rel=1e-6)
    else:
        assert result["recoveryError"] == pg.power_norm(offset, 3.0)
        assert result["recoveryError"] <= 1e-6


def test_descend_start_off_the_dirichlet_support_exit_3(tmp_path, capsys):
    # the start used to be projected onto the support, dropping its mass there
    v0 = np.zeros(53)
    v0[40] = 7.0  # depth 3 on the radius-3 ball of free(2)
    vector_to_csv(v0, tmp_path / "v0.csv")
    cfg = write_config(
        tmp_path,
        "descend.json",
        {"group": {"family": "free", "params": {"k": 2}}, "radius": 3, "p": 3.0, "v0": str(tmp_path / "v0.csv")},
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
    assert "depth 3 > 2 (index 40)" in capsys.readouterr().err


def test_commands_build_no_lp_vectors(tmp_path, monkeypatch):
    built = []
    original = lpspace.LpVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(lpspace.LpVector, "__post_init__", counting)
    vals = np.random.default_rng(1).standard_normal(53)
    vals[17:] = 0.0  # supported inside the radius-3 ball of free(2)
    vector_to_csv(vals, tmp_path / "potential.csv")
    configs = {
        "gap": {"group": {"family": "symmetric", "params": {"n": 4}}, "p": 3.0,
                "starts": 2, "iters": 50, "battery": 1},
        "descend": {"group": {"family": "free", "params": {"k": 2}}, "radius": 3, "p": 3.0,
                    "cocycle": {"potential": str(tmp_path / "potential.csv")}, "maxIters": 50},
        "verify": {"group": {"family": "free", "params": {"k": 2}}, "radius": 3, "p": [1.5, 3.0]},
    }
    for command, config in configs.items():
        cfg = write_config(tmp_path, f"{command}.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert built == [], command


def test_descend_zero_cocycle_immediate(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "descend.json",
        {
            "group": {"family": "cyclic", "params": {"n": 8}},
            "p": 2.0,
            "cocycle": {"zero": True},
            "v0": "zero",
        },
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed == {"finalEnergy": 0, "reason": "f_tol"}
    assert json.loads((tmp_path / "d" / "descend.json").read_text())["terminalGradient"] == 0.0


def test_descend_reports_steepest_steps_and_contraction(tmp_path):
    vals = np.random.default_rng(7).standard_normal(24)
    vector_to_csv(vals - vals.mean(), tmp_path / "potential.csv")
    group = {"family": "symmetric", "params": {"n": 4}}
    cocycle = {"potential": str(tmp_path / "potential.csv")}
    cfg = write_config(tmp_path, "descend.json", {"group": group, "p": 3.0, "cocycle": cocycle})
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    result = json.loads((tmp_path / "d" / "descend.json").read_text())
    rows = (tmp_path / "d" / "descend_trace.csv").read_text().splitlines()[1:]
    assert result["reason"] == "f_tol" and len(rows) == result["iterations"]
    steps = result["iterations"] - 1  # the last row is the f_tol stop
    f_0 = float(rows[0].split(",")[1])
    assert result["contraction"] == pytest.approx((result["finalEnergy"] / f_0) ** (1.0 / steps), rel=1e-12)
    assert 0.0 < result["contraction"] < 1.0
    assert 1 <= result["steepestSteps"] <= steps  # the first step has no pair to use

    # no step accepted: no contraction
    for name, extra in (("zero", {"cocycle": {"zero": True}}), ("capped", {"cocycle": cocycle, "maxIters": 0})):
        cfg = write_config(tmp_path, f"{name}.json", {"group": group, "p": 3.0, **extra})
        assert main(["descend", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        result = json.loads((tmp_path / name / "descend.json").read_text())
        assert result["contraction"] is None and result["steepestSteps"] == 0

    cfg = write_config(tmp_path, "verify.json", {"group": group, "p": 3.0, "suites": ["gradient"]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    rows = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    [row] = [row for row in rows if row["name"] == "descent_reaches_fixed_point"]
    assert 1 <= row["detail"]["iterations"] <= row["detail"]["energyEvals"]


def test_descend_invalid_cocycle_exit_2(tmp_path):
    h = pg.cyclic_group(3)
    b = pg.full_ball(h)
    bad = pg.delta(b, 0)  # does not satisfy the relation constraint
    path = tmp_path / "c.csv"
    vector_to_csv(bad, path)
    cfg = write_config(
        tmp_path,
        "descend.json",
        {
            "group": {"family": "cyclic", "params": {"n": 3}},
            "p": 2.0,
            "cocycle": {"values": {"s^1": str(path)}},
            "v0": "zero",
        },
    )
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


def test_verify_command_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "verify.json",
        {
            "group": {"family": "cyclic", "params": {"n": 6}},
            "p": [1.5, 2.0, 3.0],
            "suites": ["ball", "lp", "action", "energy"],
        },
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["failed"] == 0


@pytest.mark.parametrize(
    "suites, code", [(["gradient"], 3), (["ball", "lp", "action", "energy"], 0)], ids=["gradient", "others"]
)
def test_verify_on_a_one_element_group(tmp_path, capsys, suites, code):
    # every energy vanishes on cyclic(1): the gradient suite has nothing to check
    cfg = write_config(
        tmp_path, "verify.json", {"group": {"family": "cyclic", "params": {"n": 1}}, "suites": suites}
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == code
    if code:
        assert "gradient suite" in capsys.readouterr().err


def test_moduli_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "moduli.json",
        {
            "p": 2.0,
            "dim": 4,
            "convexityGrid": [1.0],
            "smoothnessGrid": [1.0],
            "budget": 6,
            "trials": 1000,
        },
    )
    assert main(["moduli", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed["violations"] == 0
    report = json.loads((tmp_path / "m" / "moduli.json").read_text())
    assert report["convexity"]["estimates"][0] == pytest.approx(
        pg.hilbert_modulus_convexity(1.0)
    )
    assert report["smoothness"]["estimates"] == [np.sqrt(2.0) - 1.0]
    assert "hilbertReference" not in report  # it would repeat the exact curves
    assert (tmp_path / "m" / "moduli_convexity.csv").exists()
    assert (tmp_path / "m" / "moduli_smoothness.csv").exists()


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_moduli_command_continuity_has_no_violations(tmp_path, capsys, p):
    cfg = write_config(tmp_path, "moduli.json", {"p": p, "dim": 8, "budget": 2})
    assert main(["moduli", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    assert json.loads(capsys.readouterr().out.strip())["violations"] == 0
    report = json.loads((tmp_path / "m" / "moduli.json").read_text())
    assert report["continuityCheck"]["violations"] == 0


def _hanner_delta(p, eps):
    """delta_p(eps) by bisection on d = 1 - delta: (d + eps/2)^p + |d - eps/2|^p
    rises from at most 2 at d = 0 to at least 2 at d = 1."""
    if p >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if (mid + eps / 2.0) ** p + abs(mid - eps / 2.0) ** p < 2.0:
            lo = mid
        else:
            hi = mid
    return 1.0 - lo


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_moduli_command_reports_exact_convexity(tmp_path, capsys, p):
    cfg = write_config(tmp_path, "moduli.json", {"p": p, "dim": 8, "budget": 2, "seed": 0})
    assert main(["moduli", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    conv = json.loads((tmp_path / "m" / "moduli.json").read_text())["convexity"]
    assert conv["args"] == [0.25, 0.5, 1.0, 1.5, 2.0]
    for eps, est in zip(conv["args"], conv["estimates"]):
        exact = _hanner_delta(p, eps)
        assert exact - 1e-9 <= est <= exact + 1e-6, (eps, est, exact)


_CYCLIC4 = {"family": "cyclic", "params": {"n": 4}}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("moduli", {"p": "abc"}, "p"),
        ("moduli", {"dim": "x"}, "dim"),
        ("moduli", {"dim": 8.5}, "dim"),
        ("moduli", {"trials": float("inf")}, "trials"),
        ("moduli", {"convexityGrid": 5}, "convexityGrid"),
        ("moduli", {"trials": -5}, "trials"),
        ("gap", {"group": _CYCLIC4, "starts": "x"}, "starts"),
        ("gap", {"group": _CYCLIC4, "r": "x"}, "r"),
        ("descend", {"group": _CYCLIC4, "maxIters": "x"}, "maxIters"),
        ("verify", {"group": _CYCLIC4, "p": "x"}, "p"),
    ],
)
def test_config_value_of_a_bad_type_exits_2(tmp_path, capsys, command, config, key):
    cfg = write_config(tmp_path, "config.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("moduli", ["--radius", "3"]),
        ("moduli", ["--starts", "5", "--r", "inf"]),
        ("ball", ["--p", "3"]),
        ("descend", ["--starts", "2"]),
        ("verify", ["--r", "2"]),
    ],
)
def test_flag_the_command_does_not_take_exit_2(tmp_path, capsys, command, flags):
    config = {"group": {"family": "cyclic", "params": {"n": 4}}}
    if command == "moduli":
        config = {"p": 3.0, "budget": 2, "trials": 10}
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 2
    assert "takes no --" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "ball.json", {"group": {"family": "free", "params": {"k": 2}}, "radius": 2}
    )
    assert main(["ball", "--config", cfg, "--radius", "3", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["size"] == 53


def test_group_spec_from_file_path(tmp_path, capsys):
    spec_path = tmp_path / "group.json"
    spec_path.write_text(json.dumps({"family": "cyclic", "params": {"n": 5}, "radius": 2}))
    cfg = write_config(tmp_path, "ball.json", {"group": str(spec_path)})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["size"] == 5


def test_ball_takes_radius_from_group_spec(tmp_path, capsys):
    spec_path = tmp_path / "group.json"
    spec_path.write_text(json.dumps({"family": "free", "params": {"k": 2}, "radius": 1}))
    cfg = write_config(tmp_path, "ball.json", {"group": str(spec_path)})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert json.loads(capsys.readouterr().out.strip()) == {"size": 5, "perDepth": [1, 4]}
    report = json.loads((tmp_path / "a" / "ball.json").read_text())
    assert report["config"]["radius"] == 1
    # a config radius, then a --radius flag, win over the spec's
    cfg = write_config(tmp_path, "ball2.json", {"group": str(spec_path), "radius": 2})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert json.loads(capsys.readouterr().out.strip())["size"] == 17
    assert main(["ball", "--config", cfg, "--radius", "3", "--out", str(tmp_path / "c")]) == 0
    assert json.loads(capsys.readouterr().out.strip())["size"] == 53
    # with no radius anywhere, the ball has radius 3
    cfg = write_config(tmp_path, "ball3.json", {"group": {"family": "free", "params": {"k": 2}}})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    assert json.loads(capsys.readouterr().out.strip())["size"] == 53


# a list holding an object: no config key takes one, whatever its type
_WRONG_TYPE = [{}]


@pytest.mark.parametrize(
    "command, key",
    [
        (command, key)
        for command, entries in cli._CONFIG.items()
        for key, (convert, _) in entries.items()
        if convert is not None
    ],
)
def test_every_typed_config_key_rejects_a_value_of_the_wrong_type(tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)  # where a run that got through would write
    config = {"group": _CYCLIC4} if "group" in cli._CONFIG[command] else {}
    config[key] = _WRONG_TYPE
    cfg = write_config(tmp_path, "config.json", config)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["missing", "x", 4.5, "extra"])
@pytest.mark.parametrize(
    "family, param",
    [(family, entry[0]) for family, entry in pg.groups.FAMILIES.items()] + [("table", "table")],
)
def test_every_family_rejects_a_bad_parameter(tmp_path, capsys, family, param, value):
    params = {} if value == "missing" else {param: value}
    if value == "extra":
        params = {param: [[0]] if family == "table" else 3, "bogus": 1}
        param = "bogus"
    group = {"family": family, "params": params, "generators": [0] if family == "table" else None}
    cfg = write_config(tmp_path, "ball.json", {"group": group, "radius": 1})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and repr(param) in err
    assert not (tmp_path / "o").exists()


_FREE2 = {"family": "free", "params": {"k": 2}}
_RUN = {"starts": 1, "iters": 20}


@pytest.mark.parametrize(
    "command, config, named",
    [
        # r must be null or in [1, inf]
        ("gap", {"group": _CYCLIC4, "r": 0, **_RUN}, "'r'"),
        ("gap", {"group": _CYCLIC4, "r": "nan", **_RUN}, "'r'"),
        ("gap", {"group": _CYCLIC4, "r": 0.5, **_RUN}, "'r'"),
        ("gap", {"group": _CYCLIC4, "r": -1, **_RUN}, "'r'"),
        ("gap", {"group": _CYCLIC4, "starts": 0}, "'starts'"),
        ("gap", {"group": _CYCLIC4, "seed": -1, **_RUN}, "'seed'"),
        ("verify", {"group": _CYCLIC4, "seed": -1, "suites": ["ball"]}, "'seed'"),
        ("moduli", {"seed": -1, "trials": 10}, "'seed'"),
        ("gap", {"group": _FREE2, "radius": "abc", **_RUN}, "'radius'"),
        ("ball", {"group": _FREE2, "radius": "abc"}, "'radius'"),
        ("ball", {"group": _FREE2, "radius": 2.5}, "'radius'"),
        ("gap", {"group": _CYCLIC4, "iters": -1}, "'iters'"),
        ("verify", {"group": _CYCLIC4, "suites": ["bogus"]}, "'suites'"),
        ("descend", {"group": _CYCLIC4, "cocycle": {"values": ["c.csv"]}}, "'cocycle'"),
        ("ball", {"group": {"family": "cyclic", "params": {}}}, "'n'"),
        ("ball", {"group": {"family": "cyclic", "params": {"n": "x"}}}, "'n'"),
        ("ball", {"group": {"family": "cyclic", "params": {"n": 4.7}}}, "'n'"),
        # used to build C4 and label it cyclic(3)
        ("ball", {"group": {"family": "cyclic", "params": {"m": 3, "n": 4}}}, "'m'"),
        ("ball", {"group": {**_CYCLIC4, "generators": [1, 3], "weights": ["a", "b"]}}, "'weights'"),
        ("ball", {"group": {**_CYCLIC4, "generators": ["x"]}}, "'generators'"),
        ("ball", {"group": {"family": "dihedral", "params": {"n": 4}, "generators": [[1]]}}, "'generators'"),
        (
            "ball",
            {"group": {"family": "integer_lattice", "params": {"d": 2}, "generators": [["a", 1]]}},
            "'generators'",
        ),
        # used to be read as 1
        ("ball", {"group": {**_CYCLIC4, "generators": [1.5]}}, "'generators'"),
        (
            "ball",
            {"group": {"family": "table", "params": {"table": [[0, "a"], [1, 0]]}, "generators": [1]}},
            "table entry",
        ),
    ],
)
def test_config_value_out_of_range_exits_2(tmp_path, capsys, command, config, named):
    cfg = write_config(tmp_path, "config.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value", [("domain", "full"), ("domain", "dirichlet"), ("exact", "never"), ("exact", "auto")]
)
def test_gap_takes_no_domain_or_method_selector(tmp_path, capsys, key, value):
    # the group fixes the domain and the oracle always runs, so neither key exists
    cfg = write_config(tmp_path, "gap.json", {"group": _FREE2, "radius": 3, key: value, **_RUN})
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and repr(key) in err
    assert not (tmp_path / "o").exists()


def test_a_radius_from_the_group_spec_is_checked(tmp_path, capsys):
    spec_path = tmp_path / "group.json"
    spec_path.write_text(json.dumps({**_FREE2, "radius": 2.5}))
    cfg = write_config(tmp_path, "ball.json", {"group": str(spec_path)})
    assert main(["ball", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "group spec key 'radius'" in capsys.readouterr().err


def test_gap_seed_flag_is_checked(tmp_path, capsys):
    cfg = write_config(tmp_path, "gap.json", {"group": _CYCLIC4, **_RUN})
    assert main(["gap", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "'seed' must lie in [0, inf], not -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, path",
    [
        (None, "missing.json"),
        ('{"group": ', "config.json"),
        ("[1, 2]", "config.json"),
        ({"group": "missing-group.json"}, "missing-group.json"),
        ({"group": _CYCLIC4, "v0": "missing.csv"}, "missing.csv"),
        ({"group": _CYCLIC4, "cocycle": {"potential": "missing.csv"}}, "missing.csv"),
        ({"group": _CYCLIC4, "cocycle": {"values": {"s^1": "missing.csv"}}}, "missing.csv"),
    ],
    ids=[
        "config-missing",
        "config-malformed",
        "config-not-an-object",
        "group-spec-missing",
        "v0-missing",
        "potential-missing",
        "values-missing",
    ],
)
def test_an_input_file_the_run_cannot_read_exits_2(tmp_path, monkeypatch, capsys, config, path):
    monkeypatch.chdir(tmp_path)  # the paths above are relative
    if config is not None:
        (tmp_path / "config.json").write_text(config if isinstance(config, str) else json.dumps(config))
    cfg = "missing.json" if config is None else "config.json"
    assert main(["descend", "--config", cfg, "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and repr(path) in err
    assert "Traceback" not in err


def test_verify_builds_its_ball_once(tmp_path, monkeypatch):
    calls = []
    original = cli.ball

    def counting(handle, radius, *args, **kwargs):
        calls.append(radius)
        return original(handle, radius, *args, **kwargs)

    monkeypatch.setattr(cli, "ball", counting)
    cfg = write_config(
        tmp_path, "verify.json", {"group": _FREE2, "radius": 3, "p": [1.5, 3.0], "suites": ["ball"]}
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert calls == [3]
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert sorted({row["p"] for row in report["checks"]}) == [1.5, 3.0]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_descend_and_verify_read_one_distance_to_the_fixed_points(tmp_path, monkeypatch, p):
    # a terminal at -f0 + 0.3 1 + 1e-3 e_0: its distance to the fixed points
    # -f0 + c 1 is min_c |1e-3 e_0 - c 1|_p, whatever f0 is
    def fake_descend(action, v0, options=None, *, domain=None):
        terminal = -action.potential + 0.3
        terminal[0] += 1e-3
        return pg.gradient.DescentTrace([], terminal, "f_tol", 0.0)

    monkeypatch.setattr(cli, "descend", fake_descend)
    monkeypatch.setattr(pg.verify, "descend", fake_descend)
    rep = pg.Representation(pg.full_ball(pg.symmetric_group(4)), p, "full")
    e0 = np.zeros(24)
    e0[0] = 1e-3
    expected = pg.AffineAction.from_potential(rep, np.zeros(24)).fixed_point_distance(e0 + 0.3)
    assert expected < 1e-3

    vals = np.random.default_rng(2).standard_normal(24)
    vector_to_csv(vals - vals.mean(), tmp_path / "potential.csv")
    group = {"family": "symmetric", "params": {"n": 4}}
    cocycle = {"potential": str(tmp_path / "potential.csv")}
    cfg = write_config(tmp_path, "descend.json", {"group": group, "p": p, "cocycle": cocycle})
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    recovery = json.loads((tmp_path / "d" / "descend.json").read_text())["recoveryError"]
    cfg = write_config(tmp_path, "verify.json", {"group": group, "p": p, "suites": ["gradient"]})
    main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    rows = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    [row] = [row for row in rows if row["name"] == "descent_reaches_fixed_point"]
    assert recovery == pytest.approx(expected, rel=1e-10)
    assert row["detail"]["terminalDistance"] == pytest.approx(expected, rel=1e-10)


# sha256 digests of the canonical bytes of two reports made through the CLI:
# descend to a fixed point (f_tol after 40 iterations) and every suite of
# verify at two exponents.  A refactor that keeps the arithmetic keeps them.


def _report_digest(path, drop=()):
    """sha256 of a report's canonical bytes, leaving out the `config`
    entries named in `drop` (those that hold a path of the run)."""
    text = path.read_text()
    report = json.loads(text)
    assert canonical_json(report) == text  # so the digest pins the file's bytes
    for key in drop:
        del report["config"][key]
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def test_descend_report_golden_bytes(tmp_path):
    vals = np.random.default_rng(7).standard_normal(24)
    vector_to_csv(vals - vals.mean(), tmp_path / "potential.csv")
    config = {
        "group": {"family": "symmetric", "params": {"n": 4}},
        "p": 3.0,
        "cocycle": {"potential": str(tmp_path / "potential.csv")},
    }
    cfg = write_config(tmp_path, "descend.json", config)
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    digest = _report_digest(tmp_path / "d" / "descend.json", drop=["cocycle"])
    assert digest == "36a054d4953af10ab8a0c1e8941dadbc4ff823fc518faddcf355ee88d5fced6c"


def test_verify_report_golden_bytes(tmp_path):
    cfg = write_config(tmp_path, "verify.json", {"group": _FREE2, "radius": 3, "p": [1.5, 3.0]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    digest = _report_digest(tmp_path / "v" / "verify.json")
    assert digest == "84f01206b00e862d45220a67f8bf4c02aebbf466773dfbf72e7d5fc7557e93dc"
