"""Every name a module imports is used in that module, no module reads the
environment, and only the commands that need scipy load it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgaplab.moduli

PACKAGE = Path(__file__).parent.parent / "src" / "pgaplab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _referenced(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda path: path.name if path.parent == PACKAGE else f"tests/{path.name}",
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported(tree)) - _referenced(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ("environ", "getenv", "environb"):
                yield f"line {node.lineno}: os.{node.attr}"
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv", "environb"):
                    yield f"line {node.lineno}: from os import {alias.name}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_environment_reads(path):
    reads = list(_environment_reads(ast.parse(path.read_text())))
    assert not reads, f"{path.name} reads the environment: {reads}"


def _import_time_imports(node):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _import_time_imports(child)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_body_imports_scipy(path):
    scipy = []
    for node in _import_time_imports(ast.parse(path.read_text())):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        scipy += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports scipy at import time: {scipy}"


# Runs in a fresh interpreter: a mean-zero descent on symmetric(4) and a gap
# report on a dirichlet ball of free(2), then lists the scipy modules loaded.
_NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

import pgaplab.cli as cli

tmp = Path(sys.argv[1])
f = np.random.default_rng(0).standard_normal(24)
f -= f.mean()
(tmp / "f.csv").write_text("".join(f"{i},{float(x)!r}\\n" for i, x in enumerate(f)))
configs = {
    "descend": {"group": {"family": "symmetric", "params": {"n": 4}}, "p": 3.0,
                "cocycle": {"potential": str(tmp / "f.csv")}, "maxIters": 30},
    "gap": {"group": {"family": "free", "params": {"k": 2}}, "radius": 3, "p": 3.0,
            "starts": 1, "iters": 20},
}
codes = {}
for command, config in configs.items():
    (tmp / f"{command}.json").write_text(json.dumps(config))
    argv = [command, "--config", str(tmp / f"{command}.json"), "--out", str(tmp / command)]
    codes[command] = cli.main(argv)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_descend_and_gap_never_load_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == {"descend": 0, "gap": 0}
    descent = json.loads((tmp_path / "descend" / "descend.json").read_text())
    assert descent["iterations"] > 1  # slopes on the mean-zero domain were taken
    assert result["scipy"] == []


def test_moduli_minimize_is_a_module_name_that_reaches_slsqp(monkeypatch):
    res = pgaplab.moduli.minimize(
        lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(3), method="SLSQP"
    )
    assert res.success and np.allclose(res.x, 1.0, atol=1e-6)
    # the estimators look the name up in the module, where it can be wrapped
    solves = []
    original = pgaplab.moduli.minimize

    def counting(*args, **kwargs):
        solves.append(kwargs["method"])
        return original(*args, **kwargs)

    monkeypatch.setattr(pgaplab.moduli, "minimize", counting)
    pgaplab.moduli.modulus_smoothness(3.0, 2, [0.5], budget=1, seed=0)
    assert solves and set(solves) == {"SLSQP"}
