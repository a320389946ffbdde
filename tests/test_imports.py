"""Every name a module imports is used in that module, no module reads the
environment, every exception type is raised somewhere, no argument selects
a representation's mode or space, and only the commands that need scipy
load it."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgaplab.moduli
from pgaplab import action, gaps, gradient

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


def _raised(tree):
    """The names of the exception types the module's raise statements make."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_exception_type_is_raised():
    defined = [
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    raised = {name for path in PACKAGE.glob("*.py") for name in _raised(ast.parse(path.read_text()))}
    assert defined and raised & set(defined)
    dead = [name for name in defined if name not in raised]
    assert not dead, f"errors.py defines exception types that nothing raises: {dead}"


def _names(tree):
    """Every identifier the module uses: names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_vectors_are_arrays(path):
    """Only lpspace.py, which keeps the uncalled LpVector class, names a
    vector type (LpVector, or the l^q functional type that was deleted)."""
    tree = ast.parse(path.read_text())
    found = [
        f"line {line}: {name}"
        for line, name in _names(tree)
        if name.endswith("Vector") and path.name != "lpspace.py"
    ]
    found += [
        f"line {node.lineno}: hasattr"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hasattr"
    ]
    assert not found, f"{path.name} names a vector type or calls hasattr: {found}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_function_takes_a_rep_beside_a_domain(path):
    """A domain holds its representation (`domain.rep`), so a second one
    could only disagree with it."""
    both = [
        f"line {node.lineno}: {node.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"rep", "domain"} <= {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    ]
    assert not both, f"{path.name} has functions that take both rep and domain: {both}"


def test_the_ball_is_the_only_mode_and_space_selector():
    """Representation reads its mode off the ball, and the estimators,
    descent and the sampler build `default_domain(rep)` themselves, so no
    caller can hand them another space."""
    assert list(inspect.signature(action.Representation).parameters) == ["ball", "p"]
    for func in (
        gaps.equivalence_report,
        gaps.displacement_constant,
        gaps.gap_sweep,
        gradient.descend,
        gradient.abs_gradient_sampled,
    ):
        assert "domain" not in inspect.signature(func).parameters, func.__name__
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "Representation" and len(node.args) + len(node.keywords) > 2:
                found.append(f"{path.name} line {node.lineno}")
    assert not found, f"Representation built with a third argument: {found}"


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_scipy_linalg(path):
    """The p = 2 oracle works through the gather table; the dense eigenvalue
    solve lives in the tests only, so no function body needs scipy.linalg."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.startswith("scipy.linalg")]
    assert not found, f"{path.name} imports scipy.linalg: {found}"


# Runs in a fresh interpreter: a mean-zero descent on symmetric(4), a gap
# report on a dirichlet ball of free(2) and the l^p moduli at p = 1.5 and 3,
# then lists the scipy modules loaded.
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
    "moduli-1.5": {"p": 1.5, "dim": 8, "budget": 2},
    "moduli-3": {"p": 3.0, "dim": 8, "budget": 2},
}
codes = {}
for name, config in configs.items():
    (tmp / f"{name}.json").write_text(json.dumps(config))
    argv = [name.split("-")[0], "--config", str(tmp / f"{name}.json"), "--out", str(tmp / name)]
    codes[name] = cli.main(argv)
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
    assert result["codes"] == {"descend": 0, "gap": 0, "moduli-1.5": 0, "moduli-3": 0}
    descent = json.loads((tmp_path / "descend" / "descend.json").read_text())
    assert descent["iterations"] > 1  # slopes on the mean-zero domain were taken
    assert result["scipy"] == []


def test_moduli_minimize_is_a_module_name_that_reaches_slsqp(monkeypatch):
    res = pgaplab.moduli.minimize(
        lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(3), method="SLSQP"
    )
    assert res.success and np.allclose(res.x, 1.0, atol=1e-6)
    # the smoothness modulus is exact, so it makes no solve
    solves = []
    monkeypatch.setattr(pgaplab.moduli, "minimize", lambda *args, **kwargs: solves.append(args))
    pgaplab.moduli.modulus_smoothness(3.0, 2, [0.5])
    assert solves == []
