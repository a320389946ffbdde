"""The benchmark tracer finds every name it wraps in the package.

`benchmarks/tracing.py` patches pgaplab functions and methods by attribute
name, so a refactor that renames or drops one of them breaks traced
benchmark runs; installing the tracer here turns that into a test failure.
"""

import importlib.util
from pathlib import Path

import pgaplab.cli
import pgaplab.moduli

TRACING = Path(__file__).parent.parent / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("pgaplab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = {
        name: getattr(pgaplab.moduli, name)
        for name in ("minimize", "modulus_convexity", "modulus_smoothness")
    }
    write_atomic = pgaplab.cli.write_atomic
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert pgaplab.moduli.minimize is not originals["minimize"]
    finally:
        tracer.uninstall()
    assert {name: getattr(pgaplab.moduli, name) for name in originals} == originals
    assert pgaplab.cli.write_atomic is write_atomic
