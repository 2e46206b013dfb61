"""The benchmark's layer tracer must still find every function it wraps:
a renamed target fails here, not only in a traced benchmark run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import liepairs.cli  # noqa: F401  (loads every module the tracer wraps)
from liepairs import linalg
from liepairs import matrixmodel as mm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    nullspace, mat_mul = linalg.nullspace, mm.mat_mul
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()    # raises LookupError on a renamed target
        assert linalg.nullspace is not nullspace
        # the kernel routine goes through the traced nullspace
        assert linalg.kernel([linalg.sparse([Fraction(1), Fraction(2)])]) == []
        mm.commutator(mm.eye(2), mm.eye(2))
    finally:
        tracer.uninstall()
    assert linalg.nullspace is nullspace and mm.mat_mul is mat_mul
    calls = {name: n for name, (n, _) in tracer.self_times()[0].items()}
    assert calls["linalg.nullspace"] == 1
    assert calls["matrixmodel.mat_mul"] == 2
