"""The benchmark's layer tracer must still find every function it wraps:
a renamed target fails here, not only in a traced benchmark run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import liepairs.cli  # noqa: F401  (loads every module the tracer wraps)
from liepairs import linalg
from liepairs import matrixmodel as mm
from liepairs.gaussian import QI

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
        mm.mat_mul(mm.eye(2), mm.eye(2))
        mm.mat_mul(mm.eye(2), mm.eye(2))
        mm.commutator(mm.eye(2), mm.eye(2))
    finally:
        tracer.uninstall()
    assert linalg.nullspace is nullspace and mm.mat_mul is mat_mul
    calls = {name: n for name, (n, _) in tracer.self_times()[0].items()}
    assert calls["linalg.nullspace"] == 1
    assert calls["matrixmodel.mat_mul"] == 2
    assert calls["matrixmodel.commutator"] == 1


def test_tracer_counts_qi_made_by_arithmetic():
    x, y = QI(Fraction(1, 2), 3), QI(-2, Fraction(5, 7))
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        x * y                   # one QI
        Fraction(1, 3) + x      # one QI, through the reflected operator
        x / y                   # the inverse of y, then the product
    finally:
        tracer.uninstall()
    assert tracer.counts["gaussian.QI.created"][0] == 4


def test_tracer_rref_bits_read_from_qi_parts():
    mat = [[QI(2, 3), QI(Fraction(7, 3), Fraction(-5, 11)), QI(0, 1)],
           [QI(4, 6), QI(Fraction(14, 3), Fraction(-10, 11)), QI(0, 2)]]
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        rows, _ = linalg.rref(mat)
    finally:
        tracer.uninstall()
    parts = [q for row in rows for x in row if x for q in (x.re, x.im)]
    assert all(type(q) is Fraction for q in parts)
    want = max(max(q.numerator.bit_length(), q.denominator.bit_length())
               for q in parts)
    assert want > 1
    assert tracer.stats["linalg.rref"]["max_bits"] == want
