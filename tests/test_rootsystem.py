"""Root systems built by raising reflections from the Cartan matrix."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liepairs import rootsystem
from liepairs.chevalley import ChevalleyAlgebra
from liepairs.rootsystem import (
    RootSystem,
    _root_lengths,
    build_root_system,
    cartan_matrix,
    connected_components,
    strongly_orthogonal,
    subsystem_positive_roots,
)

POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 7): 28,
    ("B", 2): 4, ("B", 3): 9, ("B", 8): 64,
    ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20, ("D", 8): 56,
    ("E6", 6): 36, ("E7", 7): 63, ("E8", 8): 120,
    ("F4", 4): 24, ("G2", 2): 6,
}


@pytest.mark.parametrize("label,rank", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(label, rank):
    rs = build_root_system(label, rank)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[(label, rank)]


def test_cartan_matrix_symmetrizable():
    for label, rank in POSITIVE_COUNTS:
        C = cartan_matrix(label, rank)
        for i in range(rank):
            assert C[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert C[i][j] <= 0
                    assert (C[i][j] == 0) == (C[j][i] == 0)


def test_highest_roots():
    # coordinates of the highest root in the simple-root basis; it is the
    # last positive root, which `is_abelian_radical` relies on
    for (label, rank), top in {
            ("A", 3): (1, 1, 1), ("B", 3): (1, 2, 2), ("C", 3): (2, 2, 1),
            ("D", 4): (1, 2, 1, 1), ("G2", 2): (3, 2),
            ("F4", 4): (2, 3, 4, 2), ("E6", 6): (1, 2, 2, 3, 2, 1)}.items():
        rs = build_root_system(label, rank)
        assert rs.positive_roots[-1] == top


def test_root_negatives_and_no_doubles():
    rs = build_root_system("F4", 4)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)
    for r in rs.positive_roots:
        assert rs.is_root(tuple(-c for c in r))
        assert not rs.is_root(tuple(2 * c for c in r))
        assert not rs.is_root(tuple(-2 * c for c in r))


def form(rs, a, b):
    """The invariant form (a, b) = 6 (a, b) / 6."""
    return Fraction(rs.form6(a, b), 6)


def test_form_long_roots_normalized():
    for label, rank in (("B", 3), ("C", 3), ("F4", 4), ("G2", 2)):
        rs = build_root_system(label, rank)
        top = rs.positive_roots[-1]
        assert form(rs, top, top) == Fraction(2)


FORM_TYPES = ([("A", n) for n in range(1, 9)]
              + [(t, n) for t in "BCD" for n in range(2, 9)]
              + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


def closure_root_system(label, rank):
    """Oracle: close the simple roots under all reflections, both signs
    of root included, and keep the positive ones."""
    C = cartan_matrix(label, rank)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for a in frontier:
            for i in range(rank):
                c = sum(a[j] * C[i][j] for j in range(rank))
                b = list(a)
                b[i] -= c
                b = tuple(b)
                if b not in roots and any(b):
                    roots.add(b)
                    nxt.append(b)
        frontier = nxt
    positive = sorted((r for r in roots if all(c >= 0 for c in r)),
                      key=lambda r: (sum(r), r))
    return RootSystem(label, rank, tuple(tuple(r) for r in C),
                      tuple(positive), tuple(_root_lengths(C)))


@pytest.mark.parametrize("label,rank", FORM_TYPES)
def test_raising_reflections_match_closure(label, rank):
    # RootSystem equality: positive roots in order, lengths, Cartan matrix
    assert build_root_system(label, rank) == closure_root_system(label, rank)


def _assert_not_finite_type(C):
    """build_root_system on the rank-2 matrix C, in a fresh interpreter so
    that a generation that never stops is cut by the timeout, raises the
    named ValueError."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import liepairs.rootsystem as m\n"
            f"m.cartan_matrix = lambda t, n: {C!r}\n"
            "m.build_root_system('A', 2)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ValueError: type A, rank 2: root coordinate exceeds 6, "
        "Cartan matrix is not of finite type")


def test_non_finite_cartan_matrix_is_named_error():
    # affine A1 has infinitely many real roots; the coordinate bound stops
    # the generation instead of looping forever
    _assert_not_finite_type([[2, -2], [-2, 2]])


def test_hyperbolic_cartan_matrix_is_named_error():
    # C_12 C_21 = 9 > 4: a hyperbolic rank-2 matrix, whose root keys grow
    # without bound; the bound is tested before a key digit can overflow
    _assert_not_finite_type([[2, -3], [-3, 2]])


def test_nonintegral_lengths_are_named_error(monkeypatch):
    # 6 (a_i, a_j) must be integral; a length table that breaks this is a
    # named error under -O too, not an assert
    monkeypatch.setattr(rootsystem, "_root_lengths",
                        lambda C: [Fraction(2), Fraction(1, 2)])
    with pytest.raises(ValueError) as err:
        build_root_system("B", 2)
    assert str(err.value) == ("type B, rank 2: 3 |a_i|^2 is not integral "
                              "for |a_i|^2 = ['2', '1/2']")


@pytest.mark.parametrize("label,rank", FORM_TYPES)
def test_sweep_data_matches_recomputation(label, rank):
    # FORM_TYPES holds D2 (A1 x A1, two components) and D3 (= A3) too.
    # Each array the raising sweep carries equals its recomputation from
    # positive_roots, and the Chevalley basis reads the same data
    rs = build_root_system(label, rank)
    pos = rs.positive_roots
    assert len(rs._masks) == len(rs._len6) == len(rs._keys) == len(pos)
    for a, m, l6, k in zip(pos, rs._masks, rs._len6, rs._keys):
        assert m == sum(1 << i for i, c in enumerate(a) if c), a
        assert l6 == rs.form6(a, a), a
        assert k == sum(c * 32 ** i for i, c in enumerate(a)), a
    neg = tuple(tuple(-c for c in a) for a in pos)
    assert rs.negative_roots == neg
    assert all(rs.is_root(a) for a in pos + neg)
    top = pos[-1]
    non_roots = ([(0,) * rank] + [tuple(2 * c for c in a) for a in pos]
                 + [tuple(x + y for x, y in zip(a, top)) for a in pos]
                 + [tuple(int(j == i) - int(j == i + 1) for j in range(rank))
                    for i in range(rank - 1)])      # a_i - a_{i+1}
    assert not any(rs.is_root(v) for v in non_roots)
    alg = ChevalleyAlgebra(rs)
    assert alg.roots == pos + neg
    assert list(alg._len6) == [rs.form6(r, r) for r in alg.roots]
    assert alg._key == [sum((c + 16) * 32 ** i for i, c in enumerate(r))
                        for r in alg.roots]


@pytest.mark.parametrize("label,rank", FORM_TYPES)
def test_form_matches_fraction_formula(label, rank):
    """The integral Gram matrix gives the textbook value
    (a, b) = sum_ij a_i b_j |a_i|^2 C_ij / 2 on every pair of positive
    roots; both sides are bilinear, so every pair of roots follows."""
    rs = build_root_system(label, rank)
    half = [[li * c / 2 for c in row]
            for li, row in zip(rs.lengths, rs.cartan_matrix)]
    for a in rs.positive_roots:
        # (a, alpha_j) for each simple root alpha_j
        a_dual = [sum((ai * row[j] for ai, row in zip(a, half) if ai),
                      Fraction(0)) for j in range(rank)]
        for b in rs.positive_roots:
            want = sum((x * bj for x, bj in zip(a_dual, b) if bj),
                       Fraction(0))
            got = form(rs, a, b)
            assert type(got) is Fraction and got == want, (a, b)


def test_pairing_integrality():
    rs = build_root_system("B", 3)
    for a in rs.positive_roots + tuple(tuple(-c for c in r)
                                        for r in rs.positive_roots):
        for i in range(rs.rank):
            v = rs.pairing(a, i)   # <a, alpha_i^vee>
            assert v == int(v)


def test_strongly_orthogonal():
    rs = build_root_system("B", 2)
    long_root = rs.positive_roots[-1]        # e1 + e2
    short = (0, 1)                           # e2 (short simple)
    assert not strongly_orthogonal(rs, long_root, short)
    e1_minus_e2 = (1, 0)
    assert strongly_orthogonal(rs, long_root, e1_minus_e2)


def test_connected_components():
    rs = build_root_system("A", 5)
    comps = connected_components(rs, frozenset({0, 1, 3}))
    assert sorted(sorted(c) for c in comps) == [[0, 1], [3]]


def test_subsystem_and_its_highest_root():
    # `cascade` reads the highest root of a connected subsystem as its
    # last positive root: that root dominates every other one
    rs = build_root_system("D", 5)
    sub = frozenset({1, 2, 3, 4})  # a D4 inside D5
    pos = subsystem_positive_roots(rs, sub)
    assert len(pos) == 12
    top = pos[-1]
    assert all(top[i] >= r[i] for r in pos for i in sub)
    assert top[0] == 0

