"""Root systems built by reflection closure from the Cartan matrix."""

from fractions import Fraction

import pytest

from liepairs.rootsystem import (
    build_root_system,
    cartan_matrix,
    connected_components,
    highest_root_of_subset,
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
        assert highest_root_of_subset(rs, range(rank)) == top


def test_root_negatives_and_no_doubles():
    rs = build_root_system("F4", 4)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)
    for r in rs.positive_roots:
        assert rs.is_root(tuple(-c for c in r))
        assert not rs.is_root(tuple(2 * c for c in r))
        assert not rs.is_root(tuple(-2 * c for c in r))


def test_form_long_roots_normalized():
    for label, rank in (("B", 3), ("C", 3), ("F4", 4), ("G2", 2)):
        rs = build_root_system(label, rank)
        top = rs.positive_roots[-1]
        assert rs.form(top, top) == Fraction(2)


FORM_TYPES = ([("A", n) for n in range(1, 9)]
              + [(t, n) for t in "BCD" for n in range(2, 9)]
              + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


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
            got = rs.form(a, b)
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
    rs = build_root_system("D", 5)
    sub = frozenset({1, 2, 3, 4})  # a D4 inside D5
    pos = subsystem_positive_roots(rs, sub)
    assert len(pos) == 12
    top = highest_root_of_subset(rs, sub)
    assert all(top[i] >= r[i] for r in pos for i in sub)
    assert top[0] == 0
