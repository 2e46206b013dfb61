"""Kostant cascade of strongly orthogonal roots."""

import importlib
from fractions import Fraction

import pytest

from liepairs.cascade import (
    CascadeEntry,
    cascade,
    epsilons_strongly_orthogonal,
    full_cascade,
    verify_gamma_partition,
)
from liepairs.rootsystem import (
    build_root_system,
    connected_components,
    strongly_orthogonal,
)

# cascade sizes for the full system (number of entries = dim of the
# Cartan subspace of the corresponding maximal-parabolic pairs)
CASCADE_SIZES = {
    ("A", 1): 1, ("A", 2): 1, ("A", 3): 2, ("A", 4): 2, ("A", 5): 3,
    ("A", 8): 4,
    ("B", 2): 2, ("B", 3): 3, ("B", 4): 4, ("B", 8): 8,
    ("C", 3): 3, ("C", 4): 4, ("C", 8): 8,
    ("D", 4): 4, ("D", 5): 4, ("D", 6): 6, ("D", 7): 6, ("D", 8): 8,
    ("E6", 6): 4, ("E7", 7): 7, ("E8", 8): 8,
    ("F4", 4): 4, ("G2", 2): 2,
}


@pytest.mark.parametrize("label,rank", sorted(CASCADE_SIZES))
def test_cascade_sizes(label, rank):
    rs = build_root_system(label, rank)
    assert len(full_cascade(rs)) == CASCADE_SIZES[(label, rank)]


def test_b3_cascade_by_hand():
    rs = build_root_system("B", 3)
    entries = full_cascade(rs)
    data = {tuple(sorted(e.subset_K)): e.epsilon_K for e in entries}
    # K = Pi -> highest root e1+e2; complement of its non-orthogonal
    # simple roots leaves {a1} and {a3}
    assert data == {
        (0, 1, 2): (1, 2, 2),   # e1 + e2
        (0,): (1, 0, 0),        # e1 - e2
        (2,): (0, 0, 1),        # e3
    }


def test_a3_cascade_by_hand():
    rs = build_root_system("A", 3)
    entries = full_cascade(rs)
    data = {tuple(sorted(e.subset_K)): e.epsilon_K for e in entries}
    assert data == {(0, 1, 2): (1, 1, 1), (1,): (0, 1, 0)}


def test_gamma_of_full_system_contains_epsilon():
    rs = build_root_system("D", 5)
    for e in full_cascade(rs):
        assert e.epsilon_K in e.gamma_K


@pytest.mark.parametrize("label,rank", [("A", 5), ("B", 4), ("C", 4),
                                        ("D", 5), ("E6", 6), ("F4", 4),
                                        ("G2", 2)])
def test_gamma_partition_invariants(label, rank):
    rs = build_root_system(label, rank)
    rep = verify_gamma_partition(rs, frozenset(range(rank)))
    assert rep["failures"] == []
    assert sum(rep["gamma_sizes"]) == len(rs.positive_roots)


@pytest.mark.parametrize("label,rank", [("A", 6), ("B", 5), ("D", 6),
                                        ("E7", 7)])
def test_epsilons_pairwise_strongly_orthogonal(label, rank):
    rs = build_root_system(label, rank)
    assert epsilons_strongly_orthogonal(rs, frozenset(range(rank)))
    eps = [e.epsilon_K for e in full_cascade(rs)]
    for i in range(len(eps)):
        for j in range(i + 1, len(eps)):
            assert strongly_orthogonal(rs, eps[i], eps[j])


def test_cascade_of_subset():
    rs = build_root_system("D", 5)
    entries = cascade(rs, frozenset({1, 2, 3, 4}))  # D4 subsystem
    assert len(entries) == 4
    assert all(0 not in e.subset_K for e in entries)


ALL_TYPES = ([("A", n) for n in range(1, 9)]
             + [(t, n) for t in "BCD" for n in range(2, 9)]
             + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


def supported_on(rs, subset):
    return [r for r in rs.positive_roots
            if {i for i, c in enumerate(r) if c} <= subset]


def fraction_cascade(rs, subset):
    """Oracle: the cascade recursion with the form over Fraction and
    supports as sets."""
    def orthogonal(a, b):
        return Fraction(rs.form6(a, b), 6) == 0

    out = []
    for comp in connected_components(rs, subset):
        roots = supported_on(rs, comp)
        eps = max(roots, key=lambda r: (sum(r), r))
        gamma = tuple(r for r in roots if not orthogonal(r, eps))
        out.append(CascadeEntry(comp, eps, gamma))
        simple = [tuple(int(j == i) for j in range(rs.rank)) for i in comp]
        out.extend(fraction_cascade(
            rs, {i for i, a in zip(comp, simple) if orthogonal(a, eps)}))
    return out


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_cascade_matches_fraction_oracle(label, rank):
    rs = build_root_system(label, rank)
    full = frozenset(range(rank))
    assert full_cascade(rs) == tuple(fraction_cascade(rs, full))
    for S in [full] + [full - {i} for i in range(rank)]:
        entries = fraction_cascade(rs, S)
        assert cascade(rs, S) == entries
        assert verify_gamma_partition(rs, S) == {
            "type": label, "rank": rank, "subset": sorted(S),
            "entries": len(entries),
            "gamma_sizes": [len(e.gamma_K) for e in entries],
            "positive_roots": len(supported_on(rs, S)),
            "failures": [], "ok": True,
        }


def test_full_cascade_is_computed_once_per_root_system():
    rs = build_root_system("D", 5)
    assert full_cascade(rs) is full_cascade(rs)
    assert full_cascade(build_root_system("D", 5)) is not full_cascade(rs)


# the package exports the function `cascade`, which hides the module
cascade_module = importlib.import_module("liepairs.cascade")


def failures_with(monkeypatch, rs, entries):
    # verify_gamma_partition reads the full-subset cascade through
    # full_cascade
    monkeypatch.setattr(cascade_module, "full_cascade", lambda rs: entries)
    return verify_gamma_partition(rs, range(rs.rank))["failures"]


def test_partition_check_reports_a_root_in_two_gammas(monkeypatch):
    # A3: Gamma^{a1,a2,a3} holds a1; Gamma^{a2} = {a2} gets it too
    rs = build_root_system("A", 3)
    top, mid = full_cascade(rs)
    bad = mid._replace(gamma_K=mid.gamma_K + ((1, 0, 0),))
    assert failures_with(monkeypatch, rs, (top, bad)) == [
        {"check": "disjoint", "root": [1, 0, 0], "entries": [[0, 1, 2], [1]]},
        {"check": "unique-complement", "root": [1, 0, 0], "entry": [1],
         "partners": []},
    ]


def test_partition_check_reports_a_dropped_root(monkeypatch):
    # eps_K is no one's partner, so dropping it breaks the cover only
    rs = build_root_system("A", 3)
    top, mid = full_cascade(rs)
    bad = top._replace(gamma_K=top.gamma_K[:-1])
    assert top.gamma_K[-1] == top.epsilon_K == (1, 1, 1)
    assert failures_with(monkeypatch, rs, (bad, mid)) == [
        {"check": "cover", "root": [1, 1, 1]},
    ]


def test_partition_check_reports_a_missing_partner(monkeypatch):
    # move a1 + a2 from Gamma^{a1,a2,a3} to Gamma^{a2}: a3 loses its
    # partner, and a1 + a2 has none beside a2
    rs = build_root_system("A", 3)
    top, mid = full_cascade(rs)
    moved = (1, 1, 0)
    bad_top = top._replace(gamma_K=tuple(r for r in top.gamma_K
                                         if r != moved))
    bad_mid = mid._replace(gamma_K=mid.gamma_K + (moved,))
    assert failures_with(monkeypatch, rs, (bad_top, bad_mid)) == [
        {"check": "unique-complement", "root": [0, 0, 1],
         "entry": [0, 1, 2], "partners": []},
        {"check": "unique-complement", "root": [1, 1, 0], "entry": [1],
         "partners": []},
    ]


def test_partition_check_reports_overlapping_supports(monkeypatch):
    # A5: K = {a2,a3,a4} and a relabelled {a4,a5} meet without nesting
    rs = build_root_system("A", 5)
    top, mid, low = full_cascade(rs)
    assert sorted(mid.subset_K) == [1, 2, 3]
    bad = low._replace(subset_K=frozenset({3, 4}))
    assert failures_with(monkeypatch, rs, (top, mid, bad)) == [
        {"check": "nesting", "entries": [[1, 2, 3], [3, 4]]},
    ]
