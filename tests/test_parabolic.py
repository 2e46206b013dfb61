"""Maximal parabolics with abelian radical and their Cartan subspaces."""

import random
from itertools import combinations

import pytest

from liepairs import linalg
from liepairs.chevalley import build_algebra, centralizer_in, lin_comb
from liepairs.parabolic import (
    abelian_set,
    build_parabolic,
    enumerate_catalog,
    generic_p_centralizer_dim,
    is_abelian_radical,
    pair_label,
    proposition_checks,
    scan_type,
)
from liepairs.rootsystem import build_root_system


def test_abelian_set_b3():
    alg = build_algebra("B", 3)
    r1 = abelian_set(alg.rs, frozenset({1, 2}))
    # roots containing alpha_1: e1 -+ e2, e1 -+ e3, e1
    assert len(r1) == 5
    assert all(r[0] == 1 for r in r1)


def test_abelianness_scan_b3():
    alg = build_algebra("B", 3)
    # only removing alpha_1 gives an abelian radical in B3
    assert is_abelian_radical(alg.rs, frozenset({1, 2}))
    assert not is_abelian_radical(alg.rs, frozenset({0, 2}))
    assert not is_abelian_radical(alg.rs, frozenset({0, 1}))


def pairwise_abelian(rs, S):
    """The oracle: no two roots of R_S^1 sum to a root."""
    r1 = abelian_set(rs, S)
    return not any(rs.is_root(tuple(x + y for x, y in zip(a, b)))
                   for i, a in enumerate(r1) for b in r1[i:])


ALL_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
             + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
             + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


def test_abelian_radical_matches_pairwise_scan():
    # every subset S of the simple roots, of every type to rank 8;
    # S = everything has R_S^1 empty, an abelian radical
    checked = 0
    for label, n in ALL_TYPES:
        rs = build_root_system(label, n)
        for k in range(n + 1):
            for S in map(frozenset, combinations(range(n), k)):
                assert is_abelian_radical(rs, S) == pairwise_abelian(rs, S), \
                    (label, n, sorted(S))
                checked += 1
    assert len(ALL_TYPES) == 32 and checked == 2490


def test_scan_counts():
    assert len(scan_type("A", 4)) == 4
    assert len(scan_type("B", 4)) == 1
    assert len(scan_type("C", 4)) == 1
    assert len(scan_type("D", 5)) == 3
    assert len(scan_type("E6", 6)) == 2
    assert len(scan_type("E7", 7)) == 1
    assert len(scan_type("F4", 4)) == 0
    assert len(scan_type("G2", 2)) == 0


def test_catalog_against_static_oracle():
    catalog, mismatches = enumerate_catalog(max_rank=6)
    assert mismatches == []
    assert len(catalog) > 0
    labels = {p.pair_label for p in catalog}
    assert "(so_7, so_5 x so_2)" in labels
    assert "(E7, E6 x C)" in labels


def test_pair_labels():
    assert pair_label("B", 3, 0) == "(so_7, so_5 x so_2)"
    assert pair_label("C", 4, 3) == "(sp_8, gl_4)"
    assert pair_label("D", 5, 0) == "(so_10, so_8 x so_2)"
    assert pair_label("D", 5, 4) == "(so_10, gl_5)"
    assert pair_label("A", 3, 1) == "(sl_4, sl_2 x sl_2 x C)"


def test_build_parabolic_rejects_nonabelian():
    alg = build_algebra("B", 3)
    with pytest.raises(ValueError):
        build_parabolic(alg, frozenset({0, 2}))


def test_b3_cartan_subspace():
    alg = build_algebra("B", 3)
    P = build_parabolic(alg, frozenset({1, 2}))
    assert P.pair_label == "(so_7, so_5 x so_2)"
    assert P.rank == 2
    assert len(P.R_S1) == 5
    assert len(P.k_basis()) + len(P.p_basis()) == alg.dimension
    # p_indices: the roots of R_S1, then their negatives, as p_basis
    p = P.p_indices()
    assert [alg.roots[i] for i in p] == (
        list(P.R_S1) + [tuple(-c for c in r) for r in P.R_S1])
    assert [e.coeffs for e in P.p_basis()] == [{i: 1} for i in p]
    rep = proposition_checks(P)
    assert rep["ok"], rep["failures"]


def test_e7_entry_sets():
    P = scan_type("E7", 7)[0]
    assert P.omitted_index == 6
    sets = sorted(sorted(i + 1 for i in e.subset_K) for e in P.E_entries)
    assert sets == [[1, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7], [7]]
    assert P.rank == 3


@pytest.mark.parametrize("label,rank,root", [
    ("A", 5, 2), ("C", 3, 2), ("D", 4, 3), ("E6", 6, 0),
])
def test_proposition_checks(label, rank, root):
    alg = build_algebra(label, rank)
    P = build_parabolic(alg, frozenset(range(rank)) - {root})
    rep = proposition_checks(P)
    assert rep["ok"], rep["failures"]
    assert rep["dim_a"] == P.rank


def test_proposition_checks_certify_each_x_k_once(monkeypatch):
    # the five parabolics of A5 hold 1 + 2 + 3 + 2 + 1 = 9 X_K, three of
    # them distinct: the cascade of A5 has three entries
    calls = []
    min_poly = linalg.min_poly
    monkeypatch.setattr(linalg, "min_poly",
                        lambda cols: calls.append(1) or min_poly(cols))
    found = scan_type("A", 5)
    assert sum(P.rank for P in found) == 9
    assert all(proposition_checks(P)["ok"] for P in found)
    assert len(calls) == 3


def test_generic_centralizer_dim_is_rank():
    # sum (K+1) X_K is p-regular on every catalog pair, C8 included
    catalog, _ = enumerate_catalog(max_rank=8)
    assert len(catalog) == 68
    assert [P.pair_label for P in catalog
            if generic_p_centralizer_dim(P) != P.rank] == []


def test_radical_roots_commute():
    alg = build_algebra("C", 3)
    P = build_parabolic(alg, frozenset({0, 1}))
    from liepairs.chevalley import bracket
    xs = [alg.x(r) for r in P.R_S1]
    for i in range(len(xs)):
        for j in range(len(xs)):
            assert not bracket(xs[i], xs[j])


def test_cartan_element_centralizer_contains_subspace():
    alg = build_algebra("B", 3)
    P = build_parabolic(alg, frozenset({1, 2}))
    rng = random.Random(5)
    xs = P.cartan_subspace()
    x = lin_comb([rng.randint(-9, 9) for _ in xs], xs)
    cz = centralizer_in(x, P.p_basis())
    assert len(cz) >= P.rank
