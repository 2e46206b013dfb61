"""Acceptance gate: ten exact end-to-end criteria, one pass/fail line each.

Each test prints "criterion N: <name> ... PASS" on success; a failure
raises with a witness.  Budgets: criteria 1, 2, 3, 7, 9 under a minute;
4 and 6 take seconds.
"""

import random
import sys
from fractions import Fraction

import pytest

from liepairs import matrixmodel as mm
from liepairs import orbits
from liepairs.cascade import full_cascade, verify_gamma_partition
from liepairs.centralizer import nonregular_locus, subpair
from liepairs.chevalley import build_algebra, jacobi_defect
from liepairs.parabolic import (
    build_parabolic,
    enumerate_catalog,
    proposition_checks,
)
from liepairs.rootsystem import build_root_system, strongly_orthogonal


def _report(num, name):
    print(f"criterion {num}: {name} ... PASS", flush=True)
    sys.stdout.flush()


def test_criterion_01_catalog_table():
    """Exhaustive abelian-radical scan reproduces the catalog exactly."""
    # enumerate_catalog raises on any mismatch against the static rows
    catalog = enumerate_catalog(max_rank=8)
    by_type = {}
    for P in catalog:
        by_type.setdefault(P.rs.type_label, []).append(P)
    # spot-frozen rows
    b = [P for P in by_type["B"] if P.rs.rank == 5][0]
    assert b.omitted_index == 0 and b.rank == 2
    assert sorted(sorted(i + 1 for i in e.subset_K) for e in b.E_entries) \
        == [[1], [1, 2, 3, 4, 5]]
    c = [P for P in by_type["C"] if P.rs.rank == 5][0]
    assert c.omitted_index == 4 and c.rank == 5
    e7 = by_type["E7"][0]
    assert e7.omitted_index == 6 and e7.rank == 3
    _report(1, "catalog of abelian-radical parabolic pairs")


def test_criterion_02_centralizer_dims_and_locus():
    """dim g^X is 7/11 (B3) and 19/29 (D5) on the non-regular lines,
    which are exactly {[1:0],[0:1],[1:1],[1:-1]}."""
    expected = {("B", 3): (7, 7, 11, 11), ("D", 5): (19, 19, 29, 29)}
    for (label, rank), dims in expected.items():
        alg = build_algebra(label, rank)
        P = build_parabolic(alg, frozenset(range(rank)) - {0})
        locus = nonregular_locus(P)
        lines = sorted((str(a), str(b)) for a, b in locus.special_lines)
        assert lines == [("0", "1"), ("1", "-1"), ("1", "0"), ("1", "1")]
        xs = P.cartan_subspace()
        got = tuple(sorted(
            subpair(P, Fraction(mu) * xs[0] + Fraction(lam) * xs[1]).dim_g_X
            for mu, lam in locus.special_lines))
        assert got == dims, (label, rank, got)
    _report(2, "B3/D5 centralizer dimensions and non-regular locus")


def test_criterion_03_cartan_subspace_structure():
    """For every catalog entry: a abelian, X_K semisimple, radical
    covered by the Gamma^K, eps_K - alpha outside the radical."""
    failures = []
    for P in enumerate_catalog(max_rank=8):
        rep = proposition_checks(P)
        if not rep["ok"]:
            failures.append((P.pair_label, rep["failures"]))
    assert not failures, failures
    _report(3, "Cartan-subspace structure for all catalog pairs")


def test_criterion_04_cascade_invariants():
    """Strong orthogonality of the eps_K; Gamma^K partition identity."""
    jobs = ([("A", k) for k in range(1, 9)] + [("B", k) for k in range(2, 9)]
            + [("C", k) for k in range(2, 9)] + [("D", k) for k in range(4, 9)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
    for label, rank in jobs:
        rs = build_root_system(label, rank)
        rep = verify_gamma_partition(rs, frozenset(range(rank)))
        assert rep["failures"] == [], (label, rank, rep["failures"])
        assert sum(rep["gamma_sizes"]) == len(rs.positive_roots)
        eps = [e.epsilon_K for e in full_cascade(rs)]
        for i in range(len(eps)):
            for j in range(i + 1, len(eps)):
                assert strongly_orthogonal(rs, eps[i], eps[j])
    _report(4, "cascade invariants for all types to rank 8")


def test_criterion_05_jacobi():
    """Jacobi identity: exhaustive for B3/D5, 10^6 fixed-seed samples
    for E6 and E7."""
    for label, rank in (("B", 3), ("D", 5)):
        alg = build_algebra(label, rank)
        d = alg.dimension
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    assert not jacobi_defect(alg, i, j, k), (label, i, j, k)
    for label, rank in (("E6", 6), ("E7", 7)):
        alg = build_algebra(label, rank)
        d = alg.dimension
        rng = random.Random(2024)
        for _ in range(10 ** 6):
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            assert not jacobi_defect(alg, i, j, k), (label, i, j, k)
    _report(5, "Jacobi identity (B3/D5 exhaustive, E6/E7 sampled)")


def test_criterion_06_orbit_lists():
    """Signed-diagram enumeration matches the displayed orbit lists."""
    assert len(orbits.enumerate_dyo(2)) == 9
    by_shape = {}
    for d in orbits.enumerate_dyo(3):
        by_shape.setdefault(tuple(sorted(d.shape, reverse=True)),
                            []).append(d)
    assert {s: len(v) for s, v in by_shape.items()} == {
        (5,): 2, (3, 1, 1): 3, (2, 2, 1): 2, (1, 1, 1, 1, 1): 1}
    for p in range(4, 13):
        by_shape = {}
        for d in orbits.enumerate_dyo(p):
            by_shape.setdefault(tuple(sorted(d.shape, reverse=True)),
                                []).append(d)
        expect = {
            (5,) + (1,) * (p - 3): 2,
            (3, 3) + (1,) * (p - 4): 2 if p == 4 else 1,
            (3,) + (1,) * (p - 1): 3,
            (2, 2) + (1,) * (p - 2): 2,
            (1,) * (p + 2): 1,
        }
        assert {s: len(v) for s, v in by_shape.items()} == expect, p
        for d in orbits.enumerate_dyo(p):
            assert max(d.shape) <= 5
    _report(6, "signed orbit enumeration for p = 2..12")


def test_criterion_07_distinguished_evenness_and_witness():
    """Every shape other than (2,2,1^(p-2)) is even; that shape has an
    odd characteristic entry and an explicit H in p^X witness."""
    for p in range(2, 13):
        special = (2, 2) + (1,) * (p - 2)
        for d in orbits.enumerate_dyo(p):
            shape = tuple(sorted(d.shape, reverse=True))
            cands = orbits.characteristic(orbits.forget_signs(d))
            if shape == special and p >= 3:
                assert all(any(x % 2 == 1 for x in cc) for cc in cands), d
            else:
                assert any(orbits.is_even(cc) for cc in cands), d
    for p in range(3, 13):
        rep = mm.minimal_orbit_not_distinguished(mm.build_pair(p))
        assert rep["ok"], (p, rep)
    _report(7, "evenness of p-distinguished orbits plus witnesses")


def test_criterion_08_characteristic_oracle():
    """(alpha_i(H)) from exact normal triples equals the combinatorial
    recipe for every orbit representative, p <= 8."""
    for p in range(2, 9):
        pair = mm.build_pair(p)
        for d in orbits.enumerate_dyo(p):
            X = mm.nilpotent_from_diagram(pair, d)
            assert mm.jordan_type(mm.qi_entries(X)) == tuple(
                sorted(d.shape, reverse=True))
            if mm.mat_is_zero(X):
                continue
            t = mm.normal_triple_for(pair, X)
            c = mm.characteristic_from_triple(t)
            cd = orbits.characteristic(orbits.forget_signs(d))
            assert set(c) & set(cd), (p, d, c, cd)
    _report(8, "characteristics from normal triples, p = 2..8")


def test_criterion_09_even_sheet():
    """For every even orbit: dim p^(X+lambda Y) = dim p^X at
    lambda = 1, 2, 3 and X + lambda Y is semisimple."""
    for p in range(2, 9):
        pair = mm.build_pair(p)
        for d in orbits.enumerate_dyo(p):
            cands = orbits.characteristic(orbits.forget_signs(d))
            if not any(orbits.is_even(c) for c in cands):
                continue
            X = mm.nilpotent_from_diagram(pair, d)
            if mm.mat_is_zero(X):
                continue
            t = mm.normal_triple_for(pair, X)
            rep = mm.even_sheet_witness(pair, t)
            assert rep["ok"], (p, d, rep)
    _report(9, "even-sheet property at lambda = 1, 2, 3 for p = 2..8")


def test_criterion_10_jordan_component_and_dim_identity():
    """100 fixed-seed trials: semisimple component of Y in p^X stays
    proportional to X_s; plus dim[k,X] + dim p^X = dim p on 100 X."""
    pair = mm.build_pair(5)
    X, _, _ = mm.lemma_witness_element(pair)
    rep = mm.lemma51_check(pair, X, trials=100, seed=0)
    assert rep["ok"], rep
    rep = mm.dim_identity_check(mm.build_pair(4), samples=100, seed=0)
    assert rep["ok"], rep
    _report(10, "Jordan-component sampling and dimension identity")
