"""Centralizers of Cartan-subspace elements, subpair structure, and the
non-regular locus."""

import os
from fractions import Fraction

import pytest

from liepairs.centralizer import (
    RANK1_PAIRS,
    RANK2_PAIRS,
    commuting_nilpotent_witnesses,
    identify_semisimple_type,
    nonregular_locus,
    regularity_check,
    split_ideals,
    subpair,
)
from liepairs.chevalley import build_algebra
from liepairs.parabolic import build_parabolic, scan_type


def _pair(label, rank, root):
    alg = build_algebra(label, rank)
    return build_parabolic(alg, frozenset(range(rank)) - {root - 1})


def test_classification_lists_present():
    assert "(so_{n+1}, so_n)" in RANK1_PAIRS
    assert "(so_{n+2}, so_n x so_2)" in RANK2_PAIRS
    assert len(RANK1_PAIRS) == 4 and len(RANK2_PAIRS) == 10


def test_split_ideals_of_semisimple():
    alg = build_algebra("D", 2)     # A1 x A1
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    ideals = split_ideals(full, alg)
    assert sorted(len(i) for i in ideals) == [3, 3]


def test_identify_type():
    for label, rank, expect in (("A", 2, "A2"), ("B", 2, "B2"),
                                ("D", 4, "D4"), ("G2", 2, "G2")):
        alg = build_algebra(label, rank)
        full = [alg.basis_element(i) for i in range(alg.dimension)]
        assert identify_semisimple_type(full, alg) == expect


def test_identify_type_never_guesses_on_collision():
    # B3 and C3 share (dimension, rank) = (21, 3); the identifier must
    # refuse rather than guess
    alg = build_algebra("B", 3)
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    assert identify_semisimple_type(full, alg) == "not-identified"


def test_regularity_generic_vs_special():
    P = _pair("B", 3, 1)
    xs = P.cartan_subspace()
    assert regularity_check(P, 2 * xs[0] + 3 * xs[1])
    assert not regularity_check(P, xs[0] + xs[1])
    assert not regularity_check(P, xs[0])
    # every non-regular line is rational: no root-free factor is left
    assert nonregular_locus(P).residual_factors == ()


def test_d5_gl5_side_locus():
    # the rank-2 pair (so_10, gl_5): special lines differ from the
    # so x so case (no coordinate lines in the pencil normalization)
    P = _pair("D", 5, 5)
    locus = nonregular_locus(P)
    lines = sorted((str(a), str(b)) for a, b in locus.special_lines)
    assert lines == [("0", "1"), ("1", "-1"), ("1", "0"), ("1", "1")]
    xs = P.cartan_subspace()
    rep = subpair(P, xs[0] + xs[1])
    assert rep.dim_g_X == 17
    assert rep.r_pair_label == "(so_6, so_5)"


def test_subpair_of_regular_element():
    P = _pair("B", 3, 1)
    xs = P.cartan_subspace()
    rep = subpair(P, 2 * xs[0] + 3 * xs[1])
    assert rep.dim_p_X == P.rank
    assert rep.r_pair_label == "(so_1, so_0)"
    assert rep.dim_l_minus == 0


def test_sl6_commuting_nilpotent_witnesses():
    # (sl_6, sl_4 x sl_2 x C): X_K for K = {a2,a3,a4} centralizes two
    # commuting non-proportional nilpotents (the highest root vector
    # and x_{a1+a2}), so its subpair is not a product of rank-one
    # so-pairs
    P = _pair("A", 5, 2)
    assert P.rank == 2
    ki = [i for i, e in enumerate(P.E_entries)
          if e.subset_K == frozenset({1, 2, 3})][0]
    rep = commuting_nilpotent_witnesses(P, ki, (1, 1, 0, 0, 0))
    assert rep["ok"], rep


def test_e6_subpair_spot_check():
    P = _pair("E6", 6, 1)
    xs = P.cartan_subspace()
    rep = subpair(P, xs[0] + xs[1])
    # E III: restricted roots BC2, multiplicities 8, 6, 1, dim m = 16
    # (Helgason, ch. X, Table VI); at X1 + X2 only c1 - c2 (multiplicity
    # 6) vanishes, so dim p^X = 2 + 6 and dim g^X = 16 + 2 + 2 * 6
    assert (rep.dim_g_X, rep.dim_k_X, rep.dim_p_X) == (30, 22, 8)
    assert rep.l_type == "D4"
    assert rep.r_pair_label == "(so_8, so_7)"


E7_POINTS = {
    (-1, 0, 0): (67, 21, "D6", "(so_12, so_10 x so_2)"),
    (0, -1, 0): (67, 21, "D6", "(so_12, so_10 x so_2)"),
    (0, 0, -1): (67, 21, "D6", "(so_12, so_10 x so_2)"),
    (-1, -1, 0): (49, 12, "A1xD5", "(so_10, so_9) x (so_3, so_2)"),
    (-1, 0, -1): (49, 12, "A1xD5", "(so_10, so_9) x (so_3, so_2)"),
    (0, -1, -1): (49, 12, "A1xD5", "(so_10, so_9) x (so_3, so_2)"),
    (-1, -1, -1): (79, 27, None, None),
    (-1, -1, 1): (79, 27, None, None),
    (-1, 1, -1): (79, 27, None, None),
    (-1, 1, 1): (79, 27, None, None),
}


@pytest.mark.skipif(not os.environ.get("LIEPAIRS_SLOW"),
                    reason="E7 subpair scan takes ~100 s; "
                           "set LIEPAIRS_SLOW=1 to run")
def test_e7_special_point_subpairs():
    P = scan_type("E7", 7)[0]
    xs = P.cartan_subspace()
    for c, (dg, dp, ltype, label) in E7_POINTS.items():
        X = P.alg.zero()
        for ci, x in zip(c, xs):
            if ci:
                X = X + Fraction(ci) * x
        rep = subpair(P, X)
        assert (rep.dim_g_X, rep.dim_p_X) == (dg, dp), c
        if ltype is not None:
            assert rep.l_type == ltype, c
            assert rep.r_pair_label == label, c
