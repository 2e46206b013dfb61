"""Centralizers of Cartan-subspace elements, subpair structure, and the
non-regular locus."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from liepairs import centralizer
from liepairs.centralizer import (
    cayley_root_vectors,
    ideal_closure,
    identify_semisimple_type,
    nonregular_locus,
    regularity_check,
    span_intersection,
    split_ideals,
    subpair,
    toral_rank,
)
from liepairs.chevalley import (
    LieElement,
    bracket,
    bracket_span,
    build_algebra,
    centralizer_in,
    derived_subalgebra,
    exp_ad,
    integral,
    is_ad_semisimple,
    span_of,
)
from liepairs.parabolic import build_parabolic, enumerate_catalog, scan_type
from liepairs.rootsystem import build_root_system


# every `subpair` field on the 120 rank-2 special lines and the ten E7
# points, recorded from the basis route (l ∩ p^X, [l_minus, l_minus])
# that `test_dim_k_X_matches_the_k_kernel` keeps as its oracle
SUBPAIRS = json.loads(
    (Path(__file__).parent / "golden" / "subpairs.json").read_text())


def _golden_key(P, where):
    return f"{P.rs.type_label} {P.alg.rank} root {P.omitted_index + 1} {where}"


def _pair(label, rank, root):
    alg = build_algebra(label, rank)
    return build_parabolic(alg, frozenset(range(rank)) - {root - 1})


def reference_ideal_closure(seed, ambient):
    """Reference: the smallest subspace holding the seed and stable under
    ad of every ambient basis vector."""
    sp = span_of([])
    frontier = [e for e in seed if sp.add(e.coeffs)]
    while frontier:
        nxt = []
        for e in frontier:
            for b in ambient:
                v = bracket(b, e)
                if v and sp.add(v.coeffs):
                    nxt.append(v)
        frontier = nxt
    return [LieElement(seed[0].alg, row) for row in sp.rows]


def reference_split_ideals(basis):
    """Reference: peel off the ideal generated by one basis vector, closed
    under the whole remaining basis; its complement is its centralizer."""
    ideals, remaining = [], basis
    while remaining:
        best = None
        for v in remaining:
            cand = reference_ideal_closure([v], remaining)
            if best is None or len(cand) < len(best):
                best = cand
            if len(best) == 1 or len(best) * 2 <= len(remaining):
                break
        if len(best) == len(remaining):
            return ideals + [remaining]
        ideals.append(best)
        for g in best:
            remaining = centralizer_in(g, remaining)
    return ideals


def _echelon_set(ideals):
    """The ideals as subspaces: each one's reduced echelon rows."""
    return {tuple(tuple(sorted(row.items())) for row in span_of(i).rows)
            for i in ideals}


def _h(alg):
    """The Cartan subalgebra h of a Chevalley basis."""
    return [alg.h(i) for i in range(alg.rank)]


def _root_vectors(alg):
    """The root vectors x_{±a} of every positive root a."""
    return [alg.x(tuple(s * c for c in a))
            for a in alg.rs.positive_roots for s in (1, -1)]


def _split_full(alg):
    """split_ideals on the whole Chevalley basis, seeded by the root
    vectors against h."""
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    return split_ideals(full, _root_vectors(alg), _h(alg), alg)


def _cartan(P):
    """T = span(X_K) + h^a, the Cartan subalgebra `subpair` builds."""
    xs = P.cartan_subspace()
    return xs + centralizer_in(sum(xs, P.alg.zero()), _h(P.alg))


def _levi(label, rank, line):
    """The semisimple part l of g^X at mu X_1 + lambda X_2, alpha_1
    omitted, with the seeds and Cartan subalgebra `subpair` splits it by."""
    P = _pair(label, rank, 1)
    x1, x2 = P.cartan_subspace()
    X = line[0] * x1 + line[1] * x2
    full = [P.alg.basis_element(i) for i in range(P.alg.dimension)]
    return (P.alg, derived_subalgebra(centralizer_in(X, full)),
            cayley_root_vectors(P, X), _cartan(P))


def test_split_ideals_of_semisimple():
    # the ambient-basis reference's ideals on D2 = A1 x A1 and D4 in
    # full, and on the Levis of (so_9, so_7 x so_2) at [1:1] (so_7) and
    # of (so_10, so_8 x so_2) at [0:1] (so_3 + so_6)
    cases = [(alg, [alg.basis_element(i) for i in range(alg.dimension)],
              _root_vectors(alg), _h(alg))
             for alg in (build_algebra("D", 2), build_algebra("D", 4))]
    cases += [_levi("B", 4, (1, 1)), _levi("D", 5, (0, 1))]
    for (alg, basis, seeds, cartan), dims in zip(cases, ([3, 3], [28], [21],
                                                         [3, 15])):
        got = split_ideals(basis, seeds, cartan, alg)
        assert sorted(len(i) for i in got) == dims
        assert _echelon_set(got) == _echelon_set(
            reference_split_ideals(basis))


def _d4_sl2_pair():
    """In D4, alpha_1 ⊥ alpha_3: the basis e1 ± e3, f1 ± f3, h1 ± h3 of
    sl_2 x sl_2, no vector of which lies in either ideal, and the lists
    e, f, h = [x_{a1}, x_{a3}], [x_{-a1}, x_{-a3}], [h_1, h_3]."""
    alg = build_algebra("D", 4)
    a1, a3 = (1, 0, 0, 0), (0, 0, 1, 0)
    e = [alg.x(a1), alg.x(a3)]
    f = [alg.x(tuple(-c for c in a)) for a in (a1, a3)]
    h = [alg.h(0), alg.h(2)]
    basis = [u[0] + s * u[1] for u in (e, f, h) for s in (1, -1)]
    return alg, basis, (e, f, h)


def test_split_ideals_of_a_basis_meeting_both_ideals():
    alg, basis, (e, f, h) = _d4_sl2_pair()
    got = split_ideals(basis, e + f, _h(alg), alg)
    assert sorted(len(i) for i in got) == [3, 3]
    assert _echelon_set(got) == _echelon_set([[e[0], f[0], h[0]],
                                              [e[1], f[1], h[1]]])


@pytest.mark.parametrize("which", ["x_a1 + x_a3", "h_1"])
def test_split_ideals_rejects_a_seed_that_is_no_root_vector(which):
    # x_a1 + x_a3 has two weights under h, and h_1 has weight 0
    alg, basis, (e, f, h) = _d4_sl2_pair()
    seed = e[0] + e[1] if which == "x_a1 + x_a3" else h[0]
    with pytest.raises(ValueError, match=re.escape(repr(seed))):
        split_ideals(basis, [seed], _h(alg), alg)


def test_split_ideals_rejects_seeds_that_miss_an_ideal():
    alg, basis, (e, f, h) = _d4_sl2_pair()
    with pytest.raises(ValueError, match=r"\[3\] do not add up to 6"):
        split_ideals(basis, e[:1] + f[:1], _h(alg), alg)


def test_split_ideals_rejects_a_non_subalgebra():
    # x_{a1} and x_{a2} bracket to x_{a1+a2}, outside their span
    alg = build_algebra("A", 2)
    basis = [alg.x((1, 0)), alg.x((0, 1))]
    with pytest.raises(ValueError,
                       match=re.escape(f"seed {basis[0]!r} generates beyond")):
        split_ideals(basis, basis, _h(alg), alg)


def test_exp_ad_stops_only_on_a_nilpotent_input():
    # in sl_2: exp(ad e)(f) = f + h - e; ad h is not nilpotent on e
    alg = build_algebra("A", 1)
    e, f, h = alg.x((1,)), alg.x((-1,)), alg.h(0)
    assert exp_ad(e, f, 1) == f + h - e
    with pytest.raises(ValueError, match=re.escape(repr(h))):
        exp_ad(h, e, 1)


def test_cayley_root_vectors_lie_in_the_centralizer():
    # at X = X_1 + X_2 of (so_7, so_5 x so_2), g^X = so_5 + C: the four
    # vectors are those of the ± simple roots of B2
    P = _pair("B", 3, 1)
    x1, x2 = P.cartan_subspace()
    X = x1 + x2
    seeds = cayley_root_vectors(P, X)
    assert len(seeds) == 4
    assert not any(bracket(X, v) for v in seeds)


@pytest.mark.parametrize("label, rank, root, c, n", [
    ("B", 4, 1, (1, 1), 1),             # so_7
    ("D", 5, 1, (0, 1), 2),             # so_3 + so_6
    ("E7", 7, 7, (-1, -1, 0), 2),       # A1 + D5
])
def test_one_ideal_closure_per_simple_ideal(label, rank, root, c, n,
                                            monkeypatch):
    calls = []
    closure = centralizer.ideal_closure

    def spy(*args):
        calls.append(args)
        return closure(*args)

    P = _pair(label, rank, root)
    X = P.alg.zero()
    for ci, x in zip(c, P.cartan_subspace()):
        if ci:
            X = X + Fraction(ci) * x
    monkeypatch.setattr(centralizer, "ideal_closure", spy)
    subpair(P, X)
    assert len(calls) == n


def test_closure_of_the_simple_root_vectors_is_the_algebra():
    for label, rank in (("A", 2), ("B", 3), ("G2", 2)):
        alg = build_algebra(label, rank)
        gens = [alg.x(tuple(s * (i == k) for i in range(rank)))
                for s in (1, -1) for k in range(rank)]
        assert len(ideal_closure(gens, gens, alg)) == alg.dimension


def test_toral_rank_is_the_rank():
    for label, rank in (("A", 2), ("B", 2), ("G2", 2), ("D", 4)):
        alg = build_algebra(label, rank)
        full = [alg.basis_element(i) for i in range(alg.dimension)]
        assert toral_rank(full, _h(alg)) == rank


def test_toral_rank_reads_the_span_not_the_basis():
    # rewrite one basis vector of A2 as a combination of all eight, so
    # that the basis is not a Chevalley basis; the rank stays 2
    alg = build_algebra("A", 2)
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    rng = random.Random(7)
    c = [rng.randint(-5, 5) for _ in full]
    j = next(i for i, ci in enumerate(c) if ci)
    others = alg.zero()
    for i, (ci, e) in enumerate(zip(c, full)):
        if i != j:
            others = others + ci * e
    basis = list(full)
    basis[j] = Fraction(1, c[j]) * (full[j] - others)
    assert toral_rank(basis, _h(alg)) == 2


def test_identify_type_of_a_zero_vector():
    alg = build_algebra("A", 1)
    assert identify_semisimple_type([[alg.zero()]], _h(alg)) == \
        "not-identified"


def test_identify_type():
    for label, rank, expect in (("A", 2, "A2"), ("B", 2, "B2"),
                                ("D", 4, "D4"), ("G2", 2, "G2")):
        alg = build_algebra(label, rank)
        assert identify_semisimple_type(_split_full(alg), _h(alg)) == expect


def test_identify_type_never_guesses_on_collision():
    # B3 and C3 share (dimension, rank) = (21, 3); the identifier must
    # refuse rather than guess
    alg = build_algebra("B", 3)
    assert identify_semisimple_type(_split_full(alg), _h(alg)) == \
        "not-identified"


def test_type_table_labels_sharing_a_dimension_share_a_rank():
    # the rank of each label is its number and its dimension is the
    # table's; so the rank never separates labels of one dimension, and
    # identify_semisimple_type may skip it when a dimension is shared
    for dim, labels in centralizer._TYPE_TABLE.items():
        assert len({int(lab[1:]) for lab in labels}) == 1, labels
        for lab in labels:
            n = int(lab[1:])
            rs = build_root_system(lab if lab[0] in "EFG" else lab[0], n)
            assert n + 2 * len(rs.positive_roots) == dim, lab


def test_identify_type_skips_the_rank_on_a_shared_dimension(monkeypatch):
    def no_rank(basis, cartan):
        raise AssertionError("rank computed for a shared dimension")

    alg = build_algebra("B", 3)
    ideals = _split_full(alg)
    monkeypatch.setattr(centralizer, "toral_rank", no_rank)
    assert identify_semisimple_type(ideals, _h(alg)) == "not-identified"


def test_identify_type_confirms_a_unique_label_by_rank(monkeypatch):
    # A2 is the only 8-dimensional type; a rank other than 2 refutes it
    alg = build_algebra("A", 2)
    ideals = _split_full(alg)
    monkeypatch.setattr(centralizer, "toral_rank", lambda basis, cartan: 3)
    assert identify_semisimple_type(ideals, _h(alg)) == "not-identified"


def test_regularity_generic_vs_special():
    P = _pair("B", 3, 1)
    xs = P.cartan_subspace()
    assert regularity_check(P, 2 * xs[0] + 3 * xs[1])
    assert not regularity_check(P, xs[0] + xs[1])
    assert not regularity_check(P, xs[0])
    # every non-regular line is rational: no root-free factor is left
    assert nonregular_locus(P).residual_factors == ()


def test_d5_gl5_side_locus():
    # the rank-2 pair (so_10, gl_5): the four special lines are the two
    # coordinate lines [0:1], [1:0] and the two diagonals [1:-1], [1:1]
    P = _pair("D", 5, 5)
    locus = nonregular_locus(P)
    lines = sorted((str(a), str(b)) for a, b in locus.special_lines)
    assert lines == [("0", "1"), ("1", "-1"), ("1", "0"), ("1", "1")]
    xs = P.cartan_subspace()
    rep = subpair(P, xs[0] + xs[1])
    assert rep.dim_g_X == 17
    assert rep.r_pair_label == "(so_6, so_5)"


def test_every_rank2_catalog_row_has_the_four_lines():
    rows = [P for P in enumerate_catalog()[0] if P.rank == 2]
    assert len(rows) == 30
    four = tuple((Fraction(mu), Fraction(lam))
                 for mu, lam in ((0, 1), (1, -1), (1, 0), (1, 1)))
    for P in rows:
        locus = nonregular_locus(P)
        assert locus.special_lines == four, P.pair_label
        assert locus.residual_factors == (), P.pair_label
        assert locus.generic_rank == len(P.p_basis()) - 2, P.pair_label


def test_subpair_reads_int_and_fraction_coefficients_alike():
    # cayley_root_vectors tests alpha(H) = 0 on the coefficients of
    # integral(X), from X's ints or Fractions alike: it must stay exact
    P = _pair("B", 3, 1)
    xs = P.cartan_subspace()
    for mu, lam in nonregular_locus(P).special_lines:
        X = mu * xs[0] + lam * xs[1]
        ints = LieElement(P.alg, {i: int(c) for i, c in X.coeffs.items()})
        twin = LieElement(P.alg, {i: Fraction(c) for i, c in X.coeffs.items()})
        assert {type(c) for c in ints.coeffs.values()} == {int}
        assert {type(c) for c in twin.coeffs.values()} == {Fraction}
        rep = subpair(P, ints)
        assert rep == subpair(P, twin)
        assert rep.to_json_dict() == SUBPAIRS[_golden_key(P, f"[{mu}:{lam}]")]


def test_centralizer_path_is_scale_invariant():
    # at a generic point and on the line [1:1] of every rank-2 pair, X and
    # r X have one centralizer, p-centralizer, semisimplicity and subpair,
    # and ad integral(X) has int columns on the int Chevalley basis
    rows = [P for P in enumerate_catalog()[0] if P.rank == 2]
    assert len(rows) == 30
    for P in rows:
        alg = P.alg
        full = [alg.basis_element(i) for i in range(alg.dimension)]
        xs = P.cartan_subspace()
        # [2:3] is on none of the special lines [0:1], [1:-1], [1:0], [1:1]
        for X, regular in ((2 * xs[0] + 3 * xs[1], True),
                           (xs[0] + xs[1], False)):
            Z = integral(X)
            assert all(type(c) is int
                       for b in full for c in bracket(Z, b).coeffs.values())
            want = (centralizer_in(X, full), P.dim_p_centralizer(X),
                    is_ad_semisimple(X), subpair(P, X))
            assert (want[1] == P.rank) == regular and want[2]
            for r in (Fraction(3, 7), Fraction(-2, 9)):
                rX = r * X
                assert integral(rX) == (Z if r > 0 else -Z)
                got = (centralizer_in(rX, full), P.dim_p_centralizer(rX),
                       is_ad_semisimple(rX), subpair(P, rX))
                assert got == want, (P.pair_label, regular, r)


# l_type on the diagonal lines [1:1] and [1:-1] of the rows (sl_{n+1},
# s(gl_2 x gl_{n-1})), alpha_2 or alpha_{n-1} omitted.  There X has the
# eigenvalues c, c, -c, -c and 0 (n - 3 times) on C^{n+1}, so
# l = sl_2 + sl_2 + sl_{n-3}, and theta swaps the two sl_2:
A_DIAGONAL_L_TYPES = {
    3: "A1xA1",         # (sl_4, s(gl_2 x gl_2)) = (so_6, so_4 x so_2): so_4
    4: "A1xA1",         # sl_1 = 0
    5: "A1xA1xA1",      # sl_2
    6: "A1xA1xA2",      # sl_3
    7: "A1xA1xA3",      # sl_4
    8: "A1xA1xA4",      # sl_5
}


def test_subpair_on_every_rank2_special_line(monkeypatch):
    # all 120 lines: the simple ideals' ranks add up to rank g less the
    # center of g^X, an identified l_type has one label per ideal, and
    # the 22 diagonal lines of the A rows read A1xA1(x...)
    ranks = _spy_ideal_ranks(monkeypatch)
    diagonal = 0
    for P in enumerate_catalog()[0]:
        if P.rank != 2:
            continue
        xs = P.cartan_subspace()
        n = P.alg.rank
        for mu, lam in nonregular_locus(P).special_lines:
            rep = subpair(P, mu * xs[0] + lam * xs[1])
            assert rep.to_json_dict() == \
                SUBPAIRS[_golden_key(P, f"[{mu}:{lam}]")]
            r = ranks.pop()
            assert sum(r) == n - rep.l_center_dim, (P.pair_label, mu, lam)
            if rep.l_type != "not-identified":
                assert len(rep.l_type.split("x")) == len(r), rep.l_type
            if P.rs.type_label == "A" and mu * lam:
                assert rep.l_type == A_DIAGONAL_L_TYPES[n], (n, mu, lam)
                assert rep.r_pair_label == "(so_4, so_3)", (n, mu, lam)
                diagonal += 1
    assert diagonal == 22


def _spy_ideal_ranks(monkeypatch):
    """Make each later `subpair` append the ranks of the simple ideals of
    its l, read against the Cartan subalgebra it builds, to the returned
    list."""
    ranks = []
    identify = centralizer.identify_semisimple_type

    def spy(ideals, cartan):
        assert len(cartan) == cartan[0].alg.rank
        ranks.append([centralizer.toral_rank(I, cartan) for I in ideals])
        return identify(ideals, cartan)

    monkeypatch.setattr(centralizer, "identify_semisimple_type", spy)
    return ranks


@pytest.mark.parametrize("label, rank", [("B", 3), ("D", 5)])
def test_dim_k_X_matches_the_k_kernel(label, rank, monkeypatch):
    # subpair reads dim k^X off g^X = k^X + p^X, and l_minus and r_plus
    # off the theta-orbits of the simple ideals of l; the kernels of ad X
    # on k and p, l ∩ p^X and [l_minus, l_minus] are the independent
    # counts.  The ranks of the simple ideals of l add up to rank g minus
    # the dimension of the center of g^X
    P = _pair(label, rank, 1)
    xs = P.cartan_subspace()
    full = [P.alg.basis_element(i) for i in range(P.alg.dimension)]
    ranks = _spy_ideal_ranks(monkeypatch)
    for mu, lam in nonregular_locus(P).special_lines:
        X = mu * xs[0] + lam * xs[1]
        rep = subpair(P, X)
        pX = centralizer_in(X, P.p_basis())
        l_minus = span_intersection(
            derived_subalgebra(centralizer_in(X, full)), pX, P.alg)
        assert rep.dim_k_X == len(centralizer_in(X, P.k_basis()))
        assert rep.dim_p_X == len(pX)
        assert rep.dim_l_minus == len(l_minus), (mu, lam)
        assert rep.dim_r_plus == len(bracket_span(l_minus)), (mu, lam)
        assert sum(ranks.pop()) == rank - rep.l_center_dim, (mu, lam)


@pytest.mark.parametrize("m", range(1, 9))
def test_so_pair_label_reads_both_factor_shapes(m):
    # (so_{m+1}, so_m): dim_minus m, dim_plus m(m-1)/2; (so_{m+2}, so_m x
    # so_2): dim_minus 2m, dim_plus m(m-1)/2 + 1.  At m = 1 the second
    # shape is (2, 1), the first shape's (so_3, so_2), which wins
    label = centralizer._so_pair_label
    assert label([(m, m * (m - 1) // 2)]) == f"(so_{m + 1}, so_{m})"
    assert label([(2 * m, m * (m - 1) // 2 + 1)]) == (
        "(so_3, so_2)" if m == 1 else f"(so_{m + 2}, so_{m} x so_2)")


def test_so_pair_label_of_a_product_or_of_no_factor():
    label = centralizer._so_pair_label
    assert label([]) == "(so_1, so_0)"
    assert label([(2, 1), (9, 36)]) == "(so_10, so_9) x (so_3, so_2)"
    # (E6, F4): dim_minus 26, dim_plus 52, of no so shape
    assert label([(26, 52)]) == "not-identified"
    assert label([(3, 3), (26, 52)]) == "not-identified"


def test_subpair_of_regular_element():
    P = _pair("B", 3, 1)
    xs = P.cartan_subspace()
    rep = subpair(P, 2 * xs[0] + 3 * xs[1])
    assert rep.dim_p_X == P.rank
    assert rep.r_pair_label == "(so_1, so_0)"
    assert rep.dim_l_minus == 0
    # h_1 is semisimple but outside span(X_K), where the ranks of the
    # ideals of l are not read
    with pytest.raises(ValueError, match="Cartan subspace"):
        subpair(P, P.alg.h(0))


def commuting_nilpotent_witnesses(P, entry_index, beta):
    """Check that X_K centralizes two non-proportional commuting nilpotent
    root vectors, the highest root vector and x_beta, both in the
    radical; a report dict with "ok"."""
    alg = P.alg
    X = P.cartan_subspace()[entry_index]
    top = alg.rs.positive_roots[-1]
    a, b = alg.x(top), alg.x(tuple(beta))
    report = {
        "centralizes_top": not bracket(X, a),
        "centralizes_beta": not bracket(X, b),
        "commute": not bracket(a, b),
        "non_proportional": tuple(beta) != top,
        "in_radical": {tuple(beta), top} <= set(P.R_S1),
    }
    report["ok"] = all(report.values())
    return report


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


# (dim g^X, dim p^X, l_type, r_pair_label, dim_l_minus, dim_r_plus); the
# last two are dim p and dim k of the r-pair: (so_12, so_10 x so_2) is
# 20 + 46, (so_10, so_9) x (so_3, so_2) is (9 + 36) + (2 + 1), and on the
# 78-dimensional l, whose type the dimension table cannot name, the
# r-pair is (E6, F4), 26 + 52 (Helgason, ch. X, Table V)
E7_POINTS = {
    (-1, 0, 0): (67, 21, "D6", "(so_12, so_10 x so_2)", 20, 46),
    (0, -1, 0): (67, 21, "D6", "(so_12, so_10 x so_2)", 20, 46),
    (0, 0, -1): (67, 21, "D6", "(so_12, so_10 x so_2)", 20, 46),
    (-1, -1, 0): (49, 12, "A1xD5", "(so_10, so_9) x (so_3, so_2)", 11, 37),
    (-1, 0, -1): (49, 12, "A1xD5", "(so_10, so_9) x (so_3, so_2)", 11, 37),
    (0, -1, -1): (49, 12, "A1xD5", "(so_10, so_9) x (so_3, so_2)", 11, 37),
    (-1, -1, -1): (79, 27, None, None, 26, 52),
    (-1, -1, 1): (79, 27, None, None, 26, 52),
    (-1, 1, -1): (79, 27, None, None, 26, 52),
    (-1, 1, 1): (79, 27, None, None, 26, 52),
}


# one point per type of l: D6, A1xD5 and the 78-dimensional l
E7_K_KERNEL_POINTS = {(-1, 0, 0), (-1, -1, 0), (-1, -1, -1)}


@pytest.fixture(scope="module")
def e7_pair():
    return scan_type("E7", 7)[0]


def _e7_point(P, c):
    """sum_K c_K X_K, with Fraction coefficients."""
    X = P.alg.zero()
    for ci, x in zip(c, P.cartan_subspace()):
        if ci:
            X = X + Fraction(ci) * x
    return X


@pytest.mark.parametrize("c", list(E7_POINTS))
def test_e7_special_point_subpairs(e7_pair, c, monkeypatch):
    X = _e7_point(e7_pair, c)
    dg, dp, ltype, label, lm, rp = E7_POINTS[c]
    ranks = _spy_ideal_ranks(monkeypatch)
    rep = subpair(e7_pair, X)
    assert rep.to_json_dict() == SUBPAIRS[_golden_key(e7_pair, str(c))], c
    assert (rep.dim_g_X, rep.dim_p_X) == (dg, dp), c
    assert (rep.dim_l_minus, rep.dim_r_plus) == (lm, rp), c
    assert sum(ranks.pop()) == 7 - rep.l_center_dim, c
    if c in E7_K_KERNEL_POINTS:
        assert rep.dim_k_X == len(centralizer_in(X, e7_pair.k_basis())), c
    if ltype is not None:
        assert rep.l_type == ltype, c
        assert rep.r_pair_label == label, c


def test_cayley_root_vectors_are_those_of_the_simple_roots_of_phi_h(e7_pair):
    # on the 130 golden points: two seeds per simple root of Phi_H, whose
    # number is the semisimple rank of g^X, each in g^X and integral
    points = [(e7_pair, _e7_point(e7_pair, c), str(c)) for c in E7_POINTS]
    for P in enumerate_catalog()[0]:
        if P.rank == 2:
            xs = P.cartan_subspace()
            points += [(P, mu * xs[0] + lam * xs[1], f"[{mu}:{lam}]")
                       for mu, lam in nonregular_locus(P).special_lines]
    assert len(points) == 130
    for P, X, where in points:
        key = _golden_key(P, where)
        seeds = cayley_root_vectors(P, X)
        semisimple_rank = P.alg.rank - SUBPAIRS[key]["l_center_dim"]
        assert len(seeds) == 2 * semisimple_rank, key
        assert not any(bracket(X, v) for v in seeds), key
        assert all(type(c) is int for v in seeds for c in v.coeffs.values())
