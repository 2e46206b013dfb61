"""Chevalley basis: integral structure constants, Jacobi identity,
bracket algebra, centralizers, semisimplicity tests."""

import itertools
import random
from fractions import Fraction

import pytest

from liepairs import linalg
from liepairs.chevalley import (
    LieElement,
    ad_columns,
    bracket,
    build_algebra,
    centralizer_in,
    derived_subalgebra,
    integral,
    is_ad_semisimple,
    jacobi_defect,
    lin_comb,
    minimal_polynomial_ad,
    span_of,
)
from liepairs.parabolic import build_parabolic, enumerate_catalog
from liepairs.report import jacobi_item


def test_sl2_relations():
    alg = build_algebra("A", 1)
    e, f, h = alg.x((1,)), alg.x((-1,)), alg.h(0)
    assert bracket(e, f) == h
    assert bracket(h, e) == 2 * e
    assert bracket(h, f) == Fraction(-2) * f


def test_integral_is_the_primitive_integral_multiple():
    alg = build_algebra("B", 2)
    basis = [alg.basis_element(j) for j in range(4)]
    assert all(type(c) is int for e in basis for c in e.coeffs.values())
    x = lin_comb([Fraction(2, 3), Fraction(-4, 9), 0, Fraction(8, 3)], basis)
    # times 9/2: the lcm 9 of the denominators over the gcd 2 of 6, -4, 24
    z = integral(x)
    assert z == lin_comb([3, -2, 0, 12], basis)
    assert all(type(c) is int for c in z.coeffs.values())
    assert integral(z) == z
    assert integral(alg.zero()) == alg.zero()


def extraspecial_pair(alg, gamma):
    """The special pair (a, b), a + b = gamma, with minimal a, read from
    the algebra's table of extraspecial pairs."""
    i = alg.root_index.get(tuple(gamma), alg.n_pos)
    pair = alg._extra[i] if i < alg.n_pos else None
    if pair is None:
        raise ValueError("no special pair: input is not a non-simple "
                         "positive root")
    return alg.roots[pair[0]], alg.roots[pair[1]]


def test_sl3_structure_constants():
    alg = build_algebra("A", 2)
    a, b = (1, 0), (0, 1)
    # in sl3 all N constants are +-1 and N(a,b) = -N(b,a)
    assert alg.N(a, b) in (1, -1)
    assert alg.N(a, b) == -alg.N(b, a)
    # extraspecial pair of the highest root gets N = p + 1 = 1
    assert alg.N(*extraspecial_pair(alg, (1, 1))) == 1


def test_structure_constants_are_integers():
    for label, rank in (("B", 3), ("C", 3), ("G2", 2)):
        alg = build_algebra(label, rank)
        for a in alg.rs.positive_roots:
            for b in alg.rs.positive_roots:
                s = tuple(x + y for x, y in zip(a, b))
                if alg.rs.is_root(s):
                    n = alg.N(a, b)
                    assert n == int(n) and n != 0


def test_g2_chain_constants():
    # G2 has root chains of length up to 4, so |N| reaches 3
    alg = build_algebra("G2", 2)
    vals = set()
    for a in alg.rs.positive_roots:
        for b in alg.rs.positive_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if alg.rs.is_root(s):
                vals.add(abs(alg.N(a, b)))
    assert 3 in vals


ALL_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
             + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
             + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_structure_constants_against_chevalleys_theorem(label, rank):
    # |N(a, b)| = p + 1 with b - p a the start of the a-string through b,
    # computed by walking the string, apart from the recursion for N
    alg = build_algebra(label, rank)
    is_root = alg.rs.is_root
    for a in alg.roots:
        for b in alg.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if not is_root(s):
                continue
            p = 0
            while is_root(tuple(y - (p + 1) * x for x, y in zip(a, b))):
                p += 1
            n = alg.N(a, b)
            assert type(n) is int and abs(n) == p + 1
            assert alg.N(b, a) == -n
    for gamma in alg.rs.positive_roots:
        if sum(gamma) > 1:
            assert alg.N(*extraspecial_pair(alg, gamma)) > 0


class TupleN:
    """Reference structure constants: the tuple recursion that
    `ChevalleyAlgebra.N` ran before its positive-pair table.  It recurses
    on coordinate tuples, memoizes on tuple keys, and sends negative and
    mixed pairs through further recursion."""

    def __init__(self, rs):
        self.rs = rs
        self.pos_index = {r: i for i, r in enumerate(rs.positive_roots)}
        self.memo = {}

    def chain_p(self, a, b):
        """Largest p with b - p*a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while self.rs.is_root(cur):
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def extraspecial_pair(self, gamma):
        for a in self.rs.positive_roots[:self.rs.rank]:
            b = tuple(x - y for x, y in zip(gamma, a))
            if b in self.pos_index:
                return a, b

    def N(self, a, b):
        key = a, b = tuple(a), tuple(b)
        val = self.memo.get(key)
        if val is None:
            s = tuple(x + y for x, y in zip(a, b))
            val = self.compute(a, b, s) if self.rs.is_root(s) else 0
            self.memo[key] = val
        return val

    def compute(self, a, b, s):
        rs, N = self.rs, self.N
        pos_a, pos_b = a in self.pos_index, b in self.pos_index
        if pos_a and pos_b:
            if self.pos_index[a] > self.pos_index[b]:
                return -N(b, a)
            a1, b1 = self.extraspecial_pair(s)
            if (a, b) == (a1, b1):
                return self.chain_p(a, b) + 1
            na1 = tuple(-c for c in a1)
            term = 0
            d1 = tuple(x - y for x, y in zip(a, a1))
            if rs.is_root(d1):
                term += N(na1, a) * N(d1, b)
            d2 = tuple(x - y for x, y in zip(b, a1))
            if rs.is_root(d2):
                term += N(na1, b) * N(a, d2)
            val, r = divmod(term, N(na1, s))
            assert not r
            return val
        if not pos_a and not pos_b:
            return -N(tuple(-c for c in a), tuple(-c for c in b))
        # mixed signs: N(a, b) = N(b, c) (c, c) / (a, a) on a + b + c = 0
        c = tuple(-x - y for x, y in zip(a, b))
        val, r = divmod(rs.form6(c, c) * N(b, c), rs.form6(a, a))
        assert not r
        return val


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_structure_constants_match_tuple_recursion(label, rank):
    alg = build_algebra(label, rank)
    ref = TupleN(alg.rs)
    for a in alg.roots:
        for b in alg.roots:
            if any(x + y for x, y in zip(a, b)):
                assert alg.N(a, b) == ref.N(a, b), (a, b)


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_structure_constant_identities(label, rank):
    # N(-a, -b) = -N(a, b); N(a, b)/|c|^2 = N(b, c)/|a|^2 = N(c, a)/|b|^2
    # on a + b + c = 0; N > 0 on the special pair (a, b) of each positive
    # root with a first in the positive order
    alg = build_algebra(label, rank)
    rs = alg.rs
    for a in alg.roots:
        na = tuple(-x for x in a)
        for b in alg.roots:
            c = tuple(-x - y for x, y in zip(a, b))
            if not any(c):
                continue
            nb = tuple(-x for x in b)
            assert alg.N(na, nb) == -alg.N(a, b)
            if rs.is_root(c):
                la, lb, lc = (rs.form6(r, r) for r in (a, b, c))
                assert alg.N(a, b) * la == alg.N(b, c) * lc
                assert alg.N(b, c) * lb == alg.N(c, a) * la
    pos = rs.positive_roots
    for gamma in pos[rank:]:
        a, b = next((a, b) for a in pos
                    if (b := tuple(g - x for g, x in zip(gamma, a))) in pos)
        assert alg.N(a, b) > 0


def test_structure_constant_of_non_roots_is_an_error():
    alg = build_algebra("B", 3)
    with pytest.raises(ValueError, match=r"\(0, 0, 2\), \(1, 2, 0\).*B3"):
        alg.N((0, 0, 2), (1, 2, 0))
    with pytest.raises(ValueError, match=r"\(1, 0\), \(0, 1, 0\).*B3"):
        alg.N((1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="opposite roots"):
        alg.N((0, 1, 1), (0, -1, -1))


def _corrupt_len6(monkeypatch, alg, root, value):
    """Replace 6 |a|^2 of one root, as a wrong length table would."""
    len6 = list(alg._len6)
    len6[alg.x_index(root)] = value
    monkeypatch.setattr(alg, "_len6", len6)


def test_coroot_guard_is_named_error(monkeypatch):
    # the short simple root of B2 has 6 |a|^2 = 6; with 5 its coroot
    # coordinate 6/5 is not an integer, and that stays an error under -O
    alg = build_algebra("B", 2)
    _corrupt_len6(monkeypatch, alg, (0, 1), 5)
    with pytest.raises(ValueError) as err:
        alg.coroot((0, 1))
    assert str(err.value) == ("type B, rank 2: coroot of (0, 1), "
                              "6 |a|^2 = 5 is not an integer quotient")


def test_mixed_sign_guard_is_named_error(monkeypatch):
    # N(a1 + a2, -a2) comes from the cyclic identity, divided by
    # 6 |a1 + a2|^2: with 5 in place of 6 the quotient is not exact
    alg = build_algebra("B", 2)
    _corrupt_len6(monkeypatch, alg, (1, 1), 5)
    with pytest.raises(ValueError) as err:
        alg.N((1, 1), (0, -1))
    assert str(err.value) == ("type B, rank 2: N((1, 1), (0, -1)) is not "
                              "an integer quotient")


def test_carter_quotient_guard_is_named_error(monkeypatch):
    # in A3, (a3, a1 + a2) is the extraspecial pair of the highest root,
    # so N(a1, a2 + a3) is a Jacobi quotient with N(-a3, a1 + a2 + a3) as
    # divisor; a table entry of 2 in place of +-1 leaves a remainder
    alg = build_algebra("A", 3)
    pair = (alg.x_index((0, 0, 1)), alg.x_index((1, 1, 0)))
    assert alg._extra[alg.x_index((1, 1, 1))] == pair
    monkeypatch.setitem(alg._N, pair, 2)
    with pytest.raises(ValueError) as err:
        alg.N((1, 0, 0), (0, 1, 1))
    assert str(err.value) == ("type A, rank 3: N((1, 0, 0), (0, 1, 1)) is "
                              "not an integer quotient")


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_extraspecial_pair_is_the_minimal_special_pair(label, rank):
    alg = build_algebra(label, rank)
    pos = alg.rs.positive_roots
    index = {r: i for i, r in enumerate(pos)}
    for gamma in pos:
        # the first a, in the positive order, with gamma - a a later root
        special = [(a, b) for ia, a in enumerate(pos)
                   if index.get(b := tuple(g - x for g, x in zip(gamma, a)),
                                -1) > ia]
        if special:
            assert extraspecial_pair(alg, gamma) == special[0]
        else:
            with pytest.raises(ValueError, match="no special pair"):
                extraspecial_pair(alg, gamma)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G2", 2),
                                        ("A", 3), ("B", 3), ("C", 3)])
def test_jacobi_exhaustive_small(label, rank):
    it = jacobi_item([(label, rank)])
    assert it["status"] == "pass", it


def test_jacobi_sampled_d4():
    alg = build_algebra("D", 4)
    rng = random.Random(11)
    d = alg.dimension
    for _ in range(5000):
        i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
        assert not jacobi_defect(alg, i, j, k)


def random_element(alg, rng, bound=9):
    """An element with integer coefficients drawn from [-bound, bound]."""
    return LieElement(alg, {i: Fraction(rng.randint(-bound, bound))
                            for i in range(alg.dimension)})


def test_bracket_antisymmetry_bilinearity():
    alg = build_algebra("B", 2)
    rng = random.Random(3)
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    z = random_element(alg, rng)
    assert bracket(x, y) == -bracket(y, x)
    assert bracket(x + y, z) == bracket(x, z) + bracket(y, z)
    assert bracket(Fraction(5) * x, y) == Fraction(5) * bracket(x, y)


def test_lin_comb_matches_repeated_add_and_scale():
    alg = build_algebra("B", 3)
    rng = random.Random(5)
    elems = [random_element(alg, rng, bound=2) for _ in range(6)]
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in elems]
    coeffs[2] = Fraction(0)
    want = alg.zero()
    for c, e in zip(coeffs, elems):
        want = want + c * e
    got = lin_comb(coeffs, elems)
    assert got == want
    assert all(got.coeffs.values())     # no stored zeros
    assert lin_comb([1, -1], [elems[0], elems[0]]) == alg.zero()
    assert lin_comb([0, 0], elems[:2]) == alg.zero()


def test_element_equality_with_other_types():
    alg = build_algebra("A", 1)
    x = alg.x((1,))
    assert x.__eq__(None) is NotImplemented
    assert not alg.zero() == 0 and alg.zero() != 0
    assert x in [None, x] and None not in [x]
    assert x == alg.x((1,)) and x != alg.x((-1,))


def test_cartan_coroot_brackets():
    alg = build_algebra("C", 3)
    for r in alg.rs.positive_roots:
        nr = tuple(-c for c in r)
        hr = bracket(alg.x(r), alg.x(nr))
        # [x_r, x_-r] = H_r acts on x_r by <r, r^vee> = 2
        assert bracket(hr, alg.x(r)) == 2 * alg.x(r)


def test_centralizer_of_cartan_element():
    alg = build_algebra("A", 2)
    # regular semisimple: centralizer is the Cartan subalgebra
    x = alg.h(0) + Fraction(17) * alg.h(1)
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    assert len(centralizer_in(x, full)) == 2


@pytest.mark.parametrize("label, rank", [("A", 2), ("B", 3), ("G2", 2),
                                         ("F4", 4)])
def test_ad_columns_match_brackets(label, rank):
    alg = build_algebra(label, rank)
    d = alg.dimension
    rng = random.Random(rank)
    xs = [alg.h(0) + 2 * alg.h(1),
          LieElement(alg, {i: rng.randint(-3, 3) for i in range(d)}),
          LieElement(alg, {i: rng.randint(-3, 3)
                           for i in rng.sample(range(d), 4) + [d - 1]})]
    for x in xs:
        # the first call meets a cold bracket memo, the second a warm one
        cold = ad_columns(x, range(d))
        want = [bracket(x, alg.basis_element(j)).coeffs for j in range(d)]
        assert cold == want == ad_columns(x, range(d))
        assert all(type(c) is int for col in cold for c in col.values())
        assert ad_columns(x, [d - 1, 0]) == [want[d - 1], want[0]]
    if label == "A":
        # <a1, a1^vee> + 2 <a1, a2^vee> = 2 - 2: the terms cancel
        assert xs[0].coeffs == {d - 2: 1, d - 1: 2}
        assert ad_columns(xs[0], [alg.x_index((1, 0))]) == [{}]


# (type, rank, omitted simple root) of every rank-2 catalog pair, and E7
# at its root 7
COLD_PAIRS = [(P.rs.type_label, P.alg.rank, P.omitted_index)
              for P in enumerate_catalog()[0] if P.rank == 2] + [("E7", 7, 6)]


def _cold_pair(label, rank, omitted):
    """The pair on a freshly built algebra, with no structure constant
    computed yet."""
    alg = build_algebra(label, rank)
    return build_parabolic(alg, frozenset(range(rank)) - {omitted})


def _basis_columns(alg, coeffs, indices):
    """[x, e_j] summed from `bracket_basis`, one basis bracket at a time."""
    cols = []
    for j in indices:
        col = {}
        for i, c in coeffs.items():
            for k, n in alg.bracket_basis(i, j).items():
                col[k] = col.get(k, 0) + c * n
        cols.append({k: v for k, v in col.items() if v})
    return cols


@pytest.mark.parametrize("label, rank, omitted", COLD_PAIRS)
def test_cold_ad_columns_match_basis_brackets(label, rank, omitted):
    # ad X for X = sum (k + 1) X_K on a cold algebra, against the columns
    # that `bracket_basis` gives on a second cold algebra
    P = _cold_pair(label, rank, omitted)
    alg = P.alg
    X = lin_comb(range(1, P.rank + 1), P.cartan_subspace())
    p, full = P.p_indices(), range(alg.dimension)
    got_p, got = ad_columns(X, p), ad_columns(X, full)
    ref = _cold_pair(label, rank, omitted).alg
    assert got_p == _basis_columns(ref, X.coeffs, p)
    assert got == _basis_columns(ref, X.coeffs, full)
    assert all(type(c) is int for col in got for c in col.values())
    # the root-key path leaves no bracket memo entry for a pair of roots
    # a, b with b != -a, and the Cartan columns still take the memo
    nroots = len(alg.roots)
    assert all(i >= nroots or j >= nroots or abs(i - j) == alg.n_pos
               for i, j in alg._bracket_memo)
    assert any(j >= nroots for _, j in alg._bracket_memo)


@pytest.mark.parametrize("label, rank", [("G2", 2), ("B", 3), ("F4", 4)])
def test_fill_order_does_not_change_a_value(label, rank):
    # bracket, ad_columns and N in each of the six orders, each on a cold
    # algebra: the memos fill in a different order, the values agree
    d = build_algebra(label, rank).dimension
    rng = random.Random(rank)
    x = {i: rng.randint(-3, 3) for i in rng.sample(range(d), 6) + [d - 1]}
    y = {i: rng.randint(-3, 3) for i in rng.sample(range(d), 5)}
    calls = {
        "bracket": lambda alg: bracket(LieElement(alg, x),
                                       LieElement(alg, y)).coeffs,
        "ad_columns": lambda alg: ad_columns(LieElement(alg, x), range(d)),
        "N": lambda alg: [alg.N(a, b) for a in alg.roots for b in alg.roots
                          if any(p + q for p, q in zip(a, b))],
    }
    seen = []
    for order in itertools.permutations(calls):
        alg = build_algebra(label, rank)
        seen.append({name: calls[name](alg) for name in order})
    assert all(got == seen[0] for got in seen[1:])


@pytest.mark.parametrize("label, rank", [("A", 2), ("B", 3), ("G2", 2)])
def test_centralizer_in_on_a_recombined_basis(label, rank):
    # an upper unitriangular integral recombination of the unit basis
    # spans g too, and each centralizer is the same subspace on both
    alg = build_algebra(label, rank)
    d = alg.dimension
    rng = random.Random(rank)
    unit = [alg.basis_element(j) for j in range(d)]
    mixed = [lin_comb([1] + [rng.randint(-2, 2) for _ in unit[j + 1:]],
                      unit[j:]) for j in range(d)]
    highest = alg.x(alg.rs.positive_roots[-1])
    for x in (highest, alg.h(0), highest + 3 * alg.h(1),
              LieElement(alg, {i: rng.randint(-2, 2) for i in range(d)})):
        want = centralizer_in(x, unit)
        got = centralizer_in(x, mixed)
        assert span_of(got).rows == span_of(want).rows
        assert len(got) == len(want)
        assert not any(bracket(x, y) for y in got)


def test_semisimplicity_detection():
    alg = build_algebra("A", 2)
    assert is_ad_semisimple(alg.h(0))
    assert not is_ad_semisimple(alg.x((1, 0)))
    # nilpotent: minimal polynomial of ad is a power of x
    p = minimal_polynomial_ad(alg.x((1, 0)))
    assert all(c == 0 for c in p[:-1])


def test_semisimplicity_certified_once_per_algebra(monkeypatch):
    calls = []
    min_poly = linalg.min_poly
    monkeypatch.setattr(linalg, "min_poly",
                        lambda cols: calls.append(1) or min_poly(cols))
    alg = build_algebra("B", 2)
    x = lin_comb([Fraction(1, 2), Fraction(-3, 2)],
                 [alg.h(0), alg.x((1, 1))]) + alg.x((-1, -1))
    # x, 2x and -x share the certificate of integral(x), up to sign
    for y in (x, 2 * x, -x, Fraction(-7, 3) * x):
        assert is_ad_semisimple(y) == is_ad_semisimple(x)
    assert len(calls) == 1
    # an equal element of another algebra is certified afresh
    other = build_algebra("B", 2)
    assert is_ad_semisimple(LieElement(other, dict(x.coeffs))) \
        == is_ad_semisimple(x)
    assert len(calls) == 2
    # a memoized False reads False again, with no new certificate
    e = alg.x((1, 0))
    assert not is_ad_semisimple(e)
    assert not is_ad_semisimple(e)
    assert len(calls) == 3


def test_derived_subalgebra_of_borel():
    alg = build_algebra("A", 2)
    borel = ([alg.h(i) for i in range(2)]
             + [alg.x(r) for r in alg.rs.positive_roots])
    der = derived_subalgebra(borel)
    assert len(der) == 3  # the nilradical


def test_derived_subalgebra_rejects_a_non_subalgebra():
    alg = build_algebra("A", 2)
    # [x_a1, x_a2] is a nonzero multiple of x_(a1+a2), outside the span
    with pytest.raises(ValueError, match="not closed"):
        derived_subalgebra([alg.x((1, 0)), alg.x((0, 1))])
