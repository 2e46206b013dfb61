"""Centralizers of semisimple elements of the Cartan subspace and the
symmetric subpair they carry.

For semisimple X in the Cartan subspace a of p_S, the centralizer g^X
is a Levi subalgebra, graded by the involution.  Its semisimple part l
splits as l_plus + l_minus against k_S/p_S, and r = [l_minus, l_minus]
+ l_minus is the subalgebra generated by l_minus.  The pair
(r, r_plus) with r_plus = [l_minus, l_minus] measures how far X is
from p_S-regular; for the so-type pairs in scope it is always a
product of pairs (so_{m+1}, so_m) and (so_{m+2}, so_m x so_2).

l is split into simple ideals by closing the root vectors x_{±alpha},
alpha simple in Phi_H = {alpha : alpha(H) = 0} and moved into g^X by
the inverse Cayley transform, under each other.  theta permutes the
ideals; r is the sum of the orbits meeting p_S, and each orbit's
l_minus and r_plus are read off its ideals (see `subpair`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import linalg
from .chevalley import (
    LieElement,
    ad_columns,
    bracket,
    bracket_span,  # no caller here: perfbench/tracer.py spans it by this name
    centralizer_in,
    derived_subalgebra,
    exp_ad,
    integral,
    is_ad_semisimple,
    lin_comb,
    span_of,
)
from .parabolic import AbelianParabolic


# ---------------------------------------------------------------------------
# span utilities over LieElements


def _span_elems(span, alg):
    return [LieElement(alg, row) for row in span.rows]


def span_intersection(basis_a, basis_b, alg):
    """Basis of span(basis_a) ∩ span(basis_b)."""
    if not basis_a or not basis_b:
        return []
    cols = [e.coeffs for e in basis_a + basis_b]
    # a solution (x, y) has x . basis_a = -y . basis_b; only its x part,
    # the columns below n, is read
    n = len(basis_a)
    meet = linalg.Span()
    for sol in linalg.kernel(cols):
        xs = [j for j in sol if j < n]
        if xs:
            meet.add(lin_comb([sol[j] for j in xs],
                              [basis_a[j] for j in xs]).coeffs)
    return _span_elems(meet, alg)


# ---------------------------------------------------------------------------
# ideal decomposition of a semisimple subalgebra


def ideal_closure(seed, gens, alg):
    """Smallest ad(gens)-stable subspace containing the seed vectors.

    When gens generates a Lie algebra, this is the ideal of that algebra
    generated by the seed: {x : [x, V] ⊆ V} is a subalgebra, and it
    holds gens.
    """
    sp = linalg.Span()
    frontier = [e for e in seed if sp.add(e.coeffs)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                v = bracket(g, e)
                if v and sp.add(v.coeffs):
                    nxt.append(v)
        frontier = nxt
    return _span_elems(sp, alg)


def split_ideals(basis, seeds, cartan, alg):
    """The simple ideals of a semisimple subalgebra, each one seed's
    `ideal_closure` under all the seeds, which must generate it.

    A seed outside the ideals found so far must be a root vector of the
    Cartan subalgebra span(cartan) of g ([t, v] in C v for every t,
    nonzero for some), so it lies in one simple ideal and generates it
    (de Graaf 2000, 1.15).  Raises, naming the seed, if it is not or if
    its closure leaves span(basis), and raises if the ideals do not add
    up to len(basis).
    """
    inside, found, ideals = span_of(basis), linalg.Span(), []
    for v in seeds:
        if found.dim == len(basis):
            break
        if found.contains(v.coeffs):
            continue
        images = [bracket(t, v).coeffs for t in cartan]
        if not any(images) or linalg.rank([v.coeffs] + images) > 1:
            raise ValueError(f"seed {v!r} is not a root vector of span(cartan)")
        ideals.append(ideal_closure([v], seeds, alg))
        for e in ideals[-1]:
            if not inside.contains(e.coeffs):
                raise ValueError(f"seed {v!r} generates beyond span(basis)")
            found.add(e.coeffs)
    if sum(map(len, ideals)) != len(basis):
        raise ValueError(f"simple ideals of dimensions {list(map(len, ideals))}"
                         f" do not add up to {len(basis)}")
    return ideals


def cayley_root_vectors(P: AbelianParabolic, X: LieElement):
    """integral(A^-1 x_{±alpha}), root vectors of g^X that generate
    l = [g^X, g^X], for each simple root alpha of Phi_H^+, the positive
    roots vanishing at H = sum_K c_K h_{eps_K}, X = sum_K c_K X_K.  The
    simple roots are the indecomposable ones, alpha - beta outside
    Phi_H^+ for every beta in it (Bourbaki, ch. VI, 1.6-1.7), and the
    x_{±alpha} generate [g^H, g^H] (Chevalley-Serre).

    A = prod_K exp(1/2 ad x_{eps_K}) exp(-ad x_{-eps_K}), the Cayley
    transform (Kostant-Rallis 1971), sends X to H and span(X_K) + h^a to
    h; A^-1 applies exp(-1/2 ad x_{eps_K}) first.  The eps_K are strongly
    orthogonal, so the factors of different K commute.
    """
    alg, rs = P.alg, P.rs
    eps = [e.epsilon_K for e in P.E_entries]
    # alpha(H) = sum_K c_K (alpha, eps_K)/(eps_K, eps_K) up to a factor 2:
    # with the c_K of integral(X), one int pairing with H over lcm L
    coeffs = integral(X).coeffs
    cs = [coeffs.get(alg.x_index(e), 0) for e in eps]
    L = lcm(*(rs.form6(e, e) for e in eps))
    ws = [c * (L // rs.form6(e, e)) for c, e in zip(cs, eps)]
    H = [sum(w * e[i] for w, e in zip(ws, eps)) for i in range(rs.rank)]
    phi = [a for a in rs.positive_roots if not rs.form6(a, H)]
    positive = set(phi)
    out = []
    for a in phi:
        if any(tuple(x - y for x, y in zip(a, b)) in positive for b in phi):
            continue
        for r in (a, tuple(-c for c in a)):
            v = alg.x(r)
            for e in eps:
                v = exp_ad(alg.x(tuple(-c for c in e)),
                           exp_ad(alg.x(e), v, Fraction(-1, 2)), 1)
            out.append(integral(v))
    return out


# ---------------------------------------------------------------------------
# type identification


def _simple_type_table():
    """Dimension -> its simple types' labels; a label's number is its rank."""
    out = {}
    for n in range(1, 9):
        out.setdefault(n * (n + 2), []).append(f"A{n}")
    for n in range(2, 9):
        out.setdefault(n * (2 * n + 1), []).append(f"B{n}")
    for n in range(3, 9):
        out.setdefault(n * (2 * n + 1), []).append(f"C{n}")
    for n in range(4, 9):
        out.setdefault(n * (2 * n - 1), []).append(f"D{n}")
    for lab, d in (("E6", 78), ("E7", 133), ("E8", 248), ("F4", 52),
                   ("G2", 14)):
        out.setdefault(d, []).append(lab)
    return out


_TYPE_TABLE = _simple_type_table()


def toral_rank(basis, cartan):
    """Rank of a nonempty ideal I of l = [g^X, g^X]: dim(I ∩ T) for a
    Cartan subalgebra T of g inside g^X.

    `subpair` passes T = a + h^a, h^a the part of h killing every
    epsilon_K.  The epsilon_K are strongly orthogonal, so T is abelian,
    toral and of dimension rank g; for X in a it lies in g^X.
    """
    return len(span_intersection(basis, cartan, basis[0].alg))


def identify_semisimple_type(ideals, cartan):
    """Multiset of simple component labels, or "not-identified".

    Takes the simple ideals that `split_ideals` returns and looks up each
    one's dimension in a table; a factor whose dimension is shared by two
    non-isomorphic types is never guessed.  Types sharing a dimension
    share their rank too (B_n and C_n; B6, C6 and E6), so the rank, a
    label's number, is computed only to confirm a unique label, against
    the Cartan subalgebra `cartan` (see `toral_rank`).
    """
    if not ideals:
        return "0"
    labels = []
    for comp in ideals:
        cands = _TYPE_TABLE.get(len(comp), [])
        if len(cands) != 1 or toral_rank(comp, cartan) != int(cands[0][1:]):
            return "not-identified"
        labels.append(cands[0])
    return "x".join(sorted(labels))


# ---------------------------------------------------------------------------
# subpair reports


class SubpairReport(NamedTuple):
    dim_g_X: int
    dim_k_X: int
    dim_p_X: int
    l_dim: int
    l_center_dim: int
    l_type: str
    dim_l_minus: int
    dim_r_plus: int
    r_pair_label: str

    def to_json_dict(self):
        return self._asdict()


def _so_pair_label(factors):
    """Label a product of subpair factors, each (dim_minus, dim_plus),
    when every factor is of so type; otherwise "not-identified"."""
    if not factors:
        return "(so_1, so_0)"
    labels = []
    for dm, dp in factors:
        m = dm // 2
        if dp == dm * (dm - 1) // 2:
            labels.append(f"(so_{dm + 1}, so_{dm})")
        elif dm % 2 == 0 and dp == m * (m - 1) // 2 + 1:
            labels.append(f"(so_{m + 2}, so_{m} x so_2)")
        else:
            return "not-identified"
    return " x ".join(sorted(labels))


def subpair(P: AbelianParabolic, X: LieElement) -> SubpairReport:
    """Full report on the symmetric subpair attached to X in the Cartan
    subspace a = span(X_K), which the Cayley root vectors need."""
    alg = P.alg
    if not is_ad_semisimple(X):
        raise ValueError("X must be ad-semisimple")
    xs = P.cartan_subspace()
    if not span_of(xs).contains(X.coeffs):
        raise ValueError("X must lie in the Cartan subspace span(X_K)")
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    gX = centralizer_in(X, full)
    dim_pX = P.dim_p_centralizer(X)
    l = derived_subalgebra(gX)

    # h^a: [t, sum_K X_K] = sum_K eps_K(t)(x_{eps_K} - x_{-eps_K}) = 0
    hs = [alg.h(i) for i in range(alg.rank)]
    cartan = xs + centralizer_in(sum(xs, alg.zero()), hs)
    l_ideals = split_ideals(l, cayley_root_vectors(P, X), cartan, alg)
    # theta, -1 on p, permutes the simple ideals.  An orbit that meets p
    # is generated by its p-part, so r is the sum of those orbits, one
    # r-pair factor each.  The p-projection of an ideal I is I ∩ p if
    # theta(I) = I, and all of I if not, as I ∩ k ⊆ I ∩ theta(I) = 0
    p_idx = set(P.p_indices())
    rest, factors = list(l_ideals), []
    while rest:
        I = rest.pop()
        dm = linalg.rank({i: c for i, c in e.coeffs.items() if i in p_idx}
                         for e in I)
        if not dm:
            continue
        tv = {i: -c if i in p_idx else c for i, c in I[0].coeffs.items()}
        k = next((k for k, J in enumerate(rest)
                  if span_of(J).contains(tv)), None)
        orbit = I if k is None else I + rest.pop(k)
        factors.append((dm, len(orbit) - dm))

    return SubpairReport(
        dim_g_X=len(gX),
        # X in p makes g^X theta-stable: g^X = k^X + p^X
        dim_k_X=len(gX) - dim_pX,
        dim_p_X=dim_pX,
        l_dim=len(l),
        l_center_dim=len(gX) - len(l),
        l_type=identify_semisimple_type(l_ideals, cartan),
        dim_l_minus=sum(dm for dm, _ in factors),
        dim_r_plus=sum(dp for _, dp in factors),
        r_pair_label=_so_pair_label(factors),
    )


# ---------------------------------------------------------------------------
# regularity and the non-regular locus


def regularity_check(P: AbelianParabolic, X: LieElement) -> bool:
    """True iff X is p_S-regular, i.e. dim p_S^X equals the pair rank."""
    return P.dim_p_centralizer(X) == P.rank


class RegularityLocus(NamedTuple):
    generic_rank: int
    special_lines: tuple        # projective pairs (mu, lambda), mu X1 + lambda X2
    residual_factors: tuple     # root-free factors, if any (none in scope)


def nonregular_locus(P: AbelianParabolic) -> RegularityLocus:
    """All lines C(mu X_{K1} + lambda X_{K2}) of non p_S-regular elements.

    Only defined for rank-2 pairs.  The locus is the rank-drop set of the
    pencil ad(mu X1 + lambda X2): p_S -> g, computed with exact
    polynomial arithmetic (`linalg.projective_locus`).
    """
    if P.rank != 2:
        raise ValueError("non-regular locus requires a rank-2 pair")
    p = P.p_indices()
    A, B = (ad_columns(x, p) for x in P.cartan_subspace())
    lines, residual = linalg.projective_locus(A, B, P.rank)
    return RegularityLocus(len(p) - P.rank, lines, residual)

