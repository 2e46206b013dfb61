"""Centralizers of semisimple elements of the Cartan subspace and the
symmetric subpair they carry.

For semisimple X in the Cartan subspace a of p_S, the centralizer g^X
is a Levi subalgebra, graded by the involution.  Its semisimple part l
splits as l_plus + l_minus against k_S/p_S, and r = [l_minus, l_minus]
+ l_minus is the subalgebra generated by l_minus.  The pair
(r, r_plus) with r_plus = [l_minus, l_minus] measures how far X is
from p_S-regular; for the so-type pairs in scope it is always a
product of pairs (so_{m+1}, so_m) and (so_{m+2}, so_m x so_2).

The rank <= 2 classification lists of simple symmetric pairs are kept
as static data; they are cited facts, not computed here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import linalg
from .chevalley import (
    F0,
    LieElement,
    bracket,
    bracket_span,
    centralizer_in,
    derived_subalgebra,
    is_ad_semisimple,
    lin_comb,
    span_of,
)
from .parabolic import AbelianParabolic

RANK1_PAIRS = (
    "(sl_{n+1}, sl_n x C)",
    "(so_{n+1}, so_n)",
    "(sp_{2n}, sp_{2n-1} x sp_2)",
    "(F4, B4)",
)

RANK2_PAIRS = (
    "(sl_{n+2}, sl_n x sl_2 x C)",
    "(sl_3, so_3)",
    "(sl_6, sp_6)",
    "(so_{n+2}, so_n x so_2)",
    "(sp_{2n+4}, sp_{2n} x sp_4)",
    "(sp_4, sl_2 x C)",
    "(so_10, sl_5 x C)",
    "(E6, F4)",
    "(E6, D5 x C)",
    "(G2, A1 x A1)",
)


# ---------------------------------------------------------------------------
# span utilities over LieElements


def _span_elems(span, alg):
    return [LieElement(alg, row) for row in span.rows]


def span_intersection(basis_a, basis_b, alg):
    """Basis of span(basis_a) ∩ span(basis_b)."""
    if not basis_a or not basis_b:
        return []
    cols = [e.coeffs for e in basis_a + basis_b]
    # a solution (x, y) has x . basis_a = -y . basis_b; lin_comb zips, so
    # it reads only the x part
    meet = [lin_comb(sol, basis_a) for sol in linalg.kernel(cols)]
    return _span_elems(span_of(meet), alg)


# ---------------------------------------------------------------------------
# ideal decomposition of a semisimple subalgebra


def ideal_closure(seed, ambient, alg):
    """Smallest ad(ambient)-stable subspace containing the seed vectors."""
    sp = linalg.Span()
    frontier = []
    for e in seed:
        if sp.add(e.coeffs):
            frontier.append(e)
    while frontier:
        nxt = []
        for e in frontier:
            for b in ambient:
                v = bracket(b, e)
                if v and sp.add(v.coeffs):
                    nxt.append(v)
        frontier = nxt
    return _span_elems(sp, alg)


def centralizer_of_subspace(gens, ambient, alg):
    """Elements of span(ambient) commuting with every generator."""
    out = ambient
    for g in gens:
        out = centralizer_in(g, out)
        if not out:
            break
    return out


def split_ideals(basis, alg):
    """Decompose a semisimple subalgebra into its simple ideals.

    Tries the ideal generated by each basis vector and peels off the
    smallest; the complement of an ideal in a semisimple algebra is its
    centralizer.  Raises if the candidate complement does not give a
    direct sum (e.g. the input has a center).
    """
    ideals = []
    remaining = basis
    while remaining:
        best = None
        for v in remaining:
            cand = ideal_closure([v], remaining, alg)
            if best is None or len(cand) < len(best):
                best = cand
            if len(best) == 1 or len(best) * 2 <= len(remaining):
                break
        if len(best) == len(remaining):
            ideals.append(remaining)
            break
        comp = centralizer_of_subspace(best, remaining, alg)
        if len(best) + len(comp) != len(remaining):
            raise ValueError("subalgebra is not a direct sum of ideals")
        ideals.append(best)
        remaining = comp
    return ideals


# ---------------------------------------------------------------------------
# type identification


def _simple_type_table():
    out = {}
    for n in range(1, 9):
        out.setdefault((n * (n + 2), n), []).append(f"A{n}")
    for n in range(2, 9):
        out.setdefault((n * (2 * n + 1), n), []).append(f"B{n}")
    for n in range(3, 9):
        out.setdefault((n * (2 * n + 1), n), []).append(f"C{n}")
    for n in range(4, 9):
        out.setdefault((n * (2 * n - 1), n), []).append(f"D{n}")
    for lab, (d, n) in (("E6", (78, 6)), ("E7", (133, 7)), ("E8", (248, 8)),
                        ("F4", (52, 4)), ("G2", (14, 2))):
        out.setdefault((d, n), []).append(lab)
    return out


_TYPE_TABLE = _simple_type_table()


def toral_rank(basis):
    """Rank of a reductive subalgebra: minimal centralizer dimension of a
    fixed deterministic sample of six elements of the span."""
    import random
    if not basis:
        return 0
    rng = random.Random(7)
    best = len(basis)
    for _ in range(6):
        x = lin_comb([rng.randint(-5, 5) for _ in basis], basis)
        if not x:
            continue
        best = min(best, len(centralizer_in(x, basis)))
        if best == 1:
            break
    return best


def identify_semisimple_type(basis, alg):
    """Multiset of simple component labels, or "not-identified".

    Identification is by simple-ideal decomposition followed by a
    (dimension, rank) table lookup per factor; a factor whose invariants
    are shared by two non-isomorphic types is never guessed.
    """
    if not basis:
        return "0"
    try:
        ideals = split_ideals(basis, alg)
    except ValueError:
        return "not-identified"
    labels = []
    for comp in ideals:
        key = (len(comp), toral_rank(comp))
        cands = _TYPE_TABLE.get(key, [])
        if len(cands) != 1:
            return "not-identified"
        labels.append(cands[0])
    return "x".join(sorted(labels))


# ---------------------------------------------------------------------------
# subpair reports


@dataclass
class SubpairReport:
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
        return asdict(self)


def _so_pair_label(factors):
    """Label a product of subpair factors, each (dim, dim_minus, dim_plus),
    when every factor is of so type; otherwise "not-identified"."""
    if not factors:
        return "(so_1, so_0)"
    labels = []
    for ds, dm, dp in factors:
        m = dm
        if ds == dm + dp and dp == m * (m - 1) // 2:
            labels.append(f"(so_{m + 1}, so_{m})")
            continue
        if dm % 2 == 0:
            m = dm // 2
            if ds == dm + dp and dp == m * (m - 1) // 2 + 1:
                labels.append(f"(so_{m + 2}, so_{m} x so_2)")
                continue
        return "not-identified"
    return " x ".join(sorted(labels))


def subpair(P: AbelianParabolic, X: LieElement) -> SubpairReport:
    """Full report on the symmetric subpair attached to semisimple X."""
    alg = P.alg
    if not is_ad_semisimple(X):
        raise ValueError("X must be ad-semisimple")
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    gX = centralizer_in(X, full)
    kX = centralizer_in(X, P.k_basis())
    pX = centralizer_in(X, P.p_basis())
    l = derived_subalgebra(gX)
    l_minus = span_intersection(l, pX, alg)
    r_plus = bracket_span(l_minus)
    r_basis = _span_elems(span_of(l_minus + r_plus), alg)

    factors = []
    label = "not-identified"
    if not r_basis:
        label = _so_pair_label([])
    else:
        try:
            ideals = split_ideals(r_basis, alg)
            for comp in ideals:
                cm = span_intersection(comp, l_minus, alg)
                cp = span_intersection(comp, r_plus, alg)
                factors.append((len(comp), len(cm), len(cp)))
            label = _so_pair_label(factors)
        except ValueError:
            label = "not-identified"

    return SubpairReport(
        dim_g_X=len(gX),
        dim_k_X=len(kX),
        dim_p_X=len(pX),
        l_dim=len(l),
        l_center_dim=len(gX) - len(l),
        l_type=identify_semisimple_type(l, alg),
        dim_l_minus=len(l_minus),
        dim_r_plus=len(r_plus),
        r_pair_label=label,
    )


# ---------------------------------------------------------------------------
# regularity and the non-regular locus


def regularity_check(P: AbelianParabolic, X: LieElement) -> bool:
    """True iff X is p_S-regular, i.e. dim p_S^X equals the pair rank."""
    return len(centralizer_in(X, P.p_basis())) == P.rank


@dataclass
class RegularityLocus:
    generic_rank: int
    special_lines: tuple        # projective pairs (mu, lambda), mu X1 + lambda X2
    residual_factors: tuple     # root-free factors, if any (none in scope)

    def to_json_dict(self):
        return {
            "generic_rank": self.generic_rank,
            "special_lines": [[str(a), str(b)] for a, b in self.special_lines],
            "residual_factors": [[str(c) for c in f]
                                 for f in self.residual_factors],
        }


def nonregular_locus(P: AbelianParabolic) -> RegularityLocus:
    """All lines C(mu X_{K1} + lambda X_{K2}) of non p_S-regular elements.

    Only defined for rank-2 pairs.  The locus is the rank-drop set of the
    pencil ad(mu X1 + lambda X2): p_S -> g, computed with exact
    polynomial arithmetic (`linalg.projective_locus`).
    """
    if P.rank != 2:
        raise ValueError("non-regular locus requires a rank-2 pair")
    pb = P.p_basis()
    A, B = ([[col.get(i, F0) for col in cols] for i in range(P.alg.dimension)]
            for cols in ([bracket(x, b).coeffs for b in pb]
                         for x in P.cartan_subspace()))
    lines, residual = linalg.projective_locus(A, B, P.rank)
    return RegularityLocus(len(pb) - P.rank, lines, residual)


# ---------------------------------------------------------------------------
# explicit commuting-nilpotent witnesses


def commuting_nilpotent_witnesses(P: AbelianParabolic, entry_index, beta):
    """Check that X_K centralizes two non-proportional commuting nilpotent
    root vectors: the highest root vector and X_beta.

    Returns a report dict; used for the pairs whose subpair is NOT of
    pure so type (the witnesses rule that shape out).
    """
    alg = P.alg
    entry = P.E_entries[entry_index]
    X = P.cartan_subspace()[entry_index]
    top = alg.rs.highest_root()
    a = alg.x(top)
    b = alg.x(tuple(beta))
    report = {
        "entry": sorted(entry.subset_K),
        "roots": [list(top), list(beta)],
        "centralizes_top": not bracket(X, a),
        "centralizes_beta": not bracket(X, b),
        "commute": not bracket(a, b),
        "non_proportional": tuple(beta) != top,
        "in_radical": (tuple(beta) in set(P.R_S1)) and (top in set(P.R_S1)),
    }
    report["ok"] = all(v for k, v in report.items()
                       if k not in ("entry", "roots"))
    return report
