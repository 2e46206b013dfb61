"""Symmetric pairs coming from parabolic subalgebras with abelian
unipotent radical.

Removing one simple root from the base gives a maximal parabolic; when
its unipotent radical is abelian the induced Z-grading defines a
symmetric pair (g, k_S) with p_S spanned by the root spaces outside the
Levi.  The catalog of such pairs is classical and small; the expected
rows are kept here as static oracle data, while the scan itself is an
exhaustive abelianness test over all maximal parabolics.

The Cartan subspace of p_S is spanned by the elements
X_K = X_{eps_K} + X_{-eps_K} over the cascade entries K whose highest
root lies outside the Levi.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import chevalley, linalg
from .cascade import full_cascade
from .chevalley import (
    ChevalleyAlgebra,
    bracket,
    build_algebra,
    exp_ad,
    lin_comb,
)
from .errors import UsageError
from .rootsystem import RootSystem, type_name


def abelian_set(rs: RootSystem, S) -> tuple:
    """R_S^1 = positive roots not supported on S."""
    S = frozenset(S)
    omitted = sum(1 << i for i in range(rs.rank) if i not in S)
    return tuple(r for r, m in zip(rs.positive_roots, rs._masks) if m & omitted)


def is_abelian_radical(rs: RootSystem, S) -> bool:
    """True iff u_S is abelian: S grades g by the sum of a root's
    coefficients outside S, u_S is the part of positive degree, and it is
    abelian iff no degree exceeds 1, the highest root's degree being the
    largest.  (When S is everything, u_S = 0.)"""
    S = frozenset(S)
    # positive roots are sorted by height: the last is the highest root
    highest = rs.positive_roots[-1]
    return sum(c for i, c in enumerate(highest) if i not in S) <= 1


class AbelianParabolic(NamedTuple):
    alg: ChevalleyAlgebra
    omitted_index: int           # the simple root outside the Levi (0-based)
    R_S1: tuple                  # roots of the radical
    E_entries: tuple             # cascade entries K with eps_K in R_S1
    pair_label: str
    rank: int                    # = len(E_entries)

    @property
    def rs(self):
        return self.alg.rs

    def k_basis(self):
        """Basis of k_S = h + root spaces of R_S (both signs)."""
        alg = self.alg
        out = [alg.h(i) for i in range(alg.rank)]
        r1 = set(self.R_S1)
        for r in self.rs.positive_roots:
            if r not in r1:
                out.append(alg.x(r))
                out.append(alg.x(tuple(-c for c in r)))
        return out

    def p_indices(self):
        """Basis indices of p_S = u_S + u_S^-: the roots of R_S1, then
        their negatives."""
        alg = self.alg
        pos = [alg.x_index(r) for r in self.R_S1]
        return pos + [i + alg.n_pos for i in pos]

    def p_basis(self):
        """Basis of p_S, in the order of `p_indices`."""
        return [self.alg.basis_element(i) for i in self.p_indices()]

    def dim_p_centralizer(self, X):
        """dim p_S^X, the nullity of ad X on p_S; builds no element of it."""
        p = self.p_indices()
        X = chevalley.integral(X)
        return len(p) - linalg.rank(chevalley.ad_columns(X, p))

    def cartan_subspace(self):
        """The commuting semisimple elements X_K spanning a Cartan
        subspace of p_S."""
        alg = self.alg
        out = []
        for e in self.E_entries:
            neg = tuple(-c for c in e.epsilon_K)
            out.append(alg.x(e.epsilon_K) + alg.x(neg))
        return out


def build_parabolic(alg: ChevalleyAlgebra, S) -> AbelianParabolic:
    rs = alg.rs
    S = frozenset(S)
    omitted = sorted(set(range(rs.rank)) - S)
    if len(omitted) != 1:
        raise UsageError("S must omit exactly one simple root")
    if not is_abelian_radical(rs, S):
        raise UsageError("unipotent radical is not abelian for this S")
    r1 = abelian_set(rs, S)
    r1set = set(r1)
    entries = tuple(e for e in full_cascade(rs) if e.epsilon_K in r1set)
    label = pair_label(rs.type_label, rs.rank, omitted[0])
    return AbelianParabolic(alg, omitted[0], r1, entries, label, len(entries))


def pair_label(type_label, n, omitted_index):
    """Symbolic name of the symmetric pair (0-based omitted index)."""
    i = omitted_index + 1
    if type_label == "A":
        return f"(sl_{n + 1}, sl_{n + 1 - i} x sl_{i} x C)"
    if type_label == "B":
        return f"(so_{2 * n + 1}, so_{2 * n - 1} x so_2)"
    if type_label == "C":
        return f"(sp_{2 * n}, gl_{n})"
    if type_label == "D":
        if i == 1:
            return f"(so_{2 * n}, so_{2 * n - 2} x so_2)"
        return f"(so_{2 * n}, gl_{n})"
    if type_label == "E6":
        return "(E6, D5 x C)"
    if type_label == "E7":
        return "(E7, E6 x C)"
    raise ValueError(f"no catalog label for {type_label}")


def expected_rows(type_label, n):
    """Oracle: {omitted 0-based index: (E sets, rank)} for the catalog.

    E sets are frozensets of 0-based simple-root indices; the lists are
    the classical catalog rows, encoded literally.
    """
    full = frozenset(range(n))
    if type_label == "A":
        out = {}
        for i in range(1, n + 1):
            k = min(i, n + 1 - i)
            sets = [frozenset(range(j - 1, n - j + 1)) for j in range(1, k + 1)]
            out[i - 1] = (sets, k)
        return out
    if type_label == "B":
        if n < 2:
            return {}
        return {0: ([frozenset({0}), full], 2)}
    if type_label == "C":
        if n < 2:
            return {}
        return {n - 1: ([frozenset(range(j, n)) for j in range(n)], n)}
    if type_label == "D":
        if n < 4:
            return {}
        out = {0: ([frozenset({0}), full], 2)}
        chains = [frozenset(range(m - 1, n))
                  for m in range(1, n - 1) if m % 2 == 1]
        for i in (n - 1, n):
            sets = list(chains)
            if n % 2 == 0:
                sets.append(frozenset({i - 1}))
            out[i - 1] = (sets, len(sets))
        return out
    if type_label == "E6":
        sets = [full - {1}, full]
        return {0: (sets, 2), 5: (sets, 2)}
    if type_label == "E7":
        return {6: ([frozenset({6}), full - {0}, full], 3)}
    return {}


def scan_type(type_label, n):
    """All abelian-radical maximal parabolics of the given system."""
    alg = build_algebra(type_label, n)
    out = []
    for omitted in range(n):
        S = frozenset(range(n)) - {omitted}
        if is_abelian_radical(alg.rs, S):
            out.append(build_parabolic(alg, S))
    return out


def enumerate_catalog(max_rank=8):
    """(catalog, mismatches) over A/B/C/D up to max_rank and the two E
    rows: every pair the exhaustive scan finds, and one message per found
    row missing from the static oracle, oracle row not found or
    mismatched E set."""
    jobs = [(t, k) for t, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
            for k in range(low, max_rank + 1)]
    jobs += [("E6", 6), ("E7", 7), ("F4", 4), ("G2", 2)]
    jobs += [("E8", 8)] if max_rank >= 8 else []
    catalog = []
    mismatches = []
    for t, k in jobs:
        found = scan_type(t, k)
        oracle = expected_rows(t, k)
        got = {p.omitted_index for p in found}
        if got != set(oracle):
            mismatches.append(
                f"catalog scan mismatch for {type_name(t, k)}: found roots "
                f"{sorted(i + 1 for i in got)}, expected "
                f"{sorted(i + 1 for i in oracle)}")
        for p in found:
            if p.omitted_index not in oracle:
                continue
            sets, rank = oracle[p.omitted_index]
            mine = sorted(sorted(e.subset_K) for e in p.E_entries)
            theirs = sorted(sorted(s) for s in sets)
            if mine != theirs or p.rank != rank:
                mismatches.append(
                    f"E-set mismatch for {type_name(t, k)}, "
                    f"alpha_{p.omitted_index + 1}:"
                    f" computed {mine} rank {p.rank},"
                    f" oracle {theirs} rank {rank}")
        catalog.extend(found)
    return catalog, mismatches


def cayley_non_cartan(alg: ChevalleyAlgebra, eps, x):
    """The roots of the terms of A(x) outside h, in basis order, for the
    Cayley transform A = exp(1/2 ad x_eps) exp(-ad x_{-eps}) of the root
    eps (Kostant-Rallis 1971; Knapp, Lie Groups Beyond an Introduction,
    VI.7).  A is an automorphism, a product of exponentials of nilpotent
    derivations, so when none is left ad x = A^-1 ad(A x) A is conjugate
    to a map diagonal in the Chevalley basis: x is ad-semisimple.  It
    sends x_eps + x_{-eps} to the coroot of eps."""
    neg = tuple(-c for c in eps)
    y = exp_ad(alg.x(eps), exp_ad(alg.x(neg), x, -1), Fraction(1, 2))
    nroots = len(alg.roots)
    return [alg.roots[i] for i in sorted(y.coeffs) if i < nroots]


def proposition_checks(P: AbelianParabolic) -> dict:
    """The structural facts making a = span(X_K) a Cartan subspace.

    Checks: the X_K pairwise commute, each is ad-semisimple, every
    radical root lies in some Gamma^K with K in E, and eps_K - alpha
    stays outside the radical for alpha in its Gamma^K.  Returns a
    report with a `failures` list of witnesses.  X_K is certified
    ad-semisimple by its Cayley transform landing in h
    (`cayley_non_cartan`); the eps_K are strongly orthogonal, so only
    K's own factor of prod_K exp(1/2 ad x_{eps_K}) exp(-ad x_{-eps_K})
    moves X_K.  A failure names K and the roots of A(X_K) outside h.
    """
    failures = []
    xs = P.cartan_subspace()
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if bracket(xs[i], xs[j]):
                failures.append({"check": "abelian", "pair": [i, j]})
    for e, x in zip(P.E_entries, xs):
        roots = cayley_non_cartan(P.alg, e.epsilon_K, x)
        if roots:
            failures.append({"check": "semisimple",
                             "entry": sorted(e.subset_K),
                             "roots": [list(r) for r in roots]})
    covered = set()
    for e in P.E_entries:
        covered |= set(e.gamma_K)
    for r in P.R_S1:
        if r not in covered:
            failures.append({"check": "gamma-cover", "root": list(r)})
    r1 = set(P.R_S1)
    for e in P.E_entries:
        for a in e.gamma_K:
            if a in r1 and a != e.epsilon_K:
                d = tuple(x - y for x, y in zip(e.epsilon_K, a))
                if d in r1:
                    failures.append({
                        "check": "eps-minus-alpha",
                        "entry": sorted(e.subset_K),
                        "root": list(a),
                    })
    return {
        "pair": P.pair_label,
        "rank": P.rank,
        "dim_a": len(xs),
        "dim_p": 2 * len(P.R_S1),
        "failures": failures,
        "ok": not failures and len(xs) == P.rank,
    }


def generic_p_centralizer_dim(P: AbelianParabolic):
    """dim p_S^X at X = sum_K (K+1) X_K, which lies off every
    restricted-root hyperplane: the restricted roots of every catalog pair
    are among +-c_i, +-2c_i and +-c_i +- c_j in the X_K coordinates.  As a
    lies in p_S^X, this is the rank exactly when a is a Cartan subspace."""
    xs = P.cartan_subspace()
    return P.dim_p_centralizer(lin_comb(range(1, len(xs) + 1), xs))
