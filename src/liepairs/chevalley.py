"""Chevalley basis of the complex simple Lie algebra attached to a root
system, with integer structure constants.

Basis order: root vectors x_a for a running over positive then negative
roots (negatives in the positive order), followed by the simple coroots
H_1..H_rank.  Structure-constant signs are fixed by the extraspecial-pair
convention: for each non-simple positive root the special pair with the
smallest first member gets a positive constant, and everything else is
forced from there by the Jacobi identity.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .rootsystem import RootSystem, build_root_system

F0 = Fraction(0)
F1 = Fraction(1)


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        pos = list(rs.positive_roots)
        neg = [tuple(-c for c in r) for r in pos]
        self.roots = pos + neg
        self.n_pos = len(pos)
        self.rank = rs.rank
        self.dimension = len(self.roots) + rs.rank
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.pos_index = {r: i for i, r in enumerate(pos)}
        self._N_memo = {}
        self._extraspecial = {}
        self._bracket_memo = {}

    # -- indexing -----------------------------------------------------------

    def x_index(self, root):
        return self.root_index[tuple(root)]

    def h_index(self, i):
        return len(self.roots) + i

    def basis_element(self, idx):
        e = LieElement(self, {})
        e.coeffs[idx] = F1
        return e

    def x(self, root):
        return self.basis_element(self.x_index(root))

    def h(self, i):
        return self.basis_element(self.h_index(i))

    def zero(self):
        return LieElement(self, {})

    # -- structure constants -------------------------------------------------

    def coroot(self, root):
        """Coordinates of the coroot of `root` over H_1..H_rank (integers)."""
        rs = self.rs
        la = rs.form(root, root)
        out = []
        for i in range(rs.rank):
            c = Fraction(root[i]) * rs.lengths[i] / la
            out.append(c)
        assert all(c.denominator == 1 for c in out)
        return tuple(int(c) for c in out)

    def chain_p(self, a, b):
        """Largest p with b - p*a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while self.rs.is_root(cur):
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def extraspecial_pair(self, gamma):
        """The special pair (a, b), a + b = gamma, with minimal a."""
        gamma = tuple(gamma)
        if gamma in self._extraspecial:
            return self._extraspecial[gamma]
        best = None
        for a, ia in self.pos_index.items():
            b = tuple(g - x for g, x in zip(gamma, a))
            ib = self.pos_index.get(b)
            if ib is not None and ia < ib:
                if best is None or ia < self.pos_index[best[0]]:
                    best = (a, b)
        if best is None:
            raise ValueError("no special pair: input is not a non-simple "
                             "positive root")
        self._extraspecial[gamma] = best
        return best

    def N(self, a, b):
        """Structure constant with [x_a, x_b] = N(a,b) x_{a+b}; 0 when a+b
        is not a root.  Raises when b = -a (that bracket is a coroot)."""
        a, b = tuple(a), tuple(b)
        if all(x + y == 0 for x, y in zip(a, b)):
            raise ValueError("N is undefined for opposite roots")
        s = tuple(x + y for x, y in zip(a, b))
        if not self.rs.is_root(s):
            return 0
        key = (a, b)
        if key in self._N_memo:
            return self._N_memo[key]
        val = self._compute_N(a, b, s)
        assert val != 0
        self._N_memo[key] = val
        return val

    def _compute_N(self, a, b, s):
        rs = self.rs
        pos_a = a in self.pos_index
        pos_b = b in self.pos_index
        if pos_a and pos_b:
            if self.pos_index[a] > self.pos_index[b]:
                return -self.N(b, a)
            a1, b1 = self.extraspecial_pair(s)
            if (a, b) == (a1, b1):
                return self.chain_p(a, b) + 1
            na1 = tuple(-c for c in a1)
            term = Fraction(0)
            d1 = tuple(x - y for x, y in zip(a, a1))
            if rs.is_root(d1):
                term += Fraction(self.N(na1, a)) * self.N(d1, b)
            d2 = tuple(x - y for x, y in zip(b, a1))
            if rs.is_root(d2):
                term += Fraction(self.N(na1, b)) * self.N(a, d2)
            denom = self.N(na1, s)
            val = term / denom
            assert val.denominator == 1
            return int(val)
        if not pos_a and not pos_b:
            return -self.N(tuple(-c for c in a), tuple(-c for c in b))
        # mixed signs: rotate through the cyclic identity on a + b + c = 0
        c = tuple(-x - y for x, y in zip(a, b))
        val = Fraction(rs.form(c, c)) / rs.form(a, a) * self.N(b, c)
        assert val.denominator == 1
        return int(val)

    # -- brackets -------------------------------------------------------------

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse dict {index: int}."""
        key = (i, j)
        out = self._bracket_memo.get(key)
        if out is not None:
            return out
        nroots = len(self.roots)
        if i >= nroots and j >= nroots:
            out = {}
        elif i >= nroots:
            # [H_k, x_b] = <b, alpha_k^vee> x_b
            k = i - nroots
            b = self.roots[j]
            c = self.rs.pairing(b, k)
            out = {j: c} if c else {}
        elif j >= nroots:
            k = j - nroots
            a = self.roots[i]
            c = self.rs.pairing(a, k)
            out = {i: -c} if c else {}
        else:
            a, b = self.roots[i], self.roots[j]
            if all(x + y == 0 for x, y in zip(a, b)):
                pos = a if a in self.pos_index else b
                sign = 1 if a in self.pos_index else -1
                out = {self.h_index(k): sign * c
                       for k, c in enumerate(self.coroot(pos)) if c}
            else:
                s = tuple(x + y for x, y in zip(a, b))
                if self.rs.is_root(s):
                    out = {self.root_index[s]: self.N(a, b)}
                else:
                    out = {}
        self._bracket_memo[key] = out
        return out

    def random_element(self, rng: random.Random, bound=9):
        coeffs = {}
        for i in range(self.dimension):
            c = Fraction(rng.randint(-bound, bound))
            if c:
                coeffs[i] = c
        return LieElement(self, coeffs)


class LieElement:
    """A sparse coefficient vector over the Chevalley basis."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return self.alg is other.alg and self.coeffs == other.coeffs

    def __add__(self, other):
        if self.alg is not other.alg:
            raise ValueError("elements of different algebras")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, F0) + c
        return LieElement(self.alg, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return LieElement(self.alg, {i: scalar * c for i, c in self.coeffs.items()})

    def __neg__(self):
        return (-1) * self

    def __repr__(self):
        alg = self.alg
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            if i < len(alg.roots):
                parts.append(f"{c}*x{list(alg.roots[i])}")
            else:
                parts.append(f"{c}*H{i - len(alg.roots) + 1}")
        return " + ".join(parts) if parts else "0"


def lin_comb(coeffs, elems):
    """sum c * e over the pairs (c, e), as one element of the algebra of
    elems[0]."""
    out = {}
    for c, e in zip(coeffs, elems):
        if c:
            for i, x in e.coeffs.items():
                out[i] = out.get(i, F0) + c * x
    return LieElement(elems[0].alg, out)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    if x.alg is not y.alg:
        raise ValueError("elements of different algebras")
    alg = x.alg
    out = {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            c = ci * cj
            for k, n in alg.bracket_basis(i, j).items():
                prev = out.get(k, F0)
                out[k] = prev + c * n
    return LieElement(alg, out)


def centralizer_in(x: LieElement, subspace_basis):
    """Basis of {y in span(subspace_basis) : [x, y] = 0}, exact."""
    if not subspace_basis:
        return []
    cols = [bracket(x, b).coeffs for b in subspace_basis]
    return [lin_comb(c, subspace_basis) for c in linalg.kernel(cols)]


def is_ad_semisimple(x: LieElement) -> bool:
    p = minimal_polynomial_ad(x)
    return linalg.is_squarefree(p)


def minimal_polynomial_ad(x: LieElement):
    alg = x.alg
    return linalg.min_poly([bracket(x, alg.basis_element(j)).coeffs
                            for j in range(alg.dimension)])


def span_of(elems):
    """The `linalg.Span` of the coefficient vectors of elems."""
    sp = linalg.Span()
    for e in elems:
        sp.add(e.coeffs)
    return sp


def bracket_span(basis):
    """Reduced echelon basis of the span of all pairwise brackets of
    `basis`."""
    sp = linalg.Span()
    for i, x in enumerate(basis):
        for y in basis[i + 1:]:
            v = bracket(x, y)
            if v:
                sp.add(v.coeffs)
    return [LieElement(basis[0].alg, row) for row in sp.rows]


def derived_subalgebra(basis):
    """Reduced echelon basis of the span of all pairwise brackets of the
    input basis, which must span a subalgebra: a bracket outside that
    span is rejected."""
    out = bracket_span(basis)
    inside = span_of(basis)
    if not all(inside.contains(e.coeffs) for e in out):
        raise ValueError("input basis is not closed under the bracket")
    return out


def jacobi_defect(alg, i, j, k):
    """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] as a sparse dict."""
    out = {}

    def acc(a, inner, sign=1):
        for m, c in inner.items():
            for t, n in alg.bracket_basis(a, m).items():
                out[t] = out.get(t, 0) + sign * c * n

    acc(i, alg.bracket_basis(j, k))
    acc(j, alg.bracket_basis(k, i))
    acc(k, alg.bracket_basis(i, j))
    return {t: c for t, c in out.items() if c}


def build_algebra(type_label, rank) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(build_root_system(type_label, rank))
