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
        # filled on first use: most algebras built are never bracketed
        self._N_memo = {}
        self._extraspecial = None
        self._bracket_memo = {}
        self._length6 = {}

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
        # coordinate i is root[i] (a_i, a_i) / (root, root)
        rs = self.rs
        la6 = self._sq_length6(tuple(root))
        out = []
        for i in range(rs.rank):
            c, r = divmod(root[i] * rs._gram6[i][i], la6)
            assert not r
            out.append(c)
        return tuple(out)

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
        if self._extraspecial is None:
            # the simple roots come first in the positive order, and a
            # non-simple positive root less some simple root is a positive
            # root, so the minimal a is the first simple root that leaves
            # one; that b comes after a, or b would have been met first
            pos = list(self.pos_index)
            table = {}
            for g in pos[self.rank:]:
                for a in pos[:self.rank]:
                    b = tuple(x - y for x, y in zip(g, a))
                    if b in self.pos_index:
                        table[g] = (a, b)
                        break
            self._extraspecial = table
        best = self._extraspecial.get(tuple(gamma))
        if best is None:
            raise ValueError("no special pair: input is not a non-simple "
                             "positive root")
        return best

    def N(self, a, b):
        """Structure constant with [x_a, x_b] = N(a,b) x_{a+b}; 0 when a+b
        is not a root.  Raises when b = -a (that bracket is a coroot)."""
        key = a, b = tuple(a), tuple(b)
        val = self._N_memo.get(key)
        if val is not None:
            return val
        s = tuple(x + y for x, y in zip(a, b))
        if not any(s):
            raise ValueError("N is undefined for opposite roots")
        val = 0
        if self.rs.is_root(s):
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
            term = 0
            d1 = tuple(x - y for x, y in zip(a, a1))
            if rs.is_root(d1):
                term += self.N(na1, a) * self.N(d1, b)
            d2 = tuple(x - y for x, y in zip(b, a1))
            if rs.is_root(d2):
                term += self.N(na1, b) * self.N(a, d2)
            val, r = divmod(term, self.N(na1, s))
            assert not r
            return val
        if not pos_a and not pos_b:
            return -self.N(tuple(-c for c in a), tuple(-c for c in b))
        # mixed signs: rotate through the cyclic identity on a + b + c = 0,
        # N(a, b) = N(b, c) (c, c) / (a, a)
        c = tuple(-x - y for x, y in zip(a, b))
        val, r = divmod(self._sq_length6(c) * self.N(b, c),
                        self._sq_length6(a))
        assert not r
        return val

    def _sq_length6(self, root):
        """6 (root, root), an integer."""
        out = self._length6.get(root)
        if out is None:
            out = self._length6[root] = self.rs.form6(root, root)
        return out

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


class LieElement:
    """A sparse coefficient vector over the Chevalley basis."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
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
    basis = x.alg.bracket_basis
    out = {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            b = basis(i, j)
            if not b:           # most pairs of basis vectors commute
                continue
            c = ci * cj
            for k, n in b.items():
                t = c if n == 1 else -c if n == -1 else c * n
                prev = out.get(k)
                out[k] = t if prev is None else prev + t
    return LieElement(x.alg, out)


def centralizer_in(x: LieElement, subspace_basis):
    """Basis of {y in span(subspace_basis) : [x, y] = 0}, exact."""
    if not subspace_basis:
        return []
    cols = [bracket(x, b).coeffs for b in subspace_basis]
    return [lin_comb(sol.values(), [subspace_basis[j] for j in sol])
            for sol in linalg.kernel(cols)]


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
