"""Chevalley basis of the complex simple Lie algebra attached to a root
system, with integer structure constants.  A basis vector has the int
coefficient 1, so brackets of basis vectors and of integral elements
(see `integral`) stay on int.

Basis order: root vectors x_a for a running over positive then negative
roots (negatives in the positive order), followed by the simple coroots
H_1..H_rank.  Structure-constant signs are fixed by the extraspecial-pair
convention: for each non-simple positive root the special pair with the
smallest first member gets a positive constant, and everything else is
forced from there by the Jacobi identity.

Each algebra fills one memo on first use, `_N`: N for the roots of
basis indices i and j, keyed by (i, j), for every sign pattern.  N(a, b)
for positive roots a, b comes from the extraspecial-pair recursion
(Carter, Simple Groups of Lie Type, 4.1-4.2).  Every other sign pattern
takes one step from another constant: N(b, a) = -N(a, b),
N(-a, -b) = -N(a, b), and for a mixed pair the cyclic identity
N(a, b)/|c|^2 = N(b, c)/|a|^2 = N(c, a)/|b|^2 on a + b + c = 0, two of
whose roots share a sign.  Roots are addressed by an integer key,
coordinate k + 16 in base-32 digit k, so a root sum is one int add and
one dict lookup.

`bracket` and the columns [x, e_j] of ad x (`ad_columns`) read a pair
of roots a, b with b != -a straight off the keys: a miss of
key(a) + key(b) is a zero bracket and stores nothing, a hit adds
N(a, b) from `_N`.  The other brackets of basis vectors (Cartan terms,
Cartan columns, the coroot [x_a, x_-a]) are memoized per algebra by
`bracket_basis`.  No element is built per column: centralizers,
p-centralizer dimensions, the non-regular locus and the minimal
polynomial of ad x all take the columns.
A second per-algebra memo, `_semisimple_memo`, holds each certificate
of `is_ad_semisimple`, keyed by the coefficients of `integral(x)` up to
sign, so a general x and its nonzero multiples are certified once per
algebra.  (The cascade elements X_K take a cheaper certificate, their
Cayley transform through `exp_ad`: see `parabolic.proposition_checks`.)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .rootsystem import RootSystem, build_root_system, type_name


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.roots = rs.positive_roots + rs.negative_roots
        self.n_pos = len(rs.positive_roots)
        self.rank = rs.rank
        self.dimension = len(self.roots) + rs.rank
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self._off = sum(16 << 5 * k for k in range(rs.rank))   # key of 0
        self._len6 = rs._len6 * 2      # 6 (a, a) by basis index
        # filled on first use: most algebras built are never bracketed
        self._N = {}                   # see `_n`
        self._bracket_memo = {}
        self._semisimple_memo = {}     # see `is_ad_semisimple`

    # -- indexing -----------------------------------------------------------

    def x_index(self, root):
        return self.root_index[tuple(root)]

    def h_index(self, i):
        return len(self.roots) + i

    def basis_element(self, idx):
        e = LieElement(self, {})
        e.coeffs[idx] = 1
        return e

    def x(self, root):
        return self.basis_element(self.x_index(root))

    def h(self, i):
        return self.basis_element(self.h_index(i))

    def zero(self):
        return LieElement(self, {})

    @cached_property
    def _key(self):
        """The key of each root, by basis index.  A sum or difference of
        two roots has coordinates in -12..12, so key(a) + key(b) - off is
        the key of a + b and key(a) - key(b) + off that of a - b."""
        off, pos = self._off, self.rs._keys
        return [off + k for k in pos] + [off - k for k in pos]

    @cached_property
    def _at(self):
        """Basis index of each root key."""
        return {k: i for i, k in enumerate(self._key)}

    @cached_property
    def _extra(self):
        """The extraspecial pair of each positive root, by index (None
        for a simple root)."""
        # the simple roots come first in the positive order, and a
        # non-simple positive root less some simple root is a positive
        # root, so the minimal a is the first simple root that leaves
        # one; that b comes after a, or b would have been met first
        K, at, off, rank = self._key, self._at, self._off, self.rank
        out = [None] * self.n_pos
        for g in range(rank, self.n_pos):
            for a in range(rank):
                b = at.get(K[g] - K[a] + off)
                if b is not None:
                    out[g] = a, b
                    break
        return out

    # -- structure constants -------------------------------------------------

    def coroot(self, root):
        """Coordinates of the coroot of `root` over H_1..H_rank (integers)."""
        # coordinate i is root[i] (a_i, a_i) / (root, root)
        g6, la6 = self.rs._gram6, self._len6[self.x_index(root)]
        out = [divmod(c * g6[i][i], la6) for i, c in enumerate(root)]
        if any(r for _, r in out):
            self._inexact(f"coroot of {tuple(root)}, 6 |a|^2 = {la6}")
        return tuple(q for q, _ in out)

    def N(self, a, b):
        """Structure constant with [x_a, x_b] = N(a,b) x_{a+b}; 0 when a+b
        is not a root.  Raises when a or b is not a root, and when
        b = -a (that bracket is a coroot)."""
        i = self.root_index.get(tuple(a))
        j = self.root_index.get(tuple(b))
        if i is None or j is None:
            raise ValueError(f"N({tuple(a)}, {tuple(b)}): not a pair of roots"
                             f" of {type_name(self.rs.type_label, self.rank)}")
        if abs(i - j) == self.n_pos:
            raise ValueError("N is undefined for opposite roots")
        s = self._at.get(self._key[i] + self._key[j] - self._off)
        return 0 if s is None else self._n(i, j, s)

    def _n(self, i, j, s):
        """N for the roots of basis indices i and j, whose sum has index s,
        memoized in `_N` by (i, j) for every sign pattern."""
        v = self._N.get((i, j))
        if v is not None:
            return v
        P = self.n_pos
        if (i < P) != (j < P):
            # with c = -s, a + b + c = 0 and N(a, b)/|c|^2 =
            # N(b, c)/|a|^2 = N(c, a)/|b|^2; c shares a sign with a or b
            L, c = self._len6, (s + P) % (2 * P)
            if (c < P) == (i < P):
                v, r = divmod(L[c] * self._n(c, i, (j + P) % (2 * P)), L[j])
            else:
                v, r = divmod(L[c] * self._n(j, c, (i + P) % (2 * P)), L[i])
            if r:
                self._inexact(f"N({self.roots[i]}, {self.roots[j]})")
        elif i >= P:
            v = -self._n(i - P, j - P, s - P)
        elif i > j:
            v = -self._n(j, i, s)
        else:
            K, at, off = self._key, self._at, self._off
            a1, b1 = self._extra[s]
            if i == a1:
                # the extraspecial pair: N = p + 1, p largest with b - p a
                # a root
                step = K[i] - off
                k, v = K[j] - step, 1
                while k in at:
                    k -= step
                    v += 1
            else:
                # Carter 4.1: from the Jacobi identity on x_{-a1}, x_a, x_b,
                # whose other terms have sums of lower height
                na1 = a1 + P
                term = 0
                d1 = at.get(K[i] - K[a1] + off)
                if d1 is not None:
                    term += self._n(na1, i, d1) * self._n(d1, j, b1)
                d2 = at.get(K[j] - K[a1] + off)
                if d2 is not None:
                    term += self._n(na1, j, d2) * self._n(i, d2, b1)
                v, r = divmod(term, self._n(na1, s, b1))
                if r:
                    self._inexact(f"N({self.roots[i]}, {self.roots[j]})")
        self._N[i, j] = v
        return v

    def _inexact(self, what):
        raise ValueError(f"type {self.rs.type_label}, rank {self.rank}: "
                         f"{what} is not an integer quotient")

    # -- brackets -------------------------------------------------------------

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse dict {index: int}, memoized per pair.
        `bracket` and `ad_columns` come here only for a Cartan term, a
        Cartan column or a pair of opposite roots; for any other pair of
        roots N is read from `_N`, as they read it."""
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
        elif abs(i - j) == self.n_pos:
            pos, sign = (i, 1) if i < j else (j, -1)
            out = {self.h_index(k): sign * c
                   for k, c in enumerate(self.coroot(self.roots[pos])) if c}
        else:
            s = self._at.get(self._key[i] + self._key[j] - self._off)
            out = {} if s is None else {s: self._n(i, j, s)}
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
            prev = out.get(i)
            out[i] = c if prev is None else prev + c
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


def _comb(coeffs, vectors):
    """sum c * vectors[k] over the entries k: c of the sparse vector
    coeffs, as a sparse vector; 1 * v is v itself, not a copy."""
    if len(coeffs) == 1:
        (k, c), = coeffs.items()
        if c == 1:
            return vectors[k]
    out = {}
    for k, c in coeffs.items():
        for i, x in vectors[k].items():
            t = x if c == 1 else c * x
            prev = out.get(i)
            out[i] = t if prev is None else prev + t
    return {i: x for i, x in out.items() if x}


def lin_comb(coeffs, elems):
    """sum c * e over the pairs (c, e), as one element of the algebra of
    elems[0]."""
    vectors = [e.coeffs for e in elems]
    return LieElement(elems[0].alg, _comb(
        {k: c for k, c in zip(range(len(vectors)), coeffs) if c}, vectors))


def integral(x: LieElement) -> LieElement:
    """The primitive integral multiple of x: x times the positive rational
    that makes its coefficients coprime ints (the zero element for 0)."""
    d = lcm(*(c.denominator for c in x.coeffs.values()))
    num = {i: c.numerator * (d // c.denominator) for i, c in x.coeffs.items()}
    g = gcd(*num.values()) or 1
    return LieElement(x.alg, {i: n // g for i, n in num.items()})


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """[x, y], each pair of terms taken as in `ad_columns`."""
    if x.alg is not y.alg:
        raise ValueError("elements of different algebras")
    alg = x.alg
    nroots, P = len(alg.roots), alg.n_pos
    K, at, off, N, n_of = alg._key, alg._at, alg._off, alg._N, alg._n
    basis = alg.bracket_basis
    terms = list(y.coeffs.items())
    out = {}
    for i, ci in x.coeffs.items():
        root = i < nroots
        if root:
            ki, ni = K[i] - off, i + P if i < P else i - P
        for j, cj in terms:
            if root and j < nroots and j != ni:
                s = at.get(ki + K[j])
                if s is None:
                    continue
                b = ((s, N.get((i, j)) or n_of(i, j, s)),)
            else:
                b = basis(i, j)
                if not b:       # most pairs of basis vectors commute
                    continue
                b = b.items()
            c = ci * cj
            for k, n in b:
                t = c if n == 1 else -c if n == -1 else c * n
                prev = out.get(k)
                out[k] = t if prev is None else prev + t
    return LieElement(alg, out)


def ad_columns(x: LieElement, indices):
    """The columns [x, e_j] of ad x at the basis indices j, as sparse
    vectors, with no element built.  They are filled term by term of x.
    For a root term x_a and a root column x_b, b != -a, the key
    key(a) + key(b) is looked up in `_at`: a miss is a zero entry and
    stores nothing, a hit adds c N(a, b) from `_N`.  Cartan terms,
    Cartan columns and the column of x_{-a} take `bracket_basis` and its
    memo.  An entry is dropped only where its terms cancel, as two Cartan
    terms of x can on a root column."""
    alg = x.alg
    nroots, P = len(alg.roots), alg.n_pos
    K, at, off, N, n_of = alg._key, alg._at, alg._off, alg._N, alg._n
    memo, basis = alg._bracket_memo, alg.bracket_basis
    indices = list(indices)
    cols = [{} for _ in indices]
    for i, c in x.coeffs.items():
        root = i < nroots
        if root:
            ki, ni = K[i] - off, i + P if i < P else i - P
        for j, col in zip(indices, cols):
            if root and j < nroots and j != ni:
                s = at.get(ki + K[j])
                if s is None:
                    continue
                b = ((s, N.get((i, j)) or n_of(i, j, s)),)
            else:
                b = memo.get((i, j))
                if b is None:
                    b = basis(i, j)
                b = b.items()
            for k, n in b:
                t = col.get(k, 0) + c * n
                if t:
                    col[k] = t
                else:
                    del col[k]
    return cols


def centralizer_in(x: LieElement, subspace_basis):
    """Basis of {y in span(subspace_basis) : [x, y] = 0}, exact.  The
    kernel of ad x is that of ad r x for any r != 0, so the columns are
    those of ad `integral(x)`, all int on an integral subspace basis.
    The column of b is sum_k b_k [x, e_k] over the support of b, the
    column of ad x itself when b is a basis vector."""
    support = list(dict.fromkeys(k for b in subspace_basis for k in b.coeffs))
    ad = dict(zip(support, ad_columns(integral(x), support)))
    basis = [b.coeffs for b in subspace_basis]
    return [LieElement(x.alg, _comb(sol, basis))
            for sol in linalg.kernel([_comb(b, ad) for b in basis])]


def is_ad_semisimple(x: LieElement) -> bool:
    """Whether ad x is semisimple, certified by a squarefree minimal
    polynomial of ad `integral(x)` and memoized on the algebra.  The
    minimal polynomial of ad r x, r != 0, is that of ad x with its roots
    scaled by r, so one is squarefree iff the other is: the memo key is
    the coefficients of integral(x) up to sign, shared by x, 2x and -x."""
    y = integral(x)
    key = tuple(sorted((i, c) for i, c in y.coeffs.items() if c))
    if key and key[0][1] < 0:
        key = tuple((i, -c) for i, c in key)
    memo = x.alg._semisimple_memo
    if key not in memo:
        memo[key] = linalg.is_squarefree(minimal_polynomial_ad(y))
    return memo[key]


def minimal_polynomial_ad(x: LieElement):
    return linalg.min_poly(ad_columns(x, range(x.alg.dimension)))


def exp_ad(y: LieElement, v: LieElement, t) -> LieElement:
    """exp(t ad y)(v); raises, naming y and v, unless (ad y)^4 v = 0, as
    for a root vector y, since a root string holds at most four roots.
    For a nilpotent ad y, exp(t ad y) is an automorphism of the algebra
    (Humphreys, 2.3)."""
    out = term = v
    for k in range(1, 5):
        term = bracket(y, term)
        if not term:
            return out
        term = Fraction(t, k) * term
        out = out + term
    raise ValueError(f"exp(ad y) does not stop on v: y = {y!r}, v = {v!r}")


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
