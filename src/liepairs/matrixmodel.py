"""Matrix realization of so_{p+2} with the involution given by
conjugation with J = diag(I_p, -I_2), and the real form so(p,2).

Everything is exact over the Gaussian rationals.  The module covers:
the k/p grading of skew matrices, the embedding phi of so(p,2) given by
conjugation with diag(I_p, -i I_2), Cayley triples and their Cayley
transform into normal triples, exact Jordan decomposition, nilpotent
orbit representatives built from signed Young diagrams, normal
sl2-triples by linear solves, and the even-sheet / minimal-orbit
witnesses.

Orbit representatives are built directly on the complex side: each
diagram row gives a Jordan string with an invariant symmetric form and
an involution acting by alternating signs down the string (even-length
rows act in pairs, with the involution swapping the two strings).
Rewriting in an exact orthonormal basis of involution eigenvectors
lands the representative in p with the involution in standard diagonal
form.  Q(i) suffices for this; realizing the same orbits through
rational Cayley triples in the real form would need square roots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, orbits
from .gaussian import QI
from .linalg import mat_mul, transpose

I_UNIT = QI(0, 1)
Q0 = QI(0)
Q1 = QI(1)


# ---------------------------------------------------------------------------
# matrix helpers over QI


def zeros(n):
    return [[Q0] * n for _ in range(n)]


def eye(n, scale=Q1):
    out = zeros(n)
    for i in range(n):
        out[i][i] = QI.coerce(scale)
    return out


def mat_add(a, b):
    return [[x + y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = QI.coerce(c)
    return [[c * x if x else Q0 for x in row] for row in a]


def lin_comb(coeffs, mats):
    """sum c * M over the pairs (c, M), adding only nonzero entries."""
    out = zeros(len(mats[0]))
    for c, M in zip(coeffs, mats):
        if not c:
            continue
        c = QI.coerce(c)
        for row, orow in zip(M, out):
            for j, x in enumerate(row):
                if x:
                    orow[j] = orow[j] + c * x
    return out


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _kernel(basis, image):
    """The elements of span(basis) that the linear map `image` (matrix to
    flat list of entries) sends to zero."""
    return [lin_comb(sol, basis)
            for sol in linalg.kernel([linalg.sparse(image(b))
                                      for b in basis])]


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_eq(a, b):
    return mat_is_zero(mat_sub(a, b))


def flatten(a):
    return [x for row in a for x in row]


def qi_entries(a):
    return [[QI.coerce(x) for x in row] for row in a]


def mat_inverse(a):
    n = len(a)
    aug = [list(row) + [Q1 if i == j else Q0 for j in range(n)]
           for i, row in enumerate(a)]
    rows, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def skew_elementary(n, i, j):
    out = zeros(n)
    out[i][j] = Q1
    out[j][i] = -Q1
    return out


def is_skew(a):
    return mat_is_zero(mat_add(a, transpose(a)))


# ---------------------------------------------------------------------------
# the symmetric pair


@dataclass
class MatrixPair:
    """so_{p+2} with theta = conjugation by diag(I_p, -I_2)."""

    p: int

    def __post_init__(self):
        self.n = self.p + 2

    def theta(self, X):
        """J X J: flips the sign of the two off-diagonal blocks."""
        p = self.p
        return [[-x if (i < p) != (j < p) else x for j, x in enumerate(row)]
                for i, row in enumerate(X)]

    def phi(self, X0):
        """Embedding of the real form, conjugation by diag(I_p, -i I_2):
        multiplies the upper corner block by i and the lower by -i."""
        p = self.p
        return [[(I_UNIT if i < p else -I_UNIT) * x if (i < p) != (j < p)
                 else x for j, x in enumerate(row)]
                for i, row in enumerate(X0)]

    def parity_tag(self, X):
        tX = self.theta(X)
        in_k = mat_eq(tX, X)
        in_p = mat_is_zero(mat_add(tX, X))
        if in_k:
            return "in-k"
        if in_p:
            return "in-p"
        return "mixed"

    def k_basis(self):
        n, p = self.n, self.p
        out = [skew_elementary(n, i, j) for i in range(p) for j in range(i + 1, p)]
        out.append(skew_elementary(n, n - 2, n - 1))
        return out

    def p_basis(self):
        n, p = self.n, self.p
        return [skew_elementary(n, i, j) for i in range(p) for j in (n - 2, n - 1)]

    def g_basis(self):
        n = self.n
        return [skew_elementary(n, i, j) for i in range(n) for j in range(i + 1, n)]

    def H(self, i):
        """The Cartan-subspace basis H_i = E_{i,n-i+1} - E_{n-i+1,i}."""
        if i not in (1, 2):
            raise ValueError("only H_1 and H_2 span the Cartan subspace")
        return skew_elementary(self.n, i - 1, self.n - i)

    # -- kernels --------------------------------------------------------------

    def centralizer_in(self, X, basis):
        """Coefficient basis of {Y in span(basis) : [X, Y] = 0}."""
        if not basis:
            return []
        return _kernel(basis, lambda b: flatten(commutator(X, b)))

    def dim_p_centralizer(self, X):
        return len(self.centralizer_in(X, self.p_basis()))

    def dim_bracket_k(self, X):
        sp = linalg.Span()
        for b in self.k_basis():
            sp.add(linalg.sparse(flatten(commutator(b, X))))
        return sp.dim


def build_pair(p) -> MatrixPair:
    if p < 2:
        raise ValueError("signature (p,2) requires p >= 2")
    return MatrixPair(p)


# ---------------------------------------------------------------------------
# Jordan decomposition


def matrix_min_poly(M):
    return linalg.min_poly([linalg.sparse(c) for c in transpose(M)])


def poly_of_matrix(p, M):
    n = len(M)
    acc = zeros(n)
    for c in reversed(p):
        acc = mat_mul(acc, M)
        if c:
            acc = mat_add(acc, eye(n, c))
    return acc


def jordan_decompose(M):
    """Exact Jordan-Chevalley decomposition M = S + N.

    S is the unique semisimple summand commuting with N that is a
    polynomial in M; computed by Newton iteration on the squarefree
    part of the minimal polynomial.  f(M) is nilpotent of index at most
    n and each step squares the order of f(S), so ceil(log2 n) steps
    reach f(S) = 0.
    """
    M = qi_entries(M)
    n = len(M)
    f = linalg.squarefree_part(matrix_min_poly(M))
    fd = linalg.poly_deriv(f)
    S = M
    checks = (n - 1).bit_length() + 1
    for _ in range(checks):
        fS = poly_of_matrix(f, S)
        if mat_is_zero(fS):
            break
        S = mat_sub(S, mat_mul(fS, mat_inverse(poly_of_matrix(fd, S))))
    else:
        raise ValueError(
            f"jordan_decompose: Newton iteration on a {n}x{n} matrix with "
            f"squarefree minimal-polynomial part {f} (low order first) "
            f"left f(S) != 0 after {checks - 1} steps")
    N = mat_sub(M, S)
    return S, N


def is_nilpotent(M):
    """True iff the minimal polynomial of M is a power of x."""
    return not any(matrix_min_poly(qi_entries(M))[:-1])


def is_semisimple(M):
    return linalg.is_squarefree(matrix_min_poly(qi_entries(M)))


def jordan_type(M):
    """Partition of the Jordan block sizes of a nilpotent matrix."""
    n = len(M)
    ranks = [n]
    P = eye(n)
    while ranks[-1]:
        if len(ranks) > n:
            raise ValueError(
                f"jordan_type: the {n}x{n} matrix is not nilpotent; "
                f"ranks of its powers 0..{n}: {ranks}")
        P = mat_mul(P, M)
        ranks.append(linalg.rank(P))
    # ge[k - 1], the number of blocks of size >= k, is ranks[k-1] - ranks[k]
    ge = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return tuple(k for k in range(len(ge) - 1, 0, -1)
                 for _ in range(ge[k - 1] - ge[k]))


# ---------------------------------------------------------------------------
# triples


def _sl2_errors(H, X, Y, sub=""):
    """The sl2 relations that (H, X, Y) breaks, named with suffix `sub`."""
    h, x, y = (s + sub for s in "HXY")
    errs = []
    if not mat_eq(commutator(H, X), mat_scale(X, 2)):
        errs.append(f"[{h},{x}] != 2 {x}")
    if not mat_eq(commutator(H, Y), mat_scale(Y, -2)):
        errs.append(f"[{h},{y}] != -2 {y}")
    if not mat_eq(commutator(X, Y), H):
        errs.append(f"[{x},{y}] != {h}")
    return errs


@dataclass
class CayleyTriple:
    """sl2-triple in the real form with theta_0(H0) = -H0,
    theta_0(X0) = -Y0, where theta_0(Z) = -Z^t."""

    H0: list
    X0: list
    Y0: list

    def validate(self):
        errs = _sl2_errors(self.H0, self.X0, self.Y0, "0")
        if not mat_eq(transpose(self.H0), self.H0):
            errs.append("theta_0(H0) != -H0")
        if not mat_eq(transpose(self.X0), self.Y0):
            errs.append("theta_0(X0) != -Y0")
        return errs


@dataclass
class NormalTriple:
    """sl2-triple with H in k and X, Y in p."""

    pair: MatrixPair
    H: list
    X: list
    Y: list

    def validate(self):
        errs = _sl2_errors(self.H, self.X, self.Y)
        if self.pair.parity_tag(self.H) != "in-k":
            errs.append("H not in k")
        for nm, Z in (("X", self.X), ("Y", self.Y)):
            if self.pair.parity_tag(Z) != "in-p":
                errs.append(f"{nm} not in p")
        return errs


def cayley_transform(pair: MatrixPair, t: CayleyTriple) -> NormalTriple:
    """Normal triple from a Cayley triple: H_S = i(X0 - Y0),
    X_S = (X0 + Y0 + iH0)/2, Y_S = (X0 + Y0 - iH0)/2, after embedding
    the real form through phi."""
    errs = t.validate()
    if errs:
        raise ValueError("not a Cayley triple: " + "; ".join(errs))
    H0 = pair.phi(qi_entries(t.H0))
    X0 = pair.phi(qi_entries(t.X0))
    Y0 = pair.phi(qi_entries(t.Y0))
    HS = mat_scale(mat_sub(X0, Y0), I_UNIT)
    half = Fraction(1, 2)
    XS = mat_scale(mat_add(mat_add(X0, Y0), mat_scale(H0, I_UNIT)), half)
    YS = mat_scale(mat_sub(mat_add(X0, Y0), mat_scale(H0, I_UNIT)), half)
    out = NormalTriple(pair, HS, XS, YS)
    errs = out.validate()
    if errs:
        raise ValueError("Cayley transform failed: " + "; ".join(errs))
    return out


def inverse_cayley_transform(pair: MatrixPair, t: NormalTriple):
    """Recover the embedded real-form triple (phi images) from a normal
    triple; inverse of the transform above, before un-embedding."""
    H0 = mat_scale(mat_sub(t.X, t.Y), QI(0, -1))
    X0 = mat_scale(mat_sub(mat_add(t.X, t.Y), mat_scale(t.H, I_UNIT)), Fraction(1, 2))
    Y0 = mat_scale(mat_add(mat_add(t.X, t.Y), mat_scale(t.H, I_UNIT)), Fraction(1, 2))
    return H0, X0, Y0


def normal_triple_for(pair: MatrixPair, X) -> NormalTriple:
    """Normal sl2-triple through a nonzero nilpotent X in p.

    H is solved for in k intersected with the image of ad X, then Y in
    p from [X,Y] = H, [H,Y] = -2Y; both steps are exact linear solves.
    """
    X = qi_entries(X)
    if mat_is_zero(X):
        raise ValueError("X must be nonzero")
    if pair.parity_tag(X) != "in-p":
        raise ValueError("X must lie in p")
    if not is_nilpotent(X):
        raise ValueError("X must be nilpotent")
    # H = sum a_j [X, p_j] with [H, X] = 2 X
    pb = pair.p_basis()
    cands = [commutator(X, b) for b in pb]
    mat = transpose([flatten(commutator(c, X)) for c in cands])
    sol = linalg.solve(mat, flatten(mat_scale(X, 2)))
    if sol is None:
        raise ValueError("no Cartan element in im(ad X): X not nilpotent?")
    H = lin_comb(sol, cands)
    # Y in p with [X, Y] = H and [H, Y] = -2 Y
    rows = transpose([
        flatten(c) + flatten(mat_add(commutator(H, b), mat_scale(b, 2)))
        for c, b in zip(cands, pb)])
    h = flatten(H)
    sol = linalg.solve(rows, h + [Q0] * len(h))
    if sol is None:
        raise ValueError("no opposite nilpotent found")
    Y = lin_comb(sol, pb)
    out = NormalTriple(pair, H, X, Y)
    errs = out.validate()
    if errs:
        raise ValueError("triple construction failed: " + "; ".join(errs))
    return out


# ---------------------------------------------------------------------------
# orbit representatives from signed diagrams


def nilpotent_from_diagram(pair: MatrixPair, diagram):
    """Representative X in p of the nilpotent orbit of a signed diagram.

    Each row carries a Jordan string; the involution acts by the
    alternating box signs on odd rows and swaps the strings of an
    even-row pair.  The result is expressed in an exact orthonormal
    basis of involution eigenvectors ordered (+1)-block first, so that
    the involution is conjugation by diag(I_p, -I_2) and X lands in p.
    """
    rows = list(diagram.rows)
    n = pair.n
    if sum(l for l, _ in rows) != n:
        raise ValueError("diagram size must be p + 2")
    odd = [(l, s) for l, s in rows if l % 2 == 1]
    even = sorted(l for l, s in rows if l % 2 == 0)
    pairs = []
    while even:
        a = even.pop()
        b = even.pop()
        if a != b:
            raise ValueError("even rows must come in equal-length pairs")
        pairs.append(a)

    Xstr = zeros(n)
    plus_vecs, minus_vecs = [], []
    base = 0

    def unit(idx, coeff=Q1):
        v = [Q0] * n
        v[idx] = QI.coerce(coeff)
        return v

    def combine(*terms):
        v = [Q0] * n
        for coeff, idx in terms:
            v[idx] = v[idx] + QI.coerce(coeff)
        return v

    for l, s in odd:
        for m in range(l - 1):
            Xstr[base + m + 1][base + m] = Q1
        m0 = (l - 1) // 2
        c = Fraction((-1) ** m0)
        sgn = 1 if s == "+" else -1
        store = plus_vecs if sgn * (-1) ** m0 > 0 else minus_vecs
        store.append(unit(base + m0))
        for a in range(m0):
            q = Fraction((-1) ** a) * c
            beta = 1 / (2 * q)
            e1 = combine((1, base + a), (beta, base + l - 1 - a))
            e2 = combine((I_UNIT, base + a), (-beta * I_UNIT, base + l - 1 - a))
            store = plus_vecs if sgn * (-1) ** a > 0 else minus_vecs
            store.append(e1)
            store.append(e2)
        base += l

    for l in pairs:
        bv, bw = base, base + l
        for m in range(l - 1):
            Xstr[bv + m + 1][bv + m] = Q1
            Xstr[bw + m + 1][bw + m] = Q1
        c = Fraction(-1, 2)
        # u+_m = v_m + (-1)^m w_m pairs with u+_{l-1-m}, product -2c = 1
        # u-_m = v_m - (-1)^m w_m pairs with u-_{l-1-m}, product  2c = -1
        for a in range(l // 2):
            b = l - 1 - a
            for sign, store, q in ((1, plus_vecs, -2 * c),
                                   (-1, minus_vecs, 2 * c)):
                beta = 1 / (2 * q)
                ua = combine((1, bv + a), (sign * (-1) ** a, bw + a))
                ub = combine((1, bv + b), (sign * (-1) ** b, bw + b))
                e1 = [x + QI.coerce(beta) * y for x, y in zip(ua, ub)]
                e2 = [I_UNIT * (x - QI.coerce(beta) * y)
                      for x, y in zip(ua, ub)]
                store.append(e1)
                store.append(e2)
        base += 2 * l

    if len(plus_vecs) != pair.p or len(minus_vecs) != 2:
        raise ValueError("diagram signature is not (p,2)")
    P = transpose(plus_vecs + minus_vecs)
    X = mat_mul(mat_inverse(P), mat_mul(Xstr, P))
    return X


# ---------------------------------------------------------------------------
# characteristics from a triple


def characteristic_from_triple(t: NormalTriple):
    """Candidate characteristics (alpha_i(H)), read from the eigenvalues
    of H, as a tuple of tuples.

    The eigenvalue multiset of the neutral element determines the
    dominant weight string h_1 >= ... >= h_r and the characteristic per
    the ambient type.  That is one candidate, except for an all-even
    diagram of so_{2r}, which yields the two labelings (c1, c2): the
    construction does not fix the numeral convention.
    """
    H = t.H
    n = len(H)
    eigs = []
    m = 0
    while len(eigs) < n:
        if m > 8 * n:
            raise ValueError(
                f"{n}x{n} H has non-integer eigenvalues: the integers up "
                f"to {8 * n} in size give only {eigs}")
        for val in ({0} if m == 0 else {m, -m}):
            Mv = mat_sub(H, eye(n, val))
            k = n - linalg.rank(Mv)
            eigs.extend([val] * k)
        m += 1
    return orbits.characteristic_of_weights(eigs, None)


# ---------------------------------------------------------------------------
# even-sheet and distinguishedness witnesses


def even_sheet_witness(pair: MatrixPair, t: NormalTriple):
    """For an even X, check dim p^{X + s Y} = dim p^X and semisimplicity
    of X + s Y for s = 1, 2, 3."""
    cands = characteristic_from_triple(t)
    if not any(all(x in (0, 2) for x in cc) for cc in cands):
        raise ValueError("X is not even: characteristic "
                         + "/".join(map(str, cands)))
    d0 = pair.dim_p_centralizer(t.X)
    results = []
    for s in (1, 2, 3):
        Xs = mat_add(t.X, mat_scale(t.Y, s))
        results.append({
            "lambda": str(s),
            "dim_match": pair.dim_p_centralizer(Xs) == d0,
            "semisimple": is_semisimple(Xs),
        })
    return {
        "dim_p_X": d0,
        "samples": results,
        "ok": all(e["dim_match"] and e["semisimple"] for e in results),
    }


def restricted_root_space(pair: MatrixPair, c1, c2):
    """Elements Z of so_{p+2} with [H_k, Z] = i c_k Z for k = 1, 2: the
    images under phi of the real root space at (-c1, -c2), since
    phi(K_k) = i H_k."""
    return [pair.phi(Z) for Z in real_restricted_root_space(pair, -c1, -c2)]


def real_form_basis(pair: MatrixPair):
    """Basis of so(p,2) in the form-preserving realization
    Z^t J = -J Z: skew in the two diagonal blocks, symmetric corners."""
    n, p = pair.n, pair.p
    basis = []
    for i in range(p):
        for j in range(i + 1, p):
            basis.append(skew_elementary(n, i, j))
    basis.append(skew_elementary(n, n - 2, n - 1))
    for i in range(p):
        for j in (n - 2, n - 1):
            M = zeros(n)
            M[i][j] = Q1
            M[j][i] = Q1
            basis.append(M)
    return basis


def K(pair: MatrixPair, i):
    """Cartan-subspace element K_i = E_{i,n-i+1} + E_{n-i+1,i} of the
    real form; phi(K_i) = i H_i."""
    if i not in (1, 2):
        raise ValueError("only K_1 and K_2 span the Cartan subspace")
    M = zeros(pair.n)
    M[i - 1][pair.n - i] = Q1
    M[pair.n - i][i - 1] = Q1
    return M


def real_restricted_root_space(pair: MatrixPair, c1, c2):
    """Elements Z of so(p,2) with [K_k, Z] = c_k Z for k = 1, 2."""
    ops = ((K(pair, 1), c1), (K(pair, 2), c2))
    return _kernel(real_form_basis(pair), lambda b: [
        x for A, c in ops
        for x in flatten(mat_sub(commutator(A, b), mat_scale(b, c)))])


def _fraction_sqrt(q: Fraction):
    if q <= 0:
        return None
    import math

    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def minimal_orbit_cayley_triple(pair: MatrixPair, sign=1) -> CayleyTriple:
    """Cayley triple through the restricted root vector of e1 - e2,
    the minimal nilpotent orbit of the real form; sign = -1 gives the
    other real orbit of the same shape."""
    space = real_restricted_root_space(pair, 1, -1)
    if len(space) != 1:
        raise ValueError("restricted root e1 - e2 should have multiplicity 1")
    X0 = mat_scale(space[0], sign)
    Y0 = transpose(X0)  # -theta_0(X0)
    H0 = commutator(X0, Y0)
    # rescale so that [H0, X0] = 2 X0
    B = commutator(H0, X0)
    lam = None
    for rb, rx in zip(B, X0):
        for xb, xx in zip(rb, rx):
            if xx:
                lam = (QI.coerce(xb) / QI.coerce(xx)).re
                break
        if lam is not None:
            break
    if lam is None or not mat_eq(B, mat_scale(X0, lam)):
        raise ValueError("root vector is not an eigenvector of its coroot")
    s = _fraction_sqrt(Fraction(2) / lam)
    if s is None:
        raise ValueError("triple normalization needs an irrational scale")
    X0 = mat_scale(X0, s)
    Y0 = mat_scale(Y0, s)
    t = CayleyTriple(commutator(X0, Y0), X0, Y0)
    errs = t.validate()
    if errs:
        raise ValueError("Cayley triple construction failed: "
                         + "; ".join(errs))
    return t


def minimal_orbit_not_distinguished(pair: MatrixPair):
    """Witness that the minimal nilpotent orbit reps are not
    p-distinguished: a nonzero semisimple element of p commuting with
    them.

    The minimal orbit comes from the restricted root e1 - e2; the
    Cartan-subspace element K_1 + K_2 kills that root, so it
    centralizes the whole Cayley triple and its image i(H_1 + H_2)
    under phi commutes with the Cayley-transformed nilpotent in p.
    Returns the witness report for both real orbits (X0 and -X0).
    """
    if pair.p < 3:
        raise ValueError("the minimal-orbit witness argument needs p >= 3; "
                         "for p = 2 the (2,2) shape is a different case")
    Hw = mat_scale(mat_add(pair.H(1), pair.H(2)), I_UNIT)
    expected = (2, 2) + (1,) * (pair.p - 2)
    reports = []
    for sign in (1, -1):
        t = cayley_transform(pair, minimal_orbit_cayley_triple(pair, sign))
        reports.append({
            "sign": sign,
            "jordan_type": jordan_type(qi_entries(t.X)),
            "triple_valid": not t.validate(),
            "witness_commutes": mat_is_zero(commutator(Hw, t.X)),
            "witness_semisimple": is_semisimple(Hw),
            "witness_in_p": pair.parity_tag(Hw) == "in-p",
            "witness_nonzero": not mat_is_zero(Hw),
        })
    ok = all(r["triple_valid"] and r["jordan_type"] == expected
             and all(v for k, v in r.items() if k.startswith("witness"))
             for r in reports)
    return {"witness": Hw, "reports": reports, "ok": ok}


def lemma_witness_element(pair: MatrixPair):
    """A non-semisimple, non-nilpotent X in p with both Jordan
    components nonzero in p: the Cartan element i(H_1 + H_2), which
    kills the restricted root e1 - e2, plus the commuting minimal
    nilpotent in p obtained from that root by Cayley transform."""
    t = cayley_transform(pair, minimal_orbit_cayley_triple(pair))
    Xs = mat_scale(mat_add(pair.H(1), pair.H(2)), I_UNIT)
    Xn = t.X
    return mat_add(Xs, Xn), Xs, Xn


def proportional(A, B):
    """True iff A = c B for some scalar c (B may be zero only if A is)."""
    ratio = None
    for ra, rb in zip(A, B):
        for x, y in zip(ra, rb):
            if not x and not y:
                continue
            if not y:
                return False
            r = QI.coerce(x) / QI.coerce(y)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


def lemma51_check(pair: MatrixPair, X, trials=20, seed=0):
    """Sampled check that for Y in p^X the semisimple component of Y is
    proportional to that of X."""
    X = qi_entries(X)
    Xs, Xn = jordan_decompose(X)
    if mat_is_zero(Xs) or mat_is_zero(Xn):
        raise ValueError("X must be neither semisimple nor nilpotent")
    for nm, Z in (("semisimple", Xs), ("nilpotent", Xn)):
        if pair.parity_tag(Z) != "in-p":
            raise ValueError(f"{nm} component of X must lie in p")
    kernel = pair.centralizer_in(X, pair.p_basis())
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        Y = lin_comb([rng.randint(-5, 5) for _ in kernel], kernel)
        Ys, _ = jordan_decompose(Y)
        if not proportional(Ys, Xs):
            failures += 1
    return {
        "dim_p_X": len(kernel),
        "trials": trials,
        "failures": failures,
        "ok": failures == 0,
    }


def dim_identity_check(pair: MatrixPair, samples=100, seed=0):
    """dim [k, X] + dim p^X = dim p for random X in p."""
    rng = random.Random(seed)
    pb = pair.p_basis()
    bad = 0
    for _ in range(samples):
        X = lin_comb([QI(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in pb],
                     pb)
        if pair.dim_bracket_k(X) + pair.dim_p_centralizer(X) != len(pb):
            bad += 1
    return {"samples": samples, "failures": bad, "ok": bad == 0}


def phi_equivariance_check(pair: MatrixPair):
    """phi . theta_0 = theta . phi on a basis of the real form."""
    for M in real_form_basis(pair):
        lhs = pair.phi(mat_scale(transpose(M), -1))
        rhs = pair.theta(pair.phi(M))
        if not mat_eq(lhs, rhs):
            return False
    return True


def centralizer_dims(pair: MatrixPair, X):
    """(dim g^X, dim k^X, dim p^X) for X in the matrix model."""
    X = qi_entries(X)
    return (len(pair.centralizer_in(X, pair.g_basis())),
            len(pair.centralizer_in(X, pair.k_basis())),
            pair.dim_p_centralizer(X))


def cartan_point(pair: MatrixPair, mu, lam):
    """The Cartan-subspace element i(mu H_1 + lambda H_2)."""
    return mat_scale(mat_add(mat_scale(pair.H(1), mu),
                             mat_scale(pair.H(2), lam)), I_UNIT)


def nonregular_locus_matrix(pair: MatrixPair):
    """Rank-drop lines of the pencil ad(mu H1 + lambda H2) on p, as
    projective pairs (mu, lambda); the matrix-model analogue of the
    root-space locus, usable for the so_4 case too."""
    pb = pair.p_basis()

    def real_rows(X):
        # the matrix of ad X on p, each Q(i) row split into two real rows
        rows = transpose([flatten(commutator(X, b)) for b in pb])
        return ([[z.re for z in r] for r in rows]
                + [[z.im for z in r] for r in rows])

    A, B = real_rows(pair.H(1)), real_rows(pair.H(2))
    return linalg.projective_locus(A, B, 2)
