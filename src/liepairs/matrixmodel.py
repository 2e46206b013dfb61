"""Matrix realization of so_{p+2} with the involution given by
conjugation with J = diag(I_p, -I_2), and the real form so(p,2).

Everything is exact.  The module covers: the k/p grading of skew
matrices, the embedding phi of so(p,2) given by conjugation with
diag(I_p, -i I_2), Cayley triples and their Cayley transform into normal
triples, exact Jordan decomposition, nilpotent orbit representatives
built from signed Young diagrams, normal sl2-triples by linear solves,
and the even-sheet / minimal-orbit witnesses.

One matrix format: an n x n matrix is a list of n sparse rows
{column: value} that hold the nonzero entries only, so `not any(M)` is
the zero test and `==` is equality.  `entries(M)` keys the entries by
(row, column), the vector format that `linalg.kernel`, `rank` and `Span`
take.  A bracket of skew matrices is eliminated on its `upper` keys,
i < j, alone: the rows it drops are zero or minus kept ones, so the row
space, its unique reduced echelon form and every rank, kernel basis and
particular solution read from that are unchanged.
The k and p bases are the E_ij - E_ji at the index pairs `k_pairs` and
`p_pairs`; `bracket_skew` reads [X, E_ij - E_ji] off two rows and two
columns of X with no product, `upper_bracket_skew` its `upper` keys off
two rows of a skew X, `skew_bracket` the `upper` keys of any other skew
bracket off one product, and `commutator` the rest.
The unit F1 is the int 1: the real-form basis, k, p, H_k and K_k hold
ints, a `Fraction` appears only with 1/2 (the Cayley triples) or where
`linalg` divides a row by an int pivot that does not divide it, and
`QI` only through `phi`, the Cayley transform, the diagram
representatives and the sampled elements of `dim_identity_check`; the
three scalar types mix freely, and nothing here divides two ints.

The minimal-orbit witnesses need no search: `minimal_orbit_cayley_triple`
writes the Cayley triple of the restricted root e1 - e2 down on the
coordinates 1, 2, n-1, n, and exact checks certify it (the sl2 and
theta_0 relations and [K_1, X0] = X0, [K_2, X0] = -X0).

Orbit representatives are read off a table: every element of p is
X = [[0, B], [-B^T, 0]] with B a p x 2 block, and a signature (p,2)
diagram uses only (1,+) and the few rows that can hold its two - boxes,
each with a fixed block of B over Q(i) (`_ROW_BLOCKS`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, orbits
from .errors import UsageError
from .gaussian import QI

F1 = 1
I_UNIT = QI(0, 1)


# ---------------------------------------------------------------------------
# sparse matrix helpers


def zeros(n):
    return [{} for _ in range(n)]


def eye(n, scale=F1):
    return [{i: scale} for i in range(n)]


def lin_comb(coeffs, mats):
    """sum c * M over the pairs (c, M), deleting the entries that cancel."""
    out = zeros(len(mats[0]))
    for c, M in zip(coeffs, mats):
        if not c:
            continue
        unit = c == 1
        for row, orow in zip(M, out):
            for j, x in row.items():
                if not unit:
                    x = c * x
                y = orow.get(j)
                if y is None:
                    orow[j] = x
                elif y := y + x:
                    orow[j] = y
                else:
                    del orow[j]
    return out


def mat_add(a, b):
    return lin_comb((F1, F1), (a, b))


def mat_sub(a, b):
    return lin_comb((F1, -F1), (a, b))


def mat_scale(a, c):
    return lin_comb((c,), (a,))


def mat_mul(a, b):
    out = []
    for ra in a:
        acc = {}
        for t, x in ra.items():
            for j, y in b[t].items():
                z = acc.get(j)
                acc[j] = x * y if z is None else z + x * y
        out.append({j: z for j, z in acc.items() if z})
    return out


def commutator(a, b):
    """ab - ba, both products accumulated into one dict per row."""
    out = []
    for ra, rb in zip(a, b):
        acc = {}
        for t, x in ra.items():
            for j, y in b[t].items():
                z = acc.get(j)
                acc[j] = x * y if z is None else z + x * y
        for t, x in rb.items():
            for j, y in a[t].items():
                z = acc.get(j)
                acc[j] = -(x * y) if z is None else z - x * y
        out.append({j: z for j, z in acc.items() if z})
    return out


def bracket_skew(X, i, j):
    """[X, E_ij - E_ji] with no product: columns j and i are X's columns
    i and -j, less X's rows j and -i placed at rows i and j."""
    out = []
    for row in X:
        col = {}
        if i in row:
            col[j] = row[i]
        if j in row:
            col[i] = -row[j]
        out.append(col)
    for orow, src, sign in ((out[i], X[j], -1), (out[j], X[i], 1)):
        for k, x in src.items():
            if sign < 0:
                x = -x
            y = orow.get(k)
            if y is None:
                orow[k] = x
            elif y := y + x:
                orow[k] = y
            else:
                del orow[k]
    return out


def transpose(a):
    out = zeros(len(a))
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


def entries(a):
    """{(row, column): value}; the keys sort like the flat index i n + j."""
    return {(i, j): x for i, row in enumerate(a) for j, x in row.items()}


def upper(a):
    """The `entries` above the diagonal, which determine a skew matrix."""
    return {(i, j): x for i, r in enumerate(a) for j, x in r.items() if i < j}


def skew_bracket(a, b):
    """`upper` of [a, b] for skew a and b from the one product P = ab:
    ba = (ab)^T, so [a, b]_ij = P_ij - P_ji."""
    out = {}
    for i, ra in enumerate(a):
        for t, x in ra.items():
            for j, y in b[t].items():
                if i != j:
                    k, z = ((i, j), x * y) if i < j else ((j, i), -(x * y))
                    w = out.get(k)
                    out[k] = z if w is None else w + z
    return {k: z for k, z in out.items() if z}


def upper_bracket_skew(A, i, j):
    """`upper` of [A, E_ij - E_ji] for skew A, read off A's rows i and j:
    the bracket's rows i and j are -A's row j and A's row i away from
    columns i and j, it is zero off rows and columns i and j, and it is
    skew, so no two of these entries share a key."""
    out = {}
    for r, src in ((i, A[j]), (j, A[i])):
        for c, x in src.items():
            if c != i and c != j:
                if (r < c) == (r == i):
                    x = -x
                out[(r, c) if r < c else (c, r)] = x
    return out


def mat_is_zero(a):
    return not any(a)


def mat_inverse(a):
    n = len(a)
    sp = linalg.Span()
    for i, row in enumerate(a):
        sp.add({**row, n + i: F1})
    if sp.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [{c - n: x for c, x in row.items() if c >= n} for row in sp.rows]


def _kernel(basis, image):
    """The elements of span(basis) that the linear map `image` (matrix to
    its `entries` or `upper`) sends to zero."""
    return [lin_comb(sol.values(), [basis[j] for j in sol])
            for sol in linalg.kernel([image(b) for b in basis])]


def _solve(columns, rhs):
    """rref's particular solution x of sum_j x[j] columns[j] = rhs, free
    unknowns 0, as a sparse vector: the kernel vector of (columns | -rhs)
    that is 1 at the last column, less that entry; or None if there is no
    solution."""
    n = len(columns)
    sol = linalg.kernel(columns + [{k: -x for k, x in rhs.items()}])
    if sol and n in sol[-1]:
        del sol[-1][n]
        return sol[-1]
    return None


def skew_elementary(n, i, j):
    out = zeros(n)
    out[i][j] = F1
    out[j][i] = -F1
    return out


def is_skew(a):
    return all(a[j].get(i) == -x for i, row in enumerate(a)
               for j, x in row.items())


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
        return [{j: -x if (i < p) != (j < p) else x for j, x in row.items()}
                for i, row in enumerate(X)]

    def phi(self, X0):
        """Embedding of the real form, conjugation by diag(I_p, -i I_2):
        multiplies the upper corner block by i and the lower by -i."""
        p = self.p
        return [{j: (I_UNIT if i < p else -I_UNIT) * x if (i < p) != (j < p)
                 else x for j, x in row.items()}
                for i, row in enumerate(X0)]

    def in_k(self, X):
        """X skew with theta(X) = X; 0 lies in both k and p."""
        return is_skew(X) and all((i < self.p) == (j < self.p)
                                  for i, row in enumerate(X) for j in row)

    def in_p(self, X):
        """X skew with theta(X) = -X: zero on the two diagonal blocks."""
        return is_skew(X) and all((i < self.p) != (j < self.p)
                                  for i, row in enumerate(X) for j in row)

    def k_pairs(self):
        """(i, j) with E_ij - E_ji the k basis, in `k_basis` order."""
        n, p = self.n, self.p
        return ([(i, j) for i in range(p) for j in range(i + 1, p)]
                + [(n - 2, n - 1)])

    def p_pairs(self):
        """(i, j) with E_ij - E_ji the p basis, in `p_basis` order."""
        n, p = self.n, self.p
        return [(i, j) for i in range(p) for j in (n - 2, n - 1)]

    def k_basis(self):
        return [skew_elementary(self.n, i, j) for i, j in self.k_pairs()]

    def p_basis(self):
        return [skew_elementary(self.n, i, j) for i, j in self.p_pairs()]

    def H(self, i):
        """The Cartan-subspace basis H_i = E_{i,n-i+1} - E_{n-i+1,i}."""
        if i not in (1, 2):
            raise ValueError("only H_1 and H_2 span the Cartan subspace")
        return skew_elementary(self.n, i - 1, self.n - i)

    # -- kernels --------------------------------------------------------------

    def kernel_signs(self, Xk):
        """(dim ker Xk on V+, on V-), V+ the first p coordinates and V- the
        last two: Xk, a power of some X in p, maps each into one of them."""
        return tuple(dim - linalg.rank({j: x for j, x in row.items()
                                        if (j < self.p) == plus} for row in Xk)
                     for plus, dim in ((True, self.p), (False, 2)))

    def centralizer_in(self, X, basis):
        """Coefficient basis of {Y in span(basis) : [X, Y] = 0}; X and the
        basis must be skew, else ValueError names the one that is not."""
        for k, M in enumerate([X, *basis]):
            if not is_skew(M):
                nm = f"basis[{k - 1}]" if k else "X"
                raise ValueError(f"centralizer_in: {nm} is not skew")
        if not basis:
            return []
        return _kernel(basis, lambda b: skew_bracket(X, b))

    def dim_p_centralizer(self, X):
        """dim p^X, the nullity of the columns [X, p_j]; builds no element.
        X must be skew, else ValueError."""
        if not is_skew(X):
            raise ValueError("dim_p_centralizer: X is not skew")
        pairs = self.p_pairs()
        return len(pairs) - linalg.rank(upper_bracket_skew(X, i, j)
                                        for i, j in pairs)

    def dim_bracket_k(self, X):
        """dim [k, X], the rank of the columns [X, k_j] = -[k_j, X]; X
        must be skew, else ValueError."""
        if not is_skew(X):
            raise ValueError("dim_bracket_k: X is not skew")
        return linalg.rank(upper_bracket_skew(X, i, j)
                           for i, j in self.k_pairs())


def build_pair(p) -> MatrixPair:
    if p < 2:
        raise UsageError("signature (p,2) requires p >= 2")
    return MatrixPair(p)


# ---------------------------------------------------------------------------
# Jordan decomposition


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
    n = len(M)
    # the rows of M are the columns of M^T, which has M's minimal polynomial
    f = linalg.squarefree_part(linalg.min_poly(M))
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
    return not any(linalg.min_poly(M)[:-1])


def is_semisimple(M):
    return linalg.is_squarefree(linalg.min_poly(M))


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
    """The sl2 relations that (H, X, Y) breaks, named with suffix `sub`;
    decided on the `upper` keys alone when H, X and Y are skew."""
    h, x, y = (s + sub for s in "HXY")
    br, key = ((skew_bracket, upper) if all(map(is_skew, (H, X, Y))) else
               (lambda a, b: entries(commutator(a, b)), entries))
    errs = []
    if br(H, X) != {k: 2 * z for k, z in key(X).items()}:
        errs.append(f"[{h},{x}] != 2 {x}")
    if br(H, Y) != {k: -2 * z for k, z in key(Y).items()}:
        errs.append(f"[{h},{y}] != -2 {y}")
    if br(X, Y) != key(H):
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
        if transpose(self.H0) != self.H0:
            errs.append("theta_0(H0) != -H0")
        if transpose(self.X0) != self.Y0:
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
        if not self.pair.in_k(self.H):
            errs.append("H not in k")
        for nm, Z in (("X", self.X), ("Y", self.Y)):
            if not self.pair.in_p(Z):
                errs.append(f"{nm} not in p")
        return errs


def cayley_transform(pair: MatrixPair, t: CayleyTriple) -> NormalTriple:
    """Normal triple from a Cayley triple: H_S = i(X0 - Y0),
    X_S = (X0 + Y0 + iH0)/2, Y_S = (X0 + Y0 - iH0)/2, after embedding
    the real form through phi."""
    errs = t.validate()
    if errs:
        raise ValueError("not a Cayley triple: " + "; ".join(errs))
    H0, X0, Y0 = pair.phi(t.H0), pair.phi(t.X0), pair.phi(t.Y0)
    HS = mat_scale(mat_sub(X0, Y0), I_UNIT)
    half = Fraction(1, 2)
    XS = lin_comb((half, half, half * I_UNIT), (X0, Y0, H0))
    YS = lin_comb((half, half, -half * I_UNIT), (X0, Y0, H0))
    out = NormalTriple(pair, HS, XS, YS)
    errs = out.validate()
    if errs:
        raise ValueError("Cayley transform failed: " + "; ".join(errs))
    return out


def _y_column(X, H, i, j):
    """`upper` of [X, E] + [H, E] + 2 E for skew X and H and E = E_ij - E_ji,
    i < j, with no matrix built."""
    out = upper_bracket_skew(X, i, j)
    for k, x in upper_bracket_skew(H, i, j).items():
        y = out.get(k)
        out[k] = x if y is None else y + x
    out[i, j] = 2
    return {k: x for k, x in out.items() if x}


def normal_triple_for(pair: MatrixPair, X) -> NormalTriple:
    """Normal sl2-triple through a nonzero nilpotent X in p.

    H is solved for in k intersected with the image of ad X, then Y in
    p from [X,Y] = H, [H,Y] = -2Y; both are exact solves on `upper`.
    X = [[0, B], [-B^T, 0]] squares to -diag(B B^T, B^T B), and B B^T
    shares its nonzero eigenvalues with G = B^T B, read off X's last two
    rows: X is nilpotent iff tr G = det G = 0, an exact O(p) certificate.
    """
    if mat_is_zero(X):
        raise ValueError("X must be nonzero")
    if not pair.in_p(X):
        raise ValueError("X must lie in p")
    g = [sum(x * w.get(i, 0) for i, x in r.items()) for r, w in
         ((X[-2], X[-2]), (X[-2], X[-1]), (X[-1], X[-1]))]
    if g[0] + g[2] or g[0] * g[2] - g[1] * g[1]:
        raise ValueError("X must be nilpotent")
    # H = sum a_j [X, p_j] with [H, X] = 2 X
    pp = pair.p_pairs()
    cands = [bracket_skew(X, i, j) for i, j in pp]
    sol = _solve([skew_bracket(c, X) for c in cands],
                 {k: 2 * x for k, x in upper(X).items()})
    if sol is None:
        raise ValueError("no Cartan element in im(ad X): X not nilpotent?")
    H = lin_comb(sol.values(), [cands[j] for j in sol])
    # Y in p with [X, Y] = H (on k's keys) and [H, Y] = -2 Y (on p's)
    sol = _solve([_y_column(X, H, i, j) for i, j in pp], upper(H))
    if sol is None:
        raise ValueError("no opposite nilpotent found")
    Y = lin_comb(sol.values(), [skew_elementary(pair.n, *pp[j]) for j in sol])
    out = NormalTriple(pair, H, X, Y)
    errs = out.validate()
    if errs:
        raise ValueError("triple construction failed: " + "; ".join(errs))
    return out


# ---------------------------------------------------------------------------
# orbit representatives from signed diagrams


# X = [[0, B], [-B^T, 0]], B the p x 2 block on the plus rows and minus
# columns.  Per row, or even pair, of a signature (p,2) diagram: (plus and
# minus coordinates used, block entries (i, j, B_ij) from the next free
# ones).  (3,+): X e_0 = -e_-, X e_- = e_0 + i e_1 and X(e_0 + i e_1) = 0.
_ROW_BLOCKS = {
    ((1, "+"),): (1, 0, ()),
    ((1, "-"),): (0, 1, ()),
    ((3, "+"),): (2, 1, ((0, 0, F1), (1, 0, I_UNIT))),
    ((3, "-"),): (1, 2, ((0, 0, F1), (0, 1, I_UNIT))),
    ((5, "+"),): (3, 2, ((0, 0, F1), (0, 1, I_UNIT), (1, 1, F1),
                         (2, 1, I_UNIT))),
    ((2, "+"), (2, "+")): (2, 2, ((0, 0, F1), (0, 1, I_UNIT),
                                  (1, 0, I_UNIT), (1, 1, -F1))),
}


def nilpotent_from_diagram(pair: MatrixPair, diagram):
    """Representative X in p of the nilpotent orbit of a signed diagram:
    X = [[0, B], [-B^T, 0]], where one `_ROW_BLOCKS` lookup per row, or
    per even pair, writes its block into B at the next free plus and minus
    coordinates.  The numerals are not read: the I and II variants of a
    diagram share one representative.
    """
    rows = iter(diagram.rows)
    B, plus, minus = [], 0, 0
    for row in rows:
        key = (row,) if row[0] % 2 else (row, next(rows, None))
        if key not in _ROW_BLOCKS:
            raise ValueError(f"diagram {diagram}: no block for the rows "
                             f"{key} in signature (p,2)")
        dp, dm, block = _ROW_BLOCKS[key]
        B.extend((plus + i, minus + j, x) for i, j, x in block)
        plus, minus = plus + dp, minus + dm
    # every block uses one coordinate per box, so this checks the size too
    if (plus, minus) != (pair.p, 2):
        raise ValueError(f"diagram {diagram} has signature ({plus},{minus})"
                         f" and size {plus + minus}, not ({pair.p},2)")
    X = zeros(pair.n)
    for i, j, x in B:
        X[i][pair.p + j] = x
        X[pair.p + j][i] = -x
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
            # H - val I, from H's rows with the diagonal shifted
            k = n - linalg.rank({j: x for j, x in {**r, i: r.get(i, 0) - val}
                                 .items() if x} for i, r in enumerate(H))
            eigs.extend([val] * k)
        m += 1
    return orbits.characteristic_of_weights(eigs, None)


# ---------------------------------------------------------------------------
# even-sheet and distinguishedness witnesses


def even_sheet_witness(pair: MatrixPair, t: NormalTriple):
    """Check that X + Y is semisimple with dim p^{X+Y} = dim p^X, X even.

    H in k, [H, X] = 2X and [H, Y] = -2Y (`NormalTriple.validate`), so
    Ad exp(uH) in K maps X + Y to e^{2u}(X + e^{-4u} Y): for lambda != 0,
    X + lambda Y is a nonzero multiple of a K-conjugate of X + Y, with its
    dim p^Z and its semisimplicity (Kostant-Rallis 1971)."""
    cands = characteristic_from_triple(t)
    if not any(orbits.is_even(c) for c in cands):
        raise ValueError("X is not even: characteristic "
                         + "/".join(map(str, cands)))
    Z = mat_add(t.X, t.Y)
    d0, d1 = pair.dim_p_centralizer(t.X), pair.dim_p_centralizer(Z)
    ss = is_semisimple(Z)
    return {"dim_p_X": d0, "dim_p_X_plus_Y": d1, "semisimple": ss,
            "ok": d1 == d0 and ss}


def restricted_root_space(pair: MatrixPair, c1, c2):
    """Elements Z of so_{p+2} with [H_k, Z] = i c_k Z for k = 1, 2: the
    images under phi of the real root space at (-c1, -c2), since
    phi(K_k) = i H_k."""
    return [pair.phi(Z) for Z in real_restricted_root_space(pair, -c1, -c2)]


def real_form_basis(pair: MatrixPair):
    """Basis of so(p,2) in the form-preserving realization
    Z^t J = -J Z: skew in the two diagonal blocks, symmetric corners."""
    n, p = pair.n, pair.p
    basis = pair.k_basis()
    for i in range(p):
        for j in (n - 2, n - 1):
            M = zeros(n)
            M[i][j] = M[j][i] = F1
            basis.append(M)
    return basis


def K(pair: MatrixPair, i):
    """Cartan-subspace element K_i = E_{i,n-i+1} + E_{n-i+1,i} of the
    real form; phi(K_i) = i H_i."""
    if i not in (1, 2):
        raise ValueError("only K_1 and K_2 span the Cartan subspace")
    M = zeros(pair.n)
    M[i - 1][pair.n - i] = M[pair.n - i][i - 1] = F1
    return M


def real_restricted_root_space(pair: MatrixPair, c1, c2):
    """Elements Z of so(p,2) with [K_k, Z] = c_k Z for k = 1, 2."""
    ops = ((K(pair, 1), c1), (K(pair, 2), c2))
    # the two conditions stacked, as rows 0..n-1 and n..2n-1
    return _kernel(real_form_basis(pair), lambda b: entries([
        row for A, c in ops
        for row in lin_comb((F1, -c), (commutator(A, b), b))]))


def minimal_orbit_cayley_triple(pair: MatrixPair) -> CayleyTriple:
    """The Cayley triple of the restricted root e1 - e2, in 1-based
    indices with n = p + 2:

        H0 = K_1 - K_2,
        X0 = (E_{1,2} - E_{2,1} + E_{1,n-1} + E_{n-1,1} + E_{2,n} + E_{n,2}
              - E_{n-1,n} + E_{n,n-1}) / 2,
        Y0 = X0^t.

    X0 spans the root space {Z : [K_1, Z] = Z, [K_2, Z] = -Z}; the Cayley
    transform takes the triple to the minimal orbit (2,2,1^(p-2)), and
    (H0, -X0, -Y0) to its other real orbit.  The sl2 and theta_0
    relations (`CayleyTriple.validate`) and the two K_k eigen-relations
    are checked exactly; a broken one raises with its name.
    """
    n = pair.n
    half = Fraction(1, 2)
    u, v, w, z = 0, 1, n - 2, n - 1    # the coordinates 1, 2, n-1, n
    X0 = zeros(n)
    for i, j, x in ((u, v, half), (v, u, -half), (u, w, half), (w, u, half),
                    (v, z, half), (z, v, half), (w, z, -half), (z, w, half)):
        X0[i][j] = x
    t = CayleyTriple(mat_sub(K(pair, 1), K(pair, 2)), X0, transpose(X0))
    errs = t.validate()
    for k, want, nm in ((1, X0, "X0"), (2, mat_scale(X0, -1), "-X0")):
        if commutator(K(pair, k), X0) != want:
            errs.append(f"[K_{k},X0] != {nm}")
    if errs:
        raise ValueError("not the Cayley triple of e1 - e2: "
                         + "; ".join(errs))
    return t


def _cartan_witness(pair: MatrixPair):
    """i(H_1 + H_2) = phi(K_1 + K_2); K_1 + K_2 kills the root e1 - e2."""
    return lin_comb((I_UNIT, I_UNIT), (pair.H(1), pair.H(2)))


def minimal_orbit_triples(pair: MatrixPair):
    """The normal triples of the two real minimal orbits: the Cayley
    transform (H, X, Y) of `minimal_orbit_cayley_triple` and that of
    (H0, -X0, -Y0), which is (-H, -Y, -X): negating X0 and Y0 negates
    H_S = i(X0 - Y0) and swaps X_S and Y_S up to sign.  Only the first
    passes through `cayley_transform`; the second is left to validate."""
    t = cayley_transform(pair, minimal_orbit_cayley_triple(pair))
    return t, NormalTriple(pair, *(mat_scale(M, -1) for M in (t.H, t.Y, t.X)))


def minimal_orbit_not_distinguished(pair: MatrixPair):
    """Witness that the minimal nilpotent orbit reps are not
    p-distinguished: a nonzero semisimple element of p commuting with
    them.

    The minimal orbit comes from the restricted root e1 - e2 through
    `minimal_orbit_cayley_triple`; the Cartan-subspace element K_1 + K_2
    kills that root, so it centralizes the whole Cayley triple and its
    image i(H_1 + H_2) under phi commutes with the Cayley-transformed
    nilpotent in p.  Returns the exact checks for both real orbits (X0
    and -X0).
    """
    if pair.p < 3:
        raise ValueError("the minimal-orbit witness argument needs p >= 3; "
                         "for p = 2 the (2,2) shape is a different case")
    first, second = minimal_orbit_triples(pair)
    Hw = _cartan_witness(pair)
    hw_checks = {"witness_semisimple": is_semisimple(Hw),
                 "witness_in_p": pair.in_p(Hw),
                 "witness_nonzero": not mat_is_zero(Hw)}
    reports = []
    # `cayley_transform` returns only a triple that validates
    for sign, t, valid in ((1, first, True),
                           (-1, second, not second.validate())):
        reports.append({
            "sign": sign,
            "jordan_type": jordan_type(t.X),
            "triple_valid": valid,
            "witness_commutes": not skew_bracket(Hw, t.X),
            **hw_checks,
        })
    shape = orbits.minimal_shape(pair.p)
    ok = all(r["triple_valid"] and r["jordan_type"] == shape
             and all(v for k, v in r.items() if k.startswith("witness"))
             for r in reports)
    return {"witness": Hw, "reports": reports, "ok": ok}


def lemma_witness_element(pair: MatrixPair):
    """A non-semisimple, non-nilpotent X in p with both Jordan
    components nonzero in p: the Cartan element i(H_1 + H_2), which
    kills the restricted root e1 - e2, plus the commuting minimal
    nilpotent in p, the Cayley transform of
    `minimal_orbit_cayley_triple`."""
    Xs = _cartan_witness(pair)
    Xn = cayley_transform(pair, minimal_orbit_cayley_triple(pair)).X
    return mat_add(Xs, Xn), Xs, Xn


def proportional(A, B):
    """True iff A = c B for some scalar c (B may be zero only if A is)."""
    for ra, rb in zip(A, B):
        for j, x in ra.items():
            y = rb.get(j)
            return y is not None and mat_scale(A, y) == mat_scale(B, x)
    return True


def lemma51_check(pair: MatrixPair, X, trials=20, seed=0):
    """Sampled check that for Y in p^X the semisimple component of Y is
    proportional to that of X."""
    Xs, Xn = jordan_decompose(X)
    if mat_is_zero(Xs) or mat_is_zero(Xn):
        raise ValueError("X must be neither semisimple nor nilpotent")
    for nm, Z in (("semisimple", Xs), ("nilpotent", Xn)):
        if not pair.in_p(Z):
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
