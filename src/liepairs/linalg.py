"""Exact linear algebra over a field (Fraction or QI) plus univariate
polynomial helpers.

One vector format and one elimination core.  A vector is sparse: a
{column: value} dict of its nonzero entries, such as the coefficients of
a Lie element or the entries of a model matrix keyed by (row, column);
any keys that sort will do.  A linear map is the list of the sparse
images of the basis vectors, its columns: `kernel`, `min_poly`, `rank`
and the pencil all take that, and `nullspace` and `kernel` return their
basis as sparse vectors, so a caller combines only the nonzero
coefficients.  Every elimination runs on `_reduce` and
`_insert`, which keep each reduced row sparse, so no field arithmetic is
spent on zeros.  Dense rows remain only at `rref` and `solve`, whose one
caller here is the Krylov step of `min_poly`, and at `det`, whose inputs
are the small square minors of the pencil; `sparse` turns a dense vector
into the sparse format.
Everything is duck-typed over the field operations +, -, *, /, and
truthiness as the zero test, so the same routines serve the rational
and Gaussian-rational cases.  One scalar rule holds throughout: an int
stays an int where that is exact, a rational becomes a Fraction where
it is not, and no result is ever a float.  A reduced row stays int when
its pivot divides each of its int entries, as a pivot of +-1 does on
nearly every row of a Chevalley bracket; any other row is multiplied
by the one inverse of its pivot, a Fraction or a QI.  `min_poly` over
Q leans on the rule: it clears the denominators of the map once and
runs its Krylov and Horner steps on int, which is exact because the
minimal polynomial of an integral map is integral, and rescales the
result back to Q.  It takes a Horner step only for a basis vector that
its neighbours' columns do not already certify: once p(A) kills e_j it
kills A e_j, so when it kills every row of column j but one, it kills
that one too.  A zero column takes no Horner step either: p(A) kills it
exactly when x divides p, so all zero columns are killed in one step
the first time the factor x enters p.  `is_squarefree` over Q runs on
int too, as the primitive pseudo-remainder sequence of p and p' with
the denominators cleared.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, isqrt, lcm

from .gaussian import QI

F0 = Fraction(0)
F1 = Fraction(1)
_RATIONAL = (int, Fraction)


# ---------------------------------------------------------------------------
# sparse elimination: a sparse vector is {column: value} over its nonzero
# entries; a reduced row has value 1 at its pivot column; a row space in
# reduced row echelon form is {pivot column: reduced row}


def sparse(vec):
    """The sparse vector of the dense vector vec."""
    return {c: x for c, x in enumerate(vec) if x}


def _eliminate(vec, pc, row):
    """Subtract vec[pc] * row from vec in place, row having 1 at pc."""
    f = vec.pop(pc)
    for c, b in row.items():
        if c == pc:
            continue
        x = vec.get(c)
        if x is None:
            vec[c] = -f * b
        else:
            x = x - f * b
            if x:
                vec[c] = x
            else:
                del vec[c]


def _reduce(echelon, red):
    """Reduce the fresh sparse vector red modulo the row space, in place;
    returns red, now the remainder."""
    # a reduced row is zero at every other pivot column, so eliminating
    # one pivot never brings back another
    for pc in [c for c in red if c in echelon]:
        _eliminate(red, pc, echelon[pc])
    return red


def _insert(echelon, red):
    """Add a nonzero remainder of `_reduce` to the row space as a new
    reduced row, clearing its pivot column from the other rows.  The row
    stays int where its pivot divides every entry; any other row is
    multiplied by the one inverse F1 / pivot, a Fraction for an int or
    Fraction pivot, so that no entry becomes a float, and a QI for a QI
    pivot, so that Q(i) inverts each pivot once, not once per entry."""
    pc = min(red)
    pv = red[pc]
    if pv == 1:
        row = red
    elif type(pv) is int and all(type(x) is int and not x % pv
                                 for x in red.values()):
        row = {c: x // pv for c, x in red.items()}
    else:
        inv = F1 / pv
        row = {c: x * inv for c, x in red.items()}
    for other in echelon.values():
        if pc in other:
            _eliminate(other, pc, row)
    echelon[pc] = row


def _echelon(fresh_rows):
    """The reduced row space of fresh sparse rows, consumed in place."""
    echelon = {}
    for red in fresh_rows:
        if _reduce(echelon, red):
            _insert(echelon, red)
    return echelon


def rref(mat):
    """Reduced row echelon form of a dense matrix; returns
    (dense rows, pivot_columns)."""
    echelon = _echelon(sparse(vec) for vec in mat)
    out = []
    for pc in sorted(echelon):
        row = echelon[pc]
        dense = [row[pc] * 0] * len(mat[0])
        for c, x in row.items():
            dense[c] = x
        out.append(dense)
    return out, sorted(echelon)


def rank(vectors):
    """Dimension of the span of sparse vectors (not consumed)."""
    return len(_echelon(dict(v) for v in vectors))


def nullspace(rows, ncols):
    """Basis of {x : row . x = 0 for every sparse row}, as sparse vectors:
    one per free column of 0..ncols-1, in column order, with 1 there."""
    echelon = _echelon(dict(row) for row in rows)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in echelon}
    # a reduced row is zero at every other pivot column, so each of its
    # other entries sits in a free column
    for pc, row in echelon.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def kernel(columns):
    """Basis of the coefficient vectors c with sum_j c[j] * columns[j] = 0,
    the columns and the c being sparse vectors."""
    rows = {}
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    return nullspace([rows[i] for i in sorted(rows)], len(columns))


def solve(mat, rhs):
    """One solution x of mat @ x = rhs, or None if inconsistent."""
    if not mat:
        return None if any(rhs) else []
    ncols = len(mat[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][-1]
    return x


def det(mat):
    """Determinant of a dense square matrix.

    Each row's remainder modulo the earlier rows is zero at every earlier
    pivot column, so det = sign(row k -> pivot column of row k) times the
    product of the pivots.
    """
    echelon, pivots, d = {}, [], F1
    for vec in mat:
        red = _reduce(echelon, sparse(vec))
        if not red:
            return F0
        pivots.append(min(red))
        d = d * red[pivots[-1]]
        _insert(echelon, red)
    inversions = sum(a > b for a, b in combinations(pivots, 2))
    return -d if inversions % 2 else d


class Span:
    """Incrementally maintained row space in reduced echelon form.

    Vectors go in and come out as sparse {column: value} dicts; `rows`
    hands back copies of the reduced rows in pivot order.  Inside, each
    reduced row is keyed by its pivot column, so reduction and
    back-substitution touch only nonzero entries.  Truthiness is the zero
    test: an entry is kept only while it is truthy.
    """

    def __init__(self):
        self._echelon = {}      # pivot column -> sparse reduced row

    def contains(self, vec):
        return not _reduce(self._echelon, dict(vec))

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        red = _reduce(self._echelon, dict(vec))
        if not red:
            return False
        _insert(self._echelon, red)
        return True

    @property
    def rows(self):
        """Copies of the reduced rows, in pivot order."""
        return [dict(self._echelon[pc]) for pc in sorted(self._echelon)]

    @property
    def pivots(self):
        return sorted(self._echelon)

    @property
    def dim(self):
        return len(self._echelon)


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, low degree first)


def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_deg(p):
    return len(p) - 1


def poly_add(p, q):
    return poly_trim([a + b for a, b in zip_longest(p, q, fillvalue=F0)])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [p[0] * q[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    quot = [F0] * max(0, len(p) - len(q) + 1)
    inv = F1 / q[-1]
    while len(p) >= len(q) and any(p):
        poly_trim(p)
        if len(p) < len(q):
            break
        c = p[-1] * inv
        s = len(p) - len(q)
        quot[s] = c
        for i in range(len(q)):
            p[s + i] = p[s + i] - c * q[i]
        p.pop()
    return poly_trim(quot), poly_trim(p)


def poly_monic(p):
    if not p:
        return []
    inv = F1 / p[-1]
    return [a * inv for a in p]


def poly_gcd(p, q):
    p, q = list(p), list(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return poly_monic(p)


def poly_deriv(p):
    return poly_trim([p[i] * i for i in range(1, len(p))])


def poly_eval(p, x):
    acc = x * 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_part(p):
    g = poly_gcd(p, poly_deriv(p))
    if poly_deg(g) == 0:
        return poly_monic(p)
    return poly_monic(poly_divmod(p, g)[0])


def is_squarefree(p):
    """Whether p has no repeated root: gcd(p, p') is a nonzero constant.
    The zero polynomial is not squarefree, a nonzero constant is.  Over Q
    the gcd runs on int: p times the lcm of its denominators, then the
    primitive pseudo-remainder sequence of it and its derivative, which
    ends in a nonzero constant exactly when p is squarefree."""
    if not all(type(c) in _RATIONAL for c in p):
        return poly_deg(poly_gcd(p, poly_deriv(p))) == 0
    d = lcm(*(c.denominator for c in p))
    a = poly_trim([c.numerator * (d // c.denominator) for c in p])
    b = _primitive(poly_deriv(a))
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return poly_deg(a) == 0


def _primitive(p):
    """The int polynomial p divided by the gcd of its coefficients."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_rem(a, b):
    """An int multiple of the remainder of a by b, both int polynomials
    with deg a >= deg b >= 0: each step scales the dividend by the leading
    coefficient of b instead of dividing by it."""
    a, lead, db = list(a), b[-1], len(b) - 1
    while len(a) > db:
        c, s = a.pop(), len(a) - db
        a = [x * lead for x in a]
        for k in range(db):
            a[s + k] -= c * b[k]
        poly_trim(a)
    return a


def rational_roots(p):
    """All rational roots of p (Fraction coefficients), with the root-free
    residual factor.  Returns (sorted_roots, residual)."""
    p = poly_trim(list(p))
    if not p:
        raise ValueError("zero polynomial has every root")
    roots = []
    # factor out x = 0
    while not p[0]:
        roots.append(F0)
        p = p[1:]
    if poly_deg(p) >= 1:
        # rational root theorem on the primitive integer multiple of p
        den = lcm(*(c.denominator for c in p))
        ip = [int(c * den) for c in p]
        g = gcd(*ip)

        def divisors(n):
            n = abs(n) // g
            return {d for k in range(1, isqrt(n) + 1) if n % k == 0
                    for d in (k, n // k)}

        cands = sorted({Fraction(s * a, b) for a in divisors(ip[0])
                        for b in divisors(ip[-1]) for s in (1, -1)})
        # each candidate once, divided out as often as it is a root
        for r in cands:
            while poly_deg(p) >= 1 and not poly_eval(p, r):
                roots.append(r)
                p = poly_divmod(p, [-r, F1])[0]
    roots = sorted(set(roots))
    return roots, poly_monic(p)


# ---------------------------------------------------------------------------
# minimal polynomial of a linear operator (Krylov, exact)


def min_poly(columns):
    """Minimal polynomial of the linear map A whose j-th column, the image
    of the j-th basis vector, is the sparse vector columns[j].

    Works by accumulating annihilators of Krylov chains until the candidate
    kills every basis vector, so the result is certified, not probabilistic.
    Over Q (every entry an int or a Fraction) the loop runs on int: with d
    the lcm of the entry denominators, dA is integral, so every Krylov
    vector is integral and so, by Gauss's lemma, is the monic annihilator
    of each (it divides the integral characteristic polynomial of dA);
    m_A(x) = d^-deg * m_dA(d*x) then rescales the result exactly.  The
    coefficients are Fractions over Q and QIs once an entry is a QI, in
    which case the same loop runs on the columns as given.  Either way the
    module's scalar rule holds inside: int stays int where that is exact,
    Fraction otherwise, and nothing is ever a float.  A column entry
    keyed outside 0..n-1 is a ValueError.

    A basis vector that p kills stays killed, as p only gains factors,
    and a killed e_j certifies its column: p(A) A e_j = A p(A) e_j = 0, so
    once p(A) kills every row of column j but one, it kills that one too.
    A worklist propagates this, and only the vectors left get a Horner
    step and, if need be, a Krylov chain.  Each basis vector is killed at
    most once, so the worklist costs O(n + nonzero entries) per call.  The
    result is that of checking every e_i, where a killed e_i adds no factor.

    A zero column, A e_j = 0, needs no Horner step at all: p(A) e_j =
    p(0) e_j, so p kills e_j exactly when x divides p.  The first time
    the factor x enters p, every zero column goes on the worklist at once;
    a zero column met before that adds the factor x, the annihilator of
    p(0) e_j.  An all-int map is used as given, with no rescaled copy.
    """
    n = len(columns)
    stray = set().union(*columns).difference(range(n))
    if stray:
        raise ValueError(f"min_poly: a map on {n} basis vectors has a column "
                         f"entry keyed {stray.pop()!r}, outside 0..{n - 1}")
    entries = [x for col in columns for x in col.values()]
    rational = all(type(x) in _RATIONAL for x in entries)
    d = 1
    if rational and not all(type(x) is int for x in entries):
        d = lcm(*(x.denominator for x in entries))
        columns = [{i: x.numerator * (d // x.denominator)
                    for i, x in col.items()} for col in columns]
    # the worklist's index: rows[i] lists the columns with a nonzero
    # entry in row i; live[j] counts the rows of column j not yet killed
    # and rest[j] sums them, so it names the last one
    rows = [[] for _ in range(n)]
    live, rest = [0] * n, [0] * n
    for j, col in enumerate(columns):
        for i, x in col.items():
            if x:
                rows[i].append(j)
                live[j] += 1
                rest[j] += i
    killed = [False] * n
    zero = [not c for c in live]
    zeros = [j for j in range(n) if zero[j]]
    p = [1]
    for i in range(n):
        if killed[i]:
            continue
        if zero[i]:
            # p(A) e_i = p(0) e_i is not yet zero, so x does not divide p
            p = poly_mul(p, [0, 1])
        else:
            v = _apply_poly(columns, p, i)
            if v:
                p = poly_mul(p, _krylov_annihilator(columns, v))
        todo = [i]
        if zeros and not p[0]:
            # x now divides p, which kills every zero column at once
            todo += zeros
            zeros = []
        while todo:
            k = todo.pop()
            if killed[k]:
                continue
            killed[k] = True
            for j in rows[k]:
                live[j] -= 1
                rest[j] -= k
                if killed[j] and live[j] == 1:
                    todo.append(rest[j])
            if live[k] == 1:
                todo.append(rest[k])
    if not rational:
        return [QI.coerce(c) for c in p]
    deg = len(p) - 1
    return [Fraction(c, d ** (deg - k)) for k, c in enumerate(p)]


def _apply(columns, v):
    """The image of the sparse vector v under the map with these columns."""
    out = {}
    for j, x in v.items():
        for i, c in columns[j].items():
            y = out.get(i)
            out[i] = x * c if y is None else y + x * c
    return {i: y for i, y in out.items() if y}


def _apply_poly(columns, p, i):
    """p(A) e_i by Horner's rule, as a sparse vector."""
    acc = {}
    for c in reversed(p):
        acc = _apply(columns, acc)
        if c:
            x = acc.get(i)
            x = c if x is None else x + c
            if x:
                acc[i] = x
            else:
                del acc[i]
    return acc


def _krylov_annihilator(columns, v):
    """The monic q of least degree with q(A) v = 0.  Its chain runs on
    the entries as given, int staying int where that is exact; a
    coefficient that is an integer comes back as an int, so over an
    integral map and vector (Gauss's lemma) q is all int."""
    n = len(columns)
    span = Span()
    chain = [v]
    span.add(v)
    nxt = v
    # the span grows on every step that does not close the chain, and it
    # has dimension at most n
    for _ in range(n + 1):
        nxt = _apply(columns, nxt)
        if span.contains(nxt):
            break
        span.add(nxt)
        chain.append(nxt)
    else:
        raise ValueError(f"min_poly: the Krylov chain of a map on {n} basis "
                         f"vectors did not close in {n + 1} steps")
    # nxt = sum c_k chain[k], solved on the rows where the chain has
    # support
    support = sorted(set().union(*chain))
    coeffs = solve([[u.get(r, 0) for u in chain] for r in support],
                   [nxt.get(r, 0) for r in support])
    q = [-c for c in coeffs] + [F1]
    return [c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for c in q]


# ---------------------------------------------------------------------------
# pencil rank-drop locus (exact, over Q)


def pencil_locus(A, B):
    """Rank-drop locus of the pencil M(s) = A + s*B over Q, A and B being
    equally long lists of rational sparse columns.

    Returns (generic_rank, drop_points, residual_factors):
      drop_points   -- Fractions s0 with rank(A + s0*B) < generic_rank
      residual_factors -- monic rational polynomials without rational roots
                          whose (complex) roots are also drop points.
    Rank at the point at infinity (the pure-B matrix) is NOT covered here;
    test B separately.
    """
    # a block is the set of columns that share a row, transitively; each
    # column merges the blocks holding its rows
    owner = {}                          # row -> its block (columns, rows)
    for j, (a, b) in enumerate(zip(A, B)):
        cols, rows = block = [j], a.keys() | b.keys()
        for old in {id(owner[i]): owner[i] for i in rows
                    if i in owner}.values():
            cols += old[0]
            rows |= old[1]
        for i in rows:
            owner[i] = block
    blocks = {id(block): block for block in owner.values()}.values()

    generic_rank = 0
    drop_points = set()
    residual = []
    for cols, rows in sorted(blocks, key=lambda block: min(block[1])):
        cols.sort()
        r, pts, res = _block_locus([A[j] for j in cols], [B[j] for j in cols])
        generic_rank += r
        drop_points |= set(pts)
        residual.extend(res)
    return generic_rank, sorted(drop_points), residual


def projective_locus(A, B, nullity):
    """(lines, residual_factors) of the pencil mu*A + lambda*B on sparse
    columns, whose generic kernel must have dimension `nullity`: sorted
    pairs [1:s] for the drop points s of `pencil_locus`, and [0:1] if B
    drops rank."""
    generic, drops, residual = pencil_locus(A, B)
    if generic != len(A) - nullity:
        raise ValueError("pencil is degenerate: generic centralizer "
                         f"dimension is {len(A) - generic}, not {nullity}")
    lines = [(F1, s) for s in drops]
    if rank(B) < generic:
        lines.append((F0, F1))
    return tuple(sorted(lines)), tuple(tuple(f) for f in residual)


def _eval_pencil(A, B, s):
    """The sparse columns of A + s*B; an entry that cancels is dropped."""
    cols = [{i: a.get(i, F0) + s * b.get(i, F0) for i in a.keys() | b.keys()}
            for a, b in zip(A, B)]
    return [{i: x for i, x in col.items() if x} for col in cols]


def _block_locus(A, B):
    """`pencil_locus` of one block of columns."""
    rows = sorted(set().union(*A, *B))
    ncols = len(A)
    bound = min(len(rows), ncols)
    # generic rank: the drop locus has at most `bound` points, so among
    # bound+1 sample points at least one realizes the generic rank
    r = 0
    for k in range(bound + 2):
        r = max(r, rank(_eval_pencil(A, B, Fraction(k))))
        if r == bound:
            break
    if r == 0:
        return 0, [], []
    # gcd of all r x r minors; a point is in the locus iff it kills them all
    g = None
    xs = [Fraction(k) for k in range(r + 1)]
    lagrange = _lagrange_basis(xs)
    for rows_c in combinations(rows, r):
        for cols_c in combinations(range(ncols), r):
            # det of the poly submatrix via interpolation at r+1 points
            minor = []
            for s, term in zip(xs, lagrange):
                y = det([[A[j].get(i, F0) + s * B[j].get(i, F0)
                          for j in cols_c] for i in rows_c])
                if y:
                    minor = poly_add(minor, [a * y for a in term])
            g = minor if g is None else poly_gcd(g, minor)
            if len(g) == 1:         # trimmed, so a nonzero constant
                return r, [], []
    if not g:
        # every r x r minor vanishes identically: cannot happen, r is generic
        raise AssertionError("generic rank inconsistent with minors")
    roots, res = rational_roots(g)
    return r, roots, [res] if poly_deg(res) >= 1 else []


def _lagrange_basis(xs):
    """The polynomials that are 1 at one of the points xs and 0 at the
    others."""
    out = []
    for i, xi in enumerate(xs):
        term, denom = [F1], F1
        for j, xj in enumerate(xs):
            if i != j:
                term = poly_mul(term, [-xj, F1])
                denom *= xi - xj
        out.append([a / denom for a in term])
    return out
