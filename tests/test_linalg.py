"""Exact linear algebra and polynomial kernels over Q and Q(i)."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepairs import linalg
from liepairs.chevalley import build_algebra, lin_comb, minimal_polynomial_ad
from liepairs.gaussian import QI
from liepairs.parabolic import build_parabolic

F = Fraction


def test_rref_rank_nullspace():
    M = [[F(1), F(2), F(3)],
         [F(2), F(4), F(6)],
         [F(1), F(0), F(1)]]
    assert linalg.rank(linalg.sparse(row) for row in M) == 2
    ns = linalg.nullspace([linalg.sparse(row) for row in M], 3)
    assert ns == [{0: F(-1), 1: F(-1), 2: F(1)}]
    v = ns[0]
    for row in M:
        assert sum(row[c] * x for c, x in v.items()) == 0


def test_solve_consistent_and_inconsistent():
    M = [[F(1), F(1)], [F(1), F(-1)]]
    assert linalg.solve(M, [F(3), F(1)]) == [F(2), F(1)]
    M = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(M, [F(1), F(3)]) is None


def test_det():
    M = [[F(2), F(1)], [F(7), F(4)]]
    assert linalg.det(M) == F(1)
    N = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.det(N) == F(0)


def test_rank_over_gaussian_rationals():
    i = QI(0, 1)
    M = [[QI(1), i], [i, QI(-1)]]      # second row = i * first
    assert linalg.rank(linalg.sparse(row) for row in M) == 1
    ns = linalg.nullspace([linalg.sparse(row) for row in M], 2)
    assert len(ns) == 1


@pytest.mark.parametrize("red", [
    {0: 3, 1: 2, 2: -6},
    {0: F(2, 3), 1: 1, 2: F(1, 5)},
    {0: QI(1, 2), 1: F(1, 2), 2: QI(0, -3), 3: 4},
    {0: F(2), 1: QI(1, 1)},
], ids=["int", "Fraction", "QI", "Fraction-pivot-QI-entry"])
def test_insert_scales_a_row_by_one_inverse(red, monkeypatch):
    # the row is the entrywise quotient by its pivot, to the type, and a
    # QI pivot is inverted once for the whole row
    pv = red[0]
    want = {c: x / (F(pv) if type(pv) is int else pv) for c, x in red.items()}
    inverses = []
    inverse = QI.inverse
    monkeypatch.setattr(QI, "inverse",
                        lambda self: inverses.append(self) or inverse(self))
    echelon = {}
    linalg._insert(echelon, dict(red))
    assert echelon == {0: want}
    assert repr(echelon[0]) == repr(want)
    assert inverses == ([pv] if type(pv) is QI else [])


def test_span_incremental():
    sp = linalg.Span()
    assert sp.add({0: F(1), 2: F(1)})
    assert sp.add({1: F(1)})
    assert not sp.add({0: F(1), 1: F(1), 2: F(1)})
    assert sp.dim == 2


def test_poly_arithmetic():
    # (x - 1)(x + 1) = x^2 - 1, low-order-first coefficient lists
    p = linalg.poly_mul([F(-1), F(1)], [F(1), F(1)])
    assert p == [F(-1), F(0), F(1)]
    q, r = linalg.poly_divmod(p, [F(-1), F(1)])
    assert q == [F(1), F(1)] and linalg.poly_trim(r) == []
    assert linalg.poly_gcd(p, [F(-1), F(1)]) == [F(-1), F(1)]
    # an int leading coefficient is inverted as a Fraction, not a float
    monic = linalg.poly_monic([2, 4])
    assert monic == [F(1, 2), F(1)] and {type(a) for a in monic} == {F}
    assert linalg.poly_divmod([1, 0, 2], [0, 2]) == ([F(0), F(1)], [1])


def test_squarefree_part():
    # (x - 2)^3 -> x - 2
    cube = linalg.poly_mul(linalg.poly_mul([F(-2), F(1)], [F(-2), F(1)]),
                           [F(-2), F(1)])
    assert linalg.squarefree_part(cube) == [F(-2), F(1)]
    assert not linalg.is_squarefree(cube)
    assert linalg.is_squarefree([F(-2), F(1)])
    # a nonzero constant is squarefree (min_poly of the map on no basis
    # vectors is [1]); the zero polynomial is not
    for const in ([1], [5], [-3], [F(1)], [F(-2, 3)], [QI(1)], [QI(0, 2)]):
        assert linalg.is_squarefree(const), const
    assert linalg.is_squarefree(linalg.min_poly([]))
    assert not linalg.is_squarefree([])


def test_min_poly_certified():
    # nilpotent Jordan block of size 3 + a semisimple 1: min poly x^3(x-1)...
    # actually lcm(x^3, x - 1)
    M = [[F(0), F(1), F(0), F(0)],
         [F(0), F(0), F(1), F(0)],
         [F(0), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(1)]]
    p = linalg.min_poly([linalg.sparse(c) for c in zip(*M)])
    expect = linalg.poly_monic(
        linalg.poly_mul([F(0), F(0), F(0), F(1)], [F(-1), F(1)]))
    assert p == expect
    # a stored zero is no neighbour: e0 -> e1 -> 0 and e2 -> e2 give
    # x^2 (x - 1), though e2 is a key of column 0 beside the killed e1
    p = linalg.min_poly([{1: F(1), 2: F(0)}, {}, {2: F(1)}])
    assert p == [F(0), F(0), F(-1), F(1)]


def sparse_columns(mat):
    """The sparse columns of a dense matrix."""
    return [linalg.sparse(col) for col in zip(*mat)]


def test_pencil_locus_diagonal():
    # A + sB diagonal (1+s, 1-s, s): rank drops at s = -1, 0, 1
    A = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]]
    B = [[F(1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(1)]]
    generic, drops, residual = linalg.pencil_locus(sparse_columns(A),
                                                   sparse_columns(B))
    assert generic == 3
    assert sorted(drops) == [F(-1), F(0), F(1)]
    assert residual == [] or residual == ()


def test_pencil_locus_rank_deficient_everywhere():
    A = [[F(1), F(0)], [F(0), F(0)]]
    B = [[F(2), F(0)], [F(0), F(0)]]
    generic, drops, residual = linalg.pencil_locus(sparse_columns(A),
                                                   sparse_columns(B))
    assert generic == 1
    assert drops == [F(-1, 2)]


def test_pencil_locus_irrational_drop_points():
    # M(s) = [[s, 2], [1, s]] has det s^2 - 2: no rational drop point, and
    # the residual factor carries the two irrational ones
    A = sparse_columns([[F(0), F(2)], [F(1), F(0)]])
    B = sparse_columns([[F(1), F(0)], [F(0), F(1)]])
    assert linalg.pencil_locus(A, B) == (2, [], [[F(-2), F(0), F(1)]])
    assert linalg.projective_locus(A, B, 0) == ((), ((F(-2), F(0), F(1)),))


def test_pencil_locus_column_joining_two_blocks():
    # the columns (s, 0) and (0, s - 1) are two blocks, dropping rank at
    # s = 0 and s = 1; the column (1, 1) joins them, and no point drops
    A = [{}, {1: F(-1)}, {0: F(1), 1: F(1)}]
    B = [{0: F(1)}, {1: F(1)}, {}]
    assert linalg.pencil_locus(A[:2], B[:2]) == (2, [F(0), F(1)], [])
    assert linalg.pencil_locus(A, B) == (2, [], [])
    assert linalg.projective_locus(A, B, 1) == ((), ())


def test_pencil_locus_all_zero_column():
    # M(s) = [[1 + s, 0]]: the zero column joins no block
    A = [{0: F(1)}, {}]
    B = [{0: F(1)}, {}]
    assert linalg.pencil_locus(A, B) == (1, [F(-1)], [])
    assert linalg.projective_locus(A, B, 1) == (((F(1), F(-1)),), ())


def test_pencil_locus_entry_cancelling_at_a_sample_point():
    # M(s) = [[1 - s, 1], [0, s]] has rank 1 at the samples s = 0 and 1, so
    # the generic-rank search evaluates s = 1, where 1 - s cancels: it is
    # dropped, not kept as a zero pivot
    A = [{0: F(1)}, {0: F(1)}]
    B = [{0: F(-1)}, {1: F(1)}]
    assert linalg._eval_pencil(A, B, F(1)) == [{}, {0: F(1), 1: F(1)}]
    assert linalg.pencil_locus(A, B) == (2, [F(0), F(1)], [])


def test_rational_roots():
    # 2x^2 - 3x + 1 = (2x - 1)(x - 1)
    roots, _ = linalg.rational_roots([F(1), F(-3), F(2)])
    assert sorted(roots) == [F(1, 2), F(1)]
    # x^2 (x - 1)^2 (x^2 + 1): repeated roots are divided out
    p = [F(c) for c in (0, 0, 1, -2, 2, -2, 1)]
    assert linalg.rational_roots(p) == ([F(0), F(1)], [F(1), F(0), F(1)])


# ---------------------------------------------------------------------------
# sparse elimination against a dense reference


def dense_rref(mat):
    """Textbook Gauss-Jordan on dense rows, the reference for `rref`."""
    rows = [list(r) for r in mat]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def dense_nullspace(mat, ncols):
    rows, pivots = dense_rref(mat)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [F(0)] * ncols
        vec[fc] = 1         # an int, as in `linalg.nullspace`
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def dense_solve(mat, rhs):
    if not mat:
        return None if any(rhs) else []
    ncols = len(mat[0])
    rows, pivots = dense_rref([list(r) + [b] for r, b in zip(mat, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[-1]
    return x


def assert_same(got, want):
    """Equal values of the same types, entry by entry."""
    assert got == want
    flat_got = [x for row in got for x in row]
    flat_want = [x for row in want for x in row]
    assert [type(x) for x in flat_got] == [type(x) for x in flat_want]


def assert_same_sparse(got, want):
    """The sparse vectors got store no zero and hold the nonzero entries
    of the dense vectors want, equal and of the same types."""
    assert all(x for vec in got for x in vec.values())
    assert got == [linalg.sparse(vec) for vec in want]
    assert_same([[vec[c] for c in sorted(vec)] for vec in got],
                [[x for x in vec if x] for vec in want])


SCALARS = [0, 0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3)]
fractions_ = st.sampled_from(SCALARS).map(F)
gaussians = st.builds(QI, st.sampled_from(SCALARS), st.sampled_from(SCALARS))


@st.composite
def matrices(draw, entry, max_side=6):
    """Wide, tall and empty shapes; dense, low-rank (a product through a
    thin middle) or with zeroed rows and columns."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    zero = draw(entry) * 0
    kind = draw(st.sampled_from(["dense", "low-rank", "zeroed"]))
    if kind == "low-rank":
        k = draw(st.integers(0, 2))
        a = [[draw(entry) for _ in range(k)] for _ in range(m)]
        b = [[draw(entry) for _ in range(n)] for _ in range(k)]
        return [[sum((a[i][t] * b[t][j] for t in range(k)), zero)
                 for j in range(n)] for i in range(m)]
    mat = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if kind == "zeroed" and m and n:
        dead_rows = draw(st.sets(st.integers(0, m - 1)))
        dead_cols = draw(st.sets(st.integers(0, n - 1)))
        mat = [[zero if i in dead_rows or j in dead_cols else x
                for j, x in enumerate(row)] for i, row in enumerate(mat)]
    return mat


def _fields(draw_matrix):
    return st.one_of(draw_matrix(fractions_), draw_matrix(gaussians))


PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


@PROPERTY
@given(_fields(matrices))
def test_rref_rank_nullspace_match_dense_reference(mat):
    ncols = len(mat[0]) if mat else 0
    rows, pivots = linalg.rref(mat)
    want_rows, want_pivots = dense_rref(mat)
    assert pivots == want_pivots
    assert_same(rows, want_rows)
    vectors = [linalg.sparse(r) for r in mat]
    assert linalg.rank(vectors) == len(want_pivots)
    assert vectors == [linalg.sparse(r) for r in mat]     # not consumed
    basis = linalg.nullspace([linalg.sparse(r) for r in mat], ncols)
    assert_same_sparse(basis, dense_nullspace(mat, ncols))


@PROPERTY
@given(_fields(matrices))
@example([])
@example([[], [], []])
@example([[F(0), F(0)], [F(1), F(2)], [F(0), F(0)]])
def test_kernel_matches_dense_reference(columns):
    k = len(columns)
    basis = linalg.kernel([linalg.sparse(col) for col in columns])
    assert len(basis) == k - len(dense_rref(columns)[1])
    assert_same_sparse(basis,
                       dense_nullspace([list(r) for r in zip(*columns)], k))
    for c in basis:
        total = [x * 0 for x in columns[0]]
        for j, cj in c.items():
            total = [t + cj * x for t, x in zip(total, columns[j])]
        assert not any(total)


@st.composite
def systems(draw, entry):
    mat = draw(matrices(entry))
    rhs = [draw(entry) for _ in mat]
    if mat and draw(st.booleans()):     # a consistent right-hand side
        x = [draw(entry) for _ in mat[0]]
        rhs = [sum((a * b for a, b in zip(row, x)), rhs[0] * 0)
               for row in mat]
    return mat, rhs


@PROPERTY
@given(_fields(systems))
def test_solve_matches_dense_reference(system):
    mat, rhs = system
    x = linalg.solve(mat, rhs)
    want = dense_solve(mat, rhs)
    if want is None:
        assert x is None
    else:
        assert_same([x], [want])
        assert all(sum((a * b for a, b in zip(row, x)), F(0)) == r
                   for row, r in zip(mat, rhs))


@PROPERTY
@given(_fields(matrices))
def test_span_stream_matches_dense_reference(vectors):
    ncols = len(vectors[0]) if vectors else 0
    sp = linalg.Span()
    assert sp.rows == [] and sp.pivots == [] and sp.dim == 0
    for k, dense in enumerate(vectors):
        v = linalg.sparse(dense)
        before = sp.dim
        inside = sp.contains(v)
        assert sp.add(v) == (not inside)
        assert v == linalg.sparse(dense)    # the input is not consumed
        want_rows, want_pivots = dense_rref(vectors[:k + 1])
        assert sp.dim == len(want_pivots) == before + (not inside)
        assert sp.pivots == want_pivots
        assert_same(_dense(sp.rows, ncols), want_rows)
        assert sp.contains(v)


integers_ = st.sampled_from([x for x in SCALARS if type(x) is int])


def _scalars(value):
    """Every scalar inside nested lists, tuples and dicts (their values)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _scalars(v)]
    return [value]


def _eliminations(mat, rhs):
    """What each elimination entry point makes of one system."""
    ncols = len(mat[0]) if mat else 0
    k = min(len(mat), ncols)
    sp = linalg.Span()
    grew = [sp.add(linalg.sparse(r)) for r in mat]
    return {
        "rref": linalg.rref(mat),
        "nullspace": linalg.nullspace([linalg.sparse(r) for r in mat], ncols),
        "kernel": linalg.kernel([linalg.sparse(c) for c in mat]),
        "solve": linalg.solve(mat, rhs),
        "det": linalg.det([row[:k] for row in mat[:k]]),
        "rank": linalg.rank(linalg.sparse(r) for r in mat),
        "span": (grew, sp.rows, sp.pivots, sp.dim),
    }


@PROPERTY
@given(systems(integers_))
@example(([[2, 4], [1, 3]], [2, 1]))
def test_int_input_stays_exact(system):
    # an int row whose pivot does not divide it becomes Fractions, never
    # floats, and every answer is the one over Q
    mat, rhs = system
    got = _eliminations(mat, rhs)
    assert not any(type(x) is float for x in _scalars(got))
    assert got == _eliminations([[F(x) for x in row] for row in mat],
                                [F(x) for x in rhs])
    # a kernel vector holds the int 1 at its free column, its last key,
    # and is all int when the reduced rows are
    int_rows = all(type(x) is int for row in got["rref"][0] for x in row)
    for vec in got["nullspace"]:
        assert type(vec[max(vec)]) is int
        assert not int_rows or all(type(x) is int for x in vec.values())
    for vec in got["kernel"]:
        assert type(vec[max(vec)]) is int


def _dense(rows, ncols):
    """Sparse reduced rows as dense lists, zero-filled in each row's field."""
    out = []
    for row in rows:
        dense = [next(iter(row.values())) * 0] * ncols
        for c, x in row.items():
            dense[c] = x
        out.append(dense)
    return out


def dense_min_poly(mat):
    """Least k with M^k in span(I, ..., M^(k-1)), solved densely; int
    entries are read as Fractions, and the map on no basis vectors has
    minimal polynomial 1."""
    n = len(mat)
    if not n:
        return [F(1)]
    zero = mat[0][0] * 0 + F(0)
    one = zero + 1
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    flats = []
    while True:
        flats.append([x for row in power for x in row])
        power = [[sum((a * power[t][j] for t, a in enumerate(row)), zero)
                  for j in range(n)] for row in mat]
        target = [x for row in power for x in row]
        cols = [list(col) for col in zip(*flats)]
        coeffs = dense_solve(cols, target)
        if coeffs is not None:
            return [-c for c in coeffs] + [F(1)]


@st.composite
def square_matrices(draw, entry):
    n = draw(st.integers(1, 4))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def sparse_matrices(draw, entry):
    """Maps on up to 10 basis vectors with at most 3 entries per column,
    sparse enough that `min_poly` certifies many basis vectors from their
    neighbours' columns."""
    n = draw(st.integers(1, 10))
    zero = draw(entry) * 0
    mat = [[zero] * n for _ in range(n)]
    for j in range(n):
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3,
                               unique=True)):
            mat[i][j] = draw(entry)
    return mat


CYCLE_6 = [[F(i == (j + 1) % 6) for j in range(6)] for i in range(6)]
# a nilpotent 3-block next to a swap
BLOCK_AND_SWAP = [[F(0), F(0), F(0), F(0), F(0)],
                  [F(1), F(0), F(0), F(0), F(0)],
                  [F(0), F(1), F(0), F(0), F(0)],
                  [F(0), F(0), F(0), F(0), F(1)],
                  [F(0), F(0), F(0), F(1), F(0)]]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(_fields(square_matrices), _fields(sparse_matrices),
                 sparse_matrices(st.sampled_from([0, 1, -1, 2, -3]))))
@example(CYCLE_6)
@example(BLOCK_AND_SWAP)
@example([[F(1, 2), F(1, 3), F(0)],      # denominators 2 and 3, so d = 6
          [F(0), F(1, 2), F(-2, 3)],
          [F(1, 3), F(0), F(1, 2)]])
@example([[F(0), F(0)], [F(0), F(0)]])   # the zero map
@example([])                             # no basis vectors
@example([[1, 2, 0], [0, 1, -3], [2, 0, 1]])  # bare int entries
@example([[QI(0), QI(0), F(1), QI(0)],   # nilpotent, Fraction and QI mixed
          [QI(0), QI(0), QI(0, 1), QI(0)],
          [QI(-1), QI(0, -1), QI(0), QI(0)],
          [QI(0), QI(0), QI(0), QI(0)]])
def test_min_poly_matches_dense_reference(mat):
    columns = [linalg.sparse(c) for c in zip(*mat)]
    got = linalg.min_poly(columns)
    assert got == dense_min_poly(mat)
    # the field's own type, never an int or a float: Fraction over Q, QI
    # as soon as one entry is a QI
    gaussian = any(type(x) is QI for col in columns for x in col.values())
    assert all(type(c) is (QI if gaussian else F) for c in got)


def _x_k_maps():
    """The matrices of ad X_K on (sp_6, gl_3)."""
    P = build_parabolic(build_algebra("C", 3), {0, 1})
    assert P.pair_label == "(sp_6, gl_3)"
    return [dense_ad(x) for x in P.cartan_subspace()]


@pytest.mark.parametrize("mats", [lambda: [CYCLE_6],
                                  lambda: [BLOCK_AND_SWAP], _x_k_maps],
                         ids=["6-cycle", "block-and-swap", "ad-X_K-sp6-gl3"])
def test_min_poly_certifies_from_neighbouring_columns(mats, monkeypatch):
    # fewer Horner evaluations than basis vectors: the others are
    # certified by the columns of vectors already killed
    calls = []
    horner = linalg._apply_poly
    monkeypatch.setattr(linalg, "_apply_poly",
                        lambda *args: calls.append(1) or horner(*args))
    for mat in mats():
        calls.clear()
        assert linalg.min_poly(sparse_columns(mat)) == dense_min_poly(mat)
        assert len(calls) < len(mat)


# maps with zero columns, A e_j = 0, given by their sparse columns
ZERO_COLUMN_MAPS = {
    # e0 -> e1 -> 0: the zero column e1 is the image of a nilpotent chain
    "chain-x2": [{1: F(1)}, {}],
    # e0's column holds stored zeros: e1 -> 3 e0 -> 0, e2 -> e2
    "stored-zeros": [{0: F(0), 1: F(0)}, {0: F(3)}, {2: F(1)}],
    # over Q(i): e0 -> i e0, e2 -> 2 e1 -> 0
    "gaussian": [{0: QI(0, 1)}, {}, {1: QI(2)}],
    # the zero column e1 is met before x divides p: e0 -> 2 e0 first
    "zero-before-x": [{0: 2}, {}, {1: 1}],
    # x enters p through the chain e0 -> e1 -> 0, before e3 is met
    "zero-after-x": [{1: 1}, {}, {2: 3}, {}],
    # both: e1 is met before x | p, e3 after it
    "zero-before-and-after-x": [{0: 2}, {}, {3: F(1, 2)}, {}, {0: 1}],
}


def dense_of(columns):
    """The dense matrix with these sparse columns."""
    n = len(columns)
    return [[columns[j].get(i, F(0)) for j in range(n)] for i in range(n)]


def zero_columns(columns):
    return {j for j, col in enumerate(columns) if not any(col.values())}


@pytest.mark.parametrize("name", ZERO_COLUMN_MAPS)
def test_min_poly_with_zero_columns_matches_dense_reference(name):
    columns = ZERO_COLUMN_MAPS[name]
    assert zero_columns(columns)
    got = linalg.min_poly(columns)
    assert got == dense_min_poly(dense_of(columns))
    gaussian = any(type(x) is QI for col in columns for x in col.values())
    assert all(type(c) is (QI if gaussian else F) for c in got)


@pytest.mark.parametrize("mats", [
    lambda: list(ZERO_COLUMN_MAPS.values()),
    lambda: [sparse_columns(m) for m in _x_k_maps()],
    lambda: [sparse_columns(dense_ad(x)) for x in build_parabolic(
        build_algebra("A", 3), {0, 2}).cartan_subspace()],
], ids=["zero-column-maps", "ad-X_K-sp6-gl3", "ad-X_K-sl4"])
def test_min_poly_takes_no_horner_step_on_a_zero_column(mats, monkeypatch):
    # p(A) e_j = p(0) e_j on a zero column: x | p decides it, with no
    # evaluation of p(A)
    steps = []
    horner = linalg._apply_poly
    monkeypatch.setattr(linalg, "_apply_poly",
                        lambda cols, p, i: steps.append(i)
                        or horner(cols, p, i))
    for columns in mats():
        steps.clear()
        assert linalg.min_poly(columns) == dense_min_poly(dense_of(columns))
        assert steps
        assert not zero_columns(columns) & set(steps)


def test_min_poly_rejects_a_key_outside_the_basis():
    with pytest.raises(ValueError, match=r"2 basis vectors .* keyed 5, "
                                         r"outside 0\.\.1"):
        linalg.min_poly([{0: F(1)}, {5: F(1)}])


def test_krylov_chain_is_bounded(monkeypatch):
    # a span that never contains the next vector makes the chain run on
    monkeypatch.setattr(linalg.Span, "contains", lambda self, vec: False)
    with pytest.raises(ValueError, match="3 basis vectors did not close "
                                         "in 4 steps"):
        linalg.min_poly([{1: F(1)}, {2: F(1)}, {0: F(1)}])


@pytest.mark.parametrize("n, degree", [(3, 19), (4, 33), (5, 43), (6, 65)])
def test_min_poly_ad_known_answer_sp_gl(n, degree):
    """In (sp_2n, gl_n), ad of X = sum_K c_K X_K has the distinct values of
    {0, +-2c_i, +-c_i +- c_j} as eigenvalues and is semisimple, so its
    minimal polynomial is the product of the x - lambda; no Krylov chain
    is needed to write it down."""
    P = build_parabolic(build_algebra("C", n), set(range(n - 1)))
    assert P.pair_label == f"(sp_{2 * n}, gl_{n})"
    # c = (1..n) gives every integer in -2n..2n; c_K = K/(K+1) has
    # denominators up to n + 1 (d = 420 at n = 6)
    for c, deg in (([F(k) for k in range(1, n + 1)], 4 * n + 1),
                   ([F(k, k + 1) for k in range(1, n + 1)], degree)):
        eigenvalues = {s * a + t * b for a in c for b in c
                       for s in (1, -1) for t in (1, -1)}
        want = [F(1)]
        for lam in sorted(eigenvalues):
            want = linalg.poly_mul(want, [-lam, F(1)])
        p = minimal_polynomial_ad(lin_comb(c, P.cartan_subspace()))
        assert len(p) - 1 == deg
        assert p == want
        assert all(type(a) is F for a in p)


def leibniz_det(mat):
    """The sum over permutations, the reference for `det`."""
    total = F(0)
    for perm in permutations(range(len(mat))):
        term = F(-1) ** sum(a > b for a, b in combinations(perm, 2))
        for row, j in zip(mat, perm):
            term = term * row[j]
        total = total + term
    return total


@st.composite
def det_inputs(draw, entry):
    """Square matrices, half of them made singular: the last row becomes
    a combination of the others (the zero row when it is the only one)."""
    mat = draw(square_matrices(entry))
    if draw(st.booleans()):
        cs = [draw(entry) for _ in mat[:-1]]
        mat[-1] = [sum((c * row[j] for c, row in zip(cs, mat)), F(0))
                   for j in range(len(mat))]
    return mat


@PROPERTY
@given(_fields(det_inputs))
@example([])
def test_det_matches_leibniz_reference(mat):
    assert linalg.det(mat) == leibniz_det(mat)


def dense_ad(x):
    """The dense matrix of ad x, built straight from `bracket_basis`."""
    alg = x.alg
    n = alg.dimension
    mat = [[F(0)] * n for _ in range(n)]
    for i, c in x.coeffs.items():
        for j in range(n):
            for k, v in alg.bracket_basis(i, j).items():
                mat[k][j] += c * v
    return mat


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.sampled_from(["A", "B", "G2"]),
       st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                min_size=14, max_size=14))
def test_minimal_polynomial_ad_matches_dense_reference(label, coeffs):
    # mostly-zero coefficients give nilpotent and mixed elements too
    alg = build_algebra(label, 2)
    x = lin_comb(coeffs, [alg.basis_element(j) for j in range(alg.dimension)])
    assert minimal_polynomial_ad(x) == dense_min_poly(dense_ad(x))


def test_minimal_polynomial_ad_of_cartan_element():
    P = build_parabolic(build_algebra("C", 3), {0, 1})
    assert P.pair_label == "(sp_6, gl_3)"
    x = lin_comb([1, 2, 3], P.cartan_subspace())
    p = minimal_polynomial_ad(x)
    assert p == dense_min_poly(dense_ad(x))
    assert linalg.is_squarefree(p)


# irreducible quadratics over Q, no two sharing a root
QUADRATICS = [[F(1), F(0), F(1)], [F(-2), F(0), F(1)], [F(1), F(1), F(1)],
              [F(5), F(2), F(1)]]


@st.composite
def factored_polys(draw):
    """A product of powers (x - r)^k and q^k, q an irreducible quadratic,
    times a nonzero scalar, with whether it is squarefree (no factor
    repeated); written over Fraction, as bare ints, or over Q(i)."""
    mult = {}
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            factor = (-draw(st.sampled_from([0, 1, -1, 2, F(1, 2),
                                             F(-2, 3)])), 1)
        else:
            factor = tuple(draw(st.sampled_from(QUADRATICS)))
        mult[factor] = mult.get(factor, 0) + draw(st.integers(1, 3))
    p = [F(1)]
    for factor, k in mult.items():
        for _ in range(k):
            p = linalg.poly_mul(p, [F(c) for c in factor])
    field = draw(st.sampled_from(["fraction", "int", "gaussian"]))
    scale = draw(st.sampled_from([1, -1, 6, F(2, 3), F(-7, 5)]))
    p = [c * scale for c in p]
    if field == "int":
        d = math.lcm(*(c.denominator for c in p))
        p = [int(c * d) for c in p]
    elif field == "gaussian":
        unit = QI(1, draw(st.sampled_from([0, 1, F(-1, 2)])))
        p = [QI(c) * unit for c in p]
    return p, all(k == 1 for k in mult.values())


@PROPERTY
@given(factored_polys())
def test_is_squarefree_matches_euclid(poly):
    p, squarefree = poly
    assert linalg.is_squarefree(p) is squarefree
    assert squarefree == (linalg.poly_deg(
        linalg.poly_gcd(p, linalg.poly_deriv(p))) == 0)
