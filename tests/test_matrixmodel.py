"""Matrix model of (so_{p+2}, so_p x so_2): orbit representatives,
normal triples, Jordan decomposition, Cayley transforms, witnesses."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepairs import linalg, orbits
from liepairs import matrixmodel as mm
from liepairs.centralizer import nonregular_locus
from liepairs.chevalley import build_algebra, centralizer_in
from liepairs.gaussian import QI
from liepairs.parabolic import build_parabolic

F = Fraction


def sp(dense):
    """The model matrix of a dense list of rows."""
    return [linalg.sparse(row) for row in dense]


# test-local helpers: the checks below go through them, and nothing in
# the package needs them


def g_basis(pair):
    n = pair.n
    return [mm.skew_elementary(n, i, j) for i in range(n)
            for j in range(i + 1, n)]


def cartan_point(pair, mu, lam):
    """The Cartan-subspace element i(mu H_1 + lambda H_2)."""
    return mm.lin_comb((QI(0, mu), QI(0, lam)), (pair.H(1), pair.H(2)))


def centralizer_dims(pair, X):
    """(dim g^X, dim k^X, dim p^X) for X in the matrix model."""
    return (len(pair.centralizer_in(X, g_basis(pair))),
            len(pair.centralizer_in(X, pair.k_basis())),
            pair.dim_p_centralizer(X))


def phi_equivariance_check(pair):
    """phi . theta_0 = theta . phi on a basis of the real form."""
    return all(
        pair.phi(mm.mat_scale(mm.transpose(M), -1))
        == pair.theta(pair.phi(M))
        for M in mm.real_form_basis(pair))


def inverse_cayley_transform(t):
    """The embedded real-form triple (phi images) of a normal triple;
    inverse of the Cayley transform, before un-embedding."""
    half, i = F(1, 2), QI(0, 1)
    H0 = mm.mat_scale(mm.mat_sub(t.X, t.Y), -i)
    X0 = mm.lin_comb((half, half, -half * i), (t.X, t.Y, t.H))
    Y0 = mm.lin_comb((half, half, half * i), (t.X, t.Y, t.H))
    return H0, X0, Y0


def nonregular_locus_matrix(pair):
    """Rank-drop lines of the pencil ad(mu H1 + lambda H2) on p, as
    projective pairs (mu, lambda); the matrix-model analogue of the
    root-space locus, usable for the so_4 case too.  H_1 and H_2 are
    rational, so the pencil is too."""
    A, B = ([mm.entries(mm.commutator(X, b)) for b in pair.p_basis()]
            for X in (pair.H(1), pair.H(2)))
    return linalg.projective_locus(A, B, 2)


# -- the sparse helpers against a dense reference ---------------------------

SCALARS = (
    [F(0)] * 5 + [F(1), F(-1), F(2), F(1, 3)],
    [QI(0)] * 5 + [QI(1), QI(-1), QI(0, 1), QI(F(1, 2), -1)],
)


def draw_scalars(draw):
    """Mostly-zero scalars over Q, Q(i) or both mixed."""
    pools = draw(st.sampled_from([SCALARS[:1], SCALARS[1:], SCALARS]))
    return st.sampled_from([x for pool in pools for x in pool])


@st.composite
def model_operands(draw):
    """(A, B, C, (a, b)): dense n x n matrices over Q, Q(i) or both mixed,
    mostly zero, C invertible, and two scalars."""
    scalar = draw_scalars(draw)
    n = draw(st.integers(1, 4))

    def matrix(keep=lambda i, j: True, diag=None):
        return [[diag if i == j and diag is not None
                 else draw(scalar) if keep(i, j) else F(0)
                 for j in range(n)] for i in range(n)]

    A, B = matrix(), matrix()
    # unit lower times unit upper triangular, rows permuted
    C = dense_mul(matrix(lambda i, j: i > j, F(1)),
                  matrix(lambda i, j: i < j, F(1)))
    C = [C[i] for i in draw(st.permutations(range(n)))]
    return A, B, C, (draw(scalar), draw(scalar))


def dense(M):
    return [[row.get(j, F(0)) for j in range(len(M))] for row in M]


def dense_mul(A, B):
    return [[sum((x * B[t][j] for t, x in enumerate(row)), F(0))
             for j in range(len(B[0]))] for row in A]


def dense_lin_comb(coeffs, mats):
    return [[sum((c * M[i][j] for c, M in zip(coeffs, mats)), F(0))
             for j in range(len(mats[0]))] for i in range(len(mats[0]))]


def no_stored_zero(M):
    return all(x for row in M for x in row.values())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(model_operands())
@example(([[F(1), F(1)], [F(1), F(1)]], [[F(1), F(-1)], [F(-1), F(1)]],
          [[F(1), F(0)], [F(0), F(1)]], (F(1), F(-1))))
def test_sparse_helpers_match_dense_reference(ops):
    A, B, C, (a, b) = ops
    n = len(A)
    sA, sB, sC = sp(A), sp(B), sp(C)
    one = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    AB, BA = dense_mul(A, B), dense_mul(B, A)
    checks = [
        (mm.mat_mul(sA, sB), AB),
        (mm.commutator(sA, sB), dense_lin_comb((1, -1), (AB, BA))),
        (mm.transpose(sA), [list(col) for col in zip(*A)]),
        (mm.lin_comb((a, b), (sA, sB)), dense_lin_comb((a, b), (A, B))),
        # the third term cancels the first
        (mm.lin_comb((a, b, -a), (sA, sB, sA)), dense_lin_comb((b,), (B,))),
        (mm.mat_sub(sA, sA), dense_lin_comb((0,), (A,))),
        (mm.mat_add(sA, mm.mat_scale(sB, b)), dense_lin_comb((1, b), (A, B))),
    ]
    inverse = mm.mat_inverse(sC)
    checks.append((mm.mat_mul(sC, inverse), one))
    for got, want in checks:
        assert dense(got) == want
        assert no_stored_zero(got)
        assert mm.mat_is_zero(got) == (not any(x for row in want for x in row))
        assert got == sp(want)
    assert no_stored_zero(inverse)
    want = {(i, j): x for i, row in enumerate(A) for j, x in enumerate(row)
            if x}
    assert mm.entries(sA) == want
    assert sorted(want) == sorted(want, key=lambda k: k[0] * n + k[1])
    assert linalg.rank(sA) == len(linalg.rref(A)[1])
    if linalg.det(A):
        assert dense(mm.mat_mul(sA, mm.mat_inverse(sA))) == one
    else:
        with pytest.raises(ValueError, match="singular"):
            mm.mat_inverse(sA)


@st.composite
def square_matrix(draw, n):
    """A dense n x n matrix over Q, Q(i) or both mixed, mostly zero."""
    scalar = draw_scalars(draw)
    return [[draw(scalar) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(2, 8))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_bracket_skew_matches_two_products(n, data):
    """The closed form [X, E_ij - E_ji] equals the two-product formula
    for every ordered i != j, and stores no zero."""
    X = sp(data.draw(square_matrix(n)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = mm.skew_elementary(n, i, j)
            got = mm.bracket_skew(X, i, j)
            assert got == mm.mat_sub(mm.mat_mul(X, b), mm.mat_mul(b, X))
            assert no_stored_zero(got)
            # [b, b] = 0: every entry of rows i and j cancels
            assert not any(mm.bracket_skew(b, i, j))


@pytest.mark.parametrize("p", range(2, 7))
def test_upper_bracket_skew_matches_upper_of_the_bracket(p):
    # read off rows i and j of a skew A, for every ordered i != j, to the type
    pair = mm.build_pair(p)
    rng = random.Random(p)
    g = g_basis(pair)
    n = pair.n
    for _ in range(6):
        A = sparse_qi_element(rng, g)
        for i in range(n):
            for j in range(n):
                if i != j:
                    want = mm.upper(mm.bracket_skew(A, i, j))
                    got = mm.upper_bracket_skew(A, i, j)
                    assert got == want and repr(sorted(got.items())) == repr(
                        sorted(want.items())), (p, i, j)


def test_pair_dimensions():
    for p in (2, 3, 5):
        pair = mm.build_pair(p)
        n = p + 2
        assert len(g_basis(pair)) == n * (n - 1) // 2
        assert len(pair.p_basis()) == 2 * p
        assert len(pair.k_basis()) == p * (p - 1) // 2 + 1


def test_model_units_are_ints():
    # the unit is the int 1: no basis or diagram block holds a Fraction
    for p in (2, 3, 5):
        pair = mm.build_pair(p)
        mats = (pair.k_basis() + pair.p_basis() + mm.real_form_basis(pair)
                + [pair.H(1), pair.H(2), mm.K(pair, 1), mm.K(pair, 2),
                   mm.eye(pair.n)]
                + [mm.nilpotent_from_diagram(pair, d)
                   for d in orbits.enumerate_dyo(p)])
        assert {type(x) for M in mats for row in M
                for x in row.values()} == {int, QI}


def test_theta_is_involution_splitting():
    pair = mm.build_pair(3)
    for b in pair.k_basis():
        assert pair.theta(b) == b
    for b in pair.p_basis():
        assert mm.mat_is_zero(mm.mat_add(pair.theta(b), b))
    # theta is conjugation by J = diag(I_3, -I_2)
    J = mm.eye(5)
    J[3][3] = J[4][4] = -F(1)
    X = sp([[QI(i - j, i * j) for j in range(5)] for i in range(5)])
    assert pair.theta(X) == mm.mat_mul(J, mm.mat_mul(X, J))


def test_in_k_and_in_p():
    pair = mm.build_pair(3)
    k, p = pair.k_basis(), pair.p_basis()
    assert all(pair.in_k(b) and not pair.in_p(b) for b in k)
    assert all(pair.in_p(b) and not pair.in_k(b) for b in p)
    # 0 lies in both; a sum across the grading in neither
    assert pair.in_k(mm.zeros(5)) and pair.in_p(mm.zeros(5))
    mixed = mm.mat_add(k[0], p[0])
    assert not pair.in_k(mixed) and not pair.in_p(mixed)


def test_in_k_and_in_p_require_skewness():
    # k and p are subspaces of so_{p+2}: a matrix with the right block
    # pattern lies in neither unless it is skew
    pair = mm.build_pair(3)
    D = mm.zeros(5)
    D[0][0] = 1
    S = mm.zeros(5)
    S[0][3] = S[3][0] = 1
    assert pair.theta(D) == D and not pair.in_k(D) and not pair.in_p(D)
    assert mm.mat_is_zero(mm.mat_add(pair.theta(S), S))
    assert not pair.in_p(S) and not pair.in_k(S)
    assert not pair.in_p(off_block_unit(pair))
    # so a non-skew H fails a triple's k check
    t = mm.normal_triple_for(pair, mm.nilpotent_from_diagram(
        pair, orbits.enumerate_dyo(3)[0]))
    assert "H not in k" in mm.NormalTriple(pair, D, t.X, t.Y).validate()


def test_phi_equivariance():
    for p in (2, 4):
        assert phi_equivariance_check(mm.build_pair(p))


def test_phi_lands_in_skew_matrices():
    pair = mm.build_pair(3)
    for b in mm.real_form_basis(pair):
        assert mm.is_skew(pair.phi(b))


def test_phi_of_K_is_iH():
    pair = mm.build_pair(4)
    for i in (1, 2):
        expect = mm.mat_scale(pair.H(i), QI(0, 1))
        assert pair.phi(mm.K(pair, i)) == expect


def test_jordan_decompose_trivial_cases():
    N = sp([[F(0), F(1)], [F(0), F(0)]])
    S, Nn = mm.jordan_decompose(N)
    assert mm.mat_is_zero(S) and Nn == N
    D = sp([[F(2), F(0)], [F(0), F(5)]])
    S, Nn = mm.jordan_decompose(D)
    assert S == D and mm.mat_is_zero(Nn)
    R = sp([[F(0), F(1)], [F(1), F(0)]])      # minimal polynomial x^2 - 1
    assert mm.is_nilpotent(N)
    assert not mm.is_nilpotent(D) and not mm.is_nilpotent(R)


def test_jordan_decompose_block_plus_scalar():
    # 2x2 Jordan block at 1, plus scalar 3
    M = sp([[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(3)]])
    S, N = mm.jordan_decompose(M)
    assert S == sp([[F(1), F(0), F(0)],
                    [F(0), F(1), F(0)],
                    [F(0), F(0), F(3)]])
    assert N[0][1] == QI(1)
    assert mm.mat_mul(S, N) == mm.mat_mul(N, S)
    assert mm.is_semisimple(S) and mm.is_nilpotent(N)


@st.composite
def p_elements(draw):
    """(pair, M): M in p of the pair for p = 2..4, small QI coefficients."""
    pair = mm.build_pair(draw(st.integers(2, 4)))
    small = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)])
    coeffs = [QI(draw(small), draw(small)) for _ in pair.p_basis()]
    return pair, mm.lin_comb(coeffs, pair.p_basis())


WITNESS_PAIR = mm.build_pair(4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p_elements())
# both Jordan components nonzero
@example((WITNESS_PAIR, mm.lemma_witness_element(WITNESS_PAIR)[0]))
def test_jordan_decompose_property(drawn):
    pair, M = drawn
    S, N = mm.jordan_decompose(M)
    assert mm.mat_add(S, N) == M
    assert mm.mat_is_zero(mm.commutator(S, N))
    assert mm.is_semisimple(S) and mm.is_nilpotent(N)
    assert pair.in_p(S) and pair.in_p(N)


def test_jordan_type():
    M = mm.zeros(5)
    M[1][0] = F(1)
    M[2][1] = F(1)
    M[4][3] = F(1)
    assert mm.jordan_type(M) == (3, 2)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError,
                       match=r"2x2 matrix is not nilpotent.*\[2, 1, 1\]"):
        mm.jordan_type(sp([[F(1), F(0)], [F(0), F(0)]]))


def test_characteristic_names_non_integer_eigenvalues():
    H = sp([[F(1, 2), F(0)], [F(0), F(-2)]])
    with pytest.raises(ValueError, match=r"2x2 H .* up to 16 .* \[-2\]"):
        mm.characteristic_from_triple(SimpleNamespace(H=H))


def test_jordan_decompose_newton_is_bounded(monkeypatch):
    # a wrong inverse of f'(S) = 1 makes the Newton step S -> 2 - S,
    # which cycles between the Jordan block and its reflection
    monkeypatch.setattr(mm, "mat_inverse", lambda a: mm.eye(len(a), 2))
    with pytest.raises(ValueError, match=r"2x2 matrix .* after 1 steps"):
        mm.jordan_decompose(sp([[F(1), F(1)], [F(0), F(1)]]))


@pytest.mark.parametrize("p", range(2, 65))
def test_diagram_representatives(p):
    pair = mm.build_pair(p)
    for d in orbits.enumerate_dyo(p):
        X = mm.nilpotent_from_diagram(pair, d)
        assert mm.is_skew(X)
        assert mm.jordan_type(X) == d.shape
        assert pair.in_p(X)
        # the box signs: ker X^k splits between V+ and V- as the last k
        # boxes of the rows do, for every k up to the longest row
        Xk, k = X, 1
        while not mm.mat_is_zero(Xk):
            assert pair.kernel_signs(Xk) == d.kernel_signs(k), (d, k)
            Xk, k = mm.mat_mul(Xk, X), k + 1


def test_row_blocks_cover_exactly_the_enumerated_rows():
    rows = {r for p in range(2, 65) for d in orbits.enumerate_dyo(p)
            for r in d.rows}
    assert rows == {r for key in mm._ROW_BLOCKS for r in key}


@pytest.mark.parametrize("rows, match", [
    # a pair of (4,+) rows holds four - boxes: no block
    (((4, "+"), (4, "+")), r"no block for the rows \(\(4, '\+'\), "
                           r"\(4, '\+'\)\)"),
    (((3, "+"), (1, "+"), (1, "+")), r"size 5, not \(4,2\)"),
    (((3, "+"), (1, "+"), (1, "+"), (1, "+"), (1, "+")),
     r"size 7, not \(4,2\)"),
    (((3, "-"), (1, "+"), (1, "+"), (1, "-")),
     r"signature \(3,3\) and size 6, not \(4,2\)"),
], ids=["4+4+", "size-5", "size-7", "signature-3-3"])
def test_nilpotent_from_diagram_rejects(rows, match):
    with pytest.raises(ValueError, match=match):
        mm.nilpotent_from_diagram(mm.build_pair(4),
                                  orbits.SignedYoungDiagram(rows))


@pytest.mark.parametrize("p", [3, 4])
def test_normal_triples_and_characteristics(p):
    pair = mm.build_pair(p)
    for d in orbits.enumerate_dyo(p):
        X = mm.nilpotent_from_diagram(pair, d)
        if mm.mat_is_zero(X):
            continue
        t = mm.normal_triple_for(pair, X)
        assert t.validate() == []
        c = mm.characteristic_from_triple(t)
        cd = orbits.characteristic(orbits.forget_signs(d))
        assert set(c) & set(cd), (d, c, cd)


def off_block_unit(pair):
    """E_{0,p}: theta(M) = -M and M^2 = 0, but M is not skew."""
    M = mm.zeros(pair.n)
    M[0][pair.p] = F(1)
    return M


def test_normal_triple_rejects_bad_input():
    pair = mm.build_pair(3)
    with pytest.raises(ValueError, match="^X must be nonzero$"):
        mm.normal_triple_for(pair, mm.zeros(5))
    with pytest.raises(ValueError, match="^X must be nilpotent$"):
        # semisimple element of p
        mm.normal_triple_for(pair, cartan_point(pair, 1, 0))
    with pytest.raises(ValueError, match="^X must lie in p$"):
        # an element of k
        M = mm.zeros(5)
        M[0][1] = F(1)
        M[1][0] = F(-1)
        mm.normal_triple_for(pair, M)
    with pytest.raises(ValueError, match="^X must lie in p$"):
        # off-diagonal blocks only, so theta(M) = -M, but not skew
        mm.normal_triple_for(pair, off_block_unit(pair))
    with pytest.raises(ValueError, match="^X must be nilpotent$"):
        # neither semisimple nor nilpotent
        mm.normal_triple_for(pair, mm.lemma_witness_element(pair)[0])


def gram_certifies_nilpotent(pair, X):
    """The verdict of `normal_triple_for`'s Gram-block nilpotency guard on
    a nonzero X in p."""
    try:
        mm.normal_triple_for(pair, X)
    except ValueError as e:
        if str(e) == "X must be nilpotent":
            return False
        raise
    return True


def sparse_qi_element(rng, basis):
    """A seeded, mostly-zero Q(i) combination of the basis."""
    pool = [0, 0, 0, 1, -1, QI(0, 1), QI(0, -1), QI(1, 2)]
    return mm.lin_comb([QI.coerce(rng.choice(pool)) for _ in basis], basis)


def test_gram_certificate_agrees_with_min_poly():
    rng = random.Random(32)
    drawn = []
    for p in range(2, 13):
        pair = mm.build_pair(p)
        pb = pair.p_basis()
        # B = [[1, 0], [0, i]]: tr G = 0 but det G = -1
        fixed = [mm.lin_comb((1, 0, 0, QI(0, 1)), pb[:4])]
        fixed += [mm.nilpotent_from_diagram(pair, d)
                  for d in orbits.enumerate_dyo(p)]
        # every p basis element, and those of B's first column only, whose
        # element is nilpotent when that column is isotropic
        random_ = [sparse_qi_element(rng, basis)
                   for basis in (pb, pb[::2]) for _ in range(8)]
        for k, X in enumerate(fixed + random_):
            if mm.mat_is_zero(X):
                continue
            verdict = mm.is_nilpotent(X)
            assert gram_certifies_nilpotent(pair, X) == verdict, (p, X)
            if k >= len(fixed):
                drawn.append(verdict)
    # the random elements reach both verdicts
    assert set(drawn) == {True, False}


def full_entries_triple(pair, X):
    """(H, Y) from the two solves of `normal_triple_for` run on all n^2
    `entries` of every column, the Y system's two conditions stacked as
    rows 0..n-1 and n..2n-1: the reference that `upper` halves."""
    def solve(columns, rhs):
        # the kernel vector of (columns | -rhs) that is 1 at the last column
        sol = linalg.kernel(columns + [{k: -x for k, x in rhs.items()}])
        assert sol and len(columns) in sol[-1]
        del sol[-1][len(columns)]
        return sol[-1]

    pp, pb = pair.p_pairs(), pair.p_basis()
    cands = [mm.bracket_skew(X, i, j) for i, j in pp]
    sol = solve([mm.entries(mm.commutator(c, X)) for c in cands],
                mm.entries(mm.mat_scale(X, 2)))
    H = mm.lin_comb(sol.values(), [cands[j] for j in sol])
    sol = solve([mm.entries(c + mm.lin_comb((F(1), 2),
                                            (mm.bracket_skew(H, i, j), b)))
                 for c, (i, j), b in zip(cands, pp, pb)], mm.entries(H))
    return H, mm.lin_comb(sol.values(), [pb[j] for j in sol])


@pytest.mark.parametrize("p", range(2, 13))
def test_normal_triple_matches_the_full_entries_solve(p):
    # one row space, so one reduced echelon form and one particular
    # solution: the upper-keyed solves give the same H and Y, to the type
    pair = mm.build_pair(p)
    for d in orbits.enumerate_dyo(p):
        X = mm.nilpotent_from_diagram(pair, d)
        if mm.mat_is_zero(X):
            continue
        t = mm.normal_triple_for(pair, X)
        want = full_entries_triple(pair, X)
        assert (t.H, t.Y) == want, d
        assert repr((t.H, t.Y)) == repr(want), d


@pytest.mark.parametrize("p", range(2, 7))
def test_y_column_matches_the_matrix_sum(p):
    # the Y-solve's column [X, p_j] + [H, p_j] + 2 p_j read on `upper` keys
    # with no matrix built, to the type, also where X and H share entries
    pair = mm.build_pair(p)
    rng = random.Random(p)
    g = g_basis(pair)
    for _ in range(6):
        X, H = (sparse_qi_element(rng, g) for _ in range(2))
        for A, B in ((X, H), (X, mm.mat_scale(X, -1)), (H, X)):
            for (i, j), b in zip(pair.p_pairs(), pair.p_basis()):
                want = mm.upper(mm.lin_comb(
                    (1, 1, 2), (mm.bracket_skew(A, i, j),
                                mm.bracket_skew(B, i, j), b)))
                got = mm._y_column(A, B, i, j)
                assert got == want and repr(sorted(got.items())) == repr(
                    sorted(want.items())), (p, i, j)


def full_rank(brackets):
    """Rank of the brackets on all n^2 `entries`."""
    return linalg.rank(mm.entries(B) for B in brackets)


def full_centralizer(X, basis):
    """{Y in span(basis) : [X, Y] = 0} from the kernel of the brackets
    [X, b] on all n^2 `entries`."""
    columns = [mm.entries(mm.commutator(X, b)) for b in basis]
    return [mm.lin_comb(sol.values(), [basis[j] for j in sol])
            for sol in linalg.kernel(columns)]


@pytest.mark.parametrize("p", range(2, 7))
def test_upper_keyed_kernels_match_the_full_entries(p):
    pair = mm.build_pair(p)
    rng = random.Random(p)
    pb, kb = pair.p_basis(), pair.k_basis()
    samples = [mm.nilpotent_from_diagram(pair, d)
               for d in orbits.enumerate_dyo(p)]
    samples += [sparse_qi_element(rng, basis)
                for basis in (pb, g_basis(pair)) for _ in range(4)]
    for X in samples:
        assert pair.dim_p_centralizer(X) == len(pb) - full_rank(
            mm.commutator(X, b) for b in pb)
        assert pair.dim_bracket_k(X) == full_rank(
            mm.commutator(X, b) for b in kb)
        for basis in (pb, kb):
            assert pair.centralizer_in(X, basis) == full_centralizer(
                X, basis)


@pytest.mark.parametrize("p", range(2, 7))
def test_skew_bracket_is_the_upper_commutator(p):
    pair = mm.build_pair(p)
    rng = random.Random(p)
    kb, pb, gb = pair.k_basis(), pair.p_basis(), g_basis(pair)
    pairs = [(k, q) for k in kb for q in pb]
    pairs += [(sparse_qi_element(rng, gb), sparse_qi_element(rng, gb))
              for _ in range(12)]
    for a, b in pairs:
        got = mm.skew_bracket(a, b)
        assert got == mm.upper(mm.commutator(a, b))
        assert all(got.values())
        assert mm.skew_bracket(a, a) == {}


def full_sl2_errors(H, X, Y):
    """The sl2 relations that (H, X, Y) breaks, from full commutators: the
    reference for the `upper`-keyed checks of skew triples."""
    return [msg for got, want, msg in (
        (mm.commutator(H, X), mm.mat_scale(X, 2), "[H,X] != 2 X"),
        (mm.commutator(H, Y), mm.mat_scale(Y, -2), "[H,Y] != -2 Y"),
        (mm.commutator(X, Y), H, "[X,Y] != H")) if got != want]


def sl2_perturbations(t):
    """The triple and its skew perturbations (2H, X, Y), (H, X, -Y) and
    (H, 2X, Y), each breaking at least one sl2 relation."""
    H, X, Y = t.H, t.X, t.Y
    return [(H, X, Y), (mm.mat_scale(H, 2), X, Y),
            (H, X, mm.mat_scale(Y, -1)), (H, mm.mat_scale(X, 2), Y)]


@pytest.mark.parametrize("p", range(2, 9))
def test_upper_validate_matches_the_full_commutators(p):
    pair = mm.build_pair(p)
    seen = set()
    for d in orbits.enumerate_dyo(p):
        X = mm.nilpotent_from_diagram(pair, d)
        if mm.mat_is_zero(X):
            continue
        for k, (H, X1, Y) in enumerate(
                sl2_perturbations(mm.normal_triple_for(pair, X))):
            errs = mm.NormalTriple(pair, H, X1, Y).validate()
            assert errs == full_sl2_errors(H, X1, Y), (d, k)
            assert bool(errs) == bool(k), (d, k)
            seen.update(errs)
    assert seen == {"[H,X] != 2 X", "[H,Y] != -2 Y", "[X,Y] != H"}


def test_validate_falls_back_to_full_commutators_for_a_non_skew_member():
    pair = mm.build_pair(3)
    t = mm.normal_triple_for(pair, mm.nilpotent_from_diagram(
        pair, orbits.enumerate_dyo(3)[0]))
    M = off_block_unit(pair)
    for H, X, Y in ((t.H, M, t.Y), (t.H, t.X, mm.mat_add(t.Y, M))):
        errs = mm.NormalTriple(pair, H, X, Y).validate()
        assert errs[:-1] == full_sl2_errors(H, X, Y)
        assert errs[-1].endswith("not in p")


@pytest.mark.parametrize("method", ["dim_p_centralizer", "dim_bracket_k"])
def test_dims_reject_a_non_skew_X(method):
    pair = mm.build_pair(3)
    with pytest.raises(ValueError, match=rf"^{method}: X is not skew$"):
        getattr(pair, method)(off_block_unit(pair))


def test_centralizer_in_rejects_a_non_skew_input():
    pair = mm.build_pair(3)
    pb, M = pair.p_basis(), off_block_unit(pair)
    with pytest.raises(ValueError, match=r"^centralizer_in: X is not skew$"):
        pair.centralizer_in(M, pb)
    with pytest.raises(ValueError,
                       match=r"^centralizer_in: basis\[2\] is not skew$"):
        pair.centralizer_in(pb[0], pb[:2] + [M] + pb[2:])


def test_minimal_orbit_cayley_triple():
    pair = mm.build_pair(4)
    t = mm.minimal_orbit_cayley_triple(pair)
    assert t.validate() == []
    nt = mm.cayley_transform(pair, t)
    assert nt.validate() == []
    # round trip back to the embedded real-form triple
    H0, X0, Y0 = inverse_cayley_transform(nt)
    assert H0 == pair.phi(t.H0)
    assert X0 == pair.phi(t.X0)
    assert Y0 == pair.phi(t.Y0)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_minimal_orbit_not_distinguished(p):
    rep = mm.minimal_orbit_not_distinguished(mm.build_pair(p))
    assert rep["ok"], rep


def test_second_minimal_orbit_triple_is_the_cayley_transform():
    # the Cayley transform of (H0, -X0, -Y0) is (-H, -Y, -X) of the first
    # orbit's triple
    for p in range(3, 13):
        pair = mm.build_pair(p)
        t0 = mm.minimal_orbit_cayley_triple(pair)
        first, second = mm.minimal_orbit_triples(pair)
        assert first == mm.cayley_transform(pair, t0), p
        assert second == mm.cayley_transform(pair, mm.CayleyTriple(
            t0.H0, mm.mat_scale(t0.X0, -1), mm.mat_scale(t0.Y0, -1))), p
        assert second.validate() == [], p


def test_cayley_transform_rejects_a_non_cayley_triple():
    pair = mm.build_pair(4)
    t0 = mm.minimal_orbit_cayley_triple(pair)
    with pytest.raises(ValueError, match=r"^not a Cayley triple: .*X0"):
        mm.cayley_transform(pair, mm.CayleyTriple(
            t0.H0, mm.mat_scale(t0.X0, 2), t0.Y0))


def test_minimal_orbit_witness_validates_each_triple_once(monkeypatch):
    # the first triple is validated inside `cayley_transform`, the second
    # once as a normal triple, and no Cayley triple but the first
    seen = {"cayley": 0, "normal": 0}
    for cls, name in ((mm.CayleyTriple, "cayley"), (mm.NormalTriple, "normal")):
        def counted(self, _v=cls.validate, _n=name):
            seen[_n] += 1
            return _v(self)
        monkeypatch.setattr(cls, "validate", counted)
    assert mm.minimal_orbit_not_distinguished(mm.build_pair(5))["ok"]
    # one Cayley check in `minimal_orbit_cayley_triple`, one in the transform
    assert seen == {"cayley": 2, "normal": 2}


def test_minimal_orbit_triple_spans_the_root_space():
    # the kernel search the explicit triple replaced is the oracle: the
    # root space of e1 - e2 is a line, and X0 is a rational multiple of
    # its one vector
    for p in range(3, 11):
        pair = mm.build_pair(p)
        space = mm.real_restricted_root_space(pair, 1, -1)
        assert len(space) == 1, p
        X0 = mm.minimal_orbit_cayley_triple(pair).X0
        (i, j), x = next(iter(mm.entries(space[0]).items()))
        c = X0[i].get(j, F(0)) / x
        assert type(c) is Fraction and c, p
        assert X0 == mm.mat_scale(space[0], c), p


def test_minimal_orbit_triple_names_a_broken_relation(monkeypatch):
    # K_1 and K_2 swapped: the triple still validates, but X0 is then a
    # root vector of e2 - e1
    K = mm.K
    monkeypatch.setattr(mm, "K", lambda pair, i: K(pair, 3 - i))
    with pytest.raises(ValueError,
                       match=r"\[H0,X0\] != 2 X0.*\[K_1,X0\] != X0; "
                             r"\[K_2,X0\] != -X0"):
        mm.minimal_orbit_cayley_triple(mm.build_pair(3))


def test_minimal_orbit_witnesses_run_no_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("real_restricted_root_space was called")
    monkeypatch.setattr(mm, "real_restricted_root_space", no_search)
    for p in (3, 4, 7):
        pair = mm.build_pair(p)
        assert mm.minimal_orbit_not_distinguished(pair)["ok"], p
        X, _, _ = mm.lemma_witness_element(pair)
        assert mm.lemma51_check(pair, X, trials=3)["ok"], p


def test_minimal_orbit_witness_rejects_zero(monkeypatch):
    # 0 commutes with X, lies in p and is semisimple: only
    # "witness_nonzero" tells it from a witness
    monkeypatch.setattr(mm, "_cartan_witness", lambda pair: mm.zeros(pair.n))
    rep = mm.minimal_orbit_not_distinguished(mm.build_pair(3))
    assert not rep["ok"]
    assert [r["witness_nonzero"] for r in rep["reports"]] == [False, False]
    assert all(r["witness_commutes"] and r["witness_in_p"]
               for r in rep["reports"])


def test_minimal_orbit_witness_needs_p_at_least_3():
    with pytest.raises(ValueError):
        mm.minimal_orbit_not_distinguished(mm.build_pair(2))


def test_lemma51_sampling():
    pair = mm.build_pair(4)
    X, Xs, Xn = mm.lemma_witness_element(pair)
    assert pair.in_p(Xs) and not mm.mat_is_zero(Xs)
    assert pair.in_p(Xn) and not mm.mat_is_zero(Xn)
    assert mm.mat_is_zero(mm.commutator(Xs, Xn))
    rep = mm.lemma51_check(pair, X, trials=20, seed=3)
    assert rep["ok"], rep


def test_proportional_divides_no_ints():
    # int entries: the float 1/49 would miss A = B / 49
    pb = mm.build_pair(2).p_basis()
    B, A = mm.lin_comb((49, 98), pb[:2]), mm.lin_comb((1, 2), pb[:2])
    assert mm.proportional(A, B) and mm.proportional(B, A)
    assert mm.proportional(mm.mat_scale(A, QI(1, 1)), B)
    assert not mm.proportional(A, mm.mat_add(B, pb[2]))
    assert mm.proportional(mm.zeros(4), B) and not mm.proportional(
        A, mm.zeros(4))


def test_lemma51_rejects_pure_inputs():
    pair = mm.build_pair(3)
    with pytest.raises(ValueError):
        mm.lemma51_check(pair, cartan_point(pair, 1, 2))


def test_even_sheet_on_even_orbit():
    pair = mm.build_pair(4)
    d = [x for x in orbits.enumerate_dyo(4) if x.shape == (3, 1, 1, 1)][0]
    t = mm.normal_triple_for(pair, mm.nilpotent_from_diagram(pair, d))
    rep = mm.even_sheet_witness(pair, t)
    assert rep == {"dim_p_X": 4, "dim_p_X_plus_Y": 4, "semisimple": True,
                   "ok": True}


def test_even_sheet_one_point_covers_the_line():
    # Ad exp(uH) carries X + Y to a multiple of X + lambda Y, so the
    # witness's one point must agree with every lambda != 0 it stands for
    lams = (2, 3, -1, F(1, 2), mm.I_UNIT)
    for p in range(2, 9):
        pair = mm.build_pair(p)
        for d in orbits.enumerate_dyo(p):
            X = mm.nilpotent_from_diagram(pair, d)
            if mm.mat_is_zero(X) or not any(
                    orbits.is_even(c)
                    for c in orbits.characteristic(orbits.forget_signs(d))):
                continue
            t = mm.normal_triple_for(pair, X)
            rep = mm.even_sheet_witness(pair, t)
            assert rep["ok"], (d, rep)
            for lam in lams:
                Z = mm.lin_comb((F(1), lam), (t.X, t.Y))
                assert mm.is_semisimple(Z), (d, lam)
                assert pair.dim_p_centralizer(Z) == rep["dim_p_X_plus_Y"], \
                    (d, lam)


def test_even_sheet_rejects_non_even_orbit():
    pair = mm.build_pair(4)
    d = [x for x in orbits.enumerate_dyo(4) if x.shape == (2, 2, 1, 1)][0]
    t = mm.normal_triple_for(pair, mm.nilpotent_from_diagram(pair, d))
    with pytest.raises(ValueError):
        mm.even_sheet_witness(pair, t)


def test_dim_identity():
    rep = mm.dim_identity_check(mm.build_pair(3), samples=25, seed=1)
    assert rep["ok"], rep


def test_locus_matrix_model():
    # p >= 3: four special lines, matching the root-space computation
    pair = mm.build_pair(3)
    lines, residual = nonregular_locus_matrix(pair)
    assert [(str(a), str(b)) for a, b in lines] == [
        ("0", "1"), ("1", "-1"), ("1", "0"), ("1", "1")]
    assert residual == ()


def test_locus_so4_case():
    # p = 2 (the (so_4, so_2 x so_2) pair, not covered by the parabolic
    # catalog): only the two lines mu = -+ lambda are non-regular
    pair = mm.build_pair(2)
    lines, residual = nonregular_locus_matrix(pair)
    assert [(str(a), str(b)) for a, b in lines] == [("1", "-1"), ("1", "1")]
    assert residual == ()
    # dims-level subpair data at the special and generic points
    assert centralizer_dims(pair, cartan_point(pair, 1, 1)) == (4, 1, 3)
    assert centralizer_dims(pair, cartan_point(pair, 1, -1)) == (4, 1, 3)
    assert centralizer_dims(pair, cartan_point(pair, 2, 3)) == (2, 0, 2)


def test_restricted_root_multiplicities():
    pair = mm.build_pair(5)
    # long restricted roots e1 -+ e2 have multiplicity 1
    assert len(mm.real_restricted_root_space(pair, 1, -1)) == 1
    assert len(mm.real_restricted_root_space(pair, 1, 1)) == 1
    # short restricted root e1 has multiplicity p - 2
    assert len(mm.real_restricted_root_space(pair, 1, 0)) == 3
    # the complex root spaces have the same dimensions, with
    # [H_k, Z] = i c_k Z
    for c in ((1, -1), (1, 1), (1, 0), (0, 1), (-1, 0), (2, 0)):
        space = mm.restricted_root_space(pair, *c)
        assert len(space) == len(mm.real_restricted_root_space(pair, *c))
        for Z in space:
            for k, ck in zip((1, 2), c):
                assert mm.commutator(pair.H(k), Z) == \
                    mm.mat_scale(Z, mm.I_UNIT * ck)


# (type, rank, omitted root, p): the so-type catalog rows B_n and D_n
# omitting alpha_1 are (so_{p+2}, so_p x so_2); the last three rows are
# (sp_4, gl_2), (sl_4, s(gl_2 x gl_2)) and (so_8, gl_4), isomorphic to it
# at p = 3, 4 and 6
MODEL_ROWS = ([("B", n, 1, 2 * n - 1) for n in range(2, 9)]
              + [("D", n, 1, 2 * n - 2) for n in range(4, 9)]
              + [("C", 2, 2, 3), ("A", 3, 2, 4), ("D", 4, 4, 6)])


@pytest.mark.parametrize("label, rank, root, p", MODEL_ROWS)
def test_matrix_model_meets_the_chevalley_path(label, rank, root, p):
    # the multiset of (dim g^X, dim p^X) over the four special lines: in
    # the model at mu H_1 + lambda H_2 (the lines of
    # test_locus_matrix_model), and on the Chevalley side at the lines of
    # the pencil on the cascade's X_K; then the same pair at one generic
    # point, 2 H_1 + 3 H_2 and X_1 + 2 X_2, off every special line
    pair = mm.build_pair(p)

    def model_dims(mu, lam):
        X = mm.lin_comb((F(mu), F(lam)), (pair.H(1), pair.H(2)))
        return (len(pair.centralizer_in(X, pair.k_basis()
                                        + pair.p_basis())),
                pair.dim_p_centralizer(X))

    alg = build_algebra(label, rank)
    P = build_parabolic(alg, frozenset(range(rank)) - {root - 1})
    full = [alg.basis_element(i) for i in range(alg.dimension)]
    xs = P.cartan_subspace()

    def chevalley_dims(mu, lam):
        X = mu * xs[0] + lam * xs[1]
        return (len(centralizer_in(X, full)),
                len(centralizer_in(X, P.p_basis())))

    lines = nonregular_locus(P).special_lines
    assert all(2 * mu != lam for mu, lam in lines)
    model = [model_dims(mu, lam)
             for mu, lam in ((0, 1), (1, -1), (1, 0), (1, 1))]
    assert sorted(model) == sorted(chevalley_dims(mu, lam)
                                   for mu, lam in lines), P.pair_label
    assert model_dims(2, 3) == chevalley_dims(1, 2), P.pair_label
