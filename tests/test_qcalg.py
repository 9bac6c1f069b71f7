import numpy as np
import pytest

from oracles import expand, gf_inv_dense, gf_matmul, perm_dense, perm_qc_matrix, qc_mat_mul
from spanse import qcalg
from spanse.qcalg import (
    DimensionMismatchError,
    QCMatrix,
    QCPermutation,
    SparseVector,
    perm_apply,
    perm_inv_mul,
    qc_solve,
    qc_vec_mul,
    random_qc_permutation,
)

Q = 127


def rand_qc(rng, rows0, cols0, p, q=Q):
    return QCMatrix(rng.integers(0, q, size=(rows0, cols0, p)), q)


def qc_mat_inv(A):
    """A^{-1} as the solve against the identity, or None when A is singular."""
    return qc_solve(A, QCMatrix.identity(A.rows0, A.p, A.q))


def rand_sparse(rng, length, density=0.25, q=Q):
    dense = (rng.random(length) < density) * rng.integers(1, q, size=length)
    return SparseVector.from_dense(dense, q)


# --- polynomial ring: 1 x 1 block matrices ---------------------------------

def poly(coeffs, q=Q):
    """A ring element as a 1 x 1 QCMatrix."""
    return QCMatrix(np.asarray(coeffs)[None, None], q)


def monomial(exp, p):
    c = np.zeros(p, dtype=np.int64)
    c[exp % p] = 1
    return c


def test_poly_mul_examples():
    a = poly([5, 1, 3, 0, 9])
    assert qc_mat_mul(a, QCMatrix.identity(1, 5, Q)) == a
    x, x4 = poly(monomial(1, 5)), poly(monomial(4, 5))
    assert qc_mat_mul(x, x4) == QCMatrix.identity(1, 5, Q)
    prod = qc_mat_mul(poly([1, 1, 0]), poly([1, 0, 1]))
    assert prod == poly([2, 1, 1])


def test_poly_inv_examples():
    one = monomial(0, 7)
    assert np.array_equal(qcalg._poly_inv_raw(one, 7, Q), one)
    assert np.array_equal(qcalg._poly_inv_raw(monomial(1, 5), 5, Q), monomial(4, 5))
    # 1 + x + x^2 divides x^3 - 1, so it cannot be invertible mod x^3 - 1
    assert qcalg._poly_inv_raw(np.array([1, 1, 1]), 3, Q) is None
    assert qcalg._poly_inv_raw(np.zeros(3, dtype=np.int64), 3, Q) is None


def test_poly_inv_random_round_trips():
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(300):
        p = int(rng.choice([3, 5, 13]))
        a = poly(rng.integers(0, Q, p))
        b = qcalg._poly_inv_raw(a.blocks[0, 0], p, Q)
        if b is not None:
            assert qc_mat_mul(a, poly(b)) == QCMatrix.identity(1, p, Q)
            hits += 1
        else:
            # singular circulant matrices have no inverse
            assert gf_inv_dense(expand(a), Q) is None
    assert hits > 200


def test_ring_isomorphism_mul_matches_dense():
    rng = np.random.default_rng(11)
    for p in (3, 5, 13):
        for _ in range(100):
            a = poly(rng.integers(0, Q, p))
            b = poly(rng.integers(0, Q, p))
            lhs = expand(qc_mat_mul(a, b))
            rhs = gf_matmul(expand(a), expand(b), Q)
            assert np.array_equal(lhs, rhs)


def test_circulant_layout_rows_are_right_shifts():
    a = poly([7, 8, 9])
    expected = np.array([[7, 8, 9], [9, 7, 8], [8, 9, 7]])
    assert np.array_equal(expand(a), expected)


def test_ring_mismatch_raises():
    # a right-hand side on another ring (p or q) or with other block rows
    rng = np.random.default_rng(14)
    A = rand_qc(rng, 3, 3, 5)
    for B in (rand_qc(rng, 3, 2, 7), rand_qc(rng, 3, 2, 5, q=131), rand_qc(rng, 2, 3, 5),
              rand_qc(rng, 4, 0, 5)):
        with pytest.raises(DimensionMismatchError):
            qc_solve(A, B)
    with pytest.raises(DimensionMismatchError):
        qc_solve(poly([1, 2]), poly([1, 2, 3]))


# --- block matrices --------------------------------------------------------

def test_qc_mat_mul_identity_zero_and_oracle():
    rng = np.random.default_rng(12)
    A = rand_qc(rng, 2, 2, 3)
    I = QCMatrix.identity(2, 3, Q)
    Z = QCMatrix(np.zeros((2, 2, 3)), Q)
    assert qc_mat_mul(A, I) == A
    assert qc_mat_mul(A, Z) == Z
    for _ in range(100):
        B = rand_qc(rng, 2, 2, 3)
        assert np.array_equal(expand(qc_mat_mul(A, B)), gf_matmul(expand(A), expand(B), Q))
        A = B


def test_qc_mat_mul_rectangular_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = int(rng.choice([3, 5, 13]))
        m, l, r = (int(v) for v in rng.integers(1, 4, 3))
        A, B = rand_qc(rng, m, l, p), rand_qc(rng, l, r, p)
        assert np.array_equal(expand(qc_mat_mul(A, B)), gf_matmul(expand(A), expand(B), Q))


def _cyclic_matmul_int64(A, B, q):
    """(m, k, p) x (k, n, p) block product by explicit shifts, exact in int64."""
    p = A.shape[-1]
    out = np.zeros((A.shape[0], B.shape[1], p), dtype=np.int64)
    for t in range(p):
        # x^t * b(x) is b cyclically shifted right by t
        out += np.einsum("ik,kjf->ijf", A[..., t], np.roll(B, t, axis=-1))
    return out % q


@pytest.mark.parametrize("p", [1, 2, 101])
def test_kernel_products_at_scheme_shapes_match_dense(p):
    # p = 1 pads to a length-1 transform with an empty fold; p = 101 is the
    # scheme's ring. All-(q-1) operands give the largest coefficients.
    rng = np.random.default_rng(30 + p)
    operands = [(rand_qc(rng, 2, 3, p), rand_qc(rng, 3, 2, p)),
                (QCMatrix(np.full((2, 3, p), Q - 1), Q), QCMatrix(np.full((3, 2, p), Q - 1), Q))]
    for A, B in operands:
        assert np.array_equal(expand(qc_mat_mul(A, B)), gf_matmul(expand(A), expand(B), Q))
        a, b = QCMatrix(A.blocks[:1, :1], Q), QCMatrix(B.blocks[1:2, 1:2], Q)
        assert np.array_equal(expand(qc_mat_mul(a, b)), gf_matmul(expand(a), expand(b), Q))
        for v in (rng.integers(0, Q, 2 * p), np.full(2 * p, Q - 1)):
            assert np.array_equal(qc_vec_mul(v, A), gf_matmul(v[None, :], expand(A), Q)[0])


def test_fft_bound_rejects_products_that_lose_precision():
    # about 2^48.7: float64 rounding returned most coefficients wrong here
    q, p, k = 65521, 101, 1024
    rng = np.random.default_rng(31)
    A = QCMatrix(rng.integers(q - 64, q, (1, k, p)), q)
    B = QCMatrix(rng.integers(q - 64, q, (k, 1, p)), q)
    with pytest.raises(OverflowError):
        qc_mat_mul(A, B)


def test_fft_product_just_under_bound_is_exact():
    q, p, k = 4093, 101, 600
    assert 2**39.8 < k * p * (q - 1) ** 2 < 2**40
    A, B = np.full((1, k, p), q - 1), np.full((k, 1, p), q - 1)
    got = qc_mat_mul(QCMatrix(A, q), QCMatrix(B, q)).blocks
    assert np.array_equal(got, _cyclic_matmul_int64(A, B, q))


def test_transpose_matches_dense():
    rng = np.random.default_rng(15)
    for _ in range(50):
        A = rand_qc(rng, 3, 2, 7)
        assert np.array_equal(expand(A.transpose()), expand(A).T)


def test_qc_mat_inv_identity_and_round_trip():
    I = QCMatrix.identity(3, 5, Q)
    assert qc_mat_inv(I) == I
    rng = np.random.default_rng(16)
    inverted = 0
    for _ in range(200):
        p = int(rng.choice([3, 5, 13]))
        m = int(rng.integers(1, 4))
        A = rand_qc(rng, m, m, p)
        Ai = qc_mat_inv(A)
        dense = gf_inv_dense(expand(A), Q)
        if Ai is None:
            assert dense is None
        else:
            assert dense is not None
            assert np.array_equal(expand(Ai), dense)
            assert qc_mat_mul(Ai, A) == QCMatrix.identity(m, p, Q)
            inverted += 1
    assert inverted > 150


def test_qc_mat_inv_dense_fallback_cases():
    # blocks individually singular as polynomials but jointly invertible:
    # ring-level elimination stalls only when no pivot in a column is
    # invertible, which [[g, 1], [1, g]] with singular g exercises once the
    # first column has been eliminated into multiples of g.
    g = np.array([1, 1, 1], dtype=np.int64)  # divides x^3 - 1
    one = np.array([1, 0, 0], dtype=np.int64)
    blocks = np.array([[g, one], [one, g]])
    A = QCMatrix(blocks, Q)
    Ai = qc_mat_inv(A)
    dense = gf_inv_dense(expand(A), Q)
    if dense is None:
        assert Ai is None
    else:
        assert Ai is not None and np.array_equal(expand(Ai), dense)


def test_qc_mat_inv_above_old_dense_limit_with_no_unit_pivot():
    # 41 blocks at p=101 expand to 4141 x 4141. Both entries of the first
    # column, x - 1 and Phi_101 = 1 + x + ... + x^100, are non-units, yet
    # det = x - 1 - Phi_101 is a unit, so the matrix is invertible.
    p, s = 101, 41
    blocks = QCMatrix.identity(s, p, Q).blocks
    blocks[0, 0, :2] = [Q - 1, 1]
    blocks[1, 0] = 1
    blocks[0, 1, 0] = 1
    A = QCMatrix(blocks, Q)
    Ai = qc_mat_inv(A)
    assert Ai is not None
    assert qc_mat_mul(A, Ai) == QCMatrix.identity(s, p, Q)
    assert qc_mat_mul(Ai, A) == QCMatrix.identity(s, p, Q)


def _non_unit_entry(rng, p, q):
    """A random entry that is zero, or vanishes in some CRT component of R_p."""
    kind = rng.integers(0, 4)
    c = rng.integers(0, q, p)
    if kind == 0:
        c[0] = (c[0] - c.sum()) % q  # coefficient sum 0: vanishes at x = 1
    elif kind == 1:
        c[:] = c[0]  # a multiple of Phi_p = 1 + x + ... + x^(p-1)
    elif kind == 2:
        c[:] = 0
    return c  # kind 3: a generic entry, usually a unit


@pytest.fixture()
def repairs(monkeypatch):
    """Columns at which qc_solve called _repair_pivot, in call order."""
    calls = []
    real_repair = qcalg._repair_pivot

    def counting_repair(*args):
        calls.append(args[1])
        return real_repair(*args)

    monkeypatch.setattr(qcalg, "_repair_pivot", counting_repair)
    return calls


@pytest.mark.parametrize("p,q", [(3, 127), (5, 127), (13, 127), (3, 3), (5, 5)])
def test_qc_mat_inv_repair_step_matches_dense_oracle(repairs, p, q):
    rng = np.random.default_rng(100 + 7 * p + q)
    outcomes = set()
    for _ in range(150):
        m = int(rng.integers(2, 5))
        blocks = np.array([[_non_unit_entry(rng, p, q) for _ in range(m)] for _ in range(m)])
        A = QCMatrix(blocks, q)
        before = len(repairs)
        Ai = qc_mat_inv(A)
        dense = gf_inv_dense(expand(A), q)
        if dense is None:
            assert Ai is None
        else:
            assert Ai is not None and np.array_equal(expand(Ai), dense)
        if len(repairs) > before:
            outcomes.add(Ai is not None)
    # every CRT component is local when p == q, so a column without a unit
    # proves the matrix singular and no repair can succeed
    assert outcomes == ({False} if p == q else {True, False})


@pytest.mark.parametrize("p", [3, 13])
def test_qc_mat_inv_live_columns_with_swaps_and_repairs(repairs, p):
    # non-unit entries force pivots off the diagonal and repairs, which add
    # whole rows, so the live columns of a pivot row can differ from generic;
    # s = 7, 8, 9 and 17 straddle the boundaries of panels of 8 columns
    rng = np.random.default_rng(40 + p)
    inverted = 0
    for s in (5, 6, 7, 8, 9, 17):
        for _ in range(10):
            blocks = np.array([[_non_unit_entry(rng, p, Q) for _ in range(s)] for _ in range(s)])
            A = QCMatrix(blocks, Q)
            Ai = qc_mat_inv(A)
            dense = gf_inv_dense(expand(A), Q)
            if dense is None:
                assert Ai is None
            else:
                assert Ai is not None and np.array_equal(expand(Ai), dense)
                inverted += 1
    assert repairs and inverted


def test_qc_mat_inv_updates_only_live_columns(monkeypatch):
    # generic A: each pivot column costs products of inner dimension 1 on the
    # panel's own columns and its record D; each panel then applies D to the
    # other live columns in products of inner dimension equal to its width,
    # each writing at most b block columns however wide B is
    b = qcalg._PANEL_WIDTH
    calls = []
    real_kernel = qcalg._block_matmul

    def recording_kernel(A, B, p, q):
        calls.append((A.shape[1], B.shape[1]))  # inner dimension, output block width
        return real_kernel(A, B, p, q)

    monkeypatch.setattr(qcalg, "_block_matmul", recording_kernel)
    rng = np.random.default_rng(41)
    for s, p in ((b, 13), (2 * b, 101), (2 * b + 3, 13)):
        assert qcalg._panel_width(p, Q) == b == 8
        A = rand_qc(rng, s, s, p)
        # the inverse, and a solve shaped like keygen's S^T X = H^T
        for B in (QCMatrix.identity(s, p, Q), rand_qc(rng, s, s // 2, p)):
            calls.clear()
            X = qc_solve(A, B)
            assert {inner for inner, _ in calls} <= {1, b, s % b}
            assert any(inner == b for inner, _ in calls)
            assert all(width <= b for inner, width in calls if inner > 1)
            assert qc_mat_mul(A, X) == B


@pytest.mark.parametrize("p,q", [(1, 127), (3, 3), (13, 127)])
def test_qc_solve_matches_dense_oracle_at_every_width(repairs, p, q):
    # right-hand sides of 0, 1, b - 1, b + 1 and 2s + 3 block columns, so the
    # panel updates' slices of b columns end inside B and across it; equal
    # rows make A singular, and non-unit entries make repairs run in a solve
    b = qcalg._PANEL_WIDTH
    rng = np.random.default_rng(60 + p + q)
    outcomes = set()
    for s in (2, 5, 9):
        for kind in ("generic", "non-unit", "non-unit", "equal rows"):
            if kind == "generic":
                blocks = rng.integers(0, q, (s, s, p))
            else:
                blocks = np.array([[_non_unit_entry(rng, p, q) for _ in range(s)] for _ in range(s)])
            if kind == "equal rows":
                blocks[1] = blocks[0]
            A = QCMatrix(blocks, q)
            dense_inv = gf_inv_dense(expand(A), q)
            outcomes.add(dense_inv is not None)
            for m in (0, 1, b - 1, b + 1, 2 * s + 3):
                B = QCMatrix(rng.integers(0, q, (s, m, p)), q)
                X = qc_solve(A, B)
                if dense_inv is None:
                    assert X is None
                else:
                    assert X is not None and X.blocks.shape == (s, m, p)
                    assert np.array_equal(expand(X), gf_matmul(dense_inv, expand(B), q))
    assert repairs and outcomes == {True, False}


@pytest.mark.parametrize("invertible", [True, False])
def test_qc_mat_inv_repair_inside_a_panel(repairs, invertible):
    # [[G, X], [0, M]] with generic G and X: the first c columns pivot on
    # rows of G and leave M's rows as they are. M's first column holds
    # x - 1 over Phi_13 (or over x - 1 again), both non-units, so column c,
    # the fourth of the second panel, needs a repair. M = [[x - 1, 1],
    # [Phi_13, 1]] has the unit determinant x - 1 - Phi_13; with x - 1 in
    # both rows every free row vanishes at x = 1 and A is singular.
    p, b = 13, qcalg._PANEL_WIDTH
    c, s = b + 3, 2 * b + 1
    rng = np.random.default_rng(42)
    blocks = rng.integers(0, Q, (s, s, p))
    blocks[c:, :c] = 0
    blocks[c:, c:] = QCMatrix.identity(s - c, p, Q).blocks
    blocks[c, c, :2] = [Q - 1, 1]
    blocks[c + 1, c] = 1 if invertible else blocks[c, c]
    blocks[c, c + 1, 0] = 1
    A = QCMatrix(blocks, Q)
    Ai = qc_mat_inv(A)
    dense = gf_inv_dense(expand(A), Q)
    assert repairs == [c]
    assert (dense is not None) == invertible
    if invertible:
        assert Ai is not None and np.array_equal(expand(Ai), dense)
    else:
        assert Ai is None


@pytest.mark.parametrize("p,s,width", [(101, 3, 2), (199, 2, 1)])
def test_qc_mat_inv_panel_shrinks_under_fft_bound(p, s, width):
    # width * p * (q - 1)^2 must stay within the kernel's exactness bound
    q = 65521
    assert qcalg._panel_width(p, q) == width
    assert width * p * (q - 1) ** 2 <= qcalg._FFT_EXACT_BOUND < (width + 1) * p * (q - 1) ** 2
    rng = np.random.default_rng(p)
    A = QCMatrix(rng.integers(0, q, (s, s, p)), q)
    Ai = qc_mat_inv(A)
    dense = gf_inv_dense(expand(A), q)
    assert dense is not None and Ai is not None
    assert np.array_equal(expand(Ai), dense)


@pytest.mark.parametrize("q", [2, 3, 127])
def test_qc_mat_inv_at_p_one_matches_dense_oracle(q):
    # p = 1 makes R_p the field F_q itself: every nonzero entry is a unit and
    # no repair can help. Zero columns, equal rows and zero diagonals give
    # singular matrices and pivots off the diagonal; s = 9 and 17 cross
    # panels of 8 columns.
    rng = np.random.default_rng(50 + q)
    outcomes = set()
    for s in (1, 2, 5, 9, 17):
        for kind in ("generic", "zero column", "equal rows", "zero diagonal"):
            for _ in range(5):
                blocks = rng.integers(0, q, (s, s, 1))
                if kind == "zero column":
                    blocks[:, rng.integers(s)] = 0
                elif kind == "equal rows" and s > 1:
                    i, j = rng.choice(s, 2, replace=False)
                    blocks[i] = blocks[j]
                elif kind == "zero diagonal":
                    blocks[np.arange(s), np.arange(s)] = 0
                A = QCMatrix(blocks, q)
                Ai = qc_mat_inv(A)
                dense = gf_inv_dense(expand(A), q)
                if dense is None:
                    assert Ai is None
                else:
                    assert Ai is not None and np.array_equal(expand(Ai), dense)
                outcomes.add(dense is not None)
    assert outcomes == {True, False}


def test_qc_mat_inv_requires_square():
    rng = np.random.default_rng(17)
    with pytest.raises(DimensionMismatchError):
        qc_mat_inv(rand_qc(rng, 2, 3, 5))


# --- vectors ---------------------------------------------------------------

def test_sparse_vector_invariants():
    v = SparseVector(10, np.array([5, 2]), np.array([3, 0]), Q)
    assert v.weight() == 1 and v.indices.tolist() == [5]
    with pytest.raises(ValueError):
        SparseVector(4, np.array([4]), np.array([1]), Q)
    with pytest.raises(ValueError):
        SparseVector(4, np.array([1, 1]), np.array([1, 2]), Q)


def test_sparse_add_matches_dense():
    rng = np.random.default_rng(18)
    for _ in range(100):
        a, b = rand_sparse(rng, 30), rand_sparse(rng, 30)
        assert np.array_equal(a.add(b).to_dense(), (a.to_dense() + b.to_dense()) % Q)


def test_qc_vec_mul_unit_vectors_read_rows():
    rng = np.random.default_rng(19)
    A = rand_qc(rng, 2, 3, 5)
    dense = expand(A)
    for i in (0, 4, 9):
        e = np.zeros(10, dtype=np.int64)
        e[i] = 1
        assert np.array_equal(qc_vec_mul(e, A), dense[i])
        sv = SparseVector(10, np.array([i]), np.array([1]), Q)
        assert np.array_equal(qc_vec_mul(sv, A), dense[i])


def test_qc_vec_mul_oracle_sparse_and_dense():
    rng = np.random.default_rng(20)
    for _ in range(100):
        p = int(rng.choice([3, 5, 13]))
        m, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rand_qc(rng, m, c, p)
        v = rng.integers(0, Q, m * p)
        assert np.array_equal(qc_vec_mul(v, A), gf_matmul(v[None, :], expand(A), Q)[0])
        sv = rand_sparse(rng, m * p)
        assert np.array_equal(qc_vec_mul(sv, A),
                              gf_matmul(sv.to_dense()[None, :], expand(A), Q)[0])
    assert not qc_vec_mul(np.zeros(m * p, dtype=np.int64), A).any()


# --- permutations ----------------------------------------------------------

def test_perm_identity_and_shift_example():
    ident = QCPermutation(np.arange(3), np.zeros(3, dtype=np.int64), 5, Q)
    s = SparseVector(15, np.array([1, 7]), np.array([1, 3]), Q)
    assert perm_apply(ident, s) == s
    # a single-block shift by x^2 maps index 0 to index 2
    P = QCPermutation(np.array([0]), np.array([2]), 5, Q)
    out = perm_apply(P, SparseVector(5, np.array([0]), np.array([1]), Q))
    assert out.indices.tolist() == [2]


def test_perm_expansion_is_permutation_matrix():
    rng = np.random.default_rng(21)
    for _ in range(50):
        P = random_qc_permutation(4, 7, Q, rng)
        M = perm_dense(P)
        assert np.array_equal(np.sort(M.sum(axis=0)), np.ones(28))
        assert np.array_equal(np.sort(M.sum(axis=1)), np.ones(28))


def test_perm_apply_matches_expansion_and_inverts():
    rng = np.random.default_rng(22)
    for _ in range(100):
        P = random_qc_permutation(4, 7, Q, rng)
        s = rand_sparse(rng, 28, density=0.3)
        out = perm_apply(P, s)
        assert out.weight() == s.weight()
        assert np.array_equal(out.to_dense(), gf_matmul(perm_dense(P), s.to_dense()[:, None], Q)[:, 0])
        # permutation inverse = transpose of the expansion
        Pi = qc_mat_inv(perm_qc_matrix(P))
        assert np.array_equal(expand(Pi), perm_dense(P).T)


@pytest.mark.parametrize("p", [1, 2, 13, 101])
def test_perm_inv_mul_matches_dense_block_product(p):
    rng = np.random.default_rng(40 + p)
    for size0, cols0 in ((1, 1), (3, 2), (5, 4)):
        P = random_qc_permutation(size0, p, Q, rng)
        M = rand_qc(rng, size0, cols0, p)
        out = perm_inv_mul(P, M)
        # the block matrix of P^{-1} is the transpose of P's
        assert out == qc_mat_mul(perm_qc_matrix(P).transpose(), M)
        assert np.array_equal(expand(out), gf_matmul(perm_dense(P).T, expand(M), Q))
    with pytest.raises(DimensionMismatchError):
        perm_inv_mul(P, rand_qc(rng, size0 + 1, 1, p))
