import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_vector,
    expand,
    gf_inv_dense,
    gf_matmul,
    identity,
    perm_dense,
    perm_qc_matrix,
    qc_mat_mul,
    solve,
)
from spanse import ldgm, qcalg
from spanse.qcalg import (
    DimensionMismatchError,
    QCMatrix,
    QCPermutation,
    perm_apply,
    qc_mat_gather,
    qc_mat_vec,
    qc_solve,
    random_qc_permutation,
)
from spanse.params import get_params

Q = 127


def rand_qc(rng, rows0, cols0, p, q=Q):
    return QCMatrix(rng.integers(0, q, size=(rows0, cols0, p)), q)


def qc_mat_inv(A):
    """A^{-1} as the solve against the identity, or None when A is singular."""
    return solve(A, identity(A.rows0, A.p, A.q))


def rand_positions(rng, length, density=0.25):
    """About density * length positions drawn with replacement, so some repeat."""
    return rng.integers(0, length, size=rng.binomial(length, density))


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
    assert qc_mat_mul(a, identity(1, 5, Q)) == a
    x, x4 = poly(monomial(1, 5)), poly(monomial(4, 5))
    assert qc_mat_mul(x, x4) == identity(1, 5, Q)
    prod = qc_mat_mul(poly([1, 1, 0]), poly([1, 0, 1]))
    assert prod == poly([2, 1, 1])


def test_poly_inv_examples():
    one = monomial(0, 7)
    assert np.array_equal(qcalg._poly_inv_raw(one, 7, Q), one)
    assert np.array_equal(qcalg._poly_inv_raw(monomial(1, 5), 5, Q), monomial(4, 5))
    # 1 + x + x^2 divides x^3 - 1, so it cannot be invertible mod x^3 - 1
    assert qcalg._poly_inv_raw(np.array([1, 1, 1]), 3, Q) is None
    assert qcalg._poly_inv_raw(np.zeros(3, dtype=np.int64), 3, Q) is None


@pytest.mark.parametrize("p,q", [(1, 2), (1, 127), (2, 127), (3, 3), (5, 5), (7, 2), (13, 127),
                                 (101, 127), (199, 65521)])
def test_poly_inv_random_round_trips(p, q):
    # generic entries and the zero and non-unit kinds the repair tests use
    rng = np.random.default_rng(10 + p + q)
    one = poly(monomial(0, p), q)
    outcomes = set()
    for i in range(60 if p < 100 else 12):
        a = poly(_non_unit_entry(rng, p, q) if i % 2 else rng.integers(0, q, p), q)
        b, e = qcalg._unit_idempotent(a.blocks[0, 0], p, q)
        e = poly(e, q)
        assert qc_mat_mul(a, poly(b, q)) == e and qc_mat_mul(e, e) == e
        inv = qcalg._poly_inv_raw(a.blocks[0, 0], p, q)
        dense = gf_inv_dense(expand(a), q)
        # e = 1 exactly for the units, and then b is the inverse
        assert (inv is None) == (dense is None) == (e != one)
        if inv is not None:
            assert np.array_equal(inv, b) and np.array_equal(expand(poly(inv, q)), dense)
        rest = qc_mat_mul(a, poly((monomial(0, p) - e.blocks[0, 0]) % q, q))
        if p % q:
            assert not rest.blocks.any()  # a (1 - e) = 0: e is the CRT idempotent
        else:
            # the local ring p = q: e is 0 or 1, and a non-unit is nilpotent
            assert e in (one, poly(np.zeros(p, dtype=np.int64), q))
            power = one
            for _ in range(p):
                power = qc_mat_mul(power, rest)
            assert not power.blocks.any()
        outcomes.add(inv is None)
    assert outcomes == {True, False}


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


@pytest.mark.parametrize("q,dtype", [(2, np.uint8), (127, np.uint8), (256, np.uint8),
                                     (257, np.uint16), (65521, np.uint16)])
def test_qcmatrix_keeps_a_canonical_symbol_array_and_copies_any_other(q, dtype):
    # the blocks are the narrowest unsigned type that holds q - 1; a
    # canonical C-ordered array of that type is kept as it is, one in
    # another layout is copied into C order, and anything else (wider,
    # signed, out of range, a list) is reduced as an integer into a copy
    assert qcalg.symbol_dtype(q) == dtype
    rng = np.random.default_rng(13)
    wide = rng.integers(0, q, (2, 3, 5))
    canonical = wide.astype(dtype)
    assert QCMatrix(canonical, q).blocks is canonical
    for given in (wide, wide.astype(np.int32), canonical.swapaxes(0, 1), wide + q,
                  wide - q, wide - 2**20 * q, canonical + (q - 1) // 2 + 1, wide.tolist()):
        before = np.array(given)
        blocks = QCMatrix(given, q).blocks
        assert np.array_equal(np.array(given), before)  # the caller's array is unchanged
        assert blocks.dtype == dtype and blocks.flags.c_contiguous
        assert np.array_equal(blocks, before.astype(np.int64) % q)
    with pytest.raises(DimensionMismatchError):
        QCMatrix(canonical[0], q)


def test_qcmatrix_copies_a_strided_symbol_array_without_widening():
    # X[:, index] of a canonical uint8 array comes back in another layout;
    # it is copied into C order as uint8, not reduced through int64
    rng = np.random.default_rng(19)
    X = rng.integers(0, Q, (60, 40, 101), dtype=np.uint8)
    strided = X[:, rng.permutation(40)]
    assert not strided.flags.c_contiguous
    tracemalloc.start()
    try:
        M = QCMatrix(strided, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * strided.nbytes
    assert M.blocks.flags.c_contiguous
    assert M == QCMatrix(strided.astype(np.int64), Q)


def test_qc_solve_eliminates_the_buffer_in_place():
    # [A | B] ends as [E | E X] for a block permutation E, X = A^{-1} B:
    # Gauss-Jordan without row swaps, written into the caller's buffer
    rng = np.random.default_rng(14)
    s, t, p = 3, 2, 5
    A, B = rand_qc(rng, s, s, p), rand_qc(rng, s, t, p)
    dense_inv = gf_inv_dense(expand(A), Q)
    assert dense_inv is not None
    aug = np.concatenate([A.blocks, B.blocks], axis=1)
    assert aug.dtype == np.uint8  # the blocks' symbol type, which the solve keeps
    X = qc_solve(aug, Q)
    assert X.shape == (s, t, p) and X.dtype == np.uint8
    assert np.array_equal(expand(QCMatrix(X, Q)), gf_matmul(dense_inv, expand(B), Q))
    assert np.count_nonzero(aug[:, :s].any(axis=2)) == s
    rows, cols = np.nonzero((aug[:, :s] == np.eye(1, p, dtype=np.int64)).all(axis=2))
    assert sorted(rows) == sorted(cols) == list(range(s))
    assert np.array_equal(aug[rows, s:], X[cols])
    # A alone (t = 0), and a zero block row of A, which is singular: the
    # elimination finds it when the repair at the last column has no row to add
    assert qc_solve(A.blocks.copy(), Q).shape == (s, 0, p)
    singular = np.concatenate([A.blocks, B.blocks], axis=1)
    singular[1, :s] = 0
    assert qc_solve(singular, Q) is None


def test_qc_solve_requires_at_least_as_many_block_columns_as_rows():
    # the buffer is [A | B] with A square, so a narrower one, or one that is
    # not (rows0, cols0, p) blocks, has no A to solve for
    aug = rand_qc(np.random.default_rng(17), 3, 5, 5).blocks
    for bad in (aug[:, :2], aug[0], aug[..., None]):
        with pytest.raises(DimensionMismatchError):
            qc_solve(bad, Q)


# --- block matrices --------------------------------------------------------

def test_qc_mat_mul_identity_zero_and_oracle():
    rng = np.random.default_rng(12)
    A = rand_qc(rng, 2, 2, 3)
    I = identity(2, 3, Q)
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
def test_kernel_products_at_scheme_shapes_match_dense(p, monkeypatch):
    # p = 1 pads to a length-1 transform with an empty fold; p = 101 is the
    # scheme's ring. All-(q-1) operands give the largest coefficients. The
    # shapes are a block product, a ring element, a vector and an outer
    # product, each one np.matmul of the spectra per frequency.
    checked = []
    real_check = qcalg._assert_fft_exact

    def counting_check(inner, p, q):
        checked.append(inner)
        return real_check(inner, p, q)

    monkeypatch.setattr(qcalg, "_assert_fft_exact", counting_check)
    rng = np.random.default_rng(30 + p)

    def draw(rows, cols, full):
        return QCMatrix(np.full((rows, cols, p), Q - 1), Q) if full else rand_qc(rng, rows, cols, p)

    products = 0
    for full in (False, True):
        A, B = draw(2, 3, full), draw(3, 2, full)
        assert np.array_equal(expand(qc_mat_mul(A, B)), gf_matmul(expand(A), expand(B), Q))
        a, b = QCMatrix(A.blocks[:1, :1], Q), QCMatrix(B.blocks[1:2, 1:2], Q)
        assert np.array_equal(expand(qc_mat_mul(a, b)), gf_matmul(expand(a), expand(b), Q))
        col, row = QCMatrix(A.blocks[:, :1], Q), QCMatrix(B.blocks[:1], Q)
        assert np.array_equal(expand(qc_mat_mul(col, row)), gf_matmul(expand(col), expand(row), Q))
        for v in (rng.integers(0, Q, 3 * p), np.full(3 * p, Q - 1)):
            assert np.array_equal(qc_mat_vec(A, v), gf_matmul(expand(A), v[:, None], Q)[:, 0])
        products += 5  # A B, a b, col row and the two vector products
        # one spectrum of A serves several right-hand slices, as a panel's D does
        spectrum = qcalg._spectrum(A.blocks, p)
        for width in (2, 1, 2):
            C = draw(3, width, full)
            got = qcalg._spectral_matmul(spectrum, qcalg._spectrum(C.blocks, p), p, Q)
            assert np.array_equal(expand(QCMatrix(got, Q)), gf_matmul(expand(A), expand(C), Q))
            products += 1
    assert len(checked) == products  # the bound is checked on every product


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
    # one row, as in a vector product, and two rows, as in a block product
    for rows in (1, 2):
        A, B = np.full((rows, k, p), q - 1), np.full((k, rows, p), q - 1)
        got = qc_mat_mul(QCMatrix(A, q), QCMatrix(B, q)).blocks
        assert np.array_equal(got, _cyclic_matmul_int64(A, B, q))


def _dense_acc_product(A, B, acc, q):
    """(acc + A B) mod q from the dense expansions, as a dense matrix."""
    dense = gf_matmul(expand(QCMatrix(A, q)), expand(QCMatrix(B, q)), q)
    return (expand(QCMatrix(acc, q)) + dense) % q


@pytest.mark.parametrize("p,q", [(3, 65521), (13, 8191)])
def test_kernel_accumulates_exactly_at_the_bound(p, q):
    # every entry q - 1, with the largest inner dimension whose bound
    # inner * p * (q-1)^2 is below _FFT_EXACT_BOUND, so acc + A B is just
    # below 2^40 before the float reduction, with one row, as in a vector
    # product, and with two
    inner = qcalg._FFT_EXACT_BOUND // (p * (q - 1) ** 2)
    assert 0.99 * qcalg._FFT_EXACT_BOUND < inner * p * (q - 1) ** 2 <= qcalg._FFT_EXACT_BOUND
    for rows in (1, 2):
        A, B = np.full((rows, inner, p), q - 1), np.full((inner, 2, p), q - 1)
        acc = np.full((rows, 2, p), q - 1)
        got = qcalg._block_matmul(A, B, p, q, acc)
        assert got.dtype == np.int64
        assert np.array_equal(expand(QCMatrix(got, q)), _dense_acc_product(A, B, acc, q))


@pytest.mark.parametrize("p,q", [(5, 3), (1, 127)])
def test_kernel_accumulates_random_operands(p, q):
    # at q = 3 a third of the sums are multiples of q, whose float quotient
    # must floor to itself; p = 1 has an empty fold. The shapes reach a ring
    # element, a vector, an outer product and a block product
    rng = np.random.default_rng(32 + p)
    for m, k, n in ((1, 1, 1), (1, 4, 3), (4, 1, 3), (3, 4, 2)):
        for _ in range(5):
            A, B = rng.integers(0, q, (m, k, p)), rng.integers(0, q, (k, n, p))
            acc = rng.integers(0, q, (m, n, p))
            got = qcalg._block_matmul(A, B, p, q, acc)
            assert np.array_equal(expand(QCMatrix(got, q)), _dense_acc_product(A, B, acc, q))


@pytest.mark.parametrize("p", [1, 13, 101])
def test_kernel_writes_into_a_strided_uint8_view_in_place(p):
    # as _repair_pivot and qc_solve's slices do: acc is out, a view of a
    # larger uint8 array with gaps between its block rows and columns, and
    # one set of work buffers serves every shape. Nothing outside the view
    # changes
    rng = np.random.default_rng(34 + p)
    buffers = qcalg._Buffers()
    for m, k, n in ((1, 1, 1), (1, 4, 3), (4, 1, 3), (3, 4, 2)):
        A, B = rng.integers(0, Q, (m, k, p)), rng.integers(0, Q, (k, n, p))
        aug = rng.integers(0, Q, (2 * m + 1, 2 * n + 3, p), dtype=np.uint8)
        before = aug.copy()
        inside = np.s_[1::2, 2 : 2 * n + 2 : 2]
        view = aug[inside]
        assert view.shape == (m, n, p) and view.base is aug
        acc = view.copy()
        assert qcalg._block_matmul(A, B, p, Q, view, view, buffers) is view
        assert np.array_equal(expand(QCMatrix(view, Q)), _dense_acc_product(A, B, acc, Q))
        aug[inside] = before[inside]
        assert np.array_equal(aug, before)


def test_transpose_allocates_its_result_once():
    # the reversal writes the swapped view into one C-ordered array, which
    # QCMatrix keeps without a copy
    A = rand_qc(np.random.default_rng(18), 238, 119, 101)
    tracemalloc.start()
    try:
        At = A.transpose()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * At.blocks.nbytes
    assert At.blocks.flags.c_contiguous
    assert np.array_equal(At.blocks, np.roll(A.blocks[..., ::-1], 1, axis=-1).swapaxes(0, 1))


def test_transpose_matches_dense():
    rng = np.random.default_rng(15)
    for _ in range(50):
        A = rand_qc(rng, 3, 2, 7)
        assert np.array_equal(expand(A.transpose()), expand(A).T)


def test_qc_mat_inv_identity_and_round_trip():
    I = identity(3, 5, Q)
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
            assert qc_mat_mul(Ai, A) == identity(m, p, Q)
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
    blocks = identity(s, p, Q).blocks
    blocks[0, 0, :2] = [Q - 1, 1]
    blocks[1, 0] = 1
    blocks[0, 1, 0] = 1
    A = QCMatrix(blocks, Q)
    Ai = qc_mat_inv(A)
    assert Ai is not None
    assert qc_mat_mul(A, Ai) == identity(s, p, Q)
    assert qc_mat_mul(Ai, A) == identity(s, p, Q)


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


def test_qc_solve_pivots_each_panel_in_a_tile(monkeypatch):
    # generic A: each pivot's two products of inner dimension 1 (scaling the
    # pivot row, then the rank-1 update) write at most the tile's b block
    # rows, not all s; one product per panel of inner dimension k turns
    # M^{-1} into D - I for all s rows, and the slices that apply the panel
    # to the other live columns, each at most b block columns wide however
    # wide B is, all reuse the one spectrum of D that the panel takes
    b = qcalg._PANEL_WIDTH
    kernel, slices, inside = [], [], []
    real_block, real_product = qcalg._block_matmul, qcalg._spectral_matmul

    def recording_block(A, B, p, q, *args, **kwargs):
        kernel.append((A.shape[1], A.shape[0]))  # inner dimension, block rows written
        inside.append(True)
        try:
            return real_block(A, B, p, q, *args, **kwargs)
        finally:
            inside.pop()

    def recording_product(FA, FB, p, q, *args, **kwargs):
        # a panel product's inner dimension, block rows and columns, and
        # the spectrum it multiplies, kept alive so that distinct spectra
        # keep distinct ids
        if not inside:
            slices.append((FA.shape[1], FA.shape[0], FB.shape[1], FA))
        return real_product(FA, FB, p, q, *args, **kwargs)

    monkeypatch.setattr(qcalg, "_block_matmul", recording_block)
    monkeypatch.setattr(qcalg, "_spectral_matmul", recording_product)
    rng = np.random.default_rng(41)
    for s, p in ((b, 13), (2 * b, 101), (2 * b + 3, 13)):
        assert qcalg._panel_width(p, Q) == b == 8
        panels = [b] * (s // b) + [s % b] * (s % b > 0)
        A = rand_qc(rng, s, s, p)
        # the inverse, and a dense B half as wide as A, as r0 = n0 / 2 in keygen
        for B in (identity(s, p, Q), rand_qc(rng, s, s // 2, p)):
            kernel.clear()
            slices.clear()
            X = solve(A, B)
            rank_one = [rows for inner, rows in kernel if inner == 1]
            assert rank_one and max(rank_one) <= b
            assert all(inner == 1 for inner, _ in kernel)
            # each panel's products share one spectrum buffer: first the
            # product of inner dimension k that gives D - I for all s rows,
            # then the slices that apply D, each at most b columns wide
            by_panel: dict[int, list] = {}
            for inner, rows, width, FA in slices:
                by_panel.setdefault(id(FA), []).append((inner, rows, width))
            assert [products[0] for products in by_panel.values()] == [(k, s, k) for k in panels]
            for (k, _, _), *rest in by_panel.values():
                assert all(inner == k and rows == s and width <= b for inner, rows, width in rest)
            assert qc_mat_mul(A, X) == B


@pytest.mark.parametrize("system", ["scattered right-hand side", "sparse M1"])
def test_qc_solve_updates_every_slice_through_a_view_of_aug(monkeypatch, system):
    # live columns with gaps between them: B shaped like [0; P], a monomial
    # at block (s / 2 + i, pi(i)), or the sparse M1 of a desk generator
    # against the identity. Each product that applies a panel to a slice of
    # columns writes into aug itself, not a copy scattered back; the one
    # product per panel with no acc forms D - I in a work buffer
    p, b = 13, qcalg._PANEL_WIDTH
    rng = np.random.default_rng(47)
    if system == "sparse M1":
        desk = get_params("desk")
        A = next(M1 for M1 in (QCMatrix(ldgm._left_part(ldgm.make_code(desk, rng), desk), Q)
                               for _ in range(20)) if gf_inv_dense(expand(M1), Q) is not None)
        B = identity(A.rows0, p, Q).blocks
    else:
        A = rand_qc(rng, 3 * b, 3 * b, p)
        half = A.rows0 // 2
        P = random_qc_permutation(half, p, rng)
        B = np.zeros((A.rows0, half, p), dtype=np.int64)
        B[half:] = perm_qc_matrix(P, Q).blocks
    aug = np.concatenate([A.blocks, B.astype(A.blocks.dtype)], axis=1)
    products, inside, runs = [], [], []
    real_block, real_product, real_panel = (
        qcalg._block_matmul, qcalg._spectral_matmul, qcalg._eliminate_panel)

    def recording_block(*args, **kwargs):
        inside.append(True)
        try:
            return real_block(*args, **kwargs)
        finally:
            inside.pop()

    def recording_product(FA, FB, p, q, acc=None, out=None, buffers=None):
        if not inside:
            products.append((acc, out))
        return real_product(FA, FB, p, q, acc, out, buffers)

    def recording_panel(aug, col, *args):
        # a column is live in the pivot rows after the panel exactly when
        # it was before: the pivot rows' update multiplies it by M^{-1}
        pivots = real_panel(aug, col, *args)
        live = aug[pivots].any(axis=(0, 2))[col + len(pivots):]
        runs.append(np.count_nonzero(np.diff(live, prepend=False) & live))
        return pivots

    monkeypatch.setattr(qcalg, "_block_matmul", recording_block)
    monkeypatch.setattr(qcalg, "_spectral_matmul", recording_product)
    monkeypatch.setattr(qcalg, "_eliminate_panel", recording_panel)
    X = qc_solve(aug, Q)
    assert max(runs) > 1
    slices = [(acc, out) for acc, out in products if acc is not None]
    assert len(products) - len(slices) == len(runs) and len(slices) >= sum(runs)
    assert all(out is acc and np.shares_memory(out, aug) for acc, out in slices)
    dense = gf_inv_dense(expand(A), Q)
    assert X is not None and np.array_equal(
        expand(QCMatrix(X, Q)), gf_matmul(dense, expand(QCMatrix(B, Q)), Q))


@pytest.fixture()
def panels(monkeypatch):
    """(first column, pivot rows) of each panel qc_solve eliminated, in order."""
    calls = []
    real_panel = qcalg._eliminate_panel

    def recording_panel(*args):
        pivots = real_panel(*args)
        calls.append((args[1], pivots))
        return pivots

    monkeypatch.setattr(qcalg, "_eliminate_panel", recording_panel)
    return calls


@pytest.mark.parametrize("j", [0, 3, qcalg._PANEL_WIDTH - 1])
def test_qc_solve_scans_the_free_rows_when_the_tile_has_no_unit(panels, repairs, j):
    # rows j..b-1 are zero in columns 0..j. With j > 0 the first panel's
    # tile is rows 0..b-1: rows 0..j-1 pivot the first j columns, and then
    # no tile row has a unit in column j, so the panel ends after j pivots.
    # The next panel's scan of column j passes over rows j..b-1 and finds
    # its pivot in the generic rows b.. with no repair. With j = 0 the
    # first panel's scan already finds it there.
    p, b = 13, qcalg._PANEL_WIDTH
    rng = np.random.default_rng(43 + j)
    blocks = rng.integers(0, Q, (2 * b, 2 * b, p))
    blocks[j:b, : j + 1] = 0
    A = QCMatrix(blocks, Q)
    dense = gf_inv_dense(expand(A), Q)
    Ai = qc_mat_inv(A)
    assert [pivots for col, pivots in panels if col < j] == ([list(range(j))] if j else [])
    at_j = [pivots for col, pivots in panels if col == j]
    assert len(at_j) == 1 and at_j[0][0] >= b and not repairs
    assert dense is not None and Ai is not None and np.array_equal(expand(Ai), dense)
    B = rand_qc(rng, 2 * b, 3, p)
    assert np.array_equal(expand(solve(A, B)), gf_matmul(dense, expand(B), Q))


@pytest.mark.parametrize("invertible", [True, False])
def test_qc_solve_flushes_and_repairs_when_no_free_row_has_a_unit(panels, repairs, invertible):
    # rows 3.. are zero in columns 0..2, so rows 0..2 pivot those columns
    # and leave the other rows' column 3 as it is: x - 1 in row 3, inside
    # the tile, and Phi_13 in row b, outside it; both are non-units, and
    # every other free row is zero there. The panel ends and is flushed,
    # the next panel's scan finds no unit and row 3 is repaired, then
    # pivots column 3. With x - 1 in both rows every free row vanishes at
    # x = 1 and A is singular.
    p, b, j = 13, qcalg._PANEL_WIDTH, 3
    rng = np.random.default_rng(44)
    blocks = rng.integers(0, Q, (2 * b, 2 * b, p))
    blocks[j:, : j + 1] = 0
    blocks[j, j, :2] = [Q - 1, 1]
    blocks[b, j] = 1 if invertible else blocks[j, j]
    A = QCMatrix(blocks, Q)
    dense = gf_inv_dense(expand(A), Q)
    Ai = qc_mat_inv(A)
    assert panels[0] == (0, list(range(j))) and repairs == [j]
    assert (dense is not None) == invertible
    if invertible:
        assert panels[1][0] == j and panels[1][1][0] == j
        assert Ai is not None and np.array_equal(expand(Ai), dense)
    else:
        assert Ai is None


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
                X = solve(A, B)
                if dense_inv is None:
                    assert X is None
                else:
                    assert X is not None and X.blocks.shape == (s, m, p)
                    assert np.array_equal(expand(X), gf_matmul(dense_inv, expand(B), q))
    assert repairs and outcomes == {True, False}


@pytest.mark.parametrize("p,q", [(13, 127), (5, 3), (13, 65521)])
def test_qc_solve_on_narrow_buffers_matches_the_int64_buffer(repairs, p, q):
    # a buffer of the blocks' unsigned type (uint8, or uint16 at q = 65521)
    # solves to what the same system gives on an int64 buffer and to the
    # dense oracle, on generic, repaired and singular systems. E_R - A_p is
    # negative, so formed in the buffer's type it would wrap mod 2^8 or
    # 2^16, not mod q
    dtype = qcalg.symbol_dtype(q)
    rng = np.random.default_rng(70 + p + q)
    outcomes = set()
    for s in (3, 9):
        for kind in ("generic", "non-unit", "equal rows"):
            if kind == "generic":
                blocks = rng.integers(0, q, (s, s, p))
            else:
                blocks = np.array([[_non_unit_entry(rng, p, q) for _ in range(s)] for _ in range(s)])
            if kind == "equal rows":
                blocks[1] = blocks[0]
            wide = np.concatenate([blocks, rng.integers(0, q, (s, 5, p))], axis=1)
            narrow = wide.astype(dtype)
            dense_inv = gf_inv_dense(expand(QCMatrix(blocks, q)), q)
            B = expand(QCMatrix(wide[:, s:], q))
            X_wide, X_narrow = qc_solve(wide, q), qc_solve(narrow, q)
            outcomes.add(dense_inv is not None)
            if dense_inv is None:
                assert X_wide is None and X_narrow is None
            else:
                assert X_wide.dtype == np.int64 and X_narrow.dtype == dtype
                assert np.array_equal(X_narrow, X_wide)
                assert np.array_equal(expand(QCMatrix(X_narrow, q)), gf_matmul(dense_inv, B, q))
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
    blocks[c:, c:] = identity(s - c, p, Q).blocks
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


def test_zero_block_row_or_column_is_singular_by_the_elimination(repairs):
    # no pre-pass looks for zero blocks: the elimination stalls at the
    # column with no unit in any free row, block column 2 when that column
    # is zero, or the last one when only the zero row 2 is left free, and
    # the repair there has no row to add, so it is what returns None
    rng = np.random.default_rng(15)
    for zero, stall in ((np.s_[2], 3), (np.s_[:, 2], 2)):
        blocks = rng.integers(1, Q, (4, 4, 5))
        blocks[zero] = 0
        A = QCMatrix(blocks, Q)
        assert gf_inv_dense(expand(A), Q) is None
        repairs.clear()
        assert qc_mat_inv(A) is None
        assert repairs == [stall]


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


# --- vectors ---------------------------------------------------------------

def test_sparse_vector_invariants():
    # a position array's entries are multiplicities mod q, in any order
    rng = np.random.default_rng(18)
    A = rand_qc(rng, 3, 2, 5)
    dense = expand(A)
    assert np.array_equal(qc_mat_gather(A, [7, 2, 7]), (dense[:, 2] + 2 * dense[:, 7]) % Q)
    assert np.array_equal(qc_mat_gather(A, [2, 7, 7]), qc_mat_gather(A, [7, 7, 2]))
    assert not qc_mat_gather(A, [4] * Q).any()
    assert not qc_mat_gather(A, np.zeros(0, dtype=np.int64)).any()
    for outside in ([10], [-1], [3, 10]):
        with pytest.raises(DimensionMismatchError):
            qc_mat_gather(A, outside)


def test_sparse_add_matches_dense():
    # the sum of two sparse vectors is the concatenation of their positions
    rng = np.random.default_rng(18)
    for _ in range(100):
        p = int(rng.choice([3, 5, 13]))
        A = rand_qc(rng, 2, 3, p)
        a, b = rand_positions(rng, 3 * p), rand_positions(rng, 3 * p)
        want = gf_matmul(expand(A), (dense_vector(a, 3 * p, Q) + dense_vector(b, 3 * p, Q))[:, None],
                         Q)[:, 0]
        assert np.array_equal(qc_mat_gather(A, np.concatenate([a, b])), want)
        assert np.array_equal((qc_mat_gather(A, a) + qc_mat_gather(A, b)) % Q, want)


def test_qc_mat_vec_unit_vectors_read_columns():
    rng = np.random.default_rng(19)
    A = rand_qc(rng, 3, 2, 5)
    dense = expand(A)
    for i in (0, 4, 9):
        e = np.zeros(10, dtype=np.int64)
        e[i] = 1
        assert np.array_equal(qc_mat_vec(A, e), dense[:, i])
        assert np.array_equal(qc_mat_gather(A, [i]), dense[:, i])


def test_qc_mat_vec_oracle_sparse_and_dense():
    rng = np.random.default_rng(20)
    for _ in range(100):
        p = int(rng.choice([3, 5, 13]))
        m, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rand_qc(rng, m, c, p)
        v = rng.integers(0, Q, c * p)
        assert np.array_equal(qc_mat_vec(A, v), gf_matmul(expand(A), v[:, None], Q)[:, 0])
        pos = rand_positions(rng, c * p)
        assert np.array_equal(qc_mat_gather(A, pos),
                              gf_matmul(expand(A), dense_vector(pos, c * p, Q)[:, None], Q)[:, 0])
    assert not qc_mat_vec(A, np.zeros(c * p, dtype=np.int64)).any()
    with pytest.raises(DimensionMismatchError):
        qc_mat_vec(A, np.zeros(m * p + c * p, dtype=np.int64))
    with pytest.raises(DimensionMismatchError):
        qc_mat_gather(A, [c * p])


@pytest.mark.parametrize("q,bits", [(127, 8), (127, 16), (65521, 16), (65521, 32)])
def test_gather_at_the_largest_count_of_each_sum_type_does_not_wrap(q, bits):
    # every entry q - 1 and one position repeated: count (q - 1) is the
    # largest sum a count can give. The largest count whose sum fits in
    # `bits` bits is summed in that width, and one more in the next
    A = QCMatrix(np.full((2, 1, 3), q - 1), q)
    top = (2**bits - 1) // (q - 1)
    for count in (top, top + 1):
        got = qc_mat_gather(A, np.zeros(count, dtype=np.int64))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.full(2 * 3, count * (q - 1) % q))


@pytest.mark.parametrize("chunk", [1, 3, qcalg._VEC_CHUNK])
def test_qc_mat_vec_chunks_match_dense_when_rows_are_not_a_multiple(chunk, monkeypatch):
    # block rows are correlated `chunk` at a time; 2 chunk + 1 rows leave a
    # last chunk of one row, and all-(q-1) operands give the largest sums
    monkeypatch.setattr(qcalg, "_VEC_CHUNK", chunk)
    rng = np.random.default_rng(80 + chunk)
    for q, p in ((127, 13), (65521, 5)):
        for rows0 in (1, chunk + 1, 2 * chunk + 1):
            for full in (False, True):
                A = QCMatrix(np.full((rows0, 4, p), q - 1), q) if full else rand_qc(rng, rows0, 4, p, q)
                v = np.full(4 * p, q - 1) if full else rng.integers(0, q, 4 * p)
                got = qc_mat_vec(A, v)
                assert got.dtype == np.int64
                assert np.array_equal(got, gf_matmul(expand(A), v[:, None], q)[:, 0])


@pytest.mark.parametrize("p", [1, 2, 13, 101])
def test_qc_mat_vec_both_paths_match_dense_at_every_shape(p, monkeypatch):
    # rows0 < cols0 and rows0 > cols0 catch a product taken against the
    # wrong block axis; all-(q-1) operands give the largest coefficients.
    # More positions than one gather chunk cross chunk boundaries.
    monkeypatch.setattr(qcalg, "_GATHER_CHUNK", 3)
    rng = np.random.default_rng(50 + p)
    for rows0, cols0 in ((1, 1), (2, 5), (5, 2), (3, 3)):
        for full in (False, True):
            A = rand_qc(rng, rows0, cols0, p)
            if full:
                A = QCMatrix(np.full((rows0, cols0, p), Q - 1), Q)
            v = np.full(cols0 * p, Q - 1) if full else rng.integers(0, Q, cols0 * p)
            want = gf_matmul(expand(A), v[:, None], Q)[:, 0]
            assert np.array_equal(qc_mat_vec(A, v), want)
            assert np.array_equal(qc_mat_gather(A, np.repeat(np.arange(v.size), v)), want)
            pos = rand_positions(rng, cols0 * p, density=0.3)
            want = gf_matmul(expand(A), dense_vector(pos, cols0 * p, Q)[:, None], Q)[:, 0]
            assert np.array_equal(qc_mat_gather(A, pos), want)
            assert np.array_equal(qc_mat_vec(A, dense_vector(pos, cols0 * p, Q)), want)


# --- permutations ----------------------------------------------------------

def test_perm_identity_and_shift_example():
    ident = QCPermutation(np.arange(3), np.zeros(3, dtype=np.int64), 5)
    assert perm_apply(ident, np.array([7, 1])).tolist() == [7, 1]
    # a single-block shift by x^2 maps index 0 to index 2
    P = QCPermutation(np.array([0]), np.array([2]), 5)
    assert perm_apply(P, np.array([0])).tolist() == [2]


def test_perm_expansion_is_permutation_matrix():
    rng = np.random.default_rng(21)
    for _ in range(50):
        P = random_qc_permutation(4, 7, rng)
        M = perm_dense(P, Q)
        assert np.array_equal(np.sort(M.sum(axis=0)), np.ones(28))
        assert np.array_equal(np.sort(M.sum(axis=1)), np.ones(28))


def test_perm_apply_matches_expansion_and_inverts():
    rng = np.random.default_rng(22)
    for _ in range(100):
        P = random_qc_permutation(4, 7, rng)
        s = rng.choice(28, size=rng.integers(0, 29), replace=False)
        out = perm_apply(P, s)
        assert np.unique(out).size == s.size
        assert np.array_equal(dense_vector(out, 28, Q),
                              gf_matmul(perm_dense(P, Q), dense_vector(s, 28, Q)[:, None], Q)[:, 0])
        # permutation inverse = transpose of the expansion
        Pi = qc_mat_inv(perm_qc_matrix(P, Q))
        assert np.array_equal(expand(Pi), perm_dense(P, Q).T)
