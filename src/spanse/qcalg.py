"""The circulant polynomial ring R_p = F_q[x]/(x^p - 1) and block matrices over it.

A p x p circulant matrix is identified with the polynomial whose
coefficients are its first row; row r of the matrix is the first row
cyclically right-shifted r times, i.e. entry (r, c) = a_{(c-r) mod p}.
Multiplication of circulants is cyclic convolution of first rows.

Block matrices of circulants (QCMatrix) store one row per block, a
factor-p saving over the dense expansion, which only the tests form; a
ring element is a 1 x 1 QCMatrix. A QCMatrix keeps a C-ordered array of
the narrowest unsigned type that holds q - 1 (symbol_dtype: uint8 for
every q <= 256, so one byte a symbol, as the key files store them) that
is canonical mod q as given, so its owner must not write to it
afterwards, and copies any other. A sparse vector is the int64 array of
its positions, each counted once per occurrence, so a sum of sparse
vectors is a concatenation. expand(A) v^T is read from A as stored:
qc_mat_gather sums the columns at a position array into an accumulator
wide enough for their count, and qc_mat_vec correlates a dense v in
chunks of A's block rows. Every block product (block matrix, dense
vector, pivot step) runs through one batched cyclic convolution kernel in
two halves: a real FFT zero-padded to the power of two that holds the
linear convolution, then one np.matmul of the spectra per frequency,
whatever the shape, the inverse transform and a fold mod x^p - 1, plus
an optional acc, so a row update is one kernel call. The kernel widens
its operands to float64 inside and writes its result into any integer
array, the caller's slice included; a loop of products hands it one set
of work buffers (_Buffers), so the loop allocates them once. A spectrum
may serve several products. Coefficients are small enough (bounded by
inner_dim * p * (q-1)^2 <= 2^40) that rounding the inverse transform is
exact, which is asserted on every product.

A pivot is a unit of R_p exactly when its idempotent e = a b is 1, where b
comes from one closed form by Frobenius exponentiation (a^(q^d - 2) with
d = ord_p(q) when p != q): one chain of ring products gives the inverse b,
the unit test and the repair multiplier 1 - e. Its 1 x 1 products are
direct np.convolve calls folded mod x^p - 1, exact in int64.

Linear systems A X = B are solved, never by forming A^{-1}: qc_solve runs
panelled Gauss-Jordan without row swaps, in place, on a caller's buffer
[A | B] of any integer type, and tests A alone when B has no block
columns. Its docstring gives the panels, the scan and tile that find
their pivots, and the repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

# Largest bound inner * p * (q-1)^2 on a coefficient for which rounding the
# float64 FFT product is trusted. Doubles hold integers to 2^53, but the
# transforms' rounding error grows with the magnitude: a (1, 1024) x
# (1024, 1) product at q = 65521, p = 101 (about 2^48.7) came back with
# more than half of its 101 coefficients wrong, and errors first appeared
# between 2^47.7 and 2^48.6. 2^40 keeps a factor of 2^7 below that;
# spanse-128's largest product is about 2^28.5.
_FFT_EXACT_BOUND = 2**40

# Pivot columns per panel of qc_solve. Each panel ends in products of this
# inner dimension over the live block columns, so a wider panel makes fewer
# passes over the matrix. Every ParameterSet has q <= 256 and p < 2^16, so
# such a product is below 8 * 65535 * 255^2 < 2^35, within _FFT_EXACT_BOUND;
# at a larger q or p, qc_solve raises OverflowError instead.
_PANEL_WIDTH = 8

# Positions per gather of qc_mat_gather. All of a signing attempt's ~160
# at once would gather 3.8 MB of uint8 at spanse-128 (238 block rows); 32
# keep it at 0.77 MB at the same speed (3.0 to 4.1 ms an attempt for 16 to
# 160 positions a gather, against 6.8 ms on int64 blocks, measured in one
# process).
_GATHER_CHUNK = 32

# Block rows of A per product of qc_mat_vec. A spanse-128 verify peaks at
# 6.4 MB of tracemalloc with chunks of 8 and at 83 MB with all 119 block
# rows of H' at once, whose spectrum alone is 58 MB of complex128; its CPU
# time was the same, 30 to 35 ms, for chunks of 1 to 16.
_VEC_CHUNK = 8


class DimensionMismatchError(ValueError):
    """Operands disagree on p, q or block geometry."""


# ---------------------------------------------------------------------------
# units of R_p (coefficient arrays of length p, canonical mod q): a is a unit
# exactly when its idempotent e is 1
# ---------------------------------------------------------------------------

def _poly_inv_raw(a: np.ndarray, p: int, q: int) -> np.ndarray | None:
    """Inverse of a(x) in F_q[x]/(x^p - 1), or None when a is not a unit."""
    b, e = _unit_idempotent(a, p, q)
    return b if e[0] == 1 and not e[1:].any() else None


def _unit_idempotent(a: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(b, e): e = a b is the idempotent of R_p that is 1 exactly where a is a unit.

    Write p = m k with k the largest power of q dividing p, d = ord_m(q) and
    r = 1 + q + ... + q^(d-1). A unit's order divides (q^d - 1) k, and a
    non-unit of a local factor of R_p has a^k = 0 there. So b = t u^(q - 2)
    and e = u^(q - 1), with t = a^(k r - 1) and u = a t. When q does not
    divide p (k = 1), R_p is a product of fields and a (1 - e) = 0; the
    local ring p = q (k = q, d = 1) gets b = a^(q - 1) a(1)^(q - 2).

    Powers by q^j are gathers, a(x)^(q^j) = a(x^(q^j)), so Itoh-Tsujii's
    chain r_2n = r_n + q^n r_n, r_(n+1) = 1 + q r_n gives y = a^(r_(d-1)),
    r_n = 1 + q + ... + q^(n-1), in O(log d) products; t = a^(k-1) y^(k q).
    """
    a = np.asarray(a, dtype=np.int64) % q
    k = 1
    while p % (k * q) == 0:
        k *= q
    m, d, qd = p // k, 1, q % (p // k)  # qd = q^d mod m
    while qd != 1 % m:
        d, qd = d + 1, qd * q % m
    y, c = np.eye(1, p, dtype=np.int64)[0], 0  # y = a^(r_c)
    for bit in bin(d - 1)[2:]:
        if c:
            y, c = _ring_mul(y, _frobenius(y, pow(q, c, p)), q), 2 * c
        if bit == "1":
            y, c = (_ring_mul(a, _frobenius(y, q), q) if c else a), c + 1
    t = _ring_pow(a, k - 1, _frobenius(y, k * q), q)
    b = _ring_pow(_ring_mul(a, t, q), q - 2, t, q)
    return b, _ring_mul(a, b, q)


def _frobenius(a: np.ndarray, s: int) -> np.ndarray:
    """a(x^s) in R_p: coefficient i moves to i s mod p. Not reduced mod q:
    when s is not a unit mod p, several coefficients add up in one."""
    p = a.size
    return np.bincount(np.arange(p) * (s % p) % p, weights=a, minlength=p).astype(np.int64)


def cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b mod x^n - 1 for a and b of one length n, not reduced mod q: a
    direct convolution, with coefficient n + t folded into coefficient t."""
    n = a.size
    lin = np.convolve(a, b)
    out = lin[:n]
    out[: n - 1] += lin[n:]
    return out


def _ring_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a b in R_p, exact in int64."""
    return cyclic_convolve(a, b) % q


def _ring_pow(a: np.ndarray, n: int, acc: np.ndarray, q: int) -> np.ndarray:
    """acc a^n in R_p by square and multiply."""
    while n:
        if n & 1:
            acc = _ring_mul(acc, a, q)
        n >>= 1
        if n:
            a = _ring_mul(a, a, q)
    return acc


# ---------------------------------------------------------------------------
# batched block products (cyclic convolution via rfft, exact by bound check)
# ---------------------------------------------------------------------------

def _assert_fft_exact(inner: int, p: int, q: int):
    if inner * p * (q - 1) ** 2 > _FFT_EXACT_BOUND:
        raise OverflowError(
            "block product too large for exact FFT accumulation "
            f"(inner={inner}, p={p}, q={q})"
        )


def _fft_length(p: int) -> int:
    """n, the smallest power of two above 2p - 1: it holds the linear
    convolution's 2p - 1 coefficients and one more, so the kernel reduces
    in the coefficients p..2p - 1 of its own linear buffer once the fold
    has read them. On 84 * 85 rows, numpy's rfft takes about 30 ms at the
    prime length 101 and 11 ms at 256."""
    return 1 << (2 * p - 1).bit_length()


class _Buffers:
    """Work arrays that a loop of kernel products reuses, so the loop
    allocates each once per call and not once per product: each name holds
    one flat array, grown when a product needs more and viewed at the
    product's shape. Allocated afresh for every panel slice instead, they
    made a p101-shape keygen (n0 = 84) take 52 k minor page faults and
    0.27 s of CPU, against 1.6 k and 0.19 s: whether glibc maps an array of
    a megabyte or so afresh, and faults its pages in again, depends on what
    the process freed before."""

    def __init__(self):
        self._flat: dict[tuple[str, np.dtype], np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key, size = (name, np.dtype(dtype)), math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _block_matmul(A: np.ndarray, B: np.ndarray, p: int, q: int,
                  acc: np.ndarray | None = None, out: np.ndarray | None = None,
                  buffers: _Buffers | None = None) -> np.ndarray:
    """(acc + A B) mod q, (m, k, p) x (k, n, p) -> (m, n, p), by block convolutions.

    The one FFT convolution kernel: every product in the ring goes through
    here, with m, k or n set to 1 for polynomials, vectors and outer products,
    or through its two halves, _spectrum and _spectral_matmul, when one
    operand's spectrum serves several products.
    """
    return _spectral_matmul(_spectrum(A, p), _spectrum(B, p), p, q, acc, out, buffers)


def _spectrum(A: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """The kernel's spectrum half: (rows, cols, p) blocks of any real type ->
    (rows, cols, n // 2 + 1), each block zero-padded to n = _fft_length(p).
    out may be a transposed view of a frequency-major buffer, which
    np.matmul then reads as contiguous matrices."""
    return np.fft.rfft(A, n=_fft_length(p), axis=-1, out=out)


def _spectral_matmul(FA: np.ndarray, FB: np.ndarray, p: int, q: int,
                     acc: np.ndarray | None = None, out: np.ndarray | None = None,
                     buffers: _Buffers | None = None) -> np.ndarray:
    """The kernel's product half: (acc + A B) mod q from spectra of (m, k, p) A, (k, n, p) B,
    written into out (which may be acc) or a new int64 array.

    np.matmul multiplies frequency-major views of the spectra, one
    (m, k) x (k, n) complex product per frequency, into a frequency-major
    buffer, and the inverse transform runs along that buffer's first axis:
    on one (84 x 8) x (8 x 8) slice at p = 101 this took 1.5 ms against
    3.0 ms for a product transposed back to the layout rfft returns. Ring
    elements, vectors and outer products (m = 1 or k = 1) take the same
    path. The products are at most 238 x 8 x 8 in qc_solve (spanse-128),
    too small for OpenBLAS to start its threads: with two BLAS threads, a
    spanse-128 keygen or verify takes as much CPU time as wall time, so no
    idle BLAS thread spins.

    The linear result is folded mod x^p - 1 in float64, adding coefficient
    p + t into coefficient t, acc is added, and the sum is rounded and
    reduced as x - q floor(x / q), exact for integers |x| < 2^41, so
    operands may be negative (np.fmod in its place made p101 keygen about
    twice as slow). Every step writes into buffers, and the result is cast
    once into out.
    """
    _assert_fft_exact(FA.shape[1], p, q)
    if buffers is None:
        buffers = _Buffers()
    (m, _, f), n, length = FA.shape, FB.shape[1], _fft_length(p)
    fc = buffers.take("product", (f, m, n), np.complex128)
    np.matmul(FA.transpose(2, 0, 1), FB.transpose(2, 0, 1), out=fc)
    lin = np.fft.irfft(fc, n=length, axis=0,
                       out=buffers.take("linear", (length, m, n), np.float64))
    lin = lin.transpose(1, 2, 0)
    # the quotient goes where the fold has read coefficients p..2p - 1
    res, quotient = lin[..., :p], lin[..., p : 2 * p]
    res[..., : p - 1] += quotient[..., : p - 1]
    if acc is not None:
        res += acc
    np.rint(res, out=res)
    np.divide(res, q, out=quotient)
    np.floor(quotient, out=quotient)
    quotient *= q
    res -= quotient
    if out is None:
        out = np.empty((m, n, p), dtype=np.int64)
    np.copyto(out, res, casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

def symbol_dtype(q: int) -> np.dtype:
    """The narrowest unsigned type that holds q - 1: uint8 for every q <= 256."""
    return np.min_scalar_type(q - 1)


@dataclass(frozen=True)
class QCMatrix:
    """rows0 x cols0 grid of circulant blocks; blocks[i, j] is a first row."""

    blocks: np.ndarray  # (rows0, cols0, p) of symbol_dtype(q), canonical mod q
    q: int

    def __post_init__(self):
        b = np.asarray(self.blocks)
        if b.ndim != 3:
            raise DimensionMismatchError("blocks must have shape (rows0, cols0, p)")
        dtype = symbol_dtype(self.q)
        if b.dtype != dtype or b.size and b.max() >= self.q:
            # reduced in int64, so a negative entry or one past the type's
            # range reduces as an integer; a copy, never the caller's array
            b = np.asarray(b, dtype=np.int64) % self.q
        # a canonical array of the symbol type is kept, or copied into C order
        object.__setattr__(self, "blocks", np.ascontiguousarray(b, dtype=dtype))

    @property
    def rows0(self) -> int:
        return self.blocks.shape[0]

    @property
    def cols0(self) -> int:
        return self.blocks.shape[1]

    @property
    def p(self) -> int:
        return self.blocks.shape[2]

    def transpose(self) -> "QCMatrix":
        return QCMatrix(_reverse(self.blocks.swapaxes(0, 1)), self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QCMatrix)
            and self.q == other.q
            and np.array_equal(self.blocks, other.blocks)
        )


def qc_solve(aug: np.ndarray, q: int) -> np.ndarray | None:
    """The blocks of A^{-1} B, in aug's type, for the (s, s + t, p) buffer
    [A | B] of any integer type, canonical mod q, or None when A is
    singular. aug is eliminated in place.

    Gauss-Jordan over the ring R_p on [A | B], pivoting onto a unit entry
    of each column of A. B may have any number t of block columns,
    including none, which only tests A. Rows are never swapped: the pivot
    row of each column is recorded, and row c of the result is the right
    half of the row that pivoted column c. The row operations depend on A
    alone, so B = I would give A^{-1}.

    The pivot columns are taken in panels of b = _PANEL_WIDTH = 8. aug is
    exact when a panel starts, so it scans its first column's free rows
    (not yet pivots) for a unit. The tile is that row and the free rows
    after it, at most b: Gauss-Jordan runs on the tile's rows of the
    panel's columns A_p (as they stand before the panel) and a record D of
    the transform's columns at the pivot rows, b x 2b blocks however large
    A is. At a column where no remaining tile row has a unit the panel
    ends, and the next one scans that column afresh.

    At the panel's k pivot rows R the tile's D equals M^{-1}, M = A_p[R, :k],
    so one product of inner dimension k gives, for all s rows,
    D - I = (E_R - A_p[:, :k]) M^{-1}, with E_R the 1 at (R[i], i); the
    panel's transform differs from I only in those columns. Products then
    apply it to every other live block column, including the panel's own
    columns after an early stop, aug[:, other] += (D - I) * aug[R, other],
    in slices of at most b block columns: a dense B makes all its columns
    live from the first panel, and the slices keep the spectra small. The
    spectrum of D - I is taken once per panel and serves every slice. The
    live columns are cut into their contiguous runs, and each slice of a
    run is updated through a view of aug. The eliminated columns become
    E_R. The kernel's work buffers serve every product of the call, and
    every sum that may be negative, such as E_R - A_p, is formed in
    float64, never in aug's unsigned type.

    When the scan finds no free row with a unit, a repair step adds
    (1 - e) * (row r) to the first free row for each other free row r, with
    e the pivot's idempotent (_unit_idempotent): 1 in the CRT components of
    R_p where the pivot is nonzero, 0 elsewhere. Each addition is a
    unimodular row operation that fills in the components where the pivot
    vanishes and leaves the others; the repaired row then pivots.

    A is singular iff no addition makes the pivot a unit: then some CRT
    component of the column is zero in every free row. This criterion is
    exact for every prime p (x^p - 1 is squarefree over F_q when p != q,
    and R_p is a local ring when p = q), and it is the only singularity
    test: a zero block row or column of A is found as any other, when the
    elimination reaches a column with no unit and the repair has none to
    add. No dense expansion is formed.
    """
    if aug.ndim != 3 or aug.shape[1] < aug.shape[0]:
        raise DimensionMismatchError(f"cannot solve [A | B] of block shape {aug.shape[:-1]}")
    s, p = aug.shape[0], aug.shape[2]
    buffers = _Buffers()
    free = list(range(s))  # rows not yet chosen as a pivot, in order
    piv: list[int] = []  # pivot row of each eliminated column
    while len(piv) < s:
        col = len(piv)
        first = (_find_unit(aug[:, col], free, p, q)
                 or _repair_pivot(aug, col, free, p, q, buffers))
        if first is None:
            return None
        piv += _eliminate_panel(aug, col, free, first, p, q, buffers)
    return aug[piv, s:]


def _eliminate_panel(aug: np.ndarray, col: int, free: list[int],
                     first: tuple[int, np.ndarray], p: int, q: int,
                     buffers: _Buffers) -> list[int]:
    """Eliminate block columns col, col + 1, ... of aug in one panel.

    first is (row, inverse of its entry in column col), the pivot found
    for column col. The tile is that row and the free rows after it; the
    panel stops after _PANEL_WIDTH columns, at the last column of A, or at
    one with no unit in the tile; the slices that apply it are at most
    _PANEL_WIDTH block columns wide. Pivot rows leave free and are
    returned in column order; aug is exact again on return.
    """
    s, f = aug.shape[0], _fft_length(p) // 2 + 1
    width = min(_PANEL_WIDTH, s - col)
    panel = aug[:, col : col + width]  # A_p: read, not written, until the panel is applied
    start = free.index(first[0])
    tile = free[start : start + width]
    # the tile's panel columns, then D: column j starts as e_r when tile row
    # r pivots column col + j, and every later row operation acts on it
    work = np.zeros((len(tile), 2 * width, p), dtype=np.int64)
    work[:, :width] = panel[tile]
    rows: list[int] = []  # tile rows of the pivots, in column order
    found = 0, first[1]
    for j in range(width):
        if j:
            found = _find_unit(work[:, j], [i for i in range(len(tile)) if i not in rows], p, q)
            if found is None:
                break
        r, pivot_inv = found
        free.remove(tile[r])
        rows.append(r)
        work[r, width + j, 0] = 1
        # the pivot row is zero left of column j, which earlier pivots
        # eliminated, and right of D's column j, which no row operation
        # has reached yet, so the products act on the columns between
        live = work[:, j : width + j + 1]
        pivot_row = live[r : r + 1]
        _block_matmul(pivot_inv[None, None], pivot_row, p, q, out=pivot_row, buffers=buffers)
        factors = -work[:, j] % q  # each row subtracts its factor times the pivot row
        factors[r] = 0
        if factors.any():
            _block_matmul(factors[:, None], pivot_row, p, q, live, live, buffers)
    pivots = [tile[i] for i in rows]
    k = len(pivots)
    # D at the pivot rows is M^{-1}, M = A_p[pivots, :k], so for all s
    # rows D - I = (E_R - A_p[:, :k]) M^{-1}, E_R with 1 at (pivots[i], i)
    e_minus_a = buffers.take("panel", (s, k, p), np.float64)
    np.negative(panel[:, :k], out=e_minus_a, dtype=np.float64)
    e_minus_a[pivots, np.arange(k), 0] += 1
    # one frequency-major buffer holds the spectrum of E_R - A_p, then of D - I
    spectrum = buffers.take("panel spectrum", (f, s, k), np.complex128).transpose(1, 2, 0)
    d_minus_i = _spectral_matmul(_spectrum(e_minus_a, p, spectrum),
                                 _spectrum(work[rows, width : width + k], p), p, q,
                                 out=e_minus_a, buffers=buffers)
    d_spectrum = _spectrum(d_minus_i, p, spectrum)
    # columns left of the panel are zero in every pivot row; the panel's
    # columns after an early stop are updated with the rest. Each run of
    # live columns is cut into slices of at most _PANEL_WIDTH, each a view
    # of aug
    live = aug[pivots].any(axis=(0, 2))
    live[: col + k] = False
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
    for start, end in zip(edges[::2], edges[1::2]):
        for lo in range(start, end, _PANEL_WIDTH):
            block = aug[:, lo : min(lo + _PANEL_WIDTH, end)]
            rows_spectrum = buffers.take("slice spectrum", (f, k, block.shape[1]), np.complex128)
            _spectral_matmul(d_spectrum,
                             _spectrum(block[pivots], p, rows_spectrum.transpose(1, 2, 0)),
                             p, q, block, block, buffers)
    aug[:, col : col + k] = 0
    aug[pivots, col + np.arange(k), 0] = 1
    return pivots


def _find_unit(column: np.ndarray, free: list[int], p: int,
               q: int) -> tuple[int, np.ndarray] | None:
    """(row, inverse) for the first free row whose entry is a unit, or None."""
    for r in free:
        inv = _poly_inv_raw(column[r], p, q) if column[r].any() else None
        if inv is not None:
            return r, inv
    return None


def _repair_pivot(aug: np.ndarray, col: int, free: list[int], p: int, q: int,
                  buffers: _Buffers) -> tuple[int, np.ndarray] | None:
    """Make aug[free[0], col] a unit by adding multiples of the other free rows.

    Updates aug[free[0]] in place and returns (free[0], inverse of the new
    pivot), or None when no unit can be reached (the matrix is singular).
    """
    target = free[0]
    one = np.eye(1, p, dtype=np.int64)[0]
    e = _unit_idempotent(aug[target, col], p, q)[1]
    for r in free[1:]:
        if not aug[r, col].any():
            continue  # adding this row cannot change the pivot
        h = (one - e) % q
        row = aug[target][None]
        _block_matmul(h[None, None], aug[r][None], p, q, row, row, buffers)
        pivot_inv, e = _unit_idempotent(aug[target, col], p, q)
        if np.array_equal(e, one):
            return target, pivot_inv
    return None


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def qc_mat_vec(A: QCMatrix, v: np.ndarray) -> np.ndarray:
    """expand(A) v^T over F_q, as int64, for a dense v canonical mod q, read
    from A's blocks as stored: entry (u, c) of circ(a) is a_{(c-u) mod p},
    so block i is the correlation rev(sum_j a_ij * rev v_j), one vector
    product on the FFT kernel for each chunk of _VEC_CHUNK block rows, with
    v's spectrum taken once and the chunks' work buffers reused."""
    p, q = A.p, A.q
    if np.size(v) != A.cols0 * p:
        raise DimensionMismatchError(f"vector length {np.size(v)} != {A.cols0 * p}")
    fv = _spectrum(_reverse(np.asarray(v, dtype=np.int64).reshape(1, A.cols0, p)), p)
    out = np.empty((1, A.rows0, p), dtype=np.int64)
    buffers = _Buffers()
    for lo in range(0, A.rows0, _VEC_CHUNK):
        rows = A.blocks[lo : lo + _VEC_CHUNK].swapaxes(0, 1)
        real = buffers.take("rows", rows.shape, np.float64)
        real[...] = rows  # widened into a buffer, not a fresh array per chunk
        spectrum = buffers.take("rows spectrum", rows.shape[:2] + fv.shape[2:], np.complex128)
        _spectral_matmul(fv, _spectrum(real, p, spectrum), p, q,
                         out=out[:, lo : lo + _VEC_CHUNK], buffers=buffers)
    return _reverse(out).reshape(-1)


def qc_mat_gather(A: QCMatrix, positions: np.ndarray) -> np.ndarray:
    """expand(A) v^T over F_q, as int64, for the v whose entry at each
    position is the number of times it occurs in `positions`: the sum of
    those columns of expand(A), gathered from A's blocks as stored,
    O(|positions| rows0 p). The sum is taken in the narrowest unsigned type
    that holds |positions| (q - 1), so it cannot wrap."""
    p, q = A.p, A.q
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= A.cols0 * p):
        raise DimensionMismatchError(f"position outside [0, {A.cols0 * p})")
    blk, off = np.divmod(positions, p)
    # entry u of column blk*p + off sits at offset (off - u) mod p of block column blk
    cols = blk[:, None] * p + (off[:, None] - np.arange(p)) % p
    flat = A.blocks.reshape(A.rows0, -1)
    total = np.min_scalar_type(positions.size * (q - 1))
    out = np.zeros((A.rows0, p), dtype=total)
    for lo in range(0, len(cols), _GATHER_CHUNK):
        out += flat[:, cols[lo : lo + _GATHER_CHUNK]].sum(axis=1, dtype=total)
    return (out % q).astype(np.int64).reshape(-1)


def _reverse(x: np.ndarray) -> np.ndarray:
    """(rev x)_t = x_{-t mod p} along the last axis; circ(rev a) = circ(a)^T."""
    # one C-ordered array whatever x's layout, so a transpose reverses a
    # swapped view without a second copy: x[..., index] comes back with
    # its last axis outermost, which QCMatrix would copy into C order
    out = np.empty(x.shape, dtype=x.dtype)
    out[..., 0] = x[..., 0]
    out[..., 1:] = x[..., :0:-1]
    return out


# ---------------------------------------------------------------------------
# QC permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QCPermutation:
    """Block permutation with per-block cyclic shifts.

    Maps input index pi(i)*p + j to output index i*p + (j + shift_i) mod p;
    the expansion has exactly one 1 per row and column and is QC.
    """

    block_perm: np.ndarray  # pi, permutation of {0..m-1}
    shifts: np.ndarray  # t_i in [0, p)
    p: int
    inverse: np.ndarray = dc_field(init=False, repr=False, compare=False)  # pi^{-1}

    def __post_init__(self):
        perm = np.asarray(self.block_perm, dtype=np.int64)
        shifts = np.asarray(self.shifts, dtype=np.int64) % self.p
        if perm.size != shifts.size:
            raise DimensionMismatchError("permutation/shift length mismatch")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("block_perm is not a bijection")
        object.__setattr__(self, "block_perm", perm)
        object.__setattr__(self, "shifts", shifts)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        object.__setattr__(self, "inverse", inv)


def perm_apply(P: QCPermutation, positions: np.ndarray) -> np.ndarray:
    """The positions of P s for the vector s with ones at `positions`."""
    blk, off = np.divmod(positions, P.p)
    out_blk = P.inverse[blk]
    return out_blk * P.p + (off + P.shifts[out_blk]) % P.p


def random_qc_permutation(size0: int, p: int, rng: np.random.Generator) -> QCPermutation:
    return QCPermutation(rng.permutation(size0), rng.integers(0, p, size=size0), p)
