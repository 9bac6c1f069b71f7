"""The circulant polynomial ring R_p = F_q[x]/(x^p - 1) and block matrices over it.

A p x p circulant matrix is identified with the polynomial whose
coefficients are its first row; row r of the matrix is the first row
cyclically right-shifted r times, i.e. entry (r, c) = a_{(c-r) mod p}.
Multiplication of circulants is cyclic convolution of first rows.

Block matrices of circulants (QCMatrix) store one row per block, a
factor-p saving over the dense expansion, which only the tests form; a
ring element is a 1 x 1 QCMatrix. A QCMatrix keeps a C-ordered int64
array that is canonical mod q as given, so its owner must not write to it
afterwards, and copies any other. A sparse vector is the int64 array of
its positions, each counted once per occurrence, so a sum of sparse
vectors is a concatenation. expand(A) v^T is read from A as stored:
qc_mat_gather sums the columns at a position array, and qc_mat_vec
correlates a dense v. Every block product (block matrix, dense vector,
pivot step) runs through one batched cyclic convolution kernel in two halves: a real FFT
zero-padded to the power of two that holds the linear convolution, then a
contraction of the spectra (np.matmul on BLAS for block products, einsum
for vectors and outer products), the inverse transform and a fold mod
x^p - 1, plus an optional int64 acc, so a row update is one kernel call.
A spectrum may serve several products. Coefficients are small enough
(bounded by inner_dim * p * (q-1)^2 <= 2^40) that rounding the inverse
transform is exact, which is asserted on every product.

A pivot is a unit of R_p exactly when its idempotent e = a b is 1, where b
comes from one closed form by Frobenius exponentiation (a^(q^d - 2) with
d = ord_p(q) when p != q): one chain of ring products gives the inverse b,
the unit test and the repair multiplier 1 - e. Its 1 x 1 products are
direct np.convolve calls folded mod x^p - 1, exact in int64.

Linear systems A X = B are solved, never by forming A^{-1}: qc_solve runs
panelled Gauss-Jordan without row swaps, in place, on a caller's buffer
[A | B], and tests A alone when B has no block columns. Its docstring
gives the panels, the scan and tile that find their pivots, and the repair.
"""

from __future__ import annotations

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
# passes over the matrix; _panel_width shrinks it for large p and q.
_PANEL_WIDTH = 8

# Positions per gather of qc_mat_gather. All of a signing attempt's ~160
# at once would gather 30 MB at spanse-128 (238 block rows); 32 keep it at
# 6 MB at about the same speed (3.84 against 3.63 ms per attempt,
# measured in one process).
_GATHER_CHUNK = 32


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


def _block_matmul(A: np.ndarray, B: np.ndarray, p: int, q: int,
                  acc: np.ndarray | None = None) -> np.ndarray:
    """(acc + A B) mod q, (m, k, p) x (k, n, p) -> (m, n, p), by block convolutions.

    The one FFT convolution kernel: every product in the ring goes through
    here, with m, k or n set to 1 for polynomials, vectors and outer products,
    or through its two halves, _spectrum and _spectral_matmul, when one
    operand's spectrum serves several products.
    """
    return _spectral_matmul(_spectrum(A, p), _spectrum(B, p), p, q, acc)


def _spectrum(A: np.ndarray, p: int) -> np.ndarray:
    """The kernel's spectrum half: (rows, cols, p) blocks -> (rows, cols, n // 2 + 1).

    Each block is zero-padded to n = 2^ceil(log2(2p - 1)), the smallest power
    of two that holds the linear convolution: on 84 * 85 rows, numpy's rfft
    takes about 30 ms at the prime length 101 and 11 ms at 256.
    """
    return np.fft.rfft(A, n=1 << (2 * p - 2).bit_length(), axis=-1)


def _spectral_matmul(FA: np.ndarray, FB: np.ndarray, p: int, q: int,
                     acc: np.ndarray | None = None) -> np.ndarray:
    """The kernel's product half: (acc + A B) mod q from spectra of (m, k, p) A, (k, n, p) B.

    The contraction is chosen by shape. When m = 1 (a vector, or a ring
    element times a block row) or k = 1 (an outer product), einsum streams
    over the spectra in the layout rfft returns: a frequency-major copy of a
    vector product's big operand costs more than the contraction, and an
    outer product has no sum for BLAS to speed up. Otherwise np.matmul
    multiplies frequency-major views, one (m, k) x (k, n) complex product per
    frequency on BLAS. In qc_solve these are at most 238 x 8 x 8 (spanse-128),
    too small for OpenBLAS to start its threads: with two BLAS threads, CPU
    time equals wall time, so no idle BLAS thread spins.

    The linear result is folded mod x^p - 1 in float64, adding coefficient
    p + t into coefficient t, acc is added, and the sum is rounded, reduced
    as x - q floor(x / q), exact for integers x < 2^41, and cast to int64
    once (np.fmod in its place made p101 keygen about twice as slow).
    """
    _assert_fft_exact(FA.shape[1], p, q)
    if FA.shape[0] == 1 or FA.shape[1] == 1:
        fc = np.einsum("ikf,kjf->ijf", FA, FB)
    else:
        fc = np.matmul(FA.transpose(2, 0, 1), FB.transpose(2, 0, 1)).transpose(1, 2, 0)
    lin = np.fft.irfft(fc, n=1 << (2 * p - 2).bit_length(), axis=-1)
    del fc  # free the spectrum before the result is allocated
    out = lin[..., :p]
    out[..., : p - 1] += lin[..., p : 2 * p - 1]
    if acc is not None:
        out += acc
    np.rint(out, out=out)
    quotient = out / q
    np.floor(quotient, out=quotient)
    quotient *= q
    out -= quotient
    del quotient  # free it before the int64 result is allocated
    return out.astype(np.int64)


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QCMatrix:
    """rows0 x cols0 grid of circulant blocks; blocks[i, j] is a first row."""

    blocks: np.ndarray  # (rows0, cols0, p) int64, canonical mod q
    q: int

    def __post_init__(self):
        b = np.asarray(self.blocks)
        if b.ndim != 3:
            raise DimensionMismatchError("blocks must have shape (rows0, cols0, p)")
        if (b.dtype != np.int64 or not b.flags.c_contiguous
                or b.size and (b.min() < 0 or b.max() >= self.q)):
            b = np.array(b, dtype=np.int64, order="C")  # a copy: never the caller's array
            b %= self.q
        object.__setattr__(self, "blocks", b)

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
    """The blocks of A^{-1} B for the (s, s + t, p) int64 buffer [A | B],
    canonical mod q, or None when A is singular. aug is eliminated in place.

    Gauss-Jordan over the ring R_p on [A | B], pivoting onto a unit entry
    of each column of A. B may have any number t of block columns,
    including none, which only tests A. Rows are never swapped: the pivot
    row of each column is recorded, and row c of the result is the right
    half of the row that pivoted column c. The row operations depend on A
    alone, so B = I would give A^{-1}.

    The pivot columns are taken in panels of b = _panel_width(p, q) (8 for
    the scheme's rings). aug is exact when a panel starts, so it scans its
    first column's free rows (not yet pivots) for a unit. The tile is that
    row and the free rows after it, at most b: Gauss-Jordan runs on the
    tile's rows of the panel's columns A_p (as they stand before the panel)
    and a record D of the transform's columns at the pivot rows, b x 2b
    blocks however large A is. At a column where no remaining tile row has
    a unit the panel ends, and the next one scans that column afresh.

    At the panel's k pivot rows R the tile's D equals M^{-1}, M = A_p[R, :k],
    so one product of inner dimension k gives, for all s rows,
    D - I = (E_R - A_p[:, :k]) M^{-1}, with E_R the 1 at (R[i], i); the
    panel's transform differs from I only in those columns. Products then
    apply it to every other live block column, including the panel's own
    columns after an early stop, aug[:, other] += (D - I) * aug[R, other],
    in slices of at most b block columns: a dense B makes all its columns
    live from the first panel, and the slices keep the spectra small. The
    spectrum of D - I is taken once per panel and serves every slice. The
    eliminated columns become E_R.

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
    width = _panel_width(p, q)
    free = list(range(s))  # rows not yet chosen as a pivot, in order
    piv: list[int] = []  # pivot row of each eliminated column
    while len(piv) < s:
        col = len(piv)
        first = _find_unit(aug[:, col], free, p, q) or _repair_pivot(aug, col, free, p, q)
        if first is None:
            return None
        piv += _eliminate_panel(aug, col, min(width, s - col), free, first, p, q)
    return aug[piv, s:]


def _panel_width(p: int, q: int) -> int:
    """_PANEL_WIDTH, shrunk until a panel's product is exact in the kernel."""
    return max(1, min(_PANEL_WIDTH, _FFT_EXACT_BOUND // (p * (q - 1) ** 2)))


def _eliminate_panel(aug: np.ndarray, col: int, width: int, free: list[int],
                     first: tuple[int, np.ndarray], p: int, q: int) -> list[int]:
    """Eliminate block columns col, col + 1, ... of aug in one panel.

    first is (row, inverse of its entry in column col), the pivot found
    for column col. The tile is that row and the free rows after it; the
    panel stops after width columns or at one with no unit in the tile.
    Pivot rows leave free and are returned in column order; aug is exact
    again on return.
    """
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
        # block columns where the pivot row is zero leave every row unchanged
        live = np.flatnonzero(work[r].any(axis=-1))
        pivot_row = _block_matmul(pivot_inv[None, None], work[r, live][None], p, q)
        work[r, live] = pivot_row[0]
        factors = -work[:, j] % q  # each row subtracts its factor times the pivot row
        factors[r] = 0
        if factors.any():
            work[:, live] = _block_matmul(factors[:, None], pivot_row, p, q, work[:, live])
    pivots = [tile[i] for i in rows]
    k = len(pivots)
    # D at the pivot rows is M^{-1}, M = A_p[pivots, :k], so for all s
    # rows D - I = (E_R - A_p[:, :k]) M^{-1}, E_R with 1 at (pivots[i], i)
    e_minus_a = -panel[:, :k]
    e_minus_a[pivots, np.arange(k), 0] += 1
    e_minus_a %= q
    d_minus_i = _block_matmul(e_minus_a, work[rows, width : width + k], p, q)
    # columns left of the panel are zero in every pivot row; the
    # panel's columns after an early stop are updated with the rest
    other = np.flatnonzero(aug[pivots].any(axis=(0, 2)))
    other = other[other >= col + k]
    step = _panel_width(p, q)
    d_spectrum = _spectrum(d_minus_i, p)
    for lo in range(0, other.size, step):
        cols = other[lo : lo + step]
        aug[:, cols] = _spectral_matmul(d_spectrum, _spectrum(aug[np.ix_(pivots, cols)], p),
                                        p, q, aug[:, cols])
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


def _repair_pivot(aug: np.ndarray, col: int, free: list[int], p: int,
                  q: int) -> tuple[int, np.ndarray] | None:
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
        aug[target] = _block_matmul(h[None, None], aug[r][None], p, q, aug[target][None])[0]
        pivot_inv, e = _unit_idempotent(aug[target, col], p, q)
        if np.array_equal(e, one):
            return target, pivot_inv
    return None


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def qc_mat_vec(A: QCMatrix, v: np.ndarray) -> np.ndarray:
    """expand(A) v^T over F_q for a dense v canonical mod q, read from A's blocks
    as stored: entry (u, c) of circ(a) is a_{(c-u) mod p}, so block i is the
    correlation rev(sum_j a_ij * rev v_j), one vector product on the FFT kernel."""
    p, q = A.p, A.q
    if np.size(v) != A.cols0 * p:
        raise DimensionMismatchError(f"vector length {np.size(v)} != {A.cols0 * p}")
    vb = _reverse(np.asarray(v, dtype=np.int64).reshape(1, A.cols0, p))
    return _reverse(_block_matmul(vb, A.blocks.swapaxes(0, 1), p, q)).reshape(-1)


def qc_mat_gather(A: QCMatrix, positions: np.ndarray) -> np.ndarray:
    """expand(A) v^T over F_q for the v whose entry at each position is the
    number of times it occurs in `positions`: the sum of those columns of
    expand(A), gathered from A's blocks as stored, O(|positions| rows0 p)."""
    p, q = A.p, A.q
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= A.cols0 * p):
        raise DimensionMismatchError(f"position outside [0, {A.cols0 * p})")
    blk, off = np.divmod(positions, p)
    # entry u of column blk*p + off sits at offset (off - u) mod p of block column blk
    cols = blk[:, None] * p + (off[:, None] - np.arange(p)) % p
    flat = A.blocks.reshape(A.rows0, -1)
    out = np.zeros((A.rows0, p), dtype=np.int64)
    for lo in range(0, len(cols), _GATHER_CHUNK):
        out += flat[:, cols[lo : lo + _GATHER_CHUNK]].sum(axis=1)
    return (out % q).reshape(-1)


def _reverse(x: np.ndarray) -> np.ndarray:
    """(rev x)_t = x_{-t mod p} along the last axis; circ(rev a) = circ(a)^T."""
    # one C-ordered array whatever x's layout, so a transpose reverses a
    # swapped view without a second copy; x[..., index] would not do: a
    # vector reversed by fancy indexing came back with its block axis
    # innermost, which made the einsum on its spectrum about three times
    # slower in a spanse-128 verify
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
    _inv_perm: np.ndarray = dc_field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_inv_perm", inv)


def perm_apply(P: QCPermutation, positions: np.ndarray) -> np.ndarray:
    """The positions of P s for the vector s with ones at `positions`."""
    blk, off = np.divmod(positions, P.p)
    out_blk = P._inv_perm[blk]
    return out_blk * P.p + (off + P.shifts[out_blk]) % P.p


def random_qc_permutation(size0: int, p: int, rng: np.random.Generator) -> QCPermutation:
    return QCPermutation(rng.permutation(size0), rng.integers(0, p, size=size0), p)
