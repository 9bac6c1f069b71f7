"""The circulant polynomial ring R_p = F_q[x]/(x^p - 1) and block matrices over it.

A p x p circulant matrix is identified with the polynomial whose
coefficients are its first row; row r of the matrix is the first row
cyclically right-shifted r times, i.e. entry (r, c) = a_{(c-r) mod p}.
Multiplication of circulants is cyclic convolution of first rows.

Block matrices of circulants (QCMatrix) store one row per block, a
factor-p saving over the dense expansion, which only the tests form; a
ring element is a 1 x 1 QCMatrix. Every ring product (block matrix, dense
vector, inversion step) runs through one batched cyclic convolution: a
real FFT zero-padded to the power of two that holds the linear
convolution, folded mod x^p - 1. Coefficients are small enough (bounded by
inner_dim * p * (q-1)^2 <= 2^40) that rounding the inverse transform is
exact, which is asserted on every product.

Linear systems A X = B are solved, never by forming A^{-1}: qc_solve runs
panelled Gauss-Jordan without row swaps on [A | B]. A panel of up to 8
pivot columns is eliminated exactly on the panel's own columns and a
record of the transform's columns at its pivot rows; products of inner
dimension 8 then apply the panel to the rest of [A | B], 8 block columns
at a time. A column with no unit in a free row flushes the pending panel
first, so the repair step works on exact rows. The width shrinks where
8 * p * (q-1)^2 would exceed the exactness bound.
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


class DimensionMismatchError(ValueError):
    """Operands disagree on p, q or block geometry."""


# ---------------------------------------------------------------------------
# raw polynomial helpers (coefficient arrays of length p, canonical mod q)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(num: list[int], den: list[int], q: int) -> tuple[list[int], list[int]]:
    """Division with remainder in F_q[x]; inputs/outputs trimmed coefficient lists."""
    num = num[:]
    quot = [0] * max(0, len(num) - len(den) + 1)
    inv_lead = pow(den[-1], -1, q)
    for shift in range(len(num) - len(den), -1, -1):
        coeff = (num[shift + len(den) - 1] * inv_lead) % q
        if coeff:
            quot[shift] = coeff
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - coeff * d) % q
    return _poly_trim(quot), _poly_trim(num)


def _poly_mul_lists(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_sub_lists(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % q
    return _poly_trim(out)


def _x_p_minus_1(p: int, q: int) -> list[int]:
    modulus = [0] * (p + 1)
    modulus[0] = q - 1  # -1
    modulus[p] = 1
    return modulus


def _vanishing_cofactor(a: np.ndarray, p: int, q: int) -> np.ndarray:
    """h = (x^p - 1) / gcd(a(x), x^p - 1) as length-p coefficients.

    For squarefree x^p - 1, h is zero in exactly the CRT components of R_p
    where a is nonzero.
    """
    modulus = _x_p_minus_1(p, q)
    r0, r1 = modulus, _poly_trim([int(v) % q for v in a])
    while r1:
        r0, r1 = r1, _poly_divmod(r0, r1, q)[1]
    h, _ = _poly_divmod(modulus, r0, q)
    out = np.zeros(p, dtype=np.int64)
    out[: len(h)] = h
    return out


def _poly_inv_raw(a: np.ndarray, p: int, q: int) -> np.ndarray | None:
    """Inverse of a(x) in F_q[x]/(x^p - 1) via extended Euclid, or None.

    a is invertible iff gcd(a(x), x^p - 1) = 1.
    """
    A = _poly_trim([int(v) % q for v in a])
    if not A:
        return None
    modulus = _x_p_minus_1(p, q)
    # invariants: r0 = t0*a (mod x^p - 1), r1 = t1*a (mod x^p - 1)
    r0, r1 = modulus, A
    t0, t1 = [], [1]
    while True:
        if len(r1) == 0:
            return None  # gcd landed on earlier non-unit remainder
        if len(r1) == 1:
            break
        quot, rem = _poly_divmod(r0, r1, q)
        r0, r1 = r1, rem
        t0, t1 = t1, _poly_sub_lists(t0, _poly_mul_lists(quot, t1, q), q)
    scale = pow(r1[0], -1, q)
    t1 = [(c * scale) % q for c in t1]
    _, t1 = _poly_divmod(t1, modulus, q) if len(t1) > p else (None, t1)
    out = np.zeros(p, dtype=np.int64)
    out[: len(t1)] = t1
    return out


# ---------------------------------------------------------------------------
# batched block products (cyclic convolution via rfft, exact by bound check)
# ---------------------------------------------------------------------------

def _assert_fft_exact(inner: int, p: int, q: int):
    if inner * p * (q - 1) ** 2 > _FFT_EXACT_BOUND:
        raise OverflowError(
            "block product too large for exact FFT accumulation "
            f"(inner={inner}, p={p}, q={q})"
        )


def _block_matmul(A: np.ndarray, B: np.ndarray, p: int, q: int) -> np.ndarray:
    """(m, k, p) x (k, n, p) -> (m, n, p) with cyclic-convolution block products.

    The one FFT convolution kernel: every product in the ring goes through
    here, with m, k or n set to 1 for polynomials, vectors and outer products.
    The operands are zero-padded to n = 2^ceil(log2(2p - 1)), the smallest
    power of two that holds the linear convolution: on 84 * 85 rows, numpy's
    rfft takes about 30 ms at the prime length 101 and 11 ms at 256. The
    linear result is rounded and folded mod x^p - 1, adding coefficient
    p + t into coefficient t.
    """
    _assert_fft_exact(A.shape[1], p, q)
    n = 1 << (2 * p - 2).bit_length()
    fc = np.einsum("ikf,kjf->ijf", np.fft.rfft(A, n=n, axis=-1), np.fft.rfft(B, n=n, axis=-1))
    lin = np.fft.irfft(fc, n=n, axis=-1)
    del fc  # free the spectrum before the int64 result is allocated
    np.rint(lin, out=lin)
    out = lin[..., :p]
    out[..., : p - 1] += lin[..., p : 2 * p - 1]
    out = out.astype(np.int64)
    out %= q
    return out


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QCMatrix:
    """rows0 x cols0 grid of circulant blocks; blocks[i, j] is a first row."""

    blocks: np.ndarray  # (rows0, cols0, p) int64, canonical mod q
    q: int

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.int64)
        if b.ndim != 3:
            raise DimensionMismatchError("blocks must have shape (rows0, cols0, p)")
        object.__setattr__(self, "blocks", b % self.q)

    @property
    def rows0(self) -> int:
        return self.blocks.shape[0]

    @property
    def cols0(self) -> int:
        return self.blocks.shape[1]

    @property
    def p(self) -> int:
        return self.blocks.shape[2]

    @classmethod
    def identity(cls, size0: int, p: int, q: int) -> "QCMatrix":
        b = np.zeros((size0, size0, p), dtype=np.int64)
        b[np.arange(size0), np.arange(size0), 0] = 1
        return cls(b, q)

    def transpose(self) -> "QCMatrix":
        # transpose of circ(a) is circ(a') with a'_t = a_{(p-t) mod p}
        rev = np.roll(self.blocks[..., ::-1], 1, axis=-1)
        return QCMatrix(rev.swapaxes(0, 1).copy(), self.q)

    def neg(self) -> "QCMatrix":
        return QCMatrix((-self.blocks) % self.q, self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QCMatrix)
            and self.q == other.q
            and np.array_equal(self.blocks, other.blocks)
        )


def qc_solve(A: QCMatrix, B: QCMatrix) -> QCMatrix | None:
    """A^{-1} B for a square block matrix A, or None when A is singular.

    Gauss-Jordan over the ring R_p on [A | B], pivoting onto a unit entry
    of each column of A. B may have any number of block columns, including
    none, which only tests A. Rows are never swapped: the pivot row of each
    column is recorded, and row c of the result is the right half of the
    row that pivoted column c. The row operations depend on A alone, so
    B = I would give A^{-1}.

    The pivot columns are taken in panels of _panel_width(p, q) (8 for the
    scheme's rings). Inside a panel, the row operations touch only the
    panel's own columns and a record D of the transform's columns at the
    panel's pivot rows; the panel's transform differs from I only there.
    After the panel, products apply it to every other live block column,
    aug[:, other] += (D - I) * aug[pivot rows, other], in slices of at most
    _panel_width(p, q) block columns: a dense B makes all its columns live
    from the first panel, and the slices keep the spectra small.

    When no free row has a unit in a column, the pending panel is flushed,
    and a repair step adds h * (row r) to the first free row for each other
    free row r, with h = (x^p - 1) / gcd(pivot, x^p - 1). Each addition is a
    unimodular row operation; in the CRT splitting of R_p it fills in the
    components where the pivot vanishes and leaves the others unchanged.
    The next panel starts at that column.

    A is singular iff no addition makes the pivot a unit: then some CRT
    component of the column is zero in every free row. This criterion is
    exact for every prime p (x^p - 1 is squarefree over F_q when p != q,
    and R_p is a local ring when p = q). No dense expansion is formed.
    """
    if A.rows0 != A.cols0 or B.rows0 != A.rows0 or (B.p, B.q) != (A.p, A.q):
        raise DimensionMismatchError(f"cannot solve {A.rows0}x{A.cols0} against {B.rows0}x"
                                     f"{B.cols0} (p {A.p}/{B.p}, q {A.q}/{B.q})")
    s, p, q = A.rows0, A.p, A.q
    aug = np.concatenate([A.blocks, B.blocks], axis=1)
    width = _panel_width(p, q)
    free = list(range(s))  # rows not yet chosen as a pivot, in order
    piv: list[int] = []  # pivot row of each eliminated column
    while len(piv) < s:
        panel = min(width, s - len(piv))
        rows = _eliminate_panel(aug, len(piv), panel, free, p, q)
        piv += rows
        if len(rows) < panel and not _repair_pivot(aug, len(piv), free, p, q):
            return None
    return QCMatrix(aug[piv, s:], q)


def _panel_width(p: int, q: int) -> int:
    """_PANEL_WIDTH, shrunk until a panel's product is exact in the kernel."""
    return max(1, min(_PANEL_WIDTH, _FFT_EXACT_BOUND // (p * (q - 1) ** 2)))


def _eliminate_panel(aug: np.ndarray, col: int, width: int, free: list[int],
                     p: int, q: int) -> list[int]:
    """Eliminate block columns col, col + 1, ... of aug in one panel.

    Stops after width columns or before the first column with no unit in a
    free row. Pivot rows are taken from free, in order, and returned in
    column order; aug is exact again on return.
    """
    s = aug.shape[0]
    # the panel's own columns, then D: column j starts as e_r when row r
    # pivots column col + j, and every later row operation acts on it
    work = np.zeros((s, 2 * width, p), dtype=np.int64)
    work[:, :width] = aug[:, col : col + width]
    rows: list[int] = []
    for j in range(width):
        found = _find_unit(work[:, j], free, p, q)
        if found is None:
            break
        r, pivot_inv = found
        free.remove(r)
        rows.append(r)
        work[r, width + j, 0] = 1
        # block columns where the pivot row is zero leave every row unchanged
        live = np.flatnonzero(work[r].any(axis=-1))
        pivot_row = _block_matmul(pivot_inv[None, None], work[r, live][None], p, q)
        work[r, live] = pivot_row[0]
        factors = work[:, j].copy()
        factors[r] = 0
        if factors.any():
            upd = _block_matmul(factors[:, None], pivot_row, p, q)
            np.subtract(work[:, live], upd, out=upd)
            upd %= q
            work[:, live] = upd
    if rows:
        k = len(rows)
        d_minus_i = work[:, width : width + k]
        d_minus_i[rows, np.arange(k), 0] -= 1
        d_minus_i %= q
        # columns left of the panel are zero in every pivot row
        other = np.flatnonzero(aug[rows].any(axis=(0, 2)))
        other = other[other >= col + width]
        step = _panel_width(p, q)
        for lo in range(0, other.size, step):
            cols = other[lo : lo + step]
            upd = _block_matmul(d_minus_i, aug[np.ix_(rows, cols)], p, q)
            np.add(aug[:, cols], upd, out=upd)
            upd %= q
            aug[:, cols] = upd
    aug[:, col : col + width] = work[:, :width]
    return rows


def _find_unit(column: np.ndarray, free: list[int], p: int,
               q: int) -> tuple[int, np.ndarray] | None:
    """(row, inverse) for the first free row whose entry is a unit, or None."""
    for r in free:
        inv = _poly_inv_raw(column[r], p, q)
        if inv is not None:
            return r, inv
    return None


def _repair_pivot(aug: np.ndarray, col: int, free: list[int], p: int, q: int) -> bool:
    """Make aug[free[0], col] a unit by adding multiples of the other free rows.

    Updates aug[free[0]] in place and returns False when no unit can be
    reached (the matrix is singular).
    """
    target = free[0]
    for r in free[1:]:
        if not aug[r, col].any():
            continue  # adding this row cannot change the pivot
        h = _vanishing_cofactor(aug[target, col], p, q)
        aug[target] = (aug[target] + _block_matmul(h[None, None], aug[r][None], p, q)[0]) % q
        if _poly_inv_raw(aug[target, col], p, q) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseVector:
    """Sparse vector over F_q: strictly increasing indices, nonzero values."""

    length: int
    indices: np.ndarray
    values: np.ndarray
    q: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.int64) % self.q
        keep = val != 0
        idx, val = idx[keep], val[keep]
        order = np.argsort(idx)
        idx, val = idx[order], val[order]
        if idx.size and (idx[0] < 0 or idx[-1] >= self.length):
            raise ValueError("index out of range")
        if idx.size > 1 and np.any(np.diff(idx) == 0):
            raise ValueError("duplicate indices")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def from_dense(cls, v: np.ndarray, q: int) -> "SparseVector":
        v = np.asarray(v, dtype=np.int64) % q
        idx = np.nonzero(v)[0]
        return cls(v.size, idx, v[idx], q)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.length, dtype=np.int64)
        out[self.indices] = self.values
        return out

    def weight(self) -> int:
        return int(self.indices.size)

    def add(self, other: "SparseVector") -> "SparseVector":
        if self.length != other.length or self.q != other.q:
            raise DimensionMismatchError("sparse addition shape mismatch")
        dense = self.to_dense()
        np.add.at(dense, other.indices, other.values)
        return SparseVector.from_dense(dense, self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and self.length == other.length
            and self.q == other.q
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


def qc_vec_mul(v, A: QCMatrix) -> np.ndarray:
    """v * expand(A) over F_q for v sparse or dense of length rows0*p.

    The sparse path costs O(|support| * cols0 * p); the dense path runs one
    cyclic convolution per block.
    """
    n_in = A.rows0 * A.p
    p, q = A.p, A.q
    if isinstance(v, SparseVector):
        if v.length != n_in:
            raise DimensionMismatchError(f"vector length {v.length} != {n_in}")
        out = np.zeros((A.cols0, p), dtype=np.int64)
        for idx, val in zip(v.indices.tolist(), v.values.tolist()):
            blk, off = divmod(idx, p)
            out += val * np.roll(A.blocks[blk], off, axis=-1)
        return (out % q).reshape(-1)
    v = np.asarray(v, dtype=np.int64)
    if v.size != n_in:
        raise DimensionMismatchError(f"vector length {v.size} != {n_in}")
    vb = (v % q).reshape(1, A.rows0, p)
    return _block_matmul(vb, A.blocks, p, q).reshape(-1)


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
    q: int
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

    @property
    def size0(self) -> int:
        return int(self.block_perm.size)

    @property
    def dim(self) -> int:
        return self.size0 * self.p


def perm_apply(P: QCPermutation, s: SparseVector) -> SparseVector:
    """s' = P s, computed on the support; preserves Hamming weight."""
    if s.length != P.dim:
        raise DimensionMismatchError(f"vector length {s.length} != {P.dim}")
    blk, off = np.divmod(s.indices, P.p)
    out_blk = P._inv_perm[blk]
    out_off = (off + P.shifts[out_blk]) % P.p
    return SparseVector(s.length, out_blk * P.p + out_off, s.values.copy(), s.q)


def perm_inv_mul(P: QCPermutation, M: QCMatrix) -> QCMatrix:
    """P^{-1} M by indexing: block row i is block row pi^{-1}(i) of M with
    every circulant's first row rolled right by that row's shift."""
    if M.rows0 != P.size0 or M.p != P.p:
        raise DimensionMismatchError(f"permutation of {P.size0} blocks of size {P.p} against "
                                     f"{M.rows0} block rows of size {M.p}")
    src = P._inv_perm
    idx = (np.arange(P.p) - P.shifts[src][:, None]) % P.p
    return QCMatrix(np.take_along_axis(M.blocks[src], idx[:, None, :], axis=2), M.q)


def random_qc_permutation(size0: int, p: int, q: int, rng: np.random.Generator) -> QCPermutation:
    return QCPermutation(rng.permutation(size0), rng.integers(0, p, size=size0), p, q)
