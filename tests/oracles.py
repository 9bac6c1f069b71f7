"""Reference code that the tests check the library against.

The library never forms a dense matrix; these oracles expand block matrices
and permutations and multiply or invert them entry by entry. The library
also never multiplies two block matrices, so the block product the tests
check against these oracles is here too, nor forms the parity-check matrix
H, only its transpose. The Monte Carlo oracle samples signing attempts
entry by entry, where the library scores each masked vector by its exact
acceptance probability; the fixed-weight rejection model is a closed form
the Monte Carlo is checked against.
"""

import math

import numpy as np

from scipy.stats import binom

from spanse.ldgm import codeword_from_generator, parity_check_transpose, sample_generator
from spanse.params import DensityPolynomial, ParameterSet
from spanse.qcalg import QCMatrix, QCPermutation, _block_matmul


def dense_vector(positions: np.ndarray, n: int, q: int) -> np.ndarray:
    """The length-n vector over F_q whose entry at each position is the
    number of times it occurs in `positions`."""
    return np.bincount(positions, minlength=n) % q


def qc_mat_mul(A: QCMatrix, B: QCMatrix) -> QCMatrix:
    """A B through the library's one FFT kernel."""
    return QCMatrix(_block_matmul(A.blocks, B.blocks, A.p, A.q), A.q)


def parity_check(G: np.ndarray, params: ParameterSet) -> QCMatrix:
    """H = [-W^T | I] for a generator whose left block part is invertible."""
    return parity_check_transpose(G, params).transpose()


def expand(A: QCMatrix) -> np.ndarray:
    """Dense (rows0*p) x (cols0*p) matrix over F_q."""
    p = A.p
    idx = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    dense = A.blocks[:, :, idx]  # (rows0, cols0, p, p)
    return dense.transpose(0, 2, 1, 3).reshape(A.rows0 * p, A.cols0 * p)


def gf_matmul(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """Dense matrix product over F_q (int64, exact for the sizes used here)."""
    if A.shape[1] * (q - 1) ** 2 > 2**62:
        raise OverflowError("dense product would overflow int64")
    return (A.astype(np.int64) @ B.astype(np.int64)) % q


def gf_inv_dense(M: np.ndarray, q: int) -> np.ndarray | None:
    """Gauss-Jordan inversion over F_q; returns None when M is singular.

    Off-pivot entries are reduced lazily: each elimination step only adds
    products of reduced values, so magnitudes stay below dim * q^2 and a
    single final reduction suffices.
    """
    n = M.shape[0]
    W = np.concatenate([M.astype(np.int64) % q, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        W[:, col] %= q
        pivots = np.nonzero(W[col:, col])[0]
        if pivots.size == 0:
            return None
        r = col + int(pivots[0])
        if r != col:
            W[[col, r]] = W[[r, col]]
        W[col] %= q
        W[col] = (W[col] * pow(int(W[col, col]), -1, q)) % q
        factors = W[:, col].copy()
        factors[col] = 0
        W -= np.outer(factors, W[col])
    return W[:, n:] % q


def perm_qc_matrix(P: QCPermutation) -> QCMatrix:
    """P as a block matrix of monomials; its transpose is P^{-1}."""
    blocks = np.zeros((P.size0, P.size0, P.p), dtype=np.int64)
    for i in range(P.size0):
        # first-row convention: coefficient (p - t) mod p realizes j -> j + t
        blocks[i, P.block_perm[i], (P.p - P.shifts[i]) % P.p] = 1
    return QCMatrix(blocks, P.q)


def perm_dense(P: QCPermutation) -> np.ndarray:
    """The dense permutation matrix of P."""
    return expand(perm_qc_matrix(P))


def multinomial_acceptance(params: ParameterSet, density: DensityPolynomial,
                           trials: int, seed: int,
                           batch_size: int = 1000) -> tuple[float, float]:
    """Accepted share of `trials` sampled signing attempts, and its binomial
    standard error, in batches that each share one code sample and take
    one seed spawned from `seed`, as the library's batches do.

    The masked vector v = e + c is built as in signing. Each signature
    entry is a sum sum_j v_j X_j with X_j i.i.d. from the density, so for
    each distinct value g of v, taken t_g times, the contributions to all n
    entries are read off n multinomial draws of t_g over the density's
    values. An attempt is accepted when no entry is 0 mod q.
    """
    q, n, k, r, w = params.q, params.n, params.k, params.r, params.w
    pairs = [(v, pr) for v, pr in density.value_probabilities() if pr > 0]
    dvals = np.array([v for v, _ in pairs], dtype=np.int64)
    dprobs = np.array([float(pr) for _, pr in pairs])
    dprobs /= dprobs.sum()
    accepted = 0
    seeds = np.random.SeedSequence(seed).spawn(-(-trials // batch_size))
    for i, batch_seed in enumerate(seeds):
        rng = np.random.default_rng(batch_seed)
        G = sample_generator(params, rng)
        for _ in range(min(batch_size, trials - i * batch_size)):
            c = codeword_from_generator(G, params, params.m_g, rng)
            v = dense_vector(np.concatenate([k + rng.choice(r, size=w, replace=False), c]), n, q)
            sigma = np.zeros(n, dtype=np.int64)
            for g, t_g in zip(*np.unique(v[v != 0], return_counts=True)):
                sigma += int(g) * (rng.multinomial(t_g, dprobs, size=n) @ dvals)
            accepted += bool(np.all(sigma % q != 0))
    p_hat = accepted / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def fixed_weight_p_zero(params: ParameterSet) -> float:
    """P(Bin(m_g w_g + w, d1) = 0 mod q) for a binary density: the chance
    that a signature entry is 0 mod q when the masked vector has exactly
    m_g w_g + w ones, that is when the codeword's rows never overlap."""
    trials = params.m_g * params.w_g + params.w
    zeros = np.arange(0, trials + 1, params.q)
    return float(binom.pmf(zeros, trials, float(params.density.d1)).sum())
