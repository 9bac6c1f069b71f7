"""Sparse-generator quasi-cyclic codes.

The secret code is defined by a binary k x n generator G whose expanded
rows all have Hamming weight exactly w_g. Because the matrix is
quasi-cyclic it is enough to place w_g ones in the expanded first row of
each block row; the circulant structure propagates the weight to every
other row. G is held as those positions, (k0, w_g) sorted indices, as the
key file stores them, and a codeword u G as the positions of the rows u
picks, a position repeated where rows overlap. Only the solve for the
systematic parity check builds G's block form: with G = [M1 | M2] and
M1 W = M2 solved for (M1^{-1} is never formed), H = [-W^T | I], so that
syndromes of vectors of the form [0_k | s'] read off s' directly. Keygen
solves against H^T = [-W; I], so H itself is never built, and a singular
M1 is reported as None. make_code returns (G, H^T).
"""

from __future__ import annotations

import numpy as np

from .params import ParameterError, ParameterSet
from .qcalg import QCMatrix, qc_solve

# how many generator resamples to attempt before declaring keygen failure
MAX_GENERATOR_RETRIES = 100


class GenerationError(ParameterError):
    """Retry budget exhausted while sampling a reducible generator: the
    parameter set's generators are almost never reducible."""


def sample_generator(params: ParameterSet, rng: np.random.Generator) -> np.ndarray:
    """(k0, w_g) sorted one-positions: for each block row, w_g positions of its
    expanded first row drawn uniformly without replacement, so every
    expanded row of G has weight exactly w_g."""
    return np.sort([rng.choice(params.n, size=params.w_g, replace=False)
                    for _ in range(params.k0)], axis=1)


def generator_matrix(G: np.ndarray, params: ParameterSet) -> QCMatrix:
    """The block form of G, for the solves that need M1 and M2."""
    blocks = np.zeros((params.k0, params.n0 * params.p), dtype=np.int64)
    blocks[np.arange(params.k0)[:, None], G] = 1
    return QCMatrix(blocks.reshape(params.k0, params.n0, params.p), params.q)


def parity_check_transpose(G: np.ndarray, params: ParameterSet) -> QCMatrix | None:
    """H^T = [-W; I] for G = [M1 | M2], with M1 W = M2 solved for, or None
    when the left block part M1 is singular. H = [-W^T | I] has G H^T = 0
    and an identity right part, so H e^T = s' for e = [0_k | s'^T]."""
    blocks, q = generator_matrix(G, params).blocks, params.q
    W = qc_solve(QCMatrix(blocks[:, :params.k0], q), QCMatrix(blocks[:, params.k0:], q))
    if W is None:
        return None
    I = QCMatrix.identity(params.r0, params.p, q)
    return QCMatrix(np.concatenate([-W.blocks, I.blocks]), q)  # reduces -W mod q


def make_code(params: ParameterSet, rng: np.random.Generator) -> tuple[np.ndarray, QCMatrix]:
    """(G, H^T): sample generators until one admits a systematic parity check."""
    for _ in range(MAX_GENERATOR_RETRIES):
        G = sample_generator(params, rng)
        Ht = parity_check_transpose(G, params)
        if Ht is not None:
            return G, Ht
    raise GenerationError(
        f"no reducible generator found in {MAX_GENERATOR_RETRIES} attempts"
    )


def codeword_from_generator(G: np.ndarray, params: ParameterSet, m_g: int,
                            rng: np.random.Generator) -> np.ndarray:
    """c = u G for uniform binary u of weight m_g, as the m_g * w_g positions
    of the generator rows u picks: row blk*p + t of G is block row blk's
    first row shifted right by t. Rows that overlap repeat a position, and
    c's entry there is the number of repeats."""
    if not (0 <= m_g <= params.k):
        raise ValueError(f"m_g={m_g} outside [0, k={params.k}]")
    blk, shift = np.divmod(rng.choice(params.k, size=m_g, replace=False), params.p)
    col_blk, off = np.divmod(G[blk], params.p)
    return (col_blk * params.p + (off + shift[:, None]) % params.p).reshape(-1)
