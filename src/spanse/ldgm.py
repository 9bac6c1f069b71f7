"""Sparse-generator quasi-cyclic codes.

The secret code is defined by a binary k x n generator G whose expanded
rows all have Hamming weight exactly w_g. Because the matrix is
quasi-cyclic it is enough to place w_g ones in the expanded first row of
each block row; the circulant structure propagates the weight to every
other row. G is held as those positions, (k0, w_g) sorted indices, as the
key file stores them, and a codeword u G as the positions of the rows u
picks, a position repeated where rows overlap. Only the solve for a
systematic parity-check matrix H = [-W^T | I], where G = [M1 | M2] and
M1 W = M2, builds G's block form; it solves for W (M1^{-1} is never
formed), so that syndromes of vectors of the form [0_k | s'] read off s'
directly. make_code returns (G, H).
"""

from __future__ import annotations

import numpy as np

from .params import ParameterError, ParameterSet
from .qcalg import QCMatrix, qc_solve

# how many generator resamples to attempt before declaring keygen failure
MAX_GENERATOR_RETRIES = 100


class NotReducibleError(Exception):
    """The left k x k part of G is singular; the caller should resample."""


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


def systematic_parity_check(G: QCMatrix) -> QCMatrix:
    """H = [-W^T | I] from G = [M1 | M2], with W = M1^{-1} M2 solved for.

    Raises NotReducibleError when the left block part M1 is singular.
    The identity right part means H e^T = s' for e = [0_k | s'^T].
    """
    k0, q = G.rows0, G.q
    W = qc_solve(QCMatrix(G.blocks[:, :k0], q), QCMatrix(G.blocks[:, k0:], q))
    if W is None:
        raise NotReducibleError("left block part of the generator is singular")
    I = QCMatrix.identity(G.cols0 - k0, G.p, q)
    # QCMatrix reduces -W^T mod q
    return QCMatrix(np.concatenate([-W.transpose().blocks, I.blocks], axis=1), q)


def make_code(params: ParameterSet, rng: np.random.Generator) -> tuple[np.ndarray, QCMatrix]:
    """(G, H): sample generators until one admits a systematic parity check."""
    for _ in range(MAX_GENERATOR_RETRIES):
        G = sample_generator(params, rng)
        try:
            H = systematic_parity_check(generator_matrix(G, params))
        except NotReducibleError:
            continue
        return G, H
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
