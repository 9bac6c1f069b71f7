"""Sparse-generator quasi-cyclic codes.

The secret code is defined by a binary k x n generator G whose expanded
rows all have Hamming weight exactly w_g. Because the matrix is
quasi-cyclic it is enough to place w_g ones in the expanded first row of
each block row; the circulant structure propagates the weight to every
other row. A systematic parity-check matrix H = [-W^T | I], where
G = [M1 | M2] and M1 W = M2, is derived by solving for W (M1^{-1} is never
formed), so that syndromes of vectors of the form [0_k | s'] read off s'
directly. make_code returns the pair (G, H); a private key keeps G.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterSet
from .qcalg import QCMatrix, SparseVector, qc_solve, qc_vec_mul

# how many generator resamples to attempt before declaring keygen failure
MAX_GENERATOR_RETRIES = 100


class NotReducibleError(Exception):
    """The left k x k part of G is singular; the caller should resample."""


class GenerationError(Exception):
    """Retry budget exhausted while sampling a reducible generator."""


def sample_generator(params: ParameterSet, rng: np.random.Generator) -> QCMatrix:
    """Binary QC matrix whose expanded rows all have weight exactly w_g.

    For each block row, w_g one-positions are drawn uniformly without
    replacement from the n positions of that row's expanded first row.
    """
    p, n0, k0 = params.p, params.n0, params.k0
    blocks = np.zeros((k0, n0, p), dtype=np.int64)
    for i in range(k0):
        pos = rng.choice(params.n, size=params.w_g, replace=False)
        blk, off = np.divmod(pos, p)
        np.add.at(blocks[i], (blk, off), 1)
    return QCMatrix(blocks, params.q)


def systematic_parity_check(G: QCMatrix) -> QCMatrix:
    """H = [-W^T | I] from G = [M1 | M2], with W = M1^{-1} M2 solved for.

    Raises NotReducibleError when the left block part M1 is singular.
    The identity right part means H e^T = s' for e = [0_k | s'^T].
    """
    k0, p, q = G.rows0, G.p, G.q
    W = qc_solve(QCMatrix(G.blocks[:, :k0], q), QCMatrix(G.blocks[:, k0:], q))
    if W is None:
        raise NotReducibleError("left block part of the generator is singular")
    I = QCMatrix.identity(G.cols0 - k0, p, q)
    return QCMatrix(np.concatenate([W.transpose().neg().blocks, I.blocks], axis=1), q)


def make_code(params: ParameterSet, rng: np.random.Generator) -> tuple[QCMatrix, QCMatrix]:
    """(G, H): sample generators until one admits a systematic parity check."""
    for _ in range(MAX_GENERATOR_RETRIES):
        G = sample_generator(params, rng)
        try:
            H = systematic_parity_check(G)
        except NotReducibleError:
            continue
        return G, H
    raise GenerationError(
        f"no reducible generator found in {MAX_GENERATOR_RETRIES} attempts"
    )


def codeword_from_generator(G: QCMatrix, params: ParameterSet, m_g: int,
                            rng: np.random.Generator) -> SparseVector:
    """c = u G for uniform binary u of weight m_g.

    The sum is taken over F_q, so overlapping selected rows can produce
    entries larger than 1; the typical weight is close to m_g * w_g.
    """
    if m_g == 0:
        return SparseVector(params.n, np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64), params.q)
    if not (1 <= m_g <= params.k):
        raise ValueError(f"m_g={m_g} outside [0, k={params.k}]")
    pos = rng.choice(params.k, size=m_g, replace=False)
    u = SparseVector(params.k, np.sort(pos), np.ones(m_g, dtype=np.int64), params.q)
    dense = qc_vec_mul(u, G)
    return SparseVector.from_dense(dense, params.q)
