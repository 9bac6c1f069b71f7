"""Sparse-generator quasi-cyclic codes.

The secret code is defined by a binary k x n generator G whose expanded
rows all have Hamming weight exactly w_g. Because the matrix is
quasi-cyclic it is enough to place w_g ones in the expanded first row of
each block row; the circulant structure propagates the weight to every
other row. G is held as those positions, (k0, w_g) sorted indices, as the
key file stores them, and a codeword u G as the positions of the rows u
picks, a position repeated where rows overlap; `codeword_positions` builds
any number of codewords at once. A generator G = [M1 | M2] is reducible
when its left block part M1 is invertible: then H = [-W^T | I] with
M1 W = M2 is a parity check of G, and syndromes of vectors of the form
[0_k | s'] read off s' directly. `reducible` builds M1 from G's positions
below k and only tests it, so neither M2, W nor H is formed; keygen
solves for the public H'^T directly (scheme.keygen). It first tests
M1(1), M1 at x = 1, a k0 x k0 matrix over F_q, by forward elimination
mod q: M1 is singular when M1(1) is, and every singular desk draw
measured was caught there. make_code returns the first G that passes
that test alone; M1 is eliminated over R_p only when keygen's solve
fails, since that solve is singular whenever M1 is.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterError, ParameterSet
from .qcalg import qc_solve, symbol_dtype

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


def _left_part(G: np.ndarray, params: ParameterSet) -> np.ndarray:
    """M1, G's left k0 x k0 block part, built from G's positions below k."""
    row, col = np.nonzero(G < params.k)
    M1 = np.zeros((params.k0, params.k0, params.p), dtype=symbol_dtype(params.q))
    M1.reshape(params.k0, params.k)[row, G[row, col]] = 1  # a view of M1
    return M1


def reducible(G: np.ndarray, params: ParameterSet) -> bool:
    """Whether G's left block part M1 is invertible, so that G has the
    systematic parity check H = [-W^T | I], M1 W = M2.

    M1 is singular when M1(1), its image in the x - 1 CRT component of
    R_p, is singular over F_q: that k0 x k0 test comes first. Otherwise M1
    alone is eliminated, in place, with no right-hand side: W is not
    formed."""
    M1 = _left_part(G, params)
    if not _nonsingular_mod_q(M1.sum(axis=2), params.q):
        return False
    return qc_solve(M1, params.q) is not None


def _nonsingular_mod_q(M: np.ndarray, q: int) -> bool:
    """Whether the square matrix M is nonsingular over F_q, q prime, by
    forward elimination with row swaps, in int64 whatever M's type."""
    M = np.asarray(M, dtype=np.int64) % q
    for c in range(len(M)):
        nonzero = np.flatnonzero(M[c:, c])
        if not nonzero.size:
            return False
        r = c + nonzero[0]
        M[[c, r]] = M[[r, c]]
        factors = M[c + 1 :, c] * pow(int(M[c, c]), -1, q) % q
        M[c + 1 :] = (M[c + 1 :] - np.outer(factors, M[c])) % q
    return True


def make_code(params: ParameterSet, rng: np.random.Generator) -> np.ndarray:
    """G: sample generators until one's M1(1) is nonsingular over F_q.

    M1 itself is not eliminated here: keygen's solve for the public key
    fails when M1 is singular, and only then does keygen test M1 over R_p
    (`reducible`)."""
    for _ in range(MAX_GENERATOR_RETRIES):
        G = sample_generator(params, rng)
        if _nonsingular_mod_q(_left_part(G, params).sum(axis=2), params.q):
            return G
    raise GenerationError(
        f"no reducible generator found in {MAX_GENERATOR_RETRIES} attempts"
    )


def codeword_positions(G: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """The positions of c = u G for the generator rows `rows` that u picks,
    (..., m) -> (..., m * w_g) for any leading shape: row blk*p + t of G is
    block row blk's first row shifted right by t. Rows that overlap repeat
    a position, and c's entry there is the number of repeats."""
    blk, shift = np.divmod(rows, p)
    col_blk, off = np.divmod(G[blk], p)
    positions = col_blk * p + (off + shift[..., None]) % p
    return positions.reshape(rows.shape[:-1] + (rows.shape[-1] * G.shape[1],))


def codeword_from_generator(G: np.ndarray, params: ParameterSet,
                            rng: np.random.Generator) -> np.ndarray:
    """c = u G for uniform binary u of weight m_g, as the m_g * w_g positions
    of the generator rows u picks (`codeword_positions`)."""
    return codeword_positions(G, rng.choice(params.k, size=params.m_g, replace=False), params.p)
