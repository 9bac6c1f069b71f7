"""Reference code that the tests check the library against.

The library never forms a dense matrix; these oracles expand block matrices
and permutations and multiply or invert them entry by entry. The library
also never multiplies two block matrices, so the block product the tests
check against these oracles is here too, nor forms the identity block
matrix, G's block form or the parity-check matrix H: keygen solves for H'
directly, so H is built here from G's dense expansion alone. The library's
solve eliminates a caller's buffer [A | B]; `solve` builds that buffer
from two block matrices. The Monte Carlo oracle samples signing attempts
entry by entry, where the library scores each masked vector by its exact
acceptance probability, and draws as signing does where the library
draws a batch's subsets at once; the per-trial oracle takes the library
batch's draws by Floyd's algorithm one entry at a time, builds every
masked vector alone and scores it afresh, where the library builds a
batch's masked vectors at once and scores each distinct one once per
batch; the
fixed-weight rejection model is a closed form the Monte Carlo is checked
against. A density's pmf and support are read here value by value over
the field. The library's attack optimizer evaluates every crossing at
once as arrays; `optimize_attack` here is the scalar loop over them. The
library derives a syndrome's support from its hash stream with
whole-array filters; `reference_syndrome` reads the stream word by word.
The library reads each byte format with its own deserializer;
`deserialize` dispatches on the object-type byte.
"""

import hashlib
import itertools
import math

import numpy as np

from scipy.stats import binom

from spanse import serial
from spanse.analysis import AttackPoint, ConstraintError, CostReport, _exponents, _p_zero
from spanse.ldgm import codeword_from_generator, codeword_positions, sample_generator
from spanse.params import DensityPolynomial, ParameterSet
from spanse.qcalg import QCMatrix, QCPermutation, _block_matmul, qc_solve
from spanse.scheme import _TAG_EXPAND, _TAG_MSG


def dense_vector(positions: np.ndarray, n: int, q: int) -> np.ndarray:
    """The length-n vector over F_q whose entry at each position is the
    number of times it occurs in `positions`."""
    return np.bincount(positions, minlength=n) % q


def qc_mat_mul(A: QCMatrix, B: QCMatrix) -> QCMatrix:
    """A B through the library's one FFT kernel."""
    return QCMatrix(_block_matmul(A.blocks, B.blocks, A.p, A.q), A.q)


def solve(A: QCMatrix, B: QCMatrix) -> QCMatrix | None:
    """A^{-1} B by the library's in-place solve on a fresh [A | B], or None
    when A is singular."""
    X = qc_solve(np.concatenate([A.blocks, B.blocks], axis=1), A.q)
    return None if X is None else QCMatrix(X, A.q)


def generator_matrix(G: np.ndarray, params: ParameterSet) -> QCMatrix:
    """The block form [M1 | M2] of the generator G held as positions."""
    blocks = np.zeros((params.k0, params.n0 * params.p), dtype=np.int64)
    blocks[np.arange(params.k0)[:, None], G] = 1
    return QCMatrix(blocks.reshape(params.k0, params.n0, params.p), params.q)


def identity(size0: int, p: int, q: int) -> QCMatrix:
    """The size0 x size0 identity block matrix."""
    b = np.zeros((size0, size0, p), dtype=np.int64)
    b[np.arange(size0), np.arange(size0), 0] = 1
    return QCMatrix(b, q)


def parity_check(G: np.ndarray, params: ParameterSet) -> np.ndarray:
    """The dense H = [-W^T | I] for a generator G = [M1 | M2] whose left
    part is invertible, with W = M1^{-1} M2 by dense Gauss-Jordan on the
    expansion: no library solve takes part."""
    k, q = params.k, params.q
    dense = expand(generator_matrix(G, params))
    M1_inv = gf_inv_dense(dense[:, :k], q)
    assert M1_inv is not None, "the generator is not reducible"
    W = gf_matmul(M1_inv, dense[:, k:], q)
    return np.concatenate([(-W.T) % q, np.eye(params.r, dtype=np.int64)], axis=1)


def expand(A: QCMatrix) -> np.ndarray:
    """Dense (rows0*p) x (cols0*p) matrix over F_q, as int64, so that test
    arithmetic on it does not wrap in the blocks' unsigned type."""
    p = A.p
    idx = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    dense = A.blocks.astype(np.int64)[:, :, idx]  # (rows0, cols0, p, p)
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


def perm_qc_matrix(P: QCPermutation, q: int) -> QCMatrix:
    """P as a block matrix of monomials over F_q; its transpose is P^{-1}."""
    size0 = P.block_perm.size
    blocks = np.zeros((size0, size0, P.p), dtype=np.int64)
    for i in range(size0):
        # first-row convention: coefficient (p - t) mod p realizes j -> j + t
        blocks[i, P.block_perm[i], (P.p - P.shifts[i]) % P.p] = 1
    return QCMatrix(blocks, q)


def perm_dense(P: QCPermutation, q: int) -> np.ndarray:
    """The dense permutation matrix of P over F_q."""
    return expand(perm_qc_matrix(P, q))


def density_pmf(density: DensityPolynomial) -> np.ndarray:
    """The density's probabilities as floats, one for each value of Z_q,
    0.0 for a value it does not list."""
    return np.array([float(density.coeffs.get(v, 0)) for v in range(density.q)])


def density_support(density: DensityPolynomial) -> list:
    """The (value, probability) pairs of the density's nonzero
    probabilities, in increasing order of value."""
    return [(v, density.coeffs[v]) for v in range(density.q) if density.coeffs.get(v, 0) > 0]


def optimize_attack(*, n: int, k: int, q: int, p: int) -> CostReport:
    """The library optimizer's minimum by a scalar loop: for each merge
    depth b with nu_max > 0 and phi_max > 0, each of the 21 crossings of
    its seven lines that are not parallel, clamped into the closed region
    and scored by `_exponents`; the first least t_doom_log2 wins."""
    R = k / n
    L = math.log2(q)
    D = math.log2(1.0 - 1.0 / q)
    best = None
    for b in range(1, math.floor(math.log2(n)) + 1):
        nu_max = 2.0 ** (-b) * math.log2(q - 1)
        phi_max = min(1.0 - R, 1.0 - 2.0 ** b / n)
        if nu_max <= 0 or phi_max <= 0:
            continue
        # each line as (a, c, d): a*u + c*phi = d
        lines = [(0, 1, 0.0), (0, 1, 1.0 - R), (0, 1, 1.0 - 2.0 ** b / n), (1, 0, 0.0),
                 (1, nu_max, nu_max), (b, L, (1.0 - R) * L), (b + 1, L + D, (1.0 - R) * L)]
        for (a1, c1, d1), (a2, c2, d2) in itertools.combinations(lines, 2):
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            phi = min(max((a1 * d2 - a2 * d1) / det, 0.0), phi_max)
            u = min(max((d1 * c2 - d2 * c1) / det, 0.0), (1.0 - phi) * nu_max)
            report = _exponents(AttackPoint(b, u / (1.0 - phi), phi), n=n, k=k, q=q, p=p)
            if best is None or report.t_doom_log2 < best.t_doom_log2:
                best = report
    if best is None:
        raise ConstraintError("no feasible attack point found")
    return best


def value_pairs(values: np.ndarray) -> tuple:
    """The (g, t) pairs of a multiset of values, as `_p_zero` takes them:
    each distinct value g in increasing order and its count t."""
    g, t = np.unique(values, return_counts=True)
    return tuple(zip(g.tolist(), t.tolist()))


def floyd_subsets(rng: np.random.Generator, population: int, rows: int,
                  size: int) -> np.ndarray:
    """`rows` uniform `size`-subsets of range(population) from the same
    single `rng.integers` draw as the library's `_subsets`, by Floyd's
    algorithm run one row and one entry at a time: the j-th draw t, from
    range(population - size + j + 1), is kept unless the row already holds
    it, and then population - size + j is taken."""
    draws = rng.integers(0, np.arange(population - size + 1, population + 1), size=(rows, size))
    out = np.empty((rows, size), dtype=np.int64)
    for row, drawn in zip(out, draws.tolist()):
        chosen: list[int] = []
        for j, t in enumerate(drawn):
            chosen.append(population - size + j if t in chosen else t)
        row[:] = chosen
    return out


def masked_vector_pairs(params: ParameterSet, trials: int, seed):
    """The (g, t) pairs of each masked vector of one Monte Carlo batch, in
    trial order, from the same random stream as the library's batch: the
    generator's k0 rows, then every trial's m_g codeword rows, then every
    trial's weight-w pattern, each as one `floyd_subsets` draw."""
    q, k, r, w = params.q, params.k, params.r, params.w
    rng = np.random.default_rng(seed)
    G = np.sort(floyd_subsets(rng, params.n, params.k0, params.w_g), axis=1)
    rows = floyd_subsets(rng, k, trials, params.m_g)
    patterns = floyd_subsets(rng, r, trials, w)
    for picked, pattern in zip(rows, patterns):
        v = np.concatenate([k + pattern, codeword_positions(G, picked, params.p)])
        yield value_pairs(np.unique(v, return_counts=True)[1] % q)


def per_trial_moments(params: ParameterSet, density: DensityPolynomial,
                      trials: int, seed) -> tuple[float, float]:
    """One Monte Carlo batch's (sum, sum of squared deviations) with a
    `_p_zero` call on every trial, accumulated by Welford's update in
    trial order."""
    pmf = density_pmf(density)
    pmf /= pmf.sum()
    squares: dict = {}
    mean = m2 = 0.0
    for i, pairs in enumerate(masked_vector_pairs(params, trials, seed), 1):
        p0 = _p_zero(pairs, pmf, squares)
        accept = math.exp(params.n * math.log1p(-p0)) if p0 < 1.0 else 0.0
        delta = accept - mean
        mean += delta / i
        m2 += delta * (accept - mean)
    return mean * trials, m2


def multinomial_acceptance(params: ParameterSet, density: DensityPolynomial,
                           trials: int, seed: int,
                           batch_size: int = 1000) -> tuple[float, float]:
    """Accepted share of `trials` sampled signing attempts, and its binomial
    standard error, in batches that each share one code sample and take
    one seed spawned from `seed`.

    The draws are signing's own (`sample_generator`, then per attempt
    `codeword_from_generator` and an `rng.choice` pattern), not the
    library Monte Carlo's subset sampler, so this is an independent sample
    of the same distribution. The masked vector v = e + c is built as in
    signing. Each signature
    entry is a sum sum_j v_j X_j with X_j i.i.d. from the density, so for
    each distinct value g of v, taken t_g times, the contributions to all n
    entries are read off n multinomial draws of t_g over the density's
    values. An attempt is accepted when no entry is 0 mod q.
    """
    q, n, k, r, w = params.q, params.n, params.k, params.r, params.w
    pairs = density_support(density)
    dvals = np.array([v for v, _ in pairs], dtype=np.int64)
    dprobs = np.array([float(pr) for _, pr in pairs])
    dprobs /= dprobs.sum()
    accepted = 0
    seeds = np.random.SeedSequence(seed).spawn(-(-trials // batch_size))
    for i, batch_seed in enumerate(seeds):
        rng = np.random.default_rng(batch_seed)
        G = sample_generator(params, rng)
        for _ in range(min(batch_size, trials - i * batch_size)):
            c = codeword_from_generator(G, params, rng)
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


def reference_syndrome(message: bytes, theta: bytes,
                       params: ParameterSet) -> tuple[np.ndarray, int]:
    """(support, words in the stream read last) of derive_syndrome's
    syndrome, read one little-endian 32-bit word at a time: a word below the
    largest multiple of r under 2^32 gives the index word mod r, and the
    first w distinct indices form the support. The stream starts at
    max(4 w, 64) words and is read again at twice the length each time it
    runs out."""
    r, w = params.r, params.w
    seed = _TAG_EXPAND + hashlib.sha256(_TAG_MSG + message).digest() + theta
    limit = (2**32 // r) * r
    chosen: list[int] = []
    nwords = max(4 * w, 64)
    stream = hashlib.shake_256(seed).digest(4 * nwords)
    consumed = 0
    while len(chosen) < w:
        if consumed == len(stream):
            nwords *= 2
            stream = hashlib.shake_256(seed).digest(4 * nwords)
        word = int.from_bytes(stream[consumed : consumed + 4], "little")
        consumed += 4
        if word < limit and word % r not in chosen:
            chosen.append(word % r)
    return np.sort(np.array(chosen, dtype=np.int64)), nwords


_DESERIALIZERS = {
    serial.OBJ_PARAMS: serial.deserialize_params,
    serial.OBJ_PUBLIC: serial.deserialize_public,
    serial.OBJ_PRIVATE: serial.deserialize_private,
    serial.OBJ_SIGNATURE: serial.deserialize_signature,
}


def deserialize(data: bytes):
    """The object that `data` encodes, read by the library's deserializer
    for its object-type byte; an input too short to hold that byte, or
    naming no object type, goes to `deserialize_params`, so the library
    rejects every malformed input."""
    kind = data[6] if len(data) > 6 else serial.OBJ_PARAMS
    return _DESERIALIZERS.get(kind, serial.deserialize_params)(data)
