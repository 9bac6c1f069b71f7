"""One-time signatures from large-weight syndrome decoding.

Key generation hides a sparse-generator code behind a quasi-cyclic
permutation P and a dense invertible transformation S: the public matrix
is H' = P^{-1} H S^{-1}, where H = [-W^T | I] is the systematic parity
check of G = [M1 | M2]. With T = [[M1, M2], [0, I]], H = [0 | I] T^{-T},
and P^{-T} = P for a permutation, so H'^T = (T S^T)^{-1} [0; P]: keygen
fills one buffer [T S^T | [0; D]] per S draw, T S^T from gathers of S's
columns and D with P's monomials on its diagonal, solves it in place and
permutes the result's block columns. Neither H, W, S^T nor an inverse is
formed. T S^T is invertible exactly when S and M1 are, which is what makes
a private key valid, so keycheck (check_private) eliminates the same
buffer's T S^T part alone, and M1 only to name a fault.
Signing maps the message to a sparse weight-w syndrome s, lifts it to an
error pattern e = [0_k | (Ps)^T], masks it with a random low-weight
codeword c, and publishes sigma = (e + c) S^T; attempts are rejected until
sigma has no zero entries mod q. Verification recomputes s from
(message, theta) and checks H' sigma^T = s together with zero-freeness.
Both read the keys as stored: sigma^T = S (e + c)^T, and H' sigma^T;
neither S^T nor H'^T is formed. Sparse vectors are position arrays: s and
P s hold w positions, c the m_g * w_g positions of G's rows (a position
repeated where rows overlap), and e + c is the concatenation of e's and
c's positions, whose columns of S are gathered and summed.

The one-time contract (never sign two distinct messages with one key) is
documented, not enforced: keys carry no usage state. Nothing here is
constant-time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .ldgm import codeword_from_generator, make_code, reducible
from .params import ParameterError, ParameterSet, check_working_set
from .qcalg import (
    QCMatrix,
    QCPermutation,
    perm_apply,
    qc_mat_gather,
    qc_mat_vec,
    qc_solve,
    random_qc_permutation,
    symbol_dtype,
)

# domain-separation tags for the hash, the theta derivation and the
# syndrome-expansion stream
_TAG_MSG = b"spanse/msg-hash/v1"
_TAG_THETA = b"spanse/theta/v1"
_TAG_EXPAND = b"spanse/syndrome-expand/v1"
# theta's length: a SHA-256 digest, or as many random bytes
THETA_BYTES = 32

MAX_S_RETRIES = 100
# Entries of S per rng.choice call in sample_dense_transform: 7 block rows
# at spanse-128's ring with n0 = 84, 2 at spanse-128. The draws equal one
# call per block row, since a call takes its uniforms from the stream in
# order. A p101-shape draw took 15.5 to 16.9 ms against 17.0 to 17.4 ms a
# row at a time; 2^17 entries and more only grew the float and index
# temporaries.
_DRAW_ENTRIES = 2**16
# Bytes keygen holds at its peak, in two terms. Per symbol of n0^2 p: S
# (1), the solve's buffer [T S^T | [0; D]] (1.5 at r0 = n0 / 2) and the
# r0-wide result (0.5), one byte each, since every ParameterSet has
# q <= 256. Per n0 p: the solve kernel's work buffers, which hold a
# panel's spectra and products over all n0 block rows for 8 pivot columns,
# so they grow as n0, not n0^2. Fitted to tracemalloc peaks of 6.98 MB at
# spanse-128's ring with n0 = 84 and 30.62 MB at spanse-128, where the
# model gives 7.02 and 30.98 MB; the first keygen in a process peaks about
# 0.8 MB higher.
_KEYGEN_SYMBOL_BYTES = 3
_KEYGEN_ROW_BYTES = 575
# signing attempts before SigningError, read at each call
MAX_SIGN_ATTEMPTS = 10_000


class KeygenError(ParameterError):
    """Resample budget exhausted while drawing an invertible S: the
    parameter set's density almost never gives one."""


class SigningError(Exception):
    """Rejection-sampling cap exceeded; the density is badly tuned."""


@dataclass
class PrivateKey:
    """{P, G, S}: exactly what signing reads."""

    params: ParameterSet
    P: QCPermutation  # r x r block-shift permutation
    G: np.ndarray  # (k0, w_g) sorted one-positions of the sparse binary generator
    S: QCMatrix  # n0 x n0 blocks, invertible


@dataclass
class PublicKey:
    params: ParameterSet
    Hpub: QCMatrix  # r0 x n0 blocks


@dataclass(frozen=True)
class Signature:
    sigma: np.ndarray  # n entries, canonical in F_q; sign makes them all nonzero
    theta: bytes


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    # "length" (sigma does not hold n entries) | "zero-entry" | "syndrome-mismatch"
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def sample_dense_transform(params: ParameterSet, rng: np.random.Generator) -> QCMatrix:
    """n0 x n0 block matrix with entries drawn i.i.d. from the density, as
    many block rows per draw as _DRAW_ENTRIES allow (at least one): the
    stream of one draw of the whole matrix, with a draw's float and index
    temporaries, into the symbol array QCMatrix keeps."""
    pairs = sorted((v, pr) for v, pr in params.density.coeffs.items() if pr > 0)
    values = np.array([v for v, _ in pairs], dtype=symbol_dtype(params.q))
    probs = np.array([float(pr) for _, pr in pairs])
    probs /= probs.sum()
    blocks = np.empty((params.n0, params.n0, params.p), dtype=values.dtype)
    rows = max(1, _DRAW_ENTRIES // blocks[0].size)
    for lo in range(0, params.n0, rows):
        part = blocks[lo : lo + rows]
        part[...] = rng.choice(values, size=part.shape, p=probs)
    return QCMatrix(blocks, params.q)


def keygen(params: ParameterSet, rng: np.random.Generator) -> tuple[PrivateKey, PublicKey]:
    """Sample {P, G, S} and publish H' = P^{-1} H S^{-1}, as H'^T = (T S^T)^{-1} [0; P].

    T is invertible exactly when M1 is, so T S^T is singular when S or M1
    is. make_code tests only M1(1); so the first time the solve fails for
    a G, M1 is tested over R_p (`reducible`), and a singular M1 is
    replaced by a fresh G before the next S draw. Each S draw fills a
    buffer [T S^T | [0; D]] that the solve eliminates in place and that
    is freed when the solve returns. The row operations depend on T S^T
    alone, so the solution's block column i is moved to pi(i), as [0; P]
    has it. Before any draw, its peak of
    _KEYGEN_SYMBOL_BYTES n0^2 p symbols and _KEYGEN_ROW_BYTES n0 p bytes
    must fit (params.check_working_set).
    """
    if params.density.d0 == 1:
        raise ParameterError("the density puts all its mass on 0, so every S is zero")
    check_working_set(params, "keygen", params.n0 * params.p * (
        _KEYGEN_SYMBOL_BYTES * params.n0 + _KEYGEN_ROW_BYTES))
    G = make_code(params, rng)
    P = random_qc_permutation(params.r0, params.p, rng)
    m1_invertible = False
    for _ in range(MAX_S_RETRIES):
        S = sample_dense_transform(params, rng)
        X = qc_solve(_public_system(S, G, P, params), params.q)
        if X is not None:
            # np.take returns a C-ordered array, which QCMatrix keeps
            # without a copy
            Hpub = QCMatrix(np.take(X, P.inverse, axis=1), params.q).transpose()
            return PrivateKey(params, P, G, S), PublicKey(params, Hpub)
        if not m1_invertible:
            m1_invertible = reducible(G, params)
            if not m1_invertible:
                G = make_code(params, rng)
    raise KeygenError(
        f"no invertible dense transform in {MAX_S_RETRIES} draws; "
        "the density may be degenerate"
    )


def _public_system(S: QCMatrix, G: np.ndarray, P: QCPermutation,
                   params: ParameterSet) -> np.ndarray:
    """[T S^T | [0; D]] as (n0, n0 + r0, p) blocks. Block row i of T S^T is
    expand(S) t_i^T for the first row t_i of T's block row i: G's row i for
    i < k0, the one-position i p for i >= k0. [0; D] has x^(-shift_i) at
    block (k0 + i, i), where [0; P] has it at (k0 + i, pi(i))."""
    n0, k0, p = params.n0, params.k0, params.p
    aug = np.zeros((n0, n0 + params.r0, p), dtype=symbol_dtype(params.q))
    for i, t_i in enumerate(list(G) + [[i * p] for i in range(k0, n0)]):
        aug[i, :n0] = qc_mat_gather(S, t_i).reshape(n0, p)
    aug[k0 + np.arange(params.r0), n0 + np.arange(params.r0), -P.shifts % p] = 1
    return aug


def check_private(sk: PrivateKey):
    """Raise ValueError unless S and G's left block part M1 are invertible,
    as in every key keygen writes: the check a key load skips.

    T S^T is singular exactly when S or M1 is, so the left n0 block
    columns of keygen's buffer, T S^T alone, are eliminated once, in
    place. Only when that fails is M1 tested (`reducible`), to name the
    fault.
    """
    params = sk.params
    if qc_solve(_public_system(sk.S, sk.G, sk.P, params)[:, :params.n0], params.q) is not None:
        return
    if not reducible(sk.G, params):
        raise ValueError("generator is not reducible: left block part of the generator is singular")
    raise ValueError("dense transform is singular")


def derive_syndrome(message: bytes, theta: bytes, params: ParameterSet) -> np.ndarray:
    """s = F_theta(hash(message)): the w sorted positions of a binary
    syndrome of length r, so of Hamming weight exactly w.

    The hash digest and theta seed an extendable-output stream read as
    little-endian 32-bit words; words below the largest multiple of r
    under 2^32 are kept and taken mod r, without modulo bias, and the
    first w distinct indices form the support. When the first
    max(4 w, 64) words hold fewer, the stream is read again at twice the
    length, which extends the shorter one, until they do.
    """
    r, w = params.r, params.w
    digest = hashlib.sha256(_TAG_MSG + message).digest()
    seed = _TAG_EXPAND + digest + theta
    limit = (2**32 // r) * r
    nwords = max(4 * w, 64)
    while True:
        words = np.frombuffer(hashlib.shake_256(seed).digest(4 * nwords), dtype="<u4")
        idx = words[words < limit].astype(np.int64) % r
        first = np.unique(idx, return_index=True)[1]
        if first.size >= w:
            return np.sort(idx[np.sort(first)[:w]])
        nwords *= 2


def choose_theta(message: bytes, mode: str, rng: np.random.Generator | None = None) -> bytes:
    """Theta is a message digest (deterministic) or THETA_BYTES fresh random bytes."""
    if mode == "deterministic":
        return hashlib.sha256(_TAG_THETA + message).digest()
    if mode == "randomized":
        if rng is None:
            raise ValueError("randomized mode needs an rng")
        return rng.bytes(THETA_BYTES)
    raise ValueError(f"unknown theta mode {mode!r}")


def sign(
    sk: PrivateKey,
    message: bytes,
    mode: str = "deterministic",
    rng: np.random.Generator | None = None,
) -> tuple[Signature, int]:
    """Produce (signature, attempts used). One-time: sign a single message.

    Each attempt masks the permuted-syndrome pattern with a fresh random
    codeword; an attempt is rejected when any entry of sigma is 0 mod q,
    and SigningError ends the search after MAX_SIGN_ATTEMPTS.
    """
    if rng is None:
        rng = np.random.default_rng()
    params = sk.params
    theta = choose_theta(message, mode, rng)
    e = params.k + perm_apply(sk.P, derive_syndrome(message, theta, params))
    for attempt in range(1, MAX_SIGN_ATTEMPTS + 1):
        c = codeword_from_generator(sk.G, params, rng)
        sigma = qc_mat_gather(sk.S, np.concatenate([e, c]))
        if np.all(sigma != 0):
            return Signature(sigma, theta), attempt
    raise SigningError(
        f"no zero-free signature in {MAX_SIGN_ATTEMPTS} attempts; "
        "the density is concentrating mass on zero-sum entries"
    )


def verify(pk: PublicKey, message: bytes, sig: Signature) -> VerifyResult:
    """Check sigma's length, zero-freeness and H' sigma^T = s."""
    params = pk.params
    sigma = np.asarray(sig.sigma, dtype=np.int64) % params.q
    if sigma.size != params.n:
        return VerifyResult(False, "length")
    if not sigma.all():
        return VerifyResult(False, "zero-entry")
    s_star = derive_syndrome(message, sig.theta, params)
    syndrome = qc_mat_vec(pk.Hpub, sigma)
    if not np.array_equal(syndrome, np.bincount(s_star, minlength=params.r)):
        return VerifyResult(False, "syndrome-mismatch")
    return VerifyResult(True)
