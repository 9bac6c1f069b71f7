"""One-time signatures from large-weight syndrome decoding.

Key generation hides a sparse-generator code behind a quasi-cyclic
permutation P and a dense invertible transformation S: the public matrix
is H' = P^{-1} H S^{-1}, with H S^{-1} solved for; S^{-1} is never formed.
Signing maps the message to a sparse weight-w syndrome s, lifts it to an
error pattern e = [0_k | (Ps)^T], masks it with a random low-weight
codeword c, and publishes sigma = (e + c) S^T; attempts are rejected until
sigma has no zero entries mod q. Verification recomputes s from
(message, theta) and checks H' sigma^T = s together with zero-freeness.

The one-time contract (never sign two distinct messages with one key) is
documented, not enforced: keys carry no usage state. Nothing here is
constant-time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .ldgm import codeword_from_generator, make_code
from .params import ParameterSet
from .qcalg import (
    QCMatrix,
    QCPermutation,
    SparseVector,
    perm_apply,
    perm_inv_mul,
    qc_solve,
    qc_vec_mul,
    random_qc_permutation,
)

# domain-separation tags for the hash, the theta derivation and the
# syndrome-expansion stream
_TAG_MSG = b"spanse/msg-hash/v1"
_TAG_THETA = b"spanse/theta/v1"
_TAG_EXPAND = b"spanse/syndrome-expand/v1"

MAX_S_RETRIES = 100
DEFAULT_MAX_SIGN_ATTEMPTS = 10_000


class KeygenError(Exception):
    """Resample budget exhausted while drawing an invertible S."""


class SigningError(Exception):
    """Rejection-sampling cap exceeded; the density is badly tuned."""


@dataclass
class PrivateKey:
    """{P, G, S}: exactly what signing reads. H lives only in keygen."""

    params: ParameterSet
    P: QCPermutation  # r x r block-shift permutation
    G: QCMatrix  # k0 x n0 blocks, sparse binary generator
    S: QCMatrix  # n0 x n0 blocks, invertible
    _St: QCMatrix | None = field(default=None, repr=False, compare=False)

    @property
    def St(self) -> QCMatrix:
        if self._St is None:
            self._St = self.S.transpose()
        return self._St


@dataclass
class PublicKey:
    params: ParameterSet
    Hpub: QCMatrix  # r0 x n0 blocks
    _Ht: QCMatrix | None = field(default=None, repr=False, compare=False)

    @property
    def Ht(self) -> QCMatrix:
        if self._Ht is None:
            self._Ht = self.Hpub.transpose()
        return self._Ht


@dataclass(frozen=True)
class Signature:
    sigma: np.ndarray  # n entries, canonical in F_q, all nonzero
    theta: bytes


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None  # "zero-entry" | "syndrome-weight" | "syndrome-mismatch"

    def __bool__(self) -> bool:
        return self.accepted


def sample_dense_transform(params: ParameterSet, rng: np.random.Generator) -> QCMatrix:
    """n0 x n0 block matrix with block rows drawn i.i.d. from the density."""
    pairs = [(v, pr) for v, pr in params.density.value_probabilities() if pr > 0]
    values = np.array([v for v, _ in pairs], dtype=np.int64)
    probs = np.array([float(pr) for _, pr in pairs])
    probs /= probs.sum()
    blocks = rng.choice(values, size=(params.n0, params.n0, params.p), p=probs)
    return QCMatrix(blocks, params.q)


def keygen(params: ParameterSet, rng: np.random.Generator) -> tuple[PrivateKey, PublicKey]:
    """Sample {P, G, S} and publish H' = P^{-1} H S^{-1}, where H S^{-1} = (S^{-T} H^T)^T."""
    G, H = make_code(params, rng)
    P = random_qc_permutation(params.r0, params.p, params.q, rng)
    Ht = H.transpose()
    for _ in range(MAX_S_RETRIES):
        S = sample_dense_transform(params, rng)
        X = qc_solve(S.transpose(), Ht)
        if X is not None:
            return PrivateKey(params, P, G, S), PublicKey(params, perm_inv_mul(P, X.transpose()))
    raise KeygenError(
        f"no invertible dense transform in {MAX_S_RETRIES} draws; "
        "the density may be degenerate"
    )


def _expand_stream(seed: bytes, nbytes: int) -> bytes:
    return hashlib.shake_256(seed).digest(nbytes)


def derive_syndrome(message: bytes, theta: bytes, params: ParameterSet) -> SparseVector:
    """s = F_theta(hash(message)): binary, length r, Hamming weight exactly w.

    The hash digest and theta seed an extendable-output stream read as
    little-endian 32-bit words; words are rejection-sampled into [0, r)
    without modulo bias and the first w distinct indices form the support.
    """
    r, w = params.r, params.w
    digest = hashlib.sha256(_TAG_MSG + message).digest()
    seed = _TAG_EXPAND + digest + theta
    limit = (2**32 // r) * r
    chosen: list[int] = []
    seen: set[int] = set()
    nwords = max(4 * w, 64)
    consumed = 0
    stream = _expand_stream(seed, 4 * nwords)
    while len(chosen) < w:
        if consumed + 4 > len(stream):
            nwords *= 2
            stream = _expand_stream(seed, 4 * nwords)
        word = int.from_bytes(stream[consumed : consumed + 4], "little")
        consumed += 4
        if word >= limit:
            continue
        idx = word % r
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
    idx = np.sort(np.array(chosen, dtype=np.int64))
    return SparseVector(r, idx, np.ones(w, dtype=np.int64), params.q)


def choose_theta(message: bytes, mode: str, rng: np.random.Generator | None = None) -> bytes:
    """Theta is a message digest (deterministic) or 32 fresh random bytes."""
    if mode == "deterministic":
        return hashlib.sha256(_TAG_THETA + message).digest()
    if mode == "randomized":
        if rng is None:
            raise ValueError("randomized mode needs an rng")
        return rng.bytes(32)
    raise ValueError(f"unknown theta mode {mode!r}")


def sign(
    sk: PrivateKey,
    message: bytes,
    mode: str = "deterministic",
    rng: np.random.Generator | None = None,
    max_attempts: int = DEFAULT_MAX_SIGN_ATTEMPTS,
) -> tuple[Signature, int]:
    """Produce (signature, attempts used). One-time: sign a single message.

    Each attempt masks the permuted-syndrome pattern with a fresh random
    codeword; an attempt is rejected when any entry of sigma is 0 mod q.
    """
    if rng is None:
        rng = np.random.default_rng()
    params = sk.params
    theta = choose_theta(message, mode, rng)
    s = derive_syndrome(message, theta, params)
    s_perm = perm_apply(sk.P, s)
    e = SparseVector(params.n, params.k + s_perm.indices, s_perm.values, params.q)
    for attempt in range(1, max_attempts + 1):
        c = codeword_from_generator(sk.G, params, params.m_g, rng)
        sigma = qc_vec_mul(e.add(c), sk.St)
        if np.all(sigma != 0):
            return Signature(sigma, theta), attempt
    raise SigningError(
        f"no zero-free signature in {max_attempts} attempts; "
        "the density is concentrating mass on zero-sum entries"
    )


def verify(pk: PublicKey, message: bytes, sig: Signature) -> VerifyResult:
    """Check zero-freeness, syndrome weight, and H' sigma^T = s."""
    params = pk.params
    sigma = np.asarray(sig.sigma, dtype=np.int64)
    if sigma.size != params.n or np.any(sigma % params.q == 0):
        return VerifyResult(False, "zero-entry")
    s_star = derive_syndrome(message, sig.theta, params)
    if s_star.weight() != params.w:
        return VerifyResult(False, "syndrome-weight")
    syndrome = qc_vec_mul(sigma % params.q, pk.Ht)
    if not np.array_equal(syndrome, s_star.to_dense()):
        return VerifyResult(False, "syndrome-mismatch")
    return VerifyResult(True)
