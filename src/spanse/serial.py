"""Byte-exact serialization of parameters, keys and signatures.

Layout (all integers little-endian):

    magic "SPNS" | version u16 = 1 | object-type u8 | params block | payload

object-type: 1 = parameters, 2 = public key, 3 = private key, 4 = signature.

params block: q, p, n0, k0, w, w_g, m_g as u16, then the density as a u16
entry count followed by (value u8, numerator u32, denominator u32) triples.

payloads:
    public     r0*n0 circulant first rows, p bytes each (row-major blocks)
    private    block permutation as r0 u16, shifts as r0 u16, then per
               generator block row: count u32, count u32 positions into the
               expanded first row, count u8 values; then n0*n0 circulant
               first rows of the dense transform, p bytes each
    signature  theta length u16, theta bytes, n signature bytes

Symbols are single bytes, so q <= 256 is required on both write and read.
Every symbol byte must be < q; anything else is a parse error. Loading
checks everything that costs O(size): lengths, symbol ranges, the
permutation, the shifts, that each generator row holds w_g distinct
positions all of value 1 (as keygen writes it), and that no block row of
S is zero (signing with such an S could never succeed). Keys are held as
stored (G as sorted one-positions, S and H' as blocks that are uint8 views
of the input's bytes, neither copied nor widened); H, S^{-1} and the
transposes are not derived. `check_private` runs the two O(n0^3 p) checks
a load skips: that the generator is reducible (ldgm.reducible) and that S
is invertible, each by eliminating the matrix alone, so neither W nor an
inverse is formed. File writes go to a temporary name in the target
directory and are renamed into place, so failures never leave a partial
file.
"""

from __future__ import annotations

import os
import struct
import tempfile
from fractions import Fraction

import numpy as np

from .ldgm import reducible
from .params import DensityPolynomial, ParameterSet
from .qcalg import QCMatrix, QCPermutation, qc_solve
from .scheme import PrivateKey, PublicKey, Signature

MAGIC = b"SPNS"
VERSION = 1

OBJ_PARAMS = 1
OBJ_PUBLIC = 2
OBJ_PRIVATE = 3
OBJ_SIGNATURE = 4


class SerializationError(ValueError):
    """Malformed or out-of-range encoding."""


class _Reader:
    def __init__(self, data: bytes):
        # symbols are read as views of data, so a caller's mutable buffer is copied
        self.data = data if isinstance(data, bytes) else bytes(data)
        self.pos = 0

    def require(self, n: int):
        """Fail unless at least n bytes remain; call before sizing an allocation."""
        if self.pos + n > len(self.data):
            raise SerializationError("truncated input")

    def take(self, n: int) -> bytes:
        self.require(n)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def done(self):
        if self.pos != len(self.data):
            raise SerializationError(f"{len(self.data) - self.pos} trailing bytes")


def _u16(v: int) -> bytes:
    if not (0 <= v < 2**16):
        raise SerializationError(f"value {v} does not fit in u16")
    return struct.pack("<H", v)


def _u32(v: int) -> bytes:
    if not (0 <= v < 2**32):
        raise SerializationError(f"value {v} does not fit in u32")
    return struct.pack("<I", v)


def _check_symbol_field(q: int):
    if q > 256:
        raise SerializationError(f"q={q} does not fit the one-byte symbol format (q <= 256)")


def _params_block(params: ParameterSet) -> bytes:
    _check_symbol_field(params.q)
    out = b"".join(
        _u16(v)
        for v in (params.q, params.p, params.n0, params.k0, params.w, params.w_g, params.m_g)
    )
    entries = sorted(params.density.coeffs.items())
    out += _u16(len(entries))
    for value, prob in entries:
        if value >= 256:
            raise SerializationError("density value does not fit in u8")
        out += bytes([value]) + _u32(prob.numerator) + _u32(prob.denominator)
    return out


def _read_params(rd: _Reader) -> ParameterSet:
    q, p, n0, k0, w, w_g, m_g = (rd.u16() for _ in range(7))
    _check_symbol_field(q)
    nent = rd.u16()
    coeffs: dict[int, Fraction] = {}
    for _ in range(nent):
        value = rd.u8()
        num = rd.u32()
        den = rd.u32()
        if den == 0:
            raise SerializationError("zero denominator in density entry")
        if value in coeffs:
            raise SerializationError("duplicate density entry")
        coeffs[value] = Fraction(num, den)
    try:
        density = DensityPolynomial(coeffs, q)
        return ParameterSet("restored", q, p, n0, k0, w, w_g, m_g, density)
    except ValueError as exc:
        raise SerializationError(f"invalid parameters: {exc}") from exc


def _header(objtype: int, params: ParameterSet) -> bytes:
    return MAGIC + _u16(VERSION) + bytes([objtype]) + _params_block(params)


def _symbols(rd: _Reader, count: int, q: int) -> np.ndarray:
    """count symbol bytes, checked below q, as a read-only uint8 view of the
    input: QCMatrix keeps it as it is, with no copy and no widening."""
    rd.require(count)
    raw = np.frombuffer(rd.data, dtype=np.uint8, count=count, offset=rd.pos)
    rd.pos += count
    if raw.size and raw.max() >= q:
        raise SerializationError("symbol byte out of field range")
    return raw


def serialize_params(params: ParameterSet) -> bytes:
    return _header(OBJ_PARAMS, params)


def serialize_public(pk: PublicKey) -> bytes:
    # the header holds q <= 256, so the blocks are uint8, one byte a symbol
    return _header(OBJ_PUBLIC, pk.params) + pk.Hpub.blocks.tobytes()


def serialize_private(sk: PrivateKey) -> bytes:
    params = sk.params
    out = [_header(OBJ_PRIVATE, params)]
    out.append(np.concatenate([sk.P.block_perm, sk.P.shifts]).astype("<u2").tobytes())
    for row in sk.G:
        out += [_u32(row.size), row.astype("<u4").tobytes(), bytes([1]) * row.size]
    out.append(sk.S.blocks.tobytes())
    return b"".join(out)


def serialize_signature(sig: Signature, params: ParameterSet) -> bytes:
    if len(sig.theta) >= 2**16:
        raise SerializationError("theta too long")
    sigma = np.asarray(sig.sigma, dtype=np.int64)
    # n bytes: any other sigma would read back as another one, or not at all
    if sigma.size != params.n or sigma.min() < 0 or sigma.max() >= params.q:
        raise SerializationError(f"sigma is not n = {params.n} entries in [0, {params.q})")
    return (
        _header(OBJ_SIGNATURE, params)
        + _u16(len(sig.theta))
        + sig.theta
        + sigma.astype(np.uint8).tobytes()
    )


def _read_header(data: bytes, expected: int) -> tuple[_Reader, ParameterSet]:
    rd = _Reader(data)
    if rd.take(4) != MAGIC:
        raise SerializationError("bad magic")
    version = rd.u16()
    if version != VERSION:
        raise SerializationError(f"unsupported version {version}")
    objtype = rd.u8()
    if objtype != expected:
        raise SerializationError(f"expected object type {expected}, found {objtype}")
    return rd, _read_params(rd)


def deserialize_params(data: bytes) -> ParameterSet:
    rd, params = _read_header(data, OBJ_PARAMS)
    rd.done()
    return params


def deserialize_public(data: bytes) -> PublicKey:
    rd, params = _read_header(data, OBJ_PUBLIC)
    syms = _symbols(rd, params.r0 * params.n0 * params.p, params.q)
    rd.done()
    blocks = syms.reshape(params.r0, params.n0, params.p)
    return PublicKey(params, QCMatrix(blocks, params.q))


def deserialize_private(data: bytes) -> PrivateKey:
    rd, params = _read_header(data, OBJ_PRIVATE)
    r0, p, q = params.r0, params.p, params.q
    # permutation and shifts, one count word per generator row, then S
    rd.require(4 * r0 + 4 * params.k0 + params.n0 * params.n0 * p)
    perm, shifts = np.frombuffer(rd.take(4 * r0), dtype="<u2").astype(np.int64).reshape(2, r0)
    if np.any(shifts >= p):
        raise SerializationError("shift out of range")
    try:
        P = QCPermutation(perm, shifts, p)
    except ValueError as exc:
        raise SerializationError(f"invalid permutation: {exc}") from exc
    G = np.empty((params.k0, params.w_g), dtype=np.int64)
    for i in range(params.k0):
        count = rd.u32()
        if count != params.w_g:
            raise SerializationError(f"generator row weight {count}, not w_g = {params.w_g}")
        pos = np.sort(np.frombuffer(rd.take(4 * count), dtype="<u4").astype(np.int64))
        if pos[-1] >= params.n or np.any(pos[1:] == pos[:-1]):
            raise SerializationError("bad generator positions")
        if np.any(_symbols(rd, count, q) != 1):
            raise SerializationError("generator entry other than 1")
        G[i] = pos
    s_syms = _symbols(rd, params.n0 * params.n0 * p, q)
    rd.done()
    if not s_syms.reshape(params.n0, -1).any(axis=1).all():
        # singular, and that block of every signature would be zero
        raise SerializationError("dense transform has an all-zero block row")
    S = QCMatrix(s_syms.reshape(params.n0, params.n0, p), q)
    return PrivateKey(params, P, G, S)


def check_private(sk: PrivateKey):
    """Raise SerializationError unless the generator is reducible (its left
    block part M1 invertible) and S is invertible, as in every key keygen
    writes.

    These are the two O(n0^3 p) checks that loading skips. Each matrix is
    eliminated alone, S in a copy of its blocks, so neither M1's solution
    W nor an inverse is formed.
    """
    if not reducible(sk.G, sk.params):
        raise SerializationError("generator is not reducible: "
                                 "left block part of the generator is singular")
    if qc_solve(sk.S.blocks.copy(), sk.S.q) is None:
        raise SerializationError("dense transform is singular")


def deserialize_signature(data: bytes) -> tuple[Signature, ParameterSet]:
    rd, params = _read_header(data, OBJ_SIGNATURE)
    tlen = rd.u16()
    theta = rd.take(tlen)
    sigma = _symbols(rd, params.n, params.q).astype(np.int64)
    rd.done()
    return Signature(sigma, theta), params


def atomic_write(path: str, data: bytes):
    """Write via a temporary file and rename, so readers never see a prefix."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spanse-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
