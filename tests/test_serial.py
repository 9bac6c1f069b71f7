import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import deserialize
from spanse import serial
from spanse.params import DensityPolynomial, ParameterSet, get_params
from spanse.qcalg import QCMatrix, random_qc_permutation
from spanse.scheme import PrivateKey, PublicKey, Signature, keygen, sign

DESK = get_params("desk")


@pytest.fixture(scope="module")
def material():
    rng = np.random.default_rng(200)
    sk, pk = keygen(DESK, rng)
    sig, _ = sign(sk, b"serialized message", rng=rng)
    return sk, pk, sig


def test_params_round_trip():
    data = serial.serialize_params(DESK)
    assert serial.deserialize_params(data) == DESK
    assert serial.deserialize_params(data).density == DESK.density


def test_params_above_one_byte_symbols_are_rejected():
    # q = 257 is a valid field, but its symbol 256 cannot be written as a byte
    wide = dataclasses.replace(DESK, density=DensityPolynomial.parse("1/2,1/2", 257), q=257)
    with pytest.raises(serial.SerializationError, match="q <= 256"):
        serial.serialize_params(wide)


def test_public_round_trip(material):
    _, pk, _ = material
    pk2 = serial.deserialize_public(serial.serialize_public(pk))
    assert pk2.Hpub == pk.Hpub and pk2.params == pk.params
    # the public key holds H' as stored and derives nothing from it
    assert [f.name for f in dataclasses.fields(pk2)] == ["params", "Hpub"]


def test_private_round_trip_rebuilds_derived_parts(material):
    sk, _, _ = material
    sk2 = serial.deserialize_private(serial.serialize_private(sk))
    assert sk2.S == sk.S
    assert np.array_equal(sk2.G, sk.G) and sk2.G.shape == (DESK.k0, DESK.w_g)
    assert np.array_equal(sk2.P.block_perm, sk.P.block_perm)
    assert np.array_equal(sk2.P.shifts, sk.P.shifts)
    # nothing derived is stored or rebuilt: no H, no S^{-1}, no S^T
    assert [f.name for f in dataclasses.fields(sk2)] == ["params", "P", "G", "S"]


def test_key_load_keeps_the_file_bytes():
    # a p101-sized key (n0 = 84): S is 0.7 MB of symbols and H' 0.36 MB;
    # load keeps them as uint8 views of the file's bytes, with no copy and
    # no widening, so it allocates only the small parts (P, G) and headers
    ref = get_params("spanse-128")
    ps = ParameterSet("p101", ref.q, ref.p, 84, 42, ref.w, ref.w_g, ref.m_g, ref.density)
    rng = np.random.default_rng(7)
    S = QCMatrix(rng.integers(1, ps.q, (ps.n0, ps.n0, ps.p)), ps.q)
    G = np.sort([rng.choice(ps.n, ps.w_g, replace=False) for _ in range(ps.k0)], axis=1)
    sk = PrivateKey(ps, random_qc_permutation(ps.r0, ps.p, rng), G, S)
    pk = PublicKey(ps, QCMatrix(rng.integers(0, ps.q, (ps.r0, ps.n0, ps.p)), ps.q))
    cases = ((serial.deserialize_private, serial.serialize_private(sk), S.blocks),
             (serial.deserialize_public, serial.serialize_public(pk), pk.Hpub.blocks))
    for load, data, blocks in cases:
        tracemalloc.start()
        try:
            loaded = load(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16 < blocks.nbytes / 5
        stored = loaded.S if isinstance(loaded, PrivateKey) else loaded.Hpub
        assert stored.blocks.dtype == np.uint8 and np.array_equal(stored.blocks, blocks)
        assert np.shares_memory(stored.blocks, np.frombuffer(data, dtype=np.uint8))


def test_key_loaded_from_a_mutable_buffer_does_not_follow_it(material):
    # a loaded key's blocks are views of the bytes it was read from, so a
    # bytearray is copied first: writing to it afterwards leaves the key
    sk, pk, _ = material
    for load, obj, blocks in ((serial.deserialize_private, serial.serialize_private(sk), sk.S),
                              (serial.deserialize_public, serial.serialize_public(pk), pk.Hpub)):
        data = bytearray(obj)
        loaded = load(data)
        data[-DESK.p:] = bytes(DESK.p)
        stored = loaded.S if isinstance(loaded, PrivateKey) else loaded.Hpub
        assert stored == blocks


def test_generator_positions_load_sorted_and_distinct(material):
    # row 0 of G in the file: count u32, w_g u32 positions, w_g value bytes
    sk, _, _ = material
    data = bytearray(serial.serialize_private(sk))
    start = len(serial.serialize_params(DESK)) + 4 * DESK.r0 + 4
    stored = np.frombuffer(bytes(data[start : start + 4 * DESK.w_g]), dtype="<u4")
    assert np.array_equal(stored, sk.G[0])
    # positions in another order are the same row
    data[start : start + 4 * DESK.w_g] = stored[::-1].tobytes()
    assert np.array_equal(serial.deserialize_private(bytes(data)).G, sk.G)
    # a repeated position, not next to its twin in the file, is refused
    twin = stored[::-1].copy()
    twin[2] = twin[0]
    data[start : start + 4 * DESK.w_g] = twin.tobytes()
    with pytest.raises(serial.SerializationError, match="bad generator positions"):
        serial.deserialize_private(bytes(data))


def test_signature_round_trip(material):
    _, _, sig = material
    data = serial.serialize_signature(sig, DESK)
    sig2, params2 = serial.deserialize_signature(data)
    assert np.array_equal(sig2.sigma, sig.sigma)
    assert sig2.theta == sig.theta and params2 == DESK


@pytest.mark.parametrize("sigma", [
    np.full(DESK.n, 300),  # would read back as 44s
    np.ones(DESK.n - 1),  # would read as truncated
    np.r_[np.ones(DESK.n - 1), -1],  # would read as 255, >= q
    np.r_[np.ones(DESK.n - 1), DESK.q],
    np.ones(DESK.n + 1),
], ids=["300s", "n - 1 entries", "-1", "q", "n + 1 entries"])
def test_signature_write_refuses_what_the_reader_cannot_read_back(material, sigma):
    _, _, sig = material
    with pytest.raises(serial.SerializationError, match=f"not n = {DESK.n} entries in"):
        serial.serialize_signature(Signature(sigma.astype(np.int64), sig.theta), DESK)


def test_round_tripped_key_still_verifies(material):
    sk, pk, _ = material
    sk2 = serial.deserialize_private(serial.serialize_private(sk))
    pk2 = serial.deserialize_public(serial.serialize_public(pk))
    from spanse.scheme import verify

    sig, _ = sign(sk2, b"after the round trip", rng=np.random.default_rng(5))
    assert verify(pk2, b"after the round trip", sig).accepted


def test_dispatch_by_object_type(material):
    sk, pk, sig = material
    assert isinstance(deserialize(serial.serialize_public(pk)), PublicKey)
    assert isinstance(deserialize(serial.serialize_private(sk)), PrivateKey)
    out = deserialize(serial.serialize_signature(sig, DESK))
    assert isinstance(out[0], Signature)
    assert deserialize(serial.serialize_params(DESK)) == DESK


def test_rejects_bad_magic_version_type():
    good = serial.serialize_params(DESK)
    for mutant, reason in ((b"XXXX" + good[4:], "bad magic"),
                           (good[:4] + b"\x09\x00" + good[6:], "unsupported version"),
                           (good[:6] + b"\x07" + good[7:], "expected object type")):
        with pytest.raises(serial.SerializationError, match=reason):
            deserialize(mutant)


def test_each_deserializer_rejects_another_object_type(material):
    sk, _, _ = material
    with pytest.raises(serial.SerializationError, match="expected object type 2, found 3"):
        serial.deserialize_public(serial.serialize_private(sk))


def test_rejects_truncations(material):
    _, pk, _ = material
    data = serial.serialize_public(pk)
    for cut in (0, 3, 6, 10, len(data) // 2, len(data) - 1):
        with pytest.raises(serial.SerializationError):
            deserialize(data[:cut])
    with pytest.raises(serial.SerializationError):
        deserialize(data + b"\x00")


def test_rejects_out_of_range_symbols(material):
    _, pk, _ = material
    data = bytearray(serial.serialize_public(pk))
    data[-1] = 200  # >= q
    with pytest.raises(serial.SerializationError):
        deserialize(bytes(data))


def test_mutation_fuzz_never_crashes(material):
    sk, pk, sig = material
    rng = np.random.default_rng(42)
    corpus = [
        serial.serialize_params(DESK),
        serial.serialize_public(pk),
        serial.serialize_private(sk),
        serial.serialize_signature(sig, DESK),
    ]
    rejected = parsed = 0
    for _ in range(1000):
        base = corpus[int(rng.integers(len(corpus)))]
        mutant = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(len(mutant)))
            mutant[i] = (mutant[i] + int(rng.integers(1, 256))) % 256
        if rng.random() < 0.3:
            mutant = mutant[: int(rng.integers(len(mutant)))]
        try:
            deserialize(bytes(mutant))
            # a symbol-level mutation can yield a different well-formed
            # object; the format carries no integrity check by design
            parsed += 1
        except serial.SerializationError:
            rejected += 1
    assert rejected + parsed == 1000
    assert rejected > 300


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.bin"
    serial.atomic_write(str(target), b"abc")
    assert target.read_bytes() == b"abc"
    serial.atomic_write(str(target), b"defg")
    assert target.read_bytes() == b"defg"
    assert list(tmp_path.iterdir()) == [target]
