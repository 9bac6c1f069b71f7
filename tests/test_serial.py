import dataclasses

import numpy as np
import pytest

from spanse import serial
from spanse.params import DensityPolynomial, get_params
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


def test_private_round_trip_rebuilds_derived_parts(material):
    sk, _, _ = material
    sk2 = serial.deserialize_private(serial.serialize_private(sk))
    assert sk2.S == sk.S
    assert sk2.G == sk.G
    assert np.array_equal(sk2.P.block_perm, sk.P.block_perm)
    assert np.array_equal(sk2.P.shifts, sk.P.shifts)
    # nothing derived is stored or rebuilt: no H, no S^{-1}
    assert [f.name for f in dataclasses.fields(sk2)] == ["params", "P", "G", "S", "_St"]


def test_signature_round_trip(material):
    _, _, sig = material
    data = serial.serialize_signature(sig, DESK)
    sig2, params2 = serial.deserialize_signature(data)
    assert np.array_equal(sig2.sigma, sig.sigma)
    assert sig2.theta == sig.theta and params2 == DESK


def test_round_tripped_key_still_verifies(material):
    sk, pk, _ = material
    sk2 = serial.deserialize_private(serial.serialize_private(sk))
    pk2 = serial.deserialize_public(serial.serialize_public(pk))
    from spanse.scheme import verify

    sig, _ = sign(sk2, b"after the round trip", rng=np.random.default_rng(5))
    assert verify(pk2, b"after the round trip", sig).accepted


def test_dispatch_by_object_type(material):
    sk, pk, sig = material
    assert isinstance(serial.deserialize(serial.serialize_public(pk)), PublicKey)
    assert isinstance(serial.deserialize(serial.serialize_private(sk)), PrivateKey)
    out = serial.deserialize(serial.serialize_signature(sig, DESK))
    assert isinstance(out[0], Signature)
    assert serial.deserialize(serial.serialize_params(DESK)) == DESK


def test_rejects_bad_magic_version_type():
    good = serial.serialize_params(DESK)
    for mutant in (b"XXXX" + good[4:],  # magic
                   good[:4] + b"\x09\x00" + good[6:],  # version
                   good[:6] + b"\x07" + good[7:]):  # object type
        with pytest.raises(serial.SerializationError):
            serial.deserialize(mutant)


def test_rejects_truncations(material):
    _, pk, _ = material
    data = serial.serialize_public(pk)
    for cut in (0, 3, 6, 10, len(data) // 2, len(data) - 1):
        with pytest.raises(serial.SerializationError):
            serial.deserialize(data[:cut])
    with pytest.raises(serial.SerializationError):
        serial.deserialize(data + b"\x00")


def test_rejects_out_of_range_symbols(material):
    _, pk, _ = material
    data = bytearray(serial.serialize_public(pk))
    data[-1] = 200  # >= q
    with pytest.raises(serial.SerializationError):
        serial.deserialize(bytes(data))


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
            serial.deserialize(bytes(mutant))
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
