"""Seeded CLI outputs are byte-identical to recorded SHA-256 digests.

Keygen and sign are deterministic under --seed, so a change to the ring
kernels, the elimination or the byte format that moves one byte of a
private key, public key or signature fails here. The digests were recorded
before the panel updates moved onto np.matmul; that change, and any later
one that claims to keep keys and signatures as they were, must reproduce
them. The p101 set is spanse-128's ring and weights at n0 = 16, so S and M1
are solved in several panels with resampling and slices, in about 0.15 s a
key.
"""

import hashlib
import warnings

import pytest

from spanse import serial
from spanse.cli import EXIT_OK, main
from spanse.params import ParameterSet, get_params

MESSAGE = b"byte-identity message\n"

# (params, seed) -> SHA-256 of (private key, public key, signature)
GOLDEN = {
    ("desk", 0): ("563b94c21457d798c4b1a015c4a8ca182f9adcaab62161861c963defb9ed203d",
                 "913be48d99d4933a6e30c843ca2572fa1d9a03fd9552244037cd49b34d738632",
                 "d6550dc2ab579857d0e48c035a511623cf0d6b661cfec9db9d65dcc7feae2f36"),
    ("desk", 1): ("ef2cc88a1cbdde51632803622aa6bc1deb6618630665263f8a29b77736aa8095",
                 "8f486b62c606daa7502d3f0ecd60a4f1cf2654e3923780f0a5f45d1097035588",
                 "7625d668954c5ecaa6a902697afdde9e083a6451ca8805d88737240b89720d86"),
    ("desk", 2): ("53cb7602b41771640837e007c07ee5c2ba2b9fbb9dd7a5b3b816e8249475c7ad",
                 "573588659de01386d64d455e10384dfd810d35211f85b78b1e658d79f811a212",
                 "edc2645f9022c950db904fbcf9a849aa6eff15a0b7fa704d9bcf05c886226b21"),
    ("desk", 3): ("bf0bc3efd995fa487c1272199374a07b73e43eb4bb8f95421564796b2b89df8b",
                 "f1fb0af221ef656daa173cb2cb8fa7c1eb6a9ccc6c7545a4f0acec3b4fdca5af",
                 "cbd8aec1bde2ce5626df62670a27c885f8ce20f716919221e688a4cfaa083525"),
    ("p101", 0): ("50e9fa755d29b4c3cfd0afeaf89f2fdcad1daf41dcf2c75608c6bcb3d01f4496",
                 "9d1933ef3b97ff1f2c5dda1d044198a04c1672ff7b7535c5cefa2d5ada41fd99",
                 "60a89983b3ddd70856e391f487228eb04d8f9de9b80802c810b9f2ab737942fd"),
    ("p101", 1): ("c67b3c3d9447086757b026390469b22fa873593bfcef3fe26cc436d4f90341f1",
                 "02a2ec9858312c4489c4a894f9affa7cdbe2086af58405b065fdbd57b6204f8f",
                 "6e355789eccb1d8b4c5fe606e054e9150e3b4647729482f3ff00c1f0af87abf2"),
    ("p101", 2): ("dc9780c5560325699f80c7bce44472695ac5ee71c95d12e6e5fdbf58c7d021c3",
                 "1f30b89cc8f2553ef66368a8178f04a140eafdc97f0083a2da2cc242ef4163d9",
                 "9c7a191928509e603511fbad32553a91b98913e8c821b975c1c688f9743fb331"),
}


def _params_arg(name: str, tmp_path) -> str:
    if name == "desk":
        return name
    ref = get_params("spanse-128")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # m_g * w_g >= q, as at spanse-128
        ps = ParameterSet(name, ref.q, ref.p, 16, 8, ref.w, ref.w_g, ref.m_g, ref.density)
    path = tmp_path / f"{name}.params"
    path.write_bytes(serial.serialize_params(ps))
    return str(path)


def seeded_outputs(name: str, seed: int, tmp_path) -> tuple[bytes, bytes, bytes]:
    sk, pk, sig, msg = (tmp_path / f for f in ("sk.bin", "pk.bin", "sig.bin", "msg.txt"))
    msg.write_bytes(MESSAGE)
    argv = [["keygen", "--params", _params_arg(name, tmp_path), "--private", sk,
             "--public", pk, "--seed", seed],
            ["sign", "--key", sk, "--message", msg, "--out", sig, "--seed", seed],
            ["verify", "--key", pk, "--message", msg, "--signature", sig]]
    for args in argv:
        assert main([str(a) for a in args]) == EXIT_OK
    return sk.read_bytes(), pk.read_bytes(), sig.read_bytes()


@pytest.mark.filterwarnings("ignore:.*wrap around:UserWarning")
@pytest.mark.parametrize("name,seed", list(GOLDEN))
def test_seeded_keys_and_signature_match_recorded_digests(name, seed, tmp_path):
    got = tuple(hashlib.sha256(b).hexdigest() for b in seeded_outputs(name, seed, tmp_path))
    assert got == GOLDEN[name, seed]
