import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_vector,
    expand,
    generator_matrix,
    gf_inv_dense,
    gf_matmul,
    parity_check,
    perm_dense,
    perm_qc_matrix,
    reference_syndrome,
)
from spanse import ldgm, qcalg, scheme, serial
from spanse.ldgm import codeword_from_generator
from spanse.params import DensityPolynomial, ParameterError, ParameterSet, get_params
from spanse.qcalg import perm_apply, qc_mat_gather
from spanse.scheme import (
    SigningError,
    Signature,
    VerifyResult,
    choose_theta,
    derive_syndrome,
    keygen,
    sample_dense_transform,
    sign,
    verify,
)

DESK = get_params("desk")


@pytest.fixture(scope="module")
def keypair():
    return keygen(DESK, np.random.default_rng(100))


def test_keygen_structural_identities(keypair):
    sk, pk = keypair
    q = DESK.q
    # H' = P^{-1} H S^{-1}, i.e. H' S = P^T H, against dense expansions
    lhs = expand(pk.Hpub)
    H = parity_check(sk.G, DESK)
    assert np.array_equal(gf_matmul(lhs, expand(sk.S), q),
                          gf_matmul(perm_dense(sk.P, q).T, H, q))
    # public H' annihilates S-transformed codewords: H' (S c^T) = 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = codeword_from_generator(sk.G, DESK, rng)
        sc = gf_matmul(expand(sk.S), dense_vector(c, DESK.n, q)[:, None], q)
        assert not gf_matmul(lhs, sc, q).any()


def test_keygen_solves_once_per_draw(monkeypatch):
    # G draws are tested at x = 1 only and never eliminated; each S draw
    # eliminates one n0 x (n0 + r0) buffer [T S^T | [0; D]], and the first
    # failed solve eliminates the k0 x k0 buffer M1 alone. At this sparse
    # density some S draws are singular and resampled
    params = dataclasses.replace(DESK, density=DensityPolynomial.parse("49/50,1/50", DESK.q))
    events, rhs, drawn = [], [], []

    def recording(name, real):
        def wrapped(*args):
            events.append(name)
            if name == "solve":
                aug = args[0]
                events.append(aug.shape[:2])
                rhs.append(aug[:, aug.shape[0]:].copy())  # before the solve writes to it
            out = real(*args)
            if name == "G":
                drawn.append(out)
            return out
        return wrapped

    monkeypatch.setattr(ldgm, "sample_generator", recording("G", ldgm.sample_generator))
    monkeypatch.setattr(scheme, "sample_dense_transform",
                        recording("S", scheme.sample_dense_transform))
    for module in (ldgm, scheme):
        monkeypatch.setattr(module, "qc_solve", recording("solve", module.qc_solve))
    big, small = ["solve", (DESK.n0, DESK.n0 + DESK.r0)], ["solve", (DESK.k0, DESK.k0)]
    s_draws, skipped = [], 0
    for seed in range(4):
        events.clear()
        rhs.clear()
        drawn.clear()
        sk, _ = keygen(params, np.random.default_rng(seed))
        at_one = [gf_inv_dense(generator_matrix(G, DESK).blocks[:, :DESK.k0].sum(axis=2) % DESK.q,
                               DESK.q) is not None for G in drawn]
        assert at_one == [False] * (len(drawn) - 1) + [True] and sk.G is drawn[-1]
        skipped += len(drawn) - 1
        s = events.count("S")
        assert events == (["G"] * len(drawn) + ["S"] + big + small * (s > 1)
                          + (["S"] + big) * (s - 1))
        # [0; D] holds P's block (i, pi(i)), x^(-shift_i), at (k0 + i, i)
        i = np.arange(DESK.r0)
        zero_d = np.zeros((DESK.n0, DESK.r0, DESK.p), dtype=np.int64)
        zero_d[DESK.k0 + i, i] = perm_qc_matrix(sk.P, DESK.q).blocks[i, sk.P.block_perm]
        assert all(np.array_equal(b, zero_d) for b in rhs if b.shape[1])
        assert sum(b.shape[1] == DESK.r0 for b in rhs) == s
        s_draws.append(s)
    assert max(s_draws) > 1 and skipped


def test_keygen_redraws_g_when_m1_is_singular(monkeypatch):
    # a reducible that fails once, after the first failed solve, stands for
    # a G whose M1(1) is nonsingular and M1 singular: keygen draws a new G,
    # keeps drawing S against it, tests the new G at its first failed
    # solve, and publishes H' = P^{-1} H S^{-1} for it
    params = dataclasses.replace(DESK, density=DensityPolynomial.parse("49/50,1/50", DESK.q))
    events, drawn = [], []
    sample, real_reducible, solve = ldgm.sample_generator, scheme.reducible, scheme.qc_solve

    def recording_g(params, rng):
        events.append("G")
        drawn.append(sample(params, rng))
        return drawn[-1]

    def recording_solve(aug, q):
        out = solve(aug, q)
        events.append("ok" if out is not None else "failed")
        return out

    def failing_once(G, params):
        events.append("reducible")
        return "reducible" in events[:-1] and real_reducible(G, params)

    monkeypatch.setattr(ldgm, "sample_generator", recording_g)
    monkeypatch.setattr(scheme, "qc_solve", recording_solve)
    monkeypatch.setattr(scheme, "reducible", failing_once)
    sk, pk = keygen(params, np.random.default_rng(3))
    assert [e for e in events if e != "G"] == ["failed", "reducible", "failed", "reducible", "ok"]
    first, second = (i for i, e in enumerate(events) if e == "reducible")
    assert events[first + 1] == "G" and "G" not in events[second:]
    assert sk.G is drawn[-1] and events[:first].count("G") < len(drawn)
    q = DESK.q
    assert np.array_equal(gf_matmul(expand(pk.Hpub), expand(sk.S), q),
                          gf_matmul(perm_dense(sk.P, q).T, parity_check(sk.G, DESK), q))


def test_keys_after_singular_s_draws_keep_recorded_bytes():
    # at this density most S draws are singular (24 and 11 draws for seeds
    # 0 and 1), a path the CLI's golden digests never take; SHA-256 of the
    # private then public key bytes, recorded before keygen solved for H'^T
    params = dataclasses.replace(DESK, density=DensityPolynomial.parse("99/100,1/100", DESK.q))
    recorded = {0: "b7ea3763fe429d6b2373873202654e41acd14b3c3b405c8d5a8f2300acd3e0ba",
                1: "be0f41a862d06d7d58a1034ac77be0a3d8399835804b958f71f670b9720a0eb0"}
    for seed, digest in recorded.items():
        sk, pk = keygen(params, np.random.default_rng(seed))
        data = serial.serialize_private(sk) + serial.serialize_public(pk)
        assert hashlib.sha256(data).hexdigest() == digest


def test_keygen_working_set_check_counts_the_measured_peak(monkeypatch):
    # spanse-128's ring at n0 = 84: keygen must refuse a limit 1 MiB under
    # its measured peak before any draw, and make a key under one 10% above it
    ref = get_params("spanse-128")
    ps = ParameterSet("p101", ref.q, ref.p, 84, 42, ref.w, ref.w_g, ref.m_g, ref.density)
    tracemalloc.start()
    try:
        want = keygen(ps, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for limit, fits in ((peak - 2**20, False), (int(1.1 * peak), True)):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": limit}.get)
        rng = np.random.default_rng(0)
        if fits:
            sk, pk = keygen(ps, rng)
            assert sk.S == want[0].S and pk.Hpub == want[1].Hpub
        else:
            state = rng.bit_generator.state
            with pytest.raises(ParameterError):
                keygen(ps, rng)
            assert rng.bit_generator.state == state


@pytest.fixture(scope="module")
def p101_keys():
    """spanse-128's ring and weights at n0 = 84, a key pair and a signature."""
    ref = get_params("spanse-128")
    ps = ParameterSet("p101", ref.q, ref.p, 84, 42, ref.w, ref.w_g, ref.m_g, ref.density)
    sk, pk = keygen(ps, np.random.default_rng(0))
    sig, _ = sign(sk, b"message", rng=np.random.default_rng(1))
    return ps, sk, pk, sig


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_working_set_is_one_gather_chunk(p101_keys):
    # an attempt gathers S's uint8 columns _GATHER_CHUNK positions at a
    # time (0.27 MB here) and sums them in a narrow type; the rest of the
    # peak is the column index array. Gathering all w + m_g w_g = 158
    # positions at once would take 1.3 MB, and int64 columns 2.2 MB a chunk
    ps, sk, _, _ = p101_keys
    chunk = ps.n0 * qcalg._GATHER_CHUNK * ps.p
    whole = ps.n0 * (ps.w + ps.m_g * ps.w_g) * ps.p
    (sig, _), peak = _traced_peak(sign, sk, b"message", "deterministic", np.random.default_rng(1))
    assert sig.sigma.size == ps.n
    assert peak < 2 * chunk and peak < whole / 2


def test_verify_working_set_is_one_chunk_of_block_rows(p101_keys):
    # verify correlates H' _VEC_CHUNK block rows at a time: each chunk is
    # widened into a float64 buffer and transformed into a complex128 one,
    # both reused. All 42 block rows at once would take 10 MB
    ps, _, pk, sig = p101_keys
    f = (1 << (2 * ps.p - 2).bit_length()) // 2 + 1
    per_row = ps.n0 * (8 * ps.p + 16 * f)
    result, peak = _traced_peak(verify, pk, b"message", sig)
    assert result.accepted
    assert peak < 1.3 * qcalg._VEC_CHUNK * per_row and peak < ps.r0 * per_row / 4


def test_dense_transform_sampling_uses_density():
    rng = np.random.default_rng(8)
    S = sample_dense_transform(DESK, rng)
    values, counts = np.unique(S.blocks, return_counts=True)
    assert set(values) <= {0, 1}  # desk density is 1/2 + 1/2 x
    frac = counts[values == 1][0] / S.blocks.size
    assert abs(frac - 0.5) < 0.05


def test_dense_transform_draws_the_density_support_in_value_order():
    # the values drawn are the density's entries of nonzero probability in
    # increasing order, however its entries are listed; desk's S is one
    # draw of n0 * n0 * p = 5200 entries
    listed = DensityPolynomial({13: "1/8", 1: "3/8", 5: 0, 0: "1/2"}, DESK.q)
    S = sample_dense_transform(dataclasses.replace(DESK, density=listed),
                               np.random.default_rng(9))
    rng = np.random.default_rng(9)
    want = rng.choice(np.array([0, 1, 13], dtype=np.uint8), size=S.blocks.shape,
                      p=[1 / 2, 3 / 8, 1 / 8])
    assert S.blocks.dtype == np.uint8 and np.array_equal(S.blocks, want)


def test_derive_syndrome_contract():
    s1 = derive_syndrome(b"message", b"theta", DESK)
    s2 = derive_syndrome(b"message", b"theta", DESK)
    assert np.array_equal(s1, s2)
    assert s1.size == DESK.w and np.all(np.diff(s1) > 0) and 0 <= s1[0] and s1[-1] < DESK.r
    assert not np.array_equal(derive_syndrome(b"message", b"other-theta", DESK), s1)
    assert not np.array_equal(derive_syndrome(b"other", b"theta", DESK), s1)
    # spanse-128: w = 26 distinct sorted positions among r = 12 019
    ps = get_params("spanse-128")
    for i in range(50):
        s = derive_syndrome(b"message %d" % i, b"theta", ps)
        assert s.size == ps.w and np.all(np.diff(s) > 0) and 0 <= s[0] and s[-1] < ps.r


@pytest.mark.parametrize("name, w", [("desk", None), ("spanse-128", None),
                                     ("r110", 109), ("r110", 110)])
def test_derive_syndrome_matches_the_word_by_word_reference(name, w):
    # at r = 110 (p = 11, n0 = 20, k0 = 10) a weight of 109 or 110 needs
    # more distinct positions than the first max(4 w, 64) words often hold,
    # so the stream is read again at twice the length
    if name == "r110":
        ps = ParameterSet(name, DESK.q, 11, 20, 10, w, DESK.w_g, DESK.m_g, DESK.density)
    else:
        ps = get_params(name)
    longer = 0
    for i in range(50):
        message = b"message %d" % i
        theta = choose_theta(message, "deterministic")
        want, nwords = reference_syndrome(message, theta, ps)
        assert np.array_equal(derive_syndrome(message, theta, ps), want)
        longer += nwords > max(4 * ps.w, 64)
    assert longer > 0 if name == "r110" else longer == 0


def test_derive_syndrome_position_uniformity():
    counts = np.zeros(DESK.r)
    trials = 4000
    for i in range(trials):
        s = derive_syndrome(b"m%d" % i, b"t", DESK)
        counts[s] += 1
    expected = trials * DESK.w / DESK.r
    sd = np.sqrt(trials * (DESK.w / DESK.r) * (1 - DESK.w / DESK.r))
    assert np.all(np.abs(counts - expected) < 6 * sd)


def test_choose_theta_modes():
    rng = np.random.default_rng(9)
    t1 = choose_theta(b"m", "deterministic")
    assert t1 == choose_theta(b"m", "deterministic")
    assert t1 != choose_theta(b"m2", "deterministic")
    r1, r2 = choose_theta(b"m", "randomized", rng), choose_theta(b"m", "randomized", rng)
    assert r1 != r2
    with pytest.raises(ValueError):
        choose_theta(b"m", "randomized")
    with pytest.raises(ValueError):
        choose_theta(b"m", "nonsense", rng)


def test_sign_verify_round_trips(keypair):
    sk, pk = keypair
    rng = np.random.default_rng(10)
    for i in range(50):
        msg = b"round-trip %d" % i
        mode = "deterministic" if i % 2 else "randomized"
        sig, attempts = sign(sk, msg, mode=mode, rng=rng)
        assert attempts >= 1
        assert sig.sigma.size == DESK.n and np.all(sig.sigma % DESK.q != 0)
        assert verify(pk, msg, sig).accepted


def test_chain_identity_term_by_term(keypair):
    sk, pk = keypair
    rng = np.random.default_rng(11)
    msg = b"chain"
    theta = choose_theta(msg, "deterministic")
    s = derive_syndrome(msg, theta, DESK)
    s_perm = perm_apply(sk.P, s)
    c = codeword_from_generator(sk.G, DESK, rng)
    q = DESK.q
    v = dense_vector(np.concatenate([DESK.k + s_perm, c]), DESK.n, q)
    sigma = gf_matmul(v[None, :], expand(sk.S).T, q)[0]
    assert np.array_equal(sigma, qc_mat_gather(sk.S, np.concatenate([DESK.k + s_perm, c])))
    # H' sigma^T = P^{-1} H (e + c)^T = P^{-1} s' = s
    t1 = gf_matmul(expand(pk.Hpub), sigma[:, None], q)[:, 0]
    H = parity_check(sk.G, DESK)
    t2 = gf_matmul(perm_dense(sk.P, q).T, gf_matmul(H, v[:, None], q), q)[:, 0]
    t3 = gf_matmul(perm_dense(sk.P, q).T, dense_vector(s_perm, DESK.r, q)[:, None], q)[:, 0]
    assert np.array_equal(t1, t2)
    assert np.array_equal(t2, t3)
    assert np.array_equal(t3, dense_vector(s, DESK.r, q))


def test_verify_rejects_tampering(keypair):
    sk, pk = keypair
    rng = np.random.default_rng(12)
    msg = b"the one message"
    sig, _ = sign(sk, msg, rng=rng)

    assert verify(pk, b"another message", sig).reason == "syndrome-mismatch"

    zeroed = sig.sigma.copy()
    zeroed[17] = 0
    assert verify(pk, msg, Signature(zeroed, sig.theta)).reason == "zero-entry"

    for _ in range(50):
        bumped = sig.sigma.copy()
        i = int(rng.integers(0, DESK.n))
        bumped[i] = (bumped[i] + int(rng.integers(1, DESK.q - 1))) % DESK.q
        if bumped[i] == 0:
            continue
        assert verify(pk, msg, Signature(bumped, sig.theta)).reason == "syndrome-mismatch"

    assert verify(pk, msg, Signature(sig.sigma, b"wrong-theta")).reason == "syndrome-mismatch"


def test_verify_rejects_a_sigma_of_the_wrong_length(keypair):
    sk, pk = keypair
    msg = b"the one message"
    sig, _ = sign(sk, msg, rng=np.random.default_rng(12))
    for sigma in (sig.sigma[:-1], np.concatenate([sig.sigma, sig.sigma[:1]])):
        assert verify(pk, msg, Signature(sigma, sig.theta)) == VerifyResult(False, "length")
    assert verify(pk, msg, sig).accepted


def test_verify_rejects_foreign_key(keypair):
    sk, pk = keypair
    sk2, pk2 = keygen(DESK, np.random.default_rng(13))
    sig, _ = sign(sk2, b"foreign", rng=np.random.default_rng(14))
    assert verify(pk2, b"foreign", sig).accepted
    assert not verify(pk, b"foreign", sig).accepted


def test_sign_attempt_cap(monkeypatch):
    sk, _ = keygen(DESK, np.random.default_rng(15))
    monkeypatch.setattr(scheme, "MAX_SIGN_ATTEMPTS", 0)  # read at each call
    with pytest.raises(SigningError):
        sign(sk, b"m", rng=np.random.default_rng(16))


def test_deterministic_signing_reproducible(keypair):
    sk, _ = keypair
    a, _ = sign(sk, b"same", mode="deterministic", rng=np.random.default_rng(1))
    b, _ = sign(sk, b"same", mode="deterministic", rng=np.random.default_rng(1))
    assert np.array_equal(a.sigma, b.sigma) and a.theta == b.theta


def forbid_inversion(monkeypatch):
    """Make every ring inversion and block solve fail the test when it is called."""
    def inverted(*args):
        raise AssertionError("inversion called")

    for module in (qcalg, ldgm, scheme, serial):
        monkeypatch.setattr(module, "qc_solve", inverted)
    monkeypatch.setattr(qcalg, "_poly_inv_raw", inverted)
    monkeypatch.setattr(qcalg, "_unit_idempotent", inverted)


def test_reloaded_key_signs_without_inverting(keypair, monkeypatch):
    sk, pk = keypair
    data = serial.serialize_private(sk)
    forbid_inversion(monkeypatch)
    sk2 = serial.deserialize_private(data)
    sig, _ = sign(sk2, b"reloaded", rng=np.random.default_rng(17))
    monkeypatch.undo()
    assert verify(pk, b"reloaded", sig).accepted


def test_spanse_128_round_trip_and_tamper(monkeypatch):
    # the full-scale scheme: 238 x 238 blocks of S at p = 101. keygen's
    # peak stays within its memory model (33.03 MB here, 32.4 to 33.2 MB
    # measured); a solution permuted by X[:, index], which is not C-ordered,
    # would be reduced by QCMatrix through int64 and peak at 55 MB
    params = get_params("spanse-128")
    (sk, pk), peak = _traced_peak(keygen, params, np.random.default_rng(11))
    symbol = qcalg.symbol_dtype(params.q).itemsize
    model = params.n0 * params.p * (scheme._KEYGEN_SYMBOL_BYTES * symbol * params.n0
                                    + scheme._KEYGEN_ROW_BYTES)
    assert peak <= 1.1 * model
    assert sk.S.rows0 == params.n0 and pk.Hpub.blocks.shape == (params.r0, params.n0, params.p)
    # the keys' bytes as recorded before keygen solved for H'^T directly
    data = serial.serialize_private(sk)
    assert hashlib.sha256(data).hexdigest() == (
        "e713e68fea263d093cd2a72dcfd98239dd5763027ed5437d251a2a54cff9131a")
    assert hashlib.sha256(serial.serialize_public(pk)).hexdigest() == (
        "0e6e72d2dcdfd5f031dc5119e51a9827d511e132f86dc7f3c819671256ebe46c")
    msg = b"full-scale message"
    sig, _ = sign(sk, msg, rng=np.random.default_rng(12))
    assert sig.sigma.size == params.n and verify(pk, msg, sig).accepted
    bumped = sig.sigma.copy()
    bumped[params.n // 3] = bumped[params.n // 3] % (params.q - 1) + 1  # another nonzero symbol
    assert verify(pk, msg, Signature(bumped, sig.theta)).reason == "syndrome-mismatch"
    # a key reloaded from its bytes signs, inverting nothing, under the original public key
    forbid_inversion(monkeypatch)
    sk2 = serial.deserialize_private(data)
    sig2, _ = sign(sk2, b"after reload", rng=np.random.default_rng(13))
    monkeypatch.undo()
    assert sk2.G.shape == (params.k0, params.w_g) and np.array_equal(sk2.G, sk.G)
    assert verify(pk, b"after reload", sig2).accepted
    # and a public key reloaded from its bytes accepts sigma and rejects the tampered one
    pk2 = serial.deserialize_public(serial.serialize_public(pk))
    assert verify(pk2, msg, sig).accepted and verify(pk2, b"after reload", sig2).accepted
    assert verify(pk2, msg, Signature(bumped, sig.theta)).reason == "syndrome-mismatch"
