"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s or look at captured
output) in addition to its assertions. Criterion 10 is informative: it
prints a warning instead of failing when the measured growth exceeds the
envelope.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from oracles import (brute_force_log2, dense_vector, deserialize, expand, generator_matrix,
                     gf_inv_dense, gf_matmul, identity, parity_check, qc_mat_mul, solve)
from spanse import serial
from spanse.analysis import (
    AttackPoint,
    log2_binomial,
    optimize_attack,
    pge_ss_exponents,
    rejection_rate_analytic,
    rejection_rate_montecarlo,
    size_counts,
)
from spanse.ldgm import codeword_from_generator
from spanse.params import DensityPolynomial, ParameterSet, get_params
from spanse.qcalg import QCMatrix
from spanse.scheme import Signature, keygen, sign, verify

DESK = get_params("desk")
PAPER = get_params("spanse-128")


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")


def test_criterion_01_counting_golden():
    ns = log2_binomial(12000, 26)
    nc = log2_binomial(12000, 12)
    ok = abs(ns - 263.9) <= 0.1 and abs(nc - 133.8) <= 0.1
    report(1, ok, f"log2 C(12000,26)={ns:.4f}, log2 C(12000,12)={nc:.4f}")
    assert ok


def test_criterion_02_key_size_golden():
    kib = size_counts(n=24000, r=12000, p=101, q=127, w=26, m_g=12).pk_packed_bytes / 1024
    ok = abs(kib - 2436.6) / 2436.6 <= 1e-3
    report(2, ok, f"packed public key = {kib:.2f} KiB (target 2436.6)")
    assert ok


def test_criterion_03_attack_cost_golden():
    rep = pge_ss_exponents(AttackPoint(9, 0.010725, 0.493), n=24000, k=12000, q=127, p=101)
    t0 = time.time()
    best = optimize_attack(n=24000, k=12000, q=127, p=101)
    elapsed = time.time() - t0
    ok = (abs(rep.t_doom_log2 - 131.6) <= 0.5
          and best.t_doom_log2 <= 132.1
          and best.point.b == 9
          and elapsed < 60)
    report(3, ok, f"fixed point {rep.t_doom_log2:.3f} bits, "
                  f"optimum {best.t_doom_log2:.3f} bits at b={best.point.b} "
                  f"({elapsed:.1f}s)")
    assert ok


def test_criterion_04_brute_force_bound():
    term = brute_force_log2(q=127, n=15000, r=12000).zero_free_log2
    exact = 15000 * math.log2(126 / 127)
    ok = term < -170 and abs(term - exact) < 1e-9
    report(4, ok, f"zero-free term = {term:.4f} bits (< -170 required)")
    assert ok
    # the stated point value -171.2 +/- 0.1 does not match the formula
    # n*log2((q-1)/q) = -171.0714...; the bound itself is what the model
    # guarantees, so the computed value is asserted against the formula
    assert term == pytest.approx(-171.0714, abs=0.1)


def test_criterion_05_analytic_rejection_golden():
    params = ParameterSet("ref", 127, 101, 238, 119, 26, 11, 12,
                          DensityPolynomial.parse("1/2,1/2", 127))
    t0 = time.time()
    rejection = 1.0 - rejection_rate_analytic(params).p_valid
    elapsed = time.time() - t0
    target = 1.44e-6
    ok = abs(rejection - target) <= 0.5 * target and elapsed < 10
    report(5, ok, f"analytic rejection = {rejection:.3e} "
                  f"(target {target:.2e} +/- 50%, {elapsed:.1f}s)")
    # Known model gap: the binomial-weight approximation chain gives
    # ~1.2e-3 and the exact fixed-weight model ~4.8e-11 for these numbers;
    # neither the approximation nor the exact computation lands on 1.44e-6.
    # The assertion states the published target faithfully.
    assert ok


def test_criterion_06_monte_carlo_rejection_full_scale():
    d1 = DensityPolynomial.parse("0.5783,0.4167,2:0.0042,13:0.00083", 127)
    d2 = DensityPolynomial.parse("0.5775,0.4167,2:0.0042,13:0.00083,25:0.00083", 127)
    t0 = time.time()
    p1, se1 = rejection_rate_montecarlo(dataclasses.replace(PAPER, density=d1), 10_000, seed=1001)
    p2, se2 = rejection_rate_montecarlo(dataclasses.replace(PAPER, density=d2), 1_000, seed=1002)
    elapsed = time.time() - t0
    r1, r2 = 1.0 - p1, 1.0 - p2
    ok = 0.002 <= r1 <= 0.05 and 0.95 <= r2 <= 0.999 and elapsed < 1800
    report(6, ok, f"rejection {r1:.3%} (stderr {se1:.2e}, band 0.2%-5%) and {r2:.3%} "
                  f"(stderr {se2:.2e}, band 95%-99.9%), {elapsed:.0f}s")
    assert ok


def test_criterion_07_scheme_property_suite():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    q = DESK.q

    # 10^3 full keygen/sign/verify round trips
    keys = []
    for i in range(1000):
        sk, pk = keygen(DESK, rng)
        sig, _ = sign(sk, b"round %d" % i, rng=rng)
        assert np.all(sig.sigma % q != 0)
        assert verify(pk, b"round %d" % i, sig).accepted
        if len(keys) < 4:
            keys.append((sk, pk, b"round %d" % i, sig))

    # structural identities against dense expansions on sampled keys
    for sk, pk, _, _ in keys:
        dh = parity_check(sk.G, DESK)
        assert np.array_equal(dh[:, DESK.k:], np.eye(DESK.r, dtype=np.int64))
        assert not gf_matmul(dh, expand(generator_matrix(sk.G, DESK)).T, q).any()
        hp = expand(pk.Hpub)
        for _ in range(25):
            c = codeword_from_generator(sk.G, DESK, rng)
            sc = gf_matmul(expand(sk.S), dense_vector(c, DESK.n, q)[:, None], q)
            assert not gf_matmul(hp, sc, q).any()

    # 10^3 each: message tamper, sigma tamper, theta tamper, wrong key
    sk, pk, msg, sig = keys[0]
    _, pk_other = keys[1][0], keys[1][1]
    for i in range(1000):
        assert not verify(pk, b"tampered %d" % i, sig).accepted
        bumped = sig.sigma.copy()
        j = int(rng.integers(DESK.n))
        bumped[j] = int((bumped[j] + rng.integers(1, q)) % q)
        assert not verify(pk, msg, Signature(bumped, sig.theta)).accepted
        assert not verify(pk, msg, Signature(sig.sigma, b"%032d" % i)).accepted
        assert not verify(pk_other, msg, sig).accepted

    elapsed = time.time() - t0
    ok = elapsed < 120
    report(7, ok, f"1000 round trips + 4x1000 tamper rejections, {elapsed:.0f}s")
    assert ok


def test_criterion_08_algebra_oracle_suite():
    rng = np.random.default_rng(31337)
    q = 127
    t0 = time.time()
    checks = 0
    while checks < 1000:
        p = int(rng.choice([3, 5, 13]))
        a = QCMatrix(rng.integers(0, q, (1, 1, p)), q)
        b = QCMatrix(rng.integers(0, q, (1, 1, p)), q)
        assert np.array_equal(expand(qc_mat_mul(a, b)),
                              gf_matmul(expand(a), expand(b), q))
        m = int(rng.integers(1, 4))
        A = QCMatrix(rng.integers(0, q, (m, m, p)), q)
        B = QCMatrix(rng.integers(0, q, (m, m, p)), q)
        assert np.array_equal(expand(qc_mat_mul(A, B)),
                              gf_matmul(expand(A), expand(B), q))
        Ai = solve(A, identity(m, p, q))
        dense = gf_inv_dense(expand(A), q)
        if Ai is None:
            assert dense is None
        else:
            assert np.array_equal(expand(Ai), dense)
        checks += 1
    elapsed = time.time() - t0
    ok = elapsed < 60
    report(8, ok, f"1000 mul/inv instances match dense oracles, {elapsed:.0f}s")
    assert ok
    # field axioms over >= 10^4 random triples
    trip = np.random.default_rng(7).integers(0, q, (10_000, 3))
    a, b, c = trip[:, 0], trip[:, 1], trip[:, 2]
    assert np.array_equal((a * (b + c)) % q, (a * b + a * c) % q)
    assert np.array_equal(((a + b) + c) % q, (a + (b + c)) % q)
    nz = a[a != 0]
    inv = np.array([pow(int(v), -1, q) for v in nz[:1000]])
    assert np.all((nz[:1000] * inv) % q == 1)


def test_criterion_09_serialization_fuzz():
    rng = np.random.default_rng(55)
    t0 = time.time()
    sk, pk = keygen(DESK, rng)
    sig, _ = sign(sk, b"fuzz target", rng=rng)
    blobs = [
        serial.serialize_params(DESK),
        serial.serialize_public(pk),
        serial.serialize_private(sk),
        serial.serialize_signature(sig, DESK),
    ]
    for blob in blobs:
        again = deserialize(blob)
        # every object type survives a round trip bit-exactly
        if isinstance(again, tuple):
            assert serial.serialize_signature(again[0], again[1]) == blob
        elif isinstance(again, ParameterSet):
            assert serial.serialize_params(again) == blob
        elif hasattr(again, "Hpub"):
            assert serial.serialize_public(again) == blob
        else:
            assert serial.serialize_private(again) == blob
    crashes = 0
    for i in range(1000):
        base = blobs[i % len(blobs)]
        mutant = bytearray(base)
        for _ in range(int(rng.integers(1, 5))):
            j = int(rng.integers(len(mutant)))
            mutant[j] ^= int(rng.integers(1, 256))
        if i % 3 == 0:
            mutant = mutant[: int(rng.integers(len(mutant)))]
        try:
            deserialize(bytes(mutant))
        except serial.SerializationError:
            pass
        except Exception:
            crashes += 1
    elapsed = time.time() - t0
    ok = crashes == 0 and elapsed < 60
    report(9, ok, f"round trips exact, 1000 mutants handled, "
                  f"{crashes} crashes, {elapsed:.0f}s")
    assert ok


def test_criterion_10_performance_envelope():
    rng = np.random.default_rng(9)
    double = ParameterSet("desk2x", DESK.q, DESK.p, 2 * DESK.n0, 2 * DESK.k0,
                          DESK.w, DESK.w_g, DESK.m_g, DESK.density)

    def timed_keygen(ps, reps):
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            sk, _ = keygen(ps, rng)
            best = min(best, time.perf_counter() - t0)
        return best, sk

    def timed_sign(sk, reps):
        best = math.inf
        for i in range(reps):
            t0 = time.perf_counter()
            sign(sk, b"perf %d" % i, rng=rng)
            best = min(best, time.perf_counter() - t0)
        return best

    kg1, sk1 = timed_keygen(DESK, 5)
    kg2, sk2 = timed_keygen(double, 5)
    sg1 = timed_sign(sk1, 20)
    sg2 = timed_sign(sk2, 20)
    kg_ratio, sg_ratio = kg2 / kg1, sg2 / sg1
    ok = sg_ratio <= 5.0 and kg_ratio <= 10.0
    report(10, ok, f"2x blocks: sign x{sg_ratio:.2f} (limit 5), "
                   f"keygen x{kg_ratio:.2f} (limit 10)")
    if not ok:
        warnings.warn(
            f"performance envelope exceeded: sign x{sg_ratio:.2f}, "
            f"keygen x{kg_ratio:.2f} (informative only)"
        )
