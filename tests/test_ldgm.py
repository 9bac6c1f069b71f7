import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import dense_vector, expand, generator_matrix, gf_inv_dense, gf_matmul, parity_check
from spanse import ldgm
from spanse.ldgm import (
    GenerationError,
    codeword_from_generator,
    codeword_positions,
    make_code,
    reducible,
    sample_generator,
)
from spanse.params import get_params
from spanse.qcalg import QCMatrix

DESK = get_params("desk")


def test_generator_row_weights_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        G = sample_generator(DESK, rng)
        # the layout the key file stores: w_g sorted, distinct positions per block row
        assert G.shape == (DESK.k0, DESK.w_g)
        assert np.all(np.diff(G, axis=1) > 0) and G.min() >= 0 and G.max() < DESK.n
        dense = expand(generator_matrix(G, DESK))
        assert dense.shape == (DESK.k, DESK.n)
        assert np.all(dense.sum(axis=1) == DESK.w_g)
        assert set(np.unique(dense)) <= {0, 1}


def test_generator_weight_one_blocks():
    rng = np.random.default_rng(1)
    ps = get_params("desk")
    tweaked = type(ps)(ps.name, ps.q, ps.p, ps.n0, ps.k0, ps.w, 1, ps.m_g, ps.density)
    G = sample_generator(tweaked, rng)
    assert np.all(expand(generator_matrix(G, tweaked)).sum(axis=1) == 1)


def test_generator_position_uniformity_chisquare():
    rng = np.random.default_rng(2)
    counts = np.zeros(DESK.n)
    samples = 1000
    for _ in range(samples):
        G = sample_generator(DESK, rng)
        counts[G[0]] += 1  # first expanded row of the first block row
    # each position hit with prob w_g/n; chi-square against uniform
    _, pvalue = chisquare(counts)
    assert pvalue > 1e-4


def test_systematic_parity_check_identity_part_and_duality():
    # reducible agrees with dense inversion of M1 on every draw, and each
    # reducible G has the parity check H = [-W^T | I] with H G^T = 0
    rng = np.random.default_rng(3)
    checked = rejected = 0
    while checked < 10:
        G = sample_generator(DESK, rng)
        dense = expand(generator_matrix(G, DESK))
        invertible = gf_inv_dense(dense[:, :DESK.k], DESK.q) is not None
        assert reducible(G, DESK) == invertible
        if not invertible:
            rejected += 1
            continue
        checked += 1
        dh = parity_check(G, DESK)
        assert np.array_equal(dh[:, DESK.k :], np.eye(DESK.r, dtype=np.int64))
        assert not gf_matmul(dh, dense.T, DESK.q).any()
    assert rejected > 0


def test_nonsingular_mod_q_matches_dense_inversion():
    # hand-made matrices: a row swap, equal rows, a dependent row with no
    # zero row, a zero row, and random ones over small fields
    cases = [np.eye(3, dtype=np.int64), np.array([[0, 1], [1, 0]]), np.array([[1, 2], [2, 4]]),
             np.array([[1, 2, 3], [4, 5, 6], [5, 7, 9]]), np.array([[0, 5, 1], [0, 3, 2], [0, 0, 7]]),
             np.array([[3, 1], [0, 0]])]
    rng = np.random.default_rng(7)
    cases += [rng.integers(0, q, (n, n)) for q in (2, 3) for n in (1, 4, 6) for _ in range(5)]
    outcomes = set()
    for M in cases:
        for q in (2, 3, 127):
            ok = ldgm._nonsingular_mod_q(M, q)
            assert ok == (gf_inv_dense(M % q, q) is not None)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_generator_singular_at_one_is_rejected_before_elimination(monkeypatch):
    # block row i of M1 has ones in block columns i and i + 1 (mod k0), so
    # no block row or column of M1 is zero; block row 1 is moved onto block
    # row 0's columns 0 and 1 at other offsets, so M1(1) has two equal rows
    # and M1 is singular, which the x = 1 test sees without a solve
    k0, p = DESK.k0, DESK.p
    rng = np.random.default_rng(8)
    right = k0 + np.array([rng.choice(DESK.r0, DESK.w_g - 2, replace=False) for _ in range(k0)])
    cols = np.column_stack([np.arange(k0), (np.arange(k0) + 1) % k0, right])
    offsets = rng.integers(0, p, cols.shape)
    cols[1, :2] = [0, 1]
    offsets[1, :2] = (offsets[0, :2] + [3, 5]) % p
    G = np.sort(cols * p + offsets, axis=1)
    M1 = generator_matrix(G, DESK).blocks[:, :k0]
    assert M1.any(axis=(0, 2)).all() and M1.any(axis=(1, 2)).all()
    assert gf_inv_dense(M1.sum(axis=2) % DESK.q, DESK.q) is None
    assert gf_inv_dense(expand(generator_matrix(G, DESK))[:, :DESK.k], DESK.q) is None

    def solved(*args):
        raise AssertionError("M1 eliminated")

    monkeypatch.setattr(ldgm, "qc_solve", solved)
    assert not reducible(G, DESK)


def test_reducible_eliminates_m1_built_from_the_positions_below_k(monkeypatch):
    # M1 alone, with no right-hand side, equal to the left k0 block columns
    # of G's block form, on desk and spanse-128 draws
    seen = []

    def recording(aug, q):
        seen.append(aug.copy())  # before the solve writes to it
        return real(aug, q)

    real = ldgm.qc_solve
    monkeypatch.setattr(ldgm, "qc_solve", recording)
    for ps in (DESK, get_params("spanse-128")):
        G = make_code(ps, np.random.default_rng(9))
        seen.clear()
        assert reducible(G, ps)
        assert len(seen) == 1
        assert np.array_equal(seen[0], generator_matrix(G, ps).blocks[:, : ps.k0])


def test_systematic_input_passthrough():
    # block row i of G = [I | M2] has its identity one at position i p and
    # w_g - 1 ones in the right part, so W = M2 and H^T = [-M2; I]
    rng = np.random.default_rng(4)
    k, q = DESK.k, DESK.q
    right = k + np.array([rng.choice(DESK.r, DESK.w_g - 1, replace=False) for _ in range(DESK.k0)])
    G = np.sort(np.column_stack([np.arange(DESK.k0) * DESK.p, right]), axis=1)
    M = generator_matrix(G, DESK)
    assert np.array_equal(expand(M)[:, :k], np.eye(k, dtype=np.int64))
    M2 = QCMatrix(M.blocks[:, DESK.k0 :], q)
    assert reducible(G, DESK)
    dense = parity_check(G, DESK)
    assert np.array_equal(dense[:, :k], (-expand(M2).T) % q)
    assert np.array_equal(dense[:, k:], np.eye(DESK.r, dtype=np.int64))
    assert not gf_matmul(dense, expand(M).T, q).any()


def test_syndrome_of_padded_pattern_reads_off_tail():
    rng = np.random.default_rng(5)
    dh = parity_check(make_code(DESK, rng), DESK)
    for _ in range(20):
        s = rng.integers(0, DESK.q, DESK.r)
        e = np.concatenate([np.zeros(DESK.k, dtype=np.int64), s])
        assert np.array_equal(gf_matmul(dh, e[:, None], DESK.q)[:, 0], s)


def test_make_code_retries_and_caps(monkeypatch):
    # make_code returns the first reducible draw, after the ones it rejects
    rng = np.random.default_rng(6)
    tested = []

    def recording(G, params):
        tested.append((G, reducible(G, params)))
        return tested[-1][1]

    monkeypatch.setattr(ldgm, "reducible", recording)
    G = make_code(DESK, rng)
    assert G.shape == (DESK.k0, DESK.w_g) and G is tested[-1][0] and len(tested) > 1
    assert [ok for _, ok in tested] == [False] * (len(tested) - 1) + [True]

    monkeypatch.setattr(ldgm, "reducible", lambda G, params: False)
    with pytest.raises(GenerationError):
        make_code(DESK, rng)


def test_random_codeword_is_codeword_and_weight_model():
    rng = np.random.default_rng(7)
    G = make_code(DESK, rng)
    dh = parity_check(G, DESK)
    weights = []
    for _ in range(2000):
        c = codeword_from_generator(G, DESK, rng)
        assert not gf_matmul(dh, dense_vector(c, DESK.n, DESK.q)[:, None], DESK.q).any()
        weights.append(np.unique(c).size)
    # expected weight from the per-entry collision model: n * rho_c
    rho_c = 1 - (1 - DESK.w_g / DESK.n) ** DESK.m_g
    mean = DESK.n * rho_c
    sd = np.sqrt(DESK.n * rho_c * (1 - rho_c) / len(weights))
    assert abs(np.mean(weights) - mean) < 5 * sd + 0.5


def test_codeword_edge_cases():
    rng = np.random.default_rng(8)
    G = make_code(DESK, rng)
    dense = expand(generator_matrix(G, DESK))
    c0 = codeword_positions(G, rng.choice(DESK.k, size=0, replace=False), DESK.p)
    assert c0.size == 0
    c1 = codeword_positions(G, rng.choice(DESK.k, size=1, replace=False), DESK.p)
    assert np.unique(c1).size == c1.size == DESK.w_g  # single generator row
    rows = {tuple(r) for r in dense}
    assert tuple(dense_vector(c1, DESK.n, DESK.q)) in rows
    # the positional codeword is u G against the block form, for the rows u picks;
    # m_g = k selects every row, so overlaps give entries above 1
    for m_g in (2, DESK.m_g, DESK.k // 2, DESK.k):
        picked = rng.choice(DESK.k, size=m_g, replace=False)
        c = codeword_positions(G, picked, DESK.p)
        u = np.zeros(DESK.k, dtype=np.int64)
        u[picked] = 1
        assert c.size == m_g * DESK.w_g
        assert np.array_equal(dense_vector(c, DESK.n, DESK.q),
                              gf_matmul(u[None, :], dense, DESK.q)[0])


def test_codeword_positions_work_on_any_leading_shape():
    # a batch of codewords is each row's codeword, and one draw then the
    # builder is codeword_from_generator
    rng = np.random.default_rng(9)
    G = sample_generator(DESK, rng)
    rows = np.stack([rng.choice(DESK.k, size=DESK.m_g, replace=False) for _ in range(6)])
    batch = codeword_positions(G, rows.reshape(2, 3, DESK.m_g), DESK.p)
    assert batch.shape == (2, 3, DESK.m_g * DESK.w_g)
    for i, picked in enumerate(rows):
        assert np.array_equal(batch.reshape(6, -1)[i], codeword_positions(G, picked, DESK.p))
    state = rng.bit_generator.state
    picked = rng.choice(DESK.k, size=DESK.m_g, replace=False)
    rng.bit_generator.state = state
    assert np.array_equal(codeword_from_generator(G, DESK, rng),
                          codeword_positions(G, picked, DESK.p))
    assert codeword_positions(G, np.empty((4, 0), dtype=np.int64), DESK.p).shape == (4, 0)
