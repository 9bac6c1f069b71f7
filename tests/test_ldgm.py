import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import dense_vector, expand, gf_inv_dense, gf_matmul, parity_check
from spanse import ldgm
from spanse.ldgm import (
    GenerationError,
    codeword_from_generator,
    codeword_positions,
    generator_matrix,
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
        c = codeword_from_generator(G, DESK, DESK.m_g, rng)
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
    c0 = codeword_from_generator(G, DESK, 0, rng)
    assert c0.size == 0
    c1 = codeword_from_generator(G, DESK, 1, rng)
    assert np.unique(c1).size == c1.size == DESK.w_g  # single generator row
    rows = {tuple(r) for r in dense}
    assert tuple(dense_vector(c1, DESK.n, DESK.q)) in rows
    # the positional codeword is u G against the block form, for the u its draw picks;
    # m_g = k selects every row, so overlaps give entries above 1
    for m_g in (2, DESK.m_g, DESK.k // 2, DESK.k):
        state = rng.bit_generator.state
        picked = rng.choice(DESK.k, size=m_g, replace=False)
        rng.bit_generator.state = state
        c = codeword_from_generator(G, DESK, m_g, rng)
        u = np.zeros(DESK.k, dtype=np.int64)
        u[picked] = 1
        assert c.size == m_g * DESK.w_g
        assert np.array_equal(dense_vector(c, DESK.n, DESK.q),
                              gf_matmul(u[None, :], dense, DESK.q)[0])
    with pytest.raises(ValueError):
        codeword_from_generator(G, DESK, DESK.k + 1, rng)


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
    assert np.array_equal(codeword_from_generator(G, DESK, DESK.m_g, rng),
                          codeword_positions(G, picked, DESK.p))
    assert codeword_positions(G, np.empty((4, 0), dtype=np.int64), DESK.p).shape == (4, 0)
