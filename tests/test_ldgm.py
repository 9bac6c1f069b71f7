import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import dense_vector, expand, gf_matmul
from spanse.ldgm import (
    GenerationError,
    NotReducibleError,
    codeword_from_generator,
    generator_matrix,
    make_code,
    sample_generator,
    systematic_parity_check,
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
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        G = generator_matrix(sample_generator(DESK, rng), DESK)
        try:
            H = systematic_parity_check(G)
        except NotReducibleError:
            continue
        checked += 1
        dh = expand(H)
        assert np.array_equal(dh[:, DESK.k :], np.eye(DESK.r, dtype=np.int64))
        assert not gf_matmul(dh, expand(G).T, DESK.q).any()


def test_systematic_input_passthrough():
    rng = np.random.default_rng(4)
    p, k0, r0 = 5, 2, 2
    W = rng.integers(0, DESK.q, (k0, r0, p))
    blocks = np.zeros((k0, k0 + r0, p), dtype=np.int64)
    blocks[np.arange(k0), np.arange(k0), 0] = 1
    blocks[:, k0:] = W
    G = QCMatrix(blocks, DESK.q)
    H = systematic_parity_check(G)
    dense = expand(H)
    assert np.array_equal(dense[:, : k0 * p], (-expand(QCMatrix(W, DESK.q)).T) % DESK.q)
    assert not gf_matmul(dense, expand(G).T, DESK.q).any()


def test_syndrome_of_padded_pattern_reads_off_tail():
    rng = np.random.default_rng(5)
    _, H = make_code(DESK, rng)
    dh = expand(H)
    for _ in range(20):
        s = rng.integers(0, DESK.q, DESK.r)
        e = np.concatenate([np.zeros(DESK.k, dtype=np.int64), s])
        assert np.array_equal(gf_matmul(dh, e[:, None], DESK.q)[:, 0], s)


def test_make_code_retries_and_caps(monkeypatch):
    rng = np.random.default_rng(6)
    G, H = make_code(DESK, rng)
    assert G.shape == (DESK.k0, DESK.w_g) and (H.rows0, H.cols0) == (DESK.r0, DESK.n0)
    assert not gf_matmul(expand(H), expand(generator_matrix(G, DESK)).T, DESK.q).any()

    import spanse.ldgm as ldgm_mod

    def always_singular(G):
        raise NotReducibleError("forced")

    monkeypatch.setattr(ldgm_mod, "systematic_parity_check", always_singular)
    with pytest.raises(GenerationError):
        make_code(DESK, rng)


def test_random_codeword_is_codeword_and_weight_model():
    rng = np.random.default_rng(7)
    G, H = make_code(DESK, rng)
    dh = expand(H)
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
    G, _ = make_code(DESK, rng)
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
