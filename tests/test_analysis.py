import copy
import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import (
    density_pmf,
    density_support,
    fixed_weight_p_zero,
    floyd_subsets,
    masked_vector_pairs,
    multinomial_acceptance,
    per_trial_moments,
    value_pairs,
)
from spanse import analysis
from spanse.analysis import (
    AttackPoint,
    ConstraintError,
    brute_force_log2,
    log2_binomial,
    optimize_attack,
    pge_ss_exponents,
    rejection_rate_analytic,
    rejection_rate_montecarlo,
    size_counts,
    size_report,
)
from spanse.cli import EXIT_OK, _print_report, main
from spanse.ldgm import codeword_positions, sample_generator
from spanse.params import DensityPolynomial, ParameterSet, get_params
from spanse.scheme import Signature
from spanse.serial import serialize_params, serialize_signature

DESK = get_params("desk")


# --- counting ---------------------------------------------------------------

def test_log2_binomial_exact_small_cases():
    assert log2_binomial(4, 2) == pytest.approx(math.log2(6), abs=1e-12)
    for m in range(61):
        for t in range(m + 1):
            exact = math.log2(math.comb(m, t))
            assert log2_binomial(m, t) == pytest.approx(exact, abs=1e-9)
    with pytest.raises(ValueError):
        log2_binomial(5, 6)
    with pytest.raises(ValueError):
        log2_binomial(5, -1)


def test_log2_binomial_reference_counts():
    assert log2_binomial(12000, 26) == pytest.approx(263.9, abs=0.1)
    assert log2_binomial(12000, 12) == pytest.approx(133.8, abs=0.1)


def test_brute_force_terms():
    rep = brute_force_log2(q=127, n=15000, r=12000)
    assert rep.zero_free_log2 < -170
    assert rep.total_log2 == pytest.approx(rep.zero_free_log2 - 12000 * math.log2(127))
    assert brute_force_log2(q=127, n=0, r=10).zero_free_log2 == 0
    # (q-1)/q -> 1 as q grows, so the term tends to zero from below
    assert -1e-3 < brute_force_log2(q=10**9, n=15000, r=0).zero_free_log2 < 0


# --- decoder cost model -------------------------------------------------------

PAPER_POINT = AttackPoint(9, 0.010725, 0.493)
PAPER_DIMS = dict(n=24000, k=12000, q=127, p=101)


def test_reference_attack_point():
    rep = pge_ss_exponents(PAPER_POINT, **PAPER_DIMS)
    assert rep.t_doom_log2 == pytest.approx(131.6, abs=0.5)
    assert rep.t_doom_log2 == pytest.approx(rep.t_sdp_log2 - 0.5 * math.log2(101))


def test_chi_rho_identity_random_points():
    rng = np.random.default_rng(0)
    for _ in range(200):
        b = int(rng.integers(1, 10))
        phi = float(rng.uniform(1e-4, 0.499))
        nu_max = 2.0 ** (-b) * math.log2(126)
        nu = float(rng.uniform(1e-6, nu_max * 0.999))
        rep = pge_ss_exponents(AttackPoint(b, nu, phi), **PAPER_DIMS)
        assert rep.chi == pytest.approx(rep.rho + phi * math.log2(1 - 1 / 127), abs=1e-12)
        assert rep.t_doom_log2 < rep.t_sdp_log2  # p > 1


def test_doom_discount_vanishes_at_p_one():
    rep = pge_ss_exponents(PAPER_POINT, n=24000, k=12000, q=127, p=1)
    assert rep.t_doom_log2 == rep.t_sdp_log2


def test_constraints_are_enforced():
    with pytest.raises(ConstraintError, match="b="):
        pge_ss_exponents(AttackPoint(0, 0.01, 0.4), **PAPER_DIMS)
    with pytest.raises(ConstraintError, match="phi"):
        pge_ss_exponents(AttackPoint(2, 0.01, 0.51), **PAPER_DIMS)
    with pytest.raises(ConstraintError, match="phi"):
        pge_ss_exponents(AttackPoint(2, 0.01, 0.0), **PAPER_DIMS)
    nu_max = 2.0 ** (-9) * math.log2(126)
    with pytest.raises(ConstraintError, match="nu"):
        pge_ss_exponents(AttackPoint(9, nu_max + 1e-9, 0.4), **PAPER_DIMS)
    # just below the bound is fine
    pge_ss_exponents(AttackPoint(9, nu_max * (1 - 1e-9), 0.4), **PAPER_DIMS)
    with pytest.raises(ConstraintError, match="reduced length"):
        pge_ss_exponents(AttackPoint(14, 1e-6, 0.4), **PAPER_DIMS)


def test_optimizer_reference_instance():
    best = optimize_attack(**PAPER_DIMS)
    assert best.point.b == 9
    assert best.t_doom_log2 <= 132.1
    # the optimum can only improve on the reference point
    ref = pge_ss_exponents(PAPER_POINT, **PAPER_DIMS)
    assert best.t_doom_log2 <= ref.t_doom_log2 + 1e-9
    # at b=9 the two kinks u = rho and chi = 0 cross at u = -phi*D, where
    # phi* = (1-R)L / (L - 9D); the cost there is n*u - log2(p)/2
    L, D = math.log2(127), math.log2(1 - 1 / 127)
    phi_star = 0.5 * L / (L - 9 * D)
    assert best.point.phi == pytest.approx(phi_star, abs=1e-9)
    assert best.t_doom_log2 == pytest.approx(24000 * -D * phi_star - 0.5 * math.log2(101),
                                             abs=1e-9)


def _grid_minimum(n, k, q, p, steps=51):
    """Least t_doom over every valid point of a (b, nu, phi) grid."""
    least = math.inf
    for b in range(1, math.floor(math.log2(n)) + 1):
        nu_max = 2.0 ** (-b) * math.log2(q - 1)
        for phi in np.linspace(0.0, 1.0 - k / n, steps):
            for nu in np.linspace(0.0, nu_max, steps):
                try:
                    rep = pge_ss_exponents(AttackPoint(b, float(nu), float(phi)),
                                           n=n, k=k, q=q, p=p)
                except ConstraintError:
                    continue
                least = min(least, rep.t_doom_log2)
    return least


def test_optimizer_is_below_a_dense_grid():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(50, 3000))
        k = int(rng.integers(1, n))
        q = int(rng.choice([3, 5, 7, 11, 13, 31, 127, 251]))
        p = int(rng.choice([1, 2, 13, 101]))
        best = optimize_attack(n=n, k=k, q=q, p=p)
        assert best.t_doom_log2 <= _grid_minimum(n, k, q, p) + 1e-9, (n, k, q, p)


def test_optimizer_reports_the_open_nu_edge_as_its_infimum():
    dims = dict(n=1570, k=937, q=7, p=2)
    best = optimize_attack(**dims)
    b, phi = best.point.b, best.point.phi
    nu_max = 2.0 ** (-b) * math.log2(6)
    assert best.point.nu == pytest.approx(nu_max, rel=1e-12)
    assert 0 < phi < 1 - 937 / 1570
    inside = pge_ss_exponents(AttackPoint(b, nu_max * (1 - 1e-9), phi), **dims)
    assert inside.t_doom_log2 >= best.t_doom_log2 - 1e-9
    assert inside.t_doom_log2 == pytest.approx(best.t_doom_log2, abs=1e-6)


def test_optimizer_without_a_feasible_point_raises():
    with pytest.raises(ConstraintError, match="no feasible"):
        optimize_attack(n=600, k=300, q=2, p=1)  # nu_max = 0 for every b
    with pytest.raises(ConstraintError, match="no feasible"):
        optimize_attack(n=2, k=1, q=127, p=1)  # b = 1 leaves no reduced length


def test_optimizer_degenerate_and_scaling():
    small = optimize_attack(n=600, k=300, q=3, p=1)
    assert math.isfinite(small.t_doom_log2)
    one = optimize_attack(n=24000, k=12000, q=127, p=101)
    two = optimize_attack(n=48000, k=24000, q=127, p=101)
    assert two.t_doom_log2 / one.t_doom_log2 == pytest.approx(2.0, rel=0.1)


def _optimizer_dims():
    """desk, spanse-128, the paper's dimensions and the p101 shape (n0 = 84,
    k0 = 42); two sets whose largest b leaves no reduced length (2^b = n),
    so that b is skipped; two with no feasible point (nu_max = 0 at q = 2,
    and phi_max = 0 at n = 2); and 20 seeded random ones."""
    dims = [(ps.n, ps.k, ps.q, ps.p) for ps in map(get_params, ("desk", "spanse-128"))]
    dims += [(24000, 12000, 127, 101), (8484, 4242, 127, 101), (4096, 2048, 127, 1),
             (1024, 1000, 13, 2), (600, 300, 2, 1), (2, 1, 127, 1)]
    rng = np.random.default_rng(2028)
    for _ in range(20):
        n = int(rng.integers(2, 50000))
        dims.append((n, int(rng.integers(1, n)), int(rng.choice([3, 5, 7, 13, 127, 251])),
                     int(rng.choice([1, 2, 13, 101]))))
    return dims


@pytest.mark.parametrize("n, k, q, p", _optimizer_dims())
def test_optimizer_equals_the_scalar_loop(n, k, q, p):
    try:
        want = oracles.optimize_attack(n=n, k=k, q=q, p=p)
    except ConstraintError:
        with pytest.raises(ConstraintError, match="no feasible"):
            optimize_attack(n=n, k=k, q=q, p=p)
        return
    got = optimize_attack(n=n, k=k, q=q, p=p)
    # repr also tells a signed zero from 0.0
    assert got == want and repr(got) == repr(want)


def test_array_max_and_min_keep_the_scalar_signed_zeros():
    # np.maximum(-0.0, 0.0) is 0.0 where Python's max gives -0.0
    x, y = [-0.0, 0.0, -0.0, 1.0, 2.0], [0.0, -0.0, -0.0, 2.0, 1.0]
    for array_op, op in ((analysis._max, max), (analysis._min, min)):
        got = array_op(np.array(x), np.array(y)).tolist()
        want = [op(a, b) for a, b in zip(x, y)]
        assert [(v, math.copysign(1, v)) for v in got] == [(v, math.copysign(1, v)) for v in want]


@pytest.mark.parametrize("name", ["desk", "spanse-128", "p101"])
def test_analyze_attack_prints_the_scalar_loops_report(name, tmp_path, capsys):
    if name == "p101":
        ref = get_params("spanse-128")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # m_g*w_g >= q, as in spanse-128
            ps = ParameterSet("p101", ref.q, ref.p, 84, 42, ref.w, ref.w_g, ref.m_g, ref.density)
        name = str(tmp_path / "p101.params")
        (tmp_path / "p101.params").write_bytes(serialize_params(ps))
    else:
        ps = get_params(name)
    _print_report(oracles.optimize_attack(n=ps.n, k=ps.k, q=ps.q, p=ps.p).as_dict())
    want = capsys.readouterr().out
    assert main(["analyze", "attack", "--params", name]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_pge_at_spanse_128_dims():
    ps = get_params("spanse-128")
    rep = pge_ss_exponents(PAPER_POINT, n=ps.n, k=ps.k, q=ps.q, p=ps.p)
    assert rep.t_doom_log2 == pytest.approx(131.6, abs=1.0)
    d = rep.as_dict()
    assert set(d) == {"t_sdp_log2", "t_doom_log2", "b", "nu", "phi"}


# --- rejection model ----------------------------------------------------------

def _with_density(params, text):
    return dataclasses.replace(params, density=DensityPolynomial.parse(text, params.q))


def _folded_binomial(trials, prob, q):
    """scipy's Bin(trials, prob) pmf reduced mod q."""
    from scipy.stats import binom

    counts = np.arange(trials + 1)
    return np.bincount(counts % q, weights=binom.pmf(counts, trials, prob), minlength=q)


def test_rejection_model_distributions_sum_to_one():
    # the pmf powers of the analytic model and of the fixed-weight oracle's
    # trial count: each sums to one and matches scipy, and the doublings it
    # needs are appended to the shared list
    q = DESK.q
    rho_c = 1 - (1 - DESK.w_g / DESK.n) ** DESK.m_g
    for trials, prob in ((DESK.w, 0.5), (DESK.n, rho_c * 0.5), (DESK.m_g * DESK.w_g, 0.5)):
        step = np.zeros(q)
        step[:2] = 1 - prob, prob
        powers = [step]
        dist = analysis._pmf_power(powers, trials, np.eye(1, q)[0])
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(powers) == trials.bit_length()
        assert np.allclose(dist, _folded_binomial(trials, prob, q), rtol=1e-10, atol=0)
    report = rejection_rate_analytic(DESK)
    assert report.p_valid == (1 - report.p_zero_entry) ** DESK.n
    assert report.expected_attempts == 1 / report.p_valid


def test_rejection_binomial_model_is_the_thinned_mixture():
    # z ~ Bin(n, rho_c) followed by Bin(z, d1) is Bin(n, rho_c d1): the
    # analytic p0 equals that of the mixture summed over every z <= n
    from scipy.stats import binom

    n, q, d1 = DESK.n, DESK.q, float(DESK.density.d1)
    rho_c = 1 - (1 - DESK.w_g / n) ** DESK.m_g
    mixture = np.zeros(q)
    for z in range(n + 1):
        mixture += binom.pmf(z, n, rho_c) * _folded_binomial(z, d1, q)
    pattern = _folded_binomial(DESK.w, d1, q)
    p0 = np.dot(mixture, pattern[(q - np.arange(q)) % q])
    assert rejection_rate_analytic(DESK).p_zero_entry == pytest.approx(p0, rel=1e-10, abs=0)


@pytest.mark.parametrize("weight_model", ["binomial", "fixed"])
def test_rejection_pmfs_match_scipy_at_spanse_128(weight_model):
    # "binomial": the analytic p0 at spanse-128, whose codeword part has
    # n = 24038 trials, against scipy's Bin(n, rho_c/2) + Bin(w, 1/2) mod q.
    # "fixed": a masked vector of m_g w_g + w distinct ones, as the
    # fixed-weight model assumes, has the Monte Carlo's exact p0(v) of
    # scipy's Bin(m_g w_g + w, 1/2) mod q
    ps = _with_density(get_params("spanse-128"), "1/2,1/2")
    q = ps.q
    if weight_model == "binomial":
        rho_c = 1 - (1 - ps.w_g / ps.n) ** ps.m_g
        codeword, pattern = _folded_binomial(ps.n, rho_c / 2, q), _folded_binomial(ps.w, 0.5, q)
        want = np.dot(codeword, pattern[(q - np.arange(q)) % q])
        got = rejection_rate_analytic(ps).p_zero_entry
    else:
        want = fixed_weight_p_zero(ps)
        got = analysis._p_zero(value_pairs(np.ones(ps.m_g * ps.w_g + ps.w, dtype=np.int64)),
                               density_pmf(ps.density), {})
    assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_rejection_analytic_rejects_nonbinary():
    d = DensityPolynomial.parse("0.5,0.49,2:0.01", 127)
    ps = ParameterSet("x", 127, 13, 20, 10, 6, 5, 4, d)
    with pytest.raises(ValueError):
        rejection_rate_analytic(ps)


def test_rejection_degenerate_zero_weights(capsys):
    # d(x) = 1 puts all the density's mass on 0: every entry sums to 0 mod
    # q and no attempt can succeed, in the library and in the CLI
    report = rejection_rate_analytic(_with_density(DESK, "1,0"))
    assert report.p_zero_entry == 1.0
    assert report.p_valid == 0.0 and report.expected_attempts == math.inf
    capsys.readouterr()
    assert main(["analyze", "rejection", "--params", "desk", "--density", "1,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p_valid = 0\n" in out and "expected_attempts = inf\n" in out


def test_rejection_analytic_against_monte_carlo_desk():
    analytic = (1 - fixed_weight_p_zero(DESK)) ** DESK.n
    estimate, stderr = rejection_rate_montecarlo(DESK, 20000, seed=99)
    assert abs(estimate - analytic) <= 3 * max(stderr, 1e-4)


def test_montecarlo_reproducible():
    p1, e1 = rejection_rate_montecarlo(DESK, 3000, seed=5)
    p2, e2 = rejection_rate_montecarlo(DESK, 3000, seed=5)
    assert p1 == p2 and e1 == e2


def test_montecarlo_all_ones_density_rank_one(monkeypatch):
    # d(x) = x makes every signature entry the same constant w + sum(c);
    # acceptance is then all-or-nothing per trial
    ps = dataclasses.replace(DESK, density=DensityPolynomial({0: 0, 1: 1}, 127))
    monkeypatch.setattr(analysis, "_BATCH_TRIALS", 100)
    p_hat, _ = rejection_rate_montecarlo(ps, 400, seed=17)
    # the constant is ~uniform-ish over residues; rejection ~ 1/q, tiny
    assert p_hat > 0.9


@pytest.mark.parametrize("text", ["0.5,0.3,2:0.15,5:0.05", "0.6,0.1,3:0.3", "ones"])
def test_p_zero_matches_enumeration(text):
    # every assignment of density values to a support of 3 or 4 entries
    # carrying values 1 and 2; "ones" is d(x) = x, whose p0 is 0 or 1
    q = 127
    density = (DensityPolynomial({0: 0, 1: 1}, q) if text == "ones"
               else DensityPolynomial.parse(text, q))
    pmf = density_pmf(density)
    support = density_support(density)
    squares = {}
    for size in (3, 4):
        for values in itertools.product((1, 2), repeat=size):
            exact = sum(
                (math.prod(pr for _, pr in pick) for pick in itertools.product(support, repeat=size)
                 if sum(v * x for v, (x, _) in zip(values, pick)) % q == 0),
                Fraction(0))
            got = analysis._p_zero(value_pairs(np.array(values)), pmf, squares)
            assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-300)
            if text == "ones":
                assert got in (0.0, 1.0)


def test_p_zero_keeps_relative_accuracy_near_1e_15():
    # 157 unit entries under d = 1/2 + x/2: the sum is Bin(157, 1/2), which
    # is 0 mod 127 at 0 and 127 only
    pmf = density_pmf(DensityPolynomial.parse("1/2,1/2", 127))
    exact = (1 + math.comb(157, 127)) / 2**157
    assert 1e-16 < exact < 1e-14
    got = analysis._p_zero(value_pairs(np.ones(157, dtype=np.int64)), pmf, {})
    assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("text", ["0.8,0.2", "0.7,0.25,2:0.03,5:0.02"])
def test_montecarlo_agrees_with_multinomial_sampler(text):
    ps = _with_density(DESK, text)
    sampled, sampled_se = multinomial_acceptance(DESK, ps.density, 10_000, seed=7)
    estimate, stderr = rejection_rate_montecarlo(ps, 4_000, seed=7)
    assert stderr < sampled_se
    assert abs(estimate - sampled) <= 4 * math.hypot(stderr, sampled_se)


def test_montecarlo_stderr_is_the_sample_deviation_of_per_trial_values(monkeypatch):
    ps = _with_density(DESK, "0.8,0.2")
    seeds = np.random.SeedSequence(11).spawn(6)
    values = [analysis._simulate_batch(ps, ps.density, 1, seed)[0] for seed in seeds]
    monkeypatch.setattr(analysis, "_BATCH_TRIALS", 1)
    estimate, stderr = rejection_rate_montecarlo(ps, 6, seed=11)
    assert estimate == pytest.approx(np.mean(values), rel=1e-12)
    assert stderr == pytest.approx(np.std(values, ddof=1) / math.sqrt(6), rel=1e-9)
    assert 0 < stderr < 1


CRITERION_6_DENSITIES = ["0.5783,0.4167,2:0.0042,13:0.00083",
                         "0.5775,0.4167,2:0.0042,13:0.00083,25:0.00083"]


@pytest.mark.parametrize("batch_size", [1, 7, 1000])
@pytest.mark.parametrize("text", ["1/2,1/2", *CRITERION_6_DENSITIES])
@pytest.mark.parametrize("name", ["desk", "spanse-128"])
def test_batch_moments_equal_a_p_zero_call_per_trial(name, text, batch_size):
    # scoring each distinct (g, t) multiset once per batch changes no bit of
    # the batch's moments
    ps = get_params(name)
    density = _with_density(ps, text).density
    seed = np.random.SeedSequence(1001).spawn(1)[0]
    want = per_trial_moments(ps, density, batch_size, seed)
    assert analysis._simulate_batch(ps, density, batch_size, seed) == want


def test_value_counts_give_each_rows_multiplicities_mod_q():
    # hand-made position rows, unsorted, against np.unique's multiplicities
    q, k = DESK.q, DESK.k
    rng = np.random.default_rng(3)
    others = rng.permutation(np.arange(100, 300))
    size = q + 1 + 9
    rows = {
        "q repeats": np.concatenate([np.full(q, 7), others[:size - q]]),
        "q + 1 repeats": np.concatenate([np.full(q + 1, 7), others[:size - q - 1]]),
        "distinct": others[:size],
        "mixed": rng.integers(0, 20, size=size),
    }
    rows = {name: rng.permutation(row) for name, row in rows.items()}
    want = {name: value_pairs(np.unique(row, return_counts=True)[1] % q)
            for name, row in rows.items()}
    assert (0, 1) in want["q repeats"] and want["q + 1 repeats"] == ((1, size - q),)
    assert want["distinct"] == ((1, size),)
    counts = analysis._value_counts(np.stack(list(rows.values())), q)
    assert counts.shape == (len(rows), q)
    assert [analysis._pairs(c) for c in counts] == list(want.values())
    for name, row in rows.items():  # trials = 1
        assert [analysis._pairs(c) for c in analysis._value_counts(row[None], q)] == [want[name]]
    # m_g = 0: the masked vector is the weight-w pattern alone, and a short
    # row's histogram is only as wide as its largest possible entry
    G = sample_generator(DESK, rng)
    pattern = np.stack([rng.choice(DESK.r, size=DESK.w, replace=False) for _ in range(3)])
    empty = codeword_positions(G, np.empty((3, 0), dtype=np.int64), DESK.p)
    counts = analysis._value_counts(np.concatenate([k + pattern, empty], axis=1), q)
    assert counts.shape == (3, DESK.w + 1)
    assert [analysis._pairs(c) for c in counts] == [((1, DESK.w),)] * 3


def test_batch_with_more_codeword_rows_than_k_raises_value_error():
    # a ParameterSet refuses m_g > k, so force one past its checks
    bad = copy.copy(DESK)
    object.__setattr__(bad, "m_g", DESK.k + 1)
    with pytest.raises(ValueError):
        analysis._simulate_batch(bad, DESK.density, 3, 1)


def test_subsets_are_uniform_over_all_subsets():
    # 300 000 draws of 3 from 6: each of the C(6, 3) = 20 subsets lies
    # within 5 sigma of its expected count
    draws, subsets = 300_000, list(itertools.combinations(range(6), 3))
    rows = np.sort(analysis._subsets(np.random.default_rng(25), 6, draws, 3), axis=1)
    seen, counts = np.unique(rows, axis=0, return_counts=True)
    assert [tuple(row) for row in seen.tolist()] == subsets
    share = 1 / len(subsets)
    assert np.all(np.abs(counts - draws * share) <= 5 * math.sqrt(draws * share * (1 - share)))


@pytest.mark.parametrize("population, size", [(6, 3), (2, 1), (101, 26), (1111, 12), (40, 39)])
def test_subsets_rows_hold_distinct_entries_in_range(population, size):
    out = analysis._subsets(np.random.default_rng(population), population, 500, size)
    assert out.shape == (500, size) and out.dtype == np.int64
    assert out.min() >= 0 and out.max() < population
    ordered = np.sort(out, axis=1)
    assert np.all(ordered[:, 1:] != ordered[:, :-1])


def test_subsets_of_the_whole_range_and_of_nothing():
    rng = np.random.default_rng(26)
    whole = analysis._subsets(rng, 7, 50, 7)
    assert np.array_equal(np.sort(whole, axis=1), np.tile(np.arange(7), (50, 1)))
    for population in (0, 7):
        empty = analysis._subsets(rng, population, 50, 0)
        assert empty.shape == (50, 0) and empty.dtype == np.int64


def test_subsets_larger_than_the_population_raise():
    with pytest.raises(ValueError):
        analysis._subsets(np.random.default_rng(27), 5, 3, 6)


@pytest.mark.parametrize("population, rows, size", [
    (13, 1000, 13), (13, 1000, 12), (7, 50, 7), (7, 50, 6), (40, 500, 39), (2, 300, 2),
    (7, 50, 0), (0, 50, 0), (7, 50, 1), (1, 50, 1), (6, 3000, 3), (24038, 119, 11),
    (12019, 1000, 12), (12019, 1000, 26)])
def test_subsets_equal_floyds_algorithm_one_entry_at_a_time(population, rows, size):
    # rows that draw a repeat are common at size = population and at
    # population - 1, rare at the spanse-128 shapes
    for seed in range(3):
        got = analysis._subsets(np.random.default_rng(seed), population, rows, size)
        want = floyd_subsets(np.random.default_rng(seed), population, rows, size)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_batch_makes_the_same_generator_calls_at_any_trial_count(monkeypatch):
    # a proxy around each generator the batch makes counts its calls: the
    # draws are whole-batch arrays, so they do not grow with the trials
    calls, make = [], np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self._rng = make(seed)

        def __getattr__(self, name):
            def counted(*args, **kwargs):
                calls.append(name)
                return getattr(self._rng, name)(*args, **kwargs)
            return counted

    monkeypatch.setattr(analysis.np.random, "default_rng", Counting)
    for ps in (DESK, get_params("spanse-128")):
        made = []
        for trials in (10, 1000):
            calls.clear()
            analysis._simulate_batch(ps, ps.density, trials, 1)
            made.append(list(calls))
        assert made[0] == made[1] == ["integers"] * 3


def test_p_zero_runs_once_per_distinct_multiset_of_each_batch(monkeypatch):
    ps = _with_density(get_params("spanse-128"), CRITERION_6_DENSITIES[0])
    calls, p_zero = [], analysis._p_zero

    def counted(pairs, pmf, squares):
        calls.append(pairs)
        return p_zero(pairs, pmf, squares)

    monkeypatch.setattr(analysis, "_p_zero", counted)
    seeds = np.random.SeedSequence(5).spawn(3)
    rejection_rate_montecarlo(ps, 3000, seed=5)  # batches of 1000
    # each batch scores the keys it meets, in the order it first meets them,
    # and starts with an empty memo
    want = [key for seed in seeds for key in dict.fromkeys(masked_vector_pairs(ps, 1000, seed))]
    assert calls == want
    assert len(calls) < 100


def test_montecarlo_single_trial(monkeypatch):
    ps = _with_density(DESK, "0.8,0.2")
    results = set()
    for batch in (1, 7, 1000):
        monkeypatch.setattr(analysis, "_BATCH_TRIALS", batch)
        results.add(rejection_rate_montecarlo(ps, 1, seed=3))
    assert len(results) == 1
    estimate, stderr = results.pop()
    assert 0 < estimate < 1 and stderr == 1.0


def test_montecarlo_combines_uneven_batches_into_pooled_moments(monkeypatch):
    # 10 trials in batches of 4, 4 and 2: the running combination equals the
    # mean and ddof=1 deviation of all ten values, and batch i gets spawned seed i
    values = np.array([0.9, 0.5, 0.75, 1.0, 0.25, 0.6, 0.95, 0.1, 0.8, 0.3])
    bounds = [(0, 4), (4, 8), (8, 10)]
    seen = []

    def fake_batch(params, density, trials, seed):
        lo, hi = bounds[len(seen)]
        seen.append((trials, seed.spawn_key))
        batch = values[lo:hi]
        return float(batch.sum()), float(((batch - batch.mean()) ** 2).sum())

    monkeypatch.setattr(analysis, "_simulate_batch", fake_batch)
    monkeypatch.setattr(analysis, "_BATCH_TRIALS", 4)
    estimate, stderr = rejection_rate_montecarlo(DESK, 10, seed=3)
    want_keys = [s.spawn_key for s in np.random.SeedSequence(3).spawn(3)]
    assert seen == [(4, want_keys[0]), (4, want_keys[1]), (2, want_keys[2])]
    assert estimate == pytest.approx(values.mean(), rel=1e-12)
    assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(10), rel=1e-12)


def test_montecarlo_working_set_does_not_grow_with_the_trials(monkeypatch):
    # each batch takes its seed as it starts, so 10^12 trials need what 1000
    # do, the generator and one batch's arrays, and that need passes the limit
    needs, check = [], analysis.check_working_set

    class Stop(Exception):
        pass

    def recording(params, command, need):
        needs.append(need)
        check(params, command, need)

    def stop(*args):
        raise Stop

    monkeypatch.setattr(analysis, "check_working_set", recording)
    monkeypatch.setattr(analysis, "_simulate_batch", stop)
    for trials in (1000, 10**12):
        with pytest.raises(Stop):
            rejection_rate_montecarlo(DESK, trials, seed=1)
    assert len(needs) == 2 and needs[0] == needs[1]


# (params, density, seed, trials per batch, trials) -> (p_valid, stderr), as float hex
RECORDED_ESTIMATES = [
    ("desk", "1/2,1/2", 5, 1000, 2000,
     "0x1.fffeb7f2b0b24p-1", "0x1.b95965bda14e4p-23"),
    ("desk", CRITERION_6_DENSITIES[0], 1001, 1, 300,
     "0x1.ffd075822a946p-1", "0x1.f54032a78b16bp-17"),
    ("desk", CRITERION_6_DENSITIES[1], 1, 1000, 2000,
     "0x1.ffd569b5781b0p-1", "0x1.42349793b9649p-18"),
    ("spanse-128", CRITERION_6_DENSITIES[0], 5, 1, 300,
     "0x1.fbc820ed8cad1p-1", "0x1.ca33fac189197p-13"),
]


def test_montecarlo_reproduces_recorded_estimates(monkeypatch):
    # regression pins: any change to the batches, their seeds, the trial
    # sampler or the combination order moves these values
    for name, text, seed, batch, trials, p_hex, se_hex in RECORDED_ESTIMATES:
        ps = get_params(name)
        density = DensityPolynomial.parse(text, ps.q)
        monkeypatch.setattr(analysis, "_BATCH_TRIALS", batch)
        estimate, stderr = rejection_rate_montecarlo(dataclasses.replace(ps, density=density),
                                                     trials, seed=seed)
        assert estimate == pytest.approx(float.fromhex(p_hex), rel=1e-12)
        assert stderr == pytest.approx(float.fromhex(se_hex), rel=1e-9)


def test_montecarlo_validates_trials():
    with pytest.raises(ValueError):
        rejection_rate_montecarlo(DESK, 0)


# --- sizes ---------------------------------------------------------------------

def test_size_counts_reference_numbers():
    rep = size_counts(n=24000, r=12000, p=101, q=127, w=26, m_g=12)
    kib = rep.pk_packed_bytes / 1024
    assert kib == pytest.approx(2436.6, rel=1e-3)
    assert rep.log2_Ns == pytest.approx(263.9, abs=0.1)
    assert rep.log2_Nc == pytest.approx(133.8, abs=0.1)


def test_size_counts_degenerate_p_one():
    rep = size_counts(n=200, r=100, p=1, q=127, w=6, m_g=4)
    assert rep.pk_symbols == 100 * 200


def test_size_report_desk_symbols():
    rep = size_report(DESK)
    assert rep.pk_symbols == 10 * 20 * 13
    d = rep.as_dict()
    assert set(d) == {"pk_packed_bytes", "log2_Ns", "log2_Nc"}


@pytest.mark.parametrize("name,size", [("desk", 335), ("spanse-128", 24131)])
def test_size_report_sig_bytes_is_the_file_size(name, size):
    params = get_params(name)
    sig = Signature(np.ones(params.n, dtype=np.int64), bytes(32))
    assert size_report(params).sig_bytes == len(serialize_signature(sig, params)) == size
