"""Quantitative models: decoder cost estimates, rejection rates, sizes.

Everything here is closed-form or Monte Carlo estimation; no attack is
executed. The decoder cost model covers a partial-Gaussian-elimination
attack whose reduced instance is solved by subset-sum-style list merging
(depth-b merge tree, list-size exponent nu, elimination fraction phi), with
an additional sqrt(p) discount when all p quasi-cyclic shifts of the target
syndrome are attacked at once. Its minimum over (b, nu, phi) is found
exactly: for each b the cost is convex and piecewise linear in
(nu(1-phi), phi), so it is least at a crossing of two lines of a fixed
arrangement. The rejection model predicts the
probability that a signing attempt yields a zero-free signature: in closed
form for binary densities, and for any density by a Monte Carlo over the
masked vector v = e + c that scores each sampled v by its exact acceptance
probability (1 - p0(v))^n, with p0(v) from cyclic convolutions over Z_q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ldgm import codeword_positions
from .params import DensityPolynomial, ParameterSet, check_working_set
from .qcalg import cyclic_convolve
from .scheme import THETA_BYTES
from .serial import serialize_params


class ConstraintError(ValueError):
    """An attack point violates one of the model's validity bounds."""


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def log2_binomial(m: int, t: int) -> float:
    """log2 of the binomial coefficient C(m, t) via log-gamma."""
    if t < 0 or t > m:
        raise ValueError(f"need 0 <= t <= m, got t={t}, m={m}")
    return (math.lgamma(m + 1) - math.lgamma(t + 1) - math.lgamma(m - t + 1)) / math.log(2)


# ---------------------------------------------------------------------------
# decoder cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackPoint:
    b: int  # merge-tree depth
    nu: float  # list-size exponent per reduced length
    phi: float  # eliminated fraction of n


@dataclass(frozen=True)
class CostReport:
    rho: float  # exponent (per n) of the final list size
    chi: float  # success exponent per n (before min with 0)
    iter_cost_log2: float
    success_prob_log2: float
    t_sdp_log2: float
    t_doom_log2: float  # assumes the sqrt(p) many-syndromes discount
    point: AttackPoint

    def as_dict(self) -> dict:
        return {
            "t_sdp_log2": self.t_sdp_log2,
            "t_doom_log2": self.t_doom_log2,
            "b": self.point.b,
            "nu": self.point.nu,
            "phi": self.point.phi,
        }


def _check_point(point: AttackPoint, n: int, R: float, q: int):
    if point.b < 1:
        raise ConstraintError(f"b={point.b} must be >= 1")
    if not (0.0 < point.phi < 1.0 - R):
        raise ConstraintError(f"phi={point.phi} outside (0, 1-R={1 - R})")
    b_max = math.floor(math.log2((1.0 - point.phi) * n))
    if point.b > b_max:
        raise ConstraintError(f"b={point.b} exceeds log2 of the reduced length ({b_max})")
    nu_max = 2.0 ** (-point.b) * math.log2(q - 1)
    if not (0.0 < point.nu < nu_max):
        raise ConstraintError(f"nu={point.nu} outside (0, {nu_max}) for b={point.b}")


def _exponents(point: AttackPoint, *, n: int, k: int, q: int, p: int) -> CostReport:
    """Cost exponents of the list-merging decoder at an attack point, unchecked."""
    costs = _costs(point.b, point.nu, point.phi, n=n, k=k, q=q, p=p)
    return CostReport(*map(float, costs), point)


def _costs(b, nu, phi, *, n: int, k: int, q: int, p: int) -> tuple:
    """CostReport's fields but the point, elementwise over arrays b, nu, phi.

    After eliminating phi*n coordinates the residual code has length
    n' = (1-phi)n and rate R' = R/(1-phi). A depth-b merge tree with lists
    of size 2^{nu n'} leaves ~2^{rho n} candidates; an iteration succeeds
    with probability 2^{n min(0, chi)} where chi folds in the chance that
    the eliminated block stays zero-free.
    """
    R_prime = k / n / (1.0 - phi)
    rho = ((b + 1) * nu - (1.0 - R_prime) * math.log2(q)) * (1.0 - phi)
    chi = rho + phi * math.log2(1.0 - 1.0 / q)
    iter_cost = _max(nu * (1.0 - phi), rho) * n
    success = _min(0.0, chi) * n
    t_sdp = iter_cost - success
    t_doom = t_sdp - 0.5 * math.log2(p)
    return rho, chi, iter_cost, success, t_sdp, t_doom


def pge_ss_exponents(point: AttackPoint, *, n: int, k: int, q: int, p: int) -> CostReport:
    """Cost exponents at a fixed attack point; ConstraintError if it is invalid."""
    _check_point(point, n, k / n, q)
    return _exponents(point, n=n, k=k, q=q, p=p)


def optimize_attack(*, n: int, k: int, q: int, p: int) -> CostReport:
    """Minimize t_doom_log2 over (b, nu, phi): the infimum over the model's region.

    With u = nu(1-phi), the list exponent per n, and L = log2 q,
    D = log2(1-1/q), rho = (b+1)u - (1-phi-R)L and chi = rho + phi*D are
    linear in (u, phi). The objective max(u, rho) + max(0, -chi) is then
    convex and piecewise linear, and every bound of `_check_point` is a
    half-plane. So for each merge depth b the minimum lies where two of
    seven lines cross: phi = 0, phi = 1-R, phi = 1 - 2^b/n, u = 0,
    u = (1-phi)nu_max, and the two kinks u = rho and chi = 0. Each of the
    21 crossings is clamped into the closed region and evaluated.

    All b x 21 crossings are scored at once by `_costs` on arrays, so each
    cost is the one `_exponents` gives at that point. Parallel pairs
    (det = 0) and every b with nu_max <= 0 or phi_max <= 0 are left out;
    ConstraintError if nothing is left. The first least cost in
    (b, crossing) order wins.

    `_check_point` keeps phi > 0, phi < 1-R and 0 < nu < nu_max open, so
    the point returned may lie on one of those edges (often nu = nu_max).
    Its cost is then the infimum, which valid points approach but do not
    reach.
    """
    R = k / n
    L = math.log2(q)
    D = math.log2(1.0 - 1.0 / q)
    b = np.arange(1, math.floor(math.log2(n)) + 1)
    nu_max = np.ldexp(math.log2(q - 1), -b)  # 2^-b log2(q-1), exactly
    phi_edge = 1.0 - np.ldexp(1.0, b) / n
    phi_max = _min(1.0 - R, phi_edge)
    # each line as (a, c, d): a*u + c*phi = d; coef holds a, c and d,
    # each with line j in column j of every b's row
    lines = [(0, 1, 0.0), (0, 1, 1.0 - R), (0, 1, phi_edge), (1, 0, 0.0),
             (1, nu_max, nu_max), (b, L, (1.0 - R) * L), (b + 1, L + D, (1.0 - R) * L)]
    coef = np.empty((3, b.size, len(lines)))
    a, c, d = coef
    for j, line in enumerate(lines):
        a[:, j], c[:, j], d[:, j] = line
    first, second = np.array(list(itertools.combinations(range(len(lines)), 2))).T
    det = a[:, first] * c[:, second] - a[:, second] * c[:, first]
    rows, pairs = np.nonzero((det != 0) & ((nu_max > 0) & (phi_max > 0))[:, None])
    if rows.size == 0:
        raise ConstraintError("no feasible attack point found")
    (a1, c1, d1), (a2, c2, d2) = coef[:, rows, first[pairs]], coef[:, rows, second[pairs]]
    det, b, nu_max, phi_max = det[rows, pairs], b[rows], nu_max[rows], phi_max[rows]
    phi = _min(_max((a1 * d2 - a2 * d1) / det, 0.0), phi_max)
    u = _min(_max((d1 * c2 - d2 * c1) / det, 0.0), (1.0 - phi) * nu_max)
    nu = u / (1.0 - phi)
    costs = _costs(b, nu, phi, n=n, k=k, q=q, p=p)
    best = int(np.argmin(costs[-1]))  # the first least t_doom
    return CostReport(*(float(c[best]) for c in costs),
                      AttackPoint(int(b[best]), float(nu[best]), float(phi[best])))


def _max(x, y):
    """Python's max(x, y), elementwise: y only where y > x, so that signed
    zeros come out as in scalar code."""
    return np.where(y > x, y, x)


def _min(x, y):
    """Python's min(x, y), elementwise: y only where y < x."""
    return np.where(y < x, y, x)


# ---------------------------------------------------------------------------
# rejection-rate model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RejectionReport:
    p_zero_entry: float  # probability one signature entry is 0 mod q
    p_valid: float  # probability a whole attempt is accepted
    expected_attempts: float

    def as_dict(self) -> dict:
        return {
            "p_valid": self.p_valid,
            "expected_attempts": self.expected_attempts,
        }


def _pmf_power(powers: list, t: int, dist: np.ndarray) -> np.ndarray:
    """`dist` convolved with the t-th cyclic-convolution power of powers[0],
    by square-and-multiply. powers[i] is powers[0] summed 2^i times; the
    doublings t needs are appended in place, so callers that share the
    list square each pmf once.

    Each step is the pmf of X + Y mod q for independent X and Y, by a
    direct convolution rather than an FFT, whose rounding error near 1e-15
    of the largest entry would swamp a small p0: every term of a direct
    convolution is a product of nonnegative numbers, so each entry keeps
    its relative accuracy however small."""
    for i in range(t.bit_length()):
        if i == len(powers):
            powers.append(cyclic_convolve(powers[-1], powers[-1]))
        if t >> i & 1:
            dist = cyclic_convolve(dist, powers[i])
    return dist


def rejection_rate_analytic(params: ParameterSet) -> RejectionReport:
    """Closed-form acceptance probability for binary densities.

    Each signature entry is the sum of a syndrome part and a codeword part,
    each a sum of Bernoulli(d1) picks through the dense transform, reduced
    mod q. The syndrome part sums w picks: Bin(w, d1). The codeword part
    draws its weight z ~ Bin(n, rho_c), with rho_c the chance that one of
    the m_g rows of weight w_g covers a position, and sums z picks; by
    binomial thinning it is Bin(n, rho_c d1). An entry is 0 mod q with
    probability p0, and an attempt is accepted with probability (1 - p0)^n.
    Any other density raises ValueError; no caller checks it first.
    """
    if not params.density.is_binary():
        raise ValueError("analytic model requires a binary density; use Monte Carlo")
    n, q, d1 = params.n, params.q, float(params.density.d1)
    rho_c = 1.0 - (1.0 - params.w_g / n) ** params.m_g
    dist = np.eye(1, q)[0]
    for trials, prob in ((params.w, d1), (n, rho_c * d1)):
        step = np.zeros(q)
        step[:2] = 1.0 - prob, prob
        dist = _pmf_power([step], trials, dist)
    p0 = float(dist[0])
    p_valid = (1.0 - p0) ** n
    return RejectionReport(p0, p_valid, math.inf if p_valid == 0.0 else 1.0 / p_valid)


# ---------------------------------------------------------------------------
# Monte Carlo rejection estimation
# ---------------------------------------------------------------------------

def _p_zero(pairs: tuple, pmf: np.ndarray, squares: dict) -> float:
    """P(sum_j v_j X_j = 0 mod q) for X_j i.i.d. with `pmf` over Z_q, where
    `pairs` lists v's multiset of entries as (g, t): each distinct value g
    in increasing order, and how many entries t carry it. Entries of v
    that are 0 add nothing to the sum, so they may be left out.

    The X_j are i.i.d., so the sum depends on v only through those pairs:
    for each, the pmf of g X is raised to the t-th cyclic-convolution power
    by square-and-multiply. `squares` maps g to the pmfs of g X summed 1,
    2, 4, ... times; they depend only on the density and g, so callers
    share one dict across vectors.
    """
    q = pmf.size
    dist = np.eye(1, q)[0]
    for g, t in pairs:
        powers = squares.setdefault(g, [np.bincount(g * np.arange(q) % q,
                                                    weights=pmf, minlength=q)])
        dist = _pmf_power(powers, t, dist)
    return float(dist[0])


def _value_counts(positions: np.ndarray, q: int) -> np.ndarray:
    """Each row's multiset of entries, as a histogram: `positions` holds one
    masked vector per row, as positions that each add 1 to the entry there,
    and entry [i, g] of the result is the number of distinct positions of
    row i whose entry is g mod q. Column 0 counts the positions whose
    entry wrapped to 0. An entry is at most the row length, so the
    histogram is min(q, length + 1) wide.

    Built for all rows at once: each row is sorted, so a position's entry
    is the length of its run of equal values, and the runs of all rows are
    binned in one `np.bincount`."""
    trials, size = positions.shape
    width = min(q, size + 1)
    positions = np.sort(positions, axis=1)
    starts = np.ones(positions.shape, dtype=bool)
    np.not_equal(positions[:, 1:], positions[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    runs = np.diff(first, append=trials * size)
    # each run's bin, row * width + entry, formed in place: numpy reuses
    # an expression's temporaries only for arrays of 256 KiB and more
    runs %= q
    first //= size
    first *= width
    first += runs
    return np.bincount(first, minlength=trials * width).reshape(trials, width)


def _pairs(counts: np.ndarray) -> tuple:
    """A histogram row of `_value_counts` as the (g, t) pairs `_p_zero` takes."""
    g = np.flatnonzero(counts)
    return tuple(zip(g.tolist(), counts[g].tolist()))


def _subsets(rng: np.random.Generator, population: int, rows: int, size: int) -> np.ndarray:
    """(rows, size) int64: each row an independent uniform `size`-subset of
    range(population), in no particular order, by Floyd's algorithm run on
    all rows at once. One `rng.integers` call draws column i of every row
    from range(population - size + i + 1); then, column by column, each
    row whose draw already appears in its earlier columns takes
    population - size + i instead, which none of them can hold. Nothing
    is redrawn.

    A row whose draws are all distinct never meets a repeat, so Floyd's
    algorithm keeps it as drawn. One sort of the draws finds the rows with
    a repeat, and the column loop runs on those rows alone.

    The Monte Carlo alone draws this way. Keygen (`ldgm.sample_generator`)
    and signing (`ldgm.codeword_from_generator`) keep one `rng.choice` per
    row, because their streams fix the recorded keys and signatures."""
    if not 0 <= size <= population:
        raise ValueError(f"need 0 <= size <= population, got size={size}, population={population}")
    out = rng.integers(0, np.arange(population - size + 1, population + 1), size=(rows, size))
    ordered = np.sort(out, axis=1)
    clash = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if clash.any():
        redo = out[clash]
        for i in range(1, size):
            seen = (redo[:, :i] == redo[:, i, None]).any(axis=1)
            redo[seen, i] = population - size + i
        out[clash] = redo
    return out


def _simulate_batch(params: ParameterSet, density: DensityPolynomial,
                    trials: int, seed) -> tuple[float, float]:
    """(sum, sum of squared deviations about the batch mean) of the
    acceptance probabilities of `trials` sampled masked vectors, with one
    shared code sample.

    Per trial the masked vector v = e + c is built as in signing, as the
    positions of a fresh weight-w pattern in the last r positions followed
    by a real codeword's, and each entry of v is the number of times its
    position occurs, mod q. Each signature entry is then an
    independent sum sum_j v_j X_j with X_j i.i.d. from the density, so
    given v an attempt is accepted with probability exactly (1 - p0(v))^n,
    p0 = `_p_zero`.
    Scoring v by that probability instead of by one sampled attempt keeps
    the estimand and lowers the variance. p0(v) depends on v only through
    the multiset of its entries at the positions that occur, as (g, t)
    pairs: each value g mod q and the number t of positions carrying it.

    The batch first makes all its draws, three `_subsets` calls whatever
    `trials` is: the generator's k0 rows of w_g positions, then every
    trial's m_g generator rows, then every trial's w pattern positions.
    They have the distribution of signing's draws but not its order or its
    stream. It then builds every trial's positions
    (`codeword_positions`) and multiset (`_value_counts`) with whole-batch
    array operations. A batch meets few distinct multisets (4 to 8 per
    1000 trials), so `scores`, keyed by the multiset's histogram row,
    computes each one's (1 - p0)^n once, in the order they are first met,
    and looks it up after that; it lives for this batch only. The moments
    are accumulated by Welford's update in trial order.
    """
    rng = np.random.default_rng(seed)
    q, n, k, r, w, m_g = params.q, params.n, params.k, params.r, params.w, params.m_g
    pmf = np.zeros(density.q)
    pmf[list(density.coeffs)] = [float(pr) for pr in density.coeffs.values()]
    pmf /= pmf.sum()
    G = np.sort(_subsets(rng, n, params.k0, params.w_g), axis=1)
    rows = _subsets(rng, k, trials, m_g)
    pattern = _subsets(rng, r, trials, w)
    counts = _value_counts(
        np.concatenate([k + pattern, codeword_positions(G, rows, params.p)], axis=1), q)
    squares: dict = {}
    scores: dict = {}
    mean = m2 = 0.0
    for i, row in enumerate(counts, 1):
        key = row.tobytes()
        accept = scores.get(key)
        if accept is None:
            p0 = _p_zero(_pairs(row), pmf, squares)
            accept = scores[key] = math.exp(n * math.log1p(-p0)) if p0 < 1.0 else 0.0
        delta = accept - mean
        mean += delta / i
        m2 += delta * (accept - mean)
    return mean * trials, m2


# trials per Monte Carlo batch; each batch draws its own generator and
# holds its trials' positions at once
_BATCH_TRIALS = 1000
# int64 arrays of one batch's masked-vector positions that a batch holds at
# once while it draws and builds them and their multisets, beyond the
# generator and the histogram (3.73 to 3.94 measured with tracemalloc at
# desk and spanse-128, 1000 and 5000 trials; the peak is in building the
# codeword positions)
_POSITION_COPIES = 5


def rejection_rate_montecarlo(
    params: ParameterSet,
    trials: int,
    seed: int | None = None,
) -> tuple[float, float]:
    """Estimated acceptance probability at params.density and its standard error.

    The estimate is the mean over `trials` sampled masked vectors v of the
    exact P(accept | v) (`_simulate_batch`); the standard error is the
    sample standard deviation (ddof = 1) of those values over sqrt(trials),
    or 1.0 for a single trial. Each batch of _BATCH_TRIALS trials (the last
    may be smaller) draws its own generator, which its trials share (it
    enters only through the codeword weight distribution). The batches run
    in order in this process. Each takes the next seed spawned from the
    base seed as it starts, and its moments are combined into the running
    ones as it returns, by the pairwise update of Chan et al.

    Before any draw, the run's peak must fit (params.check_working_set):
    the generator (k0 w_g int64 positions) and what the largest batch
    builds at once, _POSITION_COPIES copies of its trials x (w + m_g w_g)
    int64 positions and its trials x min(q, w + m_g w_g + 1) int64
    histogram of multisets. The score memo is not counted: one entry per
    distinct multiset of the running batch, at most its trials and 4 to 8
    measured per 1000 trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    length = params.w + params.m_g * params.w_g
    batch = min(_BATCH_TRIALS, trials)
    check_working_set(params, "monte-carlo", 8 * params.k0 * params.w_g
                      + 8 * batch * (_POSITION_COPIES * length + min(params.q, length + 1)))
    base = np.random.SeedSequence(seed)
    done, mean, m2 = 0, 0.0, 0.0
    while done < trials:
        size = min(_BATCH_TRIALS, trials - done)
        total, batch_m2 = _simulate_batch(params, params.density, size, base.spawn(1)[0])
        delta = total / size - mean
        mean += delta * size / (done + size)
        m2 += batch_m2 + delta * delta * done * size / (done + size)
        done += size
    stderr = math.sqrt(m2 / (trials - 1) / trials) if trials > 1 else 1.0
    return mean, stderr


# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeReport:
    pk_symbols: float
    pk_packed_bytes: float  # ceil(log2 q) bits per symbol
    pk_disk_bytes: float  # one byte per symbol plus header
    sig_bytes: float
    log2_Ns: float  # number of distinct syndromes C(r, w)
    log2_Nc: float  # number of masking codewords C(k, m_g)

    def as_dict(self) -> dict:
        return {
            "pk_packed_bytes": self.pk_packed_bytes,
            "log2_Ns": self.log2_Ns,
            "log2_Nc": self.log2_Nc,
        }


def size_counts(*, n: float, r: float, p: float, q: int, w: int, m_g: int,
                header_bytes: int = 0) -> SizeReport:
    """Size arithmetic on raw dimensions (kept separate from ParameterSet so
    non-block-divisible reference dimensions can be evaluated as pure
    numbers)."""
    symbols = r * n / p
    bits = math.ceil(math.log2(q))
    return SizeReport(
        pk_symbols=symbols,
        pk_packed_bytes=symbols * bits / 8.0,
        pk_disk_bytes=symbols + header_bytes,
        sig_bytes=n + 2 + THETA_BYTES + header_bytes,  # u16 theta length, theta, sigma
        log2_Ns=log2_binomial(int(r), w),
        log2_Nc=log2_binomial(int(n - r), m_g),
    )


def size_report(params: ParameterSet) -> SizeReport:
    header = len(serialize_params(params))
    return size_counts(n=params.n, r=params.r, p=params.p, q=params.q,
                       w=params.w, m_g=params.m_g, header_bytes=header)
