"""Parameter sets: code geometry, signing weights and the mixing density.

The mixing density d(x) = d_0 + d_1 x + ... describes how entries of the
dense private transformation are distributed: coefficient d_i is the
probability that an entry equals i (coefficients for values not listed are
spread uniformly over the remaining field elements, see
DensityPolynomial.value_probabilities). Coefficients are exact Fractions so
serialization round-trips without float drift.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field
from fractions import Fraction


class ParameterError(ValueError):
    """A parameter set violates a structural invariant."""


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (moduli are tiny)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# published densities are often rounded to a few decimals; admit a small
# deficit/excess and renormalize exactly rather than rejecting them
_SUM_TOLERANCE = Fraction(1, 1000)


@dataclass(frozen=True)
class DensityPolynomial:
    """Distribution over F_q element values for dense-matrix sampling.

    coeffs maps value -> probability (Fraction); values not listed have
    probability 0. Must contain entries for 0 and 1. Probabilities are
    renormalized to sum to exactly 1 (inputs within _SUM_TOLERANCE of 1
    are accepted, anything further off is an error).
    """

    coeffs: dict[int, Fraction]
    q: int

    def __post_init__(self):
        c = {int(k): Fraction(v) for k, v in self.coeffs.items()}
        if 0 not in c or 1 not in c:
            raise ParameterError("density must specify probabilities for 0 and 1")
        for k, v in c.items():
            if not (0 <= k < self.q):
                raise ParameterError(f"density value {k} outside field")
            if v < 0 or v > 1:
                raise ParameterError(f"probability for value {k} out of [0, 1]")
        total = sum(c.values())
        if abs(total - 1) > _SUM_TOLERANCE:
            raise ParameterError(f"density probabilities sum to {float(total):.6f}, not 1")
        if total != 1:
            c = {k: v / total for k, v in c.items()}
        object.__setattr__(self, "coeffs", c)

    @property
    def d0(self) -> Fraction:
        return self.coeffs[0]

    @property
    def d1(self) -> Fraction:
        return self.coeffs[1]

    def is_binary(self) -> bool:
        return all(v == 0 for k, v in self.coeffs.items() if k > 1)

    def value_probabilities(self) -> list[tuple[int, Fraction]]:
        """Full list of (value, probability) pairs, summing to exactly 1."""
        return [(v, self.coeffs.get(v, Fraction(0))) for v in range(self.q)]

    @classmethod
    def parse(cls, text: str, q: int) -> "DensityPolynomial":
        """Parse "d0,d1[,value:prob,...]" with Fraction-friendly entries.

        The first two fields are the probabilities of 0 and 1; further
        fields name the value explicitly, e.g. "0.5783,0.4167,2:0.0042".
        """
        parts = [t.strip() for t in text.split(",") if t.strip()]
        if len(parts) < 2:
            raise ParameterError("density needs at least d0 and d1")
        coeffs: dict[int, Fraction] = {}
        for i, part in enumerate(parts):
            if ":" in part:
                val_s, prob_s = part.split(":", 1)
                val = int(val_s)
            elif i < 2:
                val, prob_s = i, part
            else:
                raise ParameterError(
                    f"entry {part!r} after the first two must use value:prob form"
                )
            if val in coeffs:
                raise ParameterError(f"duplicate density entry for value {val}")
            coeffs[val] = Fraction(prob_s)
        return cls(coeffs, q)

    def format(self) -> str:
        items = sorted(self.coeffs.items())
        head = [str(self.coeffs[0]), str(self.coeffs[1])]
        tail = [f"{v}:{p}" for v, p in items if v not in (0, 1)]
        return ",".join(head + tail)


@dataclass(frozen=True)
class ParameterSet:
    """All integers defining one instance of the scheme.

    n = n0 * p, k = k0 * p, r = n - k. w is the syndrome weight, w_g the
    row weight of the sparse generator, m_g the weight of the random
    information word used for codeword masking.
    """

    name: str = field(compare=False)
    q: int
    p: int
    n0: int
    k0: int
    w: int
    w_g: int
    m_g: int
    density: DensityPolynomial

    def __post_init__(self):
        if not is_prime(self.q) or self.q < 3:
            raise ParameterError(f"q={self.q} must be an odd prime")
        if not is_prime(self.p):
            raise ParameterError(f"p={self.p} must be prime")
        if not (0 < self.k0 < self.n0):
            raise ParameterError("need 0 < k0 < n0")
        if not (0 < self.w <= self.r):
            raise ParameterError("need 0 < w <= r")
        if not (0 < self.w_g <= self.n):
            raise ParameterError("need 0 < w_g <= n")
        if not (0 < self.m_g <= self.k):
            raise ParameterError("need 0 < m_g <= k")
        if self.m_g >= self.q or self.w >= self.q:
            raise ParameterError("m_g and w must be below q")
        if self.density.q != self.q:
            raise ParameterError("density field size disagrees with q")

    @property
    def n(self) -> int:
        return self.n0 * self.p

    @property
    def k(self) -> int:
        return self.k0 * self.p

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def r0(self) -> int:
        return self.n0 - self.k0

    def describe(self) -> str:
        return (
            f"{self.name}: q={self.q} p={self.p} n={self.n} k={self.k} r={self.r} "
            f"w={self.w} w_g={self.w_g} m_g={self.m_g} density=[{self.density.format()}]"
        )


# n0^2 p int64 words keygen holds at its peak: S (1) and the solve's
# buffer [T S^T | [0; P]] (1.5 at r0 = n0 / 2), with the r0-wide result
# gathered from it or with the spectra of a panel's products, which grow
# as n0, not n0^2 (measured with tracemalloc: 3.02 at spanse-128, where
# the result sets the peak, and 3.56 to 3.71 at spanse-128's ring with
# n0 = 84, where the spectra do; the first keygen in a process is the
# highest)
_KEYGEN_WORDS = 3.75
# bytes a Monte Carlo run holds per batch before its first trial: the
# batch's size, its spawned SeedSequence and later its count (424 measured
# with tracemalloc)
_BATCH_BYTES = 512
# int64 arrays of one batch's masked-vector positions that a batch holds at
# once while it builds them and their multisets (4.5 measured with
# tracemalloc at desk and spanse-128, 1000 and 5000 trials)
_POSITION_COPIES = 5


def check_working_set(params: ParameterSet, command: str, batches: int = 0,
                      batch_size: int = 0):
    """Raise ParameterError unless `command` ("keygen" or "monte-carlo") fits
    in physical memory and under RLIMIT_AS: keygen's S, its solve's
    buffer [T S^T | [0; P]] and result, and the spectra of the solve's
    panel products (_KEYGEN_WORDS n0^2 p int64 words), or the
    Monte Carlo's generator (k0 w_g int64 positions), the
    bookkeeping of its `batches` batches and the arrays its largest batch,
    of `batch_size` trials, builds at once:
    copies of its batch_size x (w + m_g w_g) int64 positions and its
    batch_size x min(q, w + m_g w_g + 1) int64 histogram of multisets.
    The Monte Carlo's score memo is not counted: it holds one entry, keyed
    by a histogram row, per distinct masked-vector multiset of the running
    batch, at most `batch_size` and 4 to 8 measured per 1000 trials."""
    length = params.w + params.m_g * params.w_g
    need = (8 * _KEYGEN_WORDS * params.n0**2 * params.p if command == "keygen"
            else 8 * params.k0 * params.w_g + _BATCH_BYTES * batches
            + 8 * batch_size * (_POSITION_COPIES * length + min(params.q, length + 1)))
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    if need > limit:
        raise ParameterError(f"{command} at n0={params.n0}, k0={params.k0}, p={params.p} "
                             f"needs {need / 2**30:.1f} GiB, over the {limit / 2**30:.1f} GiB "
                             "this process may use")


def _make_registry() -> dict[str, ParameterSet]:
    desk = ParameterSet(
        name="desk",
        q=127,
        p=13,
        n0=20,
        k0=10,
        w=6,
        w_g=5,
        m_g=4,
        density=DensityPolynomial.parse("1/2,1/2", 127),
    )
    spanse128 = ParameterSet(
        name="spanse-128",
        q=127,
        p=101,
        n0=238,
        k0=119,
        w=26,
        w_g=11,
        m_g=12,
        density=DensityPolynomial.parse("0.5783,0.4167,2:0.0042,13:0.00083", 127),
    )
    return {ps.name: ps for ps in (desk, spanse128)}


REGISTRY: dict[str, ParameterSet] = _make_registry()


def get_params(name: str) -> ParameterSet:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown parameter set {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None
