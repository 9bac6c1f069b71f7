"""Parameter sets: code geometry, signing weights and the mixing density.

The mixing density d(x) = d_0 + d_1 x + ... describes how entries of the
dense private transformation are distributed: coefficient d_i is the
probability that an entry equals i, and values not listed have probability
0. Coefficients are exact Fractions so serialization round-trips without
float drift.
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
            try:
                coeffs[val] = Fraction(prob_s)
            except ZeroDivisionError:
                raise ParameterError(f"density entry {part!r} has a zero denominator") from None
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
        # the byte format's limits are decided here: a symbol is one byte,
        # p, n0 and w_g are u16 header fields (k0 < n0, and w, m_g < q), and
        # the density's fractions are u32 pairs
        if not (3 <= self.q <= 256 and is_prime(self.q)):
            raise ParameterError(f"q={self.q} must be an odd prime, q <= 256 for one-byte symbols")
        if max(self.p, self.n0, self.w_g) >= 2**16:
            raise ParameterError(f"p={self.p}, n0={self.n0} and w_g={self.w_g} must fit in u16")
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
        # a probability's numerator is at most its denominator
        if max(v.denominator for v in self.density.coeffs.values()) >= 2**32:
            raise ParameterError("density fractions must have denominators below 2^32 "
                                 "to fit the u32 header fields")

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


def check_working_set(params: ParameterSet, command: str, need: float):
    """Raise ParameterError unless `need` bytes, what `command` holds at its
    peak by its caller's count, fit in physical memory and under RLIMIT_AS.
    scheme.keygen and analysis.rejection_rate_montecarlo each count their
    own allocations; this is only the limit."""
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
