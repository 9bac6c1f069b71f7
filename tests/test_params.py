import warnings
from fractions import Fraction

import pytest

from spanse.params import (
    REGISTRY,
    DensityPolynomial,
    ParameterError,
    ParameterSet,
    get_params,
    is_prime,
)

Q = 127


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 101, 127, 251}
    for m in range(2, 260):
        assert is_prime(m) == (m in primes or m in
                               {17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                                71, 73, 79, 83, 89, 97, 103, 107, 109, 113, 131,
                                137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
                                191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 257})


def test_parse_simple_binary():
    d = DensityPolynomial.parse("1/2,1/2", Q)
    assert d.d0 == d.d1 == Fraction(1, 2)
    assert d.is_binary()
    assert sum(d.coeffs.values()) == 1


def test_parse_extended_entries_renormalize():
    d = DensityPolynomial.parse("0.5783,0.4167,2:0.0042,13:0.00083", Q)
    assert not d.is_binary()
    assert sum(d.coeffs.values()) == 1  # exact after renormalization
    assert d.coeffs[13] > 0


def test_parse_rejects_bad_densities():
    for bad in ("1/2", "0.9,0.2", "0.1,0.1", "1/2,1/2,2:0.3", "1/2,1/4,0:1/4"):
        with pytest.raises(ParameterError):
            DensityPolynomial.parse(bad, Q)
    with pytest.raises(ParameterError):
        DensityPolynomial({0: Fraction(1, 2), 1: Fraction(1, 2), 200: Fraction(0)}, Q)


def test_format_round_trip():
    d = DensityPolynomial.parse("1/2,1/4,3:1/4", Q)
    assert DensityPolynomial.parse(d.format(), Q) == d


def test_registry_contents():
    assert set(REGISTRY) == {"desk", "spanse-128"}
    desk = get_params("desk")
    assert (desk.q, desk.p, desk.n0, desk.k0) == (127, 13, 20, 10)
    assert (desk.w, desk.w_g, desk.m_g) == (6, 5, 4)
    assert (desk.n, desk.k, desk.r) == (260, 130, 130)
    big = get_params("spanse-128")
    assert (big.q, big.p, big.n0, big.k0) == (127, 101, 238, 119)
    assert (big.w, big.w_g, big.m_g) == (26, 11, 12)
    assert big.n == 238 * 101 and big.r == big.k == 119 * 101
    with pytest.raises(ParameterError):
        get_params("nope")


def test_parameter_set_invariants():
    d = DensityPolynomial.parse("1/2,1/2", Q)
    with pytest.raises(ParameterError):
        ParameterSet("x", 128, 13, 20, 10, 6, 5, 4, d)  # q not prime
    with pytest.raises(ParameterError):
        ParameterSet("x", 127, 12, 20, 10, 6, 5, 4, d)  # p not prime
    with pytest.raises(ParameterError):
        ParameterSet("x", 127, 13, 10, 10, 6, 5, 4, d)  # k0 = n0
    with pytest.raises(ParameterError):
        ParameterSet("x", 127, 13, 20, 10, 131, 5, 4, d)  # w >= min(r, q)
    with pytest.raises(ParameterError):
        ParameterSet("x", 127, 13, 20, 10, 6, 5, 127, d)  # m_g >= q


def test_large_codeword_weight_builds_without_warning():
    # spanse-128's shape has m_g w_g >= q, so codeword entries can wrap
    # around the field; that is allowed and says nothing worth a warning
    d = DensityPolynomial.parse("1/2,1/2", Q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = ParameterSet("x", 127, 101, 238, 119, 26, 11, 12, d)
    assert ps.m_g * ps.w_g >= ps.q


def test_describe_mentions_all_numbers():
    text = get_params("desk").describe()
    for token in ("q=127", "p=13", "w=6", "w_g=5", "m_g=4"):
        assert token in text
