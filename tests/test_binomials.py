import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootbounds.arith import ord_p_value
from rootbounds.binomials import (
    MAX_PRINT_DIGITS,
    MAX_SUPPORT,
    MAX_SUPPORT_ELEMENT,
    MAX_T,
    expansion_coeffs,
    gen_binomial,
    lcm_profile,
)

SEED = 0x1C3


def lcm_profile_bruteforce(m: int, t: int) -> int:
    """Reference for ``lcm_profile``: the lcm over all products of at most
    m distinct factors from 1..t."""
    if m == 0 or t == 0:
        return 1
    out = 1
    for size in range(1, min(m, t) + 1):
        for combo in itertools.combinations(range(1, t + 1), size):
            out = math.lcm(out, math.prod(combo))
    return out


def test_lcm_profile_examples():
    assert lcm_profile(0, 7) == 1
    assert lcm_profile(5, 0) == 1
    assert lcm_profile(3, 3) == 6
    assert lcm_profile(1, 6) == 60


def test_lcm_profile_matches_bruteforce():
    for t in range(0, 13):
        for m in range(0, 5):
            assert lcm_profile(m, t) == lcm_profile_bruteforce(m, t)


def test_lcm_profile_valuation_counts_match_bruteforce():
    # the per-prime counts t // p^j - t // p^(j+1) against the lcm over all
    # distinct-factor products, past the higher prime powers 16, 27 and 25
    for t in range(13, 29):
        for m in range(0, 4):
            assert lcm_profile(m, t) == lcm_profile_bruteforce(m, t)
    for t in range(0, 9):
        for m in range(5, t + 2):
            assert lcm_profile(m, t) == lcm_profile_bruteforce(m, t)


def test_lcm_profile_refuses_an_unprintable_value_before_building_it():
    # lcm(1, ..., MAX_T) has 4297 digits; two factors per prime already
    # pass the limit, and m = t = MAX_T (MAX_T!, about 35k digits) was
    # built before the interpreter refused to print it
    assert len(str(lcm_profile(1, MAX_T))) == 4297
    for m in (2, 100, MAX_T):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            lcm_profile(m, MAX_T)
        assert time.perf_counter() - t0 < 1.0
    assert MAX_PRINT_DIGITS == 4300


def test_lcm_profile_digit_cap_is_exact_at_the_limit(monkeypatch):
    from rootbounds import binomials

    # lcm_profile(1, 6) = 60: two digits pass a two-digit cap, not a one-digit cap
    monkeypatch.setattr(binomials, "MAX_PRINT_DIGITS", 2)
    assert lcm_profile(1, 6) == 60
    monkeypatch.setattr(binomials, "MAX_PRINT_DIGITS", 1)
    with pytest.raises(ValueError, match="cap"):
        lcm_profile(1, 6)


def test_lcm_profile_divides_factorial():
    for t in range(1, 13):
        for m in range(0, t + 3):
            assert math.factorial(t) % lcm_profile(m, t) == 0


def test_lcm_profile_full_range_is_factorial():
    for t in range(0, 11):
        for m in range(t, t + 3):
            assert lcm_profile(m, t) == math.factorial(t)


def test_factorials_divide_lcm_profile():
    for t in range(1, 13):
        for m in range(0, t):
            for i in range(0, m + 1):
                assert lcm_profile(m, t) % math.factorial(i) == 0


def _floor_log(t: int, p: int) -> int:
    k = 0
    while p ** (k + 1) <= t:
        k += 1
    return k


def test_lcm_profile_valuation_cap():
    for p in (2, 3, 5, 7):
        for t in range(1, 13):
            for m in range(0, 5):
                v = ord_p_value(lcm_profile(m, t), p)
                assert v <= m * _floor_log(t, p)


def test_gen_binomial_examples():
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-1, 2) == 1
    for a in (-7, -1, 0, 3, 12):
        assert gen_binomial(a, 0) == 1


def test_gen_binomial_matches_product_formula():
    # the falling-factorial product that the closed form replaced
    rng = random.Random(SEED + 1)
    for _ in range(300):
        a, t = rng.randint(-60, 60), rng.randint(0, 40)
        product = Fraction(1)
        for i in range(t):
            product *= Fraction(a - i, t - i)
        assert gen_binomial(a, t) == product
        assert type(gen_binomial(a, t)) is Fraction


def test_gen_binomial_integrality():
    for a in range(-15, 16):
        for t in range(0, 9):
            assert gen_binomial(a, t).denominator == 1


@given(st.integers(-30, 30), st.integers(0, 8))
def test_gen_binomial_matches_pascal(a, t):
    if t == 0:
        assert gen_binomial(a, t) == 1
    else:
        assert gen_binomial(a, t) == gen_binomial(a - 1, t - 1) + gen_binomial(a - 1, t)


def test_expansion_kronecker_case():
    e = expansion_coeffs((0, 1, 2), 1)
    assert e.coefficients == (Fraction(0), Fraction(1), Fraction(0))


def test_expansion_reconstruction_example():
    e = expansion_coeffs((0, 1, 3), 3)
    for a in (0, 1, 3):
        assert gen_binomial(a, 3) == sum(
            c * gen_binomial(a, j) for j, c in enumerate(e.coefficients)
        )


def test_expansion_denominator_divisibility_example():
    e = expansion_coeffs((0, 1, 3), 3)
    d2 = lcm_profile(2, 3)
    for j, c in enumerate(e.coefficients):
        cap = d2 // math.factorial(j)
        assert cap % c.denominator == 0


def test_expansion_random_reconstruction_and_denominators():
    rng = random.Random(SEED)
    for _ in range(200):
        m = rng.randint(1, 6)
        support = set()
        while len(support) < m:
            support.add(rng.randint(-20, 20))
        t = rng.randint(0, 10)
        e = expansion_coeffs(tuple(support), t)
        for a in e.support:
            assert gen_binomial(a, t) == sum(
                c * gen_binomial(a, j) for j, c in enumerate(e.coefficients)
            )
        if t >= m:
            cap = lcm_profile(m - 1, t)
            for j, c in enumerate(e.coefficients):
                assert (cap // math.factorial(j)) % c.denominator == 0
        else:
            assert e.coefficients == tuple(
                Fraction(1 if j == t else 0) for j in range(m)
            )


def test_expansion_validation():
    with pytest.raises(ValueError):
        expansion_coeffs((), 2)
    with pytest.raises(ValueError):
        expansion_coeffs((1, 1, 2), 2)
    with pytest.raises(ValueError):
        expansion_coeffs((0, 1), -1)


def test_caps_refuse_before_work():
    # lcm_profile(1, t) = lcm(1, ..., t), and an int of more than 4300
    # decimal digits cannot be printed
    assert math.lcm(*range(1, MAX_T + 1)) < 10**4300 <= math.lcm(*range(1, MAX_T + 2))
    # t = 10^9 or a support of 10^5 elements would run for hours
    for call in [
        lambda: lcm_profile(1, MAX_T + 1),
        lambda: lcm_profile(0, 10**9),
        lambda: expansion_coeffs((1, 2), 10**9),
        lambda: expansion_coeffs(range(10**5), MAX_T),
        lambda: expansion_coeffs((0, MAX_SUPPORT_ELEMENT + 1), 3),
        lambda: expansion_coeffs((-MAX_SUPPORT_ELEMENT - 1, 0), 3),
    ]:
        with pytest.raises(ValueError, match="cap"):
            call()
    e = expansion_coeffs((-MAX_SUPPORT_ELEMENT, MAX_SUPPORT_ELEMENT), MAX_T)
    assert len(e.coefficients) == 2
    assert len(expansion_coeffs(range(MAX_SUPPORT), MAX_SUPPORT).coefficients) == MAX_SUPPORT
