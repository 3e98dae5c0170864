import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootbounds.arith import (
    MAX_DIGITS,
    ExtendedValuation,
    INFINITE_VALUATION,
    Interval,
    euler_ratio,
    eval_up,
    format_rational,
    format_valuation,
    get_precision,
    is_prime,
    log_base,
    natural_log,
    ord_p,
    parse_rational,
    parse_valuation,
    set_precision,
)

SEED = 0xA217


def rand_fraction(rng, bound=10**6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def test_rational_roundtrip_bulk():
    rng = random.Random(SEED)
    for _ in range(10_000):
        a = rand_fraction(rng)
        b = rand_fraction(rng)
        assert (a + b) - b == a
        assert a.denominator > 0


@given(st.fractions(), st.fractions())
def test_rational_roundtrip_hypothesis(a, b):
    assert (a + b) - b == a


def test_ord_examples():
    assert ord_p(8, 2).value == 3
    assert ord_p(Fraction(3, 4), 2).value == -2
    assert ord_p(0, 5).is_infinite


def test_ord_rejects_nonprime():
    with pytest.raises(ValueError):
        ord_p(4, 6)
    with pytest.raises(ValueError):
        ord_p(4, 1)


def test_ord_multiplicative_and_ultrametric_bulk():
    rng = random.Random(SEED + 1)
    for _ in range(10_000):
        p = rng.choice([2, 3, 5, 7])
        x = rand_fraction(rng, 10**4)
        y = rand_fraction(rng, 10**4)
        if x == 0 or y == 0:
            continue
        vx, vy = ord_p(x, p).value, ord_p(y, p).value
        assert ord_p(x * y, p).value == vx + vy
        s = x + y
        vs = ord_p(s, p)
        if vs.is_infinite:
            assert s == 0
        else:
            assert vs.value >= min(vx, vy)


def test_infinity_absorbs():
    fin = ExtendedValuation.finite(Fraction(3, 2))
    assert (INFINITE_VALUATION + fin).is_infinite
    assert INFINITE_VALUATION.min(fin) == fin
    assert fin.min(INFINITE_VALUATION) == fin
    assert fin + fin == ExtendedValuation.finite(3)


def test_valuation_serialization():
    assert format_valuation(INFINITE_VALUATION) == "inf"
    assert parse_valuation("inf").is_infinite
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5, 1)) == "5"
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_valuation("3/4").value == Fraction(3, 4)


def test_primality():
    primes = [2, 3, 5, 7, 11, 101, 7919]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in [0, 1, 4, 9, 1001, 7917])


# ---------------------------------------------------------------------------
# Upper evaluation
# ---------------------------------------------------------------------------


def test_precision_cap():
    saved = get_precision()
    try:
        assert MAX_DIGITS == 1000
        set_precision(MAX_DIGITS)
        assert get_precision() == 1000
        with pytest.raises(ValueError):
            set_precision(MAX_DIGITS + 1)
        assert get_precision() == 1000
    finally:
        set_precision(saved)


def test_integer_log_is_exact():
    iv = log_base(2, 2)
    assert iv.lo == iv.hi == Decimal(1)
    assert eval_up(log_base(Fraction(1, 8), 2)).value == Decimal(-3)
    assert eval_up(log_base(Fraction(9), 3)).value == Decimal(2)


def test_euler_ratio_window():
    c = eval_up(euler_ratio()).value
    assert Decimal("1.58197") <= c <= Decimal("1.58198")


def test_log2_of_4_over_ln2():
    iv = log_base(Interval.from_fraction(4) / natural_log(Fraction(2)), 2)
    val = eval_up(iv).value
    assert abs(val - Decimal("2.52872")) <= Decimal("1e-4")


def test_ln_reference_digits():
    # 20-digit references
    refs = {
        2: Decimal("0.69314718055994530942"),
        3: Decimal("1.0986122886681096914"),
        5: Decimal("1.6094379124341003746"),
    }
    for k, ref in refs.items():
        iv = natural_log(Fraction(k))
        assert abs(iv.lo - ref) < Decimal("1e-19")
        assert abs(iv.hi - ref) < Decimal("1e-19")
        assert iv.hi - iv.lo < Decimal("1e-30")


def test_upper_really_upper():
    # interval endpoints must bracket an independently computed value
    import math

    iv = (euler_ratio() * 7 + Fraction(1, 3)) / natural_log(Fraction(5))
    approx = (math.e / (math.e - 1) * 7 + 1 / 3) / math.log(5)
    assert float(iv.lo) - 1e-9 <= approx <= float(iv.hi) + 1e-9
    assert float(iv.hi - iv.lo) < 1e-30


def test_eval_up_monotone_in_positive_subterms():
    # raising any positive subterm never lowers the upper evaluation
    base = (euler_ratio() * 3 + Fraction(5, 2)) / natural_log(Fraction(2))
    bigger = (euler_ratio() * 3 + Fraction(7, 2)) / natural_log(Fraction(2))
    assert eval_up(bigger).value >= eval_up(base).value
    assert eval_up(log_base(Fraction(9, 2), 2)).value >= eval_up(
        log_base(Fraction(7, 2), 2)
    ).value


def test_interval_power_and_division():
    iv = Interval.from_fraction(Fraction(3, 2)) ** 4
    assert iv.lo <= Decimal("5.0625") <= iv.hi
    with pytest.raises(ZeroDivisionError):
        Interval.from_fraction(1) / Interval(Decimal(-1), Decimal(1))
    with pytest.raises(ValueError):
        natural_log(Fraction(-1))


@settings(max_examples=200)
@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
)
def test_interval_product_encloses(a, b):
    iv = Interval.from_fraction(a) * Interval.from_fraction(b)
    exact = a * b
    assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)


def test_floor_int():
    assert eval_up(Interval.from_fraction(Fraction(7, 2))).floor_int() == 3
    assert eval_up(Interval.exact(4)).floor_int() == 4
