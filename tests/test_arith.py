import contextvars
import copy
import operator
import pickle
import random
import threading
import time
from decimal import Context, Decimal
from fractions import Fraction

import interval_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootbounds import arith
from rootbounds.arith import (
    _GUARD_DIGITS,
    _LN_MAX_EXPONENT,
    MAX_DIGITS,
    Interval,
    euler_ratio,
    format_rational,
    get_precision,
    is_prime,
    ln_prime,
    log_base,
    natural_log,
    ord_p_value,
    set_precision,
    _int_ord,
    _ln_half_even,
    _round_half_even,
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
    assert ord_p_value(8, 2) == 3
    assert ord_p_value(Fraction(3, 4), 2) == -2
    assert type(ord_p_value(5, 5)) is Fraction
    with pytest.raises(ValueError):
        ord_p_value(0, 5)


def test_ord_rejects_nonprime():
    with pytest.raises(ValueError):
        ord_p_value(4, 6)
    with pytest.raises(ValueError):
        ord_p_value(4, 1)


def test_ord_multiplicative_and_ultrametric_bulk():
    rng = random.Random(SEED + 1)
    for _ in range(10_000):
        p = rng.choice([2, 3, 5, 7])
        x = rand_fraction(rng, 10**4)
        y = rand_fraction(rng, 10**4)
        if x == 0 or y == 0:
            continue
        vx, vy = ord_p_value(x, p), ord_p_value(y, p)
        assert ord_p_value(x * y, p) == vx + vy
        s = x + y
        if s != 0:
            assert ord_p_value(s, p) >= min(vx, vy)


def test_ord_of_a_high_power_counts_every_factor_quickly():
    # the valuation strips p, p^2, p^4, ... in turn: a valuation of 10^5
    # takes a few dozen long divisions, where one division per factor of p
    # took 12 s
    rng = random.Random(SEED + 4)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7, 11])
        v = rng.randint(0, 300)
        u = rng.randint(1, 10**9)
        while u % p == 0:
            u //= p
        assert _int_ord(rng.choice((1, -1)) * u * p**v, p) == v
    t0 = time.perf_counter()
    assert ord_p_value(Fraction(7 * 10**100000, 3), 2) == 100000
    assert ord_p_value(Fraction(3, 7 * 10**100000), 5) == -100000
    assert time.perf_counter() - t0 < 2.0


def test_valuation_serialization():
    assert format_rational(ord_p_value(Fraction(1, 8), 2)) == "-3"
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


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


def test_precision_set_in_another_context_or_thread_stays_there():
    # the working digits are a ContextVar: a set_precision in a copied
    # context or in a thread leaves the caller's digits, and the intervals
    # memoised at them, as they are
    caller = get_precision()
    before = ln_prime(3), euler_ratio()

    def at_80():
        set_precision(80)
        return get_precision(), ln_prime(3)

    digits, wide = contextvars.copy_context().run(at_80)
    assert digits == 80 and wide != before[0]
    assert get_precision() == caller
    assert (ln_prime(3), euler_ratio()) == before
    assert before[0] == ln_prime.__wrapped__(3)
    results = []
    thread = threading.Thread(target=lambda: results.append(at_80()))
    thread.start()
    thread.join()
    assert results == [(80, wide)]
    assert get_precision() == caller
    assert ln_prime(3) is before[0] and euler_ratio() is before[1]


def test_integer_log_is_exact():
    iv = log_base(2, 2)
    assert iv.lo == iv.hi == Decimal(1)
    assert log_base(Fraction(1, 8), 2).upper().value == Decimal(-3)
    assert log_base(Fraction(9), 3).upper().value == Decimal(2)


def test_log_of_a_long_prime_power_is_exact_within_seconds():
    # found by one division per factor of p, this took about 30 s
    start = time.perf_counter()
    iv = log_base(Fraction(3**300000, 3), 3)
    assert time.perf_counter() - start < 2
    assert iv.lo == iv.hi == Decimal(299999)
    iv = log_base(Fraction(2 * 3**5, 3), 3)  # no power of 3: enclosed, not exact
    assert Decimal(4) < iv.lo < iv.hi < Decimal(5)


def test_euler_ratio_window():
    c = euler_ratio().upper().value
    assert Decimal("1.58197") <= c <= Decimal("1.58198")


def test_log2_of_4_over_ln2():
    iv = log_base(Interval.from_fraction(4) / natural_log(Fraction(2)), 2)
    val = iv.upper().value
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
    assert bigger.upper().value >= base.upper().value
    assert log_base(Fraction(9, 2), 2).upper().value >= log_base(Fraction(7, 2), 2).upper().value


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
    assert Interval.from_fraction(Fraction(7, 2)).upper().floor_int() == 3
    assert Interval.exact(4).upper().floor_int() == 4


# ---------------------------------------------------------------------------
# Per-precision constants and the one-call point log, against references
# built with fresh contexts and two Decimal.ln calls
# ---------------------------------------------------------------------------

REF_DIGITS = (30, 40, 80, 300)
REF_PRIMES = (2, 3, 5, 7, 101, 2**61 - 1)


def _ref_euler_ratio(digits):
    cf, cc = ref.contexts(digits)
    e = Decimal(1).exp(cf)
    e_lo = cf.subtract(e, ref.ulp(e, cf.prec))
    e_hi = cc.add(e, ref.ulp(e, cc.prec))
    d_lo, d_hi = cf.add(e_lo, Decimal(-1)), cc.add(e_hi, Decimal(-1))
    pairs = [(a, b) for a in (e_lo, e_hi) for b in (d_lo, d_hi)]
    return min(cf.divide(a, b) for a, b in pairs), max(cc.divide(a, b) for a, b in pairs)


def _at_precision(digits, fn):
    saved = get_precision()
    try:
        set_precision(digits)
        return fn()
    finally:
        set_precision(saved)


@pytest.mark.parametrize("digits", REF_DIGITS)
def test_ln_prime_and_euler_ratio_match_fresh_context_reference(digits):
    def check():
        for p in REF_PRIMES:
            want = ref.ln(ref.from_fraction(Fraction(p), digits), digits)
            for _ in range(2):  # the second call is served from the cache
                iv = ln_prime(p)
                assert (iv.lo, iv.hi) == want
            assert natural_log(Fraction(p)) == iv
        for _ in range(2):
            c = euler_ratio()
            assert (c.lo, c.hi) == _ref_euler_ratio(digits)

    _at_precision(digits, check)


def test_constants_follow_a_precision_switch():
    def constants():
        return [ln_prime(p) for p in REF_PRIMES] + [euler_ratio()]

    at_40 = _at_precision(40, constants)
    at_80 = _at_precision(80, constants)
    assert _at_precision(40, constants) == at_40
    for narrow, wide in zip(at_80, at_40):
        assert wide.lo < narrow.lo <= narrow.hi < wide.hi
        assert narrow.hi - narrow.lo < wide.hi - wide.lo
    for p, iv in zip(REF_PRIMES, at_80):
        assert (iv.lo, iv.hi) == ref.ln(ref.from_fraction(Fraction(p), 80), 80)


@pytest.mark.parametrize("digits", (40, 80))
def test_interval_ln_matches_two_call_reference(digits):
    rng = random.Random(SEED + digits)

    def check():
        for trial in range(300):
            a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            lo, hi = ref.from_fraction(a, digits)
            if trial % 3 == 0:
                points = [(lo, lo), (hi, hi)]  # degenerate
            else:
                b = a + Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
                points = [(lo, ref.from_fraction(b, digits)[1])]
            points.append((Decimal(1), hi if a > 1 else Decimal(1) + hi))
            for x_lo, x_hi in points:
                iv = Interval(x_lo, x_hi).ln()
                want = ref.ln((x_lo, x_hi), digits)
                assert (iv.lo.as_tuple(), iv.hi.as_tuple()) == (want[0].as_tuple(), want[1].as_tuple())

    _at_precision(digits, check)


# ---------------------------------------------------------------------------
# Every interval operation against the four-candidate reference, bit for bit
# ---------------------------------------------------------------------------


def _same(iv, want):
    return (iv.lo.as_tuple(), iv.hi.as_tuple()) == (want[0].as_tuple(), want[1].as_tuple())


def _draw_endpoint(rng, cf, cc):
    """A signed zero, a short exact value, one with all the working digits, or
    a short value's neighbour; of either sign."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((Decimal(0), Decimal("-0"), Decimal("0E-3")))
    short = Decimal(f"{rng.randint(1, 999)}E{rng.randint(-4, 3)}")
    if kind == 2:
        short = Decimal(f"0.{rng.randint(10 ** (cf.prec - 1), 10**cf.prec - 1)}E{rng.randint(-3, 4)}")
    elif kind == 3:
        short = cf.next_minus(short)
    elif kind == 4:
        short = cc.next_plus(short)
    return short if rng.random() < 0.7 else short.copy_negate()


def _draw_interval(rng, cf, cc):
    """A point, a short endpoint beside its neighbour, or two drawn endpoints
    in order (so negative and zero-straddling intervals too)."""
    x = _draw_endpoint(rng, cf, cc)
    kind = rng.randrange(4)
    if kind == 0:
        return x, x
    if kind == 1:
        return (x, cc.next_plus(x)) if rng.random() < 0.5 else (cf.next_minus(x), x)
    return tuple(sorted((x, _draw_endpoint(rng, cf, cc))))


def _draw_scalar(rng):
    """An int below 10^30 in magnitude (an exact point), a longer int, or a
    Fraction."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((0, 1, 3, -7, 10**29 + 1, rng.randint(-(10**6), 10**6)))
    if kind == 1:
        return rng.choice((1, -1)) * (10**30 + rng.randint(0, 10**40))
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))


def _binary(op, x, y):
    """op on x and y (Interval or scalar), or the exception type it raised."""
    try:
        return op(x, y)
    except ZeroDivisionError as exc:
        return type(exc)


def _check_pair(x, y, digits):
    """Every binary operation on x and y against the reference; Intervals
    stand in for the reference's pairs, and a scalar for itself."""
    pair = lambda v: (v.lo, v.hi) if isinstance(v, Interval) else v
    for op, ref_op in ((operator.add, ref.add), (operator.sub, ref.sub),
                       (operator.mul, ref.mul), (operator.truediv, ref.div)):
        got, want = _binary(op, x, y), _binary(lambda a, b: ref_op(a, b, digits), pair(x), pair(y))
        if isinstance(want, type):
            assert got is want, (op, x, y)
        else:
            assert _same(got, want), (op, x, y, got, want)
    if isinstance(x, Interval):
        assert x.certainly_le(y) == ref.certainly_le(pair(x), pair(y), digits), (x, y)
        assert x.possibly_le(y) == ref.possibly_le(pair(x), pair(y), digits), (x, y)


@pytest.mark.parametrize("digits", REF_DIGITS)
def test_interval_operations_match_the_four_candidate_reference(digits):
    # the fast products and quotients, the exact int points, the exact
    # negation and the powers from the base against the reference
    rng = random.Random(SEED + 7 * digits)
    cf, cc = ref.contexts(digits)
    assert ref.GUARD_DIGITS == _GUARD_DIGITS

    def check():
        for _ in range(600 if digits < 300 else 200):
            x, y = (Interval(*_draw_interval(rng, cf, cc)) for _ in range(2))
            s = _draw_scalar(rng)
            _check_pair(x, y, digits)
            _check_pair(x, s, digits)
            _check_pair(s, x, digits)
            assert _same(-x, ref.neg((x.lo, x.hi)))
            assert _same(Interval.from_fraction(s), ref.from_fraction(s, digits)), s
            if type(s) is int:
                assert _same(Interval.exact(s), ref.exact(s))
            if x.lo.as_tuple() == x.hi.as_tuple() or x.lo != x.hi:  # as the library builds them
                n = rng.randrange(8)
                assert _same(x**n, ref.power((x.lo, x.hi), n, digits)), (x, n)
            if x.lo > 0:
                assert _same(x.ln(), ref.ln((x.lo, x.hi), digits)), x
        for _ in range(100):  # logs of rationals, and of powers of p to base p
            p = rng.choice((2, 3, 5))
            q = rng.choice((Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)),
                            Fraction(p) ** rng.randint(-40, 40)))
            ln_q = ref.ln(ref.from_fraction(q, digits), digits)
            assert _same(natural_log(q), ln_q), q
            v = int(ord_p_value(q, p))
            want = ref.exact(v) if q == Fraction(p) ** v else ref.div(
                ln_q, ref.ln(ref.from_fraction(p, digits), digits), digits)
            assert _same(log_base(q, p), want), (q, p)

    _at_precision(digits, check)


def test_an_exact_upper_end_keeps_the_first_tie():
    # [1.99...9, 2] * 7: ceil(1.99...9 * 7) = 14.00...0 ties with the exact
    # 2 * 7 = 14 and comes first, so the product keeps its exponent; so does
    # 60 / 3 = 20 before 60 / 3.0 = 2E+1
    def check():
        cf, _cc = ref.contexts(40)
        below_2 = cf.next_minus(Decimal(2))
        iv = Interval(below_2, Decimal(2)) * 7
        assert iv.hi == 14 and len(iv.hi.as_tuple().digits) == cf.prec
        quotient = Interval(Decimal(60), Decimal(61)) / Interval(Decimal(3), Decimal("3.0"))
        assert quotient.lo.as_tuple() == Decimal(20).as_tuple()

    _at_precision(40, check)


def test_a_difference_encloses_its_exact_value_past_28_digits():
    # decimal's unary minus rounds to its default context's 28 digits, half
    # even; an interval difference built on it could miss its exact value
    x = Decimal("1.23456789012345678901234567890123456789012345678")  # 48 digits
    minus_x = x.copy_negate()
    for iv in (Interval.exact(0) - Interval(x, x), -Interval(x, x), 0 - Interval(x, x)):
        assert iv.lo <= minus_x <= iv.hi
    assert (Interval(x, x) - Interval(x, x)).lo == 0


def test_an_interval_is_an_immutable_value():
    a, b = Interval(Decimal(1), Decimal(2)), Interval(Decimal(1), Decimal("2"))
    assert a == b and hash(a) == hash(b) and a != Interval(Decimal(1), Decimal(3))
    assert repr(a) == "Interval(lo=Decimal('1'), hi=Decimal('2'))"
    assert a != (Decimal(1), Decimal(2))
    with pytest.raises(AttributeError):
        a.lo = Decimal(0)
    with pytest.raises(AttributeError):
        del a.hi
    with pytest.raises(ValueError, match="inverted interval"):
        Interval(Decimal(2), Decimal(1))
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    point = Interval.from_fraction(7)  # an int below 10^30 is one exact point
    assert point.lo is point.hi and point == Interval.exact(7)


# ---------------------------------------------------------------------------
# The log kernel against Decimal.ln, digit for digit
# ---------------------------------------------------------------------------

KERNEL_DIGITS = (38, 48, 88, 308, 1008)


def _kernel_arguments(rng, prec):
    """Seeded arguments by kind; the kernel must decide all but the last
    two kinds itself, and leave those to Decimal.ln."""
    ctx = Context(prec=prec)
    short = max(1, prec // 40)
    kinds = {}
    kinds["ratio"] = [
        ctx.divide(Decimal(rng.randint(1, 10 ** rng.randint(1, 40))),
                   Decimal(rng.randint(1, 10 ** rng.randint(1, 40))))
        for _ in range(40 // short)
    ] + [Decimal(2), Decimal(3), Decimal("0.5"), Decimal(rng.randint(2, 10**6))]
    # ln(1 + e) = e(1 - e/2 + e^2/3 - ...) puts ln(1 + 10^-prec) and
    # ln(1 - 10^-(prec-1)) within 10^-prec ulp of a tie (near ties below)
    near_one = sorted({1, 2, 3, prec // 2, prec - 1, prec, prec + 1, prec + 10}
                      | {rng.randint(1, prec + 10) for _ in range(8 // short)})
    kinds["near one"] = [Decimal("1." + "0" * (k - 1) + "1") for k in near_one if k != prec] + [
        Decimal("0." + "9" * k) for k in near_one if k != prec - 1
    ]

    def scientific(digits, adjusted):
        return Decimal(f"{digits[0]}.{digits[1:]}E{adjusted}")

    exponents = (-_LN_MAX_EXPONENT, -300, -10, 10, 300, _LN_MAX_EXPONENT)
    kinds["exponent"] = [
        scientific(str(rng.randint(10 ** (prec - 1), 10**prec)), e) for e in exponents
    ] + [  # coefficients with trailing zeros
        scientific(f"{rng.randint(1, 9)}{rng.randint(0, 10 ** (prec // 2))}{'0' * (prec // 2)}", e)
        for e in exponents
    ]
    exact = Context(prec=prec + 200)
    boundaries = []
    for j in (0, 1, 127, 128, 255):
        for k in (-3, 0, 5):
            y = exact.multiply(Decimal(256 + j), exact.power(Decimal(2), k - 8))
            boundaries += [y, ctx.next_plus(y), ctx.next_minus(y)]
    kinds["table boundary"] = [y for y in boundaries if y != 1]
    def near_ties(extra, count):
        """exp of a tie point, computed with extra digits."""
        ties = []
        for _ in range(count):
            c = rng.randint(10 ** (prec - 1), 10**prec - 1)
            tie = Decimal(f"{c}5E{rng.randint(-prec - 2, -prec + 1)}")
            ties.append(tie.exp(Context(prec=prec + extra)))
        return ties

    kinds["near tie"] = near_ties(20, max(1, 6 // short)) + near_ties(60, max(1, 6 // short))
    if prec < 1000:  # Decimal.ln takes 15 s on each at 1008 digits, the kernel 1 ms
        kinds["near tie"] += [Decimal("1." + "0" * (prec - 1) + "1"), Decimal("0." + "9" * (prec - 1)),
                              Decimal("0." + "9" * (prec - 2) + "7")]
    # past the retry's reach: Decimal.ln runs its own long search on these,
    # so only below 100 digits
    kinds["undecided tie"] = near_ties(prec + 80, 3) if prec < 100 else []
    kinds["past the exponent cap"] = [
        Decimal(f"7.5E{e}") for e in (-(10**4), -_LN_MAX_EXPONENT - 1, _LN_MAX_EXPONENT + 1, 10**4)
    ] + [Decimal(1), Decimal("Infinity")]
    return kinds


@pytest.mark.parametrize("prec", KERNEL_DIGITS)
def test_ln_kernel_matches_decimal_ln(prec, monkeypatch):
    # the kernel builds a Context only to fall back on Decimal.ln
    fallbacks = []

    def counting_context(*args, **kwargs):
        fallbacks.append(kwargs.get("prec"))
        return Context(*args, **kwargs)

    monkeypatch.setattr(arith, "Context", counting_context)
    rng = random.Random(SEED + prec)
    ctx = Context(prec=prec)
    for kind, xs in _kernel_arguments(rng, prec).items():
        fallbacks.clear()
        for x in xs:
            got = _ln_half_even(x, prec)
            assert got.as_tuple() == x.ln(ctx).as_tuple(), (kind, x)
            assert x == 1 or not x.is_finite() or len(got.as_tuple().digits) == prec
        if kind in ("undecided tie", "past the exponent cap"):
            assert fallbacks == [prec] * len(xs), kind
        else:
            assert fallbacks == [], kind


def test_round_half_even_matches_decimal_on_dyadics_and_exact_ties():
    rng = random.Random(SEED + 5)
    wide = Context(prec=1000)
    for trial in range(3000):
        prec = rng.choice((1, 2, 5, 38, 48))
        w = rng.randint(1, 200)
        if trial % 2:
            c = rng.randint(10 ** (prec - 1), 10**prec - 1)
            v = (2 * c + 1) * 10 ** rng.randint(0, 30) << (w - 1)  # (c + 1/2) 10^e exactly
        else:
            v = rng.randint(1, 2 ** rng.randint(1, 400))
        c, e = _round_half_even(v, w, prec)
        assert 10 ** (prec - 1) <= c < 10**prec
        want = Context(prec=prec).plus(wide.divide(Decimal(v), Decimal(2**w)))
        assert Decimal(f"{c}E{e}") == want, (v, w, prec)
