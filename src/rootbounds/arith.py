"""Exact rational arithmetic, p-adic valuations, and safely rounded reals.

Rationals are plain ``fractions.Fraction`` values: the stdlib type already
guarantees lowest terms, a positive denominator, and exact arithmetic, so we
re-export it as :data:`Rational` rather than wrapping it.

The transcendental pieces of the root-bound formulas (natural logs, the
constant c = e/(e-1)) are evaluated with directed-rounding interval
arithmetic over :mod:`decimal`.  Every interval encloses the exact real it
stands for, so taking the upper endpoint of a bound expression yields a value
that is still a valid upper bound.  Working precision defaults to 40
significant digits and can be raised at startup via :func:`set_precision`.

Everything that depends only on the precision is built once per precision:
the floor/ceiling ``Context`` pair, the enclosure of c returned by
:func:`euler_ratio`, and (per prime) the enclosure of ln p returned by
:func:`ln_prime`.  An interval log of a point interval makes a single
``Decimal.ln`` call, since decimal rounds ln half-even in every context.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[Fraction, int]

DEFAULT_DIGITS = 40

# Cap on the working precision: the Decimal logs grow superlinearly in the
# digit count (a trinomial bound takes about 0.5 s at 1000 digits and 12 s at
# 3000), so a larger request is refused instead of running unbounded.
MAX_DIGITS = 1000

# Extra working digits beyond the requested precision; absorbs the +/- 1 ulp
# slack added around decimal's half-even ln/exp results.
_GUARD_DIGITS = 8

_digits = DEFAULT_DIGITS


def set_precision(digits: int) -> None:
    """Set the number of significant digits used for bound evaluation.

    Values below 30 are rejected: the bound formulas promise at least 30
    significant digits before the final directed round-up.  Values above
    MAX_DIGITS are rejected too.
    """
    global _digits
    if digits < 30:
        raise ValueError(f"precision must be at least 30 digits, got {digits}")
    if digits > MAX_DIGITS:
        raise ValueError(f"precision must be at most {MAX_DIGITS} digits, got {digits}")
    _digits = digits


def get_precision() -> int:
    return _digits


@functools.cache
def _contexts(digits: int) -> tuple[Context, Context]:
    """The (round-down, round-up) contexts for ``digits`` working digits;
    at most MAX_DIGITS - 29 pairs, since set_precision bounds ``digits``."""
    prec = digits + _GUARD_DIGITS
    return Context(prec=prec, rounding=ROUND_FLOOR), Context(prec=prec, rounding=ROUND_CEILING)


def _ctx_floor() -> Context:
    return _contexts(_digits)[0]


def _ctx_ceil() -> Context:
    return _contexts(_digits)[1]


# ---------------------------------------------------------------------------
# Primality (trial division backed by deterministic Miller-Rabin)
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"expected a prime >= 2, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


def _int_ord(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ord_p_value(x: RationalLike, p: int) -> Fraction:
    """Exponent of the prime p in the nonzero rational x."""
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    return Fraction(_int_ord(x.numerator, p) - _int_ord(x.denominator, p))


# ---------------------------------------------------------------------------
# Rational serialization ("num/den", den omitted when 1)
# ---------------------------------------------------------------------------


def format_rational(q: RationalLike) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Directed-rounding interval arithmetic
# ---------------------------------------------------------------------------


def _dec_from_fraction(q: Fraction, ctx: Context) -> Decimal:
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def _ulp(x: Decimal, prec: int) -> Decimal:
    if x == 0:
        return Decimal(1).scaleb(-prec)
    return Decimal(1).scaleb(x.adjusted() - prec + 1)


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] of decimals enclosing an exact real."""

    lo: Decimal
    hi: Decimal

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: RationalLike) -> "Interval":
        q = Fraction(q)
        return cls(_dec_from_fraction(q, _ctx_floor()), _dec_from_fraction(q, _ctx_ceil()))

    @classmethod
    def exact(cls, x: Decimal | int) -> "Interval":
        d = Decimal(x)
        return cls(d, d)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x: "IntervalLike") -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval.from_fraction(x)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntervalLike") -> "Interval":
        o = Interval._coerce(other)
        return Interval(_ctx_floor().add(self.lo, o.lo), _ctx_ceil().add(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "IntervalLike") -> "Interval":
        return self + (-Interval._coerce(other))

    def __rsub__(self, other: "IntervalLike") -> "Interval":
        return Interval._coerce(other) + (-self)

    def __mul__(self, other: "IntervalLike") -> "Interval":
        o = Interval._coerce(other)
        cf, cc = _ctx_floor(), _ctx_ceil()
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        return Interval(
            min(cf.multiply(a, b) for a, b in pairs),
            max(cc.multiply(a, b) for a, b in pairs),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "IntervalLike") -> "Interval":
        o = Interval._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval division by an interval containing 0")
        cf, cc = _ctx_floor(), _ctx_ceil()
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        return Interval(
            min(cf.divide(a, b) for a, b in pairs),
            max(cc.divide(a, b) for a, b in pairs),
        )

    def __rtruediv__(self, other: "IntervalLike") -> "Interval":
        return Interval._coerce(other) / self

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int) or n < 0:
            raise ValueError("interval powers take a nonnegative integer exponent")
        result = Interval.exact(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def ln(self) -> "Interval":
        """Natural log; requires a strictly positive interval.

        decimal computes ln with half-even rounding no matter the context
        rounding mode, so the correctly rounded result is inflated by one ulp
        on each side.  For the same reason a point interval (lo == hi) needs
        only one ``Decimal.ln`` call: the round-up context would return the
        same value.
        """
        if self.lo <= 0:
            raise ValueError(f"log of nonpositive value (interval [{self.lo}, {self.hi}])")
        if self.lo == 1 and self.hi == 1:
            return Interval.exact(0)
        cf, cc = _ctx_floor(), _ctx_ceil()
        prec = cf.prec
        lo_ln = self.lo.ln(cf)
        hi_ln = lo_ln if self.hi == self.lo else self.hi.ln(cc)
        return Interval(
            cf.subtract(lo_ln, _ulp(lo_ln, prec)),
            cc.add(hi_ln, _ulp(hi_ln, prec)),
        )

    # -- comparisons -------------------------------------------------------

    def certainly_le(self, other: "IntervalLike") -> bool:
        o = Interval._coerce(other)
        return self.hi <= o.lo

    def possibly_le(self, other: "IntervalLike") -> bool:
        o = Interval._coerce(other)
        return self.lo <= o.hi

    def upper(self) -> "UpperReal":
        return UpperReal(self.hi)


IntervalLike = Union[Interval, Fraction, int]


def natural_log(x: IntervalLike) -> Interval:
    return Interval._coerce(x).ln()


# _ln_prime_at and _euler_ratio_at are only called with digits == _digits:
# the key names the working precision at which their body runs.
@functools.lru_cache(maxsize=64)
def _ln_prime_at(p: int, digits: int) -> Interval:
    require_prime(p)
    return natural_log(Fraction(p))


def ln_prime(p: int) -> Interval:
    """Enclosure of ln p at the working precision, computed once per
    (p, precision) pair."""
    return _ln_prime_at(p, _digits)


def _pure_power_exponent(n: int, p: int) -> int | None:
    # exponent k with n == p**k, for n >= 1
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


def log_base(x: IntervalLike, p: int) -> Interval:
    """log_p(x) = ln(x)/ln(p), exact when x is an exact power of p."""
    require_prime(p)
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        if q <= 0:
            raise ValueError(f"log of nonpositive value {q}")
        a = _pure_power_exponent(q.numerator, p)
        b = _pure_power_exponent(q.denominator, p)
        if a is not None and b is not None:
            return Interval.exact(a - b)
    return natural_log(x) / ln_prime(p)


@functools.cache
def _euler_ratio_at(digits: int) -> Interval:
    # exp, like ln, rounds half-even in every context: widen by one ulp
    cf, cc = _ctx_floor(), _ctx_ceil()
    e = Decimal(1).exp(cf)
    ulp = _ulp(e, cf.prec)
    e = Interval(cf.subtract(e, ulp), cc.add(e, ulp))
    return e / (e - 1)


def euler_ratio() -> Interval:
    """The constant c = e/(e-1) (about 1.58198) from the bound formulas,
    computed once per precision."""
    return _euler_ratio_at(_digits)


# ---------------------------------------------------------------------------
# Upper reals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpperReal:
    """A decimal known to lie at or above the exact real it represents."""

    value: Decimal

    def floor_int(self) -> int:
        return int(self.value.to_integral_value(rounding=ROUND_FLOOR))

    def to_decimal_string(self, digits: int = 30) -> str:
        ctx = Context(prec=digits, rounding=ROUND_CEILING)
        return str(ctx.plus(self.value))

    def as_fraction(self) -> Fraction:
        return Fraction(self.value)

    def __str__(self) -> str:
        return self.to_decimal_string()
