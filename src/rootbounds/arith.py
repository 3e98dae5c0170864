"""Exact rational arithmetic, p-adic valuations, and safely rounded reals.

Rationals are plain ``fractions.Fraction`` values: the stdlib type already
guarantees lowest terms, a positive denominator, and exact arithmetic.

The transcendental pieces of the root-bound formulas (natural logs, the
constant c = e/(e-1)) are evaluated with directed-rounding interval
arithmetic over :mod:`decimal`.  Every interval encloses the exact real it
stands for, so taking the upper endpoint of a bound expression yields a value
that is still a valid upper bound.  Working precision defaults to 40
significant digits and is set by :func:`set_precision` per context: a thread
or a ``contextvars.copy_context().run`` that sets its own leaves the caller's.

Everything that depends only on the precision is built once per precision:
the floor/ceiling ``Context`` pair and the log kernel's table.  So is every
interval that depends only on the precision and a few small integers: one
memo, :func:`_per_precision`, keyed on a function's arguments and the
working digits at call time, holds the enclosure of c returned by
:func:`euler_ratio`, (per prime) the enclosure of ln p returned by
:func:`ln_prime`, in :mod:`rootbounds.bounds` the closed-form bound
intervals, each keyed on the integers of its formula, and in
:mod:`rootbounds.newton` the log term of the near-one radius, keyed on
(m, n, r, p).  Interval logs run on
the kernel :func:`_ln_half_even`: fixed-point arithmetic on ints (a table of
ln(1 + j/256), an atanh series and a proven error bound E) followed by a
rounding test, which returns exactly what ``Decimal.ln`` returns, the result
correctly rounded half-even, at a fifth of its cost.  An argument whose log
the test cannot decide (within about 10^-prec ulp of a rounding tie), 1, an
exponent past _LN_MAX_EXPONENT and an infinity go to ``Decimal.ln``.  An
interval log of a point interval makes one kernel call.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction
from typing import Union

from .errors import ParamError, require_int
from .linalg import to_rational

RationalLike = Union[Fraction, int]

DEFAULT_DIGITS = 40

# Cap on the working precision: the interval logs grow superlinearly in the
# digit count (a trinomial's bounds take about 0.01 s at 1000 digits and 0.13 s
# at 3000, after 0.1 s and 1.1 s to build the log table once per process), so
# a larger request is refused instead of running unbounded.
MAX_DIGITS = 1000

# Extra working digits beyond the requested precision; absorbs the +/- 1 ulp
# slack added around decimal's half-even ln/exp results.
_GUARD_DIGITS = 8

_digits: ContextVar[int] = ContextVar("rootbounds_digits", default=DEFAULT_DIGITS)


def set_precision(digits: int) -> None:
    """Set the significant digits of bound evaluation: an int from 30, which the
    formulas promise before the final directed round-up, to MAX_DIGITS."""
    _digits.set(require_int("precision", digits, 30, MAX_DIGITS))


def get_precision() -> int:
    return _digits.get()


@functools.cache
def _contexts(digits: int) -> tuple[Context, Context]:
    """The (round-down, round-up) contexts for ``digits`` working digits;
    at most MAX_DIGITS - 29 pairs, since set_precision bounds ``digits``."""
    prec = digits + _GUARD_DIGITS
    return Context(prec=prec, rounding=ROUND_FLOOR), Context(prec=prec, rounding=ROUND_CEILING)


def _ctx_floor() -> Context:
    return _contexts(_digits.get())[0]


def _ctx_ceil() -> Context:
    return _contexts(_digits.get())[1]


# ---------------------------------------------------------------------------
# Primality (trial division backed by deterministic Miller-Rabin)
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
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
        raise ParamError(f"expected a prime >= 2, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


def _int_ord(n: int, p: int) -> int:
    # n != 0; after each p it strips p^2, p^4, ... while they divide, so a
    # valuation v costs O(log^2 v) divisions, not v divisions of a long n
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        q, k = p * p, 2
        while n % q == 0:
            n //= q
            v += k
            q, k = q * q, 2 * k
    return v


def _ord(q: Fraction, p: int) -> int:
    """v_p of the nonzero rational q as an int, p and q unchecked."""
    return _int_ord(q.numerator, p) - _int_ord(q.denominator, p)


def ord_p_value(x: RationalLike, p: int) -> Fraction:
    """Exponent of the prime p in the nonzero rational x."""
    require_prime(p)
    x = to_rational(x, "x")
    if x == 0:
        raise ParamError("valuation of zero is infinite")
    return Fraction(_ord(x, p))


# ---------------------------------------------------------------------------
# Rational serialization ("num/den", den omitted when 1)
# ---------------------------------------------------------------------------


def format_rational(q: RationalLike) -> str:
    if type(q) is int:
        return str(q)
    if type(q) is not Fraction:
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


# ---------------------------------------------------------------------------
# The natural-log kernel: fixed point on ints, rounded half-even
# ---------------------------------------------------------------------------

_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)

# Bits carried beyond the ones a correctly rounded result needs.  The error
# bound E of a first attempt stays below 2^13 units (k <= 3326 under
# _LN_MAX_EXPONENT), so it is left undecided only when ln x lies within
# 2^-27 ulp of a rounding tie; the retry, at twice the bits, only within
# about 10^-prec ulp.
_LN_GUARD_BITS = 40
# Extra bits of the table's private accumulator.
_LN_TABLE_BITS = 32
# Largest |adjusted exponent| the kernel takes.  Converting x to n/d costs
# time quadratic in the exponent (0.3 ms at 10^4, 0.3 s at 10^6, against
# 0.1 ms for Decimal.ln at 48 digits), so larger ones go to Decimal.ln.
_LN_MAX_EXPONENT = 1000


def _ln_bits(prec: int) -> int:
    """Working bits for a result of prec digits: prec digits, 9 bits because
    |ln y| >= ln(1 + 1/256) > 2^-9 whenever a table entry is used, and the
    guard bits, rounded up to a multiple of 64 so that nearby precisions
    share one table (at most MAX_DIGITS/19 + 2 tables, and as many for the
    retries at twice the bits)."""
    return -(-(math.ceil(prec * _LOG2_10) + 9 + _LN_GUARD_BITS) // 64) * 64


def _atanh_sum(t: int, num: int, den: int, shift: int) -> tuple[int, int]:
    """sum over i of floor(t_i / (2i + 1)), where t_0 = t and
    t_{i+1} = floor(t_i * num / (den * 2^shift)), stopping at the first
    t_i = 0; and the number N of terms summed."""
    s = i = 0
    while t:
        s += t // (2 * i + 1)
        t = (t * num >> shift) // den
        i += 1
    return s, i


@functools.cache
def _ln_table(wp: int) -> tuple[tuple[int, ...], int]:
    """ln(1 + j/256) * 2^wp for j = 0..256 (ln 2 last), each floored from a
    sum built with _LN_TABLE_BITS more bits, and a bound, in units of
    2^-wp, on the error of every entry.

    ln((256 + j)/(255 + j)) = 2 atanh(1/(511 + 2j)), and the series of each
    step falls short by less than 2(N + 1) units (see :func:`_ln_half_even`),
    so the running sum falls short by less than err units of 2^-w; the final
    floor adds at most one unit of 2^-wp.  Built on first use, for the
    working bits of :func:`_ln_bits`, each table of 257 entries.
    """
    w = wp + _LN_TABLE_BITS
    acc = err = 0
    table = [0]
    for j in range(1, 257):
        q = 511 + 2 * j
        s, terms = _atanh_sum((1 << w) // q, 1, q * q, 0)
        acc += 2 * s
        err += 4 * (terms + 1)
        table.append(acc >> _LN_TABLE_BITS)
    return tuple(table), (err >> _LN_TABLE_BITS) + 2


def _round_half_even(v: int, w: int, prec: int) -> tuple[int, int]:
    """(c, e) with c * 10^e the value v / 2^w > 0 rounded half-even to prec
    significant digits, 10^(prec-1) <= c < 10^prec."""
    top = 10**prec
    e = math.floor((v.bit_length() - 1 - w) * _LOG10_2) - prec + 1
    while True:
        num, den = (v * 10**-e, 1 << w) if e <= 0 else (v, 10**e << w)
        c, r = divmod(num, den)
        if c >= top:
            e += 1
        elif c * 10 < top:
            e -= 1
        else:
            break
    if 2 * r > den or (2 * r == den and c & 1):
        c += 1
        if c == top:
            c, e = c // 10, e + 1
    return c, e


def _ln_half_even(x: Decimal, prec: int) -> Decimal:
    """ln x rounded half-even to prec digits: exactly ``x.ln(ctx)`` for a
    context of precision prec, the same value with the same coefficient and
    exponent (Ziv's method: a cheap approximation, then a rounding test).

    For x > 0.  With y = max(x, 1/x) = n/d > 1 (the sign is put back
    at the end), write y = m * 2^k with m in [1, 2), let j = floor(256(m - 1))
    and c_j = 1 + j/256.  Then m/c_j lies in [1, 1 + 1/(256 + j)), so

        ln y = k ln 2 + ln c_j + 2 atanh(z),   z = (m - c_j)/(m + c_j),

    with 0 <= z < 2^-9; z is an exact ratio of ints, and every term is
    nonnegative, so nothing cancels.  In fixed point with unit 2^-w:

    * Z = floor(z 2^w) and z2 = floor(Z^2 / 2^w) >= z^2 2^w - (2z + 1), and
      the series terms t_i = z^(2i+1) 2^w are carried as T_0 = Z,
      T_{i+1} = floor(T_i z2 / 2^w).  The shortfall d_i = t_i - T_i is
      >= 0 and, since T_i <= z 2^w, d_{i+1} <= d_i z^2 + z(2z + 1) + 1,
      so d_i < 1.0031 for every i.
    * floor(T_i/(2i + 1)) falls short of t_i/(2i + 1) by less than 1 at
      i = 0 and less than 1.0031/3 + 1 < 2 after; once T_N = 0, the tail
      sum over i >= N of t_i/(2i + 1) is below d_N/(1 - z^2) < 1.004.  So
      the N-term sum S falls short of atanh(z) 2^w by less than 2(N + 1),
      and 2S of 2 atanh(z) 2^w by less than 4(N + 1).
    * The table entries for ln c_j and ln 2 (:func:`_ln_table`) are each
      within Et units.

    Hence R = k L_256 + L_j + 2S is within E = 4(N + 1) + (k + 1) Et units
    of ln(y) 2^w.  When j = k = 0 no entry is used and w carries the leading
    zero bits of z on top of wp, so the margin is relative to ln y.  If
    R - E and R + E round to the same prec digits, so does ln y; otherwise
    the test is repeated once with twice the bits, which also decides the
    near ties that ln(1 + e) = e - e^2/2 + ... makes of x a few ulp from 1
    (the series then has two or three terms at any width).  A result still
    undecided (ln y within about 10^-prec ulp of a tie), like x = 1, an x
    beyond _LN_MAX_EXPONENT and an infinite x, is left to ``Decimal.ln``.
    """
    if x.is_finite() and x != 1 and abs(x.adjusted()) <= _LN_MAX_EXPONENT:
        n, d = x.as_integer_ratio()
        sign = ""
        if n < d:
            n, d, sign = d, n, "-"
        k = n.bit_length() - d.bit_length()
        if n < d << k:
            k -= 1
        d <<= k
        j = (n << 8) // d - 256
        num = 256 * n - (256 + j) * d
        den = 256 * n + (256 + j) * d
        wp = _ln_bits(prec)
        for w in (wp, 2 * wp):
            if j == k == 0:
                w += den.bit_length() - num.bit_length()
            big_z = (num << w) // den
            s, terms = _atanh_sum(big_z, big_z * big_z >> w, 1, w)
            r, e = 2 * s, 4 * (terms + 1)
            if j or k:
                table, table_err = _ln_table(w)
                r += k * table[256] + table[j]
                e += (k + 1) * table_err
            if r > e:
                lo = _round_half_even(r - e, w, prec)
                if lo == _round_half_even(r + e, w, prec):
                    return Decimal(f"{sign}{lo[0]}E{lo[1]}")
    return x.ln(Context(prec=prec))


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] of decimals enclosing an exact real."""

    lo: Decimal
    hi: Decimal

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ParamError(f"inverted interval [{self.lo}, {self.hi}]")

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
        require_int("exponent", n, 0)
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

        Each endpoint's log is rounded half-even to the working digits by
        :func:`_ln_half_even`, which returns what ``Decimal.ln`` returns
        (decimal, too, rounds ln half-even in every context); the rounded
        value is then widened by one ulp on each side, so the enclosure
        holds whatever the rounding direction was.  A point interval
        (lo == hi) takes one kernel call.
        """
        if self.lo <= 0:
            raise ParamError(f"log of nonpositive value (interval [{self.lo}, {self.hi}])")
        if self.lo == 1 and self.hi == 1:
            return Interval.exact(0)
        cf, cc = _ctx_floor(), _ctx_ceil()
        prec = cf.prec
        lo_ln = _ln_half_even(self.lo, prec)
        hi_ln = lo_ln if self.hi == self.lo else _ln_half_even(self.hi, prec)
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


# Entries per memoised function: a few hundred keys hold the working set of
# the bound formulas (the bound-mix benchmark pool evaluates them 12,292
# times over 181 distinct keys).
_PER_PRECISION_ENTRIES = 256


def _per_precision(fn):
    """Memoise fn on its arguments and the working digits at call time.

    The body runs only on a miss, at the precision named by the key, so a
    cached value is what a fresh call would return.  Only for functions of
    small hashable arguments that return an :class:`Interval` (frozen, of
    Decimals): a cached value is shared by every caller.  At most
    _PER_PRECISION_ENTRIES values per function; ``__wrapped__`` is fn.
    """
    at = functools.lru_cache(maxsize=_PER_PRECISION_ENTRIES)(lambda digits, *args: fn(*args))

    @functools.wraps(fn)
    def cached(*args):
        return at(_digits.get(), *args)

    cached.cache_clear = at.cache_clear
    cached.cache_info = at.cache_info
    return cached


@_per_precision
def ln_prime(p: int) -> Interval:
    """Enclosure of ln p at the working precision, computed once per
    (p, precision) pair."""
    require_prime(p)
    return natural_log(Fraction(p))


def log_base(x: IntervalLike, p: int) -> Interval:
    """log_p(x) = ln(x)/ln(p), exact when x is an exact power of p."""
    require_prime(p)
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        if q <= 0:
            raise ParamError(f"log of nonpositive value {q}")
        v = _ord(q, p)
        if q == Fraction(p) ** v:
            return Interval.exact(v)
    return natural_log(x) / ln_prime(p)


@_per_precision
def euler_ratio() -> Interval:
    """The constant c = e/(e-1) (about 1.58198) from the bound formulas,
    computed once per precision."""
    # exp, like ln, rounds half-even in every context: widen by one ulp
    cf, cc = _ctx_floor(), _ctx_ceil()
    e = Decimal(1).exp(cf)
    ulp = _ulp(e, cf.prec)
    e = Interval(cf.subtract(e, ulp), cc.add(e, ulp))
    return e / (e - 1)


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
