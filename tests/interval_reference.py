"""The interval operations of ``rootbounds.arith`` as plain four-candidate code.

Intervals are (lo, hi) pairs of Decimals and ``digits`` is the working
precision.  A product or quotient takes the first least of its four endpoint
candidates rounded down (lo*lo', lo*hi', hi*lo', hi*hi', in that order) and
the first greatest of the four rounded up; an int or Fraction operand is its
numerator over its denominator rounded each way; a power multiplies the odd
powers into exact(1) from the right.  ``arith.Interval`` must return, bit
for bit, what these return: the same ``as_tuple()`` on both endpoints.

One departure from the code these were written from: a negation is exact,
as Decimal's unary minus is in a context with digits to spare (+0 for either
zero).  In decimal's default 28-digit context it rounds a longer endpoint
half-even, in neither direction, and an interval difference that did so
could miss its exact value.

``tests/test_arith.py`` checks the library against these on seeded draws,
and ``scripts/time_polyhedra.py`` does so before it times the operations.
"""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

GUARD_DIGITS = 8  # arith._GUARD_DIGITS, restated

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def contexts(digits):
    prec = digits + GUARD_DIGITS
    return Context(prec=prec, rounding=ROUND_FLOOR), Context(prec=prec, rounding=ROUND_CEILING)


def ulp(x, prec):
    if x == 0:
        return Decimal(1).scaleb(-prec)
    return Decimal(1).scaleb(x.adjusted() - prec + 1)


def from_fraction(q, digits):
    q = Fraction(q)
    cf, cc = contexts(digits)
    return (
        cf.divide(Decimal(q.numerator), Decimal(q.denominator)),
        cc.divide(Decimal(q.numerator), Decimal(q.denominator)),
    )


def exact(x):
    d = Decimal(x)
    return d, d


def _interval(x, digits):
    return x if isinstance(x, tuple) else from_fraction(x, digits)


def add(x, y, digits):
    (a, b), (c, d) = _interval(x, digits), _interval(y, digits)
    cf, cc = contexts(digits)
    return cf.add(a, c), cc.add(b, d)


def neg(x):
    return _EXACT.minus(x[1]), _EXACT.minus(x[0])


def sub(x, y, digits):
    return add(_interval(x, digits), neg(_interval(y, digits)), digits)


def mul(x, y, digits):
    (a, b), (c, d) = _interval(x, digits), _interval(y, digits)
    cf, cc = contexts(digits)
    pairs = ((a, c), (a, d), (b, c), (b, d))
    return min(cf.multiply(u, v) for u, v in pairs), max(cc.multiply(u, v) for u, v in pairs)


def div(x, y, digits):
    (a, b), (c, d) = _interval(x, digits), _interval(y, digits)
    if c <= 0 <= d:
        raise ZeroDivisionError("interval division by an interval containing 0")
    cf, cc = contexts(digits)
    pairs = ((a, c), (a, d), (b, c), (b, d))
    return min(cf.divide(u, v) for u, v in pairs), max(cc.divide(u, v) for u, v in pairs)


def power(x, n, digits):
    result, base = exact(1), x
    while n:
        if n & 1:
            result = mul(result, base, digits)
        base = mul(base, base, digits) if n > 1 else base
        n >>= 1
    return result


def ln(x, digits):
    """Each endpoint's log by ``Decimal.ln``, widened by one ulp each way;
    exactly 0 at the point 1."""
    lo, hi = x
    if lo == 1 and hi == 1:
        return exact(0)
    cf, cc = contexts(digits)
    lo_ln, hi_ln = lo.ln(cf), hi.ln(cc)
    return cf.subtract(lo_ln, ulp(lo_ln, cf.prec)), cc.add(hi_ln, ulp(hi_ln, cc.prec))


def certainly_le(x, y, digits):
    return x[1] <= _interval(y, digits)[0]


def possibly_le(x, y, digits):
    return x[0] <= _interval(y, digits)[1]
