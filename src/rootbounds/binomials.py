"""Generalized binomial coefficients, LCM profiles, and basis expansions.

The quantity ``lcm_profile(m, t)`` is the least common multiple of all
products of at most m pairwise distinct positive integers <= t.  It controls
the denominators of the coefficients that rewrite a high generalized
binomial (a choose t) in the basis (a choose 0), ..., (a choose m-1) on a
set A of m integers; those expansion coefficients are what keep the
valuations of shifted sparse polynomials decaying slowly.

Everything here is exact: integer arithmetic plus an exact rational solve
for the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import is_prime
from .errors import InternalError, ParamError, require_int, shown
from .linalg import solve_square

# The interpreter's default limit on the decimal digits of a printed int; an
# lcm profile above it is refused.  lcm(1, ..., 9859) already has more, so no
# lcm profile with m >= 1 and a larger t can be printed.
MAX_PRINT_DIGITS = 4300
MAX_T = 9858
# Caps on the number and on the magnitude of the support elements of an
# expansion: its exact solve grows with both, and at these caps and t = MAX_T
# 32 random elements of [-10^6, 10^6] take about 3.5 s (2-vCPU machine,
# Python 3.11).
MAX_SUPPORT = 32
MAX_SUPPORT_ELEMENT = 10**6


def _check_t(t: int) -> None:
    if require_int("t", t, 0) > MAX_T:
        raise ParamError(f"t = {shown(t)} exceeds the cap {MAX_T}")


@dataclass(frozen=True)
class BinomialExpansion:
    """Coefficients writing (a choose t) in the basis (a choose j), j < m.

    The reconstruction identity holds exactly at every a in A.
    """

    support: tuple[int, ...]
    t: int
    coefficients: tuple[Fraction, ...]


def _primes_up_to(t: int) -> list[int]:
    return [p for p in range(2, t + 1) if is_prime(p)]


def _top_valuation_sum(m: int, t: int, p: int) -> int:
    """The sum of the m largest p-valuations among 1, ..., t: exactly
    t // p^j - t // p^(j+1) of those integers have valuation j."""
    total = 0
    j = 1
    while p ** (j + 1) <= t:
        j += 1
    while j > 0 and m > 0:
        take = min(m, t // p**j - t // p ** (j + 1))
        total += j * take
        m -= take
        j -= 1
    return total


def lcm_profile(m: int, t: int) -> int:
    """Greedy per-prime evaluation of the lcm over distinct-factor products.

    For each prime p <= t the exponent is the largest total p-valuation
    achievable by at most m pairwise distinct integers in [1, t]; picking the
    m largest valuations independently per prime attains it.  A value of
    more than ``MAX_PRINT_DIGITS`` digits is refused before it is built.
    """
    require_int("m", m, 0)
    _check_t(t)
    if m == 0 or t == 0:
        return 1
    exponents = [(p, _top_valuation_sum(m, t, p)) for p in _primes_up_to(t)]
    # the float sum is good to far better than the margin, and a value
    # within the margin of the limit is compared exactly once built
    digits = sum(e * math.log10(p) for p, e in exponents)
    if digits > MAX_PRINT_DIGITS + 1e-6:
        raise ParamError(
            f"lcm profile of about {math.ceil(digits)} digits exceeds the cap {MAX_PRINT_DIGITS}"
        )
    value = math.prod(p**e for p, e in exponents)
    if value >= 10**MAX_PRINT_DIGITS:
        raise ParamError(f"lcm profile of more than {MAX_PRINT_DIGITS} digits exceeds the cap")
    return value


def gen_binomial(a: int, t: int) -> Fraction:
    """(a choose t) = prod_{i<t} (a-i)/(t-i), an integer for integer a: the
    usual binomial for a >= 0, and (-1)^t (t - a - 1 choose t) below, t <= MAX_T."""
    require_int("a", a)
    _check_t(t)
    return Fraction(math.comb(a, t) if a >= 0 else (-1) ** t * math.comb(t - a - 1, t))


def expansion_coeffs(support: Sequence[int], t: int) -> BinomialExpansion:
    """Solve for the coefficients expanding (a choose t) over a in support.

    For t < m the answer is the Kronecker vector.  Otherwise the m x m
    integer system with entries (a choose j) is solved exactly; it is
    invertible because the binomial basis polynomials have degree < m and
    the support points are distinct.
    """
    a_sorted = tuple(sorted(require_int("each support element", a) for a in support))
    m = len(a_sorted)
    if m == 0:
        raise ParamError("expansion needs a nonempty support")
    if m > MAX_SUPPORT:
        raise ParamError(f"a support of {m} elements exceeds the cap {MAX_SUPPORT}")
    if max(-a_sorted[0], a_sorted[-1]) > MAX_SUPPORT_ELEMENT:
        raise ParamError(f"support elements are capped at magnitude {MAX_SUPPORT_ELEMENT}")
    if len(set(a_sorted)) != m:
        raise ParamError("support elements must be distinct")
    _check_t(t)
    if t < m:
        coeffs = tuple(Fraction(1 if j == t else 0) for j in range(m))
        return BinomialExpansion(a_sorted, t, coeffs)
    rows = [[gen_binomial(a, j) for j in range(m)] for a in a_sorted]
    rhs = [gen_binomial(a, t) for a in a_sorted]
    coeffs = solve_square(rows, rhs)
    if coeffs is None:
        raise InternalError("binomial basis system unexpectedly singular")
    expansion = BinomialExpansion(a_sorted, t, tuple(coeffs))
    _check_reconstruction(expansion)
    return expansion


def _check_reconstruction(e: BinomialExpansion) -> None:
    for a in e.support:
        lhs = gen_binomial(a, e.t)
        rhs = sum(
            (c * gen_binomial(a, j) for j, c in enumerate(e.coefficients)),
            Fraction(0),
        )
        if lhs != rhs:
            raise InternalError(f"expansion reconstruction failed at a={a}")
