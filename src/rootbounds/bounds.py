"""Closed-form upper bounds for isolated torus roots of sparse systems.

Each bound takes the field it is stated for: local bounds a
``LocalField(p, e, f)``, the degree-d = e*f extension of the p-adic
rationals with residue cardinality q = p^f; global bounds a
``GlobalField(d, delta)``, a degree-d number field with roots of degree
<= delta, reduced through the 2-adic embedding.  Every formula is evaluated
with directed rounding, so the reported decimal is >= the exact value of the
bound expression and its integer floor is still a valid bound for an
integer root count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .arith import (
    Interval,
    UpperReal,
    _per_precision,
    euler_ratio,
    format_rational,
    ln_prime,
    log_base,
    require_prime,
)
from .errors import ParamError, require_int
from .linalg import to_vec
from .newton import (
    MAX_VARS,
    SparseSystem,
    _validate_r,
    facet_count,
    near_one_log,
    near_one_radius,
    valuation_vector_cap,
)

FORMULA_THM1_LOCAL = "thm1_local"
FORMULA_THM1_GLOBAL = "thm1_global"
FORMULA_THM2_GENERAL = "thm2_general"
FORMULA_THM2_PER_EQ = "thm2_per_eq"
FORMULA_COR2_1 = "cor2_1"
FORMULA_COR3_1 = "cor3_1"
FORMULA_REMARK1_1 = "remark1_1"

# Field caps, checked before any bound is evaluated: p^d < 2^MAX_FIELD_BITS
# keeps q and a bound in up to 5 variables printable, and d*delta <=
# MAX_GLOBAL_DEGREE keeps the global facet sum to about 1 s at the 1000-digit
# precision cap.  A bound past the interpreter's 4300 printable digits is
# refused, before any power is formed when its factor valuation_vector_cap is.
MAX_FIELD_BITS = 2048
MAX_GLOBAL_DEGREE = 24
MAX_BOUND_DIGITS = 4300
_PAST_DIGITS = f"the {{}} bound has more than {MAX_BOUND_DIGITS} digits, the cap MAX_BOUND_DIGITS"


@dataclass(frozen=True)
class LocalField:
    """A degree-d extension of the p-adic rationals, given by its ramification
    degree e and residue degree f: d = e*f and residue cardinality q = p^f."""

    p: int
    e: int = 1
    f: int = 1

    def __post_init__(self) -> None:
        require_prime(self.p)
        require_int("e", self.e, 1)
        require_int("f", self.f, 1)
        if self.d * math.log2(self.p) > MAX_FIELD_BITS:
            raise ParamError(f"p^d = {self.p}^{self.d} exceeds the cap 2^{MAX_FIELD_BITS} "
                             "(MAX_FIELD_BITS)")

    @property
    def d(self) -> int:
        return self.e * self.f

    @property
    def q(self) -> int:
        return self.p ** self.f


@dataclass(frozen=True)
class GlobalField:
    """A degree-d number field, with roots counted up to degree delta over it."""

    d: int
    delta: int

    def __post_init__(self) -> None:
        require_int("d", self.d, 1)  # d is None for --global without --d
        require_int("delta", self.delta, 1)
        if self.d * self.delta > MAX_GLOBAL_DEGREE:
            raise ParamError(f"d*delta = {self.d * self.delta} exceeds the cap "
                             f"{MAX_GLOBAL_DEGREE} (MAX_GLOBAL_DEGREE)")


@dataclass(frozen=True)
class BoundReport:
    formula_id: str
    raw: UpperReal
    integer_bound: int
    inputs: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "raw": self.raw.to_decimal_string(30),
            "integer_bound": self.integer_bound,
            "inputs": {k: str(v) for k, v in sorted(self.inputs.items())},
            "notes": list(self.notes),
        }


def _report(
    formula_id: str, iv: Interval, inputs: dict, notes: tuple[str, ...] = ()
) -> BoundReport:
    raw = iv.upper()
    if raw.value.adjusted() >= MAX_BOUND_DIGITS:
        raise ParamError(_PAST_DIGITS.format(formula_id))
    floor = raw.floor_int()
    if floor < 0:
        notes = notes + ("negative raw bound clamped to 0: no roots in this regime",)
        floor = 0
    return BoundReport(formula_id, raw, floor, inputs, notes)


def _counts(m: int, n: int, k: int = 1) -> None:
    require_int("m", m, 1)
    require_int("n", n, 1, MAX_VARS)
    require_int("k", k, 1)


def _check_cap_digits(formula_id: str, m: int, n: int) -> None:
    """Refuse a Theorem 1 bound, valuation_vector_cap(m, n) times factors > 1,
    when the cap is >= 10^MAX_BOUND_DIGITS: for b the bits of m - 1, its log2
    is at least b - 1, 2b or n(2b - 3) for n = 1, n = 2 or n >= 3."""
    b = (m - 1).bit_length()
    log2_cap = b - 1 if n == 1 else 2 * b if n == 2 else n * (2 * b - 3)
    if log2_cap > MAX_BOUND_DIGITS * math.log2(10):
        raise ParamError(_PAST_DIGITS.format(formula_id))


def _term_counts(m_list: Sequence[int], n: int) -> tuple[int, ...]:
    m_list = tuple(require_int("each m_list entry", m_i, 1) for m_i in m_list)
    if len(m_list) != n:
        raise ParamError("need one term count per equation")
    return m_list


def _zero_report(formula_id: str, inputs: dict, reason: str) -> BoundReport:
    return BoundReport(
        formula_id, Interval.exact(0).upper(), 0, inputs, (f"zero case: {reason}",)
    )


# ---------------------------------------------------------------------------
# Near-one root count bounds over the p-adic complex numbers
# ---------------------------------------------------------------------------


def _cp_general_interval(m: int, n: int, rv: tuple[Fraction, ...], p: int) -> Interval:
    prod_r = math.prod(rv, start=Fraction(1))
    return (near_one_radius(m, n, rv, p) ** n) / prod_r


def _cp_per_equation_interval(
    m_list: Sequence[int], n: int, rv: tuple[Fraction, ...], p: int
) -> Interval:
    s = sum(rv, Fraction(0))
    acc = euler_ratio() ** n
    for i, m_i in enumerate(m_list):
        acc = acc * ((m_i - 1) * (s + near_one_log(m_i, n, rv, p)) / rv[i])
    return acc


def cp_bound(m: int, n: int, r: Sequence, p: int) -> BoundReport:
    """Roots with every coordinate p-adically within r_i of 1: the general
    m-sparse form."""
    require_prime(p)
    _counts(m, n)
    rv = _validate_r(r, n)
    inputs = {"m": m, "n": n, "p": p, "r": tuple(format_rational(x) for x in rv)}
    if m <= n:
        return _zero_report(FORMULA_THM2_GENERAL, inputs, "m <= n")
    return _report(FORMULA_THM2_GENERAL, _cp_general_interval(m, n, rv, p), inputs)


def cp_bound_per_equation(
    m_list: Sequence[int], n: int, r: Sequence, p: int
) -> BoundReport:
    """Sharper near-one bound using the per-equation term counts."""
    require_prime(p)
    rv = _validate_r(r, require_int("n", n, 1, MAX_VARS))
    m_list = _term_counts(m_list, n)
    inputs = {
        "m_list": m_list,
        "n": n,
        "p": p,
        "r": tuple(format_rational(x) for x in rv),
    }
    if any(m_i <= 1 for m_i in m_list):
        return _zero_report(FORMULA_THM2_PER_EQ, inputs, "some m_i <= 1")
    return _report(
        FORMULA_THM2_PER_EQ, _cp_per_equation_interval(m_list, n, rv, p), inputs
    )


# ---------------------------------------------------------------------------
# Local and global headline bounds
# ---------------------------------------------------------------------------


# The closed-form intervals below depend only on a few small integers and the
# working precision, so each is memoised on them (arith._per_precision); a
# request multiplies a cached interval by its facet count, if any.  The
# near-one bounds at a caller's radii (cp_bound, cp_bound_per_equation,
# log_inequality_check) are not memoised whole, since their radii rarely
# repeat across requests; their one transcendental term, newton.near_one_log,
# is, and so is newton.near_one_radius, so the bounds, the implication and
# the containment check at one (m, n, r, p) share both.


@_per_precision
def _local_interval(p: int, d: int, m: int, n: int) -> Interval:
    arg = Interval.from_fraction(Fraction(d * (m - 1))) / ln_prime(p)
    inner = (
        euler_ratio()
        * (m - 1)
        * n
        * (p**d - 1)
        * (1 + d * log_base(arg, p))
    )
    return valuation_vector_cap(m, n) * (inner ** n)


def local_bound(fs: LocalField, m: int, n: int, k: int) -> BoundReport:
    """Isolated torus roots in a degree-d extension of the p-adics."""
    _counts(m, n, k)
    inputs = {"m": m, "n": n, "k": k, "p": fs.p, "d": fs.d, "e": fs.e, "q": fs.q}
    if m <= n or k < n:
        return _zero_report(FORMULA_THM1_LOCAL, inputs, "m <= n or k < n")
    _check_cap_digits(FORMULA_THM1_LOCAL, m, n)
    return _report(FORMULA_THM1_LOCAL, _local_interval(fs.p, fs.d, m, n), inputs)


@_per_precision
def _global_interval(d: int, delta: int, m: int, n: int) -> Interval:
    dd = d * delta
    arg = Interval.from_fraction(Fraction(d * d * delta * delta * (m - 1))) / ln_prime(2)
    inner = (
        euler_ratio()
        * (m - 1)
        * n
        * 2**dd
        * (1 + 2 * d * d * delta * delta * log_base(arg, 2))
    )
    return 2 * valuation_vector_cap(m, n) * (inner ** n)


def global_bound(fs: GlobalField, m: int, n: int, k: int) -> BoundReport:
    """Isolated roots of degree <= delta over a degree-d number field."""
    _counts(m, n, k)
    inputs = {"m": m, "n": n, "k": k, "d": fs.d, "delta": fs.delta}
    notes = ("zero condition applied as k < n, matching the local statement",)
    if m <= n or k < n:
        return _zero_report(FORMULA_THM1_GLOBAL, inputs, "m <= n or k < n")
    _check_cap_digits(FORMULA_THM1_GLOBAL, m, n)
    return _report(FORMULA_THM1_GLOBAL, _global_interval(fs.d, fs.delta, m, n), inputs, notes)


@_per_precision
def _facet_cp_interval(
    m: int | None, m_list: tuple[int, ...] | None, n: int, e: int, p: int
) -> Interval:
    """The near-one bound of Cor 2.1 at the uniform radius 1/e: the
    per-equation form when m_list is given, else the general form in m."""
    r = tuple(Fraction(1, e) for _ in range(n))
    if m_list is not None:
        return _cp_per_equation_interval(m_list, n, r, p)
    return _cp_general_interval(m, n, r, p)


def local_facet_bound_from_counts(
    facets: int,
    n: int,
    fs: LocalField,
    m: int | None = None,
    m_list: Sequence[int] | None = None,
) -> BoundReport:
    """Facet-count refinement of the local bound.

    Uses the per-equation near-one bound when per-equation term counts are
    supplied (valid for square systems), otherwise the general form with the
    total count m; the notes record which form was used.
    """
    require_int("facets", facets, 0)
    require_int("n", n, 1, MAX_VARS)
    inputs = {"facets": facets, "n": n, "p": fs.p, "e": fs.e, "q": fs.q}
    if m is not None:
        inputs["m"] = require_int("m", m, 1)
        if m <= n:
            return _zero_report(FORMULA_COR2_1, inputs, "m <= n")
    if m_list is not None:
        inputs["m_list"] = m_list = _term_counts(m_list, n)
        if any(m_i <= 1 for m_i in m_list):
            return _zero_report(FORMULA_COR2_1, inputs, "some m_i <= 1")
        cp = _facet_cp_interval(None, m_list, n, fs.e, fs.p)
        note = "per-equation near-one form"
    else:
        if m is None:
            raise ParamError("need m or m_list")
        cp = _facet_cp_interval(m, None, n, fs.e, fs.p)
        note = "general near-one form"
    iv = facets * ((fs.q - 1) ** n) * cp
    return _report(FORMULA_COR2_1, iv, inputs, (note,))


def local_facet_bound(F: SparseSystem, fs: LocalField) -> BoundReport:
    m_list = F.m_counts if F.k == F.n else None
    return local_facet_bound_from_counts(facet_count(F, fs.p), F.n, fs, m=F.m, m_list=m_list)


def _level_denominator(dd: int, j: int) -> int:
    """1/radius of subgroup level j in the Cor 3.1 sum: ceil(dd/j) * dd."""
    return -(-dd // j) * dd


@_per_precision
def _level_sum_interval(m: int, n: int, dd: int) -> Interval:
    """The Cor 3.1 sum over levels j = 1..dd of (2^j - 1)^n times the
    2-adic near-one bound at radius 1/(ceil(dd/j) * dd), dd = d*delta."""
    total = Interval.exact(0)
    for j in range(1, dd + 1):
        r = tuple(Fraction(1, _level_denominator(dd, j)) for _ in range(n))
        total = total + ((2**j - 1) ** n) * _cp_general_interval(m, n, r, 2)
    return total


def global_facet_sum_bound_from_counts(
    facets: int, m: int, n: int, fs: GlobalField
) -> BoundReport:
    """Facet-count refinement of the global bound: the sum over subgroup
    levels j of (2^j - 1)^n times the 2-adic near-one bound at radius
    1/(ceil(d*delta/j) * d*delta)."""
    require_int("facets", facets, 0)
    _counts(m, n)
    dd = fs.d * fs.delta
    inputs = {"facets": facets, "m": m, "n": n, "d": fs.d, "delta": fs.delta}
    if m <= n:
        return _zero_report(FORMULA_COR3_1, inputs, "m <= n")
    iv = facets * _level_sum_interval(m, n, dd)
    notes = (
        "2-adic embedding fixes p = 2 for every summand",
        "per-level radii: " + ", ".join(
            format_rational(Fraction(1, _level_denominator(dd, j))) for j in range(1, dd + 1)
        ),
    )
    return _report(FORMULA_COR3_1, iv, inputs, notes)


def global_facet_sum_bound(F: SparseSystem, fs: GlobalField) -> BoundReport:
    return global_facet_sum_bound_from_counts(facet_count(F, 2), F.m, F.n, fs)


def affine_bound(fs: LocalField | GlobalField, m: int, n: int, k: int) -> BoundReport:
    """Bound off the torus: zero coordinates handled by summing the field's
    torus bound over all variable subsets, with the 2^n relaxation reported
    alongside."""
    _counts(m, n, k)
    _check_cap_digits(FORMULA_REMARK1_1, m, min(n, k, m - 1))  # the largest j summed below
    if isinstance(fs, LocalField):
        base, interval = FORMULA_THM1_LOCAL, functools.partial(_local_interval, fs.p, fs.d)
    else:
        base, interval = FORMULA_THM1_GLOBAL, functools.partial(_global_interval, fs.d, fs.delta)
    interval_at = lambda j: interval(m, j) if (m > j and k >= j) else Interval.exact(0)
    exact = Interval.exact(1)
    for j in range(1, n + 1):
        exact = exact + math.comb(n, j) * interval_at(j)
    relaxed = Interval.exact(1) + (2**n) * interval_at(n)
    inputs = {"base": base, "m": m, "n": n, "k": k}
    notes = (
        f"relaxed form 1 + 2^n * B_n evaluates to {relaxed.upper().to_decimal_string(30)}",
        f"exact subset sum <= relaxation: {exact.hi <= relaxed.hi}",
    )
    return _report(FORMULA_REMARK1_1, exact, inputs, notes)


# ---------------------------------------------------------------------------
# The weighted-log implication used in the containment proof machinery
# ---------------------------------------------------------------------------


def log_inequality_check(
    r: Sequence, t: Sequence, m: int, p: int
) -> tuple[bool, bool]:
    """Evaluate the two sides of the slow-decay implication.

    Returns (hypothesis, conclusion) where the hypothesis is True only when
    it certainly holds and the conclusion is True unless it certainly fails;
    with those semantics, asserting hypothesis-implies-conclusion can only
    fail on a genuine violation beyond interval slack.
    """
    require_prime(p)
    rv = to_vec(r, "r")
    tv = to_vec(t, "t")
    if len(rv) != len(tv):
        raise ParamError("r and t must have equal length")
    if any(x <= 0 for x in rv) or any(x <= 0 for x in tv):
        raise ParamError("r and t must be positive")
    require_int("m", m, 2)
    n = len(rv)
    s_rt = sum((a * b for a, b in zip(rv, tv)), Fraction(0))
    s_r = sum(rv, Fraction(0))
    log_sum = Interval.exact(0)
    for x in tv:
        log_sum = log_sum + log_base(x, p)
    lhs_hyp = Interval.from_fraction(s_rt) - (m - 1) * log_sum
    hypothesis = lhs_hyp.certainly_le(Fraction(m - 1) * s_r)

    rhs = near_one_radius(m, n, rv, p)
    conclusion = Interval.from_fraction(s_rt).possibly_le(rhs)
    return hypothesis, conclusion
