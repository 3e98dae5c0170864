import contextvars
import functools
import io
import math
import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from rootbounds import bounds
from rootbounds.arith import Interval, euler_ratio, get_precision, ln_prime, log_base, set_precision
from rootbounds.bounds import (
    FORMULA_COR2_1,
    FORMULA_COR3_1,
    FORMULA_REMARK1_1,
    FORMULA_THM1_GLOBAL,
    FORMULA_THM1_LOCAL,
    FORMULA_THM2_GENERAL,
    FORMULA_THM2_PER_EQ,
    MAX_FIELD_BITS,
    MAX_GLOBAL_DEGREE,
    GlobalField,
    LocalField,
    affine_bound,
    cp_bound,
    cp_bound_per_equation,
    global_bound,
    global_facet_sum_bound_from_counts,
    local_bound,
    local_facet_bound,
    local_facet_bound_from_counts,
    log_inequality_check,
    valuation_vector_cap,
)
from rootbounds.binomials import expansion_coeffs, gen_binomial, lcm_profile
from rootbounds.cli import main
from rootbounds.errors import ParamError
from rootbounds.newton import (
    SparsePolynomial,
    SparseSystem,
    containment_check,
    facet_count,
    near_one_log,
    near_one_radius,
    valuation_face_bound,
)
from rootbounds.oracle import (
    count_binomial_system,
    product_system,
    product_system_root_count,
    rational_root_search,
    smith_normal_form,
)
from rootbounds.polyhedra import convex_hull, face

SEED = 0xB0B


Q2 = LocalField(2, 1, 1)


def test_field_spec_validation():
    fs = LocalField(3, 2, 2)
    assert fs.d == 4 and fs.q == 9
    assert fs.e <= fs.d and fs.q <= fs.p**fs.d
    with pytest.raises(ValueError):
        LocalField(4, 1, 1)  # not prime
    with pytest.raises(ValueError):
        LocalField(2, 0, 1)
    with pytest.raises(ValueError):
        GlobalField(0, 1)


def test_field_caps_refuse_before_any_bound_is_evaluated():
    # at the caps: 2^2048, 3^1292 < 2^2048, and d*delta = 24
    assert LocalField(2, MAX_FIELD_BITS).d == MAX_FIELD_BITS
    assert LocalField(3, 2, 646).d == 1292 and LocalField(3, 2, 646).q == 3**646
    assert GlobalField(4, 6).d * GlobalField(4, 6).delta == MAX_GLOBAL_DEGREE
    for make in (
        lambda: LocalField(2, MAX_FIELD_BITS + 1),
        lambda: LocalField(3, 1, 1293),
        lambda: LocalField(2, 10**9, 10**9),
        lambda: LocalField(1000003, 3000),
    ):
        with pytest.raises(ValueError, match="MAX_FIELD_BITS"):
            make()
    for d, delta in [(25, 1), (5, 5), (3000, 10)]:
        with pytest.raises(ValueError, match="MAX_GLOBAL_DEGREE"):
            GlobalField(d, delta)
    # every field the benchmark corpus draws stays accepted
    for d in range(1, 5):
        for delta in range(1, 4):
            GlobalField(d, delta)


FLOAT = "must be ints or Fractions (a float is inexact), got"
SQUARE = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
X2_MINUS_4 = SparseSystem.of([SparsePolynomial.from_dict({(2,): 1, (0,): -4})])
HUGE_M = 10**4999 + 7  # 5000 digits


@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=name) for name, call, message in [
    ("no-degree", lambda: GlobalField(None, 1), "d must be an integer >= 1, got None"),
    ("delta-0", lambda: GlobalField(1, 0), "delta must be an integer >= 1, got 0"),
    ("r-length", lambda: cp_bound(3, 2, (1,), 2), "r must have length 2"),
    ("r-zero", lambda: cp_bound(3, 1, (0,), 2), "r components must be positive"),
    ("containment-r", lambda: containment_check(
        SparseSystem.of([SparsePolynomial.from_dict({(0,): 1, (1,): 1})]), 2, (-1,)),
     "r components must be positive"),
    ("m-list-length", lambda: cp_bound_per_equation((3,), 2, (1, 1), 2),
     "need one term count per equation"),
    ("r-t-length", lambda: log_inequality_check((1,), (1, 1), 3, 2), "r and t must have equal length"),
    ("t-zero", lambda: log_inequality_check((1,), (0,), 3, 2), "r and t must be positive"),
    ("m-1", lambda: log_inequality_check((1,), (1,), 1, 2), "m must be an integer >= 2, got 1"),
    # integers: a float, bool, string or None is refused, never truncated
    ("local-m-float", lambda: local_bound(Q2, 3.5, 1, 1), "m must be an integer >= 1, got 3.5"),
    ("local-e-float", lambda: LocalField(2, 2.5, 1), "e must be an integer >= 1, got 2.5"),
    ("local-f-bool", lambda: LocalField(2, 1, True), "f must be an integer >= 1, got True"),
    ("global-d-float", lambda: GlobalField(1.5, 1), "d must be an integer >= 1, got 1.5"),
    ("global-n-str", lambda: global_bound(GlobalField(1, 1), 3, "1", 1),
     "n must be an integer >= 1 and <= 100, got '1'"),
    ("exponent-float", lambda: SparsePolynomial.from_dict({(2.7, 1): 1, (0, 0): -1}),
     "each exponent must be an integer, got 2.7"),
    ("exponent-str", lambda: SparsePolynomial.from_dict({("2",): 1}),
     "each exponent must be an integer, got '2'"),
    ("exponent-list", lambda: SparsePolynomial.from_dict({"12": 1}),
     "exponents must be tuples of integers, got '12'"),
    ("affine-m-float", lambda: affine_bound(Q2, 3.5, 1, 1), "m must be an integer >= 1, got 3.5"),
    ("affine-k-none", lambda: affine_bound(Q2, 3, 1, None), "k must be an integer >= 1, got None"),
    ("cp-m-float", lambda: cp_bound(1.5, 1, [Fraction(1, 2)], 2), "m must be an integer >= 1, got 1.5"),
    ("per-eq-m-float", lambda: cp_bound_per_equation((2.9, 3), 2, (1, 1), 2),
     "each m_list entry must be an integer >= 1, got 2.9"),
    ("facets-float", lambda: local_facet_bound_from_counts(1.5, 1, Q2, m=3),
     "facets must be an integer >= 0, got 1.5"),
    ("facet-m-float", lambda: local_facet_bound_from_counts(1, 1, Q2, m=3.5),
     "m must be an integer >= 1, got 3.5"),
    ("facet-m-list-length", lambda: local_facet_bound_from_counts(1, 1, Q2, m_list=(3, 3)),
     "need one term count per equation"),
    ("sum-n-float", lambda: global_facet_sum_bound_from_counts(1, 3, 1.0, GlobalField(1, 1)),
     "n must be an integer >= 1 and <= 100, got 1.0"),
    ("log-m-float", lambda: log_inequality_check((1,), (1,), 2.5, 2), "m must be an integer >= 2, got 2.5"),
    ("cap-m-float", lambda: valuation_vector_cap(2.5, 1), "m must be an integer >= 2, got 2.5"),
    ("precision-float", lambda: set_precision(40.5),
     "precision must be an integer >= 30 and <= 1000, got 40.5"),
    ("height-cap-float", lambda: rational_root_search(X2_MINUS_4, 2.5),
     "height_cap must be an integer >= 1, got 2.5"),
    ("product-m-float", lambda: product_system(2.5, 1), "m must be an integer >= 2 and <= 8, got 2.5"),
    ("product-count-n-4", lambda: product_system_root_count(3, 4),
     "n must be an integer >= 1 and <= 3, got 4"),
    ("lcm-m-float", lambda: lcm_profile(2.5, 3), "m must be an integer >= 0, got 2.5"),
    ("support-float", lambda: expansion_coeffs((0, 1.5), 3),
     "each support element must be an integer, got 1.5"),
    ("expansion-t-float", lambda: expansion_coeffs((0, 1), 2.5), "t must be an integer >= 0, got 2.5"),
    ("binomial-a-float", lambda: gen_binomial(2.5, 1), "a must be an integer, got 2.5"),
    ("snf-empty-row", lambda: smith_normal_form([[]]),
     "smith normal form takes a nonempty rectangular matrix a"),
    ("snf-float", lambda: smith_normal_form([[1.5]]), "each entry of a must be an integer, got 1.5"),
    ("binomial-system-a-float", lambda: count_binomial_system([[2.0]], [1], 2),
     "each entry of a must be an integer, got 2.0"),
    # rationals: ints and Fractions only, since Fraction(0.1) is not 1/10
    ("coefficient-float", lambda: SparsePolynomial.from_dict({(1,): 0.1}), f"coefficients {FLOAT} 0.1"),
    ("coefficient-str", lambda: SparsePolynomial.from_dict({(1,): "1/2"}), f"coefficients {FLOAT} '1/2'"),
    ("cp-r-float", lambda: cp_bound(3, 1, [0.1], 2), f"r {FLOAT} 0.1"),
    ("log-t-float", lambda: log_inequality_check((1,), (0.5,), 3, 2), f"t {FLOAT} 0.5"),
    ("face-bound-r-float", lambda: valuation_face_bound(X2_MINUS_4, 2, (0.5,)), f"r {FLOAT} 0.5"),
    ("binomial-system-c-float", lambda: count_binomial_system([[2]], [0.5], 2), f"c {FLOAT} 0.5"),
    ("hull-point-float", lambda: convex_hull([(0, 0), (0.5, 1)]), f"points {FLOAT} 0.5"),
    ("face-w-float", lambda: face(SQUARE, (0.5, 1)), f"w {FLOAT} 0.5"),
    # shapes that ran unbounded, or escaped as decimal.Overflow
    ("n-1e5", lambda: local_bound(Q2, 10**5 + 1, 10**5, 10**5),
     "n must be an integer >= 1 and <= 100, got 100000"),
    ("affine-n-1e30", lambda: affine_bound(Q2, 10**30 + 1, 10**30, 10**30),
     f"n must be an integer >= 1 and <= 100, got {10**30}"),
    ("facet-n-1e30", lambda: local_facet_bound_from_counts(1, 10**30, Q2, m=10**30 + 1),
     f"n must be an integer >= 1 and <= 100, got {10**30}"),
    ("m-5000-digits", lambda: local_bound(Q2, HUGE_M, 100, 100),
     "the thm1_local bound has more than 4300 digits, the cap MAX_BOUND_DIGITS"),
    ("global-m-5000-digits", lambda: global_bound(GlobalField(1, 1), HUGE_M, 3, 3),
     "the thm1_global bound has more than 4300 digits, the cap MAX_BOUND_DIGITS"),
    ("affine-m-5000-digits", lambda: affine_bound(Q2, HUGE_M, 1, 1),
     "the remark1_1 bound has more than 4300 digits, the cap MAX_BOUND_DIGITS"),
]])
def test_library_refusals_name_their_parameter(call, message):
    t0 = time.perf_counter()
    with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
        contextvars.copy_context().run(call)
    assert time.perf_counter() - t0 < 1.0


def test_valuation_vector_cap():
    assert valuation_vector_cap(5, 2) == 64
    assert valuation_vector_cap(2, 1) == 1
    assert valuation_vector_cap(4, 3) == 216
    with pytest.raises(ValueError):
        valuation_vector_cap(1, 1)


# ---------------------------------------------------------------------------
# near-one bounds
# ---------------------------------------------------------------------------


def test_cp_zero_case():
    rep = cp_bound(2, 2, (Fraction(1), Fraction(1)), 3)
    assert rep.integer_bound == 0
    assert rep.raw.value == 0


def test_cp_trinomial_reference_value():
    rep = cp_bound(3, 1, (Fraction(1),), 2)
    assert abs(rep.raw.value - Decimal("8.0009")) < Decimal("0.001")
    assert rep.integer_bound == 8


def test_cp_doubling_r_never_increases_small_radii():
    rep1 = cp_bound(4, 2, (Fraction(1, 8), Fraction(1, 8)), 2)
    rep2 = cp_bound(4, 2, (Fraction(1, 4), Fraction(1, 4)), 2)
    assert rep2.raw.value <= rep1.raw.value


def test_cp_per_equation_reference_value():
    rep = cp_bound_per_equation((3, 3), 2, (Fraction(1), Fraction(1)), 2)
    assert abs(rep.raw.value - Decimal("256.05")) < Decimal("0.05")


def test_cp_per_equation_zero_case():
    rep = cp_bound_per_equation((3, 1), 2, (Fraction(1), Fraction(1)), 2)
    assert rep.integer_bound == 0


def test_cp_equal_term_counts_match_general_form():
    rng = random.Random(SEED)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, n + 5)
        r = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(n))
        p = rng.choice([2, 3, 5])
        a = cp_bound(m, n, r, p)
        b = cp_bound_per_equation((m,) * n, n, r, p)
        assert a.integer_bound == b.integer_bound
        rel = abs(a.raw.value - b.raw.value) / max(a.raw.value, Decimal(1))
        assert rel < Decimal("1e-25")


# ---------------------------------------------------------------------------
# local bounds
# ---------------------------------------------------------------------------


def test_local_bound_zero_cases():
    assert local_bound(Q2, 3, 3, 5).integer_bound == 0
    assert local_bound(Q2, 5, 2, 1).integer_bound == 0


def test_local_bound_headline_value():
    rep = local_bound(Q2, 5, 2, 2)
    assert abs(rep.integer_bound - 127645) / 127645 < 0.001


def test_local_bound_cross_checked_by_float_evaluation():
    fs = LocalField(3, 1, 1)
    rep = local_bound(fs, 2, 1, 1)
    c = math.e / (math.e - 1)
    inner = c * 1 * 1 * (3 - 1) * (1 + math.log(1 * 1 / math.log(3), 3))
    expected = valuation_vector_cap(2, 1) * inner
    assert expected > 0
    assert abs(float(rep.raw.value) - expected) / expected < 1e-12


def test_local_facet_bound_reference_2304():
    rep = local_facet_bound_from_counts(9, 2, Q2, m_list=(3, 3))
    assert rep.integer_bound in (2303, 2304, 2305)
    assert "per-equation" in rep.notes[0]


def test_local_facet_bound_matches_simplified_expression():
    for mu in range(4, 9):
        rep = local_facet_bound_from_counts(6 * mu, 2, Q2, m_list=(3, mu))
        ref = 304 * (mu - 1) * mu * (1 + math.log2((mu - 1) / 0.693))
        assert abs(float(rep.raw.value) - ref) / ref < 0.01


def test_local_facet_bound_binomial_system_dominates_count():
    f1 = SparsePolynomial.from_dict({(2, 0): Fraction(1), (0, 0): Fraction(-4)})
    f2 = SparsePolynomial.from_dict({(0, 2): Fraction(1), (0, 0): Fraction(-4)})
    system = SparseSystem.of([f1, f2])
    rep = local_facet_bound(system, Q2)
    assert rep.formula_id == FORMULA_COR2_1
    assert rep.integer_bound >= 4  # SNF count of the system


def test_local_facet_bound_general_flag():
    f1 = SparsePolynomial.from_dict({(2, 0): Fraction(1), (0, 0): Fraction(-4)})
    f2 = SparsePolynomial.from_dict({(0, 2): Fraction(1), (0, 0): Fraction(-4)})
    system = SparseSystem.of([f1, f2])
    rep = local_facet_bound_from_counts(facet_count(system, 2), system.n, Q2, m=system.m)
    assert "general" in rep.notes[0]


# ---------------------------------------------------------------------------
# global bounds
# ---------------------------------------------------------------------------


def test_global_bound_zero_and_value():
    gfs = GlobalField(1, 1)
    assert global_bound(gfs, 2, 2, 2).integer_bound == 0
    rep = global_bound(gfs, 3, 1, 1)
    assert abs(rep.raw.value - Decimal("102.7")) < Decimal("0.1")


def test_global_sum_single_term_collapse():
    rep = global_facet_sum_bound_from_counts(1, 3, 1, GlobalField(1, 1))
    single = cp_bound(3, 1, (Fraction(1),), 2)
    assert abs(rep.raw.value - single.raw.value) < Decimal("1e-20")


def test_global_sum_term_radii():
    rep = global_facet_sum_bound_from_counts(1, 3, 1, GlobalField(1, 2))
    assert "1/4, 1/2" in rep.notes[-1]


def test_global_sum_dominated_by_headline_bound():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        d = rng.randint(1, 3)
        delta = rng.randint(1, 3)
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, n + 6)
        cap = valuation_vector_cap(m, n)
        gfs = GlobalField(d, delta)
        refined = global_facet_sum_bound_from_counts(cap, m, n, gfs)
        headline = global_bound(gfs, m, n, n)
        assert refined.raw.value <= headline.raw.value


# ---------------------------------------------------------------------------
# affine variant
# ---------------------------------------------------------------------------


def test_affine_bound_n1():
    rep = affine_bound(Q2, 3, 1, 1)
    base = local_bound(Q2, 3, 1, 1)
    assert abs(rep.raw.value - (1 + base.raw.value)) < Decimal("1e-18")


def test_affine_bound_all_zero_base():
    rep = affine_bound(Q2, 1, 3, 3)
    assert rep.integer_bound == 1


def test_affine_bound_exact_below_relaxation():
    rep = affine_bound(Q2, 5, 2, 2)
    relaxed = 1 + 4 * local_bound(Q2, 5, 2, 2).raw.value
    assert rep.raw.value < relaxed
    assert "exact subset sum <= relaxation: True" in rep.notes[1]


def test_affine_bound_base_follows_field_kind():
    # the torus bound summed over variable subsets is the field's own
    gfs = GlobalField(2, 1)
    assert affine_bound(Q2, 5, 2, 2).inputs["base"] == FORMULA_THM1_LOCAL
    assert affine_bound(gfs, 5, 2, 2).inputs["base"] == FORMULA_THM1_GLOBAL
    for fs, bound in [(Q2, local_bound), (gfs, global_bound)]:
        rep = affine_bound(fs, 3, 1, 1)
        assert abs(rep.raw.value - (1 + bound(fs, 3, 1, 1).raw.value)) < Decimal("1e-18")


def test_affine_bound_global_base():
    gfs = GlobalField(1, 1)
    rep = affine_bound(gfs, 3, 1, 1)
    assert rep.formula_id == FORMULA_REMARK1_1
    assert rep.integer_bound >= 1


# ---------------------------------------------------------------------------
# the weighted-log implication
# ---------------------------------------------------------------------------


def test_log_inequality_reference_case():
    hyp, concl = log_inequality_check((Fraction(1),), (Fraction(1),), 2, 2)
    assert hyp and concl


def test_log_inequality_never_violated_bulk():
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        n = rng.randint(1, 3)
        m = rng.randint(2, 10)
        p = rng.choice([2, 3, 5])
        r = tuple(Fraction(rng.randint(1, 200), rng.randint(1, 50)) for _ in range(n))
        t = tuple(Fraction(rng.randint(1, 200), rng.randint(1, 50)) for _ in range(n))
        hyp, concl = log_inequality_check(r, t, m, p)
        assert (not hyp) or concl


def _inline_radius(m, n, r, p):
    """The near-one radius with its log term written inline, unmemoised."""
    s = sum(r, Fraction(0))
    prod_r = math.prod(r, start=Fraction(1))
    arg = Interval.from_fraction(Fraction((m - 1) ** n) / prod_r) / (ln_prime(p) ** n)
    return euler_ratio() * (m - 1) * (s + log_base(arg, p))


def _inline_per_equation(m_list, n, r, p):
    """The per-equation near-one interval with each log term written inline."""
    s = sum(r, Fraction(0))
    prod_r = math.prod(r, start=Fraction(1))
    ln_p_n = ln_prime(p) ** n
    acc = euler_ratio() ** n
    for i, m_i in enumerate(m_list):
        arg = Interval.from_fraction(Fraction((m_i - 1) ** n) / prod_r) / ln_p_n
        acc = acc * ((m_i - 1) * (s + log_base(arg, p)) / r[i])
    return acc


def _digits_of(iv):
    return iv.lo.as_tuple(), iv.hi.as_tuple()


def test_near_one_layer_matches_the_inline_formula():
    # the radius, both near-one bounds and the log-inequality conclusion read
    # the memoised log term, and give digit for digit what the inline formula
    # gives; the same keys run at each precision in turn, so a log served
    # from another precision shows
    rng = random.Random(SEED + 30)
    cases = []
    for i in range(24):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, n + 6)
        r = tuple(Fraction(rng.randint(1, 200), rng.randint(1, 49)) for _ in range(n))
        t = tuple(Fraction(rng.randint(1, 200), rng.randint(1, 49)) for _ in range(n))
        # equal term counts share one log term, distinct ones do not
        m_list = (m,) * n if i % 2 else tuple(rng.randint(2, 9) for _ in range(n))
        cases.append((m, m_list, n, r, t, rng.choice((2, 3, 5))))

    def check():
        for m, m_list, n, r, t, p in cases:
            radius = _inline_radius(m, n, r, p)
            assert _digits_of(near_one_radius(m, n, r, p)) == _digits_of(radius)
            general = radius**n / math.prod(r, start=Fraction(1))
            assert _digits_of(bounds._cp_general_interval(m, n, r, p)) == _digits_of(general)
            assert cp_bound(m, n, r, p).raw.value.as_tuple() == general.hi.as_tuple()
            per_eq = _inline_per_equation(m_list, n, r, p)
            per_eq_iv = bounds._cp_per_equation_interval(m_list, n, r, p)
            assert _digits_of(per_eq_iv) == _digits_of(per_eq)
            report = cp_bound_per_equation(m_list, n, r, p)
            assert report.raw.value.as_tuple() == per_eq.hi.as_tuple()
            s_rt = sum((a * b for a, b in zip(r, t)), Fraction(0))
            _hyp, concl = log_inequality_check(r, t, m, p)
            assert concl == Interval.from_fraction(s_rt).possibly_le(radius)

    for digits in (40, 80, 1000):
        _at_precision(digits, check)


def test_geometry_reproduces_per_equation_product_form():
    # replacing the transcendental simplex radii by exact rationals, the
    # mixed volume of the scaled corner simplices is the product of the
    # radii over the product of the weights, mirroring the per-equation form
    from rootbounds.polyhedra import convex_hull, mixed_volume

    rng = random.Random(SEED + 4)
    for _ in range(12):
        n = rng.randint(1, 3)
        r = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
        lams = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        simplices = []
        for lam in lams:
            pts = [tuple(Fraction(0) for _ in range(n))] + [
                tuple(lam / r[j] if j == i else Fraction(0) for j in range(n))
                for i in range(n)
            ]
            simplices.append(convex_hull(pts))
        expected = math.prod(lams, start=Fraction(1)) / math.prod(
            r, start=Fraction(1)
        )
        assert mixed_volume(simplices) == expected


def test_monotone_in_each_radius_on_small_grid():
    grid = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(1, 2)]
    rng = random.Random(SEED + 3)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, n + 6)
        p = rng.choice([2, 3, 5])
        m_list = tuple(rng.randint(2, m) for _ in range(n))
        others = [rng.choice(grid) for _ in range(n)]
        for i in range(n):
            prev = None
            prev_eq = None
            for g in grid:
                r = list(others)
                r[i] = g
                val = cp_bound(m, n, r, p).raw.value
                val_eq = cp_bound_per_equation(m_list, n, r, p).raw.value
                if prev is not None:
                    assert val <= prev
                    assert val_eq <= prev_eq
                prev, prev_eq = val, val_eq


def test_formula_ids_and_json():
    rep = local_bound(Q2, 5, 2, 2)
    obj = rep.to_json_obj()
    assert obj["formula_id"] == FORMULA_THM1_LOCAL
    assert obj["integer_bound"] == 127645
    assert "raw" in obj and "inputs" in obj
    assert cp_bound(3, 1, (Fraction(1),), 2).formula_id == FORMULA_THM2_GENERAL
    assert (
        cp_bound_per_equation((3, 3), 2, (Fraction(1), Fraction(1)), 2).formula_id
        == FORMULA_THM2_PER_EQ
    )
    gfs = GlobalField(1, 1)
    assert global_facet_sum_bound_from_counts(1, 3, 1, gfs).formula_id == FORMULA_COR3_1
    assert global_bound(gfs, 3, 1, 1).formula_id == FORMULA_THM1_GLOBAL


# ---------------------------------------------------------------------------
# the per-precision memo of the closed-form intervals
# ---------------------------------------------------------------------------

# the memoised bound intervals, by name: looked up at call time, so that a
# test can replace them
BOUND_MEMOS = ("_local_interval", "_global_interval", "_facet_cp_interval", "_level_sum_interval")


def _clear_memos():
    memos = (getattr(bounds, name) for name in BOUND_MEMOS)
    for fn in (ln_prime, euler_ratio, near_one_log, *memos):
        fn.cache_clear()


def _at_precision(digits, fn):
    saved = get_precision()
    try:
        set_precision(digits)
        return fn()
    finally:
        set_precision(saved)


def _memo_keys(rng, per_function):
    """(memoised function, argument tuple) over a grid of (p, d, e, f, m, n,
    delta), a seeded sample of per_function keys each when given."""
    grids = {
        ln_prime: [(p,) for p in (2, 3, 5, 7, 101)],
        euler_ratio: [()],
        near_one_log: [
            (m, n, r, p) for p in (2, 5) for n in (1, 2) for m in (n + 1, n + 4)
            for r in ((Fraction(1, 3),) * n, tuple(Fraction(k, 7) for k in range(2, n + 2)))
        ],
        bounds._local_interval: [
            (p, e * f, m, n) for p in (2, 3, 7) for e, f in ((1, 1), (2, 1), (1, 3))
            for m in (3, 6) for n in (1, 2, 3) if m > n
        ],
        bounds._global_interval: [
            (d, delta, m, n) for d in (1, 2, 3) for delta in (1, 2) for m in (3, 6)
            for n in (1, 2) if m > n
        ],
        bounds._facet_cp_interval: [
            (m, m_list, n, e, p) for p in (2, 5) for e in (1, 2) for n in (1, 2)
            for m, m_list in ((n + 2, None), (None, (3,) * n), (None, (2, 5)[:n]))
        ],
        bounds._level_sum_interval: [
            (m, n, d * delta) for d in (1, 2) for delta in (1, 3) for m, n in ((3, 1), (5, 2))
        ],
    }
    for fn, keys in grids.items():
        if per_function is not None and len(keys) > per_function:
            keys = rng.sample(keys, per_function)
        for args in keys:
            yield fn, args


@pytest.mark.parametrize("digits", (30, 40, 80, 1000))
def test_memoised_intervals_match_fresh_evaluation(digits):
    # every memoised interval is digit for digit what its unwrapped function
    # returns at the same precision, on a miss and on the hit after it
    rng = random.Random(SEED + digits)

    def check():
        for fn, args in _memo_keys(rng, 8 if digits == 1000 else None):
            hits = fn.cache_info().hits
            first, again = fn(*args), fn(*args)
            assert fn.cache_info().hits > hits and again is first
            fresh = fn.__wrapped__(*args)
            assert first.lo.as_tuple() == fresh.lo.as_tuple(), (fn, args)
            assert first.hi.as_tuple() == fresh.hi.as_tuple(), (fn, args)

    _at_precision(digits, check)


# bound requests reaching every memoised formula: the local headline and
# per-equation facet bound of a 2x2 system, the general facet bound of a
# univariate, and the global headline and level sum, each with --affine
SWITCH_REQUESTS = (
    (["bound", "-", "--prime", "3", "--affine"], "1 + x1*x2 + x1^2*x2^3\n1 + x1*x2^2 + x1^4*x2\n"),
    (["bound", "-", "--prime", "5", "--e", "2"], "3*x1^10 + x1^2 - 4\n"),
    (["bound", "-", "--global", "--d", "2", "--delta", "2", "--affine"], "x1^7 - 2*x1^3 + 8\n"),
)


def _switch_run(capsys, monkeypatch, digits):
    """The stdout of each SWITCH_REQUESTS run at digits, and the raw upper
    value of library reports at full working precision: the 30-digit JSON
    of these requests reads the same at 40 and at 80 digits."""
    q9 = LocalField(3, 1, 2)
    gfs = GlobalField(2, 3)

    def run():
        outs = []
        for argv, text in SWITCH_REQUESTS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert main(argv + ["--precision", str(digits)]) == 0
            outs.append(capsys.readouterr().out)
        reports = [
            local_bound(q9, 5, 2, 2),
            local_facet_bound_from_counts(7, 2, q9, m=5, m_list=(3, 4)),
            local_facet_bound_from_counts(2, 1, q9, m=4),
            global_bound(gfs, 4, 1, 1),
            global_facet_sum_bound_from_counts(3, 4, 1, gfs),
            affine_bound(q9, 5, 2, 2),
            affine_bound(gfs, 4, 2, 2),
        ]
        return outs, [r.raw.value.as_tuple() for r in reports]

    return _at_precision(digits, run)


def _switch_mismatches(capsys, monkeypatch):
    """Which of the precision-switch checks fail: at 40, 80 and then 40
    digits, the second 40-digit run repeats the first byte for byte, and the
    80-digit run matches one made with every memo emptied."""
    _clear_memos()
    at_40, at_80, again_40 = (_switch_run(capsys, monkeypatch, d) for d in (40, 80, 40))
    _clear_memos()
    fresh_80 = _switch_run(capsys, monkeypatch, 80)
    assert at_40[1] != fresh_80[1]
    return [name for name, ok in (
        ("40 after 80", again_40 == at_40),
        ("80 after 40", at_80 == fresh_80),
    ) if not ok]


def test_bound_request_follows_a_precision_switch(capsys, monkeypatch):
    assert _switch_mismatches(capsys, monkeypatch) == []


def test_precision_switch_check_catches_a_memo_without_the_digits(capsys, monkeypatch):
    # memoising the bound intervals on their arguments alone serves 40-digit
    # intervals to the 80-digit run, which the switch check must see
    for name in BOUND_MEMOS:
        digits_free = functools.lru_cache(maxsize=None)(getattr(bounds, name).__wrapped__)
        monkeypatch.setattr(bounds, name, digits_free)
    assert _switch_mismatches(capsys, monkeypatch) == ["80 after 40"]
