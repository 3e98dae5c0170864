import itertools
import math
import random
from fractions import Fraction

import pytest

from rootbounds import oracle
from rootbounds.arith import ord_p_value
from rootbounds.bounds import LocalField, local_bound, local_facet_bound
from rootbounds.linalg import det
from rootbounds.newton import SparsePolynomial, SparseSystem
from rootbounds.oracle import (
    DEFAULT_PRECISION_CAP,
    MAX_SCAN_PRIME,
    PrecisionCapError,
    RootCount,
    _lower_hull_slopes,
    count_binomial_system,
    count_univariate_padic,
    product_system,
    rational_root_search,
    reduce_to_square,
    smith_normal_form,
    verdict,
)
from rootbounds.parsing import system_to_json_obj

SEED = 0x0AC1E


def poly(d):
    return SparsePolynomial.from_dict({k: Fraction(v) for k, v in d.items()})


def rand_poly(rng, n, terms, deg, coefmax=50):
    d = {}
    while len(d) < terms:
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        c = rng.randint(-coefmax, coefmax)
        if c:
            d[exp] = Fraction(c)
    return SparsePolynomial.from_dict(d)


# ---------------------------------------------------------------------------
# univariate counter
# ---------------------------------------------------------------------------


def test_univariate_examples():
    assert count_univariate_padic(poly({(10,): 3, (2,): 1, (0,): -4}), 2).count == 6
    assert count_univariate_padic(poly({(2,): 1, (0,): -1}), 2).count == 2
    assert count_univariate_padic(poly({(2,): 1, (0,): -2}), 3).count == 0


def test_univariate_prime_above_the_scan_cap_is_refused():
    # refused before the p - 1 residues are scanned; p = 10^9 + 7 ran past 30 s
    f = poly({(2,): 1, (1,): -3, (0,): 2})
    assert count_univariate_padic(f, 9973).count == 2  # the largest prime under the cap
    for p in (MAX_SCAN_PRIME + 7, 10**9 + 7):
        with pytest.raises(ValueError, match="MAX_SCAN_PRIME"):
            count_univariate_padic(f, p)


def test_univariate_known_factorizations():
    # (x-1)(x-2)(x-3) has three roots everywhere
    f = poly({(3,): 1, (2,): -6, (1,): 11, (0,): -6})
    for p in (2, 3, 5, 7):
        assert count_univariate_padic(f, p).count == 3
    # x^2 + 1 over Q_5 splits (5 = 1 mod 4), over Q_3 it does not
    g = poly({(2,): 1, (0,): 1})
    assert count_univariate_padic(g, 5).count == 2
    assert count_univariate_padic(g, 3).count == 0
    # x^3 - x = x(x-1)(x+1): zero roots are excluded, two remain
    h = poly({(3,): 1, (1,): -1})
    assert count_univariate_padic(h, 7).count == 2


def test_univariate_laurent_and_multiplicity():
    f = poly({(-2,): 1, (0,): -1})  # x^-2 - 1: roots +-1
    assert count_univariate_padic(f, 3).count == 2
    sq = poly({(2,): 1, (1,): -2, (0,): 1})  # (x-1)^2
    rc = count_univariate_padic(sq, 5)
    assert rc.count == 1
    assert rc.notes  # squarefree reduction reported
    # the roots of a nonzero univariate polynomial are isolated
    assert (rc.over, rc.isolated) == ("Q_p", True)


def test_univariate_unit_scaling_invariance():
    rng = random.Random(SEED)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        f = rand_poly(rng, 1, 3, 20)
        base = count_univariate_padic(f, p).count
        # x -> u x for a p-adic unit u keeps the count
        unit = Fraction(rng.choice([1, 3, 5, 7, 9]))
        while unit.numerator % p == 0:
            unit += 2
        scaled = SparsePolynomial.from_dict(
            {exp: c * unit ** exp[0] for exp, c in f.terms}
        )
        assert count_univariate_padic(scaled, p).count == base


def test_univariate_counts_below_bounds():
    rng = random.Random(SEED + 1)
    fs_cache = {p: LocalField(p, 1, 1) for p in (2, 3, 5)}
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        m = rng.randint(2, 4)
        f = rand_poly(rng, 1, m, 30)
        count = count_univariate_padic(f, p).count
        system = SparseSystem.of([f])
        thm1 = local_bound(fs_cache[p], f.m, 1, 1)
        refined = local_facet_bound(system, fs_cache[p])
        assert count <= thm1.integer_bound
        assert count <= refined.integer_bound


def test_precision_cap_is_an_error_not_a_wrong_answer():
    # the roots 1 +- 2^65 agree modulo 2^66: past the default cap of levels
    f = poly({(2,): 1, (1,): -2, (0,): 1 - 2**130})  # (x-1)^2 - 2^130
    with pytest.raises(PrecisionCapError, match=f"cap of {DEFAULT_PRECISION_CAP} levels"):
        count_univariate_padic(f, 2)
    f = poly({(2,): 1, (1,): -2, (0,): 1 - 2**40})  # (x-1)^2 - 2^40
    assert count_univariate_padic(f, 2).count == 2


def test_univariate_rejects_multivariate():
    with pytest.raises(ValueError):
        count_univariate_padic(poly({(1, 0): 1, (0, 0): 1}), 2)


# ---------------------------------------------------------------------------
# smith normal form and binomial systems
# ---------------------------------------------------------------------------


def test_snf_verified_random():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        # divisibility chain on the diagonal
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_binomial_examples():
    rc, r = count_binomial_system([[2, 0], [0, 2]], [Fraction(4), Fraction(4)], 2)
    assert rc.count == 4 and r == (Fraction(1), Fraction(1))
    rc, r = count_binomial_system([[1, 0], [0, 1]], [Fraction(5), Fraction(7)], 3)
    assert rc.count == 1
    rc, r = count_binomial_system([[1, 1], [1, -1]], [Fraction(1), Fraction(1)], 3)
    assert rc.count == 2 and r == (Fraction(0), Fraction(0))
    assert (rc.over, rc.isolated) == ("C_p", True)


def test_binomial_rejects_singular():
    with pytest.raises(ValueError):
        count_binomial_system([[1, 1], [2, 2]], [Fraction(1), Fraction(1)], 2)
    with pytest.raises(ValueError):
        count_binomial_system([[1, 0], [0, 1]], [Fraction(0), Fraction(1)], 2)


def test_binomial_count_is_absolute_determinant():
    rng = random.Random(SEED + 3)
    done = 0
    while done < 30:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det(rows)
        if d == 0:
            continue
        c = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        rc, r = count_binomial_system(rows, c, 5)
        assert rc.count == abs(d)
        assert r is not None
        done += 1


# ---------------------------------------------------------------------------
# rational search and product systems
# ---------------------------------------------------------------------------


def test_rational_search_examples():
    pm2 = SparseSystem.of([poly({(2, 0): 1, (0, 0): -4}), poly({(0, 2): 1, (0, 0): -4})])
    assert rational_root_search(pm2, 10).count == 4
    no_roots = SparseSystem.of([poly({(2, 0): 1, (0, 0): -2}), poly({(0, 1): 1, (0, 0): -1})])
    assert rational_root_search(no_roots, 50).count == 0
    # isolation is not certified at k >= n; with k < n no root is isolated
    rc = rational_root_search(pm2, 10)
    assert (rc.over, rc.isolated) == ("Q", None)
    rc = rational_root_search(SparseSystem.of([poly({(1, 0): 1, (0, 0): -1})]), 2)
    assert (rc.count, rc.over, rc.isolated) == (6, "Q", False)  # x2 in {+-1, +-2, +-1/2}


def test_rational_search_caps():
    s = SparseSystem.of([poly({(1, 0, 0): 1, (0, 0, 0): -1})])
    with pytest.raises(ValueError, match="MAX_SEARCH_HEIGHT"):
        rational_root_search(s, oracle.MAX_SEARCH_HEIGHT + 1)
    s = SparseSystem.of([poly({(1, 0, 0, 0): 1, (0, 0, 0, 0): -1})] * 4)
    with pytest.raises(ValueError, match="MAX_SEARCH_VARS"):
        rational_root_search(s, 2)


def test_verification_counts_a_square_binomial_system_of_any_size():
    # polyhedra.MAX_DIM caps the bounds verify builds first; the counters
    # themselves cap only the rational search, at MAX_SEARCH_VARS variables
    n = 7
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    F = SparseSystem.of([poly({tuple(2 * x for x in e): 1, (0,) * n: -(i + 2)})
                         for i, e in enumerate(unit)])
    [rc] = oracle.verification_counts(F, 3, 10)
    assert (rc.method, rc.count) == ("snf_binomial", 2**n)
    with pytest.raises(ValueError, match=r"^no counter covers this system: n = 7 > 3 \(MAX_SEARCH_VARS\)"):
        oracle.verification_counts(SparseSystem.of([poly({e: 1, (0,) * n: 1, (1,) * n: 1})
                                                    for e in unit]), 3, 10)


def test_product_system_counts():
    from rootbounds.oracle import product_system_root_count

    for m, n in ((2, 1), (4, 2), (3, 3)):
        system = product_system(m, n)
        assert system.k == n
        assert all(f.m == m for f in system.polynomials)
        rc = rational_root_search(system, 5)
        assert rc.count == (m - 1) ** n
        # the by-construction count and the search agree
        reference = product_system_root_count(m, n)
        assert reference.count == rc.count
        assert (reference.over, reference.isolated) == ("Q", True)


def test_product_system_caps():
    with pytest.raises(ValueError):
        product_system(9, 1)
    with pytest.raises(ValueError):
        product_system(3, 4)


# ---------------------------------------------------------------------------
# reduction to square systems
# ---------------------------------------------------------------------------


def test_reduce_identity_case():
    s = product_system(3, 2)
    assert reduce_to_square(s, 7) is s


def test_reduce_duplicates():
    f = poly({(1,): 1, (0,): -1})
    s = SparseSystem.of([f, f, f])
    g = reduce_to_square(s, 11)
    assert g.k == 1
    assert g.polynomials[0].evaluate((Fraction(1),)) == 0


def test_reduce_redraws_a_cancelled_combination():
    # seed 63 first draws equal weights (12, 12), and 12 f - 12 f cancels
    f = poly({(1,): 1, (0,): -1})
    s = SparseSystem.of([f, poly({(1,): -1, (0,): 1})])
    rng = random.Random(63)
    assert [rng.randint(-16, 16) for _ in range(2)] == [12, 12]
    (g,) = reduce_to_square(s, 63).polynomials
    assert g.support == f.support and g.terms[0][1] == -g.terms[1][1] != 0


def test_reduce_preserves_planted_roots():
    rng = random.Random(SEED + 4)
    for _ in range(100):
        n = rng.randint(1, 2)
        k = rng.randint(n + 1, n + 2)
        root = tuple(Fraction(rng.randint(1, 3)) for _ in range(n))
        polys = []
        for _ in range(k):
            f = rand_poly(rng, n, rng.randint(2, 3), 4, coefmax=6)
            # plant the root by adjusting the constant term
            val = f.evaluate(root)
            d = f.as_dict()
            d[(0,) * n] = d.get((0,) * n, Fraction(0)) - val
            d = {e: c for e, c in d.items() if c != 0}
            if not d:
                d = {(1,) * n: Fraction(1), (0,) * n: Fraction(-1)}
            polys.append(SparsePolynomial.from_dict(d))
        system = SparseSystem.of(polys)
        if any(f.evaluate(root) != 0 for f in system.polynomials):
            continue
        reduced = reduce_to_square(system, rng.randrange(2**64))
        assert reduced.k == n
        assert all(g.evaluate(root) == 0 for g in reduced.polynomials)
        # no new exponent vectors
        original_support = {e for f in system.polynomials for e in f.support}
        for g in reduced.polynomials:
            assert set(g.support) <= original_support


def test_reduce_rejects_underdetermined():
    s = SparseSystem.of([poly({(1, 0): 1, (0, 0): -1})])
    with pytest.raises(ValueError):
        reduce_to_square(s, 1)


def test_root_count_is_frozen_data():
    rc = RootCount(3, "rational_search", "box", "Q", None)
    with pytest.raises(AttributeError):
        rc.count = 4


# what a count above the bound reads, by the field whose torus it counts in
# and whether its roots are isolated: None refutes, a text is inconclusive
_ABOVE = {
    ("Q", True): None, ("Q", None): None, ("Q", False): "non-isolated",
    ("Q_p", True): None, ("Q_p", None): None, ("Q_p", False): "non-isolated",
    ("C_p", True): "beyond", ("C_p", None): "beyond", ("C_p", False): "beyond",
}
_INCONCLUSIVE = {
    "beyond": "counted over the region, beyond the torus of the field the bound covers",
    "non-isolated": "k = 1 < n = 2: every root lies on a positive-dimensional component, "
    "and the bound counts isolated roots only",
}


@pytest.mark.parametrize("count", [2, 3, 4], ids=["below", "at", "above"])
@pytest.mark.parametrize("isolated", [True, None, False])
@pytest.mark.parametrize("over", ["Q", "Q_p", "C_p"])
def test_verdict_table(over, isolated, count):
    # the rule reads the two fields only: the system gives the text its k and n
    system = SparseSystem.of([poly({(1, 0): 1, (0, 0): -1})])
    note = verdict(RootCount(count, "method", "the region", over, isolated), 3, system)
    expected = _ABOVE[over, isolated] if count > 3 else None
    assert note == _INCONCLUSIVE.get(expected)


# ---------------------------------------------------------------------------
# differential checks against the Fraction kernels the integer ones replaced
# ---------------------------------------------------------------------------


def _ref_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_deriv(cs):
    return _ref_trim([Fraction(i) * cs[i] for i in range(1, len(cs))])


def _ref_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _ref_trim(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        _ref_trim(a)
    return _ref_trim(q), a


def _ref_squarefree(cs):
    """Squarefree part by Euclid's algorithm over Fraction."""
    a, b = _ref_trim(list(cs)), _ref_deriv(cs)
    while b:
        a, b = b, _ref_trim(_ref_divmod(a, b)[1])
    if len(a) <= 1:
        return _ref_trim(list(cs))
    q, r = _ref_divmod(cs, a)
    assert not _ref_trim(r)
    return q


def _ref_compose_residue(cs, rho, p):
    out = [Fraction(0)]
    for c in reversed(cs):
        shifted = [Fraction(0)] + [p * x for x in out]
        for i, x in enumerate(out):
            shifted[i] += rho * x
        shifted[0] += c
        out = _ref_trim(shifted) or [Fraction(0)]
    return out


def _ref_normalize(cs, p):
    shift = min(ord_p_value(c, p) for c in cs if c != 0)
    return [c * Fraction(p) ** (-shift) for c in cs]


def _ref_mod_p(cs, p):
    return [c.numerator * pow(c.denominator, -1, p) % p for c in cs]


def _ref_padic_integer_roots(cs, p, residues, depth=0):
    assert depth <= 60
    count = 0
    cs_mod, deriv_mod = _ref_mod_p(cs, p), _ref_mod_p(_ref_deriv(cs), p) or [0]
    for rho in residues:
        if sum(c * rho**i for i, c in enumerate(cs_mod)) % p:
            continue
        if sum(c * rho**i for i, c in enumerate(deriv_mod)) % p:
            count += 1
            continue
        refined = _ref_normalize(_ref_compose_residue(cs, rho, p), p)
        count += _ref_padic_integer_roots(refined, p, range(p), depth + 1)
    return count


def _ref_count_univariate(f, p):
    """The p-adic root count of the Fraction kernel: Euclid over Fraction,
    Fraction valuations and Fraction residue refinement."""
    lo = min(e for (e,), _ in f.terms)
    dense = [Fraction(0)] * (max(e for (e,), _ in f.terms) - lo + 1)
    for (e,), coeff in f.terms:
        dense[e - lo] = coeff
    sf = _ref_squarefree(dense)
    points = [(i, ord_p_value(c, p)) for i, c in enumerate(sf) if c != 0]
    total = 0
    for slope in _lower_hull_slopes(points):
        if slope.denominator == 1:
            shifted = [c * Fraction(p) ** (-slope * i) for i, c in enumerate(sf)]
            total += _ref_padic_integer_roots(_ref_normalize(shifted, p), p, range(1, p))
    return total


def _ref_rational_search(system, height):
    """Brute force over the whole box with SparsePolynomial.evaluate."""
    values = sorted({Fraction(s * a, b) for a in range(1, height + 1)
                     for b in range(1, height + 1) for s in (1, -1)})
    return sum(
        all(f.evaluate(point) == 0 for f in system.polynomials)
        for point in itertools.product(values, repeat=system.n)
    )


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _repeated_factor_polynomial(rng, p):
    """A dense Fraction list g * h^2 (or g * h^3) with rational roots of both
    valuation signs among its factors."""
    def linear():
        # b x - a with a root of valuation in -2..2
        v = rng.randint(-2, 2)
        a = rng.choice([1, -1, 2, 3, -5, 7]) * p ** max(v, 0)
        b = rng.choice([1, 2, 3, 11]) * p ** max(-v, 0)
        return [Fraction(-a), Fraction(b)]

    def random_factor():
        cs = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 4))]
        cs[-1] = cs[-1] or Fraction(1)
        cs[0] = cs[0] or Fraction(p)
        return cs

    g = random_factor() if rng.random() < 0.5 else linear()
    for _ in range(rng.randint(0, 2)):
        g = _pmul(g, linear())
    h = linear() if rng.random() < 0.6 else random_factor()
    if rng.random() < 0.5:
        h = _pmul(h, linear())
    f = _pmul(g, _pmul(h, h))
    if rng.random() < 0.3:
        f = _pmul(f, h)
    return f


def _as_polynomial(dense, p, rng):
    """The dense list as a Laurent polynomial, its coefficients divided by
    powers of p now and then so that some carry p in the denominator."""
    shift = rng.randint(-4, 2)
    terms = {}
    for i, c in enumerate(dense):
        if c:
            if rng.random() < 0.3:
                c /= p ** rng.randint(1, 3)
            terms[(i + shift,)] = c
    return SparsePolynomial.from_dict(terms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_squarefree_part_matches_the_fraction_euclid(p):
    rng = random.Random(SEED + 10 + p)
    reduced = 0
    for _ in range(40):
        dense = _repeated_factor_polynomial(rng, p)
        scale = math.lcm(*(c.denominator for c in dense))
        ints = oracle._primitive([int(c * scale) for c in dense])
        sf = oracle._squarefree_part(ints)
        ref = _ref_squarefree(dense)
        assert len(sf) == len(ref)
        # equal up to a rational scalar
        assert all(a * ref[-1] == b * sf[-1] for a, b in zip(sf, ref))
        assert math.gcd(*sf) == 1
        reduced += len(sf) < len(dense)
    assert reduced == 40


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_univariate_count_matches_the_fraction_counter(p):
    rng = random.Random(SEED + 20 + p)
    positive = 0
    for _ in range(25):
        f = _as_polynomial(_repeated_factor_polynomial(rng, p), p, rng)
        count = count_univariate_padic(f, p).count
        assert count == _ref_count_univariate(f, p), dict(f.terms)
        positive += count > 0
    for _ in range(15):
        f = rand_poly(rng, 1, rng.randint(2, 5), 25)
        f = _as_polynomial([f.as_dict().get((i,), Fraction(0)) for i in range(26)], p, rng)
        assert count_univariate_padic(f, p).count == _ref_count_univariate(f, p), dict(f.terms)
    assert positive >= 15


def _planted_polynomial(rng, n, root, lo=-3, hi=3):
    """A random Laurent polynomial in n variables vanishing at root."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exp = tuple(rng.randint(lo, hi) for _ in range(n))
            terms[exp] = Fraction(rng.randint(-20, 20))
        terms = {e: c for e, c in terms.items() if c}
        if len(terms) < 2:
            continue
        f = SparsePolynomial.from_dict(terms)
        # cancel the value at the root through one term's coefficient
        exp, coeff = f.terms[0]
        monomial = math.prod(x**e for x, e in zip(root, exp))
        terms[exp] = coeff - f.evaluate(root) / monomial
        terms = {e: c for e, c in terms.items() if c}
        if len(terms) >= 2:
            return SparsePolynomial.from_dict(terms)


def _product(f, g):
    out = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return SparsePolynomial.from_dict({e: c for e, c in out.items() if c})


@pytest.mark.parametrize("n,height", [(1, 6), (2, 4), (3, 2)])
def test_rational_search_matches_brute_force(n, height):
    rng = random.Random(SEED + 30 + n)
    values = sorted({Fraction(s * a, b) for a in range(1, height + 1)
                     for b in range(1, height + 1) for s in (1, -1)})
    positive = 0
    for trial in range(12 if n < 3 else 6):
        roots = [tuple(rng.choice(values) for _ in range(n)) for _ in range(2)]
        polys = []
        for _ in range(n):
            f = _planted_polynomial(rng, n, roots[0])
            if trial % 2:
                # vanishes at both roots
                f = _product(f, _planted_polynomial(rng, n, roots[1]))
            polys.append(f)
        system = SparseSystem.of(polys)
        count = rational_root_search(system, height).count
        assert count == _ref_rational_search(system, height), system_to_json_obj(system)
        positive += count > 0
    assert positive >= (12 if n < 3 else 6)
