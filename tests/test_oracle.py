import random
from fractions import Fraction

import pytest

from rootbounds.bounds import FieldSpec, local_bound, local_facet_bound
from rootbounds.linalg import det
from rootbounds.newton import SparsePolynomial, SparseSystem
from rootbounds.oracle import (
    MAX_SCAN_PRIME,
    IntegerMatrix,
    PrecisionCapError,
    RootCount,
    count_binomial_system,
    count_univariate_padic,
    product_system,
    rational_root_search,
    reduce_to_square,
    smith_normal_form,
)

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
    fs_cache = {p: FieldSpec.local(p, 1, 1) for p in (2, 3, 5)}
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
    f = poly({(2,): 1, (1,): -2, (0,): 1 - 2**40})  # (x-1)^2 - 2^40
    with pytest.raises(PrecisionCapError):
        count_univariate_padic(f, 2, precision_cap=3)
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
        a = IntegerMatrix.of(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = smith_normal_form(a)
        # divisibility chain on the diagonal
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d.entries[i][j] == 0


def test_binomial_examples():
    rc, r = count_binomial_system(IntegerMatrix.of([[2, 0], [0, 2]]), [Fraction(4), Fraction(4)], 2)
    assert rc.count == 4 and r == (Fraction(1), Fraction(1))
    rc, r = count_binomial_system(IntegerMatrix.of([[1, 0], [0, 1]]), [Fraction(5), Fraction(7)], 3)
    assert rc.count == 1
    rc, r = count_binomial_system(IntegerMatrix.of([[1, 1], [1, -1]]), [Fraction(1), Fraction(1)], 3)
    assert rc.count == 2 and r == (Fraction(0), Fraction(0))


def test_binomial_rejects_singular():
    with pytest.raises(ValueError):
        count_binomial_system(IntegerMatrix.of([[1, 1], [2, 2]]), [Fraction(1), Fraction(1)], 2)
    with pytest.raises(ValueError):
        count_binomial_system(IntegerMatrix.of([[1, 0], [0, 1]]), [Fraction(0), Fraction(1)], 2)


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
        rc, r = count_binomial_system(IntegerMatrix.of(rows), c, 5)
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


def test_rational_search_caps():
    s = SparseSystem.of([poly({(1, 0, 0): 1, (0, 0, 0): -1})])
    with pytest.raises(ValueError):
        rational_root_search(s, 101)


def test_product_system_counts():
    from rootbounds.oracle import product_system_root_count

    for m, n in ((2, 1), (4, 2), (3, 3)):
        system = product_system(m, n)
        assert system.k == n
        assert all(f.m == m for f in system.polynomials)
        rc = rational_root_search(system, 5)
        assert rc.count == (m - 1) ** n
        # the by-construction count and the search agree
        assert product_system_root_count(m, n).count == rc.count


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
    rc = RootCount(3, "rational_search", "box", False)
    with pytest.raises(AttributeError):
        rc.count = 4
