"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run directly (``python
tests/test_acceptance.py``) for a standalone summary, or through pytest.
"""

import math
import random
import time
from fractions import Fraction

from rootbounds.binomials import (
    expansion_coeffs,
    gen_binomial,
    lcm_profile,
)
from rootbounds.bounds import (
    LocalField,
    cp_bound,
    local_bound,
    local_facet_bound,
    local_facet_bound_from_counts,
    log_inequality_check,
)
from rootbounds.linalg import det
from rootbounds.newton import (
    SparsePolynomial,
    SparseSystem,
    containment_check,
    valuation_face_bound,
)
from rootbounds.oracle import (
    count_binomial_system,
    count_univariate_padic,
    product_system,
    rational_root_search,
)
from rootbounds.polyhedra import convex_hull, mixed_volume
from test_binomials import lcm_profile_bruteforce

Q2 = LocalField(2, 1, 1)

_RESULTS = []


def _record(num: int, label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {status} in {elapsed:.2f}s{tail}")
    _RESULTS.append((num, ok))
    assert ok, f"criterion {num} failed: {label}{tail}"


def rand_poly(rng, n, terms, deg, coefmax=50):
    d = {}
    while len(d) < terms:
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        c = rng.randint(-coefmax, coefmax)
        if c:
            d[exp] = Fraction(c)
    return SparsePolynomial.from_dict(d)


def test_criterion_01_local_headline_bound():
    t0 = time.perf_counter()
    rep = local_bound(Q2, m=5, n=2, k=2)
    elapsed = time.perf_counter() - t0
    rel = abs(rep.integer_bound - 127645) / 127645
    _record(
        1,
        "degree-1 2-adic bound at (m=5, n=2)",
        rel <= 0.001 and elapsed < 1.0,
        elapsed,
        f"bound {rep.integer_bound}, target 127645 +-0.1%",
    )


def test_criterion_02_facet_refined_bound():
    t0 = time.perf_counter()
    rep = local_facet_bound_from_counts(9, 2, Q2, m_list=(3, 3))
    ok = rep.integer_bound in (2303, 2304, 2305)
    for mu in range(4, 9):
        rep_mu = local_facet_bound_from_counts(6 * mu, 2, Q2, m_list=(3, mu))
        ref = 304 * (mu - 1) * mu * (1 + math.log2((mu - 1) / 0.693))
        ok = ok and abs(float(rep_mu.raw.value) - ref) / ref < 0.01
    elapsed = time.perf_counter() - t0
    _record(
        2,
        "facet-refined 2-adic bound (9 facets, two trinomials)",
        ok and elapsed < 1.0,
        elapsed,
        f"floor {rep.integer_bound}, target 2304 +-1; growth formula within 1%",
    )


def test_criterion_03_univariate_oracle():
    t0 = time.perf_counter()
    f = SparsePolynomial.from_dict({(10,): Fraction(3), (2,): Fraction(1), (0,): Fraction(-4)})
    count = count_univariate_padic(f, 2).count
    bound = local_bound(Q2, m=3, n=1, k=1).integer_bound
    elapsed = time.perf_counter() - t0
    _record(
        3,
        "2-adic trinomial root count",
        count == 6 and bound >= 6 and elapsed < 1.0,
        elapsed,
        f"count {count} (exact 6), trinomial bound {bound} >= 6",
    )


def test_criterion_04_product_system_exactness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for m, n in ((2, 1), (4, 2), (3, 3)):
        system = product_system(m, n)
        count = rational_root_search(system, 5).count
        thm1 = local_bound(Q2, system.m, n, n).integer_bound
        refined = local_facet_bound(system, Q2).integer_bound
        ok = ok and count == (m - 1) ** n and count <= thm1 and count <= refined
        details.append(f"({m},{n})->{count}")
    elapsed = time.perf_counter() - t0
    _record(
        4,
        "separable reference systems have exactly (m-1)^n roots under both bounds",
        ok and elapsed < 10.0,
        elapsed,
        ", ".join(details),
    )


def test_criterion_05_mixed_volume_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xACC5)
    ok = True
    for n in (1, 2, 3):
        pts = [tuple(0 for _ in range(n))] + [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        std = convex_hull(pts)
        ok = ok and mixed_volume([std] * n) == 1
    for _ in range(50):
        n = rng.randint(1, 3)
        r = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        pts = [tuple(0 for _ in range(n))] + [
            tuple(Fraction(1, r[i]) if j == i else 0 for j in range(n))
            for i in range(n)
        ]
        q = convex_hull(pts)
        ok = ok and mixed_volume([q] * n) * math.prod(r, start=Fraction(1)) == 1
    for _ in range(50):
        n = rng.randint(1, 3)
        tuples = []
        for _ in range(n):
            pts = set()
            while len(pts) < min(3, 2**n):
                pts.add(tuple(rng.randint(0, 3) for _ in range(n)))
            tuples.append(convex_hull(pts))
        mv = mixed_volume(tuples)
        perm = list(tuples)
        rng.shuffle(perm)
        ok = ok and mixed_volume(perm) == mv
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        scaled = convex_hull(
            [tuple(lam * x for x in v) for v in tuples[0].vertices]
        )
        ok = ok and mixed_volume([scaled] + tuples[1:]) == lam * mv
    elapsed = time.perf_counter() - t0
    _record(
        5,
        "mixed-volume normalization, scaling, symmetry, multilinearity (exact)",
        ok,
        elapsed,
    )


def test_criterion_06_face_bound_equals_determinant():
    t0 = time.perf_counter()
    rng = random.Random(0xACC6)
    ok = True
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        consts = []
        for _ in range(n):
            unit = Fraction(rng.choice([1, 3, 5, 7]), rng.choice([1, 3, 5, 7]))
            consts.append(unit * Fraction(2) ** rng.randint(-3, 3))
        polys = [
            SparsePolynomial.from_dict(
                {tuple(rows[i]): Fraction(1), (0,) * n: -consts[i]}
            )
            for i in range(n)
        ]
        system = SparseSystem.of(polys)
        rc, r = count_binomial_system(rows, consts, 2)
        ok = ok and r is not None and valuation_face_bound(system, 2, r) == rc.count
        done += 1
    elapsed = time.perf_counter() - t0
    _record(
        6,
        "face bound equals |det| on 100 random binomial systems",
        ok,
        elapsed,
    )


def test_criterion_07_lcm_and_expansion_suite():
    t0 = time.perf_counter()
    ok = True
    for t in range(0, 13):
        for m in range(0, 5):
            ok = ok and lcm_profile(m, t) == lcm_profile_bruteforce(m, t)
    for t in range(0, 11):
        ok = ok and lcm_profile(t + 1, t) == math.factorial(t)
    for t in range(1, 13):
        for m in range(0, t):
            for i in range(m + 1):
                ok = ok and lcm_profile(m, t) % math.factorial(i) == 0
    for p in (2, 3, 5, 7):
        for t in range(1, 13):
            k = 0
            while p ** (k + 1) <= t:
                k += 1
            for m in range(0, 5):
                from rootbounds.arith import ord_p_value

                ok = ok and ord_p_value(lcm_profile(m, t), p) <= m * k
    rng = random.Random(0xACC7)
    for _ in range(200):
        m = rng.randint(1, 6)
        support = set()
        while len(support) < m:
            support.add(rng.randint(-20, 20))
        t = rng.randint(0, 10)
        e = expansion_coeffs(tuple(support), t)
        for a in e.support:
            ok = ok and gen_binomial(a, t) == sum(
                c * gen_binomial(a, j) for j, c in enumerate(e.coefficients)
            )
        if t >= m:
            cap = lcm_profile(m - 1, t)
            for j, c in enumerate(e.coefficients):
                ok = ok and (cap // math.factorial(j)) % c.denominator == 0
    elapsed = time.perf_counter() - t0
    _record(
        7,
        "lcm profiles match brute force; expansion identities and denominators",
        ok,
        elapsed,
    )


def test_criterion_08_log_inequality_bulk():
    t0 = time.perf_counter()
    rng = random.Random(0xACC8)
    ok = True
    for _ in range(10_000):
        n = rng.randint(1, 3)
        m = rng.randint(2, 10)
        p = rng.choice([2, 3, 5])
        r = tuple(
            Fraction(rng.randint(1, 50 * 7), rng.randint(1, 7)) / 7 for _ in range(n)
        )
        t = tuple(
            Fraction(rng.randint(1, 50 * 7), rng.randint(1, 7)) / 7 for _ in range(n)
        )
        hyp, concl = log_inequality_check(r, t, m, p)
        ok = ok and ((not hyp) or concl)
    elapsed = time.perf_counter() - t0
    _record(
        8,
        "weighted-log implication never violated on 10^4 samples",
        ok,
        elapsed,
    )


def test_criterion_09_containment_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xACC9)
    grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
    ok = True
    for p in (2, 3, 5):
        for _ in range(50):
            n = rng.randint(1, 2)
            polys = [
                rand_poly(rng, n, rng.randint(2, 4), 12, coefmax=60)
                for _ in range(n)
            ]
            system = SparseSystem.of(polys)
            r = tuple(rng.choice(grid) for _ in range(n))
            ok = ok and containment_check(system, p, r)
    elapsed = time.perf_counter() - t0
    _record(
        9,
        "shifted-support containment on 50 systems per prime {2,3,5}",
        ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_10_radius_monotonicity():
    t0 = time.perf_counter()
    rng = random.Random(0xACCA)
    grid = [
        Fraction(1, 10),
        Fraction(1, 5),
        Fraction(3, 10),
        Fraction(2, 5),
        Fraction(1, 2),
    ]
    ok = True
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, n + 7)
        p = rng.choice([2, 3, 5])
        others = [rng.choice(grid) for _ in range(n)]
        for i in range(n):
            prev = None
            for g in grid:
                r = list(others)
                r[i] = g
                val = cp_bound(m, n, r, p).raw.value
                if prev is not None:
                    ok = ok and val <= prev
                prev = val
    # the diagonal of the 2-adic bound decreases across (0, 1]
    diag_prev = None
    for g in [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]:
        val = cp_bound(4, 2, (g, g), 2).raw.value
        if diag_prev is not None:
            ok = ok and val <= diag_prev
        diag_prev = val
    elapsed = time.perf_counter() - t0
    _record(
        10,
        "near-one bound non-increasing in each radius over the sampled grid",
        ok,
        elapsed,
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    total = len(_RESULTS)
    passed = sum(1 for _n, ok in _RESULTS if ok)
    print(f"{passed}/{total} acceptance criteria passed")
    raise SystemExit(0 if failures == 0 else 1)
