#!/usr/bin/env python3
"""Seeded randomized sweep: oracle counts must stay below every bound.

Generates random univariate sparse polynomials, a seeded quarter of them
of the form g * h^2 so that the counter's squarefree reduction runs, counts
their p-adic roots exactly, and checks the counts against the headline and
facet-refined bounds.  Any violation is printed with the full instance and
the script exits nonzero.  The binomial sweep (SNF count equals the face bound at the
solved valuation vector) runs in the test suite, in tests/test_newton.py.
"""

import argparse
import random
from fractions import Fraction

from rootbounds.bounds import LocalField, local_bound, local_facet_bound
from rootbounds.newton import SparsePolynomial, SparseSystem, collect_terms
from rootbounds.oracle import count_univariate_padic


def random_univariate(rng: random.Random, terms: int, degree: int) -> SparsePolynomial:
    d = {}
    while len(d) < terms:
        e = rng.randint(0, degree)
        c = rng.randint(-99, 99)
        if c:
            d[(e,)] = Fraction(c)
    return SparsePolynomial.from_dict(d)


def product(a: dict, b: dict) -> dict:
    """The product of two polynomials given as exponent -> coefficient dicts."""
    return collect_terms(((ea[0] + eb[0],), ca * cb)
                         for ea, ca in a.items() for eb, cb in b.items())


def repeated_factor_univariate(rng: random.Random) -> SparsePolynomial:
    """g * h^2 with h = c0 + c1 x^e, e >= 1: never squarefree."""
    g = random_univariate(rng, rng.randint(2, 3), 15).as_dict()
    h = {(0,): Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
         (rng.randint(1, 5),): Fraction(rng.choice([-2, -1, 1, 2]))}
    return SparsePolynomial.from_dict(product(g, product(h, h)))


def sweep_univariate(rng: random.Random, trials: int) -> tuple[int, int]:
    """Violations, and instances whose squarefree reduction dropped degree."""
    violations = reduced = 0
    for _ in range(trials):
        p = rng.choice([2, 3, 5])
        if rng.random() < 0.25:
            f = repeated_factor_univariate(rng)
        else:
            f = random_univariate(rng, rng.randint(2, 4), 30)
        rc = count_univariate_padic(f, p)
        count, reduced = rc.count, reduced + bool(rc.notes)
        fs = LocalField(p, 1, 1)
        system = SparseSystem.of([f])
        for rep in (local_bound(fs, f.m, 1, 1), local_facet_bound(system, fs)):
            if count > rep.integer_bound:
                violations += 1
                print(f"VIOLATION p={p} f={dict(f.terms)} count={count} "
                      f"{rep.formula_id}={rep.integer_bound}")
    return violations, reduced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    violations, reduced = sweep_univariate(rng, args.trials)
    print(f"{violations} violations over {args.trials} instances, "
          f"{reduced} with a repeated factor reduced to the squarefree part")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
