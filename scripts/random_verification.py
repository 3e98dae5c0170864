#!/usr/bin/env python3
"""Seeded randomized sweep: oracle counts must stay below every bound.

Generates random univariate sparse polynomials, counts their p-adic roots
exactly, and checks the counts against the headline and facet-refined
bounds.  Any violation is printed with the full instance and the script
exits nonzero.  The binomial sweep (SNF count equals the face bound at the
solved valuation vector) runs in the test suite, in tests/test_newton.py.
"""

import argparse
import random
from fractions import Fraction

from rootbounds.bounds import FieldSpec, local_bound, local_facet_bound
from rootbounds.newton import SparsePolynomial, SparseSystem
from rootbounds.oracle import count_univariate_padic


def random_univariate(rng: random.Random, terms: int, degree: int) -> SparsePolynomial:
    d = {}
    while len(d) < terms:
        e = rng.randint(0, degree)
        c = rng.randint(-99, 99)
        if c:
            d[(e,)] = Fraction(c)
    return SparsePolynomial.from_dict(d)


def sweep_univariate(rng: random.Random, trials: int, precision_cap: int) -> int:
    violations = 0
    for _ in range(trials):
        p = rng.choice([2, 3, 5])
        f = random_univariate(rng, rng.randint(2, 4), 30)
        count = count_univariate_padic(f, p, precision_cap).count
        fs = FieldSpec.local(p, 1, 1)
        system = SparseSystem.of([f])
        for rep in (local_bound(fs, f.m, 1, 1), local_facet_bound(system, fs)):
            if count > rep.integer_bound:
                violations += 1
                print(f"VIOLATION p={p} f={dict(f.terms)} count={count} "
                      f"{rep.formula_id}={rep.integer_bound}")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--precision-cap", type=int, default=60)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    violations = sweep_univariate(rng, args.trials, args.precision_cap)
    print(f"{violations} violations over {args.trials} instances")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
