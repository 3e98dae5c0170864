#!/usr/bin/env python3
"""Seeded randomized sweep: oracle counts must stay below every bound.

Generates random univariate sparse polynomials and square binomial systems,
counts their roots exactly, and checks the counts against the headline and
facet-refined bounds.  Any violation is printed with the full instance and
the script exits nonzero.
"""

import argparse
import random
from fractions import Fraction

from rootbounds.bounds import FieldSpec, local_bound, local_facet_bound
from rootbounds.linalg import det
from rootbounds.newton import SparsePolynomial, SparseSystem, valuation_face_bound
from rootbounds.oracle import (
    IntegerMatrix,
    OracleConfig,
    count_binomial_system,
    count_univariate_padic,
)


def random_univariate(rng: random.Random, terms: int, degree: int) -> SparsePolynomial:
    d = {}
    while len(d) < terms:
        e = rng.randint(0, degree)
        c = rng.randint(-99, 99)
        if c:
            d[(e,)] = Fraction(c)
    return SparsePolynomial.from_dict(d)


def sweep_univariate(rng: random.Random, trials: int, config: OracleConfig) -> int:
    violations = 0
    for _ in range(trials):
        p = rng.choice([2, 3, 5])
        f = random_univariate(rng, rng.randint(2, 4), 30)
        count = count_univariate_padic(f, p, config.precision_cap).count
        fs = FieldSpec.local(p, 1, 1)
        system = SparseSystem.of([f])
        for rep in (local_bound(fs, f.m, 1, 1), local_facet_bound(system, fs)):
            if count > rep.integer_bound:
                violations += 1
                print(f"VIOLATION p={p} f={dict(f.terms)} count={count} "
                      f"{rep.formula_id}={rep.integer_bound}")
    return violations


def sweep_binomial(rng: random.Random, trials: int) -> int:
    violations = 0
    done = 0
    while done < trials:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        done += 1
        p = rng.choice([2, 3, 5])
        consts = [
            Fraction(rng.choice([1, 3, 7, 9]), rng.choice([1, 3, 7]))
            * Fraction(p) ** rng.randint(-2, 2)
            for _ in range(n)
        ]
        rc, r = count_binomial_system(IntegerMatrix.of(rows), consts, p)
        system = SparseSystem.of(
            [
                SparsePolynomial.from_dict(
                    {tuple(rows[i]): Fraction(1), (0,) * n: -consts[i]}
                )
                for i in range(n)
            ]
        )
        face = valuation_face_bound(system, p, r)
        if rc.count != face:
            violations += 1
            print(f"VIOLATION binomial rows={rows} count={rc.count} face={face}")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--precision-cap", type=int, default=60)
    args = parser.parse_args()
    config = OracleConfig(seed=args.seed, precision_cap=args.precision_cap)
    rng = random.Random(config.seed)
    violations = sweep_univariate(rng, args.trials, config)
    violations += sweep_binomial(rng, args.trials // 2)
    print(f"{violations} violations over {args.trials + args.trials // 2} instances")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
