#!/usr/bin/env python3
"""Reproduce the reference numbers the package is pinned to.

Prints the headline bound values at their reference parameter sets next to
the exact oracle counts that they must dominate.
"""

from fractions import Fraction

from rootbounds.bounds import (
    GlobalField,
    LocalField,
    global_facet_sum_bound_from_counts,
    local_bound,
    local_facet_bound_from_counts,
)
from rootbounds.newton import SparsePolynomial, SparseSystem, newton_data
from rootbounds.oracle import count_univariate_padic, product_system, rational_root_search


def main() -> None:
    q2 = LocalField(2, 1, 1)

    print("== headline local bound, two trinomial-sized equations over Q_2 ==")
    rep = local_bound(q2, m=5, n=2, k=2)
    print(f"   m=5, n=2: raw {rep.raw.to_decimal_string(12)}  floor {rep.integer_bound}")

    print("== facet-refined bound, 9 lower facets, two 3-term equations ==")
    rep = local_facet_bound_from_counts(9, 2, q2, m_list=(3, 3))
    print(f"   raw {rep.raw.to_decimal_string(12)}  floor {rep.integer_bound}")
    for mu in (4, 6, 8):
        rep = local_facet_bound_from_counts(6 * mu, 2, q2, m_list=(3, mu))
        print(f"   3-term x {mu}-term: floor {rep.integer_bound}")

    print("== the 2-adic trinomial with the maximum number of roots ==")
    f = SparsePolynomial.from_dict(
        {(10,): Fraction(3), (2,): Fraction(1), (0,): Fraction(-4)}
    )
    system = SparseSystem.of([f])
    count = count_univariate_padic(f, 2)
    print(f"   3*x^10 + x^2 - 4 over Q_2: exactly {count.count} nonzero roots")
    for r, bound in newton_data(system, 2).face_bounds():
        print(f"   valuation {r[0]}: at most {bound} roots")
    bound = local_bound(q2, m=3, n=1, k=1)
    print(f"   trinomial bound: {bound.integer_bound}")

    print("== separable reference systems: exactly (m-1)^n roots ==")
    for m, n in ((2, 1), (4, 2), (3, 3)):
        system = product_system(m, n)
        count = rational_root_search(system, 5).count
        rep = local_bound(q2, system.m, n, n)
        print(f"   (m={m}, n={n}): {count} roots, bound {rep.integer_bound}")

    print("== global refinement at degree 1, root degree 2 ==")
    rep = global_facet_sum_bound_from_counts(1, 3, 1, GlobalField(1, 2))
    print(f"   raw {rep.raw.to_decimal_string(12)}  floor {rep.integer_bound}")


if __name__ == "__main__":
    main()
