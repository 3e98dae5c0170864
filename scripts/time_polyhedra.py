#!/usr/bin/env python3
"""Time the polyhedral kernels on the seeded inputs of the ROADMAP timing table.

    python3 scripts/time_polyhedra.py                 # seed 2024, one run per case
    python3 scripts/time_polyhedra.py --repeats 3     # best of three

Cases: ``facet_count`` for n = 3 and 4 and ``candidate_valuations`` for
n = 3, on square systems of 4 terms per equation with exponents 0..6 and
coefficients +-{1, 2, 3, 4, 6, 8, 12, 16} at p = 2; and the mixed volume of
n = 3 and 4 polytopes, each the hull of 7 random lattice points in [0, 4]^n.
Each case draws its input from a fresh ``random.Random(seed)``.  The script
prints one line per case: its name, its result and the best wall time over
the repeats.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rootbounds.newton import (  # noqa: E402
    SparsePolynomial,
    SparseSystem,
    candidate_valuations,
    facet_count,
)
from rootbounds.polyhedra import convex_hull, mixed_volume  # noqa: E402

COEFFS = (1, 2, 3, 4, 6, 8, 12, 16)
TERMS = 4
MAX_EXP = 6
PRIME = 2
MV_POINTS = 7
MV_BOX = 4


def seeded_system(seed: int, n: int) -> SparseSystem:
    rng = random.Random(seed)
    polys = []
    for _ in range(n):
        terms: dict[tuple[int, ...], Fraction] = {}
        while len(terms) < TERMS:
            exp = tuple(rng.randint(0, MAX_EXP) for _ in range(n))
            terms[exp] = Fraction(rng.choice((-1, 1)) * rng.choice(COEFFS))
        polys.append(SparsePolynomial.from_dict(terms))
    return SparseSystem.of(polys)


def seeded_polytopes(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [
        convex_hull([tuple(rng.randint(0, MV_BOX) for _ in range(n)) for _ in range(MV_POINTS)])
        for _ in range(n)
    ]


def cases(seed: int):
    """(name, thunk) per case; each thunk returns the printed result."""
    for n in (3, 4):
        system = seeded_system(seed, n)
        yield f"facet_count n={n}", lambda s=system: facet_count(s, PRIME)
    system = seeded_system(seed, 3)
    yield "candidate_valuations n=3", lambda s=system: len(candidate_valuations(s, PRIME))
    for n in (3, 4):
        polytopes = seeded_polytopes(seed, n)
        yield f"mixed_volume n={n}", lambda ps=polytopes: mixed_volume(ps)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--repeats", type=int, default=1, choices=range(1, 11), metavar="1..10")
    args = ap.parse_args(argv)
    for name, thunk in cases(args.seed):
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = thunk()
            best = min(best, time.perf_counter() - start)
        print(f"{name:<26} result {result!s:<8} {best:8.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
