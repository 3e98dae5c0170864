#!/usr/bin/env python3
"""Time the polyhedral and log kernels on the seeded inputs of the ROADMAP timing table.

    python3 scripts/time_polyhedra.py                 # seed 2024, one run per case
    python3 scripts/time_polyhedra.py --repeats 3     # best of three

Cases: ``facet_count`` for n = 3 and 4 and ``candidate_valuations`` for
n = 3, on square systems of 4 terms per equation with exponents 0..6 and
coefficients +-{1, 2, 3, 4, 6, 8, 12, 16} at p = 2; ``face_bounds`` of the
5x5 such system with 3 terms per equation, its bound sum as the result and
``newton_data`` built untimed; ``facet_count`` of flat lifts, a 3x3 system
with 7 terms and a 4x4 with 5 terms per equation, exponents 0..4 and the
units +-{1, 3, 5, 7} at p = 2 as coefficients, where each lift is one cell
and the sum has one lower facet; the mixed volume of n = 3 and 4
polytopes, each the hull of 7 random lattice points in [0, 4]^n; the
lower-facet kernel ``newton_data`` on 200 seeded 2x2 systems, each with 3
or 4 terms per equation, exponents 0..8 and the same coefficients at p = 2,
with the total facet count as its result; and ``convex_hull`` of 40 sets
per ambient dimension 2..6 of 12 lattice points base + t * step on a line
(t in -6..6, so with interior and repeated points), the hulls of the
1-dimensional general build, with the total lattice length of the hulls as
its result.  At the default seed every
polyhedral result, and the near-one sweep's below, is checked against its
known value, and the script stops with an error at the first that differs.  The ``natural_log`` rows time
the interval-log kernel ``arith._ln_half_even`` beside ``Decimal.ln`` at
40, 80 and 1000 digits (the precision cap), on 500 seeded ratios of
integers below 10^12 (20 at 1000 digits) rounded to the working precision;
before timing, each row asserts that the two agree digit for digit, which
also builds the kernel's table.  The ``interval ops`` rows time products,
quotients, sums and differences at 40 and 80 digits, 6000 each, of 500
seeded intervals (enclosures of ratios of integers below 10^12, or their
logs) with another such interval, an int and a Fraction; before timing,
each row asserts that every result is, bit for bit, what the four-candidate
reference in ``tests/interval_reference.py`` returns.  The ``bound formulas`` rows evaluate, at
1000 digits, the reports of ``rootbounds bound`` for a trinomial over p = 2,
3, 5, 7 (local headline, facet bound and affine variant) and over two
global fields (headline and level sum), once with every per-precision memo
emptied first and once served from it.  The ``near-one sweep`` row runs
200 seeded requests at 40 digits, each a system of one or two equations
of 2 to 4 terms (exponents 0..8, the coefficients above) at p = 2, 3 or 5
with a radius r and a point t of components k/(7j), through ``cp_bound``,
``cp_bound_per_equation``, ``log_inequality_check`` and
``containment_check``, with the near-one log and radius memos emptied first; its
result is the sum of the integer bounds plus the number of log-inequality
conclusions and of containments that hold.  Each case draws its input from
a fresh ``random.Random(seed)``.  The script prints one line per case: its
name, its result (for the logs, the number of arguments) and the best wall
time over the repeats.
"""

from __future__ import annotations

import argparse
import math
import operator
import random
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import interval_reference as ref  # noqa: E402
from rootbounds import bounds  # noqa: E402
from rootbounds.arith import (  # noqa: E402
    _GUARD_DIGITS,
    MAX_DIGITS,
    Interval,
    _ln_half_even,
    euler_ratio,
    ln_prime,
    natural_log,
    set_precision,
)
from rootbounds.newton import (  # noqa: E402
    SparsePolynomial,
    SparseSystem,
    _near_one_radius,
    candidate_valuations,
    containment_check,
    facet_count,
    near_one_log,
    newton_data,
)
from rootbounds.polyhedra import convex_hull, mixed_volume  # noqa: E402

COEFFS = (1, 2, 3, 4, 6, 8, 12, 16)
UNITS = (1, 3, 5, 7)
TERMS = 4
MAX_EXP = 6
FLAT_MAX_EXP = 4
PRIME = 2
MV_POINTS = 7
MV_BOX = 4
BATCH = 200
BATCH_MAX_EXP = 8
DEFAULT_SEED = 2024
# the polyhedral and near-one results at DEFAULT_SEED
KNOWN = {
    "facet_count n=3": 30,
    "facet_count n=4": 110,
    "candidate_valuations n=3": 6,
    "face_bounds n=5": 5868,
    "facet_count flat 3x3 m=7": 1,
    "facet_count flat 4x4 m=5": 1,
    "mixed_volume n=3": 153,
    "mixed_volume n=4": 754,
    "newton_data facets 2x2": 1075,
    "convex_hull 1-D": 2629,
    "near-one sweep d=40": 59240,
}
COLLINEAR_SETS = 40
COLLINEAR_POINTS = 12
NEARONE_REQUESTS = 200
NEARONE_DIGITS = 40
INTERVAL_DRAWS = 500
# each interval operation beside its four-candidate reference
INTERVAL_OPS = ((operator.mul, ref.mul), (operator.truediv, ref.div),
                (operator.add, ref.add), (operator.sub, ref.sub))


def seeded_system(
    seed: int, n: int, terms: int = TERMS, max_exp: int = MAX_EXP, coeffs: tuple = COEFFS
) -> SparseSystem:
    rng = random.Random(seed)
    polys = []
    for _ in range(n):
        poly: dict[tuple[int, ...], Fraction] = {}
        while len(poly) < terms:
            exp = tuple(rng.randint(0, max_exp) for _ in range(n))
            poly[exp] = Fraction(rng.choice((-1, 1)) * rng.choice(coeffs))
        polys.append(SparsePolynomial.from_dict(poly))
    return SparseSystem.of(polys)


def seeded_batch(seed: int) -> list[SparseSystem]:
    """BATCH 2x2 systems, each drawn by ``seeded_system`` from its own seed."""
    rng = random.Random(seed)
    return [
        seeded_system(rng.getrandbits(32), 2, rng.randint(3, 4), BATCH_MAX_EXP)
        for _ in range(BATCH)
    ]


def seeded_polytopes(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [
        convex_hull([tuple(rng.randint(0, MV_BOX) for _ in range(n)) for _ in range(MV_POINTS)])
        for _ in range(n)
    ]


def seeded_collinear_sets(seed: int) -> list[list[tuple[int, ...]]]:
    """COLLINEAR_SETS sets per ambient dimension 2..6, each of COLLINEAR_POINTS
    lattice points base + t * step with t in -6..6."""
    rng = random.Random(seed)
    sets = []
    for dim in range(2, 7):
        for _ in range(COLLINEAR_SETS):
            base = [rng.randint(-9, 9) for _ in range(dim)]
            step = [0] * dim
            while not any(step):
                step = [rng.randint(-4, 4) for _ in range(dim)]
            ts = [rng.randint(-6, 6) for _ in range(COLLINEAR_POINTS)]
            sets.append([tuple(b + t * s for b, s in zip(base, step)) for t in ts])
    return sets


def lattice_length(sets: list[list[tuple[int, ...]]]) -> int:
    """The total number of lattice steps between the two hull vertices of
    each set (0 for a single point)."""
    total = 0
    for points in sets:
        vs = convex_hull(points).vertices
        total += math.gcd(*(b - a for a, b in zip(vs[0], vs[-1])))
    return total


def seeded_log_arguments(seed: int, digits: int, count: int) -> tuple[Context, list[Decimal]]:
    rng = random.Random(seed)
    ctx = Context(prec=digits + _GUARD_DIGITS)
    return ctx, [
        ctx.divide(Decimal(rng.randint(1, 10**12)), Decimal(rng.randint(1, 10**12)))
        for _ in range(count)
    ]


def seeded_interval_operands(seed: int, digits: int) -> list[tuple[Interval, object]]:
    """INTERVAL_DRAWS triples of pairs (x, y), (x, k) and (x, q) at digits:
    x the enclosure of a ratio of integers below 10^12 or its log (of either
    sign), y that of another such ratio or the log of 1 plus it, k an int and
    q a Fraction below 10^6 over 10^6."""
    set_precision(digits)
    rng = random.Random(seed)
    ratio = lambda: Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
    pairs = []
    for _ in range(INTERVAL_DRAWS):
        x = natural_log(ratio()) if rng.random() < 0.5 else Interval.from_fraction(ratio())
        y = natural_log(1 + ratio()) if rng.random() < 0.5 else Interval.from_fraction(ratio())
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        pairs += [(x, y), (x, rng.randint(2, 10**6)), (x, q)]
    return pairs


def interval_ops(pairs: list[tuple[Interval, object]], digits: int) -> int:
    """Every operation of INTERVAL_OPS on every pair at digits; returns
    their number."""
    set_precision(digits)
    return len([op(x, y) for x, y in pairs for op, _ in INTERVAL_OPS])


def check_interval_ops(pairs: list[tuple[Interval, object]], digits: int) -> None:
    """Stop unless every operation on every pair returns, bit for bit, what
    its reference returns."""
    set_precision(digits)
    as_pair = lambda v: (v.lo, v.hi) if isinstance(v, Interval) else v
    for x, y in pairs:
        for op, ref_op in INTERVAL_OPS:
            got, want = op(x, y), ref_op(as_pair(x), as_pair(y), digits)
            if (got.lo.as_tuple(), got.hi.as_tuple()) != (want[0].as_tuple(), want[1].as_tuple()):
                raise AssertionError(f"{op.__name__}{(x, y)} at {digits} digits: {got}, reference {want}")


def bound_formulas(clear: bool) -> int:
    """The bound reports of a trinomial (m = 3, n = 1) over Q_p for p = 2, 3,
    5, 7 and over global fields of degree 2 and 3, at MAX_DIGITS digits; with
    clear, after emptying every per-precision memo.  Returns their count."""
    set_precision(MAX_DIGITS)
    if clear:
        for fn in (ln_prime, euler_ratio, bounds._local_interval, bounds._global_interval,
                   bounds._facet_cp_interval, bounds._level_sum_interval):
            fn.cache_clear()
    reports = []
    for p in (2, 3, 5, 7):
        fs = bounds.LocalField(p)
        reports += [
            bounds.local_bound(fs, 3, 1, 1),
            bounds.local_facet_bound_from_counts(2, 1, fs, m=3, m_list=(3,)),
            bounds.affine_bound(fs, 3, 1, 1),
        ]
    for d in (2, 3):
        fs = bounds.GlobalField(d, 1)
        reports += [
            bounds.global_bound(fs, 3, 1, 1),
            bounds.global_facet_sum_bound_from_counts(2, 3, 1, fs),
        ]
    return len(reports)


def seeded_nearone_requests(seed: int) -> list[tuple[SparseSystem, int, tuple, tuple]]:
    """NEARONE_REQUESTS (system, p, r, t), each system drawn by
    ``seeded_system`` from its own seed."""
    rng = random.Random(seed)
    requests = []
    for _ in range(NEARONE_REQUESTS):
        n = rng.randint(1, 2)
        p = rng.choice((2, 3, 5))
        system = seeded_system(rng.getrandbits(32), n, rng.randint(2, 4), BATCH_MAX_EXP)
        r, t = (tuple(Fraction(rng.randint(1, 350), 7 * rng.randint(1, 7)) for _ in range(n))
                for _ in range(2))
        requests.append((system, p, r, t))
    return requests


def near_one_sweep(requests: list[tuple[SparseSystem, int, tuple, tuple]]) -> int:
    """The near-one bounds, log-inequality conclusion and containment of each
    request at NEARONE_DIGITS digits, the near-one log and radius memos
    emptied first;
    returns the sum of the integer bounds plus the conclusions and
    containments that hold."""
    set_precision(NEARONE_DIGITS)
    near_one_log.cache_clear()
    _near_one_radius.cache_clear()
    total = 0
    for system, p, r, t in requests:
        total += bounds.cp_bound(system.m, system.n, r, p).integer_bound
        total += bounds.cp_bound_per_equation(system.m_counts, system.n, r, p).integer_bound
        total += bounds.log_inequality_check(r, t, system.m, p)[1]
        total += containment_check(system, p, r)
    return total


def cases(seed: int):
    """(name, thunk) per case; each thunk returns the printed result."""
    for n in (3, 4):
        system = seeded_system(seed, n)
        yield f"facet_count n={n}", lambda s=system: facet_count(s, PRIME)
    system = seeded_system(seed, 3)
    yield "candidate_valuations n=3", lambda s=system: len(candidate_valuations(s, PRIME))
    data = newton_data(seeded_system(seed, 5, terms=3), PRIME)
    yield "face_bounds n=5", lambda d=data: sum(bound for _r, bound in d.face_bounds())
    for n, terms in ((3, 7), (4, 5)):
        system = seeded_system(seed, n, terms, FLAT_MAX_EXP, UNITS)
        yield f"facet_count flat {n}x{n} m={terms}", lambda s=system: facet_count(s, PRIME)
    for n in (3, 4):
        polytopes = seeded_polytopes(seed, n)
        yield f"mixed_volume n={n}", lambda ps=polytopes: mixed_volume(ps)
    systems = seeded_batch(seed)
    yield "newton_data facets 2x2", lambda ss=systems: sum(
        len(newton_data(s, PRIME).facets) for s in ss)
    collinear = seeded_collinear_sets(seed)
    yield "convex_hull 1-D", lambda sets=collinear: lattice_length(sets)
    for digits, count in ((40, 500), (80, 500), (MAX_DIGITS, 20)):
        ctx, xs = seeded_log_arguments(seed, digits, count)
        want = [x.ln(ctx).as_tuple() for x in xs]
        if [_ln_half_even(x, ctx.prec).as_tuple() for x in xs] != want:
            raise AssertionError(f"the log kernel disagrees with Decimal.ln at {digits} digits")
        yield f"natural_log d={digits} kernel", lambda c=ctx, xs=xs: len(
            [_ln_half_even(x, c.prec) for x in xs])
        yield f"natural_log d={digits} Decimal.ln", lambda c=ctx, xs=xs: len([x.ln(c) for x in xs])
    for digits in (40, 80):
        pairs = seeded_interval_operands(seed, digits)
        check_interval_ops(pairs, digits)
        yield f"interval ops d={digits}", lambda ps=pairs, d=digits: interval_ops(ps, d)
    yield f"bound formulas d={MAX_DIGITS} first call", lambda: bound_formulas(clear=True)
    yield f"bound formulas d={MAX_DIGITS} cached", lambda: bound_formulas(clear=False)
    requests = seeded_nearone_requests(seed)
    yield f"near-one sweep d={NEARONE_DIGITS}", lambda rs=requests: near_one_sweep(rs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--repeats", type=int, default=1, choices=range(1, 11), metavar="1..10")
    args = ap.parse_args(argv)
    for name, thunk in cases(args.seed):
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = thunk()
            best = min(best, time.perf_counter() - start)
            if args.seed == DEFAULT_SEED and name in KNOWN and result != KNOWN[name]:
                sys.exit(f"{name}: result {result}, known {KNOWN[name]} at seed {DEFAULT_SEED}")
        print(f"{name:<32} result {result!s:<8} {best:8.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
