"""Seeded request corpora for the benchmark workloads.

Each workload draws a fixed pool of distinct requests per request class
from ``POOL_SEED``; the expected output of every pool request is pinned in
``bench/pins/<workload>.txt``.  A run deals the pool out in blocks of fixed
composition; ``--seed`` picks which requests fill each block (see
:func:`blocks`), so every run sees the same mix of classes and nearly the
same cost while the requests themselves differ from seed to seed.  A
request is never repeated within a run.

A request is a plain dict, serialised canonically by :func:`request_key`:

* CLI requests: ``{"argv": [...], "stdin": text or None, "expect": code}``,
  run through ``rootbounds.cli.main``.
* Library requests (``nearone-sweep``): ``{"lib": "nearone", "precision":
  digits, "p": ..., "pairs": [[r, t], ...], "system": [...]}``, run as the
  near-one calls in ``bench/run.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

POOL_SEED = "rootbounds-bench-pool-1"
PINS_DIR = Path(__file__).resolve().parent / "pins"

Request = dict
Terms = list  # [(exponent tuple, Fraction coefficient), ...]


def request_key(req: Request) -> str:
    """Canonical one-line JSON of a request; equal requests give equal keys."""
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Polynomial generation and the terse text form
# ---------------------------------------------------------------------------


def _coeff(rng: random.Random, p: int) -> Fraction:
    """A nonzero rational scaled by p^v, v in -1..3, to spread valuations."""
    u = rng.randint(1, 40) * rng.choice((1, -1))
    v = rng.choice((0, 0, 0, 1, 1, 2, 3, -1))
    return Fraction(u) * Fraction(p) ** v


def _terms(rng: random.Random, n: int, m: int, deg: int, p: int) -> Terms:
    """m distinct exponent vectors of total degree <= deg in n variables."""
    exps: set[tuple[int, ...]] = set()
    while len(exps) < m:
        e = [rng.randint(0, deg) for _ in range(n)]
        if sum(e) <= deg:
            exps.add(tuple(e))
    return [(e, _coeff(rng, p)) for e in sorted(exps)]


def _monomial(exp: tuple[int, ...]) -> str:
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exp) if e
    )


def poly_text(terms: Terms) -> str:
    parts = []
    for exp, c in terms:
        mono = _monomial(exp)
        mag = abs(c)
        mag_text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag_text}*{mono}"
        else:
            body = mag_text
        parts.append(("-" if c < 0 else "+", body))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def system_text(polys: list[Terms]) -> str:
    return "".join(poly_text(t) + "\n" for t in polys)


def _uses_all_vars(polys: list[Terms], n: int) -> bool:
    return all(any(e[i] for t in polys for e, _ in t) for i in range(n))


def _system(rng, n: int, k: int, m_range: tuple[int, int], deg: int, p: int) -> list[Terms]:
    """k polynomials in n variables; every variable occurs, so the parser
    infers the intended n."""
    while True:
        polys = [_terms(rng, n, rng.randint(*m_range), deg, p) for _ in range(k)]
        if _uses_all_vars(polys, n):
            return polys


def _cli(argv: list[str], polys: list[Terms] | None, expect: int = 0) -> Request:
    return {
        "argv": argv,
        "stdin": None if polys is None else system_text(polys),
        "expect": expect,
    }


# ---------------------------------------------------------------------------
# Request classes, one generator per class: (rng) -> request
# ---------------------------------------------------------------------------


def _bound_uni(rng):
    p = rng.choice((2, 3, 5, 7))
    return _cli(["bound", "-", "--prime", str(p)], [_terms(rng, 1, rng.randint(3, 6), 60, p)])


def _bound_global(rng):
    argv = ["bound", "-", "--global", "--d", str(rng.randint(1, 4)), "--delta", str(rng.randint(1, 3))]
    if rng.random() < 0.5:
        argv.append("--affine")
    return _cli(argv, [_terms(rng, 1, rng.randint(3, 6), 60, 2)])


def _bound_prec80(rng):
    p = rng.choice((2, 3, 5, 7))
    return _cli(
        ["bound", "-", "--prime", str(p), "--precision", "80"],
        [_terms(rng, 1, rng.randint(3, 6), 60, p)],
    )


def _bound_sys2(rng):
    p = rng.choice((2, 3, 5, 7))
    return _cli(["bound", "-", "--prime", str(p)], _system(rng, 2, 2, (3, 4), 10, p))


_CORRUPTIONS = (
    lambda s: s.replace("^", "^^", 1),
    lambda s: s.rstrip("\n") + " +\n",
    lambda s: "(" + s,
    lambda s: s.replace("x1", "x1.5", 1),
    lambda s: s.replace("*", "**", 1),
)


def _bound_unparsable(rng):
    """Text the grammar rejects: exit code 2 by the CLI contract."""
    p = rng.choice((2, 3, 5, 7))
    while True:
        text = system_text([_terms(rng, 1, rng.randint(3, 6), 60, p)])
        bad = rng.choice(_CORRUPTIONS)(text)
        if bad != text:
            return {"argv": ["bound", "-", "--prime", str(p)], "stdin": bad, "expect": 2}


def _bound_cancel(rng):
    """f; -f with k > n: the aggregated sum cancels.  The CLI contract fixes
    exit code 3 (bad parameters); the seed commit raises CancellationError."""
    p = rng.choice((2, 3, 5, 7))
    f = _terms(rng, 1, rng.randint(2, 3), 20, p)
    neg = [(e, -c) for e, c in f]
    return _cli(["bound", "-", "--prime", str(p)], [f, neg], expect=3)


def _facets_sq2(rng):
    p = rng.choice((2, 3))
    return _cli(["facets", "-", "--prime", str(p)], _system(rng, 2, 2, (3, 4), 8, p))


def _facets_over(rng):
    p = rng.choice((2, 3))
    return _cli(["facets", "-", "--prime", str(p)], _system(rng, 2, 3, (3, 4), 8, p))


def _facets_sq3(rng):
    p = rng.choice((2, 3))
    return _cli(["facets", "-", "--prime", str(p)], _system(rng, 3, 3, (2, 3), 4, p))


def _facets_bad(rng):
    """k < n, or a one-term equation: exit code 3 by the CLI contract."""
    p = rng.choice((2, 3))
    if rng.random() < 0.5:
        polys = _system(rng, 2, 1, (3, 4), 8, p)
    else:
        polys = _system(rng, 2, 2, (3, 4), 8, p)
        polys[rng.randrange(2)] = _terms(rng, 2, 1, 8, p)
    return _cli(["facets", "-", "--prime", str(p)], polys, expect=3)


def _verify_uni(rng):
    p = rng.choice((2, 3, 5))
    return _cli(["verify", "-", "--prime", str(p)], [_terms(rng, 1, rng.randint(3, 5), 80, p)])


def _binomial(rng, n: int, p: int) -> list[Terms]:
    """n two-term equations with a nonsingular exponent-difference matrix."""
    while True:
        polys = [_terms(rng, n, 2, 3, p) for _ in range(n)]
        diffs = [[b - a for a, b in zip(t[0][0], t[1][0])] for t in polys]
        if _uses_all_vars(polys, n) and _det(diffs) != 0:
            return polys


def _det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def _verify_binom2(rng):
    p = rng.choice((2, 3, 5))
    return _cli(["verify", "-", "--prime", str(p), "--height-cap", "4"], _binomial(rng, 2, p))


def _verify_binom3(rng):
    p = rng.choice((2, 3, 5))
    return _cli(["verify", "-", "--prime", str(p), "--height-cap", "2"], _binomial(rng, 3, p))


def _verify_search2(rng):
    p = rng.choice((2, 3, 5))
    return _cli(
        ["verify", "-", "--prime", str(p), "--height-cap", "4"],
        _system(rng, 2, 2, (2, 3), 6, p),
    )


def _verify_random(rng):
    p = rng.choice((2, 3, 5))
    seed = rng.randrange(10**6)
    return _cli(["verify", "--prime", str(p), "--random", "5", "--seed", str(seed)], None)


def _fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _nearone(precision: int) -> Callable[[random.Random], Request]:
    """A 1- or 2-variable system at a prime, swept over four (r, t) radius
    pairs drawn like the weighted-log sweep of the acceptance suite."""

    def gen(rng):
        n = rng.randint(1, 2)
        p = rng.choice((2, 3, 5))
        system = [_terms(rng, n, rng.randint(2, 4), 12, p) for _ in range(n)]
        pairs = [
            [
                [_fraction_text(Fraction(rng.randint(1, 350), rng.randint(1, 7)) / 7) for _ in range(n)]
                for _ in range(2)
            ]
            for _ in range(4)
        ]
        return {
            "lib": "nearone",
            "precision": precision,
            "p": p,
            "pairs": pairs,
            "system": [[[list(e), _fraction_text(c)] for e, c in f] for f in system],
        }

    return gen


# ---------------------------------------------------------------------------
# Workloads: block shapes (cycled) and pool sizes
# ---------------------------------------------------------------------------

GENERATORS: dict[str, Callable[[random.Random], Request]] = {
    "bound.uni": _bound_uni,
    "bound.global": _bound_global,
    "bound.prec80": _bound_prec80,
    "bound.sys2": _bound_sys2,
    "bound.unparsable": _bound_unparsable,
    "bound.cancel": _bound_cancel,
    "facets.sq2": _facets_sq2,
    "facets.over": _facets_over,
    "facets.sq3": _facets_sq3,
    "facets.bad": _facets_bad,
    "verify.uni": _verify_uni,
    "verify.binom2": _verify_binom2,
    "verify.binom3": _verify_binom3,
    "verify.search2": _verify_search2,
    "verify.random": _verify_random,
    "nearone.p40": _nearone(40),
    "nearone.p80": _nearone(80),
}

# Each block is a dict class -> count; a workload cycles through its block
# shapes.  POOL_BLOCKS bounds how many blocks a run can deal before the pool
# is exhausted (the run then ends early and says so).
BLOCKS: dict[str, list[dict[str, int]]] = {
    "bound-mix": [
        {
            "bound.uni": 70,
            "bound.global": 10,
            "bound.prec80": 9,
            "bound.sys2": 8,
            "bound.unparsable": 2,
            "bound.cancel": 1,
        }
    ],
    "facets-square": [
        {"facets.sq2": 15, "facets.over": 2, "facets.sq3": 2, "facets.bad": 1}
    ],
    "verify-oracles": [
        {
            "verify.uni": 10,
            "verify.binom2": 2,
            "verify.binom3": 2,
            "verify.search2": 4,
            "verify.random": 2,
        }
    ],
    "nearone-sweep": [{"nearone.p40": 64}, {"nearone.p80": 64}],
}

POOL_BLOCKS: dict[str, int] = {
    "bound-mix": 60,
    "facets-square": 30,
    "verify-oracles": 50,
    "nearone-sweep": 120,
}

WORKLOADS = tuple(BLOCKS)


def _class_sizes(workload: str) -> dict[str, int]:
    shapes = BLOCKS[workload]
    per_shape = -(-POOL_BLOCKS[workload] // len(shapes))
    sizes: dict[str, int] = {}
    for shape in shapes:
        for cls, count in shape.items():
            sizes[cls] = sizes.get(cls, 0) + count * per_shape
    return sizes


@lru_cache(maxsize=None)
def pool(workload: str) -> dict[str, list[Request]]:
    """The fixed, distinct requests of each class of a workload (shared;
    callers must not modify them)."""
    seen: set[str] = set()
    out: dict[str, list[Request]] = {}
    for cls, size in sorted(_class_sizes(workload).items()):
        rng = random.Random(f"{POOL_SEED}:{cls}")
        reqs = []
        while len(reqs) < size:
            req = GENERATORS[cls](rng)
            key = request_key(req)
            if key not in seen:
                seen.add(key)
                reqs.append(req)
        out[cls] = reqs
    return out


def pool_requests(workload: str) -> Iterator[Request]:
    for reqs in pool(workload).values():
        yield from reqs


# ---------------------------------------------------------------------------
# Pinned outcomes: bench/pins/<workload>.txt
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pin:
    digest: str  # of (exit code, stdout), see bench/run.py
    cost_ms: float  # wall time when pinned; orders the cost strata
    known_failure: str | None  # why the request already failed when pinned


def pins_path(workload: str) -> Path:
    return PINS_DIR / f"{workload}.txt"


def pins_header(workload: str) -> str:
    h = hashlib.sha256()
    for req in pool_requests(workload):
        h.update(request_key(req).encode() + b"\n")
    return f"# rootbounds bench pins: workload {workload}, pool {h.hexdigest()[:16]}"


def write_pins(workload: str, pins: list[Pin]) -> None:
    lines = [pins_header(workload)]
    for pin in pins:
        note = f" known-failure: {pin.known_failure}" if pin.known_failure else ""
        lines.append(f"{pin.digest} {pin.cost_ms:.2f}{note}")
    pins_path(workload).write_text("\n".join(lines) + "\n")


@lru_cache(maxsize=None)
def pins(workload: str) -> tuple[Pin, ...]:
    """One pin per pool request, in pool order."""
    lines = pins_path(workload).read_text().splitlines()
    if lines[0] != pins_header(workload):
        raise SystemExit(f"{workload}: the pinned outcomes belong to another corpus pool; re-pin them")
    out = []
    for line in lines[1:]:
        value, cost, note = (line.split(" ", 2) + [""])[:3]
        out.append(Pin(value, float(cost), note.removeprefix("known-failure: ") or None))
    if len(out) != sum(1 for _ in pool_requests(workload)):
        raise SystemExit(f"{workload}: the pin file is truncated")
    return tuple(out)


# ---------------------------------------------------------------------------
# Run order
# ---------------------------------------------------------------------------


def _stride(depth: int) -> int:
    """A step near depth/phi and coprime to depth: walking a cost-sorted
    stratum with it visits every request once, and every prefix of the walk
    spreads evenly over the stratum's cost range."""
    step = max(1, round(depth * (5**0.5 - 1) / 2))
    while math.gcd(step, depth) != 1:
        step += 1
    return step


def blocks(workload: str, seed: int) -> Iterator[list[Request]]:
    """The run order for a seed: blocks of fixed composition, drawn by
    stratified sampling.  A class dealt c requests per block is sorted by
    pinned cost and cut into c strata; each block takes one request from
    every stratum, walking it from a seeded start with a golden-ratio
    stride, and the seed shuffles the order inside the block.  Runs with
    different seeds thus do different requests of nearly the same cost,
    however many blocks they get through."""
    rng = random.Random(seed)
    shapes = BLOCKS[workload]
    per_block = {cls: count for shape in shapes for cls, count in shape.items()}
    all_pins = pins(workload)
    decks: dict[str, list[list[Request]]] = {}
    offset = 0
    for cls, reqs in pool(workload).items():
        costs = [pin.cost_ms for pin in all_pins[offset : offset + len(reqs)]]
        offset += len(reqs)
        by_cost = sorted(range(len(reqs)), key=costs.__getitem__)
        depth = len(reqs) // per_block[cls]
        step = _stride(depth)
        decks[cls] = []
        for j in range(per_block[cls]):
            stratum = by_cost[j * depth : (j + 1) * depth]
            start = rng.randrange(depth)
            decks[cls].append([reqs[stratum[(start + b * step) % depth]] for b in range(depth)])
    taken = dict.fromkeys(decks, 0)
    for b in range(POOL_BLOCKS[workload]):
        block = []
        for cls in shapes[b % len(shapes)]:
            block.extend(stratum[taken[cls]] for stratum in decks[cls])
            taken[cls] += 1
        rng.shuffle(block)
        yield block


def sequence(workload: str, seed: int) -> Iterator[Request]:
    for block in blocks(workload, seed):
        yield from block
