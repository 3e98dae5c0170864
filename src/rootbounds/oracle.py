"""Independent exact root counters used to sanity-check every bound.

The counters here deliberately avoid the polyhedral machinery of the rest of
the package: the univariate p-adic counter builds its own Newton polygon and
refines residues symbolically over the integers, the binomial counter goes
through Smith normal form, and the rational search is plain exhaustive
evaluation.  The p-adic counter and the search read a polynomial in its one
integer form, ``newton.integer_terms``.  Nothing is approximated; a
precision cap can make a run fail, never return a wrong count.
``verification_counts`` picks the counters for a system, and ``verdict``
what each count can refute.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import _int_ord, ord_p_value, require_prime
from .newton import SparsePolynomial, SparseSystem, collect_terms, integer_terms
from .errors import InternalError, ParamError, PrecisionCapError
from .linalg import det, solve_square

DEFAULT_PRECISION_CAP = 60

# Cap on the prime of the univariate counter, which scans the p - 1 nonzero
# residues and all p again at each refinement level: at p near the cap a
# quadratic whose roots agree in 20 p-adic digits takes about 0.1 s.
MAX_SCAN_PRIME = 10**4

# Cap on the degree span of the univariate counter, checked before the
# polynomial is made dense: the pseudo-remainder sequence of f and f' is at
# least quadratic in the degree.  At the cap x^d + 1 - 3x takes 0.2 s at p = 3.
MAX_UNIVARIATE_DEGREE = 2000

# Cap on the work of that sequence, which the degree alone does not bound:
# per pseudo-remainder step, 64 per coefficient touched plus, per nonzero one,
# its bits times the 64-bit words of the divisor's largest coefficient.  At
# 0.27 to 0.4 ns a unit (one core of an Intel Xeon server, Python 3.11), the
# slowest run under the cap takes about 4 s, and a refusal comes within about
# as long: a dense degree-200 input with 30-digit coefficients, a 5-term
# degree-1000 one and x^d + 7x^(d-1) - 5x^(d/2) + 3x - 1 at d = 2000 are
# refused, and a dense degree-300 input with coefficients 1..9 passes.
MAX_GCD_WORK = 10**10

# Caps on the rational search: the variables it runs in, and the height cap
# of its candidates (2H^2 per variable at height cap H).
MAX_SEARCH_VARS = 3
MAX_SEARCH_HEIGHT = 100


@dataclass(frozen=True)
class RootCount:
    """``count`` roots found by ``method`` in ``region``, the printed
    description of where it looked.  ``over`` is the field whose torus holds
    them, "Q", "Q_p" or "C_p"; ``isolated`` is True when each counted root
    is isolated, False when none is, None when that is not known."""
    count: int
    method: str
    region: str
    over: str
    isolated: bool | None
    notes: tuple[str, ...] = ()


def verification_counts(F: SparseSystem, p: int, height_cap: int) -> list[RootCount]:
    """The counts the bounds of F are checked against: the p-adic counter on
    one univariate equation, the Smith count on a square binomial system
    with a nonsingular exponent matrix, and the rational search in at most
    MAX_SEARCH_VARS variables.  A system that none covers is refused."""
    counts = []
    if F.n == 1 and F.k == 1:
        counts.append(count_univariate_padic(F.polynomials[0], p))
    if F.k == F.n and all(f.m == 2 for f in F.polynomials):
        exponents = [tuple(b - a for a, b in zip(*f.support)) for f in F.polynomials]
        # a singular exponent matrix has no isolated roots to count
        if det(exponents):
            constants = [-f.terms[0][1] / f.terms[1][1] for f in F.polynomials]
            counts.append(count_binomial_system(exponents, constants, p)[0])
    if F.n <= MAX_SEARCH_VARS:
        counts.append(rational_root_search(F, height_cap))
    if not counts:
        raise ParamError(f"no counter covers this system: n = {F.n} > {MAX_SEARCH_VARS} "
                         "(MAX_SEARCH_VARS), and it is no nonsingular square binomial system")
    return counts


def verdict(rc: RootCount, bound: int, F: SparseSystem) -> str | None:
    """Why rc's count, above a local bound on F's isolated roots, refutes
    nothing; None when the row stands as counted: the count is within the
    bound, or its roots lie in the torus of Q or Q_p (C_p lies in no finite
    extension of Q_p) and are not known to be non-isolated."""
    if rc.count <= bound:
        return None
    if rc.over not in ("Q", "Q_p"):
        return f"counted over {rc.region}, beyond the torus of the field the bound covers"
    if rc.isolated is False:
        return (f"k = {F.k} < n = {F.n}: every root lies on a positive-dimensional "
                "component, and the bound counts isolated roots only")
    return None


# ---------------------------------------------------------------------------
# Dense univariate helpers (integer coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _deriv(cs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _bits(cs: list[int]) -> int:
    return max(max(cs), -min(cs)).bit_length()


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials by the primitive
    pseudo-remainder sequence (Brown 1971): each step of a pseudo-remainder
    scales a by lc(b) / gcd(lc(a), lc(b)) before cancelling its top term,
    and every remainder is divided by its content.  A sequence weighing more
    than MAX_GCD_WORK is refused as it reaches the cap."""
    a, b = _primitive(a), _primitive(b)
    work = 0
    while len(b) > 1:
        lb, db = b[-1], len(b) - 1
        bits, words_b = _bits(a), max(_bits(b), 64) // 64
        while len(a) > db:
            la = a.pop()
            work += 64 * len(a) + (len(a) - a.count(0)) * bits * words_b
            if work > MAX_GCD_WORK:
                raise ParamError(f"the univariate counter's gcd weighs more than the cap "
                                 f"{MAX_GCD_WORK} (MAX_GCD_WORK), in coefficients touched "
                                 "times their bits")
            g = math.gcd(la, lb)
            if lb != g:
                a = [lb // g * x for x in a]
                bits += (lb // g).bit_length()
            shift, factor = len(a) - db, la // g
            for i in range(db):
                a[shift + i] -= factor * b[i]
            _trim(a)
        if not a:
            return b
        a, b = b, _primitive(a)
    return [1]


def _squarefree_part(cs: list[int]) -> list[int]:
    """The squarefree part of a primitive integer polynomial.  It is cs over
    the primitive gcd of cs and cs'; by Gauss's lemma the quotient is
    integral and primitive, so the division below is exact."""
    if len(cs) <= 2:
        return cs  # constants and linear polynomials are squarefree
    g = _primitive_gcd(cs, _deriv(cs))
    a, lg, dg = list(cs), g[-1], len(g) - 1
    q = [0] * (len(a) - dg)
    for shift in reversed(range(len(q))):
        q[shift], a[shift + dg] = divmod(a[shift + dg], lg)
        for i in range(dg):
            a[shift + i] -= q[shift] * g[i]
    if any(a):
        raise InternalError("squarefree division left a remainder")
    return q


def _lower_hull_slopes(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Slopes of the lower convex hull of (exponent, valuation) points."""
    pts = sorted(points)
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [
        Fraction(hull[i + 1][1] - hull[i][1], hull[i + 1][0] - hull[i][0])
        for i in range(len(hull) - 1)
    ]


def _eval_mod(cs_mod: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(cs_mod):
        acc = (acc * x + c) % p
    return acc


def _compose_residue(cs: Sequence[int], rho: int, p: int) -> list[int]:
    """Coefficients of h(rho + p*y)."""
    out = [0]
    for c in reversed(cs):
        # out = out * (rho + p y) + c
        shifted = [0] + [p * x for x in out]
        for i, x in enumerate(out):
            shifted[i] += rho * x
        shifted[0] += c
        out = _trim(shifted) or [0]
    return out


def _normalize_content(cs: list[int], p: int) -> list[int]:
    """cs != 0 divided by the largest power of p dividing every coefficient."""
    scale = p ** _int_ord(math.gcd(*cs), p)
    return [c // scale for c in cs]


def _count_padic_integer_roots(cs: list[int], p: int, residues: Sequence[int], depth: int) -> int:
    """Distinct p-adic integer roots of a squarefree integer polynomial, not
    every coefficient divisible by p, explored residue class by class.

    Simple residues lift uniquely; multiple residues are refined by the
    substitution y -> rho + p y until they become simple or die out.
    """
    if depth > DEFAULT_PRECISION_CAP:
        raise PrecisionCapError(
            f"residue refinement exceeded the cap of {DEFAULT_PRECISION_CAP} levels"
        )
    cs_mod = [c % p for c in cs]
    deriv_mod = [c % p for c in _deriv(cs_mod)] or [0]
    count = 0
    for rho in residues:
        if _eval_mod(cs_mod, rho, p) != 0:
            continue
        if _eval_mod(deriv_mod, rho, p) != 0:
            count += 1
            continue
        refined = _normalize_content(_compose_residue(cs, rho, p), p)
        count += _count_padic_integer_roots(refined, p, range(p), depth + 1)
    return count


def count_univariate_padic(f: SparsePolynomial, p: int) -> RootCount:
    """Exact number of distinct roots of f in the punctured p-adic line.

    All on Python ints: f's integer form (``newton.integer_terms``) is made
    primitive and reduced to its squarefree part by a primitive
    pseudo-remainder sequence with f'.  Only integer Newton-polygon slopes
    carry roots with rational coordinates; for each, f(p^r y) is scaled by
    the power of p that leaves its coefficients integral, one a unit, and the
    units y are counted by residue refinement.  These integer forms differ
    from f by rational scalars that the content normalisation makes p-adic
    units, and a unit changes no residue and no derivative test mod p.
    """
    require_prime(p)
    if p > MAX_SCAN_PRIME:
        raise ParamError(f"the univariate counter scans every residue mod p; p = {p} "
                         f"exceeds the cap {MAX_SCAN_PRIME} (MAX_SCAN_PRIME)")
    if f.n != 1:
        raise ParamError("the univariate counter takes one-variable polynomials")
    _, _, terms = integer_terms(f)
    degree = max(e for (e,), _ in terms)
    if degree > MAX_UNIVARIATE_DEGREE:
        raise ParamError(f"the univariate counter makes the polynomial dense; its degree "
                         f"{degree} exceeds the cap {MAX_UNIVARIATE_DEGREE} (MAX_UNIVARIATE_DEGREE)")
    dense = [0] * (degree + 1)
    for (e,), c in terms:
        dense[e] = c
    sf = _squarefree_part(_primitive(dense))
    notes = ()
    if len(sf) != len(dense):
        notes = (
            f"squarefree reduction dropped degree {len(dense) - len(sf)}; "
            "multiple factors counted once",
        )

    points = [(i, _int_ord(c, p)) for i, c in enumerate(sf) if c != 0]
    total = 0
    for slope in _lower_hull_slopes(points):
        if slope.denominator != 1:
            continue
        r = -slope.numerator
        low = min(v + r * i for i, v in points)
        # sf(p^r y) / p^low: every coefficient stays integral, one is a unit
        substituted = [c * p ** (r * i - low) if r * i >= low else c // p ** (low - r * i)
                       for i, c in enumerate(sf)]
        total += _count_padic_integer_roots(substituted, p, range(1, p), 0)
    return RootCount(total, "univariate_padic", f"Q_{p}^*", "Q_p", True, notes)


# ---------------------------------------------------------------------------
# Smith normal form and binomial systems
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def smith_normal_form(a: Sequence[Sequence[int]]):
    """U, D, V with U a V = D diagonal, U and V unimodular, as lists of int
    rows, for a nonempty rectangular int matrix a; verified."""
    if not a or any(len(r) != len(a[0]) for r in a):
        raise ParamError("smith normal form takes a nonempty rectangular matrix")
    rows, cols = len(a), len(a[0])
    m = [list(r) for r in a]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, factor):
        m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for r in m:
            r[dst] += factor * r[src]
        for r in v:
            r[dst] += factor * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        choices = [
            (abs(m[i][j]), i, j)
            for i in range(t, rows)
            for j in range(t, cols)
            if m[i][j] != 0
        ]
        if not choices:
            break
        _, pi, pj = min(choices)
        swap_rows(t, pi)
        swap_cols(t, pj)
        if m[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] % m[t][t] != 0:
                dirty = True
            add_row(t, i, -(m[i][t] // m[t][t]))
        for j in range(t + 1, cols):
            if m[t][j] % m[t][t] != 0:
                dirty = True
            add_col(t, j, -(m[t][j] // m[t][t]))
        if dirty or any(m[i][t] for i in range(t + 1, rows)) or any(
            m[t][j] for j in range(t + 1, cols)
        ):
            continue
        # divisibility of the remaining block
        offender = next(
            (
                (i, j)
                for i in range(t + 1, rows)
                for j in range(t + 1, cols)
                if m[i][j] % m[t][t] != 0
            ),
            None,
        )
        if offender is not None:
            add_row(offender[0], t, 1)
            continue
        t += 1

    # verification: U a V = D and unimodularity
    ud = _mat_mul(_mat_mul(u, [list(r) for r in a]), v)
    if ud != m:
        raise InternalError("smith normal form transformation check failed")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        raise InternalError("smith normal form transforms are not unimodular")
    return u, m, v


def count_binomial_system(
    a: Sequence[Sequence[int]], c: Sequence[Fraction], p: int
) -> tuple[RootCount, tuple[Fraction, ...] | None]:
    """Roots of x^(row_i of a) = c_i in the p-adic complex torus, for a
    square int matrix a.

    The count is the product of the Smith invariants (= |det a|); every root
    shares the valuation vector solving a . r = v_p(c), v_p the p-adic
    valuation of each constant."""
    require_prime(p)
    rows = len(a)
    if not rows or any(len(row) != rows for row in a):
        raise ParamError("binomial counting takes a square exponent matrix")
    if len(c) != rows or any(Fraction(x) == 0 for x in c):
        raise ParamError("need one nonzero constant per equation")
    detv = det(a)
    if detv == 0:
        raise ParamError("singular exponent matrix")
    _, d, _ = smith_normal_form(a)
    invariants = [d[i][i] for i in range(rows)]
    count = 1
    for x in invariants:
        count *= abs(x)
    if count != abs(detv):
        raise InternalError("smith invariant product disagrees with the determinant")
    ords = [ord_p_value(Fraction(x), p) for x in c]
    r = solve_square([[Fraction(x) for x in row] for row in a], ords)
    rc = RootCount(count, "snf_binomial", f"(C_{p}^*)^{rows}", "C_p", True)
    return rc, (tuple(r) if r is not None else None)


# ---------------------------------------------------------------------------
# Exhaustive rational search and reference systems
# ---------------------------------------------------------------------------


# Cap on the work of one rational search: at each level, the points tested
# (2H^2 candidates at height cap H times the survivors of the level above, at
# most the exponent span of an equation in x1 alone for the first) times 64
# plus, per term of each equation tested there, 64 + b + (b/64)^2, where
# b = span * bits(H) bounds the bits of the term's powers.  At the dearest
# unit measured, 2 ns (two-term equations in two or three variables, one
# core of an Intel Xeon server), the slowest search under the cap takes 6 s.
MAX_SEARCH_WORK = 3 * 10**9


@functools.cache
def _rationals_up_to_height(h: int) -> tuple[tuple[int, int], ...]:
    """The nonzero rationals of height <= h as (numerator, denominator)."""
    return tuple((s * a, b) for b in range(1, h + 1) for a in range(1, h + 1)
                 if math.gcd(a, b) == 1 for s in (1, -1))


def _integer_form(f: SparsePolynomial):
    """f's integer form as terms (c, ((j, e_j, s_j - e_j), ...)), each e_j
    counted from the least exponent of x_j, and the (j, s_j) of the
    variables whose exponents span s_j > 0 in f."""
    _, _, terms = integer_terms(f)
    spans = [(j, hi) for j, hi in enumerate(map(max, zip(*(e for e, _ in terms)))) if hi]
    return [(c, tuple((j, e[j], hi - e[j]) for j, hi in spans)) for e, c in terms], spans


def _vanishes(terms, nums: list[int], dens: list[int]) -> bool:
    total = 0
    for c, powers in terms:
        for j, up, down in powers:
            c *= nums[j] ** up * dens[j] ** down
        total += c
    return total == 0


def rational_root_search(F: SparseSystem, height_cap: int) -> RootCount:
    """Exhaustive count of common roots in the punctured rational box of the
    given height: numerators and denominators up to the cap in magnitude.

    Each equation f becomes, once, its integer form: integer coefficients c
    (f times the lcm of its denominators) with exponent offsets 0 <= e_j <= s_j
    from the least: x_j = a_j/b_j is a root exactly when
    sum c * prod a_j^e_j * b_j^(s_j - e_j), f(x) times a nonzero integer, is
    0, for Laurent exponents too.  Variables
    are assigned one at a time and each equation is tested once all of its
    variables are fixed, so equations in few variables prune the grid early.
    A search weighing more than MAX_SEARCH_WORK is refused before it starts.
    """
    if F.n > MAX_SEARCH_VARS:
        raise ParamError(f"rational search capped at {MAX_SEARCH_VARS} variables "
                         "(MAX_SEARCH_VARS)")
    if height_cap > MAX_SEARCH_HEIGHT:
        raise ParamError(f"rational search capped at height {MAX_SEARCH_HEIGHT} "
                         "(MAX_SEARCH_HEIGHT)")
    if height_cap < 1:
        raise ParamError(f"rational search needs a height cap >= 1, got {height_cap}")
    n = F.n
    region = f"(Q^*)^{n}, numerator and denominator magnitudes <= {height_cap}"
    # with k < n every root lies on a positive-dimensional component
    isolated = False if F.k < n else None
    by_depth: list[list] = [[] for _ in range(n)]
    candidates = 2 * height_cap**2  # per variable, at most
    level_cost = [64] * n  # per point tested at each level
    first_level_roots = candidates
    for f in F.polynomials:
        terms, spans = _integer_form(f)
        if not spans:
            # one monomial: no root in the torus
            return RootCount(0, "rational_search", region, "Q", isolated)
        depth = spans[-1][0]
        by_depth[depth].append(terms)
        span = sum(hi for _, hi in spans)
        if depth == 0:
            # a nonzero Laurent polynomial in x1 alone has at most span roots
            first_level_roots = min(first_level_roots, span)
        bits = span * height_cap.bit_length()
        level_cost[depth] += len(terms) * (64 + bits + (bits // 64) ** 2)
    work, points = 0, candidates
    for depth in range(n):
        work += points * level_cost[depth]
        points = (first_level_roots if depth == 0 else points) * candidates
    if work > MAX_SEARCH_WORK:
        raise ParamError(f"the rational search at height cap {height_cap} weighs {work} "
                         f"(points times exponent bits), above the cap {MAX_SEARCH_WORK} "
                         "(MAX_SEARCH_WORK)")

    nums, dens = [1] * n, [1] * n
    count = 0

    def dfs(depth: int) -> None:
        nonlocal count
        if depth == n:
            count += 1
            return
        for nums[depth], dens[depth] in _rationals_up_to_height(height_cap):
            if all(_vanishes(terms, nums, dens) for terms in by_depth[depth]):
                dfs(depth + 1)

    dfs(0)
    return RootCount(count, "rational_search", region, "Q", isolated)


def product_system_root_count(m: int, n: int) -> RootCount:
    """The construction-time count for the separable reference system."""
    if not (2 <= m <= 8) or not (1 <= n <= 3):
        raise ParamError("reference count follows the product-system caps")
    return RootCount((m - 1) ** n, "product_system",
                     f"N^{n}, the grid {{1..{m - 1}}}^{n} by construction", "Q", True)


def product_system(m: int, n: int) -> SparseSystem:
    """The separable reference system f_i = (x_i - 1)...(x_i - (m-1)); it has
    exactly (m-1)^n roots, all in the positive integer grid."""
    if not (2 <= m <= 8):
        raise ParamError("product system supports 2 <= m <= 8")
    if not (1 <= n <= 3):
        raise ParamError("product system supports 1 <= n <= 3")
    coeffs = [Fraction(1)]
    for j in range(1, m):
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= j * coeffs[i + 1]
    polys = []
    for i in range(n):
        terms = {}
        for k, c in enumerate(coeffs):
            if c != 0:
                exp = tuple(k if j == i else 0 for j in range(n))
                terms[exp] = c
        polys.append(SparsePolynomial.from_dict(terms))
    return SparseSystem.of(polys)


def reduce_to_square(F: SparseSystem, seed: int) -> SparseSystem:
    """Replace an overdetermined system by n random integer combinations.

    The combinations keep every common root and introduce no new exponent
    vectors; degenerate draws (a combination cancelling to zero) are redrawn
    a bounded number of times.  Multiplicity bookkeeping does not survive
    the reduction, so callers should report whether it was applied.
    """
    if F.k < F.n:
        raise ParamError("cannot reduce a system with k < n")
    if F.k == F.n:
        return F
    total_terms = sum(f.m for f in F.polynomials)
    bound = 2 * F.k * total_terms
    rng = random.Random(seed)
    for _attempt in range(32):
        combos = []
        for _ in range(F.n):
            weights = [rng.randint(-bound, bound) for _ in range(F.k)]
            acc = collect_terms((exp, w * coeff) for w, f in zip(weights, F.polynomials)
                                if w for exp, coeff in f.terms)
            if not acc:  # a cancelled combination: draw all n again
                break
            combos.append(SparsePolynomial.from_dict(acc))
        else:
            return SparseSystem.of(combos)
    raise ParamError("could not draw a nondegenerate square reduction")
