"""Independent exact root counters used to sanity-check every bound.

The counters here deliberately avoid the polyhedral machinery of the rest of
the package: the univariate p-adic counter builds its own Newton polygon and
refines residues symbolically over the integers, the binomial counter goes
through Smith normal form, and the rational search is plain exhaustive
evaluation.  Nothing is approximated; a precision cap can make a run fail,
never return a wrong count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import ord_p_value, require_prime
from .newton import SparsePolynomial, SparseSystem, laurent_normalize
from .linalg import det, solve_square

DEFAULT_PRECISION_CAP = 60

# Cap on the prime of the univariate counter, which scans the p - 1 nonzero
# residues and all p again at each refinement level: at p near the cap a
# quadratic whose roots agree in 20 p-adic digits takes about 0.1 s.
MAX_SCAN_PRIME = 10**4


class PrecisionCapError(ArithmeticError):
    """Residue refinement hit the recursion cap before deciding."""


@dataclass(frozen=True)
class RootCount:
    count: int
    method: str
    region: str
    with_multiplicity: bool
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Dense univariate helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _deriv(cs: Sequence[Fraction]) -> list[Fraction]:
    return _trim([Fraction(i) * cs[i] for i in range(1, len(cs))])


def _divmod_exact(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = list(a)
    b = list(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        _trim(a)
    return _trim(q), a


def _gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _divmod_exact(a, b)
        a, b = b, _trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _squarefree_part(cs: Sequence[Fraction]) -> list[Fraction]:
    g = _gcd(cs, _deriv(cs))
    if len(g) <= 1:
        return _trim(list(cs))
    q, r = _divmod_exact(cs, g)
    if _trim(r):
        raise ArithmeticError("squarefree division left a remainder")
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
        (hull[i + 1][1] - hull[i][1]) / (hull[i + 1][0] - hull[i][0])
        for i in range(len(hull) - 1)
    ]


def _mod_p(c: Fraction, p: int) -> int:
    den = c.denominator % p
    if den == 0:
        raise ArithmeticError("coefficient with negative valuation in reduction")
    return c.numerator * pow(den, -1, p) % p


def _poly_mod_p(cs: Sequence[Fraction], p: int) -> list[int]:
    return [_mod_p(c, p) for c in cs]


def _eval_mod(cs_mod: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(cs_mod):
        acc = (acc * x + c) % p
    return acc


def _compose_residue(cs: Sequence[Fraction], rho: int, p: int) -> list[Fraction]:
    """Coefficients of h(rho + p*y)."""
    out: list[Fraction] = [Fraction(0)]
    for c in reversed(list(cs)):
        # out = out * (rho + p y) + c
        shifted = [Fraction(0)] + [p * x for x in out]
        for i, x in enumerate(out):
            shifted[i] += rho * x
        shifted[0] += c
        out = _trim(shifted)
        if not out:
            out = [Fraction(0)]
    return out


def _normalize_content(cs: Sequence[Fraction], p: int) -> list[Fraction]:
    nz = [c for c in cs if c != 0]
    if not nz:
        raise ArithmeticError("zero polynomial in residue refinement")
    shift = min(ord_p_value(c, p) for c in nz)
    scale = Fraction(p) ** (-shift)
    return [c * scale for c in cs]


def _count_padic_integer_roots(
    cs: list[Fraction], p: int, residues: Sequence[int], depth: int, cap: int
) -> int:
    """Distinct p-adic integer roots of a squarefree polynomial whose leading
    residue structure is explored class by class.

    Simple residues lift uniquely; multiple residues are refined by the
    substitution y -> rho + p y until they become simple or die out.
    """
    if depth > cap:
        raise PrecisionCapError(
            f"residue refinement exceeded the cap of {cap} levels"
        )
    cs_mod = _poly_mod_p(cs, p)
    deriv_mod = _poly_mod_p(_deriv(cs), p) if len(cs) > 1 else [0]
    count = 0
    for rho in residues:
        if _eval_mod(cs_mod, rho, p) != 0:
            continue
        if _eval_mod(deriv_mod, rho, p) != 0:
            count += 1
            continue
        refined = _normalize_content(_compose_residue(cs, rho, p), p)
        count += _count_padic_integer_roots(refined, p, range(p), depth + 1, cap)
    return count


def count_univariate_padic(
    f: SparsePolynomial, p: int, precision_cap: int = DEFAULT_PRECISION_CAP
) -> RootCount:
    """Exact number of distinct roots of f in the punctured p-adic line.

    The polynomial is reduced to its squarefree part first; only integer
    Newton-polygon slopes can carry roots with rational coordinates, and the
    units at each eligible valuation are counted by residue refinement.
    """
    require_prime(p)
    if p > MAX_SCAN_PRIME:
        raise ValueError(f"the univariate counter scans every residue mod p; p = {p} "
                         f"exceeds the cap {MAX_SCAN_PRIME} (MAX_SCAN_PRIME)")
    if f.n != 1:
        raise ValueError("the univariate counter takes one-variable polynomials")
    g = laurent_normalize(f)
    degree = g.total_degree()
    dense = [Fraction(0)] * (degree + 1)
    for exp, coeff in g.terms:
        dense[exp[0]] = coeff
    sf = _squarefree_part(dense)
    notes = ()
    if len(sf) != len(dense):
        notes = (
            f"squarefree reduction dropped degree {len(dense) - len(sf)}; "
            "multiple factors counted once",
        )
    if len(sf) <= 1:
        return RootCount(0, "univariate_padic", f"Q_{p}^*", False, notes)

    points = [(i, ord_p_value(c, p)) for i, c in enumerate(sf) if c != 0]
    total = 0
    for slope in _lower_hull_slopes(points):
        r = -slope
        if r.denominator != 1:
            continue
        rr = int(r)
        substituted = [c * Fraction(p) ** (rr * i) for i, c in enumerate(sf)]
        substituted = _normalize_content(substituted, p)
        total += _count_padic_integer_roots(
            substituted, p, range(1, p), 0, precision_cap
        )
    return RootCount(total, "univariate_padic", f"Q_{p}^*", False, notes)


# ---------------------------------------------------------------------------
# Smith normal form and binomial systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty matrix")
        w = len(self.entries[0])
        if any(len(r) != w for r in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def smith_normal_form(a: IntegerMatrix):
    """U, D, V with U a V = D diagonal, U and V unimodular; verified."""
    rows, cols = a.shape
    m = [list(r) for r in a.entries]
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

    d = IntegerMatrix.of(m)
    # verification: U a V = D and unimodularity
    ud = _mat_mul(_mat_mul(u, [list(r) for r in a.entries]), v)
    if ud != m:
        raise ArithmeticError("smith normal form transformation check failed")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        raise ArithmeticError("smith normal form transforms are not unimodular")
    return IntegerMatrix.of(u), d, IntegerMatrix.of(v)


def count_binomial_system(
    a: IntegerMatrix, c: Sequence[Fraction], p: int
) -> tuple[RootCount, tuple[Fraction, ...] | None]:
    """Roots of x^(row_i of a) = c_i in the p-adic complex torus.

    The count is the product of the Smith invariants (= |det a|); every root
    shares the valuation vector solving a . r = v_p(c), v_p the p-adic
    valuation of each constant."""
    require_prime(p)
    rows, cols = a.shape
    if rows != cols:
        raise ValueError("binomial counting takes a square exponent matrix")
    if len(c) != rows or any(Fraction(x) == 0 for x in c):
        raise ValueError("need one nonzero constant per equation")
    detv = det(a.entries)
    if detv == 0:
        raise ValueError("singular exponent matrix")
    _, d, _ = smith_normal_form(a)
    invariants = [d.entries[i][i] for i in range(rows)]
    count = 1
    for x in invariants:
        count *= abs(x)
    if count != abs(detv):
        raise ArithmeticError("smith invariant product disagrees with the determinant")
    ords = [ord_p_value(Fraction(x), p) for x in c]
    r = solve_square([[Fraction(x) for x in row] for row in a.entries], ords)
    rc = RootCount(
        count,
        "snf_binomial",
        f"(C_{p}^*)^{rows}",
        with_multiplicity=True,
    )
    return rc, (tuple(r) if r is not None else None)


# ---------------------------------------------------------------------------
# Exhaustive rational search and reference systems
# ---------------------------------------------------------------------------


def _rationals_up_to_height(h: int) -> list[Fraction]:
    out = []
    for den in range(1, h + 1):
        for num in range(1, h + 1):
            if math.gcd(num, den) == 1:
                out.append(Fraction(num, den))
                out.append(Fraction(-num, den))
    return sorted(out)


def rational_root_search(F: SparseSystem, height_cap: int) -> RootCount:
    """Exhaustive count of common roots in the punctured rational box of the
    given height: numerators and denominators up to the cap in magnitude.

    The search assigns variables one at a time and evaluates each polynomial
    as soon as all the variables it mentions are fixed, so equations in few
    variables prune the grid early; exactness is unaffected.
    """
    if F.n > 3:
        raise ValueError("rational search capped at 3 variables")
    if height_cap > 100:
        raise ValueError("rational search capped at height 100")
    if height_cap < 1:
        raise ValueError(f"rational search needs a height cap >= 1, got {height_cap}")
    n = F.n
    candidates = _rationals_up_to_height(height_cap)

    def used_vars(f: SparsePolynomial) -> list[int]:
        return [i for i in range(n) if any(exp[i] for exp, _ in f.terms)]

    by_depth: list[list[SparsePolynomial]] = [[] for _ in range(n)]
    for f in F.polynomials:
        vs = used_vars(f)
        if not vs:
            # a nonzero constant equation has no roots at all
            return RootCount(
                0,
                "rational_search",
                f"(Q^*)^{n}, numerator and denominator magnitudes <= {height_cap}",
                with_multiplicity=False,
            )
        by_depth[max(vs)].append(f)

    ones = tuple(Fraction(1) for _ in range(n))
    count = 0
    assignment: list[Fraction] = [Fraction(1)] * n

    def dfs(depth: int) -> None:
        nonlocal count
        if depth == n:
            count += 1
            return
        for x in candidates:
            assignment[depth] = x
            point = tuple(assignment[: depth + 1]) + ones[depth + 1 :]
            if all(f.evaluate(point) == 0 for f in by_depth[depth]):
                dfs(depth + 1)

    dfs(0)
    return RootCount(
        count,
        "rational_search",
        f"(Q^*)^{n}, numerator and denominator magnitudes <= {height_cap}",
        with_multiplicity=False,
    )


def product_system_root_count(m: int, n: int) -> RootCount:
    """The construction-time count for the separable reference system."""
    if not (2 <= m <= 8) or not (1 <= n <= 3):
        raise ValueError("reference count follows the product-system caps")
    return RootCount(
        (m - 1) ** n,
        "product_system",
        f"N^{n}, the grid {{1..{m - 1}}}^{n} by construction",
        with_multiplicity=True,
    )


def product_system(m: int, n: int) -> SparseSystem:
    """The separable reference system f_i = (x_i - 1)...(x_i - (m-1)); it has
    exactly (m-1)^n roots, all in the positive integer grid."""
    if not (2 <= m <= 8):
        raise ValueError("product system supports 2 <= m <= 8")
    if not (1 <= n <= 3):
        raise ValueError("product system supports 1 <= n <= 3")
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
        raise ValueError("cannot reduce a system with k < n")
    if F.k == F.n:
        return F
    total_terms = sum(f.m for f in F.polynomials)
    bound = 2 * F.k * total_terms
    rng = random.Random(seed)
    for _attempt in range(32):
        combos = []
        ok = True
        for _ in range(F.n):
            weights = [rng.randint(-bound, bound) for _ in range(F.k)]
            acc: dict[tuple[int, ...], Fraction] = {}
            for w, f in zip(weights, F.polynomials):
                if w == 0:
                    continue
                for exp, coeff in f.terms:
                    acc[exp] = acc.get(exp, Fraction(0)) + w * coeff
            acc = {e: c for e, c in acc.items() if c != 0}
            if not acc:
                ok = False
                break
            combos.append(SparsePolynomial.from_dict(acc))
        if ok:
            return SparseSystem.of(combos)
    raise ArithmeticError("could not draw a nondegenerate square reduction")
