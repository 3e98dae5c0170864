"""p-adic Newton machinery for sparse Laurent polynomial systems.

A sparse polynomial lifts to its (exponent, coefficient valuation) points;
the lower facets of the aggregated system polytope enumerate every valuation
vector a torus root can have, and the mixed volume of the projected faces at
a given valuation bounds the number of roots carrying it.
:func:`newton_data` builds that analysis once per (system, prime) and every
public view below reads it.  The aggregate is the hull of one lift (the
coefficient-wise sum, k > n) or the Minkowski sum of the lifts (k = n); its
lower facets and their face tuples, for every k, are read off the lifts' own
points by one lower hull per lift (``polyhedra.lower_facets_of_sum``),
forming neither the lifts' hulls nor their sum, which only
:func:`newton_polytope` and :func:`system_polytope` build.  Lifted points
are lattice points, int tuples from :func:`_lift` to the facets and faces
of :class:`NewtonData`.  The shift f(1+x), the near-one radius and the
containment check at the bottom of the file exercise the
slow-valuation-decay phenomenon that drives the near-one root bounds.
:func:`collect_terms` is the one sum of terms (the parser, :func:`poly_sum`
and ``oracle.reduce_to_square`` read it), and :func:`integer_terms` the one
integer form, with denominators and least exponents cleared (the shift and
the exact counters read it).  The systems here are values only: ``parsing``
reads and writes both of their input forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import (
    Interval,
    _ord,
    _per_precision,
    euler_ratio,
    ln_prime,
    log_base,
    require_prime,
)
from .errors import (CancellationError, CapExceededError, InternalError, ParamError,
                     require_int, shown)
from .linalg import det, dot, mat_rank, nonneg_solution_exists, to_rational, to_vec, vec_sub
from .polyhedra import (
    LatticePoint,
    Polytope,
    convex_hull,
    lower_facets_of_sum,
    minkowski_sum,
    mixed_volume,
)

MAX_SHIFT_DEGREE = 30
MAX_SHIFT_VARS = 3

# Cap on the variables of a system, read by the parser and the bounds: each
# term is an n-tuple of exponents, and a bound's powers grow with n.
MAX_VARS = 100

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class SparsePolynomial:
    """Nonzero Laurent polynomial as a sorted (exponent, coefficient) tuple."""

    terms: tuple[tuple[Exponent, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ParamError("polynomials must have at least one term")
        n = len(self.terms[0][0])
        for exp, coeff in self.terms:
            if len(exp) != n:
                raise ParamError("mixed exponent lengths in one polynomial")
            if coeff == 0:
                raise ParamError("zero coefficients must not be stored")

    @classmethod
    def from_dict(cls, terms: Mapping[Exponent, Fraction | int]) -> "SparsePolynomial":
        for exp in terms:
            if type(exp) is not tuple:
                raise ParamError(f"exponents must be tuples of integers, got {shown(exp)}")
            for e in exp:
                require_int("each exponent", e)
        return cls(tuple(sorted(collect_terms(
            (exp, to_rational(c, "coefficients")) for exp, c in terms.items()
        ).items())))

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def support(self) -> tuple[Exponent, ...]:
        return tuple(exp for exp, _ in self.terms)

    def as_dict(self) -> dict[Exponent, Fraction]:
        return dict(self.terms)

    def evaluate(self, xs: Sequence[Fraction]) -> Fraction:
        if len(xs) != self.n:
            raise ParamError("evaluation point has wrong dimension")
        total = Fraction(0)
        for exp, coeff in self.terms:
            term = coeff
            for x, e in zip(xs, exp):
                term *= Fraction(x) ** e
            total += term
        return total


def collect_terms(terms: Iterable[tuple[Exponent, Fraction]]) -> dict[Exponent, Fraction]:
    """The sum of the (exponent, coefficient) terms, without the exponents
    whose coefficients cancel: the one accumulator of Fraction terms."""
    out: dict[Exponent, Fraction] = {}
    for e, c in terms:
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def poly_sum(polys: Iterable[SparsePolynomial]) -> SparsePolynomial:
    acc = collect_terms(t for f in polys for t in f.terms)
    if not acc:
        raise CancellationError("coefficient-wise sum cancelled to the zero polynomial")
    return SparsePolynomial(tuple(sorted(acc.items())))


def integer_terms(f: SparsePolynomial) -> tuple[int, Exponent, list[tuple[Exponent, int]]]:
    """The one integer form of f: (L, lo, terms) with f = x^lo * sum(c * x^e
    for e, c in terms) / L, where L is the lcm of the denominators, lo the
    least exponent of each variable, and each term (e - lo, L * coefficient)
    on ints, in the order of f's terms."""
    scale = math.lcm(*(c.denominator for _, c in f.terms))
    lo = tuple(map(min, zip(*f.support)))
    return scale, lo, [
        (tuple(a - b for a, b in zip(exp, lo)), c.numerator * (scale // c.denominator))
        for exp, c in f.terms
    ]


@dataclass(frozen=True)
class SparseSystem:
    polynomials: tuple[SparsePolynomial, ...]
    n: int

    def __post_init__(self) -> None:
        if not self.polynomials:
            raise ParamError("systems must contain at least one polynomial")
        for f in self.polynomials:
            if f.n != self.n:
                raise ParamError("polynomial variable count does not match system")

    @classmethod
    def of(cls, polys: Sequence[SparsePolynomial]) -> "SparseSystem":
        return cls(tuple(polys), polys[0].n)

    @property
    def k(self) -> int:
        return len(self.polynomials)

    @property
    def m(self) -> int:
        return len({exp for f in self.polynomials for exp in f.support})

    @property
    def m_counts(self) -> tuple[int, ...]:
        return tuple(f.m for f in self.polynomials)


# ---------------------------------------------------------------------------
# Lifted polytopes
# ---------------------------------------------------------------------------


def _lift(f: SparsePolynomial, p: int) -> list[LatticePoint]:
    """The (exponent, coefficient valuation) points of f, lattice points of
    Z^(n+1) as int tuples."""
    require_prime(p)
    return [exp + (_ord(c, p),) for exp, c in f.terms]


def newton_polytope(f: SparsePolynomial, p: int) -> Polytope:
    """Hull of the (exponent, coefficient valuation) lift in R^(n+1)."""
    return convex_hull(_lift(f, p))


def _face_bound(faces: Sequence[Polytope], fine: bool) -> int:
    """Normalized mixed volume of n polytopes in R^n, given whether their
    dimensions add up to the dimension of their sum (a fine tuple).  It is
    0 when a polytope is a point; for a fine tuple without one, every
    polytope is a segment and it is |det| of the n edges; otherwise it is
    the inclusion-exclusion of ``mixed_volume``.  An integer under the
    standard-simplex normalization for lattice polytopes, asserted not
    assumed."""
    if any(len(f.vertices) == 1 for f in faces):
        return 0
    if fine:
        mv = abs(det([vec_sub(b, a) for a, b in (f.vertices for f in faces)]))
    else:
        mv = mixed_volume(faces)
    if mv.denominator != 1:
        raise InternalError(
            f"face mixed volume {mv} is not an integer; normalization broken"
        )
    return int(mv)


@dataclass(frozen=True)
class NewtonData:
    """The Newton analysis of one system at one prime: the lower facets of
    the aggregated lift as (normal (r, 1), facet) pairs, sorted by normal,
    and each facet's face tuple, the faces minimizing (r, 1) of the lifts
    whose hull or Minkowski sum is the aggregate, which sum to the facet:
    (F_1(r), ..., F_n(r)) for k = n, and (facet,) for k > n, where no face
    bound is defined.  ``fine`` tells per facet whether the dimensions of
    its faces add up to its own, so that the sum is direct.  The lifts live
    in Z^(n+1), so facet and face vertices are int tuples; only the normals
    (r, 1) hold Fractions."""

    system: SparseSystem
    facets: tuple[tuple[tuple[Fraction, ...], Polytope], ...]
    faces: tuple[tuple[Polytope, ...], ...]
    fine: tuple[bool, ...]

    def face_bounds(self) -> list[tuple[tuple[Fraction, ...], int]]:
        """Sorted (r, bound) over the lower facet normals (r, 1) with a
        positive face mixed volume: the candidate valuation vectors, each with
        its bound on the torus roots carrying it.  Requires k = n.  A face
        tuple with a point face bounds 0, a fine one of n segments bounds
        |det| of its edges (Huber-Sturmfels), and only the rest run the
        inclusion-exclusion of ``mixed_volume``."""
        if self.system.k != self.system.n:
            raise ParamError("candidate valuations require k = n (reduce the system first)")
        out = []
        for (normal, _facet), faces, fine in zip(self.facets, self.faces, self.fine):
            # pi is injective on a non-vertical face, so the projected
            # vertices are the vertices of the projection, still sorted
            bound = _face_bound(
                [Polytope(tuple(v[:-1] for v in f.vertices)) for f in faces], fine
            )
            if bound > 0:
                out.append((normal[:-1], bound))
        return out


def valuation_vector_cap(m: int, n: int) -> int:
    """Combinatorial cap on the number of valuation vectors of torus roots:
    m-1, 4(m-1)^2, or (m(m-1)/2)^n according to n = 1, n = 2, n >= 3."""
    require_int("m", m, 2)
    require_int("n", n, 1, MAX_VARS)
    if n == 1:
        return m - 1
    if n == 2:
        return 4 * (m - 1) ** 2
    return (m * (m - 1) // 2) ** n


def _support_rank(F: SparseSystem) -> int:
    """Dimension of the affine span of the system's exponents."""
    exps = [e for f in F.polynomials for e in f.support]
    return mat_rank([vec_sub(e, exps[0]) for e in exps[1:]])


def newton_data(F: SparseSystem, p: int) -> NewtonData:
    """Build the lower facets of the aggregated lift and their face tuples
    from the lifts' own points (the lift of the coefficient-wise sum for
    k > n, else the lifts of the equations, whose Minkowski sum is not
    formed), checking the facet count against the cap on valuation
    vectors."""
    if F.k < F.n:
        raise ParamError("aggregated polytope needs k >= n")
    polys = [poly_sum(F.polynomials)] if F.k > F.n else F.polynomials
    quads = lower_facets_of_sum([_lift(g, p) for g in polys])
    facets = tuple((normal, facet) for normal, facet, _faces, _fine in quads)
    faces = tuple(fs for _normal, _facet, fs, _fine in quads)
    fine = tuple(fine for *_rest, fine in quads)
    cap = valuation_vector_cap(F.m, F.n) if F.m >= 2 else 1
    # the cap bounds the valuation vectors of isolated roots; a system whose
    # supports span fewer than n dimensions has none, and can have more
    # lower facets than the cap, so the rank is checked only past it
    if len(facets) > cap and _support_rank(F) == F.n:
        raise ParamError(
            f"lower facet count {len(facets)} exceeds the combinatorial cap {cap}"
        )
    return NewtonData(F, facets, faces, fine)


def system_polytope(F: SparseSystem, p: int) -> Polytope:
    """Aggregated lift: Newton polytope of the sum for k > n, else the
    Minkowski sum of the individual Newton polytopes."""
    if F.k < F.n:
        raise ParamError("aggregated polytope needs k >= n")
    if F.k > F.n:
        return newton_polytope(poly_sum(F.polynomials), p)
    return functools.reduce(minkowski_sum, [newton_polytope(f, p) for f in F.polynomials])


def facet_count(F: SparseSystem, p: int) -> int:
    """Number of lower facets of the aggregated lift."""
    return len(newton_data(F, p).facets)


def candidate_valuations(F: SparseSystem, p: int) -> list[tuple[Fraction, ...]]:
    """All r with (r, 1) a lower facet normal of the aggregated lift and a
    positive mixed volume of the projected face tuple."""
    return [r for r, _bound in newton_data(F, p).face_bounds()]


def valuation_face_bound(F: SparseSystem, p: int, r: Sequence[Fraction]) -> int:
    """Mixed volume of the projected faces at valuation vector r.

    Bounds the number of torus roots whose coordinatewise valuations equal
    r; zero when r is not a candidate valuation, as where (r, 1) is no
    lower facet normal the faces sum to a face of dimension below n.  Each
    call runs the whole analysis of :func:`newton_data`; for many r, read
    ``newton_data(F, p).face_bounds()`` once.
    """
    rv = to_vec(r, "r")
    if len(rv) != F.n:
        raise ParamError("valuation vector has wrong dimension")
    return dict(newton_data(F, p).face_bounds()).get(rv, 0)


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------


def shift_polynomial(f: SparsePolynomial) -> SparsePolynomial:
    """Exact expansion of f(1+x_1, ..., 1+x_n) after clearing Laurent terms.

    The integer form of f clears the denominators once, by their lcm, so the
    binomial expansion accumulates on ints; each output coefficient is
    divided by the lcm once.  Only negative exponents are cleared: the
    positive part of each least exponent is put back.
    """
    if f.n > MAX_SHIFT_VARS:
        raise CapExceededError(f"shift supports at most {MAX_SHIFT_VARS} variables")
    scale, lo, terms = integer_terms(f)
    up = [max(0, a) for a in lo]
    terms = [(tuple(a + b for a, b in zip(exp, up)), c) for exp, c in terms]
    if max(sum(exp) for exp, _ in terms) > MAX_SHIFT_DEGREE:
        raise CapExceededError(f"shift supports total degree <= {MAX_SHIFT_DEGREE}")
    acc: dict[Exponent, int] = {}
    for exp, c in terms:
        rows = [[math.comb(a, t) for t in range(a + 1)] for a in exp]
        for t in itertools.product(*(range(a + 1) for a in exp)):
            weight = c
            for row, t_i in zip(rows, t):
                weight *= row[t_i]
            acc[t] = acc.get(t, 0) + weight
    return SparsePolynomial(tuple(sorted((t, Fraction(c, scale)) for t, c in acc.items() if c)))


# ---------------------------------------------------------------------------
# The near-one radius and the containment check
# ---------------------------------------------------------------------------


@_per_precision
def near_one_log(m: int, n: int, r: tuple[Fraction, ...], p: int) -> Interval:
    """log_p((m-1)^n / (r_1...r_n ln^n p)), the log term of the near-one
    radius and of each factor of the per-equation near-one bound, memoised
    on (m, n, r, p) and the working digits, so a request that builds the
    radius and the bounds at one r evaluates it once."""
    prod_r = math.prod(r, start=Fraction(1))
    arg = Interval.from_fraction(Fraction((m - 1) ** n) / prod_r) / (ln_prime(p) ** n)
    return log_base(arg, p)


def _validate_r(r: Sequence, n: int) -> tuple[Fraction, ...]:
    rv = to_vec(r, "r")
    if len(rv) != n:
        raise ParamError(f"r must have length {n}")
    if any(x <= 0 for x in rv):
        raise ParamError("r components must be positive")
    return rv


def near_one_radius(m: int, n: int, r: Sequence[Fraction], p: int) -> Interval:
    """c(m-1)[sum r_j + log_p((m-1)^n / (r_1...r_n ln^n p))]: the radius of
    the scaled simplex sum r_j t_j <= radius, the right-hand side of the
    slow-decay implication, and the base of the general near-one bound."""
    r = to_vec(r, "r")
    s = sum(r, Fraction(0))
    return euler_ratio() * (m - 1) * (s + near_one_log(m, n, r, p))


def _pareto_minimal(points: dict[Exponent, int]) -> list[Exponent]:
    """Points minimal for the product order on (exponent, weighted height)."""
    items = sorted(points.items())
    out = []
    for t, z in items:
        dominated = False
        for t2, z2 in items:
            if t2 != t and z2 <= z and all(a <= b for a, b in zip(t2, t)):
                dominated = True
                break
        if not dominated:
            out.append(t)
    return out


def _sloped_support(
    g: SparsePolynomial, p: int, r: tuple[Fraction, ...]
) -> list[Exponent]:
    """Support points of g on some lower face whose normal (s, 1) has s >= r.

    A point t qualifies exactly when there is y >= 0 with, for every support
    point t', y.(t'-t) >= z_t - z_{t'} where z is the r-weighted valuation
    lift; the weighted form absorbs the shift s = r + y.  The lift is scaled
    to ints by L, the lcm of r's denominators: L*z_t = L*v_p(c_t) +
    (L*r).t, and a positive scale keeps every comparison and every
    feasibility below.  Feasibility is decided exactly, with constraints
    reduced to the dominance staircase first (dominated constraints are
    implied by their dominators).
    """
    scale = math.lcm(*(x.denominator for x in r))
    r_int = [x.numerator * (scale // x.denominator) for x in r]
    z = {exp: scale * _ord(c, p) + dot(r_int, exp) for exp, c in g.terms}
    staircase = _pareto_minimal(z)
    members = []
    for t, zt in sorted(z.items()):
        # cheap exclusion: a strictly lower staircase point below t
        strict_dom = any(
            z[t2] < zt and all(a <= b for a, b in zip(t2, t))
            for t2 in staircase
            if t2 != t
        )
        if strict_dom:
            continue
        rows = []
        rhs = []
        for t2 in staircase:
            if t2 == t:
                continue
            rows.append(tuple(b - a for a, b in zip(t, t2)))
            rhs.append(zt - z[t2])
        if nonneg_solution_exists(rows, rhs):
            members.append(t)
    return members


def containment_check(F: SparseSystem, p: int, r: Sequence[Fraction]) -> bool:
    """Check that every sloped support point t of each shifted polynomial lies
    in the scaled simplex for its term count: r.t <= the near-one radius
    rounded upward, which can only enlarge the simplex (the sound direction),
    or <= 0 for a monomial.  Shifted exponents are nonnegative, so t >= 0
    holds by construction."""
    require_prime(p)
    rv = _validate_r(r, F.n)
    outside = 0
    for f in F.polynomials:
        g = shift_polynomial(f)
        radius = near_one_radius(f.m, F.n, rv, p).upper().as_fraction() if f.m >= 2 else 0
        outside += sum(dot(rv, t) > radius for t in _sloped_support(g, p, rv))
    return outside == 0
