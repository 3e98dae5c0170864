"""Exact convex geometry over the rationals in ambient dimension <= 6.

Hulls, faces, Minkowski sums, Euclidean volumes, and normalized mixed
volumes, all decided by exact integer determinants; no tolerances anywhere.
A planar hull is Andrew's monotone chain, with collinear points dropped and
the area taken by the shoelace formula; this covers the lift of every
univariate polynomial and every mixed volume in the plane.  Every other
hull, a 1-D one included, is an incremental beneath-beyond construction over
a simplicial facet complex, with coplanar pieces merged afterwards through
canonical primitive facet hyperplanes; each candidate facet normal is the
integer null vector of its d - 1 difference vectors (``linalg.null_vector``).
Both run on Python ints and report volume in lattice units: rational input
is scaled once by the lcm L of its denominators, and ``volume`` and
``mixed_volume`` divide by L^d.  Lattice points, such as the lifts of a
system, are int tuples throughout: they pass the scaling unchanged with
L = 1, and hulls, faces, sums and lower facets of them hold int tuples
again.  Fractions appear only where a value can be non-integral: in the
lower facet normals (r, 1) and in rational input.  Beneath-beyond
accumulates the volume as the initial simplex plus the pyramids swept out
by each insertion.  A :class:`Polytope` stores its sorted vertices and
nothing else: the ambient dimension is their length, and the affine
dimension is computed only when asked for.

The module runs no elimination of its own: determinants, pivots and null
vectors come from the one Bareiss elimination in ``linalg``.  Every
affine-hull question is answered by one pivoting pass of it over the
differences p_i - p_0 (``linalg.pivots``): its pivot rows give the affine
dimension d and d + 1 affinely independent points that seed the hull, and
its pivot columns d coordinate axes onto which the affine hull projects
bijectively.  That projection keeps vertices and faces, so a
lower-dimensional set is hulled on those axes, and a lower-facet functional
found there is pulled back into the span of the point set.  The lower cells
of a point set come from one lower-hull pass (``_lower_cells``) as chart
normals and vertex ids: ``lower_facets`` is a view of them, and the lower
facets of a Minkowski sum are read from one pass per summand without
hulling the sum (``lower_facets_of_sum``).  A lower facet whose faces have
dimensions adding up to its own is a direct sum of them, a fine facet: its
vertices are the sums of one vertex per face, with no hull, and the mixed
volume of its faces is 0 or the |det| of n edges, with no
inclusion-exclusion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import format_rational
from .errors import DimensionError, InternalError, ParamError
from .linalg import (
    Vector,
    det,
    dot,
    gram_solve,
    mat_rank,
    null_vector,
    pivots,
    to_vec,
    vec_sub,
)

MAX_DIM = 6

# a point of Q^n; a lattice point keeps int coordinates
Point = Vector
LatticePoint = tuple[int, ...]


@dataclass(frozen=True)
class Polytope:
    """Convex hull given by its extreme points, lexicographically sorted."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ParamError("empty polytopes are not constructed")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def affine_dim(self) -> int:
        return _affine_dim(self.vertices)

    def to_json_obj(self) -> list[list[str]]:
        return [[format_rational(c) for c in v] for v in self.vertices]


# ---------------------------------------------------------------------------
# Charts: affine dimension and a coordinate projection of the affine hull
# ---------------------------------------------------------------------------


def _lattice(points: Sequence[Point]) -> tuple[Sequence[LatticePoint], int]:
    """The points times the lcm L of all their coordinate denominators, as
    int tuples, and L; int tuples are returned as they are, with L = 1."""
    if all(type(x) is int for p in points for x in p):
        return points, 1
    lcm = math.lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (lcm // x.denominator) for x in p) for p in points], lcm


def _chart(points: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Indices of d + 1 affinely independent points, points[0] first, and d
    coordinate axes onto which the affine hull of the points projects
    bijectively, d being the affine dimension of the nonempty point set."""
    base = points[0]
    rows, axes = pivots([vec_sub(p, base) for p in points[1:]])
    return [0] + [i + 1 for i in rows], axes


def _on_axes(points: Sequence[Sequence[int]], axes: Sequence[int]) -> list[tuple[int, ...]]:
    return [tuple(p[a] for a in axes) for p in points]


def _affine_dim(points: Sequence[Point]) -> int:
    return len(_chart(_lattice(points)[0])[1])


# ---------------------------------------------------------------------------
# Full-dimensional hull: monotone chain in the plane, beneath-beyond above
# ---------------------------------------------------------------------------


def _primitive(normal: Sequence[int], offset: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(*normal)
    if g == 0:
        raise InternalError("zero facet normal")
    # offset = normal . x for an integer point x, so g divides it exactly
    return tuple(v // g for v in normal), offset // g


def _hyperplane(pts: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], int] | None:
    """Normal and offset of the hyperplane through d integer points in Z^d;
    None when the points span less than a hyperplane.  The normal is the
    null vector of the differences p_i - p_0, their cofactors up to sign."""
    p0 = pts[0]
    normal = null_vector([vec_sub(p, p0) for p in pts[1:]])
    if normal is None:
        return None
    return normal, dot(normal, p0)


def _half_chain(pts: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One monotone chain of Andrew's algorithm over sorted distinct points:
    the hull boundary turning left from the first point to the last, with
    collinear points dropped."""
    chain: list[tuple[int, ...]] = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


@dataclass
class _Facet:
    verts: tuple[int, ...]
    normal: tuple[int, ...]
    offset: int


class _Hull:
    """Exact hull of integer points spanning Z^d, in lattice units.

    ``simplex`` holds the indices of d + 1 affinely independent points, the
    first simplex of the beneath-beyond construction; a planar set is hulled
    by the monotone chain instead, and a set on a line takes the general
    build like any d != 2.  Exposes ``vertex_ids``, the canonical ``facets``
    as (inner primitive normal, vertex-id frozenset) pairs sorted by normal,
    and the ``volume`` of the integer points: a caller that scaled rational
    input by L divides it by L^d.
    """

    def __init__(self, pts: list[tuple[int, ...]], simplex: Sequence[int]):
        self.dim = len(simplex) - 1
        self.pts = pts
        if self.dim == 2:
            self._build_2d()
        else:
            self._build(simplex)

    def _build_2d(self) -> None:
        # Andrew's monotone chain over the distinct points; a duplicate point
        # shares the vertex and facets of its twins, as in the general build
        ids: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(self.pts):
            ids.setdefault(p, []).append(i)
        pts = sorted(ids)
        lower = _half_chain(pts)
        upper = _half_chain(reversed(pts))
        ring = lower[:-1] + upper[:-1]  # the vertices, counterclockwise
        twice_area = 0
        facets = []
        for a, b in zip(ring, ring[1:] + ring[:1]):
            dx, dy = b[0] - a[0], b[1] - a[1]
            twice_area += a[0] * b[1] - b[0] * a[1]
            g = math.gcd(dx, dy)
            # the interior lies left of a counterclockwise edge
            facets.append(((-dy // g, dx // g), frozenset(ids[a] + ids[b])))
        self.vertex_ids = sorted(i for v in ring for i in ids[v])
        self.facets = sorted(facets, key=lambda f: f[0])
        self.volume = Fraction(twice_area, 2)

    def _oriented(self, verts: tuple[int, ...]) -> _Facet | None:
        hp = _hyperplane([self.pts[v] for v in verts])
        if hp is None:
            return None
        normal, offset = hp
        # the interior point is the centroid of the initial simplex, kept
        # multiplied by d + 1 so that it stays integer
        side = dot(normal, self._interior) - (self.dim + 1) * offset
        if side == 0:
            raise InternalError("interior reference point on a facet hyperplane")
        if side < 0:
            normal = tuple(-x for x in normal)
            offset = -offset
        pn, po = _primitive(normal, offset)
        return _Facet(tuple(sorted(verts)), pn, po)

    def _build(self, simplex: Sequence[int]) -> None:
        d = self.dim
        spts = [self.pts[i] for i in simplex]
        self._interior = tuple(sum(p[j] for p in spts) for j in range(d))
        det_sum = abs(det([vec_sub(p, spts[0]) for p in spts[1:]]))
        facets: list[_Facet] = []
        for drop in range(d + 1):
            verts = tuple(v for k, v in enumerate(simplex) if k != drop)
            f = self._oriented(verts)
            if f is None:
                raise InternalError("degenerate initial simplex facet")
            facets.append(f)

        in_simplex = set(simplex)
        for i, q in enumerate(self.pts):
            if i in in_simplex:
                continue
            visible = [f for f in facets if dot(f.normal, q) < f.offset]
            if not visible:
                continue
            for f in visible:
                det_sum += abs(det([vec_sub(self.pts[v], q) for v in f.verts]))
            ridge_count: dict[tuple[int, ...], int] = {}
            for f in visible:
                for drop in range(d):
                    ridge = tuple(v for k, v in enumerate(f.verts) if k != drop)
                    ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
            horizon = [r for r, cnt in ridge_count.items() if cnt == 1]
            visible_set = {id(f) for f in visible}
            facets = [f for f in facets if id(f) not in visible_set]
            for ridge in horizon:
                nf = self._oriented(ridge + (i,))
                if nf is None:
                    raise InternalError("degenerate facet from horizon ridge")
                facets.append(nf)

        self.volume = Fraction(det_sum, math.factorial(d))
        self._finalize(facets)

    def _finalize(self, facets: list[_Facet]) -> None:
        geo = [
            (normal, frozenset(i for i, p in enumerate(self.pts) if dot(normal, p) == offset))
            for normal, offset in sorted({(f.normal, f.offset) for f in facets})
        ]
        if len(self.pts) == self.dim + 1:
            # d + 1 affinely independent points: a simplex, all of them vertices
            self.vertex_ids = list(range(len(self.pts)))
            self.facets = geo
            return
        # a point is extreme iff its incident facet normals span the space
        incident: dict[int, list[tuple[int, ...]]] = {}
        for normal, on in geo:
            for i in on:
                incident.setdefault(i, []).append(normal)
        vertex_ids = [
            i for i, normals in incident.items() if mat_rank(normals) == self.dim
        ]
        self.vertex_ids = sorted(vertex_ids)
        vset = set(self.vertex_ids)
        self.facets = [(normal, on & vset) for normal, on in geo]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _ambient_dim(pts: Sequence[Sequence]) -> int:
    """The common length of a nonempty point list, refused above MAX_DIM."""
    if not pts:
        raise ParamError("convex hull of an empty point list")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise DimensionError("points of mixed ambient dimension")
    if ambient > MAX_DIM:
        raise DimensionError(f"ambient dimension {ambient} exceeds the cap {MAX_DIM}")
    return ambient


def _point(p: Sequence) -> Point:
    """p as a tuple of its int coordinates and Fractions of the others."""
    return tuple(x if type(x) is int else Fraction(x) for x in p)


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """The vertices of the hull of the points, lattice points as int tuples."""
    pts = sorted({_point(p) for p in points})
    _ambient_dim(pts)
    ipts, _ = _lattice(pts)
    simplex, axes = _chart(ipts)
    if not axes:
        return Polytope((pts[0],))
    hull = _Hull(_on_axes(ipts, axes), simplex)
    return Polytope(tuple(pts[i] for i in hull.vertex_ids))


def face(p: Polytope, w: Sequence) -> Polytope:
    """Sub-polytope of P minimizing the linear functional w.x."""
    wv = to_vec(w)
    if len(wv) != p.ambient_dim:
        raise DimensionError("functional dimension does not match the polytope")
    vals = [dot(wv, v) for v in p.vertices]
    mn = min(vals)
    return Polytope(tuple(v for v, val in zip(p.vertices, vals) if val == mn))


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.ambient_dim != q.ambient_dim:
        raise DimensionError("Minkowski sum of polytopes in different dimensions")
    return convex_hull(
        tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices
    )


def project_pi(p: Polytope) -> Polytope:
    """Forget the last coordinate."""
    if p.ambient_dim < 2:
        raise DimensionError("projection requires ambient dimension >= 2")
    return convex_hull(v[:-1] for v in p.vertices)


def volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume in the ambient dimension; 0 when degenerate."""
    ipts, lcm = _lattice(p.vertices)
    simplex, axes = _chart(ipts)
    if len(axes) < p.ambient_dim:
        return Fraction(0)
    # a full chart takes every axis: the hull is of the points L*v themselves
    return _Hull(ipts, simplex).volume / lcm ** len(axes)


def mixed_volume(polytopes: Sequence[Polytope]) -> Fraction:
    """Normalized mixed volume of n polytopes in R^n.

    Inclusion-exclusion over Minkowski sums of subsets, with the
    normalization fixed by the standard-simplex tuple having mixed volume 1;
    equivalently mixed_volume(P, ..., P) = n! volume(P).
    """
    ps = list(polytopes)
    n = len(ps)
    if n == 0:
        raise ParamError("mixed volume of an empty tuple")
    if n > MAX_DIM:
        raise DimensionError(f"mixed volume capped at dimension {MAX_DIM}")
    if any(p.ambient_dim != n for p in ps):
        raise DimensionError("mixed volume requires n polytopes in R^n")
    # mixed volume is homogeneous of degree n under one common scale L, so
    # the subset sums run on the lattice points L*v and the total is
    # divided by L^n at the end
    flat, lcm = _lattice([v for p in ps for v in p.vertices])
    it = iter(flat)
    verts = [[next(it) for _ in p.vertices] for p in ps]
    total = Fraction(0)
    for size in range(1, n + 1):
        sign = 1 if (n - size) % 2 == 0 else -1
        for subset in itertools.combinations(range(n), size):
            pts = {
                tuple(map(sum, zip(*combo)))
                for combo in itertools.product(*(verts[i] for i in subset))
            }
            pts_list = sorted(pts)
            simplex, axes = _chart(pts_list)
            if len(axes) < n:
                continue
            total += sign * _Hull(pts_list, simplex).volume
    if total < 0:
        raise InternalError(f"negative mixed volume {total}; hull computation broken")
    return total / lcm**n


# ---------------------------------------------------------------------------
# Lower facets
# ---------------------------------------------------------------------------


def _scaled_normal(c: Sequence[int], axes: Sequence[int], basis: list[Vector], n: int) -> Vector:
    """(r, 1) for a lower normal c = (c_r, c_h), c_h > 0, given on the chart
    axes plus the height, where ``basis`` holds the chart's d independent
    projected differences b: r = c_r / c_h on a full chart, below full rank
    the minimum-norm r = B y with r.b = c_r.b / c_h for every b, and 0 on a
    chart of no axes."""
    if len(axes) == n:
        r = tuple(Fraction(x, c[-1]) for x in c[:-1])
    elif basis:
        target = [Fraction(sum(c[k] * b[a] for k, a in enumerate(axes)), c[-1]) for b in basis]
        y = gram_solve(basis, target)
        r = tuple(sum(yk * b[i] for yk, b in zip(y, basis)) for i in range(n))
    else:
        r = (Fraction(0),) * n
    return r + (Fraction(1),)


def _lower_cells(points: Sequence[Point]) -> tuple[list[Point], list[int], list[Vector], list]:
    """One lower-hull pass over a point set in Q^(n+1): the lowest points over
    the projections, sorted; the chart of their projections, as its axes and
    the d differences p_i - p_0 at its basis points; and the lower cells as
    (primitive normal (c_r, c_h) on the chart axes plus the height, c_h > 0,
    sorted ids of the cell's vertices among the lowest points)."""
    n = _ambient_dim(points) - 1
    if n < 1:
        raise DimensionError("lower facets require ambient dimension >= 2")
    lowest: dict[Point, Point] = {}
    for v in points:
        u = v[:-1]
        if u not in lowest or v[-1] < lowest[u][-1]:
            lowest[u] = v
    kept = sorted(lowest.values())
    ipts, _ = _lattice(kept)
    simplex_u, axes = _chart([q[:-1] for q in ipts])
    basis = [vec_sub(ipts[i][:-1], ipts[0][:-1]) for i in simplex_u[1:]]
    lifted = _on_axes(ipts, axes + [n])
    simplex, lifted_axes = _chart(lifted)
    if len(lifted_axes) == len(axes):
        # single linearity region: the lifted points span a hyperplane of
        # the chart, whose normal puts every one of them on one cell.  That
        # cell projects bijectively onto the chart axes, so its vertices
        # are those of the hull of the projection.
        c = null_vector([vec_sub(lifted[i], lifted[0]) for i in simplex[1:]])
        c, _ = _primitive(c if c[-1] > 0 else tuple(-x for x in c), 0)
        ids = _Hull(_on_axes(ipts, axes), simplex_u).vertex_ids if axes else [0]
        return kept, axes, basis, [(c, ids)]

    hull = _Hull(lifted, simplex)
    cells = [(normal, sorted(on)) for normal, on in hull.facets if normal[-1] > 0]
    return kept, axes, basis, cells


def lower_facets(points: Sequence[Point]) -> list[tuple[Vector, Polytope]]:
    """Maximal faces of the lower hull of a point set in Q^(n+1), each with
    its inner normal scaled to (r, 1), sorted by normal.

    The points are rational tuples, a polytope's vertices or any finite set
    such as the raw lift of a polynomial; each facet holds the hull vertices
    on it, as given.  The lower hull is the graph of the largest convex
    function under the points; its maximal linearity regions, the cells of
    ``_lower_cells``, are the returned facets.  For a degenerate set the
    normal component r is the unique representative in the projected span.
    """
    kept, axes, basis, cells = _lower_cells(points)
    n = len(kept[0]) - 1
    facets = [(_scaled_normal(c, axes, basis, n), Polytope(tuple(kept[i] for i in ids)))
              for c, ids in cells]
    return sorted(facets, key=lambda pair: pair[0])


def lower_facets_of_sum(
    point_sets: Sequence[Sequence[LatticePoint]],
) -> list[tuple[Vector, Polytope, tuple[Polytope, ...], bool]]:
    """The lower facets of the Minkowski sum of the hulls of lattice point
    sets in Z^(n+1), given as int tuples, read from the summands without
    forming the sum: each as (normal (r, 1), facet, face tuple, fine),
    sorted by normal, with the normals and facets of ``lower_facets`` of the
    sum.  Facet and face vertices are int tuples; only the normals hold
    Fractions.

    The facet with normal c is the sum of the faces F_i(c) of the summands
    minimizing c, and these are lower faces, each inside a lower cell of its
    summand.  So after one lower-hull pass per summand (``_lower_cells``),
    which gives its cells as vertex ids and scales no normal, only its lower
    vertices, those of its lower cells, are read: the minima c.x and the
    faces F_i(c), which hold vertices only.  Work on the coordinate axes of
    a chart of the projected sum, of dimension d, plus the height.
    Pick from each summand k_i + 1 vertices on a common lower cell, the k_i
    adding up to d, and take the null vector c of the d differences to each
    set's first vertex.  With a positive height component c_h, c is a lower
    facet normal exactly when every set attains min c.x on its summand;
    every lower facet arises so, since d independent such differences span
    the directions of its faces.  A normal found on the chart is scaled to
    (r, 1) as in ``lower_facets``.  The facet is fine when the dimensions
    of its faces, taken on the chart, add up to d: the sum is then direct,
    so every sum of one vertex per face is a vertex and no two coincide,
    and the facet is not hulled.  A face of one or two vertices has
    dimension 0 or 1 without elimination, as the chart keeps distinct lower
    vertices distinct.  A single summand's facets are fine.
    """
    if len(point_sets) == 1:
        return [(normal, facet, (facet,), True) for normal, facet in lower_facets(point_sets[0])]
    # each summand's lower vertices, sorted, and its cells as positions among them
    verts, cells = [], []
    for pts in point_sets:
        kept, _axes, _basis, summand_cells = _lower_cells(pts)
        lower = sorted({i for _c, ids in summand_cells for i in ids})
        at = {i: j for j, i in enumerate(lower)}
        verts.append([kept[i] for i in lower])
        cells.append([[at[i] for i in ids] for _c, ids in summand_cells])
    n = len(verts[0][0]) - 1
    if any(len(vs[0]) != n + 1 for vs in verts):
        raise DimensionError("Minkowski sum of point sets in different dimensions")
    # the projected sum spans the projected differences inside each summand
    diffs = [vec_sub(x[:-1], vs[0][:-1]) for vs in verts for x in vs[1:]]
    basis_ids, axes = pivots(diffs)
    basis = [diffs[i] for i in basis_ids]
    chart = [_on_axes(vs, axes + [n]) for vs in verts]
    d = len(axes)
    # per summand and k, its sets of k + 1 vertices on a common lower cell,
    # as (first vertex, the k differences from it); k = 0 asks nothing
    flats = []
    for cs, ps in zip(cells, chart):
        on_cell = set()
        for ids in cs:
            for size in range(2, min(len(ids), d + 1) + 1):
                on_cell.update(itertools.combinations(ids, size))
        by_k: dict[int, list] = {0: [(None, [])]}
        for ids in sorted(on_cell):
            by_k.setdefault(len(ids) - 1, []).append(
                (ids[0], [vec_sub(ps[j], ps[ids[0]]) for j in ids[1:]])
            )
        flats.append(by_k)

    results = []
    # the values c.x over each summand and their minima by primitive normal
    # c, None once c is a facet; one normal can come from sets on its faces
    # and from sets off them
    seen: dict[tuple[int, ...], tuple[list[list[int]], list[int]] | None] = {}
    # one set of k_i + 1 vertices per summand, the k_i adding up to d
    choices = itertools.chain.from_iterable(
        itertools.product(*(by_k.get(k, []) for by_k, k in zip(flats, ks)))
        for ks in itertools.product(range(d + 1), repeat=len(cells))
        if sum(ks) == d
    )
    for choice in choices:
        c = null_vector([row for _first, rows in choice for row in rows])
        if c is None or not c[-1]:
            continue
        c, _ = _primitive(c if c[-1] > 0 else tuple(-x for x in c), 0)
        if c not in seen:
            values = [[dot(c, x) for x in ps] for ps in chart]
            seen[c] = values, [min(vs) for vs in values]
        if seen[c] is None:
            continue
        values, lows = seen[c]
        if any(
            first is not None and values[i][first] != lows[i]
            for i, (first, _rows) in enumerate(choice)
        ):
            continue
        seen[c] = None
        on = [[j for j, v in enumerate(vs) if v == low] for vs, low in zip(values, lows)]
        faces = tuple(Polytope(tuple(vs[j] for j in ids)) for vs, ids in zip(verts, on))
        fine = sum(
            len(ids) - 1 if len(ids) <= 2 else len(_chart([ps[j] for j in ids])[1])
            for ps, ids in zip(chart, on)
        ) == d
        sums = sorted(
            {tuple(map(sum, zip(*xs))) for xs in itertools.product(*(f.vertices for f in faces))}
        )
        # a direct sum has every sum of one vertex per face as a vertex
        facet = Polytope(tuple(sums)) if fine else convex_hull(sums)
        results.append((_scaled_normal(c, axes, basis, n), facet, faces, fine))
    results.sort(key=lambda quad: quad[0])
    return results
