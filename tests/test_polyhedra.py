import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootbounds.linalg import (
    _bareiss_null_vector,
    _integer_rows,
    _phase_one_feasible,
    det,
    dot,
    gram_solve,
    mat_rank,
    null_vector,
    pivots,
    solve_square,
    to_vec,
    vec_sub,
)
from rootbounds.newton import _face_bound
from rootbounds.polyhedra import (
    DimensionError,
    Polytope,
    _chart,
    _Hull,
    _hyperplane,
    _lattice,
    _primitive,
    convex_hull,
    face,
    lower_facets,
    lower_facets_of_sum,
    minkowski_sum,
    mixed_volume,
    project_pi,
    volume,
)

SEED = 0x90C4


def in_convex_hull(points, target):
    """Exact test for target in conv(points): an independent oracle for the
    hull, by phase-one simplex on the convex-combination equalities."""
    pts = [to_vec(p) for p in points]
    tv = to_vec(target)
    if not pts:
        return False
    eq_rows = []
    q = []
    for i in range(len(tv)):
        row = [p[i] for p in pts]
        rhs_i = tv[i]
        if rhs_i < 0:
            row = [-x for x in row]
            rhs_i = -rhs_i
        eq_rows.append(row)
        q.append(rhs_i)
    eq_rows.append([Fraction(1)] * len(pts))
    q.append(Fraction(1))
    return _phase_one_feasible(eq_rows, q)


def rand_polytope(rng, n, n_points, coord_max=4):
    n_points = min(n_points, (coord_max + 1) ** n)
    pts = set()
    while len(pts) < n_points:
        pts.add(tuple(Fraction(rng.randint(0, coord_max)) for _ in range(n)))
    return convex_hull(pts)


# ---------------------------------------------------------------------------
# convex_hull
# ---------------------------------------------------------------------------


def test_hull_drops_interior_point():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))])
    assert len(p.vertices) == 3
    assert p.affine_dim == 2


def test_hull_singleton():
    p = convex_hull([(2, 3)])
    assert p.vertices == ((Fraction(2), Fraction(3)),)
    assert p.affine_dim == 0


def test_hull_vertices_are_extreme_random_3d():
    rng = random.Random(SEED)
    pts = [tuple(Fraction(rng.randint(0, 4)) for _ in range(3)) for _ in range(20)]
    p = convex_hull(pts)
    for v in p.vertices:
        others = [w for w in p.vertices if w != v]
        assert not in_convex_hull(others, v)
    # every input point must be in the hull of the vertex set
    for q in pts:
        assert in_convex_hull(p.vertices, q)


def test_hull_rejects_bad_input():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(DimensionError):
        convex_hull([(0, 0), (1, 1, 1)])
    with pytest.raises(DimensionError):
        convex_hull([tuple([0] * 7), tuple([1] * 7)])


def test_hull_idempotent():
    rng = random.Random(SEED + 1)
    for n in (1, 2, 3):
        for _ in range(10):
            p = rand_polytope(rng, n, rng.randint(2, 8))
            assert convex_hull(p.vertices) == p


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=9,
    )
)
def test_hull_idempotent_hypothesis(pts):
    p = convex_hull(pts)
    assert convex_hull(p.vertices) == p


# ---------------------------------------------------------------------------
# face
# ---------------------------------------------------------------------------

SQUARE = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_face_examples():
    assert face(SQUARE, (1, 1)).vertices == ((Fraction(0), Fraction(0)),)
    bottom = face(SQUARE, (0, 1))
    assert bottom.vertices == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    assert face(SQUARE, (0, 0)) == SQUARE


def test_face_idempotent():
    rng = random.Random(SEED + 2)
    for _ in range(25):
        p = rand_polytope(rng, 2, rng.randint(2, 8))
        w = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        f = face(p, w)
        assert face(f, w) == f


def test_face_dimension_mismatch():
    with pytest.raises(DimensionError):
        face(SQUARE, (1, 1, 1))


# ---------------------------------------------------------------------------
# minkowski_sum
# ---------------------------------------------------------------------------


def test_minkowski_examples():
    s1 = convex_hull([(0, 0), (1, 0)])
    s2 = convex_hull([(0, 0), (0, 1)])
    assert minkowski_sum(s1, s2) == SQUARE
    pt = convex_hull([(2, 5)])
    shifted = minkowski_sum(SQUARE, pt)
    assert shifted.vertices == tuple(
        (x + 2, y + 5) for (x, y) in SQUARE.vertices
    )
    with pytest.raises(DimensionError):
        minkowski_sum(SQUARE, convex_hull([(0, 0, 0)]))


def test_minkowski_supporting_functional():
    rng = random.Random(SEED + 3)
    for _ in range(10):
        p = rand_polytope(rng, 2, 3)
        q = rand_polytope(rng, 2, 3)
        s = minkowski_sum(p, q)
        for _ in range(12):
            w = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
            lhs = face(s, w)
            rhs = minkowski_sum(face(p, w), face(q, w))
            assert lhs == rhs


def test_minkowski_commutes_and_associates():
    rng = random.Random(SEED + 4)
    for n in (1, 2, 3):
        for _ in range(6):
            a = rand_polytope(rng, n, rng.randint(1, 4))
            b = rand_polytope(rng, n, rng.randint(1, 4))
            c = rand_polytope(rng, n, rng.randint(1, 4))
            assert minkowski_sum(a, b) == minkowski_sum(b, a)
            assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
                a, minkowski_sum(b, c)
            )


# ---------------------------------------------------------------------------
# lower_facets
# ---------------------------------------------------------------------------


def test_lower_facets_trinomial_lift():
    p = convex_hull([(0, 2), (2, 0), (10, 0)])
    got = {normal: facet.vertices for normal, facet in lower_facets(p.vertices)}
    assert set(got) == {(Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))}
    assert got[(Fraction(0), Fraction(1))] == (
        (Fraction(2), Fraction(0)),
        (Fraction(10), Fraction(0)),
    )


def test_lower_facets_flat_simplex():
    p = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    [(normal, facet)] = lower_facets(p.vertices)
    assert normal == (Fraction(0), Fraction(0), Fraction(1))
    assert facet == p


def test_lower_facets_cube_bottom():
    cube = convex_hull(itertools.product((0, 1), repeat=3))
    [(normal, facet)] = lower_facets(cube.vertices)
    assert normal == (Fraction(0), Fraction(0), Fraction(1))
    assert len(facet.vertices) == 4


def test_lower_facets_reject_bad_input():
    # the checks of convex_hull, made before any lower hull is built
    with pytest.raises(ValueError):
        lower_facets([])
    with pytest.raises(DimensionError):
        lower_facets([(0, 0), (1, 1, 1)])
    with pytest.raises(DimensionError, match="exceeds the cap"):
        lower_facets([tuple([0] * 7), tuple([1] * 7)])
    with pytest.raises(DimensionError):
        lower_facets([(0,), (1,)])


def test_lower_facets_support_property():
    # every lower facet hyperplane supports the polytope from below
    rng = random.Random(SEED + 5)
    for _ in range(15):
        pts = {
            (rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4))
            for _ in range(rng.randint(3, 8))
        }
        p = convex_hull(pts)
        for normal, facet in lower_facets(p.vertices):
            vals = [dot(normal, v) for v in p.vertices]
            mn = min(vals)
            on = [v for v, val in zip(p.vertices, vals) if val == mn]
            assert sorted(on) == sorted(facet.vertices)


# ---------------------------------------------------------------------------
# project_pi
# ---------------------------------------------------------------------------


def test_project_examples():
    seg = convex_hull([(0, 2), (2, 0)])
    assert project_pi(seg).vertices == ((Fraction(0),), (Fraction(2),))
    vert = convex_hull([(1, 0), (1, 5)])
    assert project_pi(vert).vertices == ((Fraction(1),),)


def test_project_contains_sampled_projections():
    rng = random.Random(SEED + 6)
    p = rand_polytope(rng, 3, 7)
    proj = project_pi(p)
    for _ in range(40):
        weights = [Fraction(rng.randint(0, 10)) for _ in p.vertices]
        total = sum(weights)
        if total == 0:
            continue
        point = tuple(
            sum(w * v[i] for w, v in zip(weights, p.vertices)) / total
            for i in range(3)
        )
        assert in_convex_hull(proj.vertices, point[:-1])


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_volume_examples():
    assert volume(SQUARE) == 1
    simplex3 = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert volume(simplex3) == Fraction(1, 6)
    flat = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert volume(flat) == 0


def _brute_h_rep(p: Polytope):
    """Independent facet enumeration: all hyperplanes through d vertices with
    every vertex on one side."""
    d = p.ambient_dim
    out = []
    for combo in itertools.combinations(p.vertices, d):
        rows = [vec_sub(q, combo[0]) for q in combo[1:]]
        if mat_rank(rows) != d - 1:
            continue
        normal = []
        for j in range(d):
            minor = [[r[i] for i in range(d) if i != j] for r in rows]
            normal.append((-1 if j % 2 else 1) * (det(minor) if minor else Fraction(1)))
        nv = to_vec(normal)
        b = dot(nv, combo[0])
        vals = [dot(nv, v) - b for v in p.vertices]
        if all(x >= 0 for x in vals):
            out.append((nv, b))
        elif all(x <= 0 for x in vals):
            out.append((tuple(-x for x in nv), -b))
    return out


def test_volume_against_monte_carlo():
    rng = random.Random(SEED + 8)
    pts = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(9)]
    p = convex_hull(pts)
    vol = volume(p)
    hrep = _brute_h_rep(p)
    box = 8 * 8
    hits = 0
    trials = 20_000
    for _ in range(trials):
        x = Fraction(rng.randint(0, 8 * 128), 128)
        y = Fraction(rng.randint(0, 8 * 128), 128)
        if all(dot(nv, (x, y)) >= b for nv, b in hrep):
            hits += 1
    estimate = Fraction(hits, trials) * box
    assert abs(estimate - vol) / vol < Fraction(2, 100)


# ---------------------------------------------------------------------------
# mixed_volume
# ---------------------------------------------------------------------------

STD2 = convex_hull([(0, 0), (1, 0), (0, 1)])


def test_mixed_volume_normalization():
    assert mixed_volume([STD2, STD2]) == 1
    std3 = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert mixed_volume([std3, std3, std3]) == 1
    assert mixed_volume([convex_hull([(0,), (1,)])]) == 1


def test_mixed_volume_scaled_corner_simplex():
    r = (Fraction(2), Fraction(3))
    q = convex_hull([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))])
    assert mixed_volume([q, q]) == Fraction(1, 6)


def test_mixed_volume_segments_determinant():
    s1 = convex_hull([(0, 0), (2, 0)])
    s2 = convex_hull([(0, 0), (0, 3)])
    assert mixed_volume([s1, s2]) == 6


def test_mixed_volume_symmetry_and_multilinearity():
    rng = random.Random(SEED + 9)
    for n in (2, 3):
        for _ in range(8):
            ps = [rand_polytope(rng, n, rng.randint(2, 4)) for _ in range(n)]
            mv = mixed_volume(ps)
            perm = list(ps)
            rng.shuffle(perm)
            assert mixed_volume(perm) == mv
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = convex_hull([tuple(lam * x for x in v) for v in ps[0].vertices])
            assert mixed_volume([scaled] + ps[1:]) == lam * mv


def test_mixed_volume_diagonal_is_factorial_volume():
    rng = random.Random(SEED + 10)
    for n in (1, 2, 3):
        for _ in range(6):
            p = rand_polytope(rng, n, rng.randint(2, 5))
            assert mixed_volume([p] * n) == math.factorial(n) * volume(p)


def _independent_segment_selection(polys):
    # segments [a, b] with a, b vertices of P_i: Bernstein's criterion holds
    # for any segments contained in each P_i, edges or not
    seg_dirs = [
        [vec_sub(b, a) for a, b in itertools.combinations(p.vertices, 2)] for p in polys
    ]
    n = len(polys)
    for combo in itertools.product(*seg_dirs):
        if mat_rank(list(combo)) == n:
            return combo
    return None


def test_positive_mixed_volume_implies_independent_edges():
    rng = random.Random(SEED + 11)
    found_positive = 0
    for _ in range(20):
        n = rng.choice([2, 3])
        ps = [rand_polytope(rng, n, rng.randint(2, 4)) for _ in range(n)]
        if mixed_volume(ps) > 0:
            found_positive += 1
            assert _independent_segment_selection(ps) is not None
    assert found_positive > 0


def test_mixed_volume_validation():
    with pytest.raises(DimensionError):
        mixed_volume([STD2])
    with pytest.raises(DimensionError):
        mixed_volume([STD2, STD2, STD2])


def test_polytope_json_roundtrip():
    p = convex_hull([(0, 0), (Fraction(1, 2), 0), (0, Fraction(7, 3))])
    obj = p.to_json_obj()
    assert obj == [["0", "0"], ["0", "7/3"], ["1/2", "0"]]
    assert convex_hull([[Fraction(c) for c in v] for v in obj]) == p


def test_hull_dimension_four_cube():
    c4 = convex_hull(itertools.product((0, 1), repeat=4))
    assert len(c4.vertices) == 16
    assert volume(c4) == 1


def test_hull_at_dimension_cap():
    simplex_pts = [tuple(0 for _ in range(6))] + [
        tuple(1 if j == i else 0 for j in range(6)) for i in range(6)
    ]
    p = convex_hull(simplex_pts + [tuple(1 for _ in range(6))])
    assert len(p.vertices) == 8
    # simplex plus the pyramid capping its outer face: n/n! in dimension n
    assert volume(p) == Fraction(1, 120)


# ---------------------------------------------------------------------------
# integer kernel against the Fraction elimination it replaced
# ---------------------------------------------------------------------------


def _fraction_det(rows):
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        pv = m[col][col]
        result *= pv
        inv = 1 / pv
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return result


def _fraction_rank(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def _rand_matrix(rng, nrows, ncols, rational):
    def entry():
        if rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    kind = rng.randrange(4)
    if nrows >= 2 and kind == 0:  # duplicate row
        i, j = rng.sample(range(nrows), 2)
        rows[i] = list(rows[j])
    elif nrows >= 3 and kind == 1:  # row in the span of two others
        i, j, k = rng.sample(range(nrows), 3)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    elif ncols >= 2 and kind == 2:  # zero column: elimination must skip it
        c = rng.randrange(ncols)
        for r in rows:
            r[c] = 0 * r[c]
    return rows


def test_det_and_rank_match_fraction_reference():
    rng = random.Random(SEED + 20)
    singular = 0
    for trial in range(400):
        n = rng.randint(0, 6)
        rational = trial % 2 == 1
        rows = _rand_matrix(rng, n, n, rational)
        d = det(rows)
        assert d == _fraction_det(rows)
        if not rational:
            assert type(d) is int
        elif n:
            assert type(d) is Fraction
        singular += d == 0
        assert mat_rank(rows) == _fraction_rank(rows)
        _check_pivots(rows)
        wide = _rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), rational)
        assert mat_rank(wide) == _fraction_rank(wide)
        _check_pivots(wide)
    assert singular >= 50
    # a scaled permutation matrix pivots in the order of its permutation, so
    # every order of pivot rows, even or odd, shows up
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            rows = [[(i + 2) * (j == perm[i]) for j in range(n)] for i in range(n)]
            assert det(rows) == _fraction_det(rows)


def _gauss_jordan(rows, rhs):
    """The Fraction Gauss-Jordan solver that solve_square replaced."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def test_solve_square_matches_gauss_jordan():
    rng = random.Random(SEED + 21)
    singular = zero_rhs = 0
    for trial in range(600):
        n = trial % 7
        rational = trial % 2 == 1
        rows = _rand_matrix(rng, n, n, rational)
        if trial % 5 == 0:
            rhs = [0] * n
        else:
            rhs = [row[0] for row in _rand_matrix(rng, n, 1, rational)]
        want = _gauss_jordan(rows, rhs)
        got = solve_square(rows, rhs)
        assert got == want
        if want is None:
            singular += 1
            continue
        assert all(type(x) is Fraction for x in got)
        assert all(dot(row, got) == b for row, b in zip(rows, rhs))
        zero_rhs += not any(rhs)
    assert singular >= 100 and zero_rhs >= 50


def test_null_vector_spans_the_kernel():
    rng = random.Random(SEED + 22)
    deficient = 0
    for trial in range(300):
        k = trial % 6
        rows = _rand_matrix(rng, k, k + 1, trial % 2 == 1)
        c = null_vector(rows)
        if _fraction_rank(rows) < k:
            assert c is None
            deficient += 1
            continue
        assert all(type(x) is int for x in c) and any(c)
        assert all(dot(row, c) == 0 for row in rows)
    assert deficient >= 50
    with pytest.raises(ValueError):
        null_vector([[1, 2, 3]])


def test_closed_form_null_vectors_match_the_elimination():
    # null_vector writes out the cofactors of 1 x 2 and 2 x 3 matrices; on
    # int and Fraction rows they must span the line of the Bareiss null
    # vector, and be None exactly when it is
    rng = random.Random(SEED + 23)
    deficient = 0
    for trial in range(600):
        k = 1 + trial % 2
        rational = trial % 4 >= 2
        rows = _rand_matrix(rng, k, k + 1, rational)
        if trial % 3 == 0:  # rank below k: a zero row, or two parallel ones
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rational else rng.randint(-3, 3)
            rows[-1] = [s * x for x in rows[0]] if k == 2 else [0 * x for x in rows[0]]
        c = null_vector(rows)
        ref = _bareiss_null_vector(_integer_rows(rows)[0])
        if ref is None:
            assert c is None and _fraction_rank(rows) < k
            deficient += 1
            continue
        assert c is not None and all(type(x) is int for x in c) and any(c)
        assert all(a * y == b * x for (a, x), (b, y) in itertools.combinations(zip(c, ref), 2))
        assert all(dot(row, c) == 0 for row in rows)
    assert deficient >= 150


def _check_pivots(rows):
    row_ids, col_ids = pivots(rows)
    rank = _fraction_rank(rows)
    assert len(row_ids) == len(col_ids) == rank
    assert _fraction_det([[rows[i][j] for j in col_ids] for i in row_ids]) != 0
    basis = [rows[i] for i in row_ids]
    for i in set(range(len(rows))) - set(row_ids):
        assert _fraction_rank(basis + [rows[i]]) == rank


def _point_set(rng, d, kind):
    """Seeded point sets exercising the lcm scaling and degenerate input."""
    if kind == "lattice":
        return [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 4)]
    if kind == "rational":
        return [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
            for _ in range(d + 4)
        ]
    if kind == "duplicates":
        pts = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 2)]
        return pts + [rng.choice(pts) for _ in range(3)]
    # coplanar: grid points on the face x_1 = 0 of a box, alone or with two
    # points off it (then that facet carries many coplanar points), or
    # rational points on the hyperplane x_d = (x_1 + ... + x_{d-1}) / 2
    box = [tuple(rng.choice((0, 2)) if i else 0 for i in range(d)) for _ in range(d + 2)]
    flat = []
    for _ in range(d + 2):
        head = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d - 1)]
        flat.append(tuple(head) + (sum(head) / 2,))
    return rng.choice([box, flat, box + [(1,) * d, (1,) + (0,) * (d - 1)]])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["lattice", "rational", "duplicates", "coplanar"])
def test_integer_hull_against_independent_checks(d, kind):
    rng = random.Random(f"{SEED}-{d}-{kind}")
    for _ in range(3):
        pts = _point_set(rng, d, kind)
        p = convex_hull(pts)
        distinct = sorted(set(to_vec(q) for q in pts))
        outside = [
            q
            for i, q in enumerate(distinct)
            if not in_convex_hull(distinct[:i] + distinct[i + 1 :], q)
        ]
        assert list(p.vertices) == outside
        k = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = convex_hull([tuple(k * x for x in v) for v in p.vertices])
        assert volume(scaled) == k**d * volume(p)
        # at most d + 2 vertices keep the d-fold Minkowski sums small
        q = convex_hull(p.vertices[: d + 2])
        assert mixed_volume((q,) * d) == math.factorial(d) * volume(q)


# ---------------------------------------------------------------------------
# the coordinate chart against the local coordinates it replaced
# ---------------------------------------------------------------------------


def _greedy_affine_basis(points):
    """Origin and a greedy independent set of difference vectors."""
    base = points[0]
    basis = []
    for p in points[1:]:
        candidate = basis + [vec_sub(p, base)]
        if _fraction_rank(candidate) > len(basis):
            basis = candidate
    return base, basis


def _local_coords(points, base, basis):
    """Coordinates t with x = base + B t, solved on d independent rows of B."""
    rows_idx = []
    for r in range(len(base)):
        if len(rows_idx) < len(basis):
            sub = [[b[i] for b in basis] for i in rows_idx + [r]]
            if _fraction_rank(sub) > len(rows_idx):
                rows_idx.append(r)
    sub = [[b[i] for b in basis] for i in rows_idx]
    out = []
    for p in points:
        diff = vec_sub(p, base)
        out.append(solve_square(sub, [diff[i] for i in rows_idx]))
    return out


def _reference_hull(points):
    """Vertices and affine dimension of conv(points), hulled in local
    coordinates, where the point set is full-dimensional."""
    pts = sorted(set(map(to_vec, points)))
    base, basis = _greedy_affine_basis(pts)
    if not basis:
        return (pts[0],), 0
    local = _local_coords(pts, base, basis)
    back = dict(zip(local, pts))
    q = convex_hull(local)
    return tuple(sorted(back[v] for v in q.vertices)), len(basis)


def _reference_lower_facets(p):
    """(normal, facet vertices) of the lower facets, with the lower hull of
    the lift taken in the local coordinates of the projected points."""
    n = p.ambient_dim - 1
    lowest = {}
    for v in p.vertices:
        if v[:-1] not in lowest or v[-1] < lowest[v[:-1]][-1]:
            lowest[v[:-1]] = v
    kept = sorted(lowest.values())
    projs = [v[:-1] for v in kept]
    base, basis = _greedy_affine_basis(projs)
    if not basis:
        return [((0,) * n + (1,), (kept[0],))]
    du = len(basis)

    def pull_back(s):  # minimum-norm r in the span of the basis with B^T r = s
        y = gram_solve(basis, s)
        return tuple(sum(yk * b[i] for yk, b in zip(y, basis)) for i in range(n))

    t_coords = _local_coords(projs, base, basis)
    lifted = [t + (v[-1],) for t, v in zip(t_coords, kept)]
    if _fraction_rank([vec_sub(q, lifted[0]) for q in lifted[1:]]) < du + 1:
        seen = {t: v[-1] for t, v in zip(t_coords, kept)}
        unit = [tuple(Fraction(int(i == k)) for i in range(du)) for k in range(du)]
        alpha = [seen[e] - kept[0][-1] for e in unit]
        return [(pull_back([-a for a in alpha]) + (1,), convex_hull(kept).vertices)]
    back = dict(zip(lifted, kept))
    out = []
    for normal, facet in lower_facets(convex_hull(lifted).vertices):
        verts = tuple(sorted(back[v] for v in facet.vertices))
        out.append((pull_back(normal[:-1]) + (1,), verts))
    return sorted(out)


def _embedded_point_set(rng, kind):
    """Seeded points of Q^d, d < D <= 5, mapped into Q^D by an injective
    integer affine map, and the dimension D."""
    D = rng.randint(2, 5)
    d = rng.randint(1, D - 1)
    while True:
        a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(D)]
        if _fraction_rank(a) == d:
            break
    shift = [rng.randint(-5, 5) for _ in range(D)]
    size = rng.randint(1, d + 6)
    if kind == "rational":
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
            for _ in range(size)
        ]
    elif kind == "collinear":
        start = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
        step = [rng.randint(-2, 2) for _ in range(d)]
        step[rng.randrange(d)] = rng.choice((-1, 1, 2))
        pts = [tuple(x + t * y for x, y in zip(start, step)) for t in rng.sample(range(-5, 6), size)]
    else:
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(size)]
        if kind == "duplicates":
            pts += [rng.choice(pts) for _ in range(3)]
    emb = [tuple(dot(row, q) + s for row, s in zip(a, shift)) for q in pts]
    return emb, pts, D


@pytest.mark.parametrize("kind", ["lattice", "rational", "duplicates", "collinear"])
def test_chart_matches_local_coordinates(kind):
    rng = random.Random(f"{SEED}-chart-{kind}")
    for _ in range(40):
        emb, pts, D = _embedded_point_set(rng, kind)
        p = convex_hull(emb)
        verts, adim = _reference_hull(emb)
        assert p.vertices == verts
        assert p.affine_dim == adim < D
        # heights: random lattice or rational values (several linearity
        # regions; a duplicate keeps its lowest height), or an affine
        # function of the points (one region)
        mode = rng.randrange(3)
        slope = [rng.randint(-2, 2) for _ in pts[0]]
        heights = [
            rng.randint(0, 4)
            if mode == 0
            else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if mode == 1
            else dot(slope, q) + 1
            for q in pts
        ]
        lift = convex_hull([e + (h,) for e, h in zip(emb, heights)])
        got = [(normal, facet.vertices) for normal, facet in lower_facets(lift.vertices)]
        assert got == _reference_lower_facets(lift)


def _raw_lift(rng, kind):
    """A seeded point set in Q^(D+1) that is not in vertex form: random
    heights over a full-dimensional or embedded point set, plus points on
    its lower faces that are no vertices (facet centroids and midpoints of
    two facet vertices), convex combinations of all points, points over an
    existing projection at another height, and exact repeats, shuffled."""
    if kind == "full":
        D = rng.randint(1, 4)
        base = [tuple(rng.randint(-3, 3) for _ in range(D)) for _ in range(rng.randint(D + 1, D + 6))]
    else:
        base, _pts, _D = _embedded_point_set(rng, kind)
    pts = [to_vec(e + (rng.randint(0, 4),)) for e in base]
    for _normal, facet in lower_facets(convex_hull(pts).vertices):
        vs = facet.vertices
        pts.append(tuple(sum(col) / len(vs) for col in zip(*vs)))
        a, b = rng.choice(vs), rng.choice(vs)
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    pts.append(tuple(sum(col) / len(pts) for col in zip(*pts)))
    for v in rng.sample(pts, min(3, len(pts))):
        pts.append(v[:-1] + (v[-1] + rng.choice((-1, 1, 2)),))
    pts += rng.sample(pts, 2)
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("kind", ["full", "lattice", "rational", "duplicates", "collinear"])
def test_lower_facets_of_raw_points_match_the_hull_vertices(kind):
    # lower_facets of a raw point set, non-vertex points on lower faces,
    # interior points and repeated projections included, gives the facets of
    # its hull's vertices, and both agree with the local-coordinate
    # reference; the embedded kinds project to sets of dimension below D
    rng = random.Random(f"{SEED}-raw-lift-{kind}")
    with_non_vertices = 0
    for _ in range(30):
        pts = _raw_lift(rng, kind)
        hull = convex_hull(pts)
        with_non_vertices += len(hull.vertices) < len(set(pts))
        got = lower_facets(pts)
        assert got == lower_facets(hull.vertices)
        assert [(normal, facet.vertices) for normal, facet in got] == _reference_lower_facets(hull)
    assert with_non_vertices >= 25


# ---------------------------------------------------------------------------
# the planar monotone chain against the general beneath-beyond build, and
# the one-elimination facet normal against the cofactor normal
# ---------------------------------------------------------------------------


def _planar_point_set(rng, kind):
    """Seeded points of Q^2 spanning the plane."""
    if kind == "triangle":
        return [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)) for _ in range(3)]
    if kind == "rational":
        return [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(2))
            for _ in range(rng.randint(3, 12))
        ]
    if kind == "collinear":
        # lattice points along the edges of a triangle and along an inner
        # segment: runs of collinear points on the boundary and inside
        a, b, c = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        k = rng.randint(2, 4)
        a, b, c = (a[0] * k, a[1] * k), (b[0] * k, b[1] * k), (c[0] * k, c[1] * k)
        pts = []
        for (x0, y0), (x1, y1) in [(a, b), (b, c), (c, a), (a, (b[0] + c[0], b[1] + c[1]))]:
            pts += [(x0 + t * (x1 - x0) // k, y0 + t * (y1 - y0) // k) for t in range(k + 1)]
        rng.shuffle(pts)
        return pts
    pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 12))]
    if kind == "duplicates":
        pts += [rng.choice(pts) for _ in range(rng.randint(1, 4))]
        rng.shuffle(pts)
    return pts


def _general_build(pts, simplex):
    hull = _Hull.__new__(_Hull)
    hull.dim, hull.pts = 2, pts
    hull._build(simplex)
    return hull


@pytest.mark.parametrize("kind", ["lattice", "rational", "duplicates", "collinear", "triangle"])
def test_planar_hull_matches_general_build(kind):
    rng = random.Random(f"{SEED}-planar-{kind}")
    checked = scaled = 0
    while checked < 60:
        ipts, scale = _lattice([to_vec(q) for q in _planar_point_set(rng, kind)])
        simplex, axes = _chart(ipts)
        if len(axes) < 2:
            continue
        planar = _Hull(ipts, simplex)
        general = _general_build(ipts, simplex)
        assert planar.vertex_ids == general.vertex_ids
        assert planar.facets == general.facets
        assert planar.volume == general.volume
        checked += 1
        scaled += scale > 1
    if kind in ("rational", "triangle"):
        assert scaled >= 30


def _cofactor_hyperplane(pts):
    """The normal from d cofactor determinants, and its offset."""
    d = len(pts)
    rows = [vec_sub(q, pts[0]) for q in pts[1:]]
    normal = [(-1) ** j * det([[r[i] for i in range(d) if i != j] for r in rows]) for j in range(d)]
    if not any(normal):
        return None
    return tuple(normal), dot(normal, pts[0])


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_elimination_normal_matches_cofactors(d):
    rng = random.Random(f"{SEED}-normal-{d}")
    degenerate = 0
    for trial in range(150):
        pts = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d)]
        kind = trial % 4
        if kind == 1:  # a duplicate point
            i, j = rng.sample(range(d), 2)
            pts[i] = pts[j]
        elif kind == 2:  # a point on the affine hull of two others
            i, j, k = rng.sample(range(d), 3)
            t = rng.randint(-3, 3)
            pts[i] = tuple(a + t * (b - a) for a, b in zip(pts[j], pts[k]))
        elif kind == 3 and trial % 8 == 3:  # every point on one coordinate plane
            c = rng.randrange(d)
            pts = [q[:c] + (2,) + q[c + 1 :] for q in pts]
        got = _hyperplane(pts)
        ref = _cofactor_hyperplane(pts)
        # the difference rows, each scaled by a nonzero Fraction, have the
        # same kernel
        scales = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 7)) for _ in pts[1:]]
        c = null_vector([[x * s for x in vec_sub(q, pts[0])] for q, s in zip(pts[1:], scales)])
        if ref is None:
            assert got is None and c is None
            degenerate += 1
            continue
        normal, offset = ref
        assert got in (ref, (tuple(-x for x in normal), -offset))
        assert all(dot(got[0], q) == got[1] for q in pts)
        assert all(type(x) is int for x in c)
        assert _primitive(c, dot(c, pts[0])) in (
            _primitive(normal, offset),
            _primitive([-x for x in normal], -offset),
        )
    assert degenerate >= 50


# ---------------------------------------------------------------------------
# fine face tuples: vertices without a hull, face bounds as 0 or |det|
# ---------------------------------------------------------------------------


def _is_fine(ps):
    """Whether the dimensions of the polytopes add up to that of their sum."""
    return sum(p.affine_dim for p in ps) == functools.reduce(minkowski_sum, ps).affine_dim


def _face_tuple(rng, n, kind):
    """n lattice polytopes in R^n of one kind: with a point among them,
    segments, one polytope of dimension >= 2 beside points and segments (the
    dimensions adding up to n), dimensions adding up to more than n, or all
    of dimension >= 1 inside a proper linear subspace (the sum of dimension
    d < n).  Each spans its own random directions in a common span."""
    if kind == "point":
        ps = [rand_polytope(rng, n, rng.randint(1, 5)) for _ in range(n)]
        ps[rng.randrange(n)] = convex_hull([tuple(rng.randint(0, 4) for _ in range(n))])
        return ps
    rank = rng.randint(1, n - 1) if kind == "low" else n
    span = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rank)]
    if kind == "segments":
        dims = [1] * n
    elif kind == "big":
        big = rng.randint(2, n)
        dims = [big] + [1] * (n - big) + [0] * (big - 1)
    elif kind == "over":  # not fine: dimensions adding up to more than n
        dims = [2] + [rng.randint(1, 2) for _ in range(n - 1)]
    else:  # "low": not fine either, as n polytopes of dimension >= 1 sum to d < n
        dims = [rng.randint(1, 2) for _ in range(n)]
    rng.shuffle(dims)
    ps = []
    for dim in dims:
        base = tuple(rng.randint(-2, 2) for _ in range(n))
        dirs = []
        for _ in range(dim):
            coeffs = [rng.randint(-2, 2) for _ in span]
            dirs.append(tuple(sum(c * v[j] for c, v in zip(coeffs, span)) for j in range(n)))
        pts = [base] + [tuple(map(sum, zip(base, v))) for v in dirs]
        if dim >= 2 and rng.random() < 0.5:
            # a parallelogram corner: the polytope is no simplex
            pts.append(tuple(map(sum, zip(base, dirs[0], dirs[1]))))
        ps.append(convex_hull(pts))
    return ps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_bound_rule_matches_inclusion_exclusion(n):
    # a point among the polytopes bounds 0 (the Rado condition for one
    # polytope); a fine tuple without a point is n segments and bounds |det|
    # of their edges; the rest run mixed_volume's inclusion-exclusion
    rng = random.Random(f"{SEED}-face-bound-rule-{n}")
    kinds = ["point", "segments"] + (["big", "over", "low"] if n >= 2 else [])
    seen = set()
    for kind in kinds:
        for _ in range(12 if n < 4 else 6):
            ps = _face_tuple(rng, n, kind)
            fine = _is_fine(ps)
            mv = mixed_volume(ps)
            assert _face_bound(ps, fine) == mv
            point = any(len(p.vertices) == 1 for p in ps)
            low = functools.reduce(minkowski_sum, ps).affine_dim < n
            seen.add((kind, fine, point, mv > 0, low))
    # fine segments with a positive |det|, and the ways to 0; a point beside
    # n - 1 polytopes leaves the tuple fine for n <= 2
    assert ("segments", True, False, True) in {case[:4] for case in seen}
    assert ("point", n <= 2, True, False) in {case[:4] for case in seen}
    if n >= 2:
        assert ("big", True, True, False, False) in seen
        assert ("over", False, False, True, False) in seen
        assert ("low", False, False, False, True) in seen


def _lifted_point_sets(rng, n, flat):
    """n seeded point sets in Z^(n+1), as int tuples: lattice points of
    [0, 3]^n with heights in 0..3, or all at height 0 when ``flat``."""
    sets = []
    for _ in range(n):
        exps = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 5))}
        sets.append([e + (0 if flat else rng.randint(0, 3),) for e in sorted(exps)])
    return sets


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fine_facet_vertices_are_the_sums_of_face_vertices(n):
    # a fine lower facet of a Minkowski sum is the direct sum of its faces:
    # every sum of one vertex per face is a vertex, no two alike, so the
    # facet needs no hull; on any other facet some sums are no vertices
    rng = random.Random(f"{SEED}-fine-facets-{n}")
    fine_seen = extra_sums = 0
    for trial in range(12 if n < 4 else 6):
        for _normal, facet, faces, fine in lower_facets_of_sum(_lifted_point_sets(rng, n, trial % 3 == 0)):
            sums = [tuple(map(sum, zip(*vs))) for vs in itertools.product(*(f.vertices for f in faces))]
            assert facet == convex_hull(sums)
            assert fine == (sum(f.affine_dim for f in faces) == facet.affine_dim)
            if fine:
                assert sorted(sums) == list(facet.vertices)
                fine_seen += 1
            else:
                extra_sums += len(set(sums)) > len(facet.vertices)
    assert fine_seen and extra_sums


def _collinear_points(rng, dim, rational):
    """Points base + t * step of a line in Z^dim (or Q^dim), for parameters t
    from lo to hi with interior and repeated ones, shuffled; and the two
    extremes, at lo and hi."""
    den = (lambda: rng.randint(1, 6)) if rational else (lambda: 1)
    base = tuple(Fraction(rng.randint(-9, 9), den()) for _ in range(dim))
    step = (0,) * dim
    while not any(step):
        step = tuple(Fraction(rng.randint(-4, 4), den()) for _ in range(dim))
    lo = rng.randint(-6, 0)
    hi = lo + rng.randint(1, 8)
    ts = [lo, hi] + [rng.randint(lo, hi) for _ in range(rng.randint(0, 5))]
    ts += rng.choices(ts, k=rng.randint(0, 3))
    rng.shuffle(ts)

    def at(t):
        p = tuple(b + t * s for b, s in zip(base, step))
        return p if rational else tuple(int(x) for x in p)

    return [at(t) for t in ts], (at(lo), at(hi))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("rational", [False, True], ids=["lattice", "rational"])
def test_collinear_sets_take_the_general_build(dim, rational):
    # a set on a line is hulled by beneath-beyond like any d != 2: its two
    # endpoint facets, vertices and length match a min/max reference
    assert "_build_1d" not in vars(_Hull)
    rng = random.Random(f"{SEED}-collinear-{dim}-{rational}")
    for _ in range(40):
        points, (lo, hi) = _collinear_points(rng, dim, rational)
        hull_points = convex_hull(points)
        assert hull_points.vertices == tuple(sorted([lo, hi]))
        assert volume(hull_points) == (abs(hi[0] - lo[0]) if dim == 1 else 0)

        ipts, _ = _lattice(points)
        simplex, axes = _chart(ipts)
        assert len(axes) == 1
        hull = _Hull([(p[axes[0]],) for p in ipts], simplex)
        xs = [p[axes[0]] for p in ipts]
        at_min = frozenset(i for i, x in enumerate(xs) if x == min(xs))
        at_max = frozenset(i for i, x in enumerate(xs) if x == max(xs))
        assert hull.facets == [((-1,), at_max), ((1,), at_min)]
        assert hull.vertex_ids == sorted(at_min | at_max)
        assert hull.volume == max(xs) - min(xs)


@pytest.mark.parametrize("n", [2, 3])
def test_sum_facets_scale_one_normal_each(n, monkeypatch):
    # the summands' lower cells reach the sum as vertex ids: the only
    # normals scaled to (r, 1) are those of the returned facets
    from rootbounds import polyhedra

    calls = 0

    def counted(*args, _original=polyhedra._scaled_normal):
        nonlocal calls
        calls += 1
        return _original(*args)

    monkeypatch.setattr(polyhedra, "_scaled_normal", counted)
    rng = random.Random(f"{SEED}-scaled-normals-{n}")
    for trial in range(12):
        calls = 0
        facets = lower_facets_of_sum(_lifted_point_sets(rng, n, trial % 3 == 0))
        assert facets and calls == len(facets)
