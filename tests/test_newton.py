import functools
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from rootbounds.arith import ord_p_value
from rootbounds.linalg import det, dot, nonneg_solution_exists, to_vec
from rootbounds.newton import (
    CancellationError,
    CapExceededError,
    SparsePolynomial,
    SparseSystem,
    _pareto_minimal,
    _sloped_support,
    candidate_valuations,
    containment_check,
    facet_count,
    integer_terms,
    near_one_radius,
    newton_data,
    newton_polytope,
    poly_sum,
    shift_polynomial,
    system_polytope,
    valuation_face_bound,
    valuation_vector_cap,
)
from rootbounds.oracle import _lower_hull_slopes, count_binomial_system
from rootbounds.parsing import parse_system, system_to_json_obj
from rootbounds.polyhedra import (
    convex_hull,
    face,
    lower_facets,
    minkowski_sum,
    mixed_volume,
    project_pi,
)

SEED = 0x5EED


def poly(d):
    return SparsePolynomial.from_dict({k: Fraction(v) for k, v in d.items()})


TRINOMIAL = poly({(10,): 3, (2,): 1, (0,): -4})
PM2 = SparseSystem.of(
    [poly({(2, 0): 1, (0, 0): -4}), poly({(0, 2): 1, (0, 0): -4})]
)


def rand_poly(rng, n, terms, deg, coefmax=9):
    d = {}
    while len(d) < terms:
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        c = rng.randint(-coefmax, coefmax)
        if c:
            d[exp] = Fraction(c)
    return SparsePolynomial.from_dict(d)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_polynomial_validation():
    with pytest.raises(ValueError):
        SparsePolynomial(())
    with pytest.raises(ValueError):
        SparsePolynomial((((0,), Fraction(0)),))
    f = poly({(2, 1): 3, (-1, 0): Fraction(1, 2)})
    assert f.n == 2 and f.m == 2


def test_system_counts():
    assert PM2.m == 3  # (2,0), (0,2), (0,0)
    assert PM2.m_counts == (2, 2)
    assert PM2.k == 2


def test_system_json_roundtrip():
    obj = system_to_json_obj(PM2)
    assert obj["n"] == 2
    assert parse_system(json.dumps(obj)) == PM2


def test_normalization():
    # f = x^lo * sum(c * x^e) / L: denominators cleared by their lcm, the
    # least exponent of each variable divided out, terms kept in f's order
    f = poly({(-2, 1): Fraction(1, 6), (3, 4): Fraction(1, 2), (0, 2): -3})
    L, lo, terms = integer_terms(f)
    assert (L, lo) == (6, (-2, 1))
    assert terms == [((0, 0), 1), ((2, 1), -18), ((5, 3), 3)]
    x = (Fraction(3, 2), Fraction(-5, 7))
    assert f.evaluate(x) == (x[0] ** lo[0] * x[1] ** lo[1] / L
                             * sum(c * x[0] ** e[0] * x[1] ** e[1] for e, c in terms))
    assert integer_terms(poly({(2,): 1, (5,): 1})) == (1, (2,), [((0,), 1), ((3,), 1)])
    # the shift clears negative exponents only (test_shift_examples: x1^2)
    assert shift_polynomial(poly({(-2,): 1, (3,): 2})) == shift_polynomial(poly({(0,): 1, (5,): 2}))


# ---------------------------------------------------------------------------
# lifted polytopes
# ---------------------------------------------------------------------------


def test_newton_polytope_of_paper_trinomial():
    p = newton_polytope(TRINOMIAL, 2)
    assert set(p.vertices) == {
        (Fraction(10), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    }


def test_newton_polytope_constant():
    p = newton_polytope(poly({(0, 0): 1}), 3)
    assert p.vertices == ((Fraction(0), Fraction(0), Fraction(0)),)


def test_newton_polytope_collinear_lift_collapses():
    f = poly({(0,): 1, (1,): 2, (2,): 4})
    p = newton_polytope(f, 2)
    # the middle lift (1,1) is on the segment [(0,0), (2,2)]
    assert det([(Fraction(1) - 0, Fraction(1) - 0), (Fraction(2), Fraction(2))]) == 0
    assert p.vertices == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)))
    assert p.affine_dim == 1


def test_support_on_or_above_lower_hull():
    rng = random.Random(SEED)
    for _ in range(30):
        n = rng.randint(1, 2)
        f = rand_poly(rng, n, rng.randint(2, 5), 8)
        p_prime = rng.choice([2, 3, 5])
        lift = newton_polytope(f, p_prime)
        for exp, coeff in f.terms:
            pt = to_vec(exp + (ord_p_value(coeff, p_prime),))
            for w, _facet in lower_facets(lift.vertices):
                floor_val = min(dot(w, to_vec(v)) for v in lift.vertices)
                assert dot(w, pt) >= floor_val


# ---------------------------------------------------------------------------
# aggregated polytope and facet counting
# ---------------------------------------------------------------------------


def test_system_polytope_single_poly():
    s = SparseSystem.of([TRINOMIAL])
    assert system_polytope(s, 2) == newton_polytope(TRINOMIAL, 2)


def test_system_polytope_sum_branch():
    s = SparseSystem.of(
        [poly({(2, 0): 1, (0, 0): -4}), poly({(0, 2): 1, (0, 0): -4}), poly({(1, 1): 1})]
    )
    p = system_polytope(s, 2)
    # k > n: Newton polytope of the coefficient-wise sum
    expected = newton_polytope(poly({(2, 0): 1, (0, 2): 1, (1, 1): 1, (0, 0): -8}), 2)
    assert p == expected


def test_system_polytope_trinomial_pair_projection():
    # the projected aggregate of two generic trinomials is at most a hexagon
    rng = random.Random(SEED + 11)
    for _ in range(8):
        s = SparseSystem.of([rand_poly(rng, 2, 3, 6), rand_poly(rng, 2, 3, 6)])
        agg = system_polytope(s, 2)
        assert len(project_pi(agg).vertices) <= 6


def test_system_polytope_cancellation_error():
    s = SparseSystem.of([poly({(1,): 1}), poly({(1,): -1})])
    with pytest.raises(CancellationError):
        system_polytope(s, 2)


def test_facet_count_examples():
    assert facet_count(SparseSystem.of([TRINOMIAL]), 2) == 2  # <= m-1 = 2
    # two binomial segments in two variables: a single lower facet
    segs = SparseSystem.of([poly({(1, 0): 1, (0, 0): -2}), poly({(0, 1): 1, (0, 0): -6})])
    assert facet_count(segs, 2) == 1
    # trinomial x trinomial with mu = 3: facet count stays within 9
    rng = random.Random(SEED + 1)
    for _ in range(10):
        f1 = rand_poly(rng, 2, 3, 4, coefmax=16)
        f2 = rand_poly(rng, 2, 3, 4, coefmax=16)
        s = SparseSystem.of([f1, f2])
        assert facet_count(s, 2) <= 9


def test_facet_count_within_cap_random():
    rng = random.Random(SEED + 2)
    for _ in range(20):
        n = rng.randint(1, 2)
        k = n
        polys = [rand_poly(rng, n, rng.randint(2, 4), 6, coefmax=32) for _ in range(k)]
        s = SparseSystem.of(polys)
        cap = valuation_vector_cap(s.m, s.n)
        assert facet_count(s, 2) <= cap


# ---------------------------------------------------------------------------
# candidate valuations and face bounds
# ---------------------------------------------------------------------------


def test_candidates_of_pm2():
    assert candidate_valuations(PM2, 2) == [(Fraction(1), Fraction(1))]


def test_candidates_of_univariate_trinomial():
    cands = candidate_valuations(SparseSystem.of([TRINOMIAL]), 2)
    assert cands == [(Fraction(0),), (Fraction(1),)]


def test_candidates_have_positive_face_volume():
    rng = random.Random(SEED + 3)
    for _ in range(15):
        n = rng.randint(1, 2)
        s = SparseSystem.of([rand_poly(rng, n, rng.randint(2, 4), 6) for _ in range(n)])
        bounds = dict(newton_data(s, 2).face_bounds())
        for r in candidate_valuations(s, 2):
            assert bounds[r] > 0


def test_candidate_count_within_facets_and_cap():
    rng = random.Random(SEED + 4)
    for _ in range(15):
        n = rng.randint(1, 2)
        s = SparseSystem.of([rand_poly(rng, n, rng.randint(2, 4), 6) for _ in range(n)])
        cands = candidate_valuations(s, 2)
        assert len(cands) <= facet_count(s, 2) <= valuation_vector_cap(s.m, s.n)


def test_face_bound_examples():
    assert valuation_face_bound(PM2, 2, (Fraction(1), Fraction(1))) == 4
    # non-candidate valuation: empty-face tuple gives zero
    assert valuation_face_bound(PM2, 2, (Fraction(5), Fraction(7))) == 0
    single = SparseSystem.of([TRINOMIAL])
    assert valuation_face_bound(single, 2, (Fraction(0),)) == 8
    assert valuation_face_bound(single, 2, (Fraction(1),)) == 2


def test_face_bound_sum_equals_full_mixed_volume():
    # Huber-Sturmfels: the lower facets of the lifted Minkowski sum subdivide
    # the projected sum, so their face mixed volumes add up to the mixed
    # volume of the projected polytopes
    rng = random.Random(SEED + 5)
    for trial in range(31):
        n = 3 if trial >= 25 else rng.randint(1, 2)
        deg = 5 if n < 3 else 3
        s = SparseSystem.of([rand_poly(rng, n, rng.randint(2, 4), deg) for _ in range(n)])
        total = sum(bound for _r, bound in newton_data(s, 2).face_bounds())
        full = mixed_volume(
            [project_pi(newton_polytope(f, 2)) for f in s.polynomials]
        )
        assert total == full


def test_facets_request_builds_each_newton_object_once(capsys, monkeypatch):
    # the lower facets and face tuples come from the lifts' own points: no
    # hull of a lift or of the Minkowski sum, and no face or projection per
    # facet
    from rootbounds import cli, newton, polyhedra
    from rootbounds.parsing import parse_system_text

    text = "x1^2*x2 + 2*x1 - 3*x2^3 + 4\nx1*x2^2 - 6*x2 + 8*x1^3 - 1\n"
    not_fine = newton.newton_data(parse_system_text(text), 2).fine.count(False)
    calls = {}
    counted_names = {
        newton: ("newton_polytope", "minkowski_sum", "lower_facets_of_sum", "mixed_volume"),
        polyhedra: ("minkowski_sum", "lower_facets", "_lower_cells", "convex_hull"),
    }
    for module, names in counted_names.items():
        for name in names:
            key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"

            def counted(*args, _key=key, _original=getattr(module, name)):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    for name in ("face", "project_pi", "lower_facets"):
        assert name not in vars(newton), f"rootbounds.newton binds {name}"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["facets", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert calls.get("newton.newton_polytope", 0) == 0
    assert calls["newton.lower_facets_of_sum"] == 1
    assert calls.get("newton.minkowski_sum", 0) == 0
    assert calls.get("polyhedra.minkowski_sum", 0) == 0
    # one lower-hull pass per lift, none of the sum, and no lift's cell
    # normals scaled into lower facets
    assert calls["polyhedra._lower_cells"] == 2
    assert calls.get("polyhedra.lower_facets", 0) == 0
    # a fine facet, whose face dimensions add up to its own, is the direct
    # sum of its faces: neither its vertices nor its face bound need a hull
    # or an inclusion-exclusion, and no lift is hulled
    assert not_fine < len(payload["lower_facets"])
    assert calls.get("polyhedra.convex_hull", 0) <= not_fine
    assert calls.get("newton.mixed_volume", 0) <= not_fine


def _fraction_lift(f, p):
    """The (exponent, valuation) points of f as Fraction tuples."""
    return [to_vec(exp) + (ord_p_value(coeff, p),) for exp, coeff in f.terms]


def _is_lattice(polytope):
    return all(type(x) is int for v in polytope.vertices for x in v)


def _chain_reference(s, p):
    """The lower facets of the hulled Minkowski chain of the Fraction lifts,
    as (normal, vertices), and the positive face bounds from ``face`` and
    ``project_pi`` per facet: the path that ``newton_data`` replaced."""
    lifts = [convex_hull(_fraction_lift(f, p)) for f in s.polynomials]
    facets = lower_facets(functools.reduce(minkowski_sum, lifts).vertices)
    bounds = []
    for normal, _facet in facets:
        mv = mixed_volume([project_pi(face(q, normal)) for q in lifts])
        if mv > 0:
            bounds.append((normal[:-1], mv))
    return [(normal, facet.vertices) for normal, facet in facets], bounds


@pytest.mark.parametrize("n, trials, deg", [(2, 8, 4), (3, 2, 3)])
def test_face_bounds_match_reference_algorithm(n, trials, deg):
    rng = random.Random(SEED + 20 + n)
    for _ in range(trials):
        s = SparseSystem.of([rand_poly(rng, n, rng.randint(3, 4), deg) for _ in range(n)])
        p = rng.choice([2, 3])
        bounds = newton_data(s, p).face_bounds()
        assert bounds and bounds == _chain_reference(s, p)[1]


def _unit_times_prime_power(rng, p):
    u = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27])
    return Fraction(rng.choice([-1, 1]) * u, rng.choice([1, 1, 1, p, p * p]))


def _sparse(rng, exps, p):
    return SparsePolynomial.from_dict({e: _unit_times_prime_power(rng, p) for e in exps})


def _distinct_exponents(rng, n, terms, lo, hi):
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randint(lo, hi) for _ in range(n)))
    return sorted(exps)


def _unit(rng, p):
    return rng.choice([-1, 1]) * rng.choice([u for u in range(1, 10) if u % p])


def _differential_systems(kind):
    """Seeded (system, p) pairs of one kind for the Minkowski-chain check."""
    rng = random.Random(f"{SEED}-sum-facets-{kind}")
    out = []
    for trial in range(6):
        p = (2, 3, 5)[trial % 3]
        if kind == "generic":
            # fewer terms and exponents as n grows keep the hulled chain small
            n = (2, 2, 3, 3, 4, 2)[trial]
            terms = (2, 3) if n == 4 else (2, 5)
            exps = [_distinct_exponents(rng, n, rng.randint(*terms), 0, 5 - n) for _ in range(n)]
        elif kind == "negative":
            n = (2, 3)[trial % 2]
            exps = [_distinct_exponents(rng, n, rng.randint(2, 4), -3, 2) for _ in range(n)]
        elif kind == "shared":
            # every equation on one support, with its own coefficients
            n = (2, 3)[trial % 2]
            exps = [_distinct_exponents(rng, n, rng.randint(3, 4), 0, 3)] * n
        elif kind == "binomial":
            n = (2, 3, 4)[trial % 3]
            exps = [_distinct_exponents(rng, n, 2, -2, 3) for _ in range(n)]
        elif kind == "one-term":
            # a monomial equation: its lift is a single point
            n = (2, 3)[trial % 2]
            exps = [_distinct_exponents(rng, n, 1 if i == 0 else rng.randint(2, 4), 0, 4)
                    for i in range(n)]
        elif kind in ("flat", "near-flat"):
            # unit coefficients at p make each lift one flat cell, so the
            # lower facets of the sum hold large faces and most are not
            # fine; a near-flat lift has one term times p
            n = (2, 3)[trial % 2]
            polys = []
            for _ in range(n):
                exps = _distinct_exponents(rng, n, rng.randint(3, 5), 0, 3)
                lowered = rng.randrange(len(exps)) if kind == "near-flat" else None
                polys.append(SparsePolynomial.from_dict({
                    e: _unit(rng, p) * (p if j == lowered else 1) for j, e in enumerate(exps)
                }))
            out.append((SparseSystem.of(polys), p))
            continue
        else:  # "degenerate": every support on a lattice of rank below n
            n = (2, 3, 3, 4)[trial % 4]
            rank = rng.randint(0 if trial == 5 else 1, n - 1)
            dirs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rank)]
            exps = []
            for _ in range(n):
                pts = set()
                for _ in range(rng.randint(1, 4)):
                    coords = [rng.randint(-2, 2) for _ in dirs]
                    pts.add(tuple(sum(a * v[j] for a, v in zip(coords, dirs)) for j in range(n)))
                exps.append(sorted(pts))
        out.append((SparseSystem.of([_sparse(rng, e, p) for e in exps]), p))
    return out


@pytest.mark.parametrize(
    "kind", ["generic", "negative", "shared", "binomial", "one-term", "degenerate", "flat", "near-flat"]
)
def test_lower_facets_from_the_lifts_match_the_minkowski_chain(kind):
    # newton_data reads the lower facets and face tuples off the lifts'
    # own lower cells, on int lattice points; the hull of the Minkowski sum
    # of the Fraction lifts must give the same normals, vertex tuples and
    # order, and the same face bounds
    dims = set()
    hulled = 0
    for s, p in _differential_systems(kind):
        data = newton_data(s, p)
        facets, bounds = _chain_reference(s, p)
        assert [(normal, facet.vertices) for normal, facet in data.facets] == facets
        assert data.face_bounds() == bounds
        for (normal, facet), faces in zip(data.facets, data.faces):
            assert all(type(x) is Fraction for x in normal)
            assert _is_lattice(facet) and all(_is_lattice(f) for f in faces)
            assert faces == tuple(face(newton_polytope(f, p), normal) for f in s.polynomials)
        dims.add((s.n, project_pi(system_polytope(s, p)).affine_dim))
        hulled += sum(
            not fine and all(len(f.vertices) > 1 for f in faces)
            for faces, fine in zip(data.faces, data.fine)
        )
    if kind == "degenerate":
        # projected sums of affine dimension 0 up to n - 1
        assert all(d < n for n, d in dims) and {d for _n, d in dims} == {0, 1, 2}
    if kind in ("flat", "near-flat"):
        # facets that still hull their face sum and run mixed_volume
        assert hulled


def _overdetermined_systems(kind):
    """Seeded (system, p) pairs with k > n equations of one kind."""
    rng = random.Random(f"{SEED}-sum-lift-{kind}")
    out = []
    for trial in range(8):
        p = (2, 3, 5)[trial % 3]
        n = (1, 2, 2, 3)[trial % 4]
        k = n + 1 + trial % 2
        if kind == "generic":
            polys = [_sparse(rng, _distinct_exponents(rng, n, rng.randint(2, 4), -1, 3), p)
                     for _ in range(k)]
        else:  # "flat": unit coefficients, so the summed lift is one cell
            polys = [SparsePolynomial.from_dict({
                e: _unit(rng, p) for e in _distinct_exponents(rng, n, rng.randint(2, 4), 0, 3)
            }) for _ in range(k)]
        out.append((SparseSystem.of(polys), p))
    return out


@pytest.mark.parametrize("kind", ["generic", "flat"])
def test_overdetermined_lower_facets_match_the_hulled_sum_lift(kind):
    # for k > n newton_data reads the lower facets off the raw lift of the
    # coefficient-wise sum, on int lattice points; the lower facets of the
    # hull of its Fraction lift must be the same, each its own face tuple
    single = 0
    for s, p in _overdetermined_systems(kind):
        data = newton_data(s, p)
        ref = lower_facets(convex_hull(_fraction_lift(poly_sum(s.polynomials), p)).vertices)
        assert [(normal, facet.vertices) for normal, facet in data.facets] == [
            (normal, facet.vertices) for normal, facet in ref
        ]
        assert data.faces == tuple((facet,) for _normal, facet in data.facets)
        assert all(data.fine)
        for normal, facet in data.facets:
            assert all(type(x) is Fraction for x in normal) and _is_lattice(facet)
        single += len(data.facets) == 1
    if kind == "flat":
        # the single-linearity-region branch of lower_facets
        assert single


def _direct_face_bound(s, p, r):
    """The mixed volume of the projected faces of the hulled lifts at
    (r, 1): the direct path that ``valuation_face_bound`` replaced."""
    w = tuple(r) + (Fraction(1),)
    return mixed_volume([project_pi(face(newton_polytope(f, p), w)) for f in s.polynomials])


def _face_bound_systems(kind):
    """Seeded square (system, p) pairs with n = 1..3 of one kind."""
    rng = random.Random(f"{SEED}-face-bound-{kind}")
    out = []
    for trial in range(9):
        n, p = trial % 3 + 1, (2, 3, 5)[trial // 3]
        if kind == "negative":
            exps = [_distinct_exponents(rng, n, rng.randint(2, 4), -3, 2) for _ in range(n)]
        elif kind == "one-term":
            exps = [_distinct_exponents(rng, n, 1 if i == 0 else rng.randint(2, 4), -1, 3)
                    for i in range(n)]
        else:  # "low-dimensional": each support on its own shifted lattice of rank below n
            exps = []
            for _ in range(n):
                dirs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
                shift = tuple(rng.randint(-1, 1) for _ in range(n))
                pts = {shift}
                for _ in range(rng.randint(1, 3) if dirs else 0):
                    a = [rng.randint(-2, 2) for _ in dirs]
                    pts.add(tuple(x + dot(a, col) for x, col in zip(shift, zip(*dirs))))
                exps.append(sorted(pts))
        out.append((SparseSystem.of([_sparse(rng, e, p) for e in exps]), p))
    return out


@pytest.mark.parametrize("kind", ["negative", "one-term", "low-dimensional"])
def test_valuation_face_bound_matches_the_direct_faces(kind):
    # valuation_face_bound reads newton_data's face bounds; the mixed volume
    # of the projected faces of the hulled lifts must agree, at every lower
    # facet normal (bound 0 included) and at random rationals that are none
    rng = random.Random(f"{SEED}-face-bound-r-{kind}")
    positive = off_facet = 0
    for s, p in _face_bound_systems(kind):
        normals = {normal[:-1] for normal, _facet in newton_data(s, p).facets}
        rs = sorted(normals) + [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(s.n))
            for _ in range(4)
        ]
        for r in rs:
            bound = valuation_face_bound(s, p, r)
            assert bound == _direct_face_bound(s, p, r)
            positive += bound > 0
            off_facet += r not in normals
    assert off_facet >= 30
    # a monomial equation makes every face bound 0
    assert positive >= 5 if kind != "one-term" else positive == 0


def test_face_bound_sum_over_sloped_window_is_dominated():
    # the face volumes at normals above r sum to no more than the mixed
    # volume of the hulls of the sloped support regions
    from rootbounds.newton import _sloped_support
    from rootbounds.polyhedra import face as ptope_face
    from rootbounds.polyhedra import minkowski_sum

    rng = random.Random(SEED + 10)
    grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
    for _ in range(12):
        polys = [rand_poly(rng, 2, rng.randint(2, 4), 8) for _ in range(2)]
        r = (rng.choice(grid), rng.choice(grid))
        lifted = [newton_polytope(f, 2) for f in polys]
        acc = minkowski_sum(lifted[0], lifted[1])
        total = Fraction(0)
        for normal, _facet in lower_facets(acc.vertices):
            svec = normal[:-1]
            if all(a >= b for a, b in zip(svec, r)):
                faces = [project_pi(ptope_face(q, normal)) for q in lifted]
                total += mixed_volume(faces)
        hulls = [convex_hull(_sloped_support(f, 2, r)) for f in polys]
        assert total <= mixed_volume(hulls)


def _binomial_system(rows, consts):
    """The system x^(row_i) = c_i."""
    n = len(rows)
    return SparseSystem.of(
        [
            SparsePolynomial.from_dict({tuple(row): Fraction(1), (0,) * n: -c})
            for row, c in zip(rows, consts)
        ]
    )


def test_face_bound_matches_binomial_determinant():
    rng = random.Random(SEED + 6)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        consts = []
        for _ in range(n):
            unit = Fraction(rng.choice([1, 3, 5, 7]), rng.choice([1, 3, 5, 7]))
            consts.append(unit * Fraction(2) ** rng.randint(-3, 3))
        s = _binomial_system(rows, consts)
        rc, r = count_binomial_system(rows, consts, 2)
        assert r is not None
        assert valuation_face_bound(s, 2, r) == rc.count
        # the solved valuation vector is the only candidate for binomials
        assert candidate_valuations(s, 2) == [tuple(r)]
        done += 1


@pytest.mark.parametrize("seed", [2024, 2025, 2026])
def test_binomial_sweep_count_equals_face_bound(seed):
    # nonsingular exponent rows in [-4, 4]^n, n <= 3, over p = 2, 3, 5, and
    # constants a/b * p^j with a in {1, 3, 7, 9}, b in {1, 3, 7}, |j| <= 2:
    # the Smith normal form count equals the face mixed volume at the
    # valuation vector solved from the constants
    rng = random.Random(seed)
    done = 0
    while done < 15:
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
        rc, r = count_binomial_system(rows, consts, p)
        assert rc.count == valuation_face_bound(_binomial_system(rows, consts), p, r)


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_examples():
    assert shift_polynomial(poly({(2,): 1})).as_dict() == {
        (0,): 1,
        (1,): 2,
        (2,): 1,
    }
    assert shift_polynomial(poly({(1,): 1, (0,): -1})).as_dict() == {(1,): 1}


def test_shift_matches_point_evaluation():
    rng = random.Random(SEED + 7)
    for _ in range(20):
        n = rng.randint(1, 2)
        f = rand_poly(rng, n, 3, 12)
        g = shift_polynomial(f)
        assert g.evaluate(tuple(Fraction(0) for _ in range(n))) == f.evaluate(
            tuple(Fraction(1) for _ in range(n))
        )
        for _ in range(5):
            xs = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)
            )
            if any(x == -1 for x in xs):
                continue
            shifted = tuple(1 + x for x in xs)
            assert g.evaluate(xs) == f.evaluate(shifted)


def test_shift_caps():
    with pytest.raises(CapExceededError):
        shift_polynomial(poly({(31,): 1, (0,): 1}))
    with pytest.raises(CapExceededError):
        shift_polynomial(poly({(1, 1, 1, 1): 1, (0, 0, 0, 0): 1}))


def test_shift_coefficient_recursion():
    # b_t = sum_a c_a prod_i (a_i choose t_i)
    from rootbounds.binomials import gen_binomial

    rng = random.Random(SEED + 8)
    f = rand_poly(rng, 2, 4, 6)
    g = shift_polynomial(f)
    gd = g.as_dict()
    cover = set()
    for exp, _ in f.terms:
        for t0 in range(exp[0] + 1):
            for t1 in range(exp[1] + 1):
                cover.add((t0, t1))
    for t in cover:
        expected = sum(
            (
                c * gen_binomial(exp[0], t[0]) * gen_binomial(exp[1], t[1])
                for exp, c in f.terms
            ),
            Fraction(0),
        )
        assert gd.get(t, Fraction(0)) == expected


# ---------------------------------------------------------------------------
# scaled simplex and containment
# ---------------------------------------------------------------------------


def test_scaled_simplex_membership():
    # the simplex r.t <= radius at m = 3, r = 1, p = 2: the radius rounded
    # up is c*2*(1 + log2(2/ln 2)), a little above 8, so t = 8 is inside and
    # t = 9 is not
    radius = near_one_radius(3, 1, (Fraction(1),), 2).upper().as_fraction()
    assert 8 < radius < 9
    # the shift of a Laurent polynomial has nonnegative exponents, so no
    # t < 0 is ever tested
    f = poly({(-2, 1): 3, (1, -1): 1})
    assert all(min(t) >= 0 for t in shift_polynomial(f).support)
    # a monomial's simplex has radius 0: it holds only the origin, the one
    # sloped support point of the monomial's shift
    r = (Fraction(1), Fraction(1))
    monomial = poly({(2, 1): 3})
    assert _sloped_support(shift_polynomial(monomial), 2, r) == [(0, 0)]
    assert containment_check(SparseSystem.of([monomial]), 2, r)


def test_containment_univariate_binomial():
    # x^D - 1 at r = 1: every sloped support point stays inside the simplex,
    # whose radius for two-term polynomials is a little above 2.4
    r = (Fraction(1),)
    radius = near_one_radius(2, 1, r, 2).upper().as_fraction()
    for d_exp in (2, 3, 4):
        f = poly({(d_exp,): 1, (0,): -1})
        assert containment_check(SparseSystem.of([f]), 2, r)
        assert all(dot(r, t) <= radius for t in _sloped_support(shift_polynomial(f), 2, r))


def test_containment_monomial_vacuous():
    s = SparseSystem.of([poly({(3,): 5})])
    assert containment_check(s, 2, (Fraction(1),))


def test_containment_random_systems():
    rng = random.Random(SEED + 9)
    grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
    for p in (2, 3, 5):
        for _ in range(12):
            n = rng.randint(1, 2)
            polys = [
                rand_poly(rng, n, rng.randint(2, 4), 12, coefmax=40)
                for _ in range(n)
            ]
            s = SparseSystem.of(polys)
            r = tuple(rng.choice(grid) for _ in range(n))
            assert containment_check(s, p, r)


def _sloped_support_on_fractions(g, p, r):
    """The sloped support with the valuation lift on Fractions, unscaled:
    the reference for the int lift of ``_sloped_support``."""
    z = {exp: ord_p_value(c, p) + dot(r, exp) for exp, c in g.terms}
    staircase = _pareto_minimal(z)
    members = []
    for t, zt in sorted(z.items()):
        if any(z[u] < zt and all(a <= b for a, b in zip(u, t)) for u in staircase if u != t):
            continue
        others = [u for u in staircase if u != t]
        rows = [tuple(b - a for a, b in zip(t, u)) for u in others]
        if nonneg_solution_exists(rows, [zt - z[u] for u in others]):
            members.append(t)
    return members


def test_sloped_support_int_lift_matches_the_fraction_lift():
    # the lift scaled by the lcm of r's denominators picks the same points as
    # the Fraction lift, over radii whose components have distinct
    # denominators up to 49
    rng = random.Random(SEED + 30)
    distinct = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rng.choice((2, 3, 5))
        f = rand_poly(rng, n, rng.randint(2, 5), 6 if n < 3 else 3, coefmax=60)
        g = shift_polynomial(f)
        r = tuple(Fraction(rng.randint(1, 120), rng.randint(1, 49)) for _ in range(n))
        distinct += len({x.denominator for x in r}) > 1
        assert _sloped_support(g, p, r) == _sloped_support_on_fractions(g, p, r), (f, p, r)
    assert distinct >= 20


def test_near_one_radius_takes_any_sequence():
    # the radius memoises its log on a tuple of r, so a list is as good
    r = [Fraction(3, 7), Fraction(5, 2)]
    by_list = near_one_radius(4, 2, r, 3)
    by_tuple = near_one_radius(4, 2, tuple(r), 3)
    assert (by_list.lo, by_list.hi) == (by_tuple.lo, by_tuple.hi)


def test_containment_validation():
    with pytest.raises(ValueError):
        containment_check(PM2, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        containment_check(PM2, 2, (Fraction(-1), Fraction(1)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_univariate_lower_facets_match_oracle_slopes(p):
    # the lower facets of a univariate lift are the edges of its Newton
    # polygon; the oracle finds them by its own lower-hull scan
    rng = random.Random(f"{SEED}-polygon-{p}")
    for _ in range(60):
        d = {}
        terms = rng.randint(2, 8)
        while len(d) < terms:
            # coefficients u * p^a with a unit u, some of them rational
            u = Fraction(rng.choice([1, -1]) * rng.randint(1, 2 * p), rng.choice([1, 1, p + 1]))
            if u.numerator % p:
                d[(rng.randint(0, 200),)] = u * Fraction(p) ** rng.randint(-3, 6)
        f = SparsePolynomial.from_dict(d)
        rs = sorted(normal[0] for normal, _facet in newton_data(SparseSystem.of([f]), p).facets)
        points = [(e[0], ord_p_value(c, p)) for e, c in f.terms]
        assert rs == sorted(-slope for slope in _lower_hull_slopes(points))
