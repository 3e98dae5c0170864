"""Exit codes decided by the error's type, in one module.

Each ``src/rootbounds/*.py`` is parsed with ``ast``: no module raises a bare
``ValueError`` or ``ArithmeticError``, whose exit code the CLI could only
guess, and every exception class is defined in ``errors.py``.  A library
call with drawn arguments of the wrong kind or range returns or raises one of
those classes, as every CLI input ends in a documented exit code.
"""

import ast
import contextvars
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rootbounds import arith, binomials, bounds, errors, linalg, newton, oracle, parsing, polyhedra
from rootbounds.cli import EXIT_BAD_PARAMS, EXIT_INTERNAL, EXIT_PARSE_ERROR

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootbounds"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
BARE = {"ValueError", "ArithmeticError"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _bare_raises(tree: ast.Module) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) in BARE
    ]


def _exception_classes(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any((_name(b) or "").endswith(("Error", "Exception")) for b in node.bases)
    ]


def test_the_parser_sees_the_package():
    assert {"cli", "errors", "newton", "oracle", "parsing", "polyhedra"} <= set(MODULES)
    assert len(_exception_classes(MODULES["errors"])) == 9


def test_no_bare_value_or_arithmetic_error_is_raised():
    found = {f"{stem}:{line}" for stem, tree in MODULES.items() for line in _bare_raises(tree)}
    assert found == set()
    # the check sees a bare raise, called or not
    probe = ast.parse("def f():\n    raise ValueError('x')\n\ndef g():\n    raise ArithmeticError\n")
    assert _bare_raises(probe) == [2, 5]
    assert _bare_raises(ast.parse("raise errors.ParamError('x')\n")) == []


def test_every_exception_class_is_defined_in_errors():
    found = {
        f"{stem}.{name}"
        for stem, tree in MODULES.items()
        if stem != "errors"
        for name in _exception_classes(tree)
    }
    assert found == set()
    probe = ast.parse("class A(ValueError):\n    pass\n\nclass B(errors.ParamError):\n    pass\n")
    assert _exception_classes(probe) == ["A", "B"]


def test_each_class_carries_its_exit_code_and_keeps_its_second_base():
    assert (EXIT_PARSE_ERROR, EXIT_BAD_PARAMS, EXIT_INTERNAL) == (2, 3, 4)
    assert issubclass(errors.ParseError, errors.InputError)
    for cls in (errors.DimensionError, errors.CapExceededError,
                errors.CancellationError, errors.PrecisionCapError):
        assert cls.exit_code == EXIT_BAD_PARAMS and issubclass(cls, ValueError)
    assert issubclass(errors.CancellationError, ArithmeticError)
    assert issubclass(errors.PrecisionCapError, ArithmeticError)
    assert issubclass(errors.InternalError, ArithmeticError)
    assert not issubclass(errors.InternalError, ValueError)


@pytest.mark.parametrize(
    "module, name",
    [(parsing, "ParseError"), (polyhedra, "DimensionError"), (newton, "CapExceededError"),
     (newton, "CancellationError"), (oracle, "PrecisionCapError"), (linalg, "InternalError")],
)
def test_moved_classes_stay_importable_from_their_old_modules(module, name):
    assert getattr(module, name) is getattr(errors, name)


# ---------------------------------------------------------------------------
# The library boundary: the library's form of the CLI's documented exit codes
# ---------------------------------------------------------------------------

# mostly small well-formed values, and values of the wrong kind (a float,
# bool, string or None; a Fraction for an int) or range (negatives, ints up
# to 2^64 in magnitude)
_WRONG_KIND = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none())
_INT = st.one_of(st.integers(-3, 12), st.integers(-3, 12), st.integers(-(2**64), 2**64),
                 _WRONG_KIND, st.fractions(max_denominator=4))
_RATIONAL = st.one_of(st.integers(-3, 12), st.fractions(max_denominator=4),
                      st.integers(-(2**64), 2**64), _WRONG_KIND)


def _is_int(v):
    return type(v) is int


def _is_rational(v):
    return type(v) is int or type(v) is Fraction


# each kind of argument: its strategy, and whether a drawn value is of the kind
_KINDS = {
    "int": (_INT, _is_int),
    "prime": (st.one_of(st.sampled_from([2, 3, 5]), _INT), _is_int),
    "int or None": (st.one_of(st.none(), _INT), lambda v: v is None or _is_int(v)),
    "ints": (st.lists(_INT, max_size=3), lambda v: all(map(_is_int, v))),
    "ints or None": (st.one_of(st.none(), st.lists(_INT, max_size=3)),
                     lambda v: v is None or all(map(_is_int, v))),
    "rationals": (st.lists(_RATIONAL, max_size=3), lambda v: all(map(_is_rational, v))),
    "matrix": (st.integers(0, 3).flatmap(
        lambda cols: st.lists(st.lists(_INT, min_size=cols, max_size=cols), max_size=3)),
               lambda v: all(_is_int(x) for row in v for x in row)),
    "points": (st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(*[_RATIONAL] * n), max_size=4)),
               lambda v: all(_is_rational(x) for point in v for x in point)),
    "terms": (st.integers(1, 2).flatmap(
        lambda n: st.dictionaries(st.tuples(*[_INT] * n), _RATIONAL, max_size=3)),
              lambda v: all(_is_int(e) for exp in v for e in exp) and all(map(_is_rational, v.values()))),
}

_LOCAL = st.sampled_from([bounds.LocalField(2), bounds.LocalField(3, 2, 1)])
_GLOBAL = st.sampled_from([bounds.GlobalField(1, 1), bounds.GlobalField(4, 6)])
_F = st.just(newton.SparseSystem.of([newton.SparsePolynomial.from_dict({(2,): 1, (1,): 3, (0,): -4})]))
_SQUARE = st.just(polyhedra.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]))

# every function that takes integer or rational arguments from a caller, with
# the kind of each argument, or a strategy of well-formed ones
_PROBES = {
    "from_dict": (newton.SparsePolynomial.from_dict, "terms"),
    "LocalField": (bounds.LocalField, "prime", "int", "int"),
    "GlobalField": (bounds.GlobalField, "int", "int"),
    "local_bound": (bounds.local_bound, _LOCAL, "int", "int", "int"),
    "global_bound": (bounds.global_bound, _GLOBAL, "int", "int", "int"),
    "affine_bound": (bounds.affine_bound, st.one_of(_LOCAL, _GLOBAL), "int", "int", "int"),
    "cp_bound": (bounds.cp_bound, "int", "int", "rationals", "prime"),
    "cp_bound_per_equation": (bounds.cp_bound_per_equation, "ints", "int", "rationals", "prime"),
    "local_facet_bound_from_counts": (bounds.local_facet_bound_from_counts,
                                      "int", "int", _LOCAL, "int or None", "ints or None"),
    "global_facet_sum_bound_from_counts": (bounds.global_facet_sum_bound_from_counts,
                                           "int", "int", "int", _GLOBAL),
    "log_inequality_check": (bounds.log_inequality_check, "rationals", "rationals", "int", "prime"),
    "valuation_vector_cap": (newton.valuation_vector_cap, "int", "int"),
    "valuation_face_bound": (newton.valuation_face_bound, _F, "prime", "rationals"),
    "set_precision": (arith.set_precision, "int"),
    "rational_root_search": (oracle.rational_root_search, _F, "int"),
    "product_system": (oracle.product_system, "int", "int"),
    "product_system_root_count": (oracle.product_system_root_count, "int", "int"),
    "smith_normal_form": (oracle.smith_normal_form, "matrix"),
    "count_binomial_system": (oracle.count_binomial_system, "matrix", "rationals", "prime"),
    "lcm_profile": (binomials.lcm_profile, "int", "int"),
    "expansion_coeffs": (binomials.expansion_coeffs, "ints", "int"),
    "gen_binomial": (binomials.gen_binomial, "int", "int"),
    "convex_hull": (polyhedra.convex_hull, "points"),
    "face": (polyhedra.face, _SQUARE, "rationals"),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=1500,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_PROBES)), data=st.data())
def test_any_library_call_returns_or_raises_a_rootbounds_error(name, data):
    fn, *kinds = _PROBES[name]
    args, wrong_kind = [], False
    for kind in kinds:
        strategy, of_kind = _KINDS[kind] if isinstance(kind, str) else (kind, None)
        args.append(data.draw(strategy))
        wrong_kind = wrong_kind or (of_kind is not None and not of_kind(args[-1]))
    t0 = time.perf_counter()
    try:
        # in a copy of the context: a drawn set_precision ends with the call
        contextvars.copy_context().run(fn, *args)
    except errors.RootboundsError:
        pass
    else:
        assert not wrong_kind, f"{name}{tuple(args)} returned for an argument of the wrong kind"
    assert time.perf_counter() - t0 < 2.0, f"{name}{tuple(args)} ran past the time cap"
