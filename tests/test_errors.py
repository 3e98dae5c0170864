"""Exit codes decided by the error's type, in one module.

Each ``src/rootbounds/*.py`` is parsed with ``ast``: no module raises a bare
``ValueError`` or ``ArithmeticError``, whose exit code the CLI could only
guess, and every exception class is defined in ``errors.py``.
"""

import ast
from pathlib import Path

import pytest

from rootbounds import errors, linalg, newton, oracle, parsing, polyhedra
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
