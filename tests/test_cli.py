import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rootbounds.arith import get_precision, set_precision
from rootbounds.binomials import MAX_SUPPORT, MAX_SUPPORT_ELEMENT, MAX_T
from rootbounds.cli import (
    EXIT_BAD_PARAMS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VERIFY_FAILED,
    MAX_RANDOM_TRIALS,
    MAX_RANDOM_WORK,
    _build_parser,
    main,
)
from rootbounds.errors import InternalError, ParamError
from rootbounds.arith import format_rational
from rootbounds.newton import newton_data
from rootbounds.oracle import (
    MAX_UNIVARIATE_DEGREE,
    PrecisionCapError,
    rational_root_search,
    reduce_to_square,
)
from rootbounds.parsing import (
    MAX_COEFF_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_VARS,
    ParseError,
    _Parser,
    _pmul,
    _tokenize,
    parse_polynomial_text,
    parse_system,
    parse_system_text,
    system_to_json_obj,
)

EXAMPLE_13_SYSTEM = "1 + x1*x2 + x1^2*x2^3\n1 + x1*x2^2 + x1^4*x2\n"
TRINOMIAL = "3*x1^10 + x1^2 - 4"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_trinomial():
    f = parse_polynomial_text(TRINOMIAL, 1)
    assert f.as_dict() == {(10,): 3, (2,): 1, (0,): -4}


def test_parse_rational_coefficients_and_parens():
    f = parse_polynomial_text("1/2*x1^2 - (x1 - 3/4)", 1)
    assert f.as_dict() == {(2,): Fraction(1, 2), (1,): -1, (0,): Fraction(3, 4)}


def test_parse_negative_exponents():
    f = parse_polynomial_text("x1^-2 + 5", 1)
    assert f.as_dict() == {(-2,): 1, (0,): 5}


def test_parse_system_infers_variables():
    s = parse_system_text("x1 + x2; x2^2 - 1")
    assert s.n == 2 and s.k == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial_text("x1 +", 1)
    with pytest.raises(ParseError):
        parse_polynomial_text("y + 1", 1)
    with pytest.raises(ParseError):
        parse_polynomial_text("x2", 1)
    with pytest.raises(ParseError):
        parse_polynomial_text("(x1 + 1", 1)
    with pytest.raises(ParseError):
        parse_polynomial_text("x1 - x1", 1)  # cancels to zero
    with pytest.raises(ParseError):
        parse_polynomial_text("(x1+1)^-2", 1)
    # an operator where an atom belongs, and integers of more digits than
    # int() reads, raised a bare ValueError
    for text in ["3**x1 + 1", "x1 + )", "+ x1", "x1^" + "9" * 5000, "1" * 5000 + "*x1", "1/" + "1" * 5000]:
        with pytest.raises(ParseError):
            parse_polynomial_text(text, 1)
    for text, message in [
        ("(x1 2)", "expected ')', got '2'"),
        ("x1^x2", "expected an integer exponent, got 'x2'"),
        ("x1 )", "trailing input from token ')'"),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_polynomial_text(text, 1)
    with pytest.raises(ParseError):
        parse_system_text("x" + "1" * 5000 + " + 1")


def test_parse_powers_of_expressions():
    f = parse_polynomial_text("(x1 + 1)^2", 1)
    assert f.as_dict() == {(2,): 1, (1,): 2, (0,): 1}
    # just under the work cap, and a cancelled base at any power
    f = parse_polynomial_text("(x1 + 1)^300", 1).as_dict()
    assert len(f) == 301 and f[(150,)] == math.comb(300, 150)
    assert _parse_dict("(x1 - x1)^1000000000 + x1", 1) == {(1,): 1}


def _parse_dict(text: str, n: int) -> dict:
    return _Parser(_tokenize(text), n).parse_expr()


def _power_by_repeated_products(base: dict, k: int, n: int) -> dict:
    # the repeated-multiplication reference; a negative power multiplies the
    # inverse monomial, which only a one-term base has
    if k < 0:
        if len(base) != 1 or 0 in base.values():
            raise ParseError("no inverse")
        ((e, c),) = base.items()
        base = {tuple(-x for x in e): 1 / c}
        k = -k
    out = {tuple([0] * n): Fraction(1)}
    for _ in range(k):
        out = _pmul(out, base)
    return out


def test_monomial_powers_match_repeated_products():
    rng = random.Random(0x5EED)
    coeffs = ["0", "1", "-1", "2", "-3", "3/4", "-5/7", "12/5"]
    checked = 0
    for _ in range(400):
        c = rng.choice(coeffs)
        a, b = rng.randint(-3, 4), rng.randint(0, 4)
        k = rng.randint(-5, 60) if rng.random() < 0.9 else 0
        for base in (f"({c}*x1^{a}*x2^{b})", f"({c})"):
            text = f"{base}^{k}"
            base_dict = _parse_dict(base, 2)
            try:
                want = _power_by_repeated_products(base_dict, k, 2)
            except ParseError:
                with pytest.raises(ParseError):
                    _parse_dict(text, 2)
                continue
            assert _parse_dict(text, 2) == want, text
            checked += 1
    assert checked > 600
    assert _parse_dict("0^0", 1) == {(0,): 1}
    assert _parse_dict("0^3", 1) == {}
    assert _parse_dict("(x1 + 1)^0", 1) == {(0,): 1}


def test_large_coefficient_power_is_parse_error():
    with pytest.raises(ParseError):
        parse_polynomial_text("3^2000000*x1 + 1", 1)
    assert parse_polynomial_text("x1^2000000 + 1", 1).as_dict() == {(2000000,): 1, (0,): 1}


@pytest.mark.parametrize(
    "stdin_text",
    ["(x1 + 1)^2000\n", "(x1 + x2 + x3 + x4 + 1)^100\n", "(2^3000*x1 + 1)^300\n", "(x1 + 1)^" + "9" * 4000 + "\n"],
)
def test_multi_term_power_above_the_work_cap_is_parse_error(capsys, monkeypatch, stdin_text):
    # refused before any product; (x1 + 1)^2000 took 35.6 s to expand
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_cli(capsys, args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_bound_reproduces_headline_value(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(EXAMPLE_13_SYSTEM)
    code = main(["bound", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    by_id = {b["formula_id"]: b for b in payload["bounds"]}
    assert by_id["thm1_local"]["integer_bound"] == 127645
    assert payload["system"] == {"m": 5, "n": 2, "k": 2}
    assert "cor2_1" in by_id


def test_bound_zero_for_tiny_support(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("x1*x2 - 1\nx1 - x2\n")  # m = 3 <= ... n=2, m=3 > n; use m<=n case
    code = main(["bound", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK


def test_bound_m_le_n_is_zero(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("x1 - x2\nx1 + x2\n")  # m = 2 = n
    code = main(["bound", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert all(b["integer_bound"] == 0 for b in payload["bounds"])


def test_bound_global_single_term(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("1 + x1 + x1^3\n")
    code = main(["bound", str(path), "--global", "--d", "1", "--delta", "1"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    by_id = {b["formula_id"]: b for b in payload["bounds"]}
    assert code == EXIT_OK
    assert by_id["cor3_1"]["integer_bound"] == 8


def test_bound_global_zero_case(capsys, monkeypatch):
    # m = 2 <= n = 2: both global bounds are 0 and say why
    code, out, _ = run_cli(capsys, ["bound", "-", "--global", "--d", "1"], stdin_text="x1\nx2\n",
                           monkeypatch=monkeypatch)
    by_id = {b["formula_id"]: b for b in json.loads(out)["bounds"]}
    assert code == EXIT_OK and set(by_id) == {"thm1_global", "cor3_1"}
    assert by_id["thm1_global"]["notes"] == ["zero case: m <= n or k < n"]
    assert by_id["cor3_1"]["notes"] == ["zero case: m <= n"]
    assert all(b["integer_bound"] == 0 and b["raw"] == "0" for b in by_id.values())


@pytest.mark.parametrize("text", ["", "\n\n", ";"], ids=["empty", "blank-lines", "semicolon"])
def test_empty_input_is_parse_error(capsys, monkeypatch, text):
    code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert "no polynomials in input" in err


def test_bound_affine_flag(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(TRINOMIAL + "\n")
    code = main(["bound", str(path), "--prime", "2", "--affine"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    ids = {b["formula_id"] for b in payload["bounds"]}
    assert code == EXIT_OK and "remark1_1" in ids


def test_bound_json_input(tmp_path, capsys):
    system = parse_system_text(EXAMPLE_13_SYSTEM)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json_obj(system)))
    code = main(["bound", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(out)["system"]["m"] == 5


def test_facets_trinomial(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(TRINOMIAL + "\n")
    code = main(["facets", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["facet_count"] == 2
    normals = {tuple(f["normal"]) for f in payload["lower_facets"]}
    assert normals == {("1", "1"), ("0", "1")}
    bounds = {tuple(b["r"]): b["bound"] for b in payload["face_bounds"]}
    assert bounds == {("0",): 8, ("1",): 2}


def test_facets_binomial_pair(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("x1^2 - 4\nx2^2 - 4\n")
    code = main(["facets", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["candidate_valuations"] == [["1", "1"]]
    assert payload["face_bounds"][0]["bound"] == 4


def test_facets_rejects_constant_equation(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("5\n")
    code = main(["facets", str(path), "--prime", "2"])
    capsys.readouterr()
    assert code == EXIT_BAD_PARAMS


def test_verify_paper_trinomial(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(TRINOMIAL + "\n")
    code = main(["verify", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["all_ok"] is True
    univ = [r for r in payload["rows"] if r["oracle"] == "univariate_padic"]
    assert univ and all(r["count"] == 6 for r in univ)


def test_verify_product_system(capsys, tmp_path):
    from rootbounds.oracle import product_system

    system = product_system(4, 2)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json_obj(system)))
    code = main(["verify", str(path), "--prime", "2", "--height-cap", "5"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_OK
    search = [r for r in payload["rows"] if r["oracle"] == "rational_search"]
    assert search and all(r["count"] == 9 for r in search)


def test_verify_random_suite(capsys):
    code = main(["verify", "--prime", "2", "--random", "5", "--seed", "11"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_OK and payload["all_ok"]


def test_verify_deterministic_output(capsys):
    code1 = main(["verify", "--prime", "3", "--random", "4", "--seed", "99"])
    out1, _ = capsys.readouterr()
    code2 = main(["verify", "--prime", "3", "--random", "4", "--seed", "99"])
    out2, _ = capsys.readouterr()
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_violation_is_hard_failure_with_dump(tmp_path, capsys, monkeypatch):
    # force an artificially tiny bound to exercise the failure path
    import rootbounds.cli as cli_mod
    from rootbounds.bounds import BoundReport
    from rootbounds.arith import Interval

    def tiny_bound(fs, m, n, k):
        return BoundReport("thm1_local", Interval.exact(0).upper(), 0, {}, ())

    monkeypatch.setattr(cli_mod, "local_bound", tiny_bound)
    path = tmp_path / "system.txt"
    path.write_text(TRINOMIAL + "\n")
    code = main(["verify", str(path), "--prime", "2"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_VERIFY_FAILED
    bad = [r for r in payload["rows"] if not r["ok"]]
    assert bad and all("system" in r for r in bad)


def test_binom_subcommand(capsys):
    code = main(["binom", "--m", "3", "--t", "3", "--support", "0,1,3"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["lcm_profile"] == "6"
    assert payload["expansion"]["coefficients"] == ["0", "0", "1/3"]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("x1 +++ 2\n")
    code = main(["bound", str(path), "--prime", "2"])
    capsys.readouterr()
    assert code == EXIT_PARSE_ERROR


def test_bad_parameters_exit_code(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(TRINOMIAL + "\n")
    code = main(["bound", str(path), "--prime", "6"])
    capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    code = main(["bound", str(path), "--prime", "2", "--d", "3", "--e", "1", "--f", "1"])
    capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    code = main(["verify", "--prime", "2"])  # nothing to verify
    capsys.readouterr()
    assert code == EXIT_BAD_PARAMS


def _trinomials(n):
    """x_i^2 + x_i + 4 for i = 1..n: at p = 2 each lift has two lower cells."""
    return "\n".join(f"x{i}^2 + x{i} + 4" for i in range(1, n + 1))


@pytest.mark.parametrize("command", ["bound", "facets", "verify"])
@pytest.mark.parametrize(
    "text",
    [_trinomials(6), _trinomials(10), _trinomials(6) + "\nx1*x2 + 8"],
    ids=["square-6", "square-10", "overdetermined-6"],
)
def test_lifts_above_the_dimension_cap_exit_at_once(tmp_path, capsys, command, text):
    # a lift in R^(n+1) past MAX_DIM is refused before any lower hull is
    # built or any face tuple searched, whatever k is: without the check
    # square-10 searches 11^10 splits of d and overdetermined-6 gets a bound
    path = tmp_path / "system.txt"
    path.write_text(text + "\n")
    t0 = time.perf_counter()
    code = main([command, str(path), "--prime", "2"])
    _out, err = capsys.readouterr()
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_BAD_PARAMS
    assert "exceeds the cap" in err


def test_missing_file_is_parse_error(capsys):
    code = main(["bound", "/nonexistent/system.txt", "--prime", "2"])
    capsys.readouterr()
    assert code == EXIT_PARSE_ERROR


def test_stdin_input(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["facets", "-", "--prime", "2"],
        stdin_text=TRINOMIAL + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert json.loads(out)["facet_count"] == 2


def test_text_format_output(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(TRINOMIAL + "\n")
    code = main(["bound", str(path), "--prime", "2", "--format", "text"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    assert "thm1_local" in out and "integer_bound" in out


@pytest.mark.parametrize("command", ["bound", "facets", "verify"])
def test_cancelling_system_is_bad_params(capsys, monkeypatch, command):
    # k > n and the coefficient-wise sum of the equations is zero
    code, out, err = run_cli(
        capsys, [command, "-", "--prime", "2"], stdin_text="x1 - 1\n1 - x1\n", monkeypatch=monkeypatch
    )
    assert code == EXIT_BAD_PARAMS
    assert out == ""
    assert err.startswith("error: ")


def test_arithmetic_error_is_bad_params(capsys, monkeypatch):
    # two refusals that library callers may catch as ArithmeticError exit 3
    # by their type, ParamError, not by that second base.  The roots 1 and
    # 1 + 2^70 agree in 70 2-adic digits, past the cap of the univariate
    # oracle's residue refinement (PrecisionCapError)
    assert issubclass(PrecisionCapError, ArithmeticError)
    assert PrecisionCapError.exit_code == EXIT_BAD_PARAMS
    code, out, err = run_cli(
        capsys,
        ["verify", "-", "--prime", "2"],
        stdin_text="x1^2 - (2 + 2^70)*x1 + 1 + 2^70\n",
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and "refinement" in err
    # the lower facet count check of the Newton analysis, which valid input
    # reaches, so a ParamError
    monkeypatch.setattr("rootbounds.newton.valuation_vector_cap", lambda m, n: 0)
    code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=TRINOMIAL + "\n", monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and "combinatorial cap" in err


def test_failed_self_check_is_internal_not_bad_params(capsys, monkeypatch):
    # a kernel bug must not read as bad parameters (exit 3), nor as a failed
    # verification (exit 1).  Unit coefficients at p = 2 make each lift one
    # flat cell, so the one lower facet is no direct sum of its faces and
    # its face bound runs mixed_volume.
    def broken(polytopes):
        raise InternalError("negative mixed volume -1; hull computation broken")

    monkeypatch.setattr("rootbounds.newton.mixed_volume", broken)
    code, out, err = run_cli(
        capsys, ["facets", "-"], stdin_text="1 + x1 + x2 + x1*x2\n1 + 3*x1 + 5*x2\n",
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal: ") and "hull computation broken" in err


SQUARE_2X2 = "x1^2 - 3*x2 + 1\nx2^2 - x1 - 2\n"


def _key_error(*args):
    raise KeyError("facets")


def _unpacking_bug(lifts):
    first, second = lifts[0][0]  # a lifted point has n + 1 = 3 coordinates
    return first, second


@pytest.mark.parametrize(
    "target, broken, command, message",
    [
        ("rootbounds.bounds.facet_count", _key_error, "bound", "KeyError: 'facets'"),
        ("rootbounds.bounds.facet_count", _key_error, "verify", "KeyError: 'facets'"),
        ("rootbounds.newton.lower_facets_of_sum", _unpacking_bug, "facets",
         "ValueError: too many values to unpack"),
    ],
    ids=["keyerror-bound", "keyerror-verify", "unpacking-facets"],
)
def test_a_programming_error_exits_internal_without_a_traceback(
    capsys, monkeypatch, target, broken, command, message
):
    # a crash must not pass for a failed verification (exit 1) nor for a
    # refused input (exit 2 or 3): the KeyError exited 1 with a traceback,
    # the unpacking ValueError exited 3
    monkeypatch.setattr(target, broken)
    code, out, err = run_cli(capsys, [command, "-", "--prime", "5"], stdin_text=SQUARE_2X2,
                             monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith(f"internal: {message}") and "Traceback" not in err


@pytest.mark.parametrize(
    "target, stdin_text",
    [
        ("rootbounds.parsing._pmul", "(x1 + 1)*x2 - 3\n"),
        ("rootbounds.newton.SparsePolynomial.from_dict",
         json.dumps({"n": 1, "polynomials": [[{"exp": [1], "coeff": "1"}, {"exp": [0], "coeff": "-2"}]]})),
    ],
    ids=["text", "json"],
)
def test_a_bug_in_reading_the_input_exits_internal(capsys, monkeypatch, target, stdin_text):
    # the input's handler caught every LookupError, TypeError and ValueError
    # and read such a bug as a parse error, exit 2
    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setattr(target, broken)
    code, out, err = run_cli(capsys, ["bound", "-", "--prime", "5"], stdin_text=stdin_text,
                             monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal: KeyError: 'bug'")


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize(
    "stdin_text, code",
    [
        ("(" * MAX_NESTING + "x1 - 1" + ")" * MAX_NESTING, EXIT_OK),
        ("-" * (MAX_NESTING + 1) + "x1 - 1", EXIT_OK),  # the first minus signs the expression
        ("(" * (MAX_NESTING + 1) + "x1 - 1" + ")" * (MAX_NESTING + 1), EXIT_PARSE_ERROR),
        ("(" * 300 + "x1 - 1" + ")" * 300, EXIT_PARSE_ERROR),
        ("-" * 3000 + "x1", EXIT_PARSE_ERROR),
        ('{"n": ' + "[" * 100000, EXIT_PARSE_ERROR),
    ],
    ids=["parens-at-cap", "minus-at-cap", "parens-past-cap", "parens-300", "minus-3000", "json-deep"],
)
def test_nesting_past_the_cap_is_parse_error(capsys, monkeypatch, command, stdin_text, code):
    # the last four exhausted the stack: a RecursionError, exit 1 with a traceback
    got, out, err = run_cli(capsys, [command, "-", "--prime", "3"], stdin_text=stdin_text,
                            monkeypatch=monkeypatch)
    assert got == code
    if code == EXIT_PARSE_ERROR:
        assert out == "" and err.startswith("error: could not parse the input system: ")
        assert ("MAX_NESTING" in err) is not stdin_text.startswith("{")
    else:
        assert json.loads(out)


def test_unreadable_input_file_is_parse_error(tmp_path, capsys):
    # a file that is no UTF-8 exited 3, as if a parameter were refused
    path = tmp_path / "system.txt"
    path.write_bytes(b"x1 - \xff\n")
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.startswith("error: cannot read input")


def test_binom_support_that_is_no_integer_list_is_bad_params(capsys):
    code, out, err = run_cli(capsys, ["binom", "--m", "3", "--t", "5", "--support", "1,a"])
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: --support")


def test_precision_above_cap_is_bad_params(capsys, monkeypatch):
    # refused before any log is evaluated; without the cap this ran for minutes
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["bound", "-", "--precision", "100000"], stdin_text=TRINOMIAL + "\n", monkeypatch=monkeypatch
    )
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_BAD_PARAMS
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "stdin_text",
    [
        "1/0 + x1\n",
        "0^-1 + x1\n",
        json.dumps({"n": 1, "polynomials": [[{"exp": [1], "coeff": "1/0"}, {"exp": [0], "coeff": "1"}]]}),
    ],
)
def test_zero_denominator_is_parse_error(capsys, monkeypatch, stdin_text):
    code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith("error: ")


def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    code, out, _ = run_cli(capsys, ["bound", "-", "--affine"], stdin_text=TRINOMIAL + "\n", monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "remark1_1" in [b["formula_id"] for b in json.loads(out)["bounds"]]
    code, out, _ = run_cli(capsys, ["bound", "-"], stdin_text=TRINOMIAL + "\n", monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "remark1_1" not in [b["formula_id"] for b in json.loads(out)["bounds"]]


def test_huge_monomial_exponent_is_fast(capsys, monkeypatch):
    # a monomial power is one step; repeated multiplication took 23.5 s here
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, ["bound", "-"], stdin_text="x1^3000000 + 3*x1 - 1\n", monkeypatch=monkeypatch
    )
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_OK
    assert json.loads(out)["system"] == {"m": 3, "n": 1, "k": 1}


def _long_facets_input():
    """A 2x2 system whose exponents, scaled by 10^600, print as 600-digit
    facet coordinates."""
    rng = random.Random("closed-pipe")
    lines = []
    for _ in range(2):
        exps = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(8)}
        lines.append(" + ".join(
            f"{rng.choice([1, 2, 3, 4, 8, 16, 32])}*x1^{a * 10**600}*x2^{b * 10**600}"
            for a, b in sorted(exps)
        ))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, long_input",
    [(["facets", "-"], True), (["verify", "--random", "150", "--height-cap", "1"], False),
     # about 0.7 MB, ten times what a pipe holds
     (["verify", "--random", "1000", "--height-cap", "1", "--prime", "3"], False)],
)
def test_a_reader_closing_the_pipe_keeps_the_exit_code(argv, long_input):
    # `rootbounds facets ... | head -1`: each command prints over 100 kB,
    # more than a pipe holds (64 KiB on Linux), so it is still writing when
    # the reader closes the pipe after the first line
    stdin_text = _long_facets_input() if long_input else ""
    cmd = [sys.executable, "-m", "rootbounds.cli", *argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    whole = subprocess.run(cmd, input=stdin_text, capture_output=True, text=True, env=env, timeout=120)
    assert len(whole.stdout) > 100_000 and "Traceback" not in whole.stderr
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    proc.stdin.write(stdin_text)
    proc.stdin.close()
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == whole.returncode == EXIT_OK
    assert first == whole.stdout.splitlines(keepends=True)[0]
    assert err == whole.stderr == ""


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize(
    "obj",
    [
        {"n": 1, "polynomials": 5},
        {"n": 1, "polynomials": [["x"]]},
        {"n": [1], "polynomials": []},
        {"n": 1},
        {"n": 1, "polynomials": [[{"exp": [1], "coeff": "abc"}]]},
        {"n": 1, "polynomials": [[{"exp": [1]}]]},
        {"n": 1, "polynomials": []},
        {"n": 1, "polynomials": [[]]},
        {"n": 1, "polynomials": [[{"exp": [1], "coeff": "0"}]]},
        {"n": 2, "polynomials": [[{"exp": [1, 0], "coeff": "1"}, {"exp": [0], "coeff": "1"}]]},
    ],
    ids=["polynomials-int", "term-str", "n-list", "no-polynomials", "coeff-abc", "no-coeff",
         "no-polynomial", "empty-polynomial", "zero-polynomial", "mixed-lengths"],
)
def test_malformed_json_shape_is_parse_error(capsys, monkeypatch, command, obj):
    # a wrong JSON type is a parse error, never a traceback read as exit 1;
    # each is refused where it is read, the last four before the
    # constructors' ParamError (exit 3)
    code, out, err = run_cli(capsys, [command, "-"], stdin_text=json.dumps(obj), monkeypatch=monkeypatch)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith("error: ")


_TWO_TERMS = '{"exp": [%s], "coeff": "1"}, {"exp": [0], "coeff": "-1"}'


@pytest.mark.parametrize("command", ["bound", "facets"])
@pytest.mark.parametrize(
    "stdin_text",
    [
        '{"n": 1, "polynomials": [[%s]]}' % (_TWO_TERMS % "1.5"),
        '{"n": 1, "polynomials": [[%s]]}' % (_TWO_TERMS % "true"),
        '{"n": 1, "polynomials": [[%s]]}' % (_TWO_TERMS % '"1"'),
        '{"n": 1, "polynomials": [[%s]]}' % (_TWO_TERMS % "1e999"),
        '{"n": 1.9, "polynomials": [[%s]]}' % (_TWO_TERMS % "1"),
        '{"n": true, "polynomials": [[%s]]}' % (_TWO_TERMS % "1"),
        '{"n": 1e999, "polynomials": [[%s]]}' % (_TWO_TERMS % "1"),
    ],
    ids=["exp-1.5", "exp-true", "exp-str", "exp-inf", "n-1.9", "n-true", "n-inf"],
)
def test_non_integer_json_number_is_parse_error(capsys, monkeypatch, command, stdin_text):
    # read with int() these became another system (1.5 -> 1) or exit 3 (inf)
    code, out, err = run_cli(capsys, [command, "-"], stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.startswith("error: ") and "JSON integer" in err


def _binomial_json(coeff):
    return json.dumps({"n": 1, "polynomials": [[{"exp": [1], "coeff": coeff},
                                                 {"exp": [0], "coeff": "1"}]]})


def test_json_coefficient_exponent_past_cap_is_parse_error(capsys, monkeypatch):
    # refused before Fraction builds 10^|e|, which takes seconds at 1e3000000
    for coeff in ("1e3000000", "-2.5E-3000000", f"1e{MAX_COEFF_EXPONENT + 1}"):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=_binomial_json(coeff),
                                 monkeypatch=monkeypatch)
        assert time.perf_counter() - t0 < 0.1
        assert (code, out) == (EXIT_PARSE_ERROR, "")
        assert err.startswith("error: ") and "MAX_COEFF_EXPONENT" in err
    # at the cap, 10^|e| has no more bits than a coefficient power of the text grammar
    assert (10**MAX_COEFF_EXPONENT).bit_length() <= MAX_POWER_BITS
    assert (10 ** (MAX_COEFF_EXPONENT + 1)).bit_length() > MAX_POWER_BITS


@pytest.mark.parametrize("coeff, rational", [("1e3", "1000"), ("25e-3", "1/40")])
def test_json_coefficient_in_exponent_notation_reads_as_its_rational(
    capsys, monkeypatch, coeff, rational
):
    system = parse_system(_binomial_json(coeff))
    assert system == parse_system(_binomial_json(rational))
    assert system.polynomials[0].terms[1][1] == Fraction(rational)
    outs = [
        run_cli(capsys, [command, "-", "--prime", "5"], stdin_text=_binomial_json(c),
                monkeypatch=monkeypatch)
        for command in ("bound", "facets") for c in (coeff, rational)
    ]
    assert outs[0] == outs[1] and outs[2] == outs[3]
    assert outs[0][0] == outs[2][0] == EXIT_OK


def _json_of_terms(n, *polys):
    # each polynomial as (coefficient, exponent list) pairs, repeats kept
    return json.dumps({"n": n, "polynomials": [
        [{"exp": list(e), "coeff": c} for c, e in terms] for terms in polys]})


def test_json_repeated_exponent_vectors_sum_as_in_the_text_form():
    # the JSON reader kept only the last term of each exponent vector
    doc = _json_of_terms(1, [("1", [1]), ("1", [1]), ("-4", [0])])
    assert parse_system(doc) == parse_system_text("2*x1 - 4")


def test_verify_reads_both_forms_of_a_system_with_a_cancelling_term(capsys, monkeypatch):
    # the JSON form read x1^2 - x1 - 4 (m = 3, no rational root), the text
    # form the binomial x1^2 - 4 (two rational roots)
    doc = _json_of_terms(1, [("1", [1]), ("-1", [1]), ("1", [2]), ("-4", [0])])
    runs = [run_cli(capsys, ["verify", "-", "--prime", "2"], stdin_text=text, monkeypatch=monkeypatch)
            for text in (doc, "x1 - x1 + x1^2 - 4\n")]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert {(row["oracle"], row["count"]) for row in rows} >= {("rational_search", 2), ("snf_binomial", 2)}


def test_json_polynomial_whose_terms_cancel_is_parse_error(capsys, monkeypatch):
    doc = _json_of_terms(2, [("1", [1, 0]), ("3/2", [0, 1])], [("2", [1, 1]), ("-2", [1, 1])])
    code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == "error: could not parse the input system: polynomial cancelled to zero\n"


def test_facets_reduces_an_overdetermined_system_with_its_seed(capsys, monkeypatch):
    text = "x1 + x2 - 1; x1 - x2 + 2; x1*x2 - 3\n"
    code, out, _ = run_cli(capsys, ["facets", "-", "--prime", "3", "--seed", "5"],
                           stdin_text=text, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["notes"]) == 1 and "seeded random square reduction" in payload["notes"][0]
    system = parse_system_text(text)
    data = newton_data(system, 3)
    assert payload["facet_count"] == len(data.facets)
    assert payload["lower_facets"] == [
        {"normal": [format_rational(x) for x in normal], "vertices": facet.to_json_obj()}
        for normal, facet in data.facets
    ]
    square = newton_data(reduce_to_square(system, 5), 3).face_bounds()
    assert square and payload["face_bounds"] == [
        {"r": [format_rational(x) for x in r], "bound": bound} for r, bound in square
    ]


def test_global_bound_notes_that_it_ignores_the_prime(capsys, monkeypatch):
    outs = [run_cli(capsys, ["bound", "-", "--global", "--d", "2", "--prime", p],
                    stdin_text=EXAMPLE_13_SYSTEM, monkeypatch=monkeypatch) for p in ("3", "2")]
    assert outs[0][:2] == outs[1][:2] and outs[0][0] == EXIT_OK
    assert outs[0][2] == "note: global bounds embed through the 2-adics; --prime is ignored\n"
    assert outs[1][2] == ""


def test_variable_index_above_cap_is_parse_error(capsys, monkeypatch):
    # refused before an exponent tuple of that length is built
    # the JSON form's n takes the same cap
    def json_doc(n):
        return json.dumps({"n": n, "polynomials": [[{"exp": [1] * n, "coeff": "1"},
                                                    {"exp": [0] * n, "coeff": "-1"}]]})

    t0 = time.perf_counter()
    for text in ["x1000000000 + x1 + 1\n", f"x{MAX_VARS + 1} + 1\n", json_doc(MAX_VARS + 1)]:
        code, out, err = run_cli(capsys, ["bound", "-"], stdin_text=text, monkeypatch=monkeypatch)
        assert (code, out) == (EXIT_PARSE_ERROR, "")
        assert err.startswith("error: ") and str(MAX_VARS) in err
    with pytest.raises(ParseError):
        parse_polynomial_text("x1 + 1", MAX_VARS + 1)
    assert time.perf_counter() - t0 < 1.0
    assert parse_system_text(f"x{MAX_VARS} + x1 + 1").n == MAX_VARS
    assert parse_system(json_doc(MAX_VARS)).n == MAX_VARS


@pytest.mark.parametrize("trials", ["-1", str(MAX_RANDOM_TRIALS + 1), "1000000000"])
def test_random_trial_count_out_of_range_is_bad_params(capsys, trials):
    # refused before any trial runs; 10^9 trials would otherwise take months
    t0 = time.perf_counter()
    code = main(["verify", "--random", trials])
    out, err = capsys.readouterr()
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and str(MAX_RANDOM_TRIALS) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "3", "--t", "100000"],
        ["--m", "3", "--t", str(10**9)],
        ["--m", "0", "--t", str(10**9), "--support", "1,2"],
        ["--m", "2", "--t", "40", "--support", ",".join(map(str, range(MAX_SUPPORT + 1)))],
        ["--m", "2", "--t", "40", f"--support=-{MAX_SUPPORT_ELEMENT + 1},0"],
        ["--m", str(MAX_T), "--t", str(MAX_T)],
    ],
    ids=["t-1e5", "t-1e9", "m0-t-1e9-support", "support-length", "support-element", "lcm-digits"],
)
def test_binom_above_cap_is_bad_params(capsys, argv):
    # refused before any work; --t 100000 ran for minutes
    t0 = time.perf_counter()
    code = main(["binom", *argv])
    out, err = capsys.readouterr()
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and "cap" in err


def test_binom_negative_support_needs_the_equals_form(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep the help line unwrapped
    # argparse reads a separate value starting with "-" as an option
    assert main(["binom", "--m", "2", "--t", "3", "--support=-3,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # (a choose 3) at a = -3 and a = 1 is -10 and 0, and c0 + c1 a meets both
    assert payload["expansion"] == {"support": [-3, 1], "coefficients": ["-5/2", "5/2"]}
    with pytest.raises(SystemExit) as exc:
        main(["binom", "--m", "2", "--t", "3", "--support", "-3,1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["binom", "--help"])
    assert "--support=-3,1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["bound", "facets", "verify"])
@pytest.mark.parametrize(
    "stdin_text",
    [
        '{"n": 0, "polynomials": [[{"exp": [], "coeff": 1}, {"exp": [], "coeff": 2}]]}',
        '{"n": 0, "polynomials": [[{"exp": [], "coeff": 1}], [{"exp": [], "coeff": -1}]]}',
    ],
    ids=["one-equation", "two-equations"],
)
def test_json_system_without_variables_is_parse_error(capsys, monkeypatch, command, stdin_text):
    # these exited 3, with "log of nonpositive value" or "a one-term equation"
    code, out, err = run_cli(capsys, [command, "-"], stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.startswith("error: could not parse") and "n >= 1" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_verify_height_cap_below_one_is_bad_params(capsys, monkeypatch, cap):
    # an empty search box counted 0 roots and verified as ok
    argv = ["verify", "-", "--height-cap", cap]
    code, out, err = run_cli(capsys, argv, stdin_text="x1^2 - 1\n", monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and "height_cap" in err


# ---------------------------------------------------------------------------
# the flags of each subcommand, and the caps on their values
# ---------------------------------------------------------------------------

# every settable value of the CLI: what each subcommand reads, and nothing else
SUBCOMMAND_FLAGS = {
    "bound": {"input", "--prime", "--e", "--f", "--d", "--delta", "--global", "--affine",
              "--precision", "--format"},
    "facets": {"input", "--prime", "--seed", "--format"},
    "verify": {"input", "--prime", "--e", "--f", "--d", "--height-cap", "--precision", "--seed",
               "--random", "--format"},
    "binom": {"--m", "--t", "--support", "--format"},
}
ALL_FLAGS = set().union(*SUBCOMMAND_FLAGS.values()) - {"input"}
SWITCHES = {"--global", "--affine"}


def _accepted(command):
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices[command]._actions
    return {a.option_strings[0] if a.option_strings else a.dest for a in actions if a.dest != "help"}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    assert {command: _accepted(command) for command in SUBCOMMAND_FLAGS} == SUBCOMMAND_FLAGS
    assert sum(len(flags) for flags in SUBCOMMAND_FLAGS.values()) == 28


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in SUBCOMMAND_FLAGS for f in sorted(ALL_FLAGS - SUBCOMMAND_FLAGS[c])],
)
def test_a_flag_the_subcommand_does_not_read_is_an_argparse_error(capsys, command, flag):
    # --global on verify always ended in exit 3, --prime 4 on binom exited 3
    # over a prime binom never uses, and --f on facets must not read as --format
    argv = [command, flag] + ([] if flag in SWITCHES else ["4"])
    if command == "binom":
        argv += ["--m", "2", "--t", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


_UNI = "x1^2 - 3*x1 + 2\n"
_EIGHT_VARS = "".join(f"x{i} + x{i + 1} + {i}\n" for i in range(1, 8))


@pytest.mark.parametrize(
    "argv,stdin_text,cap",
    [
        (["bound", "-", "--e", "10000000"], _UNI, "MAX_FIELD_BITS"),
        (["bound", "-", "--f", "100000"], _UNI, "MAX_FIELD_BITS"),
        (["bound", "-", "--prime", "1000003", "--e", "3000"], _UNI, "MAX_FIELD_BITS"),
        (["bound", "-", "--global", "--d", "100000", "--delta", "1"], _UNI, "MAX_GLOBAL_DEGREE"),
        (["bound", "-", "--global", "--d", "3000", "--delta", "10"], _UNI, "MAX_GLOBAL_DEGREE"),
        (["bound", "-", "--e", "2048", "--affine"], _EIGHT_VARS, "MAX_BOUND_DIGITS"),
        (["verify", "-", "--prime", "1000000007"], _UNI, "MAX_SCAN_PRIME"),
        (["verify", "--random", "1000", "--height-cap", "100"], None, "MAX_RANDOM_WORK"),
        (["verify", "--random", "1000", "--height-cap", "13", "--precision", "1000"], None,
         "MAX_RANDOM_WORK"),
        (["verify", "-", "--prime", "3"], "x1^3000000 + 3*x1 - 1\n", "MAX_UNIVARIATE_DEGREE"),
    ],
    ids=["e-1e7", "f-1e5", "p-1e6-e-3000", "global-d-1e5", "global-d-3000-delta-10",
         "affine-bound-digits", "verify-p-1e9", "random-work", "random-precision-1000",
         "univariate-degree-3e6"],
)
def test_requests_past_a_cap_exit_at_once(capsys, monkeypatch, argv, stdin_text, cap):
    # these ran past 20 s, or exited 3 with the interpreter's 4300-digit message
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, argv, stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and cap in err
    assert "Exceeds the limit" not in err


def _ints(small):
    """Mostly the small range, else an extreme value."""
    extreme = st.sampled_from([-(10**9), 10**9, 10**9 + 7, 10**12])
    return st.one_of(small, small, small, extreme)


_VALUES = {
    "--precision": _ints(st.integers(28, 100)),
    "--format": st.sampled_from(["json", "text"]),
    "--support": st.sampled_from(["0,1,3", "-3,1", "1,x", ""]),
}
_STDIN = [
    TRINOMIAL + "\n",
    "x1^2 - 4\nx1*x2 - 2\n",
    "x1 - 1\n1 - x1\n",
    "x1 +++ 2\n",
    '{"n": 1, "polynomials": [[{"exp": [1], "coeff": "1"}',
]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    readable = sorted(SUBCOMMAND_FLAGS[command] - {"input"})
    flags = draw(st.lists(st.sampled_from(readable), unique=True, max_size=4))
    argv = [command]
    if command == "binom":
        flags = [f for f in flags if f not in ("--m", "--t")] + ["--m", "--t"]
    elif command != "verify" or draw(st.booleans()):
        argv.append("-")
    for flag in flags:
        argv.append(flag)
        if flag not in SWITCHES:
            argv.append(str(draw(_VALUES.get(flag, _ints(st.integers(-3, 12))))))
    return argv


@settings(derandomize=True, database=None, deadline=3000, max_examples=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv(), stdin_text=st.sampled_from(_STDIN))
def test_any_readable_flags_end_in_a_documented_exit_code(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2  # argparse's, and only argparse's
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_PARSE_ERROR, EXIT_BAD_PARAMS)
    if code == EXIT_VERIFY_FAILED:
        if "text" in argv:
            assert "all_ok: False" in out.getvalue()
        else:
            assert json.loads(out.getvalue())["all_ok"] is False
    assert "Exceeds the limit" not in err.getvalue()


@pytest.mark.parametrize(
    "stdin_text",
    [
        "1 + x1*x2*x3 + x3^2*x1; 2 + x2*x1 + x1*x3^2; 3 + x3*x2 + x1*x2^2*x3\n",
        "x1^3000000*x2 + 3*x1 - 1; x2^2 - 2*x1^5 + 1\n",
    ],
    ids=["3x3-height-10", "exponent-3e6"],
)
def test_verify_search_ends_or_is_refused(capsys, monkeypatch, stdin_text):
    # the first ran past 60 s at the default height cap, the second never
    # returned: each exact power of a candidate was millions of bits long
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["verify", "-"], stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 10.0
    assert code in (EXIT_OK, EXIT_BAD_PARAMS)
    if code == EXIT_BAD_PARAMS:
        assert out == "" and "MAX_SEARCH_WORK" in err


def test_search_just_under_the_work_cap_is_accepted(capsys, monkeypatch):
    # x1^2 - 2 has no rational root, so the search stops at the first level
    # whatever the second equation weighs; the largest k accepted is found
    # by bisection, each refusal being made before any candidate is tried
    def system(k):
        return parse_system_text(f"x1^2 - 2; x2^{k} + x2 - x1")

    def accepted(k):
        try:
            rational_root_search(system(k), 10)
        except ValueError as exc:
            assert "MAX_SEARCH_WORK" in str(exc)
            return False
        return True

    lo, hi = 1, 10**6
    assert accepted(lo) and not accepted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    code, out, _ = run_cli(capsys, ["verify", "-"], stdin_text=f"x1^2 - 2; x2^{lo} + x2 - x1\n",
                           monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert [r["count"] for r in json.loads(out)["rows"] if r["oracle"] == "rational_search"] == [0, 0]
    code, out, err = run_cli(capsys, ["verify", "-"], stdin_text=f"x1^2 - 2; x2^{hi} + x2 - x1\n",
                             monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_BAD_PARAMS, "") and "MAX_SEARCH_WORK" in err


def test_largest_accepted_univariate_degree_and_random_precision_run_in_budget(capsys, monkeypatch):
    # the counter at the degree cap, and the most --random trials the work
    # cap accepts at 1000 digits (1000 trials there took about 13 s)
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, ["verify", "-", "--prime", "3"],
                           stdin_text=f"x1^{MAX_UNIVARIATE_DEGREE} + 1 - 3*x1\n", monkeypatch=monkeypatch)
    assert code == EXIT_OK and json.loads(out)["rows"][0]["oracle"] == "univariate_padic"
    code, _, err = run_cli(capsys, ["verify", "-", "--prime", "3"],
                           stdin_text=f"x1^{MAX_UNIVARIATE_DEGREE + 1} + 1 - 3*x1\n", monkeypatch=monkeypatch)
    assert code == EXIT_BAD_PARAMS and "MAX_UNIVARIATE_DEGREE" in err
    assert time.perf_counter() - t0 < 10.0

    # the work cap weighs the search alone: 1000 trials at 1000 digits pass
    # up to the largest height cap H with 1000 * 2H^2 <= MAX_RANDOM_WORK
    cap = math.isqrt(MAX_RANDOM_WORK // (2 * MAX_RANDOM_TRIALS))
    assert cap == 12
    argv = ["verify", "--random", str(MAX_RANDOM_TRIALS), "--precision", "1000", "--height-cap"]
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, argv + [str(cap)], monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 10.0
    assert code == EXIT_OK and len(json.loads(out)["rows"]) >= MAX_RANDOM_TRIALS
    code, _, err = run_cli(capsys, argv + [str(cap + 1)], monkeypatch=monkeypatch)
    assert code == EXIT_BAD_PARAMS and "MAX_RANDOM_WORK" in err


def _thirty_digit_polynomial(rng, exponents):
    return " + ".join(f"{rng.randint(10**29, 10**30)}*x1^{e}" for e in exponents) + "\n"


_GCD_RNG = random.Random(2001)


@pytest.mark.parametrize(
    "stdin_text",
    [
        _thirty_digit_polynomial(_GCD_RNG, range(201)),
        _thirty_digit_polynomial(_GCD_RNG, [0, 1000] + _GCD_RNG.sample(range(1, 1000), 3)),
    ],
    ids=["dense-degree-200", "5-term-degree-1000"],
)
def test_univariate_gcd_past_its_work_cap_is_refused_in_budget(capsys, monkeypatch, stdin_text):
    # below MAX_UNIVARIATE_DEGREE, these spent 74 s and 45 s in the content
    # gcds of the squarefree reduction's pseudo-remainder sequence
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["verify", "-", "--prime", "3"], stdin_text=stdin_text,
                             monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 10.0
    assert (code, out) == (EXIT_BAD_PARAMS, "") and "MAX_GCD_WORK" in err


def test_univariate_gcd_under_its_work_cap_is_accepted_in_budget(capsys, monkeypatch):
    # a dense degree-300 polynomial with one-digit coefficients weighs about
    # 0.7 MAX_GCD_WORK
    rng = random.Random(2002)
    text = " + ".join(f"{rng.randint(1, 9)}*x1^{i}" for i in range(301)) + "\n"
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, ["verify", "-", "--prime", "3"], stdin_text=text, monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 10.0
    assert code == EXIT_OK and json.loads(out)["rows"][0]["oracle"] == "univariate_padic"


def test_verify_search_count_above_a_bound_is_a_hard_failure(capsys, monkeypatch):
    # the search's roots at k = n are not known to be isolated, and its count
    # still refutes a bound below it: the rows fail, with their dump
    import rootbounds.cli as cli_mod
    from rootbounds.arith import Interval
    from rootbounds.bounds import BoundReport

    monkeypatch.setattr(cli_mod, "local_bound",
                        lambda fs, m, n, k: BoundReport("thm1_local", Interval.exact(0).upper(), 0, {}, ()))
    code, out, _ = run_cli(capsys, ["verify", "-", "--height-cap", "2"],
                           stdin_text="x1^2 - 3*x1 + 2\nx2 - x1\n", monkeypatch=monkeypatch)
    assert code == EXIT_VERIFY_FAILED
    payload = json.loads(out)
    assert payload["all_ok"] is False
    [bad] = [row for row in payload["rows"] if not row["ok"]]
    assert (bad["oracle"], bad["count"], bad["bound_id"], bad["bound"]) == ("rational_search", 2, "thm1_local", 0)
    assert "inconclusive" not in bad and bad["system"]["n"] == 2 and "bound_report" in bad


_FOUR_VARIABLES = "x1 + x2 + x3 + x4 - 1; x1*x2 - x3 + 2; x3 - x4 + x1 + 5; x4*x1 - 3 + x2\n"


@pytest.mark.parametrize("extra", [[], ["--random", "1"]], ids=["alone", "with-random"])
def test_verify_refuses_an_input_that_no_counter_covers(capsys, monkeypatch, extra):
    # this exited 3 as "nothing to verify", and, with --random, exited 0 on
    # the trinomial's rows alone: the input was never checked
    code, out, err = run_cli(capsys, ["verify", "-", "--prime", "3"] + extra,
                             stdin_text=_FOUR_VARIABLES, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: no counter covers this system: n = 4 > 3")


def test_verify_counts_a_square_binomial_system_in_four_variables(capsys, monkeypatch):
    # the one kind of system past 3 variables that a counter covers
    code, out, _ = run_cli(capsys, ["verify", "-", "--prime", "3"],
                           stdin_text="x1^2 - 2; x2 - x1; x3 - 3*x2; x4^3 - x3\n", monkeypatch=monkeypatch)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert rows and {(row["oracle"], row["count"]) for row in rows} == {("snf_binomial", 6)}


@pytest.mark.parametrize("degree", [100, 1000])
def test_verify_binomial_count_above_a_bound_is_inconclusive(capsys, monkeypatch, degree):
    # the Smith count is over (C_2^*)^2 and exceeds the cor2_1 bound, which
    # covers the torus of the field only: the row passes, marked, with no
    # failure dump; a row at or under its bound is unchanged
    code, out, _ = run_cli(capsys, ["verify", "-", "--height-cap", "2"],
                           stdin_text=f"x1^2 - 2\nx2^{degree} - x1\n", monkeypatch=monkeypatch)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_ok"] is True
    snf = {row["bound_id"]: row for row in payload["rows"] if row["oracle"] == "snf_binomial"}
    above = snf["cor2_1"]
    assert above["count"] == 2 * degree > above["bound"]
    assert above["ok"] is True and "(C_2^*)^2" in above["inconclusive"]
    assert "system" not in above and "bound_report" not in above
    under = snf["thm1_local"]
    assert under["count"] <= under["bound"] and "inconclusive" not in under
    assert all("inconclusive" not in row for row in payload["rows"] if row["oracle"] != "snf_binomial")


def test_verify_singular_binomial_system_has_no_smith_row(capsys, monkeypatch):
    # x1*x2 = 2 and (x1*x2)^2 = 3 share no root: the exponent matrix is
    # singular, so there are no isolated roots for the Smith count to count
    code, out, _ = run_cli(capsys, ["verify", "-"], stdin_text="x1*x2 - 2; x1^2*x2^2 - 3\n",
                           monkeypatch=monkeypatch)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert rows and all(row["oracle"] != "snf_binomial" for row in rows)


def test_verify_reports_an_error_of_the_smith_count(capsys, monkeypatch):
    # a refusal of the Smith count on a nonsingular system is no missing row
    # but a refused request
    def boom(*args):
        raise ParamError("boom")

    monkeypatch.setattr("rootbounds.oracle.count_binomial_system", boom)
    code, out, err = run_cli(capsys, ["verify", "-"], stdin_text="x1^2 - 2\nx2^3 - x1\n",
                             monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_BAD_PARAMS, "")
    assert err.startswith("error: ") and "boom" in err


def test_main_leaves_the_callers_precision(capsys, monkeypatch):
    saved = get_precision()
    try:
        set_precision(50)
        code, _, _ = run_cli(capsys, ["bound", "-", "--precision", "80"], stdin_text=_UNI,
                             monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert get_precision() == 50
    finally:
        set_precision(saved)


@pytest.mark.parametrize(
    "stdin_text, height_cap, count",
    [("2*x2 + 2\n", 1, 2), ("1 - x1*x3\n", 3, 196)],
    ids=["x2-line", "x1x3-surface"],
)
def test_verify_underdetermined_count_above_a_bound_is_inconclusive(
    capsys, monkeypatch, stdin_text, height_cap, count
):
    # with k < n every root lies on a positive-dimensional component, so the
    # bound of 0 on isolated roots holds and the rational search's count
    # refutes nothing: the row passes, marked, with no failure dump
    code, out, _ = run_cli(capsys, ["verify", "-", "--prime", "5", "--height-cap", str(height_cap)],
                           stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_ok"] is True
    [row] = payload["rows"]
    assert (row["oracle"], row["count"], row["bound"]) == ("rational_search", count, 0)
    assert row["ok"] is True and "k = 1 < n" in row["inconclusive"]
    assert "system" not in row and "bound_report" not in row


@pytest.mark.parametrize(
    "stdin_text",
    ["1 + x3*x3; 1 + 3*x3*x3; 1 + 9*x3*x3\n", "1; 1 + x3*x3; 1 + 3*x3*x3\n"],
    ids=["three-binomials", "with-a-constant"],
)
def test_bound_on_supports_below_full_dimension_is_not_refused(capsys, monkeypatch, stdin_text):
    # the lower facets of a lift whose support spans fewer than n dimensions
    # can outnumber the cap on valuation vectors of isolated roots, which
    # such a system has none of
    code, out, err = run_cli(capsys, ["bound", "-", "--prime", "3"], stdin_text=stdin_text,
                             monkeypatch=monkeypatch)
    assert (code, err) == (EXIT_OK, "")
    bounds = {b["formula_id"]: b["integer_bound"] for b in json.loads(out)["bounds"]}
    assert bounds == {"thm1_local": 0, "cor2_1": 0}
