"""Property: any text system or JSON document on stdin ends in a documented
exit code.

Hypothesis draws systems from the text grammar (rationals including 1/0,
out-of-range variables such as x101, negative and huge exponents,
parentheses, ``;``), systems under up to MAX_NESTING + 1 levels of
parentheses and unary minus signs, and JSON documents (wrong types,
non-integers, missing keys) and feeds each to ``bound``, ``facets`` and
``verify``.  ``main()`` must return 0 to 3 without raising, never 4 (a bug),
and 1 only with ``"all_ok": false``.  A second property reads well-formed
JSON documents, repeated exponent vectors included, against their text
renderings: both forms must give one system, or one refusal.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, event, given, settings, strategies as st

from rootbounds.cli import EXIT_BAD_PARAMS, EXIT_INTERNAL, EXIT_OK, EXIT_PARSE_ERROR, EXIT_VERIFY_FAILED, main
from rootbounds.errors import InputError
from rootbounds.parsing import MAX_NESTING, parse_system, parse_system_text

# tokens of a well-formed system, and the same plus zero denominators,
# variables out of range and exponents past the caps; a third of the systems
# draw from the second pool, so that most reach the bounds and the oracles
_CLEAN = {
    "number": ["1", "2", "3", "7", "1/2", "3/4", "5/3", "1/1099511627776"],
    "exponent": ["", "0", "1", "2", "3", "5", "-1", "-3", "40"],
    "variable": ["x1", "x2", "x3"],
    "power": ["2", "3", "-1", "0"],
}
_WILD = {
    "number": _CLEAN["number"] + ["0", "1/0", "0/5", "123456789012345678901234567890"],
    "exponent": _CLEAN["exponent"] + ["2000", "2001", "1000000", "100000000000000000000"],
    "variable": _CLEAN["variable"] + ["x101", "x0"],
    "power": _CLEAN["power"] + ["30", "2000"],
}


@st.composite
def _monomial(draw, tokens):
    parts = []
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(tokens["number"])))
    for var in draw(st.lists(st.sampled_from(tokens["variable"]), max_size=2)):
        exponent = draw(st.sampled_from(tokens["exponent"]))
        parts.append(f"{var}^{exponent}" if exponent else var)
    return "*".join(parts) or draw(st.sampled_from(tokens["number"]))


@st.composite
def _polynomial(draw, tokens, depth=1):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if depth and draw(st.integers(0, 5)) == 0:
            term = f"({draw(_polynomial(tokens, depth=0))})"
            if draw(st.booleans()):
                term += "^" + draw(st.sampled_from(tokens["power"]))
        else:
            term = draw(_monomial(tokens))
        terms.append(term)
    text = ("-" if draw(st.booleans()) else "") + terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + term
    return text


@st.composite
def _text_system(draw):
    tokens = _WILD if draw(st.integers(0, 2)) == 0 else _CLEAN
    polys = draw(st.lists(_polynomial(tokens), min_size=1, max_size=3))
    return draw(st.sampled_from(["\n", "; ", ";"])).join(polys) + "\n"


@st.composite
def _nested_system(draw):
    # levels of "(" and "-" around one polynomial, up to one past the cap; a
    # "-" that opens an expression signs it and is no level of nesting
    opens = draw(st.lists(st.sampled_from(["(", "(", "-"]), max_size=MAX_NESTING + 1))
    if draw(st.booleans()):
        opens = ["("] * draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 1))
    body = draw(_polynomial(_CLEAN, depth=0))
    return "".join(opens) + body + ")" * opens.count("(") + "\n"


_JSON_SCALARS = st.one_of(
    st.integers(-3, 4),
    st.sampled_from([1.5, 2.0, 1e999, -1e999, True, None, "1", "x", [], {}, 10**30]),
)
_JSON_COEFFS = st.one_of(st.sampled_from(["1", "-2", "3/4", "1/0", "0", "x", "", 1, 2.5, None]),
                         _JSON_SCALARS)


@st.composite
def _json_term(draw, n):
    # each key is left out one time in ten; an exponent list mostly has the
    # declared length n
    term = {}
    if draw(st.integers(0, 9)):
        fits = type(n) is int and 0 <= n <= 3 and draw(st.integers(0, 4))
        size = n if fits else draw(st.integers(0, 3))
        term["exp"] = draw(st.one_of(st.lists(st.integers(-2, 5), min_size=size, max_size=size),
                                     st.lists(_JSON_SCALARS, max_size=3), _JSON_SCALARS))
    if draw(st.integers(0, 9)):
        term["coeff"] = draw(_JSON_COEFFS)
    return term


@st.composite
def _json_system(draw):
    doc = {}
    n = draw(_JSON_SCALARS)
    if draw(st.integers(0, 9)):
        doc["n"] = n
    if draw(st.integers(0, 9)):
        doc["polynomials"] = draw(st.one_of(
            st.lists(st.lists(_json_term(n), max_size=3), max_size=3),
            st.lists(_JSON_SCALARS, max_size=2),
            _JSON_SCALARS,
        ))
    return json.dumps(doc)


_ARGV = st.one_of(
    st.builds(lambda p: ["bound", "-", "--prime", p], st.sampled_from(["2", "3", "5"])),
    st.builds(lambda p: ["facets", "-", "--prime", p], st.sampled_from(["2", "3", "5"])),
    st.builds(lambda p, h: ["verify", "-", "--prime", p, "--height-cap", h],
              st.sampled_from(["2", "3", "5"]), st.sampled_from(["1", "2", "3"])),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=1100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(argv=_ARGV, stdin_text=st.one_of(_text_system(), _nested_system(), _json_system()))
def test_any_system_text_or_json_ends_in_a_documented_exit_code(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "json"])
    finally:
        sys.stdin = saved_stdin
    event(f"{argv[0]} exit {code}")
    assert code != EXIT_INTERNAL, err.getvalue()
    if set(stdin_text.rstrip()[:MAX_NESTING + 1]) == {"("}:
        event("parentheses past MAX_NESTING")
        assert code == EXIT_PARSE_ERROR and "MAX_NESTING" in err.getvalue()
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_PARSE_ERROR, EXIT_BAD_PARAMS), (code, err.getvalue())
    if code in (EXIT_OK, EXIT_VERIFY_FAILED):
        payload = json.loads(out.getvalue())
        if argv[0] == "verify":
            assert payload["all_ok"] is (code == EXIT_OK)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@st.composite
def _json_and_text(draw):
    # small exponents so that exponent vectors repeat; every term names every
    # variable, so that the text form infers the document's n
    n = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(-1, 2), min_size=n, max_size=n)
    term = st.tuples(st.integers(-6, 6), st.integers(1, 4), exponents)
    polys = draw(st.lists(st.lists(term, min_size=1, max_size=5), min_size=1, max_size=3))
    doc = {"n": n, "polynomials": [
        [{"exp": e, "coeff": num if den == 1 and draw(st.booleans()) else f"{num}/{den}"}
         for num, den, e in terms] for terms in polys]}
    text = "\n".join(
        " + ".join(f"({num}/{den})*" + "*".join(f"x{i + 1}^{a}" for i, a in enumerate(e))
                   for num, den, e in terms)
        for terms in polys)
    return json.dumps(doc), text


def _read(reader, text):
    try:
        return reader(text)
    except InputError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_json_and_text())
def test_json_and_text_forms_read_to_one_system(pair):
    doc, text = pair
    polys = json.loads(doc)["polynomials"]
    event(f"repeated exponent vector: {any(len({tuple(t['exp']) for t in f}) < len(f) for f in polys)}")
    system = _read(parse_system, doc)
    event("refused" if isinstance(system, tuple) else "read")
    assert system == _read(parse_system_text, text)
