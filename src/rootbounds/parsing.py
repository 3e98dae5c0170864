"""Both forms of a sparse polynomial system, read and written here alone.

Text: one polynomial per line (or semicolon-separated): integers, rationals
like 3/4, variables x1..xn, +, -, *, ^ with integer exponents, and
parentheses, e.g. ``3*x1^10 + x1^2 - 4``; exponents may be negative on
monomial bases, giving Laurent terms.  JSON: {"n": ..., "polynomials":
[[{"exp": [...], "coeff": "num/den"}, ...], ...]}, as
:func:`system_to_json_obj` writes it.  :func:`parse_system` reads either,
by the leading ``{``, and sums each polynomial's terms in the one
accumulator, ``newton.collect_terms``, so a repeated exponent vector adds up
in both forms.  A monomial base is raised to its power in one step; a power
whose coefficient would exceed about MAX_POWER_BITS bits is refused, as is a
JSON coefficient whose decimal exponent would.  A base of several terms is
multiplied out, and refused before any product when the estimated work
exceeds MAX_POWER_WORK.  A variable count above MAX_VARS, the text's largest
index or the JSON form's n, is refused before any exponent tuple is built,
and parentheses and unary minus signs nested past MAX_NESTING before they
exhaust the stack.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .arith import format_rational
from .errors import InputError, ParseError
from .newton import SparsePolynomial, SparseSystem, collect_terms

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[-+*^();]))"
)


# Cap on the size of c^k for a monomial c*x^e raised to k: the power is
# taken in one step, so without it one exponent could allocate gigabytes.
MAX_POWER_BITS = 10**6

# Cap on the decimal exponent of a JSON coefficient such as "1e300", for the
# same reason: Fraction builds 10^|e| in full, which has at most
# MAX_POWER_BITS bits at the cap, 301029.
MAX_COEFF_EXPONENT = int(MAX_POWER_BITS * math.log10(2))

# Cap on raising a base of m >= 2 terms to the power k by k products: they
# make at most k*comb(k+m-1, m-1) term products, each on coefficients of up
# to about k*(b + log2 m) bits when the base coefficients have b bits, and
# the estimate counts one product per started 4096 bits.  10^5 units take
# under a second, e.g. (x1 + 1)^300 or (x1 + x2 + x3 + 1)^25.
MAX_POWER_WORK = 10**5

# Cap on the number of variables: every term is an n-tuple of exponents, and
# n is the largest index in the text, so one token such as x1000000000 would
# otherwise allocate gigabytes.  Hulls stop at ambient dimension 6 anyway.
MAX_VARS = 100

# Cap on the open parentheses and unary minus signs around one atom: each
# level costs the recursive descent two to four stack frames.
MAX_NESTING = 100


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ParseError(f"an integer of {len(digits)} digits is too long to read") from None


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


Poly = dict[tuple[int, ...], Fraction]


def _check_vars(n: int, error: type[InputError]) -> None:
    """Refuse n past MAX_VARS before an exponent tuple of length n is built."""
    if n > MAX_VARS:
        raise error(f"{n} variables exceed the cap of {MAX_VARS}")


def _pneg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    return collect_terms((tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                         for ea, ca in a.items() for eb, cb in b.items())


def _monomial_power(term: Poly, k: int) -> Poly:
    """(c*x^e)^k = c^k*x^(k*e) for any integer k; 0^0 is 1 and 0^k cancels
    for k > 0, as repeated multiplication gives."""
    ((e, c),) = term.items()
    if c == 0 and k < 0:
        raise ParseError("zero raised to a negative power")
    if abs(k) * (max(abs(c.numerator), c.denominator).bit_length() - 1) > MAX_POWER_BITS:
        raise ParseError(f"coefficient power {c}^{k} exceeds {MAX_POWER_BITS} bits")
    ck = c**k
    return {tuple(x * k for x in e): ck} if ck else {}


def _check_power_work(base: Poly, k: int) -> None:
    m = len(base)
    bits = max(max(abs(c.numerator), c.denominator).bit_length() for c in base.values())
    # the first test keeps comb() off an exponent with thousands of digits
    if k > MAX_POWER_WORK or (
        k * math.comb(k + m - 1, m - 1) * (1 + k * (bits + m.bit_length()) // 4096)
        > MAX_POWER_WORK
    ):
        raise ParseError(f"power of a {m}-term base exceeds the work cap {MAX_POWER_WORK}")


class _Parser:
    def __init__(self, tokens: list[str], n: int):
        _check_vars(n, ParseError)
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> Poly:
        op = self.take() if self.peek() == "-" else "+"
        terms = []
        while True:
            term = self.parse_term()
            terms += (_pneg(term) if op == "-" else term).items()
            if self.peek() not in ("+", "-"):
                return collect_terms(terms)
            op = self.take()

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while self.peek() == "*":
            self.take()
            acc = _pmul(acc, self.parse_factor())
        return acc

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.take()
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer exponent, got {tok!r}")
        k = sign * _integer(tok)
        if len(base) == 1:
            return _monomial_power(base, k)
        if k < 0:
            raise ParseError("negative exponents are only supported on monomials")
        out = {tuple([0] * self.n): Fraction(1)}
        if not base:  # a cancelled base: 0^0 = 1 and 0^k = 0
            return {} if k else out
        _check_power_work(base, k)
        for _ in range(k):
            out = _pmul(out, base)
        return out

    def parse_atom(self) -> Poly:
        tok = self.take()
        if tok in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting past the cap {MAX_NESTING} (MAX_NESTING)")
            if tok == "(":
                inner = self.parse_expr()
                self.expect(")")
            else:
                inner = _pneg(self.parse_factor())
            self.depth -= 1
            return inner
        if tok.startswith("x"):
            idx = _integer(tok[1:])
            if not 1 <= idx <= self.n:
                raise ParseError(f"variable {tok} out of range 1..{self.n}")
            e = tuple(1 if i == idx - 1 else 0 for i in range(self.n))
            return {e: Fraction(1)}
        if not tok[0].isdigit():  # an operator where an atom belongs
            raise ParseError(f"expected a number, a variable or '(', got {tok!r}")
        num, _, den = tok.partition("/")
        denominator = _integer(den or "1")
        if not denominator:
            raise ParseError(f"zero denominator in {tok}")
        return {tuple([0] * self.n): Fraction(_integer(num), denominator)}


def _polynomial(poly: Poly) -> SparsePolynomial:
    if not poly:
        raise ParseError("polynomial cancelled to zero")
    return SparsePolynomial.from_dict(poly)


def parse_polynomial_text(text: str, n: int) -> SparsePolynomial:
    parser = _Parser(_tokenize(text), n)
    poly = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input from token {parser.peek()!r}")
    return _polynomial(poly)


def parse_system_text(text: str) -> SparseSystem:
    chunks = [
        chunk.strip()
        for line in text.splitlines()
        for chunk in line.split(";")
        if chunk.strip()
    ]
    if not chunks:
        raise ParseError("no polynomials in input")
    indices = [_integer(v[1:]) for v in re.findall(r"x\d+", text)]
    n = max(indices) if indices else 1
    return SparseSystem.of([parse_polynomial_text(c, n) for c in chunks])


def parse_system(text: str) -> SparseSystem:
    """The system in the JSON form when the text starts with ``{``, else in
    the text form."""
    if not text.lstrip().startswith("{"):
        return parse_system_text(text)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a nesting too deep included
        raise InputError(str(exc)) from None
    n = _json_int(obj.get("n"))
    if n < 1:
        raise InputError(f"a system needs n >= 1 variables, got n = {n}")
    _check_vars(n, InputError)
    polys = obj.get("polynomials")
    if not polys or not isinstance(polys, list) or not all(isinstance(t, list) for t in polys):
        raise InputError("expected polynomials as a nonempty JSON list of lists of terms")
    return SparseSystem(tuple(_polynomial(collect_terms(_json_term(t, n) for t in terms))
                              for terms in polys), n)


def system_to_json_obj(system: SparseSystem) -> dict:
    """The JSON form of the system, which :func:`parse_system` reads back."""
    return {"n": system.n, "polynomials": [
        [{"exp": list(e), "coeff": format_rational(c)} for e, c in f.terms]
        for f in system.polynomials]}


def _json_term(t: object, n: int) -> tuple[tuple[int, ...], Fraction]:
    """The exponent and coefficient of {"exp": [n JSON integers], "coeff": a rational};
    a coefficient in exponent notation past MAX_COEFF_EXPONENT is refused
    before ``Fraction`` builds its power of ten."""
    exp = t.get("exp") if isinstance(t, dict) else None
    if not isinstance(exp, list) or len(exp) != n:
        raise InputError(f"expected a term with a list of n = {n} exponents, got {t!r}")
    exp = tuple(map(_json_int, exp))
    try:
        text = str(t["coeff"])
        _mantissa, e, power = text.strip().lower().rpartition("e")
        if e and abs(int(power)) > MAX_COEFF_EXPONENT:
            raise InputError(f"a coefficient's decimal exponent exceeds the cap "
                             f"{MAX_COEFF_EXPONENT} (MAX_COEFF_EXPONENT), got {text[:40]!r}")
        return exp, Fraction(text)
    except InputError:
        raise
    except (KeyError, ValueError, ZeroDivisionError):
        raise InputError(f"expected a term with a rational coefficient, got {t!r}") from None


def _json_int(x: object) -> int:
    """x if it is a JSON integer; a float such as 1.5 or 1e999, a bool or a
    string is refused rather than truncated or converted."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected a JSON integer, got {x!r}")
    return x
