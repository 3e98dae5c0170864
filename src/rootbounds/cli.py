"""Command-line front end: bounds, facet data, and oracle verification.

Systems are read from a file path or standard input, in either form that
``parsing.parse_system`` reads: the JSON schema or the terse text format.
``verify`` rows pair the counts of ``oracle.verification_counts`` with the
bounds, and ``oracle.verdict`` decides each.  Exit codes: 0 success, 1 verification
failure, else the ``exit_code`` of the ``errors`` class raised (2 input, 3
parameters, 4 self-check); any other exception is a bug, and exits 4 with
``internal: <type>: <message>`` and no traceback.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import arith
from .arith import format_rational
from .binomials import expansion_coeffs, lcm_profile
from .bounds import (
    BoundReport,
    GlobalField,
    LocalField,
    affine_bound,
    global_bound,
    global_facet_sum_bound,
    local_bound,
    local_facet_bound,
)
from .errors import InputError, InternalError, ParamError, RootboundsError
from .newton import SparsePolynomial, SparseSystem, newton_data
from .oracle import reduce_to_square, verdict, verification_counts
from .parsing import parse_system, system_to_json_obj
from .polyhedra import lower_facets  # noqa: F401  (unused; bench/spans.py traces this binding)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = InputError.exit_code
EXIT_BAD_PARAMS = ParamError.exit_code
EXIT_INTERNAL = InternalError.exit_code

# Caps on verify --random N: on N, and on its work, N times the at most 2H^2
# candidates the rational search of each trial tries at height cap H (one
# unit is about 2.5 us of search).  The precision is no per-trial cost: every
# trial is a trinomial with the same bound formulas, whose intervals are
# memoised per precision (arith._per_precision), so only the first trial
# evaluates them, 0.12 s at 1000 digits, log table included.  A trial then
# takes about 0.5 ms at the defaults (cap 10, 40 digits), 0.9 ms at cap 12
# and 30 ms at the cap 100, at any precision: the 1000 trials at cap 12 take
# about 0.9 s (Python 3.11 on a shared 2-vCPU machine).
MAX_RANDOM_TRIALS = 1000
MAX_RANDOM_WORK = MAX_RANDOM_TRIALS * 300


def _read_input(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from None


def _load_system(args: argparse.Namespace) -> SparseSystem:
    text = _read_input(args.input)
    try:
        return parse_system(text)
    except InputError as exc:
        raise InputError(f"could not parse the input system: {exc}") from None


def _field(args: argparse.Namespace) -> LocalField | GlobalField:
    """The field of --global/--d/--delta, or of --prime/--e/--f, where an
    explicit --d must agree with e*f."""
    if getattr(args, "global_case", False):
        return GlobalField(args.d, args.delta)
    fs = LocalField(args.prime, args.e, args.f)
    if args.d is not None and args.d != fs.d:
        raise ParamError("local degree must equal e*f; no factorization is guessed")
    return fs


def _reports(system: SparseSystem, fs: LocalField | GlobalField) -> list[BoundReport]:
    """The field's headline bound, then its facet refinement when k >= n."""
    headline, refinement = (
        (local_bound, local_facet_bound) if isinstance(fs, LocalField)
        else (global_bound, global_facet_sum_bound)
    )
    reports = [headline(fs, system.m, system.n, system.k)]
    if system.k >= system.n:
        reports.append(refinement(system, fs))
    return reports


def _emit(payload: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    else:
        lines = _text_lines(payload, indent=0)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`rootbounds facets ... | head -1`): the
        # command's exit code stands, and stdout is pointed at devnull so
        # that the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _text_lines(obj, indent: int):
    """The lines of a payload, a dict, and of the dicts and lists it nests."""
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:"
                yield from _text_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {value}"
    else:
        for value in obj:
            if isinstance(value, (dict, list)):
                yield from _text_lines(value, indent + 1)
            else:
                yield f"{pad}- {value}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bound(args: argparse.Namespace) -> int:
    system = _load_system(args)
    fs = _field(args)
    if args.global_case and args.prime != 2:
        print("note: global bounds embed through the 2-adics; --prime is ignored",
              file=sys.stderr)
    m, n, k = system.m, system.n, system.k
    reports = _reports(system, fs)
    if args.affine:
        reports.append(affine_bound(fs, m, n, k))
    payload = {
        "system": {"m": m, "n": n, "k": k},
        "bounds": [r.to_json_obj() for r in reports],
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_facets(args: argparse.Namespace) -> int:
    system = _load_system(args)
    if any(f.m == 1 for f in system.polynomials):
        raise ParamError("a one-term equation has no torus roots; the lift is a single point")
    p = args.prime
    notes = []
    data = square = newton_data(system, p)
    if system.k > system.n:
        square = newton_data(reduce_to_square(system, args.seed), p)
        notes.append(
            "overdetermined input replaced by a seeded random square reduction; "
            "multiplicities are not tracked through it"
        )
    bounds = square.face_bounds()
    payload = {
        "prime": p,
        "facet_count": len(data.facets),
        "lower_facets": [
            {"normal": [format_rational(x) for x in normal], "vertices": facet.to_json_obj()}
            for normal, facet in data.facets
        ],
        "candidate_valuations": [
            [format_rational(x) for x in r] for r, _bound in bounds
        ],
        "face_bounds": [
            {"r": [format_rational(x) for x in r], "bound": bound}
            for r, bound in bounds
        ],
        "notes": notes,
    }
    _emit(payload, args)
    return EXIT_OK


def _verify_rows(
    system: SparseSystem, args: argparse.Namespace, fs: LocalField | GlobalField
) -> list[dict]:
    """A row per pair of an oracle count and a bound, decided by oracle.verdict."""
    bounds = _reports(system, fs)
    rows = []
    for rc in verification_counts(system, args.prime, args.height_cap):
        for rep in bounds:
            inconclusive = verdict(rc, rep.integer_bound, system)
            row = {
                "oracle": rc.method,
                "region": rc.region,
                "count": rc.count,
                "bound_id": rep.formula_id,
                "bound": rep.integer_bound,
                "ok": rc.count <= rep.integer_bound or inconclusive is not None,
            }
            if inconclusive is not None:
                row["inconclusive"] = inconclusive
            elif not row["ok"]:
                # violations carry the full instance for the failure dump
                row["system"] = system_to_json_obj(system)
                row["bound_report"] = rep.to_json_obj()
            rows.append(row)
    return rows


def _random_trinomial(rng) -> SparsePolynomial:
    # three distinct exponents with nonzero coefficients: always three terms
    terms = {}
    while len(terms) < 3:
        e = rng.randint(0, 30)
        c = rng.randint(-50, 50)
        if c:
            terms[(e,)] = Fraction(c)
    return SparsePolynomial.from_dict(terms)


def cmd_verify(args: argparse.Namespace) -> int:
    trials = args.random_trials
    work = trials * 2 * args.height_cap**2
    if not 0 <= trials <= MAX_RANDOM_TRIALS:
        raise ParamError(f"--random takes 0 to {MAX_RANDOM_TRIALS} trials, got {trials}")
    if work > MAX_RANDOM_WORK:
        raise ParamError(
            f"--random {trials} at --height-cap {args.height_cap} weighs {work} "
            f"(2 * height-cap^2 candidate roots per trial), above the cap "
            f"{MAX_RANDOM_WORK} (MAX_RANDOM_WORK)"
        )
    fs = _field(args)
    rows = []
    if args.input is not None:
        rows.extend(_verify_rows(_load_system(args), args, fs))
    if trials:
        rng = random.Random(args.seed)
        for _ in range(trials):
            rows.extend(_verify_rows(SparseSystem.of([_random_trinomial(rng)]), args, fs))
    if not rows:
        raise ParamError("nothing to verify: give an input system or --random N")
    ok = all(row["ok"] for row in rows)
    payload = {"rows": rows, "all_ok": ok}
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_binom(args: argparse.Namespace) -> int:
    m, t = args.m, args.t
    # the expansion runs first, so that its caps refuse a request before the
    # lcm profile is computed
    expansion = None
    if args.support:
        try:
            support = tuple(int(x) for x in args.support.split(","))
        except ValueError:
            raise ParamError("--support takes comma-separated integers") from None
        expansion = expansion_coeffs(support, t)
    payload: dict = {"m": m, "t": t, "lcm_profile": str(lcm_profile(m, t))}
    if expansion is not None:
        payload["expansion"] = {
            "support": list(expansion.support),
            "coefficients": [format_rational(c) for c in expansion.coefficients],
        }
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="rootbounds",
        description="Root bounds for sparse polynomial systems over p-adic "
        "fields and number fields, with exact verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "input": dict(nargs="?", default=None, help="system file or - for stdin"),
        "--prime": dict(type=int, default=2),
        "--e": dict(type=int, default=1),
        "--f": dict(type=int, default=1),
        "--d": dict(type=int, default=None),
        "--delta": dict(type=int, default=1),
        "--global": dict(dest="global_case", action="store_true"),
        "--affine": dict(action="store_true", help="add the off-torus variant"),
        "--height-cap": dict(type=int, default=10),
        "--precision": dict(type=int, default=arith.DEFAULT_DIGITS),
        "--seed": dict(type=int, default=0),
        "--random": dict(type=int, default=0, dest="random_trials",
                         help="additionally verify N seeded random trinomials "
                         f"(0 <= N <= {MAX_RANDOM_TRIALS})"),
        "--m": dict(type=int, required=True),
        "--t": dict(type=int, required=True),
        "--support": dict(default=None, help="comma-separated integers; write a "
                          "support that starts with a minus sign as --support=-3,1"),
        "--format": dict(choices=("json", "text"), default="json"),
    }
    # each subcommand declares only the flags it reads, and no abbreviation
    # stands in for one it lacks (--f for --format in facets)
    for name, summary, flags in (
        ("bound", "closed-form bound reports for a system",
         "input --prime --e --f --d --delta --global --affine --precision --format"),
        ("facets", "lower facets, candidate valuations, face bounds",
         "input --prime --seed --format"),
        ("verify", "oracle counts vs bounds, pass/fail per row",
         "input --prime --e --f --d --height-cap --precision --seed --random --format"),
        ("binom", "lcm profiles and binomial-basis expansions", "--m --t --support --format"),
    ):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **options[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # in a copy of the caller's context: the precision a command sets ends with it
    return contextvars.copy_context().run(_run, args)


def _run(args: argparse.Namespace) -> int:
    # looked up per call, so that a rebound cmd_* (a tracer's) is the one run
    commands = {"bound": cmd_bound, "facets": cmd_facets, "verify": cmd_verify, "binom": cmd_binom}
    try:
        if "precision" in args:
            arith.set_precision(args.precision)
        if "prime" in args and not arith.is_prime(args.prime):
            raise ParamError(f"--prime {args.prime} is not prime")
        return commands[args.command](args)
    except RootboundsError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a bug, which no other exit code may hide
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
