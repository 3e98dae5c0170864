"""Outside-in tracing of the rootbounds layers.

:class:`Tracer` replaces each function in :data:`WRAPPED` by a timing
wrapper, in its defining module and in every ``rootbounds`` module that
imported it by name (``newton.mixed_volume``, ``cli.lower_facets`` and
``polyhedra.det`` are such rebinds), so calls inside a module go through the
patched global.  Each call becomes a span (id, parent id, request id,
function, start, end) kept in memory; self time is the span's duration minus
the time of the wrapped spans directly inside it.  :meth:`Tracer.restore`
puts every original binding back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from fractions import Fraction
from time import perf_counter

WRAPPED: dict[str, tuple[str, ...]] = {
    "cli": ("cmd_bound", "cmd_facets", "cmd_verify"),
    "parsing": ("parse_system_text",),
    "bounds": (
        "local_bound",
        "global_bound",
        "local_facet_bound",
        "global_facet_sum_bound",
        "affine_bound",
        "cp_bound",
        "cp_bound_per_equation",
        "log_inequality_check",
    ),
    "newton": (
        "newton_polytope",
        "system_polytope",
        "facet_count",
        "candidate_valuations",
        "valuation_face_bound",
        "containment_check",
        "shift_polynomial",
    ),
    "polyhedra": ("convex_hull", "minkowski_sum", "lower_facets", "mixed_volume", "face", "project_pi"),
    "linalg": ("mat_rank", "det", "solve_square", "gram_solve", "nonneg_solution_exists"),
    "arith": ("natural_log", "log_base", "euler_ratio", "ord_p_value"),
    "oracle": ("count_univariate_padic", "count_binomial_system", "rational_root_search", "reduce_to_square"),
}

NAMES: tuple[str, ...] = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
_INDEX = {name: i for i, name in enumerate(NAMES)}
_CANDIDATES = _INDEX["newton.candidate_valuations"]

def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer was not exercised."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.request = -1
        self.points_in = 0
        self.vertices_out = 0
        self.mv_vertices_in = 0
        self.facets_examined = 0
        self.candidates_kept = 0
        self.log_keys: set = set()
        self.univariate_terms = 0
        self.univariate_width = 0
        # open spans: [span id, function index, time of wrapped children]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._arith = None

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        """Wrap every function of WRAPPED wherever rootbounds binds it."""
        import rootbounds  # noqa: F401  (imports every layer)

        self._arith = sys.modules["rootbounds.arith"]
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rootbounds" or name.startswith("rootbounds."))
        ]
        for name in NAMES:
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"rootbounds.{mod}"], fn)
            wrapper = self._wrap(_INDEX[name], original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, idx: int, fn):
        observe = getattr(self, "_observe_" + NAMES[idx].replace(".", "_"), None)
        materialise = NAMES[idx] in ("polyhedra.convex_hull", "polyhedra.mixed_volume")
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialise:
                args = (list(args[0]),) + args[1:]
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.spans.append((sid, parent, self.request, idx, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- size and ratio counters ---------------------------------------------

    def _observe_polyhedra_convex_hull(self, args, result) -> None:
        self.points_in += len(args[0])
        self.vertices_out += len(result.vertices)

    def _observe_polyhedra_mixed_volume(self, args, result) -> None:
        self.mv_vertices_in += sum(len(p.vertices) for p in args[0])

    def _observe_polyhedra_lower_facets(self, args, result) -> None:
        if any(frame[1] == _CANDIDATES for frame in self._stack):
            self.facets_examined += len(result)

    def _observe_newton_candidate_valuations(self, args, result) -> None:
        self.candidates_kept += len(result)

    def _observe_arith_natural_log(self, args, result) -> None:
        x = args[0]
        key = (x.lo, x.hi) if hasattr(x, "lo") else Fraction(x)
        self.log_keys.add((key, self._arith.get_precision()))

    def _observe_oracle_count_univariate_padic(self, args, result) -> None:
        exps = [e[0] for e, _ in args[0].terms]
        self.univariate_terms += len(exps)
        self.univariate_width += max(exps) - min(exps) + 1

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, per-layer self time, and the
        size and ratio counters; each as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        layer_s = {mod: 0.0 for mod in WRAPPED}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_ms"] = (self.self_s[i] * 1e3, "ms")
            layer_s[name.split(".")[0]] += self.self_s[i]
        for mod, s in layer_s.items():
            out[f"{mod}.self_ms"] = (s * 1e3, "ms")
        log_calls = self.calls[_INDEX["arith.natural_log"]]
        out.update({
            "polyhedra.convex_hull.points_in": (self.points_in, "count"),
            "polyhedra.convex_hull.vertices_out": (self.vertices_out, "count"),
            "polyhedra.convex_hull.kept_ratio": (_ratio(self.vertices_out, self.points_in), "ratio"),
            "polyhedra.mixed_volume.vertices_in": (self.mv_vertices_in, "count"),
            "newton.candidate_valuations.accept_ratio": (_ratio(self.candidates_kept, self.facets_examined), "ratio"),
            "arith.natural_log.distinct_ratio": (_ratio(len(self.log_keys), log_calls), "ratio"),
            "oracle.count_univariate_padic.sparsity": (_ratio(self.univariate_terms, self.univariate_width), "ratio"),
        })
        return out

    def requests_calling(self, names) -> set[int]:
        """Request ids with at least one span of one of the named functions."""
        hit = {_INDEX[name] for name in names}
        return {req for _sid, _parent, req, idx, _s, _e in self.spans if idx in hit}

    def write_spans(self, path) -> None:
        """Gzipped, one JSON array per line: [id, parent, request, name,
        start, end], times in seconds of time.perf_counter."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, req, idx, start, end in self.spans:
                fh.write(json.dumps([sid, parent, req, NAMES[idx], round(start, 9), round(end, 9)]))
                fh.write("\n")
