"""The package names that the benchmark's outside-in tracer wraps.

``bench/spans.py`` replaces every function named in its ``WRAPPED`` table,
and ``bench/test_bench.py`` checks the by-name rebinds below; both live
outside the tier-1 suite, so a deleted or renamed public function would only
show up there.  This test reads the table from ``bench/spans.py`` without
changing anything under ``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# (module, name, defining module): names bound by import from another
# module, which the tracer patches as well as the definition
REBINDS = [
    ("cli", "lower_facets", "polyhedra"),
    ("newton", "mixed_volume", "polyhedra"),
    ("polyhedra", "det", "linalg"),
]


def _wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    missing = []
    for mod, names in wrapped.items():
        module = importlib.import_module(f"rootbounds.{mod}")
        missing += [f"{mod}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert missing == []
    for mod, name, source in REBINDS:
        module = importlib.import_module(f"rootbounds.{mod}")
        original = getattr(importlib.import_module(f"rootbounds.{source}"), name)
        assert vars(module).get(name) is original, f"rootbounds.{mod} no longer binds {name}"
