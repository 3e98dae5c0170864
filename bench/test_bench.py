"""Self-checks of the benchmark: corpus determinism, the outside-in
wrappers, and the layer profile of each workload from a short traced run.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

run._rootbounds()

ORACLE_COUNTERS = (
    "oracle.count_univariate_padic",
    "oracle.count_binomial_system",
    "oracle.rational_root_search",
)


def _corpus_bytes(workload: str, seed: int) -> bytes:
    return "\n".join(corpus.request_key(r) for r in corpus.sequence(workload, seed)).encode()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus_other_seed_other_corpus(workload):
    first = _corpus_bytes(workload, 7)
    assert first == _corpus_bytes(workload, 7)
    assert first != _corpus_bytes(workload, 8)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_a_run_never_repeats_a_request(workload):
    keys = [corpus.request_key(r) for r in corpus.sequence(workload, 3)]
    assert len(keys) == len(set(keys)) == sum(len(v) for v in corpus.pool(workload).values())


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "rootbounds" or name.startswith("rootbounds.")
        for attr, value in vars(mod).items()
    }


def test_wrappers_patch_rebinds_and_restore_every_original():
    before = _bindings()
    with spans.Tracer():
        during = _bindings()
        for mod, attr in [("newton", "mixed_volume"), ("cli", "lower_facets"), ("polyhedra", "det"), ("linalg", "det")]:
            key = (f"rootbounds.{mod}", attr)
            assert during[key] is not before[key]
            assert during[key].__wrapped__ is before[key]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _short_trace(workload: str, seed: int = 5):
    pins = run.pins_by_key(workload)
    tally, tracer, traced_ids, _overhead = run.traced_run(workload, seed, run.trace_blocks(workload, 0), pins)
    assert tally.unexpected == 0, tally.failures
    assert traced_ids
    return tracer, traced_ids


def _calls(tracer: spans.Tracer, prefix: str) -> int:
    return sum(n for name, n in zip(spans.NAMES, tracer.calls) if name.startswith(prefix))


def test_nearone_sweep_makes_no_polyhedra_calls():
    tracer, _ids = _short_trace("nearone-sweep")
    assert _calls(tracer, "arith.natural_log") > 0
    assert _calls(tracer, "polyhedra.") == 0


def test_facets_square_makes_no_natural_log_calls():
    tracer, _ids = _short_trace("facets-square")
    assert _calls(tracer, "polyhedra.mixed_volume") > 0
    assert _calls(tracer, "arith.natural_log") == 0


def test_bound_mix_makes_no_mixed_volume_calls():
    tracer, _ids = _short_trace("bound-mix")
    assert _calls(tracer, "polyhedra.convex_hull") > 0
    assert _calls(tracer, "polyhedra.mixed_volume") == 0


def test_every_verify_request_calls_an_oracle_counter():
    tracer, traced_ids = _short_trace("verify-oracles")
    assert tracer.requests_calling(ORACLE_COUNTERS) == set(traced_ids)


def _traced_counts(workload: str, seed: int, seconds: float) -> dict:
    """Count metrics of a traced run in a fresh process, so that no cache
    filled by an earlier test changes what the run does."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_traced_counts_repeat_exactly():
    first = _traced_counts("bound-mix", 11, 2.5)
    assert first["trace.requests"] > 0
    assert first == _traced_counts("bound-mix", 11, 2.5)
