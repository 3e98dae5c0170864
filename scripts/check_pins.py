#!/usr/bin/env python3
"""Replay every pinned benchmark request and compare it with its pin.

    python3 scripts/check_pins.py                  # all four workloads
    python3 scripts/check_pins.py facets-square    # one or more by name

Each request of a workload's pool (``bench/corpus.py``) runs once, in pool
order, through ``Tally.run`` of ``bench/run.py``, which calls ``run_one`` and
checks the result with ``problem``.  The script prints one line per workload
with its failures by reason, and exits 1 when a request fails whose pin
carries no known-failure note.  It reads ``bench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus  # noqa: E402
import run  # noqa: E402


def check(workload: str) -> int:
    """Replay one workload's pool; returns the number of unexpected failures."""
    tally = run.Tally(run.pins_by_key(workload))
    start = time.perf_counter()
    for req in corpus.pool_requests(workload):
        tally.run(req)
    print(
        f"{workload}: {tally.attempted} requests, {tally.failed} failed, "
        f"{tally.unexpected} without a known-failure note, {tally.failures}, "
        f"{time.perf_counter() - start:.1f} s",
        flush=True,
    )
    return tally.unexpected


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="workload", help=", ".join(corpus.WORKLOADS))
    workloads = ap.parse_args(argv).workloads or corpus.WORKLOADS
    for w in workloads:
        if w not in corpus.WORKLOADS:
            ap.error(f"unknown workload {w!r}")
    run._rootbounds()
    unexpected = sum(check(w) for w in workloads)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
