"""Pin the expected output of every pool request of the given workloads.

    python3 bench/make_pins.py [workload ...]

Run once, on an otherwise idle machine, on the commit whose outputs are the
reference; it writes bench/pins/<workload>.txt, one line per pool request
in pool order: the digest of (exit code, stdout), the request's wall time
in ms (which orders the cost strata of bench/corpus.py), and a note when
the request already fails its check at that commit.  Such a request is pinned to its
documented exit code with empty stdout, keeps counting as failed, and does
not make a run incorrect.
"""

from __future__ import annotations

import sys

import corpus
import run


def pin_workload(workload: str) -> list[corpus.Pin]:
    pins = []
    failures: dict[str, int] = {}
    for req in corpus.pool_requests(workload):
        latency, why, result = run.run_one(req)
        if why is None:
            code, out = result
            pinned = run.digest(code, out)
            why = run.problem(req, code, out, pinned)
        if why is not None:
            pinned = run.digest(req.get("expect", 0), "")
            failures[why] = failures.get(why, 0) + 1
        pins.append(corpus.Pin(pinned, latency * 1e3, why))
    for why, count in failures.items():
        print(f"{workload}: {count} requests already fail: {why}", file=sys.stderr)
    return pins


def main(argv: list[str]) -> int:
    run._rootbounds()
    corpus.PINS_DIR.mkdir(exist_ok=True)
    for workload in argv or corpus.WORKLOADS:
        pins = pin_workload(workload)
        corpus.write_pins(workload, pins)
        print(f"{workload}: pinned {len(pins)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
