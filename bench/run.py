"""Benchmark of the rootbounds CLI and library, one workload per run.

    python3 bench/run.py --workload bound-mix --seed 1 --seconds 25 --trace 0

Drives a seeded corpus of distinct requests (``bench/corpus.py``) through
``rootbounds.cli.main`` and the near-one library functions, in-process, from
one thread: a closed loop with one client, where the next request starts
when the previous one returns.  Every output is checked against the digest
pinned in ``bench/pins/<workload>.txt``.

With ``--trace 0`` the run is timed for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` a fixed number of blocks, alternately
traced and untraced, gives the per-layer metrics of ``bench/spans.py``.
Every metric is printed as ``name: value unit``, then a run record, and the
last line is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import spans  # noqa: E402

# Used only to confirm a later change's claim, never while writing it.
HELD_OUT_SEED = 20011

SETUP_REPEATS = 11
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import rootbounds.cli\n"
    "rootbounds.cli._build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# Blocks per second of --seconds in a traced run, measured on the seed
# commit so that a traced run lasts about as long as a timed one.  Fixed per
# workload, so two traced runs with one seed do identical work.
TRACE_BLOCKS_PER_S = {
    "bound-mix": 1.0,
    "facets-square": 0.25,
    "verify-oracles": 0.6,
    "nearone-sweep": 1.0,
}


# ---------------------------------------------------------------------------
# Executing and checking one request
# ---------------------------------------------------------------------------


def _rootbounds():
    sys.path.insert(0, str(SRC))
    import rootbounds.arith
    import rootbounds.bounds
    import rootbounds.cli
    import rootbounds.newton

    return rootbounds


def execute(req: corpus.Request) -> tuple[int, str]:
    """Run one request; returns (exit code, stdout).  Exceptions propagate."""
    rb = sys.modules["rootbounds"]
    if "lib" in req:
        return 0, _nearone(req, rb)
    sys.stdin = io.StringIO(req["stdin"] or "")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = rb.cli.main(list(req["argv"]))
    except SystemExit as exc:  # argparse rejections exit like the real CLI
        code = exc.code
    finally:
        sys.stdin = sys.__stdin__
    return code, out.getvalue()


def _nearone(req: corpus.Request, rb) -> str:
    """The near-one bounds of one system over its radius sweep, and the
    shifted-support containment at the first radius."""
    rb.arith.set_precision(req["precision"])
    system = rb.newton.SparseSystem.of(
        [
            rb.newton.SparsePolynomial.from_dict({tuple(e): Fraction(c) for e, c in f})
            for f in req["system"]
        ]
    )
    p = req["p"]
    rows: list = []
    for r_text, t_text in req["pairs"]:
        r = tuple(Fraction(x) for x in r_text)
        t = tuple(Fraction(x) for x in t_text)
        hyp, concl = rb.bounds.log_inequality_check(r, t, system.m, p)
        cp = rb.bounds.cp_bound(system.m, system.n, r, p)
        cpe = rb.bounds.cp_bound_per_equation(system.m_counts, system.n, r, p)
        rows.append([hyp, concl, str(cp.raw.value), cp.integer_bound, str(cpe.raw.value), cpe.integer_bound])
    r0 = tuple(Fraction(x) for x in req["pairs"][0][0])
    rows.append(rb.newton.containment_check(system, p, r0))
    return json.dumps(rows)


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def problem(req: corpus.Request, code: int, out: str, pinned: str) -> str | None:
    """Why a returned request failed its check, or None when it passed."""
    want = req.get("expect", 0)
    if code != want:
        return f"exit {code}, expected {want}"
    if digest(code, out) != pinned:
        return "output differs from its pinned digest"
    if req.get("argv", [""])[0] == "verify" and json.loads(out)["all_ok"] is not True:
        return "verify reported all_ok false"
    return None


def run_one(req: corpus.Request) -> tuple[float, str | None, tuple[int, str] | None]:
    """(latency in seconds, crash or None, (exit code, stdout) or None)."""
    t0 = time.perf_counter()
    try:
        code, out = execute(req)
    except Exception as exc:  # a crash is a failed request, never a dead run
        return time.perf_counter() - t0, f"raised {type(exc).__name__}", None
    return time.perf_counter() - t0, None, (code, out)


def pins_by_key(workload: str) -> dict[str, corpus.Pin]:
    return {
        corpus.request_key(req): pin
        for req, pin in zip(corpus.pool_requests(workload), corpus.pins(workload), strict=True)
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    pins: dict[str, corpus.Pin]
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    latencies: list[float] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)

    def run(self, req: corpus.Request) -> float:
        """Run and check one request; returns its wall time in seconds."""
        latency, why, result = run_one(req)
        pin = self.pins[corpus.request_key(req)]
        if why is None:
            why = problem(req, *result, pin.digest)
        self.attempted += 1
        if why is None:
            self.latencies.append(latency)
        else:
            self.failed += 1
            self.unexpected += pin.known_failure is None
            self.failures[why] = self.failures.get(why, 0) + 1
        return latency


def timed_run(workload: str, seed: int, seconds: float, pins: dict[str, corpus.Pin]) -> tuple[Tally, float, bool]:
    """Closed loop over the seed's blocks, whole blocks only, until --seconds
    have passed.  Returns the tally, the wall time and whether the pool ran
    out first."""
    tally = Tally(pins)
    start = time.perf_counter()
    for block in corpus.blocks(workload, seed):
        if time.perf_counter() - start >= seconds:
            return tally, time.perf_counter() - start, False
        for req in block:
            tally.run(req)
    return tally, time.perf_counter() - start, True


def trace_blocks(workload: str, seconds: float) -> int:
    """Blocks in a traced run: a whole number of traced-untraced rounds."""
    round_len = 2 * len(corpus.BLOCKS[workload])
    return round_len * max(1, round(seconds * TRACE_BLOCKS_PER_S[workload] / round_len))


def traced_run(workload: str, seed: int, n_blocks: int, pins: dict[str, corpus.Pin]):
    """Traced and untraced blocks alternate, one cycle of block shapes at a
    time, so both halves do work of one composition and the ratio of their
    wall times is the tracing overhead.
    Returns (tally, tracer, traced request ids, overhead share)."""
    tally = Tally(pins)
    tracer = spans.Tracer()
    traced_ids: list[int] = []
    wall = [0.0, 0.0]  # untraced, traced
    request = 0
    for b, block in enumerate(corpus.blocks(workload, seed)):
        if b == n_blocks:
            break
        traced = (b // len(corpus.BLOCKS[workload])) % 2 == 0
        if traced:
            tracer.install()
        try:
            for req in block:
                tracer.request = request
                if traced:
                    traced_ids.append(request)
                wall[traced] += tally.run(req)
                request += 1
        finally:
            tracer.restore()
    return tally, tracer, traced_ids, wall[1] / wall[0] - 1.0


# ---------------------------------------------------------------------------
# Measurements outside the request loop
# ---------------------------------------------------------------------------


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median time, in a fresh interpreter each, to import rootbounds.cli and
    build its argument parser.  One discarded run first fills the bytecode
    cache, which an installed package has too."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def latency_metrics(latencies: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    _rootbounds()
    pins = pins_by_key(args.workload)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "client": "closed loop, 1 client, in-process, 1 thread",
    }

    if args.trace:
        n_blocks = trace_blocks(args.workload, args.seconds)
        tally, tracer, traced_ids, overhead = traced_run(args.workload, args.seed, n_blocks, pins)
        metrics = tracer.metrics()
        metrics["trace.overhead_share"] = (overhead, "ratio")
        metrics["trace.requests"] = (len(traced_ids), "count")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        record.update(blocks=n_blocks, spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
    else:
        setup_s = measure_setup()
        tally, wall, exhausted = timed_run(args.workload, args.seed, args.seconds, pins)
        p50, p90 = latency_metrics(tally.latencies)
        completed = tally.attempted - tally.failed
        metrics = {
            "requests_per_s": (completed / wall, "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "ok_share": (completed / tally.attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record.update(
            wall_s=wall,
            latency_samples=len(tally.latencies),
            beyond_p90=sum(x * 1e3 > p90 for x in tally.latencies),
            pool_exhausted=exhausted,
        )

    record.update(
        attempted=tally.attempted,
        completed=tally.attempted - tally.failed,
        failed=tally.failed,
        failed_unexpectedly=tally.unexpected,
        failures=tally.failures,
        loadavg_after=list(os.getloadavg()),
    )
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.unexpected == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
