"""The repository benchmark: one command, end-to-end and traced runs.

Run from the repository root::

    python3 perfbench/run.py --workload api_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload http_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload api_small --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics of the named workload with tracing off; ``--trace 1``
is the layer split of the whole benchmark (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Environment every benchmark process and ``repro serve`` child runs
#: with: single-threaded BLAS and a fixed hash seed.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: Switches of the program that must stay off in measured runs: the
#: tracer is configured explicitly by the traced run, and the disk
#: cache is not measured.
UNSET = ("REPRO_TRACE", "REPRO_CACHE_DIR")

WORKLOADS = ("api_small", "http_small")

#: Requests per second of ``--seconds`` that fix a run's request count.
#: The count never depends on measured speed, so a faster program
#: serves the same requests and holds the same memo.
NOMINAL_RATE = {"api_small": 300, "http_small": 230}

#: Requests per block.  A run is an odd number of blocks.  Each block's
#: envelopes are made just before it and its replies checked just after
#: it, so the load generator holds one block at a time, and one set-up
#: is measured before each block, so set-ups sample the whole run.
BLOCK = 1000

#: Samples a percentile needs beyond it, so a tail figure is never
#: read off a handful of points.
TAIL_SAMPLES = 10

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "requests_per_s": "1/s",
         "latency_p50_ms": "ms", "latency_p99_ms": "ms"}


def pinned_env() -> dict:
    """The environment of the benchmark's own processes."""
    env = {key: value for key, value in os.environ.items()
           if key not in UNSET}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    return env


def percentile(samples, q: float) -> float:
    """Nearest-rank *q*-th percentile of *samples*.

    Raises ``ValueError`` unless at least :data:`TAIL_SAMPLES` samples
    lie above the rank.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves "
            f"{len(ordered) - rank} beyond it; need {TAIL_SAMPLES}")
    return ordered[rank - 1]


def block_count(workload: str, seconds: int) -> int:
    pairs = seconds * NOMINAL_RATE[workload] // (2 * BLOCK)
    return 2 * pairs + 1


def environment(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "seed": seed}


def latency_metrics(timings) -> dict:
    """Throughput, p50 and p99 over all the blocks of a run.

    Each block counts from its start to its last completion; the gaps
    between blocks (set-ups, making envelopes, checks) are not timed.
    """
    latencies = [latency for timing in timings
                 for latency in timing.latencies]
    busy = sum(timing.wall_s for timing in timings)
    return {"requests_per_s": len(latencies) / busy,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": percentile(latencies, 99) * 1e3}


def run_api_small(seed: int, seconds: int, workdir: str):
    import workload

    env = pinned_env()
    session = workload.new_session(seed)
    hits = workload.counter("repro_session_requests_total",
                            outcome="hit")
    setups, timings, attempted, failed = [], [], 0, 0
    for block in range(block_count("api_small", seconds)):
        setups.append(workload.probe_setup(env, seed))
        first = block * BLOCK
        stream = workload.make_stream(seed, BLOCK, first)
        checked = workload.checked_indices(seed, stream, first)
        timing, tails, full = workload.api_loop(session, stream, checked)
        timings.append(timing)
        attempted += len(stream)
        failed += workload.check_replies(stream, tails, full)
    peak = workload.peak_rss_mb()
    if workload.counter("repro_session_requests_total",
                        outcome="hit") != hits:
        failed += 1  # an envelope repeated across blocks
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak,
               **latency_metrics(timings)}
    return attempted, failed, metrics


def run_http_small(seed: int, seconds: int, workdir: str):
    import workload

    env = pinned_env()
    connections = min(2, os.cpu_count() or 1)
    server, setup = workload.start_server(
        env, os.path.join(workdir, "serve"), connections, seed)
    setups, timings, attempted, failed = [setup], [], 0, 0
    try:
        before = workload.metrics_text(server)
        for block in range(block_count("http_small", seconds)):
            if block:
                setups.append(workload.probe_server_setup(
                    env, os.path.join(workdir, f"probe-{block}"),
                    connections, seed))
            first = block * BLOCK
            stream = workload.make_stream(seed, BLOCK, first)
            checked = workload.checked_indices(seed, stream, first)
            timing, tails, full, _ = workload.http_loop(
                server, stream, checked, connections)
            timings.append(timing)
            attempted += len(stream)
            failed += workload.check_replies(stream, tails, full)
        after = workload.metrics_text(server)
        peak = workload.peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    if (workload.scraped(after, "repro_session_requests_total",
                         outcome="hit")
            != workload.scraped(before, "repro_session_requests_total",
                                outcome="hit")):
        failed += 1  # an envelope repeated across blocks
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak,
               **latency_metrics(timings)}
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}",
              file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value
           for key, value in PINNED.items()) or any(
               key in os.environ for key in UNSET) or (
               os.environ.get("PYTHONPATH") != pinned_env()["PYTHONPATH"]):
        # BLAS reads its thread count at import: restart pinned.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__),
                   *sys.argv[1:]], pinned_env())

    # Let ``finally`` blocks stop the server child on SIGTERM as well.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        if args.trace:
            import layers
            attempted, failed, metrics, units = layers.traced_run(
                args.seed, args.seconds, workdir)
        else:
            runner = (run_api_small if args.workload == "api_small"
                      else run_http_small)
            attempted, failed, metrics = runner(args.seed, args.seconds,
                                                workdir)
            units = UNITS
    print(json.dumps({"env": environment(args.seed),
                      "workload": args.workload}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
