"""The traced run: where the time of every workload goes, layer by layer.

Each workload runs on the same inputs untraced and with the program's
span tracer switched on, making the same calls, with the untraced time
taken on both sides of the traced one (alternating chunks for
``api_small``, halves around it for ``http_small``, a pass before and
after it for bulk), so both see the same machine.  The untraced side
gives the throughput the traced one is compared with
(``obs.traced_ratio.*``) and the exact counts read from the metrics
registry and ``GET /v1/metrics``; the traced pass gives the spans the
program already records (``session.run``, ``engine.*``, ``kernel.*``,
``stats.mc``, ``server.request``).  Where those do not split a call,
the benchmark adds spans of its own (``bench.*``) around the public
calls it makes; in ``api_small`` that is a third pass, so its spans do
not count as the program's tracing overhead.

Besides ``api_small`` and ``http_small`` the traced run holds the
``bulk`` pass: library calls on a seeded, generated netlist, which is
where per-element kernel cost and per-arc propagation dominate.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

import numpy as np

import run
import workload

PS = 1e-12

#: Requests per traced pass, per ``--seconds``.
TRACED_RATE = 50

#: Requests per chunk of the alternating untraced/traced api passes.
API_CHUNK = 50

#: Bulk netlist size per ``--seconds``, and its upper bound.  The
#: bound keeps the whole traced run, every part run untraced and
#: traced, well
#: inside 180 s on a busy two-core machine.
GATES_PER_SECOND = 30
MAX_GATES = 600

#: Primary inputs of the generated netlist, and how far back a gate
#: may reach for its inputs (bounds the logic depth's growth).
NETLIST_INPUTS = 32
NETLIST_WINDOW = 64

SWEEP_CORNERS = 64
SWEEP_PARAMETER_SETS = 8
YIELD_DRAWS = 8
MC_NOR2 = (4096, 64)    # samples, Δ points
MC_NOR3 = (128, 4)
SCALAR_CHECK_CORNERS = 2
WARMUP_GATES = 50

UNITS = {
    "api.decode_us": "us", "api.encode_us": "us",
    "api.dispatch_self_us": "us",
    **{f"api.run_us.{shape}": "us" for shape in workload.SHAPE_NAMES},
    "engine.call_us.falling": "us", "engine.call_us.rising": "us",
    "engine.call_us.nor3": "us",
    "sta.analyze_engine_share": "ratio", "sta.build_s": "s",
    "stats.sample_share": "ratio",
    "stats.evals_per_s.falling": "1/s",
    "stats.evals_per_s.rising": "1/s",
    "stats.evals_per_s.nor3": "1/s",
    "kernel.eig_share": "ratio", "kernel.evaluate_share": "ratio",
    "kernel.crossings_share": "ratio", "kernel.newton_share": "ratio",
    "server.self_ms.p50": "ms", "server.self_ms.p99": "ms",
    "server.outside_ms.p50": "ms", "server.outside_ms.p99": "ms",
    "obs.traced_ratio.api_small": "ratio",
    "obs.traced_ratio.http_small": "ratio",
    "obs.traced_ratio.bulk": "ratio",
    "engine.calls_per_request": "count",
    "engine.calls_per_gate": "count",
    "engine.calls_per_corner_gate.sweep": "count",
    "engine.calls_per_corner_gate.yield": "count",
    "api.memo_hit_ratio": "ratio",
    "wire.reductions": "count", "stats.samples": "count",
    "analyze_gates_per_s": "1/s", "sweep_corner_gates_per_s": "1/s",
    "yield_corner_gates_per_s": "1/s", "mc_evals_per_s": "1/s",
    "mc_nor3_evals_per_s": "1/s",
}


# ----------------------------------------------------------------------
# span and counter helpers
# ----------------------------------------------------------------------

def _durations(records, name: str, **attrs) -> list:
    return [r["dur_s"] for r in records if r["name"] == name
            and all(r["attrs"].get(k) == v for k, v in attrs.items())]


def _self_times(records, name: str) -> list:
    """Span duration minus the time its direct children cover."""
    children: dict = {}
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]] = (
                children.get(record["parent"], 0.0) + record["dur_s"])
    return [r["dur_s"] - children.get(r["id"], 0.0) for r in records
            if r["name"] == name]


def _tracer():
    from repro.obs import trace
    return trace.configure(trace.Tracer(buffer=1 << 20))


def _untraced():
    from repro.obs import trace
    trace.configure(None)


def _traced(tracer):
    from repro.obs import trace
    trace.configure(tracer)


# ----------------------------------------------------------------------
# api_small
# ----------------------------------------------------------------------

def api_layers(seed: int, stream, checked):
    from repro.api import DelayRequest, from_json

    # The same run_json + to_json loop with the tracer off and on, on
    # two sessions, in alternating chunks (each chunk runs first on one
    # side, then on the other), so both sides see the same machine.
    _untraced()
    sessions = {False: workload.new_session(seed),
                True: workload.new_session(seed)}
    tracer = _tracer()
    wall = {False: 0.0, True: 0.0}
    calls = hits = misses = 0.0
    failed = 0
    for chunk, first in enumerate(range(0, len(stream), API_CHUNK)):
        part = stream[first:first + API_CHUNK]
        mine = {i - first for i in checked
                if first <= i < first + len(part)}
        for traced in ((False, True) if chunk % 2 == 0
                       else (True, False)):
            if traced:
                _traced(tracer)
            else:
                _untraced()
                before = (
                    workload.counter("repro_engine_calls_total"),
                    workload.counter("repro_session_requests_total",
                                     outcome="hit"),
                    workload.counter("repro_session_requests_total",
                                     outcome="miss"))
            timing, tails, full = workload.api_loop(sessions[traced],
                                                    part, mine)
            wall[traced] += timing.wall_s
            if not traced:
                calls += (workload.counter("repro_engine_calls_total")
                          - before[0])
                hits += workload.counter("repro_session_requests_total",
                                         outcome="hit") - before[1]
                misses += workload.counter(
                    "repro_session_requests_total",
                    outcome="miss") - before[2]
            failed += workload.check_replies(part, tails, full)
    dispatch_self = _self_times(tracer.records(), "session.run")

    # The split: benchmark spans around decode, run and encode.
    _traced(tracer)
    session = workload.new_session(seed)
    tracer.clear()
    tails = []
    for shape, envelope in stream:
        with tracer.span("bench.decode"):
            request = from_json(envelope)
        with tracer.span("bench.run", shape=shape):
            result = session.run(request)
        with tracer.span("bench.encode"):
            reply = result.to_json()
        tails.append(reply[-64:])
    failed += workload.check_replies(stream, tails, {})
    # The engine layer alone, on the very inputs of the delay shapes.
    engine, params = session.engine, session.parameters
    wide = session.generalized(3)
    for shape, envelope in stream:
        request = from_json(envelope)
        if not isinstance(request, DelayRequest):
            continue
        rows = np.asarray(request.deltas, dtype=float)
        if shape == "nor3_falling":
            with tracer.span("bench.engine", kind="nor3"):
                engine.delays_falling_n(wide, rows)
        elif shape == "nor2_falling":
            with tracer.span("bench.engine", kind="falling"):
                engine.delays_falling(params, rows[:, 0])
        else:
            with tracer.span("bench.engine", kind="rising"):
                engine.delays_rising(params, rows[:, 0], 0.0)
    records = tracer.records()
    _untraced()

    us = 1e6
    metrics = {
        "api.decode_us": statistics.median(
            _durations(records, "bench.decode")) * us,
        "api.encode_us": statistics.median(
            _durations(records, "bench.encode")) * us,
        "api.dispatch_self_us": statistics.median(dispatch_self) * us,
        "engine.calls_per_request": calls / len(stream),
        "api.memo_hit_ratio": hits / (hits + misses),
        "obs.traced_ratio.api_small": wall[False] / wall[True],
    }
    for shape in workload.SHAPE_NAMES:
        metrics[f"api.run_us.{shape}"] = statistics.median(
            _durations(records, "bench.run", shape=shape)) * us
    for kind in ("falling", "rising", "nor3"):
        metrics[f"engine.call_us.{kind}"] = statistics.median(
            _durations(records, "bench.engine", kind=kind)) * us
    return 3 * len(stream), failed, metrics


# ----------------------------------------------------------------------
# http_small
# ----------------------------------------------------------------------

def _pair_server_spans(records, sent, connections: int):
    """Match each request a connection sent to its ``server.request``.

    Every connection is served by its own server thread, whose id is
    the middle field of a span id.  The connections' marker
    ``GET /v1/health`` requests, sent one after the other, tell which
    thread served which connection.
    """
    requests = [r for r in records if r["name"] == "server.request"]
    marks = sorted((r for r in requests
                    if r["attrs"].get("route") == "/v1/health"),
                   key=lambda r: r["ts"])[-connections:]
    pairs = []
    for slot, mark in enumerate(marks):
        thread = mark["id"].split("-")[1]
        served = sorted(
            (r for r in requests if r["id"].split("-")[1] == thread
             and r["ts"] > mark["ts"]
             and r["attrs"].get("route") == "/v1/run"),
            key=lambda r: r["ts"])
        if len(served) != len(sent[slot]):
            raise RuntimeError(
                f"connection {slot}: {len(sent[slot])} requests sent, "
                f"{len(served)} server spans")
        pairs.extend(zip(sent[slot], served))
    return pairs


def http_layers(seed: int, stream, workdir: str):
    env = run.pinned_env()
    connections = min(2, os.cpu_count() or 1)
    spans_path = os.path.join(workdir, "server-spans.jsonl")
    plain, _ = workload.start_server(
        env, os.path.join(workdir, "http-untraced"), connections, seed)
    failed, wall_untraced = 0, 0.0

    def send(server, first, last):
        """Send ``stream[first:last]`` and check every reply; the
        client does the same work on both servers."""
        nonlocal failed
        part = stream[first:last]
        timing, tails, full, sent = workload.http_loop(
            server, part, set(range(len(part))), connections, mark=True)
        failed += workload.check_replies(part, tails, full)
        return timing, full, sent

    # Untraced first half, traced whole stream, untraced second half,
    # on two servers, so both sides see the same machine on average.
    try:
        half = len(stream) // 2
        wall_untraced += send(plain, 0, half)[0].wall_s
        server, _ = workload.start_server(
            env, os.path.join(workdir, "http-traced"), connections,
            seed, trace_path=spans_path)
        try:
            before = workload.metrics_text(server)
            timing, full, sent = send(server, 0, len(stream))
            after = workload.metrics_text(server)
        finally:
            server.stop()
        wall_untraced += send(plain, half, len(stream))[0].wall_s
    finally:
        plain.stop()
    with open(spans_path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]

    latencies = timing.latencies
    self_ms, outside_ms = [], []
    for index, span in _pair_server_spans(records, sent, connections):
        served = span["dur_s"]
        timings = json.loads(full[index])["data"]["timings"]
        self_ms.append((served - timings["session.run"]) * 1e3)
        outside_ms.append((latencies[index] - served) * 1e3)

    def delta(name, **labels):
        return (workload.scraped(after, name, **labels)
                - workload.scraped(before, name, **labels))

    hits = delta("repro_session_requests_total", outcome="hit")
    misses = delta("repro_session_requests_total", outcome="miss")
    if hits + misses != len(stream):
        failed += 1  # the server did not dispatch every request once
    metrics = {
        "server.self_ms.p50": run.percentile(self_ms, 50),
        "server.self_ms.p99": run.percentile(self_ms, 99),
        "server.outside_ms.p50": run.percentile(outside_ms, 50),
        "server.outside_ms.p99": run.percentile(outside_ms, 99),
        "obs.traced_ratio.http_small": wall_untraced / timing.wall_s,
    }
    return 2 * len(stream) + 1, failed, metrics


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------

def generate_netlist(seed: int, gates: int):
    """A seeded random netlist built through ``TimingCircuit``.

    60 % distinct-input NOR2, 25 % NOR3 and 15 % NOR2 gates that drive
    an RC line through ``add_wire`` (with wire-loaded parameters).
    """
    from repro import PAPER_TABLE_I
    from repro.core.multi_input import paper_generalized
    from repro.timing import HybridNorChannel, TimingCircuit
    from repro.timing.channels.multi_input import GeneralizedNorChannel
    from repro.wire import WireTree, loaded_params

    rng = np.random.default_rng([seed, 11])
    inputs = [f"i{k}" for k in range(NETLIST_INPUTS)]
    circuit = TimingCircuit(inputs)
    nor2 = HybridNorChannel(PAPER_TABLE_I)
    nor3 = GeneralizedNorChannel(paper_generalized(3, PAPER_TABLE_I))
    line = WireTree.line(segments=3)
    wired = HybridNorChannel(loaded_params(PAPER_TABLE_I, line))
    signals = list(inputs)
    for index in range(gates):
        window = signals[-NETLIST_WINDOW:]
        draw = rng.random()
        width = 3 if 0.60 <= draw < 0.85 else 2
        picked = [window[i] for i in rng.choice(len(window), width,
                                                replace=False)]
        name, output = f"g{index}", f"s{index}"
        if width == 3:
            circuit.add_mis_gate(name, picked, output, nor3)
        elif draw < 0.60:
            circuit.add_mis_gate(name, *picked, output, nor2)
        else:
            circuit.add_mis_gate(name, *picked, output, wired)
            circuit.add_wire(f"w{index}", output, line, f"m{index}")
            output = f"m{index}"
        signals.append(output)
    return circuit


def _summary_bytes(summary) -> bytes:
    return b"".join(np.ascontiguousarray(part).tobytes() for part in (
        summary.mean, summary.std, summary.minimum, summary.maximum,
        summary.percentile_values))


class _Bulk:
    """The bulk pass: build, analyze, sweep, yield, Monte-Carlo."""

    def __init__(self, seed: int, gates: int):
        from repro import PAPER_TABLE_I
        from repro.engine.blocks import parameters_at
        from repro.stats import VARIABLE_PARAMS, ParameterDistribution

        self.seed, self.gates = seed, gates
        self.distribution = ParameterDistribution(
            PAPER_TABLE_I, tuple((name, 0.05)
                                 for name in VARIABLE_PARAMS))
        block = self.distribution.sample_block(SWEEP_PARAMETER_SETS,
                                               seed)
        sets = [parameters_at(block, i)
                for i in range(SWEEP_PARAMETER_SETS)]
        self.sweep_params = [sets[i % len(sets)]
                             for i in range(SWEEP_CORNERS)]
        rng = np.random.default_rng([seed, 13])
        self.sweep_arrivals = {
            f"i{k}": rng.uniform(0.0, 40 * PS, SWEEP_CORNERS)
            for k in range(NETLIST_INPUTS)}
        self.mc_deltas = {
            "falling": np.linspace(-60 * PS, 60 * PS, MC_NOR2[1]),
            "rising": np.linspace(-60 * PS, 60 * PS, MC_NOR2[1]),
            "nor3": np.linspace(-40 * PS, 40 * PS, MC_NOR3[1])}

    def build(self):
        from repro import build_timing_graph
        circuit = generate_netlist(self.seed, self.gates)
        started = time.perf_counter()
        self.graph = build_timing_graph(circuit)
        return time.perf_counter() - started

    def draw_seed(self, run: int) -> int:
        """Seed of the random draws of *run*: every run of a phase
        draws fresh parameters, as a user's next call would, so no run
        finds the kernel caches filled by another."""
        return int(np.random.SeedSequence(
            [self.seed, self.gates, run]).generate_state(1)[0])

    def phases(self, tracer=None):
        """Run the four phases.

        With *tracer*, every call runs untraced, traced (inside a
        ``bench.<phase>`` span) and untraced again, back to back, so
        both sides see the same machine.  Returns ``(seconds, counts,
        repeats, mismatches)``: seconds per phase per side (``False``
        untraced, ``True`` traced; a side's mean over its runs), the
        engine calls and Monte-Carlo samples per phase of one run, how
        many checks repeated a call, and how many of those did not
        match: a run's counts must equal the first run's, and a
        Monte-Carlo summary must be byte-identical for a repeated seed.
        """
        from repro import analyze, sweep_corners
        from repro.stats import monte_carlo, timing_yield

        sides = (False,) if tracer is None else (False, True, False)
        seconds = {False: {}, True: {}}
        counts = {}
        repeats = mismatches = 0

        def tally():
            return (workload.counter("repro_engine_calls_total"),
                    workload.counter("repro_stats_samples_total"))

        def timed(name, call, summary=False):
            nonlocal repeats, mismatches
            for run, traced in enumerate(sides):
                if traced:
                    _traced(tracer)
                before = tally()
                started = time.perf_counter()
                with (tracer.span(f"bench.{name}") if traced
                      else contextlib.nullcontext()):
                    value = call(self.draw_seed(run))
                took = time.perf_counter() - started
                _untraced()
                seconds[traced][name] = (seconds[traced].get(name, 0.0)
                                         + took / sides.count(traced))
                spent = tuple(b - a for a, b in zip(before, tally()))
                if run == 0:
                    first = value
                    counts[name] = tuple(
                        c + d for c, d in zip(counts.get(name, (0, 0)),
                                              spent))
                    once = spent
                else:
                    repeats += 1
                    mismatches += spent != once
            if summary:
                repeats += 1
                mismatches += (_summary_bytes(call(self.draw_seed(0)))
                               != _summary_bytes(first))

        timed("analyze", lambda _: analyze(self.graph))
        timed("sweep", lambda _: sweep_corners(
            self.graph, params=self.sweep_params,
            arrivals=self.sweep_arrivals))
        timed("yield", lambda draws: timing_yield(
            self.graph, self.distribution, samples=YIELD_DRAWS,
            seed=draws))
        for kind, (samples, _) in (("falling", MC_NOR2),
                                   ("rising", MC_NOR2),
                                   ("nor3", MC_NOR3)):
            phase = "mc_nor3" if kind == "nor3" else "mc"
            timed(phase, lambda draws: monte_carlo(
                self.distribution, self.mc_deltas[kind],
                samples=samples, seed=draws,
                direction="falling" if kind == "nor3" else kind,
                gate="nor3" if kind == "nor3" else "nor2"), summary=True)
        return seconds, counts, repeats, mismatches

    def scalar_parity(self) -> bool:
        """``sweep_corners`` equals the per-corner reference loop."""
        from repro import sweep_corners
        from repro.sta import sweep_corners_scalar

        corners = slice(0, SCALAR_CHECK_CORNERS)
        params = self.sweep_params[corners]
        arrivals = {signal: values[corners]
                    for signal, values in self.sweep_arrivals.items()}
        fast = sweep_corners(self.graph, params=params,
                             arrivals=arrivals)
        slow = sweep_corners_scalar(self.graph, params=params,
                                    arrivals=arrivals)
        return fast.arrivals.keys() == slow.arrivals.keys() and all(
            np.array_equal(fast.arrivals[node], slow.arrivals[node])
            for node in fast.arrivals)


def bulk_layers(seed: int, gates: int):
    _untraced()
    # Imports, kernel set-up and per-parameter caches fill on a small
    # netlist first, so both measured passes start warm.
    warm = _Bulk(seed, WARMUP_GATES)
    warm.build()
    warm.phases()
    bulk = _Bulk(seed, gates)
    wires = workload.counter("repro_wire_reductions_total")
    build_s = bulk.build()
    wires = workload.counter("repro_wire_reductions_total") - wires
    tracer = _tracer()
    _untraced()
    seconds, counts, repeats, failed = bulk.phases(tracer)
    calls = {phase: count[0] for phase, count in counts.items()}
    records = tracer.records()
    if not bulk.scalar_parity():
        failed += 1
    traced_seconds, seconds = seconds[True], seconds[False]

    gates, mc = bulk.gates, MC_NOR2[0] * MC_NOR2[1]
    engine_in_analyze = sum(
        r["dur_s"] for r in _descendants(records, "bench.analyze")
        if r["name"].startswith("engine."))
    stats_mc = {kind: _durations(records, "stats.mc", gate=gate,
                                 direction=direction)[0]
                for kind, gate, direction in (
                    ("falling", "nor2", "falling"),
                    ("rising", "nor2", "rising"),
                    ("nor3", "nor3", "falling"))}
    evals = {"falling": mc, "rising": mc,
             "nor3": MC_NOR3[0] * MC_NOR3[1]}
    nor3_kernel = _descendants(records, "bench.mc_nor3")
    metrics = {
        "analyze_gates_per_s": gates / seconds["analyze"],
        "sweep_corner_gates_per_s":
            SWEEP_CORNERS * gates / seconds["sweep"],
        "yield_corner_gates_per_s":
            YIELD_DRAWS * gates / seconds["yield"],
        "mc_evals_per_s": 2 * mc / seconds["mc"],
        "mc_nor3_evals_per_s": evals["nor3"] / seconds["mc_nor3"],
        "engine.calls_per_gate": calls["analyze"] / gates,
        "engine.calls_per_corner_gate.sweep":
            calls["sweep"] / (SWEEP_CORNERS * gates),
        "engine.calls_per_corner_gate.yield":
            calls["yield"] / (YIELD_DRAWS * gates),
        "wire.reductions": wires,
        "stats.samples": sum(count[1] for count in counts.values()),
        "sta.build_s": build_s,
        "sta.analyze_engine_share":
            engine_in_analyze / traced_seconds["analyze"],
        "stats.sample_share": sum(stats_mc.values()) / (
            traced_seconds["mc"] + traced_seconds["mc_nor3"]),
        "obs.traced_ratio.bulk":
            sum(seconds.values()) / sum(traced_seconds.values()),
    }
    for kind in evals:
        metrics[f"stats.evals_per_s.{kind}"] = (evals[kind]
                                               / stats_mc[kind])
    for part in ("eig", "evaluate", "crossings", "newton"):
        metrics[f"kernel.{part}_share"] = sum(
            _self_times(nor3_kernel, f"kernel.{part}")) / stats_mc["nor3"]
    return 1 + repeats, failed, metrics


def _descendants(records, root_name: str) -> list:
    """Every record below the spans named *root_name*."""
    ids = {r["id"] for r in records if r["name"] == root_name}
    found, grew = [], True
    while grew:
        grew = False
        for record in records:
            if record["parent"] in ids and record["id"] not in ids:
                ids.add(record["id"])
                found.append(record)
                grew = True
    return found


# ----------------------------------------------------------------------
# the whole traced run
# ----------------------------------------------------------------------

def traced_run(seed: int, seconds: int, workdir: str):
    count = max(run.BLOCK, seconds * TRACED_RATE)
    stream = workload.make_stream(seed, count)
    checked = workload.checked_indices(seed, stream)
    gates = min(MAX_GATES, max(100, seconds * GATES_PER_SECOND))
    attempted, failed, metrics = 0, 0, {}
    for part in (lambda: api_layers(seed, stream, checked),
                 lambda: http_layers(seed, stream, workdir),
                 lambda: bulk_layers(seed, gates)):
        tried, missed, values = part()
        attempted += tried
        failed += missed
        metrics.update(values)
    if set(metrics) != set(UNITS):
        raise RuntimeError("traced run missed per-layer metrics: "
                           f"{sorted(set(UNITS) ^ set(metrics))}")
    return attempted, failed, metrics, UNITS
