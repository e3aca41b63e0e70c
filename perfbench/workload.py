"""Request streams, the in-process and HTTP closed loops, and set-up.

Everything here talks to the program through its public surface only:
``repro.api`` envelopes, ``Session.run_json`` and ``POST /v1/run`` of a
``repro serve`` child process.  The program never sees the seed, only
the envelopes generated from it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

PS = 1e-12

#: The seven request shapes of ``api_small`` / ``http_small``, in the
#: round-robin order of the stream, with the result kind each answers.
SHAPES = (
    ("nor2_falling", "delay_result"),
    ("nor2_rising", "delay_result"),
    ("nor3_falling", "delay_result"),
    ("sta_tree", "sta_result"),
    ("sta_tree_wire", "sta_result"),
    ("stats_mc_rising", "stats_result"),
    ("wire_fanout", "wire_result"),
)
SHAPE_NAMES = tuple(name for name, _ in SHAPES)

#: Delay replies per thousand requests whose values are re-checked
#: against the ``reference`` engine.
CHECKED_DELAYS = 24

#: Tolerance of that check, seconds.
DELAY_TOLERANCE = 1e-12

#: Stream index of the first warm-up envelope, far above any measured
#: index, so warm-up never pre-fills the memo with a measured request.
WARMUP_FIRST = 1 << 40


def _request(shape: str, rng: np.random.Generator, seed: int):
    from repro.api import (DelayRequest, StaRequest, StatsRequest,
                           WireRequest)
    if shape == "nor2_falling" or shape == "nor2_rising":
        axis = rng.uniform(-60 * PS, 60 * PS, 16)
        return DelayRequest(direction=shape[5:],
                            deltas=tuple((float(d),) for d in axis))
    if shape == "nor3_falling":
        rows = rng.uniform(-40 * PS, 40 * PS, (16, 2))
        return DelayRequest(gate="nor3", direction="falling",
                            deltas=tuple((float(a), float(b))
                                         for a, b in rows))
    if shape == "sta_tree":
        return StaRequest(circuit="tree",
                          required=float(rng.uniform(20, 80)) * PS)
    if shape == "sta_tree_wire":
        return StaRequest(circuit="tree_wire", corners=16, seed=seed)
    if shape == "stats_mc_rising":
        return StatsRequest(method="mc", direction="rising",
                            samples=1024, seed=seed)
    return WireRequest(topology="fanout", corners=64, seed=seed)


def make_stream(seed: int, count: int, first: int = 0):
    """*count* distinct request envelopes cycling through the shapes.

    *first* is the stream index of the first envelope, so consecutive
    blocks of one stream are ``make_stream(seed, n, 0)``,
    ``make_stream(seed, n, n)`` and so on.  Returns a list of
    ``(shape, envelope)`` pairs; the envelope is the JSON text a client
    sends.  Raises ``ValueError`` if two envelopes coincide, because
    the memo would then serve a repeat.
    """
    rng = np.random.default_rng([seed, first])
    stream = []
    for index in range(first, first + count):
        shape = SHAPE_NAMES[index % len(SHAPE_NAMES)]
        request = _request(shape, rng, seed * 1_000_003 + index)
        stream.append((shape, request.to_json()))
    if len({envelope for _, envelope in stream}) != count:
        raise ValueError("request stream holds a repeated envelope")
    return stream


def warmup_stream(seed: int):
    """One envelope per shape, never part of a measured stream."""
    return make_stream(seed, len(SHAPES), first=WARMUP_FIRST)


def checked_indices(seed: int, stream, first: int = 0) -> set:
    """The seeded sample of delay replies checked against the
    reference engine (fixed before the run): :data:`CHECKED_DELAYS`
    per started thousand requests of *stream*, whose first envelope
    has stream index *first*."""
    delay = [i for i, (shape, _) in enumerate(stream)
             if dict(SHAPES)[shape] == "delay_result"]
    rng = np.random.default_rng([seed, 7, first])
    size = min(CHECKED_DELAYS * -(-len(stream) // 1000), len(delay))
    return set(int(i) for i in rng.choice(delay, size, replace=False))


def _tail(kind: str) -> str:
    # Envelopes are dumped with sorted keys: data, kind, schema.
    return f'"kind": "{kind}", "schema": "repro.api/1"}}'


def check_replies(stream, tails, full) -> int:
    """Count replies that fail their checks.

    *tails* holds the last bytes of every reply text (``None`` for a
    request that raised or got a non-200 status); *full* maps the
    checked indices to their complete reply text.
    """
    from repro import PAPER_TABLE_I, get_engine
    from repro.core.multi_input import paper_generalized

    kinds = dict(SHAPES)
    failed = 0
    for (shape, _), tail in zip(stream, tails):
        if tail is None or not tail.endswith(_tail(kinds[shape])):
            failed += 1
    reference = get_engine("reference")
    for index, text in full.items():
        if tails[index] is None or kinds[stream[index][0]] != \
                "delay_result":
            continue  # counted above, or not a delay reply
        data = json.loads(text)["data"]
        rows = np.asarray(data["deltas"], dtype=float)
        if data["gate"] == "nor3":
            want = reference.delays_falling_n(
                paper_generalized(3, PAPER_TABLE_I), rows)
        elif data["direction"] == "falling":
            want = reference.delays_falling(PAPER_TABLE_I, rows[:, 0])
        else:
            want = reference.delays_rising(PAPER_TABLE_I, rows[:, 0],
                                           0.0)
        got = np.asarray(data["delays"], dtype=float)
        if got.shape != want.shape or not np.all(
                np.abs(got - want) <= DELAY_TOLERANCE):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# the program's counters
# ----------------------------------------------------------------------

def counter(name: str, **labels) -> float:
    """Sum a counter family of this process's metrics registry."""
    from repro.obs import metrics
    family = metrics.registry().get(name) or {}
    return sum(instrument.value for key, instrument in family.items()
               if all((k, v) in key for k, v in labels.items()))


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def scraped(text: str, name: str, **labels) -> float:
    """Sum a counter family of a Prometheus text exposition."""
    total = 0.0
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if not match or match.group(1) != name:
            continue
        tags = match.group(2) or ""
        if all(f'{k}="{v}"' in tags for k, v in labels.items()):
            total += float(match.group(3))
    return total


# ----------------------------------------------------------------------
# in-process closed loop (api_small)
# ----------------------------------------------------------------------

class Timing:
    """Start and completion times (``perf_counter``) of a stream."""

    def __init__(self, count: int):
        self.began = time.perf_counter()
        self.started = [0.0] * count
        self.finished = [0.0] * count

    def done(self, index: int, started: float, finished: float):
        self.started[index] = started
        self.finished[index] = finished

    @property
    def latencies(self) -> list:
        return [end - start
                for start, end in zip(self.started, self.finished)]

    @property
    def wall_s(self) -> float:
        return max(self.finished) - self.began


def new_session(seed: int):
    """A default session, warmed up on every shape."""
    from repro.api import Session
    session = Session()
    for _, envelope in warmup_stream(seed):
        session.run_json(envelope).to_json()
    return session


def api_loop(session, stream, checked):
    """Run the stream back to back on one thread.

    Returns ``(timing, tails, full)``: the :class:`Timing` of the
    requests (``run_json`` plus ``to_json`` each) and the reply
    material :func:`check_replies` reads.
    """
    timing = Timing(len(stream))
    tails, full = [], {}
    clock = time.perf_counter
    for index, (_, envelope) in enumerate(stream):
        started = clock()
        try:
            reply = session.run_json(envelope).to_json()
        except Exception:  # a failed request is counted, not fatal
            reply = None
        timing.done(index, started, clock())
        if reply is None:
            tails.append(None)
            continue
        tails.append(reply[-64:])
        if index in checked:
            full[index] = reply
    return timing, tails, full


def peak_rss_mb(pid="self") -> float:
    """A process's high-water resident set (``VmHWM``), MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def setup_probe(seed: int) -> None:
    """Child-process body of one ``api_small`` set-up measurement."""
    new_session(seed)
    print("ready", flush=True)


def probe_setup(env: dict, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a warm session."""
    code = ("import sys, workload; "
            "workload.setup_probe(int(sys.argv[1]))")
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(seed)],
                          env=env, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return ready - started


# ----------------------------------------------------------------------
# the repro serve child and the HTTP closed loop (http_small)
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """A ``repro serve`` child process on a free port.

    Started in its own process, so the load generator does not share
    its interpreter lock.  Stderr goes to a log file in *workdir*,
    which also holds the fresh batch-job store.
    """

    def __init__(self, env: dict, workdir: str, workers: int,
                 trace_path: "str | None" = None):
        os.makedirs(workdir)
        self.log_path = os.path.join(workdir, "serve.log")
        command = [sys.executable, "-m", "repro", "serve",
                   "--port", "0", "--run-workers", str(workers),
                   "--batch-workers", "1",
                   "--jobs-dir", os.path.join(workdir, "jobs")]
        if trace_path is not None:
            command += ["--trace", trace_path]
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL,
                stderr=log)
        self.port = self._wait_port(timeout=60.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                match = _LISTENING.search(log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve did not start")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def get(connection, path: str) -> bytes:
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    if response.status != 200:
        raise RuntimeError(f"GET {path} answered {response.status}")
    return body


def metrics_text(server) -> str:
    """The server's ``GET /v1/metrics`` exposition."""
    connection = server.connect()
    try:
        return get(connection, "/v1/metrics").decode()
    finally:
        connection.close()


def post_run(connection, envelope: str):
    connection.request("POST", "/v1/run", body=envelope.encode(),
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def start_server(env: dict, workdir: str, workers: int, seed: int,
                 trace_path: "str | None" = None):
    """Start a server and warm it up; returns ``(server, setup_s)``."""
    started = time.perf_counter()
    server = Server(env, workdir, workers, trace_path)
    try:
        connection = server.connect()
        get(connection, "/v1/health")
        for _, envelope in warmup_stream(seed):
            status, _ = post_run(connection, envelope)
            if status != 200:
                raise RuntimeError("warm-up request failed")
        connection.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def http_loop(server, stream, checked, connections: int,
              mark: bool = False):
    """Send the stream over *connections* keep-alive connections.

    Each connection is a client that waits for its reply before it
    sends the next request (closed loop); they share one queue of
    envelopes.  With *mark*, each connection first sends
    ``GET /v1/health``, one after the other, so server-side spans can
    be told apart by connection.

    Returns ``(timing, tails, full, sent)``; *sent* lists per
    connection the indices of the requests it sent, in order.
    """
    count = len(stream)
    tails: list = [None] * count
    full: dict = {}
    sent: list = [[] for _ in range(connections)]
    lock = threading.Lock()
    cursor = iter(range(count))
    clients = [server.connect() for _ in range(connections)]
    if mark:
        for client in clients:
            get(client, "/v1/health")
    errors: list = []

    def drive(slot: int) -> None:
        client = clients[slot]
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                status, body = post_run(client, stream[index][1])
                timing.done(index, started, time.perf_counter())
                sent[slot].append(index)
                if status == 200:
                    tails[index] = body[-64:].decode("utf-8", "replace")
                    if index in checked:
                        full[index] = body.decode("utf-8")
        except Exception as error:  # reported after the loop
            errors.append(error)

    threads = [threading.Thread(target=drive, args=(slot,))
               for slot in range(connections)]
    timing = Timing(count)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    if errors:
        raise RuntimeError(f"HTTP client failed: {errors[0]!r}")
    return timing, tails, full, sent


def probe_server_setup(env: dict, workdir: str, workers: int,
                       seed: int) -> float:
    """Seconds to start and warm up a server that is then stopped."""
    server, seconds = start_server(env, workdir, workers, seed)
    server.stop()
    return seconds
