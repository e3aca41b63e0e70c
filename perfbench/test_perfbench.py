"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs the tiny mode (``--seconds 1``) of each workload and of the traced
run, and checks the contract every run must keep.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import workload

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def _run(workload_name: str, seed: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
               "--workload", workload_name, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check(result: dict, metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_prints_every_metric_and_fails_nothing(name):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    _check(_run(name, 3, 0), spec["end_to_end"])


def test_tiny_traced_run_prints_every_layer_metric():
    _check(_run("api_small", 3, 1), _spec()["per_layer"])


def test_percentile_refuses_a_thin_tail():
    samples = [float(i) for i in range(1000)]
    assert run.percentile(samples, 99) == 989.0
    assert run.percentile(samples, 50) == 499.0
    with pytest.raises(ValueError):
        run.percentile(samples[:999], 99)
    with pytest.raises(ValueError):
        run.percentile(samples[:100], 99)


def test_seed_changes_inputs_not_shapes():
    first = workload.make_stream(1, 70)
    second = workload.make_stream(2, 70)
    assert [s for s, _ in first] == [s for s, _ in second]
    assert all(a != b for (_, a), (_, b) in zip(first, second))
    assert first == workload.make_stream(1, 70)
    following = workload.make_stream(1, 70, first=70)
    assert not {e for _, e in first} & {e for _, e in following}
    warm = {envelope for _, envelope in workload.warmup_stream(1)}
    assert not warm & {envelope for _, envelope in first}
