"""Tests of the benchmark itself (not collected by the repository suite).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from layertrace import LAYERS, LayerTrace  # noqa: E402
from repro.workload.chaos import InvariantCheck  # noqa: E402
from workloads import WORKLOADS, Outcome, check_counts, invariant_verdicts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["metrics"] == {
        s["name"]: {"value": result["metrics"][s["name"]]["value"], "unit": s["unit"]}
        for s in specs
    }
    for spec in specs:
        assert f"  {spec['name']} " in proc.stdout
    if trace == "0":
        assert all(result["metrics"][s["name"]]["value"] > 0 for s in specs)


def test_layer_self_times_sum_to_traced_wall():
    trace = LayerTrace()
    with trace:
        outcome = WORKLOADS["qos_broker"](5, True)
    assert not outcome.problems
    accounted = sum(trace.self_s.values()) + trace.unattributed_s
    assert accounted == pytest.approx(trace.wall_s, rel=1e-6)
    assert trace.unattributed_s < 0.05 * trace.wall_s
    for layer in ("sim", "net", "core.pipeline", "frontend", "http", "workload"):
        assert trace.self_s[layer] > 0 and trace.calls[layer] > 0
    for layer in ("db", "obs", "core.cache", "core.autoscale"):
        assert trace.self_s[layer] == 0 and trace.calls[layer] == 0
    assert set(trace.self_s) == set(LAYERS)


def test_tracing_does_not_perturb_the_simulation():
    plain = WORKLOADS["cache_rw"](2, True)
    with LayerTrace():
        traced = WORKLOADS["cache_rw"](2, True)
    assert traced.digest() == plain.digest()


def test_generator_calls_count_once_per_call_not_per_resume():
    def two_yields():
        yield 1
        yield 2

    with LayerTrace(counted={"gen": [two_yields]}) as trace:
        for _ in range(3):
            list(two_yields())
    assert trace.counts == {"gen": 3}


def _outcome(**counts):
    base = dict(attempted=10, ok=6, degraded=4, errors=0, in_flight=0, samples=[0.1])
    base.update(counts)
    return Outcome(**base)


def test_check_accepts_counts_that_add_up():
    assert check_counts(_outcome(), 0) == []
    assert check_counts(_outcome(degraded=2, in_flight=2), 5) == []


@pytest.mark.parametrize(
    "counts, max_in_flight",
    [
        (dict(ok=7), 0),                      # one more answer than attempts
        (dict(degraded=3), 0),                # one attempt unaccounted for
        (dict(degraded=2, in_flight=2), 1),   # more in flight than clients
        (dict(degraded=3, errors=1), 0),      # adds up, but a request failed
        (dict(samples=[float("nan")]), 0),    # a response time that is no time
    ],
)
def test_check_rejects_bad_counts(counts, max_in_flight):
    assert check_counts(_outcome(**counts), max_in_flight)


def test_failed_invariants_fail_the_run_and_missed_targets_do_not():
    checks = [
        InvariantCheck("premium-p99", True, "met"),
        InvariantCheck("no-lost-request", False, "2 requests lost"),
        InvariantCheck("pool-efficiency", False, "mean size 3.01 <= 3.00"),
    ]
    problems, missed = invariant_verdicts(checks)
    assert problems == ["invariant no-lost-request FAILED: 2 requests lost"]
    assert missed == ["invariant pool-efficiency FAILED: mean size 3.01 <= 3.00"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "qos_broker", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
