"""Run the repository benchmark: seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload qos_broker --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, both modes

``--trace 0`` measures the end-to-end metrics: a timed run in one fresh
interpreter (throughput, peak memory and the modelled-system figures),
which between its experiments starts fresh interpreters that stop at
the first simulated event (set-up time). ``--trace 1`` runs the workload's first model seed
untraced and then under the layer tracer, and reports the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``. The last
line of output is one JSON object; the exit code is 1 when an output
check fails and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Host seconds one workload's measurement may take before its worker
#: is killed and the run fails.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    """``BENCHMARK.json`` from the root of the checkout."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def worker(mode: str, workload: str, seed: int, seconds: float, tiny: bool,
           deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON report.

    The worker runs in a process group of its own, which is killed
    with every set-up worker it started if it is still running at
    *deadline* (``time.monotonic()``).
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError("no src/repro package next to the benchmark")
    env = dict(os.environ)
    # The first worker caches compiled bytecode in the checkout, so that
    # set-up time is import plus topology build, not compilation, in
    # every environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable, str(WORKER), mode, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{mode} worker for {workload} timed out") from exc
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} worker for {workload} failed:\n{tail}")
    return json.loads(lines[-1])


def show(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(workload: str, result: dict, specs: list) -> None:
    rates = result["rates"]
    print(
        f"[{workload}] timed: {len(rates)} experiments over "
        f"{len(result['sim_digest'])} model seeds, req/s {min(rates):.1f}.."
        f"{max(rates):.1f}, reference load {statistics.median(result['ref_s']):.4f}s; "
        f"set-up wall samples {', '.join(f'{s:.4f}' for s in result['setup_samples'])}"
    )
    informative = [
        ("req_per_host_s", "req/s"), ("setup_wall_s", "s"), ("error_ratio", "1"),
        ("resp_p50_sim_s", "sim_s"), ("resp_p99_sim_s", "sim_s"),
        ("resp_samples", "count"),
    ]
    for name, unit in [(s["name"], s["unit"]) for s in specs] + informative:
        print(f"  {name:<24} {show(result[name]):>14} {unit}")
    print(
        f"  requests: attempted {result['attempted']} = ok {result['ok']} + "
        f"degraded {result['degraded']} + errors {result['errors']} + in flight "
        f"{result['in_flight']}"
    )
    digests = " ".join(f"{s}:{d}" for s, d in result["sim_digest"].items())
    print(f"  sim_digest {digests}")


def report_per_layer(workload: str, result: dict, specs: list) -> None:
    print(
        f"[{workload}] traced: wall {result['wall_s']:.3f}s (untraced "
        f"{result['plain_wall_s']:.3f}s); layer self times + unattributed "
        f"{result['unattributed_s']:.4f}s = {result['accounted_s']:.3f}s"
    )
    for spec in specs:
        value = result["metrics"][spec["name"]]
        print(f"  {spec['name']:<32} {show(value):>14} {spec['unit']}")
    digests = " ".join(f"{s}:{d}" for s, d in result["sim_digest"].items())
    print(f"  sim_digest {digests} (untraced {result['untraced_digest']})")


def pick(metrics: dict, specs: list, prefix: str = "") -> dict:
    """The metrics *specs* names, as ``{"value": ..., "unit": ...}``."""
    return {
        prefix + s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
        for s in specs
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool, prefix: str = ""):
    """Measure one workload; returns ``(problems, attempted, failed, metrics)``."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        result = worker("traced", workload, seed, 0.0, tiny, deadline)
        report_per_layer(workload, result, spec["per_layer"])
        metrics = pick(result["metrics"], spec["per_layer"], prefix)
    else:
        result = worker("timed", workload, seed, seconds, tiny, deadline)
        report_end_to_end(workload, result, spec["end_to_end"])
        metrics = pick(result, spec["end_to_end"], prefix)
    problems = [f"{workload}: {p}" for p in result["problems"]]
    for p in problems:
        print(f"  CHECK FAILED {p}")
    for m in result["missed"]:
        print(f"  TARGET MISSED {workload}: {m}")
    return problems, result["attempted"], result["errors"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every workload to a smoke-test size",
    )
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.workload == "all":
            plan = [(w, t, f"{w}.") for w in names for t in (False, True)]
        elif args.workload in names:
            plan = [(args.workload, bool(args.trace), "")]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        problems, attempted, failed, metrics = [], 0, 0, {}
        for workload, trace, prefix in plan:
            p, a, f, m = run_one(
                spec, workload, args.seed, seconds, trace, args.tiny, prefix
            )
            problems += p
            attempted += a
            failed += f
            metrics.update(m)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
