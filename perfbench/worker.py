"""One measurement of one workload, in a fresh interpreter.

Run by ``run.py``, one process per measurement, so that imports and heap
of one measurement do not leak into another's numbers::

    python3 perfbench/worker.py setup  --workload W --seed N
    python3 perfbench/worker.py timed  --workload W --seed N --seconds S
    python3 perfbench/worker.py traced --workload W --seed N

A timed worker starts its own set-up workers, one after each of its
experiments. Prints one JSON object on its last line of output.
"""

import time

_T0 = time.perf_counter()  # first statement: set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402


#: Least number of set-up workers a timed worker runs; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 7


class _Ready(Exception):
    """Raised at the first ``Simulation.run``: the topology is built."""


def measure_setup(run_workload, seeds, tiny: bool) -> dict:
    """Host seconds from interpreter start-up to the first simulated event."""
    from repro.sim.core import Simulation

    def run(self, until=None):
        raise _Ready(perf_counter())

    Simulation.run = run
    try:
        run_workload(seeds[0], tiny)
    except _Ready as ready:
        return {"setup_wall_s": ready.args[0] - _T0}
    raise RuntimeError("workload never started its simulation")


def completed(outcome) -> int:
    """Requests that reached a terminal state."""
    return outcome.ok + outcome.degraded + outcome.errors


def percentile(ordered, q: float) -> float:
    """Nearest-rank *q*-th percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sample_setup(command) -> dict:
    """Run the set-up worker *command* and return its report."""
    proc = subprocess.run(command, capture_output=True, text=True, check=True,
                          timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_timed(run_workload, seeds, seconds: float, tiny: bool,
                  setup_command) -> dict:
    """Run the workload on *seeds* round-robin for about *seconds*.

    Every seed runs at least once; after that another run starts only
    while it is expected to end within *seconds*, judged by the median
    cost of the runs so far. The modelled-system figures pool the
    first run of each seed, and later runs of a seed must reproduce its
    digest exactly. The reference load is timed after every run; each
    run's requests per host second, times the mean reference time just
    before and after it, is its requests per reference-load time. Both
    throughputs are medians over all runs. Peak memory is read after
    the first run, before the reference load first runs.

    A set-up worker (*setup_command*) runs after every run, and more at
    the end up to :data:`SETUP_SAMPLES`, so that the set-up samples
    spread over the same stretch of the host's speed as the reference
    loads. ``setup_s`` is their median scaled to a host on which the
    reference load takes :data:`refload.NOMINAL_S`.
    """
    from refload import NOMINAL_S, time_reference

    first = {}
    rates = []
    refs = []
    ref_rates = []
    costs = []
    setups = []
    problems = []
    missed = []
    peak_mem_mb = 0.0
    start = perf_counter()
    while len(rates) < len(seeds) or (
        perf_counter() - start + statistics.median(costs) <= seconds
    ):
        model_seed = seeds[len(rates) % len(seeds)]
        gc.collect()
        began = perf_counter()
        outcome = run_workload(model_seed, tiny)
        wall = perf_counter() - began
        if not refs:
            peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome.seen = {}
        if model_seed not in first:
            first[model_seed] = outcome
            problems += [f"seed {model_seed}: {p}" for p in outcome.problems]
            missed += [f"seed {model_seed}: {m}" for m in outcome.missed]
        elif outcome.digest() != first[model_seed].digest():
            problems.append(f"seed {model_seed}: rerun digest differs")
        gc.collect()
        refs.append(time_reference())
        rates.append(completed(outcome) / wall)
        ref_rates.append(rates[-1] * statistics.mean(refs[-2:]))
        setups.append(sample_setup(setup_command)["setup_wall_s"])
        costs.append(perf_counter() - began)
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup(setup_command)["setup_wall_s"])
    setup_wall_s = statistics.median(setups)
    outcomes = list(first.values())
    samples = sorted(x for o in outcomes for x in o.samples)
    attempted = sum(o.attempted for o in outcomes)
    return {
        "rates": rates,
        "ref_s": refs,
        "req_per_host_s": statistics.median(rates),
        "req_per_ref": statistics.median(ref_rates),
        "peak_mem_mb": peak_mem_mb,
        "setup_s": setup_wall_s * NOMINAL_S / statistics.median(refs),
        "setup_wall_s": setup_wall_s,
        "setup_samples": setups,
        "attempted": attempted,
        "ok": sum(o.ok for o in outcomes),
        "degraded": sum(o.degraded for o in outcomes),
        "errors": sum(o.errors for o in outcomes),
        "in_flight": sum(o.in_flight for o in outcomes),
        "ok_ratio": sum(o.ok for o in outcomes) / attempted,
        "error_ratio": sum(o.errors for o in outcomes) / attempted,
        "resp_mean_sim_s": sum(samples) / len(samples),
        "resp_p50_sim_s": percentile(samples, 50),
        "resp_p99_sim_s": percentile(samples, 99),
        "resp_samples": len(samples),
        "sim_digest": {s: o.digest() for s, o in first.items()},
        "problems": problems,
        "missed": missed,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(trace, outcome, wall: float, plain_wall: float) -> dict:
    """The per-layer report of one traced run."""
    from layertrace import LAYERS
    from workloads import (
        BackendWebServer, BrokerPool, DatabaseServer, FrontendWebServer,
        ServiceBroker, TelemetryScraper, counter_total,
    )

    seen = outcome.seen
    extra = outcome.extra
    requests = completed(outcome)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = trace.self_s[layer]
        metrics[f"{layer}.share"] = trace.self_s[layer] / wall
        metrics[f"{layer}.calls"] = trace.calls[layer]
    per_req = {
        "sim.resumes_per_req": trace.resumes,
        "net.connects_per_req": trace.counts["connects"],
        "net.sends_per_req": trace.counts["sends"],
        "net.size_calls_per_req": trace.counts["size_calls"],
        "core.pipeline.self_us_per_req": trace.self_s["core.pipeline"] * 1e6,
        "metrics.calls_per_req": trace.calls["metrics"],
    }
    metrics.update({name: value / requests for name, value in per_req.items()})
    brokers = seen[ServiceBroker]
    admitted = counter_total(brokers, "broker.admitted")
    metrics["core.broker.admit_ratio"] = _ratio(
        admitted, admitted + counter_total(brokers, "broker.drops")
    )
    local_hits = extra.get("local_hits", 0)
    metrics["core.cache.local_hit_ratio"] = _ratio(
        local_hits, local_hits + extra.get("local_misses", 0)
    )
    tier_hits = extra.get("tier_hits", 0)
    metrics["core.cache.tier_hit_ratio"] = _ratio(
        tier_hits, tier_hits + extra.get("tier_misses", 0)
    )
    metrics["core.cache.wb_flush_ratio"] = _ratio(
        extra.get("wb_flushed", 0), extra.get("wb_accepted", 0)
    )
    frontends = seen[FrontendWebServer]
    metrics["frontend.refused_ratio"] = _ratio(
        counter_total(
            frontends, "frontend.rejected", "frontend.throttled",
            "frontend.throttle.rejected",
        ),
        counter_total(frontends, "frontend.requests"),
    )
    statements = counter_total(seen[DatabaseServer], "db.queries")
    metrics["db.statements"] = statements
    metrics["db.self_us_per_stmt"] = _ratio(trace.self_s["db"] * 1e6, statements)
    metrics["http.requests"] = counter_total(seen[BackendWebServer], "http.requests")
    scrapes = sum(scraper.scrapes for scraper in seen[TelemetryScraper])
    metrics["obs.scrapes"] = scrapes
    metrics["obs.self_us_per_scrape"] = _ratio(trace.self_s["obs"] * 1e6, scrapes)
    metrics["core.autoscale.scale_events"] = sum(
        pool.scale_out_events + pool.scale_in_events for pool in seen[BrokerPool]
    )
    metrics["core.autoscale.mean_pool"] = extra.get("mean_pool", 0.0)
    samples = sorted(outcome.samples)
    metrics["error_ratio"] = outcome.errors / outcome.attempted
    metrics["resp_p50_sim_s"] = percentile(samples, 50)
    metrics["resp_p99_sim_s"] = percentile(samples, 99)
    metrics["resp_samples"] = len(samples)
    metrics["trace.overhead_ratio"] = wall / plain_wall
    return metrics


def measure_traced(run_workload, seeds, tiny: bool) -> dict:
    """Run the first seed untraced, then traced, and attribute the latter."""
    from layertrace import LayerTrace
    from repro.net.message import estimate_size
    from repro.net.network import Node
    from repro.net.transport import DatagramSocket, StreamConnection

    model_seed = seeds[0]
    gc.collect()
    began = perf_counter()
    plain = run_workload(model_seed, tiny)
    plain_wall = perf_counter() - began
    plain.seen = {}
    gc.collect()
    trace = LayerTrace(
        counted={
            "connects": [Node.connect_stream],
            "sends": [StreamConnection.send, DatagramSocket.sendto],
            "size_calls": [estimate_size],
        }
    )
    began = perf_counter()
    with trace:
        traced = run_workload(model_seed, tiny)
    wall = perf_counter() - began
    problems = list(traced.problems)
    if traced.digest() != plain.digest():
        problems.append(
            f"traced digest {traced.digest()} != untraced {plain.digest()}"
        )
    accounted = sum(trace.self_s.values()) + trace.unattributed_s
    if abs(accounted - wall) > 0.01 * wall:
        problems.append(f"layer self times sum to {accounted:.3f}s of {wall:.3f}s")
    return {
        "metrics": layer_metrics(trace, traced, wall, plain_wall),
        "attempted": traced.attempted,
        "errors": traced.errors,
        "wall_s": wall,
        "plain_wall_s": plain_wall,
        "accounted_s": accounted,
        "unattributed_s": trace.unattributed_s,
        "sim_digest": {model_seed: traced.digest()},
        "untraced_digest": plain.digest(),
        "problems": problems,
        "missed": [f"seed {model_seed}: {m}" for m in traced.missed],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, model_seeds

    run_workload = WORKLOADS[args.workload]
    seeds = model_seeds(args.seed, args.tiny)
    if args.mode == "setup":
        report = measure_setup(run_workload, seeds, args.tiny)
    elif args.mode == "timed":
        setup_command = [
            sys.executable, __file__, "setup", "--workload", args.workload,
            "--seed", str(args.seed),
        ] + (["--tiny"] if args.tiny else [])
        report = measure_timed(
            run_workload, seeds, args.seconds, args.tiny, setup_command
        )
    else:
        report = measure_traced(run_workload, seeds, args.tiny)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
