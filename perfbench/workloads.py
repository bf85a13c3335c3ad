"""The benchmark's three seeded workloads and the checks on their output.

Each workload calls one of the package's experiment entry points and
turns what it returned, plus the public objects it built, into an
:class:`Outcome`: requests attempted, answered OK, degraded (dropped,
low-fidelity or throttled by design), failed, and the client response
times of answered requests. Nothing in ``src/`` is edited; the objects
the experiments do not return are collected by :func:`capture`, which
records every instance of a few public classes while a run is built.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

from repro.core.autoscale import BrokerPool
from repro.core.broker import ServiceBroker
from repro.db.server import DatabaseServer
from repro.frontend.server import FrontendWebServer
from repro.http.server import BackendWebServer
from repro.obs.telemetry import TelemetryScraper
from repro.workload.chaos import run_autoscale_experiment
from repro.workload.clients import ClosedLoopClient, OpenLoopGenerator
from repro.workload.scenarios import run_cache_tier_experiment, run_qos_experiment

#: Classes whose instances :func:`capture` records.
CAPTURED = (
    ClosedLoopClient,
    OpenLoopGenerator,
    FrontendWebServer,
    ServiceBroker,
    BackendWebServer,
    DatabaseServer,
    TelemetryScraper,
    BrokerPool,
)


@contextlib.contextmanager
def capture(classes=CAPTURED) -> Iterator[Dict[type, list]]:
    """Record every instance of *classes* constructed inside the block.

    Wraps each class's ``__init__`` for the duration of the block only;
    a subclass instance is recorded under the listed base it inherits
    ``__init__`` from.
    """
    seen: Dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__dict__["__init__"] for cls in classes}

    def recording(cls, original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen[cls].append(self)

        return __init__

    for cls, original in originals.items():
        cls.__init__ = recording(cls, original)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


@dataclass
class Outcome:
    """What one seeded run of a workload did, and whether it checks out."""

    attempted: int
    ok: int
    degraded: int
    errors: int
    #: Requests still running when the experiment's horizon ended.
    in_flight: int
    #: Client response times (simulated seconds) of answered requests.
    samples: List[float]
    #: Workload-specific results the per-layer report reads.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Objects built during the run, by captured class.
    seen: Dict[type, list] = field(default_factory=dict, repr=False)
    #: Failed output checks; empty when the run is correct.
    problems: List[str] = field(default_factory=list)
    #: Design targets the run missed (see :data:`TARGETS`); reported,
    #: but the run is still correct.
    missed: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """Hash of the seeded result; equal runs give equal digests."""
        body = [
            self.attempted, self.ok, self.degraded, self.errors, self.in_flight,
            [repr(x) for x in self.samples],
            sorted((k, repr(v)) for k, v in self.extra.items()),
        ]
        return hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16]


def check_counts(outcome: Outcome, max_in_flight: int) -> List[str]:
    """Problems with how *outcome*'s request counts add up."""
    problems = []
    total = outcome.ok + outcome.degraded + outcome.errors + outcome.in_flight
    if total != outcome.attempted:
        problems.append(
            f"ok {outcome.ok} + degraded {outcome.degraded} + errors "
            f"{outcome.errors} + in flight {outcome.in_flight} != attempted "
            f"{outcome.attempted}"
        )
    if not 0 <= outcome.in_flight <= max_in_flight:
        problems.append(
            f"in flight {outcome.in_flight} outside [0, {max_in_flight}]"
        )
    if min(outcome.ok, outcome.degraded, outcome.errors) < 0:
        problems.append("negative count")
    if outcome.attempted < 1:
        problems.append("no request attempted")
    if outcome.errors:
        problems.append(f"{outcome.errors} requests failed")
    if any(not math.isfinite(x) or x < 0 for x in outcome.samples):
        problems.append("response time not finite and >= 0")
    return problems


#: ``elastic_soak`` invariants that bound what the pool costs rather than
#: what happens to requests. ``pool-efficiency`` (mean pool size at most
#: 1.5x the steady-state size) is missed by a hundredth of a broker on a
#: few percent of model seeds. The benchmark prints such a miss and
#: reports the pool's size as ``core.autoscale.mean_pool`` instead of
#: calling the run incorrect.
TARGETS = frozenset({"pool-efficiency"})


def invariant_verdicts(invariants):
    """``(problems, missed)`` of a chaos run's failed invariants."""
    problems, missed = [], []
    for check in invariants:
        if not check.passed:
            line = f"invariant {check.name} FAILED: {check.detail}"
            (missed if check.name in TARGETS else problems).append(line)
    return problems, missed


def counter_total(objects, *names: str) -> int:
    """Sum of counters *names* over the distinct registries of *objects*."""
    registries = {id(obj.metrics): obj.metrics for obj in objects}
    return int(sum(reg.counter(name) for reg in registries.values() for name in names))


def run_qos_broker(seed: int, tiny: bool) -> Outcome:
    """The §V.B distributed-broker testbed (paper Figures 9-10)."""
    clients = 60
    with capture() as seen:
        result = run_qos_experiment(
            clients, mode="broker", duration=8.0 if tiny else 120.0, seed=seed
        )
    loops = seen[ClosedLoopClient]
    completed = sum(c.completed for c in loops)
    errors = sum(c.errors for c in loops)
    levels = sorted(result.completions)
    # Served pages as the front end counted them, independently of the
    # client loops: full fidelity, low fidelity, or refused at the door.
    frontends = seen[FrontendWebServer]
    ok = counter_total(frontends, *(f"app.fullfid.qos{lv}" for lv in levels))
    degraded = counter_total(
        frontends,
        "frontend.throttle.rejected",
        *(
            f"{name}.qos{lv}"
            for lv in levels
            for name in ("app.lowfid", "frontend.rejected", "frontend.throttled")
        ),
    )
    samples = [x for lv in levels for x in result.response_times[lv].values()]
    outcome = Outcome(
        attempted=completed + errors, ok=ok, degraded=degraded, errors=errors,
        in_flight=0, samples=samples, seen=seen,
    )
    outcome.problems = check_counts(outcome, 0)
    if len(loops) != clients:
        outcome.problems.append(f"{len(loops)} client loops, expected {clients}")
    if sum(result.completions.values()) != completed:
        outcome.problems.append("result completions != client completions")
    if sum(result.full_fidelity.values()) != ok:
        outcome.problems.append("result full-fidelity != front-end count")
    if len(samples) != completed:
        outcome.problems.append("response samples != completed requests")
    return outcome


def run_cache_rw(seed: int, tiny: bool) -> Outcome:
    """Zipf keyed reads and write-behind writes through a shared cache tier."""
    clients = 40 if tiny else 300
    with capture() as seen:
        result = run_cache_tier_experiment(
            n_clients=clients, duration=0.5 if tiny else 3.0, seed=seed
        )
    # Write-behind writes are accepted (answered OK) without a reply.
    attempted = result.requests + result.write_behind_accepted
    ok = result.ok + result.write_behind_accepted
    errors = result.errors + result.timeouts
    samples = result.latency.values()
    outcome = Outcome(
        attempted=attempted, ok=ok, degraded=0, errors=errors,
        in_flight=attempted - ok - errors, samples=samples, seen=seen,
        extra={
            "local_hits": result.local_hits,
            "local_misses": result.local_misses,
            "tier_hits": result.tier_hits,
            "tier_misses": result.tier_misses,
            "wb_accepted": result.write_behind_accepted,
            "wb_flushed": result.write_behind_flushed,
            "backend_queries": result.backend_queries,
        },
    )
    # Each closed-loop client has at most one request outstanding.
    outcome.problems = check_counts(outcome, clients)
    if result.write_behind_flushed > result.write_behind_accepted:
        outcome.problems.append(
            f"write-behind flushed {result.write_behind_flushed} > accepted "
            f"{result.write_behind_accepted}"
        )
    if len(samples) != result.ok:
        outcome.problems.append("latency samples != OK replies")
    return outcome


def run_elastic_soak(seed: int, tiny: bool) -> Outcome:
    """A diurnal open loop against an autoscaled, throttled pool."""
    with capture() as seen:
        result = run_autoscale_experiment(duration=120.0 if tiny else 240.0, seed=seed)
    issued = sum(g.issued for g in seen[OpenLoopGenerator])
    samples = [x for lv in sorted(result.latency) for x in result.latency[lv].values()]
    outcome = Outcome(
        attempted=issued,
        ok=result.ok,
        degraded=result.degraded + result.throttled + result.dropped,
        errors=result.timeouts + result.errors,
        in_flight=0,
        samples=samples,
        seen=seen,
        extra={
            "scale_events": result.scale_outs + result.scale_ins,
            "mean_pool": result.mean_size,
        },
    )
    outcome.problems = check_counts(outcome, 0)
    if result.requests != issued:
        outcome.problems.append(
            f"{result.requests} requests recorded, {issued} issued"
        )
    problems, outcome.missed = invariant_verdicts(result.invariants)
    outcome.problems += problems
    if len(samples) != result.ok + result.degraded:
        outcome.problems.append("latency samples != answered replies")
    return outcome


#: Model seeds per benchmark run; the modelled-system metrics pool their
#: samples so that one run's figures do not hinge on one seed.
MODEL_SEEDS = 4


def model_seeds(seed: int, tiny: bool = False) -> List[int]:
    """The model seeds a benchmark run with seed *seed* uses."""
    count = 1 if tiny else MODEL_SEEDS
    return [seed * count + i for i in range(count)]


#: Each workload's runner, by name. Why each workload was chosen is
#: recorded in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Callable[[int, bool], Outcome]] = {
    "qos_broker": run_qos_broker,
    "cache_rw": run_cache_rw,
    "elastic_soak": run_elastic_soak,
}
