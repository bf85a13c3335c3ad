"""Overload and chaos testbeds for the robustness features.

* :func:`run_overload_experiment` — drives one broker past saturation
  with open-loop Poisson traffic and compares the bounded-queue
  backpressure configuration against the unprotected baseline (the
  paper's binary forward-or-drop testbed: FCFS, unbounded backlog).
  The claim under test: with QoS-aware shedding, premium goodput at
  2× saturation stays within a few percent of the uncontended run,
  while the unprotected broker's premium latency collapses.
* :func:`run_chaos_experiment` — a seeded chaos soak: two replica
  brokers under a :class:`~repro.core.lifecycle.BrokerSupervisor`
  while a :class:`~repro.net.faults.FaultInjector` replays broker
  crash/restart cycles, link flaps, and open-loop load spikes on top
  of a steady closed-loop workload. The run ends with a set of
  machine-checked :class:`InvariantCheck` verdicts (no request lost
  without a reply, post-crash accounting consistent, queue bound
  respected, availability floor met).
* :func:`run_shard_chaos_experiment` — the shard-tier soak: one
  service fronted by N shards × R replica brokers
  (:mod:`repro.core.sharding`) while a leader-killer process crashes
  the *current leader* of a rotating shard every ``leader_kill_every``
  seconds. Clients address the service through the
  :class:`~repro.core.sharding.ShardDirectory` and must ride each
  bully election; the verdicts add leadership convergence to the
  no-lost-request / post-crash / availability checks.
* :func:`run_autoscale_experiment` — the elastic-pool headline: a
  10× diurnal swing plus a throttled tenant's flash crowds against a
  :class:`~repro.core.autoscale.BrokerPool` driven by an
  :class:`~repro.core.autoscale.Autoscaler` (telemetry-fed,
  SLO-vetoed). Verdicts: premium p99 held, pool efficiency vs static
  provisioning, throttle containment, and no lost request across
  every graceful drain.
* :func:`run_scale_chaos_experiment` — the scale-chaos soak: a square
  wave forces the pool through dozens of scale-in drains while a
  sniper process crashes brokers *mid-drain*; the drain protocol must
  resume after each resurrection and still never lose a request.

All are plain functions returning result dataclasses; the ``repro
chaos`` / ``repro autoscale`` CLIs and the matching benchmarks render
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.adapters import HttpAdapter
from ..core.autoscale import (
    Autoscaler,
    AutoscalerPolicy,
    BrokerPool,
    TenantThrottle,
)
from ..core.broker import ServiceBroker
from ..core.cache import ResultCache
from ..core.client import BrokerClient
from ..core.faulttolerance import RetryPolicy
from ..core.lifecycle import BrokerSupervisor, RecoveryJournal
from ..core.peering import ShardPeerGroup
from ..core.pipeline import (
    BackpressureStage,
    CircuitBreakerStage,
    RetryStage,
    ShardRouteStage,
    ThrottleStage,
    TimeoutBudgetStage,
    compose_stages,
)
from ..core.protocol import ReplyStatus
from ..core.qos import QoSPolicy
from ..core.sharding import ShardDirectory, ShardGroup
from ..errors import BrokerError, BrokerTimeout
from ..http.messages import HttpResponse
from ..http.server import BackendWebServer
from ..metrics import MetricsRegistry, SummaryStats
from ..net.faults import BrokerCrash, FaultInjector, FaultPlan, LinkDown
from ..net.link import Link
from ..net.network import Network
from ..sim.core import Simulation
from .clients import (
    ClosedLoopClient,
    DiurnalLoadGenerator,
    FlashCrowdGenerator,
    OpenLoopGenerator,
)

__all__ = [
    "OverloadResult",
    "run_overload_experiment",
    "InvariantCheck",
    "ChaosResult",
    "run_chaos_experiment",
    "ShardChaosResult",
    "run_shard_chaos_experiment",
    "AutoscaleResult",
    "run_autoscale_experiment",
    "ScaleChaosResult",
    "run_scale_chaos_experiment",
]


# ---------------------------------------------------------------------------
# Overload / backpressure ablation
# ---------------------------------------------------------------------------


@dataclass
class OverloadResult:
    """One overload run: per-class goodput and latency under saturation."""

    saturation: float
    bounded: bool
    capacity: Optional[int]
    shed_policy: str
    duration: float
    #: Offered Poisson rate per QoS class (requests/second).
    offered: Dict[int, float] = field(default_factory=dict)
    issued: Dict[int, int] = field(default_factory=dict)
    ok: Dict[int, int] = field(default_factory=dict)
    degraded: Dict[int, int] = field(default_factory=dict)
    dropped: Dict[int, int] = field(default_factory=dict)
    #: OK replies delivered inside the issue window, per second.
    goodput: Dict[int, float] = field(default_factory=dict)
    #: Latency of OK replies only (sheds answer instantly and would
    #: otherwise flatter the protected configuration).
    latency: Dict[int, SummaryStats] = field(default_factory=dict)
    shed: int = 0
    peak_depth: int = 0
    backpressure_engaged: int = 0

    @property
    def premium_goodput(self) -> float:
        """Class-1 goodput (the paper's premium customers)."""
        return self.goodput.get(1, 0.0)

    def premium_p99(self) -> float:
        """99th-percentile latency of class-1 OK replies."""
        stats = self.latency.get(1)
        return stats.percentile(99.0) if stats is not None else float("nan")


def run_overload_experiment(
    saturation: float = 2.5,
    bounded: bool = True,
    capacity: int = 40,
    shed_policy: str = "drop-lowest",
    premium_rate: float = 8.0,
    duration: float = 30.0,
    drain: float = 90.0,
    service_time: float = 0.1,
    backend_capacity: int = 4,
    seed: int = 0,
) -> OverloadResult:
    """Offer ``saturation × μ`` Poisson traffic to one broker.

    The backend serves ``μ = backend_capacity / service_time`` requests
    per second. Class 1 (premium) is offered at the fixed
    *premium_rate* regardless of *saturation*; classes 2 and 3 split
    the remainder — so across runs the premium demand is identical and
    only the background pressure changes.

    With ``bounded=True`` the broker runs
    the distributed plan plus a
    :class:`~repro.core.pipeline.BackpressureStage`:
    priority queueing plus a *capacity*-bounded queue shedding per
    *shed_policy*. With ``bounded=False`` it runs the unprotected
    baseline — the paper's binary forward-or-drop testbed (§III): FCFS
    service order and an unbounded backlog, so every admitted request
    waits behind the entire queue.

    Requests are uncacheable and carry no timeout: every request gets
    exactly one terminal reply (OK, or an immediate shed/busy DROPPED),
    which keeps the goodput accounting exact. *drain* extends the run
    after arrivals stop so the unbounded backlog can empty.
    """
    if saturation <= 0:
        raise ValueError(f"saturation must be > 0: {saturation!r}")
    if premium_rate <= 0:
        raise ValueError(f"premium_rate must be > 0: {premium_rate!r}")
    sim = Simulation(seed=seed)
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")
    backend_node = net.node("backend1")
    server = BackendWebServer(
        sim, backend_node, max_clients=backend_capacity, name="backend1"
    )

    def item_cgi(server, request):
        yield server.sim.timeout(service_time * server.service_time_scale)
        return HttpResponse.text(f"item={request.param('id', '?')}")

    server.add_cgi("/item", item_cgi)

    qos = QoSPolicy(levels=3, threshold=10_000)  # isolate the queue bound
    broker = ServiceBroker(
        sim,
        web_node,
        service="items",
        adapters=[HttpAdapter(sim, web_node, server.address, name=server.name)],
        qos=qos,
        pool_size=backend_capacity,
        priority_queueing=bounded,
        name="overload-broker",
        stages=compose_stages(
            BackpressureStage(capacity, shed_policy=shed_policy) if bounded else None
        ),
    )
    broker_client = BrokerClient(sim, web_node, {"items": broker.address})

    mu = backend_capacity / service_time
    total = saturation * mu
    background = max(total - premium_rate, 0.0) / 2.0
    offered = {1: premium_rate, 2: background, 3: background}

    samples: Dict[int, List[Tuple[float, str, float, float]]] = {
        level: [] for level in offered
    }

    def make_factory(level: int):
        def one_request(_generator, index):
            issued = sim.now
            reply = yield from broker_client.call(
                "items",
                "get",
                ("/item", {"id": index}),
                qos_level=level,
                cacheable=False,
            )
            samples[level].append(
                (issued, reply.status.value, sim.now, sim.now - issued)
            )

        return one_request

    for level, rate in offered.items():
        if rate <= 0:
            continue
        OpenLoopGenerator(
            sim,
            name=f"overload.qos{level}",
            request_factory=make_factory(level),
            rate=rate,
            rng_stream=f"overload.arrivals.qos{level}",
        ).start(until=duration)

    sim.run(until=duration)
    sim.run(until=duration + drain)  # let the backlog empty

    result = OverloadResult(
        saturation=saturation,
        bounded=bounded,
        capacity=capacity if bounded else None,
        shed_policy=shed_policy if bounded else "none",
        duration=duration,
    )
    result.offered = offered
    for level, entries in samples.items():
        stats = SummaryStats()
        in_window = 0
        counts = {"ok": 0, "degraded": 0, "dropped": 0}
        for _issued, status, completed, elapsed in entries:
            if status == ReplyStatus.OK.value:
                counts["ok"] += 1
                stats.add(elapsed)
                if completed <= duration:
                    in_window += 1
            elif status == ReplyStatus.DEGRADED.value:
                counts["degraded"] += 1
            else:
                counts["dropped"] += 1
        result.issued[level] = len(entries)
        result.ok[level] = counts["ok"]
        result.degraded[level] = counts["degraded"]
        result.dropped[level] = counts["dropped"]
        result.goodput[level] = in_window / duration
        result.latency[level] = stats
    result.shed = broker.queue.shed_count
    result.peak_depth = broker.queue.peak_depth
    result.backpressure_engaged = int(
        broker.metrics.counter("broker.backpressure.engaged")
    )
    return result


# ---------------------------------------------------------------------------
# Chaos soak
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantCheck:
    """One machine-checked invariant verdict from a chaos run."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosResult:
    """Everything a chaos soak observed, plus its invariant verdicts."""

    duration: float
    seed: int
    capacity: int
    shed_policy: str
    mtbf: float
    mttr: float
    # Steady (closed-loop) workload outcome counts.
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    dropped: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Requests answered by the replica broker after the first choice
    #: failed (timeout or DROPPED).
    failovers: int = 0
    latency: SummaryStats = field(default_factory=SummaryStats)
    # Spike (open-loop burst) outcome counts.
    spike_requests: int = 0
    spike_ok: int = 0
    spike_degraded: int = 0
    spike_dropped: int = 0
    spike_timeouts: int = 0
    # Lifecycle accounting.
    crashes: int = 0
    restarts: int = 0
    detected: int = 0
    recoveries: int = 0
    failed_fast: int = 0
    replayed: int = 0
    restart_shed: int = 0
    shed_total: int = 0
    link_faults: int = 0
    #: Per-broker deepest backlog ever observed.
    peak_depths: Dict[str, int] = field(default_factory=dict)
    #: Per-broker end-of-run residue (queue depth, outstanding, journal).
    residue: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Answered fraction of the steady workload (OK + DEGRADED)."""
        if not self.requests:
            return 1.0
        return (self.ok + self.degraded) / self.requests

    @property
    def all_invariants_hold(self) -> bool:
        """True when every invariant check passed."""
        return all(check.passed for check in self.invariants)

    def to_summary(self) -> Dict[str, object]:
        """A JSON-safe summary (the CI artifact / ``--summary-out``)."""
        return {
            "duration": self.duration,
            "seed": self.seed,
            "capacity": self.capacity,
            "shed_policy": self.shed_policy,
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "requests": self.requests,
            "ok": self.ok,
            "degraded": self.degraded,
            "dropped": self.dropped,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "failovers": self.failovers,
            "availability": round(self.availability, 6),
            "latency_p50": round(self.latency.percentile(50.0), 6)
            if self.latency.count
            else None,
            "latency_p99": round(self.latency.percentile(99.0), 6)
            if self.latency.count
            else None,
            "spike_requests": self.spike_requests,
            "spike_ok": self.spike_ok,
            "spike_degraded": self.spike_degraded,
            "spike_dropped": self.spike_dropped,
            "spike_timeouts": self.spike_timeouts,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "detected": self.detected,
            "recoveries": self.recoveries,
            "failed_fast": self.failed_fast,
            "replayed": self.replayed,
            "restart_shed": self.restart_shed,
            "shed_total": self.shed_total,
            "link_faults": self.link_faults,
            "peak_depths": dict(self.peak_depths),
            "residue": {name: dict(info) for name, info in self.residue.items()},
            "invariants": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.invariants
            ],
        }


def run_chaos_experiment(
    duration: float = 300.0,
    mtbf: float = 25.0,
    mttr: float = 2.0,
    capacity: int = 48,
    shed_policy: str = "drop-lowest",
    recovery_policy: str = "replay",
    n_clients: int = 10,
    think_time: float = 0.05,
    attempt_timeout: float = 1.0,
    spike_every: float = 90.0,
    spike_duration: float = 8.0,
    spike_rate: float = 100.0,
    blip_mttr: float = 0.08,
    key_pool: int = 512,
    cache_ttl: float = 0.5,
    service_time: float = 0.1,
    backend_capacity: int = 5,
    availability_floor: float = 0.99,
    fast_threshold: float = 0.5,
    seed: int = 0,
    telemetry=None,
) -> ChaosResult:
    """A seeded chaos soak over two replica brokers.

    Topology: two brokers (``chaos-a``/``chaos-b``, services
    ``items-a``/``items-b``) each front the same two backend web
    servers, run the fault-tolerant stage plan hardened with a
    *capacity*-bounded :class:`~repro.core.pipeline.BackpressureStage`,
    and are watched by a :class:`~repro.core.lifecycle.BrokerSupervisor`
    (heartbeats + per-broker :class:`~repro.core.lifecycle.RecoveryJournal`
    with *recovery_policy*).

    Chaos, all on dedicated RNG substreams so runs are reproducible:

    * broker crash/restart cycles — ``Exp(1/mtbf)`` time-to-failure,
      fixed *mttr*, independent schedules per broker (broker B fails
      at ~1.8× A's MTBF so double-failures stay rare but possible);
    * crash *blips* — two extra crashes of broker B healing in
      *blip_mttr* seconds, faster than heartbeat detection, so the
      journal's **replay** recovery path runs (slow crashes are always
      consumed by the supervisor's fail-fast first);
    * link flaps — short :class:`~repro.net.faults.LinkDown` windows
      between the web host and the second backend;
    * load spikes — open-loop class-3 bursts of *spike_rate*/s for
      *spike_duration* seconds every *spike_every* seconds.

    The steady workload is *n_clients* closed-loop clients cycling
    through the three QoS classes over a *key_pool* of cacheable items;
    each request tries one broker (alternating per client) and fails
    over to the replica on timeout or a DROPPED reply.

    After a generous drain the run is scored against four invariants
    (see :class:`InvariantCheck` entries on the result): every request
    answered and all journals/queues/ledgers empty; post-crash
    accounting consistent (restarts match crashes, recovery paths sum);
    queue bound never exceeded; steady-workload availability at or
    above *availability_floor*.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1: {n_clients!r}")
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    backends: List[BackendWebServer] = []
    for index in range(1, 3):
        node = net.node(f"backend{index}")
        server = BackendWebServer(
            sim, node, max_clients=backend_capacity, name=f"backend{index}"
        )

        def item_cgi(server, request):
            yield server.sim.timeout(service_time * server.service_time_scale)
            return HttpResponse.text(f"item={request.param('id', '?')}")

        server.add_cgi("/item", item_cgi)
        backends.append(server)

    qos = QoSPolicy(
        levels=3,
        threshold=10_000,  # backpressure, not admission, does the shedding
        deadlines={1: 1.0, 2: 1.5, 3: 2.0},
    )
    brokers: Dict[str, ServiceBroker] = {}
    services: List[str] = []
    for index, suffix in enumerate("ab"):
        service = f"items-{suffix}"
        brokers[f"chaos-{suffix}"] = ServiceBroker(
            sim,
            web_node,
            service=service,
            adapters=[
                HttpAdapter(sim, web_node, server.address, name=server.name)
                for server in backends
            ],
            port=7000 + index,
            qos=qos,
            cache=ResultCache(
                capacity=4 * key_pool, ttl=cache_ttl, clock=lambda: sim.now
            ),
            pool_size=backend_capacity,
            dispatchers=backend_capacity * len(backends),
            metrics=metrics,
            name=f"chaos-{suffix}",
            stages=compose_stages(
                TimeoutBudgetStage(),
                CircuitBreakerStage(reset_timeout=0.5),
                RetryStage(RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.5)),
                BackpressureStage(capacity, shed_policy=shed_policy),
            ),
        )
        services.append(service)

    supervisor = BrokerSupervisor(sim, web_node, metrics=metrics)
    watches = {
        name: supervisor.watch(
            broker,
            journal=RecoveryJournal(sim, policy=recovery_policy, metrics=metrics),
        )
        for name, broker in brokers.items()
    }

    broker_client = BrokerClient(
        sim,
        web_node,
        {broker.service: broker.address for broker in brokers.values()},
    )

    # Chaos schedule: two independent crash cycles plus link flaps.
    plan = FaultPlan.broker_crash_cycle(
        "chaos-a", mtbf=mtbf, mttr=mttr, until=duration,
        rng=sim.rng("chaos.crash.a"),
    )
    for fault in FaultPlan.broker_crash_cycle(
        "chaos-b", mtbf=mtbf * 1.8, mttr=mttr, until=duration,
        rng=sim.rng("chaos.crash.b"),
    ):
        plan.add(fault)
    if blip_mttr > 0:
        # Instant-restart crashes: the broker is back before the
        # supervisor's miss timeout, so restart() itself replays the
        # journaled work instead of the supervisor failing it fast.
        for fraction in (0.35, 0.75):
            plan.add(
                BrokerCrash(
                    target="chaos-b",
                    at=duration * fraction,
                    duration=blip_mttr,
                )
            )
    link_faults = 0
    flap_at = duration * 0.2
    while flap_at < duration:
        plan.add(LinkDown(a="web", b="backend2", at=flap_at, duration=0.5))
        link_faults += 1
        flap_at += duration * 0.3
    injector = FaultInjector(
        sim, plan, network=net, targets=dict(brokers), metrics=metrics
    )
    injector.start()

    # Always-on workload outcome counters. Pure counting with no
    # scheduling or RNG impact, so seeded outputs are unchanged; the
    # telemetry scraper reads these for the chaos SLOs ("workload.done"
    # counts every terminal outcome including spike traffic, which the
    # availability-floor invariant deliberately excludes). The sample
    # lists below stay the source of truth for the result dataclass.
    _ok = ReplyStatus.OK.value
    _degraded = ReplyStatus.DEGRADED.value
    _dropped = ReplyStatus.DROPPED.value

    def count_outcome(status: str, elapsed: Optional[float]) -> None:
        metrics.increment("workload.done")
        if status == _ok:
            metrics.increment("workload.ok")
        elif status == _degraded:
            metrics.increment("workload.degraded")
        elif status == _dropped:
            metrics.increment("workload.dropped")
        elif status == "timeout":
            metrics.increment("workload.timeout")
        else:
            metrics.increment("workload.error")
        if status in (_ok, _degraded):
            metrics.increment("workload.answered")
            if elapsed is not None and elapsed <= fast_threshold:
                metrics.increment("workload.fast")

    # Steady closed-loop workload with one-hop failover.
    samples: List[Tuple[float, str, float, bool]] = []
    key_rng = sim.rng("chaos.keys")
    stagger_rng = sim.rng("chaos.stagger")
    for index in range(n_clients):
        net.node(f"client{index}")  # a distinct host per client
        level = (index % qos.levels) + 1
        order = (
            (services[0], services[1])
            if index % 2 == 0
            else (services[1], services[0])
        )

        def one_request(_client, _iteration, _level=level, _order=order):
            issued = sim.now
            item = key_rng.randrange(key_pool)
            status = "error"
            failed_over = False
            for attempt, service in enumerate(_order):
                try:
                    reply = yield from broker_client.call(
                        service,
                        "get",
                        ("/item", {"id": item}),
                        qos_level=_level,
                        timeout=attempt_timeout,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    continue
                status = reply.status.value
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    failed_over = attempt > 0
                    break
            elapsed = sim.now - issued
            samples.append((issued, status, elapsed, failed_over))
            count_outcome(status, elapsed)

        ClosedLoopClient(
            sim,
            name=f"chaos{index}",
            request_factory=one_request,
            think_time=think_time,
            start_delay=stagger_rng.uniform(0.0, 1.0),
        ).start(until=duration)

    # Load spikes: open-loop class-3 bursts, alternating target broker.
    spike_samples: List[str] = []
    spike_rng = sim.rng("chaos.spike.keys")

    def spike_request(_generator, index):
        issued = sim.now
        service = services[index % len(services)]
        item = spike_rng.randrange(key_pool)
        try:
            reply = yield from broker_client.call(
                service,
                "get",
                ("/item", {"id": item}),
                qos_level=qos.levels,
                timeout=attempt_timeout,
            )
        except BrokerTimeout:
            spike_samples.append("timeout")
            count_outcome("timeout", None)
            return
        spike_samples.append(reply.status.value)
        count_outcome(reply.status.value, sim.now - issued)

    def spike_driver():
        spike_at = spike_every / 2.0
        count = 0
        while spike_at < duration:
            yield spike_at - sim.now
            count += 1
            end = min(spike_at + spike_duration, duration)
            sim.trace("chaos", "spike", at=sim.now, until=end, rate=spike_rate)
            OpenLoopGenerator(
                sim,
                name=f"chaos.spike{count}",
                request_factory=spike_request,
                rate=spike_rate,
                rng_stream=f"chaos.spike{count}",
            ).start(until=end)
            spike_at += spike_every

    if spike_rate > 0 and spike_every > 0:
        sim.process(spike_driver(), name="chaos:spikes")

    if telemetry is not None:
        # Purely observational (no RNG, no messages): the soak below is
        # identical with or without the scraper.
        telemetry.attach(sim)
        telemetry.watch_registry(metrics, prefix="workload.")
        telemetry.watch_registry(metrics, prefix="broker.")
        telemetry.watch_registry(metrics, prefix="lifecycle.")
        for broker in brokers.values():
            telemetry.watch_broker(broker)
        telemetry.start(until=duration)

    sim.run(until=duration)
    # Drain: open fault windows heal, restarts replay, replies land.
    sim.run(until=duration + mttr + 30.0)

    result = ChaosResult(
        duration=duration,
        seed=seed,
        capacity=capacity,
        shed_policy=shed_policy,
        mtbf=mtbf,
        mttr=mttr,
    )
    for _issued, status, elapsed, failed_over in samples:
        result.requests += 1
        result.latency.add(elapsed)
        if failed_over:
            result.failovers += 1
        if status == ReplyStatus.OK.value:
            result.ok += 1
        elif status == ReplyStatus.DEGRADED.value:
            result.degraded += 1
        elif status == ReplyStatus.DROPPED.value:
            result.dropped += 1
        elif status == "timeout":
            result.timeouts += 1
        else:
            result.errors += 1
    for status in spike_samples:
        result.spike_requests += 1
        if status == ReplyStatus.OK.value:
            result.spike_ok += 1
        elif status == ReplyStatus.DEGRADED.value:
            result.spike_degraded += 1
        elif status == "timeout":
            result.spike_timeouts += 1
        else:
            result.spike_dropped += 1

    counter = metrics.counter
    result.crashes = int(counter("broker.crashes"))
    result.restarts = int(counter("broker.restarts"))
    result.detected = sum(watch.detected for watch in watches.values())
    result.recoveries = sum(watch.recoveries for watch in watches.values())
    result.failed_fast = int(counter("lifecycle.failed_fast"))
    result.replayed = int(counter("lifecycle.replayed"))
    result.restart_shed = int(counter("lifecycle.restart_shed"))
    result.shed_total = int(counter("broker.shed"))
    result.link_faults = link_faults
    for name, broker in brokers.items():
        result.peak_depths[name] = broker.queue.peak_depth
        journal = broker.journal
        result.residue[name] = {
            "queue_depth": len(broker.queue),
            "outstanding": broker.admission.outstanding,
            "journal_pending": journal.pending_count if journal else 0,
        }

    # -- invariants --------------------------------------------------------
    lost = [
        (name, info)
        for name, info in result.residue.items()
        if info["queue_depth"] or info["outstanding"] or info["journal_pending"]
    ]
    answered = (
        result.ok
        + result.degraded
        + result.dropped
        + result.timeouts
        + result.errors
    )
    result.invariants.append(
        InvariantCheck(
            name="no-lost-request",
            passed=not lost and answered == result.requests,
            detail=(
                f"{result.requests} requests all terminal; residue "
                + (
                    "clean"
                    if not lost
                    else "; ".join(f"{name}: {info}" for name, info in lost)
                )
            ),
        )
    )
    dead = [name for name, broker in brokers.items() if not broker.alive]
    accounting_ok = (
        result.restarts == result.crashes
        and not dead
        and all(watch.up for watch in watches.values())
    )
    result.invariants.append(
        InvariantCheck(
            name="post-crash-consistency",
            passed=accounting_ok,
            detail=(
                f"crashes={result.crashes} restarts={result.restarts} "
                f"failed_fast={result.failed_fast} replayed={result.replayed} "
                f"restart_shed={result.restart_shed}"
                + (f"; still dead: {dead}" if dead else "")
            ),
        )
    )
    over = {
        name: depth
        for name, depth in result.peak_depths.items()
        if depth > capacity
    }
    result.invariants.append(
        InvariantCheck(
            name="queue-bound",
            passed=not over,
            detail=(
                f"peak depths {result.peak_depths} vs capacity {capacity}"
            ),
        )
    )
    result.invariants.append(
        InvariantCheck(
            name="availability-floor",
            passed=result.availability >= availability_floor,
            detail=(
                f"availability {result.availability:.4f} "
                f"(floor {availability_floor:.4f}; "
                f"ok={result.ok} degraded={result.degraded} "
                f"dropped={result.dropped} timeouts={result.timeouts})"
            ),
        )
    )
    return result


# ---------------------------------------------------------------------------
# Shard-leader chaos soak
# ---------------------------------------------------------------------------


@dataclass
class ShardChaosResult(ChaosResult):
    """A :class:`ChaosResult` plus the shard tier's own accounting."""

    shards: int = 0
    replicas: int = 0
    #: Leader crashes the killer process actually landed.
    leader_kills: int = 0
    #: Bully elections run across all shard groups.
    elections: int = 0
    #: ``RouteAdvert`` messages applied at receiving brokers.
    route_adverts: int = 0
    #: ``JournalSync`` messages applied at receiving replicas.
    journal_syncs: int = 0
    #: Reporting-role moves the load listener observed.
    leader_failovers: int = 0
    #: Requests relayed broker→broker by the ShardRouteStage.
    forwards: int = 0

    def to_summary(self) -> Dict[str, object]:
        """The base summary extended with the shard-tier fields."""
        summary = super().to_summary()
        summary.update(
            {
                "shards": self.shards,
                "replicas": self.replicas,
                "leader_kills": self.leader_kills,
                "elections": self.elections,
                "route_adverts": self.route_adverts,
                "journal_syncs": self.journal_syncs,
                "leader_failovers": self.leader_failovers,
                "forwards": self.forwards,
            }
        )
        return summary


def run_shard_chaos_experiment(
    duration: float = 300.0,
    shards: int = 8,
    replicas: int = 2,
    leader_kill_every: float = 25.0,
    mttr: float = 2.0,
    n_clients: int = 10,
    think_time: float = 0.05,
    attempt_timeout: float = 0.75,
    max_tries: int = 3,
    key_pool: int = 512,
    service_time: float = 0.1,
    backend_capacity: int = 5,
    report_interval: float = 0.1,
    availability_floor: float = 0.99,
    seed: int = 0,
) -> ShardChaosResult:
    """A seeded soak that assassinates shard leaders on a fixed cadence.

    Topology: one service (``items``) fronted by *shards* ×
    *replicas* brokers. Each shard owns its own backend web server (its
    partition); every broker runs the distributed plan with a
    :class:`~repro.core.pipeline.ShardRouteStage`, is watched by a
    :class:`~repro.core.lifecycle.BrokerSupervisor` with a
    :class:`~repro.core.lifecycle.RecoveryJournal`, and joins its
    shard's :class:`~repro.core.peering.ShardPeerGroup` (so journal
    transitions replicate intra-shard and elections broadcast
    ``RouteAdvert`` gossip service-wide). Every replica also streams
    leader-only :class:`~repro.core.centralized.ShardLoadReport`
    updates to a :class:`~repro.core.centralized.LoadListener`, so the
    run observes the reporting role failing over with each election.

    The killer process crashes the *current leader* of a rotating
    shard every *leader_kill_every* seconds and restarts the corpse
    after *mttr* — by which time a bully election has promoted the
    next replica, so the returning broker re-takes the shard (a
    takeover election) and the cycle repeats on another shard.

    Clients resolve through the :class:`~repro.core.sharding.ShardDirectory`
    (service addressing) and retry up to *max_tries* times on a
    timeout or a DROPPED reply; each retry re-resolves the leader, so
    surviving an assassination is exactly one retry against the fresh
    replica. Verdicts: no-lost-request, post-crash-consistency,
    availability-floor (as the plain soak) plus leadership-convergence
    — every shard ends the run with a live, routable leader and at
    least one election per landed kill.
    """
    if shards < 1 or replicas < 1:
        raise ValueError(
            f"shards and replicas must be >= 1: {shards!r}x{replicas!r}"
        )
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1: {n_clients!r}")
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    qos = QoSPolicy(
        levels=3,
        threshold=10_000,  # elections, not admission, are under test
        deadlines={1: 1.0, 2: 1.5, 3: 2.0},
    )
    directory = ShardDirectory(metrics=metrics)
    supervisor = BrokerSupervisor(sim, web_node, metrics=metrics)
    from ..core.centralized import LoadListener

    listener = LoadListener(
        sim, web_node, process_time=0.0005, metrics=metrics
    )

    groups: List[ShardGroup] = []
    brokers: Dict[str, ServiceBroker] = {}
    peers: List[ShardPeerGroup] = []
    watches = {}
    next_port = 7201
    for shard in range(shards):
        backend_name = f"shardbackend{shard}"
        backend = BackendWebServer(
            sim,
            net.node(backend_name),
            max_clients=backend_capacity,
            name=backend_name,
        )

        def item_cgi(server, request):
            yield server.sim.timeout(service_time * server.service_time_scale)
            return HttpResponse.text(f"item={request.param('id', '?')}")

        backend.add_cgi("/item", item_cgi)
        group = ShardGroup("items", shard, metrics=metrics)
        peer = ShardPeerGroup(group)
        for replica in range(replicas):
            broker = ServiceBroker(
                sim,
                web_node,
                service="items",
                port=next_port,
                adapters=[
                    HttpAdapter(sim, web_node, backend.address, name=backend_name)
                ],
                qos=qos,
                pool_size=backend_capacity,
                dispatchers=backend_capacity,
                metrics=metrics,
                name=f"shard{shard}r{replica}",
                stages=compose_stages(ShardRouteStage(directory, shard=shard)),
            )
            next_port += 1
            # Supervise first (installs the journal), then join the
            # shard mesh (wires the journal's replication hooks) and
            # the group (elects); the supervisor listener keeps
            # elections in step with heartbeat detections.
            watches[broker.name] = supervisor.watch(
                broker, journal=RecoveryJournal(sim, metrics=metrics)
            )
            peer.join(broker)
            group.add(broker)
            broker.report_load_to(listener.address, interval=report_interval)
        supervisor.add_listener(group.on_supervisor_event)
        groups.append(group)
        peers.append(peer)
        brokers.update((b.name, b) for b in group.members)
    roster = list(brokers.values())
    for peer in peers:
        peer.set_roster(roster)
    directory.register("items", groups, seed=seed)

    broker_client = BrokerClient(sim, web_node, {})
    broker_client.use_directory(directory)

    # The assassin: crash the current leader of a rotating shard.
    kills = {"count": 0}

    def resurrect(victim: ServiceBroker):
        yield mttr
        if not victim.alive:
            victim.restart()

    def leader_killer():
        target = 0
        while True:
            yield leader_kill_every
            if sim.now >= duration:
                return
            group = groups[target % len(groups)]
            target += 1
            victim = group.route()
            if victim is None:
                continue
            kills["count"] += 1
            sim.trace(
                "chaos", "leader-kill",
                shard=group.index, broker=victim.name, kill=kills["count"],
            )
            victim.crash()
            sim.process(resurrect(victim), name=f"resurrect:{victim.name}")

    sim.process(leader_killer(), name="chaos:leader-killer")

    # Steady closed-loop workload through the directory, with retries.
    samples: List[Tuple[float, str, float, bool]] = []
    key_rng = sim.rng("chaos.shard.keys")
    stagger_rng = sim.rng("chaos.shard.stagger")
    for index in range(n_clients):
        net.node(f"client{index}")
        level = (index % qos.levels) + 1

        def one_request(_client, _iteration, _level=level):
            issued = sim.now
            item = key_rng.randrange(key_pool)
            status = "error"
            retried = False
            for attempt in range(max_tries):
                try:
                    reply = yield from broker_client.call(
                        "items",
                        "get",
                        ("/item", {"id": item}),
                        qos_level=_level,
                        cacheable=False,
                        cache_key=f"item{item}",
                        timeout=attempt_timeout,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    retried = attempt + 1 < max_tries
                    continue
                status = reply.status.value
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    retried = attempt > 0
                    break
                retried = attempt + 1 < max_tries
            samples.append((issued, status, sim.now - issued, retried))

        ClosedLoopClient(
            sim,
            name=f"shardchaos{index}",
            request_factory=one_request,
            think_time=think_time,
            start_delay=stagger_rng.uniform(0.0, 1.0),
        ).start(until=duration)

    sim.run(until=duration)
    # Drain: the last corpse restarts, retries land, replies settle.
    sim.run(until=duration + mttr + 30.0)

    result = ShardChaosResult(
        duration=duration,
        seed=seed,
        capacity=0,
        shed_policy="none",
        mtbf=leader_kill_every,
        mttr=mttr,
        shards=shards,
        replicas=replicas,
    )
    for _issued, status, elapsed, retried in samples:
        result.requests += 1
        result.latency.add(elapsed)
        if retried:
            result.failovers += 1
        if status == ReplyStatus.OK.value:
            result.ok += 1
        elif status == ReplyStatus.DEGRADED.value:
            result.degraded += 1
        elif status == ReplyStatus.DROPPED.value:
            result.dropped += 1
        elif status == "timeout":
            result.timeouts += 1
        else:
            result.errors += 1

    counter = metrics.counter
    result.leader_kills = kills["count"]
    result.crashes = int(counter("broker.crashes"))
    result.restarts = int(counter("broker.restarts"))
    result.detected = sum(watch.detected for watch in watches.values())
    result.recoveries = sum(watch.recoveries for watch in watches.values())
    result.failed_fast = int(counter("lifecycle.failed_fast"))
    result.replayed = int(counter("lifecycle.replayed"))
    result.restart_shed = int(counter("lifecycle.restart_shed"))
    result.shed_total = int(counter("broker.shed"))
    result.elections = sum(group.elections for group in groups)
    result.route_adverts = int(counter("peering.route_adverts_applied"))
    result.journal_syncs = int(counter("peering.journal_syncs_applied"))
    result.leader_failovers = listener.leader_failovers
    result.forwards = int(counter("broker.shard.forwarded"))
    for name, broker in brokers.items():
        result.peak_depths[name] = broker.queue.peak_depth
        journal = broker.journal
        result.residue[name] = {
            "queue_depth": len(broker.queue),
            "outstanding": broker.admission.outstanding,
            "journal_pending": journal.pending_count if journal else 0,
        }

    # -- invariants --------------------------------------------------------
    lost = [
        (name, info)
        for name, info in result.residue.items()
        if info["queue_depth"] or info["outstanding"] or info["journal_pending"]
    ]
    answered = (
        result.ok
        + result.degraded
        + result.dropped
        + result.timeouts
        + result.errors
    )
    result.invariants.append(
        InvariantCheck(
            name="no-lost-request",
            passed=not lost and answered == result.requests,
            detail=(
                f"{result.requests} requests all terminal; residue "
                + (
                    "clean"
                    if not lost
                    else "; ".join(f"{name}: {info}" for name, info in lost)
                )
            ),
        )
    )
    dead = [name for name, broker in brokers.items() if not broker.alive]
    accounting_ok = (
        result.restarts == result.crashes
        and not dead
        and all(watch.up for watch in watches.values())
    )
    result.invariants.append(
        InvariantCheck(
            name="post-crash-consistency",
            passed=accounting_ok,
            detail=(
                f"crashes={result.crashes} restarts={result.restarts} "
                f"failed_fast={result.failed_fast} replayed={result.replayed}"
                + (f"; still dead: {dead}" if dead else "")
            ),
        )
    )
    leaderless = [
        group.name for group in groups if group.route() is None
    ]
    convergence_ok = (
        not leaderless
        and result.elections >= result.leader_kills
    )
    result.invariants.append(
        InvariantCheck(
            name="leadership-convergence",
            passed=convergence_ok,
            detail=(
                f"kills={result.leader_kills} elections={result.elections} "
                f"adverts={result.route_adverts} "
                f"reporting_failovers={result.leader_failovers}"
                + (f"; leaderless: {leaderless}" if leaderless else "")
            ),
        )
    )
    result.invariants.append(
        InvariantCheck(
            name="availability-floor",
            passed=result.availability >= availability_floor,
            detail=(
                f"availability {result.availability:.4f} "
                f"(floor {availability_floor:.4f}; "
                f"ok={result.ok} degraded={result.degraded} "
                f"dropped={result.dropped} timeouts={result.timeouts}; "
                f"retried={result.failovers})"
            ),
        )
    )
    return result


# ---------------------------------------------------------------------------
# Elastic autoscaling: headline experiment and scale-chaos soak
# ---------------------------------------------------------------------------


def _elastic_pool(
    sim: Simulation,
    net: Network,
    metrics: MetricsRegistry,
    *,
    capacity: int,
    shed_policy: str,
    service_time: float,
    backend_capacity: int,
    throttle: Optional[TenantThrottle] = None,
    report_interval: float = 0.25,
    drain_grace: float = 2.0,
    base_port: int = 7300,
    prefix: str = "scale",
    seed: int = 0,
):
    """Build the elastic-unit topology the autoscale experiments share.

    One *unit* = one broker plus its own dedicated backend web server
    (so backend capacity scales with the pool), running the hardened
    stage plan — with a :class:`~repro.core.pipeline.ThrottleStage`
    before admission when *throttle* is given. Every unit is
    supervised (heartbeats + recovery journal), reports load to a
    :class:`~repro.core.centralized.LoadListener`, and joins a single
    :class:`~repro.core.sharding.ShardGroup` so drains exercise the
    full hand-off protocol (leadership, listener purge, supervision
    release). Returns ``(pool, supervisor, listener, group, watches)``.
    """
    from ..core.centralized import LoadListener

    web_node = net.nodes["web"] if "web" in net.nodes else net.node("web")
    qos = QoSPolicy(
        levels=3,
        threshold=10_000,  # scaling, not admission, is under test
        deadlines={1: 1.0, 2: 1.5, 3: 2.0},
    )
    supervisor = BrokerSupervisor(sim, web_node, metrics=metrics)
    listener = LoadListener(sim, web_node, process_time=0.0005, metrics=metrics)
    group = ShardGroup(prefix, 0, metrics=metrics)
    supervisor.add_listener(group.on_supervisor_event)
    watches: Dict[str, object] = {}

    def factory(pool: BrokerPool, index: int) -> ServiceBroker:
        backend_name = f"{prefix}backend{index}"
        backend = BackendWebServer(
            sim,
            net.node(backend_name),
            max_clients=backend_capacity,
            name=backend_name,
        )

        def item_cgi(server, request):
            yield server.sim.timeout(service_time * server.service_time_scale)
            return HttpResponse.text(f"item={request.param('id', '?')}")

        backend.add_cgi("/item", item_cgi)
        # The throttle sits before admission: a refused request never
        # touches the ledger or the journal.
        stages = compose_stages(
            TimeoutBudgetStage(),
            CircuitBreakerStage(reset_timeout=0.5),
            RetryStage(RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.5)),
            BackpressureStage(capacity, shed_policy=shed_policy),
            ThrottleStage(throttle) if throttle is not None else None,
        )
        broker = ServiceBroker(
            sim,
            web_node,
            service=f"items-{index}",
            port=base_port + index,
            adapters=[
                HttpAdapter(sim, web_node, backend.address, name=backend_name)
            ],
            qos=qos,
            pool_size=backend_capacity,
            dispatchers=backend_capacity,
            metrics=metrics,
            name=f"{prefix}{index}",
            stages=stages,
        )
        watches[broker.name] = supervisor.watch(
            broker, journal=RecoveryJournal(sim, metrics=metrics)
        )
        broker.report_load_to(listener.address, interval=report_interval)
        return broker

    pool = BrokerPool(
        sim,
        factory,
        supervisor=supervisor,
        group=group,
        listener=listener,
        seed=seed,
        drain_grace=drain_grace,
        metrics=metrics,
    )
    return pool, supervisor, listener, group, watches


def _workload_counters(metrics: MetricsRegistry):
    """Pre-resolved ``workload.*`` handles for the outcome closure."""
    names = (
        "done", "ok", "degraded", "throttled", "dropped",
        "timeout", "error", "answered", "fast",
    )
    return {name: metrics.handle(f"workload.{name}") for name in names}


@dataclass
class AutoscaleResult:
    """One elastic-pool run: workload outcome, pool economy, verdicts."""

    duration: float
    seed: int
    base_rate: float
    peak_rate: float
    period: float
    target: float
    # Workload outcome counts (terminal statuses; throttled = deliberate
    # per-tenant refusals, distinct from capacity drops).
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    throttled: int = 0
    dropped: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Latency of answered (OK/DEGRADED) replies per QoS class.
    latency: Dict[int, SummaryStats] = field(default_factory=dict)
    #: Per-tenant outcome counts: requests / answered / throttled.
    tenants: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Pool economy.
    provisioned: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    drains_completed: int = 0
    handoffs: int = 0
    drain_refused: int = 0
    steady_size: int = 0
    mean_size: float = 0.0
    peak_size: int = 0
    min_size: int = 0
    alerts: int = 0
    blocked_by_alert: int = 0
    blocked_by_cooldown: int = 0
    #: ``(time, size, signal, action)`` control-loop timeline.
    timeline: List[Tuple[float, int, float, str]] = field(default_factory=list)
    #: Per-unit end-of-run residue over every unit ever provisioned.
    residue: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Answered fraction of non-throttled traffic (OK + DEGRADED)."""
        offered = self.requests - self.throttled
        if offered <= 0:
            return 1.0
        return (self.ok + self.degraded) / offered

    def premium_p99(self) -> float:
        """99th-percentile latency of answered class-1 replies."""
        stats = self.latency.get(1)
        if stats is None or not stats.count:
            return float("nan")
        return stats.percentile(99.0)

    @property
    def all_invariants_hold(self) -> bool:
        """True when every invariant check passed."""
        return all(check.passed for check in self.invariants)

    def to_summary(self) -> Dict[str, object]:
        """A JSON-safe summary (the CI artifact / ``--summary-out``)."""
        premium = self.premium_p99()
        step = max(1, math.ceil(len(self.timeline) / 48))
        return {
            "duration": self.duration,
            "seed": self.seed,
            "base_rate": self.base_rate,
            "peak_rate": self.peak_rate,
            "period": self.period,
            "target": self.target,
            "requests": self.requests,
            "ok": self.ok,
            "degraded": self.degraded,
            "throttled": self.throttled,
            "dropped": self.dropped,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "availability": round(self.availability, 6),
            "premium_p99": None if math.isnan(premium) else round(premium, 6),
            "tenants": {name: dict(info) for name, info in self.tenants.items()},
            "provisioned": self.provisioned,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "drains_completed": self.drains_completed,
            "handoffs": self.handoffs,
            "drain_refused": self.drain_refused,
            "steady_size": self.steady_size,
            "mean_size": round(self.mean_size, 3),
            "peak_size": self.peak_size,
            "min_size": self.min_size,
            "alerts": self.alerts,
            "blocked_by_alert": self.blocked_by_alert,
            "blocked_by_cooldown": self.blocked_by_cooldown,
            "timeline": [
                [round(t, 1), size, round(signal, 2), action]
                for t, size, signal, action in self.timeline[::step]
            ],
            "residue": {name: dict(info) for name, info in self.residue.items()},
            "invariants": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.invariants
            ],
        }


def run_autoscale_experiment(
    duration: float = 240.0,
    base_rate: float = 8.0,
    swing: float = 10.0,
    period: float = 120.0,
    target: float = 3.0,
    hysteresis: float = 0.3,
    scale_out_cooldown: float = 2.0,
    scale_in_cooldown: float = 10.0,
    max_step: int = 2,
    min_size: int = 1,
    max_size: int = 6,
    initial_size: int = 2,
    interval: float = 1.0,
    scrape_interval: float = 0.5,
    capacity: int = 48,
    shed_policy: str = "drop-lowest",
    service_time: float = 0.1,
    backend_capacity: int = 4,
    drain_grace: float = 2.0,
    throttle_rate: float = 200.0,
    throttle_burst: float = 400.0,
    burst_rate: float = 2.0,
    burst_allowance: Tuple[float, float] = (4.0, 8.0),
    burst_multiplier: float = 20.0,
    attempt_timeout: float = 2.0,
    max_tries: int = 3,
    key_pool: int = 512,
    fast_threshold: float = 0.5,
    premium_p99_slo: float = 1.0,
    efficiency_factor: float = 1.5,
    headroom: float = 0.75,
    seed: int = 0,
) -> AutoscaleResult:
    """The elastic-pool headline: a 10× diurnal swing, autoscaled.

    Load is a :class:`~repro.workload.clients.DiurnalLoadGenerator`
    sweeping ``base_rate .. base_rate*swing`` once per *period*, mixed
    across three QoS classes (class 1 = tenant ``premium``), plus a
    :class:`~repro.workload.clients.FlashCrowdGenerator` for tenant
    ``burst`` whose crowds multiply its trickle by *burst_multiplier* —
    and whose token bucket (*burst_allowance*) is sized so the crowd is
    *refused*, not absorbed.

    The pool is an elastic set of broker+backend units behind an
    :class:`~repro.core.autoscale.Autoscaler` reading per-broker load
    series from a :class:`~repro.obs.telemetry.TelemetryScraper` and
    honouring :class:`~repro.obs.slo.SloEngine` burn alerts
    (:func:`~repro.obs.slo.autoscale_slos` — throttle refusals do not
    burn). Scale-in runs the graceful drain protocol end to end.

    Verdicts: premium p99 within *premium_p99_slo*; time-mean pool size
    within ``efficiency_factor ×`` the steady-state unit count (the
    units needed for the *time-average* offered rate at *headroom*
    utilisation — static provisioning would need the peak count
    instead); the burst tenant throttled while premium never is; the
    pool actually tracked the swing; and no request lost across every
    drain.
    """
    if swing <= 1.0:
        raise ValueError(f"swing must be > 1: {swing!r}")
    peak_rate = base_rate * swing
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    throttle = TenantThrottle(
        throttle_rate, throttle_burst, overrides={"burst": burst_allowance}
    )
    pool, supervisor, listener, group, watches = _elastic_pool(
        sim,
        net,
        metrics,
        capacity=capacity,
        shed_policy=shed_policy,
        service_time=service_time,
        backend_capacity=backend_capacity,
        throttle=throttle,
        drain_grace=drain_grace,
        seed=seed,
    )

    from ..obs.slo import SloEngine, autoscale_slos
    from ..obs.telemetry import TelemetryScraper

    scraper = TelemetryScraper(interval=scrape_interval).attach(sim)
    scraper.watch_registry(metrics, prefix="workload.")
    scraper.watch_registry(metrics, prefix="autoscaler.")
    engine = SloEngine(autoscale_slos())
    scraper.use_slo(engine)

    broker_client = BrokerClient(sim, web_node, {})

    def on_provision(broker: ServiceBroker) -> None:
        broker_client.add_route(broker.service, broker.address)
        scraper.watch_broker(broker)

    pool.on_provision = on_provision
    pool.scale_to(max(min_size, initial_size))

    policy = AutoscalerPolicy(
        target=target,
        hysteresis=hysteresis,
        scale_out_cooldown=scale_out_cooldown,
        scale_in_cooldown=scale_in_cooldown,
        max_step=max_step,
        min_size=min_size,
        max_size=max_size,
    )
    autoscaler = Autoscaler(
        sim, pool, policy, scraper=scraper, engine=engine,
        interval=interval, metrics=metrics,
    )
    for gauge_name, fn in autoscaler.gauges().items():
        scraper.add_gauge(gauge_name, fn)
    scraper.start(until=duration)
    autoscaler.start(until=duration)

    # -- workload ----------------------------------------------------------
    workload = _workload_counters(metrics)
    samples: List[Tuple[float, int, str, str, float, str]] = []
    key_rng = sim.rng("autoscale.keys")

    def make_factory(level: int, tenant: str):
        def one_request(_generator, index):
            issued = sim.now
            item = key_rng.randrange(key_pool)
            status = "error"
            error = ""
            for attempt in range(max_tries):
                try:
                    broker = pool.route(f"item{item}")
                except BrokerError:
                    status = "error"
                    error = "no-pool"
                    break
                try:
                    reply = yield from broker_client.call(
                        broker.service,
                        "get",
                        ("/item", {"id": item, "tenant": tenant}),
                        qos_level=level,
                        cacheable=False,
                        timeout=attempt_timeout,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    error = ""
                    continue
                status = reply.status.value
                error = reply.error or ""
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    break
                if error == "throttled":
                    break  # deliberate refusal; a retry is refused too
            elapsed = sim.now - issued
            samples.append((issued, level, tenant, status, elapsed, error))
            workload["done"].inc()
            if status == ReplyStatus.OK.value:
                workload["ok"].inc()
            elif status == ReplyStatus.DEGRADED.value:
                workload["degraded"].inc()
            elif status == ReplyStatus.DROPPED.value and error == "throttled":
                workload["throttled"].inc()
            elif status == ReplyStatus.DROPPED.value:
                workload["dropped"].inc()
            elif status == "timeout":
                workload["timeout"].inc()
            else:
                workload["error"].inc()
            if status in (ReplyStatus.OK.value, ReplyStatus.DEGRADED.value):
                workload["answered"].inc()
                if elapsed <= fast_threshold:
                    workload["fast"].inc()

        return one_request

    # The diurnal curve carries all three QoS classes; a third of its
    # volume per class, premium traffic billed to tenant "premium".
    for level in (1, 2, 3):
        tenant = "premium" if level == 1 else "standard"
        DiurnalLoadGenerator(
            sim,
            name=f"diurnal.qos{level}",
            request_factory=make_factory(level, tenant),
            base_rate=base_rate / 3.0,
            peak_rate=peak_rate / 3.0,
            period=period,
            rng_stream=f"autoscale.diurnal.qos{level}",
        ).start(until=duration)
    crowds = [
        (period / 3.0 + cycle * period, period / 12.0, burst_multiplier)
        for cycle in range(int(duration / period) + 1)
    ]
    FlashCrowdGenerator(
        sim,
        name="burst",
        request_factory=make_factory(3, "burst"),
        base_rate=burst_rate,
        crowds=crowds,
        rng_stream="autoscale.burst",
    ).start(until=duration)

    sim.run(until=duration)
    # Overtime: in-flight replies land, started drains complete.
    sim.run(until=duration + drain_grace * 3 + 30.0)

    # -- result ------------------------------------------------------------
    unit_rate = backend_capacity / service_time
    mean_rate = (base_rate + peak_rate) / 2.0 + burst_rate
    steady_size = max(min_size, math.ceil(mean_rate / (unit_rate * headroom)))
    result = AutoscaleResult(
        duration=duration,
        seed=seed,
        base_rate=base_rate,
        peak_rate=peak_rate,
        period=period,
        target=target,
        steady_size=steady_size,
    )
    for _issued, level, tenant, status, elapsed, _error in samples:
        result.requests += 1
        per_tenant = result.tenants.setdefault(
            tenant, {"requests": 0, "answered": 0, "throttled": 0}
        )
        per_tenant["requests"] += 1
        if status == ReplyStatus.OK.value:
            result.ok += 1
        elif status == ReplyStatus.DEGRADED.value:
            result.degraded += 1
        elif status == ReplyStatus.DROPPED.value and _error == "throttled":
            result.throttled += 1
            per_tenant["throttled"] += 1
        elif status == ReplyStatus.DROPPED.value:
            result.dropped += 1
        elif status == "timeout":
            result.timeouts += 1
        else:
            result.errors += 1
        if status in (ReplyStatus.OK.value, ReplyStatus.DEGRADED.value):
            per_tenant["answered"] += 1
            result.latency.setdefault(level, SummaryStats()).add(elapsed)

    counter = metrics.counter
    result.provisioned = int(counter("autoscaler.provisioned"))
    result.scale_outs = pool.scale_out_events
    result.scale_ins = pool.scale_in_events
    result.drains_completed = pool.drains_completed
    result.handoffs = pool.handoffs
    result.drain_refused = int(counter("broker.drain.refused"))
    result.alerts = len(engine.alerts)
    result.blocked_by_alert = int(counter("autoscaler.blocked_alert"))
    result.blocked_by_cooldown = int(counter("autoscaler.blocked_cooldown"))
    result.timeline = list(autoscaler.history)
    sizes = [size for _t, size, _signal, _action in result.timeline]
    if sizes:
        result.mean_size = sum(sizes) / len(sizes)
        result.peak_size = max(sizes)
        result.min_size = min(sizes)
    for broker in pool.every:
        journal = broker.journal
        result.residue[broker.name] = {
            "queue_depth": len(broker.queue),
            "outstanding": broker.admission.outstanding,
            "journal_pending": journal.pending_count if journal else 0,
        }

    # -- invariants --------------------------------------------------------
    premium = result.premium_p99()
    result.invariants.append(
        InvariantCheck(
            name="premium-p99",
            passed=not math.isnan(premium) and premium <= premium_p99_slo,
            detail=(
                f"premium p99 {premium:.3f}s (SLO {premium_p99_slo:.3f}s; "
                f"{result.latency.get(1).count if 1 in result.latency else 0} "
                f"answered premium replies)"
            ),
        )
    )
    bound = efficiency_factor * steady_size
    result.invariants.append(
        InvariantCheck(
            name="pool-efficiency",
            passed=bool(sizes) and result.mean_size <= bound,
            detail=(
                f"mean size {result.mean_size:.2f} <= {bound:.2f} "
                f"({efficiency_factor}x steady {steady_size}; "
                f"peak {result.peak_size}, static peak provisioning needs "
                f"{math.ceil(peak_rate / (unit_rate * headroom))})"
            ),
        )
    )
    tracked = (
        result.scale_outs >= 1
        and result.scale_ins >= 1
        and result.peak_size > result.min_size
    )
    result.invariants.append(
        InvariantCheck(
            name="elasticity",
            passed=tracked,
            detail=(
                f"scale_outs={result.scale_outs} scale_ins={result.scale_ins} "
                f"size range [{result.min_size}, {result.peak_size}]"
            ),
        )
    )
    burst_throttled = result.tenants.get("burst", {}).get("throttled", 0)
    premium_throttled = result.tenants.get("premium", {}).get("throttled", 0)
    result.invariants.append(
        InvariantCheck(
            name="throttle-containment",
            passed=burst_throttled > 0 and premium_throttled == 0,
            detail=(
                f"burst throttled {burst_throttled} of "
                f"{result.tenants.get('burst', {}).get('requests', 0)}; "
                f"premium throttled {premium_throttled}"
            ),
        )
    )
    lost = [
        (name, info)
        for name, info in result.residue.items()
        if info["queue_depth"] or info["outstanding"] or info["journal_pending"]
    ]
    answered = (
        result.ok + result.degraded + result.throttled
        + result.dropped + result.timeouts + result.errors
    )
    result.invariants.append(
        InvariantCheck(
            name="no-lost-request",
            passed=not lost and answered == result.requests,
            detail=(
                f"{result.requests} requests all terminal across "
                f"{len(pool.every)} units ({len(pool.retired)} retired); "
                + (
                    "residue clean"
                    if not lost
                    else "; ".join(f"{name}: {info}" for name, info in lost)
                )
            ),
        )
    )
    return result


@dataclass
class ScaleChaosResult:
    """One scale-chaos soak: drains under fire, plus its verdicts."""

    duration: float
    seed: int
    wave_period: float
    base_rate: float
    high_rate: float
    mttr: float
    # Workload outcome counts.
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    dropped: int = 0
    timeouts: int = 0
    errors: int = 0
    latency: SummaryStats = field(default_factory=SummaryStats)
    # Pool and chaos accounting.
    provisioned: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    drains_completed: int = 0
    handoffs: int = 0
    drain_refused: int = 0
    drain_interrupted: int = 0
    mid_drain_kills: int = 0
    crashes: int = 0
    restarts: int = 0
    failed_fast: int = 0
    replayed: int = 0
    peak_size: int = 0
    min_size: int = 0
    #: Per-unit end-of-run residue over every unit ever provisioned.
    residue: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Answered fraction of the workload (OK + DEGRADED)."""
        if not self.requests:
            return 1.0
        return (self.ok + self.degraded) / self.requests

    @property
    def all_invariants_hold(self) -> bool:
        """True when every invariant check passed."""
        return all(check.passed for check in self.invariants)

    def to_summary(self) -> Dict[str, object]:
        """A JSON-safe summary (the CI artifact / ``--summary-out``)."""
        return {
            "duration": self.duration,
            "seed": self.seed,
            "wave_period": self.wave_period,
            "base_rate": self.base_rate,
            "high_rate": self.high_rate,
            "mttr": self.mttr,
            "requests": self.requests,
            "ok": self.ok,
            "degraded": self.degraded,
            "dropped": self.dropped,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "availability": round(self.availability, 6),
            "latency_p50": round(self.latency.percentile(50.0), 6)
            if self.latency.count
            else None,
            "latency_p99": round(self.latency.percentile(99.0), 6)
            if self.latency.count
            else None,
            "provisioned": self.provisioned,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "drains_completed": self.drains_completed,
            "handoffs": self.handoffs,
            "drain_refused": self.drain_refused,
            "drain_interrupted": self.drain_interrupted,
            "mid_drain_kills": self.mid_drain_kills,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "failed_fast": self.failed_fast,
            "replayed": self.replayed,
            "peak_size": self.peak_size,
            "min_size": self.min_size,
            "residue": {name: dict(info) for name, info in self.residue.items()},
            "invariants": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.invariants
            ],
        }


def run_scale_chaos_experiment(
    duration: float = 264.0,
    wave_period: float = 24.0,
    base_rate: float = 6.0,
    high_multiplier: float = 10.0,
    target: float = 2.5,
    hysteresis: float = 0.3,
    scale_out_cooldown: float = 2.0,
    scale_in_cooldown: float = 6.0,
    max_step: int = 2,
    min_size: int = 1,
    max_size: int = 6,
    initial_size: int = 1,
    interval: float = 1.0,
    capacity: int = 48,
    shed_policy: str = "drop-lowest",
    service_time: float = 0.1,
    backend_capacity: int = 4,
    drain_grace: float = 2.0,
    mttr: float = 1.0,
    snipe_every: int = 2,
    sniper_poll: float = 0.25,
    attempt_timeout: float = 2.0,
    max_tries: int = 3,
    key_pool: int = 512,
    fast_threshold: float = 0.5,
    min_scale_ins: int = 20,
    min_mid_drain_kills: int = 3,
    availability_floor: float = 0.97,
    seed: int = 0,
) -> ScaleChaosResult:
    """The scale-chaos soak: crash brokers *while* they drain.

    A square-wave load (high for the first half of every *wave_period*,
    ``base_rate`` for the second) forces the autoscaled pool through a
    scale-out/scale-in cycle per wave — dozens of graceful drains per
    run. A *drain sniper* process watches :attr:`BrokerPool.draining
    <repro.core.autoscale.BrokerPool.draining>` and crashes every
    *snipe_every*-th draining broker mid-protocol; the resurrection
    (after *mttr*) restarts it still in draining state (the flag
    survives the restart), the supervisor fail-fasts its journal
    meanwhile, and the drain coordinator resumes with a fresh grace
    window. The headline verdict: across ``>= min_scale_ins`` drains
    with ``>= min_mid_drain_kills`` mid-drain kills, **no request is
    ever lost** — every unit ever provisioned ends with zero queue,
    ledger, and journal residue, and every issued request reached a
    terminal outcome.

    The autoscaler here runs without the SLO veto (``engine=None``):
    wave-front burn alerts would suppress the very scale-ins under
    test. The headline experiment keeps the veto wired.
    """
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    pool, supervisor, listener, group, watches = _elastic_pool(
        sim,
        net,
        metrics,
        capacity=capacity,
        shed_policy=shed_policy,
        service_time=service_time,
        backend_capacity=backend_capacity,
        throttle=None,
        drain_grace=drain_grace,
        base_port=7400,
        prefix="soak",
        seed=seed,
    )

    broker_client = BrokerClient(sim, web_node, {})

    def on_provision(broker: ServiceBroker) -> None:
        broker_client.add_route(broker.service, broker.address)

    pool.on_provision = on_provision
    pool.scale_to(max(min_size, initial_size))

    policy = AutoscalerPolicy(
        target=target,
        hysteresis=hysteresis,
        scale_out_cooldown=scale_out_cooldown,
        scale_in_cooldown=scale_in_cooldown,
        max_step=max_step,
        min_size=min_size,
        max_size=max_size,
    )
    # Live broker readings (no scraper): the soak stresses the drain
    # protocol, not the telemetry path the headline experiment covers.
    autoscaler = Autoscaler(
        sim, pool, policy, scraper=None, engine=None,
        interval=interval, metrics=metrics,
    )
    autoscaler.start(until=duration)

    # -- the drain sniper --------------------------------------------------
    kills = {"count": 0}
    sniped: set = set()
    ordinals: Dict[str, int] = {}

    def resurrect(victim: ServiceBroker):
        yield mttr
        victim.restart()  # no-op when already alive or retired

    def drain_sniper():
        while True:
            yield sniper_poll
            if sim.now >= duration:
                return
            for name, broker in list(pool.draining.items()):
                if name not in ordinals:
                    ordinals[name] = len(ordinals)
                if (
                    broker.alive
                    and name not in sniped
                    and ordinals[name] % snipe_every == 0
                ):
                    sniped.add(name)
                    kills["count"] += 1
                    sim.trace(
                        "chaos", "drain-snipe",
                        broker=name, kill=kills["count"],
                    )
                    broker.crash()
                    sim.process(resurrect(broker), name=f"resurrect:{name}")

    sim.process(drain_sniper(), name="chaos:drain-sniper")

    # -- workload ----------------------------------------------------------
    workload = _workload_counters(metrics)
    samples: List[Tuple[float, int, str, float]] = []
    key_rng = sim.rng("scalechaos.keys")

    def make_factory(level: int):
        def one_request(_generator, index):
            issued = sim.now
            item = key_rng.randrange(key_pool)
            status = "error"
            for attempt in range(max_tries):
                try:
                    broker = pool.route(f"item{item}")
                except BrokerError:
                    status = "error"
                    break
                try:
                    reply = yield from broker_client.call(
                        broker.service,
                        "get",
                        ("/item", {"id": item}),
                        qos_level=level,
                        cacheable=False,
                        timeout=attempt_timeout,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    continue
                status = reply.status.value
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    break
            elapsed = sim.now - issued
            samples.append((issued, level, status, elapsed))
            workload["done"].inc()
            if status == ReplyStatus.OK.value:
                workload["ok"].inc()
            elif status == ReplyStatus.DEGRADED.value:
                workload["degraded"].inc()
            elif status == ReplyStatus.DROPPED.value:
                workload["dropped"].inc()
            elif status == "timeout":
                workload["timeout"].inc()
            else:
                workload["error"].inc()
            if status in (ReplyStatus.OK.value, ReplyStatus.DEGRADED.value):
                workload["answered"].inc()
                if elapsed <= fast_threshold:
                    workload["fast"].inc()

        return one_request

    cycles = int(duration / wave_period) + 1
    for level in (1, 2, 3):
        FlashCrowdGenerator(
            sim,
            name=f"wave.qos{level}",
            request_factory=make_factory(level),
            base_rate=base_rate / 3.0,
            crowds=[
                (cycle * wave_period, wave_period / 2.0, high_multiplier)
                for cycle in range(cycles)
            ],
            rng_stream=f"scalechaos.wave.qos{level}",
        ).start(until=duration)

    sim.run(until=duration)
    # Overtime: resurrect the last corpse, finish the last drains.
    sim.run(until=duration + mttr + drain_grace * 3 + 30.0)

    # -- result ------------------------------------------------------------
    result = ScaleChaosResult(
        duration=duration,
        seed=seed,
        wave_period=wave_period,
        base_rate=base_rate,
        high_rate=base_rate * high_multiplier,
        mttr=mttr,
    )
    for _issued, _level, status, elapsed in samples:
        result.requests += 1
        if status == ReplyStatus.OK.value:
            result.ok += 1
            result.latency.add(elapsed)
        elif status == ReplyStatus.DEGRADED.value:
            result.degraded += 1
            result.latency.add(elapsed)
        elif status == ReplyStatus.DROPPED.value:
            result.dropped += 1
        elif status == "timeout":
            result.timeouts += 1
        else:
            result.errors += 1

    counter = metrics.counter
    result.provisioned = int(counter("autoscaler.provisioned"))
    result.scale_outs = pool.scale_out_events
    result.scale_ins = pool.scale_in_events
    result.drains_completed = pool.drains_completed
    result.handoffs = pool.handoffs
    result.drain_refused = int(counter("broker.drain.refused"))
    result.drain_interrupted = int(counter("autoscaler.drain.interrupted"))
    result.mid_drain_kills = kills["count"]
    result.crashes = int(counter("broker.crashes"))
    result.restarts = int(counter("broker.restarts"))
    result.failed_fast = int(counter("lifecycle.failed_fast"))
    result.replayed = int(counter("lifecycle.replayed"))
    sizes = [size for _t, size, _signal, _action in autoscaler.history]
    if sizes:
        result.peak_size = max(sizes)
        result.min_size = min(sizes)
    for broker in pool.every:
        journal = broker.journal
        result.residue[broker.name] = {
            "queue_depth": len(broker.queue),
            "outstanding": broker.admission.outstanding,
            "journal_pending": journal.pending_count if journal else 0,
        }

    # -- invariants --------------------------------------------------------
    lost = [
        (name, info)
        for name, info in result.residue.items()
        if info["queue_depth"] or info["outstanding"] or info["journal_pending"]
    ]
    answered = (
        result.ok + result.degraded + result.dropped
        + result.timeouts + result.errors
    )
    result.invariants.append(
        InvariantCheck(
            name="no-lost-request",
            passed=not lost and answered == result.requests,
            detail=(
                f"{result.requests} requests all terminal across "
                f"{len(pool.every)} units ({len(pool.retired)} retired, "
                f"{result.mid_drain_kills} mid-drain kills); "
                + (
                    "residue clean"
                    if not lost
                    else "; ".join(f"{name}: {info}" for name, info in lost)
                )
            ),
        )
    )
    result.invariants.append(
        InvariantCheck(
            name="scale-in-coverage",
            passed=(
                result.scale_ins >= min_scale_ins
                and result.mid_drain_kills >= min_mid_drain_kills
            ),
            detail=(
                f"scale_ins={result.scale_ins} (need >= {min_scale_ins}); "
                f"mid_drain_kills={result.mid_drain_kills} "
                f"(need >= {min_mid_drain_kills})"
            ),
        )
    )
    stuck = sorted(pool.draining)
    result.invariants.append(
        InvariantCheck(
            name="drain-completion",
            passed=not stuck and result.drains_completed == result.scale_ins,
            detail=(
                f"drains_completed={result.drains_completed} of "
                f"{result.scale_ins} started"
                + (f"; still draining: {stuck}" if stuck else "")
            ),
        )
    )
    result.invariants.append(
        InvariantCheck(
            name="pool-bounds",
            passed=bool(sizes)
            and min_size <= result.min_size
            and result.peak_size <= max_size,
            detail=(
                f"observed sizes [{result.min_size}, {result.peak_size}] "
                f"within [{min_size}, {max_size}]"
            ),
        )
    )
    dead = [
        broker.name
        for broker in pool.active
        if not broker.alive
    ]
    result.invariants.append(
        InvariantCheck(
            name="post-crash-consistency",
            passed=result.restarts == result.crashes and not dead,
            detail=(
                f"crashes={result.crashes} restarts={result.restarts} "
                f"failed_fast={result.failed_fast} replayed={result.replayed}"
                + (f"; still dead: {dead}" if dead else "")
            ),
        )
    )
    result.invariants.append(
        InvariantCheck(
            name="availability-floor",
            passed=result.availability >= availability_floor,
            detail=(
                f"availability {result.availability:.4f} "
                f"(floor {availability_floor:.4f}; ok={result.ok} "
                f"degraded={result.degraded} dropped={result.dropped} "
                f"timeouts={result.timeouts})"
            ),
        )
    )
    return result
