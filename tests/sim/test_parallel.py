"""Tests for the conservative parallel driver (:mod:`repro.sim.parallel`).

The ping-pong model used throughout: partition ``left`` emits a counter
every virtual second, ``right`` echoes each payload back times ten, all
cross-partition delays exactly equal to the lookahead. Its trajectory
is computed by hand, so the windowed protocol is checked against ground
truth — and the forked runs are checked against the inline run, pinning
the determinism contract (results never depend on the worker count).
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.errors import SimError
from repro.net.message import decode_batch, encode_batch
from repro.sim import Simulation
from repro.sim.parallel import (
    ParallelSimulation,
    PartitionSpec,
    RemoteEnvelope,
    RemoteGateway,
    available_workers,
)

LOOKAHEAD = 1.0
ROUNDS = 5


def _left_builder(sim, gateway):
    log = []

    def driver():
        yield 0.5
        for i in range(ROUNDS):
            gateway.send("right", i, delay=LOOKAHEAD)
            yield 1.0

    gateway.on_receive(lambda env: log.append((sim.now, env.payload)))
    sim.process(driver())
    return lambda: log


def _right_builder(sim, gateway):
    log = []

    def on_receive(env):
        log.append((sim.now, env.payload))
        gateway.send("left", env.payload * 10, delay=LOOKAHEAD)

    gateway.on_receive(on_receive)
    return lambda: log


def _idle_builder(sim, gateway):
    gateway.on_receive(lambda env: None)
    return lambda: None


def _pingpong():
    return [
        PartitionSpec("left", _left_builder, seed=1),
        PartitionSpec("right", _right_builder, seed=2),
    ]


#: left sends i at t = 0.5 + i; right receives at 1.5 + i and echoes;
#: left receives the echo at 2.5 + i.
EXPECTED_RIGHT = [(1.5 + i, i) for i in range(ROUNDS)]
EXPECTED_LEFT = [(2.5 + i, 10 * i) for i in range(ROUNDS)]


class TestPingPong:
    def test_inline_matches_ground_truth(self):
        results = ParallelSimulation(_pingpong(), lookahead=LOOKAHEAD).run(
            until=10.0
        )
        assert results["left"].value == EXPECTED_LEFT
        assert results["right"].value == EXPECTED_RIGHT
        assert results["left"].sent == ROUNDS
        assert results["left"].received == ROUNDS
        assert results["right"].sent == ROUNDS
        assert results["right"].received == ROUNDS

    def test_forked_matches_inline(self):
        inline = ParallelSimulation(_pingpong(), lookahead=LOOKAHEAD).run(
            until=10.0
        )
        forked = ParallelSimulation(
            _pingpong(), lookahead=LOOKAHEAD, workers=2
        ).run(until=10.0)
        for name in ("left", "right"):
            assert forked[name].value == inline[name].value
            assert forked[name].sent == inline[name].sent
            assert forked[name].received == inline[name].received

    def test_matches_single_simulation_reference(self):
        """The same logical model in ONE Simulation gives the same logs."""
        sim = Simulation(seed=99)
        left_log, right_log = [], []

        def right_receive(event):
            right_log.append((sim.now, event.value))
            echo = sim.event()
            echo.callbacks.append(
                lambda e: left_log.append((sim.now, e.value))
            )
            echo.succeed(event.value * 10, delay=LOOKAHEAD)

        def driver():
            yield 0.5
            for i in range(ROUNDS):
                message = sim.event()
                message.callbacks.append(right_receive)
                message.succeed(i, delay=LOOKAHEAD)
                yield 1.0

        sim.process(driver())
        sim.run(until=10.0)
        assert left_log == EXPECTED_LEFT
        assert right_log == EXPECTED_RIGHT

    def test_undelivered_envelopes_fail_loudly(self):
        with pytest.raises(SimError, match="in flight"):
            ParallelSimulation(_pingpong(), lookahead=LOOKAHEAD).run(
                until=1.0
            )

    def test_fractional_final_window(self):
        """An *until* that is not a window multiple still lands exactly."""
        results = ParallelSimulation(_pingpong(), lookahead=LOOKAHEAD).run(
            until=9.75
        )
        assert results["left"].value == EXPECTED_LEFT


class TestDeterminism:
    def test_worker_count_invariance(self):
        specs_by_run = [_pingpong() + [
            PartitionSpec("idle", lambda sim, gw: (lambda: sim.now), seed=3)
        ] for _ in range(3)]
        runs = [
            ParallelSimulation(specs, lookahead=LOOKAHEAD, workers=w).run(
                until=10.0
            )
            for specs, w in zip(specs_by_run, (1, 2, 3))
        ]
        for run in runs[1:]:
            assert run["left"].value == runs[0]["left"].value
            assert run["right"].value == runs[0]["right"].value

    def test_repeated_forked_runs_are_identical(self):
        first = ParallelSimulation(
            _pingpong(), lookahead=LOOKAHEAD, workers=2
        ).run(until=10.0)
        second = ParallelSimulation(
            _pingpong(), lookahead=LOOKAHEAD, workers=2
        ).run(until=10.0)
        assert first["left"].value == second["left"].value
        assert first["right"].value == second["right"].value


class TestGateway:
    def test_lookahead_rule_enforced_at_send(self):
        sim = Simulation()
        gateway = RemoteGateway("a", sim, lookahead=2.0)
        with pytest.raises(SimError, match="lookahead"):
            gateway.send("b", "x", delay=1.0)

    def test_inject_without_handler_is_an_error(self):
        sim = Simulation()
        gateway = RemoteGateway("a", sim, lookahead=1.0)
        envelope = RemoteEnvelope("b", "a", 0.0, 1.0, "x")
        with pytest.raises(SimError, match="no on_receive handler"):
            gateway._inject([envelope])

    def test_inject_rejects_causality_violation(self):
        sim = Simulation()
        sim.timeout(5.0)
        sim.run()
        gateway = RemoteGateway("a", sim, lookahead=1.0)
        gateway.on_receive(lambda env: None)
        stale = RemoteEnvelope("b", "a", 0.0, 1.0, "x")
        with pytest.raises(SimError, match="causality violation"):
            gateway._inject([stale])

    def test_injection_order_is_worker_assignment_independent(self):
        """Envelopes deliver sorted by (arrives_at, source, sent_at)."""
        sim = Simulation()
        gateway = RemoteGateway("a", sim, lookahead=1.0)
        seen = []
        gateway.on_receive(lambda env: seen.append(env.payload))
        shuffled = [
            RemoteEnvelope("z", "a", 0.5, 2.0, "late-z"),
            RemoteEnvelope("b", "a", 0.0, 1.0, "early-b"),
            RemoteEnvelope("b", "a", 0.5, 2.0, "late-b"),
            RemoteEnvelope("c", "a", 0.0, 1.0, "early-c"),
        ]
        gateway._inject(shuffled)
        sim.run()
        assert seen == ["early-b", "early-c", "late-b", "late-z"]


class TestEnvelopeCodec:
    def test_round_trip(self):
        batch = [
            RemoteEnvelope("a", "b", 0.25, 1.25, {"k": [1, 2]}),
            RemoteEnvelope("b", "a", 0.5, 1.5, "reply"),
        ]
        decoded = decode_batch(encode_batch(batch))
        assert [
            (e.source, e.destination, e.sent_at, e.arrives_at, e.payload)
            for e in decoded
        ] == [
            (e.source, e.destination, e.sent_at, e.arrives_at, e.payload)
            for e in batch
        ]

    def test_empty_batch_is_empty_bytes(self):
        assert encode_batch([]) == b""
        assert decode_batch(b"") == []


class TestValidation:
    def test_needs_partitions(self):
        with pytest.raises(SimError, match="at least one partition"):
            ParallelSimulation([], lookahead=1.0)

    def test_rejects_duplicate_names(self):
        dup = [
            PartitionSpec("p", _left_builder),
            PartitionSpec("p", _right_builder),
        ]
        with pytest.raises(SimError, match="duplicate partition names"):
            ParallelSimulation(dup, lookahead=1.0)

    def test_rejects_nonpositive_lookahead(self):
        with pytest.raises(SimError, match="lookahead must be positive"):
            ParallelSimulation(_pingpong(), lookahead=0.0)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(SimError, match="workers must be"):
            ParallelSimulation(_pingpong(), lookahead=1.0, workers=0)

    def test_workers_clamped_to_partition_count(self):
        driver = ParallelSimulation(_pingpong(), lookahead=1.0, workers=64)
        assert driver.workers == 2

    def test_until_must_be_positive(self):
        driver = ParallelSimulation(_pingpong(), lookahead=1.0)
        with pytest.raises(SimError, match="until must be positive"):
            driver.run(until=0.0)

    def test_envelope_to_unknown_partition_is_an_error(self):
        def chatty(sim, gateway):
            def driver():
                yield 0.5
                gateway.send("nowhere", "x", delay=1.0)

            gateway.on_receive(lambda env: None)
            sim.process(driver())
            return lambda: None

        driver = ParallelSimulation(
            [PartitionSpec("only", chatty)], lookahead=1.0
        )
        with pytest.raises(SimError, match="unknown partition"):
            driver.run(until=5.0)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


@contextlib.contextmanager
def _finishes_within(seconds):
    """Fail unless the block (error handling included) ends in time."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, limit {seconds}s"


class TestErrorPropagation:
    """A failing partition aborts the run promptly — no join timeout."""

    def test_builder_exception_surfaces_inline(self):
        def broken(sim, gateway):
            raise ValueError("boom at build time")

        driver = ParallelSimulation(
            [PartitionSpec("bad", broken)], lookahead=1.0
        )
        with _finishes_within(1.0):
            with pytest.raises(ValueError, match="boom at build time"):
                driver.run(until=1.0)

    def test_builder_exception_surfaces_from_worker(self):
        def broken(sim, gateway):
            raise ValueError("boom in the worker")

        driver = ParallelSimulation(
            [PartitionSpec("bad", broken), PartitionSpec("ok", _idle_builder)],
            lookahead=1.0,
            workers=2,
        )
        with _finishes_within(1.0):
            with pytest.raises(SimError, match="boom in the worker"):
                driver.run(until=1.0)

    def test_model_exception_surfaces_from_worker(self):
        def explodes_later(sim, gateway):
            def driver():
                yield 2.5
                raise RuntimeError("mid-flight failure")

            gateway.on_receive(lambda env: None)
            sim.process(driver())
            return lambda: None

        driver = ParallelSimulation(
            [
                PartitionSpec("boomy", explodes_later),
                PartitionSpec("calm", _idle_builder),
            ],
            lookahead=1.0,
            workers=2,
        )
        with _finishes_within(1.0):
            with pytest.raises(SimError, match="mid-flight failure"):
                driver.run(until=10.0)
