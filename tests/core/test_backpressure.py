"""Backpressure: bounded-queue shedding, watermarks, frontend throttle."""

from __future__ import annotations

import pytest

from repro.core import (
    BackpressureStage,
    BrokerClient,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
    compose_stages,
)
from repro.frontend import FrontendWebServer, WebApplication
from repro.frontend.app import QOS_HEADER
from repro.http import BackendWebServer, HttpClient, HttpRequest


@pytest.fixture
def slow_backend(sim, net):
    server = BackendWebServer(sim, net.node("origin"), max_clients=1)

    def cgi(server, request):
        yield server.sim.timeout(0.05)
        return "ok"

    server.add_cgi("/work", cgi)
    return server


def make_broker(sim, net, backend, capacity, policy, **kwargs):
    node = net.node("webhost")
    broker = ServiceBroker(
        sim,
        node,
        service="web",
        adapters=[HttpAdapter(sim, node, backend.address, name="origin")],
        qos=QoSPolicy(levels=3, threshold=10_000),
        stages=compose_stages(BackpressureStage(capacity, shed_policy=policy)),
        dispatchers=1,
        pool_size=1,
        **kwargs,
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    return broker, client


def backpressure_stage(broker: ServiceBroker) -> BackpressureStage:
    return next(
        stage for stage in broker.pipeline.stages
        if isinstance(stage, BackpressureStage)
    )


def flood(sim, client, count, qos, statuses, spacing=0.0001):
    def one(i):
        yield sim.timeout(spacing * i)
        reply = yield from client.call(
            "web", "get", ("/work", {"i": i}), qos_level=qos, cacheable=False
        )
        statuses.append((qos, reply.status))

    for i in range(count):
        sim.process(one(i))


class TestShedAccounting:
    def test_sheds_counted_apart_from_admission_drops(self, sim, net, slow_backend):
        broker, client = make_broker(sim, net, slow_backend, 2, "reject-new")
        statuses = []
        flood(sim, client, 8, qos=2, statuses=statuses)
        sim.run()
        shed = broker.metrics.counter("broker.shed")
        # Every arrival beyond the in-flight one and the 2 queued slots
        # was shed, and every shed landed in the policy + class buckets
        # — not in the admission-drop counters.
        assert shed > 0
        assert broker.metrics.counter("broker.shed.reject-new") == shed
        assert broker.metrics.counter("broker.shed.qos2") == shed
        assert broker.metrics.counter("broker.drops") == 0
        assert broker.drop_ratio(2) == 0.0
        assert broker.shed_ratio(2) == pytest.approx(
            shed / broker.metrics.counter("broker.admitted.qos2")
        )
        # Nobody waits forever: shed arrivals got an immediate reply.
        assert len(statuses) == 8
        terminal = {s for _, s in statuses}
        assert terminal <= {ReplyStatus.OK, ReplyStatus.DROPPED, ReplyStatus.DEGRADED}
        assert broker.outstanding == 0

    def test_drop_lowest_sheds_worst_class_for_premium(self, sim, net, slow_backend):
        broker, client = make_broker(sim, net, slow_backend, 2, "drop-lowest")
        statuses = []
        # Fill the queue with class-3 work, then premium arrivals evict it.
        flood(sim, client, 4, qos=3, statuses=statuses)

        def premium(i):
            yield sim.timeout(0.001 + 0.0001 * i)
            reply = yield from client.call(
                "web", "get", ("/work", {"p": i}), qos_level=1, cacheable=False
            )
            statuses.append((1, reply.status))

        for i in range(2):
            sim.process(premium(i))
        sim.run()
        assert broker.metrics.counter("broker.shed.drop-lowest") > 0
        assert broker.metrics.counter("broker.shed.qos3") > 0
        # Premium work was never shed; every premium call completed OK.
        assert broker.metrics.counter("broker.shed.qos1") == 0
        assert all(s is ReplyStatus.OK for q, s in statuses if q == 1)
        assert broker.shed_ratio(3) > broker.shed_ratio(1) == 0.0
        assert len(statuses) == 6


class TestWatermarks:
    def test_engage_release_hysteresis_notifies_listeners(
        self, sim, net, slow_backend
    ):
        broker, client = make_broker(sim, net, slow_backend, 4, "reject-new")
        stage = backpressure_stage(broker)
        transitions = []
        stage.add_listener(lambda engaged, name: transitions.append((engaged, name)))
        statuses = []
        # high = int(4 * 0.75) = 3, low = min(2, high-1) = 2.
        flood(sim, client, 8, qos=2, statuses=statuses)

        def late_probe():
            # Long after the backlog drained, one more request observes
            # the low watermark and releases the throttle.
            yield sim.timeout(5.0)
            assert stage.engaged
            yield from client.call(
                "web", "get", ("/work", {"late": 1}), cacheable=False
            )

        sim.process(late_probe())
        sim.run()
        assert not stage.engaged
        assert transitions == [(True, broker.name), (False, broker.name)]
        assert broker.metrics.counter("broker.backpressure.engaged") == 1
        assert broker.metrics.counter("broker.backpressure.released") == 1

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            BackpressureStage(0)
        with pytest.raises(ValueError):
            BackpressureStage(10, high_watermark=0.5, low_watermark=0.75)
        with pytest.raises(ValueError):
            BackpressureStage(10, high_watermark=1.5)


class TestFrontendThrottle:
    def make_frontend(self, sim, net):
        frontend = FrontendWebServer(
            sim, net.node("web"), throttle_level=2
        )

        def hello(frontend_server, request):
            yield frontend_server.sim.timeout(0.01)
            return "hello"

        frontend.register_app(WebApplication(path="/hello", handler=hello))
        return frontend

    def fetch(self, sim, net, frontend, qos):
        request = HttpRequest(
            method="GET", path="/hello", headers={QOS_HEADER: str(qos)}
        )
        node = net.node(f"client{len(net.nodes)}")

        def run():
            return (
                yield from HttpClient.fetch(sim, node, frontend.address, request)
            )

        return sim.run(sim.process(run()))

    def test_throttled_classes_get_503(self, sim, net):
        frontend = self.make_frontend(sim, net)
        frontend.set_throttled(True, "broker-a")
        assert frontend.throttled
        response = self.fetch(sim, net, frontend, qos=3)
        assert response.status == 503
        assert "backpressure" in response.body
        assert frontend.metrics.counter("frontend.throttled") == 1
        assert frontend.metrics.counter("frontend.throttled.qos3") == 1

    def test_premium_classes_pass_while_throttled(self, sim, net):
        frontend = self.make_frontend(sim, net)
        frontend.set_throttled(True, "broker-a")
        response = self.fetch(sim, net, frontend, qos=1)
        assert response.status == 200
        assert frontend.metrics.counter("frontend.throttled") == 0

    def test_throttle_clears_when_all_sources_release(self, sim, net):
        frontend = self.make_frontend(sim, net)
        frontend.set_throttled(True, "broker-a")
        frontend.set_throttled(True, "broker-b")
        frontend.set_throttled(False, "broker-a")
        # One broker is still overloaded: stay throttled.
        assert frontend.throttled
        assert self.fetch(sim, net, frontend, qos=2).status == 503
        frontend.set_throttled(False, "broker-b")
        assert not frontend.throttled
        assert self.fetch(sim, net, frontend, qos=2).status == 200
        assert frontend.metrics.counter("frontend.throttle.engaged") == 2
        assert frontend.metrics.counter("frontend.throttle.released") == 2

    def test_unthrottled_frontend_never_503s(self, sim, net):
        frontend = self.make_frontend(sim, net)
        assert self.fetch(sim, net, frontend, qos=3).status == 200
