"""Seeded end-to-end determinism against a committed golden snapshot.

The performance work on the kernel, pipeline, net and metrics layers is
only acceptable if it changes *nothing* observable: same seeds must
produce byte-identical experiment outputs. This test replays one short
point of every experiment entry point (clustering, QoS in both access
models, failure recovery, sharded serial/partitioned, overload, the
chaos/shard-chaos/scale-chaos soaks, the cache tier, autoscaling) and
compares the result — floats via ``repr``, so even a single ulp of
drift fails — against ``golden_determinism.json``. It also pins the
stage-name order of every stage composition the experiments run and
the stage listings the CLI ``--describe`` pages print.

The golden file was captured from the pre-optimization tree; it must
only ever be regenerated for a *deliberate* behavioural change (new
RNG draws, different scheduling order), never to paper over an
accidental one::

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.integration.test_determinism import snapshot
    print(json.dumps(snapshot(), indent=2, sort_keys=True))
    EOF
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro.cli import main as cli_main
from repro.core.autoscale import TenantThrottle
from repro.core.pipeline import (
    STAGE_MODELS,
    BackpressureStage,
    CircuitBreakerStage,
    RetryStage,
    ThrottleStage,
    TimeoutBudgetStage,
    compose_stages,
    stage_plan,
)
from repro.workload.chaos import (
    run_autoscale_experiment,
    run_chaos_experiment,
    run_overload_experiment,
    run_scale_chaos_experiment,
    run_shard_chaos_experiment,
)
from repro.workload.scenarios import (
    run_cache_tier_experiment,
    run_clustering_experiment,
    run_failure_recovery_experiment,
    run_qos_experiment,
    run_sharded_qos_experiment,
)

GOLDEN = Path(__file__).resolve().parent / "golden_determinism.json"


def snapshot():
    """One deterministic point per experiment family, floats as repr."""
    snap = {}

    fig7 = {}
    for degree in (1, 4, 8):
        r = run_clustering_experiment(degree, seed=2026)
        fig7[str(degree)] = {
            "requests": r.requests,
            "mean_response_time": repr(r.mean_response_time),
            "max_response_time": repr(r.max_response_time),
            "backend_calls": r.backend_calls,
            "errors": r.errors,
        }
    snap["fig7"] = fig7

    def qos_section(qos):
        return {
            "completions": {
                str(k): v for k, v in sorted(qos.completions.items())
            },
            "full_fidelity": {
                str(k): v for k, v in sorted(qos.full_fidelity.items())
            },
            "drop_ratios": {
                broker: {str(k): repr(v) for k, v in sorted(ratios.items())}
                for broker, ratios in sorted(qos.drop_ratios.items())
            },
            "mean_response": {
                str(k): repr(v.mean)
                for k, v in sorted(qos.response_times.items())
            },
            "p99_response": {
                str(k): repr(v.p99)
                for k, v in sorted(qos.response_times.items())
            },
        }

    snap["table1"] = qos_section(
        run_qos_experiment(12, mode="broker", duration=30.0, seed=2026)
    )

    fr = run_failure_recovery_experiment(
        mtbf=20.0, mttr=5.0, replicas=2, duration=60.0,
        first_crash_at=10.0, seed=2026,
    )
    snap["failure_recovery"] = {
        "outages": fr.outages,
        "downtime": repr(fr.downtime),
        "requests": fr.requests,
        "ok": fr.ok,
        "degraded": fr.degraded,
        "dropped": fr.dropped,
        "errors": fr.errors,
        "timeouts": fr.timeouts,
        "outage_requests": fr.outage_requests,
        "outage_ok": fr.outage_ok,
        "outage_degraded": fr.outage_degraded,
        "latency_mean": repr(fr.latency.mean),
        "latency_p99": repr(fr.latency.p99),
        "retries": fr.retries,
        "retry_recovered": fr.retry_recovered,
        "failovers": fr.failovers,
        "failover_recovered": fr.failover_recovered,
        "breaker_opens": fr.breaker_opens,
        "fault_replies": fr.fault_replies,
    }

    def sharded_section(result):
        return {
            "completions": {
                str(k): v for k, v in sorted(result.completions.items())
            },
            "full_fidelity": {
                str(k): v for k, v in sorted(result.full_fidelity.items())
            },
            "mean_response": {
                str(k): repr(v.mean)
                for k, v in sorted(result.response_times.items())
            },
            "p99_response": {
                str(k): repr(v.p99)
                for k, v in sorted(result.response_times.items())
            },
            "forwards": result.forwards,
            "local_routes": result.local_routes,
            "elections": result.elections,
        }

    # The degenerate single-shard topology and the multi-shard serial
    # (workers=1) path both ride the exact classic code path; their
    # seeded outputs are part of the byte-identical contract.
    snap["sharded_single_shard"] = sharded_section(
        run_sharded_qos_experiment(
            12, shards=1, replicas=1, duration=30.0, seed=2026
        )
    )
    snap["sharded_workers1"] = sharded_section(
        run_sharded_qos_experiment(
            12, shards=2, replicas=2, duration=30.0, seed=2026, workers=1
        )
    )

    # One short elastic-pool point: the autoscaler control loop, the
    # drain protocol, and the tenant throttle all draw from the seeded
    # streams, so their outputs are part of the byte-identical contract.
    scale = run_autoscale_experiment(duration=60.0, seed=2026)
    snap["autoscale"] = {
        "requests": scale.requests,
        "ok": scale.ok,
        "degraded": scale.degraded,
        "throttled": scale.throttled,
        "dropped": scale.dropped,
        "timeouts": scale.timeouts,
        "errors": scale.errors,
        "provisioned": scale.provisioned,
        "scale_outs": scale.scale_outs,
        "scale_ins": scale.scale_ins,
        "drains_completed": scale.drains_completed,
        "handoffs": scale.handoffs,
        "drain_refused": scale.drain_refused,
        "mean_size": repr(scale.mean_size),
        "peak_size": scale.peak_size,
        "premium_p99": repr(scale.premium_p99()),
        "tenants": {
            name: {k: v for k, v in sorted(info.items())}
            for name, info in sorted(scale.tenants.items())
        },
        "timeline_len": len(scale.timeline),
    }

    snap["qos_centralized"] = qos_section(
        run_qos_experiment(12, mode="centralized", duration=30.0, seed=2026)
    )
    snap["sharded_centralized"] = sharded_section(
        run_sharded_qos_experiment(
            12, shards=2, replicas=2, duration=30.0, seed=2026,
            mode="centralized",
        )
    )
    # The partitioned path is deterministic in (seed, shards); any
    # worker count >= 2 gives these bytes.
    snap["sharded_workers2"] = sharded_section(
        run_sharded_qos_experiment(
            12, shards=2, replicas=2, duration=30.0, seed=2026, workers=2
        )
    )

    overload = run_overload_experiment(
        saturation=2.5, bounded=True, duration=5.0, drain=15.0, seed=2026
    )
    snap["overload"] = {
        "issued": {str(k): v for k, v in sorted(overload.issued.items())},
        "ok": {str(k): v for k, v in sorted(overload.ok.items())},
        "degraded": {str(k): v for k, v in sorted(overload.degraded.items())},
        "dropped": {str(k): v for k, v in sorted(overload.dropped.items())},
        "goodput": {
            str(k): repr(v) for k, v in sorted(overload.goodput.items())
        },
        "mean_latency": {
            str(k): repr(v.mean) for k, v in sorted(overload.latency.items())
        },
        "shed": overload.shed,
        "peak_depth": overload.peak_depth,
        "backpressure_engaged": overload.backpressure_engaged,
    }

    # Soaks: the JSON summaries plus the exact latency mean (the
    # summaries round percentiles to 6 places).
    def soak_section(result):
        section = result.to_summary()
        section["latency_mean"] = repr(result.latency.mean)
        return section

    snap["chaos"] = soak_section(
        run_chaos_experiment(duration=30.0, spike_every=12.0, seed=2026)
    )
    snap["shard_chaos"] = soak_section(
        run_shard_chaos_experiment(
            duration=30.0, shards=2, replicas=2, seed=2026
        )
    )
    snap["scale_chaos"] = soak_section(
        run_scale_chaos_experiment(duration=48.0, seed=2026)
    )

    cache = run_cache_tier_experiment(
        n_clients=80, brokers=4, duration=2.0, table_rows=2000, seed=2026
    )
    snap["cache_tier"] = {
        name: (repr(value.mean) if name == "latency" else value)
        for name, value in sorted(vars(cache).items())
    }

    snap["stage_orders"] = stage_orders()
    snap["describe"] = describe_texts()
    return snap


def stage_orders():
    """Stage-name order of every composition the experiments run."""

    def hardened(*extra):
        return compose_stages(
            TimeoutBudgetStage(),
            CircuitBreakerStage(),
            RetryStage(),
            BackpressureStage(48),
            *extra,
        )

    plans = {model: stage_plan(model) for model in STAGE_MODELS}
    plans["overload"] = compose_stages(BackpressureStage(40))
    plans["hardened"] = hardened()
    plans["hardened-throttled"] = hardened(
        ThrottleStage(TenantThrottle(rate=1.0, burst=1.0))
    )
    return {
        name: [stage.name for stage in stages]
        for name, stages in sorted(plans.items())
    }


def _cli_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue()


def _stage_block(text):
    """The stage listing of a ``--describe`` page (header to blank line)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if "pipeline (" in line)
    end = lines.index("", start)
    return lines[start:end]


def describe_texts():
    """The pinned ``--describe`` renderings of every stage plan."""
    return {
        "pipeline": _cli_text("pipeline", "--describe").splitlines(),
        "faults": _stage_block(_cli_text("faults", "--describe")),
        "shard": _stage_block(_cli_text("shard", "--describe")),
        "cache": _stage_block(_cli_text("cache", "--describe")),
    }


def test_experiments_match_golden_snapshot():
    """Same seed, same outputs — bit-for-bit, including float reprs."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = snapshot()
    assert current == golden, (
        "seeded experiment outputs drifted from the golden snapshot; "
        "see the module docstring before even thinking about "
        "regenerating it"
    )


def test_partitioned_results_are_worker_count_invariant():
    """workers=2 and workers=3 agree exactly on the partitioned run.

    The parallel path is deterministic in ``(seed, shards)`` — never in
    the worker count or scheduling; see DESIGN.md §14.
    """
    runs = [
        run_sharded_qos_experiment(
            12, shards=3, replicas=1, duration=20.0, seed=2026, workers=w
        )
        for w in (2, 3)
    ]
    first, second = runs
    assert first.completions == second.completions
    assert first.full_fidelity == second.full_fidelity
    assert first.local_routes == second.local_routes
    assert {
        k: repr(v.mean) for k, v in first.response_times.items()
    } == {k: repr(v.mean) for k, v in second.response_times.items()}


def test_snapshot_is_itself_deterministic():
    """Two in-process runs of the QoS point agree exactly."""
    first = run_qos_experiment(12, mode="broker", duration=30.0, seed=2026)
    second = run_qos_experiment(12, mode="broker", duration=30.0, seed=2026)
    assert first.completions == second.completions
    assert {
        k: repr(v.mean) for k, v in first.response_times.items()
    } == {k: repr(v.mean) for k, v in second.response_times.items()}
