"""Benchmark: event-driven serving core under load.

Drives one instance near saturation with each scheduler policy and
admission mode, and compares offline vs online routing on a 4-instance
shared-clock cluster.  Writes ``results/serving_core.txt``.
"""

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.compression import NoCompression
from repro.engines import LMDEPLOY, ServingCostModel
from repro.experiments.common import ExperimentResult
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Trace,
    make_policy,
)

FP16 = NoCompression().cost_spec()


def _instance(**kw):
    return ServerInstance(
        ServingCostModel(LLAMA_7B, A6000, LMDEPLOY), FP16, **kw
    )


def _stream(n=64, seed=7, rps=8.0):
    # long prompts/responses so the KV budget, not max_batch, is the
    # binding constraint — this is where admission modes diverge
    rng = np.random.default_rng(seed)
    arr = np.cumsum(rng.exponential(1.0 / rps, size=n))
    prompts = rng.integers(512, 3072, size=n)
    resps = rng.integers(128, 1024, size=n)
    prios = rng.integers(0, 3, size=n)
    return [
        ServingRequest(
            f"r{i}", float(arr[i]), int(prompts[i]), int(resps[i]),
            priority=int(prios[i]),
        )
        for i in range(n)
    ]


def _policy_rows():
    rows, raw = [], []
    for policy in ("fcfs", "shortest", "priority"):
        for admission in ("reserve", "dynamic"):
            inst = _instance(
                scheduler=make_policy(policy), admission=admission
            )
            trace = Trace()
            res = inst.run(_stream(), trace=trace)
            m = StepMetrics.from_trace(trace)
            rows.append(
                [
                    policy,
                    admission,
                    f"{res.mean_e2e():.2f}",
                    f"{res.percentile_e2e(99):.2f}",
                    f"{m.mean_batch_occupancy:.1f}",
                    f"{m.mean_queue_delay * 1e3:.1f}",
                    str(m.preempts),
                ]
            )
            raw.append(
                {
                    "policy": policy,
                    "admission": admission,
                    "mean_e2e": res.mean_e2e(),
                    "p99_e2e": res.percentile_e2e(99),
                    "goodput": m.goodput,
                    "mean_queue_delay": m.mean_queue_delay,
                    "preempts": m.preempts,
                }
            )
    return rows, raw


def _routing_rows():
    rng = np.random.default_rng(11)
    arr = np.cumsum(rng.exponential(0.05, size=64))
    routed = [
        RoutedRequest(
            f"q{i}", float(arr[i]), int(rng.integers(128, 1024)), 64,
            {"fp16": int(rng.integers(16, 192))},
        )
        for i in range(64)
    ]
    rows = []
    for mode in ("offline", "online"):
        router = Router(
            [_instance() for _ in range(4)], ["fp16"] * 4,
            RoutingPolicy.LOAD_BALANCE,
        )
        serve = router.serve_online if mode == "online" else router.serve
        res = serve(routed)
        s = res.latency_summary()
        rows.append(
            [mode, f"{s.mean:.2f}", f"{s.p99:.2f}", f"{s.queue_delay * 1e3:.1f}"]
        )
    return rows


def test_serving_core(benchmark, record_result, record_bench_json):
    def build():
        res = ExperimentResult(
            name="Serving core — scheduler policies and routing modes",
            description=(
                "64 Poisson requests on one instance per scheduler/"
                "admission combo; 4-instance shared-clock cluster for "
                "offline vs online load-balance routing."
            ),
        )
        policy_rows, policy_raw = _policy_rows()
        res.data["raw"] = policy_raw
        res.tables.append(
            format_table(
                ["policy", "admission", "mean e2e", "p99",
                 "occupancy", "queue (ms)", "preempts"],
                policy_rows,
                title="Single instance:",
            )
        )
        res.tables.append(
            format_table(
                ["routing", "mean e2e", "p99", "queue (ms)"],
                _routing_rows(),
                title="4-instance cluster (load balance):",
            )
        )
        return res

    res = benchmark.pedantic(build, rounds=1, iterations=1)
    record_result(res, "serving_core")
    record_bench_json("serving_core", {"policies": res.data["raw"]})
    # every policy/admission combo served the whole stream
    assert len(res.tables) == 2


def test_chunked_prefill(benchmark, record_result, record_bench_json):
    """Chunked prefill cuts the decode-stall tail at equal throughput."""
    from repro.experiments import chunked_prefill

    res = benchmark.pedantic(
        chunked_prefill.run, rounds=1, iterations=1
    )
    record_result(res, "serving_chunked")
    record_bench_json("serving_chunked", {"chunks": res.data["raw"]})
    by_chunk = {r["chunk"]: r for r in res.data["raw"]}
    off, chunked = by_chunk[None], by_chunk[512]
    # acceptance criterion: >=2x smaller max inter-DECODE_STEP gap at
    # equal total throughput (within 2%)
    assert chunked["max_decode_gap"] * 2 <= off["max_decode_gap"]
    assert chunked["throughput"] == pytest.approx(
        off["throughput"], rel=0.02
    )
