"""Columnar-vs-object equivalence property suite.

The columnar :class:`Trace` (struct-of-arrays ring buffer) must be an
*observationally exact* drop-in for the object-per-event reference
collector in ``tests/oracles/`` (:class:`~tests.oracles.ObjectTrace`):
identical events, renders, folds and exports — bit for bit, not
approximately.  Each scenario here runs the same seeded workload twice,
once per trace implementation, and asserts byte/float identity across
every consumer surface:

- ``events`` (values AND Python types of every payload entry)
- ``render_timeline`` output
- ``StepMetrics.from_trace`` (columnar fold vs the per-event oracle)
- ``request_latencies`` / ``queue_delays``
- JSONL export bytes

Single-instance scenarios cover the scheduler, admission, chunking,
prefix and telemetry paths; the fleet scenarios cover what only fleets
record: ``KV_TRANSFER`` / ``SCALE_*`` events and ``#pf`` stage ids
(``disagg``), ``REROUTE`` gate denials (``router-gate``) and
``FALLBACK`` events with ``#fb`` re-decodes (``router-fallback``).

Scheduler policies also get a vector-vs-scalar parity check: the NumPy
paths must make exactly the decisions of the tuple-``min`` paths.
"""

import copy
import itertools

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    Autoscaler,
    DisaggFleet,
    EventType,
    PrefixIndex,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Telemetry,
    Trace,
    dump_jsonl,
    make_policy,
    queue_delays,
    request_latencies,
)
from tests import oracles

FP16 = NoCompression().cost_spec()


def instance(comp=None, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, comp or FP16, **kw)


def workload(seed, n=40, slo=False, tokens=False):
    rng = np.random.default_rng(seed)
    t = 0.0
    reqs = []
    for i in range(n):
        t += float(rng.exponential(0.2))
        kw = {}
        if slo and rng.random() < 0.7:
            kw["ttft_deadline"] = float(rng.uniform(0.5, 4.0))
            kw["tbot_target"] = float(rng.uniform(0.02, 0.2))
        if tokens:
            # shared 64-token stem with 50% probability -> prefix hits
            stem = tuple(range(64)) if rng.random() < 0.5 else tuple(
                int(x) for x in rng.integers(0, 10_000, 64)
            )
            tail = tuple(int(x) for x in rng.integers(0, 10_000, 192))
            kw["token_ids"] = stem + tail
        reqs.append(
            ServingRequest(
                f"r{i}",
                t,
                prompt_len=256 if tokens else int(rng.integers(16, 512)),
                response_len=int(rng.integers(1, 96)),
                priority=int(rng.integers(0, 4)),
                **kw,
            )
        )
    return reqs


def run_disagg(seed, trace):
    """An autoscaled disaggregated fleet under a storm-then-trickle
    load: stage handoffs, scale-ups in the storm, drains after it."""
    reqs = workload(seed, slo=True)
    for i, r in enumerate(reqs):
        # the first half lands as a storm, the rest trickles in
        r.arrival = 0.02 * i if i < 20 else 0.4 + 1.5 * (i - 19)
        r.response_len = max(2, r.response_len)
    fleet = DisaggFleet(
        [instance(max_batch=4) for _ in range(2)],
        [instance(max_batch=4) for _ in range(3)],
        prefill_active=1,
        decode_active=1,
        autoscaler=Autoscaler(tick=0.25, queue_high=2.0),
    )
    return fleet.serve(reqs, trace=trace).requests


ROUTER_ALGOS = ("fp16", "kivi-4", "stream-512")


def run_router(seed, trace, fallback):
    """The compression-aware router over a mixed fleet, every third
    request risky: gate denials (``REROUTE``) with the fallback off,
    verify-and-fallback re-decodes (``FALLBACK``, ``#fb``) with it on."""
    rng = np.random.default_rng(seed)
    t = 0.0
    routed = []
    for i in range(30):
        t += float(rng.exponential(0.15))
        resp = int(rng.integers(8, 96))
        routed.append(
            RoutedRequest(
                f"r{i}", t, int(rng.integers(64, 512)), resp,
                {a: resp for a in ROUTER_ALGOS},
                risk=0.9 if i % 3 == 0 else 0.0,
            )
        )
    router = Router(
        [instance(create(a).cost_spec(), max_batch=8) for a in ROUTER_ALGOS],
        list(ROUTER_ALGOS),
        RoutingPolicy.COMPRESSION,
        fallback=fallback,
    )
    return router.serve_online(routed, trace=trace).all_requests()


SCENARIOS = {
    "core": dict(kw=dict(max_batch=8)),
    "dynamic": dict(kw=dict(admission="dynamic", max_batch=16)),
    "chunked": dict(kw=dict(chunk_size=64, max_batch=8)),
    "slo": dict(kw=dict(scheduler=make_policy("slo"), max_batch=8), slo=True),
    "priority": dict(kw=dict(scheduler=make_policy("priority"), max_batch=8)),
    "shortest": dict(kw=dict(scheduler=make_policy("shortest"), max_batch=8)),
    "prefix": dict(kw=dict(max_batch=8), tokens=True, prefix=True),
    "telemetry": dict(kw=dict(max_batch=8), telemetry=True),
    "disagg": dict(
        run=run_disagg,
        covers=(EventType.KV_TRANSFER, EventType.SCALE_UP,
                EventType.SCALE_DOWN),
        ids="#pf",
    ),
    "router-gate": dict(
        run=lambda seed, trace: run_router(seed, trace, fallback=False),
        covers=(EventType.REROUTE,),
    ),
    "router-fallback": dict(
        run=lambda seed, trace: run_router(seed, trace, fallback=True),
        covers=(EventType.FALLBACK,),
        ids="#fb",
    ),
}


def run_pair(name, seed):
    spec = SCENARIOS[name]
    if "run" in spec:
        return [
            (trace, spec["run"](seed, trace))
            for trace in (Trace(), oracles.ObjectTrace())
        ]
    reqs = workload(
        seed, slo=spec.get("slo", False), tokens=spec.get("tokens", False)
    )
    results = []
    for trace in (Trace(), oracles.ObjectTrace()):
        kw = dict(spec["kw"])
        if spec.get("prefix"):
            kw["prefix_cache"] = PrefixIndex(block_size=16)
        tel = Telemetry() if spec.get("telemetry") else None
        inst = instance(**kw)
        res = inst.run(copy.deepcopy(reqs), trace=trace, telemetry=tel)
        results.append((trace, res.requests))
    return results


@pytest.mark.parametrize(
    "name,seed",
    list(itertools.product(SCENARIOS, (0, 1))),
    ids=lambda v: str(v),
)
def test_columnar_matches_object(name, seed, tmp_path):
    (col, col_reqs), (obj, obj_reqs) = run_pair(name, seed)
    assert len(col) == len(obj) > 0

    # the scenario exercises the event kinds and stage ids it is for
    spec = SCENARIOS[name]
    for kind in spec.get("covers", ()):
        assert obj.of_kind(kind), (name, kind)
    if "ids" in spec:
        assert any(spec["ids"] in rid for rid in obj.request_ids())

    # events: identical values AND identical Python types per payload
    for ce, oe in zip(col.events, obj.events):
        assert ce == oe
        for k, cv in ce.data.items():
            assert type(cv) is type(oe.data[k]), (name, k, cv)

    # rendered timeline is byte-identical
    assert col.render_timeline() == obj.render_timeline()
    assert col.render_timeline(limit=7) == obj.render_timeline(limit=7)

    # folds: vectorized columnar fold == per-event oracle fold, exactly
    assert StepMetrics.from_trace(col) == oracles.step_metrics(obj)
    assert request_latencies(col) == oracles.request_latencies(obj)
    assert queue_delays(col) == oracles.queue_delays(obj)

    # the simulated requests themselves are unaffected by the trace impl
    assert col_reqs == obj_reqs

    # JSONL export bytes are identical
    pc, po = tmp_path / "col.jsonl", tmp_path / "obj.jsonl"
    dump_jsonl(col, pc)
    oracles.dump_jsonl(obj, po)
    assert pc.read_bytes() == po.read_bytes()


def test_per_kind_and_per_request_views_match():
    (col, _), (obj, _) = run_pair("dynamic", 3)
    for kind in {e.kind for e in obj.events}:
        assert list(col.of_kind(kind)) == obj.of_kind(kind)
    for rid in obj.request_ids():
        assert list(col.for_request(rid)) == obj.for_request(rid)
    assert col.request_ids() == obj.request_ids()
    assert col.counts() == obj.counts()


class TestSchedulerVectorScalarParity:
    """The NumPy select/victim paths kick in at ``_VECTOR_MIN`` queue
    length; both must pick the same index as the tuple-``min`` scalar
    path for every policy, including all tie patterns."""

    def queue(self, seed, n):
        rng = np.random.default_rng(seed)
        reqs = []
        for i in range(n):
            r = ServingRequest(
                f"q{i}",
                # coarse grid -> frequent arrival ties
                arrival=float(rng.integers(0, 6)) * 0.5,
                prompt_len=int(rng.integers(16, 256)),
                response_len=int(rng.integers(1, 64)),
                priority=int(rng.integers(0, 3)),
                predicted_len=(
                    float(rng.integers(1, 64))
                    if rng.random() < 0.5 else None
                ),
                ttft_deadline=(
                    float(rng.uniform(0.5, 2.0))
                    if rng.random() < 0.5 else None
                ),
                tbot_target=(
                    float(rng.uniform(0.05, 0.2))
                    if rng.random() < 0.5 else None
                ),
            )
            if rng.random() < 0.4:
                r.first_token = r.arrival + float(rng.uniform(0.1, 1.0))
                r.generated = int(rng.integers(1, r.response_len + 1))
            reqs.append(r)
        return reqs

    def scalar_select(self, policy, waiting, clock):
        import repro.serving.scheduler as sched

        saved = sched._VECTOR_MIN
        sched._VECTOR_MIN = 10**9
        try:
            return policy.select(waiting, clock)
        finally:
            sched._VECTOR_MIN = saved

    def scalar_victim(self, policy, running, clock):
        import repro.serving.scheduler as sched

        saved = sched._VECTOR_MIN
        sched._VECTOR_MIN = 10**9
        try:
            return policy.victim(running, clock)
        finally:
            sched._VECTOR_MIN = saved

    @pytest.mark.parametrize(
        "name", ["fcfs", "shortest", "priority", "slo"]
    )
    def test_parity(self, name):
        for seed in range(8):
            reqs = self.queue(seed, 24)
            clock = 5.0
            policy = make_policy(name)
            assert policy.select(reqs, clock) == self.scalar_select(
                policy, reqs, clock
            )
            assert policy.victim(reqs, clock) == self.scalar_victim(
                policy, reqs, clock
            )

    def test_slack_array_matches_scalar(self):
        policy = make_policy("slo")
        reqs = self.queue(11, 32)
        arr = policy.slack_array(reqs, 5.0)
        for i, r in enumerate(reqs):
            assert arr[i] == policy.slack(r, 5.0)
