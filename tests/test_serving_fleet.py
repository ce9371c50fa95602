"""Tests for the disaggregated prefill/decode fleet: priced KV
handoffs, kv_ready admission, telemetry-driven autoscaling, monolithic
bit-for-bit parity — plus the cluster-state regression cases (stale
telemetry sink across runs, doomed-request occupancy inflation,
route_to mid-run semantics)."""

import numpy as np
import pytest

from repro.compression import NoCompression
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000, NVLINK_A6000, PCIE_GEN4, transfer_time
from repro.model.arch import LLAMA_7B
from repro.serving import (
    Autoscaler,
    Cluster,
    DisaggFleet,
    EventLoop,
    EventType,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Telemetry,
    Trace,
    least_loaded,
)
from tests import oracles

FP16 = NoCompression().cost_spec()


def instance(comp=FP16, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, comp, **kw)


def instances(n, **kw):
    return [instance(**kw) for _ in range(n)]


def requests(n, prompt=256, resp=32, spacing=0.5, deadline=None):
    return [
        ServingRequest(
            f"r{i}", i * spacing, prompt, resp, ttft_deadline=deadline
        )
        for i in range(n)
    ]


def burst_requests(n_burst=24, n_tail=8, deadline=2.0):
    """A storm of near-simultaneous arrivals, then a sparse tail: the
    storm should trip scale-ups, the tail should trip drains."""
    reqs = [
        ServingRequest(f"b{i}", 0.05 * i, 384, 64, ttft_deadline=deadline)
        for i in range(n_burst)
    ]
    t0 = 0.05 * n_burst
    reqs += [
        ServingRequest(
            f"t{i}", t0 + 4.0 * (i + 1), 256, 24, ttft_deadline=deadline
        )
        for i in range(n_tail)
    ]
    return reqs


class TestKVTransfer:
    def test_transfer_event_priced_by_link(self):
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(requests(3, prompt=300, resp=16), trace=trace)
        xfers = trace.of_kind(EventType.KV_TRANSFER)
        assert len(xfers) == 3
        per_token = LLAMA_7B.kv_bytes_per_token()
        for ev in xfers:
            assert ev.data["tokens"] == 300
            assert ev.data["bytes"] == 300 * per_token
            assert ev.data["seconds"] == pytest.approx(
                transfer_time(NVLINK_A6000, 300 * per_token)
            )
            assert ev.data["link"] == "nvlink-a6000"
            assert ev.instance == "dec0"  # recorded at the receiver
        folded = StepMetrics.from_trace(res.trace)
        assert folded.kv_transfers == 3
        assert folded.kv_transfer_bytes == 3 * 300 * per_token

    def test_compressed_kv_ships_fewer_bytes(self):
        from repro.compression import create

        kivi = create("kivi-4").cost_spec()
        trace = Trace()
        fleet = DisaggFleet(
            instances(1, comp=kivi), instances(1, comp=kivi)
        )
        fleet.serve(requests(1, prompt=400, resp=8), trace=trace)
        ev = trace.of_kind(EventType.KV_TRANSFER)[0]
        full = 400 * LLAMA_7B.kv_bytes_per_token()
        assert ev.data["bytes"] == pytest.approx(
            full * kivi.kv_bytes_ratio, rel=1e-9
        )
        assert ev.data["bytes"] < full

    def test_alternate_link_pricing(self):
        t_nv, t_pci = Trace(), Trace()
        DisaggFleet(instances(1), instances(1)).serve(
            requests(1, prompt=512, resp=8), trace=t_nv
        )
        DisaggFleet(
            instances(1), instances(1), interconnect=PCIE_GEN4
        ).serve(requests(1, prompt=512, resp=8), trace=t_pci)
        s_nv = t_nv.of_kind(EventType.KV_TRANSFER)[0].data["seconds"]
        s_pci = t_pci.of_kind(EventType.KV_TRANSFER)[0].data["seconds"]
        assert s_pci > s_nv  # PCIe link is slower, so the handoff costs more

    def test_fold_parity_columnar_vs_object(self):
        cols, objs = Trace(), oracles.ObjectTrace()
        DisaggFleet(instances(1), instances(2)).serve(
            requests(6, prompt=280, resp=24), trace=cols
        )
        DisaggFleet(instances(1), instances(2)).serve(
            requests(6, prompt=280, resp=24), trace=objs
        )
        mc = StepMetrics.from_trace(cols)
        mo = oracles.step_metrics(objs)
        assert mc.kv_transfers == mo.kv_transfers == 6
        assert mc.kv_transfer_bytes == mo.kv_transfer_bytes
        assert mc.kv_transfer_seconds == mo.kv_transfer_seconds
        assert mc.as_dict() == mo.as_dict()

    def test_telemetry_counters_match_trace(self):
        tel = Telemetry()
        trace = Trace()
        DisaggFleet(instances(1), instances(1)).serve(
            requests(4), trace=trace, telemetry=tel
        )
        folded = StepMetrics.from_trace(trace)
        assert tel.kv_transfers.total() == folded.kv_transfers == 4
        assert tel.kv_transfer_bytes.total() == folded.kv_transfer_bytes
        assert tel.kv_transfer_seconds.total() == pytest.approx(
            folded.kv_transfer_seconds
        )


class TestDisaggServe:
    def test_ttft_made_by_prefill_pool(self):
        """first_token carries over the handoff: TTFT is the prefill
        pool's emission, while E2E additionally pays the transfer."""
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(requests(2, prompt=256, resp=32), trace=trace)
        pf_stage = {
            r.request_id: r for r in res.prefill_results[0].requests
        }
        for r in res.completed:
            stage = pf_stage[r.request_id + "#pf"]
            assert r.first_token == stage.first_token
            assert r.finish > stage.finish  # decode happens after handoff

    def test_kv_ready_skips_prefill_on_decode_pool(self):
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(requests(2, prompt=256, resp=32), trace=trace)
        dec_prefills = [
            ev for ev in trace.of_kind(EventType.PREFILL)
            if ev.instance == "dec0"
        ]
        assert dec_prefills == []  # the decode pool never re-prefills
        for r in res.completed:
            assert r.generated == r.response_len

    def test_short_requests_served_whole_on_prefill_pool(self):
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(
            [ServingRequest("s0", 0.0, 128, 1)], trace=trace
        )
        assert len(trace.of_kind(EventType.KV_TRANSFER)) == 0
        (r,) = res.completed
        assert r.request_id == "s0" and r.finish is not None
        assert res.assignment["s0"][0] == 0  # stayed on the prefill pool

    def test_prefill_rejection_rejects_logical_request(self):
        fleet = DisaggFleet(instances(1), instances(1))
        budget = fleet.prefill[0].token_budget
        doomed = ServingRequest(
            "x0", 0.0, budget + 500, 64, ttft_deadline=1.0
        )
        ok = ServingRequest("x1", 0.0, 128, 16, ttft_deadline=1.0)
        res = fleet.serve([doomed, ok])
        by_id = {r.request_id: r for r in res.requests}
        assert by_id["x0"].rejected
        assert by_id["x1"].finish is not None
        # a rejected deadline-carrying request counts as a TTFT miss
        assert res.ttft_attainment() == pytest.approx(0.5)

    def test_monolithic_mode_bit_for_bit(self):
        t1, t2 = Trace(), Trace()
        DisaggFleet([], instances(2)).serve(
            requests(10, spacing=0.2), trace=t1
        )
        Cluster(instances(2)).run_online(
            requests(10, spacing=0.2),
            least_loaded,
            lambda r, idx, now: r,
            trace=t2,
        )
        assert list(t1.events) == list(t2.events)
        assert t1.render_timeline() == t2.render_timeline()

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            DisaggFleet(instances(1), [])
        with pytest.raises(ValueError):
            DisaggFleet(instances(2), instances(2), prefill_active=0)
        with pytest.raises(ValueError):
            DisaggFleet(instances(2), instances(2), decode_active=3)


class TestAutoscaler:
    def test_burst_scales_up_and_trough_drains(self):
        trace = Trace()
        fleet = DisaggFleet(
            instances(2),
            instances(4),
            prefill_active=1,
            decode_active=1,
            autoscaler=Autoscaler(tick=0.25, queue_high=2.0),
        )
        res = fleet.serve(burst_requests(), trace=trace)
        ups = trace.of_kind(EventType.SCALE_UP)
        downs = trace.of_kind(EventType.SCALE_DOWN)
        assert len(ups) >= 1
        assert len(downs) >= 1
        for ev in ups + downs:
            assert ev.data["pool"] in ("prefill", "decode")
            assert ev.data["size"] >= 1
        # scale events land in the metrics fold and the registry
        m = StepMetrics.from_trace(trace)
        assert m.scale_ups == len(ups)
        assert m.scale_downs == len(downs)
        tel = res.telemetry
        assert tel is not None  # created internally for the controller
        assert tel.scale_events.total() == len(ups) + len(downs)
        for pool in ("prefill", "decode"):
            assert tel.pool_size.value(pool=pool) >= 1.0

    def test_drain_respects_min_active(self):
        fleet = DisaggFleet(
            instances(2), instances(2), autoscaler=Autoscaler(min_active=1)
        )
        loop = EventLoop()
        for inst in fleet.prefill + fleet.decode:
            inst.attach(loop)
        fleet._loop = loop
        fleet._pf_active = [0]
        fleet._dec_active = [0]
        assert not fleet.scale_down("prefill", 0.0)  # already at the floor
        assert fleet.scale_up("prefill", 0.0)
        assert fleet.scale_down("prefill", 0.0)
        assert not fleet.scale_down("prefill", 0.0)
        with pytest.raises(ValueError):
            fleet.active_names("spare")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(tick=0.0)
        with pytest.raises(ValueError):
            Autoscaler(min_active=0)


class TestClusterTelemetryLifecycle:
    """Regression: the active sink must be set by BOTH entry points and
    cleared when the loop drains — a stale sink from an earlier
    run_online() must never receive a later run's route_to events."""

    def _pick(self, req, views, now):
        return 0

    def test_sink_cleared_after_each_run(self):
        tel = Telemetry()
        cluster = Cluster(instances(2))
        cluster.run_online(
            requests(2), self._pick, lambda r, i, n: r, telemetry=tel
        )
        assert cluster._telemetry is None
        cluster.run([requests(2), []], telemetry=tel)
        assert cluster._telemetry is None

    def test_stale_sink_not_published_by_later_run(self):
        tel = Telemetry()
        cluster = Cluster(instances(2))
        cluster.run_online(
            requests(2), self._pick, lambda r, i, n: r, telemetry=tel
        )
        routed_before = tel.routed.total()

        # second run WITHOUT telemetry; a mid-run route_to (the router's
        # fallback re-decode path) must not publish to the stale sink
        fired = []

        def hook(req, at):
            if not fired:
                fired.append(req.request_id)
                fb = ServingRequest(req.request_id + "#fb", at, 64, 4)
                fb.queued_at = at
                cluster.route_to(1, fb)

        cluster.instances[0].on_finish = hook
        try:
            cluster.run([requests(2), []])
        finally:
            cluster.instances[0].on_finish = None
        assert fired  # the mid-run route actually happened
        assert tel.routed.total() == routed_before

    def test_current_sink_receives_mid_run_routes(self):
        tel = Telemetry()
        cluster = Cluster(instances(2))
        fired = []

        def hook(req, at):
            if not fired:
                fired.append(req.request_id)
                fb = ServingRequest(req.request_id + "#fb", at, 64, 4)
                fb.queued_at = at
                cluster.route_to(1, fb)

        cluster.instances[0].on_finish = hook
        try:
            cluster.run([requests(2), []], telemetry=tel)
        finally:
            cluster.instances[0].on_finish = None
        assert tel.routed.value(instance=cluster.names[1]) == 1.0


class TestDoomedOccupancy:
    """Regression: requests flagged doomed at enqueue must not inflate
    waiting_tokens in the window before the rejection pass runs."""

    def test_waiting_tokens_excludes_doomed(self):
        inst = instance()
        loop = EventLoop()
        inst.attach(loop)
        big = ServingRequest("big", 0.0, inst.token_budget + 1000, 8)
        inst.receive(big)
        assert inst.waiting_tokens == 0  # pre-fix: budget + 1008
        ok = ServingRequest("ok", 0.0, 64, 8)
        inst.receive(ok)
        assert inst.waiting_tokens == 64 + 8
        loop.run()
        assert big.rejected and not ok.rejected

    def test_occupancy_view_unaffected_by_doomed(self):
        cluster = Cluster(instances(2))
        loop = cluster._attach_all(None)
        big = ServingRequest("big", 0.0, cluster.instances[0].token_budget + 1, 8)
        cluster.instances[0].receive(big)
        views = cluster.views()
        assert views[0].waiting_tokens == views[1].waiting_tokens == 0
        assert views[0].occupancy == views[1].occupancy


class TestRouteToMidRun:
    def test_online_receive_matches_submit_queue_delays(self):
        """expect/receive (the route_to machinery) must admit
        mid-decode-block arrivals with the same delays as submit()."""
        reqs = requests(8, prompt=320, resp=96, spacing=0.11)
        via_submit = Cluster(instances(1)).run(
            [requests(8, prompt=320, resp=96, spacing=0.11)]
        )[0]
        via_receive, _ = Cluster(instances(1)).run_online(
            reqs, lambda r, v, n: 0, lambda r, i, n: r
        )
        a = {r.request_id: r for r in via_submit.requests}
        b = {r.request_id: r for r in via_receive[0].requests}
        assert a.keys() == b.keys()
        for rid in a:
            assert a[rid].prefill_start == b[rid].prefill_start
            assert a[rid].first_token == b[rid].first_token
            assert a[rid].finish == b[rid].finish
            assert a[rid].queue_delay == b[rid].queue_delay

    def test_fb_redecode_lands_mid_decode_block(self):
        """A #fb re-decode routed at an instant the target is inside a
        decode block is admitted promptly and accounted normally."""
        cluster = Cluster(instances(1, max_batch=4))
        trace = Trace()
        loop = cluster._attach_all(trace)
        base = ServingRequest("b0", 0.0, 256, 400)  # long decode
        cluster.instances[0].submit(base)
        fb = ServingRequest("b0#fb", 0.0, 256, 40)
        # pick a routing instant strictly inside the base decode
        cluster.instances[0].expect(0.9)
        fb.arrival = 0.9
        fb.queued_at = 0.9
        loop.schedule(0.9, lambda: cluster.route_to(0, fb))
        loop.run()
        assert fb.finish is not None and not fb.rejected
        assert base.generated == 400 and fb.generated == 40
        # admitted while the base request was still decoding
        assert fb.prefill_start < base.finish
        admits = [
            ev for ev in trace.of_kind(EventType.ADMIT)
            if ev.request_id == "b0#fb"
        ]
        assert len(admits) == 1
        assert admits[0].data["queued_at"] == pytest.approx(0.9)
        assert fb.queue_delay == pytest.approx(fb.prefill_start - 0.9)
