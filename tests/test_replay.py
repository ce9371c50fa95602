"""Trace replay harness: exported runs must reproduce bit-for-bit.

The simulator is deterministic, so a JSONL export with scenario +
workload headers is a complete benchmark: rebuilding the fleet from
the header and re-serving the workload with recorded routing must
produce a ``StepMetrics`` fold identical to the recording on every
field.  These tests pin that for the disaggregated fleet, the static
monolithic baseline, a single-instance run with prefix caching and
chunked prefill, and the degraded paths (workload reconstructed from
events alone, truncated recordings, missing scenario headers).
"""

import numpy as np
import pytest

from repro.experiments import serving_disagg
from repro.serving import (
    StepMetrics,
    Telemetry,
    Trace,
    build_scenario,
    dump_jsonl,
    fleet_scenario,
    instance_config,
    load_jsonl,
    replay_trace,
    workload_specs,
)
from repro.serving.replay import (
    extract_assignment,
    extract_workload,
    logical_id,
    make_requests,
    pinned_pick,
)


def export_fleet(tmp_path, kind="disagg", rate=3.0, n=40):
    """Record one small fleet run and export it with headers."""
    specs = serving_disagg.build_workload(rate, n=n)
    path = tmp_path / f"{kind}.jsonl"
    serving_disagg.run_fleet(kind, rate, specs, export_path=str(path))
    return path


def test_disagg_replay_is_exact(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "disagg"))
    report = replay_trace(trace)
    assert report.exact, report.drift
    assert report.events_replayed == report.events_recorded == len(trace)
    assert report.routing == "recorded"
    assert not report.partial and not report.unreplayable
    assert report.events_per_second > 0


def test_static_replay_is_exact(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "static-2"))
    report = replay_trace(trace)
    assert report.exact, report.drift
    assert "EXACT" in report.render()


def test_replay_without_workload_header_reconstructs_from_events(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "disagg"))
    trace.meta.pop("workload")
    report = replay_trace(trace)
    # every request completed, so the event-only reconstruction is
    # complete and the replay still lands exactly on the recording
    assert report.exact, report.drift


def test_single_instance_scenario_replays_prefix_and_chunking(tmp_path):
    # fp16: prefix sharing is gated off for compressed KV (Section 3.1.2)
    scenario = fleet_scenario(decode=[instance_config(
        algo="fp16", policy="slo", chunk_size=256, prefix_caching=True,
        max_batch=16,
    )])
    rng = np.random.default_rng(3)
    arrivals = np.cumsum(rng.exponential(0.25, size=24))
    shared = tuple(range(50_000, 50_256))
    specs = []
    for i in range(24):
        prompt = int(rng.integers(300, 900))
        ids = (shared + tuple(range(i * 10_000, i * 10_000 + prompt)))[:prompt]
        specs.append(dict(
            request_id=f"r{i}", arrival=float(arrivals[i]),
            prompt_len=prompt, response_len=int(rng.integers(16, 64)),
            ttft_deadline=1.0, tbot_target=0.05, token_ids=list(ids),
        ))
    fleet = build_scenario(scenario)
    trace = Trace()
    fleet.serve(make_requests(specs), trace=trace)
    assert StepMetrics.from_trace(trace).prefix_hits > 0

    path = tmp_path / "single.jsonl"
    dump_jsonl(trace, path, scenario=scenario, workload=specs)
    report = replay_trace(load_jsonl(path))
    assert report.exact, report.drift


def test_replay_requires_scenario():
    trace = Trace()
    with pytest.raises(ValueError, match="scenario"):
        replay_trace(trace)


def test_replay_rejects_bad_routing(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "static-2"))
    with pytest.raises(ValueError, match="routing"):
        replay_trace(trace, routing="weird")


def test_live_routing_replays_full_workload(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "disagg"))
    report = replay_trace(trace, routing="live")
    assert report.routing == "live"
    # a deterministic fleet re-routed by its own default policy is the
    # recording: the recorded run used that same policy
    assert report.exact, report.drift


def test_replay_publishes_drift_gauge(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "static-2"))
    telemetry = Telemetry()
    report = replay_trace(trace, telemetry=telemetry)
    assert report.exact
    assert telemetry.replay_drift.value() == 0.0


def test_partial_recording_is_flagged_and_drifts(tmp_path):
    specs = serving_disagg.build_workload(3.0, n=40)
    path = tmp_path / "partial.jsonl"
    fleet = serving_disagg.build_fleet("static-2")
    trace = Trace(max_events=64)
    fleet.serve(serving_disagg.make_requests(specs), trace=trace)
    assert trace.dropped_events > 0
    dump_jsonl(
        trace, path,
        scenario=serving_disagg.scenario_config("static-2"),
        workload=[dict(
            request_id=r, arrival=a, prompt_len=p, response_len=g,
            ttft_deadline=serving_disagg.TTFT_SLO,
        ) for r, a, p, g in specs],
    )
    report = replay_trace(load_jsonl(path))
    assert report.partial
    # the truncated recording cannot match a full replay
    assert not report.exact
    assert "PARTIAL" in report.render()


def test_scenario_config_matches_build_fleet(tmp_path):
    # the exported header and the experiment's own constructor agree
    scenario = serving_disagg.scenario_config("disagg")
    fleet = build_scenario(scenario)
    assert len(fleet.prefill) == serving_disagg.PREFILL_POOL
    assert len(fleet.decode) == serving_disagg.DECODE_POOL
    assert fleet.autoscaler is not None
    mono = build_scenario(serving_disagg.scenario_config("static-4"))
    assert not mono.prefill and len(mono.decode) == 4


@pytest.mark.parametrize("block", [0, -3])
def test_build_scenario_rejects_nonpositive_decode_block(block):
    scenario = fleet_scenario(decode=[instance_config(decode_block=block)])
    with pytest.raises(ValueError, match="decode_block"):
        build_scenario(scenario)


def test_build_scenario_rejects_unknown_keys():
    # a misspelt key must not be ignored: here it would leave both
    # decode instances active instead of one
    scenario = dict(
        serving_disagg.scenario_config("static-2"), decode_actve=1
    )
    with pytest.raises(ValueError, match="decode_actve"):
        build_scenario(scenario)


def test_logical_id_strips_stage_suffixes():
    assert logical_id("r07#pf") == "r07"
    assert logical_id("r07#fb") == "r07"
    assert logical_id("r07") == "r07"


def test_instance_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown instance config"):
        instance_config(batch_size=4)


def test_make_requests_rejects_unknown_spec_keys():
    with pytest.raises(ValueError):
        make_requests([{"request_id": "r0", "arrival": 0.0,
                        "prompt_len": 8, "response_len": 4,
                        "bogus": 1}])


def test_workload_specs_roundtrip_requests():
    reqs = make_requests([
        dict(request_id="a", arrival=0.5, prompt_len=100, response_len=10,
             ttft_deadline=2.0, token_ids=[1, 2, 3]),
    ])
    spec = workload_specs(reqs)[0]
    assert spec["request_id"] == "a"
    assert spec["ttft_deadline"] == 2.0
    again = make_requests([spec])[0]
    assert again.prompt_len == 100 and again.token_ids == (1, 2, 3)


def test_pinned_pick_restores_recorded_placement(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "disagg"))
    assignment = extract_assignment(trace)
    assert assignment  # the recording placed work on named instances
    pick = pinned_pick(assignment)

    class View:
        def __init__(self, name):
            self.name = name
            self.queue_depth = 0
            self.running_count = 0
            self.used_tokens = 0
            self.token_budget = 1
            self.active_batch = 0
            self.max_batch = 1

    (lrid, pool), target = next(
        ((k, v) for k, v in assignment.items() if k[1] == "decode")
    )
    views = [View("dec0"), View("dec1"), View(target)]
    # dedupe in case target is dec0/dec1
    views = list({v.name: v for v in views}.values())
    req = make_requests([dict(request_id=lrid, arrival=0.0,
                              prompt_len=8, response_len=4)])[0]
    assert views[pick(req, views, 0.0)].name == target


def test_extract_workload_flags_synthetic_stages(tmp_path):
    trace = load_jsonl(export_fleet(tmp_path, "disagg"))
    wl = extract_workload(trace)
    assert wl.synthetic.get("#pf", 0) > 0
    assert not wl.partial
    recorded_n = len(trace.meta["workload"])
    # events alone recover every request that completed
    assert len(wl.specs) + len(wl.unreplayable) <= recorded_n
    assert len(wl.specs) > 0
