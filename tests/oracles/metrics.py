"""The per-event ``StepMetrics`` fold.

``StepMetrics.from_trace`` folds a columnar trace with masked NumPy
reductions; this is the same fold written as a scan over event objects
— the reference it must equal bit for bit, on any trace exposing
``of_kind`` / ``request_ids`` (:class:`tests.oracles.ObjectTrace`, or a
columnar ``Trace`` through its lazy object views).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.serving.metrics import StepMetrics
from repro.serving.trace import EventType


def step_metrics(trace) -> StepMetrics:
    """Fold ``trace`` one event at a time."""
    steps = [
        e
        for e in trace.of_kind(EventType.DECODE_STEP)
        if {"seconds", "batch", "used_tokens", "token_budget"}
        <= e.data.keys()
    ]
    secs = np.array([e.data["seconds"] for e in steps], dtype=float)
    batches = np.array([e.data["batch"] for e in steps], dtype=float)
    utils = np.array(
        [
            e.data["used_tokens"] / max(1, e.data["token_budget"])
            for e in steps
        ],
        dtype=float,
    )
    wall = float(secs.sum())
    w = secs / wall if wall > 0 else None
    times = np.array([e.time for e in steps], dtype=float)
    all_finishes = trace.of_kind(EventType.FINISH)
    finishes = [
        e
        for e in all_finishes
        if {"arrival", "first_token", "generated"} <= e.data.keys()
    ]
    # token streams in flight: a gap only stalls a client whose
    # stream covers it entirely
    spans = [(e.data["first_token"], e.time) for e in finishes]
    gap = 0.0
    for t1, t2 in zip(times[:-1], times[1:]):
        if any(start <= t1 and end >= t2 for start, end in spans):
            gap = max(gap, float(t2 - t1))
    tbots = [
        (e.time - e.data["first_token"]) / (e.data["generated"] - 1)
        for e in finishes
        if e.data["generated"] > 1
    ]
    admits = trace.of_kind(EventType.ADMIT)
    # last admission per request, measured from its (re)queue epoch;
    # requests that were admitted but later dropped mid-decode are
    # excluded (they were never served)
    dropped = {e.request_id for e in trace.of_kind(EventType.REJECT)}
    last_admit: Dict[str, float] = {}
    for e in admits:
        since = e.data.get("queued_at", e.data.get("arrival"))
        if since is not None:
            last_admit[e.request_id] = e.time - since
    delays = [d for rid, d in last_admit.items() if rid not in dropped]
    with_ttft = [e for e in finishes if "ttft_deadline" in e.data]
    with_tbot = [e for e in finishes if "tbot_target" in e.data]
    attained = sum(
        e.data["generated"]
        for e in finishes
        if not e.data.get("ttft_miss") and not e.data.get("tbot_miss")
    )
    span = (
        max(e.time for e in finishes)
        - min(e.data["arrival"] for e in finishes)
        if finishes else 0.0
    )
    complete = {e.request_id for e in finishes}
    partial = [
        rid
        for rid in trace.request_ids()
        if rid not in complete and rid not in dropped
    ]
    hits = trace.of_kind(EventType.PREFIX_HIT)
    xfers = trace.of_kind(EventType.KV_TRANSFER)
    return StepMetrics(
        decode_steps=len(steps),
        admits=len(admits),
        preempts=len(trace.of_kind(EventType.PREEMPT)),
        rejects=len(trace.of_kind(EventType.REJECT)),
        finishes=len(all_finishes),
        prefill_chunks=len(trace.of_kind(EventType.PREFILL_CHUNK)),
        partial_requests=len(partial),
        dropped_events=int(getattr(trace, "dropped_events", 0) or 0),
        reroutes=len(trace.of_kind(EventType.REROUTE)),
        fallbacks=len(trace.of_kind(EventType.FALLBACK)),
        kv_transfers=len(xfers),
        kv_transfer_bytes=int(
            sum(e.data.get("bytes", 0) for e in xfers)
        ),
        kv_transfer_seconds=float(
            sum(e.data.get("seconds", 0.0) for e in xfers)
        ),
        scale_ups=len(trace.of_kind(EventType.SCALE_UP)),
        scale_downs=len(trace.of_kind(EventType.SCALE_DOWN)),
        decode_seconds=wall,
        mean_batch_occupancy=float((batches * w).sum()) if w is not None else 0.0,
        peak_batch_occupancy=int(batches.max()) if len(steps) else 0,
        mean_budget_utilization=float((utils * w).sum()) if w is not None else 0.0,
        peak_budget_utilization=float(utils.max()) if len(steps) else 0.0,
        mean_queue_delay=float(np.mean(delays)) if delays else 0.0,
        mean_tbot=float(np.mean(tbots)) if tbots else 0.0,
        p99_tbot=float(np.percentile(tbots, 99)) if tbots else 0.0,
        max_decode_gap=gap,
        ttft_attainment=(
            1.0 - sum("ttft_miss" in e.data for e in with_ttft)
            / len(with_ttft)
            if with_ttft else 1.0
        ),
        tbot_attainment=(
            1.0 - sum("tbot_miss" in e.data for e in with_tbot)
            / len(with_tbot)
            if with_tbot else 1.0
        ),
        goodput=attained / span if span > 0 else 0.0,
        prefix_hits=len(hits),
        prefix_cached_tokens=int(
            sum(e.data.get("cached", 0) for e in hits)
        ),
        prefix_saved_seconds=float(
            sum(e.data.get("saved_seconds", 0.0) for e in hits)
        ),
        prefix_hit_rate=len(hits) / len(admits) if admits else 0.0,
    )
