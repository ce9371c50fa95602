"""The list-of-objects trace collector and its per-event readers.

:class:`ObjectTrace` keeps one Python :class:`TraceEvent` (dataclass +
payload dict) per event, with per-kind and per-request indices kept
current on record — the pre-columnar collector.  The functions below
read it one event at a time.  Together they are the reference the
columnar :class:`~repro.serving.trace.Trace`, its folds and its JSONL
export are pinned to, and the "before" path of
``benchmarks/test_serving_scale.py``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.serving.trace import EventType, TraceEvent


class ObjectTrace:
    """Append-only list of :class:`TraceEvent` objects."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._by_kind: Dict[EventType, List[TraceEvent]] = {}
        self._by_request: Dict[str, List[TraceEvent]] = {}

    def append(self, event: TraceEvent) -> None:
        """Append an already-built event, keeping the indices current."""
        self.events.append(event)
        self._by_kind.setdefault(event.kind, []).append(event)
        self._by_request.setdefault(event.request_id, []).append(event)

    def record(
        self,
        time: float,
        kind: EventType,
        request_id: str = "",
        instance: str = "",
        **data,
    ) -> None:
        """Append one event."""
        self.append(TraceEvent(time, kind, request_id, instance, data))

    def record_fields(
        self,
        time: float,
        kind: EventType,
        request_id: str,
        instance: str,
        data: Dict[str, float],
    ) -> None:
        self.append(TraceEvent(time, kind, request_id, instance, data))

    def record_decode_steps(
        self,
        instance: str,
        times: Sequence[float],
        batch: int,
        kvs: Sequence[int],
        seconds: Sequence[float],
        used_tokens,
        token_budget: int,
    ) -> None:
        """A burst of ``DECODE_STEP`` events, one object per step.

        ``used_tokens`` is a scalar (reserve admission) or a per-step
        sequence (dynamic admission), as in ``Trace.record_decode_steps``.
        """
        per_step = isinstance(used_tokens, (list, tuple))
        for i, t in enumerate(times):
            self.record(
                t, EventType.DECODE_STEP, "", instance,
                batch=batch, kv=kvs[i], seconds=seconds[i],
                used_tokens=used_tokens[i] if per_step else used_tokens,
                token_budget=token_budget, live=batch,
            )

    def of_kind(self, kind: EventType) -> List[TraceEvent]:
        """All events of one kind, in time order."""
        return list(self._by_kind.get(kind, ()))

    def for_request(self, request_id: str) -> List[TraceEvent]:
        """All events touching one request."""
        return list(self._by_request.get(request_id, ()))

    def request_ids(self) -> List[str]:
        """Distinct non-empty request ids, in first-appearance order."""
        return [rid for rid in self._by_request if rid]

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram."""
        return {
            kind.value: len(events)
            for kind, events in self._by_kind.items()
        }

    def render_timeline(self, limit: Optional[int] = None) -> str:
        """Human-readable timeline (same contract as ``Trace``)."""
        n = len(self.events)
        shown = n if limit is None else max(0, min(limit, n))
        lines = [e.render() for e in self.events[:shown]]
        if shown < n:
            lines.append(f"... ({n - shown} more events)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


def request_latencies(trace) -> Dict[str, float]:
    """Per-request E2E latency, ``FINISH.time - arrival`` (last wins)."""
    out: Dict[str, float] = {}
    for e in trace.of_kind(EventType.FINISH):
        if "arrival" in e.data:
            out[e.request_id] = e.time - e.data["arrival"]
    return out


def queue_delays(trace) -> Dict[str, float]:
    """Per-request queue delay from the last ADMIT's (re)queue epoch."""
    out: Dict[str, float] = {}
    for e in trace.of_kind(EventType.ADMIT):
        since = e.data.get("queued_at", e.data.get("arrival"))
        if since is not None:
            out[e.request_id] = e.time - since
    return out


def dump_jsonl(trace, path) -> int:
    """One ``json.dumps`` line per event (no header); returns the count."""
    lines = [
        json.dumps(
            {
                "time": e.time,
                "kind": e.kind.value,
                "request_id": e.request_id,
                "instance": e.instance,
                "data": e.data,
            }
        )
        for e in trace.events
    ]
    pathlib.Path(path).write_text("".join(line + "\n" for line in lines))
    return len(lines)
