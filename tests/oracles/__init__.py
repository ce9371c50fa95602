"""Reference implementations the serving stack is proven against.

``repro.serving`` keeps one trace (the columnar ``Trace``) and one fold
(``StepMetrics.from_trace``).  The straightforward per-event versions
they replaced live here, used only to prove equivalence:

- :class:`ObjectTrace` — one ``TraceEvent`` object per event;
- :func:`step_metrics` — ``StepMetrics`` folded event by event;
- :func:`request_latencies` / :func:`queue_delays` / :func:`dump_jsonl`
  — the per-event readers and JSONL writer.

``tests/test_columnar_equivalence.py`` runs scenarios on both sides and
asserts bit-identity; ``benchmarks/test_serving_scale.py`` measures the
columnar path against them.
"""

from tests.oracles.metrics import step_metrics
from tests.oracles.trace import (
    ObjectTrace,
    dump_jsonl,
    queue_delays,
    request_latencies,
)

__all__ = [
    "ObjectTrace",
    "dump_jsonl",
    "queue_delays",
    "request_latencies",
    "step_metrics",
]
