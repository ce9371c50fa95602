"""Wall-clock spans around calls into the program's layers.

:class:`Tracer` wraps callables in place (module functions at the name
their caller resolves, methods on their class), keeps every span in
memory while the traced pass runs, and restores the originals on
:meth:`Tracer.uninstall`.  A span's self time is its duration minus the
time its child spans cover; a layer's total time counts only its
outermost spans, so a layer calling into itself is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Tracer:
    """In-memory span recorder over a fixed set of wrapped callables."""

    def __init__(self) -> None:
        self.labels: List[str] = []        # label per wrapped callable
        self.layer_of: List[int] = []      # layer index per label
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self._label_ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._stack: List[float] = []      # child seconds of open spans
        self._open: List[int] = []         # open spans per layer
        # closed spans: label id, start, end, depth, child seconds, and
        # whether it was the outermost open span of its layer
        self.spans: List[Tuple[int, float, float, int, float, bool]] = []
        self.tokens: Dict[str, int] = {}

    # -- wrapping ------------------------------------------------------
    def _label_id(self, layer: str, label: str) -> int:
        if label not in self._label_ids:
            if layer not in self._layer_ids:
                self._layer_ids[layer] = len(self.layers)
                self.layers.append(layer)
                self._open.append(0)
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(self._layer_ids[layer])
        return self._label_ids[label]

    def _wrap(self, fn: Callable, lid: int,
              count: Optional[Callable] = None) -> Callable:
        layer = self.layer_of[lid]
        stack, open_, spans = self._stack, self._open, self.spans
        clock = time.perf_counter
        label = self.labels[lid]
        tokens = self.tokens

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                tokens[label] = tokens.get(label, 0) + count(args, kwargs)
            outermost = open_[layer] == 0
            open_[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                open_[layer] -= 1
                if stack:
                    stack[-1] += end - start
                spans.append((lid, start, end, len(stack), child, outermost))

        return traced

    def install(
        self,
        targets: Sequence[Tuple[object, str, str, str]],
        counters: Optional[Dict[str, Callable]] = None,
    ) -> None:
        """Wrap every ``(owner, attribute, layer, label)`` target."""
        counters = counters or {}
        for owner, attr, layer, label in targets:
            lid = self._label_id(layer, label)
            had_own = attr in vars(owner)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._wrap(raw.__func__, lid, counters.get(label)))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, lid, counters.get(label)))
            else:
                wrapped = self._wrap(raw, lid, counters.get(label))
            self._patches.append((owner, attr, raw, had_own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped callable, last patch first."""
        for owner, attr, raw, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def reset(self) -> None:
        """Drop the spans and token counts recorded so far."""
        self.spans.clear()
        self.tokens.clear()

    # -- aggregation ---------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "total_s", "self_s"}}`` over all spans."""
        out = {name: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
               for name in self.layers}
        for lid, start, end, _, child, outermost in self.spans:
            agg = out[self.layers[self.layer_of[lid]]]
            agg["calls"] += 1
            agg["self_s"] += end - start - child
            if outermost:
                agg["total_s"] += end - start
        return out

    def label_totals(self) -> Dict[str, Dict[str, float]]:
        """``{label: {"calls", "total_s"}}``; total counts only the spans
        outermost in their layer."""
        out = {name: {"calls": 0.0, "total_s": 0.0} for name in self.labels}
        for lid, start, end, _, _, outermost in self.spans:
            agg = out[self.labels[lid]]
            agg["calls"] += 1
            if outermost:
                agg["total_s"] += end - start
        return out

    def write(self, path: str) -> None:
        """Write the spans as NumPy arrays (``.npz``): label id, start,
        end, nesting depth and self seconds per span, plus the label
        and layer names."""
        spans = self.spans
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            layer_of=np.array(self.layer_of, dtype=np.int32),
            layers=np.array(self.layers),
            label=np.array([s[0] for s in spans], dtype=np.int32),
            start=np.array([s[1] for s in spans]),
            end=np.array([s[2] for s in spans]),
            depth=np.array([s[3] for s in spans], dtype=np.int32),
            self_s=np.array([s[2] - s[1] - s[4] for s in spans]),
        )
