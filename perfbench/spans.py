"""Tracing from outside the program: spans around public calls, and
cProfile self time aggregated by the program's modules.

Spans are recorded by wrapping the public functions a layer exposes; the
wrappers are installed for the traced pass only and removed afterwards.
The engine layers below ``simulate_trace`` have no public per-call
boundary, so their self time and call counts come from cProfile.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pstats
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from stats import Span

#: cProfile file-path fragments mapped to layer names, most specific first.
FILE_LAYERS = (
    ("repro/simulator/decode_instance.py", "decode"),
    ("repro/simulator/prefill_instance.py", "prefill"),
    ("repro/simulator/colocated_instance.py", "colocated"),
    ("repro/simulator/kvcache.py", "kv"),
    ("repro/simulator/request.py", "request"),
    ("repro/simulator/events.py", "events"),
    ("repro/simulator/transfer.py", "transfer"),
    ("repro/simulator/tracing.py", "obs"),
    ("repro/simulator/profiler.py", "obs"),
    ("repro/simulator/metrics.py", "obs"),
    ("repro/simulator/telemetry.py", "obs"),
    ("repro/simulator/", "simulator"),
    ("repro/latency/", "latency"),
    ("repro/scheduling/", "scheduling"),
    ("repro/serving/", "serving"),
    ("repro/workload/", "workload"),
    ("repro/analysis/critpath.py", "critpath"),
    ("repro/analysis/", "analysis"),
    ("repro/core/", "core"),
    ("repro/", "repro"),
    ("perfbench/", "harness"),
)


def layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, layer in FILE_LAYERS:
        if fragment in path:
            return layer
    return "other"


class SpanRecorder:
    """Keeps spans in memory; children nest under the innermost open span.

    A span opened with ``new_trial=True`` starts a trial: it and every
    span opened inside it carry that trial's id.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []
        self._next_id = 0
        self._trial: Optional[int] = None
        self._next_trial = 0

    @contextlib.contextmanager
    def span(self, name: str, new_trial: bool = False) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        outer_trial = self._trial
        if new_trial:
            self._trial = self._next_trial
            self._next_trial += 1
        trial = self._trial
        self._stack.append(sid)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            self._trial = outer_trial
            self.spans.append(Span(sid, name, start, end, parent, trial))

    def wrap(self, name: str, fn: Callable, new_trial: bool = False) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, new_trial):
                return fn(*args, **kwargs)

        return wrapper

    def named(self, name: str) -> "list[Span]":
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


@contextlib.contextmanager
def patched(replacements: Sequence["tuple[Any, str, Any]"]) -> Iterator[None]:
    """Set ``obj.attr = value`` for each triple; restore the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


class ProfileSummary:
    """cProfile totals of one traced pass, by layer and by function."""

    def __init__(self, stats: pstats.Stats) -> None:
        self.layer_tottime: "dict[str, float]" = {}
        self.layer_calls: "dict[str, int]" = {}
        self._calls: "dict[tuple[str, str], int]" = {}
        for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in stats.stats.items():
            layer = layer_of(filename)
            self.layer_tottime[layer] = self.layer_tottime.get(layer, 0.0) + tt
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + nc
            key = (layer, func)
            self._calls[key] = self._calls.get(key, 0) + nc
        self.total_tottime = sum(self.layer_tottime.values())

    def calls(self, layer: str, func: str) -> int:
        return self._calls.get((layer, func), 0)

    def self_s(self, layer: str, traced_s: float) -> float:
        """The layer's share of profiled self time, applied to ``traced_s``.

        cProfile charges a fixed cost to every call, which inflates
        call-heavy layers; shares of the traced wall time keep the layer
        self times summing to that wall time.
        """
        if self.total_tottime <= 0:
            return 0.0
        return traced_s * self.layer_tottime.get(layer, 0.0) / self.total_tottime
