"""Helpers of the benchmark: percentiles, failure shares, span self time."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

#: Percentiles tried, highest first, when reporting a distribution's tail.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_CANDIDATES) -> float:
    """The highest candidate percentile with at least ``MIN_BEYOND`` samples beyond it.

    With ``n`` samples, ``n * (1 - p/100)`` of them lie beyond the
    ``p``-th percentile. Falls back to the median (50) when ``n`` is too
    small for any candidate, so a tiny run still reports a value.
    """
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return 50.0


def percentile(values: Sequence[float], p: float) -> float:
    """numpy's default (linear) percentile, 0 when there are no values."""
    return float(np.percentile(values, p)) if len(values) else 0.0


def failed_share(expected: int, completed: int) -> float:
    """Share of offered requests that did not complete.

    Unfinished and rejected requests are both missing from the completed
    records, so ``expected - completed`` counts them together.
    """
    if expected <= 0:
        return 0.0
    if completed > expected:
        raise ValueError(f"completed {completed} exceeds expected {expected}")
    return (expected - completed) / expected


class Span(NamedTuple):
    """One recorded call: ``parent`` and ``trial`` are span/trial ids or None."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trial: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable["tuple[float, float]"], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> "dict[int, float]":
    """Each span's duration minus the part of it its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> "dict[str, float]":
    own = self_times(spans)
    out: "dict[str, float]" = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


def total_by_name(spans: Sequence[Span]) -> "dict[str, float]":
    out: "dict[str, float]" = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out
