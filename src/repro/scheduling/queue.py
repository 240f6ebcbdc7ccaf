"""Admission-order (queue) policies.

A :class:`QueuePolicy` reorders an instance's waiting queue just before
batch formation. FCFS is the paper's §4.3 default and is a strict no-op
(the deque object is returned untouched, so the default path performs
zero extra work and stays bitwise-identical to the pre-refactor code).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from .config import QUEUE_POLICIES

if TYPE_CHECKING:  # annotation-only: avoids a package import cycle
    from ..simulator.request import RequestState

__all__ = [
    "QueuePolicy",
    "FCFSQueue",
    "SJFQueue",
    "EDFQueue",
    "make_queue_policy",
]


class QueuePolicy:
    """Orders waiting requests before each batch-formation pass."""

    name = ""

    def reorder(
        self, queue: "Deque[RequestState]", now: float
    ) -> "Deque[RequestState]":
        """Return the queue in admission order (may be the same object)."""
        raise NotImplementedError


class FCFSQueue(QueuePolicy):
    """First-come-first-served (§4.3 default): identity, zero cost."""

    name = "fcfs"

    def reorder(
        self, queue: "Deque[RequestState]", now: float
    ) -> "Deque[RequestState]":
        return queue


class SJFQueue(QueuePolicy):
    """Shortest-prompt-first with wait-time aging.

    Effective rank = prompt length - aging * wait; a long prompt that
    has waited ``input_len / aging`` seconds outranks a fresh short one,
    bounding starvation. ``enqueue_stamp`` names the timestamp that
    marks when the request joined this queue ("prefill_enqueue" on the
    prefill side, "decode_enqueue" on the decode side).
    """

    name = "sjf"

    def __init__(
        self,
        aging: float = 2000.0,
        enqueue_stamp: str = "prefill_enqueue",
    ) -> None:
        if aging < 0:
            raise ValueError(f"sjf_aging must be >= 0, got {aging}")
        self._aging = aging
        self._stamp = enqueue_stamp

    def reorder(
        self, queue: "Deque[RequestState]", now: float
    ) -> "Deque[RequestState]":
        if len(queue) <= 1:
            return queue
        ordered = sorted(
            queue,
            key=lambda s: s.prefill_len
            - self._aging * (now - s.timestamps.get(self._stamp, now)),
        )
        return deque(ordered)


class EDFQueue(QueuePolicy):
    """Earliest-deadline-first: SLO-aware admission order.

    A request's deadline is ``state.deadline`` when set, else
    ``arrival_time + default_deadline``. Python's sort is stable, so
    requests sharing a deadline keep FCFS order.
    """

    name = "edf"

    def __init__(self, default_deadline: float = 10.0) -> None:
        if default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        self._default = default_deadline

    def _deadline(self, state: RequestState) -> float:
        if state.deadline is not None:
            return state.deadline
        return state.request.arrival_time + self._default

    def reorder(
        self, queue: "Deque[RequestState]", now: float
    ) -> "Deque[RequestState]":
        if len(queue) <= 1:
            return queue
        return deque(sorted(queue, key=self._deadline))


def make_queue_policy(
    policy: str,
    sjf_aging: float = 2000.0,
    edf_default_deadline: float = 10.0,
    enqueue_stamp: str = "prefill_enqueue",
) -> QueuePolicy:
    """Build the named queue policy with its knobs bound."""
    if policy == "fcfs":
        return FCFSQueue()
    if policy == "sjf":
        return SJFQueue(aging=sjf_aging, enqueue_stamp=enqueue_stamp)
    if policy == "edf":
        return EDFQueue(default_deadline=edf_default_deadline)
    raise ValueError(
        f"unknown queue_policy {policy!r}; expected one of {QUEUE_POLICIES}"
    )
