"""One observer protocol for a simulation run.

The engines (instances, the KV transfer engine, the serving systems)
emit each request lifecycle event once, where it happens, and never
decide how it is recorded. Observers subscribe instead: the
:class:`~repro.simulator.tracing.Tracer` turns events into spans, the
:class:`~repro.simulator.profiler.Profiler` into exec/transfer/pending
streams, and :class:`~repro.simulator.metrics.SloMonitor` and the
goodput search's early-abort monitor judge completions online.

:class:`Observer` declares every event as a no-op handler; subscribers
override the ones they need. :class:`ObserverBus` is the per-system
fan-out. Handlers run up to once per generated token, so reprolint
OBS001 seeds its no-allocation rule at every ``on_*`` handler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from ..workload.trace import Request
    from .request import RequestRecord, RequestState

__all__ = ["EVENTS", "Observer", "ObserverBus"]


class Observer:
    """Receives lifecycle events; every handler defaults to a no-op.

    Times are virtual seconds and ``instance`` names the instance the
    event happened on. Request-scoped events pass the live
    :class:`~repro.simulator.request.RequestState`.
    """

    #: Whether the observer handles a per-step event (``on_tokens`` or
    #: ``on_batch``); decode instances then cap runs at one step so
    #: every step is emitted. Derived from the overridden handlers.
    observes_steps = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.observes_steps = any(_overrides(cls, name) for name in STEP_EVENTS)

    def on_arrival(self, request: "Request", time: float) -> None:
        """A request arrived at the serving system."""

    def on_enqueue(
        self, state: "RequestState", queue: str, time: float, instance: str
    ) -> None:
        """A request joined the ``"prefill"`` or ``"decode"`` queue."""

    def on_prefill_start(
        self, state: "RequestState", time: float, instance: str, batch_size: int
    ) -> None:
        """A request's prefill began (``batch_size`` 0 if unknown)."""

    def on_prefill_end(self, state: "RequestState", time: float) -> None:
        """A request's prompt finished prefilling."""

    def on_decode_start(self, state: "RequestState", time: float) -> None:
        """A request left the decode queue for the running batch."""

    def on_token(
        self, state: "RequestState", start: float, end: float,
        instance: str = "", batch_size: int = 0, count: int = 1,
    ) -> None:
        """``state`` just recorded its last ``count`` tokens over
        ``[start, end]``, in a batch of ``batch_size`` (0 if none)."""

    def on_tokens(
        self, batch: "list[RequestState]", start: float, end: float, instance: str
    ) -> None:
        """One capped decode step: each request in ``batch`` just
        recorded one token over ``[start, end]``."""

    def on_batch(
        self, instance: str, phase: str, start: float, end: float,
        batch_size: int, tokens: int,
    ) -> None:
        """An executed prefill batch, decode step or colocated iteration
        (``phase``: ``"prefill"``, ``"decode"`` or ``"mixed"``)."""

    def on_preempt(self, state: "RequestState", time: float, instance: str) -> None:
        """A running request was evicted for recompute."""

    def on_transfer_start(
        self, state: "RequestState", time: float, source: str, dest: str
    ) -> None:
        """A request's KV cache is ready to migrate (under the pull
        policy it may still wait for a decode-side reservation)."""

    def on_transfer_wire(
        self, request_id: int, submitted: float, start: float, end: float
    ) -> None:
        """A migration submitted at ``submitted`` is on its link over
        ``[start, end]``."""

    def on_transfer_end(self, state: "RequestState", time: float) -> None:
        """A request's KV cache arrived at its decode instance."""

    def on_blocked(self, instance: str, blocked: bool, time: float) -> None:
        """Whether a decode instance has KV caches parked or in flight
        toward it (emitted after every change, possibly unchanged)."""

    def on_completion(self, record: "RequestRecord", time: float) -> None:
        """A request finished; ``record`` is its frozen record."""

    def on_finish(self, time: float) -> None:
        """The simulation drained or stopped."""


#: Every event handler name, in declaration order.
EVENTS = tuple(name for name in vars(Observer) if name.startswith("on_"))

#: Events emitted once per decode step (see ``observes_steps``).
STEP_EVENTS = ("on_tokens", "on_batch")


def _overrides(cls: type, name: str) -> bool:
    return getattr(cls, name) is not getattr(Observer, name)


def _fan_out(handlers: "list[Callable[..., None]]") -> "Callable[..., None]":
    def emit(*args: Any, **kwargs: Any) -> None:
        for handler in handlers:
            handler(*args, **kwargs)

    return emit


class ObserverBus(Observer):
    """Delivers each event to the subscribers that handle it, in
    subscription order.

    :meth:`subscribe` rebinds every event attribute to the class no-op
    (nobody handles it), the one subscriber's bound handler, or a loop
    over several, so an unobserved event costs one no-op call.
    """

    def __init__(self) -> None:
        self.subscribers: "list[Observer]" = []

    def subscribe(self, subscriber: Observer) -> None:
        """Add a subscriber; earlier subscribers keep receiving events."""
        self.subscribers.append(subscriber)
        self.observes_steps = self.observes_steps or subscriber.observes_steps
        for name in EVENTS:
            handlers = [
                getattr(s, name) for s in self.subscribers if _overrides(type(s), name)
            ]
            if len(handlers) == 1:
                setattr(self, name, handlers[0])
            elif handlers:
                setattr(self, name, _fan_out(handlers))
