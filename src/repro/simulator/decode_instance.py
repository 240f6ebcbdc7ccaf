"""Decode instance: continuous batching of token generation.

A decode instance receives KV caches pulled from prefill instances and
generates the remaining tokens. Batching is the whole point (§3.2): a
single decode job is bandwidth-bound, so the instance accumulates as
large a batch as its KV memory and ``max_batch_size`` allow.

Pipeline parallelism is modeled in steady state: the active set splits
into ``pp`` micro-batches flowing through the stages, so every active
request produces one token per ``request_latency(micro-batch)`` —
pipeline depth multiplies KV capacity (hence throughput) while TPOT is
set by the micro-batch traversal time.

Admission reserves the *full* final context (prompt + all output tokens)
so a request admitted never runs out of KV mid-flight; this is the
conservative no-preemption policy a disaggregated decode instance can
afford because the prefill side buffers overflow (§4.3 pull policy).

**One engine: macro runs (DESIGN §4h).** Because admission reserves
the full context, the batch changes only when a request arrives or
finishes. The instance therefore plans a whole *run* of decode steps at
once — the longest stretch bounded by the shortest remaining request and
by the next pending simulation event — and schedules a single run-end
event. Step boundaries, jitter draws, token times and counters follow
the same floating-point operations in the same order as stepping one at
a time, so results are bit-identical for any run length. A submission
landing mid-run truncates the run at the next step boundary, refunding
unused jitter draws so the RNG stream stays aligned.

The per-step reference is this engine with every run capped at one
step: selected by ``fast_kernel=False`` and forced whenever a tracer,
profiler, or metrics registry (:meth:`DecodeInstance.instrument`)
observes individual steps. Counters charge a step's batch and busy time
when the step starts and its tokens when it ends, so an observer
sampling mid-step sees what a one-event-per-step engine would show.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque

from .events import Simulation
from .instance import InstanceSpec
from .kvcache import KVBlockManager
from .metrics import MetricsRegistry
from .profiler import NULL_PROFILER, Profiler
from .request import RequestPhase, RequestState
from .tracing import NULL_TRACER, SpanKind, Tracer
from ..latency.parallel import DecodeStepTimer
from ..scheduling.batch import BatchPolicy, make_batch_policy
from ..scheduling.config import SchedulingConfig
from ..scheduling.queue import QueuePolicy, make_queue_policy

__all__ = ["DecodeInstance"]


class DecodeInstance:
    """Simulated decode-only model replica.

    Args:
        sim: Shared simulation loop.
        spec: Instance resources and parallelism.
        on_request_done: Callback fired when a request's last token is
            generated.
        name: Identifier for reporting.
        tracer: Optional lifecycle tracer receiving queue/step spans.
        profiler: Optional critical-path profiler receiving one exec
            event per decoding step.
        fast_kernel: Allow multi-step runs when per-step observability
            is off. Results are bit-identical either way; disabling
            caps every run at one step (the per-step reference).
        scheduling: Policy configuration (:mod:`repro.scheduling`); the
            queue policy orders the waiting deque before admission and
            the batch policy gates the ``max_batch_size`` cap. Defaults
            reproduce FCFS + plain capping exactly.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        on_request_done: Callable[[RequestState], None],
        name: str = "decode-0",
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        self._sim = sim
        self.spec = spec
        self.name = name
        self._on_done = on_request_done
        cfg = scheduling if scheduling is not None else SchedulingConfig()
        self._qpolicy: QueuePolicy = make_queue_policy(
            cfg.queue_policy,
            sjf_aging=cfg.sjf_aging,
            edf_default_deadline=cfg.edf_default_deadline,
            enqueue_stamp="decode_enqueue",
        )
        self._bpolicy: BatchPolicy = make_batch_policy(cfg.batch_policy)
        self._waiting: "Deque[RequestState]" = deque()
        self._active: "list[RequestState]" = []
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._jitter = spec.make_jitter(name)
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._alive = True
        self._stepping = False
        # Runs are capped at one step whenever something observes
        # individual steps (tracing/profiling emit per-step artifacts;
        # instrument() samples live state through gauges).
        self._capped = (
            not fast_kernel or self._trace.enabled or self._prof.enabled
        )
        self._timer = DecodeStepTimer(
            spec.model, spec.config, spec.latency_coeffs, spec.tp_link, spec.pp_link
        )
        # With jitter_sigma == 0 the noise source is the stateless
        # constant 1.0 (x * 1.0 is bitwise x), so run planning may skip
        # the draw calls without perturbing any stream position.
        self._unit_jitter = spec.jitter_sigma == 0.0
        # State of the in-flight run (empty when idle).
        self._run_batch: "list[RequestState]" = []
        self._run_start = 0.0
        self._run_boundaries: "list[float]" = []
        self._run_durations: "list[float]" = []
        self._run_jitters: "list[float]" = []
        self._run_cursor = 0
        self._run_generation = 0
        # Jitter draws refunded by a truncated run. The per-instance
        # stream is positional (value depends only on draw index), so a
        # draw planned for a dropped step is reused verbatim by whatever
        # step executes at that position instead.
        self._jitter_queue: "Deque[float]" = deque()
        # Incrementally maintained total context length of the active
        # set — the O(1) dispatch/telemetry signal (no per-step lists).
        self._active_context_tokens = 0
        # Instrumentation. Admission never overcommits KV, so nothing is
        # ever preempted; the counter stays for metric-schema stability.
        self.steps_executed = 0
        self.busy_time = 0.0
        self.preemptions = 0
        self.tokens_generated = 0

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Active plus waiting requests — the dispatch load signal."""
        return len(self._active) + len(self._waiting)

    @property
    def active_batch_size(self) -> int:
        return len(self._active)

    @property
    def active_tokens(self) -> int:
        """Total context tokens of the active set, O(1) mid-run.

        During a run the per-step state is not materialized; the count
        of elapsed (but unmaterialized) step boundaries times the batch
        size bridges the gap without touching per-request state.
        """
        extra = 0
        if self._run_cursor < len(self._run_boundaries):
            done = bisect_left(
                self._run_boundaries, self._sim.now, self._run_cursor
            )
            extra = (done - self._run_cursor) * len(self._run_batch)
        return self._active_context_tokens + extra

    def kv_capacity_tokens(self) -> int:
        return self._kv.total_blocks * self._kv.block_size

    def kv_free_tokens(self) -> int:
        return self._kv.free_blocks * self._kv.block_size

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register this instance's gauges/counters (callback-backed).

        Gauges sample live batch/KV/counter state, which a multi-step
        run advances only in bulk — so instrumenting an instance caps
        all subsequent runs at one step.
        """
        self._capped = True
        labels = {"phase": "decode", "instance": self.name}
        registry.gauge(
            "repro_queue_depth", "Requests waiting for a batch slot",
            labels=labels, fn=lambda: len(self._waiting),
        )
        registry.gauge(
            "repro_batch_size", "Active continuous-batching set size",
            labels=labels, fn=lambda: len(self._active),
        )
        registry.gauge(
            "repro_active_context_tokens", "Context tokens in the active set",
            labels=labels, fn=lambda: self.active_tokens,
        )
        registry.gauge(
            "repro_kv_blocks_used", "KV-cache blocks allocated",
            labels=labels, fn=lambda: self._kv.used_blocks,
        )
        registry.gauge(
            "repro_kv_blocks_free", "KV-cache blocks available",
            labels=labels, fn=lambda: self._kv.free_blocks,
        )
        registry.counter(
            "repro_batches_total", "Batches/steps executed",
            labels=labels, fn=lambda: self.steps_executed,
        )
        registry.counter(
            "repro_tokens_total", "Tokens processed by the phase",
            labels=labels, fn=lambda: self.tokens_generated,
        )
        registry.counter(
            "repro_busy_seconds_total", "Virtual seconds spent executing",
            labels=labels, fn=lambda: self.busy_time,
        )
        registry.counter(
            "repro_preemptions_total", "Recompute preemptions",
            labels=labels, fn=lambda: self.preemptions,
        )
        registry.gauge(
            "repro_utilization", "Busy fraction of elapsed virtual time",
            labels=labels,
            fn=lambda: self.busy_time / self._sim.now if self._sim.now > 0 else 0.0,
        )

    def can_reserve(self, state: RequestState, extra_blocks: int = 0) -> bool:
        """Whether admitting ``state`` now would find KV space.

        Used by the orchestration layer's *pull* policy: the KV transfer
        is initiated only when this returns True. ``extra_blocks``
        accounts for reservations already promised to in-flight transfers.
        """
        return self.reservation_blocks(state) + extra_blocks <= self._kv.free_blocks

    def reservation_blocks(self, state: RequestState) -> int:
        """Blocks a future admission of ``state`` will consume."""
        return -(-state.request.total_tokens // self._kv.block_size)

    # ------------------------------------------------------------------
    def submit(self, state: RequestState) -> None:
        """Accept a request whose KV cache has arrived.

        The caller (orchestration layer) is expected to have gated the
        transfer on :meth:`can_reserve`; if space ran out anyway the
        request waits unreserved and is admitted when memory frees.
        """
        state.phase = RequestPhase.WAITING_DECODE
        state.stamp("decode_enqueue", self._sim.now)
        self._trace.begin(
            state.request_id, SpanKind.DECODE_QUEUE, self._sim.now, self.name
        )
        self._waiting.append(state)
        self._truncate_run()
        self._kick()

    def _truncate_run(self) -> None:
        """Shorten an in-flight run to the next step boundary.

        A submission landing mid-run is admitted when the step in flight
        completes. Keep boundaries up to the first one strictly after
        now, refund the dropped steps' jitter draws, and re-aim the
        run-end event (the stale one is voided by the generation bump).
        """
        boundaries = self._run_boundaries
        if self._run_cursor >= len(boundaries):
            return
        keep = bisect_right(boundaries, self._sim.now) + 1
        if keep >= len(boundaries):
            return
        self._jitter_queue.extendleft(reversed(self._run_jitters[keep:]))
        del boundaries[keep:]
        del self._run_durations[keep:]
        del self._run_jitters[keep:]
        self._run_generation += 1
        self._schedule_run_end()

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        self._waiting = self._qpolicy.reorder(self._waiting, self._sim.now)
        while self._waiting and self._bpolicy.admit_decode(
            len(self._active), self.spec.max_batch_size
        ):
            head = self._waiting[0]
            need = head.request.total_tokens
            if not self._kv.can_allocate(need):
                break
            self._kv.allocate(head.request_id, need)
            self._waiting.popleft()
            head.phase = RequestPhase.DECODING
            head.stamp("decode_start", self._sim.now)
            self._trace.end(head.request_id, SpanKind.DECODE_QUEUE, self._sim.now)
            self._active.append(head)
            self._active_context_tokens += head.context_len

    def _kick(self) -> None:
        if self._stepping or not self._alive:
            return
        self._stepping = True
        self._continue()

    def _continue(self) -> None:
        """Admit and start the next run (or go idle)."""
        self._admit()
        if not self._active:
            self._stepping = False
            return
        self._plan_run()

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def _plan_run(self) -> None:
        """Plan and schedule one run of decode steps.

        The run length is bounded by one step when capped, else by (a)
        the shortest remaining request — so nobody finishes mid-run — and
        (b) the next pending event: a step is included only if it
        *starts* strictly before that event fires, because anything
        firing earlier could enqueue work that must be admitted at that
        step's boundary. The first step may overshoot the horizon — it
        is in flight either way, and mid-flight events only enqueue.
        """
        active = self._active
        if self._capped:
            max_steps = 1
        else:
            max_steps = active[0].remaining_tokens
            for state in active:
                remaining = state.remaining_tokens
                if remaining < max_steps:
                    max_steps = remaining
        mb_size = -(-len(active) // self.spec.config.pp)
        mb_context = 0
        for state in active[:mb_size]:
            mb_context += state.context_len
        latency = self._timer.step_latency_fn(mb_size)
        peek = self._sim.peek_time()
        boundaries: "list[float]" = []
        durations: "list[float]" = []
        jitters: "list[float]" = []
        t = self._sim.now
        steps = 0
        if self._unit_jitter:
            # base * 1.0 is bitwise base and the unit stream is stateless:
            # no draw to make, none to refund on truncation.
            while steps < max_steps:
                if steps > 0 and peek is not None and t >= peek:
                    break
                duration = latency(mb_context)
                assert duration >= 0.0  # latency model is nonnegative
                t = t + duration
                boundaries.append(t)
                durations.append(duration)
                mb_context += mb_size
                steps += 1
        else:
            while steps < max_steps:
                if steps > 0 and peek is not None and t >= peek:
                    break
                noise = self._draw_jitter()
                duration = latency(mb_context) * noise
                assert duration >= 0.0  # latency model + jitter nonnegative
                t = t + duration
                boundaries.append(t)
                durations.append(duration)
                jitters.append(noise)
                mb_context += mb_size
                steps += 1
        self._run_batch = list(active)
        self._run_start = self._sim.now
        self._run_boundaries = boundaries
        self._run_durations = durations
        self._run_jitters = jitters
        self._run_cursor = 0
        # The first step starts now; later ones as boundaries complete.
        self.steps_executed += 1
        self.busy_time += durations[0]
        self._schedule_run_end()

    def _draw_jitter(self) -> float:
        if self._jitter_queue:
            return self._jitter_queue.popleft()
        return self._jitter()

    def _schedule_run_end(self) -> None:
        generation = self._run_generation
        last = self._run_boundaries[-1]
        assert last >= self._sim.now
        self._sim.schedule_at(last, lambda: self._finish_run(generation))

    def _materialize(self, upto: int) -> None:
        """Complete run steps ``[cursor, upto)`` in bulk.

        Each completed boundary starts the next step, which is charged
        then, in boundary order (preserving the float-addition sequence
        of stepping one at a time); token times advance with one bulk
        operation per request, value-identical to per-step appends.
        """
        cursor = self._run_cursor
        if upto <= cursor:
            return
        durations = self._run_durations
        for step in range(cursor + 1, min(upto + 1, len(durations))):
            self.steps_executed += 1
            self.busy_time += durations[step]
        step_times = self._run_boundaries[cursor:upto]
        batch = self._run_batch
        for state in batch:
            state.record_tokens(step_times)
        count = upto - cursor
        self.tokens_generated += count * len(batch)
        self._active_context_tokens += count * len(batch)
        self._run_cursor = upto

    def _finish_run(self, generation: int) -> None:
        if not self._alive or generation != self._run_generation:
            return  # stale run-end, or the instance failed mid-run
        self._materialize(len(self._run_boundaries))
        if self._capped:
            self._emit_step()
        finished = [state for state in self._run_batch if state.is_finished]
        self._clear_run()
        for state in finished:
            # Identity filter: list.remove would run the dataclass
            # __eq__ against every request ahead of this one.
            self._active = [s for s in self._active if s is not state]
            self._active_context_tokens -= state.context_len
            self._kv.free(state.request_id)
            state.phase = RequestPhase.FINISHED
            self._on_done(state)
        self._continue()

    def _emit_step(self) -> None:
        """Spans and profiler exec event of a finished one-step run."""
        batch = self._run_batch
        start, end = self._run_start, self._run_boundaries[0]
        if self._trace.enabled:
            for state in batch:
                self._trace.span(
                    state.request_id,
                    SpanKind.DECODE_STEP,
                    start,
                    end,
                    self.name,
                    batch_size=len(batch),
                    token_index=state.generated - 1,
                )
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "decode", start, end, len(batch), len(batch)
            )

    def _clear_run(self) -> None:
        self._run_batch = []
        self._run_boundaries = []
        self._run_durations = []
        self._run_jitters = []
        self._run_cursor = 0

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> "list[RequestState]":
        """Kill the instance; return requests needing recovery.

        Active and waiting requests lose their KV caches: each must
        re-run prefill over its full current context (prompt plus tokens
        generated so far) before decoding can resume — the fault
        *propagation* the paper warns about (§4.3): one decode failure
        creates a prefill load spike.
        """
        # Complete every step that ended strictly before now; that also
        # charges the step in flight, which started by now.
        self._materialize(
            bisect_left(self._run_boundaries, self._sim.now, self._run_cursor)
        )
        self._run_generation += 1
        self._clear_run()
        self._alive = False
        victims = list(self._active) + list(self._waiting)
        for state in victims:
            self._kv.free(state.request_id)
            state.recompute_len = state.context_len
        self._active.clear()
        self._waiting.clear()
        self._active_context_tokens = 0
        self._stepping = False
        self._bpolicy.reset()
        # The pool dies with the instance: release any remaining
        # allocations so quiesce-time leak audits stay clean.
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims
