"""Prefill instance: FCFS batching with pipeline conveyor and batch shaping.

A prefill instance (§2.3) receives dispatched requests, runs only their
prefill computation, emits the first output token, and parks the KV
cache in its own GPU memory until the decode side *pulls* it (§4.3).

Scheduling follows §4.3:

* **FCFS** admission (default). The paper notes FCFS suffers a *convoy
  effect* — long prompts block short ones — and points to preemptive
  scheduling [41] as future work; the ``"sjf"`` queue policy implements
  the non-preemptive variant (shortest prompt first, with aging to
  prevent starvation) as that extension.
* **Batch shaping**: requests are batched until the total prompt length
  reaches the profiled saturation threshold ``L_m``; longer requests run
  alone. This both preserves GPU efficiency (§3.1) and evens out stage
  times to reduce pipeline bubbles (§3.3).
* **Pipeline conveyor**: with ``pp`` stages, a new batch may enter every
  ``stage_time`` seconds; a batch behind a slower one inherits the slower
  cadence — the "bubble" effect of non-uniform prompt lengths.
"""

from __future__ import annotations

from typing import Callable, Deque
from collections import deque

from .events import Simulation
from .instance import InstanceSpec
from .kvcache import KVBlockManager
from .metrics import MetricsRegistry
from .profiler import NULL_PROFILER, Profiler
from .request import RequestPhase, RequestState
from .tracing import NULL_TRACER, SpanKind, Tracer
from ..latency.parallel import PrefillBatchTimer
from ..latency.prefill import saturation_length
from ..scheduling.batch import BatchPolicy, PrefillChunk, make_batch_policy
from ..scheduling.config import SchedulingConfig
from ..scheduling.queue import QueuePolicy, make_queue_policy

__all__ = ["PrefillInstance"]


class PrefillInstance:
    """Simulated prefill-only model replica.

    Args:
        sim: The shared simulation loop.
        spec: Instance resources and parallelism.
        on_prefill_done: Callback invoked (with the request state) when a
            request's first token is produced; the orchestration layer
            then arranges the KV pull.
        batch_token_limit: Override for the batch-shaping threshold
            ``L_m`` (defaults to the profiled saturation length).
        queue_policy: ``"fcfs"`` (paper default), ``"sjf"``
            (shortest-prompt-first with aging — the convoy-effect
            mitigation the paper defers to future work), or ``"edf"``
            (earliest deadline first).
        sjf_aging: Seconds of queue wait equivalent to one prompt token
            when ranking under ``"sjf"``; higher values age waiting
            requests toward the front faster, bounding starvation.
        name: Identifier for reporting.
        tracer: Optional lifecycle tracer receiving queue/exec spans.
        profiler: Optional critical-path profiler receiving one exec
            event per executed batch.
        scheduling: Full policy configuration (:mod:`repro.scheduling`);
            when given, its queue/batch policies and knobs override the
            legacy ``queue_policy`` / ``sjf_aging`` /
            ``batch_token_limit`` keywords.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        on_prefill_done: Callable[[RequestState], None],
        batch_token_limit: "int | None" = None,
        queue_policy: str = "fcfs",
        sjf_aging: float = 2000.0,
        name: str = "prefill-0",
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        batch_policy = "token_budget"
        edf_default_deadline = 10.0
        if scheduling is not None:
            queue_policy = scheduling.queue_policy
            batch_policy = scheduling.batch_policy
            sjf_aging = scheduling.sjf_aging
            edf_default_deadline = scheduling.edf_default_deadline
            if scheduling.batch_token_limit is not None:
                batch_token_limit = scheduling.batch_token_limit
        self._sim = sim
        self.spec = spec
        self.name = name
        self._on_done = on_prefill_done
        self._qpolicy: QueuePolicy = make_queue_policy(
            queue_policy,
            sjf_aging=sjf_aging,
            edf_default_deadline=edf_default_deadline,
            enqueue_stamp="prefill_enqueue",
        )
        self._bpolicy: BatchPolicy = make_batch_policy(batch_policy)
        self._queue: "Deque[RequestState]" = deque()
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._coeffs = spec.latency_coeffs
        self._limit = (
            batch_token_limit
            if batch_token_limit is not None
            else saturation_length(spec.model, self._coeffs, tp=spec.config.tp)
        )
        self._jitter = spec.make_jitter(name)
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._timer = PrefillBatchTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        self._alive = True
        self._in_flight_states: "dict[int, RequestState]" = {}
        # Pipeline conveyor state.
        self._next_admit_time = 0.0
        self._prev_stage_time = 0.0
        self._in_flight = 0
        self._scheduler_armed = False
        # Instrumentation.
        self.batches_executed = 0
        self.busy_time = 0.0
        self.tokens_prefilled = 0

    # ------------------------------------------------------------------
    @property
    def queue_len(self) -> int:
        """Requests waiting or in flight — the dispatch load signal."""
        return len(self._queue) + self._in_flight

    @property
    def batch_token_limit(self) -> int:
        return self._limit

    def kv_tokens_held(self) -> int:
        """KV tokens parked on this instance awaiting pull."""
        return self._kv.used_blocks * self._kv.block_size

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register this instance's gauges/counters (callback-backed).

        Idempotent and zero hot-path cost: every metric reads existing
        instrumentation attributes or live structures at collection time.
        """
        labels = {"phase": "prefill", "instance": self.name}
        registry.gauge(
            "repro_queue_depth", "Requests waiting for a batch slot",
            labels=labels, fn=lambda: len(self._queue),
        )
        registry.gauge(
            "repro_batch_inflight", "Batches in the pipeline conveyor",
            labels=labels, fn=lambda: self._in_flight,
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
            labels=labels, fn=lambda: self.batches_executed,
        )
        registry.counter(
            "repro_tokens_total", "Tokens processed by the phase",
            labels=labels, fn=lambda: self.tokens_prefilled,
        )
        registry.counter(
            "repro_busy_seconds_total", "Virtual seconds spent executing",
            labels=labels, fn=lambda: self.busy_time,
        )
        registry.gauge(
            "repro_utilization", "Busy fraction of elapsed virtual time",
            labels=labels,
            fn=lambda: self.busy_time / self._sim.now if self._sim.now > 0 else 0.0,
        )

    # ------------------------------------------------------------------
    def submit(self, state: RequestState) -> None:
        """Accept a dispatched request (FCFS)."""
        state.phase = RequestPhase.WAITING_PREFILL
        state.stamp("prefill_enqueue", self._sim.now)
        self._trace.begin(
            state.request_id, SpanKind.PREFILL_QUEUE, self._sim.now, self.name
        )
        self._queue.append(state)
        self._arm_scheduler()

    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> "list[RequestState]":
        """Kill the instance; return requests needing re-routing.

        Victims are the queued requests plus any batch in flight; their
        (partial) KV caches on this instance are lost, so in-flight ones
        must re-run their prefill elsewhere. KV parked for completed
        requests is also lost — the orchestration layer handles those via
        its pending-pull bookkeeping. Every allocation in the dead
        instance's pool is released (the memory is gone with the
        instance), so sanitizer quiesce-time leak audits stay clean on
        fault-injection runs.
        """
        self._alive = False
        victims: "list[RequestState]" = []
        seen: "set[int]" = set()
        # Under chunked shaping a mid-prefill request sits both at the
        # queue head and in the in-flight map — dedupe by request id.
        for state in list(self._queue) + list(self._in_flight_states.values()):
            if state.request_id in seen:
                continue
            seen.add(state.request_id)
            victims.append(state)
        self._queue.clear()
        self._in_flight_states.clear()
        self._in_flight = 0
        self._bpolicy.reset()
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims

    def release_kv(self, request_id: int) -> None:
        """Free a parked KV cache after the decode side pulled it."""
        self._kv.free(request_id)
        self._arm_scheduler()

    # ------------------------------------------------------------------
    def _arm_scheduler(self) -> None:
        if self._scheduler_armed:
            return
        self._scheduler_armed = True
        delay = max(0.0, self._next_admit_time - self._sim.now)
        self._sim.schedule(delay, self._try_schedule)

    def _form_batch(self) -> "list[PrefillChunk]":
        """Reorder the queue, then shape a batch within the L_m budget.

        Both decisions are delegated to the configured scheduling
        policies (:mod:`repro.scheduling`); the defaults reproduce the
        paper's FCFS + token-budget recipe operation for operation.
        """
        self._queue = self._qpolicy.reorder(self._queue, self._sim.now)
        return self._bpolicy.form_prefill(self._queue, self._kv, self._limit)

    def _try_schedule(self) -> None:
        self._scheduler_armed = False
        if not self._alive or not self._queue:
            return
        if self._sim.now < self._next_admit_time:
            self._arm_scheduler()
            return
        batch = self._form_batch()
        if not batch:
            # Head-of-line request cannot get KV space; retry on release.
            return
        batch_tokens = 0
        squared = 0
        for entry in batch:
            length = entry.tokens
            batch_tokens += length
            squared += length * length
        base_request, base_stage = self._timer.times(batch_tokens, float(squared))
        start = self._sim.now
        noise = self._jitter()
        request_latency = base_request * noise
        stage_time = base_stage * noise
        # A batch behind a slower one inherits the slower cadence (bubble).
        gap = max(stage_time, self._prev_stage_time)
        self._next_admit_time = start + gap
        self._prev_stage_time = stage_time
        self._in_flight += 1
        self.batches_executed += 1
        self.busy_time += stage_time
        self.tokens_prefilled += batch_tokens
        for entry in batch:
            state = entry.state
            state.phase = RequestPhase.PREFILLING
            state.stamp("prefill_start", start)
            if entry.first:
                self._trace.end(state.request_id, SpanKind.PREFILL_QUEUE, start)
                self._trace.begin(
                    state.request_id,
                    SpanKind.PREFILL_EXEC,
                    start,
                    self.name,
                    batch_size=len(batch),
                )
            self._in_flight_states[state.request_id] = state
        assert request_latency >= 0.0  # latency model + jitter are nonnegative
        finish = start + request_latency

        def _complete() -> None:
            if not self._alive:
                return  # the instance died mid-batch; victims re-routed
            self._in_flight -= 1
            if self._prof.enabled:
                self._prof.record_exec(
                    self.name, "prefill", start, self._sim.now,
                    len(batch), batch_tokens,
                )
            for entry in batch:
                state = entry.state
                self._in_flight_states.pop(state.request_id, None)
                if not entry.final:
                    # Chunked prefill: the prompt's tail runs in a later
                    # batch; finalization waits for the final chunk.
                    continue
                state.stamp("prefill_end", self._sim.now)
                self._trace.end(
                    state.request_id, SpanKind.PREFILL_EXEC, self._sim.now
                )
                state.recompute_len = None
                if state.generated == 0:
                    state.record_token(self._sim.now)  # the first output token
                    self._trace.span(
                        state.request_id,
                        SpanKind.DECODE_STEP,
                        self._sim.now,
                        self._sim.now,
                        self.name,
                        batch_size=len(batch),
                        token_index=0,
                    )
                state.phase = RequestPhase.TRANSFERRING
                self._on_done(state)
            self._arm_scheduler()

        self._sim.schedule_at(finish, _complete)
        # More work may fit the pipeline immediately after the gap.
        if self._queue:
            self._arm_scheduler()
