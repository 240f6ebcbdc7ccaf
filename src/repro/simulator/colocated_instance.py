"""Colocated serving instance: prefill and decode share the same GPUs.

This is the baseline DistServe compares against (§2.2, §6.1). Three
iteration-level scheduling policies are modeled:

* ``"prefill_priority"`` — vLLM semantics: an iteration is either a
  prefill batch (new prompts, prioritized) or one decoding step of all
  running requests. Decoding stalls whenever prompts arrive — the
  prefill-decoding interference of Figure 2.
* ``"decode_priority"`` — the mirror image: decoding steps run while any
  request is active; prompts are admitted only when decoding drains.
  §2.3's point — "prioritizing tasks in either phase adversely affects
  the latency of the other, rendering priority scheduling ineffective" —
  falls out of comparing these two.
* ``"combined"`` — Orca-style continuous batching: waiting prompts and
  running decodes execute in one combined iteration.
* ``"chunked"`` — SARATHI-style chunked prefill: prompts are split into
  fixed-size chunks piggybacked onto decode iterations, trading TTFT
  for TPOT (§2.2).

KV management is vLLM-style optimistic admission with recompute
preemption: a request that cannot grow its KV is pushed back to the
waiting queue, its blocks freed, and its full context re-prefilled on
re-admission.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from .events import Simulation
from .instance import InstanceSpec
from .kvcache import KVBlockManager
from .metrics import MetricsRegistry
from .profiler import NULL_PROFILER, Profiler
from .request import RequestPhase, RequestState
from .tracing import NULL_TRACER, SpanKind, Tracer
from ..latency.mixed import mixed_batch_latency
from ..latency.parallel import DecodeStepTimer, PrefillBatchTimer
from ..scheduling.config import SchedulingConfig
from ..scheduling.queue import QueuePolicy, make_queue_policy

__all__ = ["ColocatedInstance", "POLICIES"]

POLICIES = ("prefill_priority", "decode_priority", "combined", "chunked")


class ColocatedInstance:
    """Simulated colocated model replica (the vLLM baseline).

    Args:
        sim: Shared simulation loop.
        spec: Instance resources and parallelism.
        on_request_done: Fired when a request finishes all output tokens.
        policy: One of :data:`POLICIES`.
        max_prefill_tokens: Token budget of one prefill iteration.
        chunk_size: Prompt-chunk budget for the ``"chunked"`` policy.
        name: Identifier for reporting.
        tracer: Optional lifecycle tracer receiving queue/exec/step spans.
        profiler: Optional critical-path profiler receiving one exec
            event per iteration, tagged by iteration kind.
        scheduling: Policy configuration (:mod:`repro.scheduling`); the
            queue policy orders the waiting deque before each admission
            pass (FCFS default is a no-op). Batch shaping stays with the
            iteration ``policy`` above — the vLLM baseline's own axis.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        on_request_done: Callable[[RequestState], None],
        policy: str = "prefill_priority",
        max_prefill_tokens: int = 2048,
        chunk_size: int = 512,
        name: str = "colocated-0",
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if max_prefill_tokens <= 0 or chunk_size <= 0:
            raise ValueError("max_prefill_tokens and chunk_size must be positive")
        self._sim = sim
        self.spec = spec
        self.name = name
        self.policy = policy
        self._on_done = on_request_done
        self._max_prefill_tokens = max_prefill_tokens
        self._chunk_size = chunk_size
        cfg = scheduling if scheduling is not None else SchedulingConfig()
        self._qpolicy: QueuePolicy = make_queue_policy(
            cfg.queue_policy,
            sjf_aging=cfg.sjf_aging,
            edf_default_deadline=cfg.edf_default_deadline,
            enqueue_stamp="prefill_enqueue",
        )
        self._alive = True
        self._waiting: "Deque[RequestState]" = deque()
        self._running: "list[RequestState]" = []
        self._running_ids: "set[int]" = set()
        # Prefill states inside the currently scheduled iteration: popped
        # from _waiting but not yet moved to _running, so fail() must
        # sweep them explicitly or they would be lost with the replica.
        self._inflight_prefills: "list[RequestState]" = []
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._coeffs = spec.latency_coeffs
        # Chunked-prefill progress: request_id -> prompt tokens prefilled.
        self._chunk_progress: "dict[int, int]" = {}
        # Recompute lengths for preempted requests: request_id -> context.
        self._recompute_len: "dict[int, int]" = {}
        self._jitter = spec.make_jitter(name)
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._iterating = False
        # Pure prefill/decode iterations price batches through the O(1)
        # timers; decode ones read an incrementally maintained total.
        self._prefill_timer = PrefillBatchTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        self._decode_timer = DecodeStepTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        self._running_context_tokens = 0
        # Instrumentation.
        self.prefill_iterations = 0
        self.decode_iterations = 0
        self.mixed_iterations = 0
        self.preemptions = 0
        self.busy_time = 0.0
        self.tokens_prefilled = 0
        self.tokens_generated = 0

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        return len(self._waiting) + len(self._running)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register this replica's gauges/counters (callback-backed)."""
        labels = {"phase": "colocated", "instance": self.name}
        registry.gauge(
            "repro_queue_depth", "Requests waiting for a batch slot",
            labels=labels, fn=lambda: len(self._waiting),
        )
        registry.gauge(
            "repro_batch_size", "Active continuous-batching set size",
            labels=labels, fn=lambda: len(self._running),
        )
        registry.gauge(
            "repro_chunked_prefill_tokens",
            "Prompt tokens mid-chunked-prefill (chunked policy occupancy)",
            labels=labels, fn=lambda: sum(self._chunk_progress.values()),
        )
        registry.gauge(
            "repro_kv_blocks_used", "KV-cache blocks allocated",
            labels=labels, fn=lambda: self._kv.used_blocks,
        )
        registry.gauge(
            "repro_kv_blocks_free", "KV-cache blocks available",
            labels=labels, fn=lambda: self._kv.free_blocks,
        )
        for kind, fn in (
            ("prefill", lambda: self.prefill_iterations),
            ("decode", lambda: self.decode_iterations),
            ("mixed", lambda: self.mixed_iterations),
        ):
            registry.counter(
                "repro_iterations_total", "Iterations executed, by kind",
                labels={**labels, "kind": kind}, fn=fn,
            )
        registry.counter(
            "repro_tokens_total", "Tokens processed by the phase",
            labels=labels, fn=lambda: self.tokens_prefilled + self.tokens_generated,
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

    def submit(self, state: RequestState) -> None:
        """Accept an arriving request."""
        state.phase = RequestPhase.WAITING_PREFILL
        state.stamp("prefill_enqueue", self._sim.now)
        self._trace.begin(
            state.request_id, SpanKind.PREFILL_QUEUE, self._sim.now, self.name
        )
        self._waiting.append(state)
        self._kick()

    # ------------------------------------------------------------------
    def _prompt_len(self, state: RequestState) -> int:
        """Tokens to prefill: the prompt, or full context after preemption.

        Preemptions on *this* instance are tracked in the local map; a
        request re-routed here after another replica failed carries its
        recompute length on the state itself (``state.prefill_len``).
        """
        local = self._recompute_len.get(state.request_id)
        if local is not None:
            return local
        return state.prefill_len

    def _try_admit_prefill(self, token_budget: int) -> "list[RequestState]":
        """Pop waiting requests into a prefill batch within the budget."""
        self._waiting = self._qpolicy.reorder(self._waiting, self._sim.now)
        batch: "list[RequestState]" = []
        total = 0
        while self._waiting and len(self._running) + len(batch) < self.spec.max_batch_size:
            head = self._waiting[0]
            need = self._prompt_len(head)
            if batch and total + need > token_budget:
                break
            if not self._kv.can_allocate(need):
                break
            self._kv.allocate(head.request_id, need)
            batch.append(self._waiting.popleft())
            total += need
        return batch

    def _kick(self) -> None:
        if self._iterating or not self._alive:
            return
        if not self._waiting and not self._running:
            return
        self._iterating = True
        self._run_iteration()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> "list[RequestState]":
        """Kill the replica; return requests needing re-routing.

        Every request on the replica is a victim: waiting ones simply
        re-queue elsewhere, while any request whose prefill started or
        that was decoding lost its KV cache and must re-run prefill over
        its full current context. The dead pool's allocations are all
        released so quiesce-time leak audits stay clean.
        """
        self._alive = False
        self._iterating = False
        victims: "list[RequestState]" = []
        seen: "set[int]" = set()
        for state in (
            list(self._waiting)
            + self._inflight_prefills
            + list(self._running)
        ):
            if state.request_id in seen:
                continue
            seen.add(state.request_id)
            victims.append(state)
            local = self._recompute_len.get(state.request_id)
            if local is not None:
                state.recompute_len = local
            elif (
                state.generated > 0
                or self._chunk_progress.get(state.request_id, 0) > 0
            ):
                state.recompute_len = state.context_len
        self._waiting.clear()
        self._running.clear()
        self._running_ids.clear()
        self._inflight_prefills = []
        self._chunk_progress.clear()
        self._recompute_len.clear()
        self._running_context_tokens = 0
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims

    def _run_iteration(self) -> None:
        if self.policy == "prefill_priority":
            self._iteration_prefill_priority()
        elif self.policy == "decode_priority":
            self._iteration_decode_priority()
        elif self.policy == "combined":
            self._iteration_mixed(token_budget=self._max_prefill_tokens, combined=True)
        else:
            self._iteration_mixed(token_budget=self._chunk_size, combined=False)

    # ------------------------------------------------------------------
    def _iteration_prefill_priority(self) -> None:
        batch = self._try_admit_prefill(self._max_prefill_tokens)
        if batch:
            self._launch_prefill(batch)
        elif self._running:
            self._launch_decode()
        else:
            self._iterating = False

    def _iteration_decode_priority(self) -> None:
        """Decode first; prompts wait until the running set drains."""
        if self._running:
            self._launch_decode()
            return
        batch = self._try_admit_prefill(self._max_prefill_tokens)
        if batch:
            self._launch_prefill(batch)
        else:
            self._iterating = False

    def _launch_prefill(self, batch: "list[RequestState]") -> None:
        """Start a pure prefill iteration over ``batch``."""
        batch_tokens = 0
        squared = 0
        for state in batch:
            length = self._prompt_len(state)
            batch_tokens += length
            squared += length * length
        base, _ = self._prefill_timer.times(batch_tokens, float(squared))
        duration = base * self._jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        self.prefill_iterations += 1
        self.busy_time += duration
        self.tokens_prefilled += batch_tokens
        for state in batch:
            state.phase = RequestPhase.PREFILLING
            state.stamp("prefill_start", self._sim.now)
            self._trace.end(state.request_id, SpanKind.PREFILL_QUEUE, self._sim.now)
            self._trace.begin(
                state.request_id,
                SpanKind.PREFILL_EXEC,
                self._sim.now,
                self.name,
                batch_size=len(batch),
            )
        step_start = self._sim.now
        self._inflight_prefills = list(batch)
        self._sim.schedule(
            duration, lambda: self._finish_prefill(batch, step_start, batch_tokens)
        )

    def _launch_decode(self) -> None:
        """Start one pure decoding step of the whole running set."""
        base = self._decode_timer.request_latency(
            len(self._running), self._running_context_tokens
        )
        duration = base * self._jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        self.decode_iterations += 1
        self.busy_time += duration
        batch_snapshot = list(self._running)
        step_start = self._sim.now
        self._sim.schedule(
            duration, lambda: self._finish_decode(batch_snapshot, step_start)
        )

    def _finish_prefill(
        self,
        batch: "list[RequestState]",
        step_start: float = 0.0,
        batch_tokens: int = 0,
    ) -> None:
        if not self._alive:
            return  # the replica died mid-iteration; victims re-routed
        self._inflight_prefills = []
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "prefill", step_start, self._sim.now,
                len(batch), batch_tokens,
            )
        for state in batch:
            was_preempted = state.request_id in self._recompute_len
            self._recompute_len.pop(state.request_id, None)
            state.recompute_len = None
            state.stamp("prefill_end", self._sim.now)
            self._trace.end(state.request_id, SpanKind.PREFILL_EXEC, self._sim.now)
            if not was_preempted and state.generated == 0:
                state.record_token(self._sim.now)
                self._trace.span(
                    state.request_id,
                    SpanKind.DECODE_STEP,
                    self._sim.now,
                    self._sim.now,
                    self.name,
                    batch_size=len(batch),
                    token_index=0,
                )
            state.phase = RequestPhase.DECODING
            state.stamp("decode_start", self._sim.now)
            if state.is_finished:
                self._kv.free(state.request_id)
                state.phase = RequestPhase.FINISHED
                self._on_done(state)
            else:
                self._running.append(state)
                self._running_ids.add(state.request_id)
                self._running_context_tokens += state.context_len
        self._run_iteration()

    def _finish_decode(
        self, batch: "list[RequestState]", step_start: float = 0.0
    ) -> None:
        if not self._alive:
            return  # the replica died mid-iteration; victims re-routed
        step_tokens = self._advance_decodes(batch, step_start)
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "decode", step_start, self._sim.now,
                len(batch), step_tokens,
            )
        self._run_iteration()

    def _advance_decodes(
        self, batch: "list[RequestState]", step_start: float = 0.0
    ) -> int:
        finished: "list[RequestState]" = []
        step_tokens = 0
        for state in batch:
            if state.request_id not in self._running_ids:
                continue  # preempted during this iteration
            if not self._kv.can_append(state.request_id):
                self._preempt_youngest(exclude_id=state.request_id)
                if not self._kv.can_append(state.request_id):
                    continue  # still stuck; token retried next iteration
            self._kv.append(state.request_id)
            state.record_token(self._sim.now)
            self.tokens_generated += 1
            self._running_context_tokens += 1
            step_tokens += 1
            if self._trace.enabled:
                self._trace.span(
                    state.request_id,
                    SpanKind.DECODE_STEP,
                    step_start,
                    self._sim.now,
                    self.name,
                    batch_size=len(batch),
                    token_index=state.generated - 1,
                )
            if state.is_finished:
                finished.append(state)
        for state in finished:
            self._running.remove(state)
            self._running_ids.discard(state.request_id)
            self._running_context_tokens -= state.context_len
            self._kv.free(state.request_id)
            state.phase = RequestPhase.FINISHED
            self._on_done(state)
        return step_tokens

    def _preempt_youngest(self, exclude_id: int) -> None:
        """Recompute-preempt the most recently admitted running request."""
        for idx in range(len(self._running) - 1, -1, -1):
            victim = self._running[idx]
            if victim.request_id == exclude_id:
                continue
            self._running.pop(idx)
            self._running_ids.discard(victim.request_id)
            self._running_context_tokens -= victim.context_len
            self._kv.free(victim.request_id)
            self._recompute_len[victim.request_id] = victim.context_len
            victim.phase = RequestPhase.WAITING_PREFILL
            self._trace.instant(
                victim.request_id, SpanKind.PREEMPTED, self._sim.now, self.name
            )
            self._trace.begin(
                victim.request_id, SpanKind.PREFILL_QUEUE, self._sim.now, self.name
            )
            self._waiting.appendleft(victim)
            self.preemptions += 1
            return

    # ------------------------------------------------------------------
    def _iteration_mixed(self, token_budget: int, combined: bool) -> None:
        """One Orca/SARATHI iteration: decode batch plus prompt (chunks)."""
        self._waiting = self._qpolicy.reorder(self._waiting, self._sim.now)
        contexts = [s.context_len for s in self._running]
        budget = token_budget if not combined else self._max_prefill_tokens
        chunk_lens: "list[int]" = []
        chunk_owners: "list[RequestState]" = []
        spent = 0
        while self._waiting and spent < budget:
            head = self._waiting[0]
            need = self._prompt_len(head)
            done = self._chunk_progress.get(head.request_id, 0)
            if done == 0:
                if len(self._running) + len(chunk_owners) >= self.spec.max_batch_size:
                    break
                if not self._kv.can_allocate(need):
                    break
                self._kv.allocate(head.request_id, need)
                head.phase = RequestPhase.PREFILLING
                head.stamp("prefill_start", self._sim.now)
                self._trace.end(
                    head.request_id, SpanKind.PREFILL_QUEUE, self._sim.now
                )
                self._trace.begin(
                    head.request_id, SpanKind.PREFILL_EXEC, self._sim.now, self.name
                )
            remaining = need - done
            take = remaining if combined else min(remaining, budget - spent)
            if take <= 0:
                break
            chunk_lens.append(take)
            chunk_owners.append(head)
            self._chunk_progress[head.request_id] = done + take
            spent += take
            if done + take >= need:
                self._waiting.popleft()
            else:
                break  # a partially prefilled prompt keeps its queue head
        if not chunk_lens and not contexts:
            self._iterating = False
            return
        duration = mixed_batch_latency(
            self.spec.model,
            self._coeffs,
            chunk_lens,
            contexts,
            tp=self.spec.config.tp,
        ) * self._jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        self.mixed_iterations += 1
        self.busy_time += duration
        self.tokens_prefilled += spent
        decode_snapshot = list(self._running)
        completed = [
            s
            for s in chunk_owners
            if self._chunk_progress.get(s.request_id, 0) >= self._prompt_len(s)
        ]
        step_start = self._sim.now
        mixed_batch_size = len(decode_snapshot) + len(chunk_lens)
        self._inflight_prefills = list(chunk_owners)
        self._sim.schedule(
            duration,
            lambda: self._finish_mixed(
                decode_snapshot, completed, step_start, spent, mixed_batch_size
            ),
        )

    def _finish_mixed(
        self,
        decode_batch: "list[RequestState]",
        prefilled: "list[RequestState]",
        step_start: float = 0.0,
        prefill_tokens: int = 0,
        batch_size: int = 0,
    ) -> None:
        if not self._alive:
            return  # the replica died mid-iteration; victims re-routed
        self._inflight_prefills = []
        for state in prefilled:
            was_preempted = state.request_id in self._recompute_len
            self._recompute_len.pop(state.request_id, None)
            self._chunk_progress.pop(state.request_id, None)
            state.recompute_len = None
            state.stamp("prefill_end", self._sim.now)
            self._trace.end(state.request_id, SpanKind.PREFILL_EXEC, self._sim.now)
            if not was_preempted and state.generated == 0:
                state.record_token(self._sim.now)
                self._trace.span(
                    state.request_id,
                    SpanKind.DECODE_STEP,
                    self._sim.now,
                    self._sim.now,
                    self.name,
                    token_index=0,
                )
            state.phase = RequestPhase.DECODING
            state.stamp("decode_start", self._sim.now)
            if state.is_finished:
                self._kv.free(state.request_id)
                state.phase = RequestPhase.FINISHED
                self._on_done(state)
            else:
                self._running.append(state)
                self._running_ids.add(state.request_id)
                self._running_context_tokens += state.context_len
        step_tokens = self._advance_decodes(decode_batch, step_start)
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "mixed", step_start, self._sim.now,
                batch_size, prefill_tokens + step_tokens,
            )
        self._run_iteration()
