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

**Lazy token accounting.** A run end touches only the requests that
finish. The instance counts completed steps in ``_step`` and appends
each materialized step boundary to a boundary log; each active request
remembers its *join step* (the step count when it was admitted or last
brought up to date), so its true ``generated`` is the stored value plus
``_step - join``. A heap keyed ``(join + remaining, admission order)``
gives the run bound at ``heap[0]`` and pops finishers in the order they
complete. A request is brought up to date, with one ``record_tokens``
call on the log slice since its join step, only when it finishes, when
``fail()`` takes it as a victim, or when a capped run end hands the
batch to ``on_tokens``. The log drops entries below the oldest active
join step as it grows.

The per-step reference is this engine with every run capped at one
step. One predicate caps runs: ``fast_kernel=False``, a metrics
registry sampling live state (:meth:`DecodeInstance.instrument`), or
an observer that handles per-step events (``observes_steps``: a tracer
or profiler subscribed to the run's bus). A capped run end emits
``on_tokens`` and ``on_batch`` for its step. Counters charge a step's
batch and busy time when the step starts and its tokens when it ends,
so an observer sampling mid-step sees what a one-event-per-step engine
would show.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import Callable, Deque

from .events import Simulation
from .instance import InstanceSpec, instrument_instance
from .kvcache import KVBlockManager
from .metrics import MetricsRegistry
from .observer import Observer
from .request import RequestPhase, RequestState
from ..latency.parallel import DecodeStepTimer
from ..scheduling.batch import BatchPolicy, make_batch_policy
from ..scheduling.config import SchedulingConfig
from ..scheduling.queue import QueuePolicy, make_queue_policy

__all__ = ["DecodeInstance"]

#: Boundary-log length below which the log is never trimmed; above it a
#: trim runs each time the log has doubled since the last one.
_LOG_TRIM_MIN = 4096


class DecodeInstance:
    """Simulated decode-only model replica.

    Args:
        sim: Shared simulation loop.
        spec: Instance resources and parallelism.
        on_request_done: Callback fired when a request's last token is
            generated.
        name: Identifier for reporting.
        observer: Receives this instance's lifecycle events: enqueue,
            decode start, and, on capped runs, one ``on_tokens`` and one
            ``on_batch`` per step (:mod:`repro.simulator.observer`).
        fast_kernel: Allow multi-step runs when nothing observes
            individual steps. Results are bit-identical either way;
            disabling caps every run at one step (the per-step
            reference).
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
        observer: "Observer | None" = None,
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
        # Keyed by request id in admission order: a finisher leaves in O(1).
        self._active: "dict[int, RequestState]" = {}
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._jitter = spec.make_jitter(name)
        self._obs = observer if observer is not None else Observer()
        self._alive = True
        self._stepping = False
        # Set by fast_kernel=False and by instrument(), whose gauges
        # sample live state that multi-step runs advance only in bulk.
        self._per_step = not fast_kernel
        self._timer = DecodeStepTimer(
            spec.model, spec.config, spec.latency_coeffs, spec.tp_link, spec.pp_link
        )
        # With jitter_sigma == 0 the noise source is the stateless
        # constant 1.0 (x * 1.0 is bitwise x), so run planning may skip
        # the draw calls without perturbing any stream position.
        self._unit_jitter = spec.jitter_sigma == 0.0
        # Lazy token accounting (module docstring): completed steps, the
        # boundary times of steps ``_log_base`` onwards, each active
        # request's join step, and the finish heap of
        # ``(finish step, admission seq, state)``.
        self._step = 0
        self._log: "list[float]" = []
        self._log_base = 0
        self._trim_at = _LOG_TRIM_MIN
        self._joined: "dict[int, int]" = {}
        self._finish: "list[tuple[int, int, RequestState]]" = []
        self._admissions = 0
        # State of the in-flight run (empty when idle).
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
            extra = (done - self._run_cursor) * len(self._active)
        return self._active_context_tokens + extra

    @property
    def _capped(self) -> bool:
        """Whether runs are capped at one step (the one predicate)."""
        return self._per_step or self._obs.observes_steps

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
        self._per_step = True
        labels = instrument_instance(
            registry, "decode", self.name, self._sim, self._kv,
            queue_depth=lambda: len(self._waiting),
            tokens=lambda: self.tokens_generated,
            busy=lambda: self.busy_time,
            batch_size=lambda: len(self._active),
            batches=lambda: self.steps_executed,
            preemptions=lambda: self.preemptions,
        )
        registry.gauge(
            "repro_active_context_tokens", "Context tokens in the active set",
            labels=labels, fn=lambda: self.active_tokens,
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

    def waiting_for_kv(self) -> "list[tuple[int, str, int, int]]":
        """``(request id, queue, KV blocks needed, pool blocks)`` per
        waiting request (the sanitizer's liveness report)."""
        return [
            (s.request_id, f"{self.name} queue", self.reservation_blocks(s),
             self._kv.total_blocks)
            for s in self._waiting
        ]

    # ------------------------------------------------------------------
    def submit(self, state: RequestState) -> None:
        """Accept a request whose KV cache has arrived.

        The caller (orchestration layer) is expected to have gated the
        transfer on :meth:`can_reserve`; if space ran out anyway the
        request waits unreserved and is admitted when memory frees.
        """
        state.phase = RequestPhase.WAITING_DECODE
        state.stamp("decode_enqueue", self._sim.now)
        self._obs.on_enqueue(state, "decode", self._sim.now, self.name)
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
            self._obs.on_decode_start(head, self._sim.now)
            self._active[head.request_id] = head
            self._joined[head.request_id] = self._step
            heappush(
                self._finish,
                (self._step + head.remaining_tokens, self._admissions, head),
            )
            self._admissions += 1
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
        step = self._step
        max_steps = 1 if self._capped else self._finish[0][0] - step
        pp = self.spec.config.pp
        mb_size = -(-len(self._active) // pp)
        if pp == 1:
            mb_context = self._active_context_tokens
        else:
            joined = self._joined
            mb_context = 0
            for request_id, state in islice(self._active.items(), mb_size):
                mb_context += state.context_len + step - joined[request_id]
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
        of stepping one at a time). The boundaries join the log and the
        step counter advances; no request is touched.
        """
        cursor = self._run_cursor
        if upto <= cursor:
            return
        durations = self._run_durations
        for step in range(cursor + 1, min(upto + 1, len(durations))):
            self.steps_executed += 1
            self.busy_time += durations[step]
        self._log += self._run_boundaries[cursor:upto]
        count = upto - cursor
        self._step += count
        tokens = count * len(self._active)
        self.tokens_generated += tokens
        self._active_context_tokens += tokens
        self._run_cursor = upto
        if len(self._log) >= self._trim_at:
            self._trim_log()

    def _trim_log(self) -> None:
        """Drop log entries below the oldest active join step.

        The O(batch) scan runs only once the log has doubled since the
        last trim, so its cost spreads over at least as many steps.
        """
        low = min(self._joined.values(), default=self._step)
        del self._log[: low - self._log_base]
        self._log_base = low
        self._trim_at = max(_LOG_TRIM_MIN, 2 * len(self._log))

    def _sync_all(self) -> None:
        """Record every active request's tokens since its join step.

        One ``record_tokens`` call on a slice of the boundary log is
        value-identical to one append per step. Join steps never
        decrease in admission order, so requests that share a join step
        are adjacent and reuse one slice.
        """
        step = self._step
        base = self._log_base
        log = self._log
        joined = self._joined
        last_join = step
        times: "list[float]" = []
        for request_id, state in self._active.items():
            join = joined[request_id]
            if join != last_join:
                last_join = join
                times = log[join - base : step - base]
            if times:
                state.record_tokens(times)
        self._joined = dict.fromkeys(self._active, step)

    def _finish_run(self, generation: int) -> None:
        if not self._alive or generation != self._run_generation:
            return  # stale run-end, or the instance failed mid-run
        self._materialize(len(self._run_boundaries))
        if self._capped:
            # Observers read the batch's token state, so bring it up to date.
            self._sync_all()
            batch = list(self._active.values())
            start, end = self._run_start, self._run_boundaries[0]
            self._obs.on_tokens(batch, start, end, self.name)
            self._obs.on_batch(
                self.name, "decode", start, end, len(batch), len(batch)
            )
        finished = self._pop_finished()
        self._clear_run()
        step = self._step
        base = self._log_base
        for state in finished:
            request_id = state.request_id
            del self._active[request_id]
            join = self._joined.pop(request_id)
            if join < step:
                state.record_tokens(self._log[join - base : step - base])
            self._active_context_tokens -= state.context_len
            self._kv.free(state.request_id)
            state.phase = RequestPhase.FINISHED
            self._on_done(state)
        self._continue()

    def _pop_finished(self) -> "list[RequestState]":
        """Requests whose last step has completed, in admission order.

        Runs never pass the earliest finish step, so every finisher at a
        run end shares one finish step and the heap's tie-break on
        admission order is the order the active set holds them.
        """
        finish = self._finish
        finished = []
        while finish and finish[0][0] <= self._step:
            finished.append(heappop(finish)[2])
        return finished

    def _clear_run(self) -> None:
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
        self._sync_all()
        victims = list(self._active.values()) + list(self._waiting)
        for state in victims:
            self._kv.free(state.request_id)
            state.recompute_len = state.context_len
        self._active.clear()
        self._joined.clear()
        self._finish.clear()
        self._log.clear()
        self._log_base = self._step
        self._waiting.clear()
        self._active_context_tokens = 0
        self._stepping = False
        self._bpolicy.reset()
        # The pool dies with the instance: release any remaining
        # allocations so quiesce-time leak audits stay clean.
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims
