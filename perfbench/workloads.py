"""The four benchmark workloads: set-up, one timed unit, one traced unit.

``plan`` runs Algorithm 2's placement search (``repro plan``'s default
algorithm). The three replays push one seeded open-loop Poisson ShareGPT
trace through a serving system. ``METRICS.md`` records why each was
chosen. Every call goes through the public API of ``repro``; nothing in
the program is changed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import repro.core.goodput as goodput_mod
import repro.core.search as search_mod
from repro.analysis import (
    build_profile,
    latency_summary,
    registry_snapshot,
    slo_attainment,
)
from repro.core import PlacementSearchStats, TrialCache, place_low_affinity
from repro.hardware import Cluster, paper_testbed
from repro.latency.parallel import ParallelismConfig
from repro.models import get_model
from repro.serving import ColocatedSystem, DisaggregatedSystem, simulate_trace
from repro.simulator import (
    ColocatedInstance,
    DecodeInstance,
    InstanceSpec,
    MetricsRegistry,
    PrefillInstance,
    Profiler,
    Simulation,
    SloMonitor,
    Tracer,
)
from repro.workload import Trace, generate_trace, get_dataset, get_workload

from hostclock import HostClock
from spans import SpanRecorder, patched
from stats import failed_share, percentile

MODEL = "opt-13b"
APPLICATION = "chatbot"  # ShareGPT, TTFT 0.2 s / TPOT 0.1 s for opt-13b

#: Replay arrival rate, req/s: past the knee of 2 decode instances, so
#: decode queues grow and p99 TPOT reflects queueing.
REPLAY_RATE = 8.0
#: Prefill and decode instances (tp=1, pp=1) of the disaggregated replay;
#: the colocated replay runs the same number of single-GPU replicas.
REPLAY_PREFILL = 2
REPLAY_DECODE = 2

#: ``repro plan`` defaults: requests per trial and joint candidates.
PLAN_TRIAL_REQUESTS = 150
PLAN_CANDIDATES = 3
#: Deployment units span one node. The full 4-node search (180 configs,
#: about 30 s) is too long to repeat within one benchmark run.
PLAN_NODE_LIMIT = 1


@dataclass(frozen=True)
class Size:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    replay_requests: int = 2000
    parity_requests: int = 400
    plan_cluster: Callable[[], Cluster] = paper_testbed


@dataclass
class UnitResult:
    """One executed unit of a workload and the host time it took.

    ``wall_s`` is adjusted to the reference host speed when the unit was
    timed with sampling (see ``hostclock``); ``raw_s`` is not.
    """

    wall_s: float
    raw_s: float = 0.0
    simulate_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    placement: Any = None
    stats: Optional[PlacementSearchStats] = None
    system: Any = None
    result: Any = None


class EngineCounters:
    """Per-layer counters read from public attributes after each simulation."""

    def __init__(self, max_seq_len: int) -> None:
        self.max_seq_len = max_seq_len
        self.requests = 0
        self.over_max_seq_len = 0
        self.expected = 0
        self.events = 0
        self.completed = 0
        self.unfinished = 0
        self.rejections = 0
        self.decode = dict(steps=0, tokens=0, preemptions=0, busy=0.0, capacity=0.0)
        self.prefill = dict(batches=0, tokens=0, busy=0.0, capacity=0.0)
        self.colocated = dict(
            prefill=0, decode=0, mixed=0, preemptions=0, busy=0.0, capacity=0.0
        )
        self.transfer = dict(count=0, bytes=0.0, stall=0.0)
        self.transfer_times: "list[float]" = []
        self.prefill_queue: "list[float]" = []
        self.decode_queue: "list[float]" = []

    def add_trace(self, trace: Trace) -> None:
        self.requests += len(trace)
        self.over_max_seq_len += sum(
            1 for r in trace if r.input_len + r.output_len > self.max_seq_len
        )

    def add_run(self, system: Any, trace: Trace, result: Any) -> None:
        self.expected += len(trace)
        self.events += result.events_processed
        self.completed += result.completed
        self.unfinished += result.unfinished
        self.rejections += system.rejections
        instances = []
        for attr in ("prefill_instances", "decode_instances", "instances"):
            instances.extend(getattr(system, attr, ()))
        has_prefill = has_decode = False
        for inst in instances:
            if isinstance(inst, DecodeInstance):
                has_decode = True
                d = self.decode
                d["steps"] += inst.steps_executed
                d["tokens"] += inst.tokens_generated
                d["preemptions"] += inst.preemptions
                d["busy"] += inst.busy_time
                d["capacity"] += result.sim_time
            elif isinstance(inst, PrefillInstance):
                has_prefill = True
                p = self.prefill
                p["batches"] += inst.batches_executed
                p["tokens"] += inst.tokens_prefilled
                p["busy"] += inst.busy_time
                p["capacity"] += result.sim_time
            elif isinstance(inst, ColocatedInstance):
                c = self.colocated
                c["prefill"] += inst.prefill_iterations
                c["decode"] += inst.decode_iterations
                c["mixed"] += inst.mixed_iterations
                c["preemptions"] += inst.preemptions
                c["busy"] += inst.busy_time
                c["capacity"] += result.sim_time
        for rec in result.records:
            if has_prefill:
                self.prefill_queue.append(rec.prefill_queue_time)
            if has_decode:
                self.decode_queue.append(rec.decode_queue_time)
        if result.transfer_records:
            t = self.transfer
            t["count"] += len(result.transfer_records)
            t["bytes"] += sum(tr.num_bytes for tr in result.transfer_records)
            self.transfer_times.extend(tr.duration for tr in result.transfer_records)
            # The engine's link-queueing total is public only through the
            # metrics registry; instrumenting after the run cannot change it.
            registry = MetricsRegistry()
            system.instrument(registry)
            stall = registry_snapshot(registry)["repro_kv_transfer_stall_seconds_total"]
            t["stall"] += stall["samples"][0]["value"]

    def metrics(self) -> "dict[str, float]":
        d, p, c, t = self.decode, self.prefill, self.colocated, self.transfer

        def frac(busy: float, capacity: float) -> float:
            return busy / capacity if capacity > 0 else 0.0

        return {
            "workload.requests": self.requests,
            "workload.over_max_seq_len": self.over_max_seq_len,
            "serving.completed": self.completed,
            "serving.unfinished": self.unfinished,
            "serving.rejections": self.rejections,
            "events.processed": self.events,
            "events.per_request": self.events / self.expected if self.expected else 0.0,
            "decode.steps": d["steps"],
            "decode.mean_batch": d["tokens"] / d["steps"] if d["steps"] else 0.0,
            "decode.preemptions": d["preemptions"],
            "decode.busy_frac": frac(d["busy"], d["capacity"]),
            "decode.queue_p99_s": percentile(self.decode_queue, 99.0),
            "prefill.batches": p["batches"],
            "prefill.mean_batch_tokens": p["tokens"] / p["batches"] if p["batches"] else 0.0,
            "prefill.busy_frac": frac(p["busy"], p["capacity"]),
            "prefill.queue_p99_s": percentile(self.prefill_queue, 99.0),
            "colocated.iterations_prefill": c["prefill"],
            "colocated.iterations_decode": c["decode"],
            "colocated.iterations_mixed": c["mixed"],
            "colocated.preemptions": c["preemptions"],
            "colocated.busy_frac": frac(c["busy"], c["capacity"]),
            "transfer.count": t["count"],
            "transfer.bytes": t["bytes"],
            "transfer.time_p99_s": percentile(self.transfer_times, 99.0),
            "transfer.stall_s": t["stall"],
        }


def simulated_metrics(records: list, expected: int, slo: Any) -> "dict[str, float]":
    """TTFT/TPOT percentiles, SLO attainment and failed share of one replay."""
    summary = latency_summary(records) if records else {}
    return {
        "ttft_p50_s": summary.get("ttft_p50", 0.0),
        "ttft_p99_s": summary.get("ttft_p99", 0.0),
        "tpot_p50_s": summary.get("tpot_p50", 0.0),
        "tpot_p99_s": summary.get("tpot_p99", 0.0),
        "slo_attainment": slo_attainment(records, slo, num_expected=expected).total,
        "failed_share": failed_share(expected, len(records)),
    }


class Plan:
    """Algorithm 2 for opt-13b chatbot on the paper testbed, cold trial cache."""

    name = "plan"

    def __init__(self, seed: int, size: Size = Size()) -> None:
        spec = get_workload(APPLICATION, MODEL)
        self.seed = seed
        self.model = get_model(MODEL)
        self.dataset = get_dataset(spec.dataset_name)
        self.slo = spec.slo
        self.cluster = size.plan_cluster()

    def _search(self, cache: TrialCache, stats: PlacementSearchStats) -> Any:
        # A fresh TrialCache per search: the default (None) is the
        # process-global cache, which would replay a second search from
        # memory and time the cache instead of the search.
        return place_low_affinity(
            self.model, self.cluster, self.dataset, self.slo,
            node_limit_per_instance=PLAN_NODE_LIMIT,
            num_requests=PLAN_TRIAL_REQUESTS,
            seed=self.seed,
            joint_sim_candidates=PLAN_CANDIDATES,
            stats=stats,
            workers=1,
            trial_cache=cache,
        )

    def unit(self, sample: bool = True) -> UnitResult:
        stats = PlacementSearchStats()
        cache = TrialCache()
        with HostClock(sample) as clock:
            placement = self._search(cache, stats)
        return UnitResult(
            wall_s=clock.adjusted_s, raw_s=clock.raw_s,
            attempted=stats.simulation_trials,
            failed=stats.trials_truncated, placement=placement, stats=stats,
        )

    def traced_unit(self, rec: SpanRecorder, counters: EngineCounters) -> UnitResult:
        stats = PlacementSearchStats()
        cache = TrialCache()
        cache.snapshot = rec.wrap("TrialCache.snapshot", cache.snapshot)
        cache.merge = rec.wrap("TrialCache.merge", cache.merge)

        run_trial = goodput_mod.run_attainment_trial
        simulate = goodput_mod.simulate_trace
        generate = goodput_mod.generate_trace

        def trial(system_factory: Callable, *args: Any, **kwargs: Any) -> Any:
            with rec.span("run_attainment_trial", new_trial=True):
                factory = rec.wrap("system_factory", system_factory)
                return run_trial(factory, *args, **kwargs)

        def generate_traced(*args: Any, **kwargs: Any) -> Trace:
            with rec.span("generate_trace"):
                trace = generate(*args, **kwargs)
            with rec.span("harness.counters"):
                counters.add_trace(trace)
            return trace

        def simulate_traced(system: Any, trace: Trace, **kwargs: Any) -> Any:
            with rec.span("simulate_trace"):
                result = simulate(system, trace, **kwargs)
            with rec.span("harness.counters"):
                counters.add_run(system, trace, result)
            return result

        hooks = [
            (search_mod, "max_goodput", rec.wrap("max_goodput", search_mod.max_goodput)),
            (search_mod, "run_attainment_trial", trial),
            (search_mod, "fingerprint", rec.wrap("fingerprint", search_mod.fingerprint)),
            (goodput_mod, "generate_trace", generate_traced),
            (goodput_mod, "simulate_trace", simulate_traced),
            (goodput_mod, "slo_attainment",
             rec.wrap("slo_attainment", goodput_mod.slo_attainment)),
        ]
        with patched(hooks):
            with rec.span("place_low_affinity"):
                placement = self._search(cache, stats)
        wall = rec.named("place_low_affinity")[0].duration
        return UnitResult(
            wall_s=wall, raw_s=wall, attempted=stats.simulation_trials,
            failed=stats.trials_truncated, placement=placement, stats=stats,
        )

    def simulated(self, unit: UnitResult) -> "dict[str, float]":
        st = unit.stats
        return {
            "goodput_per_gpu": unit.placement.per_gpu_goodput,
            "ttft_p50_s": 0.0,
            "ttft_p99_s": 0.0,
            "tpot_p50_s": 0.0,
            "tpot_p99_s": 0.0,
            "slo_attainment": 0.0,
            "failed_share": (
                st.trials_truncated / st.simulation_trials if st.simulation_trials else 0.0
            ),
        }


class Replay:
    """One seeded Poisson ShareGPT trace through a 4-GPU serving system."""

    def __init__(self, name: str, seed: int, size: Size = Size()) -> None:
        spec = get_workload(APPLICATION, MODEL)
        self.name = name
        self.seed = seed
        self.size = size
        self.model = get_model(MODEL)
        self.spec = InstanceSpec(model=self.model, config=ParallelismConfig(tp=1, pp=1))
        self.dataset = get_dataset(spec.dataset_name)
        self.slo = spec.slo
        self.trace = self.generate()

    def generate(self) -> Trace:
        return generate_trace(
            self.dataset, rate=REPLAY_RATE, num_requests=self.size.replay_requests,
            rng=np.random.default_rng(self.seed),
        )

    @property
    def observed(self) -> bool:
        return self.name == "replay-observed"

    def build(
        self, sim: Simulation, fast_kernel: bool = True, observed: Optional[bool] = None
    ) -> "tuple[Any, Optional[Tracer], Optional[Profiler]]":
        """The workload's system on ``sim``, with its observers when observed."""
        observed = self.observed if observed is None else observed
        tracer = Tracer() if observed else None
        profiler = Profiler() if observed else None
        if self.name == "replay-colocated":
            system = ColocatedSystem(
                sim, self.spec, num_replicas=REPLAY_PREFILL + REPLAY_DECODE,
                fast_kernel=fast_kernel,
            )
        else:
            system = DisaggregatedSystem(
                sim, self.spec, self.spec,
                num_prefill=REPLAY_PREFILL, num_decode=REPLAY_DECODE,
                tracer=tracer, profiler=profiler, fast_kernel=fast_kernel,
            )
        if observed:
            registry = MetricsRegistry()
            system.instrument(registry)
            system.attach_monitor(SloMonitor(sim, self.slo, registry=registry))
        return system, tracer, profiler

    def _profile(self, tracer: Tracer, profiler: Profiler, result: Any) -> dict:
        return build_profile(
            tracer.spans, profiler=profiler, sim_time=result.sim_time,
            slo=(self.slo.ttft, self.slo.tpot), num_gpus=result.num_gpus,
        )

    def unit(self, sample: bool = True, observed: Optional[bool] = None) -> UnitResult:
        system, tracer, profiler = self.build(Simulation(), observed=observed)
        with HostClock(sample) as clock:
            result = simulate_trace(system, self.trace)
            simulated_at = time.monotonic()
            slo_attainment(result.records, self.slo, num_expected=len(self.trace))
            if tracer is not None:
                self._profile(tracer, profiler, result)
        return UnitResult(
            wall_s=clock.adjusted_s, raw_s=clock.raw_s,
            simulate_s=simulated_at - clock.start,
            attempted=len(self.trace), failed=len(self.trace) - result.completed,
            system=system, result=result,
        )

    def traced_unit(self, rec: SpanRecorder, counters: EngineCounters) -> UnitResult:
        with rec.span("generate_trace"):
            trace = self.generate()
        counters.add_trace(trace)
        system, tracer, profiler = self.build(Simulation())
        with rec.span("simulate_trace"):
            result = simulate_trace(system, trace)
        with rec.span("slo_attainment"):
            slo_attainment(result.records, self.slo, num_expected=len(trace))
        if tracer is not None:
            with rec.span("build_profile"):
                self._profile(tracer, profiler, result)
        counters.add_run(system, trace, result)
        wall = sum(
            s.duration for s in rec.spans
            if s.name in ("simulate_trace", "slo_attainment", "build_profile")
        )
        return UnitResult(
            wall_s=wall, raw_s=wall, simulate_s=rec.named("simulate_trace")[0].duration,
            attempted=len(trace), failed=len(trace) - result.completed,
            system=system, result=result,
        )

    def simulated(self, unit: UnitResult) -> "dict[str, float]":
        out = {"goodput_per_gpu": 0.0}
        out.update(simulated_metrics(unit.result.records, len(self.trace), self.slo))
        return out


def make_workload(name: str, seed: int, size: Size = Size()) -> Any:
    if name == "plan":
        return Plan(seed, size)
    if name in ("replay-disagg", "replay-colocated", "replay-observed"):
        return Replay(name, seed, size)
    raise ValueError(f"unknown workload {name!r}")
