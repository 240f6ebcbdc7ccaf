"""Fast-forward kernel parity suite.

The decode engine plans macro runs of steps (DESIGN.md §4h); the
per-step reference is the same engine with every run capped at one step
(``fast_kernel=False``, or any tracer/profiler/metrics observer). Every
scenario here runs both ways and compares a digest of the request
records, token timestamps and instance counters against a digest pinned
from the former dedicated per-step engine, so the capped and uncapped
runs must both reproduce it bit for bit. No tolerances.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.hardware import A100_80GB, ETHERNET_25G
from repro.latency import (
    DecodeStepTimer,
    ParallelismConfig,
    PrefillBatchTimer,
    coefficients_from_roofline,
    decode_times,
    prefill_times,
)
from repro.models.memory import compute_memory_budget
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.simulator import InstanceSpec, SimSanitizer, Simulation
from repro.simulator.colocated_instance import POLICIES
from repro.simulator.decode_instance import DecodeInstance
from repro.simulator.metrics import MetricsRegistry
from repro.simulator.request import Request, RequestPhase, RequestState
from repro.simulator.telemetry import TelemetryRecorder
from repro.simulator.tracing import Tracer
from repro.workload import fixed_length_dataset, generate_trace
from repro.workload.datasets import SyntheticDataset
from repro.workload.distributions import LognormalLength


# ----------------------------------------------------------------------
# Memoized timers mirror the reference latency model bitwise.
# ----------------------------------------------------------------------
class TestMemoTimers:
    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_decode_timer_bitwise(self, tiny_model, tp, pp):
        coeffs = coefficients_from_roofline(A100_80GB)
        config = ParallelismConfig(tp, pp)
        timer = DecodeStepTimer(tiny_model, config, coeffs)
        rng = np.random.default_rng(0)
        for _ in range(50):
            lens = [int(x) for x in rng.integers(1, 2000, rng.integers(1, 64))]
            ref = decode_times(tiny_model, config, coeffs, lens).request_latency
            got = timer.request_latency(len(lens), sum(lens))
            assert got == ref  # bitwise, no tolerance

    def test_step_latency_fn_matches_request_latency(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        timer = DecodeStepTimer(tiny_model, ParallelismConfig(2, 2), coeffs)
        for batch in (1, 3, 17):
            fn = timer.step_latency_fn(batch)
            for context in (batch, 100, 5000, 123456):
                assert fn(context) == timer.request_latency(batch, context)

    def test_decode_timer_empty_batch(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        timer = DecodeStepTimer(tiny_model, ParallelismConfig(1, 1), coeffs)
        assert timer.request_latency(0, 0) == 0.0
        assert timer.step_latency_fn(0)(0) == 0.0

    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 2)])
    def test_prefill_timer_bitwise(self, tiny_model, tp, pp):
        coeffs = coefficients_from_roofline(A100_80GB)
        config = ParallelismConfig(tp, pp)
        timer = PrefillBatchTimer(tiny_model, config, coeffs)
        rng = np.random.default_rng(1)
        for _ in range(50):
            lens = [int(x) for x in rng.integers(1, 1024, rng.integers(1, 16))]
            ref = prefill_times(tiny_model, config, coeffs, lens)
            total = sum(lens)
            squared = 0.0
            for length in lens:
                squared += length * length
            got_request, got_stage = timer.times(total, squared)
            assert got_request == ref.request_latency
            assert got_stage == ref.stage_time

    def test_timer_validation_hoisted(self, tiny_model):
        coeffs = coefficients_from_roofline(A100_80GB)
        with pytest.raises(ValueError):
            DecodeStepTimer(tiny_model, ParallelismConfig(3, 1), coeffs)
        with pytest.raises(ValueError):
            PrefillBatchTimer(tiny_model, ParallelismConfig(3, 1), coeffs)


# ----------------------------------------------------------------------
# System-level parity: capped and uncapped runs match pinned records.
# ----------------------------------------------------------------------
def _digest(value) -> str:
    """Short SHA-256 of ``repr(value)``; float reprs round-trip exactly."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


#: Digests of ``_parity``/``_drive_decode``/``_drive_midstream``/
#: ``_counter_series`` outputs recorded from the per-step reference
#: engine (``fast_kernel=False``) before it was folded into capped runs.
PINNED = {
    "decode_only": "f1865e2b11ae9502",
    "prefill_only": "77063353977a79ce",
    "disaggregated_pull": "37b5ea12b0fc4e62",
    "disaggregated_push": "37b5ea12b0fc4e62",
    "disaggregated_jitter_pp": "a0ab39d7718e9996",
    "colocated_prefill_priority": "e18b088dde646b34",
    "colocated_decode_priority": "653c131a6466d68b",
    "colocated_combined": "11da90510fa11629",
    "colocated_chunked": "495ff3a389ebb60f",
    "decode_reserved": "b2e131e6a756f618",
    "decode_jitter": "df9cf6efaeabe109",
    "decode_fail": "87ca58ae860cc1c8",
    "decode_midstream": "86a7a59d8245e877",
    "counter_series": "911d3045ff0f97d1",
}


def _records(result):
    return sorted(
        (r.request_id, r.ttft, r.tpot, r.finish_time) for r in result.records
    )


def _run_system(make_system, trace, fast):
    system = make_system(Simulation(), fast)
    result = simulate_trace(system, trace)
    return result.completed, result.unfinished, _records(result)


def _parity(make_system, trace, pinned):
    """Run ``trace`` capped and uncapped; both must match the pinned digest."""
    runs = [_run_system(make_system, trace, fast) for fast in (True, False)]
    for run in runs:
        assert _digest(run) == PINNED[pinned]
    return runs[0]


@pytest.fixture
def trace(rng):
    dataset = SyntheticDataset(
        name="mix",
        input_dist=LognormalLength(median=192.0, sigma=0.6, low=32, high=768),
        output_dist=LognormalLength(median=24.0, sigma=0.7, low=4, high=128),
    )
    return generate_trace(dataset, rate=12.0, num_requests=120, rng=rng)


class TestServingParity:
    def test_decode_only(self, tiny_spec, trace):
        completed, _, _ = _parity(
            lambda sim, fast: DecodeOnlySystem(sim, tiny_spec, fast_kernel=fast),
            trace, "decode_only",
        )
        assert completed == len(trace)

    def test_prefill_only(self, tiny_spec, trace):
        _parity(
            lambda sim, fast: PrefillOnlySystem(sim, tiny_spec),
            trace, "prefill_only",
        )

    @pytest.mark.parametrize("mode", ["pull", "push"])
    def test_disaggregated(self, tiny_spec, trace, mode):
        completed, _, _ = _parity(
            lambda sim, fast: DisaggregatedSystem(
                sim, tiny_spec, tiny_spec, num_prefill=2, num_decode=2,
                transfer_link=ETHERNET_25G, transfer_mode=mode,
                fast_kernel=fast,
            ),
            trace, f"disaggregated_{mode}",
        )
        assert completed == len(trace)

    def test_disaggregated_jitter_and_pp(self, tiny_model, trace):
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 2), jitter_sigma=0.1
        )
        _parity(
            lambda sim, fast: DisaggregatedSystem(
                sim, spec, spec, fast_kernel=fast
            ),
            trace, "disaggregated_jitter_pp",
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_colocated_policies(self, tiny_spec, trace, policy):
        _parity(
            lambda sim, fast: ColocatedSystem(
                sim, tiny_spec, num_replicas=2, policy=policy, fast_kernel=fast
            ),
            trace, f"colocated_{policy}",
        )

    def test_sanitizer_clean_fast_run(self, tiny_spec, trace):
        sanitizer = SimSanitizer(strict=True)
        sim = sanitizer.simulation()
        system = DisaggregatedSystem(sim, tiny_spec, tiny_spec, fast_kernel=True)
        sanitizer.watch_system(system)
        res = simulate_trace(system, trace)
        sanitizer.check_quiesce()
        assert res.completed == len(trace)
        assert sanitizer.violations == []


# ----------------------------------------------------------------------
# Decode-instance parity under queueing, jitter, failures, and submits.
# ----------------------------------------------------------------------
def _small_gpu(model, target_tokens):
    """A GPU sized so the decode KV pool holds ~``target_tokens``."""
    lo, hi = 1, A100_80GB.memory_bytes
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            cap = compute_memory_budget(model, mid, 1, 1).max_kv_tokens
        except ValueError:
            cap = -1
        if cap < target_tokens:
            lo = mid + 1
        else:
            hi = mid
    return dataclasses.replace(A100_80GB, memory_bytes=lo)


def _drive_decode(spec, fast, *, n=60, seed=7, fail_at=None):
    """Feed ``n`` decode requests; return (records, counters, done-count)."""
    rng = np.random.default_rng(seed)
    sim = Simulation()
    done = []
    inst = DecodeInstance(sim, spec, done.append, fast_kernel=fast)
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(0.02))
        req = Request(
            request_id=i, arrival_time=t,
            input_len=int(rng.integers(50, 400)),
            output_len=int(rng.integers(20, 120)),
        )

        def submit(r=req):
            state = RequestState(
                request=r, phase=RequestPhase.WAITING_DECODE, generated=1
            )
            state.token_times.append(sim.now)
            inst.submit(state)

        sim.schedule_at(req.arrival_time, submit)
    if fail_at is not None:
        sim.schedule_at(fail_at, inst.fail)
    sim.run()
    records = sorted(
        (s.request_id, s.generated, tuple(s.token_times)) for s in done
    )
    counters = (
        inst.steps_executed,
        inst.preemptions,
        inst.tokens_generated,
        inst.busy_time,
    )
    return records, counters, len(done)


def _drive_midstream(spec, fast):
    """A submit scheduled after a run was planned lands mid-run."""
    sim = Simulation()
    done = []
    inst = DecodeInstance(
        sim, spec, lambda s: done.append(s.request_id), fast_kernel=fast
    )
    first = RequestState(
        request=Request(request_id=0, arrival_time=0.0,
                        input_len=100, output_len=50),
        phase=RequestPhase.WAITING_DECODE, generated=1,
    )
    inst.submit(first)
    second = RequestState(
        request=Request(request_id=1, arrival_time=0.0,
                        input_len=100, output_len=5),
        phase=RequestPhase.WAITING_DECODE, generated=1,
    )
    sim.schedule(0.05, lambda: inst.submit(second))
    sim.run()
    return done, tuple(first.token_times), tuple(second.token_times)


class TestDecodeInstanceParity:
    def test_reserved_admission_queues_identically(self, tiny_model):
        gpu = _small_gpu(tiny_model, 4000)
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), gpu=gpu
        )
        for fast in (True, False):
            assert _digest(_drive_decode(spec, fast)) == PINNED["decode_reserved"]

    def test_jitter_stream_identical(self, tiny_model):
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), jitter_sigma=0.08
        )
        for fast in (True, False):
            assert _digest(_drive_decode(spec, fast)) == PINNED["decode_jitter"]

    def test_fail_mid_run_identical(self, tiny_spec):
        for fast in (True, False):
            got = _drive_decode(tiny_spec, fast, fail_at=0.25)
            assert _digest(got) == PINNED["decode_fail"]

    def test_midstream_submit_truncates_run(self, tiny_spec):
        """The regression scenario: an event scheduled *after* a macro run

        was planned submits mid-run; the run must be truncated so the
        newcomer is admitted at the same boundary a one-step run would
        use.
        """
        for fast in (True, False):
            got = _drive_midstream(tiny_spec, fast)
            assert _digest(got) == PINNED["decode_midstream"]
            assert got[0] == [1, 0]  # short newcomer finishes first


# ----------------------------------------------------------------------
# Observability caps runs at one step, reproducing per-step artifacts.
# ----------------------------------------------------------------------
_SAMPLED_COUNTERS = (
    "repro_batches_total",
    "repro_busy_seconds_total",
    "repro_tokens_total",
)


def _counter_series(spec, trace, fast):
    """Counter samples of an instrumented disaggregated run.

    The cadence is deliberately unaligned with step boundaries, so the
    samples pin *when* each counter moves inside a step (batches and
    busy time at step start, tokens at step end).
    """
    sim = Simulation()
    system = DisaggregatedSystem(
        sim, spec, spec, num_prefill=2, num_decode=2, fast_kernel=fast
    )
    registry = MetricsRegistry()
    system.instrument(registry)
    recorder = TelemetryRecorder(sim, interval=0.0137)
    for phase, pool in (
        ("prefill", system.prefill_instances),
        ("decode", system.decode_instances),
    ):
        for inst in pool:
            labels = {"phase": phase, "instance": inst.name}
            for name in _SAMPLED_COUNTERS:
                metric = registry.get(name, labels)
                recorder.register(
                    f"{name}{{{inst.name}}}", lambda m=metric: m.value
                )
    recorder.start(until=trace.duration + 2.0)
    simulate_trace(system, trace)
    return [
        (name, tuple(recorder.series(name).times), tuple(recorder.series(name).values))
        for name in recorder.names()
    ]


class TestObservabilityFallback:
    def test_tracer_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        tracer = Tracer()
        inst = DecodeInstance(
            sim, tiny_spec, lambda s: None, tracer=tracer, fast_kernel=True
        )
        assert inst._capped

    def test_instrument_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, lambda s: None, fast_kernel=True)
        assert not inst._capped
        inst.instrument(MetricsRegistry())
        assert inst._capped

    def test_flag_off_disables_fast_path(self, tiny_spec):
        sim = Simulation()
        inst = DecodeInstance(sim, tiny_spec, lambda s: None, fast_kernel=False)
        assert inst._capped

    def test_instrumented_counter_series_pinned(self, tiny_spec, trace):
        for fast in (True, False):
            got = _counter_series(tiny_spec, trace, fast)
            assert _digest(got) == PINNED["counter_series"]


# ----------------------------------------------------------------------
# Goodput verdicts are unchanged.
# ----------------------------------------------------------------------
class TestGoodputParity:
    def test_simu_decode_verdict_identical(self, tiny_spec):
        from repro.core.simulate import simu_decode
        from repro.workload.slos import SLO

        dataset = fixed_length_dataset(256, 24)
        slo = SLO(ttft=0.5, tpot=0.08)
        fast = simu_decode(
            tiny_spec, dataset, slo, num_requests=60, fast_kernel=True
        )
        slow = simu_decode(
            tiny_spec, dataset, slo, num_requests=60, fast_kernel=False
        )
        assert fast.goodput == slow.goodput
        assert fast.attainment_at_goodput == slow.attainment_at_goodput
        assert fast.trials == slow.trials
