"""Profiler hook tests: event collection, pending intervals, and purity.

The profiler must be a *pure observer*: wiring it into a serving system
may never change scheduling decisions, request records, or the span
timeline. These tests pin that property alongside the unit semantics of
the three event streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    ColocatedSystem,
    DisaggregatedSystem,
    simulate_trace,
)
from repro.simulator import (
    Profiler,
    Simulation,
    SloMonitor,
    Tracer,
    to_jsonl,
)
from repro.workload import SLO, generate_trace, get_dataset


def _run(system_cls, spec, profiler=None, tracer=None, **kwargs):
    sim = Simulation()
    if system_cls is DisaggregatedSystem:
        system = DisaggregatedSystem(
            sim, spec, spec, num_prefill=1, num_decode=1,
            tracer=tracer, profiler=profiler, **kwargs,
        )
    else:
        system = ColocatedSystem(
            sim, spec, num_replicas=1, tracer=tracer, profiler=profiler,
            **kwargs,
        )
    trace = generate_trace(
        get_dataset("humaneval"), rate=4.0, num_requests=10,
        rng=np.random.default_rng(7),
    )
    return simulate_trace(system, trace)


class TestProfilerUnit:
    def test_record_exec_appends_plain_tuples(self):
        prof = Profiler()
        prof.on_batch("prefill-0", "prefill", 1.0, 2.0, 3, 512)
        prof.on_batch("decode-0", "decode", 2.0, 2.5, 4, 4)
        assert prof.exec_events == [
            ("prefill-0", "prefill", 1.0, 2.0, 3, 512),
            ("decode-0", "decode", 2.0, 2.5, 4, 4),
        ]
        assert len(prof) == 2

    def test_record_transfer(self):
        prof = Profiler()
        prof.on_transfer_wire(42, 1.0, 1.25, 1.5)
        assert prof.transfer_events == [(42, 1.0, 1.25, 1.5)]

    def test_pending_open_close(self):
        prof = Profiler()
        prof.begin_pending("decode-0", 1.0)
        prof.begin_pending("decode-0", 2.0)  # idempotent while open
        prof.end_pending("decode-0", 3.0)
        assert prof.pending_events == [("decode-0", 1.0, 3.0)]

    def test_pending_zero_length_dropped(self):
        prof = Profiler()
        prof.begin_pending("decode-0", 1.0)
        prof.end_pending("decode-0", 1.0)
        assert prof.pending_events == []

    def test_end_without_begin_is_noop(self):
        prof = Profiler()
        prof.end_pending("decode-0", 5.0)
        assert prof.pending_events == []

    def test_note_pending_reconciles(self):
        prof = Profiler()
        prof.on_blocked("decode-0", True, 1.0)
        prof.on_blocked("decode-0", True, 2.0)   # still blocked: no-op
        prof.on_blocked("decode-0", False, 3.0)
        prof.on_blocked("decode-0", False, 4.0)  # already closed: no-op
        assert prof.pending_events == [("decode-0", 1.0, 3.0)]

    def test_finish_closes_open_intervals_sorted(self):
        prof = Profiler()
        prof.begin_pending("decode-1", 2.0)
        prof.begin_pending("decode-0", 1.0)
        prof.on_finish(5.0)
        assert prof.pending_events == [
            ("decode-0", 1.0, 5.0),
            ("decode-1", 2.0, 5.0),
        ]
        # Idempotent: a second finish appends nothing.
        prof.on_finish(9.0)
        assert len(prof.pending_events) == 2

    def test_instances_sorted_union(self):
        prof = Profiler()
        prof.on_batch("b", "decode", 0.0, 1.0, 1, 1)
        prof.begin_pending("a", 0.0)
        prof.on_finish(1.0)
        assert prof.instances() == ["a", "b"]


class TestObserverCapping:
    def test_only_step_observers_cap_decode_runs(self, tiny_spec):
        """No subscriber: runs stay uncapped and nothing is recorded. A
        tracer alone or a profiler alone caps runs at one step (more
        events, identical records); a monitor alone does not."""
        def run(tracer=None, profiler=None, monitor=False):
            sim = Simulation()
            system = DisaggregatedSystem(
                sim, tiny_spec, tiny_spec, tracer=tracer, profiler=profiler
            )
            if monitor:
                system.attach_monitor(SloMonitor(sim, SLO(ttft=1.0, tpot=0.1)))
            trace = generate_trace(
                get_dataset("humaneval"), rate=4.0, num_requests=10,
                rng=np.random.default_rng(7),
            )
            capped = [inst._capped for inst in system.decode_instances]
            return system, simulate_trace(system, trace), capped

        bare_system, bare, bare_capped = run()
        assert bare_system.observer.subscribers == []
        assert bare_capped == [False]
        assert bare.spans == []
        tracer, profiler = Tracer(), Profiler()
        _, traced, traced_capped = run(tracer=tracer)
        _, profiled, profiled_capped = run(profiler=profiler)
        _, monitored, monitored_capped = run(monitor=True)
        assert traced_capped == profiled_capped == [True]
        assert monitored_capped == [False]
        assert len(tracer.spans) > 0 and len(profiler.exec_events) > 0
        assert traced.events_processed == profiled.events_processed
        assert traced.events_processed > bare.events_processed
        assert monitored.events_processed == bare.events_processed
        for result in (traced, profiled, monitored):
            assert result.records == bare.records


class TestProfilerWiring:
    def test_disaggregated_collects_all_streams(self, tiny_spec):
        prof = Profiler()
        result = _run(DisaggregatedSystem, tiny_spec, profiler=prof)
        assert result.unfinished == 0
        phases = {e[1] for e in prof.exec_events}
        assert phases == {"prefill", "decode"}
        assert len(prof.transfer_events) == len(result.records)
        for _, submitted, start, end in prof.transfer_events:
            assert submitted <= start <= end
        for _, _, start, end, batch, tokens in prof.exec_events:
            assert end >= start
            assert batch >= 1
            assert tokens >= 0

    def test_colocated_collects_exec_events(self, tiny_spec):
        prof = Profiler()
        result = _run(ColocatedSystem, tiny_spec, profiler=prof)
        assert result.unfinished == 0
        assert len(prof.exec_events) > 0
        assert {e[1] for e in prof.exec_events} <= {"prefill", "decode", "mixed"}
        # No transfer engine in colocated mode.
        assert prof.transfer_events == []

    def test_pending_intervals_bounded_by_sim_time(self, tiny_spec):
        prof = Profiler()
        result = _run(DisaggregatedSystem, tiny_spec, profiler=prof)
        for _, start, end in prof.pending_events:
            assert 0.0 <= start < end <= result.sim_time
        assert not prof._open_pending, "simulate_trace must finish() the profiler"

    @pytest.mark.parametrize("system_cls", [DisaggregatedSystem, ColocatedSystem])
    def test_profiler_is_a_pure_observer(self, tiny_spec, system_cls):
        """Same seed with and without a profiler → identical outcomes."""
        tracer_off, tracer_on = Tracer(), Tracer()
        bare = _run(system_cls, tiny_spec, profiler=None, tracer=tracer_off)
        profiled = _run(system_cls, tiny_spec, profiler=Profiler(), tracer=tracer_on)
        assert to_jsonl(tracer_off.spans) == to_jsonl(tracer_on.spans)
        assert [(r.request_id, r.arrival_time, r.finish_time)
                for r in bare.records] == \
               [(r.request_id, r.arrival_time, r.finish_time)
                for r in profiled.records]
        assert bare.sim_time == profiled.sim_time

    def test_deterministic_event_streams(self, tiny_spec):
        a, b = Profiler(), Profiler()
        _run(DisaggregatedSystem, tiny_spec, profiler=a)
        _run(DisaggregatedSystem, tiny_spec, profiler=b)
        assert a.exec_events == b.exec_events
        assert a.transfer_events == b.transfer_events
        assert a.pending_events == b.pending_events
