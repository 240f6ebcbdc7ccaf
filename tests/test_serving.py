"""Tests for serving systems: colocated, disaggregated, phase-only, dispatch."""

import numpy as np
import pytest

from repro.hardware import ETHERNET_25G, NVLINK
from repro.latency import ParallelismConfig
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.scheduling import Dispatcher
from repro.simulator import InstanceSpec, Simulation
from repro.workload import Request, Trace, fixed_length_dataset, generate_trace


@pytest.fixture
def small_trace(rng):
    return generate_trace(fixed_length_dataset(128, 8), rate=5.0, num_requests=40, rng=rng)


class TestDispatcher:
    def test_least_loaded(self):
        class Inst:
            def __init__(self, load):
                self.load = load

        d = Dispatcher("least_loaded", load_fn=lambda inst: inst.load)
        instances = [Inst(3), Inst(1), Inst(2)]
        assert d.choose(instances) is instances[1]

    def test_round_robin_cycles(self):
        d = Dispatcher("round_robin", load_fn=lambda inst: 0)
        items = ["a", "b", "c"]
        assert [d.choose(items) for _ in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_random_needs_rng(self):
        with pytest.raises(ValueError):
            Dispatcher("random", load_fn=lambda inst: 0)
        d = Dispatcher("random", load_fn=lambda inst: 0, rng=np.random.default_rng(0))
        assert d.choose(["x", "y"]) in ("x", "y")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            Dispatcher("sticky", load_fn=lambda inst: 0)

    def test_empty_instances(self):
        d = Dispatcher("least_loaded", load_fn=lambda inst: 0)
        with pytest.raises(ValueError):
            d.choose([])


class TestColocatedSystem:
    def test_completes_all(self, tiny_spec, small_trace):
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec)
        res = simulate_trace(system, small_trace)
        assert res.completed == len(small_trace)
        assert res.unfinished == 0
        assert res.num_gpus == 1

    def test_replicas_reduce_latency(self, tiny_spec, rng):
        trace = generate_trace(fixed_length_dataset(512, 16), rate=8.0, num_requests=80, rng=rng)
        p90 = {}
        for n in (1, 4):
            sim = Simulation()
            system = ColocatedSystem(sim, tiny_spec, num_replicas=n)
            res = simulate_trace(system, trace)
            p90[n] = float(np.percentile([r.ttft for r in res.records], 90))
        assert p90[4] < p90[1]

    def test_num_gpus_counts_parallelism(self, tiny_model, small_trace):
        spec = InstanceSpec(model=tiny_model, config=ParallelismConfig(2, 1))
        sim = Simulation()
        system = ColocatedSystem(sim, spec, num_replicas=3)
        assert system.num_gpus() == 6


class TestDisaggregatedSystem:
    def _build(self, spec, sim, **kw):
        return DisaggregatedSystem(
            sim, spec, spec, num_prefill=1, num_decode=1, transfer_link=NVLINK, **kw
        )

    def test_completes_all(self, tiny_spec, small_trace):
        sim = Simulation()
        res = simulate_trace(self._build(tiny_spec, sim), small_trace)
        assert res.completed == len(small_trace)
        assert res.unfinished == 0

    def test_lifecycle_stages_populated(self, tiny_spec, small_trace):
        sim = Simulation()
        res = simulate_trace(self._build(tiny_spec, sim), small_trace)
        rec = res.records[0]
        assert rec.prefill_exec_time > 0
        assert rec.transfer_time > 0
        assert rec.decode_exec_time > 0

    def test_transfer_records_per_request(self, tiny_spec, small_trace):
        sim = Simulation()
        res = simulate_trace(self._build(tiny_spec, sim), small_trace)
        assert len(res.transfer_records) == len(small_trace)

    def test_slow_link_shows_in_transfer_time(self, tiny_spec, small_trace):
        times = {}
        for name, link in (("fast", NVLINK), ("slow", ETHERNET_25G)):
            sim = Simulation()
            system = DisaggregatedSystem(
                sim, tiny_spec, tiny_spec, transfer_link=link
            )
            res = simulate_trace(system, small_trace)
            times[name] = np.mean([r.transfer_time for r in res.records])
        assert times["slow"] > 10 * times["fast"]

    def test_pull_and_push_modes_both_complete(self, tiny_spec, small_trace):
        for mode in ("pull", "push"):
            sim = Simulation()
            system = DisaggregatedSystem(
                sim, tiny_spec, tiny_spec, transfer_mode=mode
            )
            res = simulate_trace(system, small_trace)
            assert res.unfinished == 0, mode

    def test_mismatched_models_rejected(self, tiny_spec, opt13b):
        other = InstanceSpec(model=opt13b)
        with pytest.raises(ValueError):
            DisaggregatedSystem(Simulation(), tiny_spec, other)

    def test_heterogeneous_parallelism(self, tiny_model, small_trace):
        # Appendix B style: prefill tp=2, decode tp=1.
        pre = InstanceSpec(model=tiny_model, config=ParallelismConfig(2, 1))
        dec = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, 1))
        sim = Simulation()
        system = DisaggregatedSystem(sim, pre, dec, num_prefill=1, num_decode=2)
        res = simulate_trace(system, small_trace)
        assert res.unfinished == 0
        assert system.num_gpus() == 2 + 2

    def test_single_token_requests_skip_decode(self, tiny_spec, rng):
        # output_len == 1: prefill produces everything; no migration.
        trace = generate_trace(
            fixed_length_dataset(64, 1), rate=5.0, num_requests=10, rng=rng
        )
        sim = Simulation()
        res = simulate_trace(self._build(tiny_spec, sim), trace)
        assert res.completed == 10
        assert len(res.transfer_records) == 0
        assert all(r.tpot == 0.0 for r in res.records)

    def test_ttft_excludes_transfer_and_decode(self, tiny_spec, small_trace):
        sim = Simulation()
        res = simulate_trace(self._build(tiny_spec, sim), small_trace)
        for rec in res.records:
            assert rec.ttft == pytest.approx(
                rec.prefill_queue_time + rec.prefill_exec_time, abs=1e-9
            )


class TestPhaseOnly:
    def test_prefill_only_tpot_zero(self, tiny_spec, small_trace):
        sim = Simulation()
        res = simulate_trace(PrefillOnlySystem(sim, tiny_spec), small_trace)
        assert res.completed == len(small_trace)
        assert all(r.tpot == 0.0 for r in res.records)
        assert all(r.ttft > 0 for r in res.records)

    def test_decode_only_ttft_zero(self, tiny_spec, small_trace):
        sim = Simulation()
        res = simulate_trace(DecodeOnlySystem(sim, tiny_spec), small_trace)
        assert res.completed == len(small_trace)
        assert all(r.ttft == pytest.approx(0.0, abs=1e-9) for r in res.records)
        assert all(r.tpot > 0 for r in res.records)

    def test_decode_only_single_token_requests(self, tiny_spec, rng):
        trace = generate_trace(fixed_length_dataset(64, 1), rate=5.0, num_requests=5, rng=rng)
        sim = Simulation()
        res = simulate_trace(DecodeOnlySystem(sim, tiny_spec), trace)
        assert res.completed == 5


class TestSimulateTrace:
    def test_arrivals_respect_trace_times(self, tiny_spec):
        trace = Trace(requests=[Request(0, 2.0, 64, 2)])
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec)
        res = simulate_trace(system, trace)
        assert res.records[0].arrival_time == 2.0
        # The request cannot start before it arrives.
        assert res.records[0].finish_time > 2.0

    def test_max_time_cutoff(self, tiny_spec, small_trace):
        sim = Simulation()
        system = ColocatedSystem(sim, tiny_spec)
        res = simulate_trace(system, small_trace, max_sim_time=0.3)
        # Only requests that arrived before the cutoff count as submitted;
        # the rest of the trace is simply not seen.
        assert res.sim_time == 0.3
        assert res.completed + res.unfinished == system.submitted
        assert res.completed < len(small_trace)
