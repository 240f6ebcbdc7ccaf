"""Tests for the core layer: goodput search, placement algorithms, replan."""

import numpy as np
import pytest

from repro.core import (
    DriftThresholds,
    GoodputResult,
    PhasePlan,
    Placement,
    PlacementSearchStats,
    ReplanController,
    WorkloadProfiler,
    build_system,
    candidate_configs,
    get_intra_node_configs,
    max_goodput,
    place_high_affinity,
    place_low_affinity,
    run_attainment_trial,
    simu_decode,
    simu_prefill,
)
from repro.hardware import Cluster, Node, paper_testbed
from repro.latency import ParallelismConfig
from repro.serving import ColocatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Simulation
from repro.workload import SLO, Request, Trace, fixed_length_dataset, generate_trace


@pytest.fixture
def fast_dataset():
    return fixed_length_dataset(512, 32)


@pytest.fixture
def loose_slo():
    return SLO(ttft=0.5, tpot=0.2)


def colocated_factory(spec):
    def factory(sim):
        return ColocatedSystem(sim, spec)

    return factory


class TestGoodputSearch:
    def test_attainment_decreases_with_rate(self, tiny_spec, fast_dataset, loose_slo):
        low = run_attainment_trial(
            colocated_factory(tiny_spec), fast_dataset, 1.0, loose_slo, num_requests=80
        ).attainment
        high = run_attainment_trial(
            colocated_factory(tiny_spec), fast_dataset, 400.0, loose_slo, num_requests=80
        ).attainment
        assert low > high

    def test_max_goodput_is_sustainable(self, tiny_spec, fast_dataset, loose_slo):
        result = max_goodput(
            colocated_factory(tiny_spec),
            fast_dataset,
            loose_slo,
            num_requests=80,
        )
        assert result.goodput > 0
        assert result.attainment_at_goodput >= 0.9
        # Just above goodput, attainment should drop below target within
        # the search's own trace.
        above = run_attainment_trial(
            colocated_factory(tiny_spec), fast_dataset, result.goodput * 2.5,
            loose_slo, num_requests=80,
        ).attainment
        assert above < 0.9

    def test_impossible_slo_returns_zero(self, tiny_spec, fast_dataset):
        impossible = SLO(ttft=1e-6, tpot=1e-6)
        result = max_goodput(
            colocated_factory(tiny_spec), fast_dataset, impossible, num_requests=30
        )
        assert result.goodput == 0.0

    def test_invalid_target(self, tiny_spec, fast_dataset, loose_slo):
        with pytest.raises(ValueError):
            max_goodput(
                colocated_factory(tiny_spec), fast_dataset, loose_slo,
                attainment_target=1.5,
            )


class TestPhaseSimulation:
    def test_simu_prefill_ignores_tpot(self, tiny_spec, fast_dataset):
        # TPOT bound of 1 ns must not affect a prefill-only search.
        strict_tpot = SLO(ttft=0.5, tpot=1e-9)
        result = simu_prefill(tiny_spec, fast_dataset, strict_tpot, num_requests=60)
        assert result.goodput > 0

    def test_simu_decode_ignores_ttft(self, tiny_spec, fast_dataset):
        strict_ttft = SLO(ttft=1e-9, tpot=0.2)
        result = simu_decode(tiny_spec, fast_dataset, strict_ttft, num_requests=60)
        assert result.goodput > 0

    def test_candidate_configs_validity(self):
        configs = candidate_configs(model_heads=40, model_layers=40, max_tp=8, max_gpus=16)
        assert ParallelismConfig(1, 1) in configs
        assert ParallelismConfig(2, 8) in configs
        assert all(40 % c.tp == 0 for c in configs)
        assert all(c.num_gpus <= 16 for c in configs)
        assert ParallelismConfig(3, 1) not in configs  # 3 does not divide 40


class TestPlacementTypes:
    def test_placement_arithmetic(self):
        p = Placement(
            prefill=PhasePlan(ParallelismConfig(2, 1), 3, 4.0),
            decode=PhasePlan(ParallelismConfig(1, 1), 2, 7.0),
        )
        assert p.num_gpus == 8
        assert p.system_goodput == pytest.approx(12.0)  # min(12, 14)
        assert p.per_gpu_goodput == pytest.approx(1.5)
        assert "tp=2" in p.describe()

    def test_invalid_phase_plan(self):
        with pytest.raises(ValueError):
            PhasePlan(ParallelismConfig(1, 1), 0, 1.0)


class TestIntraNodeConfigs:
    def test_respects_node_size(self, opt13b):
        from repro.hardware import A100_80GB

        configs = get_intra_node_configs(
            opt13b, inter_op=1, gpus_per_node=8, gpu_memory_bytes=A100_80GB.memory_bytes
        )
        assert configs
        assert all(c.gpus_per_node <= 8 for c in configs)

    def test_memory_gate(self, opt66b):
        from repro.hardware import A100_80GB

        configs = get_intra_node_configs(
            opt66b, inter_op=1, gpus_per_node=8, gpu_memory_bytes=A100_80GB.memory_bytes
        )
        # 66B needs >= 2 GPUs per full copy at inter_op=1.
        assert all(c.prefill_tp >= 2 and c.decode_tp >= 2 for c in configs)


class TestPlacementSearch:
    @pytest.fixture
    def small_cluster(self, tiny_model):
        return Cluster(nodes=[Node(index=i, num_gpus=4) for i in range(2)])

    def test_high_affinity_search(self, tiny_model, small_cluster, fast_dataset, loose_slo):
        stats = PlacementSearchStats()
        plm = place_high_affinity(
            tiny_model, small_cluster, fast_dataset, loose_slo,
            traffic_rate=5.0, num_requests=60, stats=stats,
        )
        assert plm.system_goodput >= 5.0 or plm.prefill.num_instances >= 1
        assert stats.configs_evaluated > 0
        assert not plm.kv_transfer_intra_node

    def test_low_affinity_search(self, tiny_model, small_cluster, fast_dataset, loose_slo):
        plm = place_low_affinity(
            tiny_model, small_cluster, fast_dataset, loose_slo,
            traffic_rate=5.0, num_requests=60, joint_sim_candidates=2,
        )
        assert plm.kv_transfer_intra_node
        # Stage colocation: both phases share the inter-op degree.
        assert plm.prefill.config.pp == plm.decode.config.pp
        # The unit must fit in one node per stage.
        assert plm.prefill.config.tp + plm.decode.config.tp <= small_cluster.gpus_per_node

    def test_replication_meets_traffic(self, tiny_model, small_cluster, fast_dataset, loose_slo):
        plm = place_high_affinity(
            tiny_model, small_cluster, fast_dataset, loose_slo,
            traffic_rate=40.0, num_requests=60,
        )
        assert plm.prefill.total_goodput >= 40.0 * 0.95
        assert plm.decode.total_goodput >= 40.0 * 0.95

    def test_build_system_runs(self, tiny_model, small_cluster, fast_dataset, loose_slo, rng):
        plm = place_low_affinity(
            tiny_model, small_cluster, fast_dataset, loose_slo,
            traffic_rate=5.0, num_requests=60, joint_sim_candidates=1,
        )
        sim = Simulation()
        system = build_system(sim, tiny_model, plm, small_cluster)
        trace = generate_trace(fast_dataset, rate=3.0, num_requests=40, rng=rng)
        res = simulate_trace(system, trace)
        assert res.unfinished == 0

    def test_invalid_traffic_rate(self, tiny_model, small_cluster, fast_dataset, loose_slo):
        with pytest.raises(ValueError):
            place_high_affinity(
                tiny_model, small_cluster, fast_dataset, loose_slo, traffic_rate=0.0
            )


class TestReplan:
    def _trace(self, rate, input_len, n=200):
        gaps = np.full(n, 1.0 / rate)
        times = np.cumsum(gaps)
        return [
            Request(request_id=i, arrival_time=float(times[i]), input_len=input_len, output_len=8)
            for i in range(n)
        ]

    def test_profiler_window(self):
        prof = WorkloadProfiler(window_size=50)
        for r in self._trace(2.0, 100, n=80):
            prof.observe(r)
        assert len(prof) == 50
        assert prof.stats().mean_input_len == 100

    def test_no_drift_no_replan(self):
        prof = WorkloadProfiler(window_size=200)
        calls = []
        ctrl = ReplanController(prof, planner=lambda ds, rate: calls.append(1))
        base = Trace(requests=self._trace(2.0, 100))
        ctrl.initialize(placement=None, planned_stats=base.stats())
        for r in self._trace(2.0, 100):
            prof.observe(r)
        assert not ctrl.drift_detected()
        assert ctrl.maybe_replan() is None
        assert not calls

    def test_rate_drift_triggers_replan(self):
        prof = WorkloadProfiler(window_size=200)
        new_placements = []

        def planner(dataset, rate):
            new_placements.append(rate)
            return Placement(
                prefill=PhasePlan(ParallelismConfig(1, 1), 1, rate),
                decode=PhasePlan(ParallelismConfig(1, 1), 1, rate),
            )

        ctrl = ReplanController(prof, planner=planner)
        base = Trace(requests=self._trace(2.0, 100))
        ctrl.initialize(placement=None, planned_stats=base.stats())
        for r in self._trace(6.0, 100):  # 3x the planned rate
            prof.observe(r)
        assert ctrl.drift_detected()
        placement = ctrl.maybe_replan()
        assert placement is not None
        assert ctrl.replans == 1
        assert new_placements[0] == pytest.approx(6.0, rel=0.1)

    def test_length_drift_triggers(self):
        prof = WorkloadProfiler(window_size=200)
        ctrl = ReplanController(
            prof,
            planner=lambda ds, rate: Placement(
                prefill=PhasePlan(ParallelismConfig(1, 1), 1, rate),
                decode=PhasePlan(ParallelismConfig(1, 1), 1, rate),
            ),
        )
        base = Trace(requests=self._trace(2.0, 100))
        ctrl.initialize(placement=None, planned_stats=base.stats())
        for r in self._trace(2.0, 400):  # 4x longer prompts
            prof.observe(r)
        assert ctrl.drift_detected()

    def test_min_window_guard(self):
        prof = WorkloadProfiler(window_size=200)
        ctrl = ReplanController(prof, planner=lambda ds, rate: None, min_window=100)
        base = Trace(requests=self._trace(2.0, 100))
        ctrl.initialize(placement=None, planned_stats=base.stats())
        for r in self._trace(20.0, 100, n=50):
            prof.observe(r)
        assert not ctrl.drift_detected()

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DriftThresholds(rate_ratio=1.0)


class TestMinSLOScale:
    def test_tighter_is_harder(self, tiny_spec, fast_dataset):
        from repro.core import min_slo_scale

        base = SLO(ttft=0.5, tpot=0.2)
        scale, trials = min_slo_scale(
            colocated_factory(tiny_spec), fast_dataset, base,
            rate=5.0, num_requests=60,
        )
        assert trials >= 2
        assert 0.05 <= scale <= 4.0
        # Just below the found scale the system must fail.
        if scale > 0.06:
            att = run_attainment_trial(
                colocated_factory(tiny_spec), fast_dataset, 5.0,
                base.scaled(scale * 0.7), num_requests=60,
            ).attainment
            assert att < 0.9

    def test_impossible_slo_inf(self, tiny_spec, fast_dataset):
        from repro.core import min_slo_scale

        base = SLO(ttft=1e-7, tpot=1e-7)
        scale, _ = min_slo_scale(
            colocated_factory(tiny_spec), fast_dataset, base,
            rate=5.0, num_requests=30, scale_hi=2.0,
        )
        assert scale == float("inf")

    def test_invalid_inputs(self, tiny_spec, fast_dataset):
        from repro.core import min_slo_scale

        with pytest.raises(ValueError):
            min_slo_scale(
                colocated_factory(tiny_spec), fast_dataset, SLO(1, 1), rate=0.0
            )
