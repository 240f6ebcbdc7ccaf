"""Tests of the benchmark's own helpers and a tiny run of every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

import catalogue
import run
import workloads
from repro.hardware import Cluster, Node
from repro.simulator import RequestRecord
from repro.workload import SLO
from spans import SpanRecorder
from stats import Span, failed_share, self_time_by_name, self_times, tail_percentile

ROOT = Path(__file__).resolve().parents[2]

TINY = workloads.Size(
    replay_requests=60,
    parity_requests=20,
    plan_cluster=lambda: Cluster(nodes=[Node(index=0, num_gpus=2)]),
)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9),  # 10 samples beyond p99.9
    (9_999, 99.0),
    (1_000, 99.0),
    (999, 95.0),
    (155, 90.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
    (5, 50.0),  # too few for any percentile: fall back to the median
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_self_time_with_back_to_back_and_nested_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 3.0, 6.0, 0, None),  # starts where a ends
        Span(3, "a.inner", 1.5, 2.5, 1, None),  # nested under a
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 1.0, 2: 3.0, 3: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)  # self times tile the root


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "root", 0.0, 4.0, None, None),
        Span(1, "x", 0.5, 2.0, 0, None),
        Span(2, "x", 1.5, 3.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(1.5)
    assert self_time_by_name(spans) == pytest.approx({"root": 1.5, "x": 3.0})


def test_span_recorder_links_parents_and_trials():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("search"):
        for _ in range(2):
            with rec.span("trial", new_trial=True):
                with rec.span("simulate"):
                    pass
    by_id = {s.id: s for s in rec.spans}
    trials = rec.named("trial")
    assert [t.trial for t in trials] == [0, 1]
    for sim in rec.named("simulate"):
        parent = by_id[sim.parent]
        assert parent.name == "trial" and sim.trial == parent.trial
    assert rec.named("search")[0].trial is None
    assert sum(self_times(rec.spans).values()) == rec.named("search")[0].duration


def _record(rid, ttft, tpot):
    return RequestRecord(
        request_id=rid, arrival_time=0.0, input_len=8, output_len=4,
        ttft=ttft, tpot=tpot, finish_time=ttft + 3 * tpot,
        prefill_queue_time=0.0, prefill_exec_time=ttft, transfer_time=0.0,
        decode_queue_time=0.0, decode_exec_time=3 * tpot,
    )


def test_failed_share_counts_unfinished_and_rejected():
    # 10 offered: 7 completed, 2 still unfinished, 1 rejected.
    assert failed_share(10, 7) == pytest.approx(0.3)
    assert failed_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_share(5, 6)
    records = [_record(i, 0.1, 0.05) for i in range(7)]
    sim = workloads.simulated_metrics(records, 10, SLO(ttft=0.2, tpot=0.1))
    assert sim["failed_share"] == pytest.approx(0.3)
    # Missing requests also count as SLO misses.
    assert sim["slo_attainment"] == pytest.approx(0.7)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalogue.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == [m.name for m in catalogue.END_TO_END]
    for m in catalogue.END_TO_END:
        assert (e2e[m.name]["unit"], e2e[m.name]["better"]) == (m.unit, m.better)
        assert e2e[m.name]["bound"] == catalogue.BOUNDS[m.name]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == [(m.name, m.unit, m.better) for m in catalogue.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size=TINY) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    for m in expected:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert isinstance(result["metrics"][m.name]["value"], (int, float))
    for m in expected + catalogue.SIMULATED:
        assert any(line.split()[:1] == [m.name] and line.endswith(m.unit) for line in out)
