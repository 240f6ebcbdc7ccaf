"""Fast-forward kernel benchmark: speedup + bitwise parity (BENCH_kernel.json).

Measures multi-step decode runs (DESIGN.md §4h) against the per-step
reference — the same engine with every run capped at one step
(``fast_kernel=False``) — on three workloads:

* ``decode_heavy`` — a decode-only trial with long generations, the
  workload multi-step runs exist for. Acceptance floor: **3x**.
* ``decode_saturated`` — a 4000-request ShareGPT decode-only trial at
  rate 200, past the decode knee where rate bisection spends its probes:
  every arrival cuts a run short, so runs are about one step long and
  the gain comes from lazy token accounting, not from long runs.
* ``fig12_sweep`` — the Figure 12 placement-search sweep (quick sizes),
  runs uncapped vs. capped with otherwise identical settings. The search
  interleaves prefill/decode/joint trials with enumeration and pruning
  overhead, so the floor is lower: **1.5x**.

Every timed scenario also replays its workload on both paths and
asserts *bitwise* record parity (and placement equality for the sweep)
— the speedup numbers are only meaningful if the kernel is exact, so
the report carries ``record_parity``/``placement_parity`` booleans that
``check_search_trajectory.py`` gates on in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import place_high_affinity
from repro.hardware import Cluster, Node
from repro.models import get_model
from repro.serving import DecodeOnlySystem, DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Simulation
from repro.latency import ParallelismConfig
from repro.workload import SLO, get_dataset
from repro.workload.datasets import SyntheticDataset, generate_trace
from repro.workload.distributions import LognormalLength

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Long-generation workload: decode dominates, macro runs get long.
DECODE_HEAVY = SyntheticDataset(
    name="decode-heavy",
    input_dist=LognormalLength(median=256.0, sigma=0.5, low=64, high=1024),
    output_dist=LognormalLength(median=384.0, sigma=0.4, low=128, high=1024),
)

#: Mixed workload for the disaggregated parity replay.
MIXED = SyntheticDataset(
    name="mixed",
    input_dist=LognormalLength(median=192.0, sigma=0.6, low=32, high=768),
    output_dist=LognormalLength(median=48.0, sigma=0.7, low=8, high=256),
)

SWEEP_SLO = SLO(ttft=0.2, tpot=0.1)


def _records(result):
    return sorted(
        (r.request_id, r.ttft, r.tpot, r.finish_time) for r in result.records
    )


def _time_paths(make_system, trace, rounds):
    """Min-of-K wall time of (build system + run trace) on each path.

    ``make_system(sim, fast_kernel)`` builds the system. Capped and
    uncapped rounds alternate, so drifting host load hits both sides
    alike instead of only the later one. Returns ``(slow_s, fast_s,
    parity)``, where parity is bitwise equality of the two paths'
    records.
    """
    best = [float("inf"), float("inf")]
    records = [None, None]
    for _ in range(rounds):
        for fast in (False, True):
            sim = Simulation()
            t0 = time.perf_counter()
            result = simulate_trace(make_system(sim, fast), trace)
            best[fast] = min(best[fast], time.perf_counter() - t0)
            records[fast] = _records(result)
    return best[False], best[True], records[False] == records[True]


def _bench_decode_only(scenario, dataset, rate, num_requests, rounds):
    """Decode-only opt-13b trial, fast vs slow; returns (row, parity)."""
    model = get_model("opt-13b")
    spec = InstanceSpec(model=model, config=ParallelismConfig(1, 1))
    trace = generate_trace(
        dataset, rate=rate, num_requests=num_requests,
        rng=np.random.default_rng(0),
    )
    slow_s, fast_s, parity = _time_paths(
        lambda sim, fast: DecodeOnlySystem(sim, spec, fast_kernel=fast),
        trace, rounds,
    )
    row = {
        "scenario": scenario,
        "num_requests": num_requests,
        "rate": rate,
        "slow_s": round(slow_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup_vs_baseline": round(slow_s / fast_s, 2),
    }
    return row, parity


def bench_decode_heavy(num_requests, rounds):
    return _bench_decode_only(
        "decode_heavy", DECODE_HEAVY, 6.0, num_requests, rounds
    )


def bench_decode_saturated(rounds):
    return _bench_decode_only(
        "decode_saturated", get_dataset("sharegpt"), 200.0, 4000, rounds
    )


def bench_disaggregated_parity(num_requests, rounds):
    """Disaggregated mixed workload: timed, but mainly a parity witness."""
    model = get_model("opt-13b")
    spec = InstanceSpec(model=model, config=ParallelismConfig(1, 1))
    trace = generate_trace(
        MIXED, rate=10.0, num_requests=num_requests,
        rng=np.random.default_rng(1),
    )
    slow_s, fast_s, parity = _time_paths(
        lambda sim, fast: DisaggregatedSystem(
            sim, spec, spec, num_prefill=1, num_decode=2, fast_kernel=fast
        ),
        trace, rounds,
    )
    row = {
        "scenario": "disaggregated_mixed",
        "num_requests": num_requests,
        "slow_s": round(slow_s, 4),
        "fast_s": round(fast_s, 4),
        # Deliberately not `speedup_vs_baseline`: this scenario is a
        # parity witness (prefill/transfer interleavings keep macro runs
        # short), and its small ratio is too noisy for the CI trajectory
        # guard to gate on.
        "speedup": round(slow_s / fast_s, 2),
    }
    return row, parity


def bench_fig12_sweep(num_requests):
    """Quick Figure 12 placement sweep, fast kernel on vs off.

    Caching/pruning/early-abort stay at their defaults on *both* sides —
    the only variable is the kernel — and the returned placements must
    be identical.
    """
    model = get_model("opt-13b")
    dataset = get_dataset("sharegpt")
    sizes = [(1, 2), (1, 4)]
    times = {}
    placements = {}
    for fast in (False, True):
        total = 0.0
        results = []
        for num_nodes, gpn in sizes:
            cluster = Cluster(
                nodes=[Node(index=i, num_gpus=gpn) for i in range(num_nodes)]
            )
            t0 = time.perf_counter()
            try:
                placement = place_high_affinity(
                    model, cluster, dataset, SWEEP_SLO,
                    traffic_rate=None, num_requests=num_requests,
                    trial_cache=False, fast_kernel=fast,
                )
            except RuntimeError:
                placement = None
            total += time.perf_counter() - t0
            results.append(placement)
        times[fast] = total
        placements[fast] = results
    row = {
        "scenario": "fig12_sweep",
        "num_requests": num_requests,
        "cluster_sizes": [f"{n}x{g}" for n, g in sizes],
        "slow_s": round(times[False], 3),
        "fast_s": round(times[True], 3),
        "speedup_vs_baseline": round(times[False] / times[True], 2),
    }
    return row, placements[True] == placements[False]


def run_kernel_bench(num_requests=200, sweep_requests=60, rounds=3):
    heavy_row, heavy_parity = bench_decode_heavy(num_requests, rounds)
    saturated_row, saturated_parity = bench_decode_saturated(rounds)
    mixed_row, mixed_parity = bench_disaggregated_parity(num_requests, rounds)
    sweep_row, placement_parity = bench_fig12_sweep(sweep_requests)
    return {
        "description": "multi-step decode runs vs decode runs capped at one "
                       "step (the per-step reference)",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "runs": [heavy_row, saturated_row, mixed_row, sweep_row],
        "record_parity": bool(
            heavy_parity and saturated_parity and mixed_parity
        ),
        "placement_parity": bool(placement_parity),
    }


def test_kernel_speedup(benchmark):
    # Full-size trial traces (short startup/drain phases dilute the
    # ratio); only the placement sweep is shortened for CI budget.
    report = benchmark.pedantic(
        lambda: run_kernel_bench(num_requests=200, sweep_requests=40, rounds=3),
        rounds=1, iterations=1,
    )
    print()
    print(json.dumps(report, indent=2))
    # Exactness first: the speedup is meaningless if results changed.
    assert report["record_parity"]
    assert report["placement_parity"]
    runs = {run["scenario"]: run for run in report["runs"]}
    assert runs["decode_heavy"]["speedup_vs_baseline"] >= 3.0
    assert runs["fig12_sweep"]["speedup_vs_baseline"] >= 1.5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--requests", type=int, default=200,
        help="trace length for the trial scenarios (default: 200)",
    )
    parser.add_argument(
        "--sweep-requests", type=int, default=60,
        help="trace length per placement-search trial (default: 60)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="timing repetitions per scenario, min taken (default: 3)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    report = run_kernel_bench(
        num_requests=args.requests, sweep_requests=args.sweep_requests,
        rounds=args.rounds,
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for run in report["runs"]:
        ratio = run.get("speedup_vs_baseline", run.get("speedup"))
        print(
            f"{run['scenario']}: slow {run['slow_s']}s, fast {run['fast_s']}s "
            f"-> {ratio}x"
        )
    print(f"record parity: {report['record_parity']}, "
          f"placement parity: {report['placement_parity']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
