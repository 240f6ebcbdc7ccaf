"""Benchmark of the DistServe reproduction: placement search and trace replay.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload's unit (one placement search, or one
replay of the seeded trace) until ``--seconds`` have passed and reports
the host metrics of ``catalogue.END_TO_END``: the median unit time, the
median set-up time of fresh interpreters, and peak RSS. ``--trace 1``
runs the unit once more with spans around the public calls of each
layer and cProfile over the engine, and reports ``catalogue.PER_LAYER``.
Both modes check the outputs outside the timed region, print every
metric with its unit, the output digests and the host facts, and end
with one JSON line. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from catalogue import END_TO_END, PER_LAYER, SIMULATED, UNITS, WORKLOADS
from stats import (
    percentile,
    self_time_by_name,
    self_times,
    tail_percentile,
    total_by_name,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters whose set-up time is measured per run (median kept).
SETUP_PROBES = 5
#: Where the traced run writes its spans, relative to the repository root.
SPANS_DIR = ROOT / ".perfbench"


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_facts(seed: int) -> "dict[str, object]":
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[len("ref: "):]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def probe_setup(name: str, seed: int) -> "tuple[list[float], list[float]]":
    """Adjusted and raw set-up seconds of ``SETUP_PROBES`` fresh interpreters."""
    adjusted, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), repr(t0)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        adj, unadjusted = out.stdout.strip().splitlines()[-1].split()
        adjusted.append(float(adj))
        raw.append(float(unadjusted))
    return adjusted, raw


def timed_units(wl, seconds: float, sample: bool):
    """Run units until ``seconds`` pass (at least one), keeping only what checks need."""
    import checks

    kept, digests, times, raws, sims = [], [], [], [], []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while True:
        gc.collect()
        unit = wl.unit(sample)
        times.append(unit.wall_s)
        raws.append(unit.raw_s)
        sims.append(unit.simulate_s)
        attempted += unit.attempted
        failed += unit.failed
        if unit.result is not None:
            digests.append(checks.records_digest(unit.result.records))
            kept = [unit]
        else:
            kept.append(unit)
        if time.monotonic() >= deadline:
            return kept, digests, times, raws, sims, attempted, failed


def output_checks(wl, kept, digests) -> "tuple[list[str], dict[str, str]]":
    import checks

    if wl.name == "plan":
        return checks.check_plan(wl, kept), {
            "placement_sha256": checks.placement_digest(kept[-1].placement)
        }
    return checks.check_replay(wl, kept, digests), {"records_sha256": digests[-1]}


def run_untraced(name: str, seed: int, seconds: float, size):
    import workloads

    setup, setup_raw = probe_setup(name, seed)
    wl = workloads.make_workload(name, seed, size)
    kept, digests, times, raws, _, attempted, failed = timed_units(wl, seconds, True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors, digest = output_checks(wl, kept, digests)
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(times),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(wl.simulated(kept[-1]))
    tail = tail_percentile(len(times))
    notes = [
        f"wall_s: {len(times)} units, median {median(times):.6g} s, "
        f"p{tail:g} {percentile(times, tail):.6g} s; unadjusted median "
        f"{median(raws):.6g} s",
        f"setup_s: {len(setup)} interpreters, median {median(setup):.6g} s, "
        f"max {max(setup):.6g} s; unadjusted median {median(setup_raw):.6g} s",
    ]
    return metrics, [m.name for m in END_TO_END], errors, digest, attempted, failed, notes


def run_traced(name: str, seed: int, seconds: float, size):
    import checks
    import workloads
    from spans import ProfileSummary, SpanRecorder

    wl = workloads.make_workload(name, seed, size)
    # Traced metrics are unbounded, so this pass times without sampling.
    kept, digests, times, _, sims, attempted, failed = timed_units(wl, seconds / 2, False)
    untraced_wall = median(times)
    untraced_sim = median(sims)
    bare_sim = 0.0
    if name == "replay-observed":
        gc.collect()
        bare_sim = wl.unit(False, observed=False).simulate_s

    counters = workloads.EngineCounters(wl.model.max_seq_len)
    rec = SpanRecorder()
    prof = cProfile.Profile()
    gc.collect()
    t0 = time.perf_counter()
    prof.enable()
    try:
        traced = wl.traced_unit(rec, counters)
    finally:
        prof.disable()
    traced_pass_s = time.perf_counter() - t0
    rec.write_jsonl(SPANS_DIR / f"{name}-seed{seed}-spans.jsonl")
    prof_summary = ProfileSummary(pstats.Stats(prof))

    # The traced unit must reproduce the untraced outputs exactly.
    if traced.result is None:
        kept.append(traced)
    else:
        digests.append(checks.records_digest(traced.result.records))
    errors, digest = output_checks(wl, kept, digests)
    metrics = layer_metrics(
        wl, traced, rec, counters, prof_summary, traced_pass_s,
        untraced_wall, untraced_sim, bare_sim,
    )
    span_self = sum(self_times(rec.spans).values())
    notes = [
        f"traced pass {traced_pass_s:.6g} s: span self times sum to "
        f"{span_self:.6g} s ({span_self / traced_pass_s:.1%}); cProfile saw "
        f"{metrics['trace.profile_coverage']:.1%} of the pass",
        "cProfile layer shares of the traced pass, s: " + ", ".join(
            f"{layer}={prof_summary.self_s(layer, traced_pass_s):.4g}"
            for layer in sorted(prof_summary.layer_tottime)
        ),
    ]
    return (metrics, [m.name for m in PER_LAYER], errors, digest,
            attempted + traced.attempted, failed + traced.failed, notes)


def layer_metrics(wl, traced, rec, counters, prof_summary, traced_pass_s,
                  untraced_wall, untraced_sim, bare_sim) -> "dict[str, float]":
    m: "dict[str, float]" = dict(wl.simulated(traced))
    m.update(counters.metrics())
    total = total_by_name(rec.spans)
    own = self_time_by_name(rec.spans)
    st = traced.stats
    trials = [s.duration for s in rec.named("run_attainment_trial")]
    searches = len(rec.named("max_goodput"))
    tail = tail_percentile(len(trials)) if trials else 0.0

    m["workload.generate_s"] = total.get("generate_trace", 0.0)
    m["search.configs_evaluated"] = st.configs_evaluated if st else 0
    m["search.configs_pruned"] = st.configs_pruned if st else 0
    m["search.trials"] = st.simulation_trials if st else 0
    m["search.cache_hit_rate"] = st.cache_hit_rate if st else 0.0
    m["search.trials_aborted"] = st.trials_aborted if st else 0
    m["search.trials_truncated"] = st.trials_truncated if st else 0
    m["search.fingerprint_s"] = total.get("fingerprint", 0.0)
    m["search.self_s"] = (
        own.get("place_low_affinity", 0.0)
        + total.get("TrialCache.snapshot", 0.0)
        + total.get("TrialCache.merge", 0.0)
    )
    m["goodput.searches"] = searches
    m["goodput.probes_per_search"] = st.simulation_trials / searches if searches else 0.0
    m["goodput.trial_s"] = sum(trials)
    m["goodput.trial_p50_ms"] = percentile(trials, 50.0) * 1e3
    m["goodput.trial_tail_ms"] = percentile(trials, tail) * 1e3
    m["goodput.trial_tail_pct"] = tail
    m["goodput.requests_simulated"] = counters.expected if st else 0
    m["goodput.aborted_share"] = (
        st.trials_aborted / st.cache_misses if st and st.cache_misses else 0.0
    )
    m["serving.simulate_s"] = total.get("simulate_trace", 0.0)
    # Host time per event comes from the untraced units; the search does
    # not split its time, so it takes the traced simulate share.
    if st:
        untraced_sim = untraced_wall * m["serving.simulate_s"] / traced.wall_s
    events = m["events.processed"]
    m["events.host_us_per_event"] = untraced_sim / events * 1e6 if events else 0.0
    for layer in ("request", "decode", "prefill", "colocated", "kv",
                  "latency", "scheduling", "obs"):
        m[f"{layer}.self_s"] = prof_summary.self_s(layer, traced_pass_s)
    m["request.record_tokens_calls"] = prof_summary.calls("request", "record_tokens")
    m["request.to_record_calls"] = prof_summary.calls("request", "to_record")
    m["kv.append_calls"] = prof_summary.calls("kv", "append")
    m["latency.calls"] = prof_summary.layer_calls.get("latency", 0)
    m["analysis.slo_s"] = total.get("slo_attainment", 0.0)
    m["critpath.build_s"] = total.get("build_profile", 0.0)
    tracer = getattr(traced.system, "tracer", None)
    profiler = getattr(traced.system, "profiler", None)
    m["obs.spans"] = len(tracer.spans) if tracer is not None else 0
    m["obs.exec_events"] = len(profiler.exec_events) if profiler is not None else 0
    m["obs.overhead_x"] = untraced_sim / bare_sim if bare_sim else 0.0
    m["trace.overhead_x"] = traced.wall_s / untraced_wall
    m["trace.profile_coverage"] = prof_summary.total_tottime / traced_pass_s
    return m


def main(argv: "list[str] | None" = None, size=None) -> int:
    """Run one workload and print its report; ``size`` shrinks inputs in tests."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run = run_traced if args.trace else run_untraced
    metrics, reported, errors, digest, attempted, failed, notes = run(
        args.workload, args.seed, args.seconds, size or workloads.Size()
    )
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# host " + json.dumps(host_facts(args.seed)))
    for note in notes:
        print("# " + note)
    for key, value in digest.items():
        print(f"# {key} {value}")
    shown = list(reported) + [m.name for m in SIMULATED if m.name not in reported]
    for name in shown:
        print(f"{name:32s} {metrics[name]!r:>24} {UNITS[name]}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]} for name in reported
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
