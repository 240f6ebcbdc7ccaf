"""Output checks, run outside the timed region, and output digests.

A speed-only change must leave every simulated output bit-identical;
the SHA-256 digests printed by ``run.py`` let anyone compare two
commits at a glance.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

from repro.core import validate_placement
from repro.serving import simulate_trace
from repro.simulator import SanitizerError, SimSanitizer, Simulation
from repro.workload import Trace

#: Allowed gap between a record's five stage times and its end-to-end latency.
STAGE_SUM_TOLERANCE = 1e-9

def records_digest(records: Sequence[Any]) -> str:
    """SHA-256 over every record's ``repr`` (all fields, exact floats), by request id."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r.request_id):
        h.update(repr(rec).encode() + b"\n")
    return h.hexdigest()


def placement_digest(placement: Any) -> str:
    return hashlib.sha256(repr(placement).encode()).hexdigest()


def check_records(trace: Trace, result: Any, rejections: int) -> "list[str]":
    """Conservation, per-request lengths and stage reconciliation of one replay."""
    errors = []
    accounted = result.completed + result.unfinished + rejections
    if accounted != len(trace):
        errors.append(
            f"completed {result.completed} + unfinished {result.unfinished} + "
            f"rejected {rejections} != {len(trace)} trace requests"
        )
    by_id = {r.request_id: r for r in trace}
    seen = set()
    for rec in result.records:
        req = by_id.get(rec.request_id)
        if req is None or rec.request_id in seen:
            errors.append(f"record {rec.request_id} is unknown or duplicated")
            continue
        seen.add(rec.request_id)
        if (rec.input_len, rec.output_len, rec.arrival_time) != (
            req.input_len, req.output_len, req.arrival_time
        ):
            errors.append(f"record {rec.request_id} does not match its request")
        stages = (
            rec.prefill_queue_time + rec.prefill_exec_time + rec.transfer_time
            + rec.decode_queue_time + rec.decode_exec_time
        )
        if abs(stages - rec.end_to_end_latency) > STAGE_SUM_TOLERANCE:
            errors.append(
                f"record {rec.request_id}: stages sum to {stages!r}, "
                f"end-to-end is {rec.end_to_end_latency!r}"
            )
    return errors[:10]


def sanitizer_violations(workload: Any) -> "list[str]":
    """One replay of the workload's system under a strict SimSanitizer."""
    sanitizer = SimSanitizer(strict=True)
    system, _, _ = workload.build(sanitizer.simulation())
    sanitizer.watch_system(system)
    try:
        simulate_trace(system, workload.trace)
        sanitizer.check_quiesce()
    except SanitizerError as exc:
        return [f"SimSanitizer: {exc}"]
    return [f"SimSanitizer: {v.format()}" for v in sanitizer.violations]


def kernel_parity(workload: Any, num_requests: int) -> "list[str]":
    """A trace prefix gives equal records with and without the fast kernel."""
    prefix = Trace(requests=list(workload.trace.requests[:num_requests]))
    digests = []
    for fast in (True, False):
        system, _, _ = workload.build(Simulation(), fast_kernel=fast)
        digests.append(records_digest(simulate_trace(system, prefix).records))
    if digests[0] != digests[1]:
        return [f"fast_kernel=True and False differ on the first {len(prefix)} requests"]
    return []


def check_replay(workload: Any, units: Sequence[Any], digests: Sequence[str]) -> "list[str]":
    last = units[-1]
    errors = check_records(workload.trace, last.result, last.system.rejections)
    if len(set(digests)) != 1:
        errors.append(f"repeated replays of one trace gave {len(set(digests))} outputs")
    errors += sanitizer_violations(workload)
    errors += kernel_parity(workload, workload.size.parity_requests)
    return errors


def check_plan(workload: Any, units: Sequence[Any]) -> "list[str]":
    errors = []
    placements = {repr(u.placement) for u in units}
    if len(placements) != 1:
        errors.append(f"repeated searches chose {len(placements)} different placements")
    counters = {tuple(sorted(u.stats.comparable().items())) for u in units}
    if len(counters) != 1:
        errors.append("repeated searches disagree on search statistics")
    last = units[-1]
    st = last.stats
    if not last.placement.per_gpu_goodput > 0:
        errors.append("chosen placement has no goodput")
    if st.cache_hits + st.cache_misses != st.simulation_trials:
        errors.append("cache hits + misses != trials")
    if st.trials_aborted > st.cache_misses:
        errors.append("more trials aborted than simulated")
    report = validate_placement(last.placement, workload.model, workload.cluster)
    errors += [f"placement invalid: {e}" for e in report.errors]
    return errors
