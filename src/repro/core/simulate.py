"""Phase-level goodput estimation: ``simu_prefill`` and ``simu_decode``.

Algorithm 1 evaluates each candidate parallel configuration by
simulating the prefill phase and decoding phase *independently*
(``simu_prefill`` / ``simu_decode`` in the paper's pseudocode). A phase
passes its SLO alone — TTFT for prefill, TPOT for decoding — with an
effectively unconstrained partner metric.

:func:`phase_trial_setup` is the single source of truth for how a phase
simulation is posed (system factory, masked SLO, trial duration); the
search-acceleration layer (:mod:`repro.core.search`) uses it to build
cache keys and worker tasks that are guaranteed to agree with what
``simu_prefill``/``simu_decode`` would simulate in process.
"""

from __future__ import annotations

from functools import partial

from .goodput import GoodputResult, TrialRunner, max_goodput
from ..latency.parallel import ParallelismConfig
from ..scheduling.config import SchedulingConfig
from ..serving.phase_only import DecodeOnlySystem, PrefillOnlySystem
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..workload.datasets import SyntheticDataset
from ..workload.slos import SLO

__all__ = ["simu_prefill", "simu_decode", "phase_trial_setup", "PHASE_TRIAL_MIN_DURATION"]

#: A bound so loose it never binds — used to isolate one phase's SLO.
_UNBOUNDED = 1e9

#: Arrival span of each phase-level trial; longer than the joint default
#: so steady-state queueing is visible even for a lone fast phase.
PHASE_TRIAL_MIN_DURATION = 45.0


def _prefill_factory(
    spec: InstanceSpec,
    sim: Simulation,
    scheduling: "SchedulingConfig | None" = None,
) -> PrefillOnlySystem:
    return PrefillOnlySystem(sim, spec, scheduling=scheduling)


def _decode_factory(
    spec: InstanceSpec,
    sim: Simulation,
    fast_kernel: bool = True,
    scheduling: "SchedulingConfig | None" = None,
) -> DecodeOnlySystem:
    return DecodeOnlySystem(sim, spec, fast_kernel=fast_kernel, scheduling=scheduling)


def phase_trial_setup(
    kind: str,
    spec: InstanceSpec,
    slo: SLO,
    fast_kernel: bool = True,
    scheduling: "SchedulingConfig | None" = None,
):
    """The (system factory, masked SLO) pair of one phase-level trial.

    The factory is a picklable ``functools.partial`` over module-level
    functions, so it can cross a process boundary and be fingerprinted
    deterministically. The default (fast kernel on, default scheduling)
    binds no extra keyword, so fingerprints — and therefore on-disk
    caches — are unchanged from before the kernel and the scheduling
    layer existed; a *non-default* :class:`SchedulingConfig` is bound
    into the partial and thus enters the fingerprint, so the
    ``TrialCache`` never conflates trials run under different policies.

    Args:
        kind: ``"prefill"`` or ``"decode"``.
        spec: The candidate instance.
        slo: The full application SLO; the partner phase's bound is
            replaced by an unbounded value.
        fast_kernel: Disable to cap decode runs at one step (the
            ``--no-fast-kernel`` escape hatch); prefill has one path.
        scheduling: Policy configuration; ``None`` or the default triple
            keeps the historic factory shape.
    """
    kwargs = {}
    if scheduling is not None and not scheduling.is_default():
        kwargs["scheduling"] = scheduling
    if kind == "prefill":
        return (
            partial(_prefill_factory, spec, **kwargs),
            SLO(ttft=slo.ttft, tpot=_UNBOUNDED),
        )
    if kind == "decode":
        if not fast_kernel:
            kwargs["fast_kernel"] = False
        return (
            partial(_decode_factory, spec, **kwargs),
            SLO(ttft=_UNBOUNDED, tpot=slo.tpot),
        )
    raise ValueError(f"unknown phase kind {kind!r}; expected 'prefill' or 'decode'")


def simu_prefill(
    spec: InstanceSpec,
    dataset: SyntheticDataset,
    slo: SLO,
    attainment_target: float = 0.9,
    num_requests: int = 300,
    seed: int = 0,
    trial_runner: "TrialRunner | None" = None,
    early_abort: bool = True,
    scheduling: "SchedulingConfig | None" = None,
) -> GoodputResult:
    """Max rate one prefill instance sustains under the TTFT SLO alone."""
    factory, phase_slo = phase_trial_setup(
        "prefill", spec, slo, scheduling=scheduling
    )
    return max_goodput(
        factory,
        dataset,
        phase_slo,
        attainment_target=attainment_target,
        num_requests=num_requests,
        seed=seed,
        min_duration=PHASE_TRIAL_MIN_DURATION,
        trial_runner=trial_runner,
        early_abort=early_abort,
    )


def simu_decode(
    spec: InstanceSpec,
    dataset: SyntheticDataset,
    slo: SLO,
    attainment_target: float = 0.9,
    num_requests: int = 300,
    seed: int = 0,
    trial_runner: "TrialRunner | None" = None,
    early_abort: bool = True,
    fast_kernel: bool = True,
    scheduling: "SchedulingConfig | None" = None,
) -> GoodputResult:
    """Max rate one decode instance sustains under the TPOT SLO alone."""
    factory, phase_slo = phase_trial_setup(
        "decode", spec, slo, fast_kernel=fast_kernel, scheduling=scheduling
    )
    return max_goodput(
        factory,
        dataset,
        phase_slo,
        attainment_target=attainment_target,
        num_requests=num_requests,
        seed=seed,
        min_duration=PHASE_TRIAL_MIN_DURATION,
        trial_runner=trial_runner,
        early_abort=early_abort,
    )


def candidate_configs(
    model_heads: int,
    model_layers: int,
    max_tp: int,
    max_gpus: int,
) -> "list[ParallelismConfig]":
    """All (tp, pp) pairs valid for the model within the GPU budget.

    TP degrees must divide the head count; PP degrees cannot exceed the
    layer count. This is the enumeration loop of Algorithms 1 and 2.
    """
    configs = []
    for tp in range(1, max_tp + 1):
        if model_heads % tp != 0:
            continue
        max_pp = max_gpus // tp
        for pp in range(1, max_pp + 1):
            if pp > model_layers:
                break
            configs.append(ParallelismConfig(tp=tp, pp=pp))
    return configs
