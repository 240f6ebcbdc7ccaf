"""Colocated serving system: N replicas of a vLLM-like engine.

The baseline of §6. Each replica colocates prefill and decoding on the
same GPUs; arrivals are dispatched across replicas (least-loaded by
default). ``policy`` selects the iteration scheduler — see
:mod:`repro.simulator.colocated_instance`.
"""

from __future__ import annotations

import numpy as np

from .base import ServingSystem
from ..scheduling import Dispatcher, SchedulingConfig
from ..simulator.colocated_instance import ColocatedInstance
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..simulator.metrics import MetricsRegistry
from ..simulator.profiler import Profiler
from ..simulator.request import RequestState
from ..simulator.tracing import Tracer
from ..workload.trace import Request

__all__ = ["ColocatedSystem"]


class ColocatedSystem(ServingSystem):
    """One or more colocated replicas behind a dispatcher.

    Args:
        sim: Shared simulation loop.
        spec: Per-replica resources and parallelism.
        num_replicas: Model replicas (rate capacity scales linearly, §2.2).
        policy: Iteration scheduling policy of each replica.
        max_prefill_tokens: Per-iteration prefill token budget.
        chunk_size: Chunk budget for the ``"chunked"`` policy.
        rng: Needed only for random dispatch.
        tracer: Optional lifecycle tracer, subscribed to the system's
            observer bus.
        profiler: Optional critical-path profiler, subscribed to the
            bus.
        fast_kernel: Accepted for signature parity with
            :class:`DisaggregatedSystem`; colocated replicas have one
            engine path, so it has no effect.
        scheduling: Full policy configuration (:mod:`repro.scheduling`)
            shared by every replica; its ``dispatch_policy`` routes
            arrivals across replicas.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        num_replicas: int = 1,
        policy: str = "prefill_priority",
        max_prefill_tokens: int = 2048,
        chunk_size: int = 512,
        rng: "np.random.Generator | None" = None,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        super().__init__(sim, tracer=tracer, profiler=profiler, scheduling=scheduling)
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        self.spec = spec
        self.instances = [
            ColocatedInstance(
                sim,
                spec,
                on_request_done=self._complete,
                policy=policy,
                max_prefill_tokens=max_prefill_tokens,
                chunk_size=chunk_size,
                name=f"colocated-{i}",
                observer=self.observer,
                scheduling=scheduling,
            )
            for i in range(num_replicas)
        ]
        self._dispatcher = Dispatcher(
            (scheduling or SchedulingConfig()).dispatch_policy,
            load_fn=lambda inst: inst.load, rng=rng,
        )
        #: Replicas killed via fault injection.
        self.failures = 0

    def submit(self, request: Request) -> None:
        state = self._register(request)
        self._dispatcher.choose(self.instances).submit(state)

    def fail_replica(self, name: str) -> int:
        """Kill a replica; re-route its requests to the survivors.

        Victims whose prefill started (or that were decoding) lost
        their KV and re-run prefill over their full current context on
        the replica they land on.

        Returns:
            The number of requests re-routed.
        """
        victim = None
        for inst in self.instances:
            if inst.name == name:
                victim = inst
                break
        if victim is None:
            known = ", ".join(i.name for i in self.instances)
            raise KeyError(f"no replica {name!r}; known: {known}")
        if len(self.instances) <= 1:
            raise RuntimeError("cannot fail the last replica")
        lost = victim.fail()
        self.instances.remove(victim)
        self.failures += 1
        for state in lost:
            self._dispatcher.choose(self.instances).submit(state)
        return len(lost)

    def num_gpus(self) -> int:
        return self.spec.num_gpus * len(self.instances)

    def _instrument_components(self, registry: MetricsRegistry) -> None:
        for inst in self.instances:
            inst.instrument(registry)
        self._dispatcher.instrument(registry, pool="replica")
