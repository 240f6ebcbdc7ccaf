"""Dispatch policies for routing requests across instances.

§4.3: requests are "dispatched to the prefill instance with the shortest
queue ... followed by dispatch to the least loaded decoding instance".
The policy implementations live in :mod:`repro.scheduling.dispatch`;
this module keeps the serving-layer :class:`Dispatcher` wrapper that
adds the routing counter and metrics export.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from ..scheduling.config import DISPATCH_POLICIES
from ..scheduling.dispatch import DispatchPolicy, make_dispatch_policy
from ..simulator.metrics import MetricsRegistry

__all__ = ["Dispatcher", "DISPATCH_POLICIES"]

T = TypeVar("T")


class Dispatcher:
    """Chooses a target instance for each incoming request.

    Args:
        policy: One of :data:`DISPATCH_POLICIES`.
        load_fn: Maps an instance to its current load (used by
            ``least_loaded`` and ``power_of_two``; ties break by
            instance order / first draw).
        rng: Required for the ``random`` and ``power_of_two`` policies.
    """

    def __init__(
        self,
        policy: str,
        load_fn: "Callable[[T], float]",
        rng: "np.random.Generator | None" = None,
    ) -> None:
        self._impl: "DispatchPolicy" = make_dispatch_policy(
            policy, load_fn=load_fn, rng=rng
        )
        self.policy = policy
        #: Routing decisions made (instrumentation). Only decisions that
        #: actually routed a request count: the empty-pool ValueError is
        #: raised before the counter moves.
        self.dispatches = 0

    def instrument(self, registry: MetricsRegistry, pool: str) -> None:
        """Export the routing-decision counter for this pool."""
        registry.counter(
            "repro_dispatch_total", "Routing decisions, by pool and policy",
            labels={"pool": pool, "policy": self.policy},
            fn=lambda: self.dispatches,
        )

    def choose(self, instances: "Sequence[T]") -> T:
        """Pick the target instance for one request."""
        if not instances:
            raise ValueError("no instances to dispatch to")
        self.dispatches += 1
        return self._impl.select(instances)

