"""Cross-instance dispatch (routing) policies.

§4.3: requests are "dispatched to the prefill instance with the
shortest queue ... followed by dispatch to the least loaded decoding
instance" — :class:`LeastLoadedDispatch`, the default. Round-robin and
random serve the dispatch-policy ablation; power-of-two-choices samples
two instances and routes to the less loaded one, the classic
balls-into-bins result that collapses tail queue depth versus random
at the cost of one extra load probe. :class:`Dispatcher` wraps one
policy for the serving layer, adding the routing counter and its
metrics export.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from .config import DISPATCH_POLICIES

if TYPE_CHECKING:  # pragma: no cover - repro.simulator imports this package
    from ..simulator.metrics import MetricsRegistry

__all__ = [
    "Dispatcher",
    "DispatchPolicy",
    "LeastLoadedDispatch",
    "RoundRobinDispatch",
    "RandomDispatch",
    "PowerOfTwoDispatch",
    "make_dispatch_policy",
]

T = TypeVar("T")


class DispatchPolicy:
    """Chooses a target instance for one request."""

    name = ""

    def select(self, instances: "Sequence[T]") -> T:
        """Pick one instance from a non-empty pool."""
        raise NotImplementedError


class LeastLoadedDispatch(DispatchPolicy):
    """Route to the minimum-load instance (ties break by pool order)."""

    name = "least_loaded"

    def __init__(self, load_fn: "Callable[[T], float]") -> None:
        self._load_fn = load_fn

    def select(self, instances: "Sequence[T]") -> T:
        return min(instances, key=self._load_fn)


class RoundRobinDispatch(DispatchPolicy):
    """Cycle through the pool; the modulo keeps the cursor valid even
    when the pool shrinks mid-run (instance failure)."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, instances: "Sequence[T]") -> T:
        chosen = instances[self._next % len(instances)]
        self._next += 1
        return chosen


class RandomDispatch(DispatchPolicy):
    """Uniform-random routing from the shared seeded generator."""

    name = "random"

    def __init__(self, rng: "np.random.Generator") -> None:
        self._rng = rng

    def select(self, instances: "Sequence[T]") -> T:
        idx = int(self._rng.integers(0, len(instances)))
        return instances[idx]


class PowerOfTwoDispatch(DispatchPolicy):
    """Power-of-two-choices: sample two, keep the less loaded.

    Draws two indices (always exactly two rng calls, so the stream
    stays aligned across runs regardless of load); ties — including the
    two draws landing on the same instance — keep the first draw, which
    makes the choice deterministic given the rng stream.
    """

    name = "power_of_two"

    def __init__(
        self, load_fn: "Callable[[T], float]", rng: "np.random.Generator"
    ) -> None:
        self._load_fn = load_fn
        self._rng = rng

    def select(self, instances: "Sequence[T]") -> T:
        n = len(instances)
        first = instances[int(self._rng.integers(0, n))]
        second = instances[int(self._rng.integers(0, n))]
        if self._load_fn(second) < self._load_fn(first):
            return second
        return first


def make_dispatch_policy(
    policy: str,
    load_fn: "Callable[[T], float]",
    rng: "np.random.Generator | None" = None,
) -> DispatchPolicy:
    """Build the named dispatch policy.

    Raises:
        ValueError: on an unknown policy name, or when ``random`` /
            ``power_of_two`` is requested without an rng.
    """
    if policy not in DISPATCH_POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {DISPATCH_POLICIES}"
        )
    if policy == "least_loaded":
        return LeastLoadedDispatch(load_fn)
    if policy == "round_robin":
        return RoundRobinDispatch()
    if rng is None:
        raise ValueError(f"{policy} dispatch requires an rng")
    if policy == "random":
        return RandomDispatch(rng)
    return PowerOfTwoDispatch(load_fn, rng)


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
        self._impl = make_dispatch_policy(policy, load_fn=load_fn, rng=rng)
        self.policy = policy
        #: Routing decisions made (instrumentation). Only decisions that
        #: actually routed a request count: the empty-pool ValueError is
        #: raised before the counter moves.
        self.dispatches = 0

    def instrument(self, registry: "MetricsRegistry", pool: str) -> None:
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
