"""Pluggable scheduling layer: queue, batch-shaping, and dispatch.

DistServe §4.3 hard-codes one scheduling recipe — FCFS admission, L_m
token-budget batch shaping, least-loaded dispatch. This package makes
each axis a policy interface so ablations land in one place instead of
touching every engine:

* :class:`QueuePolicy` — admission order (``fcfs``, ``sjf``, ``edf``)
* :class:`BatchPolicy` — batch formation (``token_budget``, ``chunked``)
* :class:`DispatchPolicy` — cross-instance routing (``least_loaded``,
  ``round_robin``, ``random``, ``power_of_two``), wrapped for the
  serving layer by :class:`Dispatcher`

A single frozen :class:`SchedulingConfig` names the triple plus its
knobs and threads through the simulator engines, serving modes, and the
placement search (where non-default configs enter trial fingerprints).
The default triple is bitwise-identical to the pre-refactor behavior.
"""

from .batch import (
    BatchPolicy,
    ChunkedBatch,
    PrefillChunk,
    TokenBudgetBatch,
    make_batch_policy,
)
from .config import (
    BATCH_POLICIES,
    DEFAULT_SCHEDULING,
    DISPATCH_POLICIES,
    QUEUE_POLICIES,
    SchedulingConfig,
)
from .dispatch import (
    Dispatcher,
    DispatchPolicy,
    LeastLoadedDispatch,
    PowerOfTwoDispatch,
    RandomDispatch,
    RoundRobinDispatch,
    make_dispatch_policy,
)
from .queue import EDFQueue, FCFSQueue, QueuePolicy, SJFQueue, make_queue_policy

__all__ = [
    "SchedulingConfig",
    "DEFAULT_SCHEDULING",
    "QUEUE_POLICIES",
    "BATCH_POLICIES",
    "DISPATCH_POLICIES",
    "QueuePolicy",
    "FCFSQueue",
    "SJFQueue",
    "EDFQueue",
    "make_queue_policy",
    "BatchPolicy",
    "TokenBudgetBatch",
    "ChunkedBatch",
    "PrefillChunk",
    "make_batch_policy",
    "Dispatcher",
    "DispatchPolicy",
    "LeastLoadedDispatch",
    "RoundRobinDispatch",
    "RandomDispatch",
    "PowerOfTwoDispatch",
    "make_dispatch_policy",
]
