"""Host time adjusted for the speed the shared host ran at.

The benchmark runs on shared machines whose CPUs switch, for seconds or
minutes at a time, between states about 1.5x apart in speed, for
reasons outside the container. A median over one run cannot remove a
state that lasts the whole run, so host times would differ by more than
any useful bound between two runs of the same code.

``HostClock`` times a region and, every ``INTERVAL_S`` while the region
runs, times a fixed pure-Python reference loop (heap, dict, list and
attribute work like the simulator's event loop) from a ``SIGALRM``
handler. The loop belongs to the benchmark, so no change to the program
can change it. The region's time, less the loop's own time, is scaled
by the mean of ``REFERENCE_S / loop time`` over the samples: the result
is what the region would have taken on a host running the loop in
``REFERENCE_S``. ``raw_s`` keeps the unadjusted time.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, Optional

#: Reference-loop time of the host the benchmark was tuned on (an Intel
#: Xeon in its faster state), seconds.
REFERENCE_S = 0.00075
INTERVAL_S = 0.1

_ITEMS = [((i * 7919) % 1009 * 0.001, i) for i in range(256)]
_TABLE: "dict[int, int]" = {}


class _Cell:
    __slots__ = ("x", "n")

    def __init__(self) -> None:
        self.x = 0.0
        self.n = 0


_CELLS = [_Cell() for _ in range(64)]


def reference_loop(rounds: int = 6) -> float:
    """Fixed interpreter work that allocates no tracked objects (so it cannot trigger GC)."""
    heap: "list[tuple[float, int]]" = []
    acc = 0.0
    for _ in range(rounds):
        for item in _ITEMS:
            heapq.heappush(heap, item)
        while heap:
            t, i = heapq.heappop(heap)
            cell = _CELLS[i & 63]
            cell.x += t * 1.0001
            cell.n += 1
            _TABLE[i & 127] = i
            acc += cell.x
    return acc


class HostClock:
    """Times a region, sampling host speed while it runs (see module doc).

    ``start`` lets a region begin before this object exists, e.g. at the
    moment a parent process started this interpreter (``time.monotonic``).
    """

    def __init__(self, sample: bool = True, start: Optional[float] = None) -> None:
        self.sample = sample
        self.start = start
        self.end = 0.0
        self.samples: "list[float]" = []
        self.spent = 0.0
        self._previous: Any = None

    def _tick(self, *_: Any) -> None:
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "HostClock":
        if self.start is None:
            self.start = time.monotonic()
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._tick()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end = time.monotonic()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    @property
    def raw_s(self) -> float:
        """Elapsed time less the reference loop's own time."""
        return self.end - self.start - self.spent

    @property
    def adjusted_s(self) -> float:
        if not self.samples:
            return self.raw_s
        speed = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        return self.raw_s * speed
