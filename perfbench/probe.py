"""Set-up probe, started by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/probe.py <workload> <seed> <t0>``, where
``t0`` is the parent's ``time.monotonic()`` taken just before it started
this interpreter. Prints the seconds from ``t0`` until the workload is
ready for its first simulated event: interpreter start, ``import
repro``, the model, cluster and dataset, and the replay trace. The
time is adjusted to the reference host speed (see ``hostclock``); the
unadjusted time follows it on the same line.
"""

import sys
from pathlib import Path


def main() -> None:
    name, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    from hostclock import HostClock

    with HostClock(start=t0) as clock:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import workloads

        workloads.make_workload(name, seed)
    print(repr(clock.adjusted_s), repr(clock.raw_s))


if __name__ == "__main__":
    main()
