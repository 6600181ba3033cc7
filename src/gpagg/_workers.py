"""Fixed shares of independent work on worker threads.

The shared fit's per-partition lml terms, NPAE's per-expert and pair
phases and GRBCM's augmented experts are lists of items that write
disjoint slots. ``in_shares`` splits such a list into fixed shares by
position, so every item runs the same operands and calls whatever the
number of workers, and the results do not depend on it; the caller sums
or stacks the slots in item order. A call starts threads only when its
work, counted in multiply-adds, reaches ``PARALLEL_WORK``
(``workers_for``).
"""

from __future__ import annotations

import os
import threading

# Work (multiply-adds) below which a call runs on the caller's thread
# alone and starts no thread. On 2 cores with one BLAS thread, two
# workers ran an NPAE block 0.97x as fast as one at 16 M (no gain),
# 1.11x at 30 M, 1.21x at 51 M and 1.52x at 140 M, and about 0.88x at
# 8-16 M whenever the second core was busy elsewhere.
PARALLEL_WORK = 25_000_000


def worker_count() -> int:
    """CPUs the process may run on: its affinity mask, so ``taskset``
    limits it, or the machine's count where there is no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers_for(work: int) -> int:
    """``worker_count()`` for a call of ``work`` multiply-adds that
    reaches ``PARALLEL_WORK``, else 1."""
    return worker_count() if work >= PARALLEL_WORK else 1


def in_shares(work, items: list, workers: int) -> None:
    """Call ``work`` on every item, share s taking items[s::workers]:
    share 0 on the caller's thread, every other share on a thread of its
    own, all joined before this returns.

    An item that raises ends its share. The error raised here is that of
    the earliest failing item in ``items`` order, so it does not depend
    on the number of workers or on which share failed first in time; an
    interrupt or exit (a ``BaseException`` that is not an ``Exception``)
    is raised in preference to any error.
    """
    workers = max(1, min(workers, len(items)))
    failures = []  # (position in items, exception), at most one per share

    def run(share):
        for i in range(share, len(items), workers):
            try:
                work(items[i])
            except BaseException as exc:
                failures.append((i, exc))
                return

    threads = [threading.Thread(target=run, args=(s,)) for s in range(1, workers)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    if failures:
        raise min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]
