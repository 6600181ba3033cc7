"""Fixed shares of independent work on worker threads.

NPAE's per-expert and pair phases and GRBCM's augmented experts are
lists of items that write disjoint slots. ``in_shares`` splits such a
list into fixed shares by position, so every item runs the same
operands and calls whatever the number of workers, and the results do
not depend on it. A call starts threads only when its work, counted in
multiply-adds, reaches ``PARALLEL_WORK`` (``workers_for``).
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
    own, all joined before this returns. A share's exception is raised
    again here."""
    workers = max(1, min(workers, len(items)))
    errors = []

    def run(share):
        try:
            for item in share:
                work(item)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(items[s::workers],)) for s in range(1, workers)]
    for t in threads:
        t.start()
    try:
        for item in items[::workers]:
            work(item)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
