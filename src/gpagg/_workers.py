"""Fixed shares of independent work on worker threads, how many, and the
one BLAS setting of every package call.

The shared fit's per-partition lml terms, the experts that
``collect_predictions`` runs for the PoE family and EMGGM, NPAE's
per-expert and pair phases and GRBCM's augmented experts are lists of
independent items.
``in_shares`` splits such a list into fixed shares by position, so every
item runs the same operands and calls whatever the number of workers,
and returns the items' results in item order for the caller to sum or
stack. A call starts threads only when its work, counted in
multiply-adds, reaches ``PARALLEL_WORK`` (``workers_for``). Every public
entry point that computes runs both OpenBLAS pools on one thread
(``one_blas_thread``), so the workers alone take the cores.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Sequence

from ._linalg import set_pool_threads

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


class _OneBlasThread(contextlib.ContextDecorator):
    """Every OpenBLAS pool on one thread for the length of a call. The
    settings are process-wide: while any call is in, on any thread, they
    stay at one; the last out restores those from before the first."""

    lock, depth, caller = threading.Lock(), 0, []

    def __enter__(self):
        with self.lock:
            if self.depth == 0:
                self.caller = set_pool_threads([1, 1])
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                set_pool_threads(self.caller)


one_blas_thread = _OneBlasThread()


def in_shares(fn, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, share s taking items[s::workers]:
    share 0 on the caller's thread, every other share on a thread of its
    own, all joined before this returns.

    An item that raises ends its share. The error raised here is that of
    the earliest failing item in ``items`` order, so it does not depend
    on the number of workers or on which share failed first in time; an
    interrupt or exit (a ``BaseException`` that is not an ``Exception``)
    is raised in preference to any error.
    """
    workers = max(1, min(workers, len(items)))
    results = [None] * len(items)
    failures = []  # (position in items, exception), at most one per share

    def run(share):
        for i in range(share, len(items), workers):
            try:
                results[i] = fn(items[i])
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
    return results
