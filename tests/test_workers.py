"""Fixed shares of work on worker threads: every item runs once, the
results come back in item order, and the error raised is that of the
earliest failing item, whatever the number of workers and whichever
share fails first in time."""

import ast
import sys
import threading
from pathlib import Path

import pytest

from gpagg._workers import in_shares


@pytest.mark.parametrize("higher", [2, 3], ids=["on another worker", "on the caller"])
@pytest.mark.parametrize("workers", [1, 3])
def test_earliest_failing_item_is_raised(workers, higher):
    # with 3 workers item 1 runs on a worker's share and item ``higher``
    # on another share; that one fails first in time, then item 1
    higher_failed = threading.Event()

    def work(item):
        if item == higher:
            higher_failed.set()
            raise KeyError(f"item {higher}")
        if item == 1:
            if workers > 1:
                assert higher_failed.wait(timeout=30)
            raise ValueError("item 1")

    with pytest.raises(ValueError, match="item 1"):
        in_shares(work, list(range(6)), workers)
    assert higher_failed.is_set() == (workers > 1)


def test_an_interrupt_is_raised_before_an_earlier_error():
    def work(item):
        if item == 0:
            raise ValueError("item 0")
        if item == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        in_shares(work, [0, 1], 2)


def test_every_item_runs_once_under_fast_switching():
    # more workers than cores and a short switch interval: each item
    # writes its own slot, the earliest failure wins, the results keep
    # item order, every thread is joined
    items = list(range(200))
    slots = [0] * len(items)
    before = threading.active_count()

    def work(item, fail=True):
        slots[item] += 1
        if fail and item % 50 == 49:
            raise RuntimeError(f"item {item}")
        return -item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4, 7):
            slots[:] = [0] * len(items)
            with pytest.raises(RuntimeError, match="^item 49$"):
                in_shares(work, items, workers)
            assert max(slots) == 1
            assert all(slots[: 50])
            assert threading.active_count() == before
            slots[:] = [0] * len(items)
            assert in_shares(lambda item: work(item, fail=False), items, workers) == [-item for item in items]
            assert slots == [1] * len(items)
    finally:
        sys.setswitchinterval(interval)


SRC = Path(__file__).resolve().parents[1] / "src" / "gpagg"
THREAD_MODULES = ("threading", "_thread", "concurrent.futures")


def _thread_imports(tree: ast.AST) -> list[str]:
    """Imports of a module that starts threads: threading, _thread or
    concurrent.futures, in any form."""

    def flagged(module):
        return any(module == m or module.startswith(m + ".") for m in THREAD_MODULES)

    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if flagged(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {a.name for a in node.names}
            if flagged(node.module) or (node.module == "concurrent" and "futures" in names):
                uses.append(f"from {node.module} import {', '.join(sorted(names))}")
    return uses


def test_only_the_workers_module_imports_threading():
    """Every thread of the package starts in _workers."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_workers.py":
            continue
        uses = _thread_imports(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            offenders[path.name] = uses
    assert not offenders


def test_thread_rule_flags_each_form():
    for snippet in (
        "import threading",
        "from threading import Thread",
        "import _thread",
        "from concurrent.futures import ThreadPoolExecutor",
        "import concurrent.futures",
        "from concurrent import futures",
    ):
        assert _thread_imports(ast.parse(snippet)), snippet
    for snippet in ("from ._workers import blas_workers_for, in_shares", "import os"):
        assert not _thread_imports(ast.parse(snippet)), snippet


def _blas_thread_uses(tree: ast.AST) -> list[int]:
    """Lines that call ``blas_threads`` (by name or as an attribute) or
    import it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "blas_threads") or (
                isinstance(func, ast.Attribute) and func.attr == "blas_threads"
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "blas_threads" for a in node.names):
            lines.append(node.lineno)
    return lines


def test_only_the_workers_module_reads_blas_threads():
    """The rule that divides the workers by BLAS's threads lives in
    _workers (``blas_workers_for``); _linalg only defines the reader."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_workers.py":
            continue
        lines = _blas_thread_uses(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            offenders[path.name] = lines
    assert not offenders


def test_blas_thread_rule_flags_each_form():
    for snippet in (
        "workers = workers_for(work) // blas_threads()",
        "workers = _linalg.blas_threads()",
        "from ._linalg import blas_threads, cho_solve",
        "from gpagg._linalg import blas_threads as threads",
    ):
        assert _blas_thread_uses(ast.parse(snippet)), snippet
    for snippet in (
        "from ._workers import blas_workers_for, in_shares",
        "def blas_threads():\n    return 1",
        "monkeypatch.setattr(_workers, 'blas_threads', lambda: 1)",
    ):
        assert not _blas_thread_uses(ast.parse(snippet)), snippet
