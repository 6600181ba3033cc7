"""Fixed shares of work on worker threads: every item runs once, the
results come back in item order, and the error raised is that of the
earliest failing item, whatever the number of workers and whichever
share fails first in time. And the one BLAS setting they run under:
every computing entry point runs both OpenBLAS pools on one thread and
gives the caller's settings back."""

import ast
import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gpagg
from gpagg import _linalg, _workers
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
    for snippet in ("from ._workers import in_shares, workers_for", "import os"):
        assert not _thread_imports(ast.parse(snippet)), snippet


def _pool_setter_uses(tree: ast.AST) -> list[int]:
    """Lines that name an OpenBLAS thread-count function (any name,
    attribute, imported name or string holding ``num_threads``)."""
    lines = []
    for node in ast.walk(tree):
        named = (
            (isinstance(node, ast.Name) and node.id)
            or (isinstance(node, ast.Attribute) and node.attr)
            or (isinstance(node, ast.alias) and node.name)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value)
        )
        if named and "num_threads" in named:
            lines.append(node.lineno)
    return lines


def _pool_setting_uses(tree: ast.AST) -> list[int]:
    """Lines that call or import ``_linalg.set_pool_threads``."""
    names = {"set_pool_threads"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in names) or (
                isinstance(func, ast.Attribute) and func.attr in names
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names):
            lines.append(node.lineno)
    return lines


def _offenders(rule, allowed: str) -> dict:
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != allowed:
            lines = rule(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                offenders[path.name] = lines
    return offenders


def test_only_the_linalg_module_touches_the_pool_setters():
    """The OpenBLAS thread-count functions are found and called in _linalg."""
    assert not _offenders(_pool_setter_uses, "_linalg.py")


def test_only_the_workers_module_sets_the_pools():
    """The scope that sets the pools lives in _workers (``one_blas_thread``)."""
    assert not _offenders(_pool_setting_uses, "_workers.py")


def test_pool_rules_flag_each_form():
    for snippet in (
        "lib.scipy_openblas_set_num_threads(1)",
        "getattr(lib, 'openblas_get_num_threads')",
        "getattr(lib, f'{prefix}_set_num_threads{suffix}')",
        "from mkl import set_num_threads",
    ):
        assert _pool_setter_uses(ast.parse(snippet)), snippet
    for snippet in (
        "set_pool_threads([1, 1])",
        "caller = _linalg.set_pool_threads([1, 1])",
        "from ._linalg import cho_solve, set_pool_threads",
    ):
        assert _pool_setting_uses(ast.parse(snippet)), snippet
        assert not _pool_setter_uses(ast.parse(snippet)), snippet
    for snippet in ("from ._workers import one_blas_thread", "def set_pool_threads(counts):\n    return []"):
        assert not _pool_setting_uses(ast.parse(snippet)), snippet


def _run(code: str, threads: str | None) -> str:
    """Run ``code`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS`` set
    to ``threads`` (None: unset) and this checkout's package first on
    its path; return its output."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n" + code
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCOPE_CHECKS = """
import threading
import numpy as np
import gpagg
from gpagg import _linalg, _workers

def pools():
    return [get() for get, _ in _linalg._POOLS]

caller = pools()
assert caller == [2, 2], caller
seen = []

@_workers.one_blas_thread
def inside(then=None):
    seen.append(pools())
    if then is not None:
        then()
        seen.append(pools())

inside()
assert seen == [[1, 1]] and pools() == caller

@_workers.one_blas_thread
def fails():
    raise KeyError("inside")

try:
    fails()
except KeyError:
    pass
assert pools() == caller

seen.clear()
inside(lambda: inside())
assert seen == [[1, 1]] * 3 and pools() == caller

entered, release = threading.Event(), threading.Event()
other = threading.Thread(target=inside, args=(lambda: (entered.set(), release.wait(60)),))
other.start()
assert entered.wait(60)
inside()
assert pools() == [1, 1]  # the other thread is still inside
release.set()
other.join()
assert pools() == caller

factoring = []
real = _linalg._dpotrf
_linalg._dpotrf = lambda *args: (factoring.append(pools()), real(*args))
rng = np.random.default_rng(0)
data = gpagg.Dataset(rng.uniform(0, 1, (30, 1)), rng.standard_normal(30))
expert = gpagg.train_expert(data, gpagg.Hyperparameters([0.3], 1.0, 0.1))
assert factoring == [[1, 1]] and pools() == caller
try:
    gpagg.predict(expert, np.ones((3, 2)))
except gpagg.DimensionError:
    pass
assert pools() == caller
print("restored")
"""


def test_scope_restores_the_callers_pool_settings():
    """After a call, an exception, nested calls, and only once a second
    caller thread has left too."""
    assert _run(SCOPE_CHECKS, "2").strip() == "restored"


OUTPUTS = """
import hashlib
import numpy as np
import gpagg as g

train = g.generate_synthetic(1000, (0.0, 1.0), 0.2, 0)
test = g.generate_synthetic(60, (-0.2, 1.2), 0.2, 7)
train, test, _ = g.normalize(train, test)
parts = g.kmeans_partition(train, 5, 0)
var_y = float(train.y.var())
init = g.Hyperparameters([0.3 * float(train.X.std())], var_y, 0.05 * var_y)
hp = g.fit_shared_hyperparameters(parts.subsets, init)
experts = [g.train_expert(s, hp) for s in parts.subsets]
outputs = [
    hp.log_vector(),
    g.npae_aggregate(experts, hp, test.X),
    *g.grbcm_aggregate(parts, hp, test.X, 0),
    *g.predict(experts[0], test.X),
]
print(hashlib.sha256(b"".join(np.ascontiguousarray(o).tobytes() for o in outputs)).hexdigest())
"""


def test_outputs_do_not_depend_on_the_callers_blas_threads():
    """theta, NPAE's means, GRBCM's means and variances and an expert's
    predictions on a desk-like shape (n = 1000 in 5 k-means partitions of
    about 200, 60 queries), bitwise, whatever OPENBLAS_NUM_THREADS says."""
    digests = {threads: _run(OUTPUTS, threads) for threads in ("1", "2", None)}
    assert len(set(digests.values())) == 1, digests


# The names in gpagg.__all__ that run outside the scope, each with why it
# needs no BLAS setting; every other name is a function that runs inside.
UNSCOPED = {
    "BenchmarkConfig": "a record; its methods check and convert values",
    "BenchmarkRow": "a record",
    "Dataset": "a record; its methods check and convert values",
    "EmggmConfig": "a record; its methods check and convert values",
    "ExpertPredictions": "a record; its methods check shapes",
    "FitOptions": "a record",
    "Hyperparameters": "a record; its methods check and convert values",
    "NormalizationState": "a record",
    "Partitioning": "a record",
    "PrecisionEstimate": "a record",
    "TrainedExpert": "a record; chol_C unpacks the factor by LAPACK's dtpttr, a copy that no pool threads",
    "DimensionError": "an exception type",
    "FitError": "an exception type",
    "GPAggError": "an exception type",
    "NumericalError": "an exception type",
    "kernel_matrix": "elementwise numpy, and scipy's cdist for several input dimensions",
    "kmeans_partition": "distances as kernel_matrix computes them, and means",
    "random_partition": "a permutation",
    "poe": "elementwise precision sums",
    "gpoe": "elementwise precision sums",
    "bcm": "elementwise precision sums",
    "rbcm": "elementwise precision sums",
    "poe_family_aggregate": "elementwise precision sums",
    "init_latent": "a mean over the experts",
    "effective_covariance": "a symmetrized copy with an inflated diagonal",
    "generate_synthetic": "random draws and elementwise numpy",
    "latent_function": "elementwise numpy",
    "normalize": "means, standard deviations and elementwise numpy",
    "metrics": "elementwise numpy",
    "load_dataset_csv": "reads a file",
}


def _scoped(obj) -> bool:
    return inspect.isfunction(obj) and obj.__code__ is _workers.one_blas_thread(len).__code__


def test_every_computing_entry_point_runs_in_the_scope():
    assert set(UNSCOPED) <= set(gpagg.__all__)
    inside = {name for name in gpagg.__all__ if _scoped(getattr(gpagg, name))}
    assert inside == set(gpagg.__all__) - set(UNSCOPED)


@pytest.fixture
def pointers_need_the_scope(monkeypatch):
    """Every LAPACK and BLAS pointer of _linalg raises unless a scoped
    call is in progress; returns the names of those that ran."""
    ran = set()
    for attr in [a for a in vars(_linalg) if a.startswith("_d") and callable(getattr(_linalg, a))]:
        def checked(*args, _fn=getattr(_linalg, attr), _name=attr):
            assert _workers.one_blas_thread.depth > 0, f"{_name} called outside the scope"
            ran.add(_name)
            return _fn(*args)

        monkeypatch.setattr(_linalg, attr, checked)
    return ran


def test_lapack_and_blas_run_only_inside_the_scope(pointers_need_the_scope, tmp_path):
    rng = np.random.default_rng(5)
    data = gpagg.Dataset(rng.uniform(0, 1, (240, 1)), rng.standard_normal(240))
    X_star = rng.uniform(0, 1, (40, 1))
    hp = gpagg.Hyperparameters([0.3], 1.0, 0.1)
    parts = gpagg.kmeans_partition(data, 4, 0)
    hp = gpagg.fit_shared_hyperparameters(parts.subsets, hp)
    gpagg.log_marginal_likelihood(data, hp)
    gpagg.lml_gradient(data, hp)
    experts = [gpagg.train_expert(s, hp) for s in parts.subsets]
    gpagg.predict(experts[0], X_star)
    preds = gpagg.collect_predictions(experts, X_star, hp)
    gpagg.npae_aggregate(experts, hp, X_star)
    gpagg.grbcm_aggregate(parts, hp, X_star, 0)
    gpagg.emggm_aggregate(preds)
    S, _ = gpagg.joint_sample_covariance(gpagg.init_latent(preds), preds)
    est = gpagg.m_step(S, 0.1)
    gpagg.e_step(S, est.Sigma)
    gpagg.glasso_objective(gpagg.glasso_solve(S, 0.1).Omega, S, 0.1)
    cfg = gpagg.BenchmarkConfig(n=60, n_t=12, M_list=(2,), output_dir=str(tmp_path))
    assert all(np.isfinite(row.mae) for row in gpagg.run_benchmark(cfg))
    assert _workers.one_blas_thread.depth == 0
    assert {"_dtrsm", "_dpotrf", "_dpotrs", "_dgemm"} <= pointers_need_the_scope


def test_unscoped_functions_reach_no_lapack_or_scipy_blas(pointers_need_the_scope, tmp_path):
    rng = np.random.default_rng(6)
    train = gpagg.generate_synthetic(50, (0.0, 1.0), 0.1, 0)
    test = gpagg.generate_synthetic(10, (0.0, 1.0), 0.1, 1)
    train, test, _ = gpagg.normalize(train, test)
    gpagg.latent_function(test.X[:, 0])
    gpagg.metrics(test.y, test.y + 0.1)
    hp = gpagg.Hyperparameters([0.3, 0.5], 1.0, 0.1)
    gpagg.kernel_matrix(rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (4, 2)), hp)
    gpagg.random_partition(train, 3, 0)
    gpagg.kmeans_partition(train, 3, 0)
    preds = gpagg.ExpertPredictions(rng.standard_normal((10, 3)), rng.uniform(0.1, 1, (10, 3)), np.ones(10))
    for rule in (gpagg.poe, gpagg.gpoe, gpagg.bcm, gpagg.rbcm):
        rule(preds)
    gpagg.poe_family_aggregate(preds, np.full((10, 3), 0.5), True)
    gpagg.init_latent(preds)
    gpagg.effective_covariance(np.eye(3))
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
    gpagg.load_dataset_csv(path)
