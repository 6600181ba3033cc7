"""The benchmark's tracing hooks see the work they are meant to count.

``perfbench/tracing.py`` wraps module attributes of the package (see its
``instrument``). This checks that contract from the package side: GRBCM
factors its base partition through ``baselines.train_expert`` once per
trained model (its augmented experts are conditioned on that factor, and
a repeated call on the same partitioning, theta and seed trains
nothing), EMGGM's E-steps, M-steps
and glasso solves go through the ``emggm`` module's names, and every
wrapped attribute is restored afterwards. The tracer keeps one span
stack. GRBCM's and NPAE's worker threads never call a wrapped attribute.
The shared fit's workers do: they enter ``gp._lml_and_grad`` and
``gp.chol_jitter``, so in a traced run whose BLAS is pinned (the fit
then runs threads) the gp and linalg self times are approximate, while
the counts and the span around the whole fit stay exact. The benchmark's
own self-test runs too, since it reads the fields of
``PrecisionEstimate``.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gpagg
from gpagg import (
    Dataset,
    Hyperparameters,
    collect_predictions,
    emggm_aggregate,
    grbcm_aggregate,
    kmeans_partition,
    npae_aggregate,
    train_expert,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_instrument_counts_grbcm_factorizations_and_em_work(tracing):
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (60, 1))
    data = Dataset(X, np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(60))
    hp = Hyperparameters([0.3], 1.0, 0.01)
    M = 3
    parts = kmeans_partition(data, M, seed=0)
    X_star = rng.uniform(0, 1, (20, 1))
    modules = (gpagg.gp, gpagg.baselines, gpagg.npae, gpagg.emggm, gpagg.glasso, gpagg._linalg)
    before = [dict(vars(m)) for m in modules]

    tracer = tracing.Tracer()
    with tracing.instrument(gpagg, tracer):
        for seed in (0, 1):
            calls = tracer.counts["baselines.train_expert_calls"]
            grbcm_aggregate(parts, hp, X_star, seed)
            assert tracer.counts["baselines.train_expert_calls"] - calls == 1
        calls = tracer.counts["baselines.train_expert_calls"]
        grbcm_aggregate(parts, hp, X_star[:5], 1)
        assert tracer.counts["baselines.train_expert_calls"] == calls
        preds = collect_predictions([train_expert(s, hp) for s in parts.subsets], X_star, hp)
        emggm_aggregate(preds)

    assert tracer.counts["baselines.train_expert_calls"] == 2
    for name in ("emggm.e_step", "emggm.m_step"):
        assert sum(s.name == name for s in tracer.spans) > 0
        assert tracer.total(name) > 0
    assert tracer.counts["glasso.solves"] > 0
    for module, attrs in zip(modules, before):
        now = vars(module)
        assert now.keys() == attrs.keys()
        for key, value in attrs.items():
            assert now[key] is value, f"{module.__name__}.{key} was not restored"


def test_threaded_calls_leave_every_hook_to_the_calling_thread(tracing, monkeypatch):
    # GRBCM's training and prediction and NPAE's shapes here are above
    # PARALLEL_WORK, so all run on worker threads; only the calling thread
    # may enter a hooked call
    monkeypatch.setattr(gpagg._workers, "worker_count", lambda: 3)
    monkeypatch.setattr(gpagg.baselines, "blas_threads", lambda: 1)
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (1500, 1))
    data = Dataset(X, np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(1500))
    hp = Hyperparameters([0.1], 1.0, 0.01)
    parts = kmeans_partition(data, 6, seed=0)
    experts = [train_expert(s, hp) for s in parts.subsets]
    X_star = rng.uniform(0, 1, (60, 1))
    sizes = [s.n for s in parts.subsets]
    for seed in (0, 1):
        base = gpagg.baselines.grbcm_base_index(6, seed)
        augmented = sizes[:base] + sizes[base + 1 :]
        assert gpagg.baselines._training_work(sizes[base], augmented) >= gpagg._workers.PARALLEL_WORK
        assert gpagg.baselines._prediction_work(sizes[base], augmented, 60) >= gpagg._workers.PARALLEL_WORK
    assert gpagg.npae._pair_work(sizes, 60) >= gpagg._workers.PARALLEL_WORK
    workers = []
    for module in (gpagg.baselines, gpagg.npae):
        kernel_matrix = module.kernel_matrix

        def recording(X, X2, hp, _kernel_matrix=kernel_matrix):
            workers.append(threading.current_thread())
            return _kernel_matrix(X, X2, hp)

        monkeypatch.setattr(module, "kernel_matrix", recording)
    modules = (gpagg.gp, gpagg.baselines, gpagg.npae, gpagg.emggm, gpagg.glasso, gpagg._linalg)
    before = [dict(vars(m)) for m in modules]
    callers = {}

    def caller_recording(name, fn):
        def wrapper(*args, **kwargs):
            callers.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)

        return wrapper

    tracer = tracing.Tracer()
    with tracing.instrument(gpagg, tracer):
        hooks = [
            (m, key, value)
            for m, attrs in zip(modules, before)
            for key, value in vars(m).items()
            if attrs.get(key) is not value
        ]
        assert hooks
        for m, key, value in hooks:
            setattr(m, key, caller_recording(f"{m.__name__}.{key}", value))
        try:
            for seed in (0, 1):
                calls = tracer.counts["baselines.train_expert_calls"]
                grbcm_aggregate(parts, hp, X_star, seed)
                assert tracer.counts["baselines.train_expert_calls"] - calls == 1
            npae_aggregate(experts, hp, X_star)
        finally:
            for m, key, value in hooks:
                setattr(m, key, value)

    assert len(set(workers)) > 2
    assert {"gpagg.baselines.train_expert", "gpagg.gp.chol_jitter", "gpagg.npae.chol_jitter"} <= callers.keys()
    for name, threads in callers.items():
        assert threads == {threading.main_thread()}, name


def test_fit_on_two_workers_counts_and_fits_as_on_one(tracing, monkeypatch):
    # the fit's workers enter the hooked gp._lml_and_grad and gp.chol_jitter;
    # the counts and theta must be those of one worker
    monkeypatch.setattr(gpagg._workers, "PARALLEL_WORK", 0)
    monkeypatch.setattr(gpagg.gp, "blas_threads", lambda: 1)
    rng = np.random.default_rng(2)
    parts = []
    for n in (40, 50, 60, 45):
        X = rng.uniform(0, 1, (n, 1))
        parts.append(Dataset(X, np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(n)))
    init = Hyperparameters([0.3], 1.0, 0.05)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(gpagg._workers, "worker_count", lambda w=workers: w)
        tracer, on_main = tracing.Tracer(), []
        with tracing.instrument(gpagg, tracer):
            hooked = gpagg.gp._lml_and_grad

            def recording(*args, _hooked=hooked):
                on_main.append(threading.current_thread() is threading.main_thread())
                return _hooked(*args)

            gpagg.gp._lml_and_grad = recording
            try:
                with tracer.span("gp.fit"):
                    hp = gpagg.fit_shared_hyperparameters(parts, init)
            finally:
                gpagg.gp._lml_and_grad = hooked
        assert (False in on_main) == (workers > 1)
        (fit,) = [s for s in tracer.spans if s.name == "gp.fit"]
        evaluations = [s for s in tracer.spans if s.name == "gp.lml_and_grad"]
        assert len(evaluations) == tracer.counts["gp.lml_and_grad_calls"] == len(on_main)
        assert all(fit.start <= s.start <= s.end <= fit.end for s in evaluations)
        results.append((hp.log_vector(), tracer.counts["gp.lml_and_grad_calls"]))
    assert results[0][1] == results[1][1] > 0
    assert results[0][1] % len(parts) == 0
    assert np.array_equal(results[0][0], results[1][0])


@pytest.mark.slow
def test_perfbench_self_test_passes():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--self-test"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["self_test"] == "passed", done.stdout
