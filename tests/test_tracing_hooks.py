"""The benchmark's tracing hooks see the work they are meant to count.

``perfbench/tracing.py`` wraps module attributes of the package (see its
``instrument``). This checks that contract from the package side: GRBCM
factors its base partition through ``baselines.train_expert`` once per
call (its augmented experts are conditioned on that factor), EMGGM's E-steps, M-steps
and glasso solves go through the ``emggm`` module's names, and every
wrapped attribute is restored afterwards. The benchmark's own self-test
runs too, since it reads the fields of ``PrecisionEstimate``.
"""

import json
import subprocess
import sys
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
