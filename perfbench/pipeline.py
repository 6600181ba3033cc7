"""The benchmark pipeline: every layer of gpagg called through its public
functions, in the order a user would call them.

One pass processes each of a workload's data draws: partition, shared
fit (unless the workload pins the hyperparameters), expert
factorization, then every method over the query batches. Each method
call is timed on its own and self-contained: the conditional-
independence rules and EMGGM each run ``collect_predictions`` inside
their own call, as ``gpagg.bench.run_benchmark`` accounts for them.

Every call's output is checked: it must be finite, its MAE must stay
under the workload's loose ceiling and, for batched workloads, the
concatenated batches must match one call over every query. A failed
check fails every call that produced the checked output.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import gpagg as g
from tracing import NullTracer
from workloads import BATCH_MATCH_RTOL, MAE_CEILING, NOISE_SD, TEST_RANGE, TEST_SEED_OFFSET, TRAIN_RANGE, Workload

clock = time.perf_counter
NULL = NullTracer()


@dataclass
class Draw:
    seed: int
    train: g.Dataset
    test: g.Dataset
    state: g.NormalizationState
    truth: np.ndarray  # test targets in original units


@dataclass
class Trained:
    parts: g.Partitioning
    hp: g.Hyperparameters
    experts: list


def make_draws(wl: Workload, seed: int, tracer=NULL) -> list[Draw]:
    """Generate and normalize every draw's training and test sets."""
    draws = []
    for s in wl.draw_seeds(seed):
        with tracer.span("bench.generate"):
            train_raw = g.generate_synthetic(wl.n, TRAIN_RANGE, NOISE_SD, s)
            test_raw = g.generate_synthetic(wl.n_t, TEST_RANGE, NOISE_SD, s + TEST_SEED_OFFSET)
        with tracer.span("bench.normalize"):
            train, test, state = g.normalize(train_raw, test_raw)
        draws.append(Draw(s, train, test, state, test_raw.y))
    return draws


def initial_hp(train: g.Dataset) -> g.Hyperparameters:
    """The fit's starting point; the same rule ``run_benchmark`` uses."""
    spread = float(np.mean(train.X.std(axis=0)))
    var_y = float(train.y.var())
    return g.Hyperparameters([0.3 * spread], var_y, 0.05 * var_y)


def train(wl: Workload, draw: Draw, tracer=NULL) -> Trained:
    with tracer.span("partition.kmeans"):
        parts = g.kmeans_partition(draw.train, wl.M, draw.seed)
    if wl.pinned_hp is None:
        with tracer.span("gp.fit"):
            hp = g.fit_shared_hyperparameters(
                parts.subsets, initial_hp(draw.train), g.FitOptions(seed=draw.seed)
            )
    else:
        lengthscale, signal_variance, noise_variance = wl.pinned_hp
        hp = g.Hyperparameters([lengthscale], signal_variance, noise_variance)
    with tracer.span("gp.train_expert"):
        experts = [g.train_expert(s, hp) for s in parts.subsets]
    return Trained(parts, hp, experts)


def _ci(wl, trained, X, seed, tracer):
    with tracer.span("baselines.collect"):
        preds = g.collect_predictions(trained.experts, X, trained.hp)
    with tracer.span("baselines.rules"):
        return {name: rule(preds)[0] for name, rule in (("poe", g.poe), ("gpoe", g.gpoe), ("bcm", g.bcm), ("rbcm", g.rbcm))}


def _grbcm(wl, trained, X, seed, tracer):
    with tracer.span("baselines.grbcm"):
        return {"grbcm": g.grbcm_aggregate(trained.parts, trained.hp, X, seed)[0]}


def _npae(wl, trained, X, seed, tracer):
    with tracer.span("npae"):
        return {"npae": g.npae_aggregate(trained.experts, trained.hp, X)}


def _emggm(wl, trained, X, seed, tracer):
    with tracer.span("baselines.collect"):
        preds = g.collect_predictions(trained.experts, X, trained.hp)
    with tracer.span("emggm"):
        means, diag = g.emggm_aggregate(preds)
    tracer.count("emggm.em_iters", diag["n_iterations"])
    if diag["converged"]:
        tracer.count("emggm.converged")
    return {"emggm": means}


PREDICT = {"ci": _ci, "grbcm": _grbcm, "npae": _npae, "emggm": _emggm}


_REF_A = np.random.default_rng(0).standard_normal((200, 200))
_REF_SPD = _REF_A @ _REF_A.T + 200 * np.eye(200)


def reference_seconds() -> float:
    """Time of a fixed reference kernel: small Cholesky factorizations and
    an interpreter loop, the two kinds of work the package's layers do.

    The machine this benchmark was tuned on changes speed by up to 60%
    within half a minute; a fixed workload's time divided by this
    kernel's time, measured next to it, stayed within 9% (correlation
    0.97). End-to-end timings are therefore also reported in units of
    this kernel's time.
    """
    tic = clock()
    for _ in range(30):
        np.linalg.cholesky(_REF_SPD)
    acc = 0.0
    for i in range(150_000):
        acc += i * 0.5
    return clock() - tic


def _batches(wl: Workload) -> list[slice]:
    size = wl.batch or wl.n_t
    return [slice(start, min(start + size, wl.n_t)) for start in range(0, wl.n_t, size)]


@dataclass
class PassResult:
    """Timings, outputs and failures of one pass over every draw."""

    train_s: list[float] = field(default_factory=list)
    total_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    predict_s: dict[str, list[float]] = field(default_factory=dict)
    call_s: dict[str, list[float]] = field(default_factory=dict)
    mae: dict[str, list[float]] = field(default_factory=dict)
    outputs: list[dict[str, np.ndarray]] = field(default_factory=list)
    trained: list[Trained] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def release(self) -> None:
        """Drop the trained experts and outputs, so that peak RSS does not
        grow with the number of passes."""
        self.outputs.clear()
        self.trained.clear()

    def fail(self, calls: int, reason: str) -> None:
        self.failed += calls
        if len(self.failures) < 20:
            self.failures.append(reason)


def _mae(means: np.ndarray, draw: Draw) -> float:
    return g.metrics(means * draw.state.y_scale + draw.state.y_mean, draw.truth)[0]


def run_draw(wl: Workload, draw: Draw, res: PassResult, tracer=NULL, run_id: str = "") -> None:
    """Train on one draw, send every query batch to every method, check
    the answers, and append timings and outcomes to ``res``."""
    tracer.run_id = run_id
    batches = _batches(wl)
    refs = [reference_seconds()]
    started = clock()
    trained = train(wl, draw, tracer)
    train_s = clock() - started
    refs.append(reference_seconds())
    parts_out: dict[str, list[dict[str, np.ndarray] | None]] = {m: [] for m in wl.methods}
    spent = dict.fromkeys(wl.methods, 0.0)
    for sl in batches:
        X = draw.test.X[sl]
        for method in wl.methods:
            res.attempted += 1
            tic = clock()
            try:
                out = PREDICT[method](wl, trained, X, draw.seed, tracer)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                out = None
                res.fail(1, f"{method} raised {type(exc).__name__}: {exc} (draw seed {draw.seed})")
            elapsed = clock() - tic
            spent[method] += elapsed
            res.call_s.setdefault(method, []).append(elapsed)
            if out is not None and not all(np.all(np.isfinite(v)) for v in out.values()):
                res.fail(1, f"{method} returned non-finite values (draw seed {draw.seed})")
                out = None
            parts_out[method].append(out)
            refs.append(reference_seconds())
    res.train_s.append(train_s)
    res.total_s.append(train_s + sum(spent.values()))
    res.ref_s.append(statistics.median(refs))
    outputs = {}
    for method in wl.methods:
        res.predict_s.setdefault(method, []).append(spent[method])
        if any(out is None for out in parts_out[method]):
            continue
        for name in parts_out[method][0]:
            means = np.concatenate([out[name] for out in parts_out[method]])
            outputs[name] = means
            mae = _mae(means, draw)
            res.mae.setdefault(name, []).append(mae)
            ceiling = MAE_CEILING.get(name)
            if ceiling is not None and not mae < ceiling:
                res.fail(len(batches), f"mae.{name}={mae:.4g} above ceiling {ceiling} (draw seed {draw.seed})")
    res.outputs.append(outputs)
    res.trained.append(trained)


def batch_reference_check(wl: Workload, draws: list[Draw], first: PassResult) -> PassResult:
    """One call over every query per method, against the batched outputs."""
    res = PassResult()
    if wl.batch is None or wl.batch >= wl.n_t:
        return res
    for draw, trained, batched in zip(draws, first.trained, first.outputs):
        for method in wl.methods:
            res.attempted += 1
            try:
                ref = PREDICT[method](wl, trained, draw.test.X, draw.seed, NULL)
            except Exception as exc:  # noqa: BLE001
                res.fail(1, f"{method} single-batch reference raised {type(exc).__name__}: {exc}")
                continue
            for name, means in ref.items():
                if name not in batched:
                    continue
                scale = max(1.0, float(np.max(np.abs(means))))
                err = float(np.max(np.abs(batched[name] - means))) / scale
                if not err <= BATCH_MATCH_RTOL:
                    res.fail(
                        1 + len(_batches(wl)),
                        f"{name}: batched predictions differ from one call by {err:.3g} (relative)",
                    )
    return res


def eval_seconds(trained: Trained, repeats: int = 3) -> float:
    """One objective evaluation: ``lml_gradient`` over every partition."""
    times = []
    for _ in range(repeats):
        tic = clock()
        for subset in trained.parts.subsets:
            g.lml_gradient(subset, trained.hp)
        times.append(clock() - tic)
    return statistics.median(times)


def peak_matrix_bytes(wl: Workload, trained: Trained, method: str, n_q: int, seed: int) -> int:
    """What ``run_benchmark`` reports as a method's largest dense matrix."""
    M = wl.M
    max_n_i = max(s.n for s in trained.parts.subsets)
    if method == "ci":
        entries = max(n_q * M, max_n_i * n_q)
    elif method == "grbcm":
        base_n = trained.parts.subsets[g.baselines.grbcm_base_index(M, seed)].n
        entries = (base_n + max_n_i) ** 2
    elif method == "npae":
        entries = wl.n * wl.n
    else:
        entries = max(n_q * (M + 1), (M + 1) ** 2, max_n_i * n_q)
    return 8 * entries


def memory_crosscheck(wl: Workload, draw: Draw, trained: Trained) -> list[dict]:
    """tracemalloc peak of one call per method next to ``peak_matrix_bytes``."""
    X = draw.test.X[_batches(wl)[0]]
    rows = []
    tracemalloc.start()
    try:
        for method in wl.methods:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            PREDICT[method](wl, trained, X, draw.seed, NULL)
            peak = tracemalloc.get_traced_memory()[1] - before
            formula = peak_matrix_bytes(wl, trained, method, X.shape[0], draw.seed)
            rows.append(
                {
                    "method": method,
                    "queries": X.shape[0],
                    "alloc_peak_mb": peak / 2**20,
                    "peak_matrix_mb": formula / 2**20,
                    "ratio": peak / formula,
                    "ratio_base": "peak_matrix_mb",
                }
            )
    finally:
        tracemalloc.stop()
    return rows


def typical(per_pass: list[list[float]]) -> float:
    """The median draw of each pass, then the median over passes.

    A median, not a mean, over draws: EMGGM's cost per draw is heavy
    tailed (0.5 s to 4.8 s over 40 draws at M=20), and one heavy draw would
    otherwise move a whole run.
    """
    return statistics.median(statistics.median(v) for v in per_pass)


def _in_ref(seconds: list[float], res: PassResult) -> list[float]:
    """Per-draw times in units of the reference kernel timed alongside."""
    return [t / r for t, r in zip(seconds, res.ref_s)]


def e2e_metrics(wl: Workload, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
    """End-to-end timings of the median draw, median over passes."""
    predict = [[sum(t) for t in zip(*p.predict_s.values())] for p in passes]
    out = {
        "train_s": (typical([p.train_s for p in passes]), "s"),
        "total_s": (typical([p.total_s for p in passes]), "s"),
        "predict_s": (typical(predict), "s"),
        "reference_s": (typical([p.ref_s for p in passes]), "s"),
        "total_ref": (typical([_in_ref(p.total_s, p) for p in passes]), "ref"),
    }
    for method in wl.methods:
        out[f"predict_s.{method}"] = (typical([p.predict_s[method] for p in passes]), "s")
    out["predict_ref.npae"] = (typical([_in_ref(p.predict_s["npae"], p) for p in passes]), "ref")
    for name in ("gpoe", "rbcm", "grbcm", "npae", "emggm"):
        values = passes[0].mae.get(name)
        if values:
            out[f"mae.{name}"] = (statistics.fmean(values), "1")
    return out


def layer_metrics(
    wl: Workload,
    tracer,
    traced: list[PassResult],
    untraced: list[PassResult],
    eval_s: float,
    memory: list[dict],
) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced passes: times per draw, counts per pass."""
    K = wl.draws
    n_pass = len(traced)

    def per_draw(*names: str) -> float:
        return sum(tracer.total(n) for n in names) / (K * n_pass)

    def per_pass(name: str) -> float:
        return tracer.counts[name] / n_pass

    mem = {row["method"]: row for row in memory}
    sizes = [s.n for p in traced for t in p.trained for s in t.parts.subsets]
    sweeps = tracer.counts["glasso.sweeps"]
    glasso_s = tracer.total("glasso.solve")
    traced_wall = statistics.median(sum(p.total_s) for p in traced)
    untraced_wall = statistics.median(sum(p.total_s) for p in untraced)
    jittered = sum(1 for t in traced[0].trained for e in t.experts if e.jitter > 0)
    return {
        "bench.generate_s": ((tracer.total("bench.generate") + tracer.total("bench.normalize")) / K, "s"),
        "partition.s": (per_draw("partition.kmeans"), "s"),
        "partition.n_i_max": (max(sizes), "count"),
        "partition.n_i_min": (min(sizes), "count"),
        "gp.fit_s": (per_draw("gp.fit"), "s"),
        "gp.fit_evals": (per_pass("gp.lml_and_grad_calls") / wl.M, "count"),
        "gp.eval_s": (eval_s, "s"),
        "gp.restarts_failed": (per_pass("gp.restarts_failed"), "count"),
        "gp.train_expert_s": (per_draw("gp.train_expert"), "s"),
        "gp.experts_jittered": (jittered, "count"),
        "baselines.collect_s": (per_draw("baselines.collect"), "s"),
        "baselines.rules_s": (per_draw("baselines.rules"), "s"),
        "baselines.grbcm_s": (per_draw("baselines.grbcm"), "s"),
        "baselines.grbcm_factor_s": (per_draw("baselines.train_expert"), "s"),
        "baselines.grbcm_factor_calls": (per_pass("baselines.train_expert_calls"), "count"),
        "npae.s": (per_draw("npae"), "s"),
        "npae.s_per_point": (per_draw("npae") / wl.n_t, "s"),
        "npae.jitter_points": (per_pass("linalg.jitter_calls.npae"), "count"),
        "npae.alloc_peak_mb": (mem["npae"]["alloc_peak_mb"] if "npae" in mem else 0.0, "MB"),
        "npae.peak_matrix_mb": (mem["npae"]["peak_matrix_mb"] if "npae" in mem else 0.0, "MB"),
        "emggm.s": (per_draw("emggm"), "s"),
        "emggm.em_iters": (per_pass("emggm.em_iters"), "count"),
        "emggm.converged": (per_pass("emggm.converged"), "count"),
        "emggm.e_step_s": (per_draw("emggm.e_step"), "s"),
        "emggm.m_step_s": (per_draw("emggm.m_step"), "s"),
        "emggm.alloc_peak_mb": (mem["emggm"]["alloc_peak_mb"] if "emggm" in mem else 0.0, "MB"),
        "glasso.solves": (per_pass("glasso.solves"), "count"),
        "glasso.sweeps": (sweeps / n_pass, "count"),
        "glasso.sweeps_max": (tracer.maxima.get("glasso.sweeps_max", 0), "count"),
        "glasso.unconverged": (per_pass("glasso.unconverged"), "count"),
        "glasso.s": (glasso_s / (K * n_pass), "s"),
        "glasso.s_per_sweep": (glasso_s / sweeps if sweeps else 0.0, "s"),
        "glasso.dual_gap_max": (tracer.maxima.get("glasso.dual_gap_max", 0.0), "1"),
        "linalg.jitter_calls": (per_pass("linalg.jitter_calls"), "count"),
        "trace.overhead_s": ((traced_wall - untraced_wall) / K, "s"),
    }


def self_times(wl: Workload, tracer, n_pass: int) -> dict[str, float]:
    """Self time per layer (span-name prefix), seconds per draw."""
    out: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".")[0]
        scale = wl.draws * (1 if layer == "bench" else n_pass)
        out[layer] = out.get(layer, 0.0) + seconds / scale
    return out

