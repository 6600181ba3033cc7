"""Synthetic benchmark harness: generate data, train shared experts, run
every aggregation method, and report MAE/RMSE/time/storage per method.

The 1-D test function is

    f(x) = 5 x^2 sin(12 x) + (x^3 - 0.5) sin(3 x - 0.5) + 4 cos(2 x) + eps,
    eps ~ N(0, noise_sd^2),

with training inputs uniform on ``train_range`` and test inputs on
``test_range`` (an extrapolating superset by default). Data is
standardized by training statistics before fitting; errors are reported
in original units.

Timing is split into the shared training cost (hyperparameter fit plus
expert factorization, identical for every method in a cell) and the
per-method prediction cost. For methods consuming stacked expert
predictions, the shared per-expert predict time is included in their
prediction cost so the comparison against self-contained methods (NPAE,
GRBCM) stays fair. ``peak_matrix_bytes`` is the largest dense matrix a
method materializes: n^2 entries for the full GP; for NPAE, which works
through at most b = min(n_t, QUERY_BLOCK) test points at a time, the
largest of a cross block (max n_i^2), a block's K_A stack (b M^2) and
one expert's weight matrix for a block (max n_i b), still the largest
single matrix when the block's cross blocks are built on several
worker threads at once (each holds one); for GRBCM, the
largest of the base factor and its inverse (n_b^2), a cross block
(L_b^-1 K_bi in training, K_ib in a call; n_b max n_i), a Schur
complement or its unpacked factor (max n_i^2) and a right-hand side
[k(X, X*) | y] of the base or an expert (max(n_b, max n_i) (n_t + 1)),
still the largest single matrix when the augmented experts run on
several worker threads (each holds one expert's at a time), and not
counting the packed Schur factors that its trained model holds; for
the rest, the stacked predictions (n_t M) and one expert's
[k(X, X*) | y] (max n_i (n_t + 1)), still the largest single matrix
when the experts run on several worker threads at once (each holds one).
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .baselines import (
    ExpertPredictions,
    bcm,
    collect_predictions,
    gpoe,
    grbcm_aggregate,
    grbcm_base_index,
    poe,
    rbcm,
)
from .emggm import EmggmConfig, emggm_aggregate
from ._workers import one_blas_thread
from .errors import DimensionError, checked
from .gp import (
    Dataset,
    Hyperparameters,
    TrainedExpert,
    fit_shared_hyperparameters,
    predict,
    train_expert,
)
from .npae import QUERY_BLOCK, npae_aggregate
from .partition import Partitioning, kmeans_partition, random_partition
from .svg import render_line_chart

log = logging.getLogger(__name__)

METHODS = ("full_gp", "poe", "gpoe", "bcm", "rbcm", "grbcm", "npae", "emggm")
PARTITIONERS = ("kmeans", "random")
_MINIMA = {"n": 1, "n_t": 1, "noise_sd": 0, "seeds": 0}  # least values of BenchmarkConfig's fields or entries

# Offset separating the test-set random stream from the training stream.
_TEST_SEED_OFFSET = 10_000_019


def latent_function(x: np.ndarray) -> np.ndarray:
    """Noiseless benchmark function on 1-D inputs."""
    return (
        5.0 * x**2 * np.sin(12.0 * x)
        + (x**3 - 0.5) * np.sin(3.0 * x - 0.5)
        + 4.0 * np.cos(2.0 * x)
    )


def generate_synthetic(n: int, value_range: tuple[float, float], noise_sd: float, seed: int) -> Dataset:
    """Draw x uniform on the range and y = f(x) + noise, deterministically per seed."""
    n = checked("n", n, int, 1)
    noise_sd = checked("noise_sd", noise_sd, float, 0)
    lo, hi = (checked("range end", v, float) for v in value_range)
    if not lo < hi:
        raise ValueError(f"range must be increasing, got ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=n)
    y = latent_function(x) + noise_sd * rng.standard_normal(n)
    return Dataset(x[:, None], y)


@dataclass(frozen=True)
class NormalizationState:
    """Per-column offsets and scales applied to a dataset."""

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float


def normalize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, NormalizationState]:
    """Standardize both sets by the training mean/std, column-wise."""
    if train.n == 0:
        raise ValueError("training set is empty")
    x_mean = train.X.mean(axis=0)
    x_scale = train.X.std(axis=0)
    y_mean = float(train.y.mean())
    y_scale = float(train.y.std())
    if np.any(x_scale <= 0) or y_scale <= 0:
        raise ValueError("cannot normalize a constant column")
    state = NormalizationState(x_mean=x_mean, x_scale=x_scale, y_mean=y_mean, y_scale=y_scale)
    train_n = Dataset((train.X - x_mean) / x_scale, (train.y - y_mean) / y_scale)
    test_n = Dataset((test.X - x_mean) / x_scale, (test.y - y_mean) / y_scale)
    return train_n, test_n, state


def denormalize_y(y: np.ndarray, state: NormalizationState) -> np.ndarray:
    return y * state.y_scale + state.y_mean


def metrics(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(MAE, RMSE) of a prediction against the truth."""
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.size != truth.size:
        raise DimensionError(f"prediction has {pred.size} entries, truth has {truth.size}")
    delta = pred - truth
    return float(np.mean(np.abs(delta))), float(math.sqrt(np.mean(delta**2)))


def _known_fields(cls, obj, what: str) -> dict:
    """``obj`` when it is a dict whose keys are all fields of ``cls``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; choose from {names}")
    return obj


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark campaign; JSON config files mirror these field names."""

    n: int = 2000
    n_t: int = 200
    train_range: tuple[float, float] = (0.0, 1.0)
    test_range: tuple[float, float] = (-0.2, 1.2)
    noise_sd: float = 0.2
    M_list: tuple[int, ...] = (5, 10)
    methods: tuple[str, ...] = METHODS
    seeds: tuple[int, ...] = (0,)
    partitioner: str = "kmeans"
    emggm: EmggmConfig = field(default_factory=EmggmConfig)
    output_dir: str = "bench_out"

    def __post_init__(self):
        for name, kind in get_type_hints(BenchmarkConfig).items():
            value = getattr(self, name)
            if get_origin(kind) is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list, got {value!r}")
                value = tuple(checked(f"{name} entry", v, get_args(kind)[0], _MINIMA.get(name)) for v in value)
            elif kind in (int, float, str):
                value = checked(name, value, kind, _MINIMA.get(name))
            object.__setattr__(self, name, value)
        for name in ("train_range", "test_range"):
            rng = getattr(self, name)
            if not (len(rng) == 2 and rng[0] < rng[1]):
                raise ValueError(f"{name} must be an increasing pair, got {rng}")
        for name in ("methods", "seeds", "M_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if min(self.M_list) < 1:
            raise ValueError(f"M_list entries must be >= 1, got {self.M_list}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; choose from {METHODS}")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"unknown partitioner {self.partitioner!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchmarkConfig":
        obj = dict(_known_fields(cls, obj, "config"))
        if "emggm" in obj:
            obj["emggm"] = EmggmConfig(**_known_fields(EmggmConfig, obj["emggm"], "config section 'emggm'"))
        return cls(**obj)

    @classmethod
    def from_json(cls, path: str | Path) -> "BenchmarkConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class BenchmarkRow:
    """One CSV line: a method's accuracy, timing, and storage in one cell.

    The fields are the CSV columns, in order; equality treats NaN as equal
    to NaN so failed rows round-trip."""

    method: str
    M: int
    seed: int
    mae: float
    rmse: float
    train_time_s: float
    predict_time_s: float
    peak_matrix_bytes: int

    def __eq__(self, other):
        if not isinstance(other, BenchmarkRow):
            return NotImplemented
        return all(a == b or (a != a and b != b) for a, b in zip(astuple(self), astuple(other)))


_COLUMN_TYPES = get_type_hints(BenchmarkRow)  # column name -> type, in field order
CSV_HEADER = ",".join(_COLUMN_TYPES)


def emit_csv(rows: list[BenchmarkRow], path: str | Path) -> Path:
    path = Path(path)
    lines = [CSV_HEADER] + [",".join(map(str, astuple(row))) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def parse_csv(path: str | Path) -> list[BenchmarkRow]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_COLUMN_TYPES):
            raise ValueError(
                f"{path} line {lineno}: {len(parts)} fields, expected {len(_COLUMN_TYPES)}: {line!r}"
            )
        if parts[0] not in METHODS:
            # charts print the method unescaped, so only known names pass
            raise ValueError(f"{path} line {lineno}: unknown method, expected one of {METHODS}: {line!r}")
        rows.append(BenchmarkRow(*(kind(v) for kind, v in zip(_COLUMN_TYPES.values(), parts))))
    return rows


def write_dataset_csv(data: Dataset, path: str | Path) -> Path:
    """Dataset as CSV: header row, '.' decimals, one x column per dimension."""
    path = Path(path)
    if data.d == 1:
        header = "x,y"
    else:
        header = ",".join(f"x{j + 1}" for j in range(data.d)) + ",y"
    lines = [header]
    for i in range(data.n):
        lines.append(",".join(repr(float(v)) for v in data.X[i]) + f",{float(data.y[i])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset written by ``write_dataset_csv`` (or shaped like it)."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"{path} has no data rows")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return Dataset(values[:, :-1], values[:, -1])


def _default_init(train: Dataset) -> Hyperparameters:
    spread = float(np.mean(train.X.std(axis=0)))
    var_y = float(train.y.var())
    return Hyperparameters(
        lengthscale=np.array([0.3 * spread]),
        signal_variance=var_y,
        noise_variance=0.05 * var_y,
    )


def _bytes(*entries: int) -> int:
    return 8 * max(entries)


@dataclass(frozen=True)
class _Cell:
    """What one (seed, M) cell hands to every aggregator."""

    cfg: BenchmarkConfig
    M: int
    seed: int
    parts: Partitioning
    hp: Hyperparameters
    experts: list[TrainedExpert]
    preds: ExpertPredictions
    X: np.ndarray
    max_n_i: int


def _ci_rule(rule):
    return lambda c: (rule(c.preds)[0], None)


def _ci_peak(c: _Cell) -> int:
    return _bytes(c.cfg.n_t * c.M, c.max_n_i * (c.cfg.n_t + 1))


def _npae_peak(c: _Cell) -> int:
    b = min(c.cfg.n_t, QUERY_BLOCK)
    return _bytes(c.max_n_i**2, b * c.M**2, c.max_n_i * b)


def _grbcm_peak(c: _Cell) -> int:
    base_n = c.parts.subsets[grbcm_base_index(c.M, c.seed)].n
    rhs = max(base_n, c.max_n_i) * (c.cfg.n_t + 1)
    return _bytes(base_n**2, base_n * c.max_n_i, c.max_n_i**2, rhs)


# method -> (call returning (normalized means, diagnostics or None),
#            whether the shared expert-prediction time counts toward it,
#            peak-matrix-bytes rule)
_AGGREGATORS = {
    "poe": (_ci_rule(poe), True, _ci_peak),
    "gpoe": (_ci_rule(gpoe), True, _ci_peak),
    "bcm": (_ci_rule(bcm), True, _ci_peak),
    "rbcm": (_ci_rule(rbcm), True, _ci_peak),
    "grbcm": (lambda c: (grbcm_aggregate(c.parts, c.hp, c.X, c.seed)[0], None), False, _grbcm_peak),
    "npae": (lambda c: (npae_aggregate(c.experts, c.hp, c.X), None), False, _npae_peak),
    "emggm": (
        lambda c: emggm_aggregate(c.preds, c.cfg.emggm),
        True,
        lambda c: _bytes(c.cfg.n_t * (c.M + 1), (c.M + 1) ** 2, c.max_n_i * c.cfg.n_t),
    ),
}


@one_blas_thread
def run_benchmark(cfg: BenchmarkConfig) -> list[BenchmarkRow]:
    """Run every (seed, M, method) cell and write results.csv (plus
    emggm_diagnostics.json) to the output dir.

    A method failure is logged and recorded as a NaN row; the run
    continues. A failure in a cell's shared stage (partition, fit, expert
    training or expert predictions) makes a NaN row of every method that
    uses it. Every NaN row is also listed in failures.json with its
    exception class and message; that file is written only when a cell
    fails. The full GP ignores partitioning, so its row is computed once
    per seed and repeated for every M. Charts come from
    ``render_benchmark_charts`` on the rows (``gpagg plot``).
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "failures.json").unlink(missing_ok=True)  # never a stale one from an earlier run
    rows: list[BenchmarkRow] = []
    emggm_log: list[dict] = []
    failures: list[dict] = []

    def failed(method: str, M: int, seed: int, exc: Exception, train_time=math.nan) -> BenchmarkRow:
        """The NaN row of a failed cell, also listed in failures.json."""
        failures.append(
            {
                "method": method,
                "M": M,
                "seed": seed,
                "exception": type(exc).__name__,
                "message": str(exc),
            }
        )
        return BenchmarkRow(method, M, seed, math.nan, math.nan, train_time, math.nan, 0)

    for seed in cfg.seeds:
        train_raw = generate_synthetic(cfg.n, cfg.train_range, cfg.noise_sd, seed)
        test_raw = generate_synthetic(cfg.n_t, cfg.test_range, cfg.noise_sd, seed + _TEST_SEED_OFFSET)
        train, test, state = normalize(train_raw, test_raw)

        full_gp: tuple | Exception | None = None  # row values after (method, M, seed), or the failure
        if "full_gp" in cfg.methods:
            try:
                tic = time.perf_counter()
                hp_full = fit_shared_hyperparameters([train], _default_init(train))
                expert = train_expert(train, hp_full)
                t_train = time.perf_counter() - tic
                tic = time.perf_counter()
                mean_n, _ = predict(expert, test.X)
                t_pred = time.perf_counter() - tic
                mae, rmse = metrics(denormalize_y(mean_n, state), test_raw.y)
                full_gp = (mae, rmse, t_train, t_pred, _bytes(cfg.n * cfg.n))
            except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the run
                log.warning("full_gp failed (seed=%d): %s", seed, exc)
                full_gp = exc

        partition = kmeans_partition if cfg.partitioner == "kmeans" else random_partition
        for M in cfg.M_list:
            try:
                parts = partition(train, M, seed)
                tic = time.perf_counter()
                hp = fit_shared_hyperparameters(parts.subsets, _default_init(train))
                experts = [train_expert(s, hp) for s in parts.subsets]
                train_time = time.perf_counter() - tic
                tic = time.perf_counter()
                preds = collect_predictions(experts, test.X, hp)
                t_shared_pred = time.perf_counter() - tic
                cell = _Cell(cfg, M, seed, parts, hp, experts, preds, test.X, max(s.n for s in parts.subsets))
            except Exception as exc:  # noqa: BLE001 - fails this cell's methods, not the run
                log.warning("shared stage failed (M=%d seed=%d): %s", M, seed, exc)
                cell = exc

            for method in cfg.methods:
                if method == "full_gp":
                    if isinstance(full_gp, Exception):
                        rows.append(failed(method, M, seed, full_gp))
                    else:
                        rows.append(BenchmarkRow(method, M, seed, *full_gp))
                    continue
                if isinstance(cell, Exception):
                    rows.append(failed(method, M, seed, cell))
                    continue
                call, shares_preds, peak_rule = _AGGREGATORS[method]
                try:
                    tic = time.perf_counter()
                    mean_n, diag = call(cell)
                    t_pred = time.perf_counter() - tic + (t_shared_pred if shares_preds else 0.0)
                    if diag is not None:
                        emggm_log.append({"seed": seed, "M": M, **diag})
                    mae, rmse = metrics(denormalize_y(mean_n, state), test_raw.y)
                    rows.append(BenchmarkRow(method, M, seed, mae, rmse, train_time, t_pred, peak_rule(cell)))
                except Exception as exc:  # noqa: BLE001
                    log.warning("method %s failed (M=%d seed=%d): %s", method, M, seed, exc)
                    rows.append(failed(method, M, seed, exc, train_time))

    emit_csv(rows, out / "results.csv")
    if emggm_log:
        (out / "emggm_diagnostics.json").write_text(
            json.dumps(emggm_log, indent=2), encoding="utf-8"
        )
    if failures:
        (out / "failures.json").write_text(json.dumps(failures, indent=2), encoding="utf-8")
    return rows


def _median_series(rows: list[BenchmarkRow], value) -> list[tuple[str, list[tuple[float, float]]]]:
    series = []
    for method in dict.fromkeys(r.method for r in rows):
        pts = []
        for M in sorted({r.M for r in rows if r.method == method}):
            vals = [value(r) for r in rows if r.method == method and r.M == M]
            vals = [v for v in vals if math.isfinite(v)]
            if vals:
                pts.append((float(M), float(np.median(vals))))
        if pts:
            series.append((method, pts))
    return series


# (file, title, y label, the value charted from one row)
_CHARTS = (
    ("mae_vs_M.svg", "MAE vs number of experts", "MAE", lambda r: r.mae),
    ("rmse_vs_M.svg", "RMSE vs number of experts", "RMSE", lambda r: r.rmse),
    (
        "time_vs_M.svg",
        "Prediction time vs number of experts",
        "log10(seconds)",
        lambda r: math.log10(r.predict_time_s) if r.predict_time_s > 0 else math.nan,
    ),
)


def render_benchmark_charts(rows: list[BenchmarkRow], out_dir: str | Path) -> list[Path]:
    """MAE, RMSE, and log10 prediction-time line charts (median over seeds)."""
    out_dir = Path(out_dir)
    return [
        render_line_chart(
            _median_series(rows, value),
            out_dir / name,
            title=title,
            x_label="number of experts M",
            y_label=y_label,
        )
        for name, title, y_label, value in _CHARTS
    ]
