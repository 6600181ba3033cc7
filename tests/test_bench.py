import json
import math
from pathlib import Path

import numpy as np
import pytest

from gpagg import (
    BenchmarkConfig,
    Dataset,
    DimensionError,
    generate_synthetic,
    latent_function,
    load_dataset_csv,
    metrics,
    normalize,
    run_benchmark,
)
import gpagg.baselines as baselines
import gpagg.bench as bench
import gpagg.npae as npae
from gpagg.bench import BenchmarkRow, denormalize_y, emit_csv, parse_csv, write_dataset_csv
from gpagg.cli import main as cli_main
from gpagg.emggm import EmggmConfig
from gpagg.gp import predict as gp_predict

HEADER = "method,M,seed,mae,rmse,train_time_s,predict_time_s,peak_matrix_bytes"


class TestLatentFunction:
    def test_value_at_zero_term_by_term(self):
        # 5x^2 sin(12x) -> 0; (x^3 - 1/2) sin(3x - 1/2) -> 0.5*sin(0.5); 4cos(2x) -> 4
        expected = 0.5 * math.sin(0.5) + 4.0
        assert latent_function(np.array([0.0]))[0] == pytest.approx(expected, abs=1e-15)
        assert latent_function(np.array([0.0]))[0] == pytest.approx(4.23971, abs=5e-6)

    def test_terms_cross_checked_separately(self):
        x = 0.73
        t1 = 5 * x**2 * math.sin(12 * x)
        t2 = (x**3 - 0.5) * math.sin(3 * x - 0.5)
        t3 = 4 * math.cos(2 * x)
        assert latent_function(np.array([x]))[0] == pytest.approx(t1 + t2 + t3, rel=1e-14)


class TestGenerate:
    def test_zero_noise_equals_latent_function(self):
        ds = generate_synthetic(50, (0.0, 1.0), 0.0, seed=3)
        assert np.array_equal(ds.y, latent_function(ds.X[:, 0]))

    def test_deterministic_per_seed(self):
        a = generate_synthetic(20, (0.0, 1.0), 0.2, seed=7)
        b = generate_synthetic(20, (0.0, 1.0), 0.2, seed=7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = generate_synthetic(20, (0.0, 1.0), 0.2, seed=8)
        assert not np.array_equal(a.y, c.y)

    def test_range_respected(self):
        ds = generate_synthetic(200, (-0.2, 1.2), 0.1, seed=0)
        assert ds.X.min() >= -0.2 and ds.X.max() <= 1.2

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, (1.0, 0.0), 0.1, seed=0)


class TestNormalize:
    def test_round_trip(self):
        train = generate_synthetic(100, (0.0, 1.0), 0.2, seed=1)
        test = generate_synthetic(30, (-0.2, 1.2), 0.2, seed=2)
        train_n, test_n, state = normalize(train, test)
        assert np.allclose(denormalize_y(train_n.y, state), train.y, atol=1e-12)
        assert np.allclose(test_n.X * state.x_scale + state.x_mean, test.X, atol=1e-12)

    def test_train_statistics_standardized(self):
        train = generate_synthetic(500, (0.0, 1.0), 0.2, seed=3)
        test = generate_synthetic(50, (0.0, 1.0), 0.2, seed=4)
        train_n, _, _ = normalize(train, test)
        assert train_n.y.mean() == pytest.approx(0.0, abs=1e-12)
        assert train_n.y.std() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(train_n.X.mean(axis=0), 0.0, atol=1e-12)

    def test_already_standardized_is_identity_like(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(2000)
        X = rng.standard_normal((2000, 1))
        train = Dataset(X, (y - y.mean()) / y.std())
        _, _, state = normalize(train, train)
        assert abs(state.y_mean) < 1e-12 and state.y_scale == pytest.approx(1.0, abs=1e-12)

    def test_constant_target_raises(self):
        train = Dataset(np.arange(5.0)[:, None], np.ones(5))
        with pytest.raises(ValueError):
            normalize(train, train)


class TestMetrics:
    def test_perfect_prediction(self):
        assert metrics(np.arange(4.0), np.arange(4.0)) == (0.0, 0.0)

    def test_frozen_arithmetic(self):
        mae, rmse = metrics(np.array([3.0, -4.0]), np.zeros(2))
        assert mae == pytest.approx(3.5, abs=1e-15)
        assert rmse == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mae, rmse = metrics(rng.standard_normal(30), rng.standard_normal(30))
            assert mae <= rmse + 1e-15

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionError):
            metrics(np.zeros(3), np.zeros(4))


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(25, (0.0, 1.0), 0.2, seed=9)
        path = write_dataset_csv(ds, tmp_path / "data.csv")
        again = load_dataset_csv(path)
        assert np.array_equal(again.X, ds.X)
        assert np.array_equal(again.y, ds.y)
        assert path.read_text().splitlines()[0] == "x,y"


def tiny_config(tmp_path, **overrides):
    base = dict(
        n=120,
        n_t=24,
        M_list=(3,),
        methods=("full_gp", "gpoe", "rbcm", "npae", "emggm"),
        seeds=(0, 1),
        emggm=EmggmConfig(max_iters=3),
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestRunBenchmark:
    def test_rows_cover_every_cell_and_hold_invariants(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = run_benchmark(cfg)
        assert len(rows) == len(cfg.seeds) * len(cfg.M_list) * len(cfg.methods)
        for row in rows:
            assert row.mae <= row.rmse + 1e-15
            assert row.train_time_s >= 0 and row.predict_time_s >= 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "emggm_diagnostics.json").exists()

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = run_benchmark(cfg)
        again = parse_csv(tmp_path / "out" / "results.csv")
        assert again == rows

    def test_deterministic_metrics_across_runs(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        rows_a = run_benchmark(cfg_a)
        rows_b = run_benchmark(cfg_b)
        # deterministic up to wall-clock timing columns
        for ra, rb in zip(rows_a, rows_b):
            assert (ra.method, ra.M, ra.seed) == (rb.method, rb.M, rb.seed)
            assert ra.mae == rb.mae
            assert ra.rmse == rb.rmse
            assert ra.peak_matrix_bytes == rb.peak_matrix_bytes

    def test_full_gp_rows_identical_across_M(self, tmp_path):
        cfg = tiny_config(tmp_path, M_list=(2, 3), methods=("full_gp", "gpoe"), seeds=(0,))
        rows = run_benchmark(cfg)
        fg = [r for r in rows if r.method == "full_gp"]
        assert len(fg) == 2
        assert fg[0].mae == fg[1].mae
        assert fg[0].rmse == fg[1].rmse
        assert fg[0].train_time_s == fg[1].train_time_s
        assert fg[0].peak_matrix_bytes == fg[1].peak_matrix_bytes

    def test_npae_peak_is_its_largest_block_not_the_joint(self, tmp_path, monkeypatch):
        sizes = []
        kmeans_partition = bench.kmeans_partition

        def recording_partition(data, M, seed):
            parts = kmeans_partition(data, M, seed)
            sizes.append(max(s.n for s in parts.subsets))
            return parts

        monkeypatch.setattr(bench, "kmeans_partition", recording_partition)
        # the second config's queries span two blocks
        for n, n_t in ((120, 60), (400, 300)):
            sizes.clear()
            cfg = tiny_config(tmp_path, n=n, n_t=n_t, M_list=(2, 6), methods=("npae",), seeds=(0,))
            rows = run_benchmark(cfg)
            assert len(rows) == len(sizes) == 2
            b = min(cfg.n_t, npae.QUERY_BLOCK)
            for row, max_n_i in zip(rows, sizes):
                expected = 8 * max(max_n_i**2, b * row.M**2, max_n_i * b)
                assert row.peak_matrix_bytes == expected < 8 * cfg.n**2

    def test_ci_peak_counts_one_experts_targets_block(self, tmp_path, monkeypatch):
        sizes = []
        kmeans_partition = bench.kmeans_partition

        def recording_partition(data, M, seed):
            parts = kmeans_partition(data, M, seed)
            sizes.append(max(s.n for s in parts.subsets))
            return parts

        monkeypatch.setattr(bench, "kmeans_partition", recording_partition)
        cfg = tiny_config(tmp_path, n=120, n_t=10, M_list=(2, 6), methods=("gpoe",), seeds=(0,))
        rows = run_benchmark(cfg)
        assert len(rows) == len(sizes) == 2
        for row, max_n_i in zip(rows, sizes):
            # predict solves against [k(X_i, X*) | y_i], n_i x (n_t + 1)
            assert row.peak_matrix_bytes == 8 * max(cfg.n_t * row.M, max_n_i * (cfg.n_t + 1))

    def test_grbcm_peak_is_its_largest_block_not_a_merged_expert(self, tmp_path, monkeypatch):
        cells = []
        kmeans_partition = bench.kmeans_partition

        def recording_partition(data, M, seed):
            parts = kmeans_partition(data, M, seed)
            cells.append((parts, seed))
            return parts

        monkeypatch.setattr(bench, "kmeans_partition", recording_partition)
        largest = set()
        for n, n_t in ((120, 10), (400, 300)):
            cells.clear()
            cfg = tiny_config(tmp_path, n=n, n_t=n_t, M_list=(2, 6), methods=("grbcm",), seeds=(0,))
            rows = run_benchmark(cfg)
            assert len(rows) == len(cells) == 2
            for row, (parts, seed) in zip(rows, cells):
                n_b = parts.subsets[baselines.grbcm_base_index(row.M, seed)].n
                max_n_i = max(s.n for s in parts.subsets)
                blocks = {
                    "base": n_b**2,
                    "cross": n_b * max_n_i,
                    "schur": max_n_i**2,
                    "rhs": max(n_b, max_n_i) * (n_t + 1),
                }
                assert row.peak_matrix_bytes == 8 * max(blocks.values())
                largest.add(max(blocks, key=blocks.get))
        # both a square block and a right-hand side set the peak somewhere
        assert "rhs" in largest and largest - {"rhs"}

    def test_failed_cells_listed_in_failures_sidecar(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, M_list=(2, 3), methods=("full_gp", "gpoe", "npae"), seeds=(0,))
        clean = run_benchmark(cfg)
        assert not (tmp_path / "out" / "failures.json").exists()

        def broken(c):
            raise ValueError(f"broken npae at M={c.M}")

        def broken_predict(*args, **kwargs):
            raise FloatingPointError("broken full GP")

        _, shares_preds, peak_rule = bench._AGGREGATORS["npae"]
        monkeypatch.setitem(bench._AGGREGATORS, "npae", (broken, shares_preds, peak_rule))
        monkeypatch.setattr(bench, "predict", broken_predict)
        rows = run_benchmark(cfg)
        failures = json.loads((tmp_path / "out" / "failures.json").read_text())
        expected = []
        for M in (2, 3):
            expected += [
                ("full_gp", M, 0, "FloatingPointError", "broken full GP"),
                ("npae", M, 0, "ValueError", f"broken npae at M={M}"),
            ]
        keys = ("method", "M", "seed", "exception", "message")
        assert failures == [dict(zip(keys, entry)) for entry in expected]
        nan_rows = [(r.method, r.M, r.seed) for r in rows if math.isnan(r.mae)]
        assert nan_rows == [(f["method"], f["M"], f["seed"]) for f in failures]
        # the surviving cells are untouched
        for a, b in zip(clean, rows):
            if a.method == "gpoe":
                assert (a.mae, a.rmse) == (b.mae, b.rmse)
        # a clean rerun into the same directory leaves no stale sidecar
        monkeypatch.undo()
        run_benchmark(cfg)
        assert not (tmp_path / "out" / "failures.json").exists()

    def test_shared_stage_failure_fails_its_cell(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, M_list=(2, 3), methods=bench.METHODS)

        def nan_predict(*args, **kwargs):
            means, variances = gp_predict(*args, **kwargs)
            means[0] = math.nan
            return means, variances

        # collect_predictions runs in every cell's shared stage; the full
        # GP predicts through its own import and needs no partition
        monkeypatch.setattr(baselines, "predict", nan_predict)
        rows = run_benchmark(cfg)
        assert parse_csv(tmp_path / "out" / "results.csv") == rows
        failures = json.loads((tmp_path / "out" / "failures.json").read_text())
        listed = [(f["method"], f["M"], f["seed"]) for f in failures]
        shared = [m for m in cfg.methods if m != "full_gp"]
        assert listed == [(m, M, s) for s in cfg.seeds for M in cfg.M_list for m in shared]
        assert {f["exception"] for f in failures} == {"ValueError"}
        for row in rows:
            assert math.isnan(row.mae) == (row.method != "full_gp")

    def test_unknown_emggm_setting_rejected(self):
        with pytest.raises(TypeError, match="conv_tol"):
            BenchmarkConfig.from_dict({"emggm": {"conv_tol": 1e-3}})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(TypeError, match="make_svg"):
            BenchmarkConfig.from_dict({"make_svg": True})

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, methods=("gpoe", "voting"))

    def test_config_json_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = BenchmarkConfig.from_json(path)
        assert again == cfg


class TestRowCsv:
    def test_nan_rows_survive_round_trip(self, tmp_path):
        rows = [BenchmarkRow("npae", 4, 0, math.nan, math.nan, 1.0, math.nan, 0)]
        path = emit_csv(rows, tmp_path / "r.csv")
        assert parse_csv(path) == rows

    def test_header_pinned(self, tmp_path):
        path = emit_csv([], tmp_path / "empty.csv")
        assert path.read_text() == HEADER + "\n"

    def test_readme_documents_the_written_header(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        header = emit_csv([], tmp_path / "empty.csv").read_text().strip()
        assert f"`bench` writes `results.csv` with the header\n`{header}`" in readme

    def test_row_lines_pinned(self, tmp_path):
        rows = [
            BenchmarkRow("gpoe", 3, 1, 0.1 + 0.2, 1e-17, 2.5e-5, math.nan, 24576),
            BenchmarkRow("npae", 4, 0, math.nan, math.nan, 1.0, math.nan, 0),
        ]
        lines = emit_csv(rows, tmp_path / "r.csv").read_text().splitlines()
        assert lines[1:] == [
            "gpoe,3,1,0.30000000000000004,1e-17,2.5e-05,nan,24576",
            "npae,4,0,nan,nan,1.0,nan,0",
        ]

    @pytest.mark.parametrize("line", ["gpoe,3,0,0.1,0.2,1.0", "gpoe,3,0,0.1,0.2,1.0,2.0,64,extra"])
    def test_wrong_field_count_names_the_line(self, tmp_path, line):
        path = tmp_path / "r.csv"
        path.write_text(f"{HEADER}\ngpoe,2,0,0.1,0.2,1.0,2.0,64\n{line}\n")
        with pytest.raises(ValueError, match="line 3") as info:
            parse_csv(path)
        assert line in str(info.value)

    @pytest.mark.parametrize("method", ["a<b", "voting", "GPOE"])
    def test_unknown_method_names_the_line(self, tmp_path, method):
        # an unknown name would reach the SVG charts unescaped ("a<b" made them malformed XML)
        path = tmp_path / "r.csv"
        line = f"{method},2,0,0.1,0.2,1.0,2.0,64"
        path.write_text(f"{HEADER}\ngpoe,2,0,0.1,0.2,1.0,2.0,64\n{line}\n")
        with pytest.raises(ValueError, match="line 3") as info:
            parse_csv(path)
        assert line in str(info.value)


class TestCli:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        assert cli_main(["generate", "--out", str(tmp_path), "--seed", "5"]) == 0
        ds = load_dataset_csv(tmp_path / "dataset.csv")
        assert ds.n == 2000
        assert "dataset.csv" in capsys.readouterr().out

    def test_bench_and_plot_pipeline(self, tmp_path, capsys):
        cfg = {
            "n": 90,
            "n_t": 16,
            "M_list": [3],
            "methods": ["gpoe", "emggm"],
            "seeds": [0],
            "emggm": {"max_iters": 2},
            "output_dir": str(tmp_path / "bench"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "gpoe" in out and "emggm" in out
        csv_path = tmp_path / "bench" / "results.csv"
        assert csv_path.exists()

        assert cli_main(["plot", str(csv_path), "--out", str(tmp_path / "charts")]) == 0
        for name in ("mae_vs_M.svg", "rmse_vs_M.svg", "time_vs_M.svg"):
            svg = (tmp_path / "charts" / name).read_text()
            assert svg.startswith("<svg")
            assert "polyline" in svg

    def test_flag_overrides(self, tmp_path):
        cfg = {
            "n": 80,
            "n_t": 12,
            "M_list": [2],
            "methods": ["gpoe"],
            "seeds": [0, 1],
            "output_dir": str(tmp_path / "x"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert (
            cli_main(
                [
                    "bench",
                    "--config",
                    str(cfg_path),
                    "--seed",
                    "3",
                    "--methods",
                    "gpoe,emggm",
                    "--lambda",
                    "0.1",
                    "--em-iters",
                    "2",
                    "--out",
                    str(tmp_path / "y"),
                ]
            )
            == 0
        )
        rows = parse_csv(tmp_path / "y" / "results.csv")
        assert {r.method for r in rows} == {"gpoe", "emggm"}
        assert {r.seed for r in rows} == {3}

    def test_nan_lambda_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "nan"
        with pytest.raises(ValueError, match="lambda"):
            cli_main(["bench", "--lambda", "nan", "--methods", "gpoe,emggm", "--out", str(out)])
        assert not (out / "results.csv").exists()
