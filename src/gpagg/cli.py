"""Command-line interface: generate datasets, run benchmarks, plot results.

Subcommands:
    generate  write a synthetic dataset CSV (x...,y)
    bench     run a benchmark campaign and write results.csv
    plot      render SVG charts from an existing results.csv
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    BenchmarkConfig,
    generate_synthetic,
    parse_csv,
    render_benchmark_charts,
    run_benchmark,
    write_dataset_csv,
)

FULL_SCALE = {"n": 10_000, "n_t": 1_000, "M_list": (10, 20, 30, 40)}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file mirroring BenchmarkConfig fields")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--full-scale", action="store_true", help="n=10^4, n_t=10^3, M in {10,20,30,40}"
    )
    parser.add_argument("--seed", type=int, help="single seed overriding the config's seed list")


def _load_config(args: argparse.Namespace) -> BenchmarkConfig:
    cfg = BenchmarkConfig.from_json(args.config) if args.config else BenchmarkConfig()
    overrides = dict(FULL_SCALE) if args.full_scale else {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    if getattr(args, "methods", None):
        overrides["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    emggm = {}
    if getattr(args, "lam", None) is not None:
        emggm["lam"] = args.lam if args.lam == "auto" else float(args.lam)
    if getattr(args, "em_iters", None) is not None:
        emggm["max_iters"] = args.em_iters
    return replace(cfg, emggm=replace(cfg.emggm, **emggm), **overrides)


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    data = generate_synthetic(cfg.n, cfg.train_range, cfg.noise_sd, cfg.seeds[0])
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_dataset_csv(data, out / "dataset.csv")
    print(f"wrote {data.n} points to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    rows = run_benchmark(cfg)
    print(f"wrote {len(rows)} rows to {Path(cfg.output_dir) / 'results.csv'}")
    print(f"{'method':>8} {'M':>4} {'median MAE':>12} {'median RMSE':>12} {'median t_pred':>14}")
    for method in cfg.methods:
        for M in cfg.M_list:
            cell = [r for r in rows if r.method == method and r.M == M and math.isfinite(r.mae)]
            if not cell:
                print(f"{method:>8} {M:>4} {'failed':>12}")
                continue
            mae = float(np.median([r.mae for r in cell]))
            rmse = float(np.median([r.rmse for r in cell]))
            t = float(np.median([r.predict_time_s for r in cell]))
            print(f"{method:>8} {M:>4} {mae:>12.5f} {rmse:>12.5f} {t:>13.3f}s")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    rows = parse_csv(args.csv)
    out = args.out or args.csv.parent
    out.mkdir(parents=True, exist_ok=True)
    for path in render_benchmark_charts(rows, out):
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpagg", description="Distributed GP benchmark: local experts plus aggregation."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    _add_common(gen)
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="run a benchmark campaign")
    _add_common(bench)
    bench.add_argument("--methods", help="comma-separated subset of methods to run")
    bench.add_argument("--lambda", dest="lam", help="graphical-lasso penalty, a number or 'auto'")
    bench.add_argument("--em-iters", type=int, help="EM iteration budget")
    bench.set_defaults(func=_cmd_bench)

    plot = sub.add_parser("plot", help="render SVG charts from results.csv")
    plot.add_argument("csv", type=Path, help="path to results.csv")
    plot.add_argument("--out", type=Path, help="output directory (default: alongside the CSV)")
    plot.set_defaults(func=_cmd_plot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
