"""Fast self-test of the benchmark at tiny shapes (``run.py --self-test``).

For every workload it runs the benchmark three times in fresh processes
(untraced once, traced twice) and checks that:
- the last stdout line has exactly the result keys, with no failed call;
- its metrics are exactly those BENCHMARK.json lists, with their units;
- the report carries every end-to-end metric that applies to the
  workload and every per-layer metric, each a finite number with a unit;
- every deterministic figure (counts, MAE, computed matrix sizes) repeats
  exactly across the two traced invocations.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from workloads import TINY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MAE_OF = {"ci": ("gpoe", "rbcm"), "grbcm": ("grbcm",), "npae": ("npae",), "emggm": ("emggm",)}

LAYER_METRICS = (
    "bench.generate_s", "partition.s", "partition.n_i_max", "partition.n_i_min",
    "gp.fit_s", "gp.fit_evals", "gp.eval_s", "gp.restarts_failed", "gp.train_expert_s", "gp.experts_jittered",
    "baselines.collect_s", "baselines.rules_s", "baselines.grbcm_s", "baselines.grbcm_factor_s",
    "baselines.grbcm_factor_calls",
    "npae.s", "npae.s_per_point", "npae.jitter_points", "npae.alloc_peak_mb", "npae.peak_matrix_mb",
    "emggm.s", "emggm.em_iters", "emggm.converged", "emggm.e_step_s", "emggm.m_step_s", "emggm.alloc_peak_mb",
    "glasso.solves", "glasso.sweeps", "glasso.sweeps_max", "glasso.unconverged", "glasso.s",
    "glasso.s_per_sweep", "glasso.dual_gap_max",
    "linalg.jitter_calls", "trace.overhead_s",
)

# Figures that depend only on the inputs, never on the clock.
DETERMINISTIC_UNITS = ("count",)
DETERMINISTIC_NAMES = ("npae.peak_matrix_mb",)


def e2e_required(methods) -> list[str]:
    names = [
        "setup_s", "train_s", "total_s", "predict_s", "peak_rss_mb", "fail_ratio",
        "reference_s", "total_ref", "predict_ref.npae",
    ]
    for m in methods:
        names.append(f"predict_s.{m}")
        names += [f"mae.{out}" for out in MAE_OF[m]]
    return names


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--scale", "tiny",
        "--seed", "7", "--seconds", "0", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_metrics(where: str, metrics: dict, required, problems: list[str]) -> None:
    for name in required:
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"{where}: {name} missing")
        elif not entry.get("unit") or not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {name} has no unit or no finite value: {entry}")


def self_test() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for name, wl in TINY.items():
        runs = {trace: _run(name, trace) for trace in (0, 1)}
        again_report, _ = _run(name, 1)
        for trace, (report, result) in runs.items():
            where = f"{name} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} calls failed: {report['failures']}")
            listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != listed:
                problems.append(f"{where}: emitted {emitted}, BENCHMARK.json lists {listed}")
            _check_metrics(where, report["e2e"], e2e_required(wl.methods), problems)
        report = runs[1][0]
        _check_metrics(f"{name} layers", report["layers"], LAYER_METRICS, problems)
        for key, entry in report["layers"].items():
            if entry["unit"] in DETERMINISTIC_UNITS or key in DETERMINISTIC_NAMES:
                if again_report["layers"][key] != entry:
                    problems.append(f"{name}: {key} {entry['value']} then {again_report['layers'][key]['value']}")
        for key, entry in report["e2e"].items():
            if key.startswith("mae.") and {again_report["e2e"][key]["value"], runs[0][0]["e2e"][key]["value"]} != {entry["value"]}:
                problems.append(f"{name}: {key} differs between invocations")
    print(json.dumps({"self_test": "failed" if problems else "passed", "problems": problems}, indent=2))
    return 1 if problems else 0
