"""Layered benchmark of gpagg: end-to-end figures per workload and a
traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test      # tiny shapes, a few seconds
    python3 perfbench/run.py --reproduce      # ROADMAP's seed-0 counts

The benchmark imports the package from ``src/`` of the checkout it sits
in and fails (exit 2, nothing on stdout) when that source is missing.
BLAS runs single-threaded. Set-up is timed in fresh processes. Passes
over the workload's draws repeat until ``--seconds`` is spent; every
timing is that of the median draw, median over passes, and the gated
ones are also divided by a reference kernel timed alongside each draw
(see ``pipeline.reference_seconds``). With ``--trace 1``
each draw runs twice, back to back: once plain, for the end-to-end
figures and the overhead baseline, and once inside spans and counters,
for the per-layer figures.

The next-to-last stdout line is the full report (environment, every
metric of the workload, self times, memory cross-check, failures); the
last line holds the metrics that BENCHMARK.json lists for the chosen
mode. Traced runs also write their spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy loads: multi-threaded OpenBLAS on small matrices made the
# same objective evaluation take anywhere from 0.13 s to 0.96 s on a
# 2-core machine; one thread took 0.08-0.10 s.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("desk", "serve"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "tiny"), default="bench", help="tiny: self-test shapes")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--reproduce", action="store_true")
    args = p.parse_args(argv)
    if not (args.self_test or args.reproduce or args.workload):
        p.error("--workload is required")
    return args


def import_package():
    """Import gpagg from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gpagg

    if not Path(gpagg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gpagg imported from {gpagg.__file__}, not from {SRC}")
    return gpagg


def setup_seconds(wl_scale: str, workload: str, seed: int, probes: int) -> list[float]:
    """Import + generate + normalize, each in a fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl_scale, workload, str(seed)]
    out = []
    for _ in range(probes):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def blas_info() -> dict:
    import numpy as np

    info = {"threads_requested": int(BLAS_THREADS)}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        info["vendor"] = "unknown"
    return info


def environment() -> dict:
    import importlib.util

    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def contract_metrics(mode: str, values: dict[str, tuple[float, str]]) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with matching units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[mode]
    out = {}
    for entry in spec:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def run_workload(args) -> int:
    from workloads import SCALES

    wl = SCALES[args.scale][args.workload]
    setups = setup_seconds(args.scale, wl.name, args.seed, wl.setup_probes)
    tic = time.perf_counter()
    g = import_package()
    import pipeline
    from tracing import Tracer, instrument

    main_import_s = time.perf_counter() - tic
    tracer = Tracer() if args.trace else None
    draws = pipeline.make_draws(wl, args.seed, tracer or pipeline.NULL)

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        plain = pipeline.PassResult()
        spanned = pipeline.PassResult()
        # In a traced run each draw runs plain and then traced, back to
        # back, so the overhead is measured under the same machine load.
        for k, draw in enumerate(draws):
            run_id = f"{wl.name}:s{args.seed}:p{len(untraced)}:d{k}"
            pipeline.run_draw(wl, draw, plain, run_id=run_id)
            if tracer is not None:
                with instrument(g, tracer):
                    pipeline.run_draw(wl, draw, spanned, tracer, run_id=run_id + ":traced")
        if untraced:
            plain.release()
            spanned.release()
        untraced.append(plain)
        if tracer is not None:
            traced.append(spanned)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    checks = [pipeline.batch_reference_check(wl, draws, untraced[0])]
    outcome = untraced + traced + checks
    attempted = sum(r.attempted for r in outcome)
    failed = sum(r.failed for r in outcome)

    e2e = pipeline.e2e_metrics(wl, untraced)
    e2e["setup_s"] = (statistics.median(setups), "s")
    e2e["fail_ratio"] = (failed / attempted, "1")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "shape": {"n": wl.n, "n_t": wl.n_t, "M": wl.M, "batch": wl.batch, "pinned_hp": wl.pinned_hp},
        "methods": list(wl.methods),
        "draw_seeds": wl.draw_seeds(args.seed),
        "passes": len(untraced),
        "env": environment(),
        "setup_s_probes": setups,
        "main_import_s": main_import_s,
        "e2e": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "call_latency_s": {
            m: {"median": statistics.median(v), "max": max(v), "calls": len(v)}
            for m, v in untraced[0].call_s.items()
        },
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in outcome for f in r.failures][:20],
    }
    if tracer is not None:
        eval_s = statistics.fmean(pipeline.eval_seconds(t) for t in traced[0].trained)
        memory = pipeline.memory_crosscheck(wl, draws[0], traced[0].trained[0])
        layers = pipeline.layer_metrics(wl, tracer, traced, untraced, eval_s, memory)
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["self_time_s_per_draw"] = pipeline.self_times(wl, tracer, len(traced))
        report["memory_crosscheck"] = memory
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{wl.name}-seed{args.seed}-{args.scale}-spans.json"
        spans_path.write_text(json.dumps({"report": report, "spans": tracer.dump()}), encoding="utf-8")
        metrics = contract_metrics("per_layer", layers)
    else:
        metrics = contract_metrics("end_to_end", e2e)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ROADMAP's measured state at seed 0 (one draw at campaign size).
ROADMAP_COUNTS = {
    "desk": {"gp.fit_evals": 49},
    "race": {"glasso.solves": 21, "glasso.sweeps": 4624, "emggm.em_iters": 20, "emggm.converged": 0},
}


def reproduce() -> int:
    """Count ROADMAP's seed-0 figures; exit 1 and show both when one differs."""
    from workloads import ROADMAP

    g = import_package()
    import pipeline
    from tracing import Tracer, instrument

    rows = {}
    for name, wl in ROADMAP.items():
        draws = pipeline.make_draws(wl, 0)
        tracer = Tracer()
        res = pipeline.PassResult()
        with instrument(g, tracer):
            pipeline.run_draw(wl, draws[0], res, tracer, run_id=f"roadmap:{name}")
        measured = {
            "gp.fit_evals": tracer.counts["gp.lml_and_grad_calls"] / wl.M,
            "glasso.solves": tracer.counts["glasso.solves"],
            "glasso.sweeps": tracer.counts["glasso.sweeps"],
            "emggm.em_iters": tracer.counts["emggm.em_iters"],
            "emggm.converged": tracer.counts["emggm.converged"],
        }
        expected = ROADMAP_COUNTS[name]
        rows[name] = {
            "shape": {"n": wl.n, "n_t": wl.n_t, "M": wl.M},
            "expected": expected,
            "measured": {k: measured[k] for k in expected},
            "match": all(measured[k] == v for k, v in expected.items()),
            "fit_s": tracer.total("gp.fit"),
            "emggm_s": tracer.total("emggm"),
            "glasso_s": tracer.total("glasso.solve"),
        }
    print(json.dumps({"reproduce": rows, "env": environment()}, indent=2))
    return 0 if all(r["match"] for r in rows.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gpagg" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gpagg'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.self_test()
    if args.reproduce:
        return reproduce()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
