"""Workload shapes for the layered benchmark.

Plain data only: the setup probe imports this module before it times
``import gpagg``, so nothing here may import numpy or the package.

Shapes are sized so that one run of every workload fits the benchmark's
time budget on a 2-core machine with single-threaded OpenBLAS, and so
that the end-to-end figures are steady across workload seeds. A run
takes the median over several independent data draws because the
graphical lasso's sweep count, and so EMGGM's cost, varies severalfold
from one draw to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

# Offset between the training and test random streams; the same one
# ``gpagg.bench.run_benchmark`` uses, so draw seed 0 reproduces its
# campaign seed 0.
TEST_SEED_OFFSET = 10_000_019

# Draw k of a run with workload seed s uses data seed DRAW_STRIDE * s + k.
DRAW_STRIDE = 1000

TRAIN_RANGE = (0.0, 1.0)
TEST_RANGE = (-0.2, 1.2)
NOISE_SD = 0.2

# Hyperparameters pinned on ``serve`` (normalized units): a one-off
# shared fit at n=10^4, seed 0.
SERVE_HP = (0.627, 2.01, 0.00483)

# Loose sanity ceilings on MAE in original units. They catch garbage
# output, not the criterion-1 ordering: EMGGM sits near 1.5-2.0 today
# and the conditional-independence rules, GRBCM and NPAE near 0.2-0.6.
MAE_CEILING = {"gpoe": 1.5, "rbcm": 1.5, "grbcm": 1.5, "npae": 1.5, "emggm": 4.0}

# Batched serve predictions must match one call over every query.
BATCH_MATCH_RTOL = 1e-9

@dataclass(frozen=True)
class Workload:
    """One benchmark workload: data shape, methods and how queries arrive.

    ``batch`` is the number of queries per method call (None: one call
    over every query). ``pinned_hp`` skips the shared fit. ``draws``
    independent data sets are processed per pass; ``setup_probes`` fresh
    processes time the set-up.
    """

    name: str
    n: int
    n_t: int
    M: int
    methods: tuple[str, ...]
    draws: int
    batch: int | None = None
    pinned_hp: tuple[float, float, float] | None = None
    setup_probes: int = 5

    def draw_seeds(self, seed: int) -> list[int]:
        return [DRAW_STRIDE * seed + k for k in range(self.draws)]


# Why each workload exists (BENCHMARK.json repeats this in one line each):
# - desk: the shared hyperparameter fit does three quarters of the work,
#   so fit optimisations show here; every aggregator runs too, EMGGM and
#   its graphical lasso included.
# - serve: fit once, predict many times. Hyperparameters are pinned and
#   the queries arrive as 8 consecutive batches of 50 (closed loop, one
#   caller), so the per-call set-up costs of NPAE and GRBCM show here.
# A third workload, EMGGM against NPAE at M=20, was dropped: EMGGM's cost
# per draw ranges from 0.5 s to 4.8 s over 40 draws, and no number of
# draws that fits in one run made its figures steady (see README.md).
WORKLOADS = {
    "desk": Workload("desk", n=2000, n_t=200, M=5, methods=("ci", "grbcm", "npae", "emggm"), draws=4),
    "serve": Workload(
        "serve", n=5000, n_t=400, M=20, methods=("ci", "grbcm", "npae"), draws=1, batch=50,
        pinned_hp=SERVE_HP,
    ),
}

# Small shapes for the benchmark's self-test: every code path, a second each.
TINY = {
    "desk": Workload("desk", n=240, n_t=30, M=3, methods=WORKLOADS["desk"].methods, draws=2, setup_probes=1),
    "serve": Workload(
        "serve", n=300, n_t=40, M=4, methods=WORKLOADS["serve"].methods, draws=1, batch=10,
        pinned_hp=SERVE_HP, setup_probes=1,
    ),
}

# The ROADMAP campaigns at full size, one draw, for ``run.py --reproduce``.
ROADMAP = {
    "desk": Workload("desk", n=2000, n_t=200, M=5, methods=(), draws=1),
    "race": Workload("race", n=2000, n_t=1000, M=20, methods=("emggm",), draws=1),
}

SCALES = {"bench": WORKLOADS, "tiny": TINY}
