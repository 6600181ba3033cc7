"""Spans and counters for the benchmark's traced runs.

A span records a name, start, end, its parent span and a run id; spans
stay in memory and are written out when the benchmark ends. Self time
is a span's duration minus the durations of its children (spans are
strictly nested: the benchmark is single-threaded).

The benchmark opens spans around its own calls into each layer. Work a
layer does through another module is only visible at that module's
attribute, so ``instrument`` wraps those attributes for the length of a
traced draw and restores them afterwards. Nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class NullTracer:
    """Stand-in for untraced passes: spans and counts cost nothing."""

    run_id = ""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, k: float = 1) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = Span(name, time.perf_counter(), math.nan, parent, self.run_id)
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: defaultdict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.end - s.start - child_time[i]
        return dict(out)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def instrument(g, tracer: Tracer):
    """Wrap layer-boundary attributes of the imported package ``g``.

    Hooks (an AttributeError names a hook the package no longer has):
    - gp._lml_and_grad: one call per partition per objective evaluation;
    - gp.minimize: one call per optimizer restart, with its status;
    - baselines.train_expert: GRBCM's merged-expert factorizations;
    - chol_jitter as bound in gp, npae and emggm: jitter fallbacks;
    - emggm.glasso_solve, emggm.e_step, emggm.m_step: the EM loop.
    """
    patches = []

    def patch(module, attr, make):
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        patches.append((module, attr, original))

    def spanned(name, counter=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    if counter:
                        tracer.count(counter)
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def minimize(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("gp.minimize"):
                try:
                    res = fn(*args, **kwargs)
                except Exception:
                    tracer.count("gp.restarts_failed")
                    raise
            if res.status != 0 or not math.isfinite(float(res.fun)):
                tracer.count("gp.restarts_failed")
            return res

        return wrapper

    def chol_jitter(caller):
        def make(fn):
            def wrapper(A):
                with tracer.span("linalg.chol_jitter"):
                    L, jitter = fn(A)
                if jitter > 0:
                    tracer.count("linalg.jitter_calls")
                    tracer.count(f"linalg.jitter_calls.{caller}")
                return L, jitter

            return wrapper

        return make

    def glasso_solve(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("glasso.solve"):
                est = fn(*args, **kwargs)
            tracer.count("glasso.solves")
            tracer.count("glasso.sweeps", est.n_sweeps)
            tracer.maximum("glasso.sweeps_max", est.n_sweeps)
            tracer.maximum("glasso.dual_gap_max", abs(est.dual_gap))
            if not est.converged:
                tracer.count("glasso.unconverged")
            return est

        return wrapper

    try:
        patch(g.gp, "_lml_and_grad", spanned("gp.lml_and_grad", "gp.lml_and_grad_calls"))
        patch(g.gp, "minimize", minimize)
        patch(g.baselines, "train_expert", spanned("baselines.train_expert", "baselines.train_expert_calls"))
        for caller in ("gp", "npae", "emggm"):
            patch(getattr(g, caller), "chol_jitter", chol_jitter(caller))
        patch(g.emggm, "glasso_solve", glasso_solve)
        patch(g.emggm, "e_step", spanned("emggm.e_step"))
        patch(g.emggm, "m_step", spanned("emggm.m_step"))
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
