"""Spans around the calls one pointsaga module makes into the next.

The tracer replaces module attributes (and the component classes' ``prox``)
with timing wrappers for the duration of a ``with tracer.active():`` block and
restores the originals afterwards, so untraced runs execute the unmodified
program. Nothing under ``src/`` is edited.

Spans are aggregated in memory per name: calls, total time, self time (total
minus the time of child spans) and, per (parent, child) pair, the number of
calls. The wrapper's own bookkeeping is charged to no span's self time: a
parent is charged the child's whole wrapper interval as child time.
"""

import contextlib
import time

import numpy as np

from pointsaga import analysis, cli, model, problems, solver
from pointsaga.problems import (
    LogisticRidgeComponent,
    QuadraticComponent,
    RankOneRidgeComponent,
)
from pointsaga.prox import TOL_PROX

# (owner, attribute, span name). Several owners may share one name when the
# same function is reached through different modules.
TARGETS = (
    (solver, "run", "solver.run"),
    (cli, "run", "solver.run"),
    (solver, "initialize", "solver.initialize"),
    (solver, "step", "solver.step"),
    (solver, "sample_k_subset", "sampling.sample_k_subset"),
    (solver, "apply_subset_step", "solver.apply_subset_step"),
    (solver, "table_drift", "solver.table_drift"),
    (analysis, "lyapunov", "analysis.lyapunov"),
    (analysis, "verify_one_step_contraction", "analysis.verify_one_step_contraction"),
    (analysis, "reference_solution", "analysis.reference_solution"),
    (problems, "reference_solution", "analysis.reference_solution"),
    (cli, "reference_solution", "analysis.reference_solution"),
    (analysis, "full_gradient", "model.full_gradient"),
    (model, "full_gradient", "model.full_gradient"),
    (problems, "gen_quadratic", "problems.generate"),
    (problems, "gen_ridge_regression", "problems.generate"),
    (problems, "load_libsvm", "problems.load_libsvm"),
    (cli, "load_libsvm", "problems.load_libsvm"),
    (cli, "main", "cli.main"),
)

PROX_FAMILIES = (
    (RankOneRidgeComponent, "ridge"),
    (LogisticRidgeComponent, "logistic"),
    (QuadraticComponent, "quadratic"),
)


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Per-name span aggregates plus prox observations for one traced run."""

    def __init__(self):
        self.spans = {}
        self.edges = {}  # (parent name, child name) -> calls
        self.inner_iters = {}  # prox span name -> summed ProxResult.inner_iters
        self.residual_to_tol_max = 0.0
        self._stack = []  # [child_ns, name] per open span

    def stats(self, name):
        return self.spans.get(name) or SpanStats()

    def edge(self, parent, child):
        return self.edges.get((parent, child), 0)

    def _wrap(self, fn, name, observe=None):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        edges = self.edges

        def wrapper(*args, **kwargs):
            t_in = clock()
            span = name(args) if callable(name) else name
            frame = [0, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = spans.get(span)
                if st is None:
                    st = spans[span] = SpanStats()
                st.calls += 1
                st.total_ns += dt
                st.self_ns += dt - frame[0]
                parent = stack[-1] if stack else None
                key = (parent[1] if parent else None, span)
                edges[key] = edges.get(key, 0) + 1
            if observe is not None:
                observe(span, args, result)
            if parent is not None:
                parent[0] += clock() - t_in
            return result

        return wrapper

    def _observe_prox(self, span, args, result):
        self.inner_iters[span] = self.inner_iters.get(span, 0) + result.inner_iters
        # The ratio needs ||z|| only when the residual alone could beat the
        # current maximum, since 1 + ||z|| >= 1.
        res = float(result.residual)
        if res > self.residual_to_tol_max * TOL_PROX:
            z = args[2]
            ratio = res / (TOL_PROX * (1.0 + float(np.sqrt(z @ z))))
            self.residual_to_tol_max = max(self.residual_to_tol_max, ratio)

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, span in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            for cls, family in PROX_FAMILIES:
                original = vars(cls)["prox"]
                saved.append((cls, "prox", original))
                if cls is QuadraticComponent:
                    span = _quadratic_span
                else:
                    span = f"prox.{family}"
                setattr(cls, "prox", self._wrap(original, span, self._observe_prox))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _quadratic_span(args):
    # args = (component, gamma, z); the working dtype is that of z.
    return "prox.quadratic_ld" if args[2].dtype == np.longdouble else "prox.quadratic"
