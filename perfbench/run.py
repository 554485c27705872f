"""pointsaga benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. Inputs are made from ``--seed``. With ``--trace 0`` the
workload's ops run untraced for ``--seconds`` and the end-to-end metrics of
BENCHMARK.json are printed; with ``--trace 1`` every op runs twice, untraced
and then traced, the two outputs must agree bitwise, and the per-module
metrics are printed. The last line of standard output is the result JSON:
``{"correct", "attempted", "failed", "metrics"}``. ``--smoke`` shrinks every
workload to a size that runs in seconds, for the benchmark's own tests.

End-to-end times are in nominal seconds: wall seconds rescaled by the
machine speed that speed.py samples while each set-up and op runs. Their
wall-second medians are printed too, above the result line.

BLAS is limited to nproc threads. Exits 2 without a result when the workload
cannot run here (quad-ld-gate needs 80-bit longdouble) and non-zero when the
program cannot be imported from the checkout.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())



def limit_blas_threads():
    """Cap BLAS at nproc threads; must run before numpy is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def fix_allocator():
    """Keep freed memory in the glibc heap instead of returning it to the OS.

    With the default thresholds, whether a freed n-by-d table is trimmed
    (and its pages faulted in again on the next allocation) depends on the
    order of frees; on a 2-core VM that swung one ridge-large-n op's kernel
    time between 0.01 s and 0.87 s. Returns False when libc has no mallopt.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 2**31 - 1)
                and mallopt(m_mmap_threshold, 32 * 2**20))


def import_program():
    """Import pointsaga from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import pointsaga

    where = Path(pointsaga.__file__).resolve().parent
    if where != ROOT / "src" / "pointsaga":
        raise SystemExit(f"pointsaga imported from {where}, not from this checkout")


def environment(nproc, allocator_fixed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "malloc_thresholds_fixed": allocator_fixed,
        "longdouble_80bit": bool(np.finfo(np.longdouble).nmant == 63),
    }


def timed_setups(w, probe):
    """Nominal seconds of each set-up, and their wall seconds.

    The workload fixes the number of set-ups: the peak RSS grows with it,
    since each set-up frees and allocates the problem again.
    """
    nominal, wall = [], []
    for _ in range(w.setup_repeats):
        _, dt, nominal_dt = probe.time(w.setup)
        wall.append(dt)
        nominal.append(nominal_dt)
    return nominal, wall


def attempt(w, k, label, timer):
    """One op: (outputs, seconds...) as timer gives them, or None on a raise."""
    try:
        return timer(w.op, k)
    except Exception:
        print(f"op {k} ({label}) raised:", file=sys.stderr)
        traceback.print_exc()
        return None


def wall_time(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def end_to_end(w, seconds):
    from speed import SpeedProbe

    probe = SpeedProbe(w.probe_kind)
    setups, setups_wall = timed_setups(w, probe)
    op_times, op_wall, work = [], [], 0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        timed = attempt(w, attempted, "untraced", probe.time)
        attempted += 1
        if timed is None:
            failed += 1
            continue
        out, dt, nominal_dt = timed
        if not w.check(out):
            print(f"op {attempted - 1}: correctness check failed", file=sys.stderr)
            failed += 1
        op_times.append(nominal_dt)
        op_wall.append(dt)
        work += w.work(out)
    if not op_times:
        raise SystemExit("every op raised; no timing to report")
    print(f"failed_frac {failed / attempted} (of {attempted} ops)")
    print(f"work unit: {w.unit_of_work}; timings are medians of {len(setups)} "
          f"set-ups and {len(op_times)} ops, in nominal seconds (speed.py)")
    print(f"wall seconds, not reported as metrics: setup {statistics.median(setups_wall)!r}"
          f", op {statistics.median(op_wall)!r}")
    values = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(op_times),
        "work_per_s": work / sum(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return attempted, failed, _report(values, SPEC["end_to_end"])


def per_layer(w, seconds):
    import numpy as np
    from tracing import Tracer

    tracer = Tracer()
    w.setup()
    reference = getattr(w, "problem", None)
    with tracer.active():
        w.setup()
    if reference is not None and not np.array_equal(
        reference.known_solution, w.problem.known_solution
    ):
        raise SystemExit("the traced set-up built a different problem")

    plain_s, traced_s, control_s, outs = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        k = attempted
        attempted += 1
        plain = attempt(w, k, "untraced", wall_time)
        with tracer.active():
            traced = attempt(w, k, "traced", wall_time)
        if plain is None or traced is None:
            failed += 1
            continue
        (a, ta), (b, tb) = plain, traced
        if not (w.check(a) and w.check(b)):
            print(f"op {k}: correctness check failed", file=sys.stderr)
            failed += 1
        elif not w.same(a, b):
            print(f"op {k}: traced outputs differ from untraced", file=sys.stderr)
            failed += 1
        plain_s.append(ta)
        traced_s.append(tb)
        outs.append(b)
        if hasattr(w, "control_op"):
            control_s.append(w.control_op(k))
    if not outs:
        raise SystemExit("every op raised; no trace to report")

    values = _layer_values(tracer, len(outs))
    values["trace.overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
    values["solver.n_scaling_ratio"] = (
        statistics.median(plain_s) / statistics.median(control_s) if control_s else 0.0
    )
    sweep = hasattr(w, "useful_iter_ratio")
    values["cli.bytes_written"] = (
        statistics.mean(o["bytes_written"] for o in outs) if sweep else 0.0
    )
    values["cli.sweep.useful_iter_ratio"] = (
        statistics.mean(w.useful_iter_ratio(o) for o in outs) if sweep else 0.0
    )
    print(f"traced ops: {len(outs)}; modules run in one process, so waiting "
          "on another module is not applicable")
    return attempted, failed, _report(values, SPEC["per_layer"])


def _report(values, spec):
    """Print and package every metric the spec names, in its order."""
    if set(values) != {m["name"] for m in spec}:
        raise SystemExit(f"computed {sorted(values)}, BENCHMARK.json names "
                         f"{sorted(m['name'] for m in spec)}")
    metrics = {}
    for m in spec:
        value = float(values[m["name"]])
        print(f"{m['name']} {value!r} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def _layer_values(tr, ops):
    """Per-module numbers from the span aggregates; 0 where a module idled.

    Counts are per traced op; times are per call unless named otherwise.
    """

    def mean(name, field="total_ns", scale=1e-3, per=None):
        st = tr.stats(name)
        count = st.calls if per is None else per
        return getattr(st, field) * scale / count if count else 0.0

    iters = tr.stats("solver.step").calls
    subsets = tr.edge("analysis.verify_one_step_contraction", "solver.apply_subset_step")
    ref_calls = tr.stats("analysis.reference_solution").calls
    values = {
        "solver.run.self_us_per_iter": mean("solver.run", "self_ns", per=iters),
        "solver.apply_subset_step.self_us_per_call":
            mean("solver.apply_subset_step", "self_ns"),
        "solver.step.self_us_per_call": mean("solver.step", "self_ns"),
        "analysis.reference_solution.busy_s":
            mean("analysis.reference_solution", scale=1e-9),
        "analysis.reference_solution.grad_passes": (
            tr.edge("analysis.reference_solution", "model.full_gradient") / ref_calls
            if ref_calls else 0.0
        ),
        "model.full_gradient.us_per_call": mean("model.full_gradient"),
        "analysis.verify_one_step_contraction.self_us_per_subset":
            mean("analysis.verify_one_step_contraction", "self_ns", per=subsets),
        "problems.generate.self_s": mean("problems.generate", "self_ns", scale=1e-9),
        "problems.load_libsvm.busy_s": mean("problems.load_libsvm", scale=1e-9),
        "cli.main.self_s": mean("cli.main", "self_ns", scale=1e-9),
        "prox.residual_to_tol_max": tr.residual_to_tol_max,
    }
    for span in ("solver.table_drift", "sampling.sample_k_subset", "analysis.lyapunov",
                 "prox.quadratic_ld", "prox.quadratic", "prox.ridge", "prox.logistic"):
        values[f"{span}.us_per_call"] = mean(span)
        values[f"{span}.calls"] = tr.stats(span).calls / ops
    calls = tr.stats("prox.logistic").calls
    values["prox.logistic.inner_iters_per_call"] = (
        tr.inner_iters.get("prox.logistic", 0) / calls if calls else 0.0
    )
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    allocator_fixed = fix_allocator()
    import_program()
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    env = environment(nproc, allocator_fixed)
    print("env " + json.dumps(env))
    if args.workload == "quad-ld-gate" and not env["longdouble_80bit"]:
        print("quad-ld-gate refuses to run: numpy longdouble is not 80-bit "
              "extended precision, and criterion 2's decay from a 1e200 start "
              "spans more orders of magnitude than float64 holds",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload](SIZES["smoke" if args.smoke else "full"])
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp")
    try:
        w.prepare(args.seed, tmpdir)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(w, args.seconds)
    finally:
        shutil.rmtree(tmpdir)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
