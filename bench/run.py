"""Benchmark of filtered_tms: one workload per run, in-process, outputs checked.

    python3 bench/run.py --workload grid|bell|validate|all --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); the package is
imported from the checkout's ``src/``.  A run first measures set-up
(fresh-interpreter imports of ``filtered_tms.cli`` plus input generation),
then repeats passes over the workload's task list for about S seconds and
checks every output.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from span tracing, which alternates traced and untraced passes.
Run artifacts go to ``.bench_out/`` in the checkout.

The gated timings are rescaled to a reference host speed (``hostspeed.py``):
a shared host runs the same code up to about 1.5 times slower for stretches
of a fraction of a second to minutes.  ``norm_wall_s`` sums each task's
time divided by the host factor sampled while it ran, and ``setup_s`` is
the set-up time divided by the factor the import children sampled.  The
raw times are printed and stored beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import spans
import workloads
from hostspeed import CAL_REF_S, HostClock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
# The child notes when the import is done (perf_counter is the system-wide
# monotonic clock), then samples its own CPU's speed with the kernel.
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import filtered_tms.cli; "
               "done = time.perf_counter(); sys.path.insert(0, sys.argv[2]); import hostspeed; "
               "print(done, hostspeed.calibrate(int(sys.argv[3])) / int(sys.argv[3]))")
# kernel samples taken by each timed import child
SETUP_CAL = 3

# (module.function) names whose calls and self time are reported per layer
FUNCTIONS = (
    "gaussian.CovarianceMatrix", "gaussian.build_covariance", "gaussian.check_blocks",
    "gaussian.apply_loss", "gaussian.purity", "gaussian.log_negativity",
    "gaussian.log_negativity_blocks", "gaussian.optimized_squeezing",
    "tmsv.covariance", "tmsv.critical_points", "thermal.covariance", "thermal.critical_points",
    "filters.overlap_closed_form", "filters.overlap_numeric", "filters.sample_time",
    "sweep.run_sweep", "sweep.evaluate_point", "sweep.write_csv", "sweep.format_number",
    "svg.render_heatmap", "bell.bell_max", "fieldsim.simulate", "cli.main",
)
TASK_SPAN = f"{spans.HARNESS}.task"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def time_import() -> tuple[float, float]:
    """Time to a fresh interpreter's finished import, and the child's kernel time."""
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC, BENCH, str(SETUP_CAL)],
                         cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    return float(out[0]) - start, float(out[1])


def import_package():
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("filtered_tms")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"filtered_tms imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("filtered_tms.cli")
    return pkg


def run_pass(wl, tracer: spans.Tracer, traced: bool) -> dict:
    """One pass over the task list; only the program calls are timed.

    Untraced passes also sample the host speed (``HostClock``); traced
    passes do not, so that no span contains a sample.
    """
    wl.observed = {}
    task_nid = tracer.name_id(TASK_SPAN)
    wall, task_s, failures, completed = 0.0, {}, [], 0
    clock = HostClock()
    for task in wl.tasks:
        tracer.active = traced
        if not traced:
            clock.start()
        start = perf_counter()
        try:
            out = tracer.call(task_nid, task.run, (), {}) if traced else task.run()
            error = None
        except Exception as exc:  # a task that raises is counted as failed
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            sampled = clock.stop()
        elapsed = perf_counter() - start - sampled
        tracer.active = False
        wall += elapsed
        task_s[task.name] = elapsed
        if not traced:
            clock.finish(elapsed)
        if error is None:
            try:
                problems = task.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            failures.append((task, problems))
        else:
            completed += task.items
    return {"wall": wall, "task_s": task_s, "failures": failures, "completed": completed,
            "norm_wall": None if traced else clock.normalized()}


def layer_metrics(wl, tracer: spans.Tracer, sp: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    names = tracer.names
    nid = {n: i for i, n in enumerate(names)}
    self_s = spans.self_times(sp)
    dur = sp["t1"] - sp["t0"]
    calls = np.bincount(sp["name"], minlength=len(names))
    self_by = np.bincount(sp["name"], weights=self_s, minlength=len(names))
    m = {}
    for fn in FUNCTIONS:
        i = nid.get(fn)
        m[f"{fn}.calls"] = int(calls[i]) if i is not None else 0
        m[f"{fn}.self_s"] = float(self_by[i]) if i is not None else 0.0
    for layer in spans.LAYERS + (spans.HARNESS,):
        m[f"{layer}.self_s"] = float(sum(self_by[i] for n, i in nid.items()
                                         if n.startswith(layer + ".")))

    def durations(name):
        return dur[sp["name"] == nid[name]] if name in nid else np.empty(0)

    parents = spans.parent_names(sp)
    in_sweep = (sp["name"] == nid.get("sweep.evaluate_point", -2)) & (
        parents == nid.get("sweep.run_sweep", -2))
    bell_p50 = durations("bell.bell_max")
    bell_results = tracer.returns["bell.bell_max"]
    sim_s = float(durations("fieldsim.simulate").sum())
    realizations = wl.computed.get("fieldsim.realizations", 0)
    m.update({
        "gaussian.matrices_per_point": m["gaussian.CovarianceMatrix.calls"] / wl.items,
        "sweep.points": int(in_sweep.sum()),
        "sweep.write_csv.bytes": wl.observed.get("csv_bytes", 0),
        "svg.render_heatmap.bytes": wl.observed.get("svg_bytes", 0),
        "bell.bell_max.p50_s": float(np.median(bell_p50)) if bell_p50.size else 0.0,
        "bell.restarts": wl.computed.get("bell.restarts", 0),
        "bell.converged_frac": (sum(r.converged for r in bell_results) / len(bell_results)
                                if bell_results else 0.0),
        "fieldsim.realizations_per_s": realizations / sim_s if sim_s > 0 else 0.0,
        "fieldsim.normal_draws": wl.computed.get("fieldsim.normal_draws", 0),
        "fieldsim.worst_abs_z": wl.observed.get("worst_abs_z", 0.0),
        "trace.wall_s": wall,
        "trace.accounted_frac": float(self_s.sum()) / wall,
    })
    bell_results.clear()
    return m


UNITS = {
    "setup_s": "s", "norm_wall_s": "s", "norm_items_per_s": "1/s", "ok_frac": "1",
    "peak_rss_mb": "MiB", "raw_setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
    "host_factor": "1",
    "calls": "count", "self_s": "s", "bytes": "bytes", "p50_s": "s", "overhead_s": "s",
    "matrices_per_point": "count/point", "points": "count", "restarts": "count-computed",
    "normal_draws": "count-computed", "realizations_per_s": "1/s", "jobs2_speedup": "1",
    "converged_frac": "1", "worst_abs_z": "1", "accounted_frac": "1",
}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True,
                        help="'all' runs every workload in its own process, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "filtered_tms", "__init__.py")):
        sys.stderr.write(f"error: no filtered_tms package under {SRC}\n")
        return 2
    if args.workload == "all":
        return max(subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for w in workloads.WORKLOADS)
    pkg = import_package()
    env = environment()

    time_import()  # the first import may compile bytecode; users pay that once
    import_s, import_host = zip(*(time_import() for _ in range(SETUP_REPEATS)))
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            wl = workloads.build(args.workload, args.seed, workdir, pkg)
            gen_s.append(perf_counter() - start)
        raw_setup_s = statistics.median(import_s) + statistics.median(gen_s)
        setup_s = raw_setup_s / (statistics.mean(import_host) / CAL_REF_S)

        tracer = spans.Tracer()
        if args.trace:
            tracer.install(pkg)
        passes, traced_spans, layer = [], [], []
        budget_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            same = [p["elapsed"] for p in passes if p["traced"] == traced]
            if len(passes) >= 2 and same and (
                    perf_counter() - budget_start + statistics.median(same) > args.seconds):
                break
            start = perf_counter()
            p = run_pass(wl, tracer, traced)
            p["traced"] = traced
            if traced:
                sp = tracer.drain()
                layer.append(layer_metrics(wl, tracer, sp, p["wall"]))
                traced_spans.append(sp)
            p["elapsed"] = perf_counter() - start
            passes.append(p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    attempted = len(passes) * len(wl.tasks)
    failures = [(t, probs) for p in passes for t, probs in p["failures"]]
    unexpected = [(t, probs) for t, probs in failures if t.known_defect is None]
    for task, probs in {t.name: (t, pr) for t, pr in failures}.values():
        tag = f"known defect ({task.known_defect})" if task.known_defect else "FAILED"
        sys.stderr.write(f"{task.name}: {tag}: {probs[0]}\n")

    walls = [p["wall"] for p in plain]
    wall_s = statistics.median(walls)
    raw = {
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "items_per_s": statistics.median(p["completed"] / p["wall"] for p in plain),
        "host_factor": statistics.median(p["wall"] / p["norm_wall"] for p in plain),
    }
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        j1 = [p["task_s"].get("bell_sweep_jobs1") for p in plain]
        j2 = [p["task_s"].get("bell_sweep_jobs2") for p in plain]
        metrics["sweep.jobs2_speedup"] = (statistics.median(a / b for a, b in zip(j1, j2))
                                          if j1[0] is not None else 0.0)
    else:
        metrics = {
            "setup_s": setup_s,
            "norm_wall_s": statistics.median(p["norm_wall"] for p in plain),
            "norm_items_per_s": statistics.median(p["completed"] / p["norm_wall"] for p in plain),
            "ok_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  environment=env, passes=len(passes), traced_passes=len(layer),
                  items_per_pass=wl.items, failed_frac=len(failures) / attempted,
                  pass_wall_s=walls, pass_norm_wall_s=[p["norm_wall"] for p in plain], **raw,
                  failures=sorted({t.name for t, _ in failures}))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if traced_spans:
        cols = {k: np.concatenate([sp[k] for sp in traced_spans]) for k in traced_spans[0]}
        np.savez_compressed(os.path.join(OUT, f"spans-{tag}.npz"),
                            names=np.array(tracer.names), **cols)

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(layer)} traced), {wl.items} items per pass, {attempted} tasks attempted, "
          f"{len(failures)} failed ({len(failures) - len(unexpected)} known defects)")
    print(f"  {'failed_frac':32s} {len(failures) / attempted:.6g} 1")
    for k, v in raw.items():
        print(f"  {k:32s} {v:.6g} {unit_of(k)}")
    for k, v in result["metrics"].items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
