"""The three benchmark workloads: fixed task lists generated from a seed.

Each task calls the public API in-process (``cli.main`` or a library
function) and has a check that compares its outputs against references
computed independently in ``checks.py`` or stored with the benchmark.

* ``grid``     -- the paper's figure maps: per-point closed forms in
                  gaussian/tmsv/thermal/filters, the sweep loop, CSV and SVG.
* ``bell``     -- Bell maximization: the batched Nelder-Mead in ``bell`` does
                  nearly all the work; the same sweep engine runs on
                  expensive points, serially and on two threads.
* ``validate`` -- the time-domain Monte Carlo in ``fieldsim``.

The seed chooses the seeds handed to the program, the thermal occupations of
the thermal grids and which grid rows are checked; the amount of work per
pass does not depend on it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bell_references.json")
WORKLOADS = ("grid", "bell", "validate")

# The ideal TMSV ladder breaks from r = 4 on because D_I D_S - C11^2 - C12^2
# is formed by subtracting numbers near e^{4r}.  The failures stay counted in
# `failed`; they are declared here so that they do not mark the run incorrect.
LADDER_DEFECT = "ideal TMSV at r >= 4: D_I D_S - C^2 cancels catastrophically"


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class Task:
    name: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], list]
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    tasks: list
    items: int
    # counts computed from the task configs, per pass
    computed: dict = field(default_factory=dict)
    # filled in by the checks on every pass
    observed: dict = field(default_factory=dict)


def run_cli(pkg, argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pkg.cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _exit_problems(res: CliResult) -> list:
    if res.rc != 0:
        return [f"exit code {res.rc}: {res.err.strip()[:160]}"]
    return []


def _read_csv(path: str) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def build(name: str, seed: int, workdir: str, pkg) -> Workload:
    return {"grid": _grid, "bell": _bell, "validate": _validate}[name](seed, workdir, pkg)


# --------------------------------------------------------------------- grid

def _grid(seed: int, workdir: str, pkg) -> Workload:
    rng = _rng(seed, "grid")
    n_i = round(float(rng.uniform(0.1, 0.5)), 4)
    n_s = round(float(rng.uniform(0.4, 0.9)), 4)
    sweep_seed = _seed(rng)
    wl = Workload("grid", [], 0)
    grid_axes = ["--axis1", "k_f=0.8:1:81", "--axis2", "r=0:3:121"]

    def sweep_task(tag, argv, n_points, n_checked, matrix, outputs, svg=False):
        out = os.path.join(workdir, f"{tag}.csv")
        svg_path = os.path.join(workdir, f"{tag}.svg")
        argv = ["sweep"] + argv + ["--outputs", ",".join(outputs), "--out", out,
                                    "--seed", str(sweep_seed)]
        if svg:
            argv += ["--svg", svg_path]
        sample = np.sort(rng.choice(n_points, size=n_checked, replace=False))

        def check(res: CliResult) -> list:
            problems = _exit_problems(res)
            if problems:
                return problems
            cols, rows = _read_csv(out)
            wl.observed["csv_bytes"] = wl.observed.get("csv_bytes", 0) + os.path.getsize(out)
            if rows.shape[0] != n_points:
                return [f"{tag}: {rows.shape[0]} rows, expected {n_points}"]
            n_axes = 2 if "--axis2" in argv else 1
            for i in sample:
                params = dict(zip(cols[:n_axes], rows[i, :n_axes]))
                want = checks.spectral_outputs(matrix(params))
                for col in ("e_n", "s_q_opt", "purity"):
                    if col in cols:
                        got = rows[i, cols.index(col)]
                        if not checks.close(got, want[col], rel=1e-8, abs_=1e-10):
                            problems.append(f"{tag} row {i} {params}: {col} = {got!r}, "
                                            f"spectrum gives {want[col]!r}")
            if svg:
                text = open(svg_path).read()
                wl.observed["svg_bytes"] = wl.observed.get("svg_bytes", 0) + len(text.encode())
                if not text.startswith("<svg") or text.count("<rect") < n_points:
                    problems.append(f"{tag}: SVG heatmap is malformed")
            return problems

        wl.tasks.append(Task(tag, n_points, lambda: run_cli(pkg, argv), check))
        wl.items += n_points

    def tmsv_matrix(eta_i, eta_s):
        def matrix(p):
            if "omega_l" in p or "tau_s" in p:
                k, l = checks.step_overlap(1.0, 2.0, p.get("omega_l", 1.0), p.get("tau_s", 2.0))
                p = dict(p, k_f=k, l_f=l, r=1.0)
            overlap = pkg.filters.OverlapFactors(p["k_f"], p.get("l_f", 0.0))
            state = pkg.tmsv.TmsvParams(r=p["r"], eta_i=eta_i, eta_s=eta_s, overlap=overlap)
            return pkg.gaussian.build_covariance(pkg.tmsv.covariance(state)).entries
        return matrix

    def thermal_matrix(eta_i, eta_s):
        def matrix(p):
            state = pkg.thermal.ThermalParams(r=p["r"], n_i=n_i, n_s=n_s,
                                              overlap=pkg.filters.OverlapFactors(p["k_f"], 0.0))
            v = pkg.gaussian.build_covariance(pkg.thermal.covariance(state))
            if eta_i < 1.0 or eta_s < 1.0:
                v = pkg.gaussian.apply_loss(v, eta_i, eta_s)
            return v.entries
        return matrix

    occupations = ["--n-i", repr(n_i), "--n-s", repr(n_s)]
    sweep_task("tmsv_grid",
               ["--model", "tmsv"] + grid_axes + ["--eta-i", "0.9", "--eta-s", "0.98"],
               9801, 40, tmsv_matrix(0.9, 0.98), ("e_n", "s_q_opt"), svg=True)
    sweep_task("thermal_grid", ["--model", "thermal"] + grid_axes + occupations,
               9801, 40, thermal_matrix(1.0, 1.0),
               ("e_n", "s_q_opt", "purity", "zeta", "weight_ratio", "critical_points"))
    sweep_task("lossy_thermal_grid", ["--model", "thermal"] + grid_axes + occupations
               + ["--eta-i", "0.9", "--eta-s", "0.8"],
               9801, 40, thermal_matrix(0.9, 0.8), ("e_n", "s_q_opt", "purity"))
    filters = ["--r", "1", "--family", "step", "--omega-k", "1", "--tau-i", "2"]
    sweep_task("detuning_sweep",
               ["--model", "tmsv", "--axis1", "omega_l=-4:6:501", "--tau-s", "2"] + filters,
               501, 20, tmsv_matrix(1.0, 1.0), ("e_n",))
    sweep_task("tau_sweep",
               ["--model", "tmsv", "--axis1", "tau_s=0.5:6:111", "--omega-l", "1"] + filters,
               111, 20, tmsv_matrix(1.0, 1.0), ("e_n",))

    for r in range(1, 13):
        argv = ["point", "--model", "tmsv", "--r", str(r), "--k-f", "1",
                "--eta-i", "1", "--eta-s", "1"]

        def check(res: CliResult, r=r) -> list:
            problems = _exit_problems(res)
            if problems:
                return problems
            got = json.loads(res.out)["results"]
            want = {"e_n": 2.0 * r, "purity": 1.0, "s_q_opt": math.exp(-2.0 * r)}
            rel = {"e_n": 1e-9, "purity": 1e-9, "s_q_opt": 1e-6}
            return [f"ladder r={r}: {k} = {got[k]!r}, exact {v!r}" for k, v in want.items()
                    if not (isinstance(got[k], float) and checks.close(got[k], v, rel[k]))]

        wl.tasks.append(Task(f"ladder_r{r}", 1, lambda argv=argv: run_cli(pkg, argv), check,
                             known_defect=LADDER_DEFECT if r >= 4 else None))
        wl.items += 1
    return wl


# --------------------------------------------------------------------- bell

def _criterion8_states(pkg) -> list:
    """(label, builder) of the thermal and lossy states of acceptance criterion 8."""
    g, th, tm, ov = pkg.gaussian, pkg.thermal, pkg.tmsv, pkg.filters.OverlapFactors
    states = []
    for n_i in (0.1, 0.5, 1.0):
        for r in (0.3, 0.8, 1.3):
            states.append((f"thermal n_i={n_i} r={r}", lambda n_i=n_i, r=r: g.build_covariance(
                th.covariance(th.ThermalParams(r=r, n_i=n_i, n_s=0.4, overlap=ov(0.95, 0.095))))))
    for eta_s in (0.6, 0.85):
        for r in (0.4, 1.0, 1.6):
            states.append((f"lossy eta_s={eta_s} r={r}", lambda eta_s=eta_s, r=r: g.apply_loss(
                g.build_covariance(tm.covariance(tm.TmsvParams(r=r, overlap=ov(0.9, 0.0)))),
                0.8, eta_s)))
    return states


def bell_states(pkg) -> list:
    """Every directly maximized state, vacuum first."""
    vacuum = ("vacuum", lambda: pkg.gaussian.build_covariance(
        pkg.tmsv.covariance(pkg.tmsv.TmsvParams(r=0.0))))
    return [vacuum] + _criterion8_states(pkg)


SWEEP_RS = [float(r) for r in np.linspace(0.1, 2.0, 20)]


def _bell(seed: int, workdir: str, pkg) -> Workload:
    rng = _rng(seed, "bell")
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    wl = Workload("bell", [], 0, computed={"bell.restarts": 0})
    sweep_seed = _seed(rng)

    def tmsv_entries(r):
        return pkg.gaussian.build_covariance(
            pkg.tmsv.covariance(pkg.tmsv.TmsvParams(r=r))).entries

    def nonlocal_implies_entangled(label, b, v) -> list:
        if b > 2.0 + 1e-6 and checks.spectral_outputs(v)["e_n"] <= 0.0:
            return [f"{label}: B = {b!r} > 2 but E_N = 0"]
        return []

    j1_path = os.path.join(workdir, "bell_jobs1.csv")
    for jobs in (1, 2):
        out = os.path.join(workdir, f"bell_jobs{jobs}.csv")
        argv = ["sweep", "--model", "tmsv", "--axis1", "r=0.1:2:20", "--outputs", "bell_max",
                "--restarts", "16", "--jobs", str(jobs), "--seed", str(sweep_seed), "--out", out]

        def check(res: CliResult, out=out, jobs=jobs) -> list:
            problems = _exit_problems(res)
            if problems:
                return problems
            cols, rows = _read_csv(out)
            wl.observed["csv_bytes"] = wl.observed.get("csv_bytes", 0) + os.path.getsize(out)
            for i, (r, b) in enumerate(rows):
                if not checks.close(b, refs["tmsv_sweep"][i], rel=0.0, abs_=1e-6):
                    problems.append(f"jobs {jobs} r={r}: b_max = {b!r}, "
                                    f"reference {refs['tmsv_sweep'][i]!r}")
                problems += nonlocal_implies_entangled(f"r={r}", b, tmsv_entries(float(r)))
            if jobs == 2:
                with open(j1_path, "rb") as a, open(out, "rb") as b:
                    if a.read() != b.read():
                        problems.append("--jobs 1 and --jobs 2 rows differ")
            return problems

        wl.tasks.append(Task(f"bell_sweep_jobs{jobs}", 20,
                             lambda argv=argv: run_cli(pkg, argv), check))
        wl.items += 20
        wl.computed["bell.restarts"] += 20 * 16

    for label, make in bell_states(pkg):
        cfg = pkg.bell.BellMaxConfig(n_restarts=24, seed=_seed(rng))

        def run(make=make, cfg=cfg):
            v = make()
            return v, pkg.bell.bell_max(v, cfg)

        def check(out, label=label) -> list:
            v, res = out
            want = refs["states"][label]
            problems = []
            if not checks.close(res.b_max, want, rel=0.0, abs_=1e-6):
                problems.append(f"{label}: b_max = {res.b_max!r}, reference {want!r}")
            return problems + nonlocal_implies_entangled(label, res.b_max, v.entries)

        wl.tasks.append(Task(label, 1, run, check))
        wl.items += 1
        wl.computed["bell.restarts"] += 24

    argv = ["bell", "--model", "tmsv", "--r", "0.8", "--restarts", "64", "--seed", str(_seed(rng))]

    def check_readme(res: CliResult) -> list:
        problems = _exit_problems(res)
        if problems:
            return problems
        b = json.loads(res.out)["results"]["b_max"]
        want = refs["states"]["tmsv r=0.8"]
        if not checks.close(b, want, rel=0.0, abs_=1e-6):
            problems.append(f"bell r=0.8: b_max = {b!r}, reference {want!r}")
        return problems + nonlocal_implies_entangled("bell r=0.8", b, tmsv_entries(0.8))

    wl.tasks.append(Task("bell_r0.8", 1, lambda: run_cli(pkg, argv), check_readme))
    wl.items += 1
    wl.computed["bell.restarts"] += 64
    return wl


# ----------------------------------------------------------------- validate

def _lag_cells(support: float, dt: float) -> int:
    m = int(math.floor(support / dt + 1e-9))
    return m + (1 if support - m * dt > 1e-9 * dt else 0)


def _validate(seed: int, workdir: str, pkg) -> Workload:
    rng = _rng(seed, "validate")
    wl = Workload("validate", [], 0, computed={"fieldsim.normal_draws": 0})
    pilot = getattr(pkg.fieldsim, "_PILOT_REALIZATIONS", 0)
    configs = [
        ("thermal_step", ["--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8",
                          "--family", "step", "--tau-i", "2", "--tau-s", "2",
                          "--omega-k", "1", "--omega-l", "0", "--dt", "0.01", "--horizon", "6"],
         200000, 2.0, 0.01, 4),
        ("lossy_tmsv_mixed", ["--model", "tmsv", "--r", "0.6", "--eta-i", "0.9", "--eta-s", "0.8",
                              "--family-i", "step", "--family-s", "exponential",
                              "--tau-i", "2", "--tau-s", "1", "--omega-k", "1", "--omega-l", "1",
                              "--dt", "0.02", "--horizon", "10"],
         50000, 10.0, 0.02, 8),
    ]
    for tag, args, n_real, support, dt, series in configs:
        argv = ["validate"] + args + ["--n-real", str(n_real), "--seed", str(_seed(rng))]
        # normal draws per realization and lag cell: 4 field series, plus one
        # vacuum pair per lossy party; the pilot draws fine and coarse passes
        cells = _lag_cells(support, dt)
        wl.computed["fieldsim.normal_draws"] += (
            n_real * cells * series + 2 * min(pilot, n_real) * 2 * cells * series)

        def check(res: CliResult, tag=tag) -> list:
            problems = _exit_problems(res)
            if problems:
                return problems
            rows = json.loads(res.out)["results"]["blocks"]
            for row in rows:
                z = (row["estimate"] - row["analytic"]) / row["std_error"]
                wl.observed["worst_abs_z"] = max(wl.observed.get("worst_abs_z", 0.0), abs(z))
                if not abs(z) <= 5.0:
                    problems.append(f"{tag} {row['block']}: |z| = {abs(z):.2f} > 5")
            if len(rows) != 4:
                problems.append(f"{tag}: {len(rows)} blocks reported, expected 4")
            return problems

        wl.tasks.append(Task(tag, n_real, lambda argv=argv: run_cli(pkg, argv), check))
        wl.items += n_real
    wl.computed["fieldsim.realizations"] = wl.items
    return wl
