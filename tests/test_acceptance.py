"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them inline; they also appear in captured output on failure).

Criterion 8 checks the swept Bell maximum of the ideal two-mode squeezed
vacuum over r in linspace(0.1, 2.0, 20).  Its window [2.17, 2.21] is the
saturation value of the classic origin-pinned settings family (each
party's first setting at the phase-space origin; Banaszek & Wodkiewicz,
PRA 58, 4345 (1998): 2.19), so it is applied to that family's swept
maximum, computed by the scipy oracle ``restricted_bw_max`` independently
of ``bell_max``.  The eight-coordinate ``bell_max`` sweep searches a
superset of that family: it must reach at least the origin-pinned value at
every r, and its swept maximum must match the full-family saturation value
2.3242 (Jeong, Son, Kim & Kim, PRA 67, 012106 (2003): 2.32) to 2e-3.
"""

import math
import time

import numpy as np
import pytest

from filtered_tms import fieldsim, thermal, tmsv
from filtered_tms.bell import BellMaxConfig, bell_grid_max, bell_max
from filtered_tms.fieldsim import SimConfig, simulate
from filtered_tms.filters import (
    FilterFamily,
    FilterSpec,
    OverlapFactors,
    overlap_closed_form,
    overlap_numeric,
)
from filtered_tms.gaussian import (
    apply_loss,
    build_covariance,
    log_negativity,
    optimized_squeezing,
    purity,
)
from filtered_tms.sweep import AxisSpec, SweepConfig, run_sweep
from oracles import (
    bisect_root,
    golden_min,
    min_variance_numeric,
    random_thermal_params,
    random_tmsv_params,
)
from test_bell import restricted_bw_max


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE CRITERION {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def tmsv_blocks(r, eta_i=1.0, eta_s=1.0, k_f=1.0):
    return tmsv.covariance(
        tmsv.TmsvParams(r=r, eta_i=eta_i, eta_s=eta_s, overlap=OverlapFactors(k_f, 0.0))
    )


def test_criterion_01_overlap_kernels():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        family = FilterFamily.STEP if rng.uniform() < 0.5 else FilterFamily.EXPONENTIAL
        tau_i, tau_s = (float(t) for t in rng.uniform(0.1, 20.0, size=2))
        omega = float(rng.uniform(-5.0, 5.0))
        delta = float(rng.uniform(0.0, 10.0))
        a = FilterSpec(family, omega, tau_i)
        b = FilterSpec(family, omega - delta, tau_s)
        num = overlap_numeric(a, b, tol=1e-10)
        ref = overlap_closed_form(a, b)
        worst = max(worst, abs(num.k_f - ref.k_f), abs(num.l_f - ref.l_f))
    ok = worst <= 1e-7

    ident = overlap_closed_form(FilterSpec(FilterFamily.STEP, 1.0, 2.0),
                                FilterSpec(FilterFamily.STEP, 1.0, 2.0))
    ok &= ident.k_f == 1.0 and ident.l_f == 0.0
    step = overlap_closed_form(FilterSpec(FilterFamily.STEP, 1.0, 2.0),
                               FilterSpec(FilterFamily.STEP, 0.0, 2.0))
    ok &= abs(step.k_f - 0.454649) <= 1e-6 and abs(step.l_f - 0.708073) <= 1e-6
    expo = overlap_closed_form(FilterSpec(FilterFamily.EXPONENTIAL, 1.0, 1.0),
                               FilterSpec(FilterFamily.EXPONENTIAL, 1.0, 2.0))
    ok &= abs(expo.k_f - 6.0 * math.sqrt(2.0) / 9.0) <= 1e-12 and expo.l_f == 0.0

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, ok, f"200 random pairs, worst |closed - numeric| = {worst:.2e}, "
                  f"runtime {elapsed:.2f} s")


def test_criterion_02_ideal_tmsv_law():
    worst = 0.0
    for r in np.linspace(0.0, 2.0, 20):
        e_n = log_negativity(tmsv_blocks(float(r))).e_n
        worst = max(worst, abs(e_n - 2.0 * float(r)))
    report(2, worst <= 1e-9, f"E_N = 2r over 20 points in [0, 2], worst |dE| = {worst:.2e}")


def test_criterion_03_entanglement_cutoff():
    worst = 0.0
    for k_f in (0.5, 0.8, 0.95):
        for eta_i in (0.6, 0.9, 1.0):
            for eta_s in (0.6, 0.9, 1.0):
                def gap(r):
                    return 0.5 - log_negativity(
                        tmsv_blocks(float(r), eta_i, eta_s, k_f)
                    ).nu_minus

                root = bisect_root(gap, 0.4 * math.atanh(k_f), 6.0 * math.atanh(k_f),
                                   tol=1e-12)
                worst = max(worst, abs(root - math.atanh(k_f)))
    report(3, worst <= 1e-6,
           f"bisection root vs atanh(K_f) over 27 (K_f, eta) combos, worst = {worst:.2e}")


def test_criterion_04_extremum_formulas():
    rng = np.random.default_rng(1004)
    worst_tmsv_en = worst_tmsv_sq = 0.0
    for _ in range(50):
        p = random_tmsv_params(rng)
        cp = tmsv.critical_points(p)
        argmax = golden_min(
            lambda r: -log_negativity(
                tmsv_blocks(float(r), p.eta_i, p.eta_s, p.overlap.k_f)
            ).e_n,
            1e-6, cp.r_ucf_en * (1.0 - 1e-9), tol=1e-9,
        )
        worst_tmsv_en = max(worst_tmsv_en, abs(cp.r_max_en - argmax))

        def eq_var(r):
            b = tmsv_blocks(float(r), p.eta_i, p.eta_s, p.overlap.k_f)
            return 0.5 * (b.d_i + b.d_s) - math.hypot(b.c11, b.c12)

        argmin = golden_min(eq_var, 1e-6, max(4.0, 1.5 * cp.r_ucf_sq), tol=1e-9)
        worst_tmsv_sq = max(worst_tmsv_sq, abs(cp.r_max_sq - argmin))

    worst_th = 0.0
    for _ in range(50):
        p = random_thermal_params(rng, require_window=True)
        cp = thermal.critical_points(p)
        argmax = golden_min(
            lambda r: -log_negativity(
                thermal.covariance(thermal.ThermalParams(float(r), p.n_i, p.n_s, p.overlap))
            ).e_n,
            cp.r_lcf_en, cp.r_ucf_en, tol=1e-9,
        )
        worst_th = max(worst_th, abs(cp.r_max_en - argmax))

    ok = worst_tmsv_en <= 1e-5 and worst_tmsv_sq <= 1e-5 and worst_th <= 1e-5
    report(4, ok, "closed-form extremizers vs golden section: "
                  f"tmsv r_max_en {worst_tmsv_en:.2e}, tmsv r_max_sq {worst_tmsv_sq:.2e}, "
                  f"thermal r_max_en {worst_th:.2e} (50 random sets each)")


def test_criterion_05_appendix_optimization():
    rng = np.random.default_rng(1005)
    worst_val = worst_ratio = 0.0
    for i in range(100):
        if i % 2 == 0:
            p = random_tmsv_params(rng)
            blocks = tmsv.covariance(p)
            closed_val = tmsv.optimized_squeezing_closed(p)
            closed_ratio = tmsv.weight_ratio(p)
        else:
            p = random_thermal_params(rng)
            if p.r < 1e-3:
                continue
            blocks = thermal.covariance(p)
            closed_val = thermal.optimized_squeezing_closed(p)
            closed_ratio = thermal.weight_ratio(p)
        num_val, _, num_ratio = min_variance_numeric(blocks, n_phi=256)
        worst_val = max(worst_val, abs(closed_val - num_val))
        worst_ratio = max(worst_ratio, abs(closed_ratio - num_ratio))

    worst_boundary = 0.0
    worst_cutoff_ratio = 0.0
    for _ in range(20):
        eta_i, eta_s = (float(x) for x in np.random.default_rng(7).uniform(0.3, 1.0, 2))
        k_f = float(rng.uniform(0.3, 0.99))
        r_ucf = math.atanh(k_f)
        p = tmsv.TmsvParams(r=r_ucf, eta_i=eta_i, eta_s=eta_s,
                            overlap=OverlapFactors(k_f, 0.0))
        worst_boundary = max(
            worst_boundary, abs(tmsv.optimized_squeezing_closed(p) - 1.0)
        )
        worst_cutoff_ratio = max(
            worst_cutoff_ratio,
            abs(tmsv.weight_ratio(p) - math.sqrt(eta_s / eta_i)),
        )

    ok = (worst_val <= 1e-8 and worst_ratio <= 1e-8
          and worst_boundary <= 1e-8 and worst_cutoff_ratio <= 1e-8)
    report(5, ok, "closed vs 2-D numeric minimization (100 states): "
                  f"value {worst_val:.2e}, ratio {worst_ratio:.2e}; boundary "
                  f"S(r_ucf) - 1 = {worst_boundary:.2e}, cutoff ratio {worst_cutoff_ratio:.2e}")


def test_criterion_06_thermal_window():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        p = random_thermal_params(rng, require_window=True)
        cp = thermal.critical_points(p)

        def gap(r):
            return 0.5 - log_negativity(
                thermal.covariance(thermal.ThermalParams(float(r), p.n_i, p.n_s, p.overlap))
            ).nu_minus

        mid = cp.r_max_en
        lo = bisect_root(gap, 1e-7, mid, tol=1e-12)
        hi = bisect_root(gap, mid, max(4.0, 3.0 * cp.r_ucf_en), tol=1e-12)
        worst = max(worst, abs(cp.r_lcf_en - lo), abs(cp.r_ucf_en - hi))
    ok = worst <= 1e-6

    worst_limit = 0.0
    for _ in range(20):
        n_i, n_s = (float(x) for x in rng.uniform(0.0, 2.0, size=2))
        p = thermal.ThermalParams(r=1.0, n_i=n_i, n_s=n_s)
        cp = thermal.critical_points(p)
        a, b = p.a, p.b
        want = 0.5 * math.acosh((a * a - b * b + 1.0) / (2.0 * a))
        worst_limit = max(worst_limit, abs(cp.r_lcf_en - want))
        ok &= math.isinf(cp.r_ucf_en)
    ok &= worst_limit <= 1e-12

    worked = thermal.critical_points(thermal.ThermalParams(r=1.0, n_i=0.5, n_s=0.5))
    ok &= abs(worked.r_lcf_en - 0.346574) <= 1e-6
    report(6, ok, f"closed-form window vs bisection (50 sets), worst = {worst:.2e}; "
                  f"identical-filter limit worst = {worst_limit:.2e}, "
                  f"worked r_lcf = {worked.r_lcf_en:.6f}")


def test_criterion_07_purity():
    ok = abs(purity(build_covariance(tmsv_blocks(0.0))) - 1.0) <= 1e-12
    ok &= abs(purity(build_covariance(tmsv_blocks(1.3))) - 1.0) <= 1e-12

    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(1000):
        if rng.uniform() < 0.5:
            v = build_covariance(tmsv.covariance(random_tmsv_params(rng)))
        else:
            v = build_covariance(thermal.covariance(random_thermal_params(rng)))
        closed = purity(v)
        general = 1.0 / (4.0 * math.sqrt(np.linalg.det(v.entries)))
        worst = max(worst, abs(closed - general))
    ok &= worst <= 1e-10

    worked = purity(build_covariance(tmsv_blocks(1.0, k_f=0.95)))
    # exact value 0.4381110...; the stated 0.43809 holds at its printed
    # granularity (its last digit is off by two units)
    ok &= abs(worked - 0.43809) <= 5e-5
    ok &= abs(worked - 1.0 / (1.0 + (1.0 - 0.95**2) * math.sinh(2.0) ** 2)) <= 1e-12
    report(7, ok, f"dual-route purity worst = {worst:.2e}; worked value {worked:.6f}")


def test_criterion_08_bell():
    start = time.perf_counter()
    details = []

    vac = build_covariance(tmsv_blocks(0.0))
    res = bell_max(vac, BellMaxConfig(seed=1008))
    grid_val, _ = bell_grid_max(vac)
    vac_ok = abs(res.b_max - 2.0) <= 1e-6 and grid_val <= 2.0 + 1e-6
    details.append(f"vacuum b_max = {res.b_max:.8f}, grid oracle {grid_val:.8f}")

    # the window belongs to the origin-pinned family, searched by the scipy
    # oracle; the eight-coordinate maximizer searches a superset of it
    rs = np.linspace(0.1, 2.0, 20)
    pinned = np.empty_like(rs)
    full = np.empty_like(rs)
    for k, r in enumerate(rs):
        v = build_covariance(tmsv_blocks(float(r)))
        pinned[k] = restricted_bw_max(v, seed=1009, restarts=24)
        full[k] = bell_max(v, BellMaxConfig(n_restarts=32, seed=1088)).b_max
    k_pinned, k_full = int(np.argmax(pinned)), int(np.argmax(full))
    window_ok = 2.17 <= pinned[k_pinned] <= 2.21
    superset_ok = bool(np.all(full >= pinned - 1e-9))
    full_ok = abs(full[k_full] - 2.3242) <= 2e-3
    details.append(
        f"swept origin-pinned max_r |B| = {pinned[k_pinned]:.4f} at r = {rs[k_pinned]:.2f} "
        f"(window [2.17, 2.21]); swept 8-coordinate max_r b_max = {full[k_full]:.4f} "
        f"at r = {rs[k_full]:.2f} (expected 2.3242 +- 2e-3, >= origin-pinned at every r: "
        f"{superset_ok})"
    )

    necessity_ok = True
    grid_states = []
    for n_i in (0.1, 0.5, 1.0):
        for r in (0.3, 0.8, 1.3):
            grid_states.append(build_covariance(thermal.covariance(
                thermal.ThermalParams(r=r, n_i=n_i, n_s=0.4,
                                      overlap=OverlapFactors(0.95, 0.095)))))
    for eta_s in (0.6, 0.85):
        for r in (0.4, 1.0, 1.6):
            grid_states.append(apply_loss(
                build_covariance(tmsv_blocks(r, k_f=0.9)), 0.8, eta_s))
    for k, v in enumerate(grid_states):
        b = bell_max(v, BellMaxConfig(n_restarts=24, seed=2000 + k)).b_max
        if b > 2.0 + 1e-6:
            necessity_ok &= log_negativity(v).e_n > 0.0
    details.append(f"nonlocality => entanglement on {len(grid_states)} grid points")

    elapsed = time.perf_counter() - start
    runtime_ok = elapsed < 120.0
    details.append(f"runtime {elapsed:.1f} s")
    ok = vac_ok and window_ok and superset_ok and full_ok and necessity_ok and runtime_ok
    report(8, ok, "; ".join(details))


def test_criterion_09_monte_carlo_oracle():
    start = time.perf_counter()
    step = lambda omega: FilterSpec(FilterFamily.STEP, omega, 2.0)
    detuned = overlap_closed_form(step(1.0), step(0.0))
    configs = [
        (tmsv.TmsvParams(r=0.0), step(1.0), step(0.0)),
        (tmsv.TmsvParams(r=1.0), step(1.0), step(1.0)),
        (thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=detuned),
         step(1.0), step(0.0)),
    ]
    analytic = [
        tmsv.covariance(configs[0][0]),
        tmsv.covariance(configs[1][0]),
        thermal.covariance(configs[2][0]),
    ]
    ok = True
    worst_z = 0.0
    for k, ((model, fi, fs), want) in enumerate(zip(configs, analytic)):
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=6.0,
                        n_realizations=200000, seed=3000 + k)
        est = simulate(cfg)
        for i, name in enumerate(("d_i", "d_s", "c11", "c12")):
            z = abs(getattr(est.blocks, name) - getattr(want, name)) / est.std_errors[i]
            worst_z = max(worst_z, z)
            ok &= z <= 5.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(9, ok, f"3 canonical configs at 2e5 realizations, worst |z| = {worst_z:.2f}, "
                  f"runtime {elapsed:.1f} s")


def test_criterion_10_figure_shapes():
    checks = []

    start = time.perf_counter()
    cols, rows = run_sweep(SweepConfig(
        model="tmsv", outputs=("e_n",),
        fixed={"omega_k": 1.0, "tau_i": 2.0, "tau_s": 2.0, "r": 1.0},
        axis1=AxisSpec("omega_l", -4.0, 6.0, 501), family="step",
    ))
    omegas = np.array([row[0] for row in rows])
    en = np.array([row[1] for row in rows])
    t_freq = time.perf_counter() - start
    freq_ok = omegas[int(np.argmax(en))] == pytest.approx(1.0, abs=1e-12) and t_freq < 10.0
    checks.append(("frequency-match peak", freq_ok, t_freq))

    start = time.perf_counter()
    cols, rows = run_sweep(SweepConfig(
        model="tmsv", outputs=("e_n",),
        fixed={"omega_k": 1.0, "omega_l": 1.0, "tau_i": 2.0, "r": 1.0},
        axis1=AxisSpec("tau_s", 0.5, 6.0, 111), family="step",
    ))
    taus = np.array([row[0] for row in rows])
    en = np.array([row[1] for row in rows])
    t_tau = time.perf_counter() - start
    tau_ok = taus[int(np.argmax(en))] == pytest.approx(2.0, abs=1e-12) and t_tau < 10.0
    checks.append(("bandwidth-match peak", tau_ok, t_tau))

    start = time.perf_counter()
    uni_ok = True
    for k_f in (0.85, 0.95):
        rs = np.linspace(0.0, 1.2 * math.atanh(k_f), 400)
        en = np.array([
            log_negativity(tmsv_blocks(float(r), 0.9, 0.98, k_f)).e_n for r in rs
        ])
        peak = int(np.argmax(en))
        uni_ok &= bool(np.all(np.diff(en[: peak + 1]) >= -1e-9))
        uni_ok &= bool(np.all(np.diff(en[peak:]) <= 1e-9))
    t_uni = time.perf_counter() - start
    uni_ok &= t_uni < 10.0
    checks.append(("bell-shape unimodality", uni_ok, t_uni))

    start = time.perf_counter()
    points = []
    for n_i in np.linspace(0.0, 1.5, 13):
        points.append(thermal.critical_points(thermal.ThermalParams(
            r=1.0, n_i=float(n_i), n_s=0.8, overlap=OverlapFactors(0.95, 0.095))))
    # the window shrinks monotonically while it exists, and once heating
    # closes it the window stays closed
    alive = [cp for cp in points if cp.has_window]
    shrink_ok = len(alive) >= 3
    shrink_ok &= all(not cp.has_window for cp in points[len(alive):])
    lows = [cp.r_lcf_en for cp in alive]
    highs = [cp.r_ucf_en for cp in alive if math.isfinite(cp.r_ucf_en)]
    shrink_ok &= all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
    shrink_ok &= all(b <= a + 1e-12 for a, b in zip(highs, highs[1:]))
    t_shrink = time.perf_counter() - start
    shrink_ok &= t_shrink < 10.0
    checks.append(("thermal window shrinkage", shrink_ok, t_shrink))

    ok = all(c[1] for c in checks)
    report(10, ok, "; ".join(f"{name} ({'ok' if good else 'BAD'}, {t:.1f} s)"
                             for name, good, t in checks))
