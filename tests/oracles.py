"""Independent numerical oracles used across the test suite.

Every routine here avoids the closed forms under test: symplectic spectra
come from an eigenvalue decomposition, extrema from golden-section search,
roots from bisection, and variance optima from grid-plus-golden scans of
the raw quadratic form.  Near the end, the landmarks come from their
defining conditions and the filter overlap from its integral, both at 50
digits in mpmath, the overlap also by adaptive Simpson quadrature of the
sampled kernels, and the heatmap writer is its point-by-point form; the last
section holds the paper's per-model scalar closed forms, the Wigner and
quadrature-variance forms, the filter transforms and the Bell grid
search, which no command reaches.
"""

import math
from dataclasses import astuple, dataclass

import mpmath
import numpy as np

from filtered_tms import thermal, tmsv
from filtered_tms.bell import bell_value
from filtered_tms.filters import FilterSpec, OverlapFactors, sample_time
from filtered_tms.gaussian import CovarianceBlocks, CovarianceMatrix
from filtered_tms.sweep import CRITICAL_COLUMNS

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def nu_min_eigen(v: CovarianceMatrix, transposed: bool = True) -> float:
    """Smallest symplectic eigenvalue from the spectrum of i Omega V."""
    m = _PT @ v.entries @ _PT if transposed else v.entries
    eigs = np.linalg.eigvals(1j * _OMEGA @ m)
    return float(np.min(np.abs(eigs)))


def purity_det(v: CovarianceMatrix) -> float:
    """Purity by the general Gaussian route 1/(4 sqrt(det V)), with det V
    from an LU factorization of the 4x4 matrix."""
    return 1.0 / (4.0 * math.sqrt(np.linalg.det(v.entries)))


def block_matrix(d_i, d_s, c11, c12) -> np.ndarray:
    """The 4x4 matrix of scalar blocks, written out entry by entry."""
    return 0.5 * np.array([[d_i, 0.0, c11, c12], [0.0, d_i, c12, -c11],
                           [c11, c12, d_s, 0.0], [c12, -c11, 0.0, d_s]])


def loss_product(blocks: CovarianceBlocks, eta_i: float, eta_s: float) -> np.ndarray:
    """The loss map as the 4x4 product E V E + (I - E^2)/2, E = diag(sqrt eta)."""
    v = block_matrix(blocks.d_i, blocks.d_s, blocks.c11, blocks.c12)
    e = np.diag([math.sqrt(eta_i)] * 2 + [math.sqrt(eta_s)] * 2)
    return e @ v @ e + (np.eye(4) - e @ e) / 2.0


def golden_min(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section argmin of a unimodal scalar function on [a, b]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def refine_parabolic(f, x0: float, h: float = 1e-4) -> float:
    """One parabolic-vertex refinement of an argmin estimate.

    Resolves the argmin of a smooth objective well below the sqrt(eps)
    limit of comparison-based searches.
    """
    fm, f0, fp = f(x0 - h), f(x0), f(x0 + h)
    denom = fm - 2.0 * f0 + fp
    if denom <= 0.0:
        return x0
    return x0 + 0.5 * h * (fm - fp) / denom


def bisect_root(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Bisection root of a sign-changing scalar function on [a, b]."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def min_variance_numeric(blocks: CovarianceBlocks, n_phi: int = 1024):
    """(min variance, argmin phase sum, argmin ratio) by scan plus golden.

    A phase grid with a golden-section ratio search per phase locates the
    basin; a nested golden refinement polishes both coordinates.
    """
    from filtered_tms.gaussian import build_covariance

    v = build_covariance(blocks).entries
    d_i, d_s = 2.0 * v[0, 0], 2.0 * v[2, 2]
    c11, c12 = 2.0 * v[0, 2], 2.0 * v[0, 3]

    def var(phi, rho):
        cross = math.cos(phi) * c11 + math.sin(phi) * c12
        return (rho * rho * d_i + d_s + 2.0 * rho * cross) / (rho * rho + 1.0)

    def best_rho(phi):
        return golden_min(lambda lr: var(phi, math.exp(lr)), -14.0, 14.0, 1e-12)

    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    coarse = [var(p, math.exp(best_rho(p))) for p in phis]
    k = int(np.argmin(coarse))
    lo, hi = phis[k] - 2.0 * (phis[1] - phis[0]), phis[k] + 2.0 * (phis[1] - phis[0])
    phi_star = golden_min(lambda p: var(p, math.exp(best_rho(p))), lo, hi, 1e-10)
    phi_star = refine_parabolic(lambda p: var(p, math.exp(best_rho(p))), phi_star)
    log_rho = best_rho(phi_star)
    for h in (1e-4, 1e-6):
        log_rho = refine_parabolic(lambda lr: var(phi_star, math.exp(lr)), log_rho, h=h)
    rho_star = math.exp(log_rho)
    return var(phi_star, rho_star), phi_star, rho_star


def lossy_thermal_matrix(r, n_i, n_s, k_f, l_f, eta_i, eta_s) -> np.ndarray:
    """The 4x4 covariance of filtered squeezed thermal light behind loss,
    written out: the model blocks in `math`, then E V E + (I - E^2)/2."""
    a, b = n_i + n_s + 1.0, n_i - n_s
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    v = block_matrix(b + a * ch, -b + a * ch, a * k_f * sh, -b * l_f * sh)
    e = np.diag([math.sqrt(eta_i)] * 2 + [math.sqrt(eta_s)] * 2)
    return e @ v @ e + (np.eye(4) - e @ e) / 2.0


def landmarks_by_search(n_i, n_s, k_f, l_f, eta_i, eta_s, inside=(), r_top=8.0) -> dict:
    """The six landmarks of a lossy thermal state by search alone.

    E_N > 0 where the smallest symplectic eigenvalue nu of the partially
    transposed matrix (eigen-decomposition) is below 1/2: its cutoffs come
    from bisection and its maximum from golden section on nu.  The
    equal-weight variance V00 + V22 - 2 |(V02, V03)| gives the squeezing
    window by bisection against 1 and its minimum by golden section.  A
    window is looked for on a grid of r in [0, r_top] and at the points
    ``inside``, and must close before r_top; a window or cutoff that does
    not exist is nan, and without an entanglement window every landmark is,
    as in ``CriticalPoints``.
    """
    def nu(r):
        m = _PT @ lossy_thermal_matrix(r, n_i, n_s, k_f, l_f, eta_i, eta_s) @ _PT
        return float(np.min(np.abs(np.linalg.eigvals(1j * _OMEGA @ m))))

    def eq_var(r):
        m = lossy_thermal_matrix(r, n_i, n_s, k_f, l_f, eta_i, eta_s)
        return float(m[0, 0] + m[2, 2] - 2.0 * math.hypot(m[0, 2], m[0, 3]))

    def window(below):
        """(lower, upper) crossing around a grid point where below(r) > 0."""
        grid = sorted(set(np.linspace(0.0, r_top, 41).tolist()) | set(inside))
        hits = [r for r in grid if below(r) > 0.0]
        if not hits:
            return math.nan, math.nan
        lo = 0.0 if below(0.0) >= 0.0 else bisect_root(below, 0.0, hits[0], tol=1e-13)
        return lo, bisect_root(below, hits[0], r_top, tol=1e-13)

    def argmin(f, a, b):
        return refine_parabolic(f, golden_min(f, a, b, tol=1e-11), h=1e-5)

    out = dict(zip(("r_lcf_en", "r_ucf_en"), window(lambda r: 0.5 - nu(r))))
    if math.isnan(out["r_lcf_en"]):
        return dict.fromkeys(("r_lcf_en", "r_ucf_en", "r_max_en", "r_lcf_sq", "r_ucf_sq",
                              "r_max_sq"), math.nan)
    out["r_max_en"] = argmin(nu, out["r_lcf_en"], out["r_ucf_en"])
    out.update(zip(("r_lcf_sq", "r_ucf_sq"), window(lambda r: 1.0 - eq_var(r))))
    out["r_max_sq"] = argmin(eq_var, 0.0, r_top)
    return out


def search_mismatches(got, want: dict) -> list:
    """The landmarks where ``got`` (a mapping by field name) misses the
    search oracle's ``want``: another nan/inf pattern, a cutoff off by more
    than 1e-9 or a golden-section maximum off by more than 1e-6."""
    bad = []
    for name, w in want.items():
        g, tol = float(got[name]), 1e-6 if name.startswith("r_max") else 1e-9
        if not (same_or_close(g, w, 0.0) if not math.isfinite(w)
                else math.isfinite(g) and abs(g - w) <= tol):
            bad.append((name, g, w))
    return bad


def random_tmsv_params(rng: np.random.Generator):
    from filtered_tms.filters import OverlapFactors
    from filtered_tms.tmsv import TmsvParams

    return TmsvParams(
        r=float(rng.uniform(0.05, 2.0)),
        eta_i=float(rng.uniform(0.3, 1.0)),
        eta_s=float(rng.uniform(0.3, 1.0)),
        overlap=OverlapFactors(float(rng.uniform(0.3, 1.0)), 0.0),
    )


def random_thermal_params(rng: np.random.Generator, require_window: bool = False):
    from filtered_tms import thermal
    from filtered_tms.filters import OverlapFactors

    while True:
        k_f = float(rng.uniform(0.6, 0.999))
        l_max = math.sqrt(1.0 - k_f**2)
        p = thermal.ThermalParams(
            r=float(rng.uniform(0.05, 2.0)),
            n_i=float(rng.uniform(0.0, 1.5)),
            n_s=float(rng.uniform(0.0, 1.5)),
            overlap=OverlapFactors(k_f, float(rng.uniform(0.0, 0.9 * l_max))),
        )
        if not require_window:
            return p
        cp = critical_points(p)
        if math.isfinite(cp.r_ucf_en):  # nan without a window
            return p


# realizations per noise batch of mix_outputs
MIX_BATCH = 4096


def noise_stream(seed, stream_tag, n_cols):
    """Unit-normal noise series, batch by batch, for ``mix_outputs``.

    noise(batch index, nb) yields (nb, n_cols) series from one generator per
    batch, SeedSequence((seed, stream_tag, batch index)).
    """
    def noise(batch, nb):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, stream_tag, batch)))
        while True:
            yield rng.standard_normal((nb, n_cols))
    return noise


def mix_outputs(cfg, noise_widths, kernels, n_total, noise):
    """Per-realization filtered outputs (xk, yk, xl, yl) in the direct order.

    Builds every Bogoliubov-branch and loss-mixed noise series on the full
    lag grid and only then contracts them with ``kernels`` = (rk, ik, rl,
    il).  ``noise`` (see ``noise_stream``) supplies the unit-normal series of
    each batch of ``MIX_BATCH`` realizations in the simulator's series
    order: xi, yi, xs, ys, then the idler and the signal vacuum pair of each
    lossy party.
    """
    model = cfg.model
    r = model.r
    p_i = getattr(model, "n_i", 0.0) + 0.5
    p_s = getattr(model, "n_s", 0.0) + 0.5
    eta_i, eta_s = getattr(model, "eta_i", 1.0), getattr(model, "eta_s", 1.0)
    rk, ik, rl, il = kernels
    c, s = math.cosh(r), math.sinh(r)
    out = np.empty((n_total, 4))
    for start in range(0, n_total, MIX_BATCH):
        nb = min(MIX_BATCH, n_total - start)
        draws = noise(start // MIX_BATCH, nb)

        def series(power):
            return next(draws) * np.sqrt(power / noise_widths)

        xi, yi, xs, ys = series(p_i), series(p_i), series(p_s), series(p_s)
        xi_p, xi_m = c * xi + s * xs, c * xi - s * xs
        yi_p, yi_m = c * yi - s * ys, c * yi + s * ys
        xs_p, xs_m = s * xi + c * xs, -s * xi + c * xs
        ys_p, ys_m = -s * yi + c * ys, s * yi + c * ys
        for eta, fields in ((eta_i, [xi_p, xi_m, yi_p, yi_m]),
                            (eta_s, [xs_p, xs_m, ys_p, ys_m])):
            if eta < 1.0:
                xv, yv = series(0.5), series(0.5)
                for f, v in zip(fields, (xv, xv, yv, yv)):
                    f *= math.sqrt(eta)
                    f += math.sqrt(1.0 - eta) * v

        out[start:start + nb] = np.column_stack((
            xi_p @ rk - yi_m @ ik, xi_m @ ik + yi_p @ rk,
            xs_p @ rl - ys_m @ il, xs_m @ il + ys_p @ rl,
        ))
    return out


def mix_then_contract(cfg, noise_widths, kernels, n_total, noise):
    """Per-realization samples of (D_I, D_S, C11, C12) of the ``mix_outputs``
    outputs: xk^2 + yk^2, xl^2 + yl^2, xk xl - yk yl and xk yl + yk xl."""
    xk, yk, xl, yl = mix_outputs(cfg, noise_widths, kernels, n_total, noise).T
    return np.column_stack(
        (xk * xk + yk * yk, xl * xl + yl * yl, xk * xl - yk * yl, xk * yl + yk * xl)
    )


def _reference_joint_points(s: np.ndarray) -> np.ndarray:
    """(N, 8) settings -> (N, 4, 4) joint points (00, 01, 10, 11)."""
    out = np.empty(s.shape[:-1] + (4, 4))
    ai = s[..., 0:2]
    bi = s[..., 2:4]
    as_ = s[..., 4:6]
    bs = s[..., 6:8]
    out[..., 0, 0:2] = ai
    out[..., 0, 2:4] = as_
    out[..., 1, 0:2] = ai
    out[..., 1, 2:4] = bs
    out[..., 2, 0:2] = bi
    out[..., 2, 2:4] = as_
    out[..., 3, 0:2] = bi
    out[..., 3, 2:4] = bs
    return out


class _ReferenceBellEvaluator:
    """Precomputed inverse/determinant for batched Bell evaluations."""

    def __init__(self, v: CovarianceMatrix):
        self.v_inv = np.linalg.inv(v.entries)
        self.prefactor = 1.0 / (math.pi**2 * math.sqrt(float(np.linalg.det(v.entries))))

    def bell(self, settings: np.ndarray) -> np.ndarray:
        """(N, 8) -> (N,) Bell values (signed)."""
        pts = _reference_joint_points(settings)
        quad = np.einsum("nij,jk,nik->ni", pts, self.v_inv, pts)
        w = self.prefactor * np.exp(-0.5 * quad)
        return math.pi**2 / 4.0 * (w[:, 0] + w[:, 1] + w[:, 2] - w[:, 3])


def bell_max_reference(v: CovarianceMatrix, n_restarts=64, max_evals=2000, f_tol=1e-10, seed=0,
                       tally=None, steps=None):
    """The per-state lockstep multistart Nelder-Mead that ``bell_max`` is
    pinned to bit for bit, with its cost counts.

    Returns (b_max, settings as an (8,) array, converged, evaluations summed
    over the restarts, restarts within 1e-6 max(1, |b_max|) of b_max).  A
    ``collections.Counter`` passed as tally counts the moves and stops the
    restarts took, and a list passed as steps records each step's restarts
    (see ``_reference_nelder_mead``).
    """
    ev = _ReferenceBellEvaluator(v)
    neg = lambda s: -np.abs(ev.bell(s))

    scale = math.sqrt(float(np.max(np.linalg.eigvalsh(v.entries))))
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_restarts, 8))
    if n_restarts > 1:
        centers[1:] = rng.normal(scale=scale, size=(n_restarts - 1, 8))

    best_f, best_x, settled, evals = _reference_nelder_mead(
        neg, centers, step=0.25 * scale, f_tol=f_tol, max_evals=max_evals, tally=tally,
        steps=steps
    )
    values = -best_f
    order = np.argsort(-values, kind="stable")
    top = int(order[0])
    b_max = float(values[top])
    agreeing = int(np.sum(values >= b_max - 1e-6 * max(1.0, abs(b_max))))
    converged = bool(settled[top] and (agreeing >= 2 or n_restarts == 1))
    return b_max, best_x[top], converged, int(evals.sum()), agreeing


def _reference_nelder_mead(func, centers, step, f_tol, max_evals, tally=None, ties=None,
                           steps=None):
    """Minimize func over many restarts advanced in lockstep.

    func maps (N, dim) -> (N,).  Returns per-restart best values, best
    points, whether each restart settled (simplex spread <= f_tol) before
    exhausting its evaluation budget, and per-restart evaluation counts.
    A Counter passed as tally adds, per restart, each step's move
    ("expansion", "reflection", "outside contraction", "inside
    contraction", "shrink") and its stop ("settled", "budget exhausted").
    A Counter passed as ties adds the steps whose deciding comparison met
    an exact tie: "expansion" (fe == fr), "outside contraction" (fc == fr)
    and "inside contraction" (fc == the worst value).  A list passed as
    steps gets one (advanced, shrank) pair of restart-index arrays per
    lockstep step; a restart's step count is the number of pairs whose
    advanced array holds it.
    """
    n, dim = centers.shape
    pts = np.repeat(centers[:, None, :], dim + 1, axis=1)
    for i in range(dim):
        pts[:, i + 1, i] += step if step > 0 else 0.1
    fv = np.empty((n, dim + 1))
    for i in range(dim + 1):
        fv[:, i] = func(pts[:, i, :])
    evals = np.full(n, dim + 1)
    active = np.ones(n, dtype=bool)
    settled = np.zeros(n, dtype=bool)

    while np.any(active):
        idx = np.where(active)[0]
        order = np.argsort(fv[idx], axis=1)
        pts[idx] = np.take_along_axis(pts[idx], order[:, :, None], axis=1)
        fv[idx] = np.take_along_axis(fv[idx], order, axis=1)

        spread = fv[idx, -1] - fv[idx, 0]
        done = spread <= f_tol
        settled[idx[done]] = True
        active[idx[done]] = False
        over = evals[idx] >= max_evals
        active[idx[over]] = False
        if tally is not None:
            tally["settled"] += int(done.sum())
            tally["budget exhausted"] += int((over & ~done).sum())
        idx = np.where(active)[0]
        if idx.size == 0:
            break

        p = pts[idx]
        f = fv[idx]
        centroid = p[:, :-1, :].mean(axis=1)
        worst = p[:, -1, :]
        xr = centroid + (centroid - worst)
        xe = centroid + 2.0 * (centroid - worst)
        fr = func(xr)
        fe = func(xe)
        outside = fr < f[:, -1]
        xc = np.where(
            outside[:, None],
            centroid + 0.5 * (centroid - worst),
            centroid - 0.5 * (centroid - worst),
        )
        fc = func(xc)
        evals[idx] += 3

        new_pt = worst.copy()
        new_f = f[:, -1].copy()
        expand = fr < f[:, 0]
        use_e = expand & (fe < fr)
        use_r = (expand & ~use_e) | ((~expand) & (fr < f[:, -2]))
        contract_ok = (~expand) & (fr >= f[:, -2]) & (
            np.where(outside, fc <= fr, fc < f[:, -1])
        )
        shrink = (~expand) & (fr >= f[:, -2]) & ~contract_ok
        if tally is not None:
            for move, hit in (("expansion", use_e), ("reflection", use_r),
                              ("outside contraction", contract_ok & outside),
                              ("inside contraction", contract_ok & ~outside),
                              ("shrink", shrink)):
                tally[move] += int(hit.sum())
        if ties is not None:
            contract = (~expand) & (fr >= f[:, -2])
            for test, hit in (("expansion", expand & (fe == fr)),
                              ("outside contraction", contract & outside & (fc == fr)),
                              ("inside contraction", contract & ~outside & (fc == f[:, -1]))):
                ties[test] += int(hit.sum())

        new_pt[use_e] = xe[use_e]
        new_f[use_e] = fe[use_e]
        new_pt[use_r] = xr[use_r]
        new_f[use_r] = fr[use_r]
        new_pt[contract_ok] = xc[contract_ok]
        new_f[contract_ok] = fc[contract_ok]
        p[:, -1, :] = new_pt
        f[:, -1] = new_f

        if steps is not None:
            steps.append((idx, idx[shrink]))
        if np.any(shrink):
            sh = np.where(shrink)[0]
            p[sh, 1:, :] = p[sh, 0:1, :] + 0.5 * (p[sh, 1:, :] - p[sh, 0:1, :])
            flat = p[sh, 1:, :].reshape(-1, dim)
            f[sh, 1:] = func(flat).reshape(len(sh), dim)
            evals[idx[sh]] += dim

        pts[idx] = p
        fv[idx] = f

    best = np.argmin(fv, axis=1)
    best_f = fv[np.arange(n), best]
    best_x = pts[np.arange(n), best]
    return best_f, best_x, settled, evals


def same_or_close(got: float, want: float, rel: float) -> bool:
    """The same nan/inf pattern, and finite values within rel of each other."""
    if math.isnan(want) or math.isinf(want):
        return repr(float(got)) == repr(float(want))
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# 50-digit oracles in mpmath: the landmarks, each from its defining
# condition, and the overlap integral; beside them the quadrature of the
# sampled kernels, and the heatmap writer one cell at a time, as it was
# written before the array version.

# the one relative bound of ``thermal.landmarks`` against ``landmarks_mpmath``
LANDMARK_REL = 1e-13


def landmarks_mpmath(n_i, n_s, k_f, l_f, eta_i, eta_s) -> dict:
    """The six landmarks of a lossy thermal state, each the root of its
    defining condition at 50 digits, as floats by ``CriticalPoints`` name.

    With A = n_i + n_s + 1, B = n_i - n_s, Q = A^2 K_f^2 + B^2 L_f^2 and
    y = cosh 2r - 1, the blocks give D_I - 1 = eta_i (2 n_i + A y),
    D_S - 1 = eta_s (2 n_s + A y) and C^2 = eta_i eta_s Q (y^2 + 2 y).
    Simon's criterion at equality, (D_I - 1)(D_S - 1) = C^2, is a quadratic
    in y whose roots bound the entanglement window.  E_N peaks where
    s_q_opt = (D_I + D_S)/2 - sqrt((D_I - D_S)^2/4 + C^2) is least: the root
    of d s_q_opt/dr inside the window, by ``mpmath.findroot``.  The
    equal-weight variance (D_I + D_S)/2 - |C| meets the SQL where
    ((D_I - 1 + D_S - 1)/2)^2 = C^2, a second quadratic, and its derivative
    vanishes at cosh 2r = sigma / sqrt(sigma^2 - eta_i eta_s Q), with
    sigma = (eta_i + eta_s) A / 2.

    A quadratic c2 y^2 + c1 y + c0 with c0 >= 0 is negative between
    2 c0 / s and s / (2 c2), s = -c1 + sqrt(c1^2 - 4 c2 c0), so the lower
    root is exactly 0 without population.  The leading coefficients are
    written as A^2 (1 - K_f^2) - B^2 L_f^2 and ((eta_i - eta_s) A / 2)^2
    + eta_i eta_s (A^2 - Q), which are exactly 0 at K_f = 1 with B L_f = 0
    (the second at eta_i = eta_s).  Where one is 0 or less, the window
    does not close: its top, and the minimum of that quadrature's variance,
    are inf.  Every landmark is nan where K_f lies outside (0, 1], an
    efficiency is 0 or there is no entanglement window; the squeezing
    window is nan where that variance never dips below the SQL.
    """
    nan = dict.fromkeys(CRITICAL_COLUMNS, math.nan)
    if not 0.0 < k_f <= 1.0 or eta_i == 0.0 or eta_s == 0.0:
        return nan
    with mpmath.workdps(50):
        n_i, n_s, k_f, l_f, ei, es = (mpmath.mpf(x) for x in (n_i, n_s, k_f, l_f, eta_i, eta_s))
        a, b, ee = n_i + n_s + 1, n_i - n_s, ei * es
        q = a**2 * k_f**2 + b**2 * l_f**2
        den = a**2 * (1 - k_f**2) - b**2 * l_f**2
        # d/dy of (D_I + D_S)/2 and of (D_I - D_S)/2
        sigma, delta = (ei + es) * a / 2, (ei - es) * a / 2

        def window(c2, c1, c0):
            """(lower, upper) y of c2 y^2 + c1 y + c0 < 0 at y > 0, or None."""
            disc = c1**2 - 4 * c2 * c0
            s = -c1 + mpmath.sqrt(disc) if disc >= 0 else 0
            if s <= 0:
                return None
            return 2 * c0 / s, s / (2 * c2) if c2 > 0 else mpmath.inf

        def r_of(y):
            return mpmath.asinh(mpmath.sqrt(y / 2))

        def slope(r):
            """d s_q_opt/dr over the positive factor
            (1 + y) (dy/dr) / sqrt((D_I - D_S)^2/4 + C^2)."""
            y = 2 * mpmath.sinh(r) ** 2
            half_diff = (ei * (2 * n_i + a * y) - es * (2 * n_s + a * y)) / 2
            return (sigma * mpmath.sqrt(half_diff**2 + ee * q * (y**2 + 2 * y))
                    - half_diff * delta - ee * q * (y + 1)) / (1 + y)

        en = window(den, 2 * (a * (n_i + n_s) - q), 4 * n_i * n_s)
        if en is None:
            return nan
        lcf_en, ucf_en = map(r_of, en)
        max_en = ucf_en if mpmath.isinf(ucf_en) else mpmath.findroot(
            slope, (lcf_en, ucf_en), solver="illinois", maxsteps=200)
        p, gap = ei * n_i + es * n_s, delta**2 + ee * den
        sq = window(gap, 2 * (p * sigma - ee * q), p**2)
        lcf_sq, ucf_sq = map(r_of, sq) if sq else (math.nan, math.nan)
        max_sq = r_of(sigma / mpmath.sqrt(gap) - 1) if gap > 0 else mpmath.inf
        return {name: float(x) for name, x in zip(
            CRITICAL_COLUMNS, (lcf_en, ucf_en, max_en, lcf_sq, ucf_sq, max_sq))}


def landmark_mismatches(got, want: dict) -> list:
    """The landmarks where ``got`` (a mapping by field name) misses the
    ``landmarks_mpmath`` values ``want``: another nan/inf/0 pattern, or a
    finite value off by more than ``LANDMARK_REL`` relative."""
    return [(name, float(got[name]), w) for name, w in want.items()
            if not same_or_close(float(got[name]), w, LANDMARK_REL)]


def overlap_mpmath(fi, fs):
    """The overlap integral of conj(h_i) h_s, at 50 digits, for any filter
    pair, as an mpmath number.

    Each filter is c exp(-(g + i Omega) t) on [0, T], from its definition:
    g = 1/decay, T = end and c = 1/sqrt(N) for N the integral of exp(-2 g t)
    over [0, T].  The integrand is then c_i c_s exp(-a t) on the shared
    support, a = g_i + g_s - i (Omega_i - Omega_s), integrated exactly.
    """
    def integral(a, end):
        """The integral of exp(-a t) over [0, end]."""
        if a == 0:
            return end
        # an infinite support ends where exp(-a t) has vanished
        return (1 if mpmath.isinf(end) else -mpmath.expm1(-a * end)) / a

    def parts(f):
        g, end = 1 / mpmath.mpf(f.decay), mpmath.mpf(f.end)
        return 1 / mpmath.sqrt(integral(2 * g, end)), g, end

    with mpmath.workdps(50):
        (ci, gi, ti), (cs, gs, ts) = parts(fi), parts(fs)
        a = gi + gs - 1j * (mpmath.mpf(fi.omega) - mpmath.mpf(fs.omega))
        return ci * cs * integral(a, min(ti, ts))


@dataclass(frozen=True)
class NumericOverlap(OverlapFactors):
    """A quadrature overlap with what it cost: the summed |S2 - S1|/15 error
    estimate of the accepted Simpson panels, and their number."""

    error_estimate: float
    panels: int


def overlap_numeric(fi: FilterSpec, fs: FilterSpec, tol: float = 1e-10) -> NumericOverlap:
    """Adaptive-quadrature overlap integral; independent of the closed forms.

    The integrand ends at the earlier gate end.  Two endless exponential
    kernels are integrated up to their own decay time
    T = ln(10/tol) / (1/tau_i + 1/tau_s): the integral of |h_i h_s| past T
    is 2 sqrt(tau_i tau_s)/(tau_i + tau_s) exp(-T (1/tau_i + 1/tau_s))
    <= tol/10, at any time scale.
    """
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol}")
    upper = min(fi.end, fs.end)
    if math.isinf(upper):
        upper = math.log(10.0 / tol) / (1.0 / fi.decay + 1.0 / fs.decay)
        if not 0.0 < upper < math.inf:
            raise ValueError(f"the truncation window ln(10/tol) / (1/tau_i + 1/tau_s) is {upper!r} "
                             f"for tau_i={fi.decay!r}, tau_s={fs.decay!r} and tol={tol!r}")

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.conj(sample_time(fi, ts)) * sample_time(fs, ts)

    # seed roughly two panels per beat of the oscillatory kernel
    beats = min(4096.0, abs(fi.omega - fs.omega) * upper / math.pi)
    n0 = max(16, 2 * math.ceil(beats))
    val, err, panels = _adaptive_simpson(integrand, 0.0, upper, tol, n0=n0)
    return NumericOverlap(val.real, val.imag, err, panels)


def _adaptive_simpson(f, a: float, b: float, tol: float, n0: int = 16,
                      budget: int = 500000) -> tuple[complex, float, int]:
    """Adaptive Simpson quadrature for a vectorized complex integrand.

    All panels of a refinement level are evaluated in one batched call;
    each panel bisects until its |S2 - S1|/15 estimate meets its share of
    the tolerance.  Returns the integral, the summed error estimate and the
    number of accepted panels.  Raises on budget exhaustion, with the
    achieved error estimate in the message.
    """
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    flo, fhi = f(lo), f(hi)
    fmid = f(0.5 * (lo + hi))
    etol = np.full(n0, tol / n0)
    used = 2 * n0 + 1
    total = 0.0 + 0.0j
    err_acc = 0.0
    panels = 0
    min_width = 1e-14 * (b - a)

    while lo.size:
        mid = 0.5 * (lo + hi)
        flm = f(0.5 * (lo + mid))
        frm = f(0.5 * (mid + hi))
        used += 2 * lo.size
        s1 = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        s_l = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_r = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = np.abs(s_l + s_r - s1)
        done = (err < 15.0 * etol) | ((hi - lo) < min_width)
        total += np.sum(s_l[done] + s_r[done] + (s_l[done] + s_r[done] - s1[done]) / 15.0)
        err_acc += float(np.sum(err[done])) / 15.0
        panels += int(np.count_nonzero(done))
        if np.all(done):
            break
        if used > budget:
            raise ArithmeticError(
                f"adaptive quadrature did not converge within {budget} evaluations; "
                f"achieved error estimate {err_acc + float(np.sum(err[~done])):g}"
            )
        keep = ~done
        lo_k, hi_k, mid_k = lo[keep], hi[keep], mid[keep]
        lo = np.concatenate([lo_k, mid_k])
        hi = np.concatenate([mid_k, hi_k])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        etol = np.concatenate([etol[keep] / 2.0, etol[keep] / 2.0])
    return complex(total), err_acc, panels


# anchor colors of a viridis-like ramp, interpolated linearly
_RAMP = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)

_NAN_FILL = "#b0b0b0"

_CELL = 14
_MARGIN_LEFT = 70
_MARGIN_BOTTOM = 46
_MARGIN_TOP = 34
_BAR_WIDTH = 18
_BAR_GAP = 24


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    rgb = [round(a + (b - a) * frac) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_heatmap_reference(
    grid,
    x_values,
    y_values,
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """SVG text for grid[y, x] with a labelled linear color bar."""
    grid = np.asarray(grid, dtype=float)
    ny, nx = grid.shape
    if ny != len(y_values) or nx != len(x_values):
        raise ValueError("grid shape does not match the axis lengths")

    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0

    width = _MARGIN_LEFT + nx * _CELL + _BAR_GAP + _BAR_WIDTH + 60
    height = _MARGIN_TOP + ny * _CELL + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="18" font-size="13">{title}</text>',
    ]
    for iy in range(ny):
        # row 0 at the bottom so the y axis increases upward
        ypix = _MARGIN_TOP + (ny - 1 - iy) * _CELL
        for ix in range(nx):
            v = grid[iy, ix]
            fill = _NAN_FILL if not math.isfinite(v) else _color((v - lo) / span)
            parts.append(
                f'<rect x="{_MARGIN_LEFT + ix * _CELL}" y="{ypix}" '
                f'width="{_CELL}" height="{_CELL}" fill="{fill}"/>'
            )

    x0, x1 = _fmt(float(x_values[0])), _fmt(float(x_values[-1]))
    y0, y1 = _fmt(float(y_values[0])), _fmt(float(y_values[-1]))
    base = _MARGIN_TOP + ny * _CELL
    parts += [
        f'<text x="{_MARGIN_LEFT}" y="{base + 14}">{x0}</text>',
        f'<text x="{_MARGIN_LEFT + nx * _CELL}" y="{base + 14}" text-anchor="end">{x1}</text>',
        f'<text x="{_MARGIN_LEFT + nx * _CELL / 2}" y="{base + 32}" text-anchor="middle">{x_label}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{base}" text-anchor="end">{y0}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{_MARGIN_TOP + 10}" text-anchor="end">{y1}</text>',
        f'<text x="14" y="{_MARGIN_TOP + ny * _CELL / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + ny * _CELL / 2})">{y_label}</text>',
    ]

    # linear color bar, annotated with the grid minimum and maximum
    bar_x = _MARGIN_LEFT + nx * _CELL + _BAR_GAP
    bar_h = ny * _CELL
    steps = 32
    for k in range(steps):
        t = 1.0 - k / (steps - 1)
        parts.append(
            f'<rect x="{bar_x}" y="{_MARGIN_TOP + k * bar_h / steps:.2f}" '
            f'width="{_BAR_WIDTH}" height="{bar_h / steps + 0.5:.2f}" fill="{_color(t)}"/>'
        )
    parts += [
        f'<text x="{bar_x + _BAR_WIDTH + 4}" y="{_MARGIN_TOP + 10}">{_fmt(hi)}</text>',
        f'<text x="{bar_x + _BAR_WIDTH + 4}" y="{base}">{_fmt(lo)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Per-element references of the once-per-distinct-value paths: the math
# formula applied row by row, and the CSV writer that spells every cell.

def each_reference(fn, x):
    """fn, a formula in math functions, elementwise: numpy's sinh and cosh
    differ from math's in the last bit, on about a quarter of inputs, and
    the Bell optimizer amplifies that."""
    if np.ndim(x) == 0:
        return fn(x)
    return np.reshape([fn(v) for v in np.ravel(x).tolist()], np.shape(x))


def tmsv_blocks_reference(r, eta_i, eta_s, k_f):
    """(D_I, D_S, C11, C12, D_x) of the lossy filtered TMSV by the vacuum's own
    formulas, operation for operation as a separate TMSV model formed them;
    floats or equal-shape arrays."""
    s2 = each_reference(lambda x: math.sinh(x) ** 2, r)
    g = eta_i * eta_s * (1.0 - k_f) * (1.0 + k_f)
    with np.errstate(over="ignore", invalid="ignore"):
        d_x = (1.0 + 2.0 * s2 * (eta_i * (1.0 - eta_s) + eta_s * (1.0 - eta_i) + 2.0 * g)
               + 4.0 * g * (s2 * s2))
    return (1.0 + 2.0 * eta_i * s2, 1.0 + 2.0 * eta_s * s2,
            np.sqrt(eta_i * eta_s) * k_f * each_reference(lambda x: math.sinh(2.0 * x), r),
            0.0 * s2, d_x)


def csv_text_reference(columns: list[str], rows: list[list[float]]) -> str:
    """Header and rows of Python floats (run_sweep's rows, as lists, are);
    a list's repr spells each as ``sweep.csv_chunks`` does, at C speed."""
    lines = [repr(row)[1:-1].replace(", ", ",") for row in rows]
    return "\n".join([",".join(columns)] + lines) + "\n"


# ---------------------------------------------------------------------------
# Per-model scalar closed forms, the Wigner/quadrature forms, the filter
# transforms and the Bell grid search: reference forms the library's array
# path is checked against.  None of them calls a private helper of the
# module it checks.

def tmsv_weight_ratio(p: tmsv.TmsvParams) -> float:
    """Optimal weight ratio mu_i/mu_s of the hybrid quadrature.

    Evaluates to sqrt(eta_s/eta_i) at the entanglement cutoff tanh r = K_f.
    """
    if p.r <= 0.0:
        raise ValueError("weight ratio undefined at r = 0 (uncorrelated state)")
    kf = p.overlap.k_f
    if kf <= 0.0:
        raise ValueError(f"weight ratio requires K_f > 0, got {kf}")
    ei, es = p.eta_i, p.eta_s
    if ei * es == 0.0:
        raise ValueError(f"weight ratio requires eta_i eta_s > 0, got {ei} * {es}")
    th = math.tanh(p.r)
    num = math.sqrt(4.0 * ei * es * kf**2 + (ei - es) ** 2 * th**2) + (es - ei) * th
    return num / (2.0 * kf * math.sqrt(ei * es))


def tmsv_optimized_squeezing_closed(p: tmsv.TmsvParams) -> float:
    """Minimal hybrid-quadrature variance at the optimal phase and weights.

    1 + (eta_i + eta_s) sinh^2 r
      - sinh r * sqrt(4 eta_i eta_s K_f^2 cosh^2 r + (eta_i - eta_s)^2 sinh^2 r);
    drops below 1 exactly on 0 < r < r_ucf_en.
    """
    ei, es, kf = p.eta_i, p.eta_s, p.overlap.k_f
    s, c = math.sinh(p.r), math.cosh(p.r)
    return 1.0 + (ei + es) * s**2 - s * math.sqrt(
        4.0 * ei * es * kf**2 * c**2 + (ei - es) ** 2 * s**2
    )


def critical_points(p: thermal.ThermalParams) -> thermal.CriticalPoints:
    """Test helper, not an oracle: ``thermal.landmarks`` of one state as
    Python floats, raising where the state has no landmarks (K_f outside
    (0, 1] or eta_i eta_s = 0)."""
    kf, ei, es = p.overlap.k_f, p.eta_i, p.eta_s
    if not 0.0 < kf <= 1.0:
        raise ValueError(f"critical points require K_f in (0, 1], got {kf}")
    if ei * es == 0.0:
        # full loss on either side leaves a product state: no window to bound
        raise ValueError(f"critical points require eta_i eta_s > 0, got {ei} * {es}")
    return thermal.CriticalPoints(*(x.item() for x in astuple(thermal.landmarks(p))))


def thermal_squeezing_angle(p: thermal.ThermalParams) -> float:
    """zeta = arctan(B L_f / (A K_f)) in (-pi/2, pi/2], as ``gaussian.squeezing_angle``
    at r > 0; zero for matched populations or L_f = 0."""
    z = math.atan2(p.b * p.overlap.l_f, p.a * p.overlap.k_f)
    if z > math.pi / 2.0:
        return z - math.pi
    return z + math.pi if z <= -math.pi / 2.0 else z


def thermal_weight_ratio(p: thermal.ThermalParams) -> float:
    """Optimal weight ratio mu_i/mu_s; approaches 1 as r grows or as B -> 0.

    (sqrt(sinh^2 2r (A^2 K_f^2 + B^2 L_f^2) + B^2) - B)
        / (sinh 2r sqrt(A^2 K_f^2 + B^2 L_f^2))
    """
    if p.r <= 0.0:
        raise ValueError("weight ratio undefined at r = 0 (uncorrelated state)")
    a, b = p.a, p.b
    q = a**2 * p.overlap.k_f**2 + b**2 * p.overlap.l_f**2
    if q <= 0.0:
        raise ValueError("weight ratio requires a non-vanishing overlap")
    sh = math.sinh(2.0 * p.r)
    return (math.sqrt(sh**2 * q + b**2) - b) / (sh * math.sqrt(q))


def thermal_optimized_squeezing_closed(p: thermal.ThermalParams) -> float:
    """Minimal hybrid-quadrature variance over phases and weights.

    A cosh 2r - sqrt(sinh^2 2r (A^2 K_f^2 + B^2 L_f^2) + B^2); dips below
    the SQL exactly on the entanglement window (r_lcf_en, r_ucf_en).
    """
    a, b = p.a, p.b
    q = a**2 * p.overlap.k_f**2 + b**2 * p.overlap.l_f**2
    sh = math.sinh(2.0 * p.r)
    return a * math.cosh(2.0 * p.r) - math.sqrt(sh**2 * q + b**2)


def wigner(v: CovarianceMatrix, u) -> float:
    """Gaussian Wigner density W(u) = exp(-u^T V^-1 u / 2) / (pi^2 sqrt(det V)).

    With the vacuum normalization V = I/2 this gives W(0) = 4/pi^2 and the
    purity integral Tr[rho^2] = (pi^2/4) \\int W^2.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError(f"phase-space point must be a 4-vector, got shape {u.shape}")
    det = float(np.linalg.det(v.entries))
    if det < 1e-300:
        raise ValueError("singular covariance matrix")
    sol = np.linalg.solve(v.entries, u)
    return float(math.exp(-0.5 * float(u @ sol)) / (math.pi**2 * math.sqrt(det)))


@dataclass(frozen=True)
class QuadratureSpec:
    """Phases and positive weights of a two-party hybrid quadrature.

    The variance of the hybrid quadrature is invariant under joint
    rescaling of (mu_i, mu_s); only phi_i + phi_s and mu_i/mu_s matter.
    """

    phi_i: float
    phi_s: float
    mu_i: float = 1.0
    mu_s: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.phi_i, self.phi_s, self.mu_i, self.mu_s)):
            raise ValueError("quadrature parameters must be finite")
        if self.mu_i <= 0 or self.mu_s <= 0:
            raise ValueError("quadrature weights must be strictly positive")


def quadrature_variance(v: CovarianceMatrix, q: QuadratureSpec) -> float:
    """Variance of the weighted two-party quadrature, SQL-normalized.

    Equals [mu_i^2 D_I + mu_s^2 D_S + 2 mu_i mu_s (cos(phi_i + phi_s) C11
    + sin(phi_i + phi_s) C12)] / (mu_i^2 + mu_s^2); vacuum gives exactly 1
    for every spec.
    """
    c = np.array(
        [
            q.mu_i * math.cos(q.phi_i),
            q.mu_i * math.sin(q.phi_i),
            q.mu_s * math.cos(q.phi_s),
            q.mu_s * math.sin(q.phi_s),
        ]
    )
    return float(2.0 * c @ v.entries @ c / (q.mu_i**2 + q.mu_s**2))


def optimal_phase_sum(blocks: CovarianceBlocks) -> float:
    """The phase sum phi_i + phi_s minimizing the hybrid-quadrature variance."""
    return math.pi - math.atan2(-blocks.c12, blocks.c11)


def eval_freq(f: FilterSpec, omega):
    """Fourier transform h~(omega) over a float or an array of frequencies,
    with the unitary convention
    h~(omega) = (2 pi)**-1/2 * integral h(t) exp(i omega t) dt.
    """
    d = np.asarray(omega, dtype=float) - f.omega
    if math.isinf(f.decay):  # a step
        x = d * f.scale / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            sinc = np.where(np.abs(x) < 1e-4, 1.0 - x * x / 6.0 * (1.0 - x * x / 20.0),
                            np.sin(x) / x)
        return math.sqrt(f.scale / (2.0 * math.pi)) * np.exp(1j * x) * sinc
    return math.sqrt(f.scale / math.pi) / (1.0 - 1j * f.scale * d)


def orthonormal_frequencies(f: FilterSpec, n_range: int) -> list[float]:
    """Center-frequency grid Omega + n * 2 pi / tau for n in [-n_range, n_range].

    Consecutive step filters on this grid are mutually orthogonal; the
    exponential family shares the same grid spacing.
    """
    if n_range < 0:
        raise ValueError("n_range must be non-negative")
    spacing = 2.0 * math.pi / f.scale
    return [f.omega + n * spacing for n in range(-n_range, n_range + 1)]


def bell_grid_max(
    v: CovarianceMatrix,
    half_width: float = 3.0,
    points_per_dim: int = 5,
    levels: int = 14,
    shrink: float = 0.5,
    n_scatter: int = 200000,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Scatter-plus-lattice search for max |B|; independent of bell_max.

    A seeded uniform scatter over [-half_width, half_width]^8 locates the
    best basin (a bare zooming lattice can stall on the origin saddle in
    eight dimensions); a shrinking dense lattice then refines around the
    running best point.  Deterministic, derivative free and simplex free.
    """
    rng = np.random.default_rng(seed)
    scatter = rng.uniform(-half_width, half_width, size=(n_scatter, 8))
    scatter[0] = 0.0
    vals = np.abs(bell_value(v, scatter))
    k = int(np.argmax(vals))
    best_val, best_pt = float(vals[k]), scatter[k].copy()

    offsets = np.linspace(-1.0, 1.0, points_per_dim)
    grids = np.stack(
        np.meshgrid(*[offsets] * 8, indexing="ij"), axis=-1
    ).reshape(-1, 8)
    center, width = best_pt.copy(), half_width / 4.0
    for _ in range(levels):
        lattice = center[None, :] + width * grids
        vals = np.abs(bell_value(v, lattice))
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_pt = float(vals[k]), lattice[k].copy()
        center = lattice[k]
        width *= shrink
    return best_val, best_pt
