"""Independent numerical oracles used across the test suite.

Every routine here avoids the closed forms under test: symplectic spectra
come from an eigenvalue decomposition, extrema from golden-section search,
roots from bisection, and variance optima from grid-plus-golden scans of
the raw quadratic form.
"""

import math

import numpy as np

from filtered_tms.gaussian import CovarianceBlocks, CovarianceMatrix

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def nu_min_eigen(v: CovarianceMatrix, transposed: bool = True) -> float:
    """Smallest symplectic eigenvalue from the spectrum of i Omega V."""
    m = _PT @ v.entries @ _PT if transposed else v.entries
    eigs = np.linalg.eigvals(1j * _OMEGA @ m)
    return float(np.min(np.abs(eigs)))


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
        cp = thermal.critical_points(p)
        if cp.has_window and math.isfinite(cp.r_ucf_en):
            return p


def mix_then_contract(cfg, noise_widths, kernels, n_total, stream_tag, batch=2048):
    """Per-realization samples of (D_I, D_S, C11, C12) in the direct order.

    Builds every Bogoliubov-branch and loss-mixed noise series on the full
    lag grid and only then contracts them with ``kernels`` = (rk, ik, rl,
    il).  The draws follow the simulator's stream: one generator per batch
    from SeedSequence((seed, stream_tag, batch index)), drawing xi, yi, xs,
    ys, then the idler and the signal vacuum pair of each lossy party.
    """
    model = cfg.model
    r = model.r
    p_i = getattr(model, "n_i", 0.0) + 0.5
    p_s = getattr(model, "n_s", 0.0) + 0.5
    eta_i, eta_s = getattr(model, "eta_i", 1.0), getattr(model, "eta_s", 1.0)
    rk, ik, rl, il = kernels
    c, s = math.cosh(r), math.sinh(r)
    nc = len(noise_widths)
    out = np.empty((n_total, 4))
    for start in range(0, n_total, batch):
        nb = min(batch, n_total - start)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(cfg.seed, stream_tag, start // batch))
        )

        def series(power):
            return rng.standard_normal((nb, nc)) * np.sqrt(power / noise_widths)

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

        xk = xi_p @ rk - yi_m @ ik
        yk = xi_m @ ik + yi_p @ rk
        xl = xs_p @ rl - ys_m @ il
        yl = xs_m @ il + ys_p @ rl
        out[start:start + nb] = np.column_stack(
            (xk * xk + yk * yk, xl * xl + yl * yl, xk * xl - yk * yl, xk * yl + yk * xl)
        )
    return out


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


def bell_max_reference(v: CovarianceMatrix, n_restarts=64, max_evals=2000, f_tol=1e-10, seed=0):
    """The per-state lockstep multistart Nelder-Mead that ``bell_max`` is
    pinned to bit for bit, with its cost counts.

    Returns (b_max, settings as an (8,) array, converged, evaluations summed
    over the restarts, restarts within 1e-6 max(1, |b_max|) of b_max).
    """
    ev = _ReferenceBellEvaluator(v)
    neg = lambda s: -np.abs(ev.bell(s))

    scale = math.sqrt(float(np.max(np.linalg.eigvalsh(v.entries))))
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_restarts, 8))
    if n_restarts > 1:
        centers[1:] = rng.normal(scale=scale, size=(n_restarts - 1, 8))

    best_f, best_x, settled, evals = _reference_nelder_mead(
        neg, centers, step=0.25 * scale, f_tol=f_tol, max_evals=max_evals
    )
    values = -best_f
    order = np.argsort(-values, kind="stable")
    top = int(order[0])
    b_max = float(values[top])
    agreeing = int(np.sum(values >= b_max - 1e-6 * max(1.0, abs(b_max))))
    converged = bool(settled[top] and (agreeing >= 2 or n_restarts == 1))
    return b_max, best_x[top], converged, int(evals.sum()), agreeing


def _reference_nelder_mead(func, centers, step, f_tol, max_evals):
    """Minimize func over many restarts advanced in lockstep.

    func maps (N, dim) -> (N,).  Returns per-restart best values, best
    points, whether each restart settled (simplex spread <= f_tol) before
    exhausting its evaluation budget, and per-restart evaluation counts.
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

        new_pt[use_e] = xe[use_e]
        new_f[use_e] = fe[use_e]
        new_pt[use_r] = xr[use_r]
        new_f[use_r] = fr[use_r]
        new_pt[contract_ok] = xc[contract_ok]
        new_f[contract_ok] = fc[contract_ok]
        p[:, -1, :] = new_pt
        f[:, -1] = new_f

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
