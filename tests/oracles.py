"""Independent numerical oracles used across the test suite.

Every routine here avoids the closed forms under test: symplectic spectra
come from an eigenvalue decomposition, extrema from golden-section search,
roots from bisection, and variance optima from grid-plus-golden scans of
the raw quadratic form.  The scalar references at the end are the
point-by-point `math` forms that the whole-array closed forms replaced.
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


def noise_stream(seed, stream_tag, n_cols, lift=None):
    """Unit-normal noise series, batch by batch, for ``mix_then_contract``.

    noise(batch index, nb) yields (nb, cells) series from one generator per
    batch, SeedSequence((seed, stream_tag, batch index)), as the simulator
    seeds its own.  Each series draws (nb, n_cols) normals, mapped through
    the (n_cols, cells) matrix ``lift`` when given.
    """
    def noise(batch, nb):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, stream_tag, batch)))
        while True:
            z = rng.standard_normal((nb, n_cols))
            yield z if lift is None else z @ lift
    return noise


def mix_then_contract(cfg, noise_widths, kernels, n_total, noise, batch=2048):
    """Per-realization samples of (D_I, D_S, C11, C12) in the direct order.

    Builds every Bogoliubov-branch and loss-mixed noise series on the full
    lag grid and only then contracts them with ``kernels`` = (rk, ik, rl,
    il).  ``noise`` (see ``noise_stream``) supplies the unit-normal series of
    each batch in the simulator's draw order: xi, yi, xs, ys, then the idler
    and the signal vacuum pair of each lossy party.
    """
    model = cfg.model
    r = model.r
    p_i = getattr(model, "n_i", 0.0) + 0.5
    p_s = getattr(model, "n_s", 0.0) + 0.5
    eta_i, eta_s = getattr(model, "eta_i", 1.0), getattr(model, "eta_s", 1.0)
    rk, ik, rl, il = kernels
    c, s = math.cosh(r), math.sinh(r)
    out = np.empty((n_total, 4))
    for start in range(0, n_total, batch):
        nb = min(batch, n_total - start)
        draws = noise(start // batch, nb)

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


def bell_max_reference(v: CovarianceMatrix, n_restarts=64, max_evals=2000, f_tol=1e-10, seed=0,
                       tally=None):
    """The per-state lockstep multistart Nelder-Mead that ``bell_max`` is
    pinned to bit for bit, with its cost counts.

    Returns (b_max, settings as an (8,) array, converged, evaluations summed
    over the restarts, restarts within 1e-6 max(1, |b_max|) of b_max).  A
    ``collections.Counter`` passed as tally counts the moves and stops the
    restarts took (see ``_reference_nelder_mead``).
    """
    ev = _ReferenceBellEvaluator(v)
    neg = lambda s: -np.abs(ev.bell(s))

    scale = math.sqrt(float(np.max(np.linalg.eigvalsh(v.entries))))
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_restarts, 8))
    if n_restarts > 1:
        centers[1:] = rng.normal(scale=scale, size=(n_restarts - 1, 8))

    best_f, best_x, settled, evals = _reference_nelder_mead(
        neg, centers, step=0.25 * scale, f_tol=f_tol, max_evals=max_evals, tally=tally
    )
    values = -best_f
    order = np.argsort(-values, kind="stable")
    top = int(order[0])
    b_max = float(values[top])
    agreeing = int(np.sum(values >= b_max - 1e-6 * max(1.0, abs(b_max))))
    converged = bool(settled[top] and (agreeing >= 2 or n_restarts == 1))
    return b_max, best_x[top], converged, int(evals.sum()), agreeing


def _reference_nelder_mead(func, centers, step, f_tol, max_evals, tally=None):
    """Minimize func over many restarts advanced in lockstep.

    func maps (N, dim) -> (N,).  Returns per-restart best values, best
    points, whether each restart settled (simplex spread <= f_tol) before
    exhausting its evaluation budget, and per-restart evaluation counts.
    A Counter passed as tally adds, per restart, each step's move
    ("expansion", "reflection", "outside contraction", "inside
    contraction", "shrink") and its stop ("settled", "budget exhausted").
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


def same_or_close(got: float, want: float, rel: float) -> bool:
    """The same nan/inf pattern, and finite values within rel of each other."""
    if math.isnan(want) or math.isinf(want):
        return repr(float(got)) == repr(float(want))
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# Scalar references of the whole-array closed forms: the landmarks, the
# same-family overlap and the heatmap writer, one point (or cell) at a time
# in `math`, as they were written before the array versions.

def tmsv_landmarks_reference(kf: float, ei: float, es: float):
    """``tmsv.critical_points`` from plain numbers: K_f and the two efficiencies."""
    from filtered_tms.tmsv import TmsvCriticalPoints

    if not 0.0 < kf <= 1.0:
        raise ValueError(f"critical points require K_f in (0, 1], got {kf}")
    if ei * es == 0.0:
        # full loss on either side leaves a product state: no window to bound
        raise ValueError(f"critical points require eta_i eta_s > 0, got {ei} * {es}")

    # unbounded landmarks at K_f = 1 branch on the exact value so rounding
    # can never turn them into large finite floats
    r_ucf_en = math.atanh(kf) if kf < 1.0 else math.inf

    if kf == 1.0:
        # argmax of E_N(r); E_N = 2r grows without bound for matched filters
        r_max_en = math.inf
    else:
        g = math.sqrt((1.0 - kf**2) * ei * es)
        w = 2.0 * ei * es + (ei + es) * g
        t = math.sqrt(4.0 * ei * es * kf**2 * (w - ei * es * kf**2)) / w
        r_max_en = 0.5 * math.atanh(t) if t < 1.0 else math.inf

    if kf == 1.0 and ei == es:
        r_max_sq = math.inf
    else:
        t_sq = 2.0 * math.sqrt(ei * es) * kf / (ei + es)
        r_max_sq = 0.5 * math.atanh(t_sq) if t_sq < 1.0 else math.inf

    return TmsvCriticalPoints(r_ucf_en, r_max_en, r_max_sq, r_ucf_sq=2.0 * r_max_sq)


THERMAL_DEN_LIMIT = 1e-12


def thermal_landmarks_reference(a: float, b: float, kf: float, lf: float):
    """``thermal.critical_points`` from plain numbers: A, B, K_f and L_f."""
    from filtered_tms.thermal import ThermalCriticalPoints

    def empty(zeta):
        nan = math.nan
        return ThermalCriticalPoints(nan, nan, nan, nan, nan, nan, zeta, has_window=False)

    if not 0.0 < kf <= 1.0:
        raise ValueError(f"critical points require K_f in (0, 1], got {kf}")
    q = a**2 * kf**2 + b**2 * lf**2
    den = a**2 * (1.0 - kf**2) - b**2 * lf**2
    g = q - b**2 + 1.0
    zeta = math.atan2(b * lf, a * kf)

    if den < THERMAL_DEN_LIMIT:
        # identical filters: upper cutoff diverges, lower cutoff stays finite
        r_lcf = 0.5 * math.acosh(max(g / (2.0 * a), 1.0))
        r_ucf = r_max_en = r_max_sq = math.inf
    else:
        rad = a**2 - den * g
        if rad < 0.0:
            return empty(zeta)
        root = math.sqrt(rad)
        ch_l = g / (a + root)
        ch_u = (a + root) / den
        if ch_u < 1.0:
            return empty(zeta)
        r_lcf = 0.5 * math.acosh(max(ch_l, 1.0))
        r_ucf = 0.5 * math.acosh(ch_u)

        # maximum of E_N(r), shared by the weight-optimized variance; a
        # non-empty window guarantees Q > B^2, the nan arm is defensive
        num = a**2 * (q - b**2)
        r_max_en = (0.5 * math.acosh(max(math.sqrt(num / (q * den)), 1.0))
                    if num > 0.0 else math.nan)

        t_sq = math.sqrt(q) / a
        r_max_sq = 0.5 * math.atanh(t_sq) if t_sq < 1.0 else math.inf

    r_lcf_sq, r_ucf_sq = _sq_window_reference(a, q)
    return ThermalCriticalPoints(r_lcf, r_ucf, r_max_en, r_lcf_sq, r_ucf_sq, r_max_sq, zeta)


def _sq_window_reference(a: float, q: float) -> tuple[float, float]:
    """SQL crossings of the equal-weight composite quadrature.

    tanh(r) = (sqrt(Q) -+ sqrt(Q - A^2 + 1)) / (A + 1); empty (nan, nan)
    when the variance never dips below the SQL.
    """
    disc = q - a**2 + 1.0
    if disc < 0.0:
        return math.nan, math.nan
    root_q, root_d = math.sqrt(q), math.sqrt(disc)
    t_l = (root_q - root_d) / (a + 1.0)
    t_u = (root_q + root_d) / (a + 1.0)
    r_l = math.atanh(min(max(t_l, 0.0), 1.0)) if t_l < 1.0 else math.inf
    r_u = math.atanh(t_u) if t_u < 1.0 else math.inf
    return r_l, r_u


def overlap_closed_form_reference(fi, fs):
    """Closed-form (K_f, L_f) for a same-family filter pair.

    Step filters integrate over the shorter window tau = min(tau_i, tau_s);
    the small-detuning branch avoids the 0/0 at matched frequencies.
    """
    from filtered_tms.filters import FilterFamily, OverlapFactors

    if fi.family is not fs.family:
        raise ValueError(
            "no closed-form overlap for mixed filter families; use overlap_numeric"
        )
    delta = fi.omega - fs.omega
    ti, ts = fi.tau, fs.tau
    root = math.sqrt(ti * ts)
    if fi.family is FilterFamily.STEP:
        tau = min(ti, ts)
        if abs(delta) * max(ti, ts) < 1e-8:
            x = tau * delta
            k = (tau / root) * (1.0 - x * x / 6.0)
            l = (tau / root) * (x / 2.0) * (1.0 - x * x / 12.0)
        else:
            k = math.sin(tau * delta) / (root * delta)
            l = (1.0 - math.cos(tau * delta)) / (root * delta)
        return OverlapFactors(k, l)
    den = ti**2 * ts**2 * delta**2 + (ti + ts) ** 2
    k = 2.0 * root * (ti + ts) / den
    l = 2.0 * root**3 * delta / den
    return OverlapFactors(k, l)


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
