"""CHSH Bell function over Wigner-function values and its maximization.

The Bell combination for displaced-parity measurements at joint settings
u^{mn} = [Q_I^m, P_I^m, Q_S^n, P_S^n] is

    B = (pi^2 / 4) [W(u^00) + W(u^01) + W(u^10) - W(u^11)],

with |B| <= 2 for local-realistic states.  All four Wigner values enter
linearly (a product of the middle terms would be dimensionally inconsistent
under the pi^2/4 normalization); the vacuum then reaches exactly B = 2 at
the all-zero settings.

The maximization over the eight displacement coordinates is a multistart
Nelder-Mead.  The restarts of all states of a stack advance in lockstep as
one batched simplex array, each row tagged with the state it belongs to, so
a sweep maximizes all its points in one pass.  Each restart takes the same
path whatever else is in the array, which keeps the search deterministic
for a fixed seed.  A zooming dense-grid search is provided as an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix


@dataclass(frozen=True)
class DisplacementSettings:
    """Two phase-space settings per party: (q, p) pairs indexed 0 and 1."""

    q_i0: float
    p_i0: float
    q_i1: float
    p_i1: float
    q_s0: float
    p_s0: float
    q_s1: float
    p_s1: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_array()):
            raise ValueError("displacement settings must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.q_i0, self.p_i0, self.q_i1, self.p_i1,
             self.q_s0, self.p_s0, self.q_s1, self.p_s1]
        )

    def joint_points(self) -> np.ndarray:
        """The four points u^{mn}, rows ordered (00, 01, 10, 11)."""
        return _joint_points(self.as_array()[None, :])[0]


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class BellMaxConfig:
    """Multistart budget: 1 restart from the origin plus seeded Gaussian ones."""

    n_restarts: int = 64
    max_evals: int = 2000
    f_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name in ("n_restarts", "max_evals"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_evals < 50:
            raise ValueError("max_evals too small for an 8-dimensional simplex")
        if not (math.isfinite(self.f_tol) and self.f_tol >= 0.0):
            raise ValueError(f"f_tol must be finite and >= 0, got {self.f_tol!r}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class BellResult:
    """The best restart's value and settings, and what the search cost.

    evaluations sums the Bell evaluations of all restarts; restarts_agreeing
    counts the restarts within 1e-6 max(1, |b_max|) of b_max (the best one
    included).
    """

    b_max: float
    settings: DisplacementSettings
    n_restarts_used: int
    converged: bool
    evaluations: int
    restarts_agreeing: int


# joint point u^{mn} of a settings row s is s[_JOINT].reshape(4, 4): the
# idler's setting m (coordinates 0:2 or 2:4) next to the signal's setting n
# (4:6 or 6:8), rows ordered (00, 01, 10, 11)
_JOINT = np.array([0, 1, 4, 5, 0, 1, 6, 7, 2, 3, 4, 5, 2, 3, 6, 7])
_STACK_ROWS = 4096  # restart rows per lockstep pass; bounds the simplex arrays
_REFLECT_EXPAND = np.array([1.0, 2.0])[:, None, None]


def _joint_points(s: np.ndarray) -> np.ndarray:
    """(N, 8) settings -> (N, 4, 4) joint points (00, 01, 10, 11)."""
    return s[..., _JOINT].reshape(s.shape[:-1] + (4, 4))


class _BellEvaluator:
    """Inverse and Wigner prefactor of each matrix of a stack (or of one
    matrix), for batched Bell evaluations."""

    def __init__(self, v: CovarianceMatrix):
        m = v.entries.reshape(-1, 4, 4)
        self.v_inv = np.linalg.inv(m)
        self.prefactor = 1.0 / (math.pi**2 * np.sqrt(np.linalg.det(m)))

    def bell(self, settings: np.ndarray, owner=0) -> np.ndarray:
        """(N, 8) settings of the states ``owner`` (an index, or one per row)
        -> (N,) Bell values (signed)."""
        pts = _joint_points(settings)
        quad = np.einsum("...ij,...jk,...ik->...i", pts, self.v_inv[owner], pts)
        w = self.prefactor[owner, None] * np.exp(-0.5 * quad)
        return math.pi**2 / 4.0 * (w[:, 0] + w[:, 1] + w[:, 2] - w[:, 3])


def bell_value(v: CovarianceMatrix, s: DisplacementSettings) -> float:
    """Bell combination B at one choice of displacement settings."""
    return float(_BellEvaluator(v).bell(s.as_array()[None, :])[0])


def bell_max(v: CovarianceMatrix, cfg: BellMaxConfig = BellMaxConfig()) -> BellResult:
    """Maximize |B| over the eight displacement coordinates.

    Restarts: the all-zero point plus cfg.n_restarts - 1 Gaussian samples
    whose scale is set by the largest covariance eigenvalue.  A restart is
    settled when its simplex function spread drops below cfg.f_tol; the run
    is converged when the winning restart settled within budget and at
    least one other restart reproduces the winning value to 1e-6.  This is
    the one-matrix case of ``bell_max_stack``.
    """
    return bell_max_stack(v, [cfg.seed], cfg)[0]


def bell_max_stack(v: CovarianceMatrix, seeds, cfg: BellMaxConfig = BellMaxConfig()) -> list:
    """``bell_max`` of each matrix of a stack, matrix k seeded by seeds[k]
    in place of cfg.seed; the other fields of cfg are shared.

    The restarts of all matrices advance as one lockstep array, at most
    ``_STACK_ROWS`` restart rows per pass.  Every restart takes the path it
    takes alone, so result k is bit-identical to ``bell_max`` of matrix k
    at its seed, whatever the stack around it.
    """
    m = v.entries.reshape(-1, 4, 4)
    seeds = list(seeds)
    if len(seeds) != len(m):
        raise ValueError(f"need one seed per matrix, got {len(seeds)} for {len(m)}")
    for seed in seeds:
        _check_seed(seed)
    ev = _BellEvaluator(v)
    neg = lambda s, owner: -np.abs(ev.bell(s, owner))
    scale = np.sqrt(np.max(np.linalg.eigvalsh(m), axis=1))
    n_r = cfg.n_restarts
    per_pass = max(1, _STACK_ROWS // n_r)

    results = []
    for lo in range(0, len(m), per_pass):
        states = np.arange(lo, min(lo + per_pass, len(m)))
        centers = np.zeros((len(states), n_r, 8))
        if n_r > 1:
            for k, state in enumerate(states):
                rng = np.random.default_rng(seeds[state])
                centers[k, 1:] = rng.normal(scale=scale[state], size=(n_r - 1, 8))
        owner = np.repeat(states, n_r)
        best_f, best_x, settled, evals = _batched_nelder_mead(
            neg, centers.reshape(-1, 8), owner, step=0.25 * scale[owner],
            f_tol=cfg.f_tol, max_evals=cfg.max_evals)
        for k in range(len(states)):
            rows = slice(k * n_r, (k + 1) * n_r)
            values = -best_f[rows]
            top = int(np.argsort(-values, kind="stable")[0])
            b_max = float(values[top])
            agreeing = int(np.sum(values >= b_max - 1e-6 * max(1.0, abs(b_max))))
            results.append(BellResult(
                b_max=b_max,
                settings=DisplacementSettings(*best_x[rows][top]),
                n_restarts_used=n_r,
                converged=bool(settled[rows][top] and (agreeing >= 2 or n_r == 1)),
                evaluations=int(evals[rows].sum()),
                restarts_agreeing=agreeing,
            ))
    return results


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
    running best point.  Deterministic, derivative free and simplex free;
    used as the oracle in tests.
    """
    ev = _BellEvaluator(v)
    rng = np.random.default_rng(seed)
    scatter = rng.uniform(-half_width, half_width, size=(n_scatter, 8))
    scatter[0] = 0.0
    vals = np.abs(ev.bell(scatter))
    k = int(np.argmax(vals))
    best_val, best_pt = float(vals[k]), scatter[k].copy()

    offsets = np.linspace(-1.0, 1.0, points_per_dim)
    grids = np.stack(
        np.meshgrid(*[offsets] * 8, indexing="ij"), axis=-1
    ).reshape(-1, 8)
    center, width = best_pt.copy(), half_width / 4.0
    for _ in range(levels):
        lattice = center[None, :] + width * grids
        vals = np.abs(ev.bell(lattice))
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_pt = float(vals[k]), lattice[k].copy()
        center = lattice[k]
        width *= shrink
    return best_val, best_pt


def _batched_nelder_mead(func, centers, owner, step, f_tol, max_evals):
    """Minimize func over many restarts advanced in lockstep.

    func maps (N, dim) points and the (N,) owners of those rows to (N,)
    values; restart k starts from centers[k] with simplex edge step[k] and
    belongs to owner[k].  Returns per-restart best values, best points,
    whether each restart settled (simplex spread <= f_tol) before exhausting
    its evaluation budget, and its evaluation count.
    """
    n, dim = centers.shape
    pts = np.repeat(centers[:, None, :], dim + 1, axis=1)
    edge = np.where(step > 0, step, 0.1)
    for i in range(dim):
        pts[:, i + 1, i] += edge
    fv = func(pts.reshape(-1, dim), np.repeat(owner, dim + 1)).reshape(n, dim + 1)
    evals = np.full(n, dim + 1)
    settled = np.zeros(n, dtype=bool)

    # the simplices of the active restarts, compacted; idx are their rows
    idx, own, p, f = np.arange(n), owner, pts, fv
    rows = idx
    while True:
        order = np.argsort(f, axis=1)
        p, f = p[rows[:, None], order], f[rows[:, None], order]

        done = f[:, -1] - f[:, 0] <= f_tol
        stop = done | (evals[idx] >= max_evals)
        if stop.any():
            settled[idx[done]] = True
            pts[idx[stop]], fv[idx[stop]] = p[stop], f[stop]
            go = np.flatnonzero(~stop)
            if go.size == 0:
                break
            idx, own, p, f = idx[go], own[go], p[go], f[go]
            rows = rows[:go.size]

        # reflection and expansion in one call: c + 1 d and c + 2 d
        centroid = np.add.reduce(p[:, :-1, :], axis=1) / dim
        worst = p[:, -1, :]
        d = centroid - worst
        x = centroid + _REFLECT_EXPAND * d
        fr, fe = func(x.reshape(-1, dim), np.concatenate((own, own))).reshape(2, -1)
        xr, xe = x
        # contraction outside (c + d/2) or inside (c - d/2)
        outside = fr < f[:, -1]
        xc = centroid + np.where(outside, 0.5, -0.5)[:, None] * d
        fc = func(xc, own)
        evals[idx] += 3

        expand = fr < f[:, 0]
        use_e = expand & (fe < fr)
        use_r = (expand & ~use_e) | ((~expand) & (fr < f[:, -2]))
        contract_ok = (~expand) & (fr >= f[:, -2]) & (
            np.where(outside, fc <= fr, fc < f[:, -1])
        )
        shrink = (~expand) & (fr >= f[:, -2]) & ~contract_ok
        # the moves exclude each other; the worst vertex stays when none applies
        move = use_e + 2 * use_r + 3 * contract_ok
        p[:, -1, :] = np.stack((worst, xe, xr, xc))[move, rows]
        f[:, -1] = np.stack((f[:, -1], fe, fr, fc))[move, rows]

        if shrink.any():
            sh = np.flatnonzero(shrink)
            p[sh, 1:, :] = p[sh, 0:1, :] + 0.5 * (p[sh, 1:, :] - p[sh, 0:1, :])
            flat = p[sh, 1:, :].reshape(-1, dim)
            f[sh, 1:] = func(flat, np.repeat(own[sh], dim)).reshape(len(sh), dim)
            evals[idx[sh]] += dim

    best = np.argmin(fv, axis=1)
    best_f = fv[np.arange(n), best]
    best_x = pts[np.arange(n), best]
    return best_f, best_x, settled, evals
