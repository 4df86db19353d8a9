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
a sweep maximizes all its points in one pass.  A step makes one objective
call, on the reflection, expansion and both contraction points of every
active restart; the contraction point a restart does not use is not counted
in its evaluations.  Each restart takes the same path whatever else is in
the array, which keeps the search deterministic for a fixed seed.  The
tests check it against an independent zooming dense-grid search.
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
        return self.as_array()[_JOINT.T]


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
            raise ValueError(f"n_restarts must be at least 1, got {self.n_restarts}")
        if self.max_evals < 50:
            raise ValueError(f"max_evals must be at least 50, got {self.max_evals}")
        if not (math.isfinite(self.f_tol) and self.f_tol >= 0.0):
            raise ValueError(f"f_tol must be finite and >= 0, got {self.f_tol!r}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class BellResult:
    """The best restart's value and settings, and what the search cost.

    evaluations sums the Bell evaluations of all restarts; restarts_agreeing
    counts the restarts within 1e-6 max(1, |b_max|) of b_max (the best one
    included); spread is the best restart's final simplex spread in -|B|,
    at most f_tol exactly when that restart settled.
    """

    b_max: float
    settings: DisplacementSettings
    n_restarts_used: int
    converged: bool
    evaluations: int
    restarts_agreeing: int
    spread: float


# coordinate j of joint point u^{mn} of a settings row s is s[_JOINT[j, mn]]:
# the idler's setting m (coordinates 0:2 or 2:4) next to the signal's
# setting n (4:6 or 6:8), points ordered (00, 01, 10, 11)
_JOINT = np.array([[0, 0, 2, 2], [1, 1, 3, 3], [4, 6, 4, 6], [5, 7, 5, 7]])
_STACK_ROWS = 4096  # restart rows per lockstep pass; bounds the simplex arrays
_STEPS = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]  # r, e, oc, ic along d


class _BellEvaluator:
    """Inverse and Wigner prefactor of each matrix of a stack (or of one
    matrix), for batched Bell evaluations."""

    def __init__(self, v: CovarianceMatrix):
        m = v.entries.reshape(-1, 4, 4)
        # one column per state, so that gathering owners gives contiguous rows
        self.v_inv = np.linalg.inv(m).reshape(-1, 16).T.copy()
        self.prefactor = 1.0 / (math.pi**2 * np.sqrt(np.linalg.det(m)))

    def bell(self, settings: np.ndarray, owner=0) -> np.ndarray:
        """(..., N, 8) settings of the states ``owner`` (an index, or one per
        row of the last axis but one) -> (..., N) Bell values (signed)."""
        # coordinate-major joint points (j, point, ..., N), so that the rows
        # are the einsum's inner loop; it sums each quad over (j, k) j-major
        u = settings.transpose(-1, *range(settings.ndim - 1)).take(_JOINT, axis=0)
        v_inv = self.v_inv.take(owner, axis=1).reshape((4, 4) + np.shape(owner))
        quad = np.einsum("ji...,jk...,ki...->i...", u, v_inv, u)
        w = self.prefactor[owner] * np.exp(-0.5 * quad)
        return math.pi**2 / 4.0 * (w[0] + w[1] + w[2] - w[3])


def bell_value(v: CovarianceMatrix, s: DisplacementSettings | np.ndarray) -> float | np.ndarray:
    """Bell combination B at one choice of displacement settings (a float),
    or at each row of an (N, 8) settings array (an (N,) array)."""
    if isinstance(s, DisplacementSettings):
        return float(_BellEvaluator(v).bell(s.as_array()))
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[1] != 8:
        raise ValueError(f"settings must be an (N, 8) array, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("displacement settings must be finite")
    return _BellEvaluator(v).bell(s)


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
        best_f, best_x, settled, evals, spread = _batched_nelder_mead(
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
                spread=float(spread[rows][top]),
            ))
    return results


def _batched_nelder_mead(func, centers, owner, step, f_tol, max_evals):
    """Minimize func over many restarts advanced in lockstep.

    func maps (..., N, dim) points and the (N,) owners of their rows to
    (..., N) values; restart k starts from centers[k] with simplex edge
    step[k] and belongs to owner[k].  A step makes one func call on the four
    candidate points of every active restart, and one more for the restarts
    that shrink; it counts 3 evaluations (not the unused contraction point)
    plus dim per shrink.  Returns per-restart best values, best points,
    whether each restart settled (simplex spread <= f_tol) before exhausting
    its evaluation budget, its evaluation count and its final spread.
    """
    n, dim = centers.shape
    pts = np.repeat(centers[:, None, :], dim + 1, axis=1)
    edge = np.where(step > 0, step, 0.1)
    for i in range(dim):
        pts[:, i + 1, i] += edge
    fv = func(pts.reshape(-1, dim), np.repeat(owner, dim + 1)).reshape(n, dim + 1)
    evals = np.empty(n, dtype=int)
    settled = np.zeros(n, dtype=bool)

    # the simplices and evaluation counts of the active restarts, compacted;
    # idx are their rows
    idx, own, p, f, ev = np.arange(n), owner, pts, fv, np.full(n, dim + 1)
    rows = idx
    while True:
        order = np.argsort(f, axis=1)
        p, f = p[rows[:, None], order], f[rows[:, None], order]

        done = f[:, -1] - f[:, 0] <= f_tol
        stop = done | (ev >= max_evals)
        if stop.any():
            settled[idx[done]] = True
            out = idx[stop]
            pts[out], fv[out], evals[out] = p[stop], f[stop], ev[stop]
            go = np.flatnonzero(~stop)
            if go.size == 0:
                break
            idx, own, p, f, ev = idx[go], own[go], p[go], f[go], ev[go]
            rows = rows[:go.size]

        # candidates (worst, r, e, oc, ic): the worst vertex, then c + s d
        # for s = 1, 2, 1/2, -1/2; one call evaluates the last four
        centroid = np.add.reduce(p[:, :-1, :], axis=1) / dim
        x = np.concatenate((p[None, :, -1], centroid + _STEPS * (centroid - p[:, -1])))
        fx = np.concatenate((f[None, :, -1], func(x[1:], own)))
        fw, fr, fe, foc, fic = fx
        ev += 3

        # move 0 keeps the worst vertex and shrinks the simplex; 1-4 replace
        # the worst vertex by r, e, oc or ic (f is sorted, so fr < f[:, 0],
        # the expansion test, implies fr < f[:, -2])
        move = np.where(fr < f[:, -2], np.where((fr < f[:, 0]) & (fe < fr), 2, 1),
                        np.where(fr < fw, 3 * (foc <= fr), 4 * (fic < fw)))
        p[:, -1, :], f[:, -1] = x[move, rows], fx[move, rows]

        sh = np.flatnonzero(move == 0)
        if sh.size:
            p[sh, 1:, :] = p[sh, 0:1, :] + 0.5 * (p[sh, 1:, :] - p[sh, 0:1, :])
            flat = p[sh, 1:, :].reshape(-1, dim)
            f[sh, 1:] = func(flat, np.repeat(own[sh], dim)).reshape(len(sh), dim)
            ev[sh] += dim

    # every simplex stopped sorted, so its vertex 0 is its best
    return fv[:, 0], pts[:, 0], settled, evals, fv[:, -1] - fv[:, 0]
