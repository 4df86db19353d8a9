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
a sweep maximizes all its points in one pass; each vertex carries its value
in an extra column.  The Bell function is bound to the active rows' states
at the start and when restarts stop or shrink, and a step calls it once, on
the reflection, expansion and both contraction points of every active
restart (the unused contraction point is not counted in its evaluations).
Each restart takes the same path whatever else is in the array, which keeps
the search deterministic for a fixed seed.  The tests check it against an
independent zooming dense-grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix, _check_seed


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


@dataclass(frozen=True)
class BellMaxConfig:
    """Multistart budget: 1 restart from the origin plus seeded Gaussian ones."""

    n_restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        n = self.n_restarts
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_restarts must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"n_restarts must be at least 1, got {n}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class BellResult:
    """The best restart's value and settings, and what the search cost.

    evaluations sums the Bell evaluations of all restarts; restarts_agreeing
    counts the restarts within 1e-6 max(1, |b_max|) of b_max (the best one
    included); spread is the best restart's final simplex spread in -|B|,
    at most F_TOL exactly when that restart settled; iterations is the
    number of lockstep steps until the last restart stopped.
    """

    b_max: float
    settings: DisplacementSettings
    converged: bool
    evaluations: int
    restarts_agreeing: int
    spread: float
    iterations: int


# coordinate j of joint point u^{mn} of a settings row s is s[_JOINT[j, mn]]:
# the idler's setting m (coordinates 0:2 or 2:4) next to the signal's
# setting n (4:6 or 6:8), points ordered (00, 01, 10, 11)
_JOINT = np.array([[0, 0, 2, 2], [1, 1, 3, 3], [4, 6, 4, 6], [5, 7, 5, 7]])
_STACK_ROWS = 4096  # restart rows per lockstep pass; bounds the simplex arrays
F_TOL = 1e-10  # a restart has settled when its simplex spread in -|B| is at most this
MAX_EVALS = 2000  # a restart stops once its Bell evaluations reach this many
_STEPS = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]  # r, e, oc, ic along d


class _BellEvaluator:
    """Inverse and Wigner prefactor of each matrix of a stack (or of one
    matrix), for batched Bell evaluations."""

    def __init__(self, v: CovarianceMatrix):
        m = v.entries.reshape(-1, 4, 4)
        # one column per state, so that gathering owners gives contiguous rows
        self.v_inv = np.linalg.inv(m).reshape(-1, 16).T.copy()
        self.prefactor = 1.0 / (math.pi**2 * np.sqrt(np.linalg.det(m)))

    def bind(self, owner=0):
        """The Bell function of the states ``owner`` (an index, or one per row):
        (..., N, 8) settings -> (..., N) signed Bell values.  The owners'
        inverses are gathered here, once, and scaled by -1/2, which is exact."""
        half_inv = -0.5 * self.v_inv.take(owner, axis=1).reshape((4, 4) + np.shape(owner))
        prefactor = self.prefactor[owner]

        def bell(settings: np.ndarray) -> np.ndarray:
            # coordinate-major joint points (j, point, ..., N), so that the rows
            # are the einsum's inner loop; it sums each quad over (j, k) j-major
            u = settings.transpose(-1, *range(settings.ndim - 1)).take(_JOINT, axis=0)
            w = prefactor * np.exp(np.einsum("ji...,jk...,ki...->i...", u, half_inv, u))
            return math.pi**2 / 4.0 * (w[0] + w[1] + w[2] - w[3])

        return bell


def bell_value(v: CovarianceMatrix, s: DisplacementSettings | np.ndarray) -> float | np.ndarray:
    """Bell combination B of one matrix (a stack of one is one) at one choice
    of displacement settings (a float), or at each row of an (N, 8) settings
    array (an (N,) array)."""
    if v.entries.size > 16:
        raise ValueError(f"bell_value takes one covariance matrix, got a stack of shape "
                         f"{v.entries.shape}")
    if isinstance(s, DisplacementSettings):
        return float(_BellEvaluator(v).bind()(s.as_array()))
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[1] != 8:
        raise ValueError(f"settings must be an (N, 8) array, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("displacement settings must be finite")
    return _BellEvaluator(v).bind()(s)


def bell_max(v: CovarianceMatrix, cfg: BellMaxConfig = BellMaxConfig()) -> BellResult:
    """Maximize |B| over the eight displacement coordinates.

    Restarts: the all-zero point plus cfg.n_restarts - 1 Gaussian samples
    whose scale is set by the largest covariance eigenvalue.  A restart is
    settled when its simplex function spread is at most F_TOL; the run
    is converged when the winning restart settled within MAX_EVALS and at
    least one other restart reproduces the winning value to 1e-6.  This is
    the one-matrix case of ``bell_max_stack``.
    """
    return bell_max_stack(v, [cfg.seed], cfg)[0]


def bell_max_stack(v: CovarianceMatrix, seeds, cfg: BellMaxConfig = BellMaxConfig()) -> list:
    """``bell_max`` of each matrix of a stack, matrix k seeded by seeds[k]
    in place of cfg.seed, all with cfg.n_restarts restarts.

    The restarts of all matrices advance as one lockstep array, at most
    ``_STACK_ROWS`` restart rows per pass.  Every restart takes the path it
    takes alone, so result k is bit-identical to ``bell_max`` of matrix k
    at its seed, whatever the stack around it.  Results are the same bit
    for bit for a fixed seed only where numpy dispatches the same
    ``argsort`` for the simplex order: its AVX-512 kernel orders exact ties
    differently from a stable sort, and ties occur.  Ideal TMSV at r = 1.5,
    64 restarts and seed 7 gives 2.3218773 on an AVX-512 host, and
    2.3221323 with a stable sort.
    """
    m = v.entries.reshape(-1, 4, 4)
    seeds = list(seeds)
    if len(seeds) != len(m):
        raise ValueError(f"need one seed per matrix, got {len(seeds)} for {len(m)}")
    for seed in seeds:
        _check_seed(seed)
    ev = _BellEvaluator(v)

    def neg_abs(owner):
        bell = ev.bind(owner)
        return lambda s: -np.abs(bell(s))

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
        best_f, best_x, settled, evals, spread, steps = _batched_nelder_mead(
            neg_abs, centers.reshape(-1, 8), owner, 0.25 * scale[owner], MAX_EVALS)
        for k in range(len(states)):
            rows = slice(k * n_r, (k + 1) * n_r)
            values = -best_f[rows]
            top = int(np.argsort(-values, kind="stable")[0])
            b_max = float(values[top])
            agreeing = int(np.sum(values >= b_max - 1e-6 * max(1.0, abs(b_max))))
            results.append(BellResult(
                b_max=b_max,
                settings=DisplacementSettings(*best_x[rows][top]),
                converged=bool(settled[rows][top] and (agreeing >= 2 or n_r == 1)),
                evaluations=int(evals[rows].sum()),
                restarts_agreeing=agreeing,
                spread=float(spread[rows][top]),
                iterations=int(steps[rows].max()),
            ))
    return results


def _batched_nelder_mead(objective, centers, owner, step, max_evals):
    """Minimize over many restarts advanced in lockstep.

    objective(owner) binds the objective to the (N,) owners of N rows, as a
    function of (..., N, dim) points -> (..., N) values; restart k starts
    from centers[k] with simplex edge step[k] and belongs to owner[k].  A
    step calls it once, on the four candidate points of every active
    restart, and counts 3 evaluations (not the unused contraction point)
    plus dim per shrink.  Returns per-restart best values, best points,
    whether each restart settled (simplex spread <= F_TOL) before exhausting
    its evaluation budget, and its evaluation count, final spread and steps.
    """
    n, dim = centers.shape
    # p[i, k] is vertex i of restart k: its dim coordinates, then its value;
    # vertex i + 1 starts one edge along coordinate i
    p = np.zeros((dim + 1, n, dim + 1))
    p[:, :, :dim] = centers
    p[range(1, dim + 1), :, range(dim)] += np.where(step > 0, step, 0.1)
    func = objective(owner)
    p[:, :, dim] = func(p[:, :, :dim])
    best, spread = np.empty((n, dim + 1)), np.empty(n)
    evals, steps = np.empty(n, dtype=int), np.empty(n, dtype=int)

    # p holds the active restarts and idx their rows; after `taken` steps a
    # row has made 3 taken + spent[row] evaluations, and top is max(spent)
    idx = rows = np.arange(n)
    own, spent, taken, top = owner, np.full(n, dim + 1), 0, dim + 1
    while True:
        # sort each simplex by value: one gather of points and values together
        order = np.argsort(p[:, :, dim], axis=0) * len(rows) + rows
        p = p.reshape(-1, dim + 1).take(order, axis=0)
        width = p[-1, :, dim] - p[0, :, dim]
        if width[width.argmin()] <= F_TOL or 3 * taken + top >= max_evals:
            ev = spent + 3 * taken
            stop = (width <= F_TOL) | (ev >= max_evals)
            out = idx[stop]
            best[out], spread[out], evals[out] = p[0, stop], width[stop], ev[stop]
            steps[out] = taken
            go = np.flatnonzero(~stop)
            if go.size == 0:
                break
            idx, own, spent, rows, p = idx[go], own[go], spent[go], rows[:go.size], p[:, go]
            func, top = objective(own), int(spent.max())

        # candidates r, e, oc, ic; the centroid's value column is overwritten
        centroid = np.add.reduce(p[:-1], axis=0) / dim
        x = centroid + _STEPS * (centroid - p[-1])
        x[..., dim] = func(x[..., :dim])
        fr, fe, foc, fic = x[..., dim]
        f0, fw = p[0, :, dim], p[-1, :, dim]
        taken += 1

        # the worst vertex goes to r (e if fe < fr < f0) when fr beats the
        # second worst, else to oc if fr beats the worst and to ic if not; a
        # rejected contraction shrinks the simplex instead, and the shrunk
        # worst vertex is written to that contraction's slot for the gather
        reflect, outside = fr < p[-2, :, dim], fr < fw
        move = np.where(reflect, (fr < f0) & (fe < fr), 3 - outside)
        keep = reflect | np.where(outside, foc <= fr, fic < fw)
        if np.count_nonzero(keep) < len(keep):
            sh = np.flatnonzero(~keep)
            q = p[:, sh]
            q[1:, :, :dim] = q[:1, :, :dim] + 0.5 * (q[1:, :, :dim] - q[:1, :, :dim])
            q[1:, :, dim] = objective(own[sh])(q[1:, :, :dim])
            p[:, sh], x[move[sh], sh] = q, q[-1]
            spent[sh] += dim
            top = int(spent.max())
        p[-1] = x[move, rows]

    # every simplex stopped sorted, so its vertex 0 is its best; a restart
    # settled if its final spread is within F_TOL
    return best[:, dim], best[:, :dim], spread <= F_TOL, evals, spread, steps
