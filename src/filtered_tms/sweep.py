"""Grid evaluation engine behind the CLI: 1-D/2-D sweeps over state and
filter parameters, with deterministic row ordering and per-point seeds, and
the one constructor of a command's state, ``point_state``.

A request is a ``SweepConfig``, which checks every name in it when it is
built; ``run_sweep`` runs it.  A request without axes is a one-row grid.

Both models are the one state model of ``thermal``, the vacuum (``tmsv``)
being its zero-occupation case.  The state parameters are the keys of
``_DEFAULTS``; when filter parameters (omega_k, omega_l, tau_i, tau_s)
appear, a family per filter must be fixed, and the overlap kernel
(K_f, L_f) is that of the pair ``filter_pair`` builds, at every grid point;
the outputs ``k_f`` and ``l_f`` report it.
A grid is evaluated in one whole-array pass, check by check; ``bell_max``
then advances the restarts of every grid point as one lockstep array, each
point with its own seed.  Rows are in axis order (axis2 outermost), and an
error is that of the first failing point in that order, prefixed with the
point's row and axis values; a request without axes seeds its Bell search
with the request's own seed and raises its error as is.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import bell, gaussian, thermal
from .filters import FilterSpec, OverlapFactors, overlap_closed_form

# the state parameters, in axis and flag order, and their defaults
_DEFAULTS = {
    "r": 1.0, "k_f": 1.0, "l_f": 0.0, "eta_i": 1.0, "eta_s": 1.0,
    "n_i": 0.0, "n_s": 0.0,
    "omega_k": 1.0, "omega_l": 1.0, "tau_i": 2.0, "tau_s": 2.0,
}
AXIS_PARAMS = tuple(_DEFAULTS)
FILTER_PARAMS = ("omega_k", "omega_l", "tau_i", "tau_s")  # the centers, then the time constants
OUTPUTS = ("e_n", "s_q_opt", "purity", "bell_max", "zeta", "weight_ratio", "critical_points",
           "k_f", "l_f")
# each family's name and the filter it makes of a center and a time constant
FAMILIES = {"step": FilterSpec.step, "exponential": FilterSpec.exponential}

CRITICAL_COLUMNS = ("r_lcf_en", "r_ucf_en", "r_max_en", "r_lcf_sq", "r_ucf_sq", "r_max_sq")

# rows per chunk of ``csv_chunks``: a CSV's text is made one chunk at a time
CSV_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_PARAMS:
            raise ValueError(f"unknown axis parameter {self.name!r}; choose from {AXIS_PARAMS}")
        if self.count < 1:
            raise ValueError("axis needs at least one point")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis range must be finite")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    model: str
    outputs: tuple[str, ...]
    fixed: dict = field(default_factory=dict)
    axis1: AxisSpec | None = None
    axis2: AxisSpec | None = None
    families: tuple[str | None, str | None] = (None, None)  # (idler, signal)
    seed: int = 0
    bell_restarts: int = 64

    def __post_init__(self):
        if self.model not in ("tmsv", "thermal"):
            raise ValueError(f"model must be 'tmsv' or 'thermal', got {self.model!r}")
        for i, out in enumerate(self.outputs):
            if out not in OUTPUTS:
                raise ValueError(f"unknown output {out!r}; choose from {OUTPUTS}")
            if out in self.outputs[:i]:
                raise ValueError(f"{out!r} is given twice as an output")
        if not self.outputs:
            raise ValueError("at least one output is required")
        for name in self.fixed:
            if name not in AXIS_PARAMS:
                raise ValueError(f"unknown parameter {name!r}")
        if self.axis2 is not None and self.axis1 is None:
            raise ValueError("axis2 given without axis1")
        for name, family in zip(("family_i", "family_s"), self.families, strict=True):
            if family is not None and family not in FAMILIES:
                raise ValueError(f"{name} must be one of {tuple(FAMILIES)}, got {family!r}")
        if "bell_max" in self.outputs:
            # the per-point seeds derive from seed, so it must be a valid one too
            bell.BellMaxConfig(self.bell_restarts, seed=self.seed)
        axes = [a.name for a in (self.axis1, self.axis2) if a is not None]
        for name in axes:
            if name in self.fixed:
                raise ValueError(f"{name!r} is both an axis and a fixed parameter")
            if name in self.outputs:
                raise ValueError(f"{name!r} is both an axis and an output")
        if len(axes) == 2 and axes[0] == axes[1]:
            raise ValueError("axis1 and axis2 must differ")
        _check_names(self.model, {*self.fixed, *axes}, self.families)


def filter_pair(family_i: str, family_s: str, omega_k, omega_l, tau_i, tau_s):
    """The (idler, signal) filters: family_i at (omega_k, tau_i), family_s at (omega_l, tau_s)."""
    return FAMILIES[family_i](omega_k, tau_i), FAMILIES[family_s](omega_l, tau_s)


def _check_names(model: str, params, families) -> None:
    """Checks on which parameters are given: a grid fails them as a whole."""
    filtered = any(p in params for p in FILTER_PARAMS)
    if filtered and None in families:
        raise ValueError("filter parameters require --family (or --family-i and --family-s)")
    if filtered and ("k_f" in params or "l_f" in params):
        raise ValueError("give either (k_f, l_f) or filter parameters, not both")
    if not filtered and families != (None, None):
        raise ValueError("--family (or --family-i/--family-s) given without filter parameters")
    if model == "tmsv" and ("n_i" in params or "n_s" in params):
        raise ValueError("thermal occupations are not tmsv parameters")


def _resolve_overlap(params: dict, families, value) -> OverlapFactors:
    """(K_f, L_f) over the grid, from filters or direct values."""
    if any(p in params for p in FILTER_PARAMS):
        return overlap_closed_form(*filter_pair(*families, *map(value, FILTER_PARAMS)))
    return OverlapFactors(value("k_f"), value("l_f"))


def point_state(params: dict, families=(None, None)):
    """The model's params and covariance blocks at parameter values given as
    floats (one state) or as equal-length arrays (a grid of states); a
    parameter not given takes its default.  ``families`` are the (idler,
    signal) filter families, needed with filter parameters (the caller
    checks which names are given, with ``_check_names``)."""
    shape = np.shape(next(iter(params.values()))) if params else ()

    def value(name):
        if name in params:
            return params[name]
        return _DEFAULTS[name] if shape == () else np.full(shape, _DEFAULTS[name])

    ov = _resolve_overlap(params, families, value)
    p = thermal.ThermalParams(value("r"), value("n_i"), value("n_s"), ov,
                              value("eta_i"), value("eta_s"))
    return p, thermal.covariance(p)


def output_columns(outputs) -> list[str]:
    return [col for out in outputs
            for col in (CRITICAL_COLUMNS if out == "critical_points" else (out,))]


def _evaluate(cfg: SweepConfig, params):
    """Every requested output over a grid of parameter arrays, each check run
    over the whole grid in the order one point meets them.

    The blocks pass the closed-form physicality check first; only
    ``bell_max`` builds the (rows, 4, 4) matrix stack, with the matrix
    checks, and its entry is that checked stack: the caller runs the Bell
    optimizer, which has no check of its own, once the whole grid has
    passed.  Returns the outputs and the grid's blocks.
    """
    # a grid without parameters is one state at the defaults
    p, blocks = point_state(params or {"r": np.array([_DEFAULTS["r"]])}, cfg.families)
    gaussian.check_blocks(blocks)
    res: dict = {}
    for out in cfg.outputs:
        if out == "e_n":
            # the checked blocks have s_q_opt > 0, so log_negativity cannot raise here
            res["e_n"] = gaussian.log_negativity(blocks)
        elif out == "s_q_opt":
            res["s_q_opt"] = gaussian.optimized_squeezing(blocks)
        elif out == "purity":
            res["purity"] = gaussian.purity(blocks)
        elif out == "zeta":
            res["zeta"] = gaussian.squeezing_angle(blocks)
        elif out == "weight_ratio":
            # nan for uncorrelated states, where the ratio is undefined
            defined = blocks.correlation_strength() != 0.0
            safe = replace(blocks, c11=np.where(defined, blocks.c11, 1.0))
            res["weight_ratio"] = np.where(defined, gaussian.optimal_weight_ratio(safe), math.nan)
        elif out == "bell_max":
            # the matrix checks, where one point meets them
            res["bell_max"] = gaussian.build_covariance(blocks)
        elif out in ("k_f", "l_f"):
            res[out] = getattr(p.overlap, out)
        elif out == "critical_points":
            cp = thermal.landmarks(p)
            res.update((c, getattr(cp, c)) for c in CRITICAL_COLUMNS)
    return res, blocks


def _first_failure(evaluate, n: int, where) -> None:
    """Raise the error of the first of grid rows 0:n that fails on its own,
    once the whole grid has failed; evaluate(lo, hi) runs rows lo:hi.

    Every check is elementwise, so a run of rows fails exactly when one of
    its rows fails alone.  Runs that double in length from row 0 find a
    failing run, and bisection narrows it to its first failing row f, in at
    most 3 (f + 1) rows; row f then runs alone, so its error is a
    point-by-point loop's, raised again with its type and its message
    prefixed by "grid row f (where(f))".  Returns if no row fails alone.
    """
    good, bad = 0, n  # rows before good pass; rows good:bad hold a failure
    size = 1
    while good + size < bad:
        try:
            evaluate(good, good + size)
        except (ArithmeticError, ValueError):
            bad = good + size
            break
        good, size = good + size, 2 * size
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            evaluate(good, mid)
            good = mid
        except (ArithmeticError, ValueError):
            bad = mid
    try:
        evaluate(good, bad)
    except (ArithmeticError, ValueError) as exc:
        raise type(exc)(f"grid row {good} ({where(good)}): {exc}") from exc


def run_sweep(cfg: SweepConfig):
    """Evaluate any request; returns (column names, an (n, columns) float
    table whose rows are in axis2-major order, the grid's covariance blocks,
    and the ``bell.BellResult`` of each row's Bell search, or None without
    ``bell_max``).

    Landmarks that do not exist at a grid point (empty thermal window,
    uncorrelated state at r = 0, K_f = 0 cutoffs) are reported as nan so
    sweeps can traverse separable regions.
    """
    axes = [a for a in (cfg.axis1, cfg.axis2) if a is not None]
    # axis1 varies fastest, axis2 is the outer loop; no axes is one row
    grids = [a.grid() for a in axes]
    n = math.prod(len(g) for g in grids)
    axis_vals = [np.tile(grids[0], n // len(grids[0]))] if axes else []
    if len(axes) == 2:
        axis_vals.append(np.repeat(grids[1], len(grids[0])))
    params = {name: np.full(n, float(v)) for name, v in cfg.fixed.items()}
    params.update((a.name, vals) for a, vals in zip(axes, axis_vals))

    def evaluate(lo, hi):
        return _evaluate(cfg, {k: v[lo:hi] for k, v in params.items()})

    try:
        res, blocks = evaluate(0, n)
    except (ArithmeticError, ValueError):
        if axes:
            _first_failure(evaluate, n, lambda row: ", ".join(
                f"{a.name}={float(vals[row])!r}" for a, vals in zip(axes, axis_vals)))
        raise
    searches = None
    if "bell_max" in res:
        seeds = _point_seeds(cfg.seed, n) if axes else [cfg.seed]
        searches = bell.bell_max_stack(res["bell_max"], seeds,
                                       bell.BellMaxConfig(cfg.bell_restarts))
        res["bell_max"] = np.array([r.b_max for r in searches])
    out_cols = output_columns(cfg.outputs)
    table = np.column_stack(axis_vals + [res[c] for c in out_cols])
    return [a.name for a in axes] + out_cols, table, blocks, searches


def _point_seeds(master: int, n: int) -> list[int]:
    """Stable per-grid-point seeds derived from (master seed, grid index)."""
    return [
        int(np.random.SeedSequence(entropy=(master, i)).generate_state(1)[0])
        for i in range(n)
    ]


def csv_chunks(columns: list[str], table: np.ndarray) -> Iterator[str]:
    """The CSV text of an (n, len(columns)) float table, in chunks: the
    header line, then the lines of each ``CSV_CHUNK_ROWS`` rows, made as
    they are asked for, so a writer holds one chunk's text at a time.

    Each number is spelled as ``repr(float(x))`` spells it: the shortest
    round-trip decimal, with nan and inf spelled so float() reparses them.
    Within a chunk, a column is spelled once per distinct bit pattern (so
    -0.0 stays apart from 0.0): a grid's axis and landmark columns cost one
    repr per grid line a chunk meets, not per point."""
    yield ",".join(columns) + "\n"
    for lo in range(0, len(table), CSV_CHUNK_ROWS):
        cells = []
        for col in np.ascontiguousarray(table[lo:lo + CSV_CHUNK_ROWS].T):
            distinct, inverse = np.unique(col.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in distinct.view(np.float64).tolist()],
                            dtype=object)
            cells.append(text[inverse].tolist())
        yield "\n".join([",".join(row) for row in zip(*cells)]) + "\n"
