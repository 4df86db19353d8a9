"""Grid evaluation engine behind the CLI: 1-D/2-D sweeps over state and
filter parameters, with deterministic row ordering and per-point seeds.

Axis parameters come from a closed set; when filter parameters (omega_k,
omega_l, tau_i, tau_s) appear, a filter family must be fixed and the
overlap kernel (K_f, L_f) is recomputed from the filter pair at every grid
point.  Grids are evaluated as whole arrays, check by check; ``bell_max``
advances the restarts of every point of a block as one lockstep array, each
point with its own seed.  Rows are in axis order (axis2 outermost), and an
error names the first failing point in that order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import bell, gaussian, thermal, tmsv
from .filters import FilterFamily, FilterSpec, OverlapFactors, overlap_closed_form
from .gaussian import _reject

AXIS_PARAMS = (
    "r", "k_f", "l_f", "eta_i", "eta_s", "n_i", "n_s",
    "omega_k", "omega_l", "tau_i", "tau_s",
)
FILTER_PARAMS = ("omega_k", "tau_i", "omega_l", "tau_s")  # (omega, tau) per filter
OUTPUTS = ("e_n", "s_q_opt", "purity", "bell_max", "zeta", "weight_ratio", "critical_points")

_DEFAULTS = {
    "r": 1.0, "k_f": 1.0, "l_f": 0.0, "eta_i": 1.0, "eta_s": 1.0,
    "n_i": 0.0, "n_s": 0.0,
    "omega_k": 1.0, "omega_l": 1.0, "tau_i": 2.0, "tau_s": 2.0,
}

_TMSV_CRITICAL_COLUMNS = ("r_ucf_en", "r_max_en", "r_max_sq", "r_ucf_sq")
_THERMAL_CRITICAL_COLUMNS = (
    "r_lcf_en", "r_ucf_en", "r_max_en", "r_lcf_sq", "r_ucf_sq", "r_max_sq",
)
_BLOCK_ROWS = 4096  # grid rows per array pass; bounds the (rows, 4, 4) temporaries


class ConfigError(ValueError):
    """Invalid sweep/point configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_PARAMS:
            raise ConfigError(f"unknown axis parameter {self.name!r}; choose from {AXIS_PARAMS}")
        if self.count < 1:
            raise ConfigError("axis needs at least one point")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("axis range must be finite")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    model: str
    outputs: tuple[str, ...]
    fixed: dict = field(default_factory=dict)
    axis1: AxisSpec | None = None
    axis2: AxisSpec | None = None
    family: str | None = None
    seed: int = 0
    bell_restarts: int = 64

    def __post_init__(self):
        if self.model not in ("tmsv", "thermal"):
            raise ConfigError(f"model must be 'tmsv' or 'thermal', got {self.model!r}")
        for out in self.outputs:
            if out not in OUTPUTS:
                raise ConfigError(f"unknown output {out!r}; choose from {OUTPUTS}")
        if not self.outputs:
            raise ConfigError("at least one output is required")
        for name in self.fixed:
            if name not in AXIS_PARAMS:
                raise ConfigError(f"unknown parameter {name!r}")
        if self.axis2 is not None and self.axis1 is None:
            raise ConfigError("axis2 given without axis1")
        if self.family is not None and self.family not in ("step", "exponential"):
            raise ConfigError("family must be 'step' or 'exponential'")
        if "bell_max" in self.outputs:
            # the per-point seeds derive from seed, so it must be a valid one too
            try:
                bell.BellMaxConfig(self.bell_restarts, seed=self.seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


def _resolve_overlap(params: dict, family: str | None, value) -> OverlapFactors:
    """(K_f, L_f) over the grid, from filters or direct values."""
    if any(p in params for p in FILTER_PARAMS):
        if family is None:
            raise ConfigError("filter parameters require --family")
        if "k_f" in params or "l_f" in params:
            raise ConfigError("give either (k_f, l_f) or filter parameters, not both")
        wk, ti, wl, ts = (value(p) for p in FILTER_PARAMS)
        fam = FilterFamily(family)
        return overlap_closed_form(FilterSpec(fam, wk, ti), FilterSpec(fam, wl, ts))
    if family is not None:
        raise ConfigError("--family given without filter parameters")
    try:
        return OverlapFactors(value("k_f"), value("l_f"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _point_state(model: str, params: dict, family: str | None):
    """Model params and covariance blocks over a grid of parameter arrays."""
    n = len(next(iter(params.values()))) if params else 1

    def value(name):
        return params[name] if name in params else np.full(n, _DEFAULTS[name])

    ov = _resolve_overlap(params, family, value)
    r, eta_i, eta_s = value("r"), value("eta_i"), value("eta_s")
    try:
        if model == "tmsv":
            if "n_i" in params or "n_s" in params:
                raise ConfigError("thermal occupations are not tmsv parameters")
            p = tmsv.TmsvParams(r=r, eta_i=eta_i, eta_s=eta_s, overlap=ov)
            return p, tmsv.covariance(p), eta_i, eta_s
        # closed-form landmarks do not apply to lossy thermal states; the rest
        # uses the lossy covariance (unit efficiency leaves the blocks unchanged)
        p = thermal.ThermalParams(r=r, n_i=value("n_i"), n_s=value("n_s"), overlap=ov)
        return p, gaussian.apply_loss(thermal.covariance(p), eta_i, eta_s), eta_i, eta_s
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def critical_columns(model: str) -> tuple[str, ...]:
    return _TMSV_CRITICAL_COLUMNS if model == "tmsv" else _THERMAL_CRITICAL_COLUMNS


def output_columns(model: str, outputs) -> list[str]:
    return [col for out in outputs
            for col in (critical_columns(model) if out == "critical_points" else (out,))]


def _evaluate(model, params, outputs, family, seeds, bell_restarts, optimize=True):
    """Every requested output over a grid of parameter arrays, each check run
    over the whole grid in the order one point meets them.

    The Bell optimizer, which has no check of its own, runs last, once every
    other output of the grid has passed; ``optimize=False`` skips it, for a
    pass that only looks for a failing check.
    """
    p, blocks, eta_i, eta_s = _point_state(model, params, family)
    res: dict = {}
    mat = functools.cache(lambda: gaussian.build_covariance(blocks))
    for out in outputs:
        if out == "e_n":
            res["e_n"] = gaussian.log_negativity(blocks).e_n
        elif out == "s_q_opt":
            res["s_q_opt"] = gaussian.optimized_squeezing(blocks)
        elif out == "purity":
            res["purity"] = gaussian.purity(mat())
        elif out == "zeta":
            res["zeta"] = gaussian.squeezing_angle(blocks)
        elif out == "weight_ratio":
            # nan for uncorrelated states, where the ratio is undefined
            defined = blocks.correlation_strength() != 0.0
            safe = replace(blocks, c11=np.where(defined, blocks.c11, 1.0))
            res["weight_ratio"] = np.where(defined, gaussian.optimal_weight_ratio(safe), math.nan)
        elif out == "bell_max":
            mat()  # the physicality check, where one point meets it
            res["bell_max"] = None
        elif out == "critical_points":
            res.update(_critical_point_columns(model, p, eta_i, eta_s))
    if "bell_max" in res and optimize:
        cfg = bell.BellMaxConfig(bell_restarts)
        res["bell_max"] = np.array([r.b_max for r in bell.bell_max_stack(mat(), seeds, cfg)])
    return res


def _first_failure(evaluate, n: int) -> dict:
    """evaluate(lo, hi, optimize) over grid rows lo:hi, block by block,
    raising as a point-by-point loop would; the blocks bound the (rows, 4, 4)
    temporaries.

    A failed check raises for the first row it rejects, but an earlier row
    may fail a later check: re-check the rows before it, without the
    optimizer, until a pass is clean, then raise the error of the first
    failing row.  Each re-check fails at a later check, if at all, so the
    loop is short.
    """
    parts = []
    for lo in range(0, n, _BLOCK_ROWS):
        hi, error = min(lo + _BLOCK_ROWS, n), None
        while error is None or hi > lo:
            try:
                part = evaluate(lo, hi, error is None)
                break
            except Exception as exc:
                # a ConfigError raised from a check's error takes that error's row
                row = getattr(exc, "row", getattr(exc.__cause__, "row", None))
                if row is None:
                    raise
                error, hi = exc, lo + row
        if error is not None:
            raise error
        parts.append(part)
    return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}


def evaluate_point(model: str, params: dict, outputs, family: str | None = None, seed: int = 0,
                   bell_restarts: int = 64) -> dict:
    """All requested outputs for one parameter tuple, as a one-point grid.

    Landmarks that do not exist at a grid point (empty thermal window,
    uncorrelated state at r = 0, K_f = 0 cutoffs) are reported as nan so
    sweeps can traverse separable regions.
    """
    grid = {name: np.array([v], dtype=float) for name, v in params.items()}
    res = _evaluate(model, grid, outputs, family, [seed], bell_restarts)
    return {k: float(v[0]) for k, v in res.items()}


def point_blocks(model: str, params: dict, family: str | None = None):
    """Covariance blocks at one parameter point."""
    b = _point_state(model, {k: np.array([v], dtype=float) for k, v in params.items()}, family)[1]
    return gaussian.CovarianceBlocks(*(float(x[0]) for x in astuple(b)))


def _critical_point_columns(model: str, p, eta_i, eta_s) -> dict:
    """Closed-form landmarks over the grid, nan where a point has none."""
    if model == "tmsv":
        cp = tmsv.landmarks(p.overlap.k_f, p.eta_i, p.eta_s)
    else:
        _reject((eta_i < 1.0) | (eta_s < 1.0), lambda i: ConfigError(
            "critical_points for the thermal model are closed forms at unit detection "
            "efficiency; drop the output or set eta_i = eta_s = 1"))
        cp = thermal.landmarks(p.a, p.b, p.overlap.k_f, p.overlap.l_f)
    return {c: getattr(cp, c) for c in critical_columns(model)}


def run_sweep(cfg: SweepConfig) -> tuple[list[str], list[list[float]]]:
    """Evaluate the grid; returns (column names, rows in axis2-major order)."""
    axes = [a for a in (cfg.axis1, cfg.axis2) if a is not None]
    for a in axes:
        if a.name in cfg.fixed:
            raise ConfigError(f"{a.name!r} is both an axis and a fixed parameter")
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ConfigError("axis1 and axis2 must differ")

    # axis1 varies fastest, axis2 is the outer loop
    grids = [a.grid() for a in axes]
    n = math.prod(len(g) for g in grids)
    axis_vals = [np.tile(grids[0], n // len(grids[0]))] if axes else []
    if len(axes) == 2:
        axis_vals.append(np.repeat(grids[1], len(grids[0])))
    params = {name: np.full(n, float(v)) for name, v in cfg.fixed.items()}
    params.update((a.name, vals) for a, vals in zip(axes, axis_vals))
    seeds = _point_seeds(cfg.seed, n) if "bell_max" in cfg.outputs else None

    res = _first_failure(lambda lo, hi, optimize: _evaluate(
        cfg.model, {k: v[lo:hi] for k, v in params.items()}, cfg.outputs, cfg.family,
        seeds and seeds[lo:hi], cfg.bell_restarts, optimize), n)
    out_cols = output_columns(cfg.model, cfg.outputs)
    table = np.column_stack(axis_vals + [res[c] for c in out_cols])
    return [a.name for a in axes] + out_cols, table.tolist()


def _point_seeds(master: int, n: int) -> list[int]:
    """Stable per-grid-point seeds derived from (master seed, grid index)."""
    return [
        int(np.random.SeedSequence(entropy=(master, i)).generate_state(1)[0])
        for i in range(n)
    ]


def format_number(x: float) -> str:
    """Shortest round-trip decimal; nan/inf spelled so float() reparses them."""
    return repr(float(x))


def csv_text(columns: list[str], rows: list[list[float]]) -> str:
    """Header and rows of Python floats (run_sweep's rows and evaluate_point's
    values are); a list's repr spells each as format_number does, at C speed."""
    lines = [repr(row)[1:-1].replace(", ", ",") for row in rows]
    return "\n".join([",".join(columns)] + lines) + "\n"


def write_csv(path: str, columns: list[str], rows: list[list[float]]) -> None:
    """Write-then-rename so partial outputs are never left behind."""
    _atomic_write(path, csv_text(columns, rows))


def rows_to_json(columns, rows) -> dict:
    return {"columns": list(columns), "rows": [[float(v) for v in r] for r in rows]}


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, allow_nan=True) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
