"""Command-line surface: point evaluations, parameter sweeps, Bell
maximization, Monte Carlo validation and overlap-kernel checks.

Exit codes: 0 success (including reported non-convergence), 2 usage or
parameter errors (with a machine-readable JSON error line on stderr),
3 internal numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bell, fieldsim, gaussian, sweep, thermal, tmsv
from .filters import FilterFamily, FilterSpec, overlap_closed_form, overlap_numeric
from .svg import render_heatmap
from .sweep import AxisSpec, ConfigError, SweepConfig

_PARAM_FLAGS = (
    ("r", "squeezing amplitude"),
    ("k_f", "filter overlap K_f"),
    ("l_f", "filter overlap L_f"),
    ("eta_i", "idler detection efficiency"),
    ("eta_s", "signal detection efficiency"),
    ("n_i", "idler thermal occupation (thermal model)"),
    ("n_s", "signal thermal occupation (thermal model)"),
    ("omega_k", "idler filter center frequency"),
    ("omega_l", "signal filter center frequency"),
    ("tau_i", "idler filter time constant"),
    ("tau_s", "signal filter time constant"),
)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name, help_text in _PARAM_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float,
                            default=None, help=help_text)
    parser.add_argument("--family", choices=["step", "exponential"], default=None,
                        help="filter family; required with filter parameters")


def _collect_params(args) -> dict:
    return {name: getattr(args, name) for name, _ in _PARAM_FLAGS
            if getattr(args, name) is not None}


def _parse_axis(text: str) -> AxisSpec:
    try:
        name, rng = text.split("=", 1)
        lo, hi, count = rng.split(":")
        return AxisSpec(name.strip(), float(lo), float(hi), int(count))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"axis must look like name=start:stop:count, got {text!r}") from exc


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, allow_nan=True) + "\n"
    if getattr(args, "out", None):
        sweep._atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtered-tms",
        description="Entanglement, squeezing, purity and Bell non-locality of "
                    "spectrally filtered two-mode squeezed Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter tuple")
    p_point.add_argument("--model", choices=["tmsv", "thermal"], required=True)
    _add_param_flags(p_point)
    p_point.add_argument("--outputs", default="e_n,s_q_opt,purity",
                         help="comma-separated outputs (default e_n,s_q_opt,purity)")
    p_point.add_argument("--seed", type=int, default=0)
    p_point.add_argument("--restarts", type=int, default=64, help="bell_max restarts")
    p_point.add_argument("--out", default=None)
    p_point.add_argument("--format", choices=["json", "csv"], default="json")

    p_sweep = sub.add_parser("sweep", help="1-D/2-D parameter sweep to CSV/JSON")
    p_sweep.add_argument("--model", choices=["tmsv", "thermal"], required=True)
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--axis1", required=True, help="name=start:stop:count")
    p_sweep.add_argument("--axis2", default=None, help="name=start:stop:count")
    p_sweep.add_argument("--outputs", default="e_n",
                         help="comma-separated outputs (default e_n)")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--svg", default=None,
                         help="render the first output of a 2-D sweep as an SVG heatmap")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; points run serially")
    p_sweep.add_argument("--restarts", type=int, default=16,
                         help="bell_max restarts per grid point")

    p_bell = sub.add_parser("bell", help="maximize the Bell function for one state")
    p_bell.add_argument("--model", choices=["tmsv", "thermal"], required=True)
    _add_param_flags(p_bell)
    p_bell.add_argument("--seed", type=int, default=0)
    p_bell.add_argument("--restarts", type=int, default=64)
    p_bell.add_argument("--max-evals", type=int, default=2000)
    p_bell.add_argument("--out", default=None)
    p_bell.add_argument("--format", choices=["json"], default="json")

    p_val = sub.add_parser("validate", help="Monte Carlo check of the closed-form blocks")
    p_val.add_argument("--model", choices=["tmsv", "thermal"], required=True)
    _add_param_flags(p_val)
    p_val.add_argument("--family-i", choices=["step", "exponential"], default=None)
    p_val.add_argument("--family-s", choices=["step", "exponential"], default=None)
    p_val.add_argument("--dt", type=float, required=True)
    p_val.add_argument("--horizon", type=float, required=True)
    p_val.add_argument("--n-real", type=int, required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default=None)
    p_val.add_argument("--format", choices=["json"], default="json")

    p_ov = sub.add_parser("overlap", help="closed-form vs numeric overlap kernel")
    p_ov.add_argument("--family-i", choices=["step", "exponential"], default=None)
    p_ov.add_argument("--family-s", choices=["step", "exponential"], default=None)
    p_ov.add_argument("--family", choices=["step", "exponential"], default=None,
                      help="shorthand setting both families")
    p_ov.add_argument("--omega-k", dest="omega_k", type=float, required=True)
    p_ov.add_argument("--omega-l", dest="omega_l", type=float, required=True)
    p_ov.add_argument("--tau-i", dest="tau_i", type=float, required=True)
    p_ov.add_argument("--tau-s", dest="tau_s", type=float, required=True)
    p_ov.add_argument("--tol", type=float, default=1e-10)
    p_ov.add_argument("--out", default=None)
    p_ov.add_argument("--format", choices=["json"], default="json")

    return parser


def _cmd_point(args) -> int:
    params = _collect_params(args)
    outputs = tuple(s.strip() for s in args.outputs.split(",") if s.strip())
    results = sweep.evaluate_point(args.model, params, outputs, family=args.family,
                                   seed=args.seed, bell_restarts=args.restarts)
    blocks = sweep.point_blocks(args.model, params, args.family)
    if args.format == "csv":
        cols = sweep.output_columns(args.model, outputs)
        text = sweep.csv_text(cols, [[results[c] for c in cols]])
        if args.out:
            sweep._atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    payload = {
        "params": {"model": args.model, **params, "family": args.family,
                   "outputs": list(outputs), "seed": args.seed},
        "results": {
            **{k: _json_safe(v) for k, v in results.items()},
            "blocks": {"d_i": blocks.d_i, "d_s": blocks.d_s,
                       "c11": blocks.c11, "c12": blocks.c12},
        },
        "diagnostics": {},
    }
    _emit(payload, args)
    return 0


def _cmd_sweep(args) -> int:
    outputs = tuple(s.strip() for s in args.outputs.split(",") if s.strip())
    cfg = SweepConfig(
        model=args.model,
        outputs=outputs,
        fixed=_collect_params(args),
        axis1=_parse_axis(args.axis1),
        axis2=_parse_axis(args.axis2) if args.axis2 else None,
        family=args.family,
        seed=args.seed,
        bell_restarts=args.restarts,
    )
    if args.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    columns, rows = sweep.run_sweep(cfg)
    if args.svg:
        _write_sweep_svg(args.svg, cfg, columns, rows)
    if args.format == "csv":
        if args.out:
            sweep.write_csv(args.out, columns, rows)
        else:
            sys.stdout.write(sweep.csv_text(columns, rows))
    else:
        payload = {
            "params": {"model": cfg.model, "outputs": list(outputs),
                       "fixed": cfg.fixed, "seed": cfg.seed},
            "results": sweep.rows_to_json(columns, rows),
            "diagnostics": {"n_points": len(rows)},
        }
        if args.out:
            sweep.write_json(args.out, payload)
        else:
            sys.stdout.write(json.dumps(payload, allow_nan=True) + "\n")
    return 0


def _write_sweep_svg(path, cfg: SweepConfig, columns, rows) -> None:
    if cfg.axis2 is None:
        raise ConfigError("--svg needs a 2-D sweep (axis1 and axis2)")
    nx, ny = cfg.axis1.count, cfg.axis2.count
    col = len([a for a in (cfg.axis1, cfg.axis2) if a])  # first output column
    grid = np.array([row[col] for row in rows], dtype=float).reshape(ny, nx)
    text = render_heatmap(
        grid,
        x_values=cfg.axis1.grid(),
        y_values=cfg.axis2.grid(),
        x_label=cfg.axis1.name,
        y_label=cfg.axis2.name,
        title=f"{columns[col]} ({cfg.model})",
    )
    sweep._atomic_write(path, text)


def _cmd_bell(args) -> int:
    params = _collect_params(args)
    v = gaussian.build_covariance(sweep.point_blocks(args.model, params, args.family))
    cfg = bell.BellMaxConfig(n_restarts=args.restarts, max_evals=args.max_evals,
                             seed=args.seed)
    res = bell.bell_max(v, cfg)
    payload = {
        "params": {"model": args.model, **params, "family": args.family,
                   "seed": args.seed, "restarts": args.restarts,
                   "max_evals": args.max_evals},
        "results": {
            "b_max": res.b_max,
            "settings": {f: getattr(res.settings, f) for f in (
                "q_i0", "p_i0", "q_i1", "p_i1", "q_s0", "p_s0", "q_s1", "p_s1")},
        },
        "diagnostics": {
            "n_restarts_used": res.n_restarts_used,
            "converged": res.converged,
            "evaluations": res.evaluations,
            "restarts_agreeing": res.restarts_agreeing,
            "spread": res.spread,
        },
    }
    _emit(payload, args)
    return 0


def _make_filters(args) -> tuple[FilterSpec, FilterSpec]:
    """The (idler, signal) filter pair of ``validate`` or ``overlap``."""
    fam_i = args.family_i or args.family
    fam_s = args.family_s or args.family
    if fam_i is None or fam_s is None:
        raise ConfigError(f"{args.command} requires --family (or --family-i/--family-s)")
    missing = [n for n in ("omega_k", "omega_l", "tau_i", "tau_s")
               if getattr(args, n) is None]
    if missing:
        raise ConfigError(f"{args.command} requires filter parameters, missing {missing}")
    return (FilterSpec(FilterFamily(fam_i), args.omega_k, args.tau_i),
            FilterSpec(FilterFamily(fam_s), args.omega_l, args.tau_s))


def _cmd_validate(args) -> int:
    params = _collect_params(args)
    fi, fs = _make_filters(args)
    if args.model == "tmsv" and ("n_i" in params or "n_s" in params):
        raise ConfigError("thermal occupations are not tmsv parameters")
    if args.model == "thermal" and (params.get("eta_i", 1.0) < 1.0
                                    or params.get("eta_s", 1.0) < 1.0):
        raise ConfigError("the thermal simulation model is defined at unit "
                          "detection efficiency")
    ov = overlap_closed_form(fi, fs)
    get = lambda name: params.get(name, sweep._DEFAULTS[name])
    try:
        if args.model == "tmsv":
            model = tmsv.TmsvParams(get("r"), get("eta_i"), get("eta_s"), ov)
        else:
            model = thermal.ThermalParams(get("r"), get("n_i"), get("n_s"), ov)
        analytic = (tmsv if args.model == "tmsv" else thermal).covariance(model)
        cfg = fieldsim.SimConfig(
            model=model, filter_i=fi, filter_s=fs, dt=args.dt,
            horizon=args.horizon, n_realizations=args.n_real, seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    est = fieldsim.simulate(cfg)
    names = ("d_i", "d_s", "c11", "c12")
    rows = []
    all_pass = True
    for i, name in enumerate(names):
        a = float(getattr(analytic, name))
        e = float(getattr(est.blocks, name))
        se = est.std_errors[i]
        z = (e - a) / se
        ok = bool(abs(z) <= 5.0)
        all_pass &= ok
        rows.append({"block": name, "analytic": a, "estimate": e,
                     "std_error": se, "z": z, "pass_5_sigma": ok})
    payload = {
        "params": {"model": args.model, **params,
                   "family_i": fi.family.value, "family_s": fs.family.value,
                   "omega_k": args.omega_k, "omega_l": args.omega_l,
                   "tau_i": args.tau_i, "tau_s": args.tau_s,
                   "dt": args.dt, "horizon": args.horizon,
                   "n_realizations": args.n_real, "seed": args.seed},
        "results": {"blocks": rows, "all_pass": all_pass,
                    "k_f": ov.k_f, "l_f": ov.l_f},
        "diagnostics": {"bias_estimate": list(est.bias_estimate),
                        "bias_warning": est.bias_warning,
                        "lag_cells": est.lag_cells,
                        "pilot_realizations": est.pilot_realizations,
                        "normal_draws": est.normal_draws},
    }
    _emit(payload, args)
    return 0


def _cmd_overlap(args) -> int:
    fi, fs = _make_filters(args)
    numeric = overlap_numeric(fi, fs, tol=args.tol)
    closed = overlap_closed_form(fi, fs)
    payload = {
        "params": {"family_i": fi.family.value, "family_s": fs.family.value,
                   "omega_k": args.omega_k, "omega_l": args.omega_l,
                   "tau_i": args.tau_i, "tau_s": args.tau_s, "tol": args.tol},
        "results": {
            "numeric": {"k_f": numeric.k_f, "l_f": numeric.l_f},
            "closed_form": {"k_f": closed.k_f, "l_f": closed.l_f},
            "abs_difference": {"k_f": abs(closed.k_f - numeric.k_f),
                               "l_f": abs(closed.l_f - numeric.l_f)},
        },
        "diagnostics": {},
    }
    _emit(payload, args)
    return 0


_COMMANDS = {
    "point": _cmd_point,
    "sweep": _cmd_sweep,
    "bell": _cmd_bell,
    "validate": _cmd_validate,
    "overlap": _cmd_overlap,
}


# parsing leaves a parser unchanged, so every ``main`` call of a process
# shares one; callers of ``build_parser`` get their own
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(json.dumps({"error": f"numerical failure: {exc}"}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
