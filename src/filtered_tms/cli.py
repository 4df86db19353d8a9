"""Command-line surface: point evaluations, parameter sweeps, Bell
maximization and Monte Carlo validation.

Every command builds its state with ``sweep.point_state``, from the state
flags (``sweep.AXIS_PARAMS``) and the (idler, signal) filter families that
``_families`` reads from ``--family`` and ``--family-i/--family-s``.
``point``, ``bell`` and ``sweep`` build one checked request, a
``sweep.SweepConfig``, so a bad request fails each with the same message,
and evaluate it with ``sweep.run_sweep``: a point is a grid without axes.

Exit codes: 0 success (including reported non-convergence), 2 usage or
parameter errors (with a machine-readable JSON error line on stderr),
3 internal numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import tempfile
from collections.abc import Iterable

import numpy as np

from . import fieldsim, sweep, thermal
from .filters import overlap_closed_form
from .svg import render_heatmap
from .sweep import AxisSpec, SweepConfig

_PARAM_HELP = (  # one per name of sweep.AXIS_PARAMS, in its order
    "squeezing amplitude",
    "filter overlap K_f",
    "filter overlap L_f",
    "idler detection efficiency",
    "signal detection efficiency",
    "idler thermal occupation (thermal model)",
    "signal thermal occupation (thermal model)",
    "idler filter center frequency",
    "signal filter center frequency",
    "idler filter time constant",
    "signal filter time constant",
)


def _collect_params(args) -> dict:
    return {name: getattr(args, name) for name in sweep.AXIS_PARAMS
            if getattr(args, name) is not None}


def _families(args) -> tuple:
    """The (idler, signal) families: ``--family`` sets both, and
    ``--family-i``/``--family-s`` override it for one filter."""
    return (args.family_i or args.family, args.family_s or args.family)


def _request(args, outputs, axis1=None, axis2=None) -> SweepConfig:
    """The checked request of ``point``, ``bell`` or ``sweep``."""
    return SweepConfig(model=args.model, outputs=outputs, fixed=_collect_params(args),
                       axis1=axis1, axis2=axis2, families=_families(args), seed=args.seed,
                       bell_restarts=args.restarts)


def _output_list(text: str) -> tuple[str, ...]:
    """The names of a comma-separated ``--outputs``."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_axis(text: str) -> AxisSpec:
    try:
        name, rng = text.split("=", 1)
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ValueError(f"axis must look like name=start:stop:count, got {text!r}") from exc
    return AxisSpec(name.strip(), lo, hi, count)


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write an iterable of str chunks, in order, to stdout when no path is
    given, else to path.  A generator's chunks are made as they are
    written, so only one of them need be held at a time.

    A regular file (or a new one) is written to a temporary file beside it
    and renamed into place, so a partial output is never left behind: an
    error while a chunk is made or written removes the temporary file.  A
    new file gets mode 0o666 & ~umask and an existing one keeps its mode.
    Any other existing target (a FIFO, a device) is written in place, never
    replaced by a regular file.  A symbolic link is followed: its target is
    written and the link stays.
    """
    if not path:
        sys.stdout.writelines(chunks)
        return
    given, path = path, os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        # the umask can only be read by setting it
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", text=True)
    except OSError as exc:
        # name the output asked for, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, given) from exc
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spell(x):
    """x with every non-finite float spelled as a string, as repr spells it
    ("inf", "-inf", "nan"): JSON has no such numbers."""
    if isinstance(x, dict):
        return {k: _spell(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_spell(v) for v in x]
    return repr(float(x)) if isinstance(x, float) and not math.isfinite(x) else x


def _emit(payload: dict, path: str | None) -> None:
    _write(path, [json.dumps(_spell(payload), indent=2, allow_nan=False) + "\n"])


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, so that
    ``main`` reports them as one JSON error line with exit code 2; its
    subparsers are of the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="filtered-tms",
        description="Entanglement, squeezing, purity and Bell non-locality of "
                    "spectrally filtered two-mode squeezed Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the state flags, shared by point, sweep, bell and validate
    state = _Parser(add_help=False)
    state.add_argument("--model", choices=["tmsv", "thermal"], required=True)
    for name, help_text in zip(sweep.AXIS_PARAMS, _PARAM_HELP, strict=True):
        state.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float,
                           default=None, help=help_text)
    state.add_argument("--family", choices=sweep.FAMILIES, default=None,
                       help="both filters' family; required with filter parameters")
    state.add_argument("--family-i", choices=sweep.FAMILIES, default=None,
                       help="idler filter family, overriding --family")
    state.add_argument("--family-s", choices=sweep.FAMILIES, default=None,
                       help="signal filter family, overriding --family")
    state.add_argument("--seed", type=int, default=0)

    p_point = sub.add_parser("point", parents=[state], help="evaluate one parameter tuple")
    p_point.add_argument("--outputs", type=_output_list, default="e_n,s_q_opt,purity",
                         help="comma-separated outputs (default e_n,s_q_opt,purity)")
    p_point.add_argument("--restarts", type=int, default=64, help="bell_max restarts")
    p_point.add_argument("--format", choices=["json", "csv"], default="json")

    p_sweep = sub.add_parser("sweep", parents=[state], help="1-D/2-D parameter sweep to CSV/JSON")
    p_sweep.add_argument("--axis1", required=True, help="name=start:stop:count")
    p_sweep.add_argument("--axis2", default=None, help="name=start:stop:count")
    p_sweep.add_argument("--outputs", type=_output_list, default="e_n",
                         help="comma-separated outputs (default e_n)")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--svg", default=None,
                         help="render the first output of a 2-D sweep as an SVG heatmap")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; points run serially")
    p_sweep.add_argument("--restarts", type=int, default=16,
                         help="bell_max restarts per grid point")

    p_bell = sub.add_parser("bell", parents=[state],
                            help="maximize the Bell function for one state")
    p_bell.add_argument("--restarts", type=int, default=64)

    p_val = sub.add_parser("validate", parents=[state],
                           help="Monte Carlo check of the closed-form blocks")
    p_val.add_argument("--dt", type=float, required=True)
    p_val.add_argument("--horizon", type=float, required=True)
    p_val.add_argument("--n-real", type=int, required=True)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _family_params(families) -> dict:
    """The (idler, signal) families as every command reports them."""
    return dict(zip(("family_i", "family_s"), families))


def _bell_diagnostics(search) -> dict:
    """The Bell search's certificate, as point (with bell_max) and bell report it."""
    return {name: getattr(search, name) for name in (
        "converged", "evaluations", "restarts_agreeing", "spread", "iterations")}


def _cmd_point(args) -> int:
    cfg = _request(args, args.outputs)
    columns, table, blocks, searches = sweep.run_sweep(cfg)
    if args.format == "csv":
        _write(args.out, sweep.csv_chunks(columns, table))
        return 0
    payload = {
        "params": {"model": cfg.model, **cfg.fixed, **_family_params(cfg.families),
                   "outputs": list(cfg.outputs), "seed": cfg.seed},
        "results": {
            **dict(zip(columns, table[0].tolist())),
            "blocks": {name: float(getattr(blocks, name)[0])
                       for name in ("d_i", "d_s", "c11", "c12")},
        },
        "diagnostics": {} if searches is None else _bell_diagnostics(searches[0]),
    }
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _request(args, args.outputs, _parse_axis(args.axis1),
                   _parse_axis(args.axis2) if args.axis2 else None)
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    if args.svg and cfg.axis2 is None:
        raise ValueError("--svg needs a 2-D sweep (axis1 and axis2)")
    columns, table, _, _ = sweep.run_sweep(cfg)
    if args.svg:
        _write_sweep_svg(args.svg, cfg, columns, table)
    if args.format == "csv":
        _write(args.out, sweep.csv_chunks(columns, table))
        return 0
    payload = {
        "params": {"model": cfg.model, "outputs": list(cfg.outputs), "fixed": cfg.fixed,
                   **_family_params(cfg.families), "seed": cfg.seed,
                   "axis1": dataclasses.asdict(cfg.axis1),
                   "axis2": cfg.axis2 and dataclasses.asdict(cfg.axis2)},
        "results": {"columns": columns, "rows": table.tolist()},
        "diagnostics": {"n_points": len(table)},
    }
    _emit(payload, args.out)
    return 0


def _write_sweep_svg(path, cfg: SweepConfig, columns, table) -> None:
    nx, ny = cfg.axis1.count, cfg.axis2.count
    grid = table[:, 2].reshape(ny, nx)  # the first output, after the two axes
    text = render_heatmap(
        grid,
        x_values=cfg.axis1.grid(),
        y_values=cfg.axis2.grid(),
        x_label=cfg.axis1.name,
        y_label=cfg.axis2.name,
        title=f"{columns[2]} ({cfg.model})",
    )
    _write(path, [text])


def _cmd_bell(args) -> int:
    """``point --outputs bell_max``, reporting the best restart's settings."""
    cfg = _request(args, ("bell_max",))
    res = sweep.run_sweep(cfg)[3][0]
    payload = {
        "params": {"model": cfg.model, **cfg.fixed, **_family_params(cfg.families),
                   "seed": cfg.seed, "restarts": cfg.bell_restarts},
        "results": {"b_max": res.b_max, "settings": dataclasses.asdict(res.settings)},
        "diagnostics": _bell_diagnostics(res),
    }
    _emit(payload, args.out)
    return 0


# validate's bound on |chain_residual|, relative to max(1, max |analytic block|)
_CHAIN_TOL = 1e-7


def _cmd_validate(args) -> int:
    params, families = _collect_params(args), _families(args)
    missing = [n for n in sweep.FILTER_PARAMS if n not in params]
    if missing:
        raise ValueError(f"validate requires filter parameters, missing {missing}")
    sweep._check_names(args.model, params, families)
    fi, fs = sweep.filter_pair(*families, *(params[n] for n in sweep.FILTER_PARAMS))
    model, requested = sweep.point_state(params, families)
    cfg = fieldsim.SimConfig(model, fi, fs, args.dt, args.horizon, args.n_real, args.seed)
    # the closed form of the pair as sampled, gated at the horizon
    analytic = thermal.covariance(dataclasses.replace(
        model, overlap=overlap_closed_form(cfg.filter_i, cfg.filter_s)))
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
    # the dt -> 0 limit of the chain, less the closed form; it carries no
    # sampling noise, so it must meet _CHAIN_TOL of the block scale
    chain = [lim - row["analytic"] for lim, row in zip(est.richardson_limit, rows)]
    tol = _CHAIN_TOL * max(1.0, *(abs(row["analytic"]) for row in rows))
    all_pass &= all(abs(x) <= tol for x in chain)
    payload = {
        "params": {"model": args.model, **params, **_family_params(families),
                   "dt": args.dt, "horizon": args.horizon,
                   "n_realizations": args.n_real, "seed": args.seed},
        "results": {"blocks": rows, "all_pass": all_pass,
                    "k_f": model.overlap.k_f, "l_f": model.overlap.l_f},
        "diagnostics": {"bias_estimate": list(est.bias_estimate),
                        "bias_warning": est.bias_warning,
                        "chain_residual": chain,
                        "lag_cells": est.lag_cells,
                        "normal_draws": est.normal_draws,
                        "truncation": [float(getattr(requested, n)) - row["analytic"]
                                       for n, row in zip(names, rows)]},
    }
    _emit(payload, args.out)
    return 0


_COMMANDS = {
    "point": _cmd_point,
    "sweep": _cmd_sweep,
    "bell": _cmd_bell,
    "validate": _cmd_validate,
}


# parsing leaves a parser unchanged, so every ``main`` call of a process
# shares one; callers of ``build_parser`` get their own
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(json.dumps({"error": f"numerical failure: {exc}"}) + "\n")
        return 3
    except MemoryError as exc:
        sys.stderr.write(json.dumps({"error": f"out of memory: {exc}"}) + "\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
