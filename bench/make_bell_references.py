"""Regenerate bell_references.json, the stored Bell maxima the benchmark checks.

Each reference is the best b_max over several optimizer seeds at 64
restarts, four times the restarts the benchmark uses, so a run that stops in
a lower local maximum fails its check.  Run from the repository root:

    python3 bench/make_bell_references.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import filtered_tms  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(4)
RESTARTS = 64


def best(v) -> float:
    cfg = filtered_tms.BellMaxConfig
    return max(filtered_tms.bell_max(v, cfg(n_restarts=RESTARTS, seed=s)).b_max for s in SEEDS)


def main() -> None:
    pkg = filtered_tms
    tmsv = lambda r: pkg.build_covariance(pkg.tmsv.covariance(pkg.TmsvParams(r=r)))
    # the vacuum maximum is exactly the local bound 2, attained at the origin
    states = {label: 2.0 if label == "vacuum" else best(make())
              for label, make in workloads.bell_states(pkg)}
    states["tmsv r=0.8"] = best(tmsv(0.8))
    refs = {"tmsv_sweep": [best(tmsv(r)) for r in workloads.SWEEP_RS], "states": states}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
