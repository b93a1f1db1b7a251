"""Regenerate ``reference.json``, the answers that have no closed form.

    python3 bench/make_reference.py

The table was generated at the commit that introduced the benchmark and is
meant to stay fixed: later commits are checked against it, not re-baselined.
It holds, for the finite-lp workload, the degree of incompatibility lambda*
of every ideal Polygon(n) pair (e_0, e_k) (rotations give the same value),
and which subsets of the distinguishing points have a distinguishing
observable; and, for cli-sweeps, the threshold t0 of the incompatibility
dimension from a finer scan than the CLI config uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import gpt_lab  # noqa: E402
from gpt_lab import compatibility, gpt_core, mixing_entropy  # noqa: E402

import workloads  # noqa: E402


def degree_table(theories: dict) -> dict:
    out = {}
    for n in workloads.FINITE_NS:
        t = theories[f"P{n}"]
        e = t.extreme_effects()
        f = workloads.binary_observable(t, e[0])
        out[f"P{n}"] = [None] + [
            compatibility.degree_of_incompatibility(
                f, workloads.binary_observable(t, e[k]), tol=1e-6)[0]
            for k in range(1, n)
        ]
    return out


def distinguishable(theories: dict) -> dict:
    out = {}
    for key in workloads.DIST_KEYS:
        t = theories[key]
        pts = workloads.distinguishing_points(t)
        out[key] = [
            workloads.subset_key(s)
            for s in workloads.distinguishing_subsets(t)
            if mixing_entropy.find_distinguishing_observable(
                [gpt_core.StateVec(t, pts[i]) for i in s]) is not None
        ]
    return out


def main() -> None:
    theories = workloads.finite_theories()
    table = {
        "generated_with": {
            "gpt_lab": gpt_lab.__version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "degree": degree_table(theories),
        "distinguishable": distinguishable(theories),
        "t0": compatibility.estimate_t0(grid=768, tol=1e-5),
    }
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
