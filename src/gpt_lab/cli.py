"""Deterministic experiment runner.

Every subcommand reads an optional JSON config, applies flag overrides,
computes its table with the library, and writes CSV/JSON prefixed by a
version header line.  Identical config + seed gives byte-identical output;
parallel workers never change row order because rows are reduced in sorted
grid order.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .compatibility import (
    estimate_t0,
    incompatibility_dimension_qubit,
    mutually_unbiased_pair,
    sample_feasible_joints,
)
from .gpt_core import make_disc, make_polygon, make_simplex
from .mixing_entropy import consistency_check
from .observables import Observable, ideal_observables, marginals
from .uncertainty import (
    entropic_pur_bound,
    error_bar_width,
    landau_pollak_gamma,
    max_statistics_sum,
    theorem_witness_state,
    werner_measure,
)

log = logging.getLogger("gpt_lab")

SQ2INV = 1.0 / math.sqrt(2.0)


def _setup_logging() -> None:
    level = os.environ.get("GPT_LAB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise SystemExit(f"GPT_LAB_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(message)s")


@dataclass
class RunConfig:
    """Parameters of one CLI run; JSON config merged with flag overrides."""

    command: str
    n: int | None = None
    n_min: int = 3
    n_max: int = 24
    t_min: float = 0.715
    t_max: float = 1.0
    t_steps: int = 4
    eps: list = field(default_factory=lambda: [0.1, 0.25, 0.5])
    tol: float = 1e-3
    seed: int = 0
    jobs: int = 0  # 0 -> logical core count
    trials: int = 100
    grid: int = 256
    granularity: int = 180
    out: str | None = None

    def __post_init__(self):
        if self.jobs <= 0:
            self.jobs = os.cpu_count() or 1
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not self.eps or not all(0.0 < e <= 1.0 for e in self.eps):
            raise ValueError("eps grid must be non-empty and lie in (0, 1]")
        for name in ("trials", "grid", "granularity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n is not None:
            self.n_min = self.n_max = int(self.n)
        if self.n_min > self.n_max or self.n_min < 3:
            raise ValueError("invalid n range")
        if self.t_steps < 1 or not (SQ2INV < self.t_min <= self.t_max <= 1.0):
            raise ValueError("t grid must lie in (1/sqrt 2, 1]")

    @staticmethod
    def load(command: str, args: argparse.Namespace) -> "RunConfig":
        data: dict = {}
        if args.config:
            with open(args.config) as fh:
                data = json.load(fh)
        for key in (
            "n", "t_min", "t_max", "eps", "tol", "seed", "jobs", "out",
        ):
            v = getattr(args, key, None)
            if v is not None:
                data[key] = v
        data.pop("command", None)
        unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return RunConfig(command=command, **data)


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".12g")  # +0.0 folds -0.0 into 0


def _header(command: str) -> str:
    return f"# gpt-lab v{__version__} {command}"


def _pmap(fn, items: list, jobs: int) -> list:
    """Order-preserving parallel map; falls back to serial for one job."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
        return list(ex.map(fn, items))


# -- gamma-table ---------------------------------------------------------


def _gamma_rows_for_n(n: int) -> list:
    t = make_polygon(n)
    rows = []
    for i in range(1, (n - 1) // 2 + 1):
        theta = 2.0 * math.pi * i / n
        numeric, closed = landau_pollak_gamma(t, i)
        # closed forms can exceed 2 by an ulp; the bound caps at gamma = 2
        rows.append(
            (n, i, theta, numeric, closed, entropic_pur_bound(min(closed, 2.0)))
        )
    return rows


def cmd_gamma_table(config: RunConfig) -> str:
    ns = list(range(config.n_min, config.n_max + 1))
    chunks = _pmap(_gamma_rows_for_n, ns, config.jobs)
    lines = [
        _header("gamma-table"),
        "n,i,theta,gamma_numeric,gamma_closed_form,entropic_bound",
    ]
    for chunk in chunks:
        for n, i, theta, num, clo, ent in chunk:
            lines.append(
                f"{n},{i},{_fmt(theta)},{_fmt(num)},{_fmt(clo)},{_fmt(ent)}"
            )
    return "\n".join(lines) + "\n"


# -- incompat-scan -------------------------------------------------------


def _scan_one_t(arg) -> dict:
    t, grid = arg
    return incompatibility_dimension_qubit(t, grid=grid).to_json_dict()


def cmd_incompat_scan(config: RunConfig) -> str:
    ts = np.linspace(config.t_min, config.t_max, config.t_steps)
    rows = _pmap(
        _scan_one_t, [(float(t), config.grid) for t in ts], config.jobs
    )
    t0 = estimate_t0(config.grid, config.tol)
    t0_fine = estimate_t0(config.grid * 2, config.tol)
    body = {
        "rows": rows,
        "t0": {
            "estimate": t0,
            "grid": config.grid,
            "estimate_refined": t0_fine,
            "grid_refined": config.grid * 2,
            "stable_within": abs(t0 - t0_fine),
        },
    }
    return _header("incompat-scan") + "\n" + json.dumps(body, indent=2, sort_keys=True) + "\n"


# -- mixing-sweep --------------------------------------------------------


def _mixing_row(arg) -> tuple:
    n, granularity = arg
    rep = consistency_check(make_polygon(n), granularity)
    if len(rep.entries) == 2:
        a, b = rep.entries[0][1], rep.entries[1][1]
        return (str(n), _fmt(a), _fmt(b), _fmt(rep.discrepancy), rep.verdict)
    return (str(n), "", "", _fmt(rep.discrepancy), rep.verdict)


def cmd_mixing_sweep(config: RunConfig) -> str:
    args = [(n, config.granularity) for n in range(config.n_min, config.n_max + 1)]
    rows = _pmap(_mixing_row, args, config.jobs)
    disc_rep = consistency_check(make_disc(), config.granularity)
    rows.append(
        ("inf", "", "", _fmt(disc_rep.discrepancy), disc_rep.verdict)
    )
    lines = [
        _header("mixing-sweep"),
        "n,entropy_form_1,entropy_form_2,difference,verdict",
    ]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


# -- mur-properties ------------------------------------------------------


def standard_pairs() -> dict:
    """The observable pairs exercised by the witness property sweep."""
    p5 = make_polygon(5)
    p12 = make_polygon(12, representation="rescaled")
    s3 = make_simplex(3)
    dsc = make_disc()

    def ideal_pair(t, i):
        ext = t.extreme_effects()
        u = t.unit_effect
        return (
            Observable(t, [ext[i], u - ext[i]]),
            Observable(t, [ext[0], u - ext[0]]),
        )

    binaries3 = [o for o in ideal_observables(s3) if len(o.effects) == 2]
    return {
        "Polygon(5)": ideal_pair(p5, 1),
        "Polygon(12)": ideal_pair(p12, 3),
        "Disc": mutually_unbiased_pair(dsc, 1.0),
        "Simplex(3)": (binaries3[0], binaries3[1]),
    }


def _mur_one_theory(arg) -> dict:
    name, trials, eps_list, seed = arg
    f, g = standard_pairs()[name]
    gamma = max_statistics_sum(f, g)
    big_gamma = entropic_pur_bound(gamma)
    joints = sample_feasible_joints(f, g, trials, seed=seed)
    violations = []
    mins = {"errorbar_f": math.inf, "errorbar_g": math.inf,
            "dinf": math.inf, "entropic": math.inf, "width_ratio": math.inf}
    for idx, j in enumerate(joints):
        _, rep = theorem_witness_state(j, f, g, 0.25, 0.25)
        slacks = {
            "errorbar_f": rep["errorbar_slack_f"],
            "errorbar_g": rep["errorbar_slack_g"],
            "dinf": rep["dinf_slack"],
            "entropic": rep["entropic_sum"] - big_gamma,
        }
        af, ag = marginals(j, atol=1e-6)
        for approx, ideal in ((af, f), (ag, g)):
            dw = werner_measure(approx, ideal)
            for eps in eps_list:
                w = error_bar_width(approx, ideal, eps)
                slacks["width_ratio"] = min(
                    slacks.get("width_ratio", math.inf), (2.0 / eps) * dw - w
                )
        for k, v in slacks.items():
            mins[k] = min(mins[k], v)
        if any(v < -1e-9 for v in slacks.values()):
            violations.append(
                {
                    "trial": idx,
                    "slacks": {k: float(v) for k, v in slacks.items()},
                    "joint": [[c.tolist() for c in row] for row in j.grid],
                }
            )
    return {
        "theory": name,
        "trials": trials,
        "gamma": gamma,
        "entropic_bound": big_gamma,
        "min_slacks": {k: float(v) for k, v in mins.items()},
        "violations": violations,
    }


def cmd_mur_properties(config: RunConfig) -> str:
    names = sorted(standard_pairs())
    args = [
        (name, config.trials, list(config.eps), config.seed + k)
        for k, name in enumerate(names)
    ]
    results = _pmap(_mur_one_theory, args, config.jobs)
    body = {"results": results, "seed": config.seed}
    return _header("mur-properties") + "\n" + json.dumps(body, indent=2, sort_keys=True) + "\n"


# -- entry point ---------------------------------------------------------

COMMANDS = {
    "gamma-table": cmd_gamma_table,
    "incompat-scan": cmd_incompat_scan,
    "mixing-sweep": cmd_mixing_sweep,
    "mur-properties": cmd_mur_properties,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gpt-lab",
        description="Polygon/disc GPT experiments: uncertainty bounds, "
        "incompatibility scans, mixing-entropy sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--n", type=int, help="single n (polygon sides / sweep point)")
        sp.add_argument("--t-min", dest="t_min", type=float)
        sp.add_argument("--t-max", dest="t_max", type=float)
        sp.add_argument("--eps", type=float, nargs="+")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--jobs", type=int)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.command, args)
    except ValueError as exc:
        parser.error(str(exc))
    log.info("running %s with %r", args.command, config)
    text = COMMANDS[args.command](config)
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", config.out)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
