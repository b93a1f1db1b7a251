"""gpt-lab benchmark: run one workload as a closed loop, check every answer,
print every metric by name with its unit.

    python3 bench/run.py --workload disc-joint --seed 1 --seconds 30 --trace 0

Workloads are ``disc-joint``, ``finite-lp`` and ``cli-sweeps`` (see
workloads.py and NOTES.md).  The library is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.

A run is a fixed amount of work: ``--seconds`` divided by the workload's
nominal round time (what one round of queries took at the commit that
introduced the benchmark) gives the number of rounds.  The same seed and
``--seconds`` thus give the same queries on every commit, and a faster
library finishes sooner.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs each round twice, first plain and then with span wrappers
installed (spans.py), and reports the per-layer metrics of the traced rounds
and the tracing overhead; its counts repeat exactly for a seed.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it records the interpreter, numpy, core count, thread
settings, sample counts and, for cli-sweeps, the sha256 of every command
output.  A wrong answer makes the run incorrect and its exit code 1; a query
that raises is counted in ``failed`` but is not a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS/OpenMP thread: the library is single-threaded by design, and on a
# small box extra threads would only measure the scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """Counts that repeat exactly for a fixed seed carry an ``.exact`` unit."""
    leaf = name.rsplit(".", 1)[-1]
    return {
        "calls": "count.exact",
        "rows_mean": "rows.exact",
        "cols_mean": "cols.exact",
        "infeasible_frac": "ratio.exact",
        "vertex_accept_ratio": "ratio.exact",
        "lp_per_check": "lp/check.exact",
        "checks_per_call": "check/call.exact",
        "p50_ms": "ms",
        "self_share": "share",
        "overhead_frac": "share",
    }.get(leaf, "s")


def load_library():
    """Put the checkout's ``src`` first on sys.path; refuse any other copy."""
    if not (SRC / "gpt_lab" / "__init__.py").is_file():
        sys.exit(f"gpt_lab sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import gpt_lab

    if Path(gpt_lab.__file__).resolve().parent != (SRC / "gpt_lab").resolve():
        sys.exit(f"imported gpt_lab from {gpt_lab.__file__}, not from {SRC}")


def setup(workload: str):
    """Import the library and build the workload's theories and tables:
    everything ``setup_s`` times."""
    load_library()
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    return workloads.WORKLOADS[workload](reference)


def probe_setup(workload: str) -> list:
    """Time ``setup`` in fresh interpreters, since an import is paid once per
    process."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"setup probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Pass:
    """Outcome of running some rounds of a workload.  ``failed`` counts the
    queries that raised or were answered wrongly; ``wrong`` only the latter,
    which make the run incorrect."""

    def __init__(self):
        self.latencies = []  # seconds per passing query
        self.round_walls = []  # library time per round
        self.attempted = 0
        self.failed = 0
        self.wrong = 0


def run_round(wl, seed: int, r: int, res: Pass, tracer=None) -> None:
    """Run round ``r`` into ``res``.  Only the library call of each query is
    timed; the tracer, if any, records spans only during that call."""
    import oracles

    wall = 0.0
    for q in wl.round(seed, r):
        res.attempted += 1
        if tracer is not None:
            tracer.query, tracer.enabled = res.attempted, True
        t0 = time.perf_counter()
        try:
            ans = q.call()
        except Exception:
            res.failed += 1
            sys.stderr.write(f"round {r} {q.kind} raised:\n{traceback.format_exc()}")
            continue
        finally:
            dt = time.perf_counter() - t0
            wall += dt
            if tracer is not None:
                tracer.enabled = False
        try:
            q.check(ans)
        except Exception as e:  # an oracle's verdict, or an answer it cannot read
            res.failed += 1
            res.wrong += 1
            why = e if isinstance(e, oracles.OracleError) else traceback.format_exc()
            sys.stderr.write(f"round {r} {q.kind} wrong: {why}\n")
            continue
        res.latencies.append(dt)
    res.round_walls.append(wall)


def run_plain(wl, seed: int, rounds: int) -> Pass:
    res = Pass()
    for r in range(rounds):
        run_round(wl, seed, r, res)
    return res


def run_traced(wl, seed: int, rounds: int, tracer) -> tuple:
    """Each round first plain and then traced, so that drift and warm-up
    hit both passes alike."""
    import spans

    plain, traced = Pass(), Pass()
    for r in range(rounds):
        run_round(wl, seed, r, plain)
        restore = spans.install(tracer)
        try:
            run_round(wl, seed, r, traced, tracer)
        finally:
            restore()
    return plain, traced


def quantile(values: list, q: float) -> float:
    """Linear interpolation between the closest ranks, as numpy's default."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(p: Pass, setup_s: float) -> dict:
    lat = p.latencies or [float("nan")]
    wall = sum(p.round_walls)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "queries_per_s": len(p.latencies) / wall,
        "query_p50_ms": 1e3 * quantile(lat, 0.5),
        "query_p90_ms": 1e3 * quantile(lat, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["disc-joint", "finite-lp", "cli-sweeps"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload)
        print(time.perf_counter() - t0)
        return 0

    probes = probe_setup(args.workload)
    wl = setup(args.workload)
    import numpy as np

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "claim": None,
        "python": sys.version, "numpy": np.__version__, "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "cli_jobs": 1,
        "parallel_path": "cli._pmap with more than one job is not measured",
        "setup_probes_s": probes,
    }
    rounds = max(1, round(args.seconds / wl.nominal_round_s))
    if args.trace:
        import spans

        tracer = spans.Tracer()
        plain, traced = run_traced(wl, args.seed, rounds, tracer)
        traced_wall, plain_wall = sum(traced.round_walls), sum(plain.round_walls)
        metrics = spans.layer_metrics(tracer.spans, traced_wall)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        info.update(rounds=rounds, untraced_wall_s=plain_wall,
                    spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        wrong = plain.wrong + traced.wrong
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        p = run_plain(wl, args.seed, rounds)
        metrics = end_to_end(p, statistics.median(probes))
        info.update(rounds=rounds, samples=len(p.latencies))
        attempted, failed, wrong = p.attempted, p.failed, p.wrong
        units = END_TO_END_UNITS
    info.update(failed_frac=failed / attempted, raised=failed - wrong)
    if hasattr(wl, "hashes"):
        info["cli_sha256"] = wl.hashes
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
