"""Self-tests of the benchmark: every workload passes its oracles on two
seeds, and each oracle rejects a corrupted answer.

    python3 -m pytest -q bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

_WORKLOADS = {}


def workload(name):
    if name not in _WORKLOADS:
        _WORKLOADS[name] = run.setup(name)
    return _WORKLOADS[name]


def queries(name, kind, seed=7, rounds=3):
    wl = workload(name)
    return [q for r in range(rounds) for q in wl.round(seed, r) if q.kind == kind]


def rejects(query, answer):
    import oracles

    with pytest.raises(oracles.OracleError):
        query.check(answer)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["disc-joint", "finite-lp", "cli-sweeps"])
def test_short_pass_is_correct(name, seed):
    res = run.Pass()
    run.run_round(workload(name), seed, 0, res)
    assert res.attempted > 0 and res.failed == 0


def test_flipped_verdicts_are_rejected():
    for name, kind in (("disc-joint", "disc.are_compatible"),
                       ("finite-lp", "finite.are_compatible")):
        for q in queries(name, kind)[:4]:
            verdict, joint = q.call()
            q.check((verdict, joint))
            rejects(q, (not verdict, joint))


def test_flipped_distinguishing_is_rejected():
    seen = set()
    for q in queries("finite-lp", "finite.find_distinguishing_observable", rounds=20):
        ans = q.call()
        q.check(ans)
        if ans is None:
            continue
        rejects(q, None)
        seen.add(True)
    assert seen


def test_lambda_off_by_1e3_is_rejected():
    for name, kind in (("disc-joint", "disc.degree_of_incompatibility"),
                       ("finite-lp", "finite.degree_of_incompatibility")):
        q = queries(name, kind, rounds=1)[0]
        lam, bound = q.call()
        q.check((lam, bound))
        rejects(q, (lam + 1e-3, bound))
        rejects(q, (lam - 1e-3, bound))


def test_perturbed_marginal_is_rejected():
    import numpy as np

    hits = 0
    for q in queries("finite-lp", "finite.are_compatible"):
        verdict, joint = q.call()
        if not verdict:
            continue
        q.check((verdict, joint))
        joint.grid[0][0] = joint.grid[0][0] + np.array([0.0, 1e-5, 0.0])
        rejects(q, (verdict, joint))
        hits += 1
    assert hits


def test_negative_witness_slack_is_rejected():
    q = queries("finite-lp", "finite.witness", rounds=1)[0]
    reps = q.call()
    q.check(reps)
    reps[0] = dict(reps[0], dinf_slack=-1e-6)
    rejects(q, reps)


def test_corrupted_cli_output_is_rejected():
    import oracles
    import workloads

    base = ["--config", str(workloads.CLI_CONFIG), "--jobs", "1"]
    rc, text = workloads.run_cli(["mixing-sweep", *base])
    assert rc == 0
    oracles.check_mixing_sweep(text, *workloads.CLI_N_RANGE)
    bad = text.replace(",inconsistent\n", ",consistent\n", 1)
    with pytest.raises(oracles.OracleError):
        oracles.check_mixing_sweep(bad, *workloads.CLI_N_RANGE)
    rc, text = workloads.run_cli(["gamma-table", *base])
    oracles.check_gamma_table(text, *workloads.CLI_N_RANGE)
    lines = text.split("\n")
    cols = lines[3].split(",")
    cols[3] = repr(float(cols[3]) + 1e-6)
    lines[3] = ",".join(cols)
    with pytest.raises(oracles.OracleError):
        oracles.check_gamma_table("\n".join(lines), *workloads.CLI_N_RANGE)


def test_wrong_answer_fails_the_run_and_raise_only_counts():
    wl = workload("disc-joint")

    def boom():
        raise ValueError("library refused")

    class Broken:
        def round(self, seed, r):
            qs = wl.round(seed, r)[:4]
            flipped = [q._replace(call=lambda q=q: (not q.call()[0], None)) for q in qs[:2]]
            return flipped + [q._replace(call=boom) for q in qs[2:]]

    res = run.Pass()
    run.run_round(Broken(), 1, 0, res)
    assert (res.attempted, res.failed, res.wrong) == (4, 4, 2)
    assert not res.latencies


def test_traced_round_and_restore():
    import spans
    from gpt_lab import compatibility, numerics

    before = (compatibility.solve_lp, numerics.solve_lp, compatibility.are_compatible)
    wl = workload("finite-lp")
    tracer = spans.Tracer()
    res = run.Pass()
    restore = spans.install(tracer)
    try:
        run.run_round(wl, 1, 0, res, tracer)
    finally:
        restore()
    assert (compatibility.solve_lp, numerics.solve_lp, compatibility.are_compatible) == before
    m = spans.layer_metrics(tracer.spans, sum(res.round_walls))
    assert res.failed == 0
    assert m["compatibility.lp_per_check"] == 1.0
    assert m["numerics.solve_lp.calls"] > 0


def test_fails_without_library(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "finite-lp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    import json

    import spans

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    layer = spans.layer_metrics([], 1.0)
    layer.update({"trace.wall_s": 0.0, "trace.overhead_frac": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.per_layer_unit(k) for k in layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


# Library defects the oracles surfaced (see NOTES.md).  The pivots behind them
# can differ with the BLAS build, so the xfails are not strict; once the
# library is fixed they report XPASS, and the markers should go.
DRIFTED_PAIR = (0.34298021425036895, 5.888572368903818, 0.6687160966610425, 2.708176626603192)
# the first came up while the benchmark was built, the others are the
# compatible queries that made disc-joint seeds 44 and 36 at --seconds 30
# report a wrong answer
FALSE_INFEASIBLE_PAIRS = [
    (0.3090585008333745, 1.2397312711058395, 0.6308252870668838, 1.7772698645076188),
    (0.8405124136665267, 1.808800876832255, 0.6175335669216903, 1.3296653935803973),
    (0.31289146162366976, 0.3744259843227811, 0.45984729843324074, 2.5258788896614184),
]


@pytest.mark.xfail(raises=ValueError,
                   reason="solve_lp returns a point 1.5e-5 off its equalities")
def test_known_defect_drifted_lp_point():
    q = workload("disc-joint")._compat(*DRIFTED_PAIR)
    q.check(q.call())


@pytest.mark.xfail(raises=AssertionError,
                   reason="phase 1 declares a feasible disc cut LP infeasible")
@pytest.mark.parametrize("pair", FALSE_INFEASIBLE_PAIRS)
def test_known_defect_false_incompatible_verdict(pair):
    q = workload("disc-joint")._compat(*pair)
    q.check(q.call())
