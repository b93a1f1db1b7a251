"""Answer oracles for every benchmark query.

Each check raises ``OracleError`` when an answer is wrong.  The checks never
compare float output bytes and never compare which LP vertex came back: a
verdict is compared with a closed form or with the reference table, a
"compatible" verdict on a finite theory is checked by its certificate (the
returned joint observable), and a distinguishing observable by its delta
condition.  Closed forms are evaluated here with numpy wherever they are a
line or two, so that a bug in the library cannot hide in its own oracle.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gpt_lab import uncertainty

# The seed commit's instances are accepted at these tolerances.
DISC_BOUNDARY_SKIP = 1e-6  # |S - 2| below this is left to the LP tolerance
THRESHOLD_MARGIN = 1e-3  # reference instances this close to a threshold are excluded
LAMBDA_TOL = 1e-4
MARGINAL_TOL = 1e-6
EFFECT_TOL = 1e-9
DELTA_TOL = 1e-9
SLACK_TOL = -1e-9
GAMMA_TOL = 1e-9
P5_MIXING_DIFFERENCE = 0.08149386529685662  # mpmath, 50 digits
P5_MIXING_TOL = 1e-10
T0_TOL = 2e-3


class OracleError(AssertionError):
    """A query's answer failed its oracle."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


# -- disc -----------------------------------------------------------------


def disc_s(a, b) -> float:
    """|a + b| + |a - b|; the unbiased pair is compatible iff this is <= 2."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(np.linalg.norm(a + b) + np.linalg.norm(a - b))


def check_disc_compat(a, b, answer) -> None:
    verdict, _ = answer
    want = disc_s(a, b) <= 2.0
    _require(verdict is not None, "disc verdict undecided")
    _require(bool(verdict) == want, f"disc verdict {verdict}, closed form {want}")


def check_disc_degree(a, b, answer) -> None:
    lam, _ = answer
    want = min(1.0, 2.0 / disc_s(a, b))
    _require(abs(lam - want) <= LAMBDA_TOL, f"disc degree {lam}, closed form {want}")


# -- finite theories --------------------------------------------------------


def fuzzed(effect, unit, lam: float) -> list:
    """Effects of lam * {e, u - e} + (1 - lam) * {u/2, u/2}."""
    e = np.asarray(effect, float)
    u = np.asarray(unit, float)
    return [lam * e + 0.5 * (1 - lam) * u, lam * (u - e) + 0.5 * (1 - lam) * u]


def _valid_effect(pure_states, e, tol=EFFECT_TOL) -> bool:
    vals = np.asarray(pure_states, float) @ np.asarray(e, float)
    return bool(np.all(vals >= -tol) and np.all(vals <= 1.0 + tol))


def check_joint_certificate(pure_states, f_effects, g_effects, joint) -> None:
    """The joint's marginals reproduce the pair and every cell is an effect."""
    _require(joint is not None, "compatible verdict without a joint")
    grid = [[np.asarray(c, float) for c in row] for row in joint.grid]
    _require(len(grid) == len(f_effects) and all(len(r) == len(g_effects) for r in grid),
             "joint has the wrong outcome grid")
    for a, fa in enumerate(f_effects):
        gap = np.max(np.abs(np.sum(grid[a], axis=0) - fa))
        _require(gap <= MARGINAL_TOL, f"first marginal {a} off by {gap:.3g}")
    for b, gb in enumerate(g_effects):
        gap = np.max(np.abs(np.sum([row[b] for row in grid], axis=0) - gb))
        _require(gap <= MARGINAL_TOL, f"second marginal {b} off by {gap:.3g}")
    for row in grid:
        for cell in row:
            _require(_valid_effect(pure_states, cell), "joint cell is not an effect")


def check_finite_compat(pure_states, f_effects, g_effects, want: bool, answer) -> None:
    verdict, joint = answer
    _require(verdict is not None, "finite verdict undecided")
    _require(bool(verdict) == want, f"finite verdict {verdict}, reference {want}")
    if verdict:
        check_joint_certificate(pure_states, f_effects, g_effects, joint)


def check_degree(want: float, answer) -> None:
    lam, _ = answer
    _require(abs(lam - want) <= LAMBDA_TOL, f"degree {lam}, reference {want}")


def gamma_brute(pure_states, f_effects, g_effects) -> float:
    """max over pure states of max_a f_a + max_b g_b."""
    p = np.asarray(pure_states, float)
    return float(np.max(np.max(p @ np.array(f_effects).T, axis=1)
                        + np.max(p @ np.array(g_effects).T, axis=1)))


def check_witness(gamma: float, answer) -> None:
    """Every theorem slack of every sampled joint is nonnegative."""
    _require(len(answer) > 0, "no witness reports")
    bound = -2.0 * math.log(min(gamma, 2.0) / 2.0)
    for rep in answer:
        slacks = {
            "errorbar_f": rep["errorbar_slack_f"],
            "errorbar_g": rep["errorbar_slack_g"],
            "dinf": rep["dinf_slack"],
            "entropic": rep["entropic_sum"] - bound,
        }
        for k, v in slacks.items():
            _require(v >= SLACK_TOL, f"witness slack {k} = {v:.3g}")


def check_distinguishing(pure_states, unit, states, want_hit: bool, answer) -> None:
    if answer is None:
        _require(not want_hit, "no distinguishing observable, reference has one")
        return
    _require(want_hit, "distinguishing observable where the reference has none")
    effects = [np.asarray(e, float) for e in answer.effects]
    _require(len(effects) == len(states), "certificate has the wrong outcome count")
    _require(np.max(np.abs(np.sum(effects, axis=0) - unit)) <= 1e-8,
             "certificate effects do not sum to the unit")
    for e in effects:
        _require(_valid_effect(pure_states, e, 1e-8), "certificate effect invalid")
    for i, e in enumerate(effects):
        for j, w in enumerate(states):
            gap = abs(float(e @ np.asarray(w, float)) - (1.0 if i == j else 0.0))
            _require(gap <= DELTA_TOL, f"delta condition off by {gap:.3g}")


# -- CLI outputs --------------------------------------------------------------


def _body(text: str, command: str) -> str:
    head, _, body = text.partition("\n")
    _require(head.startswith("# gpt-lab v") and head.endswith(" " + command),
             f"{command}: bad header {head!r}")
    return body


def check_gamma_table(text: str, n_min: int, n_max: int) -> None:
    lines = _body(text, "gamma-table").strip().split("\n")
    _require(lines[0] == "n,i,theta,gamma_numeric,gamma_closed_form,entropic_bound",
             "gamma-table: bad column header")
    seen = set()
    for line in lines[1:]:
        n, i, theta, num, clo, ent = line.split(",")
        n, i, theta = int(n), int(i), float(theta)
        want = uncertainty.gamma_closed_form(n, 2.0 * math.pi * i / n)
        _require(abs(theta - 2.0 * math.pi * i / n) <= 1e-9, "gamma-table: theta")
        _require(abs(float(num) - want) <= GAMMA_TOL, f"gamma-table: numeric gamma n={n} i={i}")
        _require(abs(float(clo) - want) <= GAMMA_TOL, f"gamma-table: closed gamma n={n} i={i}")
        want_ent = -2.0 * math.log(min(want, 2.0) / 2.0)
        _require(abs(float(ent) - want_ent) <= GAMMA_TOL, f"gamma-table: bound n={n} i={i}")
        seen.add((n, i))
    want_rows = {(n, i) for n in range(n_min, n_max + 1) for i in range(1, (n - 1) // 2 + 1)}
    _require(seen == want_rows, "gamma-table: rows missing or extra")


def check_mixing_sweep(text: str, n_min: int, n_max: int) -> None:
    lines = _body(text, "mixing-sweep").strip().split("\n")
    _require(lines[0] == "n,entropy_form_1,entropy_form_2,difference,verdict",
             "mixing-sweep: bad column header")
    seen = []
    for line in lines[1:]:
        n, _, _, diff, verdict = line.split(",")
        diff = float(diff)
        seen.append(n)
        if n in ("3", "inf"):
            _require(verdict == "consistent", f"mixing-sweep: n={n} not consistent")
        else:
            _require(verdict == "inconsistent" and diff > 1e-3,
                     f"mixing-sweep: n={n} not inconsistent")
        if n == "5":
            _require(abs(diff - P5_MIXING_DIFFERENCE) <= P5_MIXING_TOL,
                     f"mixing-sweep: n=5 difference {diff!r}")
    want = [str(n) for n in range(n_min, n_max + 1)] + ["inf"]
    _require(seen == want, "mixing-sweep: rows missing or extra")


def check_incompat_scan(text: str, ts, t0_ref: float) -> None:
    body = json.loads(_body(text, "incompat-scan"))
    rows = body["rows"]
    _require(len(rows) == len(ts), "incompat-scan: row count")
    for row, t in zip(rows, ts):
        _require(abs(row["t"] - t) <= 1e-12, "incompat-scan: t grid")
        _require(row["chi_comp"] == 3, f"incompat-scan: chi_comp at t={t}")
        if abs(t - t0_ref) > THRESHOLD_MARGIN:
            want = 2 if t > t0_ref else 3
            _require(row["chi_incomp"] == want, f"incompat-scan: chi_incomp at t={t}")
    t0 = body["t0"]
    _require(1.0 / math.sqrt(2.0) < t0["estimate"] < 1.0, "incompat-scan: t0 range")
    _require(abs(t0["estimate"] - t0_ref) <= T0_TOL, "incompat-scan: t0 estimate")
    _require(t0["stable_within"] < 1e-3, "incompat-scan: t0 not stable")


def check_mur_properties(text: str, theories, trials: int) -> None:
    body = json.loads(_body(text, "mur-properties"))
    got = [r["theory"] for r in body["results"]]
    _require(got == sorted(theories), "mur-properties: theories")
    for r in body["results"]:
        _require(r["trials"] == trials, "mur-properties: trial count")
        _require(r["violations"] == [], f"mur-properties: violations in {r['theory']}")
        _require(all(v >= SLACK_TOL for v in r["min_slacks"].values()),
                 f"mur-properties: negative slack in {r['theory']}")
