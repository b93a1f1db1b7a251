"""Spans around gpt_lab's public functions, installed from outside the library.

The library modules import functions from each other by name, so a span
wrapper must replace every module-level name that refers to the function,
for example ``gpt_lab.compatibility.solve_lp`` as well as
``gpt_lab.numerics.solve_lp``.  ``install`` does that and returns the undo.
Spans stay in memory; ``Tracer.dump`` writes them out when the run ends.

A span is ``[name, start, end, parent, query, child_s, info]``.  Self time is
the span's duration minus ``child_s``, the time its direct child spans cover
(one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

from gpt_lab import cli

TRACED = {
    "numerics": ["solve_lp"],
    "gpt_core": ["is_state"],
    "observables": ["fuzz", "marginals"],
    "compatibility": [
        "are_compatible", "s0_compatible", "degree_of_incompatibility",
        "estimate_t0", "incompatibility_dimension_qubit", "sample_feasible_joints",
    ],
    "uncertainty": [
        "theorem_witness_state", "werner_measure", "error_bar_width", "max_statistics_sum",
    ],
    "mixing_entropy": ["consistency_check", "find_distinguishing_observable"],
    "cli": ["main"],
}
CHECKS = ("compatibility.are_compatible", "compatibility.s0_compatible")
SAMPLER = "compatibility.sample_feasible_joints"
VERTEX_RESIDUAL = 1e-8  # the residual filter sample_feasible_joints applies

NAME, START, END, PARENT, QUERY, CHILD, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.query = -1
        self.enabled = False

    def wrap(self, name: str, fn):
        is_lp = name == "numerics.solve_lp"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            rec = [name, 0.0, 0.0, parent, self.query, 0.0, None]
            idx = len(self.spans)
            self.spans.append(rec)
            self.stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][CHILD] += rec[END] - rec[START]
            if is_lp:
                rec[INFO] = self._lp_info(args[0] if args else kwargs["p"], out)
            return out

        return span

    def _lp_info(self, p, result) -> tuple:
        """(rows, cols, infeasible, vertex kept) of one solve."""
        rows = sum(0 if a is None else len(a) for a in (p.a_eq, p.a_ub))
        kept = None
        if result.x is not None and any(self.spans[i][NAME] == SAMPLER for i in self.stack):
            eq = 0.0 if p.a_eq is None else float(abs(p.a_eq @ result.x - p.b_eq).max())
            ub = 0.0 if p.a_ub is None else float((p.a_ub @ result.x - p.b_ub).max())
            kept = max(eq, ub) <= VERTEX_RESIDUAL
        return rows, p.n_vars, result.status == "infeasible", kept

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer: Tracer):
    """Rebind every traced function in every loaded gpt_lab module; returns
    a function that restores the originals."""
    mods = [m for k, m in list(sys.modules.items()) if k == "gpt_lab" or k.startswith("gpt_lab.")]
    undo = []
    for mod_name, names in TRACED.items():
        home = sys.modules[f"gpt_lab.{mod_name}"]
        for fn_name in names:
            orig = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for m in mods:
                if m.__dict__.get(fn_name) is orig:
                    setattr(m, fn_name, wrapper)
                    undo.append((m.__dict__, fn_name, orig))
    for command, orig in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = tracer.wrap(f"cli.{command}", orig)
        undo.append((cli.COMMANDS, command, orig))

    def restore():
        for d, key, orig in reversed(undo):
            d[key] = orig

    return restore


def _ancestor(spans, i, names) -> int:
    """Index of the nearest ancestor of span ``i`` named in ``names``, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of a traced pass whose queries took ``wall_s``
    seconds in all."""
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, [])]

    def self_s(name):
        return sum(spans[i][END] - spans[i][START] - spans[i][CHILD] for i in by_name.get(name, []))

    def p50_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    out = {}
    lps = by_name.get("numerics.solve_lp", [])
    infos = [spans[i][INFO] for i in lps]
    out["numerics.solve_lp.calls"] = len(lps)
    out["numerics.solve_lp.self_s"] = self_s("numerics.solve_lp")
    out["numerics.solve_lp.p50_ms"] = p50_ms("numerics.solve_lp")
    out["numerics.solve_lp.rows_mean"] = _ratio(sum(x[0] for x in infos), len(lps))
    out["numerics.solve_lp.cols_mean"] = _ratio(sum(x[1] for x in infos), len(lps))
    out["numerics.solve_lp.infeasible_frac"] = _ratio(sum(x[2] for x in infos), len(lps))

    checks = sum(len(by_name.get(c, [])) for c in CHECKS)
    out["compatibility.are_compatible.calls"] = len(by_name.get(CHECKS[0], []))
    out["compatibility.are_compatible.self_s"] = self_s(CHECKS[0])
    out["compatibility.are_compatible.p50_ms"] = p50_ms(CHECKS[0])
    out["compatibility.lp_per_check"] = _ratio(
        sum(_ancestor(spans, i, CHECKS) >= 0 for i in lps), checks)
    deg = "compatibility.degree_of_incompatibility"
    out[f"{deg}.self_s"] = self_s(deg)
    out[f"{deg}.checks_per_call"] = _ratio(
        sum(_ancestor(spans, i, (deg,)) >= 0 for i in by_name.get(CHECKS[0], [])),
        len(by_name.get(deg, [])))
    out["compatibility.s0_compatible.calls"] = len(by_name.get(CHECKS[1], []))
    out["compatibility.s0_compatible.self_s"] = self_s(CHECKS[1])
    out["compatibility.estimate_t0.self_s"] = self_s("compatibility.estimate_t0")
    out["compatibility.incompatibility_dimension_qubit.self_s"] = self_s(
        "compatibility.incompatibility_dimension_qubit")
    out[f"{SAMPLER}.self_s"] = self_s(SAMPLER)
    sampled = [x[3] for x in infos if x[3] is not None]
    out[f"{SAMPLER}.vertex_accept_ratio"] = _ratio(sum(sampled), len(sampled))

    for name in ("uncertainty.theorem_witness_state", "uncertainty.werner_measure",
                 "uncertainty.error_bar_width", "uncertainty.max_statistics_sum",
                 "mixing_entropy.consistency_check",
                 "mixing_entropy.find_distinguishing_observable",
                 "observables.fuzz", "observables.marginals", "gpt_core.is_state",
                 "cli.main"):
        out[f"{name}.self_s"] = self_s(name)
    for command in cli.COMMANDS:
        out[f"cli.{command}.wall_s"] = sum(durations(f"cli.{command}"))

    # share of the traced query time spent in each module's own code; the
    # rest is library code outside every traced function
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    for mod in TRACED:
        own = sum(s[END] - s[START] - s[CHILD] for s in spans if s[NAME].startswith(mod + "."))
        out[f"layer.{mod}.self_share"] = _ratio(own, wall_s)
    out["layer.untraced.self_share"] = _ratio(wall_s - covered, wall_s)
    return out
