"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next query is sent only
after the previous one has returned and been checked.  Queries come in
rounds; round ``r`` of seed ``s`` is generated from ``(s, r)`` alone, so the
same seed always gives the same inputs whatever the speed of the library.
``nominal_round_s`` is what one round took at the commit that introduced the
benchmark (2-core x86 box, Python 3.11, numpy 2.4); run.py divides the run
length by it to fix the number of rounds, and it must not change after.
Inputs are plain numbers; every call into ``gpt_lab`` happens inside the
timed ``call`` of a query and goes through the module attribute, so that
the traced run can rebind it.

Why these workloads (the per-layer split of the seed commit is in NOTES.md):

- ``disc-joint``: almost all time is large disc tableaux in ``numerics`` and
  the disc cut-generation loop in ``compatibility``.
- ``finite-lp``: thousands of LPs of a few dozen rows, no cut loop; per-call
  overhead dominates, so a fixed cost added per solve shows here.
- ``cli-sweeps``: the four CLI commands at fixed configs; the closed-form
  segment scan does about half of the work and ``numerics`` a minority.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from gpt_lab import (
    cli,
    compatibility,
    gpt_core,
    mixing_entropy,
    observables,
    uncertainty,
)

import oracles

HERE = Path(__file__).resolve().parent


class Query(NamedTuple):
    kind: str
    call: Callable[[], Any]  # the timed library call
    check: Callable[[Any], None]  # raises oracles.OracleError on a wrong answer


def binary_observable(theory, effect):
    return observables.Observable(theory, [effect, theory.unit_effect - effect])


# -- disc-joint ---------------------------------------------------------------


class DiscJoint:
    """Unbiased binary disc pairs A^a, A^b: 24 ``are_compatible`` queries per
    round, alternating the closed-form verdict, and on even rounds one
    ``degree_of_incompatibility`` query on an incompatible pair."""

    name = "disc-joint"
    nominal_round_s = 2.2

    def __init__(self, reference: dict):
        self.theory = gpt_core.make_disc()

    @staticmethod
    def draw_pair(rng, compatible: bool):
        """(t_a, angle_a, t_b, angle_b) whose verdict is ``compatible``,
        skipping knife-edge instances as the library's own tests do."""
        while True:
            ta, tb = rng.uniform(0.3, 1.0, size=2)
            pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
            s = oracles.disc_s(*_bloch(ta, pa, tb, pb))
            if abs(s - 2.0) < oracles.DISC_BOUNDARY_SKIP:
                continue
            if (s <= 2.0) == compatible:
                return float(ta), float(pa), float(tb), float(pb)

    def round(self, seed: int, r: int) -> list:
        rng = np.random.default_rng([seed, r])
        out = [self._compat(*self.draw_pair(rng, k % 2 == 0)) for k in range(24)]
        if r % 2 == 0:
            out.append(self._degree(*self.draw_pair(rng, False)))
        return out

    def _pair(self, ta, pa, tb, pb):
        return (compatibility.disc_axis_observable(self.theory, ta, pa),
                compatibility.disc_axis_observable(self.theory, tb, pb))

    def _compat(self, ta, pa, tb, pb) -> Query:
        a, b = _bloch(ta, pa, tb, pb)
        return Query(
            "disc.are_compatible",
            lambda: compatibility.are_compatible(*self._pair(ta, pa, tb, pb)),
            lambda ans: oracles.check_disc_compat(a, b, ans),
        )

    def _degree(self, ta, pa, tb, pb) -> Query:
        a, b = _bloch(ta, pa, tb, pb)
        return Query(
            "disc.degree_of_incompatibility",
            lambda: compatibility.degree_of_incompatibility(*self._pair(ta, pa, tb, pb)),
            lambda ans: oracles.check_disc_degree(a, b, ans),
        )


def _bloch(ta, pa, tb, pb):
    return (np.array([ta * math.cos(pa), ta * math.sin(pa), 0.0]),
            np.array([tb * math.cos(pb), tb * math.sin(pb), 0.0]))


# -- finite-lp ----------------------------------------------------------------

FINITE_NS = range(4, 13)


def finite_theories() -> dict:
    """P<n>: standard polygons, R<n>: rescaled even polygons, S3: Simplex(3)."""
    out = {f"P{n}": gpt_core.make_polygon(n) for n in FINITE_NS}
    out.update({f"R{n}": gpt_core.make_polygon(n, "rescaled") for n in FINITE_NS if n % 2 == 0})
    out["S3"] = gpt_core.make_simplex(3)
    return out


def distinguishing_points(theory) -> np.ndarray:
    """Pure states, then the midpoint of each edge (v_i + v_{i+1}) / 2."""
    v = theory.pure_states
    return np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0))])


def distinguishing_subsets(theory) -> list:
    """Every pair of distinguishing points and every triple of pure states."""
    n = len(theory.pure_states)
    return (list(itertools.combinations(range(2 * n), 2))
            + list(itertools.combinations(range(n), 3)))


def subset_key(subset) -> str:
    return "-".join(str(i) for i in subset)


COMPAT_KEYS = [f"P{n}" for n in FINITE_NS] + ["S3"]
WITNESS_KEYS = ([f"P{n}" for n in FINITE_NS if n % 2]
                + [f"R{n}" for n in FINITE_NS if n % 2 == 0] + ["S3"])
DIST_KEYS = [f"P{n}" for n in FINITE_NS] + ["S3"]
EPS_PAIRS = [(0.1, 0.1), (0.1, 0.25), (0.25, 0.25), (0.25, 0.5), (0.5, 0.5)]


class FiniteLP:
    """Polygon(n), n = 4..12, and Simplex(3).  Per round: 8 ``are_compatible``
    queries on fuzzed ideal pairs (alternating the reference verdict), 3
    ``degree_of_incompatibility``, 2 ``sample_feasible_joints`` +
    ``theorem_witness_state`` on self-dual representations, and 3
    ``find_distinguishing_observable``.  The degree queries are about a sixth
    of the queries, so that p90 falls inside their cluster rather than on
    the edge between it and the witness queries."""

    name = "finite-lp"
    nominal_round_s = 0.16

    def __init__(self, reference: dict):
        self.degree_table = reference["degree"]
        self.hits = {k: set(v) for k, v in reference["distinguishable"].items()}
        self.theories = finite_theories()
        # e_i of the ideal binary observables {e_i, u - e_i}
        self.effects = {k: t.extreme_effects() for k, t in self.theories.items()}
        self.points = {k: distinguishing_points(self.theories[k]) for k in DIST_KEYS}
        self.subsets = {k: distinguishing_subsets(self.theories[k]) for k in DIST_KEYS}

    def degree_ref(self, key: str, k: int) -> float:
        """lambda* of the ideal pair (e_i, e_{i+k}): closed form where one is
        known, otherwise the reference table of the seed commit."""
        if key == "S3" or 2 * k == len(self.effects[key]):
            return 1.0  # classical theory, or the same observable relabelled
        if key == "P4":
            return 0.5
        return self.degree_table[key][k]

    def round(self, seed: int, r: int) -> list:
        rng = np.random.default_rng([seed, r])
        out = [self._compat(rng, k % 2 == 0) for k in range(8)]
        out += [self._degree(rng) for _ in range(3)]
        out += [self._witness(rng) for _ in range(2)]
        out += [self._distinguishing(rng) for _ in range(3)]
        return out

    def _draw_pair(self, rng, keys):
        key = keys[rng.integers(len(keys))]
        n = len(self.effects[key])
        i, k = int(rng.integers(n)), int(rng.integers(1, n))
        return key, i, (i + k) % n, k

    def _fuzzed_pair(self, key, i, j, lam):
        t, e = self.theories[key], self.effects[key]
        return (observables.fuzz(binary_observable(t, e[i]), lam),
                observables.fuzz(binary_observable(t, e[j]), lam))

    def _compat(self, rng, want: bool) -> Query:
        margin = oracles.THRESHOLD_MARGIN
        while True:
            key, i, j, k = self._draw_pair(rng, COMPAT_KEYS)
            star = self.degree_ref(key, k)
            if want:
                lo, hi = max(0.0, star - 0.3), (1.0 if star >= 1.0 else star - margin)
                break
            if star < 1.0 - 2 * margin:
                lo, hi = star + margin, min(1.0, star + 0.3)
                break
        lam = float(rng.uniform(lo, hi))
        t, e = self.theories[key], self.effects[key]
        fe = oracles.fuzzed(e[i], t.unit_effect, lam)
        ge = oracles.fuzzed(e[j], t.unit_effect, lam)
        return Query(
            "finite.are_compatible",
            lambda: compatibility.are_compatible(*self._fuzzed_pair(key, i, j, lam)),
            lambda ans: oracles.check_finite_compat(t.pure_states, fe, ge, want, ans),
        )

    def _degree(self, rng) -> Query:
        key, i, j, k = self._draw_pair(rng, COMPAT_KEYS)
        t, e = self.theories[key], self.effects[key]
        want = self.degree_ref(key, k)
        return Query(
            "finite.degree_of_incompatibility",
            lambda: compatibility.degree_of_incompatibility(
                binary_observable(t, e[i]), binary_observable(t, e[j])),
            lambda ans: oracles.check_degree(want, ans),
        )

    def _witness(self, rng) -> Query:
        while True:
            key, i, j, k = self._draw_pair(rng, WITNESS_KEYS)
            if 2 * k != len(self.effects[key]):
                break
        eps1, eps2 = EPS_PAIRS[rng.integers(len(EPS_PAIRS))]
        joint_seed = int(rng.integers(2**31 - 1))
        t, e = self.theories[key], self.effects[key]
        fe = [e[i], t.unit_effect - e[i]]
        ge = [e[j], t.unit_effect - e[j]]
        gamma = oracles.gamma_brute(t.pure_states, fe, ge)

        def call():
            f, g = binary_observable(t, e[i]), binary_observable(t, e[j])
            joints = compatibility.sample_feasible_joints(f, g, 2, seed=joint_seed)
            return [uncertainty.theorem_witness_state(jo, f, g, eps1, eps2)[1] for jo in joints]

        return Query("finite.witness", call, lambda ans: oracles.check_witness(gamma, ans))

    def _distinguishing(self, rng) -> Query:
        key = DIST_KEYS[rng.integers(len(DIST_KEYS))]
        subset = self.subsets[key][rng.integers(len(self.subsets[key]))]
        t = self.theories[key]
        pts = [self.points[key][i] for i in subset]
        want = subset_key(subset) in self.hits[key]
        return Query(
            "finite.find_distinguishing_observable",
            lambda: mixing_entropy.find_distinguishing_observable(
                [gpt_core.StateVec(t, p) for p in pts]),
            lambda ans: oracles.check_distinguishing(t.pure_states, t.unit_effect, pts, want, ans),
        )


# -- cli-sweeps ---------------------------------------------------------------

CLI_CONFIG = HERE / "cli_config.json"
CLI_N_RANGE = (3, 24)  # the CLI's default n range
MUR_THEORIES = ("Disc", "Polygon(12)", "Polygon(5)", "Simplex(3)")
EPS_GRID = [round(0.05 * k, 2) for k in range(1, 11)]


def run_cli(argv: list) -> tuple:
    """``gpt_lab.cli.main`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class CliSweeps:
    """One round is one query: a sweep of the four CLI commands, each once,
    with ``--jobs 1``, at the fixed config in ``cli_config.json``.  The
    round's seed picks the ``mur-properties`` ``--seed`` and ``--eps`` grid.

    A query is the whole sweep, not one command: latency percentiles over
    four unlike commands would reduce to one sample of one command (the
    median was the slower of two ``mixing-sweep`` calls, whose spread over
    ten seeds exceeded 0.25).  The ``incompat-scan`` t-range stays fixed at
    t = 1: the cost of its 33 S0-restricted LP checks swung from 2.9 s to
    6.0 s across t in [0.90, 1.00] when the benchmark was introduced, which
    would make a run of a few rounds unsteady.  The parallel ``cli._pmap``
    path is outside this benchmark on purpose: with two cores a process pool
    would measure the scheduler."""

    name = "cli-sweeps"
    nominal_round_s = 12.0

    def __init__(self, reference: dict):
        self.t0_ref = reference["t0"]
        self.config = json.loads(CLI_CONFIG.read_text())
        self.hashes = []  # (round, command, sha256 of the output)

    def round(self, seed: int, r: int) -> list:
        rng = np.random.default_rng([seed, r])
        mur_seed = int(rng.integers(2**31 - 1))
        eps = sorted(rng.choice(EPS_GRID, size=3, replace=False).tolist())
        base = ["--config", str(CLI_CONFIG), "--jobs", "1"]
        n_min, n_max = CLI_N_RANGE
        trials = self.config["trials"]
        ts = [self.config["t_min"]]
        commands = [
            (["gamma-table", *base],
             lambda s: oracles.check_gamma_table(s, n_min, n_max)),
            (["mixing-sweep", *base],
             lambda s: oracles.check_mixing_sweep(s, n_min, n_max)),
            (["mur-properties", *base, "--seed", str(mur_seed), "--eps", *map(str, eps)],
             lambda s: oracles.check_mur_properties(s, MUR_THEORIES, trials)),
            (["incompat-scan", *base],
             lambda s: oracles.check_incompat_scan(s, ts, self.t0_ref)),
        ]

        def check(outputs):
            for (argv, check_text), (rc, text) in zip(commands, outputs):
                if rc != 0:
                    raise oracles.OracleError(f"{argv[0]} exited with {rc}")
                self.hashes.append((r, argv[0], hashlib.sha256(text.encode()).hexdigest()))
                check_text(text)

        return [Query("cli.sweep", lambda: [run_cli(argv) for argv, _ in commands], check)]


WORKLOADS = {w.name: w for w in (DiscJoint, FiniteLP, CliSweeps)}
