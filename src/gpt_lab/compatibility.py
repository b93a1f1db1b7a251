"""Joint measurability, restricted (state-subset) compatibility, degrees of
incompatibility, and the incompatibility dimension of the mutually unbiased
qubit pair restricted to the equatorial disc.

One loop, ``_joint_lp``, builds and solves every joint LP for its four
callers: ``are_compatible``, ``s0_compatible``, ``degree_of_incompatibility``
(with a noise-weight column to maximize) and ``sample_feasible_joints``
(random objectives).  It is Kelley's supporting-cut loop over the theory's
``cone_states`` rows: a cell m violates the effect cone by ``support(-m)``,
and the state attaining it gives the next cut.  Every cut is valid for the
true cone, so an infeasible LP certifies incompatibility, and a solution
whose cells violate the cone by at most 1e-7 is accepted as a joint.  A
finite theory's rows are its exact cone, so its loop ends at the first
solve; the disc's second-order cone needs cuts.

A feasibility run whose first point leaves the disc cone solves once over
``cone_states(inner=True)``; a feasible point there is an exact joint, and
only an infeasible one sends the loop on to cuts.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .gpt_core import Theory, make_disc
from .numerics import LinearProgram, LpNumericalError, solve_lp, bisect
from .observables import JointObservable, Observable, fuzz, marginals
from .uncertainty import max_statistics_sum

log = logging.getLogger("gpt_lab")

SQ2INV = 1.0 / math.sqrt(2.0)


# -- domain types -------------------------------------------------------


@dataclass
class StateSubset:
    generators: list

    def __post_init__(self):
        self.generators = [np.asarray(g, float) for g in self.generators]
        if not self.generators:
            raise ValueError("empty state subset")


@dataclass
class DimensionReport:
    t: float
    chi_incomp: int | str
    chi_comp: int
    witness: StateSubset | None = None
    t0_estimate: float | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "chi_incomp": self.chi_incomp,
            "chi_comp": self.chi_comp,
            "witness": None
            if self.witness is None
            else [g.tolist() for g in self.witness.generators],
            "t0_estimate": self.t0_estimate,
            "details": self.details,
        }


# -- LP assembly helpers ------------------------------------------------


def _cone_rows(theory: Theory, ncells: int, inner: bool = False) -> np.ndarray:
    """Rows of -m_c(omega) <= 0, right-hand side zero, for every cell c
    and every omega in ``theory.cone_states(inner)``: a superset of the
    true cone, so infeasibility is a certificate, or with ``inner`` a
    subset, so feasible points are exactly valid."""
    return np.kron(np.eye(ncells), -theory.cone_states(inner))


def _joint_equalities(theory, f: Observable, g: Observable, states=None):
    """Marginal equality rows over cell coordinate variables.

    With states=None the equalities are exact (coordinatewise); otherwise
    they are imposed only as statistics on the given states, and an empty
    ``states`` leaves only the unit-sum rows.
    """
    na, nb = len(f.effects), len(g.effects)
    dim = theory.dim
    # row a of sum_f adds up the cells (a, .), row b of sum_g the cells (., b)
    sum_f = np.kron(np.eye(na), np.ones((1, nb)))
    sum_g = np.kron(np.ones((1, na)), np.eye(nb))
    if states is None:
        rows = np.vstack([np.kron(sum_f, np.eye(dim)), np.kron(sum_g, np.eye(dim))])
        return rows, np.concatenate([np.ravel(f.effects), np.ravel(g.effects)])
    # total must still be the unit effect, exactly
    rows = [np.kron(np.ones((1, na * nb)), np.eye(dim))]
    rhs = [np.asarray(theory.unit_effect, float)]
    for w in states:
        wv = np.asarray(w, float)[None, :]
        rows += [np.kron(sum_f, wv), np.kron(sum_g, wv)]
        rhs.append([theory.pair(e, w) for e in f.effects])
        rhs.append([theory.pair(e, w) for e in g.effects])
    return np.vstack(rows), np.concatenate(rhs)


def _grid_from_solution(theory, x, na, nb) -> JointObservable:
    dim = theory.dim
    grid = []
    for a in range(na):
        row = []
        for b in range(nb):
            c = a * nb + b
            m = np.array(x[c * dim : (c + 1) * dim])
            if theory.kind == "Disc":
                # project residual cone violations (~1e-8 from the cut
                # generation) radially onto the boundary
                nv = math.hypot(m[0], m[1])
                if nv > m[2]:
                    s = m[2] / nv if m[2] > 0 else 0.0
                    m[0] *= s
                    m[1] *= s
                    m[2] = max(m[2], 0.0)
            row.append(m)
        grid.append(row)
    return JointObservable(theory, grid, atol=1e-5)


def _joint_lp(theory, ncells, a_eq, b_eq, objective=None, inner=False):
    """Kelley's loop (see the module docstring) for min objective.x over
    the equality rows, with ``_cone_rows(theory, ncells, inner)`` and the
    cuts acting on the cell coordinates, which come before any other
    variable; a feasibility run whose first point leaves the cone solves
    once more over the inner rows.  Returns (True, x) for a joint, (True,
    None) for an unbounded objective, (False, None) for a certified
    infeasibility and (None, None) when a solve fails its check or the
    cuts stall above 1e-6.
    """
    n, k = a_eq.shape[1], ncells * theory.dim
    lps, viol, step = 0, math.nan, "undecided"

    def solve(rows):  # rows r.x_cells <= 0, zero on the other variables
        nonlocal lps
        lps += 1
        padded = np.hstack([rows, np.zeros((len(rows), n - k))])
        r = solve_lp(LinearProgram(n, objective, a_eq, b_eq, padded, np.zeros(len(rows))))
        return r.status, r.x

    a_ub, best_x, best_viol = _cone_rows(theory, ncells, inner), None, math.inf
    try:
        for rnd in range(25):
            status, x = solve(a_ub)
            if x is None:
                ok, step = status == "unbounded", "cuts" if rnd else f"outer {status}"
                break
            sup = [theory.support(-x[i : i + theory.dim]) for i in range(0, k, theory.dim)]
            viol = max(v for v, _ in sup)
            if viol < best_viol:
                best_x, best_viol = x, viol
            if viol <= 1e-7:
                ok, step = True, "cuts" if rnd else "outer exact"
                break
            if rnd == 0 and objective is None and not inner:
                status, xi = solve(_cone_rows(theory, ncells, True))
                if xi is not None:
                    ok, x, step = True, xi, "inner feasible"
                    break
            a_ub = np.vstack([a_ub] + [np.kron(np.eye(ncells)[i], -w)
                                       for i, (v, w) in enumerate(sup) if v > 1e-7])
        else:
            ok, x = (True, best_x) if best_viol <= 1e-6 else (None, None)
            step = "stalled cuts" if ok else step
    except LpNumericalError as exc:
        log.info("joint LP undecided: %s", exc)
        ok, x = None, None
    log.debug("joint LP: %d LPs, decided by %s, violation %.2e", lps, step, viol)
    return ok, x


def _undecided_compatible(f: Observable, g: Observable) -> bool:
    """Verdict for a pair the joint LP left undecided: for two binary disc
    observables the exact biased-pair criterion in the embedding plane;
    anything else raises."""
    if f.theory.kind != "Disc" or len(f) != 2 or len(g) != 2:
        raise RuntimeError("joint feasibility undecided for this instance")
    e1, e2 = f.effects[0], g.effects[0]
    w1, m1 = 2 * e1[2] - 1.0, np.array([2 * e1[0], 2 * e1[1], 0.0])
    w2, m2 = 2 * e2[2] - 1.0, np.array([2 * e2[0], 2 * e2[1], 0.0])
    return busch_unbiased_compatible(w1, m1, w2, m2)


# -- public operations --------------------------------------------------


def are_compatible(f: Observable, g: Observable):
    """LP test for the existence of a joint observable.

    Returns (bool, JointObservable or None).  Instances the cut loop
    leaves undecided go to ``_undecided_compatible``.
    """
    if f.theory != g.theory:
        raise ValueError("observables live on different theories")
    ok, x = _joint_lp(f.theory, len(f) * len(g), *_joint_equalities(f.theory, f, g))
    if ok is None:
        return _undecided_compatible(f, g), None
    if ok:
        return True, _grid_from_solution(f.theory, x, len(f.effects), len(g.effects))
    return ok, None


def s0_compatible(f: Observable, g: Observable, s0: StateSubset):
    """Compatibility of the pair restricted to the states in ``s0``.

    Returns (bool, (Observable, Observable) or None): the surrogate pair is
    read off the feasible joint's marginals.
    """
    if f.theory != g.theory:
        raise ValueError("observables live on different theories")
    a_eq, b_eq = _joint_equalities(f.theory, f, g, states=s0.generators)
    ok, x = _joint_lp(f.theory, len(f) * len(g), a_eq, b_eq)
    if ok:
        j = _grid_from_solution(f.theory, x, len(f.effects), len(g.effects))
        return True, marginals(j, atol=1e-5)
    return ok, None


def busch_unbiased_compatible(w1: float, m1, w2: float, m2) -> bool:
    """Joint measurability of qubit effects (1/2)((1 + w_i) 1 + m_i.sigma).

    Evaluates (1 - F1^2 - F2^2)(1 - w1^2/F1^2 - w2^2/F2^2)
    <= (m1.m2 - w1 w2)^2 with the standard F_i; degenerate F_i -> 0 falls
    back to the factored boundary form.
    """
    m1 = np.asarray(m1, float)
    m2 = np.asarray(m2, float)
    c1, c2 = np.linalg.norm(m1), np.linalg.norm(m2)
    for w, c in ((w1, c1), (w2, c2)):
        if c > 1 - abs(w) + 1e-10:
            raise ValueError("invalid qubit effect parameters")
    f1 = _busch_F(w1, c1)
    f2 = _busch_F(w2, c2)
    dot = float(m1 @ m2)
    if f1 < 1e-12 or f2 < 1e-12:
        # F_i = 0 forces w_i = 0, C_i = 1 (a sharp observable), which is
        # jointly measurable with the other only when the axes are parallel
        return abs(dot) >= c1 * c2 - 1e-9
    lhs = (1 - f1 * f1 - f2 * f2) * (1 - (w1 / f1) ** 2 - (w2 / f2) ** 2)
    rhs = (dot - w1 * w2) ** 2
    return lhs <= rhs + 1e-12


def _busch_F(w: float, c: float) -> float:
    a = max((1 + w) ** 2 - c * c, 0.0)
    b = max((1 - w) ** 2 - c * c, 0.0)
    return 0.5 * (math.sqrt(a) + math.sqrt(b))


# -- the segment parameterization ---------------------------------------


def _w_and_C(t, phi0, psi0, xi):
    """Bias w and norm C of the surrogate at angle xi; scalars or arrays.

    Needs sin(phi0 - xi) > 0, which holds for every xi in (-pi + phi0, 0].
    """
    s = np.sin(phi0 - xi)
    c = t * np.sin(phi0) / s
    w = -t * np.cos(psi0) * np.sin(xi) / s
    return w, c


def _xi_min(t, phi0, psi0):
    """Negative root of the quadratic in sin(xi) solving 1 - w = C;
    scalars or arrays."""
    aa = t * t * np.cos(psi0) ** 2 - 2 * t * np.cos(phi0) * np.cos(psi0) + 1.0
    bb = -2 * t * np.sin(phi0) * (t * np.cos(psi0) - np.cos(phi0))
    cc = (t * t - 1.0) * np.sin(phi0) ** 2
    s = (-bb - np.sqrt(np.maximum(bb * bb - 4 * aa * cc, 0.0))) / (2 * aa)
    s = np.clip(s, -1.0, 0.0)
    # two angles share this sine; pick the admissible one by the residual
    xa = np.arcsin(s)
    xb = -math.pi - xa
    wa, ca = _w_and_C(t, phi0, psi0, xa)
    wb, cb = _w_and_C(t, phi0, psi0, xb)
    ra = np.abs(1.0 - wa - ca)
    rb = np.where(xb > -math.pi + phi0, np.abs(1.0 - wb - cb), np.inf)
    return np.where(ra <= rb, xa, xb)


def _xi_max(t, phi0, psi0):
    """Solution of 1 + w = C on [0, phi0), i.e.
    sin(phi0) cos(xi) - (cos(phi0) + t cos(psi0)) sin(xi) = t sin(phi0)."""
    p = math.sin(phi0)
    q = math.cos(phi0) + t * math.cos(psi0)
    r = math.hypot(p, q)
    delta = math.atan2(q, p)
    arg = min(max(t * math.sin(phi0) / r, -1.0), 1.0)
    for xi in (-delta + math.acos(arg), -delta - math.acos(arg)):
        if -1e-12 <= xi < phi0:
            return max(xi, 0.0)
    raise ValueError("no admissible xi_max; angle bounds violated")


def xi_bounds(t: float, phi0: float, psi0: float):
    """(xi1_min, xi1_max, xi2_min, xi2_max) for the segment surrogates.

    xi2 bounds follow from the xi1 formulas under phi0 -> pi/2 - phi0.
    """
    if not (0.0 < phi0 < math.pi / 2 and 0.0 < psi0 < math.pi / 2):
        raise ValueError("angles must lie strictly inside (0, pi/2)")
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    xi1_min = float(_xi_min(t, phi0, psi0))
    xi1_max = _xi_max(t, phi0, psi0)
    xi2_min = float(_xi_min(t, math.pi / 2 - phi0, psi0))
    xi2_max = _xi_max(t, math.pi / 2 - phi0, psi0)
    return xi1_min, xi1_max, xi2_min, xi2_max


# -- qubit-disc observables ---------------------------------------------


def disc_axis_observable(theory: Theory, t: float, angle: float) -> Observable:
    """A^{t v} with v = (cos angle, sin angle) mapped onto the disc."""
    u = theory.unit_effect
    plus = 0.5 * np.array([t * math.cos(angle), t * math.sin(angle), 1.0])
    return Observable(theory, [plus, u - plus])


def mutually_unbiased_pair(theory: Theory, t: float):
    return (
        disc_axis_observable(theory, t, 0.0),
        disc_axis_observable(theory, t, math.pi / 2),
    )


def _segment_states(theory, phi0, psi0):
    return [theory.disc_state(phi0 - psi0), theory.disc_state(phi0 + psi0)]


def incompatibility_dimension_qubit(t: float, grid: int = 512) -> DimensionReport:
    """chi_incomp / chi_comp for the pair (A^{t x}, A^{t y}) on the disc.

    chi_incomp = 2 iff some boundary segment is S0-incompatible; segments
    are scanned with the closed-form surrogate criterion on a (phi0, psi0)
    grid and spot-verified by the S0 LP on a fixed spread of 32 cells.  A
    disagreement between the two certifiers aborts the scan.
    ``details["n_incompatible_cells"]`` counts at most 64 cells: the scan
    keeps only the first 64 hits.  The report's ``t0_estimate`` is None;
    ``estimate_t0`` computes the threshold.
    """
    if not (SQ2INV < t <= 1.0 + 1e-12):
        raise ValueError("t must lie in (1/sqrt 2, 1]")
    theory = make_disc()
    f, g = mutually_unbiased_pair(theory, t)

    incomp_cells = _incompatible_segments(t, grid)

    # independent LP certification on a deterministic spread of cells
    phis = [(i + 0.5) * (math.pi / 2) / 8 for i in range(8)]
    psis = [(i + 0.5) * (math.pi / 2) / 4 for i in range(4)]
    spot = list(itertools.product(phis, psis))
    proxies = _vectorized_proxy(
        t, np.array([p for p, _ in spot]), np.array([q for _, q in spot])
    ).tolist()
    disagreements = []
    for (phi0, psi0), proxy in zip(spot, proxies):
        ok, _ = s0_compatible(
            f, g, StateSubset(_segment_states(theory, phi0, psi0))
        )
        if ok is None:
            continue  # boundary-pinned instance the LP cannot settle
        if ok == proxy:  # LP says compatible while proxy says incompatible, or v.v.
            disagreements.append((phi0, psi0, proxy, ok))
    if disagreements:
        raise RuntimeError(
            "segment certifiers disagree; diagnostics: " + repr(disagreements)
        )

    witness = None
    if incomp_cells:
        phi0, psi0 = incomp_cells[0]
        states = _segment_states(theory, phi0, psi0)
        ok, _ = s0_compatible(f, g, StateSubset(states))
        if ok is True:
            raise RuntimeError(
                f"LP contradicts scan witness at {(phi0, psi0)}; aborting"
            )
        witness = StateSubset(states)
        chi_incomp = 2
    else:
        chi_incomp = 3

    # G(x, y) = p(x) B(y) reproduces the pair on the plane r_x = 0 for every
    # t, so chi_comp = 3 (test_chi_comp_product_construction checks it)
    return DimensionReport(
        t=t,
        chi_incomp=chi_incomp,
        chi_comp=3,
        witness=witness,
        details={"grid": grid, "n_incompatible_cells": len(incomp_cells)},
    )


def _incompatible_segments(t: float, grid: int):
    """Grid scan (vectorized closed forms) returning incompatible cells."""
    half = math.pi / 2
    phis = (np.arange(grid) + 0.5) * half / grid
    psis = (np.arange(grid) + 0.5) * half / grid
    pp, ss = np.meshgrid(phis, psis, indexing="ij")
    mask = _vectorized_proxy(t, pp, ss)
    hits = np.argwhere(mask)
    return [(float(phis[i]), float(psis[j])) for i, j in hits[:64]]


def _vectorized_proxy(t, phi0, psi0):
    """Extremal-pair segment criterion, on scalars or arrays of cells.

    Compatibility of the pair restricted to the segment (phi0, psi0) reduces
    to compatibility of some admissible surrogate pair, and among those it
    suffices to test the extremal one at (xi1_min, xi2_min): the segment is
    incompatible iff (1 + s)(1 - w1 - w2) > (1 - s) w1 w2 with
    s = sin(xi1_min + xi2_min).  Reachable anti-aligned axes,
    xi1_min + xi2_min <= -pi/2 or s -> 1, always give compatibility.
    """
    phibar = math.pi / 2 - phi0
    x1min = _xi_min(t, phi0, psi0)
    x2min = _xi_min(t, phibar, psi0)

    w1, _ = _w_and_C(t, phi0, psi0, x1min)
    w2, _ = _w_and_C(t, phibar, psi0, x2min)
    s = np.sin(x1min + x2min)
    incompatible = x1min + x2min > -math.pi / 2 + 1e-15
    incompatible &= 1.0 - s >= 1e-14
    incompatible &= (1 + s) * (1 - w1 - w2) > (1 - s) * w1 * w2 + 1e-12
    return incompatible


def exists_incompatible_segment(t: float, grid: int = 128) -> bool:
    """Whether ``_incompatible_segments(t, grid)`` finds any cell, in O(1).

    The segment margin (1+s)(1-w1-w2) - (1-s)w1w2 peaks at the cells nearest
    phi0 = pi/4 on the smallest psi0, and there it turns positive at the
    lowest t of any cell.  So the scan has a hit iff one of the mirror cells
    (i, 0) and (grid-1-i, 0), i = (grid-1)//2, has one.  The cell centres use
    the scan's own expression, so both agree bit for bit; the guard test
    ``test_two_cell_predicate_matches_full_scan`` checks this against the
    full scan.
    """
    half = math.pi / 2
    i = (grid - 1) // 2
    phis = (np.array([i, grid - 1 - i]) + 0.5) * half / grid
    psis = (np.zeros(2) + 0.5) * half / grid
    return bool(np.any(_vectorized_proxy(t, phis, psis)))


def estimate_t0(grid: int = 128, tol: float = 1e-3) -> float:
    """Bisection for the threshold above which some cell of the grid scan
    certifies chi_incomp = 2.

    Each step decides from the scan's two deciding cells (see
    ``exists_incompatible_segment``), so a call costs O(log(1/tol)) and
    returns the same float as bisecting the full grid scan.
    """
    lo, hi = SQ2INV + 1e-6, 1.0
    if not exists_incompatible_segment(hi, grid):
        return hi
    if exists_incompatible_segment(lo, grid):
        return lo

    def pred(t):
        return 1.0 if exists_incompatible_segment(t, grid) else -1.0

    return bisect(pred, lo, hi, tol)


# -- degree of incompatibility ------------------------------------------


def degree_of_incompatibility(f: Observable, g: Observable, tol: float = 1e-4):
    """Largest uniform-noise weight lambda keeping the fuzzed pair
    lambda f + (1 - lambda) u/2, lambda g + (1 - lambda) u/2 compatible.

    Returns (lambda, closed_form_upper_bound).  lambda is min(1, lambda*)
    for the optimum lambda* of one joint LP with a lambda column (exact on
    finite theories, within about 1e-7 on the disc); an unbounded lambda*
    means both observables are already {u/2, u/2}.  ``tol`` is only the
    resolution of the fallback for an LP left undecided: bisection at
    tol/4 on the exact criterion of ``_undecided_compatible``.  The bound
    is max over pure states of (max_i f_i + max_j g_j) - 1.
    """
    if len(f.effects) != 2 or len(g.effects) != 2:
        raise ValueError("degree of incompatibility needs binary observables")
    bound = max_statistics_sum(f, g) - 1.0
    # marginal rows sum_b G_ab - lambda (f_a - u/2) = u/2, likewise for g;
    # lambda = 0 has the joint u/4, so the LP is never infeasible
    a_eq, b_eq = _joint_equalities(f.theory, f, g)
    half = np.tile(0.5 * f.theory.unit_effect, 4)
    a_eq = np.column_stack([a_eq, half - b_eq])
    objective = np.zeros(a_eq.shape[1])
    objective[-1] = -1.0
    ok, x = _joint_lp(f.theory, 4, a_eq, half, objective)
    if ok:
        return (1.0 if x is None else min(1.0, float(x[-1]))), bound

    def pred(lam):
        return -1.0 if _undecided_compatible(fuzz(f, lam), fuzz(g, lam)) else 1.0

    return (1.0 if pred(1.0) < 0 else bisect(pred, 0.0, 1.0, tol * 0.25)), bound


def sample_feasible_joints(f: Observable, g: Observable, count: int, seed: int = 0) -> list:
    """Random joint observables on the product outcome set of ``f`` and
    ``g``: LP vertices found by maximizing seeded random objectives over
    the joint polytope, plus random convex mixtures of those vertices for
    interior coverage.

    Only the unit-sum constraint is imposed: any joint is an admissible
    approximator of the pair.  On the disc the effect cone is shrunk by
    cos(pi/DISC_SAMPLES) so every sampled cell is exactly valid.
    """
    theory = f.theory
    na, nb = len(f.effects), len(g.effects)
    a_eq, b_eq = _joint_equalities(theory, f, g, states=())
    rng = np.random.default_rng(seed)
    vertices = []
    n_vertex = max(2, (count + 1) // 2)
    attempts = 0
    while len(vertices) < n_vertex:
        if attempts > 4 * n_vertex + 20:
            raise RuntimeError("vertex sampling kept hitting degraded solves")
        attempts += 1
        c = rng.normal(size=a_eq.shape[1])
        ok, x = _joint_lp(theory, na * nb, a_eq, b_eq, c, inner=True)
        # long degenerate pivot sequences can degrade the tableau; the
        # solve is then undecided, and another objective is drawn
        if ok is None:
            continue
        if x is None:
            raise ValueError("pair admits no joint observable under these cuts")
        vertices.append(x)
    out = [
        _grid_from_solution(theory, x, na, nb)
        for x in vertices[: count]
    ]
    while len(out) < count:
        i, j = rng.integers(0, len(vertices), size=2)
        lam = rng.uniform()
        x = lam * vertices[i] + (1.0 - lam) * vertices[j]
        out.append(_grid_from_solution(theory, x, na, nb))
    return out[:count]
