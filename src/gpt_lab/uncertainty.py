"""Preparation and measurement uncertainty measures: overall width,
localization error, error bar width, Werner and l-infinity distances,
entropic noise and Landau-Pollak bounds, plus the witness states tying
preparation bounds to measurement bounds."""

from __future__ import annotations

import math
import operator

import numpy as np

from .gpt_core import StateVec, Theory, eigenstate_of, require_self_dual
from .numerics import LinearProgram, shannon_entropy, solve_lp
from .observables import JointObservable, Observable, marginals, measure

EPS = 1e-12


# -- widths and errors on statistics ------------------------------------


def _width_candidates(metric: np.ndarray) -> np.ndarray:
    vals = {0.0}
    k = metric.shape[0]
    for a in range(k):
        for b in range(k):
            if a != b:
                vals.add(2.0 * metric[a, b])
    return np.array(sorted(vals))


def overall_width(p, metric: np.ndarray, epsilon: float) -> float:
    """Smallest ball width capturing mass 1 - epsilon, minimized over the
    ball center.  The ball O(a; w) contains the outcomes within w/2 of a."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    p = np.asarray(p, float)
    k = len(p)
    best = math.inf
    for w in _width_candidates(metric):
        for a in range(k):
            mass = p[metric[a] <= w / 2 + EPS].sum()
            if mass >= 1.0 - epsilon - 1e-12:
                return float(w)
    return best  # unreachable: the full-support ball always has mass 1


def localization_error(p) -> float:
    """1 - max_a p(a)."""
    return float(1.0 - np.max(np.asarray(p, float)))


def _effect_eigenstates(t: Theory, e: np.ndarray) -> list:
    """Extreme points of the face {omega : e(omega) = 1}."""
    e = np.asarray(e, float)
    if t.kind == "Disc":
        nxy = math.hypot(e[0], e[1])
        if nxy > EPS and e[2] + nxy >= 1.0 - 1e-9:
            return [np.array([e[0] / nxy, e[1] / nxy, 1.0])]
        return []
    return [w for w in t.pure_states if t.pair(e, w) >= 1.0 - 1e-9]


def error_bar_width(approx: Observable, ideal: Observable, epsilon: float) -> float:
    """Smallest w such that, on every eigenstate of every ideal effect, the
    approximating observable puts mass at least 1 - epsilon within w/2 of
    the corresponding outcome, in the ideal observable's outcome metric."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    if len(approx.effects) != len(ideal.effects):
        raise ValueError("observables must share the outcome set")
    d = ideal.get_metric()
    t = ideal.theory
    eigs = []
    for a, e in enumerate(ideal.effects):
        states = _effect_eigenstates(t, e)
        if not states:
            raise ValueError(f"outcome {a}: no eigenstate; ideal input required")
        eigs.append(states)
    for w in _width_candidates(d):
        ok = True
        for a, states in enumerate(eigs):
            inside = d[a] <= w / 2 + EPS
            for omega in states:
                mass = sum(
                    t.pair(approx.effects[b], omega)
                    for b in range(len(approx.effects))
                    if inside[b]
                )
                if mass < 1.0 - epsilon - 1e-12:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return float(w)
    raise RuntimeError("no admissible width; metric inconsistent")


# -- distances between observables --------------------------------------


def _lipschitz_lp(delta: np.ndarray, metric: np.ndarray) -> float:
    """max |sum_a h(a) delta_a| over the Lipschitz ball, gauge h(0) = 0.

    The ball is symmetric under h -> -h, so this is max h.delta: one LP.
    """
    k = len(delta)
    a, b = np.triu_indices(k, 1)
    diff = np.eye(k)[a] - np.eye(k)[b]  # rows h_a - h_b <= d_ab, h_b - h_a <= d_ab
    p = LinearProgram(k, objective=-delta, a_eq=np.eye(1, k), b_eq=np.zeros(1),
                      a_ub=np.stack([diff, -diff], 1).reshape(-1, k),
                      b_ub=np.repeat(metric[a, b], 2))
    r = solve_lp(p)
    if r.status != "optimal":
        raise RuntimeError(f"Lipschitz LP failed: {r.status}")
    return max(0.0, -r.value)  # h = 0 is feasible; this also drops a -0.0


def werner_measure(approx: Observable, ideal: Observable) -> float:
    """Largest expectation gap over outcome functions that are 1-Lipschitz
    in the ideal observable's outcome metric, maximized over the theory's
    ``cone_states``.  On the disc with more than two outcomes those are
    sampled boundary states, so the maximum is a lower bound."""
    d = ideal.get_metric()
    if len(ideal.effects) == 2:
        # two-point Lipschitz ball reduces to h in {(0, 0), (0, +-d01)}
        return d[0, 1] * linf_distance(approx, ideal)
    gaps = np.array(approx.effects) - np.array(ideal.effects)
    return max(_lipschitz_lp(gaps @ w, d) for w in ideal.theory.cone_states())


def linf_distance(approx: Observable, ideal: Observable) -> float:
    """Worst-case per-outcome probability gap, maximized over states."""
    t = ideal.theory
    gaps = np.array(approx.effects) - np.array(ideal.effects)
    return max(max(t.support(c)[0], t.support(-c)[0]) for c in gaps)


# -- entropic measures --------------------------------------------------


def entropic_noise(approx: Observable, ideal: Observable) -> float:
    """Conditional entropy H(ideal | approx) of the joint outcome
    distribution p(x, xhat) = <e_x, m_xhat> (self-dual representation)."""
    t = ideal.theory
    require_self_dual(t)
    joint = np.array(
        [
            [t.pair(e, m) for m in approx.effects]
            for e in ideal.effects
        ]
    )
    joint = np.clip(joint, 0.0, None)
    total = joint.sum()
    if total <= EPS:
        raise ValueError("degenerate joint distribution")
    joint /= total
    h = 0.0
    for xhat in range(joint.shape[1]):
        q = joint[:, xhat].sum()
        if q > EPS:
            h += q * shannon_entropy(joint[:, xhat] / q)
    return h


def entropic_pur_bound(gamma: float) -> float:
    """-2 log(gamma / 2)."""
    if not (0.0 < gamma <= 2.0):
        raise ValueError("gamma must lie in (0, 2]")
    return -2.0 * math.log(gamma / 2.0)


# -- Landau-Pollak bounds -----------------------------------------------


def max_statistics_sum(f: Observable, g: Observable) -> float:
    """Numeric gamma: max over states of max_a f_a + max_b g_b, that is the
    largest support of an effect sum f_a + g_b."""
    return max(f.theory.support(ef + eg)[0] for ef in f.effects for eg in g.effects)


def gamma_closed_form(n: int | None, theta: float) -> float:
    """Table closed form for the polygon pair (F_i, G_0) at separation
    theta = 2 pi i / n; n = None gives the disc limit."""
    if not (0.0 < theta < math.pi):
        raise ValueError("separation angle must lie in (0, pi)")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if n is None:
        return max(1.0 + c, 1.0 + s)
    r2 = 1.0 / math.cos(math.pi / n)
    i = theta * n / (2.0 * math.pi)
    i_int = round(i)
    if abs(i - i_int) > 1e-9 or not (0 < i_int < n / 2):
        raise ValueError("index out of range for this polygon")
    if n % 2 == 0:
        if n % 4 == 0:
            if i_int % 2 == 0:
                return max(1.0 + c, 1.0 + s)
            return max(1.0 + r2 * c, 1.0 + r2 * s)
        if i_int % 2 == 0:
            return max(1.0 + c, 1.0 + r2 * s)
        return max(1.0 + r2 * c, 1.0 + s)
    front = 2.0 * r2 / (1.0 + r2)
    tail = 1.0 + s / math.cos(math.pi / (2 * n))
    if i_int % 2 == 0:
        return max(front + (2.0 / (1.0 + r2)) * c, tail)
    return max(front * (1.0 + c), tail)


def landau_pollak_gamma(theory: Theory, i) -> tuple:
    """Landau-Pollak bound gamma for the pair (F_i, G_0) in a polygon
    theory, as (numeric pure-state maximum, table closed form).

    Raises AssertionError unless the two agree to 1e-9.
    """
    if theory.kind != "Polygon":
        raise ValueError("the Landau-Pollak table covers polygon theories")
    n = theory.n
    i = operator.index(i)
    if not (0 < i < n / 2):
        raise ValueError("index must satisfy 0 < i < n/2")
    ext = theory.extreme_effects()
    u = theory.unit_effect
    f = Observable(theory, [ext[i], u - ext[i]])
    g = Observable(theory, [ext[0], u - ext[0]])
    numeric = max_statistics_sum(f, g)
    closed = gamma_closed_form(n, 2.0 * math.pi * i / n)
    if abs(numeric - closed) > 1e-9:
        raise AssertionError(
            f"closed form {closed!r} disagrees with numeric {numeric!r}"
        )
    return numeric, closed


# -- witness states -----------------------------------------------------


def theorem_witness_state(
    joint: JointObservable,
    ideal_f: Observable,
    ideal_g: Observable,
    eps1: float,
    eps2: float,
):
    """Witness states realizing the preparation bounds inside measurement
    bounds, extracted from the cells of an approximate joint observable.
    Widths use each ideal observable's outcome metric.

    Returns (StateVec, report).  The report carries, for the error-bar
    witness, W_{eps1}(approx_F, F) >= overall width of the witness's F
    statistics at eps1 + eps2 (and the G counterpart); for the l-infinity
    witness, the D_inf sum >= localization-error sum inequality.
    """
    if eps1 < 0 or eps2 < 0 or eps1 + eps2 > 1.0:
        raise ValueError("need eps1, eps2 >= 0 with eps1 + eps2 <= 1")
    t = joint.theory
    require_self_dual(t)
    da, db = ideal_f.get_metric(), ideal_g.get_metric()
    approx_f, approx_g = marginals(joint, atol=1e-6)
    w1 = error_bar_width(approx_f, ideal_f, eps1)
    w2 = error_bar_width(approx_g, ideal_g, eps2)

    na, nb = joint.shape()
    cells = []
    for a in range(na):
        for b in range(nb):
            m = joint.cell(a, b)
            if t.pair(t.unit_effect, m) > 1e-9:
                cells.append((a, b, eigenstate_of(t, m)))
    if not cells:
        raise ValueError("joint observable has no cell with positive mass")

    def ball_mass(ideal, omega, center, d, w):
        inside = d[center] <= w / 2 + EPS
        return sum(
            t.pair(ideal.effects[i], omega)
            for i in range(len(ideal.effects))
            if inside[i]
        )

    # error-bar witness: cell maximizing the captured ideal mass
    best_eb, sc_eb = None, -math.inf
    best_l, sc_l = None, -math.inf
    for a, b, omega in cells:
        s = ball_mass(ideal_f, omega, a, da, w1) + ball_mass(
            ideal_g, omega, b, db, w2
        )
        if s > sc_eb:
            best_eb, sc_eb = (a, b, omega), s
        s2 = t.pair(ideal_f.effects[a], omega) + t.pair(ideal_g.effects[b], omega)
        if s2 > sc_l:
            best_l, sc_l = (a, b, omega), s2
    _, _, omega_eb = best_eb
    _, _, omega_l = best_l

    eps = eps1 + eps2
    pf = measure(ideal_f, omega_eb)
    pg = measure(ideal_g, omega_eb)
    report = {
        "w1": w1,
        "w2": w2,
        "errorbar_overall_f": overall_width(pf, da, eps),
        "errorbar_overall_g": overall_width(pg, db, eps),
        "errorbar_slack_f": w1 - overall_width(pf, da, eps),
        "errorbar_slack_g": w2 - overall_width(pg, db, eps),
    }
    d1 = linf_distance(approx_f, ideal_f)
    d2 = linf_distance(approx_g, ideal_g)
    le = localization_error(measure(ideal_f, omega_l)) + localization_error(
        measure(ideal_g, omega_l)
    )
    report["dinf_sum"] = d1 + d2
    report["le_sum"] = le
    report["dinf_slack"] = d1 + d2 - le
    report["entropic_sum"] = entropic_noise(approx_f, ideal_f) + entropic_noise(
        approx_g, ideal_g
    )
    return StateVec(t, omega_eb), report
