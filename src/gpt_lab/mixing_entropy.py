"""Perfect distinguishability and the thermodynamic entropy of mixing.

A family of states is perfectly distinguishable when some observable
answers "which one?" without error.  Mixing entropy is assigned to a state
through its decompositions into such families,

    S(w) = sum_i p_i S(w_i) - sum_i p_i log p_i,

with S = 0 on pure states.  For polygon theories this assignment is only
well defined for n = 3 (classical) and the disc (n = infinity); the
consistency checker certifies that, producing explicit pairs of
decompositions with different entropy values for every other n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpt_core import StateVec, Theory
from .numerics import LinearProgram, shannon_entropy, solve_lp
from .observables import Observable

DELTA_TOL = 1e-9
RECON_TOL = 1e-10

LOG2 = math.log(2.0)


def state_key(w) -> tuple:
    """Hashable key for base-entropy maps, stable under ~1e-9 jitter."""
    return tuple(np.round(np.asarray(w, float), 9) + 0.0)


@dataclass
class DistinguishableFamily:
    """States plus a certifying observable with e_i(w_j) = delta_ij."""

    states: list  # of StateVec
    observable: Observable

    def __post_init__(self):
        t = self.observable.theory
        if len(self.states) != len(self.observable.effects):
            raise ValueError("family size does not match outcome count")
        for s in self.states:
            if s.theory != t:
                raise ValueError("family states live in different theories")
        for i, e in enumerate(self.observable.effects):
            for j, s in enumerate(self.states):
                want = 1.0 if i == j else 0.0
                if abs(t.pair(e, s.coords) - want) > DELTA_TOL:
                    raise ValueError("certificate fails the delta condition")

    @property
    def theory(self) -> Theory:
        return self.observable.theory


@dataclass
class Decomposition:
    """target = sum_i weights[i] * family.states[i]."""

    target: StateVec
    family: DistinguishableFamily
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, float)
        if len(self.weights) != len(self.family.states):
            raise ValueError("weight/state count mismatch")
        if np.any(self.weights < -1e-12):
            raise ValueError("negative weight")
        self.weights = np.clip(self.weights, 0.0, None)
        s = self.weights.sum()
        if abs(s - 1.0) > 1e-10:
            raise ValueError("weights are not normalized")
        self.weights = self.weights / s
        recon = np.sum(
            [p * s.coords for p, s in zip(self.weights, self.family.states)],
            axis=0,
        )
        if np.max(np.abs(recon - self.target.coords)) > RECON_TOL:
            raise ValueError("weights do not reconstruct the target state")


@dataclass
class ConsistencyReport:
    """Outcome of the well-definedness check for one theory."""

    kind: str
    n: int | None
    entries: list  # (description, entropy value) pairs
    discrepancy: float
    verdict: str  # "consistent" | "inconsistent"
    witness: str | None = None


# -- perfect distinguishability -----------------------------------------


def _same_theory(states: list) -> Theory:
    t = states[0].theory
    for s in states[1:]:
        if s.theory != t:
            raise ValueError("states belong to different theories")
    return t


def find_distinguishing_observable(states: list) -> Observable | None:
    """Certifying observable with e_i(w_j) = delta_ij, or None.

    Finite theories solve an LP over effect tuples (delta constraints at
    the given states, interval constraints at every pure state).  The disc
    is handled analytically: only antipodal pure pairs qualify, certified
    by the sharp boundary effect.
    """
    if not states:
        raise ValueError("need at least one state")
    t = _same_theory(states)
    m = len(states)
    if m == 1:
        return Observable(t, [t.unit_effect])

    if t.kind == "Disc":
        if m > 2:
            return None
        a, b = states[0].coords, states[1].coords
        if (
            abs(a[0] ** 2 + a[1] ** 2 - 1.0) > 1e-9
            or abs(b[0] ** 2 + b[1] ** 2 - 1.0) > 1e-9
            or math.hypot(a[0] + b[0], a[1] + b[1]) > 1e-9
        ):
            return None
        e = 0.5 * np.array([a[0], a[1], 1.0])
        return Observable(t, [e, t.unit_effect - e])

    dim = t.dim
    nvars = m * dim
    eye_m = np.eye(m)
    # the effects sum to the unit, and e_i(w_j) = delta_ij, j-major
    a_eq = np.vstack([np.kron(np.ones((1, m)), np.eye(dim))]
                     + [np.kron(eye_m, s.coords[None]) for s in states])
    b_eq = np.concatenate([t.unit_effect, eye_m.ravel()])
    # 0 <= e_i(w) <= 1 at every pure state w, the two rows of each (w, i)
    # adjacent
    upper = np.vstack([np.kron(eye_m, w[None]) for w in t.pure_states])
    a_ub = np.stack([upper, -upper], 1).reshape(-1, nvars)
    b_ub = np.tile([1.0, 0.0], len(upper))
    p = LinearProgram(nvars, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    r = solve_lp(p)
    if r.status not in ("feasible", "optimal"):
        return None
    effects = [r.x[i * dim : (i + 1) * dim] for i in range(m)]
    return Observable(t, effects, atol=1e-8)


# -- geometry helpers ----------------------------------------------------


def _is_pure(t: Theory, w: np.ndarray, tol: float = 1e-9) -> bool:
    if t.kind == "Disc":
        return w[0] ** 2 + w[1] ** 2 >= 1.0 - tol
    return bool(np.any(np.max(np.abs(t.pure_states - w), axis=1) <= tol))


def _chord_hits(verts: np.ndarray, w: np.ndarray, d: np.ndarray):
    """Both boundary intersections of the line w + t*d with the polygon
    whose vertices (xy rows, in order) are ``verts``.  Returns a list of
    (point_xy, edge_index, edge_param) with one entry per side of w."""
    n = verts.shape[0]
    hits = []
    for m in range(n):
        p0, p1 = verts[m], verts[(m + 1) % n]
        a = np.column_stack([d, -(p1 - p0)])
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-14:
            continue
        tt, ss = np.linalg.solve(a, p0 - w)
        if -1e-12 <= ss <= 1.0 + 1e-12:
            hits.append((w + tt * d, m, min(max(ss, 0.0), 1.0), tt))
    pos = [h for h in hits if h[3] > 1e-12]
    neg = [h for h in hits if h[3] < -1e-12]
    if not pos or not neg:
        return None
    hp = min(pos, key=lambda h: h[3])
    hn = max(neg, key=lambda h: h[3])
    return (hp[:3], hn[:3])


def _polygon_pair_certificate(t: Theory, hit_a, hit_b) -> Observable | None:
    """Certificate for the endpoint pair of a chord, by the edge/vertex
    patterns of perfectly distinguishable polygon states."""
    n = t.n
    ext = t.extreme_effects()
    u = t.unit_effect

    def edges_of(hit):
        _, m, s = hit
        out = {m}
        if s <= 1e-9:
            out.add((m - 1) % n)
        if s >= 1.0 - 1e-9:
            out.add((m + 1) % n)
        return out

    def vertex_of(hit):
        _, m, s = hit
        if s <= 1e-9:
            return m
        if s >= 1.0 - 1e-9:
            return (m + 1) % n
        return None

    ea, eb = edges_of(hit_a), edges_of(hit_b)
    if n % 2 == 0:
        # opposite-edge rule: edge m pairs with edge m + n/2, certified by
        # the pure effect indexed m + 1
        for ma in ea:
            if (ma + n // 2) % n in eb:
                e = ext[(ma + 1) % n]
                return Observable(t, [e, u - e])
        return None
    # odd rule: a vertex i pairs with the opposite edge i + (n-1)/2
    va, vb = vertex_of(hit_a), vertex_of(hit_b)
    if va is not None and (va + (n - 1) // 2) % n in eb:
        e = ext[va]
        return Observable(t, [e, u - e])
    if vb is not None and (vb + (n - 1) // 2) % n in ea:
        return Observable(t, [u - ext[vb], ext[vb]])
    return None


def _chord_decomposition(t: Theory, w: np.ndarray, a_xy, b_xy, cert) -> Decomposition:
    a3 = np.array([a_xy[0], a_xy[1], 1.0])
    b3 = np.array([b_xy[0], b_xy[1], 1.0])
    la = np.linalg.norm(b_xy - w[:2])
    lb = np.linalg.norm(a_xy - w[:2])
    pa = la / (la + lb)
    fam = DistinguishableFamily([StateVec(t, a3), StateVec(t, b3)], cert)
    return Decomposition(StateVec(t, w), fam, np.array([pa, 1.0 - pa]))


def enumerate_decompositions(t: Theory, w: StateVec, granularity: int = 720) -> list:
    """Decompositions of ``w`` into perfectly distinguishable families.

    Pure states return the trivial singleton.  The disc returns diameter
    decompositions (``granularity`` of them for the center, the unique one
    otherwise).  Simplices return the vertex decomposition.  Polygons keep
    every scanned chord whose two boundary endpoints form a distinguishable
    pair; for n = 3 the full vertex decomposition is included as well.
    The scan covers the chords through each vertex, and for even n also
    ``granularity`` equally spaced directions.  ``granularity`` does not
    apply to odd n: there a distinguishable pair needs a vertex endpoint,
    so the chords through a vertex are all of them.
    """
    if granularity < 1:
        raise ValueError("granularity must be positive")
    wv = np.asarray(w.coords, float)
    if _is_pure(t, wv):
        fam = DistinguishableFamily([w], Observable(t, [t.unit_effect]))
        return [Decomposition(w, fam, np.array([1.0]))]

    if t.kind == "Disc":
        rad = math.hypot(wv[0], wv[1])
        out = []
        if rad <= 1e-12:
            angles = [math.pi * k / granularity for k in range(granularity)]
            weights = [0.5] * len(angles)
        else:
            angles = [math.atan2(wv[1], wv[0])]
            weights = [(1.0 + rad) / 2.0]
        for th, p in zip(angles, weights):
            a = t.disc_state(th)
            b = t.disc_state(th + math.pi)
            e = t.disc_extreme_effect(th)
            fam = DistinguishableFamily(
                [StateVec(t, a), StateVec(t, b)],
                Observable(t, [e, t.unit_effect - e]),
            )
            out.append(Decomposition(w, fam, np.array([p, 1.0 - p])))
        return out

    if t.kind == "Simplex":
        fam = DistinguishableFamily(
            [StateVec(t, v) for v in np.eye(t.dim)],
            Observable(t, [e for e in np.eye(t.dim)]),
        )
        return [Decomposition(w, fam, wv.copy())]

    if t.kind != "Polygon":
        raise ValueError("decomposition enumeration needs a built-in theory")

    verts = t.pure_states[:, :2]
    out = []
    seen = set()
    dirs = []
    if t.n % 2 == 0:
        dirs = [
            np.array([math.cos(math.pi * k / granularity),
                      math.sin(math.pi * k / granularity)])
            for k in range(granularity)
        ]
    # chords through a vertex are a measure-zero family the angle grid
    # misses, yet for odd n they are the only distinguishable ones
    for v in verts:
        d = v - wv[:2]
        nv = np.linalg.norm(d)
        if nv > 1e-12:
            dirs.append(d / nv)
    for d in dirs:
        hits = _chord_hits(verts, wv[:2], d)
        if hits is None:
            continue
        hit_a, hit_b = hits
        key = (state_key(hit_a[0]), state_key(hit_b[0]))
        if key in seen or (key[1], key[0]) in seen:
            continue
        cert = _polygon_pair_certificate(t, hit_a, hit_b)
        if cert is None:
            continue
        seen.add(key)
        out.append(_chord_decomposition(t, wv, hit_a[0], hit_b[0], cert))
    if t.n == 3:
        bary = np.linalg.solve(
            np.vstack([verts.T, np.ones(3)]), np.array([wv[0], wv[1], 1.0])
        )
        fam = DistinguishableFamily(
            [StateVec(t, v) for v in t.pure_states],
            Observable(t, [e for e in t.extreme_effects()]),
        )
        out.append(Decomposition(w, fam, bary))
    return out


def entropy_of_decomposition(d: Decomposition, base_entropies: dict | None = None) -> float:
    """S = sum p_i S(w_i) - sum p_i log p_i, in nats.

    Pure components contribute S = 0; mixed components must appear in
    ``base_entropies`` keyed by ``state_key`` of their coordinates.
    """
    t = d.family.theory
    total = shannon_entropy(d.weights)
    for p, s in zip(d.weights, d.family.states):
        if p <= 0:
            continue
        if _is_pure(t, s.coords):
            continue
        key = state_key(s.coords)
        if base_entropies is None or key not in base_entropies:
            raise ValueError("missing base entropy for a mixed component")
        total += p * float(base_entropies[key])
    return total


# -- closed forms for the inconsistency witnesses ------------------------


def even_chord_ratio(n: int) -> float:
    """(cos(2 pi / n) / cos(pi / n))^2: relates the weights of the two
    chord decompositions of the witness state in an even polygon."""
    return (math.cos(2 * math.pi / n) / math.cos(math.pi / n)) ** 2


def odd_alpha(n: int) -> float:
    """sin(pi / 2n), the parameter of the odd-polygon closed forms."""
    return math.sin(math.pi / (2 * n))


def odd_midpoint_entropy_direct(alpha: float) -> float:
    """Entropy of the opposite-edge midpoint state in an odd polygon,
    derived from the vertex-anchored chord pair."""
    a2 = alpha * alpha
    v1 = 1.0 - 4.0 * a2
    v2 = 1.0 - 2.0 * a2
    t1 = 2.0 * a2 * LOG2
    t2 = 0.5 * v1 * math.log(v1) if v1 > 0 else 0.0
    t3 = -v2 * math.log(v2) if v2 > 0 else 0.0
    return t1 + t2 + t3


def odd_midpoint_entropy_bootstrap(alpha: float, n: int) -> float:
    """Same entropy solved from the symmetric pure-pair decomposition;
    the sign alternates with n mod 4."""
    s = -1.0 if n % 4 == 3 else 1.0
    x1 = 1.0 + 2.0 * s * alpha
    t1 = x1 * math.log(x1) if x1 > 0 else 0.0
    return t1 - (2.0 + 2.0 * s * alpha) * math.log(1.0 + s * alpha)


def _h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _segment_intersection(p0, p1, q0, q1) -> np.ndarray:
    a = np.column_stack([p1 - p0, -(q1 - q0)])
    s, _ = np.linalg.solve(a, q0 - p0)
    return p0 + s * (p1 - p0)


def _even_witness(t: Theory) -> tuple:
    """Entropies of the witness state's two chord decompositions for even
    n >= 6: the vertex diameter [w0, w_{n/2}] and the offset chord
    [w1, w_{n/2+2}] cross at the witness.

    Returns (report entries, discrepancy)."""
    n = t.n
    verts = t.pure_states[:, :2]
    w0, wh = verts[0], verts[n // 2]
    w1, wk = verts[1], verts[(n // 2 + 2) % n]
    wp = _segment_intersection(w0, wh, w1, wk)
    x = np.linalg.norm(wp - w0)
    y = np.linalg.norm(wp - wh)
    s = np.linalg.norm(wp - w1)
    tt = np.linalg.norm(wp - wk)
    f1 = x / (x + y)
    f2 = s / (s + tt)
    f2_closed = x / (x + even_chord_ratio(n) * y)
    if abs(f2 - f2_closed) > 1e-9:
        raise RuntimeError("chord geometry disagrees with the closed ratio")
    entries = [
        ("witness via the vertex diameter", _h(f1)),
        ("witness via the offset chord", _h(f2)),
    ]
    return entries, abs(_h(f1) - _h(f2))


def _odd_witness(t: Theory) -> tuple:
    """Closed-form entropies of the opposite-edge midpoint for odd n >= 5,
    corroborated against the actual chord geometry."""
    n = t.n
    verts = t.pure_states[:, :2]
    alpha = odd_alpha(n)
    wa = 0.5 * (verts[(n - 1) // 2] + verts[(n + 1) // 2])
    # anchored split: intersect [w0, wa] with the chord [w1, w_{(n+1)/2}]
    wq = _segment_intersection(verts[0], wa, verts[1], verts[(n + 1) // 2])
    lam_q = np.linalg.norm(wq - verts[0]) / np.linalg.norm(wa - verts[0])
    mu = np.linalg.norm(wq - verts[(n + 1) // 2]) / np.linalg.norm(
        verts[1] - verts[(n + 1) // 2]
    )
    s_direct_geom = (_h(mu) - _h(lam_q)) / lam_q
    # symmetric split: intersect [w0, wa] with the chord [w_j, w_{n-j}]
    j = (n + 1) // 4 if n % 4 == 3 else (n - 1) // 4
    wr = _segment_intersection(verts[0], wa, verts[j], verts[n - j])
    lam_r = np.linalg.norm(wr - verts[0]) / np.linalg.norm(wa - verts[0])
    s_boot_geom = (LOG2 - _h(lam_r)) / lam_r
    s_direct = odd_midpoint_entropy_direct(alpha)
    s_boot = odd_midpoint_entropy_bootstrap(alpha, n)
    if abs(s_direct - s_direct_geom) > 1e-9 or abs(s_boot - s_boot_geom) > 1e-9:
        raise RuntimeError("closed forms disagree with the chord geometry")
    entries = [
        ("midpoint entropy, vertex-anchored chords", s_direct),
        ("midpoint entropy, symmetric pure pair", s_boot),
    ]
    return entries, abs(s_direct - s_boot)


def _square_witness() -> tuple:
    """The n = 4 witness: the center via a pure diagonal pair (log 2)
    versus via opposite edge midpoints whose own entropies, assigned by
    uniform pure splits as in spectral theories, are log 2 each."""
    entries = [
        ("center via a diagonal pure pair", LOG2),
        ("center via edge midpoints with spectral base entropies", 2 * LOG2),
    ]
    return entries, LOG2


def _classical_discrepancy(t: Theory, granularity: int) -> float:
    """Max entropy spread across decompositions of sample trit states."""
    samples = [
        np.array([0.5, 0.3, 0.2]),
        np.array([0.6, 0.25, 0.15]),
        np.array([1.0, 1.0, 1.0]) / 3.0,
    ]
    worst = 0.0
    for bary in samples:
        wv = bary @ t.pure_states
        decs = enumerate_decompositions(t, StateVec(t, wv), granularity)
        base = {}
        for d in decs:
            for s in d.family.states:
                if _is_pure(t, s.coords):
                    continue
                # boundary component: entropy of its unique pure split
                hits = _edge_param(t, s.coords)
                base[state_key(s.coords)] = _h(hits)
        vals = [entropy_of_decomposition(d, base) for d in decs]
        worst = max(worst, max(vals) - min(vals))
    return worst


def _edge_param(t: Theory, w: np.ndarray) -> float:
    verts = t.pure_states[:, :2]
    n = verts.shape[0]
    for m in range(n):
        p0, p1 = verts[m], verts[(m + 1) % n]
        d = p1 - p0
        s = float(np.dot(w[:2] - p0, d) / np.dot(d, d))
        if -1e-9 <= s <= 1.0 + 1e-9:
            if np.linalg.norm(p0 + s * d - w[:2]) <= 1e-9:
                return min(max(s, 0.0), 1.0)
    raise ValueError("state is not on the polygon boundary")


def _disc_discrepancy(t: Theory, granularity: int) -> tuple:
    wm = StateVec(t, t.maximally_mixed())
    decs = enumerate_decompositions(t, wm, granularity)
    vals = [entropy_of_decomposition(d) for d in decs]
    return max(vals) - min(vals), vals[0]


def consistency_check(t: Theory, granularity: int = 720) -> ConsistencyReport:
    """Is the mixing-entropy assignment well defined in this theory?

    n = 3 and the disc come out consistent; every polygon with
    4 <= n < infinity yields an explicit witness state with two
    decompositions of different entropy.
    """
    if t.kind == "Disc":
        disc, s_center = _disc_discrepancy(t, granularity)
        verdict = "consistent" if disc < 1e-9 else "inconsistent"
        return ConsistencyReport(
            kind="Disc",
            n=None,
            entries=[("center via diameters", s_center)],
            discrepancy=disc,
            verdict=verdict,
        )
    if t.kind != "Polygon" or t.n < 3:
        raise ValueError("consistency check needs a polygon theory or the disc")
    n = t.n
    if n == 3:
        disc = _classical_discrepancy(t, granularity)
        verdict = "consistent" if disc < 1e-9 else "inconsistent"
        return ConsistencyReport(
            kind="Polygon", n=3, entries=[], discrepancy=disc, verdict=verdict
        )
    if n == 4:
        entries, disc = _square_witness()
        return ConsistencyReport(
            kind="Polygon",
            n=4,
            entries=entries,
            discrepancy=disc,
            verdict="inconsistent",
            witness="center state of the square",
        )
    if n % 2 == 0:
        entries, disc = _even_witness(t)
        witness = "intersection of the vertex diameter and the offset chord"
    else:
        entries, disc = _odd_witness(t)
        witness = "midpoint of the edge opposite a vertex"
    return ConsistencyReport(
        kind="Polygon",
        n=n,
        entries=entries,
        discrepancy=disc,
        verdict="inconsistent" if disc > 1e-9 else "consistent",
        witness=witness,
    )
