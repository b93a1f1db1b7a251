"""State spaces, effects, and cones for the finite-dimensional theories.

Every theory lives in R^{N+1} with states of the form (x, 1) and effects
paired through an inner product matrix G (identity for all built-in
constructors).  Built-ins: classical simplices, regular polygon theories
(standard or rescaled even-n representation), and the disc.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import LinearProgram, solve_lp

TOL = 1e-9
DISC_SAMPLES = 64  # boundary angles of the sampled disc searches


def polygon_radius(n: int) -> float:
    """r_n = sqrt(1 / cos(pi/n))."""
    return math.sqrt(1.0 / math.cos(math.pi / n))


@dataclass(frozen=True, eq=False)
class Theory:
    kind: str  # "Simplex" | "Polygon" | "Disc" | "Custom"
    dim: int
    unit_effect: np.ndarray
    g_matrix: np.ndarray
    pure_states: np.ndarray | None = None  # rows; None for the parametric disc
    n: int | None = None  # outcome count / polygon sides
    representation: str = "standard"

    def __post_init__(self):
        object.__setattr__(self, "unit_effect", np.asarray(self.unit_effect, float))
        object.__setattr__(self, "g_matrix", np.asarray(self.g_matrix, float))
        # pair() computes e.G.w and the checks below w.G.e: G must be symmetric
        if np.max(np.abs(self.g_matrix - self.g_matrix.T)) > 1e-12:
            raise ValueError("g_matrix is not symmetric, so not an inner product")
        if self.pure_states is not None:
            object.__setattr__(self, "pure_states", np.asarray(self.pure_states, float))
            vals = self.pure_states @ self.g_matrix @ self.unit_effect
            if np.max(np.abs(vals - 1.0)) > 1e-12:
                raise ValueError("unit effect is not 1 on every pure state")

    # value semantics keyed on to_json(); the identity check keeps the
    # common same-object comparison free of serialization
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Theory):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.to_json())

    # -- basic geometry -------------------------------------------------

    def pair(self, e: np.ndarray, w: np.ndarray) -> float:
        """<e, w> under this theory's inner product."""
        return float(np.asarray(e, float) @ self.g_matrix @ np.asarray(w, float))

    def maximally_mixed(self) -> np.ndarray:
        if self.kind == "Disc":
            v = np.zeros(self.dim)
            v[-1] = 1.0
            return v
        return self.pure_states.mean(axis=0)

    def disc_state(self, theta: float) -> np.ndarray:
        if self.kind != "Disc":
            raise ValueError("disc_state only applies to the disc theory")
        return np.array([math.cos(theta), math.sin(theta), 1.0])

    def disc_extreme_effect(self, theta: float) -> np.ndarray:
        if self.kind != "Disc":
            raise ValueError("disc_extreme_effect only applies to the disc theory")
        return 0.5 * np.array([math.cos(theta), math.sin(theta), 1.0])

    def extreme_effects(self) -> np.ndarray:
        """Indecomposable pure effects as rows (finite theories only)."""
        if self.kind == "Simplex":
            return np.eye(self.dim)
        if self.kind == "Polygon":
            n = self.n
            r = polygon_radius(n)
            out = np.zeros((n, 3))
            for i in range(n):
                if n % 2 == 0:
                    th = (2 * i - 1) * math.pi / n
                    e = 0.5 * np.array([r * math.cos(th), r * math.sin(th), 1.0])
                    if self.representation == "rescaled":
                        e = np.array([e[0] / r, e[1] / r, e[2]])
                else:
                    th = 2 * i * math.pi / n
                    e = (1.0 / (1.0 + r * r)) * np.array(
                        [r * math.cos(th), r * math.sin(th), 1.0]
                    )
                out[i] = e
            return out
        raise ValueError("no finite extreme-effect list for this theory")

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "n": self.n,
            "representation": self.representation,
            "dim": self.dim,
        }
        if self.kind == "Custom":
            payload["pure_states"] = self.pure_states.tolist()
            payload["unit_effect"] = self.unit_effect.tolist()
            payload["g_matrix"] = self.g_matrix.tolist()
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "Theory":
        d = json.loads(s)
        kind = d["kind"]
        if kind == "Simplex":
            return make_simplex(d["n"])
        if kind == "Polygon":
            return make_polygon(d["n"], d.get("representation", "standard"))
        if kind == "Disc":
            return make_disc()
        if kind == "Custom":
            states = np.asarray(d["pure_states"], float)
            u = np.asarray(d["unit_effect"], float)
            return Theory(
                kind="Custom",
                dim=states.shape[1],
                unit_effect=u,
                g_matrix=np.asarray(d["g_matrix"], float),
                pure_states=states,
            )
        raise ValueError(f"unknown theory kind {kind!r}")


@dataclass
class StateVec:
    theory: Theory
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, float)
        if not is_state(self.theory, self.coords):
            raise ValueError("not a valid state of this theory")


# -- constructors -------------------------------------------------------


def make_simplex(d: int) -> Theory:
    """Classical theory with d perfectly distinguishable pure states.

    Pure states are the standard basis vectors, the unit effect is the
    all-ones functional and G is the identity.
    """
    if d < 2:
        raise ValueError("simplex needs at least two outcomes")
    return Theory(
        kind="Simplex",
        dim=d,
        unit_effect=np.ones(d),
        g_matrix=np.eye(d),
        pure_states=np.eye(d),
        n=d,
    )


def make_polygon(n: int, representation: str = "standard") -> Theory:
    """Regular polygon theory with n sides.

    Pure states: omega_i = (r cos(2 pi i / n), r sin(2 pi i / n), 1) with
    r = sqrt(1/cos(pi/n)).  The rescaled representation (even n only)
    applies psi = diag(r, r, 1) to states and psi^{-1} to effects, making
    the effect cone sit inside the state cone.
    """
    if n < 3:
        raise ValueError("polygon needs at least three sides")
    if representation not in ("standard", "rescaled"):
        raise ValueError("representation must be 'standard' or 'rescaled'")
    if representation == "rescaled" and n % 2 == 1:
        raise ValueError("odd polygons are already self-dual; no rescaled form")
    r = polygon_radius(n)
    states = np.zeros((n, 3))
    for i in range(n):
        th = 2 * math.pi * i / n
        states[i] = [r * math.cos(th), r * math.sin(th), 1.0]
    if representation == "rescaled":
        states[:, 0] *= r
        states[:, 1] *= r
    return Theory(
        kind="Polygon",
        dim=3,
        unit_effect=np.array([0.0, 0.0, 1.0]),
        g_matrix=np.eye(3),
        pure_states=states,
        n=n,
        representation=representation,
    )


def make_disc() -> Theory:
    """Disc theory: boundary omega(theta) = (cos t, sin t, 1), extreme
    effects e(theta) = omega(theta)/2.  Stored parametrically; discretized
    searches sample ``DISC_SAMPLES`` boundary angles."""
    return Theory(
        kind="Disc",
        dim=3,
        unit_effect=np.array([0.0, 0.0, 1.0]),
        g_matrix=np.eye(3),
        pure_states=None,
        n=None,
    )


# -- membership predicates ----------------------------------------------


def is_state(t: Theory, v, tol: float = TOL) -> bool:
    v = np.asarray(v, float)
    if v.shape != (t.dim,):
        raise ValueError("dimension mismatch")
    if t.kind == "Disc":
        if abs(v[2] - 1.0) > tol:
            return False
        return v[0] ** 2 + v[1] ** 2 <= 1.0 + 2 * tol
    if t.kind == "Simplex":
        return bool(np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol)
    # convex-hull membership by LP
    pts = t.pure_states
    k = pts.shape[0]
    p = LinearProgram(
        n_vars=k,
        a_eq=np.vstack([pts.T, np.ones((1, k))]),
        b_eq=np.concatenate([v, [1.0]]),
        lower_bounds=np.zeros(k),
    )
    return solve_lp(p, tol).status == "feasible"


def is_effect(t: Theory, v, tol: float = TOL) -> bool:
    v = np.asarray(v, float)
    if v.shape != (t.dim,):
        raise ValueError("dimension mismatch")
    if t.kind == "Disc":
        nx = math.hypot(v[0], v[1])
        return v[2] - nx >= -tol and v[2] + nx <= 1.0 + tol
    vals = t.pure_states @ t.g_matrix @ v
    return bool(np.all(vals >= -tol) and np.all(vals <= 1.0 + tol))


def eigenstate_of(t: Theory, e) -> np.ndarray:
    """Normalize an effect to its eigenstate e / <u, e>.

    Only valid in a self-dual representation (simplex, odd polygon, disc,
    rescaled even polygon), where the normalized effect is a state.
    """
    e = np.asarray(e, float)
    if t.kind == "Polygon" and t.n % 2 == 0 and t.representation != "rescaled":
        raise ValueError("even polygon must be in the rescaled representation")
    ue = t.pair(t.unit_effect, e)
    if ue <= TOL:
        raise ValueError("effect has no weight on the unit")
    if t.kind == "Simplex":
        # normalized coordinates: the state proportional to e
        w = e / e.sum()
    else:
        w = e / ue
    if not is_state(t, w, tol=1e-7):
        raise ValueError("normalized effect is not a state in this representation")
    return w


# -- representation maps ------------------------------------------------


def rescale_matrix(n: int) -> np.ndarray:
    r = polygon_radius(n)
    return np.diag([r, r, 1.0])


def to_rescaled(t: Theory) -> Theory:
    if t.kind != "Polygon" or t.n % 2 == 1:
        raise ValueError("only even polygons have a rescaled form")
    if t.representation == "rescaled":
        return t
    return make_polygon(t.n, "rescaled")


def convert_state(v: np.ndarray, src: Theory, dst: Theory) -> np.ndarray:
    if src.kind != "Polygon" or dst.kind != "Polygon" or src.n != dst.n:
        raise ValueError("conversion only between representations of one polygon")
    psi = rescale_matrix(src.n)
    if src.representation == dst.representation:
        return np.array(v, float)
    if dst.representation == "rescaled":
        return psi @ np.asarray(v, float)
    return np.linalg.solve(psi, np.asarray(v, float))


def convert_effect(e: np.ndarray, src: Theory, dst: Theory) -> np.ndarray:
    if src.kind != "Polygon" or dst.kind != "Polygon" or src.n != dst.n:
        raise ValueError("conversion only between representations of one polygon")
    psi = rescale_matrix(src.n)
    if src.representation == dst.representation:
        return np.array(e, float)
    if dst.representation == "rescaled":
        return np.linalg.solve(psi, np.asarray(e, float))
    return psi @ np.asarray(e, float)
