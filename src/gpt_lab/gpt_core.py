"""State spaces, effects, and cones for the finite-dimensional theories.

Three families: classical simplices, regular polygon theories (standard or
rescaled even-n representation), and the disc.  States and effects are
coordinate vectors of one space, and an effect e gives the outcome
probability e . w on a state w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
DISC_SAMPLES = 64  # boundary angles of the disc's cone_states()


def polygon_radius(n: int) -> float:
    """r_n = sqrt(1 / cos(pi/n))."""
    return math.sqrt(1.0 / math.cos(math.pi / n))


@dataclass(frozen=True)
class Theory:
    """One of the three built-in families, identified by (kind, n,
    representation); ``make_simplex``, ``make_polygon`` and ``make_disc``
    build it.  The remaining fields follow from those three, so equality
    and hashing ignore them."""

    kind: str  # "Simplex" | "Polygon" | "Disc"
    dim: int = field(compare=False)
    unit_effect: np.ndarray = field(compare=False)
    # rows; None for the parametric disc
    pure_states: np.ndarray | None = field(default=None, compare=False)
    n: int | None = None  # outcome count / polygon sides
    representation: str = "standard"
    # read-only rows of extreme_effects(); None for the disc
    _extreme: np.ndarray | None = field(
        default=None, init=False, compare=False, repr=False
    )
    # read-only rows of cone_states(False) and cone_states(True)
    _cone: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "unit_effect", np.asarray(self.unit_effect, float))
        if self.pure_states is not None:
            object.__setattr__(self, "pure_states", np.asarray(self.pure_states, float))
            vals = self.pure_states @ self.unit_effect
            if np.max(np.abs(vals - 1.0)) > 1e-12:
                raise ValueError("unit effect is not 1 on every pure state")
        if self.kind != "Disc":
            ext = self._extreme_rows()
            ext.setflags(write=False)
            object.__setattr__(self, "_extreme", ext)
            cone = inner = self.pure_states.copy()
        else:
            ths = [2 * math.pi * j / DISC_SAMPLES for j in range(DISC_SAMPLES)]
            cone = np.array([self.disc_state(th) for th in ths])
            inner = cone * [1.0, 1.0, math.cos(math.pi / DISC_SAMPLES)]
        cone.setflags(write=False)
        inner.setflags(write=False)
        object.__setattr__(self, "_cone", (cone, inner))

    # -- basic geometry -------------------------------------------------

    def pair(self, e: np.ndarray, w: np.ndarray) -> float:
        """The outcome probability e . w."""
        return float(np.asarray(e, float) @ np.asarray(w, float))

    def support(self, v) -> tuple[float, np.ndarray]:
        """(max of v . w over states w, a state attaining it): the best pure
        state, or on the disc v_z + |v_xy| at (v_xy / |v_xy|, 1)."""
        v = np.asarray(v, float)
        if self.kind != "Disc":
            vals = self._cone[0] @ v
            i = vals.argmax()
            return float(vals[i]), self._cone[0][i]
        nxy = math.hypot(v[0], v[1])
        if nxy == 0.0:
            return float(v[2]), self.maximally_mixed()
        return float(v[2] + nxy), np.array([v[0] / nxy, v[1] / nxy, 1.0])

    def cone_states(self, inner: bool = False) -> np.ndarray:
        """Read-only rows w whose constraints e . w >= 0 bound the effect
        cone: a finite theory's pure states, exact; the disc's
        ``DISC_SAMPLES`` boundary states, an outer bound, or with ``inner``
        the same with z scaled by cos(pi/DISC_SAMPLES), an inner bound."""
        return self._cone[1] if inner else self._cone[0]

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

    def extreme_effects(self) -> np.ndarray:
        """Indecomposable pure effects as read-only rows (finite theories
        only)."""
        if self._extreme is None:
            raise ValueError("no finite extreme-effect list for this theory")
        return self._extreme

    def _extreme_rows(self) -> np.ndarray:
        if self.kind == "Simplex":
            return np.eye(self.dim)
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

    Pure states are the standard basis vectors and the unit effect is the
    all-ones functional.
    """
    if d < 2:
        raise ValueError("simplex needs at least two outcomes")
    return Theory(
        kind="Simplex",
        dim=d,
        unit_effect=np.ones(d),
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
        pure_states=states,
        n=n,
        representation=representation,
    )


def make_disc() -> Theory:
    """Disc theory: boundary omega(theta) = (cos t, sin t, 1), extreme
    effects e(theta) = omega(theta)/2.  Stored parametrically;
    ``cone_states`` samples it at ``DISC_SAMPLES`` boundary angles."""
    return Theory(
        kind="Disc",
        dim=3,
        unit_effect=np.array([0.0, 0.0, 1.0]),
        pure_states=None,
        n=None,
    )


# -- membership predicates ----------------------------------------------


def is_state(t: Theory, v, tol: float = TOL) -> bool:
    """Whether v is a state, with ``tol`` a tolerance on outcome
    probabilities: u(v) within tol of 1 and every extreme effect >= -tol on
    v (for the disc, |(v0, v1)|^2 <= 1 + 2 tol)."""
    v = np.asarray(v, float)
    if v.shape != (t.dim,):
        raise ValueError("dimension mismatch")
    if abs(t.unit_effect @ v - 1.0) > tol:
        return False
    if t.kind == "Disc":
        return v[0] ** 2 + v[1] ** 2 <= 1.0 + 2 * tol
    return bool(np.all(t.extreme_effects() @ v >= -tol))


def is_effect(t: Theory, v, tol: float = TOL) -> bool:
    """Whether 0 <= v . w <= 1 on every state w, within ``tol``."""
    v = np.asarray(v, float)
    if v.shape != (t.dim,):
        raise ValueError("dimension mismatch")
    return bool(-t.support(-v)[0] >= -tol and t.support(v)[0] <= 1.0 + tol)


def require_self_dual(t: Theory) -> None:
    """Raise unless t is in a self-dual representation (simplex, odd
    polygon, disc, rescaled even polygon)."""
    if t.kind == "Polygon" and t.n % 2 == 0 and t.representation != "rescaled":
        raise ValueError("even polygon must be in the self-dual (rescaled) representation")


def eigenstate_of(t: Theory, e) -> np.ndarray:
    """Normalize an effect to its eigenstate e / <u, e>; t must be in a
    self-dual representation, where the normalized effect is a state."""
    require_self_dual(t)
    e = np.asarray(e, float)
    ue = t.pair(t.unit_effect, e)
    if ue <= TOL:
        raise ValueError("effect has no weight on the unit")
    w = e / ue
    if not is_state(t, w, tol=1e-7):
        raise ValueError("normalized effect is not a state in this representation")
    return w
