"""Small self-contained numerical kernel: LP solver, bisection, entropy.

The LP solver is an active-set simplex over free variables.  Every problem
in this package is small (a few hundred rows, at most a dozen or so free
columns), so determinism and simplicity win over sparse machinery.

Every LP is solved on the affine slice of its equality rows: one SVD of
A_eq gives a least-squares solution x0 and a basis N of the null space
(singular values up to ``TOL`` times the largest count as zero), and the
simplex runs in z, x = x0 + N z, on A z <= b with A = A_ub N and
b = b_ub - A_ub x0.  When the lstsq residual r = b_eq - A_eq x0 exceeds
TOL (1 + |b_eq|) the LP is "infeasible" with no iteration: r.A_eq = 0 and
r.b_eq = |r|^2 > 0, so -r is a Farkas vector.

The basis B holds as many rows as z has columns, and its point is where they
hold with equality.  Each iteration refactors A_B from the original rows,
takes z = A_B^-1 b_B and y_B = -A_B^-T c, releases a row whose multiplier is
negative and follows the edge it opens until a row blocks.  The basis
starts from coordinate rows z_j <= 0 standing in for the free variables; one
leaves at a multiplier of either sign and never returns.  So a polyhedron
with a line keeps the coordinate rows across it, which splits z into the
span of the basis rows and the lineality space: at multiplier zero they do
not move the verdict, and an objective with a component along the line
releases one with no row to block it, so the LP is unbounded.

Phase 1 minimizes t over A z - t <= b, t >= 0 from z = 0, t = -min b; it is
skipped when b >= 0, so an LP with no objective then returns z = 0 with no
iteration.  An optimum t* > TOL makes the LP "infeasible", and its
multipliers y >= 0 (sum 1, y.A = 0, y.b = -t*) are the Farkas vector.  A step
onto t = 0 ends phase 1, and phase 2 minimizes c.z from the basis less the
row that step released (at an optimum t* <= TOL, less the row of largest
multiplier).  The pivot rules:

- released row: Bland's rule, coordinate rows first, then the smallest row
  index whose multiplier is below -``TOL`` (1e-9);
- ratio test: only rows whose entry along the edge exceeds ``PIVOT_TOL``
  (1e-7) can block, so no pivot lands on a round-off-sized entry; t >= 0,
  whose entry is the rate at which t falls (above TOL), always can;
- blocking row: among the rows tied at the minimum ratio (1e-12 relative
  window), those whose entry is below ``TIE_PIVOT_FRAC`` (1e-3) times the
  largest tied entry are dropped, and the smallest index wins.

Every verdict is checked against the original rows.  "infeasible" returns
y = (mu, y_ub) in ``LpResult.y``, mu = -(y_ub.A_ub) A_eq^+, and needs
|y.A| <= TOL and y.b < -TOL for A and b stacking all rows; "feasible" and
"optimal" need x to meet every row within TOL (1 + |rhs|); "unbounded" needs
the edge d, mapped to x, to have |A_eq d| <= TOL, A_ub d <= TOL and
c.d < -TOL.  A verdict that fails its check raises ``LpNumericalError``.
Each solve logs one debug line: the LP as posed, its z columns, the pivots
of each phase and the refactorizations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
PIVOT_TOL = 1e-7
TIE_PIVOT_FRAC = 1e-3
ENTROPY_CLIP = 1e-7

log = logging.getLogger("gpt_lab")


class LpNumericalError(RuntimeError):
    """The simplex reached a verdict that its certificate check rejects."""


@dataclass
class LinearProgram:
    """min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  every x_i free.

    objective may be None for a pure feasibility problem.
    """

    n_vars: int
    objective: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

@dataclass
class LpResult:
    """``y`` is the Farkas vector of an "infeasible" verdict: the multipliers
    of the equality rows, then of the inequality rows."""

    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    y: np.ndarray | None = None


def _active_set(g, h, c, basis, nfree, phase, counts):
    """Minimize c.v over g v <= h by the active-set simplex of the module
    docstring, from the point of ``basis`` (sorted row indices; the first
    ``nfree`` rows of g are coordinate rows).  In phase 1 (``phase`` 0) the
    last row is t >= 0, and a step onto t = 0 ends the run with that step's
    basis, less the row it released.  Adds the pivots to ``counts[phase]``
    and the refactorizations to ``counts[2]``.  Returns (status, basis,
    point, -y_B or the edge of an unbounded verdict)."""
    rows, rhs = g[nfree:], h[nfree:]
    floor = PIVOT_TOL
    if phase == 0:
        floor = np.full(len(rows), PIVOT_TOL)
        floor[-1] = 0.0
    free = int((basis < nfree).sum())
    for _ in range(50 * len(g) + 1000):
        counts[2] += 1
        inv = np.linalg.inv(g[basis])
        v = inv @ h[basis]
        u = c @ inv
        out = u > TOL
        if free:
            out[:free] |= u[:free] < -TOL
        k = out.argmax()
        if not out[k]:
            return "optimal", basis, v, u
        edge = -inv[:, k] if u[k] > 0 else inv[:, k]
        along = rows @ edge
        cand = (along > floor).nonzero()[0]
        if not cand.size:
            return "unbounded", basis, v, edge
        ratios = np.maximum((rhs - rows @ v)[cand], 0.0) / along[cand]
        best = ratios.min()
        tied = cand[ratios <= best + 1e-12 * (1.0 + abs(best))]
        counts[phase] += 1
        if phase == 0 and tied[-1] == len(rows) - 1:
            return "optimal", np.delete(basis, k), v + best * edge, None
        if len(tied) > 1:
            piv = along[tied]
            tied = tied[piv >= TIE_PIVOT_FRAC * piv.max()]
        free -= k < free
        basis[k] = tied[0] + nfree
        basis.sort()
    raise RuntimeError("simplex iteration limit exceeded")


def solve_lp(p: LinearProgram) -> LpResult:
    """Active-set simplex on the slice of the equality rows (see the module
    docstring).  Raises LpNumericalError when a verdict fails its check at
    tolerance ``TOL``."""
    n = p.n_vars

    def block(a, b, name):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"{name} must be 2-d with {n} columns")
        b = None if b is None else np.asarray(b, dtype=float).reshape(-1)
        if b is None or len(b) != a.shape[0]:
            raise ValueError(f"{name} rhs length mismatch")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise ValueError(f"{name} contains non-finite entries")
        return a, b

    (a_eq, b_eq), (a_ub, b_ub) = block(p.a_eq, p.b_eq, "a_eq"), block(p.a_ub, p.b_ub, "a_ub")
    c = None
    if p.objective is not None:
        c = np.asarray(p.objective, dtype=float)
        if c.shape != (n,):
            raise ValueError("objective dimension mismatch")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite entries")
    # x = x0 + N z: x0 the least-squares solution of the equality rows and N
    # a basis of their null space, from one SVD
    left, sv, vt = np.linalg.svd(a_eq)
    rank = int((sv > TOL * sv.max(initial=0.0)).sum())
    x0 = vt[:rank].T @ (left[:, :rank].T @ b_eq / sv[:rank])
    null = vt[rank:].T
    nz, m = null.shape[1], len(a_ub)
    counts = [0, 0, 0]  # phase-1 and phase-2 pivots, refactorizations

    def verdict(status, **kwargs):
        log.debug("LP posed %d+%d rows x %d vars, %d z columns, %d+%d iterations, "
                  "%d refactors", len(a_eq), m, n, nz, *counts)
        return LpResult(status, **kwargs)

    resid = b_eq - a_eq @ x0
    if np.any(np.abs(resid) > TOL * (1.0 + np.abs(b_eq))):
        return verdict("infeasible", y=np.concatenate([-resid, np.zeros(m)]))
    # rows of (z, t): the coordinate rows z_j <= 0, A z - t <= b and -t <= 0;
    # phase 2 drops the t column and the last row
    g = np.zeros((nz + m + 1, nz + 1))
    g[:nz, :nz] = np.eye(nz)
    g[nz:-1, :nz] = a_ub @ null
    g[nz:, nz] = -1.0
    h = np.zeros(nz + m + 1)
    h[nz:-1] = b_ub - a_ub @ x0
    basis, z, row = np.arange(nz), np.zeros(nz), h.argmin()
    if h[row] < 0.0:
        _, basis, v, u = _active_set(g, h, np.eye(nz + 1)[nz], np.append(basis, row),
                                     nz, 0, counts)
        if len(basis) > nz:  # phase 1 ended at an optimum off t = 0
            if v[nz] > TOL:
                # the phase-1 multipliers, with mu on the equality rows
                y = np.zeros(m)
                y[basis[basis >= nz] - nz] = np.maximum(-u[basis >= nz], 0.0)
                w = y @ a_ub
                mu = -(w @ vt[:rank].T / sv[:rank]) @ left[:, :rank].T
                if (np.abs(w + mu @ a_eq).max(initial=0.0) > TOL
                        or mu @ b_eq + y @ b_ub >= -TOL):
                    raise LpNumericalError("phase-1 infeasibility certificate fails")
                return verdict("infeasible", y=np.concatenate([mu, y]))
            basis = np.delete(basis, np.abs(u).argmax())
        z = v[:nz]
    if c is not None and nz:
        status, basis, z, edge = _active_set(g[:-1, :nz], h[:-1], c @ null, basis, nz, 1,
                                             counts)
        if status == "unbounded":
            # the edge, mapped back to x, must be a ray of the original rows
            d = null @ edge
            if (np.abs(a_eq @ d).max(initial=0.0) > TOL
                    or (a_ub @ d).max(initial=0.0) > TOL or c @ d >= -TOL):
                raise LpNumericalError("phase-2 unbounded ray fails its check")
            return verdict("unbounded")
    x = x0 + null @ z + 0.0  # no entry comes back as -0.0
    # primal check against the original rows
    resid = np.concatenate([np.abs(a_eq @ x - b_eq), a_ub @ x - b_ub])
    worst = np.max(resid / (1.0 + np.abs(np.concatenate([b_eq, b_ub]))), initial=0.0)
    if worst > TOL:
        raise LpNumericalError(f"LP point misses its constraints by {worst:.2e}")
    if c is not None:
        return verdict("optimal", x=x, value=float(c @ x))
    return verdict("feasible", x=x)


def bisect(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Locate a sign change of ``f`` on [lo, hi] to within ``tol``."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("bisect requires opposite signs at the endpoints")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shannon_entropy(p) -> float:
    """-sum p log p in nats, with 0 log 0 = 0.

    Small negative entries (>= -ENTROPY_CLIP) are clipped to zero and the
    vector is renormalized; anything worse is rejected.
    """
    q = np.asarray(p, dtype=float)
    if np.any(q < -ENTROPY_CLIP):
        raise ValueError("negative probability beyond tolerance")
    q = np.clip(q, 0.0, None)
    s = q.sum()
    if not math.isfinite(s) or abs(s - 1.0) > 1e-6:
        raise ValueError("probabilities do not sum to 1")
    q = q / s
    nz = q[q > 0]
    return float(-(nz * np.log(nz)).sum())
