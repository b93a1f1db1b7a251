"""Small self-contained numerical kernel: dense LP solver, bisection, entropy.

The LP solver is a dense two-phase simplex over free variables.  Every
problem in this package is tiny (at most a few hundred rows), so
determinism and simplicity win over sparse machinery.

Every LP is solved on the affine slice of its equality rows: one SVD of
A_eq gives a least-squares solution x0 and a basis N of the null space
(singular values up to ``TOL`` times the largest count as zero), and the
simplex runs on the inequality rows in the slice coordinates z of
x = x0 + N z, (A_ub N) z <= b_ub - A_ub x0.  When the lstsq residual
r = b_eq - A_eq x0 exceeds TOL (1 + |b_eq|) the LP is "infeasible" with no
pivot: r.A_eq = 0 and r.b_eq = |r|^2 > 0, so r is its own Farkas vector.
Phase 1 starts from the slack basis and needs artificial variables only
for the rows whose right-hand side is negative.  With no equality rows,
x0 = 0 and N = I.  The pivot rules:

- entering: Bland's rule, the first column with reduced cost below -``TOL``
  (1e-9);
- ratio test: only rows whose column entry exceeds ``PIVOT_TOL`` (1e-7) can
  leave, so no pivot ever lands on a round-off-sized entry;
- leaving: among the rows tied at the minimum ratio (within a 1e-12 relative
  window), those whose pivot is below ``TIE_PIVOT_FRAC`` (1e-3) times the
  largest tied pivot are dropped, and the smallest basis index wins among
  the rest.

Every verdict of the simplex is checked before it is returned.
"infeasible" needs the phase-1 dual y (a Farkas certificate for the slice)
to satisfy max(y.A) <= TOL and y.b > TOL on the sign-normalized rows;
"feasible" and "optimal" need x to meet every original equality and
inequality within TOL (1 + |rhs|); "unbounded" needs the ray d of the
entering column, mapped back to x, to have |A_eq d| <= TOL, A_ub d <= TOL
and c.d < -TOL.  A verdict that fails its check raises ``LpNumericalError``
instead of being returned.  Each solve logs one debug line with the shape
of the LP as posed and of its tableau.
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

    def validate(self) -> None:
        def chk(a, b, name):
            if a is None:
                return
            a = np.asarray(a, dtype=float)
            if a.ndim != 2 or a.shape[1] != self.n_vars:
                raise ValueError(f"{name} must be 2-d with {self.n_vars} columns")
            if b is None or len(np.atleast_1d(b)) != a.shape[0]:
                raise ValueError(f"{name} rhs length mismatch")
            if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
                raise ValueError(f"{name} contains non-finite entries")

        chk(self.a_eq, self.b_eq, "a_eq")
        chk(self.a_ub, self.b_ub, "a_ub")
        if self.objective is not None:
            c = np.asarray(self.objective, dtype=float)
            if c.shape != (self.n_vars,):
                raise ValueError("objective dimension mismatch")
            if not np.all(np.isfinite(c)):
                raise ValueError("objective contains non-finite entries")


@dataclass
class LpResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(tab: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Pivot on entry (r, j): a rank-1 update restricted to the nonzero
    columns of the pivot row."""
    prow = tab[r] / tab[r, j]
    nz = prow.nonzero()[0]
    colvals = tab[:, j].copy()
    colvals[r] = 0.0
    tab[:, nz] -= colvals[:, None] * prow[nz]
    tab[r] = prow
    tab[:, j] = 0.0
    tab[r, j] = 1.0
    basis[r] = j


def _simplex(tab: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Run simplex pivots on tableau ``tab`` (objective in the last row,
    rhs in the last column) with the pivot rules of the module docstring."""
    m = tab.shape[0] - 1
    red = tab[-1, :ncols]
    for _ in range(50 * (m + ncols) + 1000):
        below = red < -TOL
        if not below.any():
            return "optimal"
        enter = int(below.argmax())
        col = tab[:m, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tab[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        piv = col[tied]
        tied = tied[piv >= TIE_PIVOT_FRAC * piv.max()]
        _pivot(tab, basis, int(tied[basis[tied].argmin()]), enter)
    raise RuntimeError("simplex iteration limit exceeded")


def solve_lp(p: LinearProgram) -> LpResult:
    """Two-phase dense simplex on the slice of the equality rows (see the
    module docstring).  Every slice coordinate is free and is split into a
    plus and a minus column.  Raises LpNumericalError when a verdict fails
    its certificate check at tolerance ``TOL``."""
    p.validate()
    n = p.n_vars

    def block(a, b):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        return np.asarray(a, dtype=float), np.asarray(b, dtype=float).reshape(-1)

    (a_eq, b_eq), (a_ub, b_ub) = block(p.a_eq, p.b_eq), block(p.a_ub, p.b_ub)
    # x = x0 + N z: x0 the least-squares solution of the equality rows and N
    # a basis of their null space, from one SVD
    u, s, vt = np.linalg.svd(a_eq)
    rank = int((s > TOL * s.max(initial=0.0)).sum())
    x0 = vt[:rank].T @ (u[:, :rank].T @ b_eq / s[:rank])
    null = vt[rank:].T
    nz, m = null.shape[1], len(a_ub)
    log.debug("LP posed %d+%d rows x %d vars, tableau %d rows x %d z columns",
              len(a_eq), m, n, m, nz)
    if np.any(np.abs(a_eq @ x0 - b_eq) > TOL * (1.0 + np.abs(b_eq))):
        # the residual r has r.A_eq = 0 and r.b_eq = |r|^2 > 0: a Farkas vector
        return LpResult("infeasible")
    col_of = 2 * np.arange(nz)
    minus = col_of + 1
    ncols = 2 * nz
    total = ncols + m

    # sign-normalized rows [A N | -A N | slack identity] z' = b - A x0 >= 0
    a = a_ub @ null
    amat = np.zeros((m, total))
    amat[:, col_of] = a
    amat[:, minus] = -a
    amat[np.arange(m), np.arange(ncols, total)] = 1.0
    bvec = b_ub - a_ub @ x0
    neg = bvec < 0
    amat[neg] *= -1.0
    bvec[neg] *= -1.0

    # phase 1: a slack column starts in the basis of its row unless the
    # row's rhs was negative; only those rows get artificial variables
    art_rows = neg.nonzero()[0]
    n_art = art_rows.size
    basis0 = ncols + np.arange(m)
    basis0[art_rows] = total + np.arange(n_art)

    tab = np.zeros((m + 1, total + n_art + 1))
    tab[:m, :total] = amat
    tab[:m, -1] = bvec
    tab[art_rows, basis0[art_rows]] = 1.0
    tab[-1, total:-1] = 1.0
    tab[-1] -= tab[art_rows].sum(axis=0)
    basis = basis0.copy()
    if _simplex(tab, basis, total + n_art) != "optimal":
        raise LpNumericalError("phase 1 reported an unbounded sum of artificials")
    if -tab[-1, -1] > TOL:
        # Farkas certificate: y.A' <= 0 on every column while y.b' > 0
        y = neg - tab[-1, basis0]
        if (y @ amat).max(initial=0.0) > TOL or y @ bvec <= TOL:
            raise LpNumericalError("phase-1 infeasibility certificate fails")
        return LpResult("infeasible")

    # drive remaining artificials out of the basis, then drop their rows
    for i in (basis >= total).nonzero()[0]:
        j = int(np.argmax(np.abs(tab[i, :total])))
        if abs(tab[i, j]) > PIVOT_TOL:
            _pivot(tab, basis, i, j)
    keep = (basis < total).nonzero()[0]
    tab2 = np.zeros((keep.size + 1, total + 1))
    tab2[:-1, :total] = tab[keep, :total]
    tab2[:-1, -1] = tab[keep, -1]
    basis2 = basis[keep]

    if p.objective is not None:
        c = np.asarray(p.objective, dtype=float)
        cz = c @ null
        cfull = np.zeros(total)
        cfull[col_of] = cz
        cfull[minus] = -cz
        tab2[-1, :total] = cfull
        tab2[-1] -= cfull[basis2] @ tab2[:-1]
        if _simplex(tab2, basis2, total) == "unbounded":
            # the ray of the entering column must pass the original rows
            enter = int((tab2[-1, :total] < -TOL).argmax())
            dfull = np.zeros(total)
            dfull[enter] = 1.0
            dfull[basis2] = -tab2[:-1, enter]
            d = null @ (dfull[col_of] - dfull[minus])
            if (np.abs(a_eq @ d).max(initial=0.0) > TOL
                    or (a_ub @ d).max(initial=0.0) > TOL or c @ d >= -TOL):
                raise LpNumericalError("phase-2 unbounded ray fails its check")
            return LpResult("unbounded")

    xfull = np.zeros(total)
    xfull[basis2] = tab2[:-1, -1]
    x = x0 + null @ (xfull[col_of] - xfull[minus]) + 0.0  # no entry comes back as -0.0
    # primal check against the original rows
    resid = np.concatenate([np.abs(a_eq @ x - b_eq), a_ub @ x - b_ub])
    worst = np.max(resid / (1.0 + np.abs(np.concatenate([b_eq, b_ub]))), initial=0.0)
    if worst > TOL:
        raise LpNumericalError(f"LP point misses its constraints by {worst:.2e}")
    if p.objective is not None:
        return LpResult("optimal", x=x, value=float(c @ x))
    return LpResult("feasible", x=x)


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
