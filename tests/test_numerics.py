import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import errors, given, reject, settings
from hypothesis import strategies as st

from gpt_lab.numerics import (
    LinearProgram, LpNumericalError, bisect, shannon_entropy, solve_lp,
)


def _bounded(n, lb, a_ub=None, b_ub=None, **kwargs):
    """LinearProgram over n variables with x >= lb written as the rows
    -x <= -lb; entries of lb at -inf leave their variable free."""
    lb = np.broadcast_to(np.asarray(lb, float), (n,))
    bounded = np.isfinite(lb)
    rows, rhs = -np.eye(n)[bounded], -lb[bounded]
    if a_ub is not None:
        rows, rhs = np.vstack([a_ub, rows]), np.concatenate([b_ub, rhs])
    return LinearProgram(n, a_ub=rows, b_ub=rhs, **kwargs)


def test_lp_optimal_value():
    # min -x - 2y  s.t. x + y <= 4, x <= 3, x,y >= 0
    p = _bounded(
        2,
        0.0,
        objective=np.array([-1.0, -2.0]),
        a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([4.0, 3.0]),
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert r.value == pytest.approx(-8.0, abs=1e-9)
    assert r.x == pytest.approx([0.0, 4.0], abs=1e-9)


def test_lp_equality_and_free_vars():
    # x + y = 1 with free variables, minimize x
    p = LinearProgram(
        2,
        objective=np.array([1.0, 0.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
        a_ub=np.array([[-1.0, 0.0]]),
        b_ub=np.array([5.0]),
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert r.value == pytest.approx(-5.0, abs=1e-9)


def test_lp_infeasible():
    p = _bounded(
        1,
        0.0,
        a_eq=np.array([[1.0]]),
        b_eq=np.array([2.0]),
        a_ub=np.array([[1.0]]),
        b_ub=np.array([1.0]),
    )
    assert solve_lp(p).status == "infeasible"


def test_lp_unbounded():
    p = _bounded(1, 0.0, objective=np.array([-1.0]))
    assert solve_lp(p).status == "unbounded"


def test_lp_unbounded_needs_a_checked_ray():
    # every positive entry of the entering column is below PIVOT_TOL, so the
    # ratio test finds no leaving row, yet x <= 1e8 bounds the LP: the ray
    # d = 1 has A_ub d = 1e-8 > TOL and is rejected
    p = LinearProgram(1, objective=np.array([-1.0]), a_ub=np.array([[1e-8]]),
                      b_ub=np.array([1.0]))
    with pytest.raises(LpNumericalError, match="ray"):
        solve_lp(p)
    # a genuine ray along x1 with x0 pinned by an equality row
    p = LinearProgram(2, objective=np.array([0.0, -1.0]), a_eq=np.array([[1.0, 0.0]]),
                      b_eq=np.array([1.0]), a_ub=np.array([[1.0, -1.0]]),
                      b_ub=np.array([0.0]))
    assert solve_lp(p).status == "unbounded"


def test_inconsistent_equality_rows_are_infeasible_without_a_pivot(monkeypatch):
    from gpt_lab import numerics
    from gpt_lab.compatibility import _joint_equalities, _joint_lp
    from gpt_lab.gpt_core import make_polygon
    from gpt_lab.observables import ideal_observables

    tableaus = []
    simplex = numerics._simplex

    def counted(tab, basis, ncols):
        tableaus.append(tab.shape)
        return simplex(tab, basis, ncols)

    monkeypatch.setattr(numerics, "_simplex", counted)
    # x + y = 1 and 2x + 2y = 3: the lstsq residual is its own Farkas vector
    p = LinearProgram(2, a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]), b_eq=np.array([1.0, 3.0]),
                      a_ub=-np.eye(2), b_ub=np.zeros(2))
    assert solve_lp(p).status == "infeasible"
    t = make_polygon(5)
    f, g = [o for o in ideal_observables(t) if len(o) == 2][:2]
    a_eq, b_eq = _joint_equalities(t, f, g)
    b_eq = b_eq + 1e-3 * (np.arange(len(b_eq)) == 0)  # f's marginals no longer sum to u
    assert _joint_lp(t, 4, a_eq, b_eq) == (False, None)
    assert tableaus == []


def test_rows_dependent_up_to_round_off_keep_their_null_direction():
    # both rows were made orthogonal to d in floating point: the smaller
    # singular value is 3.7 eps of the larger, above numpy's matrix_rank
    # default for a 2 x 2 matrix (2 eps); counted as rank 2 it would pin x
    # and hide the ray d
    a_eq = np.array([[-0.08693825277546363, 0.0947693209991578],
                     [0.04710064849004936, -0.05134329634563095]])
    d = np.array([1.0, 0.9173670535872673])
    p = _bounded(2, 0.0, objective=-d, a_eq=a_eq, b_eq=a_eq @ np.array([0.5, 0.5]))
    assert solve_lp(p).status == "unbounded"


def test_lp_logs_posed_and_tableau_shape(caplog):
    caplog.set_level(logging.DEBUG, logger="gpt_lab")
    p = LinearProgram(3, objective=np.array([1.0, 0.0, 0.0]), a_eq=np.array([[1.0, 1.0, 1.0]]),
                      b_eq=np.array([1.0]), a_ub=-np.eye(3), b_ub=np.zeros(3))
    assert solve_lp(p).status == "optimal"
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert lines == ["LP posed 1+3 rows x 3 vars, tableau 3 rows x 2 z columns"]


def test_lp_feasibility_only():
    p = _bounded(
        2,
        0.0,
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    r = solve_lp(p)
    assert r.status == "feasible"
    assert r.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_lp_shifted_lower_bounds():
    p = _bounded(
        1,
        np.array([2.5]),
        objective=np.array([1.0]),
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert r.x[0] == pytest.approx(2.5, abs=1e-12)


def test_lp_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(2, a_eq=np.ones((1, 3)), b_eq=np.ones(1)).validate()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_lp_random_solutions_are_feasible(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 5), rng.integers(2, 6)
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.0, size=n)
    b = a @ x0  # guarantees feasibility
    p = _bounded(
        int(n),
        0.0,
        # positive costs keep the problem bounded below on x >= 0
        objective=rng.uniform(0.1, 1.0, size=n),
        a_ub=a,
        b_ub=b,
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert np.all(a @ r.x <= b + 1e-8)
    assert np.all(r.x >= -1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_lp_row_scaling_keeps_verdict(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    base = _bounded(3, 0.0, a_eq=a, b_eq=b)
    scaled = _bounded(3, 0.0, a_eq=scale * a, b_eq=scale * b)
    assert solve_lp(base).status == solve_lp(scaled).status


def test_bisect_locates_root():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect(lambda x: 1.0, 0.0, 1.0)


def test_entropy_basics():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0))
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4.0))


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([0.7, 0.7])
    with pytest.raises(ValueError):
        shannon_entropy([-0.1, 1.1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6), st.randoms())
def test_entropy_permutation_invariant(weights, rnd):
    total = sum(weights)
    if total < 1e-9:
        weights[0] += 1.0
        total = sum(weights)
    p = [w / total for w in weights]
    q = list(p)
    rnd.shuffle(q)
    assert shannon_entropy(p) == pytest.approx(shannon_entropy(q), abs=1e-12)


# -- differential tests against scipy's HiGHS (test-only dependency) ---------

_STATUSES = ("optimal", "feasible", "infeasible", "unbounded")


def _highs_status(p):
    """(status, value) of ``p`` solved by scipy's HiGHS; rejects the
    hypothesis example when HiGHS gives no verdict (iteration limit or
    numerical difficulties)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(
        np.zeros(p.n_vars) if p.objective is None else p.objective,
        A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq, b_eq=p.b_eq,
        bounds=(None, None),
        method="highs",
        options={"presolve": False},  # presolve misreports some unbounded LPs
    )
    if res.status in (1, 4):
        reject()
    status = {0: "optimal" if p.objective is not None else "feasible",
              2: "infeasible", 3: "unbounded"}[res.status]
    return status, res.fun


@st.composite
def _small_lps(draw):
    """A random LP with 2-5 variables (some free, some bounded below by
    ``_bounded`` rows) and 1-5 further inequalities, built to have status
    ``kind``.  Its equality rows are 0-2 independent ones, 1-2 rows plus a
    duplicate or a linear combination of them (with its rhs shifted off
    the system for an infeasible LP), or n to n+1 rows, which pin x unless
    the unbounded direction is kept."""
    kind = draw(st.sampled_from(_STATUSES))
    eq = draw(st.sampled_from(("independent", "dependent", "overdetermined")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m_ub = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    m_eq = {"independent": int(rng.integers(0, 3)), "dependent": int(rng.integers(1, 3)),
            "overdetermined": n + int(rng.integers(0, 2))}[eq]
    free = rng.random(n) < 0.3
    lb = np.where(free, -np.inf, rng.uniform(-1.0, 1.0, n))
    x0 = np.where(free, rng.normal(size=n), lb + rng.uniform(0.0, 1.0, n))
    a_eq = rng.normal(size=(m_eq, n))
    if eq == "dependent":
        w = np.eye(m_eq)[0] if rng.random() < 0.5 else rng.normal(size=m_eq)
        a_eq = np.vstack([a_eq, w @ a_eq])
    a_ub = rng.normal(size=(m_ub, n))
    c = rng.normal(size=n)
    if kind == "optimal":  # a box around x0 keeps the optimum finite
        a_ub = np.vstack([a_ub, np.eye(n), -np.eye(n)])
    elif kind == "unbounded":  # a recession direction d with c.d < 0
        d = np.where(free, rng.normal(size=n), rng.uniform(0.1, 1.0, n))
        a_eq -= np.outer(a_eq @ d, d) / (d @ d)
        a_ub *= np.where(a_ub @ d > 0, -1.0, 1.0)[:, None]
        c -= (c @ d + 1.0) * d / (d @ d)
    b_eq = a_eq @ x0
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, len(a_ub))
    if kind == "infeasible" and eq == "dependent":  # inconsistent equality rows
        b_eq[-1] += 1.0
    elif kind == "infeasible":  # r.x <= beta and r.x >= beta + 1
        r = rng.normal(size=n)
        a_ub = np.vstack([a_ub, r, -r])
        b_ub = np.concatenate([b_ub, [r @ x0, -(r @ x0) - 1.0]])
    return kind, _bounded(
        n,
        lb,
        objective=None if kind == "feasible" else c,
        a_eq=a_eq if len(a_eq) else None,
        b_eq=b_eq if len(a_eq) else None,
        a_ub=a_ub,
        b_ub=b_ub,
    )


@settings(max_examples=150, deadline=None)
@given(_small_lps())
def test_lp_matches_highs_on_small_lps(case):
    kind, p = case
    want, value = _highs_status(p)
    assert want == kind  # the generator covers every status
    r = solve_lp(p)
    assert r.status == want
    if want == "optimal":
        assert r.value == pytest.approx(value, abs=1e-7 * (1.0 + abs(value)))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 1.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.3, 1.0), st.floats(0.0, 2 * math.pi))
def test_lp_matches_highs_on_disc_cut_lps(ta, pa, tb, pb):
    from gpt_lab.compatibility import _cone_rows, _joint_equalities, disc_axis_observable
    from gpt_lab.gpt_core import make_disc

    t = make_disc()
    f, g = disc_axis_observable(t, ta, pa), disc_axis_observable(t, tb, pb)
    a_eq, b_eq = _joint_equalities(t, f, g)
    a_ub = _cone_rows(t, 4)
    p = LinearProgram(12, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=np.zeros(len(a_ub)))
    assert solve_lp(p).status == _highs_status(p)[0]


def test_highs_oracle_rejects_examples_it_cannot_decide(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(optimize, "linprog",
                        lambda *args, **kwargs: SimpleNamespace(status=4, fun=None))
    p = _bounded(2, 0.0, a_ub=np.ones((1, 2)), b_ub=np.ones(1))

    @settings(max_examples=5, database=None)
    @given(st.just(p))
    def oracle(q):
        _highs_status(q)

    with pytest.raises(errors.Unsatisfiable):
        oracle()
