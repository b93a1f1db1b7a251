import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import errors, example, given, reject, settings
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
    # the row's entry along the edge opened by releasing z_0 <= 0 is below
    # PIVOT_TOL, so no row blocks it, yet x <= 1e8 bounds the LP: the ray
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

    runs = []
    active_set = numerics._active_set

    def counted(*args):
        runs.append(args)
        return active_set(*args)

    monkeypatch.setattr(numerics, "_active_set", counted)
    # x + y = 1 and 2x + 2y = 3: the lstsq residual is its own Farkas vector
    p = LinearProgram(2, a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]), b_eq=np.array([1.0, 3.0]),
                      a_ub=-np.eye(2), b_ub=np.zeros(2))
    r = solve_lp(p)
    assert r.status == "infeasible" and _is_farkas(p, r.y)
    t = make_polygon(5)
    f, g = [o for o in ideal_observables(t) if len(o) == 2][:2]
    a_eq, b_eq = _joint_equalities(t, f, g)
    b_eq = b_eq + 1e-3 * (np.arange(len(b_eq)) == 0)  # f's marginals no longer sum to u
    assert _joint_lp(t, 4, a_eq, b_eq) == (False, None)
    assert runs == []


def _is_farkas(p, y):
    """Whether y = (mu, y_ub) proves ``p`` infeasible, by matrix products
    with its original rows only: y_ub >= 0, |y.A| <= 1e-9 and y.b < -1e-9."""
    a = np.vstack([m for m in (p.a_eq, p.a_ub) if m is not None])
    b = np.concatenate([v for v in (p.b_eq, p.b_ub) if v is not None])
    m_eq = 0 if p.a_eq is None else len(p.a_eq)
    return bool(np.all(y[m_eq:] >= 0.0) and np.abs(y @ a).max() <= 1e-9 and y @ b < -1e-9)


def _assert_certificate(p, y):
    """``y`` proves ``p`` infeasible, and the check rejects it with its sign
    flipped or its largest entry dropped."""
    assert _is_farkas(p, y)
    assert not _is_farkas(p, -y)
    dropped = y.copy()
    dropped[np.abs(y).argmax()] = 0.0
    assert not _is_farkas(p, dropped)


# a strip |x_0| <= 1 contains every line along x_1
_STRIP = dict(a_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]), b_ub=np.array([1.0, 1.0]))


@pytest.mark.parametrize("objective, status", [
    ([1.0, -1.0], "unbounded"),  # a component along the line
    ([0.0, 1.0], "unbounded"),
    ([1.0, 0.0], "optimal"),  # orthogonal to the line: x_0 = -1
    (None, "feasible"),
])
def test_lp_over_a_polyhedron_with_a_line(objective, status):
    c = None if objective is None else np.array(objective)
    r = solve_lp(LinearProgram(2, objective=c, **_STRIP))
    assert r.status == status
    if status == "optimal":
        assert r.value == pytest.approx(-1.0, abs=1e-12)


def test_infeasible_lp_with_a_line_returns_its_certificate():
    # 1 <= x_0 - x_1 <= 0 in the plane, and also with x_2 pinned by an
    # equality row: every polyhedron contains the line x_0 = x_1
    p = LinearProgram(2, a_ub=np.array([[-1.0, 1.0], [1.0, -1.0]]), b_ub=np.array([-1.0, 0.0]))
    r = solve_lp(p)
    assert r.status == "infeasible"
    _assert_certificate(p, r.y)
    p = LinearProgram(3, a_eq=np.array([[0.0, 0.0, 2.0]]), b_eq=np.array([1.0]),
                      a_ub=np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]),
                      b_ub=np.array([-1.0, 0.5]))
    r = solve_lp(p)
    assert r.status == "infeasible"
    _assert_certificate(p, r.y)


@pytest.mark.parametrize("kind", ["P4", "S3"])
def test_trivial_pair_degree_lp_is_unbounded_along_its_line(kind):
    # the pair {u/2, u/2} leaves the noise weight lambda out of every row
    from gpt_lab.compatibility import _cone_rows, _joint_equalities
    from gpt_lab.gpt_core import make_polygon, make_simplex
    from gpt_lab.observables import Observable

    t = make_polygon(4) if kind == "P4" else make_simplex(3)
    trivial = Observable(t, [0.5 * t.unit_effect, 0.5 * t.unit_effect])
    a_eq, b_eq = _joint_equalities(t, trivial, trivial)
    half = np.tile(0.5 * t.unit_effect, 4)
    a_eq = np.column_stack([a_eq, half - b_eq])
    assert not a_eq[:, -1].any()
    a_ub = np.hstack([_cone_rows(t, 4), np.zeros((4 * len(t.cone_states()), 1))])
    c = -np.eye(a_eq.shape[1])[-1]
    p = LinearProgram(a_eq.shape[1], c, a_eq, half, a_ub, np.zeros(len(a_ub)))
    assert solve_lp(p).status == "unbounded"


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


def test_lp_logs_posed_shape_and_loop_counters(caplog):
    caplog.set_level(logging.DEBUG, logger="gpt_lab")
    simplex = dict(a_eq=np.array([[1.0, 1.0, 1.0]]), b_eq=np.array([1.0]), a_ub=-np.eye(3))
    # z = 0 (x uniform) is feasible: no phase 1, and phase 2 releases one
    # coordinate row
    assert solve_lp(LinearProgram(3, np.array([1.0, 0.0, 0.0]), b_ub=np.zeros(3),
                                  **simplex)).status == "optimal"
    # x_0 >= 1/2 cuts z = 0 off: one phase-1 step reaches t = 0
    assert solve_lp(LinearProgram(3, b_ub=np.array([-0.5, 0.0, 0.0]),
                                  **simplex)).status == "feasible"
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert lines == [
        "LP posed 1+3 rows x 3 vars, 2 z columns, 0+1 iterations, 2 refactors",
        "LP posed 1+3 rows x 3 vars, 2 z columns, 1+0 iterations, 1 refactors",
    ]


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
    cases = [
        ({"a_eq": np.ones((1, 3)), "b_eq": np.ones(1)}, "a_eq must be 2-d with 2 columns"),
        ({"a_eq": np.ones(2), "b_eq": np.ones(1)}, "a_eq must be 2-d with 2 columns"),
        ({"a_eq": np.ones((1, 2))}, "a_eq rhs length mismatch"),
        ({"a_ub": np.ones((2, 2)), "b_ub": np.ones(3)}, "a_ub rhs length mismatch"),
        ({"a_ub": np.ones((1, 2)), "b_ub": [np.inf]}, "a_ub contains non-finite entries"),
        ({"a_eq": np.full((1, 2), np.nan), "b_eq": [1.0]}, "a_eq contains non-finite entries"),
        ({"objective": np.ones(3)}, "objective dimension mismatch"),
        ({"objective": [1.0, np.nan]}, "objective contains non-finite entries"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            solve_lp(LinearProgram(2, **kwargs))


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
        # presolve misreports some unbounded LPs; the tolerances are the kernel's TOL
        options={"presolve": False, "primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9},
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


@settings(max_examples=60, deadline=None)
@given(_small_lps().filter(lambda case: case[0] == "infeasible"))
def test_infeasible_small_lps_return_a_farkas_vector(case):
    _, p = case
    r = solve_lp(p)
    assert r.status == "infeasible"
    _assert_certificate(p, r.y)


def _disc_outer_cone_lp(ta, pa, tb, pb):
    from gpt_lab.compatibility import _cone_rows, _joint_equalities, disc_axis_observable
    from gpt_lab.gpt_core import make_disc

    t = make_disc()
    f, g = disc_axis_observable(t, ta, pa), disc_axis_observable(t, tb, pb)
    a_eq, b_eq = _joint_equalities(t, f, g)
    a_ub = _cone_rows(t, 4)
    return LinearProgram(12, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=np.zeros(len(a_ub)))


def test_infeasible_disc_outer_cone_lps_return_a_farkas_vector():
    rng = np.random.default_rng(38)
    infeasible = 0
    for ta, pa, tb, pb in zip(*rng.uniform([0.6, 0, 0.6, 0], [1, 2 * math.pi, 1, 2 * math.pi],
                                           size=(60, 4)).T):
        p = _disc_outer_cone_lp(ta, pa, tb, pb)
        r = solve_lp(p)
        if r.status == "infeasible":
            infeasible += 1
            _assert_certificate(p, r.y)
    assert infeasible >= 10


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 1.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.3, 1.0), st.floats(0.0, 2 * math.pi))
@example(1.0, 0.0, 1.0, 1e-7)  # sharp observables 1e-7 rad apart: infeasible at TOL
@example(1.0, 0.0, 1.0, 1e-8)
def test_lp_matches_highs_on_disc_cut_lps(ta, pa, tb, pb):
    p = _disc_outer_cone_lp(ta, pa, tb, pb)
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
