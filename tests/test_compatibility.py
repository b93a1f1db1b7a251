import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_lab.compatibility import (
    StateSubset,
    are_compatible,
    busch_unbiased_compatible,
    degree_of_incompatibility,
    disc_axis_observable,
    estimate_t0,
    exists_incompatible_segment,
    mutually_unbiased_pair,
    s0_compatible,
    sample_feasible_joints,
    xi_bounds,
)
from gpt_lab.gpt_core import is_effect, make_disc, make_polygon, make_simplex
from gpt_lab.observables import Observable, fuzz, ideal_observables, marginals

SQ2INV = 1.0 / math.sqrt(2.0)


def _bloch_prob(w, m, r):
    """Probability of the qubit effect (1/2)((1 + w) 1 + m.sigma) on the
    Bloch vector r."""
    return 0.5 * (1.0 + w + float(np.dot(m, r)))


def test_chi_comp_product_construction():
    # chi_comp = 3 for every t: G(x, y) = p(x) B(y), with p the statistics
    # of A^{tx} at r = 0, reproduces (A^{tx}, A^{ty}) on the plane r_x = 0,
    # an affine-dimension-2 subset of the Bloch ball
    plane = [np.zeros(3), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    assert np.linalg.matrix_rank(np.array(plane[1:]) - plane[0]) == 2
    for t in np.linspace(SQ2INV, 1.0, 202)[1:]:  # 201 values in (1/sqrt 2, 1]
        ea = (0.0, np.array([t, 0.0, 0.0]))  # first outcome of A^{tx}
        eb = (0.0, np.array([0.0, t, 0.0]))  # first outcome of A^{ty}
        pa = _bloch_prob(*ea, plane[0])
        pa = [pa, 1.0 - pa]
        cells = {}
        for x in range(2):
            for y in range(2):
                sign = 1.0 if y == 0 else -1.0
                wc, mc = pa[x] * (1 + sign * eb[0]) - 1.0, pa[x] * sign * eb[1]
                assert np.linalg.norm(mc) <= min(1 + wc, 1 - wc) + 1e-12, t
                cells[x, y] = (wc, mc)
        for r in plane:
            first = sum(_bloch_prob(*cells[0, y], r) for y in range(2))
            second = sum(_bloch_prob(*cells[x, 0], r) for x in range(2))
            assert first == pytest.approx(_bloch_prob(*ea, r), abs=1e-10)
            assert second == pytest.approx(_bloch_prob(*eb, r), abs=1e-10)


def test_closed_form_mu_boundary():
    assert busch_unbiased_compatible(0.0, [0.7, 0, 0], 0.0, [0, 0.7, 0])
    assert not busch_unbiased_compatible(0.0, [0.72, 0, 0], 0.0, [0, 0.72, 0])


def test_closed_form_parallel_always_compatible():
    assert busch_unbiased_compatible(0.0, [1, 0, 0], 0.0, [1, 0, 0])
    assert busch_unbiased_compatible(0.0, [1, 0, 0], 0.0, [-1, 0, 0])


def test_lp_agrees_with_closed_form_on_mu_pairs():
    t = make_disc()
    for s in (0.6, 0.73, 0.95):
        f, g = mutually_unbiased_pair(t, s)
        ok, joint = are_compatible(f, g)
        assert ok == (s <= SQ2INV + 1e-12)
        if ok and joint is not None:
            mf, mg = marginals(joint, atol=1e-5)
            for a, b in zip(mf.effects, f.effects):
                assert a == pytest.approx(b, abs=1e-5)


def test_compatible_joint_has_valid_cells():
    t = make_disc()
    f, g = mutually_unbiased_pair(t, 0.5)
    ok, joint = are_compatible(f, g)
    assert ok and joint is not None
    for row in joint.grid:
        for cell in row:
            assert is_effect(t, cell, tol=1e-6)


def test_simplex_everything_compatible():
    t = make_simplex(3)
    obs = [o for o in ideal_observables(t) if len(o) == 2]
    ok, joint = are_compatible(obs[0], obs[1])
    assert ok and joint is not None


def test_busch_criterion_sharp_pairs():
    # sharp orthogonal-axis pair is incompatible, parallel is compatible
    assert not busch_unbiased_compatible(0.0, [1, 0, 0], 0.0, [0, 1, 0])
    assert busch_unbiased_compatible(0.0, [1, 0, 0], 0.0, [1, 0, 0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_busch_matches_closed_form_on_unbiased_pairs(seed):
    rng = np.random.default_rng(seed)
    ta, tb = rng.uniform(0.05, 1.0, size=2)
    pa, pb = rng.uniform(0.0, 2 * math.pi, size=2)
    a = ta * np.array([math.cos(pa), math.sin(pa), 0.0])
    b = tb * np.array([math.cos(pb), math.sin(pb), 0.0])
    # unbiased pair A^a, A^b: compatible iff |a+b| + |a-b| <= 2
    want = np.linalg.norm(a + b) + np.linalg.norm(a - b) <= 2.0 + 1e-12
    assert busch_unbiased_compatible(0.0, a, 0.0, b) == want


def test_xi_bounds_satisfy_defining_identities():
    from gpt_lab.compatibility import _w_and_C, _xi_min

    # the closed forms take arrays of cells as well as scalars
    cells = (np.arange(8) + 0.5) * (math.pi / 2) / 8
    pp, ss = np.meshgrid(cells, cells, indexing="ij")
    for t in (0.75, 0.9, 1.0):
        for phi0, psi0 in ((0.3, 0.5), (1.0, 1.2), (0.9, 0.2)):
            x1m, x1M, x2m, x2M = xi_bounds(t, phi0, psi0)
            w, c = _w_and_C(t, phi0, psi0, x1m)
            assert abs(1.0 - w - c) < 1e-10  # lower endpoint: 1 - w = C
            w, c = _w_and_C(t, phi0, psi0, x1M)
            assert abs(1.0 + w - c) < 1e-10  # upper endpoint: 1 + w = C
            w, c = _w_and_C(t, math.pi / 2 - phi0, psi0, x2m)
            assert abs(1.0 - w - c) < 1e-10
            assert x1m <= 0.0 <= x1M < phi0
        w, c = _w_and_C(t, pp, ss, _xi_min(t, pp, ss))
        assert w.shape == (8, 8)
        assert np.max(np.abs(1.0 - w - c)) < 1e-10


def test_s0_compatibility_on_segment():
    from gpt_lab.compatibility import _segment_states

    t = make_disc()
    f, g = mutually_unbiased_pair(t, 1.0)
    # sharp MU pair: incompatible on a generic segment, compatible near
    # an anti-aligned geometry
    seg = StateSubset(_segment_states(t, 0.8, 0.8))
    ok, surrogates = s0_compatible(f, g, seg)
    assert ok is False
    weak_f, weak_g = mutually_unbiased_pair(t, 0.5)
    ok2, surrogates2 = s0_compatible(weak_f, weak_g, seg)
    assert ok2 is True
    assert surrogates2 is not None


def test_degree_of_incompatibility_square():
    t = make_polygon(4)
    f, g = ideal_observables(t)
    lam, bound = degree_of_incompatibility(f, g)
    assert lam == pytest.approx(0.5, abs=1e-4)
    assert lam <= bound + 1e-4


def test_fuzzing_monotone_for_compatibility():
    t = make_disc()
    f, g = mutually_unbiased_pair(t, 1.0)
    verdicts = [are_compatible(fuzz(f, lam), fuzz(g, lam))[0]
                for lam in (0.3, 0.7071, 0.708, 0.9)]
    assert verdicts == [True, True, False, False]


def test_sample_feasible_joints_are_valid():
    t = make_disc()
    f, g = mutually_unbiased_pair(t, 1.0)
    joints = sample_feasible_joints(f, g, 8, seed=5)
    assert len(joints) == 8
    for j in joints:
        total = np.sum([c for row in j.grid for c in row], axis=0)
        assert total == pytest.approx(t.unit_effect, abs=1e-7)
        for row in j.grid:
            for cell in row:
                assert is_effect(t, cell, tol=1e-9)


def test_sample_feasible_joints_deterministic():
    t = make_polygon(5)
    f, g = [o for o in ideal_observables(t) if len(o) == 2][:2]
    a = sample_feasible_joints(f, g, 6, seed=3)
    b = sample_feasible_joints(f, g, 6, seed=3)
    for ja, jb in zip(a, b):
        for ra, rb in zip(ja.grid, jb.grid):
            for ca, cb in zip(ra, rb):
                assert np.array_equal(ca, cb)


# Disc pairs (t_a, angle_a, t_b, angle_b) on which an earlier simplex pivoted
# on ~1e-9 entries and answered wrongly: three false "infeasible" verdicts,
# a point drifted 1.5e-5 off its equalities, and one compatibility and two
# degree queries from longer benchmark streams.
DISC_COMPAT_REGRESSIONS = [
    (0.3090585008333745, 1.2397312711058395, 0.6308252870668838, 1.7772698645076188),
    (0.8405124136665267, 1.808800876832255, 0.6175335669216903, 1.3296653935803973),
    (0.31289146162366976, 0.3744259843227811, 0.45984729843324074, 2.5258788896614184),
    (0.34298021425036895, 5.888572368903818, 0.6687160966610425, 2.708176626603192),
    (0.9203217135640573, 1.81527612521618, 0.30139708735007736, 0.8651059100470843),
]
DISC_DEGREE_REGRESSIONS = [
    (0.7586777674991523, 2.7343602067726422, 0.9881731975365304, 0.7969128022056061),
    (0.5432848272417647, 2.1654011988438673, 0.9516469016904454, 1.5175849409929392),
]


def _disc_pair(ta, pa, tb, pb):
    t = make_disc()
    a = ta * np.array([math.cos(pa), math.sin(pa), 0.0])
    b = tb * np.array([math.cos(pb), math.sin(pb), 0.0])
    s = np.linalg.norm(a + b) + np.linalg.norm(a - b)
    return disc_axis_observable(t, ta, pa), disc_axis_observable(t, tb, pb), s


@pytest.mark.parametrize("pair", DISC_COMPAT_REGRESSIONS)
def test_disc_regression_compatibility(pair):
    f, g, s = _disc_pair(*pair)
    ok, joint = are_compatible(f, g)
    assert ok == (s <= 2.0)
    if ok:
        assert joint is not None  # decided by the LP, not the exact fallback
        mf, mg = marginals(joint, atol=1e-6)
        for a, b in zip(mf.effects + mg.effects, f.effects + g.effects):
            assert a == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize("pair", DISC_DEGREE_REGRESSIONS)
def test_disc_regression_degree(pair):
    f, g, s = _disc_pair(*pair)
    lam, _ = degree_of_incompatibility(f, g)
    assert lam == pytest.approx(min(1.0, 2.0 / s), abs=1e-4)


def test_vectorized_row_builders_match_loops():
    from gpt_lab.compatibility import _cone_rows, _joint_equalities
    from gpt_lab.gpt_core import DISC_SAMPLES

    def cell(c, dim, nvars, vec):
        row = np.zeros(nvars)
        row[c * dim : (c + 1) * dim] = vec
        return row

    for t in (make_polygon(5), make_simplex(3)):
        pts = t.pure_states
        want = [cell(c, t.dim, 4 * t.dim, -p) for c in range(4) for p in pts]
        for shrink in (False, True):  # a finite theory's cone is exact
            assert np.array_equal(_cone_rows(t, 4, shrink), np.array(want))

    for shrink in (False, True):
        s = math.cos(math.pi / DISC_SAMPLES) if shrink else 1.0
        want = [
            cell(c, 3, 12, [-math.cos(th), -math.sin(th), -s])
            for c in range(4)
            for th in (2 * math.pi * j / DISC_SAMPLES for j in range(DISC_SAMPLES))
        ]
        assert np.array_equal(_cone_rows(make_disc(), 4, shrink), np.array(want))

    t = make_polygon(5)
    g = [o for o in ideal_observables(t) if len(o) == 2][0]
    e = g.effects[0]
    f = Observable(t, [0.25 * e, 0.75 * e, t.unit_effect - e])  # 3 outcomes
    na, nb, dim = 3, 2, t.dim
    nvars = na * nb * dim
    rows, rhs = [], []
    for a in range(na):
        for d in range(dim):
            unit = np.eye(dim)[d]
            rows.append(sum(cell(a * nb + b, dim, nvars, unit) for b in range(nb)))
            rhs.append(f.effects[a][d])
    for b in range(nb):
        for d in range(dim):
            unit = np.eye(dim)[d]
            rows.append(sum(cell(a * nb + b, dim, nvars, unit) for a in range(na)))
            rhs.append(g.effects[b][d])
    got_rows, got_rhs = _joint_equalities(t, f, g)
    assert np.array_equal(got_rows, np.array(rows))
    assert np.array_equal(got_rhs, np.array(rhs))

    w = t.pure_states[1]
    wv = w
    rows = [sum(cell(c, dim, nvars, np.eye(dim)[d]) for c in range(na * nb))
            for d in range(dim)]
    rhs = list(t.unit_effect)
    rows += [sum(cell(a * nb + b, dim, nvars, wv) for b in range(nb)) for a in range(na)]
    rhs += [t.pair(e, w) for e in f.effects]
    rows += [sum(cell(a * nb + b, dim, nvars, wv) for a in range(na)) for b in range(nb)]
    rhs += [t.pair(e, w) for e in g.effects]
    got_rows, got_rhs = _joint_equalities(t, f, g, states=[w])
    assert np.array_equal(got_rows, np.array(rows))
    assert np.array_equal(got_rhs, np.array(rhs))


def test_pair_on_equal_theories_accepted_and_on_different_rejected():
    f = ideal_observables(make_polygon(6))[0]
    g = ideal_observables(make_polygon(6))[1]
    assert f.theory is not g.theory
    assert are_compatible(f, g)[0] is not None
    with pytest.raises(ValueError, match="different theories"):
        are_compatible(f, ideal_observables(make_polygon(7))[0])


def _bisect_steps(pred, steps=50):
    lo, hi = SQ2INV + 1e-6, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize("grid", [7, 16, 33, 96, 97, 128])
def test_two_cell_predicate_matches_full_scan(grid):
    """exists_incompatible_segment reads two cells; the full (phi0, psi0)
    scan is the oracle, pointwise and through a bisection."""
    from gpt_lab.compatibility import _incompatible_segments

    def full(t):
        return bool(_incompatible_segments(t, grid))

    def fast(t):
        return exists_incompatible_segment(t, grid)

    ts = np.concatenate([
        np.linspace(SQ2INV, 1.0, 61)[1:],
        np.linspace(0.87403 - 2e-5, 0.87403 + 2e-5, 20),
    ])
    for t in ts:
        assert fast(float(t)) == full(float(t)), t
    assert _bisect_steps(fast) == _bisect_steps(full)


@pytest.mark.parametrize("grid", [96, 256])
def test_estimate_t0_pinned(grid):
    assert estimate_t0(grid, 1e-3) == 0.8738618471711597
