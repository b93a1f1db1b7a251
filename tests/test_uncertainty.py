import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_lab.compatibility import (
    disc_axis_observable,
    mutually_unbiased_pair,
    sample_feasible_joints,
)
from gpt_lab.gpt_core import make_disc, make_polygon, make_simplex
from gpt_lab.observables import (
    Observable,
    cyclic_metric,
    discrete_metric,
    fuzz,
    ideal_observables,
)
from gpt_lab.uncertainty import (
    entropic_noise,
    entropic_pur_bound,
    error_bar_width,
    gamma_closed_form,
    landau_pollak_gamma,
    linf_distance,
    localization_error,
    max_statistics_sum,
    overall_width,
    theorem_witness_state,
    werner_measure,
)

SQ2INV = 1.0 / math.sqrt(2.0)


def coin(t):
    u = t.unit_effect
    return Observable(t, [0.5 * u, 0.5 * u])


def sharp_disc_pair(angle=0.0):
    t = make_disc()
    e = 0.5 * t.disc_state(angle)
    return t, Observable(t, [e, t.unit_effect - e])


def test_overall_width_cases():
    d = discrete_metric(2)
    assert overall_width([1.0, 0.0], d, 0.1) == 0.0
    assert overall_width([0.5, 0.5], d, 0.1) == 2.0
    assert overall_width([0.5, 0.5], d, 0.5) == 0.0


def test_localization_error():
    assert localization_error([0.7, 0.3]) == pytest.approx(0.3)
    assert localization_error([1.0, 0.0]) == 0.0


def test_error_bar_width_exact_and_coin():
    t, f = sharp_disc_pair()
    assert error_bar_width(f, f, 0.1) == 0.0
    assert error_bar_width(coin(t), f, 0.1) == 2.0
    assert error_bar_width(coin(t), f, 0.5) == 0.0


def test_error_bar_width_epsilon_checked():
    t, f = sharp_disc_pair()
    with pytest.raises(ValueError):
        error_bar_width(f, f, 1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0))
def test_linf_distance_of_fuzzing(lam):
    t, f = sharp_disc_pair(0.3)
    assert linf_distance(fuzz(f, lam), f) == pytest.approx((1 - lam) / 2, abs=1e-9)


def test_werner_measure_binary_reduction():
    t, f = sharp_disc_pair()
    g = fuzz(f, 0.6)
    assert werner_measure(g, f) == pytest.approx(linf_distance(g, f), abs=1e-9)
    assert werner_measure(f, f) == 0.0


def test_entropic_noise():
    t, f = sharp_disc_pair()
    assert entropic_noise(f, f) == pytest.approx(0.0, abs=1e-9)
    assert entropic_noise(coin(t), f) == pytest.approx(math.log(2.0), abs=1e-9)


def test_entropic_noise_rejects_non_self_dual():
    t = make_polygon(6)  # standard representation
    f = ideal_observables(t)[0]
    with pytest.raises(ValueError):
        entropic_noise(f, f)


def test_entropic_pur_bound_values():
    assert entropic_pur_bound(2.0) == 0.0
    assert entropic_pur_bound(1.0) == pytest.approx(2 * math.log(2.0))
    assert entropic_pur_bound(1 + SQ2INV) == pytest.approx(0.3166943676, abs=1e-9)
    with pytest.raises(ValueError):
        entropic_pur_bound(2.5)


def test_gamma_disc_right_angle():
    assert gamma_closed_form(None, math.pi / 2) == pytest.approx(1 + SQ2INV, abs=1e-12)


def test_gamma_closed_form_argument_checks():
    with pytest.raises(ValueError):
        gamma_closed_form(None, 0.0)
    with pytest.raises(ValueError):
        gamma_closed_form(8, 0.1)  # not a lattice angle of the octagon


def test_landau_pollak_table_small():
    numeric, closed = landau_pollak_gamma(make_polygon(3), 1)
    assert numeric == pytest.approx(2.0, abs=1e-12)
    assert closed == pytest.approx(2.0, abs=1e-12)
    _, got = landau_pollak_gamma(make_polygon(6), 2)
    # numeric maximum is asserted inside; spot value from the even table
    r2 = 1.0 / math.cos(math.pi / 6)
    assert got == pytest.approx(max(1 + math.cos(math.pi / 3),
                                    1 + r2 * math.sin(math.pi / 3)), abs=1e-12)
    with pytest.raises(TypeError):
        landau_pollak_gamma(make_polygon(7), 1.9)  # an index, not an angle


def test_witness_state_slacks():
    t = make_disc()
    f, g = mutually_unbiased_pair(t, 1.0)
    gamma_bound = entropic_pur_bound(max_statistics_sum(f, g))
    for j in sample_feasible_joints(f, g, 5, seed=1):
        sigma, rep = theorem_witness_state(j, f, g, 0.3, 0.3)
        assert rep["errorbar_slack_f"] >= -1e-9
        assert rep["errorbar_slack_g"] >= -1e-9
        assert rep["dinf_slack"] >= -1e-9
        assert rep["entropic_sum"] >= gamma_bound - 1e-9


def test_witness_state_epsilon_budget():
    t = make_disc()
    f, g = mutually_unbiased_pair(t, 1.0)
    j = sample_feasible_joints(f, g, 1, seed=0)[0]
    with pytest.raises(ValueError):
        theorem_witness_state(j, f, g, 0.7, 0.7)


def test_max_statistics_sum_three_outcome_disc_matches_angle_scan():
    # a trine against a binary axis observable: no longer binary-only
    t = make_disc()
    trine = Observable(t, [
        np.array([math.cos(a) / 3, math.sin(a) / 3, 1 / 3])
        for a in (0.3, 0.3 + 2 * math.pi / 3, 0.3 + 4 * math.pi / 3)
    ])
    g = disc_axis_observable(t, 0.8, 1.1)
    k = 200_000
    ths = 2 * math.pi * np.arange(k) / k
    states = np.stack([np.cos(ths), np.sin(ths), np.ones(k)], axis=1)
    scan = np.max(
        np.max(states @ np.array(trine.effects).T, axis=1)
        + np.max(states @ np.array(g.effects).T, axis=1)
    )
    gamma = max_statistics_sum(trine, g)
    assert scan - 1e-12 <= gamma <= scan + 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_werner_measure_three_outcomes_is_total_variation(lam):
    # discrete metric: the Lipschitz LP gives half the l1 gap, and on the
    # simplex the worst state is a pure one, where it is (2/3)(1 - lam)
    t = make_simplex(3)
    ideal = next(o for o in ideal_observables(t) if len(o) == 3)
    u = t.unit_effect
    approx = Observable(t, [lam * e + (1 - lam) / 3 * u for e in ideal.effects])
    assert werner_measure(approx, ideal) == pytest.approx(2 / 3 * (1 - lam), abs=1e-9)


def test_werner_measure_cyclic_metric_matches_highs():
    # four outcomes on a 4-cycle, so the Lipschitz ball is not the l1 one;
    # HiGHS maximizes |h.delta| over both signs, the library solves one LP
    linprog = pytest.importorskip("scipy.optimize").linprog
    t = make_disc()
    angles = np.arange(4) * math.pi / 2
    d = cyclic_metric(4)
    ideal = Observable(t, [0.25 * t.disc_state(a) for a in angles], metric=d)
    rng = np.random.default_rng(35)
    rows = [r for a, b in itertools.combinations(range(4), 2)
            for r in (np.eye(4)[a] - np.eye(4)[b], np.eye(4)[b] - np.eye(4)[a])]
    rhs = [d[a, b] for a, b in itertools.combinations(range(4), 2) for _ in (0, 1)]
    for _ in range(3):
        weights = rng.dirichlet(np.ones(4), size=4)  # row i mixes into outcome i
        approx = Observable(t, [sum(weights[j, i] * ideal.effects[j] for j in range(4))
                                for i in range(4)])
        gaps = np.array(approx.effects) - np.array(ideal.effects)
        want = 0.0
        for w in t.cone_states():
            for sign in (1.0, -1.0):
                res = linprog(-sign * (gaps @ w), A_ub=np.array(rows), b_ub=rhs,
                              A_eq=np.eye(4)[:1], b_eq=[0.0], bounds=(None, None),
                              method="highs")
                assert res.status == 0
                want = max(want, -res.fun)
        assert werner_measure(approx, ideal) == pytest.approx(want, abs=1e-9)
