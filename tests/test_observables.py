import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_lab.gpt_core import make_disc, make_polygon, make_simplex
from gpt_lab.observables import (
    JointObservable,
    Observable,
    cyclic_metric,
    discrete_metric,
    fuzz,
    ideal_observables,
    marginals,
    measure,
)


def coin(t):
    u = t.unit_effect
    return Observable(t, [0.5 * u, 0.5 * u])


def test_metrics():
    d = discrete_metric(3)
    assert d[0, 0] == 0 and d[0, 2] == 1
    c = cyclic_metric(5)
    assert c[0, 2] == 2 and c[0, 4] == 1
    # triangle inequality holds on the cycle
    for a in range(5):
        for b in range(5):
            for k in range(5):
                assert c[a, k] <= c[a, b] + c[b, k]


def test_observable_must_sum_to_unit():
    t = make_polygon(5)
    e = t.extreme_effects()[0]
    with pytest.raises(ValueError):
        Observable(t, [e, e])
    Observable(t, [e, t.unit_effect - e])  # fine


def test_observable_metric_size_checked():
    t = make_simplex(2)
    with pytest.raises(ValueError):
        Observable(t, [e for e in np.eye(2)], metric=discrete_metric(3))


def test_marginals_recover_factors():
    t = make_simplex(3)
    f = Observable(t, [e for e in np.eye(3)])
    g = coin(t)
    grid = [[0.5 * ef for eg in g.effects] for ef in f.effects]
    j = JointObservable(t, grid)
    mf, mg = marginals(j)
    for a, b in zip(mf.effects, f.effects):
        assert a == pytest.approx(b, abs=1e-12)
    for a, b in zip(mg.effects, g.effects):
        assert a == pytest.approx(b, abs=1e-12)


def test_measure_is_a_distribution():
    t = make_polygon(6)
    f = Observable(t, [t.extreme_effects()[1], t.unit_effect - t.extreme_effects()[1]])
    p = measure(f, t.maximally_mixed())
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0)
    assert p == pytest.approx([0.5, 0.5], abs=1e-12)


def test_measure_rejects_garbage():
    t = make_simplex(2)
    f = Observable(t, [e for e in np.eye(2)])
    with pytest.raises(ValueError):
        measure(f, np.array([2.0, -1.0]))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
def test_fuzz_is_affine_in_statistics(lam, theta):
    t = make_disc()
    e = t.disc_extreme_effect(0.7)
    f = Observable(t, [e, t.unit_effect - e])
    w = t.disc_state(theta)
    p = measure(f, w)
    q = measure(fuzz(f, lam), w)
    assert q == pytest.approx(lam * p + (1 - lam) * 0.5, abs=1e-9)


def test_fuzz_argument_checks():
    t = make_simplex(3)
    delta = Observable(t, [e for e in np.eye(3)])
    with pytest.raises(ValueError):
        fuzz(delta, 0.5)  # not binary
    with pytest.raises(ValueError):
        fuzz(coin(t), 1.5)


def test_ideal_observable_counts():
    # binary ideals up to relabeling, plus the full delta observables
    assert len(ideal_observables(make_polygon(3))) == 4  # 3 binary + trit delta
    assert len(ideal_observables(make_polygon(4))) == 2
    assert len(ideal_observables(make_polygon(5))) == 5
    assert len(ideal_observables(make_polygon(6))) == 3
    assert len(ideal_observables(make_polygon(12))) == 6
    obs = ideal_observables(make_simplex(3))
    assert sum(1 for o in obs if len(o) == 2) == 3
    assert sum(1 for o in obs if len(o) == 3) == 1


def test_ideal_observables_disc_sampling():
    # antipodal boundary effects are complements, so 64 angles give 32
    t = make_disc()
    obs = ideal_observables(t)
    assert len(obs) == 32
    for o in obs:
        assert len(o) == 2


def test_joint_atol_widening():
    t = make_simplex(2)
    eps = 5e-8
    grid = [[np.array([0.5, 0.0]), np.array([0.0, 0.5 + eps])],
            [np.array([0.5, 0.0]), np.array([0.0, 0.5])]]
    with pytest.raises(ValueError):
        JointObservable(t, grid)
    JointObservable(t, grid, atol=1e-6)  # explicit tolerance admits it
