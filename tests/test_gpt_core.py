import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_lab.gpt_core import (
    eigenstate_of,
    is_effect,
    is_state,
    make_disc,
    make_polygon,
    make_simplex,
    polygon_radius,
)
from gpt_lab.numerics import LinearProgram, solve_lp


def test_polygon_radius_values():
    assert polygon_radius(4) == pytest.approx(2.0 ** 0.25)
    assert polygon_radius(3) == pytest.approx(math.sqrt(2.0))


def test_simplex_pure_states_are_distinguishable_by_construction():
    t = make_simplex(4)
    for i, w in enumerate(t.pure_states):
        vals = [t.pair(e, w) for e in np.eye(4)]
        assert vals[i] == pytest.approx(1.0)
        assert sum(vals) == pytest.approx(1.0)


def test_polygon_states_on_circle():
    t = make_polygon(7)
    r = polygon_radius(7)
    for w in t.pure_states:
        assert math.hypot(w[0], w[1]) == pytest.approx(r, abs=1e-12)
        assert w[2] == 1.0


def test_maximally_mixed():
    assert make_polygon(6).maximally_mixed() == pytest.approx([0, 0, 1], abs=1e-12)
    assert make_disc().maximally_mixed() == pytest.approx([0, 0, 1])
    assert make_simplex(3).maximally_mixed() == pytest.approx([1 / 3] * 3)


def test_state_membership():
    t = make_polygon(5)
    assert is_state(t, t.maximally_mixed())
    assert is_state(t, t.pure_states[2])
    outside = t.pure_states[0].copy()
    outside[0] *= 1.01
    assert not is_state(t, outside)


def test_effect_membership_disc():
    t = make_disc()
    assert is_effect(t, t.disc_extreme_effect(1.0))
    assert is_effect(t, t.unit_effect)
    assert not is_effect(t, np.array([0.8, 0.0, 0.5]))


def test_effect_values_on_square():
    # e_0 hits 1 on its two adjacent vertices and 0 on the opposite pair
    t = make_polygon(4)
    e0 = t.extreme_effects()[0]
    vals = [t.pair(e0, w) for w in t.pure_states]
    assert vals == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_odd_effects_hit_unit_on_own_vertex():
    t = make_polygon(5)
    ext = t.extreme_effects()
    for i in range(5):
        assert t.pair(ext[i], t.pure_states[i]) == pytest.approx(1.0, abs=1e-12)


def test_theory_equality_and_hash():
    a, b = make_polygon(6), make_polygon(6)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_polygon(7)
    assert a != make_polygon(6, "rescaled")
    assert make_disc() != a
    assert a != "Polygon(6)"
    assert len({a, b, make_polygon(7), make_disc(), make_disc()}) == 3


def test_extreme_effects_computed_once_and_read_only():
    for t in (make_simplex(3), make_polygon(5), make_polygon(6, "rescaled")):
        ext = t.extreme_effects()
        assert t.extreme_effects() is ext
        with pytest.raises(ValueError):
            ext[0, 0] = 1.0
    with pytest.raises(ValueError):
        make_disc().extreme_effects()
    # equality and hashing ignore the cached rows
    a, b = make_polygon(6), make_polygon(6)
    object.__setattr__(b, "_extreme", np.zeros((6, 3)))
    assert a == b and hash(a) == hash(b)


def test_eigenstate_requires_self_dual_even_polygon():
    t = make_polygon(6)
    with pytest.raises(ValueError):
        eigenstate_of(t, t.extreme_effects()[0])
    tr = make_polygon(6, "rescaled")
    w = eigenstate_of(tr, tr.extreme_effects()[0])
    assert is_state(tr, w)


def test_eigenstate_simplex():
    t = make_simplex(3)
    w = eigenstate_of(t, np.array([0.5, 0.5, 0.0]))
    assert w == pytest.approx([0.5, 0.5, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 1000))
def test_rescaled_representation_preserves_statistics(half_n, seed):
    # one mixture of the pure states, one extreme effect: <e, w> must not
    # depend on the representation
    n = 2 * half_n + 2
    t, tr = make_polygon(n), make_polygon(n, "rescaled")
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n))
    j = rng.integers(0, n)
    lhs = t.pair(t.extreme_effects()[j], probs @ t.pure_states)
    rhs = tr.pair(tr.extreme_effects()[j], probs @ tr.pure_states)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_polygon(2)
    with pytest.raises(ValueError):
        make_polygon(5, "rescaled")
    with pytest.raises(ValueError):
        make_simplex(1)


def _hull_lp_is_state(t, v):
    """Reference: v is a convex combination of the pure states."""
    pts = t.pure_states
    k = len(pts)
    p = LinearProgram(
        n_vars=k,
        a_eq=np.vstack([pts.T, np.ones((1, k))]),
        b_eq=np.concatenate([v, [1.0]]),
        a_ub=-np.eye(k),
        b_ub=np.zeros(k),
    )
    return solve_lp(p).status == "feasible"


def test_is_state_matches_hull_lp():
    theories = [make_polygon(n) for n in range(3, 13)]
    theories += [make_polygon(n, "rescaled") for n in range(4, 13, 2)]
    theories.append(make_simplex(3))
    rng = np.random.default_rng(7)
    checked = 0
    for t in theories:
        ext = t.extreme_effects()
        reach = 1.2 * np.abs(t.pure_states).max()
        for _ in range(40):
            v = rng.uniform(-reach, reach, t.dim)
            v[-1] = 1.0 - v[:-1].sum() if t.kind == "Simplex" else 1.0
            if rng.random() < 0.1:
                v *= 1.0 + rng.choice([-1e-3, 1e-3])  # off the plane u(v) = 1
            elif np.abs(ext @ v).min() < 1e-7:
                continue  # too close to a facet for either test to be exact
            assert is_state(t, v) == _hull_lp_is_state(t, v), (t, v)
            checked += 1
    assert checked > 600

    # tol bounds the outcome probabilities: a facet value of -2e-9 is out,
    # one of -5e-10 is in
    t = make_polygon(12)
    ext = t.extreme_effects()
    mid = 0.5 * (t.pure_states[0] + t.pure_states[1])
    e = ext[np.argmin(ext @ mid)]
    out = -np.array([e[0], e[1], 0.0]) / (e[0] ** 2 + e[1] ** 2)  # e(out) = -1
    for depth, want in ((2e-9, False), (5e-10, True)):
        v = mid + (depth + e @ mid) * out
        assert (ext @ v).min() == pytest.approx(-depth, abs=1e-15)
        assert is_state(t, v) is want
