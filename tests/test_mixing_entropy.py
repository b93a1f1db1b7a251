import math

import numpy as np
import pytest

from gpt_lab.gpt_core import StateVec, make_disc, make_polygon, make_simplex
from gpt_lab.mixing_entropy import (
    Decomposition,
    DistinguishableFamily,
    _chord_hits,
    _even_witness,
    _polygon_pair_certificate,
    consistency_check,
    entropy_of_decomposition,
    enumerate_decompositions,
    even_chord_ratio,
    find_distinguishing_observable,
    odd_alpha,
    odd_midpoint_entropy_bootstrap,
    odd_midpoint_entropy_direct,
    state_key,
)
from gpt_lab.observables import Observable

LOG2 = math.log(2.0)


def sv(t, coords):
    return StateVec(t, np.asarray(coords, float))


def test_distinguishing_simplex_vertices():
    t = make_simplex(4)
    states = [sv(t, v) for v in np.eye(4)]
    obs = find_distinguishing_observable(states)
    assert obs is not None and len(obs) == 4


def test_distinguishing_hexagon_vertex_vs_far_edge():
    t = make_polygon(6)
    w = sv(t, 0.5 * (t.pure_states[2] + t.pure_states[3]))
    obs = find_distinguishing_observable([sv(t, t.pure_states[0]), w])
    assert obs is not None


def test_adjacent_pentagon_vertices_not_distinguishable():
    t = make_polygon(5)
    states = [sv(t, t.pure_states[0]), sv(t, t.pure_states[1])]
    assert find_distinguishing_observable(states) is None


def test_disc_antipodal_only():
    t = make_disc()
    a, b = sv(t, t.disc_state(0.4)), sv(t, t.disc_state(0.4 + math.pi))
    assert find_distinguishing_observable([a, b]) is not None
    c = sv(t, t.disc_state(1.9))
    assert find_distinguishing_observable([a, c]) is None


def test_family_rejects_bad_certificate():
    t = make_disc()
    a, b = sv(t, t.disc_state(0.0)), sv(t, t.disc_state(1.0))
    e = 0.5 * t.disc_state(0.0)
    with pytest.raises(ValueError):
        DistinguishableFamily([a, b], Observable(t, [e, t.unit_effect - e]))


def test_decomposition_must_reconstruct():
    t = make_disc()
    a, b = sv(t, t.disc_state(0.0)), sv(t, t.disc_state(math.pi))
    e = 0.5 * t.disc_state(0.0)
    fam = DistinguishableFamily([a, b], Observable(t, [e, t.unit_effect - e]))
    with pytest.raises(ValueError):
        Decomposition(sv(t, t.disc_state(0.5)), fam, np.array([0.5, 0.5]))


def test_enumerate_pure_is_trivial():
    t = make_polygon(7)
    decs = enumerate_decompositions(t, sv(t, t.pure_states[0]))
    assert len(decs) == 1
    assert entropy_of_decomposition(decs[0]) == 0.0


def test_enumerate_disc_center():
    t = make_disc()
    (d,) = enumerate_decompositions(t, sv(t, t.maximally_mixed()), granularity=12)
    assert d.weights.tolist() == [0.5, 0.5]
    assert entropy_of_decomposition(d) == pytest.approx(LOG2)


def test_enumerate_disc_off_center_single_diameter():
    t = make_disc()
    w = sv(t, 0.3 * t.disc_state(1.1) + 0.7 * np.array([0, 0, 1.0]))
    decs = enumerate_decompositions(t, w, granularity=64)
    assert len(decs) == 1
    p = decs[0].weights[0]
    assert entropy_of_decomposition(decs[0]) == pytest.approx(
        -p * math.log(p) - (1 - p) * math.log(1 - p))


def test_enumerate_simplex():
    t = make_simplex(3)
    w = sv(t, [0.5, 0.25, 0.25])
    decs = enumerate_decompositions(t, w)
    assert len(decs) == 1
    assert entropy_of_decomposition(decs[0]) == pytest.approx(1.5 * LOG2)


def test_entropy_requires_base_for_mixed_components():
    t = make_polygon(6)
    # the center decomposes into opposite edge midpoints, which are mixed
    w = sv(t, t.maximally_mixed())
    decs = enumerate_decompositions(t, w, granularity=90)

    def has_mixed(d):
        return any(
            min(np.linalg.norm(s.coords - v) for v in t.pure_states) > 1e-6
            for s in d.family.states)

    mixed = [d for d in decs if has_mixed(d)]
    assert mixed
    with pytest.raises(ValueError):
        entropy_of_decomposition(mixed[0])


def test_even_chord_ratio_square_degenerates():
    assert even_chord_ratio(4) == pytest.approx(0.0)
    assert even_chord_ratio(6) == pytest.approx((0.5 / math.cos(math.pi / 6)) ** 2)


def test_odd_forms_boundary_identities():
    # alpha = 1/2 is the triangle (n congruent to 3 mod 4): both forms
    # give log 2 there, and both vanish as alpha -> 0
    assert odd_midpoint_entropy_direct(0.5) == pytest.approx(LOG2, abs=1e-12)
    for n in (3, 7):
        assert odd_midpoint_entropy_bootstrap(0.5, n) == pytest.approx(LOG2, abs=1e-12)
    for n in (3, 5, 7):
        assert odd_midpoint_entropy_bootstrap(0.0, n) == pytest.approx(0.0, abs=1e-12)
    assert odd_midpoint_entropy_direct(0.0) == pytest.approx(0.0, abs=1e-12)


def test_consistency_triangle_and_disc():
    r3 = consistency_check(make_polygon(3))
    assert r3.verdict == "consistent"
    assert r3.discrepancy < 1e-9
    rd = consistency_check(make_disc())
    assert rd.verdict == "consistent"
    assert rd.discrepancy < 1e-9
    assert any(abs(v - LOG2) < 1e-12 for _, v in rd.entries)


def test_consistency_square():
    r = consistency_check(make_polygon(4))
    assert r.verdict == "inconsistent"
    assert r.discrepancy == pytest.approx(LOG2, abs=1e-12)


def test_consistency_pentagon_matches_high_precision_value():
    r = consistency_check(make_polygon(5))
    assert r.verdict == "inconsistent"
    assert r.discrepancy == pytest.approx(0.0814938652969, abs=1e-10)


def test_consistency_hexagon():
    r = consistency_check(make_polygon(6))
    assert r.discrepancy == pytest.approx(0.130812035941, abs=1e-10)


def test_all_larger_polygons_inconsistent():
    for n in range(4, 25):
        r = consistency_check(make_polygon(n))
        assert r.verdict == "inconsistent"
        assert r.discrepancy > 1e-3


def test_state_key_folds_negative_zero():
    t = make_disc()
    assert state_key(-0.0 * t.maximally_mixed()) == state_key(0.0 * t.maximally_mixed())


@pytest.mark.parametrize("n", range(6, 25, 2))
def test_even_witness_entries_come_from_valid_decompositions(n):
    # the vertex diameter [w0, w_{n/2}] and the offset chord [w1, w_{n/2+2}]
    # cross at the witness; each is a certified distinguishable pair
    t = make_polygon(n)
    ext, u = t.extreme_effects(), t.unit_effect
    verts = t.pure_states[:, :2]
    chords = ((0, n // 2, 1), (1, (n // 2 + 2) % n, 2))
    (a0, b0, _), (a1, b1, _) = chords
    s, _ = np.linalg.solve(
        np.column_stack([verts[b0] - verts[a0], verts[a1] - verts[b1]]),
        verts[a1] - verts[a0],
    )
    wp = verts[a0] + s * (verts[b0] - verts[a0])
    target = sv(t, [wp[0], wp[1], 1.0])
    entries, disc = _even_witness(t)
    values = []
    for ia, ib, ic in chords:
        frac = np.linalg.norm(wp - verts[ia]) / np.linalg.norm(verts[ib] - verts[ia])
        fam = DistinguishableFamily(
            [sv(t, t.pure_states[ia]), sv(t, t.pure_states[ib])],
            Observable(t, [ext[ic], u - ext[ic]]),
        )
        dec = Decomposition(target, fam, np.array([1.0 - frac, frac]))
        values.append(entropy_of_decomposition(dec))
    assert [v for _, v in entries] == pytest.approx(values, abs=1e-12)
    assert disc == pytest.approx(abs(values[0] - values[1]), abs=1e-12)


def _direction_scan(t, w, granularity=720):
    """Chord decompositions of w found by scanning ``granularity`` directions
    plus the directions through each vertex: {endpoint keys: weights}."""
    verts = t.pure_states[:, :2]
    dirs = [np.array([math.cos(math.pi * k / granularity),
                      math.sin(math.pi * k / granularity)])
            for k in range(granularity)]
    dirs += [(v - w[:2]) / np.linalg.norm(v - w[:2]) for v in verts]
    found = {}
    for d in dirs:
        hits = _chord_hits(verts, w[:2], d)
        if hits is None or _polygon_pair_certificate(t, *hits) is None:
            continue
        (a, _, _), (b, _, _) = hits
        la, lb = np.linalg.norm(b - w[:2]), np.linalg.norm(a - w[:2])
        key, p = _chord_key(a, b, la / (la + lb))
        found.setdefault(key, p)
    return found


def _chord_key(a, b, p):
    """Orientation-free key of the chord [a, b] with the weight of a, and
    that weight re-read for the endpoint the key lists first."""
    ka, kb = state_key(a), state_key(b)
    return ((ka, kb), p) if ka <= kb else ((kb, ka), 1.0 - p)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_enumeration_matches_direction_scan(n):
    # for odd n only chords through a vertex are certified, so skipping the
    # direction grid loses no decomposition
    t = make_polygon(n)
    rng = np.random.default_rng(n)
    states = [t.maximally_mixed()]
    states += [rng.dirichlet(np.ones(n)) @ t.pure_states for _ in range(3)]
    for w in states:
        decs = enumerate_decompositions(t, sv(t, w), granularity=720)
        got = dict(
            _chord_key(d.family.states[0].coords[:2],
                       d.family.states[1].coords[:2], d.weights[0])
            for d in decs if len(d.weights) == 2
        )
        want = _direction_scan(t, w)
        assert want and got.keys() == want.keys()
        for key, p in want.items():
            assert got[key] == pytest.approx(p, abs=1e-12)
