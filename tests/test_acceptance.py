"""End-to-end acceptance checks, one summary line per criterion."""

import hashlib
import json
import math
import time

import mpmath
import numpy as np
import pytest

from gpt_lab.cli import _mur_one_theory, main
from gpt_lab.compatibility import (
    _w_and_C,
    are_compatible,
    busch_unbiased_compatible,
    degree_of_incompatibility,
    disc_axis_observable,
    estimate_t0,
    incompatibility_dimension_qubit,
    mutually_unbiased_pair,
    xi_bounds,
)
from gpt_lab.gpt_core import make_disc, make_polygon
from gpt_lab.mixing_entropy import consistency_check, odd_alpha
from gpt_lab.observables import ideal_observables
from gpt_lab.uncertainty import (
    gamma_closed_form,
    landau_pollak_gamma,
    max_statistics_sum,
)

SQ2INV = 1.0 / math.sqrt(2.0)


def report(line):
    print(f"\n{line}: PASS")


def test_criterion_1_mu_compatibility_boundary():
    start = time.monotonic()
    t = make_disc()
    for s in (0.65, 0.70, 0.7072, 0.75, 0.9):
        if abs(s - SQ2INV) < 1e-4:
            continue
        want = s <= SQ2INV
        assert busch_unbiased_compatible(
            0.0, [s, 0, 0], 0.0, [0, s, 0]) == want
        assert are_compatible(*mutually_unbiased_pair(t, s))[0] == want
    assert time.monotonic() - start < 10.0
    report("criterion 1 (MU compatibility boundary)")


def test_criterion_2_landau_pollak():
    assert gamma_closed_form(None, math.pi / 2) == pytest.approx(1 + SQ2INV, abs=1e-9)
    theta = 2 * math.pi / 3
    disc_gamma = 1 + math.sqrt(3) / 2
    assert gamma_closed_form(None, theta) == pytest.approx(disc_gamma, abs=1e-9)
    for m in range(1, 9):
        g = gamma_closed_form(3 * m, theta)
        if m in (1, 2):
            assert g == pytest.approx(2.0, abs=1e-9)
        assert g >= disc_gamma - 1e-9
    for n in range(3, 25):
        t = make_polygon(n)
        for i in range(1, (n - 1) // 2 + 1):
            # numeric-vs-closed-form agreement to 1e-9 is asserted inside
            landau_pollak_gamma(t, i)
    report("criterion 2 (Landau-Pollak bounds)")


def test_criterion_3_degree_of_incompatibility():
    start = time.monotonic()
    lam_disc, _ = degree_of_incompatibility(*mutually_unbiased_pair(make_disc(), 1.0))
    assert lam_disc == pytest.approx(SQ2INV, abs=1e-4)
    square = make_polygon(4)
    lam_sq, _ = degree_of_incompatibility(*ideal_observables(square))
    assert lam_sq == pytest.approx(0.5, abs=1e-4)
    assert time.monotonic() - start < 60.0
    report("criterion 3 (degree of incompatibility)")


def test_criterion_4_incompatibility_dimension():
    sharp = incompatibility_dimension_qubit(1.0, grid=256)
    assert sharp.chi_incomp == 2
    assert sharp.chi_comp == 3
    near = incompatibility_dimension_qubit(SQ2INV + 0.005, grid=256)
    assert near.chi_incomp == 3
    assert near.chi_comp == 3
    t0 = estimate_t0(grid=256, tol=1e-3)
    t0_fine = estimate_t0(grid=512, tol=1e-3)
    assert SQ2INV < t0 < 1.0
    assert abs(t0 - t0_fine) < 1e-3
    report("criterion 4 (incompatibility dimension)")


def test_criterion_5_witness_property_suite():
    for name in ("Polygon(5)", "Polygon(12)", "Disc", "Simplex(3)"):
        res = _mur_one_theory((name, 100, [0.1, 0.25, 0.5], 0))
        assert res["violations"] == [], name
        assert all(v >= -1e-9 for v in res["min_slacks"].values()), name
    report("criterion 5 (uncertainty witness properties)")


def test_criterion_6_entropy_of_mixing():
    log2 = math.log(2.0)
    for t in (make_polygon(3), make_disc()):
        rep = consistency_check(t)
        assert rep.verdict == "consistent" and rep.discrepancy < 1e-9
    disc_rep = consistency_check(make_disc())
    assert any(abs(v - log2) < 1e-9 for _, v in disc_rep.entries)
    for n in range(4, 25):
        rep = consistency_check(make_polygon(n))
        assert rep.verdict == "inconsistent" and rep.discrepancy > 1e-3, n

    with mpmath.workdps(50):
        def direct(a):
            a2 = a * a
            v1 = 1 - 4 * a2
            t2 = v1 / 2 * mpmath.log(v1) if v1 > 0 else 0
            return 2 * a2 * mpmath.log(2) + t2 - (1 - 2 * a2) * mpmath.log(1 - 2 * a2)

        def boot(a, s):
            # sign branch: s = -1 for n = 3 mod 4, s = +1 for n = 1 mod 4
            x = 1 + 2 * s * a
            t1 = x * mpmath.log(x) if x > 0 else 0
            return t1 - (2 + 2 * s * a) * mpmath.log(1 + s * a)

        # the two forms coincide at the closed-form boundary points:
        # alpha = 1/2 (the triangle, sign branch -1) and alpha -> 0
        half = mpmath.mpf(1) / 2
        assert abs(direct(half) - mpmath.log(2)) < mpmath.mpf("1e-45")
        assert abs(boot(half, -1) - mpmath.log(2)) < mpmath.mpf("1e-45")
        assert abs(boot(0, -1)) == 0 and abs(boot(0, 1)) == 0 and abs(direct(0)) == 0

        a5 = mpmath.sin(mpmath.pi / 10)
        oracle = float(abs(direct(a5) - boot(a5, 1)))
    got = consistency_check(make_polygon(5)).discrepancy
    assert abs(got - oracle) < 1e-10
    assert odd_alpha(3) == pytest.approx(0.5, abs=1e-15)
    report("criterion 6 (entropy of mixing)")


def test_criterion_7_xi_identities_and_busch_vs_lp():
    grid = (np.arange(64) + 0.5) * (math.pi / 2) / 64
    for t in (0.71, 0.8, 0.95):
        worst = 0.0
        for phi0 in grid:
            for psi0 in grid:
                x1m, x1M, x2m, x2M = xi_bounds(t, phi0, psi0)
                for ang, xi, sign in (
                    (phi0, x1m, -1.0), (phi0, x1M, +1.0),
                    (math.pi / 2 - phi0, x2m, -1.0),
                    (math.pi / 2 - phi0, x2M, +1.0),
                ):
                    w, c = _w_and_C(t, ang, psi0, xi)
                    worst = max(worst, abs(1.0 + sign * w - c))
        assert worst < 1e-10, t

    theory = make_disc()
    rng = np.random.default_rng(2026)
    for _ in range(200):
        ta, tb = rng.uniform(0.05, 1.0, size=2)
        pa, pb = rng.uniform(0.0, 2 * math.pi, size=2)
        f = disc_axis_observable(theory, ta, pa)
        g = disc_axis_observable(theory, tb, pb)
        a = ta * np.array([math.cos(pa), math.sin(pa), 0.0])
        b = tb * np.array([math.cos(pb), math.sin(pb), 0.0])
        if min(abs(np.linalg.norm(a + b) + np.linalg.norm(a - b) - 2.0), 1) < 1e-6:
            continue  # skip knife-edge instances where LP tolerance decides
        assert are_compatible(f, g)[0] == busch_unbiased_compatible(0.0, a, 0.0, b)
    report("criterion 7 (defining identities and Busch vs LP)")


def test_criterion_8_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"t_steps": 2, "grid": 96, "trials": 20, "granularity": 90}))
    runs = {
        "gamma-table": ["gamma-table", "--config", str(cfg)],
        "incompat-scan": ["incompat-scan", "--config", str(cfg)],
        "mixing-sweep": ["mixing-sweep", "--config", str(cfg)],
        "mur-properties": ["mur-properties", "--config", str(cfg), "--seed", "11"],
    }
    # sha256 of each command's --jobs 1 output at this config
    pinned = {
        "gamma-table":
            "446e3f810c2367f94bb8ab3effa01f23cac4829bb329b01f0c51358fcc2c7abc",
        "incompat-scan":
            "3561c7c6e17bd781d1ac6ec9d89345a7ef2df6ac9a0844417d898c30afd221ab",
        "mixing-sweep":
            "fa7ce571c59af2d84fd20823a2021d9bea1875c6847da4464dbecb39870ac125",
        "mur-properties":
            "0d172a03dd2bbda555ac79d9f60440606540fd391dff48beb2299db982661390",
    }
    for name, argv in runs.items():
        p1 = tmp_path / f"{name}-1.out"
        p2 = tmp_path / f"{name}-2.out"
        assert main([*argv, "--out", str(p1)]) == 0
        assert main([*argv, "--out", str(p2), "--jobs", "2"]) == 0
        assert p1.read_bytes() == p2.read_bytes(), name
        digest = hashlib.sha256(p1.read_bytes()).hexdigest()
        assert digest == pinned[name], (
            f"{name} output changed ({pinned[name]} -> {digest}); if the change "
            "is intended, update the pin and record both hashes in CHANGES.md")
    report("criterion 8 (CLI determinism)")
