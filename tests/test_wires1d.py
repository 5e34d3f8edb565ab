"""Exact-solver checks: square well (no trapped states), flux-threaded ring
(closed forms, null structure), spin-layer model (trapping points vs the
full interface system)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openres import wires1d as w

THETA, B, PHI, U0 = np.pi / 4, 10.0, np.pi / 3, -20.0  # reflection-map setup


# ------------------------------------------------------------------ well --

def test_well_free_propagation():
    sol = w.well_solve(w.WellParams(k=1.3, q=1.3, L=2.0))
    assert abs(sol.r) < 1e-14
    assert abs(abs(sol.t) - 1.0) < 1e-14


@settings(deadline=None, max_examples=60)
@given(k=st.floats(0.05, 20.0), q=st.floats(0.05, 20.0), L=st.floats(0.1, 5.0))
def test_well_unitarity(k, q, L):
    sol = w.well_solve(w.WellParams(k, q, L))
    assert abs(sol.r) ** 2 + abs(sol.t) ** 2 == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(k=st.floats(0.05, 20.0), q=st.floats(0.05, 20.0), L=st.floats(0.1, 5.0))
def test_well_det_matches_closed_form(k, q, L):
    p = w.WellParams(k, q, L)
    sol = w.well_solve(p)
    ref = w.well_det_closed_form(p)
    assert abs(sol.det) == pytest.approx(abs(ref), rel=1e-12)


def test_well_det_never_vanishes_on_real_grid():
    # bounded below by 4 k q > 0: no trapped state in the plain well
    assert w.well_det_min_over_grid(n=200) > 0.01


def test_well_resonance_full_transmission():
    # sin(qL) = 0 makes |t| = 1
    q, L = 2.0, np.pi  # qL = 2 pi
    sol = w.well_solve(w.WellParams(k=0.7, q=q, L=L))
    assert abs(sol.t) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ ring --

def test_ring_point_values():
    cf = w.ring_closed_form(w.RingParams(np.pi, 0.0))
    assert cf["Z"] == pytest.approx(20.0, abs=1e-12)
    assert cf["t"] == pytest.approx(0.8j, abs=1e-12)
    assert cf["r"] == pytest.approx(-0.6, abs=1e-12)
    assert abs(cf["t"]) ** 2 + abs(cf["r"]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_ring_half_quantum_flux():
    p = w.RingParams(1.3, np.pi)  # cos(gamma) = -1 in the closed form
    cf = w.ring_closed_form(p)
    sol = w.ring_solve(p)
    assert sol["t"] == pytest.approx(cf["t"], abs=1e-12)
    assert abs(cf["t"]) < 1e-12  # cos(gamma/2) = 0 blocks the ring


def test_ring_solve_matches_closed_form_on_grid():
    ks = np.linspace(0.05, 4 * np.pi, 60)
    gs = np.linspace(0.0, 4 * np.pi, 60)
    worst = 0.0
    for k in ks:
        for g in gs:
            p = w.RingParams(k, g)
            try:
                sol = w.ring_solve(p)
            except w.SingularPoint:
                continue
            cf = w.ring_closed_form(p)
            for key in ("r", "t", "a1", "a2", "b1", "b2"):
                worst = max(worst, abs(sol[key] - cf[key]))
    assert worst < 1e-12


def test_ring_b_amplitudes_are_flux_reversed_a():
    p = w.RingParams(2.2, 1.1)
    sol = w.ring_solve(p)
    rev = w.ring_solve(w.RingParams(2.2, -1.1))
    assert sol["b1"] == pytest.approx(rev["a1"], abs=1e-12)
    assert sol["b2"] == pytest.approx(rev["a2"], abs=1e-12)


def test_ring_periodicity():
    for k, g in [(1.7, 0.9), (5.0, 2.3)]:
        base = w.ring_closed_form(w.RingParams(k, g))
        shifted = w.ring_closed_form(w.RingParams(k, g + 2 * np.pi))
        both = w.ring_closed_form(w.RingParams(k + 2 * np.pi, g + 2 * np.pi))
        for key in ("r", "a1", "a2"):
            assert abs(base[key] - shifted[key]) < 1e-10
        # a flux period shifts the arm gauge phase: |t| invariant, sign flips
        assert abs(base["t"]) == pytest.approx(abs(shifted["t"]), abs=1e-10)
        assert base["t"] == pytest.approx(both["t"], abs=1e-10)


def test_ring_singularity_flag_at_trapping_point():
    with pytest.raises(w.SingularPoint):
        w.ring_solve(w.RingParams(2 * np.pi, 2 * np.pi))


def test_ring_solve_over_arrays_matches_scalar_calls_bit_for_bit():
    # stacked rows through trapping points 2 pi (m, n): NaN there, and every
    # other point carries the bits of its own scalar call
    k = np.linspace(0.05, 4 * np.pi, 37)
    k[7] = 2 * np.pi
    singular = []
    for gamma in (0.0, 2 * np.pi, 1.3):
        row = w.ring_solve(w.RingParams(k, gamma))
        for j, kj in enumerate(k):
            try:
                one = w.ring_solve(w.RingParams(kj, gamma))
            except w.SingularPoint:
                singular.append((kj, gamma))
                assert all(np.isnan(row[key][j]) for key in row if key != "det")
                continue
            assert all(row[key][j] == one[key] for key in one)
    assert (2 * np.pi, 2 * np.pi) in singular
    assert all(kj % (2 * np.pi) == 0 and g % (2 * np.pi) == 0 for kj, g in singular)
    gammas = np.linspace(-3.0, 9.0, 29)
    row = w.ring_solve(w.RingParams(2.7, gammas))
    for j, g in enumerate(gammas):
        one = w.ring_solve(w.RingParams(2.7, g))
        assert all(row[key][j] == one[key] for key in one)
    with pytest.raises(ValueError, match="k must be positive"):
        w.RingParams(np.array([1.0, 0.0]), 0.0)


def test_ring_null_structure_at_trapping_points():
    f0 = 0.5 * np.array([0, 0, 1, -1, -1, 1])
    f0_left_11 = 0.5 * np.array([-1, 1, 1, -1, 0, 0])
    for m in (1, 2):
        for n in (1, 2):
            res = w.ring_bic_analysis(m, n)
            assert res["sigma_min"] <= 1e-10 * res["sigma_max"]
            assert res["right_residual"] <= 1e-10
            assert res["left_residual"] <= 1e-10
            assert abs(res["solvability"]) <= 1e-10
            assert res["particular_residual"] <= 1e-10
            assert abs(abs(np.vdot(res["right_null"], f0)) - 1.0) < 1e-10
    res = w.ring_bic_analysis(1, 1)
    assert abs(abs(np.vdot(res["left_null"], f0_left_11)) - 1.0) < 1e-10
    assert np.allclose(res["particular"], [0, 1, 0.75, 0.25, 0.75, 0.25], atol=1e-10)


def test_ring_transmission_near_point_approximation():
    k0 = g0 = 2 * np.pi
    for dk, dg in [(1e-3, 1e-3), (2e-3, -1e-3), (-1.5e-3, 2e-3)]:
        t = w.ring_solve(w.RingParams(k0 + dk, g0 + dg))["t"]
        approx = w.ring_approx_t(dk, dg)
        assert abs(t - approx) < 5e-3 * max(1.0, abs(approx))


def test_ring_m_zero_rejected():
    with pytest.raises(ValueError):
        w.ring_bic_analysis(0, 1)


# ---------------------------------------------------------------- zeeman --

def test_zeeman_free_space_limit():
    p = w.ZeemanParams(energy=5.0, theta=0.4, L=1.7, b_field=0.0, phi=0.9, u0=0.0)
    s = w.zeeman_scatter(p)
    assert abs(abs(s["t_up"]) - 1.0) < 1e-12
    assert abs(s["r_up"]) < 1e-12
    assert abs(s["r_dn"]) < 1e-12 and abs(s["t_dn"]) < 1e-12


def test_zeeman_flux_conservation_random_draws():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 1000:
        e = rng.uniform(0.5, 29.0)
        L = rng.uniform(0.2, 6.0)
        th = rng.uniform(0.1, 1.4)
        ph = rng.uniform(0.0, np.pi)
        try:
            p = w.ZeemanParams(e, th, L, B, ph, U0)
        except ValueError:
            continue
        if not p.down_evanescent:
            continue
        try:
            s = w.zeeman_scatter(p)
        except w.SingularPoint:
            continue
        assert abs(s["r_up"]) ** 2 + abs(s["t_up"]) ** 2 == pytest.approx(1.0, abs=1e-10)
        checked += 1


def test_zeeman_trapping_points_singular_and_on_printed_curve():
    for parity in ("sym", "asym"):
        pts = w.zeeman_bic_points(THETA, B, PHI, U0, parity)
        assert len(pts) >= 3
        for b in pts:
            assert b.sigma_min <= 1e-7
            assert abs(b.printed_residual) <= 1e-10


def test_zeeman_printed_roots_alone_are_not_singular():
    # the single printed relation traces candidate curves; away from the
    # simultaneous-matching intersections the full system stays regular
    p0 = w.ZeemanParams(20.0, THETA, 1.0, B, PHI, U0)
    roots = w.zeeman_printed_roots(p0, "sym")
    assert roots
    sigmas = [w.zeeman_sigma_min(w.ZeemanParams(20.0, THETA, L, B, PHI, U0))
              for L in roots]
    assert min(sigmas) > 1e-7


def test_zeeman_small_tilt_limit_decoupled_channels():
    # phi -> 0: candidate roots approach q2 tan(q2 L/2) = |kzd|
    p0 = w.ZeemanParams(20.0, THETA, 1.0, B, 1e-5, U0)
    roots = np.array(w.zeeman_printed_roots(p0, "sym", l_range=(1e-3, 3.0)))
    ref = np.array(w._branch_lengths(p0.q2, abs(p0.kzd), "sym", 3.0))
    for r in ref:
        assert np.min(np.abs(roots - r)) < 1e-3


def test_zeeman_profile_matching_at_interface():
    pts = w.zeeman_bic_points(THETA, B, PHI, U0, "sym")
    b = pts[0]
    p = w.ZeemanParams(b.energy, THETA, b.L, B, PHI, U0)
    a, bb, cc = b.coefficients
    c, s = math.cos(PHI / 2), math.sin(PHI / 2)
    half = b.L / 2
    # closed forms on both sides, evaluated exactly at the wall
    dn_in = a * s * math.cos(p.q1 * half) + bb * c * math.cos(p.q2 * half)
    dn_out = cc * math.exp(-abs(p.kzd) * half)
    dpn_in = -a * s * p.q1 * math.sin(p.q1 * half) - bb * c * p.q2 * math.sin(p.q2 * half)
    dpn_out = -abs(p.kzd) * cc * math.exp(-abs(p.kzd) * half)
    up_in = a * c * math.cos(p.q1 * half) - bb * s * math.cos(p.q2 * half)
    up_der_in = -a * c * p.q1 * math.sin(p.q1 * half) + bb * s * p.q2 * math.sin(p.q2 * half)
    assert abs(dn_in - dn_out) < 1e-10
    assert abs(dpn_in - dpn_out) < 1e-10
    assert abs(up_in) < 1e-10
    assert abs(up_der_in) < 1e-10


def test_zeeman_lowest_profiles_node_counts():
    # textbook-profile regime: lowest symmetric mode nodeless, lowest
    # antisymmetric mode with the single central node
    th, bf, ph, u0 = 0.3, 10.0, np.pi / 3, -2.0
    z = np.linspace(-8, 8, 6001)
    for parity, expected in (("sym", 0), ("asym", 1)):
        pts = w.zeeman_bic_points(th, bf, ph, u0, parity, l_range=(1e-3, 8.0))
        b = min(pts, key=lambda x: x.L)
        _, dn = w.zeeman_bic_profile(b, th, bf, ph, u0, z)
        inside = np.abs(z) < b.L / 2 * 0.999
        sgn = np.sign(dn[inside])
        sgn = sgn[sgn != 0]
        assert int(np.sum(sgn[1:] != sgn[:-1])) == expected


def test_zeeman_invalid_configurations_rejected():
    with pytest.raises(ValueError):
        w.ZeemanParams(energy=1.0, theta=0.3, L=1.0, b_field=10.0, phi=0.5, u0=30.0)
    with pytest.raises(ValueError):
        w.ZeemanParams(energy=1.0, theta=0.3, L=-1.0, b_field=1.0, phi=0.5, u0=0.0)
    with pytest.raises(ValueError):
        w.zeeman_printed_residual(
            w.ZeemanParams(5.0, 0.4, 1.7, 0.0, 0.9, 0.0), "sym")
