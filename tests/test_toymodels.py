"""Closed-form model checks: two-level interference model and the five-site
Fabry-Perot chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openres import hcore
from openres.toymodels import (DegenerateBICCondition, FPChainParams,
                               SingularTransmissionPoint, TwoLevelParams,
                               fp_chain_bic, fp_chain_hamiltonian,
                               fp_chain_middle_branch, fp_chain_model,
                               fp_chain_spectrum, fp_chain_transmission,
                               twolevel_bic_energy, twolevel_bic_point,
                               twolevel_eigenvalues, twolevel_matrix,
                               twolevel_smatrix, twolevel_transmission)


# ---------------------------------------------------------------- 2 levels --

def test_eigenvalues_symmetric_zero_and_superradiant():
    z1, z2 = twolevel_eigenvalues(TwoLevelParams(0.0, 0.1, 0.1, 0.0))
    assert abs(z1 - 0.0) < 1e-14
    assert abs(z2 + 0.2j) < 1e-14


def test_eigenvalues_closed_system():
    z1, z2 = twolevel_eigenvalues(TwoLevelParams(0.7, 0.0, 0.0, 0.0))
    assert z1 == pytest.approx(0.7)
    assert z2 == pytest.approx(-0.7)
    assert z1.imag == 0.0 and z2.imag == 0.0


def test_eigenvalues_satisfy_characteristic_polynomial():
    p = TwoLevelParams(0.3, 0.1, 0.2, 0.05)
    g12 = np.sqrt(p.gamma1 * p.gamma2)
    for z in twolevel_eigenvalues(p):
        res = (z - (p.eps - 1j * p.gamma1)) * (z + p.eps + 1j * p.gamma2) \
            - (p.u - 1j * g12) ** 2
        assert abs(res) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(eps=st.floats(-3, 3), g1=st.floats(0, 1), g2=st.floats(0, 1),
       u=st.floats(-5, 5))
def test_vieta_identities(eps, g1, g2, u):
    p = TwoLevelParams(eps, g1, g2, u)
    z1, z2 = twolevel_eigenvalues(p)
    assert abs((z1 + z2) - (-1j * (g1 + g2))) <= 1e-12 * max(1.0, abs(z1) + abs(z2))
    prod_expect = -(eps + 1j * g1) * (eps - 1j * g2) \
        - (u - 1j * np.sqrt(g1 * g2)) ** 2
    # z1 z2 = -(eps - i g1)(-eps - i g2) ... expand directly from the matrix
    m = twolevel_matrix(p)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(z1 * z2 - det) <= 1e-12 * max(1.0, abs(det))
    del prod_expect


def test_bic_point_symmetric_and_uncoupled():
    assert twolevel_bic_point(0.2, 0.2, 13.0) == 0.0
    assert twolevel_bic_point(0.1, 0.4, 0.0) == 0.0


def test_bic_point_strong_coupling_value_and_real_eigenvalue():
    eps = twolevel_bic_point(0.1, 0.2, 25.0)
    assert eps == pytest.approx(-8.838834764831845, rel=1e-12)
    a = twolevel_bic_energy(0.1, 0.2, 25.0, eps)
    assert a == pytest.approx(-26.516504294495533, rel=1e-12)
    z1, z2 = twolevel_eigenvalues(TwoLevelParams(eps, 0.1, 0.2, 25.0))
    zb = min((z1, z2), key=lambda z: abs(z - a))
    assert abs(zb.imag) <= 1e-12
    assert zb.real == pytest.approx(a, rel=1e-10)


def test_bic_point_degenerate_couplings():
    with pytest.raises(DegenerateBICCondition):
        twolevel_bic_point(0.0, 0.2, 1.0)


def test_transmission_unit_near_symmetric_bic():
    p = TwoLevelParams(0.0, 0.1, 0.1, 0.0)
    t = twolevel_transmission(1e-4, p)
    assert abs(t) == pytest.approx(1.0, abs=1e-6)


def test_transmission_zero_at_band_center():
    p = TwoLevelParams(0.5, 0.1, 0.1, 0.0)
    assert abs(twolevel_transmission(0.0, p)) < 1e-12


def test_transmission_matches_near_bic_lineshape():
    # close to the interference point: T ~ -2 E G / (2 E G + i eps^2) with
    # G = (g1+g2)/2, up to a global phase
    g = 0.1
    for eps, e in [(0.02, 0.003), (0.05, -0.004), (0.01, 0.001)]:
        t = twolevel_transmission(e, TwoLevelParams(eps, g, g, 0.0))
        approx = -2.0 * e * g / (2.0 * e * g + 1j * eps**2)
        assert abs(t) == pytest.approx(abs(approx), abs=2e-2)


def test_transmission_singular_point_flagged():
    p = TwoLevelParams(0.0, 0.1, 0.1, 0.0)
    with pytest.raises(SingularTransmissionPoint):
        twolevel_transmission(0.0, p)


@pytest.mark.parametrize("g1,g2,u", [(0.1, 0.1, 0.0), (0.3, 0.1, 0.5)])
def test_twolevel_transmission_over_arrays_matches_scalar_calls_bit_for_bit(g1, g2, u):
    # rows along the energy (one eig) and along eps (stacked eig), through
    # the real-eigenvalue point (0, 0) of the symmetric model, where the
    # scalar call raises and the row holds NaN
    grid = np.linspace(-1.0, 1.0, 41)

    def scalar(e, eps):
        try:
            return twolevel_transmission(e, TwoLevelParams(eps, g1, g2, u))
        except SingularTransmissionPoint:
            return None

    for fixed in (0.0, 0.35, -1.0):
        by_energy = twolevel_transmission(grid, TwoLevelParams(fixed, g1, g2, u))
        by_eps = twolevel_transmission(fixed, TwoLevelParams(grid, g1, g2, u))
        for j, x in enumerate(grid):
            for got, want in ((by_energy[j], scalar(x, fixed)),
                              (by_eps[j], scalar(fixed, x))):
                assert np.isnan(got) if want is None else got == want
    if (g1, g2, u) == (0.1, 0.1, 0.0):
        assert np.isnan(twolevel_transmission(grid, TwoLevelParams(0.0, g1, g2, u))[20])


def test_transmission_equals_engine_smatrix_entry():
    p = TwoLevelParams(0.23, 0.07, 0.18, 0.4)
    for e in (-0.5, 0.11, 0.9):
        s, chans = twolevel_smatrix(e, p)
        i_l = [i for i, c in enumerate(chans) if c.port == "L"][0]
        i_r = [i for i, c in enumerate(chans) if c.port == "R"][0]
        assert s[i_r, i_l] == pytest.approx(twolevel_transmission(e, p), abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(eps=st.floats(-2, 2), g1=st.floats(0.01, 0.5), g2=st.floats(0.01, 0.5),
       u=st.floats(-2, 2), e=st.floats(-3, 3))
def test_flux_conservation_two_ports(eps, g1, g2, u, e):
    p = TwoLevelParams(eps, g1, g2, u)
    try:
        s, _ = twolevel_smatrix(e, p)
    except hcore.SingularScattering:
        return
    assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-10


@pytest.mark.parametrize("eps, g1, g2", [(1e-14, 0.3125, 0.5), (1e-6, 0.1, 0.1)])
def test_smatrix_near_interference_point_matches_closed_form(eps, g1, g2):
    # u = 0, E = 0: E - H_eff has determinant ~ eps^2 or eps (rcond 1e-14 to
    # 1e-10), but K = (g2 - g1)/eps * [[1, 1], [1, 1]] / 2 is exact, so
    # S = 1 + (exp(-2i arctan kappa) - 1) J/2 with kappa = (g2 - g1)/eps
    s, _ = twolevel_smatrix(0.0, TwoLevelParams(eps, g1, g2, 0.0))
    phase = np.exp(-2j * np.arctan((g2 - g1) / eps))
    exact = np.eye(2) + (phase - 1.0) * np.full((2, 2), 0.5)
    assert np.max(np.abs(s - exact)) < 1e-9
    assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-12


def test_fano_collapse_map_structure():
    # 101x101 map over (eps, E): the transmission zero line E ~ eps*dG/G and
    # the unit line coalesce toward the origin
    g = 0.1
    eps_ax = np.linspace(-2, 2, 101)
    e_ax = np.linspace(-2, 2, 101)
    tmap = np.empty((101, 101))
    for i, eps in enumerate(eps_ax):
        p = TwoLevelParams(eps, g, g, 0.0)
        for j, e in enumerate(e_ax):
            try:
                tmap[i, j] = abs(twolevel_transmission(e, p))
            except SingularTransmissionPoint:
                tmap[i, j] = np.nan
    i0 = np.argmin(np.abs(eps_ax - 0.5))
    col = tmap[i0]
    assert np.nanmin(col) < 0.05              # a zero crosses E=0 at eps != 0
    assert abs(e_ax[np.nanargmin(col)]) <= 0.05
    assert np.nanmax(col) > 0.999             # and a unit maximum nearby
    iz = np.argmin(np.abs(eps_ax - 0.04))     # approaching the interference point
    dist = abs(e_ax[np.nanargmin(tmap[iz])] - e_ax[np.nanargmax(tmap[iz])])
    assert dist <= 0.08                        # zero and unit coalesce


# ------------------------------------------------------------------ chain --

def test_chain_spectrum_closed_forms():
    p = FPChainParams(eps1=-0.5, eps2=0.5, eps_w=0.0, u=0.25, v0=0.5)
    vals, vecs = fp_chain_spectrum(p)
    eta = np.sqrt(0.5**2 + 4 * 0.25**2)
    assert eta == pytest.approx(0.7071067811865476)
    assert np.allclose(vals, [-eta, -0.5, 0.0, 0.5, eta], atol=1e-12)
    # middle eigenvector is (1, -1, d/u, -1, 1)-shaped
    mid = vecs[:, 2]
    target = np.array([1.0, -1.0, 2.0, -1.0, 1.0])
    target /= np.linalg.norm(target)
    assert abs(abs(mid @ target) - 1.0) < 1e-12


def test_chain_decoupled_blocks():
    p = FPChainParams(eps1=-0.3, eps2=0.8, eps_w=0.1, u=0.0, v0=0.5)
    vals, _ = fp_chain_spectrum(p)
    assert np.allclose(np.sort(vals), np.sort([-0.3, -0.3, 0.1, 0.8, 0.8]), atol=1e-14)


def test_chain_bic_at_midpoint_symmetric():
    p = FPChainParams(eps1=-0.5, eps2=0.5, eps_w=0.0, u=0.25, v0=0.5)
    rec = fp_chain_bic(p)
    assert rec.param == pytest.approx(0.0, abs=1e-8)
    assert rec.gamma_res <= 1e-10
    assert rec.classification == "fabry-perot"


def test_chain_bic_generic_midpoint():
    p = FPChainParams(eps1=0.2, eps2=0.9, eps_w=0.5, u=0.3, v0=0.4)
    rec = fp_chain_bic(p)
    assert rec.param == pytest.approx(0.55, abs=1e-8)


def test_chain_width_nonnegative_unique_zero():
    p = FPChainParams(eps1=-0.5, eps2=0.5, eps_w=0.0, u=0.25, v0=0.5)
    eps_grid = np.linspace(-1.0, 1.0, 81)
    widths = np.array([
        fp_chain_middle_branch(FPChainParams(p.eps1, p.eps2, ew, p.u, p.v0)).width
        for ew in eps_grid])
    assert np.all(widths >= -1e-12)
    small = eps_grid[widths < 1e-6]
    assert small.size >= 1
    assert np.all(np.abs(small) < 0.05)  # the only zero sits at the midpoint


def test_chain_transmission_unitary_single_channel():
    p = FPChainParams(eps1=-0.5, eps2=0.5, eps_w=0.3, u=0.25, v0=0.5)
    model = fp_chain_model(p)
    for e in (0.3, 0.7, 1.4):
        s, _ = hcore.smatrix(model(e))
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-10
    assert abs(fp_chain_transmission(0.7, p)) <= 1.0 + 1e-12
