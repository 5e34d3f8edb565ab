"""Spherical-cavity checks: pole couplings and Wigner rotation machinery,
unitary scattering over rotated ports, weak-coupling scalings, and the
interference trapping point of the (4,1)/(1,2) pair."""

import math

import numpy as np
import pytest

from openres import hcore, sph3d, specfun

CAV = sph3d.SphereCavity(radius=10.0, l_max=5, n_max=2)


def test_cavity_degeneracy_and_energies():
    basis = CAV.basis()
    for l in range(0, 6):
        for n in (1, 2):
            e = CAV.energy(l, n)
            count = sum(1 for (ll, m, nn) in basis.labels if ll == l and nn == n)
            assert count == 2 * l + 1
            kap = CAV.kappa(l, n)
            assert e == pytest.approx((kap / 10.0) ** 2, rel=1e-14)


def test_root_conventions_differ():
    half = sph3d.SphereCavity(radius=5.0, root_kind="half-integer")
    sph = sph3d.SphereCavity(radius=5.0, root_kind="spherical")
    assert half.kappa(4, 1) == pytest.approx(5.8684, abs=2e-4)
    assert sph.kappa(4, 1) == pytest.approx(5.6467, abs=2e-4)
    # the near-degenerate trapping pair only exists in the half-integer table
    gap_half = half.kappa(1, 2) - half.kappa(4, 1)
    gap_sph = sph.kappa(1, 2) - sph.kappa(4, 1)
    assert gap_half < 0.6 * gap_sph


def test_pole_coupling_azimuthal_selection():
    chans = sph3d.duct_channels(16.0, ports=("X",))
    w = sph3d.sphere_pole_coupling(CAV, chans)
    basis = CAV.basis()
    for j, ch in enumerate(chans):
        p = ch.label[1]
        for i, (l, m, n) in enumerate(basis.labels):
            if m != p:
                assert w[i, j] == 0.0


def test_monopole_coupling_positive():
    chans = sph3d.duct_channels(1.0, ports=("X",))  # plane channel only
    w = sph3d.sphere_pole_coupling(CAV, chans)
    basis = CAV.basis()
    i = basis.labels.index((0, 0, 1))
    assert w[i, 0].real > 0.0


def test_pole_quadrature_node_doubling_agrees():
    a = sph3d._pole_radial_integrals(CAV, [(0, 1), (1, 1)], n_rho=64)
    b = sph3d._pole_radial_integrals(CAV, [(0, 1), (1, 1)], n_rho=128)
    for key in a:
        assert a[key] == pytest.approx(b[key], abs=1e-7)


def test_rotation_identity_and_norm_preservation():
    chans = sph3d.duct_channels(16.0, ports=("X",))
    w = sph3d.sphere_pole_coupling(CAV, chans)
    ident = sph3d.rotate_coupling(w, CAV, sph3d.WaveguideAttachment("X"))
    assert np.allclose(ident, w, atol=1e-14)
    att = sph3d.WaveguideAttachment("X", alpha=0.7, beta=1.3, gamma=-0.4)
    wr = sph3d.rotate_coupling(w, CAV, att)
    basis = CAV.basis()
    for l in range(0, 6):
        for n in (1, 2):
            idx = [i for i, (ll, m, nn) in enumerate(basis.labels)
                   if ll == l and nn == n]
            assert np.linalg.norm(wr[idx]) == pytest.approx(
                np.linalg.norm(w[idx]), abs=1e-10)


def test_rotation_composition_polar():
    chans = sph3d.duct_channels(16.0, ports=("X",))
    w = sph3d.sphere_pole_coupling(CAV, chans)
    b1, b2 = 0.6, 0.9
    once = sph3d.rotate_coupling(
        sph3d.rotate_coupling(w, CAV, sph3d.WaveguideAttachment("X", beta=b2)),
        CAV, sph3d.WaveguideAttachment("X", beta=b1))
    both = sph3d.rotate_coupling(w, CAV, sph3d.WaveguideAttachment("X", beta=b1 + b2))
    assert np.max(np.abs(once - both)) < 1e-9


def test_smatrix_unitary_two_and_three_ports():
    atts2 = (sph3d.WaveguideAttachment("in"),
             sph3d.WaveguideAttachment("o1", beta=0.7 * np.pi))
    atts3 = (sph3d.WaveguideAttachment("in"),
             sph3d.WaveguideAttachment("o1", beta=math.sqrt(5)),
             sph3d.WaveguideAttachment("o2", beta=math.sqrt(2), alpha=0.1222 * np.pi))
    for atts in (atts2, atts3):
        model = sph3d.sphere_model(CAV, atts)
        for w2 in (0.15, 0.31):
            s, chans = hcore.smatrix(model(w2))
            assert len(chans) == len(atts)
            assert np.max(np.abs(s.conj().T @ s - np.eye(len(chans)))) < 1e-9


def test_duplicate_port_names_rejected():
    with pytest.raises(ValueError):
        sph3d.sphere_model(CAV, (sph3d.WaveguideAttachment("a"),
                                 sph3d.WaveguideAttachment("a", beta=1.0)))


def test_m_block_diagonal_at_common_axis():
    model = sph3d.sphere_model(CAV, (sph3d.WaveguideAttachment("in"),
                                     sph3d.WaveguideAttachment("out", beta=0.0)))
    h = model(0.31).matrix
    basis = CAV.basis()
    for i, (l1, m1, n1) in enumerate(basis.labels):
        for j, (l2, m2, n2) in enumerate(basis.labels):
            if m1 != m2:
                assert abs(h[i, j]) <= 1e-10


def test_weak_coupling_scalings():
    vals = {}
    for r in (8.0, 10.0, 12.0):
        cav = sph3d.SphereCavity(radius=r, l_max=5, n_max=2)
        vals[r] = (sph3d.coupling_norm_sq(cav, 4, 1),
                   abs(cav.energy(1, 2) - cav.energy(4, 1)))
    for r1, r2 in [(8.0, 10.0), (10.0, 12.0), (8.0, 12.0)]:
        w_ratio = vals[r1][0] / vals[r2][0]
        s_ratio = vals[r1][1] / vals[r2][1]
        assert w_ratio == pytest.approx((r2 / r1) ** 3, rel=0.10)
        assert s_ratio == pytest.approx((r2 / r1) ** 2, rel=0.10)


def test_fw_trapping_point_two_ports():
    cav = sph3d.SphereCavity(radius=10.0, l_max=6, n_max=3)
    rec = sph3d.sphere_fw_bic(cav, theta_range=(0.68 * np.pi, 0.78 * np.pi),
                              n_grid=9)
    assert rec.is_bic
    assert rec.gamma_res <= 1e-8
    assert rec.residual <= 1e-7
    assert rec.omega_sq < sph3d.MU_11**2
    # the zero sits at the P_4^1 nodal angle acos(-sqrt(3/7)) up to the
    # evanescent-interference shift
    node = math.acos(-math.sqrt(3.0 / 7.0))
    assert rec.param == pytest.approx(node, abs=0.03)
    weights = sph3d.l_block_weights(rec)
    assert weights.get(4, 0.0) > 0.9


def test_fw_zero_shifts_when_evanescent_channels_removed():
    cav = sph3d.SphereCavity(radius=4.2, l_max=6, n_max=3)
    with_ev = sph3d.sphere_fw_bic(cav, theta_range=(0.68 * np.pi, 0.82 * np.pi),
                                  n_grid=9)
    only_open = sph3d.sphere_fw_bic(cav, theta_range=(0.68 * np.pi, 0.82 * np.pi),
                                    n_grid=9, cutoff_max_sq=1e-6)
    # both interference zeros exist, but dropping the closed channels moves
    # the trapping angle: the full model is required for its location
    assert only_open.is_bic
    assert abs(with_ev.param - only_open.param) > 5e-3


def test_surface_field_grid():
    basis = CAV.basis()
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis.labels.index((4, 1, 1))] = 1 / math.sqrt(2)
    vec[basis.labels.index((4, -1, 1))] = -1 / math.sqrt(2)
    rec = hcore.BICRecord(param=0.7, omega_sq=CAV.energy(4, 1), null_vector=vec,
                          gamma_res=0.0, residual=0.0, is_bic=True,
                          labels=basis.labels)
    theta = np.linspace(0.01, np.pi - 0.01, 12)
    phi = np.linspace(0, 2 * np.pi, 10)
    f = sph3d.surface_field(rec, CAV, theta, phi)
    assert f.shape == (12, 10)
    assert np.all(np.isfinite(f))
    assert np.max(np.abs(f)) > 0


def _pole_coupling_per_entry(cavity, channels):
    """The pole coupling as written before it was built by columns: one
    amplitude, Y_lm norm and radial integral per (mode, channel)."""
    basis = cavity.basis()
    rad = sph3d._pole_radial_integrals(cavity, sorted({ch.label[1:] for ch in channels}))
    w = np.zeros((len(basis), len(channels)), dtype=complex)
    for j, ch in enumerate(channels):
        p, q = ch.label[1], ch.label[2]
        for i, (l, m, n) in enumerate(basis.labels):
            if m != p or l < abs(p):
                continue
            norm = math.sqrt((2 * l + 1) * math.factorial(l - m)
                             / (4.0 * math.pi * math.factorial(l + m)))
            w[i, j] = (cavity.radial_surface_amplitude(l, n)
                       * math.sqrt(2.0 * math.pi) * norm * rad[(l, p, q)])
    return w


@pytest.mark.parametrize("cav", [CAV, sph3d.SphereCavity(radius=4.2, root_kind="spherical")])
def test_pole_coupling_bit_equal_to_per_entry_loop(cav):
    chans = sph3d.duct_channels(16.0, ports=("X",))
    w, old = sph3d.sphere_pole_coupling(cav, chans), _pole_coupling_per_entry(cav, chans)
    assert np.array_equal(w, old)
    assert np.array_equal(np.signbit(w.view(float)), np.signbit(old.view(float)))


def _rotate_coupling_per_n(w_pole, cavity, attachment):
    """The rotation as written before each d^l_mk was shared across n: one
    Wigner evaluation per (l, m, n, k)."""
    idx = {lab: i for i, lab in enumerate(cavity.basis().labels)}
    out = np.zeros_like(w_pole)
    a, b, g = attachment.alpha, attachment.beta, attachment.gamma
    for (l, m, n), i in idx.items():
        phase = np.exp(-1j * m * g)
        acc = np.zeros(w_pole.shape[1], dtype=complex)
        for k in range(-l, l + 1):
            d = specfun.wigner_small_d(l, m, k, b)
            if d == 0.0:
                continue
            acc += np.exp(-1j * k * a) * d * w_pole[idx[(l, k, n)]]
        out[i] = phase * acc
    return out


@pytest.mark.parametrize("att", [
    sph3d.WaveguideAttachment("X", alpha=0.5, beta=1.1, gamma=0.2),
    sph3d.WaveguideAttachment("Y", alpha=-2.3, beta=math.pi / 2, gamma=1.7),
    sph3d.WaveguideAttachment("Z", beta=2.0),
])
def test_rotate_coupling_bit_equal_to_per_n_loop(att):
    chans = sph3d.duct_channels(16.0, ports=("X",))
    w = sph3d.sphere_pole_coupling(CAV, chans)
    assert np.array_equal(sph3d.rotate_coupling(w, CAV, att),
                          _rotate_coupling_per_n(w, CAV, att))
