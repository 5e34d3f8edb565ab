"""Cylindrical-resonator checks: duct overlaps against the closed-form
constants and a 2-D quadrature of the port disk, port phase relation,
wave-faucet transmittance, twisted zero-width points and the three-mode
truncated theory."""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import jv

from openres import cyl3d, hcore

CAV = cyl3d.CylCavity(radius=3.0, length=5.0, m_max=3, n_max=2, l_max=5)
PQ = [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1)]


@pytest.fixture(scope="module")
def overlaps():
    return cyl3d.disk_overlaps(CAV, 1.5, PQ)


def test_duct_cutoffs_match_root_table():
    chans = cyl3d.duct_channels(16.0, ports=("R",))
    cuts = sorted({c.cutoff_sq for c in chans})
    assert cuts[0] == 0.0
    assert math.sqrt(cuts[1]) == pytest.approx(1.84118, abs=1e-5)
    assert math.sqrt(cuts[2]) == pytest.approx(3.0542, abs=1e-4)
    assert math.sqrt(cuts[3]) == pytest.approx(3.831706, abs=1e-6)


def test_overlaps_reproduce_closed_form_couplings(overlaps):
    L = CAV.length
    w0 = overlaps[(0, 1, 0, 1)] * CAV.z_factor(2, 0.0)
    w1 = overlaps[(1, 1, 0, 1)] * CAV.z_factor(1, 0.0)
    v1 = overlaps[(1, 1, 1, 1)] * CAV.z_factor(1, 0.0)
    v2 = overlaps[(-1, 1, 1, 1)] * CAV.z_factor(1, 0.0)
    assert w0.real == pytest.approx((1 / 3) * math.sqrt(2 / L), rel=1e-6)
    assert w1.real == pytest.approx(0.269 / math.sqrt(L), rel=0.01)
    assert v1.real == pytest.approx(0.1141 / math.sqrt(L), rel=0.01)
    assert v2.real == pytest.approx(-0.0141 / math.sqrt(L), rel=0.01)
    # plane cross-section cavity mode vs p=1 duct mode: exact azimuthal zero
    assert abs(overlaps[(0, 1, 1, 1)]) < 1e-12


def test_coaxial_port_azimuthal_selection():
    k = cyl3d.disk_overlaps(CAV, 0.0, PQ)
    assert abs(k[(1, 1, 0, 1)]) < 1e-12
    assert abs(k[(0, 1, 1, 1)]) < 1e-12
    assert abs(k[(2, 1, 1, 1)]) < 1e-12
    assert abs(k[(1, 1, 1, 1)]) > 0.05


@lru_cache(maxsize=8)
def _disk_grid(r0, n_rho, n_alpha):
    """Gauss-Legendre (radius) x trapezoid (angle) nodes on the port disk
    centred at r0: rho, weights with the Jacobian rho, alpha, the angle
    weight, and the cavity polar coordinates (r, phi) of each node."""
    t, wq = np.polynomial.legendre.leggauss(n_rho)
    rho = 0.5 * (t + 1.0)
    alpha = np.linspace(0.0, 2.0 * math.pi, n_alpha, endpoint=False)
    rg = np.sqrt(r0**2 + rho[:, None]**2 + 2 * r0 * rho[:, None] * np.cos(alpha)[None, :])
    phig = np.arctan2(rho[:, None] * np.sin(alpha)[None, :],
                      r0 + rho[:, None] * np.cos(alpha)[None, :])
    return rho, 0.5 * wq * rho, alpha, 2.0 * math.pi / n_alpha, rg, phig


@lru_cache(maxsize=64)
def _cavity_profile_on_disk(m, n, radius, r0, nodes):
    return cyl3d.radial_profile(m, n, radius, _disk_grid(r0, *nodes)[4])


def _quadrature_overlap(radius, r0, m, n, p, q, dphi=0.0, nodes=(128, 512)):
    """(1/2pi) intint psi_pq e^{i p a} psi_mn e^{-i m phi} over the port disk
    centred at azimuth dphi, by 2-D quadrature on the disk."""
    rho, wr, alpha, wa, _, phig = _disk_grid(r0, *nodes)
    cavf = _cavity_profile_on_disk(abs(m), n, radius, r0, nodes) * np.exp(-1j * m * (phig + dphi))
    duct = (cyl3d.radial_profile(p, q, 1.0, rho)[:, None]
            * np.exp(1j * p * (alpha + dphi))[None, :])
    return (wa / (2 * math.pi)) * np.sum(wr[:, None] * duct * cavf)


def test_port_phase_relation_against_independent_quadrature(overlaps):
    # rotated-port couplings recomputed geometrically: the duct phase is
    # referenced in the lab frame, the disk sits at azimuth dphi
    dphi = 0.7
    for (m, n, p, q) in [(1, 1, 0, 1), (2, 1, 1, 1), (-1, 1, 1, 1), (3, 1, -1, 1)]:
        rotated = _quadrature_overlap(3.0, 1.5, m, n, p, q, dphi)
        expect = overlaps[(m, n, p, q)] * np.exp(1j * (p - m) * dphi)
        assert rotated == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("radius,r0,m_max,n_max", [
    (3.0, 1.5, 4, 3), (3.0, 0.0, 4, 3), (2.5, 1.5, 5, 4), (2.5, 0.75, 5, 4)])
def test_closed_form_overlaps_match_disk_quadrature(radius, r0, m_max, n_max):
    # every (m, n, p, q) entry of the Graf/Lommel closed form against the
    # 2-D quadrature of the port disk (entries up to 0.67 in size; they
    # agree to 1.4e-15, while a Lommel form that drops its J'_p(mu_pq) term,
    # about 1e-14 at the bisected roots, misses by 8.7e-14)
    cav = cyl3d.CylCavity(radius, 4.0, m_max, n_max, 2)
    pq = sorted({ch.label[1:] for ch in cyl3d.duct_channels(16.0)})
    k = cyl3d.disk_overlaps(cav, r0, pq)
    assert len(k) == (2 * m_max + 1) * n_max * len(pq)
    for (m, n, p, q), val in k.items():
        assert val == pytest.approx(
            _quadrature_overlap(radius, r0, m, n, p, q, nodes=(64, 256)), abs=1e-14)


def _radial_integral_oracle(p, a, b):
    t, w = np.polynomial.legendre.leggauss(200)
    rho = 0.5 * (t + 1.0)
    return float(np.sum(0.5 * w * rho * jv(p, a * rho) * jv(p, b * rho)))


@pytest.mark.parametrize("p,a", [(0, 0.0), (0, 3.831705970207512),
                                 (1, 1.841183781340659), (2, 3.054236928227140),
                                 (4, 5.317553126083994)])
def test_radial_integral_continuous_through_a_equals_b(p, a):
    # the Lommel difference form hands over to quadrature within 1e-3 of
    # a = b: both sides of that switch and the nearly equal arguments agree
    # with an independent quadrature (scipy's J_p)
    rels = (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 0.999e-3, -0.999e-3, 1.001e-3, -1.001e-3,
            1e-2, -1e-2, 0.5)
    for b in [a * (1.0 + rel) for rel in rels] + [0.0, 0.7]:
        assert cyl3d.radial_integral(p, a, b) == pytest.approx(
            _radial_integral_oracle(p, a, b), abs=1e-12)


def test_left_port_face_factor():
    model = cyl3d.cyl_model(CAV, dphi=0.0)
    jr = [j for j, ch in enumerate(model.channels)
          if ch.port == "R" and ch.label[1:] == (0, 1)][0]
    jl = [j for j, ch in enumerate(model.channels)
          if ch.port == "L" and ch.label[1:] == (0, 1)][0]
    for i, (m, n, l) in enumerate(model.basis.labels):
        assert model.w[i, jl] == pytest.approx(
            (-1.0) ** (l - 1) * model.w[i, jr], abs=1e-14)


def _cyl_coupling_per_entry(cavity, dphi, r0=1.5, cutoff_max_sq=16.0):
    """The W of ``cyl_model`` as written before it was built by columns:
    one overlap, z factor and port phase per (mode, channel)."""
    channels = cyl3d.duct_channels(cutoff_max_sq)
    overlaps = cyl3d.disk_overlaps(cavity, r0, sorted({ch.label[1:] for ch in channels}))
    basis = cavity.basis()
    w = np.zeros((len(basis), len(channels)), dtype=complex)
    for j, ch in enumerate(channels):
        p, q = ch.label[1], ch.label[2]
        for i, (m, n, l) in enumerate(basis.labels):
            base = overlaps[(m, n, p, q)] * cavity.z_factor(l, 0.0)
            if ch.port == "R":
                w[i, j] = base
            else:
                w[i, j] = (-1.0) ** (l - 1) * np.exp(1j * (p - m) * dphi) * base
    return w


@pytest.mark.parametrize("cav, dphi, r0", [
    (CAV, 0.7, 1.5), (CAV, -2.9, 1.2), (cyl3d.CylCavity(), 0.5 * math.pi, 1.5)])
def test_coupling_bit_equal_to_per_entry_loop(cav, dphi, r0):
    w = cyl3d.cyl_model(cav, dphi, r0).w
    old = _cyl_coupling_per_entry(cav, dphi, r0)
    assert np.array_equal(w, old)
    assert np.array_equal(np.signbit(w.view(float)), np.signbit(old.view(float)))


def test_smatrix_unitary_single_channel_band():
    model = cyl3d.cyl_model(CAV, dphi=np.pi / 4)
    for w2 in (0.4, 1.0, 2.5):
        s, chans, _ = cyl3d.cyl_transmittance(model, w2)
        assert np.max(np.abs(s.conj().T @ s - np.eye(len(chans)))) < 1e-9


def test_time_reversal_mirror_symmetry():
    # transmittance invariant under dphi -> -dphi with conjugation
    for w2 in (0.5, 1.3):
        sp, _, _ = cyl3d.cyl_transmittance(cyl3d.cyl_model(CAV, dphi=0.9), w2)
        sm, _, _ = cyl3d.cyl_transmittance(cyl3d.cyl_model(CAV, dphi=-0.9), w2)
        assert np.max(np.abs(np.abs(sm) - np.abs(sp.conj()))) < 1e-9


def test_wave_faucet_crossings():
    # 012/±111 crossing near L=5: blocked at dphi=0, open at dphi=pi
    cav5 = cyl3d.CylCavity(radius=3.0, length=5.12, m_max=3, n_max=2, l_max=5)
    w2 = (math.pi / 5.12) ** 2
    t_closed = abs(cyl3d.cyl_transmittance(cyl3d.cyl_model(cav5, 0.02), w2)[2]) ** 2
    t_open = abs(cyl3d.cyl_transmittance(cyl3d.cyl_model(cav5, np.pi), w2)[2]) ** 2
    assert t_open > 0.5
    assert t_closed < 0.05
    # 012/±211 crossing near L=3: open at dphi = pi/2
    cav3 = cyl3d.CylCavity(radius=3.0, length=3.08, m_max=3, n_max=2, l_max=5)
    w23 = (math.pi / 3.08) ** 2
    t_quarter = abs(cyl3d.cyl_transmittance(cyl3d.cyl_model(cav3, np.pi / 2), w23)[2]) ** 2
    t_zero = abs(cyl3d.cyl_transmittance(cyl3d.cyl_model(cav3, 0.02), w23)[2]) ** 2
    t_pi = abs(cyl3d.cyl_transmittance(cyl3d.cyl_model(cav3, np.pi), w23)[2]) ** 2
    assert t_quarter > 0.5
    assert t_zero < 0.15 and t_pi < 0.15


def test_symmetry_protected_at_zero_and_pi():
    # a (111, -111)-dominated combination stays decoupled from the open
    # channel at dphi = 0 and pi for any length: exactly real eigenvalue
    for length in (4.0, 5.0, 6.3):
        cav = cyl3d.CylCavity(radius=3.0, length=length, m_max=3, n_max=2, l_max=5)
        for dphi in (0.0, np.pi):
            model = cyl3d.cyl_model(cav, dphi)
            h = model(0.37)
            vals, vecs = np.linalg.eig(h.matrix)
            lab = model.basis.labels
            i1, i2 = lab.index((1, 1, 1)), lab.index((-1, 1, 1))
            found = False
            for j in np.where(np.abs(vals.imag) < 1e-12)[0]:
                v = vecs[:, j] / np.linalg.norm(vecs[:, j])
                if abs(v[i1]) ** 2 + abs(v[i2]) ** 2 > 0.5:
                    found = True
            assert found


def _no_mode_basis_matrix(self):
    raise AssertionError("the mode-basis H_eff was formed")


def test_angle_scan_works_in_one_block(monkeypatch):
    # the rotation blocks turn with dphi, so a vector of one angle is split
    # over the blocks of the next: every step continues it inside the block
    # that holds the larger part, and the n x n H_eff is never formed
    monkeypatch.setattr(hcore.EffectiveHamiltonian, "matrix", property(_no_mode_basis_matrix))
    recs = cyl3d.cyl_find_bics(cyl3d.CylCavity(3.0, 4.0, 4, 3, 6), 0.0, "angle",
                               np.linspace(0.2 * math.pi, 0.42 * math.pi, 12))
    assert [r.param for r in recs] == pytest.approx([0.970604511837446, 1.1200964739772699],
                                                    rel=1e-12)
    assert [r.omega_sq for r in recs] == pytest.approx([1.986401342158585, 2.6175223202978657],
                                                       rel=1e-12)
    assert all(r.is_bic for r in recs)


def test_cyl_find_bics_near_012_111_crossing():
    grid = np.linspace(4.7, 5.4, 15)
    recs = cyl3d.cyl_find_bics(CAV, np.pi / 4, "length", grid)
    assert recs
    best = min(recs, key=lambda r: abs(r.param - 5.06))
    assert best.is_bic
    assert best.omega_sq == pytest.approx(0.385, rel=0.02)
    assert best.param == pytest.approx(5.065, rel=0.02)
    exp = hcore.bic_mode(best, best.labels)
    doms = {lab for lab, c in exp[:3]}
    assert doms == {(0, 1, 2), (1, 1, 1), (-1, 1, 1)}
    proj = cyl3d.port_channel_projection(
        best, cyl3d.cyl_model(cyl3d.CylCavity(3.0, best.param, 3, 2, 5), np.pi / 4))
    assert all(abs(v) <= 1e-4 for v in proj.values())


def test_cyl_find_bics_invariant_under_basis_permutation(monkeypatch):
    # listing the modes in a random order changes nothing but rounding: the
    # Brent root moves by ~2e-15, where the golden-section width minimum
    # moved by ~2e-9
    cav = cyl3d.CylCavity(3.0, 3.0, m_max=3, n_max=2, l_max=4)
    grid = np.linspace(2.95, 3.15, 5)
    recs = cyl3d.cyl_find_bics(cav, np.pi / 4, "length", grid)
    basis = cyl3d.CylCavity.basis

    def permuted(self):
        b = basis(self)
        order = np.random.default_rng(3).permutation(len(b))
        return hcore.ClosedBasis(tuple(b.labels[i] for i in order), b.energies[order])
    monkeypatch.setattr(cyl3d.CylCavity, "basis", permuted)
    moved = cyl3d.cyl_find_bics(cav, np.pi / 4, "length", grid)
    assert len(recs) == len(moved) == 1 and recs[0].is_bic and moved[0].is_bic
    assert moved[0].labels != recs[0].labels
    assert moved[0].param == pytest.approx(recs[0].param, rel=1e-10, abs=0.0)
    assert moved[0].omega_sq == pytest.approx(recs[0].omega_sq, rel=1e-10, abs=0.0)


def test_surface_field_shape():
    rec_like = hcore.BICRecord(param=5.0, omega_sq=0.39,
                               null_vector=np.array([1.0, 0.0], dtype=complex),
                               gamma_res=0.0, residual=0.0, is_bic=True,
                               labels=((1, 1, 1), (0, 1, 2)))
    phi = np.linspace(0, 2 * np.pi, 16)
    z = np.linspace(0, 5.0, 8)
    f = cyl3d.surface_field(rec_like, cyl3d.CylCavity(3.0, 5.0), phi, z)
    assert f.shape == (16, 8)
    assert np.all(np.isfinite(f))


# --------------------------------------------------------------- truncated --

def test_cmt_levels_and_degeneracy_restoration():
    tc = cyl3d.TruncatedCMT()
    w2 = (math.pi / 5.0) ** 2
    e1, e2, e3 = cyl3d.cmt_levels(tc, 5.0, np.pi / 2, w2)
    assert e2 == pytest.approx(e3, abs=1e-15)
    e1b, e2b, e3b = cyl3d.cmt_levels(tc, 5.0, np.pi / 4, w2)
    assert e2b > e3b  # v1 v2 < 0 lifts the trapping-capable branch


def test_cmt_bic_length_and_line():
    tc = cyl3d.TruncatedCMT()
    lc, w2c = cyl3d.cmt_bic_length(tc, np.pi / 4)
    assert lc == pytest.approx(5.0512, rel=0.02)
    assert w2c == pytest.approx(0.3873, rel=0.01)
    # line of trapping lengths is monotone over the first quarter turn
    lcs = [cyl3d.cmt_bic_length(tc, f)[0] for f in np.linspace(0.12 * np.pi, 0.45 * np.pi, 7)]
    assert np.all(np.diff(lcs) > 0)


def test_cmt_zero_width_at_trapping_point():
    tc = cyl3d.TruncatedCMT()
    lc, _ = cyl3d.cmt_bic_length(tc, np.pi / 4)
    widths = cyl3d.cmt_widths(tc, lc, np.pi / 4)
    assert widths.min() <= 1e-10
    assert np.sort(widths)[1] > 1e-4  # the other two branches stay lossy


def test_cmt_hamiltonian_matches_printed_structure():
    tc = cyl3d.TruncatedCMT()
    length, dphi = 5.0, 0.6
    w2 = 0.36
    h = cyl3d.cmt_heff(tc, length, dphi, w2).matrix
    q11 = math.sqrt(cyl3d.MU_11**2 - w2)
    v1, v2 = tc.v1_coef / math.sqrt(length), tc.v2_coef / math.sqrt(length)
    w0, w1 = tc.w0_coef / math.sqrt(length), tc.w1_coef / math.sqrt(length)
    omega = math.sqrt(w2)
    # Hermitian part: diagonal shift 2 q11 (v1^2+v2^2) on the degenerate pair
    assert h[0, 0] == pytest.approx((math.pi / length) ** 2 - 2j * omega * w0**2)
    diag_shift = 2 * q11 * (v1**2 + v2**2)
    assert h[1, 1].real == pytest.approx(tc.omega111_sq() + diag_shift, rel=1e-12)
    assert h[2, 2].real == pytest.approx(tc.omega111_sq() + diag_shift, rel=1e-12)
    # off-diagonal evanescent coupling, |2 q11 v1 v2 (1 + e^{2i dphi})|
    expect = abs(2 * q11 * v1 * v2 * (1 + np.exp(2j * dphi)))
    assert abs(h[1, 2].real + 1j * h[1, 2].imag) == pytest.approx(
        abs(h[2, 1]), rel=1e-12)
    herm = 0.5 * (h + h.conj().T)
    assert abs(herm[1, 2]) == pytest.approx(expect, rel=1e-10)


def test_cmt_bic_vector_decouples_from_both_ports():
    tc = cyl3d.TruncatedCMT()
    for dphi in (np.pi / 4, 0.7):
        lc, _ = cyl3d.cmt_bic_length(tc, dphi)
        v = cyl3d.cmt_bic_vector(tc, lc, dphi)
        w0 = tc.w0_coef / math.sqrt(lc)
        w1 = tc.w1_coef / math.sqrt(lc)
        w_r = np.array([w0, w1, w1])
        ms = np.array([0, 1, -1])
        w_l = (-1.0) ** np.array([1, 0, 0]) * np.exp(1j * (0 - ms) * dphi) * w_r
        assert abs(np.conj(w_r) @ v) < 1e-12
        assert abs(np.conj(w_l) @ v) < 1e-12


def test_length_scan_records_carry_their_own_mode_labels():
    # the energy order of the modes changes along the scan; each record's
    # null vector, read through its labels, must be the eigenvector of the
    # energy-ordered model at its own (L, omega^2)
    cav = cyl3d.CylCavity(3.0, 3.0, m_max=2, n_max=2, l_max=4)
    recs = cyl3d.cyl_find_bics(cav, np.pi / 4, "length", np.linspace(2.6, 5.5, 12))
    assert len(recs) >= 5
    for rec in recs:
        model = cyl3d.cyl_model(cyl3d.CylCavity(3.0, rec.param, 2, 2, 4), np.pi / 4)
        vals, vecs = np.linalg.eig(model(rec.omega_sq).matrix)
        j = int(np.argmin(np.abs(vals - rec.omega_sq)))
        pos = {lab: i for i, lab in enumerate(rec.labels)}
        vec = rec.null_vector[[pos[lab] for lab in model.basis.labels]]
        assert abs(np.vdot(vecs[:, j], vec)) >= 0.99 * np.linalg.norm(vecs[:, j])


# the cylinder search of the benchmark's bics workload
BENCH_CAV = cyl3d.CylCavity(3.0, 3.0, m_max=4, n_max=3, l_max=6)
BENCH_GRID = np.linspace(2.95, 3.15, 5)


def _no_dense_eig(*args, **kwargs):
    raise AssertionError("dense eig in the cylinder BIC search")


def _bench_models():
    order = cyl3d.CylCavity(3.0, BENCH_GRID[0], 4, 3, 6).basis().labels
    return [cyl3d.cyl_model(cyl3d.CylCavity(3.0, float(x), 4, 3, 6), np.pi / 4, 1.5, order)
            for x in BENCH_GRID]


def test_stitched_blocks_take_channel_space_eigenpairs(monkeypatch):
    # every block of the stitched scan (81 modes, one open direction) gets
    # its eigenpairs from the channel space: eigenvalues within 1e-13 of
    # the scale of the dense eig's, every pair converged, and the vector
    # of each simple eigenvalue the dense one up to phase
    probe = 0.5 * (cyl3d._BAND[0] + cyl3d._BAND[1])
    eig = np.linalg.eig
    for model in _bench_models():
        h = model(probe)
        dense = [eig(part) for part in h.parts]
        monkeypatch.setattr(np.linalg, "eig", _no_dense_eig)
        for block, part, (ref, ref_vecs) in zip(h.blocks, h.parts, dense):
            vals, vecs = hcore.block_eig(h, block)
            y = block.project(vecs)
            assert len(block) == 81 and vals.shape == ref.shape
            assert np.all(hcore._converged(part, vals, y))
            cost = np.abs(vals[:, None] - ref[None, :])
            j = np.argmin(cost, axis=1)
            assert sorted(j) == list(range(ref.size))
            assert cost.min(axis=1).max() <= 1e-13 * hcore._scale(part)
            gaps = np.abs(ref[:, None] - ref[None, :]) + np.diag(np.full(ref.size, np.inf))
            simple = gaps[j].min(axis=1) > 1e-8 * hcore._scale(part)
            overlap = np.abs(np.sum(ref_vecs[:, j].conj() * y, axis=0))
            assert simple.sum() > 70
            assert overlap[simple].min() >= 1.0 - 1e-10
        monkeypatch.undo()


def test_bench_bic_search_runs_no_dense_eig_and_one_full_eigh_per_amplitude(monkeypatch):
    # the stitched scan takes its eigenpairs from the channel space, and
    # each signed amplitude a full eigh only at its first evaluation, its
    # level by index after that
    inside, full = [], {}
    level = hcore._SignedAmplitude._level
    eigh = np.linalg.eigh

    def counted_level(self, h):
        inside.append(self)
        try:
            return level(self, h)
        finally:
            inside.pop()

    def counted_eigh(a, *args, **kwargs):
        if inside:
            full[id(inside[-1])] = full.get(id(inside[-1]), 0) + 1
        return eigh(a, *args, **kwargs)

    made = []
    init = hcore._SignedAmplitude.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(np.linalg, "eig", _no_dense_eig)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(hcore._SignedAmplitude, "_level", counted_level)
    monkeypatch.setattr(hcore._SignedAmplitude, "__init__", counted_init)
    recs = cyl3d.cyl_find_bics(BENCH_CAV, np.pi / 4, "length", BENCH_GRID)
    assert [r.is_bic for r in recs] == [True]
    assert recs[0].param == pytest.approx(3.051328214, rel=1e-7)
    assert made and all(not s.diabatic for s in made)
    assert [full.get(id(s)) for s in made] == [1] * len(made)
    assert all(len(s.evals) > 1 for s in made)


def test_level_by_index_is_the_full_eigh_level(monkeypatch):
    # over the Brent run of the benchmark search, the level taken by index
    # is the full eigh's level of that ordinal: the same eigenvalue to
    # rounding and the same vector up to phase
    subset, seen = sla.eigh, []

    def checked(m, *args, subset_by_index, **kwargs):
        mu, y = subset(m, *args, subset_by_index=subset_by_index, **kwargs)
        j = subset_by_index[0]
        ref_mu, ref_y = np.linalg.eigh(m)
        seen.append(j)
        assert abs(mu[0] - ref_mu[j]) <= 1e-13 * max(1.0, np.abs(ref_mu).max())
        assert abs(np.vdot(ref_y[:, j], y[:, 0])) >= 1.0 - 1e-10
        return mu, y
    monkeypatch.setattr(sla, "eigh", checked)
    recs = cyl3d.cyl_find_bics(BENCH_CAV, np.pi / 4, "length", BENCH_GRID)
    assert [r.is_bic for r in recs] == [True]
    assert len(seen) > 20
