"""Planar rectangle + soft-bump checks: parity selection, unitarity, the
avoided-pair zero-width point, field tails, bump spectra and accidental
decouplings."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from openres import cyl3d, hcore, sph3d
from openres import planar2d as pl

LY_DEG = 8.0 / math.sqrt(3.0)
OMEGA_C = math.pi * math.sqrt(91.0) / 8.0  # (4 pi / 4) sqrt(1 + 27/64)


def test_geometry_validation():
    with pytest.raises(ValueError):
        pl.RectCavity(lx=4.0, ly=0.8)
    with pytest.raises(ValueError):
        pl.RectCavity(lx=-1.0, ly=2.0)
    with pytest.raises(ValueError):
        pl.RectCavity(lx=4.0, ly=2.0, bc="robin")


def test_basis_sorted_ascending():
    cav = pl.RectCavity(lx=4.0, ly=3.0, m_max=6, n_max=6)
    basis = cav.basis()
    assert np.all(np.diff(basis.energies) >= 0)
    assert len(set(basis.labels)) == len(basis.labels)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_parity_selection_exact(bc):
    cav = pl.RectCavity(lx=4.0, ly=3.0, bc=bc, m_max=8, n_max=8)
    chans = pl.planar_channels(bc, 4)
    raw = pl.raw_coupling(cav, chans)
    for i, (m, n) in enumerate(cav.basis().labels):
        for j, ch in enumerate(chans):
            if cav.mode_y_parity_even(n) != pl.channel_parity_even(bc, ch.label[1]):
                assert raw[i, j] == 0.0


@pytest.mark.parametrize("bc,omega_sq", [("dirichlet", 14.0), ("dirichlet", 42.0),
                                         ("neumann", 6.0), ("neumann", 14.0)])
def test_smatrix_unitary(bc, omega_sq):
    cav = pl.RectCavity(lx=4.0, ly=3.0, bc=bc, m_max=10, n_max=10)
    s, chans, trans = pl.planar_transmittance(cav, omega_sq, p_max=5)
    assert np.max(np.abs(s.conj().T @ s - np.eye(len(chans)))) < 1e-9
    total = sum(v for (pin, pout), v in trans.items() if pin == 1)
    assert total <= 1.0 + 1e-9


def test_transmittance_below_cutoff_rejected():
    cav = pl.RectCavity(lx=4.0, ly=3.0)
    with pytest.raises(ValueError):
        pl.planar_transmittance(cav, 2.0)


def test_degeneracy_width_and_crossing_frequency():
    assert pl.degeneracy_width(4.0) == pytest.approx(LY_DEG, rel=1e-14)
    _, _, wc = pl.degenerate_pair_couplings(4.0)
    assert wc == pytest.approx(3.746, abs=5e-4)
    assert wc == pytest.approx(OMEGA_C, rel=1e-12)


def test_pair_coupling_closed_forms():
    # frozen closed-form evaluations of the first-channel couplings; the
    # ratio is normalization-free
    wa_c, wb_c, _ = pl.degenerate_pair_couplings(4.0, "channel")
    wa_f, wb_f, _ = pl.degenerate_pair_couplings(4.0, "frequency")
    assert wa_c == pytest.approx(0.833696029, abs=2e-9)
    assert wb_c == pytest.approx(0.346489827, abs=2e-9)
    assert wa_f == pytest.approx(0.615301998, abs=2e-9)
    assert wb_f == pytest.approx(0.255723760, abs=2e-9)
    assert wa_c / wb_c == pytest.approx(wa_f / wb_f, rel=1e-12)
    assert wa_c / wb_c == pytest.approx(2.406120, abs=1e-5)


def _mouth_dx_integral(m, n, wall):
    """int_{-1/2}^{1/2} phi_1(y) d_x psi_mn(wall Lx/2, y) dy on the Lx = 4
    rectangle at the (4,3)/(2,5) crossing (wall = -1 left, +1 right), by
    30-digit quadrature of a numerically differentiated mode."""
    with mpmath.workdps(30):
        lx, ly = mpmath.mpf(4), mpmath.sqrt(mpmath.mpf(64) / 3)
        half = mpmath.mpf(1) / 2

        def psi(x, y):
            return (2 / mpmath.sqrt(lx * ly)
                    * mpmath.sin(mpmath.pi * m * (x + lx / 2) / lx)
                    * mpmath.sin(mpmath.pi * n * (y + ly / 2) / ly))

        def integrand(y):
            phi = mpmath.sqrt(2) * mpmath.sin(mpmath.pi * (y + half))
            return phi * mpmath.diff(lambda x: psi(x, y), wall * lx / 2)

        return float(mpmath.quad(integrand, [-half, half]))


def test_pair_couplings_match_independent_quadrature():
    # oracle for the frozen values above: the signed p=1 interface integrals
    # of raw_coupling, and |W| = |integral| / sqrt(k) in both k conventions
    cav = pl.RectCavity(lx=4.0, ly=LY_DEG, m_max=6, n_max=6)
    chans = pl.planar_channels("dirichlet", 1)
    raw = pl.raw_coupling(cav, chans)
    labels = cav.basis().labels
    left = {}
    for m, n in ((4, 3), (2, 5)):
        for j, ch in enumerate(chans):
            ref = _mouth_dx_integral(m, n, -1 if ch.port == "L" else 1)
            assert math.copysign(1.0, ref) == (-1) ** ((n - 1) // 2)
            assert raw[labels.index((m, n)), j] == pytest.approx(ref, rel=1e-12)
            if ch.port == "L":
                left[(m, n)] = ref
    assert left[(4, 3)] / left[(2, 5)] == pytest.approx(-2.4061198, abs=1e-7)
    for conv, k in (("frequency", OMEGA_C),
                    ("channel", math.sqrt(OMEGA_C**2 - math.pi**2))):
        wa, wb, _ = pl.degenerate_pair_couplings(4.0, conv)
        assert wa == pytest.approx(abs(left[(4, 3)]) / math.sqrt(k), rel=1e-12)
        assert wb == pytest.approx(abs(left[(2, 5)]) / math.sqrt(k), rel=1e-12)


def test_two_mode_superposition_decouples_exactly():
    cav = pl.RectCavity(lx=4.0, ly=LY_DEG, m_max=8, n_max=8)
    chans = pl.planar_channels("dirichlet", 1)
    raw = pl.raw_coupling(cav, chans)
    labels = cav.basis().labels
    ia, ib = labels.index((4, 3)), labels.index((2, 5))
    for j in range(len(chans)):
        wa, wb = raw[ia, j], raw[ib, j]
        assert abs(wb * wa - wa * wb) <= 1e-10  # the (BIC-type) superposition
        combo = np.zeros(len(labels))
        combo[ia], combo[ib] = wb, -wa
        assert abs(combo @ raw[:, j]) <= 1e-10


def test_planar_fw_bic_small_truncation():
    rec, ly0 = pl.planar_fw_bic(lx=4.0, p_max=4, m_max=10, n_max=10, n_grid=9)
    assert rec.is_bic
    assert rec.gamma_res <= 1e-8
    assert abs(rec.param / ly0 - 1.0) < 0.03
    assert math.sqrt(rec.omega_sq) == pytest.approx(OMEGA_C, rel=0.02)
    exp = hcore.bic_mode(rec, rec.labels)
    top = {lab: abs(c) for lab, c in exp[:2]}
    assert set(top) == {(4, 3), (2, 5)}
    # dark-state amplitude ratio follows the coupling ratio
    assert top[(2, 5)] / top[(4, 3)] == pytest.approx(2.406, rel=0.08)
    # the null-residual tolerance reaches the is_bic test and nothing else
    strict, _ = pl.planar_fw_bic(lx=4.0, p_max=4, m_max=10, n_max=10, n_grid=9,
                                 null_tol=0.0)
    assert not strict.is_bic
    assert strict.param == rec.param


def test_planar_fw_bic_runs_no_dense_eig(monkeypatch):
    # every width is sampled by the fixed point: the channel-space
    # eigenvalues and one inverse iteration for the cold start, RQI on
    # every warm step
    def no_dense_eig(*args, **kwargs):
        raise AssertionError("dense eig in the planar BIC search")
    monkeypatch.setattr(np.linalg, "eig", no_dense_eig)
    rec, _ = pl.planar_fw_bic(lx=4.0, m_max=10, n_max=10)
    assert rec.is_bic


@pytest.mark.parametrize("cav", [pl.RectCavity(4.0, 4.6, m_max=6, n_max=6),
                                 cyl3d.CylCavity(), sph3d.SphereCavity(radius=4.2)])
def test_basis_is_cached_per_cavity_and_read_only(cav):
    b = cav.basis()
    assert cav.basis() is b
    assert dataclasses.replace(cav).basis() is b
    with pytest.raises(ValueError):
        b.energies[0] = 0.0


def _permuted_basis(cls, monkeypatch, seed=3):
    """Patch ``cls.basis`` to list the modes in a random order (the same
    order at every geometry): a change of nothing but rounding."""
    basis = cls.basis

    def permuted(self):
        b = basis(self)
        order = np.random.default_rng(seed).permutation(len(b))
        return hcore.ClosedBasis(tuple(b.labels[i] for i in order), b.energies[order])
    monkeypatch.setattr(cls, "basis", permuted)


def test_planar_fw_bic_invariant_under_basis_permutation(monkeypatch):
    # the Brent root is exact to rounding: a permuted basis moves it by
    # ~4e-16, where the golden-section width minimum moved by ~8e-9
    kw = dict(lx=4.0, p_max=4, m_max=10, n_max=10, n_grid=9)
    rec, _ = pl.planar_fw_bic(**kw)
    pl._cached_plumbing.cache_clear()
    pl.parity_blocks.cache_clear()
    pl._planar_frame.cache_clear()
    try:
        with monkeypatch.context() as patch:
            _permuted_basis(pl.RectCavity, patch)
            moved, _ = pl.planar_fw_bic(**kw)
    finally:
        pl._cached_plumbing.cache_clear()
        pl.parity_blocks.cache_clear()
        pl._planar_frame.cache_clear()
    assert rec.is_bic and moved.is_bic
    assert moved.labels != rec.labels
    assert moved.param == pytest.approx(rec.param, rel=1e-10, abs=0.0)
    assert moved.omega_sq == pytest.approx(rec.omega_sq, rel=1e-10, abs=0.0)


def test_planar_fw_bic_raises_without_interior_minimum():
    # this window is too narrow to hold the width minimum: the scan falls
    # monotonically towards one edge, so there is no zero to refine
    with pytest.raises(RuntimeError):
        pl.planar_fw_bic(lx=4.0, p_max=4, m_max=8, n_max=8, n_grid=9, span=1e-4)


def test_planar_bic_field_tail_decay():
    rec, _ = pl.planar_fw_bic(lx=4.0, p_max=4, m_max=10, n_max=10, n_grid=9)
    cav = pl.RectCavity(lx=4.0, ly=rec.param, m_max=10, n_max=10)
    y = np.linspace(-0.49, 0.49, 41)
    x_wall = 2.0
    xs = np.array([x_wall + 0.2, x_wall + 1.2])
    field = pl.planar_bic_field(rec, cav, xs, y, p_max=4)
    amp = np.linalg.norm(field, axis=1)
    # the y-even pair cannot feed the odd p=2 channel; the first evanescent
    # channel carrying amplitude is p=3
    kappa = math.sqrt(9.0 * math.pi**2 - rec.omega_sq)
    assert amp[1] / amp[0] == pytest.approx(math.exp(-kappa), rel=0.02)
    bare = pl.planar_bic_field(rec, cav, xs, y, include_tails=False)
    assert np.allclose(bare, 0.0)
    # ... and the p=2 projection of this record is parity-zero exactly
    chans = pl.planar_channels("dirichlet", 4)
    raw = pl.raw_coupling(cav, chans)
    for j, ch in enumerate(chans):
        if ch.label[1] == 2:
            assert abs(np.dot(rec.null_vector, raw[:, j])) < 1e-12


def test_symmetry_protected_modes_have_real_eigenvalues():
    # y-antisymmetric (even-n) states couple only to the closed p=2,4
    # channels below 4 pi^2: every eigenvector living in that parity block
    # has an exactly real eigenvalue
    cav = pl.RectCavity(lx=4.0, ly=3.0, m_max=8, n_max=8)
    model = pl.planar_model(cav, p_max=4)
    h = model(14.0)
    basis = cav.basis()
    vals, vecs = np.linalg.eig(h.matrix)
    odd_block = np.array([n % 2 == 0 for (m, n) in basis.labels])
    n_protected = 0
    for j in range(len(vals)):
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        if np.sum(np.abs(v[odd_block]) ** 2) > 0.99 and vals[j].real < 4 * math.pi**2:
            assert abs(vals[j].imag) < 1e-12
            n_protected += 1
    assert n_protected >= 10


def test_protected_mode_single_coefficient_without_evanescent_channels():
    # with only the open channel kept, a parity-protected state is exactly a
    # basis vector: its modal expansion has one unit coefficient
    cav = pl.RectCavity(lx=4.0, ly=3.0, m_max=6, n_max=6)
    model = pl.planar_model(cav, p_max=1)
    basis = cav.basis()
    i = basis.labels.index((1, 2))  # y-odd, below the second cutoff
    h = model(cav.energy(1, 2))
    vals, vecs = np.linalg.eig(h.matrix)
    j = int(np.argmax(np.abs(vecs[i])))
    rec = hcore.BICRecord(param=0.0, omega_sq=vals[j].real,
                          null_vector=vecs[:, j], gamma_res=-2 * vals[j].imag,
                          residual=0.0, is_bic=True, labels=basis.labels)
    exp = hcore.bic_mode(rec, rec.labels)
    assert exp[0][0] == (1, 2)
    assert abs(exp[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert rec.gamma_res == pytest.approx(0.0, abs=1e-14)


def test_planar_bic_convergence_audit():
    audit = pl.planar_bic_convergence_audit(p_max=4, base=8, doubled=12)
    assert audit["converged"]
    assert audit["relative_change"] < 0.005


# ------------------------------------------------------------------ sinai --

CAV = pl.RectCavity(lx=4.0, ly=2.0, bc="neumann", m_max=10, n_max=10)


def test_sinai_zero_bump_spectrum_unperturbed():
    blocks = pl.sinai_spectrum(CAV, pl.SinaiBump(0.0))
    basis = CAV.basis()
    all_vals = np.sort(np.concatenate([v for v, _, _ in blocks.values()]))
    assert np.allclose(all_vals, np.sort(basis.energies), atol=1e-10)


def test_sinai_bump_matrix_symmetric_and_converged():
    v = pl.sinai_potential_matrix(CAV, pl.SinaiBump(10.0), audit=True)
    assert np.allclose(v, v.T, atol=1e-12)


@pytest.mark.parametrize("x0, y0", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)])
def test_sinai_spectrum_is_the_dense_spectrum_for_any_bump_centre(x0, y0):
    # an off-centre bump couples the classes of the parity it breaks: the
    # spectrum per class must still be the spectrum of diag(E) + V
    cav = pl.RectCavity(4.0, 2.0, "neumann", 8, 8)
    bump = pl.SinaiBump(5.0, x0=x0, y0=y0)
    blocks = pl.sinai_spectrum(cav, bump)
    got = np.sort(np.concatenate([vals for vals, _, _ in blocks.values()]))
    want = np.linalg.eigvalsh(np.diag(cav.basis().energies)
                              + pl.sinai_potential_matrix(cav, bump))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sinai_search_keeps_only_the_classes_of_the_bump():
    off = dict(vg_range=(-35.0, 0.0), n_grid=71, p_max=4)
    # off centre in x the one x class is keyed x-odd: the x-even search is empty
    assert pl.sinai_accidental_bics(CAV, x_even=True, x0=0.3, **off) == []
    with pytest.raises(ValueError):
        pl.sinai_accidental_bics(CAV, x_even=False, y0=0.2, **off)


def test_sinai_bump_center_validation():
    with pytest.raises(ValueError):
        pl.sinai_potential_matrix(CAV, pl.SinaiBump(5.0, 1.5, 3.0, 0.0))


def test_sinai_no_degeneracy_within_irreducible_blocks():
    # the unperturbed rectangle has exact in-block degeneracies at vg = 0
    # (e.g. (0,2)/(4,0)); any finite bump lifts them into avoided crossings
    vgs = np.linspace(-50, 50, 20)  # even count: no exact zero on the grid
    for vg in vgs:
        blocks = pl.sinai_spectrum(CAV, pl.SinaiBump(vg))
        for key, (vals, _, _) in blocks.items():
            gaps = np.diff(vals[:12])
            assert np.all(gaps > 1e-6)


def test_sinai_eigenfunction_depletion_at_strong_bump():
    blocks = pl.sinai_spectrum(CAV, pl.SinaiBump(50.0))
    vals, vecs, idx = blocks[(True, True)]
    labels = [CAV.basis().labels[i] for i in idx]
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.linspace(-1.0, 1.0, 41)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    psi = np.zeros_like(xg)
    for c, (m, n) in zip(vecs[:, 0], labels):
        psi += c * CAV.mode_on_grid(m, n, xg, yg)
    inside = xg**2 + yg**2 < 0.75**2
    ratio = np.mean(psi[inside] ** 2) / np.mean(psi[~inside] ** 2)
    assert ratio < 0.2


def test_sinai_band_single_open_channel():
    lo, hi = pl.sinai_band(CAV, y_even=True)
    assert lo == 0.0
    assert hi == pytest.approx(4 * math.pi**2)
    lo2, hi2 = pl.sinai_band(CAV, y_even=False)
    assert lo2 == pytest.approx(math.pi**2)
    assert hi2 == pytest.approx(9 * math.pi**2)


def test_sinai_accidental_bic_confirmed_small_basis():
    recs = pl.sinai_accidental_bics(CAV, vg_range=(-35.0, 0.0), x_even=True,
                                    n_grid=71, p_max=4)
    assert recs
    best = min(recs, key=lambda r: r.gamma_res)
    assert best.is_bic
    assert best.gamma_res <= 1e-8
    assert best.residual <= 1e-7
    assert best.classification == "accidental"
    exp = pl.sinai_modal_expansion(best, CAV)
    assert abs(exp[0][1]) ** 2 >= 0.5  # single deformed mode dominates


def test_sinai_protected_modes_at_zero_bump():
    # with no bump, y-antisymmetric modes below their second odd channel are
    # decoupled from the only open channel of their parity
    model = pl.sinai_model(CAV, pl.SinaiBump(0.0), p_max=4)
    h = model(20.0)
    vals = np.linalg.eigvals(h.matrix)
    basis = CAV.basis()
    for (m, n) in basis.labels:
        e = CAV.energy(m, n)
        if n % 2 == 1 and math.pi**2 + 1 < e < 4 * math.pi**2:
            j = np.argmin(np.abs(vals.real - e))
            # between pi^2 and 9 pi^2 the odd modes do couple to p=1: width>0
            assert -vals[j].imag > 1e-10
        if n % 2 == 0 and n > 0 and e < 2.0:
            j = np.argmin(np.abs(vals.real - e))
            assert abs(vals[j].imag) < 1e-12


def _raw_coupling_per_entry(cavity, channels):
    """The interface integrals as written before the mouth integrals were
    shared: one ``_channel_y_integral`` per (channel, mode)."""
    basis = cavity.basis()
    out = np.zeros((len(basis), len(channels)))
    for j, ch in enumerate(channels):
        p = ch.label[1]
        for i, (m, n) in enumerate(basis.labels):
            ov = pl._channel_y_integral(cavity, p, n)
            if ov == 0.0:
                continue
            if cavity.bc == "dirichlet":
                xfac = (math.pi * m / cavity.lx) * 2.0 / math.sqrt(cavity.lx * cavity.ly)
                sign = 1.0 if ch.port == "L" else math.cos(math.pi * m)
            else:
                xfac = math.sqrt((2 - (m == 0)) * (2 - (n == 0)) / (cavity.lx * cavity.ly))
                sign = 1.0 if ch.port == "L" else math.cos(math.pi * m)
            out[i, j] = sign * xfac * ov
    return out


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("lx, ly, m_max, n_max, p_max", [
    (4.0, LY_DEG, 12, 12, 6), (3.3, 2.7, 9, 14, 8)])
def test_raw_coupling_bit_equal_to_per_entry_loop(bc, lx, ly, m_max, n_max, p_max):
    cav = pl.RectCavity(lx=lx, ly=ly, bc=bc, m_max=m_max, n_max=n_max)
    chans = pl.planar_channels(bc, p_max)
    w, old = pl.raw_coupling(cav, chans), _raw_coupling_per_entry(cav, chans)
    assert np.array_equal(w, old)
    assert np.array_equal(np.signbit(w), np.signbit(old))
