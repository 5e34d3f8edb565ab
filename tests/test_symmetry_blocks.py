"""Block-native H_eff: every declared block of the cavity models is exact
(the blocks put together give the dense H_eff, block spectra = dense
spectrum, vectors stay in their block, block solves = dense solves), a
wrong declaration raises at assembly, the hot paths never form the
mode-basis matrix, and the fixed-point solve gives the same pole with and
without blocks."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from openres import cyl3d, hcore, planar2d, sph3d

RECT = planar2d.RectCavity(4.0, 4.6, m_max=8, n_max=8)
SINAI_CAV = planar2d.RectCavity(4.0, 2.0, "neumann", 8, 8)
SPHERE = sph3d.SphereCavity(4.2, 4, 2)
CYL = cyl3d.CylCavity(3.0, 3.0, 3, 2, 4)


def _two_port_sphere(beta=2.2):
    return sph3d.sphere_model(SPHERE, (sph3d.WaveguideAttachment("in"),
                                       sph3d.WaveguideAttachment("out", beta=beta)))


MODELS = {
    "planar": (lambda: planar2d.planar_model(RECT, p_max=4), 14.0, 4),
    "sinai": (lambda: planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0), p_max=4),
              20.0, 4),
    "sphere": (_two_port_sphere, 1.9, 2),
    "cyl_quarter": (lambda: cyl3d.cyl_model(CYL, math.pi / 4), 1.0, 2),
    "cyl_0.3": (lambda: cyl3d.cyl_model(CYL, 0.3), 1.0, 2),
}


@pytest.fixture(params=sorted(MODELS))
def heff(request):
    make, omega_sq, n_blocks = MODELS[request.param]
    h = make()(omega_sq)
    assert len(h.blocks) == n_blocks
    return h


def _dense(h):
    """diag(E) + V - i sum_c k_c W_c W_c^dag, entry by entry."""
    k = h.channels.wavenumbers(h.omega_sq)
    w = h.coupling.matrix
    out = np.diag(h.basis.energies).astype(complex) - 1j * np.einsum("c,ic,jc->ij", k, w, w.conj())
    return out if h.static is None else out + h.static


def test_blocks_put_together_give_the_dense_matrix(heff):
    dense = _dense(heff)
    assert np.abs(heff.matrix - dense).max() <= 1e-13 * np.abs(dense).max()
    assert sum(p.shape[0] for p in heff.parts) == dense.shape[0]


def test_block_green_matches_dense_solve(heff):
    dense = _dense(heff)
    e = heff.omega_sq
    rhs = heff.coupling.matrix
    expect = np.linalg.solve(e * np.eye(dense.shape[0]) - dense, rhs)
    got = hcore.green(heff, e, rhs)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_hot_paths_do_not_form_the_mode_basis_matrix(heff):
    hcore.smatrix(heff, heff.omega_sq)
    vals, vecs = hcore.spectrum(heff)
    hcore.spectrum(heff, vecs[:, 0])
    j = int(np.argmin(np.abs(vals.imag)))
    rec = hcore.bic_record(0.0, heff, vals[j].real, vals[j], vecs[:, j], 1e-8, 1e-7)
    assert "matrix" not in vars(heff)
    residual = np.linalg.norm((vals[j].real * np.eye(len(vecs)) - heff.matrix) @ vecs[:, j])
    assert rec.residual == pytest.approx(residual, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("name", ["planar", "cyl_quarter"])
def test_off_block_perturbation_raises(name):
    make, omega_sq, _ = MODELS[name]
    h = make()(omega_sq)
    i, j = h.blocks[0].first[0], h.blocks[1].first[1]
    base = np.zeros((len(h.basis), len(h.basis))) if h.static is None else h.static
    exact = hcore.assemble(h.basis, h.channels, h.coupling, omega_sq, static=base,
                           blocks=h.blocks)
    assert np.array_equal(exact.parts[0], h.parts[0])
    eps = 1e-10 * np.abs(_dense(h)).max()
    bump = base.copy()
    bump[i, j] += eps
    bump[j, i] += eps
    with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
        hcore.assemble(h.basis, h.channels, h.coupling, omega_sq, static=bump,
                       blocks=h.blocks)


def test_pair_of_split_modes_raises():
    # a cylinder pair |m,n,l> +/- s|-m,n,l> whose two energies differ
    h = MODELS["cyl_quarter"][0]()(1.0)
    pair = np.flatnonzero(h.blocks[0].phase)[0]
    energies = h.basis.energies.copy()
    energies[h.blocks[0].first[pair]] *= 1.0 + 1e-9
    with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
        hcore.assemble(hcore.ClosedBasis(h.basis.labels, energies), h.channels, h.coupling,
                       1.0, blocks=h.blocks)


def test_block_spectra_equal_dense_spectrum(heff):
    dense = np.linalg.eigvals(heff.matrix)
    vals, _ = hcore.spectrum(heff)
    assert vals.size == dense.size
    cost = np.abs(dense[:, None] - vals[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * np.linalg.norm(heff.matrix, 2)


def test_block_vectors_stay_in_their_block(heff):
    scale = np.linalg.norm(heff.matrix, 2)
    for block in heff.blocks:
        vals, vecs = hcore.block_eig(heff, block)
        outside = np.setdiff1d(np.arange(block.size), np.union1d(block.first, block.second))
        assert not np.any(vecs[outside])
        assert np.allclose(np.linalg.norm(block.project(vecs), axis=0), 1.0, atol=1e-12)
        res = np.linalg.norm(heff.matrix @ vecs - vecs * vals[None, :], axis=0)
        assert res.max() <= 1e-11 * scale


def test_off_centre_sinai_declares_no_x_parity():
    model = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0, x0=0.3), p_max=4)
    h = model(20.0)
    assert len(h.blocks) == 2
    labels = SINAI_CAV.basis().labels
    for block in h.blocks:
        x_even = {SINAI_CAV.mode_x_parity_even(labels[i][0]) for i in block.first}
        assert x_even == {True, False}
    vals, _ = hcore.spectrum(h)
    cost = np.abs(np.linalg.eigvals(h.matrix)[:, None] - vals[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * np.linalg.norm(h.matrix, 2)
    centred_y = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0, x0=0.3, y0=0.2))
    assert centred_y(20.0).blocks == ()


def test_wrong_block_declaration_raises():
    # the planar (x, y)-parity partition forced onto an off-centre bump: it
    # spans the modes, but the bump couples its x-parity classes
    h = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0, x0=0.3), p_max=4)(20.0)
    with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
        hcore.assemble(h.basis, h.channels, h.coupling, 20.0, static=h.static,
                       blocks=planar2d.parity_blocks(SINAI_CAV))
    with pytest.raises(hcore.StructuralError):
        hcore.assemble(h.basis, h.channels, h.coupling, 20.0,
                       blocks=planar2d.parity_blocks(SINAI_CAV)[:2])


def test_holding_block_needs_one_block():
    h = MODELS["sphere"][0]()(1.9)
    even, odd = h.blocks
    v = even.lift(np.ones(len(even)) / math.sqrt(len(even)))
    assert hcore.holding_block(h.blocks, v) is even
    w = odd.lift(np.ones(len(odd)) / math.sqrt(len(odd)))
    assert hcore.holding_block(h.blocks, v + 1e-3 * w) is None
    assert hcore.holding_block((), v) is None


def test_fixed_point_same_with_and_without_blocks():
    model = planar2d.planar_model(RECT, p_max=4)

    def dense(omega_sq):
        return dataclasses.replace(model(omega_sq), blocks=())

    seed = RECT.energy(2, 3)
    cold = hcore.solve_resonance(model, seed)
    ref = hcore.solve_resonance(dense, seed)
    assert cold.converged and ref.converged
    assert abs(cold.z - ref.z) <= 1e-10 * abs(ref.z)
    warm = hcore.solve_resonance(model, seed, branch_vector=cold.vector)
    assert abs(warm.z - ref.z) <= 1e-10 * abs(ref.z)
    assert hcore.holding_block(model(seed).blocks, warm.vector) is not None
