"""Block-native H_eff: every declared block of the cavity models is exact
(the blocks put together give the dense H_eff, block spectra = dense
spectrum, vectors stay in their block, block solves = dense solves), a
wrong declaration raises at assembly, the hot paths never form the
mode-basis matrix, and the fixed-point solve gives the same pole with and
without blocks.  A model that declares no blocks is one whole-space block,
and every model is its ``AssemblyFrame``."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from openres import cli, cyl3d, hcore, planar2d, sph3d, toymodels

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
    got = hcore.green(heff, rhs)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_hot_paths_do_not_form_the_mode_basis_matrix(heff):
    s_green, _ = hcore.smatrix(heff)
    vals, vecs = hcore.spectrum(heff)
    j = int(np.argmin(np.abs(vals.imag)))
    rec = hcore.bic_record(0.0, heff, vals[j].real, vals[j], vecs[:, j], 1e-8, 1e-7)
    # a warm step from a vector split 0.9 / 0.1 over two blocks continues
    # it inside the block of the larger part
    first, second = heff.blocks[:2]
    vals_a, vecs_a = hcore.block_eig(heff, first)
    _, vecs_b = hcore.block_eig(heff, second)
    i = int(np.argmin(np.abs(vals_a.real - heff.omega_sq)))
    split = math.sqrt(0.9) * vecs_a[:, i] + math.sqrt(0.1) * vecs_b[:, 0]
    lam, y = hcore._branch_eig(heff, heff.omega_sq, split, None)
    assert abs(lam - vals_a[i]) <= 1e-12 * max(1.0, abs(vals_a[i]))
    assert abs(np.vdot(vecs_a[:, i], y)) >= 1.0 - 1e-10
    # the K-matrix form of S, block by block, is the Green-function S
    idx, k = hcore._open_channels(heff)
    v = heff.coupling.matrix[:, idx] * np.sqrt(k)
    s_k = hcore._kmatrix_smatrix(heff, v, s_green)
    assert s_k is not s_green
    assert np.abs(s_k - s_green).max() <= 1e-12
    assert np.abs(s_k.conj().T @ s_k - np.eye(idx.size)).max() <= 1e-13
    assert "matrix" not in vars(heff)
    residual = np.linalg.norm((vals[j].real * np.eye(len(vecs)) - heff.matrix) @ vecs[:, j])
    assert rec.residual == pytest.approx(residual, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("name", ["planar", "cyl_quarter"])
def test_off_block_perturbation_raises(name):
    make, omega_sq, _ = MODELS[name]
    h = make()(omega_sq)
    i, j = h.blocks[0].first[0], h.blocks[1].first[1]
    base = np.zeros((len(h.basis), len(h.basis))) if h.static is None else h.static
    exact = hcore.AssemblyFrame(h.basis, h.channels, h.coupling, base, h.blocks)(omega_sq)
    assert np.array_equal(exact.parts[0], h.parts[0])
    eps = 1e-10 * np.abs(_dense(h)).max()
    bump = base.copy()
    bump[i, j] += eps
    bump[j, i] += eps
    with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
        hcore.AssemblyFrame(h.basis, h.channels, h.coupling, bump, h.blocks)(omega_sq)


def test_pair_of_split_modes_raises():
    # a cylinder pair |m,n,l> +/- s|-m,n,l> whose two energies differ
    h = MODELS["cyl_quarter"][0]()(1.0)
    pair = np.flatnonzero(h.blocks[0].phase)[0]
    energies = h.basis.energies.copy()
    energies[h.blocks[0].first[pair]] *= 1.0 + 1e-9
    with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
        hcore.AssemblyFrame(hcore.ClosedBasis(h.basis.labels, energies), h.channels,
                            h.coupling, blocks=h.blocks)(1.0)


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
    # with no parity left, the frame holds one block: every mode, unpaired
    centred_y = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0, x0=0.3, y0=0.2))
    (whole,) = centred_y(20.0).blocks
    assert np.array_equal(whole.first, np.arange(len(labels))) and not np.any(whole.phase)


def test_wrong_block_declaration_raises():
    # the planar (x, y)-parity partition forced onto an off-centre bump: it
    # spans the modes, but the bump couples its x-parity classes
    h = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0, x0=0.3), p_max=4)(20.0)
    with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
        hcore.AssemblyFrame(h.basis, h.channels, h.coupling, h.static,
                            planar2d.parity_blocks(SINAI_CAV))(20.0)
    with pytest.raises(hcore.StructuralError):
        hcore.AssemblyFrame(h.basis, h.channels, h.coupling,
                            blocks=planar2d.parity_blocks(SINAI_CAV)[:2])(20.0)


def test_holding_block_takes_the_largest_weight():
    h = MODELS["sphere"][0]()(1.9)
    even, odd = h.blocks
    v = even.lift(np.ones(len(even)) / math.sqrt(len(even)))
    assert hcore.holding_block(h.blocks, v) is even
    w = odd.lift(np.ones(len(odd)) / math.sqrt(len(odd)))
    assert hcore.holding_block(h.blocks, v + 1e-3 * w) is even
    assert hcore.holding_block(h.blocks, 0.3 * v + w) is odd
    assert hcore.holding_block((), v) is None


def test_fixed_point_same_with_and_without_blocks():
    model = planar2d.planar_model(RECT, p_max=4)

    def dense(omega_sq):
        h = model(omega_sq)
        return hcore.AssemblyFrame(h.basis, h.channels, h.coupling)(omega_sq)

    seed = RECT.energy(2, 3)
    cold = hcore.solve_resonance(model, seed)
    ref = hcore.solve_resonance(dense, seed)
    assert cold.converged and ref.converged
    assert abs(cold.z - ref.z) <= 1e-10 * abs(ref.z)
    warm = hcore.solve_resonance(model, seed, branch_vector=cold.vector)
    assert abs(warm.z - ref.z) <= 1e-10 * abs(ref.z)
    assert hcore.holding_block(model(seed).blocks, warm.vector) is not None


# ------------------------------------------- warm and cold branch eigenpairs --

def _default_cavities():
    """The CLI's default cavity models, as (model, two energies in band,
    block sizes)."""
    d = {name: cli.MODELS[name].defaults for name in ("planar", "sinai", "sphere", "cyl")}
    p = d["planar"]
    planar = planar2d.planar_model(
        planar2d.RectCavity(p["lx"], p["ly"], "dirichlet", p["m_max"], p["n_max"]),
        p["p_max"])
    p = d["sinai"]
    sinai = planar2d.sinai_model(
        planar2d.RectCavity(p["lx"], p["ly"], "neumann", p["m_max"], p["n_max"]),
        planar2d.SinaiBump(p["vg"], p["radius"], p["x0"], p["y0"]), p["p_max"])
    p = d["sphere"]
    sphere = sph3d.sphere_model(
        sph3d.SphereCavity(p["radius"], p["l_max"], p["n_max"]),
        (sph3d.WaveguideAttachment("in"), sph3d.WaveguideAttachment("out", beta=p["dtheta"])))
    p = d["cyl"]
    cyl = cyl3d.cyl_model(
        cyl3d.CylCavity(p["radius"], p["length"], p["m_max"], p["n_max"], p["l_max"]),
        p["dphi"], p["r0"])
    return {"planar": (planar, (14.0, 18.0), [100] * 4),
            "sinai": (sinai, (20.0, 26.0), [49, 56, 56, 64]),
            "sphere": (sphere, (0.3, 1.2), [63, 84]),
            "cyl": (cyl, (1.0, 1.6), [81, 81])}


DEFAULT_CAVITIES = _default_cavities()


def _no_dense_eig(*args, **kwargs):
    raise AssertionError("dense eig on a warm step")


def _dense_spectrum(h):
    """Every eigenpair of H_eff by the dense eig of each block, lifted to
    the mode basis: the reference the cold pick is checked against, which
    ``hcore.spectrum`` no longer is where it solves a block in the channel
    space."""
    parts = [np.linalg.eig(part) for part in h.parts]
    return (np.concatenate([vals for vals, _ in parts]),
            np.hstack([block.lift(vecs) for block, (_, vecs) in zip(h.blocks, parts)]))


@pytest.mark.parametrize("name", sorted(DEFAULT_CAVITIES))
def test_warm_continuation_matches_dense_pick(name, monkeypatch):
    # a fixed-point step: the vector of the previous energy, continued by
    # RQI, is the eigenpair that the dense eig and _pick_branch give
    model, energies, sizes = DEFAULT_CAVITIES[name]
    monkeypatch.setattr(hcore, "_eig", _no_dense_eig)
    for e in energies:
        before, h = model(e * (1.0 - 1e-3)), model(e)
        assert sorted(len(b) for b in h.blocks) == sizes
        for block in h.blocks:
            vals0, vecs0 = np.linalg.eig(before.block_matrix(block))
            vals, vecs = np.linalg.eig(h.block_matrix(block))
            for j in np.argsort(np.abs(vals0.real - e))[:2]:
                lam, v = hcore._continue_eig(h.block_matrix(block), e, vecs0[:, j], vals0[j])
                i = hcore._pick_branch(vals, vecs, e, vecs0[:, j], vals0[j])
                assert abs(lam - vals[i]) <= 1e-12 * abs(vals[i])
                assert abs(np.vdot(vecs[:, i], v)) / np.linalg.norm(vecs[:, i]) >= 1.0 - 1e-10


@pytest.mark.parametrize("name", sorted(DEFAULT_CAVITIES))
def test_mixed_vector_continues_to_the_dense_pick(name):
    # near an avoided crossing the branch vector mixes levels; RQI runs to
    # the level nearest its Rayleigh quotient, which need not be the one of
    # largest overlap (H_eff is not normal: two of the cylinder's
    # eigenvectors overlap by 0.75), so its result stands only where no
    # other eigenvector can overlap the vector more
    model, energies, _ = DEFAULT_CAVITIES[name]
    e = energies[0]
    h = model(e)
    for block in h.blocks:
        hb = h.block_matrix(block)
        vals, vecs = np.linalg.eig(hb)
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        near = np.argsort(np.abs(vals.real - e))[:3]
        for weights in ((0.6, 0.57, 0.56), (0.56, 0.6, 0.57), (0.8, 0.6), (0.72, 0.69), (0.95, 0.3)):
            v = vecs[:, near[:len(weights)]] @ np.array(weights)
            v /= np.linalg.norm(v)
            for prev_z in (None, vals[near[1]]):
                lam, y = hcore._continue_eig(hb, e, v, prev_z)
                i = hcore._pick_branch(vals, vecs, e, v, prev_z)
                assert abs(lam - vals[i]) <= 1e-12 * abs(vals[i])
                assert abs(np.vdot(vecs[:, i], y)) >= 1.0 - 1e-10


@pytest.mark.parametrize("name", sorted(DEFAULT_CAVITIES))
def test_cold_start_matches_dense_pick(name):
    model, energies, _ = DEFAULT_CAVITIES[name]
    for e in energies:
        h = model(e)
        vals, vecs = _dense_spectrum(h)
        for sigma in (e, 0.5 * e, 1.5 * e):
            i = hcore._pick_branch(vals, vecs, sigma, None)
            lam, v = hcore._branch_eig(h, sigma, None, None)
            assert abs(lam - vals[i]) <= 1e-12 * abs(vals[i])
            assert abs(np.vdot(vecs[:, i], v)) >= 1.0 - 1e-10


def _count_cold_routines(monkeypatch, calls):
    """Record (routine, block size) for every cold-start eigenvalue routine:
    eigvals, eigvalsh and the channel-space ``hcore._secular_eigvals``."""
    for routine in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, routine, lambda a, f=getattr(np.linalg, routine),
                            r=routine: calls.append((r, a.shape[0])) or f(a))
    secular = hcore._secular_eigvals
    monkeypatch.setattr(hcore, "_secular_eigvals", lambda h, v: calls.append(
        ("_secular_eigvals", h.shape[0])) or secular(h, v))


@pytest.mark.parametrize("name, e, hermitian", [
    ("planar", 14.0, 2), ("sinai", 8.0, 2), ("sphere", 0.3, 1), ("cyl", 1.0, 0)])
def test_cold_start_takes_eigvalsh_on_closed_blocks(name, e, hermitian, monkeypatch):
    # a block that no open channel reaches is Hermitian (so is the static
    # V, the Sinai bump to rounding): its cold-start eigenvalues come from
    # eigvalsh, the other blocks' from the channel-space determinant, with
    # no eigvals fallback, and the pick is unchanged
    model, _, _ = DEFAULT_CAVITIES[name]
    h = model(e)
    is_open = [c.is_open(e) for c in h.channels]
    expect = [("_secular_eigvals" if np.any(b.project(h.coupling.matrix)[:, is_open])
               else "eigvalsh", len(b)) for b in h.blocks]
    assert sum(r == "eigvalsh" for r, _ in expect) == hermitian
    vals, vecs = _dense_spectrum(h)
    calls = []
    _count_cold_routines(monkeypatch, calls)
    for sigma in (e, 0.5 * e, 1.5 * e):
        calls.clear()
        i = hcore._pick_branch(vals, vecs, sigma, None)
        lam, v = hcore._branch_eig(h, sigma, None, None)
        assert calls == expect
        assert abs(lam - vals[i]) <= 1e-12 * abs(vals[i])
        assert abs(np.vdot(vecs[:, i], v)) >= 1.0 - 1e-10


def test_non_hermitian_static_keeps_eigvals(monkeypatch):
    # an absorbing V (complex symmetric, not Hermitian) leaves no Hermitian
    # part to solve the channel space over: every block's cold-start
    # eigenvalues come from eigvals, closed or not
    h = DEFAULT_CAVITIES["planar"][0](14.0)
    n = len(h.basis)
    lossy = hcore.AssemblyFrame(h.basis, h.channels, h.frame.w, -0.1j * np.eye(n), h.blocks)
    heff = lossy(14.0)
    assert heff.open_couplings == [None] * 4
    assert [v.shape[1] > 0 for v in h.open_couplings] == [True, False, True, False]
    vals, vecs = _dense_spectrum(heff)
    calls = []
    _count_cold_routines(monkeypatch, calls)
    i = hcore._pick_branch(vals, vecs, 14.0, None)
    lam, v = hcore._branch_eig(heff, 14.0, None, None)
    assert calls == [("eigvals", 100)] * 4
    assert abs(lam - vals[i]) <= 1e-12 * abs(vals[i])
    assert abs(np.vdot(vecs[:, i], v)) >= 1.0 - 1e-10


def _matched_gap(z, ref):
    """Largest |z_i - ref_j| over the one-to-one matching of least cost."""
    cost = np.abs(z[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize("name", ["planar", "sinai", "cyl", "sphere", "twolevel", "fpchain"])
def test_channel_space_spectrum_equals_eigvals_at_the_resonance_seeds(name, monkeypatch):
    # every cold start of the CLI's default resonance search: each block
    # that an open channel reaches gets every eigenvalue from the channel
    # space (no fallback), one to one within 1e-13 of the scale of eigvals,
    # and the cold pick is the dense pick
    starts, cold = [], hcore._cold_eig
    monkeypatch.setattr(hcore, "_cold_eig", lambda heff, sigma: starts.append(
        (heff, sigma)) or cold(heff, sigma))
    cli.MODELS[name].resonances(dict(cli.MODELS[name].defaults))
    monkeypatch.undo()
    assert starts
    solved = 0
    for heff, sigma in starts:
        for part, v in zip(heff.parts, heff.open_couplings):
            vals, secular = hcore._cold_eigvals(part, v)
            if not np.any(v):
                assert not secular
                continue
            assert secular
            solved += 1
            assert _matched_gap(vals, np.linalg.eigvals(part)) <= 1e-13 * hcore._scale(part)
        vals, vecs = _dense_spectrum(heff)
        i = hcore._pick_branch(vals, vecs, sigma, None)
        lam, y = hcore._cold_eig(heff, sigma)
        assert abs(lam - vals[i]) <= 1e-12 * max(1.0, abs(vals[i]))
        assert abs(np.vdot(vecs[:, i], y)) >= (1.0 - 1e-10) * np.linalg.norm(vecs[:, i])
    assert solved


def test_cavity_fixed_point_runs_no_dense_eig(monkeypatch):
    # the channel-space eigenvalues and one inverse iteration for the cold
    # start, RQI on every warm step: a silent return to the dense eig fails
    # here
    model, _, _ = DEFAULT_CAVITIES["planar"]
    rqi, steps = hcore._rqi, []

    def counted(*args, **kwargs):
        steps.append(args[0].shape[0])
        return rqi(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eig", _no_dense_eig)
    monkeypatch.setattr(hcore, "_rqi", counted)
    rec = hcore.solve_resonance(model, 11.3)
    assert rec.converged and rec.iterations > 2
    assert steps == [100] * (rec.iterations - 1)


# ------------------------------------------------------- assembly frames --

def _isometry(block):
    return block.lift(np.eye(len(block), dtype=complex))


FRAME_MODELS = {
    # model, energies below and above a channel cutoff
    "planar": (lambda: planar2d.planar_model(RECT, p_max=4), (35.0, 45.0)),
    "sinai_vg5": (MODELS["sinai"][0], (8.0, 12.0)),
    "sinai_vg0": (lambda: planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(0.0), p_max=4),
                  (8.0, 12.0)),
    "cyl": (MODELS["cyl_quarter"][0], (1.0, 4.0)),
    "sphere": (MODELS["sphere"][0], (1.9, 4.0)),
}


@pytest.mark.parametrize("name", sorted(FRAME_MODELS))
def test_frame_parts_equal_the_dense_blocks(name):
    make, energies = FRAME_MODELS[name]
    model = make()
    for e in energies:
        h = model(e)
        dense = _dense(h)
        assert h.blocks
        for block, part in h.pieces:
            u = _isometry(block)
            ref = u.conj().T @ dense @ u
            assert np.abs(part - ref).max() <= 1e-14 * np.abs(dense).max()


def _planar_with_one_port_evanescent():
    """The planar frame with the R port of its highest channel cut: the L
    and R columns of that cutoff no longer cancel between the x-parity
    classes, so an evanescent channel alone couples those blocks."""
    frame = planar2d._planar_frame(RECT, 4)
    raw = frame.w.copy()
    raw[:, [i for i, c in enumerate(frame.channels) if c.port == "R" and c.label == ("p", 4)]] = 0
    return hcore.AssemblyFrame(frame.basis, frame.channels, raw, blocks=frame.blocks,
                               divisor=frame.divisor)


def _off_centre_bump_with_planar_blocks():
    h = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(5.0, x0=0.3), p_max=4)(20.0)
    return hcore.AssemblyFrame(h.basis, h.channels, h.coupling, h.frame.static,
                               planar2d.parity_blocks(SINAI_CAV)).at_height(5.0)


# name: the frame (with its divisor rule and bump height), the energy
# range, and whether the declaration is wrong
DECLARATIONS = {
    "planar": (FRAME_MODELS["planar"][0], 150.0, False),
    "sinai_vg5": (FRAME_MODELS["sinai_vg5"][0], 150.0, False),
    "sinai_vg0": (FRAME_MODELS["sinai_vg0"][0], 150.0, False),
    "cyl": (FRAME_MODELS["cyl"][0], 5.0, False),
    "sphere": (FRAME_MODELS["sphere"][0], 5.0, False),
    "evanescent_port": (_planar_with_one_port_evanescent, 150.0, True),
    "off_centre_bump": (_off_centre_bump_with_planar_blocks, 150.0, True),
}


@pytest.mark.parametrize("name", sorted(DECLARATIONS))
def test_grouped_bound_covers_the_off_block_peak(name):
    # the check's bound is at least the off-block peak of the dense matrix
    # (to its rounding), so a wrong declaration fails at every energy
    make, e_max, wrong = DECLARATIONS[name]
    frame = make()
    us = [_isometry(b) for b in frame.blocks]
    for e in np.random.default_rng(7).uniform(0.5, e_max, 50):
        k = frame.channels.wavenumbers(e)
        d = None if frame.divisor is None else frame.divisor(k)
        w = frame.w if d is None else frame.w / d
        dense = np.diag(frame.basis.energies) - 1j * (w * k) @ w.conj().T
        if frame.static is not None:
            dense = dense + frame.height * frame.static
        peak = max(np.abs(us[a].conj().T @ dense @ us[b]).max()
                   for a in range(len(us)) for b in range(len(us)) if a != b)
        assert frame._bound(k, d) >= peak - 1e-14 * np.abs(dense).max()
        if wrong:
            assert peak > 1e-8 * np.abs(dense).max()
            with pytest.raises(hcore.StructuralError, match="not block-diagonal"):
                hcore.assemble(frame, e)
        else:
            hcore.assemble(frame, e)


def test_planar_map_builds_one_frame_per_geometry(tmp_path, monkeypatch):
    built = []
    build = planar2d._frame

    def counted(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)
    monkeypatch.setattr(planar2d, "_frame", counted)
    planar2d._planar_frame.cache_clear()
    try:
        assert cli.main(["planar", "map", "--axis1", "ly:3.8:4.2:2", "--axis2",
                         "energy:12:16:3", "--truncation", "6", "--pmax", "3",
                         "--out", str(tmp_path)]) == 0
    finally:
        planar2d._planar_frame.cache_clear()
    assert sorted(c.ly for c in built) == [3.8, 4.2]


BLOCKLESS = {
    # model, energy
    "twolevel": (lambda: toymodels.twolevel_model(toymodels.TwoLevelParams(0.3, 0.1, 0.2, 0.05)),
                 0.5),
    "fpchain": (lambda: toymodels.fp_chain_model(
        toymodels.FPChainParams(-0.5, 0.5, 0.1, 0.25, 0.5)), 0.5),
}


@pytest.mark.parametrize("name", sorted(BLOCKLESS))
def test_a_model_without_blocks_is_one_whole_space_block(name):
    make, energy = BLOCKLESS[name]
    h = make()(energy)
    n = len(h.basis)
    (whole,) = h.blocks
    assert np.array_equal(whole.first, np.arange(n))
    assert np.array_equal(whole.second, np.arange(n)) and not np.any(whole.phase)
    (part,) = h.parts
    assert h.matrix.tobytes() == part.tobytes()
    # the one-block paths give the bits of the dense ones
    a = -h.matrix
    a.flat[:: n + 1] += energy
    rhs = h.coupling.matrix
    assert hcore.green(h, rhs).tobytes() == \
        sla.lu_solve(sla.lu_factor(a), rhs).tobytes()
    vals, vecs = hcore.spectrum(h)
    dense_vals, dense_vecs = np.linalg.eig(h.matrix)
    assert vals.tobytes() == dense_vals.tobytes()
    assert vecs.tobytes() == dense_vecs.tobytes()


def _cli_defaults(name):
    return dict(cli.MODELS[name].defaults)


# every H_eff model the CLI builds, at its defaults, and whether the
# builder hands out one cached frame per geometry (a Sinai model is its
# geometry's cached frame at the bump height, a new copy of it)
MODEL_FRAMES = {
    "twolevel": (lambda: toymodels.twolevel_model(
        cli._twolevel_params(_cli_defaults("twolevel"), 0.0)), False),
    "fpchain": (lambda: toymodels.fp_chain_model(cli._fpchain_params(_cli_defaults("fpchain"))),
                False),
    "planar": (lambda: planar2d.planar_model(cli._rect(_cli_defaults("planar"), "dirichlet"), 8),
               True),
    "sinai": (lambda: cli._sinai_model(_cli_defaults("sinai")), False),
    "cyl": (lambda: cli._cyl_model(_cli_defaults("cyl")), True),
    "sphere": (lambda: cli._sphere_model(_cli_defaults("sphere")), True),
}


@pytest.mark.parametrize("name", sorted(MODEL_FRAMES))
def test_a_model_is_its_frame(name, monkeypatch):
    make, cached = MODEL_FRAMES[name]
    frame = make()
    assert isinstance(frame, hcore.AssemblyFrame)
    assert (make() is frame) == cached
    # a call goes through the module's assemble, where tracers count it
    assemble, calls = hcore.assemble, []
    monkeypatch.setattr(hcore, "assemble", lambda *args: calls.append(args) or assemble(*args))
    for e in (0.5, 1.9):
        called, direct = frame(e), assemble(frame, e)
        assert called.frame is frame
        assert [p.tobytes() for p in called.parts] == [p.tobytes() for p in direct.parts]
    assert [args[1] for args in calls] == [0.5, 1.9]


def test_a_sinai_model_at_any_height_shares_its_geometry_frame():
    unit = planar2d._sinai_frame(SINAI_CAV, 1.5, 0.0, 0.0, 4)
    assert unit.height == 1.0
    for vg in (-20.0, 0.0, 1.0, 5.0):
        frame = planar2d.sinai_model(SINAI_CAV, planar2d.SinaiBump(vg), p_max=4)
        assert frame is not unit and frame.height == vg
        # the same objects, arrays and lists of per-block arrays alike
        assert all(vars(frame)[key] is value for key, value in vars(unit).items())
        h = frame(20.0)
        assert np.array_equal(h.static, vg * unit.static)
