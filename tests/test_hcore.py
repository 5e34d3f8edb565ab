"""Engine-level checks on toy fixtures: assembly conventions, S-matrix
unitarity, fixed-point resonances, branch tracking and BIC extraction."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from openres import hcore, toymodels
from openres.toymodels import TwoLevelParams, twolevel_matrix, twolevel_model

RNG = np.random.default_rng(42)


def _random_lossless(n_modes=6, n_chan=2, omega_sq=9.0, seed=0):
    rng = np.random.default_rng(seed)
    basis = hcore.ClosedBasis(labels=tuple(range(n_modes)),
                              energies=np.sort(rng.uniform(1.0, 20.0, n_modes)))
    channels = hcore.ChannelSet(
        [hcore.Channel(port, ("p", i), cutoff, fixed_k=None)
         for i, (port, cutoff) in enumerate([("L", 1.0), ("R", 1.0),
                                             ("L", 16.0), ("R", 16.0)][: n_chan + 2])])
    w = rng.normal(0.0, 0.4, (n_modes, len(channels)))
    return basis, channels, hcore.CouplingMatrix(w.astype(complex))


# ---------------------------------------------------------------- assemble --

def test_assemble_zero_coupling_is_diagonal():
    basis = hcore.ClosedBasis(labels=("a", "b", "c"), energies=np.array([1.0, 4.0, 9.0]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 0.5)])
    w = hcore.CouplingMatrix(np.zeros((3, 1), dtype=complex))
    h = hcore.AssemblyFrame(basis, channels, w)(2.0)
    assert np.array_equal(h.matrix, np.diag([1.0, 4.0, 9.0]).astype(complex))


def test_assemble_reproduces_twolevel_matrix():
    p = TwoLevelParams(eps=0.4, gamma1=0.12, gamma2=0.31, u=0.05)
    h = twolevel_model(p)(0.0)
    assert np.allclose(h.matrix, twolevel_matrix(p), atol=1e-14)


def test_assemble_evanescent_channel_gives_hermitian_shift():
    basis = hcore.ClosedBasis(labels=(0, 1), energies=np.array([1.0, 2.0]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), cutoff_sq=25.0)])
    w = hcore.CouplingMatrix(np.array([[0.3], [0.7]], dtype=complex))
    omega_sq = 9.0  # below cutoff: k = 4i, contribution +4 W W^dag
    h = hcore.AssemblyFrame(basis, channels, w)(omega_sq)
    expect = np.diag([1.0, 2.0]) + 4.0 * np.outer([0.3, 0.7], [0.3, 0.7])
    assert np.allclose(h.matrix, expect, atol=1e-14)
    assert np.allclose(h.matrix.imag, 0.0, atol=1e-14)


def _complex_lossless(seed, n_modes=6):
    """A random lossless model with complex couplings and a Hermitian static
    term; at omega^2 = 9 two channels are open and two evanescent."""
    rng = np.random.default_rng(seed)
    basis, channels, w = _random_lossless(n_modes=n_modes, seed=seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=w.matrix.shape))
    v = rng.normal(0.0, 0.3, (n_modes, n_modes)) + 1j * rng.normal(0.0, 0.3, (n_modes, n_modes))
    return basis, channels, hcore.CouplingMatrix(w.matrix * phases), 0.5 * (v + v.conj().T)


def test_assemble_matches_einsum_formula():
    for seed in range(3):
        basis, channels, w, v = _complex_lossless(seed)
        for e, static in ((0.5, None), (9.0, v), (20.0, v)):
            k = channels.wavenumbers(e)
            expect = np.diag(basis.energies) - 1j * np.einsum("c,ic,jc->ij", k, w.matrix,
                                                              w.matrix.conj())
            if static is not None:
                expect = expect + static
            h = hcore.AssemblyFrame(basis, channels, w, static)(e).matrix
            assert np.max(np.abs(h - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_assemble_dimension_mismatch():
    basis = hcore.ClosedBasis(labels=(0, 1), energies=np.array([1.0, 2.0]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 0.0)])
    with pytest.raises(hcore.StructuralError):
        hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(np.zeros((3, 1))))


def test_channelset_sorted_and_wavenumber_law():
    chans = hcore.ChannelSet([hcore.Channel("R", ("p", 2), 4.0),
                              hcore.Channel("L", ("p", 1), 9.0),
                              hcore.Channel("L", ("p", 0), 1.0)])
    assert [c.port for c in chans] == ["L", "L", "R"]
    assert [c.cutoff_sq for c in chans] == [1.0, 9.0, 4.0]
    k = chans.wavenumbers(5.0)
    assert k[0] == pytest.approx(2.0)
    assert k[1] == pytest.approx(2j)  # evanescent: positive imaginary part
    assert k[2] == pytest.approx(1.0)


# ----------------------------------------------------------------- smatrix --

def test_smatrix_identity_for_decoupled_cavity():
    basis = hcore.ClosedBasis(labels=(0,), energies=np.array([2.0]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 0.0),
                                 hcore.Channel("R", ("p", 1), 0.0)])
    w = hcore.CouplingMatrix(np.zeros((1, 2), dtype=complex))
    h = hcore.AssemblyFrame(basis, channels, w)(3.0)
    s, _ = hcore.smatrix(h)
    assert np.allclose(s, np.eye(2), atol=1e-14)


def test_smatrix_unitary_random_lossless():
    basis, channels, w = _random_lossless(seed=3)
    for e in (5.0, 9.0, 18.0):
        h = hcore.AssemblyFrame(basis, channels, w)(e)
        s, _ = hcore.smatrix(h)
        assert np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))) < 1e-10


def test_smatrix_unitary_with_evanescent_channels():
    # channels above the energy are evanescent; S stays unitary over open ones
    basis, channels, w = _random_lossless(n_chan=2, seed=11)
    h = hcore.AssemblyFrame(basis, channels, w)(9.0)  # 16.0-cutoff channels closed
    s, open_chans = hcore.smatrix(h)
    assert len(open_chans) == 2
    assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-10


def test_green_solves_for_the_given_columns():
    basis, channels, w, v = _complex_lossless(5)
    h = hcore.AssemblyFrame(basis, channels, w, v)(9.0)
    expect = np.linalg.solve(9.0 * np.eye(len(basis)) - h.matrix, w.matrix)
    got = hcore.green(h, w.matrix)
    assert got.shape == w.matrix.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def _mp_smatrix(basis, channels, w, static, energy):
    """S over the open channels from a 30-digit Green function
    (E - H_eff)^(-1), with H_eff built in mpmath from the model's inputs."""
    n, c = w.shape
    with mpmath.workdps(30):
        e = mpmath.mpf(energy)
        k = [mpmath.sqrt(e - ch.cutoff_sq) if ch.is_open(energy)
             else mpmath.mpc(0, 1) * mpmath.sqrt(ch.cutoff_sq - e) for ch in channels]
        wm = [[mpmath.mpc(x) for x in row] for row in w]
        a = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                hij = -mpmath.mpc(0, 1) * mpmath.fsum(k[q] * wm[i][q] * mpmath.conj(wm[j][q])
                                                      for q in range(c))
                if static is not None:
                    hij += mpmath.mpc(static[i, j])
                if i == j:
                    hij += mpmath.mpf(basis.energies[i])
                a[i, j] = (e if i == j else 0) - hij
        g = a**-1
        idx = [q for q, ch in enumerate(channels) if ch.is_open(energy)]
        s = np.empty((len(idx), len(idx)), dtype=complex)
        for x, p in enumerate(idx):
            for y, q in enumerate(idx):
                core = mpmath.fsum(mpmath.conj(wm[i][p]) * g[i, j] * wm[j][q]
                                   for i in range(n) for j in range(n))
                s[x, y] = complex((x == y) - 2j * mpmath.sqrt(k[p] * k[q]) * core)
    return s


def test_smatrix_matches_high_precision_green_function():
    # two open and two evanescent channels, complex couplings, static term
    for seed in range(4):
        basis, channels, w, v = _complex_lossless(seed)
        for static in (None, v):
            h = hcore.AssemblyFrame(basis, channels, w, static)(9.0)
            s, open_chans = hcore.smatrix(h)
            assert len(open_chans) == 2
            ref = _mp_smatrix(basis, channels, w.matrix, static, 9.0)
            assert np.max(np.abs(s - ref)) < 1e-12


def test_smatrix_singularity_reported_as_candidate_bic():
    basis = hcore.ClosedBasis(labels=(0, 1), energies=np.array([1.0, 1.0]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 0.0, fixed_k=1.0)])
    # antisymmetric mode fully decoupled: E - H_eff singular at its energy
    w = hcore.CouplingMatrix(np.array([[0.5], [0.5]], dtype=complex))
    h = hcore.AssemblyFrame(basis, channels, w)(1.0)
    with pytest.raises(hcore.SingularScattering):
        hcore.smatrix(h)


# -------------------------------------------------------------- resonances --

def test_frozen_couplings_fixed_point_equals_direct_eigenvalue():
    p = TwoLevelParams(eps=0.3, gamma1=0.1, gamma2=0.2, u=0.05)
    model = twolevel_model(p)
    direct = np.linalg.eigvals(model(0.0).matrix)
    for seed in (0.3, -0.3):
        rec = hcore.solve_resonance(model, seed)
        assert rec.converged
        assert rec.iterations <= 2
        assert min(abs(rec.z - d) for d in direct) < 1e-12


def test_resonance_trace_identity():
    p = TwoLevelParams(eps=0.7, gamma1=0.15, gamma2=0.05, u=0.2)
    h = twolevel_model(p)(0.0).matrix
    assert abs(np.sum(np.linalg.eigvals(h)) - np.trace(h)) < 1e-10


def test_twolevel_symmetric_zero_width_pair():
    g = 0.1
    p = TwoLevelParams(eps=0.0, gamma1=g, gamma2=g, u=0.0)
    z = np.sort_complex(np.linalg.eigvals(twolevel_matrix(p)))
    assert min(abs(z - 0.0)) < 1e-14
    assert min(abs(z + 2j * g)) < 1e-14


def test_width_positivity_random_models():
    for seed in range(5):
        basis, channels, w = _random_lossless(seed=seed)
        h = hcore.AssemblyFrame(basis, channels, w)(9.0)
        assert np.all(np.linalg.eigvals(h.matrix).imag <= 1e-12)


def test_pole_equivalence_via_determinant_newton():
    # with frozen couplings the S-matrix poles (det(E - H_eff) zeros, found
    # by Newton on the determinant) coincide with the eigenvalues
    basis, channels, w = _random_lossless(seed=9)
    h = hcore.AssemblyFrame(basis, channels, w)(9.0).matrix
    n = h.shape[0]
    for z in np.linalg.eigvals(h):
        e = z + 1e-4 * (1 + 1j)
        for _ in range(60):
            g = np.linalg.inv(e * np.eye(n) - h)
            step = 1.0 / np.trace(g)
            e = e - step
            if abs(step) < 1e-13:
                break
        assert abs(e - z) < 1e-8


# ------------------------------------------------------------------- track --

def test_track_constant_model_constant_trajectory():
    p = TwoLevelParams(eps=0.5, gamma1=0.1, gamma2=0.1, u=0.0)

    def family(_param):
        return twolevel_model(p)

    traj = hcore.track(family, np.linspace(0, 1, 7), seed_energy=0.5)
    zs = np.array([r.z for r in traj])
    assert len(traj) == 7
    assert np.max(np.abs(zs - zs[0])) < 1e-12


def _turning_family(p):
    """A two-level family whose non-orthogonal eigenvectors lie at angles
    p (level -1) and pi/2 + p/2 (level +1), weakly coupled to one lead."""
    u = np.array([[np.cos(p), np.cos(np.pi / 2 + p / 2)],
                  [np.sin(p), np.sin(np.pi / 2 + p / 2)]])
    static = u @ np.diag([-1.0, 1.0]) @ np.linalg.inv(u)
    basis = hcore.ClosedBasis(labels=("a", "b"), energies=np.zeros(2))
    lead = hcore.ChannelSet([hcore.Channel("L", ("lead",), 0.0, fixed_k=1.0)])
    return hcore.AssemblyFrame(basis, lead, hcore.CouplingMatrix(np.array([[0.05], [0.02]])),
                               static)


def test_track_ends_before_the_point_where_the_branch_is_lost():
    # from p = 0.2 to 1.3 the -1 vector turns by 63 degrees and the +1
    # vector lies 64 degrees off the old one: no level overlaps the branch
    # by 1/2, and the trajectory holds exactly the records before 1.3
    grid = [0.0, 0.1, 0.2, 1.3, 1.4]
    traj = hcore.track(_turning_family, grid, seed_energy=-1.0)
    short = hcore.track(_turning_family, grid[:3], seed_energy=-1.0)
    assert [r.param for r in traj] == grid[:3]
    assert [r.z for r in traj] == [r.z for r in short]
    assert all(abs(r.z.real + 1.0) < 1e-2 for r in traj)


def _twolevel_family(gamma1, gamma2, u):
    def family(eps):
        return twolevel_model(TwoLevelParams(eps, gamma1, gamma2, u))
    return family


def test_track_and_find_bics_strong_coupling_point():
    # width zero at eps = u(g1-g2)/(2 sqrt(g1 g2)) = -8.838834764831845
    family = _twolevel_family(0.1, 0.2, 25.0)
    grid = np.linspace(-9.6, -8.0, 33)
    traj = hcore.track(family, grid, seed_energy=-26.5)
    bics = hcore.find_bics(traj, family)
    hits = [b for b in bics if b.is_bic]
    assert hits
    assert hits[0].param == pytest.approx(-8.838834764831845, abs=1e-6)


def test_find_bics_symmetric_twolevel_null_vector():
    family = _twolevel_family(0.1, 0.1, 0.0)
    traj = hcore.track(family, np.linspace(-0.5, 0.5, 21), seed_energy=0.05)
    hits = [b for b in hcore.find_bics(traj, family) if b.is_bic]
    assert hits and abs(hits[0].param) < 1e-8
    target = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(hits[0].null_vector.conj() @ target) - 1.0) < 1e-8
    assert hits[0].gamma_res <= 1e-10
    assert hits[0].residual <= 1e-7


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_pick_branch_settles_an_overlap_tie_by_the_larger_imaginary_part(order):
    # past an exceptional point both eigenvectors overlap the branch vector
    # equally (here to 1e-9) and lie either side of prev_z: the narrower
    # level wins in either column order, while a prev_z nearer one of the
    # two still settles the tie by distance
    theta = np.pi / 6
    pairs = [(-0.0134j, [np.cos(theta), np.sin(theta)]),
             (-0.1866j, [np.cos(theta + 1e-9), -np.sin(theta + 1e-9)])]
    vals = np.array([pairs[i][0] for i in order])
    vecs = np.array([pairs[i][1] for i in order], dtype=complex).T
    branch = np.array([1.0, 0.0], dtype=complex)
    ov = np.abs(branch @ vecs)
    assert 0.0 < abs(ov[0] - ov[1]) <= 1e-9
    for prev_z in (None, -0.1j):
        assert vals[hcore._pick_branch(vals, vecs, 0.0, branch, prev_z)] == -0.0134j
    assert vals[hcore._pick_branch(vals, vecs, 0.0, branch, -0.17j)] == -0.1866j


@pytest.mark.parametrize("toward", [np.inf, -np.inf])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_pick_branch_settles_an_im_z_tie_by_the_larger_real_part(order, toward):
    # the twolevel pair at eps = -0.4 with g1 = g2 = 0.3, u = 0: the two
    # eigenvectors overlap the branch equally, lie at one distance from
    # prev_z, and share Im z = -0.3 but for one ulp either way; rounding
    # must not decide, so the larger Re z wins in either column order
    pairs = [(-0.2646 - 0.3j, [1.0, 1.0]),
             (0.2646 + 1j * np.nextafter(-0.3, toward), [1.0, -1.0])]
    vals = np.array([pairs[i][0] for i in order])
    vecs = np.array([pairs[i][1] for i in order], dtype=complex).T / np.sqrt(2.0)
    branch = np.array([1.0, 0.0], dtype=complex)
    for prev_z in (None, -0.3j):
        assert vals[hcore._pick_branch(vals, vecs, 0.0, branch, prev_z)] == pairs[1][0]


_EXCEPTIONAL_POINT_BICS = """
import numpy as np
from openres import hcore
from openres.toymodels import TwoLevelParams, twolevel_model

def family(eps):
    return twolevel_model(TwoLevelParams(eps, 0.1, 0.1, 0.0))

traj = hcore.track(family, np.linspace(-0.5, 0.5, 21), seed_energy=0.05)
for b in hcore.find_bics(traj, family):
    print(float(b.param), float(b.gamma_res))
"""


def test_exceptional_point_bics_do_not_depend_on_the_blas_thread_count():
    # the tracked branch passes the exceptional point at eps = -0.1, where
    # the pick once came down to rounding that the thread count changes
    src = str(Path(__file__).resolve().parents[1] / "src")
    found = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _EXCEPTIONAL_POINT_BICS], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        found.append([tuple(map(float, line.split())) for line in run.stdout.splitlines()])
    # one BIC, at eps = 0 with zero width, under either thread count
    assert len(found[0]) == len(found[1]) == 1
    assert np.allclose(found, 0.0, rtol=0.0, atol=1e-12)


def _counting_golden(monkeypatch):
    calls = []
    golden = hcore._golden_minimize

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return golden(*args, **kwargs)
    monkeypatch.setattr(hcore, "_golden_minimize", counted)
    return calls


def test_find_bics_skips_flat_width_plateau(monkeypatch):
    # gamma1 = gamma2, u = 0: for |eps| > 0.1 the branch width is 0.2 to
    # rounding, a plateau with no minimum; only the BIC at eps = 0 is found
    golden = _counting_golden(monkeypatch)
    family = _twolevel_family(0.1, 0.1, 0.0)
    traj = hcore.track(family, np.linspace(-0.5, 0.5, 21), seed_energy=0.05)
    recs = hcore.find_bics(traj, family)
    assert len(recs) == 1 and recs[0].is_bic and abs(recs[0].param) < 1e-12
    assert golden == []


def test_find_bics_keeps_zero_width_plateau():
    # gamma2 = u = 0: level 2 at -eps is decoupled, its width is 0 to the
    # bit, and every interior grid point of the branch is a BIC
    family = _twolevel_family(0.1, 0.0, 0.0)
    traj = hcore.track(family, np.linspace(0.5, 1.5, 11), seed_energy=-0.5)
    recs = hcore.find_bics(traj, family)
    assert len(recs) == 9 and all(r.is_bic for r in recs)


def _narrow_branch_bics(g1, g2, u):
    # a grid that misses the BIC point, tracked on the branch that closes
    eps_star = toymodels.twolevel_bic_point(g1, g2, u)
    family = _twolevel_family(g1, g2, u)
    grid = eps_star + np.linspace(-0.4, 0.4, 16) + 0.013
    vals = np.linalg.eigvals(twolevel_matrix(TwoLevelParams(grid[0], g1, g2, u)))
    seed = vals[int(np.argmax(vals.imag))].real
    traj = hcore.track(family, grid, seed_energy=seed)
    return eps_star, family, traj, hcore.find_bics(traj, family)


def test_find_bics_root_matches_twolevel_closed_form(monkeypatch):
    # the Brent root of the signed amplitude lands on eps* to rounding; a
    # golden-section width minimum resolves it only to ~1e-8
    golden = _counting_golden(monkeypatch)
    g1, g2, u = 0.3, 0.1, 0.5
    eps_star, _, _, recs = _narrow_branch_bics(g1, g2, u)
    assert len(recs) == 1 and recs[0].is_bic and golden == []
    assert recs[0].param == pytest.approx(eps_star, rel=1e-12, abs=0.0)
    assert recs[0].omega_sq == pytest.approx(
        toymodels.twolevel_bic_energy(g1, g2, u, eps_star), rel=1e-12, abs=0.0)
    assert 0.0 <= recs[0].param_err <= 1e-12


def _naive_amplitude(family, rec):
    """The uncompressed form: the open-channel amplitude u^dag y of the
    Hermitian part's eigenvector y, followed by its ordinal in the sorted
    spectrum (fixed at the first call by overlap with the grid record) and
    phased so that its largest component is real and positive."""
    v = family(rec.param)(rec.energy).coupling.matrix
    w = v.conj().T @ rec.vector
    u = v @ (w / np.linalg.norm(w))
    u /= np.linalg.norm(u)
    ordinal = []

    def sigma(p):
        h = family(p)(rec.energy)
        a = h.matrix + 1j * (v @ v.conj().T)
        _, ys = np.linalg.eigh(0.5 * (a + a.conj().T))
        if not ordinal:
            ordinal.append(int(np.argmax(np.abs(ys.conj().T @ rec.vector))))
        y = ys[:, ordinal[0]]
        big = y[np.argmax(np.abs(y))]
        return (np.vdot(u, y) * abs(big) / big).real
    return sigma


def _split_levels_family(g1, g2, dark=None):
    """Levels 1 +/- eps on two identical leads (2 w_n^2 = g_n) with no
    Hermitian coupling; ``dark`` adds a mode of energy dark(eps) that
    couples to nothing."""
    channels = hcore.ChannelSet([hcore.Channel("L", ("lead",), 0.0, fixed_k=1.0),
                                 hcore.Channel("R", ("lead",), 0.0, fixed_k=1.0)])
    rows = [[g1 / 2.0] * 2, [g2 / 2.0] * 2] + ([[0.0] * 2] if dark else [])
    coupling = hcore.CouplingMatrix(np.sqrt(rows).astype(complex))

    def family(eps):
        energies = [1.0 + eps, 1.0 - eps] + ([dark(eps)] if dark else [])
        basis = hcore.ClosedBasis(("+", "-", "dark")[:len(energies)], np.array(energies))
        return hcore.AssemblyFrame(basis, channels, coupling)
    return family


def test_find_bics_root_through_exact_level_crossing(monkeypatch):
    # levels 1 +/- eps with no Hermitian coupling: the Hermitian part
    # diag(1 + eps, 1 - eps) has its two levels cross exactly at the BIC
    # eps* = 0, E* = 1.  The compressed amplitude changes sign there; the
    # ordinal-tracked eigenvector of the uncompressed part jumps from one
    # mode to the other and its amplitude keeps its sign, so Brent cannot
    # even bracket the BIC with it
    golden = _counting_golden(monkeypatch)
    g1, g2 = 0.3, 0.1
    family = _split_levels_family(g1, g2)
    grid = np.linspace(-0.4, 0.4, 16) + 0.013
    vals = np.linalg.eigvals(family(grid[0])(1.0).matrix)
    traj = hcore.track(family, grid, seed_energy=vals[int(np.argmax(vals.imag))].real)
    recs = hcore.find_bics(traj, family)
    assert len(recs) == 1 and recs[0].is_bic and golden == []
    assert abs(recs[0].param) <= 1e-12 and recs[0].param_err <= 1e-12
    assert recs[0].omega_sq == pytest.approx(1.0, rel=1e-12, abs=0.0)
    target = np.array([np.sqrt(g2), -np.sqrt(g1)]) / np.sqrt(g1 + g2)
    assert abs(abs(np.vdot(target, recs[0].null_vector)) - 1.0) <= 1e-12
    i = int(np.argmin([r.width for r in traj]))
    naive = _naive_amplitude(family, traj[i])
    lo, hi = traj[i - 1].param, traj[i + 1].param
    assert naive(lo) * naive(hi) > 0
    with pytest.raises(ValueError):
        brentq(naive, lo, hi)


def test_find_bics_root_follows_level_through_crossing_dark_level(monkeypatch):
    # the levels 1 +/- eps of the crossing test plus a third mode that
    # couples to nothing and sweeps through the BIC energy inside the
    # bracket: it crosses the BIC level of the compression exactly.  By
    # ordinal the far bracket end lands on the dark mode, where sigma is
    # exactly zero; that root is on another level, so the level is
    # followed by overlap instead, to the BIC at eps* = 0
    golden = _counting_golden(monkeypatch)
    g1, g2 = 0.3, 0.1
    family = _split_levels_family(g1, g2, dark=lambda eps: 1.0 + 0.5 * (eps - 0.06))
    grid = np.linspace(-0.4, 0.4, 16) + 0.013
    seed = np.array([np.sqrt(g2), -np.sqrt(g1), 0.0]) / np.sqrt(g1 + g2)
    traj = hcore.track(family, grid, seed_energy=1.0, branch_vector=seed)
    recs = hcore.find_bics(traj, family)
    assert len(recs) == 1 and recs[0].is_bic and golden == []
    assert abs(recs[0].param) <= 1e-12 and recs[0].param_err <= 1e-12
    assert recs[0].omega_sq == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert abs(abs(np.vdot(seed, recs[0].null_vector)) - 1.0) <= 1e-12


def test_quasi_bic_reported_not_dropped(monkeypatch):
    # asymmetric leads: no superposition decouples from both continua, so the
    # width minimum stays finite -> quasi-BIC records, which the root finder
    # hands to the golden-section minimiser on the grid bracket
    golden = _counting_golden(monkeypatch)
    channels = hcore.ChannelSet([hcore.Channel("L", ("lead",), 0.0, fixed_k=1.0),
                                 hcore.Channel("R", ("lead",), 0.0, fixed_k=1.0)])
    w = hcore.CouplingMatrix(np.array([[0.30, 0.20], [0.25, -0.35]], dtype=complex))

    def family(eps):
        basis = hcore.ClosedBasis(labels=("+", "-"), energies=np.array([eps, -eps]))
        return hcore.AssemblyFrame(basis, channels, w)

    traj = hcore.track(family, np.linspace(-1.0, 1.0, 41), seed_energy=-1.0)
    recs = hcore.find_bics(traj, family)
    assert recs and all(not r.is_bic for r in recs)
    assert all(r.gamma_res > 1e-8 for r in recs)
    assert len(golden) == len(recs)
    assert all(0.0 < r.param_err <= 1e-10 for r in recs)
    assert all(min(ab) < r.param < max(ab) for r, ab in zip(recs, golden))


def test_bic_singularity_duality_and_orthogonality():
    p = TwoLevelParams(eps=0.0, gamma1=0.1, gamma2=0.1, u=0.0)
    model = twolevel_model(p)
    h = model(0.0)
    a = 0.0 * np.eye(2) - h.matrix
    _, sv, vh = np.linalg.svd(a)
    assert sv[-1] <= 1e-7 * sv[0]
    # the trapped state (the singular vector) is orthogonal to the channel
    null = vh[-1].conj()
    assert np.linalg.norm(h.coupling.matrix.conj().T @ null) <= 1e-7


def test_bic_mode_sorted_unit_norm():
    rec = hcore.BICRecord(param=0.0, omega_sq=1.0,
                          null_vector=np.array([0.1, 0.9, 0.4]),
                          gamma_res=0.0, residual=0.0, is_bic=True,
                          labels=("a", "b", "c"))
    exp = hcore.bic_mode(rec, rec.labels)
    assert [lab for lab, _ in exp] == ["b", "c", "a"]
    assert np.isclose(sum(abs(c) ** 2 for _, c in exp), 1.0)


def test_eig_near_matches_dense():
    rng = np.random.default_rng(5)
    n = 300
    h = np.diag(rng.uniform(0, 50, n)).astype(complex)
    h += -0.05j * np.outer(rng.normal(size=n), rng.normal(size=n))
    dense = np.linalg.eigvals(h)
    sigma = 25.0
    vals, _ = hcore._eig_near(h, sigma)
    got = vals[np.argmin(np.abs(vals - sigma))]
    want = dense[np.argmin(np.abs(dense - sigma))]
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_rqi_accepts_only_a_converged_residual():
    rng = np.random.default_rng(11)
    n = 30
    h = np.diag(rng.uniform(0, 20, n)) - 0.05j * np.outer(rng.normal(size=n), rng.normal(size=n))
    vals, vecs = np.linalg.eig(h)
    v0 = vecs[:, 0] + 1e-3 * rng.normal(size=n)
    assert hcore._rqi(h, v0, max_steps=0) is None
    assert hcore._rqi(h, v0, max_steps=1) is None
    lam, v = hcore._rqi(h, v0)
    assert abs(lam - vals[0]) <= 1e-12 * abs(vals[0])
    assert abs(np.vdot(vecs[:, 0], v)) >= 1.0 - 1e-10


def _tied_blocks(n=20, seed=3):
    """Two declared blocks holding bit-identical matrices: modes i and
    n + i share an energy, and each half couples to its own channel with
    the same amplitudes."""
    rng = np.random.default_rng(seed)
    e = np.sort(rng.uniform(1.0, 20.0, n))
    basis = hcore.ClosedBasis(labels=tuple(range(2 * n)), energies=np.concatenate([e, e]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 1.0),
                                 hcore.Channel("R", ("p", 1), 1.0)])
    w = np.zeros((2 * n, 2), dtype=complex)
    w[:n, 0] = w[n:, 1] = rng.normal(0.0, 0.4, n)
    blocks = [hcore.SymmetryBlock.of(2 * n, [(i, i, 0) for i in range(k, k + n)])
              for k in (0, n)]
    return hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(w), blocks=blocks)(9.0)


def _no_dense_eig(*args, **kwargs):
    raise AssertionError("dense eig on a cold start")


def test_cold_start_tie_between_blocks_goes_to_the_first(monkeypatch):
    h = _tied_blocks()
    assert np.array_equal(h.parts[0], h.parts[1])
    vals, vecs = hcore.spectrum(h)
    monkeypatch.setattr(np.linalg, "eig", _no_dense_eig)
    for sigma in (5.0, 9.0, 12.0):
        i = hcore._pick_branch(vals, vecs, sigma, None)
        assert i < len(h.blocks[0])
        lam, v = hcore._branch_eig(h, sigma, None, None)
        assert hcore.holding_block(h.blocks, v) is h.blocks[0]
        assert abs(lam - vals[i]) <= 1e-12 * abs(vals[i])
        assert abs(np.vdot(vecs[:, i], v)) >= 1.0 - 1e-10


def test_cold_start_near_tie_solves_both_blocks_by_eigvals(monkeypatch):
    # the two nearest real parts tie exactly (bit-identical blocks): both
    # blocks are solved again by eigvals, so rounding in the channel-space
    # roots cannot move the pick to the second block
    h = _tied_blocks()
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape[0]) or eigvals(a))
    lam, v = hcore._cold_eig(h, 9.0)
    assert calls == [20, 20]
    assert hcore.holding_block(h.blocks, v) is h.blocks[0]


def _lossless_pair(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h = A - i V V^dag."""
    return a - 1j * (v @ v.conj().T)


def _assert_spectrum(z, h, tol=1e-13):
    ref = np.linalg.eigvals(h)
    cost = np.abs(z[:, None] - ref[None, :])
    assert z.shape == ref.shape
    # a greedy match is one to one here: the eigenvalues are far apart
    # against the tolerance
    assert sorted(np.argmin(cost, axis=1)) == list(range(ref.size))
    assert cost.min(axis=1).max() <= tol * hcore._scale(h)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_secular_eigvals_match_eigvals_at_any_rank(rank):
    rng = np.random.default_rng(rank)
    n = 40
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = np.diag(np.sort(rng.uniform(0.0, 30.0, n))) + 0.3 * (x + x.conj().T)
    v = 0.4 * (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    h = _lossless_pair(a, v)
    z = hcore._secular_eigvals(h, v)
    _assert_spectrum(z, h)
    vals, secular = hcore._cold_eigvals(h, v)
    assert secular
    _assert_spectrum(vals, h)


def test_secular_eigvals_deflate_decoupled_and_degenerate_poles():
    # dyadic entries keep A exact: the mode at 3 couples to nothing and
    # stays at 3; the two modes at 2 both couple, and their dark
    # combination stays at 2, exactly
    a = np.diag([1.0, 2.0, 2.0, 3.0, 5.0]).astype(complex)
    v = np.array([[0.5], [0.25], [0.5], [0.0], [0.125]], dtype=complex)
    h = _lossless_pair(a, v)
    z = hcore._secular_eigvals(h, v)
    _assert_spectrum(z, h)
    assert 2.0 in z and 3.0 in z
    assert np.sum(z.imag < 0) == 3


def test_cold_eigvals_at_threshold_take_eigvalsh(monkeypatch):
    # a channel exactly at its cutoff is open with k = 0: it reaches the
    # block with V = 0, which leaves H_b Hermitian (eigvalsh)
    rng = np.random.default_rng(2)
    basis = hcore.ClosedBasis(labels=tuple(range(6)), energies=np.linspace(1.0, 6.0, 6))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 3.5),
                                 hcore.Channel("L", ("p", 2), 9.0)])
    frame = hcore.AssemblyFrame(basis, channels, rng.normal(size=(6, 2)))
    h = frame(3.5)
    (v,) = frame.open_couplings(3.5)
    assert v.shape == (6, 1) and not np.any(v)
    calls = []
    for routine in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, routine, lambda a, f=getattr(np.linalg, routine),
                            r=routine: calls.append(r) or f(a))
    vals, secular = hcore._cold_eigvals(h.parts[0], v)
    assert calls == ["eigvalsh"] and not secular
    assert np.allclose(np.sort(vals.real), np.sort(np.linalg.eigvals(h.parts[0]).real),
                       rtol=0.0, atol=1e-13 * hcore._scale(h.parts[0]))
    # just above the cutoff the channel-space roots answer
    h = frame(3.5 + 1e-6)
    (v,) = frame.open_couplings(3.5 + 1e-6)
    calls.clear()
    vals, secular = hcore._cold_eigvals(h.parts[0], v)
    assert calls == [] and secular
    _assert_spectrum(vals, h.parts[0])


@pytest.mark.parametrize("constant, value", [("_SECULAR_ITER", 1), ("_SECULAR_TRACE", -1.0)])
def test_cold_eigvals_fall_back_to_eigvals_when_the_check_fails(constant, value, monkeypatch):
    # roots that have not converged, or whose sums miss the traces, are
    # thrown away for the dense eigvals
    rng = np.random.default_rng(4)
    a = np.diag(np.linspace(0.0, 10.0, 12)).astype(complex)
    v = 0.5 * rng.normal(size=(12, 1)) + 0j
    h = _lossless_pair(a, v)
    assert hcore._secular_eigvals(h, v) is not None
    monkeypatch.setattr(hcore, constant, value)
    assert hcore._secular_eigvals(h, v) is None
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m.shape) or eigvals(m))
    vals, secular = hcore._cold_eigvals(h, v)
    assert calls == [(12, 12)] and not secular
    assert np.array_equal(vals, eigvals(h))


def test_secular_eigvals_raise_no_warning():
    # every Aberth step divides by the zero difference of a root with
    # itself, and the start by that of a pole with itself; a close pair of
    # poles and an exactly degenerate one add near-zero ones: none of it
    # may warn
    import warnings
    a = np.diag([1.0, 1.0, 1.0 + 2 ** -40, 4.0]).astype(complex)
    v = np.array([[0.5, 0.0], [0.5, 0.25], [0.5, 0.5], [0.25, 0.125]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cols in ([0], [0, 1]):
            h = _lossless_pair(a, v[:, cols])
            _assert_spectrum(hcore._secular_eigvals(h, v[:, cols]), h)


def test_cold_start_on_an_exact_eigenvalue_takes_the_dense_eig(monkeypatch):
    # a diagonal H_eff shifted by one of its own eigenvalues has an exactly
    # zero pivot: inverse iteration breaks down and the dense eig answers
    basis = hcore.ClosedBasis(labels=("a", "b"), energies=np.array([1.0, 4.0]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("p", 1), 0.5)])
    h = hcore.AssemblyFrame(basis, channels,
                            hcore.CouplingMatrix(np.zeros((2, 1), dtype=complex)))(2.0)
    vals, vecs = hcore.spectrum(h)
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    for sigma in (1.0, 4.0):
        assert hcore._inverse_vector(h.parts[0], sigma) is None
        i = hcore._pick_branch(vals, vecs, sigma, None)
        lam, v = hcore._branch_eig(h, sigma, None, None)
        assert lam == vals[i] and np.array_equal(v, vecs[:, i])
    assert calls == [(2, 2), (2, 2)]


# ------------------------------------------------------------------ layout --

def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_private_names_of_another():
    """Modules of the package share only public names: no module under
    openres/ imports or reads an underscore-prefixed attribute of another."""
    found = []
    for path in sorted(Path(hcore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = (node.module or "").split(".")
            if node.level == 0 and source[0] != "openres":
                continue
            inner = ".".join(source[1:] if node.level == 0 else source)
            for alias in node.names:
                if not inner:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {inner}.{alias.name}")
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert found == []


# ------------------------------------------------- channel-space eigenpairs --

def _one_open_block(n=48, decoupled=(), channels=1, seed=6, weak=None, degenerate=False):
    """H_eff of n modes and one block, each of ``channels`` open channels
    (k = 1, so that the Hermitian part is diag(E) exactly) coupled to every
    mode but those in ``decoupled``, and to mode 20 by ``weak`` if given;
    ``degenerate`` gives mode 21 the energy of mode 20."""
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(1.0, 30.0, n))
    if degenerate:
        energies[21] = energies[20]
    basis = hcore.ClosedBasis(labels=tuple(range(n)), energies=energies)
    chans = hcore.ChannelSet([hcore.Channel("L", ("p", c), 0.5, fixed_k=1.0)
                              for c in range(channels)])
    w = 0.3 * rng.normal(size=(n, channels))
    w[list(decoupled)] = 0.0
    if weak is not None:
        w[20] = weak
    return hcore.AssemblyFrame(basis, chans, hcore.CouplingMatrix(w))(9.0)


def _counting(monkeypatch, module, name, calls):
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or f(*a, **k))


def _assert_pairs(vals, vecs, h, tol=1e-13):
    _assert_spectrum(vals, h, tol)
    assert np.all(hcore._converged(h, vals, vecs))
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0.0, atol=1e-14)


def test_block_eig_keeps_an_unreached_pole_and_its_mode(monkeypatch):
    h = _one_open_block(decoupled=(7,))
    (block,), (part,) = h.blocks, h.parts
    calls = []
    _counting(monkeypatch, np.linalg, "eig", calls)
    vals, vecs = hcore.block_eig(h, block)
    assert calls == []
    _assert_pairs(vals, vecs, part)
    # the decoupled mode is an eigenvector as it is, at its own energy
    j = int(np.argmin(np.abs(vals - h.basis.energies[7])))
    assert vals[j] == h.basis.energies[7]
    assert abs(vecs[7, j]) == pytest.approx(1.0, abs=1e-14)


def test_block_eig_keeps_the_dark_state_of_degenerate_poles(monkeypatch):
    # modes 20 and 21 share an energy and both couple: their dark
    # combination stays at that energy, and its vector is the rotated pole
    h = _one_open_block(degenerate=True)
    (block,), (part,) = h.blocks, h.parts
    calls = []
    _counting(monkeypatch, np.linalg, "eig", calls)
    vals, vecs = hcore.block_eig(h, block)
    assert calls == []
    _assert_pairs(vals, vecs, part)
    j = int(np.argmin(np.abs(vals - h.basis.energies[20])))
    assert vals[j] == h.basis.energies[20]
    w = h.coupling.matrix[:, 0]
    assert abs(np.vdot(w, vecs[:, j])) <= 1e-15
    assert np.linalg.norm(vecs[[20, 21], j]) == pytest.approx(1.0, abs=1e-14)


def test_block_eig_takes_the_dense_eig_when_a_repaired_pair_misses(monkeypatch):
    # a pair that misses its check, and again after the step at its pole,
    # sends the block to the dense eig, bit for bit
    h = _one_open_block()
    (block,), (part,) = h.blocks, h.parts
    converged, calls = hcore._converged, []

    def first_misses(h, lam, v):
        ok = converged(h, lam, v)
        if v.ndim == 2:
            ok[0] = False
        return ok
    monkeypatch.setattr(hcore, "_converged", first_misses)
    _counting(monkeypatch, np.linalg, "eig", calls)
    got = hcore.block_eig(h, block)
    assert calls == ["eig"]
    monkeypatch.undo()
    assert all(np.array_equal(x, y) for x, y in zip(got, np.linalg.eig(part)))


def test_block_eig_takes_a_weakly_coupled_pair_from_its_pole(monkeypatch):
    # a mode coupled by 1e-5 gives a root 1e-10 from its pole, where z - lam
    # has lost four digits and the first vector misses its check; the
    # secular equation solved at that pole repairs it, with no dense eig
    h = _one_open_block(weak=1e-5)
    converged, checks, calls = hcore._converged, [], []
    monkeypatch.setattr(hcore, "_converged", lambda h, lam, v: checks.append(
        v.shape[1] if v.ndim == 2 else 0) or converged(h, lam, v))
    _counting(monkeypatch, np.linalg, "eig", calls)
    vals, vecs = hcore.block_eig(h, h.blocks[0])
    assert checks == [48, 1] and calls == []
    monkeypatch.undo()
    _assert_pairs(vals, vecs, h.parts[0])


@pytest.mark.parametrize("n, channels", [(48, 2), (48, 3), (39, 1), (2, 1)])
def test_block_eig_takes_the_dense_eig_off_rank_one_or_below_the_floor(n, channels,
                                                                      monkeypatch):
    # two open directions, or a block under _PAIRS_MIN modes: the dense eig
    # answers, bit for bit
    h = _one_open_block(n, channels=channels)
    calls = []
    _counting(monkeypatch, np.linalg, "eig", calls)
    vals, vecs = hcore.block_eig(h, h.blocks[0])
    assert calls == ["eig"]
    monkeypatch.undo()
    ref_vals, ref_vecs = np.linalg.eig(h.parts[0])
    assert vals.tobytes() == ref_vals.tobytes() and vecs.tobytes() == ref_vecs.tobytes()
