"""Spherical hard-wall cavity with cylindrical waveguides attached at
rotated positions.

Cavity modes j_l(kappa_ln r/R) Y_lm with kappa_ln the Neumann roots of
j_l'; each (l, n) level is (2l+1)-fold degenerate over m.  Couplings are
evaluated once for a waveguide at the pole (azimuthal selection m = p,
polar map theta = arcsin(rho/R) on the flat port disk) and rotated to the
actual attachment with Wigner small-d matrices,

    W~_{lmn,pq} = e^{-i m gamma} sum_k e^{-i k alpha} d^l_{mk}(beta) W_{lkn,pq}.

The narrow resonances scale as |W|^2 ~ R^-3 against level spacings ~ R^-2;
the interference trapping between different-l resonances is driven by the
evanescent-channel level shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hcore, specfun
from .cyl3d import MU_11, duct_channels, radial_profile


@dataclass(frozen=True)
class SphereCavity:
    """Hard-wall sphere; ``root_kind`` selects the radial Neumann table:
    "half-integer" roots J'_{l+1/2} (the convention behind the reference
    avoided-crossing pair l=4,n=1 / l=1,n=2) or "spherical" roots j_l'."""

    radius: float = 10.0
    l_max: int = 6
    n_max: int = 3
    root_kind: str = "half-integer"

    def __post_init__(self):
        if self.radius <= 1.0:
            raise ValueError("sphere must exceed the waveguide radius (=1)")
        if self.root_kind not in ("half-integer", "spherical"):
            raise ValueError("root_kind must be 'half-integer' or 'spherical'")

    def kappa(self, l: int, n: int) -> float:
        if self.root_kind == "half-integer":
            return specfun.half_integer_neumann_roots(l, self.n_max)[n]
        return specfun.spherical_neumann_roots(l, self.n_max)[n]

    def mode_labels(self) -> tuple:
        return tuple((l, m, n)
                     for l in range(0, self.l_max + 1)
                     for m in range(-l, l + 1)
                     for n in range(1, self.n_max + 1))

    def energy(self, l: int, n: int) -> float:
        return (self.kappa(l, n) / self.radius) ** 2

    @lru_cache(maxsize=16)
    def basis(self) -> hcore.ClosedBasis:
        labels = sorted(self.mode_labels(),
                        key=lambda lmn: (self.energy(lmn[0], lmn[2]), lmn[1]))
        return hcore.ClosedBasis(
            labels=tuple(labels),
            energies=np.array([self.energy(l, n) for (l, m, n) in labels]))

    def radial_surface_amplitude(self, l: int, n: int) -> float:
        """Normalized radial factor at r = R."""
        kap = self.kappa(l, n)
        return math.sqrt(2.0) * kap / (self.radius ** 1.5
                                       * math.sqrt(kap * kap - l * (l + 1)))


@dataclass(frozen=True)
class WaveguideAttachment:
    """Port direction as Euler angles (alpha, beta, gamma); the identity
    attachment is the pole."""

    port: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


def _pole_radial_integrals(cavity: SphereCavity, pq_list, n_rho: int = 64,
                           tol: float = 1e-7) -> dict:
    """I[(l, p, q)] = int_0^1 rho psi_pq(rho) P_l^p(cos theta(rho)) drho with
    theta = arcsin(rho / R); Gauss-Legendre with node-doubling audit."""
    def compute(nn):
        t, wq = np.polynomial.legendre.leggauss(nn)
        rho = 0.5 * (t + 1.0)
        wr = 0.5 * wq * rho
        cos_t = np.sqrt(1.0 - (rho / cavity.radius) ** 2)
        out = {}
        for (p, q) in pq_list:
            duct = radial_profile(p, q, 1.0, rho)
            for l in range(abs(p), cavity.l_max + 1):
                leg = specfun.assoc_legendre(l, abs(p), cos_t)
                if p < 0:
                    leg = leg * ((-1.0) ** abs(p) * math.factorial(l - abs(p))
                                 / math.factorial(l + abs(p)))
                out[(l, p, q)] = float(np.sum(wr * duct * leg))
        return out

    i1 = compute(n_rho)
    i2 = compute(2 * n_rho)
    diff = max(abs(i1[k] - i2[k]) for k in i1)
    if diff > tol:
        raise RuntimeError(f"pole quadrature not converged (change {diff:.2e})")
    return i2


def sphere_pole_coupling(cavity: SphereCavity,
                         channels: hcore.ChannelSet) -> np.ndarray:
    """Coupling rows (l, m, n) x channels for a waveguide at the pole:
    nonzero only for m = p."""
    labels = cavity.basis().labels
    rad = _pole_radial_integrals(cavity, sorted({ch.label[1:] for ch in channels}))
    amp = np.array([cavity.radial_surface_amplitude(l, n) * math.sqrt(2.0 * math.pi)
                    * math.sqrt((2 * l + 1) * math.factorial(l - m)
                                / (4.0 * math.pi * math.factorial(l + m)))
                    for l, m, n in labels])
    ms = np.array([m for _, m, _ in labels])
    w = np.zeros((len(labels), len(channels)), dtype=complex)
    for j, ch in enumerate(channels):
        p, q = ch.label[1], ch.label[2]
        rows = np.flatnonzero(ms == p)
        w[rows, j] = amp[rows] * np.array([rad[(labels[i][0], p, q)] for i in rows])
    return w


def rotate_coupling(w_pole: np.ndarray, cavity: SphereCavity,
                    attachment: WaveguideAttachment) -> np.ndarray:
    """Wigner rotation of the pole coupling block to an attachment, one d^l
    matrix and (m, n) row array per l, summed over k in increasing order (a
    term with d = 0 adds a signed zero to a sum that starts at +0)."""
    idx = {lab: i for i, lab in enumerate(cavity.basis().labels)}
    out = np.zeros_like(w_pole)
    a, b, g = attachment.alpha, attachment.beta, attachment.gamma
    for l in range(cavity.l_max + 1):
        ms = range(-l, l + 1)
        rows = np.array([[idx[(l, m, n)] for n in range(1, cavity.n_max + 1)] for m in ms])
        d = specfun.wigner_d_matrix(l, b)
        acc = np.zeros(rows.shape + w_pole.shape[1:], dtype=complex)
        for j, k in enumerate(ms):
            acc += (np.exp(-1j * k * a) * d[:, j])[:, None, None] * w_pole[rows[j]]
        out[rows] = np.array([np.exp(-1j * m * g) for m in ms])[:, None, None] * acc
    return out


@lru_cache(maxsize=8)
def _pole_block(cavity: SphereCavity, cutoff_max_sq: float):
    """Pole coupling block, its channel labels and the basis, once per
    geometry and process (read-only arrays)."""
    pole_chans = duct_channels(cutoff_max_sq, ports=("X",))
    return (hcore.read_only(sphere_pole_coupling(cavity, pole_chans)),
            tuple(ch.label[1:] for ch in pole_chans), cavity.basis())


@lru_cache(maxsize=32)
def _port_columns(cavity: SphereCavity, attachment: WaveguideAttachment,
                  cutoff_max_sq: float) -> np.ndarray:
    """Pole block rotated to one attachment, once per process (read-only)."""
    pole, _, _ = _pole_block(cavity, cutoff_max_sq)
    return hcore.read_only(rotate_coupling(pole, cavity, attachment))


@lru_cache(maxsize=8)
def mirror_blocks(cavity: SphereCavity) -> tuple:
    """(even, odd) symmetry blocks of the mirror y -> -y, which maps
    |l,m,n> to (-1)^m |l,-m,n> and each port with alpha = gamma = 0 (a
    direction in the xz-plane) to itself: the even block holds the m = 0
    modes and (|l,m,n> + (-1)^m |l,-m,n>)/sqrt(2), the odd block the minus
    combinations (84 + 63 modes at l_max = 6, n_max = 3)."""
    labels = cavity.basis().labels
    index = {lab: i for i, lab in enumerate(labels)}
    even, odd = [], []
    for i, (l, m, n) in enumerate(labels):
        if m == 0:
            even.append((i, i, 0.0))
        elif m > 0:
            j, sign = index[(l, -m, n)], (-1.0) ** m
            even.append((i, j, sign))
            odd.append((i, j, -sign))
    return tuple(hcore.SymmetryBlock.of(len(labels), vecs) for vecs in (even, odd))


@lru_cache(maxsize=32)
def sphere_model(cavity: SphereCavity, attachments: tuple,
                 cutoff_max_sq: float = 16.0) -> hcore.AssemblyFrame:
    """Open spherical cavity with a tuple of rotated ports (``attachments``);
    ports that all lie in the xz-plane (alpha = gamma = 0) keep the mirror
    symmetry of ``mirror_blocks``.  Built once per geometry and process and
    shared (its arrays are read-only)."""
    ports = tuple(att.port for att in attachments)
    if len(set(ports)) != len(ports):
        raise ValueError("port names must be distinct")
    channels = duct_channels(cutoff_max_sq, ports=ports)
    _, pole_labels, basis = _pole_block(cavity, cutoff_max_sq)
    w = np.zeros((len(basis), len(channels)), dtype=complex)
    for att in attachments:
        wr = _port_columns(cavity, att, cutoff_max_sq)
        for j, ch in enumerate(channels):
            if ch.port == att.port:
                w[:, j] = wr[:, pole_labels.index(ch.label[1:])]
    in_plane = all(att.alpha == 0.0 and att.gamma == 0.0 for att in attachments)
    return hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(hcore.read_only(w)),
                               blocks=mirror_blocks(cavity) if in_plane else ())


def l_block_weights(record: hcore.BICRecord) -> dict:
    """Norm^2 of the null vector per orbital index l."""
    out = {}
    for a, (l, m, n) in zip(record.null_vector, record.labels):
        out[l] = out.get(l, 0.0) + abs(a) ** 2
    return out


def classify_sphere_bic(record: hcore.BICRecord, tol: float = 0.02) -> str:
    """FW trapping mixes different-l blocks; a rotated single multiplet that
    decouples is symmetry-protected."""
    weights = l_block_weights(record)
    major = [l for l, wgt in weights.items() if wgt > tol]
    return "friedrich-wintgen" if len(major) > 1 else "symmetry-protected"


def _mirror_even_seed(cavity: SphereCavity, l: int, n: int) -> np.ndarray:
    """(|l,1,n> - |l,-1,n>)/sqrt(2): the m = +/-1 combination that couples
    to the rotated port's plane-wave channel (d^l_{-1,0} = -d^l_{1,0}, so
    the plus combination decouples identically)."""
    basis = cavity.basis()
    v = np.zeros(len(basis), dtype=complex)
    v[basis.labels.index((l, 1, n))] = 1.0 / math.sqrt(2.0)
    v[basis.labels.index((l, -1, n))] = -1.0 / math.sqrt(2.0)
    return v


def sphere_fw_bic(cavity: SphereCavity, theta_range=(0.55 * math.pi, 0.85 * math.pi),
                  pair=((4, 1), (1, 2)), n_grid: int = 25,
                  cutoff_max_sq: float = 16.0,
                  width_tol: float = hcore.DEFAULT_WIDTH_TOL,
                  null_tol: float = hcore.DEFAULT_NULL_TOL) -> hcore.BICRecord:
    """Interference trapping point of two different-l resonances on the
    two-port polar sweep.

    Tracks the mirror-even m = +/-1 branches of the two (l, n) multiplets
    (default (4,1) and (1,2)), whose avoided crossing - enabled by the
    evanescent-channel level shifts - closes one width; returns the best
    zero-width record, classified by l content."""
    def family(dt):
        return sphere_model(
            cavity, (WaveguideAttachment("in"),
                     WaveguideAttachment("out", beta=float(dt))), cutoff_max_sq)

    grid = np.linspace(theta_range[0], theta_range[1], n_grid)
    best = None
    for (l, n) in pair:
        seed = _mirror_even_seed(cavity, l, n)
        try:
            traj = hcore.track(family, grid, seed_energy=cavity.energy(l, n),
                               branch_vector=seed)
            recs = hcore.find_bics(traj, family, width_tol=width_tol, null_tol=null_tol)
        except np.linalg.LinAlgError:
            continue
        for rec in recs:
            if best is None or rec.gamma_res < best.gamma_res:
                best = rec
    if best is None:
        raise RuntimeError("no width minimum found on the tracked branches")
    best.classification = classify_sphere_bic(best)
    return best


def surface_field(record: hcore.BICRecord, cavity: SphereCavity,
                  theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """BIC pressure pattern on the sphere surface over a (theta, phi) grid."""
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    field = np.zeros_like(tg, dtype=complex)
    for a, (l, m, n) in zip(record.null_vector, record.labels):
        if abs(a) < 1e-12:
            continue
        field += (a * cavity.radial_surface_amplitude(l, n)
                  * specfun.spherical_harmonic(l, m, tg, pg))
    return field


def coupling_norm_sq(cavity: SphereCavity, l: int, n: int,
                     pq=(0, 1)) -> float:
    """Squared pole-coupling norm of an (l, n) multiplet to one channel;
    scales as R^-3 at fixed channel."""
    chans = duct_channels(16.0, ports=("X",))
    w = sphere_pole_coupling(cavity, chans)
    j = [k for k, ch in enumerate(chans) if ch.label[1:] == pq][0]
    return sum(abs(w[i, j]) ** 2 for i, (ll, _, nn) in enumerate(cavity.basis().labels)
               if (ll, nn) == (l, n))
