"""Cylindrical hard-wall resonator with two off-axis circular waveguides.

The waveguides (unit radius) attach to the end faces z = 0 and z = L at an
axis offset r0; the z = L port is rotated about the cavity axis by an angle
dphi.  Rotating a port multiplies its coupling column by e^{i(p-m) dphi}
relative to the unrotated one, and the face factor contributes (-1)^(l-1):

    W^(L)_{mnl;pq} = (-1)^(l-1) e^{i(p-m) dphi} W^(R)_{mnl;pq}.

Overlap integrals over the port disk are closed-form: Graf's addition
theorem reduces the angular integral to one Bessel factor and Lommel's
integral the radial one to Bessel values (``disk_overlaps``).  The truncated
three-mode theory around the (0,1,2)/(±1,1,1) crossing is provided in
closed form, including the line of zero-width points in (L, dphi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np

from . import hcore, specfun

MU_11 = 1.84118378134067  # first root of J_1'
# the BIC search band: the (0,1) duct channel alone is open, clear of its
# cutoff 0 and of the (+-1,1) cutoff MU_11^2
_BAND = (0.05, MU_11**2 * 0.999)


@dataclass(frozen=True)
class CylCavity:
    radius: float = 3.0
    length: float = 4.0
    m_max: int = 4
    n_max: int = 3
    l_max: int = 6

    def __post_init__(self):
        if self.radius <= 1.0 or self.length <= 0:
            raise ValueError("need radius > waveguide radius (=1) and positive length")

    def mode_labels(self) -> tuple:
        return tuple((m, n, l)
                     for m in range(-self.m_max, self.m_max + 1)
                     for n in range(1, self.n_max + 1)
                     for l in range(1, self.l_max + 1))

    def energy(self, m: int, n: int, l: int) -> float:
        return self._energy(specfun.neumann_roots(abs(m), self.n_max)[n], l)

    def _energy(self, mu: float, l: int) -> float:
        return (mu / self.radius) ** 2 + (math.pi * (l - 1) / self.length) ** 2

    @lru_cache(maxsize=16)
    def basis(self) -> hcore.ClosedBasis:
        """The modes sorted by energy (stable in ``mode_labels`` order); one
        root table per |m|.  One per cavity, energies read-only."""
        tables = [specfun.neumann_roots(m, self.n_max) for m in range(self.m_max + 1)]
        energy = {(m, n, l): self._energy(tables[abs(m)][n], l)
                  for m, n, l in self.mode_labels()}
        labels = sorted(energy, key=energy.get)
        return hcore.ClosedBasis(labels=tuple(labels),
                                 energies=np.array([energy[x] for x in labels]))

    def z_factor(self, l: int, z: float) -> float:
        amp = math.sqrt((2.0 - (l == 1)) / self.length)
        return amp * math.cos(math.pi * (l - 1) * z / self.length)


def _radial_norm(m: int, mu: float, radius: float) -> float:
    """N of the radial factor N J_m(mu r / R), unit-normed over the disk:
    int_0^R (N J_m(mu r / R))^2 r dr = 1 at a Neumann root mu of order m."""
    if mu == 0.0:
        return math.sqrt(2.0) / radius
    jmu, _ = specfun.bessel_j(m, mu)
    if m == 0:
        return math.sqrt(2.0) / (radius * jmu)
    return math.sqrt(2.0 / (mu * mu - m * m)) * mu / (radius * jmu)


def radial_profile(m: int, n: int, radius: float, r: np.ndarray) -> np.ndarray:
    """Normalized cross-section radial factor of a hard-wall disk mode."""
    m = abs(m)
    mu = specfun.neumann_roots(m, n)[n]
    norm = _radial_norm(m, mu, radius)
    if mu == 0.0:
        return np.full_like(np.asarray(r, dtype=float), norm)
    jr, _ = specfun.bessel_j(m, mu * np.asarray(r, dtype=float) / radius)
    return norm * jr


def duct_channels(cutoff_max_sq: float = 16.0, ports=("R", "L")) -> hcore.ChannelSet:
    """Circular-duct channels (p, q) with cutoffs mu_pq^2 below the cap;
    |p| <= 4 and q <= 2 hold every channel below the largest cap, 16."""
    chans = []
    for p in range(-4, 5):
        table = specfun.neumann_roots(abs(p), 2)
        for q in range(1, 3):
            mu = table[q]
            if mu * mu <= cutoff_max_sq:
                for port in ports:
                    chans.append(hcore.Channel(port, ("pq", p, q), mu * mu))
    return hcore.ChannelSet(chans)


def radial_integral(p: int, a: float, b: float) -> float:
    """int_0^1 rho J_p(a rho) J_p(b rho) drho, p >= 0, a, b >= 0.

    Lommel's integral (DLMF 10.22.5): [b J_p(a) J'_p(b) - a J_p(b) J'_p(a)]
    / (a^2 - b^2), which holds at a = 0 and b = 0 too.  Within 1e-3 of
    a = b the difference cancels; there a Gauss-Legendre rule of
    64 + 2 (a + b) nodes, exact to rounding, takes over."""
    if abs(a - b) < 1e-3 * max(a, b) or a == b:
        t, w = np.polynomial.legendre.leggauss(64 + 2 * int(a + b))
        rho = 0.5 * (t + 1.0)
        return float(np.sum(0.5 * w * rho * specfun.bessel_j(p, a * rho)[0]
                            * specfun.bessel_j(p, b * rho)[0]))
    (ja, dja), (jb, djb) = specfun.bessel_j(p, a), specfun.bessel_j(p, b)
    return (b * ja * djb - a * jb * dja) / (a * a - b * b)


@lru_cache(maxsize=32)
def _disk_overlaps(radius: float, m_max: int, n_max: int, r0: float, pq_tuple: tuple):
    roots = [specfun.neumann_roots(abs(p), q)[q] for p, q in pq_tuple]
    ducts = [(p, q, a, _radial_norm(abs(p), a, 1.0)) for (p, q), a in zip(pq_tuple, roots)]
    out = {}
    for m in range(-m_max, m_max + 1):
        for n in range(1, n_max + 1):
            mu = specfun.neumann_roots(abs(m), n_max)[n]
            k, norm = mu / radius, _radial_norm(abs(m), mu, radius)
            for p, q, a, duct_norm in ducts:
                # J_n = (-1)^n J_|n| for n < 0, for each of m, p and m - p
                sign = (-1) ** ((abs(m) + abs(p) + abs(m - p)) // 2 + m)
                val = (sign * norm * duct_norm * specfun.bessel_j(abs(m - p), k * r0)[0]
                       * radial_integral(abs(p), a, k))
                out[(m, n, p, q)] = complex(val)
    return MappingProxyType(out)


def disk_overlaps(cavity: CylCavity, r0: float, pq_list) -> MappingProxyType:
    """Port-disk overlaps K[(m, n, p, q)] =
    (1/2pi) intint_disk psi_pq(rho) e^{i p alpha} psi_mn(r) e^{-i m phi}
    over the duct disk r e^{i phi} = r0 + rho e^{i alpha}, rho <= 1.

    Graf's addition theorem (DLMF 10.23.7),
    J_m(k r) e^{i m phi} = sum_nu J_{m-nu}(k r0) J_nu(k rho) e^{i nu alpha},
    leaves nu = p after the alpha integral, so with k = mu_mn / R
    K = N_mn N_pq J_{m-p}(k r0) int_0^1 rho J_|p|(mu_pq rho) J_p(k rho) drho
    (signed orders by J_{-n} = (-1)^n J_n; the radial factor is
    ``radial_integral``).  Length-independent, cached per geometry; the
    mapping is read-only because every model of the geometry shares it."""
    return _disk_overlaps(cavity.radius, cavity.m_max, cavity.n_max, r0, tuple(pq_list))


def rotation_blocks(basis: hcore.ClosedBasis, dphi: float) -> tuple:
    """(even, odd) symmetry blocks of the half-turn about the transverse
    axis through the cavity centre that swaps the two ports.  It maps
    |m,n,l> to s |-m,n,l> with s = e^{i m dphi} (-1)^(l-1), for every dphi
    and r0, so the blocks hold (|m,n,l> +/- s |-m,n,l>)/sqrt(2) for m > 0
    and the m = 0 modes of odd (even block) or even (odd block) l: 81 + 81
    modes at the default truncation.  They depend on the labels alone."""
    labels = basis.labels
    index = {lab: i for i, lab in enumerate(labels)}
    even, odd = [], []
    for i, (m, n, l) in enumerate(labels):
        sign = (-1.0) ** (l - 1)
        if m == 0:
            (even if sign > 0 else odd).append((i, i, 0.0))
        elif m > 0:
            j, phase = index[(-m, n, l)], sign * np.exp(1j * m * dphi)
            even.append((i, j, phase))
            odd.append((i, j, -phase))
    return tuple(hcore.SymmetryBlock.of(len(labels), vecs) for vecs in (even, odd))


@lru_cache(maxsize=32)
def cyl_model(cavity: CylCavity, dphi: float, r0: float = 1.5) -> hcore.AssemblyFrame:
    """Open cylindrical resonator with ports at z=0 (unrotated, 'R') and
    z=L (rotated by dphi, 'L'), in the symmetry blocks of
    ``rotation_blocks``, with the ``duct_channels`` of cutoff up to 16.
    The modes are sorted by energy.  Built once per geometry and process
    and shared (its arrays are read-only); a length scan builds one and
    scales it (``length_family``)."""
    # basis first: the channels then slice its root tables instead of extending shorter ones
    basis, channels = cavity.basis(), duct_channels()
    labels = basis.labels
    overlaps = disk_overlaps(cavity, r0, sorted({ch.label[1:] for ch in channels}))
    z0 = np.array([cavity.z_factor(l, 0.0) for _, _, l in labels])
    face = np.array([(-1.0) ** (l - 1) for _, _, l in labels])
    m_at = np.array([m for m, _, _ in labels]) + cavity.m_max
    # per channel: overlap * z factor, on the rotated port * (-1)^(l-1) e^{i(p-m) dphi}
    w = np.empty((len(labels), len(channels)), dtype=complex)
    for j, ch in enumerate(channels):
        p, q = ch.label[1], ch.label[2]
        w[:, j] = np.array([overlaps[(m, n, p, q)] for m, n, _ in labels]) * z0
        if ch.port != "R":
            rot = np.array([np.exp(1j * (p - m) * dphi)
                            for m in range(-cavity.m_max, cavity.m_max + 1)])
            w[:, j] = face * rot[m_at] * w[:, j]
    return hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(hcore.read_only(w)),
                               blocks=rotation_blocks(basis, dphi))


def length_family(cavity: CylCavity, dphi: float, r0: float = 1.5):
    """The model of ``cavity`` at a length L > 0 (ValueError otherwise), as
    a function of L.  A length enters H_eff only as W ~ 1/sqrt(L) and the
    energies E_perp + E_z / L^2, so it is the frame of ``cavity`` (length
    L0) scaled: W by sqrt(L0 / L), each energy recomputed at L.  The modes
    keep their energy order at L0, so that branch vectors compare mode by
    mode along a scan.  The frame is built afresh, in the mode order
    ``cavity.basis()`` gives, not taken from the cache of ``cyl_model``."""
    frame = cyl_model.__wrapped__(cavity, dphi, r0)
    labels = frame.basis.labels
    mu = [specfun.neumann_roots(abs(m), cavity.n_max)[n] for m, n, _ in labels]

    def at(length: float) -> hcore.AssemblyFrame:
        at_length = replace(cavity, length=float(length))
        energies = np.array([at_length._energy(r, l) for r, (_, _, l) in zip(mu, labels)])
        return frame.scaled(w_divisor=math.sqrt(at_length.length / cavity.length),
                            energies=energies)
    return at


def cyl_transmittance(model: hcore.AssemblyFrame, omega_sq: float):
    """S over open channels and the (0,1)->(0,1) L->R transmittance."""
    s, chans = hcore.smatrix(model(omega_sq))
    return s, chans, transmission_01(s, chans)


def transmission_01(s: np.ndarray, chans):
    """The (0,1)->(0,1) L->R amplitude of an S over the channels
    ``chans`` (None when either (0,1) channel is closed)."""
    idx = {(c.port,) + tuple(c.label[1:]): i for i, c in enumerate(chans)}
    if ("L", 0, 1) in idx and ("R", 0, 1) in idx:
        return s[idx[("L", 0, 1)], idx[("R", 0, 1)]]
    return None


def _stitched_spectra(models):
    """Eigen-spectra along a model sequence with branches matched by
    eigenvector overlap; each model is solved once, at the midpoint of
    ``_BAND``, so every branch's width carries k(omega) of that probe."""
    spectra = []
    prev = None
    for model in models:
        probe = 0.5 * (_BAND[0] + _BAND[1])
        vals, vecs = hcore.spectrum(model(probe))
        order = np.argsort(vals.real)
        vals, vecs = vals[order], vecs[:, order]
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        if prev is not None:
            ov = np.abs(prev.conj().T @ vecs)
            perm = np.argmax(ov, axis=1)
            vals, vecs = vals[perm], vecs[:, perm]
        prev = vecs
        spectra.append((vals, vecs))
    return spectra


def cyl_find_bics(cavity_template: CylCavity, dphi: float, scan: str,
                  grid: np.ndarray, r0: float = 1.5,
                  width_tol: float = hcore.DEFAULT_WIDTH_TOL,
                  null_tol: float = hcore.DEFAULT_NULL_TOL) -> list[hcore.BICRecord]:
    """Zero-width points along an L sweep (scan='length') or a rotation sweep
    (scan='angle', grid in radians) in the single-open-channel band
    ``_BAND``.

    Branch widths are stitched along the grid by eigenvector overlap (robust
    through avoided crossings); each local width minimum is located by
    ``hcore.find_bics``, as the Brent root of the signed open-channel
    amplitude, or by golden section with self-consistent fixed-point solves
    on the locally identified branch where the root cannot work."""
    if scan not in ("length", "angle"):
        raise ValueError("scan must be 'length' or 'angle'")
    if scan == "length":
        family = length_family(replace(cavity_template, length=float(grid[0])), dphi, r0)
    else:
        def family(x):
            return cyl_model(cavity_template, float(x), r0)

    def keep(rec):
        return rec.width < 1e-2 and _BAND[0] < rec.energy < _BAND[1]

    models = [family(x) for x in grid]
    spectra = _stitched_spectra(models)
    out, seen = [], []
    for b in range(len(models[0].basis)):
        traj = [hcore.ResonanceRecord(z=vals[b], vector=vecs[:, b], param=x)
                for x, (vals, vecs) in zip(grid, spectra)]
        for bic in hcore.find_bics(traj, family, width_tol, null_tol, keep=keep):
            if not bic.is_bic or not (_BAND[0] < bic.omega_sq < _BAND[1]):
                continue
            if any(abs(bic.param - p) < 1e-4 and abs(bic.omega_sq - q) < 1e-4
                   for p, q in seen):
                continue
            seen.append((bic.param, bic.omega_sq))
            bic.classification = "friedrich-wintgen"
            out.append(bic)
    out.sort(key=lambda r: r.omega_sq)
    return out


def surface_field(record: hcore.BICRecord, cavity: CylCavity,
                  phi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """BIC pressure field on the side wall r = R over a (phi, z) grid."""
    pg, zg = np.meshgrid(phi, z, indexing="ij")
    field = np.zeros_like(pg, dtype=complex)
    for a, (m, n, l) in zip(record.null_vector, record.labels):
        if abs(a) < 1e-12:
            continue
        rad = radial_profile(m, n, cavity.radius, np.array([cavity.radius]))[0]
        zf = np.sqrt((2.0 - (l == 1)) / cavity.length) \
            * np.cos(math.pi * (l - 1) * zg / cavity.length)
        field += a * rad / math.sqrt(2 * math.pi) * np.exp(1j * m * pg) * zf
    return field


def port_channel_projection(record: hcore.BICRecord, model: hcore.AssemblyFrame) -> dict:
    """Overlap of the BIC boundary field with the open (0,1) duct mode over
    each port disk; vanishes at a converged zero-width point."""
    pos = {lab: i for i, lab in enumerate(record.labels)}
    vec = record.null_vector[[pos[lab] for lab in model.basis.labels]]
    out = {}
    for j, ch in enumerate(model.channels):
        if ch.label[1:] != (0, 1):
            continue
        out[ch.port] = complex(np.dot(np.conj(model.w[:, j]), vec))
    return out


# ------------------------------------------------------- truncated theory --

@dataclass(frozen=True)
class TruncatedCMT:
    """Three-mode theory of the (0,1,2)/(±1,1,1) crossing at R=3, r0=1.5.

    Couplings to the open (0,1) channel and the first evanescent (±1,1)
    pair, in 1/sqrt(L) units."""

    w0_coef: float = math.sqrt(2.0) / 3.0   # (1/3) sqrt(2/L) * sqrt(L)
    w1_coef: float = 0.269
    v1_coef: float = 0.1141
    v2_coef: float = -0.0141
    radius: float = 3.0

    def omega111_sq(self) -> float:
        return (MU_11 / self.radius) ** 2


def cmt_levels(tc: TruncatedCMT, length: float, dphi: float, omega_sq: float):
    """Evanescent-shifted closed levels E1, E2(X2-branch), E3(X3-branch)."""
    q11 = math.sqrt(max(MU_11**2 - omega_sq, 0.0))
    v1 = tc.v1_coef / math.sqrt(length)
    v2 = tc.v2_coef / math.sqrt(length)
    e1 = (math.pi / length) ** 2
    base = tc.omega111_sq() + 2.0 * q11 * (v1 * v1 + v2 * v2)
    split = 2.0 * q11 * 2.0 * v1 * v2 * math.cos(dphi)
    return e1, base - split, base + split


def cmt_heff(tc: TruncatedCMT, length: float, dphi: float,
             omega_sq: float) -> hcore.EffectiveHamiltonian:
    """Truncated H_eff over (012, 111, -111) via the engine assembly."""
    basis = hcore.ClosedBasis(labels=((0, 1, 2), (1, 1, 1), (-1, 1, 1)),
                              energies=np.array([(math.pi / length) ** 2,
                                                 tc.omega111_sq(),
                                                 tc.omega111_sq()]))
    channels = hcore.ChannelSet([hcore.Channel(port, ("pq", p, 1), cutoff)
                                 for port in ("R", "L")
                                 for p, cutoff in ((0, 0.0), (1, MU_11**2), (-1, MU_11**2))])
    w0 = tc.w0_coef / math.sqrt(length)
    w1 = tc.w1_coef / math.sqrt(length)
    v1 = tc.v1_coef / math.sqrt(length)
    v2 = tc.v2_coef / math.sqrt(length)
    w = np.zeros((3, len(channels)), dtype=complex)
    raw = {(0, 1): np.array([w0, w1, w1]),
           (1, 1): np.array([0.0, v1, v2]),
           (-1, 1): np.array([0.0, v2, v1])}
    ms = np.array([0, 1, -1])
    for j, ch in enumerate(channels):
        p = ch.label[1]
        base = raw[(p, 1)]
        if ch.port == "R":
            w[:, j] = base
        else:
            w[:, j] = (-1.0) ** np.array([1, 0, 0]) * np.exp(1j * (p - ms) * dphi) * base
    return hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(w))(omega_sq)


def cmt_bic_length(tc: TruncatedCMT, dphi: float,
                   bracket=(3.5, 7.0)) -> tuple[float, float]:
    """Length L_c(dphi) where E1 crosses the X2 branch self-consistently
    (omega^2 = E1 on the crossing); returns (L_c, omega_sq_c)."""

    def gap(length):
        w2 = (math.pi / length) ** 2
        e1, e2, _ = cmt_levels(tc, length, dphi, w2)
        return e1 - e2

    lc = hcore.brentq(gap, bracket[0], bracket[1], xtol=1e-12)
    return lc, (math.pi / lc) ** 2


def cmt_bic_vector(tc: TruncatedCMT, length: float, dphi: float) -> np.ndarray:
    """Zero-width superposition over (012, 111, -111):
    (w1 (1 - e^{-i dphi}), w0 e^{-i dphi}, -w0), normalized."""
    w0 = tc.w0_coef / math.sqrt(length)
    w1 = tc.w1_coef / math.sqrt(length)
    v = np.array([w1 * (1.0 - np.exp(-1j * dphi)),
                  w0 * np.exp(-1j * dphi), -w0])
    return v / np.linalg.norm(v)


def cmt_widths(tc: TruncatedCMT, length: float, dphi: float) -> np.ndarray:
    """Self-consistent resonance widths of the three-mode theory."""
    model = partial(cmt_heff, tc, length, dphi)
    return np.array([hcore.solve_resonance(model, seed).width
                     for seed in cmt_levels(tc, length, dphi, (math.pi / length) ** 2)])
