"""Closed-form reference models.

Two-level avoided-crossing model: levels +/-eps coupled to one propagating
mode through each of two identical leads (per-lead couplings w_n with
2 w_n^2 = gamma_n) plus a Hermitian inter-level coupling u,

    H_eff = [[eps - i g1, u - i sqrt(g1 g2)], [u - i sqrt(g1 g2), -eps - i g2]].

Five-site Fabry-Perot chain: two two-level side cavities bridged by a single
wire site, open to two leads with v(k) = v0 sqrt(k/2pi), E = k^2.  Both are
exposed analytically and as hcore models (``hcore.AssemblyFrame``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import hcore

# an energy within this of a real eigenvalue sits on it (SingularTransmissionPoint)
_SINGULAR_TOL = 1e-12


class DegenerateBICCondition(ValueError):
    """gamma1*gamma2 = 0: the interference condition degenerates."""


class SingularTransmissionPoint(RuntimeError):
    """E hit a real eigenvalue: transmission at the BIC point depends on the
    approach path."""


@dataclass(frozen=True)
class TwoLevelParams:
    eps: float
    gamma1: float
    gamma2: float
    u: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("coupling strengths must be nonnegative")


def twolevel_matrix(p: TwoLevelParams) -> np.ndarray:
    """H_eff; with an array ``p.eps``, one 2 x 2 matrix per value, stacked."""
    g12 = math.sqrt(p.gamma1 * p.gamma2)
    eps = np.asarray(p.eps)
    h = np.empty(eps.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = eps - 1j * p.gamma1
    h[..., 0, 1] = h[..., 1, 0] = p.u - 1j * g12
    h[..., 1, 1] = -eps - 1j * p.gamma2
    return h


def twolevel_eigenvalues(p: TwoLevelParams) -> tuple[complex, complex]:
    """Roots of the two-level characteristic polynomial, sorted by real part
    (descending; ties by imaginary part).

    The parameters are scaled by the power of two just above their largest
    magnitude and the roots scaled back.  Power-of-two scaling is exact, so
    ordinary parameters give the same roots, while subnormal ones can no
    longer underflow b^2 or overflow c / z1 into NaN."""
    scale = math.ldexp(1.0, math.frexp(max(abs(p.eps), p.gamma1, p.gamma2,
                                           abs(p.u)))[1])
    eps, g1, g2, u = (v / scale for v in (p.eps, p.gamma1, p.gamma2, p.u))
    g12 = math.sqrt(g1 * g2)
    b = 1j * (g1 + g2)                      # z^2 + b z + c = 0
    c = -(eps - 1j * g1) * (eps + 1j * g2) - (u - 1j * g12) ** 2
    disc = np.sqrt(b * b - 4.0 * c + 0j)
    if abs(-b + disc) >= abs(-b - disc):
        z1 = 0.5 * (-b + disc)
    else:
        z1 = 0.5 * (-b - disc)
    z2 = c / z1 if z1 != 0 else 0.5 * (-b - disc)
    pair = sorted((z1 * scale, z2 * scale), key=lambda z: (-z.real, -z.imag))
    return pair[0], pair[1]


def twolevel_bic_point(gamma1: float, gamma2: float, u: float) -> float:
    """Level splitting eps* at which one resonance width vanishes."""
    if gamma1 * gamma2 == 0.0:
        raise DegenerateBICCondition("gamma1*gamma2 = 0 leaves the zero-width "
                                     "condition degenerate")
    return u * (gamma1 - gamma2) / (2.0 * math.sqrt(gamma1 * gamma2))


def twolevel_bic_energy(gamma1: float, gamma2: float, u: float, eps: float) -> float:
    """Real eigenvalue A of the zero-width state at the interference point."""
    return -(eps * (gamma1 - gamma2) + 2.0 * u * math.sqrt(gamma1 * gamma2)) \
        / (gamma1 + gamma2)


def _leads_coupling(p: TwoLevelParams) -> np.ndarray:
    # two identical leads: per-lead couplings w_n = sqrt(gamma_n / 2)
    w = np.array([math.sqrt(p.gamma1 / 2.0), math.sqrt(p.gamma2 / 2.0)])
    return np.column_stack([w, w]).astype(complex)


def twolevel_model(p: TwoLevelParams) -> hcore.AssemblyFrame:
    """hcore model (energy-frozen couplings, k = 1)."""
    basis = hcore.ClosedBasis(labels=("+", "-"), energies=np.array([p.eps, -p.eps]))
    channels = hcore.ChannelSet([hcore.Channel("L", ("lead",), 0.0, fixed_k=1.0),
                                 hcore.Channel("R", ("lead",), 0.0, fixed_k=1.0)])
    return hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(_leads_coupling(p)),
                               np.array([[0.0, p.u], [p.u, 0.0]]))


def twolevel_transmission(energy: float, p: TwoLevelParams) -> complex:
    """Transmission amplitude from the biorthogonal residue expansion
    T = -2i sum_l V_l^2 / (E - z_l).

    ``energy`` and ``p.eps`` may be arrays, broadcast together: the 2 x 2
    eig then runs once per eps value in one stacked call (once in all when
    only the energy varies), and a point that would raise
    ``SingularTransmissionPoint`` is NaN instead.  Each point gets the bits
    of the scalar call: stacked eig runs LAPACK per matrix, and the stacked
    matmuls run the same BLAS dot as 1-D ones."""
    h = twolevel_matrix(p)
    vals, vecs = np.linalg.eig(h)
    scalar = vals.ndim == 1 and np.ndim(energy) == 0
    w = _leads_coupling(p)[:, 0]
    t = 0.0 + 0.0j
    failed = False
    for lam in range(2):
        # [()] turns a 0-d result into a scalar, so that scalar input runs
        # scalar arithmetic
        v = vecs[..., :, lam:lam + 1]
        # biorthogonal (transpose) normalization
        norm2 = (np.swapaxes(v, -1, -2) @ v)[..., 0, 0][()]
        # np.hypot, not np.abs: the array abs of a complex can differ by an
        # ulp from the scalar one
        defective = np.hypot(norm2.real, norm2.imag) < 1e-300
        if scalar and defective:
            raise SingularTransmissionPoint("defective eigenvector pair")
        vlam = (w @ v)[..., 0][()]
        z = vals[..., lam][()]
        gap = energy - z
        on_level = (np.hypot(gap.real, gap.imag) < _SINGULAR_TOL) & (abs(z.imag) < _SINGULAR_TOL)
        if scalar and on_level:
            raise SingularTransmissionPoint(
                f"E={energy} sits on a real eigenvalue; value depends on approach path")
        failed = failed | defective | on_level
        # an array complex product can differ from the scalar one by an ulp
        # (numpy's SIMD loop fuses multiply-add); Python's product does not
        sq = vlam * vlam if np.ndim(vlam) == 0 else np.array([x * x for x in vlam.tolist()])
        # failed array points divide by zero; they end as NaN below
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t + sq / norm2 / gap
    return -2j * t if scalar else np.where(failed, np.nan, -2j * t)


def twolevel_smatrix(energy: float, p: TwoLevelParams):
    """Full 2x2 S-matrix (L/R leads) via the engine."""
    model = twolevel_model(p)
    return hcore.smatrix(model(energy))


# ------------------------------------------------------------ five sites --

@dataclass(frozen=True)
class FPChainParams:
    """Two side cavities (levels eps1, eps2), one bridging wire site eps_w,
    hopping u, lead coupling scale v0; leads have E = k^2."""

    eps1: float
    eps2: float
    eps_w: float
    u: float
    v0: float

    def __post_init__(self):
        if self.v0 < 0:
            raise ValueError("v0 must be nonnegative")


def fp_chain_hamiltonian(p: FPChainParams) -> np.ndarray:
    e1, e2, ew, u = p.eps1, p.eps2, p.eps_w, p.u
    return np.array([
        [e1, 0., u, 0., 0.],
        [0., e2, u, 0., 0.],
        [u, u, ew, u, u],
        [0., 0., u, e2, 0.],
        [0., 0., u, 0., e1],
    ])


def fp_chain_spectrum(p: FPChainParams):
    """Eigenvalues (ascending) and eigenvectors of the closed chain."""
    vals, vecs = np.linalg.eigh(fp_chain_hamiltonian(p))
    return vals, vecs


def fp_chain_model(p: FPChainParams) -> hcore.AssemblyFrame:
    """hcore model over E = omega_sq with k = sqrt(E); site-basis assembly."""
    hb = fp_chain_hamiltonian(p)
    basis = hcore.ClosedBasis(labels=tuple(range(1, 6)), energies=np.diag(hb))
    static = hb - np.diag(np.diag(hb))
    channels = hcore.ChannelSet([hcore.Channel("L", ("lead",), 0.0),
                                 hcore.Channel("R", ("lead",), 0.0)])
    w = np.zeros((5, 2), dtype=complex)
    w[[0, 1], 0] = p.v0   # left cavity sites feed the left lead
    w[[3, 4], 1] = p.v0
    return hcore.AssemblyFrame(basis, channels, hcore.CouplingMatrix(w), static)


def fp_chain_middle_branch(p: FPChainParams,
                           probe_energy: float = 0.5) -> hcore.ResonanceRecord:
    """Middle resonance branch at a frozen probe energy.

    Cauchy interlacing pins the wire-controlled level between the fixed side
    levels, so "middle" = third eigenvalue of the closed chain; the matching
    H_eff branch is selected by eigenvector overlap.
    """
    vals, vecs = fp_chain_spectrum(p)
    target = vecs[:, 2].astype(complex)
    (part,) = fp_chain_model(p)(probe_energy).parts  # one whole-space block
    zs, zvecs = np.linalg.eig(part)
    ov = np.abs(target.conj() @ zvecs) / np.linalg.norm(zvecs, axis=0)
    i = int(np.argmax(ov))
    v = zvecs[:, i] / np.linalg.norm(zvecs[:, i])
    return hcore.ResonanceRecord(z=zs[i], vector=v, param=p.eps_w)


def _middle_lead_amplitude(p: FPChainParams) -> float:
    """Signed lead projection of the middle closed-chain eigenvector; its
    linear zero in eps_w marks the decoupling point."""
    _, vecs = fp_chain_spectrum(p)
    v = vecs[:, 2]
    anchor = v[0] - v[1]  # nonvanishing on this branch, fixes the eigh sign
    if anchor < 0:
        v = -v
    return float(v[0] + v[1])


def fp_chain_bic(p: FPChainParams, probe_energy: float = 0.5, width_tol: float = 1e-10,
                 null_tol: float = 1e-7) -> hcore.BICRecord:
    """Zero-width point of the wire branch at eps_w = (eps1 + eps2)/2: the
    Brent root of the signed lead amplitude of the middle branch."""
    if p.v0 <= 0:
        raise ValueError("needs open leads (v0 > 0)")
    eps_b = 0.5 * (p.eps1 + p.eps2)

    def amp(eps_w):
        return _middle_lead_amplitude(replace(p, eps_w=eps_w))

    span = max(0.5, abs(p.eps1 - p.eps2))
    a, b = eps_b - 0.3 * span, eps_b + 0.3 * span
    if amp(a) * amp(b) < 0:
        x = hcore.brentq(amp, a, b, xtol=1e-14)
        rec = fp_chain_middle_branch(replace(p, eps_w=x), probe_energy)
        h = fp_chain_model(replace(p, eps_w=x))(probe_energy)
        out = hcore.bic_record(x, h, rec.energy, rec.z, rec.vector, width_tol, null_tol)
        if out.is_bic:
            out.classification = "fabry-perot"
            return out
    raise RuntimeError("no zero-width point found on the wire branch")


def fp_chain_transmission(energy: float, p: FPChainParams) -> complex:
    model = fp_chain_model(p)
    s, chans = hcore.smatrix(model(energy))
    i_l = [i for i, c in enumerate(chans) if c.port == "L"][0]
    i_r = [i for i, c in enumerate(chans) if c.port == "R"][0]
    return s[i_r, i_l]
