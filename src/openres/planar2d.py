"""Planar rectangular resonator open to two plane waveguides.

Geometry: cavity x in [-Lx/2, Lx/2], y in [-Ly/2, Ly/2]; waveguides of unit
width centered on the y midline, attached at x = +/- Lx/2.  Two boundary
flavors:

* "dirichlet" (TE): cavity modes sin x sin y, channel functions
  sqrt(2) sin(pi p (y + 1/2)), p = 1, 2, ...; coupling through the normal
  derivative of the cavity mode with a 1/sqrt(pi k_p) weight,
* "neumann" (TM / hard-wall acoustic): cos modes, channels
  cos(pi p (y + 1/2)), p = 0, 1, ...; value-overlap coupling with a
  sqrt(k_p / pi) weight.

Both reduce to the engine convention H_eff = H_B - i sum_c k_c W_c W_c^dag by
pulling the appropriate k power into W.  The soft circular bump (Gaussian
potential) extension deforms the closed modes and produces accidental
decouplings from the open channel; both parities of the centered geometry
are conserved and handled blockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hcore

_EPS_K = 1e-9
# Gauss-Legendre nodes per axis of the bump quadrature (audited against twice as many)
_BUMP_NODES = 96
# half-width of the bump-height window that confirms a Sinai coupling zero
_CONFIRM_WINDOW = 3.0


@dataclass(frozen=True)
class RectCavity:
    lx: float
    ly: float
    bc: str = "dirichlet"
    m_max: int = 20
    n_max: int = 20

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("cavity sides must be positive")
        if self.ly < 1.0:
            raise ValueError("waveguide (unit width) would be wider than the cavity")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError("bc must be 'dirichlet' or 'neumann'")

    @property
    def mode_labels(self) -> tuple:
        lo = 1 if self.bc == "dirichlet" else 0
        return tuple((m, n) for m in range(lo, self.m_max + 1)
                     for n in range(lo, self.n_max + 1))

    def energy(self, m: int, n: int) -> float:
        return math.pi**2 * (m * m / self.lx**2 + n * n / self.ly**2)

    @lru_cache(maxsize=16)
    def basis(self) -> hcore.ClosedBasis:
        labels = sorted(self.mode_labels, key=lambda mn: self.energy(*mn))
        return hcore.ClosedBasis(labels=tuple(labels),
                                 energies=np.array([self.energy(*mn) for mn in labels]))

    def mode_on_grid(self, m: int, n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Normalized mode on a meshgrid (x rows, y columns)."""
        if self.bc == "dirichlet":
            fx = np.sin(math.pi * m * (x + self.lx / 2) / self.lx)
            fy = np.sin(math.pi * n * (y + self.ly / 2) / self.ly)
            norm = 2.0 / math.sqrt(self.lx * self.ly)
        else:
            fx = np.cos(math.pi * m * (x + self.lx / 2) / self.lx)
            fy = np.cos(math.pi * n * (y + self.ly / 2) / self.ly)
            norm = math.sqrt((2 - (m == 0)) * (2 - (n == 0)) / (self.lx * self.ly))
        return norm * fx * fy

    def mode_y_parity_even(self, n: int) -> bool:
        return (n % 2 == 1) if self.bc == "dirichlet" else (n % 2 == 0)

    def mode_x_parity_even(self, m: int) -> bool:
        return (m % 2 == 1) if self.bc == "dirichlet" else (m % 2 == 0)


def channel_parity_even(bc: str, p: int) -> bool:
    return (p % 2 == 1) if bc == "dirichlet" else (p % 2 == 0)


def planar_channels(bc: str, p_max: int) -> hcore.ChannelSet:
    lo = 1 if bc == "dirichlet" else 0
    return hcore.ChannelSet([hcore.Channel(port, ("p", p), (math.pi * p) ** 2)
                             for port in ("L", "R") for p in range(lo, p_max + 1)])


def _channel_y_integral(cavity: RectCavity, p: int, n: int) -> float:
    """Overlap of the (normalized) channel transverse function with the
    cavity mode's y factor over the waveguide mouth; exact parity zeros."""
    bc = cavity.bc
    if cavity.mode_y_parity_even(n) != channel_parity_even(bc, p):
        return 0.0
    beta = math.pi * n / cavity.ly
    c2 = math.pi * n / 2.0

    def integral(alpha, c1, kind):
        # int_{-1/2}^{1/2} trig(alpha y + c1) trig(beta y + c2) dy
        def cosint(u, c):
            if abs(u) < 1e-14:
                return math.cos(c)
            return 2.0 * math.sin(u / 2.0) * math.cos(c) / u
        if kind == "sinsin":
            return 0.5 * (cosint(alpha - beta, c1 - c2) - cosint(alpha + beta, c1 + c2))
        return 0.5 * (cosint(alpha - beta, c1 - c2) + cosint(alpha + beta, c1 + c2))

    if bc == "dirichlet":
        # sqrt(2) sin(pi p (y+1/2)) against sin(pi n (y+Ly/2)/Ly)
        return math.sqrt(2.0) * integral(math.pi * p, math.pi * p / 2.0, "sinsin")
    amp = math.sqrt(2.0 - (p == 0))
    return amp * integral(math.pi * p, math.pi * p / 2.0, "coscos")


def raw_coupling(cavity: RectCavity, channels: hcore.ChannelSet) -> np.ndarray:
    """Frequency-free interface integrals I[mode, channel].

    Dirichlet: I = int phi_p d_x psi_mn |_wall; Neumann: I = int phi_p psi_mn.
    Right-port entries carry the (-1)^m (Dirichlet) / (-1)^m (Neumann)
    x-factor of the mode at x = +Lx/2.  Parity zeros of the overlap stay +0.
    """
    labels = cavity.basis().labels
    area = cavity.lx * cavity.ly
    if cavity.bc == "dirichlet":
        xfac = np.array([(math.pi * m / cavity.lx) * 2.0 / math.sqrt(area) for m, _ in labels])
    else:
        xfac = np.array([math.sqrt((2 - (m == 0)) * (2 - (n == 0)) / area) for m, n in labels])
    right = np.array([math.cos(math.pi * m) for m, _ in labels]) * xfac
    ns = np.array([n for _, n in labels])
    mouth = {p: np.array([_channel_y_integral(cavity, p, n)
                          for n in range(cavity.n_max + 1)])[ns]
             for p in {ch.label[1] for ch in channels}}
    out = np.zeros((len(labels), len(channels)))
    for j, ch in enumerate(channels):
        ov = mouth[ch.label[1]]
        out[:, j] = np.where(ov == 0.0, 0.0, (xfac if ch.port == "L" else right) * ov)
    return out


def _dirichlet_divisor(k: np.ndarray) -> np.ndarray:
    """The column divisor sqrt(pi) max(|k_p|, eps) of the Dirichlet
    coupling W = I / divisor at the channel wavenumbers k: open channels
    then reproduce the -i W W^dag normal-derivative form, and evanescent
    shifts decay as 1/|k_p|."""
    return math.sqrt(math.pi) * np.array([max(abs(x), _EPS_K) for x in k.tolist()])


def _frame(cavity: RectCavity, p_max: int, static=None, blocks=()) -> hcore.AssemblyFrame:
    """Assembly frame of one geometry: W is the raw (real) coupling, which
    ``_dirichlet_divisor`` divides at each energy, or, for Neumann, the
    frequency-free I / sqrt(pi)."""
    chans, basis, raw = _cached_plumbing(cavity, p_max)
    if cavity.bc == "dirichlet":
        return hcore.AssemblyFrame(basis, chans, raw, static, blocks, _dirichlet_divisor)
    return hcore.AssemblyFrame(basis, chans, hcore.CouplingMatrix(raw / math.sqrt(math.pi)),
                               static, blocks)


@lru_cache(maxsize=16)
def _planar_frame(cavity: RectCavity, p_max: int) -> hcore.AssemblyFrame:
    return _frame(cavity, p_max, blocks=parity_blocks(cavity))


@lru_cache(maxsize=16)
def _cached_plumbing(cavity: RectCavity, p_max: int):
    """Channels, basis and frequency-free couplings of one geometry, shared
    by every model of it in the process (read-only arrays)."""
    chans = planar_channels(cavity.bc, p_max)
    return chans, cavity.basis(), hcore.read_only(raw_coupling(cavity, chans))


def parity_classes(cavity: RectCavity, x_parity: bool, y_parity: bool) -> dict:
    """Basis indices per class of the conserved parities, keyed (x-even,
    y-even): the mirrors x -> -x (the ports swap) and y -> -y (each port
    maps to itself) split H_eff into (x-parity, y-parity) classes.  A
    parity that is not conserved (a bump off centre on its axis) joins its
    two classes under False."""
    classes = {}
    for i, (m, n) in enumerate(cavity.basis().labels):
        key = (x_parity and cavity.mode_x_parity_even(m),
               y_parity and cavity.mode_y_parity_even(n))
        classes.setdefault(key, []).append(i)
    return classes


@lru_cache(maxsize=32)
def parity_blocks(cavity: RectCavity, x_parity: bool = True,
                  y_parity: bool = True) -> tuple:
    """Symmetry blocks of the open rectangle, one per class of
    ``parity_classes``.  Empty when no parity is conserved."""
    classes = parity_classes(cavity, x_parity, y_parity)
    if len(classes) < 2:
        return ()
    n = len(cavity.mode_labels)
    return tuple(hcore.SymmetryBlock.of(n, [(i, i, 0.0) for i in idx])
                 for idx in classes.values())


def planar_model(cavity: RectCavity, p_max: int = 8) -> hcore.AssemblyFrame:
    """The open rectangle's frame, built once per geometry and shared."""
    return _planar_frame(cavity, p_max)


def planar_transmittance(cavity: RectCavity, omega_sq: float, p_max: int = 8):
    """S-matrix over open channels and the per-channel L->R transmittances."""
    if omega_sq <= (math.pi**2 if cavity.bc == "dirichlet" else 0.0):
        raise ValueError("frequency below the first cutoff")
    model = planar_model(cavity, p_max)
    s, chans = hcore.smatrix(model(omega_sq))
    trans = {}
    for i, ci in enumerate(chans):
        for j, cj in enumerate(chans):
            if ci.port == "R" and cj.port == "L":
                trans[(cj.label[1], ci.label[1])] = abs(s[i, j]) ** 2
    return s, chans, trans


def degeneracy_width(lx: float, pair=((4, 3), (2, 5))) -> float:
    """Cavity width at which the two mode frequencies cross."""
    (m1, n1), (m2, n2) = pair
    num = (n2 * n2 - n1 * n1) * lx * lx
    den = m1 * m1 - m2 * m2
    if num / den <= 0:
        raise ValueError("modes do not cross at a real width")
    return math.sqrt(num / den)


def degenerate_pair_couplings(lx: float = 4.0, k_convention: str = "channel"):
    """Closed-form first-channel coupling magnitudes (|W_a|, |W_b|, w_c) of
    the (4,3)/(2,5) pair at the crossing, sqrt(2/k) (d_x-overlap) form.

    |W| = |I| / sqrt(k) with I the signed p=1 interface integral of
    raw_coupling; the sign (-1)^((n-1)/2) makes I_(4,3) negative, and it is
    dropped here.  k_convention "channel" uses k_1 = sqrt(w_c^2 - pi^2);
    "frequency" substitutes k = w_c itself (the reading that reproduces the
    quoted W_a = 0.618).  The ratio |W_a/W_b| = 2.406 is free of the k
    convention and the normalisation, so no convention reproduces the quoted
    pair (0.618, 0.4), whose ratio is 1.545; the W_b that the quoted W_a
    implies is 0.618 / 2.406 = 0.2569.
    """
    ly = degeneracy_width(lx)
    wc = (4 * math.pi / lx) * math.sqrt(1 + 27.0 / 64.0)
    k1 = math.sqrt(wc * wc - math.pi**2) if k_convention == "channel" else wc

    def iy(n):
        b = n * math.pi / ly
        return (math.sin((math.pi - b) / 2) / (math.pi - b)
                + math.sin((math.pi + b) / 2) / (math.pi + b))

    wa = math.sqrt(2.0 / k1) * (8 * math.pi / (lx**1.5 * math.sqrt(ly))) * iy(3)
    wb = math.sqrt(2.0 / k1) * (4 * math.pi / (lx**1.5 * math.sqrt(ly))) * iy(5)
    return wa, wb, wc


def planar_fw_bic(lx: float = 4.0, pair=((4, 3), (2, 5)), p_max: int = 8,
                  m_max: int = 20, n_max: int = 20, span: float = 0.012,
                  n_grid: int = 13, width_tol: float = hcore.DEFAULT_WIDTH_TOL,
                  null_tol: float = hcore.DEFAULT_NULL_TOL):
    """Zero-width point of the avoided pair near the mode crossing.

    Samples the dark hybrid over Ly around the bare degeneracy, one
    ``hcore.solve_resonance`` per width seeded by the pair's dark
    combination W_b e_a - W_a e_b of the first channel, and locates its
    zero with ``hcore.find_bics`` (the Brent root of the signed
    open-channel amplitude in the pair's parity block).  Each width is
    seeded afresh: the hybrid content rotates rapidly through the crossing,
    defeating long-range continuation.  Returns (record, ly_degenerate);
    the evanescent channels shift the zero away from the bare crossing.
    Raises RuntimeError when the scan window holds no interior width
    minimum.
    """
    ly0 = degeneracy_width(lx, pair)

    def family(ly):
        cav = RectCavity(lx=lx, ly=ly, bc="dirichlet", m_max=m_max, n_max=n_max)
        return planar_model(cav, p_max=p_max)

    def dark_state(ly):
        cav = RectCavity(lx=lx, ly=ly, bc="dirichlet", m_max=m_max, n_max=n_max)
        _, basis, raw = _cached_plumbing(cav, p_max)
        ia, ib = basis.labels.index(pair[0]), basis.labels.index(pair[1])
        seed = np.zeros(len(basis))
        seed[ia], seed[ib] = raw[ib, 0], -raw[ia, 0]
        e = 0.5 * (cav.energy(*pair[0]) + cav.energy(*pair[1]))
        rec = hcore.solve_resonance(family(ly), e, seed / np.linalg.norm(seed))
        rec.param = ly
        return rec

    scan = np.linspace(ly0 * (1 - span), ly0 * (1 + span), n_grid)
    recs = hcore.find_bics([dark_state(ly) for ly in scan], family, width_tol, null_tol)
    if not recs:
        raise RuntimeError("no interior width minimum of the dark state in the scan window")
    best = min(recs, key=lambda r: r.gamma_res)
    best.classification = "friedrich-wintgen"
    return best, ly0


def planar_bic_convergence_audit(lx: float = 4.0, pair=((4, 3), (2, 5)),
                                 p_max: int = 4, base: int = 10,
                                 doubled: int = 20) -> dict:
    """Truncation audit of the avoided-pair zero-width position.

    Basis convergence of the normal-derivative coupling is not taken for
    granted; the audit reports the relative drift of the zero-width width
    under basis enlargement (contract: below 0.5%)."""
    rec1, ly0 = planar_fw_bic(lx, pair, p_max, m_max=base, n_max=base, n_grid=9)
    rec2, _ = planar_fw_bic(lx, pair, p_max, m_max=doubled, n_max=doubled, n_grid=9)
    change = abs(rec2.param - rec1.param) / rec1.param
    return {"ly_base": rec1.param, "ly_doubled": rec2.param,
            "relative_change": change, "converged": bool(change < 0.005),
            "ly_degenerate": ly0}


def planar_bic_field(record: hcore.BICRecord, cavity: RectCavity,
                     x: np.ndarray, y: np.ndarray, p_max: int = 8,
                     include_tails: bool = True) -> np.ndarray:
    """BIC wave field on a meshgrid, interior modal sum plus the evanescent
    waveguide tails matched at the interfaces."""
    xg, yg = np.meshgrid(x, y, indexing="ij")
    basis = cavity.basis()
    field = np.zeros_like(xg, dtype=complex)
    inside = np.abs(xg) <= cavity.lx / 2
    for a, (m, n) in zip(record.null_vector, record.labels):
        if abs(a) < 1e-14:
            continue
        field += np.where(inside, a * cavity.mode_on_grid(m, n, xg, yg), 0.0)
    if not include_tails:
        return field
    chans = planar_channels(cavity.bc, p_max)
    raw = raw_coupling(cavity, chans)
    omega_sq = record.omega_sq
    for j, ch in enumerate(chans):
        if ch.is_open(omega_sq):
            continue
        p = ch.label[1]
        kabs = abs(ch.wavenumber(omega_sq))
        g = complex(np.dot(record.null_vector, raw[:, j]))
        if cavity.bc == "dirichlet":
            amp = -g / max(kabs, _EPS_K)   # derivative matching at the wall
            phi = math.sqrt(2.0) * np.sin(math.pi * p * (yg + 0.5))
        else:
            amp = g                         # value matching
            phi = math.sqrt(2.0 - (p == 0)) * np.cos(math.pi * p * (yg + 0.5))
        guide = np.abs(yg) <= 0.5
        if ch.port == "R":
            region = (xg > cavity.lx / 2) & guide
            decay = np.exp(-kabs * (xg - cavity.lx / 2))
        else:
            region = (xg < -cavity.lx / 2) & guide
            decay = np.exp(kabs * (xg + cavity.lx / 2))
        field += np.where(region, amp * phi * decay, 0.0)
    return field


# ------------------------------------------------------------------ sinai --

@dataclass(frozen=True)
class SinaiBump:
    vg: float
    radius: float = 1.5
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")


@lru_cache(maxsize=32)
def _axis_factor_matrices(cavity: RectCavity, radius: float, x0: float, y0: float,
                          nodes: int):
    """Separable Gaussian factors X_mm' (x axis) and Y_nn' (y axis) by
    Gauss-Legendre quadrature; the bump matrix is vg * (X kron Y)."""
    def one_axis(length, center, lo_idx, nmax):
        t, wq = np.polynomial.legendre.leggauss(nodes)
        xs = 0.5 * length * t
        wq = 0.5 * length * wq
        gauss = np.exp(-((xs - center) ** 2) / radius**2)
        orders = np.arange(lo_idx, nmax + 1)
        if cavity.bc == "dirichlet":
            f = np.sin(np.pi * orders[:, None] * (xs[None, :] + length / 2) / length)
            f *= math.sqrt(2.0 / length)
        else:
            f = np.cos(np.pi * orders[:, None] * (xs[None, :] + length / 2) / length)
            f *= np.sqrt((2.0 - (orders[:, None] == 0)) / length)
        return np.einsum("q,iq,jq->ij", wq * gauss, f, f)

    lo = 1 if cavity.bc == "dirichlet" else 0
    xm = one_axis(cavity.lx, x0, lo, cavity.m_max)
    yn = one_axis(cavity.ly, y0, lo, cavity.n_max)
    return hcore.read_only(xm), hcore.read_only(yn)


def sinai_potential_matrix(cavity: RectCavity, bump: SinaiBump,
                           audit: bool = True) -> np.ndarray:
    """Gaussian bump in the cavity eigenbasis (basis ordering of .basis())."""
    if abs(bump.x0) > cavity.lx / 2 or abs(bump.y0) > cavity.ly / 2:
        raise ValueError("bump center outside the cavity")
    if audit:
        xm, yn = _axis_factor_matrices(cavity, bump.radius, bump.x0, bump.y0, _BUMP_NODES)
        xm2, yn2 = _axis_factor_matrices(cavity, bump.radius, bump.x0, bump.y0,
                                         2 * _BUMP_NODES)
        rel = max(np.max(np.abs(xm - xm2)), np.max(np.abs(yn - yn2)))
        if rel > 1e-8 * max(np.max(np.abs(xm2)), 1e-30):
            raise RuntimeError(f"bump quadrature not converged (change {rel:.2e})")
    return bump.vg * _unit_bump_matrix(cavity, bump.radius, bump.x0, bump.y0)


@lru_cache(maxsize=32)
def _unit_bump_matrix(cavity: RectCavity, radius: float, x0: float,
                      y0: float) -> np.ndarray:
    """The bump at vg = 1, X kron Y in the basis ordering of .basis(), shared
    by every bump height of one geometry (read-only)."""
    xm, yn = _axis_factor_matrices(cavity, radius, x0, y0, _BUMP_NODES)
    lo = 1 if cavity.bc == "dirichlet" else 0
    labels = cavity.basis().labels
    mi = np.array([m - lo for (m, n) in labels])
    ni = np.array([n - lo for (m, n) in labels])
    return hcore.read_only(xm[np.ix_(mi, mi)] * yn[np.ix_(ni, ni)])


def _sinai_blocks(cavity: RectCavity, radius: float, x0: float, y0: float) -> dict:
    """{class: (diagonal, unit bump, basis_indices)}: the closed rectangle's
    energies and the bump at unit height, each restricted to one class of
    the parities the bump keeps, as in ``_sinai_frame``.  The bumped block
    at height vg is diagonal + vg * unit bump."""
    diag = np.diag(cavity.basis().energies)
    unit = sinai_potential_matrix(cavity, SinaiBump(1.0, radius, x0, y0), audit=False)
    out = {}
    for key, idx in parity_classes(cavity, x0 == 0.0, y0 == 0.0).items():
        idx = np.array(idx)
        sub = np.ix_(idx, idx)
        out[key] = (diag[sub], unit[sub], idx)
    return out


def sinai_spectrum(cavity: RectCavity, bump: SinaiBump):
    """Eigenpairs of the bumped closed cavity per class of the parities the
    bump keeps (see ``parity_classes``).

    Returns {class: (values, vectors, basis_indices)} with vectors expressed
    in the rectangle eigenbasis (columns)."""
    out = {}
    for key, (diag, unit, idx) in _sinai_blocks(cavity, bump.radius, bump.x0,
                                                bump.y0).items():
        vals, vecs = np.linalg.eigh(diag + bump.vg * unit)
        out[key] = (vals, vecs, idx)
    return out


def sinai_model(cavity: RectCavity, bump: SinaiBump, p_max: int = 8) -> hcore.AssemblyFrame:
    """The bumped open cavity's frame: its geometry's unit-height frame
    scaled to the bump height, sharing every array of it."""
    return _sinai_frame(cavity, bump.radius, bump.x0, bump.y0, p_max).scaled(bump.vg)


@lru_cache(maxsize=16)
def _sinai_frame(cavity: RectCavity, radius: float, x0: float, y0: float,
                 p_max: int) -> hcore.AssemblyFrame:
    """Assembly frame of one bumped geometry at unit bump height: each
    model is this frame scaled to its height (``AssemblyFrame.scaled``), so
    that no cache is keyed on a height."""
    unit = sinai_potential_matrix(cavity, SinaiBump(1.0, radius, x0, y0), audit=False)
    # an off-centre bump breaks the parity of its displaced axis
    return _frame(cavity, p_max, unit, parity_blocks(cavity, x0 == 0.0, y0 == 0.0))


def _first_open_channel(cavity: RectCavity, y_even: bool) -> int:
    lo = 1 if cavity.bc == "dirichlet" else 0
    p = lo
    while not (channel_parity_even(cavity.bc, p) == y_even):
        p += 1
    return p


def sinai_band(cavity: RectCavity, y_even: bool) -> tuple[float, float]:
    """Single-open-channel energy band for modes of the given y parity."""
    p0 = _first_open_channel(cavity, y_even)
    upper = (math.pi * (p0 + 2)) ** 2   # next channel of the same parity
    return ((math.pi * p0) ** 2, upper)


def sinai_coupling_trace(cavity: RectCavity, vg_grid: np.ndarray, y_even: bool,
                         x_even: bool, radius: float = 1.5, x0: float = 0.0,
                         y0: float = 0.0):
    """Left-port first-open-channel coupling of each bump eigenbranch over a
    bump-height grid (branches continued by eigenvector overlap)."""
    chans = planar_channels(cavity.bc, p_max=_first_open_channel(cavity, y_even))
    raw = raw_coupling(cavity, chans)
    jcol = [j for j, ch in enumerate(chans)
            if ch.port == "L" and ch.label[1] == _first_open_channel(cavity, y_even)][0]
    diag, unit, idx = _sinai_blocks(cavity, radius, x0, y0)[(x_even, y_even)]
    prev = None
    couplings, energies = [], []
    for vg in vg_grid:
        vals, vecs = np.linalg.eigh(diag + vg * unit)
        if prev is not None:
            # continuity: permute to maximize overlap with the previous step
            ov = np.abs(prev.T @ vecs)
            order = np.argmax(ov, axis=1)
            vecs = vecs[:, order]
            vals = vals[order]
            sgn = np.sign(np.sum(prev * vecs, axis=0))
            sgn[sgn == 0] = 1.0
            vecs = vecs * sgn[None, :]
        prev = vecs
        couplings.append(vecs.T @ raw[idx, jcol])
        energies.append(vals)
    return np.array(couplings), np.array(energies), idx


def sinai_accidental_bics(cavity: RectCavity, vg_range=(-50.0, 50.0),
                          x_even: bool = True, radius: float = 1.5,
                          x0: float = 0.0, y0: float = 0.0, n_grid: int = 201,
                          p_max: int = 8, width_tol: float = hcore.DEFAULT_WIDTH_TOL,
                          null_tol: float = hcore.DEFAULT_NULL_TOL) -> list[hcore.BICRecord]:
    """Accidental decoupling points of the bumped cavity.

    Sign changes of the first-open-channel coupling along the bump height are
    bracketed, then confirmed as zero-width points of the full open system
    (evanescent channels shift the exact location off the bare coupling
    zero).  Coupling zeros whose width never closes within the search window
    are kept as near-BIC records (is_bic False).  Off centre in x the one x
    class is keyed x-odd (``parity_classes``): the x-even search is empty.
    ValueError off centre in y, where ``sinai_band`` does not hold.
    """
    if y0 != 0.0:
        raise ValueError("the accidental-BIC search needs a bump centred in y (y0 = 0)")
    classes = parity_classes(cavity, x0 == 0.0, True)
    out = []
    for y_even in (True, False):
        if (x_even, y_even) not in classes:
            continue
        band = sinai_band(cavity, y_even)
        grid = np.linspace(vg_range[0], vg_range[1], n_grid)
        coup, ener, idx = sinai_coupling_trace(cavity, grid, y_even, x_even,
                                               radius, x0, y0)
        nb = coup.shape[1]
        for b in range(nb):
            c = coup[:, b]
            for i in range(len(grid) - 1):
                if c[i] == 0.0 or c[i] * c[i + 1] > 0:
                    continue
                e_here = ener[i, b]
                if not (band[0] + 1.0 < e_here < band[1] - 1.0):
                    continue
                vg0 = grid[i] + (grid[i + 1] - grid[i]) * abs(c[i]) / (abs(c[i]) + abs(c[i + 1]))
                rec = _confirm_sinai_candidate(cavity, vg0, e_here, (x_even, y_even),
                                               radius, x0, y0, p_max, width_tol, null_tol)
                if rec is not None:
                    rec.classification = "accidental"
                    out.append(rec)
    dedup = []
    for r in out:
        if any(abs(r.param - o.param) < 1e-3 and abs(r.omega_sq - o.omega_sq) < 1e-3
               for o in dedup):
            continue
        dedup.append(r)
    dedup.sort(key=lambda r: r.omega_sq)
    return dedup


def sinai_modal_expansion(record: hcore.BICRecord, cavity: RectCavity,
                          radius: float = 1.5, x0: float = 0.0,
                          y0: float = 0.0) -> list[tuple]:
    """Expansion of a confirmed record over the deformed closed-cavity
    eigenmodes at its bump height, sorted by weight.

    Labels are ((x_even, y_even), branch_index, branch_energy)."""
    blocks = sinai_spectrum(cavity, SinaiBump(record.param, radius, x0, y0))
    coeffs = []
    for key, (vals, vecs, idx) in blocks.items():
        proj = vecs.T @ record.null_vector[idx]
        for col in range(vecs.shape[1]):
            coeffs.append(((key, col, float(vals[col])), complex(proj[col])))
    coeffs.sort(key=lambda t: -abs(t[1]))
    return coeffs


def _confirm_sinai_candidate(cavity, vg0, e0, parity_key, radius, x0, y0,
                             p_max, width_tol, null_tol):
    def family(vg):
        return sinai_model(cavity, SinaiBump(vg, radius, x0, y0), p_max=p_max)

    # seed from the deformed eigenvector nearest the candidate energy (the
    # coupling trace permutes branch order, so select by energy, not index)
    vals, vecs, idx = sinai_spectrum(cavity, SinaiBump(vg0, radius, x0, y0))[parity_key]
    branch = int(np.argmin(np.abs(vals - e0)))
    seed_vec = np.zeros(len(cavity.basis()), dtype=complex)
    seed_vec[idx] = vecs[:, branch]
    grid = np.linspace(vg0 - _CONFIRM_WINDOW, vg0 + _CONFIRM_WINDOW, 13)
    try:
        traj = hcore.track(family, grid, seed_energy=float(vals[branch]),
                           branch_vector=seed_vec)
        recs = hcore.find_bics(traj, family, width_tol=width_tol, null_tol=null_tol)
    except np.linalg.LinAlgError:
        return None
    if not recs:
        return None
    best = min(recs, key=lambda r: r.gamma_res)
    return best
