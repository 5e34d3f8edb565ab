"""Exact one-dimensional scattering solvers.

Three models:

* finite square well (control case: its scattering determinant has no zeros
  on the real axis, hence no embedded bound states),
* a flux-threaded ring attached to two leads, where the interference of the
  two arms traps electrons at (k, gamma) = 2 pi (m, n),
* a three-layer spin model with the field tilted inside the central layer;
  interference of the two spin-split inner channels produces embedded bound
  states while the outer spin-down channel is evanescent.

All quantities dimensionless: ring lengths in units of the circumference,
layer quantities as in the defining Hamiltonians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hcore


class SingularPoint(RuntimeError):
    """The linear system is singular: embedded-bound-state point."""


# ----------------------------------------------------------------- well --

@dataclass(frozen=True)
class WellParams:
    k: float   # outside wavenumber
    q: float   # inside wavenumber
    L: float   # well width

    def __post_init__(self):
        if min(self.k, self.q, self.L) <= 0:
            raise ValueError("k, q, L must be positive")


def well_matrix(p: WellParams):
    """Interface-matching system M (r, a, b, t)^T = g for the square well."""
    k, q, L = p.k, p.q, p.L
    ep, em, f = np.exp(1j * q * L), np.exp(-1j * q * L), np.exp(1j * k * L)
    m = np.array([
        [-1.0, 1.0, 1.0, 0.0],
        [k, q, -q, 0.0],
        [0.0, ep, em, -f],
        [0.0, q * ep, -q * em, -k * f],
    ], dtype=complex)
    g = np.array([1.0, k, 0.0, 0.0], dtype=complex)
    return m, g


def well_det_closed_form(p: WellParams) -> complex:
    """|det| reference: 2i(k^2+q^2) sin(qL) + 4kq cos(qL) (up to the unit
    modulus factor e^{ikL} and complex conjugation of convention)."""
    k, q, L = p.k, p.q, p.L
    return 2j * (k * k + q * q) * math.sin(q * L) + 4.0 * k * q * math.cos(q * L)


@dataclass(frozen=True)
class WellSolution:
    r: complex
    a: complex
    b: complex
    t: complex
    det: complex


def well_solve(p: WellParams) -> WellSolution:
    m, g = well_matrix(p)
    det = np.linalg.det(m)
    if abs(det) < 1e-12:
        raise SingularPoint("well system singular (cannot happen for real k, q > 0)")
    r, a, b, t = np.linalg.solve(m, g)
    return WellSolution(r=r, a=a, b=b, t=t, det=det)


def well_det_min_over_grid(k_max=20.0, q_max=20.0, widths=(1.0, 2.0, 5.0),
                           n=200) -> float:
    """Smallest |det| over real (k, q) grids: stays positive, no trapped
    states exist in the plain 1D well."""
    k = np.linspace(k_max / n, k_max, n)[:, None]
    q = np.linspace(q_max / n, q_max, n)[None, :]
    best = np.inf
    for L in widths:
        d = np.abs(2j * (k**2 + q**2) * np.sin(q * L) + 4 * k * q * np.cos(q * L))
        best = min(best, float(d.min()))
    return best


# ------------------------------------------------------------------ ring --

@dataclass(frozen=True)
class RingParams:
    """k and gamma may be arrays (broadcast together): one ring per point."""

    k: float       # wavenumber, circumference units
    gamma: float   # flux phase 2 pi Phi / Phi_0

    def __post_init__(self):
        bad = self.k <= 0
        if bad.any() if isinstance(bad, np.ndarray) else bad:
            raise ValueError("k must be positive")


def ring_matrix(p: RingParams):
    """Junction-matching system F (r, t, a1, a2, b1, b2)^T = g; F is 6 x 6,
    stacked over the points of array parameters."""
    k, g = p.k, p.gamma
    km, kp = k - g, k + g
    e1, e2 = np.exp(0.5j * km), np.exp(-0.5j * kp)
    e3, e4 = np.exp(0.5j * kp), np.exp(-0.5j * km)
    entries = [
        [-1, 0, 1, 1, 0, 0],
        [-1, 0, 0, 0, 1, 1],
        [0, -1, e1, e2, 0, 0],
        [0, -1, 0, 0, e3, e4],
        [1, 0, km / k, -kp / k, kp / k, -km / k],
        [0, -1, km / k * e1, -kp / k * e2, kp / k * e3, -km / k * e4],
    ]
    rhs = np.array([1, 1, 0, 0, 1, 0], dtype=complex)
    f = np.empty(np.shape(km) + (6, 6), dtype=complex)
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            f[..., i, j] = x
    return f, rhs


def ring_solve(p: RingParams) -> dict:
    """Amplitudes of the ring at (k, gamma).  A singular system raises
    ``SingularPoint``; over array parameters the singular points are NaN in
    every amplitude instead, and the others are solved in one stacked call
    (LAPACK runs per matrix, so each point gets the scalar bits)."""
    f, rhs = ring_matrix(p)
    det = np.linalg.det(f)
    if f.ndim == 2:
        if abs(det) < 1e-12:
            raise SingularPoint(f"ring system singular at (k, gamma)=({p.k}, {p.gamma})")
        x = np.linalg.solve(f, rhs)
    else:
        # np.hypot, not np.abs: the array abs of a complex can differ by an
        # ulp from the scalar one.  A stacked solve fails as a whole on one
        # singular matrix, so those are masked out first.
        ok = ~(np.hypot(det.real, det.imag) < 1e-12)
        x = np.full(f.shape[:-1], np.nan, dtype=complex)
        x[ok] = np.linalg.solve(f[ok], rhs)
    r, t, a1, a2, b1, b2 = x.T
    return {"r": r, "t": t, "a1": a1, "a2": a2, "b1": b1, "b2": b2, "det": det}


def ring_closed_form(p: RingParams) -> dict:
    """Interference closed forms for the ring amplitudes."""
    k, g = p.k, p.gamma
    z = 8.0 * np.cos(g) - 9.0 * np.exp(-1j * k) - np.exp(1j * k) + 2.0
    r = 2.0 * (3.0 * np.cos(k) - 4.0 * np.cos(g) + 1.0) / z
    t = 16j * np.sin(0.5 * k) * np.cos(0.5 * g) / z
    a1 = 2.0 * (2.0 * np.exp(1j * g) - 3.0 * np.exp(-1j * k) + 1.0) / z
    a2 = 2.0 * (np.exp(1j * k) + 1.0 - 2.0 * np.exp(1j * g)) / z
    gm = -g
    b1 = 2.0 * (2.0 * np.exp(1j * gm) - 3.0 * np.exp(-1j * k) + 1.0) / z
    b2 = 2.0 * (np.exp(1j * k) + 1.0 - 2.0 * np.exp(1j * gm)) / z
    return {"r": r, "t": t, "a1": a1, "a2": a2, "b1": b1, "b2": b2, "Z": z}


def ring_approx_t(dk: float, dgamma: float) -> complex:
    """Transmission near a trapping point: t ~ dk / (dk + i dgamma^2 / 2)."""
    return dk / (dk + 0.5j * dgamma * dgamma)


def ring_bic_analysis(m: int, n: int) -> dict:
    """Null structure of the junction system at (k, gamma) = 2 pi (m, n).

    Returns right/left null vectors (sign-normalized), the solvability
    product with the drive vector, and the minimum-norm particular solution.
    """
    if m == 0:
        raise ValueError("m = 0 carries no current; trapping points need m != 0")
    p = RingParams(k=2.0 * math.pi * m, gamma=2.0 * math.pi * n)
    f, rhs = ring_matrix(p)
    u, s, vh = np.linalg.svd(f)
    right = vh[-1].conj()
    left = u[:, -1].conj()
    # deterministic signs: largest-|entry| positive real
    for vec in (right, left):
        i = int(np.argmax(np.abs(vec)))
        phase = vec[i] / abs(vec[i])
        vec *= phase.conjugate()
    right = right.real if np.allclose(right.imag, 0, atol=1e-10) else right
    left = left.real if np.allclose(left.imag, 0, atol=1e-10) else left
    particular = np.linalg.lstsq(f, rhs, rcond=1e-8)[0]
    return {
        "sigma_min": float(s[-1]),
        "sigma_max": float(s[0]),
        "right_null": right,
        "left_null": left,
        "right_residual": float(np.linalg.norm(f @ right)),
        "left_residual": float(np.linalg.norm(left @ f)),
        "solvability": complex(left @ rhs),
        "particular": particular,
        "particular_residual": float(np.linalg.norm(f @ particular - rhs)),
    }


# ---------------------------------------------------------------- zeeman --

@dataclass(frozen=True)
class ZeemanParams:
    """Spin-split three-layer scattering at fixed incidence angle.

    Outside the layer the spectra are E = k^2 -/+ B for spin up/down; inside
    E = q^2 + U0 -/+ B in the tilted-field eigenbasis.  The transverse
    momentum k_x of the incident spin-up wave is conserved.
    """

    energy: float
    theta: float
    L: float
    b_field: float
    phi: float
    u0: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("layer thickness must be positive")
        if self.kzu_sq <= 0:
            raise ValueError("spin-up outer channel must be open")
        if self.q1_sq <= 0 or self.q2_sq <= 0:
            raise ValueError("both inner channels must be open")

    @property
    def kx(self) -> float:
        return math.sqrt(self.energy + self.b_field) * math.sin(self.theta)

    @property
    def kzu_sq(self) -> float:
        return self.energy + self.b_field - self.kx**2

    @property
    def kzd_sq(self) -> float:
        return self.energy - self.b_field - self.kx**2

    @property
    def q1_sq(self) -> float:
        return self.energy - self.u0 + self.b_field - self.kx**2

    @property
    def q2_sq(self) -> float:
        return self.energy - self.u0 - self.b_field - self.kx**2

    @property
    def kzu(self) -> float:
        return math.sqrt(self.kzu_sq)

    @property
    def kzd(self) -> complex:
        return (math.sqrt(self.kzd_sq) if self.kzd_sq >= 0
                else 1j * math.sqrt(-self.kzd_sq))

    @property
    def q1(self) -> float:
        return math.sqrt(self.q1_sq)

    @property
    def q2(self) -> float:
        return math.sqrt(self.q2_sq)

    @property
    def down_evanescent(self) -> bool:
        return self.kzd_sq < 0


def zeeman_system(p: ZeemanParams):
    """8x8 interface-matching system over the layer [0, L].

    Unknowns (r_up, r_dn, t_up, t_dn, a1, b1, a2, b2); the transmitted
    amplitudes are taken at the z = L interface (the e^{i k L} factor is
    absorbed) so the system stays well conditioned when spin-down decays.
    """
    c, s = math.cos(0.5 * p.phi), math.sin(0.5 * p.phi)
    ku, kd, q1, q2, L = p.kzu, p.kzd, p.q1, p.q2, p.L
    e1p, e1m = np.exp(1j * q1 * L), np.exp(-1j * q1 * L)
    e2p, e2m = np.exp(1j * q2 * L), np.exp(-1j * q2 * L)
    m = np.zeros((8, 8), dtype=complex)
    g = np.zeros(8, dtype=complex)
    #          r_up r_dn t_up t_dn   a1      b1      a2      b2
    m[0] = [1, 0, 0, 0, -c, -c, s, s]
    g[0] = -1.0
    m[1] = [ku, 0, 0, 0, q1 * c, -q1 * c, -q2 * s, q2 * s]
    g[1] = ku
    m[2] = [0, 1, 0, 0, -s, -s, -c, -c]
    m[3] = [0, -kd, 0, 0, -q1 * s, q1 * s, -q2 * c, q2 * c]
    m[4] = [0, 0, 1, 0, -c * e1p, -c * e1m, s * e2p, s * e2m]
    m[5] = [0, 0, ku, 0, -q1 * c * e1p, q1 * c * e1m, q2 * s * e2p, -q2 * s * e2m]
    m[6] = [0, 0, 0, 1, -s * e1p, -s * e1m, -c * e2p, -c * e2m]
    m[7] = [0, 0, 0, kd, -q1 * s * e1p, q1 * s * e1m, -q2 * c * e2p, q2 * c * e2m]
    return m, g


def zeeman_scatter(p: ZeemanParams) -> dict:
    """Solve the interface system; flags the trapping singularity."""
    m, g = zeeman_system(p)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise SingularPoint(f"layer system singular at (E, L)=({p.energy}, {p.L})")
    x = np.linalg.solve(m, g)
    return {"r_up": x[0], "r_dn": x[1], "t_up": x[2], "t_dn": x[3],
            "a1": x[4], "b1": x[5], "a2": x[6], "b2": x[7],
            "sigma_min": float(sv[-1]), "sigma_max": float(sv[0])}


def zeeman_sigma_min(p: ZeemanParams) -> float:
    m, _ = zeeman_system(p)
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[-1] / sv[0])


def zeeman_printed_residual(p: ZeemanParams, parity: str) -> float:
    """Residual of the tilt-angle trapping relation.

    Symmetric: cos^2(phi/2) (q2 tan(q2 L/2) - |kzd|)
             + sin^2(phi/2) (q1 tan(q1 L/2) - |kzd|) = 0
    (the cot form with +|kzd| for the antisymmetric family).  Vanishes on
    the candidate curves and, as 0/0 of both brackets, at every true
    trapping point.
    """
    if not p.down_evanescent:
        raise ValueError("outer spin-down channel must be evanescent")
    kd = abs(p.kzd)
    c2, s2 = math.cos(0.5 * p.phi) ** 2, math.sin(0.5 * p.phi) ** 2
    half = 0.5 * p.L
    if parity == "sym":
        b1 = p.q1 * math.tan(p.q1 * half) - kd
        b2 = p.q2 * math.tan(p.q2 * half) - kd
    elif parity == "asym":
        b1 = p.q1 / math.tan(p.q1 * half) + kd
        b2 = p.q2 / math.tan(p.q2 * half) + kd
    else:
        raise ValueError("parity must be 'sym' or 'asym'")
    return c2 * b2 + s2 * b1


def _branch_lengths(q: float, kd: float, parity: str, l_max: float) -> list[float]:
    """All L in (0, l_max] with q tan(qL/2) = kd (sym) or q cot(qL/2) = -kd."""
    if parity == "sym":
        x0 = math.atan(kd / q)          # in (0, pi/2)
    else:
        x0 = math.pi - math.atan(q / kd)  # cot x = -kd/q, x in (pi/2, pi)
    out = []
    n = 0
    while True:
        L = 2.0 * (x0 + math.pi * n) / q
        if L > l_max:
            break
        if L > 0:
            out.append(L)
        n += 1
    return out


@dataclass(frozen=True)
class ZeemanBIC:
    energy: float
    L: float
    parity: str
    sigma_min: float
    printed_residual: float
    coefficients: tuple  # (a, b, c) of the trapped spinor profile


def zeeman_bic_points(theta: float, b_field: float, phi: float, u0: float,
                      parity: str, l_range=(1e-3, 6.0)) -> list[ZeemanBIC]:
    """Trapped-state points in the (E, L) window.

    A localized state requires both inner channels to match the outer
    spin-down decay simultaneously:

        q1 tan(q1 L/2) = q2 tan(q2 L/2) = |kzd|   (symmetric)

    and the cot analogue with -|kzd| (antisymmetric).  Each family is a
    closed-form curve L_n(E); intersections are bracketed on 400 energies
    across the band and polished by brentq.  Every returned point is
    validated against the full interface system (smallest singular value
    <= 1e-7 of the largest).
    """
    if parity not in ("sym", "asym"):
        raise ValueError("parity must be 'sym' or 'asym'")
    s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    # band: spin-down evanescent outside, both inner channels open
    e_hi = b_field * (1 + s2) / c2
    e_lo = max(1e-3, (u0 + b_field * (1 + s2)) / c2 + 1e-9)
    e_range = (e_lo + 1e-6 * (e_hi - e_lo), 0.999 * e_hi)
    if e_range[0] >= e_range[1]:
        return []

    def params(e, L):
        return ZeemanParams(energy=e, theta=theta, L=L, b_field=b_field,
                            phi=phi, u0=u0)

    def curves(e):
        p = params(e, 1.0)
        kd = abs(p.kzd)
        c1 = _branch_lengths(p.q1, kd, parity, l_range[1])
        c2 = _branch_lengths(p.q2, kd, parity, l_range[1])
        return c1, c2

    es = np.linspace(e_range[0], e_range[1], 400)
    n1 = max(len(curves(e)[0]) for e in (es[0], es[-1]))
    n2 = max(len(curves(e)[1]) for e in (es[0], es[-1]))
    found = []
    for i in range(n1 + 2):
        for j in range(n2 + 2):

            def gap(e, _i=i, _j=j):
                c1, c2 = curves(e)
                if _i >= len(c1) or _j >= len(c2):
                    return np.nan
                return c1[_i] - c2[_j]

            vals = np.array([gap(e) for e in es])
            for a in range(len(es) - 1):
                va, vb = vals[a], vals[a + 1]
                if np.isnan(va) or np.isnan(vb) or va * vb > 0:
                    continue
                e_star = hcore.brentq(gap, es[a], es[a + 1], xtol=1e-13)
                l_star = curves(e_star)[0][i]
                if not (l_range[0] <= l_star <= l_range[1]):
                    continue
                found.append((e_star, l_star))

    out = []
    for e_star, l_star in sorted(found):
        if any(abs(e_star - b.energy) < 1e-6 and abs(l_star - b.L) < 1e-6
               for b in out):
            continue
        p = params(e_star, l_star)
        sig = zeeman_sigma_min(p)
        coeff = _zeeman_profile_coefficients(p, parity)
        out.append(ZeemanBIC(energy=e_star, L=l_star, parity=parity,
                             sigma_min=sig,
                             printed_residual=zeeman_printed_residual(p, parity),
                             coefficients=coeff))
    return out


def zeeman_printed_roots(p_base: ZeemanParams, parity: str,
                         l_range=(1e-3, 6.0), dl: float = 0.01,
                         pole_guard: float = 1e-4) -> list[float]:
    """Roots in L of the single printed trapping relation at fixed energy.

    Candidate lengths only: these sit on curves through the true trapping
    points but are not themselves singular points of the full system away
    from the simultaneous-matching intersections.
    """
    def f(L):
        return zeeman_printed_residual(
            ZeemanParams(p_base.energy, p_base.theta, L, p_base.b_field,
                         p_base.phi, p_base.u0), parity)

    half = 0.5
    poles = []
    for q in (p_base.q1, p_base.q2):
        x = math.pi / 2 if parity == "sym" else math.pi
        first = x / (q * half)
        step = math.pi / (q * half)
        t = first if parity == "sym" else step
        while t <= l_range[1]:
            poles.append(t)
            t += step
    roots = []
    grid = np.arange(l_range[0], l_range[1] + dl, dl)
    for a, b in zip(grid[:-1], grid[1:]):
        if any(a - pole_guard <= t <= b + pole_guard for t in poles):
            continue
        fa, fb = f(a), f(b)
        if fa * fb < 0:
            roots.append(hcore.brentq(f, a, b, xtol=1e-10))
    return roots


def _zeeman_profile_coefficients(p: ZeemanParams, parity: str):
    c, s = math.cos(0.5 * p.phi), math.sin(0.5 * p.phi)
    half = 0.5 * p.L
    e = math.exp(-abs(p.kzd) * half)
    if parity == "sym":
        f1, f2 = math.cos(p.q1 * half), math.cos(p.q2 * half)
    else:
        f1, f2 = math.sin(p.q1 * half), math.sin(p.q2 * half)
    a, b = s * f2, c * f1
    cc = f1 * f2 / e
    norm = math.sqrt(a * a + b * b + cc * cc * e * e)
    return (a / norm, b / norm, cc / norm)


def zeeman_bic_profile(bic: ZeemanBIC, theta: float, b_field: float,
                       phi: float, u0: float, z: np.ndarray):
    """Spinor components (psi_up, psi_dn) of a trapped state on a symmetric
    z grid about the layer center."""
    p = ZeemanParams(bic.energy, theta, bic.L, b_field, phi, u0)
    a, b, cc = bic.coefficients
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    half = 0.5 * p.L
    inside = np.abs(z) <= half
    up = np.zeros_like(z)
    dn = np.zeros_like(z)
    if bic.parity == "sym":
        f1, f2 = np.cos(p.q1 * z), np.cos(p.q2 * z)
        tail = cc * np.exp(-abs(p.kzd) * np.abs(z))
    else:
        f1, f2 = np.sin(p.q1 * z), np.sin(p.q2 * z)
        tail = cc * np.sign(z) * np.exp(-abs(p.kzd) * np.abs(z))
    up[inside] = (a * f1 * c - b * f2 * s)[inside]
    dn[inside] = (a * f1 * s + b * f2 * c)[inside]
    dn[~inside] = tail[~inside]
    return up, dn
