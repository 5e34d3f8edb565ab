"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:  pytest tests/test_acceptance.py -s
"""

import math
import time

import mpmath
import numpy as np
import pytest

from openres import cyl3d, hcore, planar2d, sph3d, specfun, toymodels, wires1d


def _report(num, ok, detail, t0, budget):
    dt = time.time() - t0
    print(f"\n[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; runtime {dt:.1f}s / budget {budget:.0f}s)", flush=True)
    assert dt < budget, f"criterion {num} exceeded its runtime budget"


# --------------------------------------------------------------------- 1 --

def test_criterion_1_twolevel_interference_condition():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        g1, g2 = rng.uniform(0.01, 1.0, 2)
        u = rng.uniform(-10.0, 10.0)
        eps = toymodels.twolevel_bic_point(g1, g2, u)
        a = toymodels.twolevel_bic_energy(g1, g2, u, eps)
        z1, z2 = toymodels.twolevel_eigenvalues(
            toymodels.TwoLevelParams(eps, g1, g2, u))
        zb = min((z1, z2), key=lambda z: abs(z - a))
        worst = max(worst, abs(zb.imag))
    _report(1, worst <= 1e-10, f"1000 draws, max |Im z| = {worst:.2e}", t0, 1.0)
    assert worst <= 1e-10


# --------------------------------------------------------------------- 2 --

def _twolevel_zero_width_eps(g1, g2, u, lo, hi):
    eps_star = toymodels.twolevel_bic_point(g1, g2, u)
    m = toymodels.twolevel_matrix(toymodels.TwoLevelParams(eps_star, g1, g2, u))
    vals, vecs = np.linalg.eig(m)
    j = int(np.argmin(np.abs(vals.imag)))

    def family(eps):
        return toymodels.twolevel_model(toymodels.TwoLevelParams(eps, g1, g2, u))

    grid_up = np.linspace(eps_star, hi, 9)
    grid_dn = np.linspace(eps_star, lo, 9)
    traj = hcore.track(family, grid_dn, float(vals[j].real), vecs[:, j])[::-1]
    traj += hcore.track(family, grid_up, float(vals[j].real), vecs[:, j])[1:]
    recs = [r for r in hcore.find_bics(traj, family) if r.is_bic]
    assert recs, "no zero-width point found"
    return min(recs, key=lambda r: abs(r.param - eps_star)).param


def test_criterion_2_fano_collapse_regimes():
    t0 = time.time()
    # (a) symmetric case: transmission zero and unit coalesce at the origin
    g = 0.1
    eps_ax = np.linspace(-2, 2, 101)
    e_ax = np.linspace(-2, 2, 101)
    pix = eps_ax[1] - eps_ax[0]
    seps = []
    for eps in (0.4, 0.2, 2 * pix):
        p = toymodels.TwoLevelParams(eps, g, g, 0.0)
        tt = []
        for e in e_ax:
            try:
                tt.append(abs(toymodels.twolevel_transmission(e, p)))
            except toymodels.SingularTransmissionPoint:
                tt.append(np.nan)
        tt = np.array(tt)
        seps.append(abs(e_ax[np.nanargmax(tt)] - e_ax[np.nanargmin(tt)]))
        assert np.nanmax(tt) > 0.999 and np.nanmin(tt) < 1e-3
    ok_a = seps[-1] <= 2 * pix + 1e-12 and seps[0] > seps[-1]
    # (c/d) zero width at eps = 0 for unequal couplings, u = 0
    eps_cd = _twolevel_zero_width_eps(0.1, 0.2, 0.0, -0.5, 0.5)
    ok_cd = abs(eps_cd) <= 1e-6
    # (e/f) u = 25: zero width at -8.8388 within 1e-6
    eps_ef = _twolevel_zero_width_eps(0.1, 0.2, 25.0, -9.3, -8.4)
    ok_ef = abs(eps_ef - (-8.838834764831845)) <= 1e-6
    ok = ok_a and ok_cd and ok_ef
    _report(2, ok, f"collapse pixel sep {seps[-1]:.3f}, eps(c/d)={eps_cd:.2e}, "
            f"eps(e/f)={eps_ef:.7f}", t0, 10.0)
    assert ok


# --------------------------------------------------------------------- 3 --

def test_criterion_3_ring_closed_forms_and_nulls():
    t0 = time.time()
    ks = np.linspace(0.05, 4 * math.pi, 200)
    gs = np.linspace(0.0, 4 * math.pi, 200)
    worst = 0.0
    for k in ks:
        for g in gs:
            p = wires1d.RingParams(k, g)
            try:
                sol = wires1d.ring_solve(p)
            except wires1d.SingularPoint:
                continue
            cf = wires1d.ring_closed_form(p)
            if abs(cf["Z"]) < 0.01:
                # pixels adjacent to the trapping singularities: the LU
                # forward error is cond*eps by construction (the solver flags
                # exact singularity); amplitudes there reach ~1e4
                continue
            for key in ("r", "t", "a1", "a2", "b1", "b2"):
                worst = max(worst, abs(sol[key] - cf[key])
                            / max(1.0, abs(cf[key])))
    ok = worst <= 1e-12
    f0 = 0.5 * np.array([0, 0, 1, -1, -1, 1])
    f0l = 0.5 * np.array([-1, 1, 1, -1, 0, 0])
    det_ok = True
    null_ok = True
    for m in (1, 2):
        for n in (1, 2):
            res = wires1d.ring_bic_analysis(m, n)
            fmat, _ = wires1d.ring_matrix(
                wires1d.RingParams(2 * math.pi * m, 2 * math.pi * n))
            det_ok &= abs(np.linalg.det(fmat)) < 1e-10
            null_ok &= abs(abs(np.vdot(res["right_null"], f0)) - 1) < 1e-10
    res11 = wires1d.ring_bic_analysis(1, 1)
    null_ok &= abs(abs(np.vdot(res11["left_null"], f0l)) - 1) < 1e-10
    ok = ok and det_ok and null_ok
    _report(3, ok, f"max closed-form mismatch {worst:.1e} on 200x200", t0, 5.0)
    assert ok


# --------------------------------------------------------------------- 4 --

def _row_features(theta, b, phi, u0, e_star, length, half_window=0.45, n=2400):
    """Transmission-zero and unit-transmission (reflection-zero) locations
    of the Fano feature on one map row; None when the feature left the
    window."""
    es = np.linspace(e_star - half_window, e_star + half_window, n)
    tt = np.full(es.size, np.nan)
    rr = np.full(es.size, np.nan)
    for i, e in enumerate(es):
        try:
            p = wires1d.ZeemanParams(e, theta, length, b, phi, u0)
            s = wires1d.zeeman_scatter(p)
            tt[i] = abs(s["t_up"])
            rr[i] = abs(s["r_up"])
        except (ValueError, wires1d.SingularPoint):
            pass
    iz, io = np.nanargmin(tt), np.nanargmin(rr)
    if tt[iz] > 0.1 or rr[io] > 0.1:
        return None
    return es[iz], es[io]


def _collapse_at_root(theta, b, phi, u0, e_star, l_star, de=0.05, dl=0.01):
    """The zero and unit curves coalesce within one E pixel one L step away
    from the root, and their straddling positions interpolate back onto the
    root's pixel."""
    for step in (1, 2):
        lo = _row_features(theta, b, phi, u0, e_star, l_star - step * dl)
        hi = _row_features(theta, b, phi, u0, e_star, l_star + step * dl)
        if lo is not None and hi is not None:
            break
    if lo is None or hi is None:
        return False, "feature not found beside the root"
    sep = max(abs(lo[0] - lo[1]), abs(hi[0] - hi[1]))
    if sep > de:
        return False, f"zero/one separation {sep:.3f} above one pixel"
    f_lo = 0.5 * (lo[0] + lo[1]) - e_star
    f_hi = 0.5 * (hi[0] + hi[1]) - e_star
    if f_lo * f_hi > 0:
        return False, "feature does not straddle the root energy"
    l_c = (l_star - step * dl) + (2 * step * dl) * abs(f_lo) / (abs(f_lo) + abs(f_hi))
    if abs(l_c - l_star) > dl:
        return False, f"interpolated pinch off by {l_c - l_star:.4f} in L"
    return True, f"sep={sep:.4f}, pinch offset {l_c - l_star:+.4f}"


def test_criterion_4_zeeman_roots_singular_and_on_collapse():
    t0 = time.time()
    theta, b, phi, u0 = math.pi / 4, 10.0, math.pi / 3, -20.0
    n_pts = 0
    ok = True
    details = []
    for parity in ("sym", "asym"):
        for bic in wires1d.zeeman_bic_points(theta, b, phi, u0, parity,
                                             l_range=(1e-3, 6.0)):
            n_pts += 1
            ok &= bic.sigma_min <= 1e-7
            good, info = _collapse_at_root(theta, b, phi, u0, bic.energy, bic.L)
            if not good:
                ok = False
                details.append(f"{parity}@L={bic.L:.3f}: {info}")
    _report(4, ok and n_pts >= 6,
            f"{n_pts} trapping points, all singular<=1e-7 and on collapse "
            f"pixels{'; ' + '; '.join(details) if details else ''}", t0, 60.0)
    assert ok and n_pts >= 6


# --------------------------------------------------------------------- 5 --

# Quoted first-channel couplings of the degenerate (4,3)/(2,5) pair.  Their
# ratio contradicts the model, so W_b is checked against the value that the
# quoted W_a implies (README, "Decisions ledger").
W_A_QUOTED = 0.618
W_B_QUOTED = 0.4
QUOTED_RATIO = W_A_QUOTED / W_B_QUOTED  # 1.545


def _pair_coupling_ratio_mpmath():
    """Signed W_(4,3)/W_(2,5) at the crossing of the Lx = 4 rectangle.

    Both couplings are d_x overlaps of the p = 1 channel function with one
    mode at one frequency, so the ratio is (m_a I_3)/(m_b I_5) whatever the k
    convention or normalisation, with the mouth integral
    I_n = int_{-1/2}^{1/2} sqrt(2) sin(pi (y + 1/2)) sin(pi n (y + Ly/2)/Ly) dy
    taken here by 30-digit quadrature.
    """
    with mpmath.workdps(30):
        # width at which the (4,3) and (2,5) energies cross
        ly = mpmath.sqrt(mpmath.mpf(5**2 - 3**2) * 4**2 / (4**2 - 2**2))
        half = mpmath.mpf(1) / 2

        def mouth(n):
            return mpmath.quad(
                lambda y: mpmath.sqrt(2) * mpmath.sin(mpmath.pi * (y + half))
                * mpmath.sin(mpmath.pi * n * (y + ly / 2) / ly), [-half, half])

        return float(4 * mouth(3) / (2 * mouth(5)))


def test_criterion_5_planar_couplings_and_bic():
    t0 = time.time()
    wa, wb, _ = planar2d.degenerate_pair_couplings(4.0, "frequency")
    ratio = _pair_coupling_ratio_mpmath()
    wb_ref = W_A_QUOTED / abs(ratio)
    wa_ok = abs(wa - W_A_QUOTED) / W_A_QUOTED <= 0.01
    wb_ok = abs(wb - wb_ref) / wb_ref <= 0.01

    shifts = {}
    rec8 = None
    for p_max in (2, 4, 8):
        rec, ly0 = planar2d.planar_fw_bic(lx=4.0, p_max=p_max, m_max=20, n_max=20)
        shifts[p_max] = rec.param / ly0 - 1.0
        if p_max == 8:
            rec8 = rec
    bic_ok = (rec8.is_bic and abs(shifts[8]) < 0.03
              and abs(math.sqrt(rec8.omega_sq) - 3.746) / 3.746 <= 0.02)
    # the p=2 channel is parity-blind to the pair: the shift turns on at
    # p_max=4 and converges (increments shrink)
    inc1 = abs(shifts[4] - shifts[2])
    inc2 = abs(shifts[8] - shifts[4])
    trend_ok = shifts[4] != 0.0 and inc2 < inc1

    ok = wa_ok and wb_ok and bic_ok and trend_ok
    _report(5, ok,
            f"W_a={wa:.4f} ({W_A_QUOTED} within 1%: {wa_ok}), "
            f"W_b={wb:.4f} vs {W_A_QUOTED}/|{ratio:.7f}|={wb_ref:.5f} "
            f"(within 1%: {wb_ok}; "
            f"quoted {W_B_QUOTED} needs ratio {QUOTED_RATIO:.3f}, unattainable, "
            f"see README 'Decisions ledger'), "
            f"BIC shift={shifts[8]*100:.3f}%, omega={math.sqrt(rec8.omega_sq):.4f}",
            t0, 300.0)
    assert wa_ok and bic_ok and trend_ok
    assert wb_ok, (f"W_b = {wb:.5f} is not within 1% of {wb_ref:.5f}, the value "
                   f"that the quoted W_a = {W_A_QUOTED} implies through the "
                   f"quadrature ratio {ratio:.7f}; see README 'Decisions ledger'")


# --------------------------------------------------------------------- 6 --

SINAI_TABLE_EVEN = [  # (E, Vg) reference rows, even x-parity
    (12.550, 4.5), (13.029, 34.45), (13.244, -36.65), (14.026, -19.2),
    (19.709, -40.7), (21.025, 33.05), (22.355, -47.7), (25.541, -22.8),
    (28.236, 46.7), (29.608, 16.05), (30.181, 39.35), (31.418, -31.55),
    (31.960, -34.2), (32.002, 27.75), (34.333, 6.00), (38.495, 17.15),
]


def test_criterion_6_sinai_catalog():
    t0 = time.time()
    cav = planar2d.RectCavity(lx=4.0, ly=2.0, bc="neumann", m_max=14, n_max=14)
    recs, even_recs = [], []
    for x_even in (True, False):
        found = planar2d.sinai_accidental_bics(
            cav, vg_range=(-50.0, 50.0), x_even=x_even, n_grid=101, p_max=6)
        recs.extend(found)
        if x_even:
            # the reference table lists even-x-parity states only
            even_recs = found
    matches = 0
    for e_ref, vg_ref in SINAI_TABLE_EVEN:
        if any(abs(r.param - vg_ref) <= 0.5 and
               abs(r.omega_sq - e_ref) / e_ref <= 0.01 for r in even_recs):
            matches += 1
    table_ok = matches >= 12
    # property fallback sanctioned for truncation/geometry drift: every
    # catalog entry is an exact zero-width point dominated by one deformed
    # eigenmode
    fallback_ok = len(recs) >= 4
    for r in recs:
        exp = planar2d.sinai_modal_expansion(r, cav)
        fallback_ok &= r.gamma_res <= 1e-8 and abs(exp[0][1]) ** 2 >= 0.5
    ok = table_ok or fallback_ok
    _report(6, ok, f"{len(recs)} catalog entries, {matches}/16 reference rows "
            f"matched (geometry unstated, see README 'Decisions ledger'), "
            f"property fallback: {fallback_ok}", t0, 1200.0)
    assert ok


# --------------------------------------------------------------------- 7 --

def test_criterion_7_cylindrical_tables_and_truncated_theory():
    t0 = time.time()
    cav = cyl3d.CylCavity(radius=3.0, length=5.0, m_max=4, n_max=3, l_max=6)
    recs1 = cyl3d.cyl_find_bics(cav, math.pi / 4, "length",
                                np.linspace(4.7, 5.4, 15))
    b1 = min(recs1, key=lambda r: abs(r.omega_sq - 0.385))
    ok1 = (abs(b1.omega_sq - 0.385) / 0.385 <= 0.02
           and abs(b1.param - 5.065) / 5.065 <= 0.02)

    cav2 = cyl3d.CylCavity(radius=3.0, length=3.0, m_max=4, n_max=3, l_max=6)
    recs2 = cyl3d.cyl_find_bics(cav2, math.pi / 4, "length",
                                np.linspace(2.8, 3.3, 11))
    b2 = min(recs2, key=lambda r: abs(r.omega_sq - 1.055))
    ok2 = (abs(b2.omega_sq - 1.055) / 1.055 <= 0.02
           and abs(b2.param - 3.051) / 3.051 <= 0.02)
    # dominant +/-211 coefficients within 5% of the reference 0.656
    lab2 = dict(hcore.bic_mode(b2, b2.labels))
    ok2 &= abs(abs(lab2[(2, 1, 1)]) - 0.656) / 0.656 <= 0.05
    ok2 &= abs(abs(lab2[(-2, 1, 1)]) - 0.656) / 0.656 <= 0.05

    cav4 = cyl3d.CylCavity(radius=3.0, length=4.0, m_max=4, n_max=3, l_max=6)
    recs4 = cyl3d.cyl_find_bics(cav4, 0.0, "angle",
                                np.linspace(0.2 * math.pi, 0.42 * math.pi, 12))
    b4 = min(recs4, key=lambda r: abs(r.param - 0.308 * math.pi))
    ok4 = abs(b4.param - 0.308 * math.pi) <= 0.02 * math.pi
    # dominant +/-311 pair, |a| = 0.7056, relative phase e^{-3 i dphi} up to
    # the port-rotation orientation (which port carries the angle)
    lab = dict(hcore.bic_mode(b4, b4.labels))
    phase = lab[(-3, 1, 1)] / lab[(3, 1, 1)]
    ok4 &= min(abs(phase - np.exp(-3j * b4.param)),
               abs(phase - np.exp(+3j * b4.param))) < 0.05
    ok4 &= abs(abs(lab[(3, 1, 1)]) - 0.7056) / 0.7056 <= 0.05

    tc = cyl3d.TruncatedCMT()
    lc, _ = cyl3d.cmt_bic_length(tc, math.pi / 4)
    ok_cmt = abs(lc - 5.0512) / 5.0512 <= 0.02
    e1, e2, e3 = cyl3d.cmt_levels(tc, lc, math.pi / 2, (math.pi / lc) ** 2)
    ok_deg = abs(e2 - e3) <= 1e-15  # exact up to cos(pi/2) roundoff

    ok = ok1 and ok2 and ok4 and ok_cmt and ok_deg
    _report(7, ok,
            f"BIC1 ({b1.omega_sq:.4f},{b1.param:.4f}), "
            f"BIC2 ({b2.omega_sq:.4f},{b2.param:.4f}), "
            f"angle {b4.param/math.pi:.4f}pi vs 0.308pi, L_c={lc:.4f}",
            t0, 900.0)
    assert ok


# --------------------------------------------------------------------- 8 --

def test_criterion_8_sphere_properties_and_trapping():
    t0 = time.time()
    # (i) rotation unitarity and S unitarity
    cav = sph3d.SphereCavity(radius=10.0, l_max=6, n_max=3)
    chans = sph3d.duct_channels(16.0, ports=("X",))
    w = sph3d.sphere_pole_coupling(cav, chans)
    att = sph3d.WaveguideAttachment("X", alpha=0.5, beta=1.1, gamma=0.2)
    wr = sph3d.rotate_coupling(w, cav, att)
    basis = cav.basis()
    rot_ok = True
    for l in range(0, 7):
        for n in (1, 2, 3):
            idx = [i for i, (ll, m, nn) in enumerate(basis.labels)
                   if ll == l and nn == n]
            rot_ok &= abs(np.linalg.norm(wr[idx]) - np.linalg.norm(w[idx])) < 1e-9
    s_ok = True
    model = sph3d.sphere_model(cav, (sph3d.WaveguideAttachment("in"),
                                     sph3d.WaveguideAttachment("out", beta=2.0)))
    for w2 in (0.1, 0.25, 0.4):
        s, ch = hcore.smatrix(model(w2))
        s_ok &= np.max(np.abs(s.conj().T @ s - np.eye(len(ch)))) < 1e-9

    # (ii) geometry scan for the interference trapping point mixing l=1/l=4
    found = None
    for radius in (4.2, 3.8, 4.6):
        cav_r = sph3d.SphereCavity(radius=radius, l_max=6, n_max=3)
        rec = sph3d.sphere_fw_bic(cav_r, theta_range=(0.68 * math.pi,
                                                      0.82 * math.pi), n_grid=9)
        weights = sph3d.l_block_weights(rec)
        if (rec.is_bic and rec.gamma_res <= 1e-8
                and rec.omega_sq < sph3d.MU_11**2
                and weights.get(4, 0) > 0.5 and weights.get(1, 0) > 1e-6):
            found = (radius, rec, weights)
            break
    fw_ok = found is not None

    # (iii) weak-coupling scalings across three radii
    vals = {}
    for r in (8.0, 10.0, 12.0):
        c = sph3d.SphereCavity(radius=r, l_max=5, n_max=2)
        vals[r] = (sph3d.coupling_norm_sq(c, 4, 1),
                   abs(c.energy(1, 2) - c.energy(4, 1)))
    scale_ok = True
    for r1, r2 in [(8.0, 10.0), (10.0, 12.0), (8.0, 12.0)]:
        scale_ok &= abs(vals[r1][0] / vals[r2][0] / (r2 / r1) ** 3 - 1) < 0.10
        scale_ok &= abs(vals[r1][1] / vals[r2][1] / (r2 / r1) ** 2 - 1) < 0.10

    ok = rot_ok and s_ok and fw_ok and scale_ok
    detail = "no mixing trapping point found"
    if found:
        radius, rec, weights = found
        detail = (f"R={radius}: dtheta={rec.param/math.pi:.4f}pi, "
                  f"omega={math.sqrt(rec.omega_sq):.4f}, G={rec.gamma_res:.1e}, "
                  f"w(l=4)={weights.get(4, 0):.4f}, w(l=1)={weights.get(1, 0):.1e}")
    _report(8, ok, f"unitarity {rot_ok and s_ok}, scalings {scale_ok}, {detail}",
            t0, 1200.0)
    assert ok


# --------------------------------------------------------------------- 9 --

def test_criterion_9_chain_midpoint_zero():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        e1, e2 = rng.uniform(-1.0, 1.0, 2)
        u = rng.uniform(0.1, 0.5)
        v0 = rng.uniform(0.1, 1.0)
        p = toymodels.FPChainParams(e1, e2, 0.5 * (e1 + e2), u, v0)
        rec = toymodels.fp_chain_bic(p)
        worst = max(worst, abs(rec.param - 0.5 * (e1 + e2)))
        # uniqueness: widths strictly positive off the midpoint
        for off in (-0.15, 0.12):
            w = toymodels.fp_chain_middle_branch(
                toymodels.FPChainParams(e1, e2, 0.5 * (e1 + e2) + off, u, v0)).width
            assert w > 1e-8
    ok = worst <= 1e-8
    _report(9, ok, f"100 draws, max |eps_w* - midpoint| = {worst:.2e}", t0, 5.0)
    assert ok


# -------------------------------------------------------------------- 10 --

def test_criterion_10_global_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(11)
    uni_ok = True

    # S unitarity / flux conservation per model (lossless single-channel)
    for e in np.linspace(-1.5, 1.5, 7):
        s, _ = toymodels.twolevel_smatrix(e, toymodels.TwoLevelParams(0.3, 0.1, 0.2, 0.4))
        uni_ok &= np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-9
    chain = toymodels.fp_chain_model(toymodels.FPChainParams(-0.5, 0.5, 0.2, 0.25, 0.5))
    for e in (0.4, 0.9):
        s, _ = hcore.smatrix(chain(e))
        uni_ok &= np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-9
    for _ in range(50):
        sol = wires1d.well_solve(wires1d.WellParams(*rng.uniform(0.2, 10.0, 2),
                                                    rng.uniform(0.3, 4.0)))
        uni_ok &= abs(abs(sol.r) ** 2 + abs(sol.t) ** 2 - 1) < 1e-9
        ring = wires1d.ring_closed_form(wires1d.RingParams(rng.uniform(0.2, 10),
                                                           rng.uniform(0, 6)))
        uni_ok &= abs(abs(ring["r"]) ** 2 + abs(ring["t"]) ** 2 - 1) < 1e-9
    for _ in range(25):
        try:
            p = wires1d.ZeemanParams(rng.uniform(1, 29), rng.uniform(0.2, 1.2),
                                     rng.uniform(0.3, 5), 10.0,
                                     rng.uniform(0, math.pi), -20.0)
        except ValueError:
            continue
        if p.down_evanescent:
            s = wires1d.zeeman_scatter(p)
            uni_ok &= abs(abs(s["r_up"]) ** 2 + abs(s["t_up"]) ** 2 - 1) < 1e-9
    cavp = planar2d.RectCavity(lx=4.0, ly=3.0, m_max=10, n_max=10)
    modelp = planar2d.planar_model(cavp, p_max=4)
    for w2 in (12.0, 20.0, 35.0):
        s, ch = hcore.smatrix(modelp(w2))
        uni_ok &= np.max(np.abs(s.conj().T @ s - np.eye(len(ch)))) < 1e-9
    cavc = cyl3d.CylCavity(3.0, 4.3, 3, 2, 4)
    modelc = cyl3d.cyl_model(cavc, 0.6)
    for w2 in (0.4, 1.5, 2.9):
        s, ch = hcore.smatrix(modelc(w2))
        uni_ok &= np.max(np.abs(s.conj().T @ s - np.eye(len(ch)))) < 1e-9
    cavs = sph3d.SphereCavity(radius=8.0, l_max=4, n_max=2)
    models = sph3d.sphere_model(cavs, (sph3d.WaveguideAttachment("in"),
                                       sph3d.WaveguideAttachment("out", beta=1.9)))
    for w2 in (0.2, 0.5):
        s, ch = hcore.smatrix(models(w2))
        uni_ok &= np.max(np.abs(s.conj().T @ s - np.eye(len(ch)))) < 1e-9

    # width nonnegativity across assembled operators
    width_ok = True
    for model_fn, w2 in ((modelp, 18.0), (modelc, 1.2), (models, 0.3),
                         (chain, 0.7)):
        vals = np.linalg.eigvals(model_fn(w2).matrix)
        width_ok &= np.all(vals.imag <= 1e-12)

    # pole-eigenvalue equivalence with frozen couplings (determinant Newton)
    pole_ok = True
    basis = hcore.ClosedBasis(labels=tuple(range(6)),
                              energies=np.sort(rng.uniform(1, 20, 6)))
    channels = hcore.ChannelSet([hcore.Channel("L", ("c",), 0.0, fixed_k=1.0),
                                 hcore.Channel("R", ("c",), 0.0, fixed_k=1.0)])
    wmat = hcore.CouplingMatrix(rng.normal(0, 0.4, (6, 2)).astype(complex))
    h = hcore.AssemblyFrame(basis, channels, wmat)(5.0).matrix
    for z in np.linalg.eigvals(h):
        e = z + 1e-4 * (1 + 1j)
        for _ in range(60):
            g = np.linalg.inv(e * np.eye(6) - h)
            step = 1.0 / np.trace(g)
            e -= step
            if abs(step) < 1e-13:
                break
        pole_ok &= abs(e - z) < 1e-8

    # BIC null residuals across models
    res_ok = True
    fam2 = lambda eps: toymodels.twolevel_model(  # noqa: E731
        toymodels.TwoLevelParams(eps, 0.1, 0.1, 0.0))
    traj = hcore.track(fam2, np.linspace(-0.4, 0.4, 17), 0.02)
    res_ok &= all(r.residual <= 1e-7 for r in hcore.find_bics(traj, fam2)
                  if r.is_bic)
    res_ok &= toymodels.fp_chain_bic(
        toymodels.FPChainParams(-0.5, 0.5, 0.0, 0.25, 0.5)).residual <= 1e-7
    rec_p, _ = planar2d.planar_fw_bic(lx=4.0, p_max=4, m_max=10, n_max=10,
                                      n_grid=9)
    res_ok &= rec_p.residual <= 1e-7
    for parity in ("sym", "asym"):
        for bic in wires1d.zeeman_bic_points(math.pi / 4, 10.0, math.pi / 3,
                                             -20.0, parity)[:2]:
            res_ok &= bic.sigma_min <= 1e-7

    ok = uni_ok and width_ok and pole_ok and res_ok
    _report(10, ok, f"unitarity {uni_ok}, widths {width_ok}, poles {pole_ok}, "
            f"null residuals {res_ok}", t0, 300.0)
    assert ok
