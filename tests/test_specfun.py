"""Special-function kernel checks against independent oracles.

Oracles: scipy.special (independent implementation), mpmath at 30 digits for
spot values, a symbolic Rodrigues construction for associated Legendre, and
direct quadrature for spherical-harmonic orthonormality.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy import special

from openres import specfun

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------- bessel --

def test_j0_j1_at_origin():
    v0, d0 = specfun.bessel_j(0, 0.0)
    v1, d1 = specfun.bessel_j(1, 0.0)
    assert v0 == 1.0
    assert d0 == 0.0
    assert v1 == 0.0
    assert d1 == 0.5


def test_j1_derivative_zero_at_first_duct_cutoff():
    # 1.84118 is the first root of J_1' (lowest nonaxisymmetric duct cutoff)
    _, d = specfun.bessel_j(1, 1.84118)
    assert abs(d) < 1e-5


@pytest.mark.parametrize("p", list(range(0, 11)) + [0.5, 1.5, 2.5, 4.5, 6.5])
def test_bessel_matches_scipy_to_1e12(p):
    x = np.concatenate([RNG.uniform(1e-6, 50.0, 300), [0.3, 8.999, 9.0, 12.0, 49.9]])
    v, d = specfun.bessel_j(p, x)
    vr, dr = special.jv(p, x), special.jvp(p, x)
    # relative 1e-12 on the O(1) envelope; plain relative degenerates at roots
    assert np.all(np.abs(v - vr) <= 1e-12 * np.maximum(1e-2, np.abs(vr)))
    assert np.all(np.abs(d - dr) <= 1e-12 * np.maximum(1e-2, np.abs(dr)))


def test_bessel_spot_values_mpmath():
    for p, x in [(0, 2.7), (3, 14.3), (7, 33.0), (0.5, 5.5), (3.5, 9.25)]:
        ref = float(mpmath.besselj(p, x))
        v, _ = specfun.bessel_j(p, x)
        assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_j(1, np.nan)
    with pytest.raises(ValueError):
        specfun.bessel_j(1, -0.5)
    with pytest.raises(ValueError):
        specfun.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0.3, 1.0)


@pytest.mark.parametrize("p", list(range(0, 9)) + [l + 0.5 for l in range(0, 9)])
def test_scalar_kernel_bit_equal_to_one_element_array(p):
    # a float argument runs the float kernel, an array the numpy path; both
    # must give the same bits in the series (x < 2) and Miller regions, and
    # at the origin
    rng = np.random.default_rng(int(2 * p))
    xs = np.concatenate([rng.uniform(1e-4, 2.0, 100), rng.uniform(2.0, 60.0, 100),
                         [0.0, 1e-4, 1.999999999, 2.0, 60.0]])
    for x in xs:
        val, der = specfun.bessel_j(p, float(x))
        ref_val, ref_der = specfun.bessel_j(p, np.array([x]))
        assert type(val) is float and type(der) is float
        assert val == ref_val[0] and der == ref_der[0], (p, x)


# ----------------------------------------------------------------- roots --

def test_neumann_root_table_values():
    assert specfun.neumann_roots(1, 1)[1] == pytest.approx(1.84118, abs=5e-6)
    assert specfun.neumann_roots(2, 1)[1] == pytest.approx(3.0542, abs=5e-5)
    t0 = specfun.neumann_roots(0, 2)
    assert t0.roots[0] == 0.0
    assert t0.roots[1] == pytest.approx(3.831706, abs=5e-7)


def test_neumann_roots_match_scipy():
    for p in range(0, 7):
        table = specfun.neumann_roots(p, 6)
        ref = special.jnp_zeros(p, 6)
        got = np.array(table.roots[1:] if p == 0 else table.roots)
        assert np.allclose(got, ref[: got.size], atol=1e-10)


def test_neumann_roots_residual_and_order():
    for p in range(0, 7):
        table = specfun.neumann_roots(p, 6)
        roots = np.array(table.roots)
        assert np.all(np.diff(roots) > 0)
        for mu in roots:
            if mu > 0:
                assert abs(specfun.bessel_j(p, mu)[1]) <= 1e-10


def test_spherical_neumann_roots():
    # j_0' = -j_1: first zero at tan x = x
    assert specfun.spherical_neumann_roots(0, 1)[1] == pytest.approx(4.493409457909064, abs=1e-10)
    # classic hard-sphere values for l=1 and l=4
    assert specfun.spherical_neumann_roots(1, 1)[1] == pytest.approx(2.081575977818101, abs=1e-9)
    assert specfun.spherical_neumann_roots(4, 1)[1] == pytest.approx(5.646703620436612, abs=1e-9)
    for l in range(0, 7):
        for mu in specfun.spherical_neumann_roots(l, 4).roots:
            jl = specfun.spherical_jl(l + 1, np.array([mu]))
            jm1 = np.cos(mu) / mu if l == 0 else specfun.spherical_jl(l, np.array([mu]))[l - 1]
            assert abs(float((jm1 - (l + 1) / mu * jl[l])[0])) < 1e-10


def _scalar_scan_roots(f, count, x0=0.05, step=0.05, limit=60.0):
    """Scalar sign scan, one call of ``f`` per grid point, then bisection to
    1e-13: the reference that the array scan of ``specfun._bracketed_roots``
    must reproduce exactly."""
    roots = []
    lo = x0
    flo = f(lo)
    while len(roots) < count:
        hi = lo + step
        if hi > limit:
            limit += 30.0
            if limit > 1e4:
                break
        fhi = f(hi)
        if flo == 0.0:
            roots.append(lo)
        elif flo * fhi < 0:
            a, b, fa = lo, hi, flo
            while b - a > 1e-13:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
        lo, flo = hi, fhi
    return roots[:count]


def _scalar_djl(l):
    def djl(t):
        ta = np.atleast_1d(t)
        tab = specfun.spherical_jl(l + 1, ta)
        jm1 = np.cos(ta) / ta if l == 0 else specfun.spherical_jl(l, ta)[l - 1]
        return float((jm1 - (l + 1.0) / ta * tab[l])[0])
    return djl


def test_root_tables_equal_scalar_scan_oracle():
    # exact equality: the array scan only brackets, the bisection is scalar
    for p in range(9):
        ref = _scalar_scan_roots(lambda t: specfun.bessel_j(p, t)[1], 3 if p == 0 else 4)
        assert list(specfun.neumann_roots(p, 4).roots) == ([0.0] + ref if p == 0 else ref)
    for l in range(9):
        ref = _scalar_scan_roots(lambda t: specfun.bessel_j(l + 0.5, t)[1], 4, x0=0.2)
        assert list(specfun.half_integer_neumann_roots(l, 4).roots) == ref
    for l in range(7):
        ref = _scalar_scan_roots(_scalar_djl(l), 3, x0=0.2)
        assert list(specfun.spherical_neumann_roots(l, 3).roots) == ref


def _djl(l):
    """j_l' on an array (the scan) or, by the float kernel, a float (the
    bisection)."""
    def djl(t):
        if np.ndim(t) == 0:
            jl = specfun._spherical_jl_scalar(l + 1, t)[l]
            jm1 = math.cos(t) / t if l == 0 else specfun._spherical_jl_scalar(l, t)[l - 1]
            return jm1 - (l + 1.0) / t * jl
        tab = specfun.spherical_jl(l + 1, t)
        jm1 = np.cos(t) / t if l == 0 else specfun.spherical_jl(l, t)[l - 1]
        return jm1 - (l + 1.0) / t * tab[l]
    return djl


def _scalar_calls(f, tally):
    def counted(t):
        if np.ndim(t) == 0:
            tally.append(t)
        return f(t)
    return counted


def test_replayed_bisection_equals_the_plain_loop(monkeypatch):
    # the replay predicts the signs of midpoints away from the Illinois
    # estimate and evaluates the rest: bit for bit the plain bisection of
    # the same bracket, on every kind of table, order 0-11, 12 roots (and
    # the first 8 of them alone), with about half the scalar calls
    kernels = [(lambda p: (lambda t: specfun.bessel_j(p, t)[1]), 0.05),
               (lambda p: (lambda t: specfun.bessel_j(p + 0.5, t)[1]), 0.2),
               (_djl, 0.2)]
    replayed, plain = [], []
    for kernel, x0 in kernels:
        for p in range(12):
            roots = specfun._bracketed_roots(_scalar_calls(kernel(p), replayed), 12, x0=x0)
            with monkeypatch.context() as m:
                m.setattr(specfun, "_replayed_bisect",
                          lambda f, lo, hi, flo, fhi: specfun._bisect(f, lo, hi, flo))
                ref = specfun._bracketed_roots(_scalar_calls(kernel(p), plain), 12, x0=x0)
            assert len(roots) == 12 and roots == ref
            assert specfun._bracketed_roots(kernel(p), 8, x0=x0) == ref[:8]
    assert len(replayed) < 0.6 * len(plain)


def test_replayed_bisection_falls_back_on_a_wrong_estimate(monkeypatch):
    # an estimate off the root predicts wrong signs; the check of the final
    # bracket sees it, and the plain loop answers
    f = lambda t: specfun.bessel_j(1, t)[1]
    lo, hi = 1.80, 1.85
    ref = specfun._bisect(f, lo, hi, f(lo))
    assert specfun._replayed_bisect(f, lo, hi, f(lo), f(hi)) == ref
    monkeypatch.setattr(specfun, "_illinois", lambda *args: 1.83)
    assert abs(ref - 1.83) > 1e-3
    assert specfun._replayed_bisect(f, lo, hi, f(lo), f(hi)) == ref


# -------------------------------------------------------------- legendre --

def test_assoc_legendre_trivial():
    assert specfun.assoc_legendre(0, 0, 0.3) == 1.0
    xs = RNG.uniform(-1, 1, 7)
    assert np.allclose(specfun.assoc_legendre(1, 0, xs), xs)


def test_assoc_legendre_21_rodrigues_value():
    # Rodrigues: P_2^1 = -(1-x^2)^(1/2) d/dx[(3x^2-1)/2] -> -3x sqrt(1-x^2)
    assert specfun.assoc_legendre(2, 1, 0.5) == pytest.approx(-0.75 * math.sqrt(3.0), rel=1e-14)


def test_assoc_legendre_rodrigues_oracle_l_up_to_8():
    xsym = sp.Symbol("x")
    for _ in range(25):
        l = int(RNG.integers(0, 9))
        m = int(RNG.integers(-l, l + 1))
        xv = float(RNG.uniform(-0.99, 0.99))
        expr = sp.assoc_legendre(l, m, xsym)
        ref = float(expr.subs(xsym, sp.Rational(xv).limit_denominator(10**12)))
        got = specfun.assoc_legendre(l, m, xv)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_assoc_legendre_domain_error():
    with pytest.raises(ValueError):
        specfun.assoc_legendre(2, 3, 0.1)


# ------------------------------------------------------------- harmonics --

def _sphere_quadrature(n_theta=80, n_phi=160):
    # Gauss-Legendre in cos(theta) x trapezoid in phi
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    wphi = 2 * np.pi / n_phi
    return theta, weights, phi, wphi


def test_spherical_harmonic_closed_forms():
    th, ph = 0.713, 2.1
    assert specfun.spherical_harmonic(0, 0, th, ph) == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert specfun.spherical_harmonic(1, 0, th, ph) == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(th))


def test_spherical_harmonic_orthonormality_quadrature():
    theta, wt, phi, wphi = _sphere_quadrature()
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    pairs = [(0, 0), (1, 0), (1, 1), (2, 1), (2, -2), (3, 2), (4, -1), (4, 4)]
    ys = {lm: specfun.spherical_harmonic(lm[0], lm[1], TH, PH) for lm in pairs}
    for i, a in enumerate(pairs):
        for b in pairs[i:]:
            integrand = np.conj(ys[a]) * ys[b]
            val = wphi * np.sum(wt @ integrand)
            expect = 1.0 if a == b else 0.0
            assert abs(val - expect) < 1e-8


def test_spherical_harmonic_addition_theorem():
    th, ph = RNG.uniform(0.1, 3.0), RNG.uniform(0, 2 * np.pi)
    for l in range(0, 5):
        s = sum(abs(specfun.spherical_harmonic(l, m, th, ph)) ** 2 for m in range(-l, l + 1))
        assert s == pytest.approx((2 * l + 1) / (4 * math.pi), abs=1e-10)


# ---------------------------------------------------------------- wigner --

def test_wigner_identity_at_zero():
    for l in range(0, 5):
        assert np.allclose(specfun.wigner_d_matrix(l, 0.0), np.eye(2 * l + 1), atol=1e-14)


def test_wigner_d1_00_closed_form():
    # expanding the l=1 sum gives cos^2(b/2) - sin^2(b/2) = cos(b)
    betas = RNG.uniform(-np.pi, np.pi, 9)
    assert np.allclose(specfun.wigner_small_d(1, 0, 0, betas), np.cos(betas), atol=1e-14)


def test_wigner_orthogonality_grid():
    betas = np.linspace(-np.pi, np.pi, 32)
    for l in range(0, 7):
        for b in betas:
            D = specfun.wigner_d_matrix(l, b)
            assert np.max(np.abs(D @ D.T - np.eye(2 * l + 1))) < 1e-10


def test_wigner_inverse_rotation():
    for l in (1, 3, 6):
        b = float(RNG.uniform(0, np.pi))
        D = specfun.wigner_d_matrix(l, b) @ specfun.wigner_d_matrix(l, -b)
        assert np.max(np.abs(D - np.eye(2 * l + 1))) < 1e-10


def test_wigner_beta_pi_structure():
    # d^l_{mk}(pi) = (-1)^(l-k) delta_{m,-k}
    for l in (1, 2, 4):
        D = specfun.wigner_d_matrix(l, np.pi)
        for i, m in enumerate(range(-l, l + 1)):
            for j, k in enumerate(range(-l, l + 1)):
                expect = (-1.0) ** (l - k) if m == -k else 0.0
                assert D[i, j] == pytest.approx(expect, abs=1e-12)


def test_wigner_sympy_oracle():
    from sympy.physics.quantum.spin import Rotation

    for l, m, k in [(2, 1, -1), (3, 2, 0), (4, -3, 1)]:
        b = 0.77
        ref = float(sp.N(Rotation.d(l, m, k, b).doit()))
        assert specfun.wigner_small_d(l, m, k, b) == pytest.approx(ref, abs=1e-12)


def _wigner_small_d_per_call(l, m, k, beta):
    """d^l_mk(beta) as written before the terms were cached: the prefactor
    and every binomial recomputed, the sum on numpy floats."""
    beta = np.asarray(beta, dtype=float)
    c = np.cos(0.5 * beta)
    s = np.sin(0.5 * beta)
    pref = math.sqrt(math.factorial(l - m) * math.factorial(l + m)
                     / (math.factorial(l - k) * math.factorial(l + k)))
    total = np.zeros_like(beta)
    for sterm in range(max(0, k - m), min(l + k, l - m) + 1):
        coef = ((-1.0) ** (m - k + sterm)
                * math.comb(l + k, sterm) * math.comb(l - k, m - k + sterm))
        total = total + coef * c ** (2 * l - m + k - 2 * sterm) * s ** (m - k + 2 * sterm)
    out = pref * total
    return float(out) if out.ndim == 0 else out


WIGNER_BETAS = [0.0, math.pi / 2, math.pi, -0.7, 1e-9, 0.3, 1.1, 2.0, 2.9, -2.3,
                0.55 * math.pi, 0.85 * math.pi, 2 * math.pi]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("l", range(9))
def test_wigner_bit_equal_to_per_call_sum(l):
    idx = range(-l, l + 1)
    for b in WIGNER_BETAS:
        old = np.array([[_wigner_small_d_per_call(l, m, k, b) for k in idx] for m in idx])
        new = np.array([[specfun.wigner_small_d(l, m, k, b) for k in idx] for m in idx])
        assert isinstance(new.flat[0].item(), float)
        assert _same_bits(new, old)
        assert _same_bits(specfun.wigner_d_matrix(l, b), old)
    betas = np.array(WIGNER_BETAS)
    for m in idx:
        for k in idx:
            assert _same_bits(specfun.wigner_small_d(l, m, k, betas),
                              _wigner_small_d_per_call(l, m, k, betas))
