"""Special-function kernel shared by all resonator models.

Provides cylindrical Bessel functions J_p (integer and half-integer order)
with derivatives, the Neumann root tables mu_pq solving J'_p(mu) = 0 that
define hard-wall waveguide cutoffs, spherical Bessel functions and their
Neumann roots, associated Legendre polynomials, spherical harmonics, and
Wigner small-d rotation matrices.

Evaluation strategy: ascending series for small argument, Miller backward
recurrence with normalization otherwise; half-integer orders go through the
spherical-Bessel closed forms.  All functions are pure and accept scalars or
numpy arrays in the argument; root tables are computed once and reused.

A scalar argument runs the same recurrences on Python floats (the
``_*_scalar`` kernels): the operations and their order are those of the
array path, so both give the same bits, at a fraction of the cost of a
one-element array.  Root bisection evaluates one point per step and takes
this path; scans and quadratures pass arrays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SERIES_CUTOFF = 2.0
_ROOT_GRID_STEP = 0.05
_ROOT_BISECT_TOL = 1e-13
# root tables: the scan evaluates windows of this width on the grid; the
# bisection evaluates f only at midpoints within this fraction of
# max(1, |r|) of the Illinois estimate r, which stops at this relative step
# within this many calls
_ROOT_SCAN_WINDOW = 15.0
_ROOT_REPLAY_MARGIN = 1e-10
_ROOT_ESTIMATE_TOL = 1e-13
_ROOT_ESTIMATE_ITER = 30


def _validate_order(p) -> tuple[int, bool]:
    """Return (2p, is_half_integer); reject anything but p = n or n + 1/2, p >= 0."""
    twop = 2.0 * p
    if not np.isfinite(twop) or twop < 0 or abs(twop - round(twop)) > 1e-12:
        raise ValueError(f"order must be a nonnegative integer or half-integer, got {p}")
    twop = int(round(twop))
    return twop, twop % 2 == 1


def _jn_series(n: int, x: np.ndarray) -> np.ndarray:
    """Ascending series for integer-order J_n, reliable for |x| < ~9."""
    half = 0.5 * x
    term = np.ones_like(x)
    for k in range(1, n + 1):
        term = term * half / k
    total = term.copy()
    msq = -(half * half)
    for m in range(1, 60):
        term = term * msq / (m * (m + n))
        total += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def _jn_miller(nmax: int, x: np.ndarray) -> np.ndarray:
    """All orders J_0..J_nmax by backward recurrence, normalized via
    J_0 + 2*sum J_2m = 1.  Requires x > 0."""
    xmax = float(np.max(x))
    start = int(xmax + nmax + 25 + 12.0 * math.sqrt(max(xmax, nmax, 1.0)))
    jp1 = np.zeros_like(x)
    j = np.full_like(x, 1e-300)
    out = np.zeros((nmax + 1, x.size))
    norm = np.zeros_like(x)
    for n in range(start, 0, -1):
        jm1 = (2.0 * n / x) * j - jp1
        jp1, j = j, jm1
        # rescale to avoid overflow on long recurrences
        big = np.abs(j) > 1e280
        if np.any(big):
            j[big] *= 1e-280
            jp1[big] *= 1e-280
            out[:, big] *= 1e-280
            norm[big] *= 1e-280
        n -= 1  # j now holds J~_n
        if n <= nmax:
            out[n] = j
        if n > 0 and n % 2 == 0:
            norm += 2.0 * j
    norm += j  # J~_0
    return out / norm


def _jn_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_nmax at every x (array), mixing series and Miller regions."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    small = x < _SERIES_CUTOFF
    if np.any(small):
        xs = x[small]
        for n in range(nmax + 1):
            out[n, small] = _jn_series(n, xs)
    if np.any(~small):
        out[:, ~small] = _jn_miller(nmax, x[~small])
    return out


def _jn_series_scalar(n: int, x: float) -> float:
    """``_jn_series`` at one point, on Python floats."""
    half = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term = term * half / k
    total = term
    msq = -(half * half)
    for m in range(1, 60):
        term = term * msq / (m * (m + n))
        total += term
        if abs(term) <= 1e-18 * (abs(total) + 1e-300):
            break
    return total


def _jn_miller_scalar(nmax: int, x: float) -> list[float]:
    """``_jn_miller`` at one point x > 0, on Python floats."""
    start = int(x + nmax + 25 + 12.0 * math.sqrt(max(x, nmax, 1.0)))
    jp1, j, norm = 0.0, 1e-300, 0.0
    out = [0.0] * (nmax + 1)
    for n in range(start, 0, -1):
        jp1, j = j, (2.0 * n / x) * j - jp1
        if abs(j) > 1e280:
            j *= 1e-280
            jp1 *= 1e-280
            out = [v * 1e-280 for v in out]
            norm *= 1e-280
        n -= 1
        if n <= nmax:
            out[n] = j
        if n > 0 and n % 2 == 0:
            norm += 2.0 * j
    norm += j
    return [v / norm for v in out]


def spherical_jl(lmax: int, x) -> np.ndarray:
    """Spherical Bessel functions j_0..j_lmax, shape (lmax+1, len(x)).

    Downward recurrence normalized by j_0 = sin(x)/x; power-series limit
    below x = 1e-4 where the recurrence loses accuracy.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((lmax + 2, x.size))
    tiny = x < 1e-4
    xs = np.where(tiny, 1.0, x)

    start = lmax + 1 + int(20 + np.max(xs))
    jp1 = np.zeros_like(xs)
    j = np.full_like(xs, 1e-300)
    tab = np.zeros((lmax + 2, xs.size))
    for n in range(start, 0, -1):
        jm1 = ((2.0 * n + 1.0) / xs) * j - jp1
        jp1, j = j, jm1
        big = np.abs(j) > 1e280
        if np.any(big):
            j[big] *= 1e-280
            jp1[big] *= 1e-280
            tab[:, big] *= 1e-280
        if n - 1 <= lmax + 1:
            tab[n - 1] = j
    j0 = np.sin(xs) / xs
    scale = j0 / tab[0]
    out[:, :] = tab * scale

    if np.any(tiny):
        xt = x[tiny]
        for l in range(lmax + 2):
            dfact = math.prod(range(2 * l + 1, 0, -2)) or 1
            out[l, tiny] = xt**l / dfact * (1.0 - xt**2 / (2.0 * (2 * l + 3)))
    return out[: lmax + 1]


def _spherical_jl_scalar(lmax: int, x: float) -> list[float]:
    """``spherical_jl`` at one point x > 0, on Python floats (below 1e-4 it
    hands the point to the array path).  sin stays a numpy call, so the
    bits do not depend on libm agreeing with numpy's loop."""
    if x < 1e-4:
        return spherical_jl(lmax, np.array([x]))[:, 0].tolist()
    start = lmax + 1 + int(20 + x)
    jp1, j = 0.0, 1e-300
    tab = [0.0] * (lmax + 2)
    for n in range(start, 0, -1):
        jp1, j = j, ((2.0 * n + 1.0) / x) * j - jp1
        if abs(j) > 1e280:
            j *= 1e-280
            jp1 *= 1e-280
            tab = [v * 1e-280 for v in tab]
        if n - 1 <= lmax + 1:
            tab[n - 1] = j
    scale = float(np.sin(x)) / x / tab[0]
    return [v * scale for v in tab[: lmax + 1]]


def _bessel_j_scalar(twop: int, half_order: bool, x: float) -> tuple[float, float]:
    """``bessel_j`` at one point x >= 0, on Python floats."""
    if not half_order:
        n = twop // 2
        if x < _SERIES_CUTOFF:
            tab = {k: _jn_series_scalar(k, x) for k in range(max(n - 1, 0), n + 2)}
        else:
            tab = _jn_miller_scalar(n + 1, x)
        if n == 0:
            return tab[0], -tab[1]
        return tab[n], 0.5 * (tab[n - 1] - tab[n + 1])
    l = (twop - 1) // 2
    if x == 0.0:
        return 0.0, math.inf if l == 0 else 0.0
    jl = _spherical_jl_scalar(l + 1, x)[l]
    jlm1 = _spherical_jl_scalar(l - 1, x)[l - 1] if l >= 1 else float(np.cos(x)) / x
    jlp = jlm1 - (l + 1.0) / x * jl
    return (math.sqrt(2.0 * x / math.pi) * jl,
            math.sqrt(2.0 / (math.pi * x)) * (0.5 * jl + x * jlp))


def bessel_j(p, x) -> tuple[np.ndarray, np.ndarray]:
    """J_p(x) and J'_p(x) for integer or half-integer order p >= 0.

    Returns a pair (value, derivative); scalar in, scalar out (a scalar
    runs the float kernel, bit-identical to the array path).
    Raises ValueError on non-finite or negative argument.
    """
    if np.isscalar(x):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("argument must be finite")
        if x < 0:
            raise ValueError("argument must be nonnegative")
        return _bessel_j_scalar(*_validate_order(p), x)
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(x < 0):
        raise ValueError("argument must be nonnegative")
    twop, half_order = _validate_order(p)

    if not half_order:
        n = twop // 2
        tab = _jn_table(n + 1, x)
        val = tab[n]
        if n == 0:
            der = -tab[1]
        else:
            der = 0.5 * (tab[n - 1] - tab[n + 1])
    else:
        l = (twop - 1) // 2
        pos = x > 0
        xp = np.where(pos, x, 1.0)
        jl = spherical_jl(l + 1, xp)
        # J_{l+1/2} = sqrt(2x/pi) j_l;  j_l' = j_{l-1} - (l+1)/x j_l
        jlm1 = spherical_jl(max(l - 1, 0), xp)[max(l - 1, 0)] if l >= 1 else np.cos(xp) / xp
        jlp = jlm1 - (l + 1.0) / xp * jl[l]
        val = np.sqrt(2.0 * xp / np.pi) * jl[l]
        der = np.sqrt(2.0 / (np.pi * xp)) * (0.5 * jl[l] + xp * jlp)
        val = np.where(pos, val, 0.0)
        der = np.where(pos, der, np.inf if l == 0 else 0.0)
    return val.reshape(shape), der.reshape(shape)


@dataclass(frozen=True)
class NeumannRootTable:
    """Ordered roots mu_pq of J'_p(mu) = 0 for one azimuthal order.

    For p = 0 the leading entry is mu_01 = 0, the plane-wave channel of a
    hard-wall duct.
    """

    order: int
    roots: tuple[float, ...]

    def __post_init__(self):
        r = np.asarray(self.roots)
        if r.size > 1 and np.any(np.diff(r) <= 0):
            raise ValueError("roots must be strictly increasing")

    def __getitem__(self, q: int) -> float:
        """Root mu_pq, 1-indexed in q."""
        return self.roots[q - 1]


def _bisect(f, lo: float, hi: float, flo: float) -> float:
    """The bisection of ``f`` on [lo, hi] to ``_ROOT_BISECT_TOL``, from the
    sign ``flo`` of f(lo): one scalar call per midpoint."""
    a, b, fa = lo, hi, flo
    while b - a > _ROOT_BISECT_TOL:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _illinois(f, a: float, b: float, fa: float, fb: float) -> float:
    """An estimate of the root of ``f`` in the sign-change bracket [a, b]
    by Illinois false-position steps (the retained end's value is halved
    when it is kept twice), until a step moves it by at most
    ``_ROOT_ESTIMATE_TOL`` max(1, |x|)."""
    side, x = 0, math.inf
    for _ in range(_ROOT_ESTIMATE_ITER):
        x_prev, x = x, (a * fb - b * fa) / (fb - fa)
        if abs(x - x_prev) <= _ROOT_ESTIMATE_TOL * max(1.0, abs(x)):
            break
        fx = f(x)
        if fx == 0.0:
            break
        if (fx < 0) == (fb < 0):
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
    return x


def _replayed_bisect(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """``_bisect(f, lo, hi, flo)``, bit for bit, with f evaluated near the
    root only.  The midpoints and the final bracket depend only on the
    signs of f at earlier midpoints.  Every midpoint farther than
    ``_ROOT_REPLAY_MARGIN`` max(1, |r|) from the Illinois estimate r takes
    the sign of its side of r; the others are evaluated, and decided as the
    loop decides them (by the sign of flo f(mid), which is the loop's
    fa f(mid) while no product of two f values underflows).  The signs of
    f at the final ends a and b are then
    checked (f(a) of the sign of flo unless a = lo, f(b) not unless
    b = hi), and any disagreement, which a wrong prediction leaves, sends
    the root to the plain loop."""
    r = _illinois(f, lo, hi, flo, fhi)
    margin = _ROOT_REPLAY_MARGIN * max(1.0, abs(r))
    seen = {}
    a, b = lo, hi
    while b - a > _ROOT_BISECT_TOL:
        mid = 0.5 * (a + b)
        if abs(mid - r) > margin:
            left = r < mid
        else:
            seen[mid] = f(mid)
            left = flo * seen[mid] <= 0
        if left:
            b = mid
        else:
            a = mid
    fa = seen[a] if a in seen else (flo if a == lo else f(a))
    fb = seen[b] if b in seen else (-flo if b == hi else f(b))
    if flo * fa > 0 and flo * fb <= 0:
        return 0.5 * (a + b)
    return _bisect(f, lo, hi, flo)


def _bracketed_roots(f, count: int, x0: float = _ROOT_GRID_STEP,
                     step: float = _ROOT_GRID_STEP, known: tuple = ()):
    """Sign-change bracketing on a uniform grid + bisection to 1e-13.

    ``f`` takes an array for the scan and a float for the bisection.  The
    grid is the running sum x0, x0 + step, ...; each scan window up to
    a limit is evaluated in one call, and the limit starts at
    ``_ROOT_SCAN_WINDOW`` and grows by it until ``count`` roots are
    bracketed (at most up to 1e4).  Only the signs of the scan values are
    used, so the roots do not depend on how ``f`` rounds an array against
    a scalar, nor on ``count``: the first roots of an earlier call with
    the same ``f`` and grid, passed as ``known``, are reused instead of
    bisected again.  Each bisection is replayed (``_replayed_bisect``)."""
    roots = []
    grid = [x0]
    vals = np.empty(0)
    limit = _ROOT_SCAN_WINDOW
    while limit <= 1e4:
        while grid[-1] + step <= limit:
            grid.append(grid[-1] + step)
        first = vals.size
        vals = np.concatenate([vals, f(np.array(grid[first:]))])
        for i in range(max(first - 1, 0), len(grid) - 1):
            lo, hi, flo = grid[i], grid[i + 1], vals[i]
            if flo == 0.0:
                roots.append(lo)
            elif flo * vals[i + 1] < 0 and len(roots) < len(known):
                roots.append(known[len(roots)])
            elif flo * vals[i + 1] < 0:
                roots.append(_replayed_bisect(f, lo, hi, flo, vals[i + 1]))
            if len(roots) == count:
                return roots
        limit += _ROOT_SCAN_WINDOW
    return roots


# order -> the longest Neumann root table built so far; the lock keeps
# concurrent sweep threads from extending one table twice
_NEUMANN_TABLES: dict[int, NeumannRootTable] = {}
_NEUMANN_LOCK = threading.Lock()


def neumann_roots(p: int, count: int) -> NeumannRootTable:
    """First `count` roots of J'_p, the cutoff table of a circular duct.

    Each order keeps one table: a shorter request is a slice of it, and a
    longer one extends it, bisecting only the roots it lacks."""
    if count < 1:
        raise ValueError("count must be >= 1")
    with _NEUMANN_LOCK:
        table = _NEUMANN_TABLES.get(p)
        if table is None or len(table.roots) < count:
            lead = (0.0,) if p == 0 else ()
            known = table.roots[len(lead):] if table is not None else ()
            want = count - len(lead)
            roots = ()
            if want > 0:
                roots = tuple(_bracketed_roots(lambda t: bessel_j(p, t)[1], want,
                                               known=known))
            table = NeumannRootTable(order=p, roots=lead + roots)
            _NEUMANN_TABLES[p] = table
    if len(table.roots) == count:
        return table
    return NeumannRootTable(order=p, roots=table.roots[:count])


@lru_cache(maxsize=None)
def half_integer_neumann_roots(l: int, count: int) -> NeumannRootTable:
    """First `count` positive roots of J'_{l+1/2}(x) = 0."""
    if count < 1:
        raise ValueError("count must be >= 1")
    roots = _bracketed_roots(lambda t: bessel_j(l + 0.5, t)[1], count, x0=0.2)
    return NeumannRootTable(order=l, roots=tuple(roots))


@lru_cache(maxsize=None)
def spherical_neumann_roots(l: int, count: int) -> NeumannRootTable:
    """First `count` positive roots of j_l'(x) = 0 (hard-wall sphere)."""
    if count < 1:
        raise ValueError("count must be >= 1")

    def djl(t):
        if np.ndim(t) == 0:
            t = float(t)
            jl = _spherical_jl_scalar(l + 1, t)[l]
            jm1 = float(np.cos(t)) / t if l == 0 else _spherical_jl_scalar(l, t)[l - 1]
            return jm1 - (l + 1.0) / t * jl
        ta = np.atleast_1d(t)
        tab = spherical_jl(l + 1, ta)
        jm1 = np.cos(ta) / ta if l == 0 else spherical_jl(l, ta)[l - 1]
        return jm1 - (l + 1.0) / ta * tab[l]

    roots = _bracketed_roots(djl, count, x0=0.2)
    return NeumannRootTable(order=l, roots=tuple(roots))


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre P_l^m(x) with the Condon-Shortley phase.

    Accepts scalar or array x in [-1, 1]; |m| <= l required.
    """
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)

    ma = abs(m)
    # P_ma^ma = (-1)^ma (2ma-1)!! (1-x^2)^(ma/2), then raise l
    pmm = np.ones_like(x)
    if ma > 0:
        somx2 = np.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(ma):
            pmm *= -fact * somx2
            fact += 2.0
    if l == ma:
        plm = pmm
    else:
        pm1 = x * (2.0 * ma + 1.0) * pmm
        if l == ma + 1:
            plm = pm1
        else:
            for ll in range(ma + 2, l + 1):
                plm = (x * (2.0 * ll - 1.0) * pm1 - (ll + ma - 1.0) * pmm) / (ll - ma)
                pmm, pm1 = pm1, plm
            plm = pm1 if l == ma + 1 else plm
    if m < 0:
        plm = plm * ((-1.0) ** ma * math.factorial(l - ma) / math.factorial(l + ma))
    return float(plm[0]) if scalar else plm


def spherical_harmonic(l: int, m: int, theta, phi):
    """Y_lm(theta, phi), orthonormal on the unit sphere."""
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - m) / math.factorial(l + m))
    val = norm * assoc_legendre(l, m, np.cos(theta)) * np.exp(1j * m * phi)
    return complex(val) if val.ndim == 0 else val


@lru_cache(maxsize=None)
def _wigner_terms(l: int, m: int, k: int) -> tuple:
    """The prefactor of d^l_{mk} and its (sign * binomials, cos power, sin
    power) terms, in summation order."""
    pref = math.sqrt(math.factorial(l - m) * math.factorial(l + m)
                     / (math.factorial(l - k) * math.factorial(l + k)))
    return pref, tuple(((-1.0) ** (m - k + t) * math.comb(l + k, t)
                        * math.comb(l - k, m - k + t), 2 * l - m + k - 2 * t, m - k + 2 * t)
                       for t in range(max(0, k - m), min(l + k, l - m) + 1))


def _wigner_sum(l: int, m: int, k: int, c, s):
    """d^l_{mk} from c = cos(beta/2) and s = sin(beta/2), the terms summed in
    order: on Python floats for one angle, elementwise for arrays."""
    pref, terms = _wigner_terms(l, m, k)
    total = 0.0
    for coef, a, b in terms:
        total = total + coef * c ** a * s ** b
    return pref * total


def _half_angle(beta) -> tuple:
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
    return (float(c), float(s)) if beta.ndim == 0 else (c, s)


def wigner_small_d(l: int, m: int, k: int, beta) -> float | np.ndarray:
    """Small Wigner rotation matrix element d^l_{mk}(beta).

    Real; the (2l+1) x (2l+1) matrix over (m, k) is orthogonal and reduces
    to the identity at beta = 0.
    """
    if abs(m) > l or abs(k) > l:
        raise ValueError(f"need |m|,|k| <= l, got l={l}, m={m}, k={k}")
    return _wigner_sum(l, m, k, *_half_angle(beta))


def wigner_d_matrix(l: int, beta: float) -> np.ndarray:
    """Full d^l(beta) matrix, rows/columns ordered m, k = -l..l: the
    entries of ``wigner_small_d``, bit for bit, from one cos and sin."""
    c, s = _half_angle(beta)
    idx = range(-l, l + 1)
    return np.array([[_wigner_sum(l, m, k, c, s) for k in idx] for m in idx])
