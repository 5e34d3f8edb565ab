"""Model-agnostic effective non-Hermitian Hamiltonian engine.

A model is an ``AssemblyFrame``, a callable ``omega_sq ->
EffectiveHamiltonian`` that holds everything in H_eff that does not depend
on the energy, built once per geometry, with the rules that scale W and V
per energy (``AssemblyFrame.divisor`` and ``height``); a Sinai bump height
or a cylinder length is a scaled copy of one frame (``scaled``).  The engine
assembles

    H_eff(w2) = diag(E_n) + V_static - i * sum_c k_c(w2) W_c W_c^dag,

where the channel wavenumber k_c is real for open channels and i|k_c| for
evanescent ones, so closed channels contribute the Hermitian shift
+|k_c| W_c W_c^dag.  On top of that it provides the flux-normalized
scattering matrix, fixed-point resonance solving for frequency-dependent
couplings, eigenvalue tracking along parameter sweeps with
eigenvector-overlap branch continuation, and zero-width (BIC) detection
with null-vector extraction.

A model whose H_eff is block-diagonal in a symmetry-adapted basis declares
that basis as ``SymmetryBlock``s; a model that declares none has one block,
the whole mode space.  ``assemble`` builds each block on its own and checks
the declaration; every engine path (S-matrix, eigensolves, BIC root) works one
block at a time, and the full mode-basis matrix is formed only when read.

Everything here is pure: assembly and eigensolves build fresh arrays from
immutable inputs, so parameter grid points can be evaluated concurrently.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla

DEFAULT_WIDTH_TOL = 1e-8
DEFAULT_NULL_TOL = 1e-7
_OVERLAP_CONTINUE = 0.5
# |S^dag S - 1| above which smatrix rebuilds S in the unitary K-matrix form
_UNITARITY_TOL = 1e-12
_TIE_BREAK = 1e-3
_DENSE_EIG_LIMIT = 250
# an eigenpair from RQI or inverse iteration is accepted at this residual,
# relative to max(1, max|h_ii|): a few hundred rounding units, where RQI
# has converged (one step more gives 1e-17).  At 1e-11, one RQI step short
# of that, eigenvalues were off by up to 5e-11 relative
_EIGPAIR_TOL = 1e-13
# off-block entries of declared symmetry blocks above this fraction of the
# largest on-block entry mean a wrong declaration (measured exact blocks:
# off-block bound and pair gap <= 1.5e-16 of it at the default geometries;
# see AssemblyFrame.parts)
_BLOCK_TOL = 1e-12
# the BIC root: fixed points E = mu(E) stop at this relative residual, Brent
# at this relative bracket (the signed amplitude is rounding noise below it),
# and the amplitude counts as real up to this fraction of its bracket ends
_ROOT_FP_TOL = 1e-14
_ROOT_FP_ITER = 50
_ROOT_XTOL = 1e-13
_ROOT_IMAG_TOL = 1e-8
# the fixed point E = Re z(E) of ``solve_resonance``: at most this many
# eigensolves, damped steps of this factor, stop at this relative residual
_FP_MAX_ITER = 200
_FP_DAMPING = 0.7
_FP_TOL = 1e-10
# the golden-section fallback of ``find_bics`` stops at this bracket width
_PARAM_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# brentq's relative tolerance (scipy's default and smallest)
_BRENT_RTOL = 4 * _EPS
# the channel-space cold start (``_secular_eigvals``): a root has converged
# when its Aberth step is below this fraction of the block's scale
# max(1, max|h_ii|) (converged roots step by 1e-18 to 1e-16 of it), within
# this many steps (the cavity blocks take 4 to 16); sum z and sum z^2 are
# accepted within this times n of the scale and its square (measured: at
# most 1.6e-14 at n = 100, against 2e-13 here)
_SECULAR_STEP = 4 * _EPS
_SECULAR_ITER = 40
_SECULAR_TRACE = 8 * _EPS
# the cold pick is solved again by eigvals where the two real parts nearest
# the seed differ by less than this fraction of the scale (the channel-space
# eigenvalues are within 1.1e-14 of eigvals')
_PICK_GAP = 1e-12
# blocks of fewer modes take their eigenpairs from the dense eig.  The
# floor keeps the toy models' 2- and 5-mode blocks on the dense eig's bits,
# which their pick and whole-space tests need (the channel-space roots of
# the two-level pair, real parts -2.9e-33 and 0, flip the nearest-real-part
# pick); every cavity block (49-100 modes) lies above it.  On one thread
# the dense eig costs no more than the channel space up to 32 modes (0.56
# against 0.60 ms there, 19 us against 0.2 ms at 5)
_PAIRS_MIN = 40
# ``smatrix_row`` trusts a point whose rounding bound is at most this, and
# none within this fraction of the scale of a basis energy
_ROW_TOL = 1e-13
_ROW_NEAR = 1e-12
# the LAPACK solves behind scipy's lu_solve and solve_triangular on complex
# factors, called directly: the same results without the wrappers' checks
# (an info code, not an exception, reports a singular triangle)
_getrs, _trtrs = sla.get_lapack_funcs(("getrs", "trtrs"), (np.zeros(1, dtype=complex),))


class StructuralError(ValueError):
    """Inconsistent dimensions between basis, channels and couplings."""


class SingularScattering(RuntimeError):
    """E - H_eff is numerically singular: candidate BIC at this energy."""

    def __init__(self, energy: float, rcond: float):
        super().__init__(f"E - H_eff numerically singular at E={energy} (rcond~{rcond:.2e}); "
                         "candidate BIC")
        self.energy = energy
        self.rcond = rcond


@dataclass(frozen=True)
class Channel:
    """One scattering channel: a port, mode labels and a cutoff.

    ``wavenumber`` implements k = sqrt(w2 - cutoff_sq) above cutoff and
    k = i sqrt(cutoff_sq - w2) below.  ``fixed_k`` freezes the wavenumber
    (energy-independent coupling models).
    """

    port: str
    label: tuple
    cutoff_sq: float
    fixed_k: float | None = None

    def wavenumber(self, omega_sq: float) -> complex:
        if self.fixed_k is not None:
            return complex(self.fixed_k)
        diff = omega_sq - self.cutoff_sq
        if diff >= 0.0:
            return complex(np.sqrt(diff))
        return 1j * np.sqrt(-diff)

    def is_open(self, omega_sq: float) -> bool:
        if self.fixed_k is not None:
            return True
        return omega_sq >= self.cutoff_sq


class ChannelSet:
    """Channels sorted by (port, cutoff); iteration order is matrix order."""

    def __init__(self, channels: Sequence[Channel]):
        self.channels = tuple(sorted(channels, key=lambda c: (str(c.port), c.cutoff_sq,
                                                              str(c.label))))

    def __len__(self):
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def __getitem__(self, i):
        return self.channels[i]

    def wavenumbers(self, omega_sq: float) -> np.ndarray:
        return np.array([c.wavenumber(omega_sq) for c in self.channels])

    def open_indices(self, omega_sq: float) -> np.ndarray:
        return np.array([i for i, c in enumerate(self.channels) if c.is_open(omega_sq)],
                        dtype=int)


@dataclass(frozen=True)
class ClosedBasis:
    """Truncated eigenbasis of the closed cavity (E = omega^2 convention);
    the energies are a read-only copy, as the cavities share their bases."""

    labels: tuple
    energies: np.ndarray

    def __post_init__(self):
        e = read_only(np.array(self.energies, dtype=float))
        object.__setattr__(self, "energies", e)
        if len(self.labels) != e.size:
            raise StructuralError("labels and energies differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise StructuralError("basis labels must be unique")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class CouplingMatrix:
    """Complex coupling block: rows = basis modes, columns = channels."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2:
            raise StructuralError("coupling must be a 2-d matrix")
        if not np.all(np.isfinite(m)):
            raise StructuralError("coupling entries must be finite")


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it.  Arrays that a process-wide
    cache shares between models (couplings, bases) are frozen so that a
    caller writing into one fails instead of corrupting later models."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class SymmetryBlock:
    """Orthonormal basis of one symmetry class of H_eff, held as index arrays.

    Basis vector k is e_first[k] where phase[k] == 0, and otherwise
    (e_first[k] + phase[k] e_second[k]) / sqrt(2) for two degenerate modes
    (|phase| = 1).  ``size`` is the dimension of the mode space.  Memory is
    O(block size): no dense isometry is formed.
    """

    first: np.ndarray
    second: np.ndarray
    phase: np.ndarray
    size: int
    _a: np.ndarray = field(init=False, repr=False)
    _b: np.ndarray = field(init=False, repr=False)
    _paired: bool = field(init=False, repr=False)

    def __post_init__(self):
        phase = read_only(np.asarray(self.phase, dtype=complex))
        scale = np.where(phase == 0, 1.0, np.sqrt(0.5))
        object.__setattr__(self, "first", read_only(np.asarray(self.first, dtype=int)))
        object.__setattr__(self, "second", read_only(np.asarray(self.second, dtype=int)))
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "_a", read_only(scale))
        object.__setattr__(self, "_b", read_only(scale * phase))
        object.__setattr__(self, "_paired", bool(np.any(phase)))

    @classmethod
    def of(cls, size: int, vectors) -> "SymmetryBlock":
        """A block from (i, j, phase) triples; (i, i, 0) is e_i alone."""
        first, second, phase = zip(*vectors)
        return cls(np.array(first), np.array(second), np.array(phase), size)

    def __len__(self):
        return self.first.size

    def project(self, v: np.ndarray) -> np.ndarray:
        """Coordinates U_b^dag v of mode-basis vectors (rows of ``v``)."""
        if not self._paired:
            return v[self.first]
        shape = (-1,) + (1,) * (v.ndim - 1)
        return self._a.reshape(shape) * v[self.first] \
            + self._b.conj().reshape(shape) * v[self.second]

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Mode-basis vectors U_b y of block coordinates (rows of ``y``)."""
        out = np.zeros((self.size,) + y.shape[1:], dtype=complex)
        if not self._paired:
            out[self.first] = y
            return out
        shape = (-1,) + (1,) * (y.ndim - 1)
        out[self.first] = self._a.reshape(shape) * y
        out[self.second] += self._b.reshape(shape) * y
        return out

    def energies(self, e: np.ndarray) -> tuple[np.ndarray, float]:
        """The diagonal of U_b^dag diag(e) U_b, and the largest entry of
        diag(e) U_b that it leaves out (nonzero only where a pair joins
        modes of different energy)."""
        if not self._paired:
            return e[self.first], 0.0
        wa, wb = np.abs(self._a), np.abs(self._b)
        lam = wa * wa * e[self.first] + wb * wb * e[self.second]
        left = np.maximum(wa * np.abs(e[self.first] - lam), wb * np.abs(e[self.second] - lam))
        return lam, float(left.max(initial=0.0))


@lru_cache(maxsize=64)
def _whole_space(n: int) -> SymmetryBlock:
    """The one block of a model that declares none: every mode, unpaired."""
    index = np.arange(n)
    return SymmetryBlock(index, index, np.zeros(n), n)


def _sandwich(blocks: Sequence[SymmetryBlock], v: np.ndarray) -> np.ndarray:
    """U^dag V U of a mode-basis matrix V, the blocks one after another: one
    gather, or four when a block pairs modes."""
    f = np.concatenate([blk.first for blk in blocks])
    if not any(blk._paired for blk in blocks):
        return v[np.ix_(f, f)]
    s = np.concatenate([blk.second for blk in blocks])
    a = np.concatenate([blk._a for blk in blocks])
    c = np.concatenate([blk._b for blk in blocks])
    return (a[:, None] * (v[np.ix_(f, f)] * a + v[np.ix_(f, s)] * c)
            + c.conj()[:, None] * (v[np.ix_(s, f)] * a + v[np.ix_(s, s)] * c))


@lru_cache(maxsize=64)
def _frame_norms(blocks: tuple, n: int) -> tuple[float, float]:
    """(largest row, largest column) 1-norm of the mode-to-block matrix U of
    ``blocks``.  Raises StructuralError unless every row of U is a unit
    vector, as it is for blocks that together span the n modes."""
    if sum(len(b) for b in blocks) != n or any(b.size != n for b in blocks):
        raise StructuralError(f"symmetry blocks do not span the {n} modes")
    rows = np.concatenate([np.concatenate([b.first, b.second[b._b != 0]]) for b in blocks])
    coef = np.abs(np.concatenate([np.concatenate([b._a, b._b[b._b != 0]])
                                  for b in blocks]))
    if not np.allclose(np.bincount(rows, coef * coef, minlength=n), 1.0,
                       rtol=0.0, atol=1e-12):
        raise StructuralError(f"symmetry blocks do not span the {n} modes")
    return (float(np.bincount(rows, coef, minlength=n).max()),
            float(max((np.abs(b._a) + np.abs(b._b)).max() for b in blocks)))


def _absmax(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


class AssemblyFrame:
    """The energy-free parts of H_eff(E) = diag(E_n) + h V - i W k W^dag,
    built once per geometry and read by ``assemble`` at every energy.

    Per block b of the declared ``blocks`` (one whole-space block when none
    is declared), it holds W_b = U_b^dag W restricted to the channels that
    reach the block, U_b^dag V U_b and the diagonal of U_b^dag diag(E_n)
    U_b.  Two rules scale W and V per energy: ``divisor``, a function of
    the channel wavenumbers k that is one value per cutoff, gives W(E) = W
    / d(k) (the planar Dirichlet weight), divided after the gather (blocks
    without pairs, where the two commute exactly; a plain array W is kept
    as given, so a real W is divided in floats), and ``height`` h scales V.
    ``scaled`` copies a frame with both scaled and new basis energies: a
    Sinai model is its geometry's unit-height frame, a cylinder length one
    length's frame (see ``cyl3d.length_family``).

    The off-block check runs on tables built here.  Channels of one cutoff
    share k and d at every energy; per pair of blocks (a, b) and such group
    g the frame keeps max|V_ab| and max|G_ab,g|, G_ab,g = sum_{c in g}
    W_a,c W_b,c^dag (the sum is what cancels for a right declaration, as
    for the L and R ports of the planar x-parity blocks).  At an energy,
    |h| max|V_ab| + sum_g |k_g| max|G_ab,g| / d_g^2 bounds every entry of
    the tile H_ab = U_a^dag H U_b (see ``_parts``).

    A frame is a model: ``frame(omega_sq)`` is ``assemble(frame,
    omega_sq)``.
    """

    height = 1.0

    def __init__(self, basis: ClosedBasis, channels: ChannelSet,
                 coupling: CouplingMatrix | np.ndarray, static: np.ndarray | None = None,
                 blocks: tuple = (), divisor: Callable[[np.ndarray], np.ndarray] | None = None):
        if isinstance(coupling, CouplingMatrix):
            w = coupling.matrix
        else:
            w, coupling = np.asarray(coupling), CouplingMatrix(coupling)
        n = len(basis)
        if w.shape != (n, len(channels)):
            raise StructuralError(f"coupling shape {w.shape} does not match "
                                  f"{n} modes x {len(channels)} channels")
        v = None if static is None else np.asarray(static)
        if v is not None and v.shape != (n, n):
            raise StructuralError("static perturbation has wrong shape")
        self.channels, self.static = channels, v
        self.w, self.coupling, self.divisor = w, coupling, divisor
        self.blocks = tuple(blocks) or (_whole_space(n),)
        self.norms = _frame_norms(self.blocks, n)
        ws = [b.project(w) for b in self.blocks]
        # a block's tile needs only the channels that reach it: the others
        # add exact zeros
        reach = [np.any(x, axis=0) for x in ws]
        self._cols = [slice(None) if r.all() else r for r in reach]
        # the Sinai unit bump is symmetric only to rounding
        self._hermitian_v = v is None or _absmax(v - v.conj().T) <= _BLOCK_TOL * _absmax(v)
        self._w = [x[:, c] for x, c in zip(ws, self._cols)]
        vb = None if v is None else _sandwich(self.blocks, v)
        ends = np.cumsum([x.shape[0] for x in ws])
        rows = [slice(end - x.shape[0], end) for x, end in zip(ws, ends)]
        self._v = [None if vb is None else np.ascontiguousarray(vb[r, r]) for r in rows]
        self._set_basis(basis)
        groups = {}
        for i, ch in enumerate(channels):
            groups.setdefault((ch.cutoff_sq, ch.fixed_k), []).append(i)
        self._rep = np.array([g[0] for g in groups.values()], dtype=int)
        pairs = [(a, b) for a in range(len(ws)) for b in range(a + 1, len(ws))]
        self._vmax = np.array([0.0 if vb is None else
                               max(_absmax(vb[rows[a], rows[b]]), _absmax(vb[rows[b], rows[a]]))
                               for a, b in pairs])
        self._gmax = np.zeros((len(pairs), len(groups)))
        for i, (a, b) in enumerate(pairs):
            both = reach[a] & reach[b]
            for j, g in enumerate(groups.values()):
                g = [c for c in g if both[c]]
                if g:
                    self._gmax[i, j] = _absmax(ws[a][:, g] @ ws[b][:, g].conj().T)

    def __call__(self, omega_sq: float) -> EffectiveHamiltonian:
        return assemble(self, omega_sq)

    def _set_basis(self, basis: ClosedBasis):
        """The basis and, per block, the diagonal of U_b^dag diag(E_n) U_b."""
        self.basis = basis
        self._lam, gaps = zip(*(b.energies(basis.energies) for b in self.blocks))
        self._gap = max(gaps)

    def scaled(self, height: float = 1.0, w_divisor: float = 1.0,
               energies: np.ndarray | None = None) -> AssemblyFrame:
        """This frame with V scaled by ``height``, W divided by the constant
        ``w_divisor`` (a constant factor of the ``divisor`` rule) and, given
        ``energies``, new basis energies over the same labels: a shallow
        copy, which shares every other array of this one."""
        out, rule = copy.copy(self), self.divisor
        out.height = self.height * height
        if w_divisor != 1.0:
            out.divisor = lambda k: w_divisor * (np.ones(k.shape) if rule is None else rule(k))
        if energies is not None:
            out._set_basis(ClosedBasis(self.basis.labels, energies))
        return out

    def _blocks_w(self, d: np.ndarray | None) -> list:
        """Per block, W_b over the channels that reach it, divided by ``d``."""
        if d is None:
            return self._w
        return [np.asarray(w / d[c], dtype=complex) for w, c in zip(self._w, self._cols)]

    def _parts(self, k: np.ndarray, d: np.ndarray | None) -> tuple:
        """The blocks H_b = U_b^dag (diag E + h V) U_b - i (W_b k) W_b^dag at
        the wavenumbers k and divisor values d (no n x n matrix is formed).

        StructuralError when r b > ``_BLOCK_TOL``
        max|H_bb| / s^2, with b >= max|H_ab| the bound of ``_bound`` and r
        and s the largest row and column 1-norms of the mode-to-block
        matrix U.  r b bounds every off-block entry of H U_b in the mode
        basis, and max|H_bb| / s^2 <= max|H|, so a declaration that leaves
        off-block entries above ``_BLOCK_TOL`` max|H| in H U_b fails the
        check.  b comes from tables, so no off-block tile is formed."""
        parts = []
        for w, c, v, lam in zip(self._blocks_w(d), self._cols, self._v, self._lam):
            # evanescent channels have k = i|k|; -i*k W W^dag then becomes
            # the Hermitian shift +|k| W W^dag.  One GEMM, then in place:
            # each temporary costs about as much as the GEMM itself
            h = (w * k[c]) @ w.conj().T
            h *= -1j
            if v is not None:
                h += v if self.height == 1.0 else self.height * v
            h.flat[:: h.shape[0] + 1] += lam
            parts.append(read_only(h))
        r, s = self.norms
        # _peak is within sqrt(2) below max|.|, and the part of diag(E) U_b
        # that H_b leaves out (gap) adds at most s * gap to an entry
        off = r * (np.sqrt(2.0) + s) * max(self._bound(k, d), self._gap)
        on = max(_peak(p) for p in parts)
        if off > _BLOCK_TOL * on / (s * s):
            raise StructuralError(f"H_eff is not block-diagonal in the declared symmetry "
                                  f"blocks (off-block {off:.2e}, on-block {on:.2e})")
        return tuple(parts)

    def _bound(self, k: np.ndarray, d: np.ndarray | None) -> float:
        """max over block pairs of |h| max|V_ab| + sum_g |k_g| max|G_ab,g| /
        d_g^2 at the wavenumbers k and divisor values d: at least max|H_ab|."""
        kg = np.abs(k[self._rep])
        if d is not None:
            kg = kg / d[self._rep] ** 2
        return float(np.max(abs(self.height) * self._vmax + self._gmax @ kg, initial=0.0))


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """H_eff(omega_sq) of one ``AssemblyFrame``, held as one matrix per
    symmetry block of the frame.

    ``parts[i]`` is the block H_b = U_b^dag H_eff U_b of ``blocks[i]``; a
    model that declares no blocks has one part, the whole matrix.  Built by
    ``assemble``, which takes the frame's ``divisor`` values (None without a
    divisor rule) once.  ``matrix`` is the mode-basis matrix, formed from
    the parts on first read; no engine path reads it (the tests and the
    benchmark's dense recomputation do)."""

    frame: AssemblyFrame
    omega_sq: float
    divisor: np.ndarray | None = field(init=False, repr=False)
    parts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        frame = self.frame
        k = frame.channels.wavenumbers(self.omega_sq)
        d = None if frame.divisor is None else frame.divisor(k)
        object.__setattr__(self, "divisor", d)
        object.__setattr__(self, "parts", frame._parts(k, d))

    basis = property(lambda self: self.frame.basis)
    channels = property(lambda self: self.frame.channels)
    blocks = property(lambda self: self.frame.blocks)

    @cached_property
    def coupling(self) -> CouplingMatrix:
        """W / divisor in the mode basis."""
        if self.divisor is None:
            return self.frame.coupling
        return CouplingMatrix(self.frame.w / self.divisor)

    @cached_property
    def static(self) -> np.ndarray | None:
        """height V in the mode basis."""
        v, height = self.frame.static, self.frame.height
        return v if v is None or height == 1.0 else read_only(height * v)

    @cached_property
    def open_couplings(self) -> list:
        """Per block, V_b = W_b sqrt(k) over the open channels that reach it
        (n_b x c, c = 0 when none does), W_b divided as in ``parts``: H_b +
        i V_b V_b^dag is Hermitian to rounding (an evanescent channel adds
        the Hermitian |k| W W^dag).  None per block when V is not
        Hermitian."""
        if not self.frame._hermitian_v:
            return [None] * len(self.blocks)
        k = self.channels.wavenumbers(self.omega_sq)
        is_open = np.array([c.is_open(self.omega_sq) for c in self.channels], dtype=bool)
        return [w[:, is_open[c]] * np.sqrt(k[c][is_open[c]].real)
                for w, c in zip(self.frame._blocks_w(self.divisor), self.frame._cols)]

    @property
    def pieces(self):
        """(block, part) pairs."""
        return zip(self.blocks, self.parts)

    def block_matrix(self, block: SymmetryBlock) -> np.ndarray:
        """The part of one of the ``blocks``."""
        return next(part for b, part in self.pieces if b is block)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The mode-basis matrix, sum of U_b H_b U_b^dag over the blocks
        (one whole-space block gives its part, bit for bit)."""
        terms = [block.lift(block.lift(part).conj().T).conj().T for block, part in self.pieces]
        return read_only(np.ascontiguousarray(sum(terms[1:], terms[0])))


def _peak(h: np.ndarray) -> float:
    """max(|Re h|, |Im h|) over the entries of ``h`` (complex: with
    contiguous rows): between max|h| / sqrt(2) and max|h|, without square
    roots."""
    x = h.view(float) if np.iscomplexobj(h) else h
    return float(max(x.max(initial=0.0), -x.min(initial=0.0)))


def assemble(frame: AssemblyFrame, omega_sq: float) -> EffectiveHamiltonian:
    """H_eff(omega_sq) = diag(E) + h V - i sum_c k_c W_c W_c^dag / d_c^2 of
    a model's ``AssemblyFrame``, one matrix per symmetry block of the frame
    (see ``EffectiveHamiltonian``): the frame holds the energy-free parts
    and the rules for d and h, so only the energy's work is done here.
    StructuralError when H_eff leaves the frame's blocks (see
    ``AssemblyFrame._parts``)."""
    return EffectiveHamiltonian(frame, omega_sq)


def green(heff: EffectiveHamiltonian, rhs: np.ndarray) -> np.ndarray:
    """(E - H_eff)^(-1) rhs at the energy E = ``heff.omega_sq`` of the
    assembly, by one LU per symmetry block, with singularity detection:
    solving for the columns of ``rhs`` alone costs O(n_b^2) each, where the
    inverse would cost O(n_b^3).  The pivot ratio is taken over all the
    blocks, as one LU of the whole matrix would see it."""
    import warnings

    energy = heff.omega_sq
    factors, lo, hi = [], np.inf, 0.0
    for part in heff.parts:
        a = -part
        a.flat[:: a.shape[0] + 1] += energy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(a, overwrite_a=True)
        diag = np.abs(np.diag(lu))
        lo, hi = min(lo, diag.min()), max(hi, diag.max())
        factors.append((lu, piv))
    rcond = lo / max(hi, 1e-300)
    if rcond < 1e-14:
        raise SingularScattering(energy, rcond)
    out = [block.lift(_getrs(lu, piv, block.project(rhs))[0])
           for block, (lu, piv) in zip(heff.blocks, factors)]
    return sum(out[1:], out[0])


def smatrix(heff: EffectiveHamiltonian):
    """Scattering matrix over the open channels at the energy E =
    ``heff.omega_sq`` of the assembly.

    S_cc' = delta_cc' - 2i sqrt(k_c k_c') W_c^dag G W_c' with
    G = (E - H_eff)^(-1); unitary for lossless (real-parameter) models.
    Where rounding in an ill-conditioned G breaks that unitarity by more
    than ``_UNITARITY_TOL`` (near a BIC), S is rebuilt in the K-matrix form.
    Returns (S, open_channels).
    """
    idx, k = _open_channels(heff)
    if idx.size == 0:
        raise ValueError(f"no open channel at E={heff.omega_sq}")
    w = heff.coupling.matrix[:, idx]
    core = w.conj().T @ green(heff, w)
    flux = np.sqrt(k)
    s = np.eye(idx.size, dtype=complex) - 2j * (flux[:, None] * core * flux[None, :])
    if np.max(np.abs(s.conj().T @ s - np.eye(idx.size))) > _UNITARITY_TOL:
        s = _kmatrix_smatrix(heff, w * flux[None, :], s)
    return s, [heff.channels[i] for i in idx]


def smatrix_row(frame: AssemblyFrame, energies) -> list:
    """(S, open channels) of ``smatrix`` at each of ``energies`` (a map
    row), or None at a point this path cannot vouch for; no H_eff is
    assembled and no LU is formed.

    In a frame without a static V each block is H_b = diag(lam) - i X K
    X^dag, X = W_b / d over the channels that reach it and K = diag(k).
    Scaled by Y = X |K|^(1/2) and the phases P = K / |K| (1 open, i
    evanescent), the Mahaux-Weidenmueller (Woodbury) identity gives

        |K|^(1/2) X^dag (E - H_b)^(-1) X |K|^(1/2) = M (1 + i P M)^(-1),
        M = Y^dag diag(1 / (E - lam)) Y,

    one c x c inverse per block and energy (c <= 16 channels against
    49-100 modes), stacked over the row (C. Mahaux & H. A. Weidenmueller,
    *Shell-Model Approach to Nuclear Reactions*, 1969).  Summed over the
    blocks, S = 1 - 2i times its open-open part.  A point is None where
    any of these holds:

    - an a-priori rounding bound exceeds ``_ROW_TOL``: M is formed to
      within eps mu, mu = sum_j |y_j|^2 / |E - lam_j| (the pole reach:
      the bound fails within 4 eps |y_j|^2 / ``_ROW_TOL`` of a level j), and an
      error dM moves M T^(-1) by T'^(-1) dM T^(-1), T = 1 + i P M and T' =
      P^(-1) T P, so by at most |T^(-1)|_2^2 <= |T^(-1)|_1 |T^(-1)|_inf
      times it (the conditioning of T); the bound is 4 eps (1 + mu)
      |T^(-1)|_1 |T^(-1)|_inf, at least ten times the error measured
      against 40 digits near coupled planar, cylinder and sphere levels;
    - E lies within ``_ROW_NEAR`` of the scale of a basis energy, where
      the per-point LU may call E - H_eff singular even for a mode no
      channel reaches;
    - the off-block check of ``AssemblyFrame._parts`` fails with the
      diagonal of H_b in place of max|H_b| (stricter);
    - S misses ``_UNITARITY_TOL``, or no channel is open.

    Every point is None in a frame with a static V."""
    e = np.asarray(energies, dtype=float).reshape(-1)
    out = [None] * e.size
    if frame.static is not None or not e.size:
        return out
    chans = frame.channels
    k = np.array([chans.wavenumbers(x) for x in e.tolist()])
    is_open = np.array([[c.is_open(x) for c in chans] for x in e.tolist()], dtype=bool)
    d = np.ones(k.shape) if frame.divisor is None else np.array([frame.divisor(x) for x in k])
    kabs = np.abs(k)
    # |y_jc|^2 = |W_jc|^2 |k_c| / d_c^2, and K / |K| (1 where k = 0, at a threshold)
    weight = kabs / d ** 2
    phase = np.where(kabs > 0.0, k / np.where(kabs > 0.0, kabs, 1.0), 1.0)
    r, s = frame.norms
    off = r * (np.sqrt(2.0) + s) * np.array(
        [max(frame._bound(kx, dx), frame._gap) for kx, dx in zip(k, d)])
    f = np.zeros((e.size, len(chans), len(chans)), dtype=complex)
    err, on, near = np.zeros(e.size), np.zeros(e.size), np.zeros(e.size, dtype=bool)
    with np.errstate(all="ignore"):
        for x, cols, lam in zip(frame._w, frame._cols, frame._lam):
            index = np.arange(len(chans))[cols]
            wt, x2 = weight[:, index], (x.conj() * x).real
            diag = lam - 1j * ((phase[:, index] * wt) @ x2.T)
            on = np.maximum(on, np.maximum(np.abs(diag.real), np.abs(diag.imag)).max(axis=1))
            detune = e[:, None] - lam
            scale = np.maximum(1.0, np.maximum(np.abs(e), np.abs(lam).max(initial=0.0)))
            near |= np.any(np.abs(detune) <= _ROW_NEAR * scale[:, None], axis=1)
            if not index.size:
                continue
            rec = 1.0 / detune
            root = np.sqrt(wt)
            m = root[:, :, None] * ((x.conj().T * rec[:, None, :]) @ x) * root[:, None, :]
            tinv = np.linalg.inv(np.eye(index.size) + 1j * phase[:, index, None] * m)
            f[:, index[:, None], index] += m @ tinv
            mu = (np.abs(rec) * (wt @ x2.T)).sum(axis=1)
            a = np.abs(tinv)
            err += 4.0 * _EPS * (1.0 + mu) * a.sum(axis=1).max(axis=1) * a.sum(axis=2).max(axis=1)
    trusted = ~near & (err <= _ROW_TOL) & (off <= _BLOCK_TOL * on / (s * s))
    keys = [tuple(row) for row in is_open]
    for key in dict.fromkeys(keys[i] for i in np.flatnonzero(trusted)):
        at = np.array([i for i in np.flatnonzero(trusted) if keys[i] == key])
        o = np.flatnonzero(key)
        if not o.size:
            continue
        sm = np.eye(o.size) - 2j * f[at[:, None, None], o[:, None], o]
        unitary = np.abs(np.swapaxes(sm.conj(), 1, 2) @ sm - np.eye(o.size)).max(axis=(1, 2))
        open_chans = [chans[j] for j in o]
        for i, si, u in zip(at, sm, unitary):
            if u <= _UNITARITY_TOL:
                out[i] = (si, open_chans)
    return out


def _open_channels(heff: EffectiveHamiltonian):
    """Indices and (real) wavenumbers of the channels open at heff.omega_sq."""
    energy = heff.omega_sq
    idx = heff.channels.open_indices(energy)
    return idx, np.array([heff.channels[i].wavenumber(energy).real for i in idx])


def _kmatrix_smatrix(heff: EffectiveHamiltonian, v: np.ndarray,
                     s_green: np.ndarray) -> np.ndarray:
    """S = (1 - iK)(1 + iK)^(-1) with the Hermitian K = V^dag (E - A)^(-1) V.

    A = H_eff + i V V^dag is the Hermitian part of H_eff and V = W_o sqrt(k).
    By Woodbury this is the S of ``smatrix``, but built from the phases
    exp(-2i arctan kappa) of the eigenvalues kappa of K, so it is unitary
    however ill-conditioned E - H_eff is (near a BIC the Green-function
    form loses unitarity as ~1e-16/rcond).  Per block, A_b = H_b + i V_b
    V_b^dag = Q_b diag(lam_b) Q_b^dag with V_b = U_b^dag V, and K = sum_b
    (Q_b^dag V_b)^dag diag(1 / (E - lam_b)) (Q_b^dag V_b).  A lossy H_eff,
    whose A is not Hermitian (maxima over all the blocks), keeps ``s_green``.
    """
    vs = [block.project(v) for block in heff.blocks]
    hermitian = [part + 1j * (vb @ vb.conj().T) for part, vb in zip(heff.parts, vs)]
    if max(_absmax(a - a.conj().T) for a in hermitian) > \
            _UNITARITY_TOL * max(1.0, *map(_absmax, hermitian)):
        return s_green
    terms = []
    for a, vb in zip(hermitian, vs):
        lam, q = np.linalg.eigh(0.5 * (a + a.conj().T))
        detuning = heff.omega_sq - lam
        if not np.all(detuning):
            raise SingularScattering(heff.omega_sq, 0.0)
        vq = q.conj().T @ vb
        terms.append((vq.conj().T / detuning) @ vq)
    kmat = sum(terms[1:], terms[0])
    kappa, u = np.linalg.eigh(0.5 * (kmat + kmat.conj().T))
    return (u * np.exp(-2j * np.arctan(kappa))) @ u.conj().T


@dataclass
class ResonanceRecord:
    """A fixed-point-solved complex eigenvalue z = E_r - i Gamma/2."""

    z: complex
    vector: np.ndarray
    param: float | None = None
    converged: bool = True
    iterations: int = 0

    @property
    def energy(self) -> float:
        return self.z.real

    @property
    def width(self) -> float:
        return -2.0 * self.z.imag


@dataclass
class BICRecord:
    """A zero-width resonance: parameter point, frequency and null vector."""

    param: float
    omega_sq: float
    null_vector: np.ndarray
    gamma_res: float
    residual: float
    is_bic: bool
    labels: tuple = ()
    classification: str | None = None
    # width of the parameter bracket the search ended on (None: not searched)
    param_err: float | None = None

    def modal_expansion(self):
        return bic_mode(self, self.labels)


def _shifted_lu(h: np.ndarray, lam: complex):
    """LU factors of h - lam; an exactly singular pivot is left to the solve."""
    import warnings

    a = h.copy()
    a.flat[:: a.shape[0] + 1] -= lam
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        return sla.lu_factor(a, overwrite_a=True)


def _scale(h: np.ndarray) -> float:
    """max(1, max|h_ii|), the scale of eigenvalue rounding in h."""
    return max(1.0, float(np.max(np.abs(np.diag(h)))))


def _converged(h: np.ndarray, lam: complex | np.ndarray, v: np.ndarray) -> bool | np.ndarray:
    """||h v - lam v|| <= ``_EIGPAIR_TOL`` max(1, max|h_ii|) for a unit v;
    per column, one bool each, where v holds one unit vector per entry of
    ``lam``."""
    tol = _EIGPAIR_TOL * _scale(h)
    if v.ndim == 2:
        return np.linalg.norm(h @ v - v * lam, axis=0) <= tol
    return bool(np.linalg.norm(h @ v - lam * v) <= tol)


def _rqi(h: np.ndarray, v0: np.ndarray, max_steps: int = 10):
    """Rayleigh-quotient iteration from a known approximate eigenvector.

    Returns (lam, v), v of unit norm, at the first step whose residual
    passes ``_converged``, or None when none does within ``max_steps`` or
    the solve breaks down; one LU per step."""
    v = _unit(v0)
    lam = complex(v.conj() @ h @ v)
    for _ in range(max_steps):
        try:
            lu = _shifted_lu(h, lam)
        except ValueError:
            return None
        w, info = _getrs(*lu, v)
        if info:
            return None
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            return None
        v = w / nw
        lam = complex(v.conj() @ h @ v)
        if _converged(h, lam, v):
            return lam, v
    return None


def _inverse_vector(h: np.ndarray, lam: complex) -> np.ndarray | None:
    """The unit eigenvector of h at its eigenvalue ``lam`` by one step of
    inverse iteration: U x = (1, ..., 1) with U the upper factor of
    h - lam (LAPACK's zlaein start, generic for any eigenvector).  None
    when the solve breaks down (an exactly singular pivot) or the residual
    misses ``_converged``."""
    lu, _ = _shifted_lu(h, lam)
    x, info = _trtrs(lu, np.ones(h.shape[0], dtype=lu.dtype))
    if info:
        return None
    nx = np.linalg.norm(x)
    if not np.isfinite(nx) or nx == 0.0:
        return None
    v = x / nx
    return v if _converged(h, lam, v) else None


def _left_vector(h: np.ndarray, lam: complex) -> np.ndarray | None:
    """The unit left eigenvector w (w^dag h = lam w^dag) of h at its
    eigenvalue ``lam`` by inverse iteration on (h - lam)^dag from
    (1, ..., 1): one LU, and a second solve when the first leaves the
    residual just short of ``_converged`` (as one did on a Sinai block,
    1.8e-13 of the scale).  None when a solve breaks down or two miss."""
    lu = _shifted_lu(h, lam)
    w = np.ones(h.shape[0], dtype=complex)
    for _ in range(2):
        w, info = _getrs(*lu, w, trans=2)
        if info:
            return None
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            return None
        w = w / nw
        if _converged(h.conj().T, np.conj(lam), w):
            return w
    return None


def _largest_overlap(h: np.ndarray, lam: complex, x: np.ndarray, vec: np.ndarray) -> bool:
    """Whether the unit eigenvector x of h at ``lam`` overlaps ``vec`` more
    than any other eigenvector of h does, by over ``_TIE_BREAK``: the pick
    ``_pick_branch`` makes from the dense eig, outside its tie window.  The
    other eigenvectors lie in the hyperplane orthogonal to the left
    eigenvector w at ``lam``, so none overlaps the unit ``vec`` by more
    than its part in that hyperplane, sqrt(1 - |w^dag vec|^2).
    For orthonormal eigenvectors w = x and this asks |vec^dag x| >
    1/sqrt(2) or so."""
    w = _left_vector(h, lam)
    if w is None:
        return False
    u = vec / np.linalg.norm(vec)
    rest = np.sqrt(max(0.0, 1.0 - abs(np.vdot(w, u)) ** 2))
    return bool(abs(np.vdot(u, x)) - rest > _TIE_BREAK)


def _eig_near(h: np.ndarray, sigma: complex, k: int = 8, iters: int = 6):
    """A few eigenpairs of h nearest sigma via shifted inverse subspace
    iteration + Rayleigh-Ritz; falls back to dense eig on stagnation."""
    n = h.shape[0]
    k = min(k, n)
    a = h - sigma * np.eye(n)
    try:
        lu, piv = sla.lu_factor(a)
    except sla.LinAlgError:
        return np.linalg.eig(h)
    diag = np.abs(np.diag(lu))
    if diag.min() / max(diag.max(), 1e-300) < 1e-15:
        lu, piv = sla.lu_factor(a + 1e-10 * np.eye(n))
    rng = np.random.default_rng(7)
    q = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, _ = np.linalg.qr(q)
    for _ in range(iters):
        q = sla.lu_solve((lu, piv), q)
        q, _ = np.linalg.qr(q)
    t = q.conj().T @ h @ q
    vals, vecs = np.linalg.eig(t)
    vecs = q @ vecs
    # residual check; bad subspaces fall back to dense
    res = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    if np.any(res[np.argsort(np.abs(vals - sigma))[: min(3, k)]] > 1e-8 * np.linalg.norm(h)):
        return np.linalg.eig(h)
    return vals, vecs


def _eig(h: np.ndarray, sigma: complex):
    if h.shape[0] <= _DENSE_EIG_LIMIT:
        return np.linalg.eig(h)
    return _eig_near(h, sigma)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def block_eig(heff: EffectiveHamiltonian, block: SymmetryBlock):
    """Every eigenpair of H_eff inside one of its blocks, unit vectors in
    the mode basis.  A block of at least ``_PAIRS_MIN`` modes that the open
    channels reach in one direction takes its pairs from the channel space
    (``_secular_pairs``); the others, and a block whose pairs miss their
    check, take the dense eig."""
    i = heff.blocks.index(block)
    part, pairs = heff.parts[i], None
    if len(block) >= _PAIRS_MIN:
        v = _open_rank(part, heff.open_couplings[i])
        if v is not None and v.shape[1] == 1:
            pairs = _secular_pairs(part, v)
    vals, vecs = np.linalg.eig(part) if pairs is None else pairs
    return vals, block.lift(vecs)


def holding_block(blocks: Sequence[SymmetryBlock], vec: np.ndarray):
    """The block that holds the largest part of ``vec`` (the first of equal
    parts; None when there is no block)."""
    return max(blocks, key=lambda b: np.linalg.norm(b.project(vec)), default=None)


def spectrum(heff: EffectiveHamiltonian):
    """Every eigenpair (vals, vecs) of H_eff, block by block
    (``block_eig``), unit vectors in the mode basis.  The fixed-point loop
    and the BIC root need one eigenpair and take it from ``_branch_eig``
    instead."""
    parts = [block_eig(heff, b) for b in heff.blocks]
    return (np.concatenate([vals for vals, _ in parts]),
            np.hstack([vecs for _, vecs in parts]))


def _pick_branch(vals: np.ndarray, vecs: np.ndarray, seed_energy: float,
                 branch_vector: np.ndarray | None, prev_z: complex | None = None):
    """Branch selection: eigenvector overlap when available, else nearest
    real part.  Two overlaps within ``_TIE_BREAK`` tie; the tie goes to the
    smaller |z - prev_z| when the two distances differ by more than
    ``_TIE_BREAK`` of the larger, then to the larger Im z when the two
    differ by more than ``_TIE_BREAK`` of the larger |z|, and otherwise to
    the larger Re z, so that rounding does not decide it (as at an
    exceptional point, where both eigenvectors overlap the branch equally,
    lie either side of prev_z and share Im z)."""
    if branch_vector is None:
        return int(np.argmin(np.abs(vals.real - seed_energy)))
    ov = np.abs(branch_vector.conj() @ vecs) / np.linalg.norm(vecs, axis=0)
    order = np.argsort(-ov)
    if order.size < 2 or ov[order[0]] - ov[order[1]] >= _TIE_BREAK:
        return int(order[0])
    pair, z = order[:2], vals[order[:2]]
    if prev_z is not None:
        d = np.abs(z - prev_z)
        if abs(d[0] - d[1]) > _TIE_BREAK * d.max():
            return int(pair[np.argmin(d)])
    if abs(z[0].imag - z[1].imag) > _TIE_BREAK * np.abs(z).max():
        return int(pair[np.argmax(z.imag)])
    return int(pair[np.argmax(z.real)])


def _branch_eig(heff: EffectiveHamiltonian, sigma: float, vec: np.ndarray | None,
                prev_z: complex | None):
    """One branch eigenpair of H_eff, the vector of unit norm in the mode
    basis.  A warm start continues ``vec`` (``_continue_eig``) inside the
    block that holds the largest part of it; a cold start (no ``vec``) is
    ``_cold_eig``."""
    if vec is None:
        return _cold_eig(heff, sigma)
    block = holding_block(heff.blocks, vec)
    lam, y = _continue_eig(heff.block_matrix(block), sigma, block.project(vec), prev_z)
    return lam, block.lift(y)


def _reciprocal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 / (x + i y) of real arrays, in real arithmetic (numpy's complex
    division costs three times as much); inf or nan where x = y = 0."""
    den = x * x
    den += y * y
    np.reciprocal(den, out=den)
    out = np.empty(den.shape, dtype=complex)
    np.multiply(x, den, out=out.real)
    np.multiply(-y, den, out=out.imag)
    return out


def _secular_eigvals(h: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """The eigenvalues of ``_secular_spectrum``, or None."""
    got = _secular_spectrum(h, v)
    return None if got is None else got[0]


def _secular_spectrum(h: np.ndarray, v: np.ndarray) -> tuple | None:
    """(z, lam, Q, U): every eigenvalue z of h = A - i V V^dag, A Hermitian
    and V n x r of full column rank, from the channel space: with A = Q
    diag(lam) Q^dag and U = Q^dag V, det(z - h) = det(z - diag(lam)) det
    T(z), where T(z) = 1 + i U^dag (z - diag(lam))^(-1) U is r x r.  Each
    exactly degenerate set of poles is rotated, in Q's columns and U's
    rows, so that at most r of its rows of U are nonzero; poles that U does
    not reach (zero rows) are then eigenvalues as they are, z_j = lam_j
    with eigenvector q_j.  The others are the zeros of P(z) = prod_j (z - lam_j)
    det T(z) over the reached poles, all found at once by the Aberth-Ehrlich
    iteration (O. Aberth, Math. Comp. 27 (1973) 339; Bini, Gemignani & Pan,
    Numer. Math. 100 (2005) 373 for secular equations):

        z_k <- z_k - N_k / (1 - N_k sum_{l != k} 1 / (z_k - z_l)),

    N = P / P' = 1 / (sum_j 1/(z - lam_j) + tr(T^(-1) T')), T' = -i U^dag
    (z - diag(lam))^(-2) U.  It starts at the first-order eigenvalues
    lam_j - i |u_j|^2 (u_j the rows of U) and iterates the roots that have
    not yet moved by less than ``_SECULAR_STEP`` of the scale max(1,
    max|h_ii|).

    None, for the dense eigvals to answer, unless every root converged
    within ``_SECULAR_ITER`` steps and is finite, and sum z and sum z^2
    match tr h and tr h^2 to ``_SECULAR_TRACE`` n of the scale and its
    square: a root lost or found twice moves them by far more."""
    n, r = v.shape
    scale = _scale(h)
    a = h + 1j * (v @ v.conj().T)
    lam, q = np.linalg.eigh(0.5 * (a + a.conj().T))
    u = q.conj().T @ v
    same = np.flatnonzero(np.diff(lam) == 0.0)
    for j in np.split(same, np.flatnonzero(np.diff(same) > 1) + 1) if same.size else ():
        rows = slice(j[0], j[-1] + 2)
        turn, u[rows] = np.linalg.qr(u[rows], mode="complete")
        q[:, rows] = q[:, rows] @ turn
    g = (u.conj()[:, :, None] * u[:, None, :]).reshape(n, r * r)
    reached = np.flatnonzero(np.any(u != 0.0, axis=1))
    lam_a, g_a = lam[reached], g[reached]
    z_a = lam_a - 1j * g_a[:, ::r + 1].real.sum(axis=1)
    todo, eye = np.arange(reached.size), np.eye(r)
    with np.errstate(all="ignore"):
        for _ in range(_SECULAR_ITER):
            if todo.size == 0:
                break
            zk = z_a[todo]
            d = _reciprocal(zk.real[:, None] - lam_a[None, :], zk.imag[:, None])
            t1 = d @ g_a
            t2 = (d * d) @ g_a
            if r == 1:
                t1 = 1.0 + 1j * t1[:, 0]
                newton = t1 / (t1 * d.sum(axis=1) - 1j * t2[:, 0])
            else:
                t1 = eye + 1j * t1.reshape(-1, r, r)
                hit = np.linalg.det(t1) == 0.0
                t1[hit] = eye
                newton = 1.0 / (d.sum(axis=1) + np.einsum(
                    "kii->k", np.linalg.solve(t1, -1j * t2.reshape(-1, r, r))))
                newton[hit] = 0.0
            e = _reciprocal(zk.real[:, None] - z_a.real[None, :],
                            zk.imag[:, None] - z_a.imag[None, :])
            e[np.arange(todo.size), todo] = 0.0
            step = newton / (1.0 - newton * e.sum(axis=1))
            if not np.all(np.isfinite(step)):
                return None
            z_a[todo] = zk - step
            todo = todo[np.abs(step) > _SECULAR_STEP * scale]
    if todo.size:
        return None
    z = lam.astype(complex)
    z[reached] = z_a
    tol = _SECULAR_TRACE * n * scale
    if abs(z.sum() - np.trace(h)) > tol or abs((z * z).sum() - np.sum(h * h.T)) > tol * scale:
        return None
    return z, lam, q, u


def _secular_pairs(h: np.ndarray, v: np.ndarray) -> tuple | None:
    """Every eigenpair (vals, unit vecs) of h = A - i v v^dag, v one
    column, from ``_secular_spectrum``: the eigenvector at a root z_j that
    u = Q^dag v reaches is x_j = Q (z_j - diag(lam))^(-1) u (J. R. Bunch,
    C. P. Nielsen & D. C. Sorensen, Numer. Math. 31 (1978) 31), and at a
    pole that u does not reach it is q_j.  Each pair is checked by
    ``_converged``.  A weakly coupled root lies within about |u_p|^2 of its
    nearest pole p, where z_j - lam_p keeps few correct digits; a pair that
    misses takes delta = z_j - lam_p from one step of the secular equation
    at that pole, delta = -i |u_p|^2 / (1 + i sum_{l != p} |u_l|^2 /
    (lam_p - lam_l + delta)), and x_j from the denominators lam_p - lam_l +
    delta.  None, for the dense eig to answer, where the roots fail their
    check or a repaired pair misses again."""
    got = _secular_spectrum(h, v)
    if got is None:
        return None
    z, lam, q, u = got
    x = q.copy()
    on = np.flatnonzero(u[:, 0])
    lam, q, u = lam[on], q[:, on], u[on, 0]

    def vectors(den):
        y = q @ (u[:, None] * _reciprocal(den.real, den.imag))
        return y / np.linalg.norm(y, axis=0)

    with np.errstate(all="ignore"):
        x[:, on] = vectors(z[on][None, :] - lam[:, None])
        miss = np.flatnonzero(~_converged(h, z, x))
        if miss.size:
            pole = np.argmin(np.abs(z[miss][None, :] - lam[:, None]), axis=0)
            gap = lam[pole][None, :] - lam[:, None]
            den = gap + (z[miss] - lam[pole])
            den[pole, np.arange(miss.size)] = np.inf
            w2 = (u.conj() * u).real
            delta = -1j * w2[pole] / (1.0 + 1j * (w2[:, None] / den).sum(axis=0))
            x[:, miss] = vectors(gap + delta)
            if not np.all(_converged(h, z[miss], x[:, miss])):
                return None
    return z, x


def _open_rank(h: np.ndarray, v: np.ndarray | None) -> np.ndarray | None:
    """A block's open coupling V_b (``AssemblyFrame.open_couplings``)
    compressed to its numerical rank r from the eigh of V_b^dag V_b: n x r,
    r = 0 where no open channel reaches the block or only one at threshold
    (h is then Hermitian to rounding).  None stays None."""
    if v is None or not v.shape[1]:
        return v
    s, x = np.linalg.eigh(v.conj().T @ v)
    return v @ x[:, s > _EPS * _scale(h)]


def _cold_eigvals(h: np.ndarray, v: np.ndarray | None) -> tuple[np.ndarray, bool]:
    """The eigenvalues of one block h at a cold start, and whether they
    came from the channel space (``_secular_eigvals``).  ``v`` is the
    block's open coupling V_b (None for a V that is not Hermitian:
    eigvals), compressed by ``_open_rank``; rank 0 leaves h Hermitian to
    rounding: eigvalsh."""
    v = _open_rank(h, v)
    if v is None:
        return np.linalg.eigvals(h), False
    if v.shape[1]:
        z = _secular_eigvals(h, v)
        return (np.linalg.eigvals(h), False) if z is None else (z, True)
    return np.linalg.eigvalsh(h).astype(complex), False


def _cold_eig(heff: EffectiveHamiltonian, sigma: float):
    """The eigenpair of H_eff whose eigenvalue has the real part nearest
    ``sigma``, ties going to the first block, as ``_pick_branch`` picks from
    ``spectrum(heff)``.

    Every eigenvalue of every symmetry block is computed, by
    ``_cold_eigvals``: from the r x r channel-space determinant where open
    channels reach the block (r is 1 or 2 here, against 49-100 modes),
    eigvalsh where none does, eigvals where V is not Hermitian or the
    channel-space roots fail their check.  Where the two real parts nearest
    ``sigma`` differ by less than ``_PICK_GAP`` of the scale, the blocks
    that hold them are solved again by eigvals, so that rounding does not
    flip the pick.  The one vector comes from inverse iteration in its
    block, whose residual check certifies the eigenvalue; where that fails,
    from the dense eig of the block."""
    pieces = list(heff.pieces)
    solved = [_cold_eigvals(part, v) for (_, part), v in zip(pieces, heff.open_couplings)]
    spectra = [vals for vals, _ in solved]
    owner = np.repeat(np.arange(len(pieces)), [vals.size for vals in spectra])
    dist = np.abs(np.concatenate(spectra).real - sigma)
    near = np.argsort(dist)[:2]
    scale = max(_scale(part) for _, part in pieces)
    if near.size == 2 and dist[near[1]] - dist[near[0]] < _PICK_GAP * scale:
        for b in set(owner[near]):
            if solved[b][1]:
                spectra[b] = np.linalg.eigvals(pieces[b][1])
    i = _pick_branch(np.concatenate(spectra), None, sigma, None)
    for (block, part), vals in zip(pieces, spectra):
        if i < vals.size:
            break
        i -= vals.size
    lam, y = vals[i], _inverse_vector(part, vals[i])
    if y is None:
        vals, vecs = np.linalg.eig(part)
        j = _pick_branch(vals, vecs, sigma, None)
        lam, y = vals[j], _unit(vecs[:, j])
    return lam, block.lift(y)


def _continue_eig(h: np.ndarray, sigma: float, vec: np.ndarray, prev_z: complex | None):
    """The eigenpair of h that continues ``vec``: Rayleigh-quotient
    iteration from ``vec``, kept when it converges (``_converged``) to the
    eigenvector of largest overlap on ``vec`` (``_largest_overlap``);
    otherwise the eigenpair that ``_pick_branch`` takes from ``_eig``
    (dense up to ``_DENSE_EIG_LIMIT`` modes, shift-invert above).  RQI runs
    to the level nearest the Rayleigh quotient of ``vec``, which for a
    vector mixed over levels near an avoided crossing need not be that
    one."""
    got = _rqi(h, vec)
    if got is not None and _largest_overlap(h, *got, vec):
        return got
    vals, vecs = _eig(h, sigma)
    i = _pick_branch(vals, vecs, sigma, vec, prev_z)
    return vals[i], _unit(vecs[:, i])


def solve_resonance(model: Callable[[float], EffectiveHamiltonian], seed: float,
                    branch_vector: np.ndarray | None = None) -> ResonanceRecord:
    """Fixed point E = Re z(E) for one branch, eigenvector-continued.

    First update takes the full step (frequency-frozen couplings then
    converge in one iteration); later steps damp by ``_FP_DAMPING``, with
    a guarded secant acceleration on the residual g(E) = Re z(E) - E, up
    to |g| <= ``_FP_TOL`` max(1, |E|) or ``_FP_MAX_ITER`` eigensolves.
    """
    e = float(seed)
    vec = branch_vector
    z = None
    e_prev = g_prev = None
    for it in range(1, _FP_MAX_ITER + 1):
        z, vec = _branch_eig(model(e), e, vec, z)
        g = z.real - e
        if abs(g) <= _FP_TOL * max(1.0, abs(e)):
            return ResonanceRecord(z=z, vector=vec, converged=True, iterations=it)
        if it == 1:
            e_next = z.real
        else:
            e_next = e + _FP_DAMPING * g
            if g_prev is not None and g != g_prev:
                e_sec = e - g * (e - e_prev) / (g - g_prev)
                # secant step accepted only while it stays comparable with
                # the damped one (oscillation guard near avoided crossings)
                if abs(e_sec - e) <= 5.0 * abs(e_next - e):
                    e_next = e_sec
        e_prev, g_prev = e, g
        e = e_next
    return ResonanceRecord(z=z, vector=vec, converged=False, iterations=_FP_MAX_ITER)


def resonances(model: Callable[[float], EffectiveHamiltonian],
               seeds: Sequence[float]) -> list[ResonanceRecord]:
    """Fixed-point resonances for several seeds; non-convergence is flagged
    on the record, never dropped."""
    return [solve_resonance(model, s) for s in seeds]


ModelFamily = Callable[[float], Callable[[float], EffectiveHamiltonian]]


def track(family: ModelFamily, grid: Sequence[float], seed_energy: float,
          branch_vector: np.ndarray | None = None) -> list[ResonanceRecord]:
    """Follow one resonance branch across a monotone parameter grid.

    The first point is solved from ``seed_energy`` (and ``branch_vector``),
    each later one from the record before it.  The trajectory ends before
    the first point whose vector overlaps the previous one by less than
    1/2: the branch is lost there, and the records up to it are returned.
    """
    grid = list(grid)
    if len(grid) < 2 or not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
        raise ValueError("parameter grid must be monotone with >= 2 points")
    out = []
    energy, vector = seed_energy, branch_vector
    for p in grid:
        rec = solve_resonance(family(p), energy, vector)
        if out and abs(vector.conj() @ rec.vector) < _OVERLAP_CONTINUE:
            break
        rec.param = p
        out.append(rec)
        energy, vector = rec.energy, rec.vector
    return out


def _golden_minimize(fun, a: float, b: float, tol: float):
    """Golden-section minimiser of ``fun`` on [a, b]; returns it and the
    width of the final bracket (at most ``tol``)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c if fc < fd else d), abs(b - a)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
           maxiter: int = 100) -> float:
    """Root of ``f`` on [a, b] by Brent's method (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4).

    The loop is scipy.optimize.brentq's C loop step for step, with its
    defaults, so it evaluates ``f`` at the same points and returns the same
    float.  The bracket shrinks to within xtol + 4 eps |x|; an end whose
    value is exactly 0 is returned as it is.  Raises ValueError when
    xtol <= 0 or maxiter < 0, when f(a) and f(b) have the same sign, or when
    a value is NaN; RuntimeError when ``maxiter`` steps do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol = float(xtol)

    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or nan here, and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class _NoRoot(Exception):
    """The signed open-channel amplitude cannot locate this BIC."""


class _SignedAmplitude:
    """The signed open-channel amplitude sigma(p) of one width minimum.

    V = W_o sqrt(k) are the open couplings and A = H_eff + i V V^dag the
    Hermitian part of H_eff, both inside the symmetry block that holds the
    largest part of the grid record's vector.  The emission
    direction u is V w, with w = V^dag a / |V^dag a| of the grid record,
    kept per ``Channel``.  On the compression of A off u, one level y
    solves E = mu(E); then A y = E y + (u^dag A y) u, so where
    s = u^dag A y vanishes, y is an eigenvector of A orthogonal to u, hence
    a zero-width eigenvector of H_eff when V has rank one.
    sigma(p) = s conj(r^dag y), with r the level at the first point
    evaluated, is free of the vector's phase, and real up to one constant
    phase under time reversal.  The basis is matched by label, so a model
    whose basis order changes with p is followed mode by mode.

    ``grid`` holds three grid records: the middle one gives the block and
    the level at the first point; w comes from the first of them, middle
    first, that emits (a grid record right on the BIC emits nothing).  The
    level keeps the ordinal it has at the first point or, ``diabatic``,
    is the one of largest overlap with r at every point.  Picking by
    overlap needs every level (a full ``eigh``); a level kept by its
    ordinal j is the j-th smallest eigenvalue of the compression, and is
    solved alone (``scipy.linalg.eigh`` with ``subset_by_index``).
    """

    def __init__(self, family: ModelFamily, grid: Sequence[ResonanceRecord],
                 diabatic: bool = False):
        rec = grid[1]
        for r in (rec, grid[0], grid[2]):
            h = family(r.param)(r.energy)
            if r is rec:
                self.labels = h.basis.labels
            idx, k = _open_channels(h)
            v = h.coupling.matrix[:, idx] * np.sqrt(k)
            c = v.conj().T @ r.vector
            if np.linalg.norm(c) > _BLOCK_TOL * np.linalg.norm(v):
                break
        else:
            raise _NoRoot("the branch does not couple to an open channel")
        self.direction = {h.channels[i]: w for i, w in zip(idx, c / np.linalg.norm(c))}
        self.family = family
        self.diabatic = diabatic
        self.target = rec.vector
        self.energy = rec.energy
        self.ordinal = self.ref = None
        self.evals = {}

    def _level(self, h: EffectiveHamiltonian):
        """(mu_j, u^dag A y, y in the mode basis of ``h``, y in the labels'
        order) of the level y of the compressed block of ``h``: the full
        eigh picks the ordinal j at the first call and, ``diabatic``, at
        every call; otherwise level j alone is solved, by index."""
        pos = None
        target = self.target
        if h.basis.labels != self.labels:
            index = {lab: i for i, lab in enumerate(h.basis.labels)}
            pos = np.array([index[lab] for lab in self.labels])
            target = np.empty_like(self.target)
            target[pos] = self.target
        idx, k = _open_channels(h)
        v = h.coupling.matrix[:, idx] * np.sqrt(k)
        x = v @ np.array([self.direction.get(h.channels[i], 0.0) for i in idx],
                         dtype=complex)
        block = holding_block(h.blocks, target)
        vb, hb = block.project(v), h.block_matrix(block)
        x, target = block.project(x), block.project(target)
        a = vb @ vb.conj().T
        a *= 1j
        a += hb
        a += a.conj().T
        a *= 0.5
        nu = np.linalg.norm(x)
        if not nu > _BLOCK_TOL * np.linalg.norm(v) or a.shape[0] < 2:
            raise _NoRoot("the block has no open direction, or no level off it")
        u = x / nu
        au = a @ u
        # a becomes P A P with P = 1 - u u^dag, and u itself pushed above the
        # spectrum: A - u w^dag - w u^dag, w = A u - ((u^dag A u) + shift) u / 2
        shift = np.abs(a).sum(axis=0).max() + 1.0
        w = au - 0.5 * (np.vdot(u, au).real + shift) * u
        a -= np.column_stack([u, w]) @ np.column_stack([w, u]).conj().T
        if self.ordinal is None or self.diabatic:
            mu, ys = np.linalg.eigh(a)
            self.ordinal = int(np.argmax(np.abs(ys[:, :-1].conj().T @ target)))
            mu, y = mu[self.ordinal], ys[:, self.ordinal]
        else:
            mu, ys = sla.eigh(a, subset_by_index=[self.ordinal, self.ordinal])
            mu, y = mu[0], ys[:, 0]
        y_h = block.lift(y)
        return mu, np.vdot(au, y), y_h, (y_h if pos is None else y_h[pos])

    def __call__(self, p: float) -> complex:
        """sigma(p) at the fixed point E = mu(E), started from the energy of
        the previous evaluation; records (sigma, E, y, |r^dag y|) in
        ``evals``."""
        model = self.family(p)
        e = self.energy
        e_prev = g_prev = None
        for _ in range(_ROOT_FP_ITER):
            mu, s, y, y_ref = self._level(model(e))
            g = mu - e
            if abs(g) <= _ROOT_FP_TOL * max(1.0, abs(e)):
                break
            if g_prev is None or g == g_prev:
                e_next = mu
            else:
                e_next = e - g * (e - e_prev) / (g - g_prev)
            e_prev, g_prev, e = e, g, e_next
        else:
            raise _NoRoot(f"no fixed point E = mu(E) at p={p}")
        if self.ref is None:
            self.ref = self.target = y_ref
        overlap = np.vdot(self.ref, y_ref)
        sigma = s * overlap.conjugate()
        self.energy = e
        self.evals[p] = (sigma, e, y, abs(overlap))
        return sigma


def _bracket_width(values: dict, root: float) -> float:
    """Width of the sign-change bracket that ends at ``root`` among the
    evaluated points (0 when the value there is exactly zero)."""
    if values[root] == 0.0:
        return 0.0
    ps = sorted(values)
    i = ps.index(root)
    return min(abs(q - root) for q in ps[max(i - 1, 0): i + 2]
               if values[q] * values[root] < 0)


def _root_bic(family: ModelFamily, grid: Sequence[ResonanceRecord], width_tol: float,
              null_tol: float) -> BICRecord:
    """BIC record at the Brent root of the signed amplitude of the middle
    of three grid records, between the outer two.  The level is followed by
    its ordinal and, where that finds no zero, by its overlap: a level that
    does not couple to u crosses it exactly, and the ordinal then steps onto
    that level, whose sigma vanishes with its overlap r^dag y.  Raises
    _NoRoot when neither finds a zero: no sign change, an amplitude that is
    not real, a root on another level (overlap with r below 1/2), or a root
    wider than ``width_tol`` (a jump of sigma; the null residual of an
    eigenpair at the root is rounding, so ``null_tol`` only classifies the
    record)."""
    lo, hi = sorted((grid[0].param, grid[2].param))
    for diabatic in (False, True):
        sigma = _SignedAmplitude(family, grid, diabatic)
        try:
            root, err = _brent_root(sigma, lo, hi)
        except _NoRoot as exc:
            failure = exc
            continue
        _, energy, y, overlap = sigma.evals[root]
        h = family(root)(energy)
        z, vec = _branch_eig(h, energy, y, None)
        out = bic_record(root, h, energy, z, vec, width_tol, null_tol)
        out.param_err = err
        if overlap < _OVERLAP_CONTINUE:
            failure = _NoRoot(f"the level at the root p={root} is another level")
        elif out.gamma_res > width_tol:
            failure = _NoRoot(f"the root at p={root} has width {out.gamma_res:.2e}")
        else:
            return out
    raise failure


def _brent_root(sigma: _SignedAmplitude, lo: float, hi: float) -> tuple[float, float]:
    """Brent root of sigma on [lo, hi] and its final bracket width."""
    s_lo, s_hi = sigma(lo), sigma(hi)
    if s_lo == 0.0:
        raise _NoRoot("the amplitude vanishes at the bracket end")
    phase = s_lo / abs(s_lo)
    scale = max(abs(s_lo), abs(s_hi))
    values = {}

    def real_part(p):
        val = (sigma.evals[p][0] if p in sigma.evals else sigma(p)) / phase
        if abs(val.imag) > _ROOT_IMAG_TOL * scale:
            raise _NoRoot(f"the amplitude is not real at p={p}")
        values[p] = val.real
        return val.real

    if real_part(lo) * real_part(hi) > 0:
        raise _NoRoot("no sign change")
    root = brentq(real_part, lo, hi, xtol=_ROOT_XTOL * max(1.0, abs(lo), abs(hi)))
    return root, _bracket_width(values, root)


def find_bics(trajectory: Sequence[ResonanceRecord], family: ModelFamily,
              width_tol: float = DEFAULT_WIDTH_TOL, null_tol: float = DEFAULT_NULL_TOL,
              keep: Callable[[ResonanceRecord], bool] | None = None) -> list[BICRecord]:
    """Zero-width points of a sampled branch (records with ``.param``).

    Each interior local minimum of Gamma(p) that passes ``keep`` is located
    between its neighbours by a Brent root of the signed open-channel
    amplitude of ``_SignedAmplitude``, and recorded from the complex
    spectrum there.  Where that cannot work - a block without open
    channels, no sign change (a quasi-BIC), an amplitude that is not real,
    or a root on another level or wider than ``width_tol`` (see
    ``_root_bic``) - the branch width is golden-section minimised instead,
    on the same bracket, to ``_PARAM_TOL``; minima above
    ``width_tol`` are kept as quasi-BIC records (is_bic False).  In the
    fallback the branch at p is the fixed-point resonance of ``family(p)``
    seeded by the grid record, recorded by ``bic_record`` from the
    eigenpair it converged to.  ``param_err`` is the width of the final
    bracket of either search.  Each record carries the basis labels of
    ``family`` at its parameter.
    """
    recs = [r for r in trajectory if r.converged]
    if len(recs) < 3:
        return []
    widths = np.array([r.width for r in recs])
    out = []
    for i in range(1, len(recs) - 1):
        lo, hi = sorted((widths[i - 1], widths[i + 1]))
        # a point as wide as both neighbours, to rounding, lies on a flat
        # plateau, not at a minimum - unless the plateau itself has no width
        # (a level decoupled from every channel)
        minimum = widths[i] <= lo and (hi - widths[i] > 1e-12 * max(abs(lo), abs(hi))
                                       or widths[i] <= width_tol)
        if not minimum or (keep is not None and not keep(recs[i])):
            continue
        try:
            out.append(_root_bic(family, recs[i - 1: i + 2], width_tol, null_tol))
            continue
        except _NoRoot:
            pass

        def branch(p, seed=recs[i]):
            return solve_resonance(family(p), seed.energy, seed.vector)

        def branch_width(p):
            r = branch(p)
            return r.width if r.converged else np.inf

        p_star, err = _golden_minimize(branch_width, recs[i - 1].param,
                                       recs[i + 1].param, _PARAM_TOL)
        rec = branch(p_star)
        bic = bic_record(p_star, family(p_star)(rec.energy), rec.energy, rec.z,
                         rec.vector, width_tol, null_tol)
        bic.param_err = err
        out.append(bic)
    return out


def bic_record(p: float, h: EffectiveHamiltonian, energy: float, z: complex,
               vector: np.ndarray, width_tol: float, null_tol: float) -> BICRecord:
    """BIC record of the eigenpair (z, vector) of ``h`` at parameter p: its
    width -2 Im z and null residual ||(energy - H_eff) a|| against the two
    tolerances, labelled by the basis labels of ``h``.  The residual
    is summed over the symmetry blocks, so the mode-basis matrix is not
    formed."""
    residual = float(np.linalg.norm(np.concatenate(
        [(energy * np.eye(part.shape[0]) - part) @ block.project(vector)
         for block, part in h.pieces])))
    gamma = -2.0 * z.imag
    return BICRecord(param=p, omega_sq=energy, null_vector=vector, gamma_res=gamma,
                     residual=residual,
                     is_bic=bool(gamma <= width_tol and residual <= null_tol),
                     labels=tuple(h.basis.labels))


def bic_mode(record: BICRecord, labels: Sequence) -> list[tuple]:
    """Unit-norm modal expansion of a BIC, sorted by |a_n| descending."""
    a = _unit(np.asarray(record.null_vector))
    order = np.argsort(-np.abs(a))
    lab = list(labels) if len(labels) else list(range(a.size))
    return [(lab[i], complex(a[i])) for i in order]

