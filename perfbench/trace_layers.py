"""Per-layer tracing from outside the program.

``install(tracer)`` replaces functions of the ``openres`` modules (and the
dense LAPACK entry points they call) by timing wrappers, set as module
attributes; ``uninstall()`` puts the originals back.  Nothing under ``src``
is changed: every call site in the package looks these functions up by
module attribute or module global at call time, so the wrappers see them.

Two kinds of wrapped call:

- span: one record per call (name, start, end, parent span, thread, run id),
  kept in memory and written by ``write_spans`` when the run ends;
- tally: hot leaf functions (hundreds of thousands of calls per run) are
  only counted and timed, so that tracing overhead stays bounded.

Both kinds report self time: the call's duration minus the time covered by
its child calls.  Children on the caller's own thread run one after another
inside it, so their durations add up.  A call that starts on a thread with
nothing open (a sweep worker: ``ThreadPoolExecutor`` carries no context
across threads) takes as parent the innermost call open on the thread that
installed the tracer, which is blocked waiting for the workers; those
children overlap one another, so the parent is charged the length of the
union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import uuid
from collections import defaultdict

# matrix sizes of the cavity models at the workloads' truncations:
# planar m=n=20, sinai 15x15, planar m=n=14, cylinder, sphere; dense calls of
# any other size (symmetry blocks, say) are tallied as ``.other``
SIZES = (400, 225, 196, 162, 147)
MODULES = ("cli", "sweep", "hcore", "specfun", "planar2d", "cyl3d", "sph3d",
           "wires1d", "toymodels")
MAP_COMMANDS = ("planar", "sinai", "cyl", "sphere", "abring", "twolevel")
RESONANCE_COMMANDS = ("planar", "sinai", "cyl", "sphere")


def per_layer_metrics() -> list[tuple[str, str, str, str | None]]:
    """(metric, unit, better, layer) of every per-layer metric.

    ``layer`` is the wrapped name the metric comes from; when ``install``
    cannot find that function (a later change removed it), the metric is
    absent from the report rather than zero."""
    rows = []

    def timed(name, calls=True):
        if calls:
            rows.append((f"{name}.calls", "count", "lower", name))
        rows.append((f"{name}.s", "s", "lower", name))

    def counter(metric, layer, unit="count", better="lower"):
        rows.append((metric, unit, better, layer))

    timed("hcore.eig.dense")
    counter("hcore.eig.dense.work_n3", "hcore.eig.dense")
    for n in SIZES:
        timed(f"hcore.eig.dense.n{n}")
    timed("hcore.eig.dense.other")
    timed("hcore.eig.rqi")
    counter("hcore.eig.rqi.fallbacks", "hcore.eig.rqi")
    timed("hcore.eig.shift_invert")
    timed("hcore.solve_resonance")
    counter("hcore.solve_resonance.iterations", "hcore.solve_resonance")
    counter("hcore.solve_resonance.unconverged", "hcore.solve_resonance")
    counter("hcore.minimiser.evals", "hcore.minimiser")
    for name in ("hcore.track", "hcore.find_bics", "hcore.assemble", "hcore.green",
                 "hcore.lu"):
        timed(name)
    for n in SIZES:
        timed(f"hcore.lu.n{n}")
    timed("hcore.lu.other")
    timed("hcore.smatrix")
    counter("hcore.resonances.seeds", "hcore.resonances", better="higher")
    counter("hcore.resonances.distinct", "hcore.resonances", better="higher")
    counter("hcore.resonances.distinct_ratio", "hcore.resonances", "ratio", "higher")
    for name in ("specfun.bessel_j", "specfun.roots", "specfun.wigner_small_d",
                 "specfun.assoc_legendre", "sph3d.sphere_pole_coupling",
                 "sph3d.rotate_coupling"):
        timed(name)
    timed("sph3d.sphere_fw_bic", calls=False)
    timed("cyl3d.disk_overlaps")
    timed("cyl3d.cyl_find_bics", calls=False)
    timed("planar2d.raw_coupling")
    timed("planar2d.planar_fw_bic", calls=False)
    timed("wires1d.ring_solve")
    timed("toymodels.twolevel_transmission")
    timed("sweep.run_sweep", calls=False)
    counter("sweep.points", "sweep.run_sweep", better="higher")
    counter("sweep.nan_points", "sweep.run_sweep")
    timed("sweep.write_map", calls=False)
    counter("sweep.write_map.bytes", "sweep.write_map", "B")
    timed("sweep.write_catalog", calls=False)
    timed("sweep.write_resonances", calls=False)
    for model in MAP_COMMANDS:
        timed(f"cli.main.{model}.map", calls=False)
    for model in RESONANCE_COMMANDS:
        timed(f"cli.main.{model}.resonances", calls=False)
    for mod in MODULES:
        rows.append((f"{mod}.self_s", "s", "lower", None))
    rows.append(("trace.wall_s", "s", "lower", None))
    rows.append(("trace.overhead_s", "s", "lower", None))
    return rows


class _Frame:
    __slots__ = ("name", "span_id", "parent", "foreign", "start", "child_s",
                 "foreign_iv", "size")

    def __init__(self, name, span_id, parent, foreign, start, size=None):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.foreign = foreign      # parent is open on another thread
        self.start = start
        self.child_s = 0.0          # same-thread children, summed
        self.foreign_iv = []        # other-thread children, as intervals
        self.size = size            # matrix size of a dense kernel call


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Spans and tallies of one run; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter, run_id: str | None = None):
        self.clock = clock
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans = []                              # closed spans, as dicts
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)            # inclusive
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)           # iterations, bytes, ...
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> _Frame | None:
        """The innermost call open on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def enter(self, name: str, span: bool = True, size: int | None = None) -> _Frame:
        stack = self._stack()
        if stack:
            parent, foreign = stack[-1], False
        elif stack is not self._root_stack and self._root_stack:
            parent, foreign = self._root_stack[-1], True
        else:
            parent, foreign = None, False
        frame = _Frame(name, next(self._ids) if span else None, parent, foreign,
                       self.clock(), size)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        stack.pop()
        duration = end - frame.start
        with self._lock:
            covered = frame.child_s + union_length(frame.foreign_iv)
            self.calls[frame.name] += 1
            self.seconds[frame.name] += duration
            self.self_seconds[frame.name] += duration - covered
            if frame.span_id is not None:
                parent = frame.parent
                while parent is not None and parent.span_id is None:
                    parent = parent.parent          # nearest span, not a tally
                self.spans.append({
                    "id": frame.span_id, "name": frame.name,
                    "parent": parent.span_id if parent else None,
                    "start": frame.start, "end": end,
                    "self_s": duration - covered,
                    "thread": threading.get_ident(), "run": self.run_id})
            if frame.parent is not None and frame.foreign:
                frame.parent.foreign_iv.append((frame.start, end))
        if frame.parent is not None and not frame.foreign:
            frame.parent.child_s += duration
        return duration

    def tally(self, name: str, seconds: float, calls: int = 1) -> None:
        """Extra inclusive tally (per-size breakdowns) outside the tree."""
        with self._lock:
            self.calls[name] += calls
            self.seconds[name] += seconds

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def module_self_seconds(self) -> dict:
        """Self time per layer: a name's first dotted part is its module."""
        out = dict.fromkeys(MODULES, 0.0)
        for name, sec in self.self_seconds.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + sec
        return out

    def metrics(self) -> dict:
        """Per-layer metrics by name: ``<layer>.calls``, ``<layer>.s``, the
        counters, and ``<module>.self_s``."""
        m = {}
        for name in self.calls:
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.s"] = self.seconds[name]
        m.update(self.counters)
        seeds = self.counters.get("hcore.resonances.seeds", 0.0)
        m["hcore.resonances.distinct_ratio"] = (
            self.counters.get("hcore.resonances.distinct", 0.0) / seeds if seeds else 0.0)
        for mod, sec in self.module_self_seconds().items():
            m[f"{mod}.self_s"] = sec
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


# ------------------------------------------------------------ wrappers --

_installed = []     # (owner, attribute, original)


def _patch(owner, attr: str, make) -> bool:
    original = getattr(owner, attr, None)
    if original is None:
        return False
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    _installed.append((owner, attr, original))
    setattr(owner, attr, wrapper)
    return True


def _timed(tracer: Tracer, name: str, span: bool, after=None, sized=False):
    """Wrapper factory: time each call as ``name``; ``after(result, args,
    kwargs, seconds)`` records extra counters from the call; ``sized`` keeps
    the size of the call's matrix argument on its frame."""
    def make(fn):
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, span, args[0].shape[-1] if sized else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.exit(frame)
            if after is not None:
                after(result, args, kwargs, seconds)
            return result
        return wrapper
    return make


def _sized(tracer: Tracer, base: str):
    """Per-matrix-size tallies and the summed n^3 work of a dense kernel."""
    def after(result, args, kwargs, seconds):
        n = args[0].shape[-1]
        tracer.tally(f"{base}.n{n}" if n in SIZES else f"{base}.other", seconds)
        tracer.count(f"{base}.work_n3", float(n) ** 3)
    return after


def install(tracer: Tracer) -> set:
    """Wrap the traced functions; returns the layer names wrapped.  A
    function that no longer exists is skipped."""
    import numpy as np
    import scipy.linalg as sla
    from checks import distinct_poles
    from openres import (cli, cyl3d, hcore, planar2d, sph3d, specfun, sweep,
                         toymodels, wires1d)

    if _installed:
        raise RuntimeError("tracer already installed")
    wrapped = set()

    def patch(owner, attr, name, make):
        if _patch(owner, attr, make):
            wrapped.add(name)

    def span(owner, attr, name, after=None):
        patch(owner, attr, name, _timed(tracer, name, True, after))

    def tally(owner, attr, name, after=None):
        patch(owner, attr, name, _timed(tracer, name, False, after))

    # hcore: eigensolve paths, fixed point, minimiser, tracking, scattering
    def dense_eig(fn):
        timed = _timed(tracer, "hcore.eig.dense", False,
                       _sized(tracer, "hcore.eig.dense"))(fn)

        def wrapper(a, *args, **kwargs):
            if is_eig_step(tracer.innermost(), a.shape[-1]):
                return fn(a, *args, **kwargs)
            return timed(a, *args, **kwargs)
        return wrapper
    patch(np.linalg, "eig", "hcore.eig.dense", dense_eig)
    tally(sla, "lu_factor", "hcore.lu", _sized(tracer, "hcore.lu"))

    def rqi_after(result, args, kwargs, seconds):
        if result is None:
            tracer.count("hcore.eig.rqi.fallbacks")
    tally(hcore, "_rqi", "hcore.eig.rqi", rqi_after)
    patch(hcore, "_eig_near", "hcore.eig.shift_invert",
          _timed(tracer, "hcore.eig.shift_invert", False, sized=True))

    def solve_after(rec, args, kwargs, seconds):
        tracer.count("hcore.solve_resonance.iterations", rec.iterations)
        if not rec.converged:
            tracer.count("hcore.solve_resonance.unconverged")
    span(hcore, "solve_resonance", "hcore.solve_resonance", solve_after)

    def resonances_after(recs, args, kwargs, seconds):
        distinct = distinct_poles(r.z for r in recs if r.converged)
        tracer.count("hcore.resonances.seeds", len(recs))
        tracer.count("hcore.resonances.distinct", len(distinct))
    span(hcore, "resonances", "hcore.resonances", resonances_after)

    def golden(fn):
        def wrapper(fun, *args, **kwargs):
            def objective(x):
                tracer.count("hcore.minimiser.evals")
                return fun(x)
            return fn(objective, *args, **kwargs)
        return _timed(tracer, "hcore.minimiser", True)(wrapper)
    patch(hcore, "_golden_minimize", "hcore.minimiser", golden)

    span(hcore, "track", "hcore.track")
    span(hcore, "find_bics", "hcore.find_bics")
    tally(hcore, "assemble", "hcore.assemble")
    tally(hcore, "green", "hcore.green")
    span(hcore, "smatrix", "hcore.smatrix")

    # specfun: hot leaves, tallied
    tally(specfun, "bessel_j", "specfun.bessel_j")
    for attr in ("neumann_roots", "half_integer_neumann_roots",
                 "spherical_neumann_roots"):
        tally(specfun, attr, "specfun.roots")
    tally(specfun, "wigner_small_d", "specfun.wigner_small_d")
    tally(specfun, "assoc_legendre", "specfun.assoc_legendre")

    # model modules: coupling construction and the BIC finders
    span(sph3d, "sphere_pole_coupling", "sph3d.sphere_pole_coupling")
    span(sph3d, "rotate_coupling", "sph3d.rotate_coupling")
    span(sph3d, "sphere_fw_bic", "sph3d.sphere_fw_bic")
    span(cyl3d, "disk_overlaps", "cyl3d.disk_overlaps")
    span(cyl3d, "cyl_find_bics", "cyl3d.cyl_find_bics")
    span(planar2d, "raw_coupling", "planar2d.raw_coupling")
    span(planar2d, "planar_fw_bic", "planar2d.planar_fw_bic")
    tally(wires1d, "ring_solve", "wires1d.ring_solve")
    tally(toymodels, "twolevel_transmission", "toymodels.twolevel_transmission")

    # sweep and file output
    def sweep_after(result, args, kwargs, seconds):
        vals = result.values[:, 2:]
        tracer.count("sweep.points", vals.shape[0])
        tracer.count("sweep.nan_points", int(np.isnan(vals).any(axis=1).sum()))
    span(sweep, "run_sweep", "sweep.run_sweep", sweep_after)

    def map_bytes(result, args, kwargs, seconds):
        tracer.count("sweep.write_map.bytes", os.path.getsize(args[0]))
    span(sweep, "write_map", "sweep.write_map", map_bytes)
    span(sweep, "write_catalog", "sweep.write_catalog")
    span(sweep, "write_resonances", "sweep.write_resonances")

    # cli: one span name per invocation, cli.main.<model>.<verb>
    def cli_main(fn):
        def wrapper(argv=None):
            name = "cli.main." + ".".join(argv[:2]) if argv else "cli.main"
            return _timed(tracer, name, True)(fn)(argv)
        return wrapper
    patch(cli, "main", "cli.main", cli_main)
    return wrapped


def is_eig_step(frame: _Frame | None, n: int) -> bool:
    """Whether a dense eig of size ``n`` called inside ``frame`` is a step of
    that layer rather than an eigensolve of a cavity: the 2x2 matrix of a
    two-level transmission, or the Rayleigh-Ritz matrix of the shift-invert
    path (whose dense fallback, at the full size, is an eigensolve)."""
    if frame is None:
        return False
    if frame.name == "toymodels.twolevel_transmission":
        return True
    return frame.name == "hcore.eig.shift_invert" and n < frame.size


def present(layer: str | None, wrapped: set) -> bool:
    """Whether a metric of ``layer`` can be measured (see per_layer_metrics)."""
    return layer is None or any(layer == w or layer.startswith(w + ".")
                                for w in wrapped)


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
