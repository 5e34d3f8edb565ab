"""The three benchmark workloads, run in a fresh interpreter per iteration.

    python3 perfbench/workloads.py --workload bics --seed 0 --out DIR [--trace]

``run.py`` starts this script with ``src`` of the checkout first on
``PYTHONPATH`` and BLAS pinned to one thread.  It writes the program's
outputs (catalogs, maps) and ``result.json`` (timings, peak memory and, with
``--trace``, the per-layer metrics and the span list) into DIR.

The workload inputs are plain data built from the seed by ``bic_searches``,
``resonance_argvs`` and ``map_specs``; the checker imports the same
functions, so it knows what each run was asked to compute.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bics", "resonances", "maps")
DEFAULT_SEED = 0
MAP_THREADS = 2
RESONANCE_MODELS = ("planar", "sinai", "cyl", "sphere")


def seed_shift(seed: int, key: str) -> float:
    """Offset in grid steps, within [-1/4, 1/4]; seed 0 is the unshifted
    reference input set."""
    if seed == DEFAULT_SEED:
        return 0.0
    return random.Random(f"{seed}:{key}").uniform(-0.25, 0.25)


# ------------------------------------------------------------------ bics --

@dataclass(frozen=True)
class BicSearch:
    name: str           # catalog stem: <name>_bics.dat
    kwargs: dict        # plain-number arguments of the finder
    param: float        # reference parameter of the BIC
    omega_sq: float     # reference frequency

    def header_params(self) -> dict:
        """Flat name -> float view of the finder arguments."""
        flat = {}
        for key, val in self.kwargs.items():
            if isinstance(val, tuple):
                flat.update((f"{key}{i}", float(v)) for i, v in enumerate(val))
            else:
                flat[key] = float(val)
        return flat


def bic_searches(seed: int) -> list[BicSearch]:
    """Criteria 5, 7 and 8 of the acceptance suite at reduced size, with
    each BIC's parameter and frequency as found at seed 0.

    The seed moves each scan window by at most a quarter of its grid step;
    the golden-section refinement lands on the same BIC."""
    # planar_fw_bic scans 13 points over ly0 * (1 +- span); scaling span by
    # (1 + u/6) moves every scan point by at most |u| steps
    span = 0.012 * (1.0 + seed_shift(seed, "planar.span") / 6.0)
    cyl_step = 0.05
    cyl_lo = 2.95 + seed_shift(seed, "cyl.window") * cyl_step
    sph_step = 0.14 * math.pi / 8
    sph_lo = 0.68 * math.pi + seed_shift(seed, "sphere.window") * sph_step
    return [
        BicSearch("planar", dict(lx=4.0, p_max=8, m_max=14, n_max=14, span=span),
                  4.616861312, 14.04343882),
        BicSearch("cyl", dict(radius=3.0, length=3.0, m_max=4, n_max=3, l_max=6,
                              dphi=math.pi / 4,
                              grid=(cyl_lo, cyl_lo + 4 * cyl_step, 5)),
                  3.051328214, 1.060039116),
        BicSearch("sphere", dict(radius=4.2, l_max=6, n_max=3, n_grid=9,
                                 theta_range=(sph_lo, sph_lo + 8 * sph_step)),
                  2.278528976, 1.987337863),
    ]


def _run_bics(seed: int, out: Path) -> dict:
    import numpy as np
    from openres import cyl3d, planar2d, sph3d, sweep

    done = {}
    for search in bic_searches(seed):
        kw = dict(search.kwargs)
        if search.name == "planar":
            rec, _ = planar2d.planar_fw_bic(**kw)
            recs = [rec]
        elif search.name == "cyl":
            cav = cyl3d.CylCavity(kw.pop("radius"), kw.pop("length"),
                                  kw.pop("m_max"), kw.pop("n_max"), kw.pop("l_max"))
            recs = cyl3d.cyl_find_bics(cav, kw["dphi"], "length",
                                       np.linspace(*kw["grid"]))
        else:
            cav = sph3d.SphereCavity(kw.pop("radius"), kw.pop("l_max"), kw.pop("n_max"))
            recs = [sph3d.sphere_fw_bic(cav, **kw)]
        sweep.write_catalog(out / f"{search.name}_bics.dat", search.name,
                            search.header_params(), recs)
        done[search.name] = [bool(r.is_bic) for r in recs]
    return {"is_bic": done}


# ------------------------------------------------------------ resonances --

def resonance_argvs(out: Path) -> list[list[str]]:
    """``openres <model> resonances`` with default parameters."""
    return [[m, "resonances", "--out", str(out)] for m in RESONANCE_MODELS]


def _run_resonances(seed: int, out: Path) -> dict:
    from openres import cli

    codes = {}
    for argv in resonance_argvs(out):
        codes[argv[0]] = cli.main(argv)
    return {"exit_codes": codes}


# ------------------------------------------------------------------ maps --

@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def arg(self) -> str:
        return f"{self.name}:{self.lo!r}:{self.hi!r}:{self.count}"

    def shifted(self, frac: float) -> "Axis":
        d = frac * (self.hi - self.lo) / (self.count - 1)
        return Axis(self.name, self.lo + d, self.hi + d, self.count)


@dataclass(frozen=True)
class MapSpec:
    model: str
    kind: str           # "cavity" (LAPACK-bound) or "light" (Python per point)
    axis1: Axis
    axis2: Axis

    @property
    def points(self) -> int:
        return self.axis1.count * self.axis2.count

    def argv(self, out: Path) -> list[str]:
        return [self.model, "map", "--axis1", self.axis1.arg(),
                "--axis2", self.axis2.arg(), "--threads", str(MAP_THREADS),
                "--out", str(out)]


_MAPS = (
    MapSpec("planar", "cavity", Axis("ly", 3.0, 5.0, 5), Axis("energy", 12.0, 30.0, 20)),
    MapSpec("sinai", "cavity", Axis("vg", -20.0, 20.0, 10), Axis("energy", 12.0, 30.0, 20)),
    MapSpec("cyl", "cavity", Axis("length", 3.0, 5.0, 10), Axis("energy", 0.1, 3.0, 20)),
    MapSpec("sphere", "cavity", Axis("dtheta", 1.0, 3.0, 5), Axis("energy", 0.05, 3.0, 20)),
    MapSpec("abring", "light", Axis("gamma", 0.0, 12.566, 201), Axis("k", 0.05, 12.566, 201)),
    # the README's Fano map; its (eps, E) = (0, 0) collapse point must stay
    # on the grid, so the seed does not move it
    MapSpec("twolevel", "light", Axis("eps", -2.0, 2.0, 101), Axis("energy", -2.0, 2.0, 101)),
)


def map_specs(seed: int) -> list[MapSpec]:
    out = []
    for spec in _MAPS:
        if spec.model == "twolevel":
            out.append(spec)
            continue
        out.append(MapSpec(spec.model, spec.kind,
                           spec.axis1.shifted(seed_shift(seed, f"{spec.model}.axis1")),
                           spec.axis2.shifted(seed_shift(seed, f"{spec.model}.axis2"))))
    return out


def _run_maps(seed: int, out: Path) -> dict:
    """Every map verb; ``map_s`` holds the seconds of each kind of map, for
    its points per second."""
    from openres import cli

    codes, seconds = {}, {}
    for spec in map_specs(seed):
        t0 = time.perf_counter()
        codes[spec.model] = cli.main(spec.argv(out))
        seconds[spec.kind] = seconds.get(spec.kind, 0.0) + time.perf_counter() - t0
    return {"exit_codes": codes, "map_s": seconds}


_RUNNERS = {
    "bics": _run_bics,
    "resonances": _run_resonances,
    "maps": _run_maps,
}


# ------------------------------------------------------------------ main --

def _peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), which exec resets."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import numpy
    import scipy
    import openres
    from openres import cli  # noqa: F401  (imports every model module)

    tracer = None
    if args.trace:
        import trace_layers
        tracer = trace_layers.Tracer()
        wrapped = trace_layers.install(tracer)

    t0 = time.perf_counter()
    info = _RUNNERS[args.workload](args.seed, out)
    wall = time.perf_counter() - t0

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"workload": args.workload, "seed": args.seed, "wall_s": wall,
              "peak_rss_mb": _peak_rss_mb(), "openres_file": openres.__file__,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}", **info}
    if tracer is not None:
        trace_layers.uninstall()
        result["layers"] = tracer.metrics()
        result["layers_wrapped"] = sorted(wrapped)
        tracer.write_spans(out / "spans.jsonl")
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
