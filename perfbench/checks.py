"""Correctness checks of one workload iteration's outputs.

Each check counts the operations it examined (``attempted``) and those that
failed: a BIC missing or outside tolerance, a reference pole not found
again, a map row that is not finite, out of range or off the reference, and
a CLI invocation with a non-zero exit code.  The twolevel map's (0, 0)
collapse point is counted apart as a singular row: the program reports
``SingularTransmissionPoint`` there by design, because the value depends on
the approach path.

Outputs are parsed here rather than with the program's own readers, so that
a reader bug cannot hide a writer bug.

    PYTHONPATH=src python3 perfbench/checks.py reference RESONANCES_DIR MAP_DIR...

rewrites ``reference.json`` from the outputs of seed-0 iterations.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# BIC acceptance; the relative tolerance sits well above the resolution of
# the golden-section refinement (about 1e-8), which is what moving the scan
# window or the BLAS thread count changes
BIC_WIDTH_TOL = 1e-8
BIC_RESIDUAL_TOL = 1e-7
BIC_REL_TOL = 1e-6
# resonance poles: same pole within this relative distance
POLE_REL_TOL = 1e-7
POLE_DEDUP_REL = 1e-8
WIDTH_FLOOR = -1e-9
# maps
T_MAX = 1.0 + 1e-9
FLUX_TOL = 1e-9
MAP_ATOL = {"cavity": 1e-7, "light": 1e-9}
LIGHT_REFERENCE_STRIDE = 53
RECOMPUTE_SAMPLES = 3


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    singular_rows: int = 0
    problems: list = field(default_factory=list)

    def item(self, ok: bool, what: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.singular_rows += other.singular_rows
        self.problems += other.problems[: 20 - len(self.problems)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _data_lines(path: Path):
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            yield line.split()


# ------------------------------------------------------------------ bics --

def read_catalog(path: Path) -> list[dict]:
    """BIC catalog rows: index classification param omega_sq gamma_res residual ..."""
    return [{"param": float(t[2]), "omega_sq": float(t[3]),
             "gamma_res": float(t[4]), "residual": float(t[5])}
            for t in _data_lines(path)]


def check_bics(out: Path, seed: int, result: dict) -> Outcome:
    res = Outcome()
    for search in workloads.bic_searches(seed):
        path = out / f"{search.name}_bics.dat"
        rows = read_catalog(path) if path.exists() else []
        flags = result.get("is_bic", {}).get(search.name, [])
        res.item(len(flags) == len(rows) and all(flags),
                 f"{search.name}: is_bic flags {flags}")
        if not rows:
            res.item(False, f"{search.name}: no BIC in {path.name}")
            continue
        best = min(rows, key=lambda r: _rel(r["param"], search.param))
        for row in rows:
            ok = (row["gamma_res"] <= BIC_WIDTH_TOL
                  and row["residual"] <= BIC_RESIDUAL_TOL)
            if row is best:
                ok = ok and (_rel(row["param"], search.param) <= BIC_REL_TOL
                             and _rel(row["omega_sq"], search.omega_sq) <= BIC_REL_TOL)
            res.item(ok, f"{search.name}: {row} vs reference param={search.param} "
                         f"omega_sq={search.omega_sq}")
    return res


# ------------------------------------------------------------ resonances --

def read_poles(path: Path) -> list[tuple[complex, bool]]:
    """Resonance catalog rows: index re_z im_z width converged iterations."""
    return [(complex(float(t[1]), float(t[2])), t[4] == "1")
            for t in _data_lines(path)]


def distinct_poles(poles) -> list[complex]:
    out = []
    for z in poles:
        if not any(abs(z - w) <= POLE_DEDUP_REL * max(1.0, abs(w)) for w in out):
            out.append(z)
    return out


def check_resonances(out: Path, result: dict, reference: dict) -> Outcome:
    res = Outcome()
    for model, code in result.get("exit_codes", {}).items():
        res.item(code == 0, f"openres {model} resonances exited {code}")
    for model, ref in reference["resonances"].items():
        path = out / f"{model}_resonances.dat"
        rows = read_poles(path) if path.exists() else []
        for re_z, im_z in ref:
            z_ref = complex(re_z, im_z)
            found = [(z, conv) for z, conv in rows
                     if abs(z - z_ref) <= POLE_REL_TOL * max(1.0, abs(z_ref))]
            ok = any(conv and -2.0 * z.imag >= WIDTH_FLOOR for z, conv in found)
            res.item(ok, f"{model}: pole {z_ref} not found again")
    return res


# ------------------------------------------------------------------ maps --

def read_map(path: Path) -> np.ndarray:
    """Rows of a map file: axis1, axis2, then the value columns."""
    return np.loadtxt(path, comments="#", ndmin=2)


def _grid(axis) -> np.ndarray:
    return np.linspace(axis.lo, axis.hi, axis.count)


def _singular_points(out: Path, model: str) -> set:
    """Grid points the program reported as SingularTransmissionPoint."""
    diag = out / f"{model}_map.dat.diag"
    if not diag.exists():
        return set()
    pts = set()
    for line in diag.read_text().splitlines():
        toks = line.split()
        if len(toks) >= 3 and toks[2].startswith("SingularTransmissionPoint"):
            # coordinates are reprs: "0.5" or "np.float64(0.5)"
            pts.add(tuple(float(t.removeprefix("np.float64(").rstrip(")"))
                          for t in toks[:2]))
    return pts


def _row_ok(model: str, vals: np.ndarray) -> bool:
    """Range and conservation checks of one map row's value columns."""
    if model == "abring":
        t2, r2 = vals
        return 0.0 <= t2 <= T_MAX and 0.0 <= r2 <= T_MAX and abs(t2 + r2 - 1.0) <= FLUX_TOL
    if model == "twolevel":
        t2, abs_t = vals
        return 0.0 <= t2 <= T_MAX and abs(abs_t * abs_t - t2) <= FLUX_TOL
    return bool(np.all((vals >= 0.0) & (vals <= T_MAX)))


def check_map(out: Path, spec, seed: int, reference: dict | None) -> Outcome:
    res = Outcome()
    path = out / f"{spec.model}_map.dat"
    if not path.exists():
        res.item(False, f"{spec.model}: {path.name} missing", count=spec.points)
        return res
    rows = read_map(path)
    a1, a2 = _grid(spec.axis1), _grid(spec.axis2)
    want = np.column_stack([np.repeat(a1, a2.size), np.tile(a2, a1.size)])
    if rows.shape[0] != spec.points or not np.allclose(rows[:, :2], want,
                                                       rtol=1e-12, atol=1e-12):
        res.item(False, f"{spec.model}: grid differs from the request",
                 count=spec.points)
        return res
    singular = _singular_points(out, spec.model)
    for row in rows:
        vals = row[2:]
        if not np.all(np.isfinite(vals)):
            point = (float(row[0]), float(row[1]))
            if spec.model == "twolevel" and point == (0.0, 0.0) and point in singular:
                res.singular_rows += 1
                continue
            res.item(False, f"{spec.model}: NaN row at {point}")
            continue
        res.item(_row_ok(spec.model, vals), f"{spec.model}: row {row.tolist()} "
                                             "out of range")
    if reference is not None:
        ref = np.array(reference["maps"][spec.model], dtype=float)
        idx = ref[:, 0].astype(int)
        got = rows[idx, 2:]
        bad = ~np.isclose(got, ref[:, 1:], rtol=0.0, atol=MAP_ATOL[spec.kind],
                          equal_nan=True).all(axis=1)
        res.item(not bad.any(), f"{spec.model}: {int(bad.sum())} rows differ "
                                "from the stored reference")
    else:
        rng = random.Random(f"{seed}:{spec.model}:sample")
        for i in rng.sample(range(spec.points), RECOMPUTE_SAMPLES):
            row = rows[i]
            if not np.all(np.isfinite(row[2:])):
                continue
            expect = recompute_point(spec.model, row[0], row[1], spec)
            ok = np.allclose(row[2:], expect, rtol=0.0, atol=MAP_ATOL[spec.kind])
            res.item(ok, f"{spec.model}: row {row.tolist()} vs direct {expect}")
    return res


def check_maps(out: Path, seed: int, result: dict, reference: dict) -> Outcome:
    res = Outcome()
    for model, code in result.get("exit_codes", {}).items():
        res.item(code == 0, f"openres {model} map exited {code}")
    ref = reference if seed == workloads.DEFAULT_SEED else None
    for spec in workloads.map_specs(seed):
        res.merge(check_map(out, spec, seed, ref))
    return res


# ---------------------------------------------- direct recomputation --

def _dense_smatrix(heff, energy: float):
    """S over open channels from a dense solve of (E - H_eff) X = W."""
    open_idx = [i for i, c in enumerate(heff.channels) if c.is_open(energy)]
    w = heff.coupling.matrix[:, open_idx]
    k = np.sqrt([heff.channels[i].wavenumber(energy).real for i in open_idx])
    n = heff.matrix.shape[0]
    gw = np.linalg.solve(energy * np.eye(n) - heff.matrix, w)
    s = np.eye(len(open_idx)) - 2j * k[:, None] * (w.conj().T @ gw) * k[None, :]
    return s, [heff.channels[i] for i in open_idx]


@functools.lru_cache(maxsize=None)
def recompute_point(model: str, x1: float, x2: float, spec) -> list[float]:
    """One map point recomputed from the model's H_eff (built by
    ``hcore.assemble``) with a dense solve, outside the sweep and the
    S-matrix code the map used.  Cached: every copy of a run maps the same
    points."""
    from openres import cli, cyl3d, planar2d, sph3d, toymodels, wires1d

    p = dict(cli.DEFAULTS[model])
    p[spec.axis1.name], p[spec.axis2.name] = x1, x2
    e = p.get("energy")
    if model == "planar":
        cav = planar2d.RectCavity(p["lx"], p["ly"], "dirichlet", p["m_max"], p["n_max"])
        s, chans = _dense_smatrix(planar2d.planar_model(cav, p["p_max"])(e), e)
        trans = {(cj.label[1], ci.label[1]): abs(s[i, j]) ** 2
                 for i, ci in enumerate(chans) for j, cj in enumerate(chans)
                 if ci.port == "R" and cj.port == "L"}
        return [trans.get((1, 1), 0.0), sum(trans.values())]
    if model == "sinai":
        cav = planar2d.RectCavity(p["lx"], p["ly"], "neumann", p["m_max"], p["n_max"])
        fam = planar2d.sinai_model(cav, planar2d.SinaiBump(p["vg"], p["radius"],
                                                           p["x0"], p["y0"]),
                                   p_max=p["p_max"])
        s, chans = _dense_smatrix(fam(e), e)
        il = [i for i, c in enumerate(chans) if c.port == "L"][:1]
        return [sum(abs(s[i, j]) ** 2 for i, c in enumerate(chans) if c.port == "R"
                    for j in il)]
    if model == "cyl":
        cav = cyl3d.CylCavity(p["radius"], p["length"], p["m_max"], p["n_max"], p["l_max"])
        s, chans = _dense_smatrix(cyl3d.cyl_model(cav, p["dphi"], p["r0"])(e), e)
        idx = {(c.port,) + tuple(c.label[1:]): i for i, c in enumerate(chans)}
        if ("L", 0, 1) not in idx or ("R", 0, 1) not in idx:
            return [math.nan]
        return [abs(s[idx[("L", 0, 1)], idx[("R", 0, 1)]]) ** 2]
    if model == "sphere":
        cav = sph3d.SphereCavity(p["radius"], p["l_max"], p["n_max"])
        m = sph3d.sphere_model(cav, (sph3d.WaveguideAttachment("in"),
                                     sph3d.WaveguideAttachment("out", beta=p["dtheta"])))
        s, chans = _dense_smatrix(m(e), e)
        idx = {c.port: i for i, c in enumerate(chans)}
        return [abs(s[idx["out"], idx["in"]]) ** 2]
    if model == "abring":
        cf = wires1d.ring_closed_form(wires1d.RingParams(p["k"], p["gamma"]))
        return [abs(cf["t"]) ** 2, abs(cf["r"]) ** 2]
    if model == "twolevel":
        pp = toymodels.TwoLevelParams(p["eps"], p["gamma1"], p["gamma2"], p["u"])
        s, chans = _dense_smatrix(toymodels.twolevel_model(pp)(e), e)
        idx = {c.port: i for i, c in enumerate(chans)}
        t2 = abs(s[idx["R"], idx["L"]]) ** 2
        return [t2, math.sqrt(t2)]
    raise ValueError(f"no direct recomputation for {model}")


# -------------------------------------------------------------- dispatch --

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_iteration(workload: str, out: Path, seed: int, result: dict,
                    reference: dict) -> Outcome:
    if workload == "bics":
        return check_bics(out, seed, result)
    if workload == "resonances":
        return check_resonances(out, result, reference)
    return check_maps(out, seed, result, reference)


def build_reference(res_dir: Path, map_dirs) -> dict:
    """Reference data from seed-0 outputs: every distinct pole per model,
    every cavity map row and every ``LIGHT_REFERENCE_STRIDE``-th light row."""
    ref = {"resonances": {}, "maps": {}}
    for model in workloads.RESONANCE_MODELS:
        poles = distinct_poles(z for z, conv in read_poles(
            res_dir / f"{model}_resonances.dat") if conv)
        ref["resonances"][model] = [[z.real, z.imag] for z in poles]
    for spec in workloads.map_specs(workloads.DEFAULT_SEED):
        path = next(d / f"{spec.model}_map.dat" for d in map_dirs
                    if (d / f"{spec.model}_map.dat").exists())
        rows = read_map(path)
        step = 1 if spec.kind == "cavity" else LIGHT_REFERENCE_STRIDE
        idx = np.arange(0, rows.shape[0], step)
        ref["maps"][spec.model] = [[int(i)] + [None if math.isnan(v) else float(v)
                                               for v in rows[i, 2:]] for i in idx]
    return ref


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] != "reference":
        sys.exit(__doc__)
    data = build_reference(Path(sys.argv[2]), [Path(d) for d in sys.argv[3:]])
    REFERENCE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
