"""Parameter-sweep engine, BIC catalogs and flat-file outputs.

Maps are evaluated on a row-major (axis1 outer, axis2 inner) grid, in
parallel over axis1 rows, and written by a single writer in deterministic
order; identical configurations produce byte-identical files regardless of
the thread count.  Numbers are written with 17 significant digits so files
round-trip doubles exactly.  Per-point solver failures become NaN rows plus
a line in a ``.diag`` sidecar.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, hcore

_FMT = "%.16e"
# modal coefficients written per catalog row
_CATALOG_MODES = 8
# what a grid point may fail with and still become a NaN row: numerical
# singularities (the RuntimeErrors SingularScattering, SingularPoint,
# SingularTransmissionPoint), LAPACK failures and domain errors such as "no
# open channel" (ValueError).  Programming errors and hcore.StructuralError
# (a wrong model declaration) propagate.
_POINT_FAILURES = (RuntimeError, np.linalg.LinAlgError, ValueError)


class UsageError(ValueError):
    """Bad model/parameter/axis names or malformed requests (exit code 2)."""


class NumericalFailure(RuntimeError):
    """Sweep-level numerical failure (exit code 3); partial outputs kept."""


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise UsageError("axis count must be >= 2")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class SweepSpec:
    model: str
    fixed: dict
    axis1: Axis
    axis2: Axis


@dataclass
class MapResult:
    model: str
    params: dict
    axis1: Axis
    axis2: Axis
    columns: tuple
    values: np.ndarray          # shape (n1 * n2, 2 + len(columns))
    diagnostics: list = field(default_factory=list)


def point_row(evaluate, ncol: int):
    """Row evaluator of a per-point ``evaluate(params, a1, a2) -> sequence``.

    Each point runs in its own try: a point that fails numerically
    (``_POINT_FAILURES``) becomes a NaN row and the diagnostic line
    ``"<a1!r> <a2!r> <exception type>: <message>"``; any other exception
    propagates."""
    def row(params, a1, a2):
        vals = np.full((a2.size, ncol), np.nan)
        diags = []
        for j, x in enumerate(a2):
            try:
                vals[j] = [float(v) for v in evaluate(dict(params), a1, x)]
            except hcore.StructuralError:
                raise
            except _POINT_FAILURES as exc:
                diags.append(f"{a1!r} {x!r} {type(exc).__name__}: {exc}")
        return vals, diags
    return row


def batched_row(kernel, fallback):
    """Row evaluator of a vectorised ``kernel(params, a1, a2) -> (a2.size,
    ncol) array`` that leaves NaN where a point fails.  Such points are
    evaluated again by the row evaluator ``fallback`` (a ``point_row``), so
    they fail with their own exception and diagnostic; a kernel that raises
    a point failure hands the whole row to ``fallback``."""
    def row(params, a1, a2):
        try:
            vals = kernel(dict(params), a1, a2)
        except hcore.StructuralError:
            raise
        except _POINT_FAILURES:
            return fallback(params, a1, a2)
        bad = np.isnan(vals).any(axis=1)
        if not bad.any():
            return vals, []
        vals[bad], diags = fallback(params, a1, a2[bad])
        return vals, diags
    return row


def run_sweep(spec: SweepSpec, row, columns, threads: int = 1) -> MapResult:
    """Evaluate the grid one axis1 row at a time: ``row(params, a1, a2)``
    gives the (a2.size, len(columns)) values at a1 over the axis2 values
    a2 and the diagnostic lines of its failed points (see ``point_row``
    and ``batched_row``).

    The first point runs alone on the calling thread, filling the caches
    that every row shares; the rest of its row and each further row are
    then one task of a thread pool (models are reentrant; LAPACK releases
    the GIL), so no two threads build the same per-row geometry at once
    (lru_cache does not merge concurrent misses).  Results are buffered per
    row, so output order never depends on scheduling.
    """
    a1 = spec.axis1.values()
    a2 = spec.axis2.values()
    out = np.empty((a1.size * a2.size, 2 + len(columns)))
    out[:, 0] = np.repeat(a1, a2.size)
    out[:, 1] = np.tile(a2, a1.size)
    diags = [[] for _ in a1]

    def task(i, start=0, stop=a2.size):
        vals, row_diags = row(dict(spec.fixed), a1[i], a2[start:stop])
        out[i * a2.size + start:i * a2.size + stop, 2:] = vals
        diags[i] += row_diags

    task(0, stop=1)
    rest = [(0, 1)] + [(i, 0) for i in range(1, a1.size)]
    if threads <= 1:
        for i, start in rest:
            task(i, start)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda job: task(*job), rest))
    return MapResult(model=spec.model, params=dict(spec.fixed), axis1=spec.axis1,
                     axis2=spec.axis2, columns=tuple(columns), values=out,
                     diagnostics=[d for row_diags in diags for d in row_diags])


def _header_lines(kind: str, model: str, params: dict, extra: list[str]) -> list[str]:
    lines = [f"# openres {kind} v{__version__}",
             f"# model: {model}",
             "# params: " + " ".join(f"{k}={_FMT % float(v)}"
                                     for k, v in sorted(params.items()))]
    lines.extend("# " + e for e in extra)
    return lines


def write_map(path, result: MapResult) -> None:
    path = Path(path)
    lines = _header_lines("map", result.model, result.params, [
        f"axis1: name={result.axis1.name} min={_FMT % result.axis1.lo} "
        f"max={_FMT % result.axis1.hi} count={result.axis1.count}",
        f"axis2: name={result.axis2.name} min={_FMT % result.axis2.lo} "
        f"max={_FMT % result.axis2.hi} count={result.axis2.count}",
        "columns: " + " ".join((result.axis1.name, result.axis2.name)
                               + tuple(result.columns)),
    ])
    row_fmt = " ".join([_FMT] * result.values.shape[1])
    body = "\n".join(row_fmt % tuple(row) for row in result.values.tolist())
    path.write_text("\n".join(lines) + "\n" + body + "\n")
    if result.diagnostics:
        Path(str(path) + ".diag").write_text(
            "\n".join(result.diagnostics) + "\n")


def _read_records(path):
    """(header dict, data lines) of an output file: ``# key: value`` header
    lines become dict entries, blank lines are skipped."""
    header, lines = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            text = line[1:].strip()
            if ":" in text:
                key, _, rest = text.partition(":")
                header[key.strip()] = rest.strip()
        elif line.strip():
            lines.append(line)
    return header, lines


def _read_table(path):
    header, lines = _read_records(path)
    return header, np.array([[float(tok) for tok in line.split()] for line in lines])


def read_map(path):
    """Parse a map file back into (header dict, ndarray)."""
    header, data = _read_table(path)
    if "axis1" in header and "axis2" in header:
        n1 = int(dict(tok.split("=") for tok in header["axis1"].split())["count"])
        n2 = int(dict(tok.split("=") for tok in header["axis2"].split())["count"])
        if data.shape[0] != n1 * n2:
            raise NumericalFailure("row count does not match the axes")
    return header, data


def _label_token(label) -> str:
    return "".join(str(label).split())


def write_catalog(path, model: str, params: dict, records,
                  label_getter=None, note: str = "") -> None:
    """BIC catalog sorted by frequency; one line per record with the
    ``_CATALOG_MODES`` largest modal coefficients appended as label |a|
    Re(a) Im(a) groups.  A ``note`` goes into the header."""
    path = Path(path)
    recs = sorted(records, key=lambda r: r.omega_sq)
    lines = _header_lines("bic-catalog", model, params, [
        "columns: index classification param omega_sq gamma_res residual "
        "[label abs_a re_a im_a] x" + str(_CATALOG_MODES),
    ] + ([f"note: {note}"] if note else []))
    for i, rec in enumerate(recs):
        expansion = rec.modal_expansion() if label_getter is None \
            else label_getter(rec)
        parts = [str(i + 1), str(rec.classification or "unclassified"),
                 _FMT % rec.param, _FMT % rec.omega_sq,
                 _FMT % rec.gamma_res, _FMT % rec.residual]
        for lab, coeff in expansion[:_CATALOG_MODES]:
            parts += [_label_token(lab), _FMT % abs(coeff),
                      _FMT % coeff.real, _FMT % coeff.imag]
        lines.append(" ".join(parts))
    path.write_text("\n".join(lines) + "\n")


def read_catalog(path):
    header, lines = _read_records(path)
    rows = []
    for line in lines:
        toks = line.split()
        rec = {"index": int(toks[0]), "classification": toks[1],
               "param": float(toks[2]), "omega_sq": float(toks[3]),
               "gamma_res": float(toks[4]), "residual": float(toks[5]),
               "modes": []}
        rest = toks[6:]
        for k in range(0, len(rest) - 3, 4):
            rec["modes"].append((rest[k], float(rest[k + 1]),
                                 complex(float(rest[k + 2]), float(rest[k + 3]))))
        rows.append(rec)
    return header, rows


def write_field(path, model: str, params: dict, axes_desc: str,
                grid1: np.ndarray, grid2: np.ndarray, field: np.ndarray) -> None:
    """Plain-text field grid: coordinates, Re(field) and |field|^2."""
    path = Path(path)
    lines = _header_lines("field", model, params, [
        f"grid: {axes_desc} n1={grid1.size} n2={grid2.size}",
        "columns: c1 c2 re_field abs2_field",
    ])
    body = []
    for i, g1 in enumerate(grid1):
        for j, g2 in enumerate(grid2):
            v = field[i, j]
            body.append(" ".join(_FMT % x for x in
                                 (g1, g2, v.real, abs(v) ** 2)))
    path.write_text("\n".join(lines) + "\n" + "\n".join(body) + "\n")


def read_field(path):
    return _read_table(path)


def read_resonances(path):
    """(header dict, rows) of a resonance catalog; each row is a dict of
    z, width, converged and iterations."""
    header, data = _read_table(path)
    return header, [{"z": complex(row[1], row[2]), "width": row[3],
                     "converged": bool(row[4]), "iterations": int(row[5])}
                    for row in data]


def write_resonances(path, model: str, params: dict, records) -> None:
    lines = _header_lines("resonances", model, params, [
        "columns: index re_z im_z width converged iterations",
    ])
    for i, rec in enumerate(records):
        lines.append(" ".join([
            str(i + 1), _FMT % rec.z.real, _FMT % rec.z.imag,
            _FMT % rec.width, str(int(rec.converged)), str(rec.iterations)]))
    path.write_text("\n".join(lines) + "\n")
