"""Digest of the CLI's outputs over a fixed list of commands, and a
value-level comparison of two kept output trees.

    python3 tools/output_digest.py [--src DIR] [--keep DIR]
    python3 tools/output_digest.py --compare OLD NEW

Runs each command through ``openres.cli.main`` in a fresh temporary
directory and prints its exit code, followed by the sha256 of every file the
command wrote.  Two source trees that give the same digest give the same
exit codes and byte-identical outputs on these commands, so diffing the
printout of two trees checks that a refactor kept its outputs.  ``--src``
picks the tree whose ``openres`` package is imported (default: this
checkout's ``src``).  Run both trees with the same BLAS thread settings
(say ``OPENBLAS_NUM_THREADS=1``).  Uses only the standard library, numpy
and the package; the whole list takes about a minute on one core of a
2-core x86 box.

``--keep DIR`` also keeps every file in ``DIR/<NN>/`` (NN: the command's
place in the list) beside an ``exit`` file holding the printed exit line.
``--compare OLD NEW`` compares two such trees value by value, against the
tolerances below, and prints one line per command (a map command's line
also gives its largest value difference, a catalog command's the largest
relative move of param and omega_sq over its rows, and a resonances
command's the largest relative move of a pole, passed or not); it exits 1
if any command differs.  This is the gate for a change that
moves numbers on purpose (the byte digest stays the gate for pure
refactors).  Field files are compared on ``abs2_field`` only:
``re_field`` carries the arbitrary phase of the eigenvector behind the
field.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

LIGHT = ("twolevel", "fpchain", "well", "abring", "zeeman")

MAPS = (
    # the abring and twolevel maps are evaluated one stacked call per row,
    # so each runs with both of its batched axes on axis2; the twolevel
    # grids pass through the collapse point (0, 0)
    ("twolevel", "eps:-1:1:5", "energy:-1:1:5"),
    ("twolevel", "energy:-1:1:5", "eps:-1:1:5", "--threads", "2"),
    ("fpchain", "eps1:-1:1:4", "energy:-1:1:4"),
    ("well", "k:0.5:3:4", "q:1:3:4"),
    # the grid passes through the trapping point 2 pi (1, 1): NaN rows and
    # a .diag sidecar
    ("abring", "gamma:0:12.566370614359172:5", "k:3.141592653589793:9.42477796076938:5"),
    # transposed, with k <= 0 on the grid as well
    ("abring", "k:-3.141592653589793:9.42477796076938:9", "gamma:0:12.566370614359172:5",
     "--threads", "2"),
    ("zeeman", "energy:5:25:4", "length:1:3:3"),
    # the cavity maps run on two sweep threads over two geometries each, so
    # that the per-process model caches are filled and shared; the sphere
    # map runs twice, the second time with its caches warm
    ("planar", "ly:3.8:4.2:2", "energy:12:16:3", "--truncation", "8", "--pmax", "3",
     "--threads", "2"),
    ("sinai", "ly:2:2.4:2", "energy:12:20:3", "--truncation", "8", "--pmax", "3",
     "--set", "vg=5", "--threads", "2"),
    # the benchmark's bump-height axis, through vg = 0: one frame at unit
    # height, scaled per point
    ("sinai", "vg:-20:20:5", "energy:12:20:3", "--truncation", "8", "--pmax", "3",
     "--threads", "2"),
    ("cyl", "length:3:4:2", "energy:0.5:2.5:3", "--threads", "2"),
    ("sphere", "dtheta:1:2:2", "energy:0.5:2:3", "--set", "radius=4.2", "--threads", "2"),
    ("sphere", "dtheta:1:2:2", "energy:0.5:2:3", "--set", "radius=4.2", "--threads", "2"),
)

CAVITY_SEARCHES = (
    ("planar", "--truncation", "10", "--pmax", "4"),
    ("sinai", "--truncation", "8", "--pmax", "4"),
    ("sphere", "--set", "radius=4.2"),
    ("cyl", "--set", "length=3.0", "--set", "l_max=4", "--set", "m_max=3"),
)

# ------------------------------------------------------------ tolerances --
# map values are O(1) transmittances and widths; a change in the order of
# floating-point sums moves them by ~1e-15, so 1e-12 still resolves any
# change of the physics
MAP_ABS = 1e-12
# BIC param and omega_sq, relative.  Every row of the CAVITY_SEARCHES
# catalogs is a Brent root of the signed open-channel amplitude, exact to
# rounding: changing nothing but the rounding of the same code (eig and
# eigh of a randomly permuted basis, two permutations) moves them by up
# to sinai 5.1e-13, sphere 3.1e-14, cyl 8.9e-15, planar 6.3e-16, and
# taking the root's level by index instead of from the full eigh by up to
# sinai 8.3e-12, sphere 2.7e-14, cyl 8.3e-15, planar 2.0e-15; 1e-7 is also
# the benchmark checker's tolerance
BIC_REL = 1e-7
# a BIC coordinate within this of zero has no relative scale (twolevel's
# eps* = 0 reads -7.9e-11 from golden section and 4.2e-17 from the Brent
# root): two such values compare equal.  It is the bracket width at which
# the golden-section fallback of hcore.find_bics stops, the coarsest
# precision of the BIC searches
BIC_ZERO_ABS = 1e-10
# modal coefficients follow the null vector, which moves with the BIC
# location; 1e-6 is the benchmark checker's vector tolerance
COEFF_ABS = 1e-6
# pole positions: the fixed-point solves stop at 1e-10 relative
POLE_REL = 1e-9
# field coordinates scale with the BIC parameter (as BIC_REL), and
# |field|^2, relative to its maximum, follows the null vector (as COEFF_ABS)
FIELD_REL = COEFF_ABS
# width and null-residual tolerances of the CLI, for the is_bic condition
# of catalog rows written without --tol-width/--tol-null
DEFAULT_TOL_WIDTH = 1e-8
DEFAULT_TOL_NULL = 1e-7
# a number inside a modal label token (a Sinai label holds a branch energy)
_LABEL_NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def commands() -> list[list[str]]:
    cmds = [[m, verb] for m in LIGHT for verb in ("bics", "resonances", "field")]
    for model, ax1, ax2, *extra in MAPS:
        cmds.append([model, "map", "--axis1", ax1, "--axis2", ax2, *extra])
    for model, *extra in CAVITY_SEARCHES:
        cmds += [[model, "bics", *extra], [model, "field", *extra]]
    cmds += [[m, "resonances"] for m in ("planar", "sinai", "cyl", "sphere")]
    # usage errors: each exits 2 and writes nothing
    cmds += [["twolevel", "bics", "--set", "bogus=1"],
             ["twolevel", "map", "--axis1", "eps:-1:1", "--axis2", "energy:-1:1:5"],
             ["abring", "field", "--grid", "3x3"]]
    # two distinct twolevel seeds (at the default eps = 0 they are one);
    # last, so that the earlier commands keep their --keep numbers
    cmds.append(["twolevel", "resonances", "--set", "eps=0.3"])
    # a cold start on a frame with a static V (the Sinai bump), whose blocks
    # that no open channel reaches take the Hermitian eigensolver
    cmds.append(["sinai", "resonances", "--set", "vg=5"])
    # a bump off centre in x: one x class, searched once
    cmds.append(["sinai", "bics", "--truncation", "8", "--pmax", "4", "--set", "x0=0.3"])
    return cmds


def digest(argv: list[str], main, keep: Path | None = None) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv + ["--out", tmp])
        lines = [f"exit={code} {' '.join(argv)}"]
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"  {sha} {path.relative_to(tmp)}")
        if keep is not None:
            shutil.copytree(tmp, keep)
            (keep / "exit").write_text(lines[0] + "\n")
    return lines


# ------------------------------------------------------------ comparison --

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _bic_rel(a: float, b: float) -> float:
    """``_rel`` of two BIC coordinates, 0 when both lie within
    ``BIC_ZERO_ABS`` of zero."""
    return 0.0 if max(abs(a), abs(b)) <= BIC_ZERO_ABS else _rel(a, b)


def _argv_value(argv: list[str], flag: str, default: float) -> float:
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def map_difference(sweep, old: Path, new: Path) -> tuple[list[str], float | None]:
    """(messages, largest value difference) of two map files; the
    difference is None where the maps do not line up."""
    (h1, a), (h2, b) = sweep.read_map(old), sweep.read_map(new)
    if h1 != h2:
        return ["headers differ"], None
    if a.shape != b.shape:
        return [f"{len(a)} rows against {len(b)}"], None
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return ["NaN entries differ"], None
    diff = float(np.abs(a[~nan] - b[~nan]).max(initial=0.0))
    return ([f"map values differ by {diff:.2e}"] if diff > MAP_ABS else []), diff


def _same_label(t1: str, t2: str, tol: float) -> bool:
    """Label tokens match when they agree outside their numbers and each
    number (a Sinai label's branch energy, which follows the BIC
    parameter) agrees within ``tol`` of max(1, |x|)."""
    x1 = [float(x) for x in _LABEL_NUMBER.findall(t1)]
    x2 = [float(x) for x in _LABEL_NUMBER.findall(t2)]
    return _LABEL_NUMBER.sub("#", t1) == _LABEL_NUMBER.sub("#", t2) and \
        all(abs(u - v) <= tol * max(1.0, abs(u)) for u, v in zip(x1, x2))


def compare_modes(m1: list, m2: list, label_tol: float) -> list[str]:
    """Modal coefficients (label, |a|, a) of one catalog row, matched by
    label (ties in |a| reorder them), compared after removing one global
    phase; a label kept in only one row must sit at the other's cut."""
    pairs, only = [], []
    rest = list(m2)
    for lab, mag, coeff in m1:
        hit = next((k for k, other in enumerate(rest)
                    if _same_label(lab, other[0], label_tol)), None)
        if hit is None:
            only.append((mag, m2))
        else:
            pairs.append(((mag, coeff), rest.pop(hit)[1:]))
    only += [(mag, m1) for _, mag, _ in rest]
    out = []
    for mag, other in only:
        if not other or mag > min(o[1] for o in other) + COEFF_ABS:
            out.append(f"modal label with |a| = {mag:.3e} kept by one tree only")
    if not pairs:
        return out
    dmag = max(abs(x[0] - y[0]) for x, y in pairs)
    overlap = sum(x[1].conjugate() * y[1] for x, y in pairs)
    phase = overlap / abs(overlap) if overlap else 1.0
    dvec = max(abs(x[1] - y[1] / phase) for x, y in pairs)
    if max(dmag, dvec) > COEFF_ABS:
        out.append(f"modal coefficients differ by {max(dmag, dvec):.2e}")
    return out


def compare_catalog(sweep, old: Path, new: Path,
                    argv: list[str]) -> tuple[list[str], dict | None]:
    """(messages, largest relative move of param and of omega_sq over the
    rows, as ``_bic_rel`` measures it); the moves are None where the rows
    do not line up."""
    (h1, r1), (h2, r2) = sweep.read_catalog(old), sweep.read_catalog(new)
    if h1 != h2:
        return ["headers differ"], None
    if len(r1) != len(r2):
        return [f"{len(r1)} BIC rows against {len(r2)}"], None
    tol_w = _argv_value(argv, "--tol-width", DEFAULT_TOL_WIDTH)
    tol_n = _argv_value(argv, "--tol-null", DEFAULT_TOL_NULL)
    out, moves = [], {"param": 0.0, "omega_sq": 0.0}
    for a, b in zip(r1, r2):
        where = f"row {a['index']}: "
        if a["classification"] != b["classification"]:
            out.append(where + "classification differs")
        for key in moves:
            move = _bic_rel(a[key], b[key])
            moves[key] = max(moves[key], move)
            if move > BIC_REL:
                out.append(where + f"{key} differs by {_rel(a[key], b[key]):.2e} relative")
        bic = [r["gamma_res"] <= tol_w and r["residual"] <= tol_n for r in (a, b)]
        if bic[0] != bic[1]:
            out.append(where + "is_bic differs")
        out += [where + msg for msg in compare_modes(a["modes"], b["modes"], BIC_REL)]
    return out, moves


def _distinct_poles(rows) -> list:
    kept = []
    for row in rows:
        if not any(abs(row["z"] - k["z"]) <= POLE_REL * max(1.0, abs(k["z"])) for k in kept):
            kept.append(row)
    return kept


def compare_resonances(sweep, old: Path, new: Path) -> tuple[list[str], float | None]:
    """(messages, largest move of a pole to the nearest pole of the other
    tree, relative to max(1, |z|) as ``POLE_REL`` is, both ways); the move
    is None where either tree has no pole."""
    (h1, r1), (h2, r2) = sweep.read_resonances(old), sweep.read_resonances(new)
    if h1 != h2:
        return ["headers differ"], None
    out, move = [], None
    for mine, theirs, name in ((r1, r2, "old"), (r2, r1, "new")):
        for row in _distinct_poles(mine):
            scale = max(1.0, abs(row["z"]))
            if theirs:
                near = min(abs(row["z"] - t["z"]) for t in theirs) / scale
                move = max(near, move or 0.0)
            if not any(abs(row["z"] - t["z"]) <= POLE_REL * scale
                       and row["converged"] == t["converged"] for t in theirs):
                out.append(f"{name} pole {row['z']:.10g} (converged {row['converged']}) "
                           "not in the other tree")
    return out, move


def compare_field(sweep, old: Path, new: Path) -> list[str]:
    (h1, a), (h2, b) = sweep.read_field(old), sweep.read_field(new)
    if h1 != h2:
        return ["headers differ"]
    if a.shape != b.shape:
        return [f"{len(a)} rows against {len(b)}"]
    out = []
    scale = max(float(np.abs(a[:, :2]).max()), 1e-300)
    if np.abs(a[:, :2] - b[:, :2]).max() > BIC_REL * scale:
        out.append("field coordinates differ")
    peak = max(float(np.abs(a[:, 3]).max()), 1e-300)
    diff = float(np.abs(a[:, 3] - b[:, 3]).max()) / peak
    if diff > FIELD_REL:
        out.append(f"abs2_field differs by {diff:.2e} of its maximum")
    return out


def compare_command(sweep, old: Path, new: Path) -> tuple[list[str], str]:
    """(messages, what moved) of one command: the largest map value
    difference, the largest relative move of a catalog's param and
    omega_sq, and the largest relative pole move ("" when the command wrote
    none of these, or they do not line up)."""
    e1 = (old / "exit").read_text() if (old / "exit").exists() else "missing"
    e2 = (new / "exit").read_text() if (new / "exit").exists() else "missing"
    if e1 != e2:
        return [f"exit lines differ: {e1.strip()!r} against {e2.strip()!r}"], ""
    argv = e1.split()[1:]
    f1 = sorted(p.name for p in old.iterdir() if p.name != "exit")
    f2 = sorted(p.name for p in new.iterdir() if p.name != "exit")
    if f1 != f2:
        return [f"file sets differ: {f1} against {f2}"], ""
    out, largest, moves, pole_move = [], None, None, None
    for name in f1:
        a, b = old / name, new / name
        if name.endswith("_map.dat"):
            msgs, diff = map_difference(sweep, a, b)
            if diff is not None:
                largest = max(diff, largest or 0.0)
        elif name.endswith("_bics.dat"):
            msgs, moves = compare_catalog(sweep, a, b, argv)
        elif name.endswith("_resonances.dat"):
            msgs, pole_move = compare_resonances(sweep, a, b)
        elif name.endswith("_field.dat"):
            msgs = compare_field(sweep, a, b)
        else:
            msgs = [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]
        out += [f"{name}: {m}" for m in msgs]
    moved = [] if largest is None else [f"largest map difference {largest:.2e}"]
    if moves is not None:
        moved.append(f"largest param move {moves['param']:.2e}, "
                     f"omega_sq move {moves['omega_sq']:.2e} relative")
    if pole_move is not None:
        moved.append(f"largest pole move {pole_move:.2e} relative")
    return out, f" ({'; '.join(moved)})" if moved else ""


def compare_trees(old: Path, new: Path, src: str = str(SRC)) -> tuple[list[str], bool]:
    """One line per command of two ``--keep`` trees; True when all match."""
    sys.path.insert(0, src)
    from openres import sweep

    lines, ok = [], True
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    for name in names:
        if not ((old / name).is_dir() and (new / name).is_dir()):
            lines.append(f"{name}: kept by one tree only")
            ok = False
            continue
        msgs, moved = compare_command(sweep, old / name, new / name)
        exit_line = (old / name / "exit").read_text().strip() \
            if (old / name / "exit").exists() else ""
        lines.append(f"{name}: {'ok' if not msgs else 'DIFFERS'} {exit_line}{moved}")
        lines += [f"  {m}" for m in msgs]
        ok = ok and not msgs
    return lines, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("--keep", default=None, metavar="DIR",
                    help="keep every command's files under DIR/<NN>/")
    ap.add_argument("--compare", nargs=2, default=None, metavar=("OLD", "NEW"),
                    help="compare two --keep trees value by value")
    args = ap.parse_args(argv)
    if args.compare:
        lines, ok = compare_trees(*(Path(d) for d in args.compare), src=args.src)
        print("\n".join(lines))
        return 0 if ok else 1
    sys.path.insert(0, args.src)
    from openres.cli import main as cli_main

    keep = Path(args.keep) if args.keep else None
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
    for i, cmd in enumerate(commands()):
        where = keep / f"{i:02d}" if keep is not None else None
        print("\n".join(digest(cmd, cli_main, where)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
