"""Digest of the CLI's outputs over a fixed list of commands.

    python3 tools/output_digest.py [--src DIR]

Runs each command through ``openres.cli.main`` in a fresh temporary
directory and prints its exit code, followed by the sha256 of every file the
command wrote.  Two source trees that give the same digest give the same
exit codes and byte-identical outputs on these commands, so diffing the
printout of two trees checks that a refactor kept its outputs.  ``--src``
picks the tree whose ``openres`` package is imported (default: this
checkout's ``src``).  Run both trees with the same BLAS thread settings
(say ``OPENBLAS_NUM_THREADS=1``).  Uses only the standard library and the
package; the whole list takes about 3-4 minutes on one core of a 2-core
x86 box.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

LIGHT = ("twolevel", "fpchain", "well", "abring", "zeeman")

MAPS = (
    ("twolevel", "eps:-1:1:5", "energy:-1:1:5"),
    ("fpchain", "eps1:-1:1:4", "energy:-1:1:4"),
    ("well", "k:0.5:3:4", "q:1:3:4"),
    # the grid passes through the trapping point 2 pi (1, 1): NaN rows and
    # a .diag sidecar
    ("abring", "gamma:0:12.566370614359172:5", "k:3.141592653589793:9.42477796076938:5"),
    ("zeeman", "energy:5:25:4", "length:1:3:3"),
    # the cavity maps run on two sweep threads over two geometries each, so
    # that the per-process model caches are filled and shared; the sphere
    # map runs twice, the second time with its caches warm
    ("planar", "ly:3.8:4.2:2", "energy:12:16:3", "--truncation", "8", "--pmax", "3",
     "--threads", "2"),
    ("sinai", "ly:2:2.4:2", "energy:12:20:3", "--truncation", "8", "--pmax", "3",
     "--set", "vg=5", "--threads", "2"),
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
    return cmds


def digest(argv: list[str], main) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv + ["--out", tmp])
        lines = [f"exit={code} {' '.join(argv)}"]
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"  {sha} {path.relative_to(tmp)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from openres.cli import main as cli_main

    for cmd in commands():
        print("\n".join(digest(cmd, cli_main)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
