"""The value-level comparison of tools/output_digest.py on small synthetic
output trees: it passes rounding-level changes and tie-reordered modal
coefficients, and fails changes above its tolerances."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from openres import hcore, sweep
from openres.sweep import Axis, MapResult

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", TOOL)
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)


def _map(path, shift=0.0):
    a1, a2 = Axis("ly", 3.8, 4.2, 2), Axis("energy", 12.0, 16.0, 3)
    grid = np.array([(x, y) for x in a1.values() for y in a2.values()])
    values = np.column_stack([grid, np.sin(grid[:, 1]) ** 2 + shift, np.cos(grid[:, 0])])
    values[4, 2:] = np.nan
    sweep.write_map(path / "planar_map.dat",
                    MapResult("planar", {"lx": 4.0}, a1, a2, ("T11", "Ttotal"), values))


def _catalog(path, swap=False, param=4.61686131, phase=1.0, omega_sq=1.98733786):
    labels = ((4, 1, 1), (4, -1, 1), (1, 1, 2), (1, -1, 2))
    vec = np.array([0.6, -0.6, 0.37, 0.37], dtype=complex) * phase
    if swap:
        labels, vec = (labels[1], labels[0]) + labels[2:], vec[[1, 0, 2, 3]]
    rec = hcore.BICRecord(param=param, omega_sq=omega_sq, null_vector=vec / np.linalg.norm(vec),
                          gamma_res=1e-15, residual=1e-14, is_bic=True, labels=labels,
                          classification="friedrich-wintgen")
    sweep.write_catalog(path / "sphere_bics.dat", "sphere", {"radius": 4.2}, [rec])


def _tree(root, name, **kw):
    out = root / name / "00"
    out.mkdir(parents=True)
    (out / "exit").write_text("exit=0 planar map\n")
    _map(out, kw.pop("shift", 0.0))
    cat = root / name / "01"
    cat.mkdir()
    (cat / "exit").write_text("exit=0 sphere bics\n")
    _catalog(cat, **kw)
    return root / name


def test_rounding_level_change_and_swapped_partners_pass(tmp_path):
    old = _tree(tmp_path, "old")
    new = _tree(tmp_path, "new", shift=1e-13, swap=True, param=4.61686131 * (1 + 5e-8),
                phase=np.exp(0.7j))
    lines, ok = digest.compare_trees(old, new)
    assert ok, lines


def test_passing_map_line_gives_the_largest_difference(tmp_path):
    old = _tree(tmp_path, "old")
    lines, ok = digest.compare_trees(old, _tree(tmp_path, "new", shift=1e-13))
    assert ok, lines
    assert lines[0] == "00: ok exit=0 planar map (largest map difference 1.00e-13)"
    # a catalog command prints the moves of its rows instead
    assert lines[1] == ("01: ok exit=0 sphere bics (largest param move 0.00e+00, "
                        "omega_sq move 0.00e+00 relative)")
    lines, _ = digest.compare_trees(old, old)
    assert lines[0].endswith("(largest map difference 0.00e+00)")


def test_catalog_line_gives_the_largest_relative_moves(tmp_path):
    old = _tree(tmp_path, "old")
    new = _tree(tmp_path, "new", param=4.61686131 * (1 + 5e-8), omega_sq=1.98733786 * (1 - 2e-9))
    lines, ok = digest.compare_trees(old, new)
    assert ok, lines
    assert lines[1] == ("01: ok exit=0 sphere bics (largest param move 5.00e-08, "
                        "omega_sq move 2.00e-09 relative)")
    # a move past the tolerance fails and is still quoted
    lines, ok = digest.compare_trees(old, _tree(tmp_path, "far", param=4.61686131 * (1 + 1e-5)))
    assert not ok
    assert lines[1] == ("01: DIFFERS exit=0 sphere bics (largest param move 1.00e-05, "
                        "omega_sq move 0.00e+00 relative)")
    # rows that do not line up quote no move
    cat = tmp_path / "short" / "01"
    shutil.copytree(new, tmp_path / "short")
    head = [line for line in (cat / "sphere_bics.dat").read_text().splitlines(True)
            if line.startswith("#")]
    (cat / "sphere_bics.dat").write_text("".join(head))
    lines, ok = digest.compare_trees(old, tmp_path / "short")
    assert not ok
    assert lines[1] == "01: DIFFERS exit=0 sphere bics"


@pytest.mark.parametrize("kw,message", [
    ({"shift": 1e-9}, "map values differ"),
    ({"param": 4.61686131 * (1 + 1e-5)}, "param differs"),
])
def test_changes_above_tolerance_fail(tmp_path, kw, message):
    old = _tree(tmp_path, "old")
    lines, ok = digest.compare_trees(old, _tree(tmp_path, "new", **kw))
    assert not ok
    assert any(message in line for line in lines)


def test_bic_located_at_zero_passes(tmp_path):
    # twolevel bics: eps* = 0 from golden section, then from the Brent root
    old = _tree(tmp_path, "old", param=-7.9e-11, omega_sq=-7.9e-11)
    new = _tree(tmp_path, "new", param=4.2e-17, omega_sq=4.2e-17)
    lines, ok = digest.compare_trees(old, new)
    assert ok, lines


@pytest.mark.parametrize("key", ["param", "omega_sq"])
def test_small_bic_coordinate_still_compared_relatively(tmp_path, key):
    old = _tree(tmp_path, "old", **{key: 1e-3})
    lines, ok = digest.compare_trees(old, _tree(tmp_path, "new", **{key: 1e-3 + 1e-9}))
    assert not ok
    assert any(f"{key} differs" in line for line in lines)


def test_exit_code_and_file_set_must_match(tmp_path):
    old = _tree(tmp_path, "old")
    new = _tree(tmp_path, "new")
    (new / "00" / "planar_map.dat.diag").write_text("x\n")
    (new / "01" / "exit").write_text("exit=3 sphere bics\n")
    lines, ok = digest.compare_trees(old, new)
    assert not ok
    assert any("file sets differ" in line for line in lines)
    assert any("exit lines differ" in line for line in lines)
