"""Sweep engine and CLI surface: determinism, file round-trips, exit codes,
config/override precedence, catalog structure."""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from openres import cli, cyl3d, hcore, planar2d, sph3d, sweep, toymodels, wires1d
from openres.cli import MODELS, main
from openres.sweep import Axis, SweepSpec


def _run_map(tmp_path, threads):
    spec = SweepSpec(model="twolevel",
                     fixed={"gamma1": 0.1, "gamma2": 0.1, "u": 0.0,
                            "eps": 0.0, "energy": 0.5},
                     axis1=Axis("eps", -1.0, 1.0, 11),
                     axis2=Axis("energy", -1.0, 1.0, 7))
    columns, point = MODELS["twolevel"].columns, MODELS["twolevel"].point

    def evaluate(p, a1, a2):
        p["eps"], p["energy"] = a1, a2
        return point(p)

    res = sweep.run_sweep(spec, sweep.point_row(evaluate, len(columns)), columns,
                          threads=threads)
    path = tmp_path / f"map_{threads}.dat"
    sweep.write_map(path, res)
    return path


def test_map_deterministic_across_thread_counts(tmp_path):
    p1 = _run_map(tmp_path, 1)
    p4 = _run_map(tmp_path, 4)
    assert p1.read_bytes().split(b"\n", 1)[1] == p4.read_bytes().split(b"\n", 1)[1]
    # reruns with the same config are byte-identical
    p1b = _run_map(tmp_path / "again", 1) if (tmp_path / "again").mkdir() or True \
        else None
    assert p1.read_bytes() == p1b.read_bytes()


@pytest.mark.parametrize("model,axis1,axis2,extra,caches", [
    ("cyl", "length:3.3:3.7:2", "energy:0.5:2.5:3", ["--truncation", "3"],
     (cyl3d.cyl_model,)),
    ("sphere", "dtheta:1.1:2.1:2", "energy:0.3:1.5:3",
     ["--truncation", "3", "--set", "radius=4.3"],
     (sph3d._pole_block, sph3d._port_columns)),
])
def test_cavity_map_independent_of_threads_and_cache_state(tmp_path, model, axis1,
                                                           axis2, extra, caches):
    def misses():
        return sum(c.cache_info().misses for c in caches)

    def run(threads):
        out = tmp_path / str(threads)
        assert main([model, "map", "--axis1", axis1, "--axis2", axis2,
                     "--threads", str(threads), "--out", str(out), *extra]) == 0
        return (out / f"{model}_map.dat").read_bytes()

    before = misses()
    cold = run(2)
    filled = misses()
    warm = run(1)
    # geometries no other test uses: the first run builds, the second reuses
    assert filled > before
    assert misses() == filled
    assert cold == warm


def test_cached_couplings_are_read_only():
    rect = planar2d.RectCavity(4.0, 4.0, m_max=4, n_max=4)
    _, rect_basis, raw = planar2d._cached_plumbing(rect, 2)
    bump_x, bump_y = planar2d._axis_factor_matrices(rect, 1.5, 0.0, 0.0, 16)
    bump = planar2d._unit_bump_matrix(rect, 1.5, 0.0, 0.0)
    cyl = cyl3d.cyl_model(cyl3d.CylCavity(3.0, 4.0, 2, 2, 2), 0.5)
    sphere = sph3d.SphereCavity(4.2, 3, 2)
    pole, _, sphere_basis = sph3d._pole_block(sphere, 16.0)
    port = sph3d._port_columns(sphere, sph3d.WaveguideAttachment("in"), 16.0)
    for shared in (raw, rect_basis.energies, bump_x, bump_y, bump, cyl.w, cyl.basis.energies,
                   pole, port, sphere_basis.energies):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    # the port-disk overlaps are one mapping shared by every model of a
    # radius and r0
    pq = sorted({ch.label[1:] for ch in cyl.channels})
    overlaps = cyl3d.disk_overlaps(cyl3d.CylCavity(3.0, 4.0, 2, 2, 2), 1.5, pq)
    assert overlaps is cyl3d.disk_overlaps(cyl3d.CylCavity(3.0, 5.0, 2, 2, 2), 1.5, pq)
    with pytest.raises(TypeError):
        overlaps[(0, 1, 0, 1)] = 1.0


def test_map_round_trip_exact(tmp_path):
    path = _run_map(tmp_path, 1)
    header, data = sweep.read_map(path)
    assert header["model"] == "twolevel"
    assert data.shape == (77, 4)
    # 17-significant-digit format round-trips doubles exactly
    eps_axis = np.unique(data[:, 0])
    assert np.array_equal(eps_axis, np.linspace(-1, 1, 11))
    sweep.write_map(tmp_path / "rewrite.dat", sweep.MapResult(
        model="twolevel", params={"gamma1": 0.1, "gamma2": 0.1, "u": 0.0,
                                  "eps": 0.0, "energy": 0.5},
        axis1=Axis("eps", -1, 1, 11), axis2=Axis("energy", -1, 1, 7),
        columns=("T2", "absT"), values=data))
    assert (tmp_path / "rewrite.dat").read_text() == path.read_text()


def test_map_body_equals_per_row_formatting(tmp_path):
    # the map body is every row formatted whole with %.16e: NaN rows, a NaN
    # and an inf on an axis, and -0.0 next to 0.0 on an axis included
    a1, a2 = np.linspace(-1.0, 1.0, 9), np.linspace(-0.0, 3.0, 6)
    values = np.column_stack([np.repeat(a1, a2.size), np.tile(a2, a1.size),
                              np.random.default_rng(3).normal(size=(a1.size * a2.size, 2))])
    values[::7, 2:] = np.nan
    values[4, 0], values[5, 1], values[8, 1], values[9, 1] = np.nan, np.inf, 0.0, -0.0
    path = tmp_path / "map.dat"
    sweep.write_map(path, sweep.MapResult(
        model="twolevel", params={}, axis1=Axis("eps", -1.0, 1.0, 9),
        axis2=Axis("energy", -0.0, 3.0, 6), columns=("T2", "absT"), values=values))
    body = path.read_text().splitlines()[-values.shape[0]:]
    assert body == [" ".join(["%.16e"] * 4) % tuple(row) for row in values.tolist()]
    assert body[8].split()[1] == "0.0000000000000000e+00"
    assert body[9].split()[1] == "-0.0000000000000000e+00"


def test_degenerate_axis_two_identical_rows(tmp_path):
    spec = SweepSpec(model="well", fixed={"k": 1.0, "q": 2.0, "length": 1.0},
                     axis1=Axis("k", 1.5, 1.5, 2),
                     axis2=Axis("q", 2.0, 3.0, 3))
    columns, point = MODELS["well"].columns, MODELS["well"].point

    def evaluate(p, a1, a2):
        p["k"], p["q"] = a1, a2
        return point(p)

    res = sweep.run_sweep(spec, sweep.point_row(evaluate, len(columns)), columns)
    assert np.array_equal(res.values[:3, 2:], res.values[3:, 2:])


def test_singular_points_become_nan_with_diagnostics(tmp_path):
    # the ring grid passes exactly through the trapping point 2 pi (1, 1)
    spec = SweepSpec(model="abring", fixed={"k": 1.0, "gamma": 0.0},
                     axis1=Axis("gamma", 0.0, 4 * math.pi, 5),
                     axis2=Axis("k", math.pi, 3 * math.pi, 5))
    columns, point = MODELS["abring"].columns, MODELS["abring"].point

    def evaluate(p, a1, a2):
        p["gamma"], p["k"] = a1, a2
        return point(p)

    res = sweep.run_sweep(spec, sweep.point_row(evaluate, len(columns)), columns)
    assert res.diagnostics
    assert np.isnan(res.values[:, 2]).any()
    path = tmp_path / "ring.dat"
    sweep.write_map(path, res)
    assert Path(str(path) + ".diag").exists()
    header, data = sweep.read_map(path)
    assert np.isnan(data[:, 2]).any()


def _scalar_map(path, model, axis1, axis2):
    # the per-point path: every point a scalar call of the model's point
    columns, point = MODELS[model].columns, MODELS[model].point

    def evaluate(p, a1, a2):
        p[axis1.name], p[axis2.name] = a1, a2
        return point(p)

    spec = SweepSpec(model=model, fixed=dict(MODELS[model].defaults), axis1=axis1,
                     axis2=axis2)
    sweep.write_map(path, sweep.run_sweep(spec, sweep.point_row(evaluate, len(columns)),
                                          columns))


@pytest.mark.parametrize("model,axis1,axis2,failures", [
    # through the trapping point 2 pi (1, 1) and k <= 0, each axis on axis2
    ("abring", "gamma:0:12.566370614359172:5", "k:-3.141592653589793:9.42477796076938:9",
     ("SingularPoint", "ValueError: k must be positive")),
    ("abring", "k:-3.141592653589793:9.42477796076938:9", "gamma:0:12.566370614359172:5",
     ("SingularPoint", "ValueError: k must be positive")),
    # through the Fano collapse point (eps, E) = (0, 0)
    ("twolevel", "eps:-1:1:9", "energy:-1:1:9", ("SingularTransmissionPoint",)),
    ("twolevel", "energy:-1:1:9", "eps:-1:1:9", ("SingularTransmissionPoint",)),
])
def test_batched_map_rows_match_scalar_points(tmp_path, model, axis1, axis2, failures):
    assert {axis1.split(":")[0], axis2.split(":")[0]} <= set(MODELS[model].batched)
    ref = tmp_path / "scalar" / f"{model}_map.dat"
    ref.parent.mkdir()
    _scalar_map(ref, model, cli._parse_axis(axis1, model), cli._parse_axis(axis2, model))
    diag = Path(str(ref) + ".diag").read_text()
    assert all(f in diag for f in failures)
    for threads in (1, 2):
        out = tmp_path / str(threads)
        assert main([model, "map", "--axis1", axis1, "--axis2", axis2,
                     "--threads", str(threads), "--out", str(out)]) == 0
        for name in (ref.name, ref.name + ".diag"):
            assert (out / name).read_bytes() == (ref.parent / name).read_bytes()


def _loop_point(model, p):
    # the scalar map point as computed before rows were batched
    if model == "abring":
        sol = wires1d.ring_solve(wires1d.RingParams(p["k"], p["gamma"]))
        return [abs(sol["t"]) ** 2, abs(sol["r"]) ** 2]
    t = toymodels.twolevel_transmission(p["energy"], toymodels.TwoLevelParams(
        p["eps"], p["gamma1"], p["gamma2"], p["u"]))
    return [abs(t) ** 2, abs(t)]


@pytest.mark.parametrize("model", ["abring", "twolevel"])
def test_batched_point_rounds_as_scalar_points(model):
    # random points, off the round values of the map grids above: numpy's
    # array abs and ** 2 can each round an ulp away from the scalar ones
    rng = np.random.default_rng(7)
    params = dict(MODELS[model].defaults)
    for name in MODELS[model].batched:
        xs = rng.uniform(0.1, 9.0, 2048)
        cols = MODELS[model].point({**params, name: xs})
        for j, x in enumerate(xs):
            assert [c[j] for c in cols] == _loop_point(model, {**params, name: x})


def test_batched_row_hands_failures_to_the_point_path():
    calls = []

    def kernel(p, a1, a2):
        if a1 == 1.0:
            raise ValueError("whole row")
        return np.where(a2[:, None] == 2.0, np.nan, a2[:, None] + a1)

    def evaluate(p, a1, a2):
        calls.append((a1, a2))
        if a2 == 2.0:
            raise hcore.SingularScattering(a2, 1e-17)
        return [a1 + a2]

    row = sweep.batched_row(kernel, sweep.point_row(evaluate, 1))
    vals, diags = row({}, 0.0, np.array([1.0, 2.0, 3.0]))
    assert calls == [(0.0, 2.0)] and np.array_equal(vals[[0, 2], 0], [1.0, 3.0])
    assert np.isnan(vals[1, 0]) and diags == [
        "0.0 np.float64(2.0) SingularScattering: E - H_eff numerically singular "
        "at E=2.0 (rcond~1.00e-17); candidate BIC"]
    vals, diags = row({}, 1.0, np.array([1.0, 3.0]))
    assert calls[1:] == [(1.0, 1.0), (1.0, 3.0)] and vals[:, 0].tolist() == [2.0, 4.0]

    def wrong_block(p, a1, a2):
        raise hcore.StructuralError("wrong block")

    with pytest.raises(hcore.StructuralError):
        sweep.batched_row(wrong_block, row)({}, 0.0, np.array([1.0]))


def _failing_sweep(exc, threads=1):
    spec = SweepSpec(model="well", fixed={}, axis1=Axis("k", 1.0, 2.0, 2),
                     axis2=Axis("q", 1.0, 2.0, 2))

    def evaluate(p, a1, a2):
        if (a1, a2) == (2.0, 1.0):
            raise exc
        return [a1 + a2]

    return sweep.run_sweep(spec, sweep.point_row(evaluate, 1), ("sum",), threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("exc", [TypeError("bad call"), KeyError("eps"),
                                 hcore.StructuralError("wrong block")])
def test_run_sweep_propagates_programming_and_structural_errors(exc, threads):
    with pytest.raises(type(exc)):
        _failing_sweep(exc, threads)


def test_run_sweep_numerical_failure_becomes_nan_row():
    res = _failing_sweep(hcore.SingularScattering(2.0, 1e-17))
    assert np.isnan(res.values[2, 2]) and np.array_equal(res.values[[0, 1, 3], 2],
                                                         [2.0, 3.0, 4.0])
    assert res.diagnostics == [
        "np.float64(2.0) np.float64(1.0) SingularScattering: E - H_eff numerically "
        "singular at E=2.0 (rcond~1.00e-17); candidate BIC"]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_sweep_runs_the_first_point_alone(threads):
    # the first point warms the caches on its own; the rest of its row is
    # one task, and row 0's values and diagnostics join in grid order
    spec = SweepSpec(model="well", fixed={}, axis1=Axis("k", 1.0, 3.0, 3),
                     axis2=Axis("q", 1.0, 3.0, 3))

    def evaluate(p, a1, a2):
        if a1 == 1.0 and a2 != 2.0:
            raise ValueError(f"no channel at q={a2}")
        return [a1 + a2]

    point, calls = sweep.point_row(evaluate, 1), []

    def row(params, a1, a2):
        calls.append((float(a1), a2.tolist()))
        return point(params, a1, a2)

    res = sweep.run_sweep(spec, row, ("sum",), threads=threads)
    assert calls[0] == (1.0, [1.0])
    assert sorted(calls[1:]) == [(1.0, [2.0, 3.0]), (2.0, [1.0, 2.0, 3.0]),
                                 (3.0, [1.0, 2.0, 3.0])]
    assert np.array_equal(res.values[:, 2], [np.nan, 3.0, np.nan, 3.0, 4.0, 5.0,
                                             4.0, 5.0, 6.0], equal_nan=True)
    assert res.diagnostics == [
        "np.float64(1.0) np.float64(1.0) ValueError: no channel at q=1.0",
        "np.float64(1.0) np.float64(3.0) ValueError: no channel at q=3.0"]


@pytest.mark.parametrize("model,truncation", [("sphere", "3"), ("cyl", "2")])
def test_cavity_resonance_catalog_has_no_repeated_pole(tmp_path, model, truncation):
    # degenerate basis energies seed the same pole several times
    assert main([model, "resonances", "--truncation", truncation,
                 "--out", str(tmp_path)]) == 0
    _, rows = sweep.read_resonances(tmp_path / f"{model}_resonances.dat")
    z = np.array([r["z"] for r in rows])
    assert 1 < len(rows) < 12
    gaps = np.abs(z[:, None] - z[None, :]) + np.eye(len(z))
    assert gaps.min() > 1e-9 * max(1.0, np.abs(z).max())
    assert all(r["converged"] for r in rows)


@pytest.mark.parametrize("model,extra,count", [("twolevel", [], 1),
                                                ("twolevel", ["--set", "eps=0.3"], 2),
                                                ("fpchain", [], 2)])
def test_toy_resonance_catalog_has_no_repeated_pole(tmp_path, model, extra, count):
    # at eps = 0 the twolevel seeds +eps and -eps are one seed
    assert main([model, "resonances", *extra, "--out", str(tmp_path)]) == 0
    _, rows = sweep.read_resonances(tmp_path / f"{model}_resonances.dat")
    z = np.array([r["z"] for r in rows])
    assert len(rows) == count and all(r["converged"] for r in rows)
    gaps = np.abs(z[:, None] - z[None, :]) + np.eye(len(z))
    assert gaps.min() > 1e-9 * max(1.0, np.abs(z).max())


def test_cavity_resonances_solve_each_degenerate_seed_once(monkeypatch):
    p = {**MODELS["sphere"].defaults, "l_max": 3, "n_max": 3}
    model, band = cli._sphere_model(p), (1e-3, cyl3d.MU_11**2)
    seeds = [e for e in model(p["energy"]).basis.energies if band[0] < e < band[1]][:12]
    every_seed = cli._distinct_poles(hcore.resonances(model, seeds))
    solved = []
    solve = hcore.solve_resonance
    monkeypatch.setattr(hcore, "solve_resonance",
                        lambda m, seed, *a, **kw: solved.append(seed) or solve(m, seed, *a, **kw))
    poles = cli._cavity_resonances(model, band, p["energy"])
    assert len(solved) == len(set(seeds)) < len(seeds)
    assert [(r.z, r.converged, r.iterations) for r in poles] == \
        [(r.z, r.converged, r.iterations) for r in every_seed]


def test_threaded_map_builds_each_geometry_once(tmp_path):
    # one pool task per dtheta row: the "in" port and the five "out" ports are
    # each rotated once (a radius no other test uses, so every one misses);
    # a short switch interval makes two threads that share a row miss together
    before = sph3d._port_columns.cache_info().misses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(["sphere", "map", "--axis1", "dtheta:1:2:5", "--axis2",
                     "energy:0.3:1.5:4", "--threads", "2", "--truncation", "3",
                     "--set", "radius=4.7", "--out", str(tmp_path)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert sph3d._port_columns.cache_info().misses - before == 6


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path)
    assert main(["twolevel", "map", "--axis1", "eps:-1:1:5",
                 "--axis2", "energy:-1:1:5", "--out", out]) == 0
    assert main(["twolevel", "map", "--axis1", "nope:-1:1:5",
                 "--axis2", "energy:-1:1:5", "--out", out]) == 2
    assert main(["twolevel", "map", "--axis1", "eps:-1:1:1",
                 "--axis2", "energy:-1:1:5", "--out", out]) == 2
    assert main(["twolevel", "bics", "--set", "bogus=1", "--out", out]) == 2
    # the Sinai search needs a bump that keeps the y-parity
    assert main(["sinai", "bics", "--set", "y0=0.2", "--out", out]) == 2
    # every grid point below the first cutoff: numerical failure, partial
    # outputs preserved
    code = main(["planar", "map", "--axis1", "energy:1:2:3",
                 "--axis2", "ly:3.0:3.2:2", "--out", out,
                 "--truncation", "6"])
    assert code == 3
    assert (tmp_path / "planar_map.dat").exists()


@pytest.mark.parametrize("truncation", [
    ["--set", "radius=1.3", "--set", "l_max=2", "--set", "m_max=1", "--set", "n_max=1"],
    ["--set", "l_max=1", "--set", "m_max=1", "--set", "n_max=1"]])
def test_cli_bics_that_finds_nothing_exits_3(truncation, tmp_path):
    # a cylinder truncated to a handful of modes has no zero-width point in
    # its scan: the catalog is written, empty, and the verb says so
    assert main(["cyl", "bics", *truncation, "--out", str(tmp_path)]) == 3
    _, rows = sweep.read_catalog(tmp_path / "cyl_bics.dat")
    assert rows == []
    # the no-BIC control is empty by construction, which its catalog states
    assert main(["well", "bics", "--out", str(tmp_path)]) == 0
    _, rows = sweep.read_catalog(tmp_path / "well_bics.dat")
    assert rows == []


def test_cli_fpchain_bics_honours_tolerances(tmp_path):
    # the record's null residual is about 1e-16, so a zero null tolerance
    # leaves no zero-width point to write
    assert main(["fpchain", "bics", "--out", str(tmp_path)]) == 0
    assert main(["fpchain", "bics", "--tol-null", "0", "--out", str(tmp_path)]) == 3


def test_cli_malformed_axis_and_grid_exit_2(tmp_path):
    out = str(tmp_path)
    assert main(["twolevel", "map", "--axis1", "eps:-1:1",
                 "--axis2", "energy:-1:1:5", "--out", out]) == 2
    assert main(["abring", "field", "--grid", "3x3", "--out", out]) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_config_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[twolevel]\ngamma1 = 0.3\ngamma2 = 0.3\nu = 2.0\n")
    out = str(tmp_path)
    assert main(["twolevel", "bics", "--config", str(cfg), "--out", out]) == 0
    header, rows = sweep.read_catalog(tmp_path / "twolevel_bics.dat")
    assert "gamma1=2.9999999999999999e-01" in header["params"]
    # the flag overrides the config file
    assert main(["twolevel", "bics", "--config", str(cfg),
                 "--set", "u=0.0", "--out", out]) == 0
    _, rows0 = sweep.read_catalog(tmp_path / "twolevel_bics.dat")
    assert rows0[0]["param"] == pytest.approx(0.0, abs=1e-8)


def test_cli_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[well]\nwat = 1\n")
    assert main(["well", "bics", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_catalog_round_trip_and_classification(tmp_path):
    out = str(tmp_path)
    assert main(["abring", "bics", "--out", out]) == 0
    header, rows = sweep.read_catalog(tmp_path / "abring_bics.dat")
    assert header["model"] == "abring"
    assert len(rows) == 4
    assert all(r["classification"] == "friedrich-wintgen" for r in rows)
    assert rows == sorted(rows, key=lambda r: r["omega_sq"])
    assert all(len(r["modes"]) >= 4 for r in rows)
    # well: control case, empty catalog with header intact
    assert main(["well", "bics", "--out", out]) == 0
    header_w, rows_w = sweep.read_catalog(tmp_path / "well_bics.dat")
    assert header_w["model"] == "well"
    assert rows_w == []


def test_well_catalog_is_marked_empty_by_construction(tmp_path):
    out = str(tmp_path)
    assert main(["well", "bics", "--out", out]) == 0
    header, rows = sweep.read_catalog(tmp_path / "well_bics.dat")
    assert rows == []
    assert header["note"].startswith("empty by construction")
    assert "no-BIC control" in header["note"]
    # a model that can have BICs writes no such note
    assert main(["abring", "bics", "--out", out]) == 0
    assert "note" not in sweep.read_catalog(tmp_path / "abring_bics.dat")[0]


def _verb_parsers():
    def choices(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for model, mp in choices(cli.build_parser()).items():
        for verb, vp in choices(mp).items():
            yield model, verb, vp


def test_parser_is_built_once_with_every_verb_option():
    assert cli.build_parser() is cli.build_parser()
    shared = {"-h", "--help", "--config", "--out", "--threads", "--tol-width", "--tol-null",
              "--pmax", "--truncation", "--set"}
    extra = {"map": {"--axis1", "--axis2"}, "field": {"--grid"}}
    seen = set()
    for model, verb, vp in _verb_parsers():
        options = {s for a in vp._actions for s in a.option_strings}
        assert options == shared | extra.get(verb, set()), (model, verb)
        seen.add((model, verb))
    assert seen == {(m, v) for m in MODELS for v in cli.VERBS}


def test_shared_parser_does_not_leak_overrides(tmp_path):
    # one parser serves every call of a process: an override of one call
    # must not reach the next
    argv = ["planar", "map", "--axis1", "ly:4:4.2:2", "--axis2", "energy:14:15:2",
            "--truncation", "6", "--pmax", "2"]
    params = []
    for extra in (["--set", "lx=3"], []):
        out = tmp_path / str(len(params))
        assert main(argv + extra + ["--out", str(out)]) == 0
        params.append(sweep.read_map(out / "planar_map.dat")[0]["params"])
    assert "lx=3.0000000000000000e+00" in params[0]
    assert "lx=4.0000000000000000e+00" in params[1]


def test_field_round_trip(tmp_path):
    out = str(tmp_path)
    assert main(["abring", "field", "--grid", "40:2", "--out", out]) == 0
    header, data = sweep.read_field(tmp_path / "abring_field.dat")
    assert header["model"] == "abring"
    assert data.shape == (80, 4)
    assert np.allclose(data[:, 3], np.abs(data[:, 2] + 0j) ** 2, atol=1e20)


def test_all_zero_field_round_trips_to_zeros(tmp_path):
    g1, g2 = np.linspace(0, 1, 5), np.linspace(0, 2, 4)
    field = np.zeros((5, 4), dtype=complex)
    sweep.write_field(tmp_path / "zero.dat", "well", {"k": 1.0}, "x -", g1, g2,
                      field)
    _, data = sweep.read_field(tmp_path / "zero.dat")
    assert np.array_equal(data[:, 2:], np.zeros((20, 2)))


def test_resonances_output(tmp_path):
    out = str(tmp_path)
    assert main(["abring", "resonances", "--out", out]) == 0
    text = (tmp_path / "abring_resonances.dat").read_text()
    rows = [r for r in text.splitlines() if not r.startswith("#")]
    assert rows
    # ring poles have strictly negative imaginary parts away from trapping
    ims = [float(r.split()[2]) for r in rows]
    assert all(i <= 1e-9 for i in ims)


@pytest.mark.parametrize("model", ["well", "zeeman"])
def test_resonances_that_find_no_pole_exit_3_and_keep_the_file(tmp_path, capsys, model):
    assert main([model, "resonances", "--out", str(tmp_path)]) == 3
    assert "numerical failure: no resonance found" in capsys.readouterr().err
    _, rows = sweep.read_resonances(tmp_path / f"{model}_resonances.dat")
    assert len(rows) == 0


def test_heavy_model_maps_small_truncation(tmp_path):
    out = str(tmp_path)
    assert main(["planar", "map", "--axis1", "energy:12:16:3",
                 "--axis2", "ly:3.8:4.2:2", "--out", out,
                 "--truncation", "8", "--pmax", "3"]) == 0
    assert main(["sinai", "map", "--axis1", "energy:12:20:3",
                 "--axis2", "vg:-10:10:2", "--out", out,
                 "--truncation", "8", "--pmax", "3"]) == 0
    for name in ("planar_map.dat", "sinai_map.dat"):
        header, data = sweep.read_map(tmp_path / name)
        assert np.isfinite(data[:, 2]).all()
        assert (data[:, 2] >= -1e-12).all() and (data[:, 2] <= 1 + 1e-9).all()


def test_zeeman_bics_catalog(tmp_path):
    out = str(tmp_path)
    assert main(["zeeman", "bics", "--out", out]) == 0
    header, rows = sweep.read_catalog(tmp_path / "zeeman_bics.dat")
    assert len(rows) >= 6
    assert all(r["gamma_res"] <= 1e-7 for r in rows)  # sigma_min at the point
