"""Tests of the benchmark's own checks and of the span arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from openres import cli, hcore, sweep  # noqa: E402


# ------------------------------------------------------------ fixtures --

def _bic(param, omega_sq, gamma=1e-14, residual=1e-13):
    return hcore.BICRecord(param=param, omega_sq=omega_sq,
                           null_vector=np.array([1.0 + 0j, 0.0]), gamma_res=gamma,
                           residual=residual, is_bic=gamma <= 1e-8,
                           labels=("a", "b"), classification="friedrich-wintgen")


def write_bic_outputs(out: Path, gamma_planar=1e-14) -> dict:
    """Catalogs that match the seed-0 references; returns result.json data."""
    flags = {}
    for search in workloads.bic_searches(0):
        gamma = gamma_planar if search.name == "planar" else 1e-14
        rec = _bic(search.param, search.omega_sq, gamma=gamma)
        sweep.write_catalog(out / f"{search.name}_bics.dat", search.name, {}, [rec])
        flags[search.name] = [rec.is_bic]
    return {"is_bic": flags}


def write_resonance_outputs(out: Path, reference: dict, drop: int | None = None):
    for model, poles in reference["resonances"].items():
        recs = [hcore.ResonanceRecord(z=complex(re, im), vector=np.zeros(1))
                for re, im in poles]
        if model == "planar" and drop is not None:
            del recs[drop]
        sweep.write_resonances(out / f"{model}_resonances.dat", model, {}, recs)
    return {"exit_codes": dict.fromkeys(reference["resonances"], 0)}


def inject_nan_row(path: Path, index: int = -1) -> None:
    """Replace the value columns of one map row by NaN."""
    lines = path.read_text().splitlines()
    toks = lines[index].split()
    lines[index] = " ".join(toks[:2] + ["nan"] * (len(toks) - 2))
    path.write_text("\n".join(lines) + "\n")


def small_map(out: Path, model: str, axis1, axis2):
    spec = workloads.MapSpec(model, "light", axis1, axis2)
    assert cli.main(spec.argv(out)) == 0
    return spec


# ------------------------------------------------------------------ bics --

def test_bic_checks_pass_on_reference_records(tmp_path):
    result = write_bic_outputs(tmp_path)
    outcome = checks.check_bics(tmp_path, 0, result)
    assert outcome.failed == 0 and outcome.attempted == 6


def test_corrupted_bic_record_is_counted(tmp_path):
    result = write_bic_outputs(tmp_path, gamma_planar=1e-3)
    outcome = checks.check_bics(tmp_path, 0, result)
    # the record itself and its is_bic flag
    assert outcome.failed == 2
    assert any("planar" in p for p in outcome.problems)


def test_bic_off_reference_is_counted(tmp_path):
    result = write_bic_outputs(tmp_path)
    search = workloads.bic_searches(0)[1]
    rec = _bic(search.param * (1 + 10 * checks.BIC_REL_TOL), search.omega_sq)
    sweep.write_catalog(tmp_path / "cyl_bics.dat", "cyl", {}, [rec])
    assert checks.check_bics(tmp_path, 0, result).failed == 1


def test_missing_bic_catalog_is_counted(tmp_path):
    result = write_bic_outputs(tmp_path)
    (tmp_path / "sphere_bics.dat").unlink()
    assert checks.check_bics(tmp_path, 0, result).failed == 2


# ------------------------------------------------------------ resonances --

def test_missing_reference_pole_is_counted(tmp_path):
    reference = checks.load_reference()
    result = write_resonance_outputs(tmp_path, reference)
    assert checks.check_resonances(tmp_path, result, reference).failed == 0
    result = write_resonance_outputs(tmp_path, reference, drop=0)
    outcome = checks.check_resonances(tmp_path, result, reference)
    assert outcome.failed == 1
    assert outcome.attempted == 4 + sum(map(len, reference["resonances"].values()))


def test_nonzero_exit_code_is_counted(tmp_path):
    reference = checks.load_reference()
    result = write_resonance_outputs(tmp_path, reference)
    result["exit_codes"]["cyl"] = 3
    assert checks.check_resonances(tmp_path, result, reference).failed == 1


# ------------------------------------------------------------------ maps --

def test_injected_nan_map_row_is_counted(tmp_path):
    spec = small_map(tmp_path, "abring", workloads.Axis("gamma", 0.1, 1.1, 3),
                     workloads.Axis("k", 0.5, 1.5, 3))
    assert checks.check_map(tmp_path, spec, 1, None).failed == 0
    inject_nan_row(tmp_path / "abring_map.dat")
    outcome = checks.check_map(tmp_path, spec, 1, None)
    assert outcome.failed == 1 and "NaN" in outcome.problems[0]


def test_out_of_range_transmission_is_counted(tmp_path):
    spec = small_map(tmp_path, "abring", workloads.Axis("gamma", 0.1, 1.1, 3),
                     workloads.Axis("k", 0.5, 1.5, 3))
    path = tmp_path / "abring_map.dat"
    text = path.read_text().splitlines()
    toks = text[-1].split()
    toks[2] = "%.16e" % 1.5
    text[-1] = " ".join(toks)
    path.write_text("\n".join(text) + "\n")
    assert checks.check_map(tmp_path, spec, 1, None).failed >= 1


def test_fano_collapse_point_is_a_singular_row_not_a_failure(tmp_path):
    spec = small_map(tmp_path, "twolevel", workloads.Axis("eps", -1.0, 1.0, 3),
                     workloads.Axis("energy", -1.0, 1.0, 3))
    outcome = checks.check_map(tmp_path, spec, 1, None)
    assert outcome.singular_rows == 1 and outcome.failed == 0
    # a NaN row elsewhere is a failure even in the twolevel map
    inject_nan_row(tmp_path / "twolevel_map.dat")
    assert checks.check_map(tmp_path, spec, 1, None).failed == 1


def test_direct_recomputation_matches_the_sweep(tmp_path):
    Axis = workloads.Axis
    for model, a1, a2 in [
            ("planar", Axis("ly", 3.0, 4.0, 2), Axis("energy", 12.0, 20.0, 2)),
            ("sphere", Axis("dtheta", 1.0, 2.0, 2), Axis("energy", 0.5, 1.0, 2)),
            ("twolevel", Axis("eps", 0.3, 0.6, 2), Axis("energy", 0.1, 0.2, 2))]:
        spec = small_map(tmp_path, model, a1, a2)
        rows = checks.read_map(tmp_path / f"{model}_map.dat")
        for row in rows:
            direct = checks.recompute_point(model, row[0], row[1], spec)
            np.testing.assert_allclose(row[2:], direct, rtol=0, atol=1e-9)


# ---------------------------------------------------------- the command --

def _fake_measure(out: Path, result: dict):
    def measure(root, workload, seed, seconds, trace):
        it = dict(result, wall_s=1.0, peak_rss_mb=50.0, setup_s=0.5, python="3",
                  numpy="2", scipy="1", blas="test", out=str(out))
        return [[it]], [0.5]
    return measure


@pytest.mark.parametrize("case", ["bic", "pole", "nan"])
def test_command_exits_nonzero_on_a_failed_check(tmp_path, monkeypatch, capsys, case):
    out = tmp_path / "out"
    out.mkdir()
    if case == "bic":
        workload, result = "bics", write_bic_outputs(out, gamma_planar=1e-3)
    elif case == "pole":
        workload = "resonances"
        result = write_resonance_outputs(out, checks.load_reference(), drop=2)
    else:
        workload = "maps"
        spec = small_map(out, "abring", workloads.Axis("gamma", 0.1, 1.1, 3),
                         workloads.Axis("k", 0.5, 1.5, 3))
        monkeypatch.setattr(workloads, "map_specs", lambda seed: [spec])
        result = {"exit_codes": {"abring": 0}, "map_s": {"cavity": 1.0, "light": 1.0}}
        inject_nan_row(out / "abring_map.dat")
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "RUN_DIR", str(tmp_path / "run"))
    monkeypatch.setattr(run, "measure", _fake_measure(out, result))
    (tmp_path / "run" / workload).mkdir(parents=True)
    code = run.main(["--workload", workload, "--seed", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] >= 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "bics", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in trace_layers.per_layer_metrics()]


def test_seed_moves_windows_by_at_most_a_quarter_step():
    for seed in range(1, 40):
        for base, shifted in zip(workloads.map_specs(0), workloads.map_specs(seed)):
            for a, b in ((base.axis1, shifted.axis1), (base.axis2, shifted.axis2)):
                step = (a.hi - a.lo) / (a.count - 1)
                assert abs(b.lo - a.lo) <= 0.25 * step + 1e-15
        assert workloads.map_specs(seed)[-1] == workloads.map_specs(0)[-1]
        assert workloads.map_specs(seed) == workloads.map_specs(seed)


# ----------------------------------------------------------- span maths --

def test_union_length():
    assert trace_layers.union_length([]) == 0.0
    assert trace_layers.union_length([(5, 8), (6, 9), (10, 11)]) == 5.0
    assert trace_layers.union_length([(0, 4), (1, 2)]) == 4.0


def test_self_time_on_a_hand_built_tree_with_worker_threads():
    now = [0.0]
    tracer = trace_layers.Tracer(clock=lambda: now[0], run_id="r1")

    def at(t, fn, *args):
        now[0] = t
        return fn(*args)

    root = at(0.0, tracer.enter, "sweep.run_sweep")
    child = at(1.0, tracer.enter, "hcore.solve_resonance")
    leaf = at(2.0, tracer.enter, "specfun.bessel_j", False)
    at(3.0, tracer.exit, leaf)
    at(4.0, tracer.exit, child)

    def worker(start, end, name):
        frame = at(start, tracer.enter, name)
        inner = at(start + 0.5, tracer.enter, "hcore.green", False)
        at(start + 1.0, tracer.exit, inner)
        at(end, tracer.exit, frame)

    # two workers overlapping in [6, 8]; their union is [5, 9]
    for args in ((5.0, 8.0, "hcore.smatrix"), (6.0, 9.0, "hcore.smatrix")):
        t = threading.Thread(target=worker, args=args)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    at(10.0, tracer.exit, root)

    self_s = tracer.self_seconds
    assert self_s["specfun.bessel_j"] == pytest.approx(1.0)
    assert self_s["hcore.solve_resonance"] == pytest.approx(2.0)
    assert self_s["hcore.green"] == pytest.approx(1.0)        # 0.5 + 0.5
    assert self_s["hcore.smatrix"] == pytest.approx(5.0)      # (3 - .5) + (3 - .5)
    # 10 - 3 (same-thread child) - 4 (union of the worker spans)
    assert self_s["sweep.run_sweep"] == pytest.approx(3.0)
    assert tracer.seconds["hcore.smatrix"] == pytest.approx(6.0)

    spans = {s["name"]: s for s in tracer.spans if s["name"] != "hcore.smatrix"}
    workers = [s for s in tracer.spans if s["name"] == "hcore.smatrix"]
    assert spans["hcore.solve_resonance"]["parent"] == spans["sweep.run_sweep"]["id"]
    assert all(w["parent"] == spans["sweep.run_sweep"]["id"] for w in workers)
    assert {s["run"] for s in tracer.spans} == {"r1"}
    assert "specfun.bessel_j" not in spans        # tallied, not a span

    mods = tracer.module_self_seconds()
    assert mods["hcore"] == pytest.approx(2.0 + 1.0 + 5.0)
    # the workers ran in parallel, so self times add up to more than the
    # 10 s of wall time
    assert sum(mods.values()) == pytest.approx(12.0)


def test_span_under_a_tally_takes_the_nearest_span_as_parent():
    tracer = trace_layers.Tracer()
    outer = tracer.enter("sweep.run_sweep")
    leaf = tracer.enter("hcore.green", False)
    inner = tracer.enter("hcore.smatrix")
    for frame in (inner, leaf, outer):
        tracer.exit(frame)
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["hcore.smatrix"]["parent"] == spans["sweep.run_sweep"]["id"]


def test_spans_out_of_order_are_rejected():
    tracer = trace_layers.Tracer()
    outer = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_install_and_uninstall_restore_the_program():
    from openres import specfun
    original = specfun.wigner_small_d
    tracer = trace_layers.Tracer()
    wrapped = trace_layers.install(tracer)
    try:
        assert specfun.wigner_small_d is not original
        assert math.isclose(specfun.wigner_small_d(2, 1, 0, 0.3),
                            original(2, 1, 0, 0.3))
        assert "specfun.wigner_small_d" in wrapped
        assert trace_layers.present("hcore.eig.dense.n400", wrapped)
        assert not trace_layers.present("hcore.removed_function", wrapped)
    finally:
        trace_layers.uninstall()
    assert specfun.wigner_small_d is original
    assert tracer.calls["specfun.wigner_small_d"] == 1


def test_small_eigs_inside_other_layers_are_not_dense_eigensolves():
    from openres import toymodels
    rng = np.random.default_rng(3)
    n = 30
    # eight eigenvalues near the shift, the rest far off: no dense fallback
    near_far = np.concatenate([10.0 + 0.3 * np.arange(8), 100.0 + np.arange(n - 8)])
    h = np.diag(near_far.astype(complex)) + 1e-3 * rng.standard_normal((n, n))
    tracer = trace_layers.Tracer()
    trace_layers.install(tracer)
    try:
        toymodels.twolevel_transmission(0.3, toymodels.TwoLevelParams(0.5, 1.0, 0.5))
        vals, _ = hcore._eig_near(h, 10.2)
        assert tracer.calls["toymodels.twolevel_transmission"] == 1
        assert tracer.calls["hcore.eig.shift_invert"] == 1
        assert tracer.calls["hcore.eig.dense"] == 0
        np.linalg.eig(np.eye(2))
    finally:
        trace_layers.uninstall()
    assert np.min(np.abs(vals - 10.3)) < 1e-2
    # a dense eig outside those layers counts, in the bucket of its size
    assert tracer.calls["hcore.eig.dense"] == 1
    assert tracer.metrics()["hcore.eig.dense.other.calls"] == 1


def test_dense_fallback_of_the_shift_invert_path_counts():
    tracer = trace_layers.Tracer()
    frame = tracer.enter("hcore.eig.shift_invert", span=False, size=162)
    assert trace_layers.is_eig_step(frame, 8)
    assert not trace_layers.is_eig_step(frame, 162)
    assert not trace_layers.is_eig_step(None, 2)
