"""openres benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload bics --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is timed first, in interpreters that only import the program, one
after another.  Then each iteration runs the workload in fresh interpreters
(cold module caches, as for a CLI user) with BLAS pinned to one thread, one
copy per CPU (two at most), each pinned to its CPU.  Iterations repeat while
one more, as long as the last, still ends within ``--seconds``; at least one
runs.  ``wall_s`` is the fastest process.  The outputs of every process are
checked after the timed runs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import trace_layers
import workloads

HERE = Path(__file__).resolve().parent
RUN_DIR = ".perfbench_run"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is sampled in this many interpreters per run, one after another
# before the workload starts, and reported as the median
SETUP_PROBES = 5
PROBE = "import time, numpy, scipy, openres.cli; print(time.monotonic())"
RUN_LIMIT_S = 170.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The program could not be found or a workload process failed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def _fail(cmd, code, stderr: str):
    raise BenchError(f"{' '.join(map(str, cmd[:4]))} exited {code}:\n{stderr[-3000:]}")


def probe_setup(root: Path, env: dict, timeout: float) -> float:
    """Seconds from interpreter start until openres, numpy and scipy are
    imported."""
    cmd = [sys.executable, "-c", PROBE]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        _fail(cmd, proc.returncode, proc.stderr)
    return float(proc.stdout.split()[-1]) - t0


def run_batch(root: Path, env: dict, workload: str, seed: int, jobs,
              timeout: float) -> list:
    """Run workload processes at the same time, one per (out, trace, cpu)
    job, each pinned to its cpu.  Returns their result.json."""
    procs = []
    try:
        for out, trace, cpu in jobs:
            cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                   "--seed", str(seed), "--out", str(out)] + (["--trace"] if trace else [])
            procs.append((cmd, out, subprocess.Popen(
                cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                preexec_fn=lambda c=cpu: os.sched_setaffinity(0, {c}))))
        deadline = time.monotonic() + max(timeout, 1.0)
        results = []
        for cmd, out, proc in procs:
            _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                _fail(cmd, proc.returncode, err)
            result = json.loads((out / "result.json").read_text())
            if not Path(result["openres_file"]).resolve().is_relative_to(root / "src"):
                raise BenchError(f"openres imported from {result['openres_file']}, "
                                 f"not from {root / 'src'}")
            result["out"] = str(out)
            results.append(result)
        return results
    finally:
        for *_, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def end_to_end(procs: list, setups: list) -> dict:
    """The fastest workload process of the run (the CPU speed of the box
    drifts; the fastest copy is the least disturbed), medians otherwise."""
    return {
        "wall_s": min(r["wall_s"] for r in procs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in procs),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    wrapped = set(traced["layers_wrapped"])
    return {name: (float(layers.get(name, 0.0)), unit)
            for name, unit, _, layer in trace_layers.per_layer_metrics()
            if trace_layers.present(layer, wrapped)}


def cpu_slots() -> list:
    """CPUs for the concurrent copies of one batch, one pinned copy per CPU
    (two at most).  The map verbs' two sweep threads share their copy's
    CPU: run unpinned, their time swings with how the GIL-bound threads
    land on the CPUs, and the run-to-run drift outgrows any useful bound."""
    return sorted(os.sched_getaffinity(0))[:2]


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    """(batches, set-up samples).  Untraced, batches repeat while one more,
    as long as the last, ends within ``seconds``; traced, one untraced and
    one traced copy run (side by side when there are two CPUs)."""
    env = child_env(root)
    base = root / RUN_DIR / workload
    shutil.rmtree(base, ignore_errors=True)
    start = time.monotonic()

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    setups = [probe_setup(root, env, remaining()) for _ in range(SETUP_PROBES)]
    slots = cpu_slots()
    batches = []
    if trace:
        jobs = [(base / f"traced{flag}", bool(flag), slots[flag % len(slots)])
                for flag in (0, 1)]
        if len(slots) == 2:
            batches.append(run_batch(root, env, workload, seed, jobs, remaining()))
        else:
            batches += [run_batch(root, env, workload, seed, [job], remaining())
                        for job in jobs]
    else:
        t0, batch_s = time.monotonic(), 0.0
        while not batches or time.monotonic() - t0 + batch_s <= seconds:
            b0 = time.monotonic()
            jobs = [(base / f"iter{len(batches)}.{i}", False, cpu)
                    for i, cpu in enumerate(slots)]
            batches.append(run_batch(root, env, workload, seed, jobs, remaining()))
            batch_s = time.monotonic() - b0
    return batches, setups


def check(workload: str, seed: int, procs: list, root: Path):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(root / "src"))
    import checks

    reference = checks.load_reference()
    outcome = checks.Outcome()
    for result in procs:
        outcome.merge(checks.check_iteration(workload, Path(result["out"]), seed,
                                             result, reference))
    return outcome


def summary_lines(workload: str, seed: int, metrics: dict, outcome,
                  untraced: list) -> list:
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    frac = outcome.failed / max(outcome.attempted, 1)
    lines.append(f"failed_frac = {frac:.6g} ratio ({outcome.failed} of "
                 f"{outcome.attempted} checked)")
    if workload == "maps":
        for kind in ("cavity", "light"):
            points = sum(s.points for s in workloads.map_specs(seed) if s.kind == kind)
            seconds = min(r["map_s"][kind] for r in untraced)
            lines.append(f"{kind}_map_points_per_s = {points / seconds:.6g} 1/s "
                         f"({points} points, fastest process)")
        lines.append(f"singular_rows = {outcome.singular_rows} count (the twolevel "
                     "Fano collapse point, SingularTransmissionPoint, summed over "
                     "the run's processes)")
    lines += [f"check failed: {p}" for p in outcome.problems]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "openres" / "__init__.py").is_file():
        print(f"perfbench: no openres package under {root / 'src'}; run from the "
              "root of an openres checkout", file=sys.stderr)
        return 2
    try:
        batches, setups = measure(root, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    procs = [r for batch in batches for r in batch]
    outcome = check(args.workload, args.seed, procs, root)

    untraced = [r for r in procs if "layers" not in r]
    if args.trace:
        metrics = per_layer(untraced[0], next(r for r in procs if "layers" in r))
    else:
        units = dict(END_TO_END)
        metrics = {name: (value, units[name])
                   for name, value in end_to_end(procs, setups).items()}
    first = procs[0]
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "batches": len(batches), "copies": len(batches[0]),
           "cpus": sorted(os.sched_getaffinity(0)), "nproc": os.cpu_count(),
           "loadavg": os.getloadavg(), "python": first["python"],
           "numpy": first["numpy"], "scipy": first["scipy"], "blas": first["blas"],
           "blas_threads": 1, "map_threads": workloads.MAP_THREADS,
           "commit": git_commit(root)}
    record = {"environment": env, "setup_s": setups,
              "processes": [{k: v for k, v in r.items() if k != "layers"}
                            for r in procs],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (root / RUN_DIR / args.workload / "run.json").write_text(json.dumps(record, indent=1))

    print("environment: " + json.dumps(env))
    for line in summary_lines(args.workload, args.seed, metrics, outcome, untraced):
        print(line)
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
