"""hcore.brentq, the package's one root finder, against scipy.optimize.brentq
as the oracle: the same evaluation points and the same root, bit for bit, at
each of the package's root sites and on analytic functions, and the same
exception types at the edge cases.  Also checks that scipy.optimize stays off
the package's import path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from openres import cli, cyl3d, hcore, toymodels, wires1d

PORT = hcore.brentq


def _logged(f, points):
    def g(x):
        points.append(x)
        return f(x)
    return g


def _run(solver, f, a, b, **kw):
    """(result or exception type, evaluation points) of one solve."""
    points = []
    try:
        return solver(_logged(f, points), a, b, **kw), points
    except Exception as exc:  # the exception type is the result compared
        return type(exc), points


@pytest.fixture
def oracle(monkeypatch):
    """Routes every hcore.brentq call through the port and then scipy, on
    the same function and bracket; logs (function, port, scipy) where each
    of the last two is (result, evaluation points)."""
    calls = []

    def both(f, a, b, **kw):
        ours = _run(PORT, f, a, b, **kw)
        calls.append((f.__qualname__, ours, _run(scipy_brentq, f, a, b, **kw)))
        return PORT(f, a, b, **kw)

    monkeypatch.setattr(hcore, "brentq", both)
    return calls


def _assert_same(ours, theirs):
    (root, points), (ref, ref_points) = ours, theirs
    assert points == ref_points
    assert type(root) is type(ref) and root == ref


THETA, B_FIELD, PHI, U0 = np.pi / 4, 10.0, np.pi / 3, -20.0

SITES = {
    "_brent_root.<locals>.real_part":
        lambda tmp: cli.main(["twolevel", "bics", "--out", str(tmp)]),
    "cmt_bic_length.<locals>.gap":
        lambda tmp: [cyl3d.cmt_bic_length(cyl3d.TruncatedCMT(), dphi)
                     for dphi in (np.pi / 4, 0.7)],
    "fp_chain_bic.<locals>.amp":
        lambda tmp: [toymodels.fp_chain_bic(toymodels.FPChainParams(*p))
                     for p in ((-0.5, 0.5, 0.0, 0.25, 0.5), (0.2, 0.9, 0.5, 0.3, 0.4))],
    "zeeman_bic_points.<locals>.gap":
        lambda tmp: wires1d.zeeman_bic_points(THETA, B_FIELD, PHI, U0, "sym"),
    "zeeman_printed_roots.<locals>.f":
        lambda tmp: wires1d.zeeman_printed_roots(
            wires1d.ZeemanParams(20.0, THETA, 1.0, B_FIELD, PHI, U0), "sym"),
}


@pytest.mark.parametrize("site", SITES)
def test_root_sites_match_scipy_bit_for_bit(site, oracle, tmp_path):
    SITES[site](tmp_path)
    mine = [c for c in oracle if c[0] == site]
    assert mine and {c[0] for c in oracle} == {site}
    for _, ours, theirs in mine:
        _assert_same(ours, theirs)


def test_analytic_roots_match_scipy_bit_for_bit():
    # values of 1e-200 make dblk * dpre underflow to 0 / 0, where C gets
    # nan and bisects: the port must bisect too, not raise ZeroDivisionError
    rng = np.random.default_rng(7)
    makers = (lambda c: lambda x: x ** 3 - c,
              lambda c: lambda x: math.tan(x) - c,
              lambda c: lambda x: math.atan(1e6 * (x - c)),
              lambda c: lambda x: 1e-200 * (x - c),
              lambda c: lambda x: math.copysign(1.0, x - c))
    for make in makers:
        for _ in range(20):
            f = make(rng.uniform(-0.9, 0.9))
            a, b = rng.uniform(-1.2, -0.95), rng.uniform(0.95, 1.2)
            for kw in ({}, {"xtol": 1e-14}, {"xtol": 1e-3}, {"maxiter": 5}):
                _assert_same(_run(PORT, f, a, b, **kw), _run(scipy_brentq, f, a, b, **kw))


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x, 0.0, 1.0, {}),                      # zero at a: returns a
    (lambda x: x - 1.0, 0.0, 1.0, {}),                # zero at b: returns b
    (lambda x: x * x + 1.0, -1.0, 1.0, {}),           # same signs
    (lambda x: 1e-200, -1.0, 1.0, {}),                # same signs, product underflows
    (lambda x: math.nan, -1.0, 1.0, {}),              # NaN at an end
    (lambda x: math.nan if abs(x) < 0.5 else x, -1.0, 2.0, {}),  # NaN inside
    (lambda x: x ** 3 - 0.3, -1.0, 1.0, {"maxiter": 3}),  # maxiter exhausted
    (lambda x: x ** 3 - 0.3, -1.0, 1.0, {"maxiter": 0}),
    (lambda x: x ** 3 - 0.3, -1.0, 1.0, {"maxiter": -1}),
    (lambda x: x, -1.0, 1.0, {"xtol": 0.0}),
    (lambda x: x, -1.0, 1.0, {"xtol": -1e-12}),
    (lambda x: x ** 3 - 0.3, 1.0, -1.0, {}),          # reversed bracket
    (lambda x: x ** 3 - 0.3, np.float64(-1.0), np.float64(1.0), {}),  # float result
])
def test_edge_cases_match_scipy(f, a, b, kw):
    _assert_same(_run(PORT, f, a, b, **kw), _run(scipy_brentq, f, a, b, **kw))


_ROOT_PATH_RUN = """
import sys, tempfile
from openres import cli
assert cli.main(["fpchain", "bics", "--out", tempfile.mkdtemp()]) == 0
print("scipy.optimize" in sys.modules)
"""


def test_scipy_optimize_stays_off_the_import_path():
    # importing the CLI and running one root-finding verb loads no
    # scipy.optimize, which costs about 0.2 s at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _ROOT_PATH_RUN],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.split()[-1] == "False"
