"""Command-line front end: one subcommand per model, each with map /
resonances / bics / field verbs.

Every model is one entry of ``MODELS``: its parameters with their defaults,
its map columns and one callable per verb.  The parser, the parameter
loader and ``main`` read nothing else, so adding a model is adding one
entry.

Configuration comes from an INI-style file (one section per model, flat
key = value entries) overridden by repeated --set key=value flags; flags
win.  Exit codes: 0 success, 2 usage error, 3 numerical failure (partial
outputs are left in place).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, cyl3d, hcore, planar2d, sph3d, sweep, toymodels, wires1d
from .sweep import Axis, SweepSpec, UsageError


@dataclass(frozen=True)
class Model:
    """One CLI model.

    ``point(p)`` gives the map values (one per column) at the parameter
    point ``p``; ``bics(p, tol_width, tol_null)`` the catalog records and a
    label getter (None: the records' own modal expansion);
    ``resonances(p)`` the pole records; ``field(p, n1, n2, tol_width,
    tol_null)`` the (axes description, grid1, grid2, field) of the trapped
    state.  ``point`` also takes an array for each parameter named in
    ``batched`` (one value per point of a map row) and then gives one array
    per column, with NaN where a point fails: bit for bit the scalar values
    for the light models, and within 1e-13 of them for the cavity rows of
    ``hcore.smatrix_row``."""

    defaults: dict
    columns: tuple
    point: Callable
    bics: Callable
    resonances: Callable
    field: Callable
    batched: tuple = ()
    # why the BIC catalog is empty by construction ("": it is not)
    no_bics: str = ""


VERBS = ("map", "resonances", "bics", "field")

_INT_KEYS = {"m_max", "n_max", "l_max", "p_max"}


def _newton_poles(step, seeds, iters: int, tol: float, keep) -> list:
    """Complex-Newton poles from real seeds; ``step(z)`` is the Newton
    correction at z.  Converged poles that ``keep`` accepts are recorded
    once (within 1e-6), sorted by real part."""
    recs = []
    for z0 in seeds:
        z = complex(z0)
        for _ in range(iters):
            dz = step(z)
            z -= dz
            if abs(dz) < tol:
                break
        if abs(dz) < tol and keep(z) and not any(abs(z - r.z) < 1e-6 for r in recs):
            recs.append(hcore.ResonanceRecord(z=z, vector=np.zeros(1), converged=True))
    recs.sort(key=lambda r: r.z.real)
    return recs


def _null_vector_field(bics):
    """Field verb of a discrete model: the first trapped state's amplitudes
    over the sites."""
    def field(p, n1, n2, tol_width, tol_null):
        recs, _ = bics(p, tol_width, tol_null)
        if not recs:
            raise sweep.NumericalFailure("no trapped state found")
        vec = recs[0].null_vector
        fld = np.asarray(vec, dtype=complex)[:, None]
        return "site -", np.arange(float(len(vec))), np.arange(1.0), fld
    return field


def _heff_resonances(model, seeds):
    """Fixed-point poles of an H_eff model from real seeds.  A repeated seed
    is solved once (bit-identical seeds give identical cold solves; 0.0 and
    -0.0 count as one), and ``_distinct_poles`` keeps each pole once."""
    return _distinct_poles(hcore.resonances(model, list(dict.fromkeys(seeds))))


def _cavity_resonances(model: hcore.AssemblyFrame, band):
    """Fixed-point poles seeded from the first 12 basis energies in band."""
    return _heff_resonances(model, [e for e in model.basis.energies if band[0] < e < band[1]][:12])


def _distinct_poles(records):
    """Distinct seeds can still reach the same pole: a row within
    1e-9 max(1, |z|) of an earlier one is dropped, and a converged row
    replaces an unconverged one, so no pole repeats."""
    poles = []
    for rec in records:
        i = next((i for i, kept in enumerate(poles)
                  if abs(rec.z - kept.z) <= 1e-9 * max(1.0, abs(kept.z))), None)
        if i is None:
            poles.append(rec)
        elif rec.converged and not poles[i].converged:
            poles[i] = rec
    return poles


def _twolevel_params(p, eps):
    return toymodels.TwoLevelParams(eps, p["gamma1"], p["gamma2"], p["u"])


def _abs2(z):
    """(|z|^2, |z|) of a complex scalar or array, rounded as the scalar
    ``abs(z) ** 2``: np.abs of a complex array and an array ``** 2`` can
    each differ from it by an ulp; np.hypot and Python's float power do
    not."""
    mod = np.hypot(z.real, z.imag)
    if np.ndim(mod) == 0:
        return mod ** 2, mod
    return np.array([v ** 2 for v in mod.tolist()]), mod


def _twolevel_point(p):
    t = toymodels.twolevel_transmission(p["energy"], _twolevel_params(p, p["eps"]))
    return list(_abs2(t))


def _twolevel_bics(p, tol_width, tol_null):
    eps_star = toymodels.twolevel_bic_point(p["gamma1"], p["gamma2"], p["u"])

    def family(eps):
        return toymodels.twolevel_model(_twolevel_params(p, eps))

    # seed the dark branch: minimal-|Im| eigenvector at the trapping point
    vals, vecs = np.linalg.eig(toymodels.twolevel_matrix(_twolevel_params(p, eps_star)))
    j = int(np.argmin(np.abs(vals.imag)))
    half = np.linspace(eps_star, eps_star + 0.4, 9)
    traj = hcore.track(family, np.flip(2 * eps_star - half),
                       seed_energy=float(vals[j].real),
                       branch_vector=vecs[:, j])[::-1]
    traj += hcore.track(family, half, seed_energy=float(vals[j].real),
                        branch_vector=vecs[:, j])[1:]
    recs = [r for r in hcore.find_bics(traj, family, width_tol=tol_width, null_tol=tol_null)
            if r.is_bic]
    for r in recs:
        r.classification = "friedrich-wintgen"
    return recs, None


def _fpchain_params(p):
    return toymodels.FPChainParams(p["eps1"], p["eps2"], p["eps_w"], p["u"], p["v0"])


def _fpchain_point(p):
    pp = _fpchain_params(p)
    t = toymodels.fp_chain_transmission(p["energy"], pp)
    return [abs(t) ** 2, toymodels.fp_chain_middle_branch(pp, p["energy"]).width]


def _fpchain_bics(p, tol_width, tol_null):
    return [toymodels.fp_chain_bic(_fpchain_params(p), p["energy"], tol_width,
                                   tol_null)], None


def _fpchain_resonances(p):
    pp = _fpchain_params(p)
    vals, _ = toymodels.fp_chain_spectrum(pp)
    return _heff_resonances(toymodels.fp_chain_model(pp), [v for v in vals if v > 0.05])


def _well_point(p):
    sol = wires1d.well_solve(wires1d.WellParams(p["k"], p["q"], p["length"]))
    return [abs(sol.t) ** 2, abs(sol.r) ** 2, abs(sol.det)]


def _well_resonances(p):
    # complex-k poles (zeros of the interface determinant, Im k < 0) at a
    # fixed inside-outside offset V = q^2 - k^2
    v_off = p["q"] ** 2 - p["k"] ** 2
    length = p["length"]

    def det(k):
        return wires1d.well_det(k, np.sqrt(k * k + v_off), length)

    def step(k):
        h = 1e-7
        d = det(k)
        return d * h / (det(k + h) - d)

    return _newton_poles(step, np.arange(0.5, 12.0, 0.7), 100, 1e-12,
                         lambda k: 0.1 < k.real < 13 and k.imag < 1e-9)


def _well_field(p, n1, n2, tol_width, tol_null):
    sol = wires1d.well_solve(wires1d.WellParams(p["k"], p["q"], p["length"]))
    x = np.linspace(0.0, p["length"], n1)
    inside = sol.a * np.exp(1j * p["q"] * x) + sol.b * np.exp(-1j * p["q"] * x)
    return "x -", x, np.arange(1.0), inside[:, None] * np.ones((1, 1))


def _abring_point(p):
    sol = wires1d.ring_solve(wires1d.RingParams(p["k"], p["gamma"]))
    return [_abs2(sol["t"])[0], _abs2(sol["r"])[0]]


def _abring_bics(p, tol_width, tol_null):
    recs = []
    for m in (1, 2):
        for n in (1, 2):
            res = wires1d.ring_bic_analysis(m, n)
            recs.append(hcore.BICRecord(
                param=2 * math.pi * n, omega_sq=(2 * math.pi * m) ** 2,
                null_vector=np.asarray(res["right_null"], dtype=complex),
                gamma_res=res["sigma_min"], residual=res["right_residual"],
                is_bic=True, labels=("r", "t", "a1", "a2", "b1", "b2"),
                classification="friedrich-wintgen"))
    return recs, None


def _abring_resonances(p):
    # poles: complex-k zeros of the interference denominator
    gamma = p["gamma"]

    def step(k):
        z = 8 * np.cos(gamma) - 9 * np.exp(-1j * k) - np.exp(1j * k) + 2
        dz = 9j * np.exp(-1j * k) - 1j * np.exp(1j * k)
        return z / dz

    # k = 0 is a removable zero of Z at gamma = 2 pi n (t -> 1 there), not a pole
    return _newton_poles(step, np.arange(1.0, 4 * math.pi, 0.8), 80, 1e-13,
                         lambda k: abs(k) > 1e-6 and 0 < k.real < 4 * math.pi)


def _abring_field(p, n1, n2, tol_width, tol_null):
    sol = wires1d.ring_solve(wires1d.RingParams(p["k"], p["gamma"]))
    x = np.linspace(0.0, 0.5, n1)
    km, kp = p["k"] - p["gamma"], p["k"] + p["gamma"]
    upper = sol["a1"] * np.exp(1j * km * x) + sol["a2"] * np.exp(-1j * kp * x)
    lower = sol["b1"] * np.exp(1j * kp * x) + sol["b2"] * np.exp(-1j * km * x)
    return "x arm", x, np.arange(2.0), np.stack([upper, lower], axis=1)


def _zeeman_params(p, energy):
    return wires1d.ZeemanParams(energy, p["theta"], p["length"], p["b_field"],
                                p["phi"], p["u0"])


def _zeeman_points(p, parity):
    return wires1d.zeeman_bic_points(p["theta"], p["b_field"], p["phi"], p["u0"],
                                     parity)


def _zeeman_point(p):
    s = wires1d.zeeman_scatter(_zeeman_params(p, p["energy"]))
    return [abs(s["r_up"]) ** 2, abs(s["t_up"]) ** 2, s["sigma_min"] / s["sigma_max"]]


def _zeeman_bics(p, tol_width, tol_null):
    recs = []
    for parity in ("sym", "asym"):
        for b in _zeeman_points(p, parity):
            recs.append(hcore.BICRecord(
                param=b.L, omega_sq=b.energy,
                null_vector=np.asarray(b.coefficients, dtype=complex),
                gamma_res=b.sigma_min, residual=abs(b.printed_residual),
                is_bic=True, labels=("a", "b", "c"),
                classification=f"friedrich-wintgen-{parity}"))
    return recs, None


def _zeeman_resonances(p):
    # complex-E zeros of the interface determinant
    def det_at(ec):
        m, _ = wires1d.zeeman_system(_zeeman_params(p, ec.real))
        # analytic continuation in E through the wavenumbers
        return np.linalg.det(m)

    recs = []
    for e0 in np.arange(2.0, 29.0, 1.5):
        e = complex(e0)
        try:
            for _ in range(60):
                d0 = det_at(e)
                h = 1e-6
                d1 = det_at(e + h)
                step = d0 * h / (d1 - d0)
                e -= step.real  # stay on the physical sheet
                if abs(step) < 1e-10:
                    break
        except ValueError:
            continue
        if abs(step) < 1e-10 and not any(abs(e - r.z) < 1e-6 for r in recs):
            recs.append(hcore.ResonanceRecord(z=complex(e), vector=np.zeros(1),
                                              converged=True))
    return recs


def _zeeman_field(p, n1, n2, tol_width, tol_null):
    pts = _zeeman_points(p, "sym")
    if not pts:
        raise sweep.NumericalFailure("no trapped state found")
    b = min(pts, key=lambda x: x.L)
    z = np.linspace(-2 * b.L, 2 * b.L, n1)
    up, dn = wires1d.zeeman_bic_profile(b, p["theta"], p["b_field"], p["phi"],
                                        p["u0"], z)
    return "z spin", z, np.arange(2.0), (up + 1j * dn)[:, None] * np.ones((1, 2))


def _rect(p, bc):
    return planar2d.RectCavity(p["lx"], p["ly"], bc, int(p["m_max"]), int(p["n_max"]))


def _cavity_point(frame: hcore.AssemblyFrame, energy, values, ncol: int):
    """``values(S, open channels)``, the map values of a cavity frame at
    ``energy``, by the per-point ``hcore.smatrix``.  For an array of
    energies (a map row along the energy) one array per column from
    ``hcore.smatrix_row``, NaN at each point that it does not vouch for:
    the sweep evaluates those again one at a time, so their failures and
    ``.diag`` lines are the per-point path's."""
    if np.ndim(energy) == 0:
        return values(*hcore.smatrix(frame(energy)))
    out = np.full((energy.size, ncol), np.nan)
    for i, got in enumerate(hcore.smatrix_row(frame, energy)):
        if got is not None:
            out[i] = values(*got)
    return list(out.T)


def _planar_values(s, chans):
    trans = planar2d.transmittances(s, chans)
    return [trans.get((1, 1), 0.0), sum(trans.values())]


def _planar_point(p):
    cav, p_max, energy = _rect(p, "dirichlet"), int(p["p_max"]), p["energy"]
    if np.ndim(energy) == 0:
        return _planar_values(*planar2d.planar_transmittance(cav, energy, p_max)[:2])
    cols = _cavity_point(planar2d.planar_model(cav, p_max), energy, _planar_values, 2)
    # planar_transmittance refuses the first cutoff and below
    for col in cols:
        col[energy <= math.pi**2] = np.nan
    return cols


def _planar_bics(p, tol_width, tol_null):
    rec, _ = planar2d.planar_fw_bic(p["lx"], p_max=int(p["p_max"]),
                                    m_max=int(p["m_max"]), n_max=int(p["n_max"]),
                                    width_tol=tol_width, null_tol=tol_null)
    return [rec], None


def _planar_field(p, n1, n2, tol_width, tol_null):
    (rec,), _ = _planar_bics(p, tol_width, tol_null)
    x = np.linspace(-p["lx"] / 2 - 1.0, p["lx"] / 2 + 1.0, n1)
    y = np.linspace(-rec.param / 2, rec.param / 2, n2)
    fld = planar2d.planar_bic_field(rec, _rect({**p, "ly": rec.param}, "dirichlet"),
                                    x, y, p_max=int(p["p_max"]))
    return "x y", x, y, fld


def _sinai_model(p):
    return planar2d.sinai_model(
        _rect(p, "neumann"), planar2d.SinaiBump(p["vg"], p["radius"], p["x0"], p["y0"]),
        int(p["p_max"]))


def _sinai_point(p):
    s, chans = hcore.smatrix(_sinai_model(p)(p["energy"]))
    il = [i for i, c in enumerate(chans) if c.port == "L"]
    ir = [i for i, c in enumerate(chans) if c.port == "R"]
    return [sum(abs(s[i, j]) ** 2 for i in ir for j in il[:1])]


def _sinai_search(p, x_even, tol_width, tol_null):
    if p["y0"] != 0.0:
        raise UsageError("the sinai BIC search needs y0 = 0 (the bump must keep y-parity)")
    return planar2d.sinai_accidental_bics(
        _rect(p, "neumann"), vg_range=(-50.0, 50.0), x_even=x_even,
        radius=p["radius"], x0=p["x0"], y0=p["y0"], p_max=int(p["p_max"]),
        width_tol=tol_width, null_tol=tol_null)


def _sinai_bics(p, tol_width, tol_null):
    recs = [r for x_even in (True, False)
            for r in _sinai_search(p, x_even, tol_width, tol_null)]
    cav = _rect(p, "neumann")

    def labels(rec):
        return planar2d.sinai_modal_expansion(rec, cav, p["radius"], p["x0"], p["y0"])
    return recs, labels


def _sinai_field(p, n1, n2, tol_width, tol_null):
    # off centre in x, the one x class is keyed x-odd (planar2d.parity_classes)
    recs = _sinai_search(p, p["x0"] == 0.0, tol_width, tol_null)
    if not recs:
        raise sweep.NumericalFailure("no accidental zero-width point found")
    rec = recs[0]
    cav = _rect(p, "neumann")
    x = np.linspace(-p["lx"] / 2, p["lx"] / 2, n1)
    y = np.linspace(-p["ly"] / 2, p["ly"] / 2, n2)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    fld = np.zeros_like(xg, dtype=complex)
    for a, (m, n) in zip(rec.null_vector, rec.labels):
        if abs(a) > 1e-12:
            fld += a * cav.mode_on_grid(m, n, xg, yg)
    return "x y", x, y, fld


def _cyl_cavity(p):
    return cyl3d.CylCavity(p["radius"], p["length"], int(p["m_max"]),
                           int(p["n_max"]), int(p["l_max"]))


def _cyl_model(p):
    return cyl3d.cyl_model(_cyl_cavity(p), p["dphi"], p["r0"])


def _cyl_values(s, chans):
    t01 = cyl3d.transmission_01(s, chans)
    return [abs(t01) ** 2 if t01 is not None else np.nan]


def _cyl_point(p):
    return _cavity_point(_cyl_model(p), p["energy"], _cyl_values, 1)


def _cyl_search(p, grid, tol_width, tol_null):
    return cyl3d.cyl_find_bics(_cyl_cavity(p), p["dphi"], "length", grid, r0=p["r0"],
                               width_tol=tol_width, null_tol=tol_null)


def _cyl_field(p, n1, n2, tol_width, tol_null):
    grid = np.linspace(max(2.6, p["length"] - 1.5), p["length"] + 1.5, 20)
    recs = _cyl_search(p, grid, tol_width, tol_null)
    if not recs:
        raise sweep.NumericalFailure("no zero-width point in the scan window")
    rec = recs[0]
    phi = np.linspace(0, 2 * math.pi, n1)
    z = np.linspace(0, rec.param, n2)
    fld = cyl3d.surface_field(rec, _cyl_cavity({**p, "length": rec.param}), phi, z)
    return "phi z", phi, z, fld


def _sphere_cavity(p):
    return sph3d.SphereCavity(p["radius"], int(p["l_max"]), int(p["n_max"]))


def _sphere_model(p):
    return sph3d.sphere_model(_sphere_cavity(p), (
        sph3d.WaveguideAttachment("in"),
        sph3d.WaveguideAttachment("out", beta=p["dtheta"])))


def _sphere_values(s, chans):
    idx = {c.port: i for i, c in enumerate(chans)}
    return [abs(s[idx["out"], idx["in"]]) ** 2]


def _sphere_point(p):
    return _cavity_point(_sphere_model(p), p["energy"], _sphere_values, 1)


def _sphere_bics(p, tol_width, tol_null):
    return [sph3d.sphere_fw_bic(_sphere_cavity(p), width_tol=tol_width,
                                null_tol=tol_null)], None


def _sphere_field(p, n1, n2, tol_width, tol_null):
    (rec,), _ = _sphere_bics(p, tol_width, tol_null)
    theta = np.linspace(0.01, math.pi - 0.01, n1)
    phi = np.linspace(0, 2 * math.pi, n2)
    return "theta phi", theta, phi, sph3d.surface_field(rec, _sphere_cavity(p), theta, phi)


# ---------------------------------------------------------------- models --

MODELS: dict[str, Model] = {
    "twolevel": Model(
        defaults={"eps": 0.0, "gamma1": 0.1, "gamma2": 0.1, "u": 0.0, "energy": 0.5},
        columns=("T2", "absT"), point=_twolevel_point, bics=_twolevel_bics,
        resonances=lambda p: _heff_resonances(
            toymodels.twolevel_model(_twolevel_params(p, p["eps"])), [p["eps"], -p["eps"]]),
        field=_null_vector_field(_twolevel_bics), batched=("eps", "energy")),
    "fpchain": Model(
        defaults={"eps1": -0.5, "eps2": 0.5, "eps_w": 0.0, "u": 0.25, "v0": 0.5,
                  "energy": 0.5},
        columns=("T2", "width3"), point=_fpchain_point, bics=_fpchain_bics,
        resonances=_fpchain_resonances, field=_null_vector_field(_fpchain_bics)),
    "well": Model(
        defaults={"k": 1.0, "q": 2.0, "length": 1.0},
        columns=("T2", "R2", "absdet"), point=_well_point,
        bics=lambda p, tol_width, tol_null: ([], None),
        resonances=_well_resonances, field=_well_field,
        no_bics="empty by construction: well is the no-BIC control, "
                "its interface determinant never vanishes"),
    "abring": Model(
        defaults={"k": math.pi, "gamma": 0.0},
        columns=("T2", "R2"), point=_abring_point, bics=_abring_bics,
        resonances=_abring_resonances, field=_abring_field, batched=("k", "gamma")),
    "zeeman": Model(
        defaults={"energy": 20.0, "theta": math.pi / 4, "length": 2.0,
                  "b_field": 10.0, "phi": math.pi / 3, "u0": -20.0},
        columns=("Rup2", "Tup2", "sigma_min"), point=_zeeman_point, bics=_zeeman_bics,
        resonances=_zeeman_resonances, field=_zeeman_field),
    "planar": Model(
        defaults={"lx": 4.0, "ly": 4.0, "energy": 14.0, "m_max": 20, "n_max": 20,
                  "p_max": 8},
        columns=("T11", "Ttotal"), point=_planar_point, bics=_planar_bics,
        resonances=lambda p: _cavity_resonances(
            planar2d.planar_model(_rect(p, "dirichlet"), int(p["p_max"])),
            (math.pi**2, 4 * math.pi**2)),
        field=_planar_field, batched=("energy",)),
    "sinai": Model(
        defaults={"lx": 4.0, "ly": 2.0, "vg": 0.0, "energy": 20.0, "radius": 1.5,
                  "x0": 0.0, "y0": 0.0, "m_max": 14, "n_max": 14, "p_max": 6},
        columns=("T",), point=_sinai_point, bics=_sinai_bics,
        resonances=lambda p: _cavity_resonances(
            _sinai_model(p), (0.5, 4 * math.pi**2)),
        field=_sinai_field),
    "cyl": Model(
        defaults={"radius": 3.0, "length": 4.0, "dphi": math.pi / 4, "r0": 1.5,
                  "energy": 1.0, "m_max": 4, "n_max": 3, "l_max": 6},
        columns=("T01",), point=_cyl_point,
        bics=lambda p, tol_width, tol_null: (
            _cyl_search(p, np.linspace(2.6, 5.5, 30), tol_width, tol_null), None),
        resonances=lambda p: _cavity_resonances(
            _cyl_model(p), (0.05, cyl3d.MU_11**2)),
        field=_cyl_field, batched=("energy",)),
    "sphere": Model(
        defaults={"radius": 10.0, "dtheta": 0.7 * math.pi, "energy": 0.3,
                  "l_max": 6, "n_max": 3},
        columns=("T",), point=_sphere_point, bics=_sphere_bics,
        resonances=lambda p: _cavity_resonances(
            _sphere_model(p), (1e-3, cyl3d.MU_11**2)),
        field=_sphere_field, batched=("energy",)),
}

# defaults by model name, read by perfbench/checks.py to recompute map points
DEFAULTS = {name: model.defaults for name, model in MODELS.items()}


# ------------------------------------------------------------------- main --

def _load_params(model: str, config_path: str | None, overrides: list[str]) -> dict:
    params = dict(MODELS[model].defaults)
    entries = []
    if config_path:
        cp = configparser.ConfigParser()
        if not cp.read(config_path):
            raise UsageError(f"config file not found: {config_path}")
        if cp.has_section(model):
            entries += cp.items(model)
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got '{item}'")
        entries.append(item.split("=", 1))
    # config entries first, so a --set flag wins
    for key, val in entries:
        if key not in params:
            raise UsageError(f"unknown parameter '{key}' for model {model}; "
                             f"valid: {sorted(params)}")
        params[key] = float(val)
    for key in _INT_KEYS & set(params):
        params[key] = int(params[key])
    return params


def _parse_axis(text: str, model: str) -> Axis:
    try:
        name, lo, hi, count = text.split(":")
        axis = Axis(name=name, lo=float(lo), hi=float(hi), count=int(count))
    except UsageError:
        raise
    except ValueError:
        raise UsageError(f"axis must be name:min:max:count, got '{text}'")
    valid = MODELS[model].defaults
    if axis.name not in valid:
        raise UsageError(f"unknown axis '{axis.name}' for model {model}; "
                         f"valid: {sorted(valid)}")
    return axis


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was (``--set`` appends to a copy of its default)."""
    ap = argparse.ArgumentParser(prog="openres",
                                 description="Open-resonator scattering, "
                                             "resonances and trapped states")
    ap.add_argument("--version", action="version", version=__version__)
    # the options every verb takes, declared once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None)
    shared.add_argument("--out", default=".")
    shared.add_argument("--threads", type=int, default=1)
    shared.add_argument("--tol-width", type=float, default=hcore.DEFAULT_WIDTH_TOL)
    shared.add_argument("--tol-null", type=float, default=hcore.DEFAULT_NULL_TOL)
    shared.add_argument("--pmax", type=int, default=None, help="evanescent channel count")
    shared.add_argument("--truncation", type=int, default=None,
                        help="basis truncation override (per index)")
    shared.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sub = ap.add_subparsers(dest="model", required=True)
    for model in MODELS:
        mp = sub.add_parser(model)
        vs = mp.add_subparsers(dest="verb", required=True)
        for verb in VERBS:
            vp = vs.add_parser(verb, parents=[shared])
            if verb == "map":
                vp.add_argument("--axis1", required=True,
                                metavar="NAME:MIN:MAX:COUNT")
                vp.add_argument("--axis2", required=True,
                                metavar="NAME:MIN:MAX:COUNT")
            if verb == "field":
                vp.add_argument("--grid", default="100:50", metavar="N1:N2")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    model = MODELS[args.model]
    try:
        params = _load_params(args.model, args.config, args.set)
        if args.pmax is not None and "p_max" in params:
            params["p_max"] = args.pmax
        if args.truncation is not None:
            for key in ("m_max", "n_max", "l_max"):
                if key in params:
                    params[key] = args.truncation
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"{args.model}_{args.verb}.dat"

        if args.verb == "map":
            axis1 = _parse_axis(args.axis1, args.model)
            axis2 = _parse_axis(args.axis2, args.model)

            def evaluate(p, a1, a2):
                p[axis1.name], p[axis2.name] = a1, a2
                return model.point(p)

            row = sweep.point_row(evaluate, len(model.columns))
            if axis2.name in model.batched:
                row = sweep.batched_row(
                    lambda p, a1, a2: np.column_stack(evaluate(p, a1, a2)), row)
            spec = SweepSpec(model=args.model, fixed=params, axis1=axis1,
                             axis2=axis2)
            result = sweep.run_sweep(spec, row, model.columns, threads=args.threads)
            sweep.write_map(out, result)
        elif args.verb == "bics":
            recs, labels = model.bics(params, args.tol_width, args.tol_null)
            sweep.write_catalog(out, args.model, params, recs, label_getter=labels,
                                note=model.no_bics)
        elif args.verb == "resonances":
            recs = model.resonances(params)
            sweep.write_resonances(out, args.model, params, recs)
        else:
            try:
                n1, n2 = (int(t) for t in args.grid.split(":"))
            except ValueError:
                raise UsageError(f"--grid expects N1:N2, got '{args.grid}'")
            desc, grid1, grid2, fld = model.field(params, n1, n2, args.tol_width,
                                                  args.tol_null)
            sweep.write_field(out, args.model, params, desc, grid1, grid2, fld)
        print(out)
        if args.verb == "map" and np.all(np.isnan(result.values[:, 2:])):
            raise sweep.NumericalFailure("every grid point failed")
        if args.verb == "resonances" and not any(r.converged for r in recs):
            raise sweep.NumericalFailure("no resonance found")
        # a catalog of quasi-BIC rows alone (is_bic False) found no BIC either
        if args.verb == "bics" and not any(r.is_bic for r in recs) and not model.no_bics:
            raise sweep.NumericalFailure("no BIC found" + (
                f": {len(recs)} quasi-BIC rows written" if recs else ""))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (sweep.NumericalFailure, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
