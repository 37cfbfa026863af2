"""Output checks made apart from ptsl.

Every check rebuilds what it needs with numpy and scipy alone (the Harper
potential, Bloch matrices, the site recursion, the open-chain propagator),
or tests a property the method must have.  Each function returns two lists
of messages: errors, and known faults of the program that the checks found
where they are expected.  No errors means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize

import workloads as wl

REAL_TOL = 1e-9  # the program clips a growth rate at or below this to 0
# A spectrum counts as real when max |Im E| <= REAL_REL_TOL * max |E|.  The
# program's own test is absolute (|Im E| <= 1e-9), which calls a spectrum real
# while its imaginary parts are small in absolute terms only.
REAL_REL_TOL = 1e-12
# Threshold rows that the program gets wrong today, by its absolute reality
# test: where Im E grows slowly past the threshold it stays below 1e-9 well
# beyond it.  At q = 16 and 20 (multiples of 4, whose threshold vanishes)
# Im E ~ 1e-8 lambda, so lambda_c reads 5.9e-4 and 0.0242; at q = 19 the
# spectrum is already complex at lambda_c - tol for every p (p = 2: lambda_c
# = 0.036, complex from 0.0029 on).  These rows are checked like every other;
# what their checks find is reported as a known fault, not as an error.
KNOWN_WRONG_THRESHOLDS = {
    *((name, q) for name in ("sweep_q.csv", "threshold_q.csv") for q in (16, 19, 20)),
    ("sweep_p.csv", 19),
}
ROOT_TOL = 1e-8  # census energies against the benchmark's own roots, relative


def harper_onsite(lam: float, p: int, q: int, n0: int, n_sites: int | None = None) -> np.ndarray:
    """V_n = delta cos(2 pi p/q (n - n0)) + i lam sin(...), for n = 1..n_sites."""
    sites = np.arange(1, (n_sites or q) + 1)
    phase = 2.0 * np.pi * p / q * (sites - n0)
    return wl.DELTA * np.cos(phase) + 1j * lam * np.sin(phase)


def bloch_spectra(onsite: np.ndarray, ks) -> np.ndarray:
    """Eigenvalues of the q x q Bloch matrices (unit hoppings) at each k."""
    q = onsite.size
    ks = np.asarray(ks, dtype=float)
    m = np.zeros((ks.size, q, q), dtype=complex)
    idx = np.arange(q)
    m[:, idx, idx] = onsite
    m[:, idx[:-1], idx[1:]] = -1.0
    m[:, idx[1:], idx[:-1]] = -1.0
    m[:, 0, q - 1] += -np.exp(-1j * ks * q)
    m[:, q - 1, 0] += -np.exp(1j * ks * q)
    return np.linalg.eigvals(m)


def open_chain(onsite: np.ndarray) -> np.ndarray:
    """Hamiltonian of an open chain with the given on-site terms and unit hoppings."""
    n = onsite.size
    return np.diag(onsite) - np.eye(n, k=1) - np.eye(n, k=-1)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _is_real(p: int, q: int, lam: float) -> bool:
    """Whether the spectrum is real at k = 0 and k = -pi/q."""
    ev = bloch_spectra(harper_onsite(lam, p, q, 0), [0.0, -math.pi / q])
    return bool(np.abs(ev.imag).max() <= REAL_REL_TOL * np.abs(ev).max())


def _check_threshold_row(p: int, q: int, lambda_c: float, where: str) -> list[str]:
    errors = []
    if math.isinf(lambda_c):
        if not _is_real(p, q, wl.LAMBDA_MAX):
            errors.append(f"{where}: reported never broken, but complex at lambda_max")
        return errors
    below = max(0.0, lambda_c - wl.THRESHOLD_TOL)
    above = lambda_c + wl.THRESHOLD_TOL
    if not _is_real(p, q, below):
        errors.append(f"{where}: spectrum complex at lambda_c - tol = {below:.6g}")
    if _is_real(p, q, above):
        errors.append(f"{where}: spectrum real at lambda_c + tol = {above:.6g}")
    if q % 4 == 0 and lambda_c > 1e-3:
        errors.append(f"{where}: lambda_c = {lambda_c:.6g} > 1e-3 for q a multiple of 4")
    if 3 <= q <= 12 and lambda_c >= wl.DELTA:
        errors.append(f"{where}: lambda_c = {lambda_c:.6g} not below delta")
    return errors


def _check_sigma(p: int, q: int, sigma: float, where: str) -> list[str]:
    ks = np.linspace(-math.pi / q, math.pi / q, wl.KPOINTS, endpoint=False)
    own = float(bloch_spectra(harper_onsite(wl.DELTA, p, q, 0), ks).imag.max())
    own = 0.0 if own <= REAL_TOL else own
    if abs(sigma - own) > 1e-10 + 1e-8 * own:
        return [f"{where}: sigma {sigma!r} but own maximum of Im E is {own!r}"]
    return []


def _check_bands(path: Path) -> list[str]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    q = wl.BANDS_Q
    if rows.shape != (wl.KPOINTS * q, 4):
        return [f"{path.name}: shape {rows.shape}, expected {(wl.KPOINTS * q, 4)}"]
    rows = rows.reshape(wl.KPOINTS, q, 4)
    errors = []
    if not (np.all(rows[:, :, 0] == rows[:, :1, 0]) and np.all(rows[:, :, 1] == np.arange(q))):
        errors.append(f"{path.name}: rows are not q band indices per k")
    onsite = harper_onsite(wl.EDGE_LAMBDA, 1, q, 0)
    energies = rows[:, :, 2] + 1j * rows[:, :, 3]
    trace_err = np.abs(energies.sum(axis=1) - onsite.sum()).max()
    square_err = np.abs((energies**2).sum(axis=1) - ((onsite**2).sum() + 2 * q)).max()
    if trace_err > 1e-9 or square_err > 1e-9:
        errors.append(
            f"{path.name}: sum E off by {trace_err:.3e}, sum E^2 off by {square_err:.3e}"
        )
    return errors


def check_sweep(work: Path, commands) -> tuple[list[str], list[str]]:
    errors, known = [], []
    q_lo, q_hi = wl.SWEEP_Q_RANGE
    p_lo, p_hi = wl.SWEEP_P_RANGE
    by_q = [(q, 1, q) for q in range(q_lo, q_hi + 1)]  # (param, p, q)
    by_p = [(p, p, wl.SWEEP_P_AT_Q) for p in range(p_lo, p_hi + 1)]
    for name, lattices, has_sigma in (
        ("sweep_q.csv", by_q, True),
        ("sweep_p.csv", by_p, True),
        ("threshold_q.csv", by_q, False),
    ):
        rows = _read_csv(work / name)
        params = [int(r["param"]) for r in rows]
        if params != [param for param, _, _ in lattices]:
            errors.append(f"{name}: params {params}, expected {[param for param, _, _ in lattices]}")
            continue
        for row, (_, p, q) in zip(rows, lattices):
            where = f"{name} p={p} q={q}"
            found = _check_threshold_row(p, q, float(row["lambda_c"]), where)
            if (name, q) in KNOWN_WRONG_THRESHOLDS:
                known += ["; ".join(found)] if found else []
            else:
                errors += found
            if has_sigma:
                errors += _check_sigma(p, q, float(row["sigma"]), where)
    errors += _check_bands(work / "bands.csv")
    return errors, known


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def site_recursion(onsite: np.ndarray, energy: complex) -> np.ndarray:
    """psi_0..psi_{q+1} of psi_{n+1} = (V_n - E) psi_n - psi_{n-1}, psi_0=0, psi_1=1."""
    q = onsite.size
    psi = np.zeros(q + 2, dtype=complex)
    psi[1] = 1.0
    for n in range(1, q + 1):
        psi[n + 1] = (onsite[n - 1] - energy) * psi[n] - psi[n - 1]
    return psi


def _pair_up(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index of b matched to each a, one-to-one, at the least total distance."""
    return scipy.optimize.linear_sum_assignment(np.abs(a[:, None] - b[None, :]))[1]


def check_census(work: Path, commands) -> tuple[list[str], list[str]]:
    errors = []
    tables = {}
    for cmd in commands:
        if cmd.fails:
            continue
        lam, p, q, n0 = (cmd.case[key] for key in ("lam", "p", "q", "n0"))
        where = f"edges p={p} q={q} n0={n0} lambda={lam}"
        rows = _read_csv(work / cmd.outputs[0])
        tables[(p, q, n0)] = rows
        if len(rows) != q - 1:
            errors.append(f"{where}: {len(rows)} rows, expected q-1 = {q - 1}")
            continue
        onsite = harper_onsite(lam, p, q, n0)
        energies = np.array([complex(float(r["re_E"]), float(r["im_E"])) for r in rows])
        # the q-1 zeros of psi_q are the eigenvalues of the first q-1 sites
        roots = np.linalg.eigvals(open_chain(onsite[: q - 1]))
        miss = np.abs(energies - roots[_pair_up(energies, roots)])
        if miss.max() > ROOT_TOL * max(1.0, np.abs(roots).max()):
            errors.append(f"{where}: energies are {miss.max():.3e} from the q-1 own roots")
        for row, energy in zip(rows, energies):
            psi = np.abs(site_recursion(onsite, energy))
            if psi[q] > 1e-9 * psi[:q].max():
                errors.append(f"{where}: E={energy} gives |psi_q| = {psi[q]:.3e}")
            s11 = float(row["abs_S11"])
            if abs(psi[q + 1] - s11) > 1e-8 * max(1.0, s11):
                errors.append(f"{where}: |s11| {s11!r} but |psi_(q+1)| = {float(psi[q + 1])!r}")
    for (p, q, n0), rows in tables.items():
        if q % 2 or p % 2 == 0 or n0 >= q // 2:
            continue
        partner = tables.get((p, q, n0 + q // 2))
        if partner is None or len(rows) != len(partner):
            continue
        a = np.array([complex(float(r["re_E"]), float(r["im_E"])) for r in rows])
        b = -np.array([complex(float(r["re_E"]), float(r["im_E"])) for r in partner])
        match = _pair_up(a, b)
        for i, j in enumerate(match):
            same = (
                abs(a[i] - b[j]) <= 1e-9
                and abs(float(rows[i]["abs_S11"]) - float(partner[j]["abs_S11"])) <= 1e-8
                and rows[i]["class"] == partner[j]["class"]
            )
            if not same:
                errors.append(
                    f"edges p={p} q={q}: anchor {n0 + q // 2} does not mirror anchor {n0} "
                    f"at E={a[i]}"
                )
    return errors, []


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def edge_growth_rate(n0: int) -> float:
    """2 Im E of the fastest-growing edge state, from the (q-1)-site matrix."""
    q = wl.EVOLVE_Q
    onsite = harper_onsite(wl.EDGE_LAMBDA, 1, q, n0)
    candidates = np.linalg.eigvals(open_chain(onsite[: q - 1]))
    edge = [e for e in candidates if abs(site_recursion(onsite, e)[q + 1]) < 1.0]
    return 2.0 * max(e.imag for e in edge)


def check_evolve(work: Path, commands) -> tuple[list[str], list[str]]:
    errors = []
    for cmd in commands:
        n0 = cmd.case["n0"]
        where = f"evolve n0={n0}"
        summary = json.loads((work / cmd.outputs[1]).read_text(encoding="utf-8"))
        n_sites = summary["sites"]
        rows = np.loadtxt(work / cmd.outputs[0], delimiter=",", skiprows=1)
        if rows.shape != (wl.EVOLVE_SAMPLES * n_sites, 3):
            errors.append(f"{where}: shape {rows.shape}")
            continue
        rows = rows.reshape(wl.EVOLVE_SAMPLES, n_sites, 3)
        intensity = rows[:, :, 2]
        if abs(intensity[0].sum() - 1.0) > 1e-12:
            errors.append(f"{where}: total intensity at t=0 is {intensity[0].sum()!r}")
        t_end = rows[-1, 0, 0]
        h = open_chain(harper_onsite(wl.EDGE_LAMBDA, 1, wl.EVOLVE_Q, n0, n_sites))
        psi = scipy.linalg.expm(-1j * t_end * h)[:, 0]
        own = np.abs(psi) ** 2
        rel = np.linalg.norm(intensity[-1] - own) / np.linalg.norm(own)
        if rel > 1e-6:
            errors.append(f"{where}: final intensities differ from expm by {rel:.3e} relative")
        if n0 == 1:
            rate, own_rate = summary["growth_rate_boundary"], edge_growth_rate(n0)
            if abs(rate - own_rate) > 1e-3 * own_rate:
                errors.append(f"{where}: boundary growth rate {rate!r}, 2 Im E = {own_rate!r}")
    return errors, []


CHECKS = {"sweep": check_sweep, "census": check_census, "evolve": check_evolve}
