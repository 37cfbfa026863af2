"""Infinite-lattice spectrum: Bloch matrix, bands, PT-phase diagnosis, sweeps.

For a period-q superlattice the Bloch reduction at wave number
``k in [-pi/q, pi/q)`` is a q x q matrix: tridiagonal in the on-site energies
and hoppings, with corner entries ``-kappa_q exp(-+ i k q)`` closing the
period.  Its q eigenvalues trace out the energy bands E_n(k).

The phase criterion: the spectrum is entirely real (unbroken PT phase) if and
only if the eigenvalues of the two matrices at k = 0 and k = -pi/q are real.
An optional guard grid scans interior k as a numerical cross-check.

The real route: a lattice with a parity centre c (``check_pt_symmetry``) is
PT symmetric at every k.  In the uniform gauge, where every bond carries
the phase exp(+-ik), the reflection P about c gives ``P conj(H) P = H``, so H
is unitarily similar to the real matrix ``R = Re H + (Im H) P`` (Bender,
Berry & Mandilara, J. Phys. A 35, L467 (2002)).  R goes to LAPACK's real
driver, which returns each real eigenvalue with Im exactly 0 and complex
ones as conjugate pairs; a Hermitian lattice makes R symmetric and goes to
``eigvalsh``.  The phase decision is therefore exact: unbroken means every
Im E is 0, with no tolerance.  A lattice without a centre (possible for
JSON input) falls back to the complex ``bloch_matrix`` and calls a spectrum
real when max |Im E| <= ``tol``.

Spectra are solved as stacks, one LAPACK call per chunk of k-points.  Since
H(-k) = H(k)^T, the spectrum depends on k only through cos(kq): on the
uniform grid ``_k_grid`` row j mirrors row N - j, so bands and growth rates
solve only rows 0..N//2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import ParametricLattice, SuperlatticeSpec, _doubled_centres
from .numerics import eig_complex

__all__ = [
    "BandStructure",
    "PhaseDiagnosis",
    "ThresholdResult",
    "SweepRow",
    "bloch_matrix",
    "band_structure",
    "band_gaps",
    "diagnose_pt_phase",
    "breaking_threshold",
    "max_growth_rate",
    "sweep",
]


# the most matrix bytes solved in one LAPACK call; bounds the memory of a
# spectrum computation independently of the number of k-points
_CHUNK_BYTES = 128 * 1024


def _wrap_k(k, q: int):
    """Reduce k to [-pi/q, pi/q); the matrix depends on k only via exp(ikq)."""
    half_width = math.pi / q
    return (k + half_width) % (2.0 * half_width) - half_width


def bloch_matrix(spec: SuperlatticeSpec, k) -> np.ndarray:
    """q x q Bloch-reduced matrix at wave number k (wrapped into range).

    For an array of n wave numbers, returns the ``(n, q, q)`` stack.  The
    corner phases add onto existing entries, which yields the correct
    degenerate forms for q = 1 (scalar ``V_1 - 2 kappa_1 cos k``) and q = 2
    (corner merging into the off-diagonal).
    """
    q = spec.q
    k = _wrap_k(np.asarray(k, dtype=float), q)
    m = np.zeros(k.shape + (q, q), dtype=complex)
    sites = np.arange(q)
    m[..., sites, sites] = spec.onsite
    hop = np.asarray(spec.hopping)
    m[..., sites[:-1], sites[1:]] += -hop[:-1]
    m[..., sites[1:], sites[:-1]] += -hop[:-1]
    m[..., 0, q - 1] += -hop[q - 1] * np.exp(-1j * k * q)
    m[..., q - 1, 0] += -hop[q - 1] * np.exp(+1j * k * q)
    return m


def _k_grid(q: int, num_k: int) -> np.ndarray:
    return np.linspace(-math.pi / q, math.pi / q, num_k, endpoint=False)


def _real_bloch(onsite: np.ndarray, hopping, ks: np.ndarray, doubled_centre: int) -> np.ndarray:
    """The real matrix R = Re H + (Im H) P of each on-site row at each k.

    H is the Bloch matrix in the uniform gauge, where bond n -> n+1 carries
    ``-kappa_n exp(ik)`` and n+1 -> n carries ``-kappa_n exp(-ik)``; P is the
    reflection ``j -> (d - 2 - j) mod q`` about the parity centre d/2, so
    ``P conj(H) P = H`` and R = U^H H U with ``U = ((1+i) I + (1-i) P)/2``.
    Entry (a, b) of (Im H) P is ``Im H[a, P b]``.  Returns shape
    ``(len(onsite), len(ks), q, q)``.
    """
    q = onsite.shape[-1]
    sites = np.arange(q)
    nxt = (sites + 1) % q
    mirror = (doubled_centre - 2 - sites) % q
    re = -np.multiply.outer(np.cos(ks), hopping)
    im = -np.multiply.outer(np.sin(ks), hopping)
    rows = np.concatenate([sites, nxt, sites, nxt])
    cols = np.concatenate([nxt, sites, mirror[nxt], mirror])
    bonds = np.zeros((len(ks), q, q))
    # add.at accumulates the entries that coincide for q <= 2
    np.add.at(bonds, (slice(None), rows, cols), np.concatenate([re, re, im, -im], axis=-1))
    r = np.repeat(bonds[None], len(onsite), axis=0)
    r[..., sites, sites] += onsite.real[:, None, :]
    r[..., sites, mirror] += onsite.imag[:, None, :]
    return r


def _solve(onsite: np.ndarray, hopping, ks: np.ndarray, doubled_centre: int) -> np.ndarray:
    """Eigenvalues ``(len(onsite), len(ks), q)`` of lattices sharing one centre.

    A centre of -1 (none) takes the complex ``bloch_matrix`` route.  Else R
    goes to the real driver, which returns every real eigenvalue with Im
    exactly 0, or, for a Hermitian lattice, where R is symmetric, to
    ``eigvalsh``, which cannot split a degenerate pair into a complex one.
    """
    if doubled_centre < 0:
        specs = [SuperlatticeSpec(tuple(row), tuple(hopping)) for row in onsite]
        return eig_complex(np.stack([bloch_matrix(spec, ks) for spec in specs]))
    r = _real_bloch(onsite, hopping, ks, doubled_centre)
    hermitian = ~onsite.imag.any(axis=-1)
    values = np.empty(r.shape[:-1], dtype=complex)
    values[hermitian] = np.linalg.eigvalsh(r[hermitian])
    values[~hermitian] = eig_complex(r[~hermitian])
    return values


def _spectra(onsite, hopping, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every lattice at every k, and which came out exact.

    ``onsite`` holds one lattice per row, shape ``(S, q)``, all sharing
    ``hopping``.  Returns the ``(S, len(ks), q)`` eigenvalues and the
    ``(S,)`` mask of lattices with a parity centre, whose real eigenvalues
    have Im exactly 0.  LAPACK solves at most ``_CHUNK_BYTES`` of matrices
    per call: whole k-rows of several lattices when they fit, else slices of
    one lattice's k-row.
    """
    onsite = np.asarray(onsite, dtype=complex)
    hopping = np.asarray(hopping, dtype=float)
    n_specs, q = onsite.shape
    centres = _doubled_centres(onsite, hopping)
    out = np.empty((n_specs, len(ks), q), dtype=complex)
    per_chunk = max(1, _CHUNK_BYTES // (16 * q * q))
    per_spec = max(1, per_chunk // len(ks))
    k_step = min(len(ks), per_chunk)
    for centre in np.unique(centres):
        rows = np.flatnonzero(centres == centre)
        for lo in range(0, len(rows), per_spec):
            block = rows[lo : lo + per_spec]
            for klo in range(0, len(ks), k_step):
                k_slice = slice(klo, klo + k_step)
                out[block, k_slice] = _solve(onsite[block], hopping, ks[k_slice], centre)
    return out, centres >= 0


def _solved_rows(num_k: int) -> int:
    """Rows 0..N//2 of ``_k_grid``; every other row j mirrors row N - j."""
    return num_k // 2 + 1


@dataclass(frozen=True)
class BandStructure:
    """Sampled bands: per k, the q eigenvalues sorted by (Re, Im)."""

    k_values: np.ndarray
    energies: np.ndarray

    @property
    def q(self) -> int:
        return self.energies.shape[1]

    @property
    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(self.energies.imag)))


def band_structure(spec: SuperlatticeSpec, num_k: int) -> BandStructure:
    """Bands on a uniform k grid over one Brillouin zone."""
    if num_k < 2:
        raise ValueError("need at least 2 k-points")
    ks = _k_grid(spec.q, num_k)
    solved = _solved_rows(num_k)
    energies = np.empty((num_k, spec.q), dtype=complex)
    half = energies[:solved]
    values, _ = _spectra([spec.onsite], spec.hopping, ks[:solved])
    half[:] = values[0]
    order = np.lexsort((half.imag, half.real))
    half[:] = half[np.arange(solved)[:, None], order]
    energies[solved:] = energies[num_k - solved : 0 : -1]
    return BandStructure(k_values=ks, energies=energies)


def band_gaps(bands: BandStructure, min_width: float = 1e-9) -> list[tuple[float, float]]:
    """Gaps between consecutive band ranges on the real-energy axis.

    Band n occupies [min_k Re E_n(k), max_k Re E_n(k)] under the per-k (Re,
    Im) sort; a gap is an interval wider than ``min_width`` separating two
    consecutive bands.  Meaningful for real (unbroken-phase) spectra.
    """
    real = bands.energies.real
    lo = real.min(axis=0)
    hi = real.max(axis=0)
    gaps = []
    for n in range(bands.q - 1):
        if lo[n + 1] - hi[n] > min_width:
            gaps.append((float(hi[n]), float(lo[n + 1])))
    return gaps


def _decisive_k(q: int) -> np.ndarray:
    return np.array([0.0, -math.pi / q])


@dataclass(frozen=True)
class PhaseDiagnosis:
    """PT-phase verdict with the largest |Im E| found and where."""

    unbroken: bool
    max_abs_imag: float
    witness_k: float
    tol: float


def diagnose_pt_phase(
    spec: SuperlatticeSpec, tol: float = 1e-9, guard_points: int = 0
) -> PhaseDiagnosis:
    """Reality check of the spectrum via the two decisive wave numbers.

    Evaluates the eigenvalues at k = 0 and k = -pi/q, which decide the phase;
    ``guard_points > 0`` additionally scans a uniform interior grid so any
    deviation from the two-point criterion would be flagged.  A lattice with
    a parity centre is unbroken iff every Im E is exactly 0; ``tol`` bounds
    max |Im E| only for a lattice without one.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ks = _decisive_k(spec.q)
    if guard_points > 0:
        ks = np.concatenate([ks, _k_grid(spec.q, guard_points)])
    values, exact = _spectra([spec.onsite], spec.hopping, ks)
    imag_max = np.max(np.abs(values[0].imag), axis=-1)
    at = int(np.argmax(imag_max))
    worst = float(imag_max[at])
    limit = 0.0 if exact[0] else tol
    return PhaseDiagnosis(unbroken=worst <= limit, max_abs_imag=worst, witness_k=float(ks[at]), tol=tol)


@dataclass(frozen=True)
class ThresholdResult:
    """Symmetry-breaking threshold from coarse scan plus bisection."""

    lambda_c: float
    bracket: tuple[float, float]
    never_broken: bool
    transitions: int


def breaking_threshold(
    family: ParametricLattice,
    lambda_max: float,
    tol_lambda: float = 1e-4,
    coarse_samples: int = 64,
    reality_tol: float = 1e-9,
) -> ThresholdResult:
    """First real-to-complex transition of the family on [0, lambda_max].

    A coarse scan brackets the first unbroken -> broken flip, bisection
    narrows the bracket to ``tol_lambda``, or to two adjacent floats when
    ``tol_lambda`` is below their spacing.  Multiple flips in the scan are
    reported as a warning and the first is refined.  If the family never
    breaks, ``lambda_c`` is pinned at ``lambda_max`` with the flag set.
    Every strength is decided as :func:`diagnose_pt_phase` decides it, with
    ``reality_tol`` as its ``tol``.
    """
    if not (lambda_max > 0 and math.isfinite(lambda_max)):
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")
    if not (tol_lambda > 0 and math.isfinite(tol_lambda)):
        raise ValueError(f"tol_lambda must be positive and finite, got {tol_lambda}")
    if coarse_samples < 2:
        raise ValueError(f"coarse_samples must be at least 2, got {coarse_samples}")

    def unbroken(lam: float) -> bool:
        return diagnose_pt_phase(family.at(lam), tol=reality_tol).unbroken

    if not unbroken(0.0):
        raise ValueError("family is already broken at lambda = 0")

    lams = np.linspace(0.0, lambda_max, coarse_samples)
    # the rows of family.at(lam), as exact as the constructor makes them
    onsite = np.empty((len(lams) - 1, family.q), dtype=complex)
    onsite.real = family.onsite_real
    onsite.imag = np.multiply.outer(lams[1:], family.onsite_imag)
    scan, exact = _spectra(onsite, family.hopping, _decisive_k(family.q))
    limits = np.where(exact, 0.0, reality_tol)
    states = [True] + list(np.max(np.abs(scan.imag), axis=(1, 2)) <= limits)
    flips = [i for i in range(len(lams) - 1) if states[i] and not states[i + 1]]
    if not flips:
        return ThresholdResult(
            lambda_c=lambda_max, bracket=(lambda_max, lambda_max), never_broken=True, transitions=0
        )
    if len(flips) > 1:
        warnings.warn(
            f"{len(flips)} reality transitions found on [0, {lambda_max}]; refining the first",
            stacklevel=2,
        )
    lo, hi = float(lams[flips[0]]), float(lams[flips[0] + 1])
    while hi - lo > tol_lambda:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats; no tolerance below that is reachable
        if unbroken(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        lambda_c=0.5 * (lo + hi),
        bracket=(lo, hi),
        never_broken=False,
        transitions=len(flips),
    )


def max_growth_rate(spec: SuperlatticeSpec, num_k: int = 256, tol: float = 1e-9) -> float:
    """Largest Im E over the sampled bands; 0 in the unbroken phase.

    For a lattice with a parity centre every Im E of the unbroken phase is
    exactly 0; for one without, a maximum at or below ``tol`` is clipped to 0.
    """
    if num_k < 2:
        raise ValueError("need at least 2 k-points")
    ks = _k_grid(spec.q, num_k)[: _solved_rows(num_k)]
    values, exact = _spectra([spec.onsite], spec.hopping, ks)
    sigma = float(np.max(values.imag))
    limit = 0.0 if exact[0] else tol
    return 0.0 if sigma <= limit else sigma


@dataclass(frozen=True)
class SweepRow:
    param: int
    lambda_c: float
    sigma: float


def sweep(
    make_family: Callable[[int], ParametricLattice],
    params: Sequence[int],
    lambda_max: float,
    sigma_lambda: float | Callable[[int], float],
    tol_lambda: float = 1e-4,
    num_k: int = 256,
) -> list[SweepRow]:
    """Threshold and growth rate per parameter value, in parameter order.

    ``sigma_lambda`` fixes the non-Hermitian strength at which the growth
    rate is evaluated (a constant or a per-parameter callable).  Rows for
    never-breaking families carry ``lambda_c = inf``.
    """

    def one(param: int) -> SweepRow:
        family = make_family(param)
        threshold = breaking_threshold(family, lambda_max, tol_lambda=tol_lambda)
        lam_sigma = sigma_lambda(param) if callable(sigma_lambda) else float(sigma_lambda)
        sigma = max_growth_rate(family.at(lam_sigma), num_k=num_k)
        lambda_c = math.inf if threshold.never_broken else threshold.lambda_c
        return SweepRow(param=int(param), lambda_c=lambda_c, sigma=sigma)

    return [one(p) for p in params]
