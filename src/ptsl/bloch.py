"""Infinite-lattice spectrum: Bloch matrix, bands, PT-phase diagnosis, sweeps.

For a period-q superlattice the Bloch reduction at wave number
``k in [-pi/q, pi/q)`` is a q x q matrix.  It is built in the uniform
gauge: the diagonal holds the on-site energies, bond n -> n+1 carries
``-kappa_n exp(ik)`` and bond n+1 -> n carries ``-kappa_n exp(-ik)``, with
bond q closing the period.  Its q eigenvalues trace out the energy bands
E_n(k); shifting k by 2 pi / q changes the matrix by a diagonal unitary and
leaves them unchanged.

The phase criterion: the spectrum is entirely real (unbroken PT phase) if and
only if the eigenvalues of the two matrices at k = 0 and k = -pi/q are real.
An optional guard grid scans interior k as a numerical cross-check.

A lattice with a parity centre c (``check_pt_symmetry``) is PT symmetric at
every k: the reflection P about c gives ``P conj(H) P = H``, so H is
unitarily similar to the real matrix ``R = Re H + (Im H) P`` (Bender,
Berry & Mandilara, J. Phys. A 35, L467 (2002)).  One dispatch serves every
lattice: a Hermitian one (all Im V = 0) goes to ``eigvalsh`` and any other
to ``eigvals``, on R when it has a centre and on H when not.  LAPACK's real
solver returns each real eigenvalue of R with Im exactly 0, so a spectrum is
exact when its lattice has a centre or is Hermitian, and unbroken then means
every Im E is 0.  A non-Hermitian lattice without a centre (possible for
JSON input) counts as unbroken when max |Im E| <= ``REALITY_TOL``.

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

# max |Im E| below which a non-Hermitian lattice without a parity centre
# counts as real; every other spectrum is exact and needs no tolerance
REALITY_TOL = 1e-9


def _bloch_stack(onsite: np.ndarray, hopping, ks: np.ndarray) -> np.ndarray:
    """Uniform-gauge Bloch matrices ``(S, len(ks), q, q)`` of on-site rows ``(S, q)``.

    Bond n -> n+1 (mod q) carries ``-kappa_n exp(ik)`` and its reverse the
    conjugate; entries that coincide for q <= 2 add up.
    """
    n_specs, q = onsite.shape
    sites = np.arange(q)
    nxt = (sites + 1) % q
    forward = np.empty((len(ks), q), dtype=complex)
    forward.real = -np.multiply.outer(np.cos(ks), hopping)
    forward.imag = -np.multiply.outer(np.sin(ks), hopping)
    h = np.zeros((n_specs, len(ks), q, q), dtype=complex)
    h[..., sites, sites] = onsite[:, None, :]
    h[..., sites, nxt] += forward
    h[..., nxt, sites] += forward.conj()
    return h


def bloch_matrix(spec: SuperlatticeSpec, k) -> np.ndarray:
    """q x q uniform-gauge Bloch matrix at wave number k; ``k.shape + (q, q)`` for an array."""
    ks = np.asarray(k, dtype=float)
    h = _bloch_stack(np.array([spec.onsite], dtype=complex), spec.hopping, ks.reshape(-1))[0]
    return h.reshape(ks.shape + h.shape[-2:])


def _k_grid(q: int, num_k: int) -> np.ndarray:
    return np.linspace(-math.pi / q, math.pi / q, num_k, endpoint=False)


def _solve(onsite: np.ndarray, hopping, ks: np.ndarray, doubled_centre: int) -> np.ndarray:
    """Eigenvalues ``(len(onsite), len(ks), q)`` of lattices sharing one centre.

    With a centre (``doubled_centre >= 0``) the matrices are R, where entry
    (a, b) of (Im H) P is ``Im H[a, P b]`` with P the reflection
    ``j -> (d - 2 - j) mod q``; without one they are H.  Hermitian rows go
    to ``eigvalsh``, which cannot split a degenerate pair into a complex
    one, and the others to ``eigvals``.
    """
    q = onsite.shape[-1]
    h = _bloch_stack(onsite, hopping, ks)
    if doubled_centre >= 0:
        h = h.real + h.imag[..., (doubled_centre - 2 - np.arange(q)) % q]
    hermitian = ~onsite.imag.any(axis=-1)
    values = np.empty(h.shape[:-1], dtype=complex)
    values[hermitian] = np.linalg.eigvalsh(h[hermitian])
    values[~hermitian] = np.linalg.eigvals(h[~hermitian])
    return values


def _spectra(onsite, hopping, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every lattice at every k, and which came out exact.

    ``onsite`` holds one lattice per row, shape ``(S, q)``, all sharing
    ``hopping``.  Returns the ``(S, len(ks), q)`` eigenvalues and the
    ``(S,)`` mask of lattices with a parity centre or no Im V, whose real
    eigenvalues have Im exactly 0.  LAPACK solves at most ``_CHUNK_BYTES``
    of matrices per call: whole k-rows of several lattices when they fit,
    else slices of one lattice's k-row.
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
    return out, (centres >= 0) | ~onsite.imag.any(axis=-1)


def _phase(onsite, hopping, ks: np.ndarray, tol: float = REALITY_TOL):
    """Largest |Im E| of every lattice at every k, ``(S, len(ks))``, and the
    ``(S,)`` unbroken verdicts: every Im E is 0 for an exact spectrum, and
    max |Im E| <= ``tol`` for any other.
    """
    values, exact = _spectra(onsite, hopping, ks)
    imag = np.max(np.abs(values.imag), axis=-1)
    return imag, imag.max(axis=-1) <= np.where(exact, 0.0, tol)


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


def band_gaps(bands: BandStructure) -> list[tuple[float, float]]:
    """Gaps between consecutive band ranges on the real-energy axis.

    Band n occupies [min_k Re E_n(k), max_k Re E_n(k)] under the per-k (Re,
    Im) sort; a gap is an interval wider than 1e-9 separating two
    consecutive bands.  Meaningful for real (unbroken-phase) spectra.
    """
    real = bands.energies.real
    lo = real.min(axis=0)
    hi = real.max(axis=0)
    gaps = []
    for n in range(bands.q - 1):
        if lo[n + 1] - hi[n] > 1e-9:
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
    spec: SuperlatticeSpec, tol: float = REALITY_TOL, guard_points: int = 0
) -> PhaseDiagnosis:
    """Reality check of the spectrum via the two decisive wave numbers.

    Evaluates the eigenvalues at k = 0 and k = -pi/q, which decide the phase;
    ``guard_points > 0`` additionally scans a uniform interior grid so any
    deviation from the two-point criterion would be flagged.  A lattice with
    a parity centre or without gain and loss is unbroken iff every Im E is
    exactly 0; ``tol`` bounds max |Im E| only for any other lattice.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ks = _decisive_k(spec.q)
    if guard_points > 0:
        ks = np.concatenate([ks, _k_grid(spec.q, guard_points)])
    imag, unbroken = _phase([spec.onsite], spec.hopping, ks, tol)
    at = int(np.argmax(imag[0]))
    return PhaseDiagnosis(
        unbroken=bool(unbroken[0]), max_abs_imag=float(imag[0, at]), witness_k=float(ks[at]), tol=tol
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Symmetry-breaking threshold from coarse scan plus bisection."""

    lambda_c: float
    bracket: tuple[float, float]
    never_broken: bool
    transitions: int


def breaking_threshold(
    family: ParametricLattice, lambda_max: float, tol_lambda: float = 1e-4
) -> ThresholdResult:
    """First real-to-complex transition of the family on [0, lambda_max].

    A coarse scan of 64 strengths brackets the first unbroken -> broken
    flip, bisection narrows the bracket to ``tol_lambda``, or to two
    adjacent floats when ``tol_lambda`` is below their spacing.  Multiple
    flips in the scan are reported as a warning and the first is refined.
    If the family never breaks, ``lambda_c`` is pinned at ``lambda_max``
    with the flag set.  Every strength is decided as
    :func:`diagnose_pt_phase` decides it.
    """
    if not (lambda_max > 0 and math.isfinite(lambda_max)):
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")
    if not (tol_lambda > 0 and math.isfinite(tol_lambda)):
        raise ValueError(f"tol_lambda must be positive and finite, got {tol_lambda}")
    ks = _decisive_k(family.q)

    def unbroken(lams) -> np.ndarray:
        # the rows (Re V, lam Im V) of the family at each strength
        onsite = np.empty((len(lams), family.q), dtype=complex)
        onsite.real = family.onsite_real
        onsite.imag = np.multiply.outer(lams, family.onsite_imag)
        return _phase(onsite, family.hopping, ks)[1]

    lams = np.linspace(0.0, lambda_max, 64)
    states = unbroken(lams)
    if not states[0]:
        raise ValueError("family is already broken at lambda = 0")
    flips = np.flatnonzero(states[:-1] & ~states[1:])
    if len(flips) == 0:
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
        if unbroken([mid])[0]:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        lambda_c=0.5 * (lo + hi), bracket=(lo, hi), never_broken=False, transitions=len(flips)
    )


def max_growth_rate(spec: SuperlatticeSpec, num_k: int = 256) -> float:
    """Largest Im E over the sampled bands; 0 in the unbroken phase.

    An exact spectrum of the unbroken phase has every Im E exactly 0; for
    any other a maximum at or below ``REALITY_TOL`` is clipped to 0.
    """
    if num_k < 2:
        raise ValueError("need at least 2 k-points")
    ks = _k_grid(spec.q, num_k)[: _solved_rows(num_k)]
    values, exact = _spectra([spec.onsite], spec.hopping, ks)
    sigma = float(np.max(values.imag))
    limit = 0.0 if exact[0] else REALITY_TOL
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
    sigma_lambda: float,
    tol_lambda: float = 1e-4,
    num_k: int = 256,
) -> list[SweepRow]:
    """Threshold and growth rate per parameter value, in parameter order.

    ``sigma_lambda`` fixes the non-Hermitian strength at which the growth
    rate is evaluated.  Rows for never-breaking families carry
    ``lambda_c = inf``.
    """

    def one(param: int) -> SweepRow:
        family = make_family(param)
        threshold = breaking_threshold(family, lambda_max, tol_lambda=tol_lambda)
        sigma = max_growth_rate(family.at(float(sigma_lambda)), num_k=num_k)
        lambda_c = math.inf if threshold.never_broken else threshold.lambda_c
        return SweepRow(param=int(param), lambda_c=lambda_c, sigma=sigma)

    return [one(p) for p in params]
