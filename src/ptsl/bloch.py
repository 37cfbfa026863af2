"""Infinite-lattice spectrum: Bloch matrix, bands, PT phase, thresholds, growth rates.

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
JSON input) counts as unbroken when max |Im E| <= ``REALITY_TOL`` times its
largest |V_n| or |kappa_n|.

The threshold search decides each strength at the two decisive k one at
a time, starting with the edge that breaks first at lambda = delta (see
below): k = -pi/q for odd q and k = 0 for even q.  The other k is solved
only for strengths still real at the first, since broken at either k is
broken.  The lambda = 0 row is Re V alone, hence Hermitian, and
``eigvalsh`` always calls it real, so it is never solved.  Im V scales
with lambda, so every lambda > 0 row of a family has the same parity
centre; it is found once, on the lambda_max row.

Every eigen-solve goes through one chunked solver that pairs on-site row m
with wave number k_m: one lattice broadcast over a k-grid, or the strengths
of a family at one decisive k.  LAPACK solves at most ``_CHUNK_BYTES`` of
matrices per call, and a q x q matrix above ``_MATRIX_BYTES_LIMIT`` is
refused before any O(q) work.  Since H(-k) = H(k)^T, the spectrum depends on
k only through cos(kq): on the uniform grid ``_k_grid`` row j mirrors row
N - j, so bands and growth rates solve only rows 0..N//2.

The Harper lattice at lambda = delta has a growth rate in closed form
(Chambers, Phys. Rev. 140, A135 (1965)).  Write V_n = A exp(i theta_n) +
B exp(-i theta_n) with A, B = (delta +- lambda)/2 and theta_n =
2 pi p (n - n0)/q.  Shifting every theta_n by a common phase makes the
period's transfer-matrix trace tr S(E) a trigonometric polynomial of degree
at most q in that phase; relabelling the sites by one shifts the phase by
2 pi p/q and leaves the trace unchanged, so for p coprime to q only the
harmonics 0 and +-q survive.  At lambda = delta, B = 0 and A = delta: a
term of harmonic 0 pairs each A with a B, so only the free chain's term is
left, and harmonic q is the term of the product V_1 ... V_q.  With unit
hoppings and E = -2 cos(phi), tr S(E) = 2 cos(q phi) + (-1)^(q+1) delta^q,
and the Bloch condition tr S(E) = 2 cos(kq) gives

    E_j(k) = -2 cos((arccos(cos(kq) + (-delta)^q / 2) + 2 pi j) / q),
    j = 0..q-1,

the same for every p and n0.  Im E is largest at the band edge where the
argument of arccos leaves [-1, 1] the most: k = 0 for even q and k = -pi/q
for odd q.  There arccos = i eta (plus pi for odd q) with eta = acosh(1 +
delta^q / 2), and max Im E = 2 sinh(eta/q) max_j |sin((2j + [q odd]) pi/q)|.
:func:`harper_growth_rate` evaluates this on the k-grid of
:func:`max_growth_rate` without cancellation, where the eigenvalues of the
nearly defective Bloch matrices are rounding noise from q ~ 24 on.  For
q <= 2 every sin(theta_n) is 0, so the lattice is Hermitian and does not grow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import ParametricLattice, SuperlatticeSpec, _doubled_centre, _energy_scale, harper_family

__all__ = [
    "BandStructure",
    "PhaseDiagnosis",
    "ThresholdResult",
    "bloch_matrix",
    "band_structure",
    "band_gaps",
    "diagnose_pt_phase",
    "breaking_threshold",
    "max_growth_rate",
    "harper_growth_rate",
]


# the most matrix bytes solved in one LAPACK call; bounds the memory of a
# spectrum computation independently of the number of k-points
_CHUNK_BYTES = 128 * 1024

# ceiling on the 16 q^2 bytes of one Bloch matrix, checked before any is
# built; 2^28 B admits q <= 4096
_MATRIX_BYTES_LIMIT = 2**28

# max |Im E| / max(|V_n|, |kappa_n|) below which a non-Hermitian lattice
# without a parity centre counts as real; every other spectrum is exact
REALITY_TOL = 1e-9


def _bloch_stack(onsite: np.ndarray, hopping, ks: np.ndarray) -> np.ndarray:
    """Uniform-gauge Bloch matrices ``(M, q, q)``: on-site row m of ``(M, q)`` at ``ks[m]``.

    One row ``(q,)`` serves every k.  Bond n -> n+1 (mod q) carries
    ``-kappa_n exp(ik)`` and its reverse the conjugate; entries that
    coincide for q <= 2 add up.
    """
    q = onsite.shape[-1]
    sites = np.arange(q)
    nxt = (sites + 1) % q
    forward = np.empty((len(ks), q), dtype=complex)
    forward.real = -np.multiply.outer(np.cos(ks), hopping)
    forward.imag = -np.multiply.outer(np.sin(ks), hopping)
    h = np.zeros((len(ks), q, q), dtype=complex)
    h[:, sites, sites] = onsite
    h[:, sites, nxt] += forward
    h[:, nxt, sites] += forward.conj()
    return h


def bloch_matrix(spec: SuperlatticeSpec, k) -> np.ndarray:
    """q x q uniform-gauge Bloch matrix at wave number k; ``k.shape + (q, q)`` for an array."""
    ks = np.asarray(k, dtype=float)
    h = _bloch_stack(np.asarray(spec.onsite, dtype=complex), spec.hopping, ks.reshape(-1))
    return h.reshape(ks.shape + h.shape[-2:])


def _k_grid(q: int, num_k: int) -> np.ndarray:
    return np.linspace(-math.pi / q, math.pi / q, num_k, endpoint=False)


def _check_matrix_size(q: int) -> None:
    """Refuse a q x q Bloch matrix above ``_MATRIX_BYTES_LIMIT`` with ``ValueError``."""
    matrix_bytes = 16 * q * q
    if matrix_bytes > _MATRIX_BYTES_LIMIT:
        raise ValueError(
            f"a {q} x {q} Bloch matrix needs {matrix_bytes / 1e6:.6g} MB, "
            f"above the {_MATRIX_BYTES_LIMIT / 1e6:.6g} MB limit"
        )


def _solve(onsite: np.ndarray, hopping, ks: np.ndarray, doubled_centre: int) -> np.ndarray:
    """Eigenvalues ``(M, q)`` of on-site row m of ``(M, q)`` at ``ks[m]``, all sharing one centre.

    With a centre (``doubled_centre >= 0``) the matrices are R, where entry
    (a, b) of (Im H) P is ``Im H[a, P b]`` with P the reflection
    ``j -> (d - 2 - j) mod q``; without one they are H.  Hermitian rows go
    to ``eigvalsh``, which cannot split a degenerate pair into a complex
    one, and the others to ``eigvals``.  LAPACK solves at most
    ``_CHUNK_BYTES`` of matrices per call.
    """
    q = onsite.shape[-1]
    hermitian = ~onsite.imag.any(axis=-1)
    values = np.empty((len(ks), q), dtype=complex)
    per_chunk = max(1, _CHUNK_BYTES // (16 * q * q))
    for lo in range(0, len(ks), per_chunk):
        rows = slice(lo, lo + per_chunk)
        h = _bloch_stack(onsite[rows], hopping, ks[rows])
        if doubled_centre >= 0:
            h = h.real + h.imag[..., (doubled_centre - 2 - np.arange(q)) % q]
        chunk, herm = values[rows], hermitian[rows]
        if herm.any():
            chunk[herm] = np.linalg.eigvalsh(h[herm])
        if not herm.all():
            chunk[~herm] = np.linalg.eigvals(h[~herm])
    return values


def _spectra(spec: SuperlatticeSpec, ks: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigenvalues ``(len(ks), q)`` of the lattice at every k, and whether they are exact.

    A lattice with a parity centre or no Im V has exact spectra: its real
    eigenvalues have Im exactly 0.
    """
    _check_matrix_size(spec.q)
    onsite = np.asarray(spec.onsite, dtype=complex)
    hopping = np.asarray(spec.hopping, dtype=float)
    centre = _doubled_centre(onsite, hopping)
    values = _solve(np.broadcast_to(onsite, (len(ks), spec.q)), hopping, ks, centre)
    return values, centre >= 0 or not onsite.imag.any()


def _reality_limit(exact, onsite, hopping, tol: float = REALITY_TOL) -> np.ndarray:
    """Largest max |Im E| of each on-site row that still counts as real:
    0 for an exact spectrum, ``tol`` times :func:`_energy_scale` for any other."""
    return np.where(exact, 0.0, tol * _energy_scale(onsite, hopping))


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
    half = _spectra(spec, ks[:solved])[0]
    half = half[np.arange(solved)[:, None], np.lexsort((half.imag, half.real))]
    return BandStructure(k_values=ks, energies=np.concatenate([half, half[num_k - solved : 0 : -1]]))


def band_gaps(bands: BandStructure) -> list[tuple[float, float]]:
    """Gaps between consecutive band ranges on the real-energy axis.

    Band n occupies [min_k Re E_n(k), max_k Re E_n(k)] under the per-k (Re,
    Im) sort; a gap is an interval wider than 1e-9 times the largest |E|
    separating two consecutive bands.  Meaningful for real (unbroken-phase)
    spectra.
    """
    real = bands.energies.real
    lo = real.min(axis=0)
    hi = real.max(axis=0)
    min_width = 1e-9 * np.abs(bands.energies).max()
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
    spec: SuperlatticeSpec, tol: float = REALITY_TOL, guard_points: int = 0
) -> PhaseDiagnosis:
    """Reality check of the spectrum via the two decisive wave numbers.

    Evaluates the eigenvalues at k = 0 and k = -pi/q, which decide the phase;
    ``guard_points > 0`` additionally scans a uniform interior grid so any
    deviation from the two-point criterion would be flagged.  A lattice with
    a parity centre or without gain and loss is unbroken iff every Im E is
    exactly 0; for any other ``tol`` bounds max |Im E| / max(|V_n|, |kappa_n|).
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    ks = _decisive_k(spec.q)
    if guard_points > 0:
        ks = np.concatenate([ks, _k_grid(spec.q, guard_points)])
    values, exact = _spectra(spec, ks)
    imag = np.max(np.abs(values.imag), axis=-1)
    at = int(np.argmax(imag))
    unbroken = imag[at] <= _reality_limit(exact, spec.onsite, spec.hopping, tol)
    return PhaseDiagnosis(
        unbroken=bool(unbroken), max_abs_imag=float(imag[at]), witness_k=float(ks[at]), tol=tol
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
    q = family.q
    _check_matrix_size(q)
    hopping = np.asarray(family.hopping, dtype=float)
    # the edge that breaks first at lambda = delta goes first (module docstring)
    order = _decisive_k(q)[::-1] if q % 2 else _decisive_k(q)

    def rows(lams) -> np.ndarray:
        # the on-site rows (Re V, lam Im V) of the family at each strength
        onsite = np.empty((len(lams), q), dtype=complex)
        onsite.real = family.onsite_real
        onsite.imag = np.multiply.outer(lams, family.onsite_imag)
        return onsite

    # Im V scales with lam, so every lam > 0 row has the centre of this one
    centre = _doubled_centre(rows([lambda_max])[0], hopping)

    def unbroken(lams) -> np.ndarray:
        onsite = rows(lams)
        limit = _reality_limit(centre >= 0, onsite, hopping)
        real = np.ones(len(lams), dtype=bool)
        live = np.flatnonzero(onsite.imag.any(axis=-1))  # eigvalsh calls a Hermitian row real
        for k in order:
            if len(live) == 0:
                break
            values = _solve(onsite[live], hopping, np.full(len(live), k), centre)
            real[live] = np.abs(values.imag).max(axis=-1) <= limit[live]
            live = live[real[live]]
        return real

    lams = np.linspace(0.0, lambda_max, 64)
    states = unbroken(lams)
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
    any other a maximum at or below ``REALITY_TOL`` times the lattice's
    largest |V_n| or |kappa_n| is clipped to 0.
    """
    if num_k < 2:
        raise ValueError("need at least 2 k-points")
    ks = _k_grid(spec.q, num_k)[: _solved_rows(num_k)]
    values, exact = _spectra(spec, ks)
    sigma = float(np.max(values.imag))
    return 0.0 if sigma <= _reality_limit(exact, spec.onsite, spec.hopping) else sigma


def harper_growth_rate(delta: float, q: int, num_k: int = 256) -> float:
    """:func:`max_growth_rate` of a Harper lattice at lambda = delta, in closed form.

    The maximum of Im E over the same k-grid, for any p and n0 (module
    docstring).  The grid point nearest the band edge lies pi m/(q num_k)
    from it, with m = 1 for even q and odd ``num_k`` and m = 0 otherwise.
    With h = delta^(q/2) / 2 and s = sin(pi m / (2 num_k)) there,
    eta = 2 asinh(sqrt((h - s)(h + s))), which neither cancels nor
    underflows where delta^q / 2 would.  Bad input raises what
    ``max_growth_rate(harper_family(delta, 1, q).at(delta), num_k)`` raises.
    """
    harper_family(delta, 1, q).at(delta)  # checks delta and q with the lattice's own messages
    if num_k < 2:
        raise ValueError("need at least 2 k-points")
    if q <= 2:
        return 0.0
    odd = q % 2
    m = 1 if not odd and num_k % 2 else 0
    s = math.sin(math.pi * m / (2 * num_k))
    try:
        h = 0.5 * delta ** (q / 2)
    except OverflowError:  # asinh(h) = log(2h) to the last bit long before h overflows
        eta = q * math.log(delta)
    else:
        if h <= s:
            return 0.0
        eta = 2.0 * math.asinh(math.sqrt(h - s) * math.sqrt(h + s))
    return 2.0 * math.sinh(eta / q) * max(abs(math.sin((2 * j + odd) * math.pi / q)) for j in range(q))
