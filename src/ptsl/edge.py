"""Semi-infinite lattice: edge-state candidates, classification, reality.

Cutting the chain at site 1 imposes psi_0 = 0.  The candidate energies where
a second node psi_q = 0 can occur are the eigenvalues of the (q-1) x (q-1)
tridiagonal matrix built from V_1..V_{q-1} and kappa_1..kappa_{q-2}; they
coincide with the roots of the lower-left transfer polynomial s21(E), and
both routes are computed and cross-checked here.

At such a candidate the wavefunction obeys ``psi_{Mq+1} = s11(E)^M``, so
|s11| < 1 means an edge state localized over ``L = -q / ln|s11|^2`` sites,
|s11| = 1 an extended state at a band edge, and |s11| > 1 no state at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bloch import REALITY_TOL, diagnose_pt_phase
from .lattice import SuperlatticeSpec
from .numerics import eig_complex, poly_roots
from .transfer import period_matrix, site_matrix, symbolic_period_matrix

__all__ = [
    "Classification",
    "EdgeStateRecord",
    "RealityReport",
    "RouteMismatchError",
    "edge_candidate_matrix",
    "edge_spectrum",
    "localization_length",
    "psi_witness",
    "spectrum_reality",
]

# |s11| band around 1 separating edge from extended candidates; extended
# candidates sit on band edges analytically and land within ~1e-9 numerically
_CLASSIFICATION_BAND = 1e-6


class Classification(str, Enum):
    EDGE = "edge"
    EXTENDED = "extended"
    NOT_IN_SPECTRUM = "not_in_spectrum"


@dataclass(frozen=True)
class EdgeStateRecord:
    """One candidate energy of the left-truncated lattice."""

    energy: complex
    s11_abs: float
    classification: Classification
    localization_length: float | None
    period: int


class RouteMismatchError(RuntimeError):
    """The two candidate routes disagree; carries both multisets."""

    def __init__(self, matrix_route: np.ndarray, polynomial_route: np.ndarray, worst: float):
        self.matrix_route = matrix_route
        self.polynomial_route = polynomial_route
        super().__init__(
            f"candidate energies from the tridiagonal matrix and from the transfer "
            f"polynomial disagree (worst pairing distance {worst:.3e}): "
            f"{np.sort_complex(matrix_route)} vs {np.sort_complex(polynomial_route)}"
        )


def edge_candidate_matrix(spec: SuperlatticeSpec) -> np.ndarray:
    """(q-1) x (q-1) tridiagonal matrix whose eigenvalues are the candidates."""
    q = spec.q
    if q < 2:
        raise ValueError("candidate matrix needs period q >= 2")
    m = np.diag(np.asarray(spec.onsite[: q - 1], dtype=complex))
    for n in range(q - 2):
        m[n, n + 1] = -spec.hopping[n]
        m[n + 1, n] = -spec.hopping[n]
    return m


def _match_multisets(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Best pairing distance between two equal-size complex multisets.

    Raises :class:`RouteMismatchError` when the optimal assignment leaves any
    pair further apart than ``tol``.
    """
    if len(a) != len(b):
        raise RouteMismatchError(a, b, math.inf)
    if len(a) == 0:
        return 0.0
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    if worst > tol:
        raise RouteMismatchError(a, b, worst)
    return worst


def edge_spectrum(
    spec: SuperlatticeSpec,
    route_check: bool = True,
    route_tol: float = 1e-6,
) -> list[EdgeStateRecord]:
    """All q-1 candidate energies, classified; sorted by ascending Re E.

    With ``route_check`` the eigenvalue route is verified against the roots
    of the transfer polynomial s21 as multisets within ``route_tol``.
    A period-1 lattice has no candidates and returns the empty list.
    """
    q = spec.q
    if q < 2:
        return []
    candidates = eig_complex(edge_candidate_matrix(spec))
    if route_check:
        s21 = symbolic_period_matrix(spec)[2]
        _match_multisets(candidates, poly_roots(s21), route_tol)

    records = []
    for energy in candidates:
        s11_abs = abs(period_matrix(spec, energy).s11)
        if s11_abs < 1.0 - _CLASSIFICATION_BAND:
            cls = Classification.EDGE
            length = -q / math.log(s11_abs**2)
        elif s11_abs <= 1.0 + _CLASSIFICATION_BAND:
            cls = Classification.EXTENDED
            length = None
        else:
            cls = Classification.NOT_IN_SPECTRUM
            length = None
        records.append(
            EdgeStateRecord(
                energy=complex(energy),
                s11_abs=s11_abs,
                classification=cls,
                localization_length=length,
                period=q,
            )
        )
    records.sort(key=lambda r: (r.energy.real, r.energy.imag))
    return records


def localization_length(record: EdgeStateRecord) -> float:
    """Decay length -q / ln|s11|^2 of an edge state, in sites."""
    if record.classification is not Classification.EDGE:
        raise ValueError(f"localization length is defined for edge states, not {record.classification.value}")
    return -record.period / math.log(record.s11_abs**2)


def psi_witness(spec: SuperlatticeSpec, energy: complex, periods: int) -> np.ndarray:
    """Amplitude pairs (psi_{Mq}, psi_{Mq+1}) for M = 0..periods.

    Direct site-by-site recursion from psi_0 = 0, psi_1 = 1; at an s21 root
    this sequence realizes psi_{Mq} = 0 and psi_{Mq+1} = s11^M, which makes
    it an independent witness of the classification.
    """
    q = spec.q
    vec = np.array([1.0, 0.0], dtype=complex)  # (psi_1, psi_0)
    out = np.empty((periods + 1, 2), dtype=complex)
    out[0] = (0.0, 1.0)
    for m in range(1, periods + 1):
        for n in range((m - 1) * q + 1, m * q + 1):
            vec = site_matrix(spec, n, energy) @ vec
        out[m] = (vec[1], vec[0])
    return out


@dataclass(frozen=True)
class RealityReport:
    """Reality of the semi-infinite spectrum, with any complex edge energies."""

    real: bool
    offending: tuple[complex, ...]


def spectrum_reality(
    spec: SuperlatticeSpec, records: list[EdgeStateRecord] | None = None
) -> RealityReport:
    """Whether the truncated lattice keeps an entirely real spectrum.

    True iff the infinite lattice is in the unbroken phase and every
    edge-classified candidate energy is real within ``REALITY_TOL``; extended
    candidates belong to the (then real) continuous spectrum and candidates
    outside the spectrum are immaterial.  ``records`` is the census of
    ``spec`` when the caller already has it, else it is computed here.
    """
    unbroken = diagnose_pt_phase(spec).unbroken
    if records is None:
        records = edge_spectrum(spec)
    offenders = tuple(
        r.energy
        for r in records
        if r.classification is Classification.EDGE and abs(r.energy.imag) > REALITY_TOL
    )
    return RealityReport(real=unbroken and not offenders, offending=offenders)
