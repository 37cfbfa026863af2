"""Semi-infinite lattice: edge-state candidates, classification, reality.

Cutting the chain at site 1 imposes psi_0 = 0.  The candidate energies where
a second node psi_q = 0 can occur are the eigenvalues of the open chain on
sites 1..q-1, the k = 0 Bloch matrix of ``bloch`` with site q cut away; they
coincide with the roots of the lower-left transfer polynomial s21(E), and
both routes are computed and cross-checked here.  The transfer walk and the
reality limit also come from ``transfer`` and ``bloch``.

At such a candidate the wavefunction obeys ``psi_{Mq+1} = s11(E)^M``, so
|s11| < 1 means an edge state localized over ``L = -q / ln|s11|^2`` sites,
|s11| = 1 an extended state at a band edge, and |s11| > 1 no state at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bloch import _check_matrix_size, _reality_limit, bloch_matrix, diagnose_pt_phase
from .lattice import SuperlatticeSpec, _energy_scale
from .numerics import NumericsError, eig_complex, poly_roots
from .transfer import _walk, period_matrix, symbolic_period_matrix

__all__ = [
    "Classification",
    "EdgeStateRecord",
    "RealityReport",
    "RouteMismatchError",
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


class RouteMismatchError(NumericsError):
    """The two candidate routes disagree; carries both multisets."""

    def __init__(self, matrix_route: np.ndarray, polynomial_route: np.ndarray, worst: float):
        self.matrix_route = matrix_route
        self.polynomial_route = polynomial_route
        super().__init__(
            f"candidate energies from the tridiagonal matrix and from the transfer "
            f"polynomial disagree (worst pairing distance {worst:.3e}): "
            f"{np.sort_complex(matrix_route)} vs {np.sort_complex(polynomial_route)}"
        )


def _edge_candidate_matrix(spec: SuperlatticeSpec) -> np.ndarray:
    """(q-1) x (q-1) open chain on sites 1..q-1, whose eigenvalues are the candidates.

    It is the k = 0 Bloch matrix without its row and column q: at k = 0
    every uniform-gauge bond carries -kappa_n, and the only bonds that
    leave sites 1..q-1 touch site q.
    """
    q = spec.q
    if q < 2:
        raise ValueError("candidate matrix needs period q >= 2")
    return bloch_matrix(spec, 0.0)[: q - 1, : q - 1]


def _perfect_matching(adjacent: np.ndarray) -> list[int] | None:
    """Row paired with each column, or None if no one-to-one pairing exists.

    Kuhn's augmenting paths on the square boolean matrix ``adjacent``: each
    row takes a free adjacent column, or one whose owner can move to
    another.  When every row has a single adjacent column no path is ever
    searched, and the work is one pass over the rows.
    """
    neighbours: list[list[int]] = [[] for _ in adjacent]
    for row, col in zip(*(index.tolist() for index in np.nonzero(adjacent))):
        neighbours[row].append(col)
    owner = [-1] * len(adjacent)

    def augment(row: int, seen: set[int]) -> bool:
        for col in neighbours[row]:
            if col not in seen:
                seen.add(col)
                if owner[col] < 0 or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    if not all(augment(row, set()) for row in range(len(adjacent))):
        return None
    return owner


def _bottleneck(cost: np.ndarray) -> float:
    """Least d at which a one-to-one pairing with every ``cost <= d`` exists."""
    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1  # the largest distance admits every pairing
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(cost <= levels[mid]) is None:
            lo = mid + 1
        else:
            hi = mid
    return float(levels[lo])


def _match_multisets(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Pair two complex multisets one-to-one within ``tol``; worst distance.

    Raises :class:`RouteMismatchError` iff no one-to-one pairing keeps every
    pair within ``tol`` (sizes that differ report distance inf; otherwise
    the error names the bottleneck distance, the least d at which a pairing
    exists).  Returns the largest distance of the pairing found.  When each
    element of ``a`` has exactly one partner within ``tol`` that pairing is
    the only one within ``tol``: any other differs from it only in pairs
    longer than ``tol``, so it is also the min-sum assignment whenever that
    assignment passes, and the returned distance is the same.
    """
    if len(a) != len(b):
        raise RouteMismatchError(a, b, math.inf)
    if len(a) == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows = _perfect_matching(cost <= tol)
    if rows is None:
        raise RouteMismatchError(a, b, _bottleneck(cost))
    return float(cost[rows, np.arange(len(b))].max())


def edge_spectrum(
    spec: SuperlatticeSpec,
    route_check: bool = True,
    route_tol: float = 1e-6,
) -> list[EdgeStateRecord]:
    """All q-1 candidate energies, classified; sorted by ascending Re E.

    With ``route_check`` the eigenvalue route is verified against the roots
    of the transfer polynomial s21 as multisets within ``route_tol``, on the
    lattice divided by the power of two s that puts its largest |V_n| or
    |kappa_n| in [s, 2s): the tolerance is relative to that scale, and the
    classes do not depend on the unit of energy.  A period-1 lattice has no
    candidates.
    """
    q = spec.q
    _check_matrix_size(q)  # the size limit of ``bands``, before the candidate matrix is built
    if q < 2:
        return []
    unit = 2.0 ** (math.frexp(_energy_scale(spec.onsite, spec.hopping))[1] - 1)  # scale / unit in [1, 2)
    if unit != 1.0:  # a power of two: dividing and multiplying back are exact away from underflow
        spec = SuperlatticeSpec(tuple(v / unit for v in spec.onsite), tuple(k / unit for k in spec.hopping))
    candidates = eig_complex(_edge_candidate_matrix(spec))
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
                energy=complex(energy.real * unit, energy.imag * unit),  # exact, signed zeros kept
                s11_abs=s11_abs,
                classification=cls,
                localization_length=length,
            )
        )
    records.sort(key=lambda r: (r.energy.real, r.energy.imag))
    return records


def localization_length(record: EdgeStateRecord) -> float:
    """Decay length -q / ln|s11|^2 of an edge state, in sites, as :func:`edge_spectrum` stored it."""
    if record.classification is not Classification.EDGE:
        raise ValueError(f"localization length is defined for edge states, not {record.classification.value}")
    return record.localization_length


def psi_witness(spec: SuperlatticeSpec, energy: complex, periods: int) -> np.ndarray:
    """Amplitude pairs (psi_{Mq}, psi_{Mq+1}) for M = 0..periods.

    Direct site-by-site recursion from psi_0 = 0, psi_1 = 1, one period per
    walk; at an s21 root this sequence realizes psi_{Mq} = 0 and
    psi_{Mq+1} = s11^M, which makes it an independent witness of the
    classification.
    """
    vec = np.array([1.0, 0.0], dtype=complex)  # (psi_1, psi_0)
    out = np.empty((periods + 1, 2), dtype=complex)
    out[0] = (0.0, 1.0)
    for m in range(1, periods + 1):
        vec = _walk(spec, energy, vec)
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
    edge-classified candidate energy has |Im E| at most ``REALITY_TOL``
    times the lattice's largest |V_n| or |kappa_n|, the limit ``bloch``
    sets for a spectrum that is not exact; extended candidates
    belong to the (then real) continuous spectrum and candidates outside
    the spectrum are immaterial.  ``records`` is the census of
    ``spec`` when the caller already has it, else it is computed here.
    """
    unbroken = diagnose_pt_phase(spec).unbroken
    if records is None:
        records = edge_spectrum(spec)
    tol = _reality_limit(False, spec.onsite, spec.hopping)
    offenders = tuple(
        r.energy for r in records if r.classification is Classification.EDGE and abs(r.energy.imag) > tol
    )
    return RealityReport(real=unbroken and not offenders, offending=offenders)
