"""Transfer-matrix machinery for the semi-infinite superlattice.

The 2x2 matrix ``M_n(E)`` maps the amplitude pair ``(psi_n, psi_{n-1})`` to
``(psi_{n+1}, psi_n)`` at energy E, and the one-period product

    S(E) = M_q(E) M_{q-1}(E) ... M_1(E)

is unimodular (its determinant telescopes to kappa_0/kappa_q = 1), so its
eigenvalues are exp(+-i theta) with ``cos(theta) = tr S / 2``.  E belongs to
the continuous spectrum of the infinite lattice exactly when theta is real,
i.e. ``tr S`` real with ``|tr S| <= 2``.

All four entries of S are polynomials in E (degrees q, q-1, q-1, q-2), which
:func:`symbolic_period_matrix` builds exactly by polynomial products, as
arrays of ascending coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .lattice import SuperlatticeSpec
from .numerics import NumericsError

__all__ = [
    "TransferMatrix",
    "site_matrix",
    "period_matrix",
    "transfer_power",
    "symbolic_period_matrix",
]


@dataclass(frozen=True)
class TransferMatrix:
    """One-period transfer matrix at a fixed energy, with det = 1."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex
    energy: complex

    def __post_init__(self) -> None:
        scale = max(1.0, max(abs(self.s11), abs(self.s12), abs(self.s21), abs(self.s22))) ** 2
        if abs(self.det - 1.0) > 1e-10 * scale:
            raise NumericsError(
                f"transfer matrix at E={self.energy} is not unimodular: det={self.det}"
            )

    @property
    def det(self) -> complex:
        return self.s11 * self.s22 - self.s12 * self.s21

    @property
    def trace(self) -> complex:
        return self.s11 + self.s22

    def as_array(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s21, self.s22]], dtype=complex)


def site_matrix(spec: SuperlatticeSpec, n: int, energy: complex) -> np.ndarray:
    """Single-site step matrix [[(V_n - E)/kappa_n, -kappa_{n-1}/kappa_n], [1, 0]].

    Site indices are reduced modulo the period, so ``kappa_0`` resolves to
    ``kappa_q``.
    """
    v_n = spec.onsite_at(n)
    k_n = spec.hopping_at(n)
    k_prev = spec.hopping_at(n - 1)
    return np.array(
        [[(v_n - energy) / k_n, -k_prev / k_n], [1.0, 0.0]],
        dtype=complex,
    )


def period_matrix(spec: SuperlatticeSpec, energy: complex) -> TransferMatrix:
    """Ordered one-period product M_q ... M_1 at the given energy."""
    product = np.eye(2, dtype=complex)
    for n in range(1, spec.q + 1):
        product = site_matrix(spec, n, energy) @ product
    return TransferMatrix(
        s11=product[0, 0],
        s12=product[0, 1],
        s21=product[1, 0],
        s22=product[1, 1],
        energy=complex(energy),
    )


def transfer_power(matrix: TransferMatrix, power: int) -> np.ndarray:
    """M-th power of a transfer matrix as a 2x2 array, by repeated squaring."""
    if power < 0:
        raise ValueError("power must be a nonnegative integer")
    return np.linalg.matrix_power(matrix.as_array(), power)


def _trim_relative(coeffs: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Drop leading (highest-degree) coefficients below ``rel_tol * max|c|``."""
    keep = np.nonzero(np.abs(coeffs) > rel_tol * np.max(np.abs(coeffs)))[0]
    return coeffs[: keep[-1] + 1] if len(keep) else coeffs[:1]


def symbolic_period_matrix(
    spec: SuperlatticeSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact polynomial product of the q site factors.

    Returns the entries ``(s11, s12, s21, s22)`` of S(E) as ascending
    coefficient arrays.  A product that overflows raises
    :class:`NumericsError`.  Each is trimmed of float noise (threshold 1e-10
    relative to its largest coefficient) and checked against the structural
    degree pattern (q, q-1, q-1, q-2) and the unimodularity identity
    ``s11*s22 - s12*s21 = 1`` coefficient-wise.
    """
    one = np.array([1.0 + 0j])
    zero = np.array([0j])
    top, bottom = [one, zero], [zero, one]
    for n in range(1, spec.q + 1):
        # M_n = [[a(E), b], [1, 0]]: the new top row is a*top + b*bottom and
        # the new bottom row is the old top row
        v_n = spec.onsite_at(n)
        k_n = spec.hopping_at(n)
        a = np.array([v_n / k_n, -1.0 / k_n], dtype=complex)
        b = np.array([-spec.hopping_at(n - 1) / k_n], dtype=complex)
        top, bottom = [P.polyadd(P.polymul(a, t), P.polymul(b, u)) for t, u in zip(top, bottom)], top
    if not all(np.all(np.isfinite(p)) for p in (*top, *bottom)):
        raise NumericsError("transfer polynomial product overflowed: coefficients are not finite")
    entries = tuple(_trim_relative(p) for p in (*top, *bottom))
    s11, s12, s21, s22 = entries

    q = spec.q
    degrees = tuple(len(c) - 1 for c in entries)
    expected = (q, q - 1, q - 1, q - 2)
    for got, want in zip(degrees, expected):
        if want >= 0 and got != want:
            raise NumericsError(f"transfer polynomial degrees {degrees} != {expected}")
    residual = P.polysub(P.polymul(s11, s22), P.polymul(s12, s21))
    residual[0] -= 1.0
    if np.max(np.abs(residual)) > 1e-9:
        raise NumericsError("polynomial unimodularity identity violated")
    return entries
