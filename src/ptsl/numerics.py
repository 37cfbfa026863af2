"""Self-contained numerical kernels.

Two families of routines used throughout the package:

* complex polynomial arithmetic and simultaneous-iteration root finding
  (Aberth-Ehrlich), for the polynomial entries of transfer matrices;
* dense complex eigenvalues, for Bloch and truncation matrices.

Everything here is a pure function of its inputs; no global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "ComplexPolynomial",
    "poly_roots",
    "eig_complex",
]


class NumericsError(RuntimeError):
    """A numerical kernel failed to meet its accuracy contract."""


# ---------------------------------------------------------------------------
# complex polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex coefficients stored in ascending degree order.

    Trailing coefficients that are exactly zero are trimmed at construction;
    the zero polynomial is represented by the single coefficient ``(0,)``.
    Use :meth:`trimmed` to additionally drop float-noise leading terms.
    """

    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (0j,)
        if not all(np.isfinite(c.real) and np.isfinite(c.imag) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0j,)

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or arrays."""
        z = np.asarray(z, dtype=complex)
        result = np.full_like(z, self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            result = result * z + c
        return complex(result) if result.ndim == 0 else result

    def __add__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        out[: len(a)] += a
        out[: len(b)] += b
        return ComplexPolynomial(tuple(out))

    def __mul__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        if self.is_zero or other.is_zero:
            return ComplexPolynomial((0j,))
        out = np.convolve(np.asarray(self.coefficients), np.asarray(other.coefficients))
        return ComplexPolynomial(tuple(out))

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial((0j,))
        coeffs = np.asarray(self.coefficients[1:]) * np.arange(1, self.degree + 1)
        return ComplexPolynomial(tuple(coeffs))

    def trimmed(self, rel_tol: float = 1e-10) -> "ComplexPolynomial":
        """Drop leading (highest-degree) coefficients below ``rel_tol * max|c|``."""
        coeffs = list(self.coefficients)
        threshold = rel_tol * max(abs(c) for c in coeffs)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= threshold:
            coeffs.pop()
        return ComplexPolynomial(tuple(coeffs))

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "ComplexPolynomial":
        coeffs = np.array([complex(leading)])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0]))
        return cls(tuple(coeffs))


def _horner_vec(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    p = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        p = p * z + c
    return p


def _magnitude_bound(coeffs: np.ndarray, abs_z: np.ndarray) -> np.ndarray:
    """Sum |c_i| |z|^i, an upper bound on evaluation round-off scale."""
    s = np.full_like(abs_z, abs(coeffs[-1]))
    for c in coeffs[-2::-1]:
        s = s * abs_z + abs(c)
    return s


def _cluster_roots(roots: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clusters of root estimates within ``radius``."""
    remaining = list(range(len(roots)))
    clusters = []
    while remaining:
        group = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for idx in remaining[:]:
                if any(abs(roots[idx] - roots[g]) <= radius for g in group):
                    group.append(idx)
                    remaining.remove(idx)
                    grew = True
        clusters.append(np.array(group))
    return clusters


def poly_roots(
    poly,
    cluster_radius: float = 1e-6,
    residual_tol: float = 1e-9,
    max_iterations: int = 400,
) -> np.ndarray:
    """All complex roots, with multiplicity, by Aberth-Ehrlich iteration.

    Accepts a :class:`ComplexPolynomial` or a sequence of ascending
    coefficients.  Returns exactly ``degree`` roots.  Each returned root r
    satisfies ``|p(r)| <= residual_tol * max|c| * max(1, |r|)**degree``;
    failure to reach that residual raises :class:`NumericsError`.

    Nearly coincident estimates (within ``cluster_radius``) are merged to
    their centroid and reported with multiplicity, but only when the merged
    point still meets the residual bound, so genuinely distinct close roots
    are never silently fused.
    """
    if not isinstance(poly, ComplexPolynomial):
        poly = ComplexPolynomial(tuple(poly))
    if poly.degree < 1 or poly.is_zero:
        raise ValueError("constant polynomial has no root set")

    coeffs = np.asarray(poly.coefficients, dtype=complex)
    full_degree = len(coeffs) - 1
    max_coeff = np.max(np.abs(coeffs))

    # exact roots at the origin peel off without iteration
    n_zero = 0
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
        n_zero += 1
    degree = len(coeffs) - 1

    if degree == 0:
        roots = np.array([], dtype=complex)
    elif degree == 1:
        roots = np.array([-coeffs[0] / coeffs[1]])
    else:
        roots = _aberth(coeffs, max_iterations)

    roots = np.concatenate([np.zeros(n_zero, dtype=complex), roots])

    def residual_ok(values: np.ndarray) -> np.ndarray:
        bound = residual_tol * max_coeff * np.maximum(1.0, np.abs(values)) ** full_degree
        p_full = _horner_vec(np.asarray(poly.coefficients, dtype=complex), values)
        return np.abs(p_full) <= bound

    if not residual_ok(roots).all():
        raise NumericsError(
            f"root residuals exceed {residual_tol:g} * scale after {max_iterations} iterations"
        )

    # multiplicity reporting: merge clusters to their centroid where harmless
    merged = roots.copy()
    for group in _cluster_roots(roots, cluster_radius):
        if len(group) > 1:
            centroid = roots[group].mean()
            if residual_ok(np.array([centroid])).all():
                merged[group] = centroid
    return merged


def _aberth(coeffs: np.ndarray, max_iterations: int) -> np.ndarray:
    """Aberth-Ehrlich simultaneous iteration; coefficients have c0 != 0."""
    degree = len(coeffs) - 1
    deriv = coeffs[1:] * np.arange(1, degree + 1)
    eps = np.finfo(float).eps

    # initial estimates on a circle of radius max |c_i / c_n|^(1/(n-i)), half
    # the Fujiwara bound on the root moduli, rotated off the axes so
    # symmetric configurations do not stall.  The geometric-mean radius
    # |c_0 / c_n|^(1/n) puts every estimate near 0 when c_0 is tiny, and the
    # iteration then stops on steps below eps before the large roots are found.
    ratios = np.abs(coeffs[:-1] / coeffs[-1])
    radius = np.max(ratios ** (1.0 / (degree - np.arange(degree))))
    angles = 2 * np.pi * np.arange(degree) / degree + 0.3999
    z = radius * np.exp(1j * angles)

    converged = np.zeros(degree, dtype=bool)
    for _ in range(max_iterations):
        p = _horner_vec(coeffs, z)
        noise = _magnitude_bound(coeffs, np.abs(z))
        converged |= np.abs(p) <= 4 * degree * eps * noise
        if converged.all():
            break
        dp = _horner_vec(deriv, z)
        dp = np.where(dp == 0, eps, dp)
        newton = p / dp
        pair_diff = z[:, None] - z[None, :]
        np.fill_diagonal(pair_diff, np.inf)
        repulsion = (1.0 / pair_diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = np.where(converged, 0.0, newton / denom)
        z = z - step
        if np.max(np.abs(step)) <= eps * (1.0 + np.max(np.abs(z))):
            break
    return z


# ---------------------------------------------------------------------------
# dense complex eigenvalues
# ---------------------------------------------------------------------------


def eig_complex(matrix) -> np.ndarray:
    """Eigenvalues of a dense square matrix, or of each matrix of a stack.

    Accepts shape ``(..., n, n)`` and returns ``(..., n)``.  Backed by
    LAPACK's Hessenberg + shifted-QR path.  Each exactly real matrix, alone
    or in a stack, is dispatched to the real driver so its spectrum comes
    back closed under complex conjugation.
    """
    m = np.asarray(matrix)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return np.empty(m.shape[:-1], dtype=complex)
    if not np.all(np.isfinite(m.real)) or (np.iscomplexobj(m) and not np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    real = ~m.imag.any(axis=(-2, -1))
    values = np.empty(m.shape[:-1], dtype=complex)
    values[real] = np.linalg.eigvals(m.real[real].astype(float))
    values[~real] = np.linalg.eigvals(m[~real].astype(complex))
    return values
