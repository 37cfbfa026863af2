"""Self-contained numerical kernels.

Two families of routines used throughout the package:

* simultaneous-iteration root finding (Aberth-Ehrlich) on ascending
  coefficient arrays, for the polynomial entries of transfer matrices;
* dense complex eigenvalues, for Bloch and truncation matrices.

Everything here is a pure function of its inputs; no global state.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "NumericsError",
    "poly_roots",
    "eig_complex",
]


class NumericsError(RuntimeError):
    """A numerical kernel failed to meet its accuracy contract."""


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------

# accuracy contract of poly_roots: every root r meets
# |p(r)| <= _RESIDUAL_TOL * max|c| * max(1, |r|)**degree within _MAX_ITERATIONS
# Aberth steps
_RESIDUAL_TOL = 1e-9
_MAX_ITERATIONS = 400


def poly_roots(coeffs) -> np.ndarray:
    """All complex roots, with multiplicity, by Aberth-Ehrlich iteration.

    ``coeffs`` are the ascending coefficients; exact trailing zeros are
    dropped first.  Returns exactly ``degree`` roots.  Each returned root r
    satisfies ``|p(r)| <= 1e-9 * max|c| * max(1, |r|)**degree``; failure to
    reach that residual raises :class:`NumericsError`.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("polynomial coefficients must be finite")
    full = np.trim_zeros(coeffs, "b")
    full_degree = len(full) - 1
    if full_degree < 1:
        raise ValueError("constant polynomial has no root set")
    max_coeff = np.max(np.abs(full))

    # exact roots at the origin peel off without iteration
    n_zero = int(np.argmax(full != 0))
    coeffs = full[n_zero:]
    degree = len(coeffs) - 1

    if degree == 0:
        roots = np.array([], dtype=complex)
    elif degree == 1:
        roots = np.array([-coeffs[0] / coeffs[1]])
    else:
        roots = _aberth(coeffs)
    roots = np.concatenate([np.zeros(n_zero, dtype=complex), roots])

    bound = _RESIDUAL_TOL * max_coeff * np.maximum(1.0, np.abs(roots)) ** full_degree
    if not (np.abs(P.polyval(roots, full)) <= bound).all():
        raise NumericsError(
            f"root residuals exceed {_RESIDUAL_TOL:g} * scale after {_MAX_ITERATIONS} iterations"
        )
    return roots


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich simultaneous iteration; coefficients have c0 != 0."""
    degree = len(coeffs) - 1
    deriv = P.polyder(coeffs)
    abs_coeffs = np.abs(coeffs)
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
    for _ in range(_MAX_ITERATIONS):
        p = P.polyval(z, coeffs)
        # sum |c_i| |z|^i, the scale of the round-off in evaluating p(z)
        noise = P.polyval(np.abs(z), abs_coeffs)
        converged |= np.abs(p) <= 4 * degree * eps * noise
        if converged.all():
            break
        dp = P.polyval(z, deriv)
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
    LAPACK's Hessenberg + shifted-QR path.  An exactly real array goes to
    the real solver (dgeev), so each spectrum comes back closed under complex
    conjugation; anything else goes to the complex one (zgeev).
    """
    m = np.asarray(matrix)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return np.empty(m.shape[:-1], dtype=complex)
    if not np.all(np.isfinite(m.real)) or (np.iscomplexobj(m) and not np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    m = m.real.astype(float) if not m.imag.any() else m.astype(complex)
    return np.linalg.eigvals(m).astype(complex)
