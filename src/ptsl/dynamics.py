"""Time propagation on a truncated lattice and growth-rate estimation.

Solves ``i dpsi/dt = H psi`` for the chain restricted to sites 1..N with
open ends, H carrying the superlattice's on-site energies and ``-kappa``
hoppings.  H is tridiagonal and stored sparse; the samples
``psi(t_j) = exp(-i H t_j) psi0`` on the uniform time grid are those of
scipy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011,
Alg. 5.2), which works to double precision, bit for bit.

The algorithm splits the q = samples - 1 steps of h = t_max/q into blocks of
d = q // s samples, with scipy's own Taylor degree m* and step count s for
the trace-shifted matrix A = -iH - mu*I.  From the block's first state Z it
forms the Taylor vectors K_p = (hA)^p / p! Z once, and the block's d
samples as one (d, N) array, adding k^p K_p to row k term by term.  Each
term stops every finished row with one vector comparison of scipy's test
c1 + c2 <= 2^-53 ||F_k||_inf, and those rows leave the array with their
factor e^{k h mu}.  scipy runs the same test as a Python loop over every
(sample, term) pair.  Each row sees the same floating-point operations in
the same order as in scipy, so the states are bitwise scipy's.  Sample 0
is psi0 itself, which scipy recomputes from 2s products.  When
q <= s (scipy's case 0) every sample is its own block, and scipy's case-0
helper runs as in the public call, from the same plan.  Three private
names of ``scipy.sparse.linalg._expm_multiply`` remain: the planners
``LazyOperatorNormInfo`` and ``_fragment_3_1``, and the case-0 helper
``_expm_multiply_interval_core_0``.

Flipping the global hopping sign is a gauge transformation
``psi_n -> (-1)^n psi_n`` and leaves every intensity invariant, so either
sign convention produces the same observables.

Two growth-rate estimators are provided: the slope of the log of the total
norm, and the slope of the log of the intensity summed over the first few
boundary sites.  A localized boundary mode with Im E > 0 dominates the
boundary window long before it dominates the total norm, so the boundary
estimator converges to 2 Im E on much shorter horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SuperlatticeSpec
from .numerics import NumericsError

__all__ = [
    "PropagationResult",
    "default_site_count",
    "single_site_excitation",
    "propagate",
    "growth_rate_estimate",
    "boundary_growth_rate",
]

# a wavefront entering the last period signals boundary contamination
_BOUNDARY_FRACTION = 1e-6
# ceiling on samples x sites x 24 B (a complex state and a float intensity
# per entry), checked before any state is allocated; 10^4 sites x 2,000
# samples need 480 MB
_STATE_BYTES_LIMIT = 2 * 10**9


@dataclass(frozen=True)
class PropagationResult:
    """Sampled intensities |psi_n(t)|^2 of one propagation run."""

    sample_times: np.ndarray
    intensities: np.ndarray
    total_norm: np.ndarray
    boundary_reach_flag: bool
    period: int


def _chain_hamiltonian(spec: SuperlatticeSpec, n_sites: int):
    """Sparse (CSR) tridiagonal Hamiltonian on sites 1..n_sites with open ends."""
    import scipy.sparse

    cells = np.arange(n_sites) % spec.q
    onsite = np.asarray(spec.onsite, dtype=complex)[cells]
    hopping = -np.asarray(spec.hopping)[cells[:-1]]
    return scipy.sparse.diags([hopping, onsite, hopping], [-1, 0, 1], format="csr")


def _check_norm_time(spec: SuperlatticeSpec, t_max: float) -> None:
    """Reject ||H||_1 * t_max outside [2^-52, 1e4]: expm_multiply's step count
    grows with it, and below 2^-52 the state rounds to psi0 and the count to 0.
    ||H||_1 is bounded by one period's largest |V_n| + |kappa_{n-1}| + |kappa_n|."""
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    hopping = np.abs(spec.hopping)
    with np.errstate(over="ignore"):  # an overflowed bound exceeds the limit
        norm_time = float(np.max(np.abs(spec.onsite) + hopping + np.roll(hopping, 1))) * t_max
    if not 2.0**-52 <= norm_time <= 1e4:
        raise ValueError(f"||H||_1 * t_max = {norm_time:.6g} lies outside the limits [2.2e-16, 10000]")


def default_site_count(spec: SuperlatticeSpec, t_max: float) -> int:
    """Sites keeping the front, widening like (kappa t)^(1/3), off the far end; checks t_max first."""
    _check_norm_time(spec, t_max)
    reach = max(abs(k) for k in spec.hopping) * t_max
    return math.ceil(2.0 * reach + 4.0 * reach ** (1 / 3)) + 2 * spec.q


def single_site_excitation(n_sites: int, site: int = 1) -> np.ndarray:
    """delta_{n, site} initial state."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"excited site {site} outside 1..{n_sites}")
    psi0 = np.zeros(n_sites, dtype=complex)
    psi0[site - 1] = 1.0
    return psi0


def _sample_states(generator, psi0: np.ndarray, t_max: float, num_samples: int) -> np.ndarray:
    """``expm_multiply(generator, psi0, start=0, stop=t_max, num=num_samples)``, bitwise.

    scipy's interval algorithm with one array per block of samples; see the
    module docstring, which names the private scipy code it uses.
    """
    import scipy.sparse
    import scipy.sparse.linalg._expm_multiply as em

    tol = 2.0**-53
    n = generator.shape[0]
    mu = generator.trace() / float(n)
    A = generator - mu * scipy.sparse.identity(n, dtype=generator.dtype, format=generator.format)
    A_1_norm = abs(A).sum(axis=0).max()
    q = num_samples - 1
    h = t_max / q
    norm_info = em.LazyOperatorNormInfo(t_max * A, A_1_norm=t_max * A_1_norm, ell=2)
    m_star, s = (0, 1) if t_max * A_1_norm == 0 else em._fragment_3_1(norm_info, 1, tol, ell=2)
    states = np.empty((num_samples, n), dtype=complex)
    states[0] = psi0
    if q <= s:  # scipy's case 0 re-plans (m*, s) for a single step and runs it per sample
        return em._expm_multiply_interval_core_0(A, states, h, mu, q, norm_info, tol, 2, 1)[0]

    d = q // s
    for start in range(0, q, d):
        k = np.arange(1, min(d, q - start) + 1)  # steps of h past the block start
        term = states[start]
        F = np.tile(term, (k.size, 1))
        c1 = np.abs(term).max()
        for p in range(1, m_star + 1):
            term = h * A.dot(term) / float(p)
            coeff = (k.astype(object) ** p).astype(float)  # float(k**p), exactly as scipy rounds it
            F += coeff[:, None] * term
            c2 = coeff * np.abs(term).max()
            done = c1 + c2 <= tol * np.abs(F).max(axis=1)
            if done.any():
                states[start + k[done]] = np.exp(k[done] * h * mu)[:, None] * F[done]
                F, k, c2 = F[~done], k[~done], c2[~done]
                if not k.size:
                    break
            c1 = c2
        states[start + k] = np.exp(k * h * mu)[:, None] * F
    return states


def propagate(
    spec: SuperlatticeSpec,
    psi0,
    t_max: float,
    num_samples: int = 200,
) -> PropagationResult:
    """Propagate an initial state for time ``t_max``, sampling uniformly.

    The site count is the length of ``psi0`` and must cover at least two
    periods, ``||H||_1 * t_max`` must lie in [2^-52, 1e4], and the states
    and intensities (samples x sites x 24 B) must fit in 2 GB.  The
    far-boundary flag is raised (not an error) when more than a 1e-6
    fraction of the norm enters the last period at any sample.  A state,
    intensity or total norm that overflows to a non-finite value raises
    :class:`NumericsError`.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    n_sites = psi0.size
    if n_sites < 2 * spec.q:
        raise ValueError(f"{n_sites} sites cover less than two periods (q={spec.q})")
    if not np.linalg.norm(psi0) > 0:
        raise ValueError("initial state must be nonzero")
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    state_bytes = 24 * num_samples * n_sites
    if state_bytes > _STATE_BYTES_LIMIT:
        raise ValueError(
            f"{num_samples} samples x {n_sites} sites need {state_bytes / 1e6:.6g} MB of states and "
            f"intensities, above the {_STATE_BYTES_LIMIT / 1e6:.6g} MB limit"
        )
    _check_norm_time(spec, t_max)

    generator = -1j * _chain_hamiltonian(spec, n_sites)
    times = np.linspace(0.0, t_max, num_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        states = _sample_states(generator, psi0, t_max, num_samples)
        intensities = np.abs(states) ** 2
        total = intensities.sum(axis=1)
    # a non-finite state, intensity or norm makes its sample's total non-finite
    overflowed = ~np.isfinite(total)
    if overflowed.any():
        raise NumericsError(
            f"non-finite state or intensity from t={times[np.argmax(overflowed)]:.12g}: "
            "|psi|^2 exceeds the float range"
        )
    tail = intensities[:, n_sites - spec.q :].sum(axis=1)
    reached = bool(np.any(tail > _BOUNDARY_FRACTION * total))
    return PropagationResult(
        sample_times=times,
        intensities=intensities,
        total_norm=total,
        boundary_reach_flag=reached,
        period=spec.q,
    )


def _check_fit_window(fit_window: tuple[float, float], start: float, end: float) -> None:
    """Reject a fit window unless 0 <= t1 < t2 and [t1, t2] lies in [start, end] to 1e-12 * end."""
    t1, t2 = fit_window
    if not t2 > t1 or t1 < 0:
        raise ValueError(f"invalid fit window [{t1}, {t2}]")
    slack = 1e-12 * end
    if t1 < start - slack or t2 > end + slack:
        raise ValueError(f"fit window [{t1}, {t2}] outside sampled range [{start}, {end}]")


def _window_slope(times: np.ndarray, series: np.ndarray, fit_window: tuple[float, float]) -> float:
    """Least-squares slope of ln(series) over the window.

    The fit runs on times divided by the window end t2 > 0, so sample times
    whose squares underflow still give a well-posed fit.
    """
    _check_fit_window(fit_window, times[0], times[-1])
    t1, t2 = fit_window
    mask = (times >= t1) & (times <= t2)
    if mask.sum() < 2:
        raise ValueError("fit window contains fewer than 2 samples")
    if not np.all(series[mask] > 0):
        raise ValueError("series must be positive over the fit window")
    return float(np.polyfit(times[mask] / t2, np.log(series[mask]), 1)[0]) / t2


def growth_rate_estimate(result: PropagationResult, fit_window: tuple[float, float]) -> float:
    """Least-squares slope of ln(total norm) over the window.

    For a run whose dominant mode has energy E*, this converges to 2 Im(E*)
    as the window moves late enough for that mode to dominate the total norm.
    """
    return _window_slope(result.sample_times, result.total_norm, fit_window)


def boundary_growth_rate(result: PropagationResult, fit_window: tuple[float, float]) -> float:
    """Least-squares slope of ln(boundary intensity) over the window.

    The boundary intensity sums the sites of the first period.  Away from
    the boundary the diffracting background drains quickly, so a localized
    boundary mode dominates this window early and the slope approaches
    2 Im(E*) already on short runs.
    """
    series = result.intensities[:, : result.period].sum(axis=1)
    return _window_slope(result.sample_times, series, fit_window)
