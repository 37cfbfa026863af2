"""Time propagation on a truncated lattice and growth-rate estimation.

Solves ``i dpsi/dt = H psi`` for the chain restricted to sites 1..N with
open ends, H carrying the superlattice's on-site energies and ``-kappa``
hoppings.  The samples ``psi(t_j) = exp(-i H t_j) psi0`` on the uniform time
grid come from Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Alg.
5.2, which works to double precision, and equal scipy's ``expm_multiply``
bit for bit on numpy alone.  The tridiagonal A = -iH - mu*I, mu = tr(-iH)/N,
is kept as its (N, 3) rows, and its product rounds as a sparse one.  The
Taylor degree m* and step count s come from the paper's theta_m and code
fragment (3.1), fed exact 1-norms of (tA)^p for p <= 9 where the paper
estimates them at random; no random number is drawn.

The q = samples - 1 steps of h = t_max/q form blocks of d = q // s samples.
From the block's first state Z come the Taylor vectors K_p = (hA)^p / p! Z,
once, and the block's samples as one (d, N) array, adding k^p K_p to row k
term by term.  Each term ends every finished row with one vector comparison
of the test c1 + c2 <= 2^-53 ||F_k||_inf, and those rows leave with their
factor e^{k h mu}; the k^p and e^{k h mu} tables are built once per run.
Each row sees the floating-point operations of a loop over every (sample,
term) pair, in its order.  Sample 0 is psi0.  When q <= s, each sample is a
step of its own, planned for t_max/q.  In both loops the exact ||F||_inf is
taken only where its bound, (||Z||_inf + 1e-300 + every term's c2)(1 +
1e-12) with Z the state the step or block starts from, lets the test pass.

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
_TOL = 2.0**-53
# theta_m of Al-Mohy & Higham (2011); ||tA||_1 alone plans up to 2 ell p_max (p_max + 3) theta_55 / 55 (3.13)
_THETA = dict(zip([*range(1, 31), 35, 40, 45, 50, 55], [
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1,
    4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86,
    3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
]))
_NORM_ONLY_LIMIT = 352 * (_THETA[55] / 55.0)


@dataclass(frozen=True)
class PropagationResult:
    """Sampled intensities |psi_n(t)|^2 of one propagation run."""

    sample_times: np.ndarray
    intensities: np.ndarray
    total_norm: np.ndarray
    boundary_reach_flag: bool
    period: int


def _chain_rows(spec: SuperlatticeSpec, n_sites: int) -> tuple[np.ndarray, complex]:
    """Rows (A[i, i-1], A[i, i], A[i, i+1]) of A = -iH - mu*I on sites 1..n_sites, and mu = tr(-iH)/n_sites,
    built with the operations that expm_multiply applies to a sparse -1j * H."""
    cells = np.arange(n_sites) % spec.q
    diagonal = np.asarray(spec.onsite, dtype=complex)[cells] * -1j
    mu = diagonal.sum() / float(n_sites)
    rows = np.zeros((n_sites, 3), dtype=complex)
    rows[1:, 0] = rows[:-1, 2] = (-np.asarray(spec.hopping)[cells[:-1]]).astype(complex) * -1j
    rows[:, 1] = diagonal - mu
    return rows, mu


def _matvec(rows: np.ndarray):
    """x -> A x, rounded as a sparse product: each complex term's four real products rounded before they add,
    each row's three terms summed left to right.  numpy's complex multiply may fuse a.r*b.r - a.i*b.i, which
    rounds alike only where one of the two products is 0: the hoppings have real part 0, and the diagonal
    acts as its real part plus its imaginary part."""
    padded = np.zeros(len(rows) + 2, dtype=complex)
    lower, real, imag, upper = rows[:, 0].copy(), rows[:, 1].real + 0j, rows[:, 1].imag * 1j, rows[:, 2].copy()

    def product(x: np.ndarray) -> np.ndarray:
        padded[1:-1] = x
        diagonal = real * x
        diagonal += imag * x
        y = lower * padded[:-2]
        y += diagonal
        y += upper * padded[2:]
        return y

    return product


def _power_norms(rows: np.ndarray, period: int) -> list[float]:
    """Exact ||A^p||_1, p = 1..9.  Probe r sums the columns j = r mod 19, which A^p spreads over rows j-p..j+p,
    so they never meet and column j's 1-norm sums its own 19 rows.  Away from the ends those rows repeat with
    the period, so whole periods cut from the middle of a long chain change no column's norm."""
    cut = max(0, (len(rows) - 38 - period) // period) * period
    rows = np.concatenate((rows[:19], rows[19 + cut :]))
    j = np.arange(len(rows))
    probes = np.zeros((len(rows) + 2, 19), dtype=complex)
    probes[j + 1, j % 19] = 1.0
    own_rows = (j[:, None] + np.arange(19), j[:, None] % 19)  # rows j-9..j+9 below a 9-row border
    norms = []
    for _ in range(9):
        probes[1:-1] = rows[:, :1] * probes[:-2] + rows[:, 1:2] * probes[1:-1] + rows[:, 2:] * probes[2:]
        norms.append(float(np.pad(np.abs(probes[1:-1]), ((9, 9), (0, 0)))[own_rows].sum(axis=1).max()))
    return norms


def _plan(one_norm: float, power_norms: list[float] | None, scale: float = 1.0) -> tuple[int, int]:
    """Taylor degree m* and step count s for scale * tA: code fragment (3.1) of Al-Mohy & Higham (2011) for one
    column, m_max = 55 and p_max = 8, in scipy's floating-point operations, from one_norm = ||tA||_1 and,
    past (3.13), power_norms = ||(tA)^p||_1 for p = 1..9."""
    if scale * one_norm <= _NORM_ONLY_LIMIT:
        plans = ((m, math.ceil(scale * one_norm / theta)) for m, theta in _THETA.items())
    else:
        d = [scale * norm ** (1.0 / p) for p, norm in enumerate(power_norms, 1)]  # d[p - 1] = d_p
        plans = (
            (m, math.ceil(max(d[p - 1], d[p]) / theta))
            for p in range(2, 9) for m, theta in _THETA.items() if m >= p * (p - 1) - 1
        )
    return min(plans, key=lambda plan: plan[0] * plan[1])  # s >= 1: every norm here is positive


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


def _sample_states(rows: np.ndarray, mu: complex, period: int, psi0: np.ndarray, t_max: float, num_samples: int):
    """``expm_multiply(A + mu I, psi0, start=0, stop=t_max, num=num_samples)``, bitwise (module docstring)."""
    product = _matvec(rows)
    magnitudes = np.pad(np.abs(rows), ((1, 1), (0, 0)))  # ||A||_1 added up as a sparse column sum
    one_norm = t_max * ((magnitudes[:-2, 2] + magnitudes[1:-1, 1]) + magnitudes[2:, 0]).max()
    power_norms = _power_norms(t_max * rows, period) if one_norm > _NORM_ONLY_LIMIT else None
    q = num_samples - 1
    h = t_max / q
    m_star, s = _plan(one_norm, power_norms)
    states = np.empty((num_samples, len(rows)), dtype=complex)
    states[0] = psi0
    if q <= s:  # s steps per sample, planned for t_max / q; the exact ||F||_inf is taken only where its
        # bound, (||F|| at the step start + every term's c2) (1 + 1e-12) + 1e-300, lets the test pass
        m_star, s = _plan(one_norm, power_norms, 1.0 / q)
        eta = np.exp(h * mu / float(s))
        for k in range(q):
            F = x = states[k]
            for _ in range(s):
                c1 = np.abs(x).max()
                bound = c1 + 1e-300
                for j in range(m_star):
                    x = h / float(s * (j + 1)) * product(x)
                    c2 = np.abs(x).max()
                    F = F + x
                    bound += c2
                    if c1 + c2 <= _TOL * bound * (1 + 1e-12) and c1 + c2 <= _TOL * np.abs(F).max():
                        break
                    c1 = c2
                F = x = eta * F
            states[k + 1] = F
        return states

    d = q // s
    powers = [np.ones(d)]  # powers[p][k - 1] = float(k**p) as scipy rounds it, each row built once, when first needed
    phases = np.exp(np.arange(1, d + 1) * h * mu)  # e^{k h mu}
    for start in range(0, q, d):
        k = np.arange(1, min(d, q - start) + 1)  # steps of h past the block start
        term = states[start]
        F = np.tile(term, (k.size, 1))
        c1 = np.abs(term).max()
        bound = c1 + 1e-300
        for p in range(1, m_star + 1):
            term = h * product(term) / float(p)
            if p == len(powers):
                powers.append(np.array([float(j**p) for j in range(1, d + 1)]))
            coeff = powers[p][k - 1]
            F += coeff[:, None] * term
            c2 = coeff * np.abs(term).max()
            bound = bound + c2
            if (c1 + c2 <= _TOL * bound * (1 + 1e-12)).any():
                done = c1 + c2 <= _TOL * np.abs(F).max(axis=1)
                if done.any():
                    states[start + k[done]] = phases[k[done] - 1, None] * F[done]
                    F, k, c2, bound = F[~done], k[~done], c2[~done], bound[~done]
                    if not k.size:
                        break
            c1 = c2
        states[start + k] = phases[k - 1, None] * F
    return states


def _check_run(spec: SuperlatticeSpec, n_sites: int, t_max: float, num_samples: int) -> None:
    """Reject the sizes and duration that :func:`propagate` refuses, before anything is allocated."""
    if n_sites < 2 * spec.q:
        raise ValueError(f"{n_sites} sites cover less than two periods (q={spec.q})")
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    state_bytes = 24 * num_samples * n_sites
    if state_bytes > _STATE_BYTES_LIMIT:
        raise ValueError(
            f"{num_samples} samples x {n_sites} sites need {state_bytes / 1e6:.6g} MB of states and "
            f"intensities, above the {_STATE_BYTES_LIMIT / 1e6:.6g} MB limit"
        )
    _check_norm_time(spec, t_max)


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
    _check_run(spec, n_sites, t_max, num_samples)
    if not np.linalg.norm(psi0) > 0:
        raise ValueError("initial state must be nonzero")

    rows, mu = _chain_rows(spec, n_sites)
    times = np.linspace(0.0, t_max, num_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        states = _sample_states(rows, mu, spec.q, psi0, t_max, num_samples)
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


def _window_mask(times: np.ndarray, fit_window: tuple[float, float]) -> np.ndarray:
    """Which sample times lie in the fit window [t1, t2]; rejects it unless 0 <= t1 < t2, it lies in
    [times[0], times[-1]] to 1e-12 * times[-1], and it holds at least 2 samples."""
    t1, t2 = fit_window
    if not t2 > t1 or t1 < 0:
        raise ValueError(f"invalid fit window [{t1}, {t2}]")
    start, end = times[0], times[-1]
    slack = 1e-12 * end
    if t1 < start - slack or t2 > end + slack:
        raise ValueError(f"fit window [{t1}, {t2}] outside sampled range [{start}, {end}]")
    mask = (times >= t1) & (times <= t2)
    if mask.sum() < 2:
        raise ValueError("fit window contains fewer than 2 samples")
    return mask


def _window_slope(times: np.ndarray, series: np.ndarray, fit_window: tuple[float, float]) -> float:
    """Least-squares slope of ln(series) over the window.

    The fit runs on times divided by the window end t2 > 0, so sample times
    whose squares underflow still give a well-posed fit.
    """
    mask = _window_mask(times, fit_window)
    t2 = fit_window[1]
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
