import math
import re

import numpy as np
import pytest

from ptsl import (
    HarperParams,
    NumericsError,
    SuperlatticeSpec,
    boundary_growth_rate,
    build_harper,
    default_site_count,
    growth_rate_estimate,
    propagate,
    single_site_excitation,
)
import ptsl.dynamics as dynamics

UNIFORM = SuperlatticeSpec((0.0,), (1.0,))


def test_hamiltonian_matches_lattice_pattern():
    # rows (A[i, i-1], A[i, i], A[i, i+1]) of A = -iH - mu*I, mu = tr(-iH)/N
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 1))
    rows, mu = dynamics._chain_rows(spec, 14)
    assert rows.shape == (14, 3)
    diagonal = np.array([-1j * spec.onsite_at(n) for n in range(1, 15)])
    assert mu == diagonal.sum() / 14
    for n in range(1, 15):
        assert rows[n - 1, 1] == -1j * spec.onsite_at(n) - mu
    for n in range(1, 14):
        assert rows[n - 1, 2] == rows[n, 0] == -1j * -spec.hopping_at(n)
    assert rows[0, 0] == rows[13, 2] == 0.0


def test_default_site_count_outruns_the_wavefront():
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 0))
    n = default_site_count(spec, t_max=30.0)
    assert n == 73 + 12  # ceil(60 + 4 * 30^(1/3)) + 2q
    result = propagate(spec, single_site_excitation(n), 30.0, num_samples=40)
    assert not result.boundary_reach_flag


@pytest.mark.parametrize("t_max", [5.0, 30.0, 300.0])
@pytest.mark.parametrize("q", [1, 3, 6])
def test_default_site_count_keeps_the_front_off_the_far_boundary(q, t_max):
    # a margin of 4q sites alone let the widening Bessel front reach the
    # last period at q = 1 and 3 (e.g. 14 sites for t = 5 where 18 are needed)
    spec = build_harper(HarperParams(0.3, 0.0, 1, q, 0))
    n = default_site_count(spec, t_max)
    result = propagate(spec, single_site_excitation(n), t_max, num_samples=40)
    assert not result.boundary_reach_flag, n


def test_hermitian_norm_conservation_and_spreading():
    result = propagate(UNIFORM, single_site_excitation(48), 10.0, num_samples=60)
    assert np.max(np.abs(result.total_norm - 1.0)) < 1e-7
    assert result.intensities[-1, 0] < 0.2  # discrete diffraction drains site 1
    assert np.all(result.intensities >= 0)
    assert np.all(np.diff(result.sample_times) > 0)


def test_boundary_flag_raised_on_small_chain():
    result = propagate(UNIFORM, single_site_excitation(8), 10.0, num_samples=30)
    assert result.boundary_reach_flag


def test_gauge_flip_leaves_intensities_invariant():
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 2))
    flipped = SuperlatticeSpec(spec.onsite, tuple(-k for k in spec.hopping))
    a = propagate(spec, single_site_excitation(24), 6.0, num_samples=25)
    b = propagate(flipped, single_site_excitation(24), 6.0, num_samples=25)
    assert np.max(np.abs(a.intensities - b.intensities)) < 1e-8


def test_uniform_gain_lattice_rate_is_twice_the_strength():
    # V = i*lam on every site: the norm grows as exp(2*lam*t) exactly, the
    # hopping only redistributes it
    lam = 0.134
    spec = SuperlatticeSpec((1j * lam,), (1.0,))
    result = propagate(spec, single_site_excitation(30), 6.0, num_samples=61)
    rate = growth_rate_estimate(result, (1.0, 6.0))
    assert abs(rate - 2 * lam) < 1e-6


def test_hermitian_rate_is_zero():
    result = propagate(UNIFORM, single_site_excitation(30), 6.0, num_samples=61)
    assert abs(growth_rate_estimate(result, (1.0, 6.0))) < 1e-6


def test_growth_rate_converges_to_edge_mode_at_long_horizons():
    # anchor 1 hosts one amplified boundary mode with Im E = 0.0712; the
    # total norm approaches its doubled imaginary part once the mode
    # dominates, which takes t ~ 50 for this excitation
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 1))
    result = propagate(spec, single_site_excitation(260), 60.0, num_samples=121)
    assert abs(growth_rate_estimate(result, (40.0, 60.0)) - 0.14242) < 0.05 * 0.14242


def test_boundary_estimator_converges_on_short_horizons():
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 1))
    result = propagate(spec, single_site_excitation(200), 30.0, num_samples=201)
    rate = boundary_growth_rate(result, (15.0, 30.0))
    assert abs(rate - 0.14242) < 0.05 * 0.14242
    # the total-norm estimator is still background-limited on this horizon
    assert growth_rate_estimate(result, (15.0, 30.0)) < 0.13


def test_window_validation():
    result = propagate(UNIFORM, single_site_excitation(24), 5.0, num_samples=26)
    with pytest.raises(ValueError, match="outside sampled range"):
        growth_rate_estimate(result, (2.0, 7.0))
    with pytest.raises(ValueError, match="invalid fit window"):
        growth_rate_estimate(result, (3.0, 2.0))
    with pytest.raises(ValueError, match="fewer than 2"):
        growth_rate_estimate(result, (2.0, 2.05))


def test_propagate_validation():
    with pytest.raises(ValueError, match="two periods"):
        propagate(build_harper(HarperParams(0.3, 0.1, 1, 6, 0)), single_site_excitation(8), 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        propagate(UNIFORM, np.zeros(10), 1.0)
    with pytest.raises(ValueError, match="t_max"):
        propagate(UNIFORM, single_site_excitation(10), 0.0)
    for t_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            propagate(UNIFORM, single_site_excitation(10), t_max)
    with pytest.raises(ValueError, match="excited site"):
        single_site_excitation(5, 9)


def test_propagate_limits_norm_times_duration():
    # one period of the uniform chain bounds ||H||_1 by |V| + 2|kappa| = 2;
    # t_max = 5e-324 used to end in a ZeroDivisionError inside expm_multiply
    for t_max in (5000.1, 1e-16, 5e-324):
        with pytest.raises(ValueError, match=r"t_max = .* lies outside the limits \[2\.2e-16, 10000\]"):
            propagate(UNIFORM, single_site_excitation(2), t_max, num_samples=2)
    # the default chain for t_max = 1e9 would need 2e9 sites; it is never sized
    with pytest.raises(ValueError, match=r"t_max = 2e\+09 lies outside"):
        default_site_count(UNIFORM, 1e9)


# ---------------------------------------------------------------------------
# propagation accuracy: exp(-iHt) psi0 on a tight-binding chain
# ---------------------------------------------------------------------------


def test_pure_phase_evolution():
    # a uniform real on-site shift only multiplies the state by exp(-iVt)
    shifted = propagate(SuperlatticeSpec((0.3,), (1.0,)), single_site_excitation(20), 10.0)
    plain = propagate(UNIFORM, single_site_excitation(20), 10.0)
    assert np.max(np.abs(shifted.intensities - plain.intensities)) <= 1e-12
    assert np.max(np.abs(shifted.total_norm - 1.0)) <= 1e-12


def test_pure_gain_site():
    # V = 0.134i on every site: the norm grows as exp(2 * 0.134 t) exactly
    result = propagate(SuperlatticeSpec((0.134j,), (1.0,)), single_site_excitation(2), 5.0)
    assert abs(result.total_norm[-1] - math.exp(1.34)) <= 1e-12 * math.exp(1.34)


def test_rabi_oscillation_against_closed_form():
    # two sites coupled by kappa = 1: |psi_1(t)|^2 = cos^2 t
    result = propagate(UNIFORM, single_site_excitation(2), 10.0, num_samples=21)
    for t, row in zip(result.sample_times, result.intensities):
        assert abs(row[0] - math.cos(t) ** 2) <= 1e-12


@pytest.mark.parametrize("initial_norm", [1e-9, 1e-11])
def test_hermitian_generator_preserves_norm(initial_norm):
    # the relative norm drift stays at double precision for tiny amplitudes too
    rng = np.random.default_rng(3)
    spec = SuperlatticeSpec(tuple(rng.normal(size=4)), tuple(rng.uniform(0.5, 1.5, size=4)))
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 *= math.sqrt(initial_norm) / np.linalg.norm(psi0)
    result = propagate(spec, psi0, 100.0, num_samples=11)
    assert np.max(np.abs(result.total_norm / initial_norm - 1.0)) <= 1e-11


def test_nan_rhs_raises():
    # V = 400i overflows exp(400 t) long before t = 3; the first non-finite
    # sample is scipy's
    spec = SuperlatticeSpec((400j,), (1.0,))
    case, states = _scipy_states(spec, 12, 3.0, 200)
    assert case == 1
    with np.errstate(over="ignore", invalid="ignore"):
        total = (np.abs(states) ** 2).sum(axis=1)
    first = np.linspace(0.0, 3.0, 200)[np.argmax(~np.isfinite(total))]
    assert 0 < first < 3.0
    message = f"non-finite state or intensity from t={first:.12g}: |psi|^2 exceeds the float range"
    with pytest.raises(NumericsError, match=re.escape(message)):
        propagate(spec, single_site_excitation(12), 3.0)


def test_sample_times_validated():
    with pytest.raises(ValueError, match="at least 2 samples"):
        propagate(UNIFORM, single_site_excitation(4), 1.0, num_samples=1)


def test_samples_returned_at_requested_times():
    psi0 = np.array([0.6, 0.8j, 0.0, 0.0])
    result = propagate(UNIFORM, psi0, 1.0, num_samples=5)
    assert result.sample_times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert result.intensities[0].tolist() == (np.abs(psi0) ** 2).tolist()


# ---------------------------------------------------------------------------
# block evaluation of scipy's interval algorithm: bitwise scipy, less work
# ---------------------------------------------------------------------------

BENCHMARK_ANCHOR = build_harper(HarperParams(0.3, 0.134, 1, 6, 1))


def _csr_hamiltonian(spec, n_sites):
    """scipy CSR tridiagonal H on sites 1..n_sites with open ends, the oracle's own."""
    import scipy.sparse

    cells = np.arange(n_sites) % spec.q
    onsite = np.asarray(spec.onsite, dtype=complex)[cells]
    hopping = -np.asarray(spec.hopping)[cells[:-1]]
    return scipy.sparse.diags([hopping, onsite, hopping], [-1, 0, 1], format="csr")


def _scipy_shifted(spec, n_sites):
    """scipy's A = -iH - mu*I and mu, as expm_multiply forms them."""
    import scipy.sparse

    generator = -1j * _csr_hamiltonian(spec, n_sites)
    mu = generator.trace() / float(n_sites)
    return generator - mu * scipy.sparse.identity(n_sites, dtype=complex, format="csr"), mu


def _scipy_states(spec, n_sites, t_max, num_samples):
    """(interval case, states) of scipy's public expm_multiply from a site-1 excitation.

    onenormest draws from numpy's global generator; its state is restored
    after each call.
    """
    from scipy.sparse.linalg import expm_multiply
    from scipy.sparse.linalg._expm_multiply import _expm_multiply_interval

    generator = -1j * _csr_hamiltonian(spec, n_sites)
    psi0 = single_site_excitation(n_sites)
    state = np.random.get_state()
    case = _expm_multiply_interval(generator, psi0, 0.0, t_max, num_samples, True, status_only=True)
    np.random.set_state(state)
    with np.errstate(over="ignore", invalid="ignore"):
        states = expm_multiply(generator, psi0, start=0.0, stop=t_max, num=num_samples, endpoint=True)
    np.random.set_state(state)
    return case, states


@pytest.mark.parametrize(
    "spec, n_sites, t_max, num_samples, case",
    [
        (BENCHMARK_ANCHOR, 60, 10.0, 4, 0),  # samples - 1 <= s = 3
        (BENCHMARK_ANCHOR, 60, 10.0, 31, 1),  # 30 % 3 == 0
        (BENCHMARK_ANCHOR, 60, 10.0, 41, 2),  # 40 % 3 == 1
        (build_harper(HarperParams(0.3, 0.0, 1, 6, 1)), 231, 100.0, 200, 2),  # Hermitian chain
        (BENCHMARK_ANCHOR, 231, 100.0, 200, 2),  # the evolve benchmark command at n0 = 1
        # planned from the powers' norms, then re-planned at 1/5 from ||tA||_1 alone
        (build_harper(HarperParams(0.3, 1.0, 1, 6, 1)), 60, 100.0, 6, 0),
    ],
)
def test_intensities_are_bitwise_scipys(spec, n_sites, t_max, num_samples, case):
    scipy_case, states = _scipy_states(spec, n_sites, t_max, num_samples)
    assert scipy_case == case  # a scipy upgrade that moves the case fails here
    result = propagate(spec, single_site_excitation(n_sites), t_max, num_samples)
    assert np.array_equal(result.intensities, np.abs(states) ** 2)


def test_broken_phase_states_near_the_float_limit_are_bitwise_scipys():
    # |psi| reaches 6.8e256, so propagate rejects the squared intensities; the
    # block loop's norm bound must still admit every stop that scipy makes
    spec = build_harper(HarperParams(0.3, 1.0, 1, 6, 1))
    case, expected = _scipy_states(spec, 231, 1000.0, 200)
    assert case == 2
    rows, mu = dynamics._chain_rows(spec, 231)
    with np.errstate(over="ignore", invalid="ignore"):
        states = dynamics._sample_states(rows, mu, spec.q, single_site_excitation(231), 1000.0, 200)
    assert np.abs(states).max() > 1e256
    assert np.array_equal(states, expected, equal_nan=True)


def test_block_samples_skip_scipys_per_sample_loop(monkeypatch):
    # scipy's interval algorithm runs the evolve benchmark command on 1,106
    # products, 44 of them to return psi0 at t = 0, and takes an infinity
    # norm for every (sample, Taylor term) pair
    products = []
    matvec = dynamics._matvec

    def counted(rows):
        product = matvec(rows)
        return lambda x: products.append(None) or product(x)

    monkeypatch.setattr(dynamics, "_matvec", counted)
    propagate(BENCHMARK_ANCHOR, single_site_excitation(60), 10.0, 41)  # case 2
    products.clear()
    propagate(BENCHMARK_ANCHOR, single_site_excitation(231), 100.0, 200)
    assert 0 < len(products) <= 1062


RANDOM_LATTICE = SuperlatticeSpec((0.4 - 0.3j, -1.1 + 0.2j, 0.7j), (0.8, 1.3, 1.1))
KERNEL_SPECS = [BENCHMARK_ANCHOR, build_harper(HarperParams(0.3, 1.0, 1, 6, 1)), UNIFORM, RANDOM_LATTICE]


PLAN_GRID = [(60, 10.0, 4), (60, 10.0, 31), (60, 10.0, 41), (231, 100.0, 200), (40, 0.5, 3), (40, 30.0, 5), (30, 0.01, 50)]
# onenormest falls short of ||(tA)^p||_1 here for 10 of the global generator's
# seeds 0..99, and scipy then plans s = 20 instead of the exact norms' 21
SHORT_ESTIMATE = (build_harper(HarperParams(0.3, 0.8, 1, 3, 0)), 60, 100.0, 6)


def _ptsl_plans(monkeypatch, spec, n_sites, t_max, num_samples):
    """Every (m*, s) that ``propagate`` plans, in order."""
    plans = []
    plan = dynamics._plan
    monkeypatch.setattr(dynamics, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
    propagate(spec, single_site_excitation(n_sites), t_max, num_samples)
    return plans


def _scipy_plans(spec, n_sites, t_max, num_samples):
    """scipy's (m*, s) for the interval and, in case 0, for one step of t_max / q."""
    import scipy.sparse.linalg._expm_multiply as em

    A, _ = _scipy_shifted(spec, n_sites)
    norm_info = em.LazyOperatorNormInfo(t_max * A, A_1_norm=t_max * em._exact_1_norm(A), ell=2)
    plans = [em._fragment_3_1(norm_info, 1, 2.0**-53, ell=2)]
    if num_samples - 1 <= plans[0][1]:
        norm_info.set_scale(1.0 / (num_samples - 1))
        plans.append(em._fragment_3_1(norm_info, 1, 2.0**-53, ell=2))
    return plans


@pytest.mark.parametrize("spec", KERNEL_SPECS)
@pytest.mark.parametrize("n_sites, t_max, num_samples", PLAN_GRID)
def test_plan_is_scipys(monkeypatch, spec, n_sites, t_max, num_samples):
    # (m*, s) from exact norms of the powers equals scipy's from onenormest
    plans = _ptsl_plans(monkeypatch, spec, n_sites, t_max, num_samples)
    state = np.random.get_state()
    expected = _scipy_plans(spec, n_sites, t_max, num_samples)
    np.random.set_state(state)
    assert plans == expected


def test_plan_takes_exact_norms_where_onenormest_falls_short(monkeypatch):
    # there scipy's step count depended on the global generator; ptsl's is
    # that of scipy's code fragment (3.1) fed the exact norms
    import scipy.sparse.linalg._expm_multiply as em

    plans = _ptsl_plans(monkeypatch, *SHORT_ESTIMATE)
    exact = lambda M, p, *args: np.linalg.norm(np.linalg.matrix_power(M.toarray(), p), 1)  # noqa: E731
    monkeypatch.setattr(em, "_onenormest_matrix_power", exact)
    assert plans == _scipy_plans(*SHORT_ESTIMATE) == [(55, 21), (55, 6)]


def test_plan_is_scipys_fragment_on_a_grid_of_norms():
    # norms from 1e-15 to 1e4, with d_p = ||(tA)^p||_1^(1/p) falling with p at
    # random, reach every theta_m and each p of code fragment (3.1)
    import scipy.sparse.linalg._expm_multiply as em

    class Norms:  # what _fragment_3_1 asks of scipy's LazyOperatorNormInfo
        def __init__(self, one_norm, power_norms, scale):
            self.one_norm, self.power_norms, self.scale = one_norm, power_norms, scale

        def onenorm(self):
            return self.scale * self.one_norm

        def alpha(self, p):
            return max(self.scale * self.power_norms[q - 1] ** (1.0 / q) for q in (p, p + 1))

    rng = np.random.default_rng(0)
    for one_norm in np.geomspace(1e-15, 1e4, 400).tolist():
        decay = np.cumprod(rng.uniform(0.6, 1.0, 9))
        power_norms = [float((one_norm * c) ** p) for p, c in enumerate(decay, 1)]
        for scale in (1.0, 1.0 / 7):
            expected = em._fragment_3_1(Norms(one_norm, power_norms, scale), 1, 2.0**-53, ell=2)
            assert dynamics._plan(one_norm, power_norms, scale) == expected


def test_theta_table_and_norm_limit_are_scipys():
    import scipy.sparse.linalg._expm_multiply as em

    assert dynamics._THETA == em._theta and list(dynamics._THETA) == list(em._theta)
    limit = dynamics._NORM_ONLY_LIMIT
    assert em._condition_3_13(limit, 1, 55, 2) and not em._condition_3_13(np.nextafter(limit, np.inf), 1, 55, 2)


def test_plan_grid_covers_every_interval_case_and_both_branches(monkeypatch):
    # the grid of test_plan_is_scipys reaches scipy's three interval cases,
    # and plans from ||tA||_1 alone (condition (3.13)) as well as from the
    # norms of the powers
    cases = {
        _scipy_states(spec, n, t, num)[0]
        for spec in (BENCHMARK_ANCHOR, UNIFORM)
        for n, t, num in [(60, 10.0, 4), (60, 10.0, 31), (60, 10.0, 41)]
    }
    assert cases == {0, 1, 2}
    calls = []
    power_norms = dynamics._power_norms
    monkeypatch.setattr(dynamics, "_power_norms", lambda *args: calls.append(None) or power_norms(*args))
    propagate(BENCHMARK_ANCHOR, single_site_excitation(40), 0.5, 3)
    assert not calls
    propagate(BENCHMARK_ANCHOR, single_site_excitation(231), 100.0, 200)
    assert len(calls) == 1


@pytest.mark.parametrize("n_sites", [231, 2015])
@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_matvec_is_bitwise_scipys_sparse_product(spec, n_sites):
    # numpy's fused complex multiply would differ in about a quarter of the entries
    A, _ = _scipy_shifted(spec, n_sites)
    product = dynamics._matvec(dynamics._chain_rows(spec, n_sites)[0])
    rng = np.random.default_rng(n_sites)
    for _ in range(20):
        x = (rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)) * 10.0 ** rng.uniform(-5, 5, n_sites)
        x[rng.random(n_sites) < 0.1] = 0.0
        expected, y = A @ x, product(x)
        assert np.array_equal(y.real, expected.real) and np.array_equal(y.imag, expected.imag)


@pytest.mark.parametrize("n_sites", [6, 40, 41, 45, 200])
def test_power_norms_are_exact(n_sites):
    # chains past 38 + q sites lose whole periods from their middle first
    rows, _ = dynamics._chain_rows(RANDOM_LATTICE, n_sites)
    dense = np.diag(rows[:, 1]) + np.diag(rows[1:, 0], -1) + np.diag(rows[:-1, 2], 1)
    expected = [np.linalg.norm(np.linalg.matrix_power(dense, p), 1) for p in range(1, 10)]
    assert np.allclose(dynamics._power_norms(rows, RANDOM_LATTICE.q), expected, rtol=1e-13, atol=0)


def test_propagate_draws_no_random_numbers():
    # scipy estimates the powers' norms with numpy's global generator
    state = np.random.get_state()
    propagate(BENCHMARK_ANCHOR, single_site_excitation(231), 100.0, 200)
    after = np.random.get_state()
    assert state[0] == after[0] and np.array_equal(state[1], after[1]) and state[2:] == after[2:]


def test_state_memory_is_budgeted_before_allocation(monkeypatch):
    import ptsl.dynamics as dynamics

    # the north-star range, 10^4 sites x 2,000 samples (480 MB), is admitted
    assert 24 * 10**4 * 2000 <= dynamics._STATE_BYTES_LIMIT / 4
    monkeypatch.setattr(dynamics, "_STATE_BYTES_LIMIT", 24 * 30 * 20)
    propagate(UNIFORM, single_site_excitation(30), 5.0, num_samples=20)
    with pytest.raises(ValueError, match=r"21 samples x 30 sites need 0\.01512 MB .* above the 0\.0144 MB limit"):
        propagate(UNIFORM, single_site_excitation(30), 5.0, num_samples=21)
