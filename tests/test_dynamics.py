import numpy as np
import pytest

from ptsl import (
    HarperParams,
    SuperlatticeSpec,
    boundary_growth_rate,
    build_harper,
    default_site_count,
    growth_rate_estimate,
    propagate,
    single_site_excitation,
)
from ptsl.dynamics import _chain_hamiltonian

UNIFORM = SuperlatticeSpec((0.0,), (1.0,))


def test_hamiltonian_matches_lattice_pattern():
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 1))
    h = _chain_hamiltonian(spec, 14).toarray()
    assert h.shape == (14, 14)
    for n in range(1, 15):
        assert h[n - 1, n - 1] == spec.onsite_at(n)
    for n in range(1, 14):
        assert h[n - 1, n] == -spec.hopping_at(n)
    assert h[0, 2] == 0.0


def test_default_site_count_outruns_the_wavefront():
    spec = build_harper(HarperParams(0.3, 0.134, 1, 6, 0))
    n = default_site_count(spec, t_max=30.0)
    assert n == 60 + 24
    result = propagate(spec, single_site_excitation(n), 30.0, num_samples=40)
    assert not result.boundary_reach_flag


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
    with pytest.raises(ValueError, match="boundary window"):
        boundary_growth_rate(result, (1.0, 4.0), n_boundary_sites=100)


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
