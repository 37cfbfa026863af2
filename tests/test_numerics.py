import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import given
from hypothesis import strategies as st

from ptsl import (
    NumericsError,
    SuperlatticeSpec,
    eig_complex,
    poly_roots,
    propagate,
    single_site_excitation,
)


def sorted_c(values):
    return sorted(values, key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# polynomials and roots
# ---------------------------------------------------------------------------


def test_polynomial_trims_exact_trailing_zeros():
    # 1 + 2E written with two zero leading terms has exactly one root
    roots = poly_roots((1.0, 2.0, 0.0, 0.0))
    assert roots.shape == (1,)
    assert abs(roots[0] + 0.5) < 1e-15


def test_roots_of_symmetric_quadratic():
    roots = poly_roots((-1.0, 0.0, 1.0))  # E^2 - 1
    assert np.allclose(sorted_c(roots), [-1.0, 1.0], atol=1e-12)


def test_root_of_imaginary_linear():
    roots = poly_roots((1.0, 1j))  # 1 + iE
    assert np.allclose(roots, [1j], atol=1e-14)


def test_constant_polynomial_rejected():
    with pytest.raises(ValueError, match="constant polynomial"):
        poly_roots((3.0,))
    with pytest.raises(ValueError, match="constant polynomial"):
        poly_roots((3.0, 0.0, 0.0))


def test_nonfinite_coefficients_rejected():
    for coeffs in ((1.0, float("nan")), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            poly_roots(coeffs)


def test_zero_roots_deflated_exactly():
    # E^2 * (E - 2): roots {0, 0, 2}
    roots = sorted_c(poly_roots((0.0, 0.0, -2.0, 1.0)))
    assert roots[0] == 0 and roots[1] == 0
    assert abs(roots[2] - 2.0) < 1e-12


def _assert_residual_contract(coeffs, roots):
    degree = len(coeffs) - 1
    max_coeff = np.max(np.abs(coeffs))
    for r in roots:
        assert abs(P.polyval(r, coeffs)) <= 1e-9 * max_coeff * max(1.0, abs(r)) ** degree


def test_double_root_reported_with_multiplicity():
    coeffs = P.polyfromroots([1.0, 1.0, -2.0])
    roots = sorted_c(poly_roots(coeffs))
    assert len(roots) == 3
    assert abs(roots[0] + 2.0) < 1e-9
    assert abs(roots[1] - 1.0) < 1e-6 and abs(roots[2] - 1.0) < 1e-6
    _assert_residual_contract(coeffs, roots)


grid_roots = st.sets(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12
).map(lambda pts: [0.7 * complex(a, b) for a, b in pts])


@given(grid_roots)
def test_roots_roundtrip_recovers_well_separated_roots(roots):
    from conftest import multiset_distance

    estimated = poly_roots(P.polyfromroots(roots))
    assert multiset_distance(estimated, roots) < 1e-7


@given(grid_roots)
def test_root_residual_contract(roots):
    coeffs = (0.5 + 0.25j) * P.polyfromroots(roots)
    _assert_residual_contract(coeffs, poly_roots(coeffs))


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def test_eig_identity():
    assert np.allclose(sorted_c(eig_complex(np.eye(3))), [1.0, 1.0, 1.0])


def test_eig_diagonal():
    values = sorted_c(eig_complex(np.diag([2.0, -1j])))
    assert np.allclose(values, sorted_c([2.0, -1j]))


def test_eig_parity_matrix():
    values = sorted_c(eig_complex(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(values, [-1.0, 1.0])


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        eig_complex(np.zeros((2, 3)))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        eig_complex(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_eig_stack_mixing_real_and_complex_matches_single_calls():
    rng = np.random.default_rng(7)
    real = rng.normal(size=(3, 5, 5)).astype(complex)
    cplx = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    stack = np.stack([real[0], cplx[0], cplx[1], real[1], real[2], cplx[2]])
    values = eig_complex(stack)
    assert values.shape == (6, 5)
    for m, row in zip(stack, values):
        assert row.tobytes() == eig_complex(m).tobytes()
    # the real members keep their conjugate-closed spectra
    for i in (0, 3, 4):
        assert sorted_c(values[i]) == sorted_c(np.conj(values[i]))
    assert eig_complex(stack.reshape(2, 3, 5, 5)).shape == (2, 3, 5)
    assert eig_complex(np.zeros((4, 0, 0))).shape == (4, 0)


def test_eig_real_matrix_spectrum_conjugate_closed():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.integers(2, 9)
        m = rng.normal(size=(d, d))
        values = eig_complex(m)
        assert sorted_c(values) == sorted_c(np.conj(values))


def test_eig_trace_determinant_and_residual_contracts():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 13))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        values = eig_complex(m)
        scale = float(np.max(np.abs(m).sum(axis=1))) ** d
        assert abs(values.sum() - np.trace(m)) <= 1e-9 * scale
        assert abs(np.prod(values) - np.linalg.det(m)) <= 1e-8 * scale
        if d <= 8:
            for ev in values:
                assert abs(np.linalg.det(m - ev * np.eye(d))) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# propagation accuracy: exp(-iHt) psi0 on a tight-binding chain
# ---------------------------------------------------------------------------

UNIFORM = SuperlatticeSpec((0.0,), (1.0,))


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
    # V = 400i overflows exp(400 t) long before t = 3
    with pytest.raises(NumericsError, match="non-finite"):
        propagate(SuperlatticeSpec((400j,), (1.0,)), single_site_excitation(12), 3.0)


def test_sample_times_validated():
    with pytest.raises(ValueError, match="at least 2 samples"):
        propagate(UNIFORM, single_site_excitation(4), 1.0, num_samples=1)


def test_samples_returned_at_requested_times():
    psi0 = np.array([0.6, 0.8j, 0.0, 0.0])
    result = propagate(UNIFORM, psi0, 1.0, num_samples=5)
    assert result.sample_times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert result.intensities[0].tolist() == (np.abs(psi0) ** 2).tolist()
