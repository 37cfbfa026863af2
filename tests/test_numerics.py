import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import given
from hypothesis import strategies as st

from ptsl import eig_complex, poly_roots


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
    # one solver per array: all-real and all-complex stacks, each bitwise
    # equal to its members solved alone
    rng = np.random.default_rng(7)
    real = rng.normal(size=(3, 5, 5))
    cplx = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    for stack in (real, real.astype(complex), cplx):
        values = eig_complex(stack)
        assert values.shape == (3, 5) and values.dtype == complex
        for m, row in zip(stack, values):
            assert row.tobytes() == eig_complex(m).tobytes()
    # a real array, whatever its dtype, keeps conjugate-closed spectra
    assert eig_complex(real.astype(complex)).tobytes() == eig_complex(real).tobytes()
    for row in eig_complex(real):
        assert sorted_c(row) == sorted_c(np.conj(row))
    assert eig_complex(cplx.reshape(1, 3, 5, 5)).shape == (1, 3, 5)
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

