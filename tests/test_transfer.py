import cmath

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pt_specs
from ptsl import (
    HarperParams,
    NumericsError,
    SuperlatticeSpec,
    TransferMatrix,
    band_structure,
    build_harper,
    period_matrix,
    site_matrix,
    symbolic_period_matrix,
    transfer_power,
)

HARPER = build_harper(HarperParams(0.3, 0.134, 1, 6, 0))

bounded_energy = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
    lambda t: complex(t[0], t[1])
)


# ---------------------------------------------------------------------------
# single-site and one-period matrices
# ---------------------------------------------------------------------------


def test_site_matrix_with_vanishing_diagonal_term():
    spec = SuperlatticeSpec((0.5, -0.25), (2.0, 4.0))
    m = site_matrix(spec, 2, energy=-0.25)  # V_2 - E = 0
    assert np.allclose(m, [[0.0, -2.0 / 4.0], [1.0, 0.0]])


def test_site_matrix_uniform_lattice_hand_value():
    spec = SuperlatticeSpec((0.0,), (1.0,))
    assert np.allclose(site_matrix(spec, 1, -2.0), [[2.0, -1.0], [1.0, 0.0]])


def test_site_matrix_determinant_is_hopping_ratio():
    spec = SuperlatticeSpec((0.1j, -0.1j, 0.3), (0.5, -0.8, 1.25))
    for n in range(1, 4):
        det = np.linalg.det(site_matrix(spec, n, 0.37 + 0.11j))
        assert abs(det - spec.hopping_at(n - 1) / spec.hopping_at(n)) < 1e-14


def test_period_matrix_single_site_closed_form():
    spec = SuperlatticeSpec((0.0,), (1.0,))
    for energy in (0.0, 1.5, -0.4 + 0.2j):
        s = period_matrix(spec, energy)
        assert np.allclose(s.as_array(), [[-energy, -1.0], [1.0, 0.0]])


@given(pt_specs(min_q=1, max_q=8), bounded_energy)
def test_period_matrix_is_unimodular(spec, energy):
    s = period_matrix(spec, energy)
    assert abs(s.det - 1.0) < 1e-10 * max(1.0, np.max(np.abs(s.as_array()))) ** 2


def test_period_matrix_eigenvalues_are_exp_of_theta():
    rng = np.random.default_rng(2)
    for _ in range(10):
        energy = complex(*rng.uniform(-2, 2, size=2))
        s = period_matrix(HARPER, energy)
        theta = cmath.acos(s.trace / 2)
        expected = sorted([cmath.exp(1j * theta), cmath.exp(-1j * theta)], key=abs)
        observed = sorted(np.linalg.eigvals(s.as_array()), key=abs)
        assert max(abs(a - b) for a, b in zip(expected, observed)) < 1e-9


def test_nonunimodular_input_rejected():
    with pytest.raises(NumericsError, match="unimodular"):
        TransferMatrix(s11=2.0, s12=0.0, s21=0.0, s22=2.0, energy=0.0)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


def test_power_zero_and_one():
    s = period_matrix(HARPER, 0.3 + 0.1j)
    assert np.allclose(transfer_power(s, 0), np.eye(2))
    assert np.allclose(transfer_power(s, 1), s.as_array())


def _direct_product(array: np.ndarray, m: int) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for _ in range(m):
        out = array @ out
    return out


def test_power_matches_direct_product():
    rng = np.random.default_rng(7)
    for _ in range(10):
        energy = complex(*rng.uniform(-2, 2, size=2))
        s = period_matrix(HARPER, energy)
        direct = _direct_product(s.as_array(), 7)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(transfer_power(s, 7) - direct)) < 1e-8 * scale


def test_power_at_band_edge():
    # uniform lattice at E = -2: tr S = 2 exactly, so S is a Jordan block
    spec = SuperlatticeSpec((0.0,), (1.0,))
    for energy, m in ((-2.0, 9), (2.0, 8), (2.0 - 1e-12, 11)):
        s = period_matrix(spec, energy)
        direct = _direct_product(s.as_array(), m)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(transfer_power(s, m) - direct)) < 1e-8 * scale


def test_power_semigroup_property():
    s = period_matrix(HARPER, 1.1 - 0.3j)
    combined = transfer_power(s, 9)
    split = transfer_power(s, 5) @ transfer_power(s, 4)
    assert np.max(np.abs(combined - split)) < 1e-8 * max(1.0, np.max(np.abs(combined)))


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        transfer_power(period_matrix(HARPER, 0.0), -1)


# ---------------------------------------------------------------------------
# continuous-spectrum membership
# ---------------------------------------------------------------------------


def _in_continuous_spectrum(spec, energy, tol=1e-9):
    # theta real: tr S real with |tr S| <= 2
    trace = period_matrix(spec, energy).trace
    return abs(trace.imag) <= tol and abs(trace) <= 2.0 + tol


def test_uniform_lattice_band_membership():
    spec = SuperlatticeSpec((0.0,), (1.0,))
    assert _in_continuous_spectrum(spec, 0.0)  # band center: tr S = 0
    assert not _in_continuous_spectrum(spec, 3.0)  # |tr S| = 3 > 2


def test_bloch_eigenvalues_lie_in_continuous_spectrum():
    bands = band_structure(HARPER, 16)
    for row in bands.energies:
        for energy in row:
            assert _in_continuous_spectrum(HARPER, energy, tol=1e-7)


@given(pt_specs(min_q=1, max_q=6))
@settings(max_examples=40)
def test_dispersion_consistency_with_bloch_route(spec):
    bands = band_structure(spec, 6)
    for k, row in zip(bands.k_values, bands.energies):
        for energy in row:
            trace = period_matrix(spec, energy).trace
            assert abs(trace - 2.0 * np.cos(k * spec.q)) < 1e-7


# ---------------------------------------------------------------------------
# symbolic entries
# ---------------------------------------------------------------------------


def _degrees(entries):
    return tuple(len(c) - 1 for c in entries)


def test_symbolic_single_site():
    s11, s12, s21, s22 = symbolic_period_matrix(SuperlatticeSpec((0.0,), (1.0,)))
    assert s11.tolist() == [0.0, -1.0]  # s11(E) = -E, degree q = 1
    assert s12.tolist() == [-1.0]
    assert s21.tolist() == [1.0]
    assert s22.tolist() == [0.0]


def test_symbolic_degrees_for_harper():
    assert _degrees(symbolic_period_matrix(HARPER)) == (6, 5, 5, 4)


@given(pt_specs(min_q=2, max_q=9))
@settings(max_examples=40)
def test_symbolic_degrees_structural(spec):
    q = spec.q
    assert _degrees(symbolic_period_matrix(spec)) == (q, q - 1, q - 1, q - 2)


def test_symbolic_evaluation_agrees_with_numeric_product():
    rng = np.random.default_rng(23)
    entries = symbolic_period_matrix(HARPER)
    for _ in range(20):
        energy = complex(*rng.uniform(-2.5, 2.5, size=2))
        numeric = period_matrix(HARPER, energy).as_array()
        symbolic = np.array([P.polyval(energy, c) for c in entries]).reshape(2, 2)
        assert np.max(np.abs(symbolic - numeric)) < 1e-9


def test_symbolic_unimodularity_identity_coefficientwise():
    s11, s12, s21, s22 = symbolic_period_matrix(HARPER)
    residual = P.polysub(P.polysub(P.polymul(s11, s22), P.polymul(s12, s21)), [1.0])
    assert np.max(np.abs(residual)) < 1e-9


def test_symbolic_overflow_is_named():
    # 1/kappa = 1e200 per site overflows the coefficients; this used to be
    # reported as the degree pattern (0, 0, 0, 0) of an all-trimmed product
    spec = SuperlatticeSpec((0.0, 0.0, 0.1), (1e-200, 1e-200, 1.0))
    with pytest.raises(NumericsError, match="transfer polynomial product overflowed"):
        symbolic_period_matrix(spec)
