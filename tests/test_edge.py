import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import multiset_distance, pt_specs, random_pt_spec
from ptsl import (
    Classification,
    EdgeStateRecord,
    HarperParams,
    RouteMismatchError,
    SuperlatticeSpec,
    build_harper,
    edge_candidate_matrix,
    edge_spectrum,
    eig_complex,
    localization_length,
    psi_witness,
    spectrum_reality,
)
from ptsl import edge as edge_module
from ptsl.edge import _match_multisets, _perfect_matching


def harper(n0: int, lam: float = 0.134) -> "SuperlatticeSpec":
    return build_harper(HarperParams(0.3, lam, 1, 6, n0))


# ---------------------------------------------------------------------------
# candidate matrix
# ---------------------------------------------------------------------------


def test_candidate_matrix_two_site_period():
    spec = SuperlatticeSpec((0.3 + 0.1j, -0.3 - 0.1j), (1.0, 1.0))
    m = edge_candidate_matrix(spec)
    assert m.shape == (1, 1)
    assert m[0, 0] == 0.3 + 0.1j


def test_candidate_matrix_three_site_uniform():
    spec = SuperlatticeSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    m = edge_candidate_matrix(spec)
    assert np.allclose(m, [[0.0, -1.0], [-1.0, 0.0]])
    assert multiset_distance(eig_complex(m), [1.0, -1.0]) < 1e-14


def test_candidate_matrix_contains_printed_edge_energy():
    values = eig_complex(edge_candidate_matrix(harper(1)))
    assert min(abs(v - (1.7058 + 0.0712j)) for v in values) < 5e-4


def test_real_candidate_matrix_takes_real_solver():
    # real V_1..V_{q-1}: the complex-typed matrix still reaches the real solver
    spec = SuperlatticeSpec((0.1, -0.2, 0.3, 0.5j), (1.0, 0.7, 1.0, 1.3))
    m = edge_candidate_matrix(spec)
    assert m.dtype == complex
    assert eig_complex(m).tobytes() == np.linalg.eigvals(m.real).astype(complex).tobytes()


def _tridiagonal(spec):
    # the open chain on sites 1..q-1, entry by entry
    q = spec.q
    m = np.diag(np.asarray(spec.onsite[: q - 1], dtype=complex))
    for n in range(q - 2):
        m[n, n + 1] = m[n + 1, n] = -spec.hopping[n]
    return m


def test_candidate_matrix_eigenvalues_match_explicit_tridiagonal_bytewise():
    # lambda = 0 rows are real and take the real solver
    rng = np.random.default_rng(5)
    specs = [random_pt_spec(rng, int(rng.integers(2, 21))) for _ in range(100)]
    specs += [
        build_harper(HarperParams(0.3, lam, 1, q, n0))
        for q in range(2, 21)
        for n0 in range(q)
        for lam in (0.0, 0.134, 1.0)
    ]
    for spec in specs:
        m, expected = edge_candidate_matrix(spec), _tridiagonal(spec)
        assert m.shape == expected.shape and np.array_equal(m, expected)
        assert eig_complex(m).tobytes() == eig_complex(expected).tobytes()


def test_candidate_matrix_needs_two_sites():
    with pytest.raises(ValueError):
        edge_candidate_matrix(SuperlatticeSpec((0.0,), (1.0,)))


# ---------------------------------------------------------------------------
# census and classification
# ---------------------------------------------------------------------------


def test_single_site_period_has_no_candidates():
    assert edge_spectrum(SuperlatticeSpec((0.0,), (1.0,))) == []


def test_census_anchor_zero_all_extended():
    records = edge_spectrum(harper(0))
    assert len(records) == 5
    assert all(r.classification is Classification.EXTENDED for r in records)
    expected = [-1.8850, -1.0147, -0.0036, 1.0233, 1.5799]
    assert multiset_distance([r.energy for r in records], expected) < 5e-4
    assert all(abs(r.s11_abs - 1.0) < 1e-9 for r in records)
    assert all(r.localization_length is None for r in records)


def test_census_anchor_one_single_amplified_edge_state():
    records = edge_spectrum(harper(1))
    edges = [r for r in records if r.classification is Classification.EDGE]
    assert len(edges) == 1
    assert abs(edges[0].energy - (1.7058 + 0.0712j)) < 5e-4
    assert abs(edges[0].s11_abs - 0.4322) < 5e-4
    assert edges[0].localization_length is not None
    others = [r for r in records if r is not edges[0]]
    assert all(r.classification is Classification.NOT_IN_SPECTRUM for r in others)


def test_records_sorted_by_real_part():
    records = edge_spectrum(harper(2))
    reals = [r.energy.real for r in records]
    assert reals == sorted(reals)


@given(pt_specs(min_q=2, max_q=10))
@example(SuperlatticeSpec((2.5e-223, 0.0, 2.5e-223, 0.0), (-1.0, -1.0, -1.0, -1.0)))
@settings(max_examples=50)
def test_candidate_count_and_route_equivalence(spec):
    # edge_spectrum cross-checks eig(candidate matrix) against the roots of
    # the transfer polynomial s21 internally; a mismatch would raise
    records = edge_spectrum(spec, route_check=True, route_tol=1e-6)
    assert len(records) == spec.q - 1


def test_route_mismatch_diagnostic_carries_both_multisets():
    a = np.array([1.0 + 0j, 2.0])
    b = np.array([1.0 + 0j, 2.5])
    with pytest.raises(RouteMismatchError) as info:
        _match_multisets(a, b, tol=1e-6)
    assert np.allclose(info.value.matrix_route, a)
    assert np.allclose(info.value.polynomial_route, b)
    assert "disagree" in str(info.value)


def test_pairing_follows_an_augmenting_path():
    # a0 is within tol of b0 and b1, a1 of b0 only: a0 must give b0 up
    a = np.array([0.5, -0.75], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert _perfect_matching(np.abs(a[:, None] - b[None, :]) <= 1.0) == [1, 0]
    assert _match_multisets(a, b, tol=1.0) == 0.75
    assert multiset_distance(a, b) == 0.75


def test_pairing_accepts_what_a_min_sum_assignment_rejects():
    # every pair of (a0 b1, a1 b2, a2 b0) is within tol = 1, but the
    # assignment of least total distance pairs a0 with b0 at 1.044
    a = np.array([0.0, 0.95, 0.95 + 0.95j])
    b = np.array([0.3 + 1.0j, 0.95, 0.95 + 0.95j])
    assert multiset_distance(a, b) > 1.0
    assert _match_multisets(a, b, tol=1.0) == 0.95


def test_pairing_respects_multiplicity():
    # every point has a partner within tol, but 0 occurs twice in a and once in b
    a = np.array([0.0, 0.0, 1.0], dtype=complex)
    b = np.array([0.0, 1.0, 1.0], dtype=complex)
    with pytest.raises(RouteMismatchError, match=r"worst pairing distance 1\.000e\+00"):
        _match_multisets(a, b, tol=1e-6)


def test_pairing_size_mismatch_and_empty():
    with pytest.raises(RouteMismatchError, match="worst pairing distance inf"):
        _match_multisets(np.zeros(1, dtype=complex), np.zeros(2, dtype=complex), tol=1e-6)
    assert _match_multisets(np.zeros(0, dtype=complex), np.zeros(0, dtype=complex), tol=1e-6) == 0.0


def test_pairing_of_separated_sets_matches_optimal_assignment():
    rng = np.random.default_rng(11)
    for n in range(1, 40):
        grid = rng.choice(400, size=n, replace=False)
        a = 0.1 * (grid % 20) + 0.1j * (grid // 20)
        noise = 1e-9 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        b = a[rng.permutation(n)] + noise
        assert _match_multisets(a, b, tol=1e-6) == multiset_distance(a, b)


# ---------------------------------------------------------------------------
# localization length
# ---------------------------------------------------------------------------


def test_localization_length_of_printed_edge_state():
    expected = -6.0 / math.log(0.4322**2)
    records = edge_spectrum(harper(1))
    edge = next(r for r in records if r.classification is Classification.EDGE)
    assert abs(localization_length(edge) - expected) < 1e-2
    assert abs(edge.localization_length - localization_length(edge)) < 1e-12


def _edges_with_s11(monkeypatch, s11_abs):
    """edge_spectrum of anchor 1 with every candidate's |s11| forced to ``s11_abs``."""
    monkeypatch.setattr(edge_module, "period_matrix", lambda spec, energy: SimpleNamespace(s11=s11_abs))
    records = edge_spectrum(harper(1))
    assert records and all(r.classification is Classification.EDGE for r in records)
    return records


def test_localization_length_forced_by_formula(monkeypatch):
    # -q / ln|s11|^2 with q = 6 and |s11|^2 = e^-1
    for record in _edges_with_s11(monkeypatch, math.exp(-0.5)):
        assert abs(record.localization_length - 6.0) < 1e-14
        assert localization_length(record) == record.localization_length


def test_localization_length_rejects_non_edge():
    record = EdgeStateRecord(
        energy=0.0,
        s11_abs=1.0,
        classification=Classification.EXTENDED,
        localization_length=None,
    )
    with pytest.raises(ValueError, match="edge"):
        localization_length(record)


def test_delocalization_limit_grows_without_bound(monkeypatch):
    # |s11| -> 1 from below, up to the edge of the classification band
    lengths = [localization_length(_edges_with_s11(monkeypatch, s)[0]) for s in (0.9, 0.99, 0.99999)]
    assert lengths[0] < lengths[1] < lengths[2]
    assert lengths[2] > 1e5


# ---------------------------------------------------------------------------
# boundary-condition witness
# ---------------------------------------------------------------------------


def test_witness_extended_candidates_stay_on_unit_circle():
    spec = harper(0)
    for record in edge_spectrum(spec):
        trajectory = psi_witness(spec, record.energy, periods=10)
        for m in range(1, 11):
            psi_mq, psi_mq1 = trajectory[m]
            assert abs(psi_mq) < 1e-7
            assert abs(abs(psi_mq1) - 1.0) < 1e-7


def test_witness_edge_candidate_decays_geometrically():
    spec = harper(1)
    edge = next(
        r for r in edge_spectrum(spec) if r.classification is Classification.EDGE
    )
    length = edge.localization_length
    trajectory = psi_witness(spec, edge.energy, periods=10)
    for m in range(1, 11):
        psi_mq, psi_mq1 = trajectory[m]
        assert abs(psi_mq) < 1e-7
        assert abs(abs(psi_mq1) - edge.s11_abs**m) < 1e-7
        assert abs(abs(psi_mq1) ** 2 - math.exp(-m * 6 / length)) < 1e-7


# ---------------------------------------------------------------------------
# reality of the truncated spectrum
# ---------------------------------------------------------------------------


def test_reality_verdicts_match_census():
    assert spectrum_reality(harper(0)).real
    assert spectrum_reality(harper(3)).real
    report = spectrum_reality(harper(2))
    assert not report.real
    assert len(report.offending) == 4


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12])
@pytest.mark.parametrize("n0", [1, 2, 4, 5])
def test_reality_tolerance_scales_with_the_lattice(n0, scale):
    # an absolute 1e-9 used to call the scaled complex edge states real
    base = harper(n0)
    spec = SuperlatticeSpec(
        onsite=tuple(scale * v for v in base.onsite), hopping=tuple(scale * k for k in base.hopping)
    )
    # the route check itself fails on scaled lattices, so the census skips it
    report = spectrum_reality(spec, records=edge_spectrum(spec, route_check=False))
    assert not report.real
    assert report.offending


def test_hermitian_truncation_is_real():
    assert spectrum_reality(harper(0, lam=0.0)).real


def test_anchor_pairings_on_the_harper_family():
    # shifting the anchor by half a period negates the candidate set, and
    # negating the anchor conjugates it; both visible in the census pairs
    for n0 in range(3):
        base = [r.energy for r in edge_spectrum(harper(n0))]
        shifted = [r.energy for r in edge_spectrum(harper(n0 + 3))]
        assert multiset_distance([-e for e in base], shifted) < 1e-4
    for n0 in range(1, 6):
        base = [r.energy for r in edge_spectrum(harper(n0))]
        mirrored = [r.energy for r in edge_spectrum(harper((-n0) % 6))]
        assert multiset_distance([e.conjugate() for e in base], mirrored) < 1e-4
