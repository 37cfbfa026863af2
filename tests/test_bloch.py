import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiset_distance, pt_specs, random_pt_spec
from ptsl import (
    HarperParams,
    ParametricLattice,
    SuperlatticeSpec,
    ThresholdResult,
    band_gaps,
    band_structure,
    bloch_matrix,
    breaking_threshold,
    build_harper,
    check_pt_symmetry,
    diagnose_pt_phase,
    eig_complex,
    harper_family,
    harper_growth_rate,
    max_growth_rate,
    period_matrix,
)
from ptsl import bloch
from ptsl.bloch import _bloch_stack, _spectra
from ptsl.lattice import _doubled_centre

HERMITIAN = build_harper(HarperParams(0.3, 0.0, 1, 6, 0))
UNBROKEN = build_harper(HarperParams(0.3, 0.134, 1, 6, 0))
BROKEN = build_harper(HarperParams(0.3, 0.30, 1, 6, 0))


def real_matrix(spec, k, doubled):
    """R = Re H + (Im H) P at one k from the package's builder, P about centre doubled/2."""
    h = _bloch_stack(np.array([spec.onsite]), np.array(spec.hopping), np.array([k]))[0]
    return h.real + h.imag[:, (doubled - 2 - np.arange(spec.q)) % spec.q]


def real_route_eigenvalues(spec, k):
    """Eigenvalues of the real matrix R at one k, solved alone."""
    return eig_complex(real_matrix(spec, k, int(2 * check_pt_symmetry(spec).center)))


# ---------------------------------------------------------------------------
# Bloch matrix construction
# ---------------------------------------------------------------------------


def test_single_site_scalar_form():
    spec = SuperlatticeSpec((0.0,), (1.0,))
    assert np.allclose(bloch_matrix(spec, 0.0), [[-2.0]])
    k = 0.4
    assert np.allclose(bloch_matrix(spec, k), [[-2.0 * math.cos(k)]])


def test_two_site_corner_merges_into_offdiagonal():
    # the closing bond 2 -> 1 lands on the same entries as bond 1 -> 2
    spec = SuperlatticeSpec((0.1, -0.2), (1.0, 0.7))
    k = 0.3
    m = bloch_matrix(spec, k)
    assert abs(m[0, 1] - (-1.0 * np.exp(1j * k) - 0.7 * np.exp(-1j * k))) < 1e-14
    assert abs(m[1, 0] - (-1.0 * np.exp(-1j * k) - 0.7 * np.exp(1j * k))) < 1e-14


def test_three_site_zone_center_is_real_symmetric():
    spec = SuperlatticeSpec((0.0, 0.0, 0.0), (1.0, 1.0, 0.5))
    m = bloch_matrix(spec, 0.0)
    assert np.allclose(m, m.T)
    assert abs(m[0, 2] + 0.5) < 1e-14 and abs(m[2, 0] + 0.5) < 1e-14


def test_k_wrapping_changes_nothing():
    # k + 2 pi / q conjugates H by a diagonal unitary: the spectrum repeats
    for spec in (UNBROKEN, BROKEN):
        for k in (-math.pi / 6 + 0.05, 0.4):
            here = eig_complex(bloch_matrix(spec, k))
            there = eig_complex(bloch_matrix(spec, k + 2 * math.pi / 6))
            assert multiset_distance(here, there) <= 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_bloch_matrix_stack_equals_single_matrices(q):
    spec = build_harper(HarperParams(0.3, 0.2, 1, q, 0))
    ks = np.array([-3.0, -math.pi / q, 0.0, 0.37, math.pi / q, 5.0])
    stack = bloch_matrix(spec, ks)
    assert stack.shape == (len(ks), q, q)
    for k, m in zip(ks, stack):
        assert np.array_equal(m, bloch_matrix(spec, k))


def test_bloch_eigenvalues_satisfy_transfer_dispersion():
    # cross route: each eigenvalue E of the zone matrix at k obeys
    # tr S(E) = 2 cos(kq); at k = -pi/6 with q = 6 that is -2
    k = -math.pi / 6
    for energy in eig_complex(bloch_matrix(HERMITIAN, k)):
        assert abs(period_matrix(HERMITIAN, energy).trace - (-2.0)) < 1e-7


def _uniform_gauge(spec, k):
    # bond n -> n+1 carries -kappa_n exp(ik), bond n+1 -> n its conjugate
    q = spec.q
    h = np.diag(np.asarray(spec.onsite, dtype=complex))
    for n in range(q):
        h[n, (n + 1) % q] += -spec.hopping[n] * np.exp(1j * k)
        h[(n + 1) % q, n] += -spec.hopping[n] * np.exp(-1j * k)
    return h


def test_bloch_matrix_matches_uniform_gauge_reference():
    rng = np.random.default_rng(9)
    for q in list(range(1, 10)) * 10:
        onsite = rng.normal(size=q) + 1j * rng.normal(size=q)
        spec = SuperlatticeSpec(tuple(onsite), tuple(rng.uniform(0.5, 1.5, size=q)))
        k = rng.uniform(-math.pi, math.pi)
        assert np.max(np.abs(bloch_matrix(spec, k) - _uniform_gauge(spec, k))) <= 1e-15


# site 0 of the q = 9 lattices passes seven candidate centres; later sites
# reject all of them, or all but d = 5
_LATE_CENTRE = SuperlatticeSpec((0, 0, 0, 0, 0, 1 + 0.5j, 0, 1 - 0.5j, 0), (1.0,) * 9)
_NO_CENTRE = SuperlatticeSpec((0, 0, 0, 0, 0, 1 + 0.5j, 0, 1 - 0.4j, 0), (1.0,) * 9)
_SMALL = [
    SuperlatticeSpec((0.3 + 0.2j,), (1.0,)),
    SuperlatticeSpec((0.2 + 0.1j, 0.2 - 0.1j), (1.0, 0.5)),
    SuperlatticeSpec((0.2 + 0.1j, 0.3 - 0.1j), (1.0, 0.5)),
    SuperlatticeSpec((0.2, 0.3), (1.0, 0.5)),
]


def test_real_matrix_is_unitarily_similar_and_matches_complex_route():
    rng = np.random.default_rng(5)
    kinds = set()
    random_specs = (random_pt_spec(rng, q) for q in [1, 2] * 20 + list(range(3, 10)) * 20)
    for spec in itertools.chain(random_specs, [_LATE_CENTRE, _NO_CENTRE, *_SMALL]):
        q = spec.q
        k = rng.uniform(-math.pi, math.pi)
        h = _uniform_gauge(spec, k)
        reference = eig_complex(bloch_matrix(spec, k))
        gaps = np.abs(reference[:, None] - reference[None, :]) + np.diag(np.full(q, np.inf))
        # near an exceptional point the eigenvalues are ill-conditioned
        well_separated = gaps.min() >= 1e-3
        centres = []
        for doubled in range(2 * q):
            reflect = np.zeros((q, q))
            reflect[(doubled - 2 - np.arange(q)) % q, np.arange(q)] = 1.0
            if np.max(np.abs(reflect @ h.conj() @ reflect - h)) > 1e-14:
                continue
            centres.append(doubled)
            kinds.add((q, doubled % 2))
            unitary = ((1 + 1j) * np.eye(q) + (1 - 1j) * reflect) / 2
            r = real_matrix(spec, k, doubled)
            assert r.dtype == float
            assert np.max(np.abs(unitary.conj().T @ h @ unitary - r)) <= 1e-14
            if well_separated:
                scale = max(1.0, float(np.max(np.abs(reference))))
                assert multiset_distance(eig_complex(r), reference) <= 1e-9 * scale
        report = check_pt_symmetry(spec)
        assert report.symmetric == bool(centres)
        assert report.center == (min(centres) / 2 if centres else None)
    # site (even) and bond (odd) centres at q = 1, 2 and beyond
    assert {(1, 0), (1, 1), (2, 0), (2, 1), (5, 0), (5, 1)} <= kinds


def test_lattice_without_centre_takes_complex_route():
    spec = SuperlatticeSpec((0.1, 0.2 + 1e-3j, 0.5), (1.0, 1.0, 1.0))
    assert not check_pt_symmetry(spec).symmetric
    ks = np.array([0.0, -math.pi / 3, 0.4])
    values, exact = _spectra(spec, ks)
    assert not exact
    assert values.tobytes() == eig_complex(bloch_matrix(spec, ks)).tobytes()
    diagnosis = diagnose_pt_phase(spec, tol=1.0)
    assert diagnosis.unbroken and diagnosis.max_abs_imag > 0


def _scaled(spec: SuperlatticeSpec, scale: float) -> SuperlatticeSpec:
    return SuperlatticeSpec(tuple(scale * v for v in spec.onsite), tuple(scale * k for k in spec.hopping))


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12])
def test_lattice_without_centre_is_judged_relative_to_its_scale(scale):
    # |Im E| was compared with an absolute 1e-9: scaled by 1e-9 this broken
    # lattice read unbroken, with growth rate 0 and no threshold up to 1
    spec = SuperlatticeSpec((0.1 + 0.05j, -0.2 + 0.01j, 0.3 - 0.02j), (1.0, 0.7, 1.3))
    assert not check_pt_symmetry(spec).symmetric
    scaled = _scaled(spec, scale)
    diagnosis = diagnose_pt_phase(scaled)
    assert not diagnosis.unbroken
    assert diagnosis.max_abs_imag / scale == pytest.approx(diagnose_pt_phase(spec).max_abs_imag, rel=1e-9)
    assert max_growth_rate(scaled, 64) / scale == pytest.approx(max_growth_rate(spec, 64), rel=1e-9)
    family = ParametricLattice(
        [v.real for v in scaled.onsite], [v.imag for v in scaled.onsite], scaled.hopping
    )
    result = breaking_threshold(family, lambda_max=1.0)
    assert not result.never_broken and result.lambda_c < 1e-4


def test_hermitian_lattice_without_centre_is_exact():
    spec = SuperlatticeSpec((0.1, 0.2, 0.5, -0.3), (1.0, 0.7, 1.0, 1.3))
    assert not check_pt_symmetry(spec).symmetric
    assert diagnose_pt_phase(spec, guard_points=64).max_abs_imag == 0.0
    assert band_structure(spec, 64).max_abs_imag == 0.0


# ---------------------------------------------------------------------------
# band structure and gaps
# ---------------------------------------------------------------------------


def test_band_structure_shape_and_sorting():
    bands = band_structure(UNBROKEN, 32)
    assert bands.energies.shape == (32, 6)
    assert bands.k_values[0] == -math.pi / 6
    for row in bands.energies:
        assert all(row[i].real <= row[i + 1].real + 1e-12 for i in range(5))


@pytest.mark.parametrize("num_k", [2, 7, 8])
@pytest.mark.parametrize("q", range(1, 10))
def test_band_rows_mirror_and_match_single_solves(q, num_k):
    # rows j and N - j sit at k and -k; only rows 0..N//2 are solved
    spec = build_harper(HarperParams(0.3, 0.2, 1, q, 0))
    bands = band_structure(spec, num_k)
    for j in range(1, num_k):
        assert abs(bands.k_values[j] + bands.k_values[num_k - j]) < 1e-14
        assert bands.energies[j].tobytes() == bands.energies[num_k - j].tobytes()
    scale = np.max(np.abs(bands.energies))
    for k, row in zip(bands.k_values, bands.energies):
        single = eig_complex(bloch_matrix(spec, k))
        assert multiset_distance(row, single) <= 1e-12 * scale
        assert all(
            (row[i].real, row[i].imag) <= (row[i + 1].real, row[i + 1].imag) for i in range(q - 1)
        )


def test_band_structure_needs_two_points():
    with pytest.raises(ValueError):
        band_structure(UNBROKEN, 1)


def test_hermitian_harper_bands_real_with_five_gaps():
    bands = band_structure(HERMITIAN, 128)
    assert bands.max_abs_imag < 1e-12
    gaps = band_gaps(bands)
    assert len(gaps) == 5


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-9])
def test_gaps_are_judged_relative_to_the_bands(scale):
    # gaps had to be wider than an absolute 1e-9: scaled by 1e-8 only 2 of
    # the 5 were left, and by 1e-9 none
    gaps = band_gaps(band_structure(_scaled(HERMITIAN, scale), 128))
    expected = band_gaps(band_structure(HERMITIAN, 128))
    assert np.allclose(np.asarray(gaps) / scale, expected, rtol=1e-12, atol=1e-12)


def test_unbroken_lattice_has_real_bands():
    bands = band_structure(UNBROKEN, 64)
    assert bands.max_abs_imag < 1e-9


@given(pt_specs(min_q=1, max_q=7), st.floats(-3.0, 3.0))
@settings(max_examples=40)
def test_spectrum_even_in_k(spec, k):
    plus = eig_complex(bloch_matrix(spec, k))
    minus = eig_complex(bloch_matrix(spec, -k))
    assert multiset_distance(plus, minus) < 1e-9


@given(pt_specs(min_q=1, max_q=7), st.floats(-3.0, 3.0))
@settings(max_examples=40)
def test_pt_spectrum_closed_under_conjugation(spec, k):
    values = eig_complex(bloch_matrix(spec, k))
    assert multiset_distance(values, np.conj(values)) < 1e-9


@given(pt_specs(min_q=1, max_q=7), st.floats(-3.0, 3.0))
@settings(max_examples=40)
def test_trace_is_sum_of_onsite_energies(spec, k):
    trace = np.trace(bloch_matrix(spec, k))
    expected = sum(spec.onsite)
    if spec.q == 1:
        expected += -2.0 * spec.hopping[0] * math.cos(k)  # the closing bond lands on the diagonal
    assert abs(trace - expected) < 1e-12


# ---------------------------------------------------------------------------
# phase diagnosis and threshold
# ---------------------------------------------------------------------------


def test_hermitian_is_unbroken():
    diagnosis = diagnose_pt_phase(HERMITIAN)
    assert diagnosis.unbroken
    assert diagnosis.max_abs_imag <= diagnosis.tol


def test_unbroken_below_threshold_with_guard():
    diagnosis = diagnose_pt_phase(UNBROKEN, guard_points=128)
    assert diagnosis.unbroken
    assert diagnosis.max_abs_imag < 1e-9


def test_broken_above_threshold():
    diagnosis = diagnose_pt_phase(BROKEN)
    assert not diagnosis.unbroken
    assert diagnosis.max_abs_imag > 1e-3
    assert not (diagnosis.max_abs_imag <= diagnosis.tol)


def test_guard_grid_diagnosis_matches_per_k_scan():
    ks = [0.0, -math.pi / 6, *np.linspace(-math.pi / 6, math.pi / 6, 33, endpoint=False)]
    for lam, unbroken in ((0.2, True), (0.3, False)):
        spec = build_harper(HarperParams(0.3, lam, 1, 6, 0))
        diagnosis = diagnose_pt_phase(spec, guard_points=33)
        imag = [float(np.max(np.abs(real_route_eigenvalues(spec, k).imag))) for k in ks]
        assert diagnosis.max_abs_imag == max(imag)
        assert diagnosis.witness_k == ks[imag.index(max(imag))]
        assert diagnosis.unbroken == unbroken == (max(imag) == 0.0)


def _threshold_by_single_diagnoses(family, lambda_max, tol_lambda):
    lams = np.linspace(0.0, lambda_max, 64)
    states = [diagnose_pt_phase(family.at(lam)).unbroken for lam in lams]
    flips = [i for i in range(63) if states[i] and not states[i + 1]]
    if not flips:
        return ThresholdResult(lambda_max, (lambda_max, lambda_max), True, 0)
    lo, hi = float(lams[flips[0]]), float(lams[flips[0] + 1])
    while hi - lo > tol_lambda:
        mid = 0.5 * (lo + hi)
        if diagnose_pt_phase(family.at(mid)).unbroken:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), False, len(flips))


def _random_family(seed, q):
    spec = random_pt_spec(np.random.default_rng(seed), q)
    return ParametricLattice([v.real for v in spec.onsite], [v.imag for v in spec.onsite], spec.hopping)


# (id, family, lambda_max): the first seven at n0 = 0, then every q <= 24 at
# p = 1 with n0 = q mod 3 and both lambda_max; q = 32, 33 and 40 have several
# transitions, and the random families have centres of both kinds
_THRESHOLD_CASES = [
    *((f"{p}-{q}", lambda p=p, q=q: harper_family(0.3, p, q), 0.5)
      for p, q in [(1, 3), (1, 4), (1, 6), (2, 7), (1, 9), (3, 16), (1, 19)]),
    *((f"p{p}-q{q}-n0{n0}-lam{lam}", lambda p=p, q=q, n0=n0: harper_family(0.3, p, q, n0), lam)
      for p, q, n0, lam in [
          *((1, q, q % 3, (0.5, 1.0)[q // 2 % 2]) for q in range(1, 25)),
          (3, 16, 5, 1.0), (2, 19, 1, 1.0), (1, 32, 0, 0.5), (1, 33, 2, 1.0), (1, 40, 5, 0.5),
      ]),
    *((f"random-seed{seed}-q{q}-lam{lam}", lambda seed=seed, q=q: _random_family(seed, q), lam)
      for seed, q, lam in [(1, 5, 1.0), (2, 8, 0.5), (4, 9, 1.0)]),
]


@pytest.mark.parametrize(
    "make_family, lambda_max", [case[1:] for case in _THRESHOLD_CASES], ids=[case[0] for case in _THRESHOLD_CASES]
)
def test_threshold_coarse_stack_matches_single_diagnoses(monkeypatch, make_family, lambda_max):
    # bitwise the verdicts of one diagnose_pt_phase per strength, with each
    # strength solved on its family's centre and at each decisive k at most
    # once, the second only where the first left it real
    family = make_family()
    expected = _threshold_by_single_diagnoses(family, lambda_max, 1e-4)
    q, hopping = family.q, np.array(family.hopping)
    order = [-math.pi / q, 0.0] if q % 2 else [0.0, -math.pi / q]
    solved = {}
    solve = bloch._solve

    def recording_solve(onsite, hopping_, ks, doubled_centre):
        values = solve(onsite, hopping_, ks, doubled_centre)
        assert all(_doubled_centre(row, hopping) == doubled_centre for row in onsite)
        assert onsite.imag.any(axis=-1).all()  # no Hermitian row, lambda = 0 included
        assert np.all(ks == ks[0])  # one decisive k per call
        limit = bloch._reality_limit(doubled_centre >= 0, onsite, hopping)
        for row, imag, real_limit in zip(onsite, np.abs(values.imag).max(axis=-1), limit):
            solved.setdefault(row.tobytes(), []).append((float(ks[0]), bool(imag <= real_limit)))
        return values

    monkeypatch.setattr(bloch, "_solve", recording_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = breaking_threshold(family, lambda_max=lambda_max)
    assert result == expected
    assert solved
    for verdicts in solved.values():
        assert [k for k, _ in verdicts] == order[: len(verdicts)]
        assert all(real for _, real in verdicts[:-1])


def _workload_families():
    """The 54 families a benchmark batch of sweep_q, sweep_p and threshold_q searches."""
    by_q = [harper_family(0.3, 1, q) for q in range(3, 21)]
    return by_q + by_q + [harper_family(0.3, p, 19) for p in range(1, 19)]


def test_threshold_solves_at_most_4438_matrices_on_the_workload(monkeypatch):
    # 7668 when every scan row and bisection step was solved at both k
    counted = []
    for name in ("eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, solver=solver: counted.append(math.prod(a.shape[:-2])) or solver(a)
        )
    for family in _workload_families():
        breaking_threshold(family, lambda_max=0.5)
    assert sum(counted) <= 4438


def test_threshold_memory_stays_small_at_large_period():
    # 17.3 MB when the centre scan compared (64, 2q, q) candidate arrays
    family = harper_family(0.3, 1, 64)
    breaking_threshold(harper_family(0.3, 1, 3), lambda_max=0.5)  # one-time numpy set-up stays unmeasured
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            breaking_threshold(family, lambda_max=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_every_lapack_call_stays_within_the_chunk_bound(monkeypatch):
    calls = []
    for name in ("eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, solver=solver: calls.append((a.shape[-1], math.prod(a.shape[:-2]))) or solver(a)
        )
    band_structure(build_harper(HarperParams(0.3, 0.134, 1, 60, 0)), 512)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        breaking_threshold(harper_family(0.3, 1, 64), lambda_max=0.5)
    assert {q for q, _ in calls} == {60, 64}
    bounds = [max(1, bloch._CHUNK_BYTES // (16 * q * q)) for q, _ in calls]
    assert all(1 <= count <= bound for (_, count), bound in zip(calls, bounds))
    assert any(count == bound > 1 for (_, count), bound in zip(calls, bounds))


def test_bloch_matrix_size_is_refused_before_any_is_built(monkeypatch):
    # ptsl bands at q = 100000 asked numpy for 149 GiB and exited 1;
    # threshold --q 400 (2.56 MB per matrix) stays admitted
    assert 16 * 400**2 <= bloch._MATRIX_BYTES_LIMIT
    spec = build_harper(HarperParams(0.3, 0.1, 1, 30, 0))
    monkeypatch.setattr(bloch, "_MATRIX_BYTES_LIMIT", 16 * 30**2)
    band_structure(spec, 8)
    monkeypatch.setattr(bloch, "_MATRIX_BYTES_LIMIT", 16 * 30**2 - 1)
    built = []
    monkeypatch.setattr(bloch, "_bloch_stack", lambda *args: built.append(args))
    calls = [
        lambda: band_structure(spec, 8),
        lambda: diagnose_pt_phase(spec),
        lambda: max_growth_rate(spec),
        lambda: breaking_threshold(harper_family(0.3, 1, 30), lambda_max=0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"a 30 x 30 Bloch matrix needs 0\.0144 MB, above the 0\.014399 MB limit"):
            call()
    assert not built


@pytest.mark.parametrize("q", [16, 20, 24])
def test_threshold_vanishes_for_multiples_of_four(q):
    # the gap on the side the gain/loss pushes toward is closed: lambda_c = 0
    result = breaking_threshold(harper_family(0.3, 1, q), lambda_max=0.5)
    assert result.lambda_c <= 1e-3


def test_threshold_q19_p2_is_small():
    family = harper_family(0.3, 2, 19)
    result = breaking_threshold(family, lambda_max=0.5)
    assert abs(result.lambda_c - 0.00282) <= 1e-4
    for lam, real in ((result.bracket[0], True), (result.lambda_c + 1e-4, False)):
        values = eig_complex(bloch_matrix(family.at(lam), np.array([0.0, -math.pi / 19])))
        assert (np.max(np.abs(values.imag)) <= 1e-12 * np.max(np.abs(values))) == real


# 60-digit values of lambda_c for delta = 0.3, p = 1, computed once with mpmath
_ORACLE_THRESHOLDS = {19: 0.0513672, 21: 0.0465382, 23: 0.0425348, 25: 0.0391628, 27: 0.0362842}


@pytest.mark.parametrize("q", sorted(_ORACLE_THRESHOLDS))
def test_threshold_matches_high_precision_oracle(q):
    result = breaking_threshold(harper_family(0.3, 1, q), lambda_max=0.5, tol_lambda=1e-6)
    assert abs(result.lambda_c - _ORACLE_THRESHOLDS[q]) <= 1e-5


def test_threshold_against_bisection_bracket():
    result = breaking_threshold(harper_family(0.3, 1, 6), lambda_max=0.5, tol_lambda=1e-4)
    assert not result.never_broken
    assert result.bracket[1] - result.bracket[0] <= 1e-4
    assert abs(result.lambda_c - 0.2552) < 2e-3
    family = harper_family(0.3, 1, 6)
    assert diagnose_pt_phase(family.at(result.lambda_c - 1e-4)).unbroken
    assert not diagnose_pt_phase(family.at(result.lambda_c + 1e-4)).unbroken


def test_threshold_at_large_delta_approaches_its_limit():
    # lambda_c -> 2 / sqrt(3) for q = 3 as delta -> infinity; an absolute centre
    # test sent delta = 1e6 to the complex route and gave 1.0923
    result = breaking_threshold(harper_family(1e6, 1, 3), lambda_max=2.0)
    assert abs(result.lambda_c - 2.0 / math.sqrt(3.0)) <= 1e-4


def test_hermitian_family_never_breaks():
    family = harper_family(0.5, 1, 3)
    hermitian = type(family)(family.onsite_real, (0.0, 0.0, 0.0), family.hopping)
    result = breaking_threshold(hermitian, lambda_max=2.0)
    assert result.never_broken
    assert result.lambda_c >= 2.0


def test_threshold_validates_lambda_max():
    with pytest.raises(ValueError):
        breaking_threshold(harper_family(0.3, 1, 6), lambda_max=0.0)
    with pytest.raises(ValueError, match="lambda_max must be positive and finite"):
        breaking_threshold(harper_family(0.3, 1, 6), lambda_max=math.inf)


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_threshold_validates_tolerance(tol):
    # a tolerance below float resolution of the bracket used to bisect forever
    with pytest.raises(ValueError, match="tol_lambda must be positive and finite"):
        breaking_threshold(harper_family(0.3, 1, 6), lambda_max=0.5, tol_lambda=tol)
    if tol <= 0:
        with pytest.raises(ValueError, match="tolerance must be positive"):
            diagnose_pt_phase(harper_family(0.3, 1, 6).at(0.1), tol=tol)


@pytest.mark.parametrize(
    "spec, tol",
    [
        # broken (max |Im E| = 0.1) and uncentred: tol = inf used to call it unbroken
        (SuperlatticeSpec((0.5 + 0.1j, 0.5 + 0.1j), (1.0, 1.0)), math.inf),
        # unbroken at the default (max |Im E| = 7.2e-13): tol = nan used to call it broken
        (SuperlatticeSpec((0.5 + 1e-12j, 0.2), (1.0, 0.7)), math.nan),
    ],
)
def test_phase_rejects_non_finite_tolerance(spec, tol):
    assert diagnose_pt_phase(spec).unbroken == math.isnan(tol)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        diagnose_pt_phase(spec, tol=tol)


# ---------------------------------------------------------------------------
# growth rate
# ---------------------------------------------------------------------------


def test_growth_rate_zero_when_unbroken():
    assert max_growth_rate(UNBROKEN, num_k=64) == 0.0


@pytest.mark.parametrize("num_k", [2, 9, 64])
@pytest.mark.parametrize("q", [1, 2, 5, 6, 19])
def test_growth_rate_equals_full_grid_maximum(q, num_k):
    spec = build_harper(HarperParams(0.3, 0.3, 1, q, 0))
    ks = np.linspace(-math.pi / q, math.pi / q, num_k, endpoint=False)
    full = max(float(np.max(real_route_eigenvalues(spec, k).imag)) for k in ks)
    assert abs(max_growth_rate(spec, num_k=num_k) - full) <= 1e-12 * abs(full)


@pytest.mark.parametrize("num_k", [2, 9, 64])
@pytest.mark.parametrize("q", [1, 2, 5, 6, 19])
def test_growth_rate_matches_complex_route(q, num_k):
    # the benchmark's bound on sigma against its own complex eigenvalues
    spec = build_harper(HarperParams(0.3, 0.3, 1, q, 0))
    ks = np.linspace(-math.pi / q, math.pi / q, num_k, endpoint=False)
    own = max(float(np.max(eig_complex(bloch_matrix(spec, k)).imag)) for k in ks)
    own = 0.0 if own <= 1e-9 else own
    assert abs(max_growth_rate(spec, num_k=num_k) - own) <= 1e-10 + 1e-8 * own


def test_growth_rate_positive_when_broken():
    sigma = max_growth_rate(BROKEN, num_k=128)
    assert sigma > 1e-3


# 50-digit values of the closed form at delta = 0.3 on the 512-point grid
# (mpmath); at q = 24, 30 and 41 they match 50-digit eigenvalues of the
# Bloch matrix at the band edge
HARPER_SIGMA_512 = {
    12: 1.21499997384314e-4,
    20: 5.90489999999151e-7,
    24: 4.42867499999995e-8,
    30: 9.51353479073539e-10,
    41: 9.30921477633793e-13,
    60: 6.8630377364883e-18,
    61: 3.69619115136012e-18,
}


@pytest.mark.parametrize("q", sorted(HARPER_SIGMA_512))
def test_harper_growth_rate_matches_high_precision_values(q):
    # the eigen route reads 4.9e-8 at q = 24, 2.3e-8 at q = 30 and 4.1e-6 at q = 60
    assert harper_growth_rate(0.3, q, 512) == pytest.approx(HARPER_SIGMA_512[q], rel=1e-9)


@pytest.mark.parametrize("num_k", [2, 3, 9, 64, 511, 512])
def test_harper_growth_rate_equals_eigen_route(num_k):
    # an odd grid puts the band edge of an even q between two points
    for q in range(1, 21):
        sigma = harper_growth_rate(0.3, q, num_k)
        own = max_growth_rate(harper_family(0.3, 1, q).at(0.3), num_k)
        assert abs(sigma - own) <= 1e-10 + 1e-8 * sigma, (q, sigma, own)


@pytest.mark.parametrize("delta", [0.0, 0.3, 5.0])
def test_harper_growth_rate_vanishes_up_to_two_sites(delta):
    assert harper_growth_rate(delta, 1) == 0.0
    assert harper_growth_rate(delta, 2, 9) == 0.0


@pytest.mark.parametrize("q", [1200, 2000])
def test_harper_growth_rate_at_large_period(q):
    # 3^(q/2) overflows at q = 2000; both tend to 2 sinh(log 3)
    assert harper_growth_rate(3.0, q, 64) == pytest.approx(3.0 - 1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize(
    ("delta", "q", "num_k"),
    [(-1.0, 5, 64), (-math.inf, 5, 64), (math.nan, 5, 64), (math.inf, 5, 64), (0.3, 0, 64), (0.3, 5, 1)],
)
def test_harper_growth_rate_rejects_what_the_eigen_route_rejects(delta, q, num_k):
    with pytest.raises(ValueError) as expected:
        max_growth_rate(harper_family(delta, 1, q).at(delta), num_k)
    with pytest.raises(ValueError) as got:
        harper_growth_rate(delta, q, num_k)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
