import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import harper_parameter_tuples, pt_specs
from ptsl import (
    HarperParams,
    LatticeError,
    ParametricLattice,
    SuperlatticeSpec,
    build_harper,
    family_from_json,
    harper_family,
)
from ptsl.lattice import _doubled_centre


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(LatticeError, match="as many hoppings"):
        SuperlatticeSpec((0.0, 0.0), (1.0,))
    with pytest.raises(LatticeError, match="non-vanishing"):
        SuperlatticeSpec((0.0,), (0.0,))
    with pytest.raises(LatticeError, match="real"):
        SuperlatticeSpec((0.0,), (1.0 + 0.5j,))
    with pytest.raises(LatticeError, match="finite"):
        SuperlatticeSpec((complex("inf"),), (1.0,))
    with pytest.raises(LatticeError, match="period must be at least 1"):
        SuperlatticeSpec((), ())


@pytest.mark.parametrize(
    ("onsite_real", "onsite_imag", "hopping", "message"),
    [
        ((0.0, 0.0), (0.1, -0.1), (0.0, 1.0), "hopping rates must be finite and non-vanishing"),
        ((0.0,), (0.1,), (math.nan,), "hopping rates must be finite and non-vanishing"),
        ((0.0,), (0.1,), (-math.inf,), "hopping rates must be finite and non-vanishing"),
        ((0.0,), (0.1,), (1.0 + 0.5j,), "hopping rates must be real"),
        ((math.nan, 0.0), (0.1, -0.1), (1.0, 1.0), "on-site energies must be finite"),
        ((0.0,), (math.inf,), (1.0,), "on-site energies must be finite"),
        ((), (), (), "period must be at least 1"),
        ((0.1, 0.2), (0.3, 0.4), (1.0,), "need as many hoppings as on-site energies, got 1 vs 2"),
        ((0.1,), (0.2, 0.3), (1.0,), "onsite_real, onsite_imag and hopping must share one period"),
    ],
)
def test_family_rejects_what_a_lattice_rejects(onsite_real, onsite_imag, hopping, message):
    # a zero hopping used to reach breaking_threshold and read never_broken,
    # a NaN on-site energy LAPACK's LinAlgError
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        ParametricLattice(onsite_real, onsite_imag, hopping)


def test_periodic_accessors_cover_negative_indices():
    spec = SuperlatticeSpec((1.0, 2.0, 3.0), (0.5, 0.6, 0.7))
    assert spec.onsite_at(0) == 3.0  # V_0 = V_q
    assert spec.hopping_at(0) == 0.7  # kappa_0 = kappa_q
    assert spec.onsite_at(-1) == 2.0
    assert spec.onsite_at(4) == spec.onsite_at(1)


def test_harper_validation():
    with pytest.raises(LatticeError, match="irreducible"):
        HarperParams(delta=0.3, lam=0.1, p=2, q=6)
    with pytest.raises(LatticeError, match="positive"):
        HarperParams(delta=0.3, lam=0.1, p=1, q=0)
    with pytest.raises(LatticeError, match="numerator p must be a positive integer"):
        HarperParams(0.3, 0.1, 0, 5)
    with pytest.raises(LatticeError, match="nonnegative"):
        HarperParams(delta=0.3, lam=-0.1, p=1, q=3)
    for delta in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(LatticeError, match="delta must be finite"):
            HarperParams(delta=delta, lam=0.1, p=1, q=3)


def test_harper_value_at_anchor_site_is_exact():
    # at lam = 0 the anchor site carries exactly delta: cos(0) = 1, and the
    # imaginary part vanishes identically
    for p, q, n0 in ((1, 6, 0), (1, 6, 3), (3, 7, 1), (5, 12, 12)):
        spec = build_harper(HarperParams(delta=0.3, lam=0.0, p=p, q=q, n0=n0))
        assert spec.onsite_at(n0) == 0.3 + 0.0j


def test_harper_first_site_hand_evaluated():
    # alpha = 1/6, n = 1, n0 = 0: phase pi/3; cos = 1/2, sin = sqrt(3)/2
    spec = build_harper(HarperParams(delta=0.3, lam=0.134, p=1, q=6, n0=0))
    expected = complex(0.3 * 0.5, 0.134 * math.sqrt(3.0) / 2.0)
    assert abs(spec.onsite[0] - expected) < 1e-12


@given(harper_parameter_tuples())
def test_harper_periodic_extension_over_two_periods(params):
    delta, lam, p, q, n0 = params
    spec = build_harper(HarperParams(delta=delta, lam=lam, p=p, q=q, n0=n0))
    alpha = p / q
    for n in range(1, 2 * q + 1):
        phase = 2.0 * math.pi * alpha * (n - n0)
        expected = complex(delta * math.cos(phase), lam * math.sin(phase))
        assert abs(spec.onsite_at(n) - expected) < 1e-9
    assert all(k == 1.0 for k in spec.hopping)


def test_harper_anchor_counts_modulo_the_period():
    # an anchor beyond the int64 range used to raise OverflowError, and one
    # near 1e18 lost the phase to rounding
    for n0 in range(6):
        family = harper_family(0.3, 1, 6, n0)
        for shift in (-6, 6 * 10**17, 6 * 10**20):
            assert harper_family(0.3, 1, 6, n0 + shift) == family


def test_family_instantiation_matches_direct_builder():
    family = harper_family(0.3, 1, 6, n0=2)
    direct = build_harper(HarperParams(delta=0.3, lam=0.134, p=1, q=6, n0=2))
    assert family.at(0.134).onsite == direct.onsite


def test_family_rejects_negative_strength():
    with pytest.raises(LatticeError, match="nonnegative"):
        harper_family(0.3, 1, 6).at(-0.1)


@given(st.floats(0.0, 2.0))
def test_family_at_zero_is_hermitian_and_conjugation_is_linear(lam):
    family = ParametricLattice((0.4, -0.2, 0.0), (1.0, -0.3, 0.7), (1.0, 1.0, 1.0))
    assert all(v.imag == 0 for v in family.at(0.0).onsite)
    negated = ParametricLattice(
        family.onsite_real, tuple(-v for v in family.onsite_imag), family.hopping
    )
    assert tuple(v.conjugate() for v in family.at(lam).onsite) == negated.at(lam).onsite


# ---------------------------------------------------------------------------
# PT-symmetry check: twice the smallest parity centre, -1 for none
# ---------------------------------------------------------------------------


def doubled_centre(spec: SuperlatticeSpec) -> int:
    return _doubled_centre(np.asarray(spec.onsite), spec.hopping)


@given(harper_parameter_tuples())
def test_every_harper_lattice_is_pt_symmetric(params):
    delta, lam, p, q, n0 = params
    assert doubled_centre(build_harper(HarperParams(delta, lam, p, q, n0))) >= 0


def test_harper_anchor_zero_has_site_center_zero():
    assert doubled_centre(build_harper(HarperParams(0.3, 0.134, 1, 6, 0))) == 0  # even: a site


def test_single_site_real_lattice_is_symmetric():
    assert doubled_centre(SuperlatticeSpec((0.7,), (1.0,))) >= 0


def test_two_site_unbalanced_gain_is_not_symmetric():
    # all four candidate centers fail the conjugation constraint
    assert doubled_centre(SuperlatticeSpec((1j, 2j), (1.0, 1.0))) == -1


def test_bond_centered_parity_detected():
    # V_1 = V_2* with uniform hoppings reflects about the 1-2 bond midpoint
    assert doubled_centre(SuperlatticeSpec((1.0 + 2.0j, 1.0 - 2.0j), (1.0, 1.0))) == 1  # odd: a bond


@given(pt_specs(min_q=1, max_q=8))
def test_generated_mirrored_specs_pass_the_check(spec):
    assert doubled_centre(spec) >= 0


def test_smallest_center_reported():
    # uniform real lattice is symmetric about every center; 0 is the smallest
    assert doubled_centre(SuperlatticeSpec((0.5, 0.5), (1.0, 1.0))) == 0


@pytest.mark.parametrize("delta", [1e4, 1e6, 1e12])
def test_large_amplitude_harper_lattices_keep_their_centre(delta):
    # an absolute 1e-12 found no centre at delta = 1e4: the cosines round at 1e-12
    for q in range(3, 21):
        for p in (1, 2):
            if math.gcd(p, q) != 1:
                continue
            for n0 in range(q):
                family = harper_family(delta, p, q, n0)
                for lam in (0.0, 1.0, delta):
                    assert doubled_centre(family.at(lam)) >= 0, (p, q, n0, lam)


def test_tiny_lattice_without_centre_finds_none():
    # an absolute 1e-12 took every difference of this lattice for rounding
    scale = 1e-12
    spec = SuperlatticeSpec((0.1 * scale, (0.2 + 1e-3j) * scale, 0.5 * scale), (scale,) * 3)
    assert doubled_centre(spec) == -1
    assert doubled_centre(SuperlatticeSpec((0.1 * scale, 0.1 * scale), (scale,) * 2)) >= 0


def test_centre_search_memory_stays_linear_in_the_period():
    # the (2q, q) candidate comparison peaked at 80 MB at q = 1000; site 0 of
    # the first lattice passes 998 candidates that later sites reject
    q = 1000
    onsite = [0.0] * q
    onsite[500], onsite[501] = 1 + 0.5j, 1 - 0.4j
    specs = [SuperlatticeSpec(tuple(onsite), (1.0,) * q), build_harper(HarperParams(0.3, 0.1, 1, q, 7))]
    doubled_centre(SuperlatticeSpec((0.5, 0.5), (1.0, 1.0)))  # one-time numpy set-up stays unmeasured
    for spec, symmetric in zip(specs, (False, True)):
        tracemalloc.start()
        try:
            assert (doubled_centre(spec) >= 0) == symmetric
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_centre_test_near_float_limit_warns_nothing():
    # the partner differences overflow to inf, which exceeds every limit;
    # this used to warn "overflow encountered in subtract"
    spec = SuperlatticeSpec((1e308 + 1e308j, 1e308 - 1e308j), (1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert doubled_centre(spec) == 1


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    spec = SuperlatticeSpec((0.1 + 0.2j, -0.3), (1.0, -0.5))
    obj = {"q": 2, "onsite": [[0.1, 0.2], [-0.3, 0.0]], "hopping": [1.0, -0.5]}
    family, lam = family_from_json(json.loads(json.dumps(obj)))
    assert lam == 1.0
    assert family.at(lam) == spec


def test_json_harper_shorthand():
    obj = {"harper": {"delta": 0.3, "lambda": 0.134, "p": 1, "q": 6, "n0": 1}}
    family, lam = family_from_json(obj)
    assert family == harper_family(0.3, 1, 6, 1)
    assert family.at(lam) == build_harper(HarperParams(0.3, 0.134, 1, 6, 1))


def test_json_validation():
    with pytest.raises(LatticeError):
        family_from_json({"q": 2, "onsite": [[0, 0]], "hopping": [1.0, 1.0]})
    with pytest.raises(LatticeError):
        family_from_json({"harper": {"delta": 0.3}})
    with pytest.raises(LatticeError):
        family_from_json([1, 2, 3])
    with pytest.raises(LatticeError, match="invalid lattice JSON: not enough values to unpack"):
        family_from_json({"q": 1, "onsite": [[1]], "hopping": [1]})
