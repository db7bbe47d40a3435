"""Rectangle filter construction: frozen degrees, bands, and conditioning."""

import ast
import math
import os
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as _cheb

import eigensampler
from eigensampler import (
    DegreeOverflowError,
    RectanglePolynomial,
    ValidationError,
    build_rectangle_polynomial,
    coefficient_l1,
    eval_poly,
)
from eigensampler.polyfilter import (
    _even_chebyshev_interpolant,
    _rectangle_target,
    band_report,
    constant_one_polynomial,
    eval_monomial_exact,
)

XI12 = 1 / 12

# minimal certified degrees, frozen from the deterministic construction
FROZEN_DEGREES = {
    (0.0, 0.25, XI12): 18,
    (0.25, 0.25, XI12): 20,
    (0.5, 0.25, 0.05): 22,
    (0.5, 0.125, XI12): 34,
    (0.25, 0.125, XI12): 44,
    (0.25, 0.125, 0.05): 54,
    (0.0, 0.125, 0.05): 64,
}


# Minimal certified degrees on the unguided solver's own inputs: test t at
# epsilon has tau = t*epsilon/4 and theta = epsilon/4, and n qubits give
# chi = 2^(-n/2), xi = chi^2/12, computed as solve_unguided does. Frozen from
# the Vandermonde-interpolation, full-grid builder that preceded the FFT one.
UNGUIDED_DEGREES = {
    (0.5, 3): (104, 106, 98),
    (0.5, 4): (124, 122, 114),
    (0.42, 3): (124, 118, 118),
    (0.42, 4): (146, 146, 136),
    (0.35, 3): (148, 142, 148),
    (0.35, 4): (176, 176, 164),
}
# n = 5 at epsilon 0.25, test 0: no degree up to the cap certifies
UNGUIDED_OVERFLOW_BEST_ERROR = 1.3941689130930301e-2


def _unguided_bands(t, epsilon, n):
    chi = 2.0 ** (-n / 2.0)
    return t * epsilon / 4.0, epsilon / 4.0, chi * chi / 12.0


@pytest.mark.parametrize("params,degree", sorted(FROZEN_DEGREES.items()))
def test_minimal_degree_frozen(params, degree):
    P = build_rectangle_polynomial(*params)
    assert P.degree == degree
    assert P.verified
    assert len(P.coeffs) == degree + 1


@pytest.mark.parametrize("key", sorted(UNGUIDED_DEGREES))
def test_unguided_degrees_frozen(key):
    epsilon, n = key
    for t, degree in enumerate(UNGUIDED_DEGREES[key]):
        P = build_rectangle_polynomial(*_unguided_bands(t, epsilon, n))
        assert P.degree == degree, (t, P.degree)
        assert P.verified


def test_unguided_overflow_frozen():
    with pytest.raises(DegreeOverflowError) as info:
        build_rectangle_polynomial(*_unguided_bands(0, 0.25, 5))
    assert info.value.degree_cap == 200
    assert info.value.best_error == pytest.approx(
        UNGUIDED_OVERFLOW_BEST_ERROR, rel=1e-9)


def test_frozen_band_profile():
    """Measured band extremes of the tau=0.25, theta=0.25, xi=1/12 filter."""
    P = build_rectangle_polynomial(0.25, 0.25, XI12)
    rep = band_report(P)
    assert rep["low_min"] == pytest.approx(0.9494595314641999, abs=1e-12)
    assert rep["high_max"] == pytest.approx(0.0790982769453547, abs=1e-12)
    assert rep["max_abs"] == pytest.approx(0.9794325714614912, abs=1e-12)
    assert coefficient_l1(P) == pytest.approx(959691.4966047746, rel=1e-12)


@pytest.mark.parametrize("params", sorted(FROZEN_DEGREES))
def test_bands_hold_on_finer_grid(params):
    # re-verification at 10x the construction resolution
    tau, theta, xi = params
    P = build_rectangle_polynomial(*params)
    rep = band_report(P, grid_points=1_000_001)
    assert rep["max_abs"] <= 1 + 1e-9
    assert rep["min_val"] >= -1e-9
    assert rep["low_min"] >= 1 - xi - 1e-9
    assert rep["high_max"] <= xi + 1e-9


@pytest.mark.parametrize("params", sorted(FROZEN_DEGREES))
def test_coefficient_l1_within_sherstov_bound(params):
    P = build_rectangle_polynomial(*params)
    assert math.log(coefficient_l1(P)) <= P.degree * math.log(4.0)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.14, 0.5),
    tau_fraction=st.floats(0.0, 1.0),
    xi=st.floats(0.05, 0.5),
)
def test_built_filters_pass_full_grid_bands(theta, tau_fraction, xi):
    """Builds certified on the even half-grid hold on the full [-1, 1] grid."""
    tau = tau_fraction * (1.0 - theta)
    P = build_rectangle_polynomial(tau, theta, xi)
    assert P.degree <= 64
    assert np.all(P.cheb[1::2] == 0.0)
    rep = band_report(P)
    assert rep["max_abs"] <= 1.0 + 1e-12
    assert rep["min_val"] >= -1e-12
    assert rep["low_min"] >= 1.0 - xi
    assert rep["high_max"] is None or rep["high_max"] <= xi


@pytest.mark.parametrize(
    "target",
    [lambda x: np.exp(-4.0 * x * x) * np.cos(3.0 * x),
     _rectangle_target(0.25, 0.125, 0.01)],
    ids=["smooth", "rectangle"],
)
def test_fft_interpolant_matches_chebinterpolate(target):
    for degree in range(0, 201, 2):
        expected = np.atleast_1d(_cheb.chebinterpolate(target, degree)).copy()
        expected[1::2] = 0.0
        got = _even_chebyshev_interpolant(target, degree)
        assert got.shape == (degree + 1,)
        assert np.all(got[1::2] == 0.0)
        assert np.max(np.abs(got - expected)) <= 1e-14, degree


def test_degree_monotone_in_theta_and_xi():
    taus = [0.0, 0.25, 0.5]
    thetas = [0.25, 0.1875, 0.125]
    xis = [XI12, 0.05, 0.02]
    for tau in taus:
        for xi in xis:
            degs = [build_rectangle_polynomial(tau, th, xi).degree for th in thetas]
            assert degs == sorted(degs)
        for th in thetas:
            degs = [build_rectangle_polynomial(tau, th, xi).degree for xi in xis]
            assert degs == sorted(degs)


def test_low_degree_endpoint_case():
    # tau=0, theta=1, xi=0.5 leans on the whole interval
    P = build_rectangle_polynomial(0.0, 1.0, 0.5)
    assert P.eval_stable(0.0) >= 0.5
    assert P.eval_stable(1.0) <= 0.5


def test_eval_poly_horner_examples():
    T2 = SimpleNamespace(coeffs=np.array([-1.0, 0.0, 2.0]))
    assert eval_poly(T2, 1.0) == pytest.approx(1.0)
    assert eval_poly(T2, 0.0) == pytest.approx(-1.0)
    assert eval_poly(T2, 0.5) == pytest.approx(-0.5)
    assert coefficient_l1(T2) == pytest.approx(3.0)


def test_constant_polynomial():
    C = constant_one_polynomial(0.9, 0.3, XI12)
    assert C.degree == 0
    assert coefficient_l1(C) == pytest.approx(1.0)
    xs = np.linspace(-1, 1, 7)
    assert np.allclose(C.eval_stable(xs), 1.0)
    assert np.allclose(eval_poly(C, xs), 1.0)


@pytest.mark.parametrize(
    "params",
    [p for p in sorted(FROZEN_DEGREES) if FROZEN_DEGREES[p] <= 60],
)
def test_chebyshev_monomial_round_trip(params):
    """Basis conversion is exact: both forms agree on the verification grid."""
    P = build_rectangle_polynomial(*params)
    xs = np.linspace(-1.0, 1.0, 2001)
    stable = P.eval_stable(xs)
    mono = eval_monomial_exact(P, xs)
    assert np.max(np.abs(stable - mono)) <= 1e-7


def _exact_reference(cheb):
    """numpy's cheb2poly run on exact Fractions, each coefficient rounded once."""
    exact = _cheb.cheb2poly(np.array([Fraction(c) for c in cheb], dtype=object))
    out = np.zeros(len(cheb))
    out[:len(exact)] = [float(v) for v in exact]
    return out


def _solver_profiles():
    yield from sorted(FROZEN_DEGREES)
    for epsilon, n in sorted(UNGUIDED_DEGREES):
        for t in range(len(UNGUIDED_DEGREES[epsilon, n])):
            yield _unguided_bands(t, epsilon, n)


def test_monomial_coefficients_are_correctly_rounded():
    """coeffs equal, bit for bit, an independent exact conversion."""
    polys = [build_rectangle_polynomial(*params) for params in _solver_profiles()]
    polys.append(constant_one_polynomial(0.9, 0.3, XI12))
    for P in polys:
        assert P.coeffs.tobytes() == _exact_reference(P.cheb).tobytes(), P


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=41))
def test_random_chebyshev_vectors_convert_exactly(cheb):
    P = RectanglePolynomial(cheb, 0.0, 0.5, 0.1, False, 0)
    assert P.coeffs.tobytes() == _exact_reference(P.cheb).tobytes()


def test_double_precision_horner_degrades_gracefully():
    # the double-precision monomial path carries l1 * machine-eps noise; the
    # mild filters stay well inside 1e-7 while sharp ones do not
    P = build_rectangle_polynomial(0.0, 0.25, XI12)
    xs = np.linspace(-1.0, 1.0, 501)
    assert np.max(np.abs(P.eval_stable(xs) - eval_poly(P, xs))) <= 1e-7


def test_construction_is_cached():
    a = build_rectangle_polynomial(0.25, 0.25, XI12)
    b = build_rectangle_polynomial(0.25, 0.25, XI12)
    assert a is b


def test_polynomial_is_immutable():
    P = build_rectangle_polynomial(0.0, 0.25, XI12)
    with pytest.raises((ValueError, AttributeError)):
        P.coeffs[0] = 99.0


@pytest.mark.parametrize(
    "tau,theta,xi",
    [
        (-0.1, 0.25, XI12),
        (1.0, 0.25, XI12),
        (0.25, 0.0, XI12),
        (0.25, -0.5, XI12),
        (0.25, 0.25, 0.0),
        (0.25, 0.25, 1.5),
        (0.5, 0.6, XI12),  # tau + theta beyond 1
    ],
)
def test_parameter_validation(tau, theta, xi):
    with pytest.raises(ValidationError):
        build_rectangle_polynomial(tau, theta, xi)


def test_nan_theta_is_a_validation_error():
    # NaN fails every comparison, so it used to pass the theta check and end
    # in a DegreeOverflowError for "theta=nan".
    with pytest.raises(ValidationError) as info:
        build_rectangle_polynomial(0.25, math.nan, 0.1)
    assert not isinstance(info.value, DegreeOverflowError)


def test_xi_below_float_resolution_overflows_without_warnings():
    # 1 - xi/2 rounds to 1, so the target's steepness erfinv(1) would be inf,
    # and the grid point at the band center would multiply it by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegreeOverflowError) as info:
            build_rectangle_polynomial(0.0, 0.25, 1e-181)
    assert info.value.degree_cap == 200
    assert info.value.best_error == math.inf


def test_metadata_round_trip():
    P = build_rectangle_polynomial(0.5, 0.25, 0.05)
    assert (P.tau, P.theta, P.xi) == (0.5, 0.25, 0.05)
    assert P.grid_points == 100_001
    assert isinstance(P, RectanglePolynomial)


def test_package_imports_no_mpmath():
    # The monomial conversion is exact in Python ints; every import, module
    # level or local, of every module is read.
    package = os.path.dirname(eigensampler.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [name for m in modules if m.split(".")[0] == "mpmath"]
    assert found == []
