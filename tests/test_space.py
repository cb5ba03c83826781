"""Weighted coefficient space: weights, inner products, reproducing kernels."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bergman_csym import (
    ArgOutsideDiskError,
    InvalidInputError,
    SpaceParams,
    TruncatedSeries,
    inner_product,
    kernel_series,
    norm,
    suggest_kernel_degree,
    weight,
    weight_reciprocal_sums,
    weights,
)
from bergman_csym.space import _weights_cached
import exact
from helpers import random_poly


# --- weights -----------------------------------------------------------


def test_weight_frozen_values():
    assert weight(SpaceParams(0), 3) == 0.25
    assert weight(SpaceParams(1), 2) == 1 / 6
    assert weight(SpaceParams(-1), 17) == 1.0


def test_weight_of_constant_is_one():
    for beta in (-1.0, -0.5, 0.0, 1.0, 2.5):
        assert weight(SpaceParams(beta), 0) == 1.0


def test_integer_weight_is_reciprocal_binomial():
    # exact rational route, compared bitwise after float conversion; from beta = 5
    # the binomial passes 2**53 below n = 256, and at beta = 400 it passes DBL_MAX
    for beta, n_max in [(0, 30), (1, 30), (2, 30), (3, 30), (5, 256), (8, 256), (10, 256),
                        (20, 256), (400, 806)]:
        params = SpaceParams(beta)
        w = weights(params, n_max)
        for n in range(n_max + 1):
            assert w[n] == float(Fraction(1, comb(n + beta + 1, beta + 1)))
        assert weight(params, n_max) == w[n_max]


def test_hardy_weights_all_one():
    np.testing.assert_array_equal(weights(SpaceParams(-1), 50), np.ones(51))
    assert np.all(weights(SpaceParams(-1), 4096) == 1.0) and SpaceParams(-1).unit_weights
    for beta in (-0.999, -0.5, 0, 1, 2.5):
        assert not SpaceParams(beta).unit_weights


@pytest.mark.parametrize("n_max", [0, 1, 230, 600])
@pytest.mark.parametrize("beta", [-1, 0, 2.5, 2000.5])
def test_square_roots_of_the_weights_are_cached_beside_them(beta, n_max):
    # at beta = 2000.5 the weights are subnormal from w(218) on and 0 from w(234) on
    params = SpaceParams(beta)
    rows = _weights_cached(params.beta, n_max)
    assert rows is _weights_cached(params.beta, n_max) and rows.shape == (2, n_max + 1)
    assert not rows.flags.writeable and not rows[1].flags.writeable
    with pytest.raises(ValueError):
        rows[1].flags.writeable = True
    w = weights(params, n_max)
    assert w.tobytes() == rows[0].tobytes()
    assert rows[1].tobytes() == np.sqrt(w).tobytes()


def test_weights_strictly_decreasing_above_hardy():
    for beta in (-0.5, 0.0, 1.7):
        w = weights(SpaceParams(beta), 60)
        assert np.all(np.diff(w) < 0)
        assert np.all(w > 0)


def test_weight_matches_gamma_route_for_noninteger_beta():
    from scipy.special import gammaln

    for beta in (-0.5, 0.3, 2.5):
        params = SpaceParams(beta)
        for n in (1, 5, 20, 100):
            expected = np.exp(
                gammaln(n + 1) + gammaln(2 + beta) - gammaln(n + 2 + beta)
            )
            np.testing.assert_allclose(weight(params, n), expected, rtol=1e-13)


@pytest.mark.parametrize("beta", [-0.9, -0.5, 1 / 3, 0.3, 0.5, 1.5, 2.5, 7.25])
def test_noninteger_weights_within_gamma_3n_of_exact(beta):
    # Each factor k / (k + 1 + beta) of the product rounds at most three
    # times (add, divide, multiply), so w(n) is within gamma_{3n} relative.
    n_max = 1024
    got = weights(SpaceParams(beta), n_max)
    for n, w in enumerate(exact.weights(beta, n_max)):
        assert abs(Fraction(got[n]) - w) <= exact.gamma(3 * n) * w, n


# --- inner product and norm -------------------------------------------


def test_monomials_are_orthogonal():
    z2 = TruncatedSeries([0.0, 0.0, 1.0])
    z5 = TruncatedSeries([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert inner_product(SpaceParams(0.8), z2, z5) == 0.0


def test_cubed_monomial_norm_squared():
    z3 = TruncatedSeries([0.0, 0.0, 0.0, 1.0])
    assert inner_product(SpaceParams(0), z3, z3) == 0.25


def test_norm_squared_equals_self_inner_product():
    rng = np.random.default_rng(3)
    params = SpaceParams(0.5)
    for _ in range(10):
        f = random_poly(rng, 12)
        np.testing.assert_allclose(
            norm(params, f) ** 2, inner_product(params, f, f).real, rtol=1e-12
        )


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(4)
    params = SpaceParams(1)
    f, g = random_poly(rng, 9), random_poly(rng, 9)
    assert abs(inner_product(params, f, g) - np.conj(inner_product(params, g, f))) < 1e-14


def test_cauchy_schwarz():
    rng = np.random.default_rng(9)
    for beta in (-1.0, 0.0, 2.5):
        params = SpaceParams(beta)
        for _ in range(20):
            f, g = random_poly(rng, 10), random_poly(rng, 10)
            lhs = abs(inner_product(params, f, g))
            assert lhs <= norm(params, f) * norm(params, g) * (1 + 1e-12)


def test_zero_padding_of_shorter_factor():
    f = TruncatedSeries([1.0, 2.0])
    g = TruncatedSeries([1.0, 2.0, 7.0, -3.0])
    assert inner_product(SpaceParams(0), f, g) == inner_product(SpaceParams(0), g, f)


# --- reproducing kernel ------------------------------------------------


def test_kernel_at_origin_is_constant_one():
    k = kernel_series(SpaceParams(1.3), 0.0, 6)
    assert np.array_equal(k.coeffs, [1.0, 0, 0, 0, 0, 0, 0])


def test_kernel_coefficients_unweighted_case():
    # coefficient n is (n+1) conj(alpha)^n when the weights are 1/(n+1)
    k = kernel_series(SpaceParams(0), 0.5, 8)
    expected = [(n + 1) * 0.5**n for n in range(9)]
    np.testing.assert_allclose(k.coeffs, expected, rtol=1e-14)
    assert k.coeffs[1] == 1.0

    kc = kernel_series(SpaceParams(0), 0.3j, 8)
    expected_c = [(n + 1) * (-0.3j) ** n for n in range(9)]
    np.testing.assert_allclose(kc.coeffs, expected_c, rtol=1e-13)


def test_kernel_coefficient_is_conjugate_power_over_weight():
    for beta in (-1.0, -0.5, 1.0):
        params = SpaceParams(beta)
        k = kernel_series(params, 0.4 - 0.2j, 12)
        for n in range(13):
            expected = np.conj(0.4 - 0.2j) ** n / weight(params, n)
            np.testing.assert_allclose(k.coeffs[n], expected, rtol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 2.5, 7.25])
def test_kernel_coefficient_parts_are_correctly_rounded_quotients(beta):
    # Each part is the float numerator's part over the float weight, rounded
    # once: a complex division by a real array rounds twice, through 1/w(n).
    w = weights(SpaceParams(beta), 64)
    for alpha in (0.3 + 0.7j, -0.45 - 0.6j):
        k = kernel_series(SpaceParams(beta), alpha, 64)
        numerators = np.conj(alpha) ** np.arange(65)
        for n in range(65):
            parts = [float(Fraction(x) / Fraction(w[n])) for x in (numerators[n].real, numerators[n].imag)]
            assert [k.coeffs[n].real, k.coeffs[n].imag] == parts, (alpha, n)


def test_kernel_reproduces_squared_monomial():
    z2 = TruncatedSeries([0.0, 0.0, 1.0])
    for beta in (-1.0, 0.0, 1.7):
        val = inner_product(SpaceParams(beta), z2, kernel_series(SpaceParams(beta), 0.3, 8))
        np.testing.assert_allclose(val, 0.09, rtol=1e-12)


def test_kernel_reproduces_point_values():
    rng = np.random.default_rng(12)
    for beta in (-1.0, -0.5, 0.0, 1.0, 2.5):
        params = SpaceParams(beta)
        for _ in range(10):
            f = random_poly(rng, 16)
            alpha = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
            k = kernel_series(params, alpha, 256)
            assert abs(inner_product(params, f, k) - f(alpha)) < 1e-10


def test_kernel_rejects_argument_outside_disk():
    with pytest.raises(ArgOutsideDiskError):
        kernel_series(SpaceParams(0), 1.2, 8)
    with pytest.raises(ArgOutsideDiskError):
        kernel_series(SpaceParams(0), np.exp(0.3j), 8)


def test_suggested_degree_controls_kernel_tail():
    d = suggest_kernel_degree(0.5, 1e-10)
    assert d >= np.log(1e-10) / np.log(0.5)
    assert 0.5**d <= 1e-10 * 2
    assert suggest_kernel_degree(0.0, 1e-10) == 0
    for tol in (5.0, 0.0, float("nan")):
        with pytest.raises(InvalidInputError):
            suggest_kernel_degree(0, tol)


# --- divergent reciprocal sums ----------------------------------------


def test_reciprocal_sums_unweighted_triangle_numbers():
    s = weight_reciprocal_sums(SpaceParams(0), 3)
    np.testing.assert_array_equal(s, [1.0, 3.0, 6.0, 10.0])


def test_reciprocal_sums_hardy_counts_terms():
    s = weight_reciprocal_sums(SpaceParams(-1), 99)
    assert s[-1] == 100.0
    np.testing.assert_array_equal(s, np.arange(1, 101, dtype=float))


def test_reciprocal_sums_monotone_and_unbounded():
    for beta in (-1.0, -0.5, 0.0, 1.0, 2.0):
        s = weight_reciprocal_sums(SpaceParams(beta), 10_000)
        assert np.all(np.diff(s) > 0)
        assert s[-1] > 1e3
