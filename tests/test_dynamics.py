"""Orbit iteration, attracting points, companion-map eigenvectors, orbit Gram ranks."""

import numpy as np
import pytest

from bergman_csym import (
    DimMismatchError,
    EscapedDiskError,
    ExponentOutOfRangeError,
    IdentityMapError,
    InvalidInputError,
    NotSelfMapError,
    SpaceParams,
    TruncatedSeries,
    binomial_expand,
    compose,
    composition_matrix,
    denjoy_wolff,
    dilation_about,
    hurst_eigencheck,
    hyperbolic_model,
    involution,
    iterate,
    kernel_series,
    make,
    norm,
    orbit_gram,
    rotation,
)


# --- orbits ------------------------------------------------------------


def test_identity_orbit_is_constant_and_converges():
    report = iterate(make(1, 0, 0, 1), 0.3, 10)
    assert report.converged
    assert report.limit == 0.3
    np.testing.assert_array_equal(report.iterates, np.full(len(report.iterates), 0.3))


def test_half_shift_orbit_is_exactly_dyadic():
    report = iterate(make(1, 1, 0, 2), 0.0, 30)
    assert len(report.iterates) == 31
    for n, z in enumerate(report.iterates):
        assert complex(z) == 1 - 2.0 ** (-n)


def test_hyperbolic_model_orbit_falls_into_origin():
    report = iterate(hyperbolic_model(0.5), 0.9, 40)
    assert abs(report.iterates[-1]) < 1e-6


def test_converged_limit_is_numerically_fixed():
    report = iterate(hyperbolic_model(0.3), 0.5, 200)
    assert report.converged
    from bergman_csym import apply_map

    assert abs(apply_map(hyperbolic_model(0.3), report.limit) - report.limit) < 1e-8


def test_orbit_leaving_disk_is_flagged():
    # raw callables are allowed; an expanding one must be caught
    with pytest.raises(EscapedDiskError):
        iterate(lambda z: z + 0.4, 0.5, 50)


def test_orbit_start_outside_disk_rejected():
    with pytest.raises((NotSelfMapError, EscapedDiskError, ValueError)):
        iterate(make(1, 1, 0, 2), 1.5, 5)


@pytest.mark.parametrize("seed", [complex(float("nan"), 0.0), complex(0.0, float("nan"))])
@pytest.mark.parametrize("steps", [0, 3])
def test_orbit_nan_seed_is_rejected_as_the_seed(seed, steps):
    # a NaN modulus fails every comparison, so the check must be written to fail closed
    with pytest.raises(EscapedDiskError, match="^seed "):
        iterate(make(1, 1, 0, 2), seed, steps)


# --- attracting points -------------------------------------------------


def test_attracting_point_of_hyperbolic_model():
    result = denjoy_wolff(hyperbolic_model(0.5))
    assert result.point == 0.0
    assert result.route == "interior-fixed-point"


def test_attracting_point_of_half_shift():
    result = denjoy_wolff(make(1, 1, 0, 2))
    assert result.point == 1.0
    assert result.route == "boundary-attracting"


def test_attracting_point_of_boundary_automorphism():
    result = denjoy_wolff(make(3, 1, 1, 3))
    assert abs(result.point - 1.0) < 1e-12
    assert result.route == "boundary-attracting"


def test_elliptic_maps_have_no_attracting_point():
    result = denjoy_wolff(dilation_about(0.4, 1j))
    assert result.route == "elliptic-no-dw"
    assert abs(result.point - 0.4) < 1e-12


def test_attracting_point_of_identity_rejected():
    with pytest.raises(IdentityMapError):
        denjoy_wolff(make(1, 0, 0, 1))


def test_orbits_converge_to_the_attracting_point():
    rng = np.random.default_rng(40)
    maps = [
        hyperbolic_model(0.6),
        dilation_about(0.3, 0.4),
        make(3, 1, 1, 3),
        make(1, 1, 0, 2),
    ]
    for phi in maps:
        omega = denjoy_wolff(phi).point
        for _ in range(5):
            z0 = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            report = iterate(phi, z0, 10_000)
            assert abs(report.iterates[-1] - omega) < 1e-6


def test_elliptic_irrational_rotation_never_settles():
    phi = dilation_about(0.3, np.exp(2j * np.pi * np.sqrt(2) / 10))
    report = iterate(phi, 0.7, 1000)
    assert not report.converged
    gaps = np.abs(np.diff(report.iterates))
    assert np.max(gaps[-100:]) > 1e-6


# --- companion-map eigenvectors ---------------------------------------


def test_constant_eigenvector_is_exact():
    assert hurst_eigencheck(0.5, 0.0, SpaceParams(0), 64) == 0.0


def test_linear_eigenvector_is_exact():
    # (1 - z) is a polynomial eigenvector, no truncation error at all
    assert hurst_eigencheck(0.5, 1.0, SpaceParams(0), 64) < 1e-12


def test_fractional_eigenvector_converges():
    assert hurst_eigencheck(0.5, 2.5, SpaceParams(0), 512, 64) < 1e-6
    assert hurst_eigencheck(0.3, 0.7, SpaceParams(0), 512, 64) < 1e-6


def test_eigenvector_residual_decreases_with_dimension():
    prev = hurst_eigencheck(0.3, 0.7, SpaceParams(0), 128, 32)
    for degree in (256, 512):
        cur = hurst_eigencheck(0.3, 0.7, SpaceParams(0), degree, 32)
        assert cur <= prev or cur < 5e-15
        prev = cur


def _eigencheck_at_full_degree(s, exponent, params, degree, block_degree):
    # The route that composes to ``degree`` and then reads the block.
    s = complex(s)
    f = binomial_expand(-1.0, exponent, degree)
    composed = compose(f, TruncatedSeries([1.0 - s, s]), degree)
    head = f.coeffs[: block_degree + 1]
    diff = TruncatedSeries(composed.coeffs[: block_degree + 1] - s**exponent * head)
    return float(norm(params, diff) / norm(params, TruncatedSeries(head)))


@pytest.mark.parametrize("beta", [0, 1, -0.5, 1.5])
@pytest.mark.parametrize("degree,block", [(512, 64), (64, 0), (64, 1), (64, 64), (16, 3), (256, 100)])
def test_eigencheck_equals_the_full_degree_route(beta, degree, block):
    params = SpaceParams(beta)
    for s in (0.3, 0.5 + 0.2j, 0.45 - 0.1j):
        for exponent in (1.0, 2.0, 0.7, 2.5, -0.3):
            got = hurst_eigencheck(s, exponent, params, degree, block)
            assert got == _eigencheck_at_full_degree(s, exponent, params, degree, block)


def test_exponent_below_floor_rejected():
    with pytest.raises(ExponentOutOfRangeError):
        hurst_eigencheck(0.5, -1.0, SpaceParams(0), 64)


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf])
def test_non_finite_exponent_is_invalid_input(exponent):
    with pytest.raises(InvalidInputError, match="exponent must be finite"):
        hurst_eigencheck(0.5, exponent, SpaceParams(0), 64)


def test_multiplier_outside_unit_interval_rejected():
    with pytest.raises(NotSelfMapError):
        hurst_eigencheck(1.5, 1.0, SpaceParams(0), 64)


def test_block_degree_out_of_range_rejected():
    with pytest.raises(DimMismatchError):
        hurst_eigencheck(0.5, 1.0, SpaceParams(0), 32, 99)


# --- orbit Gram ranks --------------------------------------------------


def test_orbit_of_irrational_rotation_is_independent():
    T = composition_matrix(rotation(np.exp(1.0j)), SpaceParams(0), 32)
    f = TruncatedSeries(0.8 ** np.arange(33, dtype=float))
    _, rank = orbit_gram(T, f, 8)
    assert rank == 8


def test_orbit_of_identity_is_one_dimensional():
    T = composition_matrix(make(1, 0, 0, 1), SpaceParams(0), 16)
    f = TruncatedSeries(np.ones(17))
    _, rank = orbit_gram(T, f, 6)
    assert rank == 1


def test_adjoint_orbit_of_kernel_spans_under_elliptic_symbol():
    # kernels along the rotated orbit of an off-center point stay independent
    params = SpaceParams(0)
    T = composition_matrix(dilation_about(0.3, np.exp(1j * np.pi / 4)), params, 64)
    f = kernel_series(params, -0.5, 64)
    gram, rank = orbit_gram(T.adjoint(), f, 8)
    assert rank == 8
    assert gram.shape == (8, 8)
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-10


def test_orbit_gram_count_capped_by_dimension():
    T = composition_matrix(rotation(1j), SpaceParams(0), 5)
    with pytest.raises(DimMismatchError):
        orbit_gram(T, TruncatedSeries(np.ones(6)), 8)
