"""Matrix representations and adjoint formulas in the orthonormal coefficient basis."""

import tracemalloc
from math import comb

import numpy as np
import pytest

import bergman_csym.operators as operators
from bergman_csym import (
    DimMismatchError,
    InvalidInputError,
    Lft,
    NotSelfMapError,
    OperatorMatrix,
    SpaceParams,
    TruncatedSeries,
    adjoint_monomial,
    apply_map,
    composition_matrix,
    compose,
    compose_maps,
    dilation_about,
    from_coords,
    hurst_factors,
    hyperbolic_model,
    inner_product,
    involution,
    involution_adjoint_apply,
    kernel_series,
    make,
    mul,
    multiplication_matrix,
    mzstar_apply,
    mzstar_on_monomial,
    norm,
    rotation,
    scaled,
    to_coords,
    to_series,
    verify_hurst,
    weight,
    weight_reciprocal_sums,
    weights,
)
from bergman_csym.lft import power_table
from bergman_csym.operators import _binomial_alpha_weights, _cowen_sum
from bergman_csym.series import _TILE
import exact
from helpers import kernel_check_map, random_poly, random_self_map


def monomial(n, degree):
    return TruncatedSeries.monomial(n, degree)


# --- composition matrices ---------------------------------------------


def test_identity_symbol_gives_identity_matrix():
    T = composition_matrix(make(1, 0, 0, 1), SpaceParams(0), 12)
    np.testing.assert_allclose(T.mat, np.eye(13), atol=1e-14)


def test_rotation_symbol_gives_diagonal_powers():
    lam = np.exp(0.7j)
    T = composition_matrix(rotation(lam), SpaceParams(1), 9)
    off = T.mat.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) == 0.0
    np.testing.assert_allclose(np.diag(T.mat), lam ** np.arange(10), rtol=1e-13)


def test_columns_are_rescaled_symbol_powers():
    params = SpaceParams(0)
    degree = 32
    phi = involution(0.5)
    T = composition_matrix(phi, params, degree)
    ser = to_series(phi, degree)
    power = TruncatedSeries.one(degree)
    for j in range(degree + 1):
        expected = to_coords(params, power, degree + 1) / np.sqrt(weight(params, j))
        np.testing.assert_allclose(T.mat[:, j], expected, rtol=0, atol=1e-12)
        power = mul(power, ser, degree)
    # corner entry: constant coefficient of the symbol over the weight ratio
    np.testing.assert_allclose(T.mat[0, 1], 0.5 * np.sqrt(2), rtol=1e-14)


def test_composition_contravariance_on_low_degrees():
    rng = np.random.default_rng(17)
    params = SpaceParams(0)
    for _ in range(3):
        phi, psi = random_self_map(rng), random_self_map(rng)
        joint = composition_matrix(compose_maps(phi, psi), params, 256).mat
        split = (
            composition_matrix(psi, params, 256).mat
            @ composition_matrix(phi, params, 256).mat
        )
        assert np.max(np.abs((joint - split)[:8, :8])) < 1e-8


def test_kernel_pairing_evaluates_symbol_composition():
    rng = np.random.default_rng(30)
    for beta in (-1.0, 0.0, 2.5):
        params = SpaceParams(beta)
        phi = random_self_map(rng)
        f = random_poly(rng, 10)
        alpha = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
        lhs = inner_product(
            params,
            compose(f, to_series(phi, 256), 256),
            kernel_series(params, alpha, 256),
        )
        assert abs(lhs - f(apply_map(phi, alpha))) < 1e-9


def test_raw_series_symbol_must_stay_inside_disk():
    grows = TruncatedSeries([0.0, 1.1])
    with pytest.raises(NotSelfMapError):
        composition_matrix(grows, SpaceParams(0), 8)


# --- multiplication matrices ------------------------------------------


def test_multiplying_by_one_is_identity():
    M = multiplication_matrix(TruncatedSeries.one(0), SpaceParams(0.5), 10)
    np.testing.assert_array_equal(M.mat, np.eye(11))


def test_shift_matrix_carries_weight_ratios():
    params = SpaceParams(0)
    frozen = multiplication_matrix(TruncatedSeries.identity(1), params, 8).mat
    assert not frozen.flags.writeable  # matrices are immutable after construction
    M = frozen.copy()
    for n in range(8):
        np.testing.assert_allclose(M[n + 1, n], np.sqrt((n + 1) / (n + 2)), rtol=1e-14)
    M[np.arange(1, 9), np.arange(8)] = 0.0
    assert np.max(np.abs(M)) == 0.0


def test_multiplication_matrix_defining_property():
    rng = np.random.default_rng(8)
    for beta in (-1.0, 0.0, 1.3):
        params = SpaceParams(beta)
        degree = 24
        psi = random_poly(rng, 4)
        f = random_poly(rng, degree - 4)
        M = multiplication_matrix(psi, params, degree)
        lhs = M.mat @ to_coords(params, f, degree + 1)
        rhs = to_coords(params, mul(psi, f, degree), degree + 1)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_kernel_reciprocal_is_polynomial_in_shift():
    # multiplying by (1 - conj(a) z)^(2+beta) equals the finite shift polynomial
    from bergman_csym import binomial_expand

    for beta, alpha in [(0, 0.4 + 0.2j), (1, 0.3)]:
        params = SpaceParams(beta)
        degree = 16
        power = beta + 2
        psi = binomial_expand(-np.conj(alpha), power, degree)
        lhs = multiplication_matrix(psi, params, degree).mat
        shift = multiplication_matrix(TruncatedSeries.identity(1), params, degree).mat
        rhs = np.zeros_like(lhs)
        term = np.eye(degree + 1, dtype=complex)
        for k in range(power + 1):
            rhs += comb(power, k) * (-np.conj(alpha)) ** k * term
            term = term @ shift
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


# --- shift adjoint -----------------------------------------------------


def test_shift_adjoint_kills_constants():
    out = mzstar_apply(SpaceParams(0), TruncatedSeries.one(0))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_shift_adjoint_of_squared_monomial():
    out = mzstar_apply(SpaceParams(0), monomial(2, 2))
    np.testing.assert_allclose(out.coeffs, [0.0, 2 / 3, 0.0], rtol=1e-14)


def test_shift_adjoint_matches_conjugate_transpose():
    rng = np.random.default_rng(14)
    for beta in (-1.0, -0.5, 0.0, 1.0):
        params = SpaceParams(beta)
        degree = 20
        f = random_poly(rng, degree)
        M = multiplication_matrix(TruncatedSeries.identity(1), params, degree)
        via_matrix = M.mat.conj().T @ to_coords(params, f, degree + 1)
        direct = to_coords(params, mzstar_apply(params, f), degree + 1)
        np.testing.assert_allclose(direct[:degree], via_matrix[:degree], atol=1e-12)


def test_iterated_shift_adjoint_coefficient_frozen():
    coeff, power = mzstar_on_monomial(SpaceParams(0), 1, 3)
    assert power == 2
    np.testing.assert_allclose(coeff, 0.75, rtol=1e-15)


def test_iterated_shift_adjoint_zero_power_unchanged():
    coeff, power = mzstar_on_monomial(SpaceParams(2), 0, 4)
    assert (coeff, power) == (1.0, 4)


def test_iterated_shift_adjoint_annihilates_low_monomials():
    coeff, _ = mzstar_on_monomial(SpaceParams(0), 5, 3)
    assert coeff == 0.0


def test_single_step_matches_apply_exactly():
    for beta in (0, 1, 2):
        params = SpaceParams(beta)
        for n in range(1, 12):
            coeff, power = mzstar_on_monomial(params, 1, n)
            applied = mzstar_apply(params, monomial(n, n))
            assert power == n - 1
            assert applied.coeffs[n - 1] == coeff


def test_iterated_coefficient_matches_repeated_apply():
    params = SpaceParams(1)
    for n in range(2, 10):
        for m in range(2, min(5, n + 1)):
            coeff, power = mzstar_on_monomial(params, m, n)
            out = monomial(n, n)
            for _ in range(m):
                out = mzstar_apply(params, out)
            np.testing.assert_allclose(out.coeffs[n - m], coeff, rtol=1e-13)
            assert power == n - m


# --- adjoint factorization --------------------------------------------


def test_factorization_of_rotation_is_trivial():
    lam = np.exp(1.1j)
    g, sigma, h = hurst_factors(rotation(lam), SpaceParams(0), 8)
    assert np.array_equal(g.coeffs, np.eye(9)[0])
    assert np.array_equal(h.coeffs, np.eye(9)[0])
    for z in (0.3, -0.5j):
        assert abs(apply_map(sigma, z) - np.conj(lam) * z) < 1e-14


def test_factorization_of_involution_uses_kernel():
    params = SpaceParams(1)
    alpha = 0.4 - 0.1j
    g, sigma, h = hurst_factors(involution(alpha), params, 64)
    np.testing.assert_allclose(
        g.coeffs, kernel_series(params, alpha, 64).coeffs, atol=1e-12
    )
    # companion map is the involution itself and h is the kernel reciprocal
    for z in (0.0, 0.3, 0.2j):
        assert abs(apply_map(sigma, z) - apply_map(involution(alpha), z)) < 1e-13
    product = mul(h, kernel_series(params, alpha, 64), 64)
    np.testing.assert_allclose(product.coeffs, np.eye(65)[0], atol=1e-12)


def test_factorization_of_hyperbolic_model_companion():
    _, sigma, _ = hurst_factors(hyperbolic_model(0.5), SpaceParams(0), 8)
    for z in (0.0, 0.5, -0.2j):
        assert abs(apply_map(sigma, z) - (0.5 * z + 0.5)) < 1e-14


def test_factorization_residual_rotation_exact():
    assert verify_hurst(rotation(np.exp(0.4j)), SpaceParams(0), 64, 8) == 0.0


def test_factorization_residual_small_blocks():
    for beta in (0, 1):
        r = verify_hurst(involution(0.5), SpaceParams(beta), 128, 8)
        assert r < 1e-8


def test_factorization_residual_nonincreasing_in_dimension():
    # The residual does not depend on the degree, only on the block, so the
    # block doubles with it; the identity is exact and the residual is
    # rounding error, which may grow with the block up to the machine floor.
    phi = hyperbolic_model(0.4)
    params = SpaceParams(1)
    prev = verify_hurst(phi, params, 64, 8)
    for degree, block in ((128, 16), (256, 32)):
        cur = verify_hurst(phi, params, degree, block)
        assert cur <= prev or cur < 5e-15  # machine floor once converged
        prev = cur


def test_factorization_block_cap_enforced():
    with pytest.raises(DimMismatchError):
        verify_hurst(involution(0.5), SpaceParams(0), 32, 16)


HURST_SYMBOLS = {
    "involution": involution(0.5),
    "hyperbolic_model": hyperbolic_model(0.5),
    "dilation_about": dilation_about(0.3 + 0.2j, np.exp(0.74j * np.pi)),
    "kernel_check_contraction": compose_maps(
        involution(0.2 - 0.3j), scaled(involution(0.4 + 0.1j), 0.7j)
    ),
    "kernel_check_automorphism": compose_maps(
        involution(-0.5 + 0.2j), scaled(involution(0.1), np.exp(1j))
    ),
}


@pytest.mark.parametrize("name", sorted(HURST_SYMBOLS))
@pytest.mark.parametrize("beta", [-1, 0, 1, 2.5])
@pytest.mark.parametrize("degree, block", [(64, 16), (256, 8)])
def test_factorization_residual_equals_full_degree_route(name, beta, degree, block):
    # Reference: all four matrices built at the full degree, then the block
    # of the residual.  Triangularity makes the small-block route exact.
    phi = HURST_SYMBOLS[name]
    params = SpaceParams(beta)
    g, sigma, h = hurst_factors(phi, params, degree)
    cphi = composition_matrix(phi, params, degree).mat
    csigma = composition_matrix(sigma, params, degree).mat
    mg = multiplication_matrix(g, params, degree).mat
    mh = multiplication_matrix(h, params, degree).mat
    resid = cphi.conj().T - mg @ csigma @ mh.conj().T
    expected = float(np.linalg.norm(resid[:block, :block]))
    assert verify_hurst(phi, params, degree, block) == expected


def test_factorization_rejects_empty_block():
    with pytest.raises(DimMismatchError):
        verify_hurst(involution(0.5), SpaceParams(0), 32, 0)


def _times_power_of_two(phi, exp):
    return Lft(*(t * 2.0**exp for t in (phi.a, phi.b, phi.c, phi.d)))


@pytest.mark.parametrize(
    "phi",
    [
        Lft(0.001, 0.0001, 0.0, 0.002),
        _times_power_of_two(HURST_SYMBOLS["kernel_check_contraction"], -40),
        _times_power_of_two(HURST_SYMBOLS["kernel_check_contraction"], 40),
    ],
    ids=["small-d", "kernel-check-times-2**-40", "kernel-check-times-2**40"],
)
def test_factorization_at_large_beta_whatever_the_scale_of_d(phi):
    # d**(beta+2) and conj(d)**-(beta+2) cancel in the factorization, so
    # neither is formed: far from |d| = 1 one of them leaves the double range.
    assert verify_hurst(phi, SpaceParams(200), 31, 4) < 1e-7


# 2000.5: the weights from n = 219 to 233 are subnormal but not 0.
@pytest.mark.parametrize("beta", [-1, 0, 2, 0.5, 2000.5])
def test_multiplication_matrix_equals_scipy_toeplitz(beta):
    # Weighted like a composition matrix: rows times sqrt(w(n)), then each
    # part of column m divided by sqrt(w(m)).
    from scipy.linalg import toeplitz

    rng = np.random.default_rng(17)
    params = SpaceParams(beta)
    for degree in (0, 1, 5, 40, 230):
        for length in (1, 3, 60):
            psi = TruncatedSeries(rng.normal(size=length) + 1j * rng.normal(size=length))
            col = np.zeros(degree + 1, dtype=np.complex128)
            n = min(degree + 1, length)
            col[:n] = psi.coeffs[:n]
            row = np.zeros(degree + 1, dtype=np.complex128)
            row[0] = col[0]
            sqrtw = np.sqrt(weights(params, degree))
            scaled = toeplitz(col, row) * sqrtw[:, None]
            expected = np.empty_like(scaled)
            expected.real, expected.imag = scaled.real / sqrtw, scaled.imag / sqrtw
            got = multiplication_matrix(psi, params, degree).mat
            assert got.tobytes() == expected.tobytes()


def column_loop_matrix(symbol, params, degree):
    """The composition matrix of a series symbol one column at a time, each power by one more ``mul``."""
    phi = symbol.resized(min(symbol.degree, degree))
    sqrtw = np.sqrt(weights(params, degree))
    mat = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    power = TruncatedSeries.one(degree)
    for j in range(degree + 1):
        scaled = power.coeffs * sqrtw
        mat.real[:, j] = scaled.real / sqrtw[j]
        mat.imag[:, j] = scaled.imag / sqrtw[j]
        if j < degree:
            power = mul(power, phi, degree)
    return mat


_SERIES_SYMBOLS = [TruncatedSeries([0.1, 0.5, -0.2j]), TruncatedSeries([0.0, 0.25, 0.5, 0.125j])]
_rng_kc = np.random.default_rng(0)
_LFT_SYMBOLS = [kernel_check_map(_rng_kc) for _ in range(4)] + [involution(0.3 + 0.4j)]


@pytest.mark.parametrize("beta", [-1, 0, 1, 2.5])
@pytest.mark.parametrize("degree", [0, 1, 64, 200])
def test_composition_matrix_equals_column_loop(beta, degree):
    params = SpaceParams(beta)
    for symbol in _SERIES_SYMBOLS:
        got = composition_matrix(symbol, params, degree).mat
        assert got.tobytes() == column_loop_matrix(symbol, params, degree).tobytes(), symbol


@pytest.mark.parametrize("beta", [-1, 0, 1, 2.5])
@pytest.mark.parametrize("degree", [0, 1, 64, 200])
def test_composition_matrix_of_a_map_is_its_scaled_power_table(beta, degree):
    params = SpaceParams(beta)
    sqrtw = np.sqrt(weights(params, degree))
    for phi in _LFT_SYMBOLS:
        scaled = power_table(phi, degree + 1, degree) * sqrtw[:, None]
        expected = np.empty_like(scaled)
        expected.real, expected.imag = scaled.real / sqrtw, scaled.imag / sqrtw
        assert composition_matrix(phi, params, degree).mat.tobytes() == expected.tobytes(), phi


_HARDY_MAPS = [*_LFT_SYMBOLS, rotation(np.exp(0.4j)), scaled(involution(0.02j), 0.5)]


@pytest.mark.parametrize("degree", [7, 64, 512])
def test_hardy_composition_matrix_is_the_power_table(degree):
    # Every weight is 1 at beta = -1, so the matrix is not weighted at all; a complex
    # multiply by 1 + 0j would turn some -0 parts of the contraction's table into +0.
    for phi in _HARDY_MAPS:
        got = composition_matrix(phi, SpaceParams(-1), degree).mat
        assert got.tobytes() == power_table(phi, degree + 1, degree).tobytes(), (phi, degree)


def test_hardy_multiplication_matrix_is_the_toeplitz_matrix():
    psi = TruncatedSeries([1.0, complex(-0.0, -0.5), complex(-0.25, 0.0), -0.125j, complex(0.0, -0.0)])
    for degree in (0, 3, 40):
        expected = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
        for n in range(degree + 1):
            for j in range(max(0, n - psi.degree), n + 1):
                expected[n, j] = psi.coeffs[n - j]
        got = multiplication_matrix(psi, SpaceParams(-1), degree).mat
        assert got.tobytes() == expected.tobytes(), degree


@pytest.mark.parametrize("alpha", [0.5, 0.3 + 0.4j, -0.9375j])
def test_hardy_adjoint_monomial_is_the_conjugate_power(alpha):
    degree = 40
    for n in (0, 1, 5, 17):
        table = power_table(involution(alpha), degree + 1, n)
        got = adjoint_monomial(SpaceParams(-1), alpha, n, degree).coeffs
        np.testing.assert_array_equal(got, np.conj(table[n]))


@pytest.mark.parametrize("beta", [-1, 0, 1, 2.5])
def test_matrices_of_one_tile_are_blocks_of_a_larger_matrix(beta):
    # The blocks of verify_hurst and `matrix --dim` up to 8 are bitwise those of
    # larger matrices, although their tables are short and the larger ones tiled.
    params = SpaceParams(beta)
    for phi in [*_LFT_SYMBOLS, rotation(np.exp(0.4j))]:
        full = composition_matrix(phi, params, 40).mat
        for degree in range(_TILE):
            block = composition_matrix(phi, params, degree).mat
            assert block.tobytes() == full[: degree + 1, : degree + 1].tobytes(), (phi, degree)


@pytest.mark.parametrize("index", range(len(_LFT_SYMBOLS)))
def test_power_tables_of_the_matrix_maps_within_bound_of_exact(index):
    # Full-precision coefficients make the exact table slow to build: 0.25 s at degree 24.
    phi, degree = _LFT_SYMBOLS[index], 24
    reference = exact.mobius_powers_exact(phi.a, phi.b, phi.c, phi.d, degree + 1, degree)
    table = power_table(phi, degree + 1, degree)
    assert exact.max_error_ratio(table, reference, exact.power_table_bound(degree)) <= 1.0


def test_composition_matrix_rejects_a_map_that_is_not_a_self_map():
    with pytest.raises(NotSelfMapError, match="not a self-map"):
        composition_matrix(Lft(2.0, 0.0, 0.0, 1.0), SpaceParams(0), 8)


@pytest.mark.parametrize(
    "symbol, degree",
    [
        pytest.param(involution(0.5), 256, id="256"),
        pytest.param(involution(0.5), 1024, id="1024"),
        # A series table is filled row-major and handed over as its transpose.
        pytest.param(TruncatedSeries([0.1, 0.5, 0.2j, -0.1]), 256, id="poly-256"),
    ],
)
def test_composition_matrix_allocates_its_result_once(symbol, degree):
    # Beside the result the tiled fill holds its boundary store, 0.27 of it.
    params = SpaceParams(0)
    composition_matrix(symbol, params, degree)  # fills the weight cache
    tracemalloc.start()
    try:
        op = composition_matrix(symbol, params, degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * op.mat.nbytes


@pytest.mark.parametrize(
    "symbol",
    [involution(0.5), TruncatedSeries([0.1, 0.5, 0.2j, -0.1])],
    ids=["scanned-map", "series"],
)
def test_composition_matrix_keeps_the_table_it_fills(symbol):
    # Both tables are views of the array the fill wrote: the top rows of a short
    # table, or the transpose of the row-major series table.  A copy has no base.
    mat = composition_matrix(symbol, SpaceParams(0), _TILE - 1).mat
    assert mat.base is not None
    assert not mat.base.flags.writeable


def test_operator_matrix_copies_writeable_input_and_keeps_read_only_input():
    params = SpaceParams(0)
    a = np.eye(3, dtype=complex)
    op = OperatorMatrix(a, params)
    a[0, 0] = 5.0
    assert op.mat[0, 0] == 1.0
    view = a.view()
    view.flags.writeable = False
    op = OperatorMatrix(view, params)
    a[0, 0] = 6.0
    assert op.mat[0, 0] == 5.0
    a.flags.writeable = False
    assert OperatorMatrix(a, params).mat is a
    cmat = composition_matrix(involution(0.5), params, 8)
    mmat = multiplication_matrix(TruncatedSeries([1.0, 0.5]), params, 8)
    for built in (cmat, mmat, cmat.adjoint()):
        assert not built.mat.flags.writeable
        with pytest.raises(ValueError):
            built.mat[0, 0] = 1.0


def test_negative_degree_is_invalid_input():
    for build in (
        lambda: composition_matrix(involution(0.5), SpaceParams(0), -1),
        lambda: to_series(involution(0.5), -3),
    ):
        with pytest.raises(InvalidInputError, match="degree must be nonnegative"):
            build()


_PSI = TruncatedSeries([1.0, 0.5])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplication_matrix(_PSI, SpaceParams(0), -1), "^degree must be nonnegative, got -1$"),
        (lambda: kernel_series(SpaceParams(0), 0.5, -1), "^degree must be nonnegative, got -1$"),
        (lambda: to_coords(SpaceParams(0), _PSI, -1), "^dim must be at least 1, got -1$"),
        (lambda: to_coords(SpaceParams(0), _PSI, 0), "^dim must be at least 1, got 0$"),
        (lambda: from_coords(SpaceParams(0), []), "^vec must hold at least one coordinate, got 0$"),
        (lambda: mul(_PSI, _PSI, -1), "^degree must be nonnegative, got -1$"),
    ],
    ids=["multiplication_matrix", "kernel_series", "to_coords-negative", "to_coords-zero",
         "from_coords-empty", "mul"],
)
def test_degenerate_sizes_name_the_callers_argument(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


# --- involution adjoint ------------------------------------------------


def test_involution_adjoint_at_zero_alternates_signs():
    params = SpaceParams(0)
    f = TruncatedSeries([1.0, 1.0, 1.0, 1.0, 1.0])
    out = involution_adjoint_apply(params, 0.0, f, 4)
    assert np.array_equal(out.coeffs, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_involution_adjoint_matches_matrix_adjoint():
    degree = 128
    for beta in (0, 1, 2):
        params = SpaceParams(beta)
        T = composition_matrix(involution(0.5), params, degree)
        worst = 0.0
        for n in range(8):
            direct = involution_adjoint_apply(params, 0.5, monomial(n, degree), degree)
            via = from_coords(
                params, T.mat.conj().T @ to_coords(params, monomial(n, degree), degree + 1)
            )
            worst = max(worst, np.max(np.abs(direct.coeffs[:9] - via.coeffs[:9])))
        assert worst < 1e-8


def test_involution_adjoint_sends_kernel_to_constant():
    params = SpaceParams(0)
    out = involution_adjoint_apply(params, 0.5, kernel_series(params, 0.5, 256), 256)
    assert abs(out.coeffs[0] - 1.0) < 1e-8
    assert np.max(np.abs(out.coeffs[1:65])) < 1e-8


def test_finite_sum_sign_convention_is_discriminating():
    # the binomial weights must carry powers of -alpha, not -conj(alpha)
    params = SpaceParams(0)
    alpha = 0.3j
    degree = 128
    T = composition_matrix(involution(alpha), params, degree)
    right_w = _binomial_alpha_weights(alpha, 0)
    wrong_w = np.array([comb(2, k) * (-np.conj(alpha)) ** k for k in range(3)])
    right_err = 0.0
    wrong_err = 0.0
    for n in range(8):
        f = monomial(n, degree)
        oracle = T.mat.conj().T @ to_coords(params, f, degree + 1)
        right = to_coords(params, _cowen_sum(params, alpha, f, degree, right_w), degree + 1)
        wrong = to_coords(params, _cowen_sum(params, alpha, f, degree, wrong_w), degree + 1)
        right_err = max(right_err, np.max(np.abs((right - oracle)[:9])))
        wrong_err = max(wrong_err, np.max(np.abs((wrong - oracle)[:9])))
    assert right_err < 1e-8
    assert wrong_err > 1e-3


# Dyadic points at four angles, up to |alpha| = 0.8125: the exact images
# are those of the very floats the library receives.
_ORACLE_ALPHAS = [0.8125, 0.5 + 0.625j, -0.8125j, -0.625 - 0.5j]


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
def test_adjoint_images_within_bound_of_exact_images(alpha):
    # The finite formula at integer beta, adjoint_monomial at the rest; both
    # are judged by the power-table bound.
    degree = 48
    phi = involution(alpha)
    table = exact.mobius_powers_exact(phi.a, phi.b, phi.c, phi.d, degree + 1, degree)
    bound = exact.power_table_bound(degree)
    for beta in (0, 1, 2, 0.5, 2.5):
        params = SpaceParams(beta)
        for n in (0, 3, 12, 24, 48):
            if params.integer_beta:
                got = involution_adjoint_apply(params, alpha, monomial(n, degree), degree)
            else:
                got = adjoint_monomial(params, alpha, n, degree)
            reference = exact.adjoint_image_exact(table, beta, n)
            assert exact.max_error_ratio([got.coeffs], [reference], bound) <= 1.0, (beta, n)


# Dyadic points with |alpha| from 0.875 to 0.984375, where the finite formula
# of involution_adjoint_apply leaves the bound: 1.2 to 20 times it at beta = 2.
_NEAR_CIRCLE_ALPHAS = [0.875, -0.9375j, 0.96875, -0.984375]


@pytest.mark.parametrize("alpha", _NEAR_CIRCLE_ALPHAS)
def test_adjoint_monomial_within_bound_of_exact_images_near_the_circle(alpha):
    degree = 48
    phi = involution(alpha)
    table = exact.mobius_powers_exact(phi.a, phi.b, phi.c, phi.d, degree + 1, degree)
    bound = exact.power_table_bound(degree)
    for beta in (0, 1, 2):
        for n in (0, 3, 12, 24, 48):
            got = adjoint_monomial(SpaceParams(beta), alpha, n, degree)
            reference = exact.adjoint_image_exact(table, beta, n)
            assert exact.max_error_ratio([got.coeffs], [reference], bound) <= 1.0, (beta, n)


@pytest.mark.parametrize("beta", [-1, 0, 2])
def test_involution_adjoint_composes_once_and_multiplies_once(monkeypatch, beta):
    calls = {"compose": 0, "mul": 0}

    def counted(name):
        inner = getattr(operators, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for name in calls:
        monkeypatch.setattr(operators, name, counted(name))
    involution_adjoint_apply(SpaceParams(beta), 0.5 + 0.25j, monomial(6, 32), 32)
    assert calls == {"compose": 1, "mul": 1}


# --- coordinate maps ---------------------------------------------------


def test_coordinate_round_trip():
    rng = np.random.default_rng(44)
    params = SpaceParams(0.7)
    f = random_poly(rng, 9)
    back = from_coords(params, to_coords(params, f, 10))
    padded = np.zeros(10, dtype=complex)
    padded[: len(f.coeffs)] = f.coeffs
    np.testing.assert_allclose(back.coeffs, padded, rtol=1e-13)


def test_coordinates_of_a_strided_vector_are_those_of_its_copy():
    rng = np.random.default_rng(46)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    params = SpaceParams(0.7)
    strided = from_coords(params, v[::2]).coeffs
    assert strided.tobytes() == from_coords(params, v[::2].copy()).coeffs.tobytes()


def test_coordinates_preserve_norm():
    rng = np.random.default_rng(45)
    params = SpaceParams(2)
    f = random_poly(rng, 14)
    coords = to_coords(params, f, 15)
    np.testing.assert_allclose(
        np.linalg.norm(coords) ** 2, inner_product(params, f, f).real, rtol=1e-12
    )


# At beta = 2000.5 every weight from w(234) on underflows to 0.0.
_UNDERFLOW = SpaceParams(2000.5)
_ZERO_WEIGHT = r"w\(234\) underflows to 0 at beta = 2000.5"
# Weights below 2**-1022 are subnormal, not 0, and a division by one can
# overflow: 1 / w(219) = 1 / 9.41e-310 does.  A complex numerator is divided
# part by part, so the kernel at 0.9 first overflows where its quotient
# does, 0.9**229 / w(229) = 3.2e308.
_SUBNORMAL_WEIGHT = r"a division by w\(219\) = 9.41e-310 leaves the double range at beta = 2000.5"
_KERNEL_OVERFLOW = r"a division by w\(229\) = 1.02e-319 leaves the double range at beta = 2000.5"
# Coordinates become coefficients through a division by sqrt(w(n)).
_COORDS_OVERFLOW = r"a division by sqrt\(w\(227\)\) = 3.12e-159 leaves the double range at beta = 2000.5"
_IMAGE_OVERFLOW = r"a division by sqrt\(w\(229\)\) = 3.2e-160 leaves the double range at beta = 2000.5"


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: composition_matrix(involution(0.3), _UNDERFLOW, 599), _ZERO_WEIGHT),
        (lambda: multiplication_matrix(TruncatedSeries([1.0, 0.5]), _UNDERFLOW, 599), _ZERO_WEIGHT),
        (lambda: from_coords(_UNDERFLOW, np.ones(600)), _ZERO_WEIGHT),
        (lambda: kernel_series(_UNDERFLOW, 0.3, 599), _ZERO_WEIGHT),
        (lambda: adjoint_monomial(_UNDERFLOW, 0.3, 2, 599), _ZERO_WEIGHT),
        (lambda: weight_reciprocal_sums(_UNDERFLOW, 599), _ZERO_WEIGHT),
        (lambda: kernel_series(_UNDERFLOW, 0.9, 233), _KERNEL_OVERFLOW),
        (lambda: weight_reciprocal_sums(_UNDERFLOW, 233), _SUBNORMAL_WEIGHT),
        (lambda: from_coords(_UNDERFLOW, np.full(234, 1e150)), _COORDS_OVERFLOW),
        (lambda: adjoint_monomial(_UNDERFLOW, 0.9, 0, 233), _IMAGE_OVERFLOW),
    ],
    ids=["composition_matrix", "multiplication_matrix", "from_coords", "kernel_series",
         "adjoint_monomial", "weight_reciprocal_sums", "kernel_series-overflow",
         "weight_reciprocal_sums-overflow", "from_coords-overflow", "adjoint_monomial-overflow"],
)
def test_division_by_an_underflowed_weight_is_invalid_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()


def test_products_with_underflowed_weights_stay_finite():
    w = weights(_UNDERFLOW, 599)
    assert w[233] > 0.0 == w[234]
    f = TruncatedSeries(np.ones(600))
    coords = to_coords(_UNDERFLOW, f, 600)
    assert not coords[234:].any() and coords[233] != 0.0
    assert norm(_UNDERFLOW, f) ** 2 == pytest.approx(inner_product(_UNDERFLOW, f, f).real)
    assert composition_matrix(involution(0.3), _UNDERFLOW, 233).mat.shape == (234, 234)


# Parts of every sign of zero, among them the (-0, y < 0) and (x >= 0, -0) that a numpy
# complex product by a real turns into +0.
_SIGNED_ZEROS = [complex(-0.0, -1.5), complex(0.0, -0.0), complex(2.0, -0.0), complex(-0.0, 0.0),
                 complex(-0.0, -0.0), complex(-3.0, -0.0)]


@pytest.mark.parametrize("n_max", [0, 1, 230, 600])
@pytest.mark.parametrize("beta", [-1, 0, 2.5, 2000.5])
def test_coordinates_are_coefficients_times_the_square_roots_of_the_weights(beta, n_max):
    params = SpaceParams(beta)
    rng = np.random.default_rng(48)
    values = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    values[::7] = np.resize(_SIGNED_ZEROS, values[::7].size)
    w = weights(params, n_max)
    sqrtw = np.sqrt(w)
    # the product by sqrt(w) is numpy's complex-by-real one; at beta = -1, where
    # sqrt(w) = 1, it is skipped and the zero signs that product would change stay
    expected = values if params.unit_weights else values * sqrtw
    assert to_coords(params, TruncatedSeries(values), n_max + 1).tobytes() == expected.tobytes()
    if w[-1] == 0.0:
        with pytest.raises(InvalidInputError, match=_ZERO_WEIGHT):
            from_coords(params, values)
        return
    parts = values.view(np.float64).reshape(-1, 2)
    quotient = (parts / sqrtw[:, None]).view(np.complex128).reshape(-1)
    assert from_coords(params, values).coeffs.tobytes() == quotient.tobytes()
