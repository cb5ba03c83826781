"""Conjugations, symmetry residuals, Gram diagnostics, obstruction witnesses."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergman_csym.operators as operators
from bergman_csym import (
    ArgOutsideDiskError,
    ConjugationMatrix,
    DimMismatchError,
    GramTable,
    IntegerBetaError,
    InvalidInputError,
    NonIntegerBetaError,
    NotAnEigenvectorError,
    OperatorMatrix,
    SpaceParams,
    TruncatedSeries,
    adjoint_monomial,
    composition_matrix,
    conjugation_search,
    csym_residual,
    dilation_about,
    elliptic_certificate,
    from_coords,
    gram_column_zero,
    gram_exact,
    gram_truncated,
    hyperbolic_model,
    inner_product,
    involution,
    involution_adjoint_apply,
    kernel_series,
    mul,
    mzstar_on_monomial,
    obstruction_witness,
    orbit_gram,
    rotation,
    spectral_symmetry_check,
    subspace_orthogonality,
    suggest_kernel_degree,
    to_coords,
    to_series,
    weight,
    weights,
)
from bergman_csym.csym import _random_symmetric_unitary, _symmetric_polar
from bergman_csym.lft import power_table
from bergman_csym.operators import _binomial_alpha_weights
import exact
from helpers import horner_compose


def random_symmetric_matrix(rng, n):
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return s + s.T


def conjugation_invariant_defects(c):
    u = c.u
    return (
        np.linalg.norm(u @ u.conj().T - np.eye(c.dim)),
        np.linalg.norm(u - u.T),
    )


# --- conjugation matrices ---------------------------------------------


def test_identity_conjugation_squares_to_identity():
    c = ConjugationMatrix.identity(6)
    v = np.arange(6) + 1j * np.arange(6)[::-1]
    np.testing.assert_allclose(c.apply(c.apply(v)), v, atol=1e-14)


def test_conjugation_rejects_non_unitary():
    with pytest.raises(ValueError):
        ConjugationMatrix(np.diag([1.0, 0.5]))


def test_conjugation_rejects_asymmetric_unitary():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    assert np.linalg.norm(q - q.T) > 1e-3  # generic unitary is not symmetric
    with pytest.raises(ValueError):
        ConjugationMatrix(q)


def test_random_symmetric_unitary_generator_is_valid():
    rng = np.random.default_rng(5)
    for n in (2, 7, 16):
        u = _random_symmetric_unitary(rng, n)
        c = ConjugationMatrix(u)  # constructor enforces both invariants
        uni, sym = conjugation_invariant_defects(c)
        assert uni < 1e-12 and sym < 1e-12


# --- symmetry residual -------------------------------------------------


def test_diagonal_operator_is_symmetric_under_coefficient_conjugation():
    T = composition_matrix(rotation(np.exp(0.9j)), SpaceParams(0), 10)
    assert csym_residual(T, ConjugationMatrix.identity(11)) == 0.0


def test_involution_compression_fails_coefficient_conjugation():
    T = composition_matrix(involution(0.5), SpaceParams(0), 24)
    assert csym_residual(T, ConjugationMatrix.identity(25)) > 1.0


def test_residual_agrees_between_equivalent_forms():
    rng = np.random.default_rng(13)
    T = OperatorMatrix(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)), SpaceParams(0))
    c = ConjugationMatrix(_random_symmetric_unitary(rng, 9))
    lhs = csym_residual(T, c)
    # same quantity written as ||U conj(T) - T^H U||, unitary invariance
    rhs = np.linalg.norm(c.u @ np.conj(T.mat) - T.mat.conj().T @ c.u)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_residual_dimension_mismatch_rejected():
    T = composition_matrix(rotation(1j), SpaceParams(0), 8)
    with pytest.raises(DimMismatchError):
        csym_residual(T, ConjugationMatrix.identity(4))


def test_exactly_symmetric_product_construction():
    # U symmetric unitary times complex symmetric A is symmetric for U itself
    rng = np.random.default_rng(11)
    for n in (8, 32):
        u = _random_symmetric_unitary(rng, n)
        T = OperatorMatrix(u @ random_symmetric_matrix(rng, n), SpaceParams(0))
        assert csym_residual(T, ConjugationMatrix(u)) < 1e-11


# --- spectral transport ------------------------------------------------


def test_rotation_eigenbasis_has_zero_defect():
    lam = np.exp(0.9j)
    T = composition_matrix(rotation(lam), SpaceParams(0), 10)
    pairs = [(lam**n, np.eye(11)[n]) for n in range(11)]
    assert spectral_symmetry_check(T, ConjugationMatrix.identity(11), pairs) < 1e-14


def test_any_diagonal_phase_conjugation_works_for_rotation():
    lam = np.exp(2j * np.pi / 7)
    T = composition_matrix(rotation(lam), SpaceParams(0), 12)
    rng = np.random.default_rng(2)
    pairs = [(lam**n, np.eye(13)[n]) for n in range(6)]
    for _ in range(5):
        c = ConjugationMatrix(np.diag(np.exp(2j * np.pi * rng.uniform(size=13))))
        assert csym_residual(T, c) < 1e-13
        assert spectral_symmetry_check(T, c, pairs) < 1e-12


def test_valid_conjugation_transports_eigenvectors():
    # with an exactly symmetric operator the transported pairs stay eigenpairs
    rng = np.random.default_rng(11)
    n = 128
    u = _random_symmetric_unitary(rng, n)
    T = OperatorMatrix(u @ random_symmetric_matrix(rng, n), SpaceParams(0))
    evals, evecs = np.linalg.eig(T.mat)
    pairs = [(evals[k], evecs[:, k]) for k in range(6)]
    defect = spectral_symmetry_check(T, ConjugationMatrix(u), pairs)
    assert defect < 1e-6


def test_defect_bounded_by_residual_plus_eigenresidual():
    # holds for every conjugation, valid or not
    params = SpaceParams(0)
    phi = dilation_about(0.3, np.exp(1j * np.pi / 4))
    T = composition_matrix(phi, params, 24)
    found = conjugation_search(T, iters=12, seed=1)
    resid = csym_residual(T, found.conjugation)
    lam = np.exp(1j * np.pi / 4)
    v = to_coords(params, to_series(involution(0.3), 24), 25)
    eig_res = np.linalg.norm(T.mat @ v - lam * v) / np.linalg.norm(v)
    assert eig_res < 1e-8
    defect = spectral_symmetry_check(T, found.conjugation, [(lam, v)])
    assert defect <= resid + eig_res + 1e-10


def test_elliptic_eigenpairs_pass_the_eigenvector_gate():
    # powers of the centered swap are eigenvectors of the compression
    params = SpaceParams(0)
    gamma, lam = 0.3, np.exp(1j * np.pi / 4)
    T = composition_matrix(dilation_about(gamma, lam), params, 128)
    base = to_series(involution(gamma), 128)
    from bergman_csym import mul

    power = TruncatedSeries.one(128)
    for n in range(1, 6):
        power = mul(power, base, 128)
        v = to_coords(params, power, 129)
        assert np.linalg.norm(T.mat @ v - lam**n * v) < 1e-8 * np.linalg.norm(v)


def test_random_conjugation_on_generic_operator_has_large_defect():
    rng = np.random.default_rng(3)
    u = _random_symmetric_unitary(rng, 12)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    evals, evecs = np.linalg.eig(m)
    pairs = [(evals[k], evecs[:, k]) for k in range(4)]
    defect = spectral_symmetry_check(
        OperatorMatrix(m, SpaceParams(0)), ConjugationMatrix(u), pairs
    )
    assert defect > 0.1


def test_non_eigenvector_claims_rejected():
    T = composition_matrix(rotation(1j), SpaceParams(0), 6)
    bogus = np.ones(7)
    with pytest.raises(NotAnEigenvectorError):
        spectral_symmetry_check(T, ConjugationMatrix.identity(7), [(1.0, bogus)])


def test_distinct_eigenvalues_give_conjugate_orthogonality():
    rng = np.random.default_rng(11)
    n = 32
    u = _random_symmetric_unitary(rng, n)
    T = u @ random_symmetric_matrix(rng, n)
    c = ConjugationMatrix(u)
    evals, evecs = np.linalg.eig(T)
    checked = 0
    for i in range(6):
        for j in range(6):
            if i == j or abs(evals[i] - evals[j]) < 0.1:
                continue
            f, g = evecs[:, i], evecs[:, j]
            overlap = abs(np.vdot(c.apply(g), f))
            assert overlap < 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)
            checked += 1
    assert checked > 4


# --- adjoint monomial images ------------------------------------------


def test_adjoint_of_constant_is_the_kernel():
    for beta in (0, 1):
        params = SpaceParams(beta)
        v0 = adjoint_monomial(params, 0.5, 0, 256)
        k = kernel_series(params, 0.5, 256)
        assert np.max(np.abs(v0.coeffs - k.coeffs)) < 1e-9


def test_adjoint_monomials_at_zero_alternate():
    params = SpaceParams(0)
    for n in range(5):
        v = adjoint_monomial(params, 0.0, n, 8)
        expected = np.zeros(9, dtype=complex)
        expected[n] = (-1.0) ** n
        np.testing.assert_allclose(v.coeffs, expected, atol=1e-14)


def test_adjoint_images_two_route_inner_products():
    # series route against the conjugate-transpose matrix route
    params = SpaceParams(0)
    alpha, degree = 0.5, 256
    T = composition_matrix(involution(alpha), params, degree)
    product = T.mat @ T.mat.conj().T
    worst = 0.0
    for n in range(9):
        for m in range(9):
            series_route = inner_product(
                params,
                adjoint_monomial(params, alpha, n, degree),
                adjoint_monomial(params, alpha, m, degree),
            )
            en = np.zeros(degree + 1)
            en[n] = 1.0
            em = np.zeros(degree + 1)
            em[m] = 1.0
            scale = np.sqrt(
                inner_product(params, TruncatedSeries.monomial(n, n), TruncatedSeries.monomial(n, n)).real
                * inner_product(params, TruncatedSeries.monomial(m, m), TruncatedSeries.monomial(m, m)).real
            )
            matrix_route = np.vdot(em, product @ en) * scale
            worst = max(worst, abs(series_route - matrix_route))
    assert worst < 1e-9


@pytest.mark.parametrize("beta", [-0.5, 0.5, 2.5, 7.25])
def test_noninteger_adjoint_monomial_equals_the_matrix_route(beta):
    # The route it replaced: the conjugate transpose of the whole truncated
    # composition matrix applied to the coordinates of z**n.  Coefficient m
    # of either image is w(n) conj(T[n, m]) / w(m) for its own power table T,
    # and the short table of n + 1 rows agrees with the square one within the
    # power-table bound.
    params = SpaceParams(beta)
    for alpha in (0.5, 0.3 + 0.4j, -0.7j, complex(-0.0, 0.5), complex(0.5, -0.0), -0.0):
        for degree in (0, 1, 6, 64):
            cmat = composition_matrix(involution(alpha), params, degree).mat
            square = power_table(involution(alpha), degree + 1, degree)
            bound = float(exact.power_table_bound(degree)) * np.max(np.abs(square))
            w = weights(params, degree)
            for n in sorted({0, min(1, degree), degree // 2, degree}):
                coords = to_coords(params, TruncatedSeries.monomial(n, degree), degree + 1)
                reference = from_coords(params, cmat.conj().T @ coords).coeffs
                got = adjoint_monomial(params, alpha, n, degree).coeffs
                assert np.all(np.abs(got - reference) <= bound * w[n] / w)


# At beta = 2000.5 the weights w(219), ..., w(233) are subnormal; w(233) =
# 1e-323 is two ulps.  The adjoint images and their Gram entries are still
# doubles, so no step may form a product w(n) T[n, m], which keeps only those
# few ulps.  References are exact for the float power table and the float
# weights the library holds.
_SUBNORMAL = SpaceParams(2000.5)


@pytest.mark.parametrize("n", [219, 233])
def test_adjoint_monomial_at_subnormal_weights(n):
    # Coefficient m is w(n) conj(T[n, m]) / w(m): two rounded square roots,
    # each used twice, and four products or quotients put it within 8u of
    # that, plus two roundings below the normal range, the first magnified
    # by the last division, by sqrt(w(m)).
    degree = 233
    w = weights(_SUBNORMAL, degree)
    for alpha in (0.5 + 0.25j, 0.9, -0.3j, -0.95 + 0.1j):
        row = power_table(involution(alpha), degree + 1, n)[n]
        got = adjoint_monomial(_SUBNORMAL, alpha, n, degree).coeffs
        for m in range(degree + 1):
            ratio = Fraction(w[n]) / Fraction(w[m])
            re, im = Fraction(row[m].real) * ratio, -Fraction(row[m].imag) * ratio
            err = math.hypot(Fraction(got[m].real) - re, Fraction(got[m].imag) - im)
            floor = 2.0**-1074 / math.sqrt(w[m])
            assert err <= 8 * 2.0**-53 * math.hypot(re, im) + floor, (alpha, m)


def test_gram_truncated_at_subnormal_weights():
    # G[n, m] = w(n) w(m) sum_k conj(T[n, k]) T[m, k] / w(k), within the
    # rounding that _gram_perturbation allows for, plus half an ulp below the
    # normal range for each of the degree + 1 products and sums.
    degree = 233
    w = [Fraction(x) for x in weights(_SUBNORMAL, degree)]
    slack = 2 * exact.gamma(degree + 7)
    floor = (degree + 1) * 2.0**-1074
    for alpha in (0.9, 0.5 + 0.25j, -0.3j):
        table = power_table(involution(alpha), degree + 1, degree)
        got = gram_truncated(_SUBNORMAL, alpha, degree + 1, degree).entries
        for n, m in ((0, 0), (3, 0), (219, 0), (219, 219), (233, 2), (233, 219)):
            re = im = size = Fraction(0)
            for k in range(degree + 1):
                ar, ai = Fraction(table[n, k].real), -Fraction(table[n, k].imag)
                br, bi = Fraction(table[m, k].real), Fraction(table[m, k].imag)
                tr, ti = (ar * br - ai * bi) / w[k], (ar * bi + ai * br) / w[k]
                re, im, size = re + tr, im + ti, size + abs(tr) + abs(ti)
            scale = w[n] * w[m]
            err = math.hypot(Fraction(got[n, m].real) - re * scale, Fraction(got[n, m].imag) - im * scale)
            assert err <= slack * size * scale + floor, (alpha, n, m)


# --- exact Gram tables -------------------------------------------------


def test_gram_band_vanishes_for_integer_parameters():
    for beta in (0, 1, 2, 3):
        size = 2 * beta + 13
        for alpha in (0.5, 0.3j, -0.7):
            table = gram_exact(SpaceParams(beta), alpha, size)
            assert table.max_out_of_band() < 1e-10


def test_gram_band_zeros_are_exact_in_the_reference_case():
    table = gram_exact(SpaceParams(0), 0.5, 13)
    assert table.max_out_of_band() == 0.0


def test_gram_is_hermitian():
    for beta, alpha in [(0, 0.3j), (2, -0.7), (1, 0.5)]:
        g = gram_exact(SpaceParams(beta), alpha, 2 * beta + 13).entries
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_gram_frozen_column_values():
    g = gram_exact(SpaceParams(0), 0.5, 13).entries
    np.testing.assert_allclose(g[0, 0], 16 / 9, rtol=1e-14)
    np.testing.assert_allclose(g[1, 0], -8 / 9, rtol=1e-14)
    np.testing.assert_allclose(g[2, 0], 4 / 27, rtol=1e-13)
    assert g[3, 0] == 0.0
    assert g[12, 0] == 0.0


def test_gram_column_sharpness_at_band_edge():
    for beta, alpha in [(0, 0.5), (1, 0.3j), (2, -0.7)]:
        g = gram_exact(SpaceParams(beta), alpha, 2 * beta + 13).entries
        assert abs(g[2 + beta, 0]) > 1e-6
        assert abs(g[3 + beta, 0]) < 1e-12


def test_gram_matches_truncated_route():
    exact = gram_exact(SpaceParams(0), 0.5, 13).entries
    truncated = gram_truncated(SpaceParams(0), 0.5, 13, 256).entries
    assert np.max(np.abs(exact - truncated)) < 1e-8


@pytest.mark.parametrize("beta", [-0.5, 0, 1, 2.5])
def test_gram_truncated_reads_the_first_rows_of_the_composition_matrix(beta):
    # The short table of size rows agrees with the square one within the
    # power-table bound; the Gram entries within what that bound allows.
    params = SpaceParams(beta)
    for alpha in (0.5, 0.3 + 0.4j, -0.7j):
        for size, degree in ((1, 0), (12, 11), (8, 64), (13, 256)):
            square = power_table(involution(alpha), degree + 1, degree)
            short = power_table(involution(alpha), degree + 1, size - 1)
            bound = float(exact.power_table_bound(degree)) * np.max(np.abs(square))
            assert np.max(np.abs(short - square[:size])) <= bound
            full = composition_matrix(involution(alpha), params, degree).mat
            cols = full.conj().T[:, :size] * np.sqrt(weights(params, size - 1))[None, :]
            got = gram_truncated(params, alpha, size, degree).entries
            assert np.all(np.abs(got - cols.T @ np.conj(cols)) <= _gram_perturbation(params, cols, bound))


def _gram_perturbation(params, cols, bound):
    """How far ``G = cols^T conj(cols)`` may move when every power-table entry moves by ``bound``.

    Column n of ``cols`` is ``w(n) conj(T[n, j]) / sqrt(w(j))``, so it moves by at
    most ``e_n = bound w(n) ||1/sqrt(w)||``; entry ``(n, m)`` then moves by at most
    ``e_n |v_m| + |v_n| e_m + e_n e_m``, plus the rounding of building and
    summing the products on both sides, ``degree + 7`` roundings each.
    """
    degree, size = cols.shape[0] - 1, cols.shape[1]
    w = weights(params, degree)
    e = bound * w[:size] * np.sqrt(np.sum(1.0 / w)) * (1.0 + 2.0**-40)
    v = np.linalg.norm(cols, axis=0)
    rounding = 2.0 * float(exact.gamma(degree + 7)) * np.outer(v + e, v + e)
    return np.outer(e, v) + np.outer(v, e) + np.outer(e, e) + rounding


def test_gram_truncated_serves_noninteger_parameters():
    table = gram_truncated(SpaceParams(-0.5), 0.4, 6, 256)
    assert table.entries.shape == (6, 6)
    assert np.max(np.abs(table.entries - table.entries.conj().T)) < 1e-10


def test_gram_exact_requires_integer_parameter():
    with pytest.raises(NonIntegerBetaError):
        gram_exact(SpaceParams(0.5), 0.4, 8)


def _gram_entries(params, alpha, pairs):
    # Reference: each requested (n, m) pair and every k, keeping the legal ones.
    top = int(params.beta) + 2
    r = _binomial_alpha_weights(complex(alpha), int(params.beta))
    w = weights(params, max(n for n, _ in pairs))
    prefactor = (1.0 - abs(complex(alpha)) ** 2) ** (-top)
    entries = []
    for n, m in pairs:
        acc = 0.0 + 0.0j
        for k in range(min(top, m) + 1):
            j = k + n - m
            if 0 <= j <= top:
                acc += np.conj(r[k]) * r[j] * mzstar_on_monomial(params, k, m)[0]
        entries.append(w[n] * prefactor * acc)
    return np.array(entries, dtype=np.complex128)


def _gram_full_table(params, alpha, size):
    pairs = [(n, m) for n in range(size) for m in range(size)]
    return _gram_entries(params, alpha, pairs).reshape(size, size)


@pytest.mark.parametrize("beta", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.3 + 0.4j, complex(-0.0, 0.5)])
def test_gram_band_route_equals_full_table(beta, alpha):
    params = SpaceParams(beta)
    for size in (1, 2, 3, 13, 40, 256):
        expected = _gram_full_table(params, alpha, size)
        assert gram_exact(params, alpha, size).entries.tobytes() == expected.tobytes()


def test_gram_at_zero_center_is_diagonal():
    from bergman_csym import weight

    g = gram_exact(SpaceParams(1), 0.0, 9).entries
    off = g.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) == 0.0
    np.testing.assert_allclose(
        np.diag(g).real, [weight(SpaceParams(1), n) for n in range(9)], rtol=1e-12
    )


def test_gram_table_copies_writeable_input_and_keeps_read_only_input():
    a = np.eye(3, dtype=complex)
    table = GramTable(0.0, 0.5, a)
    a[0, 0] = 5.0
    assert table.entries[0, 0] == 1.0
    view = a.view()
    view.flags.writeable = False
    table = GramTable(0.0, 0.5, view)
    a[0, 0] = 6.0
    assert table.entries[0, 0] == 5.0
    a.flags.writeable = False
    assert GramTable(0.0, 0.5, a).entries is a
    with pytest.raises(DimMismatchError):
        GramTable(0.0, 0.5, np.zeros((2, 3)))
    for built in (gram_exact(SpaceParams(1), 0.5, 6), gram_truncated(SpaceParams(0.5), 0.5, 6, 16)):
        assert not built.entries.flags.writeable
        with pytest.raises(ValueError):
            built.entries[0, 0] = 1.0


# --- generalized column entries ---------------------------------------


def test_generalized_column_entry_frozen():
    val = gram_column_zero(SpaceParams(-0.5), 0.4, 1)
    np.testing.assert_allclose(val, -0.4 / (1 - 0.16) ** 1.5, rtol=1e-13)
    np.testing.assert_allclose(val, -0.5195664053237915, rtol=1e-12)


def test_generalized_column_matches_matrix_route():
    params = SpaceParams(-0.5)
    alpha, degree = 0.4, 512
    for n in (1, 2, 5):
        series_route = inner_product(
            params,
            adjoint_monomial(params, alpha, n, degree),
            adjoint_monomial(params, alpha, 0, degree),
        )
        np.testing.assert_allclose(
            gram_column_zero(params, alpha, n), series_route, atol=1e-8
        )


def test_generalized_column_never_vanishes_off_center():
    # non-integer exponent keeps every binomial coefficient nonzero
    params = SpaceParams(0.5)
    for n in range(1, 9):
        assert abs(gram_column_zero(params, 0.3, n)) > 0.0


def test_generalized_column_zero_at_zero_center():
    assert gram_column_zero(SpaceParams(-0.5), 0.0, 3) == 0.0


def test_generalized_column_rejects_integer_parameter():
    with pytest.raises(IntegerBetaError):
        gram_column_zero(SpaceParams(1), 0.4, 2)


# --- subspace orthogonality certificates ------------------------------


def test_subspace_certificates_above_threshold():
    for beta, order in [(0, 6), (1, 8), (2, 10)]:
        report = subspace_orthogonality(SpaceParams(beta), 0.5, order, 4)
        assert report.guaranteed
        assert report.threshold == 2 * (3 + beta)
        assert report.max_cross < 1e-10


def test_invalid_sizes_are_invalid_input():
    with pytest.raises(InvalidInputError):
        gram_exact(SpaceParams(0), 0.5, 0)
    for order, count in ((0, 3), (4, 0)):
        with pytest.raises(InvalidInputError):
            subspace_orthogonality(SpaceParams(0), 0.5, order, count)


@pytest.mark.parametrize("size,degree", [(-2, 7), (0, 7), (4, -1), (9, 7)])
def test_gram_truncated_sizes_are_invalid_input(size, degree):
    with pytest.raises(InvalidInputError):
        gram_truncated(SpaceParams(0.5), 0.4, size, degree)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: gram_exact(SpaceParams(0), a, 4),
        lambda a: gram_column_zero(SpaceParams(0.5), a, 2),
        lambda a: obstruction_witness(a, 0),
        lambda a: involution(a),
        lambda a: involution_adjoint_apply(SpaceParams(0), a, TruncatedSeries([1.0]), 4),
        lambda a: kernel_series(SpaceParams(0), a, 4),
        lambda a: suggest_kernel_degree(a, 1e-8),
    ],
    ids=["gram_exact", "gram_column_zero", "obstruction_witness", "involution",
         "involution_adjoint_apply", "kernel_series", "suggest_kernel_degree"],
)
@pytest.mark.parametrize("alpha", [complex("nan"), complex(0.0, math.nan), 1.0, 0.6 + 0.8j, 2.0])
def test_points_outside_the_open_disk_are_rejected(call, alpha):
    with pytest.raises(ArgOutsideDiskError):
        call(alpha)


def test_elliptic_certificate_needs_high_order_elliptic_automorphism():
    params = SpaceParams(0)
    report = elliptic_certificate(dilation_about(0.3, np.exp(2j * np.pi / 8)), params)
    assert (report.order, report.count, report.guaranteed) == (8, 3, True)
    assert report.max_cross == 0.0
    assert abs(report.alpha - 0.3) < 1e-12
    assert elliptic_certificate(dilation_about(0.3, np.exp(2j * np.pi / 5)), params) is None
    assert elliptic_certificate(hyperbolic_model(0.5), params) is None
    assert elliptic_certificate(rotation(np.exp(2j * np.pi / 8)), params) is None
    noninteger = SpaceParams(0.5)
    assert elliptic_certificate(dilation_about(0.3, np.exp(2j * np.pi / 8)), noninteger) is None


def test_subspace_small_order_is_flagged_not_certified():
    report = subspace_orthogonality(SpaceParams(0), 0.5, 3, 3)
    assert not report.guaranteed
    assert report.max_cross > 1e-6  # crossings genuinely appear below threshold


def _cross_pairs(beta, order, count):
    return [(k * order, j * order + beta + 3) for k in range(count) for j in range(count)]


@pytest.mark.parametrize("beta", range(21))
def test_certificate_holds_from_the_threshold_and_fails_just_below(beta):
    params = SpaceParams(beta)
    threshold = 2 * (3 + beta)
    for alpha in (0.1, -0.5 + 0.6j):
        # The band fact itself, from the entry-by-entry oracle.
        assert np.all(_gram_entries(params, alpha, _cross_pairs(beta, threshold, 4)) == 0.0)
        for order in (threshold, 10**6):
            report = subspace_orthogonality(params, alpha, order, 4)
            assert (report.guaranteed, report.threshold, report.max_cross) == (True, threshold, 0.0)
        below = subspace_orthogonality(params, alpha, threshold - 1, 4)
        oracle = _gram_entries(params, alpha, _cross_pairs(beta, threshold - 1, 4))
        assert not below.guaranteed
        assert below.max_cross == float(np.max(np.abs(oracle))) > 0.0


def test_certificate_memory_does_not_grow_with_the_order():
    tracemalloc.start()
    try:
        report = subspace_orthogonality(SpaceParams(0), 0.5, 500, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_cross == 0.0
    assert peak < 1 << 20


def test_certificate_below_threshold_builds_no_table():
    params = SpaceParams(0)
    tracemalloc.start()
    try:
        report = subspace_orthogonality(params, 0.5, 5, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 19  # the dense table route peaks at 17 MB
    # Equal to the gather from the dense table, over all 200 x 200 cross pairs.
    rows, cols = zip(*_cross_pairs(0, 5, 200))
    dense = gram_exact(params, 0.5, 199 * 5 + 4).entries[list(rows), list(cols)]
    assert not report.guaranteed
    assert report.max_cross == float(np.max(np.abs(dense))) > 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: gram_exact(SpaceParams(1030), 0.5, 4),
        lambda: gram_exact(SpaceParams(1e300), 0.5, 12),
        lambda: gram_exact(SpaceParams(600), 0.95, 12),
        lambda: subspace_orthogonality(SpaceParams(1030), 0.5, 3, 4),
        lambda: obstruction_witness(0.5, 1e300),
        lambda: involution_adjoint_apply(SpaceParams(1030), 0.5, TruncatedSeries([1.0]), 4),
    ],
    ids=["gram-binomial", "gram-huge-beta", "gram-scale", "subspace-binomial", "witness-huge-beta",
         "involution-adjoint-binomial"],
)
def test_exact_formulas_outside_the_double_range_are_invalid_input(call):
    with pytest.raises(InvalidInputError, match="beta = "):
        call()


def test_exact_formulas_at_the_beta_bound():
    params = SpaceParams(1027)
    # The k-sum stops at each diagonal's last column, so no product overflows.
    expected = _gram_full_table(params, 0.5, 4)
    assert gram_exact(params, 0.5, 4).entries.tobytes() == expected.tobytes()
    assert subspace_orthogonality(SpaceParams(1030), 0.5, 2066, 4).max_cross == 0.0
    for beta in (400, 1027):
        report = obstruction_witness(0.9, beta)
        assert 0.0 < report.difference <= (beta + 3) * 2.0**-52 * abs(report.direct)


@pytest.mark.parametrize(
    "call",
    [
        lambda: orbit_gram(OperatorMatrix(np.eye(3), SpaceParams(0)), TruncatedSeries([1.0]), 0),
        lambda: weights(SpaceParams(0), -1),
        lambda: weight(SpaceParams(0.5), -1),
        lambda: adjoint_monomial(SpaceParams(0), 0.5, 5, 4),
        lambda: adjoint_monomial(SpaceParams(0.5), 0.5, -1, 4),
        lambda: mzstar_on_monomial(SpaceParams(0), -1, 2),
        lambda: mzstar_on_monomial(SpaceParams(0), 1, -2),
        lambda: TruncatedSeries.monomial(3, 2),
    ],
    ids=["orbit_gram-count", "weights", "weight", "adjoint_monomial-integer",
         "adjoint_monomial-noninteger", "mzstar_on_monomial-m", "mzstar_on_monomial-n",
         "monomial"],
)
def test_domain_errors_are_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


# --- obstruction witness ----------------------------------------------


def test_witness_vanishes_at_zero():
    report = obstruction_witness(0.0, 0)
    assert report.direct == 0.0
    assert abs(report.truncated) < 1e-14


def test_witness_frozen_values():
    report = obstruction_witness(0.5, 0)
    np.testing.assert_allclose(report.direct, 0.125, rtol=1e-14)
    assert report.difference < 1e-10

    report = obstruction_witness(0.3j, 1)
    np.testing.assert_allclose(report.direct, 0.0081, rtol=1e-12)
    assert report.difference < 1e-10


def test_witness_routes_agree_for_random_centers():
    rng = np.random.default_rng(19)
    for _ in range(10):
        alpha = rng.uniform(0.05, 0.85) * np.exp(2j * np.pi * rng.uniform())
        beta = int(rng.integers(0, 3))
        report = obstruction_witness(alpha, beta)
        assert report.difference < 1e-10
        assert abs(report.direct) > abs(alpha) ** (3 + beta) / 2


def _witness_by_power_loop(alpha, beta):
    """The series route of the witness with the power built by repeated ``mul``."""
    params = SpaceParams(beta)
    exponent = beta + 3
    degree = max(16, 2 * exponent)
    phi_series = to_series(involution(alpha), degree)
    power = TruncatedSeries.one(degree)
    for _ in range(exponent):
        power = mul(power, phi_series, degree)
    return inner_product(params, power, kernel_series(params, 0.0, degree))


@pytest.mark.parametrize("beta", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 0.3 + 0.4j, -0.7j])
def test_witness_equals_power_loop(alpha, beta):
    """Equal to the power-loop route and to the exact power within the power-table bound."""
    exponent = beta + 3
    degree = max(16, 2 * exponent)
    phi = involution(alpha)
    table = exact.mobius_powers_exact(phi.a, phi.b, phi.c, phi.d, exponent + 1, degree)
    bound = float(exact.power_table_bound(degree)) * max(
        abs(complex(float(re), float(im))) for row in table for re, im in row
    )
    # The pairing with the kernel at 0 reads coefficient 0 of the power.
    re, im = table[0][exponent]
    report = obstruction_witness(alpha, beta)
    assert abs(report.truncated - complex(float(re), float(im))) <= bound
    assert abs(report.truncated - _witness_by_power_loop(alpha, beta)) <= bound
    assert report.difference == abs(alpha**exponent - report.truncated)


@given(
    st.floats(0.0, 0.95),
    st.floats(0.0, 1.0),
    st.integers(-1, 3),
)
@settings(max_examples=100, deadline=None)
def test_witness_within_bound_of_power_loop(radius, turn, beta):
    alpha = radius * np.exp(2j * np.pi * turn)
    degree = max(16, 2 * (beta + 3))
    report = obstruction_witness(alpha, beta)
    # Powers of an automorphism have coefficients of modulus at most T[0, 0] = 1.
    bound = float(exact.power_table_bound(degree))
    assert abs(report.truncated - _witness_by_power_loop(alpha, beta)) <= bound


@pytest.mark.parametrize("beta", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 5, 12])
def test_adjoint_monomial_equals_full_length_horner_route(monkeypatch, beta, n):
    params = SpaceParams(beta)
    for alpha in (0.5, 0.3 + 0.4j):
        monomial = TruncatedSeries.monomial(n, 64)
        got = involution_adjoint_apply(params, alpha, monomial, 64).coeffs
        with monkeypatch.context() as patch:
            patch.setattr(operators, "compose", horner_compose)
            reference = involution_adjoint_apply(params, alpha, monomial, 64).coeffs
        assert got.tobytes() == reference.tobytes()


# --- conjugation search ------------------------------------------------


def test_search_on_diagonal_operator_converges_fast():
    T = composition_matrix(rotation(np.exp(0.7j)), SpaceParams(0), 10)
    result = conjugation_search(T, iters=20, seed=0)
    early = result.residuals[:5]
    assert np.min(early) < 1e-10
    uni, sym = conjugation_invariant_defects(result.conjugation)
    assert uni < 1e-10 and sym < 1e-10


def test_search_best_trace_is_nonincreasing():
    rng = np.random.default_rng(23)
    cases = [
        composition_matrix(involution(0.5), SpaceParams(0), 16),
        OperatorMatrix(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)), SpaceParams(0)),
    ]
    for T in cases:
        result = conjugation_search(T, iters=30, seed=4)
        assert np.all(np.diff(result.best_trace) <= 1e-15)
        assert len(result.best_trace) == len(result.residuals)


@pytest.mark.parametrize("iters,seed", [(0, 0), (-1, 0), (10, -1)])
def test_search_rejects_empty_budget_and_negative_seed(iters, seed):
    T = composition_matrix(involution(0.5), SpaceParams(0), 4)
    with pytest.raises(InvalidInputError):
        conjugation_search(T, iters=iters, seed=seed)


def test_search_makes_progress_on_involution_compression():
    T = composition_matrix(involution(0.5), SpaceParams(0), 16)
    result = conjugation_search(T, iters=60, seed=0)
    assert result.best_trace[-1] < result.best_trace[0]
    uni, sym = conjugation_invariant_defects(result.conjugation)
    assert uni < 1e-10 and sym < 1e-10


def test_search_is_deterministic_per_seed():
    T = composition_matrix(involution(0.4), SpaceParams(0), 12)
    a = conjugation_search(T, iters=15, seed=7)
    b = conjugation_search(T, iters=15, seed=7)
    np.testing.assert_array_equal(a.residuals, b.residuals)
    np.testing.assert_array_equal(a.conjugation.u, b.conjugation.u)


def test_search_records_floor_on_generic_operator():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    result = conjugation_search(OperatorMatrix(m, SpaceParams(0)), iters=25, seed=2)
    assert result.best_trace[-1] >= 0.0
    assert np.isfinite(result.best_trace[-1])
    uni, sym = conjugation_invariant_defects(result.conjugation)
    assert uni < 1e-10 and sym < 1e-10


def _search_with_loop_packing(t, iters, seed):
    # Reference: the search with symmetric matrices packed and unpacked one
    # upper-triangle entry at a time.
    n = t.dim
    s = t.mat.conj().T
    tbar = np.conj(t.mat)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def unpack(p):
        m = np.zeros((n, n), dtype=np.complex128)
        for idx, (i, j) in enumerate(pairs):
            m[i, j] = p[idx]
            m[j, i] = p[idx]
        return m

    lfull = np.kron(np.eye(n), s) - np.kron(s, np.eye(n))
    embed = np.zeros((n * n, len(pairs)), dtype=np.complex128)
    for idx, (i, j) in enumerate(pairs):
        embed[i * n + j, idx] = 1.0
        if i != j:
            embed[j * n + i, idx] = 1.0
    bmat = lfull @ embed
    lam, vmat = np.linalg.eigh(bmat.conj().T @ bmat)
    lam = np.clip(lam, 0.0, None)
    mu_ref = max(float(np.mean(lam)), 1e-300)
    ladder = mu_ref * np.array([30.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-5])

    def resid(u):
        return float(np.linalg.norm(u @ tbar @ u.conj().T - s))

    def ladder_step(u):
        coeffs = vmat.conj().T @ np.array([u[i, j] for (i, j) in pairs], dtype=np.complex128)
        best = None
        for mu in ladder:
            m = unpack(vmat @ (coeffs * (mu / (lam + mu))))
            cand = _symmetric_polar((m + m.T) / 2.0)
            r = resid(cand)
            if best is None or r < best[0]:
                best = (r, cand)
        return best

    rng = np.random.default_rng(seed)
    starts = [np.eye(n, dtype=np.complex128), _symmetric_polar(unpack(vmat[:, 0]))]
    starts.append(_random_symmetric_unitary(rng, n))
    residuals, best_trace = [], []
    best_r, best_u = math.inf, starts[0]
    budget = max(1, iters)
    per_start = max(2, -(-budget // len(starts)))
    spent = 0
    for u in starts:
        cur = resid(u)
        stall = used = 0
        while spent < budget and used < per_start:
            spent += 1
            used += 1
            residuals.append(cur)
            if cur < best_r - 1e-16:
                best_r, best_u = cur, u.copy()
            best_trace.append(best_r)
            if best_r < 1e-13 or stall >= 3:
                break
            step_r, step_u = ladder_step(u)
            if step_r < cur - 1e-15:
                u, cur, stall = step_u, step_r, 0
            else:
                stall += 1
                u = _symmetric_polar(u + 0.2 * _random_symmetric_unitary(rng, n))
                cur = resid(u)
        if best_r < 1e-13:
            break
    return best_u, np.array(best_trace), np.array(residuals)


@pytest.mark.parametrize("dim, iters", [(12, 30), (16, 30), (24, 8), (32, 5)])
def test_search_index_packing_equals_loop_packing(dim, iters):
    symbol = dilation_about(0.3 + 0.1j, np.exp(2j * np.pi / 7))
    T = composition_matrix(symbol, SpaceParams(0), dim - 1)
    result = conjugation_search(T, iters=iters, seed=dim)
    u, best_trace, residuals = _search_with_loop_packing(T, iters, dim)
    assert result.conjugation.u.tobytes() == u.tobytes()
    assert result.best_trace.tobytes() == best_trace.tobytes()
    assert result.residuals.tobytes() == residuals.tobytes()
