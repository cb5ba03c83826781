"""Truncated-series arithmetic: convolution, composition, binomial expansion."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergman_csym import (
    ConjugationMatrix,
    DegenerateDenominatorError,
    InvalidInputError,
    Lft,
    NotSelfMapError,
    SpaceParams,
    TruncatedSeries,
    binomial_expand,
    compose,
    compose_maps,
    hurst_factors,
    hyperbolic_model,
    involution,
    mul,
    reciprocal_linear,
    scaled,
    to_series,
)
from bergman_csym.lft import power_table
from bergman_csym.series import mobius_powers, powers
import exact
from helpers import horner_compose, power_loop


def conv_oracle(f, g, degree):
    """Direct double-loop Cauchy product, the reference for mul."""
    out = np.zeros(degree + 1, dtype=complex)
    for k, fk in enumerate(f.coeffs):
        for j, gj in enumerate(g.coeffs):
            if k + j <= degree:
                out[k + j] += fk * gj
    return out


int_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=10)


def series_of(ints):
    return TruncatedSeries(np.array(ints, dtype=complex))


# --- mul ---------------------------------------------------------------


def test_mul_difference_of_squares():
    f = TruncatedSeries([1.0, 1.0])
    g = TruncatedSeries([1.0, -1.0])
    assert np.array_equal(mul(f, g, 2).coeffs, [1.0, 0.0, -1.0])


def test_mul_by_one_is_identity():
    f = TruncatedSeries([2.0 - 1.0j, 0.25, 3.0j, -0.5])
    out = mul(f, TruncatedSeries.one(0), 3)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_mul_hand_convolution():
    f = TruncatedSeries([1.0, 2.0, 1.0])
    g = TruncatedSeries([3.0, 1.0])
    out = mul(f, g, 3)
    assert np.array_equal(out.coeffs, [3.0, 7.0, 5.0, 1.0])
    assert np.array_equal(out.coeffs, conv_oracle(f, g, 3))


def test_mul_matches_oracle_with_truncation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = TruncatedSeries(rng.normal(size=7) + 1j * rng.normal(size=7))
        g = TruncatedSeries(rng.normal(size=5) + 1j * rng.normal(size=5))
        degree = int(rng.integers(0, 9))
        np.testing.assert_allclose(
            mul(f, g, degree).coeffs, conv_oracle(f, g, degree), rtol=0, atol=1e-13
        )


@given(int_coeffs, int_coeffs)
@settings(max_examples=60, deadline=None)
def test_mul_commutative_exact(a, b):
    # small integer coefficients make floating addition exact in any order
    f, g = series_of(a), series_of(b)
    degree = max(f.degree, g.degree)
    assert np.array_equal(mul(f, g, degree).coeffs, mul(g, f, degree).coeffs)


@given(int_coeffs, int_coeffs, int_coeffs)
@settings(max_examples=60, deadline=None)
def test_mul_associative_exact(a, b, c):
    f, g, h = series_of(a), series_of(b), series_of(c)
    degree = 8
    left = mul(mul(f, g, degree), h, degree)
    right = mul(f, mul(g, h, degree), degree)
    assert np.array_equal(left.coeffs, right.coeffs)


# --- compose -----------------------------------------------------------


def test_compose_square_of_shift():
    f = TruncatedSeries([0.0, 0.0, 1.0])
    g = TruncatedSeries([1.0, 1.0])
    assert np.array_equal(compose(f, g, 2).coeffs, [1.0, 2.0, 1.0])


@given(int_coeffs)
@settings(max_examples=40, deadline=None)
def test_compose_with_identity_symbol_exact(a):
    f = series_of(a)
    out = compose(f, TruncatedSeries.identity(1), f.degree)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_identity_composed_with_inner_exact():
    g = TruncatedSeries([0.5, -0.25, 0.125])
    out = compose(TruncatedSeries.identity(1), g, 2)
    assert np.array_equal(out.coeffs, g.coeffs)


def test_compose_geometric_with_halving():
    # 1/(1-w) truncated, then w = z/2: coefficients 2^-n, exactly (dyadic)
    f = TruncatedSeries(np.ones(5))
    g = TruncatedSeries([0.0, 0.5])
    out = compose(f, g, 4)
    assert np.array_equal(out.coeffs, [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_compose_handles_nonzero_inner_constant():
    # g(0) != 0 must be supported, checked against pointwise evaluation
    f = TruncatedSeries([1.0, -2.0, 0.5, 1.0j])
    g = TruncatedSeries([0.3 + 0.1j, 0.4, -0.2])
    out = compose(f, g, 6)
    for z in (0.0, 0.3, -0.5j, 0.2 + 0.2j):
        assert abs(out(z) - f(g(z))) < 1e-12


_INNER = {
    "involution": to_series(involution(0.3 + 0.4j), 40),
    "affine": TruncatedSeries([0.5, 0.25 - 0.5j]),
    "identity": TruncatedSeries.identity(1),
}


@pytest.mark.parametrize(
    "f",
    [
        np.zeros(6),
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, -1j, 0.0, 0.0, 0.0],
        [complex(0.5, -0.0), 0.0, 0.0],
        [1.0, complex(-2.0, -0.0), 0.0],
        [complex(-0.0, -0.0)],
        list(np.random.default_rng(3).normal(size=8) + 0.5j) + [0.0] * 10,
    ],
    ids=["all-zero", "constant", "monomial", "interior-zeros", "signed-zero-constant",
         "signed-zero-top", "degree-0", "random-padded"],
)
@pytest.mark.parametrize("degree", [0, 3, 40])
def test_compose_equals_full_length_horner(f, degree):
    f = TruncatedSeries(f)
    for name, g in _INNER.items():
        for padded in (f, f.resized(degree + 5)):
            got = compose(padded, g, degree).coeffs
            assert got.tobytes() == horner_compose(padded, g, degree).coeffs.tobytes(), name


@pytest.mark.parametrize("block", [0, 1, 2, 7, 40])
def test_compose_low_coefficients_do_not_depend_on_the_degree(block):
    # Bitwise while g has at most block + 1 coefficients, or two (at block 0
    # each entry is one product): a longer g makes np.convolve swap its
    # operands at the lower degree, which reorders sums.
    rng = np.random.default_rng(block)
    f = TruncatedSeries(rng.normal(size=70) + 1j * rng.normal(size=70))
    inners = [
        TruncatedSeries([0.5 + 0.2j, 0.25]),
        TruncatedSeries([0.3 + 0.1j, 0.4, -0.2]),
        to_series(involution(0.3 + 0.4j), block),
    ]
    for g in inners:
        if g.degree > max(block, 1):
            continue
        cut = compose(f, g, block).coeffs
        for degree in (block + 1, 2 * block + 3, 100):
            assert cut.tobytes() == compose(f, g, degree).coeffs[: block + 1].tobytes()


@pytest.mark.parametrize("count,degree", [(0, 3), (1, 0), (5, 4), (3, 12), (20, 6), (65, 64)])
def test_powers_equal_repeated_mul(count, degree):
    for g in (*_INNER.values(), TruncatedSeries([0.0, 0.0, 1.0])):
        table = powers(g, count, degree)
        assert table.shape == (degree + 1, count)
        assert table.tobytes() == power_loop(g, count, degree).tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda: powers(TruncatedSeries([0.0, 1e200]), 3, 4),
        lambda: compose(TruncatedSeries([0.0, 0.0, 1.0]), TruncatedSeries([0.0, 1e200]), 4),
        lambda: compose(TruncatedSeries([1.0, 0.0, 1.0]), TruncatedSeries([1e200, 1.0]), 4),
        # The overflow at index 2 meets g[0] = 0 and the true term leaves the
        # truncation, yet the step that overflowed must still be rejected.
        lambda: powers(TruncatedSeries([0.0, 1e200]), 4, 2),
        lambda: compose(TruncatedSeries([0.0, 0.0, 0.0, 1.0]), TruncatedSeries([0.0, 1e200]), 2),
        lambda: mul(TruncatedSeries([1e200]), TruncatedSeries([1e200]), 2),
        lambda: mobius_powers(1.0, 1e200, 0.0, 1e-200, 3, 2),
        # Only the entry (1, 2) = 2 b a / d**2 overflows, and it is the last one built.
        lambda: mobius_powers(1e300, 1e10, 0.0, 1.0, 3, 1),
    ],
    ids=["powers", "compose", "compose-nonzero-center", "powers-cut", "compose-cut", "mul",
         "mobius-powers", "mobius-powers-last-entry"],
)
def test_overflow_inside_a_loop_is_rejected(build):
    with pytest.raises(ValueError, match="series coefficients must be finite"):
        build()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TruncatedSeries([]), "constant coefficient"),
        (lambda: TruncatedSeries([np.nan]), "must be finite"),
        (lambda: powers(TruncatedSeries([0.0, 1e200]), 4, 2), "must be finite"),
        (lambda: mobius_powers(1.0, 1e200, 0.0, 1e-200, 3, 2), "must be finite"),
        (lambda: compose(TruncatedSeries([0.0, 0.0, 0.0, 1.0]), TruncatedSeries([0.0, 1e200]), 2),
         "must be finite"),
        (lambda: ConjugationMatrix(np.diag([1.0, 0.5])), "not unitary"),
        (lambda: ConjugationMatrix([[0.0, -1.0], [1.0, 0.0]]), "not symmetric"),
        (lambda: binomial_expand(0.5, 2.0, -1), "degree must be nonnegative, got -1"),
        (lambda: hurst_factors(involution(0.5), SpaceParams(0), -1),
         "degree must be nonnegative, got -1"),
        (lambda: reciprocal_linear(1.0, 2.0, -1), "degree must be nonnegative, got -1"),
    ],
    ids=["empty", "nan", "powers-overflow", "mobius-powers-overflow", "compose-overflow",
         "conjugation-not-unitary", "conjugation-not-symmetric", "binomial-negative-degree",
         "hurst-negative-degree", "reciprocal-negative-degree"],
)
def test_bad_series_and_conjugations_are_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_loops_build_one_series_per_result(monkeypatch):
    built = []
    init = TruncatedSeries.__init__

    def counting_init(self, coeffs):
        built.append(self)
        init(self, coeffs)

    f, g = TruncatedSeries(np.arange(1.0, 13.0)), TruncatedSeries([0.1, 0.5, -0.2j])
    monkeypatch.setattr(TruncatedSeries, "__init__", counting_init)
    compose(f, g, 40)
    assert len(built) == 1
    powers(g, 30, 40)
    assert len(built) == 1


# --- reciprocal_linear -------------------------------------------------


def test_reciprocal_constant_denominator():
    out = reciprocal_linear(0.0, 2.0, 3)
    assert np.array_equal(out.coeffs, [0.5, 0.0, 0.0, 0.0])


def test_reciprocal_geometric_expansion():
    assert np.array_equal(reciprocal_linear(1.0, 2.0, 2).coeffs, [0.5, -0.25, 0.125])
    assert np.array_equal(reciprocal_linear(-0.5, 1.0, 1).coeffs, [1.0, 0.5])


def test_reciprocal_zero_denominator_rejected():
    with pytest.raises(DegenerateDenominatorError):
        reciprocal_linear(1.0, 0.0, 4)


def test_reciprocal_times_denominator_is_one():
    for c, d in [(0.3, 1.0), (0.5j, 2.0), (-0.2 + 0.1j, 1.5)]:
        rec = reciprocal_linear(c, d, 40)
        prod = mul(rec, TruncatedSeries([d, c]), 40)
        np.testing.assert_allclose(prod.coeffs[0], 1.0, atol=1e-14)
        np.testing.assert_allclose(prod.coeffs[1:], 0.0, atol=1e-14)


# --- binomial_expand ---------------------------------------------------


def test_binomial_square_terminates():
    out = binomial_expand(-0.5, 2, 5)
    assert np.array_equal(out.coeffs, [1.0, -1.0, 0.25, 0.0, 0.0, 0.0])


def test_binomial_power_zero_is_one():
    out = binomial_expand(0.7j, 0.0, 4)
    assert np.array_equal(out.coeffs, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_binomial_fractional_exponent():
    out = binomial_expand(-1.0, 1.5, 2)
    assert np.array_equal(out.coeffs, [1.0, -1.5, 0.375])


@pytest.mark.parametrize("u", [-0.5, 0.3 + 0.4j, -1.0])
@pytest.mark.parametrize("p,q", [(0.5, 1.5), (-2.3, 0.9), (2.0, -0.7)])
def test_binomial_exponent_additivity(u, p, q):
    degree = 12
    prod = mul(binomial_expand(u, p, degree), binomial_expand(u, q, degree), degree)
    target = binomial_expand(u, p + q, degree)
    scale = max(1.0, np.max(np.abs(target.coeffs)))
    assert np.max(np.abs(prod.coeffs - target.coeffs)) < 1e-12 * scale


def test_binomial_integer_power_dyadic_exact():
    # dyadic base keeps every intermediate exactly representable
    for u, p in [(-0.5, 3), (0.25, 4), (-1.0, 5)]:
        out = binomial_expand(u, p, 8)
        acc = TruncatedSeries.one(8)
        for _ in range(p):
            acc = mul(acc, TruncatedSeries([1.0, u]), 8)
        assert np.array_equal(out.coeffs, acc.coeffs)


def test_binomial_integer_power_matches_repeated_mul():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = int(rng.integers(0, 7))
        out = binomial_expand(u, p, 10)
        acc = TruncatedSeries.one(10)
        for _ in range(p):
            acc = mul(acc, TruncatedSeries([1.0, u]), 10)
        np.testing.assert_allclose(out.coeffs, acc.coeffs, rtol=0, atol=1e-13)


def test_series_invariants():
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert f.degree == 2
    assert len(f.coeffs) == f.degree + 1
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, np.nan])
    with pytest.raises(ValueError):
        TruncatedSeries([np.inf, 1.0])


def test_resized_rejects_negative_degree():
    with pytest.raises(InvalidInputError, match="degree must be nonnegative"):
        TruncatedSeries([1.0, 2.0]).resized(-1)


# --- Möbius power tables against the exact rational table ----------------

# Dyadic coefficients, so that each float map is exactly the rational map
# the reference expands; |c/d| runs from 0.5 to 0.906.
_DYADIC_MAPS = {
    "involution-half": involution(0.5),
    "involution-0.88": involution(0.625 + 0.625j),
    "hyperbolic-half": hyperbolic_model(0.5),
    "rotated-involution": scaled(involution(-0.25 + 0.5j), 0.75j),
    "d-three-halves": Lft(0.5j, 0.25, 0.75, 1.5),
    "contraction-0.9": Lft(0.03125, 0.0625 - 0.03125j, 0.90625j, 1.0),
}
_EXACT_DEGREE = 48

# Every route that builds the power table of a Möbius map.
_POWER_ROUTES = {
    "convolution": lambda phi, count, degree: powers(to_series(phi, degree), count, degree),
    "recurrence": power_table,
}


# The maps with an exact table: _DYADIC_MAPS and an automorphism with |c/d| = 0.983.
_EXACT_MAPS = {
    **_DYADIC_MAPS,
    "near-circle": compose_maps(involution(0.3125 + 0.875j), scaled(involution(-0.0625 + 0.625j), -1.0)),
}


@lru_cache(maxsize=None)
def _exact_table(name):
    phi = _EXACT_MAPS[name]
    return exact.mobius_powers_exact(phi.a, phi.b, phi.c, phi.d, _EXACT_DEGREE + 1, _EXACT_DEGREE)


def test_dyadic_maps_are_self_maps_with_an_automorphism():
    assert all(phi.is_self_map for phi in _DYADIC_MAPS.values())
    assert any(phi.is_automorphism for phi in _DYADIC_MAPS.values())
    assert max(abs(phi.c / phi.d) for phi in _DYADIC_MAPS.values()) > 0.9


@pytest.mark.parametrize("route", sorted(_POWER_ROUTES))
@pytest.mark.parametrize("name", sorted(_DYADIC_MAPS))
def test_power_table_within_bound_of_exact(route, name):
    degree = _EXACT_DEGREE
    table = _POWER_ROUTES[route](_DYADIC_MAPS[name], degree + 1, degree)
    ratio = exact.max_error_ratio(table, _exact_table(name), exact.power_table_bound(degree))
    assert ratio <= 1.0, ratio


def test_exact_power_table_small_cases():
    # phi(z) = z/2 + 1/4: phi**2 = z**2/4 + z/4 + 1/16, exactly.
    table = exact.mobius_powers_exact(0.5, 0.25, 0.0, 1.0, 3, 3)
    col = [table[n][2] for n in range(4)]
    assert col == [(Fraction(1, 16), 0), (Fraction(1, 4), 0), (Fraction(1, 4), 0), (0, 0)]
    # 1/(1 - z/2) = sum 2**-n z**n, times i z.
    table = exact.mobius_powers_exact(1j, 0.0, -0.5, 1.0, 2, 4)
    assert [table[n][1] for n in range(5)] == [(0, 0)] + [(0, Fraction(1, 2**k)) for k in range(4)]
    assert exact.mobius_powers_exact(1.0, 0.0, 0.0, 1.0, 0, 2) == [[], [], []]


def test_recurrence_within_bound_near_the_circle():
    # The recurrence stays within the bound, the convolution route it
    # replaced for Möbius maps does not.
    phi = _EXACT_MAPS["near-circle"]
    assert phi.is_automorphism and abs(phi.c / phi.d) > 0.98
    degree = _EXACT_DEGREE
    table = _exact_table("near-circle")
    bound = exact.power_table_bound(degree)
    assert exact.max_error_ratio(power_table(phi, degree + 1, degree), table, bound) <= 1.0
    assert exact.max_error_ratio(_POWER_ROUTES["convolution"](phi, degree + 1, degree), table, bound) > 1.0


def _disk_point(radius):
    return st.builds(lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, radius), st.floats(0.0, 1.0))


# Maps of the kernel-check family involution(a) o (u involution(b)), with
# |c/d| kept to the range the exact tests cover.  Derandomized: the
# convolution route comes within 0.95 of the bound on some of these maps,
# so fresh draws could fail on its error.
@given(_disk_point(0.9), _disk_point(0.9), st.floats(0.3, 1.0), st.floats(0.0, 1.0), st.integers(0, 64))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_power_table_within_bound_of_power_loop(a, b, radius, turn, degree):
    phi = compose_maps(involution(a), scaled(involution(b), radius * np.exp(2j * np.pi * turn)))
    assume(abs(phi.c / phi.d) <= 0.9)
    reference = power_loop(to_series(phi, degree), degree + 1, degree)
    table = power_table(phi, degree + 1, degree)
    bound = float(exact.power_table_bound(degree)) * np.max(np.abs(reference))
    assert np.max(np.abs(table - reference)) <= bound


@pytest.mark.parametrize("degree", [0, 1, 7, 12])
@pytest.mark.parametrize("name", sorted(_EXACT_MAPS))
def test_short_power_table_within_bound_of_exact(name, degree):
    # 3 (degree + 1) <= count: the table is filled row by row, each row by a scan.
    table = power_table(_EXACT_MAPS[name], _EXACT_DEGREE + 1, degree)
    reference = _exact_table(name)[: degree + 1]
    ratio = exact.max_error_ratio(table, reference, exact.power_table_bound(_EXACT_DEGREE))
    assert ratio <= 1.0, ratio


@pytest.mark.parametrize("count", [1, 2, 5, 40, 201])
def test_power_table_rows_do_not_depend_on_degree(count):
    # Bitwise within one fill; across the shape rule of mobius_powers the
    # rows agree within the power-table bound.
    for phi in (involution(0.3 + 0.4j), hyperbolic_model(0.5), _DYADIC_MAPS["contraction-0.9"]):
        full = power_table(phi, count, 200)
        tallest_short = power_table(phi, count, max(count // 3 - 1, 0))
        bound = float(exact.power_table_bound(200)) * np.max(np.abs(full))
        for degree in (0, 1, 2, 7, 31, 64, 199):
            table = power_table(phi, count, degree)
            if 3 * (degree + 1) <= count:  # filled row by row
                assert table.tobytes() == tallest_short[: degree + 1].tobytes()
                assert np.max(np.abs(table - full[: degree + 1])) <= bound
            else:
                assert table.tobytes() == full[: degree + 1].tobytes()


@pytest.mark.parametrize("count,degree", [(0, 3), (1, 0), (1, 5), (2, 0), (7, 0), (4, 9)])
def test_power_table_shapes_and_edges(count, degree):
    phi = Lft(0.5j, 0.25, 0.75, 1.5)
    table = power_table(phi, count, degree)
    reference = powers(to_series(phi, degree), count, degree)
    assert table.shape == reference.shape == (degree + 1, count)
    assert np.max(np.abs(table - reference), initial=0.0) <= float(exact.power_table_bound(degree))
    if count:
        assert table[0, 0] == 1.0 and not table[1:, 0].any()


def test_power_table_rejects_what_the_expansion_rejects():
    with pytest.raises(NotSelfMapError, match="not a self-map"):
        power_table(Lft(2.0, 0.0, 0.0, 1.0), 3, 4)
    with pytest.raises(InvalidInputError, match="degree must be nonnegative"):
        power_table(involution(0.5), 3, -1)
    with pytest.raises(DegenerateDenominatorError):
        mobius_powers(1.0, 0.0, 1.0, 0.0, 3, 4)
