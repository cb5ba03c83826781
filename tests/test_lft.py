"""Disk self-map algebra: validation, fixed points, classification, normal forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_csym import (
    ArgOutsideDiskError,
    DegenerateMapError,
    IdentityMapError,
    InvalidInputError,
    Lft,
    MapKind,
    NotHyperbolicError,
    NotSelfMapError,
    NotUnitaryError,
    SpaceParams,
    apply_map,
    classify,
    compose_maps,
    dilation_about,
    elliptic_order,
    fixed_points,
    hyperbolic_model,
    hyperbolic_normal_form,
    inverse,
    involution,
    make,
    rotation,
    scaled,
    to_series,
    verify_hurst,
)
from bergman_csym.lft import _AUTOMORPHISM_SLACK, power_table
import exact
from helpers import kernel_check_map


def points_by_location(report):
    return {loc: complex(p) for p, loc in zip(report.points, report.locations)}


# --- construction ------------------------------------------------------


def test_make_accepts_boundary_equality_case():
    phi = make(1, 1, 0, 2)
    assert not phi.is_automorphism
    assert apply_map(phi, 0) == 0.5


def test_make_identity():
    assert make(1, 0, 0, 1).is_identity


def test_make_rejects_disk_doubling():
    with pytest.raises(NotSelfMapError):
        make(2, 0, 0, 1)


def test_make_rejects_degenerate_coefficients():
    with pytest.raises(DegenerateMapError):
        make(1, 2, 2, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
@pytest.mark.parametrize("slot", range(4))
def test_non_finite_coefficients_are_invalid_input(bad, slot):
    coeffs = [0.5, 0.1, 0.2, 1.0]
    coeffs[slot] = bad
    with pytest.raises(InvalidInputError, match="must be finite"):
        Lft(*coeffs)


def test_scale_is_largest_coefficient_modulus():
    phi = Lft(0.5, -3j, 0.2, 1.0)
    assert phi.scale == 3.0
    assert Lft(2.0, 0.0, 0.0, 2.0).is_identity


def test_involution_swaps_origin_and_center():
    for alpha in (0.5, 0.3j, -0.2 + 0.4j):
        phi = involution(alpha)
        assert abs(apply_map(phi, 0) - alpha) < 1e-15
        assert abs(apply_map(phi, alpha)) < 1e-15


def test_involution_at_zero_is_negation():
    phi = involution(0)
    for z in (0.3, -0.5j, 0.1 + 0.7j):
        assert apply_map(phi, z) == -z


def test_involution_rejects_center_outside_disk():
    with pytest.raises(ArgOutsideDiskError):
        involution(1.5)


def test_involution_is_self_inverse():
    phi = involution(0.3j)
    square = compose_maps(phi, phi)
    for z in (0.0, 0.5, -0.6j, 0.2 - 0.3j):
        assert abs(apply_map(square, z) - z) < 1e-14


def test_automorphism_composed_with_inverse_is_identity():
    phi = scaled(involution(0.4 - 0.1j), np.exp(0.9j))
    round_trip = compose_maps(phi, inverse(phi))
    for z in (0.0, 0.7, 0.5j):
        assert abs(apply_map(round_trip, z) - z) < 1e-12


def test_inverse_of_contraction_leaves_self_map_class():
    # the Moebius inverse of (z+1)/2 expands the disk; it comes back flagged
    inv = inverse(make(1, 1, 0, 2))
    assert not inv.is_self_map
    assert abs(apply_map(inv, 0.5)) < 1e-14


def test_parabolic_fixed_point_is_fixed_under_apply():
    assert apply_map(make(1, 1, 0, 2), 1.0) == 1.0


def test_scaled_tracks_self_map_flag():
    # scaling is a raw constructor; it tags instead of raising
    assert not scaled(involution(0.5), 2.0).is_self_map
    assert scaled(involution(0.5), 0.5 * np.exp(1j)).is_self_map


def test_dilation_fixes_its_center():
    phi = dilation_about(0.5, 1j)
    assert abs(apply_map(phi, 0.5) - 0.5) < 1e-12


@given(
    st.floats(0.0, 0.85),
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=80, deadline=None)
def test_unimodular_dilation_family_fixes_center(r, arg_center, arg_factor):
    center = r * np.exp(1j * arg_center)
    phi = dilation_about(center, np.exp(1j * arg_factor))
    assert abs(apply_map(phi, center) - center) < 1e-12


# --- fixed points ------------------------------------------------------


def test_fixed_points_of_half_shift():
    by_loc = points_by_location(fixed_points(make(1, 1, 0, 2)))
    assert by_loc["boundary"] == 1.0
    assert not np.isfinite(by_loc["exterior"])
    report = fixed_points(make(1, 1, 0, 2))
    assert complex(report.multipliers[0]) == 0.5


def test_fixed_points_of_hyperbolic_model_are_zero_and_one():
    for s in (0.2, 0.5, 0.77):
        report = fixed_points(hyperbolic_model(s))
        by_loc = points_by_location(report)
        assert by_loc["interior"] == 0.0
        assert by_loc["boundary"] == 1.0
        mults = {complex(m) for m in report.multipliers}
        assert any(abs(m - s) < 1e-12 for m in mults)
        assert any(abs(m - 1 / s) < 1e-12 for m in mults)


def test_fixed_points_of_involution_match_quadratic_roots():
    # fixed points of the swap about 0.5 solve 0.5 z^2 - 2 z + 0.5 = 0
    alpha = 0.5
    roots = np.roots([np.conj(alpha), -2.0, alpha])
    report = fixed_points(involution(alpha))
    got = sorted(complex(p).real for p in report.points)
    np.testing.assert_allclose(got, sorted(roots.real), rtol=1e-12)
    np.testing.assert_allclose(got, [2 - np.sqrt(3), 2 + np.sqrt(3)], rtol=1e-12)
    assert set(report.locations) == {"interior", "exterior"}
    for p in report.points:
        assert abs(apply_map(involution(alpha), p) - p) < 1e-12


def test_fixed_points_of_identity_rejected():
    with pytest.raises(IdentityMapError):
        fixed_points(make(1, 0, 0, 1))


def test_fixed_point_self_consistency_random_maps():
    rng = np.random.default_rng(21)
    from helpers import random_self_map

    for _ in range(15):
        phi = random_self_map(rng)
        if phi.is_identity:
            continue
        report = fixed_points(phi)
        for p in report.points:
            if np.isfinite(complex(p)):
                assert abs(apply_map(phi, p) - p) < 1e-9 * max(1, abs(p) ** 2)


# --- classification ----------------------------------------------------


def test_classification_table():
    assert classify(make(1, 0, 0, 1)).kind is MapKind.IDENTITY
    assert classify(rotation(1j)).kind is MapKind.ROTATION
    assert classify(involution(0)).kind is MapKind.ROTATION
    assert classify(make(1, 1, 0, 2)).kind is MapKind.PARABOLIC
    assert classify(hyperbolic_model(0.5)).kind is MapKind.HYPERBOLIC_NONAUTOMORPHISM
    assert classify(make(3, 1, 1, 3)).kind is MapKind.HYPERBOLIC_AUTOMORPHISM
    assert classify(dilation_about(0.3, 0.4)).kind is MapKind.LOXODROMIC

    elliptic = classify(dilation_about(0.4, np.exp(1j * np.pi / 3)))
    assert elliptic.kind is MapKind.ELLIPTIC
    assert elliptic.is_automorphism


def test_classification_invariant_under_rescaling():
    samples = [
        (1, 1, 0, 2),
        (0.5, 0, -0.5, 1),
        (3, 1, 1, 3),
    ]
    for coeffs in samples:
        reference = classify(make(*coeffs)).kind
        for t in (2.0, -1.0, 1j, 0.5 - 0.5j):
            rescaled = make(*(t * np.asarray(coeffs, dtype=complex)))
            assert classify(rescaled).kind is reference


_UNSCALED = {
    "half": make(0.5, 0, 0, 1),
    "involution": involution(0.3 + 0.4j),
    "kernel-check": kernel_check_map(np.random.default_rng(0)),
}


@pytest.mark.parametrize("factor", [2.0**-1030, 2.0**-600, 2.0**600],
                         ids=["2^-1030", "2^-600", "2^600"])
@pytest.mark.parametrize("name", list(_UNSCALED))
def test_map_at_an_extreme_coefficient_scale_is_the_same_map(name, factor):
    phi = _UNSCALED[name]
    coeffs = [t * factor for t in (phi.a, phi.b, phi.c, phi.d)]
    psi = Lft(*coeffs)
    assert 0.5 <= psi.scale < 1.0
    assert classify(psi).kind is classify(phi).kind
    # Subnormal coefficients (2**-1030) keep fewer bits than phi's, so the
    # exact table is the one of the coefficients given.
    degree = 16
    reference = exact.mobius_powers_exact(*coeffs, degree + 1, degree)
    table = power_table(psi, degree + 1, degree)
    assert exact.max_error_ratio(table, reference, exact.power_table_bound(degree)) <= 1.0
    assert verify_hurst(psi, SpaceParams(0), 32, 4) < 1e-10


def test_coefficients_are_rescaled_only_outside_exponent_64():
    assert Lft(2.0**63, 0, 0, 2.0**63).a == 2.0**63
    assert Lft(2.0**64, 0, 0, 2.0**64).a == 0.5
    assert Lft(2.0**-65, 0, 0, 2.0**-65).a == 2.0**-65
    assert Lft(2.0**-66, 0, 0, 2.0**-66).a == 0.5


def test_elliptic_kind_requires_automorphism():
    # interior plus exterior fixed points split by the automorphism flag
    lox = classify(dilation_about(0.2, 0.6))
    assert lox.kind is MapKind.LOXODROMIC and not lox.is_automorphism


def test_map_tangent_to_the_circle_is_no_automorphism_on_first_read():
    # (z + 1)/2 touches the circle at 1: its margin lies within the automorphism
    # slack, and the boundary samples, taken on the first read, reject it.
    phi = make(0.5, 0.5, 0, 1)
    assert abs(phi.self_map_margin) <= _AUTOMORPHISM_SLACK
    assert phi.is_automorphism is False
    assert phi.is_automorphism is False
    assert classify(phi).kind is MapKind.PARABOLIC and not classify(phi).is_automorphism
    assert involution(0.3 + 0.4j).is_automorphism is True


# --- hyperbolic normal form -------------------------------------------


def test_normal_form_of_model_is_trivial():
    s, conjugator = hyperbolic_normal_form(hyperbolic_model(0.5))
    assert abs(s - 0.5) < 1e-14
    assert conjugator.is_identity


def test_normal_form_roundtrip_through_conjugation():
    # conjugating the model by a disk swap must not change the multiplier
    psi = hyperbolic_model(0.5)
    w = involution(0.3)
    phi = compose_maps(w, compose_maps(psi, w))
    s, conjugator = hyperbolic_normal_form(phi)
    assert abs(s - 0.5) < 1e-10

    recovered = compose_maps(conjugator, compose_maps(phi, inverse(conjugator)))
    model = hyperbolic_model(s.real)
    for z in (0.0, 0.4, -0.3j, 0.2 + 0.2j):
        assert abs(apply_map(recovered, z) - apply_map(model, z)) < 1e-10


def test_normal_form_multiplier_satisfies_contraction_bound():
    for w_center in (0.3, -0.2 + 0.4j, 0.55j):
        w = involution(w_center)
        phi = compose_maps(w, compose_maps(hyperbolic_model(0.42), w))
        s, _ = hyperbolic_normal_form(phi)
        assert abs(s) <= 1 - abs(1 - s) + 1e-10


def test_normal_form_rejects_other_kinds():
    with pytest.raises(NotHyperbolicError):
        hyperbolic_normal_form(make(1, 1, 0, 2))
    with pytest.raises(NotHyperbolicError):
        hyperbolic_normal_form(dilation_about(0.4, np.exp(1j * np.pi / 3)))
    with pytest.raises(NotHyperbolicError):
        hyperbolic_normal_form(make(3, 1, 1, 3))


def test_model_requires_multiplier_inside_unit_interval():
    with pytest.raises(NotSelfMapError):
        hyperbolic_model(0.3 + 0.2j)


# --- elliptic order ----------------------------------------------------


def test_elliptic_order_primitive_eighth_root():
    assert elliptic_order(np.exp(2j * np.pi / 8), 64) == 8


def test_elliptic_order_of_one():
    assert elliptic_order(1.0, 64) == 1


def test_elliptic_order_irrational_angle_is_none():
    assert elliptic_order(np.exp(2j * np.pi * np.sqrt(2) / 10), 10_000) is None


def test_elliptic_order_rejects_nonunimodular():
    with pytest.raises(NotUnitaryError):
        elliptic_order(0.9, 64)


# --- series bridge -----------------------------------------------------


def test_to_series_identity():
    out = to_series(make(1, 0, 0, 1), 4)
    assert np.array_equal(out.coeffs, [0.0, 1.0, 0.0, 0.0, 0.0])


def test_to_series_involution_frozen():
    out = to_series(involution(0.5), 2)
    assert np.array_equal(out.coeffs, [0.5, -0.75, -0.375])


def test_to_series_polynomial_symbol():
    out = to_series(make(1, 1, 0, 2), 5)
    assert np.array_equal(out.coeffs, [0.5, 0.5, 0.0, 0.0, 0.0, 0.0])


def test_to_series_matches_pointwise_evaluation():
    rng = np.random.default_rng(6)
    from helpers import random_self_map

    for _ in range(8):
        phi = random_self_map(rng)
        ser = to_series(phi, 128)
        for z in (0.0, 0.4, -0.35j):
            assert abs(ser(z) - apply_map(phi, z)) < 1e-10


def test_fixed_point_report_splits_interior_and_boundary():
    report = fixed_points(hyperbolic_model(0.5))
    (alpha, inner), = report.interior()
    (point, outer), = report.boundary()
    assert (alpha, point) == (0.0, 1.0)
    assert abs(inner - 0.5) < 1e-12 and abs(outer - 2.0) < 1e-12
    assert fixed_points(involution(0.5)).boundary() == []


def test_self_map_flags_are_python_bools():
    for phi in (make(0.5, 0, 0, 1), involution(0.5), make(1, 1, 0, 2)):
        assert type(phi.is_self_map) is bool
        assert type(phi.is_automorphism) is bool
