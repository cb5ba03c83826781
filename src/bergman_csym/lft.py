"""Fractional linear self-maps of the unit disk.

A map ``phi(z) = (a z + b) / (c z + d)`` is stored by its four complex
coefficients.  Construction computes, once, the facts every later routine
needs: the determinant, whether the map sends the open disk into itself,
and whether it is a disk automorphism.  The self-map test is the closed
inequality

    |b conj(d) - a conj(c)| + |a d - b c|  <=  |d|**2 - |c|**2,

applied to coefficients normalized to unit maximum modulus so the verdict
is invariant under rescaling all four coefficients.  Automorphy is the
equality case of that inequality, cross-checked by sampling ``|phi|`` at
eight boundary points; two independent tests guard against cancellation in
either one.

Classification follows the fixed-point pattern of the map on the closed
disk.  The convention used throughout: a non-identity map is *parabolic*
when the closed disk contains exactly one fixed point and that point is on
the circle.  This covers both a genuine double fixed point on the boundary
and an attracting boundary point whose companion fixed point (possibly the
point at infinity) lies strictly outside the closed disk.  *Hyperbolic*
maps therefore always own two fixed points of the closed disk: interior
plus boundary (non-automorphism) or boundary pair (automorphism), which is
exactly the situation in which the normal-form reduction below applies.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMapError,
    IdentityMapError,
    InvalidInputError,
    NotHyperbolicError,
    NotSelfMapError,
    NotUnitaryError,
    require_in_disk,
)
from .series import TruncatedSeries, mobius_powers, mul, reciprocal_linear

__all__ = [
    "Lft",
    "MapKind",
    "LftClass",
    "FixedPointReport",
    "make",
    "involution",
    "rotation",
    "scaled",
    "dilation_about",
    "hyperbolic_model",
    "compose",
    "inverse",
    "apply",
    "fixed_points",
    "classify",
    "hyperbolic_normal_form",
    "elliptic_order",
    "to_series",
    "power_table",
]

# Slack for the closed self-map inequality; boundary cases (automorphisms,
# maps tangent to the circle) sit exactly on equality and must not be
# rejected for roundoff.
_SELF_MAP_SLACK = 1e-12
_AUTOMORPHISM_SLACK = 1e-10
_BOUNDARY_TOL = 1e-9
_N_BOUNDARY_SAMPLES = 8


class Lft:
    """A fractional linear map with cached self-map and automorphism flags."""

    __slots__ = (
        "a", "b", "c", "d", "scale", "det", "self_map_margin", "is_self_map", "is_automorphism"
    )

    def __init__(self, a, b, c, d):
        self.a = complex(a)
        self.b = complex(b)
        self.c = complex(c)
        self.d = complex(d)
        if not all(cmath.isfinite(t) for t in (self.a, self.b, self.c, self.d)):
            raise InvalidInputError(f"map coefficients must be finite, got {self!r}")
        # Largest coefficient modulus: the unit for every relative tolerance.
        self.scale = scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0:
            raise DegenerateMapError("all four coefficients are zero")
        na, nb, nc, nd = (t / scale for t in (self.a, self.b, self.c, self.d))
        ndet = na * nd - nb * nc
        if abs(ndet) < 1e-14:
            raise DegenerateMapError(f"coefficient determinant vanishes: {self!r}")
        self.det = self.a * self.d - self.b * self.c
        margin = (abs(nd) ** 2 - abs(nc) ** 2) - (
            abs(nb * np.conj(nd) - na * np.conj(nc)) + abs(ndet)
        )
        self.self_map_margin = float(margin)
        self.is_self_map = bool(margin >= -_SELF_MAP_SLACK)
        self.is_automorphism = self.is_self_map and bool(abs(margin) <= _AUTOMORPHISM_SLACK)
        if self.is_automorphism:
            # Equality alone can be hit by non-automorphisms tangent to the
            # circle, so confirm on sampled boundary values.
            theta = 2.0 * np.pi * (np.arange(_N_BOUNDARY_SAMPLES) + 1.0 / 17.0) / _N_BOUNDARY_SAMPLES
            zs = np.exp(1j * theta)
            denom = self.c * zs + self.d
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.abs((self.a * zs + self.b) / denom)
            ok = np.all(np.isfinite(vals)) and np.max(np.abs(vals - 1.0)) <= 1e-8
            self.is_automorphism = bool(ok)

    @property
    def is_identity(self) -> bool:
        return (
            abs(self.b) <= 1e-12 * self.scale
            and abs(self.c) <= 1e-12 * self.scale
            and abs(self.a - self.d) <= 1e-12 * self.scale
        )

    def __call__(self, z):
        z = complex(z)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def derivative(self, z):
        z = complex(z)
        return self.det / (self.c * z + self.d) ** 2

    def coefficient_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.complex128)

    def __repr__(self):
        return f"Lft(a={self.a:.6g}, b={self.b:.6g}, c={self.c:.6g}, d={self.d:.6g})"


class MapKind(enum.Enum):
    IDENTITY = "identity"
    ROTATION = "rotation-like-elliptic"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC_AUTOMORPHISM = "hyperbolic-automorphism"
    HYPERBOLIC_NONAUTOMORPHISM = "hyperbolic-nonautomorphism"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class LftClass:
    kind: MapKind
    is_automorphism: bool


@dataclass(frozen=True)
class FixedPointReport:
    """Fixed points with their disk location and the derivative there.

    ``points`` holds one entry for a double fixed point, two otherwise; the
    point at infinity (which occurs exactly when ``c = 0``) is stored as
    ``complex(inf)`` with location ``"exterior"`` and, as its multiplier,
    the derivative of the map read in the chart ``w = 1/z``.
    """

    points: tuple
    locations: tuple
    multipliers: tuple

    def _at(self, location: str) -> list:
        pairs = zip(self.points, self.locations, self.multipliers)
        return [(p, m) for p, loc, m in pairs if loc == location]

    def interior(self) -> list:
        """``(point, multiplier)`` pairs of the fixed points in the open disk."""
        return self._at("interior")

    def boundary(self) -> list:
        """``(point, multiplier)`` pairs of the fixed points on the circle."""
        return self._at("boundary")


def make(a, b, c, d) -> Lft:
    """Validated constructor: rejects degenerate and non-self-map coefficients."""
    phi = Lft(a, b, c, d)
    if not phi.is_self_map:
        raise NotSelfMapError(
            f"{phi!r} does not map the disk into itself (margin {phi.self_map_margin:.3e})"
        )
    return phi


def involution(alpha) -> Lft:
    """The self-inverse automorphism exchanging 0 and ``alpha``."""
    alpha = require_in_disk(alpha)
    return Lft(-1.0, alpha, -np.conj(alpha), 1.0)


def rotation(lam) -> Lft:
    """The map ``z -> lam z`` for unimodular ``lam``."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise NotUnitaryError(f"rotation factor must have modulus 1, got |{lam}| = {abs(lam)}")
    return Lft(lam, 0.0, 0.0, 1.0)


def scaled(phi: Lft, factor) -> Lft:
    """The map ``z -> factor * phi(z)``."""
    factor = complex(factor)
    return Lft(factor * phi.a, factor * phi.b, phi.c, phi.d)


def dilation_about(alpha, lam) -> Lft:
    """Conjugate of ``z -> lam z`` moving its fixed point from 0 to ``alpha``.

    Built as ``involution(alpha) o (lam * involution(alpha))``; unimodular
    ``lam`` gives the elliptic automorphism rotating around ``alpha``.
    """
    phi_a = involution(alpha)
    return make(*_compose_coeffs(phi_a, scaled(phi_a, lam)))


def hyperbolic_model(s) -> Lft:
    """The normal-form self-map ``z -> s z / (1 - (1 - s) z)`` fixing 0 and 1."""
    s = complex(s)
    return make(s, 0.0, -(1.0 - s), 1.0)


def _compose_coeffs(phi: Lft, psi: Lft):
    m = phi.coefficient_matrix() @ psi.coefficient_matrix()
    return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


def compose(phi: Lft, psi: Lft) -> Lft:
    """The composition ``phi o psi`` (apply ``psi`` first): matrix product of coefficients."""
    return Lft(*_compose_coeffs(phi, psi))


def inverse(phi: Lft) -> Lft:
    """Inverse as a fractional linear map.

    For an automorphism the result is again a self-map; otherwise it comes
    back with ``is_self_map = False``, which downstream constructors check.
    """
    return Lft(phi.d, -phi.b, -phi.c, phi.a)


def apply(phi: Lft, z) -> complex:
    """Evaluate ``phi`` at a finite point."""
    return phi(z)


def _locate(z) -> str:
    r = abs(z)
    if r < 1.0 - _BOUNDARY_TOL:
        return "interior"
    if r <= 1.0 + _BOUNDARY_TOL:
        return "boundary"
    return "exterior"


def fixed_points(phi: Lft) -> FixedPointReport:
    """Solve ``phi(z) = z``: the roots of ``c z**2 + (d - a) z - b = 0``.

    When ``c = 0`` the equation drops to degree one and the second fixed
    point of the map sits at infinity; it is reported as exterior.  Two
    roots closer than 1e-6 collapse to a single (parabolic-type) point,
    which is the resolution limit of this routine.
    """
    if phi.is_identity:
        raise IdentityMapError("every point is fixed by the identity")
    qa = phi.c / phi.scale
    qb = (phi.d - phi.a) / phi.scale
    qc = -phi.b / phi.scale
    if abs(qa) < 1e-14:
        # Affine map: one finite fixed point, the other at infinity.
        root = -qc / qb
        pts = (root, complex(math.inf, 0.0))
        mults = (phi.derivative(root), phi.d / phi.a)
        return FixedPointReport(pts, (_locate(root), "exterior"), mults)
    disc = qb * qb - 4.0 * qa * qc
    sq = np.sqrt(complex(disc))
    # Pick the sign that avoids cancellation in -b -+ sqrt(disc).
    if (np.conj(qb) * sq).real > 0.0:
        sq = -sq
    half = (-qb + sq) / 2.0
    if half == 0.0:
        root = -qb / (2.0 * qa)
        return FixedPointReport((root,), (_locate(root),), (phi.derivative(root),))
    r1 = half / qa
    r2 = qc / half
    if abs(r1 - r2) <= 1e-6 * max(1.0, abs(r1), abs(r2)):
        root = (r1 + r2) / 2.0
        return FixedPointReport((root,), (_locate(root),), (phi.derivative(root),))
    pts = (r1, r2)
    return FixedPointReport(
        pts, tuple(_locate(p) for p in pts), tuple(phi.derivative(p) for p in pts)
    )


def classify(phi: Lft) -> LftClass:
    """Sort a self-map into one of the seven conjugacy-style families.

    Identity and pure rotations are recognized structurally first; everything
    else is decided by where the fixed points fall relative to the circle.
    """
    if not phi.is_self_map:
        raise NotSelfMapError(f"{phi!r} is not a self-map of the disk")
    if phi.is_identity:
        return LftClass(MapKind.IDENTITY, True)
    if (
        abs(phi.b) <= 1e-12 * phi.scale
        and abs(phi.c) <= 1e-12 * phi.scale
        and abs(abs(phi.a / phi.d) - 1.0) <= _AUTOMORPHISM_SLACK
    ):
        return LftClass(MapKind.ROTATION, True)
    rep = fixed_points(phi)
    if len(rep.points) == 1:
        return LftClass(MapKind.PARABOLIC, phi.is_automorphism)
    locs = sorted(rep.locations)
    if locs == ["boundary", "interior"]:
        return LftClass(MapKind.HYPERBOLIC_NONAUTOMORPHISM, phi.is_automorphism)
    if locs == ["boundary", "boundary"]:
        return LftClass(MapKind.HYPERBOLIC_AUTOMORPHISM, phi.is_automorphism)
    if locs == ["exterior", "interior"]:
        kind = MapKind.ELLIPTIC if phi.is_automorphism else MapKind.LOXODROMIC
        return LftClass(kind, phi.is_automorphism)
    if locs == ["boundary", "exterior"]:
        # Single fixed point on the closed disk, sitting on the circle.
        return LftClass(MapKind.PARABOLIC, phi.is_automorphism)
    raise NotSelfMapError(f"{phi!r} has fixed-point pattern {locs}, impossible for a self-map")


def hyperbolic_normal_form(phi: Lft):
    """Conjugate an interior-plus-boundary hyperbolic map to the model ``hyperbolic_model(s)``.

    Returns ``(s, Phi)`` where ``Phi`` is the disk automorphism with
    ``Phi o phi o Phi^-1 = hyperbolic_model(s)``.  ``Phi`` is the involution
    at the interior fixed point followed by the rotation sending the image
    of the boundary fixed point to 1.  The multiplier satisfies
    ``|s| <= 1 - |1 - s|``, which forces ``s`` onto the real interval (0, 1).

    Hyperbolic automorphisms have no interior fixed point, so no conjugation
    onto the model exists for them; they raise ``NotHyperbolicError`` like
    every other non-qualifying class.
    """
    kind = classify(phi).kind
    if kind is not MapKind.HYPERBOLIC_NONAUTOMORPHISM:
        raise NotHyperbolicError(
            f"normal form needs an interior and a boundary fixed point, got {kind.value}"
        )
    rep = fixed_points(phi)
    alpha = rep.interior()[0][0]
    bpoint = rep.boundary()[0][0]
    bpoint = bpoint / abs(bpoint)
    lam = involution(alpha)(bpoint)
    lam = lam / abs(lam)
    conjugator = scaled(involution(alpha), np.conj(lam))
    model = compose(conjugator, compose(phi, inverse(conjugator)))
    s = (model.c + model.d) / model.d
    return s, conjugator


def elliptic_order(lam, n_max: int):
    """Least ``n <= n_max`` with ``lam**n = 1`` (to 1e-9), else ``None``.

    ``lam`` must be unimodular to 1e-12.  Powers are renormalized to the
    circle at every step so no drift accumulates over large ``n_max``.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) >= 1e-12:
        raise NotUnitaryError(f"need |lam| = 1 to 1e-12, got modulus {abs(lam)}")
    power = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        power = power * lam
        power = power / abs(power)
        if abs(power - 1.0) < _BOUNDARY_TOL:
            return n
    return None


def _require_expansion(phi: Lft, degree: int) -> None:
    if degree < 0:
        raise InvalidInputError(f"degree must be nonnegative, got {degree}")
    if not phi.is_self_map:
        raise NotSelfMapError(f"{phi!r} is not a self-map; expansion on the disk is meaningless")


def to_series(phi: Lft, degree: int) -> TruncatedSeries:
    """Maclaurin expansion of a self-map: ``(b + a z)`` times ``1/(c z + d)``."""
    _require_expansion(phi, degree)
    numerator = TruncatedSeries([phi.b, phi.a])
    return mul(numerator, reciprocal_linear(phi.c, phi.d, degree), degree)


def power_table(phi: Lft, count: int, degree: int) -> np.ndarray:
    """Expansions of ``phi**0, ..., phi**(count-1)`` to ``degree``, the columns of one array.

    The table comes from the O(1)-per-entry recurrence of
    :func:`~bergman_csym.series.mobius_powers`; like :func:`to_series` it is
    refused for a map that is not a self-map.
    """
    _require_expansion(phi, degree)
    return mobius_powers(phi.a, phi.b, phi.c, phi.d, count, degree)
