"""Orbit dynamics of disk self-maps and eigenvalue spot checks.

Iteration is purely numerical and accepts either a fractional linear map
or any callable self-map, so symbols that are not rational still get
orbits, attractor estimates, and Gram-rank diagnostics.  The attracting
fixed point of a non-elliptic self-map (the common limit of all orbits) is
read off the fixed-point report rather than iterated for, but orbits are
the independent check: convergence is geometric away from parabolic-type
boundary contact and only O(1/n) there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimMismatchError,
    EscapedDiskError,
    ExponentOutOfRangeError,
    IdentityMapError,
    InvalidInputError,
    NotSelfMapError,
)
from .lft import Lft, MapKind, classify, fixed_points
from .operators import OperatorMatrix, to_coords
from .series import TruncatedSeries, binomial_expand, compose
from .space import SpaceParams, norm

__all__ = [
    "OrbitReport",
    "DenjoyWolffResult",
    "iterate",
    "denjoy_wolff",
    "hurst_eigencheck",
    "orbit_gram",
]

_CONV_TOL = 1e-12
_CONV_RUN = 5
_ESCAPE_SLACK = 1e-6


@dataclass(frozen=True)
class OrbitReport:
    """Forward orbit of a point with a simple convergence verdict.

    ``iterates`` starts at the seed; ``converged`` means the last
    ``_CONV_RUN`` steps each moved less than 1e-12, in which case ``limit``
    is the final iterate.
    """

    iterates: np.ndarray
    converged: bool
    limit: Optional[complex]
    steps: int


@dataclass(frozen=True)
class DenjoyWolffResult:
    point: complex
    route: str


def iterate(phi, z0: complex, steps: int) -> OrbitReport:
    """Run the forward orbit ``z0, phi(z0), ...`` for at most ``steps`` steps.

    Stops early once five consecutive moves fall under 1e-12.  Any iterate
    leaving the closed disk (with a small slack) aborts with
    ``EscapedDiskError``: a genuine self-map cannot do that, so the symbol
    was invalid.
    """
    if steps < 0:
        raise InvalidInputError(f"steps must be nonnegative, got {steps}")
    z = complex(z0)
    if not abs(z) <= 1.0 + _ESCAPE_SLACK:
        raise EscapedDiskError(f"seed {z} lies outside the closed disk")
    orbit = [z]
    quiet = 0
    for k in range(steps):
        z_next = complex(phi(z))
        if not (np.isfinite(z_next.real) and np.isfinite(z_next.imag)) or abs(
            z_next
        ) > 1.0 + _ESCAPE_SLACK:
            raise EscapedDiskError(f"orbit escaped the disk at step {k + 1}: {z_next}")
        orbit.append(z_next)
        quiet = quiet + 1 if abs(z_next - z) < _CONV_TOL else 0
        z = z_next
        if quiet >= _CONV_RUN:
            break
    converged = quiet >= _CONV_RUN
    return OrbitReport(
        iterates=np.array(orbit, dtype=np.complex128),
        converged=converged,
        limit=z if converged else None,
        steps=len(orbit) - 1,
    )


def denjoy_wolff(phi: Lft) -> DenjoyWolffResult:
    """Attracting point of a non-elliptic self-map, from the fixed-point data.

    Elliptic maps (including rotations) have no attractor; they come back
    with route ``"elliptic-no-dw"`` carrying their interior fixed point so
    callers still learn the rotation center.  The identity raises.
    """
    kind = classify(phi).kind
    if kind is MapKind.IDENTITY:
        raise IdentityMapError("the identity has no distinguished fixed point")
    rep = fixed_points(phi)
    if kind in (MapKind.ROTATION, MapKind.ELLIPTIC):
        return DenjoyWolffResult(point=rep.interior()[0][0], route="elliptic-no-dw")
    if kind in (MapKind.HYPERBOLIC_NONAUTOMORPHISM, MapKind.LOXODROMIC):
        return DenjoyWolffResult(point=rep.interior()[0][0], route="interior-fixed-point")
    # Parabolic or hyperbolic automorphism: attractor is on the circle.
    point, _ = min(rep.boundary(), key=lambda pm: abs(pm[1]))
    return DenjoyWolffResult(point=point / abs(point), route="boundary-attracting")


def hurst_eigencheck(
    s: complex,
    exponent: float,
    params: SpaceParams,
    degree: int,
    block_degree: Optional[int] = None,
) -> float:
    """Residual of the eigen-relation for powers of ``1 - z`` under ``z -> s z + 1 - s``.

    The affine map fixes 1, and composing gives exactly
    ``(1 - (s z + 1 - s))**p = s**p (1 - z)**p``: the power function is an
    eigenvector with eigenvalue ``s**exponent``.  The check expands
    ``(1 - z)**exponent`` to ``degree``, composes only to ``block_degree``
    (default ``degree // 4``; coefficients up to it do not depend on the
    truncation), and returns the relative space-norm residual there.
    Truncation error enters only through the slowly decaying binomial tail,
    so the residual falls as ``degree`` grows; an integer exponent terminates,
    so the check is exact once ``degree >= exponent`` (at degree 0 and exponent 1
    it reads ``|1 - s|``).

    The power function lies in the space only for
    ``exponent > -(beta + 2) / 2``; outside that range the check refuses.
    """
    s = complex(s)
    if not 0.0 < abs(s) < 1.0:
        raise NotSelfMapError(f"need 0 < |s| < 1, got {abs(s)}")
    if abs(1.0 - s) >= 1.0:
        raise NotSelfMapError(f"z -> s z + 1 - s with s = {s} does not fix the disk")
    if not math.isfinite(exponent):
        raise InvalidInputError(f"exponent must be finite, got {exponent}")
    if exponent <= -(params.beta + 2.0) / 2.0:
        raise ExponentOutOfRangeError(
            f"(1 - z)**{exponent} is not in the space for beta = {params.beta}"
        )
    if block_degree is None:
        block_degree = degree // 4
    if not 0 <= block_degree <= degree:
        raise DimMismatchError(f"block degree {block_degree} outside [0, {degree}]")
    f = binomial_expand(-1.0, exponent, degree)
    sigma = TruncatedSeries([1.0 - s, s])
    composed = compose(f, sigma, block_degree)
    eig = complex(s) ** exponent
    diff = TruncatedSeries(composed.coeffs - eig * f.coeffs[: block_degree + 1])
    ref = TruncatedSeries(f.coeffs[: block_degree + 1])
    return float(norm(params, diff) / norm(params, ref))


def orbit_gram(t: OperatorMatrix, f: TruncatedSeries, count: int):
    """Gram matrix and numerical rank of ``f, T f, ..., T**(count-1) f``.

    Inner products are taken in the operator's space (plain dot products of
    orthonormal coordinates).  The rank counts singular values above 1e-8
    of the largest one; a full-rank Gram certifies the orbit vectors are
    genuinely independent at that resolution.
    """
    if count < 1:
        raise InvalidInputError(f"count must be positive, got {count}")
    if count > t.dim:
        raise DimMismatchError(f"count {count} exceeds matrix dimension {t.dim}")
    vec = to_coords(t.params, f, t.dim)
    rows = np.empty((count, t.dim), dtype=np.complex128)
    for k in range(count):
        rows[k] = vec
        if k + 1 < count:
            vec = t.mat @ vec
    gram = rows @ rows.conj().T
    sv = np.linalg.svd(gram, compute_uv=False)
    rank = int(np.sum(sv >= 1e-8 * sv[0])) if sv[0] > 0 else 0
    return gram, rank
