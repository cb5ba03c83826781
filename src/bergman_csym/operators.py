"""Finite matrix models of composition, multiplication, and adjoint operators.

All matrices act on coordinates in the orthonormal monomial basis

    e_n = z**n / sqrt(w(n)),

so the matrix of an operator adjoint is literally the conjugate transpose.
A series ``f = sum f[n] z**n`` has coordinates ``f[n] * sqrt(w(n))``; the
helpers :func:`to_coords` and :func:`from_coords` convert both ways.  A
matrix of dimension D+1 is the compression of the infinite operator to
degrees 0..D.  Compressions of products are not products of compressions
in general; they are when the left factors are lower triangular and the
right factors upper triangular, which is what lets the adjoint
factorization be checked exactly from low-degree blocks alone.

The column of a composition matrix is explicit: column j of ``C_phi`` holds
the coefficients of ``phi**j`` rescaled entrywise by ``sqrt(w(n)/w(j))``,
and multiplication by a series is a scaled lower-triangular Toeplitz
matrix.  The adjoint of multiplication by z acts on coefficients as

    (Mz* f)[n] = (n + 1) / (n + 2 + beta) * f[n + 1],

a ratio of consecutive weights; its m-th power sends ``z**n`` to an exact
scalar multiple of ``z**(n-m)`` (zero once m exceeds n), with the scalar a
plain product of m weight ratios.  These exact coefficient routes are used
as ground truth against the conjugate-transpose matrix route in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidInputError,
    NonIntegerBetaError,
    NotSelfMapError,
    require_in_disk,
)
from .lft import Lft, involution, make, power_table, to_series
from .series import TruncatedSeries, binomial_expand, compose, mul, powers
from .space import SpaceParams, _divided_by_weights, _divisor_weights, kernel_series, weights

__all__ = [
    "OperatorMatrix",
    "to_coords",
    "from_coords",
    "composition_matrix",
    "multiplication_matrix",
    "mzstar_apply",
    "mzstar_on_monomial",
    "hurst_factors",
    "verify_hurst",
    "involution_adjoint_apply",
]


def _owned_square(mat, what: str) -> np.ndarray:
    """``mat`` as a read-only square complex array, copied unless nothing else can write to it."""
    arr = np.asarray(mat, dtype=np.complex128)
    owner = arr.base if isinstance(arr.base, np.ndarray) else arr
    arr = arr.copy() if arr.flags.writeable or owner.flags.writeable else arr
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatchError(f"{what} must be square, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class OperatorMatrix:
    """A read-only square complex matrix and its space; copied unless nothing else can write to it."""

    mat: np.ndarray
    params: SpaceParams

    def __post_init__(self):
        object.__setattr__(self, "mat", _owned_square(self.mat, "operator matrix"))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def adjoint(self) -> "OperatorMatrix":
        """Adjoint in the orthonormal basis: conjugate transpose."""
        conj = self.mat.conj()
        conj.flags.writeable = False
        return OperatorMatrix(conj.T, self.params)


def to_coords(params: SpaceParams, f: TruncatedSeries, dim: int) -> np.ndarray:
    """Coordinates of a series in the orthonormal basis, padded or cut to ``dim``."""
    w = weights(params, dim - 1)
    vec = np.zeros(dim, dtype=np.complex128)
    n = min(dim, f.coeffs.size)
    vec[:n] = f.coeffs[:n] * np.sqrt(w[:n])
    return vec


def from_coords(params: SpaceParams, vec: np.ndarray) -> TruncatedSeries:
    """Series whose orthonormal coordinates are ``vec``."""
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return TruncatedSeries(_divided_by_weights(params, vec.size - 1, vec, root=True))


def _series_symbol(f: TruncatedSeries, degree: int) -> TruncatedSeries:
    # Cut to degree, never padded: each power is then one short convolution.
    f = f.resized(min(f.degree, degree))
    # No closed self-map test exists for a bare series; sample just inside
    # the circle and insist the values stay in the open disk.
    zs = (1.0 - 1e-3) * np.exp(2j * np.pi * np.arange(512) / 512)
    if np.max(np.abs(f(zs))) >= 1.0:
        raise NotSelfMapError("series symbol exceeds modulus 1 on |z| = 1 - 1e-3")
    return f


def composition_matrix(symbol, params: SpaceParams, degree: int) -> OperatorMatrix:
    """Compression of ``f -> f o symbol`` to degrees 0..``degree``.

    ``symbol`` may be a fractional linear self-map or a truncated series.
    Column j is the truncated power ``symbol**j`` rescaled entrywise by
    ``sqrt(w(n)/w(j))``, so the matrix is exact for polynomial symbols and
    carries only the tail truncation of the powers otherwise.  The powers of
    a fractional linear map come from the O(1)-per-entry recurrence of
    :func:`~bergman_csym.lft.power_table`, O(D**2) in all; those of a series
    from repeated convolution, O(D**3).
    """
    if degree < 0:
        raise InvalidInputError(f"degree must be nonnegative, got {degree}")
    if isinstance(symbol, Lft):
        table = power_table(symbol, degree + 1, degree)
    else:
        table = powers(_series_symbol(symbol, degree), degree + 1, degree)
    sqrtw = np.sqrt(_divisor_weights(params, degree))
    # Scaled in place: at degree 1024 every temporary matrix is another 17 MB.
    table *= sqrtw[:, None]
    table /= sqrtw
    table.flags.writeable = False
    return OperatorMatrix(table, params)


def multiplication_matrix(psi: TruncatedSeries, params: SpaceParams, degree: int) -> OperatorMatrix:
    """Compression of ``f -> psi * f``: a weighted lower-triangular Toeplitz matrix.

    Exact on any ``f`` with ``deg f <= degree - deg psi``; beyond that the
    product would overflow the truncation and the top rows lose mass.
    """
    dim = degree + 1
    col = np.zeros(dim, dtype=np.complex128)
    n = min(dim, psi.coeffs.size)
    col[:n] = psi.coeffs[:n]
    i = np.arange(dim)
    sqrtw = np.sqrt(_divisor_weights(params, degree))
    mat = np.tril(col[i[:, None] - i[None, :]]) * (sqrtw[:, None] / sqrtw[None, :])
    mat.flags.writeable = False
    return OperatorMatrix(mat, params)


def mzstar_apply(params: SpaceParams, f: TruncatedSeries) -> TruncatedSeries:
    """Adjoint of multiplication by z, applied exactly on coefficients.

    Coefficient n of the result is ``(n+1)/(n+2+beta) * f[n+1]``; the ratio
    is the exact gamma-quotient of consecutive weights, so no special
    functions are needed.
    """
    deg = f.degree
    out = np.zeros(deg + 1, dtype=np.complex128)
    if deg > 0:
        n = np.arange(deg, dtype=np.float64)
        out[:deg] = (n + 1.0) / (n + 2.0 + params.beta) * f.coeffs[1:]
    return TruncatedSeries(out)


def mzstar_on_monomial(params: SpaceParams, m: int, n: int):
    """Exact action of the m-th power of Mz* on ``z**n``.

    Returns ``(coeff, n - m)`` with ``(Mz*)**m z**n = coeff * z**(n-m)``.
    The coefficient is the product of the m weight ratios picked up one
    degree at a time, and is exactly zero once ``m > n``.
    """
    if m < 0 or n < 0:
        raise InvalidInputError(f"m and n must be nonnegative, got {m} and {n}")
    if m > n:
        return 0.0, n - m
    coeff = 1.0
    for i in range(m):
        coeff *= (n - i) / (n + 1.0 + params.beta - i)
    return coeff, n - m


def hurst_factors(phi: Lft, params: SpaceParams, degree: int):
    """Factors ``(g, sigma, h)`` of the adjoint identity ``C_phi* = M_g C_sigma M_h*``.

    For ``phi = (a z + b)/(c z + d)`` the companion self-map and the two
    multipliers are

        sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)),
        g(z) = (-conj(b) z + conj(d)) ** -(beta+2),
        h(z) = (c z + d) ** (beta+2),

    expanded here to the requested degree (principal branches for
    non-integer exponents; both bases are zero-free on the closed disk
    because ``|b| < |d|`` for any self-map).  When ``phi`` is the involution
    at ``alpha`` this specializes to ``sigma`` the involution itself, ``g``
    the reproducing kernel at ``alpha`` and ``h`` its reciprocal.
    """
    if not phi.is_self_map:
        raise NotSelfMapError(f"{phi!r} is not a self-map of the disk")
    a, b, c, d = phi.a, phi.b, phi.c, phi.d
    sigma = make(np.conj(a), -np.conj(c), -np.conj(b), np.conj(d))
    p = params.beta + 2.0
    db = np.conj(d)
    g = complex(db) ** (-p) * binomial_expand(-np.conj(b) / db, -p, degree)
    h = complex(d) ** p * binomial_expand(c / d, p, degree)
    return g, sigma, h


def verify_hurst(phi: Lft, params: SpaceParams, degree: int, block: int) -> float:
    """Frobenius residual of the adjoint factorization on a low-degree block:

        || (C_phi^H - M_g C_sigma M_h^H)[:block, :block] ||_F.

    ``M_g`` is lower and ``M_h^H`` upper triangular, so at any truncation
    degree the block of the product is the product of the three
    ``block x block`` blocks.  The residual is therefore built from matrices
    of dimension ``block`` and does not depend on ``degree``, which only
    caps ``block`` at ``degree // 4``.
    """
    if not 1 <= block <= degree // 4:
        raise DimMismatchError(f"block {block} outside [1, degree // 4] for degree {degree}")
    block_degree = block - 1
    g, sigma, h = hurst_factors(phi, params, block_degree)
    cphi = composition_matrix(phi, params, block_degree)
    csigma = composition_matrix(sigma, params, block_degree)
    mg = multiplication_matrix(g, params, block_degree)
    mh = multiplication_matrix(h, params, block_degree)
    resid = cphi.mat.conj().T - mg.mat @ csigma.mat @ mh.mat.conj().T
    return float(np.linalg.norm(resid))


# The largest integer beta whose binomials C(2+beta, k) are all doubles: C(1030, 515) is not.
_EXACT_BETA_MAX = 1027


def _exact_beta(beta: float) -> int:
    """``int(beta)`` for an exact finite formula, or ``InvalidInputError`` past ``_EXACT_BETA_MAX``."""
    if beta > _EXACT_BETA_MAX:
        raise InvalidInputError(
            f"exact formulas need beta <= {_EXACT_BETA_MAX}, where C(2+beta, k) stays in the "
            f"double range; got beta = {beta}"
        )
    return int(beta)


def _binomial_alpha_weights(alpha: complex, beta: float) -> np.ndarray:
    """The finite coefficients ``C(2+beta, k) (-alpha)**k``, k = 0..2+beta, for integer ``beta``."""
    top = _exact_beta(beta) + 2
    return np.array(
        [math.comb(top, k) * (-alpha) ** k for k in range(top + 1)], dtype=np.complex128
    )


def _cowen_sum(
    params: SpaceParams, alpha: complex, f: TruncatedSeries, degree: int, coeffs: np.ndarray
) -> TruncatedSeries:
    """Evaluate ``M_K C_inv M_h* f`` at the given truncation, ``M_h* = sum_k coeffs[k] (Mz*)**k``.

    ``M_K`` multiplies by the kernel at ``alpha`` and ``C_inv`` composes with
    the involution at ``alpha``; both are linear, so they run once, on the
    summed ``M_h* f``.  The tests drive this with wrong coefficient sequences.
    """
    term = f.resized(degree)
    hstar_f = np.zeros(degree + 1, dtype=np.complex128)
    for k, r in enumerate(coeffs):
        if k > 0:
            term = mzstar_apply(params, term)
        hstar_f += r * term.coeffs
    composed = compose(TruncatedSeries(hstar_f), to_series(involution(alpha), degree), degree)
    return mul(kernel_series(params, alpha, degree), composed, degree)


def involution_adjoint_apply(
    params: SpaceParams, alpha: complex, f: TruncatedSeries, degree: int
) -> TruncatedSeries:
    """Adjoint of composition with the involution at ``alpha``, by finite formula.

    For integer ``beta`` and ``h = (1 - conj(alpha) z)**(2+beta)`` the adjoint is

        C* f = M_K C_inv M_h* f,   M_h* = sum_{k=0}^{2+beta} C(2+beta, k) (-alpha)**k (Mz*)**k,

    Hurst's ``M_g C_sigma M_h*`` with ``sigma = phi``: ``hurst_factors`` gives
    the involution, the kernel ``K`` at ``alpha`` and ``conj(h_k)`` as above.
    The sum is finite, so the result is exact up to the truncation of one
    composition and one product.  At ``alpha = 0`` it is ``f(z) -> f(-z)``.

    Near the circle the product with the kernel, of size
    ``(1 - |alpha|**2)**-(2+beta)``, cancels: on monomials (D = 48, beta = 2)
    the result leaves the power-table bound ``(D+1) 2**-52 max|exact|`` from
    |alpha| = 0.875 on, 1.22 times it there and 20 times at |alpha| = 0.984.
    For the image of a monomial, :func:`~bergman_csym.csym.adjoint_monomial`
    is the accurate route.
    """
    if not params.integer_beta:
        raise NonIntegerBetaError(
            f"the finite adjoint formula needs integer beta, got {params.beta}"
        )
    alpha = require_in_disk(alpha)
    r = _binomial_alpha_weights(alpha, params.beta)
    return _cowen_sum(params, alpha, f, degree, r)
