"""Weighted Hilbert spaces of analytic functions on the unit disk.

A single real parameter ``beta >= -1`` fixes the space.  Functions are
identified with their Maclaurin coefficient sequences and the inner product
is the weighted l2 pairing

    <f, g> = sum_n w(n) f[n] conj(g[n]),      w(n) = n! G(2+beta) / G(n+2+beta),

with ``G`` the gamma function and ``w(0) = 1``.  At ``beta = -1`` every
weight is 1 and the space is the classical sequence model of the Hardy
space; for larger ``beta`` the weights decay like ``n**-(1+beta)``, which is
why the monomials stay in the space while their normalizations grow.

Integer ``beta`` is computed through exact integer binomials so the weights
are correctly rounded.  Every other ``beta`` uses the product of the
consecutive ratios ``w(k) / w(k-1) = k / (k + 1 + beta)``; each factor rounds
at most three times, so ``w(n)`` is within about ``3n`` unit roundoffs of its
exact value, relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, require_in_disk
from .series import TruncatedSeries, _require_sizes

__all__ = [
    "SpaceParams",
    "weight",
    "weights",
    "inner_product",
    "norm",
    "kernel_series",
    "suggest_kernel_degree",
    "weight_reciprocal_sums",
]


@dataclass(frozen=True)
class SpaceParams:
    """Weight exponent of the space; ``beta = -1`` is the unweighted case."""

    beta: float

    def __post_init__(self):
        b = float(self.beta)
        if not math.isfinite(b) or b < -1.0:
            raise InvalidInputError(f"beta must be a finite real >= -1, got {self.beta!r}")
        object.__setattr__(self, "beta", b)

    @property
    def integer_beta(self) -> bool:
        return float(self.beta).is_integer()

    @property
    def unit_weights(self) -> bool:
        """Whether every weight is exactly 1: the Hardy space, ``beta = -1``.

        Weighting by ``sqrt(w)`` then changes no value, so :func:`_orthonormal` and
        :func:`_weighted_rows` skip it, and with them every table and
        :func:`~bergman_csym.operators.to_coords`.
        """
        return self.beta == -1.0


@lru_cache(maxsize=None)
def _weights_cached(beta: float, n_max: int) -> np.ndarray:
    if float(beta).is_integer():
        shift = int(beta) + 1
        # 1 / C(n + beta + 1, beta + 1): int true division rounds correctly and underflows to 0.
        vals = [1 / math.comb(n + shift, shift) for n in range(n_max + 1)]
        arr = np.array(vals, dtype=np.float64)
    else:
        # w(n) = prod_{k<=n} k / (k + 1 + beta)
        k = np.arange(1, n_max + 1.0)
        arr = np.concatenate(([1.0], np.cumprod(k / (k + 1.0 + beta))))
    rows = np.array([arr, np.sqrt(arr)])  # w and sqrt(w): the one square root of a weight
    rows.flags.writeable = False
    return rows


def weights(params: SpaceParams, n_max: int) -> np.ndarray:
    """Weights ``w(0), ..., w(n_max)`` as a read-only array (cached)."""
    if n_max < 0:
        raise InvalidInputError(f"n_max must be nonnegative, got {n_max}")
    return _weights_cached(params.beta, n_max)[0]


def _divisor_weights(params: SpaceParams, n_max: int) -> np.ndarray:
    """Rows ``w`` and ``sqrt(w)`` for a caller that divides by them; ``InvalidInputError`` if a weight is 0.

    Weights decrease in n, so the last one decides; far enough out they underflow.
    """
    w = weights(params, n_max)
    if w[-1] == 0.0:
        raise InvalidInputError(
            f"weight w({np.count_nonzero(w)}) underflows to 0 at beta = {params.beta}; "
            f"a division by it leaves the double range"
        )
    return _weights_cached(params.beta, n_max)


def _divide_parts(values: np.ndarray, divisors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values / divisors`` into ``out`` for complex ``values`` and real ``divisors``, part by part.

    Each part is correctly rounded: numpy divides complex by real through the rounded
    reciprocal, which puts a part one ulp off for about 44% of random quotients and overflows at
    a subnormal divisor where the quotient need not.  ``out`` may be ``values``.

    ``values`` and ``out`` are C-contiguous, divided in one pass over their float64 views with
    each divisor repeated for the two parts it divides, or both column-major 2-D tables: the
    transpose of a row-major one, divided along its rows.
    """
    if values.flags.c_contiguous and out.flags.c_contiguous:
        np.divide(values.view(np.float64), divisors.repeat(2), out=out.view(np.float64))
    else:
        np.divide(values.T.view(np.float64), divisors[:, None], out=out.T.view(np.float64))
    return out


def _orthonormal(params: SpaceParams, table: np.ndarray) -> np.ndarray:
    """A coefficient table into orthonormal coordinates, in place: ``T[n, m] sqrt(w(n)) / sqrt(w(m))``.

    Row n is multiplied by ``sqrt(w(n))``, as cached with ``w``, then column m divided by
    ``sqrt(w(m))`` part by part (:func:`_divide_parts`), so each part is correctly rounded;
    ``table`` is C-contiguous or the transpose of one.  ``InvalidInputError`` if a weight it
    reads underflows to 0 (:func:`_divisor_weights`).  At ``beta = -1`` it is left as it is.
    """
    if not params.unit_weights:
        sqrtw = _divisor_weights(params, max(table.shape) - 1)[1]
        # In place: at degree 1024 every temporary table is another 17 MB.
        table *= sqrtw[: table.shape[0], None]
        _divide_parts(table, sqrtw[: table.shape[1]], table)
    return table


def _weighted_rows(params: SpaceParams, table: np.ndarray) -> np.ndarray:
    """Row n of ``table`` multiplied by ``sqrt(w(n))`` in place; left as it is at ``beta = -1``."""
    if not params.unit_weights:
        # The cache entry :func:`_orthonormal` reads for the same table.
        table *= _weights_cached(params.beta, max(table.shape) - 1)[1, : table.shape[0], None]
    return table


def _divided_by_weights(
    params: SpaceParams, n_max: int, values=1.0, cumulative: bool = False, root: bool = False
) -> np.ndarray:
    """``values[n] / w(n)``, or ``/ sqrt(w(n))`` with ``root``, for ``n = 0..n_max``, or partial sums.

    ``values`` is a scalar or a C-contiguous vector; a complex one is divided part by part
    (:func:`_divide_parts`).  ``InvalidInputError`` names the first ``n`` whose quotient
    leaves the double range.
    """
    divisors = _divisor_weights(params, n_max)[1 if root else 0]
    values = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(values):
            out = _divide_parts(values, divisors, np.empty(values.shape, dtype=np.complex128))
        else:
            out = values / divisors
        if cumulative:
            out = np.cumsum(out)
    finite = np.isfinite(out)
    if not finite.all():
        n = int(np.argmin(finite))
        divisor = f"sqrt(w({n}))" if root else f"w({n})"
        raise InvalidInputError(
            f"a division by {divisor} = {divisors[n]:.3g} leaves the double range at beta = {params.beta}"
        )
    return out


def weight(params: SpaceParams, n: int) -> float:
    """The single weight ``w(n)``."""
    return float(weights(params, n)[n])


def inner_product(params: SpaceParams, f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Weighted pairing of two series; the shorter one counts as zero-padded."""
    n = min(f.coeffs.size, g.coeffs.size)
    w = weights(params, n - 1)
    return complex(np.sum(w * f.coeffs[:n] * np.conj(g.coeffs[:n])))


def norm(params: SpaceParams, f: TruncatedSeries) -> float:
    """Space norm of a truncated series."""
    n = f.coeffs.size
    w = weights(params, n - 1)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def kernel_series(params: SpaceParams, alpha: complex, degree: int) -> TruncatedSeries:
    """Truncated reproducing kernel at ``alpha``: coefficient n is ``conj(alpha)**n / w(n)``.

    This is the expansion of ``(1 - conj(alpha) z)**-(2+beta)``; the direct
    coefficient formula is used because the weights are already exact.
    Requires ``|alpha| < 1``.
    """
    alpha = require_in_disk(alpha)
    _require_sizes(degree=degree)
    powers = np.conj(alpha) ** np.arange(degree + 1)
    return TruncatedSeries(_divided_by_weights(params, degree, powers))


def suggest_kernel_degree(alpha: complex, tol: float) -> int:
    """Smallest degree whose kernel tail ratio ``|alpha|**D`` drops below ``tol``."""
    if not 0 < tol < 1:
        raise InvalidInputError(f"tol must lie in (0, 1), got {tol!r}")
    a = abs(complex(alpha))
    if a == 0.0:
        return 0
    require_in_disk(alpha)
    return int(math.ceil(math.log(tol) / math.log(a)))


def weight_reciprocal_sums(params: SpaceParams, n_max: int) -> np.ndarray:
    """Partial sums ``S_k = sum_{n<=k} 1/w(n)`` for ``k = 0..n_max``.

    The terms grow like ``n**(1+beta)``, so the sums are unbounded for every
    admissible ``beta``; this is the sequence whose divergence rules out
    convergent kernel-mass shortcuts at the boundary.
    """
    return _divided_by_weights(params, n_max, cumulative=True)
