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
from .series import TruncatedSeries

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
    arr.flags.writeable = False
    return arr


def weights(params: SpaceParams, n_max: int) -> np.ndarray:
    """Weights ``w(0), ..., w(n_max)`` as a read-only array (cached)."""
    if n_max < 0:
        raise InvalidInputError(f"n_max must be nonnegative, got {n_max}")
    return _weights_cached(params.beta, n_max)


def _divisor_weights(params: SpaceParams, n_max: int) -> np.ndarray:
    """``weights(params, n_max)`` for a caller that divides by them; ``InvalidInputError`` if one is 0.

    Weights decrease in n, so the last one decides; far enough out they underflow.
    """
    w = weights(params, n_max)
    if w[-1] == 0.0:
        raise InvalidInputError(
            f"weight w({np.count_nonzero(w)}) underflows to 0 at beta = {params.beta}; "
            f"a division by it leaves the double range"
        )
    return w


def _divided_by_weights(
    params: SpaceParams, n_max: int, values=1.0, cumulative: bool = False, root: bool = False
) -> np.ndarray:
    """``values[..., n] / w(n)``, or ``/ sqrt(w(n))`` with ``root``, for ``n = 0..n_max``, or partial sums.

    A complex numerator is divided part by part, so each part is correctly rounded: numpy
    divides complex by real through the rounded reciprocal, which puts a part one ulp off
    for about 44% of random quotients and overflows at a subnormal weight where the
    quotient need not.  ``InvalidInputError`` names the first ``n`` whose quotient leaves
    the double range, in any row.
    """
    w = _divisor_weights(params, n_max)
    divisors = np.sqrt(w) if root else w
    values = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(values):
            out = np.empty(values.shape, dtype=np.complex128)
            np.divide(values.real, divisors, out=out.real)
            np.divide(values.imag, divisors, out=out.imag)
        else:
            out = values / divisors
        if cumulative:
            out = np.cumsum(out)
    finite = np.isfinite(out).reshape(-1, w.size).all(axis=0)
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
