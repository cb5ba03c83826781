"""Truncated Maclaurin series over the complex numbers.

Every analytic computation in this package runs on degree-D truncations of
Maclaurin expansions.  A :class:`TruncatedSeries` stores the coefficients
``c[0], ..., c[D]`` of ``sum c[n] z**n`` as an immutable complex array; the
operations below are pure functions that take the output truncation degree
explicitly, so the precision of every computation is visible at the call
site.  Nothing here is symbolic: products are Cauchy convolutions cut at
degree D, and composition is Horner evaluation over truncated powers, which
is valid even when the inner series has a nonzero constant term.  The power
table of a general series costs one convolution per power, O(D**3) for D
powers; that of a fractional linear map comes from a recurrence with O(1)
work per entry, O(D**2) in all (:func:`mobius_powers`).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDenominatorError, InvalidInputError

__all__ = [
    "TruncatedSeries",
    "mul",
    "powers",
    "mobius_powers",
    "compose",
    "reciprocal_linear",
    "binomial_expand",
]


def _require_finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, or ``InvalidInputError`` if any entry is NaN or infinite."""
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("series coefficients must be finite")
    return arr


class TruncatedSeries:
    """Maclaurin coefficients of a function, kept up to a fixed degree.

    ``coeffs[n]`` is the coefficient of ``z**n``.  The array is copied on
    construction and write-locked, so instances can be shared freely.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise InvalidInputError("a series needs at least its constant coefficient")
        arr.flags.writeable = False
        self.coeffs = _require_finite(arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def constant(cls, value, degree: int) -> "TruncatedSeries":
        arr = np.zeros(degree + 1, dtype=np.complex128)
        arr[0] = value
        return cls(arr)

    @classmethod
    def one(cls, degree: int) -> "TruncatedSeries":
        return cls.constant(1.0, degree)

    @classmethod
    def identity(cls, degree: int) -> "TruncatedSeries":
        return cls.monomial(1, degree)

    @classmethod
    def monomial(cls, n: int, degree: int) -> "TruncatedSeries":
        if not 0 <= n <= degree:
            raise InvalidInputError(f"monomial degree {n} outside [0, {degree}]")
        arr = np.zeros(degree + 1, dtype=np.complex128)
        arr[n] = 1.0
        return cls(arr)

    def resized(self, degree: int) -> "TruncatedSeries":
        """Copy with the coefficient array padded or cut to the new degree."""
        if degree < 0:
            raise InvalidInputError(f"degree must be nonnegative, got {degree}")
        if degree == self.degree:
            return self
        arr = np.zeros(degree + 1, dtype=np.complex128)
        keep = min(degree, self.degree) + 1
        arr[:keep] = self.coeffs[:keep]
        return TruncatedSeries(arr)

    def __call__(self, z):
        """Evaluate by Horner's rule; accepts scalars or arrays."""
        acc = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc if acc.ndim else complex(acc)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            d = min(self.degree, other.degree)
            return TruncatedSeries(self.coeffs[: d + 1] + other.coeffs[: d + 1])
        arr = self.coeffs.copy()
        arr[0] += other
        return TruncatedSeries(arr)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            d = min(self.degree, other.degree)
            return TruncatedSeries(self.coeffs[: d + 1] - other.coeffs[: d + 1])
        arr = self.coeffs.copy()
        arr[0] -= other
        return TruncatedSeries(arr)

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other, min(self.degree, other.degree))
        return TruncatedSeries(self.coeffs * other)

    __rmul__ = __mul__

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        tail = ", ..." if self.degree > 3 else ""
        return f"TruncatedSeries(degree={self.degree}, coeffs={head[:-1]}{tail}])"


def mul(f: TruncatedSeries, g: TruncatedSeries, degree: int) -> TruncatedSeries:
    """Cauchy product of two series, truncated at ``degree``."""
    return TruncatedSeries(np.convolve(f.coeffs, g.coeffs)[: degree + 1]).resized(degree)


def powers(g: TruncatedSeries, count: int, degree: int) -> np.ndarray:
    """Truncated powers ``g**0, ..., g**(count-1)``, the columns of a ``(degree+1, count)`` array.

    Each power is the previous one times ``g``, cut at ``degree``.  The table
    is checked for finiteness once, which rejects what a check per power
    would: see :func:`compose`.
    """
    table = np.zeros((degree + 1, count), dtype=np.complex128)
    table[0, :1] = 1.0
    for j in range(1, count):
        table[:, j] = np.convolve(table[:, j - 1], g.coeffs)[: degree + 1]
    return _require_finite(table)


def mobius_powers(a, b, c, d, count: int, degree: int) -> np.ndarray:
    """Truncated powers of ``(a z + b)/(c z + d)`` as the columns of a ``(degree+1, count)`` array.

    Clearing the denominator in ``phi**j = phi**(j-1) * phi`` gives the
    entrywise recurrence

        d T[n, j] = b T[n, j-1] + a T[n-1, j-1] - c T[n-1, j],

    O(1) work per entry, against O(D) for a convolution.  Errors are damped
    by ``|c/d| < 1``, which holds for every self-map.  Each entry needs
    entries on the two previous anti-diagonals ``s = n + j``, so the table
    is filled one anti-diagonal at a time by vector operations on three
    diagonal buffers indexed by ``n + 1`` (index 0 is the zero row
    ``n = -1``).  Each diagonal is written straight into the result through
    a strided view, so memory is the result plus O(D).  Entry ``(n, j)``
    depends only on rows up to ``n``, so row n does not depend on
    ``degree``.  The table is checked for finiteness once, as in
    :func:`powers`.
    """
    a, b, c, d = (complex(t) for t in (a, b, c, d))
    if d == 0:
        raise DegenerateDenominatorError("cannot expand 1/(c*z + d) with d = 0")
    table = np.zeros((degree + 1, count), dtype=np.complex128)
    table[0, :1] = 1.0
    if count < 2:
        return table
    flat = table.reshape(-1)
    step = count - 1
    older, prev, cur = (np.zeros(degree + 2, dtype=np.complex128) for _ in range(3))
    tmp = np.empty(degree + 1, dtype=np.complex128)
    prev[1] = 1.0
    # A buffer keeps stale entries outside the rows of its diagonal; every
    # read below stays inside those rows or hits the zero pad.  Overflow is
    # rejected after the loop, where every entry has been stored.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, degree + count):
            lo = max(0, s - step)
            top = min(degree, s - 1)  # the last row with j >= 1
            new, k = cur[lo + 1 : top + 2], top - lo + 1
            np.multiply(prev[lo + 1 : top + 2], b, out=new)
            np.multiply(older[lo : top + 1], a, out=tmp[:k])
            np.add(new, tmp[:k], out=new)
            np.multiply(prev[lo : top + 1], c, out=tmp[:k])
            np.subtract(new, tmp[:k], out=new)
            np.divide(new, d, out=new)
            if s <= degree:  # column 0 is zero below row 0
                cur[s + 1] = 0.0
            hi = min(degree, s)
            flat[lo * step + s : hi * step + s + 1 : step] = cur[lo + 1 : hi + 2]
            older, prev, cur = prev, cur, older
    return _require_finite(table)


def compose(f: TruncatedSeries, g: TruncatedSeries, degree: int) -> TruncatedSeries:
    """Coefficients of ``f(g(z))`` up to ``degree``.

    Horner's rule over truncated powers of ``g``; a nonzero ``g(0)`` is fine,
    the result is then the expansion of the composite about 0 provided the
    expansion of ``f`` converges at ``g(0)``.  Horner starts at the last
    nonzero coefficient of ``f``: above it every step multiplies the zero
    series, so zero padding of ``f`` costs nothing.  The steps run on a plain
    array, checked for finiteness once at the end.  This loses no check:
    entry i of a product with ``g`` includes entry i times the finite
    ``g[0]``, so a non-finite entry stays non-finite in every later step.
    """
    nonzero = np.flatnonzero(f.coeffs)
    top = int(nonzero[-1]) if nonzero.size else 0
    acc = np.zeros(degree + 1, dtype=np.complex128)
    if top == f.degree:
        acc[0] = f.coeffs[top]
    else:
        # The full loop would add f[top] to mul's zero series, whose +0.0
        # entries turn a -0.0 part of f[top] into +0.0; keep those bits.
        acc[0] += f.coeffs[top]
    for k in range(top - 1, -1, -1):
        acc = np.convolve(acc, g.coeffs)[: degree + 1]
        acc[0] += f.coeffs[k]
    return TruncatedSeries(acc)


def reciprocal_linear(c, d, degree: int) -> TruncatedSeries:
    """Expansion of ``1/(c*z + d)``: coefficient n equals ``(-c/d)**n / d``."""
    if d == 0:
        raise DegenerateDenominatorError("cannot expand 1/(c*z + d) with d = 0")
    ratio = -complex(c) / complex(d)
    coeffs = ratio ** np.arange(degree + 1) / complex(d)
    return TruncatedSeries(coeffs)


def binomial_expand(u, p, degree: int) -> TruncatedSeries:
    """Expansion of ``(1 + u*z)**p`` for real ``p`` via generalized binomials.

    The coefficient of ``z**n`` is ``C(p, n) * u**n`` where the binomial
    follows the product recurrence ``C(p, n) = C(p, n-1) * (p - n + 1) / n``.
    The recurrence, not a gamma-function quotient, is what keeps integer ``p``
    exact: past ``n = p`` every factor is exactly zero.
    """
    if degree < 0:
        raise InvalidInputError(f"degree must be nonnegative, got {degree}")
    u = complex(u)
    coeffs = np.empty(degree + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    binom = 1.0
    upow = 1.0 + 0.0j
    for n in range(1, degree + 1):
        binom = binom * (p - n + 1) / n
        upow = upow * u
        coeffs[n] = binom * upow
    return TruncatedSeries(coeffs)
