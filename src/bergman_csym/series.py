"""Truncated Maclaurin series over the complex numbers.

Every analytic computation in this package runs on degree-D truncations of
Maclaurin expansions.  A :class:`TruncatedSeries` stores the coefficients
``c[0], ..., c[D]`` of ``sum c[n] z**n`` as an immutable complex array; the
operations below are pure functions that take the output truncation degree
explicitly, so the precision of every computation is visible at the call
site.  Nothing here is symbolic: products are Cauchy convolutions cut at
degree D, and composition is Horner evaluation over truncated powers, which
is valid even when the inner series has a nonzero constant term.  The power
table of a general series of degree g costs one convolution per power,
O(D**2 g) for D powers cut at degree D (O(D**3) once g reaches D); that of
a fractional linear map comes from a recurrence with O(1) work per entry,
O(D**2) in all, from a few products of small transfer matrices while the
rows are few and over small square tiles otherwise, so that the Python loop
takes a few steps in all or one per diagonal of tiles (:func:`mobius_powers`).
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
    """``arr``, or ``InvalidInputError`` if any entry is NaN or infinite.

    A contiguous complex array is tested through its float64 view, both parts in one
    float loop, which is faster than the complex one and gives the same verdict.
    """
    parts = arr
    if arr.dtype == np.complex128 and (arr.flags.c_contiguous or arr.flags.f_contiguous):
        parts = arr.ravel(order="K").view(np.float64)
    if not np.isfinite(parts).all():
        raise InvalidInputError("series coefficients must be finite")
    return arr


def _require_sizes(**sizes: int) -> None:
    """``InvalidInputError`` unless every size passed by name is nonnegative."""
    for name, size in sizes.items():
        if size < 0:
            raise InvalidInputError(f"{name} must be nonnegative, got {size}")


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
        _require_sizes(degree=degree)
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
        _require_sizes(degree=degree)
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
    _require_sizes(degree=degree)
    return TruncatedSeries(np.convolve(f.coeffs, g.coeffs)[: degree + 1]).resized(degree)


def powers(g: TruncatedSeries, count: int, degree: int) -> np.ndarray:
    """Truncated powers ``g**0, ..., g**(count-1)``, the columns of a ``(degree+1, count)`` array.

    Each power is the previous one times ``g``, cut at ``degree``, filled as one
    contiguous row; the result is the transpose.  Filled column by column into a
    C-order table, the degree-255 and -511 composition matrices of a degree-6
    polynomial took 5% and 18% longer (one BLAS thread, 2-CPU x86-64 VM).  The table is
    checked for finiteness once, which rejects what a check per power would:
    see :func:`compose`.
    """
    _require_sizes(count=count, degree=degree)
    rows = np.empty((count, degree + 1), dtype=np.complex128)
    rows[:1] = 0.0
    rows[:1, 0] = 1.0
    # Every convolution is at least degree + 1 long, so it fills its row.
    for j in range(1, count):
        rows[j] = np.convolve(rows[j - 1], g.coeffs)[: degree + 1]
    return _require_finite(rows).T


def mobius_powers(a, b, c, d, count: int, degree: int) -> np.ndarray:
    """Truncated powers of ``(a z + b)/(c z + d)`` as the columns of a ``(degree+1, count)`` array.

    Clearing the denominator in ``phi**j = phi**(j-1) * phi`` gives the
    entrywise recurrence

        d T[n, j] = b T[n, j-1] + a T[n-1, j-1] - c T[n-1, j],

    O(1) work per entry, against O(D) for a convolution.  On its first h
    rows column j of the table is ``M**j e0``, for the h x h column transfer
    ``M`` of :func:`_transfer_powers`.  Errors are damped by ``|c/d| < 1`` and
    ``|b/d| < 1``, which hold for every self-map.  The table is filled one of
    two ways, chosen by its shape (:func:`_scanned`):

    - a table of few rows, at most ``_TILE`` or at most about
      ``(log2(count) / 2)**2``, from the transfer powers at that height
      (:func:`_short_table`): a few small matrix products in all;
    - any other table over ``_TILE x _TILE`` tiles (:func:`_fill_tiles`):
      one Python step per diagonal of tiles, the tile interiors by matrix
      products (Blelloch's blocking of linear recurrences, in two
      dimensions).

    Row n of a short table does not depend on ``degree``: the transfer
    powers have a height fixed by ``count``, whatever the rows asked for,
    so the rows of a short table are bitwise those of the tallest short
    table of the same ``count``.  A tiled entry ``(n, j)`` depends only on
    rows up to ``n``, so the rows of a tiled table are those of any taller
    one.  Across the two fills rows agree within the power-table bound, not
    bitwise.  The table is checked for finiteness once, as in
    :func:`powers`.  A short table is computed at its full height, so a map
    that is not a self-map can overflow in rows past ``degree`` and spread
    NaN into the rows asked for: ``mobius_powers(1e40, 0.5, 0, 1, 257, 1)``
    is refused although its two rows are finite.  No self-map can, since
    every ``|T[n, j]| <= 1`` there.
    """
    _require_sizes(count=count, degree=degree)
    a, b, c, d = (complex(t) for t in (a, b, c, d))
    if d == 0:
        raise DegenerateDenominatorError("cannot expand 1/(c*z + d) with d = 0")
    # Overflow is rejected after the fill, where every entry has been stored.
    with np.errstate(over="ignore", invalid="ignore"):
        if _scanned(count, degree):
            table = _short_table(a, b, c, d, count, degree + 1)
        else:
            # The tiles write every entry right of column 0, so only that is set here.
            table = np.empty((degree + 1, count), dtype=np.complex128)
            table[:, :1] = 0.0
            table[:1, :1] = 1.0
            if count > 1:
                _fill_tiles(table, a, b, c, d)
    return _require_finite(table)


# The edge of the square tiles of _fill_tiles, and the largest transfer power.
_TILE = 8


def _short_height(count: int) -> int:
    """Rows of the transfer powers that fill a short table of ``count`` powers."""
    return max(_TILE, (int(count).bit_length() - 1) ** 2 // 4)


def _scanned(count: int, degree: int) -> bool:
    """Whether :func:`mobius_powers` fills its ``(degree+1, count)`` table from transfer powers.

    A table of at most ``_TILE`` rows is one tile row, which the transfer
    powers fill in fewer Python steps than the tiles take, whatever its
    count.  Past that the bound ``(log2(count) / 2)**2`` rows was measured
    as the crossover of the tiles and the row scan that filled short tables
    before the transfer powers (see CHANGES.md).  The transfer powers are
    faster than that scan, so the bound is conservative; it is kept so that
    no table changes fill.  It stays below a third of ``count``, so a square
    or tall table of more rows is tiled.
    """
    return degree < _short_height(count)


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column ``col``: multiplication by its series."""
    i = np.arange(col.size)
    lag = i[:, None] - i[None, :]
    return np.where(lag >= 0, col[lag], 0.0)


def _transfer_powers(a: complex, b: complex, c: complex, d: complex, height: int) -> np.ndarray:
    """``M, ..., M**_TILE`` for the column transfer ``M`` on ``height`` rows, transposed and side by side.

    ``M`` multiplies a column of the power table by ``phi``, cut at ``height``
    rows: the lower-triangular Toeplitz matrix of the series of ``phi``,
    ``m[0] = b/d`` and ``m[n] = ((a - c b/d)/d) (-c/d)**(n-1)``.  The result
    has shape ``(h, _TILE, h)``, ``power[:, p - 1]`` the transpose of
    ``M**p``, so ``power.reshape(h, -1)`` is ``[M.T, ..., (M**_TILE).T]``
    side by side.  The powers of ``M.T`` commute, so they come by doubling
    in three products: the square, then the square times the first two,
    then the fourth power times the first four.
    """
    ratio = -c / d
    col = np.empty(height, dtype=np.complex128)
    col[0] = b / d
    col[1:] = (a + ratio * b) / d * ratio ** np.arange(height - 1)
    power = np.empty((height, _TILE, height), dtype=np.complex128)
    side = power.reshape(height, -1)
    power[:, 0] = _lower_toeplitz(col).T
    np.matmul(power[:, 0], power[:, 0], out=power[:, 1])
    np.matmul(power[:, 1], side[:, : 2 * height], out=side[:, 2 * height : 4 * height])
    np.matmul(power[:, 3], side[:, : 4 * height], out=side[:, 4 * height :])
    return power


def _short_table(a: complex, b: complex, c: complex, d: complex, count: int, rows: int) -> np.ndarray:
    """The top ``rows`` rows of the power table of height :func:`_short_height`, column-major.

    Column j of the table is row j of a row-major array, ``M**j e0`` for the
    transfer ``M`` on ``h`` rows.  Column ``B J`` (B is ``_TILE``) is
    ``(M**B)**J e0``, all of them by doubling: ``M**B`` times the first
    column, ``M**2B`` times the first two, and so on.  Then one product
    gives columns ``B J + 1 .. B J + B`` as ``M, ..., M**B`` times column
    ``B J``, for every J.
    """
    height = _short_height(count)
    blocks = -(-(count - 1) // _TILE)
    columns = np.empty((1 + _TILE * blocks, height), dtype=np.complex128)
    columns[0] = 0.0
    columns[0, 0] = 1.0
    if blocks:
        power = _transfer_powers(a, b, c, d, height)
        left = np.zeros((blocks, height), dtype=np.complex128)  # left[J] = column B J
        left[0, 0] = 1.0
        step, done = power[:, -1], 1
        while done < blocks:
            more = min(done, blocks - done)
            np.matmul(left[:more], step, out=left[done : done + more])
            done += more
            if done < blocks:
                step = step @ step
        np.matmul(left, power.reshape(height, -1), out=columns[1:].reshape(blocks, -1))
    return columns[:count, :rows].T


def _tile_response(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """The entries of one tile as linear functions of its boundary, shape ``(_TILE, _TILE, 2 _TILE + 1)``.

    ``response[n, j, k]`` is entry ``(n, j)`` of the tile filled from the
    unit boundary k.  The boundary is ordered as the top row (row -1,
    columns 0..), the corner (row -1, column -1), then the left column
    (column -1, rows 0..).  Within a tile the recurrence reads
    ``x[j] = M x[j-1] + g (a t[j-1] - c t[j])`` for its columns x, its top
    row t (``t[-1]`` the corner) and g the series of ``1/(d + c z)``, so
    with the transfer powers on ``_TILE`` rows: left unit i gives column i
    of ``M**(j+1)``, the corner ``a M**j g``, and top unit k gives
    ``-c M**(j-k) g + a M**(j-k-1) g``, zero for j < k.
    """
    power = _transfer_powers(a, b, c, d, _TILE)
    gains = np.empty((_TILE, _TILE), dtype=np.complex128)  # gains[p] = M**p g
    gains[0] = (-c / d) ** np.arange(_TILE) / d
    np.matmul(gains[0], power.reshape(_TILE, -1)[:, : _TILE * (_TILE - 1)], out=gains[1:].reshape(-1))
    top = -c * gains
    top[1:] += a * gains[:-1]
    k = np.arange(_TILE)
    lag = k[:, None] - k[None, :]
    response = np.empty((_TILE, _TILE, 2 * _TILE + 1), dtype=np.complex128)
    response[:, :, :_TILE] = np.where(lag >= 0, top.T[:, lag], 0.0)
    response[:, :, _TILE] = a * gains.T
    response[:, :, _TILE + 1 :] = power.transpose(2, 1, 0)
    return response


def _fill_tiles(table: np.ndarray, a: complex, b: complex, c: complex, d: complex) -> None:
    """Fill a power table of more than ``_TILE`` rows, ``T[0, 0]`` set, over ``_TILE x _TILE`` tiles.

    Tile ``(I, J)`` covers rows ``I B ..`` and columns ``1 + J B ..`` (B is
    ``_TILE``); column 0 and the zero row -1 bound the table.  The
    coefficients are constant, so every tile is the same linear function
    ``R = _tile_response(...)`` of its ``2B + 1`` boundary values, which a
    boundary store holds one row per tile.  One step per tile diagonal
    ``I + J = s`` multiplies the boundaries of its tiles, a strided slice of
    the store, by the columns of R that give each tile's right column and
    bottom row, and stores those as its neighbours' boundaries.  Then one
    matrix product per in-tile row n fills rows n, n + B, ... of the table
    from the boundaries and ``R[n]``.

    About (degree + count)/B Python steps.  Memory is the table plus the store,
    ``(2B + 1)/B**2`` of it (0.27 at B = 8), plus a ``1/B`` share for the
    products of one in-tile row.
    """
    rows, count = table.shape
    response = _tile_response(a, b, c, d)
    edges = np.concatenate((response[:, -1], response[-1])).T  # right column, bottom row
    tile_rows = -(-rows // _TILE)
    tile_cols = -(-(count - 1) // _TILE)
    # Tile (I, J) is row I (tile_cols + 1) + J of the store, so one tile
    # diagonal has stride tile_cols.  The last tile row and column only
    # receive what the tiles before them pass on.
    store = np.zeros(((tile_rows + 1) * (tile_cols + 1), 2 * _TILE + 1), dtype=np.complex128)
    store[0, _TILE + 1] = 1.0  # T[0, 0], in the left column of tile (0, 0)
    stride = tile_cols
    for s in range(tile_rows + tile_cols - 1):
        lo, hi = max(0, s - tile_cols + 1), min(tile_rows - 1, s)
        first, last = s + lo * stride, s + hi * stride + 1
        out = store[first:last:stride] @ edges
        store[first + 1 : last + 1 : stride, _TILE + 1 :] = out[:, :_TILE]  # left of (I, J + 1)
        store[first + stride + 1 : last + stride + 1 : stride, :_TILE] = out[:, _TILE:]  # top of (I + 1, J)
        store[first + stride + 2 : last + stride + 2 : stride, _TILE] = out[:, -1]  # corner of (I + 1, J + 1)
    inner = np.empty((tile_rows * (tile_cols + 1), _TILE), dtype=np.complex128)
    for n in range(_TILE):
        # Row n of a tile reads the left column down to row n only.
        k, m = _TILE + 2 + n, len(range(n, rows, _TILE)) * (tile_cols + 1)
        np.matmul(store[:m, :k], response[n, :, :k].T, out=inner[:m])
        table[n::_TILE, 1:] = inner[:m].reshape(-1, (tile_cols + 1) * _TILE)[:, : count - 1]


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
    _require_sizes(degree=degree)
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
    _require_sizes(degree=degree)
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
    _require_sizes(degree=degree)
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
