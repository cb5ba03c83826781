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
O(D**2) in all, run row by row by a doubling scan while the rows are few and
over small square tiles otherwise, so that the Python loop takes one step
per row or per diagonal of tiles (:func:`mobius_powers`).
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

    Each power is the previous one times ``g``, cut at ``degree``, and is
    filled as one contiguous row of a row-major ``(count, degree+1)`` table;
    the result is that table's transpose, a column-major view.  The table is
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

    O(1) work per entry, against O(D) for a convolution.  Errors are damped
    by ``|c/d| < 1`` and ``|b/d| < 1``, which hold for every self-map.  The
    table is filled one of two ways, chosen by its shape (:func:`_scanned`):

    - a table of few rows, at most ``_TILE`` or at most about
      ``(log2(count) / 2)**2``, row by row, each row by a doubling scan
      (:func:`_fill_rows`): row 0 from a zero row -1 and ``T[0, 0] = 1``,
      then each row from the one above it;
    - any other table over ``_TILE x _TILE`` tiles (:func:`_fill_tiles`):
      one Python step per diagonal of tiles, the tile interiors by matrix
      products (Blelloch's blocking of linear recurrences, in two
      dimensions).

    The scan pays off only while the rows are few: measured through this
    function on one CPU, its ``log2 count`` steps per row cost more than the
    tiles from about 12 rows on at count 129, 16 at 257, 20 at 513, 25 at
    1025 and 36 at 4097.  Within one fill entry ``(n, j)`` depends only on
    rows up to ``n``, so row n does not depend on ``degree``: bitwise, the
    rows of a scan-filled table are those of the tallest scan-filled table
    of the same ``count``, and the rows of a tiled table those of any
    taller one.  Across the two fills rows agree within the power-table
    bound, not bitwise.  The table is checked for finiteness once, as in
    :func:`powers`.
    """
    _require_sizes(count=count, degree=degree)
    a, b, c, d = (complex(t) for t in (a, b, c, d))
    if d == 0:
        raise DegenerateDenominatorError("cannot expand 1/(c*z + d) with d = 0")
    scan = _scanned(count, degree)
    # The scan reads a zero row -1 above the table.  The tiles keep theirs in
    # the boundary store, and their table is no view.  Either fill writes
    # every entry right of column 0, so only the boundary is set here.
    grid = np.empty((degree + 1 + scan, count), dtype=np.complex128)
    grid[:, :1] = 0.0
    if scan:
        grid[0] = 0.0
    table = grid[1:] if scan else grid
    table[:1, :1] = 1.0
    if count < 2:
        return table
    # Overflow is rejected after the fill, where every entry has been stored.
    with np.errstate(over="ignore", invalid="ignore"):
        if scan:
            _fill_rows(grid, a, b, c, d)
        else:
            _fill_tiles(table, a, b, c, d)
    return _require_finite(table)


def _fill_rows(grid: np.ndarray, a: complex, b: complex, c: complex, d: complex) -> None:
    """Run the recurrence over a grid of shape ``(rows, cols, ...)``, row by row.

    Row 0 and column 0 hold the boundary, row -1 and column -1 of the block
    the rest covers, with the corner at ``[0, 0]``; the rest is filled.
    Trailing axes ride along, so one call fills a tile from many boundaries.
    Row n is the first-order recurrence ``y[j] = (b/d) y[j-1] + u[j]`` in j,
    with ``u[j] = (a y'[j-1] - c y'[j]) / d`` for j >= 1 and the row y'
    above it, from its boundary ``y[0]``, solved by the doubling scan
    ``y[s:] += (b/d)**s y[:-s]`` for s = 1, 2, 4, ... (Hillis and Steele):
    ceil(log2 cols) vector steps per row.  Everything but the rows is set
    up once per call: the coefficients as numpy scalars, the ufuncs as local
    names and each step's slice of the work row ``tmp``.
    """
    cols = grid.shape[1]
    a, c, d = (np.complex128(t) for t in (a, c, d))
    multiply, subtract, divide, add = np.multiply, np.subtract, np.divide, np.add
    tmp = np.empty_like(grid[0, 1:])
    # (s, (b/d)**s, slice of tmp) for s = 1, 2, 4, ... below cols, by repeated squaring.
    steps, s, ratio = [], 1, np.complex128(b) / d
    while s < cols:
        steps.append((s, ratio, tmp[: cols - s]))
        s, ratio = 2 * s, ratio * ratio
    for above, y in zip(grid[:-1], grid[1:]):
        right = y[1:]
        multiply(above[:-1], a, out=right)
        multiply(above[1:], c, out=tmp)
        subtract(right, tmp, out=right)
        divide(right, d, out=right)
        for s, ratio, part in steps:
            multiply(y[:-s], ratio, out=part)
            add(y[s:], part, out=y[s:])


# The edge of the square tiles of _fill_tiles.
_TILE = 8


def _scanned(count: int, degree: int) -> bool:
    """Whether :func:`mobius_powers` fills its ``(degree+1, count)`` table by the row scan.

    A table of at most ``_TILE`` rows is one tile row, which the scan fills
    in fewer Python steps than the tiles take, whatever its count.  Past
    that the bound ``(log2(count) / 2)**2`` rows follows the measured
    crossover of the two fills (see :func:`mobius_powers`); it stays below a
    third of ``count``, so a square or tall table of more rows is tiled.
    """
    return degree < max(_TILE, (int(count).bit_length() - 1) ** 2 // 4)


def _tile_response(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """The entries of one tile as linear functions of its boundary, shape ``(_TILE, _TILE, 2 _TILE + 1)``.

    ``response[n, j, k]`` is entry ``(n, j)`` of the tile filled from the
    unit boundary k.  The boundary is ordered as the top row (row -1,
    columns 0..), the corner (row -1, column -1), then the left column
    (column -1, rows 0..).
    """
    k = np.arange(_TILE)
    grid = np.zeros((_TILE + 1, _TILE + 1, 2 * _TILE + 1), dtype=np.complex128)
    grid[0, k + 1, k] = 1.0
    grid[0, 0, _TILE] = 1.0
    grid[k + 1, 0, _TILE + 1 + k] = 1.0
    _fill_rows(grid, a, b, c, d)
    return grid[1:, 1:]


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

    About (degree + count)/B Python steps, against about 2 log2(count) per
    row for the row scan.  Memory is the table plus the store,
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
