"""Shared builders for randomized test inputs, and the reference routes that fast paths are tested against."""

import numpy as np

from bergman_csym import TruncatedSeries, compose_maps, involution, mul, scaled


def random_self_map(rng):
    """Random disk self-map: an involution followed by a damped rotated one.

    The damping factor keeps a mix of automorphisms (|u| = 1) and strict
    contractions in the sample.
    """
    a = rng.uniform(0.05, 0.7) * np.exp(2j * np.pi * rng.uniform())
    b = rng.uniform(0.05, 0.7) * np.exp(2j * np.pi * rng.uniform())
    u = rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return compose_maps(involution(a), scaled(involution(b), u))


def random_poly(rng, max_degree):
    deg = int(rng.integers(0, max_degree + 1))
    return TruncatedSeries(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


def kernel_check_map(rng):
    """A symbol as drawn by ``operators.kernel_check`` (the ``kernel-check`` subcommand)."""
    a, b = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6) for _ in range(2))
    u = np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0.3, 1.0)
    return compose_maps(involution(a), scaled(involution(b), u))


def power_loop(g, count, degree):
    """Columns ``g**0 .. g**(count-1)`` by repeated ``mul``: the reference for ``powers``."""
    table = np.zeros((degree + 1, count), dtype=np.complex128)
    power = TruncatedSeries.one(degree)
    for j in range(count):
        table[:, j] = power.coeffs
        power = mul(power, g, degree)
    return table


def horner_compose(f, g, degree):
    """Horner's rule over every coefficient of ``f``, zeros included.

    The reference for ``compose``, which skips the leading zeros of ``f``.
    """
    acc = TruncatedSeries.constant(f.coeffs[f.degree], degree)
    for k in range(f.degree - 1, -1, -1):
        acc = mul(acc, g, degree) + f.coeffs[k]
    return acc


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
