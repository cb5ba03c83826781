"""Exact rational references for the tests; standard library only."""

import math
from fractions import Fraction

# Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = Fraction(1, 2**53)


def gamma(k):
    """The rounding-error constant ``gamma_k = k u / (1 - k u)``, exactly."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1 - ku)


def weights(beta, n_max):
    """Exact weights ``w(n) = prod_{k<=n} k / (k + 1 + beta)`` for ``n = 0..n_max``.

    ``beta`` is taken as the exact rational value of the given float, so the
    reference is exact for the number the library receives.
    """
    beta = Fraction(beta)
    out = [Fraction(1)]
    for k in range(1, n_max + 1):
        out.append(out[-1] * k / (k + 1 + beta))
    return out


def power_table_bound(degree):
    """The allowed error of a power table to ``degree``, relative to its largest entry: ``(D+1) 2**-52``."""
    return Fraction(degree + 1, 2**52)


def _gaussian(z):
    """The exact Gaussian rational ``(re, im)`` of a complex float."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _times(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def mobius_powers_exact(a, b, c, d, count, degree):
    """Exact power table of ``phi(z) = (a z + b) / (c z + d)``.

    ``T[n][j]`` is the coefficient of ``z**n`` in ``phi**j`` as a Gaussian
    rational ``(re, im)`` of ``Fraction``s, for ``n = 0..degree`` and
    ``j = 0..count-1``; the coefficients are the exact values of the given
    floats.  Column j follows from ``(d + c z) phi**j = (b + a z) phi**(j-1)``,
    that is ``d T[n][j] = b T[n][j-1] + a T[n-1][j-1] - c T[n-1][j]``.
    """
    a, b, c, d = map(_gaussian, (a, b, c, d))
    norm = d[0] * d[0] + d[1] * d[1]
    inv_d = d[0] / norm, -d[1] / norm
    zero = Fraction(0), Fraction(0)
    table = [[zero] * count for _ in range(degree + 1)]
    if count:
        table[0][0] = Fraction(1), Fraction(0)
    for j in range(1, count):
        for n in range(degree + 1):
            above = table[n - 1] if n else [zero] * count
            rhs = [
                _times(b, table[n][j - 1]),
                _times(a, above[j - 1]),
                _times(c, above[j]),
            ]
            total = rhs[0][0] + rhs[1][0] - rhs[2][0], rhs[0][1] + rhs[1][1] - rhs[2][1]
            table[n][j] = _times(inv_d, total)
    return table


def max_error_ratio(got, exact, scale):
    """``max |got - exact| / (scale * max |exact|)`` over the table, as a float.

    ``got`` is a complex array indexed like ``exact``; moduli are compared
    through their exact squares, so only the returned ratio is rounded.
    """
    worst = Fraction(0)
    top = Fraction(0)
    for n, row in enumerate(exact):
        for j, (re, im) in enumerate(row):
            g = complex(got[n][j])
            dr, di = Fraction(g.real) - re, Fraction(g.imag) - im
            worst = max(worst, dr * dr + di * di)
            top = max(top, re * re + im * im)
    if top == 0:
        return 0.0 if worst == 0 else float("inf")
    return math.sqrt(worst / (Fraction(scale) ** 2 * top))


def adjoint_image_exact(table, beta, n):
    """Exact coefficients of the adjoint image of ``z**n`` under ``C_phi``.

    ``table`` is the exact power table of ``phi`` with at least ``n + 1``
    rows (``mobius_powers_exact(..., D + 1, n)``); the image is cut at the
    last column, degree D.  Since ``<C_phi* z**n, z**m> = <z**n, phi**m>``,
    coefficient m is ``w(n) conj(T[n][m]) / w(m)``, a Gaussian rational
    ``(re, im)``.  One table serves every ``beta`` and every ``n`` up to its
    last row.
    """
    row = table[n]
    w = weights(beta, len(row) - 1)
    return [(w[n] / w[m] * re, -w[n] / w[m] * im) for m, (re, im) in enumerate(row)]
