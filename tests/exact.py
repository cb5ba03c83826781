"""Exact rational references for the tests; standard library only."""

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
