"""Shared builders for randomized test inputs."""

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
    """A symbol as drawn by the ``kernel-check`` subcommand."""
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
