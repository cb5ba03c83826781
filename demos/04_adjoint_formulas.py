"""
Exact adjoint formulas, checked against matrix transposes
=========================================================

Adjoints of composition operators are usually opaque, but two families
admit closed finite expressions on these spaces: disk involutions (for
integer weight parameter) and the iterated adjoint of multiplication by
z.  A third device factors the adjoint of any fractional-linear symbol
into multiplication * composition * adjoint-multiplication.  Each claim
is checked here against the honest conjugate-transpose of a truncated
matrix.
"""

import numpy as np

from bergman_csym import (
    SpaceParams,
    TruncatedSeries,
    composition_matrix,
    dilation_about,
    hurst_factors,
    hyperbolic_model,
    involution,
    involution_adjoint_apply,
    kernel_series,
    mzstar_on_monomial,
    to_coords,
    verify_hurst,
)

np.set_printoptions(precision=5, suppress=True)

# --- iterated adjoint of multiplication by z ---------------------------

# (M_z^*)^m z^n is a single monomial z^(n-m) with an explicit weight
# ratio in front; above the diagonal it vanishes identically.
params = SpaceParams(1)
print("coefficients c with (Mz*)^m z^n = c z^(n-m), weight parameter 1:")
header = "n/m"
print(f"{header:>4}" + "".join(f"{m:>10d}" for m in range(5)))
for n in range(5):
    row = [mzstar_on_monomial(params, m, n)[0] for m in range(5)]
    print(f"{n:>4}" + "".join(f"{c:>10.5f}" for c in row))
print()

# --- involution adjoint, factorized: M_K C_inv M_h* --------------------

# C* f = M_K C_inv M_h* f with h = (1 - conj(alpha) z)^(2+beta): the finite
# sum M_h* f = sum_k C(2+beta, k) (-alpha)^k (Mz*)^k f is formed first, then
# composed with the involution once and multiplied by the kernel K_alpha once.
alpha = 0.3 + 0.2j
params = SpaceParams(0)
degree = 96
phi = involution(alpha)
t = composition_matrix(phi, params, degree)

f = TruncatedSeries.monomial(3, degree)
via_formula = to_coords(params, involution_adjoint_apply(params, alpha, f, degree), degree + 1)
via_matrix = t.mat.conj().T @ to_coords(params, f, degree + 1)
print(f"involution adjoint on z^3: formula vs conjugate transpose, "
      f"gap {np.max(np.abs(via_formula - via_matrix)[:16]):.2e}")

# the adjoint sends the kernel at alpha back to the constant 1
k = involution_adjoint_apply(params, alpha, kernel_series(params, alpha, degree), degree)
print(f"adjoint applied to K_alpha: constant term {k.coeffs[0]:.6f}, "
      f"rest {np.max(np.abs(k.coeffs[1:17])):.2e}")
print()

# --- three-factor form of the adjoint ----------------------------------

# For any fractional-linear self-map phi, the adjoint of C_phi equals
# M_g C_sigma M_h* with explicit g, sigma, h.  The residual below is the
# operator gap on the top 8x8 block of the truncation.
print("residual of C_phi* - M_g C_sigma M_h* on the top 8x8 block:")
print(f"{'symbol':<28} {'beta':>5} {'dim 256':>10} {'dim 512':>10}")
cases = [
    ("swap about 0.5", involution(0.5)),
    ("scaling model s=0.5", hyperbolic_model(0.5)),
    ("rotation about 0.3", dilation_about(0.3, np.exp(0.7j))),
]
for name, phi in cases:
    for beta in (0, 1):
        p = SpaceParams(beta)
        print(f"{name:<28} {beta:>5} {verify_hurst(phi, p, 256, 8):>10.2e} "
              f"{verify_hurst(phi, p, 512, 8):>10.2e}")
print()

g, sigma, h = hurst_factors(hyperbolic_model(0.5), SpaceParams(0), 8)
print("the three factors for the scaling model (degree 8):")
print("  g     :", np.round(g.coeffs.real, 5))
print(f"  sigma : z -> ({sigma.a.real:g} z + {sigma.b.real:g}) / ({sigma.c.real:g} z + {sigma.d.real:g})")
print("  h     :", np.round(h.coeffs.real, 5))
