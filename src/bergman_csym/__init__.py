"""Numerical toolkit for composition operators on weighted Bergman-type spaces.

The package models analytic functions on the unit disk by truncated
Maclaurin expansions, builds finite matrix compressions of composition and
multiplication operators in orthonormal coordinates, carries exact finite
formulas for adjoints of involutive symbols, and provides the Gram-table
and conjugation-search diagnostics used to probe complex symmetry.
"""

from .csym import (
    ConjugationMatrix,
    GramTable,
    SearchResult,
    SubspaceReport,
    WitnessReport,
    adjoint_monomial,
    conjugation_search,
    csym_residual,
    elliptic_certificate,
    gram_column_zero,
    gram_exact,
    gram_truncated,
    obstruction_witness,
    spectral_symmetry_check,
    subspace_orthogonality,
)
from .dynamics import (
    DenjoyWolffResult,
    OrbitReport,
    denjoy_wolff,
    hurst_eigencheck,
    iterate,
    orbit_gram,
)
from .errors import (
    ArgOutsideDiskError,
    DegenerateDenominatorError,
    DegenerateMapError,
    DimMismatchError,
    EscapedDiskError,
    ExponentOutOfRangeError,
    IdentityMapError,
    IntegerBetaError,
    InvalidInputError,
    NonIntegerBetaError,
    NotAnEigenvectorError,
    NotHyperbolicError,
    NotSelfMapError,
    NotUnitaryError,
    ToolkitError,
)
from .lft import (
    FixedPointReport,
    Lft,
    LftClass,
    MapKind,
    classify,
    dilation_about,
    elliptic_order,
    fixed_points,
    hyperbolic_model,
    hyperbolic_normal_form,
    involution,
    inverse,
    make,
    rotation,
    scaled,
    to_series,
)
from .lft import apply as apply_map
from .lft import compose as compose_maps
from .operators import (
    OperatorMatrix,
    composition_matrix,
    from_coords,
    hurst_factors,
    involution_adjoint_apply,
    kernel_check,
    multiplication_matrix,
    mzstar_apply,
    mzstar_on_monomial,
    to_coords,
    verify_hurst,
)
from .series import TruncatedSeries, binomial_expand, compose, mul, reciprocal_linear
from .space import (
    SpaceParams,
    inner_product,
    kernel_series,
    norm,
    suggest_kernel_degree,
    weight,
    weight_reciprocal_sums,
    weights,
)

__version__ = "0.1.0"
