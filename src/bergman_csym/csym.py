"""Complex-symmetry diagnostics: conjugations, Gram tables, obstructions.

A conjugation is an antilinear involutive isometry.  In orthonormal
coordinates it is ``v -> U conj(v)`` for a matrix ``U`` that is both
unitary and (complex) symmetric; those two properties are what
:class:`ConjugationMatrix` validates.  An operator ``T`` is C-symmetric
when ``C T C = T*``, which in matrix form reads

    U conj(T) U^H = T^H,

and :func:`csym_residual` measures the Frobenius distance between the two
sides.  A finite truncation of a complex symmetric operator need not be
complex symmetric, so the search below reports residual traces rather than
binary verdicts: the meaningful signal is how the residual behaves as the
truncation grows.

The Gram machinery targets the adjoint of composition with a disk
involution.  Writing ``v_n`` for the adjoint image of ``z**n``, integer
weight exponents make every inner product ``<v_n, v_m>`` a finite double
sum with explicit terms; the resulting table vanishes identically at
distance ``beta + 3`` from the diagonal and the band edge is sharp.  That
exact table is the ground truth the truncated matrix route is compared
against, and the source of the subspace-orthogonality certificates used to
rule out conjugations for high-order elliptic symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    IntegerBetaError,
    InvalidInputError,
    NonIntegerBetaError,
    NotAnEigenvectorError,
    require_in_disk,
)
from .lft import Lft, MapKind, classify, elliptic_order, fixed_points, involution, power_table
from .operators import (
    OperatorMatrix,
    _binomial_alpha_weights,
    _owned_square,
    _weighted_powers,
    from_coords,
    involution_adjoint_apply,
)
from .series import TruncatedSeries
from .space import SpaceParams, inner_product, kernel_series, weights

__all__ = [
    "ConjugationMatrix",
    "GramTable",
    "SubspaceReport",
    "WitnessReport",
    "SearchResult",
    "csym_residual",
    "spectral_symmetry_check",
    "adjoint_monomial",
    "gram_exact",
    "gram_truncated",
    "gram_column_zero",
    "subspace_orthogonality",
    "elliptic_certificate",
    "obstruction_witness",
    "conjugation_search",
]

_UNITARY_TOL = 1e-10


class ConjugationMatrix:
    """Matrix of an antilinear conjugation in an orthonormal basis.

    Stores a square ``U`` with ``U U^H = I`` and ``U = U^T`` (both to
    1e-10); the conjugation itself acts as ``v -> U conj(v)``.  Symmetry
    plus unitarity is exactly what makes the action involutive.
    """

    __slots__ = ("u",)

    def __init__(self, u):
        arr = np.array(u, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimMismatchError(f"conjugation matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if np.linalg.norm(arr @ arr.conj().T - np.eye(n)) > _UNITARY_TOL:
            raise InvalidInputError("conjugation matrix is not unitary to 1e-10")
        if np.linalg.norm(arr - arr.T) > _UNITARY_TOL:
            raise InvalidInputError("conjugation matrix is not symmetric to 1e-10")
        arr.flags.writeable = False
        self.u = arr

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "ConjugationMatrix":
        """Plain coefficient conjugation."""
        return cls(np.eye(dim))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if vec.size != self.dim:
            raise DimMismatchError(f"vector length {vec.size} != dimension {self.dim}")
        return self.u @ np.conj(vec)


def csym_residual(t: OperatorMatrix, c: ConjugationMatrix) -> float:
    """Frobenius norm of ``U conj(T) U^H - T^H``.

    Zero exactly when ``T`` is C-symmetric for this conjugation; because
    ``U`` is unitary this equals ``|| U conj(T) - T^H U ||_F``.
    """
    if t.dim != c.dim:
        raise DimMismatchError(f"operator dim {t.dim} != conjugation dim {c.dim}")
    u = c.u
    return float(np.linalg.norm(u @ np.conj(t.mat) @ u.conj().T - t.mat.conj().T))


def spectral_symmetry_check(t: OperatorMatrix, c: ConjugationMatrix, pairs) -> float:
    """Largest adjoint-eigenvector defect over claimed eigenpairs of ``T``.

    Each pair is ``(lam, v)`` with ``v`` a coordinate vector satisfying
    ``||T v - lam v|| < 1e-8 ||v||`` (checked; violations raise).  If the
    conjugation actually intertwines ``T`` with ``T*``, then ``C v`` must be
    an eigenvector of ``T*`` for ``conj(lam)``; the returned value is

        max over pairs of  || T^H (C v) - conj(lam) (C v) || / || C v ||.
    """
    if t.dim != c.dim:
        raise DimMismatchError(f"operator dim {t.dim} != conjugation dim {c.dim}")
    worst = 0.0
    for lam, vec in pairs:
        vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if vec.size != t.dim:
            raise DimMismatchError(f"eigenvector length {vec.size} != dimension {t.dim}")
        vnorm = np.linalg.norm(vec)
        if vnorm == 0.0 or np.linalg.norm(t.mat @ vec - lam * vec) >= 1e-8 * vnorm:
            raise NotAnEigenvectorError(f"residual check failed for claimed eigenvalue {lam}")
        cv = c.apply(vec)
        defect = np.linalg.norm(t.mat.conj().T @ cv - np.conj(lam) * cv) / np.linalg.norm(cv)
        worst = max(worst, float(defect))
    return worst


def adjoint_monomial(
    params: SpaceParams, alpha: complex, n: int, degree: int
) -> TruncatedSeries:
    """The adjoint image of ``z**n`` under composition with the involution at ``alpha``.

    Integer ``beta`` goes through the exact finite adjoint formula.  For other
    ``beta`` that sum is infinite, so row ``n`` of the truncated composition
    matrix is read, conjugated (see :func:`_adjoint_images`); it stays within
    the power-table bound of the exact image, where a Cowen sum cut at
    ``degree`` reached 231 times that bound (beta = 2.5, |alpha| = 0.984, D = 48).
    ``n = 0`` returns the truncated reproducing kernel at ``alpha`` either way.
    """
    if not 0 <= n <= degree:
        raise InvalidInputError(f"monomial degree {n} outside [0, {degree}]")
    if params.integer_beta:
        return involution_adjoint_apply(params, alpha, TruncatedSeries.monomial(n, degree), degree)
    return from_coords(params, _adjoint_images(params, alpha, n + 1, degree)[:, n])


def _adjoint_images(params: SpaceParams, alpha: complex, count: int, degree: int) -> np.ndarray:
    """Orthonormal coordinates of the adjoint images of ``z**0..z**(count-1)``, as columns.

    Column n is ``sqrt(w(n))`` times row n of the truncated composition matrix, conjugated.
    """
    rows = _weighted_powers(power_table(involution(alpha), degree + 1, count - 1), params, degree)
    return rows.conj().T * np.sqrt(weights(params, count - 1))[None, :]


@dataclass(frozen=True)
class GramTable:
    """Inner products ``G[n][m] = <v_n, v_m>`` of adjoint monomial images."""

    beta: float
    alpha: complex
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _owned_square(self.entries, "gram table"))

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def _band_mask(self) -> np.ndarray:
        idx = np.arange(self.size)
        return np.abs(idx[:, None] - idx[None, :]) > self.beta + 2.0

    def max_out_of_band(self) -> float:
        """Largest modulus at index distance more than ``beta + 2`` (exactly zero for integer beta)."""
        mask = self._band_mask()
        return float(np.max(np.abs(self.entries[mask]))) if mask.any() else 0.0

    def max_in_band(self) -> float:
        mask = ~self._band_mask()
        return float(np.max(np.abs(self.entries[mask])))


def gram_exact(params: SpaceParams, alpha: complex, size: int) -> GramTable:
    """Exact Gram table of the adjoint monomial images for integer ``beta``.

    Entry (n, m) is the finite double sum

        w(n) / (1-|alpha|^2)**(2+beta)
            * sum_{k} conj(r_k) r_{k+n-m} c_{k,m},

    where ``r_k = C(2+beta, k) (-alpha)**k`` and ``c_{k,m}`` is the exact
    scalar from the k-th power of Mz* on ``z**m``; the inner index runs over
    the k making both subscripts legal.  Entries with ``|n - m| >= beta + 3``
    have no legal index pair at all, which is the banded vanishing this
    table exists to exhibit, and ``G[2+beta][0] = w(2+beta) (-alpha)**(2+beta)
    / (1-|alpha|^2)**(2+beta)`` shows the band edge is sharp for nonzero
    ``alpha``.  At ``alpha = 0`` the table is the diagonal of weights.

    The table is filled one band diagonal ``d = n - m`` at a time, one
    vector operation along it per term of the k-sum.  The bits match an
    entry-by-entry evaluation: each entry is the same sum in increasing
    ``k`` from ``+0``, ``conj(r_k) r_{k+d}`` is one scalar product,
    ``c_{k,m}`` is built in the factor order of :func:`mzstar_on_monomial`,
    and what runs element-wise (a complex scalar times a real ``c``, complex
    sums) rounds as its scalar form does.
    """
    if not params.integer_beta:
        raise NonIntegerBetaError(f"exact gram table needs integer beta, got {params.beta}")
    alpha = require_in_disk(alpha)
    if size < 1:
        raise InvalidInputError(f"size must be at least 1, got {size}")
    top = int(params.beta) + 2
    r = _binomial_alpha_weights(alpha, int(params.beta))
    scale = weights(params, size - 1) * (1.0 - abs(alpha) ** 2) ** (-top)
    idx = np.arange(size)
    # c[k, m] for m >= k only; the slots m < k are never read.
    c = np.ones((top + 1, size))
    for k in range(1, top + 1):
        m = idx[k:]
        c[k, k:] = c[k - 1, k:] * ((m - (k - 1)) / (m + 1.0 + params.beta - (k - 1)))
    entries = np.zeros((size, size), dtype=np.complex128)
    for d in range(-min(top, size - 1), min(top, size - 1) + 1):
        first, stop = max(0, -d), size - max(0, d)
        m = idx[first:stop]
        acc = np.zeros(stop - first, dtype=np.complex128)
        for k in range(first, top - max(0, d) + 1):
            acc[k - first :] += (np.conj(r[k]) * r[k + d]) * c[k, k:stop]
        entries[m + d, m] = scale[m + d] * acc
    entries.flags.writeable = False
    return GramTable(params.beta, alpha, entries)


def gram_truncated(params: SpaceParams, alpha: complex, size: int, degree: int) -> GramTable:
    """Gram table via the truncated matrix route, any ``beta``.

    Adjoint images are columns of the conjugate transpose of the truncated
    composition matrix (:func:`_adjoint_images`); inner products are plain
    coordinate dot products.
    Converges to the exact table as ``degree`` grows and serves as the
    independent oracle for it.
    """
    alpha = complex(alpha)
    if size < 1:
        raise InvalidInputError(f"size must be at least 1, got {size}")
    if size - 1 > degree:
        raise InvalidInputError(f"size {size} needs degree >= {size - 1}")
    cols = _adjoint_images(params, alpha, size, degree)
    entries = cols.T @ np.conj(cols)
    entries.flags.writeable = False
    return GramTable(params.beta, alpha, entries)


def gram_column_zero(params: SpaceParams, alpha: complex, n: int) -> complex:
    """Closed form of ``<v_n, v_0>`` when ``beta`` is not an integer.

    The generalized binomial keeps every term:

        <v_n, v_0> = C(2+beta, n) (-alpha)**n w(n) / (1-|alpha|^2)**(2+beta),

    including the kernel-norm prefactor, so the value is directly comparable
    with the truncated route.  No index is ever out of band here: for
    non-integer exponents the column never terminates.
    """
    if params.integer_beta:
        raise IntegerBetaError("integer beta has the exact banded table; use gram_exact")
    alpha = require_in_disk(alpha)
    p = params.beta + 2.0
    binom = 1.0
    for i in range(1, n + 1):
        binom = binom * (p - i + 1) / i
    value = binom * (-alpha) ** n * weights(params, n)[n]
    return complex(value / (1.0 - abs(alpha) ** 2) ** p)


@dataclass(frozen=True)
class SubspaceReport:
    """Cross inner products between two arithmetic-progression index blocks."""

    beta: float
    alpha: complex
    order: int
    count: int
    max_cross: float
    threshold: int
    guaranteed: bool


def subspace_orthogonality(
    params: SpaceParams, alpha: complex, order: int, count: int
) -> SubspaceReport:
    """Certify ``span(v_{k order}) perp span(v_{j order + 3 + beta})`` numerically.

    The cross pair ``(k, j)``, ``k, j < count``, lies ``(k - j) order - (3 + beta)``
    off the diagonal, and the exact Gram table vanishes from distance ``3 + beta``
    on.  ``guaranteed`` is this band fact, which holds from ``order >= 2 (3 + beta)``:
    there ``max_cross`` is ``0.0`` by the band (checked in the tests against the
    entry-by-entry table), not a computed sum, and the cost does not depend on
    ``order``.  The paper states its theorem for orders ``q > 2 (3 + beta)``.
    Below the threshold the cross terms come from the exact table (fewer than
    ``count * 2 (3 + beta)`` rows) and ``guaranteed`` is False: nothing forces
    them to vanish there.
    """
    if not params.integer_beta:
        raise NonIntegerBetaError(f"subspace certificate needs integer beta, got {params.beta}")
    if order < 1 or count < 1:
        raise InvalidInputError(f"order and count must be positive, got {order} and {count}")
    alpha = require_in_disk(alpha)
    shift = int(params.beta) + 3
    threshold = 2 * shift
    max_cross = 0.0
    if order < threshold:
        table = gram_exact(params, alpha, (count - 1) * order + shift + 1)
        rows = [k * order for k in range(count)]
        cols = [j * order + shift for j in range(count)]
        max_cross = float(np.max(np.abs(table.entries[np.ix_(rows, cols)])))
    return SubspaceReport(
        beta=params.beta,
        alpha=alpha,
        order=order,
        count=count,
        max_cross=max_cross,
        threshold=threshold,
        guaranteed=order >= threshold,
    )


def elliptic_certificate(phi: Lft, params: SpaceParams) -> SubspaceReport | None:
    """Subspace certificate of an elliptic automorphism whose multiplier has order ``q <= 64``.

    :func:`subspace_orthogonality` at the interior fixed point with order
    ``q`` and three vectors per block; ``None`` for any other map, for
    non-integer ``beta`` and for ``q < 2 (3 + beta)``.  A report is the band
    fact, which holds from ``q = 2 (3 + beta)``: ``max_cross == 0.0`` is not
    a computed sum.  The paper states its theorem for ``q > 2 (3 + beta)``.
    """
    if classify(phi).kind is not MapKind.ELLIPTIC or not params.integer_beta:
        return None
    alpha, mult = fixed_points(phi).interior()[0]
    order = elliptic_order(mult, 64)
    if order is None or order < 2 * (3 + int(params.beta)):
        return None
    return subspace_orthogonality(params, alpha, order, 3)


@dataclass(frozen=True)
class WitnessReport:
    """Two routes to the pairing that obstructs conjugations for high orders."""

    direct: complex
    truncated: complex
    difference: float


def obstruction_witness(alpha: complex, beta: float) -> WitnessReport:
    """Evaluate ``<phi_alpha**(3+beta), K_0>`` directly and through series.

    The direct route is ``alpha**(3+beta)`` because the pairing with the
    kernel at 0 reads off the value of the power at the origin.  The series
    route raises the truncated expansion of the involution to the same
    power and pairs it with the truncated kernel.  A nonzero value is the
    witness: it is exactly the quantity that must vanish for a conjugation
    compatible with the elliptic eigenvector structure to exist, so any
    ``alpha != 0`` certifies the obstruction.
    """
    if not float(beta).is_integer():
        raise NonIntegerBetaError(f"witness exponent 3 + beta must be an integer, got {beta}")
    alpha = require_in_disk(alpha)
    params = SpaceParams(float(beta))
    exponent = int(beta) + 3
    degree = max(16, 2 * exponent)
    table = power_table(involution(alpha), exponent + 1, degree)
    power = TruncatedSeries(table[:, exponent])
    truncated = inner_product(params, power, kernel_series(params, 0.0, degree))
    direct = alpha**exponent
    return WitnessReport(
        direct=direct, truncated=truncated, difference=abs(direct - truncated)
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a conjugation search: best candidate plus residual history."""

    conjugation: ConjugationMatrix
    best_trace: np.ndarray
    residuals: np.ndarray


def _symmetric_polar(m: np.ndarray) -> np.ndarray:
    """Nearest unitary to a symmetric matrix; symmetric again up to roundoff.

    The unitary polar factor of a symmetric matrix is symmetric whenever the
    singular values are distinct; a symmetrize-and-repolish pass cleans up
    the degenerate directions.
    """
    u, _, vh = np.linalg.svd(m)
    q = u @ vh
    for _ in range(2):
        if np.linalg.norm(q - q.T) <= 1e-13 * np.sqrt(q.shape[0]):
            break
        q = (q + q.T) / 2.0
        u, _, vh = np.linalg.svd(q)
        q = u @ vh
    return q


def _random_symmetric_unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _symmetric_polar(g + g.T)


def conjugation_search(t: OperatorMatrix, iters: int = 60, seed: int = 0) -> SearchResult:
    """Search for a conjugation making ``T`` as C-symmetric as possible.

    Alternates a regularized least-squares step for the intertwining
    equation ``M conj(T) = T^H M`` (solved over symmetric ``M`` only, in a
    precomputed eigenbasis) with projection onto the symmetric unitaries by
    polar decomposition.  The least-squares step is proximal: it shrinks
    toward the intertwining kernel while staying near the current iterate,
    and the shrinkage weight is chosen greedily each iteration from a
    geometric ladder, keeping whichever projected candidate has the
    smallest residual.  Three deterministic starts are tried: the identity,
    the best least-squares intertwiner, and a seeded random symmetric
    unitary; a stalled trajectory gets one random kick before being
    abandoned.  The problem is nonconvex, so per-iteration residuals may
    rise; only the recorded best-so-far trace is monotone, and that is the
    only monotonicity callers should rely on.  Always returns the best
    candidate found.
    """
    if iters < 1 or seed < 0:
        raise InvalidInputError(f"need iters >= 1 and seed >= 0, got iters={iters}, seed={seed}")
    n = t.dim
    s = t.mat.conj().T
    tbar = np.conj(t.mat)
    # A symmetric matrix is packed as its upper triangle in row-major order.
    iu, ju = np.triu_indices(n)
    # Intertwining map restricted to symmetric matrices, as a dense
    # (n^2, n(n+1)/2) matrix in row-major vec coordinates: the column of a
    # packed entry (i, j) is the sum of the full columns of (i, j) and (j, i).
    lfull = np.kron(np.eye(n), s) - np.kron(s, np.eye(n))
    bmat = lfull[:, iu * n + ju] + (iu != ju) * lfull[:, ju * n + iu]
    amat = bmat.conj().T @ bmat
    lam, vmat = np.linalg.eigh(amat)
    lam = np.clip(lam, 0.0, None)
    mu_ref = max(float(np.mean(lam)), 1e-300)
    ladder = mu_ref * np.array([30.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-5])

    def unpack(p):
        m = np.zeros((n, n), dtype=np.complex128)
        m[iu, ju] = p
        m[ju, iu] = p
        return m

    def resid(u):
        return float(np.linalg.norm(u @ tbar @ u.conj().T - s))

    def ladder_step(u):
        coeffs = vmat.conj().T @ u[iu, ju]
        best = None
        for mu in ladder:
            m = unpack(vmat @ (coeffs * (mu / (lam + mu))))
            cand = _symmetric_polar((m + m.T) / 2.0)
            r = resid(cand)
            if best is None or r < best[0]:
                best = (r, cand)
        return best

    rng = np.random.default_rng(seed)
    smallest = unpack(vmat[:, 0])
    starts = [np.eye(n, dtype=np.complex128), _symmetric_polar(smallest)]
    starts.append(_random_symmetric_unitary(rng, n))

    residuals = []
    best_trace = []
    best_r = math.inf
    best_u = starts[0]
    per_start = max(2, -(-iters // len(starts)))
    spent = 0
    for u in starts:
        cur = resid(u)
        stall = 0
        used = 0
        while spent < iters and used < per_start:
            spent += 1
            used += 1
            residuals.append(cur)
            if cur < best_r - 1e-16:
                best_r, best_u = cur, u.copy()
            best_trace.append(best_r)
            if best_r < 1e-13 or stall >= 3:
                break
            step_r, step_u = ladder_step(u)
            if step_r < cur - 1e-15:
                u, cur, stall = step_u, step_r, 0
            else:
                stall += 1
                u = _symmetric_polar(u + 0.2 * _random_symmetric_unitary(rng, n))
                cur = resid(u)
        if best_r < 1e-13:
            break
    return SearchResult(
        conjugation=ConjugationMatrix(best_u),
        best_trace=np.array(best_trace),
        residuals=np.array(residuals),
    )
