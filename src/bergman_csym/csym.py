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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    IntegerBetaError,
    InvalidInputError,
    NotAnEigenvectorError,
    require_in_disk,
)
from .lft import Lft, MapKind, classify, elliptic_order, fixed_points, involution, power_table
from .operators import (
    OperatorMatrix,
    _binomial_alpha_weights,
    _exact_beta,
    _integer_beta,
    _owned_square,
    from_coords,
)
from .series import TruncatedSeries
from .space import SpaceParams, _orthonormal, _weighted_rows, weights

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
    return _residual(c.u, np.conj(t.mat), t.mat.conj().T)


def _residual(u: np.ndarray, tbar: np.ndarray, s: np.ndarray) -> float:
    """``|| U tbar U^H - s ||_F``; :func:`csym_residual` with ``tbar = conj(T)`` and ``s = T^H``."""
    return float(np.linalg.norm(u @ tbar @ u.conj().T - s))


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
    """The adjoint image of ``z**n`` under composition with the involution at ``alpha``, any ``beta``.

    Row ``n`` of :func:`_adjoint_images`, read off a table of ``n + 1`` rows of the
    involution's powers and divided by ``sqrt(w)`` part by part.  It stays within the
    power-table bound of the exact image up to |alpha| = 0.984 (D = 48), where the finite
    adjoint formula of :func:`~bergman_csym.operators.involution_adjoint_apply` reaches 20
    times that bound at beta = 2.  ``n = 0`` returns the truncated reproducing kernel at
    ``alpha``.
    """
    if not 0 <= n <= degree:
        raise InvalidInputError(f"monomial degree {n} outside [0, {degree}]")
    return from_coords(params, _adjoint_images(params, alpha, n + 1, degree)[n])


def _adjoint_images(params: SpaceParams, alpha: complex, count: int, degree: int) -> np.ndarray:
    """Orthonormal coordinates of the adjoint images of ``z**0..z**(count-1)``, as rows.

    Coefficient m of image n is ``w(n) conj(T[n, m]) / w(m)`` for the first ``count`` rows
    ``T`` of the involution's power table (within the power-table bound of the square table's
    rows; see :func:`~bergman_csym.series.mobius_powers`), and its coordinate is that times
    ``sqrt(w(m))``: the rows in orthonormal coordinates
    (:func:`~bergman_csym.space._orthonormal`), conjugated, then row n times ``sqrt(w(n))``
    once more (:func:`~bergman_csym.space._weighted_rows`).  The weights enter by square
    roots: a product ``w(n) T[n, m]`` keeps only a few ulps where ``w(n)`` is subnormal
    (1e-323 at n = 233, beta = 2000.5).  At ``beta = -1`` only the conjugate remains.
    """
    rows = _orthonormal(params, power_table(involution(alpha), degree + 1, count - 1))
    return _weighted_rows(params, np.conjugate(rows, out=rows))


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


def _band_diagonals(params: SpaceParams, alpha: complex, size: int, offsets) -> list:
    """``(d, m, G[m + d, m])`` along each band diagonal ``d`` in ``offsets`` of :func:`gram_exact`.

    ``offsets`` ascend, ``|d| <= 2 + beta``, and ``m`` runs over the columns
    with both indices below ``size``.  One sweep over the k-sum serves every
    diagonal: term k adds to the diagonals ``-k <= d <= min(2 + beta, size - 1) - k``,
    a contiguous run of ``offsets``, in one vector operation over their
    columns ``m >= k``.  The upper bound stops each diagonal's sum at its last
    column: later terms add empty slices, and their scalar products can
    overflow.  Terms that remain can still overflow at large ``beta``; a
    diagonal that is not finite raises ``InvalidInputError``.
    """
    r = _binomial_alpha_weights(alpha, params.beta)
    top = r.size - 1
    try:
        scale = weights(params, size - 1) * (1.0 - abs(alpha) ** 2) ** (-top)
    except OverflowError:
        raise InvalidInputError(
            f"(1 - |alpha|**2)**-(2 + beta) leaves the double range at beta = {params.beta}, "
            f"|alpha| = {abs(alpha)}"
        ) from None
    idx = np.arange(size)
    # c[k, m] for m >= k only; the slots m < k are never read.
    c = np.ones((top + 1, size))
    for k in range(1, top + 1):
        m = idx[k:]
        c[k, k:] = c[k - 1, k:] * ((m - (k - 1)) / (m + 1.0 + params.beta - (k - 1)))
    offsets = list(offsets)
    last = min(top, size - 1)
    # Row i sums diagonal offsets[i] at its columns m; columns past the
    # diagonal's last one collect terms that are never read.
    acc = np.zeros((len(offsets), size), dtype=np.complex128)
    diagonals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(last + 1):
            lo, hi = bisect_left(offsets, -k), bisect_right(offsets, last - k)
            terms = [np.conj(r[k]) * r[k + d] for d in offsets[lo:hi]]
            acc[lo:hi, k:] += np.array(terms, dtype=np.complex128)[:, None] * c[k, k:]
        for d, row in zip(offsets, acc):
            first, stop = max(0, -d), size - max(0, d)
            m = idx[first:stop]
            diagonals.append((d, m, scale[m + d] * row[first:stop]))
    if not all(np.isfinite(values).all() for _, _, values in diagonals):
        raise InvalidInputError(
            f"the exact Gram sum leaves the double range at beta = {params.beta}, "
            f"|alpha| = {abs(alpha)}"
        )
    return diagonals


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

    The band diagonals ``d = n - m`` are summed together, one vector
    operation over all of them per term of the k-sum.  The bits match an
    entry-by-entry evaluation: each entry is the same sum in increasing
    ``k`` from ``+0``, ``conj(r_k) r_{k+d}`` is one scalar product,
    ``c_{k,m}`` is built in the factor order of :func:`mzstar_on_monomial`,
    and what runs element-wise (a complex scalar times a real ``c``, complex
    sums) rounds as its scalar form does.
    """
    beta = _integer_beta(params, "exact gram table")
    alpha = require_in_disk(alpha)
    if size < 1:
        raise InvalidInputError(f"size must be at least 1, got {size}")
    band = min(beta + 2, size - 1)
    entries = np.zeros((size, size), dtype=np.complex128)
    for d, m, values in _band_diagonals(params, alpha, size, range(-band, band + 1)):
        entries[m + d, m] = values
    entries.flags.writeable = False
    return GramTable(params.beta, alpha, entries)


def gram_truncated(params: SpaceParams, alpha: complex, size: int, degree: int) -> GramTable:
    """Gram table via the truncated matrix route, any ``beta``.

    Entry (n, m) is ``sum_k w(k) v_n[k] conj(v_m[k])``, one product ``X X^H`` of the
    coordinate rows of :func:`_adjoint_images`; it forms no coefficient ``v_n[k]``, which
    can overflow where the entry does not.  Converges to the exact table as ``degree``
    grows and serves as the independent oracle for it.
    """
    alpha = complex(alpha)
    if size < 1:
        raise InvalidInputError(f"size must be at least 1, got {size}")
    if size - 1 > degree:
        raise InvalidInputError(f"size {size} needs degree >= {size - 1}")
    rows = _adjoint_images(params, alpha, size, degree)
    entries = rows @ rows.conj().T
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
    Below the threshold the cross terms are read off the fewer than
    ``2 (3 + beta) / order`` band diagonals they lie on, in O(count order (3 + beta))
    memory and with no table, and ``guaranteed`` is False: nothing forces them
    to vanish there.
    """
    shift = _integer_beta(params, "subspace certificate") + 3
    if order < 1 or count < 1:
        raise InvalidInputError(f"order and count must be positive, got {order} and {count}")
    alpha = require_in_disk(alpha)
    threshold = 2 * shift
    max_cross = 0.0
    if order < threshold:
        # Pair (j + delta, j) is on diagonal delta * order - shift, in band for 0 < delta * order < threshold.
        offsets = [delta * order - shift for delta in range(1, min(count, -(-threshold // order)))]
        cross = [0.0]
        for d, m, values in _band_diagonals(params, alpha, (count - 1) * order + shift + 1, offsets):
            cross.extend(np.abs(values[shift - m[0] :: order][: count - (d + shift) // order]))
        max_cross = float(np.max(cross))
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
    Near the circle the coefficients fix the multiplier's angle only to about ``2**-52 /
    (1 - |alpha|**2)**2`` by any route (fixed point, derivative, ``tr**2 / det``): past the
    1e-9 of :func:`~bergman_csym.lft.elliptic_order` from |alpha| = 0.9999 on, so ``None``.
    """
    if classify(phi).kind is not MapKind.ELLIPTIC or not params.integer_beta:
        return None
    alpha, mult = fixed_points(phi).interior()[0]
    # The map is an automorphism, so its multiplier is unimodular; the computed one
    # drifts off the circle as alpha nears it (1.7e-11 at |alpha| = 0.999).
    order = elliptic_order(mult / abs(mult), 64)
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
    route reads that value, coefficient 0 of the power, off row 0 of the
    involution's power table, the only row built: ``K_0`` is the constant 1
    and ``w(0) = 1``, so the pairing is that coefficient itself.  A
    nonzero value is the witness: it is exactly the quantity that must
    vanish for a conjugation compatible with the elliptic eigenvector
    structure to exist, so any ``alpha != 0`` certifies the obstruction.
    ``beta`` obeys the bound of the other exact formulas, ``beta <= 1027``.
    """
    params = SpaceParams(beta)
    exponent = _integer_beta(params, "the obstruction witness") + 3
    alpha = require_in_disk(alpha)
    _exact_beta(params.beta)
    truncated = complex(power_table(involution(alpha), exponent + 1, 0)[0, exponent])
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
    unitary; an identity that already solves ``T`` (as for every rotation)
    is returned before the dense set-up is built.  Each start runs until its
    first ladder step that does not lower the residual, with no random
    kicks, or until its share of ``iters`` is spent.  Residuals fall within
    a start but may rise at the next; only the recorded best-so-far trace is
    monotone, and that is the only monotonicity callers should rely on.
    Always returns the best candidate found.
    """
    if iters < 1 or seed < 0:
        raise InvalidInputError(f"need iters >= 1 and seed >= 0, got iters={iters}, seed={seed}")
    n = t.dim
    s = t.mat.conj().T
    tbar = np.conj(t.mat)
    identity = np.eye(n, dtype=np.complex128)
    first = _residual(identity, tbar, s)
    if first < 1e-13:
        # The identity start solves T at its first iterate, as for every
        # rotation: the set-up below and the other starts would go unused.
        return SearchResult(
            conjugation=ConjugationMatrix(identity),
            best_trace=np.array([first]),
            residuals=np.array([first]),
        )
    # A symmetric matrix is packed as its upper triangle in row-major order.
    iu, ju = np.triu_indices(n)
    # The intertwining map M -> M conj(T) - T^H M on the packed symmetric basis
    # matrices E_ij + E_ji (E_ii on the diagonal), one row-major vec per row.
    basis = np.zeros((iu.size, n, n), dtype=np.complex128)
    basis[np.arange(iu.size), iu, ju] = 1.0
    basis[np.arange(iu.size), ju, iu] = 1.0
    rows = (basis @ tbar - s @ basis).reshape(iu.size, n * n)
    lam, vmat = np.linalg.eigh(rows.conj() @ rows.T)
    lam = np.clip(lam, 0.0, None)
    mu_ref = max(float(np.mean(lam)), 1e-300)
    ladder = mu_ref * np.array([30.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-5])

    def unpack(p):
        m = np.zeros((n, n), dtype=np.complex128)
        m[iu, ju] = p
        m[ju, iu] = p
        return m

    def ladder_step(u):
        coeffs = vmat.conj().T @ u[iu, ju]
        best = None
        for mu in ladder:
            cand = _symmetric_polar(unpack(vmat @ (coeffs * (mu / (lam + mu)))))
            r = _residual(cand, tbar, s)
            if best is None or r < best[0]:
                best = (r, cand)
        return best

    starts = [identity, _symmetric_polar(unpack(vmat[:, 0]))]
    starts.append(_random_symmetric_unitary(np.random.default_rng(seed), n))
    residuals, best_trace = [], []
    best_r, best_u = math.inf, starts[0]
    per_start = max(2, -(-iters // len(starts)))
    for u in starts:
        cur = _residual(u, tbar, s)
        for _ in range(min(per_start, iters - len(residuals))):
            residuals.append(cur)
            if cur < best_r - 1e-16:
                best_r, best_u = cur, u
            best_trace.append(best_r)
            if best_r < 1e-13:
                break
            step_r, step_u = ladder_step(u)
            if not step_r < cur - 1e-15:
                break
            u, cur = step_u, step_r
        if best_r < 1e-13:
            break
    return SearchResult(
        conjugation=ConjugationMatrix(best_u),
        best_trace=np.array(best_trace),
        residuals=np.array(residuals),
    )
