"""Turn generated requests into package calls, oracle checks and output digests.

Runs inside the worker process.  ``prepare(request)`` builds the inputs
(maps, spaces, compressions) once, outside every timed span, and returns a
:class:`Case`: ``call()`` is the timed request and ``check(out)`` is the
oracle, run after the span closes.  ``digest(out)`` fingerprints every byte
of an output for the bit-identity checks between passes.

The oracles do not reuse the package's routes.  Weights come from
``math.lgamma`` rather than the package's exact binomials, maps are
evaluated from their generated recipe, Möbius powers are expanded here by
convolution, and closed forms are coded from their formulas.  Where a
package function returns its own residual (``verify_hurst``,
``hurst_eigencheck``), the oracle recomputes that residual by reference
arithmetic and requires the returned figure to match it.  Tolerances are
the acceptance-gate bounds (a01, a03-a07, a11) or, where no gate covers a
function, the bound of the unit test that does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import bergman_csym as bc
from workloads import kc_coefficients

# Acceptance-gate bounds.
A01_PAIRING = 1e-9
A03_EDGE_FLOOR = 1e-6
A04_CROSS = 1e-10
A05_GAP = 1e-10
A06_RESIDUAL = 1e-7
A07_EXACT, A07_APPROX = 1e-12, 1e-6
A11_INVARIANT = 1e-10
A11_TRACE_SLACK = 1e-15
# A returned residual may differ from its reference recomputation by rounding only.
RESIDUAL_MATCH_ABS, RESIDUAL_MATCH_REL = 1e-12, 1e-6
# Unit-test bounds: generalized Gram column (atol 1e-8), two-route adjoint images (1e-9).
COLUMN_ZERO_ATOL = 1e-8
ADJOINT_IMAGE_TOL = 1e-9
ADJOINT_CHECKED_COEFFS = 17

MAP_KINDS = {
    "identity", "rotation-like-elliptic", "elliptic", "parabolic",
    "hyperbolic-automorphism", "hyperbolic-nonautomorphism", "loxodromic",
}


@dataclass
class Case:
    cls: str
    call: Callable[[], Any]
    check: Callable[[Any], str]  # "" when the output passes, else the reason


# --- independent reference arithmetic ----------------------------------------


def ref_weights(beta: float, n_max: int) -> np.ndarray:
    """``w(n) = n! G(2+beta) / G(n+2+beta)`` through log-gamma."""
    g2 = math.lgamma(2.0 + beta)
    return np.array(
        [math.exp(math.lgamma(n + 1.0) + g2 - math.lgamma(n + 2.0 + beta)) for n in range(n_max + 1)]
    )


def _inv(a: complex, z: complex) -> complex:
    """The involution exchanging 0 and ``a``."""
    return (a - z) / (1.0 - a.conjugate() * z)


def ref_map(sym, z: complex) -> complex:
    kind = sym[0]
    if kind == "kc":
        _, a, b, u = sym
        return _inv(a, u * _inv(b, z))
    if kind == "inv":
        return _inv(sym[1], z)
    if kind == "poly":
        return ref_poly(sym[1], z)
    if kind == "rot":
        return sym[1] * z
    if kind == "contr":
        _, a, u = sym
        return u * _inv(a, z)
    if kind == "dil":
        _, alpha, lam = sym
        return _inv(alpha, lam * _inv(alpha, z))
    raise KeyError(kind)


def ref_poly(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def ref_lft_series(a: complex, b: complex, c: complex, d: complex, degree: int) -> np.ndarray:
    """Coefficients of ``(a z + b) / (c z + d)`` up to ``degree``, from the geometric series."""
    geo = (-c / d) ** np.arange(degree + 1) / d
    out = b * geo
    out[1:] += a * geo[:-1]
    return out


def ref_powers(phi: np.ndarray, count: int, degree: int) -> np.ndarray:
    """Row m holds the coefficients of ``phi**m`` up to ``degree``, by repeated convolution."""
    rows = np.zeros((count, degree + 1), dtype=complex)
    rows[0, 0] = 1.0
    for m in range(1, count):
        rows[m] = np.convolve(rows[m - 1], phi)[: degree + 1]
    return rows


def ref_involution_powers(alpha: complex, count: int, degree: int) -> np.ndarray:
    """Row m holds the coefficients of ``phi**m`` up to ``degree``, phi the involution at alpha."""
    return ref_powers(ref_lft_series(-1.0, alpha, -alpha.conjugate(), 1.0, degree), count, degree)


def _generalized_binomial(p: float, n: int) -> float:
    out = 1.0
    for i in range(1, n + 1):
        out *= (p - i + 1) / i
    return out


def ref_hurst_residual(sym, beta: float, block: int) -> float:
    """``|| (C_phi^H - M_g C_sigma M_h^H)[:block, :block] ||_F`` from block x block matrices.

    ``M_g`` is lower triangular and ``M_h^H`` upper triangular, so the
    top-left block of the product is the product of the three top-left
    blocks; nothing past degree ``block - 1`` enters.  The factors follow
    Hurst's formulas for ``phi = (a z + b)/(c z + d)``:
    ``sigma = (conj(a) z - conj(c)) / (-conj(b) z + conj(d))``,
    ``g = (-conj(b) z + conj(d))**-(beta+2)``, ``h = (c z + d)**(beta+2)``.
    """
    a, b, c, d = kc_coefficients(sym)
    n = block - 1
    p = beta + 2.0
    k = np.arange(block)
    ac, bc_, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    phi_pow = ref_powers(ref_lft_series(a, b, c, d, n), block, n)
    sigma_pow = ref_powers(ref_lft_series(ac, -cc, -bc_, dc, n), block, n)
    g = complex(dc) ** -p * np.array([_generalized_binomial(-p, i) for i in k]) * (-bc_ / dc) ** k
    h = complex(d) ** p * np.array([_generalized_binomial(p, i) for i in k]) * (c / d) ** k
    sqrtw = np.sqrt(ref_weights(beta, n))
    scale = sqrtw[:, None] / sqrtw[None, :]
    lag = k[:, None] - k[None, :]

    def toeplitz_lower(col):
        return np.where(lag >= 0, col[np.maximum(lag, 0)], 0.0) * scale

    cphi = phi_pow.T * scale  # entry (i, j) is coefficient i of phi**j
    csigma = sigma_pow.T * scale
    resid = cphi.conj().T - toeplitz_lower(g) @ csigma @ toeplitz_lower(h).conj().T
    return float(np.linalg.norm(resid))


def ref_eigen_residual(s: float, exponent: float, beta: float, degree: int, block: int) -> float:
    """Relative residual of ``f o sigma = s**p f`` on coefficients up to ``block``.

    ``f = (1 - z)**p`` truncated at ``degree`` and ``sigma(z) = s z + 1 - s``.
    Coefficient k of ``f(sigma)`` is summed over the rows of the binomial
    triangle of ``(1 - s + s z)**n``, built row by row (every row is a convex
    combination of the previous one, so no cancellation).
    """
    n = np.arange(1, degree + 1)
    f = np.concatenate(([1.0], np.cumprod((n - 1.0 - exponent) / n)))
    row = np.zeros(block + 1)
    row[0] = 1.0
    composed = f[0] * row
    for m in range(1, degree + 1):
        row[1:] = (1.0 - s) * row[1:] + s * row[:-1]
        row[0] *= 1.0 - s
        composed = composed + f[m] * row
    diff = composed - s**exponent * f[: block + 1]
    w = ref_weights(beta, block)
    return math.sqrt(np.sum(w * np.abs(diff) ** 2) / np.sum(w * f[: block + 1] ** 2))


def _residual_check(res: float, ref: float, bound: float) -> str:
    if not (math.isfinite(res) and res < bound):
        return f"residual {res:.3e} not below {bound:.0e}"
    if not ref < bound:
        return f"reference residual {ref:.3e} not below {bound:.0e}"
    gap = abs(res - ref)
    return _fail(
        gap <= RESIDUAL_MATCH_ABS + RESIDUAL_MATCH_REL * ref,
        f"residual {res:.6e} differs from its recomputation {ref:.6e}",
    )


# --- package inputs -----------------------------------------------------------


def build_map(sym):
    kind = sym[0]
    if kind == "kc":
        _, a, b, u = sym
        return bc.compose_maps(bc.involution(a), bc.scaled(bc.involution(b), u))
    if kind == "inv":
        return bc.involution(sym[1])
    if kind == "poly":
        return bc.TruncatedSeries(sym[1])
    if kind == "rot":
        return bc.rotation(sym[1])
    if kind == "contr":
        _, a, u = sym
        return bc.scaled(bc.involution(a), u)
    if kind == "dil":
        return bc.dilation_about(sym[1], sym[2])
    raise KeyError(kind)


def _fail(cond: bool, reason: str) -> str:
    return "" if cond else reason


# --- operators workload -------------------------------------------------------


def _composition_matrix(q) -> Case:
    symbol = build_map(q["symbol"])
    params = bc.SpaceParams(q["beta"])
    degree = q["degree"]
    target = ref_poly(q["f"], ref_map(q["symbol"], q["alpha"]))
    sqrtw = np.sqrt(ref_weights(q["beta"], degree))
    fco = np.zeros(degree + 1, dtype=complex)
    fco[: len(q["f"])] = q["f"]
    apow = q["alpha"] ** np.arange(degree + 1)

    def check(op):
        if op.mat.shape != (degree + 1, degree + 1):
            return f"shape {op.mat.shape}"
        # <C f, K_alpha> in orthonormal coordinates: K has coordinates conj(alpha)^n / sqrt(w(n)).
        pairing = np.sum(apow / sqrtw * (op.mat @ (fco * sqrtw)))
        err = abs(pairing - target)
        return _fail(err < A01_PAIRING, f"reproducing identity off by {err:.3e}")

    return Case(q["cls"], lambda: bc.composition_matrix(symbol, params, degree), check)


def _verify_hurst(q) -> Case:
    phi = build_map(q["symbol"])
    params = bc.SpaceParams(q["beta"])
    ref = ref_hurst_residual(q["symbol"], q["beta"], q["block"])

    def check(res):
        return _residual_check(res, ref, A06_RESIDUAL)

    return Case(q["cls"], lambda: bc.verify_hurst(phi, params, q["degree"], q["block"]), check)


def _gram_truncated(q) -> Case:
    params = bc.SpaceParams(q["beta"])
    alpha, size, p = q["alpha"], q["size"], q["beta"] + 2.0
    w = ref_weights(q["beta"], size - 1)
    column = np.array(
        [_generalized_binomial(p, n) * (-alpha) ** n * w[n] for n in range(size)]
    ) / (1.0 - abs(alpha) ** 2) ** p

    def check(table):
        err = np.max(np.abs(table.entries[:, 0] - column))
        return _fail(err < COLUMN_ZERO_ATOL, f"column zero off by {err:.3e}")

    return Case(q["cls"], lambda: bc.gram_truncated(params, alpha, size, q["degree"]), check)


# --- adjoint workload ---------------------------------------------------------


def _adjoint_monomial(q) -> Case:
    params = bc.SpaceParams(q["beta"])
    alpha, n, degree = q["alpha"], q["n"], q["degree"]
    w = ref_weights(q["beta"], ADJOINT_CHECKED_COEFFS)
    wn = ref_weights(q["beta"], n)[n]
    powers = ref_involution_powers(alpha, ADJOINT_CHECKED_COEFFS, n)
    # <C* z^n, z^m> = <z^n, phi^m>, so coefficient m of the image is w(n) conj((phi^m)_n) / w(m).
    expected = wn * np.conj(powers[:, n]) / w[:ADJOINT_CHECKED_COEFFS]
    tol = ADJOINT_IMAGE_TOL * max(1.0, float(np.max(np.abs(expected))))

    def check(v):
        if v.degree != degree:
            return f"degree {v.degree}"
        err = np.max(np.abs(v.coeffs[:ADJOINT_CHECKED_COEFFS] - expected))
        return _fail(err < tol, f"adjoint image off by {err:.3e}")

    return Case(q["cls"], lambda: bc.adjoint_monomial(params, alpha, n, degree), check)


def _gram_exact(q) -> Case:
    params = bc.SpaceParams(q["beta"])
    alpha, size, top = q["alpha"], q["size"], int(q["beta"]) + 2
    idx = np.arange(size)
    out_of_band = np.abs(idx[:, None] - idx[None, :]) >= top + 1
    edge = ref_weights(q["beta"], top)[top] * (-alpha) ** top / (1.0 - abs(alpha) ** 2) ** top

    def check(table):
        g = table.entries
        if not np.all(g[out_of_band] == 0.0):
            return "nonzero entry outside the band"
        if abs(g[top, 0]) <= A03_EDGE_FLOOR:
            return f"band edge {abs(g[top, 0]):.3e} not sharp"
        err = abs(g[top, 0] - edge) / abs(edge)
        return _fail(err < 1e-12, f"band edge off by relative {err:.3e}")

    return Case(q["cls"], lambda: bc.gram_exact(params, alpha, size), check)


def _subspace(q) -> Case:
    params = bc.SpaceParams(q["beta"])

    def check(rep):
        if not rep.guaranteed:
            return "certificate not guaranteed"
        return _fail(rep.max_cross < A04_CROSS, f"cross pairing {rep.max_cross:.3e}")

    return Case(
        q["cls"],
        lambda: bc.subspace_orthogonality(params, q["alpha"], q["order"], q["count"]),
        check,
    )


def _witness(q) -> Case:
    alpha, beta = q["alpha"], q["beta"]
    exponent = int(beta) + 3
    direct = alpha**exponent

    def check(rep):
        gap = abs(rep.direct - rep.truncated)
        if gap >= A05_GAP:
            return f"routes differ by {gap:.3e}"
        if abs(rep.direct - direct) > 1e-12 * abs(direct):
            return "direct value is not alpha**(3+beta)"
        return _fail(abs(rep.direct) > abs(alpha) ** exponent / 2, "witness below its floor")

    return Case(q["cls"], lambda: bc.obstruction_witness(alpha, beta), check)


def _kernel_identity(q) -> Case:
    phi = build_map(q["symbol"])
    params = bc.SpaceParams(q["beta"])
    degree, alpha = q["degree"], q["alpha"]
    f = bc.TruncatedSeries(q["f"]).resized(degree)
    target = ref_poly(q["f"], ref_map(q["symbol"], alpha))

    def call():
        pushed = bc.compose(f, bc.to_series(phi, degree), degree)
        return bc.inner_product(params, pushed, bc.kernel_series(params, alpha, degree))

    def check(paired):
        err = abs(paired - target)
        return _fail(err < A01_PAIRING, f"kernel identity off by {err:.3e}")

    return Case(q["cls"], call, check)


def _eigencheck(q) -> Case:
    params = bc.SpaceParams(q["beta"])
    bound = A07_EXACT if float(q["exponent"]).is_integer() else A07_APPROX
    ref = ref_eigen_residual(q["s"], q["exponent"], q["beta"], q["degree"], q["block"])

    def check(res):
        return _residual_check(res, ref, bound)

    return Case(
        q["cls"],
        lambda: bc.hurst_eigencheck(q["s"], q["exponent"], params, q["degree"], q["block"]),
        check,
    )


# --- search workload ----------------------------------------------------------


def _search(q) -> Case:
    t = bc.composition_matrix(build_map(q["symbol"]), bc.SpaceParams(q["beta"]), q["dim"] - 1)
    is_rotation = q["symbol"][0] == "rot"

    def check(res):
        u = res.conjugation.u
        n = u.shape[0]
        inv = max(np.linalg.norm(u @ u.conj().T - np.eye(n)), np.linalg.norm(u - u.T))
        if not inv < A11_INVARIANT:
            return f"conjugation invariants off by {inv:.3e}"
        if not np.all(np.diff(res.best_trace) <= A11_TRACE_SLACK):
            return "best trace increases"
        if len(res.residuals) > q["iters"]:
            return f"{len(res.residuals)} iterations over a budget of {q['iters']}"
        if is_rotation and not np.min(res.residuals[:5]) < A11_INVARIANT:
            return "rotation not solved within 5 iterations"
        return ""

    return Case(q["cls"], lambda: bc.conjugation_search(t, iters=q["iters"], seed=q["seed"]), check)


# --- cli workload -------------------------------------------------------------


def _cli_gate(cmd: str, doc: dict) -> str:
    if cmd == "classify":
        return _fail(doc["kind"] in MAP_KINDS, f"unknown kind {doc['kind']!r}")
    if cmd == "series":
        return _fail(len(doc["coefficients"]) == doc["degree"] + 1, "coefficient count")
    if cmd == "matrix":
        return _fail(len(doc["entries"]) == doc["dim"] ** 2, "entry count")
    if cmd == "kernel-check":
        return _fail(doc["max_error"] < A01_PAIRING, f"max_error {doc['max_error']:.3e}")
    if cmd == "hurst-check":
        return _fail(doc["residual"] < A06_RESIDUAL, f"residual {doc['residual']:.3e}")
    if cmd == "gram":
        ok = doc["max_out_of_band"] == 0.0 and doc["max_in_band"] > 0.0
        return _fail(ok, f"band {doc['max_out_of_band']!r} / {doc['max_in_band']!r}")
    if cmd == "subspace":
        return _fail(doc["guaranteed"] and doc["max_cross"] < A04_CROSS, f"cross {doc['max_cross']:.3e}")
    if cmd == "witness":
        return _fail(doc["difference"] < A05_GAP, f"difference {doc['difference']:.3e}")
    if cmd == "csym":
        trace = np.array(doc["best_trace"])
        ok = np.all(np.diff(trace) <= A11_TRACE_SLACK) and math.isfinite(doc["final_residual"])
        return _fail(bool(ok), "best trace increases")
    if cmd == "iterate":
        radii = np.abs(np.array([complex(*z) for z in doc["iterates"]]))
        return _fail(bool(np.all(radii <= 1.0 + 1e-6)), "orbit left the disk")
    if cmd == "eigencheck":
        bound = A07_EXACT if float(doc["exponent"]).is_integer() else A07_APPROX
        return _fail(doc["residual"] < bound, f"residual {doc['residual']:.3e}")
    return f"no gate for {cmd}"


def _cli(q) -> Case:
    from bergman_csym import cli

    argv = list(q["argv"])

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(res):
        code, out, err = res
        if not q["valid"]:
            return _fail(code != 0 and out == "", f"invalid input gave exit {code}, {len(out)} bytes")
        if code != 0:
            return f"exit {code}: {err.strip()[:120]}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "payload is not JSON"
        if "schema" not in doc:
            return "payload has no schema key"
        return _cli_gate(argv[0], doc)

    return Case(q["cls"], call, check)


_PREPARE = {
    "composition_matrix": _composition_matrix,
    "verify_hurst": _verify_hurst,
    "gram_truncated": _gram_truncated,
    "adjoint_monomial": _adjoint_monomial,
    "gram_exact": _gram_exact,
    "subspace_orthogonality": _subspace,
    "obstruction_witness": _witness,
    "kernel_identity": _kernel_identity,
    "hurst_eigencheck": _eigencheck,
    "conjugation_search": _search,
    "cli": _cli,
}


def prepare(request: dict) -> Case:
    return _PREPARE[request["op"]](request)


def _feed(h, x) -> None:
    if isinstance(x, np.ndarray):
        h.update(x.tobytes())
    elif isinstance(x, (list, tuple)):
        for y in x:
            _feed(h, y)
    elif x is None or isinstance(x, (bool, int, float, complex, str, np.generic)):
        h.update(repr(x).encode())
    else:
        slots = getattr(type(x), "__slots__", ())
        fields = sorted(vars(x)) if hasattr(x, "__dict__") else list(slots)
        for name in fields:
            _feed(h, getattr(x, name))


def digest(out) -> bytes:
    """Fingerprint of every byte of an output, for bit-identity checks."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, out)
    return h.digest()
