"""Command-line front end for the composition-operator toolkit.

Conventions shared by every subcommand:

* Complex arguments are written ``re,im`` (``0.5,0``) or as a bare real
  (``0.5``).  No expression parsing.
* Maps are given by coefficients ``--a --b --c --d`` for (a z + b)/(c z + d),
  or, where noted, by ``--about``/``--factor`` for the conjugated dilation
  built from the involution at ``--about``.
* JSON payloads carry a top-level ``"schema": "bergman-csym/1"`` key, fixed
  field order, floats with 17 significant digits, complex values as
  ``[re, im]`` pairs.  Identical invocations produce byte-identical output.
* With ``--output PATH`` the payload goes to the file and a one-line human
  summary goes to standard output; without it the payload goes to standard
  output and the summary to standard error.
* Exit codes: 0 success, 2 usage or validation error, 3 internal numerical
  failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import InvalidInputError, ToolkitError
from .lft import (
    Lft,
    MapKind,
    classify,
    dilation_about,
    fixed_points,
    involution,
    make,
    scaled,
    to_series,
)
from .lft import compose as compose_maps
from .series import TruncatedSeries, compose
from .space import SpaceParams, inner_product, kernel_series
from .operators import composition_matrix, verify_hurst
from .csym import (
    conjugation_search,
    elliptic_certificate,
    gram_exact,
    gram_truncated,
    obstruction_witness,
    subspace_orthogonality,
)
from .dynamics import denjoy_wolff, hurst_eigencheck, iterate

_SCHEMA = "bergman-csym/1"


# ---------------------------------------------------------------------------
# argument parsing helpers

def _complex_arg(text: str) -> complex:
    """A complex number written ``re`` or ``re,im``; argparse reports the message of a failure."""
    try:
        parts = [float(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")
    return complex(*parts)


def _degree_from_dim(dim: int) -> int:
    """The truncation degree ``dim - 1`` behind a ``--dim`` value, which must be at least 1."""
    if dim < 1:
        raise InvalidInputError(f"--dim must be at least 1, got {dim}")
    return dim - 1


def _symbol_from_args(args) -> Lft:
    """Build the map from --about/--factor or from --a/--b/--c/--d."""
    if args.about is not None:
        factor = args.factor if args.factor is not None else complex(1.0)
        return dilation_about(args.about, factor)
    coeffs = [getattr(args, name) for name in "abcd"]
    if all(v is None for v in coeffs):
        raise ToolkitError("no map given: pass --a/--b/--c/--d or --about")
    a, b, c, d = (complex(0.0) if v is None else v for v in coeffs)
    return make(a, b, c, d)


def _add_symbol_flags(sub) -> None:
    sub.add_argument("--a", type=_complex_arg, default=None, help="coefficient a")
    sub.add_argument("--b", type=_complex_arg, default=None, help="coefficient b")
    sub.add_argument("--c", type=_complex_arg, default=None, help="coefficient c")
    sub.add_argument("--d", type=_complex_arg, default=None, help="coefficient d")
    sub.add_argument(
        "--about", type=_complex_arg, default=None,
        help="build the dilation conjugated by the involution at this point",
    )
    sub.add_argument(
        "--factor", type=_complex_arg, default=None,
        help="dilation factor used with --about (default 1)",
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _f(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    return format(v, ".17g")


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _json_value(value) -> str:
    # Dict order is emission order.
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _f(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, dict):
        inner = ",".join(f'"{k}":{_json_value(v)}' for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_payload(fields: dict) -> str:
    doc = {"schema": _SCHEMA}
    doc.update(fields)
    return _json_value(doc) + "\n"


def _csv_rows(rows) -> str:
    return "\n".join(",".join(_f(cell) for cell in row) for row in rows) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload text, summary line)

def _cmd_classify(args):
    phi = _symbol_from_args(args)
    report = classify(phi)
    fields = {
        "kind": report.kind.value,
        "is_automorphism": report.is_automorphism,
        "fixed_points": [],
        "dw": None,
        "dw_route": None,
    }
    summary = f"kind={report.kind.value}"
    if report.kind is not MapKind.IDENTITY:
        fps = fixed_points(phi)
        fields["fixed_points"] = [
            {"point": _c(p) if np.isfinite(p) else "inf", "location": loc, "multiplier": _c(m)}
            for p, loc, m in zip(fps.points, fps.locations, fps.multipliers)
        ]
        dw = denjoy_wolff(phi)
        fields["dw"], fields["dw_route"] = _c(dw.point), dw.route
        re, im = fields["dw"]
        summary += f" dw={_f(re)}{'+' if im >= 0 else ''}{_f(im)}j route={dw.route}"
    return _json_payload(fields), summary


def _cmd_series(args):
    phi = _symbol_from_args(args)
    f = to_series(phi, args.degree)
    fields = {"degree": args.degree, "coefficients": [_c(z) for z in f.coeffs]}
    head = ", ".join(_f(z.real) + ("" if z.imag == 0 else f"{z.imag:+g}j") for z in f.coeffs[:4])
    return _json_payload(fields), f"series degree {args.degree}: {head}, ..."


def _cmd_matrix(args):
    phi = _symbol_from_args(args)
    params = SpaceParams(args.beta)
    op = composition_matrix(phi, params, _degree_from_dim(args.dim))
    if args.format == "csv":
        rows = [list(r.real) + list(r.imag) for r in op.mat]
        payload = _csv_rows(rows)
    else:
        fields = {
            "beta": args.beta,
            "dim": args.dim,
            "entries": [_c(z) for z in op.mat.reshape(-1)],
        }
        payload = _json_payload(fields)
    norm = float(np.linalg.norm(op.mat))
    return payload, f"matrix {args.dim}x{args.dim} frobenius={_f(norm)}"


def _cmd_kernel_check(args):
    params = SpaceParams(args.beta)
    if args.cases < 1 or args.seed < 0:
        raise InvalidInputError(f"need cases >= 1 and seed >= 0, got cases={args.cases}, seed={args.seed}")
    rng = np.random.default_rng(args.seed)
    degree = _degree_from_dim(args.dim)
    worst = 0.0
    for _ in range(args.cases):
        a, b = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6) for _ in range(2))
        u = np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0.3, 1.0)
        phi = compose_maps(involution(a), scaled(involution(b), u))
        alpha = rng.uniform(0.0, 0.8) * np.exp(2j * np.pi * rng.uniform())
        fdeg = int(rng.integers(0, 11))
        fcoeffs = rng.uniform(-1, 1, fdeg + 1) + 1j * rng.uniform(-1, 1, fdeg + 1)
        f = TruncatedSeries(fcoeffs)
        pushed = compose(f.resized(degree), to_series(phi, degree), degree)
        paired = inner_product(params, pushed, kernel_series(params, alpha, degree))
        direct = f(phi(alpha))
        worst = max(worst, abs(paired - direct))
    fields = {
        "beta": args.beta,
        "dim": args.dim,
        "cases": args.cases,
        "seed": args.seed,
        "max_error": worst,
    }
    return _json_payload(fields), f"kernel check: max error {_f(worst)} over {args.cases} cases"


def _cmd_hurst_check(args):
    phi = _symbol_from_args(args)
    params = SpaceParams(args.beta)
    residual = verify_hurst(phi, params, _degree_from_dim(args.dim), args.block)
    fields = {
        "beta": args.beta,
        "dim": args.dim,
        "block": args.block,
        "residual": residual,
    }
    return _json_payload(fields), f"factorization residual {_f(residual)} on {args.block}x{args.block} block"


def _cmd_gram(args):
    params = SpaceParams(args.beta)
    degree = None if args.dim is None else _degree_from_dim(args.dim)
    if params.integer_beta:
        table = gram_exact(params, args.alpha, args.n)
    else:
        if degree is None:
            raise ToolkitError("non-integer beta needs --dim for the truncated route")
        table = gram_truncated(params, args.alpha, args.n, degree)
    if args.format == "csv":
        rows = [
            (n, m, table.entries[n, m].real, table.entries[n, m].imag)
            for n in range(table.size)
            for m in range(table.size)
        ]
        payload = _csv_rows(rows)
    else:
        fields = {
            "beta": args.beta,
            "alpha": _c(args.alpha),
            "size": table.size,
            "entries": [_c(z) for z in table.entries.reshape(-1)],
            "max_in_band": table.max_in_band(),
            "max_out_of_band": table.max_out_of_band(),
        }
        payload = _json_payload(fields)
    summary = (
        f"gram {table.size}x{table.size}: max in-band {_f(table.max_in_band())}, "
        f"max out-of-band {_f(table.max_out_of_band())}"
    )
    return payload, summary


def _cmd_subspace(args):
    params = SpaceParams(args.beta)
    report = subspace_orthogonality(params, args.alpha, args.order, args.count)
    fields = {
        "beta": args.beta,
        "alpha": _c(args.alpha),
        "order": args.order,
        "count": args.count,
        "threshold": report.threshold,
        "guaranteed": report.guaranteed,
        "max_cross": report.max_cross,
    }
    tag = "guaranteed" if report.guaranteed else "no guarantee (order below threshold)"
    return _json_payload(fields), f"max cross inner product {_f(report.max_cross)} [{tag}]"


def _cmd_witness(args):
    report = obstruction_witness(args.alpha, args.beta)
    fields = {
        "beta": args.beta,
        "alpha": _c(args.alpha),
        "direct": _c(report.direct),
        "truncated": _c(report.truncated),
        "difference": report.difference,
    }
    return (
        _json_payload(fields),
        f"witness |alpha|^(3+beta) = {_f(abs(report.direct))}, routes differ by {_f(report.difference)}",
    )


def _cmd_csym(args):
    phi = _symbol_from_args(args)
    params = SpaceParams(args.beta)
    op = composition_matrix(phi, params, _degree_from_dim(args.dim))
    result = conjugation_search(op, iters=args.iters, seed=args.seed)
    fields = {
        "beta": args.beta,
        "dim": args.dim,
        "iters": args.iters,
        "seed": args.seed,
        "best_trace": list(result.best_trace),
        "residuals": list(result.residuals),
        "final_residual": result.best_trace[-1],
    }
    sub = elliptic_certificate(phi, params)
    fields["subspace_certificate"] = None if sub is None else {
        "order": sub.order,
        "max_cross": sub.max_cross,
        "guaranteed": sub.guaranteed,
    }
    summary = f"search residual {_f(result.best_trace[-1])} after {len(result.residuals)} iterations"
    if sub is not None:
        summary += f"; subspace certificate max cross {_f(sub.max_cross)}"
    return _json_payload(fields), summary


def _cmd_iterate(args):
    phi = _symbol_from_args(args)
    report = iterate(phi, args.start, args.steps)
    if args.format == "csv":
        rows = [(n, z.real, z.imag) for n, z in enumerate(report.iterates)]
        payload = _csv_rows(rows)
    else:
        fields = {
            "start": _c(args.start),
            "steps": len(report.iterates) - 1,
            "converged": report.converged,
            "limit": None if report.limit is None else _c(report.limit),
            "iterates": [_c(z) for z in report.iterates],
        }
        payload = _json_payload(fields)
    if report.converged:
        summary = f"orbit converged to {report.limit:.6g} in {report.steps} steps"
    else:
        summary = f"orbit did not settle in {report.steps} steps"
    return payload, summary


def _cmd_eigencheck(args):
    params = SpaceParams(args.beta)
    residual = hurst_eigencheck(args.s, args.exponent, params, _degree_from_dim(args.dim), args.block)
    fields = {
        "beta": args.beta,
        "s": _c(args.s),
        "exponent": args.exponent,
        "dim": args.dim,
        "block": args.block if args.block is not None else (args.dim - 1) // 4,
        "residual": residual,
    }
    return _json_payload(fields), f"eigen-relation residual {_f(residual)}"


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergman-csym",
        description="Numerical toolkit for composition operators on weighted Bergman spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--output", default=None, help="write payload to this file")

    p = subs.add_parser("classify", help="classify a disk self-map")
    _add_symbol_flags(p)
    common(p)

    p = subs.add_parser("series", help="Taylor coefficients of a map")
    _add_symbol_flags(p)
    p.add_argument("--degree", type=int, default=16)
    common(p)

    p = subs.add_parser("matrix", help="truncated composition matrix")
    _add_symbol_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv rows are [real block | imag block]")
    common(p)

    p = subs.add_parser("kernel-check", help="reproducing identity on random cases")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = subs.add_parser("hurst-check", help="adjoint factorization residual")
    _add_symbol_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--block", type=int, default=8)
    common(p)

    p = subs.add_parser("gram", help="adjoint-image Gram table")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=_complex_arg, required=True)
    p.add_argument("--n", type=int, default=12, help="table size")
    p.add_argument("--dim", type=int, default=None,
                   help="truncation dimension (required for non-integer beta)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv rows are n,m,re,im")
    common(p)

    p = subs.add_parser("subspace", help="cross-Gram certificate for eigenspace orthogonality")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=_complex_arg, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--count", type=int, default=4)
    common(p)

    p = subs.add_parser("witness", help="two-route obstruction value")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=_complex_arg, required=True)
    common(p)

    p = subs.add_parser("csym", help="conjugation search residual trace")
    _add_symbol_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = subs.add_parser("iterate", help="orbit of a point under the map")
    _add_symbol_flags(p)
    p.add_argument("--start", type=_complex_arg, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="csv rows are n,re,im")
    common(p)

    p = subs.add_parser("eigencheck", help="eigen-relation residual for affine symbols")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--block", type=int, default=None)
    common(p)

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "series": _cmd_series,
    "matrix": _cmd_matrix,
    "kernel-check": _cmd_kernel_check,
    "hurst-check": _cmd_hurst_check,
    "gram": _cmd_gram,
    "subspace": _cmd_subspace,
    "witness": _cmd_witness,
    "csym": _cmd_csym,
    "iterate": _cmd_iterate,
    "eigencheck": _cmd_eigencheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        payload, summary = _HANDLERS[args.command](args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(payload)
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
