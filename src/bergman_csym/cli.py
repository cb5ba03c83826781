"""Command-line front end for the composition-operator toolkit.

Conventions shared by every subcommand:

* Complex arguments are written ``re,im`` (``0.5,0``) or as a bare real
  (``0.5``).  No expression parsing.
* Maps are given by coefficients ``--a --b --c --d`` for (a z + b)/(c z + d),
  or by ``--about``/``--factor`` for the conjugated dilation built from the
  involution at ``--about``.  Mixing the two forms, or ``--factor`` without
  ``--about``, exits 2.
* JSON payloads carry a top-level ``"schema": "bergman-csym/1"`` key, fixed
  field order and floats with 17 significant digits.  Every complex value
  is an ``[re, im]`` pair, and a matrix is the row-major list of its
  entries.  Identical invocations produce byte-identical output.
* CSV layouts: ``matrix`` rows are the real block then the imaginary block,
  ``gram`` rows are ``n,m,re,im`` and ``iterate`` rows are ``n,re,im``.
* With ``--output PATH`` the payload goes to the file and a one-line human
  summary goes to standard output; without it the payload goes to standard
  output and the summary to standard error.  A path that cannot be written,
  the empty one included, exits 2 with nothing on standard output.
* Exit codes: 0 success, 2 usage or validation error, 3 internal numerical
  failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import InvalidInputError, ToolkitError
from .lft import Lft, MapKind, classify, dilation_about, fixed_points, make, to_series
from .space import SpaceParams
from .operators import composition_matrix, kernel_check, verify_hurst
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
    """Build the map from --about/--factor or from --a/--b/--c/--d, never from both."""
    coeffs = [getattr(args, name) for name in "abcd"]
    given = ", ".join(f"--{name}" for name, v in zip("abcd", coeffs) if v is not None)
    if args.about is not None:
        if given:
            raise InvalidInputError(f"--about builds the map, so {given} cannot be given with it")
        factor = args.factor if args.factor is not None else complex(1.0)
        return dilation_about(args.about, factor)
    if args.factor is not None:
        raise InvalidInputError("--factor needs --about")
    if not given:
        raise ToolkitError("no map given: pass --a/--b/--c/--d or --about")
    a, b, c, d = (complex(0.0) if v is None else v for v in coeffs)
    return make(a, b, c, d)


# ---------------------------------------------------------------------------
# deterministic serialization

def _f(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    return format(v, ".17g")


def _json_value(value) -> str:
    # Dict order is emission order; a complex value is [re, im], an array its nested lists.
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _f(value)
    if isinstance(value, complex):
        return f"[{_f(value.real)},{_f(value.imag)}]"
    if isinstance(value, np.ndarray):
        return _json_value(value.tolist())
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


def _csv_rows(table: np.ndarray) -> str:
    return "\n".join(",".join(_f(cell) for cell in row) for row in table.tolist()) + "\n"


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
            {"point": p if np.isfinite(p) else "inf", "location": loc, "multiplier": m}
            for p, loc, m in zip(fps.points, fps.locations, fps.multipliers)
        ]
        dw = denjoy_wolff(phi)
        fields["dw"], fields["dw_route"] = dw.point, dw.route
        re, im = dw.point.real, dw.point.imag
        summary += f" dw={_f(re)}{'+' if im >= 0 else ''}{_f(im)}j route={dw.route}"
    return _json_payload(fields), summary


def _cmd_series(args):
    phi = _symbol_from_args(args)
    f = to_series(phi, args.degree)
    fields = {"degree": args.degree, "coefficients": f.coeffs}
    head = ", ".join(_f(z.real) + ("" if z.imag == 0 else f"{z.imag:+g}j") for z in f.coeffs[:4])
    return _json_payload(fields), f"series degree {args.degree}: {head}, ..."


def _cmd_matrix(args):
    phi = _symbol_from_args(args)
    params = SpaceParams(args.beta)
    op = composition_matrix(phi, params, _degree_from_dim(args.dim))
    if args.format == "csv":
        payload = _csv_rows(np.hstack([op.mat.real, op.mat.imag]))
    else:
        payload = _json_payload({"beta": args.beta, "dim": args.dim, "entries": op.mat.reshape(-1)})
    norm = float(np.linalg.norm(op.mat))
    return payload, f"matrix {args.dim}x{args.dim} frobenius={_f(norm)}"


def _cmd_kernel_check(args):
    params = SpaceParams(args.beta)
    worst = kernel_check(params, _degree_from_dim(args.dim), args.cases, args.seed)
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
        if degree is not None:
            raise InvalidInputError("--dim sets the truncated route, which integer beta does not take")
        table = gram_exact(params, args.alpha, args.n)
    else:
        if degree is None:
            raise ToolkitError("non-integer beta needs --dim for the truncated route")
        table = gram_truncated(params, args.alpha, args.n, degree)
    in_band, out_of_band = table.max_in_band(), table.max_out_of_band()
    if args.format == "csv":
        n, m = np.divmod(np.arange(table.size**2), table.size)
        entries = table.entries.reshape(-1)
        payload = _csv_rows(np.column_stack([n, m, entries.real, entries.imag]))
    else:
        fields = {
            "beta": args.beta,
            "alpha": args.alpha,
            "size": table.size,
            "entries": table.entries.reshape(-1),
            "max_in_band": in_band,
            "max_out_of_band": out_of_band,
        }
        payload = _json_payload(fields)
    summary = f"gram {table.size}x{table.size}: max in-band {_f(in_band)}, max out-of-band {_f(out_of_band)}"
    return payload, summary


def _cmd_subspace(args):
    params = SpaceParams(args.beta)
    report = subspace_orthogonality(params, args.alpha, args.order, args.count)
    fields = {
        "beta": args.beta,
        "alpha": args.alpha,
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
        "alpha": args.alpha,
        "direct": report.direct,
        "truncated": report.truncated,
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
        "best_trace": result.best_trace,
        "residuals": result.residuals,
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
        orbit = report.iterates
        payload = _csv_rows(np.column_stack([np.arange(len(orbit)), orbit.real, orbit.imag]))
    else:
        fields = {
            "start": args.start,
            "steps": len(report.iterates) - 1,
            "converged": report.converged,
            "limit": report.limit,
            "iterates": report.iterates,
        }
        payload = _json_payload(fields)
    if report.converged:
        summary = f"orbit converged to {report.limit:.6g} in {report.steps} steps"
    else:
        summary = f"orbit did not settle in {report.steps} steps"
    return payload, summary


def _cmd_eigencheck(args):
    params = SpaceParams(args.beta)
    degree = _degree_from_dim(args.dim)
    block = degree // 4 if args.block is None else args.block
    residual = hurst_eigencheck(args.s, args.exponent, params, degree, block)
    fields = {
        "beta": args.beta,
        "s": args.s,
        "exponent": args.exponent,
        "dim": args.dim,
        "block": block,
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

    # flags shared between subcommands, each declared once in a parent parser
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write payload to this file")
    symbol = argparse.ArgumentParser(add_help=False)
    for name in "abcd":
        symbol.add_argument(f"--{name}", type=_complex_arg, help=f"coefficient {name}")
    symbol.add_argument("--about", type=_complex_arg,
                        help="build the dilation conjugated by the involution at this point")
    symbol.add_argument("--factor", type=_complex_arg,
                        help="dilation factor used with --about (default 1)")
    beta = argparse.ArgumentParser(add_help=False)
    beta.add_argument("--beta", type=float, required=True)

    subs.add_parser("classify", parents=[output, symbol], help="classify a disk self-map")

    p = subs.add_parser("series", parents=[output, symbol], help="Taylor coefficients of a map")
    p.add_argument("--degree", type=int, default=16)

    p = subs.add_parser("matrix", parents=[output, symbol, beta], help="truncated composition matrix")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv rows are [real block | imag block]")

    p = subs.add_parser("kernel-check", parents=[output, beta], help="reproducing identity on random cases")
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("hurst-check", parents=[output, symbol, beta], help="adjoint factorization residual")
    p.add_argument("--dim", type=int, default=256,
                   help="the residual does not depend on it; it only bounds --block to at most (dim - 1) // 4")
    p.add_argument("--block", type=int, default=8)

    p = subs.add_parser("gram", parents=[output, beta], help="adjoint-image Gram table")
    p.add_argument("--alpha", type=_complex_arg, required=True)
    p.add_argument("--n", type=int, default=12, help="table size")
    p.add_argument("--dim", type=int, default=None,
                   help="truncation dimension (required for non-integer beta, refused for integer beta)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv rows are n,m,re,im")

    p = subs.add_parser("subspace", parents=[output, beta],
                        help="cross-Gram certificate for eigenspace orthogonality")
    p.add_argument("--alpha", type=_complex_arg, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--count", type=int, default=4)

    p = subs.add_parser("witness", parents=[output, beta], help="two-route obstruction value")
    p.add_argument("--alpha", type=_complex_arg, required=True)

    p = subs.add_parser("csym", parents=[output, symbol, beta], help="conjugation search residual trace")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("iterate", parents=[output, symbol], help="orbit of a point under the map")
    p.add_argument("--start", type=_complex_arg, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="csv rows are n,re,im")

    p = subs.add_parser("eigencheck", parents=[output], help="eigen-relation residual for affine symbols")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--block", type=int, default=None)

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
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc.strerror}", file=sys.stderr)
            return 2
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
