"""Seeded request lists for the four benchmark workloads.

Standard library only: ``run.py`` imports this module to run the
generator self-checks without loading numpy or the package.  A request is a
plain dict with a ``cls`` key (its request class) and the generated inputs;
``cases.py`` turns it into a call into ``bergman_csym`` plus an oracle.

Every class has a fixed count, so each latency percentile falls in the same
class on every seed.  Maps are described by their construction recipe, not
by package objects, so the worker builds them and the oracles can evaluate
them independently:

* ``("kc", a, b, u)`` is ``involution(a) o (u * involution(b))``, the family
  the ``kernel-check`` subcommand draws from;
* ``("inv", a)`` is ``involution(a)``;
* ``("dil", alpha, lam)`` is ``dilation_about(alpha, lam)``;
* ``("rot", lam)`` is ``rotation(lam)``;
* ``("contr", a, u)`` is ``scaled(involution(a), u)`` with ``|u| < 1``.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter

WORKLOADS = ("operators", "adjoint", "search", "cli")

# Weight exponents: every matrix-route request cycles through these.
BETAS_ANY = (-1.0, 0.0, 1.0, 2.5)
BETAS_NONINT = (-0.5, 0.5, 1.5, 2.5)


def _disk(r: random.Random, lo: float, hi: float) -> complex:
    return r.uniform(lo, hi) * cmath.exp(2j * math.pi * r.random())


def _kc_map(r: random.Random):
    """Same ranges as ``kernel-check``: a, b in the square [-0.6, 0.6]^2, |u| in [0.3, 1]."""
    a = complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6))
    b = complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6))
    u = cmath.exp(2j * math.pi * r.random()) * r.uniform(0.3, 1.0)
    return ("kc", a, b, u)


def kc_coefficients(sym) -> tuple:
    """``(a, b, c, d)`` of ``involution(a) o (u * involution(b))``, by the 2x2 matrix product."""
    _, a, b, u = sym
    m1 = ((-1.0, a), (-a.conjugate(), 1.0))
    m2 = ((-u, u * b), (-b.conjugate(), 1.0))
    return (
        m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
        m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1],
        m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
        m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1],
    )


# Draws per map when a class takes its maps at fixed quantiles of s.
KC_DRAWS_PER_MAP = 100


def kc_decay(sym) -> float:
    """``s = min(|b/d|, |c/d|)`` of a ``kernel-check`` map: small s means fast-decaying powers."""
    _, b, c, d = kc_coefficients(sym)
    return min(abs(b / d), abs(c / d))


def _kc_maps_by_decay(r: random.Random, count: int) -> list:
    """``count`` ``kernel-check`` maps; the i-th lies at quantile (i + 0.5) / count of s.

    The power loop slows 5-10x when coefficients of the powers sink into
    subnormal range inside the truncation, which happens when s is small.
    Left to chance, the number of such maps in a handful of requests would
    move the run's cost from seed to seed.  So the class draws
    ``KC_DRAWS_PER_MAP`` maps per request from ``_kc_map``, sorts them by s
    and takes the middle map of each consecutive group: every request gets
    its own slice of the generator's distribution of s, and every seed asks
    for the same mix of work in the generator's own proportions.
    """
    pool = sorted((_kc_map(r) for _ in range(count * KC_DRAWS_PER_MAP)), key=kc_decay)
    return [pool[i * KC_DRAWS_PER_MAP + KC_DRAWS_PER_MAP // 2] for i in range(count)]


def _by_decay(count: int):
    """Map source of one class: request i gets the i-th map from the top of ``_kc_maps_by_decay``.

    ``generate`` calls a class's maker for i = 0, 1, ... in turn, so the
    pool is drawn at i = 0 from the class's own point of the seeded stream.
    Request 0, the one ``warmup`` uses, gets the largest s: the cheapest map.
    """
    pool = []

    def symbol(r, i):
        if i == 0:
            pool[:] = _kc_maps_by_decay(r, count)[::-1]
        return pool[i]

    return symbol


def _poly(r: random.Random, max_degree: int = 10) -> list:
    deg = r.randint(0, max_degree)
    return [complex(r.uniform(-1, 1), r.uniform(-1, 1)) for _ in range(deg + 1)]


def _poly_symbol(r: random.Random) -> list:
    """Polynomial self-map: coefficient moduli sum below 0.9, so |p| < 1 on the closed disk."""
    deg = r.randint(2, 6)
    raw = [_disk(r, 0.0, 1.0) for _ in range(deg + 1)]
    scale = r.uniform(0.4, 0.9) / sum(abs(c) for c in raw)
    return [c * scale for c in raw]


def _elliptic(r: random.Random):
    q = r.randint(3, 9)
    k = r.choice([j for j in range(1, q) if math.gcd(j, q) == 1])
    return ("dil", _disk(r, 0.1, 0.5), cmath.exp(2j * math.pi * k / q))


def _contraction(r: random.Random):
    return ("contr", _disk(r, 0.05, 0.6), _disk(r, 0.4, 0.9))


def _rotation(r: random.Random):
    return ("rot", cmath.exp(2j * math.pi * r.random()))


# --- operators ---------------------------------------------------------------


def _cm(degree, count):
    symbol = _by_decay(count)

    def make(r, i):
        return {
            "op": "composition_matrix",
            "symbol": symbol(r, i),
            "beta": BETAS_ANY[i % 4],
            "degree": degree,
            "alpha": _disk(r, 0.0, 0.8),
            "f": _poly(r),
        }

    return make


def _cm_reference(r, i):
    """The single largest request: a fixed symbol, so its cost does not depend on the seed."""
    return {
        "op": "composition_matrix",
        "symbol": ("inv", 0.5 + 0j),
        "beta": 0.0,
        "degree": 1024,
        "alpha": _disk(r, 0.0, 0.8),
        "f": _poly(r),
    }


def _cm_poly(r, i):
    return {
        "op": "composition_matrix",
        "symbol": ("poly", _poly_symbol(r)),
        "beta": BETAS_ANY[i % 4],
        "degree": 256,
        "alpha": _disk(r, 0.0, 0.8),
        "f": _poly(r),
    }


def _hurst(degree, count):
    symbol = _by_decay(count)

    def make(r, i):
        return {
            "op": "verify_hurst",
            "symbol": symbol(r, i),
            "beta": BETAS_ANY[i % 4],
            "degree": degree,
            "block": 8,
        }

    return make


def _gram_trunc(r, i):
    return {
        "op": "gram_truncated",
        "beta": BETAS_NONINT[i % 4],
        "alpha": _disk(r, 0.1, 0.6),
        "size": 8,
        "degree": 128,
    }


# --- adjoint -----------------------------------------------------------------


def _adjoint_monomial(r, i):
    return {
        "op": "adjoint_monomial",
        "beta": float(i % 3),
        "alpha": _disk(r, 0.1, 0.7),
        "n": r.randint(0, 12),
        "degree": 256,
    }


def _gram_exact(size):
    def make(r, i):
        return {"op": "gram_exact", "beta": float(i % 4), "alpha": _disk(r, 0.3, 0.8), "size": size}

    return make


def _subspace(r, i):
    beta = i % 3
    return {
        "op": "subspace_orthogonality",
        "beta": float(beta),
        "alpha": _disk(r, 0.1, 0.8),
        "order": 2 * (3 + beta) + r.randint(0, 4),
        "count": r.randint(3, 4),
    }


def _witness(r, i):
    return {"op": "obstruction_witness", "beta": float(i % 3), "alpha": _disk(r, 0.05, 0.8)}


def _kernel_identity(r, i):
    return {
        "op": "kernel_identity",
        "symbol": _kc_map(r),
        "beta": BETAS_ANY[i % 4],
        "degree": 256,
        "alpha": _disk(r, 0.0, 0.8),
        "f": _poly(r),
    }


def _eigencheck(r, i):
    return {
        "op": "hurst_eigencheck",
        "s": r.uniform(0.3, 0.7),
        "exponent": (1.0, 2.0, 0.7, 1.5, 2.5, 0.5)[i % 6],
        "beta": float(i % 3),
        "degree": 512,
        "block": 64,
    }


# --- search ------------------------------------------------------------------


def _search(kind, dim):
    makers = {"rot": _rotation, "ell": _elliptic, "contr": _contraction}

    def make(r, i):
        return {
            "op": "conjugation_search",
            "symbol": makers[kind](r),
            "beta": float(i % 2),
            "dim": dim,
            "iters": 60,
            "seed": r.randrange(2**31),
        }

    return make


# --- cli ---------------------------------------------------------------------


def _cx(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _symbol_argv(sym) -> list:
    """Flags for a map, always in ``--flag=value`` form so negative values parse."""
    if sym[0] == "dil":
        return [f"--about={_cx(sym[1])}", f"--factor={_cx(sym[2])}"]
    return [f"--{name}={_cx(v)}" for name, v in zip("abcd", kc_coefficients(sym))]


def _cli_symbol(r, i):
    """Alternate elliptic automorphisms and ``kernel-check`` maps, a fixed half each."""
    return _elliptic(r) if i % 2 == 0 else _kc_map(r)


def _cli(command):
    def make(r, i):
        beta = float(i % 3)
        if command == "classify-automorphism":
            argv = ["classify", *_symbol_argv(_elliptic(r))]
        elif command == "classify-contraction":
            argv = ["classify", *_symbol_argv(_kc_map(r))]
        elif command == "series":
            argv = ["series", *_symbol_argv(_cli_symbol(r, i))]
        elif command == "matrix":
            argv = ["matrix", f"--beta={beta!r}", *_symbol_argv(_cli_symbol(r, i))]
        elif command == "kernel-check":
            argv = ["kernel-check", f"--beta={beta!r}", f"--seed={r.randrange(2**31)}"]
        elif command == "hurst-check":
            argv = ["hurst-check", f"--beta={beta!r}", *_symbol_argv(_cli_symbol(r, i))]
        elif command == "gram":
            argv = ["gram", f"--beta={beta!r}", f"--alpha={_cx(_disk(r, 0.3, 0.8))}"]
        elif command == "subspace":
            order = 2 * (3 + int(beta)) + r.randint(0, 4)
            argv = ["subspace", f"--beta={beta!r}", f"--alpha={_cx(_disk(r, 0.1, 0.8))}",
                    f"--order={order}"]
        elif command == "witness":
            argv = ["witness", f"--beta={beta!r}", f"--alpha={_cx(_disk(r, 0.05, 0.8))}"]
        elif command == "csym":
            argv = ["csym", f"--beta={beta!r}", *_symbol_argv(_elliptic(r)),
                    f"--seed={r.randrange(2**31)}"]
        elif command == "iterate":
            argv = ["iterate", *_symbol_argv(_cli_symbol(r, i)), f"--start={_cx(_disk(r, 0.0, 0.9))}",
                    "--format=json"]
        elif command == "eigencheck":
            argv = ["eigencheck", f"--s={r.uniform(0.3, 0.7)!r}",
                    f"--exponent={(1.0, 2.0, 0.7, 1.5, 2.5)[i % 5]!r}", f"--beta={beta!r}"]
        else:  # pragma: no cover - table below is closed
            raise KeyError(command)
        return {"op": "cli", "argv": argv, "valid": True}

    return make


def _cli_invalid(r, i):
    """Invalid inputs from the exit-code contract; each must exit nonzero with empty stdout."""
    sym = _symbol_argv(_kc_map(r))
    alpha = f"--alpha={_cx(_disk(r, 0.1, 0.8))}"
    cases = (
        ["matrix", f"--beta={-1.0 - r.uniform(0.5, 3.0)!r}", *sym],
        ["matrix", "--beta=nan", *sym],
        ["gram", "--beta=0", alpha, "--n=0"],
        ["iterate", *sym, f"--start={_cx(_disk(r, 0.0, 0.9))}", f"--steps=-{r.randint(1, 9)}"],
        ["subspace", "--beta=0", alpha, "--order=0"],
        ["matrix", "--beta=0", *sym, "--dim=0"],
        ["series", *sym, f"--degree=-{r.randint(2, 9)}"],
        ["classify", "--a=nan", "--b=0", "--c=0", "--d=1"],
        ["series", "--a=1", "--b=inf", "--c=0", "--d=2"],
        ["witness", f"--beta={r.uniform(0.1, 0.9)!r}", alpha],
    )
    return {"op": "cli", "argv": cases[i % len(cases)], "valid": False}


# --- tables ------------------------------------------------------------------

def _by_decay_class(name, count, factory, degree):
    """Table entry of a class whose maps come from ``_by_decay``, which needs the class count."""
    return name, count, factory(degree, count)


# workload -> ordered (class name, count, maker(rng, index within class))
_CLASSES = {
    "operators": (
        _by_decay_class("cm_D256", 32, _cm, 256),
        _by_decay_class("cm_D512", 10, _cm, 512),
        ("cm_D1024", 1, _cm_reference),
        ("cm_poly_D256", 8, _cm_poly),
        _by_decay_class("hurst_D256", 16, _hurst, 256),
        _by_decay_class("hurst_D512", 12, _hurst, 512),
        ("gram_truncated", 24, _gram_trunc),
    ),
    "adjoint": (
        ("adjoint_monomial_D256", 40, _adjoint_monomial),
        ("gram_exact_s64", 6, _gram_exact(64)),
        ("gram_exact_s96", 6, _gram_exact(96)),
        ("gram_exact_s256", 20, _gram_exact(256)),
        ("subspace", 8, _subspace),
        ("witness", 8, _witness),
        ("kernel_identity_D256", 12, _kernel_identity),
        ("eigencheck_D512", 8, _eigencheck),
    ),
    "search": (
        ("rot_d12", 14, _search("rot", 12)),
        ("rot_d16", 14, _search("rot", 16)),
        ("rot_d24", 14, _search("rot", 24)),
        ("ell_d12", 20, _search("ell", 12)),
        ("contr_d12", 20, _search("contr", 12)),
        ("ell_d16", 7, _search("ell", 16)),
        ("contr_d16", 7, _search("contr", 16)),
        ("ell_d24", 2, _search("ell", 24)),
        ("contr_d24", 2, _search("contr", 24)),
    ),
    "cli": (
        ("classify-automorphism", 5, _cli("classify-automorphism")),
        ("classify-contraction", 5, _cli("classify-contraction")),
        ("series", 10, _cli("series")),
        ("matrix", 8, _cli("matrix")),
        ("kernel-check", 2, _cli("kernel-check")),
        ("hurst-check", 10, _cli("hurst-check")),
        ("gram", 10, _cli("gram")),
        ("subspace", 8, _cli("subspace")),
        ("witness", 10, _cli("witness")),
        ("csym", 4, _cli("csym")),
        ("iterate", 10, _cli("iterate")),
        ("eigencheck", 8, _cli("eigencheck")),
        ("invalid", 10, _cli_invalid),
    ),
}


def class_counts(workload: str) -> dict:
    return {name: count for name, count, _ in _CLASSES[workload]}


def generate(workload: str, seed: int) -> list:
    """The request list of one pass: fixed class counts, seeded inputs, fixed order.

    Each class is spread evenly over the pass, in the same order on every
    seed.  Allocation history then does not depend on the seed, and neither
    does peak memory: with a seeded shuffle, glibc's adaptive mmap
    threshold made peak RSS differ by 16% between seeds.
    """
    r = random.Random(f"{workload}:{seed}")
    keyed = []
    for k, (name, count, make) in enumerate(_CLASSES[workload]):
        for i in range(count):
            req = make(r, i)
            req["cls"] = name
            keyed.append(((i + 0.5) / count, k, req))
    keyed.sort(key=lambda t: t[:2])
    return [req for _, _, req in keyed]


def warmup(workload: str) -> list:
    """One request of each kind at its smallest size, untimed, run before a worker reports ready."""
    r = random.Random(f"{workload}:warmup")
    out = []
    seen = set()
    for name, _, make in _CLASSES[workload]:
        req = make(r, 0)
        if workload == "cli":
            if req["argv"][0] == "kernel-check":
                req["argv"] = req["argv"] + ["--cases=1"]
            kind = (req["argv"][0], req["valid"])
        else:
            kind = req["op"], req.get("symbol", ("",))[0] == "poly"
        if kind in seen:
            continue
        seen.add(kind)
        req["cls"] = "warmup"
        out.append(req)
    return out


def self_check(workload: str, seed: int) -> list:
    """Generator properties every run relies on; returns the list of violated ones."""
    problems = []
    first = generate(workload, seed)
    if first != generate(workload, seed):
        problems.append("same seed gave different request lists")
    other = generate(workload, seed + 1)
    want = class_counts(workload)
    for label, reqs in (("seed", first), ("seed+1", other)):
        if dict(Counter(q["cls"] for q in reqs)) != want:
            problems.append(f"class counts differ from the table at {label}")
    if first == other:
        problems.append("two seeds gave the same inputs")
    present = Counter(q["cls"] for q in first)
    missing = [c for c in want if present[c] < 1]
    if missing:
        problems.append(f"classes with no request: {missing}")
    return problems
