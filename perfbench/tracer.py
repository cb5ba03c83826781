"""Per-layer spans recorded from outside the package.

``Tracer.install()`` rebinds every public function of each package module
(the names in its ``__all__``, or for ``cli`` its public functions) to a
wrapper, in every ``bergman_csym`` module namespace that holds it, so
aliases such as ``from .series import mul`` inside ``operators`` are
traced too.  ``TruncatedSeries.__init__`` is wrapped as the span
``series.TruncatedSeries.new``.  ``uninstall()`` restores the originals.

Each wrapper records the span's name, start, end and parent in memory.
Per-name totals are kept on the fly: ``calls``, inclusive ``busy`` time,
``self`` time (busy minus the wrapped child spans) and ``errors`` (calls
that raised).  A few probes add counts at the same boundary, such as the
multiply-accumulate count of ``series.mul`` or per-size call times of
``composition_matrix``.  The wrappers never touch arguments or results.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import sys
import time
from array import array

LAYERS = ("series", "space", "lft", "operators", "csym", "dynamics", "cli")


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.busy = []
        self.self_time = []
        self.errors = []
        # Raw spans, parallel arrays indexed by span id.
        self.span_name = array("l")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self.samples = {}
        self._restore = []
        self._stack = []  # [span id, wrapped child time] of each open span
        self._ids = itertools.count()

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        k = len(self.names)
        for table in (self.calls, self.busy, self.self_time, self.errors):
            table.append(0)
        self.names.append(name)
        stack = self._stack
        ids = self._ids
        calls, busy, self_time, errors = self.calls, self.busy, self.self_time, self.errors
        sname, sparent, sstart, send = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            frame = [sid, 0.0]
            sname.append(k)
            sparent.append(stack[-1][0] if stack else -1)
            sstart.append(0.0)
            send.append(0.0)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[k] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[k] += 1
                busy[k] += dur
                self_time[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                sstart[sid] = t0
                send[sid] = t1
            if probe is not None:
                probe(fn, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def _probes(self):
        def mul(fn, args, kwargs, out, dur):
            if len(args) >= 2:
                f, g = args[0], args[1]
            else:
                f, g = _bound(fn, args, kwargs, "f"), _bound(fn, args, kwargs, "g")
            self._count("series.mul.macs", f.coeffs.size * g.coeffs.size)

        def composition_matrix(fn, args, kwargs, out, dur):
            self._sample(f"operators.composition_matrix.D{_bound(fn, args, kwargs, 'degree')}", dur)

        def gram_exact(fn, args, kwargs, out, dur):
            self._sample(f"csym.gram_exact.s{_bound(fn, args, kwargs, 'size')}", dur)

        def conjugation_search(fn, args, kwargs, out, dur):
            trace = list(out.best_trace)
            self._count("csym.conjugation_search.iters", len(out.residuals))
            self._count(
                "csym.conjugation_search.improving",
                sum(1 for a, b in zip(trace, trace[1:]) if b < a),
            )

        return {
            "series.mul": mul,
            "operators.composition_matrix": composition_matrix,
            "csym.gram_exact": gram_exact,
            "csym.conjugation_search": conjugation_search,
        }

    # -- installation ----------------------------------------------------------

    def install(self):
        probes = self._probes()
        pkg = [m for n, m in list(sys.modules.items()) if n == "bergman_csym" or n.startswith("bergman_csym.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"bergman_csym.{layer}")
            if mod is None:
                continue
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, probes.get(name))
                for m in pkg:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
                            self._restore.append((m, key, fn))
        series = sys.modules["bergman_csym.series"]
        cls = series.TruncatedSeries
        init = cls.__dict__["__init__"]
        cls.__init__ = self._wrap("series.TruncatedSeries.new", init)
        self._restore.append((cls, "__init__", init))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, busy_s, self_s, errors."""
        return {
            name: {
                "calls": self.calls[k],
                "busy_s": self.busy[k],
                "self_s": self.self_time[k],
                "errors": self.errors[k],
            }
            for k, name in enumerate(self.names)
        }

    def write_spans(self, path) -> int:
        """Write the raw spans as tab-separated ``id parent name start end`` lines (gzip)."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )
        return len(self.span_name)
