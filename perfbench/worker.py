"""Benchmark worker: one process, one client, a closed loop over a request list.

Started by ``run.py`` as ``python3 worker.py WORKLOAD SRC_DIR CPUS``, pinned
to one CPU, so BLAS loads with one thread.  It imports the package, runs
one untimed warm-up request of each request kind at its smallest size and
prints ``ready``; ``run.py`` measures set-up time up to that line.  It then
reads one JSON command from standard input:

* ``{"action": "exit"}`` ends a set-up-only start;
* ``{"action": "run", "seed": n, "seconds": s, "trace": 0}`` runs timed
  passes over the seeded request list while one more pass of average
  length still fits in ``s`` seconds (at least one pass);
* the same with ``"trace": 1`` runs one untraced pass, then one traced
  pass, and writes the raw spans to ``spans_path``.

Before each request the worker moves to the fastest CPU of ``CPUS`` (see
``pinning.py``), outside the request's span.  Each request is timed alone;
its oracle check and output digest run after its span.  The weights cache
is cleared before each pass, so every pass does the same work.  The result
is one JSON line on standard output.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter

PROTOCOL = sys.stdout


def _send(obj) -> None:
    PROTOCOL.write(json.dumps(obj) + "\n")
    PROTOCOL.flush()


def _clear_weight_cache() -> None:
    cached = getattr(sys.modules.get("bergman_csym.space"), "_weights_cached", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _weight_cache_misses() -> int:
    cached = getattr(sys.modules.get("bergman_csym.space"), "_weights_cached", None)
    return cached.cache_info().misses if hasattr(cached, "cache_info") else 0


def run_pass(cases_list, digest, before_request) -> dict:
    """Time every request once; returns latencies, failures, and the output fingerprint.

    ``before_request()`` runs before each request's span and returns the CPU it chose.
    """
    _clear_weight_cache()
    clock = time.perf_counter
    lat = []
    failures = []
    cpus = []
    exit3 = 0
    payload_bytes = 0
    h = hashlib.blake2b(digest_size=16)
    for i, case in enumerate(cases_list):
        cpus.append(before_request())
        t0 = clock()
        try:
            out = case.call()
        except Exception as exc:  # an unexpected raise is a failed request
            t1 = clock()
            out = None
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            t1 = clock()
            try:
                reason = case.check(out)
            except Exception as exc:  # a malformed output fails its oracle
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        lat.append(t1 - t0)
        if reason:
            failures.append([i, case.cls, reason[:200]])
        if isinstance(out, tuple):  # a CLI call: (exit code, stdout, stderr)
            if case.cls == "invalid":
                exit3 += out[0] == 3
            else:
                payload_bytes += len(out[1])
        h.update(digest(out))
        out = None  # release the output before the next request runs, so peak RSS does not depend on order
    return {
        "lat": lat,
        "failures": failures,
        "exit3": exit3,
        "payload_bytes": payload_bytes,
        "digest": h.hexdigest(),
        "cpus": cpus,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def environment() -> dict:
    """Versions, BLAS vendor and thread count, CPU count."""
    import ctypes
    import importlib.metadata
    import platform

    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        env["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        env["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        env["blas"] = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    env["blas_threads"] = threads
    return env


def main() -> int:
    workload, src_dir = sys.argv[1], sys.argv[2]
    cpus = [int(c) for c in sys.argv[3].split(",")]
    import bergman_csym

    if workload == "cli":
        import bergman_csym.cli  # noqa: F401  (a shell call pays this import)

    here = os.path.realpath(os.path.dirname(bergman_csym.__file__))
    if os.path.dirname(here) != os.path.realpath(src_dir):
        print(f"worker: imported bergman_csym from {here}, not from {src_dir}", file=sys.stderr)
        return 2

    import cases
    import pinning
    import workloads

    warm_failures = []
    for req in workloads.warmup(workload):
        case = cases.prepare(req)
        reason = case.check(case.call())
        if reason:
            warm_failures.append([req["op"], reason])
    _send({"ready": True, "warmup_failures": warm_failures})

    line = sys.stdin.readline()
    cmd = json.loads(line) if line.strip() else {"action": "exit"}
    if cmd["action"] != "run":
        return 0

    def repin():
        return pinning.pin_fastest(cpus, rounds=1, loops=20_000)

    requests = workloads.generate(workload, cmd["seed"])
    prepared = [cases.prepare(q) for q in requests]
    result = {"classes": [c.cls for c in prepared], "warmup_failures": warm_failures}
    if cmd["trace"]:
        from tracer import Tracer

        plain = run_pass(prepared, cases.digest, repin)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(prepared, cases.digest, repin)
        finally:
            tracer.uninstall()
        misses = _weight_cache_misses()  # run_pass cleared the cache and its statistics
        result["passes"] = [plain, traced]
        result["layers"] = tracer.stats()
        result["counters"] = dict(tracer.counters, **{"space.weights.cache_misses": misses})
        result["samples"] = tracer.samples
        result["spans"] = tracer.write_spans(cmd["spans_path"])
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(prepared, cases.digest, repin))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > cmd["seconds"]:
                break
        result["passes"] = passes
    on_cpu = Counter(cpu for p in result["passes"] for cpu in p.pop("cpus"))
    result["env"] = dict(environment(), requests_per_cpu=dict(sorted(on_cpu.items())))
    _send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
