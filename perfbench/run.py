"""Benchmark of the bergman_csym package: one command per workload and seed.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it measures set-up time over several fresh
worker starts, then runs timed passes over the seeded request list in the
last worker and reports the end-to-end metrics.  With ``--trace 1`` it runs
one untraced and one traced pass in one worker, checks that their outputs
are bit-identical, and reports the per-layer metrics, including
``python -X importtime`` figures.  Every request is checked by an oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A full record (environment, per-class latencies,
import-time breakdown, failures) goes to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pinning
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 5
IMPORTTIME_RUNS = 3
TIME_LIMIT_S = 170.0

# The metric names and units are those of BENCHMARK.json at the checkout root.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_spec() -> tuple:
    """``(end_to_end, per_layer)``: lists of ``(name, unit)`` from BENCHMARK.json."""
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        return tuple(
            [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metric list from {SPEC}: {exc}") from None


# --- worker processes ---------------------------------------------------------


class Worker:
    """A worker process with a line reader that honours the run's deadline."""

    def __init__(self, workload: str, cpus, env: dict, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(SRC), ",".join(map(str, cpus))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
            text=True,
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self) -> dict:
        try:
            line = self._lines.get(timeout=max(0.1, self.deadline - time.monotonic()))
        except queue.Empty:
            raise BenchError("worker did not answer before the time limit") from None
        if line is None:
            raise BenchError(f"worker exited with code {self.proc.wait()} before answering")
        return json.loads(line)

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Close stdin (the worker exits on end of input), wait, and kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:  # the worker already exited and the pipe is broken
            pass
        try:
            self.proc.wait(timeout=max(0.1, min(10.0, self.deadline - time.monotonic())))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()


def start_worker(workload, cpus, env, deadline):
    """Spawn a fresh worker on the fastest CPU; returns it with its set-up time (spawn to ready)."""
    pinning.pin_fastest(cpus)  # the worker inherits this process's CPU
    t0 = time.perf_counter()
    worker = Worker(workload, cpus, env, deadline)
    try:
        ready = worker.read()
    except BaseException:
        worker.close()
        raise
    return worker, time.perf_counter() - t0, ready["warmup_failures"]


# --- import time --------------------------------------------------------------


def parse_importtime(text: str) -> list:
    """``(depth, name, cumulative_us)`` rows of ``-X importtime`` output, in print order."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((depth, raw.strip(), int(parts[1])))
    return rows


def import_cost(rows, prefix: str) -> float:
    """Seconds spent importing modules named ``prefix`` or ``prefix.*``, outermost entries only.

    Children are printed before their parent, so walking the rows backwards
    visits each parent before its children.
    """
    total = 0
    stack = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        match = name == prefix or name.startswith(prefix + ".")
        if match and not any(m for _, m in stack):
            total += cum
        stack.append((depth, match))
    return total / 1e6


def measure_imports(env, deadline) -> tuple:
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bergman_csym"],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"import bergman_csym failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    figures = {
        key: statistics.median(import_cost(rows, prefix) for rows in runs)
        for key, prefix in (
            ("import.numpy_s", "numpy"),
            ("import.scipy_s", "scipy"),
            ("import.bergman_csym_s", "bergman_csym"),
        )
    }
    top = [{"module": name, "cumulative_us": cum} for depth, name, cum in runs[-1] if depth == 0]
    return figures, top


# --- metrics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' definition)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(setups, passes) -> tuple:
    # Each request's latency is its fastest pass.  Host noise only ever adds
    # time, and on a shared host each CPU drops to about 0.7x speed for
    # seconds at a time, so the fastest of several passes is the steadiest
    # reading of what a request costs.
    lat = [min(xs) for xs in zip(*(p["lat"] for p in passes))]
    p90 = percentile(lat, 0.9)
    metrics = {
        "setup_s": statistics.median(setups),
        "total_s": sum(lat),
        "req_ms_p50": percentile(lat, 0.5) * 1e3,
        "req_ms_p90": p90 * 1e3,
        # The high-water mark after the first pass: later passes raise it
        # by allocator fragmentation alone, by how much depending on how
        # many passes fit in the run.
        "peak_rss_mb": passes[0]["rss_kb"] / 1024.0,
    }
    notes = {
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "passes": len(passes),
        "setup_starts": len(setups),
    }
    return metrics, notes


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def per_layer(result, imports, names) -> dict:
    layers = result["layers"]
    counters = result["counters"]
    samples = result["samples"]
    plain, traced = result["passes"]

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    values = {}
    for module in LAYERS:
        rows = [v for k, v in layers.items() if k.split(".")[0] == module]
        values[f"{module}.self_s"] = sum(r["self_s"] for r in rows)
        values[f"{module}.errors"] = sum(r["errors"] for r in rows)
    for metric in names:
        if metric in values:
            continue
        head, _, key = metric.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            values[metric] = stat(head, key)
    cm = {d: _median_ms(samples.get(f"operators.composition_matrix.D{d}", [])) for d in (256, 512, 1024)}
    for d, ms in cm.items():
        values[f"operators.composition_matrix.ms_D{d}"] = ms
    values["operators.composition_matrix.scaling_exp"] = (
        math.log2(cm[1024] / cm[512]) if cm[512] > 0 and cm[1024] > 0 else 0.0
    )
    values["csym.gram_exact.ms_s256"] = _median_ms(samples.get("csym.gram_exact.s256", []))
    iters = counters.get("csym.conjugation_search.iters", 0)
    values["csym.conjugation_search.iters"] = iters
    values["csym.conjugation_search.ms_per_iter"] = (
        stat("csym.conjugation_search", "busy_s") * 1e3 / iters if iters else 0.0
    )
    values["csym.conjugation_search.improving_frac"] = (
        counters.get("csym.conjugation_search.improving", 0) / iters if iters else 0.0
    )
    values["series.mul.macs"] = counters.get("series.mul.macs", 0)
    values["series.TruncatedSeries.new"] = stat("series.TruncatedSeries.new", "calls")
    values["series.TruncatedSeries.new_s"] = stat("series.TruncatedSeries.new", "busy_s")
    values["space.weights.cache_misses"] = counters.get("space.weights.cache_misses", 0)
    values["cli.payload_bytes"] = traced["payload_bytes"]
    values["cli.exit3_on_invalid"] = traced["exit3"]
    values.update(imports)
    values["trace.overhead"] = sum(traced["lat"]) / sum(plain["lat"])
    unknown = [m for m in names if m not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json names per-layer metrics the benchmark does not compute: {unknown}")
    return {metric: values[metric] for metric in names}


def class_latencies(classes, passes) -> dict:
    by_class = {}
    for p in passes:
        for cls, x in zip(classes, p["lat"]):
            by_class.setdefault(cls, []).append(x)
    return {
        cls: {"count": len(xs), "median_ms": _median_ms(xs), "max_ms": max(xs) * 1e3}
        for cls, xs in sorted(by_class.items())
    }


# --- one run ------------------------------------------------------------------


def run(args) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT_S
    end_to_end_spec, per_layer_spec = load_spec()
    if not (SRC / "bergman_csym" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}; run from a bergman-csym checkout")
    cpus = sorted(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    OUT.mkdir(exist_ok=True)
    problems = [f"generator: {p}" for p in workloads.self_check(args.workload, args.seed)]
    cmd = {"action": "run", "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        cmd["spans_path"] = str(OUT / f"{stem}.spans.tsv.gz")
    starts = SETUP_STARTS if not args.trace else 1
    setups = []
    worker = None
    try:
        for i in range(starts):
            worker, setup, warm = start_worker(args.workload, cpus, env, deadline)
            setups.append(setup)
            problems += [f"warm-up {op}: {reason}" for op, reason in warm]
            if i < starts - 1:
                worker.send({"action": "exit"})
                worker.close()
        worker.send(cmd)
        result = worker.read()
    finally:
        if worker is not None:
            worker.close()

    passes = result["passes"]
    attempted = sum(len(p["lat"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if len({p["digest"] for p in passes}) != 1:
        label = "traced pass differs from the untraced pass" if args.trace else "passes differ"
        problems.append(f"outputs not bit-identical: {label}")
    # In a traced run only the untraced pass counts toward the end-to-end figures.
    timed = passes[:1] if args.trace else passes
    e2e, notes = end_to_end(setups, timed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "notes": notes,
        "fail_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "problems": problems,
        "classes": class_latencies(result["classes"], timed),
        "pass_totals_s": [sum(p["lat"]) for p in passes],
        "pass_latencies_s": [p["lat"] for p in passes],
        "end_to_end": e2e,
    }
    if args.trace:
        imports, top = measure_imports(env, deadline)
        record["importtime_top_level"] = top
        record["per_layer"] = per_layer(result, imports, [name for name, _ in per_layer_spec])
        record["spans"] = result["spans"]
        metrics = {name: {"value": record["per_layer"][name], "unit": unit} for name, unit in per_layer_spec}
    else:
        unknown = [name for name, _ in end_to_end_spec if name not in e2e]
        if unknown:
            raise BenchError(f"BENCHMARK.json names end-to-end metrics the benchmark does not compute: {unknown}")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end_spec}
    record["attempted"] = attempted
    record["failed"] = failed
    record["correct"] = failed == 0 and not problems
    with open(OUT / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, metrics


def report(record, metrics) -> None:
    env, notes = record["env"], record["notes"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {notes['passes']}  requests {record['attempted']}  set-up starts {notes['setup_starts']}"
    )
    print(
        f"env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}  "
        f"blas_threads {env['blas_threads']}  cpu_count {env['cpu_count']}"
    )
    for name, m in metrics.items():
        extra = ""
        if name == "req_ms_p90":
            extra = f"  ({notes['beyond_p90']} of {notes['samples']} samples beyond)"
        elif name == "req_ms_p50":
            extra = f"  ({notes['samples']} samples)"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':44s} {record['fail_frac']:.6g} ratio  ({record['failed']} of {record['attempted']})")
    for f in record["failures"][:5]:
        print(f"  failed request {f[0]} [{f[1]}]: {f[2]}")
    for p in record["problems"]:
        print(f"  check failed: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record, metrics = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(record, metrics)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
