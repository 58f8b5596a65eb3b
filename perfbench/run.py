"""Benchmark command for composite_dna.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The process runs one workload, single-threaded and in-process, and prints
one JSON object as the last line of its standard output:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics.  Whole rounds of operations
run until ``--seconds`` have passed.  Set-up (importing ``composite_dna``
afresh together with every standard-library module it pulls in beyond
interpreter start-up, building specs, inputs and codebook files, and one
warm-up operation) runs ``SETUP_REPEATS`` times, once before the rounds and
the rest spread between them, and its median is reported.  Every reported
time is scaled to a fixed host speed by a reference computation timed
alongside it (see ``measure``).

``--trace 1`` runs a fixed number of rounds, each twice on the same inputs,
first plain and then with the tracing wrappers installed, and reports the
per-layer metrics and the ratio of the two passes' times.

Raw samples and span dumps go to ``perfbench/out/`` (not committed).
"""

from __future__ import annotations

import sys

# modules loaded by interpreter start-up; set-up drops every other module
# (the benchmark's own excepted) so that imports are timed cold each time
BOOT_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PACKAGE = "composite_dna"
SETUP_REPEATS = 7
TAIL_PERCENTILE = 95
TAIL_MIN_BEYOND = 10
# time of one ``reference_work()`` on the 2-core x86-64 Linux VM of the
# README's figures, in a calm spell; reported times are scaled to the host
# speed at which the reference takes this long
REFERENCE_S = 0.003

sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Timer:
    """Times one library call; traces it when a tracer is attached."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def __call__(self, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        return elapsed, result


_REFERENCE_ROW = tuple((i * 7919) % 5 for i in range(600))


def reference_work() -> int:
    """Fixed pure-Python work of the kind the program does: weighted digit
    sums, tuple slicing and hashing of short tuples."""
    total = 0
    for shift in range(30):
        row = _REFERENCE_ROW[shift:] + _REFERENCE_ROW[:shift]
        total += sum((i + 1) * x for i, x in enumerate(row)) % 1201
        total += len({row[i : i + 4] for i in range(0, len(row) - 4, 3)})
    return total


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Tally:
    """Samples of the operations run so far, and how many failed."""

    def __init__(self):
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, op, timer):
        self.attempted += 1
        try:
            sample = op(timer)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        if not sample.ok:
            self.failed += 1
            self.wrong += 1
        self.samples.append(sample)

    def busy_s(self) -> float:
        return sum(s.busy_s for s in self.samples)


def _keep_loaded(name: str, module) -> bool:
    """Modules that set-up leaves in place: those of interpreter start-up,
    the import machinery and the codec cache, and the benchmark's own."""
    if name in BOOT_MODULES or name.split(".")[0] in ("importlib", "encodings"):
        return True
    return (getattr(module, "__file__", None) or "").startswith(HERE + os.sep)


def fresh_import():
    """Import the package from src/ as if for the first time, together with
    the standard-library modules it needs beyond interpreter start-up."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, PACKAGE)):
        raise SystemExit(f"{PACKAGE} sources not found under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name, module in list(sys.modules.items()):
        if not _keep_loaded(name, module):
            del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return package


def set_up(workload_cls, seed: int, workdir: str):
    start = time.perf_counter()
    cd = fresh_import()
    workload = workload_cls(cd, seed, workdir)
    if not workload.round(-1)[0](Timer()).ok:
        raise RuntimeError("the warm-up operation returned a wrong result")
    return time.perf_counter() - start, cd, workload


def tail(values: list[float]) -> float:
    """p95, or the highest percentile with ten samples beyond it if fewer
    than 200 samples were taken."""
    ordered = sorted(values)
    pct = TAIL_PERCENTILE
    while pct > 50 and len(ordered) * (100 - pct) < 100 * TAIL_MIN_BEYOND:
        pct -= 1
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def measure(workload_cls, seed: int, seconds: float, workdir: str):
    """Timed phase of whole rounds; the set-up repeats are spread over it,
    so their median samples the machine at several moments of the run.

    The host's speed drifts by tens of percent over seconds to minutes, so
    each timing is scaled to a fixed host speed: ``reference_work()`` is
    timed before every operation, and a round's times are multiplied by
    ``REFERENCE_S`` over the median reference time of that round.  A
    set-up is scaled by the reference timed three times before and three
    times after it."""

    def scaled_set_up(n):
        gc.collect()  # frees the modules of the previous set-up first
        refs = [reference_s() for _ in range(3)]
        elapsed, cd, workload = set_up(workload_cls, seed, os.path.join(workdir, str(n)))
        refs += [reference_s() for _ in range(3)]
        return elapsed, REFERENCE_S / statistics.median(refs), workload

    elapsed, scale, workload = scaled_set_up(0)
    setups = [(elapsed, scale)]
    tally, timer = Tally(), Timer()
    raw_op_ms, round_scales = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        first, refs = len(tally.samples), []
        for op in workload.round(index):
            refs.append(reference_s())
            tally.run(op, timer)
        scale = REFERENCE_S / statistics.median(refs)
        round_scales.append(scale)
        for sample in tally.samples[first:]:
            raw_op_ms.append(sample.op_s * 1e3)
            sample.op_s *= scale
            sample.busy_s *= scale
        index += 1
        due = len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setups.append(scaled_set_up(len(setups))[:2])
    while len(setups) < SETUP_REPEATS:
        setups.append(scaled_set_up(len(setups))[:2])
    op_ms = [s.op_s * 1e3 for s in tally.samples]
    items = sum(s.items for s in tally.samples)
    metrics = {
        "setup_s": (statistics.median(e * k for e, k in setups), "s"),
        "cases_per_s": (items / tally.busy_s(), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (tail(op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "rounds": index,
        "setup_s": [e for e, _ in setups],
        "setup_scale": [k for _, k in setups],
        "op_ms": raw_op_ms,
        "round_scale": round_scales,
    }
    return tally, metrics, raw


def trace(workload_cls, seed: int, workdir: str):
    """Each round runs plain, then traced on the same inputs; alternating
    keeps drift in machine speed out of the overhead ratio."""
    _, cd, workload = set_up(workload_cls, seed, workdir)
    plain, traced, tracer = Tally(), Tally(), Tracer()
    for index in range(workload_cls.trace_rounds):
        for op in workload.round(index):
            plain.run(op, Timer())
        tracer.install(cd)
        try:
            for op in workload.round(index):
                traced.run(op, Timer(tracer))
        finally:
            tracer.restore()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced.busy_s() / plain.busy_s(), "ratio")
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.wrong += part.wrong
    return tally, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT, f"codebooks-{tag}-{os.getpid()}")
    try:
        if args.trace:
            tally, metrics, tracer = trace(workload_cls, args.seed, workdir)
            tracer.dump(os.path.join(OUT, f"spans-{tag}.csv"))
        else:
            tally, metrics, raw = measure(workload_cls, args.seed, args.seconds, workdir)
            with open(os.path.join(OUT, f"samples-{tag}.json"), "w", encoding="ascii") as handle:
                json.dump(raw, handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
