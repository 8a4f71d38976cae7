#!/usr/bin/env python3
"""perimere benchmark: one workload, one seed, one single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 25 --trace 0

Set-up generates the workload's inputs from the seed and writes them as
JSON, SETUP_REPS times and again after every timed pass.  A first pass
runs every operation once and checks its output; then whole passes over
the five operations repeat for `--seconds`.  Every timed call and set-up
follows one timed run of a fixed reference workload (hostspeed.py) and is
reported at the reference host speed, which removes most of a shared
host's drift.  With `--trace 0` the passes run untraced, an untimed
tracemalloc pass gives the memory peak, and the end-to-end metrics are
printed.  With `--trace 1` untraced and traced passes alternate, the spans
are written to .perfbench/trace-<workload>-seed<seed>.csv, and the
per-layer metrics and the tracing overhead are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import hostspeed   # this directory's own module; imports no perimere code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PINS = HERE / "pins.json"

WORKLOADS = ("grid", "molecular", "supercell")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 5   # set-ups before the first pass; one more follows each timed pass
MIN_PASSES = 3
OP_SLICE = 0.1   # seconds each operation repeats for in one timed pass
PIN_SEED = 0     # CLI output digests are pinned for this seed
MIB = float(2 ** 20)

OP_METRICS = {"barcode": "barcode_s", "tree": "tree_s", "unroll": "unroll_s",
              "splinters": "splinters_s", "distance": "distance_s"}


def _high_percentile(samples):
    """(p, value) for the highest percentile with >= 10 samples beyond it,
    or None when that percentile is not above the median."""
    p = math.floor(100 * (1 - 10 / len(samples)))
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class Bench:
    def __init__(self, workload, seed, work, ops, inputs):
        self.workload, self.seed, self.work = workload, seed, work
        self.ops, self.inputs = ops, inputs
        self.attempted = 0
        self.failed = 0
        self.files = None
        self.out = {op: str(work / f"out-{op}") for op in ops.OPS}
        self.ref = {}
        self.setup_times = []   # (set-up seconds, reference seconds just before)

    def fail(self, op, why):
        self.failed += 1
        print(f"FAIL {self.workload} seed={self.seed} {op}: {why}", file=sys.stderr)

    def setup(self, directory):
        """Generate and write the inputs into `directory`, timed into setup_times."""
        ref = reference()
        gc.collect()
        t0 = time.perf_counter()
        files = self.inputs.setup(self.workload, self.seed, str(directory))
        self.setup_times.append((time.perf_counter() - t0, ref))
        return files

    def call(self, op):
        """Run one operation; returns its wall seconds, or None when it raised."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            self.ops.run(op, self.files, self.out[op])
        except Exception as exc:   # one bad operation must not end the run
            dt = None
            self.fail(op, "".join(traceback.format_exception_only(exc)).strip())
        else:
            dt = time.perf_counter() - t0
        if dt is not None and op in self.ref and self.ops.digest(op, self.out[op]) != self.ref[op]:
            self.fail(op, "output differs from the checked first-pass output")
        return dt

    def first_pass(self, pins):
        """Run each operation once and check its output; sets the reference digests."""
        for op in self.ops.OPS:
            if self.call(op) is None:
                continue
            try:
                self.ops.check(op, self.files, self.out[op])
            except self.ops.CheckFailed as exc:
                self.fail(op, exc)
                self.ref[op] = "check failed"   # later passes of this operation fail too
                continue
            self.ref[op] = self.ops.digest(op, self.out[op])
            if pins is not None and pins.get(op) != self.ref[op]:
                self.fail(op, "output digest differs from the pinned digest")

    def passes(self, seconds):
        """Time whole passes over the operations for about `seconds`.

        Passes interleave the operations finely, so each one sees the same
        mix of machine conditions.  Within a pass an operation repeats until
        it has run for OP_SLICE seconds, so short operations, whose single
        samples are the noisiest, get more samples.  Every call is timed
        together with the host-speed reference run just before it; the
        samples are (operation seconds, reference seconds) pairs.
        """
        times = {op: [] for op in self.ops.OPS}
        deadline = time.perf_counter() + seconds
        last = passes = 0
        while passes < MIN_PASSES or time.perf_counter() + last < deadline:
            t0 = time.perf_counter()
            for op in self.ops.OPS:
                end = time.perf_counter() + OP_SLICE
                while True:
                    ref = reference()
                    dt = self.call(op)
                    if dt is not None:
                        times[op].append((dt, ref))
                    if time.perf_counter() >= end:
                        break
            last = time.perf_counter() - t0
            passes += 1
            # set-up samples taken between passes see the same machine
            # conditions as the operations
            self.setup(self.work / "setup")
        return times

    def peak_mib(self):
        """Largest tracemalloc peak over the operations, above the pre-op level."""
        peaks = []
        tracemalloc.start()
        try:
            for op in self.ops.OPS:
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                if self.call(op) is not None:
                    peaks.append((tracemalloc.get_traced_memory()[1] - base) / MIB)
        finally:
            tracemalloc.stop()
        return max(peaks, default=0.0)

    def retained_mib(self):
        """tracemalloc size kept by the parsed main graph, then by its tree."""
        import perimere as pm
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = pm.parse(self.files["main"])
            parsed = tracemalloc.get_traced_memory()[0]
            tree = pm.build(g)
            built = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del g, tree
        return (parsed - base) / MIB, (built - parsed) / MIB


def reference():
    """Wall seconds of one call of the host-speed reference workload."""
    gc.collect()
    t0 = time.perf_counter()
    hostspeed.reference()
    return time.perf_counter() - t0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _at_reference_speed(pairs):
    """Each sample in seconds at the reference host speed: its wall time
    times REF_S over the wall time of the reference run just before it."""
    return [dt * hostspeed.REF_S / ref for dt, ref in pairs]


def end_to_end(bench, seconds):
    times = bench.passes(seconds)
    peak = bench.peak_mib()
    refs = [ref for pairs in [bench.setup_times, *times.values()] for _, ref in pairs]
    setup = statistics.median(_at_reference_speed(bench.setup_times))
    metrics = {"setup_s": _metric(setup, "s")}
    lines = [f"times at the reference host speed ({hostspeed.REF_S} s per reference run; "
             f"this run's reference median {statistics.median(refs):.5f} s of n={len(refs)}); "
             f"wall-time medians in brackets",
             f"setup_s      {setup:.4f} s  median of {len(bench.setup_times)} set-ups "
             f"[{statistics.median(dt for dt, _ in bench.setup_times):.4f} s]"]
    for op, name in OP_METRICS.items():
        if not times[op]:
            continue
        samples = _at_reference_speed(times[op])
        med = statistics.median(samples)
        metrics[name] = _metric(med, "s")
        hp = _high_percentile(samples)
        tail = (f"p{hp[0]} {hp[1]:.4f} s" if hp else
                "no percentile above the median has 10 samples beyond it")
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        lines.append(f"{name:<12} {med:.4f} s  median of n={len(samples)} "
                     f"[{statistics.median(dt for dt, _ in times[op]):.4f} s]; {tail}; "
                     f"min {min(samples):.4f} q1 {q1:.4f} q3 {q3:.4f}")
    metrics["peak_mib"] = _metric(peak, "MiB")
    lines.append(f"peak_mib     {peak:.2f} MiB  largest tracemalloc peak over the operations")
    return metrics, lines


def traced(bench, seconds, trace_path):
    from spans import Tracer
    tracer = Tracer()
    walls = {False: [], True: []}
    cycles = []

    def one_pass(on):
        if on:
            tracer.install()
        lo = len(tracer)
        t0 = time.perf_counter()
        try:
            for op in bench.ops.OPS:
                if on:
                    with tracer.span(f"op.{op}"):
                        bench.call(op)
                else:
                    bench.call(op)
        finally:
            wall = time.perf_counter() - t0
            if on:
                tracer.uninstall()
        walls[on].append(wall)
        if on:
            cycles.append(tracer.summarize(lo, len(tracer)))

    deadline = time.perf_counter() + seconds
    while len(cycles) < MIN_PASSES or \
            time.perf_counter() + walls[False][-1] + walls[True][-1] < deadline:
        one_pass(False)
        one_pass(True)
    tracer.write(str(trace_path))
    graph_mib, tree_mib = bench.retained_mib()

    per = {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
    untraced, with_trace = statistics.median(walls[False]), statistics.median(walls[True])
    per["trace.overhead_s"] = with_trace - untraced
    per["trace.overhead_ratio"] = (with_trace - untraced) / untraced
    per["pgraph.graph_mib"] = graph_mib
    per["mergetree.tree_mib"] = tree_mib

    def unit(name):
        if name.endswith("_s") or "_s." in name:
            return "s"
        if name.endswith("_mib"):
            return "MiB"
        if name.endswith("_ratio"):
            return "ratio"
        return "count"

    metrics = {k: _metric(v, unit(k)) for k, v in sorted(per.items())}
    lines = [f"traced passes {len(cycles)}, untraced passes {len(walls[False])}; "
             f"pass wall {untraced:.4f} s untraced, {with_trace:.4f} s traced, "
             f"overhead {per['trace.overhead_s']:.4f} s ({100 * per['trace.overhead_ratio']:.1f}%)",
             "layer self time per pass (median):"]
    lines += [f"  {layer:<10} {per[layer + '.self_s']:.4f} s"
              for layer in ("cli", "pgraph", "mergetree", "lattice", "barcode", "transport")]
    lines += [f"{k:<28} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"spans written to {trace_path}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "perimere" / "__init__.py").is_file():
        print(f"error: {SRC} holds no perimere package; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import perimere
    if Path(perimere.__file__).resolve().parent != (SRC / "perimere").resolve():
        print(f"error: imported perimere from {perimere.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import inputs
    import ops

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    pins = json.loads(PINS.read_text()).get(args.workload) if args.seed == PIN_SEED else None
    try:
        bench = Bench(args.workload, args.seed, work, ops, inputs)
        (work / "inputs").mkdir()
        (work / "setup").mkdir()
        for _ in range(SETUP_REPS):
            bench.files = bench.setup(work / "inputs")
        bench.first_pass(pins)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv"
            metrics, lines = traced(bench, args.seconds, trace_path)
        else:
            metrics, lines = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    # pins.json is edited by hand from these lines, and only when the inputs change
    for op, d in sorted(bench.ref.items()):
        if d is not None:
            print(f"digest {op:<10} {d}")
    print(f"fail_ratio   {bench.failed / bench.attempted:.6g}  "
          f"({bench.failed} failed of {bench.attempted} operations attempted)")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
