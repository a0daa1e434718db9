"""Benchmark for lpvssa: one workload per run, one process, closed loop.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {simulate,realize,equivalence} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child interpreter.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = ("core", "signals", "simulation", "analysis", "reduction", "equivalence", "io", "cli")
SETUP_REPEATS = 9  # fresh interpreters timed per run, after one untimed warm-up
TRACE_ROUNDS = {"simulate": 3, "realize": 2, "equivalence": 4}  # each way

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import lpvssa, lpvssa.cli
from lpvssa.io import parse_system
for name in sys.argv[2:]:
    with open(name) as fh:
        parse_system(fh.read())
"""


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not (SRC / "lpvssa" / "__init__.py").is_file():
        fail(f"no lpvssa sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("lpvssa")
    if Path(pkg.__file__).resolve().parent != SRC / "lpvssa":
        fail(f"imported lpvssa from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"lpvssa.{name}") for name in MODULES}
    mods["lpvssa"] = pkg
    return mods


def measure_setup(docs):
    """Median wall time of a fresh interpreter importing and loading the documents."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, docs)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=os.environ.copy())
        if i:  # the first one fills the bytecode cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Recorder:
    """Outcome of every operation of the counted rounds.

    The oracle checks an output the first time it appears in a run; a
    later output of the same operation is accepted when it is
    byte-identical to one the oracle accepted, and checked again otherwise.
    """

    def __init__(self):
        self.rows = []  # (round, kind, seconds, units, ok)
        self.rounds = 0
        self.verified = {}
        self.reported = set()

    def _check(self, op, out):
        try:
            digest = pickle.dumps(out)
        except (pickle.PicklingError, TypeError, AttributeError):
            digest = None
        if digest is not None and self.verified.get(op.kind) == digest:
            return
        op.check(out)
        if digest is not None:
            self.verified[op.kind] = digest

    def run_round(self, ops, record=True):
        from oracles import OracleError

        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                dt = time.perf_counter() - t0
                ok, units, why = False, 0, f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t0
                units = op.units(out)
                try:
                    self._check(op, out)
                    ok, why = True, None
                except OracleError as exc:
                    ok, why = False, str(exc)
                except Exception as exc:  # an output the oracle cannot even read
                    ok, why = False, f"unreadable output: {type(exc).__name__}: {exc}"
            if not ok and op.kind not in self.reported:
                self.reported.add(op.kind)
                print(f"bench: {op.kind} failed: {why}", file=sys.stderr)
            if record:
                self.rows.append((self.rounds, op.kind, dt, units, ok))
        if record:
            self.rounds += 1

    def summary(self):
        """Work per second inside the operations, and per-kind median latencies."""
        by_kind = {}
        for _, kind, dt, _, _ in self.rows:
            by_kind.setdefault(kind, []).append(dt)
        medians = {kind: statistics.median(v) for kind, v in by_kind.items()}
        busy = sum(r[2] for r in self.rows)
        return {
            "attempted": len(self.rows),
            "failed": sum(1 for r in self.rows if not r[4]),
            "rounds": self.rounds,
            "busy_s": busy,
            "work_per_s": sum(r[3] for r in self.rows) / busy,
            "op_p50_gmean_ms": 1e3 * math.exp(statistics.fmean(map(math.log, medians.values()))),
            "medians": medians,
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = load_library()
    import workloads  # after load_library: imports scipy and numpy

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(workdir, mods)
        wl = workloads.BUILD[args.workload](ctx, args.seed)
        rec = Recorder()
        rec.run_round(wl.ops, record=False)  # warm-up: every op kind once
        gc.collect()
        gc.freeze()  # the harness's own objects stay out of the collector's scans
        if args.trace:
            result = traced(args, ctx, wl, rec)
        else:
            setup_s = measure_setup(wl.docs)
            deadline = time.perf_counter() + args.seconds
            while True:  # whole rounds only
                rec.run_round(wl.ops)
                if time.perf_counter() >= deadline:
                    break
            s = rec.summary()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result = {
                "correct": True,
                "attempted": s["attempted"],
                "failed": s["failed"],
                "metrics": {
                    "setup_s": {"value": setup_s, "unit": "s"},
                    "work_per_s": {"value": s["work_per_s"], "unit": "1/s"},
                    "op_p50_gmean_ms": {"value": s["op_p50_gmean_ms"], "unit": "ms"},
                    "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                },
            }
            print(f"bench: {args.workload}: {s['rounds']} rounds, {s['busy_s']:.2f} s "
                  f"inside operations; work unit: {wl.unit}", file=sys.stderr)
            for kind, median in s["medians"].items():
                print(f"bench:   {kind}: median {1e3 * median:.2f} ms", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def traced(args, ctx, wl, rec):
    """Untraced and traced rounds in turn, then the reference table both ways."""
    import tracing

    tracer = tracing.Tracer()
    busy = {False: 0.0, True: 0.0}
    for _ in range(TRACE_ROUNDS[args.workload]):
        for on in (False, True):
            start = len(rec.rows)
            with tracer.active(ctx) if on else contextlib.nullcontext():
                rec.run_round(wl.ops)
            busy[on] += sum(row[2] for row in rec.rows[start:])
    data = ROOT / "demos" / "data"
    table_plain = tracing.reference_table(ctx, data)
    with tracer.active(ctx):
        table_traced = tracing.reference_table(ctx, data)
    overhead = 100.0 * (busy[True] / busy[False] - 1.0)
    metrics = tracing.layer_metrics(tracer, overhead)
    s = rec.summary()
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.dump(stem.with_suffix(".npz"))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds_each_way": TRACE_ROUNDS[args.workload],
        "untraced_busy_s": busy[False],
        "traced_busy_s": busy[True],
        "per_layer": metrics,
        "spans": tracer.per_name(),
        "counts": dict(tracer.counts),
        "reference_table_untraced": table_plain,
        "reference_table_traced": table_traced,
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n")
    return {"correct": True, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}


if __name__ == "__main__":
    main()
