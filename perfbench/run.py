#!/usr/bin/env python3
"""binsparx benchmark: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload infer-conv-structured --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  With ``--trace 0`` the run times
the workload's op batches for ``--seconds`` seconds of busy time and
reports the end-to-end metrics; times are scaled by the box's slowdown,
measured next to every batch (``calibrate.py``), and the unscaled rates
are on the detail line.  With ``--trace 1`` it runs a fixed set of
op batches twice, untraced and then traced, and reports the per-layer
metrics plus the tracing overhead; the spans go to
``.perfbench_out/trace-<workload>-<seed>.json``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it stamp the environment and give per-batch detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("infer-conv-structured", "vmm-random-reram", "sweep-extreme-wire",
                  "validate-solver")
# Set-up takes from 0.1 to 3 ms and the box's speed drifts by up to 2x over
# seconds, so set-up is repeated before the first batch and again after
# every batch, and the median of all repeats is reported.
SETUP_FIRST = 10
SETUP_AFTER_BATCH = 5

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Batch(NamedTuple):
    ops: int
    failed: int
    flagged: int
    seconds: float

    @property
    def completed(self) -> int:
        return self.ops - self.failed


def run_batch(wl, k: int, tracer=None) -> tuple[Batch, object, object]:
    """Time one op batch, then check it outside the timed region."""
    inputs = wl.inputs(k)
    ops = wl.ops(inputs)
    t0 = time.perf_counter()
    try:
        output = wl.run(inputs)
    except Exception:  # a crashing call is a failed batch, not a crashed benchmark
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Batch(ops, ops, 0, seconds), inputs, None
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        failed = min(ops, wl.check(inputs, output))
        flagged = wl.flagged(output)
    except Exception:  # an output the check cannot even read is wrong
        traceback.print_exc(file=sys.stderr)
        failed, flagged = ops, 0
    if tracer is not None:
        tracer.active = True
    return Batch(ops, failed, flagged, seconds), inputs, output


def rate(batches) -> float:
    seconds = sum(b.seconds for b in batches)
    return sum(b.completed for b in batches) / seconds if seconds else 0.0


def write_artifacts(wl, inputs, output):
    if output is not None:
        wl.write_artifacts(inputs, output)


def time_setups(wl, times: list, count: int, slowdown: float):
    """Append ``count`` set-up times, scaled to an unloaded box."""
    for _ in range(count):
        t0 = time.perf_counter()
        wl.setup()
        times.append((time.perf_counter() - t0) / slowdown)


def timed_run(wl, seconds: float) -> tuple[list, dict, dict]:
    import calibrate

    # the box's slowdown, measured before the first batch and after each one
    parts = [calibrate.part_slowdowns()]
    slowdowns = [calibrate.slowdown(parts[0])]
    setup_times = []
    time_setups(wl, setup_times, SETUP_FIRST, slowdowns[0])
    wl.warm_up()
    batches = []
    rates = []  # per batch, scaled to an unloaded box
    busy = 0.0
    inputs = output = None
    while not batches or busy < seconds:
        batch, inputs, output = run_batch(wl, len(batches))
        parts.append(calibrate.part_slowdowns())
        slowdowns.append(calibrate.slowdown(parts[-1]))
        batches.append(batch)
        busy += batch.seconds
        rates.append(batch.completed / batch.seconds * (slowdowns[-2] + slowdowns[-1]) / 2)
        time_setups(wl, setup_times, SETUP_AFTER_BATCH, slowdowns[-1])
    write_artifacts(wl, inputs, output)
    attempted = sum(b.ops for b in batches)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "converged_share": (1.0 - sum(b.flagged for b in batches) / attempted, "ratio"),
    }
    detail = {
        "batches": len(batches),
        "ops_per_s_batches": [round(r, 4) for r in rates],
        "ops_per_s_raw_batches": [round(b.completed / b.seconds, 4) for b in batches],
        "ops_per_s_raw": statistics.median(b.completed / b.seconds for b in batches),
        "slowdowns": {name: [round(p[name], 3) for p in parts] for name in parts[0]},
        "setup_repeats": len(setup_times),
        "setup_s_quartiles": statistics.quantiles(setup_times, n=4),
        "flagged_nonconverged": sum(b.flagged for b in batches),
    }
    return batches, metrics, detail


def traced_run(wl, out_path: Path) -> tuple[list, dict, dict]:
    import tracing

    wl.setup()
    wl.warm_up()
    count = wl.trace_batches
    untraced = [run_batch(wl, k)[0] for k in range(count)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        wl.setup()
        traced = []
        for k in range(count):
            tracer.op = k
            batch, inputs, output = run_batch(wl, k, tracer)
            traced.append(batch)
        tracer.op = None
        write_artifacts(wl, inputs, output)
        tracer.active = False
    finally:
        tracer.uninstall()
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in tracer.layer_metrics().items()}
    extra = {
        "trace.ops": (float(sum(b.ops for b in traced)), "count"),
        "trace.ops_per_s_untraced": (rate(untraced), "1/s"),
        "trace.ops_per_s_traced": (rate(traced), "1/s"),
        # traced minus untraced: negative by the throughput tracing costs
        "trace.overhead_ops_per_s": (rate(traced) - rate(untraced), "1/s"),
        "trace.absent_wrappers": (float(len(tracer.absent)), "count"),
        "trace.spans": (float(tracer.next_id), "count"),
    }
    metrics.update(extra)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"workload": wl.name, "seed": wl.seed, **tracer.dump()}))
    detail = {"absent": tracer.absent, "trace_file": str(out_path.relative_to(ROOT)),
              "spans_dropped": tracer.dropped}
    return untraced + traced, metrics, detail


def stamp() -> dict:
    import numpy

    sources = sorted((SRC / "binsparx").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "src_files": len(sources),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sources),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package() -> str | None:
    """Import binsparx from this checkout's ``src/``; an error message if impossible."""
    # one caller, one thread: pin BLAS before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "binsparx" / "__init__.py").is_file():
        return f"no package sources at {SRC / 'binsparx'}; run from a source checkout"
    sys.path.insert(0, str(SRC))
    import binsparx

    if Path(binsparx.__file__).resolve().parent != (SRC / "binsparx").resolve():
        return f"imported binsparx from {binsparx.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_package()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"
            batches, metrics, detail = traced_run(wl, trace_path)
        else:
            batches, metrics, detail = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(b.ops for b in batches)
    failed = sum(b.failed for b in batches)
    print("perfbench stamp: " + json.dumps(stamp()))
    print("perfbench detail: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                             **detail}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
