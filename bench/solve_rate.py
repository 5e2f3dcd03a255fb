"""Column solves per second of ``Engine.vmm_batch`` at n = 64, 128 and 256.

One config per n: SRAM-8T cells, M4 wire, a random +-1 512x256 matrix
against 24 random rows, ``adc_bits="full"``, best effort, BinSparX on.
Every (row, column) pair of every row tile is one column solve, so a run
makes 24 * 256 * ceil(512 / n) of them.

Each n runs in a subprocess of its own.  glibc's malloc thresholds are
process-wide and move with the sizes a process has freed, so a config run
after another one in the same process would inherit that one's heap and
its page-fault count.  The subprocess prints one JSON line:

- ``col_per_s``: column solves per second of ``vmm_batch`` wall time,
  the median over three timed calls;
- ``faults_per_call``: minor page faults per ``solve_columns_fast`` call,
  the median over the calls after the first ``vmm_batch``;
- ``solve_calls``: ``solve_columns_fast`` calls per ``vmm_batch``;
- ``on_rows_mean`` and ``on_rows_max``: gate-on rows per column solve,
  the mean over every column and the largest in any call.  The solver
  iterates over a call's largest gate-on count, not over n;
- ``peak_rss_mb``: the subprocess's peak resident set;
- ``checksum``: the first 16 hex digits of the SHA-256 of the outputs,
  which two trees with bit-identical solves share.

Usage, from the repository root::

    python bench/solve_rate.py                      # this checkout's src/
    python bench/solve_rate.py --src OTHER/src      # another checkout

To compare two checkouts, alternate such runs: this box's speed drifts
by up to 2x over minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

NS = (64, 128, 256)
ROWS, COLS, BATCH = 512, 256, 24
REPEATS = 3
SEED = 0


def child(n: int) -> dict:
    import numpy as np

    import binsparx.engine as engine_module
    from binsparx import DeviceModel, Engine, EngineConfig, WireModel

    solve = engine_module.solve_columns_fast
    calls = []  # (columns, minor faults) per solve_columns_fast call
    on_rows = []  # (gate-on rows summed over the columns, largest), per call

    def counted(stored, gates, *args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        res = solve(stored, gates, *args, **kwargs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        calls.append((res.i_out.size, faults))
        # two numbers, not the array: a kept array would grow the heap and
        # fault the next call's pages in
        on = np.count_nonzero(gates, axis=-1)
        on_rows.append((int(on.sum()), int(on.max())))
        return res

    engine_module.solve_columns_fast = counted
    rng = np.random.default_rng(SEED)
    w = rng.choice(np.array([-1, 1], dtype=np.int8), size=(ROWS, COLS))
    acts = rng.choice(np.array([-1, 1], dtype=np.int8), size=(BATCH, ROWS))
    engine = Engine(EngineConfig(n=n, device=DeviceModel.sram8t(), wire=WireModel.preset("M4"),
                                 adc_bits="full", best_effort=True))
    prepared = engine.prepare(w)
    rates = []
    for _ in range(REPEATS):
        start = len(calls)
        t0 = time.perf_counter()
        out = engine.vmm_batch(prepared, acts)
        seconds = time.perf_counter() - t0
        rates.append(sum(c for c, _ in calls[start:]) / seconds)
    per_batch = len(calls) // REPEATS
    # the first batch's calls fault the heap in; the later ones show the steady state
    faults = [f for _, f in calls[per_batch:]]
    return {
        "n": n,
        "col_per_s": round(statistics.median(rates), 1),
        "faults_per_call": statistics.median(faults),
        "solve_calls": per_batch,
        "on_rows_mean": round(sum(s for s, _ in on_rows) / sum(c for c, _ in calls), 1),
        "on_rows_max": max(m for _, m in on_rows),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "checksum": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="the src/ directory to import binsparx from")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(args.src))
        print(json.dumps(child(args.child)))
        return 0
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads}
    for n in NS:
        run = subprocess.run([sys.executable, __file__, "--child", str(n), "--src", str(args.src)],
                             env=env, capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            return run.returncode
        print(run.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
