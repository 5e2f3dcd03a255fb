#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Proves that every workload's output check passes on a real output and
fails on a corrupted one, that the input generators are deterministic in
the seed, and that the traced run's metric names match BENCHMARK.json.
Exits 1 if any case fails.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys

import numpy as np

import run

FAILURES = []


def expect(label: str, ok: bool):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def file_bytes(directory) -> dict:
    """Every generated file except the config, which names its own directory."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "run.ini"}


def check_determinism(workloads, scratch):
    for cls in workloads.WORKLOADS.values():
        dirs = [scratch / f"{cls.name}-{tag}" for tag in ("a", "b", "c")]
        for d, seed in zip(dirs, (7, 7, 8)):
            d.mkdir(parents=True)
            cls(d, seed)
        same, other = file_bytes(dirs[0]), file_bytes(dirs[1])
        expect(f"{cls.name}: seed 7 twice gives identical input files", same == other)
        if same:
            expect(f"{cls.name}: seed 8 gives different input files",
                   same != file_bytes(dirs[2]))


def check_infer(wl):
    inputs = wl.inputs(3, small=True)
    result = wl.run(inputs)
    expect("infer: real output passes", wl.check(inputs, result) == 0)
    bad_scores = result.scores.copy()
    bad_scores[0, 4] += 2
    expect("infer: one changed score fails",
           wl.check(inputs, dataclasses.replace(result, scores=bad_scores)) == 1)
    stats = copy.deepcopy(result.stats)
    stats.add_deviation("fc1", np.array([1]))
    expect("infer: a nonzero deviation fails",
           wl.check(inputs, dataclasses.replace(result, stats=stats)) == 1)


def check_vmm(wl):
    batch = wl.inputs(5, small=True)
    out = wl.run(batch)
    expect("vmm: real output passes", wl.check(batch, out) == 0)
    bad = out.copy()
    bad[0, 17] -= 4  # one ADC level: the oracle must reject it
    expect("vmm: an output one ADC level off fails", wl.check(batch, bad) == 1)
    # a real one-level electrical deviation: seed 35, batch 6, row 1, column 101
    (wl.workdir / "seed35").mkdir()
    wl35 = type(wl)(wl.workdir / "seed35", 35)
    wl35.setup()
    acts = wl35.inputs(6).acts[1:2]
    got = int(wl35.engine.vmm_batch(wl35.prepared, acts, None, "vmm")[0, 101])
    ideal = int(acts[0].astype(np.int64) @ wl35.weights[:, 101].astype(np.int64))
    allowed = wl35.oracle_outputs(acts[0], 101)
    expect("vmm: the oracle explains a real one-level deviation",
           got == ideal + 4 and allowed is not None and got in allowed and ideal not in allowed)


def check_sweep(wl):
    trials = 2
    inputs = wl.inputs(0)._replace(xs=[8, 24], trials=trials, oracle=True)
    sweep = wl.run(inputs)
    expect("sweep: real output passes", wl.check(inputs, sweep) == 0)
    checked = 1 if not sweep.nonconverged[1] else 0
    # every column current of the checked x 1% low: each deviation statistic
    # moves by 1% of the mean current (in quanta), bookkeeping stays consistent
    shift = 0.01 * (inputs.xs[checked] - sweep.mean[checked])
    moved = {}
    for field in ("mean", "mn", "mx", "mean_abs"):
        moved[field] = getattr(sweep, field).copy()
        moved[field][checked] += shift
    expect("sweep: currents 1% off the dense oracle fail",
           wl.check(inputs, dataclasses.replace(sweep, **moved)) == trials)
    samples = sweep.samples.copy()
    samples[0] += 1
    expect("sweep: inconsistent sample counts fail",
           wl.check(inputs, dataclasses.replace(sweep, samples=samples)) >= trials)


def check_validate(wl):
    inputs = wl.inputs(0, small=True)
    report = wl.run(inputs)
    expect("validate: real report passes", wl.check(inputs, report) == 0)
    bad = copy.deepcopy(report)
    bad["corners"][2]["max_rel_error"] = 2 * bad["budget"]
    expect("validate: a corner over budget fails", wl.check(inputs, bad) > 0)
    bad = copy.deepcopy(report)
    bad["passed"] = not bad["passed"]
    expect("validate: a wrong verdict fails", wl.check(inputs, bad) == wl.ops(inputs))


def check_metric_names(tracing, workloads):
    expect("the runner's workload names are the workloads defined",
           list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    names = set(tracing.Tracer().layer_metrics())
    expect("every traced layer metric is declared in BENCHMARK.json", names <= declared)
    expect("BENCHMARK.json names the four workloads",
           [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES))


def check_absent_wrapper(tracing):
    tracer = tracing.Tracer()
    tracer.install((tracing.Wrap("binsparx.sparsify", "no_such_function", "x"),
                    tracing.Wrap("binsparx.no_such_module", "f", "y")))
    tracer.uninstall()
    expect("a wrapped name that no longer exists is reported absent",
           len(tracer.absent) == 2)


def main() -> int:
    error = run.load_package()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    scratch = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_determinism(workloads, scratch / "gen")
        for cls, check in ((workloads.InferConvStructured, check_infer),
                           (workloads.VmmRandomReram, check_vmm),
                           (workloads.SweepExtremeWire, check_sweep),
                           (workloads.ValidateSolver, check_validate)):
            workdir = scratch / cls.name
            workdir.mkdir(parents=True)
            wl = cls(workdir, 3)
            wl.setup()
            check(wl)
        check_metric_names(tracing, workloads)
        check_absent_wrapper(tracing)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
