"""The four benchmark workloads.

A workload builds its inputs from the seed (``generate``), performs the
program-side set-up the matching ``binsparx`` subcommand performs, makes
the same public-API calls that subcommand makes on one op batch, and
checks every output against a reference written here.  Set-up and the
op-batch call are what the runner times; input generation, checks and
artifact writing happen outside the timed region.

Why these four (see README.md for more):

* ``infer-conv-structured`` - the full engine pipeline on images whose conv
  patches repeat, so work that de-duplicates columns has something to find.
* ``vmm-random-reram`` - random rows: almost no (column, gate) pair
  repeats; the only workload with the dummy column, the ReRAM HRS branch
  and 4x2 tiles.
* ``sweep-extreme-wire`` - bypasses the engine; the fixed-point solver is
  stiff here and a share of columns hit the iteration cap.
* ``validate-solver`` - the only workload that runs the dense nodal oracle
  at scale.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

import generate
from binsparx import analysis, config, modelio
from binsparx.devices import DeviceModel, WireModel
from binsparx.engine import Engine, RunStats
from binsparx.solver import ColumnProblem, solve_column_dense

N = 64  # rows per tile, and column length everywhere


class Workload:
    """One workload: seeded inputs, timed calls, output check.

    ``inputs(k)`` is a pure function of (seed, k).  ``run`` is the only
    call the runner times per op batch.  ``check`` returns how many of the
    batch's ops produced a wrong output; ``flagged`` how many results the
    program itself reported as non-convergent (a correct, honest outcome).
    """

    name = ""
    batch_ops = 0       # ops per batch
    trace_batches = 1   # fixed op batches in a traced run

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.out_dir = workdir / "out"

    def _write_config(self, sections: dict):
        run = {"seed": self.seed, "output_dir": self.out_dir}
        run.update(sections.pop("run", {}))
        self.config_path = generate.write_ini(self.workdir / "run.ini", {**sections, "run": run})

    def _echo(self) -> dict:
        return {"command": self.name, "config": self.cfg}

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        """A small call that triggers any lazy initialisation before timing."""
        self.run(self.inputs(0, small=True))

    def inputs(self, k: int, small: bool = False):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def ops(self, inputs) -> int:
        return self.batch_ops

    def check(self, inputs, output) -> int:
        raise NotImplementedError

    def flagged(self, output) -> int:
        return 0

    def write_artifacts(self, inputs, output):
        raise NotImplementedError


# -- infer-conv-structured ----------------------------------------------------


def threshold_signs(x: np.ndarray, thresholds, signs, axis: int) -> np.ndarray:
    """+1 where x >= t (gamma > 0) or x <= t (gamma < 0), else -1."""
    shape = [1] * x.ndim
    shape[axis] = -1
    t = np.asarray(thresholds, dtype=np.int64).reshape(shape)
    s = np.asarray(signs).reshape(shape)
    return np.where(s > 0, np.where(x >= t, 1, -1), np.where(x <= t, 1, -1))


def reference_scores(arrays: dict, images: np.ndarray) -> np.ndarray:
    """Signed-integer forward pass of the conv model, written independently
    of the package: direct shifted-window convolution with -1 padding (the
    program's zero-voltage convention), thresholds, then dense layers."""
    b = len(images)
    side = generate.IMAGE_SIDE
    x = images.reshape(b, 1, side, side).astype(np.int64)
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-1)
    w = arrays["conv1"].astype(np.int64)
    conv = np.zeros((b, w.shape[0], side, side), dtype=np.int64)
    for dy in range(3):
        for dx in range(3):
            window = padded[:, :, dy : dy + side, dx : dx + side]
            conv += np.einsum("bchw,oc->bohw", window, w[:, :, dy, dx])
    x = threshold_signs(conv, *arrays["bn1"], axis=1).reshape(b, -1)
    x = threshold_signs(x @ arrays["fc1"].astype(np.int64), *arrays["bn2"], axis=1)
    return x @ arrays["fc2"].astype(np.int64)


class InferConvStructured(Workload):
    """``binsparx infer`` on a seeded conv model; one op is one image."""

    name = "infer-conv-structured"
    batch_ops = 16
    images = 4096
    trace_batches = 8

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.model_path, self.arrays = generate.conv_model(seed, workdir)
        self.features_path, self.labels_path, self.signed = generate.template_images(
            seed, self.images, workdir
        )
        self._write_config({
            "array": {"n": N, "m": N},
            "device": {"kind": "sram8t"},
            "wire": {"preset": "M4"},
            "binsparx": {"enabled": "true"},
            "run": {"binarize_threshold": 127.5},
        })

    def setup(self):
        self.cfg = config.load_run_config(self.config_path)
        self.layers = modelio.load_model(self.model_path)
        self.dataset = modelio.load_dataset(self.features_path, self.labels_path)
        self.engine = Engine(config.build_engine_config(self.cfg))

    def inputs(self, k: int, small: bool = False):
        count = 1 if small else self.batch_ops
        idx = np.arange(k * count, (k + 1) * count) % self.images
        return idx, self.dataset.features[idx], self.dataset.labels[idx]

    def run(self, inputs):
        _, features, labels = inputs
        return self.engine.infer(
            self.layers, features, labels,
            binarize_threshold=self.cfg["run"]["binarize_threshold"],
            stats=RunStats(self.cfg["array"]["n"]),
        )

    def check(self, inputs, result) -> int:
        idx = inputs[0]
        want = reference_scores(self.arrays, self.signed[idx])
        scores = np.asarray(result.scores)
        if scores.shape != want.shape:
            return len(idx)
        # at M4 every column's IR drop stays inside half an ADC quantum
        if result.stats.mean_abs_deviation() != 0.0 or result.stats.nonconverged:
            return len(idx)
        bad = ~(scores == want).all(axis=1)
        bad |= np.asarray(result.predictions) != np.argmax(want, axis=1)
        return int(bad.sum())

    def write_artifacts(self, inputs, result):
        echo = self._echo()
        modelio.write_predictions_csv(self.out_dir / "predictions.csv", result.predictions,
                                      inputs[2], echo)
        modelio.write_json(self.out_dir / "infer_stats.json",
                           {**echo, "accuracy": result.accuracy,
                            "inputs": int(len(result.predictions)),
                            "stats": result.stats.to_dict()})


# -- vmm-random-reram ----------------------------------------------------------


class VmmBatch(NamedTuple):
    acts: np.ndarray
    k: int


class VmmRandomReram(Workload):
    """``Engine.prepare`` + ``vmm_batch`` on a random 256x128 matrix with a
    1T1R ReRAM array; one op is one activation row.

    With M3 wire the electrical error occasionally moves one column's ADC
    level by one (an output off by 4 from ``acts @ W``; one row of the
    first 768 for seed 35).  That is the simulated physics, not a fault, so the check
    holds every output either to the exact product or, where it differs,
    to an electrical oracle built here on ``solve_column_dense``.
    """

    name = "vmm-random-reram"
    batch_ops = 64
    rows, cols = 256, 128
    trace_batches = 7
    sampled = 2         # unmoved outputs per batch also checked against the oracle
    oracle_limit = 32   # moved outputs per batch the oracle examines; more fail outright
    adc_bits = 5        # log2(64) - 1: BinSparX halves a column's ON-count range

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.model_path, self.weights = generate.dense_model(seed, self.rows, self.cols, workdir)
        self._write_config({
            "array": {"n": N, "m": N},
            "device": {"kind": "reram1t1r"},
            "wire": {"preset": "M3"},
            "binsparx": {"enabled": "true"},
        })
        # the oracle's own copy of the array, built without the config layer
        self.oracle_device = DeviceModel.reram1t1r(i_on=1e-6)
        self.oracle_wire = WireModel.preset("M3")
        # the all-HRS dummy column subtracts i_hrs per gated row, so one
        # compensated ON cell is worth i_on - i_hrs
        self.oracle_quantum = self.oracle_device.i_on - self.oracle_device.i_hrs

    def setup(self):
        self.cfg = config.load_run_config(self.config_path)
        layer = modelio.load_model(self.model_path)[0]
        self.engine = Engine(config.build_engine_config(self.cfg))
        self.prepared = self.engine.prepare(layer.weights)

    def inputs(self, k: int, small: bool = False) -> VmmBatch:
        return VmmBatch(
            generate.random_activations(self.seed, k, 1 if small else self.batch_ops, self.rows), k
        )

    def run(self, batch: VmmBatch):
        return self.engine.vmm_batch(self.prepared, batch.acts, None, "vmm")

    def check(self, batch: VmmBatch, out) -> int:
        acts = batch.acts
        want = acts.astype(np.int64) @ self.weights.astype(np.int64)
        out = np.asarray(out)
        if out.shape != want.shape:
            return len(acts)
        moved = [tuple(int(i) for i in e) for e in np.argwhere(out != want)]
        bad_rows = {r for r, _ in moved[self.oracle_limit:]}
        rng = generate.rng_for(self.seed, generate.STREAM_VMM_CHECK, batch.k)
        sampled = [(int(rng.integers(len(acts))), int(rng.integers(self.cols)))
                   for _ in range(self.sampled)]
        for r, c in moved[: self.oracle_limit] + sampled:
            allowed = self.oracle_outputs(acts[r], c)
            if allowed is not None and int(out[r, c]) not in allowed:
                bad_rows.add(r)
        return len(bad_rows)

    def _dense_current(self, stored, gates):
        res = solve_column_dense(ColumnProblem(N, stored, gates, self.oracle_device,
                                               self.oracle_wire, self.oracle_device.v_nominal))
        return res.i_out if res.converged else None

    def oracle_outputs(self, act_row: np.ndarray, col: int):
        """Signed outputs the electrical model allows for one (row, column):
        per 64-row tile, static column flip and dynamic activation flip,
        data and dummy columns solved by the dense nodal solver, the
        difference digitised (both levels allowed within 1e-3 of a rounding
        edge), the AND count turned back into a signed partial sum, and the
        partial sums added.  None if the dense solver does not converge."""
        top = 2**self.adc_bits - 1
        totals = {0}
        for r0 in range(0, self.rows, N):
            a = (act_row[r0 : r0 + N] > 0).astype(np.int8)
            w = (self.weights[r0 : r0 + N, col] > 0).astype(np.int8)
            n = len(a)
            w_flip = 2 * int(w.sum()) >= n  # store the complement when the signed sum >= 0
            a_flip = 2 * int(a.sum()) > n   # apply the complement when ones are the majority
            stored = 1 - w if w_flip else w
            gates = 1 - a if a_flip else a
            i_data = self._dense_current(stored, gates)
            i_dummy = self._dense_current(np.zeros_like(stored), gates)
            if i_data is None or i_dummy is None:
                return None
            x = max(0.0, i_data - i_dummy) / self.oracle_quantum
            levels = {int(np.clip(np.rint(x + d), 0, top)) for d in (-1e-3, 0.0, 1e-3)}
            sign = -1 if w_flip != a_flip else 1
            parts = {sign * (4 * lv - 2 * int(gates.sum()) - 2 * int(stored.sum()) + n)
                     for lv in levels}
            totals = {t + p for t in totals for p in parts}
        return totals

    def write_artifacts(self, batch: VmmBatch, out):
        modelio.write_json(self.out_dir / "vmm_output.json",
                           {**self._echo(), "rows": int(len(out)),
                            "checksum": int(np.asarray(out).sum())})


# -- sweep-extreme-wire --------------------------------------------------------

# the stiff corner: every wire segment 100 kohm, a 1 Mohm driver
EXTREME_WIRE = {"r_bl_per_cell": 1e5, "r_sl_per_cell": 1e5, "r_driver": 1e6, "r_sink": 0.0}
ORACLE_BUDGET = 0.005  # the fast solver's agreement budget with the dense oracle


def replay_sweep_columns(rng: np.random.Generator, xs, trials: int, n: int):
    """The (stored, gates) columns ``sweep_deviation`` draws from ``rng``:
    the first x slots of a random permutation hold the coincident ON cells,
    the other rows draw uniformly from the three non-ON combinations."""
    columns = []
    for x in xs:
        on = np.argsort(rng.random((trials, n)), axis=1) < x
        combo = rng.integers(0, 3, size=(trials, n))
        stored = np.where(on, 1, np.where(combo == 2, 1, 0)).astype(np.int8)
        gates = np.where(on, 1, np.where(combo == 1, 1, 0)).astype(np.int8)
        columns.append((stored, gates))
    return columns


def sweep_row_consistent(sweep, i: int, trials: int) -> bool:
    """Per-x bookkeeping that must hold whatever the electrical values."""
    samples, bad = int(sweep.samples[i]), int(sweep.nonconverged[i])
    if samples + bad != trials or samples < 0 or bad < 0:
        return False
    if samples == 0:
        return True
    mean, mn, mx, mabs = (float(v[i]) for v in (sweep.mean, sweep.mn, sweep.mx, sweep.mean_abs))
    eps = 1e-9 * max(1.0, abs(mn), abs(mx))
    return (
        all(np.isfinite((mean, mn, mx, mabs)))
        and mn - eps <= mean <= mx + eps
        and mabs + eps >= abs(mean)
    )


class SweepBatch(NamedTuple):
    xs: list
    rng_seed: int
    trials: int
    oracle: bool  # also compare one x's columns with the dense oracle


class SweepExtremeWire(Workload):
    """``sweep_deviation`` at the extreme-wire corner; one op is one column.

    Every op batch sweeps the same grid x = 4, 12, ..., 60 with fresh
    columns, so batches are alike and their median rate means something.
    An x costs as many sweeps as its slowest column: on the seed program
    x >= 52 hits the 4000-iteration cap in every batch and x <= 44 almost
    never does.  The grid skips x = 48, where a 25-column batch hits the cap
    about half the time and that coin flip would dominate the spread.
    """

    name = "sweep-extreme-wire"
    trials = 25
    x_grid = range(4, N + 1, 8)
    oracle_batches = 1  # the dense oracle costs about 30 ms per column here
    trace_batches = 5

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self._write_config({
            "array": {"n": N, "m": N},
            "device": {"kind": "sram8t"},
            "wire": {"preset": "custom", **EXTREME_WIRE},
            "solver": {"max_iter": 4000},
            "run": {"best_effort": "true", "trials": self.trials},
        })
        # the oracle's own copy of the corner, built without the config layer
        self.oracle_device = DeviceModel.sram8t(i_on=1e-6)
        self.oracle_wire = WireModel(**EXTREME_WIRE)

    def setup(self):
        self.cfg = config.load_run_config(self.config_path)
        self.engine = Engine(config.build_engine_config(self.cfg))

    def inputs(self, k: int, small: bool = False) -> SweepBatch:
        rng_seed = generate.int_seed(self.seed, generate.STREAM_SWEEP, k)
        if small:
            return SweepBatch([N // 2], rng_seed, 1, False)
        xs = list(self.x_grid)
        return SweepBatch(xs, rng_seed, self.cfg["run"]["trials"], k < self.oracle_batches)

    def run(self, batch: SweepBatch):
        return analysis.sweep_deviation(self.engine, batch.xs, batch.trials,
                                        rng=np.random.default_rng(batch.rng_seed))

    def ops(self, batch: SweepBatch) -> int:
        return len(batch.xs) * batch.trials

    def flagged(self, sweep) -> int:
        return int(np.asarray(sweep.nonconverged).sum())

    def check(self, batch: SweepBatch, sweep) -> int:
        xs, trials = batch.xs, batch.trials
        if [int(x) for x in sweep.x_values] != list(xs):
            return self.ops(batch)
        failed = sum(trials for i in range(len(xs)) if not sweep_row_consistent(sweep, i, trials))
        if not batch.oracle:
            return failed
        columns = replay_sweep_columns(np.random.default_rng(batch.rng_seed), xs, trials, N)
        # the stiffest x whose columns all converged, against the dense solver
        for i in reversed(range(len(xs))):
            if sweep.nonconverged[i] or sweep.samples[i] != trials:
                continue
            verdict = self.oracle_verdict(xs[i], columns[i], sweep, i)
            if verdict is not None:
                return failed + (0 if verdict else trials)
        return failed

    def oracle_verdict(self, x: int, column_pair, sweep, i: int):
        """True/False when the sweep's statistics for this x do/don't match
        the dense oracle within the budget; None when the oracle itself did
        not converge (no verdict)."""
        quantum = self.oracle_device.i_on
        stored, gates = column_pair
        currents = []
        for s, g in zip(stored, gates):
            res = solve_column_dense(ColumnProblem(N, s, g, self.oracle_device, self.oracle_wire,
                                                   self.oracle_device.v_nominal))
            if not res.converged:
                return None
            currents.append(res.i_out)
        i_ref = np.asarray(currents)
        dev = (x * quantum - i_ref) / quantum
        tol = ORACLE_BUDGET * np.maximum(np.abs(i_ref), self.oracle_device.i_off * N) / quantum
        return bool(
            abs(sweep.mean[i] - dev.mean()) <= tol.mean()
            and abs(sweep.mn[i] - dev.min()) <= tol.max()
            and abs(sweep.mx[i] - dev.max()) <= tol.max()
            and abs(sweep.mean_abs[i] - np.abs(dev).mean()) <= tol.mean()
        )

    def write_artifacts(self, inputs, sweep):
        modelio.write_sweep_csv(self.out_dir / "sweep.csv", sweep, self._echo())


# -- validate-solver -----------------------------------------------------------


class ValidateSolver(Workload):
    """``solver_validation_suite`` over M3/M4/M6 x 1/2 uA at tol 1e-9; one op
    is one fast-vs-dense problem pair (plus the two anchored checks)."""

    name = "validate-solver"
    trials = 8
    corners = 6
    trace_batches = 20

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self._write_config({
            "array": {"n": N, "m": N},
            "device": {"kind": "sram8t"},
            "run": {"trials": self.trials},
        })

    def setup(self):
        self.cfg = config.load_run_config(self.config_path)

    def inputs(self, k: int, small: bool = False):
        return generate.int_seed(self.seed, generate.STREAM_VALIDATE, k), 1 if small else self.trials

    def run(self, inputs):
        rng_seed, trials = inputs
        return analysis.solver_validation_suite(
            trials=trials, seed=rng_seed, n=self.cfg["array"]["n"],
            device_kind=self.cfg["device"]["kind"], v_nominal=self.cfg["device"]["v_nominal"],
        )

    def ops(self, inputs) -> int:
        return self.corners * inputs[1] + 2

    def check(self, inputs, report) -> int:
        trials = inputs[1]
        corners = report.get("corners", [])
        if len(corners) != self.corners or any(c["trials"] != trials for c in corners):
            return self.ops(inputs)
        budget = report["budget"]
        failed = sum(trials for c in corners if not c["max_rel_error"] <= budget)
        failed += int(not report["zero_parasitic_rel_error"] <= 1e-9)
        failed += int(not report["linear_closed_form_rel_error"] <= 1e-9)
        worst = max(c["max_rel_error"] for c in corners)
        if report["max_rel_error"] != worst or report["passed"] != (failed == 0):
            return self.ops(inputs)
        return failed

    def write_artifacts(self, inputs, report):
        modelio.write_json(self.out_dir / "validate_report.json",
                           {**self._echo(), "report": report})


WORKLOADS = {
    cls.name: cls
    for cls in (InferConvStructured, VmmRandomReram, SweepExtremeWire, ValidateSolver)
}
