"""Measurement harnesses: deviation sweeps and the solver cross-check.

These reproduce, at desk scale, two measurements a hardware evaluation
would make: the growth of the output-current deviation with the number of
ON cells, and the agreement of the fast column solver with a dense nodal
oracle.  Histograms of ideal per-column AND sums, and so the partial-sum
reduction BinSparX delivers, are read from the :class:`~binsparx.engine.RunStats`
ledger that every :meth:`~binsparx.engine.Engine.infer` run returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import DEVICE_FACTORIES, WIRE_PRESETS, DeviceModel, WireModel
from . import solver as _solver
from .engine import Engine
from .errors import ConfigError, DomainError
from .readout import dummy_compensate
from .solver import ColumnProblem, solve_column_dense, solve_columns_fast

__all__ = [
    "DeviationSweep",
    "sweep_deviation",
    "solver_validation_suite",
]


@dataclass(frozen=True, eq=False)
class DeviationSweep:
    """Per ON-count x: normalized deviation (ideal - measured)/quantum.

    ``mean``/``mn``/``mx``/``mean_abs`` are over converged trials only;
    non-convergent columns are tallied in ``nonconverged``.
    """

    x_values: np.ndarray
    samples: np.ndarray
    mean: np.ndarray
    mn: np.ndarray
    mx: np.ndarray
    mean_abs: np.ndarray
    nonconverged: np.ndarray

    def rows(self):
        for i, x in enumerate(self.x_values):
            yield (
                int(x),
                float(self.mean[i]),
                float(self.mn[i]),
                float(self.mx[i]),
                float(self.mean_abs[i]),
                int(self.samples[i]),
                int(self.nonconverged[i]),
            )


def sweep_deviation(
    engine: Engine,
    x_values,
    trials_per_x: int,
    rng: np.random.Generator,
) -> DeviationSweep:
    """Sample columns with exactly ``x`` coincident ON cells and measure the
    output-current deviation from the x*quantum ideal, in units of the
    engine's ADC quantum (auto: i_on, or i_on - i_hrs with the dummy on).

    Placements are uniform over all (stored, gate) pairs with exactly x
    rows where both are 1: the remaining rows draw uniformly from the
    three non-ON combinations.  Dummy compensation applies when the
    engine has it enabled.

    Every x draws its columns from ``rng`` in turn, in the same order as
    one call per x.  Whole x values are drawn in groups of about
    ``_CALL_COLUMNS`` columns, which bounds the drawn arrays however many
    trials.  Each group is one :meth:`Engine.solve_rows` pass, which sizes
    its own solver calls by gate-on rows and solves the dummy column beside
    every drawn column where the engine has one.  A column's solve does not
    depend on its batch, so the result equals one call per x bit for bit.
    The sweep measures the electrical solve, so an engine with
    non-idealities off is a ``ConfigError``.
    """
    if not engine.config.nonidealities:
        raise ConfigError("sweep_deviation: the sweep measures the electrical solve, "
                          "so [run] nonidealities must be true")
    if trials_per_x < 1:
        raise DomainError("trials_per_x must be >= 1")
    n = engine.config.n
    xs = np.asarray(list(x_values), dtype=np.int64)
    if xs.size and (xs.min() < 0 or xs.max() > n):
        raise DomainError(f"x values must lie in [0, {n}]")
    # one ADC quantum per ON cell; with dummy compensation enabled the
    # quantum already accounts for the subtracted per-row HRS share
    quantum = engine.adc.quantum

    shape = (len(xs), trials_per_x)
    i_out = np.empty(shape)
    conv = np.empty(shape, dtype=bool)
    group = max(1, _solver._CALL_COLUMNS // trials_per_x)
    for g0 in range(0, len(xs), group):
        g1 = min(len(xs), g0 + group)
        stored = np.empty((g1 - g0, trials_per_x, n), dtype=np.int8)
        gates = np.empty_like(stored)
        for i, x in enumerate(xs[g0:g1]):
            # first x slots of a random permutation hold the coincident ONs
            order = np.argsort(rng.random((trials_per_x, n)), axis=1)
            on = order < x
            combo = rng.integers(0, 3, size=(trials_per_x, n))
            stored[i] = on | (combo == 2)
            gates[i] = on | (combo == 1)
        cur, ok = engine.solve_rows(stored.reshape(-1, 1, n), gates.reshape(-1, n))
        if engine.dummy:
            cur[:, 0] = dummy_compensate(cur[:, 0], cur[:, 1])
        i_out[g0:g1] = cur[:, 0].reshape(-1, trials_per_x)
        conv[g0:g1] = ok.all(axis=1).reshape(-1, trials_per_x)
    dev = (xs[:, None] * quantum - i_out) / quantum

    means = np.empty(len(xs))
    mns = np.empty(len(xs))
    mxs = np.empty(len(xs))
    mabs = np.empty(len(xs))
    samples = conv.sum(axis=1)
    noncvg = trials_per_x - samples
    for i in range(len(xs)):
        good = dev[i, conv[i]]
        if good.size:
            means[i] = good.mean()
            mns[i] = good.min()
            mxs[i] = good.max()
            mabs[i] = np.abs(good).mean()
        else:
            means[i] = mns[i] = mxs[i] = mabs[i] = np.nan
    return DeviationSweep(
        x_values=xs, samples=samples, mean=means, mn=mns, mx=mxs,
        mean_abs=mabs, nonconverged=noncvg,
    )


# the corners solver_validation_suite runs, and the tolerance both of its
# solvers converge to
_SUITE_PRESETS = tuple(WIRE_PRESETS)
_SUITE_ON_CURRENTS = (1e-6, 2e-6)
_SUITE_TOL = 1e-9
# the anchored checks' tolerances: the fast solver's closed-form sweep
# reaches 1e-12; the dense oracle's KCL round-off floor is about 7e-12 at
# M3 and 3e-11 at M6, so at 1e-12 it never converged and spent its 60
# iterations halving steps, where 1e-10 converges in one step to the same
# answer within 1e-14
_ANCHOR_FAST_TOL = 1e-12
_ANCHOR_DENSE_TOL = 1e-10


def solver_validation_suite(
    trials: int,
    seed: int,
    n: int = 64,
    device_kind: str = "sram8t",
    v_nominal: float = 0.7,
    budget: float = 0.005,
) -> dict:
    """Fast-vs-dense agreement on random columns, per wire/current corner.

    Also runs two anchored checks: a zero-parasitic column must hit
    k * i_on exactly, and on a linear-device column, where the fast
    solver's sweep is the closed form, both solvers must agree to 1e-9
    relative.  Every solve must converge: a corner counts its
    non-converged fast and dense solves (``nonconverged``), and
    ``anchored_converged`` covers both checks.  Returns a dict with
    per-corner max/mean relative error, an overall ``passed`` flag, and
    under ``settings`` the arguments the run used.
    """
    if device_kind not in DEVICE_FACTORIES:
        raise ConfigError(f"solver_validation_suite: unknown device kind {device_kind!r}")
    if trials < 1:
        raise ConfigError(f"solver_validation_suite: trials must be >= 1, got {trials}")
    factory = DEVICE_FACTORIES[device_kind]
    rng = np.random.default_rng(seed)
    corners = []
    worst = 0.0
    for preset in _SUITE_PRESETS:
        for i_on in _SUITE_ON_CURRENTS:
            device = factory(i_on=i_on, v_nominal=v_nominal, v_knee=v_nominal / 2)
            wire = WireModel.preset(preset)
            # same draw order as one problem at a time, solved as one batch
            stored = np.empty((trials, n), dtype=np.int64)
            gates = np.empty((trials, n), dtype=np.int64)
            for t in range(trials):
                stored[t] = rng.integers(0, 2, n)
                gates[t] = rng.integers(0, 2, n)
            fast = solve_columns_fast(stored, gates, device, wire, v_nominal,
                                      tol=_SUITE_TOL, max_iter=2000)
            errs = np.empty(trials)
            nonconverged = int((~fast.converged).sum())
            for t in range(trials):
                p = ColumnProblem(n, stored[t], gates[t], device, wire, v_nominal)
                b = solve_column_dense(p, tol=_SUITE_TOL)
                nonconverged += not b.converged
                ref = max(abs(b.i_out), device.i_off * n, 1e-15)
                errs[t] = abs(fast.i_out[t] - b.i_out) / ref
            corner = {
                "preset": preset,
                "i_on": i_on,
                "max_rel_error": float(errs.max()),
                "mean_rel_error": float(errs.mean()),
                "trials": trials,
                "nonconverged": nonconverged,
            }
            worst = max(worst, corner["max_rel_error"])
            corners.append(corner)

    # anchored check 1: no parasitics -> exactly k ON currents
    device0 = DeviceModel(kind=device_kind, i_on=1e-6, i_hrs=0.0, i_off=0.0,
                          v_nominal=v_nominal, v_knee=v_nominal / 2)
    wire0 = WireModel(0.0, 0.0, 0.0, 0.0)
    stored = rng.integers(0, 2, n)
    gates = rng.integers(0, 2, n)
    k = int(((stored > 0) & (gates > 0)).sum())
    fast0 = solve_columns_fast(stored, gates, device0, wire0, v_nominal, tol=_ANCHOR_FAST_TOL)
    dense0 = solve_column_dense(ColumnProblem(n, stored, gates, device0, wire0, v_nominal),
                                tol=_ANCHOR_DENSE_TOL)
    zero_err = 0.0
    for i_out in (float(fast0.i_out[0]), dense0.i_out):
        if k:
            zero_err = max(zero_err, abs(i_out - k * 1e-6) / (k * 1e-6))
        else:
            zero_err = max(zero_err, abs(i_out))

    # anchored check 2: ohmic cells, where the fast solver's sweep is the closed form
    dev_lin = DeviceModel(kind=device_kind, i_on=1e-6, i_hrs=0.0, i_off=0.0,
                          v_nominal=v_nominal, v_knee=v_nominal / 2, curve="linear")
    wire_lin = WireModel.preset("M3")
    stored = rng.integers(0, 2, n)
    gates = rng.integers(0, 2, n)
    fast_lin = solve_columns_fast(stored, gates, dev_lin, wire_lin, v_nominal,
                                  tol=_ANCHOR_FAST_TOL)
    i_fast = float(fast_lin.i_out[0])
    dense_lin = solve_column_dense(ColumnProblem(n, stored, gates, dev_lin, wire_lin, v_nominal),
                                   tol=_ANCHOR_DENSE_TOL)
    linear_err = abs(dense_lin.i_out - i_fast) / abs(i_fast)
    anchored_converged = bool(fast0.converged[0] and dense0.converged
                              and fast_lin.converged[0] and dense_lin.converged)

    passed = (worst <= budget and zero_err <= 1e-9 and linear_err <= 1e-9 and anchored_converged
              and not any(c["nonconverged"] for c in corners))
    return {
        "settings": {"n": n, "device_kind": device_kind, "v_nominal": v_nominal,
                     "presets": list(_SUITE_PRESETS), "on_currents": list(_SUITE_ON_CURRENTS),
                     "solver_tol": _SUITE_TOL, "budget": budget, "trials": trials,
                     "seed": seed},
        "corners": corners,
        "max_rel_error": worst,
        "budget": budget,
        "zero_parasitic_rel_error": float(zero_err),
        "linear_closed_form_rel_error": float(linear_err),
        "anchored_converged": anchored_converged,
        "passed": bool(passed),
    }
