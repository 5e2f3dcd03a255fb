"""Measurement harnesses called directly, not through the command line."""

from dataclasses import replace

import numpy as np
import pytest

from binsparx import analysis
from binsparx import engine as engine_module
from binsparx.analysis import solver_validation_suite, sweep_deviation
from binsparx.bnn import BinaryTensor
from binsparx.devices import DeviceModel, WireModel
from binsparx.engine import Engine, EngineConfig, LayerSpec
from binsparx.errors import ConfigError
from binsparx.solver import solve_column_dense

ZERO_WIRE = WireModel(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("device", [
    DeviceModel(kind="sram8t", i_hrs=0.0, i_off=0.0, curve="linear"),
    DeviceModel.reram1t1r(curve="linear"),
], ids=["sram", "reram-dummy"])
def test_sweep_without_parasitics_has_no_deviation(rng, device):
    # every cell sees the full drive, so x ON cells draw exactly x quanta
    # (the ReRAM dummy cancels the HRS and gate-off terms)
    eng = Engine(EngineConfig(n=16, m=16, device=device, wire=ZERO_WIRE))
    sweep = sweep_deviation(eng, range(17), 5, rng=rng)
    assert sweep.x_values.tolist() == list(range(17))
    assert (sweep.samples == 5).all() and not sweep.nonconverged.any()
    for values in (sweep.mean, sweep.mn, sweep.mx, sweep.mean_abs):
        assert np.abs(values).max() <= 1e-12


def test_sweep_refuses_an_ideal_engine(rng):
    eng = Engine(EngineConfig(n=16, m=16, nonidealities=False))
    with pytest.raises(ConfigError, match="nonidealities"):
        sweep_deviation(eng, range(17), 5, rng=rng)


SWEEP_CASES = {
    "sram": dict(device=DeviceModel.sram8t(), wire=WireModel.preset("M4")),
    "reram-dummy": dict(device=DeviceModel.reram1t1r(), wire=WireModel.preset("M3")),
    "best-effort": dict(device=DeviceModel.sram8t(), wire=WireModel(1e5, 1e5, 1e6, 0.0),
                        solver_max_iter=3, best_effort=True),
}
SWEEP_FIELDS = ("x_values", "samples", "mean", "mn", "mx", "mean_abs", "nonconverged")


def _assert_same_sweep(a, b):
    for name in SWEEP_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_solves_every_x_together(case):
    # one batch over every x equals, bit for bit, one call per x drawing
    # from the same generator in turn
    eng = Engine(EngineConfig(n=32, m=32, **SWEEP_CASES[case]))
    xs = [0, 3, 9, 16, 25, 32]
    whole = sweep_deviation(eng, xs, 6, rng=np.random.default_rng(42))
    rng = np.random.default_rng(42)
    parts = [sweep_deviation(eng, [x], 6, rng=rng) for x in xs]
    for name in SWEEP_FIELDS:
        np.testing.assert_array_equal(getattr(whole, name),
                                      np.concatenate([getattr(p, name) for p in parts]),
                                      err_msg=name)
    if case == "best-effort":
        assert whole.nonconverged.sum() > 0


def test_sweep_chunks_equal_one_batch(monkeypatch):
    eng = Engine(EngineConfig(n=32, m=32, device=DeviceModel.reram1t1r(),
                              wire=WireModel.preset("M3")))
    whole = sweep_deviation(eng, range(0, 33, 4), 5, rng=np.random.default_rng(7))
    calls = []
    solve = Engine.solve_columns

    def counting(self, stored, gates):
        # (columns, all-zero stored columns) per call
        calls.append((len(gates), int((~np.asarray(stored).any(axis=1)).sum())))
        return solve(self, stored, gates)

    monkeypatch.setattr(Engine, "solve_columns", counting)
    # 6 columns of 32 rows per call, 3 drawn and 3 dummy; one x of 5 trials
    # per group: each x is a call of 3 drawn columns and one of 2, every
    # drawn column with its dummy beside it
    monkeypatch.setattr(engine_module, "_MAX_BATCH_ELEMS", 6 * 32)
    chunked = sweep_deviation(eng, range(0, 33, 4), 5, rng=np.random.default_rng(7))
    assert calls == [(6, 3), (4, 2)] * 9
    assert sum(c - z for c, z in calls) == sum(z for _, z in calls) == 45
    _assert_same_sweep(chunked, whole)


@pytest.mark.parametrize("config", [
    dict(device=DeviceModel.sram8t(), wire=WireModel.preset("M3")),
    # ReRAM with the dummy: at this wire and cap some dummy columns do not
    # converge where their data columns do
    dict(device=DeviceModel.reram1t1r(), wire=WireModel(1e5, 1e5, 1e6, 0.0),
         solver_max_iter=3, solver_tol=1e-5),
], ids=["sram", "reram-dummy"])
def test_sweep_draw_order(config):
    # per x in turn: a uniform permutation's first x slots are the ON cells,
    # then each other row draws one of the three non-ON pairs; a column
    # counts only when its data and dummy solves both converge
    eng = Engine(EngineConfig(n=16, m=16, **config))
    xs, trials = [2, 11, 5], 4
    sweep = sweep_deviation(eng, xs, trials, rng=np.random.default_rng(3))
    rng = np.random.default_rng(3)
    dummy_only_failed = 0
    for i, x in enumerate(xs):
        on = np.argsort(rng.random((trials, 16)), axis=1) < x
        combo = rng.integers(0, 3, size=(trials, 16))
        stored, gates = np.where(on | (combo == 2), 1, 0), np.where(on | (combo == 1), 1, 0)
        i_out, conv = eng.solve_columns(stored, gates)
        if eng.dummy:
            i_dummy, dconv = eng.solve_columns(np.zeros_like(stored), gates)
            dummy_only_failed += int((conv & ~dconv).sum())
            i_out, conv = np.maximum(0.0, i_out - i_dummy), conv & dconv
        dev = ((x * eng.adc.quantum - i_out) / eng.adc.quantum)[conv]
        assert (sweep.samples[i], sweep.nonconverged[i]) == (conv.sum(), (~conv).sum())
        if dev.size:
            assert (sweep.mean[i], sweep.mn[i], sweep.mx[i]) == (dev.mean(), dev.min(), dev.max())
    assert dummy_only_failed > 0 or not eng.dummy


def test_partial_sum_reduction_on_random_data(rng):
    # the static flip caps every stored column's one-count at n/2, so the
    # mean ideal AND sum can only fall
    layers = [LayerSpec("fc1", "dense", BinaryTensor(rng.choice([-1, 1], size=(100, 40))))]
    x = rng.choice([-1, 1], size=(30, 100)).astype(np.float64)
    on, off = (Engine(EngineConfig(n=64, m=16, nonidealities=False, binsparx=b))
               .infer(layers, x).stats for b in (True, False))
    assert on.histogram().sum() == off.histogram().sum() == 30 * 2 * 40
    assert on.mean_ideal_sum() <= off.mean_ideal_sum()


def test_solver_validation_suite_passes():
    rep = solver_validation_suite(trials=2, seed=0)
    assert [(c["preset"], c["i_on"]) for c in rep["corners"]] == [
        (preset, i_on) for preset in ("M3", "M4", "M6") for i_on in (1e-6, 2e-6)
    ]
    assert all(c["trials"] == 2 and c["nonconverged"] == 0 for c in rep["corners"])
    assert rep["max_rel_error"] <= rep["budget"] == 0.005
    assert rep["zero_parasitic_rel_error"] <= 1e-9
    assert rep["linear_closed_form_rel_error"] <= 1e-9
    assert rep["passed"] is True


@pytest.mark.parametrize("seed", range(5))
def test_solver_validation_suite_anchored_dense_solves_converge(monkeypatch, seed):
    # at tol 1e-12, below the oracle's round-off floor, the anchored dense
    # solves ran all 60 iterations unconverged and the suite read i_out anyway
    anchored = []

    def recording(p, tol=1e-6, max_iter=60):
        res = solve_column_dense(p, tol=tol, max_iter=max_iter)
        if p.device.i_off == 0.0:  # the anchored checks' clean devices
            anchored.append(res)
        return res

    monkeypatch.setattr(analysis, "solve_column_dense", recording)
    rep = solver_validation_suite(trials=1, seed=seed)
    assert len(anchored) == 2
    assert all(res.converged and res.iterations <= 1 for res in anchored)
    assert rep["anchored_converged"] is True and rep["passed"] is True


def test_solver_validation_suite_fails_when_an_anchored_solve_does_not_converge(monkeypatch):
    def unconverged(p, tol=1e-6, max_iter=60):
        res = solve_column_dense(p, tol=tol, max_iter=max_iter)
        return replace(res, converged=False) if p.device.i_off == 0.0 else res

    monkeypatch.setattr(analysis, "solve_column_dense", unconverged)
    rep = solver_validation_suite(trials=1, seed=0)
    assert rep["linear_closed_form_rel_error"] <= 1e-9
    assert rep["anchored_converged"] is False and rep["passed"] is False


def test_solver_validation_suite_fails_when_a_corner_solve_does_not_converge(monkeypatch):
    def unconverged(p, tol=1e-6, max_iter=60):
        res = solve_column_dense(p, tol=tol, max_iter=max_iter)
        return replace(res, converged=False) if p.device.i_off > 0.0 else res

    monkeypatch.setattr(analysis, "solve_column_dense", unconverged)
    rep = solver_validation_suite(trials=2, seed=0)
    assert [c["nonconverged"] for c in rep["corners"]] == [2] * 6
    assert rep["max_rel_error"] <= rep["budget"] and rep["anchored_converged"] is True
    assert rep["passed"] is False


def test_solver_validation_suite_rejects_an_unknown_kind_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a corner")

    monkeypatch.setattr("binsparx.analysis.solve_columns_fast", no_solve)
    with pytest.raises(ConfigError, match="pcm"):
        solver_validation_suite(trials=1, seed=0, device_kind="pcm")


@pytest.mark.parametrize("trials", [0, -2])
def test_solver_validation_suite_rejects_no_trials(trials):
    with pytest.raises(ConfigError, match="trials"):
        solver_validation_suite(trials=trials, seed=0)


def test_solver_validation_suite_fails_over_budget():
    rep = solver_validation_suite(trials=2, seed=0, budget=0.0)
    assert rep["max_rel_error"] > 0.0
    assert rep["passed"] is False
