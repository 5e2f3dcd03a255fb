import numpy as np
import pytest

from binsparx import solver
from binsparx.devices import DeviceLut, DeviceModel, WireModel
from binsparx.errors import DomainError, ShapeError
from binsparx.solver import (
    ColumnProblem,
    FastBatchResult,
    _cell_voltages,
    _compress,
    _cumsum_rows,
    _Ladder,
    _ladder_sweep,
    _Workspace,
    solve_column_dense,
    solve_columns_fast,
)

from conftest import make_lut_from_model, nodal_reference_linear

V = 0.7
EXTREME = WireModel(1e5, 1e5, 1e6, 0.0)
# stiff enough that full bias starves the columns with many ON cells only
MIXED = WireModel(1e3, 1e3, 1e3, 0.0)


def _problem(stored, gates, device=None, wire=None):
    stored = np.asarray(stored)
    return ColumnProblem(
        n=len(stored),
        stored_bits=stored,
        gate_bits=np.asarray(gates),
        device=device or DeviceModel.sram8t(),
        wire=wire or WireModel.preset("M3"),
        v_drive=V,
    )


def _fast(p, **kw):
    """``solve_columns_fast`` on one problem: a batch of one column."""
    return solve_columns_fast(p.stored_bits, p.gate_bits, p.device, p.wire, p.v_drive, **kw)


def _columns_with_on(rng, xs, n=64):
    """(stored, gates) columns with xs[b] coincident ON cells; the other
    rows draw uniformly from the three non-ON pairs."""
    xs = np.asarray(xs)
    on = np.argsort(rng.random((xs.size, n)), axis=1) < xs[:, None]
    combo = rng.integers(0, 3, (xs.size, n))
    return np.where(on | (combo == 2), 1, 0), np.where(on | (combo == 1), 1, 0)


def _clean_device(**kw):
    return DeviceModel(kind="sram8t", i_on=1e-6, i_hrs=0.0, i_off=0.0, **kw)


class TestDegenerate:
    def test_zero_parasitics_exact(self, rng):
        dev = _clean_device()
        wire = WireModel(0.0, 0.0, 0.0, 0.0)
        stored = rng.integers(0, 2, 64)
        gates = rng.integers(0, 2, 64)
        k = int(((stored > 0) & (gates > 0)).sum())
        p = _problem(stored, gates, dev, wire)
        fast, dense = _fast(p), solve_column_dense(p)
        assert fast.converged[0] and dense.converged
        assert fast.i_out[0] == pytest.approx(k * 1e-6, rel=1e-12)
        assert dense.i_out == pytest.approx(k * 1e-6, rel=1e-12)

    def test_all_gates_off(self):
        dev = DeviceModel.sram8t()
        p = _problem(np.ones(16, int), np.zeros(16, int), dev, WireModel.preset("M4"))
        assert _fast(p).i_out[0] == pytest.approx(16 * dev.i_off, rel=1e-9)


class TestFastVsDense:
    def test_small_worked_case(self):
        wire = WireModel(20.0, 20.0, 1000.0, 1000.0)
        stored = np.array([1, 1, 1, 0])
        gates = np.array([1, 1, 1, 1])
        p = _problem(stored, gates, DeviceModel.sram8t(), wire)
        a = _fast(p, tol=1e-9)
        b = solve_column_dense(p, tol=1e-9)
        assert a.converged[0] and b.converged
        assert abs(a.i_out[0] - b.i_out) / b.i_out < 1e-3

    @pytest.mark.parametrize("preset", ["M3", "M4", "M6"])
    @pytest.mark.parametrize("i_on", [1e-6, 2e-6])
    def test_random_columns(self, rng, preset, i_on):
        dev = DeviceModel.sram8t(i_on)
        wire = WireModel.preset(preset)
        for _ in range(20):
            stored = rng.integers(0, 2, 64)
            gates = rng.integers(0, 2, 64)
            p = _problem(stored, gates, dev, wire)
            a = _fast(p, tol=1e-9, max_iter=2000)
            b = solve_column_dense(p, tol=1e-9)
            assert a.converged[0] and b.converged
            ref = max(b.i_out, dev.i_off * 64)
            assert abs(a.i_out[0] - b.i_out) / ref < 0.005

    @pytest.mark.parametrize("wire", [WireModel.preset("M3"), WireModel.preset("M4"), EXTREME],
                             ids=["M3", "M4", "extreme"])
    @pytest.mark.parametrize("factory", [DeviceModel.sram8t, DeviceModel.reram1t1r])
    def test_lut_backed_cells(self, rng, factory, wire):
        dev = factory()
        dev.lut_stored1 = make_lut_from_model(factory(), 1)
        dev.lut_stored0 = make_lut_from_model(factory(), 0)
        stored, gates = rng.integers(0, 2, (2, 8, 64))
        stored[0] = gates[0] = 1
        fast = solve_columns_fast(stored, gates, dev, wire, V, tol=1e-9, max_iter=2000)
        assert fast.converged.all()
        for t in range(len(stored)):
            b = solve_column_dense(_problem(stored[t], gates[t], dev, wire), tol=1e-9)
            assert b.converged
            ref = max(b.i_out, dev.i_off * 64)
            assert abs(fast.i_out[t] - b.i_out) / ref < 0.005


class TestDenseOracle:
    @pytest.mark.parametrize("wire", [WireModel.preset("M3"), EXTREME], ids=["M3", "extreme"])
    def test_against_independent_nodal_solve(self, rng, wire):
        # ohmic cells at three conductances (ON, HRS, gate off), no ladder sweep
        dev = DeviceModel(kind="reram1t1r", i_on=1e-6, i_hrs=1e-7, i_off=0.0, curve="linear")
        for n in (1, 2, 5, 64):
            stored = rng.integers(0, 2, n)
            gates = rng.integers(0, 2, n)
            g = np.where(gates > 0, np.where(stored > 0, dev.i_on, dev.i_hrs) / V, 0.0)
            i_ref, vb_ref, vs_ref = nodal_reference_linear(
                g, wire.r_bl_per_cell, wire.r_sl_per_cell, wire.r_driver, V
            )
            res = solve_column_dense(_problem(stored, gates, dev, wire), tol=1e-10)
            assert res.converged
            assert res.i_out == pytest.approx(i_ref, rel=1e-11, abs=1e-20)
            assert np.abs(res.v_bl - vb_ref).max() < 1e-12
            assert np.abs(res.v_sl - vs_ref).max() < 1e-12

    def test_integer_resistances(self, rng):
        # a WireModel built from ints solves exactly like its float twin
        stored, gates = rng.integers(0, 2, 16), rng.integers(0, 2, 16)
        ints = solve_column_dense(_problem(stored, gates, wire=WireModel(40, 0, 1000, 0)))
        floats = solve_column_dense(_problem(stored, gates, wire=WireModel(40.0, 0.0, 1000.0, 0.0)))
        assert ints.converged and ints.i_out == floats.i_out

    @pytest.mark.parametrize("ints,floats", [
        (WireModel(40, 0), WireModel(40.0, 0.0)),
        (WireModel(25, 25), WireModel(25.0, 25.0)),
        (WireModel(40, 0, 1000, 0), WireModel(40.0, 0.0, 1000.0, 0.0)),
    ], ids=["int-bl", "int-both", "all-int"])
    def test_integer_resistances_fast(self, rng, ints, floats):
        # the fast solver too: int resistances next to a float driver lump
        stored, gates = rng.integers(0, 2, (2, 6, 16))
        gates[0] = 1
        a = solve_columns_fast(stored, gates, DeviceModel.reram1t1r(), ints, V)
        b = solve_columns_fast(stored, gates, DeviceModel.reram1t1r(), floats, V)
        assert a.converged.all()
        np.testing.assert_array_equal(a.i_out, b.i_out)
        np.testing.assert_array_equal(a.iterations, b.iterations)


def _full_ladder(wire, n, width=1):
    """The segments of ``wire`` at every one of n rows, no leak offset:
    the uncompressed ladder of ``width`` columns."""
    r_bl = np.full((n, width), float(wire.r_bl_per_cell))
    r_bl[0] += wire.r_driver
    return _Ladder(r_bl, np.full((n, width), float(wire.r_sl_per_cell)), np.zeros((n, width)))


def _voltages(i_cell, wire):
    """``_cell_voltages`` of the uncompressed ladder into fresh buffers."""
    return _cell_voltages(i_cell, _full_ladder(wire, *i_cell.shape), V,
                          np.empty_like(i_cell), np.empty_like(i_cell))


def _sweep(g, wire):
    """One ladder sweep of ohmic cells g (one column): (cell currents, cell voltages)."""
    g = np.array(g, dtype=np.float64)[:, None]  # a copy: the sweep spends its inputs
    i_cell = _ladder_sweep(g, np.zeros_like(g), _full_ladder(wire, len(g)), V,
                           _Workspace(*g.shape))
    return i_cell[:, 0], _voltages(i_cell, wire)[:, 0]


class TestLinearLadder:
    """The fast solver's sweep on ohmic cells, where it is the closed form."""

    def test_single_cell_divider(self):
        # one ohmic cell: i = g*v / (1 + g*(r_drv + r_bl + r_sl))
        wire = WireModel(20.0, 30.0, 1000.0, 0.0)
        g = np.array([1e-6 / V])
        i_cell, v_cell = _sweep(g, wire)
        expect = g[0] * V / (1 + g[0] * (1000.0 + 20.0 + 30.0))
        assert i_cell[0] == pytest.approx(expect, rel=1e-12)
        assert v_cell[0] == pytest.approx(V - (1000.0 + 20.0 + 30.0) * expect, rel=1e-12)

    def test_against_independent_nodal_solve(self, rng):
        for wire in (WireModel(40.0, 40.0, 1000.0, 1000.0), EXTREME):
            for n in (2, 5, 64):
                g = np.where(rng.integers(0, 2, n) > 0, 1e-6 / V, 0.0)
                if g.sum() == 0:
                    g[0] = 1e-6 / V
                i_cell, v_cell = _sweep(g, wire)
                i_ref, vb_ref, vs_ref = nodal_reference_linear(
                    g, wire.r_bl_per_cell, wire.r_sl_per_cell, wire.r_driver, V
                )
                assert i_cell.sum() == pytest.approx(i_ref, rel=1e-11)
                assert np.abs(v_cell - (vb_ref - vs_ref)).max() < 1e-12

    @pytest.mark.parametrize(
        "wire",
        [
            WireModel(0.0, 0.0, 0.0, 0.0),
            WireModel(20.0, 0.0, 0.0, 0.0),
            WireModel(0.0, 30.0, 1000.0, 0.0),
            WireModel(0.0, 0.0, 1000.0, 0.0),
            WireModel(40.0, 40.0, 0.0, 0.0),
        ],
        ids=lambda w: f"{w.r_bl_per_cell:g}-{w.r_sl_per_cell:g}-{w.r_driver:g}",
    )
    def test_zero_resistance_against_dense(self, rng, wire):
        # the conftest oracle divides by every resistance; the dense solver
        # collapses zero-resistance segments exactly instead
        dev = _clean_device(curve="linear")
        stored = rng.integers(0, 2, 64)
        gates = rng.integers(0, 2, 64)
        g = np.where((stored > 0) & (gates > 0), dev.i_on / V, 0.0)
        i_cell, v_cell = _sweep(g, wire)
        p = _problem(stored, gates, dev, wire)
        res = solve_column_dense(p, tol=1e-10)
        assert res.converged
        assert i_cell.sum() == pytest.approx(res.i_out, rel=1e-9)
        assert np.abs(v_cell - (res.v_bl - res.v_sl)).max() < 1e-9
        fast = _fast(p, tol=1e-12)
        assert fast.converged[0]
        assert fast.i_out[0] == pytest.approx(res.i_out, rel=1e-9)

    def test_dense_solver_matches_closed_form(self, rng):
        dev = _clean_device(curve="linear")
        wire = WireModel.preset("M3")
        stored = rng.integers(0, 2, 64)
        gates = rng.integers(0, 2, 64)
        g = np.where((stored > 0) & (gates > 0), dev.i_on / V, 0.0)
        i_cf = _sweep(g, wire)[0].sum()
        p = _problem(stored, gates, dev, wire)
        res = solve_column_dense(p, tol=1e-12)
        assert abs(res.i_out - i_cf) / i_cf < 1e-9
        # the Newton solve takes that one sweep and stops
        fast = _fast(p, tol=1e-12)
        assert fast.converged[0] and fast.iterations[0] == 2
        assert abs(fast.i_out[0] - i_cf) / i_cf < 1e-12


def _green(wire, n):
    """M[k, j]: the drop at row k's cell per ampere drawn at row j, from the
    module docstring's formula."""
    k, j = np.indices((n, n))
    return (wire.r_driver + wire.r_bl_per_cell * (np.minimum(k, j) + 1)
            + wire.r_sl_per_cell * (n - np.maximum(k, j)))


def _gate_mix(rng, n):
    """(stored, gates) columns with 0, 1, n, conv-like (rows 0-8 only) and
    random gate-on counts, one random gate row repeated apart."""
    gates = (rng.random((12, n)) < rng.random((12, 1))).astype(int)
    gates[0] = 0
    gates[1] = 0
    gates[1, 0] = 1
    gates[2] = 0
    gates[2, n - 1] = 1
    gates[3] = 1
    gates[4:7] = 0
    gates[4:7, :9] = rng.integers(0, 2, (3, 9))
    gates[9] = gates[7]
    return rng.integers(0, 2, (12, n)), gates


class TestCompressedLadder:
    """Gate-off cells folded into the wire, Newton over the gate-on rows."""

    @pytest.mark.parametrize("wire", [WireModel(20.0, 30.0, 1000.0, 0.0), EXTREME,
                                      WireModel(0.0, 40.0, 0.0, 0.0)],
                             ids=["distinct", "extreme", "zero-bl"])
    @pytest.mark.parametrize("n", [37, 64])
    def test_segments_and_offsets_equal_full_column(self, rng, wire, n):
        dev = DeviceModel.reram1t1r(i_off=1e-8)
        stored, gates = _gate_mix(rng, n)
        _, cells, ladder, leak = _compress(stored > 0, gates > 0, dev, wire)
        M = _green(wire, n)
        for b in range(len(gates)):
            p = np.flatnonzero(gates[b])
            m_b = p.size
            # the segments give M restricted to the gate-on rows
            rb, rs = ladder.r_bl[:m_b, b], ladder.r_sl[:m_b, b]
            s, t = np.indices((m_b, m_b))
            lo, hi = np.minimum(s, t), np.maximum(s, t)
            compressed = np.cumsum(rb)[lo] + np.cumsum(rs[::-1])[::-1][hi]
            assert np.allclose(compressed, M[np.ix_(p, p)], rtol=1e-13, atol=0)
            # dv and the leak total equal a full-n voltage pass over the
            # leak alone, driven at 0 V so that no V - drop cancels digits
            i_leak = np.where(gates[b] > 0, 0.0, dev.i_off)[:, None]
            drop = _cell_voltages(i_leak, _full_ladder(wire, n), 0.0, np.empty_like(i_leak),
                                  np.empty_like(i_leak))[:, 0]
            assert np.allclose(ladder.dv[:m_b, b], drop[p], rtol=1e-12, atol=1e-300)
            assert np.allclose(drop, -M @ i_leak[:, 0], rtol=1e-12, atol=1e-300)
            assert leak[b] == pytest.approx(i_leak.sum(), rel=1e-13)
            # padding rows: zero segments, no offset, no target current
            for a in (*ladder, cells.target):
                assert not a[m_b:, b].any()
            assert np.array_equal(cells.target[:m_b, b] > dev.i_hrs, stored[b, p] > 0)

    @pytest.mark.parametrize("wire,n", [(WireModel.preset("M3"), 64), (EXTREME, 16)],
                             ids=["M3", "extreme"])
    @pytest.mark.parametrize("factory", [DeviceModel.sram8t, DeviceModel.reram1t1r])
    def test_exaggerated_leak_against_dense(self, rng, factory, wire, n):
        # the default leaks are too small to show an offset error: at
        # i_off = 1e-8 a wrong dv moves i_out by far more than the tolerance
        dev = factory(i_hrs=max(factory().i_hrs, 1e-8), i_off=1e-8)
        stored, gates = _gate_mix(rng, n)
        fast = solve_columns_fast(stored, gates, dev, wire, V, tol=1e-10, max_iter=2000)
        assert fast.converged.all()
        for b in range(len(gates)):
            ref = solve_column_dense(_problem(stored[b], gates[b], dev, wire), tol=1e-10,
                                     max_iter=200)
            assert ref.converged
            assert fast.i_out[b] == pytest.approx(ref.i_out, rel=1e-8)

    @pytest.mark.parametrize("wire", [WireModel.preset("M4"), EXTREME, MIXED],
                             ids=["M4", "extreme", "mixed"])
    @pytest.mark.parametrize("factory", [DeviceModel.sram8t, DeviceModel.reram1t1r])
    def test_mixed_batch_equals_columns_alone(self, rng, factory, wire):
        # bit for bit: a column padded to the batch's largest gate-on count
        # solves exactly as it does alone, unpadded
        dev = factory()
        stored, gates = _gate_mix(rng, 64)
        batch = solve_columns_fast(stored, gates, dev, wire, V, max_iter=4000)
        assert batch.converged.all()
        for b in range(len(gates)):
            alone = solve_columns_fast(stored[b], gates[b], dev, wire, V, max_iter=4000)
            assert _same_result(alone, _column(batch, b))

    def test_compressed_sweep_equals_full_sweep(self, rng):
        # ohmic cells, no leak: the sweep over the gate-on rows alone gives
        # the full column's currents there
        wire = WireModel(20.0, 30.0, 1000.0, 0.0)
        dev = _clean_device(curve="linear")
        stored, gates = _gate_mix(rng, 64)
        ws, cells, ladder, _ = _compress(stored > 0, gates > 0, dev, wire)
        g = cells.target / V
        compressed = _ladder_sweep(g.copy(), np.zeros_like(g), ladder, V, ws)
        full = np.where((stored > 0) & (gates > 0), dev.i_on / V, 0.0).T
        full = _ladder_sweep(full, np.zeros_like(full), _full_ladder(wire, 64, len(gates)), V,
                             _Workspace(*full.shape))
        for b in range(len(gates)):
            p = np.flatnonzero(gates[b])
            assert np.allclose(compressed[: p.size, b], full[p, b], rtol=1e-12, atol=1e-300)
            assert not compressed[p.size :, b].any()


class TestResultInvariants:
    def test_conservation_and_bounds(self, rng):
        p = _problem(rng.integers(0, 2, 64), rng.integers(0, 2, 64))
        res = solve_column_dense(p, tol=1e-8)
        assert res.i_out == pytest.approx(res.i_cell.sum(), rel=1e-9)
        assert np.all(res.v_bl >= -1e-12) and np.all(res.v_bl <= V + 1e-12)
        assert np.all(res.v_sl >= -1e-12) and np.all(res.v_sl <= V + 1e-12)
        assert np.all(res.v_bl - res.v_sl >= -1e-12)  # no reverse-biased cells

    def test_monotone_degradation(self):
        stored = np.ones(64, int)
        prev = np.inf
        for r in (0.0, 5.0, 20.0, 40.0, 100.0):
            i_out = _fast(_problem(stored, stored, wire=WireModel(r, r, 1000.0, 0.0)),
                          tol=1e-9).i_out[0]
            assert i_out <= prev + 1e-15
            prev = i_out
        prev = np.inf
        for rd in (0.0, 500.0, 1000.0, 5000.0):
            i_out = _fast(_problem(stored, stored, wire=WireModel(20.0, 20.0, rd, 0.0)),
                          tol=1e-9).i_out[0]
            assert i_out <= prev + 1e-15
            prev = i_out

    def test_nonconvergence_is_flagged(self):
        p = _problem(np.ones(64, int), np.ones(64, int))
        res = _fast(p, tol=1e-12, max_iter=2)
        assert not res.converged[0]
        assert res.residual[0] > 1e-12
        assert res.iterations[0] == 2

    def test_batch_matches_single(self, rng):
        stored = rng.integers(0, 2, (10, 32))
        gates = rng.integers(0, 2, (10, 32))
        batch = solve_columns_fast(
            stored, gates, DeviceModel.sram8t(), WireModel.preset("M4"), V, tol=1e-9
        )
        for b in (0, 3, 9):
            single = _fast(_problem(stored[b], gates[b], wire=WireModel.preset("M4")), tol=1e-9)
            assert batch.i_out[b] == pytest.approx(single.i_out[0], rel=1e-12)
        assert batch.converged.all()

    @pytest.mark.parametrize("width", [1, 255, 256, 700])
    def test_row_sums_equal_numpy_cumsum(self, rng, width):
        # below 256 columns np.cumsum runs, from 256 the row-by-row loop:
        # both equal np.cumsum bit for bit, into a fresh buffer or in place
        a = rng.random((64, width)) * 1e-6
        for reverse, want in ((False, np.cumsum(a, axis=0)),
                              (True, np.cumsum(a[::-1], axis=0)[::-1])):
            assert np.array_equal(_cumsum_rows(a, np.empty_like(a), reverse), want)
            b = a.copy()
            assert _cumsum_rows(b, b, reverse) is b and np.array_equal(b, want)
        # the in-place cell voltages equal the np.cumsum formula, on
        # per-row segments with some 0 ohm ones
        r_bl, r_sl = np.where(rng.random((2, 64, width)) < 0.2, 0.0, rng.random((2, 64, width)) * 50)
        dv = -rng.random((64, width)) * 1e-3
        suffix = np.cumsum(a[::-1], axis=0)[::-1]
        want = V - np.cumsum(suffix * r_bl, axis=0)
        want -= np.cumsum((np.cumsum(a, axis=0) * r_sl)[::-1], axis=0)[::-1]
        want += dv
        out, tmp = np.full_like(a, np.nan), np.full_like(a, np.nan)
        assert _cell_voltages(a, _Ladder(r_bl, r_sl, dv), V, out, tmp) is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("wire", [WireModel.preset("M4"), EXTREME, MIXED],
                             ids=["M4", "extreme", "mixed"])
    def test_column_alone_equals_column_in_batch(self, rng, wire):
        # bit for bit: no column's answer may depend on its batch neighbours
        dev = DeviceModel.sram8t()
        if wire is MIXED:
            # x = 1..64 ON cells: one batch holds columns that start at full
            # bias and columns that full bias starves (ohmic start)
            stored, gates = _columns_with_on(rng, np.repeat(np.arange(1, 65), 5)[:300])
            v = _voltages(dev.currents(dev.cells(stored.T, gates.T), V), wire)
            starved = v.min(axis=0) < 0
            assert not starved[[0, 1]].any() and starved[[137, 299]].all()
        else:
            stored = rng.integers(0, 2, (300, 64))
            gates = rng.integers(0, 2, (300, 64))
        batch = solve_columns_fast(stored, gates, dev, wire, V, max_iter=4000)
        assert batch.converged.all()
        for b in (0, 1, 137, 299):
            alone = solve_columns_fast(stored[b], gates[b], dev, wire, V, max_iter=4000)
            assert alone.i_out[0] == batch.i_out[b]
            assert alone.iterations[0] == batch.iterations[b]

    def test_extreme_wire_converges(self, rng):
        # x = 0..64 coincident ON cells.  The ohmic start puts every starved
        # column a few Newton steps from its answer; from full bias these
        # columns took up to 35 iterations
        stored, gates = _columns_with_on(rng, np.arange(65))
        for dev in (DeviceModel.sram8t(), DeviceModel.reram1t1r()):
            res = solve_columns_fast(stored, gates, dev, EXTREME, V, max_iter=50)
            assert res.converged.all(), res.iterations
            assert res.iterations.max() <= 10, res.iterations
            for b in range(len(stored)):
                ref = solve_column_dense(_problem(stored[b], gates[b], dev, EXTREME),
                                         tol=1e-9, max_iter=200)
                assert ref.converged
                denom = max(ref.i_out, dev.i_off * 64)
                assert abs(res.i_out[b] - ref.i_out) / denom < 0.005

    def test_gate_broadcast(self, rng):
        stored = rng.integers(0, 2, (6, 16))
        gates = rng.integers(0, 2, 16)
        batch = solve_columns_fast(
            stored, gates, DeviceModel.sram8t(), WireModel.preset("M6"), V
        )
        assert batch.i_out.shape == (6,)


def _same_result(a, b) -> bool:
    """Two ``FastBatchResult``s equal bit for bit."""
    return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
               for f in ("i_out", "iterations", "converged", "residual"))


def _column(res, b):
    """Column ``b`` of a ``FastBatchResult`` as a batch of one."""
    return FastBatchResult(*(np.asarray(getattr(res, f))[b:b + 1]
                             for f in ("i_out", "iterations", "converged", "residual")))


class TestWorkspace:
    """Each call works in a workspace of its own, reused within the call."""

    def test_calls_leak_nothing(self, rng):
        dev, wire = DeviceModel.reram1t1r(), WireModel.preset("M3")
        narrow = rng.integers(0, 2, (2, 5, 64))
        wide = rng.integers(0, 2, (2, 700, 64))
        first = solve_columns_fast(*narrow, dev, wire, V)
        assert _same_result(first, solve_columns_fast(*narrow, dev, wire, V))
        wide_first = solve_columns_fast(*wide, dev, wire, V)
        assert _same_result(wide_first, solve_columns_fast(*wide, dev, wire, V))
        # a narrow call after a wide one reads nothing the wide one left
        assert _same_result(first, solve_columns_fast(*narrow, dev, wire, V))
        for b in (0, 4, 699):
            alone = solve_columns_fast(wide[0][b], wide[1][b], dev, wire, V)
            assert _same_result(alone, _column(wide_first, b))

    def test_backtracking_batch_equals_columns_alone(self, rng, monkeypatch):
        # x = 0..64 ON cells at extreme wire: some Newton step overshoots and
        # is halved, on the failing columns alone
        halvings, inside = [0], [False]
        newton_trial, residual = solver._newton_trial, solver._residual

        def counting_trial(*args):
            inside[0] = True
            halvings[0] -= 1  # the full step's own residual
            try:
                return newton_trial(*args)
            finally:
                inside[0] = False

        def counting_residual(*args):
            halvings[0] += inside[0]
            return residual(*args)

        monkeypatch.setattr(solver, "_newton_trial", counting_trial)
        monkeypatch.setattr(solver, "_residual", counting_residual)
        stored, gates = _columns_with_on(rng, np.arange(65))
        dev = DeviceModel.sram8t()
        batch = solve_columns_fast(stored, gates, dev, EXTREME, V, max_iter=4000)
        assert halvings[0] > 0
        assert batch.converged.all()
        for b in range(len(stored)):
            alone = solve_columns_fast(stored[b], gates[b], dev, EXTREME, V, max_iter=4000)
            assert _same_result(alone, _column(batch, b))


    @pytest.mark.parametrize("wire", [WireModel.preset("M3"), EXTREME], ids=["M3", "extreme"])
    def test_reserve_changes_no_result(self, rng, monkeypatch, wire):
        # a call of more than half of _call_cells(n) gate-on cells reserves
        # that many, with its slabs packed at the start; extreme wire runs
        # the ohmic start, which takes every slab
        assert _Workspace(4, 10, 70)._memory.size == solver._SLABS * 70
        assert _Workspace(4, 10, 100)._memory.size == solver._SLABS * 40
        assert _Workspace(4, 10, 30)._memory.size == solver._SLABS * 40
        sizes = []

        class Recording(_Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                sizes.append(self._memory.size // solver._SLABS)

        monkeypatch.setattr(solver, "_Workspace", Recording)
        # 17 columns, the last all ON: m x columns = 64 x 17 = 1088 cells
        stored, gates = _columns_with_on(rng, np.arange(0, 65, 4))
        dev = DeviceModel.reram1t1r()
        plain = solve_columns_fast(stored, gates, dev, wire, V, max_iter=4000)
        # caps of 32, 1088 and 1920 cells at n=64
        for call_columns in (1, 34, 60):
            monkeypatch.setattr(solver, "_CALL_COLUMNS", call_columns)
            wide = solve_columns_fast(stored, gates, dev, wire, V, max_iter=4000)
            assert _same_result(wide, plain)
        assert sizes == [1088, 1088, 1088, 1920]


def _plateau_device():
    """SRAM cells whose stored-1 branch is a table that is flat from 0.4 V
    up: a fixed-point trial that lifts a cell onto the plateau draws the
    full-bias current again, so it does not lower the residual."""
    dev = DeviceModel.sram8t()
    dev.lut_stored1 = DeviceLut([0.0, 0.2, 0.4, 1.0], [0.0, 0.1e-6, 1e-6, 1e-6])
    return dev


def _record_trials(monkeypatch) -> list:
    """Patch the fixed-point step to log each column's outcome per trial:
    S kept and staying in the phase, K kept but switching to Newton, U
    undone (and switching)."""
    log, trial = [], solver._fixed_point_trial

    def recording(i_cell, v, f, res, width, stay, *args):
        last = res[:width].copy()
        out = trial(i_cell, v, f, res, width, stay, *args)
        log.extend("S" if s else "K" if kept else "U" for s, kept in zip(stay, res[:width] < last))
        return out

    monkeypatch.setattr(solver, "_fixed_point_trial", recording)
    return log


class TestFixedPointPhase:
    """Columns open with steps i <- f(v(i)) before Newton, each on its own."""

    def test_column_alone_equals_column_in_batch(self, rng, monkeypatch):
        # x = 1..64 ON cells on the plateau device: columns that converge in
        # the phase, switch after a kept or an undone trial, or are starved
        dev = _plateau_device()
        stored, gates = _columns_with_on(rng, np.arange(1, 65))
        log = _record_trials(monkeypatch)
        batch = solve_columns_fast(stored, gates, dev, MIXED, V, max_iter=4000)
        assert batch.converged.all()
        seen = set()
        for b in range(len(stored)):
            log.clear()
            alone = solve_columns_fast(stored[b], gates[b], dev, MIXED, V, max_iter=4000)
            assert _same_result(alone, _column(batch, b))
            trials = "".join(log)
            if trials and set(trials) == {"S"} and alone.iterations[0] == 1 + len(trials):
                seen.add("converged in the phase")
            seen.update({"K": ["switched after a kept trial"],
                         "U": ["switched after an undone trial"]}.get(trials[-1:], []))
            if not trials and alone.iterations[0] > 1:
                seen.add("starved")
        assert seen == {"converged in the phase", "switched after a kept trial",
                        "switched after an undone trial", "starved"}

    def test_undone_trial_restores_the_column(self, rng, monkeypatch):
        # a column whose first trial is undone goes on from its start point:
        # the result of a run without the phase, one iteration later
        dev = _plateau_device()
        stored, gates = _columns_with_on(rng, np.arange(1, 65))
        log = _record_trials(monkeypatch)
        undone = []
        for b in range(len(stored)):
            log.clear()
            res = solve_columns_fast(stored[b], gates[b], dev, MIXED, V, max_iter=4000)
            if log == ["U"]:
                undone.append((b, res))
        assert undone
        monkeypatch.setattr(solver, "_fixed_point_columns",
                            lambda device, starved: np.zeros_like(starved))
        for b, res in undone:
            plain = solve_columns_fast(stored[b], gates[b], dev, MIXED, V, max_iter=4000)
            plain = FastBatchResult(plain.i_out, plain.iterations + 1, plain.converged,
                                    plain.residual)
            assert _same_result(res, plain)

    @pytest.mark.parametrize("preset", ["M3", "M4", "M6"])
    @pytest.mark.parametrize("kind", ["sram", "reram", "lut"])
    def test_fast_against_dense(self, rng, monkeypatch, preset, kind):
        factory = DeviceModel.reram1t1r if kind == "reram" else DeviceModel.sram8t
        dev = factory()
        if kind == "lut":
            dev.lut_stored1 = make_lut_from_model(factory(), 1)
            dev.lut_stored0 = make_lut_from_model(factory(), 0)
        wire = WireModel.preset(preset)
        stored, gates = _columns_with_on(rng, np.arange(0, 65, 4))
        log = _record_trials(monkeypatch)
        fast = solve_columns_fast(stored, gates, dev, wire, V, tol=1e-9, max_iter=2000)
        assert fast.converged.all() and "S" in log
        for b in range(len(stored)):
            ref = solve_column_dense(_problem(stored[b], gates[b], dev, wire), tol=1e-9)
            assert ref.converged
            # the validation suite's budget is 0.005; both solves converge to 1e-9
            assert abs(fast.i_out[b] - ref.i_out) / max(ref.i_out, dev.i_off * 64) < 1e-6

    @pytest.mark.parametrize("case", ["starved", "linear"])
    def test_skipping_columns_take_no_step(self, rng, monkeypatch, case):
        if case == "starved":
            dev, wire = DeviceModel.sram8t(), EXTREME
            stored, gates = _columns_with_on(rng, np.arange(4, 65, 4))
            v = _voltages(dev.currents(dev.cells(stored.T, gates.T), V), wire)
            assert (v.min(axis=0) < 0).all()
        else:
            dev, wire = _clean_device(curve="linear"), WireModel.preset("M3")
            stored, gates = rng.integers(0, 2, (2, 40, 64))
        log = _record_trials(monkeypatch)
        phased = solve_columns_fast(stored, gates, dev, wire, V, max_iter=4000)
        assert not log
        monkeypatch.setattr(solver, "_fixed_point_columns",
                            lambda device, starved: np.zeros_like(starved))
        assert _same_result(phased, solve_columns_fast(stored, gates, dev, wire, V, max_iter=4000))

    def test_column_in_the_phase_at_max_iter_is_flagged(self, monkeypatch):
        # 8 ON cells at M6 contract by far more than 8x per step, so both
        # trials keep the column in the phase, short of 1e-15
        log = _record_trials(monkeypatch)
        newton = []
        monkeypatch.setattr(solver, "_newton_trial", lambda *args: newton.append(1))
        col = (np.arange(64) < 8).astype(int)
        res = solve_columns_fast(col, col, DeviceModel.sram8t(), WireModel.preset("M6"), V,
                                 tol=1e-15, max_iter=3)
        assert log == ["S", "S"] and not newton
        assert not res.converged[0] and res.iterations[0] == 3 and res.residual[0] >= 1e-15


class TestProblemValidation:
    def test_zero_rows_are_refused(self):
        # unchecked, the fast solver raised numpy's zero-size ValueError and
        # the dense one an IndexError
        dev, wire = DeviceModel.sram8t(), WireModel.preset("M3")
        with pytest.raises(ShapeError, match=r"\(3, 0\)"):
            solve_columns_fast(np.zeros((3, 0)), np.zeros((3, 0)), dev, wire, V)
        with pytest.raises(ShapeError, match=r"\(0,\)"):
            ColumnProblem(0, np.zeros(0), np.zeros(0), dev, wire, V)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ColumnProblem(4, np.ones(3, int), np.ones(4, int),
                          DeviceModel.sram8t(), WireModel.preset("M3"), V)

    def test_bad_bits(self):
        with pytest.raises(DomainError):
            ColumnProblem(2, np.array([0, 2]), np.array([1, 1]),
                          DeviceModel.sram8t(), WireModel.preset("M3"), V)

    def test_bad_drive(self):
        with pytest.raises(DomainError):
            ColumnProblem(2, np.ones(2, int), np.ones(2, int),
                          DeviceModel.sram8t(), WireModel.preset("M3"), 0.0)

    @pytest.mark.parametrize("v_drive", [0.0, -0.7, np.nan, np.inf])
    def test_drive_must_be_finite_and_positive(self, v_drive):
        # unchecked, the fast solver returned 0 A flagged converged at 0 and
        # -0.7 V, a finite current flagged converged at inf, and NaN at NaN
        ones = np.ones(4, int)
        with pytest.raises(DomainError, match="v_drive"):
            solve_columns_fast(ones, ones, DeviceModel.sram8t(), WireModel.preset("M3"), v_drive)
        with pytest.raises(DomainError, match="v_drive"):
            ColumnProblem(4, ones, ones, DeviceModel.sram8t(), WireModel.preset("M3"), v_drive)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        # inf would accept any start point, nan would run every column to max_iter
        p = _problem(np.ones(4, int), np.ones(4, int))
        with pytest.raises(DomainError, match="tol"):
            _fast(p, tol=tol)
        with pytest.raises(DomainError, match="tol"):
            solve_column_dense(p, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "5"])
    def test_max_iter_must_be_a_positive_int(self, max_iter):
        # 0 and -3 returned a flagged result with 0 and -3 iterations, 2.5 a
        # bare TypeError
        p = _problem(np.ones(4, int), np.ones(4, int))
        with pytest.raises(DomainError, match="max_iter"):
            _fast(p, max_iter=max_iter)
        with pytest.raises(DomainError, match="max_iter"):
            solve_column_dense(p, max_iter=max_iter)

    def test_max_iter_accepts_numpy_ints(self):
        p = _problem(np.ones(4, int), np.ones(4, int))
        assert _fast(p, max_iter=np.int64(1)).iterations[0] == 1
        assert solve_column_dense(p, max_iter=np.int32(50)).converged

    def test_solver_arg_validation(self):
        # tol and max_iter are keyword-only, so a stray sixth positional
        # argument is refused rather than read as a tolerance
        with pytest.raises(TypeError, match="positional"):
            solve_columns_fast(np.ones(4), np.ones(4), DeviceModel.sram8t(),
                               WireModel.preset("M3"), V, "opposite")
