import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsparx import solver as solver_module
from binsparx.bnn import BinaryTensor
from binsparx.devices import DeviceModel, WireModel
from binsparx.engine import (
    Engine,
    EngineConfig,
    LayerSpec,
    RunStats,
    fold_batchnorm,
    im2col,
)
from binsparx.errors import (
    ConfigError,
    DomainError,
    FoldError,
    NonConvergenceError,
    ShapeError,
)
from binsparx.solver import ColumnProblem, solve_column_dense

from conftest import signed_vmm, software_bnn_forward


def _ideal(n=64, m=64, binsparx=True, **kw):
    return Engine(EngineConfig(n=n, m=m, binsparx=binsparx, nonidealities=False,
                               adc_bits="full", **kw))


class TestGoldenExactness:
    @pytest.mark.parametrize("binsparx", [False, True])
    @pytest.mark.parametrize("n,rows,cols", [(8, 8, 8), (8, 30, 17), (64, 128, 96),
                                             (64, 100, 100), (128, 128, 40)])
    def test_ideal_path_is_exact(self, rng, binsparx, n, rows, cols):
        eng = _ideal(n=n, m=n, binsparx=binsparx)
        W = rng.choice([-1, 1], size=(rows, cols)).astype(np.int8)
        A = rng.choice([-1, 1], size=(64, rows)).astype(np.int8)
        out = eng.vmm_batch(eng.prepare(W), A)
        assert np.array_equal(out, signed_vmm(A, W))

    def test_identity_pattern_closed_form(self):
        W = -np.ones((64, 64), dtype=np.int8)
        np.fill_diagonal(W, 1)
        eng = _ideal()
        out = eng.vmm_batch(eng.prepare(W), np.ones((1, 64), dtype=np.int8))
        assert out.shape == (1, 64) and np.all(out == -62)

    def test_tile_grid_independence(self, rng):
        W = rng.choice([-1, 1], size=(128, 128)).astype(np.int8)
        A = rng.choice([-1, 1], size=(16, 128)).astype(np.int8)
        outputs = []
        for n in (128, 64, 32):
            eng = _ideal(n=n, m=n)
            outputs.append(eng.vmm_batch(eng.prepare(W), A))
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[1], outputs[2])

    def test_binsparx_toggle_identical_ideal(self, rng):
        W = rng.choice([-1, 1], size=(128, 128)).astype(np.int8)
        A = rng.choice([-1, 1], size=(32, 128)).astype(np.int8)
        off = _ideal(binsparx=False).vmm_batch(_ideal(binsparx=False).prepare(W), A)
        on_eng = _ideal(binsparx=True)
        on = on_eng.vmm_batch(on_eng.prepare(W), A)
        assert np.array_equal(off, on)

    def test_shape_and_domain_errors(self, rng):
        eng = _ideal()
        prep = eng.prepare(rng.choice([-1, 1], size=(64, 8)))
        with pytest.raises(ShapeError):
            eng.vmm_batch(prep, np.ones((1, 63), dtype=np.int8))
        with pytest.raises(DomainError):
            eng.vmm_batch(prep, np.zeros((1, 64), dtype=np.int8))
        # |x| != 1 refuses what a {-1, +1} membership test refuses
        for bad in (np.int8(-128), np.nan, 1j, "1"):
            acts = np.ones((1, 64), dtype=np.asarray(bad).dtype)
            acts[0, 5] = bad
            with pytest.raises(DomainError):
                eng.vmm_batch(prep, acts)
        ok = np.where(np.arange(64) % 2, 1.0, -1.0)[None]
        assert np.array_equal(eng.vmm_batch(prep, ok), eng.vmm_batch(prep, ok.astype(np.int8)))


def _corner_counts(A, W, n):
    """Per (input, column): row tiles whose sparsified AND count is n/2.

    Written from the flip rules alone: a column is stored complemented when
    its signed sum over the tile's rows is >= 0, an activation is applied
    complemented when more than half its bits are 1."""
    counts = np.zeros((len(A), W.shape[1]), dtype=np.int64)
    for r0 in range(0, W.shape[0], n):
        w = W[r0 : r0 + n] > 0
        a = A[:, r0 : r0 + n] > 0
        rows = len(w)
        stored = np.where(2 * w.sum(axis=0) >= rows, ~w, w).astype(np.int64)
        applied = np.where((2 * a.sum(axis=1) > rows)[:, None], ~a, a).astype(np.int64)
        counts += (applied @ stored) == n // 2
    return counts


class TestReducedAdcCorner:
    """With BinSparX on, the auto ADC has log2(n) - 1 bits (levels 0..n/2 - 1),
    but a balanced column meeting the complementary balanced activation
    counts exactly n/2: that sum clamps to n/2 - 1, and nothing else does."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        full_tiles=st.integers(1, 2),
        extra_rows=st.sampled_from([0, 1, 37]),
        cols=st.integers(1, 12),
        batch=st.integers(1, 6),
        corners=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 11), st.integers(0, 1)),
                         max_size=6),
    )
    def test_clamps_exactly_at_half_n(self, seed, full_tiles, extra_rows, cols, batch, corners):
        n = 64
        rng = np.random.default_rng(seed)
        W = rng.choice([-1, 1], size=(n * full_tiles + extra_rows, cols)).astype(np.int8)
        A = rng.choice([-1, 1], size=(batch, W.shape[0])).astype(np.int8)
        for b, c, t in corners:
            rows = slice((t % full_tiles) * n, (t % full_tiles + 1) * n)
            col = np.where(rng.permutation(n) < n // 2, 1, -1).astype(np.int8)
            W[rows, c % cols] = col
            A[b % batch, rows] = -col
        counts = _corner_counts(A, W, n)
        if corners:  # the last seeded corner is never overwritten
            assert counts.sum() >= 1
        eng = Engine(EngineConfig(n=n, m=8, binsparx=True, nonidealities=False,
                                  adc_bits="auto"))
        assert eng.adc.levels == n // 2
        stats = RunStats(n)
        out = eng.vmm_batch(eng.prepare(W), A, stats=stats)
        assert stats.clamp_events == counts.sum()
        # raw n/2 - 1 instead of n/2 lowers the corrected value by 4; the
        # balanced column is always stored flipped and the balanced
        # activation never is, so the sign repair turns that into +4
        assert np.array_equal(out - signed_vmm(A, W), 4 * counts)


class TestNonIdealPath:
    def test_binsparx_reduces_digitization_error(self, rng):
        W = rng.choice([-1, 1], size=(64, 64)).astype(np.int8)
        A = rng.choice([-1, 1], size=(40, 64)).astype(np.int8)
        devs = {}
        for bsx in (False, True):
            cfg = EngineConfig(n=64, m=64, binsparx=bsx, nonidealities=True,
                               device=DeviceModel.sram8t(2e-6),
                               wire=WireModel.preset("M3"))
            eng = Engine(cfg)
            stats = RunStats(64)
            eng.vmm_batch(eng.prepare(W), A, stats=stats)
            devs[bsx] = stats.mean_abs_deviation()
        assert devs[True] < devs[False]

    def test_mild_preset_still_exact_after_rounding(self, rng):
        # M6 wiring perturbs currents by far less than half a quantum, so
        # the digitized sums round back to the ideal counts
        W = rng.choice([-1, 1], size=(64, 16)).astype(np.int8)
        A = rng.choice([-1, 1], size=(10, 64)).astype(np.int8)
        cfg = EngineConfig(n=64, m=64, binsparx=True, nonidealities=True,
                           device=DeviceModel.sram8t(),
                           wire=WireModel.preset("M6", r_driver=100.0))
        eng = Engine(cfg)
        out = eng.vmm_batch(eng.prepare(W), A)
        assert np.array_equal(out, signed_vmm(A, W))

    def test_nonconvergence_raises_without_best_effort(self, rng):
        W = rng.choice([-1, 1], size=(64, 4)).astype(np.int8)
        A = rng.choice([-1, 1], size=(2, 64)).astype(np.int8)
        # a one-iteration cap only evaluates the start point, which is far
        # from the answer at this wire
        base = dict(n=64, m=64, binsparx=False, nonidealities=True,
                    device=DeviceModel.sram8t(),
                    wire=WireModel(1e5, 1e5, 1e6, 1e6), solver_max_iter=1)
        eng = Engine(EngineConfig(**base))
        with pytest.raises(NonConvergenceError):
            eng.vmm_batch(eng.prepare(W), A)
        eng2 = Engine(EngineConfig(**base, best_effort=True))
        stats = RunStats(64)
        eng2.vmm_batch(eng2.prepare(W), A, stats=stats)
        assert stats.nonconverged > 0

    def test_solve_columns_passes_settings(self, rng):
        # the device's v_nominal drives the array: the answer is the oracle's
        dev, wire = DeviceModel.sram8t(v_nominal=0.55), WireModel.preset("M3")
        base = dict(n=32, m=32, device=dev, wire=wire)
        stored = rng.integers(0, 2, (6, 32))
        gates = rng.integers(0, 2, (6, 32))
        i_out, conv = Engine(EngineConfig(**base, solver_tol=1e-10)).solve_columns(stored, gates)
        assert conv.all()
        for b in range(len(stored)):
            p = ColumnProblem(32, stored[b], gates[b], dev, wire, 0.55)
            ref = solve_column_dense(p, tol=1e-10)
            assert ref.converged
            assert i_out[b] == pytest.approx(ref.i_out, rel=1e-9)
        # tol and max_iter too: iteration 1 is the start point, which only
        # a loose tolerance accepts
        _, conv = Engine(EngineConfig(**base, solver_max_iter=1)).solve_columns(stored, gates)
        assert not conv.any()
        loose = EngineConfig(**base, solver_tol=1.0, solver_max_iter=1)
        _, conv = Engine(loose).solve_columns(stored, gates)
        assert conv.all()

    def test_dummy_solved_once_per_row_tile(self, rng, monkeypatch):
        # the dummy depends only on a row tile's gate row: 5 inputs x 2 row
        # tiles x 2 arrays need 10 dummy solves, not 20, each riding beside
        # its gate row's 128 columns
        calls = []  # (columns, dummy columns) per call
        solve = Engine.solve_columns

        def counting(self, stored, gates):
            calls.append((len(gates), int((~np.asarray(stored).any(axis=1)).sum())))
            return solve(self, stored, gates)

        monkeypatch.setattr(Engine, "solve_columns", counting)
        W = rng.choice([-1, 1], size=(128, 128)).astype(np.int8)
        A = rng.choice([-1, 1], size=(5, 128)).astype(np.int8)
        for domain in ("analog", "digital"):
            eng = Engine(EngineConfig(n=64, m=64, binsparx=False,
                                      device=DeviceModel.reram1t1r(), dummy_domain=domain))
            calls.clear()
            eng.vmm_batch(eng.prepare(W), A)
            assert sum(dummy for _, dummy in calls) == 10
            assert all(columns == 129 * dummy for columns, dummy in calls)

    @pytest.mark.parametrize("binsparx", [False, True])
    @pytest.mark.parametrize("domain", ["analog", "digital"])
    @pytest.mark.parametrize("device", [
        DeviceModel.reram1t1r(curve="linear"),
        # an SRAM stored-0 cell draws the configured i_hrs too
        DeviceModel.sram8t(curve="linear", i_hrs=1e-7),
    ], ids=["reram", "sram-i_hrs"])
    def test_dummy_exact_without_parasitics(self, rng, device, domain, binsparx):
        # linear cells, zero wire resistance: the dummy cancels the HRS term
        # and the compensated quantum i_on - i_hrs reads every count exactly
        W = rng.choice([-1, 1], size=(64, 32)).astype(np.int8)
        A = rng.choice([-1, 1], size=(16, 64)).astype(np.int8)
        cfg = EngineConfig(n=64, m=64, binsparx=binsparx, nonidealities=True,
                           device=device, wire=WireModel(0.0, 0.0, 0.0, 0.0),
                           adc_bits="full", dummy_enabled=True, dummy_domain=domain)
        eng = Engine(cfg)
        assert eng.dummy
        out = eng.vmm_batch(eng.prepare(W), A)
        assert np.array_equal(out, signed_vmm(A, W))

    def test_determinism(self, rng):
        W = rng.choice([-1, 1], size=(64, 32)).astype(np.int8)
        A = rng.choice([-1, 1], size=(8, 64)).astype(np.int8)
        cfg = EngineConfig(n=64, m=64, binsparx=True, nonidealities=True,
                           device=DeviceModel.reram1t1r(),
                           wire=WireModel.preset("M3"))
        a = Engine(cfg).vmm_batch(Engine(cfg).prepare(W), A)
        b = Engine(cfg).vmm_batch(Engine(cfg).prepare(W), A)
        assert np.array_equal(a, b)


STIFF = WireModel(1e5, 1e5, 1e6, 1e6)


class TestColumnDeduplication:
    """Each distinct post-flip gate row of a row tile is solved once."""

    @pytest.mark.parametrize("binsparx", [False, True])
    @pytest.mark.parametrize("wire", [WireModel.preset("M3"), STIFF], ids=["M3", "stiff"])
    # a 2-bit ADC and a strong HRS current: data and digital dummy levels clamp
    @pytest.mark.parametrize("device, domain", [
        (DeviceModel.sram8t(), "analog"),
        (DeviceModel.reram1t1r(i_hrs=2.5e-7), "analog"),
        (DeviceModel.reram1t1r(i_hrs=2.5e-7), "digital"),
    ], ids=["sram", "reram-analog", "reram-digital"])
    def test_repeated_rows_equal_rows_alone(self, rng, device, domain, wire, binsparx):
        # 300 rows drawn from 20 distinct ones (5 of them complements of
        # others): outputs and stats equal each distinct row run alone.
        # Ragged tiles: row tiles of 32 and 18 rows, arrays of 16 and 4 columns.
        W = rng.choice([-1, 1], size=(50, 20)).astype(np.int8)
        base = rng.choice([-1, 1], size=(15, 50)).astype(np.int8)
        distinct = np.concatenate([base, -base[:5]])
        pick = rng.integers(0, len(distinct), 300)
        cfg = EngineConfig(n=32, m=16, binsparx=binsparx, device=device, wire=wire,
                           dummy_domain=domain, adc_bits=2, solver_max_iter=3,
                           best_effort=True)
        eng = Engine(cfg)
        prep = eng.prepare(W)
        stats = RunStats(32)
        out = eng.vmm_batch(prep, distinct[pick], stats=stats)

        alone_out, alone_stats = [], []
        for row in distinct:
            s = RunStats(32)
            alone_out.append(eng.vmm_batch(prep, row[None, :], stats=s)[0])
            alone_stats.append(s)
        assert np.array_equal(out, np.asarray(alone_out)[pick])
        # deviations are integers, so their float sums are exact in any order
        picked = [alone_stats[k] for k in pick]
        want = RunStats(32)
        want.layer_hist["vmm"] = sum(s.layer_hist["vmm"] for s in picked)
        want.layer_absdev_sum["vmm"] = sum(s.layer_absdev_sum["vmm"] for s in picked)
        want.layer_dev_count["vmm"] = sum(s.layer_dev_count["vmm"] for s in picked)
        want.clamp_events = sum(s.clamp_events for s in picked)
        want.nonconverged = sum(s.nonconverged for s in picked)
        assert stats.to_dict() == want.to_dict()
        # the case is only a check of the weighted counts if they are not 0
        if wire is STIFF:
            assert stats.nonconverged > 0
        else:
            assert stats.clamp_events > 0

    @pytest.mark.parametrize("binsparx, distinct", [(False, 5), (True, 4)])
    def test_solves_per_distinct_gate_row(self, rng, monkeypatch, binsparx, distinct):
        data_columns, dummy_columns = [], []
        solve = Engine.solve_columns

        def counting(self, stored, gates):
            zero = int((~np.asarray(stored).any(axis=1)).sum())
            data_columns.append(len(gates) - zero)
            dummy_columns.append(zero)
            return solve(self, stored, gates)

        monkeypatch.setattr(Engine, "solve_columns", counting)
        # 2 row tiles x arrays of 64 and 16 columns
        W = rng.choice([-1, 1], size=(128, 80)).astype(np.int8)
        x = rng.choice([-1, 1], size=(4, 128)).astype(np.int8)
        # 40 of 64 rows on in each row tile: under BinSparX x[0] and -x[0]
        # both reach the array as the complement of x[0]
        x[0] = np.concatenate([rng.permutation(np.repeat([1, -1], [40, 24]))
                               for _ in range(2)])
        A = np.stack([x[0], x[1], x[2], x[0], -x[0], x[1], x[3], x[3], x[0]])
        eng = Engine(EngineConfig(n=64, m=64, binsparx=binsparx,
                                  device=DeviceModel.reram1t1r()))
        out = eng.vmm_batch(eng.prepare(W), A)
        assert np.array_equal(out, signed_vmm(A, W))
        # summed over the calls: each distinct gate row of each row tile is
        # solved once, its dummy beside both arrays' columns
        assert sum(data_columns) == 2 * distinct * (64 + 16)
        assert sum(dummy_columns) == 2 * distinct
        assert all(data == dummy * (64 + 16) for data, dummy in zip(data_columns, dummy_columns))

    @pytest.mark.parametrize("domain", ["analog", "digital"])
    def test_dummy_counts_once_per_array(self, rng, domain):
        # each m-column array reads its own dummy, so a dummy solve that
        # fails, or a digital dummy level that clamps, counts once per
        # array.  Hand count: every array's columns and its dummy solved
        # on their own, one row tile at a time.
        n, m, cols, B = 16, 4, 10, 12  # arrays of 4, 4 and 2 columns
        W = rng.choice([-1, 1], size=(2 * n, cols)).astype(np.int8)
        A = rng.choice([-1, 1], size=(B, 2 * n)).astype(np.int8)
        # a small quantum and a 3-bit ADC: some dummy levels clamp, some not
        eng = Engine(EngineConfig(n=n, m=m, binsparx=False,
                                  device=DeviceModel.reram1t1r(i_hrs=2.5e-7), wire=STIFF,
                                  dummy_domain=domain, adc_bits=3, adc_quantum=4e-8,
                                  solver_max_iter=3, best_effort=True))
        stats = RunStats(n)
        eng.vmm_batch(eng.prepare(W), A, stats=stats)

        nonconv = clamps = dummy_nonconv = dummy_clamps = 0
        for r0 in (0, n):
            gates = (A[:, r0 : r0 + n] > 0).astype(np.int8)
            for c0 in range(0, cols, m):
                i_dummy, d_conv = eng.solve_columns(np.zeros_like(gates), gates)
                dummy_nonconv += int((~d_conv).sum())
                nonconv += int((~d_conv).sum())
                if domain == "digital":
                    c = eng.adc.quantize_array(i_dummy)[1]
                    dummy_clamps += c
                    clamps += c
                for col in range(c0, min(cols, c0 + m)):
                    stored = (W[r0 : r0 + n, col] > 0).astype(np.int8)
                    i_out, conv = eng.solve_columns(stored, gates)
                    nonconv += int((~conv).sum())
                    if domain == "analog":
                        i_out = np.maximum(0.0, i_out - i_dummy)
                    clamps += eng.adc.quantize_array(i_out)[1]
        assert (stats.nonconverged, stats.clamp_events) == (nonconv, clamps)
        # the case pins the multiplier only if the dummy's own counts are not 0
        assert dummy_nonconv > 0
        assert dummy_clamps > 0 or domain == "analog"

    @pytest.mark.parametrize("nonidealities", [False, True])
    def test_m_is_bookkeeping(self, rng, nonidealities):
        # no column's read depends on its neighbours, and without a dummy
        # column nothing is counted per m-column array: m changes nothing
        rows, cols, n = 100, 37, 32
        W = rng.choice([-1, 1], size=(rows, cols)).astype(np.int8)
        A = rng.choice([-1, 1], size=(9, rows)).astype(np.int8)
        runs = []
        for m in (1, 7, 64, cols + 5):
            eng = Engine(EngineConfig(n=n, m=m, nonidealities=nonidealities,
                                      device=DeviceModel.sram8t(), wire=WireModel.preset("M4")))
            stats = RunStats(n)
            runs.append((eng.vmm_batch(eng.prepare(W), A, stats), stats.to_dict()))
        for out, stats in runs[1:]:
            assert np.array_equal(out, runs[0][0])
            assert stats == runs[0][1]

    @pytest.mark.parametrize("nonidealities", [False, True])
    def test_empty_batch(self, rng, nonidealities):
        W = rng.choice([-1, 1], size=(100, 40)).astype(np.int8)
        eng = Engine(EngineConfig(n=64, m=32, nonidealities=nonidealities,
                                  device=DeviceModel.reram1t1r()))
        stats = RunStats(64)
        out = eng.vmm_batch(eng.prepare(W), np.zeros((0, 100), dtype=np.int8), stats=stats)
        assert out.shape == (0, 40)
        assert stats.clamp_events == 0 and stats.nonconverged == 0


# ReRAM with either dummy domain, and SRAM (no dummy)
POOLED_CASES = {
    "reram-analog": dict(device=DeviceModel.reram1t1r(i_hrs=2.5e-7), dummy_domain="analog"),
    "reram-digital": dict(device=DeviceModel.reram1t1r(i_hrs=2.5e-7), dummy_domain="digital"),
    "sram": dict(device=DeviceModel.sram8t()),
}


def _pooled_engine(case, binsparx):
    # a 2-bit ADC and a 3-iteration cap at 3 kohm per cell: some reads
    # clamp, some solves do not converge
    return Engine(EngineConfig(n=32, m=16, binsparx=binsparx, wire=WireModel(3e3, 3e3, 1e3, 0.0),
                               adc_bits=2, solver_max_iter=3, best_effort=True,
                               **POOLED_CASES[case]))


def _ragged_model(rng, inputs):
    """Row tiles of 32, 32 and 18 rows; arrays of 16, 16 and 8 columns; rows
    drawn from 12 distinct ones and the complements of 4 of them."""
    W = rng.choice([-1, 1], size=(82, 40)).astype(np.int8)
    base = rng.choice([-1, 1], size=(12, 82)).astype(np.int8)
    return W, np.concatenate([base, -base[:4]])[rng.integers(0, 16, inputs)]


def _record_calls(monkeypatch, width):
    """Record (gate rows, columns, gate-on counts) of each solve_columns call."""
    calls = []
    solve = Engine.solve_columns

    def recording(self, stored, gates):
        calls.append((len(gates) // width, len(gates), np.count_nonzero(gates, axis=1)))
        return solve(self, stored, gates)

    monkeypatch.setattr(Engine, "solve_columns", recording)
    return calls


class TestPooledSolve:
    """Every row tile's distinct gate rows go through one solve_rows pass,
    in calls of ascending gate-on count sized by their gate-on rows."""

    @pytest.mark.parametrize("binsparx", [False, True])
    @pytest.mark.parametrize("case", list(POOLED_CASES))
    def test_one_gate_row_per_call_equals_default(self, rng, monkeypatch, case, binsparx):
        W, A = _ragged_model(rng, 60)
        eng = _pooled_engine(case, binsparx)
        prep = eng.prepare(W)
        stats = RunStats(32)
        out = eng.vmm_batch(prep, A, stats)
        calls = _record_calls(monkeypatch, 40 + eng.dummy)
        # 16 cells a call at n=32: less than any gate row's columns hold
        monkeypatch.setattr(solver_module, "_CALL_COLUMNS", 1)
        alone = RunStats(32)
        assert np.array_equal(eng.vmm_batch(prep, A, alone), out)
        assert alone.to_dict() == stats.to_dict()
        assert all(rows == 1 for rows, _, _ in calls)
        # one call per distinct gate row of each of the 3 row tiles: 12 or
        # more each, as BinSparX may map a row and its complement to one
        assert len(calls) >= 3 * 12
        # the case is only a check of the counts if they are not 0
        assert stats.clamp_events > 0 and stats.nonconverged > 0

    @pytest.mark.parametrize("call_columns", [None, 200, 20])
    @pytest.mark.parametrize("case", ["reram-analog", "sram"])
    def test_calls_fill_greedily_within_the_budget(self, rng, monkeypatch, case, call_columns):
        if call_columns is not None:
            monkeypatch.setattr(solver_module, "_CALL_COLUMNS", call_columns)
        budget = solver_module._call_cells(32)
        W = rng.choice([-1, 1], size=(82, 40)).astype(np.int8)
        A = rng.choice([-1, 1], size=(100, 82)).astype(np.int8)
        eng = _pooled_engine(case, True)
        width = 40 + eng.dummy
        calls = _record_calls(monkeypatch, width)
        out = eng.vmm_batch(eng.prepare(W), A)
        assert len(calls) > 1
        assert sum(rows for rows, _, _ in calls) == 3 * 100  # random rows do not repeat
        for rows, columns, count in calls:
            assert rows == 1 or max(1, count.max()) * columns <= budget
        # ascending counts, and each call stopped where the next row would
        # have broken the cap
        for (_, columns, count), (_, _, following) in zip(calls, calls[1:]):
            assert following.min() >= count.max()
            assert max(1, following.min()) * (columns + width) > budget
        monkeypatch.setattr(solver_module, "_CALL_COLUMNS", 2**16)
        assert np.array_equal(eng.vmm_batch(eng.prepare(W), A), out)

    @pytest.mark.parametrize("n", [128, 256])
    def test_calls_above_n_64_hold_at_most_2_16_cells(self, rng, monkeypatch, n):
        # BinSparX calls there stay as wide as under the earlier cap of
        # 2**17 cells counted over all n rows: 1,024 columns at n=128
        W = rng.choice([-1, 1], size=(n, 200)).astype(np.int8)
        A = rng.choice([-1, 1], size=(60, n)).astype(np.int8)
        eng = Engine(EngineConfig(n=n, wire=WireModel.preset("M3")))
        calls = _record_calls(monkeypatch, 200)
        eng.vmm_batch(eng.prepare(W), A)
        held = [max(1, count.max()) * columns for _, columns, count in calls]
        assert len(calls) > 1 and max(held) <= 2**16
        # and each call but the last is more than half full
        assert min(held[:-1]) > 2**15

    @pytest.mark.parametrize("case", list(POOLED_CASES))
    def test_empty_batch_on_ragged_tiles(self, rng, monkeypatch, case):
        W, _ = _ragged_model(rng, 0)
        eng = _pooled_engine(case, True)
        calls = _record_calls(monkeypatch, 40 + eng.dummy)
        stats = RunStats(32)
        out = eng.vmm_batch(eng.prepare(W), np.zeros((0, 82), dtype=np.int8), stats)
        assert out.shape == (0, 40) and out.dtype == np.int64
        assert calls == []
        assert stats.clamp_events == stats.nonconverged == 0


class TestRunStats:
    def test_histogram_and_mean_per_layer_and_summed(self):
        stats = RunStats(3)
        stats.add_ideal("a", np.array([[0, 1], [1, 3]]))
        stats.add_ideal("b", np.array([2, 2]))
        assert stats.histogram("a").tolist() == [1, 2, 0, 1]
        assert stats.histogram("b").tolist() == [0, 0, 2, 0]
        assert stats.histogram().tolist() == [1, 2, 2, 1]
        assert stats.histogram("missing").tolist() == [0, 0, 0, 0]
        assert (stats.mean_ideal_sum("a"), stats.mean_ideal_sum("b")) == (1.25, 2.0)
        assert (stats.mean_ideal_sum(), stats.mean_ideal_sum("missing")) == (1.5, 0.0)
        stats.histogram()[:] = 0  # a copy: the ledger keeps its counts
        layers = stats.to_dict()["layers"]
        assert layers["a"]["histogram"] == [1, 2, 0, 1]
        assert (layers["a"]["mean_ideal_sum"], layers["b"]["mean_ideal_sum"]) == (1.25, 2.0)

    @pytest.mark.parametrize("wire", [WireModel.preset("M3"), STIFF], ids=["M3", "stiff"])
    def test_vmm_batch_without_a_ledger_computes_the_same(self, rng, wire):
        # a 2-bit ADC clamps at M3; three iterations leave stiff columns unsolved
        W = rng.choice([-1, 1], size=(45, 23)).astype(np.int8)
        A = rng.choice([-1, 1], size=(12, 45)).astype(np.int8)
        eng = Engine(EngineConfig(n=16, m=7, device=DeviceModel.reram1t1r(i_hrs=2.5e-7),
                                  wire=wire, adc_bits=2, solver_max_iter=3, best_effort=True))
        prep = eng.prepare(W)
        stats = RunStats(16)
        out = eng.vmm_batch(prep, A, stats)
        assert (stats.nonconverged if wire is STIFF else stats.clamp_events) > 0
        assert np.array_equal(eng.vmm_batch(prep, A), out)


class TestFoldBatchnorm:
    def test_identity_params(self):
        ft = fold_batchnorm([1.0], [0.0], [0.0], [1.0])
        assert ft.thresholds.tolist() == [0]
        assert ft.gamma_sign.tolist() == [1]
        assert ft.apply(np.array([[0], [5], [-1]])).ravel().tolist() == [1, 1, -1]

    def test_negative_gamma_flips_direction(self):
        ft = fold_batchnorm([-2.0], [0.0], [3.0], [4.0])
        # y = -2*(x-3)/2: positive iff x <= 3
        assert ft.apply(np.array([[2], [3], [4]])).ravel().tolist() == [1, 1, -1]

    def test_zero_gamma_rejected(self):
        with pytest.raises(FoldError):
            fold_batchnorm([0.0], [0.0], [0.0], [1.0])
        with pytest.raises(FoldError):
            fold_batchnorm([1.0], [0.0], [0.0], [-1.0], eps=0.5)

    def test_against_direct_bn_oracle(self, rng):
        C = 16
        gamma = rng.normal(0, 1, C)
        gamma[np.abs(gamma) < 1e-3] = 1.0
        beta = rng.normal(0, 2, C)
        mean = rng.normal(0, 10, C)
        var = rng.uniform(0.1, 25.0, C)
        eps = 1e-5
        ft = fold_batchnorm(gamma, beta, mean, var, eps)
        x = rng.integers(-64, 65, size=(100_000 // C + 1, C))
        got = ft.apply(x)
        bn = gamma * (x - mean) / np.sqrt(var + eps) + beta
        want = np.where(bn >= 0, 1, -1)
        assert np.array_equal(got, want)


class TestConvLowering:
    def test_im2col_against_loops(self, rng):
        imgs = rng.choice([-1, 1], size=(2, 3, 6, 6)).astype(np.int8)
        kern = rng.choice([-1, 1], size=(4, 3, 3, 3)).astype(np.int8)
        for stride, pad in [(1, 0), (2, 0), (1, 1)]:
            cols, oh, ow = im2col(imgs, 3, 3, stride, pad)
            out = (cols.astype(np.int64) @ kern.reshape(4, -1).T.astype(np.int64))
            out = out.reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
            # direct sliding-window correlation with -1 padding
            padded = np.pad(imgs, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                            constant_values=-1).astype(np.int64)
            for b in range(2):
                for co in range(4):
                    for i in range(oh):
                        for j in range(ow):
                            patch = padded[b, :, i * stride : i * stride + 3,
                                           j * stride : j * stride + 3]
                            assert out[b, co, i, j] == int(
                                (patch * kern[co].astype(np.int64)).sum()
                            )

    def test_conv_layer_in_engine_matches_software(self, rng):
        kern = rng.choice([-1, 1], size=(4, 1, 3, 3)).astype(np.int8)
        imgs = rng.choice([-1, 1], size=(5, 1, 6, 6)).astype(np.int8)
        layers = [
            LayerSpec("c1", "conv", BinaryTensor(kern), in_shape=(1, 6, 6)),
            LayerSpec("s1", "sign"),
        ]
        eng = _ideal(n=16, m=16)
        res = eng.infer(layers, imgs.reshape(5, -1).astype(np.float64))
        cols, oh, ow = im2col(imgs, 3, 3, 1, 0)
        want = (cols.astype(np.int64) @ kern.reshape(4, -1).T.astype(np.int64))
        want = np.where(want >= 0, 1, -1).reshape(5, oh, ow, 4).transpose(0, 3, 1, 2)
        assert np.array_equal(res.scores.reshape(5, 4, oh, ow), want)


class TestInference:
    def _toy(self, rng, B=100):
        W1 = rng.choice([-1, 1], size=(64, 32)).astype(np.int8)
        W2 = rng.choice([-1, 1], size=(32, 4)).astype(np.int8)
        X = rng.choice([-1, 1], size=(B, 64)).astype(np.int8)
        ref_scores = software_bnn_forward(X, [("dense", W1), ("sign",), ("dense", W2)])
        labels = np.argmax(ref_scores, axis=1)
        layers = [
            LayerSpec("fc1", "dense", BinaryTensor(W1)),
            LayerSpec("a1", "sign"),
            LayerSpec("fc2", "dense", BinaryTensor(W2)),
        ]
        return layers, X, labels, ref_scores

    @pytest.mark.parametrize("binsparx", [False, True])
    def test_ideal_inference_matches_software(self, rng, binsparx):
        layers, X, labels, ref_scores = self._toy(rng)
        eng = _ideal(binsparx=binsparx)
        res = eng.infer(layers, X.astype(np.float64), labels)
        assert np.array_equal(res.scores, ref_scores)
        assert res.accuracy == 1.0

    def test_full_precision_layers_bypass_array(self, rng):
        layers, X, labels, ref_scores = self._toy(rng)
        fp_layers = [
            LayerSpec("fc1", "dense", layers[0].weights, full_precision=True),
            LayerSpec("a1", "sign"),
            LayerSpec("fc2", "dense", layers[2].weights, full_precision=True),
        ]
        eng = Engine(EngineConfig(n=64, m=64, nonidealities=True,
                                  wire=WireModel(1e4, 1e4, 1e5, 0.0)))
        res = eng.infer(fp_layers, X.astype(np.float64), labels)
        assert res.accuracy == 1.0  # never touches the array

    def test_extreme_resistance_collapses_accuracy(self, rng):
        layers, X, labels, _ = self._toy(rng, B=120)
        cfg = EngineConfig(n=64, m=64, binsparx=False, nonidealities=True,
                           device=DeviceModel.sram8t(),
                           wire=WireModel(1e5, 1e5, 1e6, 0.0),
                           best_effort=True, solver_max_iter=4000)
        res = Engine(cfg).infer(layers, X.astype(np.float64), labels)
        assert res.accuracy < 0.5  # ~chance on 4 classes
        assert res.stats.nonconverged == 0  # the stiff corner converges

    def test_histogram_collection(self, rng):
        layers, X, labels, _ = self._toy(rng, B=20)
        eng = _ideal()
        stats = RunStats(64)
        eng.infer(layers, X.astype(np.float64), labels, stats=stats)
        # 64-row tile, 32+4 columns, 20 inputs
        assert stats.layer_hist["fc1"].sum() == 20 * 32
        assert stats.layer_hist["fc2"].sum() == 20 * 4

    def test_threshold_layer_roundtrip(self, rng):
        W1 = rng.choice([-1, 1], size=(64, 8)).astype(np.int8)
        gamma = rng.uniform(0.5, 2.0, 8) * rng.choice([-1, 1], 8)
        beta = rng.normal(0, 1, 8)
        mean = rng.normal(0, 5, 8)
        var = rng.uniform(0.5, 4.0, 8)
        ft = fold_batchnorm(gamma, beta, mean, var)
        layers = [
            LayerSpec("fc1", "dense", BinaryTensor(W1)),
            LayerSpec("bn1", "threshold", thresholds=ft),
        ]
        X = rng.choice([-1, 1], size=(50, 64)).astype(np.int8)
        res = _ideal().infer(layers, X.astype(np.float64))
        want = software_bnn_forward(
            X, [("dense", W1), ("threshold", ft.thresholds, ft.gamma_sign)]
        )
        assert np.array_equal(res.scores, want)


    @pytest.mark.parametrize("width", [5, 1, 3])
    @pytest.mark.parametrize("after", ["dense", "conv"])
    def test_threshold_width_must_match_its_input(self, rng, width, after):
        # a wider layer cannot broadcast, and a 1-wide one would spread over every channel
        ft = fold_batchnorm(np.ones(width), np.zeros(width), np.zeros(width), np.ones(width))
        if after == "dense":
            first = LayerSpec("fc", "dense", BinaryTensor(rng.choice([-1, 1], size=(2, 4))))
            X = rng.choice([-1.0, 1.0], size=(3, 2))
        else:
            first = LayerSpec("conv", "conv", BinaryTensor(rng.choice([-1, 1], size=(4, 1, 3, 3))),
                              padding=1, in_shape=(1, 3, 3))
            X = rng.choice([-1.0, 1.0], size=(3, 9))
        layers = [first, LayerSpec("bn", "threshold", thresholds=ft)]
        with pytest.raises(ShapeError, match=rf"layer 'bn': {width} thresholds for 4 channels"):
            _ideal().infer(layers, X)


class TestConfig:
    def test_auto_adc_bits(self):
        assert Engine(EngineConfig(n=64, binsparx=False, nonidealities=False)).adc.bits == 6
        assert Engine(EngineConfig(n=64, binsparx=True, nonidealities=False)).adc.bits == 5
        assert _ideal(n=64).adc.bits == 7  # "full" never saturates

    def test_auto_quantum_tracks_i_on(self):
        eng = Engine(EngineConfig(device=DeviceModel.sram8t(2e-6), nonidealities=False))
        assert eng.adc.quantum == 2e-6

    def test_auto_quantum_follows_dummy(self):
        dev = DeviceModel.reram1t1r()
        assert EngineConfig(device=dev).resolved_adc().quantum == dev.i_on - dev.i_hrs
        assert EngineConfig(device=dev, dummy_enabled=False).resolved_adc().quantum == dev.i_on

    def test_dummy_auto(self):
        assert not Engine(EngineConfig(nonidealities=False)).dummy
        assert Engine(
            EngineConfig(device=DeviceModel.reram1t1r(), nonidealities=False)
        ).dummy

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(n=0)
        with pytest.raises(ConfigError):
            Engine(EngineConfig(adc_bits="many"))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_solver_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigError, match="solver_tol"):
            EngineConfig(solver_tol=tol)

    def test_dummy_domain_validation(self):
        with pytest.raises(ConfigError, match="dummy_domain"):
            EngineConfig(dummy_domain="optical")

    @pytest.mark.parametrize("field, value", [
        ("adc_bits", True), ("adc_bits", 3.0), ("adc_bits", "8"), ("adc_bits", None),
        ("adc_quantum", True), ("adc_quantum", "nope"), ("adc_quantum", "1e-6"),
        ("adc_quantum", None),
    ])
    def test_adc_fields_checked_at_construction(self, field, value):
        # a bool would build a 1-bit ADC or a 1 A quantum; a string other
        # than the tokens would reach float() inside Engine()
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("binsparx", "no"), ("binsparx", 1), ("nonidealities", "no"), ("best_effort", "no"),
        ("n", 2.5), ("n", "64"), ("m", True), ("m", 0), ("solver_max_iter", 2.5),
        ("solver_max_iter", 0), ("solver_tol", "1e-6"), ("solver_tol", True),
        ("adc_offset", "x"), ("adc_offset", None),
    ])
    def test_fields_checked_at_construction(self, field, value):
        # each was accepted (a truthy string read as on), or failed later
        # with a bare TypeError
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**{field: value})

    def test_numpy_fields_become_python_values(self):
        cfg = EngineConfig(n=np.int64(32), m=np.int32(16), binsparx=np.False_,
                           solver_max_iter=np.int64(7), solver_tol=np.float64(1e-5))
        assert (cfg.n, cfg.m, cfg.binsparx, cfg.solver_max_iter) == (32, 16, False, 7)
        assert type(cfg.n) is int and type(cfg.binsparx) is bool
        assert Engine(cfg).adc.bits == 5

    def test_adc_fields_accept_numpy_numbers(self):
        cfg = EngineConfig(adc_bits=np.int64(4), adc_quantum=np.float64(2e-6))
        adc = cfg.resolved_adc()
        assert (adc.bits, adc.quantum) == (4, 2e-6) and type(adc.bits) is int

    @pytest.mark.parametrize("enabled", ["on", "true", None, 0.5])
    def test_dummy_enabled_validation(self, enabled):
        with pytest.raises(ConfigError, match="dummy_enabled"):
            EngineConfig(dummy_enabled=enabled)
