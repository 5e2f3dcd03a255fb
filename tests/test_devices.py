import contextlib

import numpy as np
import pytest

from binsparx.config import build_wire, load_run_config
from binsparx.devices import WIRE_PRESETS, DeviceLut, DeviceModel, WireModel, load_device_lut
from binsparx.errors import ConfigError, ConfigWarning, ParseError

from conftest import bilinear_reference, make_lut_from_model, write_table


def cell_current(model, stored_bit, gate_on, v_cell) -> float:
    """One cell's current through the vectorized model."""
    return float(model.currents(stored_bit, gate_on, v_cell))


class TestCellCurrent:
    def test_on_cell_at_nominal_bias(self):
        for i_on in (1e-6, 2e-6):
            m = DeviceModel.sram8t(i_on=i_on)
            assert cell_current(m, 1, 1, m.v_nominal) == pytest.approx(i_on, rel=1e-12)

    def test_gate_off_is_leakage(self):
        m = DeviceModel.sram8t()
        assert cell_current(m, 1, 0, 0.7) == m.i_off
        assert cell_current(m, 0, 0, 0.0) == m.i_off
        assert m.i_on / m.i_off > 1e4

    def test_zero_bias_zero_current(self):
        m = DeviceModel.sram8t()
        assert cell_current(m, 1, 1, 0.0) == 0.0

    def test_reram_hrs_branch(self):
        m = DeviceModel.reram1t1r()
        assert cell_current(m, 0, 1, m.v_nominal) == pytest.approx(m.i_hrs, rel=1e-12)

    def test_sram_stored0_is_leakage_branch(self):
        m = DeviceModel.sram8t()
        assert cell_current(m, 0, 1, m.v_nominal) == pytest.approx(m.i_off, rel=1e-12)

    def test_negative_bias_conducts_nothing(self):
        # reverse bias clamps to zero on the gate-on branch; gate-off leaks
        m = DeviceModel.reram1t1r()
        assert cell_current(m, 1, 1, -0.1) == 0.0
        assert cell_current(m, 0, 1, -0.1) == 0.0
        assert cell_current(m, 1, 0, -0.1) == m.i_off

    def test_monotone_in_bias(self):
        for m in (DeviceModel.sram8t(), DeviceModel.reram1t1r(),
                  DeviceModel.sram8t(curve="linear")):
            v = np.arange(0.0, m.v_nominal + 1e-3, 1e-3)
            for stored, gate in [(1, 1), (0, 1), (1, 0)]:
                i = m.currents(stored, gate, v)
                assert np.all(np.diff(i) >= -1e-15)

    def test_default_ratio_invariants(self):
        s = DeviceModel.sram8t()
        assert s.i_on / s.i_off > 1e4
        r = DeviceModel.reram1t1r()
        assert 10 <= r.i_on / r.i_hrs <= 50
        r2 = DeviceModel.reram1t1r(i_on=2e-6)
        assert 10 <= r2.i_on / r2.i_hrs <= 50

    def test_invariant_ordering_enforced(self):
        with pytest.raises(ConfigError):
            DeviceModel(kind="sram8t", i_on=1e-6, i_hrs=2e-6, i_off=0.0)
        with pytest.raises(ConfigError):
            DeviceModel(kind="sram8t", i_on=1e-6, i_hrs=1e-8, i_off=1e-7)


class TestWire:
    def test_preset_round_trip(self):
        # a preset named in the config builds the preset's per-cell wire on
        # both lines, and a custom entry keeps its resistances
        for tag, r in WIRE_PRESETS.items():
            built = build_wire(load_run_config(None, [f"wire.preset={tag}"]))
            assert built == WireModel.preset(tag) == WireModel(r, r)
        custom = build_wire(load_run_config(None, [
            "wire.preset=custom", "wire.r_bl_per_cell=20", "wire.r_sl_per_cell=30"]))
        assert custom == WireModel(20.0, 30.0)

    def test_preset_ordering(self):
        assert WIRE_PRESETS["M3"] > WIRE_PRESETS["M4"] > WIRE_PRESETS["M6"]
        assert WireModel.preset("M3").r_bl_per_cell > WireModel.preset("M6").r_bl_per_cell

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            WireModel.preset("M99")

    def test_negative_resistance_rejected(self):
        with pytest.raises(ConfigError):
            WireModel(-1.0, 1.0)


GRID_CSV = "vg,0.0,1.0\n0.0,0.0,1e-6\n1.0,2e-6,3e-6\n"


class TestLut:
    def test_grid_points_exact(self, tmp_path):
        p = tmp_path / "lut.csv"
        p.write_text(GRID_CSV)
        knots = np.array([0.0, 1.0])
        assert np.array_equal(load_device_lut(p, 0.0).lookup(knots), [0.0, 2e-6])
        assert np.array_equal(load_device_lut(p, 1.0).lookup(knots), [1e-6, 3e-6])
        lut = DeviceLut([0.0, 0.5, 1.0], [4e-7, 0.0, 9e-7])
        assert np.array_equal(lut.lookup(np.array([1.0, 0.5, 0.0])), [9e-7, 0.0, 4e-7])

    def test_cell_center_average(self, tmp_path):
        p = tmp_path / "lut.csv"
        p.write_text(GRID_CSV)
        got = load_device_lut(p, 0.5).lookup(np.array([0.5]))
        assert got[0] == pytest.approx((0 + 1e-6 + 2e-6 + 3e-6) / 4)

    def test_against_independent_reimplementation(self, tmp_path, rng):
        vg = np.sort(rng.uniform(0, 1, 16))
        vd = np.sort(rng.uniform(0, 1, 16))
        vg[0], vd[0] = 0.0, 0.0
        grid = rng.uniform(0, 1e-6, (16, 16))
        p = write_table(tmp_path / "lut.csv", vg, vd, grid)
        # the table sliced at a gate voltage, queried over cell voltages; a
        # gate voltage off the gate axis reads the boundary column
        queries = rng.uniform(-0.1, 1.1, 50)
        for qg in rng.uniform(-0.1, 1.1, 8):
            outside = not vg[0] <= qg <= vg[-1]
            with pytest.warns(ConfigWarning) if outside else contextlib.nullcontext():
                lut = load_device_lut(p, qg)
            want = [bilinear_reference(vg, vd, grid, qg, qd) for qd in queries]
            np.testing.assert_allclose(lut.lookup(queries), want, rtol=1e-12, atol=1e-18)
        # a device model reads the table sliced at v_nominal, between gate knots
        v_nominal = float((vg[7] + vg[8]) / 2)
        m = DeviceModel.sram8t(v_nominal=v_nominal, lut_stored1=load_device_lut(p, v_nominal))
        cells = np.abs(queries)
        want = [bilinear_reference(vg, vd, grid, v_nominal, qd) for qd in cells]
        np.testing.assert_allclose(m.currents(1, 1, cells), want, rtol=1e-12, atol=1e-18)

    def test_flat_outside_device_axis(self):
        lut = DeviceLut([0.0, 1.0], [2e-6, 4e-6])
        v = np.array([[-1.0, 0.0, 0.5], [1.0, 1.5, 5.0]])
        assert np.array_equal(lut.lookup(v), [[2e-6, 2e-6, 3e-6], [4e-6, 4e-6, 4e-6]])
        # the slope of the interpolant is one segment's rise over its run
        # inside the axis, and 0 where the lookup clamps
        assert np.array_equal(lut.slope_vd(v) != 0, [[False, True, True], [True, False, False]])
        assert lut.slope_vd(np.array([0.5]))[0] == pytest.approx(2e-6, rel=1e-12)

    def test_gate_outside_axis_warns_once_and_reads_the_boundary(self, tmp_path):
        p = tmp_path / "lut.csv"
        p.write_text(GRID_CSV)
        knots = np.array([0.0, 1.0])
        for v_gate, edge in ((2.0, 1.0), (-1.0, 0.0)):
            with pytest.warns(ConfigWarning, match="lut.csv") as record:
                lut = load_device_lut(p, v_gate)
            assert len(record) == 1
            assert np.array_equal(lut.lookup(knots), load_device_lut(p, edge).lookup(knots))

    def test_validation(self):
        with pytest.raises(ParseError):
            DeviceLut([0.0, 0.0], [0, 0])  # flat axis
        with pytest.raises(ParseError):
            DeviceLut([0.0, 1.0], [0, -1e-9])  # negative
        with pytest.raises(ParseError):
            DeviceLut([0.0, 1.0], [0, np.nan])  # NaN current
        with pytest.raises(ParseError):
            DeviceLut([0.0, 1.0], [0, 0, 0])  # one sample per knot
        with pytest.raises(ParseError):
            DeviceLut([0.0], [0])  # one knot
        for bad in (np.nan, np.inf):
            with pytest.raises(ParseError, match="device-voltage"):
                DeviceLut([0.0, bad, 2.0], [0, 0, 0])  # non-finite axis


class TestLutCsv:
    def _write(self, tmp_path, text):
        p = tmp_path / "lut.csv"
        p.write_text(text)
        return p

    def test_load_and_query(self, tmp_path):
        p = self._write(tmp_path, "vg,0.0,0.7\n0.0,0.0,0.0\n0.7,0.0,1e-6\n")
        lut = load_device_lut(p, 0.7)
        assert lut.lookup(np.array([0.7]))[0] == pytest.approx(1e-6)

    def test_ragged_row_position(self, tmp_path):
        p = self._write(tmp_path, "vg,0.0,0.7\n0.0,0.0\n0.7,0.0,1e-6\n")
        with pytest.raises(ParseError, match="row 2"):
            load_device_lut(p, 0.7)

    def test_bad_current_position(self, tmp_path):
        p = self._write(tmp_path, "vg,0.0,0.7\n0.0,0.0,oops\n0.7,0.0,1e-6\n")
        with pytest.raises(ParseError, match="row 2, col 3"):
            load_device_lut(p, 0.7)

    def test_negative_current_position(self, tmp_path):
        p = self._write(tmp_path, "vg,0.0,0.7\n0.0,0.0,-1e-9\n0.7,0.0,1e-6\n")
        with pytest.raises(ParseError, match="row 2, col 3"):
            load_device_lut(p, 0.7)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_current_position(self, tmp_path, cell):
        p = self._write(tmp_path, f"vg,0.0,0.7\n0.0,0.0,0.0\n0.7,0.0,{cell}\n")
        with pytest.raises(ParseError, match="row 3, col 3"):
            load_device_lut(p, 0.7)

    def test_non_monotone_axis(self, tmp_path):
        p = self._write(tmp_path, "vg,0.7,0.0\n0.0,0.0,0.0\n0.7,0.0,1e-6\n")
        with pytest.raises(ParseError, match="gate-voltage"):
            load_device_lut(p, 0.7)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_device_axis(self, tmp_path, bad):
        p = self._write(tmp_path, f"vg,0.0,0.7\n0.0,0.0,0.0\n{bad},0.0,1e-6\n")
        with pytest.raises(ParseError, match="device-voltage"):
            load_device_lut(p, 0.7)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_gate_axis(self, tmp_path, bad):
        p = self._write(tmp_path, f"vg,0.0,{bad}\n0.0,0.0,0.0\n0.7,0.0,1e-6\n")
        with pytest.raises(ParseError, match="gate-voltage"):
            load_device_lut(p, 0.7)


class TestLutOverride:
    def test_lut_from_model_agrees_within_1pct(self):
        base = DeviceModel.sram8t()
        lut1 = make_lut_from_model(base, 1)
        lut0 = make_lut_from_model(base, 0)
        with_lut = DeviceModel.sram8t()
        with_lut.lut_stored1 = lut1
        with_lut.lut_stored0 = lut0
        v = np.linspace(0.0, base.v_nominal, 101)
        for stored, gate in [(1, 1), (0, 1), (1, 0), (0, 0)]:
            a = base.currents(stored, gate, v)
            b = with_lut.currents(stored, gate, v)
            scale = max(base.i_on * 1e-4, float(np.abs(a).max()))
            assert np.abs(a - b).max() <= 0.01 * scale

    @pytest.mark.parametrize("attached", [1, 0])
    @pytest.mark.parametrize("factory", [DeviceModel.sram8t, DeviceModel.reram1t1r])
    def test_other_state_is_the_plain_model(self, factory, attached):
        # one table replaces only its own stored state's branch
        base = factory()
        m = factory()
        setattr(m, f"lut_stored{attached}", make_lut_from_model(base, attached))
        v = np.linspace(-0.2, 1.0, 121)
        for gate in (0, 1):
            for query in ("currents", "conductances"):
                got = getattr(m, query)(1 - attached, gate, v)
                assert np.array_equal(got, getattr(base, query)(1 - attached, gate, v))
        mixed = (np.arange(121) % 2, np.arange(121) // 2 % 2)
        for query in ("currents", "conductances"):
            got, want = getattr(m, query)(*mixed, v), getattr(base, query)(*mixed, v)
            other = mixed[0] != attached
            assert np.array_equal(got[other], want[other])

    def test_lut_used_by_solver_path(self):
        base = DeviceModel.sram8t()
        m = DeviceModel.sram8t()
        m.lut_stored1 = make_lut_from_model(base, 1)
        m.lut_stored0 = make_lut_from_model(base, 0)
        g = m.conductances(1, 1, 0.3)
        # slope of the interpolant approximates the parametric slope
        assert g == pytest.approx(base.conductances(1, 1, 0.3), rel=0.05)


class TestConductances:
    @pytest.mark.parametrize("backing", ["tanh", "linear", "lut", "short-lut"])
    @pytest.mark.parametrize("kind", ["sram8t", "reram1t1r"])
    def test_derivative_of_currents(self, kind, backing):
        # conductances are the Newton Jacobian: d(currents)/d(cell voltage)
        factory = DeviceModel.sram8t if kind == "sram8t" else DeviceModel.reram1t1r
        m = factory(curve="linear" if backing == "linear" else "tanh")
        if backing == "lut":
            m.lut_stored1 = make_lut_from_model(factory(), 1)
            m.lut_stored0 = make_lut_from_model(factory(), 0)
        if backing == "short-lut":
            # a stored-1 table sampled on [0, v_nominal / 2] only: above it
            # the lookup clamps, flat
            vd = np.linspace(0.0, m.v_nominal / 2, 17)
            m.lut_stored1 = DeviceLut(vd, factory().currents(1, 1, vd))
        # midway between the LUT knots (spacing v_nominal / 32), so that
        # v +- h never straddles a kink of the interpolant; reverse bias is
        # flat; 0.5 and 0.6 V lie beyond the short table's axis
        v = np.concatenate((-np.array([0.5, 0.1, 0.01]) * m.v_nominal,
                            (np.arange(32) + 0.5) * m.v_nominal / 32, [0.5, 0.6]))
        h = 3e-6
        for stored in (0, 1):
            for gate in (0, 1):
                diff = (m.currents(stored, gate, v + h) - m.currents(stored, gate, v - h)) / (2 * h)
                g = m.conductances(stored, gate, v)
                assert np.abs(g - diff).max() <= 1e-9 * m.i_on, (stored, gate)
