from dataclasses import fields

import numpy as np
import pytest

from binsparx.config import build_device, build_engine_config, load_run_config
from binsparx.devices import DeviceModel
from binsparx.errors import ConfigError

from conftest import make_lut_from_model, write_lut_csv


class TestSolverSection:
    def test_max_iter_reaches_engine(self):
        cfg = load_run_config(overrides=["solver.max_iter=37"])
        assert build_engine_config(cfg).solver_max_iter == 37

    def test_damping_is_unknown_in_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\ndamping = 0.5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_damping_is_unknown_as_override(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(overrides=["solver.damping=0.5"])

    def test_method_is_unknown_in_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\nmethod = dense\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_method_is_unknown_as_override(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(overrides=["solver.method=dense"])


class TestDeviceSection:
    @pytest.mark.parametrize("kind,factory", [("sram8t", DeviceModel.sram8t),
                                              ("reram1t1r", DeviceModel.reram1t1r)])
    def test_default_is_the_factory_model(self, kind, factory):
        built = build_device(load_run_config(overrides=[f"device.kind={kind}"]))
        want = factory()
        for f in fields(DeviceModel):
            assert getattr(built, f.name) == getattr(want, f.name), f.name

    @pytest.mark.parametrize("kind", ["sram8t", "reram1t1r"])
    def test_explicit_currents_override(self, kind):
        # i_on below the ReRAM default i_hrs: only the final values are checked
        cfg = load_run_config(overrides=[f"device.kind={kind}", "device.i_on=5e-8",
                                         "device.i_hrs=3e-8", "device.i_off=4e-9"])
        dev = build_device(cfg)
        assert (dev.kind, dev.i_on, dev.i_hrs, dev.i_off) == (kind, 5e-8, 3e-8, 4e-9)

    def test_one_explicit_current_keeps_the_other_default(self):
        cfg = load_run_config(overrides=["device.kind=reram1t1r", "device.i_off=2e-9"])
        dev = build_device(cfg)
        assert (dev.i_hrs, dev.i_off) == (DeviceModel.reram1t1r().i_hrs, 2e-9)
        cfg = load_run_config(overrides=["device.kind=sram8t", "device.i_hrs=1e-9"])
        dev = build_device(cfg)
        assert (dev.i_hrs, dev.i_off) == (1e-9, DeviceModel.sram8t().i_off)

    @pytest.mark.parametrize("kind,factory", [("sram8t", DeviceModel.sram8t),
                                              ("reram1t1r", DeviceModel.reram1t1r)])
    def test_luts_reach_the_model(self, tmp_path, kind, factory):
        paths = {bit: write_lut_csv(tmp_path / f"lut{bit}.csv", factory(), bit) for bit in (1, 0)}
        both = build_device(load_run_config(overrides=[
            f"device.kind={kind}", f"device.lut_stored1={paths[1]}",
            f"device.lut_stored0={paths[0]}"]))
        for bit in (1, 0):
            got, want = getattr(both, f"lut_stored{bit}"), make_lut_from_model(factory(), bit)
            for axis in ("v_gate", "v_dev", "current"):
                assert np.array_equal(getattr(got, axis), getattr(want, axis)), (bit, axis)
        one = build_device(load_run_config(overrides=[
            f"device.kind={kind}", f"device.lut_stored1={paths[1]}"]))
        assert one.lut_stored1 is not None and one.lut_stored0 is None


class TestRunSection:
    def test_workers_is_unknown_in_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nworkers = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_workers_is_unknown_as_override(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(overrides=["run.workers=2"])
