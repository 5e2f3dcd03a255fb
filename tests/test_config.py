from dataclasses import fields

import numpy as np
import pytest

from binsparx.config import (
    SCHEMA,
    build_device,
    build_engine_config,
    describe_defaults,
    load_run_config,
)
from binsparx.devices import DeviceModel
from binsparx.engine import EngineConfig
from binsparx.errors import ConfigError

from conftest import make_lut_from_model, write_lut_csv


KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]


def _write_ini(path, section, key, value):
    path.write_text(f"[{section}]\n{key} = {value}\n")
    return path


class TestSchema:
    """Walks every key of ``SCHEMA``, so keys added later are covered too."""

    @pytest.mark.parametrize("section,key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
    def test_default_written_to_a_file_resolves_to_itself(self, tmp_path, monkeypatch,
                                                          section, key):
        monkeypatch.delenv("BINSPARX_OUTPUT_DIR", raising=False)
        default = SCHEMA[section][key][1]
        cfg = load_run_config(_write_ini(tmp_path / "run.ini", section, key, default))
        assert cfg == load_run_config()
        assert type(cfg[section][key]) is type(default)

    @pytest.mark.parametrize("section,key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
    def test_token_outside_the_domain_is_rejected(self, tmp_path, section, key):
        # a str key (a path) takes any text, so it has no token to reject
        domain = SCHEMA[section][key][0].split("|")
        bad = [] if "str" in domain else ["bogus"]
        if "int" in domain or "float" in domain:
            bad += ["nan", "inf"]
        path = tmp_path / "run.ini"
        for token in bad:
            with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
                load_run_config(_write_ini(path, section, key, token))
            with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
                load_run_config(overrides=[f"{section}.{key}={token}"])

    def test_defaults_build_the_default_engine_config(self):
        built, want = build_engine_config(load_run_config()), EngineConfig()
        for f in fields(EngineConfig):
            assert getattr(built, f.name) == getattr(want, f.name), f.name
        for model in ("device", "wire"):
            got, ref = getattr(built, model), getattr(want, model)
            for f in fields(ref):
                assert getattr(got, f.name) == getattr(ref, f.name), (model, f.name)

    def test_help_lists_every_domain(self):
        text = describe_defaults()
        for section, keys in SCHEMA.items():
            for key, (domain, default, _) in keys.items():
                assert f"  {key} = {default}    ; {domain}: " in text, (section, key)


class TestDomains:
    @pytest.mark.parametrize("value,want", [("AUTO", "auto"), ("Full", "full"), ("1", 1),
                                            (" 6 ", 6)])
    def test_adc_bits(self, value, want):
        assert load_run_config(overrides=[f"adc.bits={value}"])["adc"]["bits"] == want

    def test_one_bit_adc_reaches_the_engine(self):
        cfg = build_engine_config(load_run_config(overrides=["adc.bits=1"]))
        assert cfg.resolved_adc().bits == 1

    @pytest.mark.parametrize("value,want", [("Auto", "auto"), ("TRUE", True), ("off", False),
                                            ("1", True), ("0", False)])
    def test_dummy_enabled(self, value, want):
        got = load_run_config(overrides=[f"dummy.enabled={value}"])["dummy"]["enabled"]
        assert (got, type(got)) == (want, type(want))

    # the CLI probes in test_cli and the schema walk above cover the rest
    @pytest.mark.parametrize("item", ["adc.bits=3.0", "adc.bits=true", "device.kind=SRAM8T",
                                      "wire.preset=m4", "device.curve=Linear",
                                      "adc.rounding=HALF_UP", "dummy.domain=Analog"])
    def test_rejected(self, item):
        target = item.split("=", 1)[0]
        section, key = target.split(".")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
            load_run_config(overrides=[item])

    def test_zero_and_one_are_floats_on_float_keys(self):
        cfg = load_run_config(overrides=["wire.preset=custom", "wire.r_bl_per_cell=0",
                                         "wire.r_sl_per_cell=1", "adc.quantum=1e-6"])
        assert (cfg["wire"]["r_bl_per_cell"], cfg["wire"]["r_sl_per_cell"]) == (0.0, 1.0)
        assert type(cfg["wire"]["r_bl_per_cell"]) is float
        assert cfg["adc"]["quantum"] == 1e-6


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
            for axis in ("v_dev", "current"):
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
