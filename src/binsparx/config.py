"""Run configuration: INI files with typed sections, defaults, overrides.

Precedence is flag > environment > file > default.  Unknown sections or
keys are rejected, every key has a documented default, and the fully
resolved document is echoed into every output artifact so a run can be
reproduced from any of its outputs.
"""

from __future__ import annotations

import configparser
import os
from pathlib import Path

from .devices import WIRE_PRESETS, DeviceModel, WireModel, load_device_lut
from .engine import EngineConfig
from .errors import ConfigError

__all__ = [
    "SCHEMA",
    "load_run_config",
    "build_device",
    "build_wire",
    "build_engine_config",
    "describe_defaults",
]

_AUTO = "auto"

# section -> key -> (type, default, help); type "num" accepts "auto"
SCHEMA = {
    "array": {
        "n": ("int", 64, "rows per tile"),
        "m": ("int", 64, "columns per tile"),
    },
    "device": {
        "kind": ("str", "sram8t", "sram8t | reram1t1r"),
        "i_on": ("float", 1e-6, "ON current at nominal bias (A)"),
        "i_hrs": ("num", _AUTO, "stored-0 gate-on current (A); auto derives from kind"),
        "i_off": ("num", _AUTO, "gate-off leakage (A); auto derives from kind"),
        "v_nominal": ("float", 0.7, "read voltage (V)"),
        "v_knee": ("num", _AUTO, "saturation knee (V); auto = v_nominal/2"),
        "curve": ("str", "tanh", "tanh | linear"),
        "lut_stored1": ("str", "", "CSV LUT for stored-1 cells (optional)"),
        "lut_stored0": ("str", "", "CSV LUT for stored-0 cells (optional)"),
    },
    "wire": {
        "preset": ("str", "M4", " | ".join([*WIRE_PRESETS, "custom"])),
        "r_bl_per_cell": ("num", _AUTO, "ohm/cell; required when preset=custom"),
        "r_sl_per_cell": ("num", _AUTO, "ohm/cell; required when preset=custom"),
        "r_driver": ("float", 1000.0, "driver lump (ohm)"),
        "r_sink": ("float", 1000.0, "sink lump (ohm); canceled by op-amp sensing"),
    },
    "adc": {
        "bits": ("num", _AUTO, "auto | full | integer bit width"),
        "quantum": ("num", _AUTO, "A per level; auto = i_on, or i_on - i_hrs with the dummy on"),
        "offset": ("float", 0.0, "A"),
        "rounding": ("str", "half_even", "half_even | half_up"),
    },
    "dummy": {
        "enabled": ("num", _AUTO, "auto | true | false; auto = on for ReRAM"),
        "domain": ("str", "analog", "analog | digital subtraction"),
    },
    "binsparx": {
        "enabled": ("bool", True, "static+dynamic sparsification on/off"),
    },
    "solver": {
        "tol": ("float", 1e-6, "relative convergence tolerance"),
        "max_iter": ("int", 200, "Newton iteration cap"),
        "topology": ("str", "opposite", "opposite | same sense-pad end"),
    },
    "run": {
        "seed": ("int", 0, "root seed for all randomness"),
        "trials": ("int", 10000, "samples per sweep point"),
        "output_dir": ("str", "out", "artifact directory"),
        "nonidealities": ("bool", True, "electrical solve on/off"),
        "best_effort": ("bool", False, "keep going past non-convergent columns"),
        "binarize_threshold": ("float", 0.0, "feature > threshold maps to +1"),
    },
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_value(section: str, key: str, raw, kind):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            low = text.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind == "num":
            low = text.lower()
            if low in (_AUTO, "full"):
                return low
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _defaults() -> dict:
    return {sec: {k: spec[1] for k, spec in keys.items()} for sec, keys in SCHEMA.items()}


def load_run_config(path=None, overrides=None) -> dict:
    """Resolve defaults <- file <- BINSPARX_OUTPUT_DIR <- overrides.

    ``overrides`` are ``section.key=value`` strings (CLI flags).  Unknown
    sections/keys and malformed values raise :class:`ConfigError`.
    """
    cfg = _defaults()

    if path is not None:
        parser = configparser.ConfigParser()
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            parser.read_string(p.read_text(), source=str(p))
        except configparser.Error as exc:
            raise ConfigError(f"{p}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{p}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{p}: unknown key [{section}] {key}")
                cfg[section][key] = _parse_value(section, key, raw, SCHEMA[section][key][0])

    env_out = os.environ.get("BINSPARX_OUTPUT_DIR")
    if env_out:
        cfg["run"]["output_dir"] = env_out

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        cfg[section][key] = _parse_value(section, key, value, SCHEMA[section][key][0])

    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    dev = cfg["device"]
    if dev["kind"] not in ("sram8t", "reram1t1r"):
        raise ConfigError(f"[device] kind: unknown {dev['kind']!r}")
    wire = cfg["wire"]
    if wire["preset"] not in (*WIRE_PRESETS, "custom"):
        raise ConfigError(f"[wire] preset: unknown {wire['preset']!r}")
    if wire["preset"] == "custom":
        for k in ("r_bl_per_cell", "r_sl_per_cell"):
            if wire[k] == _AUTO:
                raise ConfigError(f"[wire] {k} required when preset=custom")
    adc = cfg["adc"]
    if isinstance(adc["bits"], float):
        if adc["bits"] != int(adc["bits"]):
            raise ConfigError("[adc] bits must be an integer, 'auto', or 'full'")
        adc["bits"] = int(adc["bits"])
    if adc["bits"] is True or adc["bits"] is False:
        raise ConfigError("[adc] bits must be an integer, 'auto', or 'full'")
    if cfg["dummy"]["enabled"] not in (True, False, _AUTO):
        raise ConfigError("[dummy] enabled must be true, false, or auto")
    if cfg["run"]["trials"] < 1:
        raise ConfigError("[run] trials must be >= 1")


def build_device(cfg: dict) -> DeviceModel:
    """The kind's factory model, with explicit ``i_hrs`` / ``i_off`` on top."""
    dev = cfg["device"]
    v_knee = dev["v_knee"]
    if v_knee == _AUTO:
        v_knee = dev["v_nominal"] / 2
    factory = DeviceModel.sram8t if dev["kind"] == "sram8t" else DeviceModel.reram1t1r
    explicit = {k: dev[k] for k in ("i_hrs", "i_off") if dev[k] != _AUTO}
    model = factory(
        i_on=dev["i_on"], v_nominal=dev["v_nominal"], v_knee=v_knee, curve=dev["curve"],
        **explicit,
    )
    if dev["lut_stored1"]:
        model.lut_stored1 = load_device_lut(dev["lut_stored1"], dev["v_nominal"])
    if dev["lut_stored0"]:
        model.lut_stored0 = load_device_lut(dev["lut_stored0"], dev["v_nominal"])
    return model


def build_wire(cfg: dict) -> WireModel:
    wire = cfg["wire"]
    if wire["preset"] != "custom":
        return WireModel.preset(
            wire["preset"], r_driver=wire["r_driver"], r_sink=wire["r_sink"]
        )
    return WireModel(
        r_bl_per_cell=wire["r_bl_per_cell"],
        r_sl_per_cell=wire["r_sl_per_cell"],
        r_driver=wire["r_driver"],
        r_sink=wire["r_sink"],
    )


def build_engine_config(cfg: dict) -> EngineConfig:
    return EngineConfig(
        n=cfg["array"]["n"],
        m=cfg["array"]["m"],
        binsparx=cfg["binsparx"]["enabled"],
        nonidealities=cfg["run"]["nonidealities"],
        device=build_device(cfg),
        wire=build_wire(cfg),
        adc_bits=cfg["adc"]["bits"],
        adc_quantum=cfg["adc"]["quantum"],
        adc_offset=cfg["adc"]["offset"],
        adc_rounding=cfg["adc"]["rounding"],
        dummy_enabled=cfg["dummy"]["enabled"],
        dummy_domain=cfg["dummy"]["domain"],
        solver_tol=cfg["solver"]["tol"],
        solver_max_iter=cfg["solver"]["max_iter"],
        topology=cfg["solver"]["topology"],
        seed=cfg["run"]["seed"],
        best_effort=cfg["run"]["best_effort"],
    )


def describe_defaults() -> str:
    """Human-readable schema dump for --help-config."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, default, doc) in keys.items():
            lines.append(f"  {key} = {default}    ; {kind}: {doc}")
        lines.append("")
    return "\n".join(lines)
