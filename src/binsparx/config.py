"""Run configuration: INI files with typed sections, defaults, overrides.

Precedence is flag > environment > file > default.  Unknown sections or
keys are rejected, every key has a documented default, and the fully
resolved document is echoed into every output artifact so a run can be
reproduced from any of its outputs.

Each key's domain is ``|``-separated alternatives, and a value takes the
first it fits: ``int``; ``float``, finite only; ``bool`` (1/true/yes/on or
0/false/no/off, any case); ``str``, for paths; or a literal token, where
``auto`` and ``full`` match in any case and a choice key's choices match
exactly.  A value that fits none raises :class:`ConfigError` naming its
``[section] key``.
"""

from __future__ import annotations

import configparser
import math
import os
from pathlib import Path

from .devices import (CURVES, DEVICE_FACTORIES, WIRE_PRESETS, DeviceModel, WireModel,
                      load_device_lut)
from .engine import EngineConfig
from .errors import ConfigError
from .readout import DUMMY_DOMAINS, ROUNDINGS

__all__ = [
    "SCHEMA",
    "load_run_config",
    "build_device",
    "build_wire",
    "build_engine_config",
    "describe_defaults",
]

_AUTO = "auto"

# section -> key -> (domain, default, help)
SCHEMA = {
    "array": {
        "n": ("int", 64, "rows per tile"),
        "m": ("int", 64, "columns per tile"),
    },
    "device": {
        "kind": ("|".join(DEVICE_FACTORIES), "sram8t", "bitcell technology"),
        "i_on": ("float", 1e-6, "ON current at nominal bias (A)"),
        "i_hrs": ("auto|float", _AUTO, "stored-0 gate-on current (A); auto derives from kind"),
        "i_off": ("auto|float", _AUTO, "gate-off leakage (A); auto derives from kind"),
        "v_nominal": ("float", 0.7, "read voltage (V)"),
        "v_knee": ("auto|float", _AUTO, "saturation knee (V); auto = v_nominal/2"),
        "curve": ("|".join(CURVES), "tanh", "gate-on I-V branch"),
        "lut_stored1": ("str", "", "CSV LUT for stored-1 cells (optional)"),
        "lut_stored0": ("str", "", "CSV LUT for stored-0 cells (optional)"),
    },
    "wire": {
        "preset": ("|".join([*WIRE_PRESETS, "custom"]), "M4", "per-cell wire resistance"),
        "r_bl_per_cell": ("auto|float", _AUTO, "ohm/cell; required when preset=custom"),
        "r_sl_per_cell": ("auto|float", _AUTO, "ohm/cell; required when preset=custom"),
        "r_driver": ("float", 1000.0, "driver lump (ohm)"),
        "r_sink": ("float", 1000.0, "sink lump (ohm); canceled by op-amp sensing"),
    },
    "adc": {
        "bits": ("auto|full|int", _AUTO,
                 "bit width; auto = log2 n (minus 1 with BinSparX), full never saturates"),
        "quantum": ("auto|float", _AUTO, "A per level; auto = i_on (i_on - i_hrs with the dummy)"),
        "offset": ("float", 0.0, "A"),
        "rounding": ("|".join(ROUNDINGS), "half_even", "tie rule"),
    },
    "dummy": {
        "enabled": ("auto|bool", _AUTO, "all-HRS dummy column; auto = on for ReRAM"),
        "domain": ("|".join(DUMMY_DOMAINS), "analog", "subtract before or after the ADC"),
    },
    "binsparx": {
        "enabled": ("bool", True, "static+dynamic sparsification on/off"),
    },
    "solver": {
        "tol": ("float", 1e-6, "relative convergence tolerance"),
        "max_iter": ("int", 200, "Newton iteration cap"),
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

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_ANY_CASE = ("auto", "full")


def _parse_value(section: str, key: str, raw: str):
    """``raw`` read as the first alternative of the key's domain it fits."""
    domain = SCHEMA[section][key][0]
    text = raw.strip()
    low = text.lower()
    for alt in domain.split("|"):
        if alt == "str":
            return text
        if alt == "bool":
            if low in _BOOLS:
                return _BOOLS[low]
        elif alt in ("int", "float"):
            try:
                value = int(text) if alt == "int" else float(text)
            except ValueError:
                continue
            if math.isfinite(value):
                return value
        elif alt == (low if alt in _ANY_CASE else text):
            return alt
    raise ConfigError(f"[{section}] {key}: expected {domain}, got {text!r}")


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
                cfg[section][key] = _parse_value(section, key, raw)

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
        cfg[section][key] = _parse_value(section, key, value)

    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    wire = cfg["wire"]
    if wire["preset"] == "custom":
        for k in ("r_bl_per_cell", "r_sl_per_cell"):
            if wire[k] == _AUTO:
                raise ConfigError(f"[wire] {k} required when preset=custom")
    # integer floors; a bits value of auto or full has none
    for section, key, least in (("array", "n", 1), ("array", "m", 1), ("adc", "bits", 1),
                                ("run", "trials", 1), ("run", "seed", 0)):
        value = cfg[section][key]
        if isinstance(value, int) and value < least:
            raise ConfigError(f"[{section}] {key}: must be >= {least}, got {value}")


def build_device(cfg: dict) -> DeviceModel:
    """The kind's factory model, with explicit ``i_hrs`` / ``i_off`` on top."""
    dev = cfg["device"]
    v_knee = dev["v_nominal"] / 2 if dev["v_knee"] == _AUTO else dev["v_knee"]
    explicit = {k: dev[k] for k in ("i_hrs", "i_off") if dev[k] != _AUTO}
    model = DEVICE_FACTORIES[dev["kind"]](
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
        best_effort=cfg["run"]["best_effort"],
    )


def describe_defaults() -> str:
    """Human-readable schema dump for --help-config."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (domain, default, doc) in keys.items():
            lines.append(f"  {key} = {default}    ; {domain}: {doc}")
        lines.append("")
    return "\n".join(lines)
