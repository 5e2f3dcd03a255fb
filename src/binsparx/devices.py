"""Bitcell I-V models and parasitic wire parameters.

Two bitcell families are modeled: an 8T-SRAM-style cell whose stored-0 and
gate-off currents are both tiny leakage, and a 1T-1ReRAM cell whose
stored-0 (high-resistance state) current is only 10-50x below the ON
current and therefore matters.  The conduction branch uses a saturating
parametric curve

    I(v) = I_target * tanh(v / v_knee) / tanh(v_nominal / v_knee)

which is monotone, zero at zero bias, and reaches I_target at the nominal
read voltage; ``curve="linear"`` replaces it with I_target * v / v_nominal
for ohmic validation cases.  Measured tables can override the parametric
curve entirely: a :class:`DeviceLut` maps (gate voltage, cell voltage) to
current with bilinear interpolation, one table per stored state.

Wire parasitics are plain per-cell series resistances.  The M3/M4/M6
presets encode only the expected ordering (lower metal = thinner wire =
more ohms); their magnitudes are tunable defaults, not measured values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError

__all__ = ["DeviceLut", "DeviceModel", "WireModel", "WIRE_PRESETS", "load_device_lut"]


class DeviceLut:
    """Bilinear lookup of cell current over (gate voltage, cell voltage).

    Axes must be strictly increasing and currents non-negative.  Queries
    outside the grid clamp to the boundary; each such query bumps
    ``clamp_events`` (a plain counter, reset by the caller if needed;
    lookups are otherwise read-only).
    """

    def __init__(self, v_gate, v_dev, current):
        vg = np.asarray(v_gate, dtype=np.float64)
        vd = np.asarray(v_dev, dtype=np.float64)
        cur = np.asarray(current, dtype=np.float64)
        if vg.ndim != 1 or vd.ndim != 1:
            raise ParseError("DeviceLut: axes must be 1-D")
        if len(vg) < 2 or len(vd) < 2:
            raise ParseError("DeviceLut: need at least a 2x2 grid")
        if cur.shape != (len(vd), len(vg)):
            raise ParseError(
                f"DeviceLut: current grid {cur.shape} != ({len(vd)}, {len(vg)})"
            )
        if np.any(np.diff(vg) <= 0):
            raise ParseError("DeviceLut: gate-voltage axis not strictly increasing")
        if np.any(np.diff(vd) <= 0):
            raise ParseError("DeviceLut: device-voltage axis not strictly increasing")
        if np.any(~np.isfinite(cur)):
            raise ParseError("DeviceLut: non-finite current sample")
        if np.any(cur < 0):
            raise ParseError("DeviceLut: negative current sample")
        self.v_gate = vg
        self.v_dev = vd
        self.current = cur
        self.clamp_events = 0

    def _coords(self, axis: np.ndarray, x: np.ndarray):
        clamped = (x < axis[0]) | (x > axis[-1])
        xc = np.clip(x, axis[0], axis[-1])
        hi = np.clip(np.searchsorted(axis, xc, side="right"), 1, len(axis) - 1)
        lo = hi - 1
        frac = (xc - axis[lo]) / (axis[hi] - axis[lo])
        return lo, frac, int(clamped.sum())

    def _gate_interp(self, vg, vd):
        """The corner fetch of both queries: the current at the device-axis
        knots below (``top``) and above (``bot``) each query, interpolated
        along the gate axis, with the lower knot index, the device-axis
        fraction, the broadcast shape and the count of clamped coordinates."""
        vg_b, vd_b = np.broadcast_arrays(np.asarray(vg, dtype=np.float64),
                                         np.asarray(vd, dtype=np.float64))
        gi, gf, c1 = self._coords(self.v_gate, vg_b.ravel())
        di, df, c2 = self._coords(self.v_dev, vd_b.ravel())
        top = self.current[di, gi] * (1 - gf) + self.current[di, gi + 1] * gf
        bot = self.current[di + 1, gi] * (1 - gf) + self.current[di + 1, gi + 1] * gf
        return top, bot, di, df, vg_b.shape, c1 + c2

    @staticmethod
    def _out(values, shape, vg, vd):
        """Scalar in, scalar out: a float when both queries are scalars."""
        if np.isscalar(vg) and np.isscalar(vd):
            return float(values[0])
        return values.reshape(shape)

    def lookup(self, vg, vd):
        """Bilinearly interpolated current; scalar in, scalar out."""
        top, bot, _, df, shape, clamped = self._gate_interp(vg, vd)
        self.clamp_events += clamped
        return self._out(top * (1 - df) + bot * df, shape, vg, vd)

    def slope_vd(self, vg, vd):
        """Exact d(current)/d(cell voltage) of the bilinear interpolant;
        scalar in, scalar out."""
        top, bot, di, _, shape, _ = self._gate_interp(vg, vd)
        dv = self.v_dev[di + 1] - self.v_dev[di]
        return self._out((bot - top) / dv, shape, vg, vd)


def load_device_lut(path) -> DeviceLut:
    """Read a LUT from CSV: header row = gate-voltage axis, first column =
    device-voltage axis, body = currents in amperes.

    Parse failures report the offending row/column (1-based).
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and any(cell.strip() for cell in row):
                rows.append([cell.strip() for cell in row])
    if len(rows) < 3:
        raise ParseError(f"{path}: need a header and at least two data rows")
    width = len(rows[0])
    if width < 3:
        raise ParseError(f"{path}: need at least two gate-voltage columns")
    try:
        v_gate = [float(x) for x in rows[0][1:]]
    except ValueError as exc:
        raise ParseError(f"{path}: row 1: bad gate voltage ({exc})") from exc
    v_dev = []
    body = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {r}: expected {width} cells, got {len(row)}")
        try:
            v_dev.append(float(row[0]))
        except ValueError as exc:
            raise ParseError(f"{path}: row {r}, col 1: bad device voltage") from exc
        vals = []
        for c, cell in enumerate(row[1:], start=2):
            try:
                x = float(cell)
            except ValueError as exc:
                raise ParseError(f"{path}: row {r}, col {c}: bad current") from exc
            if math.isnan(x):
                raise ParseError(f"{path}: row {r}, col {c}: NaN current")
            if x < 0:
                raise ParseError(f"{path}: row {r}, col {c}: negative current")
            vals.append(x)
        body.append(vals)
    try:
        return DeviceLut(v_gate, v_dev, body)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


@dataclass
class DeviceModel:
    """One bitcell's electrical behavior.

    ``i_on``: conduction current at nominal bias for stored 1 with the gate
    on.  ``i_hrs``: same for stored 0, either kind (high-resistance path;
    the SRAM factory makes it ``i_off``).  ``i_off``: gate-off leakage,
    drawn regardless of cell bias.  Attach LUTs (per stored state) to
    override the parametric curve; the gate query voltage is 0 or
    ``v_nominal``.
    """

    kind: str = "sram8t"
    i_on: float = 1e-6
    i_hrs: float = 5e-11
    i_off: float = 5e-11
    v_nominal: float = 0.7
    v_knee: float = 0.35
    curve: str = "tanh"
    lut_stored1: DeviceLut | None = None
    lut_stored0: DeviceLut | None = None

    def __post_init__(self):
        if self.kind not in ("sram8t", "reram1t1r"):
            raise ConfigError(f"DeviceModel: unknown kind {self.kind!r}")
        if self.curve not in ("tanh", "linear"):
            raise ConfigError(f"DeviceModel: unknown curve {self.curve!r}")
        if not (self.i_on > self.i_hrs >= self.i_off >= 0):
            raise ConfigError(
                "DeviceModel: require i_on > i_hrs >= i_off >= 0, got "
                f"i_on={self.i_on}, i_hrs={self.i_hrs}, i_off={self.i_off}"
            )
        if self.v_nominal <= 0 or self.v_knee <= 0:
            raise ConfigError("DeviceModel: voltages must be positive")

    @classmethod
    def sram8t(cls, i_on: float = 1e-6, **kw) -> "DeviceModel":
        """8T-SRAM defaults: on/off ratio 2e4 (> 1e4); ``i_hrs``/``i_off`` in
        ``kw`` replace the default leakage."""
        leak = i_on / 2e4
        return cls(kind="sram8t", i_on=i_on, **{"i_hrs": leak, "i_off": leak, **kw})

    @classmethod
    def reram1t1r(cls, i_on: float = 1e-6, i_hrs: float = 1e-7, **kw) -> "DeviceModel":
        """1T-1ReRAM defaults: HRS current ~0.1 uA, on/HRS ratio in [10, 50],
        gate-off leakage i_on/1e5 unless ``kw`` sets ``i_off``."""
        return cls(kind="reram1t1r", i_on=i_on, i_hrs=i_hrs, **{"i_off": i_on / 1e5, **kw})

    def _branch_target(self, stored):
        """Conduction target at nominal bias for the gate-on branch."""
        return np.where(np.asarray(stored) > 0, self.i_on, self.i_hrs)

    def _curve(self, target, v):
        if self.curve == "linear":
            return target * (v / self.v_nominal)
        norm = math.tanh(self.v_nominal / self.v_knee)
        return target * np.tanh(v / self.v_knee) / norm

    def _curve_slope(self, target, v):
        if self.curve == "linear":
            return target / self.v_nominal
        norm = math.tanh(self.v_nominal / self.v_knee)
        return target / (self.v_knee * norm) / np.cosh(v / self.v_knee) ** 2

    def currents(self, stored, gate, v_cell) -> np.ndarray:
        """Cell current, broadcast over stored bit, gate bit and bias.

        Gate off draws ``i_off`` regardless of bias; gate on follows the
        stored-state branch (LUT if attached, parametric otherwise), with
        negative bias clamped to zero."""
        stored = np.asarray(stored)
        gate = np.asarray(gate)
        v = np.clip(np.asarray(v_cell, dtype=np.float64), 0.0, None)
        stored_b, gate_b, v_b = np.broadcast_arrays(stored, gate, v)
        out = np.full(v_b.shape, self.i_off, dtype=np.float64)
        on = gate_b > 0
        if np.any(on):
            if self.lut_stored1 is not None or self.lut_stored0 is not None:
                vg = np.where(gate_b, self.v_nominal, 0.0)
                para = self._curve(self._branch_target(stored_b), v_b)
                c1 = (
                    np.asarray(self.lut_stored1.lookup(vg, v_b))
                    if self.lut_stored1 is not None
                    else para
                )
                c0 = (
                    np.asarray(self.lut_stored0.lookup(vg, v_b))
                    if self.lut_stored0 is not None
                    else para
                )
                out = np.where(on, np.where(stored_b > 0, c1, c0), out)
            else:
                out = np.where(on, self._curve(self._branch_target(stored_b), v_b), out)
        return out

    def conductances(self, stored, gate, v_cell) -> np.ndarray:
        """d(current)/d(cell voltage) matching :meth:`currents`."""
        stored = np.asarray(stored)
        gate = np.asarray(gate)
        v = np.clip(np.asarray(v_cell, dtype=np.float64), 0.0, None)
        stored_b, gate_b, v_b = np.broadcast_arrays(stored, gate, v)
        out = np.zeros(v_b.shape, dtype=np.float64)
        on = gate_b > 0
        if np.any(on):
            if self.lut_stored1 is not None or self.lut_stored0 is not None:
                vg = np.where(gate_b, self.v_nominal, 0.0)
                s1 = stored_b > 0
                para = self._curve_slope(self._branch_target(stored_b), v_b)
                g1 = (
                    np.asarray(self.lut_stored1.slope_vd(vg, v_b))
                    if self.lut_stored1 is not None
                    else para
                )
                g0 = (
                    np.asarray(self.lut_stored0.slope_vd(vg, v_b))
                    if self.lut_stored0 is not None
                    else para
                )
                out = np.where(on, np.where(s1, g1, g0), out)
            else:
                out = np.where(on, self._curve_slope(self._branch_target(stored_b), v_b), out)
        return out


WIRE_PRESETS = {"M3": 40.0, "M4": 25.0, "M6": 8.0}  # ohm per cell, BL and SL


@dataclass(frozen=True)
class WireModel:
    """Per-cell line resistances plus driver/sink lumps (all ohms).

    ``r_sink`` is carried for completeness but canceled by the op-amp
    virtual ground at the sense node, so the solver never sees it.
    """

    r_bl_per_cell: float
    r_sl_per_cell: float
    r_driver: float = 1000.0
    r_sink: float = 1000.0
    preset_tag: str = "custom"

    def __post_init__(self):
        for name in ("r_bl_per_cell", "r_sl_per_cell", "r_driver", "r_sink"):
            if getattr(self, name) < 0:
                raise ConfigError(f"WireModel: {name} must be >= 0")

    @classmethod
    def preset(cls, tag: str, r_driver: float = 1000.0, r_sink: float = 1000.0) -> "WireModel":
        if tag not in WIRE_PRESETS:
            raise ConfigError(f"unknown wire preset {tag!r}; choose from {sorted(WIRE_PRESETS)}")
        r = WIRE_PRESETS[tag]
        return cls(r, r, r_driver=r_driver, r_sink=r_sink, preset_tag=tag)
