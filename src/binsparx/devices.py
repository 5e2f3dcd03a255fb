"""Bitcell I-V models and parasitic wire parameters.

Two bitcell families are modeled: an 8T-SRAM-style cell whose stored-0 and
gate-off currents are both tiny leakage, and a 1T-1ReRAM cell whose
stored-0 (high-resistance state) current is only 10-50x below the ON
current and therefore matters.  The conduction branch uses a saturating
parametric curve

    I(v) = I_target * tanh(v / v_knee) / tanh(v_nominal / v_knee)

which is monotone, zero at zero bias, and reaches I_target at the nominal
read voltage; ``curve="linear"`` replaces it with I_target * v / v_nominal
for ohmic validation cases.  A measured table per stored state can
replace the parametric curve: :func:`load_device_lut` reads current over
(gate voltage, cell voltage) and slices it once, at the gate voltage
``v_nominal`` that a gate-on cell sees, into a :class:`DeviceLut` curve.
The curve is linear between its cell-voltage knots and flat, with slope
0, outside its device axis.

Wire parasitics are plain per-cell series resistances.  The M3/M4/M6
presets encode only the expected ordering (lower metal = thinner wire =
more ohms); their magnitudes are tunable defaults, not measured values.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConfigWarning, ParseError

__all__ = ["DeviceLut", "DeviceModel", "WireModel", "WIRE_PRESETS", "load_device_lut"]


def _increasing(axis: np.ndarray) -> bool:
    """True for a finite, strictly increasing axis."""
    return bool(np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0))


def _locate(axis: np.ndarray, x):
    """The knot below each ``x`` clipped into ``axis``, and the clipped
    coordinate's fraction of the way to the next knot."""
    xc = np.clip(x, axis[0], axis[-1])
    lo = np.clip(np.searchsorted(axis, xc, side="right"), 1, len(axis) - 1) - 1
    return lo, (xc - axis[lo]) / (axis[lo + 1] - axis[lo])


class DeviceLut:
    """A gate-on cell's measured current over cell voltage.

    ``v_dev`` must be finite and strictly increasing with at least two
    knots, ``current`` one finite, non-negative sample per knot.  Between
    knots the current is interpolated linearly; outside the axis it is
    flat at the boundary sample, with slope 0.  :func:`load_device_lut`
    builds one from a measured (gate voltage, cell voltage) table.
    """

    def __init__(self, v_dev, current):
        vd = np.asarray(v_dev, dtype=np.float64)
        cur = np.asarray(current, dtype=np.float64)
        if vd.ndim != 1 or len(vd) < 2:
            raise ParseError("DeviceLut: device-voltage axis must be 1-D with at least two knots")
        if cur.shape != vd.shape:
            raise ParseError(f"DeviceLut: current samples {cur.shape} != ({len(vd)},)")
        if not _increasing(vd):
            raise ParseError("DeviceLut: device-voltage axis not finite and strictly increasing")
        if not np.all(np.isfinite(cur) & (cur >= 0)):
            raise ParseError("DeviceLut: current samples must be finite and >= 0")
        self.v_dev, self.current = vd, cur

    def lookup(self, vd):
        """Interpolated current per cell voltage."""
        lo, f = _locate(self.v_dev, vd)
        return self.current[lo] * (1 - f) + self.current[lo + 1] * f

    def slope_vd(self, vd):
        """Exact d(current)/d(cell voltage) of :meth:`lookup` per cell
        voltage: the segment's slope inside the axis, 0 outside it."""
        axis, cur = self.v_dev, self.current
        lo, _ = _locate(axis, vd)
        slope = (cur[lo + 1] - cur[lo]) / (axis[lo + 1] - axis[lo])
        return np.where((vd < axis[0]) | (vd > axis[-1]), 0.0, slope)


def load_device_lut(path, v_gate: float) -> DeviceLut:
    """Read a measured table from CSV and slice it at gate voltage ``v_gate``.

    Header row = gate-voltage axis, first column = device-voltage axis,
    body = currents in amperes; both axes must be finite and strictly
    increasing.  The two gate columns around ``v_gate`` are blended
    linearly, once, into the returned curve.  A ``v_gate`` outside the
    gate axis reads the boundary column and issues a
    :class:`ConfigWarning`.  Parse failures report the offending
    row/column (1-based).
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
        gates = np.array([float(x) for x in rows[0][1:]])
    except ValueError as exc:
        raise ParseError(f"{path}: row 1: bad gate voltage ({exc})") from exc
    if not _increasing(gates):
        raise ParseError(f"{path}: gate-voltage axis not finite and strictly increasing")
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
            if not math.isfinite(x):
                raise ParseError(f"{path}: row {r}, col {c}: non-finite current")
            if x < 0:
                raise ParseError(f"{path}: row {r}, col {c}: negative current")
            vals.append(x)
        body.append(vals)
    if not gates[0] <= v_gate <= gates[-1]:
        warnings.warn(f"{path}: gate voltage {v_gate} V is outside the table's gate axis "
                      f"[{gates[0]}, {gates[-1]}] V; reading its boundary column",
                      ConfigWarning, stacklevel=2)
    cur = np.array(body)
    gi, gf = _locate(gates, float(v_gate))
    try:
        return DeviceLut(v_dev, cur[:, gi] * (1 - gf) + cur[:, gi + 1] * gf)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


@dataclass
class DeviceModel:
    """One bitcell's electrical behavior.

    ``i_on``: conduction current at nominal bias for stored 1 with the gate
    on.  ``i_hrs``: same for stored 0, either kind (high-resistance path;
    the SRAM factory makes it ``i_off``).  ``i_off``: gate-off leakage,
    drawn regardless of cell bias.  A gate-on cell under reverse bias
    draws its 0 V current (nothing, on the parametric curve).  A LUT
    attached for a stored state replaces that state's parametric branch;
    it is the gate-on curve, a measured table that
    :func:`load_device_lut` sliced at ``v_nominal``.
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

    def _curve(self, target, v, slope: bool):
        """The parametric gate-on branch at bias ``v``, or its slope in ``v``."""
        if self.curve == "linear":
            return target / self.v_nominal if slope else target * (v / self.v_nominal)
        norm = math.tanh(self.v_nominal / self.v_knee)
        if slope:
            return target / (self.v_knee * norm) / np.cosh(v / self.v_knee) ** 2
        return target * np.tanh(v / self.v_knee) / norm

    def _evaluate(self, stored, gate, v_cell, slope: bool) -> np.ndarray:
        """Cell current, or with ``slope`` its derivative in the cell
        voltage, broadcast over stored bit, gate bit and bias.

        Gate off draws ``i_off`` whatever the bias, and a gate-on cell
        under reverse bias draws its 0 V current: both are flat, slope 0.
        A gate-on cell at bias v >= 0 follows its stored state's branch:
        the LUT if one is attached, the parametric curve otherwise."""
        stored, gate, v = np.broadcast_arrays(
            np.asarray(stored), np.asarray(gate), np.asarray(v_cell, dtype=np.float64))
        on = gate > 0
        if slope:
            on &= v >= 0
            flat = 0.0
        else:
            v = np.clip(v, 0.0, None)
            flat = self.i_off
        s1 = stored > 0
        if self.lut_stored1 is None and self.lut_stored0 is None:
            return np.where(on, self._curve(np.where(s1, self.i_on, self.i_hrs), v, slope), flat)
        out = np.full(v.shape, flat)
        for cells, lut, target in ((on & s1, self.lut_stored1, self.i_on),
                                   (on & ~s1, self.lut_stored0, self.i_hrs)):
            if lut is None:
                out[cells] = self._curve(target, v[cells], slope)
            elif slope:
                out[cells] = lut.slope_vd(v[cells])
            else:
                out[cells] = lut.lookup(v[cells])
        return out

    def currents(self, stored, gate, v_cell) -> np.ndarray:
        """Cell current, broadcast over stored bit, gate bit and bias."""
        return self._evaluate(stored, gate, v_cell, slope=False)

    def conductances(self, stored, gate, v_cell) -> np.ndarray:
        """d(current)/d(cell voltage) matching :meth:`currents`: 0 where the
        current is flat (gate off, or reverse bias)."""
        return self._evaluate(stored, gate, v_cell, slope=True)


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

    def __post_init__(self):
        for name in ("r_bl_per_cell", "r_sl_per_cell", "r_driver", "r_sink"):
            if getattr(self, name) < 0:
                raise ConfigError(f"WireModel: {name} must be >= 0")

    @classmethod
    def preset(cls, tag: str, r_driver: float = 1000.0, r_sink: float = 1000.0) -> "WireModel":
        if tag not in WIRE_PRESETS:
            raise ConfigError(f"unknown wire preset {tag!r}; choose from {sorted(WIRE_PRESETS)}")
        r = WIRE_PRESETS[tag]
        return cls(r, r, r_driver=r_driver, r_sink=r_sink)
