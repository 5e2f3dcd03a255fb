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

A solve evaluates the same cells at many biases, so the stored and gate
bits are read once: :meth:`DeviceModel.cells` turns them into a
:class:`DeviceCells` record (each cell's gate-on target current, 0 when
the gate is off; its gate-off leak; the scale of its slope; and, for a
model with a table attached, the gate-on cells each table covers).
:meth:`DeviceModel.currents` and :meth:`DeviceModel.conductances` then
evaluate that record at a bias with a few in-place ufunc passes,
optionally into a caller's buffer.

Wire parasitics are plain per-cell series resistances.  The M3/M4/M6
presets encode only the expected ordering (lower metal = thinner wire =
more ohms); their magnitudes are tunable defaults, not measured values.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConfigWarning, ParseError

__all__ = ["CURVES", "DEVICE_FACTORIES", "DeviceCells", "DeviceLut", "DeviceModel", "WireModel",
           "WIRE_PRESETS", "load_device_lut"]

CURVES = ("tanh", "linear")


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


class DeviceCells(NamedTuple):
    """Per-cell data that :meth:`DeviceModel.cells` builds once per solve.

    ``target``: the cell's gate-on current at nominal bias (i_on for
    stored 1, i_hrs for stored 0), 0 where the gate is off.  ``leak``:
    i_off where the gate is off, 0 elsewhere, or None where the caller
    accounts for the leak itself.  ``slope``: the scale of the
    branch's slope, target / (v_knee * tanh(v_nominal / v_knee)), or
    target / v_nominal for linear cells.  ``lut1`` and ``lut0``: the
    gate-on cells of each stored state whose branch a table replaces, or
    None where no table is attached.
    """

    target: np.ndarray
    leak: np.ndarray | None
    slope: np.ndarray
    lut1: np.ndarray | None
    lut0: np.ndarray | None


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

    The fast solver relies on the gate-off leak being a constant current,
    whatever the cell's bias: it folds every gate-off cell into the wire
    as a fixed sink and iterates over the gate-on cells alone.  Anything
    that makes a cell's current depend on the cell itself (a per-cell
    variation factor, say) belongs on the gate-on branch, in ``target``
    and ``slope``.  A bias-dependent leak would break the folding, and a
    per-cell one the closed form of the offset it gives the wire.
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
        if self.kind not in DEVICE_FACTORIES:
            raise ConfigError(f"DeviceModel: unknown kind {self.kind!r}")
        if self.curve not in CURVES:
            raise ConfigError(f"DeviceModel: unknown curve {self.curve!r}")
        if not (math.isfinite(self.i_on) and self.i_on > self.i_hrs >= self.i_off >= 0):
            raise ConfigError(
                "DeviceModel: require finite i_on > i_hrs >= i_off >= 0, got "
                f"i_on={self.i_on}, i_hrs={self.i_hrs}, i_off={self.i_off}"
            )
        for name in ("v_nominal", "v_knee"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigError(f"DeviceModel: {name} must be finite and > 0, got {v}")

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

    def cells(self, stored, gate, leak: bool = True, out=None) -> DeviceCells:
        """Per-cell data of a batch of cells, broadcast over stored and gate
        bits: built once per solve, then read by every :meth:`currents`
        and :meth:`conductances` call at that batch's biases.  With
        ``leak`` False a gate-off cell draws nothing (``leak`` is None):
        the fast solver, which folds the leak into the wire, passes its
        padding rows as gate-off cells.  ``out``, if given, is two float64
        arrays of the broadcast shape that receive ``target`` and
        ``slope``."""
        s1, on = np.broadcast_arrays(*(b if b.dtype == bool else b > 0
                                       for b in map(np.asarray, (stored, gate))))
        target, slope = (np.empty(s1.shape), np.empty(s1.shape)) if out is None else out
        # each cell's (stored, gate) pair, 0..3, reads its values from a
        # table: one gather per array, where nested np.where takes three
        # passes.  The pair lives in slope's buffer until slope is written.
        pair = np.add(s1, on, dtype=np.intp, out=slope.view(np.intp))
        pair += on
        np.take([0.0, 0.0, self.i_hrs, self.i_on], pair, out=target, mode="clip")
        leaks = np.take([self.i_off, self.i_off, 0.0, 0.0], pair) if leak else None
        if self.curve == "linear":
            np.divide(target, self.v_nominal, out=slope)
        else:
            np.divide(target, self.v_knee * math.tanh(self.v_nominal / self.v_knee), out=slope)
        return DeviceCells(
            target=target,
            leak=leaks,
            slope=slope,
            lut1=on & s1 if self.lut_stored1 is not None else None,
            lut0=on & ~s1 if self.lut_stored0 is not None else None,
        )

    def _luts(self, cells: DeviceCells, v: np.ndarray, shape, slope: bool):
        """(mask, values) of each gate-on branch that a table replaces."""
        found = []
        for mask, lut in ((cells.lut1, self.lut_stored1), (cells.lut0, self.lut_stored0)):
            if mask is not None:
                mask = np.broadcast_to(mask, shape)
                vm = np.broadcast_to(v, shape)[mask]
                found.append((mask, lut.slope_vd(vm) if slope else lut.lookup(np.maximum(vm, 0.0))))
        return found

    def currents(self, cells: DeviceCells, v_cell, out=None) -> np.ndarray:
        """Cell currents at bias ``v_cell``: target * branch(max(v, 0)) + leak.

        The branch is tanh(v / v_knee) / tanh(v_nominal / v_knee), or
        v / v_nominal for linear cells, so a gate-on cell under reverse
        bias draws its 0 V current and a gate-off cell its leak.  ``out``,
        if given, receives the result and must not hold ``v_cell``.
        """
        v = np.asarray(v_cell, dtype=np.float64)
        shape = np.broadcast_shapes(np.shape(cells.target), v.shape)
        luts = self._luts(cells, v, shape, slope=False)
        out = np.empty(shape) if out is None else out
        np.maximum(v, 0.0, out=out)
        if self.curve == "linear":
            out /= self.v_nominal
            out *= cells.target
        else:
            out /= self.v_knee
            np.tanh(out, out=out)
            out *= cells.target
            out /= math.tanh(self.v_nominal / self.v_knee)
        if cells.leak is not None:
            out += cells.leak
        for mask, values in luts:
            out[mask] = values
        return out

    def conductances(self, cells: DeviceCells, v_cell, out=None) -> np.ndarray:
        """d(current)/d(cell voltage) matching :meth:`currents`:
        slope / cosh(v / v_knee)**2 (the slope itself for linear cells),
        and 0 where the current is flat (gate off, or v < 0).  ``out``, if
        given, receives the result and must not hold ``v_cell``."""
        v = np.asarray(v_cell, dtype=np.float64)
        shape = np.broadcast_shapes(np.shape(cells.target), v.shape)
        luts = self._luts(cells, v, shape, slope=True)
        out = np.empty(shape) if out is None else out
        if self.curve == "linear":
            np.copyto(out, cells.slope)
        else:
            np.divide(v, self.v_knee, out=out)
            # far from 0 V cosh**2 overflows to inf, and the slope is 0 there
            with np.errstate(over="ignore"):
                np.cosh(out, out=out)
                np.square(out, out=out)
            np.divide(cells.slope, out, out=out)
        for mask, values in luts:
            out[mask] = values
        np.copyto(out, 0.0, where=v < 0)
        return out


# device kind -> factory of its default model; the keys are the legal kinds
DEVICE_FACTORIES = {"sram8t": DeviceModel.sram8t, "reram1t1r": DeviceModel.reram1t1r}

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
            r = getattr(self, name)
            if not (r >= 0 and math.isfinite(r)):
                raise ConfigError(f"WireModel: {name} must be finite and >= 0, got {r}")

    @classmethod
    def preset(cls, tag: str, r_driver: float = 1000.0, r_sink: float = 1000.0) -> "WireModel":
        if tag not in WIRE_PRESETS:
            raise ConfigError(f"unknown wire preset {tag!r}; choose from {sorted(WIRE_PRESETS)}")
        r = WIRE_PRESETS[tag]
        return cls(r, r, r_driver=r_driver, r_sink=r_sink)
