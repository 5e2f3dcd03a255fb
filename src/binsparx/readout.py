"""Current sensing: dummy-column compensation and ADC quantization.

The sense chain is an op-amp virtual ground (sink resistance fully
canceled) followed by an ADC whose quantum defaults to one ON-cell current
as the ADC sees it, so digital level k corresponds to an ideal count of k
ON cells.  For ReRAM arrays, an all-HRS dummy column driven by the same
activations is solved alongside the data columns and its current
subtracted before (analog) or after (digital) digitization.  The dummy
draws i_hrs for every asserted row, stored-1 rows included, so the
subtraction cancels the stored-0 leakage and leaves one compensated ON
cell reading i_on - i_hrs; with the dummy on, the auto quantum is
i_on - i_hrs to match (``EngineConfig.resolved_adc``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["AdcModel", "DUMMY_DOMAINS", "ROUNDINGS", "dummy_compensate"]

ROUNDINGS = ("half_even", "half_up")
# subtract the dummy column before ("analog") or after ("digital") the ADC
DUMMY_DOMAINS = ("analog", "digital")

# ratios within this many ulps of a half-level count as exact ties
_TIE_ULPS = 4


@dataclass(frozen=True)
class AdcModel:
    """Mid-rise quantizer: level = clamp(round((i - offset)/quantum), 0, 2^bits - 1).

    Ties round to nearest even by default (``half_up``: ties round up).  A
    ratio within ``_TIE_ULPS`` ulps of a half-level is a tie: an input of
    (k + 0.5) * quantum divides back to k + 0.5 only up to float rounding
    (2.5e-6 / 1e-6 == 2.5000000000000004), so such ratios are snapped to
    the half-level before the rounding rule applies.  Out-of-range inputs
    saturate; saturation is legal, counted behavior, not an error.
    """

    bits: int
    quantum: float
    offset: float = 0.0
    rounding: str = "half_even"

    def __post_init__(self):
        if self.bits < 1:
            raise ConfigError(f"AdcModel: bits must be >= 1, got {self.bits}")
        if not (self.quantum > 0 and math.isfinite(self.quantum)):
            raise ConfigError(f"AdcModel: quantum must be finite and > 0, got {self.quantum}")
        if not math.isfinite(self.offset):
            raise ConfigError(f"AdcModel: offset must be finite, got {self.offset}")
        if self.rounding not in ROUNDINGS:
            raise ConfigError(f"AdcModel: rounding must be one of {ROUNDINGS}")

    @property
    def levels(self) -> int:
        return 1 << self.bits

    def _round(self, x: np.ndarray) -> np.ndarray:
        half = np.floor(x) + 0.5
        x = np.where(np.abs(x - half) <= _TIE_ULPS * np.spacing(np.abs(x)), half, x)
        if self.rounding == "half_up":
            return np.floor(x + 0.5)
        return np.rint(x)

    def quantize_array(self, i: np.ndarray) -> tuple[np.ndarray, int]:
        """Digitize currents (amperes) to integer levels; also returns the
        saturation count."""
        x = np.asarray(i, dtype=np.float64)
        if x.size and x.min() < 0:
            raise DomainError("adc input must be >= 0")
        raw = self._round((x - self.offset) / self.quantum)
        clamped = int(((raw < 0) | (raw > self.levels - 1)).sum())
        return np.clip(raw, 0, self.levels - 1).astype(np.int64), clamped


def dummy_compensate(i_data, i_dummy):
    """Subtract the dummy-column current, floored at zero."""
    return np.maximum(0.0, np.asarray(i_data) - np.asarray(i_dummy))
