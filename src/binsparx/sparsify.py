"""BinSparX: static weight and dynamic activation flips with exact sign repair.

Three rules, each written once here and vectorized over every row tile:

* :func:`sparsify_tile` stores a weight column negated whenever its signed
  sum over the tile's logical rows is >= 0 (ties included);
* :func:`sparsify_activations` applies an activation sub-vector negated
  whenever its one-count exceeds n/2 (strictly);
* :func:`postprocess` turns the digitized AND count back into the signed
  dot product, 4*raw - 2*sum(I') - 2*sum(W') + n, and multiplies it by
  (-1)^(activation_flip XOR column_flip).

Both flips cap the number of 1s at about half the rows, shrinking column
currents.  One flip bit per column (kept in a peripheral register) and one
per activation vector record what happened; the sign repair is exact
because sum(I*W) = sum((-I)*(-W)) = -sum((-I)*W).  Padding rows are never
flipped and stay 0.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ConfigWarning

if TYPE_CHECKING:
    from .bnn import TiledWeights

__all__ = [
    "sparsify_tile",
    "sparsify_activations",
    "postprocess",
    "adc_bits_required",
]


def _logical_rows(n: int, n_logical: np.ndarray) -> np.ndarray:
    """(row_tiles, n) bool: True on the un-padded rows of each row tile."""
    return np.arange(n) < np.asarray(n_logical)[:, None]


def sparsify_tile(tiles: TiledWeights) -> TiledWeights:
    """Static weight sparsification of every column of every row tile.

    A column is stored complemented over its tile's logical rows when
    2*ones >= n_logical, i.e. when its signed sum is >= 0; such a column
    then holds at most floor(n_logical/2) ones.  ``column_flip`` toggles
    for each flipped column, so the record still says which stored columns
    complement the original.
    """
    n = tiles.stored.shape[1]
    n_logical = tiles.n_logical
    flip = 2 * tiles.sum_wprime >= n_logical[:, None]
    cells = flip[:, None, :] & _logical_rows(n, n_logical)[:, :, None]
    return replace(
        tiles,
        stored=np.where(cells, 1 - tiles.stored, tiles.stored).astype(np.int8, copy=False),
        column_flip=tiles.column_flip ^ flip,
        sum_wprime=np.where(flip, n_logical[:, None] - tiles.sum_wprime, tiles.sum_wprime),
    )


def sparsify_activations(mapped: np.ndarray, n_logical, enabled: bool):
    """Dynamic activation flip of (B, row_tiles, n) {0,1} sub-vectors.

    A sub-vector with more than n_logical/2 ones (strict: exactly half is
    left alone) is applied complemented over its logical rows; padding
    rows must be 0 in ``mapped`` and stay 0.  With ``enabled`` false
    nothing flips.  Returns (applied (B, row_tiles, n) int8, sum_i
    (B, row_tiles) int64 one-count of the applied vector, a_flip
    (B, row_tiles) bool).
    """
    n_logical = np.asarray(n_logical)
    ones = mapped.sum(axis=-1, dtype=np.int64)
    a_flip = (2 * ones > n_logical) & enabled
    cells = a_flip[..., None] & _logical_rows(mapped.shape[-1], n_logical)
    applied = np.where(cells, 1 - mapped, mapped).astype(np.int8, copy=False)
    return applied, np.where(a_flip, n_logical - ones, ones), a_flip


def postprocess(raw, sum_i, a_flip, sum_wprime, w_flip, n_logical):
    """Recover signed dot products from digitized AND counts.

    ``raw`` is the (possibly non-ideal) count of a stored column under an
    applied activation, ``sum_i``/``sum_wprime`` the one-counts of that
    activation and column, ``a_flip``/``w_flip`` their flip bits and
    ``n_logical`` the tile's logical rows; all broadcast together.  The
    corrected value is negated where exactly one flip bit is set.  With an
    ideal count the result equals the original signed dot product exactly.
    """
    v = 4 * raw - 2 * sum_i - 2 * sum_wprime + n_logical
    return np.where(np.logical_xor(a_flip, w_flip), -v, v)


def adc_bits_required(n: int, binsparx_enabled: bool) -> int:
    """ADC bits needed for one column of an n-row array.

    log2(n) covers counts produced by n simultaneously asserted rows; with
    sparsification the one-count caps halve the range, allowing
    log2(n) - 1 bits.  ``n`` must be a power of two (rounding up silently
    is not permitted); tiny arrays where the reduced width reaches 0 bits
    trigger a ConfigWarning.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"adc_bits_required: n={n} is not a power of two >= 2")
    bits = n.bit_length() - 1
    if binsparx_enabled:
        bits -= 1
        if bits < 1:
            warnings.warn(
                f"n={n} yields a {bits}-bit ADC under sparsification",
                ConfigWarning,
                stacklevel=2,
            )
    return bits
