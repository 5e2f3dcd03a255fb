"""Binary tensor domain and crossbar tiling.

Weights and activations live in the signed domain {-1,+1}; the hardware
stores and applies them in the {0,1} domain via v = 2*v' - 1.  The identity

    sum(I * W) = 4*sum(I'*W') - 2*sum(I') - 2*sum(W') + n

turns the signed dot product into an AND-plane count plus integer pre/post
arithmetic, so a plain AND-capable memory array can compute it (the
arithmetic itself is :func:`binsparx.sparsify.postprocess`).  A weight
matrix goes onto n-row arrays as one :class:`TiledWeights` record: the
mapped matrix as (row_tiles, n, cols) plus per-column flip bits and
one-counts.  Columns are not tiled: no column's read depends on its
neighbours, so the m-column split matters only where arrays are counted.
Everything in this module is exact integer math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["BinaryTensor", "TiledWeights", "tile_weights"]


def _int_array(values, name: str) -> np.ndarray:
    a = np.asarray(values)
    if a.dtype.kind == "f":
        r = np.rint(a)
        if not np.array_equal(r, a):
            raise DomainError(f"{name}: non-integer elements present")
        a = r
    if a.dtype.kind not in "iu":
        try:
            a = a.astype(np.int64)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{name}: not an integer array") from exc
    return a


@dataclass(frozen=True, eq=False)
class BinaryTensor:
    """A tensor with every element in {-1,+1} (signed domain), row-major.

    The wrapped array is int8 and must not be mutated after construction.
    """

    values: np.ndarray

    def __post_init__(self):
        a = _int_array(self.values, "BinaryTensor")
        # |x| != 1 rejects what np.isin(a, (-1, 1)) rejects at a sixteenth of
        # its cost; the most negative integer's |x| wraps to itself and stays
        # rejected
        outside = np.abs(a) != 1
        if outside.any():
            bad = a.flat[int(np.argmax(outside))]
            raise DomainError(f"BinaryTensor: element {bad} outside {{-1,+1}}")
        object.__setattr__(self, "values", np.ascontiguousarray(a, dtype=np.int8))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim


@dataclass(frozen=True, eq=False)
class TiledWeights:
    """One signed weight matrix laid out on n-row crossbar tiles.

    ``stored`` (row_tiles, n, cols) int8 holds the {0,1} cells as deployed;
    row tile r covers matrix rows r*n...  Padding rows (past ``rows``)
    store 0 and always see activation 0, so they are exact no-ops in the
    dot-product accounting.  ``column_flip`` (row_tiles, cols) bool marks
    stored columns that are the complement of the mapped matrix over the
    tile's logical rows (all False: sparsification off), and
    ``sum_wprime`` (row_tiles, cols) int64 is each stored column's
    one-count.  The arrays must not be mutated.
    """

    rows: int
    cols: int
    stored: np.ndarray
    column_flip: np.ndarray
    sum_wprime: np.ndarray

    @property
    def n_logical(self) -> np.ndarray:
        """Un-padded rows of each row tile, (row_tiles,) int64."""
        row_tiles, n = self.stored.shape[:2]
        return np.minimum(n, self.rows - n * np.arange(row_tiles, dtype=np.int64))


def tile_weights(w, n: int) -> TiledWeights:
    """Map a signed (rows, cols) weight matrix onto n-row tiles, unflipped.

    The mapped matrix is zero-padded to whole row tiles and reshaped, so
    padding rows store 0 and contribute nothing to any sum.
    """
    if not isinstance(w, BinaryTensor):
        w = BinaryTensor(w)
    if w.ndim != 2:
        raise ShapeError("tile_weights expects a 2-D weight matrix")
    rows, cols = w.shape
    if rows < 1 or cols < 1 or n < 1:
        raise ShapeError(f"tile_weights: cannot tile a {rows}x{cols} matrix on {n}-row arrays")
    row_tiles = -(-rows // n)
    padded = np.zeros((row_tiles * n, cols), dtype=np.int8)
    padded[:rows] = (w.values + 1) // 2  # v' = (v + 1) / 2
    stored = padded.reshape(row_tiles, n, cols)
    return TiledWeights(
        rows=rows,
        cols=cols,
        stored=stored,
        column_flip=np.zeros((row_tiles, cols), dtype=bool),
        sum_wprime=stored.sum(axis=1, dtype=np.int64),
    )
