"""Binary tensor domain, AND-domain dot products, and crossbar tiling.

Weights and activations live in the signed domain {-1,+1}; the hardware
stores and applies them in the {0,1} domain via v = 2*v' - 1.  The identity

    sum(I * W) = 4*sum(I'*W') - 2*sum(I') - 2*sum(W') + n

turns the signed dot product into an AND-plane count plus integer pre/post
arithmetic, so a plain AND-capable memory array can compute it (the
arithmetic itself is :func:`binsparx.sparsify.postprocess`).  A weight
matrix goes onto n x m arrays as one :class:`TiledWeights` record: the
padded mapped matrix reshaped to (row_tiles, n, col_tiles, m) plus
per-column flip bits and one-counts.  Everything in this module is exact
integer math; no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .sparsify import postprocess

__all__ = [
    "BinaryTensor",
    "MappedTensor",
    "TiledWeights",
    "to_mapped",
    "to_signed",
    "nandnet_dot",
    "tile_weights",
]


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
        if a.size and not np.isin(a, (-1, 1)).all():
            bad = a.flat[int(np.argmax(~np.isin(a, (-1, 1)).ravel()))]
            raise DomainError(f"BinaryTensor: element {bad} outside {{-1,+1}}")
        object.__setattr__(self, "values", np.ascontiguousarray(a, dtype=np.int8))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim


@dataclass(frozen=True, eq=False)
class MappedTensor:
    """A tensor with every element in {0,1} (hardware domain), row-major."""

    values: np.ndarray

    def __post_init__(self):
        a = _int_array(self.values, "MappedTensor")
        if a.size and not np.isin(a, (0, 1)).all():
            bad = a.flat[int(np.argmax(~np.isin(a, (0, 1)).ravel()))]
            raise DomainError(f"MappedTensor: element {bad} outside {{0,1}}")
        object.__setattr__(self, "values", np.ascontiguousarray(a, dtype=np.int8))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim


def to_mapped(t: BinaryTensor) -> MappedTensor:
    """Map signed {-1,+1} to hardware {0,1}: v' = (v + 1) / 2."""
    if not isinstance(t, BinaryTensor):
        t = BinaryTensor(t)
    return MappedTensor((t.values.astype(np.int16) + 1) // 2)


def to_signed(m: MappedTensor) -> BinaryTensor:
    """Inverse of :func:`to_mapped`: v = 2*v' - 1."""
    if not isinstance(m, MappedTensor):
        m = MappedTensor(m)
    return BinaryTensor(2 * m.values.astype(np.int16) - 1)


def nandnet_dot(i_mapped, w_mapped, n: int) -> int:
    """Signed dot product of two length-``n`` vectors from their {0,1} forms.

    Computes 4*sum(I'W') - 2*sum(I') - 2*sum(W') + n, which equals the
    signed dot product of the un-mapped vectors (and has parity n mod 2).
    """
    iv = i_mapped.values if isinstance(i_mapped, MappedTensor) else MappedTensor(i_mapped).values
    wv = w_mapped.values if isinstance(w_mapped, MappedTensor) else MappedTensor(w_mapped).values
    if iv.ndim != 1 or wv.ndim != 1:
        raise ShapeError("nandnet_dot expects 1-D vectors")
    if len(iv) != n or len(wv) != n:
        raise ShapeError(f"nandnet_dot: lengths ({len(iv)}, {len(wv)}) != n={n}")
    iv = iv.astype(np.int64)
    wv = wv.astype(np.int64)
    return int(postprocess(iv @ wv, iv.sum(), False, wv.sum(), False, n))


@dataclass(frozen=True, eq=False)
class TiledWeights:
    """One signed weight matrix laid out on n x m crossbar tiles.

    ``stored`` (row_tiles, n, col_tiles, m) int8 holds the {0,1} cells as
    deployed; tile (r, c) covers matrix rows r*n.. and columns c*m...
    Padding cells (past ``rows``/``cols``) store 0 and always see
    activation 0, so they are exact no-ops in the dot-product accounting.
    ``column_flip`` (row_tiles, col_tiles, m) bool marks stored columns
    that are the complement of the mapped matrix over the tile's logical
    rows (all False: sparsification off), and ``sum_wprime`` (row_tiles,
    col_tiles, m) int64 is each stored column's one-count.  The arrays
    must not be mutated.
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

    def untile(self) -> BinaryTensor:
        """Reassemble the original signed matrix (flips undone, padding removed)."""
        row_tiles, n, col_tiles, m = self.stored.shape
        signed = 2 * self.stored.astype(np.int8) - 1
        signed = np.where(self.column_flip[:, None, :, :], -signed, signed)
        signed = signed.reshape(row_tiles * n, col_tiles * m)
        return BinaryTensor(signed[: self.rows, : self.cols])


def tile_weights(w, n: int, m: int) -> TiledWeights:
    """Map a signed (rows, cols) weight matrix onto n x m tiles, unflipped.

    The mapped matrix is zero-padded to whole tiles and reshaped, so padded
    cells store 0 and contribute nothing to any sum.
    """
    if not isinstance(w, BinaryTensor):
        w = BinaryTensor(w)
    if w.ndim != 2:
        raise ShapeError("tile_weights expects a 2-D weight matrix")
    rows, cols = w.shape
    if rows < 1 or cols < 1 or n < 1 or m < 1:
        raise ShapeError(f"tile_weights: cannot tile a {rows}x{cols} matrix on {n}x{m} arrays")
    row_tiles, col_tiles = -(-rows // n), -(-cols // m)
    padded = np.zeros((row_tiles * n, col_tiles * m), dtype=np.int8)
    padded[:rows, :cols] = (w.values + 1) // 2  # to_mapped, minus re-validation
    stored = padded.reshape(row_tiles, n, col_tiles, m)
    return TiledWeights(
        rows=rows,
        cols=cols,
        stored=stored,
        column_flip=np.zeros((row_tiles, col_tiles, m), dtype=bool),
        sum_wprime=stored.sum(axis=1, dtype=np.int64),
    )
