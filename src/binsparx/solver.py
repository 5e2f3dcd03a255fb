"""Self-consistent electrical solve of one crossbar column with parasitics.

One layout: the bitline is driven at row 0 through ``r_driver`` plus one
per-cell segment of ``r_bl_per_cell`` per row; every row's cell bridges the
bitline to the sense line; the sense line runs through per-cell
``r_sl_per_cell`` segments to an op-amp virtual ground (0 V, so ``r_sink``
never appears) at the far end, row n-1, the worst case for IR drop.

Segment currents follow from charge conservation: the bitline segment
arriving at row k carries the sum of cell currents at rows >= k, and the
sense-line segment leaving row k toward the pad carries the sum of cell
currents at rows <= k.  So a current i_j drawn at row j takes

    M_kj = r_driver + r_bl * (min(k, j) + 1) + r_sl * (n - max(k, j))

off the cell voltage at row k.  Two solvers share this wiring:

* ``solve_columns_fast`` - batched Newton iteration on the cell-current
  vector of each column's gate-on cells (the compressed ladder below).
  Each step linearizes every cell at its bias and solves that linear
  ladder exactly with an O(m) backward/forward sweep over the rows, then
  backtracks (halves the step) for any column whose residual would not
  fall.  For ohmic cells the first sweep is the closed form.  A column
  starts with every cell at full bias, unless those currents would
  already reverse-bias one of its cells, as stiff wire does to the far
  rows; it then starts from one sweep of its ohmic ladder, a few Newton
  steps from the answer where full bias can be dozens away.
* ``solve_column_dense`` - the independent oracle: nodal analysis of one
  column with one unknown per node (zero-resistance segments merged) and
  Newton-Raphson on the node voltages, over every row.  It shares no code
  with the sweep; ``validate-solver``, the tests and the benchmark check
  the fast path against it.  The engine always solves with
  ``solve_columns_fast``.

Each column is solved independently: activations drive access-transistor
gates, which draw no steady-state row current, so rows do not couple.

The compressed ladder.  A gate-off cell draws the constant ``i_off``
whatever its bias, so only a column's m_b gate-on cells, at rows
p_0 < ... < p_{m_b-1}, are unknowns.  Between two of them the wire is a
chain of segments with nothing but constant sinks tapped off it, so by
superposition the column is exactly a ladder of m_b rows:

* the bitline segment arriving at compressed row t is
  ``r_bl * (p_t - p_{t-1})``, and ``r_driver + r_bl * (p_0 + 1)`` at
  t = 0; the sense-line segment leaving row t is
  ``r_sl * (p_{t+1} - p_t)``, and ``r_sl * (n - p_last)`` at the last.
  These segments give exactly M restricted to the gate-on rows;
* the gate-off cells shift each gate-on cell's voltage by the fixed
  ``dv_t = -i_off * sum over gate-off j of M_{p_t j}``, and add
  ``i_off * (n - m_b)`` to ``i_out``.  ``dv`` has a closed form in
  integer counts of the gate-off rows above and below each p_t.

Newton linearizes each cell at its present voltage v as
i = f + g*(v' - v) in its next voltage v'.  The compressed ladder alone
sets u = v' - dv, so its sweep solves the cells i = g*u + (f - g*(v - dv));
the ohmic start, i = g*v', solves i = g*u + g*dv.  A call solves its
columns over the largest m_b among them, each column padded at the bottom
with rows of zero resistance, target 0 and leak 0.  In the sweep every
operation on such a row reduces to ``x * 1`` or ``x + 0``, so padding is
exact: a column's answer is the same bit for bit alone or in any batch.
Everything that depends on the gate row alone (positions, segments,
``dv``, the leak total) is computed once per distinct gate row and then
expanded; only the stored bits are gathered per column.

``solve_columns_fast`` builds the device's per-cell data once per call
(:meth:`DeviceModel.cells`) and works in one workspace per call: a single
block of (m, B) float slabs plus a few width-B rows.  Every pass - the
sweep, the cell voltages, the device evaluations, the residual and the
active-set compaction - writes into slabs with ``out=``, and an array of
the shrinking active width is a view of a slab's first m*w floats.  The
block is there for the page faults, not the arithmetic.  Allocating about
30 (n, B) temporaries per Newton iteration cost about 12.8k minor page
faults per 4,096-column call at n=64, because glibc handed the freed heap
back to the kernel between calls and the next call faulted it in again.
glibc keeps a freed block as large as the largest it has freed (its mmap
and trim thresholds follow that size), so the next call's block reuses
it: about 0 faults per call after the first.  The block is freed at the
end of each call; no buffer outlives it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import DeviceCells, DeviceModel, WireModel
from .errors import DomainError, ShapeError, SolverError

__all__ = [
    "ColumnProblem",
    "ColumnSolveResult",
    "FastBatchResult",
    "solve_columns_fast",
    "solve_column_dense",
]

# backtracking floor: below this step fraction a Newton step is taken anyway
_MIN_STEP = 2.0**-10
# batch width from which row-by-row cumulative sums beat np.cumsum(axis=0)
_ROW_SUM_MIN_WIDTH = 256
# (m, B) slabs in one call's workspace.  The ohmic start is the peak: the
# ladder's three arrays, the device cells' target and slope, the currents
# and voltages, the starved columns' ladder, g and c, and the sweep's five
# coefficient arrays
_SLABS = 17
# width-B scratch rows: the ladder sweep's recurrence
_ROWS = 15


@dataclass(frozen=True, eq=False)
class ColumnProblem:
    """One column: stored bits, gate bits, device/wire models, drive voltage."""

    n: int
    stored_bits: np.ndarray
    gate_bits: np.ndarray
    device: DeviceModel
    wire: WireModel
    v_drive: float

    def __post_init__(self):
        stored = np.asarray(self.stored_bits, dtype=np.uint8)
        gates = np.asarray(self.gate_bits, dtype=np.uint8)
        if stored.shape != (self.n,) or gates.shape != (self.n,):
            raise ShapeError(
                f"ColumnProblem: expected length-{self.n} bit vectors, got "
                f"{stored.shape} and {gates.shape}"
            )
        for name, arr in (("stored_bits", stored), ("gate_bits", gates)):
            if arr.size and arr.max() > 1:
                raise DomainError(f"ColumnProblem: {name} must be 0/1")
        if self.v_drive <= 0:
            raise DomainError("ColumnProblem: v_drive must be > 0")
        object.__setattr__(self, "stored_bits", stored)
        object.__setattr__(self, "gate_bits", gates)


@dataclass(frozen=True, eq=False)
class ColumnSolveResult:
    """Converged (or flagged) state of one :func:`solve_column_dense` solve.

    ``residual`` is the exit value of its convergence metric, the largest
    KCL violation normalized by i_on.
    """

    i_out: float
    v_bl: np.ndarray
    v_sl: np.ndarray
    i_cell: np.ndarray
    iterations: int
    converged: bool
    residual: float


@dataclass(frozen=True, eq=False)
class FastBatchResult:
    """Outcome of :func:`solve_columns_fast`, one entry per problem.

    ``residual`` is the exit value of its convergence metric,
    max |f(v(i)) - i| / i_on over the cells (f: the device model, v(i):
    the cell voltages that currents i produce).
    """

    i_out: np.ndarray        # (B,)
    iterations: np.ndarray   # (B,)
    converged: np.ndarray    # (B,) bool
    residual: np.ndarray     # (B,)


class _Ladder(NamedTuple):
    """The compressed ladders of a batch, rows on axis 0: (m, B) arrays."""

    r_bl: np.ndarray  # bitline segment arriving at the row; row 0's holds r_driver
    r_sl: np.ndarray  # sense-line segment leaving the row toward the pad
    dv: np.ndarray    # the gate-off cells' fixed shift of the row's cell voltage


class _Workspace:
    """The float working set of one :func:`solve_columns_fast` call.

    One block of ``_SLABS`` slabs, each the size of one (m, B) array, plus
    a few width-B rows.  An array of the current active width w is a view
    of a slab's first m*w floats, so narrowing the active set narrows the
    views and never reallocates.  :meth:`take` hands out a free slab and
    :meth:`give` returns it.
    """

    def __init__(self, m: int, width: int):
        self.m = m
        self._block = np.empty((_SLABS, m * width))
        self._free = list(range(_SLABS))
        self._rows = np.empty((_ROWS, width))

    def take(self, width: int) -> np.ndarray:
        """A free slab as an (m, width) array."""
        j = self._free.pop()
        return self._block[j, : self.m * width].reshape(self.m, width)

    def give(self, *arrays: np.ndarray):
        """Return slabs that :meth:`take` handed out; other arrays are ignored."""
        for a in arrays:
            if a.base is self._block:
                self._free.append((a.ctypes.data - self._block.ctypes.data)
                                  // self._block.strides[0])

    def rows(self, width: int) -> list[np.ndarray]:
        """The ``_ROWS`` scratch rows, ``width`` wide."""
        return list(self._rows[:, :width])

    def compact(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Columns ``cols`` of ``a`` in a fresh slab, ``a``'s slab returned.
        Bool arrays (the device's table masks) are copied instead."""
        if a.dtype == bool:
            return np.take(a, cols, axis=1)
        out = self.take(cols.size)
        # mode="clip" writes straight into out; the default "raise" buffers a copy
        np.take(a, cols, axis=1, out=out, mode="clip")
        self.give(a)
        return out

    def column_sums(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sum of each of ``a``'s columns ``cols``, adding the rows in order
        from row 0, into a scratch row that the next sweep overwrites.
        One fixed order for every width: np.sum adds a lone column
        pairwise but a wide slice row by row, and the padding rows' zeros
        must not move a column's sum."""
        picked = self.take(cols.size)
        np.take(a, cols, axis=1, out=picked, mode="clip")
        total, spare = self.rows(cols.size)[:2]
        np.copyto(total, picked[0])
        for row in picked[1:]:
            total, spare = np.add(total, row, spare), total
        self.give(picked)
        return total


def _compress(stored: np.ndarray, gates: np.ndarray, device: DeviceModel, wire: WireModel):
    """The compressed ladders of (B, n) stored and gate bit columns.

    Returns the call's workspace, sized to the largest gate-on count m
    (1 at least), the gate-on cells' :class:`DeviceCells` (m, B), the
    :class:`_Ladder` in three of the workspace's slabs, and each column's
    leak total i_off * (gate-off cells).  Positions, segments, ``dv`` and
    the leak total are computed once per distinct gate row.
    """
    B, n = gates.shape
    # in float: a WireModel may hold ints, and r_bl gets r_driver added in place
    r_drv, r_bl_cell, r_sl_cell = (float(r) for r in
                                   (wire.r_driver, wire.r_bl_per_cell, wire.r_sl_per_cell))
    key = np.packbits(gates, axis=1)
    _, first, inverse = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    rows = gates[first]
    count = np.count_nonzero(rows, axis=1)
    m = max(1, int(count.max()))
    # gate-on rows p of gate row u, ascending, and their compressed rows t
    u, p = np.nonzero(rows)
    start = np.cumsum(count) - count
    t = np.arange(p.size) - start[u]
    top, bottom = t == 0, t == count[u] - 1
    gap_up = np.diff(p, prepend=-1)
    gap_up[top] = p[top] + 1
    gap_down = np.empty_like(p)
    gap_down[:-1] = np.diff(p)
    gap_down[bottom] = n - p[bottom]
    r_bl = r_bl_cell * gap_up
    r_bl[top] += r_drv
    # dv from integer counts: the gate-off rows above p (j < p, toward the
    # driver) number p - t, and their indices sum to p(p-1)/2 less the
    # gate-on rows' above p
    on_sum = np.concatenate(([0], np.cumsum(p)))
    n_off = n - count[u]
    off_above = p - t
    sum_above = p * (p - 1) // 2 - (on_sum[:-1] - on_sum[start][u])
    off_below = n_off - off_above
    sum_below = (n * (n - 1) // 2 - (on_sum[start + count] - on_sum[start])[u]) - sum_above
    # sum over gate-off j of min(p, j) + 1 and of n - max(p, j)
    bl_share = sum_above + off_above + (p + 1) * off_below
    sl_share = (n - p) * off_above + n * off_below - sum_below
    dv = -device.i_off * (r_drv * n_off + r_bl_cell * bl_share + r_sl_cell * sl_share)
    # per distinct gate row, padded at the bottom: zero segments, dv 0, gate off
    per_row = np.zeros((3, m, first.size))
    for row, values in zip(per_row, (r_bl, r_sl_cell * gap_down, dv)):
        row[t, u] = values
    pos = np.zeros((m, first.size), dtype=np.intp)
    pos[t, u] = p

    ws = _Workspace(m, B)
    ladder = _Ladder(*(np.take(a, inverse, axis=1, out=ws.take(B), mode="clip")
                       for a in per_row))
    # the stored bits at each column's gate-on rows, by flat index into
    # stored (a padding row reads row 0; it is gate-off, so it draws nothing)
    slab = ws.take(B)
    at = np.take(pos, inverse, axis=1, out=slab.view(np.intp), mode="clip")
    at += np.arange(0, B * n, n)
    picked = np.take(np.ascontiguousarray(stored).ravel(), at)
    ws.give(slab)
    on = np.arange(m)[:, None] < count[inverse]
    cells = device.cells(picked, on, leak=False, out=(ws.take(B), ws.take(B)))
    leak = (device.i_off * (n - count))[inverse]
    return ws, cells, ladder, leak


def _cumsum_rows(a: np.ndarray, out: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``np.cumsum(a, axis=0)`` into ``out`` (which may be ``a``), summed
    from the last row when ``reverse``.

    On wide batches numpy's strided accumulate is several times slower than
    adding whole rows, so those go row by row.  Both add in the same order,
    so the result is the same bit for bit either way.
    """
    if reverse:
        _cumsum_rows(a[::-1], out[::-1])
    elif a.shape[1] < _ROW_SUM_MIN_WIDTH:
        np.cumsum(a, axis=0, out=out)
    else:
        out[0] = a[0]
        add = np.add
        for k in range(1, a.shape[0]):
            add(out[k - 1], a[k], out[k])
    return out


def _cell_voltages(i_cell: np.ndarray, ladder: _Ladder, v_drive: float,
                   out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Cell voltages (bitline minus sense line, shifted by ``dv``) given
    cell currents, rows on axis 0, into ``out``: (m, B).  ``tmp`` is
    scratch of the same shape."""
    # the BL segment arriving at row k carries the sum of currents at rows >= k
    drop = _cumsum_rows(i_cell, out, reverse=True)
    drop *= ladder.r_bl
    v_bl = _cumsum_rows(drop, out)
    np.subtract(v_drive, v_bl, out=v_bl)
    # the SL segment leaving row k carries the sum of currents at rows <= k
    v_sl = _cumsum_rows(i_cell, tmp)
    v_sl *= ladder.r_sl
    _cumsum_rows(v_sl, v_sl, reverse=True)
    v_bl -= v_sl
    v_bl += ladder.dv
    return v_bl


def _residual(f: np.ndarray, i_cell: np.ndarray, i_on: float, tmp: np.ndarray) -> np.ndarray:
    """max |f(v(i)) - i| / i_on per column; ``tmp`` is (m, B) scratch."""
    d = np.subtract(f, i_cell, out=tmp)
    np.abs(d, out=d)
    return d.max(axis=0) / i_on


def _ladder_sweep(g: np.ndarray, c: np.ndarray, ladder: _Ladder, v_drive: float,
                  ws: _Workspace) -> np.ndarray:
    """Exact cell currents (m, B) of the linear ladder whose cells draw
    g*u + c, u the voltage the ladder's segments leave them (``dv`` is
    the caller's to fold into c).

    A backward sweep over the rows carries the relation the rows below k
    impose at row k; a forward sweep from the driver then fixes every row.
    Every division is by 1 + (non-negative product), because ``g >= 0``
    and all segment resistances are >= 0, so the sweep is stable at any
    wire and exact when a segment is 0 ohm.  Vectorized over the batch
    axis.  Both inputs are spent: the currents are returned in ``g``, and
    ``c`` is overwritten.  No ufunc call writes an array it reads, because
    numpy runs such a call on a width-1 batch through its slow general
    loop; the outputs go positionally, which costs less per call than
    ``out=``.
    """
    m, B = g.shape
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    r_bl, r_sl = ladder.r_bl, ladder.r_sl
    # Rows >= k relate (S_k, vs_k) to (vb_k, T_{k-1}):
    #   S_k  = A*vb_k - P*T_{k-1} + E,   vs_k = P*vb_k + Q*T_{k-1} + F,
    # where S_k is the bitline current into row k and T_{k-1} the sense-line
    # current arriving from rows < k.  The sub-ladder is a reciprocal
    # two-port, so one coefficient P serves both relations.  A, P, Q >= 0;
    # Pb = 1 - P is carried separately so that no coefficient is formed by
    # a subtraction.
    i_v, i_t, i_c = ws.take(B), ws.take(B), c  # i_k = i_v*vb_k - i_t*T_{k-1} + i_c
    w_v, w_t, w_c = ws.take(B), ws.take(B), ws.take(B)  # vb_{k+1} = (vb_k + w_t*T_k - w_c) * w_v
    A, E, P, Q, F, Pb, ra, al, alb, beta, gamma, inv2, t1, t2, below = ws.rows(B)
    for row in (A, E, P, Q, F, below):
        row[...] = 0.0
    Pb[...] = 1.0
    for k in range(m - 1, -1, -1):
        gk = g[k]
        rb = r_bl[k + 1] if k + 1 < m else below  # the bitline segment to row k+1
        mul(A, rb, ra)
        inv1 = div(1.0, add(ra, 1.0, t1), w_v[k])
        mul(P, rb, w_t[k])
        mul(E, rb, w_c[k])
        # rows > k seen from row k's bitline node, row k's cell still open:
        # vs_k = al*vb_k + beta*T_k + gamma
        mul(P, inv1, al)
        mul(add(Pb, ra, t1), inv1, alb)
        ral = mul(al, rb, ra)
        add(add(Q, r_sl[k], t1), mul(ral, P, t2), beta)
        sub(F, mul(ral, E, t1), gamma)
        # close row k's cell, i = g*(vb - vs) + c
        div(1.0, add(mul(gk, beta, t1), 1.0, t2), inv2)
        mul(beta, inv2, Q)
        mul(alb, inv2, Pb)
        mul(gk, Q, i_t[k])
        ick = mul(sub(c[k], mul(gk, gamma, t1), t2), inv2, i_c[k])
        ivk = mul(gk, Pb, i_v[k])
        add(mul(A, inv1, t1), mul(alb, ivk, t2), A)
        add(mul(E, inv1, t1), mul(alb, ick, t2), E)
        add(al, mul(beta, ivk, t1), P)
        add(gamma, mul(beta, ick, t1), F)
    vb, T, T_next, t3 = ra, beta, gamma, inv2  # rows the backward sweep is done with
    r_src = r_bl[0]
    div(sub(v_drive, mul(E, r_src, t1), t2), add(mul(A, r_src, t1), 1.0, t3), vb)
    T[...] = 0.0
    for k in range(m):
        ik = add(sub(mul(i_v[k], vb, t1), mul(i_t[k], T, t2), t3), i_c[k], g[k])
        T, T_next = add(T, ik, T_next), T
        mul(sub(add(vb, mul(w_t[k], T, t1), t2), w_c[k], t1), w_v[k], vb)
    ws.give(i_v, i_t, w_v, w_t, w_c)
    return g


def _newton_trial(i_cell, step, res, cells, device, ladder, v_drive, ws):
    """Take ``i + s*step``, halving s (down to _MIN_STEP) while a column's
    residual does not fall below ``res``.  Returns (i, v, f, residual) in
    fresh slabs and gives back the slabs of ``i_cell`` and ``step``.  The
    halvings work on the failing columns alone, in arrays of their own."""
    i_on = device.i_on
    B = i_cell.shape[1]
    trial = np.add(i_cell, step, out=ws.take(B))
    tmp = ws.take(B)
    v = _cell_voltages(trial, ladder, v_drive, ws.take(B), tmp)
    f = device.currents(cells, v, out=ws.take(B))
    r = _residual(f, trial, i_on, tmp)
    ws.give(tmp)
    bad = np.flatnonzero(~(r < res))
    scale = 1.0
    while bad.size and scale > _MIN_STEP:
        scale *= 0.5
        sub = i_cell[:, bad] + scale * step[:, bad]
        tmp = np.empty_like(sub)
        v_sub = _cell_voltages(sub, _Ladder(*(a[:, bad] for a in ladder)), v_drive,
                               np.empty_like(sub), tmp)
        f_sub = device.currents(DeviceCells(*(None if a is None else a[:, bad] for a in cells)),
                                v_sub)
        r_sub = _residual(f_sub, sub, i_on, tmp)
        trial[:, bad] = sub
        v[:, bad] = v_sub
        f[:, bad] = f_sub
        r[bad] = r_sub
        bad = bad[~(r_sub < res[bad])]
    ws.give(i_cell, step)
    return trial, v, f, r


def _ohmic_start(i_cell, v, starved, ladder, v_drive, ws):
    """Restart the ``starved`` columns of (i_cell, v) from the exact
    currents of their ohmic ladder: gate-on cells at their chord
    conductance f(v_drive) / v_drive, which ``i_cell`` holds."""
    s = starved.size
    part = _Ladder(*(np.take(a, starved, axis=1, out=ws.take(s), mode="clip") for a in ladder))
    g = np.take(i_cell, starved, axis=1, out=ws.take(s), mode="clip")
    g /= v_drive
    c = np.multiply(g, part.dv, out=ws.take(s))
    i_start = _ladder_sweep(g, c, part, v_drive, ws)
    i_cell[:, starved] = i_start
    tmp = ws.take(s)
    v[:, starved] = _cell_voltages(i_start, part, v_drive, c, tmp)
    ws.give(i_start, c, tmp, *part)


def _check_settings(tol, max_iter):
    """Refuse a tolerance or an iteration cap that no solve can honor."""
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise DomainError(f"max_iter must be an int >= 1, got {max_iter!r}")


def solve_columns_fast(
    stored: np.ndarray,
    gates: np.ndarray,
    device: DeviceModel,
    wire: WireModel,
    v_drive: float,
    *,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> FastBatchResult:
    """Batched Newton solve of many columns at once.

    ``stored`` and ``gates`` broadcast against each other to (B, n).  The
    unknown is the current vector i of each column's gate-on cells; its
    gate-off cells are folded into the wire (the module docstring's
    compressed ladder).  The line voltages v(i) follow from i, and a
    column converges when its residual max |f(v(i)) - i| / i_on drops
    below ``tol`` (f: the device model), at which point it returns the
    sum of f(v(i)) plus its gate-off cells' leak.  Iteration 1 evaluates
    the start point: every cell at full bias, i = f(v_drive), unless that
    leaves one of the column's cells reverse-biased.  Such a starved
    column starts instead from the exact currents of its ohmic ladder,
    which one sweep gives: gate-on cells at their chord conductance
    f(v_drive)/v_drive.  Each further iteration linearizes every cell at
    its current bias as i = g*v + c, with g from ``device.conductances``
    (which owns the reverse-bias rule: g = 0 where the current is flat),
    solves that linear ladder exactly with an O(m) sweep, and backtracks -
    halving the step while a column's residual does not fall.  Converged
    columns are summed and leave the active set at once.  Non-convergent
    problems are returned flagged (with their last f(v(i))), never
    silently.
    """
    _check_settings(tol, max_iter)
    stored = np.atleast_2d(np.asarray(stored) > 0)
    gates = np.atleast_2d(np.asarray(gates) > 0)
    stored, gates = np.broadcast_arrays(stored, gates)
    B, n = stored.shape
    i_out = np.zeros(B)
    iters = np.full(B, max_iter, dtype=np.int64)
    residual = np.zeros(B)
    converged = np.zeros(B, dtype=bool)
    if not B:
        return FastBatchResult(i_out, iters, converged, residual)
    ws, cells, ladder, leak = _compress(stored, gates, device, wire)
    i_on = device.i_on
    active = np.arange(B)

    i_cell = device.currents(cells, v_drive, out=ws.take(B))
    tmp = ws.take(B)
    v = _cell_voltages(i_cell, ladder, v_drive, ws.take(B), tmp)
    ws.give(tmp)
    # starved columns (full bias reverse-biases a cell): the ohmic start
    starved = np.flatnonzero(v.min(axis=0) < 0)
    if starved.size:
        _ohmic_start(i_cell, v, starved, ladder, v_drive, ws)
    f = device.currents(cells, v, out=ws.take(B))
    tmp = ws.take(B)
    res = _residual(f, i_cell, i_on, tmp)
    ws.give(tmp)
    for it in range(1, max_iter + 1):
        done = res < tol
        if done.any():
            cols = active[done]
            i_out[cols] = ws.column_sums(f, np.flatnonzero(done)) + leak[cols]
            residual[cols] = res[done]
            iters[cols] = it
            converged[cols] = True
            keep = np.flatnonzero(~done)
            active = active[keep]
            if not active.size:
                break
            i_cell, v, f = (ws.compact(a, keep) for a in (i_cell, v, f))
            cells = DeviceCells(*(None if a is None else ws.compact(a, keep) for a in cells))
            ladder = _Ladder(*(ws.compact(a, keep) for a in ladder))
            res = res[keep]
        if it == max_iter:
            break
        g = device.conductances(cells, v, out=ws.take(active.size))
        v -= ladder.dv
        v *= g
        f -= v  # f now holds c of the linearization i = g*(v - dv) + c
        ws.give(v)
        step = _ladder_sweep(g, f, ladder, v_drive, ws)
        ws.give(f)
        step -= i_cell
        i_cell, v, f, res = _newton_trial(i_cell, step, res, cells, device, ladder, v_drive, ws)
    if active.size:
        i_out[active] = ws.column_sums(f, np.arange(active.size)) + leak[active]
        residual[active] = res
    return FastBatchResult(i_out=i_out, iterations=iters, converged=converged, residual=residual)


def _branch_stamps(ends_a: np.ndarray, ends_b: np.ndarray, nu: int):
    """Stamps of two-terminal branches, branch k running from unknown
    ``ends_a[k]`` to unknown ``ends_b[k]`` (-1: a pinned end, which stamps
    nothing).  Returns the KCL stamps (unknown, branch, sign) of every free
    end, and the conductance stamps (flat position in the nu x nu
    Jacobian, branch, sign) of every pair of one branch's free ends."""
    m = len(ends_a)
    k = np.tile(np.arange(m), 2)
    e = np.concatenate((ends_a, ends_b))
    f = np.concatenate((ends_b, ends_a))  # the other end of e's branch
    s = np.repeat([1.0, -1.0], m)         # the current leaves at a, enters at b
    free = e >= 0
    other = free & (f >= 0)
    kcl = (e[free], k[free], s[free])
    # a free end stamps +g on itself and -g towards its branch's other free end
    jac = (np.concatenate((e[free] * (nu + 1), e[other] * nu + f[other])),
           np.concatenate((k[free], k[other])),
           np.repeat([1.0, -1.0], (free.sum(), other.sum())))
    return kcl, jac


def _stamp(stamps, values: np.ndarray, size: int) -> np.ndarray:
    """Sum ``sign * values[branch]`` into ``size`` slots at the stamps' positions."""
    at, k, s = stamps
    return np.bincount(at, s * values[k], minlength=size)


def solve_column_dense(
    p: ColumnProblem,
    tol: float = 1e-6,
    max_iter: int = 60,
) -> ColumnSolveResult:
    """Full nodal analysis of one column, Newton-Raphson on node voltages.

    Each line is a path from its pad: the bitline from the driver, the
    sense line from the 0 V pad.  A zero-resistance segment gives its two
    ends one shared unknown (exact collapse, no epsilon conductances): the
    unknown of a node is the count of resistive segments between it and
    its pad, minus one, offset past the bitline's unknowns on the sense
    line; -1 pins the node to its pad's voltage.  Every segment and every
    cell is a two-terminal branch stamped straight into the unknowns, a
    pinned end stamping nothing.  The wire is linear, so its conductance
    block and its pad terms are stamped once per solve; each Newton step
    adds only the cells' currents and small-signal conductances, both
    straight from the device model (0 S under reverse bias is its rule),
    then solves the (unknowns x unknowns) system.  The residual is the
    largest KCL violation across unknowns, normalized by i_on.  A singular
    Jacobian raises :class:`SolverError`; running out of iterations
    returns a flagged result.
    """
    _check_settings(tol, max_iter)
    n, wire = p.n, p.wire
    # nodes: bitline 0..n-1, sense line n..2n-1, driver pad 2n, 0 V pad 2n+1;
    # each path starts at its pad, r[k] is the segment arriving at path[k+1]
    rows = np.arange(n)
    bl_path = np.concatenate(([2 * n], rows))
    sl_path = np.concatenate(([2 * n + 1], n + rows[::-1]))
    r_bl = np.full(n, wire.r_bl_per_cell, dtype=np.float64)
    r_bl[0] = wire.r_driver + wire.r_bl_per_cell
    r_sl = np.full(n, wire.r_sl_per_cell, dtype=np.float64)

    k_bl = np.cumsum(r_bl > 0) - 1
    k_sl = np.cumsum(r_sl > 0) - 1
    nb = int(k_bl[-1]) + 1
    nu = nb + int(k_sl[-1]) + 1
    idx = np.full(2 * n + 2, -1)
    idx[bl_path[1:]] = k_bl
    idx[sl_path[1:]] = np.where(k_sl >= 0, nb + k_sl, -1)
    fixed = np.zeros(2 * n + 2)
    fixed[bl_path[idx[bl_path] < 0]] = p.v_drive

    a = np.concatenate((bl_path[:-1], sl_path[:-1]))
    b = np.concatenate((bl_path[1:], sl_path[1:]))
    r = np.concatenate((r_bl, r_sl))
    # a zero-resistance segment stamps nothing: its ends share one unknown
    g = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
    wire_kcl, wire_jac = _branch_stamps(idx[a], idx[b], nu)
    # the wire is linear, so its part of the KCL and of the Jacobian is
    # J_wire @ u + F_pads at every step: F_pads is the KCL of the wire
    # alone with every unknown at 0 V and the pads at theirs
    J_wire = _stamp(wire_jac, g, nu * nu).reshape(nu, nu)
    F_pads = _stamp(wire_kcl, g * (fixed[a] - fixed[b]), nu)
    bl, sl = rows, n + rows
    cell_kcl, cell_jac = _branch_stamps(idx[bl], idx[sl], nu)
    i_on = p.device.i_on
    cells = p.device.cells(p.stored_bits, p.gate_bits)

    def assemble(u: np.ndarray):
        # a pinned node's unknown is -1, which reads the appended 0
        pot = np.append(u, 0.0)[idx] + fixed
        vd = pot[bl] - pot[sl]
        icell = p.device.currents(cells, vd)
        gcell = p.device.conductances(cells, vd)
        F = J_wire @ u + F_pads + _stamp(cell_kcl, icell, nu)
        J = J_wire + _stamp(cell_jac, gcell, nu * nu).reshape(nu, nu)
        return F, J, pot, icell

    # start from the parasitic-free bias point
    u = np.where(np.arange(nu) < nb, p.v_drive, 0.0)
    F, J, pot, icell = assemble(u)
    residual = float(np.abs(F).max() / i_on) if nu else 0.0
    converged = residual < tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular nodal system at iteration {it}") from exc
        # backtrack if the full step makes things worse (stiff cases)
        scale = 1.0
        while True:
            F2, J2, pot2, icell2 = assemble(u + scale * step)
            r2 = float(np.abs(F2).max() / i_on)
            if r2 < residual or scale < 1e-3:
                break
            scale *= 0.5
        u = u + scale * step
        F, J, pot, icell = F2, J2, pot2, icell2
        residual = r2
        converged = residual < tol

    return ColumnSolveResult(
        i_out=float(icell.sum()),
        v_bl=pot[:n].copy(),
        v_sl=pot[n : 2 * n].copy(),
        i_cell=np.asarray(icell, dtype=np.float64),
        iterations=it,
        converged=converged,
        residual=residual,
    )
