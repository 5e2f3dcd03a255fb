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

* ``solve_columns_fast`` - batched iteration on the cell-current vector
  of each column's gate-on cells (the compressed ladder below), in two
  phases.  A column first takes fixed-point steps i <- f(v(i)): each
  re-evaluates the wire and the device at the currents the last
  evaluation gave, about 17 (m, B) passes and no sweep.  Where BinSparX
  caps a column at about n/2 conducting cells that map contracts by a
  factor of about 0.01-0.05 per step, so one to three steps reach the
  tolerance.  A column leaves the phase at its first step that cuts its
  residual by less than ``_FIXED_POINT_RHO`` (the step is kept if it
  lowers the residual at all, and undone if not) and goes on with
  Newton steps.  Each Newton step linearizes every cell at its bias and
  solves that linear ladder exactly with an O(m) backward/forward sweep
  over the rows, a Python loop of about 70 passes, then backtracks
  (halves the step) for any column whose residual would not fall.  For
  ohmic cells the first sweep is the closed form, so a linear device's
  columns skip the fixed-point phase.  A column starts with every cell
  at full bias, unless those currents would already reverse-bias one of
  its cells, as stiff wire does to the far rows; it then starts from one
  sweep of its ohmic ladder, a few Newton steps from the answer where
  full bias can be dozens away, and skips the fixed-point phase too, as
  the map does not contract there.
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
end of each call; no buffer outlives it.  A freed block serves only a
request that fits in it, so calls of varying size fragment the heap: a
call of more than half of :func:`_call_cells` gate-on cells reserves
that many, so the engine's fuller calls all ask for a block of one size.
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
# a fixed-point trial that cuts a column's residual to at most this fraction
# of its last value keeps the column in the phase.  Timed on a 2-vCPU Xeon,
# alternating in one process: 1/4, 1/2 and 3/4 solved perfbench
# validate-solver's tol-1e-9 columns 16-21% slower, as a column that
# contracts by 1/4 a step takes many steps where Newton takes two or three;
# on the engine workloads the four values differed by no more than noise
_FIXED_POINT_RHO = 0.125
# batch width from which row-by-row cumulative sums beat np.cumsum(axis=0)
_ROW_SUM_MIN_WIDTH = 256
# (m, B) slabs in one call's workspace.  The ohmic start is the peak: the
# ladder's three arrays, the device cells' target and slope, the currents
# and voltages, the starved columns' ladder, g and c, and the sweep's five
# coefficient arrays
_SLABS = 17
# width-B scratch rows: the ladder sweep's recurrence, and a fixed-point
# trial's residual and its cut
_ROWS = 15
# a solver call's size in gate-on cells, max(1, m) x columns, m its largest
# gate-on count (_call_cells).  The engine fills its calls up to it, one
# gate row's columns always in one call, and a call of more than half of
# it reserves a workspace of that size (_Workspace).  The workspace is 17
# float64 slabs of the call's cells, 8.9 MB at 2**16.  At BinSparX's
# gate-on cap m = n/2 a call is _CALL_COLUMNS columns wide at n=64 and
# 2**16 / (n/2) from n=86 on: 1,024 columns at n=128 and 512 at 256, as
# wide as under the earlier cap of 2**17 cells counted over all n rows.
# Measured on a 2-vCPU Xeon: 2,048 columns at n=64 raised perfbench
# infer-conv-structured's peak RSS from 53 to 58-65 MB (25 s runs; glibc
# keeps freed heap of up to twice the largest block it has handed back)
# and 1,024 made vmm-random-reram 7% slower.  At n > 64 the trade is
# checked by bench/solve_rate.py alone, as perfbench runs n=64 only: 1,536
# columns at every n solved its n=128 at 61-80k columns/s and n=256 at
# 21-25k, against 50-74k and 16-24k at this cap (50-70k and 15-21k under
# the earlier one), but its peak RSS read 52-53 and 63-64 MB instead of
# 47-49.  So those calls keep the earlier
# width until a benchmark workload at n > 64 can weigh the trade.
_CALL_COLUMNS = 1536
_CALL_CELLS = 2**16


def _call_cells(n: int) -> int:
    """Gate-on cells (max(1, m) x columns) a solver call of n-row columns holds."""
    return min(_CALL_CELLS, _CALL_COLUMNS * n // 2)


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
        if not self.n:
            raise ShapeError(
                f"ColumnProblem: a column needs at least one row, got shape {stored.shape}")
        for name, arr in (("stored_bits", stored), ("gate_bits", gates)):
            if arr.size and arr.max() > 1:
                raise DomainError(f"ColumnProblem: {name} must be 0/1")
        _check_drive(self.v_drive)
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
    # (B,) evaluations of f(v(i)): the start point, each fixed-point step
    # (an undone one too) and each Newton step (its halvings not counted)
    iterations: np.ndarray
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
    :meth:`give` returns it.  A call of more than half of ``reserve``
    floats per slab allocates room for ``reserve``, never more than twice
    its own size; its slabs sit packed at the block's start, so it touches
    no more memory than its own size.
    """

    def __init__(self, m: int, width: int, reserve: int = 0):
        self.m = m
        size = m * width
        self._memory = np.empty(_SLABS * (max(size, reserve) if 2 * size > reserve else size))
        self._block = self._memory[: _SLABS * size].reshape(_SLABS, size)
        self._free = list(range(_SLABS))
        self._rows = np.empty((_ROWS, width))

    def take(self, width: int) -> np.ndarray:
        """A free slab as an (m, width) array."""
        j = self._free.pop()
        return self._block[j, : self.m * width].reshape(self.m, width)

    def give(self, *arrays: np.ndarray):
        """Return slabs that :meth:`take` handed out; other arrays are ignored."""
        for a in arrays:
            if a.base is self._memory:
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
    (1 at least) and reserved to :func:`_call_cells`, the gate-on cells'
    :class:`DeviceCells` (m, B), the :class:`_Ladder` in three of the
    workspace's slabs, and each column's leak total i_off * (gate-off
    cells).  Positions, segments, ``dv`` and the leak total are computed
    once per distinct gate row.
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

    ws = _Workspace(m, B, _call_cells(n))
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


def _residual(f: np.ndarray, i_cell: np.ndarray, i_on: float, tmp: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """max |f(v(i)) - i| / i_on per column, into ``out`` if given; ``tmp``
    is (m, B) scratch."""
    d = np.subtract(f, i_cell, out=tmp)
    np.abs(d, out=d)
    r = d.max(axis=0, out=out)
    r /= i_on
    return r


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


def _fixed_point_columns(device: DeviceModel, starved: np.ndarray) -> np.ndarray:
    """The columns that open with the fixed-point phase: every column but
    the starved ones, whose full-bias start is far from the answer, and
    none of a linear device's, for which the first sweep is the closed
    form."""
    if device.curve == "linear":
        return np.zeros_like(starved)
    return ~starved


def _fixed_point_trial(i_cell, v, f, res, width, stay, spare, cells, device, ladder, v_drive, ws):
    """One step i <- f(v(i)) for the first ``width`` columns, the others
    frozen.

    A trial that lowers a column's residual is kept, and the others are
    undone, restoring the column's (i, v, f) and residual.  Returns the new
    (i, v, f) in the slabs of ``f`` and two fresh ones, giving back those
    of ``i_cell`` and ``v``, and updates ``res`` in place.  ``stay`` (width
    ``width``) receives which columns stay in the phase: those whose kept
    trial cut the residual to at most ``_FIXED_POINT_RHO`` of its last
    value.  ``spare`` is a bool row at least ``width`` wide.
    """
    w = i_cell.shape[1]
    trial = f[:, :width]  # i' = f(v(i)), already evaluated
    v_new, f_new, tmp = ws.take(w), ws.take(w), ws.take(width)
    part = _Ladder(*(a[:, :width] for a in ladder))
    v_trial = _cell_voltages(trial, part, v_drive, v_new[:, :width], tmp)
    f_trial = device.currents(DeviceCells(*(None if a is None else a[:, :width] for a in cells)),
                              v_trial, out=f_new[:, :width])
    r, cut = ws.rows(width)[:2]
    _residual(f_trial, trial, device.i_on, tmp, out=r)
    ws.give(tmp)
    last = res[:width]
    np.less_equal(r, np.multiply(last, _FIXED_POINT_RHO, out=cut), out=stay)
    kept = np.less(r, last, out=spare[:width])
    stay &= kept
    np.copyto(last, r, where=kept)
    # the undone and the frozen columns keep their (i, v, f): f's slab is
    # the new i, so its old values move to the new f first
    undone = np.logical_not(kept, out=kept)
    moves = ((f_new, f), (f, i_cell), (v_new, v))
    if undone.any():
        for dst, src in moves:
            np.copyto(dst[:, :width], src[:, :width], where=undone)
    if width < w:
        for dst, src in moves:
            dst[:, width:] = src[:, width:]
    ws.give(i_cell, v)
    return f, v_new, f_new


def _check_drive(v_drive):
    """Refuse a drive voltage that is not finite and > 0: the one check for
    both solvers, the dense one through :class:`ColumnProblem`."""
    if not (np.isfinite(v_drive) and v_drive > 0):
        raise DomainError(f"v_drive must be finite and > 0, got {v_drive}")


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
    """Batched solve of many columns at once: fixed-point steps, then Newton.

    ``stored`` and ``gates`` broadcast against each other to (B, n), n >= 1.
    The unknown is the current vector i of each column's gate-on cells;
    its gate-off cells are folded into the wire (the module docstring's
    compressed ladder).  The line voltages v(i) follow from i, and a
    column converges when its residual max |f(v(i)) - i| / i_on drops
    below ``tol`` (f: the device model), at which point it returns the
    sum of f(v(i)) plus its gate-off cells' leak.

    Iteration 1 evaluates the start point: every cell at full bias,
    i = f(v_drive), unless that leaves one of the column's cells
    reverse-biased.  Such a starved column starts instead from the exact
    currents of its ohmic ladder, which one sweep gives: gate-on cells at
    their chord conductance f(v_drive)/v_drive.

    Every other column, unless the device is linear, then takes
    fixed-point steps i <- f(v(i)), reusing the f of its last residual.
    A step that cuts the residual to at most ``_FIXED_POINT_RHO`` of its
    last value is kept and the column stays in the phase.  A step that
    lowers it by less is kept, and a step that does not lower it is
    undone; either way the column switches to Newton.  Starved columns
    skip the phase because full bias is far from their answer, and a
    linear device's because its first Newton sweep is the exact answer.
    While any column is in the phase, the columns that left it wait.

    Each Newton step linearizes every cell at its current bias as
    i = g*v + c, with g from ``device.conductances`` (which owns the
    reverse-bias rule: g = 0 where the current is flat), solves that
    linear ladder exactly with an O(m) sweep, and backtracks - halving
    the step while a column's residual does not fall.

    ``iterations`` counts a column's evaluations of f(v(i)): the start
    point, each fixed-point step (an undone one too) and each Newton step
    (its halvings not counted), and ``max_iter`` caps that count.  Every
    decision and count depends on the column alone, so a column's result
    is the same bit for bit alone or in any batch.  Converged columns are
    summed and leave the active set at once.  Non-convergent problems are
    returned flagged (with their last f(v(i))), never silently.
    """
    _check_drive(v_drive)
    _check_settings(tol, max_iter)
    stored = np.atleast_2d(np.asarray(stored) > 0)
    gates = np.atleast_2d(np.asarray(gates) > 0)
    stored, gates = np.broadcast_arrays(stored, gates)
    B, n = stored.shape
    if not n:
        raise ShapeError(
            f"solve_columns_fast: columns need at least one row, got shape {stored.shape}")
    i_out = np.zeros(B)
    iters = np.full(B, max_iter, dtype=np.int64)
    residual = np.zeros(B)
    if not B:
        return FastBatchResult(i_out, iters, residual < tol, residual)
    # per column, evaluations of f(v(i)) so far; and masks over the active
    # columns, each a view of a B-wide row.  Masks as wide as the shrinking
    # active set would come in ever new sizes, which numpy's cache of small
    # buffers keeps, scattered through the heap that the workspace reuses:
    # they raised perfbench vmm-random-reram's peak RSS from 50 to 56 MB
    count = np.ones(B, dtype=np.int64)
    finished, alive, stay, spare = np.empty((4, B), dtype=bool)
    ws, cells, ladder, leak = _compress(stored, gates, device, wire)
    i_on = device.i_on
    active = np.arange(B)

    i_cell = device.currents(cells, v_drive, out=ws.take(B))
    tmp = ws.take(B)
    v = _cell_voltages(i_cell, ladder, v_drive, ws.take(B), tmp)
    ws.give(tmp)
    # starved columns (full bias reverse-biases a cell): the ohmic start
    starved = v.min(axis=0) < 0
    if starved.any():
        _ohmic_start(i_cell, v, np.flatnonzero(starved), ladder, v_drive, ws)
    f = device.currents(cells, v, out=ws.take(B))
    tmp = ws.take(B)
    res = _residual(f, i_cell, i_on, tmp)
    ws.give(tmp)
    # the fixed-point phase's columns are the first ``width`` active ones;
    # ``stay`` marks those of them that stay in it.  At the start every
    # column counts as in the phase, and those that skip it leave at once
    stay[:] = _fixed_point_columns(device, starved)
    width = B if stay.any() else 0
    while True:
        w = active.size
        done = np.less(res, tol, out=finished[:w])
        if count.max() >= max_iter:
            np.logical_or(done, np.greater_equal(count, max_iter, out=spare[:w]), out=done)
        staying = stay[:width]
        if done.any() or not staying.all():
            cols = np.flatnonzero(done)
            out = active[cols]
            i_out[out] = ws.column_sums(f, cols) + leak[out]
            residual[out] = res[cols]
            iters[out] = count[cols]
            # the columns that stay in the phase first, then the others
            live = np.logical_not(done, out=alive[:w])
            np.logical_and(staying, live[:width], out=staying)
            np.logical_and(live[:width], np.logical_not(staying, out=spare[:width]),
                           out=live[:width])
            keep = np.concatenate((np.flatnonzero(staying), np.flatnonzero(live)))
            width = np.count_nonzero(staying)
            active, res, count = active[keep], res[keep], count[keep]
            if not active.size:
                break
            i_cell, v, f = (ws.compact(a, keep) for a in (i_cell, v, f))
            cells = DeviceCells(*(None if a is None else ws.compact(a, keep) for a in cells))
            ladder = _Ladder(*(ws.compact(a, keep) for a in ladder))
        if width:
            i_cell, v, f = _fixed_point_trial(i_cell, v, f, res, width, stay[:width], spare,
                                              cells, device, ladder, v_drive, ws)
            count[:width] += 1
            continue
        g = device.conductances(cells, v, out=ws.take(active.size))
        v -= ladder.dv
        v *= g
        f -= v  # f now holds c of the linearization i = g*(v - dv) + c
        ws.give(v)
        step = _ladder_sweep(g, f, ladder, v_drive, ws)
        ws.give(f)
        step -= i_cell
        i_cell, v, f, res = _newton_trial(i_cell, step, res, cells, device, ladder, v_drive, ws)
        count += 1
    return FastBatchResult(i_out=i_out, iterations=iters, converged=residual < tol,
                           residual=residual)


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
