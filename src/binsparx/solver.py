"""Self-consistent electrical solve of one crossbar column with parasitics.

One layout: the bitline is driven at row 0 through ``r_driver`` plus one
per-cell segment of ``r_bl_per_cell`` per row; every row's cell bridges the
bitline to the sense line; the sense line runs through per-cell
``r_sl_per_cell`` segments to an op-amp virtual ground (0 V, so ``r_sink``
never appears) at the far end, row n-1, the worst case for IR drop.

Segment currents follow from charge conservation: the bitline segment
arriving at row k carries the sum of cell currents at rows >= k, and the
sense-line segment leaving row k toward the pad carries the sum of cell
currents at rows <= k.  Two solvers share this wiring:

* ``solve_columns_fast`` - batched Newton iteration on the cell-current
  vector.  Each step linearizes every cell at its bias and solves that
  linear ladder exactly with an O(n) backward/forward sweep over the
  rows, then backtracks (halves the step) for any column whose residual
  would not fall.  For ohmic cells the first sweep is the closed form.
  A column starts with every cell at full bias, unless those currents
  would already reverse-bias one of its cells, as stiff wire does to the
  far rows; it then starts from one sweep of its ohmic ladder, a few
  Newton steps from the answer where full bias can be dozens away.
* ``solve_column_dense`` - the independent oracle: nodal analysis of one
  column with one unknown per node (zero-resistance segments merged) and
  Newton-Raphson on the node voltages.  It shares no code with the sweep;
  ``validate-solver``, the tests and the benchmark check the fast path
  against it.  The engine always solves with ``solve_columns_fast``.

Each column is solved independently: activations drive access-transistor
gates, which draw no steady-state row current, so rows do not couple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import DeviceModel, WireModel
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


def _cumsum_rows(a: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``np.cumsum(a, axis=0)``, summed from the last row when ``reverse``.

    On wide batches numpy's strided accumulate is several times slower than
    adding whole rows, so those go row by row.  Both add in the same order,
    so the result is the same bit for bit either way.
    """
    if reverse:
        return _cumsum_rows(a[::-1])[::-1]
    if a.shape[1] < _ROW_SUM_MIN_WIDTH:
        return np.cumsum(a, axis=0)
    out = np.empty_like(a)
    out[0] = a[0]
    for k in range(1, a.shape[0]):
        np.add(out[k - 1], a[k], out=out[k])
    return out


def _cell_voltages(i_cell: np.ndarray, wire: WireModel, v_drive: float):
    """Cell voltages (bitline minus sense line) given cell currents, rows on axis 0: (n, B)."""
    # suffix[k] = sum of currents at rows >= k: what the BL still delivers at k
    suffix = _cumsum_rows(i_cell, reverse=True)
    v_bl = _cumsum_rows(suffix)
    # the SL segment leaving row k carries the sum of currents at rows <= k
    v_sl = _cumsum_rows(_cumsum_rows(i_cell), reverse=True)
    v_sl *= wire.r_sl_per_cell
    v_bl *= -wire.r_bl_per_cell
    v_bl += v_drive - wire.r_driver * suffix[0]
    v_bl -= v_sl
    return v_bl


def _residual(f: np.ndarray, i_cell: np.ndarray, i_on: float) -> np.ndarray:
    """max |f(v(i)) - i| / i_on per column."""
    d = f - i_cell
    np.abs(d, out=d)
    return d.max(axis=0) / i_on


def _ladder_sweep(g: np.ndarray, c: np.ndarray, wire: WireModel, v_drive: float):
    """Exact cell currents (n, B) of the linear ladder whose cells draw g*v + c.

    A backward sweep over the rows carries the relation the rows below k
    impose at row k; a forward sweep from the driver then fixes every row.
    Every division is by 1 + (non-negative product), because ``g >= 0``
    and all wire resistances are >= 0, so the sweep is stable at any wire
    and exact when a resistance is 0.  Vectorized over the batch axis.
    """
    n, B = g.shape
    r_bl, r_sl = wire.r_bl_per_cell, wire.r_sl_per_cell
    r_src = wire.r_driver + r_bl
    out = np.empty_like(g)
    # Rows >= k relate (S_k, vs_k) to (vb_k, T_{k-1}):
    #   S_k  = A*vb_k - nB*T_{k-1} + E,   vs_k = P*vb_k + Q*T_{k-1} + F,
    # where S_k is the bitline current into row k and T_{k-1} the sense-line
    # current arriving from rows < k.  A, nB, P, Q >= 0; Bb = 1 - nB and
    # Pb = 1 - P are carried separately so that no coefficient is formed
    # by a subtraction.
    i_v = np.empty_like(g)  # i_k = i_v*vb_k - i_t*T_{k-1} + i_c
    i_t = np.empty_like(g)
    i_c = np.empty_like(g)
    w_v = np.empty_like(g)  # vb_{k+1} = (vb_k + w_t*T_k + w_c) * w_v
    w_t = np.empty_like(g)
    w_c = np.empty_like(g)
    A = nB = P = Q = E = F = np.zeros(B)
    Bb = Pb = np.ones(B)
    for k in range(n - 1, -1, -1):
        gk = g[k]
        ra = r_bl * A
        inv1 = np.divide(1.0, 1.0 + ra, out=w_v[k])
        np.multiply(nB, r_bl, out=w_t[k])
        np.multiply(E, -r_bl, out=w_c[k])
        # rows > k seen from row k's bitline node, row k's cell still open:
        # vs_k = al*vb_k + beta*T_k + gamma
        al = P * inv1
        alb = (Pb + ra) * inv1
        bb = (Bb + ra) * inv1
        ral = r_bl * al
        beta = (Q + r_sl) + ral * nB
        gamma = F - ral * E
        # close row k's cell, i = g*(vb - vs) + c
        inv2 = 1.0 / (1.0 + gk * beta)
        Q = beta * inv2
        Pb = alb * inv2
        Bb = bb * inv2
        ivk = np.multiply(gk, Pb, out=i_v[k])
        itk = np.multiply(gk, Q, out=i_t[k])
        ick = np.multiply(c[k] - gk * gamma, inv2, out=i_c[k])
        A = A * inv1 + bb * ivk
        nB = nB * inv1 + bb * itk
        E = E * inv1 + bb * ick
        P = al + beta * ivk
        F = gamma + beta * ick
    vb = (v_drive - r_src * E) / (1.0 + r_src * A)
    T = np.zeros(B)
    for k in range(n):
        out[k] = ik = i_v[k] * vb - i_t[k] * T + i_c[k]
        T = T + ik
        vb = (vb + w_t[k] * T + w_c[k]) * w_v[k]
    return out


def _newton_trial(i_cell, step, res, stored, gates, device, wire, v_drive):
    """Take ``i + s*step``, halving s (down to _MIN_STEP) while a column's
    residual does not fall below ``res``.  Returns (i, v, f, residual)."""
    i_on = device.i_on
    trial = i_cell + step
    v = _cell_voltages(trial, wire, v_drive)
    f = device.currents(stored, gates, v)
    r = _residual(f, trial, i_on)
    bad = np.flatnonzero(~(r < res))
    scale = 1.0
    while bad.size and scale > _MIN_STEP:
        scale *= 0.5
        sub = i_cell[:, bad] + scale * step[:, bad]
        v_sub = _cell_voltages(sub, wire, v_drive)
        f_sub = device.currents(stored[:, bad], gates[:, bad], v_sub)
        r_sub = _residual(f_sub, sub, i_on)
        trial[:, bad] = sub
        v[:, bad] = v_sub
        f[:, bad] = f_sub
        r[bad] = r_sub
        bad = bad[~(r_sub < res[bad])]
    return trial, v, f, r


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
    unknown is the cell-current vector i; the line voltages v(i) follow
    from it, and a column converges when its residual
    max |f(v(i)) - i| / i_on drops below ``tol`` (f: the device model), at
    which point it returns f(v(i)).  Iteration 1 evaluates the start
    point: every cell at full bias, i = f(v_drive), unless that leaves one
    of the column's cells reverse-biased.  Such a starved column starts
    instead from the exact currents of its ohmic ladder, which one sweep
    gives: gate-on cells at their chord conductance f(v_drive)/v_drive,
    gate-off cells at their constant leakage.  Each further iteration
    linearizes every cell at its current bias as i = g*v + c, with g from
    ``device.conductances`` (which owns the reverse-bias rule: g = 0 where
    the current is flat), solves that linear ladder exactly with an O(n)
    sweep, and backtracks - halving the step while a column's residual
    does not fall.  Converged columns leave the active set at once.
    Non-convergent problems are returned flagged (with their last
    f(v(i))), never silently.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    stored = np.atleast_2d(np.asarray(stored) > 0)
    gates = np.atleast_2d(np.asarray(gates) > 0)
    stored, gates = np.broadcast_arrays(stored, gates)
    B, n = stored.shape
    # 0/1 bytes (the device model only tests > 0), rows on axis 0 so that
    # the ladder sweep reads contiguous rows
    stored = np.ascontiguousarray(stored.T, dtype=np.uint8)
    gates = np.ascontiguousarray(gates.T, dtype=np.uint8)

    i_on = device.i_on
    result = np.empty((n, B))
    iters = np.full(B, max_iter, dtype=np.int64)
    residual = np.empty(B)
    converged = np.zeros(B, dtype=bool)
    active = np.arange(B)

    i_cell = device.currents(stored, gates, v_drive)
    v = _cell_voltages(i_cell, wire, v_drive)
    # starved columns (full bias reverse-biases a cell): the ohmic start
    starved = np.flatnonzero(v.min(axis=0) < 0)
    if starved.size:
        i_start = i_cell[:, starved]
        on = gates[:, starved] > 0
        i_start = _ladder_sweep(np.where(on, i_start / v_drive, 0.0),
                                np.where(on, 0.0, i_start), wire, v_drive)
        i_cell[:, starved] = i_start
        v[:, starved] = _cell_voltages(i_start, wire, v_drive)
    f = device.currents(stored, gates, v)
    res = _residual(f, i_cell, i_on)
    for it in range(1, max_iter + 1):
        done = res < tol
        if done.any():
            cols = active[done]
            result[:, cols] = f[:, done]
            residual[cols] = res[done]
            iters[cols] = it
            converged[cols] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            # np.compress keeps rows contiguous; a[:, keep] is column-major
            i_cell, v, f, stored, gates = (np.compress(keep, a, axis=1)
                                           for a in (i_cell, v, f, stored, gates))
            res = res[keep]
        if it == max_iter:
            break
        # each (n, B) array is dropped once spent: wide batches are memory-bound
        g = device.conductances(stored, gates, v)
        f -= g * v  # f now holds c of the linearization i = g*v + c
        del v
        step = _ladder_sweep(g, f, wire, v_drive)
        del g, f
        step -= i_cell
        i_cell, v, f, res = _newton_trial(i_cell, step, res, stored, gates, device, wire, v_drive)
        del step
    if active.size:
        result[:, active] = f
        residual[active] = res

    # sum each column's cells contiguously, in the order np.sum takes on a
    # (B, n) row; summing down axis 0 adds in another order
    return FastBatchResult(
        i_out=np.ascontiguousarray(result.T).sum(axis=1),
        iterations=iters,
        converged=converged,
        residual=residual,
    )


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
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
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

    def assemble(u: np.ndarray):
        # a pinned node's unknown is -1, which reads the appended 0
        pot = np.append(u, 0.0)[idx] + fixed
        vd = pot[bl] - pot[sl]
        icell = p.device.currents(p.stored_bits, p.gate_bits, vd)
        gcell = p.device.conductances(p.stored_bits, p.gate_bits, vd)
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
