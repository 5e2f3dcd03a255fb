"""End-to-end vector-matrix-multiply engine and desk-scale BNN inference.

:meth:`Engine.prepare` lays a signed weight matrix out on n-row arrays as
one :class:`~binsparx.bnn.TiledWeights` record, column-flipped when BinSparX
is on.  :meth:`Engine.vmm_batch` then gives every row tile the dynamic
activation flip, an exact ON-cell count of every column (ideal path) or
an electrical read, and the sign-corrected dot-product recovery.  The
electrical reads of all row tiles are one :meth:`Engine.solve_rows` pass
over every row tile's distinct gate rows, each against its own row
tile's columns with the all-HRS dummy column beside them when it is on;
each row tile then gets its own dummy-compensation and ADC step, in tile
order.  Partial sums add up across row tiles as exact integers, so only
intra-column analog effects are non-ideal.

Each distinct post-flip gate row of a row tile is solved once.  Conv
patches repeat, and the dynamic flip maps a sub-vector and its complement
to one gate row, so a conv layer often has far fewer distinct gate rows
than inputs.
It is exact: a column's solve depends only on its stored bits and gate
row, never on the other columns of its batch
(``test_column_alone_equals_column_in_batch``), and the solved currents
are expanded back to every input before compensation, quantization and
counting, so clamps and non-convergence still count once per input (see
:class:`RunStats` for the dummy).

Exactness contract, with non-idealities off, for every tile geometry:

* ``adc_bits="full"`` (ceil(log2(n+1)) bits never saturate): the output is
  bit-exact against the plain signed VMM, BinSparX on or off.
* ``adc_bits="auto"``: bit-exact except where a row tile's AND count
  reaches the one value the ADC cannot represent - n/2 with BinSparX
  (log2(n) - 1 bits; a balanced column meeting the complementary balanced
  activation) and n without it (log2(n) bits).  Each such count clamps to
  one level less, is counted in ``RunStats.clamp_events`` and moves that
  output by exactly 4 (+4 with BinSparX, -4 without).

With non-idealities on, the count is the ADC reading of the solved column
current, which IR drop, leakage and nonlinearity can move off the ideal.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bnn import BinaryTensor, TiledWeights, tile_weights
from .devices import DeviceModel, WireModel
from .errors import (
    BinsparxError,
    ConfigError,
    DomainError,
    FoldError,
    NonConvergenceError,
    ShapeError,
)
from .readout import DUMMY_DOMAINS, AdcModel, dummy_compensate
from .solver import _call_cells, solve_columns_fast
from .sparsify import adc_bits_required, postprocess, sparsify_activations, sparsify_tile

__all__ = [
    "EngineConfig",
    "Engine",
    "LayerSpec",
    "FoldedThreshold",
    "RunStats",
    "InferenceResult",
    "fold_batchnorm",
    "im2col",
]

def _count_sorted_chunks(count: np.ndarray, width: int, n: int):
    """Split gate rows into solver calls: index arrays into ``count``.

    ``count`` holds each gate row's gate-on count and ``width`` the columns
    each row brings, of ``n`` rows each.  The rows go in ascending count (a
    stable sort); each call takes the most rows for which max(1, largest
    count) x rows x ``width`` stays within
    :func:`binsparx.solver._call_cells`, one row at least.
    """
    order = np.argsort(count, kind="stable")
    m = np.maximum(count[order], 1)
    # a call from row b0 that ends by the last row of count level v (so no
    # count in it exceeds v) and holds at most fits[v] rows meets the cap;
    # the greedy call is the longest of these.  The levels come from a diff
    # of the sorted counts: np.unique's first call on an int array in a
    # process maps about 1.6 MB more (numpy 2.4), which showed in peak RSS
    ends = np.flatnonzero(np.append(m[1:] != m[:-1], m.size > 0)) + 1
    levels = m[ends - 1]
    fits = _call_cells(n) // (levels * max(1, width))
    b0 = 0
    while b0 < order.size:
        b1 = max(b0 + 1, int(np.minimum(ends, b0 + fits).max()))
        yield order[b0:b1]
        b0 = b1


def _token_or_number(value, tokens, kind) -> bool:
    """``value`` is one of the string ``tokens`` or a ``kind`` number that is not a bool."""
    if isinstance(value, str):
        return value in tokens
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of one run.  The engine makes no random choice."""

    n: int = 64
    m: int = 64
    binsparx: bool = True
    nonidealities: bool = True
    device: DeviceModel = field(default_factory=DeviceModel.sram8t)
    wire: WireModel = field(default_factory=lambda: WireModel.preset("M4"))
    adc_bits: int | str = "auto"      # "auto" (log2 n, minus 1 when sparsifying) | "full" | int
    adc_quantum: float | str = "auto"  # "auto" -> i_on (i_on - i_hrs with the dummy on)
    adc_offset: float = 0.0
    adc_rounding: str = "half_even"
    dummy_enabled: bool | str = "auto"  # "auto" -> on for ReRAM
    dummy_domain: str = "analog"        # one of readout.DUMMY_DOMAINS
    solver_tol: float = 1e-6
    solver_max_iter: int = 200
    best_effort: bool = False

    def __post_init__(self):
        # numpy flags and ints become Python ones: adc_bits_required calls
        # n.bit_length()
        for name in ("binsparx", "nonidealities", "best_effort"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ConfigError(f"EngineConfig: {name} must be True or False, got {value!r}")
            object.__setattr__(self, name, bool(value))
        for name in ("n", "m", "solver_max_iter"):
            value = getattr(self, name)
            if not (_token_or_number(value, (), numbers.Integral) and value >= 1):
                raise ConfigError(f"EngineConfig: {name} must be an int >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("solver_tol", "adc_offset"):
            if not _token_or_number(getattr(self, name), (), numbers.Real):
                raise ConfigError(f"EngineConfig: {name} must be a number, "
                                  f"got {getattr(self, name)!r}")
        if not (np.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ConfigError(
                f"EngineConfig: solver_tol must be finite and > 0, got {self.solver_tol}")
        # checked, not resolved: cmd_profile swaps adc_bits after building
        if not _token_or_number(self.adc_bits, ("auto", "full"), numbers.Integral):
            raise ConfigError(f"EngineConfig: adc_bits must be 'auto', 'full' or an int, "
                              f"got {self.adc_bits!r}")
        if not _token_or_number(self.adc_quantum, ("auto",), numbers.Real):
            raise ConfigError(f"EngineConfig: adc_quantum must be 'auto' or a number, "
                              f"got {self.adc_quantum!r}")
        if self.dummy_enabled not in (True, False, "auto"):
            raise ConfigError(f"EngineConfig: dummy_enabled must be True, False or 'auto', "
                              f"got {self.dummy_enabled!r}")
        if self.dummy_domain not in DUMMY_DOMAINS:
            raise ConfigError(f"EngineConfig: dummy_domain must be one of {DUMMY_DOMAINS}, "
                              f"got {self.dummy_domain!r}")

    def resolved_adc(self) -> AdcModel:
        if self.adc_bits == "auto":
            bits = adc_bits_required(self.n, self.binsparx)
        elif self.adc_bits == "full":
            bits = int(self.n).bit_length()  # ceil(log2(n+1)): never saturates
        else:
            bits = int(self.adc_bits)
        if self.adc_quantum == "auto":
            # dummy compensation subtracts i_hrs for every asserted row, so
            # one compensated ON cell is worth i_on - i_hrs, not i_on
            if self.resolved_dummy():
                quantum = self.device.i_on - self.device.i_hrs
            else:
                quantum = self.device.i_on
        else:
            quantum = float(self.adc_quantum)
        return AdcModel(bits=bits, quantum=quantum, offset=self.adc_offset,
                        rounding=self.adc_rounding)

    def resolved_dummy(self) -> bool:
        """Whether the all-HRS dummy column is on."""
        if self.dummy_enabled == "auto":
            return self.device.kind == "reram1t1r"
        return bool(self.dummy_enabled)


class RunStats:
    """The one per-run ledger: ideal-sum histograms, deviations, events.

    :meth:`Engine.vmm_batch` always writes one, a scratch ledger when its
    caller passes none; ``binsparx profile`` and ``infer`` read theirs.
    ``clamp_events`` and ``nonconverged`` count once per input and column.
    In hardware every m-column array reads its own dummy column, so a
    dummy solve that does not converge, or a digital-domain dummy level
    that clamps, counts once per array: ceil(cols / m) times per input and
    row tile, though the engine solves one dummy per distinct gate row of
    a row tile, beside that row's columns.
    """

    def __init__(self, hist_bins: int):
        self.hist_bins = hist_bins
        self.layer_hist: dict[str, np.ndarray] = {}
        self.layer_absdev_sum: dict[str, float] = {}
        self.layer_dev_count: dict[str, int] = {}
        self.clamp_events = 0
        self.nonconverged = 0

    def add_ideal(self, layer: str, counts: np.ndarray):
        h = self.layer_hist.get(layer)
        if h is None:
            h = np.zeros(self.hist_bins + 1, dtype=np.int64)
            self.layer_hist[layer] = h
        h += np.bincount(counts.ravel(), minlength=self.hist_bins + 1)

    def add_deviation(self, layer: str, absdev: np.ndarray):
        self.layer_absdev_sum[layer] = self.layer_absdev_sum.get(layer, 0.0) + float(
            absdev.sum()
        )
        self.layer_dev_count[layer] = self.layer_dev_count.get(layer, 0) + absdev.size

    def histogram(self, layer: str | None = None) -> np.ndarray:
        """Counts of ideal AND sums 0..hist_bins: one layer's, or all layers summed."""
        total = np.zeros(self.hist_bins + 1, dtype=np.int64)
        for name in self.layer_hist if layer is None else [layer]:
            total += self.layer_hist.get(name, 0)
        return total

    def mean_ideal_sum(self, layer: str | None = None) -> float:
        hist = self.histogram(layer)
        total = hist.sum()
        return float((hist * np.arange(len(hist))).sum() / total) if total else 0.0

    def mean_abs_deviation(self, layer: str | None = None) -> float:
        if layer is not None:
            c = self.layer_dev_count.get(layer, 0)
            return self.layer_absdev_sum.get(layer, 0.0) / c if c else 0.0
        total = sum(self.layer_absdev_sum.values())
        count = sum(self.layer_dev_count.values())
        return total / count if count else 0.0

    def to_dict(self) -> dict:
        return {
            "clamp_events": self.clamp_events,
            "nonconverged_columns": self.nonconverged,
            "layers": {
                name: {
                    "histogram": hist.tolist(),
                    "samples": int(hist.sum()),
                    "mean_ideal_sum": self.mean_ideal_sum(name),
                    "mean_abs_deviation": self.mean_abs_deviation(name),
                }
                for name, hist in sorted(self.layer_hist.items())
            },
        }


class Engine:
    """Immutable orchestrator; every public call is side-effect free."""

    def __init__(self, config: EngineConfig):
        self.config = config
        self.adc = config.resolved_adc()
        self.dummy = config.resolved_dummy()  # the all-HRS dummy column is on

    # -- weight preparation ------------------------------------------------

    def prepare(self, w) -> TiledWeights:
        """Tile a signed (rows, cols) weight matrix; flip columns when BinSparX is on."""
        tiles = tile_weights(w, self.config.n)
        return sparsify_tile(tiles) if self.config.binsparx else tiles

    # -- electrical helpers --------------------------------------------------

    def solve_columns(self, stored: np.ndarray, gates: np.ndarray):
        """Solve stored/gate bit arrays (broadcast to (B, n)) per config,
        driven at the device's ``v_nominal``.

        Returns (i_out (B,), converged (B,) bool).
        """
        cfg = self.config
        res = solve_columns_fast(
            stored, gates, cfg.device, cfg.wire, cfg.device.v_nominal,
            tol=cfg.solver_tol, max_iter=cfg.solver_max_iter,
        )
        return res.i_out, res.converged

    def solve_rows(self, stored: np.ndarray, gates: np.ndarray, which: np.ndarray | None = None):
        """Solve gate rows (U, n_phys) against stored column sets (S, ml, n_phys).

        Gate row u is solved against the ``ml`` stored columns
        ``stored[which[u]]`` (``which`` defaults to u), so rows of several
        row tiles share one pass without copying any tile's columns per
        row.  With the dummy column on, an all-zero stored column rides
        along with every gate row as column ``ml``.  Returns
        (i_out (U, ml + d), converged (U, ml + d)), d = 1 with the dummy on
        and 0 otherwise.

        This is the only chunk loop, for VMMs and sweeps alike.  The solver
        pads every column of a call to the call's largest gate-on count, so
        the rows go to :meth:`solve_columns` in ascending gate-on count (a
        stable sort), each call filled while max(1, its largest count) x
        its columns stays within :func:`_call_cells`; one gate row's
        columns always share a call.  No column's solve depends on
        its batch, so the layout changes no answer.
        """
        U, n_phys = gates.shape
        ml = stored.shape[1]
        width = ml + self.dummy
        which = np.arange(U) if which is None else which
        i_out = np.empty((U, width))
        conv = np.empty((U, width), dtype=bool)
        for rows in _count_sorted_chunks(np.count_nonzero(gates, axis=1), width, n_phys):
            cells = np.zeros((rows.size, width, n_phys), dtype=stored.dtype)
            cells[:, :ml] = stored[which[rows]]
            i, c = self.solve_columns(cells.reshape(-1, n_phys),
                                      np.repeat(gates[rows], width, axis=0))
            i_out[rows] = i.reshape(-1, width)
            conv[rows] = c.reshape(-1, width)
        return i_out, conv

    def _solve_tiles(self, prepared: TiledWeights, gates: np.ndarray):
        """Solve every row tile's distinct gate rows in one :meth:`solve_rows` pass.

        ``gates`` is (B, row_tiles, n).  A column's solve depends only on
        its stored bits and its gate row, so each distinct gate row of a
        row tile is solved once.  Returns, per row tile, (i_out, converged,
        inverse): the distinct rows' results and the index that expands
        them back to the B inputs.
        """
        firsts, inverses = [], []
        for r in range(gates.shape[1]):
            key = np.packbits(gates[:, r], axis=1)
            _, first, inverse = np.unique(
                key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                return_index=True, return_inverse=True,
            )
            firsts.append(first)
            inverses.append(inverse)
        sizes = [f.size for f in firsts]
        i_out, conv = self.solve_rows(
            np.ascontiguousarray(prepared.stored.transpose(0, 2, 1)),
            np.concatenate([gates[f, r] for r, f in enumerate(firsts)]),
            np.repeat(np.arange(len(sizes)), sizes),
        )
        cut = np.cumsum(sizes)[:-1]
        return list(zip(np.split(i_out, cut), np.split(conv, cut), inverses))

    # -- the VMM -------------------------------------------------------------

    def vmm_batch(
        self,
        prepared: TiledWeights,
        activations: np.ndarray,
        stats: RunStats | None = None,
        layer: str = "vmm",
    ) -> np.ndarray:
        """Signed VMM of (B, rows) activation rows against a prepared matrix.

        Writes the ideal counts, deviations, clamps and non-convergence of
        every row tile to ``stats`` under ``layer``; with ``stats`` None
        they go to a scratch :class:`RunStats`.
        """
        acts = np.atleast_2d(np.asarray(activations))
        if acts.shape[1] != prepared.rows:
            raise ShapeError(
                f"activation length {acts.shape[1]} != weight rows {prepared.rows}"
            )
        if acts.size and (acts.dtype.kind not in "biuf" or (np.abs(acts) != 1).any()):
            raise DomainError("activations must be in {-1,+1}")
        cfg = self.config
        if stats is None:
            stats = RunStats(cfg.n)
        B = acts.shape[0]
        row_tiles, n, cols = prepared.stored.shape
        n_logical = prepared.n_logical
        mapped = np.zeros((B, row_tiles * n), dtype=np.int8)
        mapped[:, : prepared.rows] = (acts + 1) // 2
        gates, sum_i, a_flip = sparsify_activations(
            mapped.reshape(B, row_tiles, n), n_logical, cfg.binsparx
        )
        arrays = -(-cols // cfg.m)  # one dummy column per m-column array
        out = np.zeros((B, cols), dtype=np.int64)
        digital_dummy = self.dummy and cfg.dummy_domain == "digital"
        if cfg.nonidealities:
            reads = self._solve_tiles(prepared, gates)

        for r, nl in enumerate(n_logical):
            ideal = gates[:, r].astype(np.int64) @ prepared.stored[r].astype(np.int64)  # (B, cols)
            if cfg.binsparx:
                cap = (nl + 1) // 2
                if ideal.size and int(ideal.max()) > cap:
                    raise BinsparxError(f"internal: ideal column sum exceeds the {cap} cap")
            stats.add_ideal(layer, ideal)
            if cfg.nonidealities:
                i_out, conv, inverse = reads[r]
                i_out, conv = i_out[inverse], conv[inverse]
                # column ``cols`` is the dummy when it is on; every array
                # reads its own, so the shared dummy's failures and clamps
                # count once per array
                data, dummy = i_out[:, :cols], i_out[:, cols:]
                nonconv = (int((~conv[:, :cols]).sum())
                           + arrays * int((~conv[:, cols:]).sum()))
                clamps = 0
                if digital_dummy:
                    dummy, c = self.adc.quantize_array(dummy)
                    clamps = arrays * c
                elif self.dummy:
                    data = dummy_compensate(data, dummy)
                raw, c = self.adc.quantize_array(data)
                clamps += c
                if digital_dummy:
                    raw = np.maximum(0, raw - dummy)
            else:
                # parasitic-free: the ADC sees exactly "count" quanta, so
                # digitization reduces to integer saturation
                raw = np.minimum(ideal, self.adc.levels - 1)
                nonconv, clamps = 0, int((ideal > self.adc.levels - 1).sum())
            stats.nonconverged += nonconv
            if nonconv and not cfg.best_effort:
                raise NonConvergenceError(
                    f"{nonconv} column solve(s) did not converge in layer {layer!r}"
                )
            stats.clamp_events += clamps
            stats.add_deviation(layer, np.abs(raw - ideal))
            out += postprocess(raw, sum_i[:, r, None], a_flip[:, r, None],
                               prepared.sum_wprime[r], prepared.column_flip[r], nl)
        return out

    # -- inference -----------------------------------------------------------

    def infer(
        self,
        layers: Sequence["LayerSpec"],
        features: np.ndarray,
        labels: np.ndarray | None = None,
        binarize_threshold: float = 0.0,
        stats: RunStats | None = None,
    ) -> "InferenceResult":
        """Run a small BNN on (B, D) features; deterministic given config."""
        if stats is None:
            stats = RunStats(self.config.n)
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2:
            raise ShapeError("features must be a 2-D (inputs, dims) array")
        x = np.where(feats > binarize_threshold, 1, -1).astype(np.int8)
        spatial = None  # (C, H, W) tracking for conv layers

        for layer in layers:
            if layer.kind == "dense":
                w = layer.matrix()
                if x.ndim != 2:
                    x = x.reshape(x.shape[0], -1)
                if x.shape[1] != w.shape[0]:
                    raise ShapeError(
                        f"layer {layer.name!r}: input width {x.shape[1]} != rows {w.shape[0]}"
                    )
                if layer.full_precision:
                    x = x.astype(np.int64) @ w.astype(np.int64)
                else:
                    x = self.vmm_batch(self.prepare(w), x, stats, layer.name)
                spatial = None
            elif layer.kind == "conv":
                cout, cin, kh, kw = layer.weights.shape
                if spatial is None:
                    if layer.in_shape is None:
                        raise ShapeError(f"layer {layer.name!r}: in_shape required")
                    spatial = tuple(layer.in_shape)
                C, H, W = spatial
                if C != cin:
                    raise ShapeError(f"layer {layer.name!r}: channel mismatch")
                imgs = x.reshape(x.shape[0], C, H, W)
                cols, oh, ow = im2col(imgs, kh, kw, layer.stride, layer.padding)
                w = layer.matrix()
                B, P, D = cols.shape
                flat = cols.reshape(B * P, D)
                if layer.full_precision:
                    y = flat.astype(np.int64) @ w.astype(np.int64)
                else:
                    y = self.vmm_batch(self.prepare(w), flat, stats, layer.name)
                x = y.reshape(B, P, cout).transpose(0, 2, 1).reshape(B, cout, oh, ow)
                spatial = (cout, oh, ow)
            elif layer.kind == "sign":
                x = np.where(x >= 0, 1, -1).astype(np.int8)
            elif layer.kind == "threshold":
                axis = 1 if x.ndim == 4 else -1
                width = len(layer.thresholds.thresholds)
                if width != x.shape[axis]:
                    raise ShapeError(f"layer {layer.name!r}: {width} thresholds for "
                                     f"{x.shape[axis]} channels")
                x = layer.thresholds.apply(x, channel_axis=axis)
            else:
                raise ConfigError(f"unknown layer kind {layer.kind!r}")

        scores = x.reshape(x.shape[0], -1)
        predictions = np.argmax(scores, axis=1)
        accuracy = None
        if labels is not None:
            labels = np.asarray(labels)
            accuracy = float((predictions == labels).mean())
        return InferenceResult(
            predictions=predictions, scores=scores, accuracy=accuracy, stats=stats
        )


@dataclass(frozen=True, eq=False)
class FoldedThreshold:
    """Batch-norm folded to integer thresholds on partial-sum scores.

    For channel c the activation is +1 iff the batch-normed score is >= 0:
    x >= T when gamma > 0, x <= T when gamma < 0.
    """

    thresholds: np.ndarray  # (C,) int64
    gamma_sign: np.ndarray  # (C,) int8, +1 or -1

    def apply(self, x: np.ndarray, channel_axis: int = -1) -> np.ndarray:
        shape = [1] * x.ndim
        shape[channel_axis] = len(self.thresholds)
        t = self.thresholds.reshape(shape)
        s = self.gamma_sign.reshape(shape)
        pos = np.where(x >= t, 1, -1)
        neg = np.where(x <= t, 1, -1)
        return np.where(s > 0, pos, neg).astype(np.int8)


def fold_batchnorm(gamma, beta, mean, var, eps: float = 1e-5) -> FoldedThreshold:
    """Fold y = gamma*(x-mean)/sqrt(var+eps) + beta followed by sign().

    sign(y) = sign(gamma) * sign(x - t) with t = mean - beta*sqrt(var+eps)/gamma;
    thresholds are stored as integers (ceil/floor per gamma's sign) so the
    comparison is exact on integer partial sums.
    """
    g = np.asarray(gamma, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    mu = np.asarray(mean, dtype=np.float64)
    v = np.asarray(var, dtype=np.float64)
    if np.any(v + eps <= 0):
        raise FoldError("fold_batchnorm: var + eps must be > 0")
    if np.any(g == 0):
        raise FoldError("fold_batchnorm: gamma must be nonzero")
    t = mu - b * np.sqrt(v + eps) / g
    thr = np.where(g > 0, np.ceil(t), np.floor(t)).astype(np.int64)
    return FoldedThreshold(thresholds=thr, gamma_sign=np.where(g > 0, 1, -1).astype(np.int8))


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One layer of a desk-scale BNN."""

    name: str
    kind: str  # dense | conv | sign | threshold
    weights: BinaryTensor | None = None
    thresholds: FoldedThreshold | None = None
    stride: int = 1
    padding: int = 0
    in_shape: tuple | None = None  # (C, H, W) for the first conv layer
    full_precision: bool = False

    def __post_init__(self):
        if self.kind in ("dense", "conv") and self.weights is None:
            raise ConfigError(f"layer {self.name!r}: weights required")
        if self.kind == "dense" and self.weights.ndim != 2:
            raise ShapeError(f"layer {self.name!r}: dense weights must be 2-D")
        if self.kind == "conv" and self.weights.ndim != 4:
            raise ShapeError(f"layer {self.name!r}: conv weights must be 4-D")
        if self.kind == "threshold" and self.thresholds is None:
            raise ConfigError(f"layer {self.name!r}: thresholds required")
        if self.kind == "conv" and (self.stride < 1 or self.padding < 0):
            raise ConfigError(f"layer {self.name!r}: bad stride/padding")

    def matrix(self) -> np.ndarray:
        """The weights as the 2-D (inputs, outputs) matrix the array holds.

        A conv kernel (cout, cin, kh, kw) gives (cin*kh*kw, cout), rows in
        :func:`im2col` patch order.
        """
        w = self.weights.values
        return w.reshape(w.shape[0], -1).T if self.kind == "conv" else w


@dataclass(frozen=True, eq=False)
class InferenceResult:
    predictions: np.ndarray
    scores: np.ndarray
    accuracy: float | None
    stats: RunStats


def im2col(
    imgs: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, int, int]:
    """Lower (B, C, H, W) signed images to patch rows for dense VMM.

    Padding cells are filled with -1 (zero applied voltage in hardware).
    Returns (cols (B, OH*OW, C*kh*kw), OH, OW); patch element order is
    (channel, kernel row, kernel col), matching a (cout, cin, kh, kw)
    kernel flattened C-order.
    """
    B, C, H, W = imgs.shape
    if padding:
        imgs = np.pad(
            imgs,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=-1,
        )
    Hp, Wp = imgs.shape[2], imgs.shape[3]
    if kh > Hp or kw > Wp:
        raise ShapeError("kernel larger than padded input")
    win = np.lib.stride_tricks.sliding_window_view(imgs, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B, oh * ow, C * kh * kw)
    return np.ascontiguousarray(cols), oh, ow
