"""Outside-in tracing of the binsparx layers for the traced benchmark run.

The tracer wraps public functions and methods of the package from here,
so the package itself carries no instrumentation.  Each wrapper records a
span (id, name, start, end, parent span, op batch) and, where the layer
has work to count, counts taken from the call's arguments and result.
A wrapped name that no longer exists is recorded as absent and its
metrics read 0; the run goes on.

Self time of a span is its duration minus the time of its direct child
spans and of the tracer's own bookkeeping done inside it.  There is one
thread, so nothing waits on anything else and no waiting time exists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

# model layers whose vmm_batch calls are reported one by one
VMM_LAYERS = ("conv1", "fc1", "fc2", "vmm")
SPAN_CAP = 50_000  # spans kept for the trace file; aggregates cover all of them


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "ratio" in name or name.endswith("rel_error"):
        return "ratio"
    if "_iters_" in name:
        return "iterations"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _bound_arg(sig, args, kwargs, name, default=None):
    if sig is None:
        return default
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return default
    bound.apply_defaults()
    return bound.arguments.get(name, default)


def _vmm_layer(sig, args, kwargs) -> str:
    return str(_bound_arg(sig, args, kwargs, "layer", "vmm"))


def _count_solve_columns(tracer, sig, args, kwargs, result):
    stored = _bound_arg(sig, args, kwargs, "stored")
    gates = _bound_arg(sig, args, kwargs, "gates")
    if stored is None or gates is None:
        return
    s, g = np.broadcast_arrays(np.atleast_2d(stored), np.atleast_2d(gates))
    tracer.counts["engine.solve_columns_columns"] += len(s)
    layer = tracer.enclosing_label("engine.vmm_batch")
    if layer is None or not len(s):
        return
    # a (stored column, gate vector) pair is what a solve depends on
    packed = np.ascontiguousarray(np.packbits(np.concatenate([s != 0, g != 0], axis=1), axis=1))
    distinct = len(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))))
    tracer.counts[f"columns.{layer}"] += len(s)
    tracer.counts[f"distinct.{layer}"] += distinct


def _count_fast(tracer, sig, args, kwargs, result):
    iters = np.asarray(result.iterations).ravel()
    if not iters.size:
        return
    c = tracer.counts
    c["solver.fast_columns"] += iters.size
    c["solver.fast_column_iters"] += int(iters.sum())
    # every column of a batch rides along until the batch's slowest one stops
    c["solver.fast_column_slots"] += iters.size * int(iters.max())
    c["solver.fast_nonconverged"] += int((~np.asarray(result.converged)).sum())
    values, freq = np.unique(iters, return_counts=True)
    for v, f in zip(values.tolist(), freq.tolist()):
        tracer.fast_iter_hist[v] += f


def _count_dense(tracer, sig, args, kwargs, result):
    tracer.counts["solver.dense_iters"] += result.iterations


def _count_currents(tracer, sig, args, kwargs, result):
    tracer.counts["devices.currents_elements"] += np.size(result)


def _count_quantize(tracer, sig, args, kwargs, result):
    tracer.counts["readout.adc_clamps"] += int(result[1])


def _count_validation(tracer, sig, args, kwargs, result):
    c = tracer.counts
    c["solver.validate_max_rel_error"] = max(c["solver.validate_max_rel_error"],
                                             float(result["max_rel_error"]))


class Wrap(NamedTuple):
    """One traced call site: ``attr`` is a function or ``Class.method`` in ``module``."""

    module: str
    attr: str
    span: str
    hook: Callable | None = None   # (tracer, signature, args, kwargs, result) -> None
    label: Callable | None = None  # (signature, args, kwargs) -> span-name suffix


WRAPS = (
    Wrap("binsparx.config", "load_run_config", "config.load"),
    Wrap("binsparx.config", "build_engine_config", "config.build"),
    Wrap("binsparx.modelio", "load_model", "modelio.load_model"),
    Wrap("binsparx.modelio", "load_dataset", "modelio.load_dataset"),
    Wrap("binsparx.modelio", "save_model", "modelio.save_model"),
    Wrap("binsparx.modelio", "write_json", "modelio.write_json"),
    Wrap("binsparx.modelio", "write_predictions_csv", "modelio.write_predictions_csv"),
    Wrap("binsparx.modelio", "write_sweep_csv", "modelio.write_sweep_csv"),
    Wrap("binsparx.engine", "Engine.prepare", "engine.prepare"),
    Wrap("binsparx.engine", "im2col", "engine.im2col"),
    Wrap("binsparx.engine", "Engine.vmm_batch", "engine.vmm_batch", label=_vmm_layer),
    Wrap("binsparx.engine", "Engine.solve_columns", "engine.solve_columns",
         hook=_count_solve_columns),
    Wrap("binsparx.solver", "solve_columns_fast", "solver.fast", hook=_count_fast),
    Wrap("binsparx.solver", "solve_column_dense", "solver.dense", hook=_count_dense),
    Wrap("binsparx.devices", "DeviceModel.currents", "devices.currents", hook=_count_currents),
    Wrap("binsparx.devices", "DeviceModel.conductances", "devices.conductances"),
    Wrap("binsparx.readout", "AdcModel.quantize_array", "readout.quantize",
         hook=_count_quantize),
    Wrap("binsparx.readout", "dummy_compensate", "readout.dummy"),
    Wrap("binsparx.sparsify", "sparsify_tile", "sparsify.tile"),
    Wrap("binsparx.sparsify", "dense_tile", "sparsify.tile"),
    Wrap("binsparx.bnn", "tile_weights", "bnn.tile_weights"),
    Wrap("binsparx.analysis", "sweep_deviation", "analysis.sweep_deviation"),
    Wrap("binsparx.analysis", "solver_validation_suite", "analysis.solver_validation_suite",
         hook=_count_validation),
)


class Tracer:
    """Spans and counts at layer boundaries; off until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = None              # op batch the current spans belong to
        self.stack = []             # open frames: [span id, name, start, child seconds]
        self.spans = []             # (id, name, start, end, parent id, op batch)
        self.dropped = 0
        self.next_id = 0
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.fast_iter_hist = defaultdict(int)
        self.absent = []
        self._patched = []          # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self.next_id, name, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op))
        else:
            self.dropped += 1

    def _charge(self, seconds: float):
        """Keep the tracer's own bookkeeping out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += seconds

    def enclosing_label(self, span: str) -> str | None:
        """Label of the innermost open span named ``span.<label>``, if any."""
        prefix = span + "."
        for frame in reversed(self.stack):
            if frame[1].startswith(prefix):
                return frame[1][len(prefix):]
        return None

    # -- installing wrappers -----------------------------------------------

    def _wrapper(self, fn, wrap: Wrap):
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = wrap.span if wrap.label is None else f"{wrap.span}.{wrap.label(sig, args, kwargs)}"
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if wrap.hook is not None:
                t0 = time.perf_counter()
                wrap.hook(tracer, sig, args, kwargs, result)
                tracer._charge(time.perf_counter() - t0)
            return result

        return traced

    def install(self, wraps=WRAPS):
        """Wrap every listed call site; record the ones that do not exist."""
        for wrap in wraps:
            try:
                owner = importlib.import_module(wrap.module)
                *path, attr = wrap.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{wrap.module}:{wrap.attr}")
                continue
            wrapper = self._wrapper(original, wrap)
            if path:  # a method: patch the class
                self._patch(owner, attr, original, wrapper)
                continue
            # a function: patch every package module that imported it by name
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "binsparx" and getattr(module, attr, None) is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _iter_percentile(self, q: float) -> float:
        if not self.fast_iter_hist:
            return 0.0
        values = sorted(self.fast_iter_hist)
        cum = np.cumsum([self.fast_iter_hist[v] for v in values])
        return float(values[int(np.searchsorted(cum, q * cum[-1]))])

    def layer_metrics(self) -> dict:
        """Per-layer metric values: totals over the traced section."""
        inc, c = self.inclusive, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for layer in VMM_LAYERS:
            m[f"engine.vmm_self_s.{layer}"] = self.self_time[f"engine.vmm_batch.{layer}"]
        m["engine.prepare_s"] = inc["engine.prepare"]
        m["engine.im2col_s"] = inc["engine.im2col"]
        m["engine.solve_columns_s"] = inc["engine.solve_columns"]
        m["engine.solve_columns_columns"] = c["engine.solve_columns_columns"]
        for layer in VMM_LAYERS:
            m[f"engine.unique_column_ratio.{layer}"] = ratio(c[f"distinct.{layer}"],
                                                             c[f"columns.{layer}"])
        m["solver.fast_s"] = inc["solver.fast"]
        m["solver.fast_calls"] = self.calls["solver.fast"]
        m["solver.fast_columns"] = c["solver.fast_columns"]
        m["solver.fast_column_iters"] = c["solver.fast_column_iters"]
        m["solver.fast_iters_p50"] = self._iter_percentile(0.5)
        m["solver.fast_iters_max"] = float(max(self.fast_iter_hist, default=0))
        m["solver.fast_active_ratio"] = ratio(c["solver.fast_column_iters"],
                                              c["solver.fast_column_slots"])
        m["solver.fast_nonconverged"] = c["solver.fast_nonconverged"]
        m["solver.dense_s"] = inc["solver.dense"]
        m["solver.dense_calls"] = self.calls["solver.dense"]
        m["solver.dense_iters_mean"] = ratio(c["solver.dense_iters"], self.calls["solver.dense"])
        m["solver.validate_max_rel_error"] = c["solver.validate_max_rel_error"]
        m["devices.currents_s"] = inc["devices.currents"]
        m["devices.currents_calls"] = self.calls["devices.currents"]
        m["devices.currents_elements"] = c["devices.currents_elements"]
        m["devices.conductances_s"] = inc["devices.conductances"]
        m["readout.quantize_s"] = inc["readout.quantize"]
        m["readout.adc_clamps"] = c["readout.adc_clamps"]
        m["readout.dummy_s"] = inc["readout.dummy"]
        m["sparsify.tile_s"] = inc["sparsify.tile"]
        m["bnn.tile_weights_s"] = inc["bnn.tile_weights"]
        m["config.load_s"] = inc["config.load"] + inc["config.build"]
        m["modelio.load_s"] = inc["modelio.load_model"] + inc["modelio.load_dataset"]
        m["modelio.write_s"] = sum(
            inc[k] for k in ("modelio.save_model", "modelio.write_json",
                             "modelio.write_predictions_csv", "modelio.write_sweep_csv")
        )
        return {k: float(v) for k, v in m.items()}

    def dump(self) -> dict:
        """Everything the trace file holds."""
        return {
            "absent": self.absent,
            "spans_recorded": self.next_id,
            "spans_dropped": self.dropped,
            "columns": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "per_span": {
                name: {"calls": self.calls[name], "inclusive_s": self.inclusive[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "fast_iteration_histogram": dict(sorted(self.fast_iter_hist.items())),
        }
