"""Model manifests, tensor blobs, dataset readers, and result writers.

A model is a JSON manifest plus raw little-endian tensor blobs:

    {
      "format": "binsparx-model", "version": 1,
      "layers": [
        {"name": "fc1", "kind": "dense", "shape": [64, 32],
         "file": "fc1.bin", "dtype": "int8", "full_precision": false},
        {"name": "bn1", "kind": "threshold", "shape": [32],
         "file": "bn1.bin", "dtype": "int32",
         "sign_file": "bn1_sign.bin"},
        {"name": "act1", "kind": "sign"},
        {"name": "conv1", "kind": "conv", "shape": [8, 1, 3, 3],
         "file": "conv1.bin", "dtype": "int8",
         "stride": 1, "padding": 0, "in_shape": [1, 8, 8]}
      ]
    }

Weight blobs are int8 in {-1,+1}, row-major; threshold blobs are int32
(little-endian) with an int8 sign blob alongside.  Dataset readers cover
IDX (optionally gzipped) and CSV rows of ``label,feature,...``.  All
writers are deterministic: same data in, same bytes out.
"""

from __future__ import annotations

import gzip
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bnn import BinaryTensor
from .engine import FoldedThreshold, LayerSpec
from .errors import ParseError

__all__ = [
    "MODEL_FORMAT",
    "Dataset",
    "save_model",
    "load_model",
    "load_idx",
    "load_csv_dataset",
    "load_dataset",
    "dump_json",
    "write_json",
    "write_histogram_csv",
    "write_sweep_csv",
    "write_predictions_csv",
]

MODEL_FORMAT = "binsparx-model"

_IDX_DTYPES = {
    0x08: ">u1",
    0x09: ">i1",
    0x0B: ">i2",
    0x0C: ">i4",
    0x0D: ">f4",
    0x0E: ">f8",
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows plus optional integer labels."""

    features: np.ndarray  # (B, D) float64
    labels: np.ndarray | None


# -- model save/load ---------------------------------------------------------


def save_model(out_dir, layers, name: str = "model") -> Path:
    """Write layer dicts as a manifest + blobs; returns the manifest path.

    Each layer dict needs ``name`` and ``kind``; dense/conv need
    ``weights`` (+-1 integer array), conv also ``stride``/``padding`` and
    optionally ``in_shape``; threshold needs ``thresholds`` (ints) and
    ``gamma_sign`` (+-1); dense may set ``full_precision``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_layers = []
    for spec in layers:
        kind = spec["kind"]
        entry = {"name": spec["name"], "kind": kind}
        if kind in ("dense", "conv"):
            w = np.asarray(spec["weights"]).astype("<i1")
            fname = f"{spec['name']}.bin"
            (out / fname).write_bytes(w.tobytes(order="C"))
            entry.update(shape=list(w.shape), file=fname, dtype="int8")
            if kind == "dense":
                entry["full_precision"] = bool(spec.get("full_precision", False))
            else:
                entry["stride"] = int(spec.get("stride", 1))
                entry["padding"] = int(spec.get("padding", 0))
                if spec.get("in_shape") is not None:
                    entry["in_shape"] = [int(v) for v in spec["in_shape"]]
        elif kind == "threshold":
            t = np.asarray(spec["thresholds"]).astype("<i4")
            s = np.asarray(spec["gamma_sign"]).astype("<i1")
            tname, sname = f"{spec['name']}.bin", f"{spec['name']}_sign.bin"
            (out / tname).write_bytes(t.tobytes(order="C"))
            (out / sname).write_bytes(s.tobytes(order="C"))
            entry.update(shape=list(t.shape), file=tname, dtype="int32", sign_file=sname)
        elif kind == "sign":
            pass
        else:
            raise ParseError(f"save_model: unknown layer kind {kind!r}")
        manifest_layers.append(entry)
    manifest = {"format": MODEL_FORMAT, "version": 1, "layers": manifest_layers}
    path = out / f"{name}.json"
    path.write_text(dump_json(manifest))
    return path


def _read_blob(base: Path, entry: dict, key: str, dtype: str, count: int) -> np.ndarray:
    fname = entry.get(key)
    if not fname:
        raise ParseError(f"layer {entry.get('name')!r}: missing {key!r}")
    blob = (base / fname).read_bytes()
    arr = np.frombuffer(blob, dtype=dtype)
    if arr.size != count:
        raise ParseError(
            f"layer {entry.get('name')!r}: blob {fname} has {arr.size} elements, expected {count}"
        )
    return arr


def _ints(entry: dict, name: str, key: str, ndim: int | None = None) -> tuple:
    """``entry[key]`` as a tuple of positive ints, ``ndim`` of them when given."""
    value = entry.get(key)
    if not (isinstance(value, list) and value and ndim in (None, len(value))
            and all(type(v) is int and v > 0 for v in value)):
        size = f"{ndim} " if ndim else ""
        raise ParseError(f"layer {name!r}: {key!r} must be a list of {size}positive "
                         f"integers, got {value!r}")
    return tuple(value)


def _scalar(entry: dict, name: str, key: str, default):
    """``entry[key]``, which must have the type of ``default`` (a bool is no int)."""
    value = entry.get(key, default)
    if type(value) is not type(default):
        raise ParseError(f"layer {name!r}: {key!r} must be a {type(default).__name__}, "
                         f"got {value!r}")
    return value


def load_model(manifest_path) -> list[LayerSpec]:
    """Parse a manifest and its blobs into engine layer specs.

    A manifest that is not a JSON object, a ``layers`` entry that is not a
    list of objects, a missing or ill-typed ``shape``, ``stride``,
    ``padding``, ``in_shape`` or ``full_precision``, and a ``name`` that is
    not a string or not unique are ``ParseError``s naming the layer: the
    run ledger keys its per-layer counts by name.
    """
    path = Path(manifest_path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: cannot parse manifest ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ParseError(f"{path}: not a {MODEL_FORMAT} manifest")
    entries = doc.get("layers", [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}: 'layers' must be a list, got {entries!r}")
    base = path.parent
    layers = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: layer {len(layers)} must be an object, got {entry!r}")
        kind = entry.get("kind")
        default = f"layer{len(layers)}"
        name = _scalar(entry, default, "name", default)
        if any(layer.name == name for layer in layers):
            raise ParseError(f"layer {name!r}: duplicate layer name")
        if kind == "dense":
            shape = _ints(entry, name, "shape", 2)
            w = _read_blob(base, entry, "file", "<i1", int(np.prod(shape))).reshape(shape)
            layers.append(
                LayerSpec(
                    name=name,
                    kind="dense",
                    weights=BinaryTensor(w),
                    full_precision=_scalar(entry, name, "full_precision", False),
                )
            )
        elif kind == "conv":
            shape = _ints(entry, name, "shape", 4)
            w = _read_blob(base, entry, "file", "<i1", int(np.prod(shape))).reshape(shape)
            layers.append(
                LayerSpec(
                    name=name,
                    kind="conv",
                    weights=BinaryTensor(w),
                    stride=_scalar(entry, name, "stride", 1),
                    padding=_scalar(entry, name, "padding", 0),
                    in_shape=_ints(entry, name, "in_shape", 3) if entry.get("in_shape") else None,
                )
            )
        elif kind == "threshold":
            count = int(np.prod(_ints(entry, name, "shape")))
            t = _read_blob(base, entry, "file", "<i4", count).astype(np.int64)
            s = _read_blob(base, entry, "sign_file", "<i1", count)
            layers.append(
                LayerSpec(
                    name=name,
                    kind="threshold",
                    thresholds=FoldedThreshold(thresholds=t, gamma_sign=s.astype(np.int8)),
                )
            )
        elif kind == "sign":
            layers.append(LayerSpec(name=name, kind="sign"))
        else:
            raise ParseError(f"layer {name!r}: unknown kind {kind!r}")
    if not layers:
        raise ParseError(f"{path}: manifest has no layers")
    return layers


# -- dataset readers ----------------------------------------------------------


def load_idx(path) -> np.ndarray:
    """Read an IDX tensor file (gzipped when the name ends in .gz)."""
    p = Path(path)
    opener = gzip.open if p.suffix == ".gz" else open
    try:
        with opener(p, "rb") as fh:
            head = fh.read(4)
            if len(head) != 4 or head[0] != 0 or head[1] != 0:
                raise ParseError(f"{p}: bad IDX magic")
            code, ndim = head[2], head[3]
            if code not in _IDX_DTYPES:
                raise ParseError(f"{p}: unknown IDX dtype 0x{code:02x}")
            dims_block = fh.read(4 * ndim)
            if len(dims_block) != 4 * ndim:
                raise ParseError(f"{p}: truncated IDX header ({ndim} dims declared)")
            dims = struct.unpack(f">{ndim}I", dims_block)
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"{p}: cannot read ({exc})") from exc
    arr = np.frombuffer(data, dtype=_IDX_DTYPES[code])
    expected = int(np.prod(dims)) if ndim else 0
    if arr.size != expected:
        raise ParseError(f"{p}: payload has {arr.size} elements, header says {expected}")
    return arr.reshape(dims).astype(arr.dtype.newbyteorder("="))


def load_csv_dataset(path) -> Dataset:
    """Parse ``label,feature,...`` rows (no header) into a Dataset."""
    p = Path(path)
    labels = []
    rows = []
    width = None
    with open(p) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError(f"{p}: line {ln}: need label plus features")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ParseError(f"{p}: line {ln}: ragged row ({len(parts)} != {width})")
            try:
                labels.append(int(float(parts[0])))
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"{p}: line {ln}: {exc}") from exc
    if not rows:
        raise ParseError(f"{p}: empty dataset")
    return Dataset(features=np.asarray(rows, dtype=np.float64), labels=np.asarray(labels))


def load_dataset(features_path, labels_path=None) -> Dataset:
    """Dispatch on extension: .csv bundles labels; IDX keeps them separate."""
    p = Path(features_path)
    name = p.name[:-3] if p.suffix == ".gz" else p.name
    if name.endswith(".csv"):
        return load_csv_dataset(p)
    feats = load_idx(p)
    feats = feats.reshape(feats.shape[0], -1).astype(np.float64)
    labels = None
    if labels_path is not None:
        labels = load_idx(labels_path).astype(np.int64).ravel()
        if len(labels) != len(feats):
            raise ParseError(
                f"labels ({len(labels)}) and features ({len(feats)}) disagree on count"
            )
    return Dataset(features=feats, labels=labels)


# -- deterministic writers -----------------------------------------------------


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(dump_json(obj))
    return p


def _config_comment(config_echo: dict) -> str:
    return "# config " + json.dumps(config_echo, sort_keys=True) + "\n"


def write_histogram_csv(path, counts, config_echo: dict) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [_config_comment(config_echo), "bin,count\n"]
    for b, c in enumerate(np.asarray(counts).tolist()):
        lines.append(f"{b},{c}\n")
    p.write_text("".join(lines))
    return p


def write_sweep_csv(path, sweep, config_echo: dict) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [_config_comment(config_echo), "x,mean,min,max,mean_abs,samples,nonconverged\n"]
    for x, mean, mn, mx, mabs, ns, nc in sweep.rows():
        lines.append(f"{x},{mean!r},{mn!r},{mx!r},{mabs!r},{ns},{nc}\n")
    p.write_text("".join(lines))
    return p


def write_predictions_csv(path, predictions, labels, config_echo: dict) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [_config_comment(config_echo), "index,label,prediction\n"]
    preds = np.asarray(predictions).tolist()
    labs = [""] * len(preds) if labels is None else np.asarray(labels).tolist()
    for i, (l, q) in enumerate(zip(labs, preds)):
        lines.append(f"{i},{l},{q}\n")
    p.write_text("".join(lines))
    return p
