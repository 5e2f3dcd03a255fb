"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the run seed and a fixed stream number,
so the same seed gives the same model, dataset and config files, byte for
byte.  Models are written through ``binsparx.modelio.save_model``; datasets
are IDX files written here (the package reads IDX but has no IDX writer).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from binsparx import modelio

# independent random streams derived from the run seed
STREAM_MODEL = 0
STREAM_DATASET = 1
STREAM_VMM_ACTS = 2
STREAM_SWEEP = 3
STREAM_VALIDATE = 4
STREAM_VMM_CHECK = 5

IMAGE_SIDE = 8
CLASSES = 10
PIXEL_NOISE = 0.05


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for one stream of one seed; streams never overlap."""
    return np.random.default_rng([seed, *stream])


def int_seed(seed: int, *stream: int) -> int:
    """A 32-bit integer seed for APIs that take an int (e.g. the solver suite)."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def write_idx(path: Path, array: np.ndarray) -> Path:
    """Write a uint8 array as an IDX file (magic 0x0008, big-endian dims)."""
    a = np.ascontiguousarray(array, dtype=np.uint8)
    header = bytes([0, 0, 0x08, a.ndim]) + struct.pack(f">{a.ndim}I", *a.shape)
    path.write_bytes(header + a.tobytes(order="C"))
    return path


def write_ini(path: Path, sections: dict) -> Path:
    """Write a run config in the INI form ``binsparx --config`` reads."""
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _signs(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)


def conv_model(seed: int, out_dir: Path) -> tuple[Path, dict]:
    """conv 16x1x3x3 (pad 1) on 1x8x8 -> threshold -> dense 1024->64 ->
    threshold -> dense 64->10.  Returns the manifest path and the arrays."""
    rng = rng_for(seed, STREAM_MODEL)
    arrays = {
        "conv1": _signs(rng, (16, 1, 3, 3)),
        # conv sums of 9 terms are odd in [-9, 9]; dense sums are even
        "bn1": (rng.integers(-2, 3, 16), _signs(rng, 16)),
        "fc1": _signs(rng, (16 * IMAGE_SIDE * IMAGE_SIDE, 64)),
        "bn2": (rng.integers(-8, 9, 64), _signs(rng, 64)),
        "fc2": _signs(rng, (64, CLASSES)),
    }
    layers = [
        {"name": "conv1", "kind": "conv", "weights": arrays["conv1"], "stride": 1,
         "padding": 1, "in_shape": (1, IMAGE_SIDE, IMAGE_SIDE)},
        {"name": "bn1", "kind": "threshold", "thresholds": arrays["bn1"][0],
         "gamma_sign": arrays["bn1"][1]},
        {"name": "fc1", "kind": "dense", "weights": arrays["fc1"]},
        {"name": "bn2", "kind": "threshold", "thresholds": arrays["bn2"][0],
         "gamma_sign": arrays["bn2"][1]},
        {"name": "fc2", "kind": "dense", "weights": arrays["fc2"]},
    ]
    return modelio.save_model(out_dir, layers, name="model"), arrays


def template_images(seed: int, count: int, out_dir: Path) -> tuple[Path, Path, np.ndarray]:
    """``count`` 8x8 images: one of ten random binary class templates with
    each pixel flipped with probability 5%.  Pixels are 0 or 255, so the
    images repeat conv patches the way real binarised images do.  Returns
    the IDX feature and label paths and the images as signed +-1 rows."""
    rng = rng_for(seed, STREAM_DATASET)
    templates = rng.integers(0, 2, size=(CLASSES, IMAGE_SIDE * IMAGE_SIDE))
    labels = rng.integers(0, CLASSES, size=count)
    noise = rng.random((count, IMAGE_SIDE * IMAGE_SIDE)) < PIXEL_NOISE
    bits = templates[labels] ^ noise
    pixels = (bits * 255).astype(np.uint8).reshape(count, IMAGE_SIDE, IMAGE_SIDE)
    feats = write_idx(out_dir / "images.idx", pixels)
    labs = write_idx(out_dir / "labels.idx", labels.astype(np.uint8))
    return feats, labs, np.where(bits > 0, 1, -1).astype(np.int8)


def dense_model(seed: int, rows: int, cols: int, out_dir: Path) -> tuple[Path, np.ndarray]:
    """One random +-1 dense layer named ``vmm``."""
    w = _signs(rng_for(seed, STREAM_MODEL), (rows, cols))
    path = modelio.save_model(out_dir, [{"name": "vmm", "kind": "dense", "weights": w}],
                              name="model")
    return path, w


def random_activations(seed: int, batch: int, rows: int, width: int) -> np.ndarray:
    """Activation rows for op batch ``batch``: uniform +-1, no reuse by design."""
    return _signs(rng_for(seed, STREAM_VMM_ACTS, batch), (rows, width))
