"""Shared test helpers: independent reference implementations.

Everything here is deliberately written from scratch (loops, direct
formulas) so it cannot share a bug with the library code it checks;
``make_lut_from_model`` only samples a device model into a LUT, and
``write_table`` / ``write_lut_csv`` write a measured table as a CSV.
"""

import os
import sys

# One BLAS thread: the dense oracle's small solves gain nothing from more,
# and a multi-threaded BLAS slows them more than tenfold when another
# process keeps a core busy.  This must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    import warnings

    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not pinned")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from binsparx.devices import DeviceLut  # noqa: E402


def pytest_configure(config):
    # A ConfigWarning that no test expects fails the test.  Registered here
    # rather than in pyproject.toml: pytest imports an ini filter's warning
    # class, and with it numpy, before this file pins the BLAS threads.
    # So do a NaN or overflow in a solve (RuntimeWarning) and a deprecated
    # numpy call (DeprecationWarning), which would otherwise pass quietly.
    for category in ("binsparx.errors.ConfigWarning", "DeprecationWarning", "RuntimeWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")


def signed_dot(i_signed, w_signed) -> int:
    """Plain signed dot product, the ground truth for all VMM paths."""
    return int(np.asarray(i_signed, dtype=np.int64) @ np.asarray(w_signed, dtype=np.int64))


def signed_vmm(acts, weights) -> np.ndarray:
    """(B, rows) x (rows, cols) integer VMM."""
    return np.asarray(acts, dtype=np.int64) @ np.asarray(weights, dtype=np.int64)


def software_bnn_forward(x, layer_params):
    """Loop-based BNN forward pass: list of ("dense", W) | ("sign",) |
    ("threshold", thresholds, gamma_signs) |
    ("conv", kernel, stride, padding, (C, H, W)) tuples.  Conv padding
    cells read -1; a dense layer flattens a conv output (C, H, W)-major."""
    x = np.asarray(x, dtype=np.int64)
    for params in layer_params:
        kind = params[0]
        if kind == "dense":
            x = x.reshape(len(x), -1) @ np.asarray(params[1], dtype=np.int64)
        elif kind == "conv":
            kern = np.asarray(params[1], dtype=np.int64)
            stride, pad, (c, h, w) = params[2], params[3], params[4]
            cout, _, kh, kw = kern.shape
            imgs = np.pad(x.reshape(len(x), c, h, w),
                          ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-1)
            oh = (h + 2 * pad - kh) // stride + 1
            ow = (w + 2 * pad - kw) // stride + 1
            out = np.zeros((len(x), cout, oh, ow), dtype=np.int64)
            for b in range(len(x)):
                for o in range(cout):
                    for i in range(oh):
                        for j in range(ow):
                            patch = imgs[b, :, i * stride : i * stride + kh,
                                         j * stride : j * stride + kw]
                            out[b, o, i, j] = int((patch * kern[o]).sum())
            x = out
        elif kind == "sign":
            x = np.where(x >= 0, 1, -1)
        elif kind == "threshold":
            t, s = params[1], params[2]
            out = np.empty_like(x)
            for c in range(x.shape[-1]):
                if s[c] > 0:
                    out[..., c] = np.where(x[..., c] >= t[c], 1, -1)
                else:
                    out[..., c] = np.where(x[..., c] <= t[c], 1, -1)
            x = out
        else:
            raise AssertionError(kind)
    return x


def bilinear_reference(vg_axis, vd_axis, grid, vg, vd):
    """Scalar bilinear interpolation written independently (searchsorted-free)."""
    vg = min(max(vg, vg_axis[0]), vg_axis[-1])
    vd = min(max(vd, vd_axis[0]), vd_axis[-1])
    j = 0
    while j < len(vg_axis) - 2 and vg > vg_axis[j + 1]:
        j += 1
    i = 0
    while i < len(vd_axis) - 2 and vd > vd_axis[i + 1]:
        i += 1
    tg = (vg - vg_axis[j]) / (vg_axis[j + 1] - vg_axis[j])
    td = (vd - vd_axis[i]) / (vd_axis[i + 1] - vd_axis[i])
    a = grid[i][j] * (1 - tg) + grid[i][j + 1] * tg
    b = grid[i + 1][j] * (1 - tg) + grid[i + 1][j + 1] * tg
    return a * (1 - td) + b * td


def untile(tiled) -> np.ndarray:
    """The signed matrix a ``TiledWeights`` record holds, cell by cell: a
    flipped column stores the complement, padding rows are dropped."""
    n = tiled.stored.shape[1]
    out = np.empty((tiled.rows, tiled.cols), dtype=np.int64)
    for r in range(tiled.rows):
        for c in range(tiled.cols):
            bit = int(tiled.stored[r // n, r % n, c])
            if tiled.column_flip[r // n, c]:
                bit = 1 - bit
            out[r, c] = 2 * bit - 1
    return out


def make_lut_from_model(model, stored_bit: int) -> DeviceLut:
    """Sample a parametric device's gate-on branch for one stored state
    into a LUT with 33 device-axis knots over [0, v_nominal]."""
    vd = np.linspace(0.0, model.v_nominal, 33)
    return DeviceLut(vd, model.currents(stored_bit, 1, vd))


def write_table(path, vg, vd, grid):
    """Write a measured-table CSV, gate axis ``vg`` by device axis ``vd``,
    that ``load_device_lut`` reads back bit for bit; returns ``path``."""
    lines = ["vg," + ",".join(repr(float(g)) for g in vg)]
    lines += [",".join(repr(float(x)) for x in (v, *row)) for v, row in zip(vd, grid)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_lut_csv(path, model, stored_bit: int):
    """Write a measured table of one stored state: gate axis [0, v_nominal],
    the binary wordline swing, and the device axis of
    ``make_lut_from_model``, which ``load_device_lut(path, v_nominal)``
    returns bit for bit."""
    vd = np.linspace(0.0, model.v_nominal, 33)
    grid = np.column_stack([model.currents(stored_bit, gate, vd) for gate in (0, 1)])
    return write_table(path, (0.0, model.v_nominal), vd, grid)


def nodal_reference_linear(g_cells, r_bl, r_sl, r_driver, v_drive, topology="opposite"):
    """Independent linear nodal solve of one column, assembled from scratch.

    Nodes: 0..n-1 bitline, n..2n-1 sense line.  The driver reaches node 0
    through r_driver + r_bl; the sense pad hangs off the last (opposite)
    or first (same) sense node through r_sl at 0 V.
    """
    g_cells = np.asarray(g_cells, dtype=np.float64)
    n = len(g_cells)
    N = 2 * n
    G = np.zeros((N, N))
    rhs = np.zeros(N)

    def stamp(a, b, g):
        G[a, a] += g
        if b is not None:
            G[a, b] -= g
            G[b, a] -= g
            G[b, b] += g

    g_src = 1.0 / (r_driver + r_bl)
    stamp(0, None, g_src)
    rhs[0] += g_src * v_drive
    for k in range(n - 1):
        stamp(k, k + 1, 1.0 / r_bl)
        stamp(n + k, n + k + 1, 1.0 / r_sl)
    sense = n + (n - 1 if topology == "opposite" else 0)
    stamp(sense, None, 1.0 / r_sl)
    for k in range(n):
        stamp(k, n + k, g_cells[k])
    v = np.linalg.solve(G, rhs)
    i_cell = g_cells * (v[:n] - v[n:])
    return float(i_cell.sum()), v[:n], v[n:]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
