"""Measurement harnesses called directly, not through the command line."""

import numpy as np
import pytest

from binsparx.analysis import cost_report, sweep_deviation
from binsparx.devices import DeviceModel, WireModel
from binsparx.engine import Engine, EngineConfig

ZERO_WIRE = WireModel(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("device", [
    DeviceModel(kind="sram8t", i_hrs=0.0, i_off=0.0, curve="linear"),
    DeviceModel.reram1t1r(curve="linear"),
], ids=["sram", "reram-dummy"])
def test_sweep_without_parasitics_has_no_deviation(rng, device):
    # every cell sees the full drive, so x ON cells draw exactly x quanta
    # (the ReRAM dummy cancels the HRS and gate-off terms)
    eng = Engine(EngineConfig(n=16, m=16, device=device, wire=ZERO_WIRE))
    sweep = sweep_deviation(eng, range(17), 5, rng=rng)
    assert sweep.x_values.tolist() == list(range(17))
    assert (sweep.samples == 5).all() and not sweep.nonconverged.any()
    for values in (sweep.mean, sweep.mn, sweep.mx, sweep.mean_abs):
        assert np.abs(values).max() <= 1e-12


@pytest.mark.parametrize("binsparx", [False, True])
def test_cost_report_ragged_matrix(binsparx):
    eng = Engine(EngineConfig(n=64, m=64, binsparx=binsparx))
    rep = cost_report(eng, rows=200, cols=70)
    # 200 rows: tiles of 64, 64, 64, 8 rows; 70 cols: tiles of 64, 6 cols
    row_tiles, col_tiles = 4, 2
    assert rep["array"] == {"n": 64, "m": 64, "rows": 200, "cols": 70,
                            "row_tiles": row_tiles, "col_tiles": col_tiles, "tiles": 8}
    # 64 rows need 6 bits, 5 once BinSparX halves the column sums
    assert rep["adc_bits"] == {"baseline": 6, "binsparx": 5,
                               "in_use": 5 if binsparx else 6}
    per_vmm = {
        "activation_adder_tree_adds": 4 * 63,
        "cross_tile_accumulate_adds": 70 * 3,
        "postprocess_adds": 3 * 4 * 70,
        "comparators": 4 if binsparx else 0,
        "activation_xor_gates": 4 * 64 if binsparx else 0,
        "sum_subtractor_uses": 4 if binsparx else 0,
        "output_negations": 4 * 70 if binsparx else 0,
    }
    assert rep["per_vmm"] == per_vmm
    assert rep["registers"] == {"column_flip_bits_per_tile": 64 if binsparx else 0,
                                "column_flip_bits_total": 8 * 64 if binsparx else 0}
    assert rep["binsparx"] is binsparx
