"""Golden runs of the ``binsparx`` command line on a model built here.

Every layer is ragged against the 8 x 8 tiles used below: the conv kernel
flattens to a 9 x 3 matrix, the dense layers are 147 x 20 and 20 x 4.
"""

import json

import numpy as np
import pytest

from binsparx import analysis, cli, modelio

from binsparx.devices import DeviceModel

from conftest import software_bnn_forward, write_lut_csv

N = M = 8
TILES = ["--set", f"array.n={N}", "--set", f"array.m={M}"]
IN_SHAPE = (1, 7, 7)


@pytest.fixture
def model(tmp_path, rng):
    conv = rng.choice([-1, 1], size=(3, 1, 3, 3))
    fc1 = rng.choice([-1, 1], size=(3 * 7 * 7, 20))
    thresholds = rng.integers(-6, 7, 20)
    gamma_sign = rng.choice([-1, 1], 20)
    fc2 = rng.choice([-1, 1], size=(20, 4))
    path = modelio.save_model(tmp_path / "model", [
        {"name": "conv1", "kind": "conv", "weights": conv, "stride": 1, "padding": 1,
         "in_shape": IN_SHAPE},
        {"name": "act1", "kind": "sign"},
        {"name": "fc1", "kind": "dense", "weights": fc1},
        {"name": "bn1", "kind": "threshold", "thresholds": thresholds,
         "gamma_sign": gamma_sign},
        {"name": "fc2", "kind": "dense", "weights": fc2},
    ])
    # the (inputs, outputs) matrix each weighted layer puts on the array
    matrices = {"conv1": conv.reshape(3, -1).T, "fc1": fc1, "fc2": fc2}
    forward = [("conv", conv, 1, 1, IN_SHAPE), ("sign",), ("dense", fc1),
               ("threshold", thresholds, gamma_sign), ("dense", fc2)]
    return path, matrices, forward


def _oracle_tile(w2d, r0, c0):
    """Stored cells and flip bits of the tile at (r0, c0), column by column:
    store the complement when the signed sum over the tile's rows is >= 0."""
    stored = np.zeros((N, M), dtype=np.int8)
    flips = np.zeros(M, dtype=np.uint8)
    rows = range(r0, min(r0 + N, w2d.shape[0]))
    for j in range(min(M, w2d.shape[1] - c0)):
        col = [int(w2d[r, c0 + j]) for r in rows]
        flips[j] = sum(col) >= 0
        for k, v in enumerate(col):
            stored[k, j] = (v < 0) if flips[j] else (v > 0)
    return stored, flips


def test_sparsify_mapping_matches_oracle(tmp_path, model):
    path, matrices, _ = model
    out = tmp_path / "out"
    assert cli.main(["sparsify", "--model", str(path), "--out", str(out), *TILES]) == 0
    doc = json.loads((out / "sparsify_map.json").read_text())
    report = json.loads((out / "sparsify_report.json").read_text())
    report = {entry["name"]: entry for entry in report["layers"]}
    assert [layer["name"] for layer in doc["layers"]] == ["conv1", "fc1", "fc2"]
    expected_files = set()
    for layer in doc["layers"]:
        w2d = matrices[layer["name"]]
        rows, cols = w2d.shape
        assert (layer["rows"], layer["cols"]) == (rows, cols)
        starts = [(r0, c0) for r0 in range(0, rows, N) for c0 in range(0, cols, M)]
        assert [(t["row_start"], t["col_start"]) for t in layer["tiles"]] == starts
        flipped = 0
        for tile in layer["tiles"]:
            r0, c0 = tile["row_start"], tile["col_start"]
            stored, flips = _oracle_tile(w2d, r0, c0)
            ml = min(M, cols - c0)
            assert tile["n_logical"] == min(N, rows - r0)
            assert tile["m_logical"] == ml
            assert (out / tile["file"]).read_bytes() == stored.tobytes()
            assert (out / tile["flip_file"]).read_bytes() == flips.tobytes()
            assert tile["sum_wprime"] == stored.sum(axis=0)[:ml].tolist()
            expected_files |= {tile["file"], tile["flip_file"]}
            flipped += int(flips.sum())
        assert report[layer["name"]]["columns_flipped"] == flipped
        assert report[layer["name"]]["columns"] == cols * len(range(0, rows, N))
    written = {f"mapping/{p.name}" for p in (out / "mapping").iterdir()}
    assert written == expected_files


@pytest.mark.parametrize("binsparx", ["on", "off"])
def test_ideal_infer_matches_software_forward(tmp_path, rng, model, binsparx):
    path, _, forward = model
    X = rng.choice([-1, 1], size=(24, int(np.prod(IN_SHAPE))))
    labels = np.argmax(software_bnn_forward(X, forward), axis=1)
    data = tmp_path / "data.csv"
    data.write_text("".join(
        f"{lab}," + ",".join(f"{v:.1f}" for v in row) + "\n" for lab, row in zip(labels, X)
    ))
    out = tmp_path / "out"
    argv = ["infer", "--model", str(path), "--dataset", str(data), "--out", str(out),
            "--ideal", "--binsparx", binsparx, "--set", "adc.bits=full", *TILES]
    assert cli.main(argv) == 0
    lines = [ln for ln in (out / "predictions.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "index,label,prediction"
    rows = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    assert rows == [(i, int(lab), int(lab)) for i, lab in enumerate(labels)]
    stats = json.loads((out / "infer_stats.json").read_text())
    assert stats["inputs"] == len(X)
    assert stats["accuracy"] == 1.0


def test_exit_codes(tmp_path, model):
    path = model[0]
    out = str(tmp_path / "out")
    assert cli.main(["sparsify", "--model", str(tmp_path / "missing.json"), "--out", out]) == 3
    assert cli.main(["infer", "--model", str(path), "--dataset", str(tmp_path / "missing.csv"),
                     "--out", out]) == 3
    assert not (tmp_path / "out").exists()
    assert cli.main(["sparsify", "--model", str(path), "--out", out,
                     "--set", "run.no_such_key=1"]) == 2


@pytest.mark.parametrize("probe", [
    "adc.quantum=full", "device.v_knee=full", "device.i_hrs=full", "wire.r_bl_per_cell=full",
    "adc.quantum=true", "wire.r_bl_per_cell=true", "device.v_nominal=nan", "wire.r_driver=nan",
    "dummy.enabled=1.0", "array.n=0", "array.m=0", "adc.bits=0", "adc.bits=-3",
    "run.trials=0", "run.seed=-1",
])
def test_bad_values_exit_2_before_any_work(tmp_path, capsys, probe):
    # the custom wire makes the r_*_per_cell keys live
    target = probe.split("=", 1)[0]
    section, key = target.split(".")
    out = tmp_path / "out"
    custom = ["--set", "wire.preset=custom", "--set", "wire.r_bl_per_cell=25",
              "--set", "wire.r_sl_per_cell=25"]
    argv = ["sweep", "--out", str(out), "--set", "run.trials=2", *TILES, *custom,
            "--set", probe]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_validate_solver_without_trials_exits_2(tmp_path, capsys, trials):
    out = tmp_path / "out"
    assert cli.main(["validate-solver", "--trials", trials, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "trials" in err and "Traceback" not in err
    assert not out.exists()


def test_one_bit_adc_runs(tmp_path):
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--set", "run.trials=2", *TILES, "--set", "adc.bits=1"]
    assert cli.main(argv) == 0
    assert len(_csv_rows(out / "sweep.csv")) == N + 1


def _dataset(tmp_path, rng, count):
    """A CSV dataset of ``count`` random +-1 inputs, all labeled 0."""
    X = rng.choice([-1, 1], size=(count, int(np.prod(IN_SHAPE))))
    data = tmp_path / "data.csv"
    data.write_text("".join("0," + ",".join(f"{v:.1f}" for v in row) + "\n" for row in X))
    return data


BAD_SOLVER = ["solver.tol=0", "solver.tol=-1e-6", "solver.max_iter=0", "solver.max_iter=-3"]


@pytest.mark.parametrize("bad", BAD_SOLVER)
@pytest.mark.parametrize("ideal", [False, True], ids=["electrical", "ideal"])
def test_bad_solver_values_are_config_errors_for_infer(tmp_path, rng, model, bad, ideal):
    out = tmp_path / "out"
    argv = ["infer", "--model", str(model[0]), "--dataset", str(_dataset(tmp_path, rng, 2)),
            "--out", str(out), "--set", bad, *TILES, *(["--ideal"] if ideal else [])]
    assert cli.main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad", BAD_SOLVER)
@pytest.mark.parametrize("best_effort", [False, True], ids=["strict", "best-effort"])
def test_bad_solver_values_are_config_errors_for_sweep(tmp_path, bad, best_effort):
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--set", "run.trials=2", "--set", bad, *TILES,
            *(["--best-effort"] if best_effort else [])]
    assert cli.main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_solver_topology_is_an_unknown_key(tmp_path, capsys, where):
    # the sense pad always sits at the far end from the driver
    out = tmp_path / "out"
    if where == "flag":
        source, want = ["--set", "solver.topology=opposite"], "unknown config key solver.topology"
    else:
        ini = tmp_path / "run.ini"
        ini.write_text("[solver]\ntopology = opposite\n")
        source, want = ["--config", str(ini)], "unknown key [solver] topology"
    argv = ["sweep", "--out", str(out), "--set", "run.trials=2", *TILES, *source]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and want in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "sparsify"])
def test_engine_config_is_built_before_the_output_dir(tmp_path, rng, model, command):
    # solver.tol=0 parses as a float and is refused by EngineConfig itself
    out = tmp_path / "out"
    dataset = ["--dataset", str(_dataset(tmp_path, rng, 2))] if command == "profile" else []
    argv = [command, "--model", str(model[0]), *dataset, "--out", str(out),
            "--set", "solver.tol=0", *TILES]
    assert cli.main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["sram8t", "reram1t1r"])
def test_infer_with_both_luts(tmp_path, rng, model, kind):
    factory = DeviceModel.sram8t if kind == "sram8t" else DeviceModel.reram1t1r
    luts = [write_lut_csv(tmp_path / f"lut{bit}.csv", factory(), bit) for bit in (1, 0)]
    out = tmp_path / "out"
    argv = ["infer", "--model", str(model[0]), "--dataset", str(_dataset(tmp_path, rng, 4)),
            "--out", str(out), *TILES, "--set", f"device.kind={kind}",
            "--set", f"device.lut_stored1={luts[0]}", "--set", f"device.lut_stored0={luts[1]}"]
    assert cli.main(argv) == 0
    stats = json.loads((out / "infer_stats.json").read_text())
    assert stats["inputs"] == 4
    assert stats["config"]["device"]["lut_stored1"] == str(luts[0])
    assert stats["stats"]["nonconverged_columns"] == 0


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_sweep_rows_cover_every_count(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), "--set", "run.trials=3", *TILES]) == 0
    rows = _csv_rows(out / "sweep.csv")
    assert [int(r["x"]) for r in rows] == list(range(N + 1))
    assert all(int(r["samples"]) + int(r["nonconverged"]) == 3 for r in rows)


def test_sweep_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--set", "run.trials=2", *TILES,
            "--set", "wire.preset=custom", "--set", "wire.r_bl_per_cell=1e5",
            "--set", "wire.r_sl_per_cell=1e5", "--set", "wire.r_driver=1e6",
            "--set", "wire.r_sink=0", "--set", "solver.max_iter=1"]
    assert cli.main(argv) == 5


def test_profile_writes_histograms(tmp_path, rng, model):
    data = _dataset(tmp_path, rng, 6)
    out = tmp_path / "out"
    argv = ["profile", "--model", str(model[0]), "--dataset", str(data), "--out", str(out), *TILES]
    assert cli.main(argv) == 0
    for name in ("profile_baseline.csv", "profile_binsparx.csv"):
        rows = _csv_rows(out / name)
        assert [int(r["bin"]) for r in rows] == list(range(N + 1))
        assert sum(int(r["count"]) for r in rows) > 0
    summary = json.loads((out / "profile_summary.json").read_text())
    assert summary["reduction"] >= 0


def _hand_counts(acts, w, flips):
    """Histogram 0..N of the ideal AND count of every (row tile, column,
    input) of one layer, counted cell by cell.  With ``flips`` a column is
    stored complemented when its signed sum over the tile is >= 0, and an
    activation sub-vector is applied complemented when more than half of
    its entries are +1."""
    hist = [0] * (N + 1)
    rows, cols = w.shape
    for a in acts:
        for r0 in range(0, rows, N):
            tile = range(r0, min(r0 + N, rows))
            a_flip = flips and 2 * sum(a[k] > 0 for k in tile) > len(tile)
            for c in range(cols):
                w_flip = flips and sum(int(w[k, c]) for k in tile) >= 0
                count = sum(((a[k] > 0) != a_flip) and ((w[k, c] > 0) != w_flip)
                            for k in tile)
                hist[count] += 1
    return hist


def test_profile_equals_a_hand_count(tmp_path, rng):
    # two ragged dense layers on 8-row tiles: 13 = 8 + 5 rows, 11 = 8 + 3
    fc1 = rng.choice([-1, 1], size=(13, 11))
    fc2 = rng.choice([-1, 1], size=(11, 5))
    path = modelio.save_model(tmp_path / "model", [
        {"name": "fc1", "kind": "dense", "weights": fc1},
        {"name": "act1", "kind": "sign"},
        {"name": "fc2", "kind": "dense", "weights": fc2},
    ])
    X = rng.choice([-1, 1], size=(6, 13))
    data = tmp_path / "data.csv"
    data.write_text("".join("0," + ",".join(f"{v:.1f}" for v in row) + "\n" for row in X))
    out = tmp_path / "out"
    argv = ["profile", "--model", str(path), "--dataset", str(data), "--out", str(out), *TILES]
    assert cli.main(argv) == 0
    hidden = np.where(X @ fc1 >= 0, 1, -1)  # ideal and exact in both modes
    means = {}
    for name, flips in (("baseline", False), ("binsparx", True)):
        want = [a + b for a, b in zip(_hand_counts(X, fc1, flips), _hand_counts(hidden, fc2, flips))]
        rows = _csv_rows(out / f"profile_{name}.csv")
        assert [(int(r["bin"]), int(r["count"])) for r in rows] == list(enumerate(want))
        means[name] = sum(k * c for k, c in enumerate(want)) / sum(want)
    summary = json.loads((out / "profile_summary.json").read_text())
    assert summary["samples"] == 6 * (2 * 11 + 2 * 5)
    assert summary["baseline_mean"] == means["baseline"]
    assert summary["binsparx_mean"] == means["binsparx"]
    assert summary["reduction"] == 1.0 - means["binsparx"] / means["baseline"]


def test_profile_of_a_zero_mean_baseline_exits_4(tmp_path, rng, capsys):
    # all -1 weights store no 1 at all: every AND count is 0
    path = modelio.save_model(tmp_path / "model", [
        {"name": "fc1", "kind": "dense", "weights": -np.ones((49, 4), dtype=np.int8)}])
    out = tmp_path / "out"
    argv = ["profile", "--model", str(path), "--dataset", str(_dataset(tmp_path, rng, 3)),
            "--out", str(out), *TILES]
    assert cli.main(argv) == 4
    assert "baseline histogram has zero mean" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, bits", [(8, [3, 2]), (6, [None, None])])
def test_sparsify_report_adc_bits(tmp_path, model, n, bits):
    # a power-of-two n needs log2(n) bits, one fewer with BinSparX; any
    # other n has no reduced ADC width
    out = tmp_path / "out"
    argv = ["sparsify", "--model", str(model[0]), "--out", str(out),
            "--set", f"array.n={n}", "--set", f"array.m={M}"]
    assert cli.main(argv) == 0
    report = json.loads((out / "sparsify_report.json").read_text())
    assert [[e["adc_bits_before"], e["adc_bits_after"]] for e in report["layers"]] == [bits] * 3


@pytest.mark.parametrize("off", [["--binsparx", "off"], ["--set", "binsparx.enabled=false"]],
                         ids=["flag", "key"])
def test_sparsify_refuses_binsparx_off(tmp_path, model, capsys, off):
    # sparsify always flips columns: with BinSparX off its report would
    # echo enabled=false over flipped columns
    out = tmp_path / "out"
    argv = ["sparsify", "--model", str(model[0]), "--out", str(out), *TILES, *off]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "binsparx.enabled" in err
    assert not out.exists()


@pytest.mark.parametrize("ideal", [["--ideal"], ["--set", "run.nonidealities=false"]],
                         ids=["flag", "key"])
def test_sweep_refuses_the_ideal_path(tmp_path, capsys, ideal):
    # the sweep measures the electrical solve; with it off every row would
    # repeat the electrical sweep's numbers under an ideal config echo
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--set", "run.trials=2", *TILES, *ideal]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "nonidealities" in err
    assert not out.exists()


def test_validate_solver_takes_its_own_trials(tmp_path):
    # the suite fixes its own tolerance and presets: [solver] and [wire]
    # values are only echoed in the config, and the report's settings say
    # what ran
    out = tmp_path / "out"
    argv = ["validate-solver", "--trials", "2", "--out", str(out), "--seed", "5",
            "--set", "solver.tol=1e-3", "--set", "wire.preset=M6"]
    assert cli.main(argv) == 0
    doc = json.loads((out / "validate_report.json").read_text())
    corners = doc["report"]["corners"]
    assert len(corners) == 6 and all(c["trials"] == 2 for c in corners)
    assert doc["report"]["passed"]
    assert "method" not in doc["config"]["solver"]
    settings = doc["report"]["settings"]
    assert settings["solver_tol"] == 1e-9 and doc["config"]["solver"]["tol"] == 1e-3
    assert settings["presets"] == ["M3", "M4", "M6"]
    assert settings["on_currents"] == [1e-6, 2e-6]
    assert (settings["trials"], settings["seed"], settings["budget"]) == (2, 5, 0.005)
    assert (settings["n"], settings["device_kind"], settings["v_nominal"]) == (64, "sram8t", 0.7)


def test_validation_failure_exit_code(tmp_path, monkeypatch):
    # a report over budget exits 4 and is still written
    report = {
        "corners": [{"preset": "M3", "i_on": 1e-6, "max_rel_error": 0.02,
                     "mean_rel_error": 0.01, "trials": 2}],
        "max_rel_error": 0.02, "budget": 0.005,
        "zero_parasitic_rel_error": 0.0, "linear_closed_form_rel_error": 0.0,
        "passed": False,
    }
    monkeypatch.setattr(analysis, "solver_validation_suite", lambda **kw: report)
    out = tmp_path / "out"
    assert cli.main(["validate-solver", "--trials", "2", "--out", str(out)]) == 4
    doc = json.loads((out / "validate_report.json").read_text())
    assert doc["report"] == report
