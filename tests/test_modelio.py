"""Model manifests, dataset readers and the deterministic writers."""

import gzip
import json
import re
import struct

import numpy as np
import pytest

from binsparx import cli, modelio
from binsparx.analysis import DeviationSweep
from binsparx.errors import ParseError


def _idx_bytes(code, dims, payload: bytes) -> bytes:
    return bytes([0, 0, code, len(dims)]) + struct.pack(f">{len(dims)}I", *dims) + payload


class TestModelRoundTrip:
    def test_every_layer_kind(self, tmp_path, rng):
        conv = rng.choice([-1, 1], size=(4, 2, 3, 3))
        fc1 = rng.choice([-1, 1], size=(36, 10))
        fc2 = rng.choice([-1, 1], size=(10, 3))
        thresholds = rng.integers(-50, 50, 10)
        gamma_sign = rng.choice([-1, 1], 10)
        path = modelio.save_model(tmp_path, [
            {"name": "conv1", "kind": "conv", "weights": conv, "stride": 2, "padding": 1,
             "in_shape": (2, 5, 5)},
            {"name": "act1", "kind": "sign"},
            {"name": "fc1", "kind": "dense", "weights": fc1},
            {"name": "bn1", "kind": "threshold", "thresholds": thresholds,
             "gamma_sign": gamma_sign},
            {"name": "fc2", "kind": "dense", "weights": fc2, "full_precision": True},
        ], name="net")
        assert path == tmp_path / "net.json"
        layers = modelio.load_model(path)
        assert [(l.name, l.kind) for l in layers] == [
            ("conv1", "conv"), ("act1", "sign"), ("fc1", "dense"),
            ("bn1", "threshold"), ("fc2", "dense"),
        ]
        c, _, d1, t, d2 = layers
        assert np.array_equal(c.weights.values, conv)
        assert (c.stride, c.padding, c.in_shape) == (2, 1, (2, 5, 5))
        assert np.array_equal(d1.weights.values, fc1) and not d1.full_precision
        assert np.array_equal(d2.weights.values, fc2) and d2.full_precision
        assert np.array_equal(t.thresholds.thresholds, thresholds)
        assert t.thresholds.thresholds.dtype == np.int64
        assert np.array_equal(t.thresholds.gamma_sign, gamma_sign)

    def test_short_blob_rejected(self, tmp_path, rng):
        path = modelio.save_model(tmp_path, [
            {"name": "fc", "kind": "dense", "weights": rng.choice([-1, 1], size=(4, 3))}])
        (tmp_path / "fc.bin").write_bytes(b"\x01" * 11)
        with pytest.raises(ParseError, match="11 elements, expected 12"):
            modelio.load_model(path)


def _set(layer, key, value):
    """A manifest edit: set (or with ``value`` None drop) one layer key."""
    def edit(doc):
        entry = next(e for e in doc["layers"] if e["name"] == layer)
        if value is None:
            entry.pop(key)
        else:
            entry[key] = value
        return doc
    return edit


MALFORMED = {
    "dense-without-shape": (_set("fc", "shape", None), "layer 'fc': 'shape'"),
    "dense-shape-3d": (_set("fc", "shape", [2, 2, 3]), "layer 'fc': 'shape'"),
    "dense-shape-string": (_set("fc", "shape", "4x3"), "layer 'fc': 'shape'"),
    "dense-shape-float": (_set("fc", "shape", [4.0, 3]), "layer 'fc': 'shape'"),
    "full-precision-string": (_set("fc", "full_precision", "no"),
                              "layer 'fc': 'full_precision'"),
    "conv-shape-2d": (_set("conv", "shape", [2, 9]), "layer 'conv': 'shape'"),
    "stride-float": (_set("conv", "stride", 1.5), "layer 'conv': 'stride'"),
    "stride-bool": (_set("conv", "stride", True), "layer 'conv': 'stride'"),
    "padding-string": (_set("conv", "padding", "1"), "layer 'conv': 'padding'"),
    "in-shape-2d": (_set("conv", "in_shape", [1, 3]), "layer 'conv': 'in_shape'"),
    "threshold-without-shape": (_set("bn", "shape", None), "layer 'bn': 'shape'"),
    "name-int": (_set("fc", "name", 5), "layer 'layer1': 'name'"),
    "name-duplicate": (_set("bn", "name", "fc"), "layer 'fc': duplicate layer name"),
    "manifest-list": (lambda doc: [doc], "not a binsparx-model manifest"),
    "layers-string": (lambda doc: {**doc, "layers": "fc"}, "'layers' must be a list"),
    "layer-string": (lambda doc: {**doc, "layers": ["fc"]}, "layer 0 must be an object"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_manifest_is_a_parse_error(tmp_path, rng, capsys, case):
    edit, message = MALFORMED[case]
    path = modelio.save_model(tmp_path, [
        {"name": "conv", "kind": "conv", "weights": rng.choice([-1, 1], size=(2, 1, 3, 3)),
         "in_shape": (1, 3, 3)},
        {"name": "fc", "kind": "dense", "weights": rng.choice([-1, 1], size=(4, 3))},
        {"name": "bn", "kind": "threshold", "thresholds": [0, 1, 2], "gamma_sign": [1, -1, 1]},
    ])
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ParseError, match=re.escape(message)):
        modelio.load_model(path)
    out = tmp_path / "out"
    assert cli.main(["sparsify", "--model", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err
    assert not out.exists()


class TestIdx:
    def test_reads_plain_and_gzipped(self, tmp_path):
        want = np.arange(-3, 3, dtype=">i2").reshape(2, 3)
        blob = _idx_bytes(0x0B, (2, 3), want.tobytes())
        (tmp_path / "a.idx").write_bytes(blob)
        (tmp_path / "a.idx.gz").write_bytes(gzip.compress(blob, mtime=0))
        for name in ("a.idx", "a.idx.gz"):
            got = modelio.load_idx(tmp_path / name)
            assert got.shape == (2, 3) and np.array_equal(got, want)

    @pytest.mark.parametrize("blob, message", [
        (b"\x01\x00\x08\x01" + struct.pack(">I", 2) + b"\x00\x00", "bad IDX magic"),
        (_idx_bytes(0x07, (2,), b"\x00\x00"), "unknown IDX dtype 0x07"),
        (_idx_bytes(0x08, (2, 3), b"\x00" * 5), "payload has 5 elements, header says 6"),
        (bytes.fromhex("000008030000"), "truncated IDX header"),
    ], ids=["magic", "dtype", "size", "truncated"])
    def test_errors_name_the_file(self, tmp_path, blob, message):
        path = tmp_path / "bad.idx"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=message) as exc:
            modelio.load_idx(path)
        assert str(path) in str(exc.value)

    def test_truncated_header_exits_3(self, tmp_path, rng, capsys):
        model = modelio.save_model(tmp_path / "model", [
            {"name": "fc", "kind": "dense", "weights": rng.choice([-1, 1], size=(4, 3))}])
        data = tmp_path / "feats.idx"
        data.write_bytes(bytes.fromhex("000008030000"))
        argv = ["infer", "--model", str(model), "--dataset", str(data),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert "truncated IDX header" in capsys.readouterr().err


class TestCsv:
    @pytest.mark.parametrize("text, message", [
        ("0,1,2\n# note\n1,3\n", "line 3: ragged row"),
        ("", "empty dataset"),
        ("0,1,2\n1,x,4\n", "line 2: could not convert"),
        ("0,1,2\n7\n", "line 2: need label plus features"),
    ], ids=["ragged", "empty", "non-numeric", "no-features"])
    def test_errors(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            modelio.load_csv_dataset(path)

    def test_labels_and_features(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# header comment\n3,0.5,-1\n\n1,2,7.25\n")
        ds = modelio.load_dataset(path)
        assert ds.labels.tolist() == [3, 1]
        assert ds.features.tolist() == [[0.5, -1.0], [2.0, 7.25]]


class TestWriters:
    ECHO = {"command": "test", "config": {"b": 1, "a": [1.5, "x"]}}

    def _sweep(self):
        return DeviationSweep(
            x_values=np.array([0, 1]), samples=np.array([3, 2]),
            mean=np.array([0.0, 0.1]), mn=np.array([-0.5, 0.0]),
            mx=np.array([0.5, 0.3]), mean_abs=np.array([0.25, 1 / 3]),
            nonconverged=np.array([0, 1]),
        )

    def test_identical_input_identical_bytes(self, tmp_path):
        # key order of the input does not reach the file
        obj = {"z": 1, "a": {"y": [1, 2], "b": 0.1}}
        reordered = {"a": {"b": 0.1, "y": [1, 2]}, "z": 1}
        writes = [
            lambda p, o: modelio.write_json(p, o),
            lambda p, o: modelio.write_predictions_csv(p, np.array([2, 0, 1]),
                                                       np.array([2, 1, 1]), o),
            lambda p, o: modelio.write_sweep_csv(p, self._sweep(), o),
            lambda p, o: modelio.write_histogram_csv(p, np.array([4, 0, 9]), o),
        ]
        for i, write in enumerate(writes):
            a = write(tmp_path / "a" / f"{i}.out", obj)
            b = write(tmp_path / "b" / f"{i}.out", reordered)
            assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        p = modelio.write_sweep_csv(tmp_path / "s.csv", self._sweep(), self.ECHO)
        lines = p.read_text().splitlines()
        assert lines[0] == '# config {"command": "test", "config": {"a": [1.5, "x"], "b": 1}}'
        assert lines[1] == "x,mean,min,max,mean_abs,samples,nonconverged"
        assert lines[3] == f"1,0.1,0.0,0.3,{1 / 3!r},2,1"
        p = modelio.write_predictions_csv(tmp_path / "p.csv", [1, 0], None, self.ECHO)
        assert p.read_text().splitlines()[1:] == ["index,label,prediction", "0,,1", "1,,0"]
