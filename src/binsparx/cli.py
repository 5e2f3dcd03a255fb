"""Command-line front end.

Subcommands:

    validate-solver   fast-vs-dense cross-check against the 0.5% budget
    profile           ideal partial-sum histograms, sparsification on/off
    sweep             deviation vs ON-count sweep (CSV)
    infer             run a model on a dataset, emit predictions + stats
    sparsify          offline static weight sparsification of a model

Exit codes: 0 success, 2 config error, 3 I/O or parse error, 4 validation
failure, 5 non-convergence.  Flags override config-file values which
override defaults; every artifact embeds the fully resolved config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, modelio
from .config import build_engine_config, describe_defaults, load_run_config
from .devices import WIRE_PRESETS
from .engine import Engine
from .errors import (
    BinsparxError,
    ConfigError,
    DomainError,
    NonConvergenceError,
    ParseError,
    ValidationError,
)
from .sparsify import adc_bits_required

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsparx",
        description="Crossbar compute-in-memory BNN simulator with static/dynamic sparsification.",
    )
    parser.add_argument("--help-config", action="store_true",
                        help="print the config schema with defaults and exit")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override one config value (repeatable)")
    common.add_argument("--seed", type=int, help="shortcut for run.seed")
    common.add_argument("--out", help="shortcut for run.output_dir")
    common.add_argument("--binsparx", choices=["on", "off"],
                        help="shortcut for binsparx.enabled")
    common.add_argument("--ideal", action="store_true",
                        help="shortcut for run.nonidealities=false")
    common.add_argument("--preset", choices=list(WIRE_PRESETS),
                        help="shortcut for wire.preset")
    common.add_argument("--ion", type=float, help="shortcut for device.i_on (A)")
    common.add_argument("--best-effort", action="store_true",
                        help="shortcut for run.best_effort=true")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate-solver", parents=[common],
                       help="compare fast and dense solvers on random columns")
    p.add_argument("--trials", type=int, default=1000,
                   help="random problems per wire/current corner (default 1000)")

    p = sub.add_parser("profile", parents=[common],
                       help="ideal partial-sum histograms, sparsification on and off")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", help="IDX label file (CSV datasets embed labels)")

    p = sub.add_parser("sweep", parents=[common],
                       help="deviation vs ON-count sweep over x = 0..n")

    p = sub.add_parser("infer", parents=[common],
                       help="run a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", help="IDX label file (CSV datasets embed labels)")

    p = sub.add_parser("sparsify", parents=[common],
                       help="statically sparsify a model's weight columns offline")
    p.add_argument("--model", required=True)

    return parser


def _resolve_config(args) -> dict:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"run.output_dir={args.out}")
    if args.binsparx is not None:
        overrides.append(f"binsparx.enabled={'true' if args.binsparx == 'on' else 'false'}")
    if args.ideal:
        overrides.append("run.nonidealities=false")
    if args.preset is not None:
        overrides.append(f"wire.preset={args.preset}")
    if args.ion is not None:
        overrides.append(f"device.i_on={args.ion}")
    if getattr(args, "best_effort", False):
        overrides.append("run.best_effort=true")
    return load_run_config(args.config, overrides)


def _echo(cfg: dict, command: str) -> dict:
    return {"command": command, "config": cfg}


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["run"]["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args) -> modelio.Dataset:
    return modelio.load_dataset(args.dataset, getattr(args, "labels", None))


def cmd_validate_solver(args) -> int:
    cfg = _resolve_config(args)
    report = analysis.solver_validation_suite(
        trials=args.trials,
        seed=cfg["run"]["seed"],
        n=cfg["array"]["n"],
        device_kind=cfg["device"]["kind"],
        v_nominal=cfg["device"]["v_nominal"],
    )
    for corner in report["corners"]:
        print(
            f"{corner['preset']} @ {corner['i_on']:.1e} A: "
            f"max {corner['max_rel_error']:.3e}  mean {corner['mean_rel_error']:.3e} "
            f"({corner['trials']} problems)"
        )
    print(f"zero-parasitic rel error: {report['zero_parasitic_rel_error']:.3e}")
    print(f"linear closed-form rel error: {report['linear_closed_form_rel_error']:.3e}")
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"overall max {report['max_rel_error']:.3e} vs budget {report['budget']:.3e}: {verdict}")
    modelio.write_json(_outdir(cfg) / "validate_report.json",
                       {**_echo(cfg, "validate-solver"), "report": report})
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def cmd_profile(args) -> int:
    cfg = _resolve_config(args)
    ideal = replace(build_engine_config(cfg), nonidealities=False, adc_bits="full")
    engines = [Engine(replace(ideal, binsparx=b)) for b in (False, True)]
    layers = modelio.load_model(args.model)
    ds = _load_dataset(args)
    thr = cfg["run"]["binarize_threshold"]
    feats = np.where(ds.features > thr, 1.0, -1.0)
    off, on = (engine.infer(layers, feats).stats for engine in engines)
    off_mean, on_mean = off.mean_ideal_sum(), on.mean_ideal_sum()
    if off_mean == 0:
        raise DomainError("baseline histogram has zero mean")
    reduction = 1.0 - on_mean / off_mean
    hist_off, hist_on = off.histogram(), on.histogram()
    samples = int(hist_off.sum())
    out = _outdir(cfg)
    echo = _echo(cfg, "profile")
    modelio.write_histogram_csv(out / "profile_baseline.csv", hist_off, echo)
    modelio.write_histogram_csv(out / "profile_binsparx.csv", hist_on, echo)
    modelio.write_json(
        out / "profile_summary.json",
        {
            **echo,
            "baseline_mean": off_mean,
            "binsparx_mean": on_mean,
            "reduction": reduction,
            "samples": samples,
        },
    )
    print(f"baseline mean {off_mean:.4f}  sparsified mean {on_mean:.4f}  "
          f"reduction {100 * reduction:.2f}%  ({samples} column samples)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    engine = Engine(build_engine_config(cfg))
    rng = np.random.default_rng(cfg["run"]["seed"])
    xs = range(0, cfg["array"]["n"] + 1)
    sweep = analysis.sweep_deviation(engine, xs, cfg["run"]["trials"], rng=rng)
    out = _outdir(cfg)
    modelio.write_sweep_csv(out / "sweep.csv", sweep, _echo(cfg, "sweep"))
    total_bad = int(sweep.nonconverged.sum())
    print(f"sweep written to {out / 'sweep.csv'} "
          f"({int(sweep.samples.sum())} samples, {total_bad} non-convergent)")
    if total_bad and not cfg["run"]["best_effort"]:
        raise NonConvergenceError(f"{total_bad} column(s) did not converge")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _resolve_config(args)
    engine = Engine(build_engine_config(cfg))
    layers = modelio.load_model(args.model)
    ds = _load_dataset(args)
    out = _outdir(cfg)
    result = engine.infer(
        layers, ds.features, ds.labels,
        binarize_threshold=cfg["run"]["binarize_threshold"],
    )
    echo = _echo(cfg, "infer")
    modelio.write_predictions_csv(out / "predictions.csv", result.predictions, ds.labels, echo)
    modelio.write_json(
        out / "infer_stats.json",
        {**echo, "accuracy": result.accuracy, "inputs": int(len(result.predictions)),
         "stats": result.stats.to_dict()},
    )
    if result.accuracy is not None:
        print(f"accuracy: {result.accuracy:.4f} over {len(result.predictions)} inputs")
    else:
        print(f"predictions written for {len(result.predictions)} inputs")
    return EXIT_OK


def cmd_sparsify(args) -> int:
    cfg = _resolve_config(args)
    if not cfg["binsparx"]["enabled"]:
        raise ConfigError("sparsify flips weight columns, so it needs binsparx.enabled=true")
    engine = Engine(replace(
        build_engine_config(cfg), binsparx=True, nonidealities=False, adc_bits="full"
    ))
    layers = modelio.load_model(args.model)
    out = _outdir(cfg)
    rng = np.random.default_rng(cfg["run"]["seed"])
    n, m = cfg["array"]["n"], cfg["array"]["m"]
    matrices = [(layer.name, layer.matrix()) for layer in layers
                if layer.kind in ("dense", "conv")]
    prepared = [engine.prepare(w2d) for _, w2d in matrices]

    # exactness probe before anything is written
    for (name, w2d), tiles in zip(matrices, prepared):
        probes = rng.choice([-1, 1], size=(8, w2d.shape[0])).astype(np.int8)
        got = engine.vmm_batch(tiles, probes)
        want = probes.astype(np.int64) @ w2d.astype(np.int64)
        if not np.array_equal(got, want):
            raise ValidationError(
                f"sparsified mapping of layer {name!r} failed the exactness probe"
            )

    try:
        bits_before, bits_after = (adc_bits_required(n, on) for on in (False, True))
    except ConfigError:  # n is not a power of two
        bits_before = bits_after = None
    map_dir = out / "mapping"
    map_dir.mkdir(parents=True, exist_ok=True)
    report_layers = []
    map_layers = []
    for (name, _), tiles in zip(matrices, prepared):
        rows, cols = tiles.rows, tiles.cols
        n_logical = tiles.n_logical
        flips, ones_after = tiles.column_flip, tiles.sum_wprime
        # each m-column array of a row tile is cut out, the last zero-padded
        pad = -cols % m
        cells = np.pad(tiles.stored, ((0, 0), (0, 0), (0, pad))).astype("<i1")
        flip_bits = np.pad(flips, ((0, 0), (0, pad))).astype("<u1")
        tile_entries = []
        for r in range(len(n_logical)):
            for c in range(0, cols, m):
                stem = f"{name}__r{r * n}_c{c}"
                (map_dir / f"{stem}.bin").write_bytes(cells[r, :, c : c + m].tobytes())
                (map_dir / f"{stem}_flip.bin").write_bytes(flip_bits[r, c : c + m].tobytes())
                tile_entries.append(
                    {
                        "row_start": r * n,
                        "col_start": c,
                        "n_logical": int(n_logical[r]),
                        "m_logical": min(m, cols - c),
                        "file": f"mapping/{stem}.bin",
                        "flip_file": f"mapping/{stem}_flip.bin",
                        "sum_wprime": ones_after[r, c : c + m].tolist(),
                    }
                )
        ones_before = np.where(flips, n_logical[:, None] - ones_after, ones_after)
        total_cols = flips.size
        flipped = int(flips.sum())
        report_layers.append(
            {
                "name": name,
                "columns": total_cols,
                "columns_flipped": flipped,
                "flip_fraction": flipped / total_cols,
                "mean_column_ones_before": float(ones_before.mean()),
                "mean_column_ones_after": float(ones_after.mean()),
                "adc_bits_before": bits_before,
                "adc_bits_after": bits_after,
            }
        )
        map_layers.append(
            {"name": name, "rows": rows, "cols": cols,
             "n": n, "m": m, "tiles": tile_entries}
        )

    echo = _echo(cfg, "sparsify")
    modelio.write_json(out / "sparsify_map.json", {**echo, "layers": map_layers})
    modelio.write_json(out / "sparsify_report.json", {**echo, "layers": report_layers})
    for entry in report_layers:
        print(
            f"{entry['name']}: {entry['columns_flipped']}/{entry['columns']} columns flipped, "
            f"mean ones {entry['mean_column_ones_before']:.2f} -> "
            f"{entry['mean_column_ones_after']:.2f}"
        )
    return EXIT_OK


_COMMANDS = {
    "validate-solver": cmd_validate_solver,
    "profile": cmd_profile,
    "sweep": cmd_sweep,
    "infer": cmd_infer,
    "sparsify": cmd_sparsify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "help_config", False):
        print(describe_defaults())
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except BinsparxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
