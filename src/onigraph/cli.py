"""Command-line entry points.

Subcommands: synth-data, train, evaluate, predict, centrality, gradcheck,
ablation. A JSON config file (keys: model, train, structure, data) sets
anything the flags do not; flags win on conflict. Exit codes: 0 success,
1 usage error, 2 data or format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as dat
from .autodiff import Tensor, grad_check, mse_loss
from .centrality import eigenvector_centrality
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    UsageError,
)
from .exports import export_centrality_heatmap, export_forecast_timeseries
from .model import GcnConfig, PRESETS, forward_batch, init_params, model_adjacency, model_edges
from .training import (
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    model_config_from_preset,
    predict_samples,
    save_checkpoint,
    train,
    write_history_csv,
    write_predictions_csv,
    write_report_csv,
)

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="onigraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, data=False, checkpoint=False, out=None):
        p.add_argument("--config", help="JSON config file (keys: model, train, structure, data)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--lead", type=int, help="forecast lead in months")
        if data:
            p.add_argument("--data", required=True, help="grid container directory")
        if checkpoint:
            p.add_argument(
                "--checkpoint", action="append", required=True, help="model checkpoint file"
            )
        if out is not None:
            p.add_argument("--out", default=out, help=f"output path (default: {out})")

    p = sub.add_parser("synth-data", help="generate a synthetic teleconnection dataset")
    common(p, out="synth")
    p.add_argument("--lat", type=int, default=8, help="grid rows")
    p.add_argument("--lon", type=int, default=8, help="grid columns")
    p.add_argument("--months", type=int, default=120, help="timeseries length")
    p.add_argument("--noise", type=float, default=0.1, help="signal-cell noise sd")
    p.add_argument("--background", type=float, default=None, help="background-cell sd")

    p = sub.add_parser("train", help="train one model and write a checkpoint")
    common(p, data=True, out="model.ckpt")
    p.add_argument("--preset", default=None, choices=sorted(PRESETS), help="ensemble member preset")
    p.add_argument("--edges", default="learned", choices=("learned", "local"))

    p = sub.add_parser("evaluate", help="correlation skill and RMSE of a model or ensemble")
    common(p, data=True, checkpoint=True, out=None)
    p.add_argument("--out", default=None, help="basename for report and prediction CSVs")
    p.add_argument("--split", default="test", choices=("train", "test", "all"))

    p = sub.add_parser("predict", help="per-sample forecasts of a model or ensemble")
    common(p, data=True, checkpoint=True, out="predictions.csv")
    p.add_argument("--split", default="test", choices=("train", "test", "all"))

    p = sub.add_parser("centrality", help="eigenvector centrality heatmap of the adjacency")
    common(p, checkpoint=True, out="centrality")

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    common(p)

    p = sub.add_parser("ablation", help="learned vs fixed local connectivity comparison")
    common(p, data=True, out=None)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")
    p.add_argument("--out", default=None, help="optional CSV for the result table")
    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
    unknown = set(config) - {"model", "train", "structure", "data"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return config


def _resolve_configs(args, config: dict) -> tuple[GcnConfig, TrainConfig, dict]:
    """Merge defaults, preset, config file and flags into the three configs."""
    train_kw = dict(config.get("train", {}))
    for key in ("embed_dim", "feature_gain", "score_gain", "max_edges"):
        if key in config.get("structure", {}):
            train_kw[key] = config["structure"][key]
    preset = getattr(args, "preset", None) or train_kw.pop("preset", None) or "gcn2a"
    if args.seed is not None:
        train_kw["seed"] = args.seed
    if args.lead is not None:
        train_kw["lead_months"] = args.lead
    train_kw.setdefault("lead_months", 1)
    try:
        train_cfg = TrainConfig(preset=preset, **train_kw)
    except TypeError as exc:
        raise ConfigError(f"bad train config: {exc}") from None

    model_kw = dict(config.get("model", {}))
    model_kw.setdefault("window", train_cfg.window)
    model_kw["lead_months"] = train_cfg.lead_months
    try:
        if "layer_dims" in model_kw or "pooling" in model_kw:
            base = model_config_from_preset(
                preset,
                window=model_kw.pop("window"),
                lead_months=model_kw.pop("lead_months"),
                layer_dims=model_kw.pop("layer_dims", None),
            )
            model_cfg = GcnConfig(**{**asdict(base), **model_kw})
        else:
            model_cfg = model_config_from_preset(
                preset, window=model_kw["window"], lead_months=model_kw["lead_months"]
            )
    except TypeError as exc:
        raise ConfigError(f"bad model config: {exc}") from None

    data_opts = {"train_fraction": 0.8, "oni_node": True, "smoothing_k": 3}
    data_opts.update(config.get("data", {}))
    return model_cfg, train_cfg, data_opts


def _prepare(args, model_cfg: GcnConfig, train_cfg: TrainConfig, data_opts: dict):
    grid = dat.load_gridset(args.data)
    return dat.prepare_dataset(
        grid,
        window=model_cfg.window,
        lead=train_cfg.lead_months,
        train_fraction=data_opts["train_fraction"],
        oni_node=data_opts["oni_node"],
        smoothing_k=data_opts["smoothing_k"],
    )


def _pick_split(bundle: dat.DatasetBundle, split: str) -> dat.SampleSet:
    if split == "train":
        return bundle.train
    if split == "test":
        return bundle.test
    train, test = bundle.train, bundle.test
    return replace(
        train,
        inputs=np.concatenate([train.inputs, test.inputs]),
        targets=np.concatenate([train.targets, test.targets]),
        window_end=np.concatenate([train.window_end, test.window_end]),
        end_calendar_month=np.concatenate([train.end_calendar_month, test.end_calendar_month]),
        split="all",
    )


def _load_members(args) -> tuple[list, dat.SampleSet]:
    """The --checkpoint models and the --split samples, prepared with the
    first model's window, lead and ONI node."""
    config = _load_config(args.config)
    models = [load_checkpoint(p) for p in args.checkpoint]
    first = models[0]
    _, _, data_opts = _resolve_configs(args, config)
    bundle = dat.prepare_dataset(
        dat.load_gridset(args.data),
        window=first.config.window,
        lead=first.config.lead_months,
        train_fraction=data_opts["train_fraction"],
        oni_node=first.has_oni_node,
        smoothing_k=data_opts["smoothing_k"],
    )
    return models, _pick_split(bundle, args.split)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_data(args) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else 0
    lead = args.lead if args.lead is not None else 1
    grid, spec = dat.synth_teleconnection_dataset(
        args.lat,
        args.lon,
        args.months,
        lead,
        seed=seed,
        noise_sd=args.noise,
        background_sd=args.background,
    )
    out = Path(args.out)
    dat.save_gridset(grid, out)
    (out / "synth_spec.json").write_text(
        json.dumps(
            {
                "driver_cells": spec.driver_cells,
                "region_cells": spec.region_cells,
                "lead": spec.lead,
                "seed": spec.seed,
                "noise_sd": spec.noise_sd,
                "background_sd": spec.background_sd,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {grid.n_lat}x{grid.n_lon} grid, {grid.n_time} months, to {out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    model_cfg, train_cfg, data_opts = _resolve_configs(args, config)
    bundle = _prepare(args, model_cfg, train_cfg, data_opts)
    state = build_model(bundle, model_cfg, train_cfg, edge_mode=args.edges)
    _, history = train(state, bundle.train, train_cfg)
    save_checkpoint(state, args.out)
    write_history_csv(history, str(args.out) + ".loss.csv")
    final = np.mean([v for e, _, v in history if e == train_cfg.epochs - 1])
    line = (
        f"trained {args.edges} model ({len(bundle.train)} samples, "
        f"{train_cfg.epochs} epochs): final train MSE {final:.5f}"
    )
    if len(bundle.test) >= 2:
        report = evaluate(state, bundle.test)
        line += f"; test r={report.r:.4f} rmse={report.rmse:.4f} n={report.n}"
    print(line)
    print(f"checkpoint: {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    models, samples = _load_members(args)
    report = evaluate(models, samples)
    print(
        f"lead={report.lead_months} r={report.r:.4f} rmse={report.rmse:.4f} n={report.n}"
    )
    if args.out:
        write_report_csv(report, str(args.out) + ".report.csv")
        write_predictions_csv(report, str(args.out) + ".predictions.csv")
        export_forecast_timeseries(report, str(args.out) + ".series")
    return 0


def cmd_predict(args) -> int:
    models, samples = _load_members(args)
    preds = predict_samples(models, samples)
    lines = ["index,prediction"]
    for i, p in enumerate(preds):
        lines.append(f"{i},{float(p)!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_centrality(args) -> int:
    state = load_checkpoint(args.checkpoint[0])
    # node i reads from node j where A[i, j] > 0: the transpose ranks the
    # nodes the graph reads from
    scores = eigenvector_centrality(model_adjacency(state).data.T)
    nodes = dat.NodeIndex(
        latlon=state.node_latlon,
        cells=np.full((state.node_count, 2), -1, dtype=int),
        has_oni_node=state.has_oni_node,
    )
    csv_path, svg_path = export_centrality_heatmap(scores, nodes, args.out)
    print(
        f"eigenvalue {scores.eigenvalue:.5f}, residual {scores.residual:.2e}, "
        f"{scores.iterations} iterations"
    )
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed + 99)
    batch = 3
    config = GcnConfig(layer_dims=[4, 4], window=2, features_per_node=2)
    worst = 0.0
    # a graph dense enough for the dense aggregation kernels, and one
    # sparse enough for the CSR kernels
    for n, max_edges in ((6, 18), (40, 40)):
        state = init_params(
            config,
            rng.normal(size=(n, 4)),
            np.column_stack([rng.uniform(-60, 60, n), rng.uniform(0, 360, n)]),
            seed=seed,
            embed_dim=3,
            max_edges=max_edges,
        )
        x = Tensor(rng.normal(size=(batch * n, config.input_width)))
        y = Tensor(rng.normal(size=batch))
        frozen, _ = model_edges(state)

        def f():
            pred = forward_batch(state, x, batch, mode="train", edges=frozen)
            return mse_loss(pred, y)

        error = grad_check(f, [t for _, t in state.parameters()], step=1e-5)
        kernel = "CSR" if frozen.sparse else "dense"
        print(f"{n} nodes, {frozen.rows.size} edges, {kernel} kernels: error {error:.3e}")
        worst = max(worst, error)
    print(f"max relative gradient error: {worst:.3e} (tolerance {GRADCHECK_TOLERANCE})")
    if worst > GRADCHECK_TOLERANCE:
        print("gradcheck FAILED")
        return 3
    print("gradcheck passed")
    return 0


def cmd_ablation(args) -> int:
    config = _load_config(args.config)
    model_cfg, train_cfg, data_opts = _resolve_configs(args, config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--seeds must be comma-separated ints, got {args.seeds!r}") from None
    if not seeds:
        raise UsageError("--seeds is empty")

    rows = []
    for seed in seeds:
        for edges in ("learned", "local"):
            cfg = TrainConfig(**{**asdict(train_cfg), "seed": seed})
            bundle = _prepare(args, model_cfg, cfg, data_opts)
            state = build_model(bundle, model_cfg, cfg, edge_mode=edges)
            train(state, bundle.train, cfg)
            report = evaluate(state, bundle.test)
            rows.append((edges, seed, report.r, report.rmse))
    print(f"{'edges':<8} {'seed':>4} {'r':>8} {'rmse':>8}")
    for edges, seed, r, rmse in rows:
        print(f"{edges:<8} {seed:>4} {r:>8.4f} {rmse:>8.4f}")
    mean_learned = float(np.mean([r for e, _, r, _ in rows if e == "learned"]))
    mean_local = float(np.mean([r for e, _, r, _ in rows if e == "local"]))
    print(
        f"mean learned r={mean_learned:.4f}  mean local r={mean_local:.4f}  "
        f"gap={mean_learned - mean_local:.4f}"
    )
    if args.out:
        lines = ["edges,seed,r,rmse"]
        for edges, seed, r, rmse in rows:
            lines.append(f"{edges},{seed},{r!r},{rmse!r}")
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "centrality": cmd_centrality,
    "gradcheck": cmd_gradcheck,
    "ablation": cmd_ablation,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
