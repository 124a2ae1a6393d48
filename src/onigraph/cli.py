"""Command-line entry points.

Subcommands: synth-data, train, evaluate, predict, centrality, gradcheck,
ablation. Exit codes: 0 success, 1 usage error or a closed standard
output, 2 data or format error or a file that cannot be read or written,
3 numeric failure.

--config names a JSON object whose sections each set one record, with the
keys listed below: train the fields of TrainConfig, model the architecture
fields of GcnConfig, data the options of prepare_dataset. Any other section
or key, or a value of another type, is a usage error. The model is the
preset with the model section on top, the train section's window and
lead_months, and the grid's variable count as features_per_node. --preset,
--seed, --lead and ablation's --seeds win over the train section. evaluate
and predict take the window, the lead and, unless data.oni_node is set, the
ONI node from the first checkpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data as dat
from .autodiff import Tensor, grad_check, mse_loss
from .centrality import eigenvector_centrality
from .errors import ConfigError, DataError, FormatError, NumericError, UsageError
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

# GcnConfig fields that describe the data, not the architecture
MODEL_FACTS = ("window", "lead_months", "features_per_node")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no abbreviations: ablation --seed would set --seeds
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    listing = "\n".join(
        textwrap.fill(", ".join(keys), 76, initial_indent=f"  {name:<7}", subsequent_indent=" " * 9)
        for name, keys in _section_types().items()
    )
    parser = _Parser(
        prog="onigraph",
        description=f"{__doc__}\nconfig keys:\n{listing}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    flags = {
        "config": dict(help="JSON config file (sections: train, model, data)"),
        "seed": dict(type=int, help="random seed"),
        "lead": dict(type=int, help="forecast lead in months"),
        "data": dict(required=True, help="grid container directory"),
        "checkpoint": dict(action="append", required=True, help="model checkpoint file"),
    }

    def command(name, help, *names):
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        return p

    p = command("synth-data", "generate a synthetic teleconnection dataset", "seed", "lead")
    p.set_defaults(seed=0, lead=1)
    p.add_argument("--out", default="synth", help="output directory (default: synth)")
    p.add_argument("--lat", type=int, default=8, help="grid rows")
    p.add_argument("--lon", type=int, default=8, help="grid columns")
    p.add_argument("--months", type=int, default=120, help="timeseries length")
    p.add_argument("--noise", type=float, default=0.1, help="signal-cell noise sd")
    p.add_argument("--background", type=float, default=None, help="background-cell sd")

    p = command("train", "train one model and write a checkpoint", "config", "seed", "lead", "data")
    p.add_argument("--out", default="model.ckpt", help="checkpoint path (default: model.ckpt)")
    p.add_argument("--preset", default=None, choices=sorted(PRESETS), help="ensemble member preset")
    p.add_argument("--edges", default="learned", choices=("learned", "local"))

    p = command("evaluate", "r and RMSE of a model or ensemble", "config", "data", "checkpoint")
    p.add_argument("--out", default=None, help="basename for report and prediction CSVs")
    p.add_argument("--split", default="test", choices=("train", "test", "all"))

    p = command("predict", "per-sample model or ensemble forecasts", "config", "data", "checkpoint")
    p.add_argument("--out", default="predictions.csv", help="CSV path (default: predictions.csv)")
    p.add_argument("--split", default="test", choices=("train", "test", "all"))

    p = command("centrality", "eigenvector centrality heatmap of the adjacency")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--out", default="centrality", help="output basename (default: centrality)")

    command("gradcheck", "verify gradients against finite differences", "seed").set_defaults(seed=0)

    p = command("ablation", "learned vs local connectivity comparison", "config", "lead", "data")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")
    p.add_argument("--out", default=None, help="optional CSV for the result table")
    return parser


# ---------------------------------------------------------------------------
# configuration


def _section_types() -> dict[str, dict]:
    """The keys each config section takes, with their annotated types."""
    model = get_type_hints(GcnConfig)
    data = get_type_hints(dat.prepare_dataset)
    return {
        "train": get_type_hints(TrainConfig),
        "model": {k: v for k, v in model.items() if k not in MODEL_FACTS},
        "data": {k: data[k] for k in ("train_fraction", "oni_node", "smoothing_k")},
    }


def _typed(value, hint, where: str):
    """value as the annotated type: ints widen to float, nothing else converts."""
    args = get_args(hint)
    if get_origin(hint) is list:
        if isinstance(value, list):
            return [_typed(v, args[0], where) for v in value]
    elif args:  # X | None
        return None if value is None else _typed(value, args[0], where)
    elif hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is hint:
        return value
    name = "finite float" if hint is float else hint.__name__ if type(hint) is type else str(hint)
    raise ConfigError(f"{where} must be of type {name}, got {value!r}")


def resolve_configs(config, n_variables: int, **flags) -> tuple[GcnConfig, TrainConfig, dict]:
    """The model, training and data settings of a parsed config file, with
    ``flags`` (TrainConfig values, None where unset) over the train section.
    The data settings are keyword arguments of :func:`data.prepare_dataset`.
    Raises ConfigError for an unknown section or key, a model key that
    describes the data, or a value of another type."""
    sections = _section_types()
    if not isinstance(config, dict):
        raise ConfigError(f"a config is a JSON object with sections {list(sections)}")
    unknown = set(config) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}; use {list(sections)}")
    resolved = {}
    for name, types in sections.items():
        values = config.get(name, {})
        if not isinstance(values, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
        for key in values:
            if name == "model" and key in MODEL_FACTS:
                raise ConfigError(f"model.{key} describes the data, not the architecture")
            if key not in types:
                raise ConfigError(f"unknown config key {name}.{key}; {name} takes {list(types)}")
        resolved[name] = {k: _typed(v, types[k], f"{name}.{k}") for k, v in values.items()}

    train_cfg = TrainConfig(**resolved["train"] | {k: v for k, v in flags.items() if v is not None})
    preset = model_config_from_preset(
        train_cfg.preset, train_cfg.window, n_variables, train_cfg.lead_months
    )
    return replace(preset, **resolved["model"]), train_cfg, resolved["data"]


def _prepare(args, checkpoint=None, **flags) -> tuple[GcnConfig, TrainConfig, dat.DatasetBundle]:
    """Resolve --config against the --data grid and prepare its samples. A
    checkpoint's model fixes the window, the lead and, unless data.oni_node
    is set, the ONI node."""
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
    except OSError as exc:
        raise DataError(f"cannot read config file {args.config}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"config file {args.config} is not valid JSON: {exc}") from exc
    grid = dat.load_gridset(args.data)
    model_cfg, train_cfg, opts = resolve_configs(config, len(grid.variables), **flags)
    if checkpoint is not None:
        model_cfg = checkpoint.config
        opts = {"oni_node": checkpoint.has_oni_node, **opts}
    bundle = dat.prepare_dataset(grid, window=model_cfg.window, lead=model_cfg.lead_months, **opts)
    return model_cfg, train_cfg, bundle


def _load_members(args) -> tuple[list, dat.SampleSet]:
    """The --checkpoint models and the --split samples, prepared for the first."""
    models = [load_checkpoint(p) for p in args.checkpoint]
    _, _, bundle = _prepare(args, models[0])
    if args.split != "all":
        return models, getattr(bundle, args.split)
    parts = (bundle.train, bundle.test)
    joined = {f: np.concatenate([getattr(p, f) for p in parts]) for f in dat.PER_SAMPLE}
    return models, replace(bundle.train, split="all", **joined)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_data(args) -> int:
    grid, spec = dat.synth_teleconnection_dataset(
        args.lat,
        args.lon,
        args.months,
        args.lead,
        seed=args.seed,
        noise_sd=args.noise,
        background_sd=args.background,
    )
    out = Path(args.out)
    dat.save_gridset(grid, out)
    (out / "synth_spec.json").write_text(json.dumps(asdict(spec), indent=2) + "\n")
    print(f"wrote {grid.n_lat}x{grid.n_lon} grid, {grid.n_time} months, to {out}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg, bundle = _prepare(
        args, preset=args.preset, seed=args.seed, lead_months=args.lead
    )
    state = build_model(bundle, model_cfg, train_cfg, edge_mode=args.edges)
    _, history = train(state, bundle.train, train_cfg)
    save_checkpoint(state, args.out)
    write_history_csv(history, str(args.out) + ".loss.csv")
    line = f"trained {args.edges} model ({len(bundle.train)} samples, {train_cfg.epochs} epochs)"
    if history:
        final = np.mean([v for e, _, v in history if e == train_cfg.epochs - 1])
        line += f": final train MSE {final:.5f}"
    if len(bundle.test) >= 2:
        report = evaluate(state, bundle.test)
        line += f"; test r={report.r:.4f} rmse={report.rmse:.4f} n={report.n}"
    print(line)
    print(f"checkpoint: {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    models, samples = _load_members(args)
    report = evaluate(models, samples)
    print(f"lead={report.lead_months} r={report.r:.4f} rmse={report.rmse:.4f} n={report.n}")
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
    state = load_checkpoint(args.checkpoint)
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
    seed = args.seed
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
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--seeds must be comma-separated ints, got {args.seeds!r}") from None
    if not seeds:
        raise UsageError("--seeds is empty")
    model_cfg, train_cfg, bundle = _prepare(args, lead_months=args.lead)

    rows = []
    for seed in seeds:
        cfg = replace(train_cfg, seed=seed)
        for edges in ("learned", "local"):
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
    except BrokenPipeError:  # stdout closed; main() ends the run
        raise
    except (DataError, FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = cli_dispatch(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull so that the
        # flush at exit cannot fail again, and exit 1 (Python's SIGPIPE recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
