"""Command-line entry points.

Subcommands: synth-data, train, evaluate, predict, centrality, gradcheck,
ablation. Exit codes: 0 success, 1 usage error, a closed standard output
or memory that cannot be allocated (a config width too large for this
machine), 2 data or format error or a file that cannot be read or
written, 3 numeric failure.

--config names a JSON object whose sections each set one record, with the
keys listed below: train the fields of TrainConfig, model the architecture
fields of GcnConfig, data the options of prepare_dataset. Any other section
or key, or a value of another type, is a usage error. The model is the
preset with the model section on top, the train section's window and
lead_months, and the grid's variable count as features_per_node. --preset,
--seed, --lead and ablation's --seeds win over the train section. evaluate
and predict take the window, the lead and the ONI node from the first
checkpoint; a data.oni_node that differs from it is a usage error. The
architecture's other choices are fixed: ELU activations, a residual in
every layer of equal widths, and pooling of every layer. Checkpoints and
grid manifests must hold every field of their records, nested ones
included, while config sections may omit keys; an error names the field's
path (checkpoint.tensors[3].offset). Checkpoints are format 5, which
stores a local model's graph as (row, col, value) edge rows; an older
format, or a stored value that is not finite (bar the ONI node's NaN
coordinates), exits 2 naming the tensor or the version.

ablation prints each seed's test r and RMSE with learned and local edges.
Where --data holds the synth_spec.json of synth-data, each learned row adds
the planted drivers' mean centrality rank R/N (1 = most central, n/a if it
does not converge), and a last line counts the seeds with R <= N/10.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as dat
from .autodiff import Tensor, grad_check, mse_loss
from .centrality import CentralityScores, eigenvector_centrality
from .errors import ConfigError, ConvergenceError, DataError, FormatError, NumericError, UsageError
from .exports import export_centrality_heatmap, export_forecast_timeseries
from .model import GcnConfig, PRESETS, forward_batch, init_params, model_adjacency, model_edges
from .training import (
    MODEL_FIELDS,
    TRAIN_FIELDS,
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    model_config_from_preset,
    predict_samples,
    save_checkpoint,
    train,
    write_csv,
    write_history_csv,
    write_predictions_csv,
    write_report_csv,
)

GRADCHECK_TOLERANCE = 1e-4

# GcnConfig fields that describe the data, not the architecture
MODEL_FACTS = ("window", "lead_months", "features_per_node")
# the keys each config section takes, with their types
CONFIG_SECTIONS = {
    "train": TRAIN_FIELDS,
    "model": {k: v for k, v in MODEL_FIELDS.items() if k not in MODEL_FACTS},
    "data": dat.field_types(dat.prepare_dataset, drop=("grid", "window", "lead", "return")),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no abbreviations: ablation --seed would set --seeds
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _seed(text: str) -> int:
    """A seed from the command line: numpy seeds with non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    listing = "\n".join(
        textwrap.fill(", ".join(keys), 76, initial_indent=f"  {name:<7}", subsequent_indent=" " * 9)
        for name, keys in CONFIG_SECTIONS.items()
    )
    parser = _Parser(
        prog="onigraph",
        description=f"{__doc__}\nconfig keys:\n{listing}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    flags = {
        "config": dict(help="JSON config file (sections: train, model, data)"),
        "seed": dict(type=_seed, help="random seed"),
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


def resolve_configs(config, n_variables: int, **flags) -> tuple[GcnConfig, TrainConfig, dict]:
    """The model, training and data settings of a parsed config file, with
    ``flags`` (TrainConfig values, None where unset) over the train section.
    The data settings are keyword arguments of :func:`data.prepare_dataset`.
    Raises ConfigError for an unknown section or key, a model key that
    describes the data, or a value of another type."""
    if type(config) is not dict:
        raise ConfigError(f"a config is a JSON object with sections {list(CONFIG_SECTIONS)}")
    if unknown := sorted(config.keys() - CONFIG_SECTIONS.keys()):
        raise ConfigError(f"unknown config sections {unknown}; use {list(CONFIG_SECTIONS)}")
    resolved = {}
    for name, types in CONFIG_SECTIONS.items():
        values = config.get(name, {})
        if type(values) is not dict:
            raise ConfigError(f"config section {name!r} must be a JSON object")
        if name == "model" and (facts := sorted(values.keys() & MODEL_FACTS)):
            raise ConfigError(f"model.{facts[0]} describes the data, not the architecture")
        resolved[name] = dat.read_record(types, values, name, partial=True)

    train_cfg = TrainConfig(**resolved["train"] | {k: v for k, v in flags.items() if v is not None})
    preset = model_config_from_preset(
        train_cfg.preset, train_cfg.window, n_variables, train_cfg.lead_months
    )
    return replace(preset, **resolved["model"]), train_cfg, resolved["data"]


def _prepare(args, checkpoint=None, **flags) -> tuple[GcnConfig, TrainConfig, dat.DatasetBundle]:
    """Resolve --config against the --data grid and prepare its samples. A
    checkpoint's model fixes the window, the lead and the ONI node, which a
    config's data.oni_node must not contradict."""
    try:
        config = json.loads(dat.read_file(Path(args.config)).decode()) if args.config else {}
    except FormatError as exc:  # missing, not a regular file, no permission
        raise DataError(str(exc).replace("cannot read", "cannot read config file", 1)) from None
    except ValueError as exc:  # JSON, UTF-8 or an integer past Python's digit limit
        raise FormatError(f"config file {args.config} is not readable JSON: {exc}") from exc
    grid = dat.load_gridset(args.data)
    model_cfg, train_cfg, opts = resolve_configs(config, len(grid.variables), **flags)
    if checkpoint is not None:
        model_cfg = checkpoint.config
        if opts.setdefault("oni_node", checkpoint.has_oni_node) != checkpoint.has_oni_node:
            raise ConfigError(
                f"data.oni_node is {json.dumps(opts['oni_node'])}, but checkpoint "
                f"{args.checkpoint[0]} has has_oni_node {json.dumps(checkpoint.has_oni_node)}"
            )
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
    (out / dat.SPEC_NAME).write_text(json.dumps(asdict(spec), indent=2) + "\n")
    print(f"wrote {grid.n_lat}x{grid.n_lon} grid, {grid.n_time} months, to {out}")
    return 0


def cmd_train(args) -> int:
    """Train one model, save it and report. A run whose last epoch's mean
    loss exceeds its first epoch's by more than a factor of 1e6 diverged:
    it exits 3 after saving, like a run whose test skill is not finite."""
    model_cfg, train_cfg, bundle = _prepare(
        args, preset=args.preset, seed=args.seed, lead_months=args.lead
    )
    state = build_model(bundle, model_cfg, train_cfg, edge_mode=args.edges)
    _, history = train(state, bundle.train, train_cfg)
    save_checkpoint(state, args.out)
    write_history_csv(history, str(args.out) + ".loss.csv")
    line = f"trained {args.edges} model ({len(bundle.train)} samples, {train_cfg.epochs} epochs)"
    if history:
        first, final = (
            np.mean([v for e, _, v in history if e == k]) for k in (0, train_cfg.epochs - 1)
        )
        line += f": final train MSE {final:.5f}"
    if history and final > 1e6 * first:
        raise NumericError(
            f"training diverged: last epoch's mean loss {final:.3g}, first epoch's {first:.3g}"
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
    print(f"lead={report.lead_months} r={report.r:.4f} rmse={report.rmse:.4f} n={report.n}")
    if args.out:
        write_report_csv(report, str(args.out) + ".report.csv")
        write_predictions_csv(report, str(args.out) + ".predictions.csv")
        export_forecast_timeseries(report, str(args.out) + ".series")
    return 0


def cmd_predict(args) -> int:
    models, samples = _load_members(args)
    preds = predict_samples(models, samples)
    write_csv(args.out, "index,prediction", enumerate(preds))
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def graph_centrality(state) -> CentralityScores:
    # node i reads from node j where A[i, j] > 0: the transpose of I + A
    # ranks the nodes the graph reads from
    return eigenvector_centrality(model_adjacency(state).data.T)


def _driver_rank(state, drivers: np.ndarray) -> float:
    """The mean centrality rank of the ``drivers`` nodes, 1 for the most
    central, or NaN where power iteration does not converge."""
    try:
        scores = graph_centrality(state).scores
    except ConvergenceError:
        return math.nan
    return float(np.argsort(np.argsort(-scores, kind="stable"))[drivers].mean() + 1)


def cmd_centrality(args) -> int:
    state = load_checkpoint(args.checkpoint)
    scores = graph_centrality(state)
    csv_path, svg_path = export_centrality_heatmap(scores.scores, state.node_latlon, args.out)
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
    worst = 0.0
    # a graph dense enough for the dense aggregation kernels, and one
    # sparse enough for the CSR kernels, each with one of the two poolings
    for n, max_edges, pooling in ((6, 18, "mean"), (40, 40, "sum_and_mean")):
        config = GcnConfig(layer_dims=[4, 4], pooling=pooling, window=2, features_per_node=2)
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
            pred = forward_batch(state, x, edges=frozen)
            return mse_loss(pred, y)

        error = grad_check(f, [t for _, t in state.parameters()], step=1e-5)
        kernel = "CSR" if frozen.sparse else "dense"
        print(f"{n} nodes, {frozen.rows.size} edges, {kernel} kernels, {pooling}: {error:.3e}")
        worst = max(worst, error)
    print(f"max relative gradient error: {worst:.3e} (tolerance {GRADCHECK_TOLERANCE})")
    if worst > GRADCHECK_TOLERANCE:
        print("gradcheck FAILED")
        return 3
    print("gradcheck passed")
    return 0


def cmd_ablation(args) -> int:
    try:
        seeds = [_seed(s.strip()) for s in args.seeds.split(",") if s.strip()]
    except argparse.ArgumentTypeError:
        raise UsageError(f"--seeds must be comma-separated ints >= 0, got {args.seeds!r}") from None
    if not seeds:
        raise UsageError("--seeds is empty")
    model_cfg, train_cfg, bundle = _prepare(args, lead_months=args.lead)
    drivers = dat.planted_driver_nodes(args.data, bundle.nodes)

    rows, ranks = [], []  # each learned row's driver rank, with a spec; None elsewhere
    for seed in seeds:
        cfg = replace(train_cfg, seed=seed)
        for edges in ("learned", "local"):
            state = build_model(bundle, model_cfg, cfg, edge_mode=edges)
            train(state, bundle.train, cfg)
            report = evaluate(state, bundle.test)
            rows.append((edges, seed, report.r, report.rmse))
            ranked = drivers is not None and edges == "learned"
            ranks.append(_driver_rank(state, drivers) if ranked else None)
    n = bundle.nodes.count
    print("edges    seed        r     rmse" + "  driver rank" * (drivers is not None))
    for (edges, seed, r, rmse), rank in zip(rows, ranks):
        line = f"{edges:<8} {seed:>4} {r:>8.4f} {rmse:>8.4f}"
        if rank is not None:
            line += f"  {'n/a' if math.isnan(rank) else f'{rank:.1f}/{n}':>11}"
        print(line)
    mean_learned = float(np.mean([r for e, _, r, _ in rows if e == "learned"]))
    mean_local = float(np.mean([r for e, _, r, _ in rows if e == "local"]))
    print(
        f"mean learned r={mean_learned:.4f}  mean local r={mean_local:.4f}  "
        f"gap={mean_learned - mean_local:.4f}"
    )
    if drivers is not None:  # NaN, no convergence, is in no decile
        top = sum(rank is not None and rank <= n / 10 for rank in ranks)
        print(f"planted drivers in the top decile of centrality on {top} of {len(seeds)} seeds")
    if args.out:
        write_csv(args.out, "edges,seed,r,rmse", rows)
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
    except MemoryError as exc:  # sizes from a config, such as its layer widths
        print(f"usage error: out of memory: {exc}", file=sys.stderr)
        return 1


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
