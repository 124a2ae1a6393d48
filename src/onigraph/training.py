"""Training loop, evaluation metrics, ensembling, and checkpoints.

One model is trained per lead time, in a single phase over the pooled
training samples: shuffled mini-batches, MSE loss, SGD with Nesterov
momentum, no learning-rate schedule and no dropout. The adjacency is
rebuilt from the structure learner inside every batch's forward pass, so
each optimizer step jointly updates the network weights and the
connectivity parameters. The reported model is simply the final state
after the configured number of epochs.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    OptimizerState,
    Tape,
    Tensor,
    backward,
    mse_loss,
    sgd_nesterov_step,
)
from .data import DatasetBundle, SampleSet, local_adjacency
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import (
    GcnConfig,
    ModelState,
    PRESETS,
    forward_batch,
    init_params,
)

Array = np.ndarray

CHECKPOINT_MAGIC = b"ONIG"
FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    """Optimization and structure-learning hyperparameters.

    weight_decay left unset falls back to the preset's value. max_edges
    left unset becomes eight times the node count at model construction.
    """

    batch_size: int = 64
    learning_rate: float = 0.005
    momentum: float = 0.9
    weight_decay: float | None = None
    epochs: int = 50
    seed: int = 0
    lead_months: int = 1
    window: int = 3
    preset: str = "gcn2a"
    max_edges: int | None = None
    feature_gain: float = 1.0
    score_gain: float = 2.0
    embed_dim: int = 32

    def __post_init__(self):
        if self.batch_size < 2 or self.epochs < 0:
            # batch normalization needs two rows per batch
            raise ConfigError("batch_size must be >= 2 and epochs >= 0")
        if self.learning_rate < 0 or not 0 <= self.momentum < 1:
            raise ConfigError("learning_rate must be >= 0 and momentum in [0, 1)")
        if self.lead_months < 1 or self.window < 1 or self.embed_dim < 1:
            raise ConfigError("lead_months, window and embed_dim must be >= 1")

    def resolved_weight_decay(self) -> float:
        if self.weight_decay is not None:
            return self.weight_decay
        if self.preset not in PRESETS:
            raise ConfigError(
                f"no preset {self.preset!r} to take weight decay from; set it explicitly"
            )
        return PRESETS[self.preset].weight_decay


def model_config_from_preset(
    name: str,
    window: int = 3,
    features_per_node: int = 2,
    lead_months: int = 1,
    layer_dims: list[int] | None = None,
) -> GcnConfig:
    """Architecture of a named ensemble member, optionally with rescaled
    layer widths for desk-size runs."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    preset = PRESETS[name]
    return GcnConfig(
        layer_dims=list(layer_dims if layer_dims is not None else preset.layer_dims),
        pooling=preset.pooling,
        window=window,
        features_per_node=features_per_node,
        lead_months=lead_months,
    )


def build_model(
    bundle: DatasetBundle,
    model_cfg: GcnConfig,
    train_cfg: TrainConfig,
    edge_mode: str = "learned",
) -> ModelState:
    """Initialize a model against a prepared dataset."""
    fixed = local_adjacency(bundle.nodes) if edge_mode == "local" else None
    return init_params(
        model_cfg,
        bundle.static_features,
        bundle.nodes.latlon,
        seed=train_cfg.seed,
        has_oni_node=bundle.nodes.has_oni_node,
        embed_dim=train_cfg.embed_dim,
        feature_gain=train_cfg.feature_gain,
        score_gain=train_cfg.score_gain,
        max_edges=train_cfg.max_edges,
        edge_mode=edge_mode,
        fixed_adjacency=fixed,
    )


def train(
    state: ModelState, samples: SampleSet, cfg: TrainConfig
) -> tuple[ModelState, list[tuple[int, int, float]]]:
    """Optimize in place; returns the state and the per-batch loss history
    as (epoch, batch, mse) triples.

    Batches are reshuffled every epoch from a seed derived as (seed,
    epoch), the trailing partial batch is kept (a single trailing sample
    joins the batch before it, since batch normalization needs two rows),
    and every parameter, connectivity weights included, takes the same SGD
    step.
    """
    if len(samples) < 2:
        raise DataError(f"cannot train on {len(samples)} sample(s); batch normalization needs 2")
    params = state.parameters()
    if state.optimizer is None:
        decay = cfg.resolved_weight_decay()
        state.optimizer = {
            name: OptimizerState(
                np.zeros_like(t.data), cfg.learning_rate, cfg.momentum, decay
            )
            for name, t in params
        }
    history: list[tuple[int, int, float]] = []
    width = samples.inputs.shape[2]
    # no cut one sample before the end, so a single trailing sample joins
    # the batch before it
    cuts = range(cfg.batch_size, len(samples) - 1, cfg.batch_size)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(samples))
        for batch_idx, ids in enumerate(np.split(order, cuts)):
            x = Tensor(samples.inputs[ids].reshape(-1, width))
            y = Tensor(samples.targets[ids])
            with Tape():
                pred = forward_batch(state, x, len(ids), mode="train")
                loss = mse_loss(pred, y)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"non-finite training loss at epoch {epoch}, batch {batch_idx}: {value}"
                    )
                backward(loss)
            for name, tensor in params:
                sgd_nesterov_step(tensor, state.optimizer[name])
            history.append((epoch, batch_idx, value))
    return state, history


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    lead_months: int
    r: float
    rmse: float
    n: int
    predictions: Array
    targets: Array


def pearson_r(a: Array, b: Array) -> float:
    a = np.asarray(a, float) - np.mean(a)
    b = np.asarray(b, float) - np.mean(b)
    denom = np.sqrt((a @ a) * (b @ b))
    if denom == 0.0:
        raise NumericError("correlation undefined: a series has zero variance")
    return float((a @ b) / denom)


def predict_samples(
    model: ModelState | list[ModelState], samples: SampleSet, chunk: int = 256
) -> Array:
    """Evaluation-mode predictions; ensembles average member outputs.

    Members must forecast the same thing from the same inputs: equal lead,
    window, input width and node set (ONI node and coordinates). The
    samples must have that window, lead, node count and input width."""
    members = model if isinstance(model, list) else [model]
    if not members:
        raise ConfigError("ensemble is empty")
    first = members[0]
    for m in members[1:]:
        if (
            m.config.lead_months != first.config.lead_months
            or m.config.window != first.config.window
            or m.config.input_width != first.config.input_width
            or m.has_oni_node != first.has_oni_node
            or m.node_count != first.node_count
            or not np.array_equal(m.node_latlon, first.node_latlon, equal_nan=True)
        ):
            raise ConfigError(
                "ensemble members disagree on lead, window, input width or nodes"
            )
    cfg = first.config
    expected = (cfg.window, cfg.lead_months, first.node_count, cfg.input_width)
    found = (samples.window, samples.lead, *samples.inputs.shape[1:])
    if found != expected:
        raise DataError(
            f"samples (window, lead, nodes, inputs per node) {found} do not fit "
            f"the model's {expected}"
        )
    total = np.zeros(len(samples))
    for member in members:
        outputs = []
        for lo in range(0, len(samples), chunk):
            x = samples.inputs[lo : lo + chunk]
            batch = Tensor(x.reshape(-1, x.shape[2]))
            outputs.append(forward_batch(member, batch, len(x), mode="eval").data)
        total += np.concatenate(outputs)
    return total / len(members)


def evaluate(model: ModelState | list[ModelState], samples: SampleSet) -> EvalReport:
    """Correlation skill (Pearson r) and RMSE over all samples, in
    evaluation mode (frozen normalization statistics, nothing mutated).
    Predictions so large that either overflows (a diverged model) raise
    ``NumericError``."""
    if len(samples) < 2:
        raise DataError(f"correlation undefined for {len(samples)} sample(s)")
    preds = predict_samples(model, samples)
    first = model[0] if isinstance(model, list) else model
    diff = preds - samples.targets
    with np.errstate(over="ignore", invalid="ignore"):
        r = pearson_r(preds, samples.targets)
        rmse = float(np.sqrt(np.mean(diff * diff)))
    if not (np.isfinite(r) and np.isfinite(rmse)):
        raise NumericError(f"test skill is not finite (r={r}, rmse={rmse}): the model diverged")
    return EvalReport(
        lead_months=first.config.lead_months,
        r=r,
        rmse=rmse,
        n=len(samples),
        predictions=preds,
        targets=samples.targets.copy(),
    )


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        "lead,r,rmse,n\n" f"{report.lead_months},{report.r!r},{report.rmse!r},{report.n}\n"
    )


def write_predictions_csv(report: EvalReport, path: str | Path) -> None:
    lines = ["index,target,prediction"]
    for i, (t, p) in enumerate(zip(report.targets, report.predictions)):
        lines.append(f"{i},{float(t)!r},{float(p)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_history_csv(history: list[tuple[int, int, float]], path: str | Path) -> None:
    lines = ["epoch,batch,loss"]
    for epoch, batch, value in history:
        lines.append(f"{epoch},{batch},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints
#
# Single file: a 4-byte magic, an 8-byte little-endian manifest length, the
# JSON manifest, then one blob of little-endian float64 values. The manifest
# lists every tensor with its shape and byte offset into the blob and embeds
# the model config, structure hyperparameters, and seed.


def _checkpoint_entries(state: ModelState) -> dict[str, Array]:
    entries: dict[str, Array] = {}
    for name, tensor in state.parameters():
        entries[name] = tensor.data
    entries.setdefault("structure.w_from", state.structure.w_from.data)
    entries.setdefault("structure.w_to", state.structure.w_to.data)
    for name, arr in state.buffers():
        entries[name] = arr
    if state.edge_mode == "local":
        entries["local_adjacency"] = state.fixed_adjacency
    if state.optimizer is not None:
        for name, slot in state.optimizer.items():
            entries[f"opt.{name}.velocity"] = slot.velocity
    return entries


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    """Write the checkpoint to a temporary file beside ``path``, then rename
    it over ``path``, so an interrupted write leaves any previous checkpoint
    there intact."""
    entries = _checkpoint_entries(state)
    tensors = []
    blob = bytearray()
    for name, arr in entries.items():
        tensors.append({"name": name, "shape": list(arr.shape), "offset": len(blob)})
        blob.extend(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    opt = None
    if state.optimizer is not None:
        any_slot = next(iter(state.optimizer.values()))
        opt = {
            "learning_rate": any_slot.learning_rate,
            "momentum": any_slot.momentum,
            "weight_decay": any_slot.weight_decay,
        }
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": asdict(state.config),
        "structure": {
            "feature_gain": state.structure.feature_gain,
            "score_gain": state.structure.score_gain,
            "max_edges": state.structure.max_edges,
        },
        "edge_mode": state.edge_mode,
        "has_oni_node": state.has_oni_node,
        "seed": state.seed,
        "optimizer": opt,
        "tensors": tensors,
        "blob_bytes": len(blob),
    }
    payload = json.dumps(manifest, sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            fh.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> ModelState:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path} is not a checkpoint (bad magic)")
    try:
        return _decode_checkpoint(raw)
    except (struct.error, LookupError, TypeError, ValueError, ConfigError) as exc:
        # truncated header, undecodable manifest, missing or mistyped field,
        # or values the model cannot be built from
        raise FormatError(f"bad checkpoint {path}: {exc!r}") from exc


def _decode_checkpoint(raw: bytes) -> ModelState:
    (manifest_len,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12 : 12 + manifest_len].decode())
    blob = raw[12 + manifest_len :]
    if len(blob) != manifest["blob_bytes"]:
        raise FormatError(
            f"checkpoint blob mismatch: manifest says {manifest['blob_bytes']} bytes, "
            f"found {len(blob)}"
        )

    arrays: dict[str, Array] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + 8 * count
        if end > len(blob):
            raise FormatError(f"tensor {entry['name']!r} overruns the checkpoint blob")
        arrays[entry["name"]] = (
            np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy()
        )

    def grab(name: str) -> Array:
        if name not in arrays:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        return arrays[name]

    # Build the model the way training does, then fill every tensor that
    # save_checkpoint wrote, by the names the parameter and buffer tables emit.
    structure = manifest["structure"]
    state = init_params(
        GcnConfig(**manifest["model"]),
        grab("structure.static_features"),
        grab("node_latlon"),
        seed=manifest["seed"],
        has_oni_node=manifest["has_oni_node"],
        embed_dim=grab("structure.w_from").shape[1],
        feature_gain=structure["feature_gain"],
        score_gain=structure["score_gain"],
        max_edges=structure["max_edges"],
        edge_mode=manifest["edge_mode"],
        fixed_adjacency=grab("local_adjacency") if manifest["edge_mode"] == "local" else None,
    )
    opt_cfg = manifest["optimizer"]
    if opt_cfg is not None:
        state.optimizer = {
            name: OptimizerState(
                np.zeros_like(t.data),
                opt_cfg["learning_rate"],
                opt_cfg["momentum"],
                opt_cfg["weight_decay"],
            )
            for name, t in state.parameters()
        }
    for name, target in _checkpoint_entries(state).items():
        value = grab(name)
        if value.shape != target.shape:
            raise FormatError(
                f"checkpoint tensor {name!r} has shape {value.shape}, expected {target.shape}"
            )
        target[...] = value
    return state
