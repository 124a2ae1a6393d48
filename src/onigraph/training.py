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
import math
import os
import struct
from dataclasses import asdict, dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .autodiff import Sgd, Tape, Tensor, Workspace, backward, mse_loss, sgd_nesterov_step
from .data import DatasetBundle, SampleSet, field_types, local_edges, read_file, read_record
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import (
    GcnConfig,
    ModelState,
    PRESETS,
    folded,
    forward_batch,
    init_params,
    mlp_head,
    model_edges,
    pooled_layers,
)
from .structure import StructureParams

Array = np.ndarray

CHECKPOINT_MAGIC = b"ONIG"
# version 1 stored float64, 2 float32 with five settings now constant, 3 dropped
# them, 4 stores a local model's graph as edge rows, not a dense matrix, and 5
# drops the head bias that batch normalization cancels
FORMAT_VERSION = 5
BLOB_DTYPE = np.dtype("<f4")
# Stacked node rows per block of samples in ``predict_samples``, so that a
# block's (rows, width) arrays stay a few MB; CHANGES.md has the timings.
PREDICT_BLOCK_ROWS = 8192


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
    embed_dim: int = 32

    def __post_init__(self):
        if self.batch_size < 2 or self.epochs < 0:
            # batch normalization needs two rows per batch
            raise ConfigError("batch_size must be >= 2 and epochs >= 0")
        if self.learning_rate < 0 or not 0 <= self.momentum < 1:
            raise ConfigError("learning_rate must be >= 0 and momentum in [0, 1)")
        if self.lead_months < 1 or self.window < 1 or self.embed_dim < 1:
            raise ConfigError("lead_months, window and embed_dim must be >= 1")
        if self.seed < 0:  # numpy seeds with non-negative integers only
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def resolved_weight_decay(self) -> float:
        if self.weight_decay is not None:
            return self.weight_decay
        if self.preset not in PRESETS:
            raise ConfigError(
                f"no preset {self.preset!r} to take weight decay from; set it explicitly"
            )
        return PRESETS[self.preset].weight_decay


# the field types of a config file's train section
TRAIN_FIELDS = field_types(TrainConfig)


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
    """Initialize a model against a prepared dataset, on learned or local edges."""
    if edge_mode not in ("learned", "local"):
        raise ConfigError(f"edge_mode must be 'learned' or 'local', got {edge_mode!r}")
    flat = local_edges(bundle.nodes) if edge_mode == "local" else None
    return init_params(
        model_cfg,
        bundle.static_features,
        bundle.nodes.latlon,
        seed=train_cfg.seed,
        embed_dim=train_cfg.embed_dim,
        max_edges=train_cfg.max_edges,
        local_edges=None if flat is None else (flat, np.ones(flat.size)),
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
    step. A state that already holds an optimizer record (one trained or
    loaded before) keeps its learning rate, momentum and weight decay and
    ignores those of ``cfg``.

    The steps run in one ``autodiff.Workspace``, so each step reuses the
    buffers of the step before, and with numpy's overflow and invalid-value
    warnings off: a diverging step ends, before its backward pass, in the
    ``NumericError`` of the first finiteness check it fails (a normalized
    pre-activation, the structure embedding or the loss; see ``autodiff``),
    with its epoch and batch appended, and prints nothing before it. The
    workspace is dropped when ``train`` returns or raises, because nothing
    after training reads its buffers: evaluation runs outside any
    workspace, in blocks of ``PREDICT_BLOCK_ROWS`` rows that peak at a
    quarter of the pool's size.
    """
    if len(samples) < 2:
        raise DataError(f"cannot train on {len(samples)} sample(s); batch normalization needs 2")
    params = state.parameters()
    if state.optimizer is None:
        velocity = {name: np.zeros_like(t.data) for name, t in params}
        state.optimizer = Sgd(cfg.learning_rate, cfg.momentum, cfg.resolved_weight_decay(), velocity)
    history: list[tuple[int, int, float]] = []
    width = samples.inputs.shape[2]
    # no cut one sample before the end, so a single trailing sample joins
    # the batch before it
    cuts = range(cfg.batch_size, len(samples) - 1, cfg.batch_size)
    with Workspace(), np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(cfg.epochs):
                order = np.random.default_rng([cfg.seed, epoch]).permutation(len(samples))
                for batch_idx, ids in enumerate(np.split(order, cuts)):
                    x = Tensor(samples.inputs[ids].reshape(-1, width))
                    y = Tensor(samples.targets[ids])
                    with Tape():
                        pred = forward_batch(state, x)
                        loss = mse_loss(pred, y)
                        backward(loss)
                    sgd_nesterov_step(params, state.optimizer)
                    history.append((epoch, batch_idx, loss.item()))
        except NumericError as exc:
            raise NumericError(f"{exc} at epoch {epoch}, batch {batch_idx}") from exc
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
    peak_a, peak_b = np.max(np.abs(a)), np.max(np.abs(b))
    if peak_a == 0.0 or peak_b == 0.0:
        raise NumericError("correlation undefined: a series has zero variance")
    # each series at unit peak, so that no product below can overflow
    a, b = a / peak_a, b / peak_b
    return float((a @ b) / np.sqrt((a @ a) * (b @ b)))


def predict_samples(model: ModelState | list[ModelState], samples: SampleSet) -> Array:
    """Evaluation predictions in the members' dtype; ensembles average
    member outputs.

    Members must forecast the same thing from the same inputs: equal lead,
    window, input width and node set (coordinates, whose NaN last row is
    the ONI node). The samples must have that window, lead, node count and
    input width.

    Each member is folded once (:func:`model.folded`) and its graph built
    once (:func:`model.model_edges`). The graph layers and pooling run over
    blocks of whole samples of at most ``PREDICT_BLOCK_ROWS`` stacked node
    rows, and the MLP head once over every sample's pooled row, with the
    bits of one pass of the folded copy over every sample. Non-finite values
    raise ``NumericError``; numpy's overflow and invalid-value warnings are
    off, so nothing prints before it. Under an open ``autodiff.Tape`` it
    raises ``RuntimeError``."""
    members = model if isinstance(model, list) else [model]
    if not members:
        raise ConfigError("ensemble is empty")
    first = members[0]
    for m in members[1:]:
        if (
            m.config.lead_months != first.config.lead_months
            or m.config.window != first.config.window
            or m.config.input_width != first.config.input_width
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
    if not len(samples):
        raise DataError("no samples to predict")
    per_block = max(1, PREDICT_BLOCK_ROWS // first.node_count)
    total = 0.0  # then the members' dtype
    with np.errstate(over="ignore", invalid="ignore"):
        for member in members:
            graph, copy = model_edges(member), folded(member)
            parts = []
            for lo in range(0, len(samples), per_block):
                x = samples.inputs[lo : lo + per_block]
                rows = Tensor(x.reshape(-1, x.shape[2]))
                parts.append(pooled_layers(copy, rows, graph).data)
            pooled = parts[0] if len(parts) == 1 else np.concatenate(parts)
            total = total + mlp_head(copy, Tensor(pooled)).data
        preds = total / len(members)
    if not np.all(np.isfinite(preds)):
        raise NumericError("predictions are not finite: the model diverged")
    return preds


def evaluate(model: ModelState | list[ModelState], samples: SampleSet) -> EvalReport:
    """Correlation skill (Pearson r) and RMSE over the predictions of
    :func:`predict_samples` (nothing mutated). Predictions so large that
    either overflows (a diverged model) raise ``NumericError``."""
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


def write_csv(path: str | Path, header: str, rows) -> None:
    """Every CSV the package writes, its directory made if missing: the
    header line, then one line per row. Floats are written as
    ``repr(float(v))``, which reads back exactly; anything else with ``str``."""

    def cell(v) -> str:
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    lines = [header, *(",".join(map(cell, row)) for row in rows)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    write_csv(path, "lead,r,rmse,n", [(report.lead_months, report.r, report.rmse, report.n)])


def write_predictions_csv(report: EvalReport, path: str | Path) -> None:
    rows = zip(range(len(report.targets)), report.targets, report.predictions)
    write_csv(path, "index,target,prediction", rows)


def write_history_csv(history: list[tuple[int, int, float]], path: str | Path) -> None:
    write_csv(path, "epoch,batch,loss", history)


# ---------------------------------------------------------------------------
# checkpoints
#
# Single file: a 4-byte magic, an 8-byte little-endian manifest length, the
# JSON manifest, then one blob of little-endian float32 values (BLOB_DTYPE),
# the dtype the loaded model computes in. The manifest is one record of
# CHECKPOINT_FIELDS, read by data.read_record: nested tables hold the model
# config, the structure's edge budget and each tensor's name, shape and
# byte offset, and the optimizer's, when present, is read with its own.
MODEL_FIELDS = field_types(GcnConfig)
STRUCTURE_FIELDS = field_types(StructureParams, drop=("static_features", "w_from", "w_to"))
OPTIMIZER_FIELDS = field_types(Sgd, drop=("velocity",))
TENSOR_FIELDS = {"name": str, "shape": list[int], "offset": int}
CHECKPOINT_FIELDS = {
    "format_version": int, "model": MODEL_FIELDS, "structure": STRUCTURE_FIELDS,
    "has_oni_node": bool, "seed": int, "optimizer": dict | None,
    "tensors": list[TENSOR_FIELDS], "blob_bytes": int,
}


def _checkpoint_entries(state: ModelState) -> dict[str, Array]:
    entries = {name: tensor.data for name, tensor in state.parameters()}
    entries.update(state.buffers())
    if state.optimizer is not None:
        for name, velocity in state.optimizer.velocity.items():
            entries[f"opt.{name}.velocity"] = velocity
    return entries


def _tensor_table(entries: dict[str, Array]) -> tuple[list[dict], int]:
    """The manifest's ``tensors``, each entry's name, shape and byte offset
    with the entries end to end, and its ``blob_bytes``, the bytes they fill."""
    table, offset = [], 0
    for name, arr in entries.items():
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += BLOB_DTYPE.itemsize * arr.size
    return table, offset


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    """Write the checkpoint to a temporary file beside ``path``, then rename
    it over ``path``, so an interrupted write leaves any previous checkpoint
    there intact. A missing directory is made first. Every tensor is
    stored as float32, so a float64 model (one built from float64 static
    features) is rounded."""
    entries = _checkpoint_entries(state)
    tensors, blob_bytes = _tensor_table(entries)
    blob = b"".join(np.ascontiguousarray(a, dtype=BLOB_DTYPE).tobytes() for a in entries.values())
    opt = state.optimizer and {k: getattr(state.optimizer, k) for k in OPTIMIZER_FIELDS}
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": asdict(state.config),
        "structure": {k: getattr(state.structure, k) for k in STRUCTURE_FIELDS},
        "has_oni_node": state.has_oni_node,
        "seed": state.seed,
        "optimizer": opt,
        "tensors": tensors,
        "blob_bytes": blob_bytes,
    }
    payload = json.dumps(manifest, sort_keys=True).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> ModelState:
    raw = read_file(Path(path))
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path} is not a checkpoint (bad magic)")
    try:
        (manifest_len,) = struct.unpack_from("<Q", raw, 4)
        manifest = json.loads(raw[12 : 12 + manifest_len].decode())
    except (struct.error, ValueError) as exc:  # a truncated header, not UTF-8, or not JSON
        raise FormatError(f"bad checkpoint {path}: {exc}") from exc
    try:
        return _decode_checkpoint(manifest, memoryview(raw)[12 + manifest_len :])
    except ConfigError as exc:  # a missing or mistyped field, or a value the model refuses
        raise FormatError(f"bad checkpoint {path}: {exc}") from exc


def _decode_checkpoint(manifest, blob: memoryview) -> ModelState:
    """The model of a checkpoint's JSON ``manifest`` and its ``blob``."""
    # the version before the fields, which differ between versions
    version = manifest.get("format_version") if type(manifest) is dict else None
    if type(version) is int and version != FORMAT_VERSION:
        raise FormatError(f"checkpoint format version {version}; "
                          f"this build reads version {FORMAT_VERSION}")
    manifest = read_record(CHECKPOINT_FIELDS, manifest, "checkpoint")
    if manifest["seed"] < 0:  # numpy seeds with non-negative integers only
        raise ConfigError(f"checkpoint.seed must be >= 0, got {manifest['seed']}")
    stored = len(blob) // BLOB_DTYPE.itemsize
    tensors = {entry["name"]: entry for entry in manifest["tensors"]}

    def grab(name: str) -> Array:  # a matrix that init_params takes, copied
        if name not in tensors:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        shape, start = tensors[name]["shape"], tensors[name]["offset"]
        # math.prod is exact (np.prod wraps 2**33 x 2**31 to 0); no size passes the blob
        if len(shape) != 2 or min(*shape, start) < 0 or max(shape) > stored or (
            start + BLOB_DTYPE.itemsize * math.prod(shape) > len(blob)
        ):
            raise ConfigError(f"checkpoint tensor {name!r} of shape {shape} at offset {start} is "
                              f"not a matrix, or overruns the checkpoint blob of {len(blob)} bytes")
        view = np.frombuffer(blob, BLOB_DTYPE, math.prod(shape), start)
        return view.reshape(shape).astype(np.float32)

    # Refuse widths whose weights alone overrun the blob before init_params
    # allocates them, build the model as training does, require the tensor
    # table that save_checkpoint writes for it, and fill each tensor from it.
    config = GcnConfig(**manifest["model"])
    dims, pooled = [config.input_width, *config.layer_dims], config.pooled_width
    size = sum(a * b for a, b in zip(dims, dims[1:])) + (pooled + 1) * (config.mlp_hidden or pooled)
    if size > stored:
        raise FormatError(f"model needs {size} weights; the blob holds {stored} values")
    static, local = grab("structure.static_features"), None
    if "local_edges" in tensors:  # a local model, which stores no structure weights
        rows, n = grab("local_edges"), static.shape[0]
        ends = rows[:, :2]
        if rows.shape[1] != 3 or not np.all((ends >= 0) & (ends < n) & (ends == np.floor(ends))):
            raise ConfigError(f"checkpoint tensor 'local_edges' must hold (row, col, value) rows "
                              f"whose row and col are node indices below {n}")
        i, j = ends.astype(np.int64).T
        local = (i * n + j, rows[:, 2])
    state = init_params(
        config,
        static,
        grab("node_latlon"),
        seed=manifest["seed"],
        embed_dim=1 if local else grab("structure.w_from").shape[1],
        local_edges=local,
        **manifest["structure"],
    )
    if manifest["optimizer"] is not None:
        opt = read_record(OPTIMIZER_FIELDS, manifest["optimizer"], "checkpoint.optimizer")
        velocity = {name: np.zeros_like(t.data) for name, t in state.parameters()}
        state.optimizer = Sgd(**opt, velocity=velocity)
    entries = _checkpoint_entries(state)
    table, blob_bytes = _tensor_table(entries)
    if manifest["tensors"] != table:
        pairs = enumerate(zip_longest(table, manifest["tensors"]))
        i, want, found = next((i, w, f) for i, (w, f) in pairs if w != f)
        raise FormatError(f"checkpoint.tensors[{i}] is {found} where the model has {want}")
    if not len(blob) == manifest["blob_bytes"] == blob_bytes:
        raise FormatError(f"checkpoint blob holds {len(blob)} bytes, its manifest says "
                          f"{manifest['blob_bytes']} and its tensors fill {blob_bytes}")
    for target, entry in zip(entries.values(), table):
        view = np.frombuffer(blob, BLOB_DTYPE, target.size, entry["offset"])
        target[...] = view.reshape(target.shape)
    # the ONI node is the one NaN row of node_latlon, and it is last
    oni_node = manifest["has_oni_node"]
    nan_rows = np.isnan(state.node_latlon).any(axis=1).tolist()
    if nan_rows != [False] * (len(nan_rows) - 1) + [oni_node]:
        raise FormatError(
            f"checkpoint.has_oni_node is {json.dumps(oni_node)}, but node_latlon has "
            f"NaN rows {[i for i, nan in enumerate(nan_rows) if nan]} of {len(nan_rows)}"
        )
    finite = np.isfinite(np.frombuffer(blob, BLOB_DTYPE))
    if oni_node:  # its NaN row, the last of node_latlon, is checked above
        end = tensors["node_latlon"]["offset"] // BLOB_DTYPE.itemsize + state.node_latlon.size
        finite[end - 2 : end] = True
    if not finite.all():
        at = BLOB_DTYPE.itemsize * int(np.argmin(finite))
        name = next(e["name"] for e in reversed(table) if e["offset"] <= at)
        raise FormatError(f"checkpoint tensor {name!r} holds a non-finite value")
    return state
