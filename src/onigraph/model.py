"""Graph regression network for the ONI forecast.

Stacked graph convolutions over a learned (or fixed local) adjacency,
batch normalization over the feature dimension in place of in-degree
normalization followed by ELU activations, optional residual connections
between equal-width layers, jumping-knowledge concatenation of all layer
outputs, graph pooling, and a two-layer MLP head that emits one scalar.
Normalization and activation run as one fused op,
``autodiff.batchnorm_features`` with an ``activation``, in every layer and
in the head.

A batch of samples is processed as independent graph passes sharing one
graph; normalization statistics are taken over the stacked
(batch * nodes) row axis.

The graph is an edge list with implicit unit self-loops
(:func:`model_edges`): the kept edges of the structure learner, or the
nonzero off-diagonal entries of a fixed local matrix. Every layer
aggregates over it with ``autodiff.edge_block_matmul``, which runs CSR
products on a sparse graph and dense BLAS products otherwise; scipy is
imported for sparse graphs only. :func:`model_adjacency` scatters the
same graph into the dense I + A that centrality and exports read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import RunningStats, Tensor
from .errors import ConfigError, DimensionError
from .structure import StructureParams, kept_edges

Array = np.ndarray

BN_EPS = 1e-5

POOLINGS = ("mean", "sum_and_mean")

@dataclass
class GcnConfig:
    """Architecture of one ensemble member."""

    layer_dims: list[int]
    pooling: str = "mean"
    mlp_hidden: int | None = None  # None: same width as the pooled embedding
    activation: str = "elu"
    use_residual: bool = True
    use_jumping_knowledge: bool = True
    window: int = 3  # months of input per sample
    features_per_node: int = 2  # SST anomaly + heat content anomaly
    lead_months: int = 1

    def __post_init__(self):
        if not self.layer_dims or any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"layer_dims must be non-empty positive ints, got {self.layer_dims}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        if self.window < 1 or self.features_per_node < 1 or self.lead_months < 1:
            raise ConfigError("window, features_per_node and lead_months must be >= 1")
        if self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be None or >= 1, got {self.mlp_hidden}")

    @property
    def input_width(self) -> int:
        return self.window * self.features_per_node

    @property
    def representation_width(self) -> int:
        d = sum(self.layer_dims) if self.use_jumping_knowledge else self.layer_dims[-1]
        return d

    @property
    def pooled_width(self) -> int:
        d = self.representation_width
        return 2 * d if self.pooling == "sum_and_mean" else d


@dataclass(frozen=True)
class Preset:
    layer_dims: tuple[int, ...]
    pooling: str
    weight_decay: float


# The four-member default ensemble: two 2-layer nets with mean pooling and
# light decay, two 3-layer nets with concatenated sum+mean pooling and
# stronger decay against their larger capacity.
PRESETS: dict[str, Preset] = {
    "gcn2a": Preset((250, 100), "mean", 1e-6),
    "gcn2b": Preset((250, 250), "mean", 1e-6),
    "gcn3a": Preset((200, 200, 200), "sum_and_mean", 1e-4),
    "gcn3b": Preset((250, 250, 250), "sum_and_mean", 1e-3),
}

DEFAULT_ENSEMBLE = ("gcn2a", "gcn2b", "gcn3a", "gcn3b")


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor
    running: RunningStats


@dataclass
class ModelState:
    """Everything needed to reproduce a forward pass exactly."""

    config: GcnConfig
    structure: StructureParams
    gcn_weights: list[Tensor]
    gcn_norms: list[NormParams]
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_norm: NormParams
    mlp_w2: Tensor
    mlp_b2: Tensor
    node_latlon: Array  # (N, 2) degrees; NaN row for a non-geographic node
    has_oni_node: bool = False
    edge_mode: str = "learned"  # "learned" | "local"
    fixed_adjacency: Array | None = None
    seed: int = 0
    optimizer: dict[str, ad.OptimizerState] | None = None

    @property
    def node_count(self) -> int:
        return self.structure.static_features.shape[0]

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in a stable order."""
        params: list[tuple[str, Tensor]] = []
        if self.edge_mode == "learned":
            params.append(("structure.w_from", self.structure.w_from))
            params.append(("structure.w_to", self.structure.w_to))
        for i, (w, norm) in enumerate(zip(self.gcn_weights, self.gcn_norms)):
            params.append((f"gcn.{i}.weight", w))
            params.append((f"gcn.{i}.gamma", norm.gamma))
            params.append((f"gcn.{i}.beta", norm.beta))
        params.extend(
            [
                ("mlp.w1", self.mlp_w1),
                ("mlp.b1", self.mlp_b1),
                ("mlp.gamma", self.mlp_norm.gamma),
                ("mlp.beta", self.mlp_norm.beta),
                ("mlp.w2", self.mlp_w2),
                ("mlp.b2", self.mlp_b2),
            ]
        )
        return params

    def buffers(self) -> list[tuple[str, Array]]:
        """Non-trainable arrays that still belong in a checkpoint."""
        buffers: list[tuple[str, Array]] = [
            ("structure.static_features", self.structure.static_features.data),
            ("node_latlon", self.node_latlon),
        ]
        for i, norm in enumerate(self.gcn_norms):
            buffers.append((f"gcn.{i}.running_mean", norm.running.mean))
            buffers.append((f"gcn.{i}.running_var", norm.running.var))
        buffers.append(("mlp.running_mean", self.mlp_norm.running.mean))
        buffers.append(("mlp.running_var", self.mlp_norm.running.var))
        return buffers


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    config: GcnConfig,
    static_features: Array,
    node_latlon: Array,
    seed: int,
    has_oni_node: bool = False,
    embed_dim: int = 32,
    feature_gain: float = 1.0,
    score_gain: float = 2.0,
    max_edges: int | None = None,
    edge_mode: str = "learned",
    fixed_adjacency: Array | None = None,
) -> ModelState:
    """Fresh model: Glorot-uniform weights from a seeded generator, unit
    batchnorm scales, zero shifts and biases. An unset edge budget defaults
    to eight times the node count."""
    static_features = np.asarray(static_features, dtype=np.float64)
    node_latlon = np.asarray(node_latlon, dtype=np.float64)
    n, d_in = static_features.shape
    if node_latlon.shape != (n, 2):
        raise ConfigError(f"node_latlon shape {node_latlon.shape} does not match {n} nodes")
    if edge_mode not in ("learned", "local"):
        raise ConfigError(f"edge_mode must be 'learned' or 'local', got {edge_mode!r}")
    if edge_mode == "local":
        if fixed_adjacency is None or fixed_adjacency.shape != (n, n):
            raise ConfigError("local edge mode needs a fixed (N, N) adjacency")
        if np.any(np.diag(fixed_adjacency) != 1.0):
            raise ConfigError("a fixed local adjacency needs ones on its diagonal (self-loops)")
    if max_edges is None:
        max_edges = min(8 * n, n * (n - 1))

    rng = np.random.default_rng(seed)
    structure = StructureParams(
        static_features=Tensor(static_features),
        w_from=Tensor(_glorot(rng, d_in, embed_dim, (d_in, embed_dim)), requires_grad=True),
        w_to=Tensor(_glorot(rng, d_in, embed_dim, (d_in, embed_dim)), requires_grad=True),
        feature_gain=feature_gain,
        score_gain=score_gain,
        max_edges=max_edges,
    )

    gcn_weights, gcn_norms = [], []
    width = config.input_width
    for dim in config.layer_dims:
        gcn_weights.append(Tensor(_glorot(rng, width, dim, (width, dim)), requires_grad=True))
        gcn_norms.append(
            NormParams(
                gamma=Tensor(np.ones(dim), requires_grad=True),
                beta=Tensor(np.zeros(dim), requires_grad=True),
                running=RunningStats.initial(dim),
            )
        )
        width = dim

    pooled = config.pooled_width
    hidden = config.mlp_hidden or pooled
    return ModelState(
        config=config,
        structure=structure,
        gcn_weights=gcn_weights,
        gcn_norms=gcn_norms,
        mlp_w1=Tensor(_glorot(rng, pooled, hidden, (pooled, hidden)), requires_grad=True),
        mlp_b1=Tensor(np.zeros(hidden), requires_grad=True),
        mlp_norm=NormParams(
            gamma=Tensor(np.ones(hidden), requires_grad=True),
            beta=Tensor(np.zeros(hidden), requires_grad=True),
            running=RunningStats.initial(hidden),
        ),
        mlp_w2=Tensor(_glorot(rng, hidden, 1, (hidden, 1)), requires_grad=True),
        mlp_b2=Tensor(np.zeros(1), requires_grad=True),
        node_latlon=node_latlon,
        has_oni_node=has_oni_node,
        edge_mode=edge_mode,
        fixed_adjacency=None if fixed_adjacency is None else np.asarray(fixed_adjacency, float),
        seed=seed,
    )


def gcn_layer(
    aggregate: Callable[[Tensor], Tensor],
    z: Tensor,
    weight: Tensor,
    norm: NormParams | None = None,
    activation: str = "elu",
    use_residual: bool = False,
    mode: str = "train",
) -> Tensor:
    """One graph convolution over stacked node rows: aggregate with
    ``aggregate`` (a function of the (B * N, D) rows applying I + A per
    graph), transform, normalize over features and activate in one fused
    op (activate only, without ``norm``), then add the input back when a
    residual is requested (widths must match)."""
    if use_residual and weight.shape[0] != weight.shape[1]:
        raise ConfigError(
            f"residual needs equal layer widths, got {weight.shape[0]} -> {weight.shape[1]}"
        )
    # A(ZW) = (AZ)W: aggregate over the graph at the narrower of the two widths
    if weight.shape[1] < weight.shape[0]:
        h = aggregate(ad.matmul(z, weight))
    else:
        h = ad.matmul(aggregate(z), weight)
    if norm is None:
        out = ad.unary_activation(h, activation)
    else:
        out = ad.batchnorm_features(
            h, norm.gamma, norm.beta, BN_EPS, mode, norm.running, activation
        )
    if use_residual:
        out = ad.add(out, z)
    return out


def jumping_knowledge_concat(layers: list[Tensor]) -> Tensor:
    """Per-node concatenation of every layer's embeddings, in layer order."""
    return ad.concat_features(layers)


def pool_graph(z: Tensor, block_rows: int, kind: str) -> Tensor:
    """Aggregate the node embeddings of each graph of ``block_rows`` stacked
    rows into one vector: column mean, or column sum concatenated with
    column mean. (B * N, D) -> (B, D) or (B, 2D)."""
    if kind not in POOLINGS:
        raise ConfigError(f"pooling must be one of {POOLINGS}, got {kind!r}")
    pooled = ad.block_reduce(z, block_rows, "mean")
    if kind == "sum_and_mean":
        pooled = ad.concat_features([ad.block_reduce(z, block_rows, "sum"), pooled])
    return pooled


def mlp_head(state: ModelState, pooled: Tensor, mode: str = "eval") -> Tensor:
    """Two affine layers with feature batchnorm and the configured
    activation in between, one fused op; the final affine has no
    activation."""
    if pooled.data.ndim == 1:
        pooled = ad.reshape(pooled, (1, pooled.shape[0]))
    if pooled.shape[1] != state.mlp_w1.shape[0]:
        raise DimensionError(
            f"pooled width {pooled.shape[1]} does not match head input {state.mlp_w1.shape[0]}"
        )
    h = ad.add_row_bias(ad.matmul(pooled, state.mlp_w1), state.mlp_b1)
    norm = state.mlp_norm
    h = ad.batchnorm_features(
        h, norm.gamma, norm.beta, BN_EPS, mode, norm.running, state.config.activation
    )
    out = ad.add_row_bias(ad.matmul(h, state.mlp_w2), state.mlp_b2)
    return ad.flatten(out)


def model_edges(
    state: ModelState, edges: ad.EdgeIndex | None = None
) -> tuple[ad.EdgeIndex, Tensor]:
    """The model's graph as off-diagonal edges and their values, the unit
    self-loops implicit: the structure learner's kept edges (scored at the
    frozen ``edges`` if given), or the nonzero off-diagonal entries of the
    fixed local matrix in ablation mode."""
    if state.edge_mode == "local":
        local = ad.EdgeIndex.from_flat(state.node_count, np.flatnonzero(state.fixed_adjacency))
        return local, Tensor(state.fixed_adjacency[local.rows, local.cols])
    return kept_edges(state.structure, edges)


def model_adjacency(state: ModelState) -> Tensor:
    """The model's graph as the dense (N, N) matrix I + A, a constant
    scattered from :func:`model_edges`: node i reads from node j where
    ``A[i, j] > 0``. Exports and centrality read this form."""
    edges, values = model_edges(state)
    return Tensor(edges.dense(values.data, self_loops=True))


def forward_batch(
    state: ModelState,
    x: Tensor,
    batch: int,
    mode: str = "train",
    edges: ad.EdgeIndex | None = None,
) -> Tensor:
    """Predictions for ``batch`` stacked samples: (batch * N, w * D) input,
    (batch,) output. In train mode the whole pass, graph included, is
    recorded on the ambient tape so one backward reaches the network and
    the structure learner jointly. ``edges`` freezes the learned edge set
    (see :func:`model_edges`)."""
    cfg = state.config
    n = state.node_count
    if x.shape != (batch * n, cfg.input_width):
        raise DimensionError(
            f"input shape {x.shape} does not match {batch} x ({n}, {cfg.input_width})"
        )
    edges, values = model_edges(state, edges)

    def aggregate(h):
        return ad.edge_block_matmul(values, edges, h)

    z = x
    layer_outputs = []
    for weight, norm in zip(state.gcn_weights, state.gcn_norms):
        z = gcn_layer(
            aggregate, z, weight, norm, cfg.activation,
            cfg.use_residual and weight.shape[0] == weight.shape[1],
            mode,
        )
        layer_outputs.append(z)
    rep = jumping_knowledge_concat(layer_outputs) if cfg.use_jumping_knowledge else z
    return mlp_head(state, pool_graph(rep, n, cfg.pooling), mode)
