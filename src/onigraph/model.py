"""Graph regression network for the ONI forecast.

Stacked graph convolutions over a learned (or fixed local) adjacency,
batch normalization over the feature dimension in place of in-degree
normalization followed by ELU activations, a residual connection in every
layer whose input and output widths are equal, a jumping-knowledge readout
that pools every layer's node rows per graph straight into the head input
(one op, ``autodiff.pool_blocks``), and a two-layer MLP head that emits one
scalar; its first layer has no bias, which the batch mean subtracted after
it would cancel (Ioffe & Szegedy 2015, section 3.2). Each normalization is
a :class:`NormParams`, which runs the fused normalize+ELU op
``autodiff.batchnorm_features`` on batch statistics.

A batch of samples is processed as independent graph passes sharing one
graph; normalization statistics are taken over the stacked
(batch * nodes) row axis.

The forward pass has two parts. :func:`pooled_layers` runs the graph
layers and the readout over a given graph (the edges and values of
:func:`model_edges`) and returns one pooled row per sample; :func:`mlp_head`
maps those rows to predictions. :func:`forward_batch`, the training pass,
builds the graph and runs both parts over one batch. Evaluation
(``training.predict_samples``) runs them on :func:`folded`, a copy whose
running statistics are folded into the weights, where each sample's rows
go through fixed weights and shifts alone.

The graph is an edge list with implicit unit self-loops
(:func:`model_edges`): the kept edges of the structure learner, or the
fixed local edges (``data.local_edges``), held as an ``EdgeIndex`` from
:func:`init_params` on and stored as edge rows in a checkpoint
(:meth:`ModelState.buffers`). Every layer aggregates over it with
``autodiff.edge_block_matmul``, which builds its operator on each call: a
CSR matrix on a sparse graph, else the dense I + A for BLAS products;
scipy is imported for sparse graphs only. :func:`model_adjacency` scatters
the same graph into the dense I + A that ``cli.graph_centrality`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import POOLINGS, RunningStats, Tensor
from .errors import ConfigError, DimensionError
from .structure import StructureParams, kept_edges

Array = np.ndarray


@dataclass
class GcnConfig:
    """Architecture of one ensemble member."""

    layer_dims: list[int]
    pooling: str = "mean"
    mlp_hidden: int | None = None  # None: same width as the pooled embedding
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
    def pooled_width(self) -> int:
        d = sum(self.layer_dims)  # jumping knowledge: every layer is pooled
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


@dataclass
class NormParams:
    """One normalization's learned scale and shift and its running
    statistics."""

    gamma: Tensor
    beta: Tensor
    running: RunningStats

    def folded(self) -> tuple[Array, Array]:
        """(scale, shift) of the per-column map ``h * scale + shift`` that
        the normalization is with its running statistics: ``scale = gamma /
        sqrt(running_var + BN_EPS)`` with the bits of
        ``autodiff.batchnorm_features``' scale, ``shift = beta -
        running_mean * scale``. :func:`folded` applies them."""
        scale = self.gamma.data * (1.0 / np.sqrt(self.running.var + ad.BN_EPS))
        return scale, self.beta.data - self.running.mean * scale

    def __call__(self, h: Tensor) -> Tensor:
        """``autodiff.batchnorm_features``: batch statistics, then the ELU."""
        return ad.batchnorm_features(h, self.gamma, self.beta, self.running)


@dataclass(frozen=True)
class Shift:
    """A :func:`folded` copy's normalization, its scale in the weight before
    it: ``autodiff.shift_elu`` adds ``shift`` and applies the ELU."""

    shift: Array

    def __call__(self, h: Tensor) -> Tensor:
        return ad.shift_elu(h, self.shift)


@dataclass
class ModelState:
    """Everything needed to reproduce a forward pass exactly."""

    config: GcnConfig
    structure: StructureParams
    gcn_weights: list[Tensor]
    gcn_norms: list[NormParams | Shift]  # Shift in a folded copy only
    mlp_w1: Tensor
    mlp_norm: NormParams | Shift
    mlp_w2: Tensor
    mlp_b2: Tensor
    node_latlon: Array  # (N, 2) degrees; NaN row for a non-geographic node
    seed: int = 0
    optimizer: ad.Sgd | None = None
    # the fixed graph's edges and values in local mode; None in learned mode
    local_edges: tuple[ad.EdgeIndex, Tensor] | None = None

    @property
    def node_count(self) -> int:
        return self.structure.static_features.shape[0]

    @property
    def has_oni_node(self) -> bool:  # its coordinates are NaN, and it is last
        return bool(np.isnan(self.node_latlon[-1]).any())

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in a stable order."""
        params: list[tuple[str, Tensor]] = []
        if self.local_edges is None:
            params.append(("structure.w_from", self.structure.w_from))
            params.append(("structure.w_to", self.structure.w_to))
        for i, (w, norm) in enumerate(zip(self.gcn_weights, self.gcn_norms)):
            params.append((f"gcn.{i}.weight", w))
            params.append((f"gcn.{i}.gamma", norm.gamma))
            params.append((f"gcn.{i}.beta", norm.beta))
        params.extend(
            [
                ("mlp.w1", self.mlp_w1),
                ("mlp.gamma", self.mlp_norm.gamma),
                ("mlp.beta", self.mlp_norm.beta),
                ("mlp.w2", self.mlp_w2),
                ("mlp.b2", self.mlp_b2),
            ]
        )
        return params

    def buffers(self) -> list[tuple[str, Array]]:
        """Non-trainable arrays that still belong in a checkpoint; in local
        mode the fixed graph last, one (row, col, value) row per edge of
        ``local_edges`` (float32 holds node indices exactly below 2**24),
        and not the structure weights, which a local model never reads."""
        buffers = [
            ("structure.static_features", self.structure.static_features.data),
            ("node_latlon", self.node_latlon),
        ]
        for i, norm in enumerate(self.gcn_norms):
            buffers.append((f"gcn.{i}.running_mean", norm.running.mean))
            buffers.append((f"gcn.{i}.running_var", norm.running.var))
        buffers.append(("mlp.running_mean", self.mlp_norm.running.mean))
        buffers.append(("mlp.running_var", self.mlp_norm.running.var))
        if self.local_edges is not None:
            edges, values = self.local_edges
            buffers.append(("local_edges", np.column_stack((edges.rows, edges.cols, values.data))))
        return buffers


def init_params(
    config: GcnConfig,
    static_features: Array,
    node_latlon: Array,
    seed: int,
    *,
    embed_dim: int,
    max_edges: int | None,
    local_edges: tuple[Array, Array] | None = None,
) -> ModelState:
    """Fresh model: Glorot-uniform weights from a seeded generator, unit
    batchnorm scales, zero shifts and biases. Every parameter, running
    statistic and fixed edge value takes the dtype of ``static_features``:
    float32 as ``data.prepare_dataset`` hands them over, float64 for
    anything else (see ``autodiff.Tensor``), from the same draws either
    way. The embedding width and the edge budget have their defaults in
    ``training.TrainConfig``; an edge budget of None becomes eight times the
    node count.

    ``local_edges`` makes a local model: ascending off-diagonal flat
    indices ``i * N + j`` below N**2 (``data.local_edges``) and one value
    each, self-loops implicit; None makes a learned model. The structure
    weights are drawn in both modes, so later draws do not depend on the mode."""
    static = Tensor(static_features)
    dtype = static.data.dtype
    node_latlon = np.asarray(node_latlon, dtype=np.float64)
    n, d_in = static.shape
    if node_latlon.shape != (n, 2):
        raise ConfigError(f"node_latlon shape {node_latlon.shape} does not match {n} nodes")
    if local_edges is not None:
        flat, values = (np.asarray(a) for a in local_edges)
        if not (flat.dtype.kind in "iu" and flat.ndim == 1 and values.shape == flat.shape
                and np.all(flat[1:] > flat[:-1]) and np.all((flat >= 0) & (flat < n * n))
                and np.all(flat // n != flat % n)):
            raise ConfigError(f"local_edges must be ascending off-diagonal flat indices below "
                              f"{n}**2, one value each")
        local_edges = (ad.EdgeIndex.from_flat(n, flat), Tensor(values.astype(dtype)))
    if max_edges is None:
        max_edges = min(8 * n, n * (n - 1))

    rng = np.random.default_rng(seed)

    def weights(fan_in: int, fan_out: int) -> Tensor:  # Glorot-uniform
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        draws = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return Tensor(draws.astype(dtype), requires_grad=True)

    def norm(width: int) -> NormParams:
        return NormParams(
            gamma=Tensor(np.ones(width, dtype), requires_grad=True),
            beta=Tensor(np.zeros(width, dtype), requires_grad=True),
            running=RunningStats.initial(width, dtype),
        )

    structure = StructureParams(
        static_features=static,
        w_from=weights(d_in, embed_dim),
        w_to=weights(d_in, embed_dim),
        max_edges=max_edges,
    )

    gcn_weights, gcn_norms = [], []
    width = config.input_width
    for dim in config.layer_dims:
        gcn_weights.append(weights(width, dim))
        gcn_norms.append(norm(dim))
        width = dim

    pooled = config.pooled_width
    hidden = config.mlp_hidden or pooled
    return ModelState(
        config=config,
        structure=structure,
        gcn_weights=gcn_weights,
        gcn_norms=gcn_norms,
        mlp_w1=weights(pooled, hidden),
        mlp_norm=norm(hidden),
        mlp_w2=weights(hidden, 1),
        mlp_b2=Tensor(np.zeros(1, dtype), requires_grad=True),
        node_latlon=node_latlon,
        seed=seed,
        local_edges=local_edges,
    )


def gcn_layer(
    graph: tuple[ad.EdgeIndex, Tensor], z: Tensor, weight: Tensor, norm: NormParams | Shift
) -> Tensor:
    """One graph convolution over stacked node rows: aggregate over
    ``graph`` (the edges and values of :func:`model_edges`, I + A per
    graph), transform, normalize over features and apply the ELU with
    ``norm``, then add the input back when ``weight`` is square. In a
    :func:`folded` copy the weight's columns carry the normalization's
    scale (aggregation mixes rows only, so the scale commutes with it) and
    ``norm`` is the :class:`Shift`."""
    edges, values = graph
    # A(ZW) = (AZ)W: aggregate over the graph at the narrower of the two widths
    if weight.shape[1] < weight.shape[0]:
        h = ad.edge_block_matmul(values, edges, ad.matmul(z, weight))
    else:
        h = ad.matmul(ad.edge_block_matmul(values, edges, z), weight)
    # nothing reads h after its normalization, which works in h's own array
    out = norm(h)
    if weight.shape[0] == weight.shape[1]:
        out = ad.add(out, z)
    return out


def mlp_head(state: ModelState, pooled: Tensor) -> Tensor:
    """A linear layer, feature batchnorm and the ELU, then an affine layer
    with no activation."""
    if pooled.shape[1] != state.mlp_w1.shape[0]:
        raise DimensionError(
            f"pooled width {pooled.shape[1]} does not match head input {state.mlp_w1.shape[0]}"
        )
    h = state.mlp_norm(ad.matmul(pooled, state.mlp_w1))
    out = ad.add_row_bias(ad.matmul(h, state.mlp_w2), state.mlp_b2)
    return ad.flatten(out)


def folded(state: ModelState) -> ModelState:
    """The copy of ``state`` that evaluation runs, and the one place the
    running statistics are applied: each weight before a normalization
    times that normalization's scale (:meth:`NormParams.folded`) and each
    normalization replaced by the :class:`Shift` of its shift. ``state`` is
    left as it was; the copy shares its graph."""
    folds = [norm.folded() for norm in state.gcn_norms]
    scale, shift = state.mlp_norm.folded()
    return replace(
        state,
        gcn_weights=[Tensor(w.data * s) for w, (s, _) in zip(state.gcn_weights, folds)],
        gcn_norms=[Shift(b) for _, b in folds],
        mlp_w1=Tensor(state.mlp_w1.data * scale),
        mlp_norm=Shift(shift),
    )


def model_edges(
    state: ModelState, edges: ad.EdgeIndex | None = None
) -> tuple[ad.EdgeIndex, Tensor]:
    """The model's graph as off-diagonal edges and their values, the unit
    self-loops implicit: the structure learner's kept edges (scored at the
    frozen ``edges`` if given), or the fixed local edges in ablation mode,
    built by :func:`init_params`."""
    return state.local_edges or kept_edges(state.structure, edges)


def model_adjacency(state: ModelState) -> Tensor:
    """The model's graph as the dense (N, N) matrix I + A, a constant
    scattered from :func:`model_edges`: node i reads from node j where
    ``A[i, j] > 0``. ``cli.graph_centrality`` reads this form."""
    edges, values = model_edges(state)
    return Tensor(edges.dense(values.data, self_loops=True))


def pooled_layers(state: ModelState, x: Tensor, graph: tuple[ad.EdgeIndex, Tensor]) -> Tensor:
    """The graph layers and the pooling readout over ``graph``, the edges
    and values of :func:`model_edges`: B stacked samples, (B * N, w * D)
    rows, pooled to the (B, P) head input. A row count that is not a
    multiple of N raises ``DimensionError``."""
    cfg = state.config
    n = state.node_count
    if x.data.ndim != 2 or x.shape[0] % n or x.shape[1] != cfg.input_width:
        raise DimensionError(
            f"input shape {x.shape} is not samples of ({n}, {cfg.input_width}) stacked rows"
        )
    z = x
    layer_outputs = []
    for weight, norm in zip(state.gcn_weights, state.gcn_norms):
        z = gcn_layer(graph, z, weight, norm)
        layer_outputs.append(z)
    return ad.pool_blocks(layer_outputs, n, cfg.pooling)


def forward_batch(state: ModelState, x: Tensor, edges: ad.EdgeIndex | None = None) -> Tensor:
    """The training pass: predictions for B stacked samples, (B * N, w * D)
    input, (B,) output, normalized with batch statistics. The whole pass,
    graph included, is recorded on the ambient tape so one backward reaches
    the network and the structure learner jointly. ``edges`` freezes the
    learned edge set (see :func:`model_edges`)."""
    return mlp_head(state, pooled_layers(state, x, model_edges(state, edges)))
