"""Seasonal ONI forecasting with a graph neural network that learns its
own global connectivity structure, plus the centrality and skill tooling
used to interpret and evaluate it."""

from .autodiff import RunningStats, Sgd, Tape, Tensor, backward, grad_check
from .centrality import CentralityScores, eigenvector_centrality
from .data import (
    GridSet,
    NodeIndex,
    SampleSet,
    build_samples,
    compute_oni_series,
    land_filter_nodes,
    load_gridset,
    local_edges,
    prepare_dataset,
    save_gridset,
    synth_teleconnection_dataset,
)
from .model import GcnConfig, ModelState, PRESETS, init_params
from .structure import StructureParams, kept_edges
from .training import (
    EvalReport,
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    predict_samples,
    save_checkpoint,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
