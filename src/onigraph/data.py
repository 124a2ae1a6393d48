"""Gridded-anomaly data layer.

A :class:`GridSet` holds monthly SST and heat-content anomaly fields on a
regular lat/lon grid with a land mask, stored on disk as a small directory
container (JSON manifest + raw little-endian binaries). On top of it sit
node enumeration, ONI label computation, window/lead sample construction,
the aggregate ONI node, the fixed local edges used by the connectivity
ablation, and a synthetic teleconnection generator for desk-scale
experiments.

All fields are anomalies; climatology subtraction happens upstream of the
container (e.g. when converting reanalysis archives such as SODA/GODAS).
"""

from __future__ import annotations

import json
import math
import re
import stat
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, FormatError

Array = np.ndarray

KNOWN_VARIABLES = ("sst_anomaly", "heat_content_anomaly")

# ONI region: 5N-5S, 120W-170W, i.e. 190E-240E on the 0-360 convention
ONI_LAT = (-5.0, 5.0)
ONI_LON = (190.0, 240.0)
ONI_CENTER_LATLON = (0.0, 215.0)

MANIFEST_NAME = "manifest.json"
# beside a synthetic grid, what its generator planted (:class:`SynthSpec`)
SPEC_NAME = "synth_spec.json"


# ---------------------------------------------------------------------------
# typed JSON records: config sections, checkpoint manifests, grid manifests, specs


def field_types(source, drop=()) -> dict:
    """The annotated types of a class's fields or a function's parameters,
    less ``drop``. Resolve each table once, at import.
    Raises TypeError for a hint :func:`_typed` cannot check."""
    types = {k: v for k, v in get_type_hints(source).items() if k not in drop}
    if bad := [f"{k}: {v}" for k, v in types.items() if not _checkable(v)]:
        raise TypeError(f"{source.__qualname__}: use a plain class, list[X] or X | None, not {bad}")
    return types


def _checkable(hint) -> bool:
    """Whether :func:`_typed` checks ``hint``: a plain class, ``list[X]``, or
    ``X | None`` with X one of those."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return len(args) == 1 and _checkable(args[0])
    if get_origin(hint) in (Union, UnionType):
        return len(args) == 2 and args[1] is type(None) and _checkable(args[0])
    return type(hint) is type


def _typed(value, hint, where: str):
    """value as the annotated type: ints widen to float, floats must be
    finite, a bool is never an int, and nothing else converts. A field
    table reads a record, and each record of a list is named by its index."""
    if hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is hint:  # never true of a generic hint or a table, which fall through
        return value
    elif type(hint) is dict:
        return read_record(hint, value, where)
    elif get_origin(hint) is list:
        if isinstance(value, list):
            item = get_args(hint)[0]
            if type(item) is dict:  # records are named by index, other items by their list
                return [read_record(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
            return [_typed(v, item, where) for v in value]
    elif get_args(hint):  # X | None
        return None if value is None else _typed(value, get_args(hint)[0], where)
    name = "finite float" if hint is float else getattr(hint, "__name__", str(hint))
    raise ConfigError(f"{where} must be of type {name}, got {value!r}")


def read_record(types: dict, values, where: str, partial: bool = False) -> dict:
    """The JSON object ``values``, each value as its type in the table
    ``types`` (:func:`_typed`), so that one call reads a file whole. Every
    key must be in the table, and every field of the table present unless
    ``partial``. Raises ConfigError naming the path of the field."""
    if type(values) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {type(values).__name__}")
    if unknown := values.keys() - types.keys():
        raise ConfigError(f"unknown key {min(unknown)!r} in {where}; {where} takes {list(types)}")
    if len(values) < len(types) and not partial:
        raise ConfigError(f"{where} is missing {[k for k in types if k not in values]}")
    return {k: _typed(v, types[k], f"{where}.{k}") for k, v in values.items()}


@dataclass
class GridSet:
    """Monthly anomaly fields on a regular grid.

    data is float64 in memory, laid out [time][variable][lat][lon];
    land cells (mask True) hold 0.0 in every variable and month. The ONI
    series and the static features are computed from it in float64; the
    samples round it to the model's float32 (:func:`build_samples`).
    """

    n_lat: int
    n_lon: int
    lat0: float
    dlat: float
    lon0: float
    dlon: float
    start_month: str  # "YYYY-MM"
    n_time: int
    variables: list[str]
    land_mask: Array  # bool (n_lat, n_lon), True = land
    data: Array  # float64 (n_time, n_vars, n_lat, n_lon)

    def __post_init__(self):
        expected = (self.n_time, len(self.variables), self.n_lat, self.n_lon)
        if tuple(self.data.shape) != expected:
            raise FormatError(f"data shape {self.data.shape} does not match {expected}")
        if tuple(self.land_mask.shape) != (self.n_lat, self.n_lon):
            raise FormatError(f"mask shape {self.land_mask.shape} does not match grid")
        for name in self.variables:
            if name not in KNOWN_VARIABLES:
                raise FormatError(f"unknown variable name {name!r}")
            if self.variables.count(name) > 1:
                raise FormatError(f"variable {name!r} is named more than once")
        axes = (self.lat0, self.dlat, self.n_lat, 90), (self.lon0, self.dlon, self.n_lon, 360)
        if not all(abs(a) <= b and abs(a + d * (n - 1)) <= b for a, d, n, b in axes):
            raise FormatError("grid latitudes must lie within +-90 and longitudes within +-360")

    @property
    def lats(self) -> Array:
        return self.lat0 + self.dlat * np.arange(self.n_lat)

    @property
    def lons(self) -> Array:
        return self.lon0 + self.dlon * np.arange(self.n_lon)

    def calendar_month(self, t: int | Array) -> int | Array:
        """Calendar month (1..12) of time index ``t``, or of each index in an array."""
        start = int(self.start_month.split("-")[1])
        return (start - 1 + t) % 12 + 1


# the fields of a grid manifest: the GridSet's, with the names of its two binaries
GRID_FIELDS = {**field_types(GridSet, ("land_mask", "data")), "mask_file": str, "data_file": str}


def save_gridset(grid: GridSet, path: str | Path) -> None:
    """Write the directory container: manifest.json, mask.bin (one 0/1 byte
    per cell, lat-major) and data.bin (little-endian float32,
    [time][variable][lat][lon] row-major)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    files = {"mask_file": "mask.bin", "data_file": "data.bin"}
    manifest = {k: files[k] if k in files else getattr(grid, k) for k in GRID_FIELDS}
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (directory / manifest["mask_file"]).write_bytes(grid.land_mask.astype(np.uint8).tobytes())
    (directory / manifest["data_file"]).write_bytes(grid.data.astype("<f4").tobytes())


def read_file(path: Path, size: int | None = None) -> bytes:
    """The bytes of ``path``, which must be a regular file of ``size`` bytes
    if given: a pipe or a device, whose read could block, is never opened."""
    try:
        info = path.stat()
        if not stat.S_ISREG(info.st_mode):
            raise FormatError(f"cannot read {path}: not a regular file")
        if size is not None and info.st_size != size:
            raise FormatError(f"{path}: expected {size} bytes, found {info.st_size}")
        return path.read_bytes()
    except (OSError, ValueError) as exc:  # no such file, no permission, a NUL in the name
        raise FormatError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def load_gridset(path: str | Path) -> GridSet:
    """Read the container back; the float32 payload is promoted to float64."""
    directory = Path(path)
    try:
        manifest = json.loads(read_file(directory / MANIFEST_NAME).decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"bad manifest in {directory}: {exc}") from exc
    try:
        fields = read_record(GRID_FIELDS, manifest, "manifest")
        mask_name, data_name = fields.pop("mask_file"), fields.pop("data_file")
        n_lat, n_lon, n_time = fields["n_lat"], fields["n_lon"], fields["n_time"]
        if any(Path(name).name != name for name in (mask_name, data_name)):
            raise ConfigError(f"manifest.mask_file {mask_name!r} and data_file {data_name!r} "
                              "must name files in the container")
        if min(n_lat, n_lon, n_time) < 1:
            sizes = f"{n_lat}x{n_lon}x{n_time}"
            raise ConfigError(f"manifest.n_lat, n_lon and n_time must be >= 1, got {sizes}")
        if not re.fullmatch("[0-9]{4}-(0[1-9]|1[0-2])", month := fields["start_month"]):
            raise ConfigError(f"manifest.start_month must be YYYY-MM, got {month!r}")
    except ConfigError as exc:
        raise FormatError(f"bad manifest field in {directory}: {exc}") from exc

    shape = (n_time, len(fields["variables"]), n_lat, n_lon)
    mask = np.frombuffer(read_file(directory / mask_name, n_lat * n_lon), "u1").astype(bool)
    data = np.frombuffer(read_file(directory / data_name, 4 * math.prod(shape)), "<f4")
    # land cells hold 0.0, so a NaN or infinity is never valid data; checked
    # before the cast, which warns on a signaling NaN
    if bad := int(np.count_nonzero(~np.isfinite(data))):
        raise DataError(f"{directory} holds {bad} non-finite grid value(s)")
    mask, data = mask.reshape(n_lat, n_lon), data.reshape(shape).astype(np.float64)
    return GridSet(**fields, land_mask=mask, data=data)


# ---------------------------------------------------------------------------
# nodes and the ONI index


@dataclass
class NodeIndex:
    """Ocean cells enumerated lat-major, lon-minor, optionally followed by
    one aggregate ONI node (NaN coordinates, cell index -1)."""

    latlon: Array  # (N, 2) degrees; NaN for the ONI node
    cells: Array  # (N, 2) int (lat index, lon index); (-1, -1) for the ONI node

    @property
    def count(self) -> int:
        return self.latlon.shape[0]

    @property
    def has_oni_node(self) -> bool:  # its coordinates are NaN, and it is last
        return bool(np.isnan(self.latlon[-1]).any())

    @property
    def grid_count(self) -> int:
        return self.count - int(self.has_oni_node)


def land_filter_nodes(grid: GridSet) -> NodeIndex:
    """One node per ocean cell, in (lat-major, lon-minor) scan order."""
    cells = np.argwhere(~grid.land_mask)
    if cells.size == 0:
        raise DataError("grid is all land; the graph would be empty")
    latlon = np.column_stack([grid.lats[cells[:, 0]], grid.lons[cells[:, 1]]])
    return NodeIndex(latlon=latlon, cells=cells)


def oni_region_cells(grid: GridSet) -> Array:
    """(lat index, lon index) pairs of ocean cells inside the ONI region."""
    lat_ok = (grid.lats >= ONI_LAT[0]) & (grid.lats <= ONI_LAT[1])
    lon = np.mod(grid.lons, 360.0)
    lon_ok = (lon >= ONI_LON[0]) & (lon <= ONI_LON[1])
    region = np.outer(lat_ok, lon_ok) & ~grid.land_mask
    cells = np.argwhere(region)
    if cells.size == 0:
        raise DataError("the grid has no ocean cells inside the ONI region (5N-5S, 120-170W)")
    return cells


def _grid_columns(grid: GridSet, nodes: NodeIndex) -> Array:
    """Each grid node's index into a lat-major (n_lat * n_lon) flattened field."""
    cells = nodes.cells[: nodes.grid_count]
    return cells[:, 0] * grid.n_lon + cells[:, 1]


def regional_means(grid: GridSet) -> Array:
    """(n_time, n_vars) unweighted spatial mean over ONI-region ocean cells."""
    cells = oni_region_cells(grid)
    return grid.data[:, :, cells[:, 0], cells[:, 1]].mean(axis=2)


def compute_oni_series(grid: GridSet, k: int = 3) -> Array:
    """Centered k-month running mean of the ONI-region SST-anomaly mean.

    Months without a full window are NaN (and later dropped from sample
    construction). k must be odd; it is ``prepare_dataset``'s smoothing_k,
    which a config's data section sets, and an error names it so.
    """
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"data.smoothing_k must be an odd positive int, got {k}")
    if "sst_anomaly" not in grid.variables:
        raise DataError("ONI needs the sst_anomaly variable")
    sst = grid.variables.index("sst_anomaly")
    spatial = regional_means(grid)[:, sst]
    half = k // 2
    oni = np.full(grid.n_time, np.nan)
    if grid.n_time >= k:  # else no month has a full window
        oni[half : grid.n_time - half] = sliding_window_view(spatial, k).mean(axis=1)
    return oni


# ---------------------------------------------------------------------------
# samples


@dataclass
class SampleSet:
    """Node-feature windows paired with lead-h ONI targets.

    ``inputs`` is a read-only float32 array of shape (S, N, w * D): sample
    s holds, for each of the N nodes, the D variables of months
    [window_end[s] - w + 1, window_end[s]], time-major. Over consecutive
    window ends it is a strided view of one node-major (N, T, D) series, so
    each month is held once, not once per window that covers it; gather or
    reshape it into a new array to compute on. A sample never sees past its
    window end; its target is the ONI value at month window_end + lead.
    Inputs and targets are the model's float32, rounded once from the
    float64 grid and ONI series.
    """

    inputs: Array  # float32 (S, N, w * D)
    targets: Array  # float32 (S,)
    window_end: Array  # (S,) month index of the last input month
    end_calendar_month: Array  # (S,) 1..12
    window: int
    lead: int
    split: str = "train"

    def __len__(self) -> int:
        return len(self.inputs)


# the SampleSet fields with one row per sample
PER_SAMPLE = ("inputs", "targets", "window_end", "end_calendar_month")


def build_samples(grid: GridSet, nodes: NodeIndex, window: int, lead: int, oni: Array) -> SampleSet:
    """Every month window whose lead-h target is defined becomes a sample.

    Input columns are time-major: the D per-variable values of the first
    window month, then the second, and so on (width w * D). Node rows
    follow ``nodes``; the aggregate ONI node, when present, carries the
    ONI-region mean of each variable (:func:`regional_means`). The inputs
    are a view of one node series, and building them holds only that
    series, unless an interior gap in the ONI leaves the window ends
    non-consecutive: then they are a copy. Either way they are read-only.
    """
    if window < 1 or lead < 1:
        raise ConfigError(f"window and lead must be >= 1, got {window}, {lead}")
    if window + lead > grid.n_time:  # no window's target month is in the grid
        raise DataError(f"no sample window has a defined target: window {window} and "
                        f"lead_months {lead} leave none of the grid's {grid.n_time} months")
    oni = np.asarray(oni)
    ends = np.arange(window - 1, grid.n_time - lead)
    ends = ends[np.isfinite(oni[ends + lead])]
    if ends.size == 0:
        raise DataError("no sample window has a defined target")

    # Node-major (N, T, D): one node's months are consecutive, so the w
    # months of a window are one contiguous run of w * D values, already in
    # the time-major column order, and the windows are one strided view.
    n_vars = len(grid.variables)
    monthly = np.empty((nodes.count, grid.n_time, n_vars), np.float32)
    flat = grid.data.reshape(grid.n_time, n_vars, -1)
    grid_rows, cols = monthly[: nodes.grid_count], _grid_columns(grid, nodes)
    # a block of nodes at a time, so that no temporary nears the series' size
    block = max(1, 2**16 // (grid.n_time * n_vars))
    for lo in range(0, len(cols), block):
        grid_rows[lo : lo + block] = flat[:, :, cols[lo : lo + block]].transpose(2, 0, 1)
    if nodes.has_oni_node:
        monthly[-1] = regional_means(grid)
    runs = sliding_window_view(monthly.reshape(nodes.count, -1), window * n_vars, axis=1)
    starts = ends - window + 1
    if ends[-1] - ends[0] == len(ends) - 1:  # consecutive: a slice, so a view
        starts = slice(starts[0], starts[-1] + 1)
    inputs = runs.transpose(1, 0, 2)[::n_vars][starts]  # (S, N, w * D)
    inputs.flags.writeable = False  # as the view already is
    return SampleSet(
        inputs=inputs,
        targets=oni[ends + lead].astype(np.float32),
        window_end=ends,
        end_calendar_month=grid.calendar_month(ends),
        window=window,
        lead=lead,
    )


def split_samples(
    samples: SampleSet, train_fraction: float, smoothing_k: int
) -> tuple[SampleSet, SampleSet]:
    """Chronological split: the first fraction of samples trains, the rest
    test, less an embargo of ``lead + smoothing_k // 2`` samples between.
    Labels are centered ``smoothing_k``-month means, so the embargo makes
    every training label end before the first test window ends."""
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must lie in (0, 1], got {train_fraction}")
    cut = int(round(len(samples) * train_fraction))
    embargo = samples.lead + smoothing_k // 2

    def take(rows, tag):
        return replace(samples, split=tag, **{f: getattr(samples, f)[rows] for f in PER_SAMPLE})

    return take(slice(0, cut), "train"), take(slice(cut + embargo, None), "test")


def extend_nodes_with_oni(nodes: NodeIndex) -> NodeIndex:
    """Append the aggregate ONI node (no geographic cell of its own)."""
    if nodes.has_oni_node:
        return nodes
    return NodeIndex(
        latlon=np.vstack([nodes.latlon, [[np.nan, np.nan]]]),
        cells=np.vstack([nodes.cells, [[-1, -1]]]),
    )


def build_static_features(grid: GridSet, nodes: NodeIndex, months: Array) -> Array:
    """Per-node static descriptors for the connectivity learner:
    the temporal mean of each variable over the given (training) months,
    then latitude / 90 and longitude / 180. The ONI node, when present,
    uses the region means and the region's center coordinates.

    Each column is scaled over the nodes to mean 0 and standard deviation 1
    (a constant column is only centered): the raw temporal means of anomaly
    fields are tiny (anomalies average toward zero), which starves the
    connectivity learner's gradients of scale."""
    months = np.asarray(months, dtype=int)
    if months.size == 0:
        raise DataError("static features need at least one month")
    n_vars = len(grid.variables)
    features = np.zeros((nodes.count, n_vars + 2))
    grid_nodes = nodes.grid_count
    means = grid.data[months].reshape(months.size, n_vars, -1).mean(axis=0)  # (D, cells)
    features[:grid_nodes, :n_vars] = means[:, _grid_columns(grid, nodes)].T
    features[:grid_nodes, n_vars] = nodes.latlon[:grid_nodes, 0] / 90.0
    features[:grid_nodes, n_vars + 1] = nodes.latlon[:grid_nodes, 1] / 180.0
    if nodes.has_oni_node:
        features[-1, :n_vars] = regional_means(grid)[months].mean(axis=0)
        features[-1, n_vars] = ONI_CENTER_LATLON[0] / 90.0
        features[-1, n_vars + 1] = ONI_CENTER_LATLON[1] / 180.0
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
    return (features - mu) / np.where(sd > 0.0, sd, 1.0)


# ---------------------------------------------------------------------------
# fixed local connectivity (ablation baseline)


# how far a local neighbor may lie in latitude and in longitude, in degrees
LOCAL_REACH = 5.0
# rows of node pairs that local_edges compares at once, so that its
# temporaries stay a few (rows, N) arrays however large N is
_LOCAL_ROWS = 128


def local_edges(nodes: NodeIndex) -> Array:
    """Ascending row-major flat indices ``i * N + j`` of the pairs of
    distinct nodes within ``LOCAL_REACH`` in both latitude and longitude
    (one grid step on a 5-degree grid, so interior nodes get 8 neighbors),
    with longitude measured around the 0/360 seam. The edges have unit
    weight and the self-loops are implicit; the ONI node, having no
    location, has no edge. Not learnable. The pairs are compared in blocks
    of ``_LOCAL_ROWS`` rows."""
    n = nodes.count
    lat = nodes.latlon[:, 0]
    lon = np.mod(nodes.latlon[:, 1], 360.0)
    tol = 1e-9  # a NaN distance, to or from the ONI node, is near nothing
    parts = []
    for lo in range(0, n, _LOCAL_ROWS):
        rows = np.arange(lo, min(lo + _LOCAL_ROWS, n))
        dlat = np.abs(lat[rows, None] - lat[None, :])
        dlon = np.abs(lon[rows, None] - lon[None, :])
        dlon = np.minimum(dlon, 360.0 - dlon)
        near = (dlat <= LOCAL_REACH + tol) & (dlon <= LOCAL_REACH + tol)
        near[rows - lo, rows] = False
        parts.append(np.flatnonzero(near) + lo * n)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# synthetic teleconnection data


@dataclass
class SynthSpec:
    """What the generator actually planted, for verification downstream."""

    driver_cells: list[tuple[int, int]]
    region_cells: list[tuple[int, int]]
    lead: int
    seed: int
    noise_sd: float
    background_sd: float


# the fields of a spec file, whose cells are JSON [row, col] pairs
SPEC_FIELDS = {
    "driver_cells": list[list[int]],
    "region_cells": list[list[int]],
    **field_types(SynthSpec, drop=("driver_cells", "region_cells")),
}


def planted_driver_nodes(path: str | Path, nodes: NodeIndex) -> Array | None:
    """The nodes of the driver cells that the spec in the grid container
    ``path`` names, or None if it holds no spec."""
    file = Path(path) / SPEC_NAME
    if not file.exists():
        return None
    try:
        cells = read_record(SPEC_FIELDS, json.loads(read_file(file).decode()), "spec")
    except (ConfigError, ValueError) as exc:  # mistyped, not UTF-8, or not JSON
        raise FormatError(f"bad spec {file}: {exc}") from exc
    index = {tuple(c): i for i, c in enumerate(nodes.cells[: nodes.grid_count].tolist())}
    drivers = [index.get(tuple(c)) for c in cells["driver_cells"]]
    if None in drivers or not drivers:
        raise DataError(f"{file}: driver cells must be grid nodes, got {cells['driver_cells']}")
    return np.array(drivers)


def synth_teleconnection_dataset(
    n_lat: int,
    n_lon: int,
    n_months: int,
    lead: int,
    seed: int = 0,
    noise_sd: float = 0.1,
    background_sd: float | None = None,
) -> tuple[GridSet, SynthSpec]:
    """Desk-scale stand-in for reanalysis archives with a known, planted
    teleconnection.

    A latent AR(1) signal s_t = 0.8 s_{t-1} + e_t drives everything: a
    distant 2x2 corner block of "driver" cells carries s_t + noise, the
    ONI-region cells carry s_{t-lead} + noise (so the driver leads the
    forecast target by the lead time), every other cell carries
    independent noise, and the heat-content field is 0.5 * SST plus noise.
    The grid is placed so the ONI region occupies three rows around the
    equator and the three easternmost columns of a 5-degree grid that fits
    on the globe once: at most 37 rows stay within +-90 degrees, and at most
    64 columns end short of wrapping into the ONI longitudes (read mod 360).

    background_sd sets the amplitude of the uninformative cells and
    defaults to noise_sd; raise it toward 1 to bury the driver signal in
    realistic unit-scale field variability (used by the connectivity
    ablation, where a local-neighborhood model must not be able to fish
    the distant driver out of the graph pooling).
    """
    if not (4 <= n_lat <= 37 and 4 <= n_lon <= 64):
        raise ConfigError(f"grid must be 4x4 to 37x64, got {n_lat}x{n_lon}")
    if n_months < 40:
        raise ConfigError(f"need at least 40 months, got {n_months}")
    if lead < 1:
        raise ConfigError(f"lead must be >= 1, got {lead}")
    if seed < 0:  # numpy seeds with non-negative integers only
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= noise_sd < math.inf:
        raise ConfigError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if background_sd is None:
        background_sd = noise_sd
    if not 0.0 <= background_sd < math.inf:
        raise ConfigError(f"background_sd must be finite and >= 0, got {background_sd}")

    step = 5.0
    lat0 = -step * (n_lat // 2)
    lon0 = ONI_LON[0] - step * (n_lon - 3)
    lats = lat0 + step * np.arange(n_lat)
    lons = lon0 + step * np.arange(n_lon)

    lat_in = (lats >= ONI_LAT[0]) & (lats <= ONI_LAT[1])
    lon_in = (lons >= ONI_LON[0]) & (lons <= ONI_LON[1])
    region = np.outer(lat_in, lon_in)
    # the 2x2 corner block; on 4 or more rows its row 0 lies south of the ONI band
    driver = np.zeros_like(region)
    driver[:2, :2] = ~region[:2, :2]
    # each list in the row-major order in which a mask selects its cells
    region_cells = [(int(r), int(c)) for r, c in np.argwhere(region)]
    driver_cells = [(int(r), int(c)) for r, c in np.argwhere(driver)]

    rng = np.random.default_rng(seed)
    # latent signal with `lead` months of extra history; stationary sd ~ 1
    s = np.empty(n_months + lead)
    s[0] = rng.normal()
    innovations = rng.normal(0.0, 0.6, n_months + lead - 1)
    for i in range(1, n_months + lead):
        s[i] = 0.8 * s[i - 1] + innovations[i - 1]

    sst = rng.normal(0.0, background_sd, (n_months, n_lat, n_lon))
    region_noise = rng.normal(0.0, noise_sd, (n_months, len(region_cells)))
    driver_noise = rng.normal(0.0, noise_sd, (n_months, len(driver_cells)))
    sst[:, region] = s[:n_months, None] + region_noise
    sst[:, driver] = s[lead:, None] + driver_noise
    # both fields rounded to float32, as a saved grid stores them, in one
    # array that is widened once
    fields = np.empty((n_months, 2, n_lat, n_lon), np.float32)
    fields[:, 0] = sst
    fields[:, 1] = 0.5 * sst + rng.normal(0.0, noise_sd, sst.shape)
    grid = GridSet(
        n_lat=n_lat,
        n_lon=n_lon,
        lat0=lat0,
        dlat=step,
        lon0=lon0,
        dlon=step,
        start_month="2000-01",
        n_time=n_months,
        variables=list(KNOWN_VARIABLES),
        land_mask=np.zeros((n_lat, n_lon), dtype=bool),
        data=fields.astype(np.float64),
    )
    spec = SynthSpec(
        driver_cells=driver_cells,
        region_cells=region_cells,
        lead=lead,
        seed=seed,
        noise_sd=noise_sd,
        background_sd=background_sd,
    )
    return grid, spec


# ---------------------------------------------------------------------------
# end-to-end assembly


@dataclass
class DatasetBundle:
    nodes: NodeIndex
    train: SampleSet
    test: SampleSet
    static_features: Array  # float32 (N, d_in)


def prepare_dataset(
    grid: GridSet,
    window: int = 3,
    lead: int = 1,
    train_fraction: float = 0.8,
    oni_node: bool = True,
    smoothing_k: int = 3,
) -> DatasetBundle:
    """Grid -> nodes (plus the ONI node) -> labels -> windowed samples ->
    chronological split with an embargo (:func:`split_samples`).

    This is where the model's float32 begins: the samples' inputs and
    targets and the static features are float32, each rounded once from
    the float64 grid, ONI series and feature statistics.

    The samples are built once over the final node set, as read-only views
    of one node-major series (:func:`build_samples`), and the train and
    test splits are views of them: every input month is held once. Static
    features for the connectivity learner are computed over the months
    covered by the training split only.
    """
    nodes = land_filter_nodes(grid)
    if oni_node:
        nodes = extend_nodes_with_oni(nodes)
    oni = compute_oni_series(grid, smoothing_k)
    samples = build_samples(grid, nodes, window, lead, oni)
    train, test = split_samples(samples, train_fraction, smoothing_k)
    if len(train) == 0:
        raise DataError("training split is empty")
    train_months = np.arange(0, int(train.window_end.max()) + 1)
    static = build_static_features(grid, nodes, train_months).astype(np.float32)
    return DatasetBundle(nodes=nodes, train=train, test=test, static_features=static)
