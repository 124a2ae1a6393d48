"""Gridded-anomaly data layer.

A :class:`GridSet` holds monthly SST and heat-content anomaly fields on a
regular lat/lon grid with a land mask, stored on disk as a small directory
container (JSON manifest + raw little-endian binaries). On top of it sit
node enumeration, ONI label computation, window/lead sample construction,
the aggregate ONI node, the fixed local adjacency used by the connectivity
ablation, and a synthetic teleconnection generator for desk-scale
experiments.

All fields are anomalies; climatology subtraction happens upstream of the
container (e.g. when converting reanalysis archives such as SODA/GODAS).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

Array = np.ndarray

KNOWN_VARIABLES = ("sst_anomaly", "heat_content_anomaly")

# ONI region: 5N-5S, 120W-170W, i.e. 190E-240E on the 0-360 convention
ONI_LAT = (-5.0, 5.0)
ONI_LON = (190.0, 240.0)
ONI_CENTER_LATLON = (0.0, 215.0)

MANIFEST_NAME = "manifest.json"


@dataclass
class GridSet:
    """Monthly anomaly fields on a regular grid.

    data is float64 in memory, laid out [time][variable][lat][lon];
    land cells (mask True) hold 0.0 in every variable and month.
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

    @property
    def lats(self) -> Array:
        return self.lat0 + self.dlat * np.arange(self.n_lat)

    @property
    def lons(self) -> Array:
        return self.lon0 + self.dlon * np.arange(self.n_lon)

    def calendar_month(self, t: int) -> int:
        """Calendar month (1..12) of time index ``t``."""
        start = int(self.start_month.split("-")[1])
        return (start - 1 + t) % 12 + 1


def save_gridset(grid: GridSet, path: str | Path) -> None:
    """Write the directory container: manifest.json, mask.bin (one 0/1 byte
    per cell, lat-major) and data.bin (little-endian float32,
    [time][variable][lat][lon] row-major)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "n_lat": grid.n_lat,
        "n_lon": grid.n_lon,
        "lat0": grid.lat0,
        "dlat": grid.dlat,
        "lon0": grid.lon0,
        "dlon": grid.dlon,
        "start_month": grid.start_month,
        "n_time": grid.n_time,
        "variables": list(grid.variables),
        "mask_file": "mask.bin",
        "data_file": "data.bin",
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (directory / "mask.bin").write_bytes(grid.land_mask.astype(np.uint8).tobytes())
    (directory / "data.bin").write_bytes(grid.data.astype("<f4").tobytes())


def _read_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:  # a directory, no permission, an I/O error
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_gridset(path: str | Path) -> GridSet:
    """Read the container back; the float32 payload is promoted to float64."""
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FormatError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(_read_file(manifest_path).decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"bad manifest in {directory}: {exc}") from exc
    try:
        n_lat, n_lon = int(manifest["n_lat"]), int(manifest["n_lon"])
        n_time = int(manifest["n_time"])
        variables = list(manifest["variables"])
        mask_path = directory / manifest["mask_file"]
        data_path = directory / manifest["data_file"]
        lat0, dlat = float(manifest["lat0"]), float(manifest["dlat"])
        lon0, dlon = float(manifest["lon0"]), float(manifest["dlon"])
        start_month = str(manifest["start_month"])
        year, month = start_month.split("-")
        if min(n_lat, n_lon, n_time) < 1:
            raise ValueError(f"grid sizes must be positive, got {n_lat}x{n_lon}x{n_time}")
        if not (year.isdigit() and 1 <= int(month) <= 12):
            raise ValueError(f"start_month {start_month!r} is not YYYY-MM")
    except KeyError as exc:
        raise FormatError(f"manifest missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad manifest field in {directory}: {exc}") from exc
    for name in variables:
        if name not in KNOWN_VARIABLES:
            raise FormatError(f"unknown variable name {name!r} in manifest")

    mask_bytes = _read_file(mask_path)
    if len(mask_bytes) != n_lat * n_lon:
        raise FormatError(
            f"mask size mismatch: expected {n_lat * n_lon} bytes, found {len(mask_bytes)}"
        )
    data_bytes = _read_file(data_path)
    expected = n_time * len(variables) * n_lat * n_lon * 4
    if len(data_bytes) != expected:
        raise FormatError(
            f"data size mismatch: expected {expected} bytes, found {len(data_bytes)}"
        )
    mask = np.frombuffer(mask_bytes, dtype=np.uint8).reshape(n_lat, n_lon).astype(bool)
    data = (
        np.frombuffer(data_bytes, dtype="<f4")
        .reshape(n_time, len(variables), n_lat, n_lon)
        .astype(np.float64)
    )
    _require_finite(data, directory)
    return GridSet(
        n_lat=n_lat,
        n_lon=n_lon,
        lat0=lat0,
        dlat=dlat,
        lon0=lon0,
        dlon=dlon,
        start_month=start_month,
        n_time=n_time,
        variables=variables,
        land_mask=mask,
        data=data,
    )


def gridset_from_csv(path: str | Path, start_month: str = "2000-01") -> GridSet:
    """Tiny-fixture import: rows of ``time,lat,lon,var,value``.

    The grid is inferred from the distinct lat/lon values (uniform spacing
    required); cells never mentioned become land, absent (time, var)
    entries default to 0. Values are quantized to float32 so that a save
    and reload reproduces them bit-exactly.
    """
    rows = []
    with open(path, newline="") as fh:
        for record in csv.DictReader(fh):
            try:
                rows.append(
                    (
                        int(record["time"]),
                        float(record["lat"]),
                        float(record["lon"]),
                        record["var"],
                        float(record["value"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"bad CSV row {record!r}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path} holds no data rows")

    lats = np.unique([r[1] for r in rows])
    lons = np.unique([r[2] for r in rows])
    variables = [v for v in KNOWN_VARIABLES if v in {r[3] for r in rows}]
    for r in rows:
        if r[3] not in KNOWN_VARIABLES:
            raise FormatError(f"unknown variable name {r[3]!r}")

    def spacing(values: Array) -> float:
        if len(values) < 2:
            return 5.0
        steps = np.diff(values)
        if not np.allclose(steps, steps[0]):
            raise FormatError("grid spacing is not uniform")
        return float(steps[0])

    n_time = max(r[0] for r in rows) + 1
    grid = GridSet(
        n_lat=len(lats),
        n_lon=len(lons),
        lat0=float(lats[0]),
        dlat=spacing(lats),
        lon0=float(lons[0]),
        dlon=spacing(lons),
        start_month=start_month,
        n_time=n_time,
        variables=variables,
        land_mask=np.ones((len(lats), len(lons)), dtype=bool),
        data=np.zeros((n_time, len(variables), len(lats), len(lons))),
    )
    lat_index = {v: i for i, v in enumerate(lats)}
    lon_index = {v: i for i, v in enumerate(lons)}
    var_index = {v: i for i, v in enumerate(variables)}
    for t, lat, lon, var, value in rows:
        grid.land_mask[lat_index[lat], lon_index[lon]] = False
        grid.data[t, var_index[var], lat_index[lat], lon_index[lon]] = np.float32(value)
    grid.data[:, :, grid.land_mask] = 0.0
    _require_finite(grid.data, path)
    return grid


def _require_finite(data: Array, source) -> None:
    # land cells hold 0.0, so a NaN or infinity is never valid data
    if not np.all(np.isfinite(data)):
        bad = int(np.count_nonzero(~np.isfinite(data)))
        raise DataError(f"{source} holds {bad} non-finite grid value(s)")


# ---------------------------------------------------------------------------
# nodes and the ONI index


@dataclass
class NodeIndex:
    """Ocean cells enumerated lat-major, lon-minor, optionally followed by
    one aggregate ONI node (NaN coordinates, cell index -1)."""

    latlon: Array  # (N, 2) degrees
    cells: Array  # (N, 2) int (lat index, lon index); (-1, -1) for the ONI node
    has_oni_node: bool = False

    @property
    def count(self) -> int:
        return self.latlon.shape[0]

    @property
    def grid_count(self) -> int:
        return self.count - int(self.has_oni_node)


def land_filter_nodes(grid: GridSet) -> NodeIndex:
    """One node per ocean cell, in (lat-major, lon-minor) scan order."""
    cells = np.argwhere(~grid.land_mask)
    if cells.size == 0:
        raise DataError("grid is all land; the graph would be empty")
    latlon = np.column_stack([grid.lats[cells[:, 0]], grid.lons[cells[:, 1]]])
    return NodeIndex(latlon=latlon, cells=cells, has_oni_node=False)


def oni_region_cells(grid: GridSet) -> Array:
    """(lat index, lon index) pairs of ocean cells inside the ONI region."""
    lat_ok = (grid.lats >= ONI_LAT[0]) & (grid.lats <= ONI_LAT[1])
    lon = np.mod(grid.lons, 360.0)
    lon_ok = (lon >= ONI_LON[0]) & (lon <= ONI_LON[1])
    region = np.outer(lat_ok, lon_ok) & ~grid.land_mask
    cells = np.argwhere(region)
    if cells.size == 0:
        raise DataError("no ocean cells inside the ONI region (5N-5S, 120-170W)")
    return cells


def regional_means(grid: GridSet) -> Array:
    """(n_time, n_vars) unweighted spatial mean over ONI-region ocean cells."""
    cells = oni_region_cells(grid)
    return grid.data[:, :, cells[:, 0], cells[:, 1]].mean(axis=2)


def compute_oni_series(grid: GridSet, k: int = 3) -> Array:
    """Centered k-month running mean of the ONI-region SST-anomaly mean.

    Months without a full window are NaN (and later dropped from sample
    construction). k must be odd.
    """
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"running-mean window must be an odd positive int, got {k}")
    if "sst_anomaly" not in grid.variables:
        raise DataError("ONI needs the sst_anomaly variable")
    sst = grid.variables.index("sst_anomaly")
    spatial = regional_means(grid)[:, sst]
    half = k // 2
    oni = np.full(grid.n_time, np.nan)
    for t in range(half, grid.n_time - half):
        oni[t] = spatial[t - half : t + half + 1].mean()
    return oni


# ---------------------------------------------------------------------------
# samples


@dataclass
class SampleSet:
    """Node-feature windows paired with lead-h ONI targets.

    ``inputs`` is one C-contiguous float64 array of shape (S, N, w * D):
    sample s holds, for each of the N nodes, the D variables of months
    [window_end[s] - w + 1, window_end[s]], time-major. A sample never sees
    past its window end; its target is the ONI value at month
    window_end + lead.
    """

    inputs: Array  # (S, N, w * D)
    targets: Array  # (S,)
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
    ONI-region mean of each variable (:func:`regional_means`).
    """
    if window < 1 or lead < 1:
        raise ConfigError(f"window and lead must be >= 1, got {window}, {lead}")
    n_vars = len(grid.variables)
    grid_nodes = nodes.grid_count
    flat = grid.data.reshape(grid.n_time, n_vars, -1)
    node_flat = nodes.cells[:grid_nodes, 0] * grid.n_lon + nodes.cells[:grid_nodes, 1]
    monthly = np.empty((grid.n_time, nodes.count, n_vars))  # (T, N, D)
    monthly[:, :grid_nodes] = flat[:, :, node_flat].transpose(0, 2, 1)
    if nodes.has_oni_node:
        monthly[:, -1] = regional_means(grid)

    oni = np.asarray(oni)
    ends = np.arange(window - 1, grid.n_time - lead)
    ends = ends[np.isfinite(oni[ends + lead])]
    if ends.size == 0:
        raise DataError("no sample window has a defined target")
    inputs = np.empty((ends.size, nodes.count, window * n_vars))
    for k in range(window):
        inputs[:, :, k * n_vars : (k + 1) * n_vars] = monthly[ends - (window - 1 - k)]
    return SampleSet(
        inputs=inputs,
        targets=oni[ends + lead],
        window_end=ends,
        end_calendar_month=np.asarray([grid.calendar_month(t) for t in ends]),
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
        has_oni_node=True,
    )


def build_static_features(
    grid: GridSet, nodes: NodeIndex, months: Array, standardize: bool = True
) -> Array:
    """Per-node static descriptors for the connectivity learner:
    the temporal mean of each variable over the given (training) months,
    then latitude / 90 and longitude / 180. The ONI node, when present,
    uses the region means and the region's center coordinates.

    Columns are standardized over nodes by default; the raw temporal means
    of anomaly fields are tiny (anomalies average toward zero), which
    starves the connectivity learner's gradients of scale."""
    months = np.asarray(months, dtype=int)
    if months.size == 0:
        raise DataError("static features need at least one month")
    n_vars = len(grid.variables)
    features = np.zeros((nodes.count, n_vars + 2))
    grid_nodes = nodes.grid_count
    cells = nodes.cells[:grid_nodes]
    means = grid.data[months][:, :, cells[:, 0], cells[:, 1]].mean(axis=0)  # (D, N)
    features[:grid_nodes, :n_vars] = means.T
    features[:grid_nodes, n_vars] = nodes.latlon[:grid_nodes, 0] / 90.0
    features[:grid_nodes, n_vars + 1] = nodes.latlon[:grid_nodes, 1] / 180.0
    if nodes.has_oni_node:
        features[-1, :n_vars] = regional_means(grid)[months].mean(axis=0)
        features[-1, n_vars] = ONI_CENTER_LATLON[0] / 90.0
        features[-1, n_vars + 1] = ONI_CENTER_LATLON[1] / 180.0
    if standardize:
        mu = features.mean(axis=0)
        sd = features.std(axis=0)
        features = (features - mu) / np.where(sd > 0.0, sd, 1.0)
    return features


# ---------------------------------------------------------------------------
# fixed local connectivity (ablation baseline)


def local_adjacency(nodes: NodeIndex, radius_deg: float = 5.0) -> Array:
    """0/1 adjacency connecting each grid node to every node within
    ``radius_deg`` in both latitude and longitude (one grid step on a
    5-degree grid, so interior nodes get 8 neighbors), with longitude
    measured around the 0/360 seam. Self-loops on the diagonal; the ONI
    node, having no location, keeps only its self-loop. Not learnable."""
    lat = nodes.latlon[:, 0]
    lon = np.mod(nodes.latlon[:, 1], 360.0)
    dlat = np.abs(lat[:, None] - lat[None, :])
    dlon = np.abs(lon[:, None] - lon[None, :])
    dlon = np.minimum(dlon, 360.0 - dlon)
    tol = 1e-9
    near = (dlat <= radius_deg + tol) & (dlon <= radius_deg + tol)
    near &= ~np.isnan(dlat) & ~np.isnan(dlon)
    adjacency = near.astype(np.float64)
    np.fill_diagonal(adjacency, 1.0)
    return adjacency


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

    def min_separation_steps(self) -> int:
        """Smallest Chebyshev grid distance between driver and region cells."""
        best = None
        for dr, dc in self.driver_cells:
            for rr, rc in self.region_cells:
                d = max(abs(dr - rr), abs(dc - rc))
                best = d if best is None else min(best, d)
        return best


def synth_teleconnection_dataset(
    n_lat: int,
    n_lon: int,
    n_months: int,
    lead: int,
    seed: int = 0,
    noise_sd: float = 0.1,
    background_sd: float | None = None,
    driver_block: tuple[int, int] = (2, 2),
) -> tuple[GridSet, SynthSpec]:
    """Desk-scale stand-in for reanalysis archives with a known, planted
    teleconnection.

    A latent AR(1) signal s_t = 0.8 s_{t-1} + e_t drives everything: a
    distant 2x2 corner block of "driver" cells carries s_t + noise, the
    ONI-region cells carry s_{t-lead} + noise (so the driver leads the
    forecast target by the lead time), every other cell carries
    independent noise, and the heat-content field is 0.5 * SST plus noise.
    The grid is placed so the ONI region occupies three rows around the
    equator and the three easternmost columns.

    background_sd sets the amplitude of the uninformative cells and
    defaults to noise_sd; raise it toward 1 to bury the driver signal in
    realistic unit-scale field variability (used by the connectivity
    ablation, where a local-neighborhood model must not be able to fish
    the distant driver out of the graph pooling).
    """
    if n_lat < 4 or n_lon < 4:
        raise ConfigError(f"grid must be at least 4x4, got {n_lat}x{n_lon}")
    if n_months < 40:
        raise ConfigError(f"need at least 40 months, got {n_months}")
    if lead < 1:
        raise ConfigError(f"lead must be >= 1, got {lead}")
    if noise_sd < 0.0:
        raise ConfigError(f"noise_sd must be >= 0, got {noise_sd}")
    if background_sd is None:
        background_sd = noise_sd
    if background_sd < 0.0:
        raise ConfigError(f"background_sd must be >= 0, got {background_sd}")

    step = 5.0
    lat0 = -step * (n_lat // 2)
    lon0 = ONI_LON[0] - step * (n_lon - 3)
    lats = lat0 + step * np.arange(n_lat)
    lons = lon0 + step * np.arange(n_lon)

    lat_in = (lats >= ONI_LAT[0]) & (lats <= ONI_LAT[1])
    lon_in = (lons >= ONI_LON[0]) & (lons <= ONI_LON[1])
    region = np.outer(lat_in, lon_in)
    region_cells = [(int(r), int(c)) for r, c in np.argwhere(region)]
    if not region_cells:
        raise ConfigError("grid placement left no cells in the ONI region")

    block_rows, block_cols = driver_block
    if not 1 <= block_rows <= n_lat or not 1 <= block_cols <= n_lon:
        raise ConfigError(f"driver_block {driver_block} does not fit a {n_lat}x{n_lon} grid")
    driver_cells = [
        (r, c) for r in range(block_rows) for c in range(block_cols) if not region[r, c]
    ]
    if not driver_cells:
        raise ConfigError("driver block is fully inside the ONI region")

    rng = np.random.default_rng(seed)
    # latent signal with `lead` months of extra history; stationary sd ~ 1
    s = np.empty(n_months + lead)
    s[0] = rng.normal()
    innovations = rng.normal(0.0, 0.6, n_months + lead - 1)
    for i in range(1, n_months + lead):
        s[i] = 0.8 * s[i - 1] + innovations[i - 1]

    sst = rng.normal(0.0, background_sd, (n_months, n_lat, n_lon))
    region_rows = np.array([c[0] for c in region_cells])
    region_cols = np.array([c[1] for c in region_cells])
    driver_rows = np.array([c[0] for c in driver_cells])
    driver_cols = np.array([c[1] for c in driver_cells])
    region_noise = rng.normal(0.0, noise_sd, (n_months, len(region_cells)))
    driver_noise = rng.normal(0.0, noise_sd, (n_months, len(driver_cells)))
    for t in range(n_months):
        sst[t, region_rows, region_cols] = s[t] + region_noise[t]
        sst[t, driver_rows, driver_cols] = s[t + lead] + driver_noise[t]
    heat = 0.5 * sst + rng.normal(0.0, noise_sd, sst.shape)

    data = np.stack([sst, heat], axis=1).astype(np.float32).astype(np.float64)
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
        data=data,
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
    grid: GridSet
    nodes: NodeIndex
    train: SampleSet
    test: SampleSet
    static_features: Array
    oni: Array


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

    The samples are built once, as one array over the final node set; the
    train and test splits are views of it. Static features for the
    connectivity learner are computed over the months covered by the
    training split only.
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
    static = build_static_features(grid, nodes, train_months)
    return DatasetBundle(
        grid=grid, nodes=nodes, train=train, test=test, static_features=static, oni=oni
    )
