import hashlib
import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onigraph import data as data_module
from onigraph.data import (
    GRID_FIELDS,
    KNOWN_VARIABLES,
    LOCAL_REACH,
    ONI_CENTER_LATLON,
    GridSet,
    SynthSpec,
    build_samples,
    build_static_features,
    compute_oni_series,
    extend_nodes_with_oni,
    field_types,
    land_filter_nodes,
    load_gridset,
    local_edges,
    oni_region_cells,
    prepare_dataset,
    regional_means,
    save_gridset,
    split_samples,
    synth_teleconnection_dataset,
)
from onigraph.errors import ConfigError, DataError, FormatError


def make_grid(n_lat=3, n_lon=4, n_time=6, lat0=-5.0, lon0=190.0, value=None, seed=0):
    """All-ocean grid covering part of the ONI region."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_time, 2, n_lat, n_lon)).astype(np.float32).astype(np.float64)
    if value is not None:
        data[...] = value
    return GridSet(
        n_lat=n_lat,
        n_lon=n_lon,
        lat0=lat0,
        dlat=5.0,
        lon0=lon0,
        dlon=5.0,
        start_month="2000-01",
        n_time=n_time,
        variables=["sst_anomaly", "heat_content_anomaly"],
        land_mask=np.zeros((n_lat, n_lon), dtype=bool),
        data=data,
    )


# --- container ---------------------------------------------------------------


def test_roundtrip_bit_exact(tmp_path):
    grid, _ = synth_teleconnection_dataset(4, 5, 48, 1, seed=3)
    save_gridset(grid, tmp_path / "g")
    loaded = load_gridset(tmp_path / "g")
    np.testing.assert_array_equal(loaded.data, grid.data)
    np.testing.assert_array_equal(loaded.land_mask, grid.land_mask)
    assert loaded.variables == grid.variables
    save_gridset(loaded, tmp_path / "g2")
    assert (tmp_path / "g2" / "data.bin").read_bytes() == (
        tmp_path / "g" / "data.bin"
    ).read_bytes()
    assert (tmp_path / "g2" / "manifest.json").read_bytes() == (
        tmp_path / "g" / "manifest.json"
    ).read_bytes()


def test_truncated_data_file_reports_byte_counts(tmp_path):
    grid = make_grid()
    save_gridset(grid, tmp_path / "g")
    blob = (tmp_path / "g" / "data.bin").read_bytes()
    (tmp_path / "g" / "data.bin").write_bytes(blob[:-8])
    with pytest.raises(FormatError, match=rf"expected {len(blob)} bytes, found {len(blob) - 8}"):
        load_gridset(tmp_path / "g")


def test_unknown_variable_rejected(tmp_path):
    grid = make_grid()
    save_gridset(grid, tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest["variables"] = ["sst_anomaly", "salinity"]
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="salinity"):
        load_gridset(tmp_path / "g")


@pytest.mark.parametrize(
    "field, value",
    [
        ("lat0", None),
        ("start_month", None),
        ("dlon", "east"),
        ("n_lat", [2]),
        ("mask_file", 5),
        ("start_month", "2000"),
        ("start_month", "2000-13"),
        ("lat0", "4.0"),
        ("lat0", True),
        ("dlat", math.nan),
        ("lon0", math.inf),
        ("variables", "sst_anomaly"),
        ("variables", ["sst_anomaly", 1]),
        ("legend", "x"),
    ],
)
def test_bad_manifest_field_is_format_error(tmp_path, field, value):
    save_gridset(make_grid(), tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    if value is None:
        del manifest[field]
    else:
        manifest[field] = value
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=field if value is None else "bad manifest field"):
        load_gridset(tmp_path / "g")


@pytest.mark.parametrize("field, value, size", [("n_lat", 8.9, 8), ("n_lon", "4", 4), ("n_time", True, 1)])
def test_grid_size_must_be_a_json_integer(tmp_path, field, value, size):
    # int() of each value is the grid's own size, so the byte counts match
    save_gridset(make_grid(**{field: size}), tmp_path / "g")
    path = tmp_path / "g" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=rf"manifest\.{field} must be of type int, got"):
        load_gridset(tmp_path / "g")


def test_grid_manifest_holds_exactly_the_fields_its_reader_takes(tmp_path):
    # a field added to save_gridset or to GRID_FIELDS alone fails here
    save_gridset(make_grid(), tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest.keys() == GRID_FIELDS.keys()


@pytest.mark.parametrize("field", ["mask_file", "data_file"])
def test_grid_file_naming_a_directory_is_format_error(tmp_path, field):
    save_gridset(make_grid(), tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest[field] = ""  # the grid directory itself
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"cannot read {tmp_path / 'g'}"):
        load_gridset(tmp_path / "g")


@pytest.mark.parametrize("outside", ["absolute", "parent"])
def test_grid_reads_no_file_outside_its_container(tmp_path, outside):
    save_gridset(make_grid(), tmp_path / "g")
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "elsewhere" / "m.bin").write_bytes((tmp_path / "g" / "mask.bin").read_bytes())
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest["mask_file"] = {
        "absolute": str(tmp_path / "elsewhere" / "m.bin"),
        "parent": "../elsewhere/m.bin",
    }[outside]
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="must name files in the container"):
        load_gridset(tmp_path / "g")


def test_grid_file_that_is_not_a_regular_file_is_format_error(tmp_path):
    save_gridset(make_grid(), tmp_path / "g")
    mask = tmp_path / "g" / "mask.bin"
    mask.unlink()
    mask.symlink_to("/dev/null")  # a device, which is never read
    with pytest.raises(FormatError, match=f"cannot read {mask}: not a regular file"):
        load_gridset(tmp_path / "g")


@pytest.mark.parametrize("case", ["negative_sizes", "not_utf8"])
def test_malformed_manifest_is_format_error(tmp_path, case):
    save_gridset(make_grid(), tmp_path / "g")
    path = tmp_path / "g" / "manifest.json"
    if case == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    else:
        manifest = json.loads(path.read_text())
        manifest.update(n_lat=-3, n_lon=-4)  # still 12 cells, the mask's byte count
        path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="bad manifest"):
        load_gridset(tmp_path / "g")


def test_hand_encoded_fixture_decodes(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    manifest = {
        "n_lat": 2,
        "n_lon": 2,
        "lat0": 0.0,
        "dlat": 5.0,
        "lon0": 190.0,
        "dlon": 5.0,
        "start_month": "1999-12",
        "n_time": 1,
        "variables": ["sst_anomaly"],
        "mask_file": "mask.bin",
        "data_file": "data.bin",
    }
    (d / "manifest.json").write_text(json.dumps(manifest))
    (d / "mask.bin").write_bytes(bytes([0, 0, 0, 1]))
    (d / "data.bin").write_bytes(struct.pack("<4f", 1.5, -2.0, 3.25, 0.0))
    grid = load_gridset(d)
    np.testing.assert_array_equal(grid.data[0, 0], [[1.5, -2.0], [3.25, 0.0]])
    np.testing.assert_array_equal(grid.land_mask, [[False, False], [False, True]])
    assert grid.calendar_month(0) == 12
    assert grid.calendar_month(1) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_load_rejects_nonfinite_values(tmp_path, bad):
    grid = make_grid()
    grid.data[2, 1, 0, 3] = bad
    save_gridset(grid, tmp_path / "g")
    with pytest.raises(DataError):
        load_gridset(tmp_path / "g")


def test_load_rejects_a_signaling_nan_without_a_warning(tmp_path):
    # float32 exponent all ones, quiet bit clear: widening it to float64 sets
    # the invalid flag, a RuntimeWarning (an error in this suite)
    save_gridset(make_grid(), tmp_path / "g")
    path = tmp_path / "g" / "data.bin"
    raw = bytearray(path.read_bytes())
    raw[40:44] = struct.pack("<I", 0x7F800001)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="1 non-finite"):
        load_gridset(tmp_path / "g")


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """The bytes of each file of a small saved grid, by file name."""
    directory = tmp_path_factory.mktemp("grid") / "g"
    save_gridset(synth_teleconnection_dataset(4, 4, 40, 1, seed=8)[0], directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["manifest.json", "mask.bin", "data.bin"]),
    st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)), max_size=3),
    st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_corrupted_grid_loads_or_raises_format_or_data_error(
    grid_files, tmp_path_factory, name, flips, cut
):
    # up to three bytes of one file flipped, then that file cut at any
    # point; a container that still parses may load
    raw = bytearray(grid_files[name])
    for at, mask in flips:
        raw[int(at * len(raw))] ^= mask
    if cut is not None:
        raw = raw[: int(cut * len(raw))]
    directory = tmp_path_factory.getbasetemp() / "corrupt_grid"
    directory.mkdir(exist_ok=True)
    for file, content in grid_files.items():
        (directory / file).write_bytes(bytes(raw) if file == name else content)
    try:
        load_gridset(directory)
    except (FormatError, DataError):
        pass


# --- nodes ---------------------------------------------------------------------


def test_land_filter_all_ocean():
    nodes = land_filter_nodes(make_grid(3, 4))
    assert nodes.count == 12
    # lat-major, lon-minor scan order
    np.testing.assert_array_equal(nodes.cells[:5], [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0]])


def test_land_filter_with_land_cells():
    grid = make_grid(3, 4)
    grid.land_mask[[0, 0, 1, 2, 2], [0, 3, 1, 0, 2]] = True
    grid.data[:, :, grid.land_mask] = 0.0
    assert land_filter_nodes(grid).count == 7


def test_all_land_rejected():
    grid = make_grid(2, 4, lat0=40.0)
    grid.land_mask[...] = True
    with pytest.raises(DataError):
        land_filter_nodes(grid)


# --- ONI -----------------------------------------------------------------------


def test_oni_constant_field():
    grid = make_grid(value=1.0)
    oni = compute_oni_series(grid)
    assert np.isnan(oni[0]) and np.isnan(oni[-1])
    np.testing.assert_allclose(oni[1:-1], 1.0)


def test_oni_hand_fixture():
    # one ocean cell in the ONI region, SST anomalies 0, 3, 6
    grid = make_grid(1, 1, n_time=3, lat0=0.0)
    grid.data[:, 0, 0, 0] = [0.0, 3.0, 6.0]
    oni = compute_oni_series(grid)
    assert oni[1] == pytest.approx(3.0)
    assert np.isnan(oni[0]) and np.isnan(oni[2])


def test_oni_linear_field_keeps_slope():
    grid = make_grid(n_time=8, value=0.0)
    for t in range(8):
        grid.data[t] = 0.5 * t
    oni = compute_oni_series(grid)
    np.testing.assert_allclose(np.diff(oni[1:-1]), 0.5)


def test_oni_commutes_with_additive_shift():
    grid = make_grid(seed=5)
    base = compute_oni_series(grid)
    shifted_grid = make_grid(seed=5)
    shifted_grid.data = shifted_grid.data + 2.5
    shifted = compute_oni_series(shifted_grid)
    np.testing.assert_allclose(shifted[1:-1], base[1:-1] + 2.5)


def test_oni_outside_region_rejected():
    grid = make_grid(lat0=40.0)
    with pytest.raises(DataError):
        compute_oni_series(grid)


def test_oni_even_window_rejected():
    with pytest.raises(ConfigError):
        compute_oni_series(make_grid(), k=2)


# --- typed records ---------------------------------------------------------------


class _TupleHint:
    cells: tuple[int, int]


class _DictHint:
    sizes: dict[str, int]


@pytest.mark.parametrize("source", [_TupleHint, _DictHint, SynthSpec])
def test_a_table_with_a_hint_records_cannot_check_is_refused(source):
    # read as X | None, tuple[int, int] would take 3 and null, and
    # dict[str, int] the string "zz"; the spec's cells are list[tuple[int, int]]
    with pytest.raises(TypeError, match="plain class, list"):
        field_types(source)
    assert field_types(source, drop=tuple(source.__annotations__)) == {}


# --- samples ---------------------------------------------------------------------


def test_sample_count_with_fully_defined_oni():
    grid = make_grid(n_time=10)
    nodes = land_filter_nodes(grid)
    oni = np.arange(10.0)  # no NaN anywhere
    samples = build_samples(grid, nodes, window=3, lead=1, oni=oni)
    assert len(samples) == 7


def test_single_sample_case():
    grid = make_grid(n_time=2)
    nodes = land_filter_nodes(grid)
    samples = build_samples(grid, nodes, window=1, lead=1, oni=np.array([5.0, 7.0]))
    assert len(samples) == 1
    np.testing.assert_array_equal(
        samples.inputs[0], grid.data[0].reshape(2, -1).T
    )
    assert samples.targets[0] == 7.0


def test_an_interior_gap_in_the_oni_drops_only_its_windows():
    grid = make_grid(n_time=12, seed=5)
    nodes = extend_nodes_with_oni(land_filter_nodes(grid))
    oni = np.arange(12.0)
    oni[[0, 6, 7]] = np.nan  # targets of window ends 5 and 6 undefined
    samples = build_samples(grid, nodes, window=3, lead=1, oni=oni)
    inputs, ends, calendar = reference_samples(grid, nodes, 3, 1, oni)
    assert ends.tolist() == [2, 3, 4, 7, 8, 9, 10]
    assert_same_bits(samples.inputs, inputs.astype(np.float32))
    assert_same_bits(samples.window_end, ends)
    assert_same_bits(samples.end_calendar_month, calendar)
    assert_same_bits(samples.targets, oni[ends + 1].astype(np.float32))
    with pytest.raises(ValueError, match="read-only"):
        samples.inputs[0, 0, 0] = 0.0


def test_sample_count_matches_bruteforce():
    for t_len in (5, 9, 14, 20):
        grid = make_grid(n_time=t_len, seed=t_len)
        nodes = land_filter_nodes(grid)
        oni = compute_oni_series(grid)
        for window in (1, 2, 3, 4):
            for lead in (1, 2, 3):
                expected = sum(
                    1
                    for start in range(t_len)
                    if start + window - 1 + lead < t_len
                    and np.isfinite(oni[start + window - 1 + lead])
                )
                if expected == 0:
                    with pytest.raises(DataError):
                        build_samples(grid, nodes, window, lead, oni)
                else:
                    got = len(build_samples(grid, nodes, window, lead, oni))
                    assert got == expected, (t_len, window, lead)


def test_no_leakage_mutation():
    grid = make_grid(n_time=9, seed=11)
    nodes = land_filter_nodes(grid)
    oni = np.arange(9.0)
    samples = build_samples(grid, nodes, window=3, lead=2, oni=oni)
    for idx in range(len(samples)):
        end = int(samples.window_end[idx])
        corrupted = make_grid(n_time=9, seed=11)
        corrupted.data[end + 1 :] = 999.0
        again = build_samples(corrupted, nodes, window=3, lead=2, oni=oni)
        match = np.flatnonzero(again.window_end == end)[0]
        np.testing.assert_array_equal(again.inputs[match], samples.inputs[idx])


def test_samples_match_per_window_reference():
    # reference: one window at a time, as a slice of the (T, N, D) node series
    grid = make_grid(n_time=14, seed=6)
    oni = compute_oni_series(grid, k=5)
    for nodes in (land_filter_nodes(grid), extend_nodes_with_oni(land_filter_nodes(grid))):
        cells = nodes.cells[: nodes.grid_count]
        series = grid.data[:, :, cells[:, 0], cells[:, 1]].transpose(0, 2, 1)
        if nodes.has_oni_node:
            series = np.concatenate([series, regional_means(grid)[:, None, :]], axis=1)
        for window, lead in ((1, 1), (3, 2), (4, 3)):
            samples = build_samples(grid, nodes, window, lead, oni)
            expected = [
                (end, series[end - window + 1 : end + 1].transpose(1, 0, 2).reshape(nodes.count, -1))
                for end in range(window - 1, grid.n_time - lead)
                if np.isfinite(oni[end + lead])
            ]
            assert samples.window_end.tolist() == [end for end, _ in expected]
            inputs = np.stack([x for _, x in expected]).astype(np.float32)
            assert_same_bits(samples.inputs, inputs)
            assert_same_bits(samples.targets, oni[samples.window_end + lead].astype(np.float32))


def test_time_major_column_layout():
    grid = make_grid(n_time=4)
    nodes = land_filter_nodes(grid)
    samples = build_samples(grid, nodes, window=2, lead=1, oni=np.arange(4.0))
    x = samples.inputs[0]
    node0 = nodes.cells[0]
    np.testing.assert_array_equal(
        x[0],
        [
            grid.data[0, 0, node0[0], node0[1]],
            grid.data[0, 1, node0[0], node0[1]],
            grid.data[1, 0, node0[0], node0[1]],
            grid.data[1, 1, node0[0], node0[1]],
        ],
    )


def test_split_is_chronological():
    grid = make_grid(n_time=30, seed=2)
    nodes = land_filter_nodes(grid)
    for lead, k in ((1, 3), (2, 5), (3, 1)):
        samples = build_samples(grid, nodes, 3, lead, compute_oni_series(grid, k))
        train, test = split_samples(samples, 0.75, k)
        assert train.split == "train" and test.split == "test"
        assert len(train) == round(0.75 * len(samples)) and len(test) > 0
        # an embargo of lead + k // 2 samples: the last training label, a
        # k-month mean centered lead months after its window, ends before
        # the first test window does
        assert len(train) + lead + k // 2 + len(test) == len(samples)
        assert train.window_end.max() + lead + k // 2 < test.window_end.min()
        assert test.window_end.min() - train.window_end.max() == lead + k // 2 + 1


# --- ONI node ---------------------------------------------------------------------


def test_oni_node_constant_field():
    grid = make_grid(value=2.0)
    nodes = land_filter_nodes(grid)
    x = build_samples(grid, extend_nodes_with_oni(nodes), 2, 1, np.arange(6.0)).inputs[0]
    assert x.shape == (nodes.count + 1, 4)
    np.testing.assert_allclose(x[-1], 2.0)


def test_oni_node_two_cell_mean():
    grid = make_grid(n_lat=1, n_lon=2, n_time=2, lat0=0.0, lon0=190.0)
    grid.data[0, 0] = [[1.0, 3.0]]
    nodes = extend_nodes_with_oni(land_filter_nodes(grid))
    x = build_samples(grid, nodes, 1, 1, np.array([0.0, 1.0])).inputs[0]
    assert x[-1, 0] == pytest.approx(2.0)


def test_oni_node_extends_samples_and_static_features():
    grid = make_grid()
    grid_nodes = land_filter_nodes(grid)
    nodes2 = extend_nodes_with_oni(grid_nodes)
    oni = compute_oni_series(grid)
    samples = build_samples(grid, nodes2, 3, 1, oni)
    assert nodes2.count == grid_nodes.count + 1
    assert nodes2.has_oni_node
    assert samples.inputs.shape == (len(samples), nodes2.count, 6)
    assert samples.inputs.dtype == np.float32
    # a split views the one series, which nothing can write through
    train, _ = split_samples(samples, 1.0, 1)
    assert np.shares_memory(train.inputs, samples.inputs)
    with pytest.raises(ValueError, match="read-only"):
        train.inputs[0, 0, 0] = 0.0
    # grid rows are those of the samples without the ONI node
    plain = build_samples(grid, grid_nodes, 3, 1, oni)
    np.testing.assert_array_equal(samples.inputs[:, :-1], plain.inputs)
    static = build_static_features(grid, nodes2, np.arange(4))
    assert static.shape == (nodes2.count, 4)


def test_oni_node_row_holds_window_region_means():
    grid = make_grid(n_time=9, seed=4)
    nodes = extend_nodes_with_oni(land_filter_nodes(grid))
    samples = build_samples(grid, nodes, 3, 2, np.arange(9.0))
    means = regional_means(grid)
    for x, end in zip(samples.inputs, samples.window_end):
        assert_same_bits(x[-1], means[end - 2 : end + 1].reshape(-1).astype(np.float32))


def test_prepare_dataset_computes_region_means_once_per_use(monkeypatch):
    # the ONI series, the ONI node rows and its static features each take
    # the region means once, however many samples there are
    import onigraph.data as data_module

    calls = []
    original = data_module.regional_means

    def counting(grid):
        calls.append(1)
        return original(grid)

    monkeypatch.setattr(data_module, "regional_means", counting)
    counts = []
    for months in (48, 96):
        grid, _ = synth_teleconnection_dataset(5, 5, months, 1, seed=3)
        calls.clear()
        bundle = prepare_dataset(grid, window=3, lead=1)
        counts.append((len(calls), len(bundle.train) + len(bundle.test)))
    assert counts[0][1] < counts[1][1]
    assert [c for c, _ in counts] == [3, 3]


# --- static features ------------------------------------------------------------


def standardized(raw):
    """The columns of ``raw`` standardized over its rows, by the formula of
    build_static_features."""
    sd = raw.std(axis=0)
    return (raw - raw.mean(axis=0)) / np.where(sd > 0.0, sd, 1.0)


def test_static_features_composition():
    grid = make_grid(seed=9)
    nodes = land_filter_nodes(grid)
    months = np.arange(3)
    static = build_static_features(grid, nodes, months)
    cells = nodes.cells
    raw = np.column_stack(
        [
            grid.data[:3, 0, cells[:, 0], cells[:, 1]].mean(axis=0),
            grid.data[:3, 1, cells[:, 0], cells[:, 1]].mean(axis=0),
            nodes.latlon[:, 0] / 90.0,
            nodes.latlon[:, 1] / 180.0,
        ]
    )
    assert static[5] == pytest.approx(standardized(raw)[5])


def test_static_features_are_standardized():
    grid = make_grid(seed=9)
    nodes = land_filter_nodes(grid)
    static = build_static_features(grid, nodes, np.arange(3))
    np.testing.assert_allclose(static.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(static.std(axis=0), 1.0, atol=1e-12)


# --- local adjacency -------------------------------------------------------------


def local_pairs(nodes):
    """The (row, col) node pairs of ``local_edges``, checked to be ascending
    flat indices off the diagonal: the self-loops are implicit."""
    flat = local_edges(nodes)
    assert flat.ndim == 1 and np.all(np.diff(flat) > 0)
    rows, cols = np.divmod(flat, nodes.count)
    assert np.all(rows != cols) and rows.max() < nodes.count
    return rows, cols


def test_local_adjacency_interior_eight_neighbors():
    grid = make_grid(5, 5, lat0=-10.0, lon0=165.0)
    rows, cols = local_pairs(land_filter_nodes(grid))
    center = 2 * 5 + 2
    assert np.count_nonzero(rows == center) == 8
    assert set(zip(rows.tolist(), cols.tolist())) == set(zip(cols.tolist(), rows.tolist()))


def test_local_adjacency_corner_without_wrap():
    grid = make_grid(3, 4, lat0=0.0, lon0=165.0)
    rows, _ = local_pairs(land_filter_nodes(grid))
    assert np.count_nonzero(rows == 0) == 3


def test_local_adjacency_corner_with_wrap():
    grid = make_grid(3, 72, lat0=0.0, lon0=0.0)  # full 360-degree band
    rows, cols = local_pairs(land_filter_nodes(grid))
    assert np.count_nonzero(rows == 0) == 5  # wrapping past the seam
    assert set(cols[rows == 0].tolist()) == {1, 71, 72, 73, 143}
    assert np.bincount(rows).max() <= 8


def test_local_adjacency_oni_node_isolated():
    nodes = extend_nodes_with_oni(land_filter_nodes(make_grid()))
    rows, cols = local_pairs(nodes)
    oni = nodes.count - 1
    assert not np.any(rows == oni) and not np.any(cols == oni)
    assert np.array_equal(np.unique(rows), np.arange(oni))  # every grid node has an edge


def whole_matrix_local_edges(nodes):
    """The predicate of ``local_edges`` over the whole N x N matrix at once,
    the form it had before it compared row blocks: the reference."""
    lat = nodes.latlon[:, 0]
    lon = np.mod(nodes.latlon[:, 1], 360.0)
    dlat = np.abs(lat[:, None] - lat[None, :])
    dlon = np.abs(lon[:, None] - lon[None, :])
    dlon = np.minimum(dlon, 360.0 - dlon)
    near = (dlat <= LOCAL_REACH + 1e-9) & (dlon <= LOCAL_REACH + 1e-9)
    np.fill_diagonal(near, False)
    return np.flatnonzero(near)


@pytest.mark.parametrize("seed", [37621, 37622, 37623])
def test_local_edges_in_row_blocks_equal_the_whole_matrix_formula(seed):
    # a grid band across the 0/360 seam with land cut out, plus the ONI
    # node, in at least three row blocks; then the same cells with every
    # coordinate moved by up to 2e-9 degrees, across the comparison's 1e-9
    # tolerance
    rng = np.random.default_rng(seed)
    n_lat, n_lon = rng.integers(16, 25), rng.integers(24, 37)
    grid = make_grid(n_lat, n_lon, n_time=1, lat0=-60.0, lon0=rng.uniform(-60.0, -10.0))
    grid.land_mask[...] = rng.random((n_lat, n_lon)) < 0.3
    nodes = extend_nodes_with_oni(land_filter_nodes(grid))
    assert grid.lons.min() < 0.0 < grid.lons.max()  # 0 and 360 are one meridian
    assert nodes.count > 2 * data_module._LOCAL_ROWS
    jittered = replace(nodes, latlon=nodes.latlon + rng.uniform(-2e-9, 2e-9, nodes.latlon.shape))
    for case in (nodes, jittered):
        got, want = local_edges(case), whole_matrix_local_edges(case)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_local_edges_at_full_grid_size_stay_below_ten_megabytes():
    # N=1345, the 32x42 grid plus the ONI node; the whole N x N matrix took
    # over 50 MB
    grid = make_grid(32, 42, n_time=1, lat0=-77.5, lon0=0.0, seed=37631)
    nodes = extend_nodes_with_oni(land_filter_nodes(grid))
    assert nodes.count == 1345
    tracemalloc.start()
    try:
        flat = local_edges(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat.tobytes() == whole_matrix_local_edges(nodes).tobytes()
    assert peak < 10_000_000


# --- synthetic dataset -----------------------------------------------------------


def test_synth_deterministic():
    a, spec_a = synth_teleconnection_dataset(6, 6, 60, 2, seed=4)
    b, spec_b = synth_teleconnection_dataset(6, 6, 60, 2, seed=4)
    np.testing.assert_array_equal(a.data, b.data)
    assert spec_a.driver_cells == spec_b.driver_cells


def test_synth_driver_leads_oni():
    grid, spec = synth_teleconnection_dataset(8, 8, 400, 2, seed=1, noise_sd=0.1)
    oni = compute_oni_series(grid)
    rows = np.array([c[0] for c in spec.driver_cells])
    cols = np.array([c[1] for c in spec.driver_cells])
    sst = grid.variables.index("sst_anomaly")
    driver_mean = grid.data[:, sst, rows, cols].mean(axis=1)
    t = np.arange(grid.n_time - spec.lead)
    valid = np.isfinite(oni[t + spec.lead])
    r = np.corrcoef(driver_mean[t][valid], oni[t + spec.lead][valid])[0, 1]
    assert r > 0.9


def test_synth_background_uncorrelated():
    grid, spec = synth_teleconnection_dataset(8, 8, 400, 2, seed=1, noise_sd=0.1)
    oni = compute_oni_series(grid)
    special = set(spec.driver_cells) | set(spec.region_cells)
    sst = grid.variables.index("sst_anomaly")
    valid = np.isfinite(oni)
    worst = 0.0
    for i in range(grid.n_lat):
        for j in range(grid.n_lon):
            if (i, j) in special:
                continue
            r = np.corrcoef(grid.data[valid, sst, i, j], oni[valid])[0, 1]
            worst = max(worst, abs(r))
    assert worst < 0.2


def test_synth_geometry_and_separation():
    grid, spec = synth_teleconnection_dataset(8, 8, 48, 1, seed=0)
    assert len(oni_region_cells(grid)) == 9  # 3 rows x 3 easternmost columns
    # the smallest Chebyshev grid distance between a driver and a region cell
    steps = np.abs(np.array(spec.driver_cells)[:, None] - np.array(spec.region_cells))
    assert steps.max(axis=2).min() >= 4
    assert spec.driver_cells == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_teleconnection_dataset(3, 8, 48, 1)
    with pytest.raises(ConfigError):
        synth_teleconnection_dataset(8, 8, 30, 1)


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (32, 42), (37, 64)])
def test_synth_region_is_the_planted_one_up_to_the_largest_grid(shape):
    grid, spec = synth_teleconnection_dataset(*shape, 40, 1, seed=99201)
    assert [tuple(c) for c in oni_region_cells(grid).tolist()] == spec.region_cells
    assert -90.0 <= grid.lats.min() and grid.lats.max() <= 90.0


@pytest.mark.parametrize("shape", [(38, 8), (8, 65), (8, 72)])
def test_synth_refuses_grids_that_do_not_fit_on_the_globe_once(shape):
    # 38 rows reach past -90 degrees; from 65 columns on, the western edge
    # wraps around into the ONI longitudes
    with pytest.raises(ConfigError, match="37x64"):
        synth_teleconnection_dataset(*shape, 40, 1, seed=99201)


@pytest.mark.parametrize(
    "shape, seed, background_sd, sha1",
    [
        ((32, 42), 27301, None, "dae916944701e7b9fd4a9e788641ecb92d9ed682"),
        ((8, 8), 27302, 1.0, "e4e8295bfbbe0d73a819ca3da8e5871a2e48e39f"),
    ],
)
def test_synth_grid_bits_are_pinned(shape, seed, background_sd, sha1):
    # the two benchmark shapes: 240 months, lead 2
    grid, _ = synth_teleconnection_dataset(*shape, 240, 2, seed=seed, background_sd=background_sd)
    assert grid.data.dtype == np.float64 and grid.data.flags.c_contiguous
    assert hashlib.sha1(grid.data.tobytes()).hexdigest() == sha1


# --- bundle ------------------------------------------------------------------------


def test_prepare_dataset_shapes():
    grid, _ = synth_teleconnection_dataset(6, 6, 80, 1, seed=7)
    bundle = prepare_dataset(grid, window=3, lead=1, train_fraction=0.8)
    n = bundle.nodes.count
    assert n == 37  # 36 ocean cells + ONI node
    assert bundle.static_features.shape == (n, 4)
    assert all(x.shape == (n, 6) for x in bundle.train.inputs)
    assert len(bundle.train) > len(bundle.test) > 0
    # static features only use training months
    max_train_month = int(bundle.train.window_end.max())
    assert max_train_month < int(bundle.test.window_end.min())


def test_prepare_dataset_splits_view_one_read_only_series():
    # a window longer than the embargo, so the first test window reads
    # months that the last training window reads too
    grid, _ = synth_teleconnection_dataset(6, 6, 80, 1, seed=7)
    bundle = prepare_dataset(grid, window=6, lead=1, train_fraction=0.8)
    train, test = bundle.train, bundle.test
    assert test.window_end.min() - 6 < train.window_end.max()
    assert np.shares_memory(train.inputs, test.inputs)
    for part in (train, test):
        with pytest.raises(ValueError, match="read-only"):
            part.inputs[...] = 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_regional_means_shift(c):
    grid = make_grid(seed=13)
    base = regional_means(grid)
    grid2 = make_grid(seed=13)
    grid2.data = grid2.data + c
    np.testing.assert_allclose(regional_means(grid2), base + c, atol=1e-9)


# --- whole-array steps against their per-month references -------------------------


def reference_oni(grid, k):
    spatial = regional_means(grid)[:, grid.variables.index("sst_anomaly")]
    half = k // 2
    oni = np.full(grid.n_time, np.nan)
    for t in range(half, grid.n_time - half):
        oni[t] = spatial[t - half : t + half + 1].mean()
    return oni


def reference_samples(grid, nodes, window, lead, oni):
    """(inputs, window ends, end calendar months), one window month at a time
    from a time-major (T, N, D) node series."""
    n_vars = len(grid.variables)
    cells = nodes.cells[: nodes.grid_count]
    monthly = np.empty((grid.n_time, nodes.count, n_vars))
    monthly[:, : nodes.grid_count] = grid.data[:, :, cells[:, 0], cells[:, 1]].transpose(0, 2, 1)
    if nodes.has_oni_node:
        monthly[:, -1] = regional_means(grid)
    ends = np.arange(window - 1, grid.n_time - lead)
    ends = ends[np.isfinite(oni[ends + lead])]
    if ends.size == 0:
        raise DataError("no sample window has a defined target")
    inputs = np.empty((ends.size, nodes.count, window * n_vars))
    for k in range(window):
        inputs[:, :, k * n_vars : (k + 1) * n_vars] = monthly[ends - (window - 1 - k)]
    return inputs, ends, np.asarray([grid.calendar_month(t) for t in ends])


def reference_static_means(grid, nodes, months):
    cells = nodes.cells[: nodes.grid_count]
    return grid.data[months][:, :, cells[:, 0], cells[:, 1]].mean(axis=0).T  # (N, D)


def reference_static_features(grid, nodes, months):
    """The static features before standardizing: the reference means, then
    latitude / 90 and longitude / 180, and the ONI node's region means and
    center."""
    n_vars = len(grid.variables)
    raw = np.zeros((nodes.count, n_vars + 2))
    raw[: nodes.grid_count, :n_vars] = reference_static_means(grid, nodes, months)
    raw[: nodes.grid_count, n_vars:] = nodes.latlon[: nodes.grid_count] / [90.0, 180.0]
    if nodes.has_oni_node:
        raw[-1, :n_vars] = regional_means(grid)[months].mean(axis=0)
        raw[-1, n_vars:] = np.divide(ONI_CENTER_LATLON, [90.0, 180.0])
    return raw


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@st.composite
def land_grids(draw):
    """A grid placed as the generator places it, with the ONI region in its
    three equatorial rows and three easternmost columns, and random land
    everywhere outside that region."""
    n_lat, n_lon = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    n_time = draw(st.integers(1, 80))
    variables = draw(
        st.sampled_from(
            [["sst_anomaly"], list(KNOWN_VARIABLES), list(reversed(KNOWN_VARIABLES))]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSet(
        n_lat=n_lat,
        n_lon=n_lon,
        lat0=-5.0 * (n_lat // 2),
        dlat=5.0,
        lon0=190.0 - 5.0 * (n_lon - 3),
        dlon=5.0,
        start_month=f"2000-{draw(st.integers(1, 12)):02d}",
        n_time=n_time,
        variables=variables,
        land_mask=rng.random((n_lat, n_lon)) < draw(st.floats(0.0, 0.9)),
        # full float64 mantissas: float32 values would sum exactly in any order
        data=rng.normal(size=(n_time, len(variables), n_lat, n_lon)),
    )
    region = oni_region_cells(replace(grid, land_mask=np.zeros_like(grid.land_mask)))
    grid.land_mask[region[:, 0], region[:, 1]] = False
    grid.data[:, :, grid.land_mask] = 0.0
    return grid


@settings(max_examples=150, deadline=None)
@given(
    grid=land_grids(),
    oni_node=st.booleans(),
    window=st.integers(1, 4),
    lead=st.integers(1, 6),
    k=st.sampled_from(range(1, 32, 2)),
    draw=st.data(),
)
def test_dataset_steps_keep_the_bits_of_their_per_month_references(
    grid, oni_node, window, lead, k, draw
):
    oni = compute_oni_series(grid, k)
    assert_same_bits(oni, reference_oni(grid, k))

    nodes = land_filter_nodes(grid)
    if oni_node:
        nodes = extend_nodes_with_oni(nodes)
    try:
        inputs, ends, calendar = reference_samples(grid, nodes, window, lead, oni)
    except DataError:
        with pytest.raises(DataError):
            build_samples(grid, nodes, window, lead, oni)
    else:
        samples = build_samples(grid, nodes, window, lead, oni)
        with pytest.raises(ValueError, match="read-only"):
            samples.inputs[-1] = 0.0
        assert_same_bits(samples.inputs, inputs.astype(np.float32))
        assert_same_bits(samples.window_end, ends)
        assert_same_bits(samples.end_calendar_month, calendar)
        assert_same_bits(samples.targets, oni[ends + lead].astype(np.float32))

    # unsorted, gapped and repeated months
    months = np.asarray(
        draw.draw(st.lists(st.integers(0, grid.n_time - 1), min_size=1, max_size=160)), dtype=int
    )
    static = build_static_features(grid, nodes, months)
    raw = reference_static_features(grid, nodes, months)
    expected = standardized(raw)
    if len(grid.variables) > 1:
        assert_same_bits(static, expected)
    else:
        # with one variable the reference's gather leaves the months innermost
        # in memory, and numpy sums them pairwise; the rewrite sums them in
        # month order, as both do with two. Each order is within about
        # (M - 1) eps / 2 of the exact sum relative to the sum of magnitudes,
        # so twice M eps times the mean magnitude bounds the difference.
        eps = np.finfo(float).eps
        cells = nodes.cells[: nodes.grid_count]
        magnitude = np.abs(grid.data[months, 0][:, cells[:, 0], cells[:, 1]]).mean(axis=0)
        bound = (2 * months.size * eps * magnitude).max()
        # Standardizing moves the column's mean and sd by at most that bound
        # each, so a value s by at most (2 + |s|) bound / (sd - bound). Each
        # side's mean and sd round within about n eps of their magnitudes,
        # which moves s by about n eps (max |raw| / sd + 1 + |s|) more.
        assert_same_bits(static[:, 1:], expected[:, 1:])
        column, s, n = raw[:, 0], np.abs(expected[:, 0]), nodes.count
        sd = column.std()
        if sd > 0.0:
            limit = (2 + s) * bound / (sd - bound)
            limit += 4 * n * eps * (np.abs(column).max() / sd + 1 + s)
            assert np.all(np.abs(static[:, 0] - expected[:, 0]) <= limit)
        else:  # one node: centered to zero on both sides
            assert_same_bits(static[:, 0], expected[:, 0])


def test_short_grids_keep_their_typed_errors():
    grid = make_grid(n_time=4)
    nodes = land_filter_nodes(grid)
    # a grid shorter than the running mean has no ONI month
    assert np.isnan(compute_oni_series(grid, k=5)).all()
    with pytest.raises(DataError, match="no sample window"):
        build_samples(grid, nodes, window=3, lead=2, oni=np.arange(4.0))
    with pytest.raises(DataError, match="no sample window"):
        build_samples(grid, nodes, window=1, lead=1, oni=compute_oni_series(grid, k=5))


def test_build_samples_at_full_grid_size_holds_only_the_inputs_and_the_node_series():
    # node-major series (N, T, D), gathered a block of nodes at a time, and
    # the inputs a view of it: no window-sized array or temporary beside it
    grid, _ = synth_teleconnection_dataset(32, 42, 240, 2, seed=6007)
    nodes = extend_nodes_with_oni(land_filter_nodes(grid))
    oni = compute_oni_series(grid)
    tracemalloc.start()
    try:
        samples = build_samples(grid, nodes, window=3, lead=2, oni=oni)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    series_bytes = nodes.count * grid.n_time * len(grid.variables) * samples.inputs.itemsize
    assert samples.inputs.nbytes > 2 * series_bytes  # each month in three windows
    assert peak < series_bytes + 2**20
