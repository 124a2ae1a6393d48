import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onigraph.data import (
    GridSet,
    build_samples,
    build_static_features,
    compute_oni_series,
    extend_nodes_with_oni,
    gridset_from_csv,
    land_filter_nodes,
    load_gridset,
    local_adjacency,
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


@pytest.mark.parametrize("field", ["mask_file", "data_file"])
def test_grid_file_naming_a_directory_is_format_error(tmp_path, field):
    save_gridset(make_grid(), tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest[field] = ""  # the grid directory itself
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"cannot read {tmp_path / 'g'}"):
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


def test_csv_import(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(
        "time,lat,lon,var,value\n"
        "0,0,190,sst_anomaly,0\n"
        "1,0,190,sst_anomaly,3\n"
        "2,0,190,sst_anomaly,6\n"
    )
    grid = gridset_from_csv(path)
    assert grid.n_lat == grid.n_lon == 1
    assert grid.variables == ["sst_anomaly"]
    np.testing.assert_array_equal(grid.data[:, 0, 0, 0], [0.0, 3.0, 6.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_load_rejects_nonfinite_values(tmp_path, bad):
    grid = make_grid()
    grid.data[2, 1, 0, 3] = bad
    save_gridset(grid, tmp_path / "g")
    with pytest.raises(DataError):
        load_gridset(tmp_path / "g")


def test_csv_rejects_nan_value(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(
        "time,lat,lon,var,value\n"
        "0,0,190,sst_anomaly,0\n"
        "1,0,190,sst_anomaly,nan\n"
    )
    with pytest.raises(DataError):
        gridset_from_csv(path)


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


def test_oni_hand_fixture(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(
        "time,lat,lon,var,value\n"
        "0,0,190,sst_anomaly,0\n"
        "1,0,190,sst_anomaly,3\n"
        "2,0,190,sst_anomaly,6\n"
    )
    oni = compute_oni_series(gridset_from_csv(path))
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
            np.testing.assert_array_equal(samples.inputs, np.stack([x for _, x in expected]))
            np.testing.assert_array_equal(samples.targets, oni[samples.window_end + lead])


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
    assert samples.inputs.flags.c_contiguous and samples.inputs.dtype == np.float64
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
        np.testing.assert_array_equal(x[-1], means[end - 2 : end + 1].reshape(-1))


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


def test_static_features_composition():
    grid = make_grid(seed=9)
    nodes = land_filter_nodes(grid)
    months = np.arange(3)
    static = build_static_features(grid, nodes, months, standardize=False)
    cell = nodes.cells[5]
    assert static[5, 0] == pytest.approx(grid.data[:3, 0, cell[0], cell[1]].mean())
    assert static[5, 1] == pytest.approx(grid.data[:3, 1, cell[0], cell[1]].mean())
    assert static[5, 2] == pytest.approx(nodes.latlon[5, 0] / 90.0)
    assert static[5, 3] == pytest.approx(nodes.latlon[5, 1] / 180.0)


def test_static_features_standardized_by_default():
    grid = make_grid(seed=9)
    nodes = land_filter_nodes(grid)
    static = build_static_features(grid, nodes, np.arange(3))
    np.testing.assert_allclose(static.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(static.std(axis=0), 1.0, atol=1e-12)


# --- local adjacency -------------------------------------------------------------


def test_local_adjacency_interior_eight_neighbors():
    grid = make_grid(5, 5, lat0=-10.0, lon0=165.0)
    nodes = land_filter_nodes(grid)
    adj = local_adjacency(nodes)
    center = 2 * 5 + 2
    assert adj[center].sum() == 9  # 8 neighbors + self-loop
    np.testing.assert_array_equal(adj, adj.T)


def test_local_adjacency_corner_without_wrap():
    grid = make_grid(3, 4, lat0=0.0, lon0=165.0)
    adj = local_adjacency(land_filter_nodes(grid))
    assert adj[0].sum() == 4  # 3 neighbors + self-loop


def test_local_adjacency_corner_with_wrap():
    grid = make_grid(3, 72, lat0=0.0, lon0=0.0)  # full 360-degree band
    nodes = land_filter_nodes(grid)
    adj = local_adjacency(nodes)
    assert adj[0].sum() == 6  # 5 neighbors (wrapping past the seam) + self-loop
    degrees = adj.sum(axis=1) - 1.0
    assert degrees.max() <= 8.0


def test_local_adjacency_oni_node_isolated():
    nodes = extend_nodes_with_oni(land_filter_nodes(make_grid()))
    adj = local_adjacency(nodes)
    assert adj[-1].sum() == 1.0 and adj[:, -1].sum() == 1.0


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
    assert spec.min_separation_steps() >= 4
    assert spec.driver_cells == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_teleconnection_dataset(3, 8, 48, 1)
    with pytest.raises(ConfigError):
        synth_teleconnection_dataset(8, 8, 30, 1)


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


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_regional_means_shift(c):
    grid = make_grid(seed=13)
    base = regional_means(grid)
    grid2 = make_grid(seed=13)
    grid2.data = grid2.data + c
    np.testing.assert_allclose(regional_means(grid2), base + c, atol=1e-9)
