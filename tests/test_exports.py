import xml.etree.ElementTree as ET

import numpy as np
import pytest

from onigraph.data import extend_nodes_with_oni, land_filter_nodes, synth_teleconnection_dataset
from onigraph.errors import DimensionError
from onigraph.exports import export_centrality_heatmap, export_forecast_timeseries
from onigraph.training import EvalReport, write_predictions_csv


def sample_nodes():
    grid, _ = synth_teleconnection_dataset(4, 5, 48, 1, seed=2)
    grid.land_mask[0, 0] = True
    grid.data[:, :, 0, 0] = 0.0
    return extend_nodes_with_oni(land_filter_nodes(grid))


def sample_report(n=12):
    rng = np.random.default_rng(1)
    targets = rng.normal(size=n)
    preds = targets + rng.normal(0, 0.2, size=n)
    diff = preds - targets
    return EvalReport(
        lead_months=3,
        r=0.9,
        rmse=float(np.sqrt(np.mean(diff**2))),
        n=n,
        predictions=preds,
        targets=targets,
    )


def test_heatmap_csv_rows_match_ocean_nodes(tmp_path):
    nodes = sample_nodes()
    scores = np.linspace(0.1, 1.0, nodes.count)
    csv_path, svg_path = export_centrality_heatmap(scores, nodes.latlon, tmp_path / "heat")
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "lat,lon,centrality"
    assert len(rows) - 1 == nodes.grid_count  # the ONI node has no cell
    ET.fromstring(svg_path.read_text())


def test_heatmap_csv_values_parse_as_floats(tmp_path):
    nodes = sample_nodes()
    scores = np.linspace(0.1, 1.0, nodes.count)
    csv_path, _ = export_centrality_heatmap(scores, nodes.latlon, tmp_path / "heat")
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 2], scores[: nodes.grid_count])


def test_heatmap_uniform_scores_single_color(tmp_path):
    nodes = sample_nodes()
    _, svg_path = export_centrality_heatmap(np.full(nodes.count, 0.3), nodes.latlon, tmp_path / "h")
    svg = svg_path.read_text()
    fills = {line.split('fill="')[1].split('"')[0] for line in svg.splitlines() if "<rect x=" in line}
    assert len(fills) == 1


def test_heatmap_deterministic_bytes(tmp_path):
    nodes = sample_nodes()
    scores = np.linspace(0.0, 1.0, nodes.count)
    export_centrality_heatmap(scores, nodes.latlon, tmp_path / "a")
    export_centrality_heatmap(scores, nodes.latlon, tmp_path / "b")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_heatmap_length_mismatch_rejected(tmp_path):
    nodes = sample_nodes()
    with pytest.raises(DimensionError):
        export_centrality_heatmap(np.ones(3), nodes.latlon, tmp_path / "h")


def test_timeseries_writes_only_its_svg(tmp_path):
    # the series' values are the predictions CSV that evaluate writes
    svg_path = export_forecast_timeseries(sample_report(), tmp_path / "series")
    assert svg_path == tmp_path / "series.svg"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.svg"]


def test_predictions_csv_exact_values(tmp_path):
    report = sample_report()
    write_predictions_csv(report, tmp_path / "predictions.csv")
    rows = (tmp_path / "predictions.csv").read_text().strip().splitlines()
    assert rows[0] == "index,target,prediction"
    assert len(rows) - 1 == report.n
    i, target, pred = rows[3].split(",")
    assert float(target) == report.targets[2]
    assert float(pred) == report.predictions[2]


def test_timeseries_svg_wellformed_with_metrics_in_title(tmp_path):
    report = sample_report()
    svg_path = export_forecast_timeseries(report, tmp_path / "series")
    root = ET.fromstring(svg_path.read_text())
    text = "".join(root.itertext())
    assert f"r={report.r:.4f}" in text
    assert f"RMSE={report.rmse:.4f}" in text


def test_timeseries_double_render_identical(tmp_path):
    report = sample_report()
    export_forecast_timeseries(report, tmp_path / "a")
    export_forecast_timeseries(report, tmp_path / "b")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
