"""CSV and SVG exports: centrality heatmaps and forecast timeseries.

:func:`export_centrality_heatmap` writes <path>.csv and <path>.svg;
:func:`export_forecast_timeseries` writes <path>.svg only, since the
series' values are the CSV that ``training.write_predictions_csv`` writes.
SVG output is hand-rendered (no plotting dependency) so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError
from .training import EvalReport, write_csv

Array = np.ndarray

CELL_PX = 24
CHART_W, CHART_H, MARGIN = 640, 320, 40


def _ramp(t: float) -> str:
    """Linear grayscale-to-hot ramp: black through red and yellow to white."""
    r = min(1.0, 3.0 * t)
    g = min(1.0, max(0.0, 3.0 * t - 1.0))
    b = min(1.0, max(0.0, 3.0 * t - 2.0))
    return "#{:02x}{:02x}{:02x}".format(round(255 * r), round(255 * g), round(255 * b))


def _write_svg(path: Path, width: int, height: int, background: str, body: list[str]) -> None:
    """Every SVG the package writes, its directory made if missing: a
    ``width`` x ``height`` document of ``body`` over a ``background`` fill."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="{background}"/>',
        *body,
        "</svg>",
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


def export_centrality_heatmap(scores: Array, latlon: Array, path: str | Path) -> tuple[Path, Path]:
    """Write <path>.csv (lat,lon,centrality per grid node) and <path>.svg
    (equirectangular cell raster; land cells are blank) from one score per
    node and the nodes' (N, 2) coordinates in degrees. A node whose
    coordinates are NaN, as the ONI node's are, has no cell and is left
    out of both, a ``DataError`` if none is left. Returns both paths."""
    values = np.asarray(scores, float)
    if latlon.shape != (values.size, 2):
        raise DimensionError(f"{values.shape} scores for node coordinates of shape {latlon.shape}")
    csv_path, svg_path = (Path(f"{Path(path)}.{ext}") for ext in ("csv", "svg"))

    located = ~np.isnan(latlon).any(axis=1)
    if not located.any():
        raise DataError(f"none of the {values.size} nodes has coordinates for a heatmap cell")
    latlon, values = latlon[located], values[located]
    rows = [(round(float(a), 6), round(float(b), 6), v) for (a, b), v in zip(latlon, values)]
    write_csv(csv_path, "lat,lon,centrality", rows)

    lats = np.unique(latlon[:, 0])
    lons = np.unique(latlon[:, 1])
    lat_pos = {v: i for i, v in enumerate(lats)}
    lon_pos = {v: i for i, v in enumerate(lons)}
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo

    cells = []
    for (lat, lon), value in zip(latlon, values):
        t = 0.5 if span == 0.0 else (float(value) - lo) / span
        # row 0 at the top is the highest latitude
        y = (len(lats) - 1 - lat_pos[lat]) * CELL_PX
        x = lon_pos[lon] * CELL_PX
        cells.append(
            f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" fill="{_ramp(t)}"/>'
        )
    _write_svg(svg_path, len(lons) * CELL_PX, len(lats) * CELL_PX, "#dddddd", cells)
    return csv_path, svg_path


def _polyline(xs: Array, ys: Array, color: str) -> str:
    points = " ".join(f"{round(float(x), 6)!r},{round(float(y), 6)!r}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'


def export_forecast_timeseries(report: EvalReport, path: str | Path) -> Path:
    """Write <path>.svg plotting the target and prediction series, with the
    correlation and RMSE in the chart title. Returns its path."""
    if report.n == 0:
        raise DataError("cannot export an empty report")
    svg_path = Path(f"{Path(path)}.svg")

    both = np.concatenate([report.targets, report.predictions])
    lo, hi = float(both.min()), float(both.max())
    if hi == lo:
        hi = lo + 1.0
    inner_w, inner_h = CHART_W - 2 * MARGIN, CHART_H - 2 * MARGIN

    def to_xy(series: Array) -> tuple[Array, Array]:
        xs = MARGIN + inner_w * np.arange(report.n) / max(1, report.n - 1)
        ys = MARGIN + inner_h * (1.0 - (series - lo) / (hi - lo))
        return xs, ys

    title = (
        f"ONI forecast, lead {report.lead_months} mo: "
        f"r={report.r:.4f}, RMSE={report.rmse:.4f}, n={report.n}"
    )
    body = [
        f'<text x="{MARGIN}" y="{MARGIN - 16}" font-family="sans-serif" font-size="13">'
        f"{title}</text>",
        f'<line x1="{MARGIN}" y1="{CHART_H - MARGIN}" x2="{CHART_W - MARGIN}" '
        f'y2="{CHART_H - MARGIN}" stroke="#888888"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{CHART_H - MARGIN}" '
        f'stroke="#888888"/>',
        _polyline(*to_xy(report.targets), "#1f6fb4"),
        _polyline(*to_xy(report.predictions), "#e06c00"),
    ]
    _write_svg(svg_path, CHART_W, CHART_H, "#ffffff", body)
    return svg_path
