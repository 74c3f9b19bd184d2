"""Static SVG figures from benchmark CSV files.

The emitter draws one line-with-markers per algorithm for a chosen metric
against the number of tests, with an optional dashed overlay of the
counting bound (the information-theoretic ceiling on success probability)
and an optional zoom window on the T axis. SVG output is textual and
byte-deterministic for a fixed input.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .checks import require_choice, require_keys
from .sim import ALGORITHMS, delta_points

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

# ``gt plot --metric`` name -> the sweep CSV column it plots.
METRIC_COLUMNS = {
    "success_prob": "success_prob",
    "mean_fn": "mean_fn",
    "mean_fp": "mean_fp",
    "jaccard": "mean_jaccard",
    "f1": "mean_f1",
    "delta": "mean_misclassified",
}


@dataclass(frozen=True)
class PlotSpec:
    input_csv: str
    metric: str
    output_path: str
    overlay_counting_bound: bool = False
    zoom: tuple[int, int] | None = None
    smooth_window: int | None = None  # the delta metric only


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows


def build_series(spec: PlotSpec) -> tuple[dict[str, list[tuple[float, float]]], list[tuple[float, float]]]:
    """Series points keyed by name, plus the bound overlay points (maybe empty)."""
    require_choice(spec.metric, "metric", METRIC_COLUMNS)
    if spec.smooth_window is not None and spec.metric != "delta":
        raise ValueError(f"smooth_window applies to the delta metric only, not {spec.metric!r}")
    rows = _read_csv(spec.input_csv)
    column = METRIC_COLUMNS[spec.metric]
    require_keys(rows[0], "sweep CSV", column, "T", "algorithm")

    if spec.zoom is not None:
        lo, hi = spec.zoom
        rows = [r for r in rows if lo <= float(r["T"]) <= hi]
        if not rows:
            raise ValueError(f"zoom range [{lo}, {hi}] contains no data")

    series: dict[str, list[tuple[float, float]]] = {}
    if spec.metric == "delta":
        series["delta"] = delta_points(
            ((float(r["T"]), r["algorithm"], float(r[column])) for r in rows), spec.smooth_window
        )
    else:
        for r in rows:
            series.setdefault(r["algorithm"], []).append((float(r["T"]), float(r[column])))
        for name in series:
            series[name] = sorted(series[name])

    bound_points: list[tuple[float, float]] = []
    if spec.overlay_counting_bound:
        require_keys(rows[0], "sweep CSV", "counting_bound")
        seen = {}
        for r in rows:
            seen[float(r["T"])] = float(r["counting_bound"])
        bound_points = sorted(seen.items())

    # Series in ALGORITHMS order, then any other names alphabetically.
    rank = {name: i for i, name in enumerate(ALGORITHMS)}
    ordered = dict(sorted(series.items(), key=lambda kv: (rank.get(kv[0], len(rank)), kv[0])))
    return ordered, bound_points


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_plot(spec: PlotSpec) -> str:
    """Render the figure and write it to ``spec.output_path``; returns the SVG."""
    series, bound_points = build_series(spec)
    if not any(series.values()):
        raise ValueError("no points to plot")

    width, height = 640, 420
    left, right, top, bottom = 62, 20, 26, 46
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [x for pts in series.values() for x, _ in pts] + [x for x, _ in bound_points]
    ys = [y for pts in series.values() for _, y in pts] + [y for _, y in bound_points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    axis_style = 'stroke="#333" stroke-width="1" fill="none"'
    out.append(
        f'<polyline {axis_style} points="{left:.2f},{top:.2f} {left:.2f},{top + plot_h:.2f} '
        f'{left + plot_w:.2f},{top + plot_h:.2f}"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 4:.2f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(
            f'<line x1="{left - 4:.2f}" y1="{py:.2f}" x2="{left:.2f}" y2="{py:.2f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{left - 8:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 10:.2f}" font-size="12" '
        f'text-anchor="middle">T (number of tests)</text>'
    )
    out.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">{spec.metric}</text>'
    )

    if bound_points:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in bound_points)
        out.append(
            f'<polyline class="bound" fill="none" stroke="#555" stroke-width="1.5" '
            f'stroke-dasharray="6 4" points="{pts}"/>'
        )

    legend_y = top + 6
    for idx, (name, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        if len(pts) > 1:
            out.append(
                f'<polyline class="series" fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{coords}"/>'
            )
        for x, y in pts:
            out.append(
                f'<circle class="marker" cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        out.append(
            f'<line x1="{left + plot_w - 120:.2f}" y1="{legend_y:.2f}" '
            f'x2="{left + plot_w - 100:.2f}" y2="{legend_y:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{left + plot_w - 94:.2f}" y="{legend_y + 4:.2f}" font-size="11">{name}</text>'
        )
        legend_y += 16
    if bound_points:
        out.append(
            f'<line x1="{left + plot_w - 120:.2f}" y1="{legend_y:.2f}" '
            f'x2="{left + plot_w - 100:.2f}" y2="{legend_y:.2f}" stroke="#555" '
            f'stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{left + plot_w - 94:.2f}" y="{legend_y + 4:.2f}" '
            f'font-size="11">counting bound</text>'
        )

    out.append("</svg>")
    svg = "\n".join(out) + "\n"
    with open(spec.output_path, "w") as fh:
        fh.write(svg)
    return svg
