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


def _read_row(row: dict, index: int, columns: tuple) -> tuple:
    """A CSV row's ``algorithm``, then each of ``columns`` as a finite float; ValueError
    naming the row (counted from 1 after the header) and the first column it lacks or cannot read."""
    for column in ("algorithm",) + columns:
        if row[column] is None:
            raise ValueError(f"sweep CSV row {index} lacks a value for {column!r}")
    numbers = []
    for column in columns:
        try:
            number = float(row[column])
        except ValueError:
            number = float("nan")
        if not abs(number) < float("inf"):  # NaN and the infinities
            raise ValueError(f"sweep CSV row {index}: {column} must be a finite number, got {row[column]!r}")
        numbers.append(number)
    return (row["algorithm"], *numbers)


def build_series(spec: PlotSpec) -> tuple[dict[str, list[tuple[float, float]]], list[tuple[float, float]]]:
    """Series points keyed by name, plus the bound overlay points (maybe empty)."""
    require_choice(spec.metric, "metric", METRIC_COLUMNS)
    if spec.smooth_window is not None and spec.metric != "delta":
        raise ValueError(f"smooth_window applies to the delta metric only, not {spec.metric!r}")
    with open(spec.input_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {spec.input_csv}")
    column = METRIC_COLUMNS[spec.metric]
    require_keys(rows[0], "sweep CSV", column, "T", "algorithm")
    # The bound is read with the rest when present; its absence is reported after the zoom and delta checks.
    bound = ("counting_bound",) if spec.overlay_counting_bound and "counting_bound" in rows[0] else ()
    points = [_read_row(r, i, ("T", column) + bound) for i, r in enumerate(rows, 1)]

    if spec.zoom is not None:
        lo, hi = spec.zoom
        points = [p for p in points if lo <= p[1] <= hi]
        if not points:
            raise ValueError(f"zoom range [{lo}, {hi}] contains no data")

    series: dict[str, list[tuple[float, float]]] = {}
    if spec.metric == "delta":
        series["delta"] = delta_points(((t, a, v) for a, t, v, *_ in points), spec.smooth_window)
    else:
        for a, t, v, *_ in points:
            series.setdefault(a, []).append((t, v))

    bound_points: list[tuple[float, float]] = []
    if spec.overlay_counting_bound:
        require_keys(rows[0], "sweep CSV", "counting_bound")
        bound_points = sorted({t: b for _, t, _, b in points}.items())

    # Series in ALGORITHMS order, then any other names alphabetically.
    rank = {name: i for i, name in enumerate(ALGORITHMS)}
    names = sorted(series, key=lambda name: (rank.get(name, len(rank)), name))
    return {name: sorted(series[name]) for name in names}, bound_points


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _escape(value) -> str:
    text = f"{value:.2f}" if isinstance(value, float) else str(value)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _tag(name: str, text=None, **attrs) -> str:
    """One SVG element: floats to 2 decimals, a key ``a_b`` as ``a-b`` and ``class_`` as
    ``class``, and every value and the text escaped."""
    pairs = "".join(f' {key.rstrip("_").replace("_", "-")}="{_escape(v)}"' for key, v in attrs.items())
    return f"<{name}{pairs}/>" if text is None else f"<{name}{pairs}>{_escape(text)}</{name}>"


def emit_plot(spec: PlotSpec) -> str:
    """Render the figure and write it to ``spec.output_path``; returns the SVG."""
    series, bound_points = build_series(spec)

    width, height = 640, 420
    left, right, top, bottom = 62.0, 20.0, 26.0, 46.0
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
    if not (0 < x_hi - x_lo < float("inf") and 0 < y_hi - y_lo < float("inf")):
        raise ValueError(f"cannot scale T in [{x_lo}, {x_hi}] and values in [{y_lo}, {y_hi}] to a figure")

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">']

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    def coords(pts) -> str:
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)

    def legend(row: int, label: str, **stroke) -> None:
        ly, lx = top + 6 + 16 * row, left + plot_w - 120
        out.append(_tag("line", x1=lx, y1=ly, x2=lx + 20, y2=ly, **stroke))
        out.append(_tag("text", label, x=lx + 26, y=ly + 4, font_size=11))

    out.append(_tag("rect", width=width, height=height, fill="white"))
    axis = f"{left:.2f},{top:.2f} {left:.2f},{top + plot_h:.2f} {left + plot_w:.2f},{top + plot_h:.2f}"
    out.append(_tag("polyline", stroke="#333", stroke_width=1, fill="none", points=axis))
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(_tag("line", x1=px, y1=top + plot_h, x2=px, y2=top + plot_h + 4, stroke="#333"))
        out.append(_tag("text", f"{tx:.6g}", x=px, y=top + plot_h + 18, font_size=11, text_anchor="middle"))
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(_tag("line", x1=left - 4, y1=py, x2=left, y2=py, stroke="#333"))
        out.append(_tag("text", f"{ty:.6g}", x=left - 8, y=py + 4, font_size=11, text_anchor="end"))
    mid_x, mid_y = left + plot_w / 2, top + plot_h / 2
    out.append(_tag("text", "T (number of tests)", x=mid_x, y=height - 10.0, font_size=12,
                    text_anchor="middle"))
    out.append(_tag("text", spec.metric, x=16, y=mid_y, font_size=12, text_anchor="middle",
                    transform=f"rotate(-90 16 {mid_y:.2f})"))

    dashed = {"stroke": "#555", "stroke_width": "1.5", "stroke_dasharray": "6 4"}
    if bound_points:
        out.append(_tag("polyline", class_="bound", fill="none", **dashed, points=coords(bound_points)))
    for row, (name, pts) in enumerate(series.items()):
        color = _PALETTE[row % len(_PALETTE)]
        if len(pts) > 1:
            out.append(_tag("polyline", class_="series", fill="none", stroke=color, stroke_width="1.5",
                            points=coords(pts)))
        out.extend(_tag("circle", class_="marker", cx=sx(x), cy=sy(y), r=3, fill=color) for x, y in pts)
        legend(row, name, stroke=color, stroke_width=2)
    if bound_points:
        legend(len(series), "counting bound", **dashed)

    out.append("</svg>")
    svg = "\n".join(out) + "\n"
    with open(spec.output_path, "w") as fh:
        fh.write(svg)
    return svg
