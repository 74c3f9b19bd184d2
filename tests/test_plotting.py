import csv
import hashlib
from dataclasses import replace
from xml.dom import minidom

import pytest

from grouptest.plotting import PlotSpec, build_series, emit_plot
from grouptest.sim import SimConfig, delta_series, run_sweep

HEADER = (
    "design,algorithm,N,k,T,alpha,n_trials,master_seed,success_prob,"
    "mean_fn,mean_fp,mean_jaccard,mean_f1,mean_misclassified,counting_bound"
)


def write_csv(path, rows):
    lines = [HEADER]
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    path.write_text("\n".join(lines) + "\n")


def sample_rows(t_values=(10, 20), algorithms=("comp", "scomp", "wscomp")):
    rows = []
    for t in t_values:
        for i, algo in enumerate(algorithms):
            rows.append(
                ["bernoulli", algo, 40, 3, t, 1.0, 5, 1, 0.1 * (i + 1), 0.5, 1.0, 0.4, 0.5, 1.5, 0.9]
            )
    return rows


def test_single_point_has_one_marker_per_series(tmp_path):
    csv_path = tmp_path / "one.csv"
    write_csv(csv_path, sample_rows(t_values=(10,)))
    out = tmp_path / "one.svg"
    svg = emit_plot(PlotSpec(str(csv_path), "success_prob", str(out)))
    assert svg.count('class="marker"') == 3
    assert 'class="series"' not in svg  # single points draw no polyline
    assert out.exists()


def test_overlay_draws_exactly_one_dashed_polyline(tmp_path):
    csv_path = tmp_path / "two.csv"
    write_csv(csv_path, sample_rows())
    svg = emit_plot(
        PlotSpec(str(csv_path), "success_prob", str(tmp_path / "two.svg"), overlay_counting_bound=True)
    )
    assert svg.count("stroke-dasharray") == 2  # bound polyline + its legend swatch
    dashed_polylines = [
        line for line in svg.splitlines() if "polyline" in line and "stroke-dasharray" in line
    ]
    assert len(dashed_polylines) == 1
    assert svg.count('class="series"') == 3


def test_missing_column_is_named(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("T,algorithm\n10,comp\n")
    with pytest.raises(ValueError, match="success_prob"):
        emit_plot(PlotSpec(str(csv_path), "success_prob", str(tmp_path / "x.svg")))


def test_unknown_metric_rejected(tmp_path):
    csv_path = tmp_path / "ok.csv"
    write_csv(csv_path, sample_rows())
    with pytest.raises(ValueError, match="metric"):
        emit_plot(PlotSpec(str(csv_path), "mean_squared_error", str(tmp_path / "x.svg")))


def test_zoom_filters_points(tmp_path):
    csv_path = tmp_path / "zoom.csv"
    write_csv(csv_path, sample_rows(t_values=(10, 20, 30), algorithms=("comp",)))
    svg = emit_plot(
        PlotSpec(str(csv_path), "success_prob", str(tmp_path / "z.svg"), zoom=(15, 30))
    )
    assert svg.count('class="marker"') == 2
    with pytest.raises(ValueError, match="zoom"):
        emit_plot(PlotSpec(str(csv_path), "success_prob", str(tmp_path / "z2.svg"), zoom=(40, 50)))


def test_deterministic_output(tmp_path):
    csv_path = tmp_path / "det.csv"
    cfg = SimConfig(
        n_items=30, n_defectives=2, design_kind="bernoulli",
        t_values=(8, 12), n_trials=10, master_seed=3,
    )
    run_sweep(cfg).to_csv(str(csv_path))
    spec_a = PlotSpec(str(csv_path), "f1", str(tmp_path / "a.svg"), overlay_counting_bound=True)
    spec_b = PlotSpec(str(csv_path), "f1", str(tmp_path / "b.svg"), overlay_counting_bound=True)
    emit_plot(spec_a)
    emit_plot(spec_b)
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_delta_metric_needs_both_greedy_decoders(tmp_path):
    csv_path = tmp_path / "delta.csv"
    write_csv(csv_path, sample_rows(algorithms=("comp", "dd")))
    with pytest.raises(ValueError, match="delta"):
        emit_plot(PlotSpec(str(csv_path), "delta", str(tmp_path / "d.svg")))
    csv_path2 = tmp_path / "delta2.csv"
    write_csv(csv_path2, sample_rows(algorithms=("scomp", "wscomp")))
    svg = emit_plot(PlotSpec(str(csv_path2), "delta", str(tmp_path / "d2.svg")))
    assert svg.count('class="marker"') == 2  # one delta point per T
    # one T without wscomp is enough to reject the CSV
    rows = [r for r in sample_rows(t_values=(10, 20, 30), algorithms=("scomp", "wscomp"))
            if (r[4], r[1]) != (20, "wscomp")]
    write_csv(csv_path, rows)
    with pytest.raises(ValueError, match="delta"):
        emit_plot(PlotSpec(str(csv_path), "delta", str(tmp_path / "d3.svg")))


@pytest.mark.parametrize("smooth_window", [None, 1, 3, 4])
def test_delta_metric_equals_delta_series(tmp_path, smooth_window):
    cfg = SimConfig(
        n_items=40, n_defectives=3, design_kind="bernoulli",
        t_values=(6, 8, 10, 13, 16, 20), n_trials=30, alpha=2.0, master_seed=5,
    )
    sweep = run_sweep(cfg)
    csv_path = tmp_path / "sweep.csv"
    sweep.to_csv(str(csv_path))
    series, _ = build_series(
        PlotSpec(str(csv_path), "delta", str(tmp_path / "d.svg"), smooth_window=smooth_window)
    )
    expected = delta_series(sweep, smooth_window)
    assert any(d != 0 for _, d in expected)
    assert series == {"delta": [(float(t), d) for t, d in expected]}


# A literal sweep CSV: three T values, every decoder, a bound that rises with T.
LITERAL_CSV = HEADER + """
bernoulli,comp,40,3,10,1.0,20,1,0.05,0.0,6.4,0.31,0.45,6.4,0.18
bernoulli,dd,40,3,10,1.0,20,1,0.1,1.85,0.0,0.42,0.55,1.85,0.18
bernoulli,scomp,40,3,10,1.0,20,1,0.35,0.9,0.75,0.61,0.72,1.65,0.18
bernoulli,wscomp,40,3,10,1.0,20,1,0.4,0.8,0.7,0.64,0.74,1.5,0.18
bernoulli,comp,40,3,20,1.0,20,1,0.3,0.0,2.1,0.62,0.74,2.1,0.67
bernoulli,dd,40,3,20,1.0,20,1,0.55,0.6,0.0,0.81,0.88,0.6,0.67
bernoulli,scomp,40,3,20,1.0,20,1,0.7,0.25,0.2,0.87,0.92,0.45,0.67
bernoulli,wscomp,40,3,20,1.0,20,1,0.75,0.2,0.15,0.9,0.94,0.35,0.67
bernoulli,comp,40,3,30,1.0,20,1,0.8,0.0,0.35,0.93,0.96,0.35,1.0
bernoulli,dd,40,3,30,1.0,20,1,0.9,0.1,0.0,0.97,0.98,0.1,1.0
bernoulli,scomp,40,3,30,1.0,20,1,0.95,0.05,0.0,0.98,0.99,0.05,1.0
bernoulli,wscomp,40,3,30,1.0,20,1,0.95,0.05,0.0,0.98,0.99,0.05,1.0
"""


@pytest.mark.parametrize(
    "metric, options, digest",
    [
        ("success_prob", {"overlay_counting_bound": True},
         "0112566abc7551d84fd2ddb9224673031a2e83ba98c9cb323593120b06dc0561"),
        ("delta", {"smooth_window": 3},
         "d581c1cc18fca24cb165cc7cbb2486f29c2855f957ad191e411e16b337f98930"),
        ("jaccard", {"zoom": (15, 30)},
         "d44cf2e4adf7c04f37dbabc527a92f108d3e32db7c32e483cf05cd630677de90"),
    ],
)
def test_svg_digest_pinned(tmp_path, metric, options, digest):
    csv_path = tmp_path / "literal.csv"
    csv_path.write_text(LITERAL_CSV)
    svg = emit_plot(PlotSpec(str(csv_path), metric, str(tmp_path / "fig.svg"), **options))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
    assert (tmp_path / "fig.svg").read_text() == svg


def test_names_are_escaped(tmp_path):
    name = 'a&b<x>"'
    csv_path = tmp_path / "names.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER.split(","))
        writer.writerows(sample_rows(algorithms=("scomp", name)))
    spec = PlotSpec(str(csv_path), "success_prob", str(tmp_path / "n.svg"), overlay_counting_bound=True)
    svg = emit_plot(spec)
    assert name not in svg
    labels = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
    assert labels[-3:] == ["scomp", name, "counting bound"]


def test_bound_row_is_read_only_for_the_overlay(tmp_path):
    csv_path = tmp_path / "bound.csv"
    write_csv(csv_path, [r[:-1] + ["-inf"] for r in sample_rows()])
    spec = PlotSpec(str(csv_path), "success_prob", str(tmp_path / "x.svg"))
    assert build_series(spec)[1] == []
    with pytest.raises(ValueError, match="^sweep CSV row 1: counting_bound must be a finite number, got '-inf'$"):
        build_series(replace(spec, overlay_counting_bound=True))


@pytest.mark.parametrize(
    "rows",
    [
        [["bernoulli", "comp", 40, 3, 1e16, 1.0, 5, 1, 0.5]],  # T - 1 == T, so the T axis has no width
        [["bernoulli", "comp", 40, 3, t, 1.0, 5, 1, v] for t, v in ((10, 1e308), (20, -1e308))],  # span overflows
    ],
    ids=["no_width", "overflow"],
)
def test_unscalable_range_rejected(tmp_path, rows):
    csv_path = tmp_path / "range.csv"
    write_csv(csv_path, rows)
    with pytest.raises(ValueError, match="^cannot scale T in"):
        emit_plot(PlotSpec(str(csv_path), "success_prob", str(tmp_path / "r.svg")))
    assert not (tmp_path / "r.svg").exists()
