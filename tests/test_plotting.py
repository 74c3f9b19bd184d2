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
