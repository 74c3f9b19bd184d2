import csv
import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from grouptest import decoders
from grouptest.decoders import DECODERS
from grouptest.model import ItemSet
from grouptest.sim import (
    ALGORITHMS,
    CSV_COLUMNS,
    SimConfig,
    SweepResult,
    delta_points,
    delta_series,
    design_spec_for,
    run_sweep,
    run_trial,
)


def delta_triples(*deltas):
    """``(T, algorithm, value)`` triples whose scomp - wscomp delta at T = 1, 2, ... is ``deltas``."""
    return [(t, a, d if a == "scomp" else 0) for t, d in enumerate(deltas, 1) for a in ("scomp", "wscomp")]


def small_config(**overrides):
    base = dict(
        n_items=40,
        n_defectives=3,
        design_kind="bernoulli",
        t_values=(15, 25),
        n_trials=40,
        master_seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(t_values=())
        with pytest.raises(ValueError):
            small_config(n_trials=0)
        with pytest.raises(ValueError):
            small_config(n_defectives=41)
        with pytest.raises(ValueError):
            small_config(algorithms=("comp", "nope"))
        # A T the design cannot serve is rejected before any trial runs.
        with pytest.raises(ValueError, match="^n_tests=2 too small for k=3 under this design$"):
            small_config(design_kind="constant_column", t_values=(15, 2))
        for alpha in (-1.0, float("nan"), float("inf"), "1.0"):
            with pytest.raises(ValueError):
                small_config(alpha=alpha)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_values", 5),
            ("t_values", "15"),
            ("t_values", [2.7]),
            ("t_values", [15, None]),
            ("n_items", 40.0),
            ("n_defectives", "3"),
            ("n_trials", 1.5),
            ("master_seed", "11"),
            ("algorithms", "comp"),
            ("algorithms", [["comp"]]),
            ("alpha", True),
            ("n_items", True),
        ],
    )
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("algorithms", ()), ("algorithms", ("comp", "comp")), ("t_values", (12, 12)), ("t_values", [15, np.int64(15)])],
    )
    def test_empty_or_repeated_entries_rejected(self, field, value):
        # Each would run every trial for a header-only CSV or write duplicate rows.
        with pytest.raises(ValueError, match=f"^{field} must be a nonempty list of distinct"):
            small_config(**{field: value})

    def test_integer_like_values_normalised(self):
        cfg = small_config(t_values=[np.int64(15), 25], n_items=np.int32(40))
        assert cfg.t_values == (15, 25) and type(cfg.t_values[0]) is int
        assert type(cfg.n_items) is int and cfg == small_config()

    def test_json_round_trip(self):
        cfg = small_config()
        assert SimConfig.from_json_dict(cfg.to_json_dict()) == cfg


class TestDesignSpecFor:
    def test_bernoulli_uses_optimal_p(self):
        spec = design_spec_for("bernoulli", 500, 10, 100)
        assert spec.inclusion_prob == pytest.approx(1 / 11)

    def test_column_uses_optimal_weight(self):
        spec = design_spec_for("constant_column", 500, 10, 100)
        assert spec.column_weight == 6

    def test_degenerate_no_defectives(self):
        assert design_spec_for("bernoulli", 10, 0, 5).inclusion_prob == 1.0
        assert design_spec_for("constant_column", 10, 0, 5).column_weight == 5


class TestRunTrial:
    def test_no_defectives_trivial_recovery(self):
        spec = design_spec_for("bernoulli", 12, 0, 6)
        stats = run_trial(spec, 0, ALGORITHMS, 1.0, trial_seed=3)
        for algo in ("dd", "scomp", "wscomp"):
            assert stats[algo].exact
        # p = 1 puts every item in every test, so COMP is exact as well
        assert stats["comp"].exact

    def test_fixed_seed_reproducible(self):
        spec = design_spec_for("bernoulli", 30, 4, 20)
        a = run_trial(spec, 4, ALGORITHMS, 1.0, trial_seed=(5, 20, 7))
        b = run_trial(spec, 4, ALGORITHMS, 1.0, trial_seed=(5, 20, 7))
        assert a == b

    @pytest.mark.parametrize("seed", [None, True, np.bool_(True), 1.5, -1, "3", [1, 2], (1, True)])
    def test_bad_trial_seed_rejected(self, seed):
        # None would draw from OS entropy, and True or a list was taken as a seed.
        spec = design_spec_for("bernoulli", 30, 2, 12)
        with pytest.raises(ValueError, match="^trial_seed must be"):
            run_trial(spec, 2, ALGORITHMS, 1.0, trial_seed=seed)

    def test_structural_error_patterns(self):
        spec = design_spec_for("bernoulli", 50, 5, 25)
        for trial in range(30):
            stats = run_trial(spec, 5, ALGORITHMS, 1.0, trial_seed=(1, 25, trial))
            assert stats["comp"].false_negatives == 0
            assert stats["dd"].false_positives == 0

    @pytest.mark.parametrize("name", ["comp", "wscomp"])
    def test_decodes_through_the_decoders_table(self, monkeypatch, name):
        # The benchmark times, counts greedy steps (the trace length) and
        # corrupts the decoders through DECODERS; a trial that bypassed the
        # table would escape all three.
        decoder = DECODERS[name]
        steps = []

        def empty(matrix, outcomes, *args):
            result = decoder(matrix, outcomes, *args)
            steps.append(len(result.trace or ()))
            return replace(result, estimate=ItemSet((), result.estimate.universe_size))

        monkeypatch.setitem(DECODERS, name, empty)
        spec = design_spec_for("bernoulli", 50, 5, 20)
        for trial in range(10):
            stats = run_trial(spec, 5, ALGORITHMS, 1.0, trial_seed=(3, 20, trial))
            assert stats[name].false_negatives == 5
        assert len(steps) == 10
        assert (sum(steps) > 0) == (name == "wscomp")

    def test_one_stage_per_trial(self, monkeypatch):
        # The four decoders of a trial share one COMP/DD stage.
        stage, calls = decoders._stage, []

        def counted(*args):
            calls.append(args)
            return stage(*args)

        monkeypatch.setattr(decoders, "_stage", counted)
        assert sorted(ALGORITHMS) == sorted(DECODERS)
        spec = design_spec_for("bernoulli", 50, 5, 20)
        for trial in range(5):
            run_trial(spec, 5, ALGORITHMS, 1.0, trial_seed=(3, 20, trial))
            assert len(calls) == trial + 1


class TestRunSweep:
    def test_csv_deterministic(self):
        cfg = small_config()
        assert run_sweep(cfg).to_csv_text() == run_sweep(cfg).to_csv_text()

    @pytest.mark.parametrize("kind", ["constant_column", "near_constant_column"])
    def test_column_design_csv_byte_identical_rerun(self, kind):
        cfg = small_config(design_kind=kind, n_trials=20)
        assert run_sweep(cfg).to_csv_text() == run_sweep(cfg).to_csv_text()

    @pytest.mark.parametrize(
        "kind, digest",
        [
            # Bernoulli and near-constant digests predate the vectorised
            # column generators; the constant-column one was written from them.
            ("bernoulli", "8203d533f8cb8514ab16cba8eb62ad9a0b062056f8e86fad493d437de424b2a6"),
            ("constant_column", "d7b7261f1aa3feb70899a5e87476e846463e4a42bcc5b87ecb01a9f406ecb466"),
            ("near_constant_column", "20226c29e03555b26af9ba679689f49fdb34ac19692e24818743fadbaeb3264b"),
        ],
    )
    def test_csv_digest_pinned(self, kind, digest):
        text = run_sweep(small_config(design_kind=kind, n_trials=20)).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_csv_columns_exact(self):
        # The header as the README writes it out.
        header = (
            "design,algorithm,N,k,T,alpha,n_trials,master_seed,success_prob,mean_fn,"
            "mean_fp,mean_jaccard,mean_f1,mean_misclassified,counting_bound"
        )
        assert CSV_COLUMNS == header.split(",")
        text = run_sweep(small_config(n_trials=2, t_values=(10,))).to_csv_text()
        assert text.splitlines()[0] == header

    @pytest.mark.parametrize(
        "alpha, written", [(np.float64(0.5), "0.5"), (1, "1.0"), (1.0, "1.0"), (np.float64(2.0), "2.0")]
    )
    def test_csv_alpha_column(self, alpha, written):
        text = run_sweep(small_config(alpha=alpha, n_trials=2, t_values=(10,))).to_csv_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(ALGORITHMS)
        assert all(None not in r for r in rows)  # no row longer than the header
        assert {r["alpha"] for r in rows} == {written}

    def test_equal_alphas_write_equal_bytes(self):
        texts = {
            run_sweep(small_config(alpha=alpha, n_trials=2, t_values=(10,))).to_csv_text()
            for alpha in (1, 1.0, np.float64(1.0))
        }
        assert len(texts) == 1

    def test_to_csv_writes_the_csv_text(self, tmp_path):
        sweep = run_sweep(small_config(n_trials=3))
        sweep.to_csv(str(tmp_path / "s.csv"))
        assert (tmp_path / "s.csv").read_bytes() == sweep.to_csv_text().encode()

    def test_single_trial_equals_aggregate(self):
        cfg = small_config(n_trials=1, t_values=(18,), algorithms=("scomp",))
        sweep = run_sweep(cfg)
        spec = design_spec_for("bernoulli", cfg.n_items, cfg.n_defectives, 18)
        stats = run_trial(
            spec, cfg.n_defectives, ("scomp",), 1.0,
            trial_seed=(cfg.master_seed, 18, 0),
        )["scomp"]
        row = sweep.row(18, "scomp")
        assert row.success_prob == float(stats.exact)
        assert row.mean_fn == stats.false_negatives
        assert row.mean_fp == stats.false_positives
        assert row.mean_misclassified == stats.misclassified

    def test_misclassified_is_fn_plus_fp(self):
        sweep = run_sweep(small_config())
        for row in sweep.rows:
            assert row.mean_misclassified == pytest.approx(row.mean_fn + row.mean_fp)

    def test_success_trend_nondecreasing_with_slack(self):
        cfg = SimConfig(
            n_items=100,
            n_defectives=5,
            design_kind="bernoulli",
            t_values=(30, 50, 70, 90),
            n_trials=200,
            master_seed=4,
        )
        sweep = run_sweep(cfg)
        for algo in ALGORITHMS:
            probs = [sweep.row(t, algo).success_prob for t in cfg.t_values]
            for a, b in zip(probs, probs[1:]):
                slack = 3 * math.sqrt((a * (1 - a) + b * (1 - b)) / cfg.n_trials + 1e-12)
                assert b >= a - slack

    def test_wscomp_high_success_at_t200(self):
        cfg = SimConfig(
            n_items=500,
            n_defectives=10,
            design_kind="bernoulli",
            t_values=(200,),
            n_trials=1000,
            algorithms=("wscomp",),
            master_seed=20250810,
        )
        assert run_sweep(cfg).row(200, "wscomp").success_prob >= 0.95


class TestDeltaSeries:
    def test_requires_both_algorithms(self):
        sweep = run_sweep(small_config(algorithms=("comp", "scomp")))
        with pytest.raises(ValueError):
            delta_series(sweep)
        # one T without wscomp is enough to reject the sweep
        sweep = run_sweep(small_config(t_values=(10, 15, 20), n_trials=5))
        rows = tuple(r for r in sweep.rows if (r.n_tests, r.algorithm) != (15, "wscomp"))
        with pytest.raises(ValueError, match="delta"):
            delta_series(SweepResult(sweep.config, rows))

    def test_zero_when_algorithms_agree(self):
        # plenty of tests: both greedy decoders recover exactly, delta = 0
        cfg = small_config(t_values=(80,), n_trials=30)
        series = delta_series(run_sweep(cfg))
        assert series == [(80, 0.0)]

    def test_smoothing_window(self):
        sweep = run_sweep(small_config(t_values=(10, 15, 20, 25), n_trials=20))
        raw = delta_series(sweep)
        smooth = delta_series(sweep, smooth_window=3)
        assert [t for t, _ in raw] == [t for t, _ in smooth]
        assert smooth[1][1] == pytest.approx((raw[0][1] + raw[1][1] + raw[2][1]) / 3)

    def test_even_windows_differ(self):
        # w // 2 points before and (w - 1) // 2 after, so every window is its own average.
        smoothed = {w: [d for _, d in delta_points(delta_triples(1, 4, 9, 16), w)] for w in (1, 2, 3, 4)}
        assert smoothed == {
            1: [1, 4, 9, 16],
            2: [1.0, 2.5, 6.5, 12.5],
            3: [2.5, 14 / 3, 29 / 3, 12.5],
            4: [2.5, 14 / 3, 7.5, 29 / 3],
        }

    def test_smoothing_sums_left_to_right(self):
        # ((0.1 + 0.2) + 0.3) / 3; builtin sum on Python 3.12+ gives 0.19999999999999998.
        assert delta_points(delta_triples(0.1, 0.2, 0.3), 3)[1] == (2, 0.20000000000000004)

    @pytest.mark.parametrize("window", [0, -4, 2.5, "3"])
    def test_bad_window_rejected(self, window):
        sweep = run_sweep(small_config(n_trials=5))
        with pytest.raises(ValueError, match="smooth_window must be"):
            delta_series(sweep, smooth_window=window)
