import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import grouptest
from grouptest import cli
from grouptest.cli import main
from grouptest.design import DESIGN_KINDS, generate
from grouptest.plotting import METRIC_COLUMNS
from grouptest.sim import CSV_COLUMNS, design_spec_for
from grouptest.theory import f_grid, unweighted_moments, weighted_moments


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    code = run_cli(
        "design", "--kind", "bernoulli", "--n-items", "12", "--n-tests", "8",
        "--p", "0.3", "--seed", "42", "-o", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def outcome_file(tmp_path, matrix_file):
    # outcomes consistent with defective set {0, 3}
    from grouptest.design import DesignMatrix
    from grouptest.model import ItemSet, run_tests

    matrix = DesignMatrix.from_json_dict(json.loads(matrix_file.read_text()))
    y = run_tests(matrix, ItemSet((0, 3), universe_size=12))
    path = tmp_path / "outcomes.json"
    path.write_text(json.dumps(y.to_json_dict()))
    return path


class TestDesign:
    def test_writes_valid_matrix(self, matrix_file):
        data = json.loads(matrix_file.read_text())
        assert data["n_tests"] == 8 and data["n_items"] == 12
        assert data["design_kind"] == "bernoulli"
        assert data["params"]["p"] == 0.3

    def test_optimal_parameter_from_k(self, tmp_path):
        path = tmp_path / "m.json"
        assert run_cli(
            "design", "--kind", "constant_column", "--n-items", "20", "--n-tests", "30",
            "--k", "4", "--seed", "1", "-o", str(path),
        ) == 0
        data = json.loads(path.read_text())
        assert data["params"]["L"] == 5  # floor((30/4) ln 2)

    @pytest.mark.parametrize("kind", DESIGN_KINDS)
    def test_k_builds_the_sweeps_design(self, tmp_path, kind):
        path = tmp_path / "m.json"
        assert run_cli(
            "design", "--kind", kind, "--n-items", "500", "--n-tests", "150",
            "--k", "10", "--seed", "1", "-o", str(path),
        ) == 0
        matrix = generate(design_spec_for(kind, 500, 10, 150, 1))
        assert path.read_text() == json.dumps(matrix.to_json_dict()) + "\n"

    @pytest.mark.parametrize("kind", DESIGN_KINDS)
    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize("n_tests", ["150", "0"])
    def test_k_below_one_named_first(self, tmp_path, capsys, kind, k, n_tests):
        # The sweep's k = 0 design is sweep-only, and k is checked before T.
        path = tmp_path / "m.json"
        code = run_cli(
            "design", "--kind", kind, "--n-items", "500", "--n-tests", n_tests,
            "--k", k, "--seed", "1", "-o", str(path),
        )
        assert code == 1
        assert f"gt: n_defectives must be >= 1, got {k}\n" in capsys.readouterr().err
        assert not path.exists()

    def test_seed_required(self, tmp_path, capsys):
        code = run_cli(
            "design", "--kind", "bernoulli", "--n-items", "4", "--n-tests", "2",
            "--p", "0.5", "-o", str(tmp_path / "m.json"),
        )
        assert code == 1

    def test_writes_compact_json(self, matrix_file):
        text = matrix_file.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        code = run_cli(
            "design", "--kind", "bernoulli", "--n-items", "4", "--n-tests", "2",
            "--p", "0.5", "--seed", "-1", "-o", str(tmp_path / "m.json"),
        )
        assert code == 1 and "seed must be >= 0" in capsys.readouterr().err

    def test_bad_probability_exits_one(self, tmp_path):
        code = run_cli(
            "design", "--kind", "bernoulli", "--n-items", "4", "--n-tests", "2",
            "--p", "1.5", "--seed", "3", "-o", str(tmp_path / "m.json"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("bernoulli", "bernoulli design needs --p or --k"),
            ("near_constant_column", "column designs need --column-weight or --k"),
        ],
    )
    def test_missing_parameter_named(self, tmp_path, capsys, kind, message):
        code = run_cli(
            "design", "--kind", kind, "--n-items", "4", "--n-tests", "3",
            "--seed", "1", "-o", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert f"gt: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("bernoulli", ["--p", "0.3", "--column-weight", "2"],
             "--column-weight does not apply to bernoulli designs; give --p or --k"),
            ("bernoulli", ["--column-weight", "2"],
             "--column-weight does not apply to bernoulli designs; give --p or --k"),
            ("constant_column", ["--p", "0.3", "--column-weight", "2"],
             "--p does not apply to constant_column designs; give --column-weight or --k"),
            ("near_constant_column", ["--p", "0.3", "--k", "3"],
             "--p does not apply to near_constant_column designs; give --column-weight or --k"),
            ("constant_column", ["--column-weight", "2", "--k", "3"],
             "give --column-weight or --k, not both"),
            ("bernoulli", ["--p", "0.3", "--k", "3"], "give --p or --k, not both"),
        ],
    )
    def test_conflicting_flags_rejected(self, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "m.json"
        code = run_cli(
            "design", "--kind", kind, "--n-items", "6", "--n-tests", "4",
            *flags, "--seed", "1", "-o", str(out),
        )
        assert code == 1
        assert f"gt: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, param", [("bernoulli", ["--p", "0.5"]), ("near_constant_column", ["--column-weight", "1"])]
    )
    def test_matrix_too_large_to_allocate_exits_one(self, tmp_path, capsys, kind, param):
        # N = 10**15 in one test needs 7.11 PiB (Bernoulli draws) or 909 TiB
        # (the boolean matrix), above 2**48 bytes: the allocation fails untouched.
        out = tmp_path / "m.json"
        code = run_cli(
            "design", "--kind", kind, "--n-items", str(10**15), "--n-tests", "1", *param,
            "--seed", "1", "-o", str(out),
        )
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("gt: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_cli(
                "design", "--kind", "near_constant_column", "--n-items", "9",
                "--n-tests", "7", "--column-weight", "3", "--seed", "5", "-o", str(p),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestDecode:
    @pytest.mark.parametrize("algo", ["comp", "dd", "scomp", "wscomp"])
    def test_all_algorithms(self, tmp_path, matrix_file, outcome_file, algo):
        out = tmp_path / f"{algo}.json"
        code = run_cli(
            "decode", "--matrix", str(matrix_file), "--outcomes", str(outcome_file),
            "--algo", algo, "-o", str(out),
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert set(result) == {"estimate", "definite_non_defectives", "dd_core", "trace"}
        assert set(result["dd_core"]) <= set(result["estimate"])

    def test_trace_flag(self, tmp_path, matrix_file, outcome_file):
        out = tmp_path / "t.json"
        run_cli(
            "decode", "--matrix", str(matrix_file), "--outcomes", str(outcome_file),
            "--algo", "wscomp", "--trace", "-o", str(out),
        )
        traced = json.loads(out.read_text())["trace"]
        assert traced is not None
        run_cli(
            "decode", "--matrix", str(matrix_file), "--outcomes", str(outcome_file),
            "--algo", "wscomp", "-o", str(out),
        )
        assert json.loads(out.read_text())["trace"] is None

    def test_missing_matrix_file_exits_three(self, tmp_path, outcome_file):
        code = run_cli(
            "decode", "--matrix", str(tmp_path / "nope.json"),
            "--outcomes", str(outcome_file), "--algo", "comp",
        )
        assert code == 3

    def test_malformed_json_exits_three(self, tmp_path, outcome_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(
            "decode", "--matrix", str(bad), "--outcomes", str(outcome_file), "--algo", "comp",
        )
        assert code == 3

    def test_nan_alpha_exits_one(self, matrix_file, outcome_file):
        code = run_cli(
            "decode", "--matrix", str(matrix_file), "--outcomes", str(outcome_file),
            "--algo", "comp", "--alpha", "nan",
        )
        assert code == 1

    def test_infinite_alpha_exits_one(self, matrix_file, outcome_file):
        code = run_cli(
            "decode", "--matrix", str(matrix_file), "--outcomes", str(outcome_file),
            "--algo", "wscomp", "--alpha", "inf",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "which, edit",
        [
            ("matrix", lambda d: d.pop("rows")),
            ("matrix", lambda d: d["rows"][0].append(1.7)),
            ("outcomes", lambda d: d["bits"].__setitem__(0, 2)),
            ("outcomes", lambda d: d["bits"].__setitem__(0, "no")),
            ("matrix", lambda d: d["rows"][0].append(True)),
            ("matrix", lambda d: d.__setitem__("params", 5)),
            ("matrix", lambda d: d.__setitem__("params", [1, 2])),
        ],
        ids=[
            "matrix-without-rows", "fractional-item-index", "bit-two", "bit-no",
            "boolean-item-index", "params-number", "params-list",
        ],
    )
    def test_invalid_json_content_exits_one(self, tmp_path, matrix_file, outcome_file, which, edit):
        paths = {"matrix": matrix_file, "outcomes": outcome_file}
        data = json.loads(paths[which].read_text())
        edit(data)
        paths[which] = tmp_path / f"bad_{which}.json"
        paths[which].write_text(json.dumps(data))
        code = run_cli(
            "decode", "--matrix", str(paths["matrix"]), "--outcomes", str(paths["outcomes"]),
            "--algo", "comp",
        )
        assert code == 1

    def test_matrix_too_large_to_allocate_exits_one(self, tmp_path, capsys):
        # 10**15 items in one test is a 909 TiB array, above 2**48 bytes, so
        # numpy's allocation fails before any page is touched.
        matrix = tmp_path / "huge.json"
        matrix.write_text(json.dumps({"n_tests": 1, "n_items": 10**15, "rows": [[0]]}))
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"bits": [1]}))
        code = run_cli("decode", "--matrix", str(matrix), "--outcomes", str(outcomes), "--algo", "comp")
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("gt: Unable to allocate") and err.count("\n") == 1

    def test_unknown_algorithm_exits_one(self, matrix_file, outcome_file):
        code = run_cli(
            "decode", "--matrix", str(matrix_file), "--outcomes", str(outcome_file),
            "--algo", "magic",
        )
        assert code == 1


class TestSimulate:
    def config(self, tmp_path, with_seed=True):
        cfg = {
            "n_items": 25,
            "n_defectives": 2,
            "design_kind": "bernoulli",
            "t_values": [8, 14],
            "n_trials": 20,
            "algorithms": ["comp", "dd", "scomp", "wscomp"],
            "alpha": 1.0,
        }
        if with_seed:
            cfg["master_seed"] = 77
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(out1)) == 0
        assert run_cli("simulate", "--config", str(cfg), "-o", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", str(cfg), "-o", str(out1))
        run_cli("simulate", "--config", str(cfg), "--seed", "78", "-o", str(out2))
        assert out1.read_bytes() != out2.read_bytes()

    def test_config_without_n_items_exits_one(self, tmp_path):
        cfg = self.config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["n_items"]
        cfg.write_text(json.dumps(data))
        assert run_cli("simulate", "--config", str(cfg), "-o", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("t_values", 5), ("t_values", [2.7]), ("n_trials", "20"), ("master_seed", 1.5)],
    )
    def test_wrongly_typed_config_exits_one(self, tmp_path, key, value):
        cfg = self.config(tmp_path)
        data = json.loads(cfg.read_text())
        data[key] = value
        cfg.write_text(json.dumps(data))
        assert run_cli("simulate", "--config", str(cfg), "-o", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("key, value", [("n_trails", 5), ("alhpa", 0.5)])
    def test_misspelt_config_key_exits_one(self, tmp_path, capsys, key, value):
        cfg = self.config(tmp_path)
        data = json.loads(cfg.read_text())
        data[key] = value
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(out)) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha, written", [(1, "1.0"), (1.0, "1.0"), (0.5, "0.5")])
    def test_alpha_written_as_given(self, tmp_path, alpha, written):
        cfg = self.config(tmp_path)
        data = json.loads(cfg.read_text())
        data["alpha"] = alpha
        cfg.write_text(json.dumps(data))
        out = tmp_path / "a.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8 and {r["alpha"] for r in rows} == {written}

    def test_unusable_t_exits_one_before_any_trial(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        data = json.loads(cfg.read_text())
        data.update(n_items=500, n_defectives=10, design_kind="constant_column", t_values=[100, 5])
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(out)) == 1
        assert "n_tests=5 too small for k=10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value", [("algorithms", []), ("algorithms", ["comp", "comp"]), ("t_values", [8, 8])]
    )
    def test_empty_or_repeated_entries_exit_one_before_any_trial(self, tmp_path, capsys, field, value):
        cfg = self.config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(out)) == 1
        assert f"{field} must be a nonempty list of distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required_somewhere(self, tmp_path):
        cfg = self.config(tmp_path, with_seed=False)
        assert run_cli("simulate", "--config", str(cfg), "-o", str(tmp_path / "x.csv")) == 1
        assert run_cli("simulate", "--config", str(cfg), "--seed", "5", "-o", str(tmp_path / "x.csv")) == 0

    def test_missing_seed_names_the_key(self, tmp_path, capsys):
        cfg = self.config(tmp_path, with_seed=False)
        assert run_cli("simulate", "--config", str(cfg), "-o", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("gt: simulation config JSON lacks the required key 'master_seed'\n")


class TestTheory:
    def test_snr_prints_reference_values(self, capsys):
        assert run_cli("theory", "snr", "--n", "2", "--k", "1") == 0
        out = capsys.readouterr().out
        assert "0.534522" in out
        assert "0.377964" in out

    def test_f_grid_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli("theory", "f", "--k-max", "2", "--n-span", "4", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,N,f_value,residual_19,snr_w,snr_u"
        assert len(lines) == 1 + 2 * 4
        assert all(float(line.split(",")[2]) > 0 for line in lines[1:])
        # Each row is one f_grid point plus the two per-test SNRs at p = 1/(k+1).
        expected = [
            [str(pt.n_defectives), str(pt.n_items), repr(pt.f_value), repr(pt.residual_19),
             repr(weighted_moments(pt.n_items, pt.n_defectives, pt.p).snr_per),
             repr(unweighted_moments(pt.n_defectives, pt.p).snr_per)]
            for pt in f_grid(2, 4)
        ]
        assert [line.split(",") for line in lines[1:]] == expected

    @pytest.mark.parametrize("k_max, n_span", [("-3", "2"), ("2", "0")])
    def test_empty_f_grid_exits_one(self, tmp_path, k_max, n_span):
        out = tmp_path / "f.csv"
        assert run_cli("theory", "f", "--k-max", k_max, "--n-span", n_span, "-o", str(out)) == 1
        assert not out.exists()


class TestVerify:
    def test_passes_on_small_budget(self, capsys):
        assert run_cli("verify", "--n-max", "7", "--trials", "40") == 0
        out = capsys.readouterr().out
        assert "worst |dev|" in out
        assert "all checks passed" in out

    def test_excessive_budget_rejected(self):
        assert run_cli("verify", "--n-max", "40") == 1

    @pytest.mark.parametrize(
        "argv", [("--n-max", "-3", "--trials", "-5"), ("--n-max", "1"), ("--trials", "-1")]
    )
    def test_nothing_to_check_exits_one(self, capsys, argv):
        assert run_cli("verify", *argv) == 1
        assert "all checks passed" not in capsys.readouterr().out

    @pytest.mark.parametrize("error", [1e-9, float("nan")])
    def test_wrong_closed_form_exits_two(self, monkeypatch, capsys, error):
        real = cli.theory.weighted_moments

        def broken(*args):
            moments = real(*args)
            return dataclasses.replace(moments, nu_nd=moments.nu_nd + error)

        monkeypatch.setattr(cli.theory, "weighted_moments", broken)
        assert run_cli("verify", "--n-max", "4", "--trials", "0") == 2
        assert "gt: oracle suite failed" in capsys.readouterr().err


class TestPlot:
    def test_plot_from_simulated_csv(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_items": 25,
                    "n_defectives": 2,
                    "design_kind": "bernoulli",
                    "t_values": [8, 14, 20],
                    "n_trials": 15,
                    "master_seed": 3,
                }
            )
        )
        csv_path = tmp_path / "out.csv"
        run_cli("simulate", "--config", str(cfg), "-o", str(csv_path))
        svg_path = tmp_path / "fig.svg"
        code = run_cli(
            "plot", "--input", str(csv_path), "--metric", "success_prob",
            "--overlay-counting-bound", "-o", str(svg_path),
        )
        assert code == 0
        assert svg_path.read_text().startswith("<svg")

    def test_every_metric_is_a_choice(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "n_items": 20, "n_defectives": 2, "design_kind": "bernoulli",
            "t_values": [6, 10], "n_trials": 5, "master_seed": 1,
        }))
        csv_path = tmp_path / "out.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(csv_path)) == 0
        for metric in METRIC_COLUMNS:
            svg = tmp_path / f"{metric}.svg"
            assert run_cli("plot", "--input", str(csv_path), "--metric", metric, "-o", str(svg)) == 0
        assert run_cli("plot", "--input", str(csv_path), "--metric", "mean_f1", "-o", str(svg)) == 1
        assert "invalid choice: 'mean_f1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "metric, window, message",
        [
            ("success_prob", "3", "smooth_window applies to the delta metric only, not 'success_prob'"),
            ("jaccard", "1", "smooth_window applies to the delta metric only, not 'jaccard'"),
            ("delta", "-4", "smooth_window must be >= 1, got -4"),
            ("delta", "0", "smooth_window must be >= 1, got 0"),
        ],
    )
    def test_ignored_smooth_window_rejected(self, tmp_path, capsys, metric, window, message):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "n_items": 20, "n_defectives": 2, "design_kind": "bernoulli",
            "t_values": [6, 10], "n_trials": 5, "master_seed": 1,
        }))
        csv_path = tmp_path / "out.csv"
        assert run_cli("simulate", "--config", str(cfg), "-o", str(csv_path)) == 0
        svg = tmp_path / "fig.svg"
        code = run_cli(
            "plot", "--input", str(csv_path), "--metric", metric,
            "--smooth-window", window, "-o", str(svg),
        )
        assert code == 1
        assert f"gt: {message}\n" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("bernoulli,comp,40,3", "sweep CSV row 2 lacks a value for 'T'"),
            ("bernoulli,comp,40,3,10,1.0,5,1,nan,0.5,1.0,0.4,0.5,1.5,0.9",
             "sweep CSV row 2: success_prob must be a finite number, got 'nan'"),
            ("bernoulli,comp,40,3,inf,1.0,5,1,0.5,0.5,1.0,0.4,0.5,1.5,0.9",
             "sweep CSV row 2: T must be a finite number, got 'inf'"),
            ("bernoulli,comp,40,3,10,1.0,5,1,0.5,0.5,1.0,0.4,0.5,1.5,inf",
             "sweep CSV row 2: counting_bound must be a finite number, got 'inf'"),
            ("bernoulli,comp,40,3,10,1.0,5,1,0.5x,0.5,1.0,0.4,0.5,1.5,0.9",
             "sweep CSV row 2: success_prob must be a finite number, got '0.5x'"),
        ],
        ids=["short_row", "nan_value", "inf_T", "inf_bound", "non_numeric"],
    )
    def test_bad_row_exits_one(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        good = "bernoulli,scomp,40,3,10,1.0,5,1,0.5,0.5,1.0,0.4,0.5,1.5,0.9"
        bad.write_text("\n".join([",".join(CSV_COLUMNS), good, row]) + "\n")
        svg = tmp_path / "x.svg"
        code = run_cli(
            "plot", "--input", str(bad), "--metric", "success_prob", "--overlay-counting-bound", "-o", str(svg)
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"gt: {message}\n")
        assert "Traceback" not in err
        assert not svg.exists()

    def test_missing_column_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("T,algorithm\n5,comp\n")
        assert run_cli("plot", "--input", str(bad), "--metric", "f1", "-o", str(tmp_path / "x.svg")) == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_no_subcommand(self):
        assert run_cli() == 1

    def test_theory_without_subcommand(self):
        assert run_cli("theory") == 1

    def test_parser_built_once_and_reusable(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        # A usage error leaves the shared parser as it was.
        assert run_cli("plot", "--metric", "nope") == 1
        path = tmp_path / "m.json"
        args = ("design", "--kind", "bernoulli", "--n-items", "4", "--n-tests", "3",
                "--p", "0.5", "--seed", "1", "-o", str(path))
        assert run_cli(*args) == 0
        first = path.read_bytes()
        assert run_cli(*args) == 0 and path.read_bytes() == first


# Blocks every scipy import, then runs one command of each numeric kind.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from grouptest.cli import main
with open("sim.json", "w") as fh:
    json.dump({"n_items": 25, "n_defectives": 2, "design_kind": "bernoulli",
               "t_values": [8], "n_trials": 5, "master_seed": 1}, fh)
commands = [
    ["theory", "snr", "--n", "500", "--k", "10"],
    ["theory", "f", "--k-max", "2", "--n-span", "4", "-o", "f.csv"],
    ["verify", "--n-max", "6", "--trials", "20"],
    ["simulate", "--config", "sim.json", "-o", "s.csv"],
]
sys.exit(max(main(argv) for argv in commands))
"""


def test_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(grouptest.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "verify: all checks passed" in done.stdout
    assert (tmp_path / "f.csv").exists() and (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("module", ["grouptest", "grouptest.cli"])
def test_module_form_runs_the_cli(module, tmp_path):
    src = os.path.dirname(os.path.dirname(grouptest.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True,
        )

    done = run("verify", "--n-max", "6", "--trials", "5")
    assert done.returncode == 0, done.stderr
    assert "verify: all checks passed" in done.stdout
    bare = run()
    assert bare.returncode == 1
    assert bare.stderr.startswith("usage: gt ")
