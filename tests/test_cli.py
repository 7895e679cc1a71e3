import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ciarith.cli import main
from ciarith.report import read_results_csv
from conftest import child_env


def run_cli(*args):
    return main(list(args))


class TestSimulate:
    def test_small_run_writes_outputs(self, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--n", "200", "--groups", "12", "--noise", "gaussian",
            "--alpha", "0.1,0.3", "--reps", "3", "--seed", "5",
            "--methods", "cia_split,bonf_split", "--out", str(out),
        )
        assert rc == 0
        rows = read_results_csv(out / "results.csv")
        assert {(r.method, r.alpha) for r in rows} == {
            ("cia_split", 0.1), ("cia_split", 0.3),
            ("bonf_split", 0.1), ("bonf_split", 0.3),
        }
        ET.parse(out / "coverage_vs_nominal.svg")
        ET.parse(out / "size_vs_coverage.svg")

    def test_reproducible_bytes(self, tmp_path):
        args = [
            "simulate", "--n", "150", "--groups", "10", "--noise", "student_t",
            "--alpha", "0.2", "--reps", "2", "--seed", "9",
            "--methods", "cia_split,normal_homo",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a/results.csv").read_bytes() == (
            tmp_path / "b/results.csv"
        ).read_bytes()


class TestGroupAvg:
    def test_runs_on_csv(self, tiny_tabular_csv, tmp_path):
        out = tmp_path / "ga"
        rc = run_cli(
            "group-avg", "--data", str(tiny_tabular_csv), "--label", "y",
            "--group-by", "cat", "--alpha", "0.2", "--reps", "3", "--seed", "1",
            "--methods", "cia_split,group_split", "--train-frac", "0.6",
            "--split", "balanced", "--out", str(out),
        )
        assert rc == 0
        rows = read_results_csv(out / "results.csv")
        assert len(rows) == 2

    def test_missing_column_fails_with_json_error(self, tiny_tabular_csv, tmp_path, capsys):
        rc = run_cli(
            "group-avg", "--data", str(tiny_tabular_csv), "--label", "nope",
            "--group-by", "cat", "--out", str(tmp_path / "x"),
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "nope" in payload["error"]


class TestPathCost:
    def test_runs_on_grid(self, grid_graph_csv, tmp_path):
        out = tmp_path / "pc"
        rc = run_cli(
            "path-cost", "--graph", str(grid_graph_csv(k=5)), "--paths", "20",
            "--min-len", "1", "--alpha", "0.2", "--reps", "3", "--seed", "2",
            "--methods", "cia_split,cia_cqr", "--out", str(out),
        )
        assert rc == 0
        rows = read_results_csv(out / "results.csv")
        assert {r.method for r in rows} == {"cia_split", "cia_cqr"}
        for r in rows:
            assert 0.0 <= r.mean_coverage <= 1.0

    def test_missing_graph_file(self, tmp_path, capsys):
        rc = run_cli("path-cost", "--graph", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestOverlapStudy:
    def test_writes_study_table(self, grid_graph_csv, tmp_path):
        out = tmp_path / "st"
        rc = run_cli(
            "overlap-study", "--graph", str(grid_graph_csv(k=5)),
            "--min-len-grid", "1,3", "--paths", "15", "--alpha", "0.2",
            "--reps", "3", "--seed", "3", "--out", str(out),
        )
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0].startswith("method,alpha,min_len,delta_avg,delta_max")
        assert len(lines) == 3  # two grid points, one method
        ET.parse(out / "overlap_gap.svg")

    def test_repeated_min_len_rejected(self, grid_graph_csv, tmp_path, capsys):
        rc = run_cli(
            "overlap-study", "--graph", str(grid_graph_csv(k=4)), "--min-len-grid", "1,2,1",
            "--paths", "10", "--reps", "2", "--out", str(tmp_path / "st"),
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "min_len_grid repeats 1"
        assert not (tmp_path / "st").exists()

    def test_deterministic(self, grid_graph_csv, tmp_path):
        graph = grid_graph_csv(k=4)
        args = [
            "overlap-study", "--graph", str(graph), "--min-len-grid", "1,2",
            "--paths", "10", "--alpha", "0.2", "--reps", "2", "--seed", "4",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "s1")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "s2")) == 0
        assert (tmp_path / "s1/results.csv").read_bytes() == (
            tmp_path / "s2/results.csv"
        ).read_bytes()


class TestLogLevel:
    """``--log-level`` sets the lowest level of log records on stderr."""

    def _stderr(self, tmp_path, *extra):
        # 20 groups of 3 rows: some fall wholly inside training, and
        # restrict_groups logs their drop at DEBUG
        proc = subprocess.run(
            [sys.executable, "-m", "ciarith.cli", "simulate", "--n", "60",
             "--groups", "20", "--reps", "1", "--methods", "cia_split",
             "--out", str(tmp_path / "x"), *extra],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_debug_lets_debug_records_through(self, tmp_path):
        assert "DEBUG ciarith.cia: restrict_groups dropped" in self._stderr(
            tmp_path, "--log-level", "DEBUG"
        )

    def test_default_hides_debug_records(self, tmp_path):
        assert "DEBUG" not in self._stderr(tmp_path)


class TestParsing:
    def test_unknown_method_rejected(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--n", "50", "--groups", "5", "--methods", "nope",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 1
        assert "unknown methods" in json.loads(
            capsys.readouterr().err.strip().splitlines()[-1]
        )["error"]

    @pytest.mark.parametrize("argv, field", [
        (["path-cost", "--min-len", "0"], "min_path_len"),
        (["path-cost", "--paths", "0"], "n_paths"),
        (["simulate", "--knn-k", "0"], "knn_k"),
        (["simulate", "--knn-k", "-5"], "knn_k"),
        (["simulate", "--groups", "0"], "n_groups"),
        (["simulate", "--groups", "-3"], "n_groups"),
        (["simulate", "--features", "0"], "n_features"),
        # training, calibration and test need a row each
        (["simulate", "--n", "1", "--groups", "1"], "(training, calibration, test), got 1"),
        (["simulate", "--n", "2", "--groups", "1"], "(training, calibration, test), got 2"),
        (["group-avg", "--data", "two_rows.csv"], "(training, calibration, test), got 2"),
        (["group-avg", "--discretize-bins", "0"], "discretize_bins must be >= 1, got 0"),
        (["group-avg", "--discretize-bins", "-3"], "discretize_bins must be >= 1, got -3"),
        # simulate draws its data from --seed before the config is built
        (["simulate", "--seed", "-1"], "rng_seed must be >= 0, got -1"),
        (["group-avg", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["group-avg", "--group-by", "y"], "label column 'y' is also a grouping column"),
        # a repeated level or method would write the same results row twice
        (["simulate", "--alpha", "0.1,0.2,0.1"], "alphas repeats 0.1"),
        (["simulate", "--methods", "cia_split,cia_split"], "methods repeats 'cia_split'"),
    ])
    def test_bad_sizes_fail_naming_the_field(self, argv, field, grid_graph_csv,
                                             tiny_tabular_csv, tmp_path, capsys):
        if argv[0] == "path-cost":
            argv = argv + ["--graph", str(grid_graph_csv(k=4))]
        elif argv[0] == "group-avg":  # --data names a file in tmp_path
            lines = tiny_tabular_csv.read_text().splitlines(keepends=True)
            (tmp_path / "two_rows.csv").write_text("".join(lines[:3]))
            argv = [argv[0], "--data", tiny_tabular_csv.name, "--label", "y",
                    "--group-by", "cat", *argv[1:]]
            argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        else:  # the case's own value comes last, so it wins
            argv = [argv[0], "--n", "60", "--groups", "6", *argv[1:]]
        rc = run_cli(*argv, "--reps", "2", "--out", str(tmp_path / "x"))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert field in err["error"] and err["type"] == "ValueError"
        assert not (tmp_path / "x").exists()

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            run_cli()
