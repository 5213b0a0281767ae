"""CLI: subcommands, exit codes, report goldens, determinism."""

import contextlib
import io
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairmaxcut.cli import main
from fairmaxcut.reports import parse_report

GOLDENS = Path(__file__).parent / "goldens"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def paw_path():
    return str(GOLDENS / "paw.inst")


class TestSolve:
    def test_golden_report(self, paw_path):
        rc, out, _ = run_cli(["solve", paw_path, "--no-timestamp"])
        assert rc == 0
        assert out == (GOLDENS / "paw_solve.report").read_text()

    def test_diamond_values_and_support(self, tmp_path):
        rc, out, _ = run_cli(["generate", "diamond", "-o", str(tmp_path / "d.inst")])
        assert rc == 0
        rc, out, _ = run_cli(["solve", str(tmp_path / "d.inst"), "--no-timestamp"])
        report = parse_report(out)
        assert report.objectives["DF-MP"] == Fraction(2, 3)
        assert report.objectives["MP"] == Fraction(4, 5)
        total = sum(p for _, p in report.supports["DF-MP"])
        assert total == 1

    def test_objectives_subset(self, paw_path):
        rc, out, _ = run_cli(["solve", paw_path, "--no-timestamp", "--objectives", "MP,DF-MP"])
        report = parse_report(out)
        assert set(report.objectives) == {"MP", "DF-MP"}

    def test_mode_proportion_only(self, paw_path):
        rc, out, _ = run_cli(["solve", paw_path, "--no-timestamp", "--mode", "proportion"])
        report = parse_report(out)
        assert set(report.objectives) == {"MP", "SF-MP", "DF-MP"}

    def test_output_file_plus_human_table(self, paw_path, tmp_path):
        out_path = tmp_path / "r.rep"
        rc, out, _ = run_cli(
            ["solve", paw_path, "--no-timestamp", "--approx", "-o", str(out_path)]
        )
        assert rc == 0
        assert "DF-MP" in out and "~ 0.666667" in out  # human table with approx column
        assert parse_report(out_path.read_text()).objectives["MP"] == Fraction(3, 4)

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.inst"
        bad.write_text("fairmaxcut instance v1\nvertices 2\nedge 0 1\nmodel edge\npartition edges\ngroup 0\ngroup\n")
        rc, _, err = run_cli(["solve", str(bad)])
        assert rc == 2
        assert "group 1 is empty" in err

    def test_too_large_exit_3(self, paw_path):
        rc, _, err = run_cli(["solve", paw_path, "--limit", "3"])
        assert rc == 3

    def test_model_mismatch_exit_4(self, tmp_path):
        bad = tmp_path / "mismatch.inst"
        bad.write_text(
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\n"
            "model edge\npartition nodes\ngroup 0\ngroup 1\n"
        )
        rc, _, err = run_cli(["solve", str(bad)])
        assert rc == 4

    def test_owndeg_isolated_golden_report(self):
        # own-degree model with an isolated vertex: the ground set's degree lcm
        # differs from each group's; pins MV/SF witnesses and DF duals and support
        rc, out, _ = run_cli(
            ["solve", str(GOLDENS / "owndeg_isolated.inst"), "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / "owndeg_isolated_solve.report").read_text()

    def test_instance_report_round_trip(self, paw_path):
        rc, out, _ = run_cli(["solve", paw_path, "--no-timestamp"])
        report = parse_report(out)
        from fairmaxcut.instances import load_instance, serialize_instance

        assert serialize_instance(report.instance) == serialize_instance(load_instance(paw_path))


class TestRun:
    def test_unknown_algorithm_exit_5(self, paw_path):
        rc, _, err = run_cli(["run", paw_path, "--algorithm", "annealing"])
        assert rc == 5

    def test_naive_random_emits_exact_stats(self, paw_path):
        rc, out, _ = run_cli(
            ["run", paw_path, "--algorithm", "naive-random", "--trials", "500",
             "--seed", "3", "--no-timestamp"]
        )
        assert rc == 0
        report = parse_report(out)
        mean_lines = [l for l in report.other if l.startswith("random-mean")]
        var_lines = [l for l in report.other if l.startswith("random-variance")]
        assert len(mean_lines) == 4 and len(var_lines) == 4
        assert all(line.split()[2] == "1/2" for line in mean_lines)
        assert all(line.split()[2] == "1/4" for line in var_lines)  # singleton groups

    def test_naive_random_owndeg_golden_report(self):
        # own-degree weights with an isolated vertex; pins the Monte Carlo rationals
        rc, out, _ = run_cli(
            ["run", str(GOLDENS / "owndeg_isolated.inst"), "--algorithm", "naive-random",
             "--seed", "11", "--trials", "64", "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / "owndeg_isolated_naive.report").read_text()

    def test_separate_solve_reports_floor(self, tmp_path):
        run_cli(["generate", "cycle", "--n", "5", "--groups", "singleton-edges",
                 "-o", str(tmp_path / "c5.inst")])
        rc, out, _ = run_cli(
            ["run", str(tmp_path / "c5.inst"), "--algorithm", "separate-solve", "--no-timestamp"]
        )
        assert rc == 0
        report = parse_report(out)
        assert "guarantee 1/5" in report.other or any("guarantee 1/5" in l for l in report.other)
        assert report.checks and all(c.passed for c in report.checks)

    def test_local_search_on_nodes_has_floor_check(self, tmp_path):
        run_cli(["generate", "cycle", "--n", "5", "--groups", "singleton-nodes",
                 "-o", str(tmp_path / "c5n.inst")])
        rc, out, _ = run_cli(
            ["run", str(tmp_path / "c5n.inst"), "--algorithm", "local-search", "--no-timestamp"]
        )
        report = parse_report(out)
        assert any(c.claim == "local-search-floor" and c.passed for c in report.checks)

    def test_gw_with_pinned_embedding(self, tmp_path):
        run_cli(["generate", "diamond", "-o", str(tmp_path / "d.inst")])
        run_cli(["generate", "diamond-embedding", "-o", str(tmp_path / "d.emb")])
        rc, out, _ = run_cli(
            ["run", str(tmp_path / "d.inst"), "--algorithm", "gw",
             "--embedding", str(tmp_path / "d.emb"), "--samples", "32", "--no-timestamp"]
        )
        assert rc == 0
        report = parse_report(out)
        chord = [l for l in report.other if l.startswith("edge-prob 0 3")]
        assert chord and chord[0].split()[3] == "0"
        assert any(l == "score-min 0" for l in report.other)

    @pytest.mark.parametrize(
        "embedding",
        [
            "fairmaxcut embedding v1\ndimension\n",
            "fairmaxcut embedding v1\ndimension 0\n",
            "fairmaxcut embedding v1\ndimension 1\nvector\n",
            "fairmaxcut embedding v1\ndimension 2\n"
            + "".join(f"vector {v} 0.5 0.5\n" for v in range(4)),
        ],
    )
    def test_gw_bad_embedding_exit_2(self, paw_path, tmp_path, embedding):
        bad = tmp_path / "bad.emb"
        bad.write_text(embedding)
        rc, _, err = run_cli(["run", paw_path, "--algorithm", "gw", "--embedding", str(bad)])
        assert rc == 2
        assert err.startswith("error: line ")

    def test_vertex_limit_exit_2(self, tmp_path):
        # edge groups cover the edge set, so only the vertex limit stops this
        # file before run sizes its arrays by the vertex count
        bad = tmp_path / "huge.inst"
        bad.write_text(
            "fairmaxcut instance v1\nvertices 99999999999\nedge 0 1\n"
            "model edge\npartition edges\ngroup 0\n"
        )
        rc, _, err = run_cli(["run", str(bad), "--algorithm", "naive-random", "--trials", "4"])
        assert rc == 2
        assert err.startswith("error: line 2, column 10:") and "exceeds the limit" in err


class TestGenerate:
    def test_bad_parameters_exit_6(self, tmp_path):
        rc, _, err = run_cli(["generate", "clique-tail", "--k", "2", "--n", "3"])
        assert rc == 6

    def test_unknown_family_exit_6(self):
        rc, _, err = run_cli(["generate", "torus"])
        assert rc == 6

    def test_generated_expected_values_echo(self, tmp_path):
        path = tmp_path / "ct.inst"
        rc, _, _ = run_cli(["generate", "clique-tail", "--k", "2", "--n", "10", "-o", str(path)])
        assert rc == 0
        text = path.read_text()
        assert "expected DF-MP 2/3" in text
        assert "expected MP 5/6" in text

    def test_random_generation_seeded(self, tmp_path):
        a, b = tmp_path / "a.inst", tmp_path / "b.inst"
        for p in (a, b):
            run_cli(["generate", "random", "--n", "8", "--gamma", "3", "--seed", "42",
                     "-o", str(p)])
        assert a.read_text() == b.read_text()
        assert a.read_text() == (GOLDENS / "random_n8_p05_g3_seed42.inst").read_text()


class TestVerify:
    def test_curated_suite_passes(self, tmp_path):
        rc, out, _ = run_cli(["verify", "--suite", "curated", "--no-timestamp",
                              "-o", str(tmp_path / "v.rep")])
        assert rc == 0
        report = parse_report((tmp_path / "v.rep").read_text())
        assert report.summary == "pass"
        assert all(c.passed for c in report.checks)

    def test_random_suite_exit_codes(self, tmp_path):
        rc, out, _ = run_cli(["verify", "--suite", "random", "--seed", "7", "--count", "6",
                              "--no-timestamp"])
        assert rc == 0

    def test_all_suites_golden_report(self):
        rc, out, _ = run_cli(["verify", "--suite", "all", "--seed", "7", "--count", "60",
                              "--no-timestamp"])
        assert rc == 0
        assert out == (GOLDENS / "verify_all_seed7.report").read_text()

    def test_unknown_suite_exit_6(self):
        rc, _, _ = run_cli(["verify", "--suite", "everything"])
        assert rc == 6

    def test_failing_check_exit_1_report_still_written(self, tmp_path, monkeypatch):
        from fractions import Fraction as F

        from fairmaxcut import cli as cli_module
        from fairmaxcut.verify import make_check

        bad = [make_check("planted-failure", "negative-path", F(1), "<=", F(0))]
        monkeypatch.setattr(cli_module.verify, "curated_suite", lambda limit: bad)
        out_path = tmp_path / "fail.rep"
        rc, out, _ = run_cli(["verify", "--suite", "curated", "--no-timestamp",
                              "-o", str(out_path)])
        assert rc == 1
        report = parse_report(out_path.read_text())
        assert report.summary == "fail"
        assert "FAIL planted-failure" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(GOLDENS / "paw.inst"), "--algorithm", "naive-random", "--trials", "0"],
        ["run", str(GOLDENS / "paw.inst"), "--algorithm", "gw", "--samples", "0"],
        ["run", str(GOLDENS / "paw.inst"), "--algorithm", "gw", "--sdp-rank", "1"],
        ["run", str(GOLDENS / "paw.inst"), "--algorithm", "gw", "--sdp-iterations", "-5"],
        ["verify", "--suite", "random", "--count", "-3"],
    ],
)
def test_out_of_range_count_exit_6(argv):
    rc, out, err = run_cli(argv)
    assert rc == 6
    assert out == "" and err.startswith("error: --")


class TestReproduce:
    def test_mismatch_exits_1(self, tmp_path, monkeypatch):
        from fairmaxcut import cli as cli_module

        rows = [("planted/mismatch", "==", "1/2", "1/3", False)]
        monkeypatch.setattr(cli_module, "_reproduce_rows", lambda limit: rows)
        out_path = tmp_path / "bad.rep"
        rc, out, _ = run_cli(["reproduce", "--no-timestamp", "-o", str(out_path)])
        assert rc == 1
        assert parse_report(out_path.read_text()).summary == "fail"

    def test_golden_report(self):
        rc, out, _ = run_cli(["reproduce", "--no-timestamp"])
        assert rc == 0
        assert out == (GOLDENS / "reproduce.report").read_text()

    def test_reproduce_passes_and_is_deterministic(self, tmp_path):
        first, second = tmp_path / "r1.rep", tmp_path / "r2.rep"
        rc1, _, _ = run_cli(["reproduce", "--no-timestamp", "-o", str(first)])
        rc2, _, _ = run_cli(["reproduce", "--no-timestamp", "-o", str(second)])
        assert rc1 == rc2 == 0
        assert first.read_bytes() == second.read_bytes()
        report = parse_report(first.read_text())
        assert report.summary == "pass"
        assert all(row.verdict == "pass" for row in report.rows)


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "fairmaxcut.cli", "generate", "paw"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("fairmaxcut instance v1")
