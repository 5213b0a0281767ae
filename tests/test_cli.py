"""CLI: subcommands, exit codes, report goldens, determinism."""

import argparse
import contextlib
import io
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fairmaxcut import cli, exact, heuristics
from fairmaxcut.cli import build_parser, main
from fairmaxcut.exact import MAX_SOLVE_BYTES, Mode, build_payoff_matrix, check_solve_size
from fairmaxcut.families import (
    NamedInstance,
    make_cycle,
    make_odd_cycle_instance,
    random_instance,
)
from fairmaxcut.graphs import Graph, PartitionKind, cut_value, node_groups
from fairmaxcut.heuristics import (
    MAX_TABLE_BYTES,
    MAX_TRIALS,
    _sweep_levels,
    gw_round,
    sdp_objective,
)
from fairmaxcut.instances import load_instance, save_instance
from fairmaxcut.maximin import solve_maximin
from fairmaxcut.reports import parse_report
from fairmaxcut.utility import UtilityModel

from .python_sdp import python_sdp_solve

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
        # both DF optima are degenerate: the supports are the grown master's
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

    @pytest.mark.parametrize("objectives", [",", " , ", ""])
    def test_no_objectives_exit_6(self, paw_path, objectives):
        rc, out, err = run_cli(["solve", paw_path, "--objectives", objectives])
        assert rc == 6
        assert out == ""
        assert err == "error: --objectives names no objective\n"

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

    def test_unequal_group_sizes_golden_report(self):
        # edge groups of sizes 4, 5 and 2: each mode is solved on its own
        rc, out, _ = run_cli(
            ["solve", str(GOLDENS / "random_n8_p05_g3_seed42.inst"), "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / "random_n8_p05_g3_seed42_solve.report").read_text()

    def test_odd_cycle_golden_report(self):
        # 13-cycle with singleton edge groups: the uniform dual certifies both
        # DF optima, and the report, made by column generation, still matches
        rc, out, _ = run_cli(["solve", str(GOLDENS / "cycle13_edges.inst"), "--no-timestamp"])
        assert rc == 0
        assert out == (GOLDENS / "cycle13_edges_solve.report").read_text()

    def test_read_off_golden_report(self):
        # edge groups of sizes 5, 6 and 7: both DF optima are unique and are
        # read off the grown master, as when the report was made
        inst = load_instance(GOLDENS / "random_n8_p05_g3_seed7.inst")
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            assert sol.master_solves > 1 and (sol.tight_columns, sol.tight_pivots) == (0, 0)
        rc, out, _ = run_cli(
            ["solve", str(GOLDENS / "random_n8_p05_g3_seed7.inst"), "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / "random_n8_p05_g3_seed7_solve.report").read_text()

    def test_shared_lp_golden_report(self):
        # the paw with singleton own-degree node groups: both modes have one
        # scaled column set, so DF-MP reads the LP outcome DF-MV found after
        # 4 master solves.  The report was made with one LP per mode
        inst = load_instance(GOLDENS / "paw_owndeg_nodes.inst")
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        value = solve_maximin(matrix, Mode.VALUE)
        assert (value.value, value.master_solves) == (Fraction(5, 7), 4)
        assert solve_maximin(matrix, Mode.PROPORTION) == value and len(matrix._solved) == 1
        rc, out, _ = run_cli(
            ["solve", str(GOLDENS / "paw_owndeg_nodes.inst"), "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / "paw_owndeg_nodes_solve.report").read_text()

    def test_tied_start_golden_report(self):
        # edge groups of sizes 5, 4 and 3: in value mode the start column
        # (2, 2, 3) ties its least entry, so z's first pivot takes the first
        # tied row, and the grown master ends at a 3-column support with a
        # zero dual; in proportion mode the optimum is unique.  Both were
        # read off the master when the report was made, with the generic
        # first pivot
        inst = load_instance(GOLDENS / "random_n7_p05_g3_seed4.inst")
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        value, proportion = (solve_maximin(matrix, mode) for mode in (Mode.VALUE, Mode.PROPORTION))
        start = int(np.argmax(matrix.entries.min(axis=0)))
        assert matrix.dens == (1, 1, 1) and matrix.entries[:, start].tolist() == [2, 2, 3]
        assert (len(value.support), value.dual_weights.count(0)) == (3, 1)
        for sol in (value, proportion):
            assert sol.master_solves > 1 and (sol.tight_columns, sol.tight_pivots) == (0, 0)
        rc, out, _ = run_cli(
            ["solve", str(GOLDENS / "random_n7_p05_g3_seed4.inst"), "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / "random_n7_p05_g3_seed4_solve.report").read_text()

    def test_degenerate_resolve_golden_report(self):
        # singleton edge groups on a 12-vertex graph: both modes share one
        # scaled column set, and both DF supports are the degenerate basic
        # solution its grown master ends at, seven cuts at 1/9 and 2/9
        rc, out, _ = run_cli(["solve", str(GOLDENS / "degenerate_n12.inst"), "--no-timestamp"])
        assert rc == 0
        assert out == (GOLDENS / "degenerate_n12_solve.report").read_text()

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

    @pytest.mark.parametrize("name", ["random_n8_p05_g3_seed42", "owndeg_isolated"])
    @pytest.mark.parametrize("algorithm", ["local-search", "separate-solve"])
    def test_exact_heuristic_golden_report(self, name, algorithm):
        # rationals only, so the bytes do not depend on the numpy build
        rc, out, _ = run_cli(
            ["run", str(GOLDENS / f"{name}.inst"), "--algorithm", algorithm, "--no-timestamp"]
        )
        assert rc == 0
        golden = GOLDENS / f"{name}_{algorithm.replace('-', '_')}.report"
        assert out == golden.read_text()

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

    @pytest.mark.parametrize("name", ["random_n8_p05_g3_seed42", "owndeg_isolated"])
    def test_gw_golden_report(self, name):
        # the embedding is read from a file whose inner products are exact,
        # so no SDP float enters the report
        rc, out, _ = run_cli(
            ["run", str(GOLDENS / f"{name}.inst"), "--algorithm", "gw",
             "--embedding", str(GOLDENS / f"{name}.emb"), "--samples", "200", "--seed", "5",
             "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / f"{name}_gw.report").read_text()

    def test_gw_golden_report_across_a_block_boundary(self):
        # 5000 samples: a full block of 4,096 and a last one of 904
        name = "random_n8_p05_g3_seed42"
        rc, out, _ = run_cli(
            ["run", str(GOLDENS / f"{name}.inst"), "--algorithm", "gw",
             "--embedding", str(GOLDENS / f"{name}.emb"), "--samples", "5000", "--seed", "5",
             "--no-timestamp"]
        )
        assert rc == 0
        assert out == (GOLDENS / f"{name}_gw5000.report").read_text()

    @pytest.mark.parametrize(
        "algorithm, count", [("gw", ["--samples", "10"]), ("naive-random", ["--trials", "10"])]
    )
    def test_crossing_tables_past_the_budget_exit_3(self, algorithm, count, tmp_path, monkeypatch):
        # a 20,000-vertex path: 2,500 tables of 256 rows of 313 words.
        # Refused before the SDP or any draw, and before the first table:
        # only the exit and the reason
        n = 20_000
        g = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        path = str(tmp_path / "path.inst")
        partition = node_groups(g, [range(n)])
        save_instance(NamedInstance(g, partition, UtilityModel.NODE_MAXDEG, "path"), path)

        def allocate_anyway(*args, **kwargs):
            raise AssertionError("went on past the table budget")

        for name in ("gw_sdp_solve", "derive_rng", "xor_table"):
            monkeypatch.setattr(heuristics, name, allocate_anyway)
        rc, out, err = run_cli(["run", path, "--algorithm", algorithm, *count])
        assert rc == 3
        assert out == ""
        tables = (2_500 * 256 + 2 * 10) * 313 * 8
        assert err == (
            f"error: the crossing tables of {n} vertices and {n - 1} edges would take {tables} "
            f"bytes; the limit is {MAX_TABLE_BYTES}\n"
        )

    def test_gw_too_many_samples_exit_3(self, paw_path):
        # refused before the sides are allocated: only the exit and the reason
        rc, out, err = run_cli(
            ["run", paw_path, "--algorithm", "gw", "--samples", str(10**12)]
        )
        assert rc == 3
        assert out == ""
        assert err.startswith(f"error: {10**12} rounding samples of 4 vertices would keep ")

    def test_naive_random_too_many_trials_exit_3(self, tmp_path):
        # refused before the instance is read, so before any draw: only the
        # exit and the reason
        missing = str(tmp_path / "missing.inst")
        rc, out, err = run_cli(
            ["run", missing, "--algorithm", "naive-random", "--trials", str(10**12)]
        )
        assert rc == 3
        assert out == ""
        assert err == f"error: {10**12} Monte Carlo trials; the limit is {MAX_TRIALS}\n"

    @pytest.mark.parametrize("n, limit", [(23, 24), (29, 30)])
    def test_solve_too_large_for_memory_exit_3(self, n, limit, tmp_path, monkeypatch):
        # the n-cycle with singleton edge groups: refused before the
        # enumeration's first table, which would fail this test instead of
        # allocating
        path = str(tmp_path / "cycle.inst")
        save_instance(make_odd_cycle_instance(n, PartitionKind.EDGES), path)

        def enumerate_anyway(*args):
            raise AssertionError("enumerated past the memory budget")

        monkeypatch.setattr(exact, "xor_table", enumerate_anyway)
        rc, out, err = run_cli(["solve", path, "--limit", str(limit)])
        assert rc == 3
        assert out == ""
        needed = 3 * 8 * n << (n - 1)
        assert err == (
            f"error: solving {n} vertices and {n} groups could keep {needed} bytes of payoff "
            f"columns; the limit is {MAX_SOLVE_BYTES}\n"
        )

    def test_solve_memory_budget_passes_every_golden_and_the_21_cycle(self):
        for path in sorted(GOLDENS.glob("*.inst")):
            inst = load_instance(path)
            check_solve_size(inst.graph, inst.partition.group_count)
        check_solve_size(make_cycle(21), 21)  # estimated at 528 MB, peaks at 551 MB

    @pytest.mark.parametrize(
        "name", ["paw.inst", "random_n8_p05_g3_seed42.inst", "generated_n40_p02"]
    )
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_gw_lines_match_reference_embedding(self, name, seed, tmp_path):
        # recomputed from the reference loop's embedding, not a stored float:
        # BLAS kernels may round differently on another CPU
        if name == "generated_n40_p02":
            # dense enough that the sweep's levels hold several vertices each
            path = str(tmp_path / "g40.inst")
            save_instance(random_instance(40, 0.2, 4, PartitionKind.EDGES, seed=21), path)
            order, levels = _sweep_levels(load_instance(path).graph)
            assert len(order) == 40 and 2 * len(levels) < len(order)
        else:
            path = str(GOLDENS / name)
        rc, out, _ = run_cli(["run", path, "--algorithm", "gw", "--seed", str(seed),
                              "--samples", "200", "--no-timestamp"])
        assert rc == 0
        lines = parse_report(out).other
        g = load_instance(path).graph
        embedding = python_sdp_solve(g, seed=seed)
        rounding = gw_round(g, embedding, seed=seed, samples=200)
        best = max(cut_value(g, cut) for cut in rounding.cuts)
        assert [l for l in lines if l.startswith("best-cut-value ")] == [f"best-cut-value {best}"]
        assert [l for l in lines if l.startswith("sdp-objective ")] == [
            f"sdp-objective {sdp_objective(g, embedding)!r}"
        ]

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

    def test_edgeless_node_model_exit_4(self, tmp_path):
        bad = tmp_path / "edgeless.inst"
        bad.write_text(
            "fairmaxcut instance v1\nvertices 3\n"
            "model node-maxdeg\npartition nodes\ngroup 0 1 2\n"
        )
        rc, out, err = run_cli(["run", str(bad), "--algorithm", "naive-random", "--trials", "4"])
        assert rc == 4
        assert out == "" and err == "error: model node-maxdeg needs at least one edge\n"

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
        monkeypatch.setattr(cli_module.verify, "curated_suite", lambda: bad)
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


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(GOLDENS / "paw.inst"), "--algorithm", "naive-random", "--trials", "8"],
        ["verify", "--suite", "random", "--count", "1"],
        ["generate", "random", "--n", "5"],
    ],
)
def test_seed_outside_64_bits_exit_6(argv, seed):
    # the generators read a seed's low 64 bits: -1 would draw what 2**64 - 1 draws
    rc, out, err = run_cli([*argv, "--seed", str(seed)])
    assert rc == 6
    assert out == "" and err == f"error: --seed must be in [0, 2**64), got {seed}\n"
    assert run_cli([*argv, "--seed", str(2**64 - 1)])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{missing}/p.inst"],
        ["run", "{paw}", "--algorithm", "gw", "--embedding", "{missing}/p.emb"],
        ["solve", "{paw}", "-o", "{missing}/p.report"],
    ],
)
def test_unreadable_files_exit_2(paw_path, tmp_path, argv):
    # a file that cannot be opened is a usage error, not a verification failure
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing, paw=paw_path) for a in argv]
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert err.startswith("error: [Errno 2] No such file or directory:")
    assert str(missing) in err


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _dests(sub: argparse.ArgumentParser) -> set[str]:
    return {a.dest for a in sub._actions if a.dest != "help"}


# run options that one algorithm alone reads, and that algorithm
ALGORITHM_OPTIONS = {
    "--trials": "naive-random",
    "--samples": "gw",
    "--embedding": "gw",
    "--sdp-rank": "gw",
    "--sdp-iterations": "gw",
}


def test_every_option_is_read(tmp_path):
    """Run every branch of every subcommand on a namespace that records which
    attributes its cmd_* function reads: an option nothing reads must not be
    accepted.  Each run algorithm gets only its own options and must read
    those, the options every algorithm shares, and no other algorithm's."""
    paw = str(GOLDENS / "paw.inst")
    emb = tmp_path / "d.emb"
    assert run_cli(["generate", "diamond-embedding", "-o", str(emb)])[0] == 0
    diamond = tmp_path / "d.inst"
    assert run_cli(["generate", "diamond", "-o", str(diamond)])[0] == 0
    family_args = {
        "cycle": ["--n", "5"],
        "complete-bipartite": ["--a", "2", "--b", "2"],
        "clique-tail": ["--k", "2", "--n", "4"],
        "cycle-biclique": ["--k", "2", "--r", "1"],
        "diamond": [],
        "paw": [],
        "diamond-embedding": [],
        "random": ["--n", "5"],
    }
    groups = [a for a in _subparsers()["generate"]._actions if a.dest == "groups"][0].choices
    runs = [
        ["solve", paw],
        ["solve", paw, "--objectives", "MP,DF-MP"],
        ["run", paw, "--algorithm", "separate-solve", "--seed", "3"],
        ["run", paw, "--algorithm", "naive-random", "--seed", "3", "--trials", "8"],
        ["run", paw, "--algorithm", "local-search", "--seed", "3"],
        ["run", paw, "--algorithm", "gw", "--seed", "3", "--samples", "4", "--sdp-rank", "3",
         "--sdp-iterations", "2"],
        ["run", str(diamond), "--algorithm", "gw", "--embedding", str(emb), "--samples", "4"],
        *(["generate", family, *extra, "--groups", group, "-o", str(tmp_path / "g.out")]
          for family, extra in family_args.items() for group in groups),
        ["verify", "--suite", "random", "--count", "2"],
        ["reproduce"],
    ]
    reads: dict[str, set[str]] = {}
    algorithm_reads: dict[str, set[str]] = {}
    for argv in runs:
        seen: set[str] = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        args = build_parser().parse_args(argv, namespace=Recording())
        seen.clear()  # argparse itself reads every dest while parsing
        with contextlib.redirect_stdout(io.StringIO()):
            assert getattr(cli, f"cmd_{args.cmd}")(args) == 0, argv
        reads.setdefault(argv[0], set()).update(seen)
        if argv[0] == "run":
            algorithm_reads.setdefault(args.algorithm, set()).update(seen)

    subparsers = _subparsers()
    assert set(reads) == set(subparsers)
    for name, sub in subparsers.items():
        assert _dests(sub) <= reads[name], (name, _dests(sub) - reads[name])
    dest = {flag: flag[2:].replace("-", "_") for flag in ALGORITHM_OPTIONS}
    shared = _dests(subparsers["run"]) - set(dest.values())
    assert set(algorithm_reads) == set(cli.ALGORITHMS)
    for algorithm, seen in algorithm_reads.items():
        own = {dest[flag] for flag, reader in ALGORITHM_OPTIONS.items() if reader == algorithm}
        assert shared <= seen, (algorithm, shared - seen)
        assert seen & set(dest.values()) == own, algorithm


@pytest.mark.parametrize(
    "algorithm, flag",
    [(algorithm, flag) for algorithm in cli.ALGORITHMS
     for flag, reader in ALGORITHM_OPTIONS.items() if reader != algorithm],
)
def test_other_algorithms_options_are_refused_exit_2(paw_path, tmp_path, algorithm, flag):
    # the embedding file does not exist: a refused option is never read
    value = str(tmp_path / "missing.emb") if flag == "--embedding" else "5"
    rc, out, err = run_cli(["run", paw_path, "--algorithm", algorithm, flag, value])
    assert rc == 2
    assert out == ""
    assert err == f"error: {flag} is not read by --algorithm {algorithm}\n"


class TestParserReuse:
    """In-process ``main`` calls parse with one parser, and one call's
    options do not leak into the next."""

    def test_back_to_back_calls_share_one_parser(self, paw_path, tmp_path, monkeypatch):
        used = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(parser, *args, **kwargs):
            used.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        report = str(tmp_path / "r.rep")
        rc, approx, _ = run_cli(["solve", paw_path, "--no-timestamp", "--approx", "-o", report])
        assert rc == 0 and "DF-MP  = 2/3  ~ 0.666667" in approx
        rc, plain, _ = run_cli(["solve", paw_path, "--no-timestamp", "-o", report])
        assert rc == 0 and "DF-MP  = 2/3\n" in plain
        assert "~" not in plain
        assert len(used) == 2 and used[0] is used[1]

    def test_gw_options_do_not_carry_over(self, paw_path):
        gw = ["run", paw_path, "--algorithm", "gw", "--samples", "5", "--no-timestamp"]
        assert run_cli(gw)[0] == 0
        rc, out, err = run_cli(["run", paw_path, "--algorithm", "naive-random", "--samples", "5"])
        assert (rc, out) == (2, "")
        assert err == "error: --samples is not read by --algorithm naive-random\n"
        # without --samples nothing is refused: none is left over from the gw run
        rc, out, _ = run_cli(["run", paw_path, "--algorithm", "naive-random", "--trials", "8",
                              "--no-timestamp"])
        assert rc == 0 and out


@pytest.mark.parametrize("flag", ["--sdp-rank", "--sdp-iterations"])
def test_gw_with_embedding_refuses_sdp_options_exit_2(tmp_path, flag):
    # the SDP is not solved when the embedding is given
    inst, emb = str(tmp_path / "d.inst"), str(tmp_path / "d.emb")
    run_cli(["generate", "diamond", "-o", inst])
    run_cli(["generate", "diamond-embedding", "-o", emb])
    argv = ["run", inst, "--algorithm", "gw", "--embedding", emb, "--samples", "4"]
    assert run_cli(argv)[0] == 0
    rc, out, err = run_cli([*argv, flag, "5"])
    assert rc == 2
    assert out == ""
    assert err == f"error: {flag} is not read by --algorithm gw with --embedding\n"


def test_settable_option_count():
    assert sum(len(_dests(sub)) for sub in _subparsers().values()) == 36


def _readme_option_table() -> dict[str, tuple[list[str], list[str]]]:
    """The README's subcommand table: name -> (positional metavars, option
    flags), each flag the first word of a backticked span in the row outside
    its parenthesized notes."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    header = "| subcommand | options |\n| --- | --- |\n"
    assert header in text
    table = {}
    for row in text.split(header, 1)[1].splitlines():
        if not row.startswith("|"):
            break
        usage, options = row.replace("\\|", "/").strip("|").split("|")
        name, *positionals = re.findall(r"`([^`]*)`", usage)[0].split()
        spans = re.findall(r"`([^`]*)`", re.sub(r"\([^)]*\)", "", options))
        table[name] = (positionals, [s.split()[0] for s in spans if s.startswith("-")])
    return table


def test_readme_option_table_matches_parser():
    table = _readme_option_table()
    subparsers = _subparsers()
    assert set(table) == set(subparsers)
    for name, sub in subparsers.items():
        positionals, flags = table[name]
        actions = [a for a in sub._actions if a.dest != "help"]
        assert positionals == [a.dest.upper() for a in actions if not a.option_strings], name
        options = sub._option_string_actions
        assert set(flags) <= set(options), (name, set(flags) - set(options))
        documented = [options[flag].dest for flag in flags]
        assert len(documented) == len(set(documented)), name
        assert set(documented) == {a.dest for a in actions if a.option_strings}, name


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{paw}", "--seed", "3"],
        ["run", "{paw}", "--algorithm", "local-search", "--limit", "5"],
        ["run", "{paw}", "--algorithm", "local-search", "--mode", "value"],
        ["run", "{paw}", "--algorithm", "local-search", "--approx"],
        ["generate", "paw", "--limit", "5"],
        ["generate", "paw", "--mode", "value"],
        ["generate", "paw", "--approx"],
        ["generate", "paw", "--no-timestamp"],
        ["verify", "--mode", "value"],
        ["verify", "--approx"],
        ["verify", "--limit", "5"],
        ["reproduce", "--limit", "5"],
        ["reproduce", "--seed", "3"],
        ["reproduce", "--mode", "value"],
        ["reproduce", "--approx"],
        *(["solve", "{paw}", "--objectives", "DF-MP", "--mode", mode]
          for mode in ("value", "proportion", "both")),
    ],
)
def test_unread_options_are_refused_exit_2(paw_path, argv, capsys):
    argv = [a.format(paw=paw_path) for a in argv]
    if "--objectives" in argv:
        # parsed, then refused by solve: the objectives fix their own modes
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --mode is not read with --objectives\n")
        return
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestReproduce:
    def test_mismatch_exits_1(self, tmp_path, monkeypatch):
        from fairmaxcut import cli as cli_module
        from fairmaxcut.verify import make_check

        bad = [make_check("planted/mismatch", "", Fraction(1, 3), "==", Fraction(1, 2))]
        monkeypatch.setattr(cli_module.verify, "pinned_checks", lambda: bad)
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
