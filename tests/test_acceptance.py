"""End-to-end acceptance suite.

Fourteen checks, run in order, one printed pass/fail line each.  Exact
values are asserted as reduced fractions; the only tolerances are the ones
stated inline (wall-clock budgets and the 3-sigma Monte Carlo bands).
"""

import math
import time
from fractions import Fraction

import pytest

from fairmaxcut import cli, families, heuristics
from fairmaxcut.exact import Mode, max_proportion, static_fair
from fairmaxcut.families import (
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_cycle_plus_biclique,
    make_diamond_embedding,
    make_diamond_instance,
    make_paw_instance,
    random_instance,
    random_partition,
    singleton_partition,
)
from fairmaxcut.graphs import Cut, PartitionKind, cut_value
from fairmaxcut.heuristics import (
    evaluate_distribution,
    gw_round,
    local_search_cut,
    naive_random_sample,
    naive_random_stats,
    separate_solve,
)
from fairmaxcut.maximin import df_fair
from fairmaxcut.utility import UtilityModel
from fairmaxcut.verify import (
    check_subproblem_bound,
    edge_subinstance,
    node_subinstance,
    random_suite,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)


def report_line(index: int, slug: str, ok: bool) -> None:
    print(f"acceptance [{index:2d}/14] {slug}: {'PASS' if ok else 'FAIL'}")
    assert ok, slug


def test_01_paw_exact_objectives():
    started = time.monotonic()
    inst = make_paw_instance()
    df = df_fair(inst.graph, inst.model, inst.partition).value
    mp, _ = max_proportion(inst.graph, inst.model)
    elapsed = time.monotonic() - started
    ok = df == Fraction(2, 3) and mp == Fraction(3, 4) and elapsed < 1.0
    report_line(1, "paw instance: dynamic 2/3, best 3/4, under 1s", ok)


def test_02_diamond_strict_gap():
    started = time.monotonic()
    inst = make_diamond_instance()
    df = df_fair(inst.graph, inst.model, inst.partition).value
    mps = {}
    for kept in ((0,), (1,), (0, 1)):
        sub, _ = edge_subinstance(inst, kept)
        mps[kept], _ = max_proportion(sub.graph, sub.model)
    elapsed = time.monotonic() - started
    ok = (
        df == Fraction(2, 3)
        and mps[(0,)] == ONE
        and mps[(1,)] == ONE
        and mps[(0, 1)] == Fraction(4, 5)
        and df < min(mps.values())
        and elapsed < 1.0
    )
    report_line(2, "diamond instance: dynamic 2/3 strictly below subgraph best 4/5", ok)


def test_03_pinned_embedding_fairness_failure():
    inst = make_diamond_instance()
    embedding = make_diamond_embedding()
    rounding = gw_round(inst.graph, embedding, seed=0, samples=128)
    chord_prob = rounding.edge_cut_probabilities[4]
    score = evaluate_distribution(inst.graph, inst.model, inst.partition, rounding.distribution())
    ok = chord_prob == 0.0 and score.minimum == 0
    report_line(3, "pinned embedding: chord probability exactly 0, worst expectation 0", ok)


def test_04_clique_tail_family():
    gaps = []
    ok = True
    for n in (6, 10, 14):
        inst = make_clique_with_tail(2, n)
        df = df_fair(inst.graph, inst.model, inst.partition).value
        mp, _ = max_proportion(inst.graph, inst.model)
        ok &= df == Fraction(2, 3)
        ok &= mp == Fraction(4 + n - 4, 6 + n - 4)
        gaps.append(mp - df)
    ok &= all(gap < HALF for gap in gaps)
    ok &= gaps[0] < gaps[1] < gaps[2]
    report_line(4, "clique-with-tail family: dynamic pinned at 2/3, gap grows below 1/2", ok)


def test_05_odd_cycle_edge_family():
    ok = True
    for n in (2, 3, 4, 5):
        length = 2 * n + 1
        g = make_cycle(length)
        partition = singleton_partition(g, PartitionKind.EDGES)
        sf, _ = static_fair(g, UtilityModel.EDGE, partition)
        df = df_fair(g, UtilityModel.EDGE, partition).value
        mp, _ = max_proportion(g, UtilityModel.EDGE)
        ok &= sf == 0
        ok &= df >= 1 - Fraction(1, length)
        ok &= df <= mp == Fraction(2 * n, length)
    report_line(5, "odd cycles, singleton edges: static 0, dynamic at least 1 - 1/(2n+1)", ok)


def test_06_odd_cycle_node_family():
    ok = True
    gaps = []
    for n in (2, 3, 4):
        length = 2 * n + 1
        g = make_cycle(length)
        partition = singleton_partition(g, PartitionKind.NODES)
        sf, _ = static_fair(g, UtilityModel.NODE_MAXDEG, partition)
        df = df_fair(g, UtilityModel.NODE_MAXDEG, partition).value
        ok &= sf == HALF
        ok &= df >= 1 - Fraction(1, length)
        gap = df - sf
        ok &= gap <= HALF
        gaps.append(gap)
    ok &= gaps[0] < gaps[1] < gaps[2]  # approaching 1/2 from below
    report_line(6, "odd cycles, singleton nodes: static 1/2, gap climbs toward 1/2", ok)


def test_07_bipartite_collapses():
    ok = True
    for n in (2, 3):
        g = make_complete_bipartite(n, n)
        for seed in range(5):
            for kind, model in (
                (PartitionKind.EDGES, UtilityModel.EDGE),
                (PartitionKind.NODES, UtilityModel.NODE_MAXDEG),
            ):
                ground = g.edge_count if kind is PartitionKind.EDGES else g.vertex_count
                partition = random_partition(g, kind, min(3, ground), seed=seed)
                sf, _ = static_fair(g, model, partition)
                df = df_fair(g, model, partition).value
                mp, _ = max_proportion(g, model)
                ok &= sf == df == mp == ONE
    report_line(7, "regular complete bipartite: all three proportions equal 1", ok)


def test_08_uniform_random_cut_statistics():
    inst = make_clique_with_tail(2, 10)
    trials = 100_000
    ok = True
    stats = naive_random_stats(inst.graph, inst.model, inst.partition)
    for gr, st in zip(inst.partition.groups, stats):
        ok &= st.mean == HALF and st.variance == Fraction(1, 4 * len(gr))
    samples = naive_random_sample(inst.graph, inst.model, inst.partition,
                                  seed=20260809, trials=trials)
    for gr, sm in zip(inst.partition.groups, samples):
        sigma = 1.0 / (2.0 * math.sqrt(len(gr) * trials))
        ok &= abs(float(sm.mean) - 0.5) <= 3 * sigma
    # the CLI emits the same statistics as exact fraction strings
    import contextlib, io

    from fairmaxcut.instances import save_instance

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ct.inst")
        save_instance(inst, path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["run", path, "--algorithm", "naive-random",
                           "--trials", "2000", "--seed", "1", "--no-timestamp"])
        ok &= rc == 0
        lines = buf.getvalue().splitlines()
        ok &= any(l.startswith("random-mean 0 1/2 ") for l in lines)
        ok &= any(l.startswith("random-variance 0 1/24 ") for l in lines)
        ok &= any(l.startswith("random-variance 1 1/24 ") for l in lines)
    report_line(8, "uniform random cut: exact mean 1/2 and variance 1/(4|group|), 3-sigma bands", ok)


def test_09_chain_suite_with_duality():
    checks = random_suite(seed=7, count=200)
    ok = bool(checks) and all(c.passed for c in checks)
    report_line(9, "200 random instances: static <= dynamic <= best, duality certified", ok)


def test_10_separate_solve_floor_suite():
    ok = True
    for i in range(50):
        kind = PartitionKind.EDGES if i % 2 == 0 else PartitionKind.NODES
        model = UtilityModel.EDGE if kind is PartitionKind.EDGES else UtilityModel.NODE_MAXDEG
        inst = random_instance(4 + i % 6, 0.5, 1 + i % 4, kind, seed=1000 + i, model=model)
        dist, result = separate_solve(inst.graph, inst.model, inst.partition)
        score = evaluate_distribution(inst.graph, inst.model, inst.partition, dist)
        ok &= score.minimum >= result.alpha / inst.partition.group_count
    report_line(10, "separate-solve on 50 random instances: worst expectation >= alpha/gamma", ok)


def test_11_local_search_suite():
    ok = True
    for i in range(100):
        inst = random_instance(4 + i % 9, 0.5, 1 + i % 3, PartitionKind.NODES, seed=2000 + i)
        g = inst.graph
        cut = local_search_cut(g)
        for v in range(g.vertex_count):
            inside = v in cut.members
            crossing = sum(1 for u in g.neighbors[v] if (u in cut.members) != inside)
            ok &= 2 * crossing >= g.degree(v)
        from fairmaxcut.graphs import max_degree

        delta = max_degree(g)
        floor = min(
            Fraction(sum(g.degree(v) for v in gr), 2 * len(gr) * delta)
            for gr in inst.partition.groups
        )
        sf, _ = static_fair(g, UtilityModel.NODE_MAXDEG, inst.partition)
        ok &= sf >= floor
    report_line(11, "local search on 100 random graphs: half-degree condition and static floor", ok)


def test_12_subproblem_bounds():
    ok = True
    diamond = make_diamond_instance()
    for kept in ((0,), (1,), (0, 1)):
        sub, deltas = edge_subinstance(diamond, kept)
        ok &= all(c.passed for c in check_subproblem_bound(diamond, sub, deltas))
    g23 = make_cycle_plus_biclique(2, 3)
    sub, deltas = node_subinstance(g23, (0,))
    ok &= deltas == (Fraction(1),)
    ok &= all(c.passed for c in check_subproblem_bound(g23, sub, deltas))
    sub, deltas = node_subinstance(g23, (1,))
    ok &= all(c.passed for c in check_subproblem_bound(g23, sub, deltas))
    report_line(12, "subproblem monotonicity: zero-slack edge and boundary-slack node cases", ok)


def test_13_excluded_asymptotics():
    # The 0.878 expected approximation ratio and the epsilon-limit tightness
    # claims are not desk-verifiable; they are intentionally replaced by the
    # finite trend checks (04-06) and the pinned-embedding check (03).
    report_line(13, "asymptotic claims excluded by design, finite trends stand in", True)


def test_14_reproduction_determinism(tmp_path):
    started = time.monotonic()
    first, second = tmp_path / "r1.rep", tmp_path / "r2.rep"
    import contextlib, io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc1 = cli.main(["reproduce", "--no-timestamp", "-o", str(first)])
        rc2 = cli.main(["reproduce", "--no-timestamp", "-o", str(second)])
    elapsed = time.monotonic() - started
    ok = (
        rc1 == 0
        and rc2 == 0
        and first.read_bytes() == second.read_bytes()
        and elapsed < 60.0
    )
    report_line(14, "reproduction: byte-identical reruns, under 60s", ok)
