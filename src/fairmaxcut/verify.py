"""Mechanical checkers: every ordering, gap, and bound claim the library
relies on, evaluated exactly and reported as structured verdicts.

Checkers never abort on a failing claim; they return BoundCheck records so a
suite run can survey everything.  Each verdict recomputes both sides from the
exact solvers; nothing is cached across checkers.  Within a checker, every
objective of an instance is read off one payoff matrix
(``objective_values``).  Every instance here is far below the default
enumeration limit, so no checker takes a limit.

The pinned worked-example values live in two places: the families'
``expected`` tuples, and the table below for the values no family carries.
``pinned_checks`` recomputes them all for ``fairmaxcut reproduce``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import exact, maximin
from .errors import GeneratorParameterError
from .exact import Mode, PayoffMatrix

# bench/tracing.py wraps these names on this module, so they stay importable here
from .exact import max_proportion, max_value, static_fair  # noqa: F401
from .families import (
    NamedInstance,
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_cycle_plus_biclique,
    make_diamond_embedding,
    make_diamond_instance,
    make_odd_cycle_instance,
    make_paw_instance,
    one_left_out_cycle_distribution,
    random_instance,
    singleton_partition,
)
from .graphs import (
    Cut, Graph, GroupPartition, PartitionKind, edge_groups, is_bipartite, max_degree, node_groups,
)
from .heuristics import derive_rng, evaluate_distribution, gw_round, naive_random_stats
from .instances import OBJECTIVE_NAMES
from .maximin import CutDistribution
from .maximin import df_fair  # noqa: F401 (bench/tracing.py wraps it here too)
from .utility import UtilityModel

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BoundCheck:
    claim: str
    context: str
    relation: str
    lhs: Fraction
    rhs: Fraction
    passed: bool
    skipped: bool = False

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "skip"
        return "pass" if self.passed else "fail"


def _evaluate(lhs: Fraction, relation: str, rhs: Fraction) -> bool:
    if relation == "<=":
        return lhs <= rhs
    if relation == ">=":
        return lhs >= rhs
    if relation == "==":
        return lhs == rhs
    if relation == "<":
        return lhs < rhs
    if relation == ">":
        return lhs > rhs
    raise ValueError(f"unknown relation {relation!r}")


def make_check(claim: str, context: str, lhs: Fraction, relation: str, rhs: Fraction) -> BoundCheck:
    return BoundCheck(
        claim=claim,
        context=context,
        relation=relation,
        lhs=lhs,
        rhs=rhs,
        passed=_evaluate(lhs, relation, rhs),
    )


def skipped_check(claim: str, context: str) -> BoundCheck:
    return BoundCheck(
        claim=claim,
        context=context,
        relation="<=",
        lhs=Fraction(0),
        rhs=Fraction(0),
        passed=True,
        skipped=True,
    )


# ---------------------------------------------------------------------------
# pinned values that no family's ``expected`` carries, each written once

# the diamond's subgraphs on whole edge groups: kept groups, reproduce name,
# curated-check context, best proportion
DIAMOND_SUBGRAPHS = (
    ((0,), "square", "square group", Fraction(1)),
    ((1,), "chord", "chord group", Fraction(1)),
    ((0, 1), "whole", "both groups", Fraction(4, 5)),
)
# the worked-example cut table's lottery, worth the diamond's DF-MP to each group
DIAMOND_TABLE_LOTTERY = ((Cut.of({3}), Fraction(2, 3)), (Cut.of({0, 3}), Fraction(1, 3)))
# hyperplane rounding of the pinned diamond embedding: the chord's cut
# probability and the worst group's expectation
DIAMOND_EMBEDDING_VALUES = (
    ("chord-cut-probability", Fraction(0)),
    ("min-expectation", Fraction(0)),
)
# the uniform random cut on the diamond: the square group's mean and
# variance, the chord group's variance
UNIFORM_CUT_MOMENTS = (
    ("mean", Fraction(1, 2)),
    ("variance-size-4-group", Fraction(1, 16)),
    ("variance-size-1-group", Fraction(1, 4)),
)
CLIQUE_TAIL_LENGTHS = (6, 10, 14)
ODD_CYCLE_LENGTHS = (5, 7, 9)


def one_left_out_bound(n_odd: int) -> Fraction:
    """The worst group's expectation under the one-left-out lottery on an odd
    n-cycle with singleton edge or node groups."""
    return 1 - Fraction(1, n_odd)


# ---------------------------------------------------------------------------
# objective read-offs and the ordering chain


def _mode(name: str) -> Mode:
    return Mode.VALUE if name.endswith("MV") else Mode.PROPORTION


def _read_off(matrix: PayoffMatrix, name: str) -> tuple[Fraction, int | maximin.MaximinSolution]:
    """One objective read off a payoff matrix in its own mode."""
    mode = _mode(name)
    if name in ("MV", "MP"):
        return exact.max_from_matrix(matrix, mode)
    if name in ("SF-MV", "SF-MP"):
        return exact.static_from_matrix(matrix, mode)
    sol = maximin.solve_maximin(matrix, mode)
    return sol.value, sol


def _check_names(names: Sequence[str]) -> None:
    unknown = [name for name in names if name not in OBJECTIVE_NAMES]
    if unknown:
        raise ValueError(f"unknown objective {unknown[0]!r}")


def read_offs(
    matrix: PayoffMatrix, names: Sequence[str]
) -> dict[str, tuple[Fraction, int | maximin.MaximinSolution]]:
    """The named objectives of ``OBJECTIVE_NAMES`` read off one payoff matrix,
    keyed in the order of ``names``: each value, with the index of its first
    best column (MV, MP, SF-*; ``matrix.cut(j)`` is the witness) or the
    maximin solution (DF-*), each read in its own mode."""
    _check_names(names)
    return {name: _read_off(matrix, name) for name in names}


def objective_values(
    g: Graph, model: UtilityModel, partition: GroupPartition, *names: str
) -> tuple[Fraction, ...]:
    """The named objectives' values, in order, all read off one payoff
    matrix.  A DF value is ``maximin.maximin_value``'s: certified, but read
    with no support, so it never pays the canonical support's cold
    re-solve.  On ``random_instance(15, 0.4, 1, EDGES, 3)`` with singleton
    edge groups, all six took 19.9 s with the re-solve and 0.63 s without
    (2-vCPU Xeon, single runs)."""
    _check_names(names)
    matrix = exact.build_payoff_matrix(g, model, partition)
    return tuple(
        maximin.maximin_value(matrix, _mode(name)) if name.startswith("DF-")
        else _read_off(matrix, name)[0]
        for name in names
    )


# each chain claim and its (lower, upper) objectives, in report order
_CHAIN = (
    ("chain-value-static-dynamic", "SF-MV", "DF-MV"),
    ("chain-value-dynamic-best", "DF-MV", "MV"),
    ("chain-proportion-static-dynamic", "SF-MP", "DF-MP"),
    ("chain-proportion-dynamic-best", "DF-MP", "MP"),
)


def chain_checks(values: dict[str, Fraction], context: str = "") -> list[BoundCheck]:
    """Static <= dynamic <= utilitarian in each mode, for every adjacent pair
    of objectives present in ``values``."""
    return [
        make_check(claim, context, values[lo], "<=", values[hi])
        for claim, lo, hi in _CHAIN
        if lo in values and hi in values
    ]


def check_chain(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    context: str = "",
) -> list[BoundCheck]:
    """Static <= dynamic <= utilitarian, in both value and proportion modes,
    all six sides read off one payoff matrix by ``objective_values``: the
    DF sides are certified values, and no support is read."""
    values = objective_values(g, model, partition, *OBJECTIVE_NAMES)
    return chain_checks(dict(zip(OBJECTIVE_NAMES, values)), context)


# ---------------------------------------------------------------------------
# subproblem monotonicity


def _kept_groups(
    inst: NamedInstance, kept_groups: Sequence[int], kind: PartitionKind, wrong_kind: str
) -> list[int]:
    """The kept group indices, sorted and distinct, once the instance is
    known to have a ``kind`` partition (else ``wrong_kind`` is the error)
    with each of them in range."""
    if inst.partition.kind is not kind:
        raise GeneratorParameterError(wrong_kind)
    kept = sorted(set(kept_groups))
    if not kept or any(i not in range(inst.partition.group_count) for i in kept):
        raise GeneratorParameterError("kept group indices out of range")
    return kept


def edge_subinstance(
    inst: NamedInstance, kept_groups: Sequence[int]
) -> tuple[NamedInstance, tuple[Fraction, ...]]:
    """Subproblem on the union of the kept edge groups (slack 0): the graph
    keeps its vertices but only those edges, re-indexed in original order."""
    kept = _kept_groups(
        inst, kept_groups, PartitionKind.EDGES, "edge subinstance needs an edge partition"
    )
    old_indices = sorted(idx for i in kept for idx in inst.partition.groups[i])
    remap = {old: new for new, old in enumerate(old_indices)}
    sub_graph = Graph(inst.graph.vertex_count, tuple(inst.graph.edges[i] for i in old_indices))
    sub_groups = [
        frozenset(remap[idx] for idx in inst.partition.groups[i]) for i in kept
    ]
    sub = NamedInstance(
        sub_graph,
        edge_groups(sub_graph, sub_groups),
        UtilityModel.EDGE,
        f"{inst.label}/edge-sub{kept}",
    )
    return sub, tuple(Fraction(0) for _ in kept)


def node_subinstance(
    inst: NamedInstance, kept_groups: Sequence[int]
) -> tuple[NamedInstance, tuple[Fraction, ...]]:
    """Vertex-induced subproblem on the union of the kept node groups.  The
    slack for each kept group is its count of boundary edges (edges leaving
    the induced subgraph), which dominates the utility those edges could
    contribute in the full problem."""
    kept = _kept_groups(
        inst, kept_groups, PartitionKind.NODES, "node subinstance needs a node partition"
    )
    kept_vertices = sorted(v for i in kept for v in inst.partition.groups[i])
    vert_set = set(kept_vertices)
    remap = {old: new for new, old in enumerate(kept_vertices)}
    sub_edges = tuple(
        (remap[u], remap[v]) for u, v in inst.graph.edges if u in vert_set and v in vert_set
    )
    sub_graph = Graph(len(kept_vertices), sub_edges)
    sub_groups = [frozenset(remap[v] for v in inst.partition.groups[i]) for i in kept]
    deltas = []
    for i in kept:
        boundary = sum(
            1
            for u, v in inst.graph.edges
            if (u in inst.partition.groups[i]) != (v in inst.partition.groups[i])
            and not (u in vert_set and v in vert_set)
        )
        deltas.append(Fraction(boundary))
    sub = NamedInstance(
        sub_graph,
        node_groups(sub_graph, sub_groups),
        inst.model,
        f"{inst.label}/node-sub{kept}",
    )
    return sub, tuple(deltas)


def check_subproblem_bound(
    full: NamedInstance,
    sub: NamedInstance,
    deltas: Sequence[Fraction],
) -> list[BoundCheck]:
    """Monotonicity of subproblems: the full problem's dynamic-fair optima are
    bounded by the subproblem's utilitarian optima plus the supplied slacks.
    The caller guarantees the slacks dominate the utility lost to the
    subproblem per group."""
    if len(deltas) != sub.partition.group_count:
        raise GeneratorParameterError("one slack per subproblem group required")
    # every sub group size, as often as the full partition has it
    if Counter(map(len, sub.partition.groups)) - Counter(map(len, full.partition.groups)):
        raise GeneratorParameterError(
            "subproblem groups are not a sub-collection of the full partition"
        )
    delta_sum = sum(deltas, Fraction(0))
    sub_ground = sum(len(gr) for gr in sub.partition.groups)
    ctx = f"{full.label} vs {sub.label}"

    df_value, df_prop = objective_values(full.graph, full.model, full.partition, "DF-MV", "DF-MP")
    mv_sub, mp_sub = objective_values(sub.graph, sub.model, sub.partition, "MV", "MP")
    return [
        make_check("subproblem-value-bound", ctx, df_value, "<=", mv_sub + delta_sum),
        make_check(
            "subproblem-proportion-bound",
            ctx,
            df_prop,
            "<=",
            mp_sub + delta_sum / sub_ground,
        ),
    ]


# ---------------------------------------------------------------------------
# triangle groups


def _edges_decompose_into_triangles(g: Graph, group: frozenset[int]) -> bool:
    """True iff the group's edges partition into vertex-triangles."""
    if len(group) % 3 != 0:
        return False
    edge_set = {frozenset(g.edges[i]) for i in group}
    if len(edge_set) != len(group):
        return False

    def recurse(remaining: frozenset[frozenset[int]]) -> bool:
        if not remaining:
            return True
        first = min(remaining, key=lambda e: tuple(sorted(e)))
        u, v = sorted(first)
        for w in range(g.vertex_count):
            if w in (u, v):
                continue
            e1, e2 = frozenset({u, w}), frozenset({v, w})
            if e1 in remaining and e2 in remaining:
                if recurse(remaining - {first, e1, e2}):
                    return True
        return False

    return recurse(frozenset(edge_set))


def check_triangle_bound(g: Graph, partition: GroupPartition, context: str = "") -> BoundCheck:
    """If some edge group decomposes into edge-disjoint triangles, at most two
    of each triangle's three edges can ever be cut, so the dynamic-fair
    proportion is capped at 2/3."""
    if partition.kind is not PartitionKind.EDGES:
        return skipped_check("triangle-group-bound", context + " (not an edge partition)")
    if not any(_edges_decompose_into_triangles(g, gr) for gr in partition.groups):
        return skipped_check("triangle-group-bound", context + " (no triangle-decomposable group)")
    (df,) = objective_values(g, UtilityModel.EDGE, partition, "DF-MP")
    return make_check("triangle-group-bound", context, df, "<=", Fraction(2, 3))


# ---------------------------------------------------------------------------
# bipartite collapses and node bounds


def _is_regular(g: Graph) -> bool:
    return g.vertex_count == 0 or len(set(g.degrees)) == 1


def check_bipartite_props(
    g: Graph,
    partition: GroupPartition,
    model: UtilityModel,
    context: str = "",
) -> list[BoundCheck]:
    """On bipartite graphs (plus regularity for node utilities) all three
    proportion objectives collapse to exactly 1."""
    bipartite, _ = is_bipartite(g)
    if not bipartite:
        return [skipped_check("bipartite-collapse", context + " (not bipartite)")]
    if model.is_node_model and not _is_regular(g):
        return [skipped_check("bipartite-collapse", context + " (node model needs regularity)")]
    sf, df, mp = objective_values(g, model, partition, "SF-MP", "DF-MP", "MP")
    one = Fraction(1)
    return [
        make_check("bipartite-collapse-static", context, sf, "==", one),
        make_check("bipartite-collapse-dynamic", context, df, "==", one),
        make_check("bipartite-collapse-best", context, mp, "==", one),
    ]


def check_nonbipartite_node_bound(g: Graph, context: str = "") -> BoundCheck:
    """On a non-bipartite graph some two adjacent vertices share a side under
    any cut, so with singleton node groups the static-fair proportion is at
    most (max degree - 1) / max degree."""
    bipartite, _ = is_bipartite(g)
    if bipartite:
        return skipped_check("odd-cycle-node-static-cap", context + " (bipartite)")
    partition = singleton_partition(g, PartitionKind.NODES)
    (sf,) = objective_values(g, UtilityModel.NODE_MAXDEG, partition, "SF-MP")
    delta = max_degree(g)
    return make_check(
        "odd-cycle-node-static-cap", context, sf, "<=", Fraction(delta - 1, delta)
    )


def worst_degree_ratio(g: Graph, partition: GroupPartition) -> Fraction:
    """The smallest group average degree over the max degree: the cap on the
    node dynamic-fair proportion, and twice the local-search floor."""
    delta = max_degree(g)
    return min(Fraction(sum(g.degree(v) for v in gr), len(gr) * delta) for gr in partition.groups)


def check_dfmp_node_bounds(
    g: Graph, partition: GroupPartition, context: str = ""
) -> list[BoundCheck]:
    """Degree envelopes for node utilities: the dynamic-fair proportion never
    beats the worst group's average-degree ratio, and local search guarantees
    the static-fair proportion is at least half of it."""
    ratio = worst_degree_ratio(g, partition)
    df, sf = objective_values(g, UtilityModel.NODE_MAXDEG, partition, "DF-MP", "SF-MP")
    return [
        make_check("node-dynamic-degree-cap", context, df, "<=", ratio),
        make_check("node-static-degree-floor", context, sf, ">=", ratio / 2),
    ]


# ---------------------------------------------------------------------------
# expected values, worked example, gap table


def check_expected(inst: NamedInstance) -> list[BoundCheck]:
    """Confirm every expected value an instance carries against the solvers."""
    names = [exp.objective for exp in inst.expected]
    values = objective_values(inst.graph, inst.model, inst.partition, *names)
    return [
        make_check(f"expected-{exp.objective}", inst.label, value, "==", exp.value)
        for exp, value in zip(inst.expected, values)
    ]


def check_diamond_strict_gap() -> list[BoundCheck]:
    """The diamond's dynamic-fair optimum (2/3) is strictly below the best
    proportion of every subgraph formed from whole edge groups (min 4/5), so
    no subgraph bound is tight for it."""
    inst = make_diamond_instance()
    (df,) = objective_values(inst.graph, inst.model, inst.partition, "DF-MP")
    pinned = inst.expected_map()["DF-MP"]
    checks = [make_check("diamond-dynamic-value", inst.label, df, "==", pinned)]
    subgraph_mps = []
    for kept, _, context, expected_mp in DIAMOND_SUBGRAPHS:
        sub, _ = edge_subinstance(inst, kept)
        subgraph_mps += objective_values(sub.graph, sub.model, sub.partition, "MP")
        checks.append(make_check(
            "diamond-subgraph-proportion", f"{inst.label}: {context}", subgraph_mps[-1],
            "==", expected_mp))
    checks.append(make_check("diamond-strict-gap", inst.label, df, "<", min(subgraph_mps)))
    return checks


def _gap_checks(
    claim: str,
    family: Sequence[NamedInstance],
    top: str,
    bottom: str,
    upper: Fraction,
    low: bool = False,
    degree_cap: bool = False,
) -> list[BoundCheck]:
    """The gap ``top - bottom`` along a family: at most ``upper`` on each
    instance (at least 0 with ``low``; at most half the worst group's degree
    ratio with ``degree_cap``), and strictly growing from each instance to
    the next."""
    checks, gaps = [], []
    for inst in family:
        hi, lo = objective_values(inst.graph, inst.model, inst.partition, top, bottom)
        gap = hi - lo
        gaps.append((inst.label, gap))
        if degree_cap:
            cap = worst_degree_ratio(inst.graph, inst.partition) / 2
            checks.append(make_check(f"{claim}-cap", inst.label, gap, "<=", cap))
        checks.append(make_check(f"{claim}-interval", inst.label, gap, "<=", upper))
        if low:
            checks.append(make_check(f"{claim}-interval-low", inst.label, gap, ">=", Fraction(0)))
    for (la, ga), (lb, gb) in zip(gaps, gaps[1:]):
        checks.append(make_check(f"{claim}-trend", f"{la} -> {lb}", ga, "<", gb))
    return checks


def check_gap_table(kind: PartitionKind) -> list[BoundCheck]:
    """Gap intervals and tightness trends.

    Edge utilities: best-vs-dynamic gap sits in [0, 1/2] and grows along the
    clique-with-tail family; dynamic-vs-static gap sits in [0, 1] and grows
    along odd cycles with singleton edge groups.  Node utilities: dynamic-vs-
    static gap sits in [0, 1/2] and grows along odd cycles with singleton node
    groups; best-vs-dynamic gap sits in [0, 1] and grows along the
    cycle-plus-biclique family.  Trends are checked as strict monotone steps
    over the enumerable family prefix."""
    cycles = [make_odd_cycle_instance(n, kind) for n in ODD_CYCLE_LENGTHS]
    if kind is PartitionKind.EDGES:
        tails = [make_clique_with_tail(2, n) for n in CLIQUE_TAIL_LENGTHS]
        return (
            _gap_checks("edge-best-dynamic-gap", tails, "MP", "DF-MP", _HALF, low=True)
            + _gap_checks("edge-dynamic-static-gap", cycles, "DF-MP", "SF-MP", Fraction(1))
        )
    bicliques = [make_cycle_plus_biclique(2, r) for r in (2, 3, 4)]
    return (
        _gap_checks("node-dynamic-static-gap", cycles, "DF-MP", "SF-MP", _HALF, degree_cap=True)
        + _gap_checks("node-best-dynamic-gap", bicliques, "MP", "DF-MP", Fraction(1), low=True)
    )


# ---------------------------------------------------------------------------
# pinned values


# reproduce row names of the family objectives it pins
_ROW_NAMES = {"MP": "best-proportion", "SF-MP": "static-proportion", "DF-MP": "dynamic-proportion"}


def pinned_checks() -> list[BoundCheck]:
    """Every pinned worked-example value recomputed, in report order, as a
    check named by its ``reproduce`` key: the computed value on the left,
    the pinned one on the right.  Objective values are pinned by the
    families' expected tuples, the rest by the table at the top of this
    module."""
    diamond = make_diamond_instance()
    subgraphs = [f"diamond/{name}-subgraph-proportion" for _, name, _, _ in DIAMOND_SUBGRAPHS]
    keys = ["diamond/dynamic-proportion", *subgraphs, "diamond/strict-gap"]
    gap = check_diamond_strict_gap()
    out = [replace(c, claim=key, context="") for key, c in zip(keys, gap)]

    def pin(key: str, computed: Fraction, relation: str, pinned: Fraction) -> None:
        out.append(make_check(key, "", computed, relation, pinned))

    def objectives(prefix: str, inst: NamedInstance, names) -> None:
        values = objective_values(inst.graph, inst.model, inst.partition, *names)
        for name, value in zip(names, values):
            pin(f"{prefix}/{_ROW_NAMES[name]}", value, "==", inst.expected_map()[name])

    def score(inst: NamedInstance, dist: CutDistribution):
        return evaluate_distribution(inst.graph, inst.model, inst.partition, dist)

    table = score(diamond, CutDistribution.from_pairs(DIAMOND_TABLE_LOTTERY))
    # one score per group: the square and the chord, named as their subgraphs
    for (_, name, _, _), value in zip(DIAMOND_SUBGRAPHS, table.per_group):
        pin(f"diamond/table-lottery-{name}", value, "==", diamond.expected_map()["DF-MP"])

    paw = make_paw_instance()
    objectives("paw", paw, ("DF-MP", "MP", "SF-MP"))

    rounding = gw_round(diamond.graph, make_diamond_embedding(), seed=0, samples=64)
    chord_probability = Fraction(rounding.edge_cut_probabilities[4])  # edge 4 is the chord
    lottery = rounding.score(diamond.graph, diamond.model, diamond.partition)
    computed = (chord_probability, lottery.minimum)
    for (name, pinned), value in zip(DIAMOND_EMBEDDING_VALUES, computed):
        pin(f"diamond-embedding/{name}", value, "==", pinned)

    for n in CLIQUE_TAIL_LENGTHS:
        inst = make_clique_with_tail(2, n)
        objectives(f"clique-tail-2-{n}", inst, ("DF-MP", "MP"))

    for n_odd in ODD_CYCLE_LENGTHS:
        lottery = CutDistribution.from_pairs(one_left_out_cycle_distribution(n_odd)[1])
        bound = one_left_out_bound(n_odd)
        for kind in PartitionKind:
            inst = make_odd_cycle_instance(n_odd, kind)
            sf, df = objective_values(inst.graph, inst.model, inst.partition, "SF-MP", "DF-MP")
            pin(f"{inst.label}/static-proportion", sf, "==", inst.expected_map()["SF-MP"])
            pin(f"{inst.label}/one-left-out-lottery", score(inst, lottery).minimum, "==", bound)
            pin(f"{inst.label}/dynamic-proportion", df, ">=", bound)

    stats = naive_random_stats(diamond.graph, diamond.model, diamond.partition)
    computed = (stats[0].mean, stats[0].variance, stats[1].variance)
    for (name, pinned), value in zip(UNIFORM_CUT_MOMENTS, computed):
        pin(f"uniform-random-cut/{name}", value, "==", pinned)
    return out


# ---------------------------------------------------------------------------
# suites


def curated_suite() -> list[BoundCheck]:
    """All named-instance claims: worked examples, families, bounds, gaps."""
    checks: list[BoundCheck] = []

    diamond = make_diamond_instance()
    paw = make_paw_instance()
    checks += check_diamond_strict_gap()
    for inst in (diamond, paw):
        checks += check_expected(inst)
        checks += check_chain(inst.graph, inst.model, inst.partition, inst.label)

    triangle = make_cycle(3)
    for g, groups, context in (
        (paw.graph, [frozenset({0, 1, 2}), frozenset({3})], "paw-triangle-group"),
        (triangle, [frozenset({0, 1, 2})], "triangle-single-group"),
    ):
        checks.append(check_triangle_bound(g, edge_groups(g, groups), context))

    for kept, *_ in DIAMOND_SUBGRAPHS:
        sub, deltas = edge_subinstance(diamond, kept)
        checks += check_subproblem_bound(diamond, sub, deltas)
    g23 = make_cycle_plus_biclique(2, 3)
    sub, deltas = node_subinstance(g23, (0,))
    checks += check_subproblem_bound(g23, sub, deltas)
    checks += check_expected(g23)
    checks += check_dfmp_node_bounds(g23.graph, g23.partition, g23.label)

    for n in CLIQUE_TAIL_LENGTHS:
        checks += check_expected(make_clique_with_tail(2, n))
    checks += check_expected(make_clique_with_tail(3, 6))

    k22, k33, c6 = make_complete_bipartite(2, 2), make_complete_bipartite(3, 3), make_cycle(6)
    edges, nodes = PartitionKind.EDGES, PartitionKind.NODES
    for name, g, kind in (("K22", k22, edges), ("K22", k22, nodes), ("K33", k33, edges),
                          ("K33", k33, nodes), ("cycle-6", c6, nodes)):
        model = UtilityModel.EDGE if kind is edges else UtilityModel.NODE_MAXDEG
        partition = singleton_partition(g, kind)
        checks += check_bipartite_props(g, partition, model, f"{name}-{kind.value}")

    for n_odd in (3, 5, 7):
        checks.append(check_nonbipartite_node_bound(make_cycle(n_odd), f"cycle-{n_odd}"))
    c5 = make_odd_cycle_instance(5, PartitionKind.NODES)
    checks += check_dfmp_node_bounds(c5.graph, c5.partition, c5.label)

    checks += check_gap_table(PartitionKind.EDGES)
    checks += check_gap_table(PartitionKind.NODES)
    return checks


def random_suite(seed: int, count: int = 200) -> list[BoundCheck]:
    """Ordering-chain checks over seeded random instances of both kinds.
    Every dynamic solve inside also certifies LP duality exactly."""
    checks: list[BoundCheck] = []
    rng = derive_rng(seed, 0x72616E646F6D)
    for i in range(count):
        kind = PartitionKind.EDGES if i % 2 == 0 else PartitionKind.NODES
        model = None
        if kind is PartitionKind.NODES and i % 4 == 1:
            model = UtilityModel.NODE_OWNDEG
        n = int(rng.integers(4, 11))
        gamma = int(rng.integers(1, 5))
        edge_prob = float(rng.choice((0.3, 0.5, 0.7)))
        inst = random_instance(
            n, edge_prob, gamma, kind, seed=int(rng.integers(0, 2**63)), model=model
        )
        checks += check_chain(inst.graph, inst.model, inst.partition, f"{inst.label}#{i}")
    return checks
