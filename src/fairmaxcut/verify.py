"""Mechanical checkers: every ordering, gap, and bound claim the library
relies on, evaluated exactly and reported as structured verdicts.

Checkers never abort on a failing claim; they return BoundCheck records so a
suite run can survey everything.  Each verdict recomputes both sides from the
exact solvers; nothing is cached across checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exact, maximin
from .errors import GeneratorParameterError
from .exact import (
    DEFAULT_ENUMERATION_LIMIT,
    Mode,
    max_proportion,
    max_value,
    static_fair,
)
from .families import (
    NamedInstance,
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_cycle_plus_biclique,
    make_diamond_instance,
    make_paw_instance,
    random_instance,
    singleton_partition,
)
from .graphs import Graph, GroupPartition, PartitionKind, edge_groups, is_bipartite, max_degree, node_groups
from .heuristics import derive_rng
from .maximin import df_fair
from .utility import UtilityModel

_HALF = Fraction(1, 2)
_TWO_THIRDS = Fraction(2, 3)


@dataclass(frozen=True)
class BoundCheck:
    claim: str
    context: str
    relation: str
    lhs: Fraction
    rhs: Fraction | tuple[Fraction, ...]
    passed: bool
    skipped: bool = False

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "skip"
        return "pass" if self.passed else "fail"


def _evaluate(lhs: Fraction, relation: str, rhs) -> bool:
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
    if relation == "in":
        return lhs in rhs
    raise ValueError(f"unknown relation {relation!r}")


def make_check(claim: str, context: str, lhs: Fraction, relation: str, rhs) -> BoundCheck:
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
# ordering chain


def check_chain(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    context: str = "",
) -> list[BoundCheck]:
    """Static <= dynamic <= utilitarian, in both value and proportion modes,
    all six sides read off one payoff matrix."""
    matrix = exact.build_payoff_matrix(g, model, partition, limit)
    out = []
    for mode, tag in ((Mode.VALUE, "value"), (Mode.PROPORTION, "proportion")):
        sf = exact.static_from_matrix(matrix, mode).objective
        df = maximin.solve_maximin(matrix, mode).value
        top, _ = exact.max_from_matrix(matrix, mode)
        out.append(make_check(f"chain-{tag}-static-dynamic", context, sf, "<=", df))
        out.append(make_check(f"chain-{tag}-dynamic-best", context, df, "<=", top))
    return out


# ---------------------------------------------------------------------------
# subproblem monotonicity


def edge_subinstance(
    inst: NamedInstance, kept_groups: Sequence[int]
) -> tuple[NamedInstance, tuple[Fraction, ...]]:
    """Subproblem on the union of the kept edge groups (slack 0): the graph
    keeps its vertices but only those edges, re-indexed in original order."""
    if inst.partition.kind is not PartitionKind.EDGES:
        raise GeneratorParameterError("edge subinstance needs an edge partition")
    kept = sorted(set(kept_groups))
    if not kept or any(i not in range(inst.partition.group_count) for i in kept):
        raise GeneratorParameterError("kept group indices out of range")
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
    if inst.partition.kind is not PartitionKind.NODES:
        raise GeneratorParameterError("node subinstance needs a node partition")
    kept = sorted(set(kept_groups))
    if not kept or any(i not in range(inst.partition.group_count) for i in kept):
        raise GeneratorParameterError("kept group indices out of range")
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
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> list[BoundCheck]:
    """Monotonicity of subproblems: the full problem's dynamic-fair optima are
    bounded by the subproblem's utilitarian optima plus the supplied slacks.
    The caller guarantees the slacks dominate the utility lost to the
    subproblem per group."""
    if len(deltas) != sub.partition.group_count:
        raise GeneratorParameterError("one slack per subproblem group required")
    full_sizes = sorted(len(gr) for gr in full.partition.groups)
    sub_sizes = sorted(len(gr) for gr in sub.partition.groups)
    remaining = list(full_sizes)
    for s in sub_sizes:
        if s in remaining:
            remaining.remove(s)
        else:
            raise GeneratorParameterError(
                "subproblem groups are not a sub-collection of the full partition"
            )
    delta_sum = sum(deltas, Fraction(0))
    sub_ground = sum(len(gr) for gr in sub.partition.groups)
    ctx = f"{full.label} vs {sub.label}"

    df_value = df_fair(full.graph, full.model, full.partition, Mode.VALUE, limit).value
    df_prop = df_fair(full.graph, full.model, full.partition, Mode.PROPORTION, limit).value
    mv_sub, _ = max_value(sub.graph, sub.model, limit)
    mp_sub, _ = max_proportion(sub.graph, sub.model, limit)
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


def check_triangle_bound(
    g: Graph,
    partition: GroupPartition,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    context: str = "",
) -> BoundCheck:
    """If some edge group decomposes into edge-disjoint triangles, at most two
    of each triangle's three edges can ever be cut, so the dynamic-fair
    proportion is capped at 2/3."""
    if partition.kind is not PartitionKind.EDGES:
        return skipped_check("triangle-group-bound", context + " (not an edge partition)")
    if not any(_edges_decompose_into_triangles(g, gr) for gr in partition.groups):
        return skipped_check("triangle-group-bound", context + " (no triangle-decomposable group)")
    df = df_fair(g, UtilityModel.EDGE, partition, Mode.PROPORTION, limit).value
    return make_check("triangle-group-bound", context, df, "<=", _TWO_THIRDS)


# ---------------------------------------------------------------------------
# bipartite collapses and node bounds


def _is_regular(g: Graph) -> bool:
    return g.vertex_count == 0 or len(set(g.degrees)) == 1


def check_bipartite_props(
    g: Graph,
    partition: GroupPartition,
    model: UtilityModel,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    context: str = "",
) -> list[BoundCheck]:
    """On bipartite graphs (plus regularity for node utilities) all three
    proportion objectives collapse to exactly 1."""
    bipartite, _ = is_bipartite(g)
    if not bipartite:
        return [skipped_check("bipartite-collapse", context + " (not bipartite)")]
    if model.is_node_model and not _is_regular(g):
        return [skipped_check("bipartite-collapse", context + " (node model needs regularity)")]
    sf = static_fair(g, model, partition, Mode.PROPORTION, limit).objective
    df = df_fair(g, model, partition, Mode.PROPORTION, limit).value
    mp, _ = max_proportion(g, model, limit)
    one = Fraction(1)
    return [
        make_check("bipartite-collapse-static", context, sf, "==", one),
        make_check("bipartite-collapse-dynamic", context, df, "==", one),
        make_check("bipartite-collapse-best", context, mp, "==", one),
    ]


def check_nonbipartite_node_bound(
    g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT, context: str = ""
) -> BoundCheck:
    """On a non-bipartite graph some two adjacent vertices share a side under
    any cut, so with singleton node groups the static-fair proportion is at
    most (max degree - 1) / max degree."""
    bipartite, _ = is_bipartite(g)
    if bipartite:
        return skipped_check("odd-cycle-node-static-cap", context + " (bipartite)")
    partition = singleton_partition(g, PartitionKind.NODES)
    sf = static_fair(g, UtilityModel.NODE_MAXDEG, partition, Mode.PROPORTION, limit).objective
    delta = max_degree(g)
    return make_check(
        "odd-cycle-node-static-cap", context, sf, "<=", Fraction(delta - 1, delta)
    )


def _group_degree_ratio(g: Graph, group: frozenset[int]) -> Fraction:
    delta = max_degree(g)
    return Fraction(sum(g.degree(v) for v in group), len(group) * delta)


def check_dfmp_node_bounds(
    g: Graph,
    partition: GroupPartition,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    context: str = "",
) -> list[BoundCheck]:
    """Degree envelopes for node utilities: the dynamic-fair proportion never
    beats the worst group's average-degree ratio, and local search guarantees
    the static-fair proportion is at least half of it."""
    ratio = min(_group_degree_ratio(g, gr) for gr in partition.groups)
    df = df_fair(g, UtilityModel.NODE_MAXDEG, partition, Mode.PROPORTION, limit).value
    sf = static_fair(g, UtilityModel.NODE_MAXDEG, partition, Mode.PROPORTION, limit).objective
    return [
        make_check("node-dynamic-degree-cap", context, df, "<=", ratio),
        make_check("node-static-degree-floor", context, sf, ">=", ratio / 2),
    ]


# ---------------------------------------------------------------------------
# expected values, worked example, gap table


def check_expected(inst: NamedInstance, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[BoundCheck]:
    """Confirm every expected value an instance carries against the solvers."""
    out = []
    for exp in inst.expected:
        name = exp.objective
        if name == "MV":
            got, _ = max_value(inst.graph, inst.model, limit)
        elif name == "MP":
            got, _ = max_proportion(inst.graph, inst.model, limit)
        elif name == "SF-MV":
            got = static_fair(inst.graph, inst.model, inst.partition, Mode.VALUE, limit).objective
        elif name == "SF-MP":
            got = static_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).objective
        elif name == "DF-MV":
            got = df_fair(inst.graph, inst.model, inst.partition, Mode.VALUE, limit).value
        elif name == "DF-MP":
            got = df_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).value
        else:
            raise ValueError(f"unknown expected objective {name!r}")
        out.append(make_check(f"expected-{name}", inst.label, got, "==", exp.value))
    return out


def check_diamond_strict_gap(limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[BoundCheck]:
    """The diamond's dynamic-fair optimum (2/3) is strictly below the best
    proportion of every subgraph formed from whole edge groups (min 4/5), so
    no subgraph bound is tight for it."""
    inst = make_diamond_instance()
    df = df_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).value
    checks = [make_check("diamond-dynamic-value", inst.label, df, "==", _TWO_THIRDS)]
    subgraph_mps = []
    expectations = {
        (0,): (Fraction(1), "square group"),
        (1,): (Fraction(1), "chord group"),
        (0, 1): (Fraction(4, 5), "both groups"),
    }
    for kept, (expected_mp, name) in expectations.items():
        sub, _ = edge_subinstance(inst, kept)
        mp, _ = max_proportion(sub.graph, sub.model, limit)
        subgraph_mps.append(mp)
        checks.append(
            make_check("diamond-subgraph-proportion", f"{inst.label}: {name}", mp, "==", expected_mp)
        )
    checks.append(
        make_check("diamond-strict-gap", inst.label, df, "<", min(subgraph_mps))
    )
    return checks


def check_gap_table(
    kind: PartitionKind, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[BoundCheck]:
    """Gap intervals and tightness trends.

    Edge utilities: best-vs-dynamic gap sits in [0, 1/2] and grows along the
    clique-with-tail family; dynamic-vs-static gap sits in [0, 1] and grows
    along odd cycles with singleton edge groups.  Node utilities: dynamic-vs-
    static gap sits in [0, 1/2] and grows along odd cycles with singleton node
    groups; best-vs-dynamic gap sits in [0, 1] and grows along the
    cycle-plus-biclique family.  Trends are checked as strict monotone steps
    over the enumerable family prefix."""
    checks: list[BoundCheck] = []
    zero = Fraction(0)
    one = Fraction(1)
    if kind is PartitionKind.EDGES:
        gaps = []
        for n in (6, 10, 14):
            inst = make_clique_with_tail(2, n)
            mp, _ = max_proportion(inst.graph, inst.model, limit)
            df = df_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).value
            gap = mp - df
            gaps.append((inst.label, gap))
            checks.append(make_check("edge-best-dynamic-gap-interval", inst.label, gap, "<=", _HALF))
            checks.append(make_check("edge-best-dynamic-gap-interval-low", inst.label, gap, ">=", zero))
        for (la, ga), (lb, gb) in zip(gaps, gaps[1:]):
            checks.append(make_check("edge-best-dynamic-gap-trend", f"{la} -> {lb}", ga, "<", gb))
        gaps = []
        for n_odd in (5, 7, 9):
            g = make_cycle(n_odd)
            partition = singleton_partition(g, PartitionKind.EDGES)
            sf = static_fair(g, UtilityModel.EDGE, partition, Mode.PROPORTION, limit).objective
            df = df_fair(g, UtilityModel.EDGE, partition, Mode.PROPORTION, limit).value
            gap = df - sf
            gaps.append((f"cycle-{n_odd}-edges", gap))
            checks.append(
                make_check("edge-dynamic-static-gap-interval", f"cycle-{n_odd}-edges", gap, "<=", one)
            )
        for (la, ga), (lb, gb) in zip(gaps, gaps[1:]):
            checks.append(make_check("edge-dynamic-static-gap-trend", f"{la} -> {lb}", ga, "<", gb))
        return checks

    gaps = []
    for n_odd in (5, 7, 9):
        g = make_cycle(n_odd)
        partition = singleton_partition(g, PartitionKind.NODES)
        sf = static_fair(g, UtilityModel.NODE_MAXDEG, partition, Mode.PROPORTION, limit).objective
        df = df_fair(g, UtilityModel.NODE_MAXDEG, partition, Mode.PROPORTION, limit).value
        gap = df - sf
        ratio = min(_group_degree_ratio(g, gr) for gr in partition.groups)
        gaps.append((f"cycle-{n_odd}-nodes", gap))
        checks.append(
            make_check("node-dynamic-static-gap-cap", f"cycle-{n_odd}-nodes", gap, "<=", ratio / 2)
        )
        checks.append(
            make_check("node-dynamic-static-gap-interval", f"cycle-{n_odd}-nodes", gap, "<=", _HALF)
        )
    for (la, ga), (lb, gb) in zip(gaps, gaps[1:]):
        checks.append(make_check("node-dynamic-static-gap-trend", f"{la} -> {lb}", ga, "<", gb))
    gaps = []
    for r in (2, 3, 4):
        inst = make_cycle_plus_biclique(2, r)
        mp, _ = max_proportion(inst.graph, inst.model, limit)
        df = df_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).value
        gap = mp - df
        gaps.append((inst.label, gap))
        checks.append(make_check("node-best-dynamic-gap-interval", inst.label, gap, "<=", one))
        checks.append(make_check("node-best-dynamic-gap-interval-low", inst.label, gap, ">=", zero))
    for (la, ga), (lb, gb) in zip(gaps, gaps[1:]):
        checks.append(make_check("node-best-dynamic-gap-trend", f"{la} -> {lb}", ga, "<", gb))
    return checks


# ---------------------------------------------------------------------------
# suites


def curated_suite(limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[BoundCheck]:
    """All named-instance claims: worked examples, families, bounds, gaps."""
    checks: list[BoundCheck] = []

    diamond = make_diamond_instance()
    paw = make_paw_instance()
    checks += check_diamond_strict_gap(limit)
    for inst in (diamond, paw):
        checks += check_expected(inst, limit)
        checks += check_chain(inst.graph, inst.model, inst.partition, limit, inst.label)

    paw_regrouped = NamedInstance(
        paw.graph,
        edge_groups(paw.graph, [frozenset({0, 1, 2}), frozenset({3})]),
        UtilityModel.EDGE,
        "paw-triangle-group",
    )
    checks.append(
        check_triangle_bound(paw_regrouped.graph, paw_regrouped.partition, limit, paw_regrouped.label)
    )
    triangle = make_cycle(3)
    checks.append(
        check_triangle_bound(
            triangle, edge_groups(triangle, [frozenset({0, 1, 2})]), limit, "triangle-single-group"
        )
    )

    for kept in ((0,), (1,), (0, 1)):
        sub, deltas = edge_subinstance(diamond, kept)
        checks += check_subproblem_bound(diamond, sub, deltas, limit)
    g23 = make_cycle_plus_biclique(2, 3)
    sub, deltas = node_subinstance(g23, (0,))
    checks += check_subproblem_bound(g23, sub, deltas, limit)
    checks += check_expected(g23, limit)
    checks += check_dfmp_node_bounds(g23.graph, g23.partition, limit, g23.label)

    for n in (6, 10, 14):
        inst = make_clique_with_tail(2, n)
        checks += check_expected(inst, limit)
    inst = make_clique_with_tail(3, 6)
    checks += check_expected(inst, limit)

    for a, b in ((2, 2), (3, 3)):
        g = make_complete_bipartite(a, b)
        checks += check_bipartite_props(
            g, singleton_partition(g, PartitionKind.EDGES), UtilityModel.EDGE, limit, f"K{a}{b}-edges"
        )
        checks += check_bipartite_props(
            g,
            singleton_partition(g, PartitionKind.NODES),
            UtilityModel.NODE_MAXDEG,
            limit,
            f"K{a}{b}-nodes",
        )
    cycle6 = make_cycle(6)
    checks += check_bipartite_props(
        cycle6,
        singleton_partition(cycle6, PartitionKind.NODES),
        UtilityModel.NODE_MAXDEG,
        limit,
        "cycle-6-nodes",
    )

    for n_odd in (3, 5, 7):
        checks.append(check_nonbipartite_node_bound(make_cycle(n_odd), limit, f"cycle-{n_odd}"))
    c5 = make_cycle(5)
    checks += check_dfmp_node_bounds(
        c5, singleton_partition(c5, PartitionKind.NODES), limit, "cycle-5-nodes"
    )

    checks += check_gap_table(PartitionKind.EDGES, limit)
    checks += check_gap_table(PartitionKind.NODES, limit)
    return checks


def random_suite(
    seed: int, count: int = 200, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[BoundCheck]:
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
        checks += check_chain(inst.graph, inst.model, inst.partition, limit, f"{inst.label}#{i}")
    return checks
