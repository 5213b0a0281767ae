"""Deterministic generators for the graph families and worked instances the
claim checkers and experiments run on.

All generators emit dense 0-based vertex ids.  Where a family has a known
closed-form objective value, the instance carries it as an expected value
with a note saying how it was derived; the test suite re-verifies every
expected value against the exact solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .errors import GeneratorParameterError
from .graphs import (
    Cut,
    Graph,
    GroupPartition,
    PartitionKind,
    edge_groups,
    max_degree,
    node_groups,
)
from .heuristics import UnitVectorEmbedding, derive_rng
from .utility import UtilityModel

_STREAM_PARTITION = 0x706172
_STREAM_INSTANCE = 0x696E7374


@dataclass(frozen=True)
class ExpectedValue:
    objective: str
    value: Fraction
    note: str


@dataclass(frozen=True)
class NamedInstance:
    graph: Graph
    partition: GroupPartition
    model: UtilityModel
    label: str
    expected: tuple[ExpectedValue, ...] = field(default_factory=tuple)

    def expected_map(self) -> dict[str, Fraction]:
        return {e.objective: e.value for e in self.expected}


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise GeneratorParameterError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GeneratorParameterError("complete bipartite graph needs a, b >= 1")
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(a + b, edges)


def make_clique_with_tail(k: int, n: int) -> NamedInstance:
    """K_{2k} on vertices 0..2k-1 with a path of n-2k extra vertices hanging
    off vertex 2k-1.  Edge groups: clique edges and (when present) tail edges.

    The utilitarian optimum splits the clique evenly and cuts the whole tail,
    while the worst-off group is pinned by the clique, so the dynamic-fair
    value stays at k/(2k-1) however long the tail grows."""
    if k < 1 or n < 2 * k:
        raise GeneratorParameterError("clique-with-tail needs n >= 2k >= 2")
    clique_edges = list(combinations(range(2 * k), 2))
    tail_edges = [(v, v + 1) for v in range(2 * k - 1, n - 1)]
    g = Graph(n, tuple(clique_edges + tail_edges))
    clique_count = comb(2 * k, 2)
    groups = [frozenset(range(clique_count))]
    if tail_edges:
        groups.append(frozenset(range(clique_count, clique_count + len(tail_edges))))
    partition = edge_groups(g, groups)
    mp = Fraction(k * k + n - 2 * k, clique_count + n - 2 * k)
    expected = (
        ExpectedValue("MP", mp, "closed form (k^2 + n - 2k) / (C(2k,2) + n - 2k)"),
        ExpectedValue("DF-MP", Fraction(k, 2 * k - 1), "closed form k/(2k-1)"),
    )
    return NamedInstance(g, partition, UtilityModel.EDGE, f"clique-tail-k{k}-n{n}", expected)


def make_cycle_plus_biclique(k: int, r: int) -> NamedInstance:
    """A 2k-cycle bridged by one edge to a complete bipartite K_{r,r}.

    Vertices 0..2k-1 form the cycle, the next r the left side, the last r the
    right side; the bridge joins the last cycle vertex to the first left-side
    vertex (the side vertices are interchangeable, so the attachment choice
    does not affect any objective).  Node groups: cycle vertices vs. the rest,
    under the max-degree model.  Every block is even, so the whole graph is
    bipartite and the max cut uses all edges."""
    if k < 2 or r < 1:
        raise GeneratorParameterError("cycle-plus-biclique needs k >= 2 and r >= 1")
    cycle_edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    left = range(2 * k, 2 * k + r)
    right = range(2 * k + r, 2 * k + 2 * r)
    bridge = (2 * k - 1, 2 * k)
    biclique_edges = [(l, rr) for l in left for rr in right]
    g = Graph(2 * k + 2 * r, tuple(cycle_edges + [bridge] + biclique_edges))
    partition = node_groups(
        g, [frozenset(range(2 * k)), frozenset(range(2 * k, 2 * k + 2 * r))]
    )
    edge_count = g.edge_count
    mp = Fraction(2 * edge_count, g.vertex_count * max_degree(g))
    expected = (
        ExpectedValue("MP", mp, "bipartite, so max cut = |E|; MP = 2|E| / (n * max degree)"),
    )
    return NamedInstance(
        g, partition, UtilityModel.NODE_MAXDEG, f"cycle-biclique-k{k}-r{r}", expected
    )


def make_odd_cycle_instance(n: int, kind: PartitionKind) -> NamedInstance:
    """An odd n-cycle with singleton groups: edges under the edge model, or
    vertices under the max-degree model.  Every cut leaves an edge uncut, so
    the static-fair proportion is 0 for edges and 1/2 for vertices."""
    if n < 3 or n % 2 == 0:
        raise GeneratorParameterError("needs an odd cycle length >= 3")
    g = make_cycle(n)
    edges = kind is PartitionKind.EDGES
    model = UtilityModel.EDGE if edges else UtilityModel.NODE_MAXDEG
    static = Fraction(0) if edges else Fraction(1, 2)
    expected = (ExpectedValue("SF-MP", static, "every cut leaves some edge uncut"),)
    label = f"cycle-{n}-{kind.value}"
    return NamedInstance(g, singleton_partition(g, kind), model, label, expected)


def make_diamond_instance() -> NamedInstance:
    """The diamond (4-cycle 0-1-3-2 plus chord (0,3)) with the four square
    edges in one group and the chord alone in the other.

    The smallest instance where the dynamic-fair optimum (2/3) stays strictly
    below the utilitarian proportion of every admissible edge-group subgraph
    (which bottoms out at 4/5)."""
    g = Graph(4, ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3)))
    partition = edge_groups(g, [frozenset({0, 1, 2, 3}), frozenset({4})])
    expected = (
        ExpectedValue("MP", Fraction(4, 5), "max cut 4 of 5 edges"),
        ExpectedValue("SF-MP", Fraction(1, 2), "worked-example cut table"),
        ExpectedValue("DF-MP", Fraction(2, 3), "worked-example lottery: 2/3 on {3}, 1/3 on {1,2}"),
    )
    return NamedInstance(g, partition, UtilityModel.EDGE, "diamond", expected)


def make_diamond_embedding() -> UnitVectorEmbedding:
    """Rank-1 antipodal embedding of the diamond that is optimal for the cut
    relaxation yet places both chord endpoints on the same axis direction, so
    hyperplane rounding never cuts the chord group."""
    vectors = np.zeros((4, 4))
    vectors[0, 3] = 1.0
    vectors[1, 3] = -1.0
    vectors[2, 3] = -1.0
    vectors[3, 3] = 1.0
    return UnitVectorEmbedding(vectors)


def make_paw_instance() -> NamedInstance:
    """The paw (triangle 0-1-2 plus pendant edge (0,3)) with singleton edge
    groups.  The triangle forces the static-fair value to 0 while a lottery
    over cuts recovers 2/3 for every edge."""
    g = Graph(4, ((0, 1), (1, 2), (0, 2), (0, 3)))
    partition = edge_groups(g, [frozenset({i}) for i in range(4)])
    expected = (
        ExpectedValue("MP", Fraction(3, 4), "max cut 3 of 4 edges"),
        ExpectedValue("SF-MP", Fraction(0), "triangle is not bipartite, singleton groups"),
        ExpectedValue("DF-MP", Fraction(2, 3), "worked-example lottery value"),
    )
    return NamedInstance(g, partition, UtilityModel.EDGE, "paw", expected)


def singleton_partition(g: Graph, kind: PartitionKind) -> GroupPartition:
    """One group per edge (or per vertex)."""
    if kind is PartitionKind.EDGES:
        if g.edge_count == 0:
            raise GeneratorParameterError("cannot partition an empty edge set")
        return edge_groups(g, [frozenset({i}) for i in range(g.edge_count)])
    if g.vertex_count == 0:
        raise GeneratorParameterError("cannot partition an empty vertex set")
    return node_groups(g, [frozenset({v}) for v in range(g.vertex_count)])


def random_partition(g: Graph, kind: PartitionKind, gamma: int, seed: int) -> GroupPartition:
    """Uniformly random partition into gamma non-empty groups, reproducible
    from the seed: one anchor element per group, the rest assigned uniformly."""
    ground = g.edge_count if kind is PartitionKind.EDGES else g.vertex_count
    if not 1 <= gamma <= ground:
        raise GeneratorParameterError(
            f"gamma={gamma} impossible for ground set of size {ground}"
        )
    rng = derive_rng(seed, _STREAM_PARTITION)
    order = rng.permutation(ground)
    groups: list[set[int]] = [ {int(order[i])} for i in range(gamma) ]
    for element in order[gamma:]:
        groups[int(rng.integers(0, gamma))].add(int(element))
    builder = edge_groups if kind is PartitionKind.EDGES else node_groups
    return builder(g, [frozenset(gr) for gr in groups])


def random_instance(
    n: int,
    edge_prob: float,
    gamma: int,
    kind: PartitionKind,
    seed: int,
    model: UtilityModel | None = None,
) -> NamedInstance:
    """Erdos-Renyi style graph with a random gamma-group partition, regenerated
    (up to 100 attempts) until the ground set can host gamma non-empty groups
    and node models have at least one edge."""
    if n < 1 or not 0.0 <= edge_prob <= 1.0 or gamma < 1:
        raise GeneratorParameterError("need n >= 1, 0 <= edge_prob <= 1, gamma >= 1")
    if model is None:
        model = UtilityModel.EDGE if kind is PartitionKind.EDGES else UtilityModel.NODE_MAXDEG
    if model.partition_kind is not kind:
        raise GeneratorParameterError(f"model {model.value} cannot pair with {kind.value}")
    for attempt in range(100):
        rng = derive_rng(seed, _STREAM_INSTANCE + attempt)
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
        )
        g = Graph(n, edges)
        ground = g.edge_count if kind is PartitionKind.EDGES else g.vertex_count
        if ground < gamma:
            continue
        if model.is_node_model and g.edge_count == 0:
            continue
        partition = random_partition(g, kind, gamma, int(rng.integers(0, 2**63)))
        label = f"random-n{n}-p{edge_prob}-g{gamma}-{kind.value}-s{seed}"
        return NamedInstance(g, partition, model, label)
    raise GeneratorParameterError(
        f"could not generate a graph with a ground set of size >= {gamma} in 100 attempts"
    )


def one_left_out_cycle_distribution(n_odd: int) -> tuple[Graph, list[tuple[Cut, Fraction]]]:
    """For an odd cycle, the uniform lottery over the maximum cuts that each
    miss exactly one chosen edge.  Every edge survives in all but one support
    cut and every vertex keeps both edges in all but two, which pins the
    classic lottery's group expectations exactly."""
    g = make_odd_cycle_instance(n_odd, PartitionKind.EDGES).graph
    prob = Fraction(1, n_odd)
    pairs = []
    for left_out in range(n_odd):
        # two-color the path obtained by removing edge (left_out, left_out+1)
        members = set()
        start = (left_out + 1) % n_odd
        for pos in range(n_odd):
            if pos % 2 == 1:
                members.add((start + pos) % n_odd)
        pairs.append((Cut(frozenset(members)), prob))
    return g, pairs
