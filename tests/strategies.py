"""Shared hypothesis strategies: small graphs, cuts, partitions and payoff
matrices, also group-symmetric ones and those of random instances;
``prime_hubs``, a graph whose own-degree numerators pass any given bound;
and ``matrix_from_rows``, an ad-hoc payoff matrix for LP tests.  Every
payoff matrix here passes ``python_payoff.distinct_columns``: its columns
are pairwise distinct, as ``build_payoff_matrix`` makes them."""

from itertools import combinations

from hypothesis import strategies as st

from fairmaxcut.exact import PayoffMatrix, build_payoff_matrix
from fairmaxcut.families import random_instance
from fairmaxcut.graphs import Cut, Graph, GroupPartition, PartitionKind, node_groups
from fairmaxcut.utility import UtilityModel

from .python_payoff import distinct_columns


@st.composite
def graphs(draw, min_vertices=1, max_vertices=7, min_edges=0):
    if min_edges > 0:
        min_vertices = max(min_vertices, 2)
    n = draw(st.integers(min_vertices, max_vertices))
    possible = list(combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=min(min_edges, len(possible)))
        if possible
        else st.just([])
    )
    if len(edges) < min_edges and possible:
        extra = [e for e in possible if e not in set(edges)]
        edges = list(edges) + extra[: min_edges - len(edges)]
    return Graph(n, tuple(edges))


@st.composite
def cuts_for(draw, g: Graph):
    members = draw(st.sets(st.integers(0, g.vertex_count - 1)))
    return Cut(frozenset(members))


@st.composite
def graph_and_cut(draw, **kwargs):
    g = draw(graphs(**kwargs))
    return g, draw(cuts_for(g))


@st.composite
def partitions_for(draw, g: Graph, kind: PartitionKind):
    ground = g.edge_count if kind is PartitionKind.EDGES else g.vertex_count
    assert ground >= 1
    gamma = draw(st.integers(1, min(4, ground)))
    order = draw(st.permutations(range(ground)))
    groups = [set() for _ in range(gamma)]
    for i in range(gamma):
        groups[i].add(order[i])
    for element in order[gamma:]:
        groups[draw(st.integers(0, gamma - 1))].add(element)
    return GroupPartition(kind, tuple(frozenset(s) for s in groups), ground)


@st.composite
def edge_instances(draw, max_vertices=6):
    g = draw(graphs(min_vertices=2, max_vertices=max_vertices, min_edges=1))
    partition = draw(partitions_for(g, PartitionKind.EDGES))
    return g, partition


@st.composite
def node_instances(draw, max_vertices=6):
    g = draw(graphs(min_vertices=2, max_vertices=max_vertices, min_edges=1))
    partition = draw(partitions_for(g, PartitionKind.NODES))
    return g, partition


def prime_hubs(largest: int) -> tuple[Graph, GroupPartition]:
    """One hub per prime p <= largest, joined to p vertices of a shared pool
    of ``largest`` vertices; node groups: the hubs, and the pool.  The hubs'
    own-degree denominator is the product of the primes."""
    primes = [p for p in range(2, largest + 1) if all(p % q for q in range(2, p))]
    hubs = len(primes)
    edges = tuple((h, hubs + j) for h, p in enumerate(primes) for j in range(p))
    g = Graph(hubs + largest, edges)
    return g, node_groups(g, [frozenset(range(hubs)), frozenset(range(hubs, g.vertex_count))])


def matrix_from_rows(rows, group_sizes=None) -> PayoffMatrix:
    """Ad-hoc integer payoff matrix over dummy cuts for pure LP tests; every
    denominator is 1.  So is every group size unless given, and then both
    modes read the same entries."""
    k = len(rows[0])
    return distinct_columns(PayoffMatrix(
        entries=rows,
        dens=tuple(1 for _ in rows),
        group_sizes=group_sizes or tuple(1 for _ in rows),
        col_masks=[1 << (j + 1) for j in range(k)],
    ))


@st.composite
def certificate_matrices(draw):
    """Up to 5 groups and 30 distinct columns with entries 0-6, over group
    sizes 1-4 and denominators 1-3, so the denominators of both modes differ
    between groups."""
    gamma = draw(st.integers(1, 5))
    column = st.tuples(*[st.integers(0, 6)] * gamma)
    cols = draw(st.lists(column, min_size=1, max_size=30, unique=True))
    return distinct_columns(PayoffMatrix(
        entries=tuple(zip(*cols)),
        dens=draw(st.tuples(*[st.integers(1, 3)] * gamma)),
        group_sizes=draw(st.tuples(*[st.integers(1, 4)] * gamma)),
        col_masks=[1 << (j + 1) for j in range(len(cols))],
    ))


@st.composite
def cyclic_matrices(draw):
    """Group-symmetric payoff matrices: 2-5 groups of one size (1-4) and one
    denominator (1-3), and up to 4 drawn columns with entries 0-6 together
    with all their cyclic shifts of the rows.  Every row has the same sum,
    and averaging any optimal dual over the shifts shows that the uniform
    dual is optimal."""
    gamma = draw(st.integers(2, 5))
    bases = draw(st.lists(st.tuples(*[st.integers(0, 6)] * gamma), min_size=1, max_size=4))
    cols = list(dict.fromkeys(base[s:] + base[:s] for base in bases for s in range(gamma)))
    return distinct_columns(PayoffMatrix(
        entries=tuple(zip(*cols)),
        dens=(draw(st.integers(1, 3)),) * gamma,
        group_sizes=(draw(st.integers(1, 4)),) * gamma,
        col_masks=[1 << (j + 1) for j in range(len(cols))],
    ))


@st.composite
def random_matrices(draw):
    """The payoff matrix of a random instance: n <= 10, any model."""
    model = draw(st.sampled_from(list(UtilityModel)))
    n = draw(st.integers(2, 10))
    inst = random_instance(
        n,
        draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
        min(draw(st.integers(1, 4)), n - 1),
        model.partition_kind,
        draw(st.integers(0, 2**32 - 1)),
        model=model,
    )
    return distinct_columns(build_payoff_matrix(inst.graph, inst.model, inst.partition))
