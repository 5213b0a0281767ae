"""Immutable graph, cut, and group-partition types.

Vertices are dense 0-based integers.  Edges are unweighted, undirected,
stored in insertion order and addressed by index, so edge groups are sets
of edge indices.  A cut is a vertex subset S; an edge crosses the cut when
exactly one endpoint lies in S, which makes every quantity in this package
invariant under complementing S.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import AbstractSet, Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        seen = set()
        for idx, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"edge {idx} is a self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {idx} = ({u}, {v}) has an endpoint out of range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key} at index {idx}")
            seen.add(key)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's incident edge indices, ascending."""
        incident: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            incident[u].append(e)
            incident[v].append(e)
        return tuple(map(tuple, incident))

    @cached_property
    def endpoints(self) -> np.ndarray:
        """The edges as a read-only (edges, 2) array of vertex indices."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.vertex_count))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self.neighbors[v]) for v in range(self.vertex_count))


def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for edgeless graphs."""
    if g.vertex_count == 0:
        return 0
    return max(g.degrees)


@dataclass(frozen=True)
class Cut:
    """One side S of a cut (S, V \\ S).  The complement induces the same cut."""

    members: frozenset[int]

    def __post_init__(self):
        if type(self.members) is not frozenset:  # skip the copy for a frozenset
            object.__setattr__(self, "members", frozenset(self.members))

    @staticmethod
    def of(vertices: Iterable[int]) -> "Cut":
        return Cut(frozenset(vertices))

    @staticmethod
    def from_mask(mask: int) -> "Cut":
        if mask < 0:  # the loop below would never reach 0
            raise ValueError(f"cut mask must be non-negative, got {mask}")
        members = []
        while mask:  # peel off the lowest set bit
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        return Cut(frozenset(members))

    def mask(self) -> int:
        m = 0
        for v in self.members:
            m |= 1 << v
        return m

    def complement(self, vertex_count: int) -> "Cut":
        return Cut(frozenset(range(vertex_count)) - self.members)

    def validate_for(self, g: Graph) -> None:
        # one subset test (faster than min/max or a loop over the members);
        # the offending member is only searched for on failure
        if not self.members <= g.vertex_set:
            v = next(v for v in self.members if v not in g.vertex_set)
            raise ValueError(f"cut member {v} is not a vertex of the graph")

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in sorted(self.members)) + "}"


def cut_value(g: Graph, cut: Cut) -> int:
    """Number of edges with exactly one endpoint in the cut set."""
    cut.validate_for(g)
    members = cut.members
    return sum(1 for u, v in g.edges if (u in members) != (v in members))


def crossing_degree(g: Graph, members: AbstractSet[int], v: int) -> int:
    """Number of edges at v whose other endpoint is on the other side of the
    cut with member set ``members``."""
    inside = v in members
    return sum(1 for u in g.neighbors[v] if (u in members) != inside)


def is_bipartite(g: Graph) -> tuple[bool, Optional[Cut]]:
    """BFS two-coloring.  Returns (True, one color class) or (False, None)."""
    color: dict[int, int] = {}
    for start in range(g.vertex_count):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.neighbors[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, None
    side = frozenset(v for v, c in color.items() if c == 0)
    return True, Cut(side)


class PartitionKind(Enum):
    EDGES = "edges"
    NODES = "nodes"


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint, exhaustive split of the edge set or vertex set into non-empty groups."""

    kind: PartitionKind
    groups: tuple[frozenset[int], ...]
    ground_size: int

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(frozenset(gr) for gr in self.groups))
        if len(self.groups) < 1:
            raise ValueError("partition needs at least one group")
        union: set[int] = set()
        total = 0
        for i, gr in enumerate(self.groups):
            if not gr:
                raise ValueError(f"group {i} is empty")
            total += len(gr)
            union |= gr
        if total != len(union):
            raise ValueError("groups overlap")
        # disjoint groups cover 0..ground_size-1 iff their sizes sum to
        # ground_size and every member is in range; range() is never built
        if total != self.ground_size or min(union) < 0 or max(union) >= self.ground_size:
            raise ValueError(
                f"groups must cover exactly the ground set 0..{self.ground_size - 1}"
            )

    @property
    def group_count(self) -> int:
        return len(self.groups)


def edge_groups(g: Graph, groups: Iterable[Iterable[int]]) -> GroupPartition:
    return GroupPartition(PartitionKind.EDGES, tuple(frozenset(gr) for gr in groups), g.edge_count)


def node_groups(g: Graph, groups: Iterable[Iterable[int]]) -> GroupPartition:
    return GroupPartition(PartitionKind.NODES, tuple(frozenset(gr) for gr in groups), g.vertex_count)
