"""Line-oriented instance file format.

A versioned header line, then one keyword per line:

    fairmaxcut instance v1
    label paw
    vertices 4
    edge 0 1
    edge 1 2
    edge 0 2
    edge 0 3
    model edge
    partition edges
    group 0
    group 1
    group 2
    group 3
    expected MP 3/4 max cut 3 of 4 edges

Blank lines and lines starting with '#' are ignored.  Group lines hold edge
indices (edge partitions) or vertex ids (node partitions).  Expected lines
carry an objective name, an exact fraction, and an optional free-text note.
Parse failures raise InstanceParseError with a line/column diagnostic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InstanceParseError
from .families import ExpectedValue, NamedInstance
from .graphs import Graph, GroupPartition, PartitionKind
from .heuristics import UnitVectorEmbedding
from .utility import UtilityModel

HEADER = "fairmaxcut instance v1"

OBJECTIVE_NAMES = ("MV", "MP", "SF-MV", "SF-MP", "DF-MV", "DF-MP")

# largest vertex count a file may declare, checked before anything is sized
# by it; far above what exact solving (24) or the heuristics (n = 80) meet
MAX_VERTICES = 2**16


def _column_of(line: str, token: str) -> int:
    pos = line.find(token)
    return pos + 1 if pos >= 0 else 1


def _parse_int(token: str, line: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceParseError(f"{what} must be an integer, got {token!r}", lineno, _column_of(line, token))


def _parse_fraction(token: str, line: str, lineno: int) -> Fraction:
    # Fraction expands a decimal exponent digit by digit, so '1e10000000' alone
    # takes seconds; the serializer never writes exponents
    if "e" in token or "E" in token:
        raise InstanceParseError(
            f"exponent notation is not accepted in a fraction: {token!r}",
            lineno,
            _column_of(line, token),
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InstanceParseError(f"not a valid fraction: {token!r}", lineno, _column_of(line, token))


def parse_instance(text: str) -> NamedInstance:
    lines = text.splitlines()
    label = ""
    vertices: int | None = None
    edges: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    model: UtilityModel | None = None
    kind: PartitionKind | None = None
    groups: list[frozenset[int]] = []
    group_lines: list[int] = []
    expected: list[ExpectedValue] = []

    content = [
        (i + 1, line) for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#")
    ]
    if not content or content[0][1].strip() != HEADER:
        raise InstanceParseError(f"first line must be {HEADER!r}", 1)

    for lineno, raw in content[1:]:
        tokens = raw.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "label":
            label = " ".join(args)
        elif keyword == "vertices":
            if vertices is not None:
                raise InstanceParseError("duplicate vertices line", lineno)
            if len(args) != 1:
                raise InstanceParseError("vertices takes one integer", lineno)
            vertices = _parse_int(args[0], raw, lineno, "vertex count")
            if vertices < 0:
                raise InstanceParseError("vertex count must be non-negative", lineno)
            if vertices > MAX_VERTICES:
                raise InstanceParseError(
                    f"vertex count {vertices} exceeds the limit {MAX_VERTICES}",
                    lineno,
                    _column_of(raw, args[0]),
                )
        elif keyword == "edge":
            if vertices is None:
                raise InstanceParseError("edge before vertices line", lineno)
            if len(args) != 2:
                raise InstanceParseError("edge takes two endpoints", lineno)
            u = _parse_int(args[0], raw, lineno, "endpoint")
            v = _parse_int(args[1], raw, lineno, "endpoint")
            if u == v:
                raise InstanceParseError(f"self-loop at vertex {u}", lineno)
            for w in (u, v):
                if not 0 <= w < vertices:
                    raise InstanceParseError(
                        f"endpoint {w} out of range 0..{vertices - 1}", lineno, _column_of(raw, str(w))
                    )
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise InstanceParseError(f"duplicate edge ({u}, {v})", lineno)
            seen_pairs.add(pair)
            edges.append((u, v))
        elif keyword == "model":
            if model is not None:
                raise InstanceParseError("duplicate model line", lineno)
            if len(args) != 1:
                raise InstanceParseError("model takes one name", lineno)
            try:
                model = UtilityModel.parse(args[0])
            except ValueError as exc:
                raise InstanceParseError(str(exc), lineno, _column_of(raw, args[0]))
        elif keyword == "partition":
            if kind is not None:
                raise InstanceParseError("duplicate partition line", lineno)
            if len(args) != 1 or args[0] not in ("edges", "nodes"):
                raise InstanceParseError("partition must be 'edges' or 'nodes'", lineno)
            kind = PartitionKind(args[0])
        elif keyword == "group":
            if kind is None:
                raise InstanceParseError("group before partition line", lineno)
            if not args:
                raise InstanceParseError(f"group {len(groups)} is empty", lineno)
            members = frozenset(_parse_int(tok, raw, lineno, "group member") for tok in args)
            groups.append(members)
            group_lines.append(lineno)
        elif keyword == "expected":
            if len(args) < 2:
                raise InstanceParseError("expected takes an objective name and a fraction", lineno)
            if args[0] not in OBJECTIVE_NAMES:
                raise InstanceParseError(
                    f"unknown objective {args[0]!r}", lineno, _column_of(raw, args[0])
                )
            value = _parse_fraction(args[1], raw, lineno)
            expected.append(ExpectedValue(args[0], value, " ".join(args[2:])))
        else:
            raise InstanceParseError(f"unknown keyword {keyword!r}", lineno, _column_of(raw, keyword))

    last_line = content[-1][0]
    if vertices is None:
        raise InstanceParseError("missing vertices line", last_line)
    if model is None:
        raise InstanceParseError("missing model line", last_line)
    if kind is None:
        raise InstanceParseError("missing partition line", last_line)
    if not groups:
        raise InstanceParseError("missing group lines", last_line)

    graph = Graph(vertices, tuple(edges))
    ground = graph.edge_count if kind is PartitionKind.EDGES else graph.vertex_count
    for gi, (members, lineno) in enumerate(zip(groups, group_lines)):
        for idx in sorted(members):
            if not 0 <= idx < ground:
                what = "edge index" if kind is PartitionKind.EDGES else "vertex id"
                raise InstanceParseError(
                    f"group {gi}: {what} {idx} out of range 0..{ground - 1}", lineno
                )
    try:
        partition = GroupPartition(kind, tuple(groups), ground)
    except ValueError as exc:
        raise InstanceParseError(str(exc), group_lines[-1])
    return NamedInstance(graph, partition, model, label, tuple(expected))


def serialize_instance(inst: NamedInstance) -> str:
    lines = [HEADER]
    if inst.label:
        lines.append(f"label {inst.label}")
    lines.append(f"vertices {inst.graph.vertex_count}")
    for u, v in inst.graph.edges:
        lines.append(f"edge {u} {v}")
    lines.append(f"model {inst.model.value}")
    lines.append(f"partition {inst.partition.kind.value}")
    for gr in inst.partition.groups:
        lines.append("group " + " ".join(str(i) for i in sorted(gr)))
    for exp in inst.expected:
        suffix = f" {exp.note}" if exp.note else ""
        lines.append(f"expected {exp.objective} {exp.value}{suffix}")
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> NamedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: NamedInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))


# ---------------------------------------------------------------------------
# embeddings

EMBEDDING_HEADER = "fairmaxcut embedding v1"


def parse_embedding(text: str) -> UnitVectorEmbedding:
    """Unit-vector embedding file: header, 'dimension d', one 'vector v ...'
    line per vertex with d float components."""
    lines = [
        (i + 1, line)
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines or lines[0][1].strip() != EMBEDDING_HEADER:
        raise InstanceParseError(f"first line must be {EMBEDDING_HEADER!r}", 1)
    dimension: int | None = None
    rows: dict[int, tuple[int, list[float]]] = {}  # vertex -> (line, components)
    for lineno, raw in lines[1:]:
        keyword, *args = raw.split()
        if keyword == "dimension":
            if dimension is not None:
                raise InstanceParseError("duplicate dimension line", lineno)
            if len(args) != 1:
                raise InstanceParseError("dimension takes one integer", lineno)
            dimension = _parse_int(args[0], raw, lineno, "dimension")
            if dimension < 1:
                raise InstanceParseError("dimension must be at least 1", lineno)
        elif keyword == "vector":
            if dimension is None:
                raise InstanceParseError("vector before dimension line", lineno)
            if not args:
                raise InstanceParseError("vector takes a vertex id and its components", lineno)
            v = _parse_int(args[0], raw, lineno, "vertex id")
            if v in rows:
                raise InstanceParseError(f"duplicate vector {v}", lineno)
            comps = args[1:]
            if len(comps) != dimension:
                raise InstanceParseError(
                    f"vector {v} has {len(comps)} components, expected {dimension}", lineno
                )
            try:
                rows[v] = (lineno, [float(c) for c in comps])
            except ValueError:
                raise InstanceParseError(f"bad float in vector {v}", lineno)
        else:
            raise InstanceParseError(f"unknown keyword {keyword!r}", lineno)
    if dimension is None or not rows:
        raise InstanceParseError("embedding needs a dimension and vectors", lines[-1][0])
    # distinct ids cover 0..n-1 iff they are in range and there are n of them
    n = len(rows)
    if min(rows) < 0 or max(rows) != n - 1:
        raise InstanceParseError("vector lines must cover vertices 0..n-1", lines[-1][0])
    vectors = np.array([rows[v][1] for v in range(n)])
    for v, norm in enumerate(np.linalg.norm(vectors, axis=1)):
        if not abs(norm - 1.0) <= 1e-9:
            raise InstanceParseError(f"vector {v} must have unit norm (tolerance 1e-9)", rows[v][0])
    return UnitVectorEmbedding(vectors)


def serialize_embedding(embedding) -> str:
    lines = [EMBEDDING_HEADER, f"dimension {embedding.dimension}"]
    for v in range(embedding.vertex_count):
        comps = " ".join(repr(float(c)) for c in embedding.vectors[v])
        lines.append(f"vector {v} {comps}")
    return "\n".join(lines) + "\n"
