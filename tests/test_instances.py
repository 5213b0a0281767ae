"""Instance and embedding file formats: round trips and diagnostics."""

import numpy as np
import pytest

from fairmaxcut.errors import InstanceParseError
from fairmaxcut.families import (
    make_clique_with_tail,
    make_cycle_plus_biclique,
    make_diamond_embedding,
    make_diamond_instance,
    make_paw_instance,
    random_instance,
)
from fairmaxcut.graphs import PartitionKind
from fairmaxcut.instances import (
    MAX_VERTICES,
    parse_embedding,
    parse_instance,
    serialize_embedding,
    serialize_instance,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "inst",
        [
            make_paw_instance(),
            make_diamond_instance(),
            make_clique_with_tail(2, 10),
            make_cycle_plus_biclique(2, 3),
            random_instance(7, 0.5, 3, PartitionKind.NODES, seed=5),
        ],
        ids=lambda i: i.label,
    )
    def test_serialize_parse_identity(self, inst):
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert back.graph == inst.graph
        assert back.partition == inst.partition
        assert back.model == inst.model
        assert back.label == inst.label
        assert back.expected_map() == inst.expected_map()
        assert serialize_instance(back) == text

    def test_comments_and_blank_lines_ignored(self):
        text = serialize_instance(make_paw_instance())
        lines = text.split("\n")
        lines.insert(3, "# a comment")
        lines.insert(1, "")
        assert parse_instance("\n".join(lines)).graph == make_paw_instance().graph


class TestDiagnostics:
    def _expect_error(self, text, match, line=None):
        with pytest.raises(InstanceParseError, match=match) as info:
            parse_instance(text)
        if line is not None:
            assert info.value.line == line

    def test_missing_header(self):
        self._expect_error("vertices 3\n", "first line", line=1)

    def test_empty_group_names_it(self):
        text = (
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\n"
            "model edge\npartition edges\ngroup 0\ngroup\n"
        )
        self._expect_error(text, "group 1 is empty", line=7)

    def test_out_of_range_group_member(self):
        text = (
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\n"
            "model edge\npartition edges\ngroup 0 3\n"
        )
        self._expect_error(text, "out of range", line=6)

    def test_bad_endpoint_reports_column(self):
        text = "fairmaxcut instance v1\nvertices 2\nedge 0 5\n"
        with pytest.raises(InstanceParseError) as info:
            parse_instance(text)
        assert info.value.line == 3
        assert info.value.column == 8

    def test_self_loop(self):
        self._expect_error("fairmaxcut instance v1\nvertices 2\nedge 1 1\n", "self-loop", line=3)

    def test_duplicate_edge(self):
        text = "fairmaxcut instance v1\nvertices 2\nedge 0 1\nedge 1 0\n"
        self._expect_error(text, "duplicate", line=4)

    def test_unknown_keyword(self):
        self._expect_error("fairmaxcut instance v1\nvertex 3\n", "unknown keyword", line=2)

    def test_duplicate_vertices_line(self):
        text = "fairmaxcut instance v1\nvertices 4\nedge 0 3\nvertices 2\n"
        self._expect_error(text, "duplicate vertices", line=4)

    def test_unknown_model(self):
        self._expect_error(
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\nmodel funky\n", "unknown utility model"
        )

    def test_overlapping_groups(self):
        text = (
            "fairmaxcut instance v1\nvertices 3\nedge 0 1\nedge 1 2\n"
            "model edge\npartition edges\ngroup 0 1\ngroup 1\n"
        )
        self._expect_error(text, "overlap")

    def test_missing_sections(self):
        self._expect_error("fairmaxcut instance v1\nvertices 2\n", "missing model")

    def test_bad_fraction(self):
        text = (
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\n"
            "model edge\npartition edges\ngroup 0\nexpected MP 1/0\n"
        )
        self._expect_error(text, "not a valid fraction", line=7)

    def test_exponent_fraction_refused(self):
        # Fraction would expand the exponent, taking seconds for this one token
        text = (
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\n"
            "model edge\npartition edges\ngroup 0\nexpected MP 1e10000000\n"
        )
        self._expect_error(text, "exponent notation", line=7)

    def test_vertex_count_above_limit_refused(self):
        text = f"fairmaxcut instance v1\nvertices {MAX_VERTICES + 1}\n"
        self._expect_error(text, "exceeds the limit", line=2)
        at_limit = (
            f"fairmaxcut instance v1\nvertices {MAX_VERTICES}\nedge 0 1\n"
            "model edge\npartition edges\ngroup 0\n"
        )
        assert parse_instance(at_limit).graph.vertex_count == MAX_VERTICES

    def test_mismatched_kind_parses_fine(self):
        # kind/model compatibility is a solve-time error (exit 4), not a parse error
        text = (
            "fairmaxcut instance v1\nvertices 2\nedge 0 1\n"
            "model edge\npartition nodes\ngroup 0\ngroup 1\n"
        )
        inst = parse_instance(text)
        assert inst.partition.kind is PartitionKind.NODES


class TestEmbeddingFormat:
    def test_round_trip(self):
        emb = make_diamond_embedding()
        back = parse_embedding(serialize_embedding(emb))
        assert np.array_equal(back.vectors, emb.vectors)

    def test_dimension_mismatch(self):
        text = "fairmaxcut embedding v1\ndimension 2\nvector 0 1.0\n"
        with pytest.raises(InstanceParseError, match="components"):
            parse_embedding(text)

    def test_missing_vertex(self):
        text = "fairmaxcut embedding v1\ndimension 1\nvector 1 1.0\n"
        with pytest.raises(InstanceParseError, match="cover"):
            parse_embedding(text)

    def test_non_unit_vector_rejected(self):
        text = "fairmaxcut embedding v1\ndimension 2\nvector 0 0.5 0.5\n"
        with pytest.raises(ValueError, match="unit norm"):
            parse_embedding(text)

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("dimension\n", 2, "dimension takes one integer"),
            ("dimension 1 2\n", 2, "dimension takes one integer"),
            ("dimension 0\nvector 0\n", 2, "at least 1"),
            ("dimension 1\nvector\n", 3, "vector takes a vertex id"),
            ("dimension 1\ndimension 1\n", 3, "duplicate dimension"),
            ("dimension 2\nvector 0 1.0 0.0\nvector 1 0.5 0.5\n", 4, "unit norm"),
            ("dimension 1\nvector 0 nan\n", 3, "unit norm"),
            ("dimension 1\nvector 0 1.0\nvector 99999999999 1.0\n", 4, "cover"),
            ("dimension 1\nvector 0 1.0\nvector 1 1.0\nvector 0 -1.0\n", 5, "duplicate vector 0"),
        ],
    )
    def test_malformed_lines_name_their_line(self, body, line, message):
        with pytest.raises(InstanceParseError, match=message) as info:
            parse_embedding("fairmaxcut embedding v1\n" + body)
        assert info.value.line == line
