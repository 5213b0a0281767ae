"""Parser fuzzing: any text parses to a value or raises InstanceParseError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fairmaxcut.errors import InstanceParseError
from fairmaxcut.instances import EMBEDDING_HEADER, HEADER, parse_embedding, parse_instance
from fairmaxcut.reports import HEADER as REPORT_HEADER
from fairmaxcut.reports import parse_report

KEYWORDS = [
    # instances
    "label", "vertices", "edge", "model", "partition", "group", "expected",
    "edge", "node-maxdeg", "node-owndeg", "edges", "nodes", "MV", "MP", "SF-MP", "DF-MV",
    # embeddings
    "dimension", "vector",
    # reports
    "command", "objective", "witness", "support", "dual", "check", "reproduce", "note",
    "summary", "tool", "mode", "seed", "instance-begin", "instance-end", HEADER,
]
VALUES = [
    "0", "1", "2", "3", "-1", "1/2", "1/0", "0.5", "1.0", "nan", "inf", "-0.0", "1e3",
    "99999999999", "{}", "{0}", "{0,1}", "{,}", "{x}", "<=", "==", "in", "pass", "fail", "skip",
    "1/2,1/3", ",",
]
tokens = st.one_of(st.sampled_from(KEYWORDS + VALUES), st.text(max_size=4))
# mostly a keyword followed by a few tokens, so that lines reach the field parsing
lines = st.one_of(
    st.tuples(st.sampled_from(KEYWORDS), st.lists(tokens, max_size=5)).map(
        lambda parts: " ".join([parts[0], *parts[1]])
    ),
    st.lists(tokens, max_size=6).map(" ".join),
)


def documents(header: str):
    """A header (usually the right one) followed by lines of plausible tokens."""
    first = st.sampled_from([header, header, header, "", "#", "junk"])
    return st.tuples(first, st.lists(lines, max_size=14)).map(
        lambda parts: "\n".join([parts[0], *parts[1]]) + "\n"
    )


def parses_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except InstanceParseError:
        pass


@given(st.one_of(documents(HEADER), st.text()))
@settings(max_examples=150, deadline=None)
def test_parse_instance_fuzz(text):
    parses_or_raises_parse_error(parse_instance, text)


@given(st.one_of(documents(EMBEDDING_HEADER), st.text()))
@settings(max_examples=150, deadline=None)
def test_parse_embedding_fuzz(text):
    parses_or_raises_parse_error(parse_embedding, text)


@given(st.one_of(documents(REPORT_HEADER), st.text()))
@settings(max_examples=150, deadline=None)
def test_parse_report_fuzz(text):
    parses_or_raises_parse_error(parse_report, text)
