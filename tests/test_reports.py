"""Report format: lossless round trip of all exact values."""

from fractions import Fraction

import pytest

from fairmaxcut.errors import InstanceParseError
from fairmaxcut.families import make_paw_instance
from fairmaxcut.graphs import Cut
from fairmaxcut.reports import (
    ReportBuilder,
    format_probability,
    parse_cut_token,
    parse_report,
)
from fairmaxcut.verify import make_check, skipped_check


def test_cut_tokens():
    assert str(Cut.of({2, 0})) == "{0,2}"
    assert str(Cut.of(set())) == "{}"
    assert parse_cut_token("{0,2}", 1) == Cut.of({0, 2})
    assert parse_cut_token("{}", 1) == Cut.of(set())


def test_probability_formatting():
    assert format_probability(0.0) == "0"
    assert format_probability(1.0) == "1"
    assert format_probability(0.5) == "0.5"


def test_round_trip_preserves_rationals():
    builder = ReportBuilder("solve", include_timestamp=False)
    builder.add_field("mode", "both")
    builder.add_instance(make_paw_instance())
    builder.add_objective("MP", Fraction(3, 4))
    builder.add_objective("DF-MP", Fraction(2, 3))
    builder.add_witness("MP", Cut.of({1, 3}))
    builder.add_support("DF-MP", Cut.of({3}), Fraction(2, 3))
    builder.add_support("DF-MP", Cut.of({1, 2}), Fraction(1, 3))
    builder.add_dual("DF-MP", 0, Fraction(1, 6))
    builder.add_check(make_check("chain-proportion-static-dynamic", "paw", Fraction(0), "<=", Fraction(2, 3)))
    builder.add_check(skipped_check("triangle-group-bound", "no group"))
    builder.add_summary(True)
    text = builder.render()

    report = parse_report(text)
    assert report.command == "solve"
    assert report.fields["mode"] == "both"
    assert report.objectives == {"MP": Fraction(3, 4), "DF-MP": Fraction(2, 3)}
    assert report.witnesses["MP"] == Cut.of({1, 3})
    assert report.supports["DF-MP"] == [
        (Cut.of({3}), Fraction(2, 3)),
        (Cut.of({1, 2}), Fraction(1, 3)),
    ]
    assert report.duals["DF-MP"] == [(0, Fraction(1, 6))]
    assert report.instance is not None
    assert report.instance.graph == make_paw_instance().graph
    assert len(report.checks) == 2
    assert report.checks[0].lhs == 0 and report.checks[0].rhs == Fraction(2, 3)
    assert report.checks[1].skipped
    assert report.summary == "pass"


def test_render_without_timestamp_is_stable():
    def build():
        b = ReportBuilder("verify", include_timestamp=False)
        b.add_field("suite", "curated")
        b.add_summary(True)
        return b.render(elapsed_ms=123)

    assert build() == build()
    assert "timestamp" not in build()
    assert "elapsed" not in build()


def test_reproduce_rows_parse():
    builder = ReportBuilder("reproduce", include_timestamp=False)
    builder.add_row("paw/best-proportion", "==", "3/4", "3/4", True)
    builder.add_row("x/y", ">=", "1/2", "1/3", False)
    builder.add_summary(False)
    report = parse_report(builder.render())
    assert report.rows[0].key == "paw/best-proportion"
    assert report.rows[0].verdict == "pass"
    assert report.rows[1].verdict == "fail"
    assert report.summary == "fail"


@pytest.mark.parametrize(
    "line, message",
    [
        ("objective MV", "too few fields"),
        ("objective MV x", "not a valid fraction"),
        ("objective MV 1/0", "not a valid fraction"),
        ("witness MV", "too few fields"),
        ("witness MV {-1}", "bad cut token '{-1}': negative member"),
        ("support DF-MP {-1} 1", "bad cut token '{-1}': negative member"),
        ("support DF-MP {1}", "too few fields"),
        ("dual DF-MV 0", "too few fields"),
        ("dual DF-MV x 1/2", "dual index must be an integer"),
        ("check chain <= 1 1", "too few fields"),
        ("check chain <= 1 1/2, pass", "not a valid fraction"),
        ("check chain in 1/2 1/2,1 pass", "not a valid fraction"),
        ("reproduce paw/mp == 3/4", "too few fields"),
        ("summary", "too few fields"),
        ("objective MV 1e10000000", "exponent notation"),
        ("check x <= 1 2 maybe", "unknown verdict 'maybe'"),
        ("check x =< 1 2 pass", "unknown relation '=<'"),
        ("reproduce k == 1 1 whatever", "unknown verdict 'whatever'"),
        ("reproduce k == 1 1 skip", "unknown verdict 'skip'"),
        ("reproduce k ~ 1 1 pass", "unknown relation '~'"),
        ("summary maybe", "unknown summary 'maybe'"),
    ],
)
def test_malformed_lines_name_their_line(line, message):
    text = "fairmaxcut report v1\ncommand solve\n" + line + "\n"
    with pytest.raises(InstanceParseError, match=message) as info:
        parse_report(text)
    assert info.value.line == 3


def test_instance_block_errors_name_the_report_line():
    text = (
        "fairmaxcut report v1\ncommand solve\ninstance-begin\n"
        "fairmaxcut instance v1\nlabel x\nvertices x\ninstance-end\n"
    )
    with pytest.raises(InstanceParseError, match="vertex count must be an integer") as info:
        parse_report(text)
    assert (info.value.line, info.value.column) == (6, 10)
    assert str(info.value).startswith("line 6, column 10:")
