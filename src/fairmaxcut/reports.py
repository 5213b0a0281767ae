"""Line-oriented report format: the structured, diffable output of every CLI
command.  Reports round-trip losslessly: every rational value is serialized
as an exact reduced fraction and parses back to the same Fraction.

With timestamps suppressed, rendering the same computation twice yields
byte-identical text, which the golden tests rely on.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InstanceParseError
from .families import NamedInstance
from .graphs import Cut
from .instances import _parse_fraction, _parse_int, parse_instance, serialize_instance
from .verify import BoundCheck

HEADER = "fairmaxcut report v1"
TOOL_VERSION = "0.1.0"


def parse_cut_token(token: str, lineno: int) -> Cut:
    if not (token.startswith("{") and token.endswith("}")):
        raise InstanceParseError(f"bad cut token {token!r}", lineno)
    inner = token[1:-1]
    if not inner:
        return Cut(frozenset())
    try:
        return Cut(frozenset(int(t) for t in inner.split(",")))
    except ValueError:
        raise InstanceParseError(f"bad cut token {token!r}", lineno)


def format_probability(x: float) -> str:
    """Analytic hyperplane probabilities are irrational in general and stay
    floats; the exact endpoints print as plain 0 and 1."""
    if x == 0.0:
        return "0"
    if x == 1.0:
        return "1"
    return repr(x)


class ReportBuilder:
    def __init__(self, command: str, include_timestamp: bool = True):
        self.command = command
        self.include_timestamp = include_timestamp
        self.fields: list[tuple[str, str]] = []
        self.body: list[str] = []

    def add_field(self, key: str, value) -> None:
        self.fields.append((key, str(value)))

    def add_instance(self, inst: NamedInstance) -> None:
        self.body.append("instance-begin")
        self.body.extend(serialize_instance(inst).rstrip("\n").split("\n"))
        self.body.append("instance-end")

    def add_note(self, text: str) -> None:
        self.body.append(f"note {text}")

    def add_objective(self, name: str, value: Fraction) -> None:
        self.body.append(f"objective {name} {value}")

    def add_witness(self, name: str, cut: Cut) -> None:
        self.body.append(f"witness {name} {cut}")

    def add_support(self, name: str, cut: Cut, probability: Fraction) -> None:
        self.body.append(f"support {name} {cut} {probability}")

    def add_dual(self, name: str, index: int, weight: Fraction) -> None:
        self.body.append(f"dual {name} {index} {weight}")

    def add_check(self, check: BoundCheck) -> None:
        context = f" {check.context}" if check.context else ""
        self.body.append(
            f"check {check.claim} {check.relation} {check.lhs} {check.rhs} {check.verdict}{context}"
        )

    def add_row(self, key: str, relation: str, expected: str, computed: str, passed: bool) -> None:
        verdict = "pass" if passed else "fail"
        self.body.append(f"reproduce {key} {relation} {expected} {computed} {verdict}")

    def add_line(self, line: str) -> None:
        self.body.append(line)

    def add_summary(self, passed: bool) -> None:
        self.body.append(f"summary {'pass' if passed else 'fail'}")

    def render(self, elapsed_ms: int | None = None) -> str:
        lines = [HEADER, f"tool fairmaxcut {TOOL_VERSION}", f"command {self.command}"]
        if self.include_timestamp:
            stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            lines.append(f"timestamp {stamp}")
            if elapsed_ms is not None:
                lines.append(f"elapsed-ms {elapsed_ms}")
        for key, value in self.fields:
            lines.append(f"{key} {value}")
        lines.extend(self.body)
        return "\n".join(lines) + "\n"


@dataclass
class ParsedReport:
    command: str = ""
    fields: dict = field(default_factory=dict)
    instance: NamedInstance | None = None
    objectives: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    supports: dict = field(default_factory=dict)
    duals: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    other: list = field(default_factory=list)
    summary: str = ""


@dataclass(frozen=True)
class ReproduceRow:
    key: str
    relation: str
    expected: str
    computed: str
    verdict: str


# fields each tag needs after the tag itself
_FIELD_COUNTS = {
    "objective": 2, "witness": 2, "support": 3, "dual": 3, "check": 5, "reproduce": 5, "summary": 1,
}


def parse_report(text: str) -> ParsedReport:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise InstanceParseError(f"first line must be {HEADER!r}", 1)
    report = ParsedReport()
    i = 1
    while i < len(lines):
        lineno = i + 1
        raw = lines[i]
        i += 1
        if not raw.strip():
            continue
        tokens = raw.split()
        tag = tokens[0]
        if len(tokens) <= _FIELD_COUNTS.get(tag, 0):
            needed = _FIELD_COUNTS[tag]
            raise InstanceParseError(f"{tag} line has too few fields (needs {needed})", lineno)

        def fraction(token: str) -> Fraction:
            return _parse_fraction(token, raw, lineno)

        if tag == "instance-begin":
            block = []
            while i < len(lines) and lines[i].strip() != "instance-end":
                block.append(lines[i])
                i += 1
            if i == len(lines):
                raise InstanceParseError("unterminated instance block", lineno)
            i += 1
            try:
                report.instance = parse_instance("\n".join(block) + "\n")
            except InstanceParseError as exc:
                # block line k is report line lineno + k
                raise InstanceParseError(exc.message, lineno + exc.line, exc.column) from None
        elif tag == "command":
            report.command = " ".join(tokens[1:])
        elif tag == "objective":
            report.objectives[tokens[1]] = fraction(tokens[2])
        elif tag == "witness":
            report.witnesses[tokens[1]] = parse_cut_token(tokens[2], lineno)
        elif tag == "support":
            report.supports.setdefault(tokens[1], []).append(
                (parse_cut_token(tokens[2], lineno), fraction(tokens[3]))
            )
        elif tag == "dual":
            index = _parse_int(tokens[2], raw, lineno, "dual index")
            report.duals.setdefault(tokens[1], []).append((index, fraction(tokens[3])))
        elif tag == "check":
            claim, relation, lhs_text, rhs_text, verdict = tokens[1:6]
            context = " ".join(tokens[6:])
            report.checks.append(
                BoundCheck(
                    claim=claim,
                    context=context,
                    relation=relation,
                    lhs=fraction(lhs_text),
                    rhs=fraction(rhs_text),
                    passed=(verdict != "fail"),
                    skipped=(verdict == "skip"),
                )
            )
        elif tag == "reproduce":
            report.rows.append(
                ReproduceRow(tokens[1], tokens[2], tokens[3], tokens[4], tokens[5])
            )
        elif tag == "note":
            report.notes.append(" ".join(tokens[1:]))
        elif tag == "summary":
            report.summary = tokens[1]
        elif tag in ("tool", "timestamp", "elapsed-ms", "seed", "mode", "limit", "trials",
                     "samples", "algorithm", "suite", "count"):
            report.fields[tag] = " ".join(tokens[1:])
        else:
            report.other.append(raw)
    return report
