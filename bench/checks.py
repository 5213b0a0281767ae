"""Output checks, run outside the timed region.

Two kinds of check apply to every op:

* value checks that hold for any correct answer: witness cuts and lottery
  supports are re-scored with the exact scorer below (written apart from the
  library's own evaluators), the static-fair and utilitarian sides of
  ``check_chain`` are recomputed by brute force, the ordering chain
  SF <= DF <= M holds, GW frequencies are recounted from the returned cuts,
  and so on;
* on the seed the reference file was recorded for, the exact ``Fraction``
  outputs that cannot legitimately change (objective values, ``check_chain``
  sides, naive-random means and variances) must equal the reference.

``check`` returns a list of failure messages; an empty list means the op's
output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fairmaxcut import heuristics, reports
from fairmaxcut.utility import UtilityModel

OBJECTIVES = ("MV", "MP", "SF-MV", "SF-MP", "DF-MV", "DF-MP")


# ---------------------------------------------------------------------------
# exact scorer


class Scorer:
    """Exact group utilities of one instance, from its edge list alone."""

    def __init__(self, inst):
        g = inst.graph
        self.edges = list(g.edges)
        self.n = g.vertex_count
        self.degree = [0] * self.n
        for u, v in self.edges:
            self.degree[u] += 1
            self.degree[v] += 1
        self.delta = max(self.degree, default=0)
        self.model = inst.model
        self.groups = [sorted(gr) for gr in inst.partition.groups]

    def utilities(self, members) -> list[Fraction]:
        members = set(members)
        crossing = [(u in members) != (v in members) for u, v in self.edges]
        if self.model is UtilityModel.EDGE:
            return [Fraction(sum(crossing[e] for e in gr)) for gr in self.groups]
        cross_deg = [0] * self.n
        for (u, v), c in zip(self.edges, crossing):
            if c:
                cross_deg[u] += 1
                cross_deg[v] += 1
        if self.model is UtilityModel.NODE_MAXDEG:
            return [Fraction(sum(cross_deg[v] for v in gr), self.delta) for gr in self.groups]
        return [
            sum((Fraction(cross_deg[v], self.degree[v]) for v in gr if self.degree[v]), Fraction(0))
            for gr in self.groups
        ]

    def proportions(self, members) -> list[Fraction]:
        return [u / len(gr) for u, gr in zip(self.utilities(members), self.groups)]

    def ground_size(self) -> int:
        return len(self.edges) if self.model is UtilityModel.EDGE else self.n

    def cut_value(self, members) -> int:
        members = set(members)
        return sum((u in members) != (v in members) for u, v in self.edges)

    def optima(self) -> tuple[Fraction, Fraction, Fraction]:
        """Brute force over the cuts that leave vertex 0 out: the best
        ground utility, the best worst-group utility and the best
        worst-group proportion."""
        best = sf_value = sf_proportion = Fraction(-1)
        for bits in range(1 << max(self.n - 1, 0)):
            members = [v + 1 for v in range(self.n - 1) if bits >> v & 1]
            utilities = self.utilities(members)
            best = max(best, sum(utilities))
            sf_value = max(sf_value, min(utilities))
            sf_proportion = max(
                sf_proportion, min(u / len(gr) for u, gr in zip(utilities, self.groups))
            )
        return best, sf_value, sf_proportion

    def expected(self, lottery, proportional: bool) -> list[Fraction]:
        score = self.proportions if proportional else self.utilities
        totals = [Fraction(0)] * len(self.groups)
        for members, prob in lottery:
            totals = [t + prob * s for t, s in zip(totals, score(members))]
        return totals


# ---------------------------------------------------------------------------
# reference records


def record(op, output):
    """The part of an op's output pinned by the reference file, as strings,
    or None when the op's answer may legitimately change."""
    if op.kind == "solve":
        parsed = reports.parse_report(output[1])
        return {name: str(parsed.objectives.get(name)) for name in OBJECTIVES}
    if op.kind == "verify":
        return [[c.claim, str(c.lhs), str(c.rhs)] for c in output]
    if op.kind == "naive-random":
        lines = reports.parse_report(output[1]).other
        return [line for line in lines if line.startswith(("random-mean ", "random-variance "))]
    return None


def check(op, output, reference) -> list[str]:
    """Failure messages for one op; ``reference`` is the op's recorded
    entry, or None when no reference applies (another seed)."""
    try:
        failures = _CHECKERS[op.kind](op, output)
        if reference is not None and record(op, output) != reference:
            failures.append("output differs from the recorded reference")
    except Exception as exc:  # a malformed output is a failed check, not a crash
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    return failures


def _cli_report(output, failures):
    rc, text = output
    if rc != 0:
        failures.append(f"exit code {rc}")
    parsed = reports.parse_report(text)
    if parsed.summary != "pass":
        failures.append(f"report summary {parsed.summary!r}")
    return parsed


# ---------------------------------------------------------------------------
# solve


def _check_solve(op, output) -> list[str]:
    failures: list[str] = []
    rep = _cli_report(output, failures)
    scorer = Scorer(op.inst)
    val = rep.objectives
    missing = [name for name in OBJECTIVES if name not in val]
    if missing:
        return failures + [f"missing objectives {missing}"]

    ground = sum(scorer.utilities(rep.witnesses["MV"].members))
    if ground != val["MV"]:
        failures.append(f"MV witness scores {ground}, reported {val['MV']}")
    ground_mp = sum(scorer.utilities(rep.witnesses["MP"].members)) / scorer.ground_size()
    if ground_mp != val["MP"]:
        failures.append(f"MP witness scores {ground_mp}, reported {val['MP']}")
    for name, proportional in (("SF-MV", False), ("SF-MP", True)):
        members = rep.witnesses[name].members
        score = min(scorer.proportions(members) if proportional else scorer.utilities(members))
        if score != val[name]:
            failures.append(f"{name} witness scores {score}, reported {val[name]}")
    for name, proportional in (("DF-MV", False), ("DF-MP", True)):
        support = [(cut.members, p) for cut, p in rep.supports.get(name, [])]
        if sum(p for _, p in support) != 1 or any(p <= 0 for _, p in support):
            failures.append(f"{name} support is not a probability distribution")
        score = min(scorer.expected(support, proportional))
        if score != val[name]:
            failures.append(f"{name} support scores {score}, reported {val[name]}")
        duals = [w for _, w in rep.duals.get(name, [])]
        if len(duals) != len(scorer.groups) or sum(duals) != 1 or min(duals) < 0:
            failures.append(f"{name} dual weights are not a group distribution")
    for lo, mid, hi in (("SF-MV", "DF-MV", "MV"), ("SF-MP", "DF-MP", "MP")):
        if not val[lo] <= val[mid] <= val[hi]:
            failures.append(f"chain {lo} <= {mid} <= {hi} fails")
    return failures


# ---------------------------------------------------------------------------
# verify


def _check_verify(op, output) -> list[str]:
    claims = [c.claim for c in output]
    expected = [
        "chain-value-static-dynamic",
        "chain-value-dynamic-best",
        "chain-proportion-static-dynamic",
        "chain-proportion-dynamic-best",
    ]
    if claims != expected:
        return [f"unexpected checks {claims}"]
    failures = [f"{c.claim} failed" for c in output if not c.passed or c.skipped]
    for low, high in ((output[0], output[1]), (output[2], output[3])):
        if not low.lhs <= low.rhs == high.lhs <= high.rhs:
            failures.append(f"{low.claim}: chain {low.lhs} <= {low.rhs} <= {high.rhs} fails")
    scorer = Scorer(op.inst)
    best, sf_value, sf_proportion = scorer.optima()
    expected = (sf_value, best, sf_proportion, best / scorer.ground_size())
    reported = (output[0].lhs, output[1].rhs, output[2].lhs, output[3].rhs)
    if reported != expected:
        failures.append(f"SF and M sides {reported} differ from brute force {expected}")
    return failures


# ---------------------------------------------------------------------------
# heuristics


def _lines(rep, tag):
    return [line.split()[1:] for line in rep.other if line.split()[0] == tag]


def _check_naive(op, output) -> list[str]:
    failures: list[str] = []
    rep = _cli_report(output, failures)
    scorer = Scorer(op.inst)
    trials = op.params["trials"]
    means = _lines(rep, "random-mean")
    variances = _lines(rep, "random-variance")
    if len(means) != len(scorer.groups) or len(variances) != len(scorer.groups):
        return failures + ["one mean and one variance line per group expected"]
    for gi, gr in enumerate(scorer.groups):
        if scorer.model is UtilityModel.EDGE:
            analytic = Fraction(1, 2)
        elif scorer.model is UtilityModel.NODE_OWNDEG:
            analytic = Fraction(sum(1 for v in gr if scorer.degree[v]), 2 * len(gr))
        else:
            deg_sum = sum(scorer.degree[v] for v in gr)
            analytic = Fraction(deg_sum, 2 * len(gr) * scorer.delta)
        reported_analytic, sample = Fraction(means[gi][1]), Fraction(means[gi][2])
        variance = Fraction(variances[gi][2])
        if reported_analytic != analytic:
            failures.append(f"group {gi}: analytic mean {reported_analytic}, expected {analytic}")
        if variance < 0 or not 0 <= sample <= 1:
            failures.append(f"group {gi}: sample statistics out of range")
        # six standard errors: a false alarm has probability below 1e-8
        if (sample - analytic) ** 2 > 36 * variance / trials:
            failures.append(f"group {gi}: sample mean {float(sample)} far from {float(analytic)}")
    return failures


def _check_gw(op, output) -> list[str]:
    failures: list[str] = []
    rep = _cli_report(output, failures)
    scorer = Scorer(op.inst)
    g = op.inst.graph
    seed, samples = op.params["seed"], op.params["samples"]
    embedding = heuristics.gw_sdp_solve(g, seed=seed)
    rounding = heuristics.gw_round(g, embedding, seed=seed, samples=samples)
    vec = embedding.vectors
    if max(abs(math.sqrt(float(v @ v)) - 1.0) for v in vec) > 1e-9:
        failures.append("embedding vectors are not unit norm")
    if len(rounding.cuts) != samples:
        failures.append(f"{len(rounding.cuts)} rounding samples, expected {samples}")
    edge_lines = _lines(rep, "edge-prob")
    if len(edge_lines) != len(scorer.edges):
        return failures + ["one edge-prob line per edge expected"]
    member_sets = [set(c.members) for c in rounding.cuts]
    for (u, v), fields in zip(scorer.edges, edge_lines):
        count = sum((u in m) != (v in m) for m in member_sets)
        if float(fields[3]) != count / samples:
            failures.append(f"edge {u}-{v}: frequency {fields[3]}, recount {count / samples}")
        dot = min(1.0, max(-1.0, float(vec[u] @ vec[v])))
        if abs(float(fields[2]) - math.acos(dot) / math.pi) > 1e-12:
            failures.append(f"edge {u}-{v}: probability {fields[2]} disagrees with the embedding")
    weight = Fraction(1, samples)
    expected = scorer.expected([(m, weight) for m in member_sets], proportional=True)
    reported = [Fraction(f[1]) for f in _lines(rep, "score-group")]
    if reported != expected:
        failures.append("score-group values differ from the exact re-score of the samples")
    if [Fraction(f[0]) for f in _lines(rep, "score-min")] != [min(expected)]:
        failures.append("score-min differs from the exact re-score")
    best = max(scorer.cut_value(m) for m in member_sets)
    if [int(f[0]) for f in _lines(rep, "best-cut-value")] != [best]:
        failures.append(f"best-cut-value differs from the recount {best}")
    return failures


def _check_separate(op, output) -> list[str]:
    failures: list[str] = []
    rep = _cli_report(output, failures)
    scorer = Scorer(op.inst)
    gamma = len(scorer.groups)
    cuts = [reports.parse_cut_token(f[1], 0).members for f in _lines(rep, "oracle-cut")]
    if len(cuts) != gamma:
        return failures + ["one oracle cut per group expected"]
    alpha = min(scorer.proportions(m)[i] for i, m in enumerate(cuts))
    if [Fraction(f[0]) for f in _lines(rep, "oracle-alpha")] != [alpha]:
        failures.append(f"oracle-alpha differs from the re-score {alpha}")
    if [Fraction(f[0]) for f in _lines(rep, "guarantee")] != [alpha / gamma]:
        failures.append("guarantee is not alpha / gamma")
    lottery = [(cut.members, p) for cut, p in rep.supports.get("lottery", [])]
    merged: dict = {}
    for m in cuts:
        merged[m] = merged.get(m, Fraction(0)) + Fraction(1, gamma)
    if dict(lottery) != merged:
        failures.append("lottery is not the uniform mix of the oracle cuts")
    expected = scorer.expected(lottery, proportional=True)
    if [Fraction(f[1]) for f in _lines(rep, "score-group")] != expected:
        failures.append("score-group values differ from the exact re-score")
    if min(expected) < alpha / gamma:
        failures.append("lottery misses the alpha / gamma floor")
    return failures


def _check_local(op, output) -> list[str]:
    failures: list[str] = []
    rep = _cli_report(output, failures)
    scorer = Scorer(op.inst)
    (fields,) = _lines(rep, "cut")
    members = reports.parse_cut_token(fields[0], 0).members
    if int(fields[2]) != scorer.cut_value(members):
        failures.append("reported cut value differs from the recount")
    for u in range(scorer.n):
        crossing = sum(
            (a in members) != (b in members) for a, b in scorer.edges if u in (a, b)
        )
        if 2 * crossing < scorer.degree[u]:
            failures.append(f"vertex {u} can still flip: cut is not locally optimal")
    if [Fraction(f[0]) for f in _lines(rep, "score-min")] != [min(scorer.proportions(members))]:
        failures.append("score-min differs from the exact re-score")
    return failures


_CHECKERS = {
    "solve": _check_solve,
    "verify": _check_verify,
    "naive-random": _check_naive,
    "gw": _check_gw,
    "separate-solve": _check_separate,
    "local-search": _check_local,
}
