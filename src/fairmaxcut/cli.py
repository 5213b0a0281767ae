"""Command-line front end.

Subcommands: solve (exact objectives, all read off one payoff matrix), run
(heuristic algorithms), generate (family instances), verify (claim-checker
suites), reproduce (``verify.pinned_checks``: the families' expected values
and the table of the rest).  The structured report goes to --output when
given (with a human summary on stdout), otherwise to stdout.  Exit codes:
0 ok, 1 verification/reproduction failure, 2 parse error, 3 instance too
large, 4 model/partition mismatch, 5 unknown algorithm, 6 bad generator
parameters or option values (--trials, --samples, --sdp-rank, --count).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import exact, families, heuristics, instances, reports, verify
from .errors import (
    DegreeZeroError,
    GeneratorParameterError,
    InstanceParseError,
    ModelMismatchError,
    TooLargeError,
)
from .exact import DEFAULT_ENUMERATION_LIMIT
from .graphs import Cut, PartitionKind, cut_value
from .instances import OBJECTIVE_NAMES
from .utility import UtilityModel, crossing_degree, group_proportion, require_compatible

ALGORITHMS = ("separate-solve", "naive-random", "local-search", "gw")
FAMILIES = (
    "cycle",
    "complete-bipartite",
    "clique-tail",
    "cycle-biclique",
    "diamond",
    "paw",
    "diamond-embedding",
    "random",
)
SUITES = ("curated", "random", "all")


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for randomized work")
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT,
                   help="max vertex count for exact enumeration")
    p.add_argument("--mode", choices=("value", "proportion", "both"), default="both")
    p.add_argument("--approx", action="store_true",
                   help="add a decimal column to the human table (reports stay exact)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit timestamp/elapsed lines for byte-stable reports")
    p.add_argument("-o", "--output", help="write the structured report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairmaxcut")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="compute exact objectives for an instance")
    p.add_argument("instance")
    p.add_argument("--objectives", help="comma list from " + ",".join(OBJECTIVE_NAMES))
    _common_flags(p)

    p = sub.add_parser("run", help="run a heuristic algorithm on an instance")
    p.add_argument("instance")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--trials", type=int, default=100_000, help="naive-random trial count")
    p.add_argument("--samples", type=int, default=1_000, help="hyperplane rounding samples")
    p.add_argument("--embedding", help="read the unit-vector embedding from this file")
    p.add_argument("--sdp-rank", type=int, default=None)
    p.add_argument("--sdp-iterations", type=int, default=200)
    _common_flags(p)

    p = sub.add_parser("generate", help="write a family instance file")
    p.add_argument("family")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--gamma", type=int, default=2)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--kind", choices=("edges", "nodes"), default="edges")
    p.add_argument("--groups", default="singleton-edges",
                   choices=("singleton-edges", "singleton-nodes", "whole",
                            "random-edges", "random-nodes"))
    _common_flags(p)

    p = sub.add_parser("verify", help="run claim-checker suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--count", type=int, default=200, help="random-suite instance count")
    _common_flags(p)

    p = sub.add_parser("reproduce", help="recompute all pinned worked-example values")
    _common_flags(p)

    return parser


def _emit(report_text: str, human_lines: list[str], output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(report_text)
        for line in human_lines:
            print(line)
    else:
        sys.stdout.write(report_text)


def _require_at_least(flag: str, value: int | None, least: int) -> None:
    if value is not None and value < least:
        raise GeneratorParameterError(f"{flag} must be >= {least}, got {value}")


def _approx_suffix(value: Fraction, approx: bool) -> str:
    return f"  ~ {float(value):.6f}" if approx else ""


def _maybe_isolated_note(builder: reports.ReportBuilder, inst: families.NamedInstance) -> None:
    if inst.model is UtilityModel.NODE_OWNDEG and any(
        d == 0 for d in inst.graph.degrees
    ):
        builder.add_note(
            "isolated vertices present: they contribute 0 under the own-degree model"
        )


# ---------------------------------------------------------------------------
# solve


def _requested_objectives(args) -> list[str]:
    if args.objectives:
        names = [t.strip() for t in args.objectives.split(",") if t.strip()]
        for name in names:
            if name not in OBJECTIVE_NAMES:
                raise GeneratorParameterError(f"unknown objective {name!r}")
        return names
    if args.mode == "value":
        return ["MV", "SF-MV", "DF-MV"]
    if args.mode == "proportion":
        return ["MP", "SF-MP", "DF-MP"]
    return list(OBJECTIVE_NAMES)


def cmd_solve(args) -> int:
    inst = instances.load_instance(args.instance)
    require_compatible(inst.graph, inst.model, inst.partition)
    names = _requested_objectives(args)
    started = time.monotonic()

    builder = reports.ReportBuilder("solve", include_timestamp=not args.no_timestamp)
    builder.add_field("mode", args.mode)
    builder.add_field("limit", args.limit)
    builder.add_instance(inst)
    _maybe_isolated_note(builder, inst)

    # one enumeration pass: all six objectives are read off the same matrix
    matrix = exact.build_payoff_matrix(inst.graph, inst.model, inst.partition, args.limit)
    results = {name: verify.read_off(matrix, name) for name in OBJECTIVE_NAMES if name in names}
    values = {name: value for name, (value, _) in results.items()}

    for name, (value, found) in results.items():
        builder.add_objective(name, value)
        if isinstance(found, Cut):
            builder.add_witness(name, found)
        else:
            for cut, prob in found.distribution.entries:
                builder.add_support(name, cut, prob)
            for i, weight in enumerate(found.dual_weights):
                builder.add_dual(name, i, weight)

    checks = verify.chain_checks(values, inst.label)
    for check in checks:
        builder.add_check(check)
    builder.add_summary(all(c.passed for c in checks))

    elapsed = int((time.monotonic() - started) * 1000)
    text = builder.render(elapsed_ms=elapsed)
    human = [f"instance: {inst.label or args.instance}"]
    for name, value in values.items():
        human.append(f"  {name:6s} = {value}{_approx_suffix(value, args.approx)}")
    _emit(text, human, args.output)
    return 0


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    if args.algorithm not in ALGORITHMS:
        print(f"error: unknown algorithm {args.algorithm!r}; choose from {', '.join(ALGORITHMS)}",
              file=sys.stderr)
        return 5
    _require_at_least("--trials", args.trials, 1)
    _require_at_least("--samples", args.samples, 1)
    _require_at_least("--sdp-rank", args.sdp_rank, 2)
    _require_at_least("--sdp-iterations", args.sdp_iterations, 0)
    inst = instances.load_instance(args.instance)
    require_compatible(inst.graph, inst.model, inst.partition)
    started = time.monotonic()

    builder = reports.ReportBuilder("run", include_timestamp=not args.no_timestamp)
    builder.add_field("algorithm", args.algorithm)
    builder.add_field("seed", args.seed)
    builder.add_instance(inst)
    _maybe_isolated_note(builder, inst)
    human = [f"instance: {inst.label or args.instance}", f"algorithm: {args.algorithm}"]

    ok = True
    if args.algorithm == "separate-solve":
        dist, oracle_res = heuristics.separate_solve(
            inst.graph, inst.model, inst.partition, seed=args.seed
        )
        score = heuristics.evaluate_distribution(inst.graph, inst.model, inst.partition, dist)
        gamma = inst.partition.group_count
        floor = oracle_res.alpha / gamma
        for i, cut in enumerate(oracle_res.per_group_cuts):
            builder.add_line(f"oracle-cut {i} {reports.format_cut(cut)}")
        builder.add_line(f"oracle-alpha {oracle_res.alpha}")
        builder.add_line(f"guarantee {floor}")
        for cut, prob in dist.entries:
            builder.add_support("lottery", cut, prob)
        for i, val in enumerate(score.per_group):
            builder.add_line(f"score-group {i} {val}")
        builder.add_line(f"score-min {score.minimum}")
        check = verify.make_check("separate-solve-floor", inst.label, score.minimum, ">=", floor)
        builder.add_check(check)
        ok = check.passed
        human.append(f"  worst expected proportion {score.minimum} (floor {floor})")

    elif args.algorithm == "naive-random":
        stats = heuristics.naive_random_stats(inst.graph, inst.model, inst.partition)
        samples = heuristics.naive_random_sample(
            inst.graph, inst.model, inst.partition, seed=args.seed, trials=args.trials
        )
        builder.add_field("trials", args.trials)
        for i, (st, sm) in enumerate(zip(stats, samples)):
            builder.add_line(f"random-mean {i} {st.mean} {sm.mean}")
            analytic_var = st.variance if st.variance is not None else "-"
            builder.add_line(f"random-variance {i} {analytic_var} {sm.variance}")
            if st.lower is not None:
                builder.add_line(f"random-bounds {i} {st.lower} {st.upper}")
        human.append(f"  {len(stats)} groups, {args.trials} trials; analytic means exact")

    elif args.algorithm == "local-search":
        cut = heuristics.local_search_cut(inst.graph)
        builder.add_line(f"cut {reports.format_cut(cut)} value {cut_value(inst.graph, cut)}")
        for v in range(inst.graph.vertex_count):
            crossing = crossing_degree(inst.graph, cut, v)
            builder.add_line(f"vertex-condition {v} {crossing} {inst.graph.degree(v)}")
        minimum = min(
            group_proportion(inst.graph, inst.model, cut, gr) for gr in inst.partition.groups
        )
        builder.add_line(f"score-min {minimum}")
        if inst.partition.kind is PartitionKind.NODES and inst.model is UtilityModel.NODE_MAXDEG:
            floor = verify.worst_degree_ratio(inst.graph, inst.partition) / 2
            builder.add_line(f"floor {floor}")
            check = verify.make_check("local-search-floor", inst.label, minimum, ">=", floor)
            builder.add_check(check)
            ok = check.passed
        human.append(f"  cut value {cut_value(inst.graph, cut)}, worst group proportion {minimum}")

    else:  # gw
        if args.embedding:
            with open(args.embedding, "r", encoding="utf-8") as fh:
                embedding = instances.parse_embedding(fh.read())
            if embedding.vertex_count != inst.graph.vertex_count:
                raise GeneratorParameterError("embedding size does not match the instance")
        else:
            embedding = heuristics.gw_sdp_solve(
                inst.graph, rank=args.sdp_rank, iterations=args.sdp_iterations, seed=args.seed
            )
        builder.add_field("samples", args.samples)
        objective = heuristics.sdp_objective(inst.graph, embedding)
        builder.add_line(f"sdp-objective {objective!r}")
        rounding = heuristics.gw_round(inst.graph, embedding, seed=args.seed, samples=args.samples)
        for j, (u, v) in enumerate(inst.graph.edges):
            builder.add_line(
                "edge-prob "
                f"{u} {v} {reports.format_probability(rounding.edge_cut_probabilities[j])} "
                f"{rounding.edge_cut_frequencies[j]!r}"
            )
        best = max(cut_value(inst.graph, c) for c in rounding.cuts)
        builder.add_line(f"best-cut-value {best}")
        dist = rounding.distribution()
        score = heuristics.evaluate_distribution(inst.graph, inst.model, inst.partition, dist)
        for i, val in enumerate(score.per_group):
            builder.add_line(f"score-group {i} {val}")
        builder.add_line(f"score-min {score.minimum}")
        human.append(f"  relaxation objective {objective:.6f}, best sampled cut {best}")
        human.append(f"  worst expected group proportion {score.minimum}")

    builder.add_summary(ok)
    elapsed = int((time.monotonic() - started) * 1000)
    _emit(builder.render(elapsed_ms=elapsed), human, args.output)
    return 0


# ---------------------------------------------------------------------------
# generate


def _generate_instance(args) -> families.NamedInstance | str:
    family = args.family
    if family == "diamond":
        return families.make_diamond_instance()
    if family == "paw":
        return families.make_paw_instance()
    if family == "diamond-embedding":
        return instances.serialize_embedding(families.make_diamond_embedding())
    if family == "clique-tail":
        if args.k is None or args.n is None:
            raise GeneratorParameterError("clique-tail needs --k and --n")
        return families.make_clique_with_tail(args.k, args.n)
    if family == "cycle-biclique":
        if args.k is None or args.r is None:
            raise GeneratorParameterError("cycle-biclique needs --k and --r")
        return families.make_cycle_plus_biclique(args.k, args.r)
    if family == "cycle":
        if args.n is None:
            raise GeneratorParameterError("cycle needs --n")
        g = families.make_cycle(args.n)
        return _with_groups(g, args, f"cycle-{args.n}")
    if family == "complete-bipartite":
        if args.a is None or args.b is None:
            raise GeneratorParameterError("complete-bipartite needs --a and --b")
        g = families.make_complete_bipartite(args.a, args.b)
        return _with_groups(g, args, f"K{args.a}{args.b}")
    if family == "random":
        if args.n is None:
            raise GeneratorParameterError("random needs --n")
        return families.random_instance(
            args.n, args.edge_prob, args.gamma, PartitionKind(args.kind), args.seed
        )
    raise GeneratorParameterError(f"unknown family {family!r}")


def _with_groups(g, args, label: str) -> families.NamedInstance:
    if args.groups == "singleton-edges":
        partition = families.singleton_partition(g, PartitionKind.EDGES)
        model = UtilityModel.EDGE
    elif args.groups == "singleton-nodes":
        partition = families.singleton_partition(g, PartitionKind.NODES)
        model = UtilityModel.NODE_MAXDEG
    elif args.groups == "whole":
        partition = families.edge_groups(g, [frozenset(range(g.edge_count))])
        model = UtilityModel.EDGE
    elif args.groups == "random-edges":
        partition = families.random_partition(g, PartitionKind.EDGES, args.gamma, args.seed)
        model = UtilityModel.EDGE
    else:
        partition = families.random_partition(g, PartitionKind.NODES, args.gamma, args.seed)
        model = UtilityModel.NODE_MAXDEG
    return families.NamedInstance(g, partition, model, f"{label}-{args.groups}")


def cmd_generate(args) -> int:
    result = _generate_instance(args)
    text = result if isinstance(result, str) else instances.serialize_instance(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise GeneratorParameterError(f"unknown suite {args.suite!r}; choose from {SUITES}")
    _require_at_least("--count", args.count, 0)
    started = time.monotonic()
    checks = []
    if args.suite in ("curated", "all"):
        checks += verify.curated_suite(args.limit)
    if args.suite in ("random", "all"):
        checks += verify.random_suite(args.seed, count=args.count, limit=args.limit)

    builder = reports.ReportBuilder("verify", include_timestamp=not args.no_timestamp)
    builder.add_field("suite", args.suite)
    builder.add_field("seed", args.seed)
    builder.add_field("count", args.count)
    for check in checks:
        builder.add_check(check)
    failed = [c for c in checks if not c.passed]
    builder.add_summary(not failed)
    elapsed = int((time.monotonic() - started) * 1000)
    ran = [c for c in checks if not c.skipped]
    human = [
        f"verify suite={args.suite}: {len(ran)} checks run, "
        f"{len(checks) - len(ran)} skipped, {len(failed)} failed"
    ]
    for c in failed:
        human.append(f"  FAIL {c.claim} [{c.context}]: {c.lhs} {c.relation} {c.rhs}")
    _emit(builder.render(elapsed_ms=elapsed), human, args.output)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# reproduce


def _reproduce_rows(limit: int):
    """Recompute every pinned worked-example value.  Yields
    (key, relation, expected-text, computed-text, passed)."""
    return [
        (c.claim, c.relation, str(c.rhs), str(c.lhs), c.passed)
        for c in verify.pinned_checks(limit)
    ]


def cmd_reproduce(args) -> int:
    started = time.monotonic()
    rows = _reproduce_rows(args.limit)
    builder = reports.ReportBuilder("reproduce", include_timestamp=not args.no_timestamp)
    for key, relation, expected, computed, passed in rows:
        builder.add_row(key, relation, expected, computed, passed)
    failed = [r for r in rows if not r[4]]
    builder.add_summary(not failed)
    elapsed = int((time.monotonic() - started) * 1000)
    human = [f"reproduce: {len(rows)} pinned values, {len(failed)} mismatches"]
    width = max(len(r[0]) for r in rows)
    for key, relation, expected, computed, passed in rows:
        mark = "ok " if passed else "FAIL"
        human.append(f"  {mark} {key:<{width}} {relation} {expected} (computed {computed})")
    _emit(builder.render(elapsed_ms=elapsed), human, args.output)
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "solve":
            return cmd_solve(args)
        if args.cmd == "run":
            return cmd_run(args)
        if args.cmd == "generate":
            return cmd_generate(args)
        if args.cmd == "verify":
            return cmd_verify(args)
        return cmd_reproduce(args)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelMismatchError, DegreeZeroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GeneratorParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
