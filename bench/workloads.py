"""The four benchmark workloads: instance generation and the fixed op set.

Every op goes through the public API exactly as a user would call it:
``cli.main(["solve" | "run", ...])`` on an instance file, or
``verify.check_chain`` on an instance from the ranges ``verify.random_suite``
draws from.  The workload seed only chooses the generated instances (none
on ``solve-lp``, see there); the program under test never sees it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fairmaxcut import cli, families, instances, verify
from fairmaxcut.graphs import Graph, PartitionKind
from fairmaxcut.utility import UtilityModel

# verify-small: two of each of the 7 * 4 * 3 * 4 parameter combinations
VERIFY_OPS = 672

NAIVE_TRIALS = 100_000
GW_SAMPLES = 1_000


@dataclass
class Op:
    """One timed call.  ``call`` is what the clock measures; ``collect``
    gathers its output for checking, outside the timed region."""

    id: str
    kind: str  # "solve", "verify" or a heuristic algorithm name
    inst: families.NamedInstance
    call: Callable[[], Any]
    collect: Callable[[Any], Any]
    params: dict = field(default_factory=dict)


def sub_seed(seed: int, tag: str) -> int:
    """Stable 63-bit seed for one generated input of one workload."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _singleton(g, kind: PartitionKind, model: UtilityModel, label: str):
    return families.NamedInstance(g, families.singleton_partition(g, kind), model, label)


def _random(n: int, p: float, gamma: int, model: UtilityModel, seed: int, tag: str):
    """Random graph with exactly round(p * n(n-1)/2) edges, the expected edge
    count of the ``random`` family's G(n, p), but at least enough for gamma
    edge groups, and a random gamma-group partition: the seed varies
    structure and groups, not size."""
    pairs = list(combinations(range(n), 2))
    edges = max(round(p * len(pairs)), gamma if model.partition_kind is PartitionKind.EDGES else 1)
    rng = np.random.default_rng(sub_seed(seed, tag))
    chosen = sorted(rng.choice(len(pairs), size=edges, replace=False))
    g = Graph(n, tuple(pairs[i] for i in chosen))
    partition = families.random_partition(g, model.partition_kind, gamma, sub_seed(seed, f"{tag}/groups"))
    return families.NamedInstance(g, partition, model, f"{tag.replace('/', '-')}-s{seed}")


def _cli_op(op_id: str, kind: str, inst, work: Path, argv: list[str], params: dict) -> Op:
    inst_path = work / f"{op_id}.inst"
    report_path = work / f"{op_id}.report"
    instances.save_instance(inst, str(inst_path))
    full = [argv[0], str(inst_path), *argv[1:], "--no-timestamp", "-o", str(report_path)]

    def collect(rc):
        return rc, report_path.read_text(encoding="utf-8")

    return Op(op_id, kind, inst, lambda: cli.main(full), collect, params)


def _solve_ops(named: list[tuple[str, families.NamedInstance]], work: Path) -> list[Op]:
    return [_cli_op(name, "solve", inst, work, ["solve"], {}) for name, inst in named]


def solve_lp(seed: int, work: Path) -> list[Op]:
    """Fixed inputs, whatever the seed.  The exact simplex's running time
    swings by about +-50% between random graphs of one size, and between
    relabellings of one 9-cycle, because Bland's rule follows the column
    order; seeded inputs left this workload unsteady.  The random graphs
    are drawn once, from seed 0."""
    c7, c9 = families.make_cycle(7), families.make_cycle(9)
    named = [
        ("cycle-9-edges", _singleton(c9, PartitionKind.EDGES, UtilityModel.EDGE, "cycle-9-edges")),
        ("cycle-7-edges", _singleton(c7, PartitionKind.EDGES, UtilityModel.EDGE, "cycle-7-edges")),
        ("cycle-7-nodes", _singleton(c7, PartitionKind.NODES, UtilityModel.NODE_MAXDEG, "cycle-7-nodes")),
    ]
    for model in UtilityModel:
        tag = f"random-10-{model.value}"
        named.append((tag, _random(10, 0.5, 4, model, 0, f"solve-lp/{tag}")))
    return _solve_ops(named, work)


def solve_enum(seed: int, work: Path) -> list[Op]:
    named = []
    for n, model in ((14, UtilityModel.EDGE), (14, UtilityModel.NODE_MAXDEG), (15, UtilityModel.EDGE)):
        tag = f"random-{n}-{model.value}"
        named.append((tag, _random(n, 0.5, 2, model, seed, f"solve-enum/{tag}")))
    named.append(("clique-tail-2-14", families.make_clique_with_tail(2, 14)))
    named.append(("cycle-biclique-2-5", families.make_cycle_plus_biclique(2, 5)))
    return _solve_ops(named, work)


def _verify_draws(seed: int):
    """Instances over the ranges ``verify.random_suite`` draws from: n in
    4..10, gamma in 1..4, edge probability 0.3/0.5/0.7, and its cycle of
    edge / node-owndeg / edge / node-maxdeg models.  The mix of those
    parameters is stratified, each combination appearing equally often,
    and each graph has its G(n, p)'s expected edge count, so a seed changes
    the graphs and groups, not how many large instances an op set gets."""
    slots = (UtilityModel.EDGE, UtilityModel.NODE_OWNDEG, UtilityModel.EDGE, UtilityModel.NODE_MAXDEG)
    for i in range(VERIFY_OPS):
        n = 4 + i % 7
        gamma = 1 + (i // 7) % 4
        edge_prob = (0.3, 0.5, 0.7)[(i // 28) % 3]
        model = slots[(i // 84) % 4]
        yield i, _random(n, edge_prob, gamma, model, seed, f"verify-small/{i}")


def verify_small(seed: int, work: Path) -> list[Op]:
    ops = []
    for i, inst in _verify_draws(seed):
        context = f"{inst.label}#{i}"

        def call(inst=inst, context=context):
            return verify.check_chain(inst.graph, inst.model, inst.partition, context=context)

        ops.append(Op(str(i), "verify", inst, call, lambda out: out))
    return ops


def heuristics(seed: int, work: Path) -> list[Op]:
    ops = []
    for n in (40, 80):
        for model in (UtilityModel.EDGE, UtilityModel.NODE_MAXDEG):
            tag = f"random-{n}-{model.value}"
            inst = _random(n, 0.2, 4, model, seed, f"heuristics/{tag}")
            run_seed = sub_seed(seed, f"heuristics/{tag}/run")
            for algorithm, extra, params in (
                ("naive-random", ["--trials", str(NAIVE_TRIALS)], {"trials": NAIVE_TRIALS}),
                ("gw", ["--samples", str(GW_SAMPLES)], {"samples": GW_SAMPLES}),
                ("separate-solve", [], {}),
                ("local-search", [], {}),
            ):
                argv = ["run", "--algorithm", algorithm, "--seed", str(run_seed), *extra]
                params = dict(params, seed=run_seed)
                ops.append(_cli_op(f"{tag}-{algorithm}", algorithm, inst, work, argv, params))
    return ops


BUILDERS = {
    "solve-lp": solve_lp,
    "solve-enum": solve_enum,
    "verify-small": verify_small,
    "heuristics": heuristics,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's instances, write them under ``work`` and
    return its op set in run order."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, work)
