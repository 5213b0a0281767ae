#!/usr/bin/env python3
"""Survey the three proportion objectives over seeded random instances and
print one TSV row per instance, plus how often each inequality is strict.

    python scripts/survey_random_instances.py --count 100 --seed 7
"""

import argparse
import sys

sys.path.insert(0, "src")

from fairmaxcut.exact import build_payoff_matrix
from fairmaxcut.families import random_instance
from fairmaxcut.graphs import PartitionKind
from fairmaxcut.heuristics import derive_rng
from fairmaxcut.verify import read_off


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-vertices", type=int, default=10)
    args = parser.parse_args()

    rng = derive_rng(args.seed, 0x737572766579)
    strict_sd = strict_dm = 0
    print("label\tgamma\tSF-MP\tDF-MP\tMP")
    for i in range(args.count):
        kind = PartitionKind.EDGES if i % 2 == 0 else PartitionKind.NODES
        n = int(rng.integers(4, args.max_vertices + 1))
        gamma = int(rng.integers(1, 5))
        inst = random_instance(n, 0.5, gamma, kind, seed=int(rng.integers(0, 2**63)))
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        sf, df, mp = (read_off(matrix, name)[0] for name in ("SF-MP", "DF-MP", "MP"))
        strict_sd += sf < df
        strict_dm += df < mp
        print(f"{inst.label}\t{inst.partition.group_count}\t{sf}\t{df}\t{mp}")
    print(f"# strict static<dynamic: {strict_sd}/{args.count}", file=sys.stderr)
    print(f"# strict dynamic<best:   {strict_dm}/{args.count}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
