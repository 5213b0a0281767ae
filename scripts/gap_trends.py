#!/usr/bin/env python3
"""Emit the fairness-gap trends along the two tightness families as plain
data columns (TSV on stdout) for external plotting.

    python scripts/gap_trends.py edges   # clique-with-tail and odd cycles
    python scripts/gap_trends.py nodes   # odd cycles and cycle-plus-biclique

Columns: family, parameter, MP, SF-MP, DF-MP, best_minus_dynamic,
dynamic_minus_static (all exact fractions).
"""

import argparse
import sys

sys.path.insert(0, "src")

from fairmaxcut.exact import build_payoff_matrix
from fairmaxcut.families import (
    make_clique_with_tail,
    make_cycle_plus_biclique,
    make_odd_cycle_instance,
)
from fairmaxcut.graphs import PartitionKind
from fairmaxcut.verify import read_off


def emit(family, parameter, inst):
    matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
    mp, sf, df = (read_off(matrix, name)[0] for name in ("MP", "SF-MP", "DF-MP"))
    print(f"{family}\t{parameter}\t{mp}\t{sf}\t{df}\t{mp - df}\t{df - sf}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("edges", "nodes"))
    parser.add_argument("--max-cycle", type=int, default=11)
    parser.add_argument("--max-tail", type=int, default=16)
    parser.add_argument("--max-biclique", type=int, default=4)
    args = parser.parse_args()

    print("family\tparameter\tMP\tSF-MP\tDF-MP\tbest_minus_dynamic\tdynamic_minus_static")
    if args.kind == "edges":
        for n in range(6, args.max_tail + 1, 2):
            emit("clique-tail-k2", n, make_clique_with_tail(2, n))
    for length in range(5, args.max_cycle + 1, 2):
        inst = make_odd_cycle_instance(length, PartitionKind(args.kind))
        emit(f"odd-cycle-{args.kind}", length, inst)
    if args.kind == "nodes":
        for r in range(2, args.max_biclique + 1):
            emit("cycle-biclique-k2", r, make_cycle_plus_biclique(2, r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
