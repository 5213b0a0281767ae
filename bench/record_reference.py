"""Record the reference outputs that ``run.py`` compares against.

    python3 bench/record_reference.py

Runs every op of every workload whose answer is pinned (see
``checks.record``) once, on the reference seed, and writes the exact values
to ``bench/reference_seed<seed>.json``.  Re-record only when a change is
meant to alter those answers, and say so in the change.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    table = {}
    for workload in run.WORKLOADS:
        ops = workloads.build(workload, harness.REFERENCE_SEED, harness.WORK / workload)
        pinned = [op for op in ops if op.kind in ("solve", "verify", "naive-random")]
        _, _, outputs = harness.run_repeat(pinned)
        entries = {}
        for op, out in zip(pinned, outputs):
            problems = ["raised"] if out is None else checks.check(op, out, None)
            if problems:
                print(f"{workload}/{op.id}: {problems}", file=sys.stderr)
                return 1
            entries[op.id] = checks.record(op, out)
        table[workload] = entries
        print(f"{workload}: {len(entries)} reference entries")
    with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
