"""fairmaxcut benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload solve-lp --seed 0 --seconds 28 --trace 0

The workload's fixed op set is generated from ``--seed`` and repeated,
closed-loop, while another repetition still fits in ``--seconds`` (always
at least once).  Every op's output is checked outside the timed region.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every op runs once untraced and once traced and the
per-layer metrics are reported instead.  Human-readable lines
(environment, sample counts, error rate) come first.  Without the package
sources under ``src/`` it exits with code 2 and prints no result.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("solve-lp", "solve-enum", "verify-small", "heuristics")
SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairmaxcut" / "__init__.py").is_file():
        print(f"error: no fairmaxcut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
