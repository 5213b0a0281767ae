"""Self-test of the benchmark's output checker.

    python3 -m pytest bench/tests -q

An unperturbed run of a few ops of each pinned kind has error rate 0; a
reference value moved by 1/1000, or a tampered report on a seed without a
reference, makes it non-zero.
"""

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

# (workload, op id) on the reference seed: a solve, a check_chain and a
# naive-random op, each well under a second
PICKS = (
    ("solve-lp", "random-10-node-maxdeg"),
    ("verify-small", "300"),
    ("heuristics", "random-40-edge-naive-random"),
)


@pytest.fixture(scope="module")
def picked(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    ops, reference = [], {}
    for workload, op_id in PICKS:
        by_id = {op.id: op for op in workloads.build(workload, harness.REFERENCE_SEED, work / workload)}
        ops.append(by_id[op_id])
        reference[op_id] = harness.load_reference(workload, harness.REFERENCE_SEED)[op_id]
    _, _, outputs = harness.run_repeat(ops)
    return ops, reference, outputs


def _error_rate(ops, reference, outputs) -> float:
    verdicts = harness.Verdicts(ops, reference)
    verdicts.add(outputs)
    return verdicts.failed / verdicts.attempted


def _nudge(text: str) -> str:
    return str(Fraction(text) + Fraction(1, 1000))


def test_unperturbed_reference_gives_zero_error_rate(picked):
    assert _error_rate(*picked) == 0


def test_perturbed_reference_value_is_caught(picked):
    ops, reference, outputs = picked
    solve_id, verify_id, naive_id = (op_id for _, op_id in PICKS)
    for perturb in (
        lambda ref: ref[solve_id].__setitem__("DF-MP", _nudge(ref[solve_id]["DF-MP"])),
        lambda ref: ref[verify_id][0].__setitem__(1, _nudge(ref[verify_id][0][1])),
        lambda ref: ref[naive_id].__setitem__(0, " ".join(
            ref[naive_id][0].split()[:3] + [_nudge(ref[naive_id][0].split()[3])])),
    ):
        perturbed = copy.deepcopy(reference)
        perturb(perturbed)
        assert _error_rate(ops, perturbed, outputs) == pytest.approx(1 / len(ops))


def test_tampered_report_fails_without_reference(picked):
    ops, _, outputs = picked
    op, (rc, text) = ops[0], outputs[0]
    value = checks.reports.parse_report(text).objectives["DF-MP"]
    tampered = text.replace(f"objective DF-MP {value}\n", f"objective DF-MP {_nudge(value)}\n")
    assert tampered != text
    assert checks.check(op, (rc, text), None) == []
    assert checks.check(op, (rc, tampered), None)
