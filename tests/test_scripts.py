"""The scripts in ``scripts/``, run the way their docstrings show: as a
subprocess from the repository root."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SURVEY = "scripts/survey_random_instances.py"


def run_script(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_survey_seed_outside_64_bits_exit_6(seed):
    # derive_rng reads a seed's low 64 bits: -1 would draw what 2**64 - 1 draws
    result = run_script(SURVEY, "--count", "2", "--seed", str(seed))
    assert result.returncode == 6
    assert result.stdout == ""
    assert result.stderr == f"error: --seed must be in [0, 2**64), got {seed}\n"


def test_survey_accepts_the_largest_seed():
    result = run_script(SURVEY, "--count", "2", "--seed", str(2**64 - 1))
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 3  # the header and one row per instance
