"""Smoke tests: every example script must run cleanly end to end.

Examples are part of the public surface; these tests execute each one in
a subprocess (the same way a user would) and check for a zero exit and
the expected headline output.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

CASES = {
    "quickstart.py": "speedup",
    "kernel_fusion_tour.py": "Fig 9",
    "attention_scaling.py": "grouped",
    "serving_variable_length.py": "ByteTransformer",
    "batching_policies.py": "fifo",
    "serving_chaos.py": "bit-identical to the clean replay: True",
    "loadtest.py": "no silent loss: True",
}


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name,expected", sorted(CASES.items()))
def test_example_runs(name, expected):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert expected in result.stdout


def test_reproduce_paper_single_experiment():
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "reproduce_paper.py"),
            "table2",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Table II" in result.stdout


def test_reproduce_paper_rejects_unknown():
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "reproduce_paper.py"),
            "nonsense",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
