"""The traced integration counts agree with a direct count on one seed.

Run with: python3 -m pytest -q bench/test_consistency.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def test_traced_counts_match_a_counting_field():
    assert workloads.consistency_problems(seed=7) == []
