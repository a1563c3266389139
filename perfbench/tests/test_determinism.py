"""A reduced workload run twice at one seed repeats itself exactly.

The simulated outcomes and the exact counts are functions of the inputs
alone; a difference between two runs is a benchmark error, not noise.
"""

import pytest
from conftest import run_child

from workloads import WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_workload_repeats_outcomes_and_counts(workload, tmp_path):
    first = run_child(workload, 5, tmp_path)
    second = run_child(workload, 5, tmp_path)
    assert all(run["error"] is None for run in first["runs"])
    assert first["runs"] == second["runs"]
    assert first["cache"] == second["cache"]
