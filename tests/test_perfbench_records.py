"""The benchmark's recorded outputs, replayed in the test suite.

One variant of settle_batch and of evolve_large, and the three ops of
selection_sweep, run through perfbench/workloads.py as the benchmark runs them
and are compared with perfbench/records.json by the benchmark's own check. An
output that drifts fails here before the benchmark reports it as incorrect.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import lexsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
RECORDS = json.loads((PERFBENCH / "records.json").read_text())


@pytest.mark.parametrize("workload", ["settle_batch", "evolve_large", "selection_sweep"])
def test_outputs_match_the_records(tmp_path, workload):
    root = str(PERFBENCH.parent)
    w = workloads.make(workload, 0, str(tmp_path), root, workloads.worker_env(root), lexsim)
    for k in range(w.ops_per_cycle):
        w.op(k, lexsim)
        key = w.record_key(k)
        error = workloads.mismatch(workload, w.result(k), RECORDS[workload].get(key))
        assert error is None, f"op {k} ({key}): {error}"
