"""The benchmark's recorded outputs, replayed in the test suite.

Four variants of settle_batch (the CSV and SVG of 20,000 disputes each), two of
evolve_large (variant 0 under the American fee rule, variant 3 under the English),
and all 16 variants of selection_sweep (3 ops each, every record it has) run through
perfbench/workloads.py as the benchmark runs them and are compared with
perfbench/records.json by the benchmark's own check. An output that drifts fails
here before the benchmark reports it as incorrect. The selection_sweep inputs also
bound how many probes the evolve trial-threshold search spends on them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import lexsim
from lexsim import evolution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
RECORDS = json.loads((PERFBENCH / "records.json").read_text())


@pytest.mark.parametrize("workload, seed", [
    pytest.param(w, seed, id=w if seed == 0 else f"{w}-{seed}")
    for w, seed in [("settle_batch", 0), ("settle_batch", 1), ("settle_batch", 2),
                    ("settle_batch", 3), ("evolve_large", 0), ("evolve_large", 3)]
    + [("selection_sweep", seed) for seed in range(workloads.VARIANTS)]])
def test_outputs_match_the_records(tmp_path, workload, seed):
    root = str(PERFBENCH.parent)
    w = workloads.make(workload, seed, str(tmp_path), root, workloads.worker_env(root), lexsim)
    for k in range(w.ops_per_cycle):
        w.op(k, lexsim)
        key = w.record_key(k)
        error = workloads.mismatch(workload, w.result(k), RECORDS[workload].get(key))
        assert error is None, f"op {k} ({key}): {error}"


@pytest.mark.parametrize("seed", range(workloads.VARIANTS))
def test_selection_sweep_thresholds_take_few_probes(tmp_path, monkeypatch, seed):
    # unclipped areas: the closed-form start lands within a step or two of each threshold
    w = workloads.make("selection_sweep", seed, str(tmp_path), str(PERFBENCH.parent), {}, lexsim)
    probes = []
    bounds = evolution._bounds
    monkeypatch.setattr(evolution, "_bounds", lambda *args: probes.append(args) or bounds(*args))
    thresholds = [u for area in w.areas for delta in w.deltas
                  for u in evolution._thresholds(area, delta)]
    assert len(thresholds) == 24 and len(probes) <= 4 * 24
