"""Checks of the benchmark's own checking; exits non-zero on the first that fails.

    python3 perfbench/selftest.py

1. The record comparison: exact matches pass; a changed digest, flip rate
   or closure integer fails; expected_path passes within 1e-12 and fails
   beyond it.
2. A corrupted records file makes every op of a real run count as failed,
   the JSON line says correct=false, and run.py exits 1. The same run
   against the true records has no failures.
3. The traced pass flags a count that differs between two cycles.
4. op_tail_s picks the order statistic with exactly ten ops beyond it.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def record_comparison(records: dict) -> None:
    for name in ("evolve_large", "settle_batch", "cli_fixtures"):
        key, want = next(iter(records[name].items()))
        check(workloads.mismatch(name, dict(want), want) is None, f"{name} {key} matches itself")
        bad = dict(want, csv="0" * 64)
        check(workloads.mismatch(name, bad, want) is not None, f"{name} changed CSV digest fails")
    want = records["selection_sweep"]["0/0"]
    check(workloads.mismatch("selection_sweep", copy.deepcopy(want), want) is None,
          "selection_sweep record matches itself")
    for key, change in (("p_ie", "one part in 1e15"), ("closure", "one step")):
        bad = copy.deepcopy(want)
        bad[1][key] = bad[1][key] + 1 if key == "closure" else bad[1][key] * (1 + 1e-15)
        check(workloads.mismatch("selection_sweep", bad, want) is not None,
              f"selection_sweep {key} off by {change} fails")
    for delta, ok in ((1e-13, True), (1e-9, False)):
        near = copy.deepcopy(want)
        near[0]["path"][-1] += delta
        got = workloads.mismatch("selection_sweep", near, want)
        check((got is None) == ok,
              f"expected_path off by {delta} {'passes' if ok else 'fails'}")


def corrupted_run(records: dict) -> None:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    bad = copy.deepcopy(records)
    bad["evolve_large"]["0"]["csv"] = "f" * 64
    bad_path = os.path.join(out, "records-corrupted.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    for path, want_ok in ((bad_path, False), (os.path.join(HERE, "records.json"), True)):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               "evolve_large", "--seed", "0", "--seconds", "1",
                               "--records", path], capture_output=True, text=True, timeout=170)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        label = "true" if want_ok else "corrupted"
        check(line["attempted"] >= 1, f"run against {label} records attempted ops")
        if want_ok:
            check(proc.returncode == 0 and line["correct"] and line["failed"] == 0,
                  "run against true records: no op failed, exit 0")
        else:
            check(proc.returncode == 1 and not line["correct"]
                  and line["failed"] == line["attempted"],
                  "run against corrupted records: every op failed, exit 1")


def count_check() -> None:
    def traced(calls: int, seconds: float) -> dict:
        return {"op_totals": [{"settlement.decide_calls": calls, "runner.run_s": seconds}],
                "ops_per_cycle": 1, "op_times": [seconds], "reference_times": [0.025],
                "span_count": 1, "spans_file": ""}

    untraced = {"op_times": [0.1], "reference_times": [0.025]}
    _, _, problems = run.per_layer(untraced, [traced(5, 0.1), traced(6, 0.1)])
    check(any("settlement.decide_calls" in p for p in problems),
          "a count that differs between traced cycles is flagged")
    _, _, problems = run.per_layer(untraced, [traced(5, 0.1), traced(5, 0.2)])
    check(not problems, "equal counts with differing times are not flagged")


def tail_check() -> None:
    value, pct = run.tail([float(i) for i in range(1, 41)])
    check(value == 30.0 and pct == 75.0, "op_tail of 40 ops is the p75 with ten beyond")
    value, pct = run.tail([1.0, 2.0, 3.0])
    check(value == 3.0 and pct == 100.0, "op_tail of fewer than eleven ops is the maximum")


def main() -> int:
    with open(os.path.join(HERE, "records.json")) as fh:
        records = json.load(fh)
    record_comparison(records)
    count_check()
    tail_check()
    corrupted_run(records)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
