"""Write records.json: the outputs every op is checked against.

    python3 perfbench/record.py

Run this only on a commit whose outputs are the reference (it was run on
the commit that added the benchmark). For every input variant it runs each
workload's whole cycle once, untimed, and stores the sha256 of every CSV and
SVG, and for selection_sweep the flip rates, stationary fractions and
gap-closure integers exactly and each expected_path in full.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    lexsim = workloads.import_lexsim(ROOT)
    env = workloads.worker_env(ROOT)
    records: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        out = os.path.join(HERE, "out", name)
        os.makedirs(out, exist_ok=True)
        seeds = [0] if name == "cli_fixtures" else range(workloads.VARIANTS)
        table = records[name] = {}
        for seed in seeds:
            w = workloads.make(name, seed, out, ROOT, env, lexsim)
            for k in range(w.ops_per_cycle):
                w.op(k, lexsim)
                table[w.record_key(k)] = w.result(k)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    with open(os.path.join(HERE, "records.json"), "w") as fh:
        json.dump(records, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
