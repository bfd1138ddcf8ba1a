"""One benchmark worker: set up one workload, then run it in a closed loop.

Started by run.py as a fresh interpreter per phase. After importing lexsim
and generating its inputs it prints `READY <perf_counter> <reference s>`
and waits on stdin for `go` (run the phase) or `quit`. The phase runs whole cycles until
`--seconds` have passed, one op in flight, times the reference kernel
before every op, checks every op against records.json, and writes a JSON
result to `--result`.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --traced 0|1 --records FILE --result FILE
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (benchmark-local modules)
import workloads  # noqa: E402


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (isinstance(self.x, float) and self.x >= 0.0):
            raise ValueError("x must be a float >= 0")


_REFERENCE_ARRAY = np.random.default_rng(0).random(200_000)


def reference_kernel() -> None:
    """Fixed lexsim-free work, timed before every op to gauge the host's current speed.

    It mixes what the ops spend time on: an interpreter loop, validated
    small-object allocation, Philox generator setup and a numpy sort.
    """
    total = 0
    for i in range(200_000):
        total += i * i
    kept = sum(1 for i in range(8_000) if _Point(float(i), 0.5 * i).y <= i)
    draws = np.empty((200, 3, 50))
    for i in range(50):
        draws[:, :, i] = np.random.Generator(np.random.Philox(key=1, counter=i << 192)).random(
            (200, 3))
    np.sort(_REFERENCE_ARRAY)
    if kept != 8_000 or total <= 0:
        raise RuntimeError("reference kernel miscomputed")


def run_phase(w, lexsim, records: dict, seconds: float, tracer) -> dict:
    times, ref_times, failures = [], [], []
    k = 0
    t_phase = perf_counter()
    while True:
        for _ in range(w.ops_per_cycle):
            if tracer is not None:
                tracer.op_id = k
            error = None
            gc.collect()  # every op starts from the same collector state
            t_ref = perf_counter()
            reference_kernel()
            ref_times.append(perf_counter() - t_ref)
            t0 = perf_counter()
            try:
                w.op(k, lexsim, tracer)
            except Exception as e:  # a failed op is counted, the loop goes on
                error = f"{type(e).__name__}: {e}"
            times.append(perf_counter() - t0)
            if error is None:
                try:
                    error = workloads.mismatch(w.workload, w.result(k),
                                               records.get(w.record_key(k)))
                except OSError as e:
                    error = f"cannot read output: {e}"
            if error is not None:
                failures.append(f"op {k} ({w.record_key(k)}): {error}")
            k += 1
        if perf_counter() - t_phase >= seconds:
            break
    return {"op_times": times, "reference_times": ref_times, "failures": failures,
            "ops_per_cycle": w.ops_per_cycle}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--records", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    out_dir = os.path.dirname(os.path.abspath(args.result))
    lexsim = workloads.import_lexsim(root)
    w = workloads.make(args.workload, args.seed, out_dir, root, workloads.worker_env(root),
                       lexsim)
    with open(args.records) as fh:
        records = json.load(fh)[args.workload]
    t_ready = perf_counter()
    reference_kernel()
    print(f"READY {t_ready!r} {perf_counter() - t_ready!r}", flush=True)

    if sys.stdin.readline().strip() != "go":
        return 0
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install()
    result = run_phase(w, lexsim, records, args.seconds, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_fixtures" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["versions"] = {"lexsim": lexsim.__version__,
                          "numpy": sys.modules["numpy"].__version__,
                          "python": sys.version.split()[0]}
    if tracer is not None:
        tracer.uninstall()
        totals = tracing.op_totals(tracer)
        result["op_totals"] = [totals.get(k, {}) for k in range(len(result["op_times"]))]
        spans_path = os.path.splitext(args.result)[0] + "-spans.npz"
        tracing.save(tracer, spans_path)
        result["spans_file"] = os.path.relpath(spans_path, root)
        result["span_count"] = len(tracer.start)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0



if __name__ == "__main__":
    sys.exit(main())
