"""lexsim benchmark: four workloads, end-to-end metrics, and a traced per-layer pass.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that has src/lexsim and configs/. With
no --workload every workload runs in turn. The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are the same numbers for people. A results file with provenance goes to
perfbench/out/.

--trace 0 (end to end). Five fresh workers start one after another; the time
from spawn to ready is set-up (import lexsim + input generation), reported
as the median. The fifth runs ops in a closed loop, one in flight, for
--seconds and checks each against records.json. Metrics: setup_s, op_p50_s,
op_tail_s (the highest percentile with at least ten ops beyond it; the
results file gives the percentile and sample count), items_per_s and
peak_rss_mb. error_rate = failed / attempted is printed and recorded; it is
not a metric in the JSON line because on correct code it is 0, which the
attempted/failed fields already carry.

Host-speed correction. Right before every op, and once in every set-up
worker, the worker times a fixed lexsim-free reference kernel
(worker.reference_kernel). Each timing is multiplied by REFERENCE_S / that
reference time, so a host that runs everything 30% slower for a while does
not read as a slower lexsim. The uncorrected numbers are in the results file.

--trace 1 (per layer). One untraced worker for half of --seconds, then two
traced workers for a quarter each. Per-layer metrics are per op, averaged
over whole input cycles (median over cycles for times, which are corrected
like the end-to-end ones). Every count must repeat exactly across all cycles
of both traced workers, or the run fails. trace_overhead_s is traced op_p50
minus untraced op_p50.

Each worker runs with one BLAS/OpenMP thread. At most one worker, and for
cli_fixtures one child of it, runs at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPS = 5
# Typical time of worker.reference_kernel on the host the baseline was taken on
# (2-vCPU Xeon VM). That host's speed swings by +-30% within seconds, moving
# every op alike, so each timing is multiplied by REFERENCE_S / (the reference
# kernel's time just before it). The uncorrected times go to the results file.
REFERENCE_S = 0.025
DEADLINE_S = 170.0  # per workload: every process it starts is gone by then

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}

# per-layer metric -> unit; the names are span names + _s/_self_s/_calls, or
# quantities from tracing.QUANTITIES
PER_LAYER = {
    "rng.substream_calls": "count", "rng.substream_s": "s",
    "evolution.simulate_s": "s", "evolution.simulate_self_s": "s",
    "evolution.draw_bytes_computed": "bytes",
    "evolution.trial_fractions_s": "s", "evolution.trial_fractions_samples": "count",
    "settlement.decide_calls": "count", "settlement.decide_s": "s",
    "evolution.gap_closure_time_s": "s", "evolution.gap_closure_steps": "count",
    "evolution.expected_path_s": "s", "evolution.effective_dispute_rate_s": "s",
    "contracts.solve_completeness_calls": "count", "contracts.solve_completeness_s": "s",
    "contracts.bisection_iterations": "count",
    "config.load_config_s": "s",
    "settlement.apply_cost_reduction_calls": "count",
    "settlement.settlement_range_calls": "count",
    "runner.run_s": "s", "runner.run_self_s": "s", "runner.csv_bytes": "bytes",
    "charts.line_chart_s": "s", "charts.line_chart_points": "count",
    "charts.svg_bytes": "bytes",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.main_s": "s",
    "frivolous.play_calls": "count", "composition.shift_composition_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing checkout, worker crash, timeout)."""


class Worker:
    """A fresh worker interpreter; `ready_s` is spawn-to-ready wall time."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, records: str,
                 result: str, deadline: float):
        self.result_path, self.deadline = result, deadline
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--traced", str(int(traced)),
               "--records", records, "--result", result]
        t_spawn = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.worker_env(ROOT),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            line = self._readline()
            if not line.startswith("READY "):
                raise BenchError(f"{workload} worker failed during set-up")
        except BaseException:
            self.stop()
            raise
        _, t_ready, ref = line.split()
        self.ready_s = float(t_ready) - t_spawn
        self.ready_reference_s = float(ref)

    def _readline(self) -> str:
        remaining = self.deadline - perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        if not ready:
            raise BenchError("worker did not become ready before the deadline")
        return self.proc.stdout.readline()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def _send(self, word: str) -> None:
        try:
            self.proc.stdin.write(word + "\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass

    def quit(self) -> None:
        self._send("quit")
        self._finish()

    def go(self) -> dict:
        if os.path.exists(self.result_path):
            os.unlink(self.result_path)
        self._send("go")
        self._finish()
        if self.proc.returncode != 0 or not os.path.exists(self.result_path):
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        with open(self.result_path) as fh:
            return json.load(fh)

    def _finish(self) -> None:
        try:
            self.proc.wait(timeout=max(self.deadline - perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker did not finish before the deadline")
        finally:
            self.proc.stdout.close()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:  # too few ops for any such percentile; report the maximum
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def corrected(times: list[float], references: list[float]) -> list[float]:
    """Each time rescaled to the host speed at which the reference kernel takes REFERENCE_S."""
    return [t * REFERENCE_S / r for t, r in zip(times, references)]


def end_to_end(workload: str, setups: list[tuple[float, float]], res: dict) -> tuple[dict, dict]:
    raw_times = res["op_times"]
    times = corrected(raw_times, res["reference_times"])
    setup_times = corrected(*zip(*setups))
    items_per_op = workloads.WORKLOADS[workload][0]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "items_per_s": items_per_op * len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = {"setup_s": statistics.median(s for s, _ in setups),
           "op_p50_s": statistics.median(raw_times), "op_tail_s": tail(raw_times)[0],
           "items_per_s": items_per_op * len(raw_times) / sum(raw_times)}
    detail = {"uncorrected": raw, "setup_samples": len(setups), "setup_s_all": setup_times,
              "op_samples": len(times), "op_tail_percentile": tail_pct, "op_times_s": times,
              "uncorrected_op_times_s": raw_times, "reference_times_s": res["reference_times"]}
    return metrics, detail


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, dict, list[str]]:
    per_op = traced[0]["ops_per_cycle"]
    cycles = []
    for res in traced:
        ops = res["op_totals"]
        for c in range(0, len(ops), per_op):
            cycle: dict[str, float] = {}
            for row, ref in zip(ops[c:c + per_op], res["reference_times"][c:c + per_op]):
                for key, value in row.items():
                    if key.endswith("_s"):
                        value *= REFERENCE_S / ref
                    cycle[key] = cycle.get(key, 0) + value
            cycles.append(cycle)
    problems = []
    count_keys = sorted({k for c in cycles for k in c if not k.endswith("_s")})
    for key in count_keys:
        seen = {c.get(key, 0) for c in cycles}
        if len(seen) > 1:
            problems.append(f"count {key} differs between traced cycles: {sorted(seen)}")
    metrics = {}
    for name in PER_LAYER:
        if name == "trace_overhead_s":
            continue
        values = [c.get(name, 0) / per_op for c in cycles]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
    traced_p50 = statistics.median(
        [t for res in traced for t in corrected(res["op_times"], res["reference_times"])])
    untraced_p50 = statistics.median(corrected(untraced["op_times"],
                                               untraced["reference_times"]))
    metrics["trace_overhead_s"] = traced_p50 - untraced_p50
    detail = {"cycles": len(cycles), "ops_per_cycle": per_op,
              "traced_op_p50_s": traced_p50, "untraced_op_p50_s": untraced_p50,
              "traced_op_samples": sum(len(r["op_times"]) for r in traced),
              "untraced_op_samples": len(untraced["op_times"]),
              "span_counts": [r["span_count"] for r in traced],
              "spans_files": [r["spans_file"] for r in traced],
              "cycle_totals": cycles}
    return metrics, detail, problems


def provenance(seed: int, versions: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lexsim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), **versions,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, traced: bool, records: str,
                 deadline: float) -> dict:
    out = os.path.join(HERE, "out", workload)
    os.makedirs(out, exist_ok=True)

    def worker(role: str, secs: float, is_traced: bool) -> Worker:
        return Worker(workload, seed, secs, is_traced, records,
                      os.path.join(out, f"{role}.json"), deadline)

    if not traced:
        setups = []
        for rep in range(SETUP_REPS):
            w = worker("measure", seconds, False)
            setups.append((w.ready_s, w.ready_reference_s))
            if rep < SETUP_REPS - 1:
                w.quit()
        res = w.go()
        metrics, detail = end_to_end(workload, setups, res)
        runs, problems = [res], []
    else:
        untraced = worker("untraced", seconds / 2, False).go()
        passes = [worker(f"traced{i}", seconds / 4, True).go() for i in (1, 2)]
        metrics, detail, problems = per_layer(untraced, passes)
        runs = [untraced] + passes
    attempted = sum(len(r["op_times"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return {"workload": workload, "metrics": metrics, "detail": detail,
            "attempted": attempted, "failed": len(failures), "failures": failures[:20],
            "problems": problems, "versions": runs[0]["versions"]}


def report(res: dict, traced: bool, seed: int) -> None:
    w = res["workload"]
    items_unit = workloads.WORKLOADS[w][1]
    units = PER_LAYER if traced else END_TO_END
    print(f"== {w} (seed {seed}, {'traced' if traced else 'untraced'})")
    for name, value in res["metrics"].items():
        unit = units[name]
        if name == "items_per_s":
            unit = f"{items_unit}/s"
        print(f"  {name:40s} {value:14.6g} {unit}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':40s} {rate:14.6g} ({res['failed']}/{res['attempted']} ops failed)")
    d = res["detail"]
    if traced:
        print(f"  traced op_p50 {d['traced_op_p50_s']:.6g} s over {d['traced_op_samples']} ops, "
              f"untraced {d['untraced_op_p50_s']:.6g} s over {d['untraced_op_samples']} ops")
    else:
        print(f"  ops {d['op_samples']}, op_tail_s is the p{d['op_tail_percentile']:.1f}, "
              f"set-up samples {d['setup_samples']}")
    for line in res["failures"] + res["problems"]:
        print(f"  FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=25.0, help="measured seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", default=os.path.join(HERE, "records.json"),
                    help="recorded outputs to check against (default: records.json)")
    args = ap.parse_args(argv)

    missing = [p for p in (os.path.join(ROOT, "src", "lexsim", "__init__.py"),
                           os.path.join(ROOT, "configs"), args.records)
               if not os.path.exists(p)]
    if missing:
        print(f"error: not a lexsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traced = bool(args.trace)
    results = []
    try:
        for w in selected:
            results.append(run_workload(w, args.seed, args.seconds, traced,
                                        os.path.abspath(args.records),
                                        perf_counter() + DEADLINE_S))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for res in results:
        report(res, traced, args.seed)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    units = PER_LAYER if traced else END_TO_END
    metrics = {}
    for res in results:
        prefix = "" if args.workload else f"{res['workload']}."
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}

    stem = f"{args.workload or 'all'}-seed{args.seed}-trace{args.trace}"
    path = os.path.join(HERE, "out", f"results-{stem}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": provenance(args.seed, results[0]["versions"]),
                   "seconds": args.seconds, "trace": args.trace, "correct": correct,
                   "workloads": results}, fh, indent=1)
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
