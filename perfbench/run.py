"""The riwfa benchmark: drives ``riwfa.cli.main(argv)`` on generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
Each run

1. writes the workload's scenario files from ``--seed`` (``workloads.py``),
2. times the import of ``riwfa.cli`` in fresh interpreters (set-up),
3. starts one worker process (``worker.py``, one BLAS thread) that runs one
   untimed warm-up op and then whole passes over the workload's op list
   for ``--seconds``, with ``--jobs 1`` wherever the CLI takes it,
4. checks every distinct output against the numpy reference
   (``reference.py``) and every repeat against the first output,
5. prints a record line with the environment and all seven end-to-end
   figures, then the result line ``{"correct", "attempted", "failed",
   "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the worker runs untraced passes for half the time and then one pass with
the program's public functions wrapped (``tracer.py``); the metrics are the
per-layer ones, per op of that pass, and the spans go to
``.perfbench_out/<workload>-s<seed>/spans.tsv``.

Times are given at a reference host speed.  On a shared 2-vCPU Xeon VM the
host's speed drifts: for seconds to minutes at a time everything runs 1.8
to 4 times slower, and a whole run can fall inside such a stretch.  So the
worker times a fixed calibration loop next to every op (and next to every
set-up import), and every time is reported scaled by
``REFERENCE_CALIBRATION_S`` over the calibration time next to it: the time
the op takes on a host that runs the loop in exactly 1 ms.  On that VM the
loop takes about 1 ms at the usual speed, so reference times read close to
wall times there.  Over twenty certify runs on it, raw median op times
ranged from 14.4 to 23.1 ms while the reference median stayed within 12.25
to 12.65 ms.  The record line also carries the raw wall-clock figures.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 6
REFERENCE_CALIBRATION_S = 1e-3
DEADLINE_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(seed: int) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "git_sha": sha, "seed": seed, "src_lines": src_lines}


def worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; a timeout kills it and waits for it."""
    return subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run the benchmark in a child process; returns (record, result)."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=DEADLINE_S + 10)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def setup_samples(deadline: float) -> list[tuple[float, float]]:
    """(import seconds, calibration seconds right after) of fresh
    interpreters that only import ``riwfa.cli``."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = worker(["--import-only", "src"], deadline - time.monotonic())
        if done.returncode != 0:
            raise RuntimeError(f"import of riwfa.cli failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["import_s"], probe["calibration_s"]))
    return samples


def reference_time(seconds: float, calibration_s: float) -> float:
    """``seconds`` at the speed where the calibration loop takes 1 ms."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def nearest_rank(values, percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def timing(samples, ops_count: int, tail_percentile, scaled: bool = True) -> dict:
    """Pass time, median and tail op time of the samples, in reference
    time (or in wall time with ``scaled=False``)."""
    times = [reference_time(s[2], (s[5] + s[6]) / 2) if scaled else s[2] for s in samples]
    per_op = [statistics.median(t for s, t in zip(samples, times) if s[1] == index)
              for index in range(ops_count)]
    tail = tail_percentile(len(times))
    return {"workload_s": sum(per_op),
            "op_ms_p50": 1e3 * statistics.median(times),
            "op_ms_tail": 1e3 * nearest_rank(times, tail),
            "tail_percentile": tail, "ops_timed": len(times)}


def layer_metrics(trace: dict, timed: dict, layers) -> dict:
    """Per-layer metrics, per op of the traced pass.  Times are scaled to
    reference speed by the traced pass's own calibrations."""
    summary, counts, n = trace["summary"], trace["counts"], trace["ops"]
    to_ref_ms = 1e3 * trace["traced_pass_ref_s"] / trace["traced_pass_s"]

    def calls(*names):
        return sum(summary.get(name, {}).get("calls", 0) for name in names)

    def total_ms(*names):
        return to_ref_ms * sum(summary.get(name, {}).get("total_s", 0.0) for name in names)

    def self_ms(*names):
        return to_ref_ms * sum(summary.get(name, {}).get("self_s", 0.0) for name in names)

    def layer_self_s(layer):
        return sum(row["self_s"] for name, row in summary.items()
                   if name.startswith(layer + "."))

    iterations = counts.get("dynamics.iterations", 0)
    wasted = trace["replayed_iterations"] - trace["useful_replayed_iterations"]
    certificates = counts.get("analysis.certificates", 0)
    waterfills = calls("waterfill.waterfill")
    metrics = {
        "model.interference_calls": calls("model.normalized_interference") / n,
        "model.interference_ms": total_ms("model.normalized_interference") / n,
        "model.load_ms": total_ms("model.load_scenario") / n,
        "waterfill.calls": waterfills / n,
        "waterfill.us_per_call": (1e3 * total_ms("waterfill.waterfill") / waterfills
                                  if waterfills else 0.0),
        "waterfill.best_response_calls": calls("waterfill.best_response") / n,
        "dynamics.iterations": iterations / n,
        "dynamics.useful_iter_frac": (iterations - wasted) / iterations if iterations else 0.0,
        "dynamics.schedule_ms": total_ms("dynamics.generate_schedule") / n,
        "dynamics.run_self_ms": self_ms("dynamics.run") / n,
        "dynamics.residual_ms": total_ms("dynamics.fixed_point_residual") / n,
        "analysis.cert_ms": total_ms("analysis.check_rne_uniqueness",
                                     "analysis.check_async_convergence",
                                     "analysis.interference_upper_bounds") / n,
        "analysis.norm_calls": calls("analysis.operator_norm_2") / n,
        "analysis.norm_ms": total_ms("analysis.operator_norm_2") / n,
        "analysis.cert_passed_frac": (counts.get("analysis.certificates_passed", 0)
                                      / certificates if certificates else 0.0),
        "analysis.report_ms": total_ms("analysis.per_user_utilities",
                                       "analysis.orthogonality_index") / n,
        "analysis.sweep_self_ms": self_ms("analysis.epsilon_sweep",
                                          "analysis.delta0_sweep") / n,
        "cli.self_ms": to_ref_ms * layer_self_s("cli") / n,
        "cli.output_bytes": trace["output_bytes"] / n,
    }
    for layer in layers:
        metrics[f"{layer}.self_share"] = layer_self_s(layer) / trace["traced_pass_s"]
    metrics["trace.overhead"] = trace["traced_pass_ref_s"] / timed["workload_s"]
    return metrics


UNITS = {"workload_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "converged_frac": "ratio", "fail_frac": "ratio"}


def benchmark_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv) -> int:
    deadline = time.monotonic() + DEADLINE_S
    args = parse_args(argv)
    if not (ROOT / "src" / "riwfa" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'riwfa'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracer import LAYERS

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = benchmark_units()
    run_dir = Path(OUT_DIR) / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.build_ops(args.workload, args.seed, str(run_dir / "inputs"))
    tag = f"t{args.trace}"
    plan = {"src": "src", "ops": ops, "seconds": args.seconds, "trace": args.trace,
            "spans": str(run_dir / "spans.tsv")}
    (run_dir / f"plan-{tag}.json").write_text(json.dumps(plan, indent=1))

    setup = [] if args.trace else setup_samples(deadline)
    try:
        done = worker([str(run_dir / f"plan-{tag}.json"), str(run_dir / f"result-{tag}.json")],
                      deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print("error: the workload process did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: the workload process failed:\n{done.stderr}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / f"result-{tag}.json").read_text())

    # Correctness: every distinct output against the reference, every
    # repeat against the first output.
    games, bad_ops, problems = {}, set(), {}
    runs_per_op = {}
    for key, text in result["outputs"].items():
        index = int(key)
        found, runs, converged = workloads.check_output(
            ops[index], result["codes"][key], text, games)
        runs_per_op[index] = (runs, converged)
        if found:
            bad_ops.add(index)
            problems[index] = found + ([result["errors"][key]] if key in result["errors"] else [])
    samples = result["samples"]
    failed = sum(1 for s in samples if s[1] in bad_ops or s[3] != ops[s[1]]["expect"])
    failed = min(len(samples), failed + sum(result["mismatches"].values()))
    for key, count in result["mismatches"].items():
        problems.setdefault(int(key), []).append(f"{count} repeats gave a different output")
    runs = sum(runs_per_op.get(s[1], (0, 0))[0] for s in samples)
    converged = sum(runs_per_op.get(s[1], (0, 0))[1] for s in samples)

    untraced = [s for s in samples if not s[7]]
    timed = timing(untraced, len(ops), workloads.tail_percentile)
    wall = timing(untraced, len(ops), workloads.tail_percentile, scaled=False)
    setup.append((result["import_s"], result["import_calibration_s"]))
    figures = {
        "workload_s": timed["workload_s"],
        "op_ms_p50": timed["op_ms_p50"],
        "op_ms_tail": timed["op_ms_tail"],
        "setup_s": statistics.median(reference_time(t, cal) for t, cal in setup),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "converged_frac": converged / runs if runs else None,
        "fail_frac": failed / len(samples),
    }
    calibrations = sorted(c for s in untraced for c in (s[5], s[6]))
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "end_to_end": {name: {"value": value, "unit": UNITS[name]}
                             for name, value in figures.items()},
              "wall_clock": {"workload_s": wall["workload_s"], "op_ms_p50": wall["op_ms_p50"],
                             "op_ms_tail": wall["op_ms_tail"],
                             "setup_s": statistics.median(t for t, _ in setup)},
              "calibration_ms_p10_p50_p90": [1e3 * calibrations[len(calibrations) * k // 10]
                                             for k in (1, 5, 9)],
              "tail_percentile": timed["tail_percentile"], "ops_timed": timed["ops_timed"],
              "passes": result["passes"], "ops_per_pass": len(ops),
              "setup_samples_s": [t for t, _ in setup], "warmup_s": result["warmup_s"],
              "problems": {str(k): v[:5] for k, v in sorted(problems.items())}}

    if args.trace:
        trace = result["trace"]
        traced = [s for s in samples if s[7]]
        trace["output_bytes"] = sum(s[4] for s in traced)
        trace["traced_pass_ref_s"] = sum(reference_time(s[2], (s[5] + s[6]) / 2) for s in traced)
        per_layer = layer_metrics(trace, timed, LAYERS)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in units["per_layer"].items()}
        wall = trace["traced_pass_s"]
        record["top_self"] = [
            {"name": name, "self_share": row["self_s"] / wall, "calls": row["calls"]}
            for name, row in sorted(trace["summary"].items(),
                                    key=lambda item: -item[1]["self_s"])[:8]]
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in units["end_to_end"].items()}

    for name, item in record["end_to_end"].items():
        print(f"{args.workload:12s} {name:16s} {item['value']!s:>24} {item['unit']}",
              file=sys.stderr)
    for row in record.get("top_self", []):
        print(f"{args.workload:12s} self {row['name']:40s} {row['self_share']:7.1%}",
              file=sys.stderr)
    for index, found in sorted(problems.items()):
        print(f"{args.workload}: op {index} {ops[index]['argv']}: {found[:3]}", file=sys.stderr)
    (run_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
