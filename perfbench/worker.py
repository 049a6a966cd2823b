"""The workload process: times ``riwfa.cli.main(argv)`` ops of one plan.

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON
    python3 perfbench/worker.py --import-only SRC_DIR

``run.py`` writes the plan and starts this process once per run, so the
program is measured in a fresh interpreter that imports nothing of the
benchmark but this file and the tracer.  ``--import-only`` times the import
of ``riwfa.cli`` and one calibration loop after it, and prints both;
``run.py`` uses it for extra set-up samples.

Between two ops the worker times a fixed calibration loop.  The host's speed
drifts, and ``run.py`` scales each op's time by the calibration times on
both sides of it.
"""
from __future__ import annotations

import os

# Before numpy is imported, by the program or by the calibration loop.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

CALIBRATION_STEPS = 210
SETTLE_LOOPS = 7


def import_cli(src: str):
    """Import ``riwfa.cli`` from ``src`` and return (module, seconds)."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import riwfa.cli
    elapsed = time.perf_counter() - start
    if not os.path.abspath(riwfa.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"riwfa was imported from {riwfa.cli.__file__}, not {src}")
    return riwfa.cli, elapsed


class Calibration:
    """A fixed loop of small numpy calls, the same kind of work as the
    program's inner loops, that no program change can speed up."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._s = np.linspace(0.0, 1.0, 64)
        self._mask = np.ones(64)
        self()  # the first call pays numpy's one-time costs

    def __call__(self) -> float:
        np, s, mask = self._np, self._s, self._mask
        start = time.perf_counter()
        total = 0.0
        for step in range(CALIBRATION_STEPS):
            total += float(np.clip(0.5 + 1e-3 * step - s, 0.0, mask).sum())
        return time.perf_counter() - start

    def settled(self) -> float:
        """Median of several loops: the host's speed around a one-off
        event such as an import, which no loop brackets."""
        return statistics.median(self() for _ in range(SETTLE_LOOPS))


def run_op(cli, argv):
    """One op: (seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Recorder:
    """Keeps the first output of each op and counts later outputs that
    differ from it, so only one copy per distinct op stays in memory."""

    def __init__(self):
        self.outputs: dict[int, str] = {}
        self.codes: dict[int, int | None] = {}
        self.errors: dict[int, str] = {}
        self.mismatches: dict[int, int] = {}
        self.samples: list[list] = []

    def keep(self, index, code, text, err):
        if index not in self.outputs:
            self.outputs[index], self.codes[index] = text, code
            if err:
                self.errors[index] = err[-2000:]
        elif text != self.outputs[index] or code != self.codes[index]:
            self.mismatches[index] = self.mismatches.get(index, 0) + 1

    def add(self, pass_no, index, elapsed, code, text, err, cal_before, cal_after,
            traced=False):
        self.keep(index, code, text, err)
        self.samples.append([pass_no, index, elapsed, code, len(text),
                             cal_before, cal_after, int(traced)])


def run_pass(cli, ops, recorder, calibrate, pass_no, traced=False) -> float:
    """All ops of the plan once, in order; returns the summed op time."""
    total = 0.0
    cal_before = calibrate()
    for index, op in enumerate(ops):
        elapsed, code, text, err = run_op(cli, op["argv"])
        cal_after = calibrate()
        recorder.add(pass_no, index, elapsed, code, text, err, cal_before, cal_after,
                     traced)
        cal_before = cal_after
        total += elapsed
    return total


def first_repeat(trajectory) -> int | None:
    """Iteration at which the profile first equals an earlier one."""
    seen = set()
    for t, profile in enumerate(trajectory):
        key = profile.tobytes()
        if key in seen:
            return t
        seen.add(key)
    return None


def useful_iterations(ops, recorder) -> tuple[int, int]:
    """(useful, run) iterations of the plan's ``run`` ops that did not
    converge: useful ones end at the first exact repeat of the profile.
    Each op's scenario is replayed through the public ``run`` with its
    trajectory recorded."""
    from riwfa.dynamics import RunConfig, Schedule, run
    from riwfa.model import load_scenario

    useful = total = 0
    for index, op in enumerate(ops):
        replay = op.get("replay")
        if replay is None:
            continue
        try:
            converged = json.loads(recorder.outputs[index])["report"]["converged"]
        except (ValueError, KeyError, TypeError):
            continue  # run.py reports the unreadable output
        if converged:
            continue
        result = run(load_scenario(replay["scenario"]), Schedule(kind="sequential"),
                     RunConfig(max_iter=replay["max_iter"], record_trajectory=True))
        repeat = first_repeat(result.trajectory)
        total += result.iterations
        useful += result.iterations if repeat is None else min(repeat, result.iterations)
    return useful, total


def _run_probe(report) -> dict:
    return {"dynamics.iterations": getattr(report, "iterations", 0), "dynamics.runs": 1,
            "dynamics.converged_runs": int(bool(getattr(report, "converged", False)))}


def _certificate_probe(result) -> dict:
    return {"analysis.certificates": 1,
            "analysis.certificates_passed": int(bool(getattr(result, "passed", False)))}


# Counts taken from return values at the traced boundaries.
PROBES = {
    "dynamics.run": _run_probe,
    "analysis.check_rne_uniqueness": _certificate_probe,
    "analysis.check_async_convergence": _certificate_probe,
}


def main(argv) -> int:
    if argv[:1] == ["--import-only"]:
        _, elapsed = import_cli(argv[1])
        print(json.dumps({"import_s": elapsed, "calibration_s": Calibration().settled()}))
        return 0
    plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli, import_s = import_cli(plan["src"])
    calibrate = Calibration()
    import_calibration_s = calibrate.settled()
    ops = plan["ops"]
    recorder = Recorder()

    # Warm-up: one untimed op, checked like the others.
    warmup_s, code, text, err = run_op(cli, ops[0]["argv"])
    recorder.keep(0, code, text, err)

    budget = plan["seconds"] * (0.5 if plan["trace"] else 1.0)
    start = time.perf_counter()
    pass_no = 0
    while pass_no == 0 or time.perf_counter() - start < budget:
        run_pass(cli, ops, recorder, calibrate, pass_no)
        pass_no += 1

    trace = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(probes=PROBES)
        tracer.install()
        try:
            traced_s = run_pass(cli, ops, recorder, calibrate, pass_no, traced=True)
        finally:
            tracer.uninstall()
        tracer.write(plan["spans"])
        useful, replayed = useful_iterations(ops, recorder)
        trace = {"summary": tracer.summary(), "counts": tracer.counts,
                 "traced_pass_s": traced_s, "ops": len(ops),
                 "replayed_iterations": replayed, "useful_replayed_iterations": useful}

    result = {
        "import_s": import_s,
        "import_calibration_s": import_calibration_s,
        "warmup_s": warmup_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": pass_no,
        "samples": recorder.samples,
        "outputs": recorder.outputs,
        "codes": recorder.codes,
        "errors": recorder.errors,
        "mismatches": recorder.mismatches,
        "trace": trace,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
