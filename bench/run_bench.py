#!/usr/bin/env python3
"""Time riwfa layer by layer and end to end, and write one BENCH_<n>.json.

    python3 bench/run_bench.py [--out PATH]

Without ``--out`` the file is the repository root's next free BENCH_<n>.json.
The script needs only the standard library and numpy, and imports riwfa from
this checkout's ``src/``.  It writes:

- ``machine``: nproc, the Python and numpy versions, the git SHA, whether
  ``src/`` differs from that commit, and the ``src/`` line count;
- ``rows``: one entry per measurement, each with its unit, the median, the
  quartiles and every sample.  Layer rows (the water-fill on one row and on
  stacks, the all-users interference, one residual round, the certificates,
  one sequential reply at M = 64, K = 1024 and one of fig4's tail of 10
  games) are the per-call time of REPEATS timed batches.  Play rows time
  whole ``run()`` calls and divide by the replies or ticks they played, or
  give the time per run with the ticks played.  Preset rows are the wall
  time of ``python3 -m riwfa reproduce PRESET --jobs 1`` in a fresh
  interpreter, import included, with each run's exit code.  The fig4 call
  counts come from one cProfile sample, and the equilibrium scan from one
  timed sample;
- ``tier1``: the Tier-1 suite's wall time, its pass and fail counts and its
  five slowest tests.

``calibration`` rows time a fixed pure-Python loop at the start and at the
end.  The host's speed can drift by a factor of two for minutes, so compare
two BENCH files only through samples taken side by side, or scale by these.
"""
from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import platform
import pstats
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riwfa import (ENSEMBLES, GridSpec, RunConfig, Schedule, UncertaintySpec,  # noqa: E402
                   check_async_convergence, check_rne_uniqueness, exhaustive_equilibrium_scan,
                   fixed_point_residual, random_scenario, run, uniform_profile)
from riwfa.cli import _draws, main as cli_main  # noqa: E402
from riwfa.dynamics import _stacks  # noqa: E402
from riwfa.model import _interference  # noqa: E402
from riwfa.waterfill import _replies, _waterfill  # noqa: E402

REPEATS = 7          # timed batches per layer row
PLAY_REPEATS = 5     # run() calls per play row
PRESET_REPEATS = 3   # subprocesses per preset
BATCH_S = 0.05       # a layer row's batch runs at least this long
PRESETS = ("table3", "table4", "fig1", "fig2", "fig3", "fig4")


def _row(name: str, unit: str, samples: list[float], **extra) -> dict:
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"name": name, "unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples, **extra}


def _per_call(fn, scale: float) -> list[float]:
    """Per-call time of ``fn`` in REPEATS batches, times ``scale``."""
    fn()
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= BATCH_S:
            break
        number *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number * scale)
    return samples


def _calibration() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def layer_rows() -> list[dict]:
    rows = []
    rng = np.random.default_rng(0)
    for k in (6, 64, 1024):
        s, mask = rng.uniform(0.1, 2.0, k), rng.uniform(0.5, 2.0, k)
        p_max = 0.3 * float(mask.sum())
        rows.append(_row(f"_waterfill one row, K={k}", "us",
                         _per_call(lambda: _waterfill(s, p_max, mask), 1e6)))
    for b in (2, 8, 64, 640):
        s, mask = rng.uniform(0.1, 2.0, (b, 64)), rng.uniform(0.5, 2.0, (b, 64))
        p_max = 0.3 * mask.sum(axis=1)
        rows.append(_row(f"_waterfill stack, K=64, B={b}", "us",
                         _per_call(lambda: _waterfill(s, p_max, mask), 1e6)))
    sc = random_scenario(8, 64, seed=7, **ENSEMBLES["high"])
    profile = uniform_profile(sc.constraints)
    ch = sc.channel
    rows.append(_row("_interference all users, 8x64", "us", _per_call(
        lambda: _interference(ch.cross_gains, ch.noise, ch.direct_gains, profile), 1e6)))
    rows.append(_row("fixed_point_residual, 8x64", "ms",
                     _per_call(lambda: fixed_point_residual(profile, sc), 1e3)))
    low = random_scenario(8, 64, seed=7, **ENSEMBLES["low"]).with_uncertainty(
        UncertaintySpec.uniform(8, 64, 0.5))
    rows.append(_row("check_rne_uniqueness, 8x64", "ms",
                     _per_call(lambda: check_rne_uniqueness(low), 1e3)))
    rows.append(_row("check_async_convergence, 8x64", "ms",
                     _per_call(lambda: check_async_convergence(low), 1e3)))
    rows.append(_row("one sequential reply (user 0), high 64x1024 (seed 7)", "us",
                     _per_call(_reply_call([random_scenario(64, 1024, seed=7,
                                                            **ENSEMBLES["high"])]), 1e6)))
    tail = UncertaintySpec.uniform(8, 64, 0.8, mode="probabilistic", delta0=0.0)
    rows.append(_row("one sequential reply (user 0), fig4's tail: 10 games on 10 high 8x64 "
                     "channels (seeds 900-909), probabilistic eps 0.8 at delta0 0", "us",
                     _per_call(_reply_call([sc.with_uncertainty(tail)
                                            for sc in _draws("high", 900, 10)]), 1e6)))
    return rows


def _reply_call(games):
    """User 0's replies in every game of the batch, from a uniform profile,
    as a sequential tick makes them: one interference and one reply call."""
    cross, noise, direct, mult, p_max, mask = _stacks(games)
    profile = np.stack([uniform_profile(sc.constraints) for sc in games])
    return lambda: _replies(_interference(cross, noise, direct, profile, 0),
                            mult[:, 0], p_max[:, 0], mask[:, 0])


def _play(scenario, schedule, config) -> tuple[list[float], object]:
    seconds = []
    for _ in range(PLAY_REPEATS):
        start = time.perf_counter()
        report = run(scenario, schedule, config)
        seconds.append(time.perf_counter() - start)
    return seconds, report


def play_rows() -> list[dict]:
    rows = []
    seconds, report = _play(random_scenario(8, 64, seed=7, **ENSEMBLES["low"]),
                            Schedule("sequential"), RunConfig())
    rows.append(_row("run, low 8x64 (seed 7), sequential", "ms", [s * 1e3 for s in seconds],
                     replies=report.best_responses))
    seconds, report = _play(random_scenario(8, 64, seed=7, **ENSEMBLES["high"]),
                            Schedule("sequential"), RunConfig(max_iter=100))
    rows.append(_row("one reply, high 8x64 (seed 7, cap 100), sequential", "us",
                     [s / report.best_responses * 1e6 for s in seconds],
                     replies=report.best_responses))
    # a draw whose first repeat, at tick 36, comes just after a power of two
    sc = random_scenario(8, 64, seed=69, **ENSEMBLES["high"])
    seconds, report = _play(sc, Schedule("sequential"), RunConfig(max_iter=100))
    rows.append(_row("run, high 8x64 (seed 69, cap 100), sequential: cycles late", "ms",
                     [s * 1e3 for s in seconds], ticks=report.best_responses // sc.num_users,
                     stop_reason=report.stop_reason, cycle_period=report.cycle_period))
    # one tick of each kind on a high draw: simultaneous play falls into a
    # cycle, asynchronous play is never checked and runs to the cap
    sc = random_scenario(8, 64, seed=901, **ENSEMBLES["high"])
    for schedule in (Schedule("sequential"), Schedule("simultaneous"),
                     Schedule("asynchronous", 0.5, 3, 0)):
        seconds, report = _play(sc, schedule, RunConfig(max_iter=400))
        ticks = (report.iterations if schedule.kind == "asynchronous"
                 else report.best_responses // sc.num_users)
        what = f"high 8x64 (seed 901, cap 400), {schedule.kind}"
        if schedule.kind == "asynchronous":
            what += " (update probability 0.5, staleness 3)"
        rows.append(_row(f"one tick, {what}", "us", [s / ticks * 1e6 for s in seconds],
                         ticks=ticks, replies=report.best_responses))
        rows.append(_row(f"one reply, {what}", "us",
                         [s / report.best_responses * 1e6 for s in seconds],
                         replies=report.best_responses))
    return rows


def preset_rows(tmp: str) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    rows = []
    for preset in PRESETS:
        seconds, exit_codes = [], []
        for _ in range(PRESET_REPEATS):
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "riwfa", "reproduce", preset, "--jobs",
                                   "1", "--out-dir", tmp], env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, check=False)
            seconds.append(time.perf_counter() - start)
            exit_codes.append(done.returncode)  # a crash must not pass for a fast run
        rows.append(_row(f"reproduce {preset} --jobs 1", "s", seconds, exit_codes=exit_codes))
    return rows


def profile_rows(tmp: str) -> list[dict]:
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profiler.runcall(cli_main, ["reproduce", "fig4", "--jobs", "1", "--out-dir", tmp])
    stats = pstats.Stats(profiler).stats
    rows = []
    for module, name in (("waterfill", "_replies"), ("model", "_interference"),
                         ("dynamics", "_play")):
        (_, calls, _, cumulative, _), = [
            v for (path, _, function), v in stats.items()
            if function == name and Path(path).match(f"riwfa/{module}.py")]
        rows.append(_row(f"fig4 under cProfile: {name} calls", "calls", [calls]))
        rows.append(_row(f"fig4 under cProfile: {name} cumulative", "s", [cumulative]))
    return rows


def scan_rows() -> list[dict]:
    sc = random_scenario(2, 3, seed=4, cross_range=(0, 0.5))
    start = time.perf_counter()
    hits = exhaustive_equilibrium_scan(sc, GridSpec(0.1))
    return [_row("exhaustive_equilibrium_scan, 2x3 (seed 4) at resolution 0.1", "s",
                 [time.perf_counter() - start], hits=len(hits))]


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider", "--durations=5"], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=False).stdout
    wall = time.perf_counter() - start
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", out)}
    slowest = [{"seconds": float(s), "test": test}
               for s, test in re.findall(r"^([\d.]+)s call\s+(\S+)$", out, re.M)]
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "slowest": slowest}


def machine() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=False).stdout.strip()
    src = sorted((ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": git("rev-parse", "HEAD"),
            "src_differs_from_sha": bool(git("status", "--porcelain", "--", "src")),
            "src_lines": sum(len(p.read_text().splitlines()) for p in src)}


def _next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="output file (default: next BENCH_<n>.json)")
    out = parser.parse_args().out or _next_path()
    rows = [_row("calibration at start: 20,000-step Python loop", "us",
                 _per_call(_calibration, 1e6))]
    with tempfile.TemporaryDirectory() as tmp:
        for part in (layer_rows, play_rows, scan_rows, lambda: preset_rows(tmp),
                     lambda: profile_rows(tmp)):
            rows += part()
            print(f"{len(rows)} rows", file=sys.stderr)
    rows.append(_row("calibration at end: 20,000-step Python loop", "us",
                     _per_call(_calibration, 1e6)))
    result = {"schema": 1, "machine": machine(), "rows": rows, "tier1": tier1()}
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
