"""Command-line front end: run equilibria, sweep uncertainty, check
certificates, and reproduce the bundled benchmark experiments.

Exit codes: 0 on success (convergence / all required checks pass), 2 when a
run fails to converge or a required reproduction check fails (outputs are
still written), 1 on input errors, each reported by `main` as one `error:`
line, a usage mistake too.  Identical commands with identical seeds produce
byte-identical output files; every output embeds its resolved configuration.

`sweep` and every `reproduce` preset play their games through one engine,
`dynamics.sweep_reports`, which plays a list of realized scenarios: the CLI
alone decides which channels those are (`_resolve_source` for `--scenario`
or `--generate`), and `_draws` draws every generated channel, for
`--generate` and the fig presets alike.  A preset is a declaration of its
channels, specs and checks, and `cmd_reproduce` writes its files and verdict.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from .analysis import check_async_convergence, check_rne_uniqueness
from .dynamics import (
    SCHEDULE_KINDS,
    RunConfig,
    Schedule,
    SweepResult,
    run,
    sweep_reports,
    write_summary_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .model import (
    ENSEMBLES,
    MODES,
    Scenario,
    UncertaintySpec,
    _dumps,
    load_bundled_scenario,
    load_scenario,
    profile_feasible,
    random_scenario,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED = 2

TABLE3_UTILITIES = (1.92, 3.82, 10.9)
TABLE3_SUPPORTS = ({0, 1, 3}, {1, 2}, {1, 2, 4, 5})
TABLE4_UTILITIES = (1.93, 3.95, 11.17)
TABLE4_SUPPORTS = ({0, 3}, {1, 2}, {4, 5})
UTILITY_TOLERANCE = 0.1

FIG_EPS_GRID = (0.0, 0.25, 0.5, 1.0)
FIG_DELTA0_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
FIG_DELTA0_EPS = 0.8
MONOTONE_TOL = 1e-9
FIG_USERS, FIG_SUBCHANNELS = 8, 64


class CliError(Exception):
    """Input error: bad flags, malformed scenario, unknown preset."""


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises each usage mistake for `main` to report; its subparsers share the class."""

    def error(self, message):
        raise CliError(message)


def _ranged(kind, accepts, bounds: str):
    """An argparse type: a ``kind`` (int or float) for which ``accepts`` holds;
    no range accepts nan."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if accepts(kind(text)):
                return kind(text)
        raise argparse.ArgumentTypeError(f"must be {bounds}, got {text!r}")
    return parse


def _at_least(low: int):
    return _ranged(int, lambda v: v >= low, f"an integer >= {low}")


_EPS = _ranged(float, lambda v: 0 <= v < np.inf, "a finite number >= 0")
_DELTA0 = _ranged(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _grid(value):
    """An argparse type: comma-separated values, each one ``value`` accepts."""
    def parse(text: str) -> np.ndarray:
        items = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"must not be empty, got {text!r}")
        return np.array([value(item) for item in items])
    return parse


def _check_output_path(path: str) -> str:
    """An argparse type that rejects a path naming a directory or lying in a
    missing one, so no game is played nor file written before it is checked.
    It raises `CliError`, since argparse would prefix an ArgumentTypeError."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise CliError(f"cannot write {path}: not a file in an existing directory")
    return path


def _add_source_flags(parser):
    group = parser.add_argument_group("scenario source (exactly one)")
    group.add_argument("--scenario", metavar="FILE",
                       help="JSON scenario file to load")
    group.add_argument("--generate", choices=tuple(ENSEMBLES),
                       help="draw a random scenario from the named ensemble")
    group.add_argument("--users", type=_at_least(1),
                       help="users for --generate (default 8)")
    group.add_argument("--subchannels", type=_at_least(1),
                       help="sub-channels for --generate (default 64)")
    group.add_argument("--seed", type=_at_least(0),
                       help="channel seed for --generate (default 0)")


def _add_uncertainty_flags(parser):
    group = parser.add_argument_group("uncertainty override")
    group.add_argument("--mode", choices=MODES,
                       help="override the scenario's uncertainty mode")
    group.add_argument("--eps", type=_EPS,
                       help="uniform eps bound (implies --mode worstcase "
                            "unless --mode is given)")
    group.add_argument("--delta0", type=_DELTA0,
                       help="protection level for probabilistic mode")


def _add_dynamics_flags(parser, schedules):
    group = parser.add_argument_group("dynamics")
    group.add_argument("--schedule", default="sequential", choices=schedules)
    group.add_argument("--init", default="zero", choices=("zero", "uniform"))
    group.add_argument("--tol", default=RunConfig.tol,
                       type=_ranged(float, lambda v: 0 < v < np.inf, "a finite number > 0"))
    group.add_argument("--max-iter", type=_at_least(1), default=RunConfig.max_iter)
    return group


# Built once per process; parsing leaves it unchanged.  Building it costs about
# a fifth of a `check` call and leaves some 300 objects for the cycle collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riwfa",
        description="Robust iterative water-filling: equilibria, uncertainty "
                    "sweeps, convergence certificates, benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="iterate best responses to equilibrium")
    _add_source_flags(p_run)
    _add_uncertainty_flags(p_run)
    group = _add_dynamics_flags(p_run, SCHEDULE_KINDS)
    group.add_argument("--update-prob",
                       type=_ranged(float, lambda v: 0 < v <= 1, "a number in (0, 1]"),
                       help="per-tick update probability (asynchronous run; default 1)")
    group.add_argument("--max-staleness", type=_at_least(0),
                       help="oldest usable snapshot age (asynchronous run; default 0)")
    group.add_argument("--schedule-seed", type=_at_least(0),
                       help="seed for asynchronous schedule draws (default 0)")
    p_run.add_argument("--out", metavar="FILE", type=_check_output_path,
                       help="report JSON path (default: stdout)")
    p_run.add_argument("--trajectory", metavar="FILE", type=_check_output_path,
                       help="also write the full trajectory CSV here")
    p_run.add_argument("--summary", metavar="FILE", type=_check_output_path,
                       help="also write the per-iteration residual and social "
                            "utility CSV here")

    p_sweep = sub.add_parser("sweep", help="social utility along an eps or "
                                           "delta0 grid")
    _add_source_flags(p_sweep)
    _add_uncertainty_flags(p_sweep)
    _add_dynamics_flags(p_sweep, ("sequential", "simultaneous"))
    grids = p_sweep.add_mutually_exclusive_group(required=True)
    grids.add_argument("--eps-grid", metavar="E1,E2,...", type=_grid(_EPS),
                       help="comma-separated eps values")
    grids.add_argument("--delta0-grid", metavar="D1,D2,...", type=_grid(_DELTA0),
                       help="comma-separated delta0 values (needs --eps)")
    p_sweep.add_argument("--realizations", type=_at_least(1),
                         help="channel draws per grid point (default 20 with "
                              "--generate; a --scenario file is one realization)")
    p_sweep.add_argument("--jobs", type=_at_least(1), default=1,
                         help="parallel worker processes")
    p_sweep.add_argument("--out", metavar="FILE", type=_check_output_path,
                         help="sweep CSV path (default: stdout)")

    p_check = sub.add_parser("check", help="evaluate the uniqueness and "
                                           "asynchronous-convergence certificates")
    _add_source_flags(p_check)
    _add_uncertainty_flags(p_check)
    p_check.add_argument("--out", metavar="FILE", type=_check_output_path,
                         help="certificate JSON path (default: stdout)")

    p_rep = sub.add_parser("reproduce", help="run a bundled benchmark preset")
    p_rep.add_argument("preset", choices=tuple(PRESETS))
    p_rep.add_argument("--out-dir", default=".",
                       help="directory for report and data files (default: .)")
    p_rep.add_argument("--realizations", type=_at_least(1),
                       help="override the preset's realization count")
    p_rep.add_argument("--jobs", type=_at_least(1), default=1,
                       help="parallel workers where the preset sweeps")
    return parser


def _draws(ensemble: str, seed: int, count: int,
           m: int = FIG_USERS, k: int = FIG_SUBCHANNELS) -> list[Scenario]:
    """The `count` m x k channels of `ensemble` drawn at seeds `seed`, `seed + 1`, ..."""
    return [random_scenario(m, k, seed=s, **ENSEMBLES[ensemble])
            for s in range(seed, seed + count)]


def _resolve_source(args, count: int = 1) -> tuple[list[Scenario], dict]:
    """Return (scenarios, source description dict): the --scenario file, or
    the `count` channels --generate draws at seeds --seed, --seed + 1, ...
    A --scenario file is one channel, so `count` must be 1 for it."""
    if (args.scenario is None) == (args.generate is None):
        raise CliError("exactly one of --scenario or --generate is required")
    for name, default in (("users", 8), ("subchannels", 64), ("seed", 0)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.scenario is not None:
            raise CliError(f"--{name} applies only to --generate")
    if args.scenario is not None:
        try:
            scenario = load_scenario(args.scenario)
        except OSError as exc:
            raise CliError(f"cannot read scenario file: {exc}") from None
        except (ValueError, KeyError) as exc:
            raise CliError(f"malformed scenario file: {exc}") from None
        if count != 1:
            raise CliError("a --scenario file is one realization: --realizations must be 1")
        return [scenario], {"scenario": args.scenario}
    scenarios = _draws(args.generate, args.seed, count, args.users, args.subchannels)
    return scenarios, {"generate": args.generate, "users": args.users,
                       "subchannels": args.subchannels, "seed": args.seed}


def _uncertainty(mode: str, eps, delta0, m: int, k: int) -> UncertaintySpec:
    """The spec that --mode/--eps/--delta0 name.  A flag the mode ignores
    would still be echoed into the output config, so it is an input error."""
    if delta0 is not None and mode != "probabilistic":
        raise CliError("--delta0 applies only to --mode probabilistic")
    if mode == "nominal":
        if eps is not None:
            raise CliError("--eps does not apply to --mode nominal")
        return UncertaintySpec.nominal(m, k)
    if eps is None:
        raise CliError(f"--mode {mode} requires --eps")
    if mode == "probabilistic" and delta0 is None:
        raise CliError("--mode probabilistic requires --delta0")
    return UncertaintySpec.uniform(m, k, eps, mode=mode, delta0=delta0)


def _resolve_scenario(args, scenario: Scenario) -> Scenario:
    """Apply --mode/--eps/--delta0 to the scenario."""
    if args.mode is None and args.eps is None and args.delta0 is None:
        return scenario
    return scenario.with_uncertainty(_uncertainty(
        args.mode or "worstcase", args.eps, args.delta0,
        scenario.num_users, scenario.num_subchannels))


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as indented, key-sorted JSON to ``out`` (None: stdout)."""
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        fh.write(_dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# run / sweep / check
# ---------------------------------------------------------------------------

def _report_dict(report) -> dict:
    """The report's fields, arrays as lists, without the per-tick log."""
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
              if f.name not in ("trajectory", "step_residuals")}
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in values.items()}


def cmd_run(args) -> int:
    [scenario], source_desc = _resolve_source(args)
    # only an asynchronous run reads these flags; absent, they take their defaults
    for name, default in (("update_prob", 1.0), ("max_staleness", 0), ("schedule_seed", 0)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.schedule != "asynchronous":
            raise CliError(f"--{name.replace('_', '-')} applies only to run --schedule asynchronous")
    scenario = _resolve_scenario(args, scenario)
    config = RunConfig(init=args.init, tol=args.tol, max_iter=args.max_iter,
                       record_trajectory=args.trajectory is not None
                       or args.summary is not None)
    schedule = (Schedule(args.schedule, args.update_prob, args.max_staleness,
                         args.schedule_seed)
                if args.schedule == "asynchronous" else Schedule(args.schedule))
    try:
        report = run(scenario, schedule, config)
    except MemoryError:
        raise CliError(f"a run of --max-iter {args.max_iter} ticks does not fit in memory: lower "
                       "--max-iter or --max-staleness, or drop --trajectory/--summary") from None

    resolved = {"command": "run", **source_desc,
                "mode": scenario.uncertainty.mode,
                "eps": args.eps, "delta0": args.delta0,
                "schedule": args.schedule, "update_prob": args.update_prob,
                "max_staleness": args.max_staleness,
                "schedule_seed": args.schedule_seed,
                "init": args.init, "tol": args.tol, "max_iter": args.max_iter}
    payload = {"config": resolved, "report": _report_dict(report)}
    _emit(payload, args.out)
    preamble = json.dumps(resolved, sort_keys=True)
    if args.trajectory is not None:
        write_trajectory_csv(report, args.trajectory, preamble=preamble)
    if args.summary is not None:
        write_summary_csv(report, scenario, args.summary, preamble=preamble)
    return EXIT_OK if report.converged else EXIT_FAILED


def cmd_sweep(args) -> int:
    # each grid point stands for --eps (or --delta0) and obeys its rules
    flag, parameter, mode = (("eps", "epsilon", args.mode or "worstcase")
                             if args.eps_grid is not None
                             else ("delta0", "delta0", args.mode or "probabilistic"))
    if getattr(args, flag) is not None:
        raise CliError(f"--{flag}-grid replaces --{flag}")
    grid = getattr(args, f"{flag}_grid")
    realizations = args.realizations or (1 if args.scenario is not None else 20)
    scenarios, source_desc = _resolve_source(args, realizations)
    config = RunConfig(init=args.init, tol=args.tol, max_iter=args.max_iter)
    specs = [_uncertainty(mode, **{"eps": args.eps, "delta0": args.delta0, flag: value},
                          m=scenarios[0].num_users, k=scenarios[0].num_subchannels)
             for value in grid]
    reports = sweep_reports(scenarios, specs, args.schedule, config, args.jobs)
    result = SweepResult.from_reports(parameter, grid, reports)
    fixed = {"mode": mode, "delta0": args.delta0} if flag == "eps" else {"eps": args.eps}
    resolved = {"command": "sweep", **source_desc, "parameter": parameter,
                "grid": [float(v) for v in grid], **fixed, "realizations": realizations,
                "schedule": args.schedule, "init": args.init,
                "tol": args.tol, "max_iter": args.max_iter}
    write_sweep_csv(result, sys.stdout if args.out is None else args.out,
                    preamble=json.dumps(resolved, sort_keys=True))
    all_converged = bool(np.all(result.num_converged == result.num_total))
    return EXIT_OK if all_converged else EXIT_FAILED


def cmd_check(args) -> int:
    [scenario], source_desc = _resolve_source(args)
    scenario = _resolve_scenario(args, scenario)
    resolved = {"command": "check", **source_desc,
                "mode": scenario.uncertainty.mode,
                "eps": args.eps, "delta0": args.delta0}
    payload = {"config": resolved,
               "uniqueness": check_rne_uniqueness(scenario).to_dict(),
               "async_convergence": check_async_convergence(scenario).to_dict()}
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce presets
# ---------------------------------------------------------------------------

class Checks:
    """Accumulates required/optional check outcomes for a preset report."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, tier: str, name: str, passed: bool, detail: str) -> None:
        self.items.append({"tier": tier, "name": name,
                           "passed": bool(passed), "detail": detail})
        label = "PASS" if passed else "FAIL"
        print(f"[{tier.upper()}] {name}: {label} ({detail})")

    def must_ok(self) -> bool:
        return all(item["passed"] for item in self.items
                   if item["tier"] == "must")


# A preset declares its channels, specs and iteration cap, plays them through
# _play and returns (config entries, Checks, report data, SweepResult or
# None); cmd_reproduce writes the files and the verdict.  Each channel is
# drawn once, by _draws, and played at every grid point.  fig1 needs no
# uniqueness filter: in the low ensemble the certificate's left side at eps = 0
# is at most sqrt(M (M - 1)) * cross_hi / direct_lo < 0.05 on every 8x64 draw.

def _play(args, scenarios, specs, max_iter: int = RunConfig.max_iter):
    return sweep_reports(scenarios, specs, config=RunConfig(max_iter=max_iter), jobs=args.jobs)


def _check_table_run(checks: Checks, label: str, scenario, report) -> None:
    checks.add("must", f"{label} converged", report.converged
               and report.residual <= 1e-6,
               f"residual={report.residual:.3e} iters={report.iterations}")
    checks.add("must", f"{label} profile feasible",
               profile_feasible(report.profile, scenario.constraints),
               "budget and mask limits hold")


def _should_match_table(checks: Checks, label: str, report, utilities, supports) -> None:
    measured = report.per_user_utility
    util_ok = bool(np.all(np.abs(measured - np.array(utilities))
                          <= UTILITY_TOLERANCE))
    checks.add("should", f"{label} per-user utilities within "
               f"{UTILITY_TOLERANCE}",
               util_ok,
               f"measured={np.round(measured, 4).tolist()} "
               f"published={list(utilities)}")
    found = [set(s) for s in report.supports]
    checks.add("should", f"{label} support sets match", found == list(supports),
               f"measured={[sorted(s) for s in found]} "
               f"published={[sorted(s) for s in supports]}")


def _preset_table3(args):
    scenario = load_bundled_scenario()
    [[report]] = _play(args, [scenario], [UncertaintySpec.nominal(3, 6)])
    checks = Checks()
    _check_table_run(checks, "nominal run", scenario, report)
    _should_match_table(checks, "nominal run", report, TABLE3_UTILITIES, TABLE3_SUPPORTS)
    return {}, checks, {"report": _report_dict(report)}, None


def _preset_table4(args):
    scenario = load_bundled_scenario()
    [[robust], [nominal]] = _play(args, [scenario], [UncertaintySpec.uniform(3, 6, 3.0),
                                                     UncertaintySpec.nominal(3, 6)])
    checks = Checks()
    _check_table_run(checks, "robust run", scenario, robust)
    _check_table_run(checks, "nominal run", scenario, nominal)
    checks.add("must", "robust equilibrium has disjoint supports",
               robust.orthogonality_index == 1.0,
               f"orthogonality_index={robust.orthogonality_index:.6f}")
    checks.add("must", "robust social utility >= nominal",
               robust.social_utility >= nominal.social_utility,
               f"robust={robust.social_utility:.4f} "
               f"nominal={nominal.social_utility:.4f}")
    _should_match_table(checks, "robust run", robust, TABLE4_UTILITIES, TABLE4_SUPPORTS)
    return {}, checks, {"robust": _report_dict(robust), "nominal": _report_dict(nominal)}, None


def _preset_fig1(args):
    count = args.realizations or 20
    scenarios = _draws("low", 100, count)
    reports = _play(args, scenarios, [UncertaintySpec.uniform(FIG_USERS, FIG_SUBCHANNELS, eps)
                                      for eps in FIG_EPS_GRID])
    result = SweepResult.from_reports("epsilon", FIG_EPS_GRID, reports)
    utilities = result.utilities
    checks = Checks()
    checks.add("must", "all runs converged", not np.isnan(utilities).any(),
               f"{int((~np.isnan(utilities)).sum())}/{utilities.size}")
    diffs = np.diff(utilities, axis=0)
    pointwise = bool(np.all(diffs <= MONOTONE_TOL))
    checks.add("must", "social utility nonincreasing in eps per realization",
               pointwise, f"worst step={np.nanmax(diffs):+.4f}")
    means = result.mean_social_utility
    checks.add("must", "mean social utility strictly decreasing",
               bool(np.all(np.diff(means) < 0)),
               f"means={np.round(means, 4).tolist()}")
    config = {"realizations": count, "eps_grid": list(FIG_EPS_GRID),
              "accepted_seeds": [sc.seed for sc in scenarios]}
    data = {"mean_social_utility": means.tolist(), "utilities": utilities.tolist(),
            "stop_reasons": result.stop_reasons, "best_responses": result.best_responses}
    return config, checks, data, result


def _preset_fig2(args):
    count = args.realizations or 20
    grid = [0.0, 1.0, 2.0, 3.0]
    scenarios = _draws("high", 900, count)
    reports = _play(args, scenarios, [UncertaintySpec.uniform(FIG_USERS, FIG_SUBCHANNELS, eps)
                                      for eps in grid], max_iter=2_000)
    result = SweepResult.from_reports("epsilon", grid, reports)
    checks = Checks()
    checks.add("must", "sweep completed and data written", True,
               f"num_converged={result.num_converged.tolist()} of {count}")
    means = result.mean_social_utility
    checks.add("should", "robustness does not lower mean utility here",
               bool(means[-1] >= means[0]),
               f"means={np.round(means, 4).tolist()} (several equilibria; "
               "no ordering is required in this regime)")
    config = {"realizations": count, "eps_grid": grid, "seed": 900, "max_iter": 2000}
    data = {"mean_social_utility": means.tolist(),
            "num_converged": result.num_converged.tolist(),
            "stop_reasons": result.stop_reasons, "best_responses": result.best_responses}
    return config, checks, data, result


def _delta0_comparison(args, preset: str, ensemble: str, base_seed: int,
                       max_iter: int = RunConfig.max_iter):
    count = args.realizations or 10
    m, k = FIG_USERS, FIG_SUBCHANNELS
    grid = FIG_DELTA0_GRID
    specs = [UncertaintySpec.nominal(m, k), UncertaintySpec.uniform(m, k, FIG_DELTA0_EPS)]
    specs += [UncertaintySpec.uniform(m, k, FIG_DELTA0_EPS, mode="probabilistic", delta0=d0)
              for d0 in grid]
    scenarios = _draws(ensemble, base_seed, count)
    reports = _play(args, scenarios, specs, max_iter)
    nominal, worstcase, *prob = reports
    result = SweepResult.from_reports("delta0", grid, prob)
    wc = SweepResult.from_reports("epsilon", [FIG_DELTA0_EPS], [worstcase])
    prob_utilities = result.utilities
    all_converged = all(rep.converged for row in reports for rep in row)
    identity_nominal = all(np.array_equal(a.profile, b.profile)
                           for a, b in zip(prob[grid.index(0.5)], nominal))
    identity_worstcase = all(np.array_equal(a.profile, b.profile)
                             for a, b in zip(prob[grid.index(1.0)], worstcase))

    checks = Checks()
    checks.add("must", "delta0=0.5 run identical to nominal run",
               identity_nominal, "profiles bitwise equal")
    checks.add("must", "delta0=1 run identical to worst-case run",
               identity_worstcase, "profiles bitwise equal")
    if preset == "fig3":
        checks.add("must", "all runs converged", all_converged,
                   f"{int((~np.isnan(prob_utilities)).sum())}/{prob_utilities.size} "
                   "probabilistic runs")
        up = np.diff(prob_utilities[:3], axis=0)
        down = np.diff(prob_utilities[2:], axis=0)
        checks.add("must", "utility rises toward delta0=0.5 per realization",
                   bool(np.all(up >= -MONOTONE_TOL)),
                   f"worst step={np.nanmin(up):+.4f}")
        checks.add("must", "utility falls beyond delta0=0.5 per realization",
                   bool(np.all(down <= MONOTONE_TOL)),
                   f"worst step={np.nanmax(down):+.4f}")
        gaps = prob_utilities[0] - wc.utilities[0]
        checks.add("should", "under-protection outperforms worst-case at delta0=0",
                   bool(np.all(gaps > 0)),
                   f"measured gaps={np.round(gaps, 3).tolist()} (negative: the "
                   "conservative allocation wins on these channels)")
    else:
        checks.add("must", "sweep completed and data written", True,
                   f"num_converged={result.num_converged.tolist()} of {count}")
    config = {"realizations": count, "delta0_grid": list(grid),
              "eps": FIG_DELTA0_EPS, "seed": base_seed, "max_iter": max_iter}
    data = {"prob_mean": result.mean_social_utility.tolist(),
            "wc_mean": float(wc.mean_social_utility[0]),
            "num_converged": result.num_converged.tolist(),
            "stop_reasons": result.stop_reasons, "wc_stop_reasons": wc.stop_reasons[0],
            "best_responses": result.best_responses, "wc_best_responses": wc.best_responses[0]}
    return config, checks, data, result


PRESETS = {
    "table3": _preset_table3, "table4": _preset_table4,
    "fig1": _preset_fig1, "fig2": _preset_fig2,
    "fig3": lambda args: _delta0_comparison(args, "fig3", "low", base_seed=600),
    "fig4": lambda args: _delta0_comparison(args, "fig4", "high", base_seed=900, max_iter=2_000),
}


def cmd_reproduce(args) -> int:
    if args.realizations is not None and args.preset in ("table3", "table4"):
        raise CliError(f"--realizations does not apply to {args.preset}: "
                       "it plays the one bundled channel")
    os.makedirs(args.out_dir, exist_ok=True)
    entries, checks, data, result = PRESETS[args.preset](args)
    resolved = {"command": "reproduce", "preset": args.preset, **entries}
    if result is not None:
        write_sweep_csv(result, f"{args.out_dir}/{args.preset}_data.csv",
                        preamble=json.dumps(resolved, sort_keys=True))
    payload = {"config": resolved, "checks": checks.items, "data": data}
    _emit(payload, f"{args.out_dir}/{args.preset}_report.json")
    code = EXIT_OK if checks.must_ok() else EXIT_FAILED
    print(f"preset {args.preset}: {'OK' if code == EXIT_OK else 'FAILED'}")
    return code


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    # a warning is one "warning: <message>" line with no source path; leaving the
    # block restores Python's own format for library callers
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            handler = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check,
                       "reproduce": cmd_reproduce}[args.command]
            return handler(args)
        except SystemExit as exc:  # --help, which exits 0 once it has printed
            return exc.code
        except (CliError, ValueError, OSError, MemoryError) as exc:
            # a ValueError is a flag value the library rejects, an OSError an
            # output the handler could not write, a MemoryError a draw too large
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
