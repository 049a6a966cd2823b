"""Command-line front end: run equilibria, sweep uncertainty, check
certificates, and reproduce the bundled benchmark experiments.

Exit codes: 0 on success (convergence / all required checks pass), 2 when a
run fails to converge or a required reproduction check fails (outputs are
still written), 1 on input errors.  Identical commands with identical seeds
produce byte-identical output files; every output embeds its resolved
configuration.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .analysis import (
    SweepResult,
    check_async_convergence,
    check_rne_uniqueness,
    delta0_sweep,
    epsilon_sweep,
    interference_upper_bounds,
    write_sweep_csv,
)
from .dynamics import RunConfig, Schedule, generate_schedule, run, write_trajectory_csv
from .model import (
    MODES,
    Scenario,
    ScenarioTemplate,
    UncertaintySpec,
    load_bundled_scenario,
    load_scenario,
    profile_feasible,
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


class CliError(Exception):
    """Input error: bad flags, malformed scenario, unknown preset."""


@contextlib.contextmanager
def _input_errors():
    """Report a ValueError raised while validating flag values as an input
    error: an `error:` line and exit 1, not a traceback."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_source_flags(parser):
    group = parser.add_argument_group("scenario source (exactly one)")
    group.add_argument("--scenario", metavar="FILE",
                       help="JSON scenario file to load")
    group.add_argument("--generate", choices=("low", "high"),
                       help="draw a random scenario from the named ensemble")
    group.add_argument("--users", type=int, default=8,
                       help="users for --generate (default 8)")
    group.add_argument("--subchannels", type=int, default=64,
                       help="sub-channels for --generate (default 64)")
    group.add_argument("--seed", type=int, default=0,
                       help="channel seed for --generate (default 0)")


def _add_uncertainty_flags(parser):
    group = parser.add_argument_group("uncertainty override")
    group.add_argument("--mode", choices=MODES,
                       help="override the scenario's uncertainty mode")
    group.add_argument("--eps", type=float,
                       help="uniform eps bound (implies --mode worstcase "
                            "unless --mode is given)")
    group.add_argument("--delta0", type=float,
                       help="protection level for probabilistic mode")


def _add_dynamics_flags(parser):
    group = parser.add_argument_group("dynamics")
    group.add_argument("--schedule", default="sequential",
                       choices=("sequential", "simultaneous", "asynchronous"))
    group.add_argument("--update-prob", type=float, default=1.0,
                       help="per-tick update probability (asynchronous)")
    group.add_argument("--max-staleness", type=int, default=0,
                       help="oldest usable snapshot age (asynchronous)")
    group.add_argument("--schedule-seed", type=int, default=0,
                       help="seed for asynchronous schedule draws")
    group.add_argument("--init", default="zero", choices=("zero", "uniform"))
    group.add_argument("--tol", type=float, default=1e-8)
    group.add_argument("--max-iter", type=int, default=10_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riwfa",
        description="Robust iterative water-filling: equilibria, uncertainty "
                    "sweeps, convergence certificates, benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="iterate best responses to equilibrium")
    _add_source_flags(p_run)
    _add_uncertainty_flags(p_run)
    _add_dynamics_flags(p_run)
    p_run.add_argument("--out", metavar="FILE",
                       help="report JSON path (default: stdout)")
    p_run.add_argument("--trajectory", metavar="FILE",
                       help="also write the full trajectory CSV here")

    p_sweep = sub.add_parser("sweep", help="social utility along an eps or "
                                           "delta0 grid")
    _add_source_flags(p_sweep)
    _add_uncertainty_flags(p_sweep)
    _add_dynamics_flags(p_sweep)
    p_sweep.add_argument("--eps-grid", metavar="E1,E2,...",
                         help="comma-separated eps values")
    p_sweep.add_argument("--delta0-grid", metavar="D1,D2,...",
                         help="comma-separated delta0 values (needs --eps)")
    p_sweep.add_argument("--realizations", type=int, default=20)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    p_sweep.add_argument("--out", metavar="FILE",
                         help="sweep CSV path (default: stdout)")

    p_check = sub.add_parser("check", help="evaluate the uniqueness and "
                                           "asynchronous-convergence certificates")
    _add_source_flags(p_check)
    _add_uncertainty_flags(p_check)
    p_check.add_argument("--out", metavar="FILE",
                         help="certificate JSON path (default: stdout)")

    p_rep = sub.add_parser("reproduce", help="run a bundled benchmark preset")
    p_rep.add_argument("preset",
                       choices=("table3", "table4", "fig1", "fig2", "fig3", "fig4"))
    p_rep.add_argument("--out-dir", default=".",
                       help="directory for report and data files (default: .)")
    p_rep.add_argument("--realizations", type=int,
                       help="override the preset's realization count")
    p_rep.add_argument("--jobs", type=int, default=1,
                       help="parallel workers where the preset sweeps")
    return parser


def _parse_grid(text: str, flag: str) -> np.ndarray:
    items = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if not items:
        raise CliError(f"{flag} is empty")
    try:
        return np.array([float(v) for v in items])
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _template(args) -> ScenarioTemplate:
    maker = (ScenarioTemplate.low_interference if args.generate == "low"
             else ScenarioTemplate.high_interference)
    return maker(args.users, args.subchannels)


def _resolve_source(args):
    """Return (Scenario | ScenarioTemplate, source description dict)."""
    if (args.scenario is None) == (args.generate is None):
        raise CliError("exactly one of --scenario or --generate is required")
    if args.scenario is not None:
        try:
            scenario = load_scenario(args.scenario)
        except OSError as exc:
            raise CliError(f"cannot read scenario file: {exc}") from None
        except (ValueError, KeyError) as exc:
            raise CliError(f"malformed scenario file: {exc}") from None
        return scenario, {"scenario": args.scenario}
    return _template(args), {"generate": args.generate, "users": args.users,
                             "subchannels": args.subchannels, "seed": args.seed}


def _resolve_uncertainty(args, scenario: Scenario) -> Scenario:
    """Apply --mode/--eps/--delta0 on top of a concrete scenario."""
    mode, eps, delta0 = args.mode, args.eps, args.delta0
    if mode is None and eps is None and delta0 is None:
        return scenario
    if mode is None:
        mode = "worstcase"
    if mode == "nominal":
        spec = UncertaintySpec.nominal(scenario.num_users, scenario.num_subchannels)
    elif mode == "worstcase":
        if eps is None:
            raise CliError("--mode worstcase requires --eps")
        spec = UncertaintySpec.uniform(scenario.num_users,
                                       scenario.num_subchannels, eps)
    else:
        if eps is None or delta0 is None:
            raise CliError("--mode probabilistic requires --eps and --delta0")
        spec = UncertaintySpec.uniform(scenario.num_users,
                                       scenario.num_subchannels, eps,
                                       mode="probabilistic", delta0=delta0)
    return scenario.with_uncertainty(spec)


def _support_sets(profile: np.ndarray, p_max: np.ndarray) -> list[list[int]]:
    threshold = 1e-3 * float(np.min(p_max))
    return [sorted(int(k) for k in np.flatnonzero(row > threshold))
            for row in profile]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# run / sweep / check
# ---------------------------------------------------------------------------

def _build_schedule(args, num_users: int) -> Schedule:
    if args.schedule != "asynchronous":
        return Schedule(kind=args.schedule)
    return generate_schedule("asynchronous", num_users, args.max_iter,
                             update_probability=args.update_prob,
                             max_staleness=args.max_staleness,
                             seed=args.schedule_seed)


def _report_dict(report, scenario: Scenario) -> dict:
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "per_user_utility": [float(u) for u in report.per_user_utility],
        "social_utility": report.social_utility,
        "orthogonality_index": report.orthogonality_index,
        "degenerate_uncertainty": report.degenerate_uncertainty,
        "supports": _support_sets(report.profile, scenario.constraints.p_max),
        "profile": report.profile.tolist(),
    }


def cmd_run(args) -> int:
    source, source_desc = _resolve_source(args)
    with _input_errors():
        scenario = (source if isinstance(source, Scenario)
                    else source.realize(args.seed))
        scenario = _resolve_uncertainty(args, scenario)
        config = RunConfig(init=args.init, tol=args.tol, max_iter=args.max_iter,
                           record_trajectory=args.trajectory is not None)
        schedule = _build_schedule(args, scenario.num_users)
    report = run(scenario, schedule, config)

    resolved = {"command": "run", **source_desc,
                "mode": scenario.uncertainty.mode,
                "eps": args.eps, "delta0": args.delta0,
                "schedule": args.schedule, "update_prob": args.update_prob,
                "max_staleness": args.max_staleness,
                "schedule_seed": args.schedule_seed,
                "init": args.init, "tol": args.tol, "max_iter": args.max_iter}
    payload = {"config": resolved, "report": _report_dict(report, scenario)}
    _emit(_json_text(payload), args.out)
    if args.trajectory is not None:
        write_trajectory_csv(report, args.trajectory,
                             preamble=json.dumps(resolved, sort_keys=True))
    return EXIT_OK if report.converged else EXIT_FAILED


def cmd_sweep(args) -> int:
    source, source_desc = _resolve_source(args)
    if (args.eps_grid is None) == (args.delta0_grid is None):
        raise CliError("exactly one of --eps-grid or --delta0-grid is required")
    if args.realizations < 1:
        raise CliError("--realizations must be >= 1")
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    with _input_errors():
        config = RunConfig(init=args.init, tol=args.tol, max_iter=args.max_iter)

    if args.eps_grid is not None:
        grid = _parse_grid(args.eps_grid, "--eps-grid")
        mode = args.mode or "worstcase"
        if mode == "probabilistic" and args.delta0 is None:
            raise CliError("probabilistic eps sweeps need --delta0")
        with _input_errors():
            result = epsilon_sweep(source, grid, num_realizations=args.realizations,
                                   seed=args.seed, mode=mode, delta0=args.delta0,
                                   schedule_kind=args.schedule, config=config,
                                   jobs=args.jobs)
        resolved = {"command": "sweep", **source_desc, "parameter": "epsilon",
                    "grid": [float(v) for v in grid], "mode": mode,
                    "delta0": args.delta0, "realizations": args.realizations,
                    "schedule": args.schedule, "init": args.init,
                    "tol": args.tol, "max_iter": args.max_iter}
    else:
        if args.eps is None:
            raise CliError("--delta0-grid requires --eps")
        grid = _parse_grid(args.delta0_grid, "--delta0-grid")
        with _input_errors():
            result = delta0_sweep(source, args.eps, grid,
                                  num_realizations=args.realizations,
                                  seed=args.seed, schedule_kind=args.schedule,
                                  config=config, jobs=args.jobs)
        resolved = {"command": "sweep", **source_desc, "parameter": "delta0",
                    "grid": [float(v) for v in grid], "eps": args.eps,
                    "realizations": args.realizations,
                    "schedule": args.schedule, "init": args.init,
                    "tol": args.tol, "max_iter": args.max_iter}

    preamble = json.dumps(resolved, sort_keys=True)
    if args.out is None:
        write_sweep_csv(result, sys.stdout, preamble=preamble)
    else:
        write_sweep_csv(result, args.out, preamble=preamble)
    all_converged = bool(np.all(result.num_converged == result.num_total))
    return EXIT_OK if all_converged else EXIT_FAILED


def cmd_check(args) -> int:
    source, source_desc = _resolve_source(args)
    with _input_errors():
        scenario = (source if isinstance(source, Scenario)
                    else source.realize(args.seed))
        scenario = _resolve_uncertainty(args, scenario)
    uniqueness = check_rne_uniqueness(scenario.channel, scenario.uncertainty)
    s_bar_max = interference_upper_bounds(scenario.channel, scenario.constraints)
    asynchronous = check_async_convergence(scenario.channel, s_bar_max,
                                           scenario.uncertainty)
    resolved = {"command": "check", **source_desc,
                "mode": scenario.uncertainty.mode,
                "eps": args.eps, "delta0": args.delta0}
    payload = {"config": resolved,
               "uniqueness": uniqueness.to_dict(),
               "async_convergence": asynchronous.to_dict()}
    _emit(_json_text(payload), args.out)
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


def _write_preset_report(out_dir: str, preset: str, resolved: dict,
                         checks: Checks, data: dict) -> None:
    payload = {"config": resolved, "checks": checks.items, "data": data}
    _emit(_json_text(payload), f"{out_dir}/{preset}_report.json")


def _bundled_run(mode_spec, init="zero"):
    scenario = load_bundled_scenario().with_uncertainty(mode_spec)
    report = run(scenario, Schedule(kind="sequential"),
                 RunConfig(init=init, tol=1e-8, max_iter=10_000))
    return scenario, report


def _check_table_run(checks: Checks, label: str, scenario, report) -> None:
    checks.add("must", f"{label} converged", report.converged
               and report.residual <= 1e-6,
               f"residual={report.residual:.3e} iters={report.iterations}")
    checks.add("must", f"{label} profile feasible",
               profile_feasible(report.profile, scenario.constraints),
               "budget and mask limits hold")


def _should_match_table(checks: Checks, label: str, report, scenario,
                        utilities, supports) -> None:
    measured = report.per_user_utility
    util_ok = bool(np.all(np.abs(measured - np.array(utilities))
                          <= UTILITY_TOLERANCE))
    checks.add("should", f"{label} per-user utilities within "
               f"{UTILITY_TOLERANCE}",
               util_ok,
               f"measured={np.round(measured, 4).tolist()} "
               f"published={list(utilities)}")
    found = [set(s) for s in _support_sets(report.profile,
                                           scenario.constraints.p_max)]
    checks.add("should", f"{label} support sets match", found == list(supports),
               f"measured={[sorted(s) for s in found]} "
               f"published={[sorted(s) for s in supports]}")


def _preset_table3(args) -> int:
    nominal = UncertaintySpec.nominal(3, 6)
    scenario, report = _bundled_run(nominal)
    checks = Checks()
    _check_table_run(checks, "nominal run", scenario, report)
    _should_match_table(checks, "nominal run", report, scenario,
                        TABLE3_UTILITIES, TABLE3_SUPPORTS)
    resolved = {"command": "reproduce", "preset": "table3"}
    _write_preset_report(args.out_dir, "table3", resolved, checks,
                         {"report": _report_dict(report, scenario)})
    return EXIT_OK if checks.must_ok() else EXIT_FAILED


def _preset_table4(args) -> int:
    robust_spec = UncertaintySpec.uniform(3, 6, 3.0)
    scenario, robust = _bundled_run(robust_spec)
    nominal_scenario, nominal = _bundled_run(UncertaintySpec.nominal(3, 6))
    checks = Checks()
    _check_table_run(checks, "robust run", scenario, robust)
    _check_table_run(checks, "nominal run", nominal_scenario, nominal)
    checks.add("must", "robust equilibrium has disjoint supports",
               robust.orthogonality_index == 1.0,
               f"orthogonality_index={robust.orthogonality_index:.6f}")
    checks.add("must", "robust social utility >= nominal",
               robust.social_utility >= nominal.social_utility,
               f"robust={robust.social_utility:.4f} "
               f"nominal={nominal.social_utility:.4f}")
    _should_match_table(checks, "robust run", robust, scenario,
                        TABLE4_UTILITIES, TABLE4_SUPPORTS)
    resolved = {"command": "reproduce", "preset": "table4"}
    _write_preset_report(args.out_dir, "table4", resolved, checks,
                         {"robust": _report_dict(robust, scenario),
                          "nominal": _report_dict(nominal, nominal_scenario)})
    return EXIT_OK if checks.must_ok() else EXIT_FAILED


def _certified_scenarios(template: ScenarioTemplate, count: int, base_seed: int,
                         max_attempts: int = 10_000):
    """Draw channels from the template until `count` pass the uniqueness
    certificate at eps=0; returns (seeds, scenarios)."""
    seeds, scenarios, seed = [], [], base_seed
    while len(scenarios) < count:
        if seed - base_seed >= max_attempts:
            raise CliError(f"could not find {count} certificate-passing "
                           f"channels in {max_attempts} draws")
        sc = template.realize(seed)
        if check_rne_uniqueness(sc.channel, sc.uncertainty).passed:
            seeds.append(seed)
            scenarios.append(sc)
        seed += 1
    return seeds, scenarios


def _preset_fig1(args) -> int:
    count = args.realizations or 20
    template = ScenarioTemplate.low_interference()
    seeds, scenarios = _certified_scenarios(template, count, base_seed=100)
    config = RunConfig(tol=1e-8, max_iter=10_000)
    utilities = np.full((len(FIG_EPS_GRID), count), np.nan)
    for r, sc in enumerate(scenarios):
        for g, eps in enumerate(FIG_EPS_GRID):
            spec = UncertaintySpec.uniform(8, 64, eps)
            rep = run(sc.with_uncertainty(spec), Schedule(kind="sequential"),
                      config)
            if rep.converged:
                utilities[g, r] = rep.social_utility
    result = SweepResult(parameter="epsilon",
                         grid=np.array(FIG_EPS_GRID, dtype=float),
                         utilities=utilities, num_total=count)
    resolved = {"command": "reproduce", "preset": "fig1",
                "realizations": count, "eps_grid": list(FIG_EPS_GRID),
                "accepted_seeds": seeds}
    write_sweep_csv(result, f"{args.out_dir}/fig1_data.csv",
                    preamble=json.dumps(resolved, sort_keys=True))

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
    _write_preset_report(args.out_dir, "fig1", resolved, checks,
                         {"mean_social_utility": means.tolist(),
                          "utilities": utilities.tolist()})
    return EXIT_OK if checks.must_ok() else EXIT_FAILED


def _preset_fig2(args) -> int:
    count = args.realizations or 20
    template = ScenarioTemplate.high_interference()
    grid = [0.0, 1.0, 2.0, 3.0]
    config = RunConfig(tol=1e-8, max_iter=2_000)
    result = epsilon_sweep(template, grid, num_realizations=count, seed=900,
                           config=config, jobs=args.jobs)
    resolved = {"command": "reproduce", "preset": "fig2",
                "realizations": count, "eps_grid": grid, "seed": 900,
                "max_iter": 2000}
    write_sweep_csv(result, f"{args.out_dir}/fig2_data.csv",
                    preamble=json.dumps(resolved, sort_keys=True))
    checks = Checks()
    checks.add("must", "sweep completed and data written", True,
               f"num_converged={result.num_converged.tolist()} of {count}")
    means = result.mean_social_utility
    checks.add("should", "robustness does not lower mean utility here",
               bool(means[-1] >= means[0]),
               f"means={np.round(means, 4).tolist()} (several equilibria; "
               "no ordering is required in this regime)")
    _write_preset_report(args.out_dir, "fig2", resolved, checks,
                         {"mean_social_utility": means.tolist(),
                          "num_converged": result.num_converged.tolist()})
    return EXIT_OK if checks.must_ok() else EXIT_FAILED


def _delta0_comparison(args, preset: str, template: ScenarioTemplate,
                       base_seed: int, count: int, max_iter: int) -> int:
    config = RunConfig(tol=1e-8, max_iter=max_iter)
    m, k = template.num_users, template.num_subchannels
    grid = FIG_DELTA0_GRID
    prob_utilities = np.full((len(grid), count), np.nan)
    wc_utilities = np.full(count, np.nan)
    identity_nominal, identity_worstcase, all_converged = True, True, True
    for r in range(count):
        seed = base_seed + r
        nominal = run(template.realize(seed, UncertaintySpec.nominal(m, k)),
                      Schedule(kind="sequential"), config)
        wc = run(template.realize(seed, UncertaintySpec.uniform(m, k, FIG_DELTA0_EPS)),
                 Schedule(kind="sequential"), config)
        if wc.converged:
            wc_utilities[r] = wc.social_utility
        all_converged &= nominal.converged and wc.converged
        for g, d0 in enumerate(grid):
            spec = UncertaintySpec.uniform(m, k, FIG_DELTA0_EPS,
                                           mode="probabilistic", delta0=d0)
            rep = run(template.realize(seed, spec),
                      Schedule(kind="sequential"), config)
            if rep.converged:
                prob_utilities[g, r] = rep.social_utility
            all_converged &= rep.converged
            if d0 == 0.5:
                identity_nominal &= np.array_equal(rep.profile, nominal.profile)
            if d0 == 1.0:
                identity_worstcase &= np.array_equal(rep.profile, wc.profile)

    result = SweepResult(parameter="delta0", grid=np.array(grid),
                         utilities=prob_utilities, num_total=count)
    resolved = {"command": "reproduce", "preset": preset,
                "realizations": count, "delta0_grid": list(grid),
                "eps": FIG_DELTA0_EPS, "seed": base_seed, "max_iter": max_iter}
    write_sweep_csv(result, f"{args.out_dir}/{preset}_data.csv",
                    preamble=json.dumps(resolved, sort_keys=True))

    checks = Checks()
    checks.add("must", "delta0=0.5 run identical to nominal run",
               identity_nominal, "profiles bitwise equal")
    checks.add("must", "delta0=1 run identical to worst-case run",
               identity_worstcase, "profiles bitwise equal")
    data = {"prob_mean": result.mean_social_utility.tolist(),
            "wc_mean": float(np.nanmean(wc_utilities)),
            "num_converged": result.num_converged.tolist()}
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
        gaps = prob_utilities[0] - wc_utilities
        checks.add("should", "under-protection outperforms worst-case at delta0=0",
                   bool(np.all(gaps > 0)),
                   f"measured gaps={np.round(gaps, 3).tolist()} (negative: the "
                   "conservative allocation wins on these channels)")
    else:
        checks.add("must", "sweep completed and data written", True,
                   f"num_converged={result.num_converged.tolist()} of {count}")
    _write_preset_report(args.out_dir, preset, resolved, checks, data)
    return EXIT_OK if checks.must_ok() else EXIT_FAILED


def _preset_fig3(args) -> int:
    count = args.realizations or 10
    return _delta0_comparison(args, "fig3", ScenarioTemplate.low_interference(),
                              base_seed=600, count=count, max_iter=10_000)


def _preset_fig4(args) -> int:
    count = args.realizations or 10
    return _delta0_comparison(args, "fig4", ScenarioTemplate.high_interference(),
                              base_seed=900, count=count, max_iter=2_000)


PRESETS = {"table3": _preset_table3, "table4": _preset_table4,
           "fig1": _preset_fig1, "fig2": _preset_fig2,
           "fig3": _preset_fig3, "fig4": _preset_fig4}


def cmd_reproduce(args) -> int:
    if args.realizations is not None and args.realizations < 1:
        raise CliError("--realizations must be >= 1")
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    os.makedirs(args.out_dir, exist_ok=True)
    code = PRESETS[args.preset](args)
    verdict = "OK" if code == EXIT_OK else "FAILED"
    print(f"preset {args.preset}: {verdict}")
    return code


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means "run failed" here, so
        # remap bad flags and unknown presets to the input-error code.
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return EXIT_OK if code == 0 else EXIT_INPUT
    handler = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check,
               "reproduce": cmd_reproduce}[args.command]
    try:
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
