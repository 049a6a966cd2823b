"""Best-response iteration until a fixed point: sequential, simultaneous, async.

One loop, ``_play``, plays a batch of games of one (M, K) in lockstep, and
``run`` is a batch of one.  The batch is one stack of each game's channel,
multipliers, budgets and masks, whatever channels the games are on.  A
sequential tick (a Gauss-Seidel sweep) visits the users in index order, and
each user's replies to the live profile in all live games are one
interference call and one water-fill kernel call.  A simultaneous tick (a
Jacobi round) replies to the copy taken at its start, and an asynchronous one,
for each user it picks, to the tick-start copy of the tick that user names, at
most max_staleness ticks old.  Such a tick makes one interference call, on its
own start copy, into a ring of at most min(max_staleness, max_iter) + 1 copies'
interference, and one water-fill kernel call in which each updating user reads
its row of the copy it names, none if no user updates.
Every game plays the same rows of ``Schedule.ticks``, drawn only when the
loop reaches them.  A game stops, and leaves the batch, once the largest
power change of a tick, measured against the tick-start copy, stays at or
below ``tol`` for max_staleness + 1 consecutive ticks.

Sequential and simultaneous ticks are a fixed map of the tick-start
profile, so once a game's tick-start profile repeats exactly it cycles
forever: every tick of the cycle moved more than ``tol``.  Each game looks
for such a repeat with Gosper's table (HAKMEM item 132): level j holds the
tick-start copy of the latest tick whose binary form ends in exactly j zero
bits, at most bit_length(max_iter) copies, and each is compared with every
tick's start until it is replaced.  The first match gives the least period,
less than two periods after the first repeat.  The game then plays only the
ticks that bring it to the cap's place in the cycle; a recorded log repeats
the cycle's read-only entries to the cap.  Its report is bitwise the one
that playing all ``max_iter`` ticks alone gives, and says why it stopped:
``"converged"``, ``"cycle"`` (with the cycle's period) or ``"max_iter"``.
Asynchronous play is never checked.

``sweep_reports`` plays a list of realized scenarios under every
uncertainty spec of a grid, and ``SweepResult.from_reports`` turns its
reports into social utilities, stop counts and reply totals along the grid.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analysis import orthogonality_index, per_user_utilities
from .model import (DEGENERATE_MESSAGE, EFFECTIVE_INTERFERENCE_FLOOR, DegenerateUncertaintyWarning,
                    Scenario, _interference, check_profile, uniform_profile, user_utility,
                    zero_profile)
from .waterfill import _replies

SCHEDULE_KINDS = ("sequential", "simultaneous", "asynchronous")
STOP_REASONS = ("converged", "cycle", "max_iter")

# Support threshold for the supports and orthogonality index reported with
# each run, as a fraction of the smallest power budget.
SUPPORT_THRESHOLD_FRACTION = 1e-3


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Schedule:
    """Update rule for the iteration: who updates at each tick, and from how
    old a profile.

    Sequential and simultaneous schedules are fixed orders and take no other
    value.  An asynchronous one is drawn from ``seed``: each tick, each user
    updates with probability ``update_probability``, and is forced to once
    its last update is ``max_staleness`` ticks old, so every user updates at
    least once in any max_staleness + 1 ticks.  An updating user reacts to
    the profile of a tick drawn uniformly from the staleness window.
    """

    kind: str
    update_probability: float = 1.0
    max_staleness: int = 0
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_staleness", _integer("max_staleness", self.max_staleness))
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind != "asynchronous":
            if (self.update_probability, self.max_staleness, self.seed) != (1.0, 0, None):
                raise ValueError(f"{self.kind} schedules take no update probability, "
                                 "staleness or seed")
            return
        if not 0.0 < self.update_probability <= 1.0:
            raise ValueError("update_probability must lie in (0, 1]")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        np.random.SeedSequence(self.seed)  # a bad seed fails here, not at a tick

    def ticks(self, num_users: int):
        """Yield ``(updates, snapshots)`` for ticks 0, 1, 2, ... without end.

        Both are lists.  At tick t, the bool ``updates[i]`` says whether user
        i updates and the int ``snapshots[i]`` is the tick whose start
        profile it reacts to, with t - max_staleness <= snapshots[i] <= t.
        Each call replays the same draws.  A staleness of 0 forces every
        update, from tick t, so such a schedule (every sequential and
        simultaneous one) draws nothing and builds no generator, whose first
        use imports ``numpy.random``.
        """
        rng = np.random.default_rng(self.seed) if self.max_staleness else None
        last_update = [-1] * num_users
        for t in itertools.count():
            updates, snapshots = [False] * num_users, [t] * num_users
            low = max(0, t - self.max_staleness)
            for i in range(num_users):
                # one random() unless the update is forced, then one
                # integers() if the staleness window holds more than tick t
                if t - last_update[i] >= self.max_staleness or rng.random() < self.update_probability:
                    updates[i], last_update[i] = True, t
                    if low < t:
                        snapshots[i] = int(rng.integers(low, t + 1))
            yield updates, snapshots


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Iteration controls: initial profile, stopping tolerance, iteration cap, per-tick log."""

    init: str | np.ndarray = "zero"
    tol: float = 1e-8
    max_iter: int = 10_000
    record_trajectory: bool = False

    def __post_init__(self):
        if isinstance(self.init, str):
            if self.init not in ("zero", "uniform"):
                raise ValueError("init must be 'zero', 'uniform', or a profile array")
        else:
            object.__setattr__(self, "init", np.asarray(self.init, dtype=float))
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        object.__setattr__(self, "max_iter", _integer("max_iter", self.max_iter))
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class EquilibriumReport:
    """Outcome of a best-response run.

    ``residual`` is the fixed-point residual of the final profile (max over
    users of the sup-norm gap to their exact best response).  Utilities are
    evaluated at the nominal interference the profile actually induces.
    ``step_residuals[t]`` is the largest power change in tick t+1 and
    ``trajectory[t]`` the profile after t ticks; both are None unless
    ``RunConfig.record_trajectory`` is set.
    ``stop_reason`` is one of STOP_REASONS; ``cycle_period`` is the period
    of the exact limit cycle the run fell into, else None.
    ``best_responses`` counts the replies the tick loop evaluated; the
    ticks a cycle's fast-forward fills in evaluate none.  ``supports[i]``
    lists, in order, the sub-channels where user i's power exceeds the
    threshold that ``orthogonality_index`` uses.
    """

    profile: np.ndarray
    converged: bool
    iterations: int
    residual: float
    per_user_utility: np.ndarray
    social_utility: float
    orthogonality_index: float
    supports: list[list[int]]
    stop_reason: str
    best_responses: int
    cycle_period: int | None = None
    degenerate_uncertainty: bool = False
    trajectory: list[np.ndarray] | None = None
    step_residuals: list[float] | None = field(default=None, repr=False)


def fixed_point_residual(profile: np.ndarray, scenario: Scenario) -> float | np.ndarray:
    """max_i || best_response_i(profile) - profile_i ||_inf; 0 exactly at
    an equilibrium of the (robust) game.  An (M, K) profile gives a float,
    a (..., M, K) stack one residual per profile, each bitwise its own call's."""
    profile = np.asarray(profile, dtype=float)
    shape = scenario.constraints.mask.shape
    if profile.shape[-2:] != shape or not np.isfinite(profile).all():
        raise ValueError(f"profile must be a finite {shape} array or a stack of them")
    _warn_if_degenerate([scenario])
    residuals = _residuals(_stacks([scenario]), profile.reshape(-1, *shape))[0]
    return float(residuals[0]) if profile.ndim == 2 else residuals.reshape(profile.shape[:-2])


def _warn_if_degenerate(scenarios) -> None:
    """Warn of a multiplier <= 0 in any game: once per call of ``run``,
    ``fixed_point_residual`` and ``sweep_reports``, whatever they play."""
    if any(sc.uncertainty.is_degenerate() for sc in scenarios):
        warnings.warn(DEGENERATE_MESSAGE, DegenerateUncertaintyWarning)


def _stacks(scenarios) -> list[np.ndarray]:
    """The cross gains, noise and direct gains of each game's channel, then
    its multipliers, budgets and masks, stacked: one entry per game."""
    return [np.stack(a) for a in zip(*[
        (sc.channel.cross_gains, sc.channel.noise, sc.channel.direct_gains,
         sc.uncertainty.multipliers(), sc.constraints.p_max, sc.constraints.mask)
        for sc in scenarios])]


def _residuals(stacks: list[np.ndarray], profiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each game's fixed-point residual, from one water-fill kernel call on
    every user, and the profiles' nominal interference, from ``_stacks``'s
    stacks and one interference call.  ``Scenario`` keeps a played profile's
    interference finite; this is the one reply path that takes any other
    profile, so it checks."""
    cross, noise, direct, mult, *game = stacks
    with np.errstate(over="ignore"):  # an interference that overflows raises below
        s_bar = _interference(cross, noise, direct, profiles)
        if not np.isfinite(np.maximum(s_bar * mult, EFFECTIVE_INTERFERENCE_FLOOR)).all():
            raise ValueError("the profile's effective interference must be finite")
    replies = _replies(s_bar, mult, *game)
    return np.abs(replies - profiles).max(axis=(1, 2)), s_bar


def _initial_profile(scenario: Scenario, config: RunConfig) -> np.ndarray:
    if isinstance(config.init, str):
        if config.init == "zero":
            return zero_profile(scenario.num_users, scenario.num_subchannels)
        return uniform_profile(scenario.constraints)
    return check_profile(config.init, scenario.constraints).copy()


def run(scenario: Scenario, schedule: Schedule, config: RunConfig = RunConfig()) -> EquilibriumReport:
    """Iterate best responses under ``schedule`` until the stopping rule fires
    (see the module docstring).  Equal scenarios, schedules and configs give
    bitwise-equal reports, and every intermediate profile is feasible."""
    _warn_if_degenerate([scenario])
    return _play([scenario], schedule, config)[0]


def _play(scenarios: list[Scenario], schedule: Schedule,
          config: RunConfig) -> list[EquilibriumReport]:
    """``[run(scenario, schedule, config) for scenario in scenarios]``, bitwise
    but unwarned, for scenarios of one (M, K) played in lockstep (see the module
    docstring).  One pass over the final profiles closes out every game: one
    interference call gives the residuals and utilities, one comparison the supports."""
    profile = np.stack([_initial_profile(sc, config) for sc in scenarios])
    stacks = _stacks(scenarios)  # kept whole for the close-out; the tick loop drops rows
    cross, noise, direct, mult, p_max, mask = stacks
    thresholds = SUPPORT_THRESHOLD_FRACTION * p_max.min(axis=1)
    logs = [([x.copy()], []) for x in profile] if config.record_trajectory else None
    # per stack row: its index in scenarios, quiet ticks and cycle period
    live, quiet, period = list(range(len(scenarios))), [0] * len(scenarios), [None] * len(scenarios)
    ends: list = [None] * len(scenarios)  # (profile, converged, iterations, period, replies)
    rows = schedule.ticks(scenarios[0].num_users)
    window = schedule.max_staleness + 1
    # seen[b, t % n]: game b's all-users interference on non-sequential tick t's start copy
    n = min(schedule.max_staleness, config.max_iter) + 1
    seen = np.empty((len(profile), n, *profile.shape[1:]))
    # Gosper's table: level j's copy, taken at tick levels[j], and each game's
    # weighted sum of it (nan until written); equal profiles have equal sums
    weights = np.arange(1.0, profile[0].size + 1.0).reshape(profile.shape[1:])
    sums = np.full((config.max_iter.bit_length(), len(profile)), np.nan)
    copies, levels, replies = [None] * len(sums), [0] * len(sums), 0
    for t in range(config.max_iter + 1):
        start = profile.copy()
        if schedule.kind != "asynchronous" and 0 < t < config.max_iter:
            total = (profile * weights).sum(axis=(1, 2))
            for j, r in zip(*(sums == total).nonzero()):
                if period[r] is None and quiet[r] < window and (copies[j][r] == profile[r]).all():
                    period[r] = t - levels[j]
            j = (t & -t).bit_length() - 1
            copies[j], levels[j], sums[j] = start, t, total
        # a cycling game plays on until the cap's place in its cycle, and every
        # game leaves at the cap
        leaving = [quiet[r] >= window or t == config.max_iter
                   or bool(period[r]) and (config.max_iter - t) % period[r] == 0
                   for r in range(len(live))]
        if any(leaving):
            keep = [r for r, gone in enumerate(leaving) if not gone]
            for r in itertools.compress(range(len(live)), leaving):
                converged = quiet[r] >= window
                ends[live[r]] = (profile[r].copy(), converged,
                                 t if converged else config.max_iter, period[r], replies)
            live, quiet, period = ([a[r] for r in keep] for a in (live, quiet, period))
            profile, start, seen, cross, noise, direct, mult, p_max, mask = (
                a[keep] for a in (profile, start, seen, cross, noise, direct, mult, p_max, mask))
            copies, sums = [x if x is None else x[keep] for x in copies], sums[:, keep]
            if not live:
                break
        updates, snapshots = next(rows)
        users = list(itertools.compress(range(len(updates)), updates))
        if schedule.kind == "sequential":  # each user replies to the live profile
            for i in users:
                profile[:, i] = _replies(_interference(cross, noise, direct, profile, i),
                                         mult[:, i], p_max[:, i], mask[:, i])
        else:  # each user replies to its row of the copy it names
            seen[:, t % n] = _interference(cross, noise, direct, start)
            if n == 1:  # no staleness: every user updates, from this tick's copy
                profile[:] = _replies(seen[:, 0], mult, p_max, mask)
            elif users:
                profile[:, users] = _replies(seen[:, [snapshots[i] % n for i in users], users],
                                             mult[:, users], p_max[:, users], mask[:, users])
        replies += len(users)
        # each row changes at most once a tick: the tick's largest move, exactly
        delta = np.abs(profile - start).max(axis=(1, 2))
        quiet = [q + 1 if d <= config.tol else 0 for q, d in zip(quiet, delta.tolist())]
        for r, e in enumerate(live if logs else ()):
            logs[e][0].append(profile[r].copy())
            logs[e][1].append(float(delta[r]))

    finals = np.stack([end[0] for end in ends])
    residuals, s_bar = _residuals(stacks, finals)
    utilities = user_utility(finals, s_bar)
    indices = orthogonality_index(finals, thresholds)
    above = finals > thresholds[:, None, None]
    reports = []
    for b, (sc, end, log) in enumerate(zip(scenarios, ends, logs or [(None, None)] * len(ends))):
        final, converged, iterations, cycle_period, work = end
        trajectory, step_residuals = log
        if cycle_period is not None and log[0]:
            # the ticks not played are whole periods that repeat the last one
            # exactly; every lap shares the cycle's read-only arrays
            laps = (config.max_iter - len(step_residuals)) // cycle_period
            for x in trajectory[-cycle_period:]:
                x.setflags(write=False)
            step_residuals += step_residuals[-cycle_period:] * laps
            trajectory += trajectory[-cycle_period:] * laps
        reports.append(EquilibriumReport(
            profile=final, converged=converged, iterations=iterations,
            residual=float(residuals[b]), per_user_utility=utilities[b],
            social_utility=float(utilities[b].sum()), orthogonality_index=indices[b],
            supports=[row.nonzero()[0].tolist() for row in above[b]],
            degenerate_uncertainty=sc.uncertainty.is_degenerate(),
            stop_reason="converged" if converged else "cycle" if cycle_period else "max_iter",
            cycle_period=cycle_period, best_responses=work,
            trajectory=trajectory, step_residuals=step_residuals))
    return reports


@contextlib.contextmanager
def _csv_writer(path, header, preamble: str | None):
    """``(file, csv writer)`` on ``path``, a file name or an open text file,
    after the leading '# preamble' comment line (if any) and the header row."""
    with (contextlib.nullcontext(path) if hasattr(path, "write")
          else open(path, "w", newline="")) as fh:
        if preamble is not None:
            fh.write(f"# {preamble}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        yield fh, writer


def write_trajectory_csv(report: EquilibriumReport, path,
                         preamble: str | None = None) -> None:
    """Long-format trajectory: one row per (iteration, user, subchannel), one string
    per tick, as csv.writer writes it.  ``preamble`` becomes a leading '#' comment line."""
    if report.trajectory is None:
        raise ValueError("run was not configured with record_trajectory=True")
    cells = [f"{i},{k}," for i, k in np.ndindex(report.trajectory[0].shape)]
    with _csv_writer(path, ["iteration", "user", "subchannel", "power"], preamble) as (fh, _):
        for t, x in enumerate(report.trajectory):
            fh.write("".join([f"{t},{c}{p!r}\r\n" for c, p in zip(cells, x.ravel().tolist())]))


def write_summary_csv(report: EquilibriumReport, scenario: Scenario, path,
                      preamble: str | None = None) -> None:
    """Per-iteration summary: largest power change and social utility.
    ``preamble`` becomes a leading '#' comment line."""
    if report.trajectory is None:
        raise ValueError("run was not configured with record_trajectory=True")
    socials: dict[int, str] = {}  # a cycle's laps share their arrays: one sum per tick played
    with _csv_writer(path, ["iteration", "residual", "social_utility"], preamble) as (_, writer):
        for t in range(1, len(report.trajectory)):
            x = report.trajectory[t]
            if id(x) not in socials:
                # summed as run() sums it, so the last row equals report.social_utility
                socials[id(x)] = repr(float(per_user_utilities(x, scenario.channel).sum()))
            writer.writerow([t, repr(report.step_residuals[t - 1]), socials[id(x)]])


# ---------------------------------------------------------------------------
# Uncertainty sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Converged social utility versus a swept uncertainty parameter, and
    how each grid point's runs stopped.

    ``utilities[g, r]`` is realization r's social utility at grid point g
    (NaN where the run did not converge).  Non-converged runs are excluded
    from means and are visible in ``num_converged``.  ``stop_reasons[g]``
    counts grid point g's runs by stop reason, every one of STOP_REASONS a
    key, and ``best_responses[g]`` totals the replies they evaluated.
    """

    parameter: str
    grid: np.ndarray
    utilities: np.ndarray
    stop_reasons: list[dict[str, int]]
    best_responses: list[int]

    @classmethod
    def from_reports(cls, parameter: str, grid, reports) -> "SweepResult":
        """From ``reports[g][r]`` as returned by sweep_reports."""
        utilities = np.array([[rep.social_utility if rep.converged else np.nan for rep in row]
                              for row in reports], dtype=float)
        return cls(parameter=parameter, grid=np.asarray(grid, dtype=float), utilities=utilities,
                   stop_reasons=[{reason: sum(rep.stop_reason == reason for rep in row)
                                  for reason in STOP_REASONS} for row in reports],
                   best_responses=[sum(rep.best_responses for rep in row) for row in reports])

    @property
    def num_total(self) -> int:
        return self.utilities.shape[1]

    @property
    def num_converged(self) -> np.ndarray:
        return (~np.isnan(self.utilities)).sum(axis=1)

    @property
    def mean_social_utility(self) -> np.ndarray:
        # grid points where nothing converged are all-NaN slices; the NaN
        # mean is the documented representation, not a warning condition
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.utilities, axis=1)

    @property
    def std_social_utility(self) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanstd(self.utilities, axis=1)


def sweep_reports(scenarios, specs, schedule_kind: str = "sequential",
                  config: RunConfig = RunConfig(), jobs: int = 1) -> list[list[EquilibriumReport]]:
    """Play every scenario under every uncertainty spec: ``reports[g][r]`` is
    ``run(scenarios[r].with_uncertainty(specs[g]))``.  The runs are split into
    at most ``jobs`` contiguous chunks, never more than there are runs, and
    each chunk plays in lockstep in one worker process (in this process when
    there is one chunk); the reports do not depend on ``jobs``."""
    scenarios = list(scenarios)
    if not all(isinstance(scenario, Scenario) for scenario in scenarios):
        raise ValueError("scenarios must be realized Scenario objects")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # channel-major, so a chunk pickles each of its channels once
    games = [scenario.with_uncertainty(spec) for scenario in scenarios for spec in specs]
    _warn_if_degenerate(games)  # in this process, whatever ``jobs``
    workers = min(jobs, len(games))
    chunks = [(games[w * len(games) // workers:(w + 1) * len(games) // workers],
               Schedule(kind=schedule_kind), config) for w in range(workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = [report for chunk in pool.map(_play, *zip(*chunks)) for report in chunk]
    else:
        flat = [report for chunk in chunks for report in _play(*chunk)]
    return [flat[g::len(specs)] for g in range(len(specs))]


def write_sweep_csv(result: SweepResult, path, preamble: str | None = None) -> None:
    """One row per grid point: parameter value, mean/std social utility over
    converged runs, and the convergence counts.  ``preamble`` becomes a
    leading '#' comment line (callers embed their configuration there)."""
    means = result.mean_social_utility
    stds = result.std_social_utility
    counts = result.num_converged
    with _csv_writer(path, [result.parameter, "mean_social_utility", "std", "num_converged",
                            "num_total"], preamble) as (_, writer):
        for g in range(result.grid.size):
            mean = "" if np.isnan(means[g]) else repr(float(means[g]))
            std = "" if np.isnan(stds[g]) else repr(float(stds[g]))
            writer.writerow([repr(float(result.grid[g])), mean, std,
                             int(counts[g]), result.num_total])
