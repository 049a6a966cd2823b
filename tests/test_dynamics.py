"""Best-response iteration tests: schedules, convergence, reports, CSV export."""
import dataclasses
import io
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riwfa import (
    ENSEMBLES,
    ChannelRealization,
    PowerConstraints,
    RunConfig,
    Scenario,
    Schedule,
    UncertaintySpec,
    best_response,
    check_rne_uniqueness,
    fixed_point_residual,
    load_bundled_scenario,
    per_user_utilities,
    profile_feasible,
    random_scenario,
    run,
    waterfill,
    write_summary_csv,
    write_trajectory_csv,
    zero_profile,
)
from riwfa import dynamics
from riwfa.dynamics import SCHEDULE_KINDS, _play
from riwfa.model import MODES, DegenerateUncertaintyWarning

# Reference allocations the table3/table4 presets compare against
# (channels 0-based; rows are users).
TABLE3_REFERENCE_PROFILE = np.array([
    [0.44, 0.1, 0.0, 0.45, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0059, 0.3049, 0.0, 0.32, 0.37],
])
TABLE4_REFERENCE_PROFILE = np.array([
    [0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
])


def certified_scenario(seed: int = 12) -> Scenario:
    sc = random_scenario(3, 8, direct_range=(0.05, 0.1), cross_range=(0.0, 0.002),
                         noise_range=(0.001, 0.005), seed=seed)
    assert check_rne_uniqueness(sc).passed
    return sc


def test_single_user_converges_immediately():
    sc = random_scenario(1, 6, seed=0, noise_range=(0.001, 0.01))
    for kind in ("sequential", "simultaneous"):
        report = run(sc, Schedule(kind=kind))
        assert report.converged
        assert report.iterations <= 2
        assert report.residual <= 1e-10
    sched = Schedule("asynchronous", seed=0)
    report = run(sc, sched)
    assert report.converged and report.iterations <= 2


def test_residual_zero_at_single_user_fixed_point():
    sc = random_scenario(1, 4, seed=1, noise_range=(0.001, 0.01))
    s = sc.channel.noise[0] / sc.channel.gains[0, 0, :]
    fixed = waterfill(s, float(sc.constraints.p_max[0]),
                      sc.constraints.mask[0]).p[None, :]
    assert fixed_point_residual(fixed, sc) == 0.0


def test_residual_of_zero_profile_with_slack_budgets():
    # decoupled, masks sum below budget: each best response saturates its
    # masks, so the zero profile's residual is the largest mask entry
    gains = np.zeros((2, 2, 2))
    gains[0, 0] = gains[1, 1] = [1.0, 1.0]
    channel = ChannelRealization(gains=gains, noise=np.full((2, 2), 0.2))
    constraints = PowerConstraints(p_max=np.array([1.0, 1.0]),
                                   mask=np.array([[0.3, 0.2], [0.1, 0.4]]))
    sc = Scenario(channel=channel, constraints=constraints,
                  uncertainty=UncertaintySpec.nominal(2, 2))
    assert fixed_point_residual(zero_profile(2, 2), sc) == 0.4


def first_ticks(schedule, num_users, count):
    """The first ``count`` rows of ``schedule.ticks(num_users)``, stacked
    into (count, num_users) arrays ``(updates, snapshots)``."""
    rows = list(itertools.islice(schedule.ticks(num_users), count))
    return np.array([u for u, _ in rows]), np.array([s for _, s in rows])


def test_schedule_ticks_contract():
    sched = Schedule("asynchronous", update_probability=0.3, max_staleness=5, seed=17)
    updates, snapshots = first_ticks(sched, 3, 100)
    assert updates.shape == snapshots.shape == (100, 3)
    updates_per_user = updates.sum(axis=0)
    assert np.all(updates_per_user >= 20)  # forced at least every 5 ticks
    ticks = np.arange(100)[:, None]
    staleness = ticks - snapshots
    assert np.all(staleness >= 0) and np.all(staleness <= 5)


def test_schedule_ticks_deterministic():
    a = Schedule("asynchronous", update_probability=0.5, max_staleness=3, seed=5)
    b = Schedule("asynchronous", update_probability=0.5, max_staleness=3, seed=5)
    a_updates, a_snapshots = first_ticks(a, 4, 60)
    b_updates, b_snapshots = first_ticks(b, 4, 60)
    assert np.array_equal(a_updates, b_updates)
    assert np.array_equal(a_snapshots, b_snapshots)


def test_schedule_ticks_stream_is_pinned():
    # per tick, per user: one random() unless forced, then one integers()
    # when the staleness window holds earlier ticks; another order moves these
    sched = Schedule("asynchronous", update_probability=0.5, max_staleness=2, seed=7)
    updates = [[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 0, 1],
               [1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 0], [0, 1, 1], [1, 1, 1]]
    snapshots = [[0, 0, 0], [1, 0, 0], [2, 0, 2], [1, 3, 3], [2, 4, 4], [5, 5, 4],
                 [6, 6, 6], [7, 7, 5], [8, 7, 6], [8, 9, 9], [10, 8, 9], [10, 9, 11]]
    drawn_updates, drawn_snapshots = first_ticks(sched, 3, 12)
    assert np.array_equal(drawn_updates, np.array(updates, dtype=bool))
    assert np.array_equal(drawn_snapshots, np.array(snapshots))


def reference_draws(m, probability, staleness, seed, count):
    """The asynchronous draw written out plainly: user i updates when its
    last update is ``staleness`` ticks old or a uniform draw falls below
    ``probability``, and an update reads a snapshot drawn from the window."""
    rng = np.random.default_rng(seed)
    updates = np.zeros((count, m), dtype=bool)
    snapshots = np.tile(np.arange(count)[:, None], (1, m))
    last = [-1] * m
    for t in range(count):
        for i in range(m):
            if t - last[i] >= staleness or rng.random() < probability:
                updates[t, i] = True
                last[i] = t
                if t > 0 and staleness > 0:
                    snapshots[t, i] = rng.integers(max(0, t - staleness), t + 1)
    return updates, snapshots


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 5),
       st.integers(0, 2**64 - 1), st.integers(1, 300))
def test_schedule_ticks_match_the_plain_draw(m, probability, staleness, seed, count):
    # the ticks run() reads are the plain loop's rows, and they keep the
    # schedule's promises: every user updates in any staleness + 1 ticks,
    # and every snapshot lies in [t - staleness, t]
    schedule = Schedule("asynchronous", update_probability=probability,
                        max_staleness=staleness, seed=seed)
    updates, snapshots = first_ticks(schedule, m, count)
    expected_updates, expected_snapshots = reference_draws(m, probability, staleness, seed, count)
    assert np.array_equal(updates, expected_updates)
    assert np.array_equal(snapshots, expected_snapshots)
    for t in range(count - staleness):
        assert updates[t:t + staleness + 1].any(axis=0).all()
    age = np.arange(count)[:, None] - snapshots
    assert np.all(age >= 0) and np.all(age <= staleness)


def test_generate_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("asynchronous", update_probability=0.0)
    with pytest.raises(ValueError):
        Schedule("asynchronous", update_probability=1.2)
    with pytest.raises(ValueError):
        Schedule("asynchronous", max_staleness=-1)
    with pytest.raises(ValueError):
        Schedule("roundrobin")
    # sequential/simultaneous take their kind alone: one quiet tick stops them
    assert Schedule("sequential").max_staleness == 0


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(kind="simultaneous", max_staleness=2)
    with pytest.raises(ValueError):
        Schedule("sequential", update_probability=0.5)
    with pytest.raises(ValueError):
        Schedule("sequential", seed=0)
    # a seed numpy cannot take fails here, not at the first tick run() reads
    with pytest.raises(ValueError):
        Schedule("asynchronous", seed=-1)


@pytest.mark.parametrize("field, build", [
    ("max_staleness", lambda value: Schedule("asynchronous", 0.5, value, 1)),
    ("max_iter", lambda value: RunConfig(max_iter=value)),
])
def test_integer_fields_take_any_integer_type_and_nothing_else(field, build):
    # a numpy integer is stored as a Python int, so play can size its windows
    # with it; a float, even a whole one, is a ValueError at construction
    value = getattr(build(np.int64(2)), field)
    assert value == 2 and type(value) is int
    for bad in (2.5, 2.0, float("nan"), "2", None):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            build(bad)
    sc = certified_scenario()

    def play(value):
        schedule = build(value) if field == "max_staleness" else Schedule("sequential")
        return run(sc, schedule, build(value) if field == "max_iter" else RunConfig())

    numpy_int, python_int = play(np.int64(2)), play(2)
    assert numpy_int.profile.tobytes() == python_int.profile.tobytes()
    assert numpy_int.iterations == python_int.iterations


def test_async_with_zero_staleness_equals_simultaneous():
    sc = certified_scenario()
    sched = Schedule("asynchronous", update_probability=1.0, max_staleness=0, seed=0)
    config = RunConfig(record_trajectory=True)
    sync = run(sc, Schedule(kind="simultaneous"), config)
    async_ = run(sc, sched, config)
    assert len(sync.trajectory) == len(async_.trajectory)
    for a, b in zip(sync.trajectory, async_.trajectory):
        assert np.array_equal(a, b)


def test_async_schedule_replays_its_draws_in_every_run():
    # a schedule is a rule, not a stream: every run of it draws the same ticks
    sc = certified_scenario(seed=6)
    sched = Schedule("asynchronous", update_probability=0.4, max_staleness=3, seed=21)
    config = RunConfig(record_trajectory=True)
    first, again = run(sc, sched, config), run(sc, sched, config)
    assert first.step_residuals == again.step_residuals
    for a, b in zip(first.trajectory, again.trajectory, strict=True):
        assert np.array_equal(a, b)


def reference_run(sc, schedule, config):
    """Per-kind best-response loops written out plainly, with no cycle
    check: (profile, iterations, converged, step_residuals, trajectory)."""
    profile = zero_profile(sc.num_users, sc.num_subchannels)
    step_residuals = []
    trajectory = [profile.copy()]

    def reply(i, seen):
        return best_response(sc, i, seen).p

    if schedule.kind == "asynchronous":
        recent = {0: profile.copy()}
        quiet = 0
        rows = schedule.ticks(sc.num_users)
        for t in range(config.max_iter):
            updates, snapshots = next(rows)
            nxt = profile.copy()
            delta = 0.0
            for i in range(sc.num_users):
                if updates[i]:
                    p = reply(i, recent[int(snapshots[i])])
                    delta = max(delta, float(np.abs(p - profile[i]).max()))
                    nxt[i] = p
            profile = nxt
            recent[t + 1] = profile.copy()
            step_residuals.append(delta)
            trajectory.append(profile.copy())
            quiet = quiet + 1 if delta <= config.tol else 0
            if quiet > schedule.max_staleness:
                return profile, t + 1, True, step_residuals, trajectory
        return profile, len(step_residuals), False, step_residuals, trajectory

    for t in range(config.max_iter):
        delta = 0.0
        if schedule.kind == "sequential":
            for i in range(sc.num_users):
                p = reply(i, profile)
                delta = max(delta, float(np.abs(p - profile[i]).max()))
                profile[i] = p
        else:
            nxt = profile.copy()
            for i in range(sc.num_users):
                p = reply(i, profile)
                delta = max(delta, float(np.abs(p - profile[i]).max()))
                nxt[i] = p
            profile = nxt
        step_residuals.append(delta)
        trajectory.append(profile.copy())
        if delta <= config.tol:
            return profile, t + 1, True, step_residuals, trajectory
    return profile, config.max_iter, False, step_residuals, trajectory


@st.composite
def run_instances(draw):
    m, k = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)),
                         cross_range=(0.0, draw(st.sampled_from([0.002, 0.05, 0.5]))),
                         noise_range=(0.001, 0.01))
    eps = draw(st.sampled_from([0.0, 0.5]))
    sc = sc.with_uncertainty(UncertaintySpec.uniform(m, k, eps))
    config = RunConfig(tol=draw(st.sampled_from([1e-2, 1e-4, 1e-8])),
                       max_iter=draw(st.integers(1, 25)), record_trajectory=True)
    kind = draw(st.sampled_from(["sequential", "simultaneous", "asynchronous"]))
    schedule = Schedule(kind)
    if kind == "asynchronous":
        schedule = Schedule(kind, update_probability=draw(st.sampled_from([0.3, 0.7, 1.0])),
                            max_staleness=draw(st.integers(0, 3)),
                            seed=draw(st.integers(0, 10_000)))
    return sc, schedule, config


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run_instances())
def test_run_matches_per_kind_reference_loops(instance):
    # a single tick loop must reproduce the sequential, simultaneous and
    # stale-snapshot asynchronous loops bitwise, stop rule included
    sc, schedule, config = instance
    report = run(sc, schedule, config)
    profile, iterations, converged, step_residuals, _ = reference_run(sc, schedule, config)
    assert np.array_equal(report.profile, profile)
    assert report.iterations == iterations
    assert report.converged == converged
    assert report.step_residuals == step_residuals


def first_repeat(trajectory):
    """(tick, period) of the first profile equal to an earlier one, else None."""
    seen = {}
    for t, profile in enumerate(trajectory):
        earlier = seen.setdefault(profile.tobytes(), t)
        if earlier != t:
            return t, t - earlier
    return None


def brent_stop(trajectory, max_iter):
    """The tick at which a run stops under Brent's search for a repeat (one
    anchor copy, moved to ticks 1, 2, 4, ...), else None: the first match,
    then on to the cap's place in the cycle."""
    anchor = None
    for t in range(1, max_iter):
        if anchor is not None and np.array_equal(trajectory[t], trajectory[anchor]):
            return t + (max_iter - t) % (t - anchor)
        if t & (t - 1) == 0:
            anchor = t
    return None


# high-interference draws (M, K, seed) on which sequential play cycles; on
# small random draws it almost always converges
SEQUENTIAL_CYCLES = [(5, 6, 14), (6, 4, 14), (6, 4, 32), (6, 4, 42), (6, 8, 35), (6, 8, 47)]


@st.composite
def cycling_instances(draw):
    # cross gains up to 5-10x the direct ones: most draws have several
    # equilibria, and many simultaneous runs cycle exactly
    if draw(st.booleans()):
        m, k, seed = draw(st.sampled_from(SEQUENTIAL_CYCLES))
        sc = random_scenario(m, k, seed=seed, **ENSEMBLES["high"])
    else:
        m, k = draw(st.integers(2, 6)), draw(st.integers(1, 8))
        sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)),
                             cross_range=(0.0, draw(st.sampled_from([0.5, 1.0]))),
                             noise_range=(0.0, 0.01))
        sc = sc.with_uncertainty(UncertaintySpec.uniform(m, k, draw(st.sampled_from([0.0, 1.0]))))
    return sc, draw(st.sampled_from(["sequential", "simultaneous"])), draw(st.integers(1, 200))


# sequential play on this draw repeats its tick-start profile with period 5
KNOWN_CYCLE = (random_scenario(6, 8, seed=35, **ENSEMBLES["high"]), "sequential", 200)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(KNOWN_CYCLE)
@given(cycling_instances())
def test_cycle_fast_forward_matches_playing_every_tick(instance):
    # a run stopped at an exact repeat and extended periodically to the cap
    # must equal, bitwise, the run that plays every tick
    sc, kind, max_iter = instance
    report = run(sc, Schedule(kind=kind), RunConfig(max_iter=max_iter, record_trajectory=True))
    profile, iterations, converged, step_residuals, trajectory = reference_run(
        sc, Schedule(kind=kind), RunConfig(max_iter=max_iter))
    assert np.array_equal(report.profile, profile)
    assert report.iterations == iterations
    assert report.converged == converged
    assert report.step_residuals == step_residuals
    assert len(report.trajectory) == len(trajectory)
    for ours, theirs in zip(report.trajectory, trajectory):
        assert np.array_equal(ours, theirs)
    repeat = first_repeat(trajectory)
    if report.stop_reason == "cycle":
        assert repeat is not None and report.cycle_period == repeat[1]
        # never later than Brent's search, never before the first repeat, and
        # less than three periods after it (the cap's place in the cycle included)
        brent = brent_stop(trajectory, max_iter)
        assert report.best_responses <= (brent or iterations) * sc.num_users
        assert repeat[0] * sc.num_users <= report.best_responses
        assert report.best_responses < (repeat[0] + 3 * repeat[1]) * sc.num_users
    else:
        assert report.cycle_period is None
        assert report.stop_reason == ("converged" if converged else "max_iter")
        assert report.best_responses == iterations * sc.num_users
    if instance is KNOWN_CYCLE:
        assert report.stop_reason == "cycle" and report.cycle_period == 5
        assert report.best_responses == 10 * 6


@pytest.mark.parametrize("seed, period, replies, brent_replies", [
    (69, 2, 288, 528),   # first repeat at tick 36, just after Brent's anchor moved to 32
    (25, 4, 768, None),  # first repeat at tick 96: Brent's search finds none by the cap
])
def test_late_cycles_stop_sooner_than_under_brents_search(seed, period, replies,
                                                          brent_replies):
    # high 8x64 draws, cap 100, on which sequential play cycles late
    sc = random_scenario(8, 64, seed=seed, **ENSEMBLES["high"])
    report = run(sc, Schedule("sequential"), RunConfig(max_iter=100, record_trajectory=True))
    assert (report.stop_reason, report.cycle_period, report.best_responses) == (
        "cycle", period, replies)
    brent = brent_stop(report.trajectory, 100)
    assert (brent and brent * sc.num_users) == brent_replies
    assert first_repeat(report.trajectory)[0] * sc.num_users <= replies


@st.composite
def lockstep_batches(draw):
    """1-5 games of one (M, K) on 1-3 shared channels, of every mode (eps 1.5
    at delta0 0 clamps), one schedule of any kind, and caps low enough that
    runs stop at a cycle or at max_iter as well as converge; plus an order."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):  # beside a draw on which sequential play cycles
        m, k, seed = draw(st.sampled_from(SEQUENTIAL_CYCLES))
        channels = [random_scenario(m, k, seed=s, **ENSEMBLES["high"])
                    for s in [seed] + draw(st.lists(st.integers(0, 10_000), max_size=2))]
    else:
        m, k = draw(st.integers(1, 4)), draw(st.integers(1, 8))
        channels = [random_scenario(m, k, seed=draw(st.integers(0, 10_000)),
                                    cross_range=(0.0, draw(st.sampled_from([0.05, 0.5, 1.0]))),
                                    noise_range=(0.0, 0.01))
                    for _ in range(draw(st.integers(1, 3)))]
    games = []
    for _ in range(n):
        mode, eps = draw(st.sampled_from(MODES)), draw(st.sampled_from([0.5, 1.5]))
        spec = (UncertaintySpec.nominal(m, k) if mode == "nominal" else UncertaintySpec.uniform(
            m, k, eps, mode=mode,
            delta0=draw(st.sampled_from([0.0, 0.3, 1.0])) if mode == "probabilistic" else None))
        games.append(draw(st.sampled_from(channels)).with_uncertainty(spec))
    kind = draw(st.sampled_from(SCHEDULE_KINDS))
    schedule = Schedule(kind)
    if kind == "asynchronous":
        schedule = Schedule(kind, update_probability=draw(st.sampled_from([0.4, 1.0])),
                            max_staleness=draw(st.integers(0, 3)),
                            seed=draw(st.integers(0, 10_000)))
    config = RunConfig(tol=draw(st.sampled_from([1e-3, 1e-8])), max_iter=draw(st.integers(1, 80)),
                       record_trajectory=draw(st.booleans()))
    return games, schedule, config, draw(st.permutations(range(n)))


def assert_same_report(a, b):
    """Every field bitwise equal, the per-tick log included."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "trajectory" and x is not None:
            assert len(x) == len(y) and all(p.tobytes() == q.tobytes() for p, q in zip(x, y))
        elif isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert type(x) is type(y) and x == y, f.name


# three games on two channels under an asynchronous schedule with ticks that
# update nobody, ticks whose users read several snapshots, and an order
QUIET_TICKS = ([random_scenario(3, 4, seed=seed, **ENSEMBLES["high"]).with_uncertainty(spec)
                for seed, spec in ((1, UncertaintySpec.nominal(3, 4)),
                                   (2, UncertaintySpec.uniform(3, 4, 0.5)),
                                   (1, UncertaintySpec.uniform(3, 4, 1.5, "probabilistic", 0.3)))],
               Schedule("asynchronous", update_probability=0.3, max_staleness=3, seed=5),
               RunConfig(max_iter=40, record_trajectory=True), [2, 0, 1])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@example(QUIET_TICKS)
@given(lockstep_batches())
def test_lockstep_play_matches_each_run_alone(batch):
    # a game played beside others, in any order, reports what it does alone
    games, schedule, config, order = batch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateUncertaintyWarning)
        alone = [run(sc, schedule, config) for sc in games]
        together = _play(games, schedule, config)
        shuffled = _play([games[b] for b in order], schedule, config)
    for b, report in enumerate(alone):
        assert_same_report(report, together[b])
        assert_same_report(report, shuffled[order.index(b)])


def test_lockstep_reply_is_one_interference_call_on_distinct_channels(monkeypatch):
    # the stack carries each game's channel, so a reply serves every live
    # game in one call however many channels they are on
    calls = []

    def counted(*args):
        calls.append(args[-1] if len(args) == 5 else None)
        return interference(*args)

    interference = dynamics._interference
    monkeypatch.setattr(dynamics, "_interference", counted)
    games = [random_scenario(4, 16, seed=seed, **ENSEMBLES["high"]).with_uncertainty(
        UncertaintySpec.uniform(4, 16, 0.5)) for seed in (1, 2, 3)]
    reports = _play(games, Schedule("sequential"), RunConfig(max_iter=50))
    # the games leave the stack after 4, 3 and 11 ticks of 4 replies each
    assert [(r.stop_reason, r.best_responses) for r in reports] == [
        ("converged", 16), ("converged", 12), ("converged", 44)]
    # one call per reply, then the residuals of all three games in one call
    assert calls == [0, 1, 2, 3] * 11 + [None]


def test_non_sequential_tick_is_one_reply_call(monkeypatch):
    # every user of a simultaneous or asynchronous tick reads a tick-start copy,
    # so the tick is one interference call per copy read and one reply call for
    # all its games and users; a tick that updates nobody makes no call
    calls = []
    for name in ("_interference", "_replies"):
        def counted(*args, name=name, kernel=getattr(dynamics, name)):
            calls.append(name)
            return kernel(*args)
        monkeypatch.setattr(dynamics, name, counted)
    games = [random_scenario(4, 16, seed=seed, **ENSEMBLES["high"]).with_uncertainty(
        UncertaintySpec.uniform(4, 16, 0.5)) for seed in (1, 2, 3)]
    reports = _play(games, Schedule("simultaneous"), RunConfig(max_iter=50))
    assert [(r.stop_reason, r.best_responses) for r in reports] == [("cycle", 24)] * 3
    # six ticks of four replies in each game, then every game's residual
    assert calls == ["_interference", "_replies"] * (6 + 1)

    games, schedule, config, _ = QUIET_TICKS
    calls.clear()
    reports = _play(games, schedule, config)
    assert [(r.stop_reason, r.iterations) for r in reports] == [
        ("converged", 29), ("converged", 34), ("max_iter", 40)]
    expected, quiet, stale = [], 0, 0
    for updates, snapshots in itertools.islice(schedule.ticks(3), 40):
        copies = len(set(snapshots[updates].tolist()))
        expected += ["_interference"] * copies + ["_replies"] * (copies > 0)
        quiet, stale = quiet + (copies == 0), stale + (copies > 1)
    assert calls == expected + ["_interference", "_replies"]
    assert quiet > 0 and stale > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_asynchronous_runs_never_report_a_cycle(seed):
    # the degenerate asynchronous schedule plays simultaneous rounds, which
    # cycle on these draws, but asynchronous ticks are never checked
    sc = random_scenario(4, 16, seed=seed, **ENSEMBLES["high"]).with_uncertainty(
        UncertaintySpec.uniform(4, 16, 0.5))
    config = RunConfig(max_iter=120, record_trajectory=True)
    sync = run(sc, Schedule(kind="simultaneous"), config)
    async_ = run(sc, Schedule("asynchronous", seed=seed), config)
    assert sync.stop_reason == "cycle" and sync.cycle_period == 2
    assert async_.stop_reason == "max_iter" and async_.cycle_period is None
    assert async_.best_responses == 120 * 4
    assert np.array_equal(sync.profile, async_.profile)
    assert sync.step_residuals == async_.step_residuals
    for a, b in zip(sync.trajectory, async_.trajectory, strict=True):
        assert np.array_equal(a, b)


def test_run_deterministic():
    sc = certified_scenario(seed=3)
    config = RunConfig(record_trajectory=True)
    a = run(sc, Schedule(kind="sequential"), config)
    b = run(sc, Schedule(kind="sequential"), config)
    assert a.iterations == b.iterations
    for pa, pb in zip(a.trajectory, b.trajectory):
        assert np.array_equal(pa, pb)


def test_every_iterate_feasible():
    sc = random_scenario(3, 6, seed=30, cross_range=(0.0, 0.3),
                         noise_range=(0.001, 0.01), mask=0.4)
    report = run(sc, Schedule(kind="simultaneous"),
                 RunConfig(record_trajectory=True, max_iter=50))
    for profile in report.trajectory:
        assert np.all(profile >= 0)
        assert np.all(profile <= 0.4 + 1e-12)
        assert np.all(profile.sum(axis=1) <= 1.0 + 1e-9)


@st.composite
def feasibility_instances(draw):
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    p_max = draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
    mask = draw(st.lists(st.lists(st.floats(0.02, 1.0), min_size=k, max_size=k),
                         min_size=m, max_size=m))
    eps = draw(st.sampled_from([0.0, 0.5]))
    sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)), p_max=p_max, mask=mask,
                         cross_range=(0.0, draw(st.sampled_from([0.002, 0.05, 1.0]))))
    sc = sc.with_uncertainty(UncertaintySpec.uniform(m, k, eps))
    kind = draw(st.sampled_from(["sequential", "simultaneous", "asynchronous"]))
    schedule = Schedule(kind)
    if kind == "asynchronous":
        schedule = Schedule(kind, max_staleness=draw(st.integers(0, 3)),
                            update_probability=draw(st.sampled_from([0.3, 1.0])),
                            seed=draw(st.integers(0, 10_000)))
    return sc, schedule, RunConfig(max_iter=draw(st.integers(1, 30)), record_trajectory=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(feasibility_instances())
def test_every_iterate_feasible_on_random_shapes(instance):
    sc, schedule, config = instance
    report = run(sc, schedule, config)
    assert all(profile_feasible(profile, sc.constraints) for profile in report.trajectory)


def test_converged_residual_consistent_with_tolerance():
    sc = certified_scenario(seed=4)
    report = run(sc, Schedule(kind="sequential"), RunConfig(tol=1e-8))
    assert report.converged
    assert report.residual <= 10 * 1e-8


def test_unique_equilibrium_from_many_inits():
    sc = certified_scenario(seed=5)
    rng = np.random.default_rng(0)
    finals = []
    for kind in ("sequential", "simultaneous"):
        for _ in range(3):
            raw = rng.uniform(0.0, 1.0, size=(3, 8))
            raw *= (rng.uniform(0.1, 1.0, size=3) / raw.sum(axis=1))[:, None]
            report = run(sc, Schedule(kind=kind), RunConfig(init=raw, tol=1e-8))
            assert report.converged
            finals.append(report.profile)
    for other in finals[1:]:
        assert np.abs(other - finals[0]).max() <= 10 * 1e-8


def test_infeasible_custom_init_rejected():
    sc = random_scenario(2, 3, seed=2)
    bad = np.full((2, 3), 2.0)
    with pytest.raises(ValueError):
        run(sc, Schedule(kind="sequential"), RunConfig(init=bad))
    with pytest.raises(ValueError):
        RunConfig(init="random-ish")
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(max_iter=0)


def test_non_convergence_reported_honestly():
    sc = certified_scenario(seed=6)
    report = run(sc, Schedule(kind="sequential"), RunConfig(tol=1e-8, max_iter=2))
    assert not report.converged
    assert report.iterations == 2


def test_bundled_nominal_equilibrium_regression():
    sc = load_bundled_scenario()
    report = run(sc.with_uncertainty(UncertaintySpec.nominal(3, 6)),
                 Schedule(kind="sequential"))
    assert report.converged
    assert report.residual <= 1e-6
    assert np.allclose(report.per_user_utility, [3.1902, 7.8387, 7.9867],
                       atol=1e-3)
    threshold = 1e-3 * 1.0
    supports = [sorted(np.flatnonzero(row > threshold)) for row in report.profile]
    assert supports == [[0, 1, 3, 5], [1, 2, 3, 4], [1, 4, 5]]
    assert abs(report.orthogonality_index - 0.4) < 1e-12


def test_bundled_robust_equilibrium_regression():
    sc = load_bundled_scenario()
    report = run(sc.with_uncertainty(UncertaintySpec.uniform(3, 6, 3.0)),
                 Schedule(kind="sequential"))
    assert report.converged
    assert report.residual <= 1e-6
    threshold = 1e-3 * 1.0
    supports = [sorted(np.flatnonzero(row > threshold)) for row in report.profile]
    assert supports == [[0, 5], [1, 2, 3], [1, 4, 5]]
    assert abs(report.orthogonality_index - 5 / 7) < 1e-12


def test_reference_profiles_are_not_fixed_points():
    # the bundled reference allocations do not satisfy the defining
    # equations on the bundled channel data; the measured residuals are
    # reported as data (frozen regression values)
    sc = load_bundled_scenario()
    nominal = sc.with_uncertainty(UncertaintySpec.nominal(3, 6))
    robust = sc.with_uncertainty(UncertaintySpec.uniform(3, 6, 3.0))
    res3 = fixed_point_residual(TABLE3_REFERENCE_PROFILE, nominal)
    res4 = fixed_point_residual(TABLE4_REFERENCE_PROFILE, robust)
    assert abs(res3 - 0.3049) < 1e-12
    assert abs(res4 - 0.25256209150326797) < 1e-12


def test_trajectory_csv_schema(tmp_path):
    sc = random_scenario(2, 3, seed=7, noise_range=(0.001, 0.01))
    report = run(sc, Schedule(kind="sequential"),
                 RunConfig(record_trajectory=True, max_iter=20))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(report, path, preamble='{"run": 7}')
    lines = path.read_text().splitlines()
    assert lines[0] == '# {"run": 7}'
    assert lines[1] == "iteration,user,subchannel,power"
    assert len(lines) == 2 + len(report.trajectory) * 2 * 3
    last = lines[-1].split(",")
    assert float(last[3]) == report.trajectory[-1][1, 2]


def test_summary_csv_schema(tmp_path):
    sc = random_scenario(2, 3, seed=8, noise_range=(0.001, 0.01))
    report = run(sc, Schedule(kind="sequential"),
                 RunConfig(record_trajectory=True, max_iter=20))
    path = tmp_path / "summary.csv"
    write_summary_csv(report, sc, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,residual,social_utility"
    assert len(lines) == 1 + (len(report.trajectory) - 1)
    # residual column reproduces the recorded step residuals exactly
    assert float(lines[1].split(",")[1]) == report.step_residuals[0]

    # with 8 users numpy sums pairwise, so the last row must be summed as the
    # report is to match it bitwise
    sc = random_scenario(8, 64, seed=0, **ENSEMBLES["low"]).with_uncertainty(
        UncertaintySpec.uniform(8, 64, 0.5))
    report = run(sc, Schedule(kind="sequential"), RunConfig(record_trajectory=True))
    write_summary_csv(report, sc, path)
    last = path.read_text().splitlines()[-1].split(",")
    assert float(last[2]) == report.social_utility


def test_summary_of_a_cycle_sums_each_played_tick_once(monkeypatch):
    # the laps a cycle's fast-forward fills in share their arrays, so the
    # summary's cost must not grow with the cap
    sc, kind, _ = KNOWN_CYCLE
    report = run(sc, Schedule(kind=kind), RunConfig(max_iter=5000, record_trajectory=True))
    assert report.stop_reason == "cycle"
    expected = io.StringIO()
    write_summary_csv(report, sc, expected)
    dynamics = sys.modules["riwfa.dynamics"]
    counted = []
    monkeypatch.setattr(dynamics, "per_user_utilities",
                        lambda x, channel: counted.append(x) or per_user_utilities(x, channel))
    written = io.StringIO()
    write_summary_csv(report, sc, written)
    assert written.getvalue() == expected.getvalue()
    assert len(counted) == len({id(x) for x in report.trajectory[1:]}) < 30


def test_csv_writers_require_trajectory(tmp_path):
    sc = random_scenario(2, 3, seed=9)
    report = run(sc, Schedule(kind="sequential"), RunConfig(max_iter=5))
    with pytest.raises(ValueError):
        write_trajectory_csv(report, tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_summary_csv(report, sc, tmp_path / "y.csv")
