"""Oracle tests: the grid searchers that audit the closed-form solvers."""
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riwfa import (
    ENSEMBLES,
    ChannelRealization,
    GridSpec,
    PowerConstraints,
    RunConfig,
    Scenario,
    Schedule,
    UncertaintySpec,
    brute_force_best_response,
    cluster_profiles,
    effective_interference,
    exhaustive_equilibrium_scan,
    fixed_point_residual,
    normalized_interference,
    random_scenario,
    run,
    uniform_profile,
    user_utility,
    waterfill,
)
from riwfa import oracle
from riwfa.model import MODES, DegenerateUncertaintyWarning


def test_single_channel_rounds_to_grid():
    # grid points are float multiples of the resolution (3 * 0.1 != 0.3
    # exactly), so compare with a tolerance well below one step
    grid = GridSpec(resolution=0.1)
    assert brute_force_best_response([0.5], 0.35, [10.0], grid) == pytest.approx([0.3], abs=1e-12)
    assert brute_force_best_response([0.5], 1.0, [0.25], grid) == pytest.approx([0.2], abs=1e-12)


def test_two_channel_matches_closed_form():
    grid = GridSpec(resolution=1e-3)
    best = brute_force_best_response([0.1, 0.3], 1.0, [10.0, 10.0], grid)
    assert np.all(np.abs(best - [0.6, 0.4]) <= 1e-3 + 1e-12)


def test_lexicographic_tie_break():
    # both split orders achieve the same utility; the smaller one wins
    grid = GridSpec(resolution=0.1)
    best = brute_force_best_response([0.2, 0.2], 0.1, [10.0, 10.0], grid)
    assert np.array_equal(best, [0.0, 0.1])


def test_oracle_never_beats_waterfill_beyond_grid_error():
    rng = np.random.default_rng(23)
    grid = GridSpec(resolution=1e-3)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        s = rng.uniform(0.05, 1.0, size=k)
        mask = rng.uniform(0.2, 1.2, size=k)
        p_max = float(rng.uniform(0.2, 1.0))
        closed = waterfill(s, p_max, mask)
        best = brute_force_best_response(s, p_max, mask, grid)
        bound = 2 * k * 1e-3 / s.min()
        assert user_utility(closed.p, s) >= user_utility(best, s) - 1e-12
        assert user_utility(best, s) >= user_utility(closed.p, s) - bound


def fig_reply_rows() -> list[tuple[np.ndarray, float]]:
    """The 64-channel rows the replies of fig1's first draw (low, seed 100)
    and fig2's (high, seed 900) water-fill at worst-case eps 0.5, at the
    uniform profile and after a 30-tick run, with each user's budget."""
    rows = []
    for ensemble, seed in (("low", 100), ("high", 900)):
        sc = random_scenario(8, 64, seed=seed, **ENSEMBLES[ensemble]).with_uncertainty(
            UncertaintySpec.uniform(8, 64, 0.5))
        played = run(sc, Schedule("sequential"), RunConfig(max_iter=30)).profile
        for profile in (uniform_profile(sc.constraints), played):
            rows += [(effective_interference(normalized_interference(sc.channel, profile, i),
                                             sc.uncertainty, i), float(sc.constraints.p_max[i]))
                     for i in range(8)]
    return rows


def test_waterfill_beats_the_oracle_at_64_channels():
    # at the size every generated reply runs at: mask = p_max takes the
    # K-level form, masks of 0.3 the 2K form, and on some rows they bind
    grid, binds = GridSpec(resolution=0.02), []
    for s, p_max in fig_reply_rows():
        for mask in (np.full(64, p_max), np.full(64, 0.3)):
            closed = waterfill(s, p_max, mask).p
            best = brute_force_best_response(s, p_max, mask, grid)
            assert closed.min() >= 0.0 and (closed <= mask).all()
            assert closed.sum() <= p_max * (1 + 1e-12)
            assert user_utility(closed, s) >= user_utility(best, s) - 1e-12
            binds.append((closed == mask).any())
    assert any(binds[1::2]) and not any(binds[::2])


@st.composite
def waterfill_inputs(draw):
    """``(s_eff, p_max, mask)``, each valid or not: entries that are 0, < 0,
    nan or inf, rows that are empty or not 1-d, and masks of the wrong length."""
    entry = st.sampled_from([0.1, 0.7, 1.0, 0.0, -1.0, np.nan, np.inf])
    valid = st.sampled_from([0.1, 0.7, 1.0])
    pick = st.one_of(valid, entry)
    s = draw(st.one_of(st.lists(pick, min_size=1, max_size=3),
                       st.sampled_from([[], [[0.1, 0.7]], 0.1])))
    k = len(s) if isinstance(s, list) else 1
    mask = draw(st.one_of(pick, st.lists(pick, min_size=k, max_size=k),
                          st.lists(valid, min_size=k + 1, max_size=k + 1)))
    return s, draw(pick), mask


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(waterfill_inputs())
def test_oracle_rejects_what_waterfill_rejects(inputs):
    # one input check: both accept an input, or both raise the same message
    outcomes = []
    for solve in (waterfill, lambda *args: brute_force_best_response(*args, GridSpec(0.05))):
        try:
            solve(*inputs)
            outcomes.append(None)
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_oracle_deterministic():
    s = [0.2, 0.5, 0.9]
    a = brute_force_best_response(s, 0.7, [1.0, 1.0, 1.0], GridSpec(resolution=0.01))
    b = brute_force_best_response(s, 0.7, [1.0, 1.0, 1.0], GridSpec(resolution=0.01))
    assert np.array_equal(a, b)


def test_oracle_size_limits():
    # max_points is the only size limit: K = 9 is searched, a finer grid is not
    best = brute_force_best_response(np.full(9, 0.1), 1.0, np.full(9, 1.0),
                                     GridSpec(resolution=0.1))
    assert best.shape == (9,) and best.sum() <= 1.0 + 1e-12
    for p_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^p_max must be finite and > 0$"):
            brute_force_best_response([0.1, 0.1], p_max, [1.0, 1.0], GridSpec(resolution=0.1))
    with pytest.raises(ValueError):
        brute_force_best_response([0.1, 0.1], 1.0, [1.0, 1.0],
                                  GridSpec(resolution=1e-7, max_points=1000))
    with pytest.raises(ValueError):
        brute_force_best_response([0.0], 1.0, [1.0], GridSpec(resolution=0.1))
    with pytest.raises(ValueError):
        GridSpec(resolution=0.0)


def decoupled_scenario() -> Scenario:
    # independent water-fillings land exactly on the 0.1 lattice:
    # user 1 -> [0.7, 0.3], user 2 -> [0.5, 0.5]
    gains = np.zeros((2, 2, 2))
    gains[0, 0] = gains[1, 1] = [1.0, 1.0]
    noise = np.array([[0.1, 0.5], [0.25, 0.25]])
    return Scenario(channel=ChannelRealization(gains=gains, noise=noise),
                    constraints=PowerConstraints.uniform(2, 2, 1.0),
                    uncertainty=UncertaintySpec.nominal(2, 2))


def matched_cross_scenario() -> Scenario:
    # cross gains twice the direct gains: both orthogonal allocations are
    # exact equilibria, so the game has several
    gains = np.zeros((2, 2, 2))
    gains[0, 0] = gains[1, 1] = [1.0, 1.0]
    gains[0, 1] = gains[1, 0] = [2.0, 2.0]
    return Scenario(channel=ChannelRealization(gains=gains,
                                               noise=np.full((2, 2), 0.1)),
                    constraints=PowerConstraints.uniform(2, 2, 1.0),
                    uncertainty=UncertaintySpec.nominal(2, 2))


def test_scan_decoupled_single_cluster():
    sc = decoupled_scenario()
    hits = exhaustive_equilibrium_scan(sc, GridSpec(resolution=0.1))
    assert hits
    # in a decoupled game the residual is the distance to the unique
    # equilibrium, so the hits form one cloud around it
    reps = cluster_profiles(hits, radius=0.45)
    assert len(reps) == 1
    exact = np.array([[0.7, 0.3], [0.5, 0.5]])
    assert np.abs(reps[0] - exact).max() <= 2 * 0.1


def test_scan_finds_multiple_equilibria_on_matched_cross_gains():
    sc = matched_cross_scenario()
    hits = exhaustive_equilibrium_scan(sc, GridSpec(resolution=0.1))
    reps = cluster_profiles(hits, radius=0.45)
    assert len(reps) >= 2
    # the two orthogonal labelings are exact fixed points and well separated
    orth_a = np.array([[1.0, 0.0], [0.0, 1.0]])
    orth_b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert fixed_point_residual(orth_a, sc) == 0.0
    assert any(np.array_equal(h, orth_a) for h in hits)
    assert any(np.array_equal(h, orth_b) for h in hits)
    spread = max(np.abs(a - b).max() for a in reps for b in reps)
    assert spread >= 0.5


def test_scan_deterministic():
    sc = decoupled_scenario()
    a = exhaustive_equilibrium_scan(sc, GridSpec(resolution=0.2))
    b = exhaustive_equilibrium_scan(sc, GridSpec(resolution=0.2))
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_scan_size_limits():
    sc = decoupled_scenario()
    with pytest.raises(ValueError):
        exhaustive_equilibrium_scan(sc, GridSpec(resolution=0.01, max_points=100))


def test_scan_counts_its_lattice_in_exact_integers():
    # 2,127,660 levels per channel: 2127660**3 wraps to a negative int64,
    # which once slipped past max_points; the scan must refuse before it
    # builds a lattice (numpy's own size error would not name max_points)
    sc = random_scenario(2, 3, seed=0)
    with pytest.raises(ValueError, match="max_points"):
        exhaustive_equilibrium_scan(sc, GridSpec(resolution=4.7e-7))


def reference_scan(scenario: Scenario, grid: GridSpec) -> list[np.ndarray]:
    """The scan as a loop: every product of the users' lattice points in
    ``itertools.product`` order, one ``fixed_point_residual`` call each."""
    res = grid.resolution
    per_user = []
    for p_max, mask in zip(scenario.constraints.p_max, scenario.constraints.mask):
        levels = [oracle._grid_steps(min(m, p_max), res) for m in mask]
        budget = oracle._grid_steps(p_max, res) - 1
        per_user.append([np.array(v) * res for v in itertools.product(*map(range, levels))
                         if sum(v) <= budget])
    found = []
    for rows in itertools.product(*per_user):
        profile = np.stack(rows)
        if fixed_point_residual(profile, scenario) <= 2.0 * res:
            found.append(profile)
    return found


@st.composite
def scan_instances(draw):
    """Small scans: M <= 3 and M * K <= 6, either ensemble, every mode (eps
    1.5 at delta0 0 clamps), budgets that are not all lattice multiples and
    masks at or below them."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6 // m))
    p_max = draw(st.lists(st.sampled_from([0.5, 0.8, 1.0]), min_size=m, max_size=m))
    fractions = draw(st.lists(st.sampled_from([0.3, 0.6, 1.0]), min_size=m * k, max_size=m * k))
    mask = np.reshape(fractions, (m, k)) * np.reshape(p_max, (m, 1))
    sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)), p_max=p_max, mask=mask,
                         **ENSEMBLES[draw(st.sampled_from(["low", "high"]))])
    mode, eps = draw(st.sampled_from(MODES)), draw(st.sampled_from([0.5, 1.5, 3.0]))
    if mode != "nominal":
        sc = sc.with_uncertainty(UncertaintySpec.uniform(
            m, k, eps, mode=mode,
            delta0=draw(st.sampled_from([0.0, 0.3, 1.0])) if mode == "probabilistic" else None))
    return sc, GridSpec(resolution=draw(st.sampled_from([0.25, 0.5])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(instance=(matched_cross_scenario(), GridSpec(resolution=0.25)), chunk=1)
@example(instance=(random_scenario(3, 2, seed=1, **ENSEMBLES["high"]).with_uncertainty(
    UncertaintySpec.uniform(3, 2, 3.0)), GridSpec(resolution=0.5)), chunk=7)
@given(instance=scan_instances(), chunk=st.just(oracle.SCAN_CHUNK))
def test_scan_matches_the_per_profile_loop(instance, chunk):
    # the stacked scan finds the loop's hits, array by array and in order,
    # whatever the chunk size
    sc, grid = instance
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore", DegenerateUncertaintyWarning)
        mp.setattr(oracle, "SCAN_CHUNK", chunk)
        got = exhaustive_equilibrium_scan(sc, grid)
        want = reference_scan(sc, grid)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scan_takes_three_users():
    sc = random_scenario(3, 2, seed=1, **ENSEMBLES["high"]).with_uncertainty(
        UncertaintySpec.uniform(3, 2, 3.0))
    hits = exhaustive_equilibrium_scan(sc, GridSpec(resolution=0.1))
    assert len(hits) == 216
    assert all(h.shape == (3, 2) for h in hits)
    assert max(fixed_point_residual(np.stack(hits), sc)) <= 0.2


def test_cluster_profiles_greedy():
    profiles = [np.zeros((1, 2)), np.full((1, 2), 0.05), np.full((1, 2), 0.5)]
    reps = cluster_profiles(profiles, radius=0.1)
    assert len(reps) == 2
    assert np.array_equal(reps[0], profiles[0])
    assert np.array_equal(reps[1], profiles[2])
