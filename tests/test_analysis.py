"""Certificate and metric tests for the analysis layer, and sweep-engine tests."""
import concurrent.futures
import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riwfa import (
    ENSEMBLES,
    ChannelRealization,
    PowerConstraints,
    RunConfig,
    Scenario,
    Schedule,
    SweepResult,
    UncertaintySpec,
    check_async_convergence,
    check_rne_uniqueness,
    interference_ratio_matrix,
    interference_ratio_matrix_max,
    load_bundled_scenario,
    normalized_interference,
    operator_norm_2,
    orthogonality_index,
    per_user_utilities,
    random_scenario,
    run,
    spectral_radius,
    sweep_reports,
    write_sweep_csv,
    zero_profile,
)
from riwfa.model import MODES

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def symmetric_channel(alpha: float, num_subchannels: int = 2,
                      noise=0.2) -> ChannelRealization:
    gains = np.zeros((2, 2, num_subchannels))
    gains[0, 0] = gains[1, 1] = 1.0
    gains[0, 1] = gains[1, 0] = alpha
    return ChannelRealization(gains=gains,
                              noise=np.broadcast_to(noise, (2, num_subchannels)))


def game(channel: ChannelRealization, uncertainty: UncertaintySpec) -> Scenario:
    """The game a bare channel plays under unit budgets and unit masks."""
    constraints = PowerConstraints.uniform(channel.num_users, channel.num_subchannels, 1.0)
    return Scenario(channel=channel, constraints=constraints, uncertainty=uncertainty)


def test_ratio_matrix_symmetric_construction():
    channel = symmetric_channel(0.3)
    w = interference_ratio_matrix(channel, 0)
    assert np.array_equal(w, [[0.0, 0.3], [0.3, 0.0]])


def test_ratio_matrix_decoupled_is_zero():
    gains = np.zeros((3, 3, 2))
    for i in range(3):
        gains[i, i] = 1.0
    channel = ChannelRealization(gains=gains, noise=np.full((3, 2), 0.1))
    assert np.array_equal(interference_ratio_matrix(channel, 1), np.zeros((3, 3)))


def test_ratio_matrix_bundled_entry():
    channel = load_bundled_scenario().channel
    w = interference_ratio_matrix(channel, 0)
    assert abs(w[1, 0] - 4.91 / 2.44) < 1e-15
    assert abs(w[1, 0] - 2.0123) < 1e-4
    assert np.all(np.diag(w) == 0.0)
    with pytest.raises(ValueError):
        interference_ratio_matrix(channel, 6)


def test_ratio_matrix_max_is_entrywise_max():
    sc = random_scenario(3, 5, seed=13, cross_range=(0.001, 0.05),
                         noise_range=(0.001, 0.01))
    stacked = np.stack([interference_ratio_matrix(sc.channel, k)
                        for k in range(5)])
    assert np.array_equal(interference_ratio_matrix_max(sc.channel),
                          stacked.max(axis=0))


def test_spectral_quantities_on_hand_cases():
    alpha = 0.7
    w = np.array([[0.0, alpha], [alpha, 0.0]])
    assert abs(spectral_radius(w) - alpha) < 1e-10
    assert abs(operator_norm_2(w) - alpha) < 1e-10

    zero = np.zeros((3, 3))
    assert spectral_radius(zero) == 0.0
    assert operator_norm_2(zero) == 0.0

    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(spectral_radius(shear) - 0.5) < 1e-10
    assert abs(operator_norm_2(shear) - 1.0) < 1e-10


def test_operator_norm_cross_checked_against_numpy():
    rng = np.random.default_rng(4)
    matrices = []
    for _ in range(100):
        n = int(rng.integers(1, 17))
        matrices.append(rng.uniform(-1.0, 1.0, size=(n, n)))
    # two nearly equal singular values 1 + d/4 and (1 - d)(1 + d/4)
    d = 1e-5
    matrices.append(np.array([[0.0, 1.0, 0.0], [1.0 - d, 0.0, 0.0],
                              [0.0, 0.0, 0.0]]) * (1 + d / 4))
    for w in matrices:
        ours = operator_norm_2(w)
        theirs = float(np.linalg.norm(w, 2))
        assert abs(ours - theirs) <= 1e-8 * max(1.0, theirs)
        assert ours <= np.linalg.norm(w) + 1e-12


def test_spectral_input_validation():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        operator_norm_2(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        operator_norm_2(np.ones(4))


def test_uniqueness_certificate_decoupled_passes():
    gains = np.zeros((3, 3, 2))
    for i in range(3):
        gains[i, i] = 1.0
    channel = ChannelRealization(gains=gains, noise=np.full((3, 2), 0.1))
    cert = check_rne_uniqueness(game(channel, UncertaintySpec.nominal(3, 2)))
    assert cert.passed
    assert abs(cert.margin + 1.0) < 1e-12  # LHS is exactly 0
    assert cert.per_subchannel_margins.shape == (2,)


def test_uniqueness_certificate_two_user_closed_form():
    channel = symmetric_channel(0.3)
    passing = check_rne_uniqueness(game(channel, UncertaintySpec.uniform(2, 2, 0.4)))
    lhs = passing.margin + 1.0
    assert passing.passed
    assert abs(lhs - (0.3 + 0.4 * np.sqrt(2))) < 1e-10
    assert abs(lhs - 0.8657) < 1e-4

    failing = check_rne_uniqueness(game(channel, UncertaintySpec.uniform(2, 2, 0.6)))
    assert not failing.passed
    assert abs(failing.margin + 1.0 - 1.1485) < 1e-4
    # the nominal condition alone passes: uncertainty tightens it
    assert check_rne_uniqueness(game(channel, UncertaintySpec.nominal(2, 2))).passed


def test_uniqueness_certificate_monotone_in_eps():
    sc = random_scenario(3, 4, seed=14, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    margins = [check_rne_uniqueness(sc.with_uncertainty(UncertaintySpec.uniform(3, 4, eps))).margin
               for eps in (0.0, 0.1, 0.2, 0.4)]
    assert np.all(np.diff(margins) > 0)


def test_uniqueness_certificate_symmetric_branches_agree():
    # on a symmetric W the spectral radius of the symmetric part equals the
    # operator norm, so the min is unambiguous
    channel = symmetric_channel(0.45)
    cert = check_rne_uniqueness(game(channel, UncertaintySpec.nominal(2, 2)))
    rho = cert.components["rho_sym"]
    norm2 = cert.components["norm2"]
    assert np.allclose(rho, norm2, atol=1e-10)
    assert abs(cert.margin + 1.0 - 0.45) < 1e-10


def test_certificate_probabilistic_midpoint_matches_nominal():
    sc = random_scenario(3, 4, seed=15, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    nominal = check_rne_uniqueness(sc.with_uncertainty(UncertaintySpec.nominal(3, 4)))
    mid = check_rne_uniqueness(sc.with_uncertainty(
        UncertaintySpec.uniform(3, 4, 0.7, mode="probabilistic", delta0=0.5)))
    assert nominal.margin == mid.margin


def test_async_certificate_eps_zero_reduces_to_matrix_norm():
    sc = random_scenario(3, 4, seed=16, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    cert = check_async_convergence(sc.with_uncertainty(UncertaintySpec.nominal(3, 4)))
    expected = operator_norm_2(interference_ratio_matrix_max(sc.channel))
    assert abs(cert.margin + 1.0 - expected) < 1e-12
    assert cert.components["staleness_term"] == 0.0


def test_async_certificate_decoupled_hand_value():
    gains = np.zeros((4, 4, 3))
    for i in range(4):
        gains[i, i] = 1.0
    # no cross gain, so the full-mask interference is the noise, 1.0:
    # max_k s_bar * eps = 0.1 per user -> sqrt(4) * ||w|| = 2 * 0.2 = 0.4
    channel = ChannelRealization(gains=gains, noise=np.full((4, 3), 1.0))
    cert = check_async_convergence(game(channel, UncertaintySpec.uniform(4, 3, 0.1)))
    assert cert.passed
    assert abs(cert.margin + 1.0 - 0.4) < 1e-12


def test_async_certificate_two_user_hand_value():
    # full-mask interference 0.5 * 1.0 + noise = [[3, 1], [4, 2]]
    channel = symmetric_channel(0.5, noise=[[2.5, 0.5], [3.5, 1.5]])
    cert = check_async_convergence(game(channel, UncertaintySpec.uniform(2, 2, 0.1)))
    # w_max = [0.3, 0.4]; LHS = 0.5 + sqrt(2)*0.5
    assert not cert.passed
    assert abs(cert.margin + 1.0 - (0.5 + np.sqrt(2) * 0.5)) < 1e-10
    assert abs(cert.margin + 1.0 - 1.2071) < 1e-4
    assert np.allclose(cert.components["w_max"], [0.3, 0.4])


def test_async_certificate_fails_just_above_unit_norm():
    # ||W_max||_2 = 1 + d/4 with a second singular value within d of it: an
    # estimate that lands below the true norm passes this channel
    d = 1e-5
    gains = np.zeros((3, 3, 1))
    for i in range(3):
        gains[i, i] = 1.0
    gains[1, 0, 0] = 1 + d / 4
    gains[0, 1, 0] = (1 - d) * (1 + d / 4)
    channel = ChannelRealization(gains=gains, noise=np.full((3, 1), 0.1))
    cert = check_async_convergence(game(channel, UncertaintySpec.nominal(3, 1)))
    w_max = interference_ratio_matrix_max(channel)
    assert not cert.passed
    assert abs(cert.margin - (np.linalg.norm(w_max, 2) - 1.0)) <= 1e-12


@st.composite
def async_games(draw):
    """A draw of either ensemble with random budgets, masks below and above
    1, and a spec of any mode."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    mode = draw(st.sampled_from(MODES))
    spec = UncertaintySpec(eps=draw(arrays(float, (m, k), elements=st.floats(0.0, 3.0))),
                           mode=mode,
                           delta0=draw(st.floats(0.0, 1.0)) if mode == "probabilistic" else None)
    sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)),
                         p_max=draw(arrays(float, (m,), elements=st.floats(0.1, 3.0))),
                         mask=draw(arrays(float, (m, k), elements=st.floats(0.05, 3.0))),
                         **ENSEMBLES[draw(st.sampled_from(sorted(ENSEMBLES)))])
    return sc.with_uncertainty(spec)


@PROPERTY
@given(async_games())
def test_async_certificate_bounds_interference_at_full_mask(sc):
    # the certificate's own s_bar_max is the interference at full mask power,
    # the largest any feasible profile induces
    cert = check_async_convergence(sc)
    s_bar_max = normalized_interference(sc.channel, sc.constraints.mask)
    w_max = (s_bar_max * sc.uncertainty.effective_eps()).max(axis=1)
    assert cert.components["w_max"].tobytes() == w_max.tobytes()
    assert cert.components["staleness_term"] == np.sqrt(sc.num_users) * np.linalg.norm(w_max)


@st.composite
def channels(draw):
    """Channels with zero, tied and widely spread gains."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    gain = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-4, 10.0))
    gains = draw(arrays(float, (m, m, k), elements=gain))
    direct = draw(arrays(float, (m, k), elements=st.floats(1e-3, 10.0)))
    gains[np.arange(m), np.arange(m)] = direct
    return ChannelRealization(gains=gains, noise=np.full((m, k), 0.1))


@PROPERTY
@given(channels())
def test_uniqueness_components_equal_per_subchannel_calls(channel):
    num_k = channel.num_subchannels
    cert = check_rne_uniqueness(game(channel, UncertaintySpec.nominal(channel.num_users, num_k)))
    for k in range(num_k):
        w = interference_ratio_matrix(channel, k)
        assert cert.components["rho_sym"][k] == spectral_radius(w)
        assert cert.components["norm2"][k] == operator_norm_2(w)


def test_certificate_result_serializes():
    channel = symmetric_channel(0.3)
    cert = check_rne_uniqueness(game(channel, UncertaintySpec.uniform(2, 2, 0.4)))
    doc = cert.to_dict()
    assert doc["passed"] is True
    assert len(doc["per_subchannel_margins"]) == 2
    assert set(doc["components"]) == {"rho_sym", "norm2", "eps_norm"}


def test_orthogonality_index_reference_supports():
    # disjoint supports -> 1; identical supports -> 0
    disjoint = np.array([
        [0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
    ])
    assert orthogonality_index(disjoint, 1e-3) == 1.0
    same = np.array([[0.4, 0.4, 0.0], [0.2, 0.2, 0.0]])
    assert orthogonality_index(same, 1e-3) == 0.0
    # overlapping reference supports {1,2,4}, {2,3}, {2,3,5,6} (1-based):
    # pairwise intersections 1+1+2 over pairwise minima 2+3+2
    overlapping = np.array([
        [0.44, 0.1, 0.0, 0.45, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0059, 0.3049, 0.0, 0.32, 0.37],
    ])
    assert abs(orthogonality_index(overlapping, 1e-3) - (1.0 - 4.0 / 7.0)) < 1e-15
    # a stack gives one float per profile, each bitwise the index alone
    got = orthogonality_index(np.stack([disjoint, overlapping, overlapping]), [1e-3, 1e-3, 0.2])
    assert [type(x) for x in got] == [float] * 3
    assert got == [1.0, orthogonality_index(overlapping, 1e-3),
                   orthogonality_index(overlapping, 0.2)]


def test_orthogonality_index_edge_cases():
    assert orthogonality_index(np.zeros((3, 4)), 1e-3) == 1.0
    assert orthogonality_index(np.zeros((1, 4)), 1e-3) == 1.0
    assert orthogonality_index(np.zeros((2, 3, 1, 4)), 1e-3) == [[1.0] * 3] * 2
    with pytest.raises(ValueError):
        orthogonality_index(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        orthogonality_index(np.zeros((2, 2, 2)), [1e-3, np.nan])
    with pytest.raises(ValueError):
        orthogonality_index(np.zeros(4), 1e-3)


def test_orthogonality_index_invariances():
    rng = np.random.default_rng(18)
    profile = rng.uniform(0.0, 0.5, size=(4, 6))
    profile[profile < 0.2] = 0.0
    base = orthogonality_index(profile, 1e-3)
    perm = rng.permutation(6)
    assert orthogonality_index(profile[:, perm], 1e-3) == base
    assert orthogonality_index(7.0 * profile, 7.0 * 1e-3) == base
    stack = np.stack([profile, profile[:, perm], 7.0 * profile])
    assert orthogonality_index(stack, [1e-3, 1e-3, 7.0 * 1e-3]) == [base] * 3


def test_social_utility_basics():
    sc = random_scenario(3, 4, seed=19, noise_range=(0.001, 0.01))
    assert per_user_utilities(zero_profile(3, 4), sc.channel).sum() == 0.0
    # single user transmitting exactly the interference level on each channel
    gains = np.ones((1, 1, 6))
    noise = np.full((1, 6), 0.1)
    channel = ChannelRealization(gains=gains, noise=noise)
    utility = per_user_utilities(np.full((1, 6), 0.1), channel).sum()
    assert abs(utility - 6 * np.log(2)) < 1e-12
    utilities = per_user_utilities(uniform_profile_of(sc), sc.channel)
    assert utilities.shape == (3,)


def uniform_profile_of(sc):
    from riwfa import uniform_profile
    return uniform_profile(sc.constraints)


def _eps_specs(m, k, grid):
    return [UncertaintySpec.uniform(m, k, eps) for eps in grid]


def _draw(m, k, seeds):
    """Low-interference channels of shape (m, k), one per seed."""
    return [random_scenario(m, k, seed=seed, **ENSEMBLES["low"]) for seed in seeds]


def test_sweep_identity_at_eps_zero():
    sc = random_scenario(2, 6, seed=20, cross_range=(0.0, 0.005),
                         noise_range=(0.001, 0.01))
    reports = sweep_reports([sc], _eps_specs(2, 6, [0.0]))
    sweep = SweepResult.from_reports("epsilon", [0.0], reports)
    nominal = run(sc.with_uncertainty(UncertaintySpec.nominal(2, 6)),
                  Schedule(kind="sequential"))
    assert sweep.utilities[0, 0] == nominal.social_utility
    assert sweep.num_converged.tolist() == [1]


def test_sweep_pairs_seeds_across_grid():
    scenarios = _draw(2, 8, range(50, 53))
    a = sweep_reports(scenarios, _eps_specs(2, 8, [0.0, 0.5]))
    b = sweep_reports(scenarios, _eps_specs(2, 8, [0.5]))
    # the eps=0.5 row of the wider grid plays the same channels
    assert all(np.array_equal(x.profile, y.profile) for x, y in zip(a[1], b[0]))
    # and realization r is scenarios[r], the channel drawn from seed 50 + r
    spec = UncertaintySpec.uniform(2, 8, 0.5)
    alone = run(_draw(2, 8, [51])[0].with_uncertainty(spec), Schedule(kind="sequential"))
    assert np.array_equal(a[1][1].profile, alone.profile)


def test_sweep_monotone_in_eps_on_certified_channel():
    sc = random_scenario(3, 8, direct_range=(0.05, 0.1), cross_range=(0.0, 0.0003),
                         noise_range=(0.001, 0.01), seed=33)
    assert check_rne_uniqueness(sc).passed
    reports = sweep_reports([sc], _eps_specs(3, 8, [0.1, 0.2]))
    sweep = SweepResult.from_reports("epsilon", [0.1, 0.2], reports)
    assert sweep.utilities[1, 0] <= sweep.utilities[0, 0]


def test_sweep_mean_decreases_in_eps_on_low_interference_ensemble():
    grid = [0.0, 0.5, 1.0]
    reports = sweep_reports(_draw(8, 64, range(100, 105)), _eps_specs(8, 64, grid))
    sweep = SweepResult.from_reports("epsilon", grid, reports)
    assert np.all(sweep.num_converged == 5)
    means = sweep.mean_social_utility
    assert np.all(np.diff(means) < 0)


def test_sweep_result_counts_each_grid_points_stops_and_replies():
    # fig2's first three draws under a cap of 45 ticks: at eps = 0 one run
    # converges, one cycles and one reaches the cap before its profile repeats
    scenarios = [random_scenario(8, 64, seed=seed, **ENSEMBLES["high"])
                 for seed in range(900, 903)]
    grid = [0.0, 1.0, 2.0, 3.0]
    reports = sweep_reports(scenarios, _eps_specs(8, 64, grid), config=RunConfig(max_iter=45))
    result = SweepResult.from_reports("epsilon", grid, reports)
    assert result.stop_reasons == [{"converged": 1, "cycle": 1, "max_iter": 1},
                                   {"converged": 2, "cycle": 1, "max_iter": 0},
                                   {"converged": 3, "cycle": 0, "max_iter": 0},
                                   {"converged": 3, "cycle": 0, "max_iter": 0}]
    assert result.best_responses == [784, 416, 112, 96]
    assert result.num_converged.tolist() == [1, 2, 3, 3]


def test_sweep_delta0_endpoint_identities():
    scenarios = _draw(2, 8, range(60, 63))
    grid = [0.0, 0.5, 1.0]
    specs = [UncertaintySpec.uniform(2, 8, 0.8, mode="probabilistic", delta0=d0)
             for d0 in grid]
    prob = SweepResult.from_reports("delta0", grid, sweep_reports(scenarios, specs))
    eps = SweepResult.from_reports("epsilon", [0.0, 0.8], sweep_reports(
        scenarios, _eps_specs(2, 8, [0.0, 0.8])))
    assert np.array_equal(prob.utilities[1], eps.utilities[0])  # delta0=0.5
    assert np.array_equal(prob.utilities[2], eps.utilities[1])  # delta0=1


def test_sweep_validation():
    specs = _eps_specs(3, 6, [0.1])
    # the engine plays realized channels only, not an ensemble's ranges
    for scenarios in (["not a scenario"], [ENSEMBLES["low"]]):
        with pytest.raises(ValueError, match="realized Scenario"):
            sweep_reports(scenarios, specs)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            sweep_reports([load_bundled_scenario()], specs, jobs=jobs)


def test_sweep_jobs_deterministic():
    specs = _eps_specs(2, 8, [0.0, 0.5])
    scenarios = _draw(2, 8, range(70, 74))
    serial = sweep_reports(scenarios, specs, jobs=1)
    parallel = sweep_reports(scenarios, specs, jobs=2)
    for row_s, row_p in zip(serial, parallel):
        for a, b in zip(row_s, row_p):
            assert np.array_equal(a.profile, b.profile)
            assert a.social_utility == b.social_utility


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, plays in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # sweep_reports imports the pool only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    scenarios = _draw(2, 6, [5])
    sweep_reports(scenarios, _eps_specs(2, 6, [0.5]), jobs=64)
    assert sizes == []  # one run plays in this process
    specs = _eps_specs(2, 6, [0.0, 0.5, 1.0])
    pooled = sweep_reports(scenarios, specs, jobs=64)
    assert sizes == [3]
    serial = sweep_reports(scenarios, specs)
    assert sizes == [3]
    for [a], [b] in zip(pooled, serial):
        assert np.array_equal(a.profile, b.profile)


def same_run(a, b) -> bool:
    """Bitwise-equal reports of two runs."""
    return (np.array_equal(a.profile, b.profile) and a.step_residuals == b.step_residuals
            and np.array_equal(a.per_user_utility, b.per_user_utility)
            and (a.iterations, a.stop_reason, a.cycle_period, a.best_responses)
            == (b.iterations, b.stop_reason, b.cycle_period, b.best_responses))


@st.composite
def sweep_instances(draw):
    """One to three channels of a random shape, each with a random mask."""
    m, k = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    cross = draw(st.sampled_from([0.002, 0.05, 0.5]))
    scenarios = [random_scenario(m, k, cross_range=(0.0, cross), noise_range=(0.001, 0.01),
                                 seed=draw(st.integers(0, 10_000)),
                                 mask=draw(arrays(float, (m, k), elements=st.floats(0.05, 1.0))))
                 for _ in range(draw(st.integers(1, 3)))]
    config = RunConfig(max_iter=draw(st.integers(1, 25)), record_trajectory=True)
    kind = draw(st.sampled_from(["sequential", "simultaneous"]))
    entry = draw(st.integers(0, 4)), draw(st.integers(0, len(scenarios) - 1))
    return scenarios, draw(st.sampled_from([0.3, 0.8, 2.0])), kind, config, entry


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(sweep_instances())
def test_sweep_identities_on_random_shapes(instance):
    # eps = 0 plays nominal, delta0 = 0.5 and 1 play nominal and worst case,
    # and an entry drawn at random is the run of its scenario under its spec
    scenarios, eps, kind, config, (g, r) = instance
    m, k = scenarios[0].num_users, scenarios[0].num_subchannels
    specs = [UncertaintySpec.nominal(m, k), UncertaintySpec.uniform(m, k, 0.0),
             UncertaintySpec.uniform(m, k, eps),
             UncertaintySpec.uniform(m, k, eps, mode="probabilistic", delta0=0.5),
             UncertaintySpec.uniform(m, k, eps, mode="probabilistic", delta0=1.0)]
    nominal, eps_zero, worstcase, half, one = sweep_reports(scenarios, specs, kind, config)
    assert all(same_run(a, b) for a, b in zip(eps_zero, nominal))
    assert all(same_run(a, b) for a, b in zip(half, nominal))
    assert all(same_run(a, b) for a, b in zip(one, worstcase))
    alone = run(scenarios[r].with_uncertainty(specs[g]), Schedule(kind=kind), config)
    assert same_run([nominal, eps_zero, worstcase, half, one][g][r], alone)


def _sweep_of(utilities):
    """The sweep of stand-in reports: a NaN entry is a run that reached its cap."""
    reports = [[SimpleNamespace(converged=not np.isnan(u), social_utility=u, best_responses=1,
                                stop_reason="max_iter" if np.isnan(u) else "converged")
                for u in row] for row in utilities]
    return SweepResult.from_reports("epsilon", [0.0, 1.0], reports)


def test_sweep_result_stats_ignore_unconverged():
    result = _sweep_of([[1.0, 3.0, np.nan], [np.nan, np.nan, np.nan]])
    assert result.num_converged.tolist() == [2, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # all-NaN rows must not warn
        means = result.mean_social_utility
        stds = result.std_social_utility
    assert means[0] == 2.0 and np.isnan(means[1])
    assert stds[0] == 1.0 and np.isnan(stds[1])


def test_write_sweep_csv_schema_and_blanks(tmp_path):
    result = _sweep_of([[1.0, 3.0], [np.nan, np.nan]])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path, preamble='{"cmd": "sweep"}')
    lines = path.read_text().splitlines()
    assert lines[0] == '# {"cmd": "sweep"}'
    assert lines[1] == "epsilon,mean_social_utility,std,num_converged,num_total"
    assert lines[2] == "0.0,2.0,1.0,2,2"
    assert lines[3] == "1.0,,,0,2"  # NaN stats render as blanks

    buf = io.StringIO()
    write_sweep_csv(result, buf)
    assert buf.getvalue().splitlines()[0].startswith("epsilon,")


def test_interference_upper_bounds_dominate():
    sc = random_scenario(3, 5, seed=22, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    # the bound check_async_convergence takes: interference at full mask power
    bounds = normalized_interference(sc.channel, sc.constraints.mask)
    rng = np.random.default_rng(0)
    for _ in range(20):
        profile = rng.uniform(0.0, 1.0, size=(3, 5))
        profile = np.minimum(profile, sc.constraints.mask)
        scale = sc.constraints.p_max / np.maximum(profile.sum(axis=1), 1e-9)
        profile *= np.minimum(scale, 1.0)[:, None]
        for i in range(3):
            s = normalized_interference(sc.channel, profile, i)
            assert np.all(s <= bounds[i] + 1e-12)
