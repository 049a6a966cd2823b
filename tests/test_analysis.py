"""Certificate, metric, and sweep tests for the analysis layer."""
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riwfa import (
    ChannelRealization,
    PowerConstraints,
    RunConfig,
    Scenario,
    ScenarioTemplate,
    Schedule,
    SweepResult,
    UncertaintySpec,
    check_async_convergence,
    check_rne_uniqueness,
    delta0_sweep,
    epsilon_sweep,
    frobenius_norm,
    interference_ratio_matrix,
    interference_ratio_matrix_max,
    interference_upper_bounds,
    load_bundled_scenario,
    operator_norm_2,
    orthogonality_index,
    per_user_utilities,
    random_scenario,
    run,
    social_utility,
    spectral_radius,
    write_sweep_csv,
    zero_profile,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def symmetric_channel(alpha: float, num_subchannels: int = 2,
                      noise: float = 0.2) -> ChannelRealization:
    gains = np.zeros((2, 2, num_subchannels))
    gains[0, 0] = gains[1, 1] = 1.0
    gains[0, 1] = gains[1, 0] = alpha
    return ChannelRealization(gains=gains,
                              noise=np.full((2, num_subchannels), noise))


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
    assert abs(frobenius_norm(w) - alpha * np.sqrt(2)) < 1e-12

    zero = np.zeros((3, 3))
    assert spectral_radius(zero) == 0.0
    assert operator_norm_2(zero) == 0.0
    assert frobenius_norm(zero) == 0.0

    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(spectral_radius(shear) - 0.5) < 1e-10
    assert abs(operator_norm_2(shear) - 1.0) < 1e-10
    assert abs(frobenius_norm(shear) - 1.0) < 1e-12


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
        assert ours <= frobenius_norm(w) + 1e-12


def test_spectral_input_validation():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        operator_norm_2(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        frobenius_norm(np.ones(4))


def test_uniqueness_certificate_decoupled_passes():
    gains = np.zeros((3, 3, 2))
    for i in range(3):
        gains[i, i] = 1.0
    channel = ChannelRealization(gains=gains, noise=np.full((3, 2), 0.1))
    cert = check_rne_uniqueness(channel, UncertaintySpec.nominal(3, 2))
    assert cert.passed
    assert abs(cert.margin + 1.0) < 1e-12  # LHS is exactly 0
    assert cert.per_subchannel_margins.shape == (2,)


def test_uniqueness_certificate_two_user_closed_form():
    channel = symmetric_channel(0.3)
    passing = check_rne_uniqueness(channel, UncertaintySpec.uniform(2, 2, 0.4))
    lhs = passing.margin + 1.0
    assert passing.passed
    assert abs(lhs - (0.3 + 0.4 * np.sqrt(2))) < 1e-10
    assert abs(lhs - 0.8657) < 1e-4

    failing = check_rne_uniqueness(channel, UncertaintySpec.uniform(2, 2, 0.6))
    assert not failing.passed
    assert abs(failing.margin + 1.0 - 1.1485) < 1e-4
    # the nominal condition alone passes: uncertainty tightens it
    assert check_rne_uniqueness(channel, UncertaintySpec.nominal(2, 2)).passed


def test_uniqueness_certificate_monotone_in_eps():
    sc = random_scenario(3, 4, seed=14, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    margins = [check_rne_uniqueness(sc.channel,
                                    UncertaintySpec.uniform(3, 4, eps)).margin
               for eps in (0.0, 0.1, 0.2, 0.4)]
    assert np.all(np.diff(margins) > 0)


def test_uniqueness_certificate_symmetric_branches_agree():
    # on a symmetric W the spectral radius of the symmetric part equals the
    # operator norm, so the min is unambiguous
    channel = symmetric_channel(0.45)
    cert = check_rne_uniqueness(channel, UncertaintySpec.nominal(2, 2))
    rho = cert.components["rho_sym"]
    norm2 = cert.components["norm2"]
    assert np.allclose(rho, norm2, atol=1e-10)
    assert abs(cert.margin + 1.0 - 0.45) < 1e-10


def test_certificate_probabilistic_midpoint_matches_nominal():
    sc = random_scenario(3, 4, seed=15, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    nominal = check_rne_uniqueness(sc.channel, UncertaintySpec.nominal(3, 4))
    mid = check_rne_uniqueness(
        sc.channel,
        UncertaintySpec.uniform(3, 4, 0.7, mode="probabilistic", delta0=0.5))
    assert nominal.margin == mid.margin


def test_async_certificate_eps_zero_reduces_to_matrix_norm():
    sc = random_scenario(3, 4, seed=16, cross_range=(0.001, 0.02),
                         noise_range=(0.001, 0.01))
    s_bar = interference_upper_bounds(sc.channel, sc.constraints)
    cert = check_async_convergence(sc.channel, s_bar,
                                   UncertaintySpec.nominal(3, 4))
    expected = operator_norm_2(interference_ratio_matrix_max(sc.channel))
    assert abs(cert.margin + 1.0 - expected) < 1e-12
    assert cert.components["staleness_term"] == 0.0


def test_async_certificate_decoupled_hand_value():
    gains = np.zeros((4, 4, 3))
    for i in range(4):
        gains[i, i] = 1.0
    channel = ChannelRealization(gains=gains, noise=np.full((4, 3), 0.1))
    # max_k s_bar * eps = 0.1 per user -> sqrt(4) * ||w|| = 2 * 0.2 = 0.4
    s_bar = np.full((4, 3), 1.0)
    cert = check_async_convergence(channel, s_bar,
                                   UncertaintySpec.uniform(4, 3, 0.1))
    assert cert.passed
    assert abs(cert.margin + 1.0 - 0.4) < 1e-12


def test_async_certificate_two_user_hand_value():
    channel = symmetric_channel(0.5)
    s_bar = np.array([[3.0, 1.0], [4.0, 2.0]])
    cert = check_async_convergence(channel, s_bar,
                                   UncertaintySpec.uniform(2, 2, 0.1))
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
    cert = check_async_convergence(channel, np.ones((3, 1)),
                                   UncertaintySpec.nominal(3, 1))
    w_max = interference_ratio_matrix_max(channel)
    assert not cert.passed
    assert abs(cert.margin - (np.linalg.norm(w_max, 2) - 1.0)) <= 1e-12


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
    cert = check_rne_uniqueness(channel,
                                UncertaintySpec.nominal(channel.num_users, num_k))
    for k in range(num_k):
        w = interference_ratio_matrix(channel, k)
        assert cert.components["rho_sym"][k] == spectral_radius(w)
        assert cert.components["norm2"][k] == operator_norm_2(w)


def test_certificate_result_serializes():
    channel = symmetric_channel(0.3)
    cert = check_rne_uniqueness(channel, UncertaintySpec.uniform(2, 2, 0.4))
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


def test_orthogonality_index_edge_cases():
    assert orthogonality_index(np.zeros((3, 4)), 1e-3) == 1.0
    assert orthogonality_index(np.zeros((1, 4)), 1e-3) == 1.0
    with pytest.raises(ValueError):
        orthogonality_index(np.zeros((2, 2)), 0.0)
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


def test_social_utility_basics():
    sc = random_scenario(3, 4, seed=19, noise_range=(0.001, 0.01))
    assert social_utility(zero_profile(3, 4), sc.channel) == 0.0
    # single user transmitting exactly the interference level on each channel
    gains = np.ones((1, 1, 6))
    noise = np.full((1, 6), 0.1)
    channel = ChannelRealization(gains=gains, noise=noise)
    assert abs(social_utility(np.full((1, 6), 0.1), channel) - 6 * np.log(2)) < 1e-12
    utilities = per_user_utilities(uniform_profile_of(sc), sc.channel)
    assert utilities.shape == (3,)
    assert social_utility(uniform_profile_of(sc), sc.channel) == pytest.approx(
        float(utilities.sum()))


def uniform_profile_of(sc):
    from riwfa import uniform_profile
    return uniform_profile(sc.constraints)


def test_epsilon_sweep_identity_at_zero():
    sc = random_scenario(2, 6, seed=20, cross_range=(0.0, 0.005),
                         noise_range=(0.001, 0.01))
    sweep = epsilon_sweep(sc, [0.0], num_realizations=1)
    nominal = run(sc.with_uncertainty(UncertaintySpec.nominal(2, 6)),
                  Schedule(kind="sequential"))
    assert sweep.utilities[0, 0] == nominal.social_utility
    assert sweep.num_converged.tolist() == [1]


def test_epsilon_sweep_pairs_seeds_across_grid():
    template = ScenarioTemplate.low_interference(num_users=2, num_subchannels=8)
    a = epsilon_sweep(template, [0.0, 0.5], num_realizations=3, seed=50)
    b = epsilon_sweep(template, [0.5], num_realizations=3, seed=50)
    # the eps=0.5 column of the wider sweep reuses the same channels
    assert np.array_equal(a.utilities[1], b.utilities[0])


def test_epsilon_sweep_monotone_on_certified_channel():
    sc = random_scenario(3, 8, direct_range=(0.05, 0.1), cross_range=(0.0, 0.0003),
                         noise_range=(0.001, 0.01), seed=33)
    assert check_rne_uniqueness(sc.channel, sc.uncertainty).passed
    sweep = epsilon_sweep(sc, [0.1, 0.2], num_realizations=1)
    assert sweep.utilities[1, 0] <= sweep.utilities[0, 0]


def test_epsilon_sweep_mean_decreases_on_low_interference_ensemble():
    template = ScenarioTemplate.low_interference()
    sweep = epsilon_sweep(template, [0.0, 0.5, 1.0], num_realizations=5, seed=100)
    assert np.all(sweep.num_converged == 5)
    means = sweep.mean_social_utility
    assert np.all(np.diff(means) < 0)


def test_delta0_sweep_endpoint_identities():
    template = ScenarioTemplate.low_interference(num_users=2, num_subchannels=8)
    prob = delta0_sweep(template, 0.8, [0.0, 0.5, 1.0], num_realizations=3, seed=60)
    eps = epsilon_sweep(template, [0.0, 0.8], num_realizations=3, seed=60)
    assert np.array_equal(prob.utilities[1], eps.utilities[0])  # delta0=0.5
    assert np.array_equal(prob.utilities[2], eps.utilities[1])  # delta0=1


def test_sweep_validation():
    sc = random_scenario(2, 3, seed=1)
    with pytest.raises(ValueError):
        epsilon_sweep(sc, [])
    with pytest.raises(ValueError):
        epsilon_sweep(sc, [-0.1])
    with pytest.raises(ValueError):
        epsilon_sweep(sc, [0.1], num_realizations=0)
    with pytest.raises(ValueError):
        delta0_sweep(sc, 0.5, [1.5])
    with pytest.raises(ValueError):
        epsilon_sweep("not a scenario", [0.1])


def test_sweep_jobs_deterministic():
    template = ScenarioTemplate.low_interference(num_users=2, num_subchannels=8)
    serial = epsilon_sweep(template, [0.0, 0.5], num_realizations=4, seed=70, jobs=1)
    parallel = epsilon_sweep(template, [0.0, 0.5], num_realizations=4, seed=70, jobs=2)
    assert np.array_equal(serial.utilities, parallel.utilities)


def test_sweep_result_stats_ignore_unconverged():
    utilities = np.array([[1.0, 3.0, np.nan], [np.nan, np.nan, np.nan]])
    result = SweepResult(parameter="epsilon", grid=np.array([0.0, 1.0]),
                         utilities=utilities, num_total=3)
    assert result.num_converged.tolist() == [2, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # all-NaN rows must not warn
        means = result.mean_social_utility
        stds = result.std_social_utility
    assert means[0] == 2.0 and np.isnan(means[1])
    assert stds[0] == 1.0 and np.isnan(stds[1])


def test_write_sweep_csv_schema_and_blanks(tmp_path):
    utilities = np.array([[1.0, 3.0], [np.nan, np.nan]])
    result = SweepResult(parameter="epsilon", grid=np.array([0.0, 1.0]),
                         utilities=utilities, num_total=2)
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
    bounds = interference_upper_bounds(sc.channel, sc.constraints)
    rng = np.random.default_rng(0)
    from riwfa import normalized_interference
    for _ in range(20):
        profile = rng.uniform(0.0, 1.0, size=(3, 5))
        profile = np.minimum(profile, sc.constraints.mask)
        scale = sc.constraints.p_max / np.maximum(profile.sum(axis=1), 1e-9)
        profile *= np.minimum(scale, 1.0)[:, None]
        for i in range(3):
            s = normalized_interference(sc.channel, profile, i)
            assert np.all(s <= bounds[i] + 1e-12)
