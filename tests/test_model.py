"""Model-layer tests: interference, utilities, uncertainty, scenario I/O."""
import json
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riwfa import (
    ChannelRealization,
    DegenerateUncertaintyWarning,
    ENSEMBLES,
    PowerConstraints,
    RunConfig,
    Scenario,
    UncertaintySpec,
    best_response,
    effective_interference,
    load_bundled_scenario,
    load_scenario,
    normalized_interference,
    per_user_utilities,
    profile_feasible,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    uniform_profile,
    user_utility,
    zero_profile,
)
from riwfa.analysis import _ratio_matrices
from riwfa.model import EFFECTIVE_INTERFERENCE_FLOOR, MODES, _dumps, _interference


def single_user_channel(gain: float, noise: float, num_subchannels: int = 1):
    gains = np.full((1, 1, num_subchannels), gain)
    noise_arr = np.full((1, num_subchannels), noise)
    return ChannelRealization(gains=gains, noise=noise_arr)


def test_normalized_interference_single_user():
    channel = single_user_channel(gain=2.0, noise=0.5)
    s = normalized_interference(channel, np.zeros((1, 1)), 0)
    assert s.shape == (1,)
    assert s[0] == 0.25


def test_normalized_interference_zero_profile_is_noise_over_direct():
    sc = random_scenario(4, 6, direct_range=(0.05, 0.1), cross_range=(0.0, 0.01),
                         noise_range=(0.001, 0.01), seed=3)
    for i in range(4):
        s = normalized_interference(sc.channel, zero_profile(4, 6), i)
        expected = sc.channel.noise[i] / sc.channel.gains[i, i, :]
        assert np.array_equal(s, expected)


def test_normalized_interference_bundled_value():
    # noise 2.2 over direct gain 20.52 on the first sub-channel of user 1
    sc = load_bundled_scenario()
    s = normalized_interference(sc.channel, zero_profile(3, 6), 0)
    assert abs(s[0] - 2.2 / 20.52) < 1e-15
    assert abs(s[0] - 0.10721247563352827) < 1e-15


def test_normalized_interference_ignores_own_row():
    sc = random_scenario(3, 5, seed=11, noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    base = normalized_interference(sc.channel, profile, 1)
    poked = profile.copy()
    poked[1] = 0.0
    assert np.array_equal(normalized_interference(sc.channel, poked, 1), base)


def test_normalized_interference_receiver_scale_invariance():
    # scaling everything receiver i hears (gains into i and its noise) by c
    # leaves s_i unchanged
    sc = random_scenario(3, 4, seed=21, noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    base = normalized_interference(sc.channel, profile, 2)
    gains = sc.channel.gains.copy()
    noise = sc.channel.noise.copy()
    gains[:, 2, :] *= 7.5
    noise[2, :] *= 7.5
    scaled = ChannelRealization(gains=gains, noise=noise)
    assert np.allclose(normalized_interference(scaled, profile, 2), base,
                       rtol=1e-14, atol=0)


def test_normalized_interference_monotone_in_others_power_and_noise():
    sc = random_scenario(3, 4, seed=5, cross_range=(0.001, 0.01),
                         noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    base = normalized_interference(sc.channel, profile, 0)
    hotter = profile.copy()
    hotter[1] = sc.constraints.mask[1]
    assert np.all(normalized_interference(sc.channel, hotter, 0) >= base)
    noisier = ChannelRealization(gains=sc.channel.gains,
                                 noise=sc.channel.noise * 2.0)
    assert np.all(normalized_interference(noisier, profile, 0) >= base)


def test_normalized_interference_input_errors():
    channel = single_user_channel(2.0, 0.5)
    with pytest.raises(ValueError):
        normalized_interference(channel, np.zeros((1, 1)), 1)
    with pytest.raises(ValueError):
        normalized_interference(channel, np.zeros((2, 1)), 0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _masked_copy_row(channel, profile, user):
    # one user's row as a masked copy of the other users, the construction
    # the all-users kernel replaced
    others = np.arange(channel.num_users) != user
    received = (profile[others] * channel.gains[others, user, :]).sum(axis=0)
    return (received + channel.noise[user]) / channel.gains[user, user, :]


def _diagonal_zeroed_ratios(channel):
    # W(k) built from the raw gains, then its diagonal assigned
    w = channel.gains.transpose(2, 1, 0) / np.diagonal(channel.gains)[:, :, None]
    users = np.arange(channel.num_users)
    w[:, users, users] = 0.0
    return w


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(num_users=st.integers(1, 12), num_subchannels=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
@example(num_users=9, num_subchannels=1, seed=0)
@example(num_users=12, num_subchannels=2, seed=1)
def test_interference_kernel_rows_are_bitwise(num_users, num_subchannels, seed):
    rng = np.random.default_rng(seed)
    shape = (num_users, num_subchannels)
    # gains spanning five decades, so a change of summation order shows
    channels = [ChannelRealization(gains=10.0 ** rng.uniform(-4.0, 1.0, size=(num_users, *shape)),
                                   noise=rng.uniform(0.0, 0.01, size=shape)) for _ in range(3)]
    profiles = rng.uniform(0.0, 1.0, size=(3, *shape)) * (rng.random((3, *shape)) < 0.8)
    # a stack of channels, one per game, gives each game's own rows
    stack = [np.stack([getattr(c, name) for c in channels])
             for name in ("cross_gains", "noise", "direct_gains")]
    for i in [None, *range(num_users)]:
        stacked = _interference(*stack, profiles, i)
        for b, c in enumerate(channels):
            assert _same_bits(stacked[b], normalized_interference(c, profiles[b], i))
    channel, profile = channels[0], profiles[0]
    rows = normalized_interference(channel, profile)
    assert rows.shape == shape
    for i in range(num_users):
        row = normalized_interference(channel, profile, i)
        assert _same_bits(rows[i], row)
        if num_subchannels >= 2:
            # at K = 1 numpy sums the M terms pairwise, so only the last bit
            # is free to move against the masked copy of M - 1 terms
            assert _same_bits(row, _masked_copy_row(channel, profile, i))
        else:
            assert np.allclose(row, _masked_copy_row(channel, profile, i), rtol=1e-14)
    assert _same_bits(per_user_utilities(profile, channel),
                      [user_utility(profile[i], rows[i]) for i in range(num_users)])
    assert _same_bits(_ratio_matrices(channel), _diagonal_zeroed_ratios(channel))


def test_user_utility_zero_power():
    assert user_utility(np.zeros(5), np.full(5, 0.3)) == 0.0


def test_user_utility_equal_power_and_interference():
    assert abs(user_utility(np.full(4, 0.2), np.full(4, 0.2)) - 4 * np.log(2)) < 1e-15


def test_user_utility_two_channel_value():
    got = user_utility(np.array([0.6, 0.4]), np.array([0.1, 0.3]))
    # ln 7 + ln(7/3), computed independently
    assert abs(got - 2.793208009442517) < 1e-15


def test_user_utility_rejects_bad_inputs():
    with pytest.raises(ValueError):
        user_utility(np.array([0.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        user_utility(np.array([-0.1]), np.array([0.2]))
    with pytest.raises(ValueError):
        user_utility(np.array([0.1, 0.2]), np.array([0.2]))
    with pytest.raises(ValueError):
        user_utility(np.array([np.inf]), np.array([0.2]))


def test_effective_interference_nominal_identity():
    spec = UncertaintySpec.nominal(2, 3)
    s = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(effective_interference(s, spec, 0), s)


def test_effective_interference_worstcase_scales():
    spec = UncertaintySpec.uniform(1, 3, 0.5)
    s = np.array([0.1, 0.2, 0.3])
    assert np.allclose(effective_interference(s, spec, 0), 1.5 * s, rtol=1e-15)


def test_effective_interference_probabilistic_endpoints():
    s = np.array([0.2, 0.4])
    top = UncertaintySpec.uniform(1, 2, 0.8, mode="probabilistic", delta0=1.0)
    assert np.array_equal(effective_interference(s, top, 0), 1.8 * s)
    mid = UncertaintySpec.uniform(1, 2, 0.8, mode="probabilistic", delta0=0.5)
    assert np.array_equal(effective_interference(s, mid, 0), s)


def test_effective_interference_clamps_degenerate_multiplier():
    # eps > 1 at delta0 = 0 drives the multiplier negative; the result must
    # clamp to a positive floor and warn
    spec = UncertaintySpec.uniform(1, 2, 1.5, mode="probabilistic", delta0=0.0)
    assert spec.is_degenerate()
    with pytest.warns(DegenerateUncertaintyWarning):
        out = effective_interference(np.array([0.2, 0.4]), spec, 0)
    assert np.all(out > 0)


def test_multiplier_identities_are_exact():
    eps = np.full((3, 4), 0.37)
    nominal = UncertaintySpec(eps=np.zeros((3, 4)), mode="nominal")
    half = UncertaintySpec(eps=eps, mode="probabilistic", delta0=0.5)
    full = UncertaintySpec(eps=eps, mode="probabilistic", delta0=1.0)
    worst = UncertaintySpec(eps=eps, mode="worstcase")
    assert np.array_equal(half.multipliers(), nominal.multipliers())
    assert np.array_equal(full.multipliers(), worst.multipliers())
    assert np.array_equal(half.effective_eps(), np.zeros((3, 4)))
    assert np.array_equal(full.effective_eps(), worst.effective_eps())


@st.composite
def uncertainty_instances(draw):
    """A random spec on a random channel and feasible profile; eps up to 3, so
    probabilistic specs with delta0 < 0.5 are often degenerate."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    mode = draw(st.sampled_from(MODES))
    spec = UncertaintySpec(eps=draw(arrays(float, (m, k), elements=st.floats(0.0, 3.0))),
                           mode=mode,
                           delta0=draw(st.floats(0.0, 1.0)) if mode == "probabilistic" else None)
    sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)), cross_range=(0.0, 0.5),
                         mask=draw(st.sampled_from([None, 0.3])))
    profile = uniform_profile(sc.constraints) * draw(st.floats(0.0, 1.0))
    return spec, sc.with_uncertainty(spec), profile


DEGENERATE = UncertaintySpec.uniform(2, 3, 2.5, mode="probabilistic", delta0=0.1)
ZERO_MULTIPLIER = UncertaintySpec.uniform(2, 3, 2.0, mode="probabilistic", delta0=0.25)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example((DEGENERATE, random_scenario(2, 3, seed=1).with_uncertainty(DEGENERATE),
          np.full((2, 3), 0.2)))
@example((ZERO_MULTIPLIER, random_scenario(2, 3, seed=2).with_uncertainty(ZERO_MULTIPLIER),
          np.zeros((2, 3))))
@given(uncertainty_instances())
def test_uncertainty_spec_applies_one_rule_per_mode(instance):
    spec, sc, profile = instance
    eps = spec.eps
    if spec.mode == "nominal":
        mult, eff = np.ones_like(eps), np.zeros_like(eps)
    elif spec.mode == "worstcase":
        mult, eff = 1.0 + eps, eps.copy()
    else:
        mult = 1.0 + eps * (2.0 * spec.delta0 - 1.0)
        eff = np.abs(eps * (2.0 * spec.delta0 - 1.0))
    back = pickle.loads(pickle.dumps(spec))
    for got, want in ((spec.multipliers(), mult), (spec.effective_eps(), eff),
                      (back.multipliers(), mult), (back.effective_eps(), eff)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included
    for cached in (spec.multipliers(), spec.effective_eps(),
                   back.eps, back.multipliers(), back.effective_eps()):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    assert spec.is_degenerate() == bool(np.any(mult <= 0))

    # a degenerate spec clamps at the floor, and every reply stays feasible
    s_bar = normalized_interference(sc.channel, profile)
    for i in range(sc.num_users):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateUncertaintyWarning)
            s_eff = effective_interference(s_bar[i], spec, i)
            reply = best_response(sc, i, profile).p
        assert np.all(s_eff >= EFFECTIVE_INTERFERENCE_FLOOR)
        replied = profile.copy()
        replied[i] = reply
        assert profile_feasible(replied, sc.constraints)


def test_uncertainty_spec_validation():
    with pytest.raises(ValueError):
        UncertaintySpec(eps=np.zeros((2, 2)), mode="pessimistic")
    with pytest.raises(ValueError):
        UncertaintySpec(eps=np.full((2, 2), -0.1), mode="worstcase")
    with pytest.raises(ValueError):
        UncertaintySpec(eps=np.zeros((2, 2)), mode="probabilistic")
    with pytest.raises(ValueError):
        UncertaintySpec(eps=np.zeros((2, 2)), mode="probabilistic", delta0=1.5)
    with pytest.raises(ValueError):
        UncertaintySpec(eps=np.zeros((2, 2)), mode="worstcase", delta0=0.5)
    with pytest.raises(ValueError):
        UncertaintySpec(eps=np.zeros(4), mode="nominal")


def test_random_scenario_deterministic_by_seed():
    a = random_scenario(4, 8, seed=42)
    b = random_scenario(4, 8, seed=42)
    c = random_scenario(4, 8, seed=43)
    assert np.array_equal(a.channel.gains, b.channel.gains)
    assert np.array_equal(a.channel.noise, b.channel.noise)
    assert not np.array_equal(a.channel.gains, c.channel.gains)
    assert a.seed == 42


def test_random_scenario_respects_ranges():
    sc = random_scenario(6, 16, direct_range=(0.0, 0.1), cross_range=(0.0, 0.01),
                         noise_range=(0.0, 0.01), seed=7)
    direct = sc.channel.direct_gains
    assert np.all(direct > 0) and np.all(direct <= 0.1)
    off = sc.channel.gains.copy()
    idx = np.arange(6)
    off[idx, idx, :] = 0.0
    assert np.all(off <= 0.01)
    assert np.all(sc.channel.noise <= 0.01)
    assert np.all(sc.constraints.p_max == 1.0)
    assert np.all(sc.constraints.mask == 1.0)


def test_random_scenario_single_user_and_mask_broadcast():
    sc = random_scenario(1, 3, seed=0, p_max=2.0, mask=0.9)
    assert sc.num_users == 1 and sc.num_subchannels == 3
    assert np.all(sc.constraints.mask == 0.9)
    with pytest.raises(ValueError):
        random_scenario(0, 3)
    with pytest.raises(ValueError):
        random_scenario(2, 2, direct_range=(0.2, 0.1))


def test_profile_helpers():
    constraints = PowerConstraints.uniform(2, 4, p_max=1.0, mask=0.4)
    even = uniform_profile(constraints)
    assert np.all(even == 0.25)
    tight = PowerConstraints.uniform(2, 4, p_max=1.0, mask=0.2)
    assert np.all(uniform_profile(tight) == 0.2)  # clipped by the mask
    assert profile_feasible(even, constraints)
    assert not profile_feasible(np.full((2, 4), 0.5), constraints)   # mask
    assert not profile_feasible(np.full((2, 4), -0.1), constraints)  # sign
    assert not profile_feasible(np.zeros((3, 4)), constraints)       # shape


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelRealization(gains=np.ones((2, 3, 4)), noise=np.ones((2, 4)))
    with pytest.raises(ValueError):
        ChannelRealization(gains=np.ones((2, 2, 4)), noise=np.ones((2, 3)))
    gains = np.ones((2, 2, 3))
    gains[0, 0, 1] = 0.0
    with pytest.raises(ValueError):
        ChannelRealization(gains=gains, noise=np.ones((2, 3)))


def test_scenario_shape_consistency():
    channel = ChannelRealization(gains=np.ones((2, 2, 3)), noise=np.ones((2, 3)))
    good = PowerConstraints.uniform(2, 3, 1.0)
    bad = PowerConstraints.uniform(2, 4, 1.0)
    spec = UncertaintySpec.nominal(2, 3)
    Scenario(channel=channel, constraints=good, uncertainty=spec)
    with pytest.raises(ValueError):
        Scenario(channel=channel, constraints=bad, uncertainty=spec)
    with pytest.raises(ValueError):
        Scenario(channel=channel, constraints=good,
                 uncertainty=UncertaintySpec.nominal(2, 4))


def test_channel_rejects_a_gain_ratio_that_overflows():
    # a mask small enough keeps the interference finite, but the certificates
    # divide cross gains by direct gains: 1e10 / 1e-300
    gains = np.array([[[1e-300], [1e10]], [[1e10], [1e-300]]])
    with pytest.raises(ValueError, match="gain ratios"):
        ChannelRealization(gains=gains, noise=np.zeros((2, 1)))
    doc = {"M": 2, "K": 1, "gains": gains.tolist(), "noise": [[0.0], [0.0]],
           "p_max": [1.0, 1.0], "mask": [[1e-10], [1e-10]], "eps": [[0.0], [0.0]],
           "mode": "nominal", "seed": None}
    with pytest.raises(ValueError, match="gain ratios"):
        scenario_from_dict(doc)
    # ratios of 1e308 are still finite, and construct
    gains[1, 0, 0] = gains[0, 1, 0] = 1e8
    channel = ChannelRealization(gains=gains, noise=np.zeros((2, 1)))
    assert _ratio_matrices(channel).max() == 1e8 / 1e-300


def test_scenario_rejects_interference_that_overflows():
    # finite gains and noise whose ratio is not: 1e300 / 1e-300
    gains = np.full((2, 2, 3), 0.1)
    gains[1, 1, 2] = 1e-300
    noise = np.full((2, 3), 0.01)
    noise[1, 2] = 1e300
    channel = ChannelRealization(gains=gains, noise=noise)
    constraints = PowerConstraints.uniform(2, 3, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        Scenario(channel=channel, constraints=constraints,
                 uncertainty=UncertaintySpec.nominal(2, 3))
    doc = scenario_to_dict(random_scenario(2, 3, seed=1))
    doc["gains"], doc["noise"] = gains.tolist(), noise.tolist()
    with pytest.raises(ValueError, match="overflows"):
        scenario_from_dict(doc)

    # a neighbouring channel whose worst interference is about 1e300 still fits,
    # until an eps scales it past float64
    gains[1, 1, 2] = 1.0
    fits = Scenario(channel=ChannelRealization(gains=gains, noise=noise),
                    constraints=constraints, uncertainty=UncertaintySpec.nominal(2, 3))
    assert normalized_interference(fits.channel, constraints.mask, 1)[2] == pytest.approx(1e300)
    doc["gains"] = gains.tolist()
    assert scenario_from_dict(doc).channel.direct_gains[1, 2] == 1.0
    fits.with_uncertainty(UncertaintySpec.uniform(2, 3, 1e3))
    with pytest.raises(ValueError, match="overflows"):
        fits.with_uncertainty(UncertaintySpec.uniform(2, 3, 1e9))


def model_arrays(obj):
    """Every ndarray attribute of a model object, and of the model objects it holds."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (ChannelRealization, PowerConstraints, UncertaintySpec)):
            yield from model_arrays(value)


@pytest.mark.parametrize("spec", [
    UncertaintySpec.nominal(3, 5),
    UncertaintySpec.uniform(3, 5, 0.4),
    UncertaintySpec.uniform(3, 5, 0.8, mode="probabilistic", delta0=0.25),
])
def test_pickled_model_objects_keep_read_only_arrays(spec):
    # a sweep hands each worker process pickled scenarios and specs
    sc = random_scenario(3, 5, seed=9, mask=0.3).with_uncertainty(spec)
    for obj in (sc, spec, sc.channel, sc.constraints):
        back = pickle.loads(pickle.dumps(obj))
        arrays_before, arrays_back = list(model_arrays(obj)), list(model_arrays(back))
        assert len(arrays_back) == len(arrays_before) > 0
        for got, want in zip(arrays_back, arrays_before):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got.flat[0] = 1.0
    back = pickle.loads(pickle.dumps(sc))
    assert (back.seed, back.uncertainty.mode, back.uncertainty.delta0) == (
        sc.seed, spec.mode, spec.delta0)


def test_model_objects_compare_by_identity():
    # arrays have no single truth value, so equality is identity, not a ValueError
    sc = random_scenario(2, 3, seed=1)
    assert sc == sc
    assert (sc == random_scenario(2, 3, seed=1)) is False
    assert (sc.uncertainty == UncertaintySpec.nominal(2, 3)) is False
    assert (RunConfig(init=np.zeros((2, 3))) == RunConfig(init=np.zeros((2, 3)))) is False
    assert len({sc, sc.channel, sc.constraints, sc.uncertainty}) == 4  # hashable too


def test_scenario_roundtrip(tmp_path):
    sc = random_scenario(3, 5, seed=9).with_uncertainty(
        UncertaintySpec.uniform(3, 5, 0.4, mode="probabilistic", delta0=0.8))
    path = tmp_path / "sc.json"
    save_scenario(sc, path)
    back = load_scenario(path)
    assert np.array_equal(back.channel.gains, sc.channel.gains)
    assert np.array_equal(back.channel.noise, sc.channel.noise)
    assert np.array_equal(back.constraints.mask, sc.constraints.mask)
    assert np.array_equal(back.uncertainty.eps, sc.uncertainty.eps)
    assert back.uncertainty.mode == "probabilistic"
    assert back.uncertainty.delta0 == 0.8
    assert back.seed == 9


def test_scenario_dict_errors_name_the_field():
    doc = scenario_to_dict(random_scenario(2, 3, seed=1))
    missing = dict(doc)
    del missing["gains"]
    with pytest.raises(ValueError, match="gains"):
        scenario_from_dict(missing)
    wrong_shape = dict(doc)
    wrong_shape["noise"] = [[1.0, 2.0]]
    with pytest.raises(ValueError, match="noise"):
        scenario_from_dict(wrong_shape)
    bad_mode = dict(doc)
    bad_mode["mode"] = "optimistic"
    with pytest.raises(ValueError, match="mode"):
        scenario_from_dict(bad_mode)
    not_numeric = dict(doc)
    not_numeric["p_max"] = ["a", "b"]
    with pytest.raises(ValueError, match="p_max"):
        scenario_from_dict(not_numeric)
    with pytest.raises(ValueError):
        scenario_from_dict([1, 2, 3])
    # a scalar of another type is an error, not truncated or coerced
    probabilistic = scenario_to_dict(random_scenario(2, 3, seed=1).with_uncertainty(
        UncertaintySpec.uniform(2, 3, 0.5, mode="probabilistic", delta0=0.25)))
    for name, value in (("M", 2.5), ("M", "2"), ("M", True), ("K", 3.9), ("seed", 1.7),
                        ("seed", "5"), ("seed", True), ("delta0", "0.25"), ("delta0", True)):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            scenario_from_dict({**probabilistic, name: value})


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_scenario(path)


def test_bundled_scenario_shape():
    sc = load_bundled_scenario()
    assert sc.num_users == 3 and sc.num_subchannels == 6
    assert np.all(sc.constraints.p_max == 1.0)
    assert np.all(sc.constraints.mask == 0.5)
    with pytest.raises(ValueError):
        load_bundled_scenario("no_such_table")


def test_degenerate_warning_not_raised_for_safe_specs():
    spec = UncertaintySpec.uniform(1, 2, 0.9, mode="probabilistic", delta0=0.2)
    assert not spec.is_degenerate()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        effective_interference(np.array([0.1, 0.2]), spec, 0)


def test_scenario_to_dict_is_json_ready():
    sc = random_scenario(2, 3, seed=4)
    text = json.dumps(scenario_to_dict(sc))
    assert "gains" in text and "worstcase" not in text  # nominal by default


class _Mapping(dict):
    """A dict subclass, which json.dumps indents like any dict."""


JSON_KEYS = st.text(max_size=4) | st.sampled_from(["é", "\u2028", "\n\"\\", "\x00\t", "😀"])
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                | st.floats() | st.floats().map(np.float64)
                | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]))
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(JSON_KEYS, inner, max_size=4)
                   | st.dictionaries(JSON_KEYS, inner, max_size=3).map(_Mapping)),
    max_leaves=24)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(JSON_DOCUMENTS)
@example([_Mapping(b=[1.5, None], a=_Mapping()), 2])
@example({"é\n": [[], {}, [[]], [{}], ()], "a": [1, [2.5, "x"], {"k": (True, -0.0)}]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, np.float64(1 / 3), 7,
          False, None, "\u2028"])
def test_dumps_is_indented_json_dumps(doc):
    # the C-encoder writer gives json.dumps' indented bytes on every document
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dumps_rejects_keys_other_than_str():
    for doc in ({1: 2}, [{"a": {None: 1}}], {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            _dumps(doc)


def test_saved_scenario_is_indented_json_dumps(tmp_path):
    sc = random_scenario(8, 64, seed=3, **ENSEMBLES["low"]).with_uncertainty(
        UncertaintySpec.uniform(8, 64, 0.5))
    save_scenario(sc, tmp_path / "sc.json")
    assert (tmp_path / "sc.json").read_text() == (
        json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")
