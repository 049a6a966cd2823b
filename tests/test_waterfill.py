"""Water-filling solver tests against closed forms and KKT conditions."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riwfa import (
    UncertaintySpec,
    best_response,
    random_scenario,
    uniform_profile,
    user_utility,
    waterfill,
)

PROPERTY = settings(max_examples=500, deadline=None, derandomize=True, database=None)


def test_two_channel_closed_form():
    sol = waterfill(np.array([0.1, 0.3]), 1.0, np.array([10.0, 10.0]))
    assert np.allclose(sol.p, [0.6, 0.4], atol=1e-9)
    assert abs(sol.water_level - 0.7) < 1e-9
    assert sol.budget_active
    assert abs(sol.lam - 1.0 / 0.7) < 1e-9


def test_mask_binding_before_budget():
    sol = waterfill(np.array([0.1, 0.3]), 1.0, np.array([0.4, 0.4]))
    assert np.array_equal(sol.p, [0.4, 0.4])
    assert sol.lam == 0.0
    assert not sol.budget_active
    assert sol.water_level == np.inf


def test_single_channel_fills_binding_cap():
    sol = waterfill(np.array([0.7]), 1.0, np.array([0.3]))
    assert np.array_equal(sol.p, [0.3])
    sol = waterfill(np.array([0.7]), 0.2, np.array([5.0]))
    assert np.allclose(sol.p, [0.2], atol=1e-10)


@st.composite
def waterfill_instances(draw):
    """(s, mask, p_max, flat) with tied levels, coincident breakpoints
    (s[i] = s[j] + mask[j]), tiny masks, budgets the masks cannot reach and
    budgets that the masks of the cheapest channels spend exactly.

    Half the instances live on a grid of multiples of 1/64, where every sum
    the solver forms is exact.  ``flat`` is the lower end of the flat
    stretch of the water-filling curve that spends the budget, if any.
    """
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        s_values = st.integers(1, 128).map(lambda n: n / 64)
        mask_values = st.integers(4, 96).map(lambda n: n / 64)
        budgets = st.integers(4, 192).map(lambda n: n / 64)
    else:
        s_values = st.floats(0.01, 2.0)
        mask_values = st.one_of(st.floats(0.05, 1.5), st.floats(1e-18, 1e-6),
                                st.integers(1, 12).map(lambda n: n / 8))
        budgets = st.floats(0.05, 3.0)
    s = np.array(draw(st.lists(s_values, min_size=k, max_size=k)))
    mask = np.array(draw(st.lists(mask_values, min_size=k, max_size=k)))
    base = s.copy()
    links = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.booleans())
    for i, j, coincide in draw(st.lists(links, max_size=k)):
        s[i] = base[j] + mask[j] if coincide else base[j]

    kind = draw(st.sampled_from(["budget", "prefix", "below_total"]))
    if kind == "budget":
        return s, mask, draw(budgets), None
    if kind == "below_total":
        # one ulp under the masks' total, which the solver's running total
        # can fall short of; the floor keeps the budget above the resolution
        # of the water level
        return s, mask, float(np.nextafter(max(mask.sum(), 0.05), 0.0)), None
    top = s + mask
    lowest = np.argsort(top, kind="stable")
    n = draw(st.integers(1, k))
    cheap, rest = lowest[:n], lowest[n:]
    p_max = float(mask[cheap].sum())
    exact_sum = np.all(mask[cheap] * 64 == np.round(mask[cheap] * 64))
    flat = top[cheap].max()
    if exact_sum and p_max >= 0.05 and np.all(s[rest] >= flat):
        return s, mask, p_max, flat
    return s, mask, max(p_max, 0.05), None


@PROPERTY
@given(waterfill_instances())
# the running total falls an ulp short of budgets these masks spend exactly
@example((np.array([0.1, 0.2, 2.0]), np.array([0.5, 0.5, 1.0]), 1.0, 0.2 + 0.5))
@example((np.array([0.7]), np.array([0.1]), float(np.nextafter(0.1, 0.0)), None))
def test_kkt_conditions_on_random_instances(instance):
    s, mask, p_max, flat = instance
    sol = waterfill(s, p_max, mask)
    # the allocation is the water-filling shape at the reported level
    assert np.array_equal(sol.p, np.clip(sol.water_level - s, 0.0, mask))
    assert np.all(sol.p >= 0)
    if sol.budget_active:
        assert mask.sum() > p_max
        assert abs(sol.p.sum() - p_max) <= 1e-12 * p_max
        assert sol.lam == 1.0 / sol.water_level
        if flat is not None:
            # the lowest of the water levels that spend the budget
            assert abs(sol.water_level - flat) <= 1e-12 * flat
    else:
        # every channel saturated; complementary slackness: lam = 0
        assert mask.sum() <= p_max
        assert np.array_equal(sol.p, mask)
        assert sol.lam == 0.0 and sol.water_level == np.inf


def test_permutation_equivariance():
    rng = np.random.default_rng(2)
    s = rng.uniform(0.05, 1.0, size=7)
    mask = rng.uniform(0.1, 0.8, size=7)
    perm = rng.permutation(7)
    direct = waterfill(s, 1.0, mask)
    permuted = waterfill(s[perm], 1.0, mask[perm])
    assert np.allclose(permuted.p, direct.p[perm], atol=1e-12)


def test_water_level_ordering():
    # lower interference gets at least as much power, masks permitting
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        s = rng.uniform(0.05, 1.0, size=k)
        mask = np.full(k, 10.0)
        p = waterfill(s, 1.0, mask).p
        order = np.argsort(s)
        assert np.all(np.diff(p[order]) <= 1e-12)


def test_uniform_floor_shift_keeps_split():
    # adding the same constant to every channel cannot change the split
    s = np.array([0.1, 0.3])
    base = waterfill(s, 1.0, np.array([10.0, 10.0]))
    shifted = waterfill(s + 0.2, 1.0, np.array([10.0, 10.0]))
    assert np.allclose(base.p, shifted.p, atol=1e-9)


def test_monotone_shrink_under_scaling():
    # non-uniform floors, tight budget: scaling s by (1 + eps) concentrates
    # power on the better channel and eventually empties the worse one
    s = np.array([0.1, 0.3])
    mask = np.array([10.0, 10.0])
    at_zero = waterfill(s, 0.4, mask)
    assert np.allclose(at_zero.p, [0.3, 0.1], atol=1e-9)
    at_two = waterfill(s * 3.0, 0.4, mask)
    assert np.allclose(at_two.p, [0.4, 0.0], atol=1e-9)


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill(np.array([0.0, 0.1]), 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        waterfill(np.array([np.nan]), 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        waterfill(np.array([0.1]), -1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        waterfill(np.array([0.1]), 1.0, np.array([0.0]))
    with pytest.raises(ValueError):
        waterfill(np.array([[0.1]]), 1.0, np.array([1.0]))


def test_best_response_eps_zero_matches_nominal_bitwise():
    for seed in range(20):
        sc = random_scenario(3, 6, seed=seed, cross_range=(0.0, 0.02),
                             noise_range=(0.001, 0.01))
        profile = uniform_profile(sc.constraints)
        nominal = UncertaintySpec.nominal(3, 6)
        worst = UncertaintySpec.uniform(3, 6, 0.0)
        for i in range(3):
            a = best_response(i, sc.channel, profile, sc.constraints, nominal)
            b = best_response(i, sc.channel, profile, sc.constraints, worst)
            assert np.array_equal(a.p, b.p)


def test_best_response_worstcase_never_better_off():
    # planning against inflated interference costs utility at the true one
    sc = random_scenario(2, 8, seed=6, cross_range=(0.001, 0.01),
                         noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    from riwfa import normalized_interference
    s_true = normalized_interference(sc.channel, profile, 0)
    nominal = best_response(0, sc.channel, profile, sc.constraints,
                            UncertaintySpec.nominal(2, 8))
    hedged = best_response(0, sc.channel, profile, sc.constraints,
                           UncertaintySpec.uniform(2, 8, 1.0))
    assert user_utility(hedged.p, s_true) <= user_utility(nominal.p, s_true) + 1e-12


def test_best_response_respects_constraints():
    sc = random_scenario(3, 5, seed=8, mask=0.3, noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    sol = best_response(1, sc.channel, profile, sc.constraints,
                        UncertaintySpec.uniform(3, 5, 0.5))
    assert np.all(sol.p <= 0.3 + 1e-12)
    assert sol.p.sum() <= 1.0 + 1e-9
