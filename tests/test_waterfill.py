"""Water-filling solver tests against closed forms and KKT conditions."""
import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riwfa import (
    ENSEMBLES,
    DegenerateUncertaintyWarning,
    GridSpec,
    PowerConstraints,
    RunConfig,
    Scenario,
    Schedule,
    UncertaintySpec,
    best_response,
    effective_interference,
    exhaustive_equilibrium_scan,
    fixed_point_residual,
    load_bundled_scenario,
    normalized_interference,
    random_scenario,
    run,
    sweep_reports,
    uniform_profile,
    user_utility,
    waterfill,
)
from riwfa.model import MODES
from riwfa.waterfill import _waterfill, _waterfill_2k

WATERFILL = importlib.import_module("riwfa.waterfill")  # the module, not the function
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


@st.composite
def waterfill_row_stacks(draw):
    """(s, p_max, mask): B rows of one K.  Each row's budget is a random one,
    at least its masks' total (every channel saturates), an ulp under it, or
    exactly the masks of its cheapest channels (the flat-stretch branch)."""
    b, k = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    s = draw(arrays(float, (b, k), elements=st.floats(0.01, 2.0)))
    mask = draw(arrays(float, (b, k), elements=st.one_of(st.floats(0.05, 1.5),
                                                          st.floats(1e-18, 1e-6))))
    p_max = np.empty(b)
    for row, kind in enumerate(draw(st.lists(st.sampled_from(
            ["budget", "saturated", "below_total", "prefix"]), min_size=b, max_size=b))):
        total = mask[row].sum()
        if kind == "budget":
            p_max[row] = draw(st.floats(0.05, 3.0))
        elif kind == "saturated":
            p_max[row] = total * draw(st.floats(1.0, 2.0))
        elif kind == "below_total":
            p_max[row] = np.nextafter(total, 0.0)
        else:
            cheap = np.argsort(s[row] + mask[row], kind="stable")[:draw(st.integers(1, k))]
            p_max[row] = mask[row][cheap].sum()
    return s, p_max, mask


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(waterfill_row_stacks())
# a lone row takes each rare branch on scalars: masks that sum to at most the
# budget (mu is +inf), and cheapest masks that spend it exactly, which leave
# the running total an ulp short
@example((np.array([[0.1, 0.2, 2.0]]), np.array([2.5]), np.array([[0.5, 0.5, 1.0]])))
@example((np.array([[0.1, 0.2, 2.0]]), np.array([1.0]), np.array([[0.5, 0.5, 1.0]])))
def test_waterfill_kernel_solves_each_row_of_a_stack_as_alone_bitwise(stack):
    # whatever the batch size and the rows beside it, a row solves as it
    # does alone; sums over compressed rows would differ in the last bit
    s, p_max, mask = stack
    rows = _waterfill(s, p_max, mask)
    flipped = [a[::-1] for a in _waterfill(s[::-1].copy(), p_max[::-1].copy(), mask[::-1].copy())]
    # rows a stride apart, as the tick loop's per-user views of its stacks
    spread = _waterfill(s, *(np.stack([a, a], axis=1)[:, 0] for a in (p_max, mask)))
    # a stack on two leading axes, as the tick loop's (game, user) rows
    cube = [a[:, 0] for a in _waterfill(s[:, None], p_max[:, None], mask[:, None])]
    for b in range(len(s)):
        p, mu = _waterfill(s[b], float(p_max[b]), mask[b])
        assert mu.shape == () and p.shape == s[b].shape
        for stacked in (rows, flipped, spread, cube):
            assert stacked[0][b].tobytes() == p.tobytes()
            assert stacked[1][b].tobytes() == mu.tobytes()


@st.composite
def guarded_instances(draw):
    """(s, p_max, mask): a (K,) row and a float budget, or a stack of rows and
    one budget per row.  Most rows have masks of at least their budget, where
    the K lower levels are solved first: equal to it, as in every generated
    draw, a random multiple of it or an ulp to either side of it.  The rest
    have random masks, which may bind.  Levels spread over e^+-30, tie, lie a
    budget above another level, or sit a few ulps apart near 1e16, where a
    budget of 1 is below their resolution.  A row's lowest channel may sit
    about a budget below the next, so that it takes the whole budget, give or
    take an ulp."""
    stack, k = draw(st.booleans()), draw(st.integers(1, 24))
    shape = (draw(st.integers(1, 4)), k) if stack else (k,)
    levels = st.one_of(st.floats(0.01, 2.0), st.floats(-30.0, 30.0).map(np.exp))
    s = draw(arrays(float, shape, elements=levels))
    p_max = draw(arrays(float, shape[:-1], elements=st.one_of(
        st.sampled_from([0.3, 1.0, 7.0]), st.floats(1e-3, 10.0))))
    mask = np.empty(shape)
    for row in np.ndindex(shape[:-1]):
        budget = float(p_max[row])
        if draw(st.integers(0, 5)) == 0:
            s[row] = 1e16 + 2.0 * draw(arrays(float, k, elements=st.integers(-4, 4)))
        links = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.booleans())
        for i, j, coincide in draw(st.lists(links, max_size=k)):
            s[row][i] = s[row][j] + budget if coincide else s[row][j]
        if k > 1 and draw(st.booleans()):
            lowest = int(s[row].argmin())
            below = np.sort(s[row])[1] - budget * draw(st.sampled_from(
                [1.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))]))
            s[row][lowest] = below if below > 0 else 1e-9
        kind = draw(st.sampled_from(["equal", "above", "ulp", "random"]))
        if kind == "random":
            mask[row] = draw(arrays(float, k, elements=st.floats(0.05, 1.5)))
        elif kind == "above":
            mask[row] = budget * draw(arrays(float, k, elements=st.floats(1.0, 2.0)))
        else:
            mask[row] = (budget if kind == "equal" else
                         np.nextafter(budget, draw(st.sampled_from([0.0, np.inf]))))
    return s, (p_max if stack else float(p_max)), mask


@PROPERTY
@given(guarded_instances())
# one channel, its mask the budget: the masks do not sum past it, so mu is inf
# and p = mask, where the K-level form would leave p an ulp short
@example((np.array([0.65]), 1.0, np.array([1.0])))
# one channel takes the whole budget: its top is the water level, and the
# K-level form's p overshoots its mask by an ulp before the clamp
@example((np.array([1.7, 5.0]), 1.0, np.array([1.0, 1.0])))
# the first channel's top meets the second level, and rounding puts the water
# level an ulp above that top, where the 2K form saturates the channel
@example((np.array([2.1, 3.3]), 1.2, np.array([1.2, 1.2])))
# a budget below the levels' resolution: the water level does not rise above
# the lowest level, and the 2K form saturates both channels
@example((np.array([1e16, 1e16 + 2.0]), 0.5, np.array([0.8, 0.8])))
# tied levels
@example((np.array([0.3, 0.3, 0.3, 0.9, 0.9]), 1.0, np.full(5, 1.0)))
# masks that sum to at most the budget
@example((np.array([0.1, 0.2]), 2.5, np.array([0.5, 0.5])))
# a mask below the budget that binds
@example((np.array([0.1, 0.2, 2.0]), 1.0, np.array([0.3, 1.0, 1.0])))
# a stack of a K-level row and one whose first mask binds: it falls back whole
@example((np.array([[0.1, 0.2, 2.0], [0.1, 0.2, 2.0]]), np.array([1.0, 1.0]),
          np.array([[1.0, 1.0, 1.0], [0.3, 1.0, 1.0]])))
def test_guarded_waterfill_is_the_2k_form_bitwise(instance):
    s, p_max, mask = instance
    p, mu = _waterfill(s, p_max, mask)
    want_p, want_mu = _waterfill_2k(s, p_max, mask)
    assert type(mu) is type(want_mu) and np.shape(mu) == np.shape(want_mu)
    assert p.shape == want_p.shape and p.tobytes() == want_p.tobytes()
    assert np.asarray(mu).tobytes() == np.asarray(want_mu).tobytes()


@pytest.fixture
def routes(monkeypatch):
    """Counts of water-fills, and of those the 2K form serves, from here on."""
    counts = {"_waterfill": 0, "_waterfill_2k": 0}

    def counted(name):
        kernel = getattr(WATERFILL, name)

        def call(*args):
            counts[name] += 1
            return kernel(*args)
        return call
    for name in counts:
        monkeypatch.setattr(WATERFILL, name, counted(name))
    return counts


def test_generated_draws_take_the_k_level_form_and_bundled_masks_fall_back(routes):
    # fig2's first three draws, capped at 45 ticks: every mask is the budget,
    # so no reply pays for the 2K levels
    scenarios = [random_scenario(8, 64, seed=seed, **ENSEMBLES["high"])
                 for seed in range(900, 903)]
    specs = [UncertaintySpec.uniform(8, 64, eps) for eps in (0.0, 1.0, 2.0, 3.0)]
    sweep_reports(scenarios, specs, config=RunConfig(max_iter=45))
    assert routes["_waterfill"] > 0 and routes["_waterfill_2k"] == 0
    # an equilibrium scan's stacks, where most rows put the whole budget on one
    # channel, which then ends exactly at its top
    calls = routes["_waterfill"]
    sc = random_scenario(2, 2, seed=1, **ENSEMBLES["high"]).with_uncertainty(
        UncertaintySpec.uniform(2, 2, 3.0))
    exhaustive_equilibrium_scan(sc, GridSpec(0.05))
    assert routes["_waterfill"] > calls and routes["_waterfill_2k"] == 0
    # table2.json's masks of 0.5 bind against budgets of 1: every reply falls back
    calls = routes["_waterfill"]
    for spec in (UncertaintySpec.nominal(3, 6), UncertaintySpec.uniform(3, 6, 3.0)):
        run(load_bundled_scenario().with_uncertainty(spec), Schedule("sequential"))
    assert routes["_waterfill"] - calls == routes["_waterfill_2k"] > 0


@pytest.mark.parametrize("s, p_max, mask, fast", [
    ([0.1, 0.2, 2.0], 1.0, [1.0, 1.0, 1.0], True),
    ([1.7, 5.0], 1.0, [1.0, 1.0], True),          # the first channel ends at its top
    ([0.65], 1.0, [1.0], False),                  # one channel: its mask is the budget
    ([2.1, 3.3], 1.2, [1.2, 1.2], False),         # a top an ulp below the water level
    ([1e16, 1e16 + 2.0], 0.5, [0.8, 0.8], False),  # the water does not rise
    ([0.1, 0.2, 2.0], 1.0, [0.3, 1.0, 1.0], False),  # a mask below the budget
])
def test_a_row_takes_the_k_level_form_only_where_its_answer_is_the_2k_forms(routes, s, p_max,
                                                                            mask, fast):
    WATERFILL._waterfill(np.array(s), p_max, np.array(mask))
    assert routes == {"_waterfill": 1, "_waterfill_2k": 0 if fast else 1}


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
            a = best_response(sc.with_uncertainty(nominal), i, profile)
            b = best_response(sc.with_uncertainty(worst), i, profile)
            assert np.array_equal(a.p, b.p)


def test_best_response_worstcase_never_better_off():
    # planning against inflated interference costs utility at the true one
    sc = random_scenario(2, 8, seed=6, cross_range=(0.001, 0.01),
                         noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    from riwfa import normalized_interference
    s_true = normalized_interference(sc.channel, profile, 0)
    nominal = best_response(sc.with_uncertainty(UncertaintySpec.nominal(2, 8)), 0, profile)
    hedged = best_response(sc.with_uncertainty(UncertaintySpec.uniform(2, 8, 1.0)), 0, profile)
    assert user_utility(hedged.p, s_true) <= user_utility(nominal.p, s_true) + 1e-12


def test_best_response_respects_constraints():
    sc = random_scenario(3, 5, seed=8, mask=0.3, noise_range=(0.001, 0.01))
    profile = uniform_profile(sc.constraints)
    sol = best_response(sc.with_uncertainty(UncertaintySpec.uniform(3, 5, 0.5)), 1, profile)
    assert np.all(sol.p <= 0.3 + 1e-12)
    assert sol.p.sum() <= 1.0 + 1e-9


@st.composite
def reply_instances(draw):
    """A channel with random budgets and masks (a budget the masks cannot
    fill, often), a spec of any mode with eps up to 3 (so probabilistic
    multipliers often clamp), and a profile of random fractions of the masks."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    mode = draw(st.sampled_from(MODES))
    spec = UncertaintySpec(eps=draw(arrays(float, (m, k), elements=st.floats(0.0, 3.0))),
                           mode=mode,
                           delta0=draw(st.floats(0.0, 1.0)) if mode == "probabilistic" else None)
    mask = draw(arrays(float, (m, k), elements=st.floats(0.01, 1.0)))
    sc = random_scenario(m, k, seed=draw(st.integers(0, 10_000)), cross_range=(0.0, 0.5),
                         p_max=draw(arrays(float, (m,), elements=st.floats(0.05, 3.0))),
                         mask=mask).with_uncertainty(spec)
    profile = mask * draw(arrays(float, (m, k), elements=st.floats(0.0, 1.0)))
    return sc, profile


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reply_instances())
def test_best_response_is_the_checked_waterfill_of_its_interference(instance):
    # best_response is waterfill, checks and all, on the interference it faces
    sc, x = instance
    for i in range(sc.num_users):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateUncertaintyWarning)
            got = best_response(sc, i, x)
            s_eff = effective_interference(normalized_interference(sc.channel, x, i),
                                           sc.uncertainty, i)
        want = waterfill(s_eff, sc.constraints.p_max[i], sc.constraints.mask[i])
        assert got.p.tobytes() == want.p.tobytes()
        assert (np.array([got.water_level, got.lam]).tobytes()
                == np.array([want.water_level, want.lam]).tobytes())
        assert got.budget_active is want.budget_active


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reply_to_a_profile_that_is_not_finite_is_a_value_error(bad):
    sc = random_scenario(3, 4, seed=5)
    profile = uniform_profile(sc.constraints)
    profile[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        best_response(sc, 0, profile)
    with pytest.raises(ValueError, match="finite"):
        fixed_point_residual(profile, sc)


def test_residual_of_a_profile_whose_interference_overflows_is_a_value_error():
    # replies trust a played profile; the residual takes any finite profile,
    # and one of 1e308 on a channel this strong overflows its interference:
    # it raises, alone or in a stack, and warns of no overflow first
    sc = random_scenario(2, 3, seed=1, cross_range=(0.5, 1.0))
    stack = np.zeros((3, 2, 3))
    stack[1] = 1e308
    for profile in (np.full((2, 3), 1e308), stack):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="finite"):
            warnings.simplefilter("error", RuntimeWarning)
            fixed_point_residual(profile, sc)


@pytest.mark.parametrize("shape", [(3, 1), (2, 4), (4, 4), (3, 5)])
def test_best_response_rejects_constraints_of_another_shape(shape):
    # a one-column mask would broadcast and a short p_max would lend another
    # user's budget; the Scenario a reply takes refuses both, whether built
    # anew or with its constraints swapped
    sc = random_scenario(3, 4, seed=5)
    constraints = PowerConstraints.uniform(*shape, 1.0)
    with pytest.raises(ValueError, match="constraints"):
        Scenario(channel=sc.channel, constraints=constraints, uncertainty=sc.uncertainty)
    with pytest.raises(ValueError, match="constraints"):
        replace(sc, constraints=constraints)
