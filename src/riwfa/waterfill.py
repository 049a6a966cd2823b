"""Single-user water-filling best responses.

Given effective interference levels s[k] > 0, a total budget and per-channel
caps, the maximizer of  sum_k log(1 + p[k]/s[k])  subject to
sum_k p[k] <= p_max,  0 <= p[k] <= mask[k]  is

    p[k] = clamp(mu - s[k], 0, mask[k])

where the water level mu is chosen to spend the budget exactly, or is +inf
when the caps alone sum to at most the budget (then every channel saturates,
the budget is slack and its dual variable lam = 1/mu is 0).

The total is piecewise linear in mu, with breakpoints at s[k] and
s[k] + mask[k].  The closed form sorts them, accumulates the total along them
and solves the segment that reaches the budget (Palomar and Fonollosa, IEEE
TSP 53(2), 2005): O(K log K), with no iteration and no input checks.  Both
of its forms run along the last axis, on one (K,) row or a stack of rows on
any leading axes, each row bitwise as alone.  ``_waterfill_2k`` sorts all 2K
breakpoints and serves any masks.  ``_waterfill`` solves on the K lower
levels first, the mask-free case, when K > 1 and every mask is at least its
row's budget, as in every generated draw.  It keeps that answer if the
water rose above the segment's lower end and no top s + mask lies below the
water level; otherwise the 2K form serves the call, and a stack falls back
whole.  A kept answer is the 2K form's bit for bit.  If every top lies above
the water level, the 2K form's totals below it are the same operations on
the same sorted levels, its capped total is 0.0 and neither of its rare
branches fires.  A top at the water level, as when one channel takes the
whole budget, may be saturated by the 2K form, which then returns that top:
the same level.  A row's totals are 0-d scalars and a stack's are columns:
sequential play makes one call per user per tick on a lone row, where per-op
overhead rules.  On a 2-core VM a K = 64 row takes about 12 us on the K
levels against 19 us on the 2K, and an (8, 64) stack about 30 us against
60 us.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (EFFECTIVE_INTERFERENCE_FLOOR, Scenario, effective_interference,
                    normalized_interference)


@dataclass(frozen=True)
class WaterfillSolution:
    """Optimal allocation with its water level and budget dual variable.

    ``water_level`` is +inf (and ``lam`` is 0) when the mask saturates every
    channel before the budget binds.
    """

    p: np.ndarray
    water_level: float
    lam: float
    budget_active: bool


def waterfill(s_eff: np.ndarray, p_max: float, mask) -> WaterfillSolution:
    """Water-fill a budget over channels with interference levels ``s_eff``.

    Parameters
    ----------
    s_eff : array of K strictly positive effective interference levels.
    p_max : total power budget, > 0.
    mask : per-channel caps, scalar or length-K array, strictly positive.
    """
    s = np.asarray(s_eff, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("s_eff must be a nonempty 1-d array")
    mask = np.broadcast_to(np.asarray(mask, dtype=float), s.shape).copy()
    p_max = float(p_max)
    for name, value in (("s_eff entries", s), ("mask entries", mask), ("p_max", p_max)):
        if not np.all(np.isfinite(value)) or np.any(value <= 0):
            raise ValueError(f"{name} must be finite and > 0")
    p, mu = _waterfill(s, p_max, mask)
    mu = float(mu)
    return WaterfillSolution(p=p, water_level=mu, lam=1.0 / mu, budget_active=mu < np.inf)


def _waterfill(s: np.ndarray, p_max, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, mu)`` along the last axis, for one (K,) row and a float budget or
    a stack of rows on any leading axes and one budget per row: the K-level
    form where it holds, else ``_waterfill_2k``, bitwise equal either way."""
    k, stack = s.shape[-1], s.ndim > 1
    budget = np.asarray(p_max)[..., None] if stack else p_max
    # Masks at least the budget sum past it when K > 1, and any one of them
    # alone spends it.  The route is set before any work, so masks that bind
    # pay one comparison.
    if k > 1 and not np.count_nonzero(mask < budget):
        # the 2K form's steps on its levels below every top: slope[j] = j + 1
        levels = np.sort(s, axis=-1)
        spent = np.add.accumulate(_ramp(k) * (levels[..., 1:] - levels[..., :-1]), axis=-1)
        if stack:
            lo = np.maximum(levels[..., :1], np.maximum.reduce(
                levels[..., 1:], -1, keepdims=True, where=spent < budget, initial=0.0))
        else:
            lo = levels[spent.searchsorted(p_max)]
        interior = s <= lo                   # never empty: lo >= the lowest level
        mu = budget + np.add.reduce(s * interior, axis=-1, keepdims=stack)
        mu /= np.add.reduce(interior, axis=-1, keepdims=True) if stack else np.count_nonzero(interior)
        # Kept if the water rose above lo, which a budget below the levels'
        # resolution need not do, and no top s + mask lies below it.  Then the
        # 2K form saturates nothing, or only channels whose top is the water
        # level, and it returns that level.
        if ((not np.count_nonzero(mu <= lo) if stack else mu > lo)
                and not np.count_nonzero(mu > s + mask)):
            return np.minimum(np.maximum(mu - s, 0.0), mask), mu[..., 0] if stack else mu
    return _waterfill_2k(s, p_max, mask)


def _waterfill_2k(s: np.ndarray, p_max, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, mu)`` along the last axis on all 2K levels, for any masks.  Every
    step runs along that axis and a row of unit stride sums as a lone row does,
    so each row of a stack solves bitwise as alone.  A stack keeps each row's
    totals as a column; a lone row keeps them as 0-d scalars, which cost less
    to broadcast, and its ``mu`` is an ``np.float64``."""
    stack = s.ndim > 1
    top = s + mask
    levels = np.concatenate((s, top), axis=-1)
    order = levels.argsort(axis=-1)
    levels.sort(axis=-1)
    # slope[j] channels fill on segment j, from levels[j] to levels[j + 1];
    # spent[j] is the total allocated at its upper end.
    slope = np.add.accumulate(_signs(s.shape[-1])[order], axis=-1)[..., :-1]
    spent = np.add.accumulate(slope * (levels[..., 1:] - levels[..., :-1]), axis=-1)
    # lo, the lower end of the first segment to reach the budget (the last level
    # if rounding leaves spent[-1] an ulp short), is the highest level whose total
    # is below it, or the first: spent rises, levels are sorted and > 0.  No
    # breakpoint lies inside that segment, so the levels classify every channel.
    if stack:
        budget = np.asarray(p_max)[..., None]
        lo = np.maximum(levels[..., :1], np.maximum.reduce(
            levels[..., 1:], -1, keepdims=True, where=spent < budget, initial=0.0))
    else:  # spent never falls, so the totals below the budget come first: count them
        budget, lo = p_max, levels[spent.searchsorted(p_max)]
    saturated = top <= lo
    interior = (s <= lo) ^ saturated     # top >= s; empty only if capped >= p_max
    capped = np.add.reduce(mask * saturated, axis=-1, keepdims=stack)
    mu = budget - capped + np.add.reduce(s * interior, axis=-1, keepdims=stack)
    # Saturated masks that alone spend the budget stepped a running total an ulp
    # short over the flat stretch they end on: take its lower end, their highest
    # top.  Masks that sum to at most the budget all saturate; it never binds.
    if stack:
        mu /= np.maximum(np.add.reduce(interior, axis=-1, keepdims=True), 1)
        np.copyto(mu, np.maximum.reduce(top, axis=-1, keepdims=True, where=saturated,
                                        initial=0.0), where=capped >= budget)
        np.copyto(mu, np.inf, where=np.add.reduce(mask, axis=-1, keepdims=True) <= budget)
    else:
        mu /= max(np.count_nonzero(interior), 1)
        if np.add.reduce(mask) <= budget:
            mu = np.float64(np.inf)
        elif capped >= budget:
            mu = np.maximum.reduce(top, where=saturated, initial=0.0)
    return np.minimum(np.maximum(mu - s, 0.0), mask), mu[..., 0] if stack else mu


@functools.cache
def _signs(k: int) -> np.ndarray:
    """+1 for each of the K lower breakpoints s[k] and -1 for each upper one."""
    signs = np.repeat(np.array([1, -1]), k)
    signs.flags.writeable = False
    return signs


@functools.cache
def _ramp(k: int) -> np.ndarray:
    """1 ... K-1: the channels that fill between consecutive lower levels."""
    ramp = np.arange(1, k)
    ramp.flags.writeable = False
    return ramp


def _replies(s_bar: np.ndarray, mult: np.ndarray, p_max: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
    """Every row's reply: rows of nominal interference, multipliers and masks
    stacked on any leading axes, and one budget per row.  A first axis of one
    is dropped, so a lone row goes in as a (K,) row, which costs less than a
    (1, K) stack.  The caller warns of multipliers <= 0 and, for a profile
    that is not played from a feasible start, checks that ``s_eff`` is finite."""
    s_eff = np.maximum(s_bar * mult, EFFECTIVE_INTERFERENCE_FLOOR)
    if len(s_eff) == 1:
        return _waterfill(s_eff[0], p_max[0], mask[0])[0][None]
    return _waterfill(s_eff, p_max, mask)[0]


def best_response(scenario: Scenario, user: int, profile: np.ndarray) -> WaterfillSolution:
    """Water-filling against the interference the other users generate.

    ``profile`` is a full (M, K) power profile; the user's own row is ignored.
    The nominal interference, scaled by the user's uncertainty multipliers, is
    water-filled by the checked ``waterfill``.
    """
    s_eff = effective_interference(normalized_interference(scenario.channel, profile, user),
                                   scenario.uncertainty, user)
    return waterfill(s_eff, scenario.constraints.p_max[user], scenario.constraints.mask[user])
