"""Single-user water-filling best responses.

Given effective interference levels s[k] > 0, a total budget and per-channel
caps, the maximizer of  sum_k log(1 + p[k]/s[k])  subject to
sum_k p[k] <= p_max,  0 <= p[k] <= mask[k]  is

    p[k] = clamp(mu - s[k], 0, mask[k])

where the water level mu is chosen to spend the budget exactly, or is +inf
when the caps alone sum to at most the budget (then every channel saturates,
the budget is slack and its dual variable lam = 1/mu is 0).

The total is piecewise linear in mu, with breakpoints at s[k] and
s[k] + mask[k].  The closed form sorts them once, accumulates the total
along them and solves the segment that reaches the budget (Palomar and
Fonollosa, IEEE TSP 53(2), 2005): O(K log K), with no iteration and no input
checks.  ``_waterfill`` solves one row and ``_waterfill_rows`` a (B, K) stack,
each row bitwise as alone.  ``waterfill`` checks its input first;
``best_response`` and ``_replies`` trust the validated ``Scenario``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Scenario, _effective_interference, effective_interference,
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
    if not np.all(np.isfinite(s)) or np.any(s <= 0):
        raise ValueError("s_eff entries must be finite and > 0")
    if not np.all(np.isfinite(mask)) or np.any(mask <= 0):
        raise ValueError("mask entries must be finite and > 0")
    if not np.isfinite(p_max) or p_max <= 0:
        raise ValueError("p_max must be finite and > 0")
    return _waterfill(s, p_max, mask)


def _waterfill(s: np.ndarray, p_max: float, mask: np.ndarray) -> WaterfillSolution:
    if mask.sum() <= p_max:
        mu = np.inf  # every channel saturates; the budget never binds
    else:
        top = s + mask
        levels = np.concatenate((s, top))
        order = np.argsort(levels)
        levels = levels[order]
        # slope[j] channels fill on segment j, from levels[j] to levels[j + 1];
        # spent[j] is the total allocated at its upper end.
        slope = np.cumsum(np.where(order < s.size, 1, -1))[:-1]
        spent = np.cumsum(slope * (levels[1:] - levels[:-1]))
        # Lower end of the first segment to reach the budget (the last breakpoint
        # if rounding leaves spent[-1] an ulp below it).  No breakpoint lies
        # inside that segment, so the levels classify every channel.
        lo = levels[np.searchsorted(spent, p_max)]
        saturated = top <= lo
        interior = (s <= lo) & ~saturated    # empty only if capped >= p_max
        capped = (mask * saturated).sum()
        if capped >= p_max:
            # The saturated masks alone spend the budget: a running total an ulp
            # short stepped over the flat stretch they end on.  Take its lower end.
            mu = float(top[saturated].max())
        else:
            mu = float((p_max - capped + (s * interior).sum()) / interior.sum())
    return WaterfillSolution(p=np.minimum(np.maximum(mu - s, 0.0), mask), water_level=mu,
                             lam=1.0 / mu, budget_active=mu < np.inf)


def _waterfill_rows(s: np.ndarray, p_max: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``_waterfill(s[b], p_max[b], mask[b]).p`` for every row b of the (B, K)
    stacks, bitwise: each step runs along axis 1, and a row of unit stride
    sums as a lone row does.  One row is cheaper through ``_waterfill``."""
    if len(s) == 1:
        return _waterfill(s[0], float(p_max[0]), mask[0]).p[None]
    top = s + mask
    levels = np.concatenate((s, top), axis=1)
    order = np.argsort(levels, axis=1)
    index = np.arange(len(s))[:, None]
    levels = levels[index, order]
    slope = np.cumsum(np.where(order < s.shape[1], 1, -1), axis=1)[:, :-1]
    spent = np.cumsum(slope * (levels[:, 1:] - levels[:, :-1]), axis=1)
    # spent is nondecreasing, so counting its entries below the budget is searchsorted
    lo = levels[index, (spent < p_max[:, None]).sum(axis=1, keepdims=True)]
    saturated = top <= lo
    interior = (s <= lo) & ~saturated
    capped = (mask * saturated).sum(axis=1)
    level = p_max - capped + (s * interior).sum(axis=1)
    level /= np.maximum(interior.sum(axis=1), 1)  # no interior: the next line drops it
    mu = np.where(capped >= p_max, np.where(saturated, top, -np.inf).max(axis=1), level)
    mu[mask.sum(axis=1) <= p_max] = np.inf
    return np.minimum(np.maximum(mu[:, None] - s, 0.0), mask)


def _replies(s_bar: np.ndarray, mult: np.ndarray, p_max: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
    """Every row's reply in one row-kernel call: (B, K) rows of nominal
    interference, multipliers and masks, and one budget per row."""
    s_eff = _effective_interference(s_bar, mult)
    if not np.isfinite(s_eff).all():
        raise ValueError("the profile's effective interference must be finite")
    return _waterfill_rows(s_eff, p_max, mask)


def best_response(scenario: Scenario, user: int, profile: np.ndarray) -> WaterfillSolution:
    """Water-filling against the interference the other users generate.

    ``profile`` is a full (M, K) power profile; the user's own row is ignored.
    The nominal interference, scaled by the user's uncertainty multipliers, is
    water-filled without re-checking what the ``Scenario`` guarantees.
    """
    s_bar = normalized_interference(scenario.channel, profile, user)
    s_eff = effective_interference(s_bar, scenario.uncertainty, user)
    if not np.isfinite(s_eff).all():
        raise ValueError("the profile's effective interference must be finite")
    constraints = scenario.constraints
    return _waterfill(s_eff, float(constraints.p_max[user]), constraints.mask[user])
