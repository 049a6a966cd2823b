"""Single-user water-filling best responses.

Given effective interference levels s[k] > 0, a total budget and per-channel
caps, the maximizer of  sum_k log(1 + p[k]/s[k])  subject to
sum_k p[k] <= p_max,  0 <= p[k] <= mask[k]  is

    p[k] = clamp(mu - s[k], 0, mask[k])

where the water level mu is chosen to spend the budget exactly, unless the
caps alone sum to at most the budget (then every channel saturates and the
budget constraint is slack).  The dual variable of the budget constraint is
lam = 1/mu.

The total is piecewise linear in mu, with breakpoints at s[k] and
s[k] + mask[k].  ``waterfill`` sorts them once, accumulates the total along
them and solves the segment that reaches the budget in closed form (Palomar
and Fonollosa, IEEE TSP 53(2), 2005): O(K log K), with no iteration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelRealization,
    PowerConstraints,
    UncertaintySpec,
    effective_interference,
    normalized_interference,
)


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

    if mask.sum() <= p_max:
        # Every channel saturates; the budget never binds.
        return WaterfillSolution(p=mask.copy(), water_level=np.inf, lam=0.0,
                                 budget_active=False)

    top = s + mask
    levels = np.concatenate((s, top))
    order = np.argsort(levels)
    levels = levels[order]
    # slope[j] channels fill on segment j, from levels[j] to levels[j + 1];
    # spent[j] is the total allocated at its upper end.
    slope = np.cumsum(np.where(order < s.size, 1, -1))[:-1]
    spent = np.cumsum(slope * np.diff(levels))
    # Lower end of the first segment to reach the budget (the last breakpoint
    # if rounding leaves spent[-1] an ulp below it).  No breakpoint lies
    # inside that segment, so the levels classify every channel.
    lo = levels[np.searchsorted(spent, p_max)]
    saturated = top <= lo
    interior = (s <= lo) & ~saturated    # empty only if capped >= p_max
    capped = mask[saturated].sum()
    if capped >= p_max:
        # The saturated masks alone spend the budget: a running total an ulp
        # short stepped over the flat stretch they end on.  Take its lower end.
        mu = float(top[saturated].max())
    else:
        mu = float((p_max - capped + s[interior].sum()) / interior.sum())
    return WaterfillSolution(p=np.clip(mu - s, 0.0, mask), water_level=mu,
                             lam=1.0 / mu, budget_active=True)


def best_response(user: int, channel: ChannelRealization, profile: np.ndarray,
                  constraints: PowerConstraints,
                  uncertainty: UncertaintySpec) -> WaterfillSolution:
    """Water-filling against the interference the other users generate.

    ``profile`` is a full (M, K) power profile; the user's own row is ignored.
    The nominal interference is scaled by the user's uncertainty multipliers
    before water-filling.
    """
    s_bar = normalized_interference(channel, profile, user)
    s_eff = effective_interference(s_bar, uncertainty, user)
    return waterfill(s_eff, float(constraints.p_max[user]), constraints.mask[user])
