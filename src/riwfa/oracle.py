"""Grid-search oracles that check the closed-form solvers from the outside.

``brute_force_best_response`` restricts powers to a lattice with a fixed
step and scores candidates with nothing but the utility definition, so it
shares no code with ``waterfill``.  ``exhaustive_equilibrium_scan`` by design
scores grid profiles with ``fixed_point_residual``, whose exact best responses
call ``waterfill``: it checks equilibria, not the water-filler.  It takes any
number of users within ``GridSpec.max_points`` and returns its hits in
lexicographic order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import fixed_point_residual
from .model import Scenario

MAX_SUBCHANNELS = 8
# Grid profiles the scan scores in one stacked residual call: bounds its memory.
SCAN_CHUNK = 4096


@dataclass(frozen=True)
class GridSpec:
    """Lattice step and a hard cap on how much grid work the oracle accepts."""

    resolution: float
    max_points: int = 50_000_000

    def __post_init__(self):
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError("resolution must be finite and > 0")
        if self.max_points < 1:
            raise ValueError("max_points must be >= 1")


def _grid_steps(limit: float, resolution: float) -> int:
    """Number of lattice points {0, res, 2*res, ...} not exceeding ``limit``."""
    return int(np.floor(limit / resolution + 1e-9)) + 1


def brute_force_best_response(s_eff, p_max: float, mask, grid: GridSpec) -> np.ndarray:
    """Utility-maximizing allocation over the power lattice.

    Every channel ranges over multiples of ``grid.resolution`` up to
    min(mask[k], p_max); combinations whose total exceeds p_max are discarded
    (never projected back).  Among maximizers the lexicographically smallest
    allocation is returned.  The full lattice is searched exactly via a
    dynamic program over integer budget steps, channel by channel; the
    first-index argmax at each step realizes the lexicographic tie-break.

    Raises ValueError when K exceeds 8 or the lattice work exceeds
    ``grid.max_points``.
    """
    s = np.asarray(s_eff, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("s_eff must be a nonempty 1-d array")
    if s.size > MAX_SUBCHANNELS:
        raise ValueError(f"brute force supports K <= {MAX_SUBCHANNELS}, got K={s.size}")
    if not np.all(np.isfinite(s)) or np.any(s <= 0):
        raise ValueError("s_eff entries must be finite and > 0")
    mask = np.broadcast_to(np.asarray(mask, dtype=float), s.shape)
    p_max = float(p_max)
    if not np.all(np.isfinite(mask)) or np.any(mask <= 0) or p_max <= 0:
        raise ValueError("mask and p_max must be finite and > 0")

    res = grid.resolution
    budget_steps = _grid_steps(p_max, res) - 1
    levels = [_grid_steps(min(mask[k], p_max), res) for k in range(s.size)]
    work = sum(n * (budget_steps + 1) for n in levels)
    if work > grid.max_points:
        raise ValueError(
            f"grid of {work} lattice evaluations exceeds max_points={grid.max_points}"
        )

    # value[b] = best utility achievable on channels k..K-1 with b budget steps.
    value = np.zeros(budget_steps + 1)
    choices = []
    for k in range(s.size - 1, -1, -1):
        n = levels[k]
        gain = np.log1p(np.arange(n) * res / s[k])
        padded = np.concatenate([np.full(n - 1, -np.inf), value])
        windows = sliding_window_view(padded, n)[:, ::-1]  # windows[b, a] = value[b - a]
        scored = windows + gain
        choice = scored.argmax(axis=1)
        value = scored[np.arange(budget_steps + 1), choice]
        choices.append(choice)
    choices.reverse()

    steps = np.zeros(s.size, dtype=int)
    remaining = budget_steps
    for k in range(s.size):
        steps[k] = choices[k][remaining]
        remaining -= steps[k]
    return steps * res


def _feasible_step_vectors(levels: list[int], budget_steps: int) -> np.ndarray:
    """All per-channel step vectors with sum <= budget_steps, in lexicographic
    order."""
    combos = np.indices(levels).reshape(len(levels), -1).T
    return combos[combos.sum(axis=1) <= budget_steps]


def exhaustive_equilibrium_scan(scenario: Scenario, grid: GridSpec) -> list[np.ndarray]:
    """All grid profiles whose fixed-point residual is <= 2 * resolution, in
    lexicographic order (user 0's lattice point outermost).

    Any M and K are accepted while each user's lattice and the number of grid
    profiles stay within ``grid.max_points``; the profiles are scored in
    stacks of SCAN_CHUNK.  The residual is measured against exact best
    responses, so every true equilibrium has a qualifying grid profile within
    one lattice step.  Because the threshold is a radius, a cloud of
    neighboring grid points qualifies around each equilibrium; see
    ``cluster_profiles`` to reduce the cloud to representatives.
    """
    res = grid.resolution
    p_max, mask = scenario.constraints.p_max.tolist(), scenario.constraints.mask.tolist()
    levels = [[_grid_steps(min(m, p), res) for m in row] for p, row in zip(p_max, mask)]
    for points in map(math.prod, levels):
        if points > grid.max_points:
            raise ValueError(f"per-user grid of {points} points exceeds "
                             f"max_points={grid.max_points}")
    per_user = [_feasible_step_vectors(user_levels, _grid_steps(p, res) - 1) * res
                for user_levels, p in zip(levels, p_max)]
    counts = [len(points) for points in per_user]
    total = math.prod(counts)
    if total > grid.max_points:
        raise ValueError(f"scan of {total} grid profiles exceeds max_points={grid.max_points}")

    found = []
    for start in range(0, total, SCAN_CHUNK):
        rows = np.unravel_index(np.arange(start, min(start + SCAN_CHUNK, total)), counts)
        profiles = np.stack([points[r] for points, r in zip(per_user, rows)], axis=1)
        found.extend(profiles[fixed_point_residual(profiles, scenario) <= 2.0 * res])
    return found


def cluster_profiles(profiles: list[np.ndarray], radius: float) -> list[np.ndarray]:
    """Greedy sup-norm clustering: keep a profile as a representative unless
    an earlier representative is within ``radius``."""
    reps: list[np.ndarray] = []
    for profile in profiles:
        if not any(np.abs(profile - rep).max() <= radius for rep in reps):
            reps.append(profile)
    return reps
