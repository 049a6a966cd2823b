"""Independent numpy reference for the benchmark: scenario draws, exact
water-filling, sequential best-response play, certificate margins.

Nothing here imports riwfa.  The benchmark uses this module to draw its
inputs, to pick the draws of each workload, and to check the program's
outputs.
"""
from __future__ import annotations

import numpy as np

# The package's documented ensembles (riwfa.model.ScenarioTemplate), drawn
# here with the benchmark's own generator.
ENSEMBLES = {
    "low": {"direct": (0.05, 0.1), "cross": (0.0, 3e-4), "noise": (1e-3, 1e-2)},
    "high": {"direct": (0.0, 0.1), "cross": (0.0, 1.0), "noise": (0.0, 0.01)},
}
DIRECT_GAIN_FLOOR_FRACTION = 1e-6
EFFECTIVE_INTERFERENCE_FLOOR = 1e-12
NUM_USERS = 8
NUM_SUBCHANNELS = 64
FEASIBILITY_TOL = 1e-9


def draw_scenario(ensemble: str, seed: int, stream: int, index: int) -> dict:
    """One nominal scenario document from the named ensemble.

    Direct gains are redrawn while below the floor, so every normalization
    by gains[i, i, k] is well posed.  Equal arguments give equal documents.
    """
    ranges = ENSEMBLES[ensemble]
    rng = np.random.default_rng([seed, stream, index])
    m, k = NUM_USERS, NUM_SUBCHANNELS
    d_lo, d_hi = ranges["direct"]
    direct = rng.uniform(d_lo, d_hi, size=(m, k))
    low = direct < DIRECT_GAIN_FLOOR_FRACTION * d_hi
    while low.any():
        direct[low] = rng.uniform(d_lo, d_hi, size=int(low.sum()))
        low = direct < DIRECT_GAIN_FLOOR_FRACTION * d_hi
    gains = rng.uniform(*ranges["cross"], size=(m, m, k))
    gains[np.arange(m), np.arange(m), :] = direct
    noise = rng.uniform(*ranges["noise"], size=(m, k))
    return {"M": m, "K": k, "gains": gains.tolist(), "noise": noise.tolist(),
            "p_max": [1.0] * m, "mask": np.ones((m, k)).tolist(),
            "eps": np.zeros((m, k)).tolist(), "mode": "nominal", "seed": index}


class Game:
    """Arrays of one scenario document, with the game's basic maps."""

    def __init__(self, doc: dict):
        self.gains = np.array(doc["gains"], dtype=float)
        self.noise = np.array(doc["noise"], dtype=float)
        self.p_max = np.array(doc["p_max"], dtype=float)
        self.mask = np.array(doc["mask"], dtype=float)
        self.m = self.gains.shape[0]
        self.direct = np.einsum("iik->ik", self.gains)

    def interference(self, profile: np.ndarray, user: int) -> np.ndarray:
        others = np.arange(self.m) != user
        received = (profile[others] * self.gains[others, user, :]).sum(axis=0)
        return (received + self.noise[user]) / self.direct[user]

    def best_response(self, profile, user, multiplier) -> np.ndarray:
        s = np.maximum(self.interference(profile, user) * multiplier,
                       EFFECTIVE_INTERFERENCE_FLOOR)
        return waterfill(s, self.p_max[user], self.mask[user])

    def social_utility(self, profile: np.ndarray) -> float:
        return float(sum(np.log1p(profile[i] / self.interference(profile, i)).sum()
                         for i in range(self.m)))

    def feasible(self, profile: np.ndarray) -> bool:
        return bool(profile.shape == self.mask.shape
                    and np.all(np.isfinite(profile)) and np.all(profile >= 0)
                    and np.all(profile <= self.mask + FEASIBILITY_TOL)
                    and np.all(profile.sum(axis=1) <= self.p_max + FEASIBILITY_TOL))

    def kkt_gap(self, profile: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        """Per user, the sup-norm gap between the row and its exact
        water-filling reply p = clip(mu - s_eff, 0, mask) that spends the
        budget."""
        return np.array([np.abs(self.best_response(profile, i, multiplier[i])
                                - profile[i]).max() for i in range(self.m)])

    def kkt_tolerance(self, run_tol: float, multiplier: np.ndarray) -> np.ndarray:
        """Largest KKT gap a sequential run stopped at step size ``run_tol``
        can show.

        A row is an exact reply to a profile in which each other user has
        since moved by at most ``run_tol``; water-filling moves no entry by
        more than twice the change in the interference it sees.
        """
        ratio = self.gains / self.direct[None, :, :]
        ratio[np.arange(self.m), np.arange(self.m), :] = 0.0
        leak = (ratio.sum(axis=0) * multiplier).max(axis=1)
        return 1e-9 + 2.0 * run_tol * leak


def waterfill(s: np.ndarray, p_max: float, mask: np.ndarray) -> np.ndarray:
    """Exact water-filling: p = clip(mu - s, 0, mask) spending p_max, found
    on the piecewise-linear segment between sorted breakpoints."""
    if mask.sum() <= p_max:
        return mask.copy()
    points = np.sort(np.concatenate([s, s + mask]))
    spent = np.clip(points[:, None] - s[None, :], 0.0, mask).sum(axis=1)
    j = int(np.searchsorted(spent, p_max))
    lo, hi = points[j - 1], points[j]
    mu = lo + (p_max - spent[j - 1]) * (hi - lo) / (spent[j] - spent[j - 1])
    return np.clip(mu - s, 0.0, mask)


def play(game: Game, multiplier: np.ndarray, tol: float, max_iter: int):
    """Sequential best-response play from the zero profile.

    Returns (profile, converged, iterations, first_repeat, delta):
    ``first_repeat`` is the iteration at which the profile first equals an
    earlier one, or None, and ``delta`` the largest power change in the
    last iteration.
    """
    profile = np.zeros_like(game.mask)
    seen = {profile.tobytes()}
    delta = 0.0
    for t in range(1, max_iter + 1):
        delta = 0.0
        for i in range(game.m):
            reply = game.best_response(profile, i, multiplier[i])
            delta = max(delta, float(np.abs(reply - profile[i]).max()))
            profile[i] = reply
        if delta <= tol:
            return profile, True, t, None, delta
        key = profile.tobytes()
        if key in seen:
            return profile, False, t, t, delta
        seen.add(key)
    return profile, False, max_iter, None, delta


def effective_eps(eps: float, mode: str, delta0: float | None) -> float:
    if mode == "nominal":
        return 0.0
    if mode == "worstcase":
        return eps
    return abs(eps * (2.0 * delta0 - 1.0))


def multiplier(mode: str, eps: float, delta0: float | None, shape) -> np.ndarray:
    if mode == "nominal":
        return np.ones(shape)
    if mode == "worstcase":
        return np.full(shape, 1.0 + eps)
    return np.full(shape, 1.0 + eps * (2.0 * delta0 - 1.0))


def certificate_margins(game: Game, eps_eff: float) -> tuple[np.ndarray, float]:
    """Uniqueness margins per sub-channel and the asynchronous-convergence
    margin, from exact SVD norms and symmetric eigenvalues."""
    m = game.m
    w = np.transpose(game.gains, (2, 1, 0)) / game.direct.T[:, :, None]
    w[:, np.arange(m), np.arange(m)] = 0.0
    rho = np.abs(np.linalg.eigvalsh(0.5 * (w + np.transpose(w, (0, 2, 1))))).max(axis=1)
    norm2 = np.linalg.svd(w, compute_uv=False)[:, 0]
    eps_norm = np.sqrt(m) * eps_eff
    uniqueness = np.minimum(rho, norm2) + eps_norm - 1.0
    s_bar_max = np.stack([game.interference(game.mask, i) for i in range(m)])
    w_vec = (s_bar_max * eps_eff).max(axis=1)
    norm_max = np.linalg.svd(w.max(axis=0), compute_uv=False)[0]
    asynchronous = norm_max + np.sqrt(m) * np.linalg.norm(w_vec) - 1.0
    return uniqueness, float(asynchronous)

