"""Equilibrium analysis: spectral certificates, orthogonality, utility sweeps.

The contraction structure of the game lives in the gain-ratio matrices

    W(k)[i, j] = gains[j, i, k] / gains[i, i, k]   (i != j, zero diagonal):

how strongly user j's power leaks into user i's receiver relative to i's own
link.  Small enough W (plus small enough uncertainty) certifies a unique
equilibrium and convergence of asynchronous best-response dynamics.
"""
from __future__ import annotations

import csv
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import RunConfig, Schedule, run
from .model import (
    ChannelRealization,
    PowerConstraints,
    Scenario,
    ScenarioTemplate,
    UncertaintySpec,
    normalized_interference,
    user_utility,
)


# ---------------------------------------------------------------------------
# Gain-ratio matrices and spectral machinery
# ---------------------------------------------------------------------------

def _ratio_matrices(channel: ChannelRealization) -> np.ndarray:
    """All W(k) as one (K, M, M) array."""
    w = channel.gains.transpose(2, 1, 0) / np.diagonal(channel.gains)[:, :, None]
    users = np.arange(channel.num_users)
    w[:, users, users] = 0.0
    return w


def interference_ratio_matrix(channel: ChannelRealization, k: int) -> np.ndarray:
    """W(k): zero diagonal, W[i, j] = gains[j, i, k] / gains[i, i, k]."""
    if not 0 <= k < channel.num_subchannels:
        raise ValueError(f"sub-channel index {k} out of range")
    return _ratio_matrices(channel)[k]


def interference_ratio_matrix_max(channel: ChannelRealization) -> np.ndarray:
    """Entrywise max of W(k) over sub-channels (governs async dynamics)."""
    return _ratio_matrices(channel).max(axis=0)


def _square(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix entries must be finite")
    return w


# The norms take one (M, M) matrix or a (..., M, M) stack, one value per
# matrix.  LAPACK factors each matrix on its own, so stacking changes no bit.

def spectral_radius(w) -> float | np.ndarray:
    """Largest eigenvalue magnitude of the symmetric part (W + W.T)/2."""
    w = _square(w)
    sym = 0.5 * (w + np.swapaxes(w, -1, -2))
    return np.abs(np.linalg.eigvalsh(sym)).max(axis=-1)


def operator_norm_2(w) -> float | np.ndarray:
    """Largest singular value of W, from its singular value decomposition:
    exact to rounding, never an iterative estimate."""
    return np.linalg.svd(_square(w), compute_uv=False).max(axis=-1)


def frobenius_norm(w) -> float | np.ndarray:
    w = _square(w)
    return np.sqrt((w * w).sum(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a sufficient condition of the form  LHS < 1.

    ``margin`` is max(LHS) - 1, negative exactly when the certificate passes.
    ``per_subchannel_margins`` is present for per-sub-channel conditions.
    ``components`` holds the terms that built the LHS, for reporting.
    """

    passed: bool
    margin: float
    per_subchannel_margins: np.ndarray | None = None
    components: dict | None = None

    def to_dict(self) -> dict:
        out = {"passed": self.passed, "margin": self.margin}
        if self.per_subchannel_margins is not None:
            out["per_subchannel_margins"] = [float(v) for v in self.per_subchannel_margins]
        if self.components:
            out["components"] = {
                key: ([float(v) for v in val] if np.ndim(val) else float(val))
                for key, val in self.components.items()
            }
        return out


def check_rne_uniqueness(channel: ChannelRealization,
                         uncertainty: UncertaintySpec) -> CertificateResult:
    """Unique-equilibrium certificate, per sub-channel:

        min{ rho_sym(W(k)), ||W(k)||_2 } + || eps_eff[:, k] ||_2  <  1

    where rho_sym is the spectral radius of the symmetric part and eps_eff is
    the effective uncertainty magnitude (zero in nominal mode).  Passing on
    every sub-channel certifies a unique equilibrium of the robust game.
    """
    eps_eff = uncertainty.effective_eps()
    if eps_eff.shape != (channel.num_users, channel.num_subchannels):
        raise ValueError("uncertainty shape does not match the channel")
    w = _ratio_matrices(channel)
    rho = spectral_radius(w)
    norm2 = operator_norm_2(w)
    eps_norm = np.linalg.norm(eps_eff, axis=0)
    margins = np.minimum(rho, norm2) + eps_norm - 1.0
    return CertificateResult(
        passed=bool(np.all(margins < 0.0)),
        margin=float(margins.max()),
        per_subchannel_margins=margins,
        components={"rho_sym": rho, "norm2": norm2, "eps_norm": eps_norm},
    )


def interference_upper_bounds(channel: ChannelRealization,
                              constraints: PowerConstraints) -> np.ndarray:
    """Normalized interference each user would see if everyone transmitted at
    the full mask: an upper bound over all feasible profiles."""
    full = constraints.mask.copy()
    return np.stack([normalized_interference(channel, full, i)
                     for i in range(channel.num_users)])


def check_async_convergence(channel: ChannelRealization, s_bar_max: np.ndarray,
                            uncertainty: UncertaintySpec) -> CertificateResult:
    """Certificate for asynchronous best-response convergence:

        || W_max ||_2 + sqrt(M) * || w_max ||_2  <  1

    with W_max the entrywise max gain-ratio matrix and
    w_max[i] = max_k s_bar_max[i, k] * eps_eff[i, k].  ``s_bar_max`` should
    upper-bound the interference (see interference_upper_bounds).
    """
    num_users = channel.num_users
    s_bar_max = np.asarray(s_bar_max, dtype=float)
    if s_bar_max.shape != (num_users, channel.num_subchannels):
        raise ValueError("s_bar_max must have shape (M, K)")
    eps_eff = uncertainty.effective_eps()
    if eps_eff.shape != s_bar_max.shape:
        raise ValueError("uncertainty shape does not match the channel")
    w_matrix_norm = operator_norm_2(interference_ratio_matrix_max(channel))
    w_vec = (s_bar_max * eps_eff).max(axis=1)
    staleness_term = float(np.sqrt(num_users) * np.linalg.norm(w_vec))
    margin = w_matrix_norm + staleness_term - 1.0
    return CertificateResult(
        passed=bool(margin < 0.0),
        margin=float(margin),
        per_subchannel_margins=None,
        components={"norm2_max": w_matrix_norm, "staleness_term": staleness_term,
                    "w_max": w_vec},
    )


# ---------------------------------------------------------------------------
# Equilibrium metrics
# ---------------------------------------------------------------------------

def per_user_utilities(profile: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Utility of each user at the nominal interference the profile induces."""
    profile = np.asarray(profile, dtype=float)
    return np.array([
        user_utility(profile[i], normalized_interference(channel, profile, i))
        for i in range(channel.num_users)
    ])


def social_utility(profile: np.ndarray, channel: ChannelRealization) -> float:
    return float(per_user_utilities(profile, channel).sum())


def orthogonality_index(profile: np.ndarray, threshold: float) -> float:
    """How close user supports are to pairwise disjoint, in [0, 1].

    Support of user i is {k : profile[i, k] > threshold}.  The index is
    1 - (sum over pairs of |S_i & S_j|) / (sum over pairs of min(|S_i|, |S_j|)),
    and defined as 1.0 when the denominator vanishes (at most one nonempty
    support).  1.0 means no pair shares a sub-channel.
    """
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 2:
        raise ValueError("profile must have shape (M, K)")
    supports = (profile > threshold).astype(np.int64)
    sizes = supports.sum(axis=1)
    pairs = np.triu_indices(profile.shape[0], k=1)
    overlap = int((supports @ supports.T)[pairs].sum())
    worst = int(np.minimum.outer(sizes, sizes)[pairs].sum())
    if worst == 0:
        return 1.0
    return 1.0 - overlap / worst


# ---------------------------------------------------------------------------
# Uncertainty sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Converged social utility versus a swept uncertainty parameter.

    ``utilities[g, r]`` is realization r's social utility at grid point g
    (NaN where the run did not converge).  Non-converged runs are excluded
    from means and are visible in ``num_converged``.
    """

    parameter: str
    grid: np.ndarray
    utilities: np.ndarray
    num_total: int

    @property
    def num_converged(self) -> np.ndarray:
        return (~np.isnan(self.utilities)).sum(axis=1)

    @property
    def mean_social_utility(self) -> np.ndarray:
        # grid points where nothing converged are all-NaN slices; the NaN
        # mean is the documented representation, not a warning condition
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.utilities, axis=1)

    @property
    def std_social_utility(self) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanstd(self.utilities, axis=1)


def _sweep_uncertainty(mode: str, eps: float, delta0, num_users: int,
                       num_subchannels: int) -> UncertaintySpec:
    return UncertaintySpec.uniform(num_users, num_subchannels, eps, mode=mode, delta0=delta0)


def _sweep_run(task) -> float:
    source, mode, eps, delta0, seed, schedule_kind, config = task
    if isinstance(source, Scenario):
        spec = _sweep_uncertainty(mode, eps, delta0, source.num_users, source.num_subchannels)
        scenario = source.with_uncertainty(spec)
    else:
        spec = _sweep_uncertainty(mode, eps, delta0, source.num_users, source.num_subchannels)
        scenario = source.realize(seed, uncertainty=spec)
    report = run(scenario, Schedule(kind=schedule_kind), config)
    return report.social_utility if report.converged else np.nan


def _sweep(source, parameter: str, grid, tasks, num_realizations: int, jobs: int) -> SweepResult:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            flat = list(pool.map(_sweep_run, tasks))
    else:
        flat = [_sweep_run(task) for task in tasks]
    utilities = np.array(flat, dtype=float).reshape(len(grid), num_realizations)
    return SweepResult(parameter=parameter, grid=np.asarray(grid, dtype=float),
                       utilities=utilities, num_total=num_realizations)


def _sweep_source_and_seeds(source, num_realizations: int, seed: int | None):
    if not isinstance(source, (Scenario, ScenarioTemplate)):
        raise ValueError("source must be a Scenario or ScenarioTemplate")
    if num_realizations < 1:
        raise ValueError("num_realizations must be >= 1")
    if isinstance(source, Scenario):
        seeds = [None] * num_realizations
    else:
        base = 0 if seed is None else int(seed)
        seeds = [base + r for r in range(num_realizations)]
    return seeds


def epsilon_sweep(source, eps_grid, num_realizations: int = 1, seed: int | None = None,
                  mode: str = "worstcase", delta0: float | None = None,
                  schedule_kind: str = "sequential", config: RunConfig = RunConfig(),
                  jobs: int = 1) -> SweepResult:
    """Converged social utility along a grid of uniform eps values.

    Realization r draws its channel from ``seed + r`` and reuses it at every
    grid point, so utilities are comparable pointwise along the grid.  At
    eps=0 the worst-case multiplier is exactly 1, i.e. the nominal game.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size == 0:
        raise ValueError("eps_grid must be a nonempty 1-d array")
    if np.any(eps_grid < 0):
        raise ValueError("eps values must be >= 0")
    seeds = _sweep_source_and_seeds(source, num_realizations, seed)
    tasks = [
        (source, mode, float(eps),
         delta0 if mode == "probabilistic" else None,
         seeds[r], schedule_kind, config)
        for eps in eps_grid for r in range(num_realizations)
    ]
    return _sweep(source, "epsilon", eps_grid, tasks, num_realizations, jobs)


def delta0_sweep(source, eps: float, delta0_grid, num_realizations: int = 1,
                 seed: int | None = None, schedule_kind: str = "sequential",
                 config: RunConfig = RunConfig(), jobs: int = 1) -> SweepResult:
    """Converged social utility along a grid of protection levels delta0,
    at a fixed uniform eps, in probabilistic mode.  Channel seeds are shared
    across the grid exactly as in epsilon_sweep."""
    delta0_grid = np.asarray(delta0_grid, dtype=float)
    if delta0_grid.ndim != 1 or delta0_grid.size == 0:
        raise ValueError("delta0_grid must be a nonempty 1-d array")
    if np.any(delta0_grid < 0) or np.any(delta0_grid > 1):
        raise ValueError("delta0 values must lie in [0, 1]")
    if not float(eps) >= 0:
        raise ValueError("eps must be >= 0")
    seeds = _sweep_source_and_seeds(source, num_realizations, seed)
    tasks = [
        (source, "probabilistic", float(eps), float(d0), seeds[r], schedule_kind, config)
        for d0 in delta0_grid for r in range(num_realizations)
    ]
    return _sweep(source, "delta0", delta0_grid, tasks, num_realizations, jobs)


def write_sweep_csv(result: SweepResult, path, preamble: str | None = None) -> None:
    """One row per grid point: parameter value, mean/std social utility over
    converged runs, and the convergence counts.  ``preamble`` becomes a
    leading '#' comment line (callers embed their configuration there)."""
    means = result.mean_social_utility
    stds = result.std_social_utility
    counts = result.num_converged

    def _write(fh):
        if preamble is not None:
            fh.write(f"# {preamble}\n")
        writer = csv.writer(fh)
        writer.writerow([result.parameter, "mean_social_utility", "std",
                         "num_converged", "num_total"])
        for g in range(result.grid.size):
            mean = "" if np.isnan(means[g]) else repr(float(means[g]))
            std = "" if np.isnan(stds[g]) else repr(float(stds[g]))
            writer.writerow([repr(float(result.grid[g])), mean, std,
                             int(counts[g]), result.num_total])

    if hasattr(path, "write"):
        _write(path)
    else:
        with open(path, "w", newline="") as fh:
            _write(fh)
