"""Equilibrium analysis: spectral certificates, utilities, orthogonality.

The contraction structure of the game lives in the gain-ratio matrices

    W(k)[i, j] = gains[j, i, k] / gains[i, i, k]   (i != j, zero diagonal):

how strongly user j's power leaks into user i's receiver relative to i's own
link.  Small enough W (plus small enough uncertainty) certifies a unique
equilibrium and convergence of asynchronous best-response dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization, Scenario, normalized_interference, user_utility


# ---------------------------------------------------------------------------
# Gain-ratio matrices and spectral machinery
# ---------------------------------------------------------------------------

def _ratio_matrices(channel: ChannelRealization) -> np.ndarray:
    """All W(k) as one (K, M, M) array."""
    return (channel.cross_gains / channel.direct_gains[:, None, :]).transpose(2, 0, 1)


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


def _norm2(x: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """``np.linalg.norm(x, axis=axis)``, or ``m * norm(x / m)`` with m = max|x|
    where squaring the entries overflows: no finite value moves."""
    with np.errstate(over="ignore", invalid="ignore"):  # a zero m has a finite norm
        norm = np.linalg.norm(x, axis=axis)
        if np.isfinite(norm).all():
            return norm
        m = np.abs(x).max(axis=axis, keepdims=True)
        return np.where(np.isfinite(norm), norm, m.squeeze(axis) * np.linalg.norm(x / m, axis=axis))


def operator_norm_2(w) -> float | np.ndarray:
    """Largest singular value of W, from its singular value decomposition:
    exact to rounding, never an iterative estimate."""
    return np.linalg.svd(_square(w), compute_uv=False).max(axis=-1)


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

    def __post_init__(self):
        if not all(np.isfinite(v).all() for v in (self.components or {}).values()):
            raise ValueError("a certificate term exceeds float64")

    def to_dict(self) -> dict:
        out = {"passed": self.passed, "margin": self.margin}
        if self.per_subchannel_margins is not None:
            out["per_subchannel_margins"] = self.per_subchannel_margins.tolist()
        if self.components:
            out["components"] = {key: np.asarray(val, dtype=float).tolist()
                                 for key, val in self.components.items()}
        return out


def check_rne_uniqueness(scenario: Scenario) -> CertificateResult:
    """Unique-equilibrium certificate, per sub-channel:

        min{ rho_sym(W(k)), ||W(k)||_2 } + || eps_eff[:, k] ||_2  <  1

    where rho_sym is the spectral radius of the symmetric part and eps_eff is
    the effective uncertainty magnitude (zero in nominal mode).  Passing on
    every sub-channel certifies a unique equilibrium of the robust game.
    """
    w = _ratio_matrices(scenario.channel)
    rho = spectral_radius(w)
    norm2 = operator_norm_2(w)
    eps_norm = _norm2(scenario.uncertainty.effective_eps(), axis=0)
    margins = np.minimum(rho, norm2) + eps_norm - 1.0
    return CertificateResult(
        passed=bool(np.all(margins < 0.0)),
        margin=float(margins.max()),
        per_subchannel_margins=margins,
        components={"rho_sym": rho, "norm2": norm2, "eps_norm": eps_norm},
    )


def check_async_convergence(scenario: Scenario) -> CertificateResult:
    """Certificate for asynchronous best-response convergence:

        || W_max ||_2 + sqrt(M) * || w_max ||_2  <  1

    with W_max the entrywise max gain-ratio matrix and
    w_max[i] = max_k s_bar_max[i, k] * eps_eff[i, k], where s_bar_max is the
    interference at full mask power: interference rises with every power, so
    it bounds the interference of every feasible profile.
    """
    channel = scenario.channel
    s_bar_max = normalized_interference(channel, scenario.constraints.mask)
    w_matrix_norm = operator_norm_2(interference_ratio_matrix_max(channel))
    w_vec = (s_bar_max * scenario.uncertainty.effective_eps()).max(axis=1)
    with np.errstate(over="ignore"):  # CertificateResult rejects a term that overflows
        staleness_term = float(np.sqrt(scenario.num_users) * _norm2(w_vec))
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
    return user_utility(profile, normalized_interference(channel, profile))


def orthogonality_index(profile: np.ndarray, threshold) -> float | list:
    """How close user supports are to pairwise disjoint, in [0, 1].

    Support of user i is {k : profile[i, k] > threshold}.  The index is
    1 - (sum over pairs of |S_i & S_j|) / (sum over pairs of min(|S_i|, |S_j|)),
    and defined as 1.0 when the denominator vanishes (at most one nonempty
    support).  1.0 means no pair shares a sub-channel.  An (M, K) profile
    gives a float; a (..., M, K) stack, with a scalar threshold or one per
    profile, gives one float per profile (nested lists), each bitwise the
    index of that profile alone.
    """
    threshold = np.asarray(threshold, dtype=float)
    if not (threshold > 0).all():
        raise ValueError("threshold must be > 0")
    profile = np.asarray(profile, dtype=float)
    if profile.ndim < 2:
        raise ValueError("profile must have shape (..., M, K)")
    supports = (profile > threshold[..., None, None]).astype(np.int64)
    sizes = supports.sum(axis=-1)
    # each pair sum twice: the sum over all (i, j) less its i == j terms, |S_i| each
    total = sizes.sum(axis=-1)
    overlap = (supports @ np.swapaxes(supports, -1, -2)).sum(axis=(-2, -1)) - total
    worst = np.minimum(sizes[..., :, None], sizes[..., None, :]).sum(axis=(-2, -1)) - total
    with np.errstate(invalid="ignore"):  # 0 / 0 where the index is 1.0
        index = 1.0 - overlap / worst
    return np.where(worst == 0, 1.0, index).tolist()
