"""Interference-network model for multi-user power allocation on shared sub-channels.

M transmitter-receiver pairs share K flat sub-channels.  All gains and powers
are linear quantities.  Receiver i measures the interference-plus-noise on
each sub-channel, normalized by its own direct gain:

    s_i[k] = (sum_{j != i} p[j, k] * gains[j, i, k] + noise[i, k]) / gains[i, i, k]

and transmitter i scores an allocation by its Shannon rate in nats,

    u_i = sum_k log(1 + p_i[k] / s_i[k]).

The measured interference may be off by a bounded relative error.
``UncertaintySpec`` captures the three supported attitudes toward that error
(ignore it, plan for the worst case, or hedge against a quantile); each is
one per-entry multiplier on the nominal s, computed when the spec is built.
``random_scenario`` draws channels, from the ranges in ``ENSEMBLES``.
"""
from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MODES = ("nominal", "worstcase", "probabilistic")

# Absolute tolerance when checking power budgets (sum_k p[i,k] <= p_max[i]).
BUDGET_TOL = 1e-9

# Effective interference is clamped below at this floor: the probabilistic
# multiplier can reach 1 - eps and would otherwise drive s to zero or below.
EFFECTIVE_INTERFERENCE_FLOOR = 1e-12
DEGENERATE_MESSAGE = "uncertainty multiplier <= 0; effective interference clamped to floor"

# Random direct gains below this fraction of the range upper bound are
# redrawn; normalization by gains[i, i, k] needs strictly positive values.
DIRECT_GAIN_FLOOR_FRACTION = 1e-6


class DegenerateUncertaintyWarning(UserWarning):
    """Raised (as a warning) when an uncertainty multiplier is <= 0.

    The effective interference is clamped to a positive floor in that case,
    so computation proceeds, but the uncertainty model itself is degenerate:
    it claims the true interference could be non-positive.
    """


# Each model class pickles as a call to its constructor (``__reduce__``), so a
# sweep worker's copy is read-only too: numpy unpickles an array as writable.

def _readonly_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Channel gains and noise powers for an M-user, K-sub-channel network.

    Parameters
    ----------
    gains : ndarray, shape (M, M, K)
        ``gains[j, i, k]`` is the power gain from transmitter j to receiver i
        on sub-channel k.  Diagonal entries ``gains[i, i, k]`` are the direct
        gains and must be strictly positive.
    noise : ndarray, shape (M, K)
        ``noise[i, k]`` is the noise power at receiver i on sub-channel k.

    Construction also builds, read-only, ``cross_gains`` of shape (M, M, K)
    with ``cross_gains[i, j, k] = gains[j, i, k]`` for j != i and 0 for
    j == i (row i is what reaches receiver i), and ``direct_gains`` of shape
    (M, K) with ``direct_gains[i, k] = gains[i, i, k]``.  Every gain ratio
    gains[j, i, k] / gains[i, i, k] must be finite in float64.
    """

    gains: np.ndarray
    noise: np.ndarray
    cross_gains: np.ndarray = field(init=False, repr=False)
    direct_gains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gains = _readonly_array(self.gains)
        noise = _readonly_array(self.noise)
        if gains.ndim != 3 or gains.shape[0] != gains.shape[1]:
            raise ValueError(f"gains must have shape (M, M, K), got {gains.shape}")
        num_users = gains.shape[0]
        num_subchannels = gains.shape[2]
        if noise.shape != (num_users, num_subchannels):
            raise ValueError(
                f"noise must have shape ({num_users}, {num_subchannels}), got {noise.shape}"
            )
        if not np.all(np.isfinite(gains)) or np.any(gains < 0):
            raise ValueError("gains must be finite and nonnegative")
        if not np.all(np.isfinite(noise)) or np.any(noise < 0):
            raise ValueError("noise must be finite and nonnegative")
        users = np.arange(num_users)
        cross = gains.transpose(1, 0, 2).copy()
        direct = cross[users, users]
        if np.any(direct <= 0):
            raise ValueError("direct gains gains[i, i, k] must be strictly positive")
        cross[users, users] = 0.0
        with np.errstate(over="ignore"):
            ratios = cross / direct[:, None, :]
        if not np.isfinite(ratios).all():
            raise ValueError("gain ratios gains[j, i, k] / gains[i, i, k] overflow float64")
        for name, value in (("gains", gains), ("noise", noise),
                            ("cross_gains", cross), ("direct_gains", direct)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.gains, self.noise)

    @property
    def num_users(self) -> int:
        return self.gains.shape[0]

    @property
    def num_subchannels(self) -> int:
        return self.gains.shape[2]


@dataclass(frozen=True, eq=False)
class PowerConstraints:
    """Per-user power budget and per-sub-channel spectral mask.

    ``p_max[i]`` bounds the total transmit power of user i; ``mask[i, k]``
    bounds the power user i may put on sub-channel k.  Both strictly positive.
    """

    p_max: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        p_max = _readonly_array(self.p_max)
        mask = _readonly_array(self.mask)
        if p_max.ndim != 1:
            raise ValueError("p_max must be a 1-d array of per-user budgets")
        if mask.ndim != 2 or mask.shape[0] != p_max.shape[0]:
            raise ValueError("mask must have shape (M, K) matching p_max")
        if not np.all(np.isfinite(p_max)) or np.any(p_max <= 0):
            raise ValueError("p_max entries must be finite and > 0")
        if not np.all(np.isfinite(mask)) or np.any(mask <= 0):
            raise ValueError("mask entries must be finite and > 0")
        object.__setattr__(self, "p_max", p_max)
        object.__setattr__(self, "mask", mask)

    def __reduce__(self):
        return type(self), (self.p_max, self.mask)

    @classmethod
    def uniform(cls, num_users: int, num_subchannels: int, p_max: float, mask: float | None = None):
        """Same budget for every user and a flat mask (default: mask = p_max)."""
        if mask is None:
            mask = p_max
        return cls(
            p_max=np.full(num_users, float(p_max)),
            mask=np.full((num_users, num_subchannels), float(mask)),
        )

    @property
    def num_users(self) -> int:
        return self.p_max.shape[0]

    @property
    def num_subchannels(self) -> int:
        return self.mask.shape[1]


@dataclass(frozen=True, eq=False)
class UncertaintySpec:
    """Relative error bounds on measured interference, and how to respond.

    eps[i, k] >= 0 bounds the relative error of user i's interference
    measurement on sub-channel k.  The three modes turn the bound into a
    multiplier on nominal interference:

    - ``nominal``: multiplier 1 (the bound is ignored),
    - ``worstcase``: multiplier 1 + eps (plan against the largest error),
    - ``probabilistic``: multiplier 1 + eps*(2*delta0 - 1) for a protection
      level delta0 in [0, 1].  delta0 = 1 recovers worstcase exactly and
      delta0 = 0.5 recovers nominal exactly.
    """

    eps: np.ndarray
    mode: str = "nominal"
    delta0: float | None = None
    _multipliers: np.ndarray = field(init=False, repr=False)
    _effective_eps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eps = _readonly_array(self.eps)
        if eps.ndim != 2:
            raise ValueError("eps must have shape (M, K)")
        if not np.all(np.isfinite(eps)) or np.any(eps < 0):
            raise ValueError("eps entries must be finite and >= 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "probabilistic":
            if self.delta0 is None:
                raise ValueError("probabilistic mode requires delta0")
            if not (0.0 <= float(self.delta0) <= 1.0):
                raise ValueError("delta0 must lie in [0, 1]")
            object.__setattr__(self, "delta0", float(self.delta0))
            shift = eps * (2.0 * self.delta0 - 1.0)
        elif self.delta0 is not None:
            raise ValueError(f"delta0 only applies to probabilistic mode, not {self.mode!r}")
        else:
            shift = eps if self.mode == "worstcase" else 0.0 * eps
        for name, value in (("eps", eps), ("_multipliers", 1.0 + shift),
                            ("_effective_eps", np.abs(shift))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.eps, self.mode, self.delta0)

    @classmethod
    def nominal(cls, num_users: int, num_subchannels: int):
        return cls(eps=np.zeros((num_users, num_subchannels)), mode="nominal")

    @classmethod
    def uniform(cls, num_users: int, num_subchannels: int, eps: float, mode: str = "worstcase",
                delta0: float | None = None):
        """Same eps on every user and sub-channel."""
        return cls(eps=np.full((num_users, num_subchannels), float(eps)), mode=mode, delta0=delta0)

    def multipliers(self) -> np.ndarray:
        """Per-entry multiplier on nominal interference, shape (M, K), read-only."""
        return self._multipliers

    def effective_eps(self) -> np.ndarray:
        """|multiplier - 1|: the magnitude of protection actually applied.

        This is what certificate conditions see; nominal mode contributes 0
        and probabilistic mode contributes |eps*(2*delta0 - 1)|.  Read-only.
        """
        return self._effective_eps

    def is_degenerate(self) -> bool:
        """True when some multiplier is <= 0 (effective interference clamps)."""
        return bool(np.any(self._multipliers <= 0.0))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete game instance: channel, constraints, uncertainty, seed."""

    channel: ChannelRealization
    constraints: PowerConstraints
    uncertainty: UncertaintySpec
    seed: int | None = None

    def __post_init__(self):
        m, k = self.channel.num_users, self.channel.num_subchannels
        if self.constraints.p_max.shape != (m,) or self.constraints.mask.shape != (m, k):
            raise ValueError("constraints shapes do not match the channel")
        if self.uncertainty.eps.shape != (m, k):
            raise ValueError("uncertainty eps shape does not match the channel")
        with np.errstate(over="ignore"):  # s rises with every power; |mult| <= 1 + eps
            worst = normalized_interference(self.channel, self.constraints.mask)
            worst *= 1.0 + self.uncertainty.eps
        if not np.isfinite(worst).all():
            raise ValueError("interference at full mask power, times 1 + eps, overflows float64")

    @property
    def num_users(self) -> int:
        return self.channel.num_users

    @property
    def num_subchannels(self) -> int:
        return self.channel.num_subchannels

    def with_uncertainty(self, uncertainty: UncertaintySpec) -> "Scenario":
        """Same channel and constraints under a different uncertainty spec."""
        return replace(self, uncertainty=uncertainty)


# ---------------------------------------------------------------------------
# Power profiles.  A profile is a plain (M, K) ndarray; these helpers build
# and validate them.
# ---------------------------------------------------------------------------

def zero_profile(num_users: int, num_subchannels: int) -> np.ndarray:
    return np.zeros((num_users, num_subchannels))

def uniform_profile(constraints: PowerConstraints) -> np.ndarray:
    """Budget spread evenly over sub-channels, clipped to the mask."""
    num_subchannels = constraints.num_subchannels
    even = constraints.p_max[:, None] / num_subchannels
    return np.minimum(np.broadcast_to(even, constraints.mask.shape), constraints.mask).copy()

def profile_feasible(profile: np.ndarray, constraints: PowerConstraints,
                     tol: float = BUDGET_TOL) -> bool:
    """Whether check_profile accepts the profile: nonnegative, under the mask,
    and within each budget (to tolerance tol)."""
    profile = np.asarray(profile, dtype=float)
    try:
        check_profile(profile, constraints, tol)
    except ValueError:
        return False
    return True

def check_profile(profile: np.ndarray, constraints: PowerConstraints,
                  tol: float = BUDGET_TOL) -> np.ndarray:
    """The profile as a float array; ValueError names the first rule it breaks."""
    profile = np.asarray(profile, dtype=float)
    if profile.shape != constraints.mask.shape:
        raise ValueError(
            f"profile must have shape {constraints.mask.shape}, got {profile.shape}"
        )
    if not np.all(np.isfinite(profile)):
        raise ValueError("profile entries must be finite")
    if np.any(profile < 0):
        raise ValueError("profile entries must be nonnegative")
    if np.any(profile > constraints.mask + tol):
        raise ValueError("profile exceeds the spectral mask")
    if np.any(profile.sum(axis=1) > constraints.p_max + tol):
        raise ValueError("profile exceeds a power budget")
    return profile


# ---------------------------------------------------------------------------
# Core quantities
# ---------------------------------------------------------------------------

def normalized_interference(channel: ChannelRealization, profile: np.ndarray,
                            user: int | None = None) -> np.ndarray:
    """Interference-plus-noise at user's receiver, normalized by direct gain.

    Returns the length-K vector
    s[k] = (sum_{j != user} profile[j, k] * gains[j, user, k] + noise[user, k])
           / gains[user, user, k].
    The user's own row of ``profile`` does not enter.  With ``user`` None it
    returns all M rows as one (M, K) array; row i equals the call for user i
    bitwise, since both sum the same terms in the same order.
    """
    num_users = channel.num_users
    if user is not None and not 0 <= user < num_users:
        raise ValueError(f"user index {user} out of range for M={num_users}")
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (num_users, channel.num_subchannels):
        raise ValueError(
            f"profile must have shape ({num_users}, {channel.num_subchannels}),"
            f" got {profile.shape}"
        )
    return _interference(channel.cross_gains, channel.noise, channel.direct_gains, profile, user)


def _interference(cross_gains: np.ndarray, noise: np.ndarray, direct_gains: np.ndarray,
                  profile: np.ndarray, user: int | None = None) -> np.ndarray:
    """``normalized_interference`` without its checks, on a channel's arrays.
    Leading batch axes broadcast on the channel arrays as on the profile, so
    a stack of B channels and B profiles gives each game's own rows bitwise."""
    if user is None:
        received = (cross_gains * profile[..., None, :, :]).sum(axis=-2)
        return (received + noise) / direct_gains
    received = (cross_gains[..., user, :, :] * profile).sum(axis=-2)
    return (received + noise[..., user, :]) / direct_gains[..., user, :]


def user_utility(p: np.ndarray, s: np.ndarray) -> float | np.ndarray:
    """Shannon rate sum_k log(1 + p[k]/s[k]) in nats.

    Length-K vectors give a float; (..., M, K) rows give the (..., M) rates
    of each row.  Requires strictly positive s and nonnegative p.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if p.shape != s.shape:
        raise ValueError("p and s must have the same shape")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
        raise ValueError("p and s must be finite")
    if np.any(s <= 0):
        raise ValueError("interference s must be strictly positive")
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    rates = np.log1p(p / s).sum(axis=-1)
    return float(rates) if p.ndim == 1 else rates


def effective_interference(s_nominal: np.ndarray, uncertainty: UncertaintySpec,
                           user: int) -> np.ndarray:
    """Nominal interference scaled by the user's uncertainty multipliers.

    The result is clamped below at EFFECTIVE_INTERFERENCE_FLOOR.  A
    DegenerateUncertaintyWarning is emitted if any multiplier is <= 0; the
    tick loop scales its stacks itself, and its callers warn once per call.
    """
    s_nominal = np.asarray(s_nominal, dtype=float)
    mult = uncertainty.multipliers()[user]
    if s_nominal.shape != mult.shape:
        raise ValueError(f"s_nominal must have shape {mult.shape}, got {s_nominal.shape}")
    if mult.min() <= 0:
        warnings.warn(DEGENERATE_MESSAGE, DegenerateUncertaintyWarning, stacklevel=2)
    return np.maximum(s_nominal * mult, EFFECTIVE_INTERFERENCE_FLOOR)


# ---------------------------------------------------------------------------
# Random scenarios
# ---------------------------------------------------------------------------

# The paper's two regimes.  low: cross gains two orders of magnitude below the
# direct gains and a noise floor that bounds every SINR, so every draw passes
# check_rne_uniqueness and robustness costs more than the interference it
# removes.  high: cross gains up to ten times the direct gains, so the
# certificate fails, draws have several equilibria and iterations may orbit.
ENSEMBLES = {
    "low": {"direct_range": (0.05, 0.1), "cross_range": (0.0, 3e-4),
            "noise_range": (1e-3, 1e-2)},
    "high": {"direct_range": (0.0, 0.1), "cross_range": (0.0, 1.0),
             "noise_range": (0.0, 0.01)},
}


def _check_range(name: str, rng_pair) -> tuple[float, float]:
    lo, hi = (float(rng_pair[0]), float(rng_pair[1]))
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0 or hi < lo:
        raise ValueError(f"{name} must be a finite nonnegative (low, high) pair")
    return lo, hi


def random_scenario(num_users: int, num_subchannels: int,
                    direct_range=(0.0, 0.1), cross_range=(0.0, 0.01),
                    noise_range=(0.0, 0.01), seed: int | None = None, p_max=1.0,
                    mask=None) -> Scenario:
    """Draw a nominal scenario with uniform gains/noise from the given ranges.

    Direct gains are redrawn while below DIRECT_GAIN_FLOOR_FRACTION times the
    range upper bound, keeping normalization well-posed.  All draws come from
    ``numpy.random.default_rng(seed)`` in a fixed order, so equal seeds give
    bitwise-equal scenarios.
    """
    if num_users < 1 or num_subchannels < 1:
        raise ValueError("num_users and num_subchannels must be >= 1")
    d_lo, d_hi = _check_range("direct_range", direct_range)
    c_lo, c_hi = _check_range("cross_range", cross_range)
    n_lo, n_hi = _check_range("noise_range", noise_range)
    if d_hi <= 0:
        raise ValueError("direct_range upper bound must be > 0")

    rng = np.random.default_rng(seed)
    direct = rng.uniform(d_lo, d_hi, size=(num_users, num_subchannels))
    floor = DIRECT_GAIN_FLOOR_FRACTION * d_hi
    low = direct < floor
    while np.any(low):
        direct[low] = rng.uniform(d_lo, d_hi, size=int(low.sum()))
        low = direct < floor

    gains = rng.uniform(c_lo, c_hi, size=(num_users, num_users, num_subchannels))
    idx = np.arange(num_users)
    gains[idx, idx, :] = direct
    noise = rng.uniform(n_lo, n_hi, size=(num_users, num_subchannels))

    p_max_arr = np.broadcast_to(np.asarray(p_max, dtype=float), (num_users,)).copy()
    if mask is None:
        mask_arr = np.broadcast_to(p_max_arr[:, None], (num_users, num_subchannels)).copy()
    else:
        mask_arr = np.broadcast_to(np.asarray(mask, dtype=float),
                                   (num_users, num_subchannels)).copy()
    return Scenario(
        channel=ChannelRealization(gains=gains, noise=noise),
        constraints=PowerConstraints(p_max=p_max_arr, mask=mask_arr),
        uncertainty=UncertaintySpec.nominal(num_users, num_subchannels),
        seed=None if seed is None else int(seed),
    )


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready dict with fields M, K, gains, noise, p_max, mask, eps, mode,
    delta0 (probabilistic only) and seed."""
    out = {
        "M": scenario.num_users,
        "K": scenario.num_subchannels,
        "gains": scenario.channel.gains.tolist(),
        "noise": scenario.channel.noise.tolist(),
        "p_max": scenario.constraints.p_max.tolist(),
        "mask": scenario.constraints.mask.tolist(),
        "eps": scenario.uncertainty.eps.tolist(),
        "mode": scenario.uncertainty.mode,
        "seed": scenario.seed,
    }
    if scenario.uncertainty.mode == "probabilistic":
        out["delta0"] = scenario.uncertainty.delta0
    return out


def _take_field(data: dict, name: str):
    if name not in data:
        raise ValueError(f"scenario field '{name}' is missing")
    return data[name]


def _number(name: str, value, kind: type, what: str):
    """``value``, which must be a ``kind`` (a `numbers` class) and not a bool:
    a JSON 2.5, "5" or true is no integer, and "0.25" is no number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"scenario field '{name}' must be {what}, got {value!r}")
    return value


def _field_array(data: dict, name: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.asarray(_take_field(data, name), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"scenario field '{name}' is not numeric: {exc}") from None
    if arr.shape != shape:
        raise ValueError(f"scenario field '{name}' must have shape {shape}, got {arr.shape}")
    return arr


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario document must be a JSON object")
    num_users = int(_number("M", _take_field(data, "M"), numbers.Integral, "an integer"))
    num_subchannels = int(_number("K", _take_field(data, "K"), numbers.Integral, "an integer"))
    if num_users < 1 or num_subchannels < 1:
        raise ValueError("scenario fields 'M' and 'K' must be >= 1")

    gains = _field_array(data, "gains", (num_users, num_users, num_subchannels))
    noise = _field_array(data, "noise", (num_users, num_subchannels))
    p_max = _field_array(data, "p_max", (num_users,))
    mask = _field_array(data, "mask", (num_users, num_subchannels))
    eps = _field_array(data, "eps", (num_users, num_subchannels))
    mode = _take_field(data, "mode")
    if mode not in MODES:
        raise ValueError(f"scenario field 'mode' must be one of {MODES}, got {mode!r}")
    delta0, seed = data.get("delta0"), data.get("seed")
    if delta0 is not None:
        _number("delta0", delta0, numbers.Real, "a number or null")
    if seed is not None:
        seed = int(_number("seed", seed, numbers.Integral, "an integer or null"))

    try:
        channel = ChannelRealization(gains=gains, noise=noise)
        constraints = PowerConstraints(p_max=p_max, mask=mask)
        uncertainty = UncertaintySpec(eps=eps, mode=mode, delta0=delta0)
        return Scenario(channel=channel, constraints=constraints,
                        uncertainty=uncertainty, seed=seed)
    except ValueError as exc:
        raise ValueError(f"invalid scenario: {exc}") from None


_ENCODERS: dict[int, json.JSONEncoder] = {}  # depth -> encoder of that depth's list items


def _dumps(value, depth: int = 1) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for str
    keys (another key is a TypeError).

    With an indent, Python 3.11 encodes in pure Python.  Here every list or
    tuple that holds no container is one C encoder call whose item separator
    carries the newline and indent, and every key and scalar is one more."""
    encoder = _ENCODERS.get(depth)
    if encoder is None:
        encoder = _ENCODERS[depth] = json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))
    if not isinstance(value, (dict, list, tuple)):
        return encoder.encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    sep, close = encoder.item_separator, "\n" + "  " * (depth - 1)
    if isinstance(value, dict):
        return "{" + sep[1:] + sep.join(
            f"{json.encoder.encode_basestring_ascii(key)}: {_dumps(value[key], depth + 1)}"
            for key in sorted(value)) + close + "}"
    if any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value))):
        return "[" + sep[1:] + sep.join(_dumps(v, depth + 1) for v in value) + close + "]"
    return "[" + sep[1:] + encoder.encode(value)[1:-1] + close + "]"


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(_dumps(scenario_to_dict(scenario)) + "\n")


def load_scenario(path) -> Scenario:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


def load_bundled_scenario(name: str = "table2") -> Scenario:
    """Load a scenario shipped with the package (see riwfa/data/)."""
    path = Path(__file__).with_name("data") / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"no bundled scenario named {name!r}")
    return load_scenario(path)
