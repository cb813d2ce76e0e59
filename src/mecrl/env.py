"""Slotted Dec-POMDP environment for multi-user partial offloading.

Per slot: zero-forcing SINRs from the current channel, integer bit
capacities for the local and offload paths, queue service then arrivals,
a weighted energy-plus-backlog penalty as the true reward, a
truncated-Gaussian perceived reward, and a Gauss-Markov channel step.
All quantities in bits are integers so conservation checks are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import cmatrix, phy
from .phy import PathLossModel, PhyConstants


# Largest receive array an environment may have: the channel is an
# (n_antennas, n_users) complex matrix and zero-forcing needs
# n_users <= n_antennas.
MAX_ANTENNAS = 256


class ConfigError(ValueError):
    """A configuration invariant is violated."""


class ActionError(ValueError):
    """An action lies outside its power box."""


class StateError(RuntimeError):
    """The environment is used out of protocol (e.g. step before reset)."""


def _per_user(value, n_users: int, name: str) -> tuple[float, ...]:
    """Broadcast a scalar or validate a length-M sequence."""
    if isinstance(value, (int, float)):
        return (float(value),) * n_users
    vals = tuple(float(v) for v in value)
    if len(vals) != n_users:
        raise ConfigError(f"{name} must have one entry per user ({n_users}), got {len(vals)}")
    return vals


@dataclass
class EnvConfig:
    """Every free parameter of one environment instance.

    Per-user fields accept a scalar (broadcast to all users) or a
    length-``n_users`` sequence.
    """

    n_users: int = 2
    constants: PhyConstants = field(default_factory=PhyConstants)
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    distances_m: tuple[float, ...] | float = 100.0
    rho: tuple[float, ...] | float = 0.95
    arrival_rate: tuple[float, ...] | float = 2.0
    task_size_bits: tuple[int, int] = (250, 750)
    buffer_cap_bits: int = 50_000
    p_max_offload_w: tuple[float, ...] | float = 2.0
    p_max_local_w: tuple[float, ...] | float = 2.0
    w_energy: tuple[float, ...] | float = 1.0
    w_queue: tuple[float, ...] | float = 2e-4
    noise_level: float = 0.0
    episode_len: int = 100
    # Observation min-max scales: linear SINR is clipped at obs_sinr_clip,
    # per-antenna channel power at obs_chan_clip times the user's path gain.
    obs_sinr_clip: float = 100.0
    obs_chan_clip: float = 10.0

    def __post_init__(self):
        if not isinstance(self.n_users, int) or self.n_users < 1:
            raise ConfigError(f"n_users must be a positive integer, got {self.n_users}")
        # Checked before the per-user fields are broadcast to n_users entries.
        n_antennas = self.constants.n_antennas
        if n_antennas > MAX_ANTENNAS:
            raise ConfigError(f"n_antennas must be at most {MAX_ANTENNAS}, got {n_antennas}")
        if n_antennas < self.n_users:
            raise ConfigError(
                f"zero-forcing needs n_antennas >= n_users, got {n_antennas} < {self.n_users}"
            )
        for name in ("distances_m", "rho", "arrival_rate", "p_max_offload_w",
                     "p_max_local_w", "w_energy", "w_queue"):
            setattr(self, name, _per_user(getattr(self, name), self.n_users, name))
        lo, hi = self.task_size_bits
        self.task_size_bits = (int(lo), int(hi))

    @property
    def obs_dim(self) -> int:
        return self.constants.n_antennas + 2

    def validate(self) -> None:
        if self.constants.noise_power_w < sys.float_info.min:
            # A subnormal noise power can make the SINR, and with it the
            # offload capacity, infinite.
            raise ConfigError(f"noise_power_w must be at least the smallest normal float "
                              f"{sys.float_info.min}, got {self.constants.noise_power_w}")
        if any(d <= 0 for d in self.distances_m):
            raise ConfigError("distances_m must be strictly positive")
        for d in self.distances_m:
            try:
                gain = self.path_loss.gain(d)
            except (OverflowError, ValueError):
                gain = math.nan
            if not sys.float_info.min <= gain <= sys.float_info.max:
                raise ConfigError(f"path-loss gain at {d} m is outside the normal float range")
        if any(not 0.0 <= r <= 1.0 for r in self.rho):
            raise ConfigError("rho entries must lie in [0, 1]")
        if any(lam < 0 for lam in self.arrival_rate):
            raise ConfigError("arrival_rate entries must be nonnegative")
        lo, hi = self.task_size_bits
        if not 0 < lo <= hi:
            raise ConfigError(f"task_size_bits must satisfy 0 < min <= max, got {self.task_size_bits}")
        if self.buffer_cap_bits <= 0:
            raise ConfigError(f"buffer_cap_bits must be positive, got {self.buffer_cap_bits}")
        for name in ("p_max_offload_w", "p_max_local_w", "w_energy", "w_queue"):
            if any(v < 0 for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be nonnegative")
        if self.noise_level < 0:
            raise ConfigError(f"noise_level must be nonnegative, got {self.noise_level}")
        if self.episode_len < 1:
            raise ConfigError(f"episode_len must be >= 1, got {self.episode_len}")
        if self.obs_sinr_clip <= 0 or self.obs_chan_clip <= 0:
            raise ConfigError("observation clip scales must be positive")

    def gains(self) -> np.ndarray:
        return np.array([self.path_loss.gain(d) for d in self.distances_m])


@dataclass
class TaskQueue:
    """Backlog of unprocessed task bits plus the cumulative overflow."""

    backlog_bits: int = 0
    dropped_bits: int = 0


@dataclass(frozen=True)
class Observation:
    """What one user sees: its backlog, last slot's SINR, channel powers."""

    backlog_bits: int
    prev_sinr: float
    chan_power: np.ndarray  # (n_antennas,) per-antenna |h|^2


@dataclass(frozen=True)
class Action:
    """Power split of one user: transmit power and local CPU power."""

    p_offload_w: float
    p_local_w: float


@dataclass
class StepResult:
    observations: list[Observation]
    true_rewards: list[float]
    perceived_rewards: list[float]
    info: list[dict]


def spawn_arrivals(cfg: EnvConfig, user: int, rng: np.random.Generator) -> int:
    """Poisson task count times uniform integer task sizes, in bits."""
    count = int(rng.poisson(cfg.arrival_rate[user]))
    if count == 0:
        return 0
    lo, hi = cfg.task_size_bits
    return int(rng.integers(lo, hi + 1, size=count).sum())


def serve_queue(queue: TaskQueue, cap_local_bits: int, cap_offload_bits: int):
    """Drain up to the two capacities, local path first.

    Returns ``(bits_local, bits_offloaded, queue_after_service)``. The
    backlog never goes negative; when both paths contend for fewer bits
    than their combined capacity the local path takes precedence (total
    served is the same either way).
    """
    bits_local = min(cap_local_bits, queue.backlog_bits)
    bits_offloaded = min(cap_offload_bits, queue.backlog_bits - bits_local)
    remaining = queue.backlog_bits - bits_local - bits_offloaded
    return bits_local, bits_offloaded, TaskQueue(remaining, queue.dropped_bits)


def enqueue_arrivals(queue: TaskQueue, arrived_bits: int, cap_bits: int) -> TaskQueue:
    """Add arrivals, dropping whatever exceeds the finite buffer."""
    total = queue.backlog_bits + arrived_bits
    backlog = min(total, cap_bits)
    return TaskQueue(backlog, queue.dropped_bits + (total - backlog))


def reward(cfg: EnvConfig, user: int, action: Action, backlog_after_bits: int) -> float:
    """Negative weighted sum of spent power and post-arrival backlog."""
    energy = cfg.w_energy[user] * (action.p_offload_w + action.p_local_w)
    return -energy - cfg.w_queue[user] * backlog_after_bits


def perturb_reward(true_reward: float, noise_level: float, rng: np.random.Generator) -> float:
    """Gaussian sample around the true reward, rejected outside two sigmas.

    The acceptance test depends only on the standard-normal draw, so the
    number of draws consumed is independent of the reward value.
    """
    if noise_level < 0:
        raise ValueError(f"noise_level must be nonnegative, got {noise_level}")
    if noise_level == 0:
        return true_reward
    while True:
        z = rng.standard_normal()
        if abs(z) <= 2.0:
            return true_reward + noise_level * z


def obs_vector(cfg: EnvConfig, obs: Observation, gain: float) -> np.ndarray:
    """Flatten an observation to the network input, min-max scaled to [0,1]."""
    out = np.empty(cfg.obs_dim)
    out[0] = obs.backlog_bits / cfg.buffer_cap_bits
    out[1] = min(obs.prev_sinr, cfg.obs_sinr_clip) / cfg.obs_sinr_clip
    np.minimum(obs.chan_power / (cfg.obs_chan_clip * gain), 1.0, out=out[2:])
    return out


class MecEnv:
    """One simulation instance; owns queues, channel and SINR memory.

    Randomness flows through four explicitly-passed streams so parallel
    runs and cross-algorithm comparisons stay independent: channel
    initialization, channel evolution, task arrivals, and reward noise.
    """

    def __init__(self, cfg: EnvConfig, *, rng_channel_init: np.random.Generator,
                 rng_channel: np.random.Generator, rng_arrivals: np.random.Generator,
                 rng_noise: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self._rng_channel_init = rng_channel_init
        self._rng_channel = rng_channel
        self._rng_arrivals = rng_arrivals
        self._rng_noise = rng_noise
        self._gains = cfg.gains()
        self._rho = np.asarray(cfg.rho)
        self.queues: list[TaskQueue] | None = None
        self.channel: phy.ChannelState | None = None
        self.prev_sinr: list[float] | None = None
        self.slot: int | None = None
        self._zf: np.ndarray | None = None
        self._last_obs: list[Observation] | None = None

    def reset(self) -> list[Observation]:
        """Empty queues, fresh stationary channel, zero SINR memory."""
        self.queues = [TaskQueue() for _ in range(self.cfg.n_users)]
        channel = phy.init_channel(self.cfg.constants, self._gains, self._rho, self._rng_channel_init)
        try:
            zf = phy.zf_norms(channel.h)
        except cmatrix.SingularMatrixError:
            channel = phy.init_channel(self.cfg.constants, self._gains, self._rho, self._rng_channel_init)
            zf = phy.zf_norms(channel.h)
        self.channel = channel
        self._zf = zf
        self.prev_sinr = [0.0] * self.cfg.n_users
        self.slot = 0
        self._last_obs = self._observations()
        return self._last_obs

    def _observations(self) -> list[Observation]:
        h = self.channel.h
        power = h.real * h.real + h.imag * h.imag
        return [
            Observation(
                backlog_bits=self.queues[m].backlog_bits,
                prev_sinr=self.prev_sinr[m],
                chan_power=np.ascontiguousarray(power[:, m]),
            )
            for m in range(self.cfg.n_users)
        ]

    def obs_vectors(self) -> np.ndarray:
        """Normalized observation vectors for the current state, one row per
        user: (n_users, obs_dim)."""
        if self._last_obs is None:
            raise StateError("reset() must be called before obs_vectors()")
        return np.array([obs_vector(self.cfg, o, self._gains[m])
                         for m, o in enumerate(self._last_obs)])

    def _evolved_channel(self):
        """One fading step; on a singular draw, resample the innovation once."""
        nxt = phy.evolve_channel(self.channel, self._rng_channel)
        try:
            return nxt, phy.zf_norms(nxt.h)
        except cmatrix.SingularMatrixError:
            nxt = phy.evolve_channel(self.channel, self._rng_channel)
            return nxt, phy.zf_norms(nxt.h)

    def step(self, actions: list[Action]) -> StepResult:
        cfg = self.cfg
        if self.slot is None:
            raise StateError("reset() must be called before step()")
        if self.slot >= cfg.episode_len:
            raise StateError(f"episode exhausted after {cfg.episode_len} slots; reset() to continue")
        if len(actions) != cfg.n_users:
            raise ActionError(f"expected {cfg.n_users} actions, got {len(actions)}")
        for m, a in enumerate(actions):
            if not 0.0 <= a.p_offload_w <= cfg.p_max_offload_w[m]:
                raise ActionError(
                    f"user {m}: p_offload_w={a.p_offload_w} outside [0, {cfg.p_max_offload_w[m]}]"
                )
            if not 0.0 <= a.p_local_w <= cfg.p_max_local_w[m]:
                raise ActionError(
                    f"user {m}: p_local_w={a.p_local_w} outside [0, {cfg.p_max_local_w[m]}]"
                )

        c = cfg.constants
        sinrs, true_rewards, perceived, info = [], [], [], []
        for m, a in enumerate(actions):
            gamma = phy.sinr(a.p_offload_w, float(self._zf[m]), c.noise_power_w)
            before = self.queues[m]
            backlog = before.backlog_bits
            # Neither path serves more than the backlog, so capping the
            # capacities there first changes nothing served and keeps an
            # infinite capacity (huge power, tiny kappa) out of math.floor.
            cap_local = phy.local_capacity(c, a.p_local_w)
            cap_local = backlog if cap_local >= backlog else math.floor(cap_local)
            cap_off = phy.offload_capacity(c, gamma)
            cap_off = backlog if cap_off >= backlog else math.floor(cap_off)
            bits_local, bits_off, served = serve_queue(before, cap_local, cap_off)
            arrived = spawn_arrivals(cfg, m, self._rng_arrivals)
            after = enqueue_arrivals(served, arrived, cfg.buffer_cap_bits)
            r_true = reward(cfg, m, a, after.backlog_bits)
            r_perc = perturb_reward(r_true, cfg.noise_level, self._rng_noise)
            self.queues[m] = after
            sinrs.append(gamma)
            true_rewards.append(r_true)
            perceived.append(r_perc)
            info.append({
                "sinr": gamma,
                "bits_local": bits_local,
                "bits_offloaded": bits_off,
                "bits_arrived": arrived,
                "bits_dropped": after.dropped_bits - before.dropped_bits,
            })

        self.channel, self._zf = self._evolved_channel()
        self.prev_sinr = sinrs
        self.slot += 1
        self._last_obs = self._observations()
        return StepResult(self._last_obs, true_rewards, perceived, info)
