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
from .errors import ConfigError
from .phy import PathLossModel, PhyConstants


# Largest receive array an environment may have: the channel is an
# (n_antennas, n_users) complex matrix and zero-forcing needs
# n_users <= n_antennas.
MAX_ANTENNAS = 256


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
    length-``n_users`` sequence. Construction (``dataclasses.replace``
    included) raises ConfigError for an out-of-range value, so an
    instance is valid and the simulator does not check it again.
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
        lo, hi = (int(v) for v in self.task_size_bits)
        self.task_size_bits = (lo, hi)
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

    @property
    def obs_dim(self) -> int:
        return self.constants.n_antennas + 2

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


def draw_arrivals(cfg: EnvConfig, rng: np.random.Generator, n_slots: int) -> np.ndarray:
    """Arrived bits per slot and user, (n_slots, n_users): Poisson task
    counts times uniform integer task sizes. One draw of every count, then
    one draw of every task size in slot-major order, summed per slot."""
    counts = rng.poisson(cfg.arrival_rate, size=(n_slots, cfg.n_users))
    lo, hi = cfg.task_size_bits
    sizes = rng.integers(lo, hi + 1, size=int(counts.sum()))
    # Bits of the first k tasks, read at the end of each slot's tasks.
    upto = np.concatenate(([0], np.cumsum(sizes)))[np.cumsum(counts)]
    return np.diff(upto, prepend=0).reshape(counts.shape)


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


def accepted_normals(rng: np.random.Generator, n: int, carry: np.ndarray):
    """The next ``n`` standard normals with ``|z| <= 2`` of ``rng``, after
    those in ``carry``: the values a draw-and-reject loop would return, in
    the same order. Returns them and the accepted draws left over, which the
    next call takes as its ``carry``."""
    z = carry
    while z.size < n:
        fresh = rng.standard_normal(int(1.05 * (n - z.size)) + 16)
        z = np.concatenate((z, fresh[np.abs(fresh) <= 2.0]))
    return z[:n], z[n:]


class MecEnv:
    """One simulation instance; owns queues, channel and SINR memory.

    Randomness flows through four explicitly-passed streams so parallel
    runs and cross-algorithm comparisons stay independent: channel
    initialization, channel evolution, task arrivals, and reward noise.
    None of them depends on the actions, so ``reset`` draws the whole
    episode's channel, zero-forcing norms, arrivals and reward noise at
    once, and ``step`` reads its slot from them. A reset before the end of
    an episode discards the rest of that episode's draws.
    """

    def __init__(self, cfg: EnvConfig, *, rng_channel_init: np.random.Generator,
                 rng_channel: np.random.Generator, rng_arrivals: np.random.Generator,
                 rng_noise: np.random.Generator):
        self.cfg = cfg
        self._rng_channel_init = rng_channel_init
        self._rng_channel = rng_channel
        self._rng_arrivals = rng_arrivals
        self._rng_noise = rng_noise
        self._gains = cfg.gains()
        self._rho = np.asarray(cfg.rho)
        self._noise_carry = np.empty(0)
        self.queues: list[TaskQueue] | None = None
        self.prev_sinr: list[float] | None = None
        self.slot: int | None = None
        # The episode's trace, slot-major; see reset().
        self._h: np.ndarray | None = None
        self._zf: np.ndarray | None = None
        self._power: np.ndarray | None = None
        self._chan_obs: np.ndarray | None = None
        self._arrivals: np.ndarray | None = None
        self._noise: np.ndarray | None = None

    @property
    def channel(self) -> phy.ChannelState | None:
        """The current slot's channel."""
        if self.slot is None:
            return None
        return phy.ChannelState(h=self._h[self.slot], rho=self._rho, gains=self._gains)

    def reset(self) -> list[Observation]:
        """Empty queues and zero SINR memory, and the episode's exogenous
        trace: the channel of every slot (a fresh stationary draw, then
        the fading recursion), its zero-forcing norms, its per-antenna
        powers, the arrivals and the reward noise."""
        cfg = self.cfg
        n_slots = cfg.episode_len
        h, self._zf = self._channel_trace(n_slots)
        self._h = h
        power = (h.real * h.real + h.imag * h.imag).transpose(0, 2, 1)
        self._power = np.ascontiguousarray(power)
        self._chan_obs = np.minimum(self._power / (cfg.obs_chan_clip * self._gains)[:, None], 1.0)
        self._arrivals = draw_arrivals(cfg, self._rng_arrivals, n_slots)
        self._noise = None
        if cfg.noise_level != 0:
            z, self._noise_carry = accepted_normals(self._rng_noise, n_slots * cfg.n_users,
                                                    self._noise_carry)
            self._noise = (cfg.noise_level * z).reshape(n_slots, cfg.n_users)
        self.queues = [TaskQueue() for _ in range(cfg.n_users)]
        self.prev_sinr = [0.0] * cfg.n_users
        self.slot = 0
        return self._observations()

    def _channel_trace(self, n_slots: int):
        """Channel (n_slots + 1, N, M) and zero-forcing norms (n_slots + 1, M).

        A singular slot 0 is replaced by one more draw of the init stream.
        A singular later slot takes the next innovation of the evolution
        stream instead of its own, and the trace is rebuilt from there on.
        These are the draws a step-by-step evolution with one retry per
        slot would make; a second failure at one slot raises.
        """
        rng = self._rng_channel
        start = rng.bit_generator.state
        init = phy.init_channel(self.cfg.constants, self._gains, self._rho, self._rng_channel_init)
        h = phy.evolve_channel(init, rng, n_slots)
        slot, skipped = None, []
        while True:
            try:
                return h, phy.zf_norms(h)
            except cmatrix.SingularMatrixError as exc:
                # zf_norms names the first failing slot, so a rebuilt trace
                # fails again at the same slot or at a later one.
                if exc.index == slot:
                    raise
                slot = exc.index
            if slot == 0:
                init = phy.init_channel(self.cfg.constants, self._gains, self._rho,
                                        self._rng_channel_init)
            else:
                # The stream position of this slot's innovation; earlier
                # skips all lie before it.
                skipped.append(slot - 1 + len(skipped))
            rng.bit_generator.state = start
            innov = phy.innovations(init, rng, n_slots + len(skipped))
            h = phy.ar_trace(init, np.delete(innov, skipped, axis=0))

    def _observations(self) -> list[Observation]:
        power = self._power[self.slot]
        return [Observation(q.backlog_bits, s, power[m])
                for m, (q, s) in enumerate(zip(self.queues, self.prev_sinr))]

    def obs_vectors(self) -> np.ndarray:
        """Normalized observation vectors for the current state, one row per
        user, min-max scaled to [0, 1]: (n_users, obs_dim)."""
        if self.slot is None:
            raise StateError("reset() must be called before obs_vectors()")
        cfg = self.cfg
        out = np.empty((cfg.n_users, cfg.obs_dim))
        out[:, 0] = [q.backlog_bits for q in self.queues]
        out[:, 0] /= cfg.buffer_cap_bits
        np.minimum(self.prev_sinr, cfg.obs_sinr_clip, out=out[:, 1])
        out[:, 1] /= cfg.obs_sinr_clip
        out[:, 2:] = self._chan_obs[self.slot]
        return out

    def step(self, actions: list[Action]) -> StepResult:
        cfg = self.cfg
        t = self.slot
        if t is None:
            raise StateError("reset() must be called before step()")
        if t >= cfg.episode_len:
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
        # One slot's row at a time as Python numbers: lists for the whole
        # episode would keep thousands of small objects alive per env (about
        # 1 MiB more peak RSS in the 8x8 benchmark workloads).
        zf, arrivals = self._zf[t].tolist(), self._arrivals[t].tolist()
        noise = None if self._noise is None else self._noise[t].tolist()
        sinrs, true_rewards, perceived, info = [], [], [], []
        for m, a in enumerate(actions):
            gamma = phy.sinr(a.p_offload_w, zf[m], c.noise_power_w)
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
            arrived = arrivals[m]
            after = enqueue_arrivals(served, arrived, cfg.buffer_cap_bits)
            r_true = reward(cfg, m, a, after.backlog_bits)
            self.queues[m] = after
            sinrs.append(gamma)
            true_rewards.append(r_true)
            perceived.append(r_true if noise is None else r_true + noise[m])
            info.append({
                "sinr": gamma,
                "bits_local": bits_local,
                "bits_offloaded": bits_off,
                "bits_arrived": arrived,
                "bits_dropped": after.dropped_bits - before.dropped_bits,
            })

        self.prev_sinr = sinrs
        self.slot += 1
        return StepResult(self._observations(), true_rewards, perceived, info)
