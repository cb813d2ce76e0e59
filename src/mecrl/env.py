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
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cmatrix, phy
from .errors import ConfigError
from .phy import PathLossModel, PhyConstants


# Largest receive array an environment may have: the channel is an
# (n_antennas, n_users) complex matrix and zero-forcing needs
# n_users <= n_antennas.
MAX_ANTENNAS = 256

# Memory budget of one reset, which draws the whole episode (see
# MecEnv.reset). Each training process holds its own, and an eval process
# rolls as many episodes at once as fit in it. The estimate
# per slot is RESET_SLOT_BYTES per user and (antenna + 1), plus
# RESET_SLOT_BASE_BYTES, plus RESET_TASK_BYTES per expected task. Measured
# under tracemalloc as the growth of one reset's peak with the episode's
# length, at no arrivals, from 1 x 1 to 256 x 256 users x antennas: the
# channel trace and its zero-forcing temporaries take 53-72 bytes per
# user and (antenna + 1), at most 71.8, plus about 40 bytes per slot at
# 1 x 1; at 8 x 8 a slot takes 4.8 KB. A training episode also holds its
# (T, M, 2) float64 exploration draw, 16 bytes per user-slot and so at
# most 8 per user and (antenna + 1). 88 is the 80 of both with 10% margin.
# The arrivals took at most 24 bytes per task.
RESET_BUDGET_BYTES = 64 << 20
RESET_SLOT_BYTES = 88
RESET_SLOT_BASE_BYTES = 64
RESET_TASK_BYTES = 24

# Bound on the complex128 Gram stack (16 bytes per entry) of one
# phy.zf_norms call in a draw pass, which holds as many consecutive episodes
# as fit. At 50 slots that is 20 episodes at 2 users, where numpy's fixed
# cost per call dominates, and one at 8 users, where larger stacks measured
# slower.
ZF_CHUNK_BYTES = 64 << 10

# Largest buffer in bits. A backlog up to it converts to float64 exactly,
# so roll_lockstep compares it with a float capacity as MecEnv.step does.
MAX_BUFFER_BITS = 1 << 53

# Largest task size in bits. The budget above admits about 2.8 M expected
# tasks per episode, so an episode's int64 sums of arrived bits stay below
# about 1.2e16 and cannot wrap.
MAX_TASK_BITS = 1 << 32


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
        if any(not lam >= 0 for lam in self.arrival_rate):
            raise ConfigError("arrival_rate entries must be nonnegative")
        if not 0 < lo <= hi <= MAX_TASK_BITS:
            raise ConfigError(f"task_size_bits must satisfy 0 < min <= max <= {MAX_TASK_BITS}, "
                              f"got {self.task_size_bits}")
        if not 0 < self.buffer_cap_bits <= MAX_BUFFER_BITS:
            raise ConfigError(f"buffer_cap_bits must satisfy 0 < cap <= 2**53, "
                              f"got {self.buffer_cap_bits}")
        for name in ("p_max_offload_w", "p_max_local_w", "w_energy", "w_queue"):
            if any(v < 0 for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be nonnegative")
        if self.noise_level < 0:
            raise ConfigError(f"noise_level must be nonnegative, got {self.noise_level}")
        if self.episode_len < 1:
            raise ConfigError(f"episode_len must be >= 1, got {self.episode_len}")
        tasks = sum(self.arrival_rate)
        slot_bytes = self.reset_slot_bytes()
        # Compared as a slot count, so a huge episode_len cannot overflow.
        max_len = RESET_BUDGET_BYTES / slot_bytes
        if not self.episode_len <= max_len:
            raise ConfigError(
                f"episode_len {self.episode_len} exceeds the {RESET_BUDGET_BYTES >> 20} MiB "
                f"budget of one reset: at {self.n_users} users, {n_antennas} antennas and "
                f"{tasks:g} expected tasks per slot (arrival_rate), a slot takes about "
                f"{slot_bytes:.0f} bytes, so at most {int(max_len)} slots fit")
        if self.obs_sinr_clip <= 0 or self.obs_chan_clip <= 0:
            raise ConfigError("observation clip scales must be positive")

    @property
    def obs_dim(self) -> int:
        return self.constants.n_antennas + 2

    def reset_slot_bytes(self) -> float:
        """Estimated memory of one slot of a reset's draws: the channel
        trace, its zero-forcing temporaries and a training episode's
        exploration draw per user and (antenna + 1), a base per slot, the
        arrivals per expected task. ``RESET_BUDGET_BYTES`` bounds an
        episode at this estimate."""
        return (RESET_SLOT_BYTES * self.n_users * (self.constants.n_antennas + 1)
                + RESET_SLOT_BASE_BYTES + RESET_TASK_BYTES * sum(self.arrival_rate))

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


class Action(NamedTuple):
    """Power split of one user: transmit power and local CPU power."""

    p_offload_w: float
    p_local_w: float


class StepResult:
    """One slot's per-user true and perceived rewards and info, and the
    observations after it.

    ``info`` and ``observations`` are built together on the first read of
    either, from the step's snapshot: its per-user backlogs, SINRs and bits
    served locally, offloaded, arrived and dropped, which no later step
    changes, and the episode's channel with the next slot's index. The
    training and evaluation loops read neither. Once built, the snapshot
    is dropped.
    """

    __slots__ = ("true_rewards", "perceived_rewards", "_snapshot", "_info", "_observations")

    def __init__(self, snapshot: tuple, true_rewards: list[float], perceived_rewards: list[float]):
        self._snapshot = snapshot
        self.true_rewards = true_rewards
        self.perceived_rewards = perceived_rewards

    def _build(self):
        backlog, sinrs, local, offloaded, arrived, dropped, h, slot = self._snapshot
        self._info = [{"sinr": g, "bits_local": bl, "bits_offloaded": bo,
                       "bits_arrived": ba, "bits_dropped": bd}
                      for g, bl, bo, ba, bd in zip(sinrs, local, offloaded, arrived, dropped)]
        h = h[slot]
        power = np.ascontiguousarray((h.real * h.real + h.imag * h.imag).T)
        self._observations = [Observation(b, s, p) for b, s, p in zip(backlog, sinrs, power)]
        self._snapshot = None

    @property
    def info(self) -> list[dict]:
        if self._snapshot is not None:
            self._build()
        return self._info

    @property
    def observations(self) -> list[Observation]:
        if self._snapshot is not None:
            self._build()
        return self._observations


def draw_arrivals(cfg: EnvConfig, rng: np.random.Generator, n_slots: int) -> np.ndarray:
    """Arrived bits per slot and user, (n_slots, n_users): Poisson task
    counts times uniform integer task sizes. One draw of every count, then
    one draw of every task size in slot-major order, summed per slot."""
    counts = rng.poisson(cfg.arrival_rate, size=(n_slots, cfg.n_users))
    lo, hi = cfg.task_size_bits
    sizes = rng.integers(lo, hi + 1, size=int(counts.sum()))
    # Bits of the first k tasks, read at the end of each slot's tasks.
    upto = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=upto[1:])
    bits = upto[np.cumsum(counts)]
    # A ufunc buffers overlapping operands, so this is np.diff in place.
    bits[1:] -= bits[:-1]
    return bits.reshape(counts.shape)


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
    once, ``draws`` does so for several consecutive episodes in one pass,
    and ``step`` reads its slot from them. A reset before the end of
    an episode discards the rest of that episode's draws.

    Zero-forcing needs a channel of full column rank, which Rayleigh
    fading gives with probability 1. A slot whose Gram matrix fails
    ``cmatrix.invert_hpd``'s checks, or whose SINR divisor (noise power
    times zero-forcing norm) underflows to 0, raises from the reset that
    draws it, and the run ends: no channel is drawn again.
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
        self._obs_scale = cfg.obs_chan_clip * self._gains
        self._noise_carry = np.empty(0)
        # Per-user backlog and cumulative overflow in bits, SINR of the last slot.
        self.backlog: list[int] | None = None
        self.dropped: list[int] | None = None
        self.prev_sinr: list[float] | None = None
        self.slot: int | None = None
        # The episode's trace, slot-major; see reset().
        self._h: np.ndarray | None = None
        self._zf: np.ndarray | None = None
        self._chan_obs: np.ndarray | None = None
        self._arrivals: np.ndarray | None = None
        self._noise: np.ndarray | None = None

    @property
    def channel(self) -> phy.ChannelState | None:
        """The current slot's channel."""
        if self.slot is None:
            return None
        return phy.ChannelState(h=self._h[self.slot], rho=self._rho, gains=self._gains)

    @property
    def queues(self) -> list[TaskQueue] | None:
        """A read-only view of the queues, built on each read."""
        if self.backlog is None:
            return None
        return [TaskQueue(b, d) for b, d in zip(self.backlog, self.dropped)]

    def reset(self) -> None:
        """Empty queues and zero SINR memory, and the episode's exogenous
        trace: the channel of every slot (a fresh stationary draw, then
        the fading recursion), its zero-forcing norms, the clipped
        per-antenna powers the observations read, the arrivals and the
        reward noise. ``obs_vectors()`` reads the first observations.
        This is :meth:`draws`'s pass for one episode."""
        self._h, self._zf, self._chan_obs, self._arrivals, self._noise = next(self.draws(1))
        n = self.cfg.n_users
        self.backlog, self.dropped, self.prev_sinr, self.slot = [0] * n, [0] * n, [0.0] * n, 0

    def draws(self, k: int) -> Iterator[tuple]:
        """The draws of ``k`` :meth:`reset` calls in one pass: per episode
        in order, its channel (T + 1, N, M), zero-forcing norms (T + 1, M),
        clipped observation powers (T + 1, M, N), arrivals and noise (T, M).

        This env's trace goes first, so a pass's peak holds no earlier
        episode and a draw that raises leaves an env that will not step; it
        holds no episode afterwards. The channels come next, one block of
        all k episodes: every episode's initial channel from the init
        stream, then every episode's innovation from the evolution stream,
        and one recursion. The zero-forcing norms follow in one call per
        run of consecutive episodes whose Gram stacks fit in
        ``ZF_CHUNK_BYTES``, and the arrivals and noise episode by episode.
        A singular slot raises SingularMatrixError from its episode's
        norms, and a norm whose product with the noise power underflows to
        0 raises MatrixError, after the earlier episodes are yielded and
        before that episode's arrivals and noise are drawn. Iterate to the
        end or to the error: the later episodes' draws finish on demand.
        """
        self.slot = self._h = self._zf = self._chan_obs = self._arrivals = self._noise = None
        cfg = self.cfg
        n_slots = cfg.episode_len
        init = phy.init_channel(cfg.constants, self._gains, self._rho, self._rng_channel_init, (k,))
        h = phy.evolve_channel(init, self._rng_channel, n_slots)
        chan_obs = self._obs_powers(h)
        per_call = max(1, ZF_CHUNK_BYTES // ((n_slots + 1) * cfg.n_users * cfg.n_users * 16))
        for first in range(0, k, per_call):
            block = h[first:first + per_call]
            try:
                zf = self._zf_norms(block.reshape((-1,) + block.shape[2:])).reshape(
                    block.shape[:2] + (cfg.n_users,))
            except cmatrix.MatrixError:
                # Episode by episode, so the failing one raises with its own
                # slot once the episodes before it are yielded.
                zf = [None] * len(block)
            for trace, norms, obs in zip(block, zf, chan_obs[first:first + per_call]):
                if norms is None:
                    norms = self._zf_norms(trace)
                arrivals = draw_arrivals(cfg, self._rng_arrivals, n_slots)
                noise = None
                if cfg.noise_level != 0:
                    z, self._noise_carry = accepted_normals(
                        self._rng_noise, n_slots * cfg.n_users, self._noise_carry)
                    noise = (cfg.noise_level * z).reshape(n_slots, cfg.n_users)
                yield trace, norms, obs, arrivals, noise

    def _zf_norms(self, h: np.ndarray) -> np.ndarray:
        """``phy.zf_norms`` of a (S, N, M) stack of slots. The SINR divides
        by noise power times the norm, so a product of 0 raises MatrixError
        naming the first such slot."""
        zf = phy.zf_norms(h)
        zero = self.cfg.constants.noise_power_w * zf == 0.0
        if zero.any():
            raise cmatrix.MatrixError(int(zero.any(axis=1).argmax()), "noise_power_w times a "
                                      "zero-forcing norm underflows to 0")
        return zf

    def _obs_powers(self, h: np.ndarray) -> np.ndarray:
        """Per-antenna channel powers over the clip scale, clipped at 1:
        ``(..., N, M)`` channels give ``(..., M, N)``."""
        power = h.real * h.real
        power += h.imag * h.imag
        power /= self._obs_scale
        return np.minimum(power, 1.0, out=power).swapaxes(-1, -2)

    def obs_vectors(self) -> np.ndarray:
        """Normalized observation vectors for the current state, one row per
        user, min-max scaled to [0, 1]: (n_users, obs_dim)."""
        if self.slot is None:
            raise StateError("reset() must be called before obs_vectors()")
        cfg = self.cfg
        cap, clip = float(cfg.buffer_cap_bits), cfg.obs_sinr_clip
        out = np.empty((cfg.n_users, cfg.obs_dim))
        out[:, 0] = [b / cap for b in self.backlog]
        # min() keeps a NaN SINR, as np.minimum does.
        out[:, 1] = [min(s, clip) / clip for s in self.prev_sinr]
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
        for m, (p_off, p_loc) in enumerate(actions):
            if not 0.0 <= p_off <= cfg.p_max_offload_w[m]:
                raise ActionError(
                    f"user {m}: p_offload_w={p_off} outside [0, {cfg.p_max_offload_w[m]}]")
            if not 0.0 <= p_loc <= cfg.p_max_local_w[m]:
                raise ActionError(
                    f"user {m}: p_local_w={p_loc} outside [0, {cfg.p_max_local_w[m]}]")

        c = cfg.constants
        noise_w, cap_bits = c.noise_power_w, cfg.buffer_cap_bits
        sinr, local_capacity, offload_capacity = phy.sinr, phy.local_capacity, phy.offload_capacity
        # One slot's row at a time as Python numbers: lists for the whole
        # episode would keep thousands of small objects alive per env (about
        # 1 MiB more peak RSS in the 8x8 benchmark workloads).
        zf, arrived = self._zf[t].tolist(), self._arrivals[t].tolist()
        # Fresh lists every step: a StepResult builds its info and
        # observations from them when they are first read.
        backlog, dropped, sinrs, local, offloaded, drops, true_rewards = [], [], [], [], [], [], []
        for (p_off, p_loc), z, before, arr, cum, w_e, w_q in zip(
                actions, zf, self.backlog, arrived, self.dropped, cfg.w_energy, cfg.w_queue):
            gamma = sinr(p_off, z, noise_w)
            # Neither path serves more than the backlog, so capping the
            # capacities there first changes nothing served and keeps an
            # infinite capacity (huge power, tiny kappa) out of math.floor.
            # Local first; what overflows the buffer after arrivals drops.
            cap = local_capacity(c, p_loc)
            bits_local = before if cap >= before else math.floor(cap)
            cap = offload_capacity(c, gamma)
            rest = before - bits_local
            bits_off = rest if cap >= rest else math.floor(cap)
            total = rest - bits_off + arr
            after = total if total <= cap_bits else cap_bits
            backlog.append(after)
            dropped.append(cum + total - after)
            sinrs.append(gamma)
            local.append(bits_local)
            offloaded.append(bits_off)
            drops.append(total - after)
            true_rewards.append(-w_e * (p_off + p_loc) - w_q * after)
        if self._noise is None:
            perceived = true_rewards.copy()
        else:
            perceived = [r + z for r, z in zip(true_rewards, self._noise[t].tolist())]

        self.backlog, self.dropped, self.prev_sinr = backlog, dropped, sinrs
        self.slot = t + 1
        return StepResult((backlog, sinrs, local, offloaded, arrived, drops, self._h, t + 1),
                          true_rewards, perceived)


def roll_lockstep(cfg: EnvConfig, episodes: list[tuple], policy) -> list[list[float]]:
    """Roll episodes of ``cfg``, each a tuple that :meth:`MecEnv.draws`
    yields, from empty queues to their ends in lockstep; returns each
    episode's per-user sums of true rewards.

    Each slot makes one ``policy`` call on the (E, n_users, obs_dim)
    observations of the E episodes still rolling, for (E, n_users, 2)
    actions, and runs as numpy operations on (E, n_users) arrays. It gives
    byte for byte what :meth:`MecEnv.step` gives each episode: the same
    float operations in the same order, log2 and the cube root taken per
    element as step takes them (numpy's can differ in the last bit), and
    exact comparisons of capacities with backlogs of at most
    ``buffer_cap_bits`` <= 2**53. An action outside its box, NaN included,
    stops its episode and every later one at that slot, while the earlier
    ones roll on. The earliest episode's error is raised after them: step's
    ActionError for its first failing user, offload before local, with the
    episode's position in ``episodes`` and the slot as ``episode`` and
    ``slot``.
    """
    c = cfg.constants
    clip, cap_bits = cfg.obs_sinr_clip, cfg.buffer_cap_bits
    rate, third = c.slot_s * c.bandwidth_hz, 1.0 / 3.0
    p_max = np.column_stack((cfg.p_max_offload_w, cfg.p_max_local_w))
    neg_w_e, w_q = -np.array(cfg.w_energy), np.array(cfg.w_queue)
    _, zf, chan_obs, arrivals, _ = zip(*episodes)
    divisor = c.noise_power_w * np.stack(zf)
    chan_obs, arrivals = np.stack(chan_obs), np.stack(arrivals)
    backlog = np.zeros((len(episodes), cfg.n_users), dtype=np.int64)
    sinr, sums = np.zeros(backlog.shape), np.zeros(backlog.shape)
    obs = np.empty(backlog.shape + (cfg.obs_dim,))
    failed = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(cfg.episode_len):
            obs[..., 0] = backlog / float(cap_bits)
            obs[..., 1] = np.minimum(sinr, clip) / clip
            obs[..., 2:] = chan_obs[:, t]
            a = np.asarray(policy(obs), dtype=np.float64)
            p_off, p_loc = a[..., 0], a[..., 1]
            gamma = p_off / divisor[:, t]
            # The maxima keep an out-of-box action's operands in the
            # domains of ** and log2; its episode stops at this slot.
            x = np.maximum(p_loc / c.kappa, 0.0)
            freq = np.array([v ** third for v in x.ravel().tolist()]).reshape(x.shape)
            cap = c.slot_s * freq / c.cycles_per_bit
            rest = backlog - np.floor(np.minimum(cap, backlog)).astype(np.int64)
            x = np.maximum(1.0 + gamma, 1.0)
            cap = rate * np.array([math.log2(v) for v in x.ravel().tolist()]).reshape(x.shape)
            total = rest - np.floor(np.minimum(cap, rest)).astype(np.int64) + arrivals[:, t]
            after = np.minimum(total, cap_bits)
            reward = neg_w_e * (p_off + p_loc) - w_q * after
            # Where step raises: an action outside its box, NaN included. The
            # reset and the config rule out a zero SINR divisor and a NaN capacity.
            inside = (a >= 0.0) & (a <= p_max)
            if not inside.all():
                i = int(inside.all(axis=(1, 2)).argmin())
                m, k = divmod(int(inside[i].argmin()), 2)
                name = ("p_offload_w", "p_local_w")[k]
                failed = ActionError(f"user {m}: {name}={float(a[i, m, k])} "
                                     f"outside [0, {float(p_max[m, k])}]")
                failed.episode, failed.slot = i, t
                chan_obs, divisor, arrivals = chan_obs[:i], divisor[:i], arrivals[:i]
                obs, sums, after, gamma, reward = obs[:i], sums[:i], after[:i], gamma[:i], reward[:i]
                if not i:
                    break
            sums += reward
            backlog, sinr = after, gamma
    if failed is not None:
        raise failed
    return sums.tolist()
