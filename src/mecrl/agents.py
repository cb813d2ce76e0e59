"""Replay buffer, exploration, and the three trainers.

The decentralized baseline gives every user its own actor and critic over
local observations; the centralized variant feeds each critic the joint
observations and actions of all users; the robust variant adds one
adversarial reward network per agent whose (clamped) output replaces the
stored reward inside the temporal-difference target. All agents share
network shapes within an algorithm, so each role's networks are stacked
along a leading agent axis and one update steps every agent at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neural
from .env import Action, EnvConfig, MecEnv, StepResult
from .errors import ConfigError
# The update runs the unchecked kernels on its own buffers, under the names
# the benchmark's tracer patches.
from .neural import AdamState, MlpParams, adam_step, eval_vec, soft_update
from .neural import backward_unchecked as backward, forward_unchecked as forward

ALGOS = ("ddpg", "maddpg", "rmaddpg")


@dataclass
class TrainerConfig:
    """Training hyperparameters; exploration scales are fractions of the
    per-dimension power ceiling. Construction raises ConfigError for an
    out-of-range value."""

    gamma: float = 0.95
    batch_size: int = 128
    buffer_capacity: int = 100_000
    warmup_steps: int = 1000
    explore_sigma0: float = 0.2
    explore_decay: float = 0.995
    explore_sigma_floor: float = 0.02
    tau_soft: float = 0.01
    updates_per_step: int = 1
    lr_actor: float = 1e-4
    lr_critic: float = 1e-3
    lr_nature: float = 1e-3
    hidden: int = 64

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.batch_size < 1 or self.batch_size > self.buffer_capacity:
            raise ConfigError("batch_size must satisfy 1 <= batch_size <= buffer_capacity")
        if self.warmup_steps < 0 or self.updates_per_step < 0:
            raise ConfigError("warmup_steps and updates_per_step must be nonnegative")
        if self.explore_sigma0 < 0 or self.explore_sigma_floor < 0:
            raise ConfigError("exploration scales must be nonnegative")
        if not 0.0 < self.explore_decay <= 1.0:
            raise ConfigError(f"explore_decay must lie in (0, 1], got {self.explore_decay}")
        if not 0.0 <= self.tau_soft <= 1.0:
            raise ConfigError(f"tau_soft must lie in [0, 1], got {self.tau_soft}")
        if min(self.lr_actor, self.lr_critic, self.lr_nature) < 0 or self.hidden < 1:
            raise ConfigError("learning rates must be nonnegative and hidden >= 1")


@dataclass
class Batch:
    """Stacked sample: axes are (batch, user, feature). The four arrays view
    ``rows``, one packed row [obs | acts | rewards | next_obs] per
    transition, each part all users' entries in user order."""

    obs: np.ndarray        # (k, M, obs_dim)
    acts: np.ndarray       # (k, M, 2)
    rewards: np.ndarray    # (k, M)
    next_obs: np.ndarray   # (k, M, obs_dim)
    rows: np.ndarray       # (k, M * (2 * obs_dim + 3))


class ReplayBuffer:
    """Fixed-capacity FIFO ring sampled uniformly with replacement; pushed
    values are stored in ``dtype``, one :class:`Batch` row per transition,
    so a sample is one gather."""

    def __init__(self, capacity: int, n_users: int, obs_dim: int, act_dim: int = 2,
                 dtype=np.float32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Columns and per-transition shape of obs, acts, rewards and next_obs.
        shapes = ((n_users, obs_dim), (n_users, act_dim), (n_users,), (n_users, obs_dim))
        ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        self._fields = list(zip(map(slice, ends, ends[1:]), shapes))
        self._ring = np.empty((capacity, ends[-1]), dtype)
        self._obs, self._acts, self._rewards, self._next_obs = self._unpack(self._ring)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs, acts, rewards, next_obs) -> None:
        """Store one interaction: (M, obs_dim) observations, (M, 2) actions
        in raw watts, M perceived rewards and (M, obs_dim) next observations."""
        cur = self._cursor
        self._obs[cur] = obs
        self._acts[cur] = acts
        self._rewards[cur] = rewards
        self._next_obs[cur] = next_obs
        self._cursor = (cur + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_arrays(self, k: int, rng: np.random.Generator) -> Batch:
        if k > self._size:
            raise ValueError(f"cannot sample {k} transitions from {self._size} stored")
        rows = self._ring[rng.integers(0, self._size, size=k)]
        return Batch(*self._unpack(rows), rows)

    def _unpack(self, rows: np.ndarray) -> list[np.ndarray]:
        return [rows[:, cols].reshape((len(rows),) + shape) for cols, shape in self._fields]


@dataclass
class DdpgAgent:
    """One agent's actor and critic with their target copies: views into
    the trainer's stacked networks."""

    actor: MlpParams
    actor_target: MlpParams
    critic: MlpParams
    critic_target: MlpParams


@dataclass
class NatureNet:
    """Adversarial scalar reward estimate over one agent's (obs, action):
    a view into the trainer's stacked adversaries."""

    net: MlpParams


class TrainingDiverged(ValueError):
    """A loss, objective or parameter of a network is no longer finite."""


@dataclass
class UpdateStats:
    """Diagnostics of one update, one entry per agent."""

    critic_loss: np.ndarray        # (M,)
    actor_objective: np.ndarray    # (M,)
    nature_mean: np.ndarray | None = None


def _squash(u: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Map unbounded actor outputs into [0, 2 * half] per dimension."""
    return (np.tanh(u) + 1.0) * half


def act(actor: MlpParams, p_max: np.ndarray, obs: np.ndarray,
        noise: np.ndarray | None = None) -> np.ndarray:
    """Deterministic policy outputs of all users, plus ``noise`` if given,
    clipped to [0, p_max].

    ``actor`` is the stacked actor and ``p_max`` is (M, 2). ``obs`` is
    (M, obs_dim), or (E, M, obs_dim) for E episodes at once; the result is
    (M, 2) or (E, M, 2), each row the same as a call on its episode alone
    gives. ``noise`` is added exploration in watts, of the result's shape;
    ``train_episode`` passes one slot of its per-episode draw. The actor
    runs in its own dtype; squashing, noise and clipping run in
    ``p_max``'s, so float64 bounds give actions that lie within them
    exactly.
    """
    a = _squash(eval_vec(actor, obs), 0.5 * p_max)
    if noise is not None:
        a += noise
    # np.clip's per-call overhead is about twice that of these two ufuncs.
    np.maximum(a, 0.0, out=a)
    return np.minimum(a, p_max, out=a)


def td_targets(critic_target: MlpParams, x_next, rewards: np.ndarray,
               gamma: float, zeros: np.ndarray | None = None) -> np.ndarray:
    """Bootstrapped regression targets of all agents:
    r + gamma * Q_target(s', a'), shape (M, k, 1). ``x_next`` is in the
    critic's dtype and ends in a ones column (see ``neural.input_buffer``);
    ``zeros`` is passed on to ``neural.forward_unchecked``."""
    y = forward(critic_target, x_next, zeros)[0]
    y *= gamma
    y += rewards
    return y


def _nature_step(trainer: "Trainer", work: "_UpdateBuffers", stored: np.ndarray):
    """Adversary estimates clamped to the uncertainty band around the
    stored rewards, then one descent step on the mean estimate.

    Returns the clamped rewards (M, k, 1) and the mean estimate per agent.
    The adversaries read nothing the agents' step changes, so they step
    first and their activations are released before the agents' step.
    """
    r_hat, cache = forward(trainer.nature, work.local, work.zeros)
    band = 2.0 * trainer.noise_level
    # np.clip's per-call overhead is about twice that of these two ufuncs,
    # which give the same values, NaN included.
    r_tilde = np.minimum(np.maximum(r_hat, stored - band), stored + band)
    # The pairwise sum and the division of ndarray.mean, without its
    # Python-level dispatch.
    mean = np.add.reduce(r_hat, axis=(1, 2)) / work.k
    g, _ = backward(trainer.nature, cache, work.inv_k, trainer.nature_grad, False, work.pads)
    adam_step(trainer.nature_opt, trainer.nature, g)
    return r_tilde, mean


def _critic_step(trainer: "Trainer", work: "_UpdateBuffers", y: np.ndarray) -> np.ndarray:
    """One descent step on every critic's mean squared Bellman error;
    returns the per-agent loss before the step."""
    k = work.k
    q, cache = forward(trainer.critic, work.x, work.zeros)
    err = np.subtract(q, y, out=q)
    loss = np.einsum("mki,mki->m", err, err) / k
    err *= 2.0 / k
    g, _ = backward(trainer.critic, cache, err, trainer.critic_grad, False, work.pads)
    adam_step(trainer.critic_opt, trainer.critic, g)
    return loss


def _actor_step(trainer: "Trainer", work: "_UpdateBuffers") -> np.ndarray:
    """One ascent step of every actor on mean Q(s, a) with its own action
    columns set to its policy's output and the other users' columns taken
    from the batch; returns the per-agent objective before the step.

    Only the input gradient at the agent's own two action columns is
    needed, so the critic pass is written out here: the pre-activation is
    the batch input (with its ones column) times the critic's first layer,
    plus a rank-2 correction through the agent's own action rows, and no
    parameter gradient of the critic is formed. The gradient comes out
    negated, through ``-half``, for the descent step to ascend: rounding is
    symmetric in sign.
    """
    critic, k = trainer.critic, work.k
    u, cache = forward(trainer.actor, work.obs, work.zeros)
    t = np.tanh(u)
    w_own = critic.l1[trainer.own_rows]                  # (M, 2, hidden)
    z = np.matmul(work.x, critic.l1, out=work.hidden[0])
    z += np.matmul((t + 1.0) * work.half - work.acts, w_own, out=work.hidden[1])
    np.maximum(z, work.zeros_z, out=z)
    q = z @ critic.w2t
    q += critic.b2[:, None, :]
    objective = np.add.reduce(q, axis=(1, 2)) / k
    dz = np.multiply(z > 0.0, critic.w2 * (1.0 / k), out=z)
    du = dz @ w_own.swapaxes(1, 2)
    du *= (1.0 - t * t) * work.neg_half
    g, _ = backward(trainer.actor, cache, du, trainer.actor_grad, False, None)
    adam_step(trainer.actor_opt, trainer.actor, g)
    return objective


class _UpdateBuffers:
    """Buffers of one update for batch size ``k``, kept by the trainer and
    rewritten in place: fresh ones of the (M, k, hidden) size on every
    update were returned to the system and page-faulted in again each time.

    The network inputs end in their ones column. ``obs``/``next_obs`` feed
    the actors, (M, k, obs_dim + 1). ``x``/``x_next`` feed the critics:
    each agent's own (obs, action) in ``ddpg``, (M, k, obs_dim + 3); the
    joint (obs, action) of all users in user order otherwise,
    (k, M * (obs_dim + 2) + 1). ``local`` holds each agent's own
    (obs, action) for the ``rmaddpg`` adversaries; in ``ddpg`` it is ``x``.
    ``acts`` holds the batch actions, (M, k, 2), and ``hidden`` the actor
    step's two (M, k, hidden) activations.

    The rest are constant operands at the full shape they meet, which keeps
    numpy on its vector loops (see ``neural.forward_unchecked`` and
    ``neural.backward_unchecked``): ``zeros`` is every forward's
    (M, k, hidden + 1) activation shape for the ReLU, and ``zeros_z`` the
    actor step's (M, k, hidden) one, a contiguous view of the same zeros;
    ``pads`` are the zero-padded outer-product operands of the critics'
    and adversaries' backward passes; ``half`` and ``neg_half`` are ±half
    the action range, (M, k, 2); ``inv_k`` is the adversaries' upstream
    gradient 1 / k.
    """

    def __init__(self, algo: str, half: np.ndarray, obs_dim: int, k: int, hidden: int):
        n, dtype = len(half), half.dtype

        def buf(lead, width):
            return neural.input_buffer(lead, width, dtype)

        self.k = k
        self.obs, self.next_obs = buf((n, k), obs_dim), buf((n, k), obs_dim)
        if algo == "ddpg":
            self.x, self.x_next = buf((n, k), obs_dim + 2), buf((n, k), obs_dim + 2)
        else:
            self.x, self.x_next = buf((k,), n * (obs_dim + 2)), buf((k,), n * (obs_dim + 2))
        self.local = None
        if algo != "maddpg":
            self.local = self.x if algo == "ddpg" else buf((n, k), obs_dim + 2)
        self.acts = np.empty((n, k, 2), dtype)
        self.hidden = np.empty((2, n, k, hidden), dtype)
        zeros = np.zeros(n * k * (hidden + 1), dtype)
        self.zeros = zeros.reshape(n, k, hidden + 1)
        self.zeros_z = zeros[:n * k * hidden].reshape(n, k, hidden)
        self.pads = (np.zeros((n, k, 2), dtype), np.zeros((n, 2, hidden + 1), dtype))
        self.half = np.repeat(half[:, None, :], k, axis=1)
        self.neg_half = -self.half
        self.inv_k = np.full((n, k, 1), 1.0 / k, dtype) if algo == "rmaddpg" else None


def td_update(trainer: "Trainer", batch: Batch) -> UpdateStats:
    """One update of every agent on one sampled batch.

    Each critic takes a regression step toward its TD target, then each
    actor an ascent step through its updated critic, then the targets are
    soft-updated. ``ddpg`` critics read their own user's (obs, action);
    the centralized critics of ``maddpg`` and ``rmaddpg`` all read the
    joint (obs, action) of every user. In ``rmaddpg`` the adversary's
    clamped reward estimate replaces the stored reward in the target, and
    the adversary then descends its own output at the sampled points.
    """
    tc = trainer.tc
    k, n, d = batch.obs.shape
    if trainer.work.k != k:
        trainer.work = _UpdateBuffers(trainer.algo, trainer.half, d, k, tc.hidden)
    work = trainer.work
    obs = batch.obs.transpose(1, 0, 2)                   # (M, k, obs_dim)
    next_obs = batch.next_obs.transpose(1, 0, 2)
    rewards = batch.rewards.T[:, :, None]                # (M, k, 1)
    work.obs[..., :-1] = obs
    work.next_obs[..., :-1] = next_obs
    np.copyto(work.acts, batch.acts.transpose(1, 0, 2))
    a_next = _squash(forward(trainer.actor_target, work.next_obs, work.zeros)[0], work.half)
    if work.local is not None:
        work.local[..., :d] = obs
        work.local[..., d:-1] = work.acts
    if trainer.algo == "ddpg":
        work.x_next[..., :d] = next_obs
        work.x_next[..., d:-1] = a_next
    else:
        # Packed rows start with every user's obs, then every user's action.
        work.x[:, :-1] = batch.rows[:, :n * (d + 2)]
        work.x_next[:, :n * d] = batch.next_obs.reshape(k, n * d)
        work.x_next[:, n * d:-1] = a_next.transpose(1, 0, 2).reshape(k, 2 * n)
    nature_mean = None
    if trainer.nature is not None:
        rewards, nature_mean = _nature_step(trainer, work, rewards)
    y = td_targets(trainer.critic_target, work.x_next, rewards, tc.gamma, work.zeros)
    critic_loss = _critic_step(trainer, work, y)
    actor_objective = _actor_step(trainer, work)
    soft_update(trainer.critic_target, trainer.critic, tc.tau_soft)
    soft_update(trainer.actor_target, trainer.actor, tc.tau_soft)
    return UpdateStats(critic_loss, actor_objective, nature_mean)


@dataclass
class EpisodeStats:
    true_returns: tuple[float, ...]
    perceived_returns: tuple[float, ...]
    sigma: float

    @property
    def mean_true(self) -> float:
        """Episode return averaged over users."""
        return math.fsum(self.true_returns) / len(self.true_returns)


class Trainer:
    """Owns the agents, adversaries, replay buffer and exploration state
    for one training run.

    Networks of one role (actor, actor_target, critic, critic_target,
    nature) live in one stacked buffer with a leading agent axis, with one
    optimizer state and one gradient buffer per role; ``agents`` and
    ``natures`` hold per-agent views into those stacks. Networks, replay
    ring and update buffers are in ``dtype``; initial weights are drawn in
    float64 and cast once, so the draw stream does not depend on it.
    """

    ROLES = ("actor", "actor_target", "critic", "critic_target", "nature")

    def __init__(self, env_cfg: EnvConfig, tc: TrainerConfig, algo: str,
                 rng_init: np.random.Generator, *, dtype=np.float32):
        if algo not in ALGOS:
            raise ValueError(f"unknown algo {algo!r}, expected one of {ALGOS}")
        self.algo = algo
        self.tc = tc
        self.noise_level = env_cfg.noise_level
        n = env_cfg.n_users
        obs_dim = env_cfg.obs_dim
        critic_in = obs_dim + 2 if algo == "ddpg" else n * (obs_dim + 2)
        # Draw order per agent: actor, then critic; adversaries after all agents.
        actors, critics = [], []
        for _ in range(n):
            actors.append(neural.init_mlp(obs_dim, 2, rng_init, tc.hidden))
            critics.append(neural.init_mlp(critic_in, 1, rng_init, tc.hidden))
        self.actor = neural.stack_params(actors, dtype)
        self.actor_target = self.actor.copy()
        self.critic = neural.stack_params(critics, dtype)
        self.critic_target = self.critic.copy()
        self.actor_opt = AdamState(lr=tc.lr_actor)
        self.critic_opt = AdamState(lr=tc.lr_critic)
        self.actor_grad = neural.adam_gradients(self.actor_opt, self.actor)
        self.critic_grad = neural.adam_gradients(self.critic_opt, self.critic)
        self.nature = self.nature_opt = self.nature_grad = None
        if algo == "rmaddpg":
            self.nature = neural.stack_params(
                [neural.init_mlp(obs_dim + 2, 1, rng_init, tc.hidden) for _ in range(n)], dtype)
            self.nature_opt = AdamState(lr=tc.lr_nature)
            self.nature_grad = neural.adam_gradients(self.nature_opt, self.nature)
        # Actions are squashed and clipped against the float64 bounds the
        # environment checks them with; the update squashes in ``dtype``.
        self.p_max = np.column_stack((env_cfg.p_max_offload_w, env_cfg.p_max_local_w))
        self.half = (0.5 * self.p_max).astype(dtype)
        # Critic input rows of each agent's own action: after the agent's
        # observation in ddpg, after all observations in user order otherwise.
        first = np.full(n, obs_dim) if algo == "ddpg" else n * obs_dim + 2 * np.arange(n)
        self.own_rows = (np.arange(n)[:, None], first[:, None] + np.arange(2))
        self.work = _UpdateBuffers(algo, self.half, obs_dim, tc.batch_size, tc.hidden)
        self.agents = [DdpgAgent(self.actor.agent(m), self.actor_target.agent(m),
                                 self.critic.agent(m), self.critic_target.agent(m))
                       for m in range(n)]
        self.natures = (None if self.nature is None
                        else [NatureNet(self.nature.agent(m)) for m in range(n)])
        self.buffer = ReplayBuffer(tc.buffer_capacity, n, obs_dim, dtype=dtype)
        self.sigma = tc.explore_sigma0
        self.total_steps = 0
        self.episode = 0

    def update(self, rng_sample: np.random.Generator) -> UpdateStats:
        """One update on a fresh sample; raises TrainingDiverged when a
        loss, objective or adversary mean comes out non-finite."""
        stats = td_update(self, self.buffer.sample_arrays(self.tc.batch_size, rng_sample))
        diagnostics = (("critic", "loss", stats.critic_loss),
                       ("actor", "objective", stats.actor_objective),
                       ("nature", "mean output", stats.nature_mean))
        # The sum is finite only if every term is; only a sum that is not
        # (or overflows) scans the roles for the agent to name.
        if not math.isfinite(sum(sum(v.tolist()) for _, _, v in diagnostics if v is not None)):
            for role, what, values in diagnostics:
                if values is not None:
                    self._require_finite(role, what, np.isfinite(values))
        return stats

    def check_params(self) -> None:
        """Raise TrainingDiverged naming the first agent and role whose
        parameters hold a non-finite value."""
        for role in self.ROLES:
            net = getattr(self, role)
            if net is not None:
                self._require_finite(role, "parameters", np.isfinite(net.flat).all(axis=1))

    def _require_finite(self, role: str, what: str, finite: np.ndarray) -> None:
        """``finite`` holds one flag per agent."""
        if not finite.all():
            raise TrainingDiverged(f"episode {self.episode}: agent {int(np.argmin(finite))} "
                                   f"{role}: {what} not finite")


def train_episode(env: MecEnv, trainer: Trainer, rng_explore: np.random.Generator,
                  rng_sample: np.random.Generator) -> EpisodeStats:
    """One episode of interaction: act, step, store, and (after warmup)
    update; exploration noise decays at the episode boundary. Every
    update's diagnostics are checked, and, if the episode updated, the
    parameters at its end.

    The episode's exploration noise is one (T, M, 2) draw at its start,
    scaled by ``sigma * p_max``. ``Generator.standard_normal`` fills in C
    order and carries nothing between calls, so slot t's row holds the
    values T per-slot (M, 2) draws would give, in users' order.
    """
    tc = trainer.tc
    n, steps = env.cfg.n_users, env.cfg.episode_len
    env.reset()
    obs = env.obs_vectors()
    true_sums = [0.0] * n
    perceived_sums = [0.0] * n
    sigma = trainer.sigma
    if sigma > 0.0:
        noise = rng_explore.standard_normal((steps, n, 2))
        noise *= sigma * trainer.p_max
    else:
        noise = [None] * steps
    updated = False
    for step_noise in noise:
        acts = act(trainer.actor, trainer.p_max, obs, step_noise)
        result: StepResult = env.step(list(map(Action._make, acts.tolist())))
        next_obs = env.obs_vectors()
        trainer.buffer.push(obs, acts, result.perceived_rewards, next_obs)
        true_sums = [s + r for s, r in zip(true_sums, result.true_rewards)]
        perceived_sums = [s + r for s, r in zip(perceived_sums, result.perceived_rewards)]
        trainer.total_steps += 1
        if trainer.total_steps > tc.warmup_steps and len(trainer.buffer) >= tc.batch_size:
            for _ in range(tc.updates_per_step):
                trainer.update(rng_sample)
                updated = True
        obs = next_obs
    if updated:
        trainer.check_params()
    trainer.episode += 1
    trainer.sigma = max(trainer.sigma * tc.explore_decay, tc.explore_sigma_floor)
    return EpisodeStats(tuple(true_sums), tuple(perceived_sums), sigma)
