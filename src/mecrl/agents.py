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
from .neural import (AdamState, Gradients, MlpParams, adam_step, backward,
                     eval_vec, forward, soft_update)

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
    """Stacked sample: axes are (batch, user, feature)."""

    obs: np.ndarray        # (k, M, obs_dim)
    acts: np.ndarray       # (k, M, 2)
    rewards: np.ndarray    # (k, M)
    next_obs: np.ndarray   # (k, M, obs_dim)


class ReplayBuffer:
    """Fixed-capacity FIFO ring sampled uniformly with replacement; pushed
    values are stored in ``dtype``."""

    def __init__(self, capacity: int, n_users: int, obs_dim: int, act_dim: int = 2,
                 dtype=np.float32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._obs = np.empty((capacity, n_users, obs_dim), dtype)
        self._acts = np.empty((capacity, n_users, act_dim), dtype)
        self._rewards = np.empty((capacity, n_users), dtype)
        self._next_obs = np.empty((capacity, n_users, obs_dim), dtype)
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
        idx = rng.integers(0, self._size, size=k)
        return Batch(self._obs[idx], self._acts[idx], self._rewards[idx], self._next_obs[idx])


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


def _neg(g: Gradients) -> Gradients:
    np.negative(g.flat, out=g.flat)
    return g


def act(actor: MlpParams, p_max: np.ndarray, obs: np.ndarray, sigma: float,
        rng: np.random.Generator | None) -> np.ndarray:
    """Deterministic policy outputs of all users plus clipped Gaussian
    exploration noise.

    ``actor`` is the stacked actor, ``p_max`` and the result are (M, 2),
    ``obs`` is (M, obs_dim). The actor runs in its own dtype; squashing,
    noise and clipping run in ``p_max``'s, so float64 bounds give actions
    that lie within them exactly. The (M, 2) noise draw consumes the
    stream in user order and gives the same values as one
    ``rng.normal(0, sigma * p_max[m])`` call per user would.
    """
    a = _squash(eval_vec(actor, obs), 0.5 * p_max)
    if sigma > 0.0:
        a += (sigma * p_max) * rng.standard_normal(p_max.shape)
    # np.clip's per-call overhead is about twice that of these two ufuncs.
    np.maximum(a, 0.0, out=a)
    return np.minimum(a, p_max, out=a)


def td_targets(critic_target: MlpParams, x_next, rewards: np.ndarray,
               gamma: float) -> np.ndarray:
    """Bootstrapped regression targets of all agents:
    r + gamma * Q_target(s', a'), shape (M, k, 1). ``x_next`` ends in a
    ones column (see ``neural.input_buffer``)."""
    return rewards + gamma * forward(critic_target, x_next, ones_column=True)[0]


def _nature_step(trainer: "Trainer", local: np.ndarray, stored: np.ndarray):
    """Adversary estimates clamped to the uncertainty band around the
    stored rewards, then one descent step on the mean estimate.

    Returns the clamped rewards (M, k, 1) and the mean estimate per agent.
    The adversaries read nothing the agents' step changes, so they step
    first and their activations are released before the agents' step.
    """
    k = stored.shape[1]
    r_hat, cache = forward(trainer.nature, local, ones_column=True)
    band = 2.0 * trainer.noise_level
    r_tilde = np.clip(r_hat, stored - band, stored + band)
    mean = r_hat.mean(axis=(1, 2))
    g, _ = backward(trainer.nature, cache, np.full(r_hat.shape, 1.0 / k, r_hat.dtype),
                    out=trainer.nature_grad, need_dx=False)
    adam_step(trainer.nature_opt, trainer.nature, g)
    return r_tilde, mean


def _critic_step(trainer: "Trainer", x, y: np.ndarray) -> np.ndarray:
    """One descent step on every critic's mean squared Bellman error;
    returns the per-agent loss before the step."""
    k = y.shape[1]
    q, cache = forward(trainer.critic, x, ones_column=True)
    err = np.subtract(q, y, out=q)
    loss = np.einsum("mki,mki->m", err, err) / k
    err *= 2.0 / k
    g, _ = backward(trainer.critic, cache, err, out=trainer.critic_grad, need_dx=False)
    adam_step(trainer.critic_opt, trainer.critic, g)
    return loss


def _actor_step(trainer: "Trainer", work: "_UpdateBuffers", acts: np.ndarray) -> np.ndarray:
    """One ascent step of every actor on mean Q(s, a) with its own action
    columns set to its policy's output and the other users' columns taken
    from the batch; returns the per-agent objective before the step.

    Only the input gradient at the agent's own two action columns is
    needed, so the critic pass is written out here: the pre-activation is
    the batch input (with its ones column) times the critic's first layer,
    plus a rank-2 correction through the agent's own action rows, and no
    parameter gradient of the critic is formed. ``acts`` are the batch
    actions, (M, k, 2).
    """
    critic, k = trainer.critic, work.k
    u, cache = forward(trainer.actor, work.obs, ones_column=True)
    t = np.tanh(u)
    half = trainer.half[:, None, :]
    w_own = critic.l1[trainer.own_rows]                  # (M, 2, hidden)
    z = np.matmul(work.x, critic.l1, out=work.hidden[0])
    z += np.matmul((t + 1.0) * half - acts, w_own, out=work.hidden[1])
    np.maximum(z, 0.0, out=z)
    q = z @ critic.w2t
    q += critic.b2[:, None, :]
    objective = q.mean(axis=(1, 2))
    dz = np.multiply(z > 0.0, critic.w2 * (1.0 / k), out=z)
    du = dz @ w_own.swapaxes(1, 2)
    du *= (1.0 - t * t) * half
    g, _ = backward(trainer.actor, cache, du, out=trainer.actor_grad, need_dx=False)
    adam_step(trainer.actor_opt, trainer.actor, _neg(g))
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
    ``hidden`` holds the actor step's two (M, k, hidden) activations.
    """

    def __init__(self, algo: str, n: int, obs_dim: int, k: int, hidden: int, dtype):
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
        self.hidden = np.empty((2, n, k, hidden), dtype)


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
        trainer.work = _UpdateBuffers(trainer.algo, n, d, k, tc.hidden, trainer.critic.flat.dtype)
    work = trainer.work
    obs = batch.obs.transpose(1, 0, 2)                   # (M, k, obs_dim)
    acts = batch.acts.transpose(1, 0, 2)                 # (M, k, 2)
    next_obs = batch.next_obs.transpose(1, 0, 2)
    rewards = batch.rewards.T[:, :, None]                # (M, k, 1)
    work.obs[..., :-1] = obs
    work.next_obs[..., :-1] = next_obs
    a_next = _squash(forward(trainer.actor_target, work.next_obs, ones_column=True)[0],
                     trainer.half[:, None, :])           # (M, k, 2)
    if work.local is not None:
        work.local[..., :d] = obs
        work.local[..., d:-1] = acts
    if trainer.algo == "ddpg":
        work.x_next[..., :d] = next_obs
        work.x_next[..., d:-1] = a_next
    else:
        work.x[:, :n * d] = batch.obs.reshape(k, n * d)
        work.x[:, n * d:-1] = batch.acts.reshape(k, 2 * n)
        work.x_next[:, :n * d] = batch.next_obs.reshape(k, n * d)
        work.x_next[:, n * d:-1] = a_next.transpose(1, 0, 2).reshape(k, 2 * n)
    nature_mean = None
    if trainer.nature is not None:
        rewards, nature_mean = _nature_step(trainer, work.local, rewards)
    y = td_targets(trainer.critic_target, work.x_next, rewards, tc.gamma)
    critic_loss = _critic_step(trainer, work.x, y)
    actor_objective = _actor_step(trainer, work, acts)
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
        self.actor_grad = Gradients(obs_dim, 2, tc.hidden, agents=n, dtype=dtype)
        self.critic_grad = Gradients(critic_in, 1, tc.hidden, agents=n, dtype=dtype)
        self.nature = self.nature_opt = self.nature_grad = None
        if algo == "rmaddpg":
            self.nature = neural.stack_params(
                [neural.init_mlp(obs_dim + 2, 1, rng_init, tc.hidden) for _ in range(n)], dtype)
            self.nature_opt = AdamState(lr=tc.lr_nature)
            self.nature_grad = Gradients(obs_dim + 2, 1, tc.hidden, agents=n, dtype=dtype)
        # Actions are squashed and clipped against the float64 bounds the
        # environment checks them with; the update squashes in ``dtype``.
        self.p_max = np.column_stack((env_cfg.p_max_offload_w, env_cfg.p_max_local_w))
        self.half = (0.5 * self.p_max).astype(dtype)
        # Critic input rows of each agent's own action: after the agent's
        # observation in ddpg, after all observations in user order otherwise.
        first = np.full(n, obs_dim) if algo == "ddpg" else n * obs_dim + 2 * np.arange(n)
        self.own_rows = (np.arange(n)[:, None], first[:, None] + np.arange(2))
        self.work = _UpdateBuffers(algo, n, obs_dim, tc.batch_size, tc.hidden, dtype)
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
        for role, what, values in (("critic", "loss", stats.critic_loss),
                                   ("actor", "objective", stats.actor_objective),
                                   ("nature", "mean output", stats.nature_mean)):
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
    parameters at its end."""
    tc = trainer.tc
    n = env.cfg.n_users
    env.reset()
    obs = env.obs_vectors()
    true_sums = np.zeros(n)
    perceived_sums = np.zeros(n)
    sigma = trainer.sigma
    updated = False
    for _ in range(env.cfg.episode_len):
        acts = act(trainer.actor, trainer.p_max, obs, sigma, rng_explore)
        result: StepResult = env.step([Action(p_off, p_loc) for p_off, p_loc in acts.tolist()])
        next_obs = env.obs_vectors()
        trainer.buffer.push(obs, acts, result.perceived_rewards, next_obs)
        true_sums += result.true_rewards
        perceived_sums += result.perceived_rewards
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
    return EpisodeStats(tuple(float(v) for v in true_sums),
                        tuple(float(v) for v in perceived_sums), sigma)
