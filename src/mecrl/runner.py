"""Seeded run execution, aggregation, CSV emission and evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neural, seeds
from .agents import EpisodeStats, Trainer, act, train_episode
from .config import ExperimentConfig
from .env import Action, MecEnv
from .errors import ConfigError


@dataclass
class AggregateSeries:
    """Per-episode mean and population standard deviation across runs."""

    mean: list[float]
    std: list[float]


def run_training(cfg: ExperimentConfig, run_index: int):
    """Execute one seeded run; returns (per-episode stats, trainer).

    All randomness derives from ``(cfg.base_seed, run_index)`` through the
    purpose-split streams, so repeated calls are bit-identical and the
    environment draws match across algorithms.
    """
    env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, run_index))
    rng_explore = seeds.stream(cfg.base_seed, run_index, "exploration")
    rng_sample = seeds.stream(cfg.base_seed, run_index, "buffer_sampling")
    # The trainer's guard names the network a non-finite value reaches;
    # numpy's floating-point warnings on the way there would only add
    # unattributed lines to the one-line error.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        trainer = Trainer(cfg.env, cfg.trainer, cfg.algo,
                          seeds.stream(cfg.base_seed, run_index, "net_init"))
        stats = [train_episode(env, trainer, rng_explore, rng_sample)
                 for _ in range(cfg.episodes)]
    return stats, trainer


def aggregate_runs(series: list[list[EpisodeStats]]) -> AggregateSeries:
    """Mean and population std of the per-run mean true return.

    fsum-based so the result is exactly invariant under run permutation.
    """
    if not series:
        raise ValueError("no run series to aggregate")
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise ValueError(f"run series differ in length: {[len(s) for s in series]}")
    n = len(series)
    means, stds = [], []
    for e in range(length):
        vals = [s[e].mean_true for s in series]
        mu = math.fsum(vals) / n
        var = math.fsum((v - mu) ** 2 for v in vals) / n
        means.append(mu)
        stds.append(math.sqrt(var))
    return AggregateSeries(means, stds)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(agg: AggregateSeries, series: list[list[EpisodeStats]], path) -> None:
    """Aggregate curve plus the per-run mean true returns, one row per episode."""
    lines = ["episode,mean_return,std_return," + ",".join(f"run{k}" for k in range(len(series)))]
    for e in range(len(agg.mean)):
        row = [str(e), _fmt(agg.mean[e]), _fmt(agg.std[e])]
        row += [_fmt(s[e].mean_true) for s in series]
        lines.append(",".join(row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def write_run_csv(stats: list[EpisodeStats], path) -> None:
    n = len(stats[0].true_returns)
    header = "episode,mean_return,perceived_mean_return,sigma," + ",".join(
        f"true_user{m}" for m in range(n))
    lines = [header]
    for e, r in enumerate(stats):
        row = [str(e), _fmt(r.mean_true),
               _fmt(math.fsum(r.perceived_returns) / n), _fmt(r.sigma)]
        row += [_fmt(v) for v in r.true_returns]
        lines.append(",".join(row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def read_aggregate_csv(path) -> AggregateSeries:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["episode", "mean_return", "std_return"]:
        raise ValueError(f"{path}: not an aggregate CSV (header {lines[0]!r})")
    means, stds = [], []
    for line in lines[1:]:
        parts = line.split(",")
        means.append(float(parts[1]))
        stds.append(float(parts[2]))
    return AggregateSeries(means, stds)


_CHECKPOINT_ROLES = ("actor", "actor_target", "critic", "critic_target")


def save_checkpoints(trainer: Trainer, algo: str, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for m, ag in enumerate(trainer.agents):
        for role in _CHECKPOINT_ROLES:
            neural.save_params(getattr(ag, role), out / f"{algo}_{m}_{role}.json")
        if trainer.natures is not None:
            neural.save_params(trainer.natures[m].net, out / f"{algo}_{m}_nature.json")


@dataclass
class EvalSummary:
    n_episodes: int
    mean_true_return: float
    std_true_return: float
    per_user_mean: tuple[float, ...]
    episode_returns: tuple[float, ...]


def evaluate(cfg: ExperimentConfig, checkpoint_dir, n_episodes: int) -> EvalSummary:
    """Roll the saved deterministic policies with zero exploration noise.

    Reported returns are the true (unperturbed) rewards even when the
    configured reward noise is nonzero. Streams derive from
    ``(base_seed, run_index = n_runs)``, the first index unused by training.
    """
    if n_episodes < 1:
        raise ConfigError(f"n_episodes must be >= 1, got {n_episodes}")
    ckpt = Path(checkpoint_dir)
    n = cfg.env.n_users
    obs_dim = cfg.env.obs_dim
    actors = []
    for m in range(n):
        path = ckpt / f"{cfg.algo}_{m}_actor.json"
        if not path.exists():
            raise FileNotFoundError(f"missing checkpoint {path}")
        p = neural.load_params(path)
        if p.in_dim != obs_dim or p.out_dim != 2:
            raise ConfigError(
                f"{path}: checkpoint shape ({p.in_dim} -> {p.out_dim}) does not match "
                f"config ({obs_dim} -> 2)"
            )
        actors.append(p)
    actor = neural.stack_params(actors)
    p_max = np.column_stack((cfg.env.p_max_offload_w, cfg.env.p_max_local_w))

    env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, cfg.n_runs))
    episode_returns = []
    per_user = np.zeros(n)
    for _ in range(n_episodes):
        env.reset()
        obs = env.obs_vectors()
        sums = np.zeros(n)
        for _ in range(cfg.env.episode_len):
            acts = act(actor, p_max, obs, 0.0, None)
            result = env.step([Action(p_off, p_loc) for p_off, p_loc in acts.tolist()])
            sums += result.true_rewards
            obs = env.obs_vectors()
        episode_returns.append(math.fsum(sums) / n)
        per_user += sums
    mu = math.fsum(episode_returns) / n_episodes
    var = math.fsum((v - mu) ** 2 for v in episode_returns) / n_episodes
    return EvalSummary(
        n_episodes=n_episodes,
        mean_true_return=mu,
        std_true_return=math.sqrt(var),
        per_user_mean=tuple(per_user / n_episodes),
        episode_returns=tuple(episode_returns),
    )
