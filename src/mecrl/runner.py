"""Seeded run execution, aggregation, CSV emission and evaluation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cmatrix, neural, seeds
from .agents import EpisodeStats, Trainer, TrainingDiverged, act, train_episode
from .config import ExperimentConfig
from .env import RESET_BUDGET_BYTES, ActionError, MecEnv, roll_lockstep
from .errors import ConfigError
from .files import write_atomic


@dataclass
class AggregateSeries:
    """Per-episode mean and population standard deviation across runs."""

    mean: list[float]
    std: list[float]


def _share(fn, items, conn) -> None:
    """A worker's share: ``fn`` over ``items`` in order, each result sent
    back, or the error of the first failing item and stop."""
    for k in items:
        try:
            conn.send(fn(k))
        except Exception as exc:
            conn.send(exc)
            return


def fan_out(fn, n: int, workers: int | None, doing) -> list:
    """``[fn(k) for k in range(n)]`` over ``W = min(n, workers)`` processes.

    ``workers`` None means the CPUs this process may run on. This process
    calls ``fn`` on items 0, W, 2W, ... itself and ``W - 1`` forked ones
    take the rest, each process its items in increasing order. Results are
    taken in item order, so the error raised is the one of the earliest
    failing item, as in the serial loop. No worker outlives the call; one
    that dies raises ``ChildProcessError``, naming the item ``doing(k)``.
    """
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    workers = min(workers, n)
    if workers <= 1:
        return [fn(k) for k in range(n)]
    import multiprocessing

    # Forked, not spawned: a worker starts as a copy of this process, so it
    # does not import numpy and mecrl again, a large share of a short call.
    # mecrl starts no threads, and OpenBLAS stops its own around a fork.
    ctx = multiprocessing.get_context("fork")
    shares = []
    for j in range(1, workers):
        conn, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_share, args=(fn, range(j, n, workers), send))
        proc.start()
        send.close()
        shares.append((proc, conn))
    results = []
    try:
        for k in range(n):
            if k % workers == 0:
                results.append(fn(k))
                continue
            proc, conn = shares[k % workers - 1]
            try:
                result = conn.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(f"the process {doing(k)} exited "
                                        f"with code {proc.exitcode}") from None
            if isinstance(result, Exception):
                raise result
            results.append(result)
        for proc, _ in shares:
            proc.join()
    finally:
        for proc, conn in shares:
            proc.terminate()  # only a worker still busy; a joined one is not signalled
            proc.join()
            conn.close()
    return results


def _channel_failed(where: str, exc: cmatrix.MatrixError) -> ValueError:
    """The error of the episode ``where`` whose draw failed zero-forcing."""
    slot, reason = exc.args
    return ValueError(f"{where}, slot {slot}: zero-forcing channel failed: {reason}")


def run_training(cfg: ExperimentConfig, run_index: int):
    """Execute one seeded run; returns (per-episode stats, trainer).

    All randomness derives from ``(cfg.base_seed, run_index)`` through the
    purpose-split streams, so repeated calls are bit-identical and the
    environment draws match across algorithms. A slot that fails
    zero-forcing ends the run with an error naming run, episode and slot,
    and so does the trainer's guard, with its agent and network. So does an
    episode whose true returns, or their sum, are not finite.
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
        stats = []
        try:
            for episode in range(cfg.episodes):
                stats.append(train_episode(env, trainer, rng_explore, rng_sample))
                returns = stats[-1].true_returns
                # A sum of floats overflows to inf where mean_true's fsum raises.
                if not math.isfinite(sum(returns)):
                    raise ValueError(f"training run {run_index}, episode {episode}: true returns "
                                     f"{returns} do not sum to a finite value; the rewards "
                                     f"overflow float64")
        except cmatrix.MatrixError as exc:
            # Only a reset draws channels; trainer.episode is the one it drew.
            raise _channel_failed(f"training run {run_index}, episode {trainer.episode}",
                                  exc) from None
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"training run {run_index}, {exc}") from None
    return stats, trainer


def typical_reward_magnitude(cfg: ExperimentConfig, episodes: int = 5) -> float:
    """Mean absolute true reward per user and slot of ``episodes`` episodes
    under a uniform random policy, on the eval env streams ``(base_seed,
    n_runs)`` with actions from ``default_rng(base_seed)``. Twice it is
    ``mecrl grid``'s ``probe`` reward-noise level."""
    env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, cfg.n_runs))
    rng = np.random.default_rng(cfg.base_seed)
    mags = []
    for e in range(episodes):
        try:
            env.reset()
        except cmatrix.MatrixError as exc:
            raise _channel_failed(f"probe episode {e}", exc) from None
        for _ in range(cfg.env.episode_len):
            acts = [(float(rng.uniform(0, cfg.env.p_max_offload_w[m])),
                     float(rng.uniform(0, cfg.env.p_max_local_w[m])))
                    for m in range(cfg.env.n_users)]
            mags.extend(abs(r) for r in env.step(acts).true_rewards)
    with np.errstate(over="ignore"):  # the caller checks the level is finite
        return float(np.mean(mags))


def _mean_std(values: list[float], what: str) -> tuple[float, float]:
    """fsum-based mean and population std of ``values``; a ValueError
    naming ``what`` if either overflows float64."""
    n = len(values)
    try:
        mu = math.fsum(values) / n
    except OverflowError:
        raise ValueError(f"the mean of {what} overflows float64") from None
    try:
        return mu, math.sqrt(math.fsum((v - mu) ** 2 for v in values) / n)
    except OverflowError:
        raise ValueError(f"the standard deviation of {what} overflows float64") from None


def aggregate_runs(series: list[list[EpisodeStats]]) -> AggregateSeries:
    """Mean and population std of the per-run mean true return.

    fsum-based so the result is exactly invariant under run permutation.
    A mean or std that overflows float64 raises a ValueError naming the
    episode.
    """
    if not series:
        raise ValueError("no run series to aggregate")
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise ValueError(f"run series differ in length: {[len(s) for s in series]}")
    means, stds = [], []
    for e in range(length):
        mu, std = _mean_std([s[e].mean_true for s in series],
                            f"episode {e}'s mean true returns over the runs")
        means.append(mu)
        stds.append(std)
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
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


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
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_aggregate_csv(path) -> AggregateSeries:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["episode", "mean_return", "std_return"]:
        raise ValueError(f"{path}: not an aggregate CSV (header {lines[0]!r})")
    means, stds = [], []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) < 3:
            raise ValueError(f"{path}: line {n}: expected at least 3 cells, got {len(parts)}")
        try:
            mean, std = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise ValueError(f"{path}: line {n}: mean and std must be finite, "
                             f"got {parts[1]!r} and {parts[2]!r}")
        means.append(mean)
        stds.append(std)
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
    The episodes are drawn in order with :meth:`MecEnv.draws`, in passes
    of as many episodes as fit in one reset's memory budget, and each pass
    is rolled by :func:`env.roll_lockstep`, one policy evaluation per slot
    for all its episodes. A failure raises the error of the earliest
    failing episode, after the episodes before it in its pass have rolled,
    as a loop over the episodes would; a bad action's error names its
    episode and slot. A mean or std that overflows float64 raises a
    ValueError.
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
        try:
            p = neural.load_params(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if p.in_dim != obs_dim or p.out_dim != 2:
            raise ConfigError(
                f"{path}: checkpoint shape ({p.in_dim} -> {p.out_dim}) does not match "
                f"config ({obs_dim} -> 2)"
            )
        actors.append(p)
    actor = neural.stack_params(actors)
    p_max = np.column_stack((cfg.env.p_max_offload_w, cfg.env.p_max_local_w))

    env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, cfg.n_runs))
    per_pass = max(1, int(RESET_BUDGET_BYTES
                          // (cfg.env.reset_slot_bytes() * cfg.env.episode_len)))

    def rolled(first: int) -> list:
        """Per-user sums of the pass from episode ``first``, whose draws go
        on return. A failing draw raises after the episodes before it in
        the pass have rolled."""
        episodes, failed = [], None
        try:
            for episode in env.draws(min(per_pass, n_episodes - first)):
                episodes.append(episode)
        except cmatrix.MatrixError as exc:
            failed = _channel_failed(f"evaluation episode {first + len(episodes)}", exc)
        except Exception as exc:
            failed = exc
        try:
            sums = roll_lockstep(cfg.env, episodes,
                                 lambda obs: act(actor, p_max, obs)) if episodes else []
        except ActionError as exc:
            raise ActionError(f"evaluation episode {first + exc.episode}, slot {exc.slot}: "
                              f"{exc}") from None
        if failed is not None:
            raise failed
        return sums

    sums = [s for first in range(0, n_episodes, per_pass) for s in rolled(first)]
    episode_returns = [math.fsum(s) / n for s in sums]
    mu, std = _mean_std(episode_returns, "the evaluation episodes' true returns")
    per_user = sum(sums, np.zeros(n))
    return EvalSummary(
        n_episodes=n_episodes,
        mean_true_return=mu,
        std_true_return=std,
        per_user_mean=tuple(per_user / n_episodes),
        episode_returns=tuple(episode_returns),
    )
