import json
import math
import os

import numpy as np
import pytest

from mecrl import neural, phy, runner, seeds
from mecrl.agents import Trainer, TrainerConfig, act, train_episode
from mecrl.cli import _train_tree
from mecrl.config import config_from_dict, load_config
from mecrl.env import Action, EnvConfig, MecEnv


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_channel(rng, n, m, gain=1.0):
    """Rayleigh channel: i.i.d. circularly-symmetric complex Gaussian."""
    scale = np.sqrt(gain / 2.0)
    return scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


def with_ones(p, x):
    """``x``, a batch of ``p``'s inputs or one batch per agent, as
    ``neural.forward`` takes it: in ``p``'s dtype, with its ones column."""
    x = np.asarray(x)
    xb = neural.input_buffer(x.shape[:-1], x.shape[-1], p.flat.dtype)
    xb[..., :-1] = x
    return xb


def gradients(p):
    """A zero gradient buffer for ``neural.backward`` to fill, shaped and
    typed like ``p``."""
    return neural.Gradients(p.in_dim, p.out_dim, p.hidden, agents=p.agents, dtype=p.flat.dtype)


def edit_slot(monkeypatch, episode, slot, edit, pid=None):
    """Call ``edit`` on the (N, M) channel of ``slot`` of the ``episode``-th
    channel drawn from now on (0 is the next), to change it in place.
    Episodes are counted over every ``phy.evolve_channel`` call, in process
    ``pid`` alone if given."""
    real, drawn = phy.evolve_channel, [0]

    def evolve_channel(state, rng, steps):
        trace = real(state, rng, steps)
        if pid is None or os.getpid() == pid:
            stack = trace.reshape((-1,) + trace.shape[-3:])
            i = episode - drawn[0]
            if 0 <= i < len(stack):
                edit(stack[i, slot])
            drawn[0] += len(stack)
        return trace

    monkeypatch.setattr(phy, "evolve_channel", evolve_channel)


def singular_slot(monkeypatch, episode, slot, pid=None):
    """Make ``slot`` of the ``episode``-th channel drawn from now on rank
    deficient: its second user's column copies its first's (see
    :func:`edit_slot`)."""

    def copy_column(h):
        h[:, 1] = h[:, 0]

    edit_slot(monkeypatch, episode, slot, copy_column, pid)


def bad_actions(monkeypatch, episode_len, failures, value=np.nan):
    """Make ``runner.act`` return ``value`` as power ``k`` (0 offload, 1
    local) of ``user`` in ``episode`` at ``slot``, for each ``(episode,
    slot, user, k)`` of ``failures``. Episodes count over the whole
    evaluation, a pass's rows in its episodes' order, and every pass but
    the last must roll all its slots. Returns the list that each call's
    episode count is appended to."""
    real, rolled, first = runner.act, [], [0]

    def act(actor, p_max, obs, noise=None):
        a = real(actor, p_max, obs, noise)
        slot = len(rolled) % episode_len
        if slot == 0 and rolled:
            first[0] += rolled[-episode_len]  # the episodes of the pass before
        rolled.append(len(obs))
        for episode, at, user, k in failures:
            if at == slot and 0 <= episode - first[0] < len(a):
                a[episode - first[0], user, k] = value
        return a

    monkeypatch.setattr(runner, "act", act)
    return rolled


def filled_trainer(algo, seed=0, n_users=2, dtype=np.float32, **tc_overrides):
    """Trainer plus a buffer filled from real environment interaction."""
    env_cfg = EnvConfig(n_users=n_users, noise_level=tc_overrides.pop("noise_level", 5.0))
    tc = TrainerConfig(warmup_steps=10**9, **tc_overrides)
    env = MecEnv(env_cfg, **seeds.env_streams(seed, 0))
    trainer = Trainer(env_cfg, tc, algo, seeds.stream(seed, 0, "net_init"), dtype=dtype)
    rx = seeds.stream(seed, 0, "exploration")
    rs = seeds.stream(seed, 0, "buffer_sampling")
    for _ in range(2):
        train_episode(env, trainer, rx, rs)
    return trainer, rs


def tiny_config(**over):
    doc = {
        "env": {"n_users": 2, "episode_len": 8},
        "trainer": {"warmup_steps": 6, "batch_size": 4, "buffer_capacity": 50},
        "episodes": 3,
        "n_runs": 2,
        "base_seed": 13,
    }
    doc.update(over)
    return config_from_dict(doc)


def write_cfg(tmp_path, **over):
    """A tiny config file whose tree goes to ``tmp_path / "out"``."""
    doc = {
        "env": {"n_users": 2, "episode_len": 6},
        "trainer": {"warmup_steps": 5, "batch_size": 4, "buffer_capacity": 50},
        "episodes": 2,
        "n_runs": 2,
        "base_seed": 3,
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def trained_tree(tmp_path, algo="ddpg"):
    """Config path and checkpoint directory of a trained tiny tree."""
    cfg_path = write_cfg(tmp_path, algo=algo, env={
        "n_users": 2, "episode_len": 6, "noise_level": 0.5})
    _train_tree(load_config(cfg_path), workers=1)
    return cfg_path, tmp_path / "out" / "checkpoints"


def reference_rollout(cfg, ckpt, n_episodes, run_index=None):
    """The serial eval rollout, one episode and one act call on (M, d) at a
    time, folded as evaluate folds it, on the env streams of
    ``(base_seed, run_index)``; evaluate's own index, ``n_runs``, if None."""
    n = cfg.env.n_users
    actor = neural.stack_params([neural.load_params(ckpt / f"{cfg.algo}_{m}_actor.json")
                                 for m in range(n)])
    p_max = np.column_stack((cfg.env.p_max_offload_w, cfg.env.p_max_local_w))
    run_index = cfg.n_runs if run_index is None else run_index
    env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, run_index))
    returns, per_user = [], np.zeros(n)
    for _ in range(n_episodes):
        env.reset()
        sums = np.zeros(n)
        for _ in range(cfg.env.episode_len):
            acts = act(actor, p_max, env.obs_vectors())
            sums += env.step([Action(*a) for a in acts.tolist()]).true_rewards
        returns.append(math.fsum(sums) / n)
        per_user += sums
    mu = math.fsum(returns) / n_episodes
    std = math.sqrt(math.fsum((v - mu) ** 2 for v in returns) / n_episodes)
    return runner.EvalSummary(n_episodes, mu, std, tuple(per_user / n_episodes),
                              tuple(returns))
