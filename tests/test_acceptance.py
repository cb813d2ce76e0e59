"""Acceptance criteria: the determinism contract, checked at byte level.

Fast criteria, run with every tier-1 pass:

1. ``maddpg`` equals ``ddpg`` at one user.
2. ``rmaddpg`` equals ``maddpg`` at zero reward noise.
3. Reruns of one config write byte-identical trees.
4. Training trees are byte-identical at 1, 2 and 3 usable CPUs, and at
   one CPU no process is started.
5. Eval rolls its episodes in lockstep, pass by pass, to the summary of
   one episode at a time, at reset budgets that hold 1, 2 or all of them,
   and ``mecrl eval`` prints the same lines at 1, 2 and 3 usable CPUs.
6. The env draws do not depend on the algo: for one ``(base_seed, run)``,
   every episode's trace (ZF norms, channel observations, arrivals and
   reward noise) is the same under ``ddpg``, ``maddpg`` and ``rmaddpg``.
7. ``eval`` draws from stream index ``n_runs``: its summary equals a
   rollout on ``env_streams(base_seed, n_runs)`` and differs from one on
   index 0, the first training run's.
8. Once every adversary output lies below ``stored - 2λ``, one ``rmaddpg``
   update equals, byte for byte, a ``maddpg`` update on ``rewards - 2λ``
   from the same state: a saturated adversary only shifts the rewards.

The paper-claim criteria (``ddpg``, ``maddpg`` and ``rmaddpg`` compared on
paired seeds with and without reward noise, behind an opt-in marker) are
not written yet.
"""

import copy
import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from mecrl import runner, seeds
from mecrl.agents import Trainer, TrainerConfig, td_update, train_episode
from mecrl.neural import eval_vec
from mecrl.cli import _train_tree, main
from mecrl.config import load_config
from mecrl.env import EnvConfig, MecEnv
from mecrl.runner import evaluate, load_policy

from conftest import (filled_trainer, reference_rollout, tiny_config, trained_tree,
                      write_cfg)


def tree_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def same_tree_bytes(a, b, context):
    """Every file of two trees is byte-identical, ``out_dir`` aside."""
    files = tree_files(a)
    assert files == tree_files(b), context
    for rel in files:
        x, y = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel.name == "resolved_config.json":
            x, y = ({**json.loads(v), "out_dir": None} for v in (x, y))
        assert x == y, (context, rel)
    return files


def test_c1_single_agent_maddpg_equals_ddpg():
    # Identical seeds and one user: the centralized concatenation is
    # the agent's own slice, so whole runs coincide bit for bit.
    results = {}
    for algo in ("ddpg", "maddpg"):
        env_cfg = EnvConfig(n_users=1)
        tc = TrainerConfig(warmup_steps=50, batch_size=32)
        env = MecEnv(env_cfg, **seeds.env_streams(5, 0))
        trainer = Trainer(env_cfg, tc, algo, seeds.stream(5, 0, "net_init"))
        rx = seeds.stream(5, 0, "exploration")
        rs = seeds.stream(5, 0, "buffer_sampling")
        stats = [train_episode(env, trainer, rx, rs) for _ in range(3)]
        results[algo] = (stats, trainer.agents[0])
    stats_d, agent_d = results["ddpg"]
    stats_m, agent_m = results["maddpg"]
    assert stats_d == stats_m
    assert np.array_equal(agent_d.actor.flat, agent_m.actor.flat)
    assert np.array_equal(agent_d.critic.flat, agent_m.critic.flat)


def test_c2_rmaddpg_with_zero_noise_band_matches_maddpg():
    # Band width zero clamps the adversary's estimate to the stored
    # reward exactly, reducing the robust TD step to the centralized one.
    trainers = {}
    for algo in ("maddpg", "rmaddpg"):
        trainer, rs = filled_trainer(algo, seed=7, noise_level=0.0, tau_soft=0.0, gamma=0.9)
        batch = trainer.buffer.sample_arrays(32, rs)
        td_update(trainer, batch)
        trainers[algo] = trainer
    for ag_m, ag_r in zip(trainers["maddpg"].agents, trainers["rmaddpg"].agents):
        assert np.array_equal(ag_m.critic.flat, ag_r.critic.flat)
        assert np.array_equal(ag_m.actor.flat, ag_r.actor.flat)


def test_c3_byte_identical_reruns(tmp_path):
    cfg_path = write_cfg(tmp_path)
    main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert "aggregate.csv" in map(str, same_tree_bytes(tmp_path / "a", tmp_path / "b", "rerun"))


def test_c4_serial_and_parallel_trees_identical(tmp_path, monkeypatch):
    # Updates and the reward-noise draw both run in every run. This
    # process trains runs 0 and 2 of 3 or runs 0, 2 and 4 of 5 at 2
    # usable CPUs, and runs 0 or runs 0 and 3 at 3.
    for n_runs in (3, 5):
        cfg = tiny_config(algo="rmaddpg", n_runs=n_runs,
                          env={"n_users": 2, "episode_len": 8, "noise_level": 0.5})
        serial = tmp_path / f"r{n_runs}w1"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _train_tree(replace(cfg, out_dir=str(serial)))
        # config, the runs, aggregate, svg; 2 agents x 5 nets
        assert len(tree_files(serial)) == 3 + n_runs + 2 * 5
        for cpus in (2, 3):
            parallel = tmp_path / f"r{n_runs}w{cpus}"
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            _train_tree(replace(cfg, out_dir=str(parallel)))
            assert multiprocessing.active_children() == []
            same_tree_bytes(serial, parallel, (n_runs, cpus))


def test_c4_one_cpu_tree_starts_no_process(tmp_path, monkeypatch):
    # At one usable CPU every run trains in this process, and the tree is
    # the one two processes write.
    cfg = tiny_config(algo="rmaddpg", n_runs=2,
                      env={"n_users": 2, "episode_len": 8, "noise_level": 0.5})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _train_tree(replace(cfg, out_dir=str(tmp_path / "cpus2")))

    def get_context(method=None):
        raise AssertionError("a process was started at one usable CPU")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _train_tree(replace(cfg, out_dir=str(tmp_path / "cpus1")))
    same_tree_bytes(tmp_path / "cpus2", tmp_path / "cpus1", "one cpu")


@pytest.mark.parametrize("algo", ["ddpg", "maddpg", "rmaddpg"])
def test_c5_serial_and_parallel_eval_identical(tmp_path, capsys, monkeypatch, algo):
    # Budgets that hold 1 or 2 episodes roll the passes 0, 1, ... or 0-1,
    # 2-3, ...; the default one rolls every episode in one pass.
    cfg_path, ckpt = trained_tree(tmp_path, algo)
    cfg = load_config(cfg_path)
    episode_bytes = cfg.env.reset_slot_bytes() * cfg.env.episode_len
    budget = runner.RESET_BUDGET_BYTES
    for episodes in (5, 7):
        ref = reference_rollout(cfg, ckpt, episodes)
        for group in (1, 2):
            monkeypatch.setattr(runner, "RESET_BUDGET_BYTES",
                                int(episode_bytes * (group + 1)) - 1)
            assert evaluate(cfg, load_policy(cfg, ckpt), episodes) == ref
        monkeypatch.setattr(runner, "RESET_BUDGET_BYTES", budget)
        assert evaluate(cfg, load_policy(cfg, ckpt), episodes) == ref
        printed = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt),
                         "--episodes", str(episodes)]) == 0
            printed.append(capsys.readouterr().out)
            assert multiprocessing.active_children() == []
        assert printed[0].startswith(f"evaluated {episodes} episodes: "
                                     f"mean true return {ref.mean_true_return:.4f}")
        assert printed == [printed[0]] * 3


def test_c6_env_draws_are_identical_across_algos():
    # Updates run from the second episode on, so the algos' actions, and
    # with them the queues, differ; the exogenous trace must not.
    env_cfg = EnvConfig(n_users=3, episode_len=20, noise_level=0.5)
    tc = TrainerConfig(warmup_steps=25, batch_size=16)
    traces = {}
    for algo in ("ddpg", "maddpg", "rmaddpg"):
        env = MecEnv(env_cfg, **seeds.env_streams(9, 2))
        trainer = Trainer(env_cfg, tc, algo, seeds.stream(9, 2, "net_init"))
        rx, rs = seeds.stream(9, 2, "exploration"), seeds.stream(9, 2, "buffer_sampling")
        traces[algo] = []
        for _ in range(4):
            train_episode(env, trainer, rx, rs)
            traces[algo].append([getattr(env, name).tobytes()
                                 for name in ("_zf", "_chan_obs", "_arrivals", "_noise")])
        assert trainer.total_steps > tc.warmup_steps
    assert traces["ddpg"] == traces["maddpg"] == traces["rmaddpg"]
    assert len({tuple(t) for t in traces["ddpg"]}) == 4  # each episode draws anew


@pytest.mark.parametrize("algo", ["ddpg", "rmaddpg"])
def test_c7_eval_draws_from_stream_index_n_runs(tmp_path, algo):
    cfg_path, ckpt = trained_tree(tmp_path, algo)
    cfg = load_config(cfg_path)
    summary = evaluate(cfg, load_policy(cfg, ckpt), 3)
    assert summary == reference_rollout(cfg, ckpt, 3, run_index=cfg.n_runs)
    assert summary.episode_returns != reference_rollout(cfg, ckpt, 3, run_index=0).episode_returns


@pytest.mark.parametrize("seed,lam", [(7, 0.5), (8, 5.0)])
def test_c8_saturated_rmaddpg_update_equals_maddpg_on_shifted_rewards(seed, lam):
    robust, rs = filled_trainer("rmaddpg", seed=seed, noise_level=lam)
    central, _ = filled_trainer("maddpg", seed=seed, noise_level=lam)
    for role in ("actor", "actor_target", "critic", "critic_target"):
        getattr(central, role).flat[...] = getattr(robust, role).flat
    src, dst = robust.buffer, central.buffer
    dst._ring[...] = src._ring
    dst._size, dst._cursor = src._size, src._cursor
    dst._rewards[:dst._size] -= np.float32(2 * lam)
    robust.nature.b2[...] = -1e6
    rs_central = copy.deepcopy(rs)
    # The adversary lies below the band on every transition the update samples.
    batch = src.sample_arrays(robust.tc.batch_size, copy.deepcopy(rs))
    r_hat = eval_vec(robust.nature, np.concatenate((batch.obs, batch.acts), axis=2))[..., 0]
    assert (r_hat < batch.rewards - np.float32(2 * lam)).all()
    a, b = robust.update(rs), central.update(rs_central)
    assert np.array_equal(a.critic_loss, b.critic_loss)
    assert np.array_equal(a.actor_objective, b.actor_objective)
    for role in ("actor", "actor_target", "critic", "critic_target"):
        assert np.array_equal(getattr(robust, role).flat, getattr(central, role).flat), role
