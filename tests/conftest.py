import json

import numpy as np
import pytest

from mecrl import seeds
from mecrl.agents import Trainer, TrainerConfig, train_episode
from mecrl.cli import _train_tree
from mecrl.config import config_from_dict, load_config
from mecrl.env import EnvConfig, MecEnv


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_channel(rng, n, m, gain=1.0):
    """Rayleigh channel: i.i.d. circularly-symmetric complex Gaussian."""
    scale = np.sqrt(gain / 2.0)
    return scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


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
