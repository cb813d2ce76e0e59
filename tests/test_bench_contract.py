"""The benchmark's tracer patches program functions by module attribute;
these tests fail when a refactor moves or stops calling one of them."""

import importlib
import sys
from pathlib import Path

import pytest

from mecrl import agents, seeds
from mecrl.agents import Trainer, TrainerConfig
from mecrl.env import EnvConfig, MecEnv

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_patch_target_resolves(tracing):
    for module, path, _ in tracing.PATCHES:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # The tracer replaces the attribute where it is defined.
        assert attr in vars(owner), f"{module}.{path} is not defined there"
        assert callable(vars(owner)[attr]), f"{module}.{path} is not callable"


@pytest.mark.parametrize("algo", ["ddpg", "maddpg", "rmaddpg"])
def test_training_calls_every_agents_target(tracing, algo):
    env_cfg = EnvConfig(n_users=2, episode_len=12, noise_level=0.5)
    tc = TrainerConfig(warmup_steps=8, batch_size=8, buffer_capacity=50)
    env = MecEnv(env_cfg, **seeds.env_streams(0, 0))
    trainer = Trainer(env_cfg, tc, algo, seeds.stream(0, 0, "net_init"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        agents.train_episode(env, trainer, seeds.stream(0, 0, "exploration"),
                             seeds.stream(0, 0, "buffer_sampling"))
    finally:
        tracer.uninstall()
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    names = {name for module, path, name in tracing.PATCHES
             if module == "mecrl.agents" or path == "MecEnv.obs_vectors"}
    names = {f"agents.update.{algo}" if n == "agents.update" else n for n in names}
    missing = sorted(n for n in names if not calls.get(n))
    assert not missing, f"no span recorded for {missing}"
    # One stacked update serves all agents.
    assert calls["agents.td_update"] == calls[f"agents.update.{algo}"] == 4
