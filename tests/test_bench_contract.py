"""The benchmark's tracer patches program functions by module attribute,
and its output checks recompute env steps independently; these tests fail
when a refactor moves or stops calling a patched function, or changes what
a step computes."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mecrl import agents, seeds
from mecrl.agents import Trainer, TrainerConfig
from mecrl.config import ExperimentConfig
from mecrl.env import Action, EnvConfig, MecEnv
from mecrl.phy import PhyConstants

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def tracing():
    return bench_module("tracing")


@pytest.fixture(scope="module")
def checks():
    return bench_module("checks")


def traced_episode(tracing, algo, env_cfg):
    """One training episode with warmup and updates, under the tracer."""
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
    return tracer


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
    tracer = traced_episode(tracing, algo, EnvConfig(n_users=2, episode_len=12, noise_level=0.5))
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    names = {name for module, path, name in tracing.PATCHES
             if module == "mecrl.agents" or path == "MecEnv.obs_vectors"}
    names = {f"agents.update.{algo}" if n == "agents.update" else n for n in names}
    missing = sorted(n for n in names if not calls.get(n))
    assert not missing, f"no span recorded for {missing}"
    # One stacked update serves all agents.
    assert calls["agents.td_update"] == calls[f"agents.update.{algo}"] == 4


@pytest.mark.parametrize("users,antennas", [(2, 4), (8, 8)])
def test_one_zf_inverse_per_step(tracing, users, antennas):
    # layer_metrics reads phy.evolve_channel, phy.zf_norms and
    # cmatrix.invert_hpd from these spans: each reset draws the episode's
    # channel trace and inverts its Gram matrices in one call each, and a
    # step makes none of these calls.
    env_cfg = EnvConfig(n_users=users, constants=PhyConstants(n_antennas=antennas),
                        episode_len=12)
    tracer = traced_episode(tracing, "ddpg", env_cfg)
    nid, parent, *_ = tracer.arrays()
    ids = {name: k for k, name in enumerate(tracer.names)}

    def children(of, name):
        return np.bincount(parent[nid == ids[name]], minlength=nid.size)[nid == ids[of]]

    assert np.count_nonzero(nid == ids["env.step"]) == 12
    assert np.count_nonzero(nid == ids["env.reset"]) == 1
    assert np.all(children("env.reset", "phy.evolve_channel") == 1)
    assert np.all(children("env.reset", "phy.zf_norms") == 1)
    assert np.all(children("phy.zf_norms", "cmatrix.invert_hpd") == 1)
    for name in ("phy.evolve_channel", "phy.zf_norms", "cmatrix.invert_hpd"):
        assert np.all(children("env.step", name) == 0)
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert calls["phy.evolve_channel"] == calls["phy.zf_norms"] == calls["cmatrix.invert_hpd"] == 1


@pytest.mark.parametrize("users,antennas", [(2, 4), (8, 8)])
def test_env_steps_pass_independent_checks(checks, users, antennas):
    # SINR against numpy's SVD pseudo-inverse, bit conservation, served
    # bits, rewards and the noise band, recomputed by the benchmark.
    cfg = ExperimentConfig(env=EnvConfig(
        n_users=users, constants=PhyConstants(n_antennas=antennas), episode_len=40,
        noise_level=0.5))
    env = MecEnv(cfg.env, **seeds.env_streams(0, 0))
    rows = checks.record_steps(env)
    rng = np.random.default_rng(0)
    p_max = np.column_stack((cfg.env.p_max_offload_w, cfg.env.p_max_local_w))
    env.reset()
    for _ in range(cfg.env.episode_len):
        env.step([Action(p_off, p_loc) for p_off, p_loc in rng.uniform(0.0, p_max).tolist()])
    assert len(rows) == cfg.env.episode_len
    assert checks.check_steps(cfg, rows) == []


def test_self_check_passes():
    # Every workload at tiny size with every output check, untraced and
    # traced, and the result schema against BENCHMARK.json.
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-check"],
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
