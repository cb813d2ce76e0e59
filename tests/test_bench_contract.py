"""The benchmark's tracer patches program functions by module attribute,
and its output checks recompute env steps independently; these tests fail
when a refactor moves or stops calling a patched function, or changes what
a step computes."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mecrl import agents, cli, seeds
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


@pytest.mark.parametrize("users,antennas,distance", [
    (2, 4, 100.0),
    (8, 8, 100.0),
    (2, 4, 0.001),  # path gain 1e6: a Gram stack not Hermitian to the bit
], ids=["2-4", "8-8", "2-4-near"])
def test_env_steps_pass_independent_checks(checks, users, antennas, distance):
    # SINR against numpy's SVD pseudo-inverse, bit conservation, served
    # bits, rewards and the noise band, recomputed by the benchmark.
    cfg = ExperimentConfig(env=EnvConfig(
        n_users=users, constants=PhyConstants(n_antennas=antennas), episode_len=40,
        noise_level=0.5, distances_m=distance))
    env = MecEnv(cfg.env, **seeds.env_streams(0, 0))
    rows = checks.record_steps(env)
    rng = np.random.default_rng(0)
    p_max = np.column_stack((cfg.env.p_max_offload_w, cfg.env.p_max_local_w))
    env.reset()
    for _ in range(cfg.env.episode_len):
        env.step([Action(p_off, p_loc) for p_off, p_loc in rng.uniform(0.0, p_max).tolist()])
    assert len(rows) == cfg.env.episode_len
    assert checks.check_steps(cfg, rows) == []


def test_self_check_passes(tmp_path):
    # Every workload at tiny size with every output check, untraced and
    # traced, and the result schema against BENCHMARK.json. It runs from a
    # copy of bench/ beside the checkout's sources, so its traces and work
    # files do not replace those of the last real run in bench/_out.
    root = BENCH.parent
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(root / "src", target_is_directory=True)
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--self-check"],
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_default_train_tree_traces_this_process(tracing, tmp_path):
    # layer_metrics reads runner.run_training, runner.save_checkpoints and
    # runner.write_csv from the spans of the process that runs `mecrl
    # train`, so at the default worker count that process trains its share
    # of the runs, run 0 among them.
    cfg = ExperimentConfig(env=EnvConfig(n_users=2, episode_len=8),
                           trainer=TrainerConfig(warmup_steps=6, batch_size=4, buffer_capacity=50),
                           episodes=2, n_runs=2, out_dir=str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli._train_tree(cfg)
    finally:
        tracer.uninstall()
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert calls.get("runner.run_training", 0) >= 1
    assert calls.get("runner.save_checkpoints") == 1
    assert calls.get("runner.write_csv", 0) >= 2  # run 0's CSV and the aggregate
