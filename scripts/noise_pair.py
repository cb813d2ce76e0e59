#!/usr/bin/env python3
"""Train ddpg and rmaddpg with and without reward noise and plot overlays.

The noisy condition scales the reward-noise level to twice the typical
per-step reward magnitude, measured under a uniform random policy on the
same seeds. Outputs land under --out (default out/noise_pair) as two grid
cells, clean/ and noisy/, each holding a ddpg/ and an rmaddpg/ output tree
and their overlay curves.svg.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from mecrl import seeds
from mecrl.cli import train_cell
from mecrl.config import ExperimentConfig
from mecrl.env import Action, MecEnv


def typical_reward_magnitude(cfg: ExperimentConfig, episodes: int = 5) -> float:
    env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, cfg.n_runs))
    rng = np.random.default_rng(cfg.base_seed)
    mags = []
    for _ in range(episodes):
        env.reset()
        for _ in range(cfg.env.episode_len):
            acts = [Action(float(rng.uniform(0, cfg.env.p_max_offload_w[m])),
                           float(rng.uniform(0, cfg.env.p_max_local_w[m])))
                    for m in range(cfg.env.n_users)]
            res = env.step(acts)
            mags.extend(abs(r) for r in res.true_rewards)
    return float(np.mean(mags))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--episodes", type=int, default=1000)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/noise_pair")
    args = ap.parse_args()

    base = ExperimentConfig(episodes=args.episodes, n_runs=args.runs,
                            base_seed=args.seed)
    noise = 2.0 * typical_reward_magnitude(base)
    print(f"reward-noise level: {noise:.3f}")

    for tag, level in (("clean", 0.0), ("noisy", noise)):
        cell = Path(args.out) / tag
        cfg = replace(base, env=replace(base.env, noise_level=level))
        for algo, agg in train_cell(cfg, cell):
            tail = agg.mean[-100:]
            print(f"{tag} {algo}: final-100 mean return {math.fsum(tail) / len(tail):.2f}")
        print(f"wrote {cell / 'curves.svg'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
