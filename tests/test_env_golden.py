"""Golden values of ``MecEnv.step``: 20 slots at 2x4 and at 8x8.

Each case resets a seeded env (reward noise 0.5, a 2,000-bit buffer so
that some slots drop bits) and steps it through a fixed action sequence:
seeded uniform draws in the power box, scaled by 0, 1/3, 2/3 and 1 in
turn, so that idle slots fill the buffer and full-power slots drain it.
The integer fields of ``info`` and the backlogs must match exactly; the
rewards and SINRs at a relative tolerance of REL, which allows a
last-bit change of the BLAS kernel behind the zero-forcing inverse and
nothing more. ``test_golden`` pins whole training runs at 1e-6 only.

Regenerate ``data/env_golden.json`` with ``PYTHONPATH=src python
tests/test_env_golden.py``, and only in a change that means to alter the
simulator's outputs.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mecrl import phy, seeds
from mecrl.env import Action, EnvConfig, MecEnv

GOLDEN = Path(__file__).resolve().parent / "data" / "env_golden.json"
SIZES = ((2, 4), (8, 8))
SLOTS = 20
SEED = 3
REL = 1e-12
INT_FIELDS = ("bits_local", "bits_offloaded", "bits_arrived", "bits_dropped")


def case_name(users, antennas):
    return f"{users}x{antennas}"


def step_outputs(users, antennas) -> list[dict]:
    """One record per step: rewards, ``info`` and the backlogs after it."""
    cfg = EnvConfig(n_users=users, constants=phy.PhyConstants(n_antennas=antennas),
                    noise_level=0.5, buffer_cap_bits=2000, episode_len=SLOTS)
    env = MecEnv(cfg, **seeds.env_streams(SEED, 0))
    env.reset()
    p_max = np.column_stack((cfg.p_max_offload_w, cfg.p_max_local_w))
    draws = np.random.default_rng(SEED).uniform(0.0, p_max, size=(SLOTS, users, 2))
    out = []
    for t, row in enumerate(draws):
        res = env.step([Action(p_off, p_loc) for p_off, p_loc in (row * (t % 4) / 3).tolist()])
        out.append({
            "true_rewards": list(res.true_rewards),
            "perceived_rewards": list(res.perceived_rewards),
            "info": [dict(i) for i in res.info],
            "backlog": [o.backlog_bits for o in res.observations],
        })
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_some_slots_drop_bits(golden):
    # The buffer is small enough that the golden covers overflow.
    for case in golden.values():
        assert any(i["bits_dropped"] > 0 for step in case for i in step["info"])


@pytest.mark.parametrize("users,antennas", SIZES)
def test_steps_match_golden(golden, users, antennas):
    want = golden[case_name(users, antennas)]
    got = step_outputs(users, antennas)
    assert len(got) == len(want) == SLOTS
    for t, (step, ref) in enumerate(zip(got, want)):
        assert step["backlog"] == ref["backlog"], f"step {t}"
        for key in ("true_rewards", "perceived_rewards"):
            for m, (v, r) in enumerate(zip(step[key], ref[key], strict=True)):
                assert math.isclose(v, r, rel_tol=REL, abs_tol=0.0), \
                    f"step {t} user {m} {key}: {v!r} vs golden {r!r}"
        for m, (info, info_ref) in enumerate(zip(step["info"], ref["info"], strict=True)):
            assert info.keys() == info_ref.keys(), f"step {t} user {m}"
            for name in INT_FIELDS:
                assert info[name] == info_ref[name], f"step {t} user {m} {name}"
            assert math.isclose(info["sinr"], info_ref["sinr"], rel_tol=REL, abs_tol=0.0), \
                f"step {t} user {m} sinr: {info['sinr']!r} vs golden {info_ref['sinr']!r}"


def main() -> None:
    doc = {case_name(u, n): step_outputs(u, n) for u, n in SIZES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
