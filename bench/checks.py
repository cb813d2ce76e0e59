"""Output checks, run outside the timed window.

Each check recomputes a program output with code of its own (numpy's
pseudo-inverse, the capacity formulas, a separate MLP forward pass, the
statistics module, an XML parser) and returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import mecrl
from mecrl import seeds

# Reference SINRs come from numpy's SVD pseudo-inverse, the program's from a
# Cholesky inverse of the Gram matrix; the two agree to about cond(H)·eps.
SINR_RTOL = 1e-6


def record_steps(env) -> list:
    """Shadow one env instance's ``step`` to keep, per step, the channel
    before it, the actions, the backlog before it and the result."""
    rows = []
    step = env.step

    def recording_step(actions):
        h = env.channel.h.copy()
        before = [q.backlog_bits for q in env.queues]
        result = step(actions)
        rows.append((h, [(a.p_offload_w, a.p_local_w) for a in actions], before, result))
        return result

    env.step = recording_step
    return rows


def check_steps(cfg, rows) -> list[str]:
    """Bit conservation, SINR, served bits and rewards of every recorded step."""
    env, c = cfg.env, cfg.env.constants
    out = []
    for t, (h, actions, before, res) in enumerate(rows):
        pinv = np.linalg.pinv(h)
        for m, (p_off, p_loc) in enumerate(actions):
            info = res.info[m]
            after = res.observations[m].backlog_bits
            where = f"step {t} user {m}"
            if (before[m] + info["bits_arrived"] != info["bits_local"] + info["bits_offloaded"]
                    + after + info["bits_dropped"]):
                out.append(f"{where}: bits not conserved: {before[m]} + {info} != {after}")
            row = pinv[m]
            sinr = p_off / (c.noise_power_w * float(np.sum(row.real ** 2 + row.imag ** 2)))
            if not math.isclose(info["sinr"], sinr, rel_tol=SINR_RTOL, abs_tol=0.0):
                out.append(f"{where}: sinr {info['sinr']!r} != pinv reference {sinr!r}")
            local = min(math.floor(c.slot_s * (p_loc / c.kappa) ** (1.0 / 3.0) / c.cycles_per_bit),
                        before[m])
            off = min(math.floor(c.slot_s * c.bandwidth_hz * math.log2(1.0 + info["sinr"])),
                      before[m] - local)
            if (info["bits_local"], info["bits_offloaded"]) != (local, off):
                out.append(f"{where}: served {info['bits_local']}/{info['bits_offloaded']} bits, "
                           f"capacities give {local}/{off}")
            true = -env.w_energy[m] * (p_off + p_loc) - env.w_queue[m] * after
            if not math.isclose(res.true_rewards[m], true, rel_tol=1e-12, abs_tol=1e-12):
                out.append(f"{where}: true reward {res.true_rewards[m]!r} != {true!r}")
            if abs(res.perceived_rewards[m] - res.true_rewards[m]) > 2.0 * env.noise_level + 1e-9:
                out.append(f"{where}: perceived reward outside the ±2λ band")
    return out


def check_pairing(rows_by_algo: dict) -> list[str]:
    """Channels, arrivals and reward noise are the same draws for every algo."""
    (ref_algo, ref), *others = rows_by_algo.items()

    def draws(rows):
        return ([r[0] for r in rows],
                [[i["bits_arrived"] for i in r[3].info] for r in rows],
                np.array([[p - t for p, t in zip(r[3].perceived_rewards, r[3].true_rewards)]
                          for r in rows]))

    h_ref, arr_ref, noise_ref = draws(ref)
    out = []
    for algo, rows in others:
        h, arr, noise = draws(rows)
        if len(h) != len(h_ref) or not all(np.array_equal(a, b) for a, b in zip(h, h_ref)):
            out.append(f"{algo}: channel draws differ from {ref_algo}")
        if arr != arr_ref:
            out.append(f"{algo}: arrivals differ from {ref_algo}")
        if noise.shape != noise_ref.shape or not np.allclose(noise, noise_ref, rtol=0.0, atol=1e-9):
            out.append(f"{algo}: perceived-minus-true rewards differ from {ref_algo}")
    return out


def return_floor(cfg) -> float:
    """Lowest possible episode return: every slot at full power and a full buffer."""
    env = cfg.env
    worst = math.fsum(env.w_energy[m] * (env.p_max_offload_w[m] + env.p_max_local_w[m])
                      + env.w_queue[m] * env.buffer_cap_bits for m in range(env.n_users))
    return -env.episode_len * worst / env.n_users


def check_returns(cfg, returns, where: str) -> list[str]:
    """Every episode return (mean over users) lies in [return_floor, 0]."""
    lo = return_floor(cfg)
    bad = [r for r in returns if not lo <= r <= 0.0]
    return [f"{where}: returns {bad[:3]} outside [{lo}, 0]"] if bad else []


def check_params(trainer, where: str) -> list[str]:
    nets = [getattr(ag, role) for ag in trainer.agents
            for role in ("actor", "actor_target", "critic", "critic_target")]
    nets += [na.net for na in trainer.natures or ()]
    if all(np.isfinite(p.flat).all() for p in nets):
        return []
    return [f"{where}: a network parameter is not finite"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as f:
        return list(csv.DictReader(f))


def _layer_shapes(in_dim: int, hidden: int, out_dim: int) -> dict:
    return {"w1": [hidden, in_dim], "b1": [hidden], "w2": [out_dim, hidden], "b2": [out_dim]}


def check_experiment(cfg, out: Path) -> list[str]:
    """run_k.csv, aggregate.csv, checkpoints and curves.svg of ``mecrl train``."""
    env, hidden = cfg.env, cfg.trainer.hidden
    problems = []
    runs = [_read_csv(out / f"run_{k}.csv") for k in range(cfg.n_runs)]
    for k, rows in enumerate(runs):
        if len(rows) != cfg.episodes:
            problems.append(f"run_{k}.csv: {len(rows)} rows, expected {cfg.episodes}")
        problems += check_returns(cfg, [float(r["mean_return"]) for r in rows], f"run_{k}.csv")
    agg = _read_csv(out / "aggregate.csv")
    if len(agg) != cfg.episodes:
        problems.append(f"aggregate.csv: {len(agg)} rows, expected {cfg.episodes}")
    for e, row in enumerate(agg):
        vals = [float(rows[e]["mean_return"]) for rows in runs]
        if [row[f"run{k}"] for k in range(cfg.n_runs)] != [rows[e]["mean_return"] for rows in runs]:
            problems.append(f"aggregate.csv row {e}: run columns differ from run_k.csv")
        for col, ref in (("mean_return", statistics.fmean(vals)), ("std_return", statistics.pstdev(vals))):
            if not math.isclose(float(row[col]), ref, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"aggregate.csv row {e}: {col} {row[col]} != recomputed {ref!r}")

    obs_dim = env.constants.n_antennas + 2
    critic_in = obs_dim + 2 if cfg.algo == "ddpg" else env.n_users * (obs_dim + 2)
    roles = {"actor": (obs_dim, 2), "actor_target": (obs_dim, 2),
             "critic": (critic_in, 1), "critic_target": (critic_in, 1)}
    if cfg.algo == "rmaddpg":
        roles["nature"] = (obs_dim + 2, 1)
    expected = {f"{cfg.algo}_{m}_{role}.json": _layer_shapes(i, hidden, o)
                for m in range(env.n_users) for role, (i, o) in roles.items()}
    found = {p.name for p in (out / "checkpoints").iterdir()}
    if found != set(expected):
        problems.append(f"checkpoints: found {sorted(found ^ set(expected))[:4]} against the config")
    for name in sorted(found & set(expected)):
        doc = json.loads((out / "checkpoints" / name).read_text(encoding="utf-8"))
        for layer, shape in expected[name].items():
            if doc[layer]["shape"] != shape or len(doc[layer]["data"]) != math.prod(shape):
                problems.append(f"{name}: layer {layer} has shape {doc[layer]['shape']}, expected {shape}")

    try:
        svg = ET.parse(out / "curves.svg").getroot()
    except ET.ParseError as exc:
        return problems + [f"curves.svg does not parse as XML: {exc}"]
    if svg.tag != "{http://www.w3.org/2000/svg}svg":
        problems.append(f"curves.svg: root element is {svg.tag}")
    return problems


def _load_actor(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [np.asarray(doc[k]["data"], dtype=np.float64).reshape(doc[k]["shape"])
            for k in ("w1", "b1", "w2", "b2")]


_EVAL_MEAN = re.compile(r"mean true return (\S+) \(std (\S+)\)")
_EVAL_USER = re.compile(r"user\d+=(\S+?)(?:,|$)", re.M)


def check_eval(cfg, checkpoints: Path, n_episodes: int, printed: str) -> list[str]:
    """``mecrl eval``'s printed figures against a rollout of the saved
    actors through this module's own MLP forward pass and tanh squash."""
    env_cfg = cfg.env
    n = env_cfg.n_users
    actors = [_load_actor(checkpoints / f"{cfg.algo}_{m}_actor.json") for m in range(n)]
    half = [0.5 * np.array([env_cfg.p_max_offload_w[m], env_cfg.p_max_local_w[m]]) for m in range(n)]
    env = mecrl.MecEnv(env_cfg, **seeds.env_streams(cfg.base_seed, cfg.n_runs))
    returns, per_user = [], np.zeros(n)
    for _ in range(n_episodes):
        env.reset()
        sums = np.zeros(n)
        for _ in range(env_cfg.episode_len):
            actions = []
            for m, x in enumerate(env.obs_vectors()):
                w1, b1, w2, b2 = actors[m]
                hid = np.maximum(x[None, :] @ w1.T + b1, 0.0)
                a = (np.tanh((hid @ w2.T + b2)[0]) + 1.0) * half[m]
                actions.append(mecrl.Action(float(a[0]), float(a[1])))
            sums += env.step(actions).true_rewards
        returns.append(math.fsum(sums) / n)
        per_user += sums
    ref = [statistics.fmean(returns), statistics.pstdev(returns)] + [float(v) / n_episodes for v in per_user]

    found = _EVAL_MEAN.search(printed)
    users = _EVAL_USER.findall(printed)
    if found is None or len(users) != n:
        return [f"mecrl eval printed no summary: {printed!r}"]
    got = [float(v) for v in (*found.groups(), *users)]
    # Printed with four decimals.
    if any(abs(g - r) > 0.51e-4 for g, r in zip(got, ref)):
        return [f"mecrl eval printed {got}, own rollout gives {ref}"]
    return []
