import contextlib
import errno
import io
import json
import math
import multiprocessing
import os
import re
import signal
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import cli, files, neural, runner, seeds
from mecrl.agents import EpisodeStats, TrainingDiverged
from mecrl.cli import _train_tree, main
from mecrl.config import (ExperimentConfig, config_from_dict, config_to_dict,
                          load_config, save_config)
from mecrl.env import Action, ActionError, ConfigError, draw_arrivals
from mecrl.runner import (AggregateSeries, aggregate_runs, evaluate,
                          read_aggregate_csv, run_training, save_checkpoints,
                          write_csv, write_run_csv)
from mecrl.svgplot import render_svg

from conftest import (bad_actions, reference_rollout, singular_slot, tiny_config, trained_tree,
                      write_cfg)


def record(vals):
    return EpisodeStats(tuple(vals), tuple(vals), 0.1)


# JSON documents over the known keys: up to three keys of one section set
# to arbitrary JSON values (integers up to 10**30, any float, strings, null,
# booleans and lists of them), so that many documents get past the type
# check to the value checks; or sections that are not objects.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
                 | st.integers(-2, 300) | st.floats() | st.text(max_size=4))
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=4)
_DEFAULT_DOC = config_to_dict(ExperimentConfig())


def _some_keys(keys):
    return st.dictionaries(st.sampled_from(sorted(keys)), _JSON_VALUES, max_size=3)


CONFIG_DOCUMENTS = st.one_of(
    _some_keys(set(_DEFAULT_DOC) - {"env", "trainer"}),
    _some_keys(_DEFAULT_DOC["env"]).map(lambda env: {"env": env}),
    _some_keys(_DEFAULT_DOC["trainer"]).map(lambda trainer: {"trainer": trainer}),
    st.dictionaries(st.sampled_from(["env", "trainer"]), _JSON_VALUES, max_size=2),
)

# Documents for a whole `mecrl train`: a tiny base config of each algo
# with up to three of its size keys (every key that sets an allocation or
# the work done, bounded to a few MB and milliseconds) and up to three
# other keys redrawn, mostly to numbers, so that many documents train.
# `out_dir` is the test's own.
_NOT_A_NUMBER = st.none() | st.booleans() | st.text(max_size=4) | st.lists(st.booleans(), max_size=2)
_NUMBERS = (st.integers(-2, 300) | st.floats(-10.0, 10.0)
            | st.floats(allow_nan=False, allow_infinity=False))


def _mostly(valid, other):
    """``valid`` about three times in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else valid)


_OTHER_VALUES = _mostly(_NUMBERS, st.lists(_NUMBERS, min_size=1, max_size=3) | _JSON_VALUES)
_SIZE_KEYS = {
    ("env", "n_users"): st.integers(-1, 3),
    ("env", "n_antennas"): st.integers(-1, 4),
    ("env", "episode_len"): st.integers(-1, 3),
    ("env", "arrival_rate"): st.floats(-1.0, 50.0) | st.lists(st.floats(0.0, 50.0), max_size=3),
    ("trainer", "hidden"): st.integers(-1, 8),
    ("trainer", "buffer_capacity"): st.integers(-1, 16),
    ("trainer", "batch_size"): st.integers(-1, 16),
    ("trainer", "warmup_steps"): st.integers(-1, 4),
    ("trainer", "updates_per_step"): st.integers(-1, 3),
    (None, "episodes"): st.integers(-1, 2),
    (None, "n_runs"): st.integers(-1, 2),
}
_OTHER_KEYS = sorted(({(None, k) for k in _DEFAULT_DOC if k not in ("env", "trainer", "out_dir")}
                     | {(s, k) for s in ("env", "trainer") for k in _DEFAULT_DOC[s]})
                     - set(_SIZE_KEYS), key=str)


def _train_document(algo, sizes, others):
    doc = {"env": {"episode_len": 2},
           "trainer": {"hidden": 4, "buffer_capacity": 8, "batch_size": 2, "warmup_steps": 1},
           "algo": algo, "episodes": 1, "n_runs": 1}
    for (section, key), value in [*sizes.items(), *others.items()]:
        (doc if section is None else doc[section])[key] = value
    return doc


def _some(keys, values):
    """Up to three of ``keys``, each set to a value ``values(key)`` draws."""
    return st.lists(st.sampled_from(keys), max_size=3, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries({k: values(k) for k in chosen}))


TRAIN_DOCUMENTS = st.builds(
    _train_document,
    st.sampled_from(["ddpg", "maddpg", "rmaddpg"]),
    _some(sorted(_SIZE_KEYS, key=str), lambda key: _mostly(_SIZE_KEYS[key], _NOT_A_NUMBER)),
    _some(_OTHER_KEYS, lambda key: _OTHER_VALUES))


class TestConfig:
    def test_empty_document_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path)
        env = cfg.env
        assert env.constants.n_antennas == 4
        assert env.constants.noise_power_w == 1e-9
        assert env.p_max_offload_w == (2.0, 2.0)
        assert env.p_max_local_w == (2.0, 2.0)
        assert env.rho == (0.95, 0.95)
        assert env.constants.kappa == 1e-27
        assert env.constants.cycles_per_bit == 500
        assert env.distances_m == (100.0, 100.0)
        assert env.path_loss.alpha == 3.0
        assert env.path_loss.g0_db == -30.0
        assert env.path_loss.d0_m == 1.0
        assert cfg.n_runs == 5 and cfg.episodes == 1000

    def test_negative_episodes_rejected(self):
        with pytest.raises(ConfigError, match="episodes"):
            config_from_dict({"episodes": -3})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"env": {"bandwidth": 1e6}})
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"foo": 1})

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"algo": }')
        with pytest.raises(ConfigError, match=r"line 1 column 10"):
            load_config(path)

    def test_nonfinite_constant_rejected_at_parse(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"env": {"noise_level": -Infinity}}')
        with pytest.raises(ConfigError, match="non-finite number -Infinity"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        cfg = tiny_config(algo="rmaddpg")
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_bad_algo(self):
        with pytest.raises(ConfigError, match="algo"):
            config_from_dict({"algo": "dqn"})

    def test_replace_rejects_out_of_range_values(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError, match="n_runs"):
            replace(cfg, n_runs=0)
        with pytest.raises(ConfigError, match="rho"):
            replace(cfg.env, rho=2.0)
        with pytest.raises(ConfigError, match="tau_soft"):
            replace(cfg.trainer, tau_soft=-0.5)
        with pytest.raises(ConfigError, match="kappa"):
            replace(cfg.env.constants, kappa=0)
        with pytest.raises(ConfigError, match="d0_m"):
            replace(cfg.env.path_loss, d0_m=0.0)

    @pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "scripts").glob("*.json")),
                             ids=lambda path: path.name)
    def test_committed_config_loads_and_trains_shrunk(self, tmp_path, path):
        cfg = load_config(path)
        small = replace(cfg, n_runs=1, episodes=1, out_dir=str(tmp_path / "out"),
                        env=replace(cfg.env, episode_len=5),
                        trainer=replace(cfg.trainer, warmup_steps=2, batch_size=2))
        agg = _train_tree(small)
        assert len(agg.mean) == 1
        assert (tmp_path / "out" / "resolved_config.json").exists()

    @settings(max_examples=300, deadline=1000, database=None)
    @given(doc=CONFIG_DOCUMENTS)
    def test_fuzzed_document_loads_or_raises_config_error(self, doc):
        try:
            cfg = config_from_dict(doc)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)


class TestSeeds:
    def test_purposes_are_independent(self):
        a = seeds.stream(0, 0, "arrivals").standard_normal(4)
        b = seeds.stream(0, 0, "reward_noise").standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_triple_same_stream(self):
        a = seeds.stream(3, 1, "exploration").standard_normal(4)
        b = seeds.stream(3, 1, "exploration").standard_normal(4)
        assert np.array_equal(a, b)

    def test_runs_are_distinct(self):
        a = seeds.stream(3, 0, "arrivals").standard_normal(4)
        b = seeds.stream(3, 1, "arrivals").standard_normal(4)
        assert not np.allclose(a, b)

    def test_env_draws_invariant_to_actions(self):
        # Policies (and hence algorithms) cannot perturb the environment's
        # randomness: arrival and channel sequences depend only on the
        # purpose-split streams, not on the actions taken.
        from mecrl.env import Action, MecEnv
        rollouts = []
        for p in (0.0, 2.0):
            env = MecEnv(tiny_config().env, **seeds.env_streams(13, 0))
            env.reset()
            arrived, chans = [], []
            for _ in range(8):
                res = env.step([Action(p, p), Action(0.0, p)])
                arrived.append([i["bits_arrived"] for i in res.info])
                chans.append(res.observations[0].chan_power.copy())
            rollouts.append((arrived, chans))
        (arr_a, ch_a), (arr_b, ch_b) = rollouts
        assert arr_a == arr_b
        assert all(np.array_equal(x, y) for x, y in zip(ch_a, ch_b))


class TestRunner:
    def test_run_training_deterministic(self):
        cfg = tiny_config()
        a, _ = run_training(cfg, 0)
        b, _ = run_training(cfg, 0)
        assert a == b

    def test_single_episode_series(self, tmp_path):
        cfg = tiny_config(episodes=1)
        stats, _ = run_training(cfg, 0)
        assert len(stats) == 1
        write_run_csv(stats, tmp_path / "run_0.csv")
        assert tmp_path.joinpath("run_0.csv").read_text().splitlines()[1].startswith("0,")

    @pytest.mark.parametrize("returns", [(-1e308, -1e308), (math.nan, -1.0), (-1.0, -math.inf)])
    def test_nonfinite_return_names_its_run_and_episode(self, monkeypatch, returns):
        # Finite returns whose sum overflows would make mean_true's fsum raise.
        real, episodes = runner.train_episode, []

        def train_episode(env, trainer, *rngs):
            stats = real(env, trainer, *rngs)
            episodes.append(stats)
            return EpisodeStats(returns, returns, stats.sigma) if len(episodes) == 2 else stats

        monkeypatch.setattr(runner, "train_episode", train_episode)
        with pytest.raises(ValueError, match=rf"^training run 1, episode 1: true returns "
                                             rf"\({re.escape(', '.join(map(repr, returns)))}\) "
                                             rf"do not sum to a finite value"):
            run_training(tiny_config(), 1)
        assert len(episodes) == 2

    def test_aggregate_example(self):
        runs = [[record([1.0]), record([2.0])],
                [record([3.0]), record([4.0])]]
        agg = aggregate_runs(runs)
        assert agg.mean == [2.0, 3.0]
        assert agg.std == [1.0, 1.0]

    def test_aggregate_single_run_zero_std(self):
        agg = aggregate_runs([[record([5.0]), record([7.0])]])
        assert agg.std == [0.0, 0.0]

    def test_aggregate_permutation_invariant(self):
        runs = [[record([v])] for v in (0.1, 0.7, -2.3, 5.5, 1e-3)]
        fwd = aggregate_runs(runs)
        rev = aggregate_runs(runs[::-1])
        assert fwd.mean == rev.mean and fwd.std == rev.std

    def test_aggregate_mean_within_run_range(self):
        rng = np.random.default_rng(0)
        runs = [[record([float(rng.normal())]) for _ in range(10)] for _ in range(5)]
        agg = aggregate_runs(runs)
        for e in range(10):
            vals = [r[e].mean_true for r in runs]
            assert min(vals) <= agg.mean[e] <= max(vals)

    @pytest.mark.parametrize("means,stat", [((-1e308, -1e308), "mean"),
                                            ((-1e200, 1e200), "standard deviation")])
    def test_aggregate_overflow_names_the_episode(self, means, stat):
        runs = [[record([1.0]), record([v])] for v in means]
        with pytest.raises(ValueError, match=rf"^the {stat} of episode 1's mean true returns "
                                             rf"over the runs overflows float64$"):
            aggregate_runs(runs)

    def test_aggregate_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            aggregate_runs([[record([1.0])], [record([1.0]), record([1.0])]])


class TestCsv:
    def test_line_count(self, tmp_path):
        runs = [[record([1.0]), record([2.0])],
                [record([3.0]), record([4.0])]]
        agg = aggregate_runs(runs)
        path = tmp_path / "agg.csv"
        write_csv(agg, runs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "episode,mean_return,std_return,run0,run1"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        runs = [[record([float(rng.normal()) for _ in range(2)]) for _ in range(7)]
                for _ in range(3)]
        agg = aggregate_runs(runs)
        path = tmp_path / "agg.csv"
        write_csv(agg, runs, path)
        back = read_aggregate_csv(path)
        assert back.mean == agg.mean and back.std == agg.std

    def test_deterministic_bytes(self, tmp_path):
        runs = [[record([0.123456789012345]), record([2.0])]]
        agg = aggregate_runs(runs)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(agg, runs, p1)
        write_csv(agg, runs, p2)
        assert p1.read_bytes() == p2.read_bytes()


def svg_elements(path, tag):
    root = ET.parse(path).getroot()
    return [el for el in root.iter() if el.tag.endswith("}" + tag) or el.tag == tag]


class TestSvg:
    def test_well_formed_with_preamble(self, tmp_path):
        path = tmp_path / "c.svg"
        render_svg([("one", AggregateSeries([1.0, 2.0, 1.5], [0.1, 0.2, 0.1]))], path)
        text = path.read_text()
        assert text.startswith("<?xml")
        ET.parse(path)  # raises if malformed

    def test_constant_series_flat_band(self, tmp_path):
        path = tmp_path / "c.svg"
        render_svg([("flat", AggregateSeries([3.0, 3.0, 3.0], [0.0, 0.0, 0.0]))], path)
        polys = svg_elements(path, "polygon")
        assert len(polys) == 1
        ys = {pt.split(",")[1] for pt in polys[0].get("points").split()}
        assert len(ys) == 1
        lines = svg_elements(path, "polyline")
        line_ys = {pt.split(",")[1] for pt in lines[0].get("points").split()}
        assert line_ys == ys

    def test_legend_order(self, tmp_path):
        path = tmp_path / "c.svg"
        render_svg([("alpha", AggregateSeries([1.0], [0.0])),
                    ("<b&c>", AggregateSeries([2.0], [0.0]))], path)
        root = ET.parse(path).getroot()
        legend = [el for el in root.iter() if el.get("id") == "legend"][0]
        texts = [el.text for el in legend.iter() if el.tag.endswith("text")]
        assert texts == ["alpha", "<b&c>"]  # escaped in the file

    def test_label_with_characters_xml_forbids_parses(self, tmp_path):
        # A file name may hold any byte but "/" and NUL, an undecodable one
        # as a surrogate; the legend shows U+FFFD for each character XML 1.0
        # forbids, escaped or not.
        path = tmp_path / "c.svg"
        label = "a\x01b\x08\x0b\x0c\x1f\tc\ufffe\uffffd\udcff\ud800\x7f\n<&>"
        render_svg([(label, AggregateSeries([1.0, 2.0], [0.0, 0.0]))], path)
        legend = [el for el in ET.parse(path).getroot().iter() if el.get("id") == "legend"][0]
        texts = [el.text for el in legend.iter() if el.tag.endswith("text")]
        assert texts == ["a\ufffdb" + "\ufffd" * 4 + "\tc\ufffd\ufffdd\ufffd\ufffd\x7f\n<&>"]

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_svg([], tmp_path / "c.svg")

    @pytest.mark.parametrize("mean,std", [([1e308, 1e308], [1e308, 0.0]), ([1e300], [0.0])])
    def test_values_too_large_to_scale_rejected(self, tmp_path, mean, std):
        with pytest.raises(ValueError, match="too large to plot"):
            render_svg([("big", AggregateSeries(mean, std))], tmp_path / "c.svg")
        assert not (tmp_path / "c.svg").exists()


class TestEvaluate:
    def _train_and_save(self, tmp_path, **over):
        cfg = tiny_config(**over)
        _, trainer = run_training(cfg, 0)
        ckpt = tmp_path / "checkpoints"
        save_checkpoints(trainer, cfg.algo, ckpt)
        return cfg, ckpt

    def test_deterministic(self, tmp_path):
        cfg, ckpt = self._train_and_save(tmp_path)
        a = evaluate(cfg, ckpt, 3)
        b = evaluate(cfg, ckpt, 3)
        assert a == b

    def test_reports_true_returns_under_noise(self, tmp_path):
        # Saturated-low actor: every action is (numerically) zero watts, so
        # the true return is exactly the queue penalty accumulated by an
        # action-free environment rollout, even with reward noise active.
        cfg, ckpt = self._train_and_save(tmp_path)
        cfg = replace(cfg, env=replace(cfg.env, noise_level=50.0))
        for m in range(cfg.env.n_users):
            p = ckpt / f"{cfg.algo}_{m}_actor.json"
            doc = json.loads(p.read_text())
            doc["w1"]["data"] = [0.0] * len(doc["w1"]["data"])
            doc["b1"]["data"] = [0.0] * len(doc["b1"]["data"])
            doc["w2"]["data"] = [0.0] * len(doc["w2"]["data"])
            doc["b2"]["data"] = [-60.0, -60.0]
            p.write_text(json.dumps(doc))
        summary = evaluate(cfg, ckpt, 2)

        from mecrl.env import Action, MecEnv
        env = MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, cfg.n_runs))
        expected = []
        for _ in range(2):
            env.reset()
            total = np.zeros(cfg.env.n_users)
            for _ in range(cfg.env.episode_len):
                res = env.step([Action(0.0, 0.0)] * cfg.env.n_users)
                total += res.true_rewards
            expected.append(float(np.mean(total)))
        assert summary.episode_returns == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("algo", ["ddpg", "maddpg", "rmaddpg"])
    @pytest.mark.parametrize("users,antennas", [(2, 4), (8, 8)])
    def test_lockstep_equals_per_episode_rollout(self, tmp_path, algo, users, antennas):
        cfg, ckpt = self._train_and_save(tmp_path, algo=algo, episodes=2, env={
            "n_users": users, "n_antennas": antennas, "episode_len": 8, "noise_level": 0.5})
        for episodes in (1, 5):
            assert evaluate(cfg, ckpt, episodes) == reference_rollout(cfg, ckpt, episodes)

    def test_groups_within_the_budget_give_the_same_summary(self, tmp_path, monkeypatch):
        cfg, ckpt = self._train_and_save(tmp_path, env={"n_users": 2, "episode_len": 8,
                                                        "noise_level": 0.5})
        whole = evaluate(cfg, ckpt, 5)
        episode_bytes = cfg.env.reset_slot_bytes() * cfg.env.episode_len
        rolled = bad_actions(monkeypatch, cfg.env.episode_len, [])
        # Episodes per act call: a pass rolls all its episodes together.
        for group, sizes in [(None, [5]), (1, [1] * 5), (2, [2, 2, 1])]:
            if group is not None:
                # The largest budget that still holds only `group` episodes.
                monkeypatch.setattr(runner, "RESET_BUDGET_BYTES",
                                    int(episode_bytes * (group + 1)) - 1)
            rolled.clear()
            assert evaluate(cfg, ckpt, 5) == whole
            assert rolled == [k for k in sizes for _ in range(cfg.env.episode_len)]

    def test_each_episode_is_drawn_once_by_the_caller(self, tmp_path, monkeypatch):
        cfg, ckpt = self._train_and_save(tmp_path, env={"n_users": 2, "episode_len": 8,
                                                        "noise_level": 0.5})
        draws = []

        def counted_arrivals(cfg, rng, n_slots):
            draws.append(n_slots)
            return draw_arrivals(cfg, rng, n_slots)

        monkeypatch.setattr("mecrl.env.draw_arrivals", counted_arrivals)
        for episodes in (2, 5):
            ref = reference_rollout(cfg, ckpt, episodes)
            draws.clear()
            assert evaluate(cfg, ckpt, episodes) == ref
            assert len(draws) == episodes

    @pytest.mark.parametrize("step_fails", [False, True])
    def test_failed_draw_rolls_the_episodes_before_it(self, tmp_path, monkeypatch, step_fails):
        # Episode 2's draw fails inside a group of 5: episodes 0 and 1 are
        # still rolled, and the error reported is the earliest episode's,
        # episode 1's NaN action at slot 3 if it takes one.
        cfg, ckpt = self._train_and_save(tmp_path)
        draws = []

        def failing_arrivals(cfg, rng, n_slots):
            draws.append(n_slots)
            if len(draws) == 3:
                raise ValueError("episode 2: draw failed")
            return draw_arrivals(cfg, rng, n_slots)

        monkeypatch.setattr("mecrl.env.draw_arrivals", failing_arrivals)
        rolled = bad_actions(monkeypatch, cfg.env.episode_len, [(1, 3, 0, 0)] * step_fails)
        failed = ("evaluation episode 1, slot 3: user 0: p_offload_w=nan outside" if step_fails
                  else "episode 2: draw failed")
        with pytest.raises(ValueError, match=failed):
            evaluate(cfg, ckpt, 5)
        t = cfg.env.episode_len
        assert rolled == ([2] * 4 + [1] * (t - 4) if step_fails else [2] * t)

    @pytest.mark.parametrize("value", [np.nan, -0.5, 2.5])
    @pytest.mark.parametrize("user,k", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_bad_action_names_its_episode_and_slot(self, tmp_path, monkeypatch, value, user, k):
        # Passes of 3 episodes: episode 4, the middle of the second pass,
        # takes a NaN, negative or above-p_max power at slot 3, and episode
        # 5 after it one at slot 1. Episode 4's error is raised, with step's
        # text after its episode and slot.
        cfg, ckpt = self._train_and_save(tmp_path)
        episode_bytes = cfg.env.reset_slot_bytes() * cfg.env.episode_len
        monkeypatch.setattr(runner, "RESET_BUDGET_BYTES", int(episode_bytes * 4) - 1)
        rolled = bad_actions(monkeypatch, cfg.env.episode_len,
                             [(4, 3, user, k), (5, 1, 1 - user, 1 - k)], value)
        name = ("p_offload_w", "p_local_w")[k]
        with pytest.raises(ActionError) as raised:
            evaluate(cfg, ckpt, 6)
        assert str(raised.value) == (f"evaluation episode 4, slot 3: user {user}: "
                                     f"{name}={value} outside [0, 2.0]")
        t = cfg.env.episode_len
        assert rolled == [3] * t + [3] * 2 + [2] * 2 + [1] * (t - 4)

    def test_missing_checkpoint(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(FileNotFoundError):
            evaluate(cfg, tmp_path / "nowhere", 2)

    def test_shape_mismatch(self, tmp_path):
        cfg, ckpt = self._train_and_save(tmp_path)
        bad = replace(cfg, env=replace(cfg.env, constants=replace(cfg.env.constants, n_antennas=3)))
        with pytest.raises(ConfigError, match="shape"):
            evaluate(bad, ckpt, 2)


class TestCli:
    def test_users_ten_orders_of_magnitude_apart_train(self, tmp_path, capsys):
        # Path gains 1e-3 and 1e-15: every Gram pivot is far below 1e-12 of
        # the largest diagonal entry, but not of its own row's.
        cfg_path = write_cfg(tmp_path, env={"n_users": 2, "episode_len": 6,
                                            "distances_m": [1, 10000]})
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_train_writes_documented_tree(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        expected = {"resolved_config.json", "run_0.csv", "run_1.csv",
                    "aggregate.csv", "curves.svg", "checkpoints"}
        assert {p.name for p in out.iterdir()} == expected
        ckpts = {p.name for p in (out / "checkpoints").iterdir()}
        assert ckpts == {f"ddpg_{m}_{role}.json" for m in range(2)
                        for role in ("actor", "actor_target", "critic", "critic_target")}

    def test_train_run_override(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "alt"
        assert main(["train", "--config", str(cfg_path), "--runs", "1",
                     "--out", str(out)]) == 0
        assert (out / "run_0.csv").exists() and not (out / "run_1.csv").exists()

    def test_plot_overlays_two_curves(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        main(["train", "--config", str(cfg_path)])
        agg = tmp_path / "out" / "aggregate.csv"
        other = tmp_path / "other.csv"
        other.write_bytes(agg.read_bytes())
        svg = tmp_path / "overlay.svg"
        assert main(["plot", "--in", str(agg), str(other), "--out", str(svg)]) == 0
        assert len(svg_elements(svg, "polyline")) == 2

    def test_eval_round_trip(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        main(["train", "--config", str(cfg_path)])
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoints", str(tmp_path / "out" / "checkpoints"),
                     "--episodes", "2"])
        assert code == 0
        assert "mean true return" in capsys.readouterr().out

    def test_grid_creates_cells(self, tmp_path):
        cfg_path = write_cfg(tmp_path, n_runs=1, episodes=1, out_dir=str(tmp_path / "grid"))
        assert main(["grid", "--config", str(cfg_path),
                     "--gamma", "0.95,0.99", "--noise", "200,300"]) == 0
        names = {p.name for p in (tmp_path / "grid").iterdir()}
        assert names == {"g0.95_n200", "g0.95_n300", "g0.99_n200", "g0.99_n300"}
        cell = tmp_path / "grid" / "g0.95_n200"
        assert (cell / "ddpg" / "aggregate.csv").exists()
        assert (cell / "rmaddpg" / "aggregate.csv").exists()
        assert (cell / "curves.svg").exists()

    def test_unknown_flag_exits_one_with_usage(self, tmp_path, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"episodes": 0}')
        assert main(["train", "--config", str(path)]) == 1

    @pytest.mark.parametrize("section,key,value", [
        ("trainer", "hidden", '"64"'),
        ("trainer", "batch_size", "12.5"),
        (None, "episodes", "1.5"),
        ("env", "task_size_bits", "5"),
        ("env", "task_size_bits", "[2305843009213693952, 2305843009213693952]"),  # sums wrap int64
        ("env", "w_energy", "Infinity"),
        ("trainer", "lr_critic", "NaN"),
        ("env", "noise_level", "NaN"),
        ("env", "w_queue", "1e999"),
        ("env", "w_energy", "1" + "0" * 400),
        ("env", "n_users", "true"),
        ("env", "n_users", str(10**30)),
        ("env", "n_users", str(2**62)),
        ("env", "n_users", "10000000"),
        ("env", "n_antennas", str(10**9)),
        ("env", "buffer_cap_bits", str(2**53 + 1)),   # backlogs must convert to float64 exactly
        ("env", "buffer_cap_bits", str(2**54)),
        ("env", "g0_db", "1e308"),
        ("env", "noise_power_w", "1e-320"),
        ("env", "noise_power_w", "0"),
        ("env", "rho", "1.5"),
        ("env", "distances_m", "0"),
        ("env", "noise_level", "-1"),
        ("trainer", "tau_soft", "1.5"),
        ("env", "arrival_rate", "1e6"),
        ("env", "arrival_rate", "1e308"),
        ("env", "episode_len", "1000000"),
        ("env", "episode_len", "1" + "0" * 400),
    ])
    def test_bad_value_exits_one_with_one_line(self, tmp_path, capsys, section, key, value):
        cfg_path = write_cfg(tmp_path)
        doc = json.loads(cfg_path.read_text())
        (doc[section] if section else doc)[key] = "@value@"
        cfg_path.write_text(json.dumps(doc).replace('"@value@"', value))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mecrl: error:") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("w_energy", "1e308"),        # the rewards overflow in float64 already
        ("w_energy", "1e39"),         # finite in float64, beyond the float32 replay ring's range
        ("p_max_local_w", "1e300"),   # infinite local capacity, then the energy term overflows
    ])
    def test_diverging_training_exits_one_naming_the_network(self, tmp_path, capsys, key, value):
        cfg_path = write_cfg(tmp_path)
        doc = json.loads(cfg_path.read_text())
        doc["env"][key] = "@value@"
        cfg_path.write_text(json.dumps(doc).replace('"@value@"', value))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("mecrl: error: training run 0, episode 0: "
                       "agent 0 critic: loss not finite\n"), err
        # Only a complete tree has its resolved config.
        assert not (tmp_path / "out" / "resolved_config.json").exists()

    def test_zero_runs_override_exits_one_with_one_line(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--runs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mecrl: error:") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_grid_rejects_nonfinite_level(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert main(["grid", "--config", str(cfg_path), "--gamma", "0.95",
                     "--noise", "nan"]) == 1
        assert capsys.readouterr().err.startswith("mecrl: error:")
        assert not (tmp_path / "out").exists()

    def test_grid_rejects_out_of_range_gamma(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert main(["grid", "--config", str(cfg_path), "--gamma", "1.5",
                     "--noise", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mecrl: error: gamma") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("failing", [(1,), (1, 2)])
    def test_parallel_tree_reports_the_earliest_failing_run(self, tmp_path, capsys,
                                                            monkeypatch, failing):
        real = cli.run_training

        def run_training(cfg, k):
            if k in failing:
                if k == 1:
                    time.sleep(0.2)  # run 2 fails first
                raise TrainingDiverged(f"episode 0: run {k} diverged")
            return real(cfg, k)

        # The forked workers inherit the patch.
        monkeypatch.setattr(cli, "run_training", run_training)
        cfg_path = write_cfg(tmp_path, n_runs=3)
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == "mecrl: error: episode 0: run 1 diverged\n"
            assert not (out / "resolved_config.json").exists()
            assert multiprocessing.active_children() == []

    def test_killed_worker_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch):
        real, caller = cli.run_training, os.getpid()

        def run_training(cfg, k):
            if k == 1:
                assert os.getpid() != caller, "run 1 trains in a worker"
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cfg, k)

        monkeypatch.setattr(cli, "run_training", run_training)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["train", "--config", str(write_cfg(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err == "mecrl: i/o error: the process training run 1 exited with code -9\n", err
        assert not (tmp_path / "out" / "resolved_config.json").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [(1,), (1, 2)])
    def test_parallel_eval_reports_the_earliest_failing_episode(self, tmp_path, capsys,
                                                                monkeypatch, failing):
        # Episode 1 takes a NaN offload power at slot 3 and episode 2 a NaN
        # local power at slot 1, before it: episode 1's error is reported.
        cfg_path, ckpt = trained_tree(tmp_path)
        at = {1: (1, 3, 0, 0), 2: (2, 1, 1, 1)}
        rolled = bad_actions(monkeypatch, load_config(cfg_path).env.episode_len,
                             [at[k] for k in failing])
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            rolled.clear()
            assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt),
                         "--episodes", "5"]) == 1
            assert capsys.readouterr() == ("", "mecrl: error: evaluation episode 1, slot 3: "
                                               "user 0: p_offload_w=nan outside [0, 2.0]\n")
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("per_pass", [None, 1])
    def test_nonfinite_eval_episode_is_reported_before_a_later_bad_action(
            self, tmp_path, capsys, monkeypatch, per_pass):
        # Under an energy weight of 1e308, user 0 at full power at slot 0
        # makes episode 1's returns -inf, and episode 3 takes a NaN offload
        # power at slot 1. Every other power of user 0 is 0, so no other
        # episode overflows. Episode 1's error is reported whether the five
        # episodes roll in one pass or one pass each.
        cfg_path, ckpt = trained_tree(tmp_path)
        doc = json.loads(cfg_path.read_text())
        doc["env"]["w_energy"] = [1e308, 0]
        cfg_path.write_text(json.dumps(doc))
        cfg = load_config(cfg_path)
        if per_pass:
            episode_bytes = cfg.env.reset_slot_bytes() * cfg.env.episode_len
            monkeypatch.setattr(runner, "RESET_BUDGET_BYTES",
                                int(episode_bytes * (per_pass + 1)) - 1)
        slots = cfg.env.episode_len
        bad_actions(monkeypatch, slots, [(e, t, 0, k) for e in (0, 2, 3, 4)
                                         for t in range(slots) for k in (0, 1)], value=0.0)
        bad_actions(monkeypatch, slots, [(1, 0, 0, 0), (1, 0, 0, 1)], value=2.0)
        rolled = bad_actions(monkeypatch, slots, [(3, 1, 0, 0)])
        assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt),
                     "--episodes", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(
            r"mecrl: error: evaluation episode 1: true returns \(-inf, -\d+\.\d+\) do not sum "
            r"to a finite value; the rewards overflow float64\n", err), err
        # One pass stops episodes 3 and 4 at slot 1; one-episode passes
        # stop after episode 1.
        assert rolled == ([5, 5, 3, 3, 3, 3] if per_pass is None else [1] * 2 * slots)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_singular_slot_in_training_exits_one_with_one_line(self, tmp_path, capsys,
                                                                monkeypatch, cpus):
        # Slot 3 of run 0's second reset is singular; run 0 trains in this
        # process. The run ends there, and so does the tree.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        singular_slot(monkeypatch, 1, 3, pid=os.getpid())
        assert main(["train", "--config", str(write_cfg(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mecrl: error: training run 0, episode 1, slot 3: "
                              "zero-forcing channel failed: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out" / "resolved_config.json").exists()
        assert multiprocessing.active_children() == []

    def test_singular_slot_in_eval_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch):
        # Slot 2 of episode 3 is singular; this process draws every episode.
        cfg_path, ckpt = trained_tree(tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        singular_slot(monkeypatch, 3, 2)
        assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt),
                     "--episodes", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("mecrl: error: evaluation episode 3, slot 2: "
                                            "zero-forcing channel failed: "), err
        assert err.count("\n") == 1, err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_nonfinite_checkpoint_exits_one_naming_the_file(self, tmp_path, capsys, value):
        cfg_path, ckpt = trained_tree(tmp_path)
        path = ckpt / "ddpg_1_actor.json"
        doc = json.loads(path.read_text())
        doc["b1"]["data"][0] = "@value@"
        path.write_text(json.dumps(doc).replace('"@value@"', value))
        assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err == f"mecrl: error: {path}: layer b1: value {float(value)} is not finite\n", err

    def test_oversized_integer_in_config_exits_one_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"episodes": ' + "1" * 5000 + "}")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"mecrl: error: {path}: Exceeds the limit (4300 digits)"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_exits_one_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"mecrl: error: {path}: JSON nested too deeply to parse\n")

    def test_deeply_nested_checkpoint_exits_one_naming_the_file(self, tmp_path, capsys):
        cfg_path, ckpt = trained_tree(tmp_path)
        path = ckpt / "ddpg_1_actor.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt)]) == 1
        assert capsys.readouterr() == (
            "", f"mecrl: error: {path}: JSON nested too deeply to parse\n")

    @pytest.mark.parametrize("shape,why", [
        ([64, "x"], "shape [64, 'x'] is not a list of positive integers"),
        ([64.0, 6], "shape [64.0, 6] is not a list of positive integers"),
        ([10**6, 10**6], "shape [1000000, 1000000] takes 1000000000000 values, got 384 values"),
    ])
    def test_malformed_checkpoint_shape_exits_one_naming_the_layer(self, tmp_path, capsys,
                                                                   shape, why):
        cfg_path, ckpt = trained_tree(tmp_path)
        path = ckpt / "ddpg_0_actor.json"
        doc = json.loads(path.read_text())
        doc["w1"]["shape"] = shape
        path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(cfg_path), "--checkpoints", str(ckpt)]) == 1
        assert capsys.readouterr() == ("", f"mecrl: error: {path}: layer w1: {why}\n")

    @pytest.mark.parametrize("row,why", [
        ("1,-2.5", "expected at least 3 cells, got 2"),
        ("1,-2.5,x", "could not convert string to float: 'x'"),
        ("1,nan,0.0", "mean and std must be finite, got 'nan' and '0.0'"),
        ("1,-2.5,inf", "mean and std must be finite, got '-2.5' and 'inf'"),
    ])
    def test_bad_aggregate_row_exits_one_naming_the_line(self, tmp_path, capsys, row, why):
        path = tmp_path / "aggregate.csv"
        path.write_text(f"episode,mean_return,std_return,run0\n0,-3.0,0.0,-3.0\n{row}\n")
        assert main(["plot", "--in", str(path), "--out", str(tmp_path / "p.svg")]) == 1
        assert capsys.readouterr() == ("", f"mecrl: error: {path}: line 3: {why}\n")
        assert not (tmp_path / "p.svg").exists()

    def test_plot_labels_sibling_cells_by_their_paths(self, tmp_path, monkeypatch):
        # Two cells' ddpg/aggregate.csv, one given relative to the working
        # directory and one absolute: each label is the path below grid/.
        paths = []
        for cell in ("g0.95_n0", "g0.95_nprobe"):
            path = tmp_path / "grid" / cell / "ddpg" / "aggregate.csv"
            path.parent.mkdir(parents=True)
            path.write_text("episode,mean_return,std_return,run0\n0,-3.0,0.0,-3.0\n")
            paths.append(path)
        monkeypatch.chdir(tmp_path)
        svg = tmp_path / "p.svg"
        assert main(["plot", "--in", str(paths[0].relative_to(tmp_path)), str(paths[1]),
                     "--out", str(svg)]) == 0
        legend = [el for el in ET.parse(svg).getroot().iter() if el.get("id") == "legend"][0]
        assert [el.text for el in legend.iter() if el.tag.endswith("text")] == [
            "g0.95_n0/ddpg/aggregate", "g0.95_nprobe/ddpg/aggregate"]

    def test_nonfinite_episode_return_exits_one_naming_run_and_episode(self, tmp_path, capsys):
        # Rewards of -1e308 times the powers overflow to -inf before
        # the warmup ends, so no update's guard sees them.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"env": {"episode_len": 4, "w_energy": 1e308},
                                        "episodes": 1, "n_runs": 1,
                                        "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", "mecrl: error: training run 0, episode 0: true "
                                           "returns (-inf, -inf) do not sum to a finite value; "
                                           "the rewards overflow float64\n")
        assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []

    # Finite mean true returns near -1e201 per run and episode whose spread
    # squares beyond float64.
    OVERFLOW = {"env": {"episode_len": 4, "w_energy": 1e200}, "episodes": 2, "n_runs": 2}

    def test_overflowing_run_statistics_exit_one_with_one_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.OVERFLOW, "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", "mecrl: error: the standard deviation of episode 0's "
                                           "mean true returns over the runs overflows float64\n")
        # The runs' files are written; the tree's summaries are not.
        assert {p.name for p in (tmp_path / "out").iterdir()} == {"run_0.csv", "run_1.csv",
                                                                  "checkpoints"}

    @pytest.mark.parametrize("w_energy,stat", [(1e200, "standard deviation"), (1e307, "mean")])
    def test_overflowing_eval_statistics_exit_one_with_one_line(self, tmp_path, capsys,
                                                                w_energy, stat):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.OVERFLOW, "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(cfg_path), "--runs", "1"]) == 0
        capsys.readouterr()
        doc = {**self.OVERFLOW, "env": {**self.OVERFLOW["env"], "w_energy": w_energy}}
        cfg_path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(cfg_path), "--checkpoints",
                     str(tmp_path / "out" / "checkpoints"), "--episodes", "3"]) == 1
        assert capsys.readouterr() == ("", f"mecrl: error: the {stat} of the evaluation "
                                           f"episodes' true returns overflows float64\n")

    def test_plot_label_with_markup_characters(self, tmp_path, capsys):
        path = tmp_path / "a&b.csv"
        path.write_text("episode,mean_return,std_return,run0\n0,-3.0,0.0,-3.0\n")
        svg = tmp_path / "p.svg"
        assert main(["plot", "--in", str(path), "--out", str(svg)]) == 0
        legend = [el for el in ET.parse(svg).getroot().iter() if el.get("id") == "legend"][0]
        assert [el.text for el in legend.iter() if el.tag.endswith("text")] == ["a&b"]

    @pytest.mark.parametrize("key,value", [("buffer_capacity", 10**13), ("hidden", 10**14)])
    def test_impossible_size_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                     key, value):
        cfg_path = write_cfg(tmp_path, trainer={"warmup_steps": 5, "batch_size": 4,
                                                "buffer_capacity": 50, key: value})
        real = cli.run_training

        def run_training(cfg, k):
            if k == 0:  # run 0 trains, so that at 2 CPUs run 1's error is pickled back
                cfg = replace(cfg, trainer=replace(cfg.trainer, buffer_capacity=50, hidden=8))
            return real(cfg, k)

        monkeypatch.setattr(cli, "run_training", run_training)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert main(["train", "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("mecrl: error: Unable to allocate") and err.count("\n") == 1, err
            assert not (tmp_path / "out" / "resolved_config.json").exists()
            assert multiprocessing.active_children() == []

    @settings(max_examples=150, deadline=None, database=None)
    @given(doc=TRAIN_DOCUMENTS)
    def test_fuzzed_document_trains_or_exits_one_with_one_line(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps({**doc, "out_dir": str(Path(tmp) / "out")}))
            err = io.StringIO()
            # One CPU: the runs train here, where their warnings are seen.
            with (warnings.catch_warnings(record=True) as caught,
                  mock.patch.object(os, "sched_getaffinity", lambda pid: {0}),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = main(["train", "--config", str(path)])
        # A warning would print a line of its own.
        assert not caught, [str(w.message) for w in caught]
        assert (code, err.getvalue().count("\n")) in ((0, 0), (1, 1)), (code, err.getvalue())


class TestGridProbe:
    def test_probe_level_of_the_default_config(self):
        cfg = ExperimentConfig(n_runs=5, base_seed=0)
        assert repr(2.0 * runner.typical_reward_magnitude(cfg)) == "4.396725565121346"

    def test_probed_cell_is_the_train_tree_at_that_level(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, out_dir=str(tmp_path / "grid"))
        assert main(["grid", "--config", str(cfg_path), "--gamma", "0.95",
                     "--noise", "probe"]) == 0
        cfg = load_config(cfg_path)
        level = 2.0 * runner.typical_reward_magnitude(cfg)
        cell = tmp_path / "grid" / "g0.95_nprobe"
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"reward-noise level: {level:.3f}"
        assert {p.name for p in (tmp_path / "grid").iterdir()} == {cell.name}
        for algo, line in zip(("ddpg", "rmaddpg"), lines[1:]):
            want = tmp_path / "want" / algo
            agg = _train_tree(replace(cfg, algo=algo, out_dir=str(want),
                                      env=replace(cfg.env, noise_level=level),
                                      trainer=replace(cfg.trainer, gamma=0.95)))
            tail = agg.mean[-100:]
            assert line == f"{cell} {algo}: final-100 mean return {math.fsum(tail) / len(tail):.2f}"
            files = sorted(p.relative_to(want) for p in want.rglob("*"))
            assert files == sorted(p.relative_to(cell / algo) for p in (cell / algo).rglob("*"))
            for name in files:
                got, expected = (cell / algo / name), (want / name)
                if got.is_dir():
                    continue
                if name.name == "resolved_config.json":
                    assert (json.loads(got.read_text()) ==
                            {**json.loads(expected.read_text()), "out_dir": str(cell / algo)})
                else:
                    assert got.read_bytes() == expected.read_bytes(), name

    @pytest.mark.parametrize("gamma,noise", [("probe", "0"), ("0.95", "0,probes"),
                                             ("0.95", "Probe")])
    def test_misplaced_or_unknown_token_exits_one_with_one_line(self, tmp_path, capsys,
                                                                gamma, noise):
        cfg_path = write_cfg(tmp_path)
        assert main(["grid", "--config", str(cfg_path), "--gamma", gamma,
                     "--noise", noise]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("mecrl: error: bad ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_nonfinite_probe_level_exits_one_with_one_line(self, tmp_path, capsys):
        # Rewards near -1e308 make the mean magnitude overflow.
        cfg_path = write_cfg(tmp_path, env={"n_users": 2, "episode_len": 6, "w_energy": 1e308})
        assert main(["grid", "--config", str(cfg_path), "--gamma", "0.95",
                     "--noise", "0,probe"]) == 1
        assert capsys.readouterr() == (
            "", "mecrl: error: bad noise value 'probe': the level inf is not finite\n")
        assert not (tmp_path / "out").exists()


# Configs that validated but failed inside a slot: noise power times the
# zero-forcing norm underflows to 0, and a slot's rate overflows. The first
# is found by the reset that draws the slot, the second by the config.
FAILING_SLOT_ENVS = {
    "zero SINR divisor": ({"g0_db": 200.0, "distances_m": 1.0,
                           "noise_power_w": 2.2250738585072014e-308},
                          "{where}, slot 0: zero-forcing channel failed: noise_power_w times a "
                          "zero-forcing norm underflows to 0"),
    "infinite rate": ({"slot_s": 1e300, "bandwidth_hz": 1e300},
                      "slot_s * bandwidth_hz must be finite, got 1e+300 * 1e+300"),
}


class TestFailingSlotConfigs:
    @pytest.mark.parametrize("case", sorted(FAILING_SLOT_ENVS))
    def test_train_eval_and_probe_exit_one_with_one_line(self, tmp_path, capsys, case):
        env, message = FAILING_SLOT_ENVS[case]
        _, ckpt = trained_tree(tmp_path)
        cfg_path = write_cfg(tmp_path, env={"n_users": 2, "episode_len": 4, **env},
                             out_dir=str(tmp_path / "bad"))
        for command, extra, where in (
                ("train", [], "training run 0, episode 0"),
                ("eval", ["--checkpoints", str(ckpt)], "evaluation episode 0"),
                ("grid", ["--gamma", "0.95", "--noise", "0,probe"], "probe episode 0")):
            assert main([command, "--config", str(cfg_path), *extra]) == 1
            assert capsys.readouterr() == (
                "", "mecrl: error: " + message.format(where=where) + "\n")
        assert not (tmp_path / "bad" / "resolved_config.json").exists()


class _HalfDisk(io.FileIO):
    """A file whose write stores half the bytes and then fails, as a full
    disk would."""

    def write(self, data):
        super().write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestWriteAtomic:
    WRITERS = {
        "run csv": lambda path: write_run_csv([record([1.0, 2.0])], path),
        "aggregate csv": lambda path: write_csv(AggregateSeries([1.0], [0.0]),
                                                [[record([1.0])]], path),
        "svg": lambda path: render_svg([("a", AggregateSeries([1.0, 2.0], [0.0, 0.5]))], path),
        "checkpoint": lambda path: neural.save_params(
            neural.init_mlp(3, 2, np.random.default_rng(0), hidden=4), path),
        "resolved config": lambda path: save_config(ExperimentConfig(), path),
    }

    @pytest.mark.parametrize("fail_in", ["write", "replace"])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, writer, fail_in):
        path = tmp_path / "target"
        path.write_bytes(b"old bytes\n")
        if fail_in == "write":
            monkeypatch.setattr(files, "open", _HalfDisk, raising=False)
        else:
            def replace_fails(src, dst):
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

            monkeypatch.setattr(os, "replace", replace_fails)
        with pytest.raises(OSError):
            self.WRITERS[writer](path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_the_file_and_leaves_nothing_else(self, tmp_path, writer):
        path = tmp_path / "target"
        path.write_bytes(b"old bytes\n")
        self.WRITERS[writer](path)
        fresh = tmp_path / "fresh"
        self.WRITERS[writer](fresh)
        assert path.read_bytes() == fresh.read_bytes() != b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "target"]
