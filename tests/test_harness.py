import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import seeds
from mecrl.agents import EpisodeStats
from mecrl.cli import _train_tree, main
from mecrl.config import (ExperimentConfig, config_from_dict, config_to_dict,
                          load_config, save_config)
from mecrl.env import ConfigError
from mecrl.runner import (AggregateSeries, aggregate_runs, evaluate,
                          read_aggregate_csv, run_training, save_checkpoints,
                          write_csv, write_run_csv)
from mecrl.svgplot import render_svg


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
                    ("beta", AggregateSeries([2.0], [0.0]))], path)
        root = ET.parse(path).getroot()
        legend = [el for el in root.iter() if el.get("id") == "legend"][0]
        texts = [el.text for el in legend.iter() if el.tag.endswith("text")]
        assert texts == ["alpha", "beta"]

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_svg([], tmp_path / "c.svg")


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
    def _write_cfg(self, tmp_path, **over):
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

    def test_train_writes_documented_tree(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        expected = {"resolved_config.json", "run_0.csv", "run_1.csv",
                    "aggregate.csv", "curves.svg", "checkpoints"}
        assert {p.name for p in out.iterdir()} == expected
        ckpts = {p.name for p in (out / "checkpoints").iterdir()}
        assert ckpts == {f"ddpg_{m}_{role}.json" for m in range(2)
                        for role in ("actor", "actor_target", "critic", "critic_target")}

    def test_train_run_override(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        out = tmp_path / "alt"
        assert main(["train", "--config", str(cfg_path), "--runs", "1",
                     "--out", str(out)]) == 0
        assert (out / "run_0.csv").exists() and not (out / "run_1.csv").exists()

    def test_plot_overlays_two_curves(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        main(["train", "--config", str(cfg_path)])
        agg = tmp_path / "out" / "aggregate.csv"
        other = tmp_path / "other.csv"
        other.write_bytes(agg.read_bytes())
        svg = tmp_path / "overlay.svg"
        assert main(["plot", "--in", str(agg), str(other), "--out", str(svg)]) == 0
        assert len(svg_elements(svg, "polyline")) == 2

    def test_eval_round_trip(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        main(["train", "--config", str(cfg_path)])
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoints", str(tmp_path / "out" / "checkpoints"),
                     "--episodes", "2"])
        assert code == 0
        assert "mean true return" in capsys.readouterr().out

    def test_grid_creates_cells(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, n_runs=1, episodes=1,
                                   out_dir=str(tmp_path / "grid"))
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
        ("env", "g0_db", "1e308"),
        ("env", "noise_power_w", "1e-320"),
        ("env", "noise_power_w", "0"),
        ("env", "rho", "1.5"),
        ("env", "distances_m", "0"),
        ("env", "noise_level", "-1"),
        ("trainer", "tau_soft", "1.5"),
    ])
    def test_bad_value_exits_one_with_one_line(self, tmp_path, capsys, section, key, value):
        cfg_path = self._write_cfg(tmp_path)
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
        cfg_path = self._write_cfg(tmp_path)
        doc = json.loads(cfg_path.read_text())
        doc["env"][key] = "@value@"
        cfg_path.write_text(json.dumps(doc).replace('"@value@"', value))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == "mecrl: error: episode 0: agent 0 critic: loss not finite\n", err
        # Only a complete tree has its resolved config.
        assert not (tmp_path / "out" / "resolved_config.json").exists()

    def test_zero_runs_override_exits_one_with_one_line(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--runs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mecrl: error:") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_grid_rejects_nonfinite_level(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        assert main(["grid", "--config", str(cfg_path), "--gamma", "0.95",
                     "--noise", "nan"]) == 1
        assert capsys.readouterr().err.startswith("mecrl: error:")
        assert not (tmp_path / "out").exists()

    def test_grid_rejects_out_of_range_gamma(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        assert main(["grid", "--config", str(cfg_path), "--gamma", "1.5",
                     "--noise", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mecrl: error: gamma") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_serial_and_parallel_trees_identical(self, tmp_path):
        # Updates and the reward-noise draw both run in every run.
        cfg = tiny_config(algo="rmaddpg", n_runs=3,
                          env={"n_users": 2, "episode_len": 8, "noise_level": 0.5})
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        _train_tree(replace(cfg, out_dir=str(serial)), workers=1)
        _train_tree(replace(cfg, out_dir=str(parallel)), workers=2)
        files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*")
                               if p.is_file())
        assert len(files) == 6 + 2 * 5  # config, 3 runs, aggregate, svg; 2 agents x 5 nets
        for rel in files:
            a, b = (serial / rel).read_bytes(), (parallel / rel).read_bytes()
            if rel.name == "resolved_config.json":
                a, b = ({**json.loads(x), "out_dir": None} for x in (a, b))
            assert a == b, rel

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "aggregate.csv").read_bytes()
                == (tmp_path / "b" / "aggregate.csv").read_bytes())


class TestNoisePair:
    def test_writes_two_grid_cells(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(repo / "src"),
                                                            os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, str(repo / "scripts" / "noise_pair.py"),
                        "--episodes", "1", "--runs", "2", "--workers", "2",
                        "--out", str(tmp_path)],
                       env=env, check=True, capture_output=True, timeout=120)
        for tag in ("clean", "noisy"):
            cell = tmp_path / tag
            assert {p.name for p in cell.iterdir()} == {"ddpg", "rmaddpg", "curves.svg"}
            for algo in ("ddpg", "rmaddpg"):
                assert {p.name for p in (cell / algo).iterdir()} == {
                    "resolved_config.json", "run_0.csv", "run_1.csv",
                    "aggregate.csv", "curves.svg", "checkpoints"}
