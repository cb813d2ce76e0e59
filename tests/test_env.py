import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import cmatrix, phy, seeds
from mecrl.env import (Action, ActionError, ConfigError, EnvConfig, MecEnv,
                       StateError, TaskQueue, enqueue_arrivals, obs_vector,
                       perturb_reward, reward, serve_queue, spawn_arrivals)


def make_env(seed=0, **overrides):
    cfg = EnvConfig(**overrides)
    return MecEnv(cfg, **seeds.env_streams(seed, 0)), cfg


class TestConfig:
    def test_defaults_validate(self):
        EnvConfig()

    def test_more_users_than_antennas(self):
        with pytest.raises(ConfigError):
            EnvConfig(n_users=5)

    def test_scalar_broadcast(self):
        cfg = EnvConfig(n_users=3, distances_m=50.0)
        assert cfg.distances_m == (50.0, 50.0, 50.0)

    def test_per_user_length_check(self):
        with pytest.raises(ConfigError):
            EnvConfig(n_users=2, rho=(0.9, 0.9, 0.9))

    def test_bad_task_sizes(self):
        with pytest.raises(ConfigError):
            EnvConfig(task_size_bits=(0, 100))


class TestArrivals:
    def test_zero_rate(self, rng):
        cfg = EnvConfig(arrival_rate=0.0)
        assert all(spawn_arrivals(cfg, 0, rng) == 0 for _ in range(100))

    def test_degenerate_size(self, rng):
        cfg = EnvConfig(arrival_rate=3.0, task_size_bits=(500, 500))
        for _ in range(200):
            assert spawn_arrivals(cfg, 0, rng) % 500 == 0

    def test_mean(self):
        rng = np.random.default_rng(42)
        cfg = EnvConfig(arrival_rate=2.0, task_size_bits=(250, 750))
        total = sum(spawn_arrivals(cfg, 0, rng) for _ in range(100_000))
        assert total / 100_000 == pytest.approx(1000.0, rel=0.02)


class TestQueueOps:
    def test_serve_both_paths(self):
        served_l, served_o, q = serve_queue(TaskQueue(1000, 0), 300, 500)
        assert (served_l, served_o, q.backlog_bits) == (300, 500, 200)

    def test_serve_clamps_at_zero(self):
        served_l, served_o, q = serve_queue(TaskQueue(100, 0), 200, 200)
        assert (served_l, served_o, q.backlog_bits) == (100, 0, 0)

    def test_serve_empty(self):
        served_l, served_o, q = serve_queue(TaskQueue(0, 0), 200, 200)
        assert (served_l, served_o, q.backlog_bits) == (0, 0, 0)

    def test_enqueue_plain(self):
        q = enqueue_arrivals(TaskQueue(200, 0), 200, 10**6)
        assert (q.backlog_bits, q.dropped_bits) == (400, 0)

    def test_enqueue_overflow(self):
        q = enqueue_arrivals(TaskQueue(1000, 5), 100, 1000)
        assert (q.backlog_bits, q.dropped_bits) == (1000, 105)

    def test_enqueue_zero(self):
        q = enqueue_arrivals(TaskQueue(77, 3), 0, 1000)
        assert (q.backlog_bits, q.dropped_bits) == (77, 3)

    @given(st.integers(0, 10**5), st.integers(0, 5000), st.integers(0, 5000),
           st.integers(0, 5000), st.integers(1, 10**5))
    @settings(max_examples=200, deadline=None)
    def test_conservation(self, backlog, cap_l, cap_o, arrived, cap):
        backlog = min(backlog, cap)
        q0 = TaskQueue(backlog, 0)
        sl, so, q1 = serve_queue(q0, cap_l, cap_o)
        q2 = enqueue_arrivals(q1, arrived, cap)
        dropped = q2.dropped_bits - q0.dropped_bits
        assert sl + so + q2.backlog_bits + dropped - arrived == backlog
        assert 0 <= q2.backlog_bits <= cap


class TestReward:
    def test_zero(self):
        cfg = EnvConfig()
        assert reward(cfg, 0, Action(0.0, 0.0), 0) == 0.0

    def test_hand_value(self):
        cfg = EnvConfig(w_energy=1.0, w_queue=1.0)
        assert reward(cfg, 0, Action(1.0, 0.5), 10) == pytest.approx(-11.5)

    def test_no_queue_weight(self):
        cfg = EnvConfig(w_queue=0.0)
        assert reward(cfg, 0, Action(0.25, 0.5), 10**6) == pytest.approx(-0.75)


class TestPerturbReward:
    def test_zero_noise_identity(self, rng):
        for r in (-5.0, 0.0, 3.25):
            assert perturb_reward(r, 0.0, rng) == r

    def test_bounded(self, rng):
        vals = [perturb_reward(-10.0, 200.0, rng) for _ in range(10_000)]
        assert all(-410.0 <= v <= 390.0 for v in vals)

    def test_mean(self):
        rng = np.random.default_rng(5)
        n = 20_000
        mean = sum(perturb_reward(-7.0, 50.0, rng) for _ in range(n)) / n
        assert abs(mean + 7.0) <= 0.01 * 7.0 + 2 * 50.0 / np.sqrt(n)


class TestReset:
    def test_initial_state(self):
        env, cfg = make_env()
        obs = env.reset()
        assert len(obs) == cfg.n_users
        assert all(o.backlog_bits == 0 and o.prev_sinr == 0.0 for o in obs)

    def test_observation_dimension(self):
        env, cfg = make_env()
        env.reset()
        vecs = env.obs_vectors()
        assert all(v.shape == (cfg.constants.n_antennas + 2,) for v in vecs)
        assert all(np.all((v >= 0) & (v <= 1)) for v in vecs)

    def test_same_seed_same_observations(self):
        env_a, _ = make_env(seed=9)
        env_b, _ = make_env(seed=9)
        for oa, ob in zip(env_a.reset(), env_b.reset()):
            assert np.array_equal(oa.chan_power, ob.chan_power)

    def test_step_before_reset(self):
        env, _ = make_env()
        with pytest.raises(StateError):
            env.step([Action(0, 0), Action(0, 0)])


class TestStep:
    def test_zero_actions(self):
        env, cfg = make_env()
        env.reset()
        res = env.step([Action(0.0, 0.0)] * cfg.n_users)
        for m in range(cfg.n_users):
            info = res.info[m]
            assert info["bits_local"] == 0 and info["bits_offloaded"] == 0
            assert res.observations[m].backlog_bits == info["bits_arrived"]
            expected = -cfg.w_queue[m] * info["bits_arrived"]
            assert res.true_rewards[m] == pytest.approx(expected)

    def test_determinism(self):
        results = []
        for _ in range(2):
            env, cfg = make_env(seed=21)
            env.reset()
            acts = [Action(1.0, 0.3), Action(0.2, 1.7)]
            results.append([env.step(acts) for _ in range(5)])
        for ra, rb in zip(*results):
            assert ra.true_rewards == rb.true_rewards
            assert ra.perceived_rewards == rb.perceived_rewards
            assert ra.info == rb.info
            for oa, ob in zip(ra.observations, rb.observations):
                assert np.array_equal(oa.chan_power, ob.chan_power)

    def test_conservation_over_episode(self):
        env, cfg = make_env(seed=3)
        env.reset()
        rng = np.random.default_rng(0)
        prev = [0] * cfg.n_users
        for _ in range(cfg.episode_len):
            acts = [Action(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
                    for _ in range(cfg.n_users)]
            res = env.step(acts)
            for m, info in enumerate(res.info):
                remaining = res.observations[m].backlog_bits
                assert (info["bits_local"] + info["bits_offloaded"] + remaining
                        + info["bits_dropped"] - info["bits_arrived"]) == prev[m]
                assert 0 <= remaining <= cfg.buffer_cap_bits
                prev[m] = remaining

    def test_infinite_local_capacity_serves_the_backlog(self):
        # p / kappa overflows to inf; the step serves the whole backlog.
        env, cfg = make_env(seed=4, constants=phy.PhyConstants(kappa=1e-320), p_max_local_w=1e300)
        assert phy.local_capacity(cfg.constants, 1e300) == float("inf")
        env.reset()
        res = env.step([Action(0.0, 0.0)] * cfg.n_users)
        res = env.step([Action(0.0, 1e300)] * cfg.n_users)
        for m, info in enumerate(res.info):
            assert info["bits_offloaded"] == 0 and info["bits_local"] > 0
            assert res.observations[m].backlog_bits == info["bits_arrived"]

    def test_out_of_range_action(self):
        env, _ = make_env()
        env.reset()
        with pytest.raises(ActionError):
            env.step([Action(2.5, 0.0), Action(0.0, 0.0)])
        with pytest.raises(ActionError):
            env.step([Action(0.0, -0.1), Action(0.0, 0.0)])

    def test_more_offload_power_never_hurts(self):
        # From the same state (identical seed and action prefix), one step
        # with higher transmit power never offloads less or queues more.
        for prefix in (0, 3, 10, 25):
            outcomes = []
            for p in (0.5, 1.5):
                env, _ = make_env(seed=17)
                env.reset()
                for _ in range(prefix):
                    env.step([Action(0.3, 0.4), Action(0.7, 0.7)])
                res = env.step([Action(p, 0.4), Action(0.7, 0.7)])
                outcomes.append((res.info[0]["bits_offloaded"],
                                 res.observations[0].backlog_bits))
            (off_lo, back_lo), (off_hi, back_hi) = outcomes
            assert off_hi >= off_lo
            assert back_hi <= back_lo

    def test_no_noise_perceived_equals_true(self):
        env, cfg = make_env(seed=2, noise_level=0.0)
        env.reset()
        for _ in range(cfg.episode_len):
            res = env.step([Action(1.0, 1.0)] * cfg.n_users)
            assert res.perceived_rewards == res.true_rewards

    def test_noise_perceived_differs_but_bounded(self):
        env, cfg = make_env(seed=2, noise_level=5.0)
        env.reset()
        diffs = []
        for _ in range(cfg.episode_len):
            res = env.step([Action(1.0, 1.0)] * cfg.n_users)
            for t, p in zip(res.true_rewards, res.perceived_rewards):
                diffs.append(abs(p - t))
                assert abs(p - t) <= 10.0
        assert max(diffs) > 0

    def test_episode_length_enforced(self):
        env, cfg = make_env(episode_len=3)
        env.reset()
        for _ in range(3):
            env.step([Action(0, 0)] * cfg.n_users)
        with pytest.raises(StateError):
            env.step([Action(0, 0)] * cfg.n_users)

    def test_sinr_carried_to_next_observation(self):
        env, _ = make_env(seed=4)
        env.reset()
        res = env.step([Action(1.0, 0.0), Action(0.5, 0.0)])
        assert [o.prev_sinr for o in res.observations] == [i["sinr"] for i in res.info]


class TestSingularResample:
    """A singular channel draw is replaced by one fresh draw of the same
    stream, and the episode goes on."""

    @staticmethod
    def raise_once(monkeypatch):
        real = cmatrix.invert_hpd
        calls = []

        def flaky(a):
            calls.append(a)
            if len(calls) == 1:
                raise cmatrix.SingularMatrixError("injected")
            return real(a)

        monkeypatch.setattr(cmatrix, "invert_hpd", flaky)
        return calls

    def test_reset_draws_one_replacement(self, monkeypatch):
        env, cfg = make_env(seed=4)
        calls = self.raise_once(monkeypatch)
        env.reset()
        assert len(calls) == 2
        rng = seeds.env_streams(4, 0)["rng_channel_init"]
        draws = [phy.init_channel(cfg.constants, cfg.gains(), cfg.rho, rng) for _ in range(2)]
        assert np.array_equal(env.channel.h, draws[1].h)
        env.step([Action(0.0, 0.0)] * cfg.n_users)
        assert env.slot == 1

    def test_step_draws_one_replacement(self, monkeypatch):
        env, cfg = make_env(seed=4)
        env.reset()
        before = env.channel
        calls = self.raise_once(monkeypatch)
        env.step([Action(1.0, 0.5)] * cfg.n_users)
        assert len(calls) == 2
        rng = seeds.env_streams(4, 0)["rng_channel"]
        draws = [phy.evolve_channel(before, rng) for _ in range(2)]
        assert np.array_equal(env.channel.h, draws[1].h)
        env.step([Action(1.0, 0.5)] * cfg.n_users)
        assert env.slot == 2


class TestObsVector:
    def test_clipping(self):
        cfg = EnvConfig()
        from mecrl.env import Observation
        obs = Observation(backlog_bits=cfg.buffer_cap_bits,
                          prev_sinr=1e9,
                          chan_power=np.full(4, 1e6))
        v = obs_vector(cfg, obs, gain=1e-9)
        assert np.all(v <= 1.0) and np.all(v >= 0.0)
        assert v[0] == 1.0 and v[1] == 1.0
