import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import cmatrix, phy, seeds
from mecrl.env import (Action, ActionError, ConfigError, EnvConfig, MecEnv,
                       StateError, TaskQueue, accepted_normals, draw_arrivals,
                       enqueue_arrivals, reward, serve_queue)


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
        assert np.all(draw_arrivals(cfg, rng, 100) == 0)

    def test_degenerate_size(self, rng):
        cfg = EnvConfig(arrival_rate=3.0, task_size_bits=(500, 500))
        assert np.all(draw_arrivals(cfg, rng, 200) % 500 == 0)

    def test_mean(self):
        rng = np.random.default_rng(42)
        cfg = EnvConfig(n_users=1, arrival_rate=2.0, task_size_bits=(250, 750))
        total = int(draw_arrivals(cfg, rng, 100_000).sum())
        assert total / 100_000 == pytest.approx(1000.0, rel=0.02)

    def test_compound_poisson_moments(self):
        # Per slot: mean λ·E[S], variance λ·E[S²], and no arrival with
        # probability e^-λ, for S uniform on the integers lo..hi. The
        # tolerances are about five standard errors at 10^5 slots.
        lam, lo, hi = 2.0, 250, 750
        cfg = EnvConfig(n_users=1, arrival_rate=lam, task_size_bits=(lo, hi))
        bits = draw_arrivals(cfg, np.random.default_rng(7), 100_000)[:, 0]
        mean_s = (lo + hi) / 2
        mean_s2 = ((hi - lo + 1) ** 2 - 1) / 12 + mean_s ** 2
        assert bits.mean() == pytest.approx(lam * mean_s, rel=0.012)
        assert bits.var() == pytest.approx(lam * mean_s2, rel=0.03)
        assert np.mean(bits == 0) == pytest.approx(np.exp(-lam), abs=0.006)

    def test_slot_sums_of_one_size_draw(self):
        # Counts come first, slot-major; then one size per task, in the
        # same order; each slot gets the sum of its own tasks' sizes.
        cfg = EnvConfig(n_users=3, arrival_rate=(0.0, 1.5, 4.0), task_size_bits=(1, 9))
        bits = draw_arrivals(cfg, np.random.default_rng(3), 40)
        rng = np.random.default_rng(3)
        counts = rng.poisson(cfg.arrival_rate, size=(40, 3))
        sizes = iter(rng.integers(1, 10, size=int(counts.sum())).tolist())
        ref = [[sum(next(sizes) for _ in range(c)) for c in row] for row in counts.tolist()]
        assert bits.tolist() == ref
        assert np.all(bits[:, 0] == 0)


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
    def test_zero_noise_identity(self):
        env, cfg = make_env(seed=6, noise_level=0.0)
        untouched = seeds.env_streams(6, 0)["rng_noise"].bit_generator.state
        env.reset()
        for r in range(cfg.episode_len):
            res = env.step([Action(0.1 * (r % 3), 0.5)] * cfg.n_users)
            assert res.perceived_rewards == res.true_rewards
        # A noiseless env draws nothing from its noise stream.
        assert env._rng_noise.bit_generator.state == untouched

    def test_bounded(self, rng):
        z, _ = accepted_normals(rng, 10_000, np.empty(0))
        vals = -10.0 + 200.0 * z
        assert np.all((-410.0 <= vals) & (vals <= 390.0))

    def test_mean(self):
        rng = np.random.default_rng(5)
        n = 20_000
        z, _ = accepted_normals(rng, n, np.empty(0))
        mean = float(np.mean(-7.0 + 50.0 * z))
        assert abs(mean + 7.0) <= 0.01 * 7.0 + 2 * 50.0 / np.sqrt(n)

    def test_matches_rejection_loop(self):
        # Chunks of any size, with the leftovers carried, give the values of
        # one draw-and-reject loop over the same stream, in order.
        ref_rng = np.random.default_rng(8)
        ref = []
        while len(ref) < 3000:
            z = ref_rng.standard_normal()
            if abs(z) <= 2.0:
                ref.append(z)
        rng, carry, got = np.random.default_rng(8), np.empty(0), []
        for n in (1, 7, 200, 0, 1792, 1000):
            z, carry = accepted_normals(rng, n, carry)
            assert z.size == n
            got.extend(z.tolist())
        assert got == ref

    def test_episodes_draw_one_continuous_sequence(self):
        # The noise of consecutive episodes is the accepted-draw sequence
        # of the stream, read slot by slot and user by user.
        env, cfg = make_env(seed=12, noise_level=3.0, episode_len=7)
        z, _ = accepted_normals(seeds.env_streams(12, 0)["rng_noise"], 3 * 7 * 2, np.empty(0))
        got = []
        for _ in range(3):
            env.reset()
            for _ in range(cfg.episode_len):
                res = env.step([Action(0.3, 0.2)] * cfg.n_users)
                got += [p - t for p, t in zip(res.perceived_rewards, res.true_rewards)]
        assert np.allclose(got, 3.0 * z, rtol=0, atol=1e-12)


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


class TestEpisodeTrace:
    def test_trace_does_not_depend_on_actions(self):
        # Channel, zero-forcing norms, arrivals and reward noise are drawn
        # at reset, and each episode's draws leave the streams where the
        # next episode starts, whatever the actions were.
        envs = [make_env(seed=30, noise_level=1.0, episode_len=15)[0] for _ in range(2)]
        cfg = envs[0].cfg
        rng = np.random.default_rng(1)
        p_max = np.column_stack((cfg.p_max_offload_w, cfg.p_max_local_w))
        for _ in range(3):
            for env in envs:
                env.reset()
            a, b = envs
            for name in ("_h", "_zf", "_arrivals", "_noise"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            for _ in range(cfg.episode_len):
                ra = a.step([Action(0.0, 0.0)] * cfg.n_users)
                rb = b.step([Action(*p) for p in rng.uniform(0.0, p_max).tolist()])
                assert [i["bits_arrived"] for i in ra.info] == [i["bits_arrived"] for i in rb.info]
                assert np.array_equal(a.channel.h, b.channel.h)


class TestSingularResample:
    """A singular channel draw is replaced by one fresh draw of the same
    stream, and the episode goes on: the draws a step-by-step evolution
    with one retry per slot makes."""

    @staticmethod
    def fail_at(monkeypatch, *slots):
        """invert_hpd fails at the given stack positions, one per call."""
        real = cmatrix.invert_hpd
        calls = []

        def flaky(a):
            calls.append(a)
            if len(calls) <= len(slots):
                raise cmatrix.SingularMatrixError("injected", slots[len(calls) - 1])
            return real(a)

        monkeypatch.setattr(cmatrix, "invert_hpd", flaky)
        return calls

    @staticmethod
    def per_step_reference(cfg, seed, singular_slots):
        """Channels of one episode drawn one slot at a time, each singular
        slot redrawn once from its own stream."""
        streams = seeds.env_streams(seed, 0)
        scale = np.sqrt(cfg.gains() / 2.0)
        rho = np.asarray(cfg.rho)
        shape = (cfg.constants.n_antennas, cfg.n_users)

        def draw(rng):
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            return scale * (re + 1j * im)

        h = draw(streams["rng_channel_init"])
        if 0 in singular_slots:
            h = draw(streams["rng_channel_init"])
        trace = [h]
        for t in range(1, cfg.episode_len + 1):
            innovation = draw(streams["rng_channel"])
            if t in singular_slots:
                innovation = draw(streams["rng_channel"])
            h = rho * h + np.sqrt(1.0 - rho * rho) * innovation
            trace.append(h)
        return trace

    def check_slots(self, monkeypatch, *slots):
        env, cfg = make_env(seed=4, episode_len=12)
        calls = self.fail_at(monkeypatch, *slots)
        env.reset()
        assert len(calls) == len(slots) + 1
        ref = self.per_step_reference(cfg, 4, slots)
        for t in range(cfg.episode_len):
            assert np.array_equal(env.channel.h, ref[t]), f"slot {t}"
            res = env.step([Action(1.0, 0.5)] * cfg.n_users)
            sinr = [i["sinr"] for i in res.info]
            zf = phy.zf_norms(ref[t])
            assert sinr == [1.0 / (cfg.constants.noise_power_w * z) for z in zf]
        assert np.array_equal(env.channel.h, ref[-1])
        assert env.slot == cfg.episode_len

    def test_reset_draws_one_replacement(self, monkeypatch):
        self.check_slots(monkeypatch, 0)

    def test_step_draws_one_replacement(self, monkeypatch):
        self.check_slots(monkeypatch, 5)

    def test_two_failures_at_later_slots(self, monkeypatch):
        self.check_slots(monkeypatch, 3, 9)

    def test_second_failure_at_one_slot_raises(self, monkeypatch):
        env, _ = make_env(seed=4)
        self.fail_at(monkeypatch, 5, 5)
        with pytest.raises(cmatrix.SingularMatrixError, match="injected"):
            env.reset()


class TestObsVector:
    def test_clipping(self):
        # A full buffer, a huge SINR and channel powers far above the clip
        # scale each read 1.
        env, cfg = make_env(obs_chan_clip=1e-12)
        env.reset()
        env.queues = [TaskQueue(cfg.buffer_cap_bits, 0) for _ in range(cfg.n_users)]
        env.prev_sinr = [1e9] * cfg.n_users
        v = env.obs_vectors()
        assert np.all(v <= 1.0) and np.all(v >= 0.0)
        assert np.all(v[:, 0] == 1.0) and np.all(v[:, 1] == 1.0)
        assert np.all(v[:, 2:] == 1.0)

    def test_rows_match_observations(self):
        # Each row is the user's Observation, scaled field by field.
        env, cfg = make_env(seed=5, noise_level=1.0)
        obs = env.reset()
        gains = cfg.gains()
        for _ in range(4):
            v = env.obs_vectors()
            for m, o in enumerate(obs):
                assert v[m, 0] == o.backlog_bits / cfg.buffer_cap_bits
                assert v[m, 1] == min(o.prev_sinr, cfg.obs_sinr_clip) / cfg.obs_sinr_clip
                assert np.array_equal(
                    v[m, 2:], np.minimum(o.chan_power / (cfg.obs_chan_clip * gains[m]), 1.0))
                h = env.channel.h[:, m]
                assert np.array_equal(o.chan_power, h.real * h.real + h.imag * h.imag)
            obs = env.step([Action(1.5, 0.2)] * cfg.n_users).observations
