import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import cmatrix, phy, seeds
from mecrl.env import (MAX_BUFFER_BITS, RESET_BUDGET_BYTES, RESET_SLOT_BASE_BYTES,
                       RESET_SLOT_BYTES, RESET_TASK_BYTES, Action, ActionError, ConfigError,
                       EnvConfig, MecEnv, Observation, StateError, TaskQueue, accepted_normals,
                       draw_arrivals, roll_lockstep)

from conftest import edit_slot, singular_slot


def make_env(seed=0, **overrides):
    cfg = EnvConfig(**overrides)
    return MecEnv(cfg, **seeds.env_streams(seed, 0)), cfg


class TestConfig:
    def test_defaults_validate(self):
        EnvConfig()

    def test_infinite_rate_rejected(self):
        with pytest.raises(ConfigError, match=r"^slot_s \* bandwidth_hz must be finite"):
            phy.PhyConstants(slot_s=1e300, bandwidth_hz=1e300)

    def test_more_users_than_antennas(self):
        with pytest.raises(ConfigError):
            EnvConfig(n_users=5)

    def test_scalar_broadcast(self):
        cfg = EnvConfig(n_users=3, distances_m=50.0)
        assert cfg.distances_m == (50.0, 50.0, 50.0)

    def test_per_user_length_check(self):
        with pytest.raises(ConfigError):
            EnvConfig(n_users=2, rho=(0.9, 0.9, 0.9))

    def test_buffer_cap_is_at_most_2_to_the_53(self):
        assert EnvConfig(buffer_cap_bits=MAX_BUFFER_BITS).buffer_cap_bits == 2**53
        with pytest.raises(ConfigError, match=r"^buffer_cap_bits must satisfy 0 < cap <= 2\*\*53, "
                                              r"got 9007199254740993$"):
            EnvConfig(buffer_cap_bits=MAX_BUFFER_BITS + 1)

    def test_bad_task_sizes(self):
        with pytest.raises(ConfigError):
            EnvConfig(task_size_bits=(0, 100))

    @pytest.mark.parametrize("users,antennas,rate", [(1, 1, 0.0), (2, 4, 30.0), (8, 8, 2.0)])
    def test_reset_memory_within_the_estimate_the_bound_uses(self, users, antennas, rate):
        cfg = EnvConfig(n_users=users, constants=phy.PhyConstants(n_antennas=antennas),
                        arrival_rate=rate, noise_level=1.0, episode_len=2000)
        estimate = cfg.episode_len * (RESET_SLOT_BYTES * users * (antennas + 1)
                                      + RESET_SLOT_BASE_BYTES + RESET_TASK_BYTES * users * rate)
        assert estimate == cfg.reset_slot_bytes() * cfg.episode_len  # sizes eval groups
        env = MecEnv(cfg, **seeds.env_streams(0, 0))
        tracemalloc.start()
        try:
            env.reset()
            env.reset()  # the steady state
            peak = tracemalloc.get_traced_memory()[1]
            env.reset()
            # A pass of k episodes, all held, within k episodes' estimate.
            for k in (2, 3):
                tracemalloc.reset_peak()
                group = list(env.draws(k))
                assert len(group) == k
                group_peak = tracemalloc.get_traced_memory()[1]
                assert group_peak <= k * estimate, k
                del group
        finally:
            tracemalloc.stop()
        # A training episode holds its (T, M, 2) float64 exploration draw too.
        assert peak + 16 * users * cfg.episode_len <= estimate

    def test_episode_bounded_by_the_reset_budget(self):
        slot_bytes = RESET_SLOT_BYTES * 2 * 5 + RESET_SLOT_BASE_BYTES + RESET_TASK_BYTES * 2 * 2.0
        longest = int(RESET_BUDGET_BYTES // slot_bytes)
        EnvConfig(episode_len=longest)
        with pytest.raises(ConfigError, match=f"at most {longest} slots fit"):
            EnvConfig(episode_len=longest + 1)
        with pytest.raises(ConfigError, match="at most 0 slots fit"):
            EnvConfig(arrival_rate=(1e300, 1e300))
        with pytest.raises(ConfigError, match="arrival_rate entries must be nonnegative"):
            EnvConfig(arrival_rate=float("nan"))


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
        assert env.reset() is None
        assert env.backlog == [0] * cfg.n_users and env.prev_sinr == [0.0] * cfg.n_users
        v = env.obs_vectors()
        assert v.shape[0] == cfg.n_users
        assert np.all(v[:, 0] == 0.0) and np.all(v[:, 1] == 0.0)

    def test_observation_dimension(self):
        env, cfg = make_env()
        env.reset()
        vecs = env.obs_vectors()
        assert all(v.shape == (cfg.constants.n_antennas + 2,) for v in vecs)
        assert all(np.all((v >= 0) & (v <= 1)) for v in vecs)

    def test_same_seed_same_observations(self):
        env_a, _ = make_env(seed=9)
        env_b, _ = make_env(seed=9)
        env_a.reset()
        env_b.reset()
        assert np.array_equal(env_a.channel.h, env_b.channel.h)
        assert np.array_equal(env_a.obs_vectors(), env_b.obs_vectors())

    def test_step_before_reset(self):
        env, _ = make_env()
        with pytest.raises(StateError):
            env.step([Action(0, 0), Action(0, 0)])

    def test_second_reset_peak_within_the_first(self):
        # A reset releases the previous episode's trace before drawing the
        # next, so the steady state costs what a first reset costs.
        env, _ = make_env(n_users=8, constants=phy.PhyConstants(n_antennas=8),
                          noise_level=1.0, episode_len=2000)
        tracemalloc.start()
        try:
            env.reset()
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            env.reset()
            second = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second <= 1.1 * first

    def test_failed_reset_leaves_no_episode_to_step(self, monkeypatch):
        env, cfg = make_env(seed=3)
        env.reset()
        env.step([Action(0.5, 0.5)] * cfg.n_users)

        def broken(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(phy, "zf_norms", broken)
        with pytest.raises(RuntimeError, match="injected"):
            env.reset()
        assert env.slot is None and env.channel is None
        for name in ("_h", "_zf", "_chan_obs", "_arrivals", "_noise"):
            assert getattr(env, name) is None, name
        with pytest.raises(StateError):
            env.step([Action(0.5, 0.5)] * cfg.n_users)
        with pytest.raises(StateError):
            env.obs_vectors()


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

    def test_invalid_action_names_the_user_and_changes_nothing(self):
        env, cfg = make_env(seed=8, n_users=3, noise_level=1.0)
        env.reset()
        env.step([Action(1.0, 1.0)] * cfg.n_users)
        state = (env.backlog, env.dropped, env.prev_sinr, env.slot)
        copies = tuple(list(v) for v in state[:3])
        bad = [Action(1.0, 1.0), Action(1.0, 1.0), Action(1.0, 2.5)]
        with pytest.raises(ActionError, match="^user 2: p_local_w=2.5 outside"):
            env.step(bad)
        bad[1] = Action(float("nan"), 0.0)
        with pytest.raises(ActionError, match="^user 1: p_offload_w=nan outside"):
            env.step(bad)
        assert (env.backlog, env.dropped, env.prev_sinr, env.slot) == state
        assert tuple(list(v) for v in state[:3]) == copies

    @pytest.mark.parametrize("users,antennas", [(2, 4), (8, 8)])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_step_serves_local_first_and_conserves_bits(self, users, antennas, data):
        cap = data.draw(st.integers(1, 20_000), label="buffer_cap_bits")
        env, cfg = make_env(seed=data.draw(st.integers(0, 10**6), label="seed"), n_users=users,
                            constants=phy.PhyConstants(n_antennas=antennas),
                            buffer_cap_bits=cap, noise_level=1.0, episode_len=3)
        env.reset()
        env.backlog = before = data.draw(st.lists(st.integers(0, cap), min_size=users,
                                                  max_size=users), label="backlog")
        unit = st.floats(0.0, 1.0)
        actions = [Action(data.draw(unit) * cfg.p_max_offload_w[m],
                          data.draw(unit) * cfg.p_max_local_w[m]) for m in range(users)]
        res = env.step(actions)
        c = cfg.constants
        for m, (info, a) in enumerate(zip(res.info, actions)):
            after = env.backlog[m]
            assert res.observations[m].backlog_bits == after
            assert (before[m] + info["bits_arrived"] == info["bits_local"]
                    + info["bits_offloaded"] + after + info["bits_dropped"])
            local = min(math.floor(phy.local_capacity(c, a.p_local_w)), before[m])
            assert info["bits_local"] == local
            off = min(math.floor(phy.offload_capacity(c, info["sinr"])), before[m] - local)
            assert info["bits_offloaded"] == off
            assert 0 <= after <= cap
            assert info["bits_dropped"] == env.dropped[m] >= 0
            true = -cfg.w_energy[m] * (a.p_offload_w + a.p_local_w) - cfg.w_queue[m] * after
            assert math.isclose(res.true_rewards[m], true, rel_tol=1e-12, abs_tol=1e-300)

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

    def test_observations_read_after_later_steps_are_their_slots(self):
        # Each result is read only after the episode's last step, and a
        # reset into the next episode, have changed the env's state.
        env, cfg = make_env(seed=6, episode_len=5, noise_level=1.0)
        env.reset()
        results, expected = [], []
        for t in range(cfg.episode_len):
            results.append(env.step([Action(0.3 * t, 0.1 * t)] * cfg.n_users))
            h = env.channel.h
            expected.append((list(env.backlog), list(env.prev_sinr),
                             (h.real * h.real + h.imag * h.imag).T.copy()))
        env.reset()
        for res, (backlogs, sinrs, power) in zip(results, expected):
            for _ in range(2):  # built on the first read, the same list after it
                assert [o.backlog_bits for o in res.observations] == backlogs
                assert [o.prev_sinr for o in res.observations] == sinrs
                for m, o in enumerate(res.observations):
                    assert np.array_equal(o.chan_power, power[m])
        assert any(b != expected[0][0] for b, _, _ in expected)

    def test_info_read_after_later_steps_is_its_slot(self):
        # A twin env, read at once, gives each slot's info.
        env, cfg = make_env(seed=10, noise_level=1.0, buffer_cap_bits=1500)
        twin, _ = make_env(seed=10, noise_level=1.0, buffer_cap_bits=1500)
        env.reset()
        twin.reset()
        acts = np.random.default_rng(2).uniform(0.0, 1.0, size=(cfg.episode_len, cfg.n_users, 2))
        results, expected = [], []
        for t, row in enumerate(acts.tolist()):
            actions = [Action(*a) for a in row]
            results.append(env.step(actions))
            expected.append(twin.step(actions).info)
            if t >= 2:
                assert results[t - 2].info == expected[t - 2], f"slot {t - 2}"
        assert any(i["bits_dropped"] for res in results for i in res.info)

    def test_any_power_pairs_step_like_actions(self):
        # Rows of acts.tolist() step exactly as Actions do: results and state.
        a, cfg = make_env(seed=11, noise_level=0.5)
        b, _ = make_env(seed=11, noise_level=0.5)
        a.reset()
        b.reset()
        rng = np.random.default_rng(5)
        p_max = np.column_stack((cfg.p_max_offload_w, cfg.p_max_local_w))
        for _ in range(cfg.episode_len):
            acts = rng.uniform(0.0, p_max)
            ra = a.step(acts.tolist())
            rb = b.step([Action(p_off, p_loc) for p_off, p_loc in acts.tolist()])
            assert ra.true_rewards == rb.true_rewards
            assert ra.perceived_rewards == rb.perceived_rewards
            assert ra.info == rb.info
            for x, y in zip(ra.observations, rb.observations):
                assert (x.backlog_bits, x.prev_sinr) == (y.backlog_bits, y.prev_sinr)
                assert same_bytes(x.chan_power, y.chan_power)
            assert (a.backlog, a.dropped, a.prev_sinr, a.slot) == (
                b.backlog, b.dropped, b.prev_sinr, b.slot)
            assert same_bytes(a.obs_vectors(), b.obs_vectors())

    def test_queues_view(self):
        env, cfg = make_env(seed=4, buffer_cap_bits=1000)
        assert env.queues is None
        env.reset()
        for _ in range(5):
            env.step([Action(0.0, 0.0)] * cfg.n_users)
        assert env.queues == [TaskQueue(b, d) for b, d in zip(env.backlog, env.dropped)]
        assert any(q.dropped_bits for q in env.queues)
        with pytest.raises(AttributeError):
            env.queues = []


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


def same_bytes(a, b) -> bool:
    """Equal shapes, dtypes and bytes (NaN and signed zeros included)."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


TRACE = ("_h", "_zf", "_chan_obs", "_arrivals", "_noise")


def stream_states(env):
    return [env._rng_channel_init.bit_generator.state, env._rng_channel.bit_generator.state,
            env._rng_arrivals.bit_generator.state, env._rng_noise.bit_generator.state,
            env._noise_carry.tobytes()]


class TestResetGroup:
    """draws(k) draws what k resets draw, byte for byte, in one pass."""

    @staticmethod
    def sequential_and_group(k, seed=6, **overrides):
        """The traces of k resets after one warm-up reset, and the tuples
        of draws(k) on a twin env after the same warm-up."""
        seq, cfg = make_env(seed=seed, noise_level=0.5, episode_len=20, **overrides)
        grp, _ = make_env(seed=seed, noise_level=0.5, episode_len=20, **overrides)
        seq.reset()
        grp.reset()  # so the group starts mid-stream, with a noise carry
        expected = []
        for _ in range(k):
            seq.reset()
            expected.append([getattr(seq, name) for name in TRACE])
        items = list(grp.draws(k))
        return seq, grp, expected, items, cfg

    def check(self, k, **overrides):
        seq, grp, expected, items, cfg = self.sequential_and_group(k, **overrides)
        assert len(items) == k
        for p, (item, want) in enumerate(zip(items, expected)):
            assert len(item) == len(TRACE)
            for name, got, value in zip(TRACE, item, want):
                assert same_bytes(got, value), (p, name)
        assert stream_states(grp) == stream_states(seq)
        assert grp.slot is None and grp._h is None
        return items

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("users,antennas", [(2, 4), (8, 8)])
    def test_equals_sequential_resets(self, k, users, antennas):
        self.check(k, n_users=users, constants=phy.PhyConstants(n_antennas=antennas))

    @pytest.mark.parametrize("slot", [0, 5])
    def test_singular_middle_episode_raises_after_the_one_before(self, monkeypatch, slot):
        seq, _ = make_env(seed=6, noise_level=0.5, episode_len=20)
        grp, _ = make_env(seed=6, noise_level=0.5, episode_len=20)
        seq.reset()
        grp.reset()  # so the group starts mid-stream, with a noise carry
        seq.reset()
        singular_slot(monkeypatch, 1, slot)
        got = []
        with pytest.raises(cmatrix.SingularMatrixError, match=f"^matrix {slot}: "):
            for item in grp.draws(3):
                got.append(item)
        assert len(got) == 1
        for name, value in zip(TRACE, got[0]):
            assert same_bytes(value, getattr(seq, name)), name
        # The failing episode drew no arrivals and no noise.
        assert stream_states(grp)[2:] == stream_states(seq)[2:]
        assert grp.slot is None and grp._h is None

    def test_failed_draw_yields_the_episodes_before_it(self, monkeypatch):
        env, _ = make_env(seed=3)
        calls = []

        def failing_arrivals(cfg, rng, n_slots):
            calls.append(n_slots)
            if len(calls) == 3:
                raise ValueError("injected")
            return draw_arrivals(cfg, rng, n_slots)

        monkeypatch.setattr("mecrl.env.draw_arrivals", failing_arrivals)
        got = []
        with pytest.raises(ValueError, match="injected"):
            for item in env.draws(5):
                got.append(item)
        assert len(got) == 2
        assert env.slot is None and env._h is None

    @pytest.fixture
    def zf_calls(self, monkeypatch):
        """The slot count of each ``phy.zf_norms`` call from now on."""
        real, calls = phy.zf_norms, []

        def zf_norms(h):
            calls.append(len(h))
            return real(h)

        monkeypatch.setattr(phy, "zf_norms", zf_norms)
        return calls

    # At 2 users and 20 slots an episode's Gram stack is 21 * 2 * 2 * 16
    # bytes; this bound takes 3 episodes per zero-forcing call.
    CHUNK = 3
    SMALL_BOUND = CHUNK * 1344 + 1343

    @pytest.mark.parametrize("k", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_norms_in_chunks_equal_sequential_resets(self, monkeypatch, zf_calls, k):
        monkeypatch.setattr("mecrl.env.ZF_CHUNK_BYTES", self.SMALL_BOUND)
        self.check(k)  # stream states included
        # Two warm-up resets and k resets, then the group's chunks.
        chunks = [21 * min(self.CHUNK, k - first) for first in range(0, k, self.CHUNK)]
        assert zf_calls == [21] * (k + 2) + chunks

    @pytest.mark.parametrize("users,antennas,k,calls", [(2, 4, 20, [51 * 20]),
                                                        (2, 4, 21, [51 * 20, 51]),
                                                        (8, 8, 3, [51] * 3)])
    def test_default_bound(self, zf_calls, users, antennas, k, calls):
        # At 50 slots a 20-episode pass at 2 x 4 is one call; at 8 x 8 each
        # episode is its own call, and so is a reset.
        env, _ = make_env(n_users=users, constants=phy.PhyConstants(n_antennas=antennas),
                          episode_len=50)
        env.reset()
        assert len(list(env.draws(k))) == k
        assert zf_calls == [51] + calls

    @pytest.mark.parametrize("failure", ["singular", "zero divisor"])
    @pytest.mark.parametrize("episode", [1, 4])
    def test_failure_in_the_middle_of_a_chunk(self, monkeypatch, failure, episode):
        # Episode 1 is the middle of the first chunk of 3, episode 4 of the
        # second. With the least noise power, a slot scaled by 1e13 has
        # norms near 1e-18, whose product with it underflows to 0.
        monkeypatch.setattr("mecrl.env.ZF_CHUNK_BYTES", self.SMALL_BOUND)
        over = dict(seed=6, noise_level=0.5, episode_len=20,
                    constants=phy.PhyConstants(noise_power_w=sys.float_info.min))
        seq, _ = make_env(**over)
        grp, _ = make_env(**over)
        grp.reset()  # so the group starts mid-stream, with a noise carry
        seq.reset()
        expected = []
        for _ in range(episode):
            seq.reset()
            expected.append([getattr(seq, name) for name in TRACE])
        if failure == "singular":
            singular_slot(monkeypatch, episode, 5)
            error, reason = cmatrix.SingularMatrixError, ""
        else:
            edit_slot(monkeypatch, episode, 5, lambda h: np.multiply(h, 1e13, out=h))
            error, reason = cmatrix.MatrixError, "noise_power_w times a zero-forcing norm"
        got = []
        with pytest.raises(error, match=f"^matrix 5: {reason}"):
            for item in grp.draws(2 * self.CHUNK + 1):
                got.append(item)
        assert len(got) == episode
        for item, want in zip(got, expected):
            for name, value, got_value in zip(TRACE, want, item):
                assert same_bytes(got_value, value), name
        # The failing episode drew no arrivals and no noise.
        assert stream_states(grp)[2:] == stream_states(seq)[2:]
        assert grp.slot is None and grp._h is None


class TestRollLockstep:
    """roll_lockstep's array slot gives, byte for byte, what MecEnv.step
    gives each episode: observations, return sums and errors."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, database=None)
    def test_array_slot_equals_list_step(self, data):
        draw = data.draw
        users = draw(st.integers(1, 4), label="users")
        episodes, slots = draw(st.integers(1, 4), label="E"), draw(st.integers(1, 4), label="T")
        per_user = lambda values: st.lists(st.sampled_from(values), min_size=users,
                                           max_size=users)
        cfg = EnvConfig(
            n_users=users, episode_len=slots, noise_level=draw(st.sampled_from([0.0, 0.5])),
            # Gains of 1e3 with the least noise power make an infinite SINR.
            # The reset rejects a divisor of 0 (gains near 1e20), and the
            # config an infinite slot_s * bandwidth_hz, so neither is drawn.
            constants=phy.PhyConstants(
                n_antennas=draw(st.integers(users, 4)),
                noise_power_w=draw(st.sampled_from([1e-9, sys.float_info.min])),
                kappa=draw(st.sampled_from([1e-27, 1e-300])),
                slot_s=draw(st.sampled_from([1e-3, 1e150])),
                bandwidth_hz=draw(st.sampled_from([1e6, 1e150]))),
            path_loss=phy.PathLossModel(g0_db=draw(st.sampled_from([-30.0, 30.0]))),
            distances_m=draw(per_user([1.0, 100.0])),
            arrival_rate=draw(per_user([0.0, 2.0, 6.0])),
            buffer_cap_bits=draw(st.sampled_from([1, 700, 3000, MAX_BUFFER_BITS])),
            p_max_offload_w=draw(per_user([0.0, 0.3, 2.0, 5.0])),
            p_max_local_w=draw(per_user([0.0, 0.3, 2.0, 5.0])),
            w_energy=draw(per_user([0.0, 1.0, 0.1, 3.7])),
            w_queue=draw(per_user([0.0, 2e-4, 0.3])),
            obs_sinr_clip=draw(st.sampled_from([1.0, 100.0, 1e300])))
        p_max = np.column_stack((cfg.p_max_offload_w, cfg.p_max_local_w))
        seed = draw(st.integers(0, 10**6), label="seed")
        c = cfg.constants
        bad = {}
        for _ in range(draw(st.integers(0, 2), label="bad actions")):
            e, t = draw(st.integers(0, episodes - 1)), draw(st.integers(0, slots - 1))
            m, k = draw(st.integers(0, users - 1)), draw(st.integers(0, 1))
            bad[e, t, m, k] = draw(st.sampled_from([np.nan, -1e-3, p_max[m, k] + 1e-3]))

        def power(env, e, m, k):
            """A fraction of p_max, or the power whose capacity is b bits
            of the backlog in exact arithmetic: there a last-bit error in
            the capacity can move its floor."""
            t = env.slot
            if (e, t, m, k) in bad:
                return bad[e, t, m, k]
            b = draw(st.one_of(st.none(), st.integers(1, max(1, env.backlog[m]))))
            if b is None:
                return p_max[m, k] * draw(st.one_of(st.just(0.0), st.just(1.0),
                                                    st.floats(0.0, 1.0)))
            if k:
                p = c.kappa * (b * c.cycles_per_bit / c.slot_s) ** 3
            else:
                p = ((2.0 ** (b / (c.slot_s * c.bandwidth_hz)) - 1.0)
                     * c.noise_power_w * env._zf[t, m])
            return min(p, p_max[m, k])

        # The list step, one reset episode after the other, each to its error.
        acts = np.zeros((episodes, slots, users, 2))
        want_obs, want_sums, errors = [], [], []
        env = MecEnv(cfg, **seeds.env_streams(seed, 0))
        for e in range(episodes):
            env.reset()
            want_obs.append([])
            sums = [0.0] * users
            try:
                for t in range(slots):
                    want_obs[e].append(env.obs_vectors())
                    acts[e, t] = [[power(env, e, m, k) for k in range(2)] for m in range(users)]
                    step = env.step([Action(*a) for a in acts[e, t].tolist()])
                    sums = [v + r for v, r in zip(sums, step.true_rewards)]
            except ValueError as exc:
                errors.append((e, t, exc))
            want_sums.append(sums)

        seen = [[] for _ in range(episodes)]

        def policy(obs):
            t = len(seen[0])
            for e, row in enumerate(obs):
                assert len(seen[e]) == t, "a stopped episode is rolled again"
                seen[e].append(row.copy())
            return acts[:len(obs), t]

        drawn = list(MecEnv(cfg, **seeds.env_streams(seed, 0)).draws(episodes))
        if errors:
            first, at, error = errors[0]
            with pytest.raises(type(error)) as raised:
                roll_lockstep(cfg, drawn, policy)
            assert str(raised.value) == str(error)
            assert (raised.value.episode, raised.value.slot) == (first, at)
            # The episodes before the first failing one roll to the end; it
            # and the later ones stop at its failing slot, or before.
            assert [len(v) for v in seen[:first + 1]] == [slots] * first + [at + 1]
            assert all(len(v) <= at + 1 for v in seen[first:])
        else:
            assert np.array(roll_lockstep(cfg, drawn, policy)).tobytes() == np.array(
                want_sums).tobytes()
            assert [len(v) for v in seen] == [slots] * episodes
        for e, rows in enumerate(seen):
            assert np.array(rows).tobytes() == np.array(want_obs[e][:len(rows)]).tobytes()

    @pytest.mark.parametrize("bad,want", [
        ({(1, 1): 3.0, (2, 0): np.nan}, "user 1: p_local_w=3.0 outside [0, 2.0]"),
        ({(1, 1): 3.0, (1, 0): -1.0, (2, 0): np.nan}, "user 1: p_offload_w=-1.0 outside [0, 2.0]"),
    ])
    def test_error_is_steps_for_the_first_user_offload_first(self, bad, want):
        # Episode 1 of 2 takes bad powers at slot 0; step checks user by
        # user, each user's offload power before its local one.
        env, cfg = make_env(n_users=3, episode_len=4)
        drawn = list(env.draws(2))
        a = np.ones((2, 3, 2))
        for (m, k), value in bad.items():
            a[1, m, k] = value
        with pytest.raises(ActionError) as raised:
            roll_lockstep(cfg, drawn, lambda obs: a[:len(obs)])
        assert (str(raised.value), raised.value.episode, raised.value.slot) == (want, 1, 0)
        with pytest.raises(ActionError) as raised:
            env.reset()
            env.step([Action(*p) for p in a[1].tolist()])
        assert str(raised.value) == want


class TestSingularSlot:
    """A singular slot, or one whose SINR divisor is 0, raises from the
    reset that draws it; no channel is drawn again."""

    @pytest.mark.parametrize("slot", [0, 5])
    def test_reset_raises_and_the_env_will_not_step(self, monkeypatch, slot):
        env, cfg = make_env(seed=4, episode_len=12)
        env.reset()
        singular_slot(monkeypatch, 0, slot)
        with pytest.raises(cmatrix.SingularMatrixError, match=f"^matrix {slot}: "):
            env.reset()
        with pytest.raises(StateError):
            env.step([Action(1.0, 0.5)] * cfg.n_users)
        with pytest.raises(StateError):
            env.obs_vectors()


    def test_zero_sinr_divisor_raises_from_reset(self):
        # A path gain of 1e20 gives norms near 1e-20, whose product with the
        # least noise power underflows to 0.
        env, cfg = make_env(seed=4, episode_len=4, distances_m=1.0,
                            path_loss=phy.PathLossModel(g0_db=200.0),
                            constants=phy.PhyConstants(noise_power_w=sys.float_info.min))
        with pytest.raises(cmatrix.MatrixError, match="^matrix 0: noise_power_w times a "
                                                      "zero-forcing norm underflows to 0$"):
            env.reset()
        with pytest.raises(StateError):
            env.step([Action(1.0, 0.5)] * cfg.n_users)


class TestObsVector:
    def test_clipping(self):
        # A full buffer, a huge SINR and channel powers far above the clip
        # scale each read 1.
        env, cfg = make_env(obs_chan_clip=1e-12)
        env.reset()
        env.backlog = [cfg.buffer_cap_bits] * cfg.n_users
        env.prev_sinr = [1e9] * cfg.n_users
        v = env.obs_vectors()
        assert np.all(v <= 1.0) and np.all(v >= 0.0)
        assert np.all(v[:, 0] == 1.0) and np.all(v[:, 1] == 1.0)
        assert np.all(v[:, 2:] == 1.0)

    @pytest.mark.parametrize("sinr", [3.5, 100.0, 1e9, math.inf, math.nan])
    def test_scaled_columns_match_the_array_formula(self, sinr):
        # Below, at and above the clip, infinite and NaN SINRs scale as
        # np.minimum and a float64 division would scale them.
        env, cfg = make_env(seed=8, n_users=3, constants=phy.PhyConstants(n_antennas=4))
        env.reset()
        env.backlog = [0, 12_345, cfg.buffer_cap_bits]
        env.prev_sinr = [0.0, sinr, 42.0]
        v = env.obs_vectors()
        backlog = np.array(env.backlog, dtype=np.float64) / cfg.buffer_cap_bits
        clipped = np.minimum(np.array(env.prev_sinr), cfg.obs_sinr_clip) / cfg.obs_sinr_clip
        assert v[:, 0].tobytes() == backlog.tobytes()
        assert v[:, 1].tobytes() == clipped.tobytes()

    def test_rows_match_observations(self):
        # Each row is the user's Observation, scaled field by field; after
        # a reset, backlog and SINR are zero and the powers the channel's.
        env, cfg = make_env(seed=5, noise_level=1.0)
        env.reset()
        h = env.channel.h
        power = h.real * h.real + h.imag * h.imag
        obs = [Observation(0, 0.0, power[:, m]) for m in range(cfg.n_users)]
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
