from dataclasses import astuple, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import agents, neural, seeds
from mecrl.agents import (ALGOS, Batch, ReplayBuffer, Trainer, TrainerConfig,
                          TrainingDiverged, act, td_targets, td_update, train_episode)
from mecrl.env import EnvConfig, MecEnv

from conftest import filled_trainer, gradients, with_ones


@dataclass
class Row:
    """One stored interaction, per-user rows stacked: (M, ·) arrays."""

    obs: np.ndarray
    acts: np.ndarray
    rewards: list[float]
    next_obs: np.ndarray


def make_transition(rng, n_users=2, obs_dim=6):
    """Random transition of values the float32 ring stores exactly."""
    def f32(a):
        return np.asarray(a, dtype=np.float32).astype(np.float64)

    return Row(
        obs=f32(rng.normal(size=(n_users, obs_dim))),
        acts=f32(rng.uniform(0, 2, size=(n_users, 2))),
        rewards=[float(v) for v in f32(rng.normal(size=n_users))],
        next_obs=f32(rng.normal(size=(n_users, obs_dim))),
    )


def push(buf, t):
    buf.push(t.obs, t.acts, t.rewards, t.next_obs)


def sample(buf, k, rng):
    b = buf.sample_arrays(k, rng)
    return [Row(b.obs[i], b.acts[i], [float(r) for r in b.rewards[i]], b.next_obs[i])
            for i in range(k)]


def stored(buf):
    """All retained transitions, oldest first, read from the ring."""
    start = buf._cursor if len(buf) == buf.capacity else 0
    order = [(start + i) % buf.capacity for i in range(len(buf))]
    return [Row(buf._obs[i], buf._acts[i], [float(r) for r in buf._rewards[i]], buf._next_obs[i])
            for i in order]


class TestAct:
    def setup_method(self):
        self.actor = neural.stack_params([neural.init_mlp(6, 2, np.random.default_rng(0))])
        self.p_max = np.array([[2.0, 2.0]])

    def test_midpoint_at_zero_preactivation(self):
        self.actor.flat[:] = 0.0
        a = act(self.actor, self.p_max, np.zeros((1, 6)))
        assert np.allclose(a, [1.0, 1.0])

    def test_saturation(self):
        self.actor.flat[:] = 0.0
        self.actor.b2[:] = 20.0
        a = act(self.actor, self.p_max, np.zeros((1, 6)))
        assert np.allclose(a, [2.0, 2.0], atol=1e-8)

    def test_noisy_actions_stay_in_box(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            noise = (0.5 * self.p_max) * rng.standard_normal((1, 2))
            a = act(self.actor, self.p_max, rng.normal(size=(1, 6)), noise)
            assert np.all(a >= 0.0) and np.all(a <= 2.0)

    def test_stacked_draw_matches_per_user_draws(self, monkeypatch):
        # train_episode draws its episode's (T, M, 2) noise at once. That
        # consumes the exploration stream exactly as one 2-vector draw per
        # slot and user, in that order, so the actions, and with them the
        # pairing across algos, are those of per-slot, per-user draws.
        env_cfg = EnvConfig(n_users=3, episode_len=7, p_max_offload_w=(2.0, 0.5, 1.5),
                            p_max_local_w=(1.0, 3.0, 1.5))
        tc = TrainerConfig(explore_sigma0=0.3, warmup_steps=10**9)
        trainer = Trainer(env_cfg, tc, "ddpg", np.random.default_rng(3))
        env = MecEnv(env_cfg, **seeds.env_streams(0, 0))
        calls = []

        def spy(actor, p_max, obs, noise=None):
            a = act(actor, p_max, obs, noise)
            calls.append((obs.copy(), a))
            return a

        monkeypatch.setattr(agents, "act", spy)
        rx = np.random.default_rng(9)
        train_episode(env, trainer, rx, np.random.default_rng(0))
        per_user_rng = np.random.default_rng(9)
        p_max = trainer.p_max
        assert len(calls) == env_cfg.episode_len
        for obs, a in calls:
            mean = agents._squash(neural.eval_vec(trainer.actor, obs), 0.5 * p_max)
            for m in range(3):
                noisy = mean[m] + per_user_rng.normal(0.0, 0.3 * p_max[m])
                assert np.array_equal(a[m], np.clip(noisy, 0.0, p_max[m]))
        assert rx.bit_generator.state == per_user_rng.bit_generator.state

    def test_zero_sigma_draws_nothing(self):
        env_cfg = EnvConfig(episode_len=5)
        tc = TrainerConfig(explore_sigma0=0.0, explore_sigma_floor=0.0, warmup_steps=10**9)
        trainer = Trainer(env_cfg, tc, "ddpg", np.random.default_rng(3))
        env = MecEnv(env_cfg, **seeds.env_streams(0, 0))
        rx = np.random.default_rng(9)
        train_episode(env, trainer, rx, np.random.default_rng(0))
        assert rx.bit_generator.state == np.random.default_rng(9).bit_generator.state


class TestOldExpressions:
    """The update's reductions, clamp, packed replay ring, in-place TD
    targets and negated actor gradient give the bytes of the expressions
    they replaced, computed side by side."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_reduce_over_k_is_mean(self, rng, dtype):
        for m, k in ((2, 128), (8, 128), (3, 37), (1, 1)):
            q = rng.normal(size=(m, k, 1)) * 10.0 ** rng.integers(-8, 8, size=(m, k, 1))
            q = q.astype(dtype)
            q[0, ::5] = 0.0
            assert (np.add.reduce(q, axis=(1, 2)) / k).tobytes() == q.mean(axis=(1, 2)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maximum_minimum_is_clip(self, rng, dtype):
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype)
        r_hat = rng.normal(scale=3.0, size=(3, 64, 1)).astype(dtype)
        stored = rng.normal(size=(3, 64, 1)).astype(dtype)
        r_hat[0, :5, 0] = specials
        stored[1, :5, 0] = specials
        r_hat[2, :25, 0] = np.repeat(specials, 5)
        stored[2, :25, 0] = np.tile(specials, 5)
        for band in (0.0, 1.0, np.inf):
            with np.errstate(invalid="ignore"):
                lo, hi = stored - band, stored + band
                old = np.clip(r_hat, lo, hi)
            assert np.minimum(np.maximum(r_hat, lo), hi).tobytes() == old.tobytes()


    @pytest.mark.parametrize("users,obs_dim", [(2, 6), (8, 10), (1, 3)])
    def test_packed_ring_sample_is_four_array_gather(self, users, obs_dim):
        # The parent layout: one ring per field, each gathered with the
        # same index draw. Pushes wrap the ring.
        r = np.random.default_rng(users)
        cap = 37
        buf = ReplayBuffer(cap, users, obs_dim)
        rings = [np.empty((cap, users, obs_dim), np.float32), np.empty((cap, users, 2), np.float32),
                 np.empty((cap, users), np.float32), np.empty((cap, users, obs_dim), np.float32)]
        for i in range(50):
            t = make_transition(r, users, obs_dim)
            push(buf, t)
            for ring, value in zip(rings, (t.obs, t.acts, t.rewards, t.next_obs)):
                ring[i % cap] = value
        for k in (1, 16, cap):
            batch = buf.sample_arrays(k, np.random.default_rng(k))
            idx = np.random.default_rng(k).integers(0, cap, size=k)
            for got, ring in zip((batch.obs, batch.acts, batch.rewards, batch.next_obs), rings):
                want = ring[idx]
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.nbytes == want.nbytes and got.tobytes() == want.tobytes()
                assert np.shares_memory(got, batch.rows)
            # The centralized critics' input is the rows' leading slice.
            assert batch.rows[:, :users * (obs_dim + 2)].tobytes() == np.concatenate(
                (rings[0][idx].reshape(k, -1), rings[1][idx].reshape(k, -1)), axis=1).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_td_targets(self, rng, dtype):
        critic = neural.stack_params([neural.init_mlp(8, 1, rng) for _ in range(3)], dtype)
        for shape in ((3, 40), (40,)):
            x_next = neural.input_buffer(shape, 8, dtype)
            x_next[..., :-1] = rng.normal(size=shape + (8,))
            rewards = rng.normal(size=(3, 40, 1)).astype(dtype)
            rewards[0, ::4] = -0.0
            for gamma in (0.0, 0.95, 0.3):
                q = neural.forward(critic, x_next)[0]
                old = rewards + gamma * q
                zeros = np.zeros((3, 40, 65), dtype)
                for z in (None, zeros):
                    assert td_targets(critic, x_next, rewards, gamma, z).tobytes() == old.tobytes()

    @pytest.mark.parametrize("algo", ALGOS)
    def test_negated_half_actor_gradient_is_neg(self, algo):
        # _actor_step forms the actor gradient through -half; the parent
        # formed it through half and negated it (_neg). Dead hidden units
        # (large negative biases) make exact-zero gradient sums. The two
        # gradients are equal as values, and a descent step on either
        # gives the same bits.
        trainer, rs = filled_trainer(algo, seed=21)
        trainer.actor.b1[:, ::9] = -1e3
        td_update(trainer, trainer.buffer.sample_arrays(64, rs))
        work, actor = trainer.work, trainer.actor
        u, cache = neural.forward(actor, work.obs)
        t = np.tanh(u)
        du = np.random.default_rng(3).normal(size=u.shape).astype(np.float32)
        old = du * ((1.0 - t * t) * trainer.half[:, None, :])
        g_old, _ = neural.backward(actor, cache, old, gradients(actor), False)
        np.negative(g_old.flat, out=g_old.flat)                  # _neg
        _, cache = neural.forward(actor, work.obs)
        new = du * ((1.0 - t * t) * work.neg_half)
        g_new, _ = neural.backward(actor, cache, new, gradients(actor), False)
        assert np.array_equal(g_old.flat, g_new.flat)
        assert (g_old.flat == 0.0).any()
        stepped = []
        for g in (g_old, g_new):
            p, state = actor.copy(), neural.AdamState(lr=1e-4)
            for _ in range(3):
                neural.adam_step(state, p, g)
            stepped.append((p.flat.tobytes(), state.m.tobytes(), state.v.tobytes()))
        assert stepped[0] == stepped[1]


class TestReplayBuffer:
    def test_fifo_eviction(self, rng):
        buf = ReplayBuffer(2, 2, 6)
        ts = [make_transition(rng) for _ in range(3)]
        for t in ts:
            push(buf, t)
        kept = stored(buf)
        assert len(kept) == 2
        assert np.array_equal(kept[0].obs[0], ts[1].obs[0])
        assert np.array_equal(kept[1].obs[0], ts[2].obs[0])

    def test_singleton_sampling(self, rng):
        buf = ReplayBuffer(4, 2, 6)
        t = make_transition(rng)
        push(buf, t)
        for _ in range(3):
            (s,) = sample(buf, 1, rng)
            assert np.array_equal(s.obs[1], t.obs[1])

    def test_sample_with_replacement_can_repeat(self, rng):
        buf = ReplayBuffer(4, 1, 3)
        a, b = make_transition(rng, 1, 3), make_transition(rng, 1, 3)
        push(buf, a)
        push(buf, b)
        draws = sample(buf, 2, np.random.default_rng(4))
        repeats = any(
            np.array_equal(draws[0].obs[0], t.obs[0])
            and np.array_equal(draws[1].obs[0], t.obs[0])
            for t in (a, b)
        )
        assert repeats or not np.array_equal(draws[0].obs[0], draws[1].obs[0])

    def test_sample_too_many(self, rng):
        buf = ReplayBuffer(4, 2, 6)
        push(buf, make_transition(rng))
        with pytest.raises(ValueError):
            buf.sample_arrays(2, rng)

    @given(st.integers(1, 8), st.integers(1, 20), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_membership(self, capacity, pushes, seed):
        r = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity, 1, 3)
        pushed = []
        for _ in range(pushes):
            t = make_transition(r, n_users=1, obs_dim=3)
            pushed.append(t)
            push(buf, t)
        for s in sample(buf, min(8, len(buf)), r):
            assert any(
                np.array_equal(s.obs[0], t.obs[0])
                and np.array_equal(s.acts[0], t.acts[0])
                and s.rewards == t.rewards
                and np.array_equal(s.next_obs[0], t.next_obs[0])
                for t in pushed
            )

    @given(st.integers(1, 6), st.integers(1, 15), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_retains_most_recent_in_order(self, capacity, pushes, seed):
        r = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity, 1, 3)
        marks = []
        for i in range(pushes):
            t = make_transition(r, n_users=1, obs_dim=3)
            t.rewards = [float(i)]
            marks.append(float(i))
            push(buf, t)
        kept = [s.rewards[0] for s in stored(buf)]
        assert kept == marks[-min(capacity, pushes):]


class TestTdStructure:
    def test_zero_gamma_target_is_reward(self, rng):
        critic_target = neural.stack_params([neural.init_mlp(8, 1, rng) for _ in range(2)])
        rewards = rng.normal(size=(2, 16, 1))
        x_next = neural.input_buffer((2, 16), 8, np.float64)
        x_next[..., :-1] = rng.uniform(0, 2, size=(2, 16, 8))
        y = td_targets(critic_target, x_next, rewards, gamma=0.0)
        assert np.allclose(y[:, :, 0], rewards[:, :, 0])

    def test_centralized_critic_input_dim(self):
        env_cfg = EnvConfig(n_users=3, constants=__import__("mecrl.phy", fromlist=["PhyConstants"]).PhyConstants(n_antennas=4))
        trainer = Trainer(env_cfg, TrainerConfig(), "maddpg", np.random.default_rng(0))
        n, obs_dim = 3, 6
        assert trainer.agents[0].critic.in_dim == n * obs_dim + 2 * n

    def test_decentralized_critic_input_dim(self):
        env_cfg = EnvConfig(n_users=3)
        trainer = Trainer(env_cfg, TrainerConfig(), "ddpg", np.random.default_rng(0))
        assert trainer.agents[0].critic.in_dim == 6 + 2


class TestDescentAscent:
    def test_critic_loss_decreases_on_frozen_batch(self):
        # Frozen targets (tau 0) and one fixed batch: strict decrease.
        for algo in ("ddpg", "maddpg", "rmaddpg"):
            trainer, rs = filled_trainer(algo, seed=1, tau_soft=0.0)
            batch = trainer.buffer.sample_arrays(64, rs)
            losses = []
            for _ in range(12):
                stats = td_update(trainer, batch)
                losses.append(stats.critic_loss[0])
            assert all(b < a for a, b in zip(losses, losses[1:])), (algo, losses)

    def test_actor_objective_ascends_with_frozen_critic(self):
        # One small actor step with a frozen critic: the reported objective
        # (mean Q at the policy action, measured before the step) must not
        # have been pushed down by the previous step.
        trainer, rs = filled_trainer("ddpg", seed=2, tau_soft=0.0,
                                     lr_critic=0.0, lr_actor=1e-5)
        batch = trainer.buffer.sample_arrays(64, rs)
        obj_before = td_update(trainer, batch).actor_objective[0]
        obj_after = td_update(trainer, batch).actor_objective[0]
        assert obj_after >= obj_before - 1e-12

    def test_nature_output_descends(self):
        trainer, rs = filled_trainer("rmaddpg", seed=3, tau_soft=0.0)
        batch = trainer.buffer.sample_arrays(64, rs)
        means = []
        for _ in range(12):
            stats = td_update(trainer, batch)
            means.append(stats.nature_mean[0])
        assert all(b < a for a, b in zip(means, means[1:])), means


def fwd(p, x):
    """``neural.forward`` on a plain (batch, in_dim) input."""
    return neural.forward(p, with_ones(p, x))


def bwd(p, cache, dy):
    return neural.backward(p, cache, dy, gradients(p), True)


def reference_update(ref, batch, algo, tc, noise_level):
    """The update as M separate networks: a loop over agents calling
    neural.forward/backward/adam_step/soft_update on single networks, with
    the critic's full input gradient at the batch with the agent's own
    action columns replaced. ``ref`` holds per-agent dicts of networks and
    optimizer states; returns the per-agent loss, objective and adversary
    mean, and the fraction of clamped adversary estimates."""
    k, n, d = batch.obs.shape
    gamma, tau = tc.gamma, tc.tau_soft
    next_acts = [(np.tanh(fwd(r["actor_target"], batch.next_obs[:, i])[0]) + 1.0)
                 * r["half"] for i, r in enumerate(ref)]
    losses, objectives, natures, clamped = [], [], [], []
    for i, r in enumerate(ref):
        users = [i] if algo == "ddpg" else list(range(n))
        obs_cols = [batch.obs[:, j] for j in users]
        act_cols = [batch.acts[:, j] for j in users]
        x = np.concatenate(obs_cols + act_cols, axis=1)
        x_next = np.concatenate([batch.next_obs[:, j] for j in users]
                                + [next_acts[j] for j in users], axis=1)
        reward = batch.rewards[:, i]
        if algo == "rmaddpg":
            r_hat, cache = fwd(r["nature"], np.concatenate(
                (batch.obs[:, i], batch.acts[:, i]), axis=1))
            band = 2.0 * noise_level
            clipped = np.clip(r_hat[:, 0], reward - band, reward + band)
            clamped.append(np.mean(clipped != r_hat[:, 0]))
            natures.append(np.mean(r_hat))
            g, _ = bwd(r["nature"], cache, np.full((k, 1), 1.0 / k))
            neural.adam_step(r["nature_opt"], r["nature"], g)
            reward = clipped
        y = reward[:, None] + gamma * fwd(r["critic_target"], x_next)[0]
        q, cache = fwd(r["critic"], x)
        losses.append(np.mean((q - y) ** 2))
        g, _ = bwd(r["critic"], cache, 2.0 * (q - y) / k)
        neural.adam_step(r["critic_opt"], r["critic"], g)
        u, cache_a = fwd(r["actor"], batch.obs[:, i])
        t = np.tanh(u)
        own = users.index(i)
        act_cols[own] = (t + 1.0) * r["half"]
        q2, cache_q2 = fwd(r["critic"], np.concatenate(obs_cols + act_cols, axis=1))
        objectives.append(np.mean(q2))
        _, dx = bwd(r["critic"], cache_q2, np.full((k, 1), 1.0 / k))
        off = len(users) * d + 2 * own
        g, _ = bwd(r["actor"], cache_a, dx[:, off:off + 2] * ((1.0 - t * t) * r["half"]))
        g.flat *= -1.0
        neural.adam_step(r["actor_opt"], r["actor"], g)
        neural.soft_update(r["critic_target"], r["critic"], tau)
        neural.soft_update(r["actor_target"], r["actor"], tau)
    return losses, objectives, natures, clamped


class TestStackedMatchesReference:
    ROLES = ("actor", "actor_target", "critic", "critic_target")

    @pytest.mark.parametrize("algo", ["ddpg", "maddpg", "rmaddpg"])
    def test_three_updates(self, algo):
        # Noise level 1: a band of +-2 around the stored rewards, which
        # clamps about half of the adversary's estimates on this batch. A
        # float64 trainer, so the two orders of summation agree to 1e-12.
        trainer, rs = filled_trainer(algo, seed=11, n_users=3, dtype=np.float64,
                                     noise_level=1.0)
        tc = trainer.tc
        batch = trainer.buffer.sample_arrays(64, rs)
        ref = []
        for m, ag in enumerate(trainer.agents):
            r = {role: getattr(ag, role).copy() for role in self.ROLES}
            r.update(actor_opt=neural.AdamState(lr=tc.lr_actor),
                     critic_opt=neural.AdamState(lr=tc.lr_critic), half=0.5 * trainer.p_max[m])
            if algo == "rmaddpg":
                r.update(nature=trainer.natures[m].net.copy(),
                         nature_opt=neural.AdamState(lr=tc.lr_nature))
            ref.append(r)

        def close(stacked, reference):
            stacked, reference = np.asarray(stacked), np.asarray(reference)
            scale = np.maximum(np.abs(reference), 1e-300)
            return np.max(np.abs(stacked - reference) / scale) <= 1e-12

        for _ in range(3):
            stats = td_update(trainer, batch)
            losses, objectives, natures, clamped = reference_update(
                ref, batch, algo, tc, trainer.noise_level)
            assert close(stats.critic_loss, losses)
            assert close(stats.actor_objective, objectives)
            if algo == "rmaddpg":
                assert close(stats.nature_mean, natures)
                assert 0.0 < np.mean(clamped) < 1.0, clamped
        for m, ag in enumerate(trainer.agents):
            for role in self.ROLES:
                assert close(getattr(ag, role).flat, ref[m][role].flat), (m, role)
            if algo == "rmaddpg":
                assert close(trainer.natures[m].net.flat, ref[m]["nature"].flat), m


class TestTrainEpisode:
    def test_warmup_freezes_parameters(self):
        trainer, _ = filled_trainer("ddpg", seed=4)  # warmup never reached
        before = trainer.agents[0].actor.flat.copy()
        assert np.array_equal(before, trainer.agents[0].actor.flat)
        assert trainer.total_steps == 2 * 100

    def test_deterministic_episode_stats(self):
        runs = []
        for _ in range(2):
            env_cfg = EnvConfig()
            tc = TrainerConfig(warmup_steps=50, batch_size=32)
            env = MecEnv(env_cfg, **seeds.env_streams(8, 0))
            trainer = Trainer(env_cfg, tc, "ddpg", seeds.stream(8, 0, "net_init"))
            rx = seeds.stream(8, 0, "exploration")
            rs = seeds.stream(8, 0, "buffer_sampling")
            runs.append([train_episode(env, trainer, rx, rs) for _ in range(2)])
        assert runs[0] == runs[1]

    def test_zero_noise_true_equals_perceived(self):
        env_cfg = EnvConfig(noise_level=0.0)
        tc = TrainerConfig(warmup_steps=10**9)
        env = MecEnv(env_cfg, **seeds.env_streams(9, 0))
        trainer = Trainer(env_cfg, tc, "ddpg", seeds.stream(9, 0, "net_init"))
        rx = seeds.stream(9, 0, "exploration")
        rs = seeds.stream(9, 0, "buffer_sampling")
        stats = train_episode(env, trainer, rx, rs)
        assert stats.true_returns == stats.perceived_returns

    def test_sigma_decays_with_floor(self):
        env_cfg = EnvConfig()
        tc = TrainerConfig(warmup_steps=10**9, explore_sigma0=0.1,
                           explore_decay=0.5, explore_sigma_floor=0.04)
        env = MecEnv(env_cfg, **seeds.env_streams(10, 0))
        trainer = Trainer(env_cfg, tc, "ddpg", seeds.stream(10, 0, "net_init"))
        rx = seeds.stream(10, 0, "exploration")
        rs = seeds.stream(10, 0, "buffer_sampling")
        sigmas = [train_episode(env, trainer, rx, rs).sigma for _ in range(4)]
        assert sigmas == [0.1, 0.05, 0.04, 0.04]


class TestFloat32:
    def test_default_trainer_is_float32_throughout(self):
        trainer, rs = filled_trainer("rmaddpg", seed=12)
        batch = trainer.buffer.sample_arrays(32, rs)
        stats = td_update(trainer, batch)
        work = trainer.work
        arrays = {role: getattr(trainer, role).flat for role in Trainer.ROLES}
        for role in ("actor", "critic", "nature"):
            arrays[f"{role}_grad"] = getattr(trainer, f"{role}_grad").flat
            opt = getattr(trainer, f"{role}_opt")
            arrays[f"{role}_opt.m"], arrays[f"{role}_opt.v"] = opt.m, opt.v
        for name in ("_obs", "_acts", "_rewards", "_next_obs"):
            arrays[f"buffer.{name}"] = getattr(trainer.buffer, name)
        for name in ("obs", "acts", "rewards", "next_obs"):
            arrays[f"batch.{name}"] = getattr(batch, name)
        for name in ("obs", "next_obs", "x", "x_next", "local", "hidden"):
            arrays[f"work.{name}"] = getattr(work, name)
        arrays.update(critic_loss=stats.critic_loss, actor_objective=stats.actor_objective,
                      nature_mean=stats.nature_mean, half=trainer.half)
        assert {name: a.dtype for name, a in arrays.items()
                if a.dtype != np.float32} == {}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_tracks_float64_trainer(self, algo):
        # Both trainers start from the same float64 draws and take 20
        # updates on the same batches. Over seeds 0-5 and all algos the
        # worst norm-wise relative deviation of any role's parameters was
        # 4.4e-8 to 5.2e-8 after the initial cast and 2.3e-7 to 2.4e-7
        # after 20 updates; the bound leaves a margin of 4x.
        env_cfg = EnvConfig(n_users=3, noise_level=1.0)
        tc = TrainerConfig(warmup_steps=10**9)
        env = MecEnv(env_cfg, **seeds.env_streams(2, 0))
        t64 = Trainer(env_cfg, tc, algo, seeds.stream(2, 0, "net_init"), dtype=np.float64)
        t32 = Trainer(env_cfg, tc, algo, seeds.stream(2, 0, "net_init"))
        rx, rs = seeds.stream(2, 0, "exploration"), seeds.stream(2, 0, "buffer_sampling")
        for _ in range(2):
            train_episode(env, t64, rx, rs)
        for _ in range(20):
            batch = t64.buffer.sample_arrays(64, rs)
            td_update(t64, batch)
            td_update(t32, Batch(*(a.astype(np.float32) for a in astuple(batch))))
        for role in Trainer.ROLES:
            if getattr(t64, role) is None:
                continue
            ref, got = getattr(t64, role).flat, getattr(t32, role).flat
            assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref), role


class TestGuard:
    def test_nonfinite_rewards_stop_the_update(self):
        trainer, rs = filled_trainer("maddpg", seed=13)
        trainer.buffer._rewards[:] = -np.inf
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match="episode 2: agent 0 critic: loss"):
            trainer.update(rs)

    def test_nonfinite_parameter_is_named(self):
        trainer, _ = filled_trainer("rmaddpg", seed=14)
        trainer.check_params()
        trainer.nature.flat[1, 7] = np.nan
        with pytest.raises(TrainingDiverged, match="episode 2: agent 1 nature: parameters"):
            trainer.check_params()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_values_whose_sum_overflows_pass(self, monkeypatch, dtype):
        # The update checks one sum of the diagnostics and scans the roles
        # only when the sum is not finite; finite values must pass either
        # way, also where the sum overflows the dtype or float64.
        trainer, rs = filled_trainer("rmaddpg", seed=15)
        big = np.finfo(dtype).max
        stats = agents.UpdateStats(np.array([big, big], dtype), np.array([big, -big], dtype),
                                   np.array([big, big], dtype))
        monkeypatch.setattr(agents, "td_update", lambda trainer, batch: stats)
        with np.errstate(over="ignore"):
            assert trainer.update(rs) is stats

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_diagnostic_names_first_agent_and_role(self, monkeypatch, bad):
        trainer, rs = filled_trainer("rmaddpg", seed=16)
        roles = [("critic", "loss"), ("actor", "objective"), ("nature", "mean output")]
        cases = [([(r, m)], roles[r], m) for r in range(3) for m in range(2)]
        # Several bad entries, opposite infinities among them: the first
        # role in the scan's order, and its first agent, is named.
        cases += [([(2, 0), (1, 1)], roles[1], 1), ([(1, 1), (0, 1), (2, 0)], roles[0], 1),
                  ([(0, 0), (0, 1)], roles[0], 0)]
        for entries, (role, what), agent in cases:
            values = [np.ones(2, np.float32) for _ in roles]
            for i, (r, m) in enumerate(entries):
                values[r][m] = bad if i % 2 == 0 else -bad
            monkeypatch.setattr(agents, "td_update",
                                lambda trainer, batch, v=values: agents.UpdateStats(*v))
            with pytest.raises(TrainingDiverged,
                               match=f"^episode 2: agent {agent} {role}: {what} not finite$"):
                trainer.update(rs)
