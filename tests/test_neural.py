import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import neural
from mecrl.neural import (AdamState, Gradients, MlpParams, adam_step, backward,
                          forward, init_mlp, soft_update)

from conftest import gradients, with_ones


def grad_check(p: MlpParams, x, dy, step: float = 1e-6) -> float:
    """Max relative deviation of backward against central differences.

    ``x`` is a (batch, in_dim) float64 input and ``dy`` a (batch, out_dim)
    upstream gradient. Covers every parameter and every input component.
    The relative error uses a guarded denominator so an all-zero
    comparison reports 0.
    """
    xb = with_ones(p, x)
    dya = np.asarray(dy, dtype=np.float64)

    def objective() -> float:
        y, _ = forward(p, xb)
        return float(np.sum(dya * y))

    y, cache = forward(p, xb)
    # Looked up on the module, so a patched backward is the one checked.
    g, dx = neural.backward(p, cache, dya, gradients(p), True)

    worst = 0.0
    for arr, analytic in ((p.flat, g.flat), (xb[:, :-1], dx)):
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + step
            f_plus = objective()
            arr[i] = orig - step
            f_minus = objective()
            arr[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(numeric) + abs(analytic[i]), 1e-8)
            worst = max(worst, abs(numeric - analytic[i]) / denom)
    return worst


def straight_line_eval(p, x):
    """Independent loop-based evaluation of the same architecture."""
    hidden = np.zeros(p.hidden)
    for j in range(p.hidden):
        acc = p.b1[j]
        for i in range(p.in_dim):
            acc += p.w1[j, i] * x[i]
        hidden[j] = acc if acc > 0 else 0.0
    out = np.zeros(p.out_dim)
    for k in range(p.out_dim):
        acc = p.b2[k]
        for j in range(p.hidden):
            acc += p.w2[k, j] * hidden[j]
        out[k] = acc
    return out


class TestInit:
    def test_biases_zero(self, rng):
        p = init_mlp(5, 3, rng)
        assert np.all(p.b1 == 0) and np.all(p.b2 == 0)

    def test_weight_bounds(self, rng):
        p = init_mlp(5, 3, rng, hidden=64)
        assert np.max(np.abs(p.w1)) <= np.sqrt(6 / (5 + 64))
        assert np.max(np.abs(p.w2)) <= np.sqrt(6 / (64 + 3))

    def test_deterministic(self):
        a = init_mlp(4, 2, np.random.default_rng(7))
        b = init_mlp(4, 2, np.random.default_rng(7))
        assert np.array_equal(a.flat, b.flat)

    def test_bad_dims(self, rng):
        with pytest.raises(ValueError):
            init_mlp(0, 1, rng)


class TestForward:
    def test_constant_bias(self, rng):
        p = MlpParams(3, 2, hidden=8)
        p.b2[:] = [1.5, -2.0]
        y, _ = forward(p, with_ones(p, np.zeros((1, 3))))
        assert np.allclose(y, [1.5, -2.0])

    def test_zero_input_uses_hidden_bias(self, rng):
        p = init_mlp(3, 2, rng, hidden=8)
        p.b1[:] = rng.normal(size=8)
        y, _ = forward(p, with_ones(p, np.zeros((1, 3))))
        expected = p.w2 @ np.maximum(p.b1, 0.0) + p.b2
        assert np.allclose(y, expected)

    def test_matches_straight_line_oracle(self, rng):
        for _ in range(10):
            p = init_mlp(6, 3, rng, hidden=16)
            p.b1[:] = rng.normal(size=16)
            p.b2[:] = rng.normal(size=3)
            x = rng.normal(size=6)
            y, _ = forward(p, with_ones(p, x[None]))
            assert np.allclose(y[0], straight_line_eval(p, x), atol=1e-12)

    def test_batch_matches_vector(self, rng):
        p = init_mlp(4, 2, rng, hidden=8)
        xs = rng.normal(size=(5, 4))
        ys, _ = forward(p, with_ones(p, xs))
        for i in range(5):
            yi, _ = forward(p, with_ones(p, xs[i:i + 1]))
            assert np.allclose(ys[i], yi[0], rtol=1e-12, atol=1e-14)

    def test_eval_vec_matches_forward(self, rng):
        p = init_mlp(4, 2, rng, hidden=8)
        x = rng.normal(size=4)
        assert np.allclose(neural.eval_vec(p, x), forward(p, with_ones(p, x[None]))[0][0])

    def test_dtype_follows_parameters(self, rng):
        p = neural.stack_params([init_mlp(4, 2, rng, hidden=8)], np.float32)
        x = rng.normal(size=(1, 5, 4))
        y, cache = forward(p, with_ones(p, x))
        g, dx = backward(p, cache, np.ones((1, 5, 2), np.float32), gradients(p), True)
        outputs = (y, g.flat, dx, neural.eval_vec(p, x[:, 0]))
        assert {a.dtype for a in outputs} == {np.dtype(np.float32)}
        p64 = neural.stack_params([p.agent(0)], np.float64)
        assert np.allclose(y, forward(p64, with_ones(p64, x))[0], rtol=1e-5, atol=1e-6)

    def test_dimension_error(self, rng):
        p = init_mlp(4, 2, rng)
        with pytest.raises(ValueError):
            forward(p, with_ones(p, np.zeros((1, 5))))


class TestBackward:
    def test_zero_upstream(self, rng):
        p = init_mlp(4, 2, rng, hidden=8)
        _, cache = forward(p, with_ones(p, rng.normal(size=(1, 4))))
        g, dx = backward(p, cache, np.zeros((1, 2)), gradients(p), True)
        assert np.all(g.flat == 0) and np.all(dx == 0)

    def test_linear_regime_input_gradient(self, rng):
        # Large positive hidden bias keeps every ReLU active, so the map is
        # affine and dx = dy @ w2 @ w1 exactly.
        p = init_mlp(3, 2, rng, hidden=8)
        p.b1[:] = 100.0
        x = rng.normal(size=(1, 3)) * 0.1
        dy = rng.normal(size=(1, 2))
        _, cache = forward(p, with_ones(p, x))
        _, dx = backward(p, cache, dy, gradients(p), True)
        assert np.allclose(dx, dy @ p.w2 @ p.w1, atol=1e-10)

    def test_stale_cache_rejected(self, rng):
        p = init_mlp(4, 2, rng, hidden=8)
        _, cache = forward(p, with_ones(p, rng.normal(size=(3, 4))))
        with pytest.raises(ValueError):
            backward(p, cache, np.zeros((5, 2)), gradients(p), True)

    def test_grad_check_random_nets(self, rng):
        for _ in range(5):
            p = init_mlp(4, 2, rng, hidden=10)
            p.b1[:] = rng.normal(size=10) * 0.1
            x = rng.normal(size=(1, 4))
            dy = rng.normal(size=(1, 2))
            assert grad_check(p, x, dy) < 1e-5

    def test_grad_check_zero_network(self):
        p = MlpParams(3, 2, hidden=4)
        assert grad_check(p, np.zeros((1, 3)), np.zeros((1, 2))) == 0.0

    def test_grad_check_detects_corruption(self, rng, monkeypatch):
        p = init_mlp(4, 2, rng, hidden=8)
        x = rng.normal(size=(1, 4))
        dy = rng.normal(size=(1, 2))

        real_backward = neural.backward

        def corrupted(p_, cache_, dy_, g_, need_dx, pads=None):
            g, dx = real_backward(p_, cache_, dy_, g_, need_dx, pads)
            g.w1 *= 1.5
            return g, dx

        monkeypatch.setattr(neural, "backward", corrupted)
        assert grad_check(p, x, dy) > 1e-2


class TestAdam:
    def test_zero_gradient_no_change(self, rng):
        p = init_mlp(3, 1, rng, hidden=4)
        before = p.flat.copy()
        g = Gradients(3, 1, 4)
        adam_step(AdamState(lr=1e-3), p, g)
        assert np.array_equal(p.flat, before)

    def test_first_step_closed_form(self):
        p = MlpParams(1, 1, hidden=1)
        p.flat[:] = 1.0
        g = Gradients(1, 1, 1)
        g.flat[:] = [0.5, -0.25, 2.0, 1e-4]
        st_ = AdamState(lr=1e-3)
        before = p.flat.copy()
        adam_step(st_, p, g)
        delta = p.flat - before
        expected = -st_.lr * g.flat / (np.abs(g.flat) + st_.eps)
        assert np.allclose(delta, expected, rtol=1e-12)
        assert np.all(np.abs(delta) <= st_.lr)
        assert np.abs(delta[2]) == pytest.approx(st_.lr, rel=1e-6)

    def test_identical_gradients_identical_updates(self):
        p = MlpParams(2, 1, hidden=1)
        g = Gradients(2, 1, 1)
        g.w1[:] = 0.7
        before = p.w1.copy()
        adam_step(AdamState(), p, g)
        deltas = p.w1 - before
        assert deltas[0, 0] == deltas[0, 1]

    def test_zero_lr_is_identity(self, rng):
        p = init_mlp(3, 2, rng)
        g = Gradients(3, 2)
        g.flat[:] = rng.normal(size=g.flat.size)
        before = p.flat.copy()
        state = AdamState(lr=0.0)
        for _ in range(3):
            adam_step(state, p, g)
        assert np.array_equal(p.flat, before)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            adam_step(AdamState(), init_mlp(3, 2, rng), Gradients(4, 2))

    @pytest.mark.parametrize("beta2,scale", [(0.999, 1.0), (0.99, 3e-17)])
    def test_moments_never_subnormal_and_steps_unchanged(self, rng, beta2, scale):
        # Ten steps along a gradient, then 2,000 without one: the moments of
        # a dead unit decay. With beta2 = 0.99 and gradients near 3e-17 the
        # second moments decay below float32's normal range as well.
        stack = neural.stack_params([init_mlp(5, 2, rng, hidden=8) for _ in range(3)],
                                    np.float32)
        g = Gradients(5, 2, 8, agents=3, dtype=np.float32)
        g.flat[:] = scale * rng.choice([-1.0, 1.0], g.flat.shape) * rng.uniform(1, 2, g.flat.shape)
        state = AdamState(beta2=beta2)
        b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
        # The step without the flush, in adam_step's order of operations.
        p, m, v = stack.flat.copy(), np.zeros_like(stack.flat), np.zeros_like(stack.flat)
        tiny = np.finfo(np.float32).tiny

        def subnormal(x):
            return bool(np.any((x != 0) & (np.abs(x) < tiny)))

        ref_subnormal = {"m": False, "v": False}
        for t in range(1, 2011):
            if t == 11:
                g.flat[:] = 0.0
            adam_step(state, stack, g)
            m = m * b1 + g.flat * (1.0 - b1)
            v = v * b2 + g.flat * g.flat * (1.0 - b2)
            p -= m / (np.sqrt(v * (1.0 / (1.0 - b2 ** t))) + eps) * (lr / (1.0 - b1 ** t))
            assert not subnormal(state.m) and not subnormal(state.v), t
            ref_subnormal["m"] |= subnormal(m)
            ref_subnormal["v"] |= subnormal(v)
        assert ref_subnormal == {"m": True, "v": beta2 == 0.99}
        assert p.dtype == stack.flat.dtype == np.float32
        assert np.array_equal(stack.flat, p)


class TestSoftUpdate:
    def test_tau_one_copies(self, rng):
        t, o = init_mlp(3, 2, rng), init_mlp(3, 2, rng)
        soft_update(t, o, 1.0)
        assert np.array_equal(t.flat, o.flat)

    def test_tau_zero_freezes(self, rng):
        t, o = init_mlp(3, 2, rng), init_mlp(3, 2, rng)
        before = t.flat.copy()
        soft_update(t, o, 0.0)
        assert np.array_equal(t.flat, before)

    def test_halfway(self):
        t = MlpParams(1, 1, hidden=1)
        o = MlpParams(1, 1, hidden=1)
        o.flat[:] = 2.0
        soft_update(t, o, 0.5)
        assert np.allclose(t.flat, 1.0)

    @given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_convex_combination(self, tau, seed):
        r = np.random.default_rng(seed)
        t = init_mlp(3, 2, r)
        o = init_mlp(3, 2, r)
        lo = np.minimum(t.flat, o.flat)
        hi = np.maximum(t.flat, o.flat)
        soft_update(t, o, tau)
        assert np.all(t.flat >= lo - 1e-12) and np.all(t.flat <= hi + 1e-12)


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        p = init_mlp(6, 2, rng)
        p.b1[:] = rng.normal(size=p.hidden)
        p.b2[:] = rng.normal(size=2)
        path = tmp_path / "net.json"
        neural.save_params(p, path)
        q = neural.load_params(path)
        assert np.array_equal(p.flat, q.flat)

    def test_document_structure(self, rng, tmp_path):
        p = init_mlp(3, 1, rng, hidden=4)
        path = tmp_path / "net.json"
        neural.save_params(p, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"w1", "b1", "w2", "b2"}
        assert doc["w1"]["shape"] == [4, 3]
        assert len(doc["w1"]["data"]) == 12

    def test_file_is_the_documents_json_text(self, rng, tmp_path):
        p = init_mlp(5, 2, rng, hidden=8)
        path = tmp_path / "net.json"
        neural.save_params(p, path)
        assert path.read_text(encoding="utf-8") == json.dumps(neural.params_to_doc(p))

    def test_float32_values_round_trip_exactly(self, rng, tmp_path):
        p = neural.stack_params([init_mlp(6, 2, rng)], np.float32).agent(0)
        p.b1[:] = rng.normal(size=p.hidden)
        path = tmp_path / "net.json"
        neural.save_params(p, path)
        q = neural.load_params(path)
        assert q.flat.dtype == np.float64
        assert np.array_equal(q.flat, p.flat)
        assert np.array_equal(q.flat.astype(np.float32), p.flat)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_value_rejected_naming_the_layer(self, rng, value):
        doc = neural.params_to_doc(init_mlp(3, 1, rng, hidden=4))
        doc["w2"]["data"][2] = value
        with pytest.raises(ValueError, match=r"^layer w2: value -?(nan|inf) is not finite$"):
            neural.params_from_doc(doc)

    def test_inconsistent_shapes_rejected(self, rng, tmp_path):
        p = init_mlp(3, 1, rng, hidden=4)
        doc = neural.params_to_doc(p)
        doc["w2"]["shape"] = [1, 5]
        with pytest.raises(ValueError):
            neural.params_from_doc(doc)


class TestStacked:
    """A stacked buffer evaluates and differentiates like its rows do as
    single networks."""

    def make(self, rng, agents=3, in_dim=5, out_dim=2, hidden=8):
        nets = [init_mlp(in_dim, out_dim, rng, hidden) for _ in range(agents)]
        for p in nets:
            p.b1[:] = rng.normal(size=hidden) * 0.1
            p.b2[:] = rng.normal(size=out_dim)
        return nets, neural.stack_params(nets)

    def test_views_share_the_buffer(self, rng):
        nets, stack = self.make(rng)
        for m, p in enumerate(nets):
            assert np.array_equal(stack.agent(m).flat, p.flat)
            assert np.array_equal(stack.w1[m], p.w1)
        stack.agent(1).b2[:] = 7.0
        assert np.all(stack.b2[1] == 7.0)

    def test_rejects_mixed_shapes(self, rng):
        with pytest.raises(ValueError):
            neural.stack_params([init_mlp(5, 2, rng), init_mlp(4, 2, rng)])

    def test_forward_and_backward_match_rows(self, rng):
        nets, stack = self.make(rng)
        per_agent = rng.normal(size=(3, 7, 5))
        shared = rng.normal(size=(7, 5))
        dy = rng.normal(size=(3, 7, 2))
        for x in (per_agent, shared):
            y, cache = forward(stack, with_ones(stack, x))
            g, dx = backward(stack, cache, dy, gradients(stack), True)
            for m, p in enumerate(nets):
                xm = x[m] if x.ndim == 3 else x
                ym, cm = forward(p, with_ones(p, xm))
                gm, dxm = backward(p, cm, dy[m], gradients(p), True)
                assert np.allclose(y[m], ym, rtol=1e-13, atol=1e-15)
                assert np.allclose(g.flat[m], gm.flat, rtol=1e-13, atol=1e-15)
                assert np.allclose(dx[m], dxm, rtol=1e-13, atol=1e-15)

    def test_eval_vec_matches_rows(self, rng):
        nets, stack = self.make(rng)
        x = rng.normal(size=(3, 5))
        y = neural.eval_vec(stack, x)
        for m, p in enumerate(nets):
            assert np.allclose(y[m], neural.eval_vec(p, x[m]), rtol=1e-13, atol=1e-15)

    def test_wrong_agent_count_rejected(self, rng):
        _, stack = self.make(rng)
        with pytest.raises(ValueError):
            forward(stack, with_ones(stack, np.zeros((2, 7, 5))))

    def test_single_step_per_role(self, rng):
        # Adam and target blending act on the whole stack elementwise, so
        # one call equals one call per row with its own state.
        nets, stack = self.make(rng)
        g = Gradients(5, 2, 8, agents=3)
        g.flat[:] = rng.normal(size=g.flat.shape)
        adam_step(AdamState(), stack, g)
        for m, p in enumerate(nets):
            gm = Gradients(5, 2, 8, flat=g.flat[m].copy())
            adam_step(AdamState(), p, gm)
            assert np.array_equal(stack.flat[m], p.flat)


class TestOldExpressions:
    """``forward``'s ReLU against a zero array and ``backward``'s padded
    outer product give the bytes of the
    expressions they replaced, which are computed here side by side on the
    same numpy and BLAS."""

    @staticmethod
    def make(rng, agents, out_dim, dtype, in_dim=5, hidden=64):
        nets = [init_mlp(in_dim, out_dim, rng, hidden) for _ in range(agents or 1)]
        for p in nets:
            # Zero and negative biases give exact zeros and dead units.
            p.b1[:] = rng.normal(size=hidden) * 0.5
            p.b1[::5] = 0.0
            p.b2[:] = -np.abs(rng.normal(size=out_dim))
        if agents is None:
            return MlpParams(in_dim, out_dim, hidden, nets[0].flat.astype(dtype))
        return neural.stack_params(nets, dtype)

    @staticmethod
    def inputs(rng, p, batch, shared):
        lead = () if p.agents is None or shared else (p.agents,)
        xb = neural.input_buffer(lead + (batch,), p.in_dim, p.flat.dtype)
        xb[..., :-1] = rng.normal(size=lead + (batch, p.in_dim))
        xb[..., 0, :-1] = 0.0        # the hidden biases alone
        xb[..., 1, :-1] = -0.0
        return xb

    @staticmethod
    def scalar_relu_forward(p, xb):
        lead = () if p.agents is None else (p.agents,)
        h = neural.input_buffer(lead + xb.shape[-2:-1], p.hidden, p.flat.dtype)
        np.matmul(xb, p.l1, out=h[..., :-1])
        np.maximum(h, 0.0, out=h)
        return h @ p.l2, h

    @staticmethod
    def broadcast_outer_backward(p, cache, dy):
        xb, h = cache
        g = gradients(p)
        np.matmul(h.swapaxes(-1, -2), dy, out=g.l2)
        active = h > 0.0
        dz = np.multiply(dy, p.l2.swapaxes(-1, -2), out=h)
        dz *= active
        np.matmul(xb.swapaxes(-1, -2), dz[..., :-1], out=g.l1)
        return g, dz[..., :-1] @ p.w1

    CASES = [(None, False), (3, True), (3, False), (8, True)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agents,shared", CASES)
    def test_relu_against_a_zero_array(self, rng, dtype, agents, shared):
        p = self.make(rng, agents, 2, dtype)
        for batch in (5, 37, 128):
            xb = self.inputs(rng, p, batch, shared)
            xb[..., 2, 0] = np.inf
            xb[..., 3, 1] = -np.inf
            xb[..., 4, 2] = np.nan
            with np.errstate(invalid="ignore"):
                y_old, h_old = self.scalar_relu_forward(p, xb)
            zeros = np.zeros(h_old.shape, dtype)
            for z in (zeros, None):
                with np.errstate(invalid="ignore"):
                    y, (_, h) = forward(p, xb, z)
                assert y.tobytes() == y_old.tobytes() and h.tobytes() == h_old.tobytes()
            assert not zeros.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agents,shared", CASES)
    def test_padded_outer_product_backward(self, rng, dtype, agents, shared):
        p = self.make(rng, agents, 1, dtype)
        assert (p.w2 < 0).any() and (p.w2 > 0).any() and (p.b2 < 0).all()
        for batch in (5, 37, 128):
            xb = self.inputs(rng, p, batch, shared)
            dy = rng.normal(size=(() if agents is None else (agents,)) + (batch, 1)).astype(dtype)
            dy[..., ::3, :] = 0.0        # 0 * negative l2 is -0 in the old form
            dy[..., 1::7, :] = -0.0
            _, cache = forward(p, xb)
            assert (cache[1] == 0.0).any() and (cache[1] > 0.0).any()
            g_old, dx_old = self.broadcast_outer_backward(p, (xb, cache[1].copy()), dy)
            lead = dy.shape[:-1]
            pads = (np.zeros(lead + (2,), dtype), np.zeros(lead[:-1] + (2, p.hidden + 1), dtype))
            for pad in (pads, None):
                _, cache = forward(p, xb)
                g, dx = backward(p, cache, dy, gradients(p), True, pad)
                assert g.flat.tobytes() == g_old.flat.tobytes()
                assert dx.tobytes() == dx_old.tobytes()
            assert not pads[0][..., 1].any() and not pads[1][..., 1, :].any()

    @staticmethod
    def separate_moment_adam(state, p, g, m, v, s):
        """The step with m and v in separate arrays, 13 operations."""
        b1, b2 = state.beta1, state.beta2
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        np.multiply(v, b2, out=v)
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v += s
        if state.t % neural.FLUSH_EVERY == 0:
            neural._flush_small(m, b1)
            neural._flush_small(v, b2)
        np.multiply(v, 1.0 / (1.0 - b2 ** state.t), out=s)
        np.sqrt(s, out=s)
        s += state.eps
        np.divide(m, s, out=s)
        s *= state.lr / (1.0 - b1 ** state.t)
        p -= s

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agents", [None, 3])
    def test_stacked_moment_adam(self, rng, dtype, agents):
        # 140 steps cross two flushes. Gradients hold +-0, values far below
        # and far above one (subnormals, 1e18, and a quarter of the dtype's
        # maximum, whose square overflows), and a stretch of zeros over
        # which the moments decay.
        info = np.finfo(dtype)
        p = self.make(rng, agents, 2, dtype)
        state = AdamState(lr=3e-3, beta2=0.99)
        buf = gradients(p)
        ref_p, m, v = p.flat.copy(), np.zeros_like(p.flat), np.zeros_like(p.flat)
        s = np.empty_like(p.flat)
        net = MlpParams(p.in_dim, p.out_dim, p.hidden, p.flat.copy(), p.agents)
        for t in range(1, 141):
            g = rng.normal(size=p.flat.shape) * 10.0 ** rng.integers(-12, 3, p.flat.shape)
            g = g.astype(dtype)
            g.flat[::7] = 0.0
            g.flat[3::7] = -0.0
            g.flat[5::11] = 3 * info.smallest_subnormal
            g.flat[8::11] = -info.smallest_subnormal
            g.flat[6::13] = 1e18
            g.flat[9::97] = -info.max / 4
            if 70 <= t < 100:
                g[...] = 0.0
            buf.flat[...] = g
            with np.errstate(over="ignore"):
                adam_step(state, net, buf)
                self.separate_moment_adam(state, ref_p, g, m, v, s)
            assert net.flat.tobytes() == ref_p.tobytes(), t
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes(), t
            assert state.m.shape == p.flat.shape
        # The step reads the gradient and leaves it as it was.
        assert buf.flat.tobytes() == g.tobytes()
