import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecrl import cmatrix, phy
from mecrl.phy import PathLossModel, PhyConstants
from conftest import random_channel


class TestPathLoss:
    def test_reference_distance(self):
        model = PathLossModel(g0_db=-30.0, alpha=3.0, d0_m=1.0)
        assert model.gain(1.0) == pytest.approx(1e-3)

    def test_hundred_meters(self):
        model = PathLossModel(g0_db=-30.0, alpha=3.0, d0_m=1.0)
        assert model.gain(100.0) == pytest.approx(1e-9)

    def test_zero_exponent_flat(self):
        model = PathLossModel(g0_db=-30.0, alpha=0.0, d0_m=1.0)
        for d in (0.5, 1.0, 42.0, 1e4):
            assert model.gain(d) == pytest.approx(1e-3)

    def test_nonpositive_distance_rejected(self):
        model = PathLossModel()
        for d in (0.0, -1.0):
            with pytest.raises(ValueError):
                model.gain(d)

    def test_bad_reference_distance(self):
        with pytest.raises(ValueError):
            PathLossModel(d0_m=0.0)


class TestChannel:
    def test_shape(self, rng):
        c = PhyConstants(n_antennas=4)
        state = phy.init_channel(c, [1.0], [0.9], rng)
        assert state.h.shape == (4, 1)

    def test_marginal_variance(self):
        # Monte Carlo oracle: per-entry variance of the draw equals the gain.
        rng = np.random.default_rng(7)
        c = PhyConstants(n_antennas=50_000)
        gains = np.array([0.5, 2.0])
        state = phy.init_channel(c, gains, [0.95, 0.95], rng)
        for m, g in enumerate(gains):
            col = state.h[:, m]
            var = np.var(col.real) + np.var(col.imag)
            assert var == pytest.approx(g, rel=0.03)

    def test_evolve_rho_one_is_frozen(self, rng):
        state = phy.init_channel(PhyConstants(), [1.0, 1.0], [1.0, 1.0], rng)
        trace = phy.evolve_channel(state, rng, 3)
        assert trace.shape == (4, 4, 2)
        assert all(np.array_equal(h, state.h) for h in trace)

    def test_evolve_rho_zero_is_pure_innovation(self):
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        state = phy.init_channel(PhyConstants(), [1.0], [0.0], r1)
        trace = phy.evolve_channel(state, r1, 1)
        # Same stream replayed: the innovation is exactly the next draw.
        phy.init_channel(PhyConstants(), [1.0], [0.0], r2)
        expected = phy._draw_columns(4, np.array([1.0]), r2)
        assert np.array_equal(trace[0], state.h)
        assert np.array_equal(trace[1], expected)

    def test_trace_matches_per_step_draws(self):
        # One batched draw and recursion give the values, in stream order,
        # of one (N, M) real and one (N, M) imaginary draw per step.
        gains, rho = np.array([0.5, 2.0, 1e-9]), np.array([0.9, 0.95, 0.3])
        state = phy.init_channel(PhyConstants(n_antennas=6), gains, rho, np.random.default_rng(1))
        trace = phy.evolve_channel(state, np.random.default_rng(2), 30)
        rng, h = np.random.default_rng(2), state.h
        for t in range(1, 31):
            re = rng.standard_normal((6, 3))
            im = rng.standard_normal((6, 3))
            h = rho * h + np.sqrt(1.0 - rho * rho) * (np.sqrt(gains / 2.0) * (re + 1j * im))
            assert np.array_equal(trace[t], h), f"slot {t}"

    def test_evolve_preserves_variance(self):
        # 2000 parallel trials evolved 200 steps at the default correlation.
        rng = np.random.default_rng(11)
        c = PhyConstants(n_antennas=4)
        gains = np.full(2000, 0.8)
        rho = np.full(2000, 0.95)
        state = phy.init_channel(c, gains, rho, rng)
        for _ in range(10):
            state = phy.ChannelState(phy.evolve_channel(state, rng, 20)[-1], rho, gains)
        var = np.var(state.h.real) + np.var(state.h.imag)
        assert var == pytest.approx(0.8, rel=0.05)


class TestZfNorms:
    def test_single_user(self):
        h = np.array([[[1.0], [1j]]])
        assert phy.zf_norms(h) == pytest.approx(np.array([[0.5]]))

    def test_identity(self):
        assert phy.zf_norms(np.eye(2, dtype=complex)[None]) == pytest.approx(np.ones((1, 2)))

    def test_orthogonal_columns(self):
        h = np.array([[[1.0, 0.0], [0.0, 2.0]]], dtype=complex)
        assert phy.zf_norms(h) == pytest.approx(np.array([[1.0, 0.25]]))

    def test_too_many_users(self):
        # A wide channel's Gram matrix is singular.
        with pytest.raises(cmatrix.SingularMatrixError, match="matrix 0") as info:
            phy.zf_norms(np.ones((1, 2, 3), dtype=complex))
        assert info.value.index == 0

    def test_duplicate_columns_singular(self, rng):
        col = random_channel(rng, 4, 1)
        with pytest.raises(cmatrix.SingularMatrixError):
            phy.zf_norms(np.hstack([col, col])[None])

    def test_stack_matches_one_channel_at_a_time(self, rng):
        stack = np.stack([random_channel(rng, 8, 8) for _ in range(30)])
        norms = phy.zf_norms(stack)
        assert norms.shape == (30, 8)
        for t in range(30):
            assert np.array_equal(norms[t], phy.zf_norms(stack[t:t + 1])[0])

    def test_stack_names_the_singular_channel(self, rng):
        stack = np.stack([random_channel(rng, 4, 2) for _ in range(6)])
        stack[4, :, 1] = stack[4, :, 0]
        with pytest.raises(cmatrix.SingularMatrixError, match="matrix 4") as info:
            phy.zf_norms(stack)
        assert info.value.index == 4

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_pseudo_inverse_rows(self, m, seed):
        # Dual route: the Gram-diagonal shortcut equals the row norms of
        # the pseudo-inverse formed by numpy's SVD, slot by slot.
        h = np.stack([random_channel(np.random.default_rng(seed), 4, m, gain)
                      for gain in (1.0, 1e-9)])
        z = np.linalg.pinv(h)
        norms = phy.zf_norms(h)
        assert norms == pytest.approx(np.sum(np.abs(z) ** 2, axis=-1), rel=1e-9)
        assert np.all(norms > 0)


class TestSinr:
    def test_zero_power(self):
        assert phy.sinr(0.0, 0.5, 1e-9) == 0.0

    def test_table_values(self):
        assert phy.sinr(2.0, 0.5, 1e-9) == pytest.approx(4e9)

    def test_linear_in_power(self, rng):
        for _ in range(10):
            p = float(rng.uniform(0, 2))
            zn = float(rng.uniform(0.1, 10))
            assert phy.sinr(2 * p, zn, 1e-9) == pytest.approx(2 * phy.sinr(p, zn, 1e-9))

    def test_inverse_in_noise(self):
        assert phy.sinr(1.0, 1.0, 2e-9) == pytest.approx(phy.sinr(1.0, 1.0, 1e-9) / 2)


class TestCapacities:
    C = PhyConstants(bandwidth_hz=1e6, slot_s=1e-3)

    def test_offload_zero(self):
        assert phy.offload_capacity(self.C, 0.0) == 0.0

    def test_offload_gamma_one(self):
        assert phy.offload_capacity(self.C, 1.0) == pytest.approx(1000.0)

    def test_offload_gamma_three(self):
        assert phy.offload_capacity(self.C, 3.0) == pytest.approx(2000.0)

    def test_local_zero(self):
        assert phy.local_capacity(self.C, 0.0) == 0.0

    def test_local_example(self):
        c = PhyConstants(kappa=1e-27, cycles_per_bit=500, slot_s=1e-3)
        assert phy.local_capacity(c, 1e-9) == pytest.approx(2.0)

    def test_local_cube_root_scaling(self):
        c = PhyConstants(kappa=1e-27, cycles_per_bit=500, slot_s=1e-3)
        assert phy.local_capacity(c, 8e-9) == pytest.approx(4.0)

    @given(st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_power(self, a, b):
        lo, hi = sorted((a, b))
        assert phy.local_capacity(self.C, lo) <= phy.local_capacity(self.C, hi)
        assert phy.offload_capacity(self.C, lo) <= phy.offload_capacity(self.C, hi)
