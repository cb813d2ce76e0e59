"""Uplink physical layer.

Log-distance path loss, Gauss-Markov Rayleigh fading, zero-forcing
combining norms, SINR, and the per-slot bit capacities of the transmit and
local-compute paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .errors import ConfigError


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance attenuation: ``g0_db - 10*alpha*log10(d/d0)`` in dB."""

    g0_db: float = -30.0
    alpha: float = 3.0
    d0_m: float = 1.0

    def __post_init__(self):
        if self.d0_m <= 0:
            raise ConfigError("reference distance d0_m must be positive")

    def gain(self, distance_m: float) -> float:
        """Linear power gain at the given distance."""
        db = self.g0_db - 10.0 * self.alpha * math.log10(distance_m / self.d0_m)
        return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class PhyConstants:
    """Fixed radio and processor constants shared by all users."""

    noise_power_w: float = 1e-9
    bandwidth_hz: float = 1e6
    slot_s: float = 1e-3
    kappa: float = 1e-27          # effective switched capacitance
    cycles_per_bit: float = 500.0
    n_antennas: int = 4

    def __post_init__(self):
        for name in ("noise_power_w", "bandwidth_hz", "slot_s", "kappa", "cycles_per_bit", "n_antennas"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")


@dataclass
class ChannelState:
    """Complex uplink channel, one column per user (or a stack of them).

    Column ``m`` follows a first-order autoregression with coefficient
    ``rho[m]`` whose stationary per-entry variance is ``gains[m]``; the
    path-loss gain is folded into the entries once at initialization and
    into the innovation, never re-applied per step.
    """

    h: np.ndarray       # (..., N, M) complex128
    rho: np.ndarray     # (M,) in [0, 1]
    gains: np.ndarray   # (M,) positive linear power gains


def _draw_columns(n_antennas: int, gains: np.ndarray, rng: np.random.Generator,
                  lead: tuple = ()) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, per-entry variance gains[m].

    One ``lead + (2, n_antennas, M)`` standard-normal draw: per leading
    index, the real parts and then the imaginary parts, which is the order
    of one draw per leading index.
    """
    scale = np.sqrt(gains / 2.0)
    z = rng.standard_normal(lead + (2, n_antennas, gains.size))
    return scale * (z[..., 0, :, :] + 1j * z[..., 1, :, :])


def init_channel(constants: PhyConstants, gains, rho, rng: np.random.Generator,
                 lead: tuple = ()) -> ChannelState:
    """Draw a channel from the stationary distribution of the recursion,
    or a ``lead``-shaped stack of them: one draw per channel, in order."""
    gains = np.asarray(gains, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    h = _draw_columns(constants.n_antennas, gains, rng, lead)
    return ChannelState(h=h, rho=rho, gains=gains)


def evolve_channel(state: ChannelState, rng: np.random.Generator, steps: int) -> np.ndarray:
    """The channel trace of ``steps`` autoregressive steps from each channel
    of ``state``: an ``(N, M)`` channel gives ``(steps + 1, N, M)``, slot 0
    being ``state.h``, and a ``lead + (N, M)`` stack gives ``lead +
    (steps + 1, N, M)``. Each channel's innovation is one (steps, 2, N, M)
    draw, taken channel by channel and scaled straight into the trace: the
    same values in the same stream order as ``steps`` one-step draws per
    channel, one channel after the other.

    One recursion then runs over all the channels at once: each step adds
    rho * h to the scaled innovation already in its slot, the same products
    and sums as one step of one channel at a time. rho is cast to complex
    once, as the multiply would cast it in every step."""
    h0 = state.h.reshape((-1,) + state.h.shape[-2:])
    trace = np.empty((len(h0), steps + 1) + h0.shape[1:], dtype=np.complex128)
    scale = np.sqrt(1.0 - state.rho * state.rho)
    for row, h in zip(trace, h0):
        row[0] = h
        np.multiply(scale, _draw_columns(h0.shape[-2], state.gains, rng, (steps,)), out=row[1:])
    rho = state.rho.astype(np.complex128)
    slots = list(trace.swapaxes(0, 1))
    scratch = np.empty_like(slots[0])
    for prev, nxt in zip(slots, slots[1:]):
        np.add(nxt, np.multiply(rho, prev, scratch), nxt)
    return trace.reshape(state.h.shape[:-2] + trace.shape[1:])


def zf_norms(h: np.ndarray) -> np.ndarray:
    """Per-user squared norms of the zero-forcing combining rows of a
    (T, N, M) channel trace: (T, M).

    The m-th row of the channel pseudo-inverse has squared norm equal to
    the m-th diagonal entry of the inverse Gram matrix, so the
    pseudo-inverse never needs to be formed. Raises SingularMatrixError,
    naming the first failing slot, for a rank-deficient channel (more
    users than antennas included); a non-finite channel makes a
    non-finite Gram matrix, which ``invert_hpd`` rejects. Either error
    ends the run that drew the trace: a Rayleigh channel has full column
    rank with probability 1, so no slot is drawn again.
    """
    gram_inv = cmatrix.invert_hpd(h.conj().swapaxes(-1, -2) @ h)
    return np.ascontiguousarray(np.diagonal(gram_inv, axis1=-2, axis2=-1).real)


def sinr(p_offload_w: float, zf_norm: float, noise_power_w: float) -> float:
    """Post-combining SINR: transmit power over noise times the row norm."""
    return p_offload_w / (noise_power_w * zf_norm)


def offload_capacity(constants: PhyConstants, gamma: float) -> float:
    """Bits transmittable in one slot at the given SINR."""
    return constants.slot_s * constants.bandwidth_hz * math.log2(1.0 + gamma)


def local_capacity(constants: PhyConstants, p_local_w: float) -> float:
    """Bits computable locally in one slot at the given CPU power.

    The feasible CPU frequency is the cube root of power over the switched
    capacitance, so the capacity grows with the cube root of power.
    """
    freq = (p_local_w / constants.kappa) ** (1.0 / 3.0)
    return constants.slot_s * freq / constants.cycles_per_bit
