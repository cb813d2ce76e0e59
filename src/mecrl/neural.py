"""Two-layer ReLU perceptrons with hand-written backpropagation.

The deterministic policy update needs exact gradients with respect to the
network *input* as well as the parameters, so both paths are derived
analytically and checked against central finite differences. Parameters
live in one flat floating-point buffer with reshaped views per layer, which
lets the optimizer and target blending run as single vector operations;
computation runs in the buffer's dtype. Each layer's weights and bias are
one contiguous matrix, applied to its input with a trailing ones column,
so a layer is one matrix product. A buffer may carry a leading agent axis:
the same functions then evaluate, differentiate and step the networks of
all agents of one role at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

HIDDEN = 64

_LAYER_NAMES = ("w1", "b1", "w2", "b2")


class _LayerViews:
    """Flat buffer with per-layer views; layout w1t|b1|w2t|b2.

    Weights are stored in compute layout, ``w1t`` (in_dim, hidden) and
    ``w2t`` (hidden, out_dim), so that batches multiply them from the left
    without a transpose; ``w1``/``w2`` are the transposed views in the
    conventional (out, in) orientation. Each bias follows its weights, so
    ``l1`` (in_dim + 1, hidden) and ``l2`` (hidden + 1, out_dim) view a
    whole layer as one matrix whose last row is the bias. With ``agents``
    set, the buffer has a leading agent axis, ``flat`` is (agents, size),
    and every view gains that axis: one buffer holds the networks of all
    agents of one role. A new zero buffer takes ``dtype``; a given one
    keeps its own.
    """

    __slots__ = ("in_dim", "hidden", "out_dim", "agents", "flat",
                 "l1", "l2", "w1t", "b1", "w2t", "b2", "w1", "w2")

    def __init__(self, in_dim: int, out_dim: int, hidden: int = HIDDEN, flat=None,
                 agents: int | None = None, dtype=np.float64):
        if in_dim < 1 or out_dim < 1 or hidden < 1:
            raise ValueError("layer dimensions must be >= 1")
        lead = () if agents is None else (agents,)
        n1 = (in_dim + 1) * hidden
        shape = lead + (n1 + (hidden + 1) * out_dim,)
        if flat is None:
            flat = np.zeros(shape, dtype)
        else:
            flat = np.asarray(flat)
            if flat.shape != shape:
                raise ValueError(f"flat buffer must have shape {shape}, got {flat.shape}")
        self.in_dim, self.hidden, self.out_dim, self.agents = in_dim, hidden, out_dim, agents
        self.flat = flat
        self.l1 = flat[..., :n1].reshape(lead + (in_dim + 1, hidden))
        self.l2 = flat[..., n1:].reshape(lead + (hidden + 1, out_dim))
        self.w1t, self.b1 = self.l1[..., :-1, :], self.l1[..., -1, :]
        self.w2t, self.b2 = self.l2[..., :-1, :], self.l2[..., -1, :]
        self.w1 = self.w1t.swapaxes(-1, -2)
        self.w2 = self.w2t.swapaxes(-1, -2)

    def copy(self):
        return type(self)(self.in_dim, self.out_dim, self.hidden, self.flat.copy(), self.agents)

    def agent(self, m: int):
        """Single-network view of agent ``m``'s row of a stacked buffer."""
        return type(self)(self.in_dim, self.out_dim, self.hidden, self.flat[m])

    def same_shape(self, other) -> bool:
        return ((self.in_dim, self.hidden, self.out_dim, self.agents)
                == (other.in_dim, other.hidden, other.out_dim, other.agents))


class MlpParams(_LayerViews):
    """Weights and biases of one two-layer ReLU network."""


class Gradients(_LayerViews):
    """Parameter gradients, shape-matched to an MlpParams."""


def init_mlp(in_dim: int, out_dim: int, rng: np.random.Generator, hidden: int = HIDDEN) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    p = MlpParams(in_dim, out_dim, hidden)
    lim1 = np.sqrt(6.0 / (in_dim + hidden))
    lim2 = np.sqrt(6.0 / (hidden + out_dim))
    p.w1[:] = rng.uniform(-lim1, lim1, p.w1.shape)
    p.w2[:] = rng.uniform(-lim2, lim2, p.w2.shape)
    return p


def stack_params(nets: list[MlpParams], dtype=None) -> MlpParams:
    """Copy same-shaped single networks into one stacked buffer, in order,
    cast to ``dtype`` if given."""
    first = nets[0]
    if any(not first.same_shape(p) for p in nets):
        raise ValueError("networks of different shapes cannot be stacked")
    return MlpParams(first.in_dim, first.out_dim, first.hidden,
                     np.stack([p.flat for p in nets], dtype=dtype), len(nets))


def input_buffer(lead: tuple[int, ...], width: int, dtype) -> np.ndarray:
    """Uninitialised (*lead, width + 1) array whose last column is ones: a
    layer input of ``width`` features with its bias column in place."""
    buf = np.empty(lead + (width + 1,), dtype)
    buf[..., -1] = 1.0
    return buf


def forward(p: MlpParams, x, ones_column: bool = False):
    """Evaluate the network; returns (y, cache) with cache for backward.

    For a single network ``x`` may be one input vector or a (batch, in_dim)
    matrix; the output shape follows suit. For a stacked network ``x`` is
    either a (batch, in_dim) matrix every agent reads, or one
    (batch, in_dim) matrix per agent, (agents, batch, in_dim); the output is
    (agents, batch, out_dim). With ``ones_column`` the input already ends
    in the bias column of ones, (..., in_dim + 1), as from
    :func:`input_buffer`; otherwise it is copied into such a buffer. The
    input is cast to the parameters' dtype.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    ndims = (2,) if p.agents is None else (2, 3)
    if xb.ndim not in ndims or xb.shape[-1] != p.in_dim + ones_column or (
            xb.ndim == 3 and xb.shape[0] != p.agents):
        raise ValueError(f"input has shape {x.shape}, network expects in_dim {p.in_dim}"
                         + (" plus a ones column" if ones_column else ""))
    dtype = p.flat.dtype
    if ones_column:
        xb = xb.astype(dtype, copy=False)
    else:
        xa = input_buffer(xb.shape[:-1], p.in_dim, dtype)
        xa[..., :-1] = xb
        xb = xa
    lead = () if p.agents is None else (p.agents,)
    h = input_buffer(lead + xb.shape[-2:-1], p.hidden, dtype)
    np.matmul(xb, p.l1, out=h[..., :-1])
    # The ReLU leaves the ones column as it is.
    np.maximum(h, 0.0, out=h)
    y = h @ p.l2
    return (y[0] if single else y), (xb, h, single)


def eval_vec(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Cache-free evaluation of one input vector per network (hot path for
    acting): ``x`` is (in_dim,) for a single network, (agents, in_dim) for a
    stacked one. The small input is cast to the parameters' dtype, so the
    weights are never converted."""
    x = x.astype(p.flat.dtype, copy=False)
    h1 = np.matmul(x[..., None, :], p.w1t)[..., 0, :]
    h1 += p.b1
    np.maximum(h1, 0.0, out=h1)
    y = np.matmul(h1[..., None, :], p.w2t)[..., 0, :]
    y += p.b2
    return y


def backward(p: MlpParams, cache, dy, out: Gradients | None = None, need_dx: bool = True):
    """Gradients of ``<dy, y>`` w.r.t. parameters and input.

    Returns ``(g, dx)``; ``dx`` is None when ``need_dx`` is false. ``out``
    may supply a preallocated Gradients buffer. A cache serves one backward
    call: the hidden-layer gradient is formed in its activation buffer.
    Each layer's input carries a ones column, so the last row of each
    weight-gradient product is the bias gradient.
    """
    xb, h, single = cache
    dy = np.asarray(dy, dtype=p.flat.dtype)
    dyb = dy[None, :] if single else dy
    if dyb.shape != h.shape[:-1] + (p.out_dim,):
        raise ValueError(
            f"upstream gradient shape {dy.shape} does not match cache batch "
            f"{h.shape[:-1]} and out_dim {p.out_dim}"
        )
    g = out if out is not None else Gradients(p.in_dim, p.out_dim, p.hidden, agents=p.agents,
                                              dtype=p.flat.dtype)
    np.matmul(h.swapaxes(-1, -2), dyb, out=g.l2)
    # ReLU mask: post-activation h is positive exactly where the
    # pre-activation was. The ones column's entry of the product below
    # (dy times b2) is never read.
    active = h > 0.0
    l2t = p.l2.swapaxes(-1, -2)
    if p.out_dim == 1:
        # dy @ l2t is an outer product here; numpy's matmul takes a slow
        # loop for a unit inner dimension, a broadcast multiply does not.
        dz = np.multiply(dyb, l2t, out=h)
    else:
        dz = np.matmul(dyb, l2t, out=h)
    dz *= active
    dz1 = dz[..., :-1]
    np.matmul(xb.swapaxes(-1, -2), dz1, out=g.l1)
    if not need_dx:
        return g, None
    dx = dz1 @ p.w1
    return g, (dx[0] if single else dx)


@dataclass
class AdamState:
    """First/second-moment accumulators and step constants for one network
    or one stack of networks."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    _scratch: np.ndarray | None = field(default=None, repr=False)


def adam_step(state: AdamState, p: MlpParams, g: Gradients) -> None:
    """One bias-corrected adaptive-moment descent step along ``g``.

    Callers negate the gradient for ascent. Mutates ``p`` and ``state``.
    """
    if not p.same_shape(g):
        raise ValueError("gradient shapes do not match parameters")
    if state.m is None:
        state.m = np.zeros_like(p.flat)
        state.v = np.zeros_like(p.flat)
        state._scratch = np.empty_like(p.flat)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    s = state._scratch
    np.multiply(state.m, b1, out=state.m)
    np.multiply(g.flat, 1.0 - b1, out=s)
    state.m += s
    np.multiply(state.v, b2, out=state.v)
    np.multiply(g.flat, g.flat, out=s)
    s *= 1.0 - b2
    state.v += s
    np.multiply(state.v, 1.0 / (1.0 - b2 ** state.t), out=s)
    np.sqrt(s, out=s)
    s += state.eps
    np.divide(state.m, s, out=s)
    s *= state.lr / (1.0 - b1 ** state.t)
    p.flat -= s


def soft_update(target: MlpParams, online: MlpParams, tau_soft: float) -> None:
    """Blend ``target`` toward ``online``: (1 - tau)*target + tau*online."""
    if not target.same_shape(online):
        raise ValueError("target and online networks differ in shape")
    target.flat *= 1.0 - tau_soft
    target.flat += tau_soft * online.flat


def grad_check(p: MlpParams, x, dy, step: float = 1e-6) -> float:
    """Max relative deviation of backward against central differences.

    Covers every parameter and every input component. The relative error
    uses a guarded denominator so an all-zero comparison reports 0.
    """
    xa = np.array(x, dtype=np.float64)
    dya = np.asarray(dy, dtype=np.float64)

    def objective() -> float:
        y, _ = forward(p, xa)
        return float(np.sum(dya * y))

    y, cache = forward(p, xa)
    g, dx = backward(p, cache, dya)

    worst = 0.0
    for arr, analytic in ((p.flat, g.flat), (xa.ravel(), np.asarray(dx).ravel())):
        for i in range(arr.size):
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


def params_to_doc(p: MlpParams) -> dict:
    """Shape-tagged flat decimal arrays, one entry per layer."""
    return {
        name: {"shape": list(getattr(p, name).shape), "data": getattr(p, name).ravel().tolist()}
        for name in _LAYER_NAMES
    }


def params_from_doc(doc: dict) -> MlpParams:
    """Rebuild parameters from :func:`params_to_doc` output."""
    try:
        shapes = {name: tuple(doc[name]["shape"]) for name in _LAYER_NAMES}
        data = {name: doc[name]["data"] for name in _LAYER_NAMES}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc
    hidden, in_dim = shapes["w1"]
    out_dim = shapes["b2"][0]
    expect = {"w1": (hidden, in_dim), "b1": (hidden,), "w2": (out_dim, hidden), "b2": (out_dim,)}
    if shapes != expect:
        raise ValueError(f"inconsistent layer shapes: {shapes}")
    p = MlpParams(in_dim, out_dim, hidden)
    for name in _LAYER_NAMES:
        arr = np.asarray(data[name], dtype=np.float64)
        if arr.size != getattr(p, name).size:
            raise ValueError(f"layer {name}: expected {getattr(p, name).size} values, got {arr.size}")
        getattr(p, name)[:] = arr.reshape(shapes[name])
    return p


def save_params(p: MlpParams, path) -> None:
    # json.dumps takes the C encoder; json.dump would encode in Python.
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(params_to_doc(p)))


def load_params(path) -> MlpParams:
    with open(path, "r", encoding="utf-8") as f:
        return params_from_doc(json.load(f))
