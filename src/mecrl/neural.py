"""Two-layer ReLU perceptrons with hand-written backpropagation.

Parameters live in one flat floating-point buffer with reshaped views per
layer, which lets the optimizer and target blending run as single vector
operations; computation runs in the buffer's dtype. Each layer's weights
and bias are one contiguous matrix, applied to its input with a trailing
ones column, so a layer is one matrix product. A buffer may carry a
leading agent axis: the same functions then evaluate, differentiate and
step the networks of all agents of one role at once. The policy update
forms the critic's input gradient itself; ``backward``'s ``need_dx`` serves
the tests' per-agent reference update and finite-difference checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .files import write_atomic

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


def forward(p: MlpParams, xb: np.ndarray, zeros: np.ndarray | None = None):
    """Evaluate the network on a batch ``xb`` in the parameters' dtype that
    ends in its ones column (see :func:`input_buffer`): (batch, in_dim + 1),
    or for a stacked network that or one such batch per agent. Returns
    (y, cache), y batched, the cache for :func:`backward`; ``zeros`` is an
    optional zero array of the hidden activation's shape. numpy's matrix
    products raise ValueError for a mis-shaped input."""
    lead = () if p.agents is None else (p.agents,)
    h = input_buffer(lead + xb.shape[-2:-1], p.hidden, p.flat.dtype)
    np.matmul(xb, p.l1, out=h[..., :-1])
    # The ReLU leaves the ones column as it is. Against a zero array of
    # h's shape numpy runs its vector loop; a scalar 0.0 or a broadcast
    # zero row takes slower loops, with the same results.
    np.maximum(h, np.zeros_like(h) if zeros is None else zeros, out=h)
    return h @ p.l2, (xb, h)


def eval_vec(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Cache-free evaluation of one input vector per network (hot path for
    acting): ``x`` is (in_dim,) for a single network, (agents, in_dim) for a
    stacked one, either with any leading axes before them (say, one per
    episode). Every vector is its own (1 x in_dim) @ (in_dim x hidden)
    product, so a row's result does not depend on the rows beside it. The
    small input is cast to the parameters' dtype, so the weights are never
    converted."""
    x = x.astype(p.flat.dtype, copy=False)
    h1 = np.matmul(x[..., None, :], p.w1t)[..., 0, :]
    h1 += p.b1
    np.maximum(h1, 0.0, out=h1)
    y = np.matmul(h1[..., None, :], p.w2t)[..., 0, :]
    y += p.b2
    return y


def backward(p: MlpParams, cache, dy: np.ndarray, g: Gradients, need_dx: bool,
             pads: tuple[np.ndarray, np.ndarray] | None = None):
    """Gradients of ``<dy, y>`` w.r.t. parameters, written into ``g``, and
    input; returns ``(g, dx)``, ``dx`` None unless ``need_dx``. ``dy`` is
    batched in the parameters' dtype. A cache serves one backward call: the
    hidden-layer gradient is formed in its activation buffer. Each layer's
    input carries a ones column, so the last row of each weight-gradient
    product is the bias gradient. ``pads`` are optional operands for the
    one-output case below."""
    xb, h = cache
    np.matmul(h.swapaxes(-1, -2), dy, out=g.l2)
    # ReLU mask: post-activation h is positive exactly where the
    # pre-activation was. The ones column's entry of the product below
    # (dy times b2) is never read.
    active = h > 0.0
    l2t = p.l2.swapaxes(-1, -2)
    if p.out_dim == 1:
        # dy @ l2t is an outer product here. numpy's matmul takes a slow
        # loop for a unit inner dimension, and a broadcast multiply runs
        # one row of hidden + 1 at a time; one gemm of the operands padded
        # with zeros to an inner dimension of 2, [dy | 0] @ [l2t ; 0], does
        # neither. Each entry is dy * l2 + 0 * 0, rounded once as the plain
        # product is; only a -0 product comes out +0, which the mask and
        # the sums below do not tell apart.
        if pads is None:
            pads = (np.zeros(dy.shape[:-1] + (2,), dy.dtype),
                    np.zeros(l2t.shape[:-2] + (2, p.hidden + 1), dy.dtype))
        dy_pad, l2t_pad = pads
        dy_pad[..., :1] = dy
        l2t_pad[..., :1, :] = l2t
        dz = np.matmul(dy_pad, l2t_pad, out=h)
    else:
        dz = np.matmul(dy, l2t, out=h)
    dz *= active
    dz1 = dz[..., :-1]
    np.matmul(xb.swapaxes(-1, -2), dz1, out=g.l1)
    return g, (dz1 @ p.w1 if need_dx else None)


# Every FLUSH_EVERY-th step, adam_step zeroes the moment entries that
# decaying with a zero gradient would take below the dtype's smallest normal
# number before the next flush. Moments of dead units would otherwise decay
# into subnormals, on which every pass over the buffer runs several times
# slower. A zeroed first moment is below tiny / beta1**64, about 1e-35 in
# float32, so the parameter change it would have made, at most lr * m / eps,
# is lost in rounding on any parameter above about 1e-22 in magnitude; a
# zeroed second moment is far below eps**2.
FLUSH_EVERY = 64


@dataclass
class AdamState:
    """First/second-moment accumulators, with one scratch array of their
    size, and step constants for one network or one stack of networks.
    The arrays are made at the first step."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    _scratch: np.ndarray | None = field(default=None, repr=False)


def adam_step(state: AdamState, p: MlpParams, g: Gradients) -> None:
    """One bias-corrected adaptive-moment descent step along ``g``, which
    callers negate for ascent. Mutates ``p`` and ``state``, reads ``g``."""
    if not p.same_shape(g):
        raise ValueError("gradient shapes do not match parameters")
    if state.m is None:
        state.m = np.zeros_like(p.flat)
        state.v = np.zeros_like(p.flat)
        state._scratch = np.empty_like(p.flat)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v, s = state.m, state.v, state._scratch
    np.multiply(m, b1, out=m)
    np.multiply(g.flat, 1.0 - b1, out=s)
    m += s
    np.multiply(v, b2, out=v)
    np.multiply(g.flat, g.flat, out=s)
    s *= 1.0 - b2
    v += s
    if state.t % FLUSH_EVERY == 0:
        _flush_small(m, b1)
        _flush_small(v, b2)
    np.multiply(v, 1.0 / (1.0 - b2 ** state.t), out=s)
    np.sqrt(s, out=s)
    s += state.eps
    np.divide(m, s, out=s)
    s *= state.lr / (1.0 - b1 ** state.t)
    p.flat -= s


def _flush_small(moment: np.ndarray, beta: float) -> None:
    """Zero the entries that ``FLUSH_EVERY`` decays by ``beta`` would take
    below the smallest normal number of the moment's dtype."""
    floor = np.finfo(moment.dtype).tiny / beta ** FLUSH_EVERY
    moment[np.abs(moment) < floor] = 0.0


def soft_update(target: MlpParams, online: MlpParams, tau_soft: float) -> None:
    """Blend ``target`` toward ``online``: (1 - tau)*target + tau*online."""
    if not target.same_shape(online):
        raise ValueError("target and online networks differ in shape")
    target.flat *= 1.0 - tau_soft
    target.flat += tau_soft * online.flat


def params_to_doc(p: MlpParams) -> dict:
    """Shape-tagged flat decimal arrays, one entry per layer."""
    return {
        name: {"shape": list(getattr(p, name).shape), "data": getattr(p, name).ravel().tolist()}
        for name in _LAYER_NAMES
    }


def params_from_doc(doc: dict) -> MlpParams:
    """Rebuild parameters from :func:`params_to_doc` output.

    Every shape must be a list of positive integers and every layer's data
    as long as its shape's product; both are checked before anything is
    allocated, so a document's claims cannot allocate more than it holds.
    """
    try:
        layers = {name: (doc[name]["shape"], doc[name]["data"]) for name in _LAYER_NAMES}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc
    shapes = {}
    for name, (shape, data) in layers.items():
        if not (isinstance(shape, list) and shape
                and all(type(d) is int and d > 0 for d in shape)):
            raise ValueError(f"layer {name}: shape {shape!r} is not a list of positive integers")
        size = math.prod(shape)
        if not isinstance(data, list) or len(data) != size:
            got = f"{len(data)} values" if isinstance(data, list) else type(data).__name__
            raise ValueError(f"layer {name}: shape {shape} takes {size} values, got {got}")
        shapes[name] = tuple(shape)
    if len(shapes["w1"]) != 2 or len(shapes["b2"]) != 1:
        raise ValueError(f"inconsistent layer shapes: {shapes}")
    (hidden, in_dim), (out_dim,) = shapes["w1"], shapes["b2"]
    expect = {"w1": (hidden, in_dim), "b1": (hidden,), "w2": (out_dim, hidden), "b2": (out_dim,)}
    if shapes != expect:
        raise ValueError(f"inconsistent layer shapes: {shapes}")
    p = MlpParams(in_dim, out_dim, hidden)
    for name, (_, data) in layers.items():
        try:
            arr = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"layer {name}: {exc}") from None
        if arr.shape != (len(data),):
            raise ValueError(f"layer {name}: data is not a flat list of numbers")
        if not np.isfinite(arr).all():
            raise ValueError(f"layer {name}: value {arr[~np.isfinite(arr)][0]} is not finite")
        getattr(p, name)[:] = arr.reshape(shapes[name])
    return p


def save_params(p: MlpParams, path) -> None:
    # json.dumps takes the C encoder; json.dump would encode in Python.
    write_atomic(path, json.dumps(params_to_doc(p)).encode("utf-8"))


def load_params(path) -> MlpParams:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return params_from_doc(json.load(f))
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
