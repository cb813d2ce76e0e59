"""Span tracing around mecrl's layer functions, and the per-layer metrics.

The tracer replaces each layer function at the module or class attribute
its callers resolve it through (``agents`` imports ``forward`` and friends
by name from ``neural``, ``cli`` imports the runner functions by name, and
so on), records one span per call with its parent, and restores the
originals on ``uninstall``. Spans live in flat in-memory arrays until the
run ends; self time is computed from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

ALGOS = ("ddpg", "maddpg", "rmaddpg")

# (module, attribute path, span name). One span name may cover several
# bindings of one function: runner.evaluate resolves neural.forward through
# the neural module, the trainers through the agents module.
PATCHES = (
    ("mecrl.cmatrix", "invert_hpd", "cmatrix.invert_hpd"),
    ("mecrl.phy", "zf_norms", "phy.zf_norms"),
    ("mecrl.phy", "evolve_channel", "phy.evolve_channel"),
    ("mecrl.env", "MecEnv.step", "env.step"),
    ("mecrl.env", "MecEnv.reset", "env.reset"),
    ("mecrl.env", "MecEnv.obs_vectors", "env.obs_vectors"),
    ("mecrl.agents", "forward", "neural.forward"),
    ("mecrl.neural", "forward", "neural.forward"),
    ("mecrl.agents", "backward", "neural.backward"),
    ("mecrl.agents", "adam_step", "neural.adam_step"),
    ("mecrl.agents", "soft_update", "neural.soft_update"),
    ("mecrl.agents", "eval_vec", "neural.eval_vec"),
    ("mecrl.agents", "act", "agents.act"),
    ("mecrl.agents", "td_update", "agents.td_update"),
    ("mecrl.agents", "ReplayBuffer.push", "agents.push"),
    ("mecrl.agents", "ReplayBuffer.sample_arrays", "agents.sample_arrays"),
    ("mecrl.agents", "train_episode", "agents.train_episode"),
    ("mecrl.runner", "train_episode", "agents.train_episode"),
    ("mecrl.agents", "Trainer.update", "agents.update"),
    ("mecrl.cli", "load_config", "config.load_config"),
    ("mecrl.cli", "run_training", "runner.run_training"),
    ("mecrl.cli", "save_checkpoints", "runner.save_checkpoints"),
    ("mecrl.cli", "write_csv", "runner.write_csv"),
    ("mecrl.cli", "write_run_csv", "runner.write_csv"),
    ("mecrl.cli", "evaluate", "runner.evaluate"),
    ("mecrl.cli", "render_svg", "svgplot.render_svg"),
    ("mecrl.cli", "main", "cli.main"),
)

# Root spans opened by the benchmark around the operations it times.
WARMUP_PHASE, TRAIN_PHASE, CLI_PHASE = "bench.warmup", "bench.train", "bench.cli"


class Tracer:
    """In-memory span recorder; one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.ctx = array("i")      # algo index of the enclosing Trainer.update, or -1
        self.root = array("i")     # index of the outermost enclosing span
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int, ctx: int = -1) -> int:
        stack = self._stack
        i = len(self.start)
        p = stack[-1] if stack else -1
        self.name_id.append(nid)
        self.parent.append(p)
        if p >= 0:
            self.ctx.append(ctx if ctx >= 0 else self.ctx[p])
            self.root.append(self.root[p])
        else:
            self.ctx.append(ctx)
            self.root.append(i)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(i)

    def _wrap(self, fn, name: str):
        enter, exit_ = self._enter, self._exit
        if name == "agents.update":
            # One span name per algo, and the algo becomes the context of
            # every span the update opens.
            ids = {a: (self._id(f"agents.update.{a}"), k) for k, a in enumerate(ALGOS)}

            def traced(trainer, *args, **kwargs):
                nid, ctx = ids[trainer.algo]
                i = enter(nid, ctx)
                try:
                    return fn(trainer, *args, **kwargs)
                finally:
                    exit_(i)
        else:
            nid = self._id(name)

            def traced(*args, **kwargs):
                i = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(i)
        return functools.wraps(fn)(traced)

    def install(self) -> None:
        for module, path, name in PATCHES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, ctx, root, duration, self time)."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        # Children of one span run one after another, so the part of the
        # parent's interval they cover is the sum of their durations.
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return (nid, parent, np.array(self.ctx, dtype=np.int64),
                np.array(self.root, dtype=np.int64), dur, dur - covered)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name."""
        nid, _, _, _, dur, self_t = self.arrays()
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_t[sel].sum())}
        return out

    def save(self, path: Path) -> None:
        """Write every span out: names plus one row per span."""
        nid, parent, ctx, root, _, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, parent=parent,
                            ctx=ctx, root=root, start=np.array(self.start), end=np.array(self.end))


def layer_metrics(tracer: Tracer, overhead: float, sample_bytes: int,
                  checkpoint_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rounds, as name -> (value, unit).
    ``overhead`` is the traced over the untraced round time, minus one."""
    nid, _, ctx, root, dur, self_t = tracer.arrays()
    ids = tracer._ids

    def sel(name: str, in_update: bool = False) -> np.ndarray:
        m = nid == ids[name]
        if in_update:
            m &= ctx >= 0
        if not m.any():
            raise RuntimeError(f"no {name} span was recorded")
        return m

    def mean(name: str, scale: float, in_update: bool = False) -> float:
        return float(dur[sel(name, in_update)].mean() * scale)

    update_counts = {a: int(sel(f"agents.update.{a}").sum()) for a in ALGOS}

    def per_update(name: str, k: int, algo: str) -> float:
        return int(((nid == ids[name]) & (ctx == k)).sum()) / update_counts[algo]

    out: dict[str, tuple[float, str]] = {}
    for layer in ("forward", "backward", "adam_step", "soft_update"):
        out[f"neural.{layer}.us"] = (mean(f"neural.{layer}", 1e6, in_update=True), "us")
    for layer in ("forward", "backward", "adam_step"):
        for k, a in enumerate(ALGOS):
            out[f"neural.{layer}.calls_per_update.{a}"] = (per_update(f"neural.{layer}", k, a), "calls")
    for a in ALGOS:
        out[f"agents.update.us.{a}"] = (mean(f"agents.update.{a}", 1e6), "us")
    out["agents.td_update.us"] = (mean("agents.td_update", 1e6), "us")
    for k, a in enumerate(ALGOS):
        out[f"agents.td_update.calls_per_update.{a}"] = (per_update("agents.td_update", k, a), "calls")
    out["agents.sample_arrays.us"] = (mean("agents.sample_arrays", 1e6), "us")
    out["agents.sample_arrays.bytes"] = (float(sample_bytes), "bytes")

    train_roots = sel(TRAIN_PHASE)
    in_train = np.isin(root, np.flatnonzero(train_roots))
    updates = np.isin(nid, [ids[f"agents.update.{a}"] for a in ALGOS])
    out["agents.update.share"] = (float(dur[updates & in_train].sum() / dur[train_roots].sum()), "ratio")

    out["env.step.us"] = (mean("env.step", 1e6), "us")
    out["env.step.self_us"] = (float(self_t[sel("env.step")].mean() * 1e6), "us")
    out["env.obs_vectors.us"] = (mean("env.obs_vectors", 1e6), "us")
    out["env.reset.us"] = (mean("env.reset", 1e6), "us")
    out["phy.zf_norms.us"] = (mean("phy.zf_norms", 1e6), "us")
    out["phy.evolve_channel.us"] = (mean("phy.evolve_channel", 1e6), "us")
    out["cmatrix.invert_hpd.us"] = (mean("cmatrix.invert_hpd", 1e6), "us")
    out["cmatrix.invert_hpd.calls_per_step"] = (
        int(sel("cmatrix.invert_hpd").sum()) / int(sel("env.step").sum()), "calls")
    out["agents.act.us"] = (mean("agents.act", 1e6), "us")
    out["agents.push.us"] = (mean("agents.push", 1e6), "us")
    out["neural.eval_vec.us"] = (mean("neural.eval_vec", 1e6), "us")

    out["runner.run_training.s"] = (mean("runner.run_training", 1.0), "s")
    out["runner.save_checkpoints.ms"] = (mean("runner.save_checkpoints", 1e3), "ms")
    out["runner.checkpoint_bytes"] = (float(checkpoint_bytes), "bytes")
    out["runner.write_csv.ms"] = (mean("runner.write_csv", 1e3), "ms")
    out["runner.evaluate.s"] = (mean("runner.evaluate", 1.0), "s")
    out["svgplot.render_svg.ms"] = (mean("svgplot.render_svg", 1e3), "ms")
    out["config.load_config.ms"] = (mean("config.load_config", 1e3), "ms")

    roots = root == np.arange(root.size)
    out["trace.unattributed.share"] = (float(self_t[roots].sum() / dur[roots].sum()), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
