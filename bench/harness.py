"""Workloads, the round every run repeats, and the end-to-end metrics.

A run of one workload at one seed goes:

1. a check pass: the round's warmup episodes, untimed, with every env step
   recorded and checked against independent recomputations;
2. timed rounds until ``--seconds`` have passed. A round trains the three
   algos in process from fresh trainers, taking turns episode by episode
   (warmup episodes, then post-warmup episodes), then runs ``mecrl train``
   and ``mecrl eval`` through ``mecrl.cli.main``. Every round repeats the
   same inputs, so its outputs must repeat byte for byte; they are checked
   after the round. After each round, fresh interpreters time ``import
   mecrl`` through the first env step being ready (``setup_s``).

With tracing on, odd rounds run traced and even ones untraced, so the
tracing overhead is measured on identical work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import mecrl
from mecrl import agents, cli, seeds
from mecrl.config import config_from_dict

import checks
from tracing import ALGOS, CLI_PHASE, TRAIN_PHASE, WARMUP_PHASE, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

NOISE_LEVEL = 0.5   # reward-noise λ, nonzero so the rmaddpg clamp is active
CLI_ALGO = "rmaddpg"
CLI_RUNS = 2
SETUP_PROBES_PER_ROUND = 2
# `mecrl eval` is short; running it twice per round doubles its samples.
EVALS_PER_ROUND = 2


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload. Every round of a run does the same work."""

    name: str
    n_users: int
    n_antennas: int
    post_episodes: int      # in-process post-warmup episodes per algo per round
    cli_episodes: int       # episodes of each seeded run of `mecrl train`
    eval_episodes: int = 20
    warmup_episodes: int = 3
    episode_len: int = 50
    batch_size: int = 128
    hidden: int = 64

    def tiny(self) -> "Workload":
        """The same workload shrunk to seconds, for the self-check."""
        return replace(self, post_episodes=1, cli_episodes=3, eval_episodes=2,
                       warmup_episodes=2, episode_len=10, batch_size=16, hidden=8)


WORKLOADS = {w.name: w for w in (
    Workload("train-desk", n_users=2, n_antennas=4, post_episodes=8, cli_episodes=4),
    Workload("train-wide", n_users=8, n_antennas=8, post_episodes=2, cli_episodes=4),
    Workload("experiment-cli", n_users=8, n_antennas=8, post_episodes=2, cli_episodes=7, eval_episodes=40),
)}


def experiment_doc(w: Workload, seed: int, algo: str, episodes: int, out_dir: str = "out") -> dict:
    """The config document the program receives. The seed sets the base
    seed and the user distances; everything that sets the amount of work,
    arrival rates included, is fixed."""
    rng = np.random.default_rng([seed, 0xBE4C])
    return {
        "env": {
            "n_users": w.n_users,
            "n_antennas": w.n_antennas,
            "distances_m": [round(float(d), 1) for d in rng.uniform(60.0, 140.0, w.n_users)],
            "noise_level": NOISE_LEVEL,
            "episode_len": w.episode_len,
        },
        "trainer": {"warmup_steps": w.warmup_episodes * w.episode_len,
                    "batch_size": w.batch_size, "hidden": w.hidden},
        "algo": algo,
        "episodes": episodes,
        "n_runs": CLI_RUNS,
        "base_seed": seed,
        "out_dir": out_dir,
    }


def start_run(cfg, algo: str):
    """Env, trainer and trainer streams of run 0, built as runner.run_training builds them."""
    env = mecrl.MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, 0))
    trainer = mecrl.Trainer(cfg.env, cfg.trainer, algo, seeds.stream(cfg.base_seed, 0, "net_init"))
    return (env, trainer, seeds.stream(cfg.base_seed, 0, "exploration"),
            seeds.stream(cfg.base_seed, 0, "buffer_sampling"))


def mean_return(stats) -> float:
    return math.fsum(stats.true_returns) / len(stats.true_returns)


_PROBE = """
import sys, time
t0 = time.perf_counter()
import mecrl
from mecrl import seeds
cfg = mecrl.load_config(sys.argv[1])
env = mecrl.MecEnv(cfg.env, **seeds.env_streams(cfg.base_seed, 0))
trainer = mecrl.Trainer(cfg.env, cfg.trainer, cfg.algo, seeds.stream(cfg.base_seed, 0, "net_init"))
env.reset()
env.obs_vectors()
print(time.perf_counter() - t0)
"""


def probe_setup(config: Path) -> float:
    """Seconds from before ``import mecrl`` until the first env step is
    ready, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(config)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


@dataclass
class Round:
    warmup_s: list = field(default_factory=list)   # per warmup episode, all algos
    post_s: dict = field(default_factory=lambda: {a: [] for a in ALGOS})
    train_s: float = 0.0                            # `mecrl train` wall
    eval_s: list = field(default_factory=list)      # `mecrl eval` walls
    returns: dict = field(default_factory=dict)     # algo -> per-episode mean true return
    eval_out: list = field(default_factory=list)    # `mecrl eval` standard output
    attempted: int = 0
    failed: int = 0


class Run:
    """One run of one workload at one seed."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.problems: list[str] = []
        episodes = w.warmup_episodes + w.post_episodes
        self.cfgs = {a: config_from_dict(experiment_doc(w, seed, a, episodes)) for a in ALGOS}
        self.exp_dir = work / "experiment"
        self.cli_config = work / "experiment.json"
        doc = experiment_doc(w, seed, CLI_ALGO, w.cli_episodes, str(self.exp_dir))
        self.cli_config.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        self.cli_cfg = config_from_dict(doc)
        self.checked_returns: dict[str, list[float]] = {}
        self.sample_bytes = 0
        self.checkpoint_bytes = 0
        self.outputs: dict[str, str] = {}

    def check_pass(self) -> None:
        """The round's warmup episodes of each algo, untimed, with every env
        step recorded and checked."""
        rows_by_algo = {}
        for algo in ALGOS:
            cfg = self.cfgs[algo]
            env, trainer, rng_explore, rng_sample = start_run(cfg, algo)
            rows = checks.record_steps(env)
            returns = [mean_return(agents.train_episode(env, trainer, rng_explore, rng_sample))
                       for _ in range(self.w.warmup_episodes)]
            self.problems += checks.check_steps(cfg, rows)
            self.problems += checks.check_params(trainer, f"{algo} check pass")
            self.problems += checks.check_returns(cfg, returns, f"{algo} check pass")
            rows_by_algo[algo] = rows
            self.checked_returns[algo] = returns
            batch = trainer.buffer.sample_arrays(cfg.trainer.batch_size, np.random.default_rng(0))
            self.sample_bytes = sum(a.nbytes for a in (batch.obs, batch.acts, batch.rewards, batch.next_obs))
        self.problems += checks.check_pairing(rows_by_algo)

    def run_round(self, tracer: Tracer | None) -> Round:
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        w, r = self.w, Round()
        # The algos take turns episode by episode, so each one's samples
        # spread over the whole round.
        runs = {algo: start_run(self.cfgs[algo], algo) for algo in ALGOS}
        r.returns = {algo: [] for algo in ALGOS}
        for ep in range(w.warmup_episodes + w.post_episodes):
            warm = ep < w.warmup_episodes
            for algo, (env, trainer, rng_explore, rng_sample) in runs.items():
                r.attempted += 1
                t0 = time.perf_counter()
                try:
                    with span(WARMUP_PHASE if warm else TRAIN_PHASE):
                        stats = agents.train_episode(env, trainer, rng_explore, rng_sample)
                except Exception as exc:  # a failed operation is counted, not fatal
                    r.failed += 1
                    print(f"bench: {algo} episode {ep} failed: {exc!r}", file=sys.stderr)
                    continue
                (r.warmup_s if warm else r.post_s[algo]).append(time.perf_counter() - t0)
                r.returns[algo].append(mean_return(stats))
        for algo, (_, trainer, _, _) in runs.items():
            self.problems += checks.check_params(trainer, f"{algo} round")
        r.train_s, _ = self._cli(r, span, ["train", "--config", str(self.cli_config)])
        for _ in range(EVALS_PER_ROUND):
            elapsed, out = self._cli(r, span, [
                "eval", "--config", str(self.cli_config), "--checkpoints", str(self.exp_dir / "checkpoints"),
                "--episodes", str(w.eval_episodes)])
            r.eval_s.append(elapsed)
            r.eval_out.append(out)
        return r

    @staticmethod
    def _cli(r: Round, span, argv: list[str]) -> tuple[float, str]:
        r.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), span(CLI_PHASE):
                code = cli.main(argv)
        except Exception as exc:  # a failed operation is counted, not fatal
            code = repr(exc)
        elapsed = time.perf_counter() - t0
        if code != 0:
            r.failed += 1
            print(f"bench: mecrl {argv[0]} failed: {code}", file=sys.stderr)
        return elapsed, out.getvalue()

    def _output_digests(self) -> dict[str, str]:
        return {str(p.relative_to(self.exp_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.exp_dir.rglob("*")) if p.is_file()}

    def check_round(self, r: Round, first: Round | None) -> None:
        """Full output checks on the first round; later rounds must repeat it."""
        digests = self._output_digests()
        if len(set(r.eval_out)) != 1:
            self.problems.append("mecrl eval outputs differ within a round")
        if first is not None:
            if r.returns != first.returns:
                self.problems.append("in-process training returns differ between rounds")
            if digests != self.outputs or r.eval_out != first.eval_out:
                self.problems.append("mecrl train/eval outputs differ between rounds")
            return
        self.outputs = digests
        for algo, returns in r.returns.items():
            cfg = self.cfgs[algo]
            self.problems += checks.check_returns(cfg, returns, f"{algo} round")
            n = len(self.checked_returns[algo])
            if returns[:n] != self.checked_returns[algo]:
                self.problems.append(f"{algo}: timed episodes differ from the checked ones")
        self.problems += checks.check_experiment(self.cli_cfg, self.exp_dir)
        ckpt = self.exp_dir / "checkpoints"
        self.problems += checks.check_eval(self.cli_cfg, ckpt, self.w.eval_episodes, r.eval_out[0])
        self.checkpoint_bytes = sum(p.stat().st_size for p in ckpt.iterdir())


def fast_decile(times: list[float]) -> float:
    """10th percentile of sample times. The host's CPUs switch between a
    fast and a contended speed every few seconds; the fast decile tracks the
    program's own speed, a median tracks the neighbours' share."""
    return float(np.percentile(times, 10))


def fast_round_s(rounds: list[Round]) -> float:
    """Time of one round with every operation at its fast decile."""
    r0 = rounds[0]
    return (len(r0.warmup_s) * fast_decile([t for r in rounds for t in r.warmup_s])
            + sum(len(r0.post_s[a]) * fast_decile([t for r in rounds for t in r.post_s[a]]) for a in ALGOS)
            + fast_decile([r.train_s for r in rounds])
            + len(r0.eval_s) * fast_decile([t for r in rounds for t in r.eval_s]))


def e2e_metrics(w: Workload, rounds: list[Round], setup: list[float],
                rss_mib: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from per-episode (training) and per-round (command) times."""
    out = {"setup_s": (fast_decile(setup), "s")}
    for algo in ALGOS:
        post = [t for r in rounds for t in r.post_s[algo]]
        out[f"train_steps_per_s.{algo}"] = (w.episode_len / fast_decile(post), "steps/s")
    warm = [t for r in rounds for t in r.warmup_s]
    out["warmup_steps_per_s"] = (w.episode_len / fast_decile(warm), "steps/s")
    evals = [t for r in rounds for t in r.eval_s]
    out["eval_steps_per_s"] = (w.eval_episodes * w.episode_len / fast_decile(evals), "steps/s")
    out["experiment_wall_s"] = (fast_decile([r.train_s for r in rounds]), "s")
    out["peak_rss_mib"] = (rss_mib, "MiB")
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns the result object and a detail record."""
    work = BENCH_DIR / "_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(w, seed, work)
        run.check_pass()
        setup: list[float] = []
        tracer = Tracer() if trace else None
        rounds: list[Round] = []
        traced: list[bool] = []
        t0 = time.perf_counter()
        while len(rounds) < (2 if trace else 1) or time.perf_counter() - t0 < seconds:
            on = trace and len(rounds) % 2 == 1
            if on:
                tracer.install()
            try:
                r = run.run_round(tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
            run.check_round(r, rounds[0] if rounds else None)
            if not rounds:
                # Read after one pass of every operation, so it does not
                # depend on how many rounds fit: the allocator keeps more
                # freed memory the more rounds run.
                rss_mib = peak_rss_mib()
            rounds.append(r)
            traced.append(on)
            # Spread over the run like the other samples.
            setup += [probe_setup(run.cli_config) for _ in range(SETUP_PROBES_PER_ROUND)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        overhead = (fast_round_s([r for r, on in zip(rounds, traced) if on])
                    / fast_round_s([r for r, on in zip(rounds, traced) if not on]) - 1.0)
        metrics = layer_metrics(tracer, overhead, run.sample_bytes, run.checkpoint_bytes)
        tracer.save(BENCH_DIR / "_out" / f"trace-{w.name}.npz")
    else:
        metrics = e2e_metrics(w, rounds, setup, rss_mib)
    result = {
        "correct": not run.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": w.name,
        "seed": seed,
        "inputs": {**vars(w), "noise_level": NOISE_LEVEL, "cli_algo": CLI_ALGO, "cli_runs": CLI_RUNS,
                   "config": experiment_doc(w, seed, CLI_ALGO, w.cli_episodes)["env"]},
        "machine": machine(),
        "rounds": len(rounds),
        "traced_rounds": sum(traced),
        "setup_s": setup,
        "samples_s": {
            "warmup": [t for r in rounds for t in r.warmup_s],
            **{f"post.{a}": [t for r in rounds for t in r.post_s[a]] for a in ALGOS},
            "mecrl_train": [r.train_s for r in rounds],
            "mecrl_eval": [t for r in rounds for t in r.eval_s],
        },
        "problems": run.problems[:10],
    }
    if trace:
        detail["spans"] = tracer.summary()
    return result, detail


def _schema_problems(result: dict, want: dict[str, str], positive: bool) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        out.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and failed == 0):
        out.append(f"attempted={attempted} failed={failed}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        out.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        v = m.get("value")
        if (set(m) != {"value", "unit"} or m.get("unit") != want.get(name)
                or not isinstance(v, (int, float)) or not math.isfinite(v) or (positive and v <= 0)):
            out.append(f"metric {name}: {m}")
    return out


def self_check() -> int:
    """Every workload at tiny size, untraced and traced, with every output
    check, and the result's schema against BENCHMARK.json. No timing bounds."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for entry in spec["workloads"]:
        w = WORKLOADS[entry["name"]].tiny()
        for trace in (False, True):
            result, detail = run_workload(w, seed=0, seconds=0.0, trace=trace)
            json.loads(json.dumps(result, allow_nan=False))
            problems = _schema_problems(result, want[trace], positive=not trace) + detail["problems"]
            failures += bool(problems)
            print(f"{w.name} trace={int(trace)}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    return 1 if failures else 0
