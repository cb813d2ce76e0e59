"""Command-line interface: train, eval, plot, grid.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, load_config, save_config
from .errors import ConfigError
from .runner import (AggregateSeries, aggregate_runs, evaluate, load_policy, read_aggregate_csv,
                     run_training, save_checkpoints, typical_reward_magnitude, write_csv,
                     write_run_csv)
from .svgplot import render_svg


class CliError(Exception):
    """Bad command line; reported as usage + exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="mecrl", description="MEC task-offloading training workbench")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run seeded training runs and write curves")
    t.add_argument("--config", required=True, help="JSON experiment config")
    t.add_argument("--runs", type=int, default=None, help="override n_runs")
    t.add_argument("--out", default=None, help="override out_dir")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate saved checkpoints without exploration")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoints", required=True, help="directory with saved networks")
    e.add_argument("--episodes", type=int, default=20)
    e.set_defaults(func=cmd_eval)

    pl = sub.add_parser("plot", help="overlay aggregate CSVs into one SVG")
    pl.add_argument("--in", dest="inputs", nargs="+", required=True, help="aggregate CSV files")
    pl.add_argument("--out", required=True, help="output SVG path")
    pl.set_defaults(func=cmd_plot)

    g = sub.add_parser("grid", help="sweep discount and reward-noise levels")
    g.add_argument("--config", required=True)
    g.add_argument("--gamma", required=True, help="comma-separated discount factors")
    g.add_argument("--noise", required=True, help="comma-separated reward-noise levels")
    g.set_defaults(func=cmd_grid)
    return p


def _train_run(cfg: ExperimentConfig, k: int) -> list:
    """Seeded run k of the tree: its CSV and, for run 0, the checkpoints.

    The run's networks, optimizer state and replay buffer are released on
    return, before the next run builds its own.
    """
    stats, trainer = run_training(cfg, k)
    out = Path(cfg.out_dir)
    write_run_csv(stats, out / f"run_{k}.csv")
    if k == 0:
        save_checkpoints(trainer, cfg.algo, out / "checkpoints")
    return stats


def _train_share(cfg: ExperimentConfig, runs, conn) -> None:
    """A worker's share: each run's stats sent back in order, or the first failing one's error."""
    for k in runs:
        try:
            conn.send(_train_run(cfg, k))
        except Exception as exc:
            conn.send(exc)
            return


def _train_tree(cfg: ExperimentConfig) -> AggregateSeries:
    """Run cfg.n_runs seeded runs and write the documented output tree.

    The runs spread over ``W = min(n_runs, usable CPUs)`` processes. This
    one trains runs 0, W, 2W, ... itself and ``W - 1`` forked ones train
    the rest, each process its runs in increasing order; at W = 1 nothing
    is forked. Runs are self-contained and seeded, so the tree is
    byte-identical however they are spread. Results are taken in run
    order, so the error raised is the one of the earliest failing run. No
    worker outlives the call; one that dies raises ``ChildProcessError``
    naming its run.
    ``resolved_config.json`` is written last: a tree that has it is complete.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = cfg.n_runs
    w = min(n, len(os.sched_getaffinity(0)))
    shares = []
    if w > 1:
        import multiprocessing

        # Forked, not spawned: a worker starts as a copy of this process, so
        # it does not import numpy and mecrl again, a large share of a short
        # run. mecrl starts no threads, and OpenBLAS stops its own around a fork.
        ctx = multiprocessing.get_context("fork")
        for j in range(1, w):
            conn, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_train_share, args=(cfg, range(j, n, w), send))
            proc.start()
            send.close()
            shares.append((proc, conn))
    all_series = []
    try:
        for k in range(n):
            if k % w == 0:
                all_series.append(_train_run(cfg, k))
                continue
            proc, conn = shares[k % w - 1]
            try:
                stats = conn.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(f"the process training run {k} exited "
                                        f"with code {proc.exitcode}") from None
            if isinstance(stats, Exception):
                raise stats
            all_series.append(stats)
        for proc, _ in shares:
            proc.join()
    finally:
        for proc, conn in shares:
            proc.terminate()  # only a worker still busy; a joined one is not signalled
            proc.join()
            conn.close()
    agg = aggregate_runs(all_series)
    write_csv(agg, all_series, out / "aggregate.csv")
    render_svg([(cfg.algo, agg)], out / "curves.svg")
    save_config(cfg, out / "resolved_config.json")
    return agg


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.runs is not None:
        cfg = replace(cfg, n_runs=args.runs)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    _train_tree(cfg)
    print(f"wrote {Path(cfg.out_dir) / 'aggregate.csv'} and curves.svg ({cfg.n_runs} runs)")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    # evaluate reports a bad episode count before any checkpoint is read.
    policy = load_policy(cfg, args.checkpoints) if args.episodes >= 1 else None
    summary = evaluate(cfg, policy, args.episodes)
    print(f"evaluated {len(summary.episode_returns)} episodes: "
          f"mean true return {summary.mean_true_return:.4f} "
          f"(std {summary.std_true_return:.4f})")
    print("per-user mean true returns: " +
          ", ".join(f"user{m}={v:.4f}" for m, v in enumerate(summary.per_user_mean)))
    return 0


def cmd_plot(args) -> int:
    """Overlay the inputs, each labelled with its path relative to the
    inputs' common parent directory, without ``.csv``."""
    full = [os.path.abspath(p) for p in args.inputs]
    parent = os.path.commonpath([os.path.dirname(p) for p in full])
    series = [(os.path.relpath(f, parent).removesuffix(".csv"), read_aggregate_csv(p))
              for f, p in zip(full, args.inputs)]
    render_svg(series, args.out)
    print(f"wrote {args.out}")
    return 0


def _parse_list(text: str, what: str, named=()) -> list[tuple[str, float | None]]:
    """(token, value) pairs of a comma-separated list; value None for a token of ``named``."""
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in named:
            items.append((tok, None))
            continue
        try:
            value = float(tok)
        except ValueError as exc:
            raise ConfigError(f"bad {what} value {tok!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"bad {what} value {tok!r}: not a finite number")
        items.append((tok, value))
    if not items:
        raise ConfigError(f"empty {what} list")
    return items


def cmd_grid(args) -> int:
    """Train ddpg and rmaddpg in every (gamma, noise) cell and overlay them.
    The noise token ``probe`` is twice :func:`runner.typical_reward_magnitude`."""
    cfg = load_config(args.config)
    gammas = _parse_list(args.gamma, "gamma")
    noises = _parse_list(args.noise, "noise", named=("probe",))
    if any(value is None for _, value in noises):
        probe = 2.0 * typical_reward_magnitude(cfg)
        if not math.isfinite(probe):
            raise ConfigError(f"bad noise value 'probe': the level {probe} is not finite")
        print(f"reward-noise level: {probe:.3f}")
        noises = [(tok, probe if value is None else value) for tok, value in noises]
    root = Path(cfg.out_dir)
    for g_tok, g_val in gammas:
        for n_tok, n_val in noises:
            cell = root / f"g{g_tok}_n{n_tok}"
            cell_cfg = replace(cfg, env=replace(cfg.env, noise_level=n_val),
                               trainer=replace(cfg.trainer, gamma=g_val))
            overlays = []
            for algo in ("ddpg", "rmaddpg"):
                agg = _train_tree(replace(cell_cfg, algo=algo, out_dir=str(cell / algo)))
                tail = agg.mean[-100:]
                print(f"{cell} {algo}: final-100 mean return {math.fsum(tail) / len(tail):.2f}")
                overlays.append((algo, agg))
            render_svg(overlays, cell / "curves.svg")
            print(f"finished cell {cell}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        parser.print_usage(sys.stderr)
        print(f"mecrl: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"mecrl: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"mecrl: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mecrl: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
