"""mecrl training-throughput benchmark.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

Run from anywhere inside a checkout; the program is imported from its
``src`` tree. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it is a detail record (inputs, machine, raw samples, and with
tracing the per-span totals). ``--self-check`` runs every workload at a
tiny size and validates the result schema against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS/OpenMP thread in this process and the processes it starts; set
# before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _disable_huge_pages() -> None:
    """Opt this process and its children out of transparent huge pages, so
    peak RSS counts the pages the program touches rather than the 2 MiB
    pages the kernel happened to have free."""
    import ctypes

    pr_set_thp_disable = 41
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_thp_disable, 1, 0, 0, 0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="train-desk, train-wide or experiment-cli")
    p.add_argument("--seed", type=int, default=1, help="seed the workload's inputs are drawn from")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--self-check", action="store_true",
                   help="run every workload at a tiny size and validate the result schema")
    args = p.parse_args(argv)
    if not (SRC / "mecrl" / "__init__.py").is_file():
        print(f"bench: no mecrl sources at {SRC}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.self_check and args.seed < 0:
        p.error("--seed must be nonnegative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    _disable_huge_pages()
    sys.path.insert(0, str(SRC))
    import harness

    if args.self_check:
        return harness.self_check()
    if args.workload not in harness.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    result, detail = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                          args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
