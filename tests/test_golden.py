"""Golden values: the float columns of a tiny ``mecrl train`` per algo.

Values are compared at a relative tolerance of 1e-12 rather than by byte
hash; headers, row counts, episode numbers and the exploration scale
``sigma`` must match exactly. The tolerance was set when training ran in
float64, where a last-bit change in a BLAS or LAPACK kernel stayed inside
it. Training now runs in float32, and the goldens hold only under the
OpenBLAS kernels they were pinned with (AVX-512, SkylakeX): under the AVX2
(Haswell) or AVX (Sandybridge) kernels every case fails at up to about
3e-7 relative, which is a kernel difference, not a change in behaviour. Byte-identical reruns are
checked separately, by test_harness's ``test_byte_identical_reruns``.

Regenerate ``data/golden.json`` with ``PYTHONPATH=src python
tests/test_golden.py``, and only in a change that means to alter outputs.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from mecrl import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
ALGOS = ("ddpg", "maddpg", "rmaddpg")
SIZES = ((2, 4), (8, 8))
FILES = ("run_0.csv", "aggregate.csv")
EXACT_COLUMNS = ("episode", "sigma")
REL = 1e-12


def case_name(algo, users, antennas):
    return f"{algo}-{users}x{antennas}"


def train_outputs(algo, users, antennas, work: Path) -> dict:
    """Run ``mecrl train`` on the tiny config; return each CSV as
    ``{"header": [...], "rows": [[float, ...], ...]}``."""
    doc = {
        "env": {"n_users": users, "n_antennas": antennas, "episode_len": 20,
                "noise_level": 0.5},
        "trainer": {"warmup_steps": 30, "batch_size": 16, "buffer_capacity": 200},
        "algo": algo,
        "episodes": 3,
        "n_runs": 2,
        "base_seed": 0,
        "out_dir": str(work / "out"),
    }
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    outputs = {}
    for name in FILES:
        header, *lines = (work / "out" / name).read_text(encoding="ascii").splitlines()
        outputs[name] = {
            "header": header.split(","),
            "rows": [[float(v) for v in line.split(",")] for line in lines],
        }
    return outputs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("users,antennas", SIZES)
def test_train_outputs_match_golden(golden, tmp_path, algo, users, antennas):
    want = golden[case_name(algo, users, antennas)]
    got = train_outputs(algo, users, antennas, tmp_path)
    for name in FILES:
        header = want[name]["header"]
        assert got[name]["header"] == header, name
        assert len(got[name]["rows"]) == len(want[name]["rows"]), name
        for e, (row, ref) in enumerate(zip(got[name]["rows"], want[name]["rows"])):
            for col, v, r in zip(header, row, ref):
                if col in EXACT_COLUMNS:
                    assert v == r, f"{name} row {e} {col}: {v!r} != {r!r}"
                else:
                    assert math.isclose(v, r, rel_tol=REL, abs_tol=0.0), \
                        f"{name} row {e} {col}: {v!r} vs golden {r!r}"


def main() -> None:
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for users, antennas in SIZES:
            for algo in ALGOS:
                work = Path(tmp) / case_name(algo, users, antennas)
                work.mkdir()
                doc[case_name(algo, users, antennas)] = train_outputs(
                    algo, users, antennas, work)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
