#
# The benchmark worker drives the package through its public API. One
# episode of each workload covers run(), the timed step wrapper,
# velocity_at, write_vtk and write_diagnostics_csv on the 2D path, the same
# on the 3D path, and the CLI convergence study, so an API change that
# breaks the worker fails here instead of only when the benchmark runs.
#

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_episode(tmp_path, workload, steps):
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--min-episodes", "1", "--scratch", str(tmp_path),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["event"] == "result"
    assert (result["attempted"], result["failed"], result["messages"]) == (steps, 0, [])
    assert len(result["mms_err"]) == 1 and math.isfinite(result["mms_err"][0])


def test_worker_runs_one_krylov2d_episode(tmp_path):
    run_episode(tmp_path, "krylov2d", 8)


# steps in one episode: 8 for a run, 8 + 16 + 32 for a 3-level study
@pytest.mark.parametrize("workload, steps", [("forcing3d", 8), ("refine2d", 56)], ids=["forcing3d", "refine2d"])
def test_worker_runs_one_episode(tmp_path, workload, steps):
    run_episode(tmp_path, workload, steps)
