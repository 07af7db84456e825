#
# The benchmark worker drives the package through its public API. One
# krylov2d episode covers run(), the timed step wrapper, velocity_at,
# write_vtk and write_diagnostics_csv, so an API change that breaks the
# worker fails here instead of only when the benchmark runs.
#

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_worker_runs_one_krylov2d_episode(tmp_path):
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", "krylov2d", "--seed", "0",
        "--seconds", "0", "--min-episodes", "1", "--scratch", str(tmp_path),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["event"] == "result"
    assert (result["attempted"], result["failed"], result["messages"]) == (8, 0, [])
    assert len(result["mms_err"]) == 1 and math.isfinite(result["mms_err"][0])
