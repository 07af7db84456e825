"""Size ladder of macstag: step time and Krylov iterations against grid size.

    python3 bench/ladder.py

Not a gated workload and not part of the benchmark runs: it walks the sizes
2D 32^2-256^2 and 3D 8^3-32^3, on uniform and graded grids, once each. Every
size runs in a fresh process (so its peak RSS is its own), in the thread
environment the ladder is started in, as in the benchmark, and advances the
vortex problem for three steps of dt = 1/32. For each size it prints setup
time, median step time, Krylov iterations per step and peak RSS, and for each
(dimension, grid) series the fitted exponent p of step time ~ N^p in the cell
count N.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZES = {2: (32, 64, 128, 256), 3: (8, 16, 24, 32)}
RATIOS = {2: 1.02, 3: 1.05}  # the graded series use the workloads' grading
DT = 1.0 / 32
STEPS = 3  # time steps per size


def run_case(dim, n, ratio):
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import macstag

    problem = macstag.mms_problem("vortex2d" if dim == 2 else "vortex3d")
    grid = macstag.MacGrid([macstag.graded_axis(0.0, 1.0, n, ratio)] * dim)
    scheme = macstag.ProjectionScheme(grid)
    state = scheme.initialize(problem.initial)
    setup_s = time.perf_counter() - t0
    times, pred, corr = [], [], []
    for _ in range(STEPS):
        t0 = time.perf_counter()
        state, diag = scheme.step(state, problem.forcing, DT)
        times.append(time.perf_counter() - t0)
        pred.append(diag.pred_iters)
        corr.append(diag.corr_iters)
    return {
        "cells": n**dim,
        "setup_s": setup_s,
        "step_ms_p50": 1e3 * statistics.median(times),
        "pred_iters": statistics.mean(pred),
        "corr_iters": statistics.mean(corr),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def exponent(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--case", nargs=3, metavar=("DIM", "N", "RATIO"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.case:
        dim, n, ratio = int(args.case[0]), int(args.case[1]), float(args.case[2])
        print(json.dumps(run_case(dim, n, ratio)))
        return 0

    header = ("grid", "cells", "setup_s", "step_ms_p50", "pred_it", "corr_it", "rss_MiB")
    print(f"{header[0]:<16} " + " ".join(f"{h:>11}" for h in header[1:]))
    for dim in (2, 3):
        for kind, ratio in (("uniform", 1.0), ("graded", RATIOS[dim])):
            rows = []
            for n in SIZES[dim]:
                case = [str(dim), str(n), repr(ratio)]
                cmd = [sys.executable, __file__, "--case", *case]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
                row = json.loads(out.stdout.splitlines()[-1])
                rows.append(row)
                label = f"{dim}D {kind} {n}^{dim}"
                print(
                    f"{label:<16} {row['cells']:>11} {row['setup_s']:>11.3f} {row['step_ms_p50']:>11.1f} "
                    f"{row['pred_iters']:>11.0f} {row['corr_iters']:>11.0f} {row['peak_rss_mb']:>11.1f}",
                    flush=True,
                )
            cells = [r["cells"] for r in rows]
            p_time = exponent(cells, [r["step_ms_p50"] for r in rows])
            p_iter = exponent(cells, [r["pred_iters"] + r["corr_iters"] for r in rows])
            print(f"  {dim}D {kind}: step time ~ N^{p_time:.2f}, Krylov iterations ~ N^{p_iter:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
