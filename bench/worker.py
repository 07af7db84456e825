"""One fresh benchmark process: set up a workload, then run timed episodes.

Run by ``run.py``, never by hand. It prints JSON lines on stdout: a ``ready``
line the moment setup is done (the parent times setup from process start to
this line), then a ``result`` line with the raw samples. Setup covers import,
the sympy build of the manufactured problem, the config and grid, the
``ProjectionScheme`` (``Operators`` and ``Projector``) and ``initialize``.

The package is driven only through its public API and its CLI.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import JITTER, SOLVER, WORKLOADS  # noqa: E402


def emit(**message):
    print(json.dumps(message), flush=True)


GET_NUM_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in GET_NUM_THREADS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def axis_coords(macstag, wl, rng):
    """Face coordinates of one axis: the named grid, with cell widths jittered by the seed."""
    import numpy as np

    coords = macstag.graded_axis(0.0, 1.0, wl.n, wl.ratio)
    if rng is None:
        return coords
    widths = np.diff(coords) * (1.0 + JITTER * rng.uniform(-1.0, 1.0, wl.n))
    coords = np.concatenate([[0.0], np.cumsum(widths)])
    return coords / coords[-1]


def config_text(wl, axes, out_dir):
    lines = ["[grid]", "kind = coords"]
    lines += [f"coords_{a} = " + " ".join(repr(float(x)) for x in c) for a, c in enumerate(axes)]
    lines += ["[time]", f"final = {wl.t_final!r}", f"steps = {wl.steps}"]
    lines += ["[problem]", f"name = {wl.problem}"]
    lines += ["[solver]"] + [f"{k} = {v!r}" for k, v in SOLVER.items()]
    lines += ["[output]", f"directory = {out_dir}"]
    return "\n".join(lines) + "\n"


class Calibration:
    """A fixed kernel that does not touch macstag, timed to track the machine's speed.

    On a shared host the same step can take twice as long a few minutes
    later. The kernel is memory-bound like the solver's sparse loops: CSR
    matvecs and vector updates on a 256^2 Laplacian, whose 4 MB exceed a
    core's L2 cache. On a shared 2-core Xeon VM, over ten krylov2d runs, it cut the
    spread of the median step time from 0.19 unscaled (0.21 scaled by a kernel
    heavy in exp/sin ufuncs) to 0.11, and it tracked forcing3d and refine2d at
    least as well as that kernel.
    """

    def __init__(self, np, sp):
        n = 256
        ones = np.ones(n)
        lap = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1])
        eye = sp.identity(n)
        self.np = np
        self.matrix = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsr()
        self.x0 = np.linspace(0.0, 1.0, n * n)

    def sample(self, repeats=9):
        """Median milliseconds of one pass of the kernel."""
        np = self.np
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            x = self.x0
            for _ in range(25):
                y = self.matrix @ x
                x = x + 1e-3 * y / float(np.linalg.norm(y))
            times.append(time.perf_counter() - t0)
        return 1e3 * sorted(times)[repeats // 2]


ENERGY_MARGIN_MIN = -1e-9  # relative energy margin of a step


def step_failure(diag, div_limit):
    """Why a step's diagnostics fail the in-loop gates, or None if they pass."""
    if diag.div_max > div_limit:
        return f"step {diag.n}: div_max {diag.div_max:.3e} > {div_limit:.1e}"
    margin = diag.energy_residual / max(diag.energy_scale, 1e-300)
    if margin < ENERGY_MARGIN_MIN:
        return f"step {diag.n}: energy margin {margin:.3e} < {ENERGY_MARGIN_MIN:g}"
    return None


class StepGate:
    """Times every ProjectionScheme.step and checks its in-loop guarantees.

    The episode checks in main() repeat the gates from what the public API
    returns, and fail an episode whose steps this wrapper did not all see.
    """

    def __init__(self, cls, errors, div_limit):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.div_limit = div_limit
        orig = cls.step
        gate = self

        def step(scheme, state, forcing, dt):
            gate.attempted += 1
            t0 = time.perf_counter()
            try:
                new_state, diag = orig(scheme, state, forcing, dt)
            except errors as exc:
                gate.fail(f"step {state.n + 1} raised {type(exc).__name__}: {exc}")
                raise
            gate.times.append(time.perf_counter() - t0)
            failure = step_failure(diag, gate.div_limit)
            if failure:
                gate.fail(failure)
            return new_state, diag

        cls.step = step

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--min-episodes", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True, help="directory the worker may write to")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy
    import scipy.sparse
    import sympy

    import macstag
    from macstag import cli, output

    if Path(macstag.__file__).resolve().parent != (ROOT / "src" / "macstag").resolve():
        raise SystemExit(f"imported macstag from {macstag.__file__}, not from this checkout")
    import_s = time.perf_counter() - t_import

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, macstag)
    errors = (macstag.SolverError, macstag.SchemeError)
    div_limit = 10.0 * SOLVER["poisson_tol"]
    gate = StepGate(macstag.ProjectionScheme, errors, div_limit)

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    # -- setup -----------------------------------------------------------
    t0 = time.perf_counter()
    with span("mms.build"):
        problem = macstag.mms_problem(wl.problem)
    mms_s = time.perf_counter() - t0
    if tracer:
        forcing = problem.forcing

        def counted_forcing(t, pts):
            tracer.count("forcing_points", len(pts))
            return forcing(t, pts)

        # the cached problem instance is shared with the CLI, so it counts there too
        problem.forcing = counted_forcing

    rng = np.random.default_rng(args.seed) if args.seed else None
    axes = [axis_coords(macstag, wl, rng) for _ in range(wl.dim)]
    cfg_path = os.path.join(args.scratch, "workload.ini")
    output.write_text(cfg_path, config_text(wl, axes, os.path.join(args.scratch, "out")))
    t0 = time.perf_counter()
    with span("grid.build"):
        cfg = macstag.parse_config(cfg_path)
        grid = cfg.build_grid()
    grid_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    scheme = macstag.ProjectionScheme(grid, **cfg.scheme_kwargs())
    scheme_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    scheme.initialize(problem.initial)
    init_s = time.perf_counter() - t0
    emit(
        event="ready",
        import_s=import_s,
        mms_s=mms_s,
        grid_s=grid_s,
        scheme_s=scheme_s,
        initialize_s=init_s,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
            "macstag": macstag.__version__,
        },
        blas_threads=blas_threads(),
    )
    calibration = Calibration(np, scipy.sparse)
    calibration_ms = [calibration.sample()]
    if args.setup_only:
        emit(event="result", calibration_ms=calibration_ms)
        return 0

    # -- timed episodes --------------------------------------------------
    if tracer:
        tracer.phase = "run"
    study_argv = ["convergence", "--config", cfg_path, "--levels", str(wl.levels)]
    run_times, errs, messages, episode_steps = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    episode = 0
    while episode < args.min_episodes or time.perf_counter() < deadline:
        if tracer:
            # traced and untraced episodes alternate, so the overhead is measured under the same load
            tracer.episode = episode
            tracer.enabled = episode % 2 == 0
        out_dir = os.path.join(args.scratch, f"episode{episode}")
        before = (gate.attempted, gate.failed, len(gate.times))
        ok, err, note = True, math.nan, ""
        bad_steps = []  # gate failures found in the returned diagnostics
        t0 = time.perf_counter()
        try:
            if wl.levels:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(study_argv + ["--out", out_dir])
            else:
                traj = scheme.run(problem.initial, problem.forcing, wl.t_final, wl.steps)
                output.write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), traj.diagnostics)
                snapshot = os.path.join(out_dir, f"fields_{wl.steps:06d}.vtk")
                output.write_vtk(snapshot, grid, traj.velocities[-1], traj.pressures[-1])
        except errors as exc:
            ok, note = False, f"episode {episode}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0

        # -- outside the timed part: the episode's outputs are checked
        if ok and wl.levels:
            with open(os.path.join(out_dir, "study.csv")) as fh:
                rows = list(csv.DictReader(fh))
            level_errs = [float(r["err_l2l2"]) for r in rows]
            passed = len(level_errs) == wl.levels and all(
                e1 < e0 and e1 <= 0.8 * e0 for e0, e1 in zip(level_errs, level_errs[1:])
            )
            err = level_errs[-1] if level_errs else math.nan
            if rc != 0 or not passed:
                ok, note = False, f"episode {episode}: study failed its 0.8 refinement gate: {level_errs}"
            for r in rows:
                if float(r["min_energy_margin"]) < ENERGY_MARGIN_MIN:
                    bad_steps.append(f"level {r['cells']}: energy margin {r['min_energy_margin']}")
        elif ok:
            with span("verify.error_eval"):
                exact = macstag.face_average(grid, problem.velocity_at(wl.t_final), SOLVER["quad_order"])
                exact.zero_exterior()
                err = macstag.l2_norm(traj.velocities[-1] - exact) / macstag.l2_norm(exact)
            with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
                rows = list(csv.DictReader(fh))
            last = traj.diagnostics[-1]
            if len(rows) != wl.steps or float(rows[-1]["kinetic_energy"]) != last.kinetic_energy:
                ok, note = False, f"episode {episode}: diagnostics.csv does not match the run"
            bad_steps = [f for f in (step_failure(d, div_limit) for d in traj.diagnostics) if f]
            del traj
        timed = len(gate.times) - before[2]
        if ok and timed != wl.steps_per_episode:
            ok, note = False, f"episode {episode}: {timed} of its {wl.steps_per_episode} steps were timed"

        ep_attempted = gate.attempted - before[0]
        ep_failed = max(gate.failed - before[1], len(bad_steps))
        if bad_steps and len(messages) < 5:
            messages.append(f"episode {episode}: {bad_steps[0]}")
        if not ok:
            ep_failed = ep_attempted = max(ep_attempted, wl.steps_per_episode)
            if len(messages) < 5:
                messages.append(note)
        attempted += ep_attempted
        failed += ep_failed
        run_times.append(elapsed)
        errs.append(err)
        episode_steps.append(timed)
        calibration_ms.append(calibration.sample())
        episode += 1

    result = dict(
        event="result",
        step_ms=[1e3 * t for t in gate.times],
        run_s=run_times,
        mms_err=errs,
        attempted=attempted,
        failed=failed,
        messages=gate.messages + messages,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        episodes=episode,
        episode_steps=episode_steps,
        calibration_ms=calibration_ms,
    )
    if tracer:
        layer, per_episode = spans.summarize(tracer)
        traced = [e % 2 == 0 for e in range(episode)]
        result.update(layer=layer, per_episode=per_episode, absent=tracer.absent, episode_traced=traced)
        if args.trace_file:
            tracer.dump(args.trace_file, {"workload": wl.name, "seed": args.seed})
    emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
