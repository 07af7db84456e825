"""Workload and metric definitions of the macstag benchmark.

This module is plain data, so the orchestrator can read it without importing
the solver. ``run.py --write-manifest`` turns it into ``BENCHMARK.json``.

Every workload is closed-loop and single-process: one client advances the
scheme, and the next episode starts only when the previous one has finished.
An episode is a fixed amount of work (one ``ProjectionScheme.run`` plus its
writes, or one refinement study); a run repeats episodes until its time is up.
An operation, for ``attempted``/``failed``, is one time step.
"""

from __future__ import annotations

from dataclasses import dataclass

# Relative half-width of the per-cell width jitter that a nonzero seed applies
# to every axis of a workload grid. At +-10% every correctness gate passes on
# seeds 0-31, and mms_err stays within 6% of the seed-0 value.
JITTER = 0.10

# Solver settings shared by every workload: the package defaults.
SOLVER = {"prediction_tol": 1e-10, "poisson_tol": 1e-10, "quad_order": 3}

# Fresh processes that set up in one run; setup_s is their median.
SETUP_REPEATS = 3

# Every time the benchmark reports is scaled to a machine on which the
# calibration kernel of worker.py takes this long: reported = measured x
# CALIBRATION_MS / (median kernel time of the run). On a shared 2-core Xeon VM
# the same deterministic step took up to twice as long a few minutes later, as
# the host's load changed; the kernel's time moved with it.
CALIBRATION_MS = 15.0

# Workers inherit the thread environment the benchmark is started in, the one
# users run macstag in; unset, OpenBLAS takes one thread per core. BLAS is not
# pinned: over ten seeds with calibrated times, the default threads kept the
# krylov2d step_ms_p50 spread at 0.07 of its median, inside its bound. Each
# result stamps these variables and the thread count OpenBLAS reports.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Seconds of episodes one run measures.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str
    dim: int
    n: int  # cells per axis of the base grid
    ratio: float  # geometric grading of the base grid, 1 for uniform
    t_final: float
    steps: int  # steps of one episode (of the coarsest level for a study)
    levels: int = 0  # refinement levels; 0 means a plain run

    @property
    def steps_per_episode(self):
        """Steps one episode takes: a study doubles the step count per level."""
        return self.steps * (2**self.levels - 1) if self.levels else self.steps


WORKLOADS = {
    w.name: w
    for w in (
        # 128^2 graded: BiCGStab and CG take ~90% of a step (550-780 iterations
        # per solve), so this is where exact separable solvers would land.
        Workload(
            name="krylov2d",
            why="2D vortex on a graded 128^2 grid: Krylov solves (BiCGStab prediction, CG Poisson) "
            "dominate each step",
            problem="vortex2d",
            dim=2,
            n=128,
            ratio=1.02,
            t_final=0.25,
            steps=8,
        ),
        # 16^3 graded: the face-averaged forcing takes ~85% of a step and the
        # Krylov solves ~10%, so faster solvers should barely move it, while a
        # cheaper forcing path should. It also has the largest sympy build.
        Workload(
            name="forcing3d",
            why="3D vortex on a graded 16^3 grid: the face-averaged MMS forcing dominates each step "
            "and sympy dominates setup",
            problem="vortex3d",
            dim=3,
            n=16,
            ratio=1.05,
            t_final=0.25,
            steps=8,
        ),
        # Three levels from 16^2, doubling grid and step count: many cheap
        # steps, stored trajectories, per-step exact-field errors and study
        # writes, so per-step overhead and post-processing show.
        Workload(
            name="refine2d",
            why="CLI convergence study, 2D vortex, 3 uniform levels from 16^2: many cheap steps, "
            "stored trajectories, error evaluation",
            problem="vortex2d",
            dim=2,
            n=16,
            ratio=1.0,
            t_final=0.25,
            steps=8,
            levels=3,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


# Times (units s and ms) are wall times scaled by CALIBRATION_MS, end-to-end
# and per layer alike, except machine.calibration_ms.
END_TO_END = (
    # median wall time of a fresh process up to its first step
    Metric("setup_s", "s", "lower", 0.25),
    # median wall time of one time step
    Metric("step_ms_p50", "ms", "lower", 0.25),
    # median wall time of one episode: its steps plus its writes
    Metric("run_s", "s", "lower", 0.25),
    # ru_maxrss of the process that ran the episodes
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    # relative L2 error against the face-averaged exact velocity
    Metric("mms_err", "rel", "lower", 0.10),
)

# Failed steps over attempted steps. Reported next to the end-to-end metrics
# but kept out of BENCHMARK.json: it is 0 whenever the code is correct, and an
# end-to-end metric must never be 0. The result line carries it as
# failed/attempted. (Per-layer metrics have no bound, so a count that is 0 on
# a correct run, like linalg.gmres_fallbacks, may be one.)
FAIL_RATIO = Metric("fail_ratio", "ratio", "lower")

# Each group names the end-to-end metric, and the workload, it should move.
PER_LAYER = (
    # setup_s on forcing3d: the sympy build of the manufactured problem
    Metric("mms.build_s", "s", "lower"),
    # step_ms_p50 on forcing3d: the forcing's evaluation points, and the face
    # averaging called from scheme (small on krylov2d)
    Metric("mms.forcing_points_per_step", "count", "lower"),
    Metric("fields.face_average_ms_per_step", "ms", "lower"),
    # setup_s on every workload: grid from the config, Operators assembly,
    # Projector construction, initialize (projects u0)
    Metric("grid.build_s", "s", "lower"),
    Metric("operators.init_s", "s", "lower"),
    Metric("projection.init_s", "s", "lower"),
    Metric("scheme.initialize_s", "s", "lower"),
    # step_ms_p50 on refine2d: convection assembly, twice a step today
    Metric("operators.convection_blocks_ms_per_step", "ms", "lower"),
    Metric("operators.convection_blocks_calls_per_step", "count", "lower"),
    # step_ms_p50 on krylov2d, little on forcing3d: BiCGStab prediction
    # solves and CG Poisson solves
    Metric("linalg.bicgstab_ms_per_step", "ms", "lower"),
    Metric("linalg.bicgstab_iters_per_step", "count", "lower"),
    Metric("linalg.cg_ms_per_step", "ms", "lower"),
    Metric("linalg.cg_iters_per_step", "count", "lower"),
    # fail_ratio and step_ms_p50 on krylov2d: GMRES fallbacks after a failed
    # BiCGStab (whole run), converged over attempted BiCGStab solves
    Metric("linalg.gmres_fallbacks", "count", "lower"),
    Metric("linalg.bicgstab_success_ratio", "ratio", "higher"),
    # step_ms_p50 on krylov2d: Projector.poisson_solve, CG included
    Metric("projection.poisson_solve_ms_per_step", "ms", "lower"),
    Metric("projection.poisson_solve_iters_per_step", "count", "lower"),
    # step_ms_p50 on refine2d: each span minus its child spans; the step's
    # own share is the energy terms and the momentum check
    Metric("scheme.prediction_self_ms_per_step", "ms", "lower"),
    Metric("scheme.correction_self_ms_per_step", "ms", "lower"),
    Metric("scheme.step_self_ms_per_step", "ms", "lower"),
    # peak_rss_mb on refine2d and krylov2d: array bytes of the largest stored trajectory
    Metric("scheme.trajectory_mb", "MiB", "lower"),
    # run_s on refine2d: per episode, the MMS error evaluation, the writer
    # calls and the bytes they write
    Metric("verify.error_eval_s", "s", "lower"),
    Metric("output.write_s", "s", "lower"),
    Metric("output.bytes", "bytes", "lower"),
    # the split of a step: BiCGStab, GMRES and Poisson solve time (krylov2d),
    # and scheme face averaging time (forcing3d), over step time
    Metric("share.krylov", "ratio", "lower"),
    Metric("share.face_average", "ratio", "lower"),
    # tracing: the median over steps of summed self times, the traced and
    # untraced median step times and their difference
    Metric("trace.self_sum_ms_per_step", "ms", "lower"),
    Metric("trace.step_ms_p50", "ms", "lower"),
    Metric("trace.untraced_step_ms_p50", "ms", "lower"),
    Metric("trace.overhead_ms_per_step", "ms", "lower"),
    # the raw time of the calibration kernel, unscaled
    Metric("machine.calibration_ms", "ms", "lower"),
)
