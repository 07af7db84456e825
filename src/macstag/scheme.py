"""First-order incremental pressure-correction time stepping.

One step from level n to n+1, all operators discrete:

    prediction   (1/dt)(utilde - u^n) + C(u^n) utilde - Lap utilde
                     + grad p^n = f^{n+1},  utilde = 0 on the boundary faces
    correction   -div grad psi = -(1/dt) div utilde, volume mean of psi = 0
                 u^{n+1} = utilde - dt grad psi
                 p^{n+1} = p^n + psi, recentered to zero volume mean

The convection uses the level-n corrected velocity as advecting field, so
the implicit prediction system is linear in utilde and its convection block
is skew apart from a diagonal carried by div u^n (zero to roundoff: the
pressure solve is exact). Each component system is solved by GMRES,
preconditioned by the exact separable inverse of its symmetric part
M_i/dt + S_i; the per-axis eigenpairs behind it are computed once per grid.
Every step records the terms of the discrete energy inequality

    (1/2dt)(||u^{n+1}||^2 - ||u^n||^2) + (dt/2)(||grad p^{n+1}||^2
        - ||grad p^n||^2) + (1/2dt)||utilde - u^n||^2
        + |utilde|_{1,2}^2  <=  (f^{n+1}, utilde)

whose residual (right minus left) must not dip below solver-resolution, and
for n >= 1 cross-checks the combined momentum identity

    (1/dt)(utilde^{n+1} - utilde^n) + C(u^n) utilde^{n+1}
        + grad(2 p^n - p^{n-1}) - Lap utilde^{n+1} = f^{n+1}

against the recomputed prediction residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import (
    PressureField,
    Trajectory,
    VelocityField,
    face_average,
    velocity_inner,
)
from .grid import MacGrid
from .linalg import SeparableSolver, solve_gmres, tridiagonal
from .operators import Operators
from .projection import Projector

__all__ = ["ProjectionScheme", "SchemeState", "StepDiagnostics", "SchemeError", "DIAGNOSTIC_COLUMNS"]

DIAGNOSTIC_COLUMNS = (
    "n",
    "t",
    "kinetic_energy",
    "dissipation",
    "grad_p_norm",
    "coupling_norm",
    "div_max",
    "energy_residual",
    "pred_iters",
    "corr_iters",
)


class SchemeError(RuntimeError):
    """Raised when a step violates one of the scheme's structural guarantees."""


def _require_finite(field: VelocityField, n, phase, what):
    if not all(np.isfinite(c).all() for c in field.components):
        raise SchemeError(f"step {n}, {phase}: face-averaged {what} is not finite")


@dataclass
class StepDiagnostics:
    """Per-step scalars; the first ten fields are the diagnostics CSV columns."""

    n: int
    t: float
    kinetic_energy: float
    dissipation: float
    grad_p_norm: float
    coupling_norm: float
    div_max: float
    energy_residual: float
    pred_iters: int
    corr_iters: int
    energy_scale: float = 0.0
    momentum_residual: float = float("nan")
    momentum_scale: float = float("nan")
    pred_residual: float = 0.0
    corr_residual: float = 0.0

    def row(self):
        return [getattr(self, c) for c in DIAGNOSTIC_COLUMNS]


@dataclass
class SchemeState:
    """Fields carried between steps (previous levels feed the diagnostics)."""

    n: int
    t: float
    u: VelocityField
    p: PressureField
    grad_p_norm: float
    u_tilde_prev: VelocityField | None = None
    p_prev: PressureField | None = None


@dataclass
class PredictionStats:
    iterations: int
    residual: float
    residual_l2: float
    per_direction: list = field(default_factory=list)
    convection: list = field(default_factory=list)  # blocks C_i(u^n), reused by the momentum check


@dataclass
class CorrectionStats:
    iterations: int
    residual: float
    div_max: float


def _momentum_solver(grid: MacGrid, i: int) -> SeparableSolver:
    """Separable solver of M_i/dt + S_i, the symmetric part of prediction block i.

    Along axis i the unknowns are the interior faces, coupled through the
    cells; across it they are cell rows whose outer ones sit half a cell
    from a Dirichlet wall.
    """
    conductances = [1.0 / (grid.h[a] if a == i else grid.dual_w[a]) for a in range(grid.dim)]
    mass = [grid.dual_w[a][1:-1] if a == i else grid.h[a] for a in range(grid.dim)]
    return SeparableSolver([tridiagonal(c) for c in conductances], mass)


class ProjectionScheme:
    """Incremental projection stepper bound to one grid.

    max_iterations caps the GMRES iterations of each prediction solve; None
    leaves linalg.MAX_ITERATIONS in force.
    """

    def __init__(
        self,
        grid: MacGrid,
        *,
        prediction_tol=1e-10,
        poisson_tol=1e-10,
        max_iterations=None,
        quad_order=3,
    ):
        self.grid = grid
        self.ops = Operators(grid)
        self.prediction_tol = float(prediction_tol)
        self.poisson_tol = float(poisson_tol)
        self.max_iterations = max_iterations
        self.quad_order = int(quad_order)
        self.projector = Projector(self.ops)
        self._momentum_solvers = [_momentum_solver(grid, i) for i in range(grid.dim)]

    # -- setup ---------------------------------------------------------------

    def initialize(self, u0) -> SchemeState:
        """Initial state: face averages of u0, boundary zeroed, made divergence-free.

        u0 is an analytic field (points -> vectors) or a VelocityField. The
        pressure starts at zero; for initial data that is already divergence
        free the projection is a no-op up to roundoff.
        """
        if isinstance(u0, VelocityField):
            w = u0.copy()
        else:
            w = face_average(self.grid, u0, order=self.quad_order)
        w.zero_exterior()
        _require_finite(w, 0, "initialize", "initial data")
        u = self.projector.project(w)
        p = PressureField(self.grid)
        return SchemeState(n=0, t=0.0, u=u, p=p, grad_p_norm=0.0)

    # -- one step ------------------------------------------------------------

    def _forcing_field(self, forcing, t_mid):
        if forcing is None:
            return VelocityField(self.grid)
        return face_average(self.grid, lambda pts: forcing(t_mid, pts), order=self.quad_order)

    def prediction(self, state: SchemeState, f_field: VelocityField, dt: float):
        """Solve the implicit momentum systems, one per component direction.

        Each system is solved by GMRES, preconditioned by the exact separable
        inverse of its symmetric part M_i/dt + S_i.
        """
        ops = self.ops
        dt = float(dt)
        u_vec = ops.pack(state.u)
        f_vec = ops.pack(f_field)
        gp = ops.G @ state.p.data.ravel()
        conv = ops.convection_blocks(state.u)
        x = np.empty_like(u_vec)
        res_sq = 0.0
        stats = PredictionStats(iterations=0, residual=0.0, residual_l2=0.0, convection=conv)
        for i in range(self.grid.dim):
            sl = slice(ops.offsets[i], ops.offsets[i + 1])
            mass = ops.mass_blocks[i]
            A = (sp.diags(mass / dt) + ops.laplace_blocks[i] + conv[i]).tocsr()
            rhs = mass * (u_vec[sl] / dt + f_vec[sl] - gp[sl])
            fdm = partial(self._momentum_solvers[i].solve, shift=1.0 / dt)
            precond = spla.LinearOperator(A.shape, matvec=fdm, dtype=float)
            out = solve_gmres(
                A, rhs, tol=self.prediction_tol, maxiter=self.max_iterations, x0=u_vec[sl], M=precond
            )
            x[sl] = out.x
            r = rhs - A @ out.x
            res_sq += float(np.sum(r * r / mass))
            stats.iterations += out.iterations
            stats.residual = max(stats.residual, out.residual)
            stats.per_direction.append(out)
        stats.residual_l2 = math.sqrt(res_sq)
        return ops.unpack(x), stats

    def correction(self, state: SchemeState, u_tilde: VelocityField, dt: float):
        """Pressure increment and divergence-free update; returns (u, p, psi, stats)."""
        ops = self.ops
        dt = float(dt)
        ut_vec = ops.pack(u_tilde)
        rhs = ops.G.T @ (ops.mass_velocity * ut_vec) / dt
        psi_vec, iters, res = self.projector.poisson_solve(rhs)
        u_vec = ut_vec - dt * (ops.G @ psi_vec)
        div_max = float(np.abs(ops.D @ u_vec).max())
        if div_max > 10.0 * self.poisson_tol:
            raise SchemeError(
                f"step {state.n + 1}, correction: post-correction divergence {div_max:.3e} "
                f"exceeds 10 x poisson_tol = {10.0 * self.poisson_tol:.1e}"
            )
        psi = PressureField(self.grid, psi_vec.reshape(self.grid.shape))
        u = ops.unpack(u_vec)
        p = (state.p + psi).recentered()
        return u, p, psi, CorrectionStats(iterations=iters, residual=res, div_max=div_max)

    def step(self, state: SchemeState, forcing, dt: float):
        """Advance one level; returns (new state, diagnostics)."""
        dt = float(dt)
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        ops = self.ops
        f_field = self._forcing_field(forcing, state.t + 0.5 * dt)
        _require_finite(f_field, state.n + 1, "forcing", "forcing")
        u_tilde, pstats = self.prediction(state, f_field, dt)
        u_new, p_new, psi, cstats = self.correction(state, u_tilde, dt)

        ut_vec = ops.pack(u_tilde)
        dissipation = 0.0
        for i in range(self.grid.dim):
            sl = slice(ops.offsets[i], ops.offsets[i + 1])
            dissipation += float(ut_vec[sl] @ (ops.laplace_blocks[i] @ ut_vec[sl]))

        e_new = 0.5 * velocity_inner(u_new, u_new)
        e_old = 0.5 * velocity_inner(state.u, state.u)
        gp_new = math.sqrt(
            max(float((ops.G @ p_new.data.ravel()) ** 2 @ ops.mass_velocity), 0.0)
        )
        diff = u_tilde - state.u
        coupling = math.sqrt(max(velocity_inner(diff, diff), 0.0))
        work = velocity_inner(f_field, u_tilde)

        terms = (
            e_new / dt,
            e_old / dt,
            0.5 * dt * gp_new**2,
            0.5 * dt * state.grad_p_norm**2,
            0.5 * coupling**2 / dt,
            dissipation,
            abs(work),
        )
        lhs = (
            (e_new - e_old) / dt
            + 0.5 * dt * (gp_new**2 - state.grad_p_norm**2)
            + 0.5 * coupling**2 / dt
            + dissipation
        )
        energy_residual = work - lhs
        energy_scale = max(terms)

        diag = StepDiagnostics(
            n=state.n + 1,
            t=state.t + dt,
            kinetic_energy=e_new,
            dissipation=dissipation,
            grad_p_norm=gp_new,
            coupling_norm=coupling,
            div_max=cstats.div_max,
            energy_residual=energy_residual,
            pred_iters=pstats.iterations,
            corr_iters=cstats.iterations,
            energy_scale=energy_scale,
            pred_residual=pstats.residual,
            corr_residual=cstats.residual,
        )

        if state.u_tilde_prev is not None and state.p_prev is not None:
            self._momentum_check(state, u_tilde, f_field, dt, pstats, diag)

        new_state = SchemeState(
            n=state.n + 1,
            t=state.t + dt,
            u=u_new,
            p=p_new,
            grad_p_norm=gp_new,
            u_tilde_prev=u_tilde,
            p_prev=state.p,
        )
        return new_state, diag

    def _momentum_check(self, state, u_tilde, f_field, dt, pstats, diag):
        """Combined momentum identity across the previous correction, n >= 1."""
        ops = self.ops
        ut = ops.pack(u_tilde)
        t1 = (ut - ops.pack(state.u_tilde_prev)) / dt
        conv = pstats.convection
        t2 = np.empty_like(ut)
        t4 = np.empty_like(ut)
        for i in range(self.grid.dim):
            sl = slice(ops.offsets[i], ops.offsets[i + 1])
            t2[sl] = (conv[i] @ ut[sl]) / ops.mass_blocks[i]
            t4[sl] = (ops.laplace_blocks[i] @ ut[sl]) / ops.mass_blocks[i]
        t3 = ops.G @ (2.0 * state.p.data - state.p_prev.data).ravel()
        fv = ops.pack(f_field)
        res = t1 + t2 + t3 + t4 - fv
        m = ops.mass_velocity

        def l2(v):
            return math.sqrt(max(float(v * v @ m), 0.0))

        diag.momentum_residual = l2(res)
        diag.momentum_scale = max(l2(t1), l2(t2), l2(t3), l2(t4), l2(fv))
        bound = 10.0 * pstats.residual_l2 + 1e-10 * max(diag.momentum_scale, 1e-30)
        if diag.momentum_residual > bound:
            raise SchemeError(
                f"step {diag.n}, momentum check: combined momentum residual "
                f"{diag.momentum_residual:.3e} exceeds solver-residual bound {bound:.3e}"
            )

    # -- time loop -------------------------------------------------------------

    @staticmethod
    def time_step(t_final, steps) -> float:
        """Step size of a march from t=0 to t_final in `steps` equal steps."""
        steps = int(steps)
        if steps < 1:
            raise ValueError(f"need at least one step, got {steps}")
        t_final = float(t_final)
        if t_final <= 0.0:
            raise ValueError(f"t_final must be positive, got {t_final}")
        return t_final / steps

    def iterate(self, u0, forcing, t_final, steps):
        """March from t=0 to t_final in equal steps, one level at a time.

        Yields (state, diag) for the levels 0..N: level 0 is the initial
        state with diag None, and each later level is one call of step().
        The arguments are checked here, before the first level is asked for.
        """
        dt = self.time_step(t_final, steps)
        return self._march(u0, forcing, dt, int(steps))

    def _march(self, u0, forcing, dt, steps):
        state = self.initialize(u0)
        yield state, None
        for _ in range(steps):
            state, diag = self.step(state, forcing, dt)
            yield state, diag

    def run(self, u0, forcing, t_final, steps) -> Trajectory:
        """Record every level of iterate() in a Trajectory."""
        traj = Trajectory(self.grid, self.time_step(t_final, steps), t_final)
        for state, diag in self.iterate(u0, forcing, t_final, steps):
            if diag is None:
                traj.append_initial(state.u, state.p)
            else:
                traj.append_step(state.t, state.u_tilde_prev, state.u, state.p, diag)
        return traj
