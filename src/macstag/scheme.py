"""First-order incremental pressure-correction time stepping.

One step from level n to n+1, all operators discrete:

    prediction   (1/dt)(utilde - u^n) + C(u^n) utilde - Lap utilde
                     + grad p^n = f^{n+1},  utilde = 0 on the boundary faces
    correction   -div grad psi = -(1/dt) div utilde, volume mean of psi = 0
                 u^{n+1} = utilde - dt grad psi
                 p^{n+1} = p^n + psi, recentered to zero volume mean

The correction is the discrete Helmholtz decomposition utilde = u^{n+1} +
grad phi of Projector.decompose, with psi = phi/dt (exact when dt is a power
of two). Its second velocity-level pass leaves div u^{n+1} at roundoff, and
its residual ||G^T M_v u^{n+1}|| / ||G^T M_v utilde|| is the Poisson residual
of the returned phi in exact arithmetic.

The convection uses the level-n corrected velocity as advecting field, so
the implicit prediction system is linear in utilde and its convection block
is skew apart from a diagonal carried by div u^n (zero to roundoff: the
pressure solve is exact). Each component system is solved by GMRES,
right-preconditioned by the exact separable inverse of its symmetric part
M_i/dt + S_i; the per-axis eigenpairs behind it are computed once per grid.
Each solve starts from the extrapolation 2 utilde^n - utilde^{n-1} of the
two previous predictions (Fischer, CMAME 163, 1998, uses earlier solutions
the same way), which is O(dt^2) from utilde^{n+1} on smooth solutions. The
stop stays at prediction_tol ||b||, so only the iteration count falls.
The system matrices are never assembled during a step: the operators fill
the values of C_i(u^n) into the grid's fixed pattern, and the values of
M_i/dt + S_i on that pattern are kept for the current dt.
Every step records the terms of the discrete energy inequality

    (1/2dt)(||u^{n+1}||^2 - ||u^n||^2) + (dt/2)(||grad p^{n+1}||^2
        - ||grad p^n||^2) + (1/2dt)||utilde - u^n||^2
        + |utilde|_{1,2}^2  <=  (f^{n+1}, utilde)

whose residual (right minus left) must not dip below solver-resolution, and
for n >= 1 cross-checks the combined momentum identity

    (1/dt)(utilde^{n+1} - utilde^n) + C(u^n) utilde^{n+1}
        + grad(2 p^n - p^{n-1}) - Lap utilde^{n+1} = f^{n+1}

against the recomputed prediction residual.

Inside a step every velocity is a packed interior-face vector
(Operators.pack), the unknowns of the fully discrete scheme. A step packs
u^n, the forcing and utilde^n once each, unpacks u^{n+1} and utilde^{n+1}
once each, and takes the energy terms as mass-weighted dots (Operators.inner).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fields import PressureField, Trajectory, VelocityField, face_average
from .grid import MacGrid
from .linalg import SeparableSolver, SolverError, solve_gmres
from .mms import Separable
from .operators import Operators, on_pattern
from .projection import REFINEMENT_SWEEPS, Projector

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


def _whole(name, value, least=1) -> int:
    """value as an int; a non-integral value or one below least raises ValueError naming it."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value}")
    return int(value)


def _require_finite(vec: np.ndarray, n, phase, what):
    if not np.isfinite(vec).all():
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
    # Poisson residual of the returned psi: ||G^T M_v u^{n+1}|| / ||G^T M_v utilde||
    corr_residual: float = 0.0

    def row(self):
        return [getattr(self, c) for c in DIAGNOSTIC_COLUMNS]


@dataclass
class SchemeState:
    """Level n and the history the next step reads.

    u, p and u_tilde_prev (the prediction of the step that made level n)
    are fields, for observers of the march. The rest is packed history:
    u_tilde_prev2 is the prediction before u_tilde_prev, read only by the
    prediction's initial guess, and gp, gp_prev are the gradients G p^n and
    G p^{n-1} of the prediction and the momentum check.
    """

    n: int
    t: float
    u: VelocityField
    p: PressureField
    grad_p_norm: float
    gp: np.ndarray
    u_tilde_prev: VelocityField | None = None
    u_tilde_prev2: np.ndarray | None = None
    gp_prev: np.ndarray | None = None


@dataclass
class PredictionStats:
    iterations: int
    residual: float
    residual_l2: float
    per_direction: list = field(default_factory=list)
    convection: list = field(default_factory=list)  # blocks C_i(u^n), reused by the momentum check
    u_tilde_prev: np.ndarray | None = None  # packed utilde^n, reused by the momentum check


class ProjectionScheme:
    """Incremental projection stepper bound to one grid.

    max_iterations caps the GMRES iterations of each prediction solve; None
    leaves linalg.MAX_ITERATIONS in force. Both tolerances must lie in
    (0, 1), and max_iterations and quad_order must be whole numbers; a bad
    argument raises ValueError before any operator is built.
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
        for name, tol in (("prediction_tol", prediction_tol), ("poisson_tol", poisson_tol)):
            if not 0.0 < float(tol) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {tol}")
        self.max_iterations = None if max_iterations is None else _whole("max_iterations", max_iterations)
        self.quad_order = _whole("quad_order", quad_order)
        self.grid = grid
        self.ops = Operators(grid)
        self.prediction_tol = float(prediction_tol)
        self.poisson_tol = float(poisson_tol)
        self.projector = Projector(self.ops)
        self._momentum_solvers = [SeparableSolver(*factors) for factors in self.ops.laplace_factors]
        self._momentum_values = None  # (dt, values of M_i/dt + S_i on the pattern of S_i)

    # -- setup ---------------------------------------------------------------

    def initialize(self, u0) -> SchemeState:
        """Initial state: face averages of u0, boundary zeroed, made divergence-free.

        u0 is an analytic field (points -> vectors) or a VelocityField. The
        pressure starts at zero; for initial data that is already divergence
        free the projection is a no-op up to roundoff.
        """
        if not isinstance(u0, VelocityField):
            u0 = face_average(self.grid, u0, order=self.quad_order)
        w = self.ops.pack(u0)  # interior faces only: the boundary values are dropped
        _require_finite(w, 0, "initialize", "initial data")
        u = self.ops.unpack(self.projector.decompose(w)[0])
        p = PressureField(self.grid)
        return SchemeState(n=0, t=0.0, u=u, p=p, grad_p_norm=0.0, gp=np.zeros(self.ops.n_velocity))

    # -- one step ------------------------------------------------------------

    def _forcing_field(self, forcing, t_mid):
        """Face means of f(t_mid); a Separable forcing reuses its per-grid averages."""
        if forcing is None:
            return VelocityField(self.grid)
        if isinstance(forcing, Separable):
            return forcing.face_average(self.grid, t_mid, self.quad_order)
        return face_average(self.grid, lambda pts: forcing(t_mid, pts), order=self.quad_order)

    def prediction_blocks(self, conv, dt: float):
        """The prediction matrices M_i/dt + S_i + C_i, given the convection blocks C_i.

        Each shares indices and indptr with C_i and the stiffness block S_i;
        the values of M_i/dt + S_i are computed once per dt.
        """
        dt = float(dt)
        if self._momentum_values is None or self._momentum_values[0] != dt:
            self._momentum_values = (dt, [self.ops.momentum_values(i, dt) for i in range(self.grid.dim)])
        return [on_pattern(C, base + C.data) for base, C in zip(self._momentum_values[1], conv)]

    def prediction(self, state: SchemeState, u: np.ndarray, f: np.ndarray, dt: float):
        """Solve the implicit momentum systems, one per component direction.

        u and f are the packed u^n and forcing; returns the packed utilde
        and the solver stats. Each system is solved by GMRES, preconditioned
        by the exact separable inverse of its symmetric part M_i/dt + S_i
        and started from the extrapolated guess 2 utilde^n - utilde^{n-1};
        while fewer earlier predictions exist it starts from utilde^n, then
        from u^n.
        """
        ops = self.ops
        dt = float(dt)
        ut_prev = None if state.u_tilde_prev is None else ops.pack(state.u_tilde_prev)
        if ut_prev is None:
            guess = u
        elif state.u_tilde_prev2 is None:
            guess = ut_prev
        else:
            guess = 2.0 * ut_prev - state.u_tilde_prev2
        conv = ops.convection_blocks(state.u)
        parts = []
        res_sq = 0.0
        stats = PredictionStats(0, 0.0, 0.0, convection=conv, u_tilde_prev=ut_prev)
        for i, A in enumerate(self.prediction_blocks(conv, dt)):
            mass = ops.mass_blocks[i]
            rhs = mass * (ops.block(u, i) / dt + ops.block(f, i) - ops.block(state.gp, i))
            fdm = partial(self._momentum_solvers[i].solve, shift=1.0 / dt)
            try:
                out = solve_gmres(
                    A, rhs, tol=self.prediction_tol, maxiter=self.max_iterations, x0=ops.block(guess, i),
                    M=fdm,
                )
            except SolverError as err:
                where = f"step {state.n + 1}, prediction, direction {i}"
                raise SolverError(f"{where}: {err.message}", err.iterations, err.residual) from err
            parts.append(out.x)
            r = out.residual_vector
            res_sq += float(np.sum(r * r / mass))
            stats.iterations += out.iterations
            stats.residual = max(stats.residual, out.residual)
            stats.per_direction.append(out)
        stats.residual_l2 = math.sqrt(res_sq)
        return np.concatenate(parts), stats

    def correction(self, state: SchemeState, ut: np.ndarray, dt: float):
        """Pressure increment and divergence-free update; returns (u, p, residual, div_max).

        ut and u are packed. The update is the Helmholtz decomposition
        ut = u + G(dt psi), p = p^n + psi recentered; residual is its
        relative Poisson residual and div_max is max |D u|.
        """
        dt = float(dt)
        u, phi, residual = self.projector.decompose(ut)
        div_max = float(np.abs(self.ops.D @ u).max())
        if div_max > 10.0 * self.poisson_tol:
            raise SchemeError(
                f"step {state.n + 1}, correction: post-correction divergence {div_max:.3e} "
                f"exceeds 10 x poisson_tol = {10.0 * self.poisson_tol:.1e}"
            )
        p = PressureField(self.grid, state.p.data + phi.reshape(self.grid.shape) / dt).recentered()
        return u, p, residual, div_max

    def step(self, state: SchemeState, forcing, dt: float):
        """Advance one level; returns (new state, diagnostics)."""
        dt = float(dt)
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        ops = self.ops
        f_field = self._forcing_field(forcing, state.t + 0.5 * dt)
        u, f = ops.pack(state.u), ops.pack(f_field)
        _require_finite(f, state.n + 1, "forcing", "forcing")
        ut, pstats = self.prediction(state, u, f, dt)
        u_new, p_new, corr_residual, div_max = self.correction(state, ut, dt)

        # S_i utilde, shared with the momentum check
        lap_ut = np.concatenate([S @ ops.block(ut, i) for i, S in enumerate(ops.laplace_blocks)])
        dissipation = float(ut @ lap_ut)
        e_new = 0.5 * ops.inner(u_new, u_new)
        e_old = 0.5 * ops.inner(u, u)
        gp_vec = ops.G @ p_new.data.ravel()
        gp_new = math.sqrt(max(ops.inner(gp_vec, gp_vec), 0.0))
        coupling = math.sqrt(max(ops.inner(ut - u, ut - u), 0.0))
        work = ops.inner(f, ut)

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
            div_max=div_max,
            energy_residual=energy_residual,
            pred_iters=pstats.iterations,
            corr_iters=REFINEMENT_SWEEPS,
            energy_scale=energy_scale,
            pred_residual=pstats.residual,
            corr_residual=corr_residual,
        )

        if pstats.u_tilde_prev is not None and state.gp_prev is not None:
            self._momentum_check(state, ut, lap_ut, f, dt, pstats, diag)

        new_state = SchemeState(
            n=state.n + 1,
            t=state.t + dt,
            u=ops.unpack(u_new),
            p=p_new,
            grad_p_norm=gp_new,
            gp=gp_vec,
            u_tilde_prev=ops.unpack(ut),
            u_tilde_prev2=pstats.u_tilde_prev,
            gp_prev=state.gp,
        )
        return new_state, diag

    def _momentum_check(self, state, ut, lap_ut, f, dt, pstats, diag):
        """Combined momentum identity across the previous correction, n >= 1.

        ut is the packed utilde^{n+1}, lap_ut its S_i utilde^{n+1} and f the
        packed forcing; utilde^n and the blocks C_i(u^n) come from pstats.
        """
        ops = self.ops
        t1 = (ut - pstats.u_tilde_prev) / dt
        conv = pstats.convection
        t2 = np.concatenate([(C @ ops.block(ut, i)) / ops.mass_blocks[i] for i, C in enumerate(conv)])
        t3 = 2.0 * state.gp - state.gp_prev
        t4 = lap_ut / ops.mass_velocity
        res = t1 + t2 + t3 + t4 - f

        def l2(v):
            return math.sqrt(max(ops.inner(v, v), 0.0))

        diag.momentum_residual = l2(res)
        diag.momentum_scale = max(l2(t1), l2(t2), l2(t3), l2(t4), l2(f))
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
        if not 1 <= float(steps) < math.inf:
            raise ValueError(f"need at least one step, got {steps}")
        steps = _whole("steps", steps)
        t_final = float(t_final)
        if not 0.0 < t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {t_final}")
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
