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
its residual ||M_p D u^{n+1}|| / ||M_p D utilde|| is the Poisson residual
of the returned phi in exact arithmetic (G^T M_v = -M_p D).

The convection uses the level-n corrected velocity as advecting field, so
the implicit prediction system is linear in utilde and its convection block
is skew apart from a diagonal carried by div u^n (zero to roundoff: the
pressure solve is exact). Each component system is solved by generalized
CG (linalg.solve_cgw) on the exact separable inverse of its symmetric part
M_i/dt + S_i; the per-axis eigenpairs behind it are computed once per grid.
Each solve starts from the extrapolation 2 utilde^n - utilde^{n-1} of the
two previous predictions (Fischer, CMAME 163, 1998, uses earlier solutions
the same way), which is O(dt^2) from utilde^{n+1} on smooth solutions. The
stop stays at prediction_tol ||b||, so only the iteration count falls.
No system matrix is assembled during a step: the solver takes the split
itself, H = M_i/dt + S_i as the diagonal M_i/dt plus S_i, and N = C_i(u^n),
S_i and C_i both stored on the same fixed diagonals. C_i(u^n) is filled
just before direction i's solve and dropped after it. Of each solve the
step keeps its iteration count and the S_i utilde and C_i(u^n) utilde of
the last residual the solver recomputed, packed once after the last solve
into S utilde and C(u^n) utilde (Prediction); the energy terms and the
momentum check read those packed vectors, so a step forms none of these
products after the solves, and holds at most 12 velocity vectors beyond its
state. Only the prediction's loop splits a vector by direction.
Every step records the terms of the discrete energy inequality

    (1/2dt)(||u^{n+1}||^2 - ||u^n||^2) + (dt/2)(||grad p^{n+1}||^2
        - ||grad p^n||^2) + (1/2dt)||utilde - u^n||^2
        + |utilde|_{1,2}^2  <=  (f^{n+1}, utilde)

whose residual (right minus left) must not dip below solver-resolution, and
for n >= 1 cross-checks the combined momentum identity

    (1/dt)(utilde^{n+1} - utilde^n) + C(u^n) utilde^{n+1}
        + grad((1 + r) p^n - r p^{n-1}) - Lap utilde^{n+1} = f^{n+1}

against the recomputed prediction residual; r = dt_n/dt is the ratio of the
previous step to this one (1 for equal steps), so step() takes any dt.

Every velocity of the march is a packed interior-face vector
(Operators.pack), the unknowns of the fully discrete scheme, from
initialize to the last level. A step packs one field, the forcing, unpacks
none, and takes the energy terms as mass-weighted dots (Operators.inner).
Every 1D sum of a step is a numpy loop (Operators.inner, linalg.dot), so
the diagnostics keep their bits under any BLAS thread count. A failing
build or step raises linalg's SchemeError, which this module re-exports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .fields import PressureField, Trajectory, VelocityField, face_average
from .grid import MacGrid
from .linalg import SchemeError, SeparableSolver, SolverError, dot, solve_cgw
from .mms import Separable
from .operators import Operators
from .projection import REFINEMENT_SWEEPS, Projector

__all__ = ["ProjectionScheme", "SchemeState", "StepDiagnostics", "SchemeError", "DIAGNOSTIC_COLUMNS"]

_FLOAT_MAX = np.finfo(float).max

DIVERGENCE_FACTOR = 10.0  # a step fails when max |div u| after its correction exceeds this x poisson_tol


def _whole(name, value, least=1) -> int:
    """value as an int; a non-integral value or one below least raises ValueError naming it."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    if not (whole and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value}")
    return int(value)


def _positive(name, value) -> float:
    """value as a float; one that is not positive and finite raises ValueError naming it."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _fraction(name, value) -> float:
    """value as a float; one outside (0, 1) raises ValueError naming it."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


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
    # Poisson residual of the returned psi: ||M_p D u^{n+1}|| / ||M_p D utilde||
    corr_residual: float = 0.0

    @property
    def energy_margin(self) -> float:
        """energy_residual relative to the largest term of the energy inequality."""
        return self.energy_residual / max(self.energy_scale, 1e-300)

    def row(self):
        return [getattr(self, c) for c in DIAGNOSTIC_COLUMNS]


DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(StepDiagnostics))[:10]


@dataclass
class SchemeState:
    """Level n and the history the next step reads.

    Velocities are packed interior-face vectors; ops.unpack gives a field.
    u is u^n and u_tilde_prev the prediction of the step that made level n;
    p is the pressure field. dt is the size of that step (0.0 at level 0),
    read by the momentum check. u_tilde_prev2 is the prediction before
    u_tilde_prev, read only by the prediction's initial guess, and gp,
    gp_prev are the gradients G p^n and G p^{n-1} of the prediction, the
    energy terms and the momentum check. energy and gp_norm are
    ||u^n||^2 / 2 and ||G p^n||, which the next step's energy terms read:
    initialize computes them for level 0 (gp_norm is 0.0 there), and each
    step for the level it makes.
    """

    n: int
    t: float
    u: np.ndarray
    p: PressureField
    gp: np.ndarray
    energy: float
    gp_norm: float
    dt: float = 0.0
    u_tilde_prev: np.ndarray | None = None
    u_tilde_prev2: np.ndarray | None = None
    gp_prev: np.ndarray | None = None


@dataclass
class Prediction:
    """What the step keeps of the prediction solves: the packed S utilde and C(u^n) utilde the
    solver formed for its last residuals, the CGW iteration count of each direction, direction 0
    first, and the largest relative and the mass-weighted residual."""

    Su: np.ndarray
    Nu: np.ndarray
    iterations: list
    residual: float
    residual_l2: float


class ProjectionScheme:
    """Incremental projection stepper bound to one grid.

    The scheme owns the default of every solver setting; each prediction
    solve stops at linalg.MAX_ITERATIONS CGW iterations. Both tolerances must
    lie in (0, 1), and quad_order must be a whole number; a bad argument
    raises ValueError before any operator is built. A grid graded
    beyond what the separable pressure solve resolves at poisson_tol raises
    SchemeError by the residual of one projection pass (_check_resolution),
    before the momentum solvers are built, and so does a LAPACK failure in
    either build. A failing step raises SchemeError (SolverError from a solve).
    """

    def __init__(
        self,
        grid: MacGrid,
        *,
        prediction_tol=1e-10,
        poisson_tol=1e-10,
        quad_order=3,
    ):
        self.prediction_tol = _fraction("prediction_tol", prediction_tol)
        self.poisson_tol = _fraction("poisson_tol", poisson_tol)
        self.quad_order = _whole("quad_order", quad_order)
        self.grid = grid
        self.ops = Operators(grid)
        self.projector = Projector(self.ops)
        self._check_resolution()
        self._momentum_solvers = [SeparableSolver(*chains) for chains in self.ops.laplace_chains]
        self._mass_peak = float(self.ops.mass_velocity.max())  # read by the prediction's overflow guard

    def _check_resolution(self):
        """Raise SchemeError when the separable pressure solve cannot resolve the grid.

        One pass of decompose (one solve on b = G^T M_v w, w fixed-seed
        normal) leaves the relative residual r. The correction makes two, and
        on graded 2D grids a march either left div_max >= 10 r^2 or failed in
        the prediction (vortex2d, 4 steps): so r^2 > poisson_tol means the
        10 x poisson_tol divergence guard would fail. The momentum solves are
        not probed here: linalg._modes checks each chain as it builds it.
        """
        w = np.random.default_rng(0).standard_normal(self.ops.n_velocity)
        residual = self.projector.decompose(w, passes=1)[2]
        limit = math.sqrt(self.poisson_tol)
        if not residual <= limit:
            widths = np.concatenate(self.grid.h)
            raise SchemeError(
                f"the separable pressure solve cannot resolve this grid: largest/smallest cell width "
                f"{widths.max() / widths.min():.1e}, probe residual {residual:.1e} > sqrt(poisson_tol) = {limit:.1e}"
            )

    # -- setup ---------------------------------------------------------------

    def initialize(self, u0) -> SchemeState:
        """Initial state: face averages of u0, boundary zeroed, made divergence-free.

        u0 is an analytic field (points -> vectors) or a VelocityField on
        the scheme's grid; a field with other face shapes raises ValueError.
        The pressure starts at zero; for initial data that is already
        divergence free the projection is a no-op up to roundoff.
        """
        g = self.grid
        if not isinstance(u0, VelocityField):
            u0 = face_average(g, u0, order=self.quad_order)
        w = self.ops.pack(u0, "initial field")  # interior faces only: the boundary values are dropped
        _require_finite(w, 0, "initialize", "initial data")
        u = self.projector.decompose(w)[0]
        return SchemeState(n=0, t=0.0, u=u, p=PressureField(g), gp=np.zeros(self.ops.n_velocity),
                           energy=0.5 * self.ops.inner(u, u), gp_norm=0.0)

    # -- one step ------------------------------------------------------------

    def _forcing_field(self, forcing, t_mid):
        """Face means of f(t_mid); a Separable forcing reuses its per-grid averages."""
        if forcing is None:
            return VelocityField(self.grid)
        if isinstance(forcing, Separable):
            return forcing.face_average(self.grid, t_mid, self.quad_order)
        return face_average(self.grid, lambda pts: forcing(t_mid, pts), order=self.quad_order)

    def prediction(self, state: SchemeState, f: np.ndarray, dt: float):
        """Solve the implicit momentum systems, one per component direction.

        f is the packed forcing; u^n and utilde^n come from the state.
        Returns the packed utilde and its Prediction, which packs the S_i
        utilde_i and C_i(u^n) utilde_i of every direction once, after the
        last solve, and lists their iteration counts. Each system is solved
        by CGW on its split H = M_i/dt + S_i, N = C_i(u^n), with the exact
        separable inverse of H, and started from the extrapolated guess
        2 utilde^n - utilde^{n-1}; while fewer earlier predictions exist it
        starts from utilde^n, then from u^n. Each solution is written into
        the packed utilde, which held the extrapolated guess: the solver
        copies its start, so a block is read before it is overwritten.
        """
        ops = self.ops
        dt = float(dt)
        u = state.u
        # CGW sums the squares of each right-hand side M_i (u^n/dt + f - G p^n): a step so
        # short that they can overflow is named before any of them is formed
        u_peak, f_peak, gp_peak = (float(np.abs(v).max()) for v in (u, f, state.gp))
        bound = self._mass_peak * (u_peak / dt + f_peak + gp_peak)
        if not bound * bound * ops.n_velocity < _FLOAT_MAX:
            raise SchemeError(f"step {state.n + 1}, prediction: dt = {dt:.3e} is too small: the right-hand "
                              f"side can reach {bound:.3e}, and the solver's sum of its squares can overflow")
        ut = np.empty(ops.n_velocity)
        if state.u_tilde_prev is None:
            guess = u
        elif state.u_tilde_prev2 is None:
            guess = state.u_tilde_prev
        else:
            guess = np.multiply(state.u_tilde_prev, 2.0, out=ut)
            guess -= state.u_tilde_prev2
        res_sq, residual = 0.0, 0.0
        Su, Nu, iterations = [], [], []
        for i, (S, mass) in enumerate(zip(ops.laplace_blocks, ops.mass_blocks)):
            rhs = mass * (ops.block(u, i) / dt + ops.block(f, i) - ops.block(state.gp, i))
            try:
                out = solve_cgw(mass / dt, S, ops.convection_block(u, i), rhs, tol=self.prediction_tol,
                                M=partial(self._momentum_solvers[i].solve, shift=1.0 / dt), x0=ops.block(guess, i))
            except SolverError as err:
                where = f"step {state.n + 1}, prediction, direction {i}"
                raise SolverError(f"{where}: {err.message}", err.iterations, err.residual) from err
            ops.block(ut, i)[:] = out.x
            r = out.residual_vector
            res_sq += float(np.sum(r * r / mass))
            residual = max(residual, out.residual)
            Su.append(out.Sx)
            Nu.append(out.Nx)
            iterations.append(out.iterations)
            del out, r, rhs  # the solution is in ut, and the block's solver data are dropped before the next one
        return ut, Prediction(np.concatenate(Su), np.concatenate(Nu), iterations, residual, math.sqrt(res_sq))

    def correction(self, state: SchemeState, ut: np.ndarray, dt: float):
        """Pressure increment and divergence-free update; returns (u, p, residual, div_max).

        ut and u are packed. The update is the Helmholtz decomposition
        ut = u + G(dt psi), p = p^n + psi recentered; residual is its
        relative Poisson residual and div_max is max |D u|, of the D u that
        decompose formed in its last pass.
        """
        dt = float(dt)
        u, phi, residual, div = self.projector.decompose(ut)
        div_max = float(np.abs(div).max())
        if not div_max <= DIVERGENCE_FACTOR * self.poisson_tol:  # a NaN fails too
            raise SchemeError(
                f"step {state.n + 1}, correction: post-correction divergence {div_max:.3e} "
                f"exceeds {DIVERGENCE_FACTOR:g} x poisson_tol = {DIVERGENCE_FACTOR * self.poisson_tol:.1e}"
            )
        p = PressureField(self.grid, state.p.data + phi.reshape(self.grid.shape) / dt).recentered()
        return u, p, residual, div_max

    def step(self, state: SchemeState, forcing, dt: float):
        """Advance one level; returns (new state, diagnostics)."""
        dt = _positive("dt", dt)
        ops = self.ops
        f = ops.pack(self._forcing_field(forcing, state.t + 0.5 * dt))
        _require_finite(f, state.n + 1, "forcing", "forcing")
        ut, pred = self.prediction(state, f, dt)
        u_new, p_new, corr_residual, div_max = self.correction(state, ut, dt)

        # S utilde as the solver formed it for its last residuals, shared with the momentum check
        dissipation = dot(ut, pred.Su)
        e_new, e_old = 0.5 * ops.inner(u_new, u_new), state.energy
        gp_vec = ops.G @ p_new.data.ravel()
        gp_new, gp_old = ops.norm(gp_vec), state.gp_norm
        coupling = ops.norm(ut - state.u)
        work = ops.inner(f, ut)

        terms = (
            e_new / dt,
            e_old / dt,
            0.5 * dt * gp_new**2,
            0.5 * dt * gp_old**2,
            0.5 * coupling**2 / dt,
            dissipation,
            abs(work),
        )
        lhs = (
            (e_new - e_old) / dt
            + 0.5 * dt * (gp_new**2 - gp_old**2)
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
            pred_iters=sum(pred.iterations),
            corr_iters=REFINEMENT_SWEEPS,
            energy_scale=energy_scale,
            pred_residual=pred.residual,
            corr_residual=corr_residual,
        )

        if state.u_tilde_prev is not None:
            self._momentum_check(state, ut, f, dt, pred, diag)

        new_state = SchemeState(
            n=state.n + 1,
            t=state.t + dt,
            u=u_new,
            p=p_new,
            gp=gp_vec,
            dt=dt,
            u_tilde_prev=ut,
            u_tilde_prev2=state.u_tilde_prev,
            gp_prev=state.gp,
            energy=e_new,
            gp_norm=gp_new,
        )
        return new_state, diag

    def _momentum_check(self, state, ut, f, dt, pred, diag):
        """Combined momentum identity across the previous correction, n >= 1.

        ut is the packed utilde^{n+1} and f the packed forcing; utilde^n
        comes from the state, and the packed products C(u^n) utilde^{n+1}
        and S utilde^{n+1} are the ones the prediction solver formed for its
        last residuals (pred). The correction that made u^n put
        dt_n G(p^n - p^{n-1}) into it. The residual
        (((t1 + t2) + t3) + t4) - f is summed in one buffer, each term formed
        in a second one, normed and added in turn.
        """
        ops, norm = self.ops, self.ops.norm
        res = np.subtract(ut, state.u_tilde_prev)
        res /= dt
        norms = [norm(res)]
        term = np.empty(ops.n_velocity)
        r = state.dt / dt
        for k in (2, 3, 4):  # t2 = C utilde / M, t3 = (1 + r) G p^n - r G p^{n-1}, t4 = S utilde / M
            if k == 3:
                np.multiply(state.gp, 1.0 + r, out=term)
                term -= r * state.gp_prev
            else:
                np.divide(pred.Nu if k == 2 else pred.Su, ops.mass_velocity, out=term)
            norms.append(norm(term))
            res += term
        res -= f

        diag.momentum_residual = norm(res)
        diag.momentum_scale = max(*norms, norm(f))
        bound = 10.0 * pred.residual_l2 + 1e-10 * max(diag.momentum_scale, 1e-30)
        if diag.momentum_residual > bound:
            raise SchemeError(
                f"step {diag.n}, momentum check: combined momentum residual "
                f"{diag.momentum_residual:.3e} exceeds solver-residual bound {bound:.3e}"
            )

    # -- time loop -------------------------------------------------------------

    @staticmethod
    def time_step(t_final, steps) -> float:
        """Step size of a march from t=0 to t_final in `steps` equal steps; ValueError names a bad one."""
        steps = _whole("steps", steps)
        return _positive("t_final", t_final) / steps

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
        """Record every level of iterate() in a Trajectory of fields."""
        traj = Trajectory(self.grid, self.time_step(t_final, steps))
        unpack = self.ops.unpack
        for state, diag in self.iterate(u0, forcing, t_final, steps):
            if diag is None:
                traj.append_initial(unpack(state.u), state.p)
            else:
                traj.append_step(state.t, unpack(state.u_tilde_prev), unpack(state.u), state.p, diag)
        return traj
