"""Structural verification harness: operator identities, compactness
diagnostics, and manufactured-solution convergence studies.

The property suite checks the discrete identities the scheme's stability
rests on (gradient/divergence duality, diffusion symmetry and its exact
match with the W^{1,2} seminorm, convection skew-symmetry against
divergence-free advecting fields, projection idempotence and Pythagoras).
All checks run on randomized fields with a fixed seed and report the worst
relative residual.

The translate diagnostic evaluates time-translate integrals of the
predicted trajectory exactly (piecewise-constant fields make them finite
sums), in both the L2 norm and the weaker seminorm that measures only the
divergence-free part. Both shrink with the translate; the seminorm column
never exceeds the L2 column. They are summed level by level as the
predictions arrive (TranslateAccumulator); the march need not be stored.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    PressureField,
    Trajectory,
    VelocityField,
    l2_norm,
    pressure_inner,
    velocity_inner,
    w1q_norm,
)
from .grid import MacGrid
from .mms import mms_problem
from .operators import Operators
from .projection import Projector
from .scheme import ProjectionScheme, _whole

__all__ = [
    "CheckResult",
    "PropertyReport",
    "property_suite",
    "random_pressure",
    "random_velocity",
    "TranslateRow",
    "TranslateAccumulator",
    "translate_diagnostic",
    "summed_step_increments",
    "StudyLevel",
    "StudyReport",
    "convergence_study",
    "coupling_study",
]


# ---------------------------------------------------------------------------
# randomized operator identities

def random_pressure(grid: MacGrid, rng) -> PressureField:
    return PressureField(grid, rng.standard_normal(grid.shape))


def random_velocity(grid: MacGrid, rng) -> VelocityField:
    return VelocityField(grid, [rng.standard_normal(grid.face_shape(i)) for i in range(grid.dim)]).zero_exterior()


@dataclass
class CheckResult:
    name: str
    worst: float
    tolerance: float
    skipped: str = ""  # why the check has nothing to test on this grid

    @property
    def passed(self) -> bool:
        return bool(self.skipped) or self.worst <= self.tolerance

    def line(self) -> str:
        if self.skipped:
            return f"skip  {self.name}: {self.skipped}"
        verdict = "pass" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: worst residual {self.worst:.3e} (tolerance {self.tolerance:.1e})"


@dataclass
class PropertyReport:
    grid: MacGrid
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        head = f"structural property suite on grid {self.grid.shape}, theta={self.grid.theta:.3g}"
        lines = [head] + ["  " + c.line() for c in self.checks]
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def property_suite(grid: MacGrid, *, seed=0, pairs=20, tol=1e-12) -> PropertyReport:
    """Randomized structural checks of the assembled operators on one grid.

    pairs is the number of random draws per check; it must be a whole number
    >= 1, or ValueError names it, since a check with no draws passes untested.
    """
    pairs = _whole("pairs", pairs)
    rng = np.random.default_rng(seed)
    ops = Operators(grid)
    proj = Projector(ops)
    report = PropertyReport(grid)

    worst = 0.0
    for _ in range(pairs):
        p = random_pressure(grid, rng)
        v = random_velocity(grid, rng)
        lhs = velocity_inner(ops.grad(p), v) + pressure_inner(p, ops.div(v))
        worst = max(worst, abs(lhs) / (l2_norm(p) * l2_norm(v)))
    report.checks.append(CheckResult("gradient/divergence duality", worst, tol))

    worst = 0.0
    worst_id = 0.0
    for _ in range(pairs):
        u = random_velocity(grid, rng)
        v = random_velocity(grid, rng)
        su = w1q_norm(u, 2.0)
        sv = w1q_norm(v, 2.0)
        sym = velocity_inner(ops.neg_laplacian(u), v) - velocity_inner(u, ops.neg_laplacian(v))
        worst = max(worst, abs(sym) / (su * sv))
        ident = velocity_inner(ops.neg_laplacian(u), u) - su**2
        worst_id = max(worst_id, abs(ident) / su**2)
    report.checks.append(CheckResult("diffusion symmetry", worst, tol))
    report.checks.append(CheckResult("diffusion / W12 seminorm identity", worst_id, tol))

    skew = CheckResult("convection skew-symmetry", 0.0, tol)
    # the divergence has rank n_cells - 1; its kernel holds the advecting fields
    if ops.n_velocity == ops.n_cells - 1:
        skew.skipped = "no divergence-free field on this grid"
    for _ in range(0 if skew.skipped else pairs):
        a = proj.project(random_velocity(grid, rng))
        w = random_velocity(grid, rng)
        b = ops.convection_form(a, w, w)
        skew.worst = max(skew.worst, abs(b) / (l2_norm(a) * l2_norm(w) ** 2))
    report.checks.append(skew)

    worst_idem = 0.0
    worst_pyth = 0.0
    worst_div = 0.0
    worst_grad = 0.0
    for _ in range(pairs):
        w = random_velocity(grid, rng)
        v, psi = proj.decompose(ops.pack(w))[:2]
        v = ops.unpack(v)
        gpsi = ops.unpack(ops.G @ psi)
        wn = l2_norm(w)
        pyth = wn**2 - l2_norm(v) ** 2 - l2_norm(gpsi) ** 2
        worst_pyth = max(worst_pyth, abs(pyth) / wn**2)
        v2 = proj.project(v)
        worst_idem = max(worst_idem, l2_norm(v2 - v) / wn)
        div_scale = wn / grid.h_min
        worst_div = max(worst_div, float(np.abs(ops.div(v).data).max()) / div_scale)
        q = random_pressure(grid, rng)
        gq = ops.grad(q)
        worst_grad = max(worst_grad, proj.divfree_seminorm(gq) / l2_norm(gq))
    report.checks.append(CheckResult("projection idempotence", worst_idem, tol))
    report.checks.append(CheckResult("decomposition Pythagoras", worst_pyth, tol))
    report.checks.append(CheckResult("projected divergence", worst_div, tol))
    report.checks.append(CheckResult("seminorm kills gradients", worst_grad, tol))

    return report


# ---------------------------------------------------------------------------
# translate compactness diagnostic

@dataclass
class TranslateRow:
    tau: float
    steps: int
    l2_sq: float
    star_sq: float

    @property
    def bounded(self) -> bool:
        """Criterion 9: the seminorm column stays below the L2 column, to 1e-13 relative."""
        return self.star_sq <= self.l2_sq * (1.0 + 1e-13)


class TranslateAccumulator:
    """Translate integrals of the predicted trajectory, summed level by level.

    add() takes utilde^1, utilde^2, ... in order, keeps the last max(k), and adds
    dt ||utilde^m - utilde^{m-k}||^2 to l2[k] (|.|_*^2 to star[k]) over ascending
    n = m - k. l2[1] is the summed step increments. Each multiple must be a whole
    number >= 1 and needs the projector, or ValueError names it.
    """

    def __init__(self, dt: float, multiples, projector: Projector | None = None):
        multiples = [_whole("translate multiple", k) for k in multiples]
        if multiples and projector is None:
            raise ValueError(f"translate multiples {multiples} need a projector for their |.|_* column")
        self.dt, self.multiples, self.projector = float(dt), multiples, projector
        self.l2 = dict.fromkeys([1, *self.multiples], 0.0)
        self.star = dict.fromkeys(self.multiples, 0.0)
        self._recent = deque(maxlen=max(self.l2))

    def add(self, *u_tildes: VelocityField):
        for u_tilde in u_tildes:
            for k in self.l2:
                if k <= len(self._recent):
                    diff = u_tilde - self._recent[-k]
                    self.l2[k] += self.dt * velocity_inner(diff, diff)
                    if k in self.star:
                        self.star[k] += self.dt * self.projector.divfree_seminorm(diff) ** 2
            self._recent.append(u_tilde)
        return self

    def rows(self):
        return [TranslateRow(k * self.dt, k, self.l2[k], self.star[k]) for k in self.multiples]


def translate_diagnostic(traj: Trajectory, taus, projector: Projector | None = None):
    """Exact time-translate integrals of the predicted trajectory.

    Each tau must be a positive multiple of the step size (the trajectory is
    piecewise constant, so only those translates have exact finite-sum
    integrals). Returns one row per tau with the integral of the squared L2
    norm and of the squared divergence-free seminorm of the difference.
    """
    dt = traj.dt
    multiples = []
    for tau in taus:
        k = tau / dt
        k_int = int(round(k))
        if k_int < 1 or abs(k - k_int) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"translate {tau} is not a positive multiple of dt={dt}")
        if k_int >= traj.steps:
            raise ValueError(f"translate {tau} exceeds the trajectory span")
        multiples.append(k_int)
    projector = projector or Projector(Operators(traj.grid))
    return TranslateAccumulator(dt, multiples, projector).add(*traj.predicted).rows()


def summed_step_increments(traj: Trajectory) -> float:
    """sum_n dt ||utilde^{n+1} - utilde^n||^2, the exact tau = dt translate integral."""
    return TranslateAccumulator(traj.dt, []).add(*traj.predicted).l2[1]


# ---------------------------------------------------------------------------
# manufactured-solution studies

@dataclass
class StudyLevel:
    shape: tuple
    h_max: float
    dt: float
    theta: float
    err_l2l2: float
    err_final: float
    err_h1: float
    coupling: float
    min_energy_margin: float

    def line(self) -> str:
        return (
            f"cells={'x'.join(str(s) for s in self.shape)} dt={self.dt:.5g} "
            f"err_l2l2={self.err_l2l2:.5e} err_final={self.err_final:.5e} "
            f"err_h1={self.err_h1:.5e} coupling={self.coupling:.5e}"
        )


@dataclass
class StudyReport:
    problem: str
    levels: list = field(default_factory=list)

    @property
    def ratios(self):
        errs = [lv.err_l2l2 for lv in self.levels]
        return [errs[k + 1] / errs[k] for k in range(len(errs) - 1)]

    def passed(self, factor=0.8) -> bool:
        errs = [lv.err_l2l2 for lv in self.levels]
        if len(errs) < 2:
            return True
        return all(e1 < e0 and e1 <= factor * e0 for e0, e1 in zip(errs, errs[1:]))

    def summary(self, factor=0.8) -> str:
        lines = [f"convergence study for {self.problem}"]
        lines += ["  " + lv.line() for lv in self.levels]
        if self.ratios:
            lines.append("  ratios: " + ", ".join(f"{r:.3f}" for r in self.ratios))
        lines.append(
            "verdict: " + ("pass" if self.passed(factor) else "FAIL")
            + f" (strict decrease, factor <= {factor})"
        )
        return "\n".join(lines)


def convergence_study(problem, levels, t_final, *, quad_order=3, **scheme_kw) -> StudyReport:
    """Run a refinement ladder; levels is a list of (grid, steps) pairs.

    Errors are summed level by level against the exact face averages that
    problem.velocity.face_average combines from its per-grid averages. The
    corrected trajectory carries u^n on (t^n, t^{n+1}], so the L2(0,T;L2)
    error sums dt ||u^n - interp u(t^n)||^2 over n < N; the W^{1,2} error
    measures the predicted fields of levels 1..N. Both sum on packed unknowns:
    ops.inner for L2, the stiffness blocks S_i for W^{1,2} (ops.seminorm_sq).
    """
    if isinstance(problem, str):
        problem = mms_problem(problem)
    report = StudyReport(problem.name)
    for grid, steps in levels:
        scheme = ProjectionScheme(grid, quad_order=quad_order, **scheme_kw)
        ops = scheme.ops
        dt = scheme.time_step(t_final, steps)
        l2l2_sq = h1_sq = coupling_sq = 0.0
        margin = math.inf
        for state, diag in scheme.iterate(problem.initial, problem.forcing, t_final, steps):
            exact = ops.pack(problem.velocity.face_average(grid, state.n * dt, quad_order))
            err = state.u - exact
            if state.n < steps:
                l2l2_sq += dt * ops.inner(err, err)
            else:
                err_final = ops.norm(err)
            if diag is not None:
                h1_sq += dt * ops.seminorm_sq(state.u_tilde_prev - exact)
                coupling_sq += dt * diag.coupling_norm**2
                margin = min(margin, diag.energy_margin)
        report.levels.append(
            StudyLevel(
                shape=grid.shape,
                h_max=grid.h_max,
                dt=dt,
                theta=grid.theta,
                err_l2l2=math.sqrt(l2l2_sq),
                err_final=err_final,
                err_h1=math.sqrt(h1_sq),
                coupling=math.sqrt(coupling_sq),
                min_energy_margin=margin,
            )
        )
    return report


def coupling_study(problem, grid: MacGrid, steps_list, t_final, **scheme_kw):
    """Coupling norm ||u_N - utilde_N||_{L2 L2} on one grid for several step counts.

    Returns (steps, coupling) pairs: the coupling column of convergence_study
    on the levels (grid, steps). The scheme's dt-coupling makes successive
    values shrink roughly linearly when the step count doubles.
    """
    report = convergence_study(problem, [(grid, steps) for steps in steps_list], t_final, **scheme_kw)
    return [(int(steps), lv.coupling) for steps, lv in zip(steps_list, report.levels)]
