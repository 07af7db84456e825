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
never exceeds the L2 column. The correction is the projection, so the seminorm
column is the L2 column of the corrected velocities. Both are summed level by
level (TranslateAccumulator); the march need not be stored.
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


def property_suite(grid: MacGrid, *, seed=0, pairs=20) -> PropertyReport:
    """Randomized structural checks of the assembled operators on one grid.

    pairs is the number of random draws per check; it must be a whole number
    >= 1, or ValueError names it, since a check with no draws passes untested.
    Each draw gives every check a (numerator, denominator) pair, and its worst
    residual is the largest quotient: NaN if any is NaN (0/0 too) and inf over
    a zero denominator, either of which fails. A LAPACK failure while the
    projector is built is a SchemeError.
    """
    pairs = _whole("pairs", pairs)
    tol = 1e-12  # every check's bound on its worst relative residual
    rng = np.random.default_rng(seed)
    ops = Operators(grid)
    proj = Projector(ops)

    def duality():
        p, v = random_pressure(grid, rng), random_velocity(grid, rng)
        lhs = velocity_inner(ops.grad(p), v) + pressure_inner(p, ops.div(v))
        return [(abs(lhs), l2_norm(p) * l2_norm(v))]

    def diffusion():
        u, v = random_velocity(grid, rng), random_velocity(grid, rng)
        su, sv = w1q_norm(u, 2.0), w1q_norm(v, 2.0)
        sym = velocity_inner(ops.neg_laplacian(u), v) - velocity_inner(u, ops.neg_laplacian(v))
        ident = velocity_inner(ops.neg_laplacian(u), u) - su**2
        return [(abs(sym), su * sv), (abs(ident), su**2)]

    def skew():
        a, w = proj.project(random_velocity(grid, rng)), random_velocity(grid, rng)
        return [(abs(ops.convection_form(a, w, w)), l2_norm(a) * l2_norm(w) ** 2)]

    def projection():
        w = random_velocity(grid, rng)
        v, psi = proj.decompose(ops.pack(w))[:2]
        v, gpsi, wn = ops.unpack(v), ops.unpack(ops.G @ psi), l2_norm(w)
        gq = ops.grad(random_pressure(grid, rng))
        return [
            (l2_norm(proj.project(v) - v), wn),
            (abs(wn**2 - l2_norm(v) ** 2 - l2_norm(gpsi) ** 2), wn**2),
            (float(np.abs(ops.div(v).data).max()), wn / grid.h_min),
            (proj.divfree_seminorm(gq), l2_norm(gq)),
        ]

    report = PropertyReport(grid)
    for draw, names in [
        (duality, ["gradient/divergence duality"]),
        (diffusion, ["diffusion symmetry", "diffusion / W12 seminorm identity"]),
        # the divergence has rank n_cells - 1; its kernel holds the advecting fields
        (None if ops.n_velocity == ops.n_cells - 1 else skew, ["convection skew-symmetry"]),
        (projection, ["projection idempotence", "decomposition Pythagoras", "projected divergence",
                      "seminorm kills gradients"]),
    ]:
        if draw is None:
            report.checks.append(CheckResult(names[0], 0.0, tol, "no divergence-free field on this grid"))
            continue
        num, den = np.array([draw() for _ in range(pairs)], dtype=np.float64).T
        with np.errstate(all="ignore"):
            worst = np.max(num / den, axis=1)
        report.checks += [CheckResult(name, float(w), tol) for name, w in zip(names, worst)]
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

    add() takes each prediction utilde^m with its projection u^m in order, keeps the
    last max(k) pairs, and adds dt ||utilde^m - utilde^{m-k}||^2 to l2[k] and
    dt ||u^m - u^{m-k}||^2 = dt |utilde^m - utilde^{m-k}|_*^2 to star[k] over ascending
    n = m - k. l2[1] is the summed step increments. Each multiple must be a whole
    number >= 1, none may repeat, and each must be below the trajectory's count
    of steps, or ValueError names the multiples at fault.
    """

    def __init__(self, dt: float, multiples, steps):
        multiples = [_whole("translate multiple", k) for k in multiples]
        if len(set(multiples)) < len(multiples):
            raise ValueError(f"translate multiples repeat: {multiples}")
        if too_long := [k for k in multiples if k >= steps]:
            raise ValueError(f"translate multiples {too_long} do not fit a {steps}-step trajectory")
        self.dt, self.multiples = float(dt), multiples
        self.l2 = dict.fromkeys([1, *self.multiples], 0.0)
        self.star = dict.fromkeys(self.multiples, 0.0)
        self._recent = deque(maxlen=max(self.l2))

    def add(self, u_tilde: VelocityField, u: VelocityField):
        for k in self.l2:
            if k <= len(self._recent):
                u_tilde_k, u_k = self._recent[-k]
                diff = u_tilde - u_tilde_k
                self.l2[k] += self.dt * velocity_inner(diff, diff)
                if k in self.star:
                    diff = u - u_k
                    self.star[k] += self.dt * velocity_inner(diff, diff)
        self._recent.append((u_tilde, u))

    def rows(self):
        return [TranslateRow(k * self.dt, k, self.l2[k], self.star[k]) for k in self.multiples]


def translate_diagnostic(traj: Trajectory, taus, projector: Projector | None = None):
    """Exact time-translate integrals of the predicted trajectory.

    Each tau must be a positive multiple of the step size (the trajectory is
    piecewise constant, so only those translates have exact finite-sum
    integrals), and their multiples must suit TranslateAccumulator. Returns
    one row per tau with the integral of the squared L2 norm and of the squared
    seminorm of the difference; projector projects each stored prediction once.
    """
    dt = traj.dt
    multiples = []
    for tau in taus:
        k = tau / dt
        k_int = int(round(k)) if math.isfinite(k) else 0
        if k_int < 1 or abs(k - k_int) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"translate {tau} is not a positive multiple of dt={dt}")
        multiples.append(k_int)
    sums = TranslateAccumulator(dt, multiples, traj.steps)
    projector = projector or Projector(Operators(traj.grid))
    for u_tilde in traj.predicted:
        sums.add(u_tilde, projector.project(u_tilde))
    return sums.rows()


def summed_step_increments(traj: Trajectory) -> float:
    """sum_n dt ||utilde^{n+1} - utilde^n||^2, the exact tau = dt translate integral."""
    sums = TranslateAccumulator(traj.dt, [], traj.steps)
    for u_tilde, u in zip(traj.predicted, traj.velocities[1:]):
        sums.add(u_tilde, u)
    return sums.l2[1]


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
        """err_l2l2 of each level over the level before; over a zero error, nan for 0/0 and inf otherwise."""
        errs = [lv.err_l2l2 for lv in self.levels]
        return [e1 / e0 if e0 else math.inf if e1 else math.nan for e0, e1 in zip(errs, errs[1:])]

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


def convergence_study(problem, levels, t_final, **scheme_kw) -> StudyReport:
    """Run a refinement ladder; levels is an iterable of (grid, steps) pairs.

    Every level is drawn and checked before any runs, or ValueError names the
    first that fails: at least one level, a t_final and steps time_step takes,
    grids that span problem.box if it has one (the exact solution's box), and
    1 cell along the same axes as level 0 (an empty block's error does not compare).
    scheme_kw goes to every level's ProjectionScheme, which owns the defaults;
    the exact face averages are taken at the scheme's quad_order.
    Errors are summed level by level against the exact face averages that
    problem.velocity.face_average combines from its per-grid averages. The
    corrected trajectory carries u^n on (t^n, t^{n+1}], so the L2(0,T;L2)
    error sums dt ||u^n - interp u(t^n)||^2 over n < N; the W^{1,2} error
    measures the predicted fields of levels 1..N. Both sum on packed unknowns:
    ops.inner for L2, the stiffness blocks S_i for W^{1,2} (ops.seminorm_sq).
    """
    if isinstance(problem, str):
        problem = mms_problem(problem)
    checked = []
    for k, (grid, steps) in enumerate(levels):
        spans = tuple((c[0], c[-1]) for c in grid.axes)
        if problem.box is not None and spans != problem.box:
            exact, have = (" x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in box) for box in (problem.box, spans))
            raise ValueError(f"convergence errors are measured against problem {problem.name!r}, which is exact "
                             f"only on {exact}; level {k} spans {have}")
        flat = [a for a, n in enumerate(grid.shape) if n == 1]
        flat0 = flat0 if k else flat
        if flat != flat0:
            raise ValueError(f"levels 0 and {k} have 1 cell along different axes, {flat0} and {flat}: "
                             f"their errors do not compare")
        checked.append((grid, steps, ProjectionScheme.time_step(t_final, steps)))
    if not checked:
        raise ValueError("a convergence study needs at least one level")
    report = StudyReport(problem.name)
    for grid, steps, dt in checked:
        scheme = ProjectionScheme(grid, **scheme_kw)
        ops = scheme.ops
        l2l2_sq = h1_sq = coupling_sq = 0.0
        margin = math.inf
        for state, diag in scheme.iterate(problem.initial, problem.forcing, t_final, steps):
            exact = ops.pack(problem.velocity.face_average(grid, state.n * dt, scheme.quad_order))
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
