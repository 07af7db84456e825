#
# The incremental projection stepper: initialization, the prediction and
# correction stages, and the per-step structural diagnostics.
#

import dataclasses
import functools
import gc
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import Polynomial

import macstag
from macstag.fields import PressureField, VelocityField, face_average, l2_norm
from macstag.grid import MacGrid, graded_axis, uniform_axis, uniform_grid
from macstag.linalg import SeparableSolver, SolverError, dot
from macstag.mms import mms_problem
from macstag import fields as fields_module
from macstag import linalg as linalg_module
from macstag import projection as projection_module
from macstag import scheme as scheme_module
from macstag.operators import Operators
from macstag.projection import REFINEMENT_SWEEPS, Projector
from macstag.scheme import DIAGNOSTIC_COLUMNS, ProjectionScheme, SchemeError, SchemeState
from macstag.verify import random_pressure

from conftest import SelfAveragingField, random_nonuniform_grid


@pytest.fixture(scope="module")
def vortex():
    return mms_problem("vortex2d")


def test_initialize_divergence_free(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g)
    state = scheme.initialize(vortex.initial)
    # the state holds the packed interior-face unknowns: no boundary value is stored
    assert state.u.shape == (scheme.ops.n_velocity,)
    assert np.abs(scheme.ops.div(scheme.ops.unpack(state.u)).data).max() <= 1e-9
    assert np.all(state.p.data == 0.0)
    assert state.n == 0 and state.t == 0.0


def test_initialize_kills_gradient_data(rng):
    # initial data that is a pure discrete gradient projects to (almost) zero
    g = random_nonuniform_grid(rng, 2, max_cells=6)
    scheme = ProjectionScheme(g, poisson_tol=1e-12)
    q = random_pressure(g, rng)
    gq = scheme.ops.grad(q)
    state = scheme.initialize(gq)
    assert l2_norm(scheme.ops.unpack(state.u)) <= 1e-8 * max(l2_norm(gq), 1e-30)


@pytest.mark.parametrize("name, n", [("vortex2d", (8, 8)), ("vortex3d", (4, 4, 4))], ids=["8x8", "4x4x4"])
def test_initialize_rejects_field_from_another_grid(name, n):
    # packing would take the first entries of the larger arrays, or the first
    # two components of a 3D field, and march on data from another grid
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4)))
    other = uniform_grid((0.0,) * len(n), (1.0,) * len(n), n)
    u0 = face_average(other, mms_problem(name).initial)
    shapes = [other.face_shape(i) for i in range(other.dim)]
    message = f"initial field has face shapes {shapes}, the grid (4, 4) has [(5, 4), (4, 5)]"
    with pytest.raises(ValueError, match=re.escape(message)):
        scheme.initialize(u0)


def test_correction_matches_decomposition(vortex, rng):
    # one prediction step, then: the correction must reproduce the discrete
    # Helmholtz decomposition of the intermediate field (same Poisson system)
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g, poisson_tol=1e-13, prediction_tol=1e-12)
    state = scheme.initialize(vortex.initial)
    dt = 0.02
    ops = scheme.ops
    f_field = scheme._forcing_field(vortex.forcing, state.t + 0.5 * dt)
    u_tilde, _ = scheme.prediction(state, ops.pack(f_field), dt)
    u_new, p_new, residual, div_max = scheme.correction(state, u_tilde, dt)
    psi = p_new - state.p  # the increment, recentered with p_new

    proj = Projector(ops)
    v_ref, phi_ref, _, _ = proj.decompose(u_tilde)
    phi_ref = PressureField(g, phi_ref.reshape(g.shape))
    # u_new = P(u_tilde) and dt * psi = potential of the gradient part
    assert l2_norm(ops.unpack(u_new - v_ref)) <= 1e-9 * max(l2_norm(ops.unpack(u_tilde)), 1e-30)
    scaled = PressureField(g, dt * psi.data).recentered()
    np.testing.assert_allclose(scaled.data, phi_ref.recentered().data, atol=1e-10)


def test_step_diagnostics_and_energy(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g)
    traj = scheme.run(vortex.initial, vortex.forcing, 0.2, 8)
    assert len(traj.diagnostics) == 8
    for d in traj.diagnostics:
        # unconditional stability: residual of the per-step energy budget
        # may only be nonnegative up to solver tolerance
        assert d.energy_residual >= -1e-9 * d.energy_scale
        assert d.div_max <= 10.0 * scheme.poisson_tol
        assert d.kinetic_energy > 0.0
        assert d.dissipation > 0.0
    # the pressure stays mean free
    for p in traj.pressures:
        assert abs(p.volume_mean()) <= 1e-12


def test_momentum_identity_tight_tolerance(vortex):
    # with near-exact inner solves the combined update must satisfy the
    # single-equation momentum form to ten digits relative
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g, prediction_tol=1e-13, poisson_tol=1e-13)
    traj = scheme.run(vortex.initial, vortex.forcing, 0.1, 4)
    checked = 0
    for d in traj.diagnostics:
        if np.isnan(d.momentum_residual):
            continue
        assert d.momentum_residual <= 1e-10 * d.momentum_scale
        checked += 1
    assert checked == 3  # levels 2..4


def test_momentum_check_follows_a_changing_step(vortex):
    # the correction that made u^n carries the previous step's dt, so the
    # combined identity holds when dt changes between steps
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g, prediction_tol=1e-13, poisson_tol=1e-13)
    state = scheme.initialize(vortex.initial)
    checked = 0
    for dt in (1 / 32, 1 / 32, 1 / 64, 1 / 64, 1 / 32):
        state, d = scheme.step(state, vortex.forcing, dt)
        if not np.isnan(d.momentum_residual):
            assert d.momentum_residual <= 1e-10 * d.momentum_scale
            checked += 1
    assert checked == 4  # levels 2..5


def test_unforced_energy_decays(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g)
    traj = scheme.run(vortex.initial, None, 0.2, 8)
    energies = [d.kinetic_energy for d in traj.diagnostics]
    assert all(e1 < e0 for e0, e1 in zip(energies, energies[1:]))


def test_rest_state_is_fixed_point():
    prob = mms_problem("rest2d")
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    scheme = ProjectionScheme(g)
    traj = scheme.run(prob.initial, prob.forcing, 0.1, 4)
    for u in traj.velocities:
        assert l2_norm(u) <= 1e-12
    for p in traj.pressures:
        assert l2_norm(p) <= 1e-10


def test_run_bookkeeping(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    scheme = ProjectionScheme(g)
    traj = scheme.run(vortex.initial, vortex.forcing, 0.1, 5)
    assert traj.steps == 5
    assert traj.dt == pytest.approx(0.02)
    np.testing.assert_allclose(traj.times, np.linspace(0.0, 0.1, 6), rtol=1e-13)
    assert len(traj.velocities) == 6
    assert len(traj.predicted) == 5
    assert [d.n for d in traj.diagnostics] == [1, 2, 3, 4, 5]


def test_iterate_yields_every_level_and_run_records_them(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    scheme = ProjectionScheme(g)
    levels = list(scheme.iterate(vortex.initial, vortex.forcing, 0.1, 5))
    assert [state.n for state, _ in levels] == [0, 1, 2, 3, 4, 5]
    assert levels[0][1] is None
    assert [diag.n for _, diag in levels[1:]] == [1, 2, 3, 4, 5]
    traj = scheme.run(vortex.initial, vortex.forcing, 0.1, 5)
    assert traj.times == [state.t for state, _ in levels]
    assert [d.row() for d in traj.diagnostics] == [diag.row() for _, diag in levels[1:]]
    unpack = scheme.ops.unpack
    for n, (state, _) in enumerate(levels):
        assert all(np.array_equal(a, b) for a, b in zip(traj.velocities[n].components, unpack(state.u).components))
        assert np.array_equal(traj.pressures[n].data, state.p.data)
        if n:
            ut = zip(traj.predicted[n - 1].components, unpack(state.u_tilde_prev).components)
            assert all(np.array_equal(a, b) for a, b in ut)


def test_diagnostics_row_matches_columns(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    scheme = ProjectionScheme(g)
    traj = scheme.run(vortex.initial, vortex.forcing, 0.05, 2)
    row = traj.diagnostics[0].row()
    assert len(row) == len(DIAGNOSTIC_COLUMNS)
    assert row[0] == 1


def test_invalid_dt(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    scheme = ProjectionScheme(g)
    state = scheme.initialize(vortex.initial)
    with pytest.raises(ValueError):
        scheme.step(state, vortex.forcing, 0.0)
    with pytest.raises(ValueError):
        scheme.run(vortex.initial, vortex.forcing, 0.1, 0)
    # checked when iterate is called, not when the first level is asked for
    for t_final, steps in ((0.1, 0), (0.0, 4), (-1.0, 4)):
        with pytest.raises(ValueError):
            scheme.iterate(vortex.initial, vortex.forcing, t_final, steps)


def test_3d_short_run():
    prob = mms_problem("vortex3d")
    g = uniform_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    scheme = ProjectionScheme(g)
    traj = scheme.run(prob.initial, prob.forcing, 0.05, 2)
    for d in traj.diagnostics:
        assert d.energy_residual >= -1e-9 * d.energy_scale
        assert d.div_max <= 10.0 * scheme.poisson_tol


# grids at the edge of what double precision allows for the divergence
# budget: extreme aspect ratio, strong grading, a 1-cell axis
PROBE_GRIDS = {
    "aspect-1e-3": [uniform_axis(0.0, 1.0, 16), uniform_axis(0.0, 1e-3, 16)],
    "graded-1.3-3d": [graded_axis(0.0, 1.0, 32, 1.3), uniform_axis(0.0, 1.0, 6), uniform_axis(0.0, 1.0, 6)],
    "graded-1.5": [graded_axis(0.0, 1.0, 24, 1.5), uniform_axis(0.0, 1.0, 8)],
    "one-cell-axis": [uniform_axis(0.0, 1.0, 1), uniform_axis(0.0, 1.0, 8)],
    "one-cell-axis-3d": [uniform_axis(0.0, 1.0, 6), uniform_axis(0.0, 1.0, 1), graded_axis(0.0, 1.0, 8, 1.2)],
}


@pytest.mark.parametrize("axes", PROBE_GRIDS.values(), ids=PROBE_GRIDS.keys())
def test_probe_grids_meet_divergence_budget(axes):
    g = MacGrid(axes)
    prob = mms_problem("vortex2d" if g.dim == 2 else "vortex3d")
    scheme = ProjectionScheme(g)
    traj = scheme.run(prob.initial, prob.forcing, 0.1, 4)
    assert len(traj.diagnostics) == 4
    assert max(d.div_max for d in traj.diagnostics) <= 10.0 * scheme.poisson_tol


@pytest.mark.parametrize("axes", PROBE_GRIDS.values(), ids=PROBE_GRIDS.keys())
def test_correction_divergence_at_roundoff(axes):
    # the velocity-level pass of the decomposition leaves the divergence at
    # roundoff of the corrected velocity, far inside the 10 x poisson_tol budget
    g = MacGrid(axes)
    prob = mms_problem("vortex2d" if g.dim == 2 else "vortex3d")
    traj = ProjectionScheme(g).run(prob.initial, prob.forcing, 0.1, 4)
    assert len(traj.diagnostics) == 4
    assert max(d.div_max for d in traj.diagnostics) <= 1e-12


def test_non_finite_inputs_fail_fast(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    scheme = ProjectionScheme(g)

    def nan_forcing(t, pts):
        return np.full(pts.shape, np.nan)

    start = time.perf_counter()
    with pytest.raises(SchemeError, match="step 1, forcing: .* not finite"):
        scheme.run(vortex.initial, nan_forcing, 0.1, 4)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(SchemeError, match="step 0, initialize: .* not finite"):
        scheme.initialize(lambda pts: np.full(pts.shape, np.inf))


def _forcing_never_evaluated(t, pts):
    raise AssertionError("forcing evaluated before the arguments were checked")


def _step_with_dt(dt):
    def call(g, prob):
        scheme = ProjectionScheme(g)
        return scheme.step(scheme.initialize(prob.initial), _forcing_never_evaluated, dt)

    return call


# direct API calls that parse_config would have refused
BAD_ARGUMENTS = {
    "poisson_tol=nan": (lambda g, prob: ProjectionScheme(g, poisson_tol=np.nan), r"poisson_tol .* got nan"),
    "poisson_tol=-1": (lambda g, prob: ProjectionScheme(g, poisson_tol=-1.0), r"poisson_tol .* got -1"),
    "prediction_tol=1e6": (
        lambda g, prob: ProjectionScheme(g, prediction_tol=1e6),
        r"prediction_tol .* got 1000000",
    ),
    "prediction_tol=0": (lambda g, prob: ProjectionScheme(g, prediction_tol=0.0), r"prediction_tol .* got 0"),
    "quad_order=0": (lambda g, prob: ProjectionScheme(g, quad_order=0), r"quad_order .* got 0"),
    "t_final=inf": (
        lambda g, prob: ProjectionScheme(g).iterate(prob.initial, _forcing_never_evaluated, np.inf, 4),
        r"t_final .* got inf",
    ),
    "t_final=nan": (
        lambda g, prob: ProjectionScheme(g).iterate(prob.initial, _forcing_never_evaluated, np.nan, 4),
        r"t_final .* got nan",
    ),
    "steps=inf": (
        lambda g, prob: ProjectionScheme(g).iterate(prob.initial, _forcing_never_evaluated, 0.1, np.inf),
        r"steps must be a whole number >= 1, got inf",
    ),
    "step-dt=nan": (_step_with_dt(np.nan), r"dt .* got nan"),
    "quad_order=2.7": (lambda g, prob: ProjectionScheme(g, quad_order=2.7), r"quad_order .* got 2.7"),
    "time_step-steps=2.5": (lambda g, prob: ProjectionScheme.time_step(1.0, 2.5), r"steps .* got 2.5"),
    "steps=2.5": (
        lambda g, prob: ProjectionScheme(g).iterate(prob.initial, _forcing_never_evaluated, 0.1, 2.5),
        r"steps .* got 2.5",
    ),
    # t_final/steps does not convert to a float, or underflows below the normal range
    "steps=10**400": (
        lambda g, prob: ProjectionScheme(g).iterate(prob.initial, _forcing_never_evaluated, 0.1, 10**400),
        r"steps = 10{400} is too many for t_final = 0.1: the step t_final/steps is not a positive normal float",
    ),
    "time_step-subnormal": (lambda g, prob: ProjectionScheme.time_step(1e-300, 10**20),
                            r"steps = 100000000000000000000 is too many for t_final = 1e-300"),
}


# graded n x n grids: the first three run within the divergence budget; a
# march on the last two fails at step 1 by the divergence guard, so they are
# rejected when the scheme is built
GRADED_GRIDS = [(128, 1.05, True), (128, 1.1, True), (256, 1.05, True), (128, 1.15, False), (256, 1.1, False)]


@pytest.mark.parametrize("n, ratio, resolved", GRADED_GRIDS, ids=str)
def test_unresolvable_grading_is_rejected_when_built(n, ratio, resolved):
    axis = graded_axis(0.0, 1.0, n, ratio)
    start = time.perf_counter()
    if resolved:
        ProjectionScheme(MacGrid([axis, axis]))
        return
    with pytest.raises(SchemeError, match=r"cell width \S+, probe residual \S+ > sqrt\(poisson_tol\) = 1.0e-05"):
        ProjectionScheme(MacGrid([axis, axis]))
    assert time.perf_counter() - start < 1.0


# graded n x n grids next to the default admission limit sqrt(1e-10) = 1e-5,
# with the probe residual each rejected one leaves; 128/1.13 leaves 9.7e-7
# and is built (its march then fails at step 1), and the other side of
# 256/1.06 is 256/1.05 of GRADED_GRIDS (8.1e-9)
ADMISSION_BOUNDARY = [(128, 1.13, None), (128, 1.14, "1.8e-02"), (256, 1.06, "1.4e-03")]


@pytest.mark.parametrize("n, ratio, residual", ADMISSION_BOUNDARY, ids=str)
def test_admission_boundary_is_pinned_on_both_sides(n, ratio, residual):
    grid = MacGrid([graded_axis(0.0, 1.0, n, ratio)] * 2)
    if residual is None:
        ProjectionScheme(grid)
        return
    with pytest.raises(SchemeError, match=rf"probe residual {residual} > sqrt\(poisson_tol\) = 1.0e-05"):
        ProjectionScheme(grid)


def test_rejected_grid_builds_no_momentum_solver(monkeypatch):
    # the pressure probe runs before the momentum chains are diagonalized,
    # so a grid it rejects never reaches dstemr or dpteqr
    def never(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return call

    monkeypatch.setattr(linalg_module, "dstemr", never("dstemr"))
    monkeypatch.setattr(linalg_module, "dpteqr", never("dpteqr"))
    axis = graded_axis(0.0, 1.0, 128, 1.15)
    message = r"the separable pressure solve cannot resolve this grid: largest/smallest cell width 5.1e\+07, probe residual"
    with pytest.raises(SchemeError, match=message):
        ProjectionScheme(MacGrid([axis, axis]))


def test_lapack_failure_while_building_is_a_scheme_error(monkeypatch):
    monkeypatch.setattr(linalg_module, "dstemr", lambda d, *args: (0, d, None, 1))
    monkeypatch.setattr(linalg_module, "dpteqr", lambda d, *args, **kwargs: (d, None, None, 3))
    message = r"LinAlgError: dpteqr failed \(info=3\) on a positive definite chain of 7 cells"
    with pytest.raises(SchemeError, match=message) as err:
        ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_solver_error_is_the_one_scheme_error():
    # a caller catches SchemeError alone: a failed solve is its subclass, and
    # every import path names the one class linalg defines
    assert issubclass(SolverError, SchemeError)
    assert macstag.SchemeError is scheme_module.SchemeError is linalg_module.SchemeError


def test_divergence_guard_fires(vortex):
    # the probe admits the grid, its limit being sqrt(1e-24) = 1e-12; the
    # roundoff divergence step 1 leaves is then above 10 x poisson_tol
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)), poisson_tol=1e-24)
    state = scheme.initialize(vortex.initial)
    message = "step 1, correction: post-correction divergence 4.441e-16 exceeds 10 x poisson_tol = 1.0e-23"
    with pytest.raises(SchemeError, match=re.escape(message)):
        scheme.step(state, vortex.forcing, 1.0 / 32)


def test_divergence_guard_fails_a_nan(vortex, monkeypatch):
    # a NaN divergence is no pass: the guard reads "not <=", not ">"
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)))
    state = scheme.initialize(vortex.initial)
    decompose, nan_div = scheme.projector.decompose, np.full(scheme.ops.n_cells, np.nan)
    monkeypatch.setattr(scheme.projector, "decompose", lambda w: (*decompose(w)[:3], nan_div))
    with pytest.raises(SchemeError, match="step 1, correction: post-correction divergence nan exceeds"):
        scheme.step(state, vortex.forcing, 1.0 / 32)


def test_momentum_check_fires_on_a_perturbed_history(vortex):
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)))
    state = scheme.initialize(vortex.initial)
    for _ in range(2):
        state, diag = scheme.step(state, vortex.forcing, 1.0 / 32)
    assert diag.momentum_residual < 1e-10  # 2.8e-11
    # G p^{n-1} 1% off: the identity across the correction that made u^n breaks
    state = dataclasses.replace(state, gp_prev=1.01 * state.gp_prev)
    message = "step 3, momentum check: combined momentum residual 1.280e-03 exceeds solver-residual bound 9.927e-10"
    with pytest.raises(SchemeError, match=re.escape(message)):
        scheme.step(state, vortex.forcing, 1.0 / 32)


def test_loose_poisson_tol_admits_the_grading_it_runs(vortex):
    # 128^2 graded 1.14 leaves a probe residual of 1.8e-2: rejected at the
    # default poisson_tol, where a march fails at step 1 (div_max 3.0e-2), and
    # built at poisson_tol = 1e-2, where the same march passes the guard
    axis = graded_axis(0.0, 1.0, 128, 1.14)
    grid = MacGrid([axis, axis])
    with pytest.raises(SchemeError, match="probe residual 1.8e-02"):
        ProjectionScheme(grid)
    scheme = ProjectionScheme(grid, poisson_tol=1e-2)
    traj = scheme.run(vortex.initial, vortex.forcing, 0.125, 4)
    assert max(d.div_max for d in traj.diagnostics) <= 10.0 * scheme.poisson_tol


@pytest.mark.parametrize("call, match", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_are_rejected_before_any_step(vortex, call, match):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    with pytest.raises(ValueError, match=match):
        call(g, vortex)


def test_smallest_normal_step_is_accepted():
    # the rule on t_final/steps rejects only steps below the normal range
    assert ProjectionScheme.time_step(1.0, 2**1022) == np.finfo(float).tiny
    with pytest.raises(ValueError, match=r"steps = 8988\d+ is too many for t_final = 1.0"):
        ProjectionScheme.time_step(1.0, 2**1023)


def test_integral_float_counts_are_accepted(vortex):
    # whole numbers given as floats are counts like their ints
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    scheme = ProjectionScheme(g, quad_order=3.0)
    assert type(scheme.quad_order) is int
    assert ProjectionScheme.time_step(1.0, 8.0) == 0.125
    levels = list(scheme.iterate(vortex.initial, vortex.forcing, 0.1, 2.0))
    assert [state.n for state, _ in levels] == [0, 1, 2]


def _random_axis(rng, n, length=1.0):
    widths = rng.uniform(0.2, 1.0, n)
    return np.concatenate([[0.0], np.cumsum(widths)]) * (length / widths.sum())


def _separable_grids():
    rng = np.random.default_rng(20240901)
    return {
        "2d": MacGrid([_random_axis(rng, 9), _random_axis(rng, 7)]),
        "3d": MacGrid([_random_axis(rng, 5), _random_axis(rng, 6), _random_axis(rng, 4)]),
        "one-cell-2d": MacGrid([_random_axis(rng, 1), _random_axis(rng, 8)]),
        "one-cell-3d": MacGrid([_random_axis(rng, 4), _random_axis(rng, 1), _random_axis(rng, 5)]),
        "aspect-1e-3": MacGrid([_random_axis(rng, 10), _random_axis(rng, 10, 1e-3)]),
        "aspect-1e-3-3d": MacGrid([_random_axis(rng, 5, 1e-3), _random_axis(rng, 6), _random_axis(rng, 4)]),
        # h_max/h_min of 1.7e7, 1.5e7 and 3.6e10: eigh's modes left 1.6e-2,
        # 8.2e-3 and 84 here, the relative-accuracy ones leave roundoff
        "graded-128-1.14": MacGrid([graded_axis(0.0, 1.0, 128, 1.14)] * 2),
        "graded-64-1.3": MacGrid([graded_axis(0.0, 1.0, 64, 1.3)] * 2),
        "graded-256-1.1": MacGrid([graded_axis(0.0, 1.0, 256, 1.1)] * 2),
    }


SEPARABLE_GRIDS = _separable_grids()


@functools.cache
def _momentum_inverses(name):
    """The operators of a SEPARABLE_GRIDS grid and the separable solver of each block, built once."""
    ops = Operators(SEPARABLE_GRIDS[name])
    return ops, [SeparableSolver(*chains) for chains in ops.laplace_chains]


@pytest.mark.parametrize("name", SEPARABLE_GRIDS.keys())
@pytest.mark.parametrize("dt", [1.0, 1.0 / 32, 1e-4])
def test_prediction_preconditioner_is_exact_symmetric_inverse(name, dt):
    # the separable solver built from the 1D chains of block i inverts
    # M_i/dt + S_i as assembled from the same chains; CGW needs it exact
    ops, solvers = _momentum_inverses(name)
    rng = np.random.default_rng(7)
    for i, solver in enumerate(solvers):
        z = rng.standard_normal(ops.block_sizes[i])
        A0 = (sp.diags(ops.mass_blocks[i] / dt) + ops.laplace_blocks[i]).tocsr()
        x = solver.solve(z, 1.0 / dt)
        assert np.linalg.norm(A0 @ x - z) <= 1e-12 * np.linalg.norm(z)


@pytest.mark.parametrize(
    "axes, name",
    [
        ([graded_axis(0.0, 1.0, 64, 1.05)] * 2, "vortex2d"),
        ([graded_axis(0.0, 1.0, 12, 1.05)] * 3, "vortex3d"),
    ],
    ids=["graded-64^2", "graded-12^3"],
)
def test_prediction_iterations_bounded(axes, name):
    # with the exact inverse of its symmetric part, each component takes 3-4
    # CGW iterations in 2D and 5-6 in 3D
    prob = mms_problem(name)
    scheme = ProjectionScheme(MacGrid(axes))
    state = scheme.initialize(prob.initial)
    dt = 1.0 / 32
    for _ in range(2):
        f_field = scheme._forcing_field(prob.forcing, state.t + 0.5 * dt)
        _, stats = scheme.prediction(state, scheme.ops.pack(f_field), dt)
        assert max(stats.iterations) <= 8, stats.iterations
        state, _ = scheme.step(state, prob.forcing, dt)


@pytest.mark.parametrize("n, ratio", [(128, 1.14), (64, 1.3)], ids=str)
def test_prediction_iterations_on_strong_grading(vortex, n, ratio):
    # h_max/h_min of 1.7e7 and 1.5e7: with eigh's modes the separable inverse
    # was off by up to 1.6e-2 and GMRES took 24-27 and 14-16 iterations per
    # step; the exact inverse keeps CGW at 4 per component
    axis = graded_axis(0.0, 1.0, n, ratio)
    scheme = ProjectionScheme(MacGrid([axis, axis]), poisson_tol=1e-2)
    levels = scheme.iterate(vortex.initial, vortex.forcing, 0.125, 4)
    assert [diag.pred_iters for _, diag in levels if diag is not None] == [8] * 4


def test_prediction_converges_under_strong_advection(vortex):
    # an advecting field 1000 x the manufactured one: CGW takes 130 iterations
    # per component, where restarted GMRES took 212-214
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 32, 1.05)] * 2))
    state = scheme.initialize(vortex.initial)
    state.u = 1000.0 * state.u
    f = scheme.ops.pack(scheme._forcing_field(vortex.forcing, 1.0 / 64))
    _, stats = scheme.prediction(state, f, 1.0 / 32)
    assert max(stats.iterations) <= 160, stats.iterations
    assert stats.residual <= scheme.prediction_tol


@pytest.mark.parametrize("dim", [2, 3])
def test_one_separable_solve_per_prediction_iteration(monkeypatch, dim):
    # CGW applies the FDM once per iteration and not
    # otherwise; the correction applies it once per velocity-level pass
    prob = mms_problem(f"vortex{dim}d")
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 24 if dim == 2 else 8, 1.05)] * dim))
    state = scheme.initialize(prob.initial)
    calls = []
    solve = SeparableSolver.solve

    def counted(self, *args, **kwargs):
        calls.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SeparableSolver, "solve", counted)
    # the guesses: u^n, then utilde^n, then 2 utilde^n - utilde^{n-1}
    for _ in range(3):
        calls.clear()
        state, diag = scheme.step(state, prob.forcing, 1.0 / 32)
        assert len(calls) == diag.pred_iters + 1 + REFINEMENT_SWEEPS


def test_extrapolated_guess_saves_prediction_iterations():
    # 74 iterations over this episode when every solve starts from u^n
    prob = mms_problem("vortex2d")
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 128, 1.02)] * 2))
    levels = scheme.iterate(prob.initial, prob.forcing, 0.25, 8)
    assert sum(diag.pred_iters for _, diag in levels if diag is not None) <= 64


def test_prediction_iterations_of_a_3d_episode():
    # 126 iterations over this episode, 15-18 per step
    prob = mms_problem("vortex3d")
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 16, 1.05)] * 3))
    levels = scheme.iterate(prob.initial, prob.forcing, 0.25, 8)
    assert sum(diag.pred_iters for _, diag in levels if diag is not None) <= 132


def test_prediction_failure_names_step_and_direction(vortex, monkeypatch):
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)))
    state = scheme.initialize(vortex.initial)
    for _ in range(2):
        state, _ = scheme.step(state, vortex.forcing, 1.0 / 32)
    monkeypatch.setattr(linalg_module, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverError) as err:
        scheme.step(state, vortex.forcing, 1.0 / 32)
    assert str(err.value).startswith("step 3, prediction, direction 0: CGW did not converge (iterations=1, ")
    assert err.value.iterations == 1 and err.value.residual > scheme.prediction_tol


def test_step_packs_each_field_once(monkeypatch):
    # the state carries packed interior-face vectors from level to level: a
    # step packs only the forcing, unpacks nothing and takes no field inner
    # product, in 2D and in 3D
    counts = {"pack": 0, "unpack": 0, "velocity_inner": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(Operators, "pack", counted("pack", Operators.pack))
    monkeypatch.setattr(Operators, "unpack", counted("unpack", Operators.unpack))
    for module in (fields_module, projection_module, scheme_module):
        if hasattr(module, "velocity_inner"):
            monkeypatch.setattr(module, "velocity_inner", counted("velocity_inner", module.velocity_inner))
    for shape in ((8, 8), (4, 5, 3)):
        dim = len(shape)
        prob = mms_problem(f"vortex{dim}d")
        scheme = ProjectionScheme(uniform_grid((0.0,) * dim, (1.0,) * dim, shape))
        state = scheme.initialize(prob.initial)
        for n in range(5):
            counts.update(dict.fromkeys(counts, 0))
            state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
            assert counts == {"pack": 1, "unpack": 0, "velocity_inner": 0}, (shape, n)


@pytest.mark.parametrize("dim", [2, 3])
def test_separable_forcing_matches_generic_path(rng, dim):
    # the exact per-grid averages of a Separable forcing and the pointwise
    # average of the same forcing as a plain callable drive the same march;
    # 5 points per axis make the pointwise rule exact for the degree-8 factors
    g = random_nonuniform_grid(rng, dim)
    prob = mms_problem(f"vortex{dim}d")
    levels = {}
    for path, forcing in (("separable", prob.forcing), ("generic", lambda t, pts: prob.forcing(t, pts))):
        levels[path] = list(ProjectionScheme(g, quad_order=5).iterate(prob.initial, forcing, 0.1, 4))
    unpack = Operators(g).unpack
    for (sa, da), (sb, db) in zip(levels["separable"][1:], levels["generic"][1:]):
        assert l2_norm(unpack(sa.u - sb.u)) <= 1e-12 * l2_norm(unpack(sa.u))
        assert l2_norm(sa.p - sb.p) <= 1e-12 * l2_norm(sa.p)
        for column in ("kinetic_energy", "dissipation", "grad_p_norm", "coupling_norm"):
            a, b = getattr(da, column), getattr(db, column)
            assert abs(a - b) <= 1e-12 * abs(a), column
        # a roundoff-sized column, on the scale of the terms it balances; the
        # step itself guards div_max
        assert abs(da.energy_residual - db.energy_residual) <= 1e-12 * da.energy_scale
        assert (da.n, da.t, da.corr_iters) == (db.n, db.t, db.corr_iters)


def test_initialize_and_step_take_a_field_s_own_face_means():
    # a field from outside mms with face_average(grid) is the initial data
    # its means give, and a forcing with face_average(grid, t) supplies the
    # prediction's forcing at the step's midpoint; neither is evaluated
    grid = MacGrid([graded_axis(0.0, 1.0, 6, 1.1), uniform_axis(0.0, 1.0, 5)])
    scheme = ProjectionScheme(grid)
    initial, forcing = SelfAveragingField(0), SelfAveragingField(1)
    state = scheme.initialize(initial)
    assert initial.asked == [(grid,)]
    np.testing.assert_array_equal(state.u, scheme.initialize(initial.face_average(grid)).u)
    dt = 1.0 / 32
    new, _ = scheme.step(state, forcing, dt)
    assert forcing.asked == [(grid, 0.5 * dt)]
    ut, _ = scheme.prediction(state, scheme.ops.pack(forcing.face_average(grid, 0.5 * dt)), dt)
    np.testing.assert_array_equal(new.u_tilde_prev, ut)


def test_a_state_needs_only_its_level_s_fields(vortex):
    # step forms ||u^n||^2 / 2 and ||G p^n|| of the old level from u and gp,
    # the bits the diagnostics reported for that level (gp is 0 at level 0),
    # so a state rebuilt from the level's fields alone steps to the same bits
    assert not {"energy", "gp_norm"} & {f.name for f in dataclasses.fields(SchemeState)}
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 10, 1.05)] * 2))
    ops = scheme.ops
    state = scheme.initialize(vortex.initial)
    assert not state.gp.any()
    for _ in range(2):
        state, diag = scheme.step(state, vortex.forcing, 1.0 / 32)
        assert (diag.kinetic_energy, diag.grad_p_norm) == (0.5 * ops.inner(state.u, state.u), ops.norm(state.gp))
    rebuilt = SchemeState(n=state.n, t=state.t, u=state.u.copy(), p=PressureField(scheme.grid, state.p.data),
                          gp=state.gp.copy(), dt=state.dt, u_tilde_prev=state.u_tilde_prev.copy(),
                          u_tilde_prev2=state.u_tilde_prev2.copy(), gp_prev=state.gp_prev.copy())
    (a, da), (b, db) = (scheme.step(s, vortex.forcing, 1.0 / 32) for s in (state, rebuilt))
    assert da == db
    np.testing.assert_array_equal(a.u, b.u)


def test_separable_forcing_is_evaluated_once_per_grid(rng, monkeypatch):
    # the forcing's spatial parts compute their face means on the first step,
    # each once, and no step after evaluates a polynomial
    prob = mms_problem("vortex2d")
    calls = []
    evaluate = Polynomial.__call__
    monkeypatch.setattr(Polynomial, "__call__", lambda p, x: calls.append(p) or evaluate(p, x))
    grid = random_nonuniform_grid(rng, 2)  # a fresh grid: nothing is stored for it yet
    per_step = []
    for state, _ in ProjectionScheme(grid).iterate(prob.initial, prob.forcing, 0.1, 4):
        per_step.append(len(calls))
        calls.clear()
    for _, g in mms_problem("vortex2d").forcing.terms:  # each part averaged once, on a fresh problem
        g.face_average(grid)
    assert per_step[1] == len(calls) > 0
    assert per_step[2:] == [0, 0, 0]


def test_prediction_pattern_is_built_once_per_grid(monkeypatch):
    # a step assembles nothing: it only writes values onto the fixed
    # diagonals that the operators chose for each convection block, the
    # diagonals each stiffness block is stored on
    prob = mms_problem("vortex2d")
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 12, 1.05)] * 2))
    state = scheme.initialize(prob.initial)
    for S, offsets in zip(scheme.ops.laplace_blocks, scheme.ops.dia_offsets, strict=True):
        assert isinstance(S, sp.dia_matrix)
        np.testing.assert_array_equal(S.offsets, offsets)

    counts = {"coo": 0, "csr": 0, "tocsr": 0, "todia": 0, "diags": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    for key, classes in (("coo", (sp.coo_matrix, sp.coo_array)), ("csr", (sp.csr_matrix, sp.csr_array))):
        for cls in classes:
            monkeypatch.setattr(cls, "__init__", counted(key, cls.__init__))
    for cls in (sp.coo_matrix, sp.csr_matrix, sp.csc_matrix, sp.dia_matrix, sp.lil_matrix, sp.dok_matrix,
                sp.bsr_matrix, sp.coo_array, sp.csr_array, sp.csc_array, sp.dia_array):
        for conversion in ("tocsr", "todia"):
            monkeypatch.setattr(cls, conversion, counted(conversion, getattr(cls, conversion)))
    monkeypatch.setattr(sp, "diags", counted("diags", sp.diags))

    matrices = []
    solve = scheme_module.solve_cgw
    prediction = scheme.prediction

    def spy_solve(d, S, N, b, **kwargs):
        matrices[-1].append(N)
        return solve(d, S, N, b, **kwargs)

    def spy_prediction(*args):
        matrices.append([])
        return prediction(*args)

    monkeypatch.setattr(scheme_module, "solve_cgw", spy_solve)
    monkeypatch.setattr(scheme, "prediction", spy_prediction)
    state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
    first = [C.data.copy() for C in matrices[0]]
    for _ in range(2):
        state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
    assert counts == {"coo": 0, "csr": 0, "tocsr": 0, "todia": 0, "diags": 0}
    for step in matrices:
        for N, offsets in zip(step, scheme.ops.dia_offsets, strict=True):
            assert isinstance(N, sp.dia_matrix)
            np.testing.assert_array_equal(N.offsets, offsets)
    # each step's values are its own
    for C, values in zip(matrices[0], first):
        np.testing.assert_array_equal(C.data, values)
    assert not np.array_equal(matrices[0][0].data, matrices[1][0].data)


SHARING_GRIDS = {
    "graded-2d": ("vortex2d", [graded_axis(0.0, 1.0, 12, 1.05)] * 2),
    "graded-3d": ("vortex3d", [graded_axis(0.0, 1.0, 6, 1.05)] * 3),
    "one-cell-axis": ("vortex3d", [graded_axis(0.0, 1.0, 6, 1.05), uniform_axis(0.0, 1.0, 1),
                                   graded_axis(0.0, 1.0, 5, 0.9)]),
}


@pytest.mark.parametrize("name", SHARING_GRIDS)
def test_step_reuses_the_prediction_products(monkeypatch, name):
    # the energy terms and the momentum check take S_i utilde and
    # C_i(u^n) utilde from the prediction solver: a step makes no S_i or C_i
    # matvec outside the solves, and what it reuses equals fresh products
    problem, axes = SHARING_GRIDS[name]
    prob = mms_problem(problem)
    scheme = ProjectionScheme(MacGrid(axes))
    ops, dt = scheme.ops, 1.0 / 32
    state, _ = scheme.step(scheme.initialize(prob.initial), prob.forcing, dt)  # level 1: the momentum check runs
    assert all(isinstance(S, sp.dia_matrix) for S in ops.laplace_blocks)

    calls, solves, inside = [], [], []  # calls: (matrix, inside a solve) per DIA matvec
    matvec = sp.dia_matrix._matmul_vector

    def spy_matvec(self, other):
        calls.append((self, bool(inside)))
        return matvec(self, other)

    solve = scheme_module.solve_cgw

    def spy_solve(d, S, N, b, **kwargs):
        assert isinstance(N, sp.dia_matrix)
        inside.append(True)
        out = solve(d, S, N, b, **kwargs)
        inside.pop()
        solves.append((S, N, out))
        return out

    predictions, prediction = [], scheme.prediction

    def spy_prediction(*args):
        ut, pred = prediction(*args)
        predictions.append(pred)
        return ut, pred

    monkeypatch.setattr(sp.dia_matrix, "_matmul_vector", spy_matvec)
    monkeypatch.setattr(scheme_module, "solve_cgw", spy_solve)
    monkeypatch.setattr(scheme, "prediction", spy_prediction)
    new_state, diag = scheme.step(state, prob.forcing, dt)
    monkeypatch.undo()
    assert calls and [matrix for matrix, solving in calls if not solving] == []
    assert len(solves) == ops.grid.dim
    # the Prediction packs the solver's products once, direction 0 first, and lists its counts
    (pred,) = predictions
    assert pred.Su.tobytes() == np.concatenate([out.Sx for _, _, out in solves]).tobytes()
    assert pred.Nu.tobytes() == np.concatenate([out.Nx for _, _, out in solves]).tobytes()
    assert pred.iterations == [out.iterations for _, _, out in solves]

    ut = new_state.u_tilde_prev
    for i, (S, C, out) in enumerate(solves):
        assert S is ops.laplace_blocks[i]
        np.testing.assert_array_equal(out.x, ops.block(ut, i))
        np.testing.assert_array_equal(out.Sx, S @ out.x)
        np.testing.assert_array_equal(out.Nx, C @ out.x)
    # the diagnostics are those of fresh products
    lap_ut = np.concatenate([S @ ops.block(ut, i) for i, S in enumerate(ops.laplace_blocks)])
    assert diag.dissipation == dot(ut, lap_ut)
    f = ops.pack(scheme._forcing_field(prob.forcing, state.t + 0.5 * dt))
    t2 = np.concatenate([(C @ ops.block(ut, i)) / ops.mass_blocks[i] for i, (_, C, _) in enumerate(solves)])
    t3 = 2.0 * state.gp - 1.0 * state.gp_prev  # (1 + r) G p^n - r G p^{n-1} at equal steps, r = 1
    res = (ut - state.u_tilde_prev) / dt + t2 + t3 + lap_ut / ops.mass_velocity - f
    assert diag.momentum_residual == math.sqrt(max(ops.inner(res, res), 0.0))


@pytest.mark.parametrize("problem, axes", [("vortex2d", [graded_axis(0.0, 1.0, 128, 1.02)] * 2),
                                           ("vortex3d", [graded_axis(0.0, 1.0, 16, 1.05)] * 3)],
                         ids=["graded-128x128", "graded-16x16x16"])
def test_step_working_set_is_pinned(problem, axes):
    # one step holds at most 12 full-length velocity vectors beyond the
    # state it starts from: one convection block at a time, each direction's
    # solution written into the packed utilde, and the momentum check in two
    # buffers. Measured 9.5 (128^2) and 9.5 (16^3); holding every C_i and a
    # concatenated copy of the solutions reads 16.0 and 16.5, and the solver
    # vectors of the last CGW iteration held through the next one 11.0 (128^2)
    prob = mms_problem(problem)
    scheme = ProjectionScheme(MacGrid(axes))
    state = scheme.initialize(prob.initial)
    for _ in range(2):  # the momentum check runs from the second step on, the extrapolated guess from the third
        state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        scheme.step(state, prob.forcing, 1.0 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vectors = (peak - held) / (8 * scheme.ops.n_velocity)
    assert vectors <= 12.0, vectors


def _dense_blocks(ops, blocks):
    """The block-diagonal dense matrix of one sparse block per direction; an empty block adds nothing."""
    A = np.zeros((ops.n_velocity, ops.n_velocity))
    for i, B in enumerate(blocks):
        lo, hi = ops.offsets[i], ops.offsets[i + 1]
        A[lo:hi, lo:hi] = B.toarray()
    return A


def _dense_march(scheme, problem, dts):
    """The scheme's equations solved plainly, one (utilde, u, p) per step.

    Per step: (M/dt + S + C(u^n)) utilde = M (u^n/dt + f - G p^n) by a dense
    solve, phi = pinv(G^T M G) G^T M utilde, u^{n+1} = utilde - G phi and
    p^{n+1} = p^n + phi/dt, recentered. f is the face mean of the forcing at
    the step's midpoint, by the pointwise path at 5 points per axis, exact
    for its factors of degree <= 8.
    """
    ops, grid = scheme.ops, scheme.grid
    M = ops.mass_velocity
    G = ops.G.tocsr().toarray()
    S = _dense_blocks(ops, ops.laplace_blocks)
    GtM = G.T * M
    pinv = np.linalg.pinv(GtM @ G)
    vol = ops.cell_vol

    def project(w):
        phi = pinv @ (GtM @ w)
        return w - G @ phi, phi

    u = project(ops.pack(face_average(grid, problem.initial)))[0]
    p, t, levels = np.zeros(ops.n_cells), 0.0, []
    for dt in dts:
        f = ops.pack(face_average(grid, lambda pts: problem.forcing(t + 0.5 * dt, pts), order=5))
        C = _dense_blocks(ops, [ops.convection_block(u, i) for i in range(grid.dim)])
        ut = np.linalg.solve(np.diag(M / dt) + S + C, M * (u / dt + f - G @ p))
        u, phi = project(ut)
        p = p + phi / dt
        p -= (vol @ p) / vol.sum()
        t += dt
        levels.append((ut, u, p))
    return levels


# the largest relative difference from the dense march over the oracle cases, 1.2e-13 when measured
DENSE_MARCH_TOL = 1e-11
_march_rng = np.random.default_rng(113)
_flat_x, _flat_z = random_nonuniform_grid(_march_rng, 2, max_cells=5).axes
DENSE_MARCH_CASES = {
    "coords-2d": ("vortex2d", random_nonuniform_grid(_march_rng, 2, max_cells=6), [0.05] * 4),
    "coords-3d": ("vortex3d", random_nonuniform_grid(_march_rng, 3, max_cells=5), [0.05] * 4),
    "one-cell-axis-3d": ("vortex3d", MacGrid([_flat_x, [0.0, 1.0], _flat_z]), [0.05] * 4),
    "varying-dt-2d": ("vortex2d", random_nonuniform_grid(_march_rng, 2, max_cells=6), [0.05, 0.02, 0.07, 0.04]),
}


@pytest.mark.parametrize("name", DENSE_MARCH_CASES)
def test_march_matches_dense_oracle(name):
    # the composed step (the guess, CGW on the separable inverse, the packing,
    # the two-pass projection, the pressure update and its recentering)
    # against the scheme's equations solved densely; equal steps go through
    # iterate(), the varying ones through step()
    problem, grid, dts = DENSE_MARCH_CASES[name]
    prob = mms_problem(problem)
    scheme = ProjectionScheme(grid, prediction_tol=1e-13, poisson_tol=1e-13)
    if len(set(dts)) == 1:
        levels = [state for state, diag in scheme.iterate(prob.initial, prob.forcing, sum(dts), len(dts))][1:]
    else:
        state, levels = scheme.initialize(prob.initial), []
        for dt in dts:
            state, _ = scheme.step(state, prob.forcing, dt)
            levels.append(state)
    expected = _dense_march(scheme, prob, dts)
    assert len(levels) == len(expected)
    for state, (ut, u, p) in zip(levels, expected):
        for ours, ref in ((state.u_tilde_prev, ut), (state.u, u), (state.p.data.ravel(), p)):
            assert np.abs(ours - ref).max() <= DENSE_MARCH_TOL * np.abs(ref).max()
