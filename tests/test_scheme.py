#
# The incremental projection stepper: initialization, the prediction and
# correction stages, and the per-step structural diagnostics.
#

import time

import numpy as np
import pytest
import scipy.sparse as sp

from macstag.fields import PressureField, VelocityField, l2_norm
from macstag.grid import MacGrid, graded_axis, uniform_axis, uniform_grid
from macstag.mms import mms_problem
from macstag.projection import Projector
from macstag.scheme import DIAGNOSTIC_COLUMNS, ProjectionScheme, SchemeError, _momentum_solver
from macstag.verify import random_pressure

from conftest import random_nonuniform_grid


@pytest.fixture(scope="module")
def vortex():
    return mms_problem("vortex2d")


def test_initialize_divergence_free(vortex):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g)
    state = scheme.initialize(vortex.initial)
    assert np.abs(scheme.ops.div(state.u).data).max() <= 1e-9
    assert state.u.exterior_max() == 0.0
    assert np.all(state.p.data == 0.0)
    assert state.n == 0 and state.t == 0.0


def test_initialize_kills_gradient_data(rng):
    # initial data that is a pure discrete gradient projects to (almost) zero
    g = random_nonuniform_grid(rng, 2, max_cells=6)
    scheme = ProjectionScheme(g, poisson_tol=1e-12)
    q = random_pressure(g, rng)
    gq = scheme.ops.grad(q)
    state = scheme.initialize(gq)
    assert l2_norm(state.u) <= 1e-8 * max(l2_norm(gq), 1e-30)


def test_correction_matches_decomposition(vortex, rng):
    # one prediction step, then: the correction must reproduce the discrete
    # Helmholtz decomposition of the intermediate field (same Poisson system)
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g, poisson_tol=1e-13, prediction_tol=1e-12)
    state = scheme.initialize(vortex.initial)
    dt = 0.02
    f_field = scheme._forcing_field(vortex.forcing, state.t + 0.5 * dt)
    u_tilde, _ = scheme.prediction(state, f_field, dt)
    u_new, p_new, psi, stats = scheme.correction(state, u_tilde, dt)

    proj = Projector(scheme.ops)
    v_ref, phi_ref, _ = proj.decompose(u_tilde)
    # u_new = P(u_tilde) and dt * psi = potential of the gradient part
    assert l2_norm(u_new - v_ref) <= 1e-9 * max(l2_norm(u_tilde), 1e-30)
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
    for n, (state, _) in enumerate(levels):
        assert all(np.array_equal(a, b) for a, b in zip(traj.velocities[n].components, state.u.components))
        assert np.array_equal(traj.pressures[n].data, state.p.data)
        if n:
            ut = zip(traj.predicted[n - 1].components, state.u_tilde_prev.components)
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
}


@pytest.mark.parametrize("axes", PROBE_GRIDS.values(), ids=PROBE_GRIDS.keys())
def test_probe_grids_meet_divergence_budget(axes):
    g = MacGrid(axes)
    prob = mms_problem("vortex2d" if g.dim == 2 else "vortex3d")
    scheme = ProjectionScheme(g)
    traj = scheme.run(prob.initial, prob.forcing, 0.1, 4)
    assert len(traj.diagnostics) == 4
    assert max(d.div_max for d in traj.diagnostics) <= 10.0 * scheme.poisson_tol


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
    }


SEPARABLE_GRIDS = _separable_grids()


@pytest.mark.parametrize("g", SEPARABLE_GRIDS.values(), ids=SEPARABLE_GRIDS.keys())
@pytest.mark.parametrize("dt", [1.0, 1.0 / 32, 1e-4])
def test_prediction_preconditioner_is_exact_symmetric_inverse(g, dt):
    # the separable solver of block i inverts M_i/dt + S_i as assembled
    ops = ProjectionScheme(g).ops
    rng = np.random.default_rng(7)
    for i in range(g.dim):
        z = rng.standard_normal(ops.block_sizes[i])
        A0 = (sp.diags(ops.mass_blocks[i] / dt) + ops.laplace_blocks[i]).tocsr()
        x = _momentum_solver(g, i).solve(z, 1.0 / dt)
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
    # a wrong 1D matrix in the preconditioner still converges, only slower
    prob = mms_problem(name)
    scheme = ProjectionScheme(MacGrid(axes))
    state = scheme.initialize(prob.initial)
    dt = 1.0 / 32
    for _ in range(2):
        f_field = scheme._forcing_field(prob.forcing, state.t + 0.5 * dt)
        _, stats = scheme.prediction(state, f_field, dt)
        iterations = [out.iterations for out in stats.per_direction]
        assert max(iterations) <= 8, iterations
        state, _ = scheme.step(state, prob.forcing, dt)
