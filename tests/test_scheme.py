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
from macstag.linalg import SeparableSolver, SolverError
from macstag.mms import mms_problem
from macstag import fields as fields_module
from macstag import projection as projection_module
from macstag import scheme as scheme_module
from macstag.operators import Operators
from macstag.projection import REFINEMENT_SWEEPS, Projector
from macstag.scheme import DIAGNOSTIC_COLUMNS, ProjectionScheme, SchemeError
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
    ops = scheme.ops
    f_field = scheme._forcing_field(vortex.forcing, state.t + 0.5 * dt)
    u_tilde, _ = scheme.prediction(state, ops.pack(state.u), ops.pack(f_field), dt)
    u_new, p_new, residual, div_max = scheme.correction(state, u_tilde, dt)
    psi = p_new - state.p  # the increment, recentered with p_new

    proj = Projector(ops)
    v_ref, phi_ref, _ = proj.decompose(u_tilde)
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
    "max_iterations=0": (lambda g, prob: ProjectionScheme(g, max_iterations=0), r"max_iterations .* got 0"),
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
        r"need at least one step, got inf",
    ),
    "step-dt=nan": (_step_with_dt(np.nan), r"dt .* got nan"),
    "max_iterations=2.5": (
        lambda g, prob: ProjectionScheme(g, max_iterations=2.5),
        r"max_iterations .* got 2.5",
    ),
    "quad_order=2.7": (lambda g, prob: ProjectionScheme(g, quad_order=2.7), r"quad_order .* got 2.7"),
    "time_step-steps=2.5": (lambda g, prob: ProjectionScheme.time_step(1.0, 2.5), r"steps .* got 2.5"),
    "steps=2.5": (
        lambda g, prob: ProjectionScheme(g).iterate(prob.initial, _forcing_never_evaluated, 0.1, 2.5),
        r"steps .* got 2.5",
    ),
}


@pytest.mark.parametrize("call, match", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_are_rejected_before_any_step(vortex, call, match):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    with pytest.raises(ValueError, match=match):
        call(g, vortex)


def test_integral_float_counts_are_accepted(vortex):
    # whole numbers given as floats are counts like their ints, down to the
    # GMRES iteration cap a step uses
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    scheme = ProjectionScheme(g, max_iterations=8.0, quad_order=3.0)
    assert type(scheme.max_iterations) is type(scheme.quad_order) is int
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
    }


SEPARABLE_GRIDS = _separable_grids()


@pytest.mark.parametrize("g", SEPARABLE_GRIDS.values(), ids=SEPARABLE_GRIDS.keys())
@pytest.mark.parametrize("dt", [1.0, 1.0 / 32, 1e-4])
def test_prediction_preconditioner_is_exact_symmetric_inverse(g, dt):
    # the separable solver built from the 1D factors of block i inverts
    # M_i/dt + S_i as assembled from the same factors
    ops = ProjectionScheme(g).ops
    rng = np.random.default_rng(7)
    for i in range(g.dim):
        z = rng.standard_normal(ops.block_sizes[i])
        A0 = (sp.diags(ops.mass_blocks[i] / dt) + ops.laplace_blocks[i]).tocsr()
        x = SeparableSolver(*ops.laplace_factors[i]).solve(z, 1.0 / dt)
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
        _, stats = scheme.prediction(state, scheme.ops.pack(state.u), scheme.ops.pack(f_field), dt)
        iterations = [out.iterations for out in stats.per_direction]
        assert max(iterations) <= 8, iterations
        state, _ = scheme.step(state, prob.forcing, dt)


@pytest.mark.parametrize("dim", [2, 3])
def test_one_separable_solve_per_prediction_iteration(monkeypatch, dim):
    # right-preconditioned GMRES applies the FDM once per iteration and not
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


def test_prediction_failure_names_step_and_direction(vortex):
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)))
    state = scheme.initialize(vortex.initial)
    for _ in range(2):
        state, _ = scheme.step(state, vortex.forcing, 1.0 / 32)
    scheme.max_iterations = 1
    with pytest.raises(SolverError) as err:
        scheme.step(state, vortex.forcing, 1.0 / 32)
    assert str(err.value).startswith("step 3, prediction, direction 0: GMRES did not converge (iterations=1, ")
    assert err.value.iterations == 1 and err.value.residual > scheme.prediction_tol


def test_step_packs_each_field_once(monkeypatch, vortex):
    # inside a step every velocity is a packed interior-face vector: u^n,
    # the forcing and utilde^n are packed once each, u^{n+1} and
    # utilde^{n+1} unpacked once each, and no field inner product is taken
    scheme = ProjectionScheme(uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)))
    state = scheme.initialize(vortex.initial)
    for _ in range(2):
        state, _ = scheme.step(state, vortex.forcing, 1.0 / 32)
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
    for _ in range(3):
        counts.update(dict.fromkeys(counts, 0))
        state, _ = scheme.step(state, vortex.forcing, 1.0 / 32)
        assert counts == {"pack": 3, "unpack": 2, "velocity_inner": 0}


@pytest.mark.parametrize("dim", [2, 3])
def test_separable_forcing_matches_generic_path(rng, dim):
    # the per-grid averages of a Separable forcing and the pointwise average
    # of the same forcing as a plain callable drive the same march
    g = random_nonuniform_grid(rng, dim)
    prob = mms_problem(f"vortex{dim}d")
    levels = {}
    for path, forcing in (("separable", prob.forcing), ("generic", lambda t, pts: prob.forcing(t, pts))):
        levels[path] = list(ProjectionScheme(g).iterate(prob.initial, forcing, 0.1, 4))
    for (sa, da), (sb, db) in zip(levels["separable"][1:], levels["generic"][1:]):
        assert l2_norm(sa.u - sb.u) <= 1e-12 * l2_norm(sa.u)
        assert l2_norm(sa.p - sb.p) <= 1e-12 * l2_norm(sa.p)
        for column in ("kinetic_energy", "dissipation", "grad_p_norm", "coupling_norm"):
            a, b = getattr(da, column), getattr(db, column)
            assert abs(a - b) <= 1e-12 * abs(a), column
        # a roundoff-sized column, on the scale of the terms it balances; the
        # step itself guards div_max
        assert abs(da.energy_residual - db.energy_residual) <= 1e-12 * da.energy_scale
        assert (da.n, da.t, da.corr_iters) == (db.n, db.t, db.corr_iters)


def test_separable_forcing_is_evaluated_once_per_grid(rng, monkeypatch):
    # counts the per-grid face averages of the forcing's spatial parts: one
    # per part on the first step, none after
    prob = mms_problem("vortex2d")
    calls = []

    def counted(average):
        def call(grid, order):
            calls.append(grid)
            return average(grid, order)

        return call

    for _, g in prob.forcing.terms:
        monkeypatch.setattr(g, "face_average", counted(g.face_average))
    grid = random_nonuniform_grid(rng, 2)  # a fresh grid: nothing is stored for it yet
    per_step = []
    for state, _ in ProjectionScheme(grid).iterate(prob.initial, prob.forcing, 0.1, 4):
        per_step.append(len(calls))
        calls.clear()
    assert per_step[1] == len(prob.forcing.terms) == 2
    assert per_step[2:] == [0, 0, 0]


def test_prediction_pattern_is_built_once_per_grid(monkeypatch):
    # a step assembles nothing: it only fills values into the pattern built
    # with the operators
    prob = mms_problem("vortex2d")
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, 12, 1.05)] * 2))
    state = scheme.initialize(prob.initial)

    counts = {"coo": 0, "tocsr": 0, "diags": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    for cls in (sp.coo_matrix, sp.coo_array):
        monkeypatch.setattr(cls, "__init__", counted("coo", cls.__init__))
    for cls in (sp.coo_matrix, sp.csr_matrix, sp.csc_matrix, sp.dia_matrix, sp.lil_matrix, sp.dok_matrix,
                sp.bsr_matrix, sp.coo_array, sp.csr_array, sp.csc_array, sp.dia_array):
        monkeypatch.setattr(cls, "tocsr", counted("tocsr", cls.tocsr))
    monkeypatch.setattr(sp, "diags", counted("diags", sp.diags))

    matrices, stats = [], []
    solve = scheme_module.solve_gmres
    prediction = scheme.prediction

    def spy_solve(A, b, **kwargs):
        matrices[-1].append(A)
        return solve(A, b, **kwargs)

    def spy_prediction(*args):
        matrices.append([])
        out = prediction(*args)
        stats.append(out[1])
        return out

    monkeypatch.setattr(scheme_module, "solve_gmres", spy_solve)
    monkeypatch.setattr(scheme, "prediction", spy_prediction)
    state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
    first = [C.data.copy() for C in stats[0].convection]
    for _ in range(2):
        state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
    assert counts == {"coo": 0, "tocsr": 0, "diags": 0}
    for A2, A3, S in zip(matrices[1], matrices[2], scheme.ops.laplace_blocks):
        assert A2.indices is A3.indices is S.indices
        assert A2.indptr is A3.indptr is S.indptr
    # each step's values are its own
    for C, values in zip(stats[0].convection, first):
        np.testing.assert_array_equal(C.data, values)
    assert not np.array_equal(stats[0].convection[0].data, stats[1].convection[0].data)
