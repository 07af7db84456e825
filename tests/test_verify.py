#
# Verification harness: property suite, translate table, refinement studies.
#

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macstag import verify as verify_module
from macstag.fields import (
    PressureField,
    Trajectory,
    VelocityField,
    l2_norm,
    pressure_inner,
    velocity_inner,
    w1q_norm,
)
from macstag.grid import MacGrid, graded_axis, midpoint_refined, uniform_axis, uniform_grid
from macstag.mms import mms_problem
from macstag.operators import Operators
from macstag.projection import Projector
from macstag.scheme import ProjectionScheme
from macstag.verify import (
    CheckResult,
    PropertyReport,
    TranslateAccumulator,
    StudyLevel,
    StudyReport,
    convergence_study,
    property_suite,
    random_pressure,
    random_velocity,
    summed_step_increments,
    translate_diagnostic,
)

from conftest import assert_same_bits, random_nonuniform_grid


def test_property_suite_random_grids():
    rng = np.random.default_rng(139)
    for dim in (2, 3):
        g = random_nonuniform_grid(rng, dim, max_cells=5)
        report = property_suite(g, seed=int(rng.integers(1 << 31)), pairs=10)
        assert report.passed, report.summary()
        # one line per check plus header and verdict
        assert len(report.summary().splitlines()) == len(report.checks) + 2


def test_property_suite_summary_format():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    report = property_suite(g, seed=3, pairs=5)
    text = report.summary()
    assert "pass" in text
    names = [c.name for c in report.checks]
    assert "gradient/divergence duality" in names
    assert "convection skew-symmetry" in names


@pytest.mark.parametrize("pairs", [0, -1, 2.5])
def test_property_suite_rejects_pairs_below_one_or_fractional(pairs):
    # with no draws every check would report worst residual 0 and pass untested
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    with pytest.raises(ValueError, match="pairs"):
        property_suite(g, pairs=pairs)


@pytest.mark.parametrize(
    "shape",
    [
        (1, 8),
        (8, 1),
        (2, 1),
        (1, 1, 6),
        (1, 4, 4),
        # non-uniform grids with a 1-cell axis: S_i has a 1x1 Kronecker
        # factor there, and the block along that axis is empty
        pytest.param(
            MacGrid([uniform_axis(0.0, 1.0, 3), uniform_axis(0.0, 1.0, 1), graded_axis(0.0, 1.0, 5, 1.5)]),
            id="one-cell-axis-3d",
        ),
        pytest.param(MacGrid([[0.0, 0.15, 0.4, 0.55, 1.0], [0.0, 0.3]]), id="coords-one-cell-2d"),
    ],
)
def test_property_suite_thin_grids(shape):
    # only (1, 4, 4) and (3, 1, 5) have divergence-free fields to advect
    # with; elsewhere the skew check would divide roundoff by roundoff, so it
    # must be skipped
    if isinstance(shape, MacGrid):
        g = shape
    else:
        g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    report = property_suite(g, seed=5, pairs=5)
    assert report.passed, report.summary()
    skew = next(c for c in report.checks if c.name == "convection skew-symmetry")
    assert bool(skew.skipped) == (g.shape not in [(1, 4, 4), (3, 1, 5)])
    assert ("skip  convection skew-symmetry" in report.summary()) == bool(skew.skipped)


def reference_suite(grid, *, seed=0, pairs=20):
    """The property suite as four loops of running maxima, kept as the
    reference for the draws, the order and the bits of every finite residual."""
    tol = 1e-12
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


def _reference_grids():
    rng = np.random.default_rng(353)

    def graded(dim):
        return MacGrid([graded_axis(0.0, 1.0, int(rng.integers(2, 7)), float(rng.uniform(0.7, 1.4)))
                        for _ in range(dim)])

    return [
        pytest.param(graded(2), id="graded-2d"),
        pytest.param(graded(3), id="graded-3d"),
        pytest.param(random_nonuniform_grid(rng, 2, max_cells=7), id="coords-2d"),
        pytest.param(random_nonuniform_grid(rng, 3, max_cells=5), id="coords-3d"),
        pytest.param(MacGrid([graded_axis(0.0, 1.0, 4, 1.3), uniform_axis(0.0, 1.0, 1),
                              random_nonuniform_grid(rng, 2, max_cells=5).axes[0]]), id="one-cell-axis-3d"),
        pytest.param(uniform_grid((0.0, 0.0), (1.0, 1.0), (2, 1)), id="skew-skipped-2x1"),
    ]


@pytest.mark.parametrize("seed", [0, 2**40 + 17])
@pytest.mark.parametrize("grid", _reference_grids())
def test_property_suite_matches_running_maxima(grid, seed):
    # one draw group per loop of the reference and one reduction: the same
    # draws in the same order give every check the same worst residual, bit
    # for bit, and the same skip
    got = property_suite(grid, seed=seed).checks
    want = reference_suite(grid, seed=seed).checks
    assert [(c.name, c.worst, c.tolerance, c.skipped) for c in got] == \
        [(c.name, c.worst, c.tolerance, c.skipped) for c in want]


@pytest.mark.parametrize("value, finite_draws", [(math.nan, 0), (math.nan, 1), (0.0, 0)])
def test_property_suite_fails_nan_and_zero_denominators(monkeypatch, value, finite_draws):
    # w1q_norm is the denominator of both diffusion checks. A NaN quotient
    # makes the worst residual NaN wherever it falls among the draws (Python's
    # max would keep a finite value drawn before it), and a zero denominator
    # reads inf, or NaN for 0/0; either fails
    calls = []

    def seminorm(u, q=2.0):
        calls.append(u)
        return w1q_norm(u, q) if len(calls) <= 2 * finite_draws else value

    monkeypatch.setattr(verify_module, "w1q_norm", seminorm)
    report = property_suite(uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4)), seed=3, pairs=5)
    assert len(calls) == 2 * 5
    diffusion = [c for c in report.checks if c.name.startswith("diffusion")]
    assert [c.name for c in diffusion] == ["diffusion symmetry", "diffusion / W12 seminorm identity"]
    for check in diffusion:
        assert not check.passed and check.line().startswith(f"FAIL  {check.name}: worst residual ")
    if math.isnan(value):
        assert all(math.isnan(c.worst) for c in diffusion)
        assert all(" worst residual nan " in c.line() for c in diffusion)
    else:
        assert diffusion[1].worst == math.inf
    assert all(c.passed for c in report.checks if c not in diffusion)
    assert not report.passed and report.summary().endswith("overall: FAIL")


@pytest.fixture(scope="module")
def short_run():
    prob = mms_problem("vortex2d")
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    scheme = ProjectionScheme(g)
    return scheme.run(prob.initial, prob.forcing, 0.2, 8)


class TestTranslate:
    def test_unit_translate_identity(self, short_run):
        # at tau = dt the squared L2(L2) translate norm IS the sum of the
        # per-step increment integrals, term by term
        dt = short_run.dt
        rows = translate_diagnostic(short_run, [dt])
        assert rows[0].steps == 1
        assert rows[0].l2_sq == pytest.approx(summed_step_increments(short_run), rel=1e-13)

    def test_projection_column_bounded(self, short_run):
        dt = short_run.dt
        rows = translate_diagnostic(short_run, [dt, 2 * dt, 4 * dt])
        for r in rows:
            assert r.star_sq <= r.l2_sq * (1 + 1e-13) + 1e-300
        # longer translates move more
        assert rows[0].l2_sq < rows[1].l2_sq < rows[2].l2_sq

    def test_projects_each_prediction_once(self, short_run, monkeypatch):
        # a stored trajectory's seminorm column projects every prediction once,
        # whatever the number of translates
        calls = []
        decompose = Projector.decompose

        def counted(self, w, **kwargs):
            calls.append(kwargs)
            return decompose(self, w, **kwargs)

        monkeypatch.setattr(Projector, "decompose", counted)
        dt = short_run.dt
        translate_diagnostic(short_run, [dt, 2 * dt, 4 * dt])
        assert len(calls) == short_run.steps

    def test_rejects_non_multiples(self, short_run):
        dt = short_run.dt
        with pytest.raises(ValueError):
            translate_diagnostic(short_run, [0.5 * dt])
        with pytest.raises(ValueError):
            translate_diagnostic(short_run, [-dt])
        with pytest.raises(ValueError):
            translate_diagnostic(short_run, [100 * dt])
        # a non-finite tau is named too, where inf once raised OverflowError and nan an unnamed ValueError
        for tau in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^translate {tau} is not a positive multiple of dt={dt}$"):
                translate_diagnostic(short_run, [tau])


def test_summed_step_increments_synthetic():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    dt = 0.5
    traj = Trajectory(g, dt)
    traj.append_initial(VelocityField(g), PressureField(g))
    one = VelocityField(g)
    one.components[0][1, 1] = 1.0
    two = VelocityField(g)
    two.components[0][1, 1] = 3.0
    traj.append_step(dt, one.copy(), one, PressureField(g))
    traj.append_step(2 * dt, two.copy(), two, PressureField(g))
    # the intermediate series has levels 1..2 only, so the single increment
    # is |3 - 1|^2 times the dual volume 1/9 of the active face, times dt
    expect = dt * 4.0 / 9.0
    assert summed_step_increments(traj) == pytest.approx(expect, rel=1e-13)
    # and that is exactly the tau = dt translate integral
    rows = translate_diagnostic(traj, [dt])
    assert rows[0].l2_sq == pytest.approx(expect, rel=1e-13)


def reference_translate_integral(traj, k, norm_sq):
    """sum_n dt norm_sq(utilde^{n+k} - utilde^n) over n < steps - k, summed in order of n
    over the stored predictions: the trajectory-indexed definition, kept as the reference."""
    total = 0.0
    for n in range(traj.steps - k):
        total += traj.dt * norm_sq(traj.predicted[n + k] - traj.predicted[n])
    return total


STREAMED_GRIDS = {
    "graded2d": MacGrid([graded_axis(0.0, 1.0, 12, 1.1), graded_axis(0.0, 1.0, 10, 0.9)]),
    "coords3d": MacGrid([[0.0, 0.15, 0.4, 0.55, 1.0], [0.0, 0.3, 0.45, 0.8, 1.0], [0.0, 0.2, 0.35, 0.6, 0.7, 1.0]]),
}


@pytest.mark.parametrize("grid", STREAMED_GRIDS.values(), ids=STREAMED_GRIDS.keys())
def test_streamed_translates_match_stored_sums_bitwise(grid):
    # the accumulator fed level by level from iterate() gives the very bits of
    # the trajectory-indexed L2 sums over a stored run() on the same grid and of
    # the stored replay; its seminorm column, the L2 sums of the corrected
    # velocities, matches the projected differences to roundoff
    prob = mms_problem(f"vortex{grid.dim}d")
    steps, t_final = 8, 0.25
    scheme = ProjectionScheme(grid)
    proj, unpack = scheme.projector, scheme.ops.unpack
    multiples = [1, 2, 3, steps - 1]
    acc = TranslateAccumulator(scheme.time_step(t_final, steps), multiples, steps)
    for state, diag in scheme.iterate(prob.initial, prob.forcing, t_final, steps):
        if diag is not None:
            acc.add(unpack(state.u_tilde_prev), unpack(state.u))
    traj = scheme.run(prob.initial, prob.forcing, t_final, steps)
    assert len(acc._recent) == max(multiples)  # only the last max(k) levels are kept
    stored = translate_diagnostic(traj, [k * traj.dt for k in multiples], projector=proj)
    for row, again in zip(acc.rows(), stored):
        k = row.steps
        l2 = reference_translate_integral(traj, k, lambda v: velocity_inner(v, v))
        star = reference_translate_integral(traj, k, lambda v: proj.divfree_seminorm(v) ** 2)
        assert (row.tau, row.l2_sq) == (k * traj.dt, l2)
        assert row.star_sq == pytest.approx(star, rel=1e-13, abs=0.0)
        assert again == row
    assert acc.l2[1] == summed_step_increments(traj) == reference_translate_integral(
        traj, 1, lambda v: velocity_inner(v, v)
    )


PROJECTED_GRIDS = {
    **STREAMED_GRIDS,
    "graded3d-one-cell-axis": MacGrid([graded_axis(0.0, 1.0, 8, 1.2), uniform_axis(0.0, 1.0, 1),
                                       graded_axis(0.0, 1.0, 6, 0.9)]),
}


@pytest.mark.parametrize("grid", PROJECTED_GRIDS.values(), ids=PROJECTED_GRIDS.keys())
def test_corrected_velocity_is_the_projected_prediction(grid):
    # the streamed seminorm column reads u^m for the projection of utilde^m:
    # projecting the prediction again gives the very bits of the corrected
    # velocity at every level, packed and as the field project() returns
    prob = mms_problem(f"vortex{grid.dim}d")
    steps = 6
    scheme = ProjectionScheme(grid)
    proj, unpack = scheme.projector, scheme.ops.unpack
    levels = [state for state, diag in scheme.iterate(prob.initial, prob.forcing, 0.25, steps) if diag is not None]
    assert len(levels) == steps
    for state in levels:
        assert_same_bits(proj.decompose(state.u_tilde_prev)[0], state.u)
        for got, want in zip(proj.project(unpack(state.u_tilde_prev)).components, unpack(state.u).components):
            assert_same_bits(got, want)


@pytest.mark.parametrize("multiples, bad", [([0], "0"), ([-1, 3], "-1"), ([2.5], "2.5")], ids=["0", "-1", "2.5"])
def test_accumulator_rejects_multiples_that_are_not_whole(multiples, bad):
    # a multiple below 1 or with a fraction is named when the accumulator is
    # made, before any add() indexes the kept predictions with it
    with pytest.raises(ValueError, match=rf"translate multiple must be a whole number >= 1, got {bad}$"):
        TranslateAccumulator(0.1, multiples, 4)


def test_accumulator_takes_whole_float_multiples():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    proj = Projector(Operators(g))
    levels = [VelocityField(g, [np.full(g.face_shape(i), m**2) for i in range(2)]).zero_exterior() for m in range(4)]
    as_float, as_int = TranslateAccumulator(0.5, [2.0], 4), TranslateAccumulator(0.5, [2], 4)
    for u_tilde in levels:
        as_float.add(u_tilde, proj.project(u_tilde))
        as_int.add(u_tilde, proj.project(u_tilde))
    assert as_float.multiples == [2] and as_float.rows() == as_int.rows()
    # without multiples it sums the step increments alone
    assert TranslateAccumulator(0.5, [], 4).rows() == []


def test_accumulator_rejects_repeated_and_oversized_multiples():
    # a repeated multiple gave its row twice, and a multiple of the whole
    # trajectory or more has no pair of levels to sum
    with pytest.raises(ValueError, match=r"^translate multiples repeat: \[1, 1\]$"):
        TranslateAccumulator(0.1, [1, 1], 4)
    with pytest.raises(ValueError, match=r"^translate multiples \[4, 6\] do not fit a 4-step trajectory$"):
        TranslateAccumulator(0.1, [1, 4, 6], 4)
    assert TranslateAccumulator(0.1, [3, 1], 4).multiples == [3, 1]


def test_study_needs_a_level():
    # an empty ladder has no error to judge; its report read "verdict: pass"
    with pytest.raises(ValueError, match=r"^a convergence study needs at least one level$"):
        convergence_study("vortex2d", [], 0.1)


def test_study_checks_every_level_before_any_runs(monkeypatch):
    def no_scheme(*args, **kwargs):
        raise AssertionError("a level was built before every level was checked")

    monkeypatch.setattr(ProjectionScheme, "__init__", no_scheme)
    unit = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    # the vortex is exact on the unit box only: on [0, 2]^2 its errors grew (ratio 1.20)
    wide = [(uniform_grid((0.0, 0.0), (2.0, 2.0), (n, n)), n // 2) for n in (4, 8)]
    with pytest.raises(ValueError, match=r"exact only on \[0, 1\] x \[0, 1\]; level 0 spans \[0, 2\] x \[0, 2\]$"):
        convergence_study("vortex2d", wide, 0.1)
    with pytest.raises(ValueError, match=r"; level 1 spans \[0, 2\] x \[0, 2\]$"):
        convergence_study("vortex2d", [(unit, 2), wide[1]], 0.1)
    # an empty direction-1 block's error does not compare with a full one's
    flat = MacGrid([uniform_axis(0.0, 1.0, 4), uniform_axis(0.0, 1.0, 1)])
    with pytest.raises(ValueError, match=r"^levels 0 and 1 have 1 cell along different axes, \[1\] and \[\]: "):
        convergence_study("vortex2d", [(flat, 2), (midpoint_refined(flat), 4)], 0.1)
    with pytest.raises(ValueError, match=r"^steps must be a whole number >= 1, got 0$"):
        convergence_study("vortex2d", [(unit, 2), (unit, 0)], 0.1)


@pytest.mark.parametrize("name, grid", [("vortex3d", uniform_grid((0, 0), (1, 1), (8, 8))),
                                        ("rest2d", uniform_grid((0, 0, 0), (1, 1, 1), (4, 4, 4)))],
                         ids=["3d-on-2d", "2d-on-3d"])
def test_problem_of_another_dimension_is_named(name, grid):
    # the face averages of a problem on a grid of another dimension raised IndexError
    problem = mms_problem(name)
    want = rf"^a {problem.dim}D field cannot be face-averaged on a {grid.dim}D grid$"
    with pytest.raises(ValueError, match=want):
        ProjectionScheme(grid).initialize(problem.initial)
    with pytest.raises(ValueError, match=want):
        convergence_study(f"rest{problem.dim}d", [(grid, 2)], 0.1)


class TestStudies:
    def test_report_pass_logic(self):
        def level(err):
            return StudyLevel(
                shape=(4, 4), h_max=0.1, dt=0.1, theta=1.0, err_l2l2=err,
                err_final=err, err_h1=err, coupling=err, min_energy_margin=0.0,
            )

        good = StudyReport("demo", [level(1.0), level(0.5), level(0.25)])
        assert good.passed()
        assert good.ratios == [0.5, 0.5]
        flat = StudyReport("demo", [level(1.0), level(0.9)])
        assert not flat.passed()  # decreasing but slower than the factor
        up = StudyReport("demo", [level(1.0), level(1.2)])
        assert not up.passed()

    def test_ratio_over_a_zero_error(self):
        # 0/0 is nan and a nonzero error over 0 is inf; neither ladder
        # decreases strictly, so neither passes
        def level(err):
            return StudyLevel(
                shape=(4, 4), h_max=0.1, dt=0.1, theta=1.0, err_l2l2=err,
                err_final=err, err_h1=err, coupling=err, min_energy_margin=0.0,
            )

        for errs, want in (([0.0, 0.0], "nan"), ([0.0, 0.5], "inf")):
            report = StudyReport("demo", [level(e) for e in errs])
            assert [str(r) for r in report.ratios] == [want]
            assert not report.passed()
            assert f"ratios: {want}" in report.summary()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_study_sums_match_field_norms(self, rng, dim):
        # the packed sums equal the field definitions l2_norm and w1q_norm
        # over the stored trajectory, to rounding
        prob = mms_problem(f"vortex{dim}d")
        g = random_nonuniform_grid(rng, dim, max_cells=6 if dim == 2 else 4)
        lv = convergence_study(prob, [(g, 3)], 0.1).levels[0]
        traj = ProjectionScheme(g).run(prob.initial, prob.forcing, 0.1, 3)
        dt = traj.dt
        exact = [prob.velocity.face_average(g, n * dt).zero_exterior() for n in range(4)]
        u, ut = traj.velocities, traj.predicted
        fields = {
            "err_l2l2": math.sqrt(sum(dt * l2_norm(u[n] - exact[n]) ** 2 for n in range(3))),
            "err_final": l2_norm(u[3] - exact[3]),
            "err_h1": math.sqrt(sum(dt * w1q_norm(ut[n] - exact[n + 1], 2.0) ** 2 for n in range(3))),
        }
        for name, value in fields.items():
            assert value > 0.0
            assert abs(getattr(lv, name) - value) <= 1e-13 * value, name

    def test_convergence_study_smoke(self):
        prob = mms_problem("vortex2d")
        levels = [
            (uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4)), 2),
            (uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)), 4),
        ]
        report = convergence_study(prob, levels, 0.1)
        assert len(report.levels) == 2
        assert report.levels[0].err_l2l2 > 0.0
        assert report.levels[1].err_l2l2 < report.levels[0].err_l2l2
        assert report.levels[0].min_energy_margin >= -1e-9
        text = report.summary()
        assert "ratios" in text and "verdict" in text

    def test_coupling_study_shrinks(self):
        # the coupling study is the coupling column of a study on one grid
        # with several step counts
        prob = mms_problem("vortex2d")
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        rows = [lv.coupling for lv in convergence_study(prob, [(g, n) for n in (4, 8)], 0.1).levels]
        assert rows[1] < rows[0]
        # each level's coupling is that of a study of the level alone, bit for bit
        assert rows == [convergence_study(prob, [(g, n)], 0.1).levels[0].coupling for n in (4, 8)]

    def test_study_sums_match_stored_run(self, rng):
        # the sums the studies take level by level equal, bit for bit, the
        # same integrals over the stored trajectory of run(), taken on the
        # packed unknowns as the study takes them
        prob = mms_problem("vortex2d")
        g = random_nonuniform_grid(rng, 2, max_cells=6)
        lv = convergence_study(prob, [(g, 4)], 0.1).levels[0]
        scheme = ProjectionScheme(g)
        ops = scheme.ops
        traj = scheme.run(prob.initial, prob.forcing, 0.1, 4)
        dt = traj.dt
        exact = [ops.pack(prob.velocity.face_average(g, n * dt)) for n in range(5)]
        u, ut = [ops.pack(v) for v in traj.velocities], [ops.pack(v) for v in traj.predicted]
        err = [u[n] - exact[n] for n in range(5)]
        coupling = math.sqrt(
            sum(dt * math.sqrt(max(ops.inner(ut[n] - u[n], ut[n] - u[n]), 0.0)) ** 2 for n in range(4))
        )
        assert lv.dt == dt
        assert lv.err_l2l2 == math.sqrt(sum(dt * ops.inner(err[n], err[n]) for n in range(4)))
        assert lv.err_final == math.sqrt(ops.inner(err[4], err[4]))
        assert lv.err_h1 == math.sqrt(sum(dt * ops.seminorm_sq(ut[n] - exact[n + 1]) for n in range(4)))
        assert lv.coupling == coupling
        assert lv.min_energy_margin == min(
            d.energy_residual / max(d.energy_scale, 1e-300) for d in traj.diagnostics
        )


# ---------------------------------------------------------------------------
# the paper's setting: refinement ladders on random non-uniform grids. The
# paper proves convergence there, not an order, so no rate is asserted.


def nonuniform_ladder(seed, dim, levels, steps, max_cells):
    """Midpoint refinements (theta kept) of one random grid, dt halved per level.

    The drawn grid is refined once before the first level: with 2-3 cells on
    an axis the vortex is unresolved and the first refinement can raise the
    error (ratios up to 6.9 on 7 x 2), which says nothing about convergence.
    """
    grid = midpoint_refined(random_nonuniform_grid(np.random.default_rng(seed), dim, max_cells=max_cells))
    ladder = []
    for k in range(levels):
        ladder.append((grid, steps << k))
        grid = midpoint_refined(grid)
    return ladder


@pytest.mark.parametrize("dim, levels, max_cells", [(2, 4, 6), (3, 3, 3)])
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_convergence_on_random_nonuniform_ladders(dim, levels, max_cells, seed):
    ladder = nonuniform_ladder(seed, dim, levels, 4, max_cells)
    report = convergence_study(f"vortex{dim}d", ladder, 0.5)
    # criterion 7's factor, and the W^{1,2} error of the predictions falls too
    assert report.passed(0.8), report.summary()
    h1 = [lv.err_h1 for lv in report.levels]
    assert all(e1 < e0 for e0, e1 in zip(h1, h1[1:])), report.summary()
    margins = [lv.min_energy_margin for lv in report.levels]
    assert min(margins) >= -1e-9, margins


def jittered_ladder(seed, dim, n, levels):
    """Levels drawn independently: n 2^l cells per axis, each interior node of
    the uniform partition moved by up to 0.35 h, and 4 2^l steps.

    No level's faces need lie on the next one's, unlike nonuniform_ladder.
    """
    rng = np.random.default_rng(seed)
    ladder = []
    for level in range(levels):
        cells = n << level
        axes = []
        for _ in range(dim):
            nodes = uniform_axis(0.0, 1.0, cells)
            nodes[1:-1] += rng.uniform(-0.35, 0.35, cells - 1) / cells
            axes.append(nodes)
        ladder.append((MacGrid(axes), 4 << level))
    return ladder


@pytest.mark.parametrize("dim, n, levels", [(2, 8, 4), (3, 6, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_convergence_on_non_nested_nonuniform_ladders(dim, n, levels, seed):
    # criterion 7's rule on 8^2 -> 64^2 and 6^3 -> 24^3, with the energy
    # inequality held on every step of every level; no rate is claimed
    report = convergence_study(f"vortex{dim}d", jittered_ladder(seed, dim, n, levels), 0.5)
    assert report.passed(0.8), report.summary()
    margins = [lv.min_energy_margin for lv in report.levels]
    assert min(margins) >= -1e-9, margins


def test_coupling_halves_on_nonuniform_grid():
    # criterion 6 on a random non-uniform grid: doubling the step count
    # halves the dt-coupling norm
    g = random_nonuniform_grid(np.random.default_rng(181), 2, max_cells=12)
    study = convergence_study("vortex2d", [(g, steps) for steps in (16, 32, 64)], 0.5)
    couplings = [lv.coupling for lv in study.levels]
    ratios = [c1 / c0 for c0, c1 in zip(couplings, couplings[1:])]
    assert all(0.4 <= r <= 0.6 for r in ratios), ratios
