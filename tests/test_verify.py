#
# Verification harness: property suite, translate table, refinement studies.
#

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macstag.fields import PressureField, Trajectory, VelocityField, l2_norm, velocity_inner, w1q_norm
from macstag.grid import MacGrid, graded_axis, midpoint_refined, uniform_axis, uniform_grid
from macstag.mms import mms_problem
from macstag.operators import Operators
from macstag.projection import Projector
from macstag.scheme import ProjectionScheme
from macstag.verify import (
    TranslateAccumulator,
    StudyLevel,
    StudyReport,
    convergence_study,
    coupling_study,
    property_suite,
    summed_step_increments,
    translate_diagnostic,
)

from conftest import random_nonuniform_grid


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

    def test_rejects_non_multiples(self, short_run):
        dt = short_run.dt
        with pytest.raises(ValueError):
            translate_diagnostic(short_run, [0.5 * dt])
        with pytest.raises(ValueError):
            translate_diagnostic(short_run, [-dt])
        with pytest.raises(ValueError):
            translate_diagnostic(short_run, [100 * dt])


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


@pytest.mark.parametrize(
    "grid",
    [
        MacGrid([graded_axis(0.0, 1.0, 12, 1.1), graded_axis(0.0, 1.0, 10, 0.9)]),
        MacGrid([[0.0, 0.15, 0.4, 0.55, 1.0], [0.0, 0.3, 0.45, 0.8, 1.0], [0.0, 0.2, 0.35, 0.6, 0.7, 1.0]]),
    ],
    ids=["graded2d", "coords3d"],
)
def test_streamed_translates_match_stored_sums_bitwise(grid):
    # the accumulator fed level by level from iterate() gives the very bits of
    # the old trajectory-indexed sums over a stored run() on the same grid
    prob = mms_problem(f"vortex{grid.dim}d")
    steps, t_final = 8, 0.25
    scheme = ProjectionScheme(grid)
    proj = scheme.projector
    multiples = [1, 2, 3, steps - 1]
    acc = TranslateAccumulator(scheme.time_step(t_final, steps), multiples, proj)
    for state, diag in scheme.iterate(prob.initial, prob.forcing, t_final, steps):
        if diag is not None:
            acc.add(scheme.ops.unpack(state.u_tilde_prev))
    traj = scheme.run(prob.initial, prob.forcing, t_final, steps)
    assert len(acc._recent) == max(multiples)  # only the last max(k) predictions are kept
    stored = translate_diagnostic(traj, [k * traj.dt for k in multiples], projector=proj)
    for row, again in zip(acc.rows(), stored):
        k = row.steps
        l2 = reference_translate_integral(traj, k, lambda v: velocity_inner(v, v))
        star = reference_translate_integral(traj, k, lambda v: proj.divfree_seminorm(v) ** 2)
        assert (row.tau, row.l2_sq, row.star_sq) == (k * traj.dt, l2, star)
        assert again == row
    assert acc.l2[1] == summed_step_increments(traj) == reference_translate_integral(
        traj, 1, lambda v: velocity_inner(v, v)
    )


@pytest.mark.parametrize("multiples, bad", [([0], "0"), ([-1, 3], "-1"), ([2.5], "2.5")], ids=["0", "-1", "2.5"])
def test_accumulator_rejects_multiples_that_are_not_whole(multiples, bad):
    # a multiple below 1 or with a fraction is named when the accumulator is
    # made, before any add() indexes the kept predictions with it
    with pytest.raises(ValueError, match=rf"translate multiple must be a whole number >= 1, got {bad}$"):
        TranslateAccumulator(0.1, multiples)


def test_accumulator_takes_whole_float_multiples():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    proj = Projector(Operators(g))
    levels = [VelocityField(g, [np.full(g.face_shape(i), m**2) for i in range(2)]).zero_exterior() for m in range(4)]
    as_float = TranslateAccumulator(0.5, [2.0], proj).add(*levels)
    as_int = TranslateAccumulator(0.5, [2], proj).add(*levels)
    assert as_float.multiples == [2] and as_float.rows() == as_int.rows()


def test_accumulator_rejects_multiples_without_projector():
    # rows() holds a |.|_* column for every multiple, so multiples without a
    # projector are named when the accumulator is made; without multiples
    # it sums the step increments alone
    with pytest.raises(ValueError, match=r"translate multiples \[2\] need a projector"):
        TranslateAccumulator(0.5, [2])
    assert TranslateAccumulator(0.5, []).rows() == []


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
        prob = mms_problem("vortex2d")
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        rows = coupling_study(prob, g, [4, 8], 0.1)
        assert [n for n, _ in rows] == [4, 8]
        assert rows[1][1] < rows[0][1]
        # the coupling column of the per-level convergence study, bit for bit
        assert rows == [(n, convergence_study(prob, [(g, n)], 0.1).levels[0].coupling) for n in (4, 8)]

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
        assert coupling_study(prob, g, [4], 0.1) == [(4, coupling)]


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


def test_coupling_halves_on_nonuniform_grid():
    # criterion 6 on a random non-uniform grid: doubling the step count
    # halves the dt-coupling norm
    g = random_nonuniform_grid(np.random.default_rng(181), 2, max_cells=12)
    rows = coupling_study("vortex2d", g, [16, 32, 64], 0.5)
    couplings = [c for _, c in rows]
    ratios = [c1 / c0 for c0, c1 in zip(couplings, couplings[1:])]
    assert all(0.4 <= r <= 0.6 for r in ratios), ratios
