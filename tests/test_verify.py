#
# Verification harness: property suite, translate table, refinement studies.
#

import math

import numpy as np
import pytest

from macstag.fields import PressureField, Trajectory, VelocityField, face_average, l2_norm, w1q_norm
from macstag.grid import uniform_grid
from macstag.mms import mms_problem
from macstag.scheme import ProjectionScheme
from macstag.verify import (
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


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (2, 1), (1, 1, 6), (1, 4, 4)])
def test_property_suite_thin_grids(shape):
    # only (1, 4, 4) has divergence-free fields to advect with; elsewhere the
    # skew check would divide roundoff by roundoff, so it must be skipped
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    report = property_suite(g, seed=5, pairs=5)
    assert report.passed, report.summary()
    skew = next(c for c in report.checks if c.name == "convection skew-symmetry")
    assert bool(skew.skipped) == (shape != (1, 4, 4))
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
    traj = Trajectory(g, dt, 2 * dt)
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

    def test_study_sums_match_stored_run(self, rng):
        # the sums the studies take level by level equal, bit for bit, the
        # same integrals over the stored trajectory of run()
        prob = mms_problem("vortex2d")
        g = random_nonuniform_grid(rng, 2, max_cells=6)
        lv = convergence_study(prob, [(g, 4)], 0.1).levels[0]
        traj = ProjectionScheme(g).run(prob.initial, prob.forcing, 0.1, 4)
        dt = traj.dt
        exact = [face_average(g, prob.velocity_at(n * dt)).zero_exterior() for n in range(5)]
        u, ut = traj.velocities, traj.predicted
        coupling = math.sqrt(sum(dt * l2_norm(ut[n] - u[n]) ** 2 for n in range(4)))
        assert lv.dt == dt
        assert lv.err_l2l2 == math.sqrt(sum(dt * l2_norm(u[n] - exact[n]) ** 2 for n in range(4)))
        assert lv.err_final == l2_norm(u[4] - exact[4])
        assert lv.err_h1 == math.sqrt(sum(dt * w1q_norm(ut[n] - exact[n + 1], 2.0) ** 2 for n in range(4)))
        assert lv.coupling == coupling
        assert lv.min_energy_margin == min(
            d.energy_residual / max(d.energy_scale, 1e-300) for d in traj.diagnostics
        )
        assert coupling_study(prob, g, [4], 0.1) == [(4, coupling)]
