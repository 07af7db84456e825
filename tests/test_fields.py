#
# Fields, interpolation, norms, and trajectory containers.
#

import numpy as np
import pytest

from macstag.fields import (
    PressureField,
    Trajectory,
    VelocityField,
    cell_average,
    face_average,
    l2_norm,
    pressure_inner,
    trajectory_norms,
    velocity_inner,
    w1q_norm,
)
from macstag.grid import MacGrid, midpoint_refined, uniform_grid

from conftest import random_nonuniform_grid


def shear(pts):
    out = np.zeros_like(pts)
    out[:, 0] = pts[:, 1]
    return out


class TestFaceAverage:
    def test_shear_flow_frozen(self):
        """Face means of (y, 0) on a uniform 4x4 grid are the row midpoints."""
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        u = face_average(g, shear)
        expected = np.tile(np.array([0.125, 0.375, 0.625, 0.875]), (5, 1))
        np.testing.assert_allclose(u.components[0], expected, atol=1e-15)
        np.testing.assert_allclose(u.components[1], 0.0, atol=1e-15)

    def test_polynomial_exact_on_nonuniform(self):
        # 3-point Gauss per transverse axis integrates degree <= 5 exactly
        g = MacGrid([np.array([0.0, 0.3, 0.55, 1.0]), np.array([0.0, 0.2, 1.0])])

        def v(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack([y**5 - 2 * y**3, x**4 * y**2], axis=1)

        u = face_average(g, v)
        # oracle for one x-face strip: mean of y^5 - 2 y^3 over [0.2, 1.0]
        lo, hi = 0.2, 1.0
        exact = ((hi**6 - lo**6) / 6 - 2 * (hi**4 - lo**4) / 4) / (hi - lo)
        np.testing.assert_allclose(u.components[0][2, 1], exact, rtol=1e-14)

    def test_constant_3d(self):
        g = uniform_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 3, 2))
        u = face_average(g, lambda p: np.ones((len(p), 3)))
        for c in u.components:
            np.testing.assert_allclose(c, 1.0, atol=1e-15)


def test_cell_average_polynomial():
    g = MacGrid([np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.25, 1.0])])
    p = cell_average(g, lambda pts: pts[:, 0] ** 2 * pts[:, 1])
    # cell (1, 0): mean of x^2 over [0.4,1] times mean of y over [0,0.25]
    mean_x2 = (1.0**3 - 0.4**3) / 3 / 0.6
    mean_y = 0.125
    np.testing.assert_allclose(p.data[1, 0], mean_x2 * mean_y, rtol=1e-14)


def test_l2_norm_closed_forms():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    p = PressureField(g, np.ones(g.shape))
    assert l2_norm(p) == pytest.approx(1.0, rel=1e-14)
    u = VelocityField(g)
    for c in u.components:
        c.fill(1.0)
    u.zero_exterior()
    # each direction holds 12 interior faces of dual volume 1/16
    assert l2_norm(u) == pytest.approx(np.sqrt(2 * 12 / 16), rel=1e-14)


def test_inner_products_match_norms(rng):
    g = random_nonuniform_grid(rng, 3, max_cells=4)
    p = PressureField(g, rng.standard_normal(g.shape))
    u = VelocityField(g, [rng.standard_normal(g.face_shape(i)) for i in range(3)])
    u.zero_exterior()
    assert pressure_inner(p, p) == pytest.approx(l2_norm(p) ** 2, rel=1e-13)
    assert velocity_inner(u, u) == pytest.approx(l2_norm(u) ** 2, rel=1e-13)


def test_zero_exterior_and_exterior_max():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    u = VelocityField(g)
    u.components[0].fill(2.0)
    assert u.exterior_max() == pytest.approx(2.0)
    u.zero_exterior()
    assert u.exterior_max() == 0.0
    assert u.components[0][1, 1] == 2.0


class TestSobolevSeminorm:
    def test_plug_flow_hand_count(self):
        """u_x = 1 on interior faces of a uniform 4x4 grid, 0 on the boundary.

        Along x: two unit jumps per row, 4 rows, each dual face carries
        measure h over distance h, so 8. Across y: interior rows agree,
        only the two half-cell boundary slabs contribute, 3 faces a side,
        each h over h/2, so 12. Seminorm squared is 20.
        """
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        u = VelocityField(g)
        u.components[0].fill(1.0)
        u.zero_exterior()
        assert w1q_norm(u, 2.0) ** 2 == pytest.approx(20.0, rel=1e-13)

    def test_interpolant_tracks_analytic_gradient(self):
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32))

        def v(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y), np.zeros_like(x)], axis=1)

        u = face_average(g, v)
        u.zero_exterior()
        analytic = np.sqrt(np.pi**2 / 2.0)
        assert w1q_norm(u, 2.0) == pytest.approx(analytic, rel=0.2)

    def test_w13_stable_under_refinement(self):
        # the q = 3 seminorm of the divergence-free vortex interpolant must
        # stay bounded along a refinement ladder
        def v(pts):
            x, y = pts[:, 0], pts[:, 1]
            s = 16.0 * np.exp(0.0)
            phi_x = s * 2 * (x * (1 - x) * y * (1 - y)) * (1 - 2 * x) * y * (1 - y)
            phi_y = s * 2 * (x * (1 - x) * y * (1 - y)) * x * (1 - x) * (1 - 2 * y)
            return np.stack([phi_y, -phi_x], axis=1)

        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        vals = []
        for _ in range(3):
            u = face_average(g, v)
            u.zero_exterior()
            vals.append(w1q_norm(u, 3.0))
            g = midpoint_refined(g)
        spread = max(vals) - min(vals)
        assert spread < 0.2 * max(vals)

    def test_scaling_in_q(self):
        rng = np.random.default_rng(3)
        g = random_nonuniform_grid(rng, 2, max_cells=5)
        u = VelocityField(g, [rng.standard_normal(g.face_shape(i)) for i in range(2)])
        u.zero_exterior()
        # |2u|_{1,q} = 2 |u|_{1,q}
        two = u * 2.0
        for q in (2.0, 3.0, 4.0):
            assert w1q_norm(two, q) == pytest.approx(2 * w1q_norm(u, q), rel=1e-13)


class TestTrajectory:
    def make(self, g, dt, n_steps):
        traj = Trajectory(g, dt, dt * n_steps)
        u0 = VelocityField(g)
        p0 = PressureField(g)
        traj.append_initial(u0, p0)
        rng = np.random.default_rng(5)
        for n in range(1, n_steps + 1):
            ut = VelocityField(g, [rng.standard_normal(g.face_shape(i)) for i in range(g.dim)])
            ut.zero_exterior()
            uc = ut.copy()
            traj.append_step(n * dt, ut, uc, PressureField(g))
        return traj

    def test_lengths(self):
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
        traj = self.make(g, 0.1, 4)
        assert traj.steps == 4
        assert len(traj.times) == 5
        assert len(traj.velocities) == 5
        # intermediate fields exist for levels 1..N only
        assert len(traj.predicted) == 4

    def test_single_step_norm_identities(self):
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
        dt = 0.25
        traj = self.make(g, dt, 1)
        u1 = traj.velocities[1]
        norms = trajectory_norms(traj, which="corrected")
        # piecewise constant in time: the L2(L2) norm over one interval is
        # sqrt(dt) times the field norm
        assert norms.l2_l2 == pytest.approx(np.sqrt(dt) * l2_norm(u1), rel=1e-13)
        assert norms.linf_l2 == pytest.approx(l2_norm(u1), rel=1e-13)
        assert norms.l2_h1 == pytest.approx(np.sqrt(dt) * w1q_norm(u1, 2.0), rel=1e-13)


def test_field_arithmetic(rng):
    g = random_nonuniform_grid(rng, 2, max_cells=4)
    p = PressureField(g, rng.standard_normal(g.shape))
    q = PressureField(g, rng.standard_normal(g.shape))
    np.testing.assert_allclose((p + q).data, p.data + q.data)
    np.testing.assert_allclose((p - q).data, p.data - q.data)
    np.testing.assert_allclose((p * 3.0).data, 3.0 * p.data)
    r = p.recentered()
    assert r.volume_mean() == pytest.approx(0.0, abs=1e-15)
