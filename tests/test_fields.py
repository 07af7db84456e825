#
# Fields, interpolation, norms, and trajectory containers.
#

import re

import numpy as np
import pytest

from macstag.fields import (
    PressureField,
    Trajectory,
    VelocityField,
    face_average,
    l2_norm,
    pressure_inner,
    velocity_inner,
    w1q_norm,
)
from macstag.grid import MacGrid, midpoint_refined, uniform_grid

from conftest import SelfAveragingField, random_nonuniform_grid


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


def test_zero_exterior():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    u = VelocityField(g)
    u.components[0].fill(2.0)
    assert u.zero_exterior() is u
    assert not u.components[0][~g.interior_mask(0)].any()
    assert np.all(u.components[0][g.interior_mask(0)] == 2.0)


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
        traj = Trajectory(g, dt)
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


def test_field_arithmetic(rng):
    g = random_nonuniform_grid(rng, 2, max_cells=4)
    p = PressureField(g, rng.standard_normal(g.shape))
    q = PressureField(g, rng.standard_normal(g.shape))
    np.testing.assert_allclose((p + q).data, p.data + q.data)
    np.testing.assert_allclose((p - q).data, p.data - q.data)
    np.testing.assert_allclose((p * 3.0).data, 3.0 * p.data)
    r = p.recentered()
    assert r.volume_mean() == pytest.approx(0.0, abs=1e-15)


def _twice_initial(g):
    traj = Trajectory(g, 0.1)
    traj.append_initial(VelocityField(g), PressureField(g))
    traj.append_initial(VelocityField(g), PressureField(g))


FIELD_INPUT_CHECKS = {
    "pressure-shape": (lambda g: PressureField(g, np.zeros((3, 4))), ValueError,
                       "pressure data shape (3, 4) != grid shape (4, 3)"),
    "velocity-shape": (lambda g: VelocityField(g, [np.zeros((5, 3)), np.zeros((5, 3))]), ValueError,
                       "component 1 shape (5, 3) != face shape (4, 4)"),
    "face-average-order-0": (lambda g: face_average(g, shear, order=0), ValueError,
                             "quadrature order must be >= 1, got 0"),
    "l2-norm-of-an-array": (lambda g: l2_norm(np.zeros(g.shape)), TypeError, "expected a field, got ndarray"),
    "second-initial-state": (_twice_initial, ValueError, "initial state already recorded"),
}


@pytest.mark.parametrize("call, error, message", FIELD_INPUT_CHECKS.values(), ids=FIELD_INPUT_CHECKS.keys())
def test_field_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 3)))


def test_a_field_with_face_means_supplies_them():
    # face_average asks any field with a face_average(grid) method for its
    # own means, not only the manufactured ones, and evaluates nothing
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 3))
    field = SelfAveragingField(0)
    means = face_average(g, field)
    assert field.asked == [(g,)]
    for a, b in zip(means.components, field.face_average(g).components, strict=True):
        np.testing.assert_array_equal(a, b)


def test_gauss_rule_is_computed_once_per_order(monkeypatch):
    # leggauss is an eigenvalue solve: each order's rule is computed once,
    # and its arrays are shared, so no caller may write to them
    from macstag import fields

    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    fields._gauss_nodes.cache_clear()
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 3))
    first = face_average(g, shear, order=4)
    assert fields._gauss_nodes(4) is fields._gauss_nodes(4)
    second = face_average(g, shear, order=4)
    assert calls == [4]
    for a, b in zip(first.components, second.components, strict=True):
        np.testing.assert_array_equal(a, b)
    x, w = leggauss(4)
    nodes, weights = fields._gauss_nodes(4)
    np.testing.assert_array_equal(nodes, 0.5 * (x + 1.0))
    np.testing.assert_array_equal(weights, 0.5 * w)
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
