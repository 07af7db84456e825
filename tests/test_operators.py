#
# Discrete operators: gradient, divergence, diffusion, convection.
#
# The duality, symmetry and skew-symmetry checks here are the desk-scale
# versions of the structural identities the whole discretization rests on.
#

import numpy as np
import pytest
import scipy.sparse as sp

from macstag.fields import VelocityField, face_average, l2_norm, velocity_inner, w1q_norm
from macstag.grid import MacGrid, uniform_grid
from macstag.operators import Operators
from macstag.projection import Projector
from macstag.verify import random_pressure, random_velocity

from conftest import random_nonuniform_grid


def test_gradient_of_linear_pressure_is_one():
    g = MacGrid([np.array([0.0, 0.2, 0.45, 1.0]), np.array([0.0, 0.5, 0.75, 1.0])])
    ops = Operators(g)
    from macstag.fields import PressureField

    p = PressureField(g, g.cell_center_points()[:, 0].reshape(g.shape))
    gp = ops.grad(p)
    # interior x-faces see the exact slope, the difference of adjacent cell
    # centers over the dual width is 1 by construction
    mask = g.interior_mask(0)
    np.testing.assert_allclose(gp.components[0][mask], 1.0, rtol=1e-13)
    np.testing.assert_allclose(gp.components[1], 0.0, atol=1e-13)


def test_gradient_of_constant_is_zero(rng):
    g = random_nonuniform_grid(rng, 3, max_cells=4)
    ops = Operators(g)
    from macstag.fields import PressureField

    p = PressureField(g, np.full(g.shape, 3.7))
    gp = ops.grad(p)
    assert max(np.abs(c).max() for c in gp.components) < 1e-13


def test_divergence_of_linear_field():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    ops = Operators(g)
    u = face_average(g, lambda pts: np.stack([pts[:, 0], np.zeros(len(pts))], axis=1))
    # the operator algebra lives on the homogeneous Dirichlet DOFs, so the
    # flux through the x = 1 wall is taken as zero: every cell strip sees
    # div x = 1 except the last, which sees (0 - 0.75) / 0.25 = -3
    dv = ops.div(u)
    np.testing.assert_allclose(dv.data[:3, :], 1.0, rtol=1e-13)
    np.testing.assert_allclose(dv.data[3, :], -3.0, rtol=1e-13)


def test_duality_random_grids():
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(5):
            g = random_nonuniform_grid(rng, dim, max_cells=6)
            ops = Operators(g)
            for _ in range(10):
                p = random_pressure(g, rng)
                v = random_velocity(g, rng)
                lhs = velocity_inner(ops.grad(p), v)
                rhs = -np.sum(g.cell_volumes * p.data * ops.div(v).data)
                scale = l2_norm(p) * l2_norm(v)
                worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-12


def test_gradient_divergence_matrix_adjointness(rng):
    # entrywise: diag(dual volumes) G = -(diag(cell volumes) D)^T
    for dim in (2, 3):
        g = random_nonuniform_grid(rng, dim, max_cells=5)
        ops = Operators(g)
        lhs = sp.diags(ops.mass_velocity) @ ops.G
        rhs = -(sp.diags(ops.cell_vol) @ ops.D).T
        diff = (lhs - rhs).tocoo()
        scale = max(abs(lhs).max(), abs(rhs).max())
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-13 * scale


class TestDiffusion:
    def test_symmetry(self, rng):
        g = random_nonuniform_grid(rng, 3, max_cells=4)
        ops = Operators(g)
        for S in ops.laplace_blocks:
            d = (S - S.T).tocoo()
            assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-13 * abs(S).max()

    def test_quadratic_form_is_seminorm(self):
        # two independent code paths: sparse stiffness assembly versus the
        # direct difference-quotient sum
        rng = np.random.default_rng(23)
        for dim in (2, 3):
            for _ in range(4):
                g = random_nonuniform_grid(rng, dim, max_cells=5)
                ops = Operators(g)
                u = random_velocity(g, rng)
                quad = sum(
                    ops.block(ops.pack(u), i) @ (ops.laplace_blocks[i] @ ops.block(ops.pack(u), i))
                    for i in range(dim)
                )
                assert quad == pytest.approx(w1q_norm(u, 2.0) ** 2, rel=1e-12)

    def test_neg_laplacian_hand_values(self):
        """Uniform 4x4 grid, h = 1/4, a few x-velocity point masses.

        Row sums of (measure/distance) x (value - neighbor) over the dual
        faces, divided by the dual volume h^2 = 1/16:
          face (2,2): x: (1-2)+(1-0); y: (1-3)+(1-0)    -> -1   -> -16
          face (1,1): x: (0-0)+(0-3); y: (0-5)+(0-2)    -> -10  -> -160
          face (1,0): x: 2*(5-0); y above: (5-0);
                      half-cell wall below: 2*(5-0)     -> 25   -> 400
        """
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        ops = Operators(g)
        u = VelocityField(g)
        u.components[0][2, 2] = 1.0
        u.components[0][1, 2] = 2.0
        u.components[0][2, 1] = 3.0
        u.components[0][1, 0] = 5.0
        lap = ops.neg_laplacian(u)
        assert lap.components[0][2, 2] == pytest.approx(-16.0, rel=1e-13)
        assert lap.components[0][1, 1] == pytest.approx(-160.0, rel=1e-13)
        assert lap.components[0][1, 0] == pytest.approx(400.0, rel=1e-13)
        np.testing.assert_allclose(lap.components[1], 0.0, atol=1e-13)

    def test_consistency_with_continuum(self):
        # -lap of sin(pi x) sin(pi y) is 2 pi^2 sin sin, the discrete value
        # agrees to O(h^2) away from the boundary
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32))
        ops = Operators(g)

        def v(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y), np.zeros_like(x)], axis=1)

        u = face_average(g, v)
        u.zero_exterior()
        lap = ops.neg_laplacian(u)
        xs = g.axes[0][16]
        yc = g.centers[1][16]
        exact = 2 * np.pi**2 * np.sin(np.pi * xs) * np.sin(np.pi * yc)
        assert lap.components[0][16, 16] == pytest.approx(exact, rel=5e-3)


def upwind_convection_form(grid, ops, a, w, v):
    """First-order upwind transport, assembled locally in the test.

    Same dual fluxes as the production operator but upwind-biased choice of
    the transported value. Deliberately not skew-symmetric; used as a
    negative control so the skew check cannot pass vacuously.
    """
    total = 0.0
    dim = grid.dim
    for i in range(dim):
        wi = w.components[i]
        vi = v.components[i]
        sh = grid.face_shape(i)
        for idx in np.ndindex(*sh):
            if not grid.interior_mask(i)[idx]:
                continue
            # along-axis dual faces between face idx and its axis neighbors
            for step in (-1, 1):
                nb = list(idx)
                nb[i] += step
                nb = tuple(nb)
                k = idx[i] if step < 0 else idx[i] + 1
                cell = list(idx)
                cell[i] = k - 1 if step < 0 else k
                # flux through the shared primal face, outward positive
                area = 1.0
                for m in range(dim):
                    if m != i:
                        area *= grid.h[m][idx[m]]
                flux = step * area * (a.components[i][idx] + a.components[i][nb]) / 2.0
                upw = wi[idx] if flux >= 0 else wi[nb]
                total += vi[idx] * flux * upw
    return total


def test_convection_skew_symmetry():
    rng = np.random.default_rng(31)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(3):
            g = random_nonuniform_grid(rng, dim, max_cells=5)
            ops = Operators(g)
            proj = Projector(ops)
            for _ in range(5):
                a = proj.project(random_velocity(g, rng))
                w = random_velocity(g, rng)
                b = ops.convection_form(a, w, w)
                worst = max(worst, abs(b) / (l2_norm(a) * l2_norm(w) ** 2))
    assert worst <= 1e-12


def test_upwind_negative_control():
    # the same random data must fail the skew identity for an upwind
    # discretization, proving the assertion above has teeth
    rng = np.random.default_rng(37)
    g = random_nonuniform_grid(rng, 2, max_cells=4)
    ops = Operators(g)
    proj = Projector(ops)
    vals = []
    for _ in range(5):
        a = proj.project(random_velocity(g, rng))
        w = random_velocity(g, rng)
        b = upwind_convection_form(g, ops, a, w, w)
        vals.append(abs(b) / (l2_norm(a) * l2_norm(w) ** 2))
    assert max(vals) > 1e-6


def test_convection_trilinearity(rng):
    g = random_nonuniform_grid(rng, 2, max_cells=5)
    ops = Operators(g)
    a = random_velocity(g, rng)
    w1 = random_velocity(g, rng)
    w2 = random_velocity(g, rng)
    v = random_velocity(g, rng)
    b12 = ops.convection_form(a, w1 + w2 * 2.0, v)
    b1 = ops.convection_form(a, w1, v)
    b2 = ops.convection_form(a, w2, v)
    assert b12 == pytest.approx(b1 + 2.0 * b2, rel=1e-12, abs=1e-13)
    # linear in the advecting slot as well
    a2 = random_velocity(g, rng)
    lhs = ops.convection_form(a + a2, w1, v)
    assert lhs == pytest.approx(
        ops.convection_form(a, w1, v) + ops.convection_form(a2, w1, v), rel=1e-12, abs=1e-13
    )


def test_convect_matches_form(rng):
    # the block-matvec route and the scalar form agree
    g = random_nonuniform_grid(rng, 3, max_cells=4)
    ops = Operators(g)
    a = random_velocity(g, rng)
    w = random_velocity(g, rng)
    v = random_velocity(g, rng)
    blocks = ops.convection_blocks(a)
    total = float(
        ops.pack(v) @ np.concatenate([blocks[i] @ ops.block(ops.pack(w), i) for i in range(3)])
    )
    assert ops.convection_form(a, w, v) == pytest.approx(total, rel=1e-12, abs=1e-14)


def test_export_matrices(tmp_path):
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    ops = Operators(g)
    paths = ops.export_matrices(tmp_path)
    names = sorted(p.split("/")[-1] for p in map(str, paths))
    assert names == ["diffusion_0.txt", "diffusion_1.txt", "divergence.txt", "gradient.txt"]
    text = (tmp_path / "gradient.txt").read_text().splitlines()
    header = text[0].split()
    assert header[0] == "#"
    rows, cols, nnz = int(header[1]), int(header[2]), int(header[3])
    assert rows == ops.n_velocity and cols == ops.n_cells
    assert len(text) == nnz + 1
    # reassemble and compare
    data = np.array([[float(t) for t in line.split()] for line in text[1:]])
    M = sp.coo_matrix((data[:, 2], (data[:, 0].astype(int), data[:, 1].astype(int))), shape=(rows, cols))
    d = (M.tocsr() - ops.G.tocsr()).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0
