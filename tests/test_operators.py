#
# Discrete operators: gradient, divergence, diffusion, convection.
#
# The duality, symmetry and skew-symmetry checks here are the desk-scale
# versions of the structural identities the whole discretization rests on.
#

import math
import operator
import re
from functools import partial, reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macstag.fields import VelocityField, _bcast, face_average, l2_norm, velocity_inner, w1q_norm
from macstag.grid import MacGrid, graded_axis, uniform_axis, uniform_grid
from macstag.linalg import tridiagonal
from macstag.mms import mms_problem
from macstag.operators import Operators
from macstag.projection import Projector
from macstag.scheme import ProjectionScheme
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


@pytest.mark.parametrize("build", [Operators, ProjectionScheme])
@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1)])
def test_grid_without_interior_face_is_rejected(build, shape):
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    name = "x".join(str(n) for n in shape)
    with pytest.raises(ValueError, match=f"grid {name} has no interior face: need at least 2 cells along one axis"):
        build(g)


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
        lhs = sp.diags(ops.mass_velocity) @ ops.G.tocsr()
        rhs = -(sp.diags(ops.cell_vol) @ ops.D.tocsr()).T
        diff = (lhs - rhs).tocoo()
        scale = max(abs(lhs).max(), abs(rhs).max())
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-13 * scale


class TestDiffusion:
    def test_symmetry(self, rng):
        g = random_nonuniform_grid(rng, 3, max_cells=4)
        ops = Operators(g)
        for S in ops.laplace_blocks:
            d = (S - S.T).tocoo()
            assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-13 * abs(S.tocsr()).max()

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
    blocks = [ops.convection_block(ops.pack(a), i) for i in range(3)]
    total = float(
        ops.pack(v) @ np.concatenate([blocks[i] @ ops.block(ops.pack(w), i) for i in range(3)])
    )
    assert ops.convection_form(a, w, v) == pytest.approx(total, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# the convection map against a per-call COO assembly


def _face_indices(grid, i):
    """Flat index of every direction-i face, shape face_shape(i)."""
    shape = grid.face_shape(i)
    return np.arange(int(np.prod(shape))).reshape(shape)


def _interior_positions(grid, i):
    """Position of every direction-i face in block i of the reduced vector, -1 on boundary faces."""
    mask = grid.interior_mask(i).ravel()
    pos = np.full(mask.size, -1)
    pos[mask] = np.arange(np.count_nonzero(mask))
    return pos


def _cross_widths(grid, i):
    """Product of the cell widths across axis i, over the cells."""
    out = np.ones(1)
    for a in range(grid.dim):
        if a != i:
            out = out * _bcast(grid.h[a], a, grid.dim)
    return np.broadcast_to(out, grid.shape)


def _skew_pair_entries(ops, i, idx_minus, idx_plus, flux, rows, cols, vals):
    """Outward-flux stencil of one dual-face batch: +F/2 on the minus row,
    -F/2 on the plus row, both columns, entries on boundary DOFs dropped."""
    pos = _interior_positions(ops.grid, i)
    m = pos[idx_minus.ravel()]
    p = pos[idx_plus.ravel()]
    half = 0.5 * flux.ravel()
    for r, c, v in [(m, m, half), (m, p, half), (p, m, -half), (p, p, -half)]:
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])


def assembled_convection_blocks(ops, a):
    """Oracle: C_i(a) built from COO batches on every call, as the package once did."""
    g = ops.grid
    d = g.dim
    blocks = []
    for i in range(d):
        n = g.shape[i]
        rows, cols, vals = [], [], []

        ai = a.components[i]
        idx_m = _face_indices(g, i).take(range(0, n), axis=i)
        idx_p = _face_indices(g, i).take(range(1, n + 1), axis=i)
        cross = _cross_widths(g, i)
        flux = 0.5 * cross * (ai.take(range(0, n), axis=i) + ai.take(range(1, n + 1), axis=i))
        _skew_pair_entries(ops, i, idx_m, idx_p, flux, rows, cols, vals)

        hi_minus = np.concatenate([[0.0], g.h[i]])
        hi_plus = np.concatenate([g.h[i], [0.0]])
        for j in range(d):
            nj = g.shape[j]
            if j == i or nj < 2:
                continue
            aj = a.components[j]
            zero = np.zeros(tuple(1 if ax == i else s for ax, s in enumerate(aj.shape)))
            aj_lo = np.concatenate([zero, aj], axis=i).take(range(1, nj), axis=j)
            aj_hi = np.concatenate([aj, zero], axis=i).take(range(1, nj), axis=j)
            cross = np.ones(1)
            for ax in range(d):
                if ax != i and ax != j:
                    cross = cross * _bcast(g.h[ax], ax, d)
            flux = 0.5 * cross * (_bcast(hi_minus, i, d) * aj_lo + _bcast(hi_plus, i, d) * aj_hi)
            idx_m = _face_indices(g, i).take(range(0, nj - 1), axis=j)
            idx_p = _face_indices(g, i).take(range(1, nj), axis=j)
            _skew_pair_entries(ops, i, idx_m, idx_p, np.broadcast_to(flux, idx_m.shape), rows, cols, vals)

        size = ops.block_sizes[i]
        if rows:
            mat = sp.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
            )
            blocks.append(mat.tocsr())
        else:
            blocks.append(sp.csr_matrix((size, size)))
    return blocks


def assert_same_block(actual, expected):
    """Entrywise to 1e-15 of the block's maximum, and the same nonzero structure."""
    assert actual.shape == expected.shape
    a, e = actual.toarray(), expected.toarray()
    scale = np.abs(e).max() if e.size else 0.0
    assert np.abs(a - e).max(initial=0.0) <= 1e-15 * scale
    np.testing.assert_array_equal(a != 0.0, e != 0.0)


def _coords_axis(widths):
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    return edges / edges[-1]


@st.composite
def mac_grids(draw):
    # coords or graded grids with 1-cell axes; one axis has two cells at
    # least, or there is no interior face at all
    dim = draw(st.sampled_from([2, 3]))
    cells = st.integers(1, 6 if dim == 2 else 4)
    shape = [draw(cells) for _ in range(dim)]
    shape[draw(st.integers(0, dim - 1))] = draw(st.integers(2, 6 if dim == 2 else 4))
    if draw(st.booleans()):
        ratio = draw(st.floats(1.0, 1.5))
        return MacGrid([graded_axis(0.0, 1.0, n, ratio) for n in shape])
    width = st.floats(0.05, 1.0)
    return MacGrid([_coords_axis(draw(st.lists(width, min_size=n, max_size=n))) for n in shape])


@settings(max_examples=60)
@given(grid=mac_grids(), seed=st.integers(0, 2**32 - 1))
def test_convection_scatter_matches_assembly(grid, seed):
    # the fill reads the packed interior faces of a; the oracle reads the
    # field, whose boundary faces are zero
    ops = ProjectionScheme(grid).ops
    a = random_velocity(grid, np.random.default_rng(seed))
    conv = [ops.convection_block(ops.pack(a), i) for i in range(grid.dim)]
    for C, expected in zip(conv, assembled_convection_blocks(ops, a), strict=True):
        assert_same_block(C, expected)
        # dia_matvec adds the diagonals in ascending offset order, CSR's
        # sorted-column order, so the product keeps its bits
        assert C.format == "dia"
        x = np.random.default_rng(seed).standard_normal(C.shape[1])
        assert (C @ x).tobytes() == (C.tocsr() @ x).tobytes()


def sentinel_incidence(grid, i):
    """Oracle: offsets and +-1/2 incidence of block i as the package once
    assembled them, entry by entry, from a -1-sentinel index array.

    Entry (r, c) of C_i sits at row k * size + c, k the index of c - r among
    the ascending offsets; its column is the dual-face flux, axis by axis.
    """
    size = int(grid.interior_mask(i).sum())
    shape = [n - (a == i) for a, n in enumerate(grid.shape)]  # interior faces of direction i
    strides = {j: math.prod(shape[j + 1 :]) for j in range(grid.dim) if shape[j] > 1}
    offsets = np.array(sorted({0, *strides.values(), *(-s for s in strides.values())}))
    slot = {offset: k * size for k, offset in enumerate(offsets)}
    idx = np.full(grid.face_shape(i), -1)  # position in block i, -1 on boundary faces
    idx[grid.interior_mask(i)] = np.arange(size)
    rows, cols, vals = [], [], []
    n_flux = 0
    for j in [i] + [j for j in range(grid.dim) if j != i and grid.shape[j] > 1]:
        n = idx.shape[j]
        m, p = (idx.take(range(lo, lo + n - 1), axis=j).ravel() for lo in (0, 1))
        flux = n_flux + np.arange(m.size)
        stencil = [(m, m, 0, 0.5), (p, p, 0, -0.5)]
        if j in strides:
            stencil += [(m, p, strides[j], 0.5), (p, m, -strides[j], -0.5)]
        for r, c, offset, v in stencil:
            keep = (r >= 0) & (c >= 0)
            rows.append(slot[offset] + c[keep])
            cols.append(flux[keep])
            vals.append(np.full(cols[-1].size, v))
        n_flux += m.size
    incidence = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(offsets.size * size, n_flux)
    )
    return offsets, incidence


def _sp_kron(factors):
    return reduce(partial(sp.kron, format="coo"), factors)


def _sp_difference(n):
    one = np.ones(n - 1)
    return sp.diags([-one, one], [0, 1], shape=(n - 1, n))


def sp_kron_assembly(ops):
    """Oracle: G, D, the stiffness blocks and the flux maps as the package once
    built them, one sp.kron, sp.diags or sp.identity per 1D factor."""
    g = ops.grid
    d = g.dim

    def on_axis(i, mat):
        return _sp_kron([mat if a == i else sp.identity(n) for a, n in enumerate(g.shape)])

    delta = [_sp_difference(n) for n in g.shape]
    G = sp.vstack([on_axis(i, sp.diags(1.0 / g.dual_w[i][1:-1]) @ delta[i]) for i in range(d)], format="csr")
    D = sp.hstack([on_axis(i, -sp.diags(1.0 / g.h[i]) @ delta[i].T) for i in range(d)], format="csr")
    laplace = []
    for conductances, mass in ops.laplace_chains:
        terms = [_sp_kron([tridiagonal(c) if b == a else sp.diags(B) for b, B in enumerate(mass)])
                 for a, c in enumerate(conductances)]
        laplace.append(reduce(operator.add, terms).tocsr())
    base = np.cumsum([0] + [int(np.prod(g.face_shape(j))) for j in range(d)])
    flux_maps = []
    for i in range(d):
        widths = [np.diag(h) for h in g.h]
        mean = 0.5 * abs(_sp_difference(g.shape[i] + 1)).toarray()
        fluxes = []
        for j in [i] + [j for j in range(d) if j != i and g.shape[j] > 1]:
            factors = list(widths)
            if j == i:
                factors[i] = mean
            else:
                factors[i] = mean.T * g.h[i]
                factors[j] = np.eye(g.shape[j] - 1, g.shape[j] + 1, k=1)
            phi_j = _sp_kron(factors)
            shape = (phi_j.shape[0], base[-1])
            fluxes.append(sp.coo_matrix((phi_j.data, (phi_j.row, phi_j.col + base[j])), shape))
        flux_maps.append(sp.vstack(fluxes, format="csr"))
    return G, D, laplace, flux_maps


def assert_same_arrays(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(actual, name).dtype == getattr(expected, name).dtype, name
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name), err_msg=name)


@settings(max_examples=60)
@given(grid=mac_grids())
@example(grid=MacGrid([[0.0, 1.0], [0.0, 0.25, 0.5, 1.0]]))
@example(grid=MacGrid([uniform_axis(0.0, 1.0, 2), [0.0, 1.0], uniform_axis(0.0, 1.0, 2)]))
@example(grid=MacGrid([graded_axis(0.0, 1.0, n, ratio) for n, ratio in ((5, 1.3), (4, 0.8), (6, 1.1))]))
def test_assembly_matches_sp_kron_bitwise(grid):
    # the triplet assembly gives the arrays of the scipy products it
    # replaced, bit for bit, on graded and coords grids with 1-cell axes; the
    # stiffness blocks are stored on their diagonals, so their CSR form is
    # compared
    ops = Operators(grid)
    G, D, laplace, _ = sp_kron_assembly(ops)
    assert_same_arrays(ops.G.tocsr(), G)
    assert_same_arrays(ops.D.tocsr(), D)
    for actual, expected in zip(ops.laplace_blocks, laplace, strict=True):
        assert_same_arrays(actual.tocsr(), expected)


@settings(max_examples=60)
@given(grid=mac_grids(), seed=st.integers(0, 2**32 - 1))
@example(grid=MacGrid([[0.0, 1.0], [0.0, 0.25, 0.5, 1.0]]), seed=0)
@example(grid=MacGrid([uniform_axis(0.0, 1.0, 2), [0.0, 1.0], uniform_axis(0.0, 1.0, 2)]), seed=1)
@example(grid=MacGrid([graded_axis(0.0, 1.0, n, ratio) for n, ratio in ((5, 1.3), (4, 0.8), (6, 1.1))]), seed=2)
def test_convection_fill_matches_flux_map_oracle_bitwise(grid, seed):
    # the slab fill writes the DIA data that the flux map and the +-1/2
    # incidence once gave, bit for bit: both sum each entry in the column
    # order of its CSR row. The grids have 1-cell axes, an empty block
    # (the first example) and 2-cell axes; a holds zeros of both signs,
    # which the fill must turn into the +0.0 a CSR sum gives
    ops = Operators(grid)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(ops.n_velocity)
    a[rng.random(a.size) < 0.2] = 0.0
    a[rng.random(a.size) < 0.2] = -0.0
    cols = np.flatnonzero(np.concatenate([grid.interior_mask(j).ravel() for j in range(grid.dim)]))
    flux_maps = sp_kron_assembly(ops)[3]
    for i, C in enumerate(ops.convection_block(a, j) for j in range(grid.dim)):
        offsets, incidence = sentinel_incidence(grid, i)
        expected = incidence @ (flux_maps[i][:, cols] @ a)
        np.testing.assert_array_equal(C.offsets, offsets)
        assert C.data.shape == (offsets.size, ops.block_sizes[i])
        assert C.data.tobytes() == expected.tobytes()


@settings(max_examples=60)
@given(grid=mac_grids(), seed=st.integers(0, 2**32 - 1))
@example(grid=MacGrid([[0.0, 1.0], [0.0, 0.25, 0.5, 1.0]]), seed=0)
@example(grid=MacGrid([uniform_axis(0.0, 1.0, 2), [0.0, 1.0], uniform_axis(0.0, 1.0, 2)]), seed=1)
@example(grid=MacGrid([graded_axis(0.0, 1.0, n, ratio) for n, ratio in ((5, 1.3), (4, 0.8), (6, 1.1))]), seed=2)
def test_slab_products_match_csr_bitwise(grid, seed):
    # G and D hold no matrix: their slab products sum each row in the column
    # order of its CSR row, from 0.0, so they give the bytes of the products
    # of the matrices tocsr() builds. A cell row of D adds its faces
    # direction by direction, the left face first; a face row of G holds two
    # terms, and where both are -0.0 the CSR sum stores +0.0, so p and v
    # hold zeros of both signs
    ops = Operators(grid)
    rng = np.random.default_rng(seed)
    p, v = rng.standard_normal(ops.n_cells), rng.standard_normal(ops.n_velocity)
    for x in (p, v):
        x[rng.random(x.size) < 0.2] = 0.0
        x[rng.random(x.size) < 0.2] = -0.0
    G, D = ops.G.tocsr(), ops.D.tocsr()
    assert G.shape == ops.G.shape == (ops.n_velocity, ops.n_cells)
    assert D.shape == ops.D.shape == (ops.n_cells, ops.n_velocity)
    assert (ops.G @ p).tobytes() == (G @ p).tobytes()
    assert (ops.D @ v).tobytes() == (D @ v).tobytes()


def reachable_bytes(obj):
    """Bytes of every ndarray, and of every sparse matrix's data, indices,
    indptr and offsets, reachable from obj's attributes through lists,
    tuples, dicts and the package's own objects; each array counted once."""
    seen, total, stack = set(), 0, [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            total += x.nbytes
        elif sp.issparse(x):
            stack += [getattr(x, name) for name in ("data", "indices", "indptr", "offsets") if hasattr(x, name)]
        elif isinstance(x, (list, tuple)):
            stack += x
        elif isinstance(x, dict):
            stack += x.values()
        elif type(x).__module__.startswith("macstag."):
            stack += vars(x).values()
    return total


@pytest.mark.parametrize("n, dim", [(64, 2), (12, 3)])
def test_operators_memory_is_pinned(n, dim):
    # the stiffness diagonals, the masses, the convection weights and the
    # 1D weights of G and D measure 8.26 (64^2) and 10.26 (12^3) doubles per
    # velocity unknown; G and D as CSR matrices read 15.98 and 18.09, and the
    # convection flux maps and incidences that once filled C_i took 40-49
    ops = Operators(MacGrid([graded_axis(0.0, 1.0, n, 1.05)] * dim))
    doubles = reachable_bytes(ops) / (8 * ops.n_velocity)
    assert doubles <= 11.0, doubles


@pytest.mark.parametrize("n, dim", [(64, 2), (12, 3)])
def test_scheme_memory_is_pinned(n, dim):
    # a stepped scheme holds its operators and its separable solvers: the
    # per-axis modes and eigenvalues and one reciprocal spectrum each. Measured
    # 12.83 (64^2) and 12.00 (12^3) doubles per velocity unknown; CSR G and D
    # and the grid's dual volumes read 20.55 and 19.84, and with a CSR copy
    # of G^T in the projector and a full-grid eigenvalue array next to each
    # reciprocal 25.26 and 24.35
    prob = mms_problem(f"vortex{dim}d")
    scheme = ProjectionScheme(MacGrid([graded_axis(0.0, 1.0, n, 1.05)] * dim))
    state = scheme.initialize(prob.initial)
    for _ in range(2):
        state, _ = scheme.step(state, prob.forcing, 1.0 / 32)
    doubles = reachable_bytes(scheme) / (8 * scheme.ops.n_velocity)
    assert doubles <= 13.0, doubles


@pytest.mark.parametrize("axes", [[graded_axis(0.0, 1.0, 12, 1.05)] * 2,
                                  [graded_axis(0.0, 1.0, 5, 1.1), [0.0, 1.0], uniform_axis(0.0, 1.0, 4)]],
                         ids=["graded-2d", "one-cell-axis-3d"])
def test_operators_build_no_dense_chain(monkeypatch, axes):
    # every chain stays (conductances, masses): S_i and M_i are read off
    # them, so building the operators forms no dense n x n chain matrix
    import macstag.linalg
    import macstag.operators

    calls = []

    def spy(c):
        calls.append(c.size)
        return tridiagonal(c)

    monkeypatch.setattr(macstag.linalg, "tridiagonal", spy)
    monkeypatch.setattr(macstag.operators, "tridiagonal", spy, raising=False)
    Operators(MacGrid(axes))
    assert calls == []


@settings(max_examples=60)
@given(grid=mac_grids(), seed=st.integers(0, 2**32 - 1))
@example(grid=MacGrid([uniform_axis(0.0, 1.0, 1), uniform_axis(0.0, 1.0, 3)]), seed=0)
@example(grid=MacGrid([uniform_axis(0.0, 1.0, 2), [0.0, 1.0], [0.0, 0.3, 1.0]]), seed=1)
def test_pack_and_unpack_match_interior_mask(grid, seed):
    # the slab [1:-1] along axis i holds the faces interior_mask(i) selects,
    # in the same order; an axis with one cell gives an empty block
    ops = Operators(grid)
    rng = np.random.default_rng(seed)
    masks = [grid.interior_mask(i) for i in range(grid.dim)]
    u = VelocityField(grid, [rng.standard_normal(grid.face_shape(i)) for i in range(grid.dim)])
    vec = ops.pack(u)
    assert vec.tobytes() == np.concatenate([c[mask] for c, mask in zip(u.components, masks)]).tobytes()
    # another grid object with the same face coordinates is the same grid
    assert ops.pack(VelocityField(MacGrid(grid.axes), u.components)).tobytes() == vec.tobytes()
    for i, (c, mask) in enumerate(zip(ops.unpack(vec).components, masks)):
        expected = np.zeros(grid.face_shape(i))
        expected[mask] = ops.block(vec, i)
        assert c.tobytes() == expected.tobytes()
        assert ops.block_sizes[i] == np.count_nonzero(mask)
        assert ops.mass_blocks[i].tobytes() == grid.dual_volumes(i)[mask].tobytes()
        assert ops.mass_blocks[i].base is ops.mass_velocity  # a view, empty blocks too


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
    # the stiffness blocks are written from their diagonals: the lines are
    # the entries of the sp.kron oracle in row-major order, and nothing else,
    # here and on a graded 3D grid with a 1-cell axis
    one_cell = MacGrid([graded_axis(0.0, 1.0, 4, 1.2), uniform_axis(0.0, 1.0, 1), graded_axis(0.0, 2.0, 3, 0.8)])
    for grid_ops, out in ((ops, tmp_path), (Operators(one_cell), tmp_path / "one-cell")):
        grid_ops.export_matrices(out)
        for i, expected in enumerate(sp_kron_assembly(grid_ops)[2]):
            lines = (out / f"diffusion_{i}.txt").read_text().splitlines()
            assert lines[0] == f"# {expected.shape[0]} {expected.shape[1]} {expected.nnz}"
            rows = np.repeat(np.arange(expected.shape[0]), np.diff(expected.indptr))
            entries = zip(rows.tolist(), expected.indices.tolist(), expected.data.tolist())
            assert lines[1:] == ["%d %d %.17g" % entry for entry in entries]


def _foreign_field_calls():
    def form(slot):
        def call(ops, own, foreign):
            fields = [own, own, own]
            fields[slot] = foreign
            return ops.convection_form(*fields)

        return call

    return {
        "pack": lambda ops, own, foreign: ops.pack(foreign),
        "div": lambda ops, own, foreign: ops.div(foreign),
        "neg_laplacian": lambda ops, own, foreign: ops.neg_laplacian(foreign),
        "convection_form-a": form(0),
        "convection_form-w": form(1),
        "convection_form-v": form(2),
        "project": lambda ops, own, foreign: Projector(ops).project(foreign),
        "divfree_seminorm": lambda ops, own, foreign: Projector(ops).divfree_seminorm(foreign),
    }


FOREIGN_FIELD_CALLS = _foreign_field_calls()


FOREIGN_GRIDS = {
    "8x8": uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)),
    "4x4x4": uniform_grid((0.0,) * 3, (1.0,) * 3, (4, 4, 4)),
    "4x5": uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 5)),
    "graded-4x4": MacGrid([uniform_axis(0.0, 1.0, 4), graded_axis(0.0, 1.0, 4, 1.2)]),
}


@pytest.mark.parametrize("other", FOREIGN_GRIDS.values(), ids=FOREIGN_GRIDS.keys())
@pytest.mark.parametrize("call", FOREIGN_FIELD_CALLS.values(), ids=FOREIGN_FIELD_CALLS.keys())
def test_field_from_another_grid_is_rejected(call, other):
    # packing would take the first entries of each component, or the first
    # two components of a 3D field, or a same-shape field's values on other
    # cells, and return results on the wrong data
    ops = Operators(uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4)))
    own = VelocityField(ops.grid)
    foreign = VelocityField(other)
    shapes = [other.face_shape(i) for i in range(other.dim)]
    message = f"velocity field has face shapes {shapes}, the grid (4, 4) has [(5, 4), (4, 5)]"
    if other.shape == ops.grid.shape:
        message = "velocity field is on another grid: face coordinates differ along axis 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(ops, own, foreign)
