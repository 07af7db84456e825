#
# Discrete Helmholtz decomposition and the divergence-free projection.
#

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from macstag.fields import l2_norm, velocity_inner
from macstag.grid import MacGrid, graded_axis, uniform_axis, uniform_grid
from macstag.operators import Operators
from macstag.projection import Projector, dense_divfree_basis, seminorm_by_basis
from macstag.verify import random_pressure, random_velocity

from conftest import random_nonuniform_grid


def _reference_pressure(projector, solver, rhs):
    """Independent sparse solve of the Poisson system, volume-mean-free.

    solver="cg" runs scipy's conjugate gradients on the compatible singular
    system; solver="direct" grounds cell 0 and factorizes the rest.
    """
    a = projector.poisson
    b = rhs - rhs.mean()
    if solver == "cg":
        x, info = spla.cg(a, b, rtol=1e-13, maxiter=10 * a.shape[0])
        assert info == 0
    else:
        x = np.concatenate([[0.0], spla.spsolve(a[1:, 1:].tocsc(), b[1:])])
    vol = projector.ops.cell_vol
    return x - (vol @ x) / vol.sum()


@pytest.fixture(params=["cg", "direct"])
def projector(request, rng):
    # one projector; each of its pressure solves is checked against the
    # independent reference solve the parameter names
    g = random_nonuniform_grid(rng, 2, max_cells=6)
    proj = Projector(Operators(g))
    exact = proj.poisson_solve

    def checked(rhs):
        out = exact(rhs)
        ref = _reference_pressure(proj, request.param, rhs)
        assert np.linalg.norm(out[0] - ref) <= 1e-9 * max(np.linalg.norm(ref), 1e-300)
        return out

    proj.poisson_solve = checked
    return proj


def test_idempotence(projector, rng):
    g = projector.ops.grid
    w = random_velocity(g, rng)
    pw = projector.project(w)
    ppw = projector.project(pw)
    diff = pw - ppw
    assert l2_norm(diff) <= 1e-11 * max(l2_norm(w), 1e-30)


def test_pythagoras(projector, rng):
    g = projector.ops.grid
    w = random_velocity(g, rng)
    v, psi, _ = projector.decompose(w)
    grad_part = w - v
    lhs = l2_norm(w) ** 2
    rhs = l2_norm(v) ** 2 + l2_norm(grad_part) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-11)
    # the two parts are orthogonal in the mass inner product
    assert abs(velocity_inner(v, grad_part)) <= 1e-11 * lhs


def test_projected_field_is_divergence_free(projector, rng):
    g = projector.ops.grid
    ops = projector.ops
    w = random_velocity(g, rng)
    v = projector.project(w)
    div = ops.div(v).data
    assert np.abs(div).max() <= 1e-9 * l2_norm(w) / g.h_min


def test_gradients_are_annihilated(projector, rng):
    g = projector.ops.grid
    ops = projector.ops
    q = random_pressure(g, rng)
    gq = ops.grad(q)
    v = projector.project(gq)
    assert l2_norm(v) <= 1e-10 * max(l2_norm(gq), 1e-30)
    assert projector.divfree_seminorm(gq) <= 1e-10 * max(l2_norm(gq), 1e-30)


def test_decompose_recovers_potential(projector, rng):
    # w = grad q decomposes into v ~ 0 and psi = q up to a constant
    g = projector.ops.grid
    ops = projector.ops
    q = random_pressure(g, rng).recentered()
    w = ops.grad(q)
    v, psi, info = projector.decompose(w)
    np.testing.assert_allclose(psi.recentered().data, q.data, rtol=1e-8, atol=1e-10)


def test_seminorm_matches_dense_basis_oracle():
    # 5x5 grid, mass-weighted least squares onto an explicitly computed
    # divergence-free basis as the reference value
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (5, 5))
    ops = Operators(g)
    proj = Projector(ops)
    basis = dense_divfree_basis(ops)
    # the nullspace of D on a 5x5 MAC grid has dimension (n-1)^2
    assert basis.shape == (ops.n_velocity, 16)
    rng = np.random.default_rng(103)
    for _ in range(10):
        w = random_velocity(g, rng)
        ours = proj.divfree_seminorm(w)
        ref = seminorm_by_basis(ops, w, basis)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_seminorm_bounded_by_norm(projector, rng):
    g = projector.ops.grid
    for _ in range(5):
        w = random_velocity(g, rng)
        assert projector.divfree_seminorm(w) <= l2_norm(w) * (1 + 1e-12)


_oracle_rng = np.random.default_rng(107)
ORACLE_GRIDS = {
    "coords-2d": random_nonuniform_grid(_oracle_rng, 2, max_cells=7),
    "coords-3d": random_nonuniform_grid(_oracle_rng, 3, max_cells=5),
    "one-cell-axis": MacGrid([uniform_axis(0.0, 1.0, 1), uniform_axis(0.0, 1.0, 8)]),
    "one-cell-axis-3d": MacGrid(
        [uniform_axis(0.0, 1.0, 3), uniform_axis(0.0, 1.0, 1), graded_axis(0.0, 1.0, 5, 1.5)]
    ),
    "aspect-1e-3": MacGrid([uniform_axis(0.0, 1.0, 16), uniform_axis(0.0, 1e-3, 16)]),
    "graded-1.5": MacGrid([graded_axis(0.0, 1.0, 24, 1.5), uniform_axis(0.0, 1.0, 8)]),
}


@pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
def test_poisson_solve_matches_dense_pseudoinverse(grid):
    # right-hand sides of the decomposition, G^T M_v w for random w, against
    # the dense pseudo-inverse solution pinned to zero volume mean
    ops = Operators(grid)
    proj = Projector(ops)
    dense = proj.poisson.toarray()
    pinv = np.linalg.pinv(dense)
    eig = np.linalg.eigvalsh(dense)
    cond = eig[-1] / eig[1]  # eig[0] is the constant mode's zero
    vol = ops.cell_vol
    rng = np.random.default_rng(109)
    for _ in range(3):
        rhs = ops.G.T @ (ops.mass_velocity * rng.standard_normal(ops.n_velocity))
        x, sweeps, res = proj.poisson_solve(rhs)
        assert sweeps >= 1
        b = rhs - rhs.mean()
        # the reported residual is the true one of the returned vector
        honest = np.linalg.norm(b - proj.poisson @ x) / np.linalg.norm(b)
        assert res == pytest.approx(honest, rel=1e-12)
        assert res <= 1e-12
        assert np.linalg.norm(b - dense @ x) <= 1e-12 * np.linalg.norm(b)
        assert abs(vol @ x) <= 1e-13 * np.abs(x).max() * vol.sum()
        ref = pinv @ b
        ref -= (vol @ ref) / vol.sum()
        # forward error of any backward-stable solve scales with cond
        tol = 100.0 * np.finfo(float).eps * cond
        assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)
