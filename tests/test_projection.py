#
# Discrete Helmholtz decomposition and the divergence-free projection.
#

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from macstag.fields import PressureField, l2_norm, velocity_inner
from macstag.grid import MacGrid, graded_axis, uniform_axis, uniform_grid
from macstag.linalg import SeparableSolver, dot
from macstag.operators import FaceCell, Operators, _kron_sum
from macstag.projection import REFINEMENT_SWEEPS, Projector, dense_divfree_basis, seminorm_by_basis
from macstag.verify import random_pressure, random_velocity

from conftest import random_nonuniform_grid


def _poisson_matrix(ops):
    """The pressure Poisson matrix G^T M_v G, assembled here as the oracle."""
    G = ops.G.tocsr()
    return (G.T @ sp.diags(ops.mass_velocity) @ G).tocsr()


def _reference_pressure(poisson, ops, solver, w):
    """Independent sparse solve of the Poisson problem of the packed w, volume-mean-free.

    solver="cg" runs scipy's conjugate gradients on the compatible singular
    system; solver="direct" grounds cell 0 and factorizes the rest.
    """
    rhs = ops.G.tocsr().T @ (ops.mass_velocity * w)
    b = rhs - rhs.mean()
    if solver == "cg":
        x, info = spla.cg(poisson, b, rtol=1e-13, maxiter=10 * poisson.shape[0])
        assert info == 0
    else:
        x = np.concatenate([[0.0], spla.spsolve(poisson[1:, 1:].tocsc(), b[1:])])
    vol = ops.cell_vol
    return x - (vol @ x) / vol.sum()


def _mass_norm(ops, vec):
    return np.sqrt(vec @ (ops.mass_velocity * vec))


@pytest.fixture(params=["cg", "direct"])
def projector(request, rng):
    # one projector; the gradient part of each of its decompositions is
    # checked against that of the independent reference solve the parameter
    # names (psi itself is pure rounding when w is already divergence-free)
    g = random_nonuniform_grid(rng, 2, max_cells=6)
    ops = Operators(g)
    proj = Projector(ops)
    poisson = _poisson_matrix(ops)
    exact = proj.decompose

    def checked(w):
        out = exact(w)
        ref = _reference_pressure(poisson, ops, request.param, w)
        err = ops.G @ (out[1] - ref)
        assert _mass_norm(ops, err) <= 1e-9 * _mass_norm(ops, w)
        return out

    proj.decompose = checked
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
    ops = projector.ops
    w = random_velocity(g, rng)
    v, psi, _, _ = projector.decompose(ops.pack(w))
    v = ops.unpack(v)
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
    v, psi, residual, _ = projector.decompose(ops.pack(w))
    psi = PressureField(g, psi.reshape(g.shape))
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
def test_decompose_matches_dense_pseudoinverse(grid):
    # psi of the decomposition of random w against the dense pseudo-inverse
    # solution of G^T M_v G psi = G^T M_v w pinned to zero volume mean
    ops = Operators(grid)
    proj = Projector(ops)
    poisson = _poisson_matrix(ops)
    dense = poisson.toarray()
    pinv = np.linalg.pinv(dense)
    eig = np.linalg.eigvalsh(dense)
    cond = eig[-1] / eig[1]  # eig[0] is the constant mode's zero
    vol = ops.cell_vol
    rng = np.random.default_rng(109)
    for _ in range(3):
        wv = rng.standard_normal(ops.n_velocity)
        rhs = ops.G.tocsr().T @ (ops.mass_velocity * wv)
        v, x, residual, div = proj.decompose(wv)
        assert REFINEMENT_SWEEPS >= 1
        assert div.tobytes() == (ops.D @ v).tobytes()  # the last pass's D v, handed back
        # the reported residual is recomputed from the returned v: M_p D v
        # = -G^T M_v v is the Poisson residual of psi, G^T M_v (w - G psi),
        # in exact arithmetic
        reported = np.linalg.norm(vol * (ops.D @ v)) / np.linalg.norm(vol * (ops.D @ wv))
        assert residual == pytest.approx(reported, rel=1e-12, abs=0.0)
        assert residual <= 1e-12
        # the Poisson residual of psi itself, against the assembled matrix
        b = rhs - rhs.mean()
        assert np.linalg.norm(b - poisson @ x) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(b - dense @ x) <= 1e-12 * np.linalg.norm(b)
        assert abs(vol @ x) <= 1e-13 * np.abs(x).max() * vol.sum()
        ref = pinv @ b
        ref -= (vol @ ref) / vol.sum()
        # forward error of any backward-stable solve scales with cond
        tol = 100.0 * np.finfo(float).eps * cond
        assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
def test_poisson_chains_build_the_poisson_matrix(grid):
    # the 1D chains the projector's separable solver inverts, against the
    # assembled G^T M_v G: same pattern, values to rounding
    ops = Operators(grid)
    kron = _kron_sum(*ops.poisson_chains).tocsr()
    ref = _poisson_matrix(ops)
    for mat in (kron, ref):
        mat.sum_duplicates()
        mat.eliminate_zeros()
    np.testing.assert_array_equal(kron.indptr, ref.indptr)
    np.testing.assert_array_equal(kron.indices, ref.indices)
    assert np.abs(kron.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


_probe_rng = np.random.default_rng(113)
PROBE_GRIDS = {
    "graded-2d": MacGrid([graded_axis(0.0, 1.0, n, r) for n, r in ((24, 1.1), (17, 1.2))]),
    "graded-3d": MacGrid([graded_axis(0.0, 1.0, n, r) for n, r in ((9, 1.3), (7, 1.05), (6, 1.5))]),
    "coords-2d": random_nonuniform_grid(_probe_rng, 2, max_cells=12),
    "coords-3d": random_nonuniform_grid(_probe_rng, 3, max_cells=7),
    "one-cell-axis-3d": MacGrid(
        [random_nonuniform_grid(_probe_rng, 2, max_cells=9).axes[0], uniform_axis(0.0, 1.0, 1),
         graded_axis(0.0, 1.0, 6, 1.05)]
    ),
    # a residual far from roundoff: the scheme rejects this grid by it
    "graded-128-1.14": MacGrid([graded_axis(0.0, 1.0, 128, 1.14)] * 2),
}


@pytest.mark.parametrize("grid", PROBE_GRIDS.values(), ids=PROBE_GRIDS.keys())
def test_one_pass_residual_is_the_one_solve_probe(grid):
    # decompose(w, passes=1) reports ||M_p D (w - G x)|| / ||M_p D w|| for
    # the one separable solve x on b = G^T M_v w = -M_p D w, bit for bit
    ops = Operators(grid)
    proj = Projector(ops)
    rng = np.random.default_rng(127)
    for _ in range(3):
        w = rng.standard_normal(ops.n_velocity)
        b = -ops.cell_vol * (ops.D @ w)
        x = proj._separable.solve(b)
        r = -ops.cell_vol * (ops.D @ (w - ops.G @ x))
        probe = math.sqrt(dot(r, r)) / (math.sqrt(dot(b, b)) or 1.0)
        assert proj.decompose(w, passes=1)[2].hex() == probe.hex()


def test_decompose_makes_one_solve_per_pass(monkeypatch, rng):
    # decompose is 1 + REFINEMENT_SWEEPS velocity-level passes of one
    # separable solve each, and no Poisson matrix is ever assembled: the
    # projector builds no sparse product and a call applies only G and D
    ops = Operators(MacGrid([graded_axis(0.0, 1.0, 12, 1.05)] * 2))
    w = ops.pack(random_velocity(ops.grid, rng))
    counts = {"solve": 0, "product": 0, "matvec": 0}

    def counted_matmul(fn):
        def call(self, other):
            counts["product" if sp.issparse(other) else "matvec"] += 1
            return fn(self, other)

        return call

    for cls in (sp.coo_matrix, sp.csr_matrix, sp.csc_matrix, sp.dia_matrix,
                sp.coo_array, sp.csr_array, sp.csc_array, sp.dia_array, FaceCell):
        monkeypatch.setattr(cls, "__matmul__", counted_matmul(cls.__matmul__))
    solve = SeparableSolver.solve

    def counted_solve(self, *args, **kwargs):
        counts["solve"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SeparableSolver, "solve", counted_solve)
    proj = Projector(ops)
    assert counts == {"solve": 0, "product": 0, "matvec": 0}
    proj.decompose(w)
    passes = 1 + REFINEMENT_SWEEPS
    # per pass one solve, G phi and D v; one D w before them
    assert counts == {"solve": passes, "product": 0, "matvec": 2 * passes + 1}


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2)])
def test_seminorm_oracle_builds_its_own_basis(shape):
    # without a basis the oracle computes the dense one, with the same value
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    ops = Operators(g)
    w = random_velocity(g, np.random.default_rng(7))
    assert seminorm_by_basis(ops, w) == seminorm_by_basis(ops, w, dense_divfree_basis(ops))
