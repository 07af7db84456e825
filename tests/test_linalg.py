#
# Krylov solvers of the prediction systems.
#

import numpy as np
import pytest
import scipy.sparse as sp

from macstag.grid import uniform_grid
from macstag.linalg import SolverError, solve_gmres, solve_nonsymmetric
from macstag.operators import Operators


def poisson_matrix(shape=(5, 4)):
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    ops = Operators(g)
    S = (ops.G.T @ sp.diags(ops.mass_velocity) @ ops.G).tocsr()
    return g, ops, S


class TestBiCGStab:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(67)
        n = 30
        A = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
        b = rng.standard_normal(n)
        x_exact = np.linalg.solve(A.toarray(), b)
        res = solve_nonsymmetric(A, b, tol=1e-13)
        np.testing.assert_allclose(res.x, x_exact, rtol=1e-8, atol=1e-10)

    def test_convection_diffusion_system(self):
        # the shape of system the momentum prediction produces
        g, ops, _ = poisson_matrix((6, 6))
        rng = np.random.default_rng(71)
        S = ops.laplace_blocks[0]
        n = S.shape[0]
        skew_part = sp.random(n, n, density=0.05, random_state=7)
        C = (skew_part - skew_part.T) * 0.3
        M = sp.diags(ops.mass_blocks[0])
        A = (M * 100.0 + S + C).tocsr()
        b = rng.standard_normal(n)
        res = solve_nonsymmetric(A, b, tol=1e-12)
        assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)

    def test_raises_on_iteration_cap(self):
        rng = np.random.default_rng(73)
        n = 40
        A = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
        b = rng.standard_normal(n)
        with pytest.raises(SolverError):
            solve_nonsymmetric(A, b, tol=1e-14, maxiter=1)

    def test_deterministic(self):
        rng = np.random.default_rng(79)
        n = 25
        A = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
        b = rng.standard_normal(n)
        x1 = solve_nonsymmetric(A, b, tol=1e-12).x
        x2 = solve_nonsymmetric(A, b, tol=1e-12).x
        assert np.array_equal(x1, x2)


def test_gmres_fallback():
    rng = np.random.default_rng(83)
    n = 30
    A = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
    b = rng.standard_normal(n)
    res = solve_gmres(A, b, tol=1e-12)
    assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)
