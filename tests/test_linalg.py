#
# Linear solvers: the exact separable solver and preconditioned GMRES.
#

import math
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from macstag.grid import MacGrid, graded_axis, uniform_grid
from macstag.linalg import RESTART, SeparableSolver, SolverError, solve_gmres, tridiagonal
from macstag.operators import Operators


def random_system(seed, n):
    rng = np.random.default_rng(seed)
    A = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
    return A, rng.standard_normal(n)


def counted(apply):
    """apply, recording every vector it is called on."""
    calls = []

    def call(v):
        calls.append(v)
        return apply(v)

    call.calls = calls
    return call


def convection_diffusion(shape=(6, 6)):
    # the shape of system the momentum prediction produces
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    ops = Operators(g)
    S = ops.laplace_blocks[0]
    n = S.shape[0]
    skew_part = sp.random(n, n, density=0.05, random_state=7)
    C = (skew_part - skew_part.T) * 0.3
    M = sp.diags(ops.mass_blocks[0])
    return (M * 100.0 + S).tocsr(), (M * 100.0 + S + C).tocsr()


class TestGMRES:
    def test_matches_dense_oracle(self):
        A, b = random_system(67, 30)
        x_exact = np.linalg.solve(A.toarray(), b)
        res = solve_gmres(A, b, tol=1e-13)
        np.testing.assert_allclose(res.x, x_exact, rtol=1e-8, atol=1e-10)
        assert res.residual == pytest.approx(np.linalg.norm(b - A @ res.x) / np.linalg.norm(b))

    def test_preconditioned_convection_diffusion_system(self):
        sym, A = convection_diffusion()
        b = np.random.default_rng(71).standard_normal(A.shape[0])
        plain = solve_gmres(A, b, tol=1e-12)
        lu = spla.splu(sym.tocsc())
        res = solve_gmres(A, b, tol=1e-12, M=lu.solve)
        assert np.linalg.norm(b - A @ res.x) <= 1e-12 * np.linalg.norm(b)
        assert res.iterations < plain.iterations

    @pytest.mark.parametrize("cap", [1, 7, 25, 41, RESTART, RESTART + 1])
    def test_raises_on_iteration_cap(self, cap):
        # the cap counts iterations across restarts, one preconditioner call each
        _, A = convection_diffusion((12, 12))
        b = np.random.default_rng(73).standard_normal(A.shape[0])
        M = counted(lambda v: v.copy())
        with pytest.raises(SolverError, match="did not converge") as err:
            solve_gmres(A, b, tol=1e-14, maxiter=cap, M=M)
        assert err.value.iterations == len(M.calls) == cap

    def test_singular_system_raises(self):
        with pytest.raises(SolverError, match="singular"):
            solve_gmres(sp.csr_matrix((4, 4)), np.ones(4))

    def test_restarts_match_dense_oracle(self):
        # nonsymmetric and unpreconditioned: three restart cycles
        rng = np.random.default_rng(101)
        A = sp.csr_matrix(rng.standard_normal((60, 60)) + 12.0 * np.eye(60))
        b = rng.standard_normal(60)
        M = counted(lambda v: v.copy())
        res = solve_gmres(A, b, tol=1e-12, M=M)
        assert res.iterations > 2 * RESTART
        np.testing.assert_allclose(res.x, np.linalg.solve(A.toarray(), b), rtol=1e-9, atol=1e-11)
        # one preconditioner application per iteration, none for the update
        assert len(M.calls) == res.iterations
        np.testing.assert_array_equal(res.residual_vector, b - A @ res.x)
        assert res.residual == np.linalg.norm(res.residual_vector) / np.linalg.norm(b) <= 1e-12

    def test_exact_initial_guess_takes_no_iteration(self):
        A, b = random_system(103, 30)
        M = counted(lambda v: v.copy())
        res = solve_gmres(A, b, tol=1e-10, x0=np.linalg.solve(A.toarray(), b), M=M)
        assert res.iterations == 0 and M.calls == []
        assert res.residual <= 1e-10

    def test_exact_preconditioner_takes_one_iteration(self):
        # happy breakdown: A M^-1 = I, so the first Krylov vector spans the error
        _, A = convection_diffusion()
        b = np.random.default_rng(107).standard_normal(A.shape[0])
        M = counted(spla.splu(A.tocsc()).solve)
        res = solve_gmres(A, b, tol=1e-12, M=M)
        assert res.iterations == len(M.calls) == 1
        assert res.residual <= 1e-12

    def test_deterministic(self):
        _, A = convection_diffusion()
        b = np.random.default_rng(79).standard_normal(A.shape[0])
        x1 = solve_gmres(A, b, tol=1e-12).x
        x2 = solve_gmres(A, b, tol=1e-12).x
        assert np.array_equal(x1, x2)

    def test_zero_rhs(self):
        A, _ = random_system(83, 5)
        res = solve_gmres(A, np.zeros(5))
        assert res.iterations == 0 and not res.x.any()


def test_tridiagonal_chain():
    K = tridiagonal(np.array([2.0, 3.0, 5.0]))
    np.testing.assert_array_equal(K, [[5.0, -3.0], [-3.0, 8.0]])
    assert tridiagonal(np.array([4.0])).shape == (0, 0)


def kronecker_operator(stiffness, mass, shift):
    """Dense shift * (x)B_a + sum_a K_a (x) (x)_{b != a} B_b."""
    out = shift * np.diag(reduce(np.multiply, np.ix_(*mass)).ravel())
    for a in range(len(mass)):
        term = np.ones((1, 1))
        for b in range(len(mass)):
            term = np.kron(term, stiffness[a] if b == a else np.diag(mass[b]))
        out = out + term
    return out


@pytest.mark.parametrize("sizes", [(4, 3), (1, 5), (3, 2, 4), (6,), (0, 5), (5, 0), (3, 0, 4), (2, 5, 3)])
def test_separable_solver_inverts_kronecker_sum(sizes):
    # (2, 5, 3): a middle axis longer than the outer ones; a 0-cell axis
    # leaves nothing to solve for
    rng = np.random.default_rng(89)
    stiffness = [tridiagonal(rng.uniform(0.5, 2.0, m + 1)) for m in sizes]
    mass = [rng.uniform(0.1, 1.0, m) for m in sizes]
    solver = SeparableSolver(stiffness, mass)
    A = kronecker_operator(stiffness, mass, 3.0)
    b = rng.standard_normal(A.shape[0])
    x = solver.solve(b, 3.0)
    assert x.shape == (math.prod(sizes),)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def neumann_factors(rng, sizes):
    # zero end conductances: an all-Neumann operator, singular on constants
    stiffness = [tridiagonal(np.concatenate([[0.0], rng.uniform(0.5, 2.0, m - 1), [0.0]])) for m in sizes]
    return stiffness, [rng.uniform(0.1, 1.0, m) for m in sizes]


def dense_pseudo_inverse_solve(stiffness, mass, b):
    """Solution of the singular all-Neumann system with zero mass-weighted mean."""
    x = np.linalg.pinv(kronecker_operator(stiffness, mass, 0.0)) @ b
    weights = reduce(np.multiply, np.ix_(*mass)).ravel()
    return x - (weights @ x) / weights.sum()


def test_separable_solver_drops_constant_mode():
    rng = np.random.default_rng(97)
    for sizes in [(5, 4), (3, 4, 2)]:
        stiffness, mass = neumann_factors(rng, sizes)
        solver = SeparableSolver(stiffness, mass)
        A = kronecker_operator(stiffness, mass, 0.0)
        b = rng.standard_normal(A.shape[0])
        b -= b.mean()
        x = solver.solve(b, drop_constant=True)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        weights = reduce(np.multiply, np.ix_(*mass)).ravel()
        assert abs(weights @ x) <= 1e-12 * np.linalg.norm(x)


def test_separable_solver_reciprocal_follows_shift():
    # one instance, the spectrum's reciprocal kept between calls: every
    # change of shift or of drop_constant must be seen
    rng = np.random.default_rng(163)
    stiffness, mass = neumann_factors(rng, (4, 3, 5))
    solver = SeparableSolver(stiffness, mass)
    b = rng.standard_normal(60)
    for shift in (3.0, 7.0, 3.0):
        expect = np.linalg.solve(kronecker_operator(stiffness, mass, shift), b)
        x = solver.solve(b, shift)
        assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)
    b -= b.mean()
    expect = dense_pseudo_inverse_solve(stiffness, mass, b)
    x = solver.solve(b, drop_constant=True)
    assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)


# Strongly graded grids: h_max/h_min reaches 4.9e2, 1.8e5 and 2.5e5. The
# transforms lose accuracy with the grading, up to 6.3e-8 here, but every
# one of these grids runs within the divergence budget of 10 x poisson_tol.
GRADED_FDM_GRIDS = [(128, 1.05), (128, 1.1), (256, 1.05)]
GRADED_FDM_RESIDUAL = 1e-7


@pytest.fixture(scope="module", params=GRADED_FDM_GRIDS, ids=lambda p: f"{p[0]}-{p[1]}")
def graded_operators(request):
    n, ratio = request.param
    axis = graded_axis(0.0, 1.0, n, ratio)
    return Operators(MacGrid([axis, axis]))


def test_separable_solver_accuracy_on_strong_grading(graded_operators):
    # momentum block 0 at shift 32, residual by the operator's own matvec
    ops = graded_operators
    solver = SeparableSolver(*ops.laplace_factors[0])
    S, mass = ops.laplace_blocks[0], ops.mass_blocks[0]
    b = np.random.default_rng(167).standard_normal(mass.size)
    x = solver.solve(b, 32.0)
    residual = np.linalg.norm(S @ x + 32.0 * mass * x - b) / np.linalg.norm(b)
    assert residual <= GRADED_FDM_RESIDUAL


def test_poisson_pseudo_inverse_accuracy_on_strong_grading(graded_operators):
    # G^T M_v G psi = G^T M_v w, as the projection solves it
    ops = graded_operators
    solver = SeparableSolver(*ops.poisson_factors)
    w = np.random.default_rng(173).standard_normal(ops.n_velocity)
    b = ops.G.T @ (ops.mass_velocity * w)
    x = solver.solve(b, drop_constant=True)
    residual = np.linalg.norm(ops.G.T @ (ops.mass_velocity * (ops.G @ x)) - b) / np.linalg.norm(b)
    assert residual <= GRADED_FDM_RESIDUAL
