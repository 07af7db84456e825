#
# Linear solvers: the exact separable solver and the CGW recurrence.
#

import math
from functools import partial, reduce

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from macstag.grid import MacGrid, graded_axis, uniform_grid
import macstag.linalg as linalg_module
from macstag.linalg import SeparableSolver, SolverError, dot, solve_cgw, tridiagonal
from macstag.operators import Operators


def split_system(seed, n, skew=1.0):
    """diag(d) + S symmetric positive definite and N skew, the exact (diag(d) + S)^-1, and a rhs."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    d = rng.uniform(0.5, 2.0, n)
    R = rng.standard_normal((n, n))
    M = partial(scipy.linalg.cho_solve, scipy.linalg.cho_factor(Q @ Q.T / n + np.diag(d)))
    return d, sp.csr_matrix(Q @ Q.T / n), sp.csr_matrix(skew * (R - R.T) / 2), M, rng.standard_normal(n)


def dense(d, S, N):
    """diag(d) + S + N as a dense matrix."""
    return np.diag(d) + (S + N).toarray()


def assert_products_of_residual(res, d, S, N, b):
    """res hands out S x and N x at its x, and its residual vector is b - (d x + S x) - N x from them, bitwise."""
    np.testing.assert_array_equal(res.Sx, S @ res.x)
    np.testing.assert_array_equal(res.Nx, N @ res.x)
    np.testing.assert_array_equal(res.residual_vector, b - (d * res.x + res.Sx) - res.Nx)


def norm(v):
    """||v|| as the solver forms it: the square root of the package's thread-invariant dot."""
    return math.sqrt(dot(v, v))


def counted(apply):
    """apply, recording every vector it is called on."""
    calls = []

    def call(v):
        calls.append(v.copy())
        return apply(v)

    call.calls = calls
    return call


class CountedMatmul:
    """A matrix for @, counting its products."""

    def __init__(self, N):
        self.N, self.calls = N, 0

    def __matmul__(self, v):
        self.calls += 1
        return self.N @ v


def convection_diffusion(shape=(6, 6)):
    # the shape of system the momentum prediction produces: diag(d) + S + C
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    ops = Operators(g)
    S = ops.laplace_blocks[0]
    n = S.shape[0]
    skew_part = sp.random(n, n, density=0.05, random_state=7)
    C = (skew_part - skew_part.T) * 0.3
    return ops.mass_blocks[0] * 100.0, S, C.tocsr()


class TestGMRES:
    # the prediction solver's contract, carried over from the restarted GMRES
    # it replaced and kept under that name: SolveResult with a fresh-matvec
    # residual, the iteration cap (20, 21 and 41 were GMRES's restart
    # boundaries), an exact guess, determinism and a zero rhs, now run on
    # solve_cgw with split_system
    def test_matches_dense_oracle(self):
        d, S, N, M, b = split_system(67, 30)
        res = solve_cgw(d, S, N, b, tol=1e-13, M=M)
        np.testing.assert_allclose(res.x, np.linalg.solve(dense(d, S, N), b), rtol=1e-9, atol=1e-11)
        # the reported residual comes from fresh matvecs
        assert_products_of_residual(res, d, S, N, b)
        assert res.residual == norm(res.residual_vector) / norm(b) <= 1e-13

    @pytest.mark.parametrize("cap", [1, 7, 20, 21, 25, 41])
    def test_raises_on_iteration_cap(self, cap):
        # the cap counts iterations across restarts, one preconditioner call each
        d, S, N, M, b = split_system(73, 80, skew=30.0)
        M = counted(M)
        with pytest.raises(SolverError, match="CGW did not converge") as err:
            solve_cgw(d, S, N, b, tol=1e-14, maxiter=cap, M=M)
        assert err.value.iterations == len(M.calls) == cap

    def test_exact_initial_guess_takes_no_iteration(self):
        # and hands out the products of its start residual, formed once
        d, S, N, M, b = split_system(103, 30)
        M, S_counted, N_counted = counted(M), CountedMatmul(S), CountedMatmul(N)
        res = solve_cgw(d, S_counted, N_counted, b, tol=1e-10, x0=np.linalg.solve(dense(d, S, N), b), M=M)
        assert res.iterations == 0 and M.calls == [] and S_counted.calls == N_counted.calls == 1
        assert res.residual <= 1e-10
        assert_products_of_residual(res, d, S, N, b)

    def test_deterministic(self):
        d, S, N, M, b = split_system(79, 30, skew=3.0)
        x1 = solve_cgw(d, S, N, b, tol=1e-12, M=M).x
        x2 = solve_cgw(d, S, N, b, tol=1e-12, M=M).x
        assert np.array_equal(x1, x2)

    def test_zero_rhs(self):
        # x = 0 and zero products of the system's size, with no product formed
        d, S, N, M, _ = split_system(83, 5)
        M, S, N = counted(M), CountedMatmul(S), CountedMatmul(N)
        res = solve_cgw(d, S, N, np.zeros(5), M=M)
        assert res.iterations == 0 and not res.x.any() and M.calls == []
        for product in (res.Sx, res.Nx, res.residual_vector):
            assert product.shape == (5,) and not product.any()
        assert S.calls == N.calls == 0


class TestCGW:
    # systems A = H + N, H = diag(d) + S symmetric positive definite and N
    # skew, with M the exact H^-1: the setting of the generalized conjugate
    # gradient method
    def test_convection_diffusion_system(self):
        # M_i/dt + S_i + C_i with the exact inverse of M_i/dt + S_i
        d, S, N = convection_diffusion()
        b = np.random.default_rng(71).standard_normal(S.shape[0])
        M = counted(spla.splu((sp.diags(d) + S).tocsc()).solve)
        res = solve_cgw(d, S, N, b, tol=1e-12, M=M)
        assert np.linalg.norm(b - (sp.diags(d) + S + N) @ res.x) <= 1e-12 * np.linalg.norm(b)
        assert res.iterations == len(M.calls) <= 10

    def test_strong_skew_part_converges(self):
        # a skew part 30x the symmetric one: the recurrence still converges,
        # one preconditioner call per iteration
        d, S, N, M, b = split_system(101, 80, skew=30.0)
        M = counted(M)
        res = solve_cgw(d, S, N, b, tol=1e-12, M=M)
        assert len(M.calls) == res.iterations > 41
        np.testing.assert_allclose(res.x, np.linalg.solve(dense(d, S, N), b), rtol=1e-8, atol=1e-10)

    def test_symmetric_system_takes_one_iteration(self):
        # N = 0: z_0 = H^-1 r_0 is the whole error
        d, S, N, M, b = split_system(107, 30, skew=0.0)
        M = counted(M)
        res = solve_cgw(d, S, N, b, tol=1e-12, M=M)
        assert res.iterations == len(M.calls) == 1
        assert res.residual <= 1e-12

    def test_indefinite_preconditioner_breaks_down(self):
        # M = -H^-1 gives z.r < 0 on the first iteration
        d, S, N, M, b = split_system(109, 30)
        message = r"CGW broke down: z\.r = -\S+ <= 0, the preconditioner is not positive definite"
        with pytest.raises(SolverError, match=message) as err:
            solve_cgw(d, S, N, b, M=lambda v: -M(v))
        assert err.value.iterations == 0

    def test_applies_h_only_at_restarts(self):
        # the recurrence updates its residual with N z alone: one M call and
        # one N product per iteration, and one S product (H = diag(d) + S)
        # and one N product per (re)start residual and for the returned one
        d, S, N, M, b = split_system(113, 30, skew=3.0)
        S, N, M = CountedMatmul(S), CountedMatmul(N), counted(M)
        res = solve_cgw(d, S, N, b, tol=1e-10, M=M)
        assert len(M.calls) == res.iterations > 1
        assert S.calls == 2
        assert N.calls == res.iterations + S.calls

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_inexact_inverse_is_caught_by_the_fresh_residual(self, tol):
        # M = (1 + 1e-6) H^-1 breaks H z = r, so the recurrence residual
        # drifts from the true one; the fresh residual sends the solve into
        # another cycle, and what it returns is at tol, with the products of
        # the last recomputed residual
        d, S, N, M, b = split_system(127, 30, skew=3.0)
        S_counted = CountedMatmul(S)
        res = solve_cgw(d, S_counted, N, b, tol=tol, M=lambda v: (1.0 + 1e-6) * M(v))
        assert S_counted.calls >= 3
        assert_products_of_residual(res, d, S, N, b)
        assert res.residual == norm(res.residual_vector) / norm(b) <= tol


def test_tridiagonal_chain():
    K = tridiagonal(np.array([2.0, 3.0, 5.0]))
    np.testing.assert_array_equal(K, [[5.0, -3.0], [-3.0, 8.0]])
    assert tridiagonal(np.array([4.0])).shape == (0, 0)


def kronecker_operator(conductances, mass, shift):
    """Dense shift * (x)B_a + sum_a K_a (x) (x)_{b != a} B_b, K_a = tridiagonal(conductances[a])."""
    out = shift * np.diag(reduce(np.multiply, np.ix_(*mass)).ravel())
    for a in range(len(mass)):
        term = np.ones((1, 1))
        for b in range(len(mass)):
            term = np.kron(term, tridiagonal(conductances[a]) if b == a else np.diag(mass[b]))
        out = out + term
    return out


@pytest.mark.parametrize("sizes", [(4, 3), (1, 5), (3, 2, 4), (6,), (0, 5), (5, 0), (3, 0, 4), (2, 5, 3)])
def test_separable_solver_inverts_kronecker_sum(sizes):
    # (2, 5, 3): a middle axis longer than the outer ones; a 0-cell axis
    # leaves nothing to solve for
    rng = np.random.default_rng(89)
    conductances = [rng.uniform(0.5, 2.0, m + 1) for m in sizes]
    mass = [rng.uniform(0.1, 1.0, m) for m in sizes]
    solver = SeparableSolver(conductances, mass)
    A = kronecker_operator(conductances, mass, 3.0)
    b = rng.standard_normal(A.shape[0])
    x = solver.solve(b, 3.0)
    assert x.shape == (math.prod(sizes),)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def neumann_chains(rng, sizes):
    # zero end conductances: an all-Neumann operator, singular on constants
    conductances = [np.concatenate([[0.0], rng.uniform(0.5, 2.0, m - 1), [0.0]]) for m in sizes]
    return conductances, [rng.uniform(0.1, 1.0, m) for m in sizes]


def dense_pseudo_inverse_solve(conductances, mass, b):
    """Solution of the singular all-Neumann system with zero mass-weighted mean."""
    x = np.linalg.pinv(kronecker_operator(conductances, mass, 0.0)) @ b
    weights = reduce(np.multiply, np.ix_(*mass)).ravel()
    return x - (weights @ x) / weights.sum()


def test_separable_solver_drops_constant_mode():
    # the solver finds its null mode: at shift 0 it applies the
    # pseudo-inverse when every chain is Neumann, 1-cell ones included, and
    # the inverse when a chain has a wall (a nonzero end conductance), of
    # several cells or of one
    rng = np.random.default_rng(97)
    for sizes, walls in [((5, 4), ()), ((3, 4, 2), ()), ((1, 6), ()), ((4, 1, 3), ()),
                         ((3, 5), (4,)), ((3, 5), (1,)), ((6,), (1, 4))]:
        conductances, mass = neumann_chains(rng, sizes)
        conductances += [rng.uniform(0.5, 2.0, m + 1) for m in walls]
        mass += [rng.uniform(0.1, 1.0, m) for m in walls]
        solver = SeparableSolver(conductances, mass)
        A = kronecker_operator(conductances, mass, 0.0)
        b = rng.standard_normal(A.shape[0])
        if not walls:
            b -= b.mean()
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        if not walls:
            weights = reduce(np.multiply, np.ix_(*mass)).ravel()
            assert abs(weights @ x) <= 1e-12 * np.linalg.norm(x)
    # momentum block 0 on a 1-cell axis has a 0x0 chain: the solver builds
    # without indexing it and maps the empty vector to itself
    chains = Operators(MacGrid([[0.0, 1.0], [0.0, 0.25, 0.5, 1.0]])).laplace_chains[0]
    assert tridiagonal(chains[0][0]).shape == (0, 0)
    solver = SeparableSolver(*chains)
    for shift in (0.0, 2.0):
        assert solver.solve(np.zeros(0), shift).shape == (0,)


@pytest.mark.parametrize("lengths, axis", [([(4, 4), (3, 2)], 0), ([(5, 4), (3, 3)], 1), ([(5, 4), (4, 3), (1, 1)], 2)])
def test_separable_solver_rejects_malformed_chains(lengths, axis):
    # a chain of m masses has m + 1 conductances; any other pair is named by
    # its axis before numpy or LAPACK sees it
    conductances = [np.ones(nc) for nc, _ in lengths]
    mass = [np.ones(nm) for _, nm in lengths]
    with pytest.raises(ValueError, match=rf"^axis {axis}: a chain of {lengths[axis][1]} masses needs"):
        SeparableSolver(conductances, mass)


def test_separable_solver_reciprocal_follows_shift():
    # one instance, the spectrum's reciprocal kept between calls: every
    # change of shift must be seen, to 0 (where the constant mode is
    # dropped) and back
    rng = np.random.default_rng(163)
    conductances, mass = neumann_chains(rng, (4, 3, 5))
    solver = SeparableSolver(conductances, mass)
    b = rng.standard_normal(60)
    for shift in (3.0, 7.0, 3.0):
        expect = np.linalg.solve(kronecker_operator(conductances, mass, shift), b)
        x = solver.solve(b, shift)
        assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)
    b -= b.mean()
    expect = dense_pseudo_inverse_solve(conductances, mass, b)
    x = solver.solve(b)
    assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)
    expect = np.linalg.solve(kronecker_operator(conductances, mass, 3.0), b)
    assert np.linalg.norm(solver.solve(b, 3.0) - expect) <= 1e-12 * np.linalg.norm(expect)


# Strongly graded grids: h_max/h_min reaches 4.9e2, 1.8e5 and 2.5e5. The
# pressure's Neumann chains keep eigh, whose transforms lose accuracy with
# the grading, up to 1.3e-8 here, but every one of these grids runs within
# the divergence budget of 10 x poisson_tol. The momentum chains'
# relative-accuracy modes (linalg._modes) stay at roundoff (eigh left up to
# 2.2e-8).
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
    solver = SeparableSolver(*ops.laplace_chains[0])
    S, mass = ops.laplace_blocks[0], ops.mass_blocks[0]
    b = np.random.default_rng(167).standard_normal(mass.size)
    x = solver.solve(b, 32.0)
    residual = np.linalg.norm(S @ x + 32.0 * mass * x - b) / np.linalg.norm(b)
    assert residual <= 1e-12


def test_poisson_pseudo_inverse_accuracy_on_strong_grading(graded_operators):
    # G^T M_v G psi = G^T M_v w, as the projection solves it
    ops = graded_operators
    solver = SeparableSolver(*ops.poisson_chains)
    w = np.random.default_rng(173).standard_normal(ops.n_velocity)
    G = ops.G.tocsr()
    b = G.T @ (ops.mass_velocity * w)
    x = solver.solve(b)
    residual = np.linalg.norm(G.T @ (ops.mass_velocity * (G @ x)) - b) / np.linalg.norm(b)
    assert residual <= GRADED_FDM_RESIDUAL


def momentum_chains(n, ratio):
    """The component and transverse 1D chains (c, B) of a graded axis of n cells."""
    g = MacGrid([graded_axis(0.0, 1.0, n, ratio), graded_axis(0.0, 1.0, 2, 1.0)])
    return [(1.0 / g.h[0], g.dual_w[0][1:-1]), (1.0 / g.dual_w[0], g.h[0])]


def chain_inverse_residual(c, B, vals, V):
    """Worst relative residual of (shift B + K)^-1 through the modes, shifts 1, 32 and 1e4, K = tridiagonal(c)."""
    K = tridiagonal(c)
    rng = np.random.default_rng(179)
    worst = 0.0
    for shift in (1.0, 32.0, 1e4):
        z = rng.standard_normal(B.size)
        x = V @ ((V.T @ z) / (shift + vals))
        worst = max(worst, np.linalg.norm(shift * B * x + K @ x - z) / np.linalg.norm(z))
    return worst


@pytest.fixture
def dpteqr_calls(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].size)
        return dpteqr(*args, **kwargs)

    dpteqr = linalg_module.dpteqr
    monkeypatch.setattr(linalg_module, "dpteqr", spy)
    return calls


@pytest.mark.parametrize("n, ratio", [(128, 1.05), (128, 1.14), (512, 1.01)], ids=str)
def test_modes_take_positive_definite_chains_from_mrrr(dpteqr_calls, n, ratio):
    # O(n^2) dstemr resolves these chains to roundoff (3e-12 at 512 cells,
    # as dpteqr's); the O(n^3) dpteqr is not called
    for c, B in momentum_chains(n, ratio):
        vals, V = linalg_module._modes(c, B)
        assert np.all(np.diff(vals) > 0)
        assert chain_inverse_residual(c, B, vals, V) <= 1e-11
    assert dpteqr_calls == []


def test_modes_redo_a_chain_whose_mrrr_modes_are_wrong(monkeypatch, dpteqr_calls):
    # dstemr modes with a wrong smallest eigenvalue, as it returns on some
    # mildly graded long chains: the probe sends the chain to dpteqr
    dstemr = linalg_module.dstemr

    def wrong(*args):
        m, vals, Z, info = dstemr(*args)
        vals[0] *= 2.0
        return m, vals, Z, info

    monkeypatch.setattr(linalg_module, "dstemr", wrong)
    (c, B), _ = momentum_chains(64, 1.1)
    vals, V = linalg_module._modes(c, B)
    assert dpteqr_calls == [B.size]
    assert np.all(np.diff(vals) > 0)
    assert chain_inverse_residual(c, B, vals, V) <= 1e-12


def test_modes_resolve_a_chain_mrrr_gets_wrong():
    # 256 cells at ratio 1.08: dstemr's own modes leave a residual near 1
    # here; whichever routine resolves the chain, its inverse is exact
    for c, B in momentum_chains(256, 1.08):
        assert chain_inverse_residual(c, B, *linalg_module._modes(c, B)) <= 1e-12


def test_modes_raise_when_dpteqr_fails(monkeypatch):
    # no silent fallback to eigh: CGW needs the exact inverse
    monkeypatch.setattr(linalg_module, "dstemr", lambda d, *args: (0, d, None, 1))
    monkeypatch.setattr(linalg_module, "dpteqr", lambda d, *args, **kwargs: (d, None, None, 3))
    (c, B), _ = momentum_chains(16, 1.1)
    with pytest.raises(np.linalg.LinAlgError, match=r"dpteqr failed \(info=3\) on a positive definite chain of 15 cells"):
        linalg_module._modes(c, B)
