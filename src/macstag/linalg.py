"""Linear solvers of the scheme: an exact separable solver and preconditioned GMRES.

On a tensor-product grid the pressure Poisson matrix and the symmetric part
M_i/dt + S_i of every prediction block are separable: shift * (x)_a B_a +
sum_a K_a (x) (x)_{b != a} B_b, with 1D tridiagonal stiffness matrices K_a
and diagonal masses B_a. The fast diagonalization method (Lynch, Rice &
Thomas 1964) inverts such an operator exactly: with K_a V_a = B_a V_a L_a and
V_a^T B_a V_a = I, its inverse is (x)V_a diag(1/(shift + sum_a L_a)) (x)V_a^T.

The prediction systems add the nonsymmetric convection block to that
symmetric part. Restarted GMRES, preconditioned by the exact separable
inverse, solves them in a handful of iterations. The iteration is a pure
function of (A, b, x0, M), so reruns are bitwise reproducible. Reported
residuals are always recomputed from a fresh matvec, never trusted from the
recurrence.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

__all__ = ["SolveResult", "SolverError", "SeparableSolver", "tridiagonal", "solve_gmres"]

# GMRES iterations between restarts; the Krylov basis holds RESTART + 1 vectors.
RESTART = 20
# Cap on GMRES iterations per solve when the caller sets none. The FDM
# preconditioned prediction needs 4-8; advecting fields 1000 times stronger
# than the manufactured ones still converge in about 210 (graded 128^2).
MAX_ITERATIONS = 500


class SolverError(RuntimeError):
    """Raised when an iterative solve runs out of iterations."""

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, relative residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class SolveResult:
    """Solution vector plus honest convergence data.

    residual is the relative residual ||b - A x|| / ||b||, and
    residual_vector the b - A x it comes from, one fresh matvec.
    """

    def __init__(self, x, iterations, residual, residual_vector):
        self.x = x
        self.iterations = iterations
        self.residual = residual
        self.residual_vector = residual_vector

    def __repr__(self):
        return f"SolveResult(iterations={self.iterations}, residual={self.residual:.3e})"


def tridiagonal(c):
    """1D stiffness matrix of m = c.size - 1 unknowns in a chain, dense.

    c holds the edge conductances: c[k] couples unknown k-1 to unknown k,
    c[0] and c[m] couple the end unknowns to the walls. A zero end
    conductance is a Neumann end, a positive one a Dirichlet wall.
    """
    m = c.size - 1
    K = np.diag(c[:-1] + c[1:])
    k = np.arange(m - 1)
    K[k, k + 1] = K[k + 1, k] = -c[1:-1]
    return K


class SeparableSolver:
    """Exact inverse of shift * (x)B_a + sum_a K_a (x) (x)_{b != a} B_b.

    stiffness[a] is the dense 1D matrix K_a, mass[a] the diagonal of B_a;
    vectors are raveled in 'ij' order over the axes. The generalized
    eigenpairs of each axis are computed once, here.
    """

    def __init__(self, stiffness, mass):
        self.shape = tuple(b.size for b in mass)
        self._modes = []
        lam = 0.0
        for a, (K, B) in enumerate(zip(stiffness, mass)):
            # ascending, so mode 0 of a Neumann axis is the constant one
            vals, vecs = scipy.linalg.eigh(K, np.diag(B))
            self._modes.append(vecs)
            lam = np.add.outer(lam, vals) if a else vals
        self._eigenvalues = lam

    def _transform(self, x, transpose):
        for a, vecs in enumerate(self._modes):
            x = np.moveaxis(np.tensordot(vecs.T if transpose else vecs, x, axes=(1, a)), 0, a)
        return x

    def solve(self, b, shift=0.0, drop_constant=False):
        """Apply the inverse to b.

        drop_constant applies the pseudo-inverse of a singular all-Neumann
        operator instead: the all-constant mode is dropped, which leaves the
        result with zero mass-weighted mean.
        """
        denom = shift + self._eigenvalues
        if drop_constant:
            denom[(0,) * len(self.shape)] = np.inf
        y = self._transform(b.reshape(self.shape), True) / denom
        return self._transform(y, False).ravel()


def solve_gmres(A, b, *, tol=1e-10, maxiter=None, x0=None, M=None):
    """Left-preconditioned GMRES, restarted every RESTART iterations.

    maxiter caps the total number of GMRES iterations (MAX_ITERATIONS when
    None); M applies the preconditioner inverse. Raises SolverError when the
    recomputed relative residual stays above tol.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(b.size), 0, 0.0, np.zeros(b.size))
    inner = []  # one preconditioned residual per GMRES iteration
    # callback_type "legacy" makes maxiter count inner iterations, not restart cycles
    x, info = spla.gmres(
        A, b, x0=x0, rtol=tol, atol=0.0, restart=RESTART,
        maxiter=MAX_ITERATIONS if maxiter is None else maxiter, M=M,
        callback=inner.append, callback_type="legacy",
    )
    r = b - A @ x
    residual = float(np.linalg.norm(r)) / bnorm
    if info != 0 or residual > tol:
        raise SolverError("GMRES did not converge", len(inner), residual)
    return SolveResult(x, len(inner), residual, r)
