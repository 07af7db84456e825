"""Linear solvers of the scheme: an exact separable solver and preconditioned GMRES.

On a tensor-product grid the pressure Poisson matrix and the symmetric part
M_i/dt + S_i of every prediction block are separable: shift * (x)_a B_a +
sum_a K_a (x) (x)_{b != a} B_b, with 1D tridiagonal stiffness matrices K_a
and diagonal masses B_a. The fast diagonalization method (Lynch, Rice &
Thomas 1964) inverts such an operator exactly: with K_a V_a = B_a V_a L_a and
V_a^T B_a V_a = I, its inverse is (x)V_a diag(1/(shift + sum_a L_a)) (x)V_a^T.
Each transform (x)W_a is one BLAS matrix product per axis on the contiguous
array: the first axis multiplies from the left, the last from the right, and
only a middle axis in 3D needs a stacked matmul, so no axis is ever moved.
The reciprocal spectrum 1/(shift + sum_a L_a) is kept for the last shift.

The prediction systems add the nonsymmetric convection block to that
symmetric part. Restarted GMRES, right-preconditioned by the exact separable
inverse (flexible form, Saad 1993), solves them in a handful of iterations.
Right preconditioning makes the Arnoldi estimate the true residual, so the
stopping test needs no extra preconditioner application: each iteration is
exactly one FDM application and one matvec. The iteration is a pure
function of (A, b, x0, M), so reruns are bitwise reproducible. Reported
residuals are always recomputed from a fresh matvec, never trusted from the
recurrence.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

__all__ = ["SolveResult", "SolverError", "SeparableSolver", "tridiagonal", "solve_gmres"]

# GMRES iterations between restarts; the Krylov basis holds RESTART + 1 vectors.
RESTART = 20
# Cap on GMRES iterations per solve when the caller sets none. The FDM
# preconditioned prediction needs 3-4 per component in 2D and 5-6 in 3D;
# advecting fields 1000 times stronger than the manufactured ones still
# converge in 218-220 (vortex2d, graded 128^2, dt = 1/32).
MAX_ITERATIONS = 500


class SolverError(RuntimeError):
    """Raised when an iterative solve runs out of iterations or breaks down.

    message is the text before the iteration count and residual, so a caller
    can re-raise it with its own context in front.
    """

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, relative residual={residual:.3e})")
        self.message = message
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
    eigenpairs of each axis are computed once, here. The transforms reshape
    with explicit sizes (math.prod) rather than -1, because an axis of 0
    cells makes a 0-size block whose other extent -1 cannot infer.
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
        self._reciprocal = None  # (shift, drop_constant, 1 / (shift + eigenvalues))

    def _transform(self, x, transpose):
        """(x)_a W_a x for W_a = V_a^T (transpose) or V_a; x may have any shape of the solver's size."""
        last = len(self.shape) - 1
        for a, vecs in enumerate(self._modes):
            W = vecs.T if transpose else vecs
            n, before, after = self.shape[a], math.prod(self.shape[:a]), math.prod(self.shape[a + 1 :])
            if a == 0:
                x = W @ x.reshape(n, after)
            elif a == last:
                x = x.reshape(before, n) @ W.T
            else:
                x = np.matmul(W, x.reshape(before, n, after))
        return x

    def solve(self, b, shift=0.0, drop_constant=False):
        """Apply the inverse to b.

        drop_constant applies the pseudo-inverse of a singular all-Neumann
        operator instead: the all-constant mode is dropped, which leaves the
        result with zero mass-weighted mean.
        """
        cached = self._reciprocal
        if cached is None or cached[0] != shift or cached[1] != drop_constant:
            denom = shift + self._eigenvalues
            if drop_constant:
                denom[(0,) * len(self.shape)] = np.inf
            cached = self._reciprocal = (shift, drop_constant, 1.0 / denom)
        y = self._transform(b, True)
        y *= cached[2].reshape(y.shape)
        return self._transform(y, False).ravel()


def solve_gmres(A, b, *, tol=1e-10, maxiter=None, x0=None, M=None):
    """Right-preconditioned GMRES in flexible form, restarted every RESTART iterations.

    Arnoldi runs on A M^-1 and keeps z_j = M^-1 v_j, so each iteration is one
    application of M and one matvec, and the update x += Z y needs neither.
    The Givens-rotated estimate is the true residual ||b - A x||; once it
    reaches tol ||b|| the residual is recomputed, and the cycle restarts
    from it while it stays above. maxiter caps the total number of
    iterations (MAX_ITERATIONS when None); M is a callable applying the
    preconditioner inverse (identity when None). Raises SolverError when the
    recomputed relative residual stays above tol.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(b.size), 0, 0.0, np.zeros(b.size))
    maxiter = MAX_ITERATIONS if maxiter is None else maxiter
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    rnorm = float(np.linalg.norm(r))
    target = tol * bnorm
    V = np.empty((RESTART + 1, b.size))
    Z = np.empty((RESTART, b.size))
    R = np.zeros((RESTART, RESTART))  # the Hessenberg matrix, rotated to upper triangular
    cs, sn = np.empty(RESTART), np.empty(RESTART)
    iterations = 0
    while rnorm > target and iterations < maxiter:
        V[0] = r / rnorm
        g = np.zeros(RESTART + 1)
        g[0] = rnorm
        for j in range(min(RESTART, maxiter - iterations)):
            Z[j] = V[j] if M is None else M(V[j])
            w = A @ Z[j]
            # classical Gram-Schmidt, twice
            h = V[: j + 1] @ w
            w -= h @ V[: j + 1]
            h2 = V[: j + 1] @ w
            w -= h2 @ V[: j + 1]
            h += h2
            hnorm = float(np.linalg.norm(w))
            for k in range(j):
                h[k], h[k + 1] = cs[k] * h[k] + sn[k] * h[k + 1], cs[k] * h[k + 1] - sn[k] * h[k]
            d = math.hypot(h[j], hnorm)
            if d == 0.0:
                raise SolverError("GMRES broke down: singular system", iterations, rnorm / bnorm)
            cs[j], sn[j] = h[j] / d, hnorm / d
            h[j] = d
            R[: j + 1, j] = h
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            iterations += 1
            if not abs(g[j + 1]) > target:  # converged, breakdown or not finite
                break
            V[j + 1] = w / hnorm
        k = j + 1
        y = scipy.linalg.solve_triangular(R[:k, :k], g[:k], check_finite=False)
        x += y @ Z[:k]
        r = b - A @ x
        rnorm = float(np.linalg.norm(r))
    residual = rnorm / bnorm
    if not residual <= tol:
        raise SolverError("GMRES did not converge", iterations, residual)
    return SolveResult(x, iterations, residual, r)
