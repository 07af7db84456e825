"""Linear solvers of the scheme: an exact separable solver and generalized CG.

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
When every chain is Neumann (zero end rows) the operator at shift 0 is
singular on the constants, and the solver applies its pseudo-inverse: the
all-constant mode is dropped, which leaves the result with zero
mass-weighted mean.

The convection block of a prediction system is skew when the advecting field
is divergence free. For H + N, H symmetric positive definite and N skew,
the generalized conjugate gradient method (Concus & Golub 1976, Widlund 1978)
is a three-term recurrence on the exact H^-1, the FDM: one FDM application
and one matvec of N per iteration, no Krylov basis, and H + N never formed.
H is given as its diagonal d plus a sparse S (M_i/dt and S_i in the scheme).
A pure function of (d, S, N, b, x0, M), it reruns bitwise; its residuals
b - H x - N x are recomputed fresh, and the S x and N x of the one it
returns are handed out with it, so the caller need not form them again.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpteqr, dstemr

__all__ = ["SolveResult", "SolverError", "SeparableSolver", "tridiagonal", "solve_cgw"]

# Cap on CGW iterations per solve when the caller sets none: the prediction
# needs 3-4 per component in 2D and 5-6 in 3D, and advecting fields 1000
# times the manufactured ones converge in 142 (vortex2d, graded 128^2, dt 1/32).
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
    residual_vector the b - A x it comes from, recomputed fresh. Sx and Nx
    are the products S x and N x of the split A = diag(d) + S + N that
    residual_vector was formed from, so a caller can reuse them.
    """

    def __init__(self, x, iterations, residual, residual_vector, Sx, Nx):
        self.x = x
        self.iterations = iterations
        self.residual = residual
        self.residual_vector = residual_vector
        self.Sx = Sx
        self.Nx = Nx

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


def _modes(K, B):
    """Eigenpairs (ascending) of K v = lam diag(B) v with V^T diag(B) V = I.

    A chain with a wall (a nonzero end row sum) and two or more cells is
    positive definite: MRRR (dstemr, O(n^2)) on T = B^-1/2 K B^-1/2, then
    V = B^-1/2 Z. On some mildly graded long chains (256 cells at 1.075-1.09)
    its small eigenvalues are wrong, and K^-1 1 through the modes leaves a
    relative residual near 1, not <= 5e-10. Above 1e-6, dpteqr (relatively
    accurate on every such T, Demmel & Kahan 1990, but O(n^3)) redoes the
    chain; LinAlgError if it fails. Neumann and 1-cell chains keep eigh.
    """
    if B.size < 2 or not (K[0].sum() or K[-1].sum()):
        return scipy.linalg.eigh(K, np.diag(B))
    s = 1.0 / np.sqrt(B)
    d, e = np.diag(K) * s * s, np.diag(K, 1) * s[:-1] * s[1:]
    m, vals, Z, info = dstemr(d, np.append(e, 0.0), 0, 0.0, 0.0, 0, 0)
    if info == 0 and m == B.size:
        V, ones = s[:, None] * Z, np.ones(B.size)
        if np.linalg.norm(K @ (V @ (V.T @ ones / vals)) - ones) <= 1e-6 * math.sqrt(B.size):
            return vals, V
    vals, _, Z, info = dpteqr(d, e, np.empty(K.shape), compute_z=2)
    if info:
        raise np.linalg.LinAlgError(f"dpteqr failed (info={info}) on a positive definite chain of {B.size} cells")
    return vals[::-1], s[:, None] * Z[:, ::-1]


class SeparableSolver:
    """Exact inverse of shift * (x)B_a + sum_a K_a (x) (x)_{b != a} B_b.

    stiffness[a] is the dense 1D matrix K_a, mass[a] the diagonal of B_a;
    vectors are raveled in 'ij' order over the axes. The generalized
    eigenpairs of each axis are computed once, here, and so are the sizes
    the transforms reshape to: explicit ones (math.prod) rather than -1,
    because an axis of 0 cells makes a 0-size block whose other extent -1
    cannot infer. When every chain is Neumann and non-empty, solve at
    shift 0 drops the all-constant mode: the pseudo-inverse.
    """

    def __init__(self, stiffness, mass):
        self.shape = shape = tuple(b.size for b in mass)
        # the zero end-row test of _modes; a 0-size chain has no rows, and its operator no modes
        self._singular = all(K.size > 0 and not (K[0].sum() or K[-1].sum()) for K in stiffness)
        self._plan = []  # per axis: its modes, its length, the sizes of the axes before and after it
        lam = 0.0
        for a, (K, B) in enumerate(zip(stiffness, mass)):
            # ascending, so mode 0 of a Neumann axis is the constant one
            vals, vecs = _modes(K, B)
            self._plan.append((vecs, shape[a], math.prod(shape[:a]), math.prod(shape[a + 1 :])))
            lam = np.add.outer(lam, vals) if a else vals
        self._eigenvalues = lam
        self._reciprocal = None  # (shift, 1 / (shift + eigenvalues))

    def _transform(self, x, transpose):
        """(x)_a W_a x for W_a = V_a^T (transpose) or V_a; x may have any shape of the solver's size."""
        last = len(self.shape) - 1
        for a, (vecs, n, before, after) in enumerate(self._plan):
            W = vecs.T if transpose else vecs
            if a == 0:
                x = W @ x.reshape(n, after)
            elif a == last:
                x = x.reshape(before, n) @ W.T
            else:
                x = np.matmul(W, x.reshape(before, n, after))
        return x

    def solve(self, b, shift=0.0):
        """Apply the inverse to b, or the pseudo-inverse where the operator is singular."""
        cached = self._reciprocal
        if cached is None or cached[0] != shift:
            denom = shift + self._eigenvalues
            if self._singular and shift == 0:
                denom[(0,) * len(self.shape)] = np.inf
            cached = self._reciprocal = (shift, 1.0 / denom)
        y = self._transform(b, True)
        y *= cached[1].reshape(y.shape)
        return self._transform(y, False).ravel()


def solve_cgw(d, S, N, b, M, *, tol=1e-10, maxiter=None, x0=None):
    """Generalized conjugate gradients (Concus & Golub 1976, Widlund 1978) for (diag(d) + S + N) x = b, N skew.

    H = diag(d) + S is the symmetric positive definite part, with d its
    diagonal array and S a symmetric @ operand; N is the skew part (any @
    operand) and M applies H^-1 and returns a new array, which the solver
    updates in place. Each iteration is one M call and one N matvec:
    z_k = M r_k, rho_k = z_k . r_k, omega_1 = 1,
    omega_{k+1} = 1 / (1 + rho_k / (rho_{k-1} omega_k)),
    x_{k+1} = x_{k-1} + omega_{k+1} (z_k + x_k - x_{k-1}) and
    r_{k+1} = (1 - omega_{k+1}) r_{k-1} - omega_{k+1} N z_k, in place: the
    (H + N) z_k - r_k of the recurrence is N z_k as M is the exact H^-1.
    Once the recurrence residual reaches tol ||b||, b - H x - N x is
    recomputed (an inexact M shows up here), and the recurrence restarts
    from it while it stays above. The result hands out the S x and N x of
    the last recomputed residual, the one it returns. maxiter caps the total
    number of iterations (MAX_ITERATIONS when None). Raises SolverError when
    rho_k <= 0 (M is not positive definite) or when the recomputed
    relative residual stays above tol.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(b.size), 0, 0.0, np.zeros(b.size), np.zeros(b.size), np.zeros(b.size))
    maxiter = MAX_ITERATIONS if maxiter is None else maxiter
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)

    def fresh_residual(x):
        Sx, Nx = S @ x, N @ x
        return b - (d * x + Sx) - Nx, Sx, Nx

    r, Sx, Nx = fresh_residual(x)
    target, iterations = tol * bnorm, 0
    # ||r|| as np.linalg.norm forms it, sqrt(r . r), without its call overhead
    while (rnorm := math.sqrt(r @ r)) > target and iterations < maxiter:
        # a (re)start: omega_1 = 1 drops x_{k-1} and r_{k-1} from the first update
        x_prev, r_prev, rho_prev = x.copy(), r.copy(), None
        while rnorm > target and iterations < maxiter:
            z = M(r)
            rho = float(z @ r)
            if not rho > 0.0:
                raise SolverError(f"CGW broke down: z.r = {rho:.3e} <= 0, the preconditioner is not positive definite",
                                  iterations, rnorm / bnorm)
            omega = 1.0 if rho_prev is None else 1.0 / (1.0 + rho / (rho_prev * omega))
            Nz = N @ z
            Nz *= omega
            r_prev *= 1.0 - omega
            r_prev -= Nz
            # z is not read again: it holds omega (z + x) for the update of x
            z += x
            z *= omega
            x_prev *= 1.0 - omega
            x_prev += z
            x, x_prev, r, r_prev, rho_prev = x_prev, x, r_prev, r, rho
            iterations += 1
            rnorm = math.sqrt(r @ r)
        r, Sx, Nx = fresh_residual(x)
    residual = rnorm / bnorm
    if not residual <= tol:
        raise SolverError("CGW did not converge", iterations, residual)
    return SolveResult(x, iterations, residual, r, Sx, Nx)
