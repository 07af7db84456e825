"""Linear solvers of the scheme: an exact separable solver and generalized CG.

On a tensor-product grid the pressure Poisson matrix and the symmetric part
M_i/dt + S_i of every prediction block are separable: shift * (x)_a B_a +
sum_a K_a (x) (x)_{b != a} B_b, with 1D tridiagonal stiffness matrices K_a
and diagonal masses B_a. A chain comes as (c_a, B_a), its edge conductances
and masses, the format Operators keeps: K_a = tridiagonal(c_a). The fast
diagonalization method (Lynch, Rice & Thomas 1964) inverts such an operator
exactly: with K_a V_a = B_a V_a L_a and V_a^T B_a V_a = I, its inverse is
(x)V_a diag(1/(shift + sum_a L_a)) (x)V_a^T. Each transform (x)W_a is one
BLAS matrix product per axis on the contiguous array: the first axis
multiplies from the left, the last from the right, and only a middle axis in
3D needs a stacked matmul, so no axis is ever moved. Of the spectrum only the
per-axis L_a are kept, and 1/(shift + sum_a L_a) for the last shift. When every chain is Neumann
(zero end conductances) the operator at shift 0 is singular on the
constants, and the solver applies its pseudo-inverse: the all-constant mode
is dropped, which leaves the result with zero mass-weighted mean.

The convection block of a prediction system is skew when the advecting field
is divergence free. For H + N, H symmetric positive definite and N skew,
the generalized conjugate gradient method (Concus & Golub 1976, Widlund 1978)
is a three-term recurrence on the exact H^-1, the FDM: one FDM application
and one matvec of N per iteration, no Krylov basis, and H + N never formed.
H is given as its diagonal d plus a sparse S (M_i/dt and S_i in the scheme).
A pure function of (d, S, N, b, x0, M), it reruns bitwise; its residuals
b - H x - N x are recomputed fresh, and the S x and N x of the one it
returns are handed out with it, so the caller need not form them again.

Every 1D sum of the march is a numpy loop, never a BLAS one: dot is
np.einsum("i,i->"), and a norm is sqrt(dot(v, v)). A threaded BLAS ddot or
dnrm2 splits its sum by thread and so gives other bits under another
OPENBLAS_NUM_THREADS (Demmel & Nguyen, ARITH 21, 2013); einsum sums in one
thread. The GEMMs of the transforms give the same bits at any thread count.
Every failure here is a SchemeError, LAPACK's wrapped once in SeparableSolver;
a failed iterative solve is the subclass SolverError.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpteqr, dstemr

__all__ = ["SchemeError", "SolveResult", "SolverError", "SeparableSolver", "dot", "tridiagonal", "solve_cgw"]

# The one cap on CGW iterations per solve, read by solve_cgw at each call: the prediction
# needs 3-4 per component in 2D and 5-6 in 3D, and advecting fields 1000 times the
# manufactured ones converge in 142 (vortex2d, graded 128^2, dt 1/32).
MAX_ITERATIONS = 500


def dot(a, b) -> float:
    """The plain dot product a . b of two 1D arrays, summed by a numpy loop: the same bits under any thread count."""
    return float(np.einsum("i,i->", a, b))


class SchemeError(RuntimeError):
    """Raised when a step violates one of the scheme's structural guarantees, when a step is too
    short for the prediction solve's sums of squares, when the separable pressure solve cannot
    resolve the grid the scheme is built on, or when LAPACK fails on a chain of a SeparableSolver."""


class SolverError(SchemeError):
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


def _modes(c, B):
    """Eigenpairs (ascending) of K v = lam diag(B) v with V^T diag(B) V = I, K = tridiagonal(c).

    A chain with a wall (a nonzero end conductance) and two or more cells is
    positive definite: MRRR (dstemr, O(n^2)) on T = B^-1/2 K B^-1/2, read off
    c, then V = B^-1/2 Z. On some mildly graded long chains (256 cells at
    1.075-1.09) its small eigenvalues are wrong, and K^-1 1 through the modes
    leaves a relative residual near 1, not <= 5e-10. Above 1e-6, dpteqr
    (relatively accurate on every such T, Demmel & Kahan 1990, but O(n^3))
    redoes the chain; LinAlgError if it fails. Neumann and 1-cell chains keep
    eigh; only eigh and the probe need the dense K.
    """
    if B.size < 2 or not (c[0] or c[-1]):
        return scipy.linalg.eigh(tridiagonal(c), np.diag(B))
    s = 1.0 / np.sqrt(B)
    d, e = (c[:-1] + c[1:]) * s * s, -c[1:-1] * s[:-1] * s[1:]
    m, vals, Z, info = dstemr(d, np.append(e, 0.0), 0, 0.0, 0.0, 0, 0)
    if info == 0 and m == B.size:
        V, ones = s[:, None] * Z, np.ones(B.size)
        if np.linalg.norm(tridiagonal(c) @ (V @ (V.T @ ones / vals)) - ones) <= 1e-6 * math.sqrt(B.size):
            return vals, V
    vals, _, Z, info = dpteqr(d, e, np.empty((B.size, B.size)), compute_z=2)
    if info:
        raise np.linalg.LinAlgError(f"dpteqr failed (info={info}) on a positive definite chain of {B.size} cells")
    return vals[::-1], s[:, None] * Z[:, ::-1]


class SeparableSolver:
    """Exact inverse of shift * (x)B_a + sum_a K_a (x) (x)_{b != a} B_b.

    K_a = tridiagonal(conductances[a]) from the m_a + 1 edge conductances of
    axis a, whose m_a masses mass[a] are the diagonal of B_a (else ValueError
    naming the axis). Vectors are raveled in 'ij' order over the axes. The
    generalized eigenpairs of each axis are computed once, here, and so are
    the sizes the transforms reshape to: explicit ones (math.prod) rather
    than -1, because an axis of 0 cells makes a 0-size block whose other
    extent -1 cannot infer. A new shift sums the per-axis eigenvalues over the
    grid into the one grid array held, its reciprocal. When every chain is
    Neumann and non-empty, solve at shift 0 drops the constant mode: the pseudo-inverse.
    LAPACK's LinAlgError on a chain is raised on as a SchemeError.
    """

    def __init__(self, conductances, mass):
        self.shape = shape = tuple(B.size for B in mass)
        self._plan = []  # per axis: its modes, its length, the sizes of the axes before and after it
        self._spectra = []  # per axis: its eigenvalues
        for a, (c, B) in enumerate(zip(conductances, mass, strict=True)):
            if c.size != B.size + 1:
                raise ValueError(f"axis {a}: a chain of {B.size} masses needs {B.size + 1} conductances, got {c.size}")
            # ascending, so mode 0 of a Neumann axis is the constant one
            try:
                vals, vecs = _modes(c, B)
            except np.linalg.LinAlgError as err:
                raise SchemeError(f"building the separable solvers failed: LinAlgError: {err}") from err
            self._plan.append((vecs, shape[a], math.prod(shape[:a]), math.prod(shape[a + 1 :])))
            self._spectra.append(vals)
        # the zero end-conductance test of _modes; a 0-size chain has no modes
        self._singular = all(B.size > 0 and not (c[0] or c[-1]) for c, B in zip(conductances, mass))
        self._reciprocal = None  # (shift, 1 / (shift + eigenvalues))

    def solve(self, b, shift=0.0):
        """Apply the inverse to b, or the pseudo-inverse where the operator is singular."""
        cached = self._reciprocal
        if cached is None or cached[0] != shift:
            denom = shift + reduce(np.add.outer, self._spectra)
            if self._singular and shift == 0:
                denom[(0,) * len(self.shape)] = np.inf
            cached = self._reciprocal = (shift, np.divide(1.0, denom, out=denom))
        # (x)V_a^T b, scaled, then (x)V_a of it; x alone holds each product's input, dropped once it is used
        x, last = b, len(self.shape) - 1
        for transpose in (True, False):
            for a, (vecs, n, before, after) in enumerate(self._plan):
                W = vecs.T if transpose else vecs
                if a == 0:
                    x = W @ x.reshape(n, after)
                elif a == last:
                    x = x.reshape(before, n) @ W.T
                else:
                    x = np.matmul(W, x.reshape(before, n, after))
            if transpose:
                x *= cached[1].reshape(x.shape)
        return x.ravel()


def solve_cgw(d, S, N, b, M, *, tol=1e-10, x0=None):
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
    recomputed in one buffer (an inexact M shows up here), and the
    recurrence restarts from it while it stays above. The result hands out
    the S x and N x of the last recomputed residual, the one it returns.
    MAX_ITERATIONS caps the total number of iterations. A b that is exactly
    zero (or empty) returns x = 0. Raises SolverError when b is nonzero but
    its sum of squares underflows to 0, when rho_k <= 0 (M is not positive
    definite) or when the recomputed relative residual stays above tol.
    """
    b = np.asarray(b, dtype=float)
    bnorm = math.sqrt(dot(b, b))
    if bnorm == 0.0:
        if b.any():  # ||b|| = 0 would make any x pass the test below
            raise SolverError(f"the right-hand side's sum of squares underflows: its largest entry is "
                              f"{np.abs(b).max():.3e}", 0, 1.0)
        return SolveResult(np.zeros(b.size), 0, 0.0, np.zeros(b.size), np.zeros(b.size), np.zeros(b.size))
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)

    def fresh_residual(x):
        # b - (d * x + Sx) - Nx in that order, in one buffer
        Sx, Nx = S @ x, N @ x
        r = d * x
        r += Sx
        np.subtract(b, r, out=r)
        r -= Nx
        return r, Sx, Nx

    r, Sx, Nx = fresh_residual(x)
    target, iterations = tol * bnorm, 0
    while (rnorm := math.sqrt(dot(r, r))) > target and iterations < MAX_ITERATIONS:
        # a (re)start: omega_1 = 1 drops x_{k-1} and r_{k-1} from the first update; the products
        # of the last fresh residual are not held through the iterations, which form new ones
        x_prev, r_prev, rho_prev, Sx, Nx = x.copy(), r.copy(), None, None, None
        while rnorm > target and iterations < MAX_ITERATIONS:
            z = M(r)
            rho = dot(z, r)
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
            del z, Nz  # not held through the next M call
            x, x_prev, r, r_prev, rho_prev = x_prev, x, r_prev, r, rho
            iterations += 1
            rnorm = math.sqrt(dot(r, r))
        del x_prev, r_prev, r  # the fresh residual reads x alone
        r, Sx, Nx = fresh_residual(x)
    residual = rnorm / bnorm
    if not residual <= tol:
        raise SolverError("CGW did not converge", iterations, residual)
    return SolveResult(x, iterations, residual, r, Sx, Nx)
