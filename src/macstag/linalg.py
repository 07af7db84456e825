"""Deterministic Krylov solvers for the nonsymmetric prediction systems.

Jacobi-preconditioned BiCGStab carries the prediction systems, with
restarted GMRES as the fallback when it breaks down or stalls. The
iteration is a pure function of (A, b, x0), so reruns are bitwise
reproducible. Reported residuals are always recomputed from a fresh matvec,
never trusted from the recurrence. The pressure Poisson solve is exact and
lives in the projection module.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

__all__ = ["SolveResult", "SolverError", "solve_nonsymmetric", "solve_gmres"]


class SolverError(RuntimeError):
    """Raised when an iterative solve breaks down or runs out of iterations."""

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, relative residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class SolveResult:
    """Solution vector plus honest convergence data."""

    def __init__(self, x, iterations, residual):
        self.x = x
        self.iterations = iterations
        self.residual = residual

    def __repr__(self):
        return f"SolveResult(iterations={self.iterations}, residual={self.residual:.3e})"


def _true_residual(A, b, x, bnorm):
    r = b - A @ x
    return r, float(np.linalg.norm(r)) / bnorm


def solve_nonsymmetric(A, b, *, tol=1e-10, maxiter=None, x0=None):
    """BiCGStab with Jacobi preconditioning for the prediction systems."""
    b = np.asarray(b, dtype=float)
    n = b.size
    if maxiter is None:
        maxiter = max(200, 20 * n)
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0)

    diag = A.diagonal()
    if np.all(np.abs(diag) > 0):
        minv = 1.0 / diag
    else:
        minv = np.ones(n)

    r = b - A @ x
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    iterations = 0
    residual = float(np.linalg.norm(r)) / bnorm
    tiny = np.finfo(float).tiny
    while iterations < maxiter:
        iterations += 1
        rho_next = float(rhat @ r)
        if abs(rho_next) < tiny:
            raise SolverError("BiCGStab breakdown (rho)", iterations, residual)
        beta = (rho_next / rho) * (alpha / omega)
        rho = rho_next
        p = r + beta * (p - omega * v)
        phat = minv * p
        v = A @ phat
        denom = float(rhat @ v)
        if abs(denom) < tiny:
            raise SolverError("BiCGStab breakdown (rhat.v)", iterations, residual)
        alpha = rho / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) <= tol * bnorm:
            x += alpha * phat
            rt, res_t = _true_residual(A, b, x, bnorm)
            if res_t <= tol:
                return SolveResult(x, iterations, res_t)
            r = rt
            residual = res_t
            continue
        shat = minv * s
        t = A @ shat
        tt = float(t @ t)
        if tt < tiny:
            raise SolverError("BiCGStab breakdown (t.t)", iterations, residual)
        omega = float(t @ s) / tt
        if abs(omega) < tiny:
            raise SolverError("BiCGStab breakdown (omega)", iterations, residual)
        x += alpha * phat + omega * shat
        r = s - omega * t
        residual = float(np.linalg.norm(r)) / bnorm
        if residual <= tol:
            rt, res_t = _true_residual(A, b, x, bnorm)
            if res_t <= tol:
                return SolveResult(x, iterations, res_t)
            r = rt
            residual = res_t
    raise SolverError("BiCGStab did not converge", iterations, residual)


def solve_gmres(A, b, *, tol=1e-10, maxiter=None, x0=None, restart=50):
    """Restarted GMRES fallback for prediction systems BiCGStab gives up on."""
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(b.size), 0, 0.0)
    if maxiter is None:
        maxiter = max(200, 20 * b.size)
    count = {"n": 0}

    def cb(_):
        count["n"] += 1

    x, info = spla.gmres(
        A, b, x0=x0, rtol=tol, atol=0.0, restart=restart, maxiter=maxiter,
        callback=cb, callback_type="pr_norm",
    )
    _, res_t = _true_residual(A, b, x, bnorm)
    if info != 0 or res_t > tol:
        raise SolverError("GMRES did not converge", count["n"], res_t)
    return SolveResult(x, count["n"], res_t)
