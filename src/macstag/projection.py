"""Discrete Helmholtz decomposition and projection onto divergence-free fields.

Any admissible velocity w splits as w = v + grad psi with div v = 0 and psi
unique up to a constant (pinned by zero volume-weighted mean). psi solves
the cell-centered Poisson problem G^T M_v G psi = G^T M_v w, whose kernel is
the constant pressure; the right-hand side is compatible by construction
because column sums of the divergence vanish. By the duality M_v G =
-(M_p D)^T, G^T M_v v is formed as -M_p (D v): the projector holds no matrix.

On a tensor-product grid G^T M_v G = sum_a K_a (x) (x)_{b != a} H_b, a
Kronecker sum of 1D Neumann chains K_a with the diagonal cell-width
matrices H_b. Operators.poisson_chains gives them as (conductances, masses),
and linalg.SeparableSolver inverts their sum exactly by fast
diagonalization. Every chain has zero end conductances, so the solver sees
the operator is singular and applies the pseudo-inverse: the all-constant
mode is dropped, which leaves the result with zero volume mean.

decompose works on the unknowns themselves: w and v are packed interior-face
vectors (Operators.pack) and psi is the flat cell vector. It is iterative
refinement on v rather than on psi (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 12). From v = w and psi = 0, each pass solves
G^T M_v G phi = G^T M_v v and moves G phi from v to psi; the second pass
takes off the rounding of the first, which grows with the grading of the
grid, so D v ends at roundoff of v. The M_p D v left in v is the Poisson
residual of psi in exact arithmetic, returned relative to M_p D w: no
Poisson matrix is assembled. With passes=1 that residual is the one-solve
probe by which the scheme rejects a grid the separable solve cannot
resolve. Its norms and recentering sum by linalg.dot: whether the probe
rejects a grid cannot depend on the BLAS thread count. project and
divfree_seminorm take velocity fields and pack them once.

The projection w -> v is the discrete Leray projection. Its L2 norm is the
seminorm |w|_* = sup over divergence-free test fields of <w, v>/||v||, the
quantity the compactness diagnostics track. A dense nullspace-basis oracle
recomputes that supremum independently at desk scale.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .fields import VelocityField
from .linalg import SeparableSolver, dot
from .operators import Operators

__all__ = ["Projector", "dense_divfree_basis", "seminorm_by_basis"]

# Velocity-level passes of decompose after the first. With one, div v stays
# <= 6.4e-15 over four vortex steps on the tests' divergence probe grids; the
# first pass alone leaves up to 2.8e-9 (32 x 6 x 6 cells graded 1.3).
REFINEMENT_SWEEPS = 1


class Projector:
    """Helmholtz decomposition bound to one assembled operator set.

    The pressure Poisson solve is exact: separable transform solves, one per
    velocity-level pass; the solver applies the pseudo-inverse by itself.
    """

    def __init__(self, ops: Operators):
        self.ops = ops
        self._separable = SeparableSolver(*ops.poisson_chains)

    def decompose(self, w: np.ndarray, *, passes=1 + REFINEMENT_SWEEPS):
        """Split the packed w = v + G psi with D v = 0; returns (v, psi, residual, div).

        v is packed like w, psi is the flat cell vector with zero volume
        mean, residual is the relative Poisson residual of psi,
        ||M_p D v|| / ||M_p D w||, and div is the D v the last of the
        passes formed.
        """
        ops = self.ops
        v = np.array(w, dtype=float)
        psi = np.zeros(ops.n_cells)
        b = -ops.cell_vol * (ops.D @ v)  # G^T M_v v
        bnorm = math.sqrt(dot(b, b)) or 1.0
        for _ in range(passes):
            phi = self._separable.solve(b)
            v -= ops.G @ phi
            psi += phi
            div = ops.D @ v
            b = -ops.cell_vol * div
        vol = ops.cell_vol
        psi -= dot(vol, psi) / vol.sum()
        return v, psi, math.sqrt(dot(b, b)) / bnorm, div

    def project(self, w: VelocityField) -> VelocityField:
        """Divergence-free part of w (discrete Leray projection)."""
        return self.ops.unpack(self.decompose(self.ops.pack(w))[0])

    def divfree_seminorm(self, w: VelocityField) -> float:
        """|w|_*: the L2 norm of the divergence-free part of w.

        Equals sup <w, v> / ||v|| over discretely divergence-free v, and is
        zero exactly on discrete gradients.
        """
        return self.ops.norm(self.decompose(self.ops.pack(w))[0])


def dense_divfree_basis(ops: Operators) -> np.ndarray:
    """Orthonormal (Euclidean) basis of the divergence-free subspace, dense.

    Columns span the kernel of the divergence matrix. Desk-scale only: the
    dense SVD behind null_space is the independent oracle for the projector.
    """
    return scipy.linalg.null_space(ops.D.tocsr().toarray())


def seminorm_by_basis(ops: Operators, w: VelocityField, basis=None) -> float:
    """Oracle for |w|_*: explicit supremum over a dense divergence-free basis.

    Solves the normal equations of the mass-weighted least-squares projection
    onto span(basis) and returns the weighted norm of that projection.
    """
    if basis is None:
        basis = dense_divfree_basis(ops)
    m = ops.mass_velocity
    wv = ops.pack(w)
    mz = basis * m[:, None]
    gram = basis.T @ mz
    coef = scipy.linalg.solve(gram, mz.T @ wv, assume_a="pos")
    proj = basis @ coef
    return math.sqrt(max(float(proj @ (m * proj)), 0.0))
