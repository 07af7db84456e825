"""Discrete gradient, divergence, diffusion and convection on a MAC grid.

All matrices act on the reduced velocity vector that stacks the interior
faces of every direction (boundary faces carry the homogeneous Dirichlet
value and are eliminated). Conventions:

    gradient   (grad p)_sigma = (p_plus - p_minus) / d_sigma, signed along +e_i
    divergence (div u)_K = (1/|K|) sum_{faces} |sigma| u_sigma n_out
    diffusion  S_i is the symmetric stiffness block of component i, so that
               u . S_i u is the component's W^{1,2} seminorm squared and
               (-Lap u)_sigma = (S_i u)_sigma / |D_sigma|
    convection C_i(a) is the weak flux form: row sigma holds
               sum_eps F_eps (w_sigma + w_neighbor)/2 with F_eps the mean of
               the two adjacent primal-face fluxes of the advecting field a.

Vectors are raveled in 'ij' order, axis 0 outermost. An interior face of
direction i, in the slab [1:-1] along axis i, lies between the cells [:-1]
and [1:] along i. G and D are FaceCell operators on those slabs, held as
their per-axis 1D weights: a face row of G weights them -1/dual_w_i and
+1/dual_w_i of the face, and D is the transpose of the same pattern with
the weights +1/h_i and -1/h_i of the row cell. Their products are slab
arithmetic that sums each row in the column order of its CSR row, so they
give the bits of the CSR matvec; the CSR matrix itself (two entries per
face row in ascending columns) is built only by tocsr(), for the exported
matrices and the dense oracles. The grid is a tensor product of 1D
partitions, and the stiffness block is the Kronecker sum

    S_i = sum_a K_a (x) (x)_{b != a} B_b

of 1D chain stiffness matrices K_a and diagonal masses B_b. Every chain is
kept as its (conductances, masses), the one format from here to LAPACK:
K_a = linalg.tridiagonal(c_a) has the diagonal c_a[:-1] + c_a[1:] and the
off-diagonals -c_a[1:-1]. Along axis i the unknowns are the interior faces,
coupled through the cells (conductances 1/h_i, masses dual_w_i[1:-1]);
across it they are cell rows whose outer ones sit half a cell from a
Dirichlet wall (conductances 1/dual_w_a, masses h_a). laplace_chains[i]
holds block i's chains: S_i, its mass M_i (the outer product of the
masses) and the separable inverse of M_i/dt + S_i in the scheme all come
from it. The masses are held once, packed in mass_velocity; mass_blocks[i]
is a view of its block i. poisson_chains holds the Neumann chains over the
cells (zero end conductances, masses h_a) whose Kronecker sum is the
pressure Poisson matrix G^T M_v G. _kron_sum writes a Kronecker sum
straight from the conductances onto its diagonals (below): S_i is a
dia_matrix on the offsets that C_i uses.

With cell volumes M_p and dual volumes M_v as weights, M_v G = -(M_p D)^T
holds entrywise, which is the discrete duality the projection step relies
on. The skew identity v.C(a)w + w.C(a)v = sum_sigma v_sigma w_sigma (net
dual-cell flux) vanishes whenever div a = 0.

C_i(a) is linear in a, and its sparsity pattern depends on the grid alone
(Verstappen & Veldman, JCP 2003): row sigma couples sigma to itself and to
its neighbours along each axis. So block i lives on at most 2d+1 fixed
diagonals (DIA storage, Saad 2003, section 3.4), at the offsets 0 and
+-stride_j of its interior-face shape, an axis with one entry dropped. S_i
couples the same neighbours and is stored on the same offsets: band a of
K_a, times the masses of the other axes, fills the slots 0 and +-stride_a,
and the slots of a band that wrap across axis a hold zero.

convection_block(a, i) writes the diagonals of block i by slab arithmetic on
views of the packed a, whose wall faces are zero; the prediction and
convection_form fill one block at a time. With both factors 1/2 (the mean
of two primal-face fluxes, and the half sum of the two velocities) folded
into grid-only weights, 1/4 times products of cell widths, the flux axes go:

    axis i     on the cells along i, F = c a_i[left face] + c a_i[right
               face], a wall face adding nothing; then diag -= F[:-1],
               diag += F[1:], slot +stride_i takes F[q] for q >= 1 and slot
               -stride_i takes -F[q + 1] for q <= n_i - 3
    axis j     (ascending, n_j > 1) on the dual faces across j, F = c_L
               a_j[:-1 along i] + c_R a_j[1: along i]; then diag[1: along j]
               -= F, diag[:-1 along j] += F, slot +stride_j [1:] = F and
               slot -stride_j [:-1] = -F

That order, axis i, the others ascending, the minus side before the plus
side, is the column order of the block's CSR row, so the diagonal sums the
same terms in the same order and gives its bits. Its matvec, like that of
S_i, adds the diagonals in ascending offset order, the sorted-column order
of CSR, so it gives the same bits as the CSR form of the block. pack and
unpack address the interior faces of direction i as the slab [1:-1] along
axis i.

inner, seminorm_sq and convection_form sum by numpy loops (np.einsum,
linalg.dot), so they give the same bits under any BLAS thread count.
"""

from __future__ import annotations

import math
import os
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .fields import PressureField, VelocityField
from .grid import MacGrid
from .linalg import dot

__all__ = ["FaceCell", "Operators"]


def _dia_offsets(shape):
    """The diagonals of a stencil on neighbours along each axis: 0 and +-stride_a for every axis longer than 1."""
    strides = [math.prod(shape[a + 1 :]) for a, n in enumerate(shape) if n > 1]
    return np.array(sorted({0, *strides, *(-s for s in strides)}))


def _along(axis, s, dim):
    """The index tuple that takes slice s along one axis and everything along the others."""
    return tuple(s if a == axis else slice(None) for a in range(dim))


def _kron_sum(conductances, mass):
    """sum_a K_a (x) (x)_{b != a} B_b, K_a of conductances[a], as a dia_matrix on _dia_offsets of the B_a.

    Each term's bands multiply from axis 0 on and the diagonal adds the terms
    in axis order, as the CSR sum of sp.kron products does; the slots of a
    band that wrap across an axis hold zero.
    """
    shape = [B.size for B in mass]
    size, offsets = math.prod(shape), _dia_offsets(shape)
    data = np.zeros((offsets.size, size))
    slot = {offset: k for k, offset in enumerate(offsets)}
    for a, c in enumerate(conductances):
        # column k of a band holds K[k, k], K[k - 1, k] (offset +stride) or K[k + 1, k] (offset -stride)
        bands = [(0, c[:-1] + c[1:])]
        if shape[a] > 1:
            stride = math.prod(shape[a + 1 :])
            bands += [(stride, np.append(0.0, -c[1:-1])), (-stride, np.append(-c[1:-1], 0.0))]
        for offset, band in bands:
            factors = [band if b == a else B for b, B in enumerate(mass)]
            data[slot[offset]] += reduce(np.multiply.outer, factors).ravel()
    return sp.dia_matrix((data, offsets), shape=(size, size))


class FaceCell:
    """A two-point operator between the cells and the interior faces, held as its per-axis 1D weights.

    The row of an interior face of direction i holds weights[i] = (w_lo,
    w_hi), 1D along axis i, at the cells [:-1] and [1:] along i on its two
    sides; with transposed=True the operator is that matrix's transpose,
    from faces to cells. `@` applies it to a vector by slabs and tocsr()
    builds its matrix, which nothing holds. A product sums each row in the
    column order of its CSR row, from 0.0, so it gives the bits of the CSR
    product: a face row adds w_hi P[hi] to w_lo P[lo]; a cell row takes the
    directions ascending and, in each, its left face (the cell is the hi
    side) before its right one.
    """

    def __init__(self, ops: Operators, weights, transposed=False):
        d = ops.grid.dim
        self.transposed = transposed
        self.shape = (ops.n_cells, ops.n_velocity) if transposed else (ops.n_velocity, ops.n_cells)
        self._cells = ops.grid.shape
        # per direction: its cell slabs, its weights shaped along its axis, and its face block's slice and
        # shape; ops itself is not held, so building one leaves no reference cycle
        self._planes = [(cuts, tuple(w.reshape([-1 if a == i else 1 for a in range(d)]) for w in pair),
                         slice(ops.offsets[i], ops.offsets[i + 1]), shape)
                        for i, (cuts, pair, shape) in enumerate(zip(ops._cuts, weights, ops._block_shapes))]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.shape[1:]:
            raise ValueError(f"operator of shape {self.shape} applied to an array of shape {x.shape}")
        if self.transposed:
            out = np.zeros(self._cells)
            for (lo, hi, _), (w_lo, w_hi), faces, shape in self._planes:
                v = x[faces].reshape(shape)
                out[hi] += w_hi * v
                out[lo] += w_lo * v
            return out.ravel()
        P, out = x.reshape(self._cells), np.empty(self.shape[0])
        for (lo, hi, _), (w_lo, w_hi), faces, shape in self._planes:
            block = out[faces].reshape(shape)
            np.multiply(P[lo], w_lo, out=block)
            block += w_hi * P[hi]
        out += 0.0  # as a CSR row sum starts from 0.0: a sum -0.0 of two -0.0 terms is stored as +0.0
        return out

    def tocsr(self) -> sp.csr_matrix:
        """The operator's CSR matrix, built afresh: two entries per face row, in ascending columns.

        scipy keeps the indices int32 where they fit, the dtype the sp.kron form has.
        """
        n_faces, n_cells = self.shape[::-1] if self.transposed else self.shape
        cells = np.arange(n_cells).reshape(self._cells)
        cols, vals = [], []
        for (lo, hi, _), pair, _, shape in self._planes:
            cols.append(np.stack([cells[lo], cells[hi]], axis=-1).ravel())
            vals.append(np.broadcast_to(np.stack(pair, axis=-1), (*shape, 2)).ravel())
        indptr = np.arange(0, 2 * n_faces + 1, 2)
        faces = sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), (n_faces, n_cells))
        return faces.T.tocsr() if self.transposed else faces


class Operators:
    """Assembled discrete operators bound to one grid."""

    def __init__(self, grid: MacGrid):
        if all(n == 1 for n in grid.shape):
            shape = "x".join(str(n) for n in grid.shape)
            raise ValueError(f"grid {shape} has no interior face: need at least 2 cells along one axis")
        self.grid = grid
        d = grid.dim

        self.n_cells = int(np.prod(grid.shape))
        self.cell_vol = grid.cell_volumes.ravel()

        # per axis: the slabs [:-1], [1:] and [1:-1] along it; the interior faces of direction i are
        # every face but the two wall slabs along axis i, its slab [1:-1]
        self._cuts = [[_along(a, s, d) for s in (slice(None, -1), slice(1, None), slice(1, -1))] for a in range(d)]
        self._slabs = [mid for _, _, mid in self._cuts]
        self._block_shapes = [tuple(n - (a == i) for a, n in enumerate(grid.shape)) for i in range(d)]
        # per block i: the edge conductances and masses of the 1D chains whose Kronecker sum is S_i
        self.laplace_chains = []
        for i in range(d):
            conductances = [1.0 / (grid.h[a] if a == i else grid.dual_w[a]) for a in range(d)]
            mass = [grid.dual_w[a][1:-1] if a == i else grid.h[a] for a in range(d)]
            self.laplace_chains.append((conductances, mass))
        self.block_sizes = [math.prod(shape) for shape in self._block_shapes]
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        self.n_velocity = int(self.offsets[-1])
        self.mass_velocity = np.concatenate([reduce(np.multiply.outer, m).ravel() for _, m in self.laplace_chains])
        self.mass_blocks = [self.block(self.mass_velocity, i) for i in range(d)]

        inv_dw, inv_h = [1.0 / dw[1:-1] for dw in grid.dual_w], [1.0 / h for h in grid.h]
        self.G = FaceCell(self, [(-w, w) for w in inv_dw])
        self.D = FaceCell(self, [(w[:-1], -w[1:]) for w in inv_h], transposed=True)
        self.laplace_blocks = [_kron_sum(*chains) for chains in self.laplace_chains]
        self.poisson_chains = ([np.concatenate([[0.0], 1.0 / dw[1:-1], [0.0]]) for dw in grid.dual_w], grid.h)

        # per block i: the diagonals C_i is stored on, which S_i shares, and its flux axes
        self.dia_offsets = [_dia_offsets(shape) for shape in self._block_shapes]
        self._convection = [self._convection_plan(i) for i in range(d)]

    # -- vector packing ----------------------------------------------------

    def pack(self, u: VelocityField, what="velocity field") -> np.ndarray:
        """Interior-face DOF vector of a velocity field: the slab [1:-1] along axis i of component i.

        A field from another grid raises ValueError, naming its other face
        shapes or, where the shapes agree, the first axis whose face
        coordinates differ.
        """
        shapes, wanted = [c.shape for c in u.components], [self.grid.face_shape(i) for i in range(self.grid.dim)]
        if shapes != wanted:
            raise ValueError(f"{what} has face shapes {shapes}, the grid {self.grid.shape} has {wanted}")
        if u.grid is not self.grid:
            moved = [a for a, (x, y) in enumerate(zip(u.grid.axes, self.grid.axes)) if not np.array_equal(x, y)]
            if moved:
                raise ValueError(f"{what} is on another grid: face coordinates differ along axis {moved[0]}")
        return np.concatenate([c[slab].ravel() for c, slab in zip(u.components, self._slabs)])

    def unpack(self, vec: np.ndarray) -> VelocityField:
        """Velocity field with the given interior values and zero boundary faces."""
        comps = [np.zeros(self.grid.face_shape(i)) for i in range(self.grid.dim)]
        for i, (full, slab, shape) in enumerate(zip(comps, self._slabs, self._block_shapes)):
            full[slab] = self.block(vec, i).reshape(shape)
        return VelocityField(self.grid, comps)

    def block(self, vec: np.ndarray, i: int) -> np.ndarray:
        """The direction-i entries of a packed vector, as a view."""
        return vec[self.offsets[i] : self.offsets[i + 1]]

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Mass-weighted inner product of two packed vectors (velocity_inner on fields), by one
        numpy loop over the three vectors: no temporary, and the same bits under any thread count."""
        return float(np.einsum("i,i,i->", a, b, self.mass_velocity))

    def norm(self, v: np.ndarray) -> float:
        """Mass-weighted norm of a packed vector, sqrt(inner(v, v))."""
        return math.sqrt(self.inner(v, v))

    def seminorm_sq(self, vec: np.ndarray) -> float:
        """Squared W^{1,2} seminorm sum_i v_i . S_i v_i of a packed vector (w1q_norm(., 2)**2 on fields)."""
        return sum(dot(self.block(vec, i), S @ self.block(vec, i)) for i, S in enumerate(self.laplace_blocks))

    # -- assembly ----------------------------------------------------------

    def _convection_plan(self, i):
        """The flux axes j of block i, as (j, weights, stride_j, or 0 where no +-stride_j slot is written).

        The weights are grid-only: on axis i, a cell's weight is 1/4 of its
        widths across i; across j, a dual face takes (c_L, c_R), 1/4 of the
        widths of the cells left and right of it along i, none along j. Both
        factors 1/2, of the mean of two primal-face fluxes and of the half
        sum of two velocities, are folded in: scaling by 1/4 is exact.
        """
        h, d, shape = self.grid.h, self.grid.dim, self._block_shapes[i]

        def quarter(factors):
            return 0.25 * reduce(np.multiply.outer, factors)

        def stride(j):
            return math.prod(shape[j + 1 :]) if shape[j] > 1 else 0

        ones = np.ones(1)
        plan = [(i, quarter([ones if a == i else h[a] for a in range(d)]), stride(i))]
        # axes j with one cell have only wall planes across j, which carry no flux
        for j in (j for j in range(d) if j != i and shape[j] > 1):
            cells = [[ones if a == j else w if a == i else h[a] for a in range(d)] for w in (h[i][:-1], h[i][1:])]
            plan.append((j, [quarter(factors) for factors in cells], stride(j)))
        return plan

    def convection_block(self, a: np.ndarray, i: int):
        """The weak convection matrix C_i(a) of direction i, on its fixed diagonals.

        a is a packed vector. Row sigma of block i applies sum over the dual
        faces of sigma of F_eps * (w_sigma + w_sigma')/2 with outward
        orientation; F_eps is the mean of the two primal-face fluxes of a
        adjacent to the dual face, with zero boundary faces. Each call writes
        a fresh data array by slab arithmetic on views of a (see the module
        docstring), flux axis i first, then the others ascending, the minus
        side before the plus side: the column order of a CSR row, so every
        diagonal entry is summed in the order, and to the bits, of the CSR
        form of the block. The prediction fills one block just before its
        solve, so no two blocks are held at once.
        """
        shape, offsets, size = self._block_shapes[i], self.dia_offsets[i], self.block_sizes[i]
        data = np.zeros((offsets.size, size))
        slots = dict(zip(offsets.tolist(), data.reshape(offsets.size, *shape)))
        diag = slots[0]
        for j, weights, stride in self._convection[i]:
            lo, hi, mid = self._cuts[j]
            aj = self.block(a, j).reshape(self._block_shapes[j])
            if j == i:
                # the cells along i: the left face's flux, then the right one's; a wall face adds nothing
                F, flux = np.zeros(self.grid.shape), weights * aj
                F[hi] += flux
                F[lo] += flux
                diag -= F[lo]
                diag += F[hi]
                F = F[mid]  # the cells between two interior faces
            else:
                # the dual faces across j: the halves of the cells left and right along i
                F = weights[0] * aj[self._cuts[i][0]] + weights[1] * aj[self._cuts[i][1]]
                diag[hi] -= F
                diag[lo] += F
            if stride:  # added to zeros, as a CSR row sum starts from 0.0, so a flux -0.0 is stored as +0.0
                slots[stride][hi] += F
                slots[-stride][lo] -= F
        return sp.dia_matrix((data, offsets), shape=(size, size))

    # -- operator application ----------------------------------------------

    def grad(self, p: PressureField) -> VelocityField:
        """Discrete pressure gradient; zero on boundary faces."""
        return self.unpack(self.G @ p.data.ravel())

    def div(self, u: VelocityField) -> PressureField:
        """Discrete divergence, cell by cell."""
        return PressureField(self.grid, (self.D @ self.pack(u)).reshape(self.grid.shape))

    def neg_laplacian(self, u: VelocityField) -> VelocityField:
        """Minus the discrete vector Laplacian with zero wall values."""
        vec = self.pack(u)
        return self.unpack(np.concatenate([S @ self.block(vec, i) for i, S in enumerate(self.laplace_blocks)])
                           / self.mass_velocity)

    def convection_form(self, a: VelocityField, w: VelocityField, v: VelocityField) -> float:
        """Trilinear form: the weak convection of w by a tested against v, one C_i(a) at a time."""
        av, wv, vv = self.pack(a), self.pack(w), self.pack(v)
        total = 0.0
        for i in range(self.grid.dim):
            total += dot(self.block(vv, i), self.convection_block(av, i) @ self.block(wv, i))
        return total

    # -- debugging exports ---------------------------------------------------

    def export_matrices(self, out_dir):
        """Write the assembled matrices as 'row col value' text files."""
        os.makedirs(out_dir, exist_ok=True)
        items = [("gradient", self.G.tocsr()), ("divergence", self.D.tocsr())]
        items += [(f"diffusion_{i}", b) for i, b in enumerate(self.laplace_blocks)]
        paths = []
        for name, mat in items:
            coo = mat.tocoo()
            order = np.lexsort((coo.col, coo.row))
            path = os.path.join(out_dir, f"{name}.txt")
            entries = zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist())
            with open(path, "w", newline="\n") as fh:
                fh.write(f"# {mat.shape[0]} {mat.shape[1]} {coo.nnz}\n")
                fh.writelines(map("%d %d %.17g\n".__mod__, entries))
            paths.append(path)
        return paths
