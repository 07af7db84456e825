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

The grid is a tensor product of 1D partitions, and so are G, D and S_i.
Vectors are raveled in 'ij' order, axis 0 outermost. With Delta_i the
(n_i - 1) x n_i difference (Delta p)_k = p_{k+1} - p_k along axis i, block i
of the gradient and of the divergence are

    G_i = (x)_{a<i} I  (x)  diag(1/dual_w_i[1:-1]) Delta_i  (x)  (x)_{a>i} I
    D_i = (x)_{a<i} I  (x)  -diag(1/h_i) Delta_i^T          (x)  (x)_{a>i} I

and the stiffness block is the Kronecker sum

    S_i = sum_a K_a (x) (x)_{b != a} B_b

of 1D chain stiffness matrices K_a and diagonal masses B_b. Along axis i the
unknowns are the interior faces, coupled through the cells (conductances
1/h_i, masses dual_w_i[1:-1]); across it they are cell rows whose outer ones
sit half a cell from a Dirichlet wall (conductances 1/dual_w_a, masses h_a).
Operators.laplace_factors holds those (K_a, B_a) per block, once: they build
S_i here, and the exact separable inverse of M_i/dt + S_i in the scheme.
Operators.poisson_factors holds the Neumann chains over the cells (masses
h_a) whose Kronecker sum is the pressure Poisson matrix G^T M_v G. _kron
builds each from its 1D factors' nonzeros: one CSR construction per operator.

With cell volumes M_p and dual volumes M_v as weights, M_v G = -(M_p D)^T
holds entrywise, which is the discrete duality the projection step relies
on. The skew identity v.C(a)w + w.C(a)v = sum_sigma v_sigma w_sigma (net
dual-cell flux) vanishes whenever div a = 0.

C_i(a) is linear in a, and its sparsity pattern depends on the grid alone
(Verstappen & Veldman, JCP 2003): the pattern of S_i, which also holds the
diagonal of M_i. So the operators build, once, a flux map Phi_i from the full
face arrays of a to the dual-face fluxes: per axis j, one Kronecker product
on a_j. With E_i the n_i x (n_i + 1) difference of the faces along axis i, it
has |E_i|/2 (the mean of the two faces of a cell) on axis i if j == i, else
|E_i|^T diag(h_i)/2 (the half cells beside a face) on axis i and the
interior-face selection on axis j; diag(h_a) on every other axis. A +-1/2
incidence matrix scatters the fluxes onto the pattern of S_i, whose entry
(r, c) is found by binary search over the keys r * size + c (sorted, as S_i
is canonical CSR). convection_blocks(a) is then two sparse matvecs per
direction, and its blocks share their index arrays with S_i.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.sparse as sp

from .fields import PressureField, VelocityField
from .grid import MacGrid
from .linalg import tridiagonal

__all__ = ["Operators"]


def on_pattern(S, data):
    """CSR matrix with the values data on the pattern of S, sharing its index arrays.

    The matrix keeps S.indices and S.indptr themselves (the constructor
    would keep views of them), so its structure must not be changed in place.
    """
    mat = sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape)
    mat.indices, mat.indptr = S.indices, S.indptr
    return mat


def _kron(blocks, shape):
    """One CSR matrix from blocks (factors, row, col): Kronecker products placed at (row, col).

    A factor is a dense matrix or a 1D array for its diagonal, axis 0 outermost. Their
    nonzeros multiply in numpy from axis 0 on, as in reduce(sp.kron); shared entries add.
    """
    index = np.int32 if max(shape) < 2**31 else np.int64  # indices below 2**31 fit int32, which scipy keeps
    parts = []
    for factors, row, col in blocks:
        rows, cols, vals = np.zeros(1, index), np.zeros(1, index), np.ones(1)
        for F in factors:
            r, c = np.nonzero(F) if F.ndim == 2 else (np.arange(F.size),) * 2
            rows = (rows[:, None] * len(F) + r.astype(index)).ravel()
            cols = (cols[:, None] * F.shape[-1] + c.astype(index)).ravel()
            vals = (vals[:, None] * (F[r, c] if F.ndim == 2 else F)).ravel()
        parts.append((rows + index(row), cols + index(col), vals))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _difference(n):
    """The dense (n - 1) x n difference along one axis: row k is p_{k+1} - p_k."""
    return np.eye(n - 1, n, k=1) - np.eye(n - 1, n)


def _kron_sum(stiffness, mass):
    """sum_a K_a (x) (x)_{b != a} B_b as one CSR matrix."""
    terms = [([K if b == a else B for b, B in enumerate(mass)], 0, 0) for a, K in enumerate(stiffness)]
    return _kron(terms, (math.prod(B.size for B in mass),) * 2)


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

        self._int_flat = [np.flatnonzero(grid.interior_mask(i).ravel()) for i in range(d)]
        self.block_sizes = [flat.size for flat in self._int_flat]
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        self.n_velocity = int(self.offsets[-1])

        self.mass_blocks = [
            grid.dual_volumes(i).ravel()[self._int_flat[i]] for i in range(d)
        ]
        self.mass_velocity = np.concatenate(self.mass_blocks) if d else np.zeros(0)

        delta = [_difference(n) for n in grid.shape]
        grad = [self._on_axis(i, (1.0 / grid.dual_w[i][1:-1])[:, None] * delta[i]) for i in range(d)]
        div = [self._on_axis(i, -(1.0 / grid.h[i])[:, None] * delta[i].T) for i in range(d)]
        self.G = _kron([(f, o, 0) for f, o in zip(grad, self.offsets)], (self.n_velocity, self.n_cells))
        self.D = _kron([(f, 0, o) for f, o in zip(div, self.offsets)], (self.n_cells, self.n_velocity))
        # per block i: the 1D stiffness matrices K_a and masses B_a of S_i
        self.laplace_factors = []
        for i in range(d):
            conductances = [1.0 / (grid.h[a] if a == i else grid.dual_w[a]) for a in range(d)]
            mass = [grid.dual_w[a][1:-1] if a == i else grid.h[a] for a in range(d)]
            self.laplace_factors.append(([tridiagonal(c) for c in conductances], mass))
        self.laplace_blocks = [_kron_sum(*f) for f in self.laplace_factors]
        neumann = [np.concatenate([[0.0], 1.0 / dw[1:-1], [0.0]]) for dw in grid.dual_w]
        self.poisson_factors = ([tridiagonal(c) for c in neumann], grid.h)

        maps = [self._convection_map(i) for i in range(d)]
        self._flux_maps, self._incidences, self._diag_pos = ([m[k] for m in maps] for k in range(3))

    # -- vector packing ----------------------------------------------------

    def pack(self, u: VelocityField) -> np.ndarray:
        """Interior-face DOF vector of a velocity field."""
        return np.concatenate(
            [u.components[i].ravel()[self._int_flat[i]] for i in range(self.grid.dim)]
        )

    def unpack(self, vec: np.ndarray) -> VelocityField:
        """Velocity field with the given interior values and zero boundary faces."""
        comps = []
        for i in range(self.grid.dim):
            full = np.zeros(int(np.prod(self.grid.face_shape(i))))
            full[self._int_flat[i]] = self.block(vec, i)
            comps.append(full.reshape(self.grid.face_shape(i)))
        return VelocityField(self.grid, comps)

    def block(self, vec: np.ndarray, i: int) -> np.ndarray:
        """The direction-i entries of a packed vector, as a view."""
        return vec[self.offsets[i] : self.offsets[i + 1]]

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Mass-weighted inner product of two packed vectors (velocity_inner on fields)."""
        return float(a * b @ self.mass_velocity)

    def seminorm_sq(self, vec: np.ndarray) -> float:
        """Squared W^{1,2} seminorm sum_i v_i . S_i v_i of a packed vector (w1q_norm(., 2)**2 on fields)."""
        return float(sum(self.block(vec, i) @ (S @ self.block(vec, i)) for i, S in enumerate(self.laplace_blocks)))

    # -- assembly ----------------------------------------------------------

    def _on_axis(self, i, mat):
        """Factors of mat on axis i, identities on the others: a map between cells and direction-i faces."""
        return [mat if a == i else np.ones(n) for a, n in enumerate(self.grid.shape)]

    def _convection_map(self, i):
        """The map a -> C_i(a) onto the pattern of S_i, and the diagonal's positions.

        S_i already holds every entry M_i/dt and C_i(a) can have: the diagonal,
        and the four entries of every dual face between two interior faces.
        The map is the flux map Phi_i followed by a +-1/2 incidence onto that
        pattern: the outward-flux stencil +F/2 on the minus row and -F/2 on
        the plus row, both columns, entries touching boundary DOFs dropped.
        """
        g = self.grid
        S = self.laplace_blocks[i]
        base = np.cumsum([0] + [int(np.prod(g.face_shape(j))) for j in range(g.dim)])
        idx = np.full(g.face_shape(i), -1)  # position in block i, -1 on boundary faces
        idx[g.interior_mask(i)] = np.arange(self.block_sizes[i])
        mean = 0.5 * abs(_difference(g.shape[i] + 1))

        fluxes, minus, plus = [], [], []
        # axes j with one cell have only wall planes across j, which carry no flux
        for j in [i] + [j for j in range(g.dim) if j != i and g.shape[j] > 1]:
            factors = list(g.h)
            if j == i:
                factors[i] = mean
            else:
                factors[i] = mean.T * g.h[i]
                factors[j] = np.eye(g.shape[j] - 1, g.shape[j] + 1, k=1)
            fluxes.append((factors, sum(map(len, minus)), base[j]))  # after earlier axes' fluxes; columns: a_j
            n = idx.shape[j]
            minus.append(idx.take(range(0, n - 1), axis=j).ravel())
            plus.append(idx.take(range(1, n), axis=j).ravel())
        m, p = np.concatenate(minus), np.concatenate(plus)
        phi = _kron(fluxes, (m.size, base[-1]))

        size = S.shape[0]
        keys = np.repeat(np.arange(size) * size, np.diff(S.indptr)) + S.indices

        def where(r, c):
            wanted = r * size + c
            found = np.searchsorted(keys, wanted)
            if np.any(keys.take(found, mode="clip") != wanted):
                raise AssertionError(f"convection entry outside the stiffness pattern of block {i}")
            return found

        diag = where(np.arange(size), np.arange(size))
        flux = np.arange(m.size)
        inc_pos, inc_flux, inc_vals = [], [], []
        for r, c, v in [(m, m, 0.5), (m, p, 0.5), (p, m, -0.5), (p, p, -0.5)]:
            keep = (r >= 0) & (c >= 0)
            inc_pos.append(diag[r[keep]] if r is c else where(r[keep], c[keep]))
            inc_flux.append(flux[keep])
            inc_vals.append(np.full(inc_flux[-1].size, v))
        incidence = sp.csc_matrix(
            (np.concatenate(inc_vals), (np.concatenate(inc_pos), np.concatenate(inc_flux))),
            shape=(S.nnz, m.size),
        )
        return phi, incidence, diag

    def convection_blocks(self, a: VelocityField):
        """Per-direction weak convection matrices C_i(a) on the prediction pattern.

        Row sigma of block i applies sum over the dual faces of sigma of
        F_eps * (w_sigma + w_sigma')/2 with outward orientation; F_eps is the
        mean of the two primal-face fluxes of a adjacent to the dual face.
        Boundary values of a are taken as stored (zero for admissible fields).
        The values are two sparse matvecs on the full face arrays of a; every
        block shares indices and indptr with the pattern and owns its data.
        """
        a_full = np.concatenate([c.ravel() for c in a.components])
        blocks = []
        for S, phi, incidence in zip(self.laplace_blocks, self._flux_maps, self._incidences):
            blocks.append(on_pattern(S, incidence @ (phi @ a_full)))
        return blocks

    def momentum_values(self, i, dt):
        """Values of M_i/dt + S_i on the prediction pattern of block i."""
        vals = self.laplace_blocks[i].data.copy()
        vals[self._diag_pos[i]] += self.mass_blocks[i] / dt
        return vals

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
        blocks = zip(self.laplace_blocks, self.mass_blocks)
        return self.unpack(np.concatenate([(S @ self.block(vec, i)) / m for i, (S, m) in enumerate(blocks)]))

    def convection_form(self, a: VelocityField, w: VelocityField, v: VelocityField) -> float:
        """Trilinear form: the weak convection of w by a tested against v."""
        blocks = self.convection_blocks(a)
        wv = self.pack(w)
        vv = self.pack(v)
        total = 0.0
        for i, C in enumerate(blocks):
            total += float(self.block(vv, i) @ (C @ self.block(wv, i)))
        return total

    # -- debugging exports ---------------------------------------------------

    def export_matrices(self, out_dir):
        """Write the assembled matrices as 'row col value' text files."""
        os.makedirs(out_dir, exist_ok=True)
        items = [("gradient", self.G), ("divergence", self.D)]
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
