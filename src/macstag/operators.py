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

With cell volumes M_p and dual volumes M_v as weights, M_v G = -(M_p D)^T
holds entrywise, which is the discrete duality the projection step relies
on. The skew identity v.C(a)w + w.C(a)v = sum_sigma v_sigma w_sigma (net
dual-cell flux) vanishes whenever div a = 0.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .fields import PressureField, VelocityField, _bcast
from .grid import MacGrid

__all__ = ["Operators"]


class Operators:
    """Assembled discrete operators bound to one grid."""

    def __init__(self, grid: MacGrid):
        self.grid = grid
        d = grid.dim

        self.n_cells = int(np.prod(grid.shape))
        self.cell_vol = grid.cell_volumes.ravel()
        self._cell_idx = np.arange(self.n_cells).reshape(grid.shape)

        self._face_idx = []
        self._int_flat = []
        self._loc_pos = []
        self.block_sizes = []
        for i in range(d):
            full = int(np.prod(grid.face_shape(i)))
            self._face_idx.append(np.arange(full).reshape(grid.face_shape(i)))
            flat = np.flatnonzero(grid.interior_mask(i).ravel())
            self._int_flat.append(flat)
            pos = np.full(full, -1, dtype=np.int64)
            pos[flat] = np.arange(flat.size)
            self._loc_pos.append(pos)
            self.block_sizes.append(flat.size)
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        self.n_velocity = int(self.offsets[-1])

        self.mass_blocks = [
            grid.dual_volumes(i).ravel()[self._int_flat[i]] for i in range(d)
        ]
        self.mass_velocity = np.concatenate(self.mass_blocks) if d else np.zeros(0)

        self.G = self._assemble_gradient()
        self.D = self._assemble_divergence()
        self.laplace_blocks = [self._assemble_stiffness(i) for i in range(d)]

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
            full[self._int_flat[i]] = vec[self.offsets[i] : self.offsets[i + 1]]
            comps.append(full.reshape(self.grid.face_shape(i)))
        return VelocityField(self.grid, comps)

    def block(self, vec: np.ndarray, i: int) -> np.ndarray:
        return vec[self.offsets[i] : self.offsets[i + 1]]

    def gradient_rows(self, i: int):
        """Row slice of G belonging to direction i."""
        return self.G[self.offsets[i] : self.offsets[i + 1]]

    # -- assembly ----------------------------------------------------------

    def _cross_widths(self, i, sliced_axis, length):
        """Product of transverse cell widths broadcast over a face-slab shape."""
        g = self.grid
        out = np.ones(1)
        for a in range(g.dim):
            if a == i:
                continue
            out = out * _bcast(g.h[a], a, g.dim)
        shape = list(g.face_shape(i))
        shape[sliced_axis] = length
        return np.broadcast_to(out, shape)

    def _assemble_gradient(self):
        g = self.grid
        rows, cols, vals = [], [], []
        for i in range(g.dim):
            n = g.shape[i]
            if n < 2:
                continue
            faces = self._face_idx[i].take(range(1, n), axis=i)
            glob = self._loc_pos[i][faces.ravel()] + self.offsets[i]
            plus = self._cell_idx.take(range(1, n), axis=i).ravel()
            minus = self._cell_idx.take(range(0, n - 1), axis=i).ravel()
            coef = np.broadcast_to(
                _bcast(1.0 / g.dual_w[i][1:n], i, g.dim), faces.shape
            ).ravel()
            rows.extend([glob, glob])
            cols.extend([plus, minus])
            vals.extend([coef, -coef])
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_velocity, self.n_cells),
        )
        return mat.tocsr()

    def _assemble_divergence(self):
        g = self.grid
        rows, cols, vals = [], [], []
        for i in range(g.dim):
            n = g.shape[i]
            if n < 2:
                continue
            faces = self._face_idx[i].take(range(1, n), axis=i)
            glob = self._loc_pos[i][faces.ravel()] + self.offsets[i]
            upper_of = self._cell_idx.take(range(0, n - 1), axis=i)
            lower_of = self._cell_idx.take(range(1, n), axis=i)
            c_up = np.broadcast_to(_bcast(1.0 / g.h[i][: n - 1], i, g.dim), upper_of.shape)
            c_lo = np.broadcast_to(_bcast(1.0 / g.h[i][1:n], i, g.dim), lower_of.shape)
            rows.extend([upper_of.ravel(), lower_of.ravel()])
            cols.extend([glob, glob])
            vals.extend([c_up.ravel(), -c_lo.ravel()])
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_cells, self.n_velocity),
        )
        return mat.tocsr()

    def _pair_entries(self, i, idx_minus, idx_plus, coef, rows, cols, vals, skew=False):
        """Append the 4-entry stencil of one dual-face batch, dropping boundary DOFs.

        Symmetric (diffusion) batches add coef to both diagonals and -coef to
        both off-diagonals. Skew (convection) batches add the outward-flux
        stencil: +coef/2 on the minus row, -coef/2 on the plus row, both
        columns. Entries touching eliminated boundary DOFs are dropped, which
        is exact because those values are zero.
        """
        pos = self._loc_pos[i]
        m = pos[idx_minus.ravel()]
        p = pos[idx_plus.ravel()]
        c = coef.ravel()
        if skew:
            half = 0.5 * c
            batches = [(m, m, half), (m, p, half), (p, m, -half), (p, p, -half)]
        else:
            batches = [(m, m, c), (p, p, c), (m, p, -c), (p, m, -c)]
        for r, cc, v in batches:
            keep = (r >= 0) & (cc >= 0)
            rows.append(r[keep])
            cols.append(cc[keep])
            vals.append(v[keep])

    def _assemble_stiffness(self, i):
        g = self.grid
        d = g.dim
        n = g.shape[i]
        rows, cols, vals = [], [], []

        # dual faces orthogonal to the component axis: one per cell column
        idx_m = self._face_idx[i].take(range(0, n), axis=i)
        idx_p = self._face_idx[i].take(range(1, n + 1), axis=i)
        coef = self._cross_widths(i, i, n) / _bcast(g.h[i], i, d)
        self._pair_entries(i, idx_m, idx_p, np.broadcast_to(coef, idx_m.shape), rows, cols, vals)

        for j in range(d):
            if j == i:
                continue
            nj = g.shape[j]
            area = _bcast(g.dual_w[i], i, d)
            for a in range(d):
                if a != i and a != j:
                    area = area * _bcast(g.h[a], a, d)
            # interior planes between transverse neighbours
            if nj > 1:
                idx_m = self._face_idx[i].take(range(0, nj - 1), axis=j)
                idx_p = self._face_idx[i].take(range(1, nj), axis=j)
                coef = np.broadcast_to(
                    area / _bcast(g.dual_w[j][1:nj], j, d), idx_m.shape
                )
                self._pair_entries(i, idx_m, idx_p, coef, rows, cols, vals)
            # boundary slabs: half-cell distance to the wall value 0
            pos = self._loc_pos[i]
            for side, dist in ((0, g.dual_w[j][0]), (nj - 1, g.dual_w[j][nj])):
                idx = self._face_idx[i].take([side], axis=j)
                coef = np.broadcast_to(area / dist, idx.shape).ravel()
                r = pos[idx.ravel()]
                keep = r >= 0
                rows.append(r[keep])
                cols.append(r[keep])
                vals.append(coef[keep])

        size = self.block_sizes[i]
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )
        return mat.tocsr()

    def convection_blocks(self, a: VelocityField):
        """Per-direction weak convection matrices built from the advecting field a.

        Row sigma of block i applies sum over the dual faces of sigma of
        F_eps * (w_sigma + w_sigma')/2 with outward orientation; F_eps is the
        mean of the two primal-face fluxes of a adjacent to the dual face.
        Boundary values of a are taken as stored (zero for admissible fields).
        """
        g = self.grid
        d = g.dim
        blocks = []
        for i in range(d):
            n = g.shape[i]
            rows, cols, vals = [], [], []

            ai = a.components[i]
            idx_m = self._face_idx[i].take(range(0, n), axis=i)
            idx_p = self._face_idx[i].take(range(1, n + 1), axis=i)
            cross = self._cross_widths(i, i, n)
            flux = 0.5 * cross * (ai.take(range(0, n), axis=i) + ai.take(range(1, n + 1), axis=i))
            self._pair_entries(i, idx_m, idx_p, flux, rows, cols, vals, skew=True)

            hi_minus = np.concatenate([[0.0], g.h[i]])
            hi_plus = np.concatenate([g.h[i], [0.0]])
            for j in range(d):
                if j == i:
                    continue
                nj = g.shape[j]
                if nj < 2:
                    continue
                aj = a.components[j]
                zero = np.zeros(tuple(1 if ax == i else s for ax, s in enumerate(aj.shape)))
                aj_lo = np.concatenate([zero, aj], axis=i).take(range(1, nj), axis=j)
                aj_hi = np.concatenate([aj, zero], axis=i).take(range(1, nj), axis=j)
                cross = np.ones(1)
                for ax in range(d):
                    if ax != i and ax != j:
                        cross = cross * _bcast(g.h[ax], ax, d)
                flux = 0.5 * cross * (
                    _bcast(hi_minus, i, d) * aj_lo + _bcast(hi_plus, i, d) * aj_hi
                )
                idx_m = self._face_idx[i].take(range(0, nj - 1), axis=j)
                idx_p = self._face_idx[i].take(range(1, nj), axis=j)
                self._pair_entries(
                    i, idx_m, idx_p, np.broadcast_to(flux, idx_m.shape), rows, cols, vals, skew=True
                )
                # wall planes carry zero advecting flux, nothing to add

            size = self.block_sizes[i]
            if rows:
                mat = sp.coo_matrix(
                    (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                    shape=(size, size),
                )
                blocks.append(mat.tocsr())
            else:
                blocks.append(sp.csr_matrix((size, size)))
        return blocks

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
        out = np.empty_like(vec)
        for i in range(self.grid.dim):
            sl = slice(self.offsets[i], self.offsets[i + 1])
            out[sl] = (self.laplace_blocks[i] @ vec[sl]) / self.mass_blocks[i]
        return self.unpack(out)

    def convect(self, a: VelocityField, w: VelocityField) -> VelocityField:
        """Convection of w by the advecting field a, dual cell by dual cell."""
        blocks = self.convection_blocks(a)
        vec = self.pack(w)
        out = np.empty_like(vec)
        for i in range(self.grid.dim):
            sl = slice(self.offsets[i], self.offsets[i + 1])
            out[sl] = (blocks[i] @ vec[sl]) / self.mass_blocks[i]
        return self.unpack(out)

    def convection_form(self, a: VelocityField, w: VelocityField, v: VelocityField) -> float:
        """Trilinear form: the weak convection of w by a tested against v."""
        blocks = self.convection_blocks(a)
        wv = self.pack(w)
        vv = self.pack(v)
        total = 0.0
        for i in range(self.grid.dim):
            sl = slice(self.offsets[i], self.offsets[i + 1])
            total += float(vv[sl] @ (blocks[i] @ wv[sl]))
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
            with open(path, "w", newline="\n") as fh:
                fh.write(f"# {mat.shape[0]} {mat.shape[1]} {coo.nnz}\n")
                for k in order:
                    fh.write(
                        f"{coo.row[k]} {coo.col[k]} {format(coo.data[k], '.17g')}\n"
                    )
            paths.append(path)
        return paths
