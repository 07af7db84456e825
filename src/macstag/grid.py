"""Staggered (MAC) rectangular grids on axis-aligned boxes with non-uniform spacing.

Layout in d dimensions (d = 2 or 3), 'ij' index order everywhere:

    pressure  p[k_0, .., k_{d-1}]   at cell centers, shape n = (n_0, .., n_{d-1})
    velocity component i            at faces orthogonal to axis i,
                                    shape n with n_i replaced by n_i + 1

Faces k_i = 0 and k_i = n_i of direction i lie on the domain boundary
(exterior faces; homogeneous Dirichlet values live there). Each face owns a
dual cell: for an interior face it spans the two half cells on either side,
so its extent along axis i is the distance between the adjacent cell
centers; for an exterior face it is the remaining boundary half cell. Per
direction, the dual cells tile the domain exactly, which is what makes the
discrete gradient the exact negative adjoint of the discrete divergence.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

__all__ = [
    "MacGrid",
    "uniform_axis",
    "graded_axis",
    "uniform_grid",
    "midpoint_refined",
]


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Face coordinates of n equal intervals on [lo, hi]."""
    if n < 1:
        raise ValueError(f"axis needs at least one cell, got n={n}")
    if not hi > lo:
        raise ValueError(f"axis extent [{lo}, {hi}] is empty")
    return np.linspace(float(lo), float(hi), n + 1)


def graded_axis(lo: float, hi: float, n: int, ratio: float) -> np.ndarray:
    """Face coordinates of n intervals on [lo, hi] with h_{k+1} = ratio * h_k."""
    if n < 1:
        raise ValueError(f"axis needs at least one cell, got n={n}")
    if not hi > lo:
        raise ValueError(f"axis extent [{lo}, {hi}] is empty")
    if ratio <= 0.0:
        raise ValueError(f"stretch ratio must be positive, got {ratio}")
    if abs(ratio - 1.0) < 1e-14:
        return uniform_axis(lo, hi, n)
    weights = ratio ** np.arange(n)
    widths = (hi - lo) * weights / weights.sum()
    coords = np.empty(n + 1)
    coords[0] = lo
    np.cumsum(widths, out=coords[1:])
    coords[1:] += lo
    coords[-1] = hi  # clamp accumulated rounding
    return coords


class MacGrid:
    """Geometry and measures of a staggered rectangular grid.

    Attributes
    ----------
    dim : number of space dimensions (2 or 3)
    axes : per-axis face coordinates, axes[a] has length shape[a] + 1
    h : per-axis cell widths
    centers : per-axis cell centers
    dual_w : per-axis dual widths, dual_w[a][k] is the extent along axis a
        of the dual cell of face k (half cells at the two boundary faces,
        center-to-center distances in between)
    shape : cell counts per axis
    cell_volumes : ndarray of cell volumes, shape == shape
    theta : mesh regularity, the largest ratio |sigma| / |sigma'| over all
        pairs of faces from two different directions

    The cell volumes, the box volume, h_max and theta must be finite, or
    ValueError names the first that is not, with no RuntimeWarning.
    """

    def __init__(self, axis_coords):
        axes = [np.asarray(c, dtype=float).copy() for c in axis_coords]
        if len(axes) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(axes)} axes")
        for a, c in enumerate(axes):
            if c.ndim != 1 or c.size < 2:
                raise ValueError(f"axis {a}: need at least two face coordinates")
            if not np.isfinite(c).all():
                raise ValueError(f"axis {a}: face coordinates must be finite")
            if not np.all(np.diff(c) > 0):
                raise ValueError(f"axis {a}: face coordinates must be strictly increasing")
        self.dim = len(axes)
        self.axes = axes
        self.shape = tuple(c.size - 1 for c in axes)
        self.h = [np.diff(c) for c in axes]
        self.centers = [0.5 * (c[:-1] + c[1:]) for c in axes]
        self.dual_w = []
        for h in self.h:
            dw = np.empty(h.size + 1)
            dw[0] = 0.5 * h[0]
            dw[1:-1] = 0.5 * (h[:-1] + h[1:])
            dw[-1] = 0.5 * h[-1]
            self.dual_w.append(dw)

        # theta: every cross-direction pair of face measures occurs, so the
        # extreme ratio is attained at per-axis width extremes
        hmax = [h.max() for h in self.h]
        hmin = [h.min() for h in self.h]
        with np.errstate(all="ignore"):  # an overflow, or a 0/0 of underflowed faces, is named below
            self.cell_volumes = reduce(np.multiply, np.ix_(*self.h))
            self.volume = float(np.prod([c[-1] - c[0] for c in axes]))
            self.h_max = math.sqrt(sum(h ** 2 for h in hmax))
            self.theta = float(np.max([np.prod(np.delete(hmax, i)) / np.prod(np.delete(hmin, j))
                                       for i in range(self.dim) for j in range(self.dim) if j != i]))
        for what, value in [("cell volumes overflow", self.cell_volumes.max()),
                            ("the box volume overflows", self.volume), ("h_max overflows", self.h_max),
                            ("theta is not finite", self.theta)]:
            if not math.isfinite(value):
                extents = " x ".join(f"{c[-1] - c[0]:.3g}" for c in axes)
                raise ValueError(f"{what}: the box measures {extents}")
        self.h_min = min(h.min() for h in self.h)

    def face_shape(self, i):
        """Array shape of direction-i face values."""
        s = list(self.shape)
        s[i] += 1
        return tuple(s)

    def dual_volumes(self, i):
        """|D_sigma| for every direction-i face, shape face_shape(i), computed on each call."""
        factors = [self.dual_w[a] if a == i else self.h[a] for a in range(self.dim)]
        return reduce(np.multiply, np.ix_(*factors))

    def face_center_axes(self, i):
        """Per-axis coordinates of direction-i face centers."""
        return tuple(self.axes[a] if a == i else self.centers[a] for a in range(self.dim))

    def interior_mask(self, i):
        """Boolean array over direction-i faces, False on the two boundary slabs."""
        mask = np.ones(self.face_shape(i), dtype=bool)
        index = [slice(None)] * self.dim
        index[i] = 0
        mask[tuple(index)] = False
        index[i] = self.shape[i]
        mask[tuple(index)] = False
        return mask

    def __repr__(self):
        return f"MacGrid(shape={self.shape}, theta={self.theta:.3g})"


def uniform_grid(lo, hi, n) -> MacGrid:
    """Uniform grid on the box [lo_0, hi_0] x .. with n_a cells per axis."""
    lo = tuple(lo)
    hi = tuple(hi)
    n = tuple(n)
    if not (len(lo) == len(hi) == len(n)):
        raise ValueError("lo, hi, n must have the same length")
    return MacGrid([uniform_axis(lo[a], hi[a], n[a]) for a in range(len(n))])


def midpoint_refined(grid: MacGrid) -> MacGrid:
    """Grid with every interval split at its midpoint (theta is unchanged)."""
    axes = []
    for c in grid.axes:
        mid = 0.5 * (c[:-1] + c[1:])
        merged = np.empty(c.size + mid.size)
        merged[0::2] = c
        merged[1::2] = mid
        axes.append(merged)
    return MacGrid(axes)
