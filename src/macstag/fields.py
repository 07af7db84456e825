"""Discrete pressure and velocity fields, interpolation onto the grid, norms.

Pressure unknowns are piecewise constant per cell; velocity unknowns carry
one normal component per face. The discrete velocity inner product weights
face values with dual-cell volumes, the pressure inner product with cell
volumes. The W^{1,q} seminorm sums |eps| |jump|^q / d_eps^{q-1} over the
dual faces of each component's dual mesh, with a zero Dirichlet value wired
in across the boundary slabs orthogonal to the component direction.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .grid import MacGrid

__all__ = [
    "PressureField",
    "VelocityField",
    "Trajectory",
    "face_average",
    "l2_norm",
    "velocity_inner",
    "pressure_inner",
    "w1q_norm",
]


class PressureField:
    """Cell-centered scalar field."""

    def __init__(self, grid: MacGrid, data=None):
        self.grid = grid
        if data is None:
            self.data = np.zeros(grid.shape)
        else:
            self.data = np.asarray(data, dtype=float)
            if self.data.shape != grid.shape:
                raise ValueError(f"pressure data shape {self.data.shape} != grid shape {grid.shape}")

    def volume_mean(self) -> float:
        """Cell-volume weighted mean, the quantity pinned to zero for pressures."""
        return float(np.sum(self.grid.cell_volumes * self.data) / self.grid.volume)

    def recentered(self):
        """Same field shifted to zero volume-weighted mean."""
        return PressureField(self.grid, self.data - self.volume_mean())

    def __add__(self, other):
        return PressureField(self.grid, self.data + other.data)

    def __sub__(self, other):
        return PressureField(self.grid, self.data - other.data)

    def __mul__(self, a):
        return PressureField(self.grid, self.data * float(a))

    __rmul__ = __mul__


class VelocityField:
    """Face-normal velocity components, one array per direction."""

    def __init__(self, grid: MacGrid, components=None):
        self.grid = grid
        if components is None:
            self.components = [np.zeros(grid.face_shape(i)) for i in range(grid.dim)]
        else:
            self.components = [np.asarray(c, dtype=float) for c in components]
            for i, c in enumerate(self.components):
                if c.shape != grid.face_shape(i):
                    raise ValueError(
                        f"component {i} shape {c.shape} != face shape {grid.face_shape(i)}"
                    )

    def copy(self):
        return VelocityField(self.grid, [c.copy() for c in self.components])

    def zero_exterior(self):
        """Zero the boundary-face values in place; returns self."""
        for i, c in enumerate(self.components):
            c[~self.grid.interior_mask(i)] = 0.0
        return self

    def __add__(self, other):
        return VelocityField(self.grid, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return VelocityField(self.grid, [a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, a):
        a = float(a)
        return VelocityField(self.grid, [c * a for c in self.components])

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# quadrature and interpolation

@functools.cache
def _gauss_nodes(order: int):
    """Gauss-Legendre nodes and weights rescaled to mean-value form on [0, 1], read-only, computed once per order."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


def face_average(grid: MacGrid, v, order: int = 3) -> VelocityField:
    """Interpolate an analytic velocity by mean values over the normal faces.

    v maps an (m, dim) array of points to an (m, dim) array of vector values.
    Component i is averaged over each direction-i face with a tensoric
    Gauss-Legendre rule of the given order per transverse axis. Boundary
    faces keep their quadrature value, which is 0 for fields vanishing on
    the boundary. A macstag.mms.TensorField takes no order: it averages
    itself exactly, each 1D factor by the Gauss rule exact for its degree,
    without pointwise evaluation.
    """
    from .mms import TensorField  # mms builds on this module

    if isinstance(v, TensorField):
        return v.face_average(grid)
    nodes, weights = _gauss_nodes(order)
    comps = []
    for i in range(grid.dim):
        fshape = grid.face_shape(i)
        acc = np.zeros(fshape)
        trans = [a for a in range(grid.dim) if a != i]
        for combo in itertools.product(range(order), repeat=len(trans)):
            coords_1d = []
            weight = 1.0
            for a in range(grid.dim):
                if a == i:
                    coords_1d.append(grid.axes[a])
                else:
                    k = combo[trans.index(a)]
                    coords_1d.append(grid.axes[a][:-1] + nodes[k] * grid.h[a])
                    weight *= weights[k]
            mesh = np.meshgrid(*coords_1d, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            acc += weight * np.asarray(v(pts))[:, i].reshape(fshape)
        comps.append(acc)
    return VelocityField(grid, comps)


# ---------------------------------------------------------------------------
# norms

def pressure_inner(p: PressureField, q: PressureField) -> float:
    return float(np.sum(p.grid.cell_volumes * p.data * q.data))


def velocity_inner(u: VelocityField, v: VelocityField) -> float:
    g = u.grid
    return float(
        sum(np.sum(g.dual_volumes(i) * u.components[i] * v.components[i]) for i in range(g.dim))
    )


def l2_norm(f) -> float:
    """L2 norm of a pressure or velocity field in the discrete inner product."""
    if isinstance(f, PressureField):
        return math.sqrt(max(pressure_inner(f, f), 0.0))
    if isinstance(f, VelocityField):
        return math.sqrt(max(velocity_inner(f, f), 0.0))
    raise TypeError(f"expected a field, got {type(f).__name__}")


def _bcast(arr, axis, ndim):
    shape = [1] * ndim
    shape[axis] = -1
    return np.asarray(arr).reshape(shape)


def w1q_norm(u: VelocityField, q: float = 2.0) -> float:
    """Discrete W^{1,q} norm of a velocity with zero boundary values.

    Per component i, sums |eps| |jump|^q / d_eps^{q-1} over the dual faces of
    the direction-i dual mesh: plain differences along axis i (cell widths as
    distances) plus differences along every transverse axis with a zero value
    padded across the two boundary slabs (dual widths as distances). Boundary
    values stored on exterior faces are ignored; the admissible space keeps
    them at zero.
    """
    g = u.grid
    d = g.dim
    total = 0.0
    for i in range(d):
        v = np.where(g.interior_mask(i), u.components[i], 0.0)

        cross = 1.0
        for a in range(d):
            if a != i:
                cross = cross * _bcast(g.h[a], a, d)

        jump = np.abs(np.diff(v, axis=i))
        dist = _bcast(g.h[i], i, d)
        total += float(np.sum(cross * jump**q / dist ** (q - 1.0)))

        for j in range(d):
            if j == i:
                continue
            pad = [(0, 0)] * d
            pad[j] = (1, 1)
            jump = np.abs(np.diff(np.pad(v, pad), axis=j))
            dist = _bcast(g.dual_w[j], j, d)
            area = _bcast(g.dual_w[i], i, d)
            for a in range(d):
                if a != i and a != j:
                    area = area * _bcast(g.h[a], a, d)
            total += float(np.sum(area * jump**q / dist ** (q - 1.0)))
    return total ** (1.0 / q)


# ---------------------------------------------------------------------------
# trajectories

class Trajectory:
    """Time history of one run.

    velocities has N+1 entries (the corrected fields u^0 .. u^N), predicted
    has N entries (the intermediate fields at levels 1 .. N), pressures has
    N+1 entries. Piecewise-constant-in-time identification: on the interval
    (t^n, t^{n+1}] the corrected trajectory carries u^n and the predicted
    trajectory carries the intermediate field of level n+1.
    """

    def __init__(self, grid: MacGrid, dt: float):
        self.grid = grid
        self.dt = float(dt)
        self.times = [0.0]
        self.velocities = []
        self.predicted = []
        self.pressures = []
        self.diagnostics = []

    @property
    def steps(self) -> int:
        return len(self.predicted)

    def append_initial(self, u0: VelocityField, p0: PressureField):
        if self.velocities:
            raise ValueError("initial state already recorded")
        self.velocities.append(u0)
        self.pressures.append(p0)

    def append_step(self, t, u_tilde, u, p, diag=None):
        self.times.append(float(t))
        self.predicted.append(u_tilde)
        self.velocities.append(u)
        self.pressures.append(p)
        if diag is not None:
            self.diagnostics.append(diag)
