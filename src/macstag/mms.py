"""Manufactured solutions on the unit square / cube with exact forcing.

The velocity comes from a stream potential (2D) or vector potential (3D)
whose factors vanish to second order on the boundary, so the exact field is
divergence free, has zero trace, and its components are polynomials of
degree at most five per axis times a smooth decay e^{-t}. Face means of
such components are exact under the default 3-point Gauss rule, which makes
the interpolated initial data exactly divergence free in the discrete sense.

Every field is time-separable. With u = e^{-t} U(x) and p = e^{-t} P(x),
the momentum equation in convective form, f = du/dt + (u . grad) u - Lap u
+ grad p, gives exactly

    f(t, x) = e^{-t} (-U - Lap U + grad P) + e^{-2t} (U . grad) U,

so the spatial parts are derived once from a t-free potential and compiled
to numpy, and a Separable field face-averages them once per grid. The
spatial expressions stay in factored form: expanding the high-degree
products into monomial sums would make the compiled evaluators lose ~4
digits to cancellation near the boundary, where the factors vanish.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import sympy

from .fields import VelocityField, face_average


class Separable:
    """Field sum_k e^{-k t} g_k(x) with compiled spatial parts.

    terms is a list of (k, g_k); each g_k maps points (m, dim) to values
    (m, dim) or (m,). Calling the field as (t, pts) evaluates it pointwise.
    face_average(grid, t, order) averages each g_k over the faces once per
    (grid, order) and combines the stored averages for each t.
    """

    def __init__(self, terms):
        self.terms = list(terms)
        self._memo = None  # (grid, order, face averages of the g_k)

    def __call__(self, t, pts):
        return sum(math.exp(-k * t) * g(pts) for k, g in self.terms)

    def face_average(self, grid, t, order: int = 3) -> VelocityField:
        """Face means of the field at time t, as fields.face_average gives them."""
        memo = self._memo
        if memo is None or memo[0] is not grid or memo[1] != order:
            memo = self._memo = (grid, order, [face_average(grid, g, order) for _, g in self.terms])
        weights = [math.exp(-k * t) for k, _ in self.terms]
        averages = memo[2]
        return VelocityField(
            grid,
            [sum(w * a.components[i] for w, a in zip(weights, averages)) for i in range(grid.dim)],
        )


class ManufacturedProblem:
    """Analytic (u, p, f) triple solving the momentum equation exactly.

    velocity, pressure and forcing are Separable fields: velocity/forcing
    map (t, points (m, dim)) to (m, dim) arrays, pressure to (m,). initial
    is velocity at t = 0 as a pure spatial callable.
    """

    def __init__(self, name, dim, velocity, pressure, forcing, description):
        self.name = name
        self.dim = dim
        self.velocity = velocity
        self.pressure = pressure
        self.forcing = forcing
        self.description = description

    def initial(self, pts):
        return self.velocity(0.0, pts)

    def velocity_at(self, t):
        """Spatial slice u(t, .) for interpolation helpers."""
        return lambda pts: self.velocity(t, pts)

    def __repr__(self):
        return f"ManufacturedProblem({self.name!r}, dim={self.dim})"


def _compile(expr, xs):
    """Compile a spatial expression, or a list of them, to pts -> (m,) or (m, len)."""
    lam = sympy.lambdify(xs, expr, modules="numpy")

    def call(pts):
        pts = np.asarray(pts, dtype=float)
        zero = np.zeros(len(pts))  # broadcasts constant expressions
        if isinstance(expr, list):
            return np.stack([zero + v for v in lam(*pts.T)], axis=-1)
        return zero + lam(*pts.T)

    return call


@lru_cache(maxsize=None)
def _build(name: str) -> ManufacturedProblem:
    half = sympy.Rational(1, 2)
    if name in ("vortex2d", "rest2d"):
        xs = x, y = sympy.symbols("x y")
        if name == "rest2d":
            U = [sympy.Integer(0), sympy.Integer(0)]
            P = sympy.Integer(0)
            desc = "2D rest state: u = 0, p = 0, f = 0 (exact discrete fixed point)"
        else:
            phi = 16 * (x * (1 - x) * y * (1 - y)) ** 2
            U = [sympy.diff(phi, y), -sympy.diff(phi, x)]
            P = (x - half) * (y - half)
            desc = "2D decaying polynomial vortex from a biquartic stream potential"
    elif name in ("vortex3d", "rest3d"):
        xs = x, y, z = sympy.symbols("x y z")
        if name == "rest3d":
            U = [sympy.Integer(0)] * 3
            P = sympy.Integer(0)
            desc = "3D rest state: u = 0, p = 0, f = 0 (exact discrete fixed point)"
        else:
            phi = 512 * (x * (1 - x) * y * (1 - y) * z * (1 - z)) ** 2
            a = [phi, 2 * phi, 3 * phi]
            U = [
                sympy.diff(a[2], y) - sympy.diff(a[1], z),
                sympy.diff(a[0], z) - sympy.diff(a[2], x),
                sympy.diff(a[1], x) - sympy.diff(a[0], y),
            ]
            P = (x - half) * (y - half) * (z - half)
            desc = "3D decaying polynomial vortex from a curl of scaled potentials"
    else:
        raise ValueError(f"unknown manufactured problem {name!r}; have {sorted(PROBLEM_NAMES)}")

    # e^{-t} part: du/dt - Lap u + grad p; e^{-2t} part: (u . grad) u. Both
    # share the first derivatives of U, the bulk of the symbolic work.
    grad = [[sympy.diff(Ui, xj) for xj in xs] for Ui in U]
    linear = [
        -Ui - sum(sympy.diff(dUi[j], xj) for j, xj in enumerate(xs)) + sympy.diff(P, xi)
        for Ui, dUi, xi in zip(U, grad, xs)
    ]
    convective = [sum(Uj * dUij for Uj, dUij in zip(U, dUi)) for dUi in grad]
    return ManufacturedProblem(
        name,
        len(xs),
        Separable([(1, _compile(U, xs))]),
        Separable([(1, _compile(P, xs))]),
        Separable([(1, _compile(linear, xs)), (2, _compile(convective, xs))]),
        desc,
    )


PROBLEM_NAMES = ("vortex2d", "vortex3d", "rest2d", "rest3d")


def mms_problem(name: str) -> ManufacturedProblem:
    """Look up a registered manufactured problem by name."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown manufactured problem {name!r}; have {sorted(PROBLEM_NAMES)}")
    return _build(name)
