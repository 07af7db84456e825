"""Manufactured solutions on the unit square / cube with exact forcing.

The velocity comes from a stream potential (2D) or vector potential (3D)
whose factors vanish to second order on the walls of [0, 1]^d, so the exact
field is divergence free, has zero trace there, and its components are
polynomials of degree at most five per axis times a smooth decay e^{-t}. Face means of
such components are exact under the default 3-point Gauss rule, which makes
the interpolated initial data exactly divergence free in the discrete sense.

Every field is time-separable. With u = e^{-t} U(x) and p = e^{-t} P(x),
the momentum equation in convective form, f = du/dt + (u . grad) u - Lap u
+ grad p, gives exactly

    f(t, x) = e^{-t} (-U - Lap U + grad P) + e^{-2t} (U . grad) U,

and every spatial part is a short sum of rank-1 terms c * prod_a p_a(x_a)
with 1D polynomials p_a (tensor-product form). Derivatives and products act
on the 1D factors, and the face mean of a term is its normal factor at the
face coordinate times the 1D Gauss means of its transverse factors, so a
Separable field face-averages its parts once per grid by outer products.
The factors stay unexpanded across axes: multiplying them out into
multivariate monomials would lose ~4 digits to cancellation near the
boundary, where the factors vanish. Each 1D factor is a polynomial in the
centered variable 2s - 1, about which the problems are symmetric; in the
power basis about s = 0 the factors cancel ~100x worse near s = 1 (3e-13
against 2e-15 of a field's maximum).
"""

from __future__ import annotations

import math
from functools import partial, reduce

import numpy as np
from numpy.polynomial import Polynomial

from .fields import VelocityField, _gauss_nodes

# A component is a list of terms (coef, (p_0, ..., p_{d-1})) standing for
# sum coef * prod_a p_a(x_a); list concatenation is the sum.


def _d(terms, a):
    """Derivative along axis a."""
    return [(c, ps[:a] + (ps[a].deriv(),) + ps[a + 1 :]) for c, ps in terms]


def _scale(terms, s):
    return [(s * c, ps) for c, ps in terms]


def _mul(u, v):
    return [(c * e, tuple(p * q for p, q in zip(ps, qs))) for c, ps in u for e, qs in v]


def _evaluate(terms, pts, values=None):
    """Values (m,) of a component at points (m, d).

    Each distinct 1D factor is evaluated once: values maps (axis, factor)
    to its values at pts, and components at the same points share one map.
    """
    pts = np.asarray(pts, dtype=float)
    values = {} if values is None else values
    out = np.zeros(len(pts))
    for c, ps in terms:
        factors = []
        for a, p in enumerate(ps):
            key = (a, p.coef.tobytes(), p.domain.tobytes(), p.window.tobytes())
            if key not in values:
                values[key] = p(pts[:, a])
            factors.append(values[key])
        out += c * reduce(np.multiply, factors)
    return out


class TensorField:
    """Spatial vector field whose components are sums of rank-1 polynomial terms."""

    def __init__(self, components):
        self.components = components

    def __call__(self, pts):
        """Values (m, d) at points (m, d)."""
        values = {}
        return np.stack([_evaluate(terms, pts, values) for terms in self.components], axis=-1)

    def face_average(self, grid, order: int = 3) -> VelocityField:
        """Face means as fields.face_average gives them, from 1D Gauss means per axis, on a grid of its dimension."""
        if len(self.components) != grid.dim:
            raise ValueError(f"a {len(self.components)}D field cannot be face-averaged on a {grid.dim}D grid")
        nodes, weights = _gauss_nodes(order)
        comps = []
        for i, terms in enumerate(self.components):
            acc = np.zeros(grid.face_shape(i))
            for c, ps in terms:
                factors = [
                    p(grid.axes[a]) if a == i
                    else sum(w * p(grid.axes[a][:-1] + x * grid.h[a]) for x, w in zip(nodes, weights))
                    for a, p in enumerate(ps)
                ]
                acc += c * reduce(np.multiply, np.ix_(*factors))
            comps.append(acc)
        return VelocityField(grid, comps)


class Separable:
    """Field sum_k e^{-k t} g_k(x) with spatial parts g_k.

    terms is a list of (k, g_k); each g_k maps points (m, dim) to values
    (m, dim) or (m,). Calling the field as (t, pts) evaluates it pointwise.
    face_average(grid, t, order) needs vector parts with their own
    face_average(grid, order) (TensorField): it averages each g_k once per
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
            memo = self._memo = (grid, order, [g.face_average(grid, order) for _, g in self.terms])
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
    is the velocity at t = 0, its spatial part U: a TensorField, callable
    on points and face-averaged from 1D Gauss means. box holds the (lo, hi)
    span of each axis of the one box on whose walls the velocity vanishes, so
    that the triple solves the no-slip problem there, or None when it does so
    on any box. On another box the data are a valid forced run, but the triple is
    not its exact solution.
    """

    def __init__(self, name, dim, velocity, pressure, forcing, initial, box=None):
        self.name = name
        self.dim = dim
        self.velocity = velocity
        self.pressure = pressure
        self.forcing = forcing
        self.initial = initial
        self.box = box

    def velocity_at(self, t):
        """Spatial slice u(t, .) for interpolation helpers."""
        return lambda pts: self.velocity(t, pts)

    def __repr__(self):
        return f"ManufacturedProblem({self.name!r}, dim={self.dim})"


PROBLEM_NAMES = ("vortex2d", "vortex3d", "rest2d", "rest3d")

# 1D factors in the centered variable 2s - 1 (domain [0, 1])
_Q2 = Polynomial([0.25, 0.0, -0.25], domain=[0, 1]) ** 2  # q(s)^2 with q(s) = s (1 - s)
_CENTERED = Polynomial([0.0, 0.5], domain=[0, 1])  # s - 1/2


def _registered(name: str) -> str:
    """name, which must be in PROBLEM_NAMES, or ValueError lists the names there are."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown manufactured problem {name!r}; have {sorted(PROBLEM_NAMES)}")
    return name


def mms_problem(name: str) -> ManufacturedProblem:
    """Build a registered manufactured problem by name; each call returns a fresh one."""
    dim = 2 if _registered(name).endswith("2d") else 3
    if name.startswith("rest"):
        U, P = [[] for _ in range(dim)], []
    elif dim == 2:
        phi = [(16.0, (_Q2, _Q2))]
        U = [_d(phi, 1), _scale(_d(phi, 0), -1.0)]
        P = [(1.0, (_CENTERED, _CENTERED))]
    else:
        phi = [(512.0, (_Q2, _Q2, _Q2))]
        a = [phi, _scale(phi, 2.0), _scale(phi, 3.0)]
        U = [
            _d(a[2], 1) + _scale(_d(a[1], 2), -1.0),
            _d(a[0], 2) + _scale(_d(a[2], 0), -1.0),
            _d(a[1], 0) + _scale(_d(a[0], 1), -1.0),
        ]
        P = [(1.0, (_CENTERED, _CENTERED, _CENTERED))]

    # e^{-t} part: du/dt - Lap u + grad p; e^{-2t} part: (u . grad) u. Both
    # share the first derivatives of U.
    grad = [[_d(Ui, j) for j in range(dim)] for Ui in U]
    linear = [
        _scale(Ui + [term for j in range(dim) for term in _d(dUi[j], j)], -1.0) + _d(P, i)
        for i, (Ui, dUi) in enumerate(zip(U, grad))
    ]
    convective = [[term for j in range(dim) for term in _mul(U[j], dUi[j])] for dUi in grad]
    velocity = TensorField(U)
    return ManufacturedProblem(
        name,
        dim,
        Separable([(1, velocity)]),
        Separable([(1, partial(_evaluate, P))]),
        Separable([(1, TensorField(linear)), (2, TensorField(convective))]),
        velocity,
        None if name.startswith("rest") else ((0.0, 1.0),) * dim,
    )
