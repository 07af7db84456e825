#
# Manufactured solutions: divergence-free velocity, boundary behaviour,
# consistency of the derived forcing term, and the per-grid face averages
# of the separable fields.
#
# The forcing consistency oracle below recomputes every term of the
# momentum balance with high-order finite differences, so it is independent
# of the tensor-product derivation used by the package. A second oracle
# derives the spatial parts symbolically with sympy, a test-only dependency.
#

import math
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import macstag
from macstag.fields import face_average
from macstag.grid import MacGrid, graded_axis
from macstag.mms import PROBLEM_NAMES, mms_problem
from macstag.scheme import ProjectionScheme

from conftest import random_nonuniform_grid


def fd_gradient(f, pts, eps=1e-5):
    """Fourth-order central differences, component by component."""
    dim = pts.shape[1]
    out = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        fp1 = f(pts + eps * e)
        fm1 = f(pts - eps * e)
        fp2 = f(pts + 2 * eps * e)
        fm2 = f(pts - 2 * eps * e)
        out.append((8 * (fp1 - fm1) - (fp2 - fm2)) / (12 * eps))
    return out


def fd_laplacian(f, pts, eps=1e-4):
    dim = pts.shape[1]
    total = 0.0
    base = f(pts)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        fp1 = f(pts + eps * e)
        fm1 = f(pts - eps * e)
        fp2 = f(pts + 2 * eps * e)
        fm2 = f(pts - 2 * eps * e)
        total = total + (-fp2 + 16 * fp1 - 30 * base + 16 * fm1 - fm2) / (12 * eps**2)
    return total


def fd_time_derivative(f, t, pts, eps=1e-5):
    return (8 * (f(t + eps, pts) - f(t - eps, pts)) - (f(t + 2 * eps, pts) - f(t - 2 * eps, pts))) / (
        12 * eps
    )


def interior_points(rng, dim, m=40):
    return rng.uniform(0.15, 0.85, size=(m, dim))


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_velocity_is_divergence_free(name):
    prob = mms_problem(name)
    rng = np.random.default_rng(107)
    pts = interior_points(rng, prob.dim)
    t = 0.3
    grads = fd_gradient(lambda q: prob.velocity(t, q), pts)
    div = sum(grads[k][:, k] for k in range(prob.dim))
    umax = np.abs(prob.velocity(t, pts)).max()
    assert np.abs(div).max() <= 1e-8 * max(umax, 1.0)


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_velocity_vanishes_on_boundary(name):
    prob = mms_problem(name)
    rng = np.random.default_rng(109)
    for k in range(prob.dim):
        for val in (0.0, 1.0):
            pts = rng.uniform(0.0, 1.0, size=(30, prob.dim))
            pts[:, k] = val
            u = prob.velocity(0.5, pts)
            assert np.abs(u).max() <= 1e-13


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_box_is_where_the_velocity_vanishes(name):
    # the vortices name the unit box, the one box whose walls their velocity
    # vanishes on: on the walls of [0, 2]^d it does not; the rest states name none
    prob = mms_problem(name)
    if name.startswith("rest"):
        assert prob.box is None
        return
    assert prob.box == ((0.0, 1.0),) * prob.dim
    pts = np.random.default_rng(113).uniform(0.1, 1.9, size=(30, prob.dim))
    pts[:, 0] = 2.0
    assert np.abs(prob.velocity(0.5, pts)).max() > 1.0


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_pressure_has_zero_mean(name):
    # odd symmetry about the domain center makes the mean vanish; check by
    # tensor Gauss quadrature fine enough for the polynomial degree
    prob = mms_problem(name)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    grids = np.meshgrid(*([nodes] * prob.dim), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for k in range(prob.dim):
        wts = wts * np.meshgrid(*([weights] * prob.dim), indexing="ij")[k].ravel()
    mean = float(wts @ prob.pressure(0.7, pts))
    assert abs(mean) <= 1e-14


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_forcing_matches_momentum_balance(name):
    prob = mms_problem(name)
    dim = prob.dim
    rng = np.random.default_rng(113)
    pts = interior_points(rng, dim, m=25)
    t = 0.4

    u_t = fd_time_derivative(prob.velocity, t, pts)
    u = prob.velocity(t, pts)
    grads = fd_gradient(lambda q: prob.velocity(t, q), pts)
    convective = np.zeros_like(u)
    for k in range(dim):
        convective += u[:, k : k + 1] * grads[k]
    lap_u = fd_laplacian(lambda q: prob.velocity(t, q), pts)
    grad_p = np.stack(fd_gradient(lambda q: prob.pressure(t, q), pts), axis=1)

    expected = u_t + convective - lap_u + grad_p
    actual = prob.forcing(t, pts)
    scale = max(np.abs(expected).max(), 1.0)
    assert np.abs(actual - expected).max() <= 1e-5 * scale


@pytest.mark.parametrize("name", ["rest2d", "rest3d"])
def test_rest_states_are_trivial(name):
    prob = mms_problem(name)
    rng = np.random.default_rng(127)
    pts = rng.uniform(0.0, 1.0, size=(50, prob.dim))
    for t in (0.0, 0.5):
        assert np.abs(prob.velocity(t, pts)).max() == 0.0
        assert np.abs(prob.pressure(t, pts)).max() == 0.0
        assert np.abs(prob.forcing(t, pts)).max() == 0.0


def test_initial_matches_time_zero():
    prob = mms_problem("vortex2d")
    rng = np.random.default_rng(131)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    np.testing.assert_array_equal(prob.initial(pts), prob.velocity(0.0, pts))
    np.testing.assert_array_equal(prob.velocity_at(0.25)(pts), prob.velocity(0.25, pts))


def symbolic_parts(name):
    """U, P, -U - Lap U + grad P and (U . grad) U derived with sympy, compiled to numpy."""
    sympy = pytest.importorskip("sympy")
    dim = 2 if name.endswith("2d") else 3
    xs = sympy.symbols("x y z")[:dim]
    half = sympy.Rational(1, 2)
    if name.startswith("rest"):
        U, P = [sympy.Integer(0)] * dim, sympy.Integer(0)
    elif dim == 2:
        x, y = xs
        phi = 16 * (x * (1 - x) * y * (1 - y)) ** 2
        U, P = [sympy.diff(phi, y), -sympy.diff(phi, x)], (x - half) * (y - half)
    else:
        x, y, z = xs
        phi = 512 * (x * (1 - x) * y * (1 - y) * z * (1 - z)) ** 2
        a = [phi, 2 * phi, 3 * phi]
        U = [
            sympy.diff(a[2], y) - sympy.diff(a[1], z),
            sympy.diff(a[0], z) - sympy.diff(a[2], x),
            sympy.diff(a[1], x) - sympy.diff(a[0], y),
        ]
        P = (x - half) * (y - half) * (z - half)
    grad = [[sympy.diff(Ui, xj) for xj in xs] for Ui in U]
    linear = [
        -Ui - sum(sympy.diff(dUi[j], xj) for j, xj in enumerate(xs)) + sympy.diff(P, xi)
        for Ui, dUi, xi in zip(U, grad, xs)
    ]
    convective = [sum(Uj * dUij for Uj, dUij in zip(U, dUi)) for dUi in grad]

    def compiled(expr):
        lam = sympy.lambdify(xs, expr, modules="numpy")
        return lambda pts: np.zeros(len(pts)) + np.asarray(lam(*pts.T))

    return {
        "U": [compiled(e) for e in U],
        "P": [compiled(P)],
        "linear": [compiled(e) for e in linear],
        "convective": [compiled(e) for e in convective],
    }


def near_boundary_points(rng, dim, m):
    # one coordinate within 1e-3 of 0 or 1, where the potential's factors vanish
    pts = rng.uniform(0.0, 1.0, size=(m, dim))
    axis = rng.integers(0, dim, m)
    gap = rng.uniform(0.0, 1e-3, m)
    pts[np.arange(m), axis] = np.where(rng.integers(0, 2, m) == 1, 1.0 - gap, gap)
    return pts


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_tensor_form_matches_symbolic_derivation(name):
    prob = mms_problem(name)
    expected = symbolic_parts(name)
    parts = {
        "U": prob.velocity.terms[0][1],
        "P": lambda pts: prob.pressure.terms[0][1](pts)[:, None],
        "linear": prob.forcing.terms[0][1],
        "convective": prob.forcing.terms[1][1],
    }
    assert [k for k, _ in prob.forcing.terms] == [1, 2]
    rng = np.random.default_rng(151)
    pts = np.vstack([rng.uniform(0.0, 1.0, size=(4000, prob.dim)), near_boundary_points(rng, prob.dim, 4000)])
    for key, part in parts.items():
        actual = part(pts)
        for i, exact in enumerate(expected[key]):
            e = exact(pts)
            scale = np.abs(e).max()
            if scale == 0.0:  # rest problems
                assert np.all(actual[:, i] == 0.0), key
            else:
                assert np.abs(actual[:, i] - e).max() <= 1e-13 * scale, (key, i)


def test_import_leaves_sympy_out():
    # a fresh interpreter: this test process may have imported sympy already
    src = os.path.dirname(os.path.dirname(macstag.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, macstag; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_registry():
    assert set(PROBLEM_NAMES) == {"vortex2d", "vortex3d", "rest2d", "rest3d"}
    with pytest.raises(ValueError):
        mms_problem("channel")
    assert mms_problem("vortex3d").dim == 3


def evaluate_every_factor(terms, pts):
    """A component's values with every 1D factor of every term evaluated afresh."""
    out = np.zeros(len(pts))
    for c, ps in terms:
        out += c * reduce(np.multiply, [p(x) for p, x in zip(ps, pts.T)])
    return out


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_pointwise_evaluates_each_distinct_factor_once(name, monkeypatch):
    prob = mms_problem(name)
    pts = np.random.default_rng(157).uniform(0.0, 1.0, size=(60, prob.dim))
    parts = [g for _, g in prob.velocity.terms + prob.forcing.terms]
    expected = [np.stack([evaluate_every_factor(t, pts) for t in g.components], axis=-1) for g in parts]
    calls = []
    evaluate = Polynomial.__call__
    monkeypatch.setattr(Polynomial, "__call__", lambda p, x: calls.append(p) or evaluate(p, x))
    for g, e in zip(parts, expected):
        calls.clear()
        # same terms in the same order: the values agree bit for bit
        np.testing.assert_array_equal(g(pts), e)
        distinct = {
            (a, tuple(p.coef)) for terms in g.components for _, ps in terms for a, p in enumerate(ps)
        }
        assert len(calls) == len(distinct)


# ---------------------------------------------------------------------------
# separable fields: face averages of the spatial parts, once per grid


def coords_axis(widths):
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    return edges / edges[-1]


@st.composite
def coords_grids(draw):
    # random coords grids on the unit box, 1-cell axes included
    dim = draw(st.sampled_from([2, 3]))
    cells = st.integers(1, 7 if dim == 2 else 5)
    width = st.floats(0.05, 1.0)
    shape = [draw(cells) for _ in range(dim)]
    return MacGrid([coords_axis(draw(st.lists(width, min_size=n, max_size=n))) for n in shape])


def assert_matches_pointwise(field, grid, t):
    # 5 points per axis: the pointwise rule is exact for every factor's degree (<= 8)
    expected = face_average(grid, lambda pts: field(t, pts), order=5)
    actual = field.face_average(grid, t)
    # relative to the field's size on the box: faces of a 1-cell axis all lie
    # on the boundary, where the velocity averages to roundoff
    sample = np.random.default_rng(149).uniform(0.0, 1.0, size=(64, grid.dim))
    scale = np.abs(field(t, sample)).max()
    for a, e in zip(actual.components, expected.components):
        assert a.shape == e.shape
        if scale == 0.0:  # rest problems
            assert np.all(a == 0.0)
        else:
            assert np.abs(a - e).max() <= 1e-13 * scale


@settings(max_examples=40)
@given(grid=coords_grids(), t=st.sampled_from([0.0, 0.05, 0.3, 1.7]), rest=st.booleans())
def test_separable_face_average_matches_pointwise(grid, t, rest):
    name = ("rest" if rest else "vortex") + f"{grid.dim}d"
    prob = mms_problem(name)
    for field in (prob.velocity, prob.forcing):
        assert_matches_pointwise(field, grid, t)


def test_separable_face_average_is_never_stale():
    # one problem object, alternating grids (same shape, other coords) and
    # times; every call must match a fresh pointwise average
    prob = mms_problem("vortex2d")
    rng = np.random.default_rng(139)
    grids = [MacGrid([coords_axis(rng.uniform(0.2, 1.0, 5)) for _ in range(2)]) for _ in range(2)]
    calls = [(0, 0.1), (1, 0.1), (0, 0.2), (1, 0.3), (0, 0.3), (1, 0.2)]
    for k, t in calls:
        for field in (prob.velocity, prob.forcing):
            assert_matches_pointwise(field, grids[k], t)
    # a grid built afresh each time, as a study builds its levels
    for _ in range(3):
        grid = MacGrid([coords_axis(rng.uniform(0.2, 1.0, 4)) for _ in range(2)])
        assert_matches_pointwise(prob.forcing, grid, 0.4)


def test_separable_face_average_returns_fresh_fields():
    prob = mms_problem("vortex2d")
    grid = MacGrid([coords_axis(np.ones(4))] * 2)
    first = prob.velocity.face_average(grid, 0.2)
    first.components[0][:] = np.nan
    second = prob.velocity.face_average(grid, 0.2)
    assert all(np.isfinite(c).all() for c in second.components)


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_initial_data_takes_the_tensor_path(name, monkeypatch):
    # the initial data is the velocity's t = 0 spatial part; face_average
    # hands it to its own 1D Gauss means, which match the pointwise rule
    prob = mms_problem(name)
    rng = np.random.default_rng(151)
    grid = MacGrid([coords_axis(rng.uniform(0.2, 1.0, 6)) for _ in range(prob.dim)])
    pts = rng.uniform(0.0, 1.0, size=(50, prob.dim))
    np.testing.assert_array_equal(prob.initial(pts), prob.velocity(0.0, pts))
    pointwise = face_average(grid, lambda x: prob.initial(x))
    monkeypatch.setattr(type(prob.initial), "__call__", None)  # no pointwise evaluation from here on
    tensor = face_average(grid, prob.initial)
    scale = max(np.abs(c).max() for c in pointwise.components)
    for a, e in zip(tensor.components, pointwise.components):
        assert np.abs(a - e).max() <= 1e-15 * scale


# ---------------------------------------------------------------------------
# exact face means: each 1D factor by the Gauss rule exact for its degree

EXACT_GRIDS = {
    "graded-2d": MacGrid([graded_axis(0.0, 1.0, 16, 1.02)] * 2),
    "graded-3d": MacGrid([graded_axis(0.0, 1.0, 8, 1.02)] * 3),
    "coords-2d": random_nonuniform_grid(np.random.default_rng(163), 2, max_cells=9),
    "coords-3d": random_nonuniform_grid(np.random.default_rng(167), 3, max_cells=6),
}


def vortex_parts(dim):
    """The TensorFields of vortex{dim}d: the velocity, and the linear and convective forcing parts."""
    prob = mms_problem(f"vortex{dim}d")
    return {"velocity": prob.initial, "linear": prob.forcing.terms[0][1], "convective": prob.forcing.terms[1][1]}


@pytest.mark.parametrize("grid", EXACT_GRIDS.values(), ids=EXACT_GRIDS.keys())
def test_face_means_match_an_8_point_rule(grid):
    # the convective factors reach degree 7 (2D) and 8 (3D), past the 3-point
    # rule's degree 5: the 3-point means of vortex3d on 8^3 are off by 1.4e-7
    for part, field in vortex_parts(grid.dim).items():
        expected = face_average(grid, lambda pts: field(pts), order=8)  # a plain callable: the pointwise rule
        scale = max(np.abs(c).max() for c in expected.components)
        for a, e in zip(field.face_average(grid).components, expected.components, strict=True):
            assert np.abs(a - e).max() <= 1e-15 * scale, part


def three_point_means(field, grid):
    """Face means of a TensorField with the 3-point rule on every transverse factor."""
    x, w = np.polynomial.legendre.leggauss(3)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    comps = []
    for i, terms in enumerate(field.components):
        acc = np.zeros(grid.face_shape(i))
        for c, ps in terms:
            factors = [
                p(grid.axes[a]) if a == i
                else sum(wk * p(grid.axes[a][:-1] + xk * grid.h[a]) for xk, wk in zip(nodes, weights))
                for a, p in enumerate(ps)
            ]
            acc += c * reduce(np.multiply, np.ix_(*factors))
        comps.append(acc)
    return comps


@pytest.mark.parametrize("grid", EXACT_GRIDS.values(), ids=EXACT_GRIDS.keys())
def test_velocity_means_keep_the_3_point_bits(grid):
    # the velocity's factors have degree <= 5, where 3 points are already
    # exact: they keep the 3-point rule and its bits, and so does the
    # velocity at any t
    prob = mms_problem(f"vortex{grid.dim}d")
    expected = three_point_means(prob.initial, grid)
    for a, e in zip(prob.initial.face_average(grid).components, expected, strict=True):
        np.testing.assert_array_equal(a, e)
    for a, e in zip(prob.velocity.face_average(grid, 0.3).components, expected, strict=True):
        np.testing.assert_array_equal(a, math.exp(-0.3) * e)


@pytest.mark.parametrize("name", ["vortex2d", "vortex3d"])
def test_initialize_reuses_the_velocity_s_means(name, monkeypatch):
    # problem.initial is the velocity's spatial part: after the velocity has
    # been face-averaged on a grid, initializing on it evaluates no polynomial
    prob = mms_problem(name)
    grid = EXACT_GRIDS[f"coords-{name[-2:]}"]
    scheme = ProjectionScheme(grid)
    prob.velocity.face_average(grid, 0.0)
    calls = []
    evaluate = Polynomial.__call__
    monkeypatch.setattr(Polynomial, "__call__", lambda p, x: calls.append(p) or evaluate(p, x))
    scheme.initialize(prob.initial)
    assert calls == []


@pytest.mark.parametrize("part", ["velocity", "linear", "convective"])
def test_tensor_face_average_returns_fresh_fields(part):
    # the per-grid means are kept; what a call returns is the caller's own
    grid = EXACT_GRIDS["coords-2d"]
    field = vortex_parts(2)[part]
    first = field.face_average(grid)
    expected = [c.copy() for c in first.components]
    for c in first.components:
        c[:] = np.nan
    second = field.face_average(grid)
    for a, e in zip(second.components, expected, strict=True):
        np.testing.assert_array_equal(a, e)
