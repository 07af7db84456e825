#
# Staggered grid geometry: widths, dual cells, measures, regularity.
#

import itertools
import re

import numpy as np
import pytest

from macstag.grid import (
    MacGrid,
    graded_axis,
    midpoint_refined,
    uniform_axis,
    uniform_grid,
)

from conftest import random_nonuniform_grid


def brute_force_theta(axes):
    """Regularity ratio by explicit enumeration of every face-measure pair.

    For each direction i the faces orthogonal to axis i have measure equal to
    a product of one cell width per transverse axis. The ratio is taken over
    ordered pairs of distinct directions.
    """
    dim = len(axes)
    widths = [np.diff(np.asarray(a, dtype=float)) for a in axes]
    measures = []
    for i in range(dim):
        trans = [widths[m] for m in range(dim) if m != i]
        if trans:
            vals = [np.prod(combo) for combo in itertools.product(*trans)]
        else:
            vals = [1.0]
        measures.append(vals)
    best = 0.0
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            for a in measures[i]:
                for b in measures[j]:
                    best = max(best, a / b)
    return best


def test_theta_frozen_example():
    # hand check: E^(0) measures {0.5}, E^(1) measures {0.25, 0.75},
    # worst ordered ratio 0.5/0.25 = 2
    g = MacGrid([np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0])])
    assert g.theta == pytest.approx(2.0, rel=1e-14)
    assert brute_force_theta(g.axes) == pytest.approx(2.0, rel=1e-14)


def test_theta_uniform_is_one():
    g2 = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    g3 = uniform_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))
    assert g2.theta == pytest.approx(1.0, rel=1e-14)
    assert g3.theta == pytest.approx(1.0, rel=1e-14)


def test_theta_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_nonuniform_grid(rng, 2, max_cells=5)
        assert g.theta == pytest.approx(brute_force_theta(g.axes), rel=1e-13)
    for _ in range(10):
        g = random_nonuniform_grid(rng, 3, max_cells=4)
        assert g.theta == pytest.approx(brute_force_theta(g.axes), rel=1e-13)


def test_cell_volumes_tile_domain():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        for _ in range(5):
            g = random_nonuniform_grid(rng, dim, max_cells=6)
            np.testing.assert_allclose(g.cell_volumes.sum(), g.volume, rtol=1e-13)


def test_dual_volumes_tile_domain():
    # per direction the dual cells partition the domain exactly, counting
    # the half cells attached to the Dirichlet boundary faces
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        for _ in range(5):
            g = random_nonuniform_grid(rng, dim, max_cells=6)
            for i in range(dim):
                np.testing.assert_allclose(g.dual_volumes(i).sum(), g.volume, rtol=1e-13)


def test_dual_widths_against_centers():
    g = MacGrid([np.array([0.0, 0.1, 0.4, 1.0]), np.array([0.0, 0.5, 1.0])])
    # interior dual width equals the distance between adjacent cell centers
    centers_x = g.centers[0]
    np.testing.assert_allclose(g.dual_w[0][1:-1], np.diff(centers_x), rtol=1e-15)
    # boundary dual widths are the half cells
    assert g.dual_w[0][0] == pytest.approx(0.05)
    assert g.dual_w[0][-1] == pytest.approx(0.3)


def test_h_extremes():
    g = MacGrid([np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0])])
    assert g.h_min == pytest.approx(0.25)
    assert g.h_max == pytest.approx(np.hypot(0.75, 0.5), rel=1e-15)


def test_face_shapes_and_interior_masks():
    g = uniform_grid((0.0, 0.0), (2.0, 1.0), (4, 2))
    assert g.face_shape(0) == (5, 2)
    assert g.face_shape(1) == (4, 3)
    assert g.interior_mask(0).sum() == 3 * 2
    assert g.interior_mask(1).sum() == 4 * 1


def test_axis_builders():
    ax = uniform_axis(0.0, 1.0, 4)
    np.testing.assert_allclose(ax, [0.0, 0.25, 0.5, 0.75, 1.0])
    gax = graded_axis(0.0, 1.0, 4, 2.0)
    widths = np.diff(gax)
    np.testing.assert_allclose(widths[1:] / widths[:-1], 2.0, rtol=1e-12)
    assert gax[0] == 0.0 and gax[-1] == 1.0
    np.testing.assert_allclose(graded_axis(0.0, 1.0, 4, 1.0), uniform_axis(0.0, 1.0, 4))


def test_validation_errors():
    with pytest.raises(ValueError):
        MacGrid([np.array([0.0, 1.0])])  # 1D unsupported
    with pytest.raises(ValueError):
        MacGrid([np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, 2.0])])
    with pytest.raises(ValueError):
        MacGrid([np.array([0.0]), np.array([0.0, 1.0])])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="axis 0: face coordinates must be finite"):
            MacGrid([np.array([0.0, 1.0, bad]), np.array([0.0, 0.5, 1.0])])
    with pytest.raises(ValueError):
        uniform_axis(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        graded_axis(0.0, 1.0, 3, 0.0)


def test_overflowing_measures_are_named():
    # named, with no RuntimeWarning (an error under pytest); a measure that
    # underflows to 0 is finite and is not rejected here
    for hi, what in [(1e200, "cell volumes overflow"), (1.5e154, "the box volume overflows")]:
        with pytest.raises(ValueError, match=re.escape(f"{what}: the box measures {hi:.3g} x {hi:.3g}")):
            uniform_grid((0.0, 0.0), (hi, hi), (4, 4))
    with pytest.raises(ValueError, match="h_max overflows"):
        MacGrid([np.array([0.0, 1e200]), np.array([0.0, 1e-200])])
    assert uniform_grid((0.0, 0.0), (1e-200, 1e-200), (4, 4)).volume == 0.0
    # theta overflows where every other measure is finite, and in 3D the face
    # measures of a tiny box underflow to 0, so their ratio is 0/0
    for hi, extents in [((1e154, 1e-160), "1e+154 x 1e-160"), ((1e-170,) * 3, "1e-170 x 1e-170 x 1e-170")]:
        with pytest.raises(ValueError, match=re.escape(f"theta is not finite: the box measures {extents}")):
            uniform_grid((0.0,) * len(hi), hi, (4,) * len(hi))


def test_midpoint_refinement():
    rng = np.random.default_rng(17)
    g = random_nonuniform_grid(rng, 2, max_cells=5)
    r = midpoint_refined(g)
    assert r.shape == tuple(2 * n for n in g.shape)
    # halving every width preserves every face-measure ratio
    assert r.theta == pytest.approx(g.theta, rel=1e-12)
    assert r.h_max == pytest.approx(g.h_max / 2, rel=1e-12)
    for i in range(g.dim):
        np.testing.assert_allclose(r.axes[i][::2], g.axes[i], rtol=1e-15)


GRID_INPUT_CHECKS = {
    "uniform-n-0": (lambda: uniform_axis(0.0, 1.0, 0), "axis needs at least one cell, got n=0"),
    "graded-n-0": (lambda: graded_axis(0.0, 1.0, 0, 1.1), "axis needs at least one cell, got n=0"),
    "graded-empty": (lambda: graded_axis(1.0, 1.0, 4, 1.1), "axis extent [1.0, 1.0] is empty"),
    "uniform-grid-lengths": (lambda: uniform_grid((0.0, 0.0), (1.0, 1.0, 1.0), (4, 4)),
                             "lo, hi, n must have the same length"),
}


@pytest.mark.parametrize("call, message", GRID_INPUT_CHECKS.values(), ids=GRID_INPUT_CHECKS.keys())
def test_grid_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
