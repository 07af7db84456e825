#
# The column writers against per-element reference loops: field snapshots
# and VTK files must match them byte for byte. VTK files must also decode to
# the bits of the fields they were written from.
#

import os
import struct

import numpy as np
import pytest

from macstag.fields import PressureField, VelocityField
from macstag.grid import MacGrid
from macstag.output import write_fields_csv, write_vtk

from conftest import assert_same_bits, random_nonuniform_grid, read_vtk, vtk_arrays


def _fmt(x):
    return format(float(x), ".17g")


def _write(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_fields_csv(out_dir, basename, grid, u, p):
    """One row per cell and per face, written element by element."""
    dim = grid.dim
    idx_names = ["i", "j", "k"][:dim]
    point_names = ["x", "y", "z"][:dim]
    lines = [",".join(idx_names + point_names + ["pressure"])]
    centers = np.meshgrid(*grid.centers, indexing="ij")
    for index in np.ndindex(grid.shape):
        coords = [_fmt(centers[a][index]) for a in range(dim)]
        lines.append(",".join([str(i) for i in index] + coords + [_fmt(p.data[index])]))
    _write(os.path.join(out_dir, f"{basename}_pressure.csv"), lines)

    lines = [",".join(["direction"] + idx_names + point_names + ["value"])]
    for i in range(dim):
        mesh = np.meshgrid(*grid.face_center_axes(i), indexing="ij")
        comp = u.components[i]
        for index in np.ndindex(comp.shape):
            coords = [_fmt(mesh[a][index]) for a in range(dim)]
            lines.append(",".join([str(i)] + [str(k) for k in index] + coords + [_fmt(comp[index])]))
    _write(os.path.join(out_dir, f"{basename}_velocity.csv"), lines)


def reference_vtk(path, grid, u, p):
    """Rectilinear-grid VTK file in the legacy BINARY encoding, written element by element."""
    dim = grid.dim
    coords = [grid.axes[a] for a in range(dim)] + [np.zeros(1)] * (3 - dim)
    dims = [c.size for c in coords]
    cell_u = []
    for i in range(dim):
        comp = u.components[i]
        lo = comp.take(range(0, grid.shape[i]), axis=i)
        hi = comp.take(range(1, grid.shape[i] + 1), axis=i)
        cell_u.append(0.5 * (lo + hi))
    while len(cell_u) < 3:
        cell_u.append(np.zeros(grid.shape))

    def text(line):
        return (line + "\n").encode("ascii")

    def doubles(values):
        return b"".join(struct.pack(">d", float(x)) for x in values) + b"\n"

    out = [
        text("# vtk DataFile Version 3.0"),
        text("macstag fields"),
        text("BINARY"),
        text("DATASET RECTILINEAR_GRID"),
        text(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}"),
    ]
    for label, c in zip(("X", "Y", "Z"), coords):
        out.append(text(f"{label}_COORDINATES {c.size} double"))
        out.append(doubles(c))
    out.append(text(f"CELL_DATA {int(np.prod(grid.shape))}"))
    out.append(text("SCALARS pressure double 1"))
    out.append(text("LOOKUP_TABLE default"))
    out.append(doubles(p.data.ravel(order="F")))
    out.append(text("VECTORS velocity double"))
    flat = [c.ravel(order="F") for c in cell_u]
    out.append(b"".join(struct.pack(">ddd", a, b, c) for a, b, c in zip(*flat)) + b"\n")
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def awkward_fields(grid, rng):
    """Random fields with nonzero boundary faces, -0.0, 1e-300 and a NaN."""
    u = VelocityField(grid, [rng.standard_normal(grid.face_shape(i)) for i in range(grid.dim)])
    p = PressureField(grid, rng.standard_normal(grid.shape))
    u.components[0].flat[0] = -0.0
    u.components[-1].flat[-1] = 1e-300
    p.data.flat[0] = -0.0
    p.data.flat[-1] = 1e-300
    u.components[-1].flat[0] = np.nan
    return u, p


def grids(rng, dim):
    """Random non-uniform grids of dimension dim, each axis once cut to a single cell."""
    g = random_nonuniform_grid(rng, dim, max_cells=6)
    yield g
    for a in range(dim):
        axes = list(g.axes)
        axes[a] = np.array([axes[a][0], axes[a][-1]])
        yield MacGrid(axes)


@pytest.mark.parametrize("dim", [2, 3])
def test_writers_match_per_element_loops(tmp_path, rng, dim):
    for n, grid in enumerate(grids(rng, dim)):
        u, p = awkward_fields(grid, rng)
        write_fields_csv(str(tmp_path / "new"), f"g{n}", grid, u, p)
        os.makedirs(tmp_path / "ref", exist_ok=True)
        reference_fields_csv(str(tmp_path / "ref"), f"g{n}", grid, u, p)
        for name in (f"g{n}_pressure.csv", f"g{n}_velocity.csv"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

        write_vtk(str(tmp_path / "new" / f"g{n}.vtk"), grid, u, p)
        reference_vtk(str(tmp_path / "ref" / f"g{n}.vtk"), grid, u, p)
        assert (tmp_path / "new" / f"g{n}.vtk").read_bytes() == (tmp_path / "ref" / f"g{n}.vtk").read_bytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_vtk_decodes_to_the_field_bits(tmp_path, rng, dim):
    for n, grid in enumerate(grids(rng, dim)):
        u, p = awkward_fields(grid, rng)
        path = str(tmp_path / f"g{n}.vtk")
        write_vtk(path, grid, u, p)
        title, coords, pressure, velocity = read_vtk(path)
        want_coords, want_pressure, want_velocity = vtk_arrays(grid, u, p)
        assert title == "macstag fields"
        for got, want in zip(coords, want_coords):
            assert_same_bits(got, want)
        assert_same_bits(pressure, want_pressure)
        assert_same_bits(velocity, want_velocity)
        # the awkward values survive: -0.0 keeps its sign, NaN stays NaN
        assert np.signbit(pressure[0]) and pressure[0] == 0.0
        assert np.isnan(velocity).any()
