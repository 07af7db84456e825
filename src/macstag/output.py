"""Deterministic CSV and legacy-VTK writers.

CSV floats are written with 17 significant digits (round-trip exact for IEEE
doubles) and text files always use '\n' line endings, so identical runs
produce byte-identical artifacts. Field snapshots and translate.csv are
printed from equal-length columns by one row formatter, _rows. VTK files are
not printed: their data sections are big-endian IEEE doubles (the legacy
BINARY encoding), which keep every bit and cost no decimal conversion.
"""

from __future__ import annotations

import os
from dataclasses import astuple, fields

import numpy as np

from .scheme import DIAGNOSTIC_COLUMNS
from .verify import StudyLevel

__all__ = [
    "fmt",
    "diagnostics_row",
    "open_diagnostics_csv",
    "write_diagnostics_csv",
    "write_fields_csv",
    "write_vtk",
    "write_study_csv",
    "write_translate_csv",
    "write_text",
]

_DIAGNOSTICS_HEADER = ",".join(DIAGNOSTIC_COLUMNS)
_NUMBER = "%.17g"


def fmt(x) -> str:
    """x with 17 significant digits; an integer prints as its digits."""
    return _NUMBER % float(x)


def _rows(columns):
    """One CSV line per row of the equal-length 1D columns, each value printed as fmt prints it."""
    line = ",".join([_NUMBER] * len(columns))
    return list(map(line.__mod__, zip(*(np.asarray(c).tolist() for c in columns))))


def _make_parent(path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)


def write_text(path, content):
    _make_parent(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(content)
        if not content.endswith("\n"):
            fh.write("\n")
    return path


def diagnostics_row(d) -> str:
    """One diagnostics.csv line, without its newline: the ten contract columns of d."""
    return ",".join(fmt(value) for value in d.row())


def write_diagnostics_csv(path, diagnostics):
    """One row per step with the ten contract columns, written as open_diagnostics_csv writes them."""
    with open_diagnostics_csv(path) as fh:
        fh.writelines(diagnostics_row(d) + "\n" for d in diagnostics)
    return path


def open_diagnostics_csv(path):
    """diagnostics.csv opened with its header written, for rows written as the steps arrive."""
    _make_parent(path)
    fh = open(path, "w", newline="\n")
    fh.write(_DIAGNOSTICS_HEADER + "\n")
    return fh


def _grid_columns(axes, values):
    """Index, coordinate and value columns of values on the tensor grid over axes, in C order."""
    index = np.indices(values.shape).reshape(values.ndim, -1)
    coords = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
    return [*index, *coords, values.ravel()]


def write_fields_csv(out_dir, basename, grid, u, p):
    """Field dumps: one row per cell (pressure) / per face (velocity)."""
    names = ",".join(["i", "j", "k"][: grid.dim] + ["x", "y", "z"][: grid.dim])
    lines = [names + ",pressure"] + _rows(_grid_columns(grid.centers, p.data))
    p_path = write_text(os.path.join(out_dir, f"{basename}_pressure.csv"), "\n".join(lines))

    lines = [f"direction,{names},value"]
    for i, comp in enumerate(u.components):
        lines += _rows([np.full(comp.size, i)] + _grid_columns(grid.face_center_axes(i), comp))
    u_path = write_text(os.path.join(out_dir, f"{basename}_velocity.csv"), "\n".join(lines))
    return p_path, u_path


def write_vtk(path, grid, u, p):
    """Legacy BINARY rectilinear-grid file with cell pressure and cell-mean velocity.

    The header lines are ASCII. Each data section (the X, Y and Z coordinates,
    the pressure with x fastest, the velocity as one (x, y, z) triple per
    cell) is one block of big-endian doubles followed by a newline, so the
    values are stored bit for bit, -0.0 and NaN included.
    """
    coords = list(grid.axes) + [np.zeros(1)] * (3 - grid.dim)
    # cell means of the face values; the missing third direction is zero
    cell_u = [0.5 * (c.take(range(n), axis=i) + c.take(range(1, n + 1), axis=i))
              for i, (c, n) in enumerate(zip(u.components, grid.shape))]
    cell_u += [np.zeros(grid.shape)] * (3 - grid.dim)

    def block(header, values):
        return header.encode() + b"\n" + np.ascontiguousarray(values, dtype=">f8").tobytes() + b"\n"

    head = ["# vtk DataFile Version 3.0", "macstag fields", "BINARY", "DATASET RECTILINEAR_GRID",
            "DIMENSIONS " + " ".join(str(c.size) for c in coords)]
    parts = [("\n".join(head) + "\n").encode()]
    parts += [block(f"{label}_COORDINATES {c.size} double", c) for label, c in zip("XYZ", coords)]
    parts.append(block(f"CELL_DATA {p.data.size}\nSCALARS pressure double 1\nLOOKUP_TABLE default",
                       p.data.ravel(order="F")))
    parts.append(block("VECTORS velocity double", np.stack([c.ravel(order="F") for c in cell_u], axis=1)))
    _make_parent(path)
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    return path


def write_study_csv(path, report):
    """One row per level: its cell counts, then every other StudyLevel field.

    Header and row both follow the StudyLevel fields, with "cells" for shape.
    """
    lines = [",".join("cells" if f.name == "shape" else f.name for f in fields(StudyLevel))]
    for lv in report.levels:
        shape, *values = astuple(lv)
        lines.append(",".join(["x".join(str(s) for s in shape)] + [fmt(x) for x in values]))
    return write_text(path, "\n".join(lines))


def write_translate_csv(path, rows):
    """One row per translate: tau, its multiple of dt and the two squared translate integrals."""
    lines = ["tau,steps,l2_translate_sq,star_translate_sq"] + _rows(list(zip(*map(astuple, rows))))
    return write_text(path, "\n".join(lines))
