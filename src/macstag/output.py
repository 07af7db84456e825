"""Deterministic CSV and legacy-VTK writers.

Floats are written with 17 significant digits (round-trip exact for IEEE
doubles) and files always use '\n' line endings, so identical runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import os

import numpy as np

from .scheme import DIAGNOSTIC_COLUMNS

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


def fmt(x) -> str:
    return format(float(x), ".17g")


def write_text(path, content):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(content)
        if not content.endswith("\n"):
            fh.write("\n")
    return path


def diagnostics_row(d) -> str:
    """One diagnostics.csv line, without its newline: the ten contract columns of d."""
    cells = []
    for name, value in zip(DIAGNOSTIC_COLUMNS, d.row()):
        if name in ("n", "pred_iters", "corr_iters"):
            cells.append(str(int(value)))
        else:
            cells.append(fmt(value))
    return ",".join(cells)


def write_diagnostics_csv(path, diagnostics):
    """One row per step with the ten contract columns."""
    return write_text(path, "\n".join([_DIAGNOSTICS_HEADER] + [diagnostics_row(d) for d in diagnostics]))


def open_diagnostics_csv(path):
    """diagnostics.csv opened with its header written, for rows written as the steps arrive."""
    fh = open(path, "w", newline="\n")
    fh.write(_DIAGNOSTICS_HEADER + "\n")
    return fh


def _point_columns(dim):
    return ["x", "y", "z"][:dim]


def write_fields_csv(out_dir, basename, grid, u, p):
    """Field dumps: one row per cell (pressure) / per face (velocity)."""
    os.makedirs(out_dir, exist_ok=True)
    dim = grid.dim

    idx_names = ["i", "j", "k"][:dim]
    lines = [",".join(idx_names + _point_columns(dim) + ["pressure"])]
    centers = np.meshgrid(*grid.centers, indexing="ij")
    for index in np.ndindex(grid.shape):
        coords = [fmt(centers[a][index]) for a in range(dim)]
        lines.append(",".join([str(i) for i in index] + coords + [fmt(p.data[index])]))
    p_path = write_text(os.path.join(out_dir, f"{basename}_pressure.csv"), "\n".join(lines))

    lines = [",".join(["direction"] + idx_names + _point_columns(dim) + ["value"])]
    for i in range(dim):
        axes = grid.face_center_axes(i)
        mesh = np.meshgrid(*axes, indexing="ij")
        comp = u.components[i]
        for index in np.ndindex(comp.shape):
            coords = [fmt(mesh[a][index]) for a in range(dim)]
            lines.append(",".join([str(i)] + [str(k) for k in index] + coords + [fmt(comp[index])]))
    u_path = write_text(os.path.join(out_dir, f"{basename}_velocity.csv"), "\n".join(lines))
    return p_path, u_path


def write_vtk(path, grid, u, p, title="macstag fields"):
    """Legacy ASCII rectilinear-grid file with cell pressure and cell-mean velocity."""
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

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET RECTILINEAR_GRID",
        f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}",
    ]
    for label, c in zip(("X", "Y", "Z"), coords):
        lines.append(f"{label}_COORDINATES {c.size} double")
        lines.append(" ".join(fmt(x) for x in c))
    n_cells = int(np.prod(grid.shape))
    lines.append(f"CELL_DATA {n_cells}")
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(fmt(x) for x in p.data.ravel(order="F"))
    lines.append("VECTORS velocity double")
    flat = [c.ravel(order="F") for c in cell_u]
    lines.extend(f"{fmt(a)} {fmt(b)} {fmt(c)}" for a, b, c in zip(*flat))
    return write_text(path, "\n".join(lines))


def write_study_csv(path, report):
    header = "cells,h_max,dt,theta,err_l2l2,err_final,err_h1,coupling,min_energy_margin"
    lines = [header]
    for lv in report.levels:
        lines.append(
            ",".join(
                [
                    "x".join(str(s) for s in lv.shape),
                    fmt(lv.h_max),
                    fmt(lv.dt),
                    fmt(lv.theta),
                    fmt(lv.err_l2l2),
                    fmt(lv.err_final),
                    fmt(lv.err_h1),
                    fmt(lv.coupling),
                    fmt(lv.min_energy_margin),
                ]
            )
        )
    return write_text(path, "\n".join(lines))


def write_translate_csv(path, rows):
    lines = ["tau,steps,l2_translate_sq,star_translate_sq"]
    for r in rows:
        lines.append(",".join([fmt(r.tau), str(r.steps), fmt(r.l2_sq), fmt(r.star_sq)]))
    return write_text(path, "\n".join(lines))
