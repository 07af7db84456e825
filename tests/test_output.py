#
# Deterministic output: diagnostics and field snapshots as text, VTK export
# as binary doubles.
#

import numpy as np

from macstag.fields import PressureField, VelocityField
from macstag.grid import uniform_grid
from macstag.mms import mms_problem
from macstag.output import (
    fmt,
    write_diagnostics_csv,
    write_fields_csv,
    write_study_csv,
    write_translate_csv,
    write_vtk,
)
from macstag.scheme import DIAGNOSTIC_COLUMNS, ProjectionScheme
from macstag.verify import StudyLevel, StudyReport, TranslateRow

from conftest import read_vtk


def test_fmt_roundtrips():
    for x in (0.0, 1.0, -1.0 / 3.0, 1e-300, 6.02e23, np.pi):
        assert float(fmt(x)) == x
    assert fmt(1.0) == "1"
    assert fmt(0.5) == "0.5"


def small_run():
    prob = mms_problem("vortex2d")
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    scheme = ProjectionScheme(g)
    return g, scheme.run(prob.initial, prob.forcing, 0.05, 2)


def test_diagnostics_csv(tmp_path):
    g, traj = small_run()
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(str(path), traj.diagnostics)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(DIAGNOSTIC_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"  # integer step index, no decoration
    assert first[-1].isdigit() and first[-2].isdigit()
    # newline discipline: single trailing newline, unix endings
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_diagnostics_csv_deterministic(tmp_path):
    g, traj = small_run()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_diagnostics_csv(str(a), traj.diagnostics)
    write_diagnostics_csv(str(b), traj.diagnostics)
    assert a.read_bytes() == b.read_bytes()


def test_fields_csv(tmp_path):
    g, traj = small_run()
    write_fields_csv(str(tmp_path), "snap", g, traj.velocities[-1], traj.pressures[-1])
    ptext = (tmp_path / "snap_pressure.csv").read_text().splitlines()
    assert ptext[0] == "i,j,x,y,pressure"
    assert len(ptext) == 1 + 16
    vtext = (tmp_path / "snap_velocity.csv").read_text().splitlines()
    assert vtext[0] == "direction,i,j,x,y,value"
    assert len(vtext) == 1 + 5 * 4 + 4 * 5


def test_fields_csv_3d(tmp_path):
    g = uniform_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))
    u = VelocityField(g)
    p = PressureField(g)
    write_fields_csv(str(tmp_path), "s", g, u, p)
    ptext = (tmp_path / "s_pressure.csv").read_text().splitlines()
    assert ptext[0] == "i,j,k,x,y,z,pressure"
    assert len(ptext) == 1 + 8


def test_vtk_structure(tmp_path):
    g, traj = small_run()
    path = tmp_path / "snap.vtk"
    write_vtk(str(path), g, traj.velocities[-1], traj.pressures[-1])
    raw = path.read_bytes()
    assert raw.startswith(
        b"# vtk DataFile Version 3.0\nmacstag fields\nBINARY\n"
        b"DATASET RECTILINEAR_GRID\nDIMENSIONS 5 5 1\n"
    )
    assert b"X_COORDINATES 5 double\n" in raw
    assert b"Z_COORDINATES 1 double\n" in raw
    assert b"CELL_DATA 16\nSCALARS pressure double 1\nLOOKUP_TABLE default\n" in raw
    assert b"VECTORS velocity double\n" in raw
    # 5 + 5 + 1 coordinates, then 16 cells: one pressure value and one 3-vector per cell
    title, coords, pressure, velocity = read_vtk(str(path))
    assert [c.size for c in coords] == [5, 5, 1]
    assert pressure.shape == (16,) and velocity.shape == (16, 3)
    assert not velocity[:, 2].any()


def test_vtk_3d(tmp_path):
    g = uniform_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 3, 2))
    u = VelocityField(g)
    for c in u.components:
        c.fill(1.0)
    p = PressureField(g, np.arange(12, dtype=float).reshape(g.shape))
    path = tmp_path / "s.vtk"
    write_vtk(str(path), g, u, p)
    raw = path.read_bytes()
    assert b"\nBINARY\n" in raw
    assert b"\nDIMENSIONS 3 4 3\n" in raw
    assert b"\nCELL_DATA 12\n" in raw
    title, coords, pressure, velocity = read_vtk(str(path))
    # pressure with x fastest, velocity 1 in every direction
    assert pressure.tolist() == p.data.ravel(order="F").tolist()
    assert velocity.tolist() == [[1.0, 1.0, 1.0]] * 12


def test_study_csv(tmp_path):
    lv = StudyLevel(
        shape=(4, 4), h_max=0.35, dt=0.1, theta=1.0, err_l2l2=0.5,
        err_final=0.4, err_h1=1.0, coupling=0.1, min_energy_margin=-1e-12,
    )
    report = StudyReport("vortex2d", [lv])
    path = tmp_path / "study.csv"
    write_study_csv(str(path), report)
    lines = path.read_text().splitlines()
    assert lines[0] == "cells,h_max,dt,theta,err_l2l2,err_final,err_h1,coupling,min_energy_margin"
    assert lines[1].startswith("4x4,")


def test_translate_csv(tmp_path):
    rows = [TranslateRow(tau=0.1, steps=1, l2_sq=0.25, star_sq=0.2)]
    path = tmp_path / "tr.csv"
    write_translate_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,steps,l2_translate_sq,star_translate_sq"
    assert lines[1] == f"{fmt(0.1)},1,0.25,{fmt(0.2)}"
    parts = lines[1].split(",")
    assert float(parts[0]) == 0.1 and float(parts[3]) == 0.2
