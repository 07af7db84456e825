#
# Command line interface: subcommands, artifacts, exit codes.
#
# Everything runs in-process through main() so the tests stay fast and the
# exit paths stay inspectable.
#

import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import macstag
from macstag import cli as cli_module
from macstag import linalg as linalg_module
from macstag.cli import main
from macstag.config import parse_config
from macstag.grid import midpoint_refined, uniform_grid
from macstag.mms import mms_problem
from macstag.operators import Operators
from macstag.output import write_diagnostics_csv, write_translate_csv
from macstag.projection import Projector
from macstag.scheme import DIAGNOSTIC_COLUMNS, ProjectionScheme, SchemeError
from macstag.verify import TranslateAccumulator, convergence_study, translate_diagnostic

from conftest import BAD_NUMERIC_VALUES, assert_same_bits, read_vtk, vtk_arrays

SMALL = "[grid]\nn = 4 4\n[time]\nfinal = 0.05\nsteps = 2\n"


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(SMALL)
    return str(path)


def test_run_writes_artifacts(small_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", small_config, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "config.resolved.ini"))
    assert os.path.exists(os.path.join(out, "fields_000002_pressure.csv"))
    assert os.path.exists(os.path.join(out, "fields_000002_velocity.csv"))
    text = capsys.readouterr().out
    assert "step" in text and "run complete" in text
    # the resolved echo records the effective output directory
    resolved = (tmp_path / "out" / "config.resolved.ini").read_text()
    assert out in resolved


def test_run_rerun_byte_identical(small_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", "--config", small_config, "--out", out_a]) == 0
    assert main(["run", "--config", small_config, "--out", out_b]) == 0
    da = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    db = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert da == db


# graded 128^2 and 24^3: every vector the march reduces is longer than the
# size from which OpenBLAS splits a 1D sum between threads
THREAD_MARCHES = {
    "2d": "[grid]\nkind = graded\nn = 128 128\nratio = 1.03\n",
    "3d": "[domain]\nlo = 0 0 0\nhi = 1 1 1\n[grid]\nkind = graded\nn = 24 24 24\nratio = 1.03\n"
          "[problem]\nname = vortex3d\n",
}


def test_diagnostics_keep_their_bits_under_any_blas_thread_count(tmp_path):
    # each 1D sum of the march is a numpy loop, so a march under one BLAS
    # thread and under two writes the same diagnostics.csv; the GEMMs of the
    # separable solves, the 3D middle axis's stacked matmul among them, give
    # the same bits at both
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(f"{cpus} CPU: the thread counts 1 and 2 cannot be told apart")
    configs = []
    for name, text in THREAD_MARCHES.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text + "[time]\nfinal = 0.09375\nsteps = 3\n")
        configs.append((name, str(path)))
    src = os.path.dirname(os.path.dirname(macstag.__file__))
    procs = {}
    for threads in ("1", "2"):
        runs = [["run", "--config", path, "--out", str(tmp_path / f"{name}_{threads}")] for name, path in configs]
        code = f"from macstag.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs[threads] = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True)
    for proc in procs.values():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    for name, _ in configs:
        one, two = ((tmp_path / f"{name}_{t}" / "diagnostics.csv").read_bytes() for t in ("1", "2"))
        assert one.count(b"\n") == 4
        assert one == two, name


def test_streamed_diagnostics_match_list_writer(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(SMALL + "[output]\ncadence = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    cfg = parse_config(str(path))
    problem = mms_problem(cfg.problem)
    scheme = ProjectionScheme(cfg.build_grid(), **cfg.scheme_kwargs())
    traj = scheme.run(problem.initial, problem.forcing, cfg.t_final, cfg.steps)
    write_diagnostics_csv(str(tmp_path / "listed.csv"), traj.diagnostics)
    assert (out / "diagnostics.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


def test_failed_step_keeps_earlier_outputs(tmp_path, monkeypatch, capsys):
    path = tmp_path / "case.ini"
    path.write_text("[grid]\nn = 4 4\n[time]\nfinal = 0.1\nsteps = 4\n[output]\ncadence = 1\n")
    full, failed = tmp_path / "full", tmp_path / "failed"
    assert main(["run", "--config", str(path), "--out", str(full)]) == 0
    step = ProjectionScheme.step

    def failing_step(self, state, forcing, dt):
        if state.n + 1 == 3:
            raise SchemeError("step 3, prediction: injected failure")
        return step(self, state, forcing, dt)

    monkeypatch.setattr(ProjectionScheme, "step", failing_step)
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out", str(failed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 3, ") and "Traceback" not in err
    assert (failed / "config.resolved.ini").exists()
    rows = (failed / "diagnostics.csv").read_text().splitlines()
    assert rows == (full / "diagnostics.csv").read_text().splitlines()[:3]
    for n in range(5):
        snapshot = failed / f"fields_{n:06d}_velocity.csv"
        assert snapshot.exists() == (n < 3)
        if n < 3:
            assert snapshot.read_bytes() == (full / snapshot.name).read_bytes()


def test_run_cadence_and_vtk(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(SMALL + "[output]\ncadence = 1\nformat = vtk\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--out", out]) == 0
    for n in (0, 1, 2):
        assert os.path.exists(os.path.join(out, f"fields_{n:06d}.vtk"))
    # the last snapshot holds the bits of an in-process run of the same config
    cfg = parse_config(str(path))
    problem = mms_problem(cfg.problem)
    scheme = ProjectionScheme(cfg.build_grid(), **cfg.scheme_kwargs())
    traj = scheme.run(problem.initial, problem.forcing, cfg.t_final, cfg.steps)
    title, coords, pressure, velocity = read_vtk(os.path.join(out, "fields_000002.vtk"))
    want_coords, want_pressure, want_velocity = vtk_arrays(scheme.grid, traj.velocities[-1], traj.pressures[-1])
    for got, want in zip(coords, want_coords):
        assert_same_bits(got, want)
    assert_same_bits(pressure, want_pressure)
    assert_same_bits(velocity, want_velocity)


def test_verify_default_grid(tmp_path, capsys):
    out = str(tmp_path / "v")
    assert main(["verify", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "gradient/divergence duality" in text
    assert "verify: pass" in text
    assert os.path.exists(os.path.join(out, "verify_report.txt"))


def test_verify_and_operators_check_read_the_grid_from_the_environment(tmp_path, monkeypatch):
    # with no --config both commands check the configured grid, as run does,
    # where they once replaced it with a fixed 4 x 4 x 4 grid
    monkeypatch.setenv("MACSTAG_GRID_N", "6 5")
    monkeypatch.setenv("MACSTAG_GRID_KIND", "graded")
    monkeypatch.setenv("MACSTAG_GRID_RATIO", "1.1")
    for command, report in [("verify", "verify_report.txt"), ("operators-check", "operators_report.txt")]:
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 0
        assert (out / report).read_text().startswith("structural property suite on grid (6, 5), theta=")


def test_verify_needs_a_problem_of_the_grid_dimension(tmp_path, capsys):
    # the short march runs the configured problem, as run does: a 3D grid
    # with the default vortex2d is named before anything is checked or written
    path = tmp_path / "cube.ini"
    path.write_text("[domain]\nlo = 0 0 0\nhi = 1 1 1\n[grid]\nn = 4 4 4\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration:\n  - problem 'vortex2d' is 2D but the grid is 3D\n"
    assert not os.path.exists(tmp_path / "o")


def test_verify_flags_loose_solves(tmp_path):
    # sloppy inner solves must show up as a failed energy verdict
    path = tmp_path / "loose.ini"
    path.write_text(
        "[grid]\nn = 6 6\n[time]\nfinal = 0.1\nsteps = 4\n"
        "[solver]\nprediction_tol = 1e-3\npoisson_tol = 1e-3\n"
    )
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_verify_keeps_its_report_when_the_march_fails(tmp_path, monkeypatch, capsys):
    # the property suite is computed before the short march: a failed solve
    # adds a FAIL line naming it, and the report is still printed and written
    monkeypatch.setattr(linalg_module, "MAX_ITERATIONS", 1)
    path = tmp_path / "capped.ini"
    path.write_text("[solver]\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    failure = "step 1, prediction, direction 0: CGW did not converge (iterations=1, "
    assert captured.err.startswith("error: " + failure)
    assert "Traceback" not in captured.err
    lines = (out / "verify_report.txt").read_text().splitlines()
    assert lines[0] == "structural property suite on grid (8, 8), theta=1"
    assert "overall: pass" in lines
    assert lines[-2].startswith("FAIL  short integration over 8 steps: " + failure)
    assert lines[-1] == "verify: FAIL"
    assert captured.out.splitlines() == lines


def test_solver_failure_exits_1(tmp_path, monkeypatch, capsys):
    # one CGW iteration per prediction solve cannot reach the tolerance
    monkeypatch.setattr(linalg_module, "MAX_ITERATIONS", 1)
    for n in (32, 8):
        path = tmp_path / "capped.ini"
        path.write_text(f"[grid]\nn = {n} {n}\n[time]\nfinal = 0.05\nsteps = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did not converge" in err
        assert "Traceback" not in err


def test_unresolvable_grid_exits_1_before_writing(tmp_path, capsys):
    path = tmp_path / "steep.ini"
    path.write_text("[grid]\nkind = graded\nn = 128 128\nratio = 1.15\n[time]\nsteps = 1\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the separable pressure solve cannot resolve this grid: largest/smallest cell width 5.1e+07")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command, out", [(["run"], "blocker"), (["run"], "blocker/sub"),
                                          (["convergence", "--levels", "2"], "blocker/sub")])
def test_unusable_output_directory_is_a_config_error(tmp_path, capsys, command, out):
    # a path that is, or lies under, a regular file is rejected before any
    # step runs, where each subcommand once failed with a traceback at its
    # first write (convergence after its whole ladder)
    (tmp_path / "blocker").write_text("")
    path = tmp_path / "case.ini"
    path.write_text(SMALL)
    out = str(tmp_path / out)
    assert main([*command, "--config", str(path), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration:") and repr(out) in captured.err
    assert "Traceback" not in captured.err


def test_lapack_failure_exits_1_before_writing(tmp_path, monkeypatch, capsys):
    # dstemr fails and so does dpteqr on the first momentum chain
    monkeypatch.setattr(linalg_module, "dstemr", lambda d, *args: (0, d, None, 1))
    monkeypatch.setattr(linalg_module, "dpteqr", lambda d, *args, **kwargs: (d, None, None, 3))
    assert main(["run", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dpteqr failed (info=3)" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "o")


# a 4 x 4 grid of [0, L]^2
SCALED = "[domain]\nlo = 0 0\nhi = {0} {0}\n[grid]\nn = 4 4\n"


@pytest.mark.parametrize("command", ["verify", "operators-check"])
def test_property_suite_lapack_failure_exits_1(tmp_path, capsys, command):
    # at L = 1e-200 eigh fails on a Neumann chain of the projector the
    # property suite builds: one error line names it, as for run
    path = tmp_path / "tiny.ini"
    path.write_text(SCALED.format("1e-200"))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: building the separable solvers failed: LinAlgError: ")
    assert not os.path.exists(tmp_path / "o")


def test_overflowing_box_is_rejected_at_parse(tmp_path, capsys):
    # at L = 1e200 the cell volumes overflow: MacGrid names it with no
    # RuntimeWarning, and both commands exit 2 before they write anything,
    # where operators-check once reported every residual as NaN (exit 1)
    path = tmp_path / "huge.ini"
    path.write_text(SCALED.format("1e200"))
    for command in ("operators-check", "run"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid configuration:\n  - grid.kind = uniform cannot be built: "
                                "cell volumes overflow: the box measures 1e+200 x 1e+200\n")
        assert not os.path.exists(tmp_path / "o")


def test_overflowing_theta_is_rejected_at_parse(tmp_path, capsys):
    # on [0, 1e154] x [0, 1e-160] only the face-measure ratio overflows: it
    # is named at parse with no RuntimeWarning, where run once warned twice
    # and exited 1 when LAPACK failed on a chain
    path = tmp_path / "flat.ini"
    path.write_text("[domain]\nlo = 0 0\nhi = 1e154 1e-160\n[grid]\nn = 4 4\n")
    for command in ("operators-check", "run"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid configuration:\n  - grid.kind = uniform cannot be built: "
                                "theta is not finite: the box measures 1e+154 x 1e-160\n")
        assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command, report", [("verify", "verify_report.txt"),
                                             ("operators-check", "operators_report.txt")])
def test_zero_denominators_fail_in_the_report(tmp_path, capsys, command, report):
    # at L = 1e-150 the skew check's denominator underflows to 0: its 0/0 is
    # NaN and fails, where both commands once died with a ZeroDivisionError
    path = tmp_path / "small.ini"
    path.write_text(SCALED.format("1e-150"))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = (out / report).read_text().splitlines()
    assert captured.out.splitlines()[:len(lines)] == lines
    assert "  FAIL  convection skew-symmetry: worst residual nan (tolerance 1.0e-12)" in lines
    assert "  FAIL  gradient/divergence duality" in "\n".join(lines)
    assert "overall: FAIL" in lines


def test_divergence_guard_exits_1_after_the_echo(tmp_path, capsys):
    # the probe admits the default grid at poisson_tol = 1e-24, and step 1
    # fails the 10 x poisson_tol divergence guard: one error line, the
    # resolved config and a diagnostics.csv with its header alone
    path = tmp_path / "strict.ini"
    path.write_text("[solver]\npoisson_tol = 1e-24\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: step 1, correction: post-correction divergence ")
    assert "Traceback" not in err
    assert (out / "config.resolved.ini").exists()
    assert (out / "diagnostics.csv").read_text() == ",".join(DIAGNOSTIC_COLUMNS) + "\n"


def test_underflowing_prediction_exits_1_after_the_echo(tmp_path, capsys):
    # at L = 1e-150 the prediction's right-hand side is ~3e-302, nonzero, but
    # its sum of squares underflows: step 1 fails by name, where run once
    # solved it as zero and reported energy 0 on every step with exit 0
    path = tmp_path / "small.ini"
    path.write_text(SCALED.format("1e-150"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: step 1, prediction, direction 0: the right-hand side's sum of squares underflows")
    assert (out / "config.resolved.ini").exists()
    assert (out / "diagnostics.csv").read_text() == ",".join(DIAGNOSTIC_COLUMNS) + "\n"


def test_prediction_failure_names_step_and_direction(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(linalg_module, "MAX_ITERATIONS", 1)
    path = tmp_path / "capped.ini"
    path.write_text("[grid]\nn = 8 8\n[time]\nfinal = 0.05\nsteps = 1\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1, prediction, direction 0: CGW did not converge (iterations=1, ")


def test_unreachable_tolerance_fails_at_the_fixed_cap(tmp_path, capsys):
    # the CGW cap is the one constant linalg.MAX_ITERATIONS: a prediction
    # tolerance below roundoff fails there, by name and within seconds
    path = tmp_path / "absurd.ini"
    path.write_text("[grid]\nn = 32 32\n[solver]\nprediction_tol = 1e-300\n")
    start = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: step 1, prediction, direction 0: CGW did not converge (iterations=500, ")
    assert "Traceback" not in err


def test_the_iteration_cap_is_not_a_setting(tmp_path, monkeypatch, capsys):
    # solver.max_iterations is an unknown key like any other, and its
    # environment variable is ignored like any other unknown one
    path = tmp_path / "capped.ini"
    path.write_text("[solver]\nmax_iterations = 1\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration:\n  - unknown key 'max_iterations' in section [solver]\n"
    assert not os.path.exists(tmp_path / "o")
    monkeypatch.setenv("MACSTAG_SOLVER_MAX_ITERATIONS", "1")
    path.write_text(SMALL)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "max_iterations" not in (tmp_path / "o" / "config.resolved.ini").read_text()


@pytest.mark.parametrize("final, dt", [(1e-300, "1.250e-301"), (1e-160, "1.250e-161")])
def test_tiny_step_exits_1_naming_dt(tmp_path, capsys, final, dt):
    # the right-hand side's squares would overflow in the solver: the step is
    # named before the solve, with no overflow warning (an error under pytest)
    path = tmp_path / "tiny.ini"
    path.write_text(f"[time]\nfinal = {final}\n")
    start = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: step 1, prediction: dt = {dt} is too small: ")
    assert "Traceback" not in err
    # a short step whose squares stay finite still runs
    path.write_text("[time]\nfinal = 1e-100\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_operators_check(tmp_path, capsys):
    out = str(tmp_path / "ops")
    assert main(["operators-check", "--out", out]) == 0
    mats = os.path.join(out, "matrices")
    names = sorted(os.listdir(mats))
    assert "gradient.txt" in names and "divergence.txt" in names
    assert any(n.startswith("diffusion_") for n in names)


def test_convergence(small_config, tmp_path, monkeypatch, capsys):
    # K levels refine K - 1 times: no grid is built past the finest level
    refined = []

    def spy_refined(grid):
        refined.append(grid.shape)
        return midpoint_refined(grid)

    monkeypatch.setattr(cli_module, "midpoint_refined", spy_refined)
    out = str(tmp_path / "conv")
    assert main(["convergence", "--config", small_config, "--levels", "2", "--out", out]) == 0
    assert refined == [(4, 4)]
    assert os.path.exists(os.path.join(out, "study.csv"))
    text = capsys.readouterr().out
    assert "verdict: pass" in text


def test_convergence_rejects_zero_levels(small_config, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["convergence", "--levels", "0", "--config", small_config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration:\n  - --levels 0: a convergence study needs at least one level\n"
    assert not os.path.exists(out)


def test_convergence_rejects_a_ladder_from_a_1_cell_axis(tmp_path, monkeypatch, capsys):
    # a 1-cell level has an empty direction-1 block, so its error does not
    # compare with the refined levels': with two or more levels the grid is
    # a configuration error naming the axis, before any level runs
    path = tmp_path / "flat.ini"
    path.write_text("[domain]\nlo = 0 0 0\nhi = 1 1 1\n[grid]\nkind = graded\nn = 8 1 6\nratio = 1.05\n"
                    "[time]\nfinal = 0.25\nsteps = 6\n[problem]\nname = vortex3d\n")

    def no_step(*args):
        raise AssertionError("the grid is checked before any level runs")

    with monkeypatch.context() as m:
        m.setattr(ProjectionScheme, "step", no_step)
        for levels in ("2", "3"):
            out = tmp_path / f"levels{levels}"
            assert main(["convergence", "--config", str(path), "--levels", levels, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "have 1 cell along different axes, [1] and []" in err and "Traceback" not in err
            assert not (out / "study.csv").exists()
    # one level has no refined level to compare with, and runs
    out = tmp_path / "levels1"
    assert main(["convergence", "--config", str(path), "--levels", "1", "--out", str(out)]) == 0
    assert (out / "study.csv").exists()


@pytest.mark.parametrize("lo, hi, spans", [("0 0", "2 2", "[0, 2] x [0, 2]"),
                                           ("-1 0", "1 1", "[-1, 1] x [0, 1]"),
                                           ("0 0 0", "1 1 0.5", "[0, 1] x [0, 1] x [0, 0.5]")])
def test_convergence_needs_the_problems_box(tmp_path, monkeypatch, capsys, lo, hi, spans):
    # the vortices are exact only on the unit box, whose walls their velocity
    # vanishes on: elsewhere the ladder would be measured against a wrong
    # solution (on [0, 2]^2 its errors grew), so the box is a configuration
    # error before any level runs
    dim = len(lo.split())
    path = tmp_path / "box.ini"
    path.write_text(f"[domain]\nlo = {lo}\nhi = {hi}\n[grid]\nn = {' 4' * dim}\n[problem]\nname = vortex{dim}d\n")
    monkeypatch.setattr(cli_module, "midpoint_refined", None)  # level 0 is rejected before level 1 is built

    def no_scheme(*args, **kwargs):
        raise AssertionError("the levels are checked before any level runs")

    monkeypatch.setattr(ProjectionScheme, "__init__", no_scheme)
    out = tmp_path / "o"
    assert main(["convergence", "--config", str(path), "--levels", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"invalid configuration:\n  - --levels 2: convergence errors are measured against "
                            f"problem 'vortex{dim}d', which is exact only on {' x '.join(['[0, 1]'] * dim)}; "
                            f"level 0 spans {spans}\n")
    assert not os.path.exists(out)


def test_rest_convergence_runs_on_any_box(tmp_path, capsys):
    # the rest state is exact on every box
    path = tmp_path / "rest.ini"
    path.write_text("[domain]\nlo = -1 0\nhi = 1 2\n[grid]\nn = 4 4\n[time]\nfinal = 0.05\nsteps = 2\n"
                    "[problem]\nname = rest2d\n")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(path), "--levels", "2", "--out", str(out)]) == 1
    assert "ratios: nan" in capsys.readouterr().out
    assert len((out / "study.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("dim", [2, 3])
def test_convergence_on_a_zero_error_ladder(tmp_path, capsys, dim):
    # the rest state is an exact discrete fixed point: every level's error is
    # 0, so the ratio is 0/0 = nan, and the errors do not strictly decrease
    path = tmp_path / "rest.ini"
    path.write_text(f"[domain]\nlo = {' 0' * dim}\nhi = {' 1' * dim}\n[grid]\nn = {' 4' * dim}\n"
                    f"[time]\nfinal = 0.05\nsteps = 2\n[problem]\nname = rest{dim}d\n")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(path), "--levels", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "ratios: nan" in captured.out and "verdict: FAIL" in captured.out
    assert "Traceback" not in captured.err
    assert "ratios: nan" in (out / "study_summary.txt").read_text()
    assert len((out / "study.csv").read_text().splitlines()) == 3


def test_translate(tmp_path, capsys):
    path = tmp_path / "case.ini"
    path.write_text("[grid]\nn = 4 4\n[time]\nfinal = 0.1\nsteps = 4\n")
    out = str(tmp_path / "tr")
    assert main(["translate", "--config", str(path), "--taus", "1,2", "--out", out]) == 0
    lines = (tmp_path / "tr" / "translate.csv").read_text().splitlines()
    assert lines[0] == "tau,steps,l2_translate_sq,star_translate_sq"
    assert len(lines) == 3


def test_translate_rejects_oversized_tau(tmp_path, monkeypatch, capsys):
    path = tmp_path / "case.ini"
    path.write_text("[grid]\nn = 4 4\n[time]\nfinal = 0.1\nsteps = 4\n")

    def no_step(*args):
        raise AssertionError("taus are checked before any step runs")

    monkeypatch.setattr(ProjectionScheme, "step", no_step)
    assert main(["translate", "--config", str(path), "--taus", "9"]) == 2
    assert main(["translate", "--config", str(path), "--taus", "x"]) == 2
    assert main(["translate", "--config", str(path), "--taus", "0"]) == 2



def test_translate_rejects_a_repeated_multiple(tmp_path, monkeypatch, capsys):
    # a repeated multiple would print and write the same row twice
    path = tmp_path / "case.ini"
    path.write_text("[grid]\nn = 4 4\n[time]\nfinal = 0.1\nsteps = 4\n")

    def no_step(*args):
        raise AssertionError("taus are checked before any step runs")

    monkeypatch.setattr(ProjectionScheme, "step", no_step)
    for taus, multiples in (("1,1", [1, 1]), ("2,1,2", [2, 1, 2])):
        assert main(["translate", "--config", str(path), "--taus", taus, "--out", str(tmp_path / "o")]) == 2
        assert f"--taus {taus!r}: translate multiples repeat: {multiples}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")

FOUR_STEPS = "[grid]\nn = 4 4\n[time]\nfinal = 0.1\nsteps = 4\n"
FLAT = ("[domain]\nlo = 0 0 0\nhi = 1 1 1\n[grid]\nkind = graded\nn = 8 1 6\nratio = 1.05\n"
        "[time]\nfinal = 0.25\nsteps = 6\n[problem]\nname = vortex3d\n")


def _flat_ladder():
    grid = parse_config(None, text=FLAT).build_grid()
    return [(grid, 6), (midpoint_refined(grid), 12), (midpoint_refined(midpoint_refined(grid)), 24)]


# rule: (config, subcommand and options, the library call that consumes the same input)
LIBRARY_RULES = {
    "time.final": ("[time]\nfinal = -2\n", ["run"], lambda: ProjectionScheme.time_step(-2.0, 8)),
    "time.steps": ("[time]\nsteps = 0\n", ["run"], lambda: ProjectionScheme.time_step(1.0, 0)),
    "solver.prediction_tol": ("[solver]\nprediction_tol = 2\n", ["run"],
                              lambda: ProjectionScheme(uniform_grid((0, 0), (1, 1), (4, 4)), prediction_tol=2.0)),
    "solver.poisson_tol": ("[solver]\npoisson_tol = 0\n", ["run"],
                           lambda: ProjectionScheme(uniform_grid((0, 0), (1, 1), (4, 4)), poisson_tol=0.0)),
    "solver.quad_order": ("[solver]\nquad_order = 0\n", ["run"],
                          lambda: ProjectionScheme(uniform_grid((0, 0), (1, 1), (4, 4)), quad_order=0)),
    "problem.name": ("[problem]\nname = bogus\n", ["run"], lambda: mms_problem("bogus")),
    "taus-whole": (FOUR_STEPS, ["translate", "--taus", "1,0"], lambda: TranslateAccumulator(0.025, [1, 0], 4)),
    "taus-repeat": (FOUR_STEPS, ["translate", "--taus", "2,1,2"], lambda: TranslateAccumulator(0.025, [2, 1, 2], 4)),
    "taus-fit": (FOUR_STEPS, ["translate", "--taus", "1,4,9"], lambda: TranslateAccumulator(0.025, [1, 4, 9], 4)),
    "levels-none": (SMALL, ["convergence", "--levels", "0"], lambda: convergence_study("vortex2d", [], 0.05)),
    "levels-1-cell": (FLAT, ["convergence", "--levels", "3"],
                      lambda: convergence_study("vortex3d", _flat_ladder(), 0.25)),
    "levels-box": ("[domain]\nlo = 0 0\nhi = 2 2\n[grid]\nn = 4 4\n", ["convergence", "--levels", "2"],
                   lambda: convergence_study("vortex2d", [(uniform_grid((0, 0), (2, 2), (4, 4)), 8)], 1.0)),
}


@pytest.mark.parametrize("text, argv, library", LIBRARY_RULES.values(), ids=LIBRARY_RULES.keys())
def test_input_rules_are_the_library_s(tmp_path, monkeypatch, capsys, text, argv, library):
    # each rule is stated once, in the library function that consumes the input:
    # the config or the CLI reports that function's ValueError as its one item,
    # under the key or the option, with exit 2, before any step and with nothing written
    with pytest.raises(ValueError) as err:
        library()

    def no_step(*args):
        raise AssertionError("the inputs are checked before any step runs")

    monkeypatch.setattr(ProjectionScheme, "step", no_step)
    path, out = tmp_path / "case.ini", tmp_path / "o"
    path.write_text(text)
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    head, item = captured.err.splitlines()
    assert head == "invalid configuration:" and item.startswith("  - ")
    assert item.endswith(f": {err.value}"), item
    assert captured.out == "" and not out.exists()


TRANSLATE = "[grid]\nkind = graded\nn = 6 5\nratio = 1.1\n[time]\nfinal = 0.1\nsteps = 6\n"


def test_translate_streams_with_one_operator_build(tmp_path, monkeypatch):
    path = tmp_path / "case.ini"
    path.write_text(TRANSLATE)
    cfg = parse_config(str(path))
    problem = mms_problem(cfg.problem)
    scheme = ProjectionScheme(cfg.build_grid(), **cfg.scheme_kwargs())
    traj = scheme.run(problem.initial, problem.forcing, cfg.t_final, cfg.steps)
    write_translate_csv(str(tmp_path / "stored.csv"), translate_diagnostic(traj, [k * traj.dt for k in (1, 2, 5)]))

    def no_run(*args):
        raise AssertionError("translate must not store a trajectory")

    builds = []
    init = Operators.__init__

    def counted_init(self, grid):
        builds.append(grid)
        init(self, grid)

    monkeypatch.setattr(ProjectionScheme, "run", no_run)
    monkeypatch.setattr(Operators, "__init__", counted_init)
    out = tmp_path / "tr"
    assert main(["translate", "--config", str(path), "--taus", "1,2,5", "--out", str(out)]) == 0
    assert len(builds) == 1
    assert (out / "translate.csv").read_bytes() == (tmp_path / "stored.csv").read_bytes()


def test_translate_decomposes_only_in_the_march(tmp_path, monkeypatch):
    # the seminorm column reads the corrected velocities the steps return: over
    # N steps the only decompositions are the resolution probe, initialize and
    # one correction per step
    path = tmp_path / "case.ini"
    path.write_text(TRANSLATE)
    calls = []
    decompose = Projector.decompose

    def counted(self, w, **kwargs):
        calls.append(kwargs)
        return decompose(self, w, **kwargs)

    monkeypatch.setattr(Projector, "decompose", counted)
    assert main(["translate", "--config", str(path), "--taus", "1,2,5", "--out", str(tmp_path / "tr")]) == 0
    assert len(calls) == parse_config(str(path)).steps + 2


def test_translate_verdict_has_criterion_9_slack(tmp_path, monkeypatch):
    # a seminorm column 1e-9 above the L2 column, relative, breaks criterion 9
    # (slack 1e-13) however small the integrals are
    path = tmp_path / "case.ini"
    path.write_text(TRANSLATE)
    add = TranslateAccumulator.add

    def inflated(self, u_tilde, u):
        add(self, u_tilde, u_tilde * math.sqrt(1.0 + 1e-9))

    monkeypatch.setattr(TranslateAccumulator, "add", inflated)
    assert main(["translate", "--config", str(path), "--taus", "1,2", "--out", str(tmp_path / "tr")]) == 1
    rows = (tmp_path / "tr" / "translate.csv").read_text().splitlines()[1:]
    for row in rows:
        l2_sq, star_sq = map(float, row.split(",")[2:])
        assert l2_sq < 1e-4 and star_sq == pytest.approx(l2_sq * (1.0 + 1e-9), rel=1e-14)


def test_translate_failed_step_writes_no_table(tmp_path, monkeypatch, capsys):
    path = tmp_path / "case.ini"
    path.write_text(TRANSLATE)
    step = ProjectionScheme.step

    def failing_step(self, state, forcing, dt):
        if state.n + 1 == 3:
            raise SchemeError("step 3, prediction: injected failure")
        return step(self, state, forcing, dt)

    monkeypatch.setattr(ProjectionScheme, "step", failing_step)
    out = tmp_path / "tr"
    assert main(["translate", "--config", str(path), "--taus", "1,2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: step 3, ") and "Traceback" not in captured.err
    # partial sums are not the integrals: no table is printed or written
    assert "translate table" not in captured.out
    assert not (out / "translate.csv").exists()


def test_usage_errors(capsys):
    assert main(["run", "--bogus"]) == 2
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nwhat = 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "what" in err
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    for text, key in BAD_NUMERIC_VALUES:
        bad.write_text(text)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2, text
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err, text
    assert not os.path.exists(tmp_path / "o")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"# caf\xe9\n[grid]\nn = 4 4\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert f"cannot read config file {path}: 'utf-8' codec can't decode byte 0xe9" in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", ["run", "convergence", "translate"])
def test_dimension_mismatch_is_config_error(tmp_path, command):
    path = tmp_path / "m.ini"
    path.write_text("[problem]\nname = vortex3d\n")  # default grid is 2D
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_seed_flag_threads_through(tmp_path, capsys):
    out = str(tmp_path / "s")
    assert main(["verify", "--seed", "42", "--out", out]) == 0


def test_env_override(tmp_path, monkeypatch, small_config):
    out = str(tmp_path / "enved")
    monkeypatch.setenv("MACSTAG_OUTPUT_DIRECTORY", out)
    assert main(["run", "--config", small_config]) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))


def test_console_script_installed():
    exe = shutil.which("macstag")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "translate" in proc.stdout
