#
# Command line interface: subcommands, artifacts, exit codes.
#
# Everything runs in-process through main() so the tests stay fast and the
# exit paths stay inspectable.
#

import os
import shutil
import subprocess

import pytest

from macstag.cli import main
from macstag.config import parse_config
from macstag.mms import mms_problem
from macstag.output import write_diagnostics_csv
from macstag.scheme import ProjectionScheme, SchemeError

from conftest import BAD_NUMERIC_VALUES

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


def test_verify_default_grid(tmp_path, capsys):
    out = str(tmp_path / "v")
    assert main(["verify", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "gradient/divergence duality" in text
    assert "verify: pass" in text
    assert os.path.exists(os.path.join(out, "verify_report.txt"))


def test_verify_flags_loose_solves(tmp_path):
    # sloppy inner solves must show up as a failed energy verdict
    path = tmp_path / "loose.ini"
    path.write_text(
        "[grid]\nn = 6 6\n[time]\nfinal = 0.1\nsteps = 4\n"
        "[solver]\nprediction_tol = 1e-3\npoisson_tol = 1e-3\n"
    )
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_solver_failure_exits_1(tmp_path, capsys):
    # one GMRES iteration per prediction solve cannot reach the tolerance
    for n in (32, 8):
        path = tmp_path / "capped.ini"
        path.write_text(f"[grid]\nn = {n} {n}\n[time]\nfinal = 0.05\nsteps = 1\n[solver]\nmax_iterations = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did not converge" in err
        assert "Traceback" not in err


def test_prediction_failure_names_step_and_direction(tmp_path, capsys):
    path = tmp_path / "capped.ini"
    path.write_text("[grid]\nn = 8 8\n[time]\nfinal = 0.05\nsteps = 1\n[solver]\nmax_iterations = 1\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1, prediction, direction 0: GMRES did not converge (iterations=1, ")


def test_operators_check(tmp_path, capsys):
    out = str(tmp_path / "ops")
    assert main(["operators-check", "--out", out]) == 0
    mats = os.path.join(out, "matrices")
    names = sorted(os.listdir(mats))
    assert "gradient.txt" in names and "divergence.txt" in names
    assert any(n.startswith("diffusion_") for n in names)


def test_convergence(small_config, tmp_path, capsys):
    out = str(tmp_path / "conv")
    assert main(["convergence", "--config", small_config, "--levels", "2", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "study.csv"))
    text = capsys.readouterr().out
    assert "verdict: pass" in text


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
