#
# Acceptance gate: the ten structural criteria the package is built around,
# each with its tolerance pinned, each reporting one pass/fail line.
#
# The heavy trajectories are computed once per session and shared.
#

import time

import numpy as np
import pytest
import scipy.sparse as sp

from macstag.fields import face_average, l2_norm, velocity_inner, w1q_norm
from macstag.grid import MacGrid, uniform_grid
from macstag.mms import mms_problem
from macstag.operators import Operators
from macstag.output import write_diagnostics_csv
from macstag.projection import Projector, dense_divfree_basis, seminorm_by_basis
from macstag.scheme import ProjectionScheme
from macstag.verify import (
    convergence_study,
    random_pressure,
    random_velocity,
    summed_step_increments,
    translate_diagnostic,
)

import conftest
from conftest import random_nonuniform_grid


def record(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance {number:2d} {verdict}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def timed_run(problem_name, shape, steps, t_final):
    prob = mms_problem(problem_name)
    g = uniform_grid((0.0,) * len(shape), (1.0,) * len(shape), shape)
    scheme = ProjectionScheme(g)
    t0 = time.perf_counter()
    traj = scheme.run(prob.initial, prob.forcing, t_final, steps)
    return traj, scheme, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_2d():
    return timed_run("vortex2d", (32, 32), 64, 0.5)


@pytest.fixture(scope="module")
def run_3d():
    return timed_run("vortex3d", (8, 8, 8), 32, 0.5)


def test_01_duality():
    """Gradient and divergence are negative adjoints on every mesh."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    grids = [random_nonuniform_grid(rng, 2, max_cells=16) for _ in range(10)]
    grids += [random_nonuniform_grid(rng, 3, max_cells=16) for _ in range(10)]
    for g in grids:
        ops = Operators(g)
        vol = ops.cell_vol
        mass = ops.mass_velocity
        for _ in range(100):
            p = rng.standard_normal(ops.n_cells)
            v = rng.standard_normal(ops.n_velocity)
            lhs = float((ops.G @ p) @ (mass * v))
            rhs = -float(p @ (vol * (ops.D @ v)))
            scale = np.sqrt(float(p @ (vol * p))) * np.sqrt(float(v @ (mass * v)))
            worst = max(worst, abs(lhs - rhs) / scale)
    record(1, worst <= 1e-12, f"duality residual {worst:.3e} over 20 grids x 100 pairs (tol 1e-12)")


def test_02_skew_symmetry_and_coercivity():
    rng = np.random.default_rng(2025)
    worst_skew = 0.0
    worst_lap = 0.0
    for dim in (2, 3):
        for _ in range(3):
            g = random_nonuniform_grid(rng, dim, max_cells=8)
            ops = Operators(g)
            proj = Projector(ops)
            for _ in range(5):
                a = proj.project(random_velocity(g, rng))
                w = random_velocity(g, rng)
                b = ops.convection_form(a, w, w)
                worst_skew = max(worst_skew, abs(b) / (l2_norm(a) * l2_norm(w) ** 2))
                quad = sum(
                    ops.block(ops.pack(w), i) @ (ops.laplace_blocks[i] @ ops.block(ops.pack(w), i))
                    for i in range(dim)
                )
                semi = w1q_norm(w, 2.0) ** 2
                worst_lap = max(worst_lap, abs(quad - semi) / semi)
    ok = worst_skew <= 1e-12 and worst_lap <= 1e-12
    record(2, ok, f"skew residual {worst_skew:.3e}, diffusion/seminorm mismatch {worst_lap:.3e} (tol 1e-12)")


def jittered_grid(rng, shape):
    """Non-uniform grid with every cell within [0.4, 1.6] of the uniform width.

    The polynomial interpolants are divergence-free on any cut placement, but
    the trig ones rely on the face quadrature actually resolving the wave, so
    their grids must keep cells well below the period.
    """
    axes = []
    for n in shape:
        cuts = np.arange(n + 1, dtype=float)
        cuts[1:-1] += rng.uniform(-0.3, 0.3, n - 1)
        axes.append(cuts / n)
    return MacGrid(axes)


def test_03_interpolation_preserves_divergence():
    rng = np.random.default_rng(2026)
    g2 = random_nonuniform_grid(rng, 2, max_cells=12)
    g3 = random_nonuniform_grid(rng, 3, max_cells=8)

    worst_poly = 0.0
    for g, name in ((g2, "vortex2d"), (g3, "vortex3d")):
        prob = mms_problem(name)
        ops = Operators(g)
        u = face_average(g, prob.initial, order=5)
        u.zero_exterior()
        worst_poly = max(worst_poly, float(np.abs(ops.div(u).data).max()))

    def trig2(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
             -np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2],
            axis=1,
        )

    def trig3(pts):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        mod = np.sin(np.pi * z) ** 2
        return np.stack(
            [np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y) * mod,
             -np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2 * mod,
             np.zeros_like(z)],
            axis=1,
        )

    worst_trig = 0.0
    for shape, field in (((16, 12), trig2), ((12, 10, 14), trig3)):
        g = jittered_grid(rng, shape)
        ut = face_average(g, field, order=5)
        ut.zero_exterior()
        worst_trig = max(worst_trig, float(np.abs(Operators(g).div(ut).data).max()))
    ok = worst_poly <= 1e-12 and worst_trig <= 1e-10
    record(3, ok, f"interpolant divergence: polynomial {worst_poly:.3e} (tol 1e-12), trig {worst_trig:.3e} (tol 1e-10)")


def test_04_per_step_energy_inequality(run_2d, run_3d):
    traj2, _, sec2 = run_2d
    traj3, _, sec3 = run_3d
    margins = [
        d.energy_residual / max(d.energy_scale, 1e-300)
        for d in traj2.diagnostics + traj3.diagnostics
    ]
    worst = min(margins)
    elapsed = sec2 + sec3
    ok = worst >= -1e-9 and elapsed < 180.0
    record(
        4,
        ok,
        f"energy residual margin {worst:.3e} over {len(margins)} steps (tol -1e-9), "
        f"runtime {elapsed:.1f}s (< 180s)",
    )


def test_05_divergence_and_pressure_mean(run_2d, run_3d):
    worst_div = 0.0
    worst_mean = 0.0
    for traj, scheme, _ in (run_2d, run_3d):
        worst_div = max(worst_div, max(d.div_max for d in traj.diagnostics))
        vol = traj.grid.cell_volumes
        for p in traj.pressures[1:]:
            norm = l2_norm(p)
            if norm > 0:
                worst_mean = max(worst_mean, abs(float(np.sum(vol * p.data))) / norm)
    ok = worst_div <= 10.0 * 1e-10 and worst_mean <= 1e-12
    record(
        5,
        ok,
        f"post-correction divergence {worst_div:.3e} (tol 1e-9), "
        f"pressure volume-mean {worst_mean:.3e} x ||p|| (tol 1e-12)",
    )


def test_06_dt_coupling(run_2d):
    prob = mms_problem("vortex2d")
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32))
    couplings = {}
    traj64, _, _ = run_2d
    couplings[64] = float(traj64.diagnostics[-1].coupling_norm)
    for steps in (32, 128):
        scheme = ProjectionScheme(g)
        traj = scheme.run(prob.initial, prob.forcing, 0.5, steps)
        couplings[steps] = float(traj.diagnostics[-1].coupling_norm)
    r1 = couplings[64] / couplings[32]
    r2 = couplings[128] / couplings[64]
    ok = 0.4 <= r1 <= 0.6 and 0.4 <= r2 <= 0.6
    record(6, ok, f"coupling-norm halving ratios {r1:.3f}, {r2:.3f} (required within [0.4, 0.6])")


def test_07_convergence_under_refinement():
    prob = mms_problem("vortex2d")
    levels = [
        (uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8)), 8),
        (uniform_grid((0.0, 0.0), (1.0, 1.0), (16, 16)), 16),
        (uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32)), 32),
    ]
    report = convergence_study(prob, levels, 0.5)
    errs = [lv.err_l2l2 for lv in report.levels]
    ratios = report.ratios
    ok = report.passed(factor=0.8)
    record(
        7,
        ok,
        "L2(L2) errors " + " -> ".join(f"{e:.3e}" for e in errs)
        + f", ratios {', '.join(f'{r:.3f}' for r in ratios)} (strictly decreasing, <= 0.8)",
    )


def test_08_projection_identities():
    g = uniform_grid((0.0, 0.0), (1.0, 1.0), (5, 5))
    ops = Operators(g)
    proj = Projector(ops)
    basis = dense_divfree_basis(ops)
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(20):
        w = random_velocity(g, rng)
        pw = proj.project(w)
        # idempotence
        worst = max(worst, l2_norm(proj.project(pw) - pw) / max(l2_norm(w), 1e-30))
        # Pythagoras
        lhs = l2_norm(w) ** 2
        rhs = l2_norm(pw) ** 2 + l2_norm(w - pw) ** 2
        worst = max(worst, abs(lhs - rhs) / lhs)
        # gradients are annihilated
        q = random_pressure(g, rng)
        gq = ops.grad(q)
        worst = max(worst, proj.divfree_seminorm(gq) / max(l2_norm(gq), 1e-30))
        # seminorm equals the dense nullspace-basis oracle
        ours = proj.divfree_seminorm(w)
        ref = seminorm_by_basis(ops, w, basis)
        worst = max(worst, abs(ours - ref) / max(ref, 1e-30))
    record(8, worst <= 1e-10, f"projection identity residual {worst:.3e} on 5x5 (tol 1e-10)")


def test_09_time_translates(run_2d):
    traj, scheme, _ = run_2d
    dt = traj.dt
    proj = Projector(scheme.ops)
    rows = translate_diagnostic(traj, [dt, 2 * dt, 4 * dt, 8 * dt], projector=proj)
    increments = summed_step_increments(traj)
    first = rows[0]
    ok_first = first.l2_sq <= 4.0 * increments and first.star_sq <= 4.0 * increments
    ok_order = all(r.star_sq <= r.l2_sq * (1.0 + 1e-13) for r in rows)
    ok = ok_first and ok_order
    record(
        9,
        ok,
        f"tau=dt translate {first.l2_sq:.3e} vs 4x summed increments {4 * increments:.3e}; "
        f"projection column below L2 column on all {len(rows)} translates (slack 1e-13)",
    )


def test_10_determinism(tmp_path):
    prob = mms_problem("vortex2d")
    payloads = []
    for tag in ("a", "b"):
        g = uniform_grid((0.0, 0.0), (1.0, 1.0), (32, 32))
        scheme = ProjectionScheme(g)
        traj = scheme.run(prob.initial, prob.forcing, 0.5, 64)
        path = tmp_path / f"diag_{tag}.csv"
        write_diagnostics_csv(str(path), traj.diagnostics)
        payloads.append(path.read_bytes())
    ok = payloads[0] == payloads[1]
    record(10, ok, f"identical rerun produced byte-identical diagnostics ({len(payloads[0])} bytes)")
