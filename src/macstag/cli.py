"""Command-line front end.

Subcommands: run (time integration with diagnostics), verify (structural
property suite plus a short integration check), convergence (refinement
ladder on a manufactured solution), operators-check (operator identities
and matrix export), translate (time-translate compactness table).

Exit codes: 0 success, 1 a verdict failed or a solve or step failed
(reported as "error: ..." on stderr), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import output
from .config import ConfigError, parse_config
from .grid import midpoint_refined, uniform_grid
from .mms import mms_problem
from .operators import Operators
from .scheme import ProjectionScheme, SchemeError
from .verify import TranslateAccumulator, convergence_study, property_suite

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="macstag",
        description="Incremental projection solver and structural verification harness "
        "for the incompressible Navier-Stokes equations on staggered grids.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file (key=value sections)")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides output.directory)")
    common.add_argument("--seed", type=int, metavar="U64", help="seed for randomized checks")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="integrate the configured problem")
    sub.add_parser("verify", parents=[common], help="structural property suite and short run check")
    p = sub.add_parser("convergence", parents=[common], help="refinement study on the configured problem")
    p.add_argument("--levels", type=int, default=3, metavar="K", help="number of refinement levels")
    sub.add_parser("operators-check", parents=[common], help="operator identities, export matrices")
    p = sub.add_parser("translate", parents=[common], help="time-translate compactness table")
    p.add_argument(
        "--taus",
        default="1,2,4",
        metavar="K1,K2,..",
        help="translates as positive integer multiples of dt",
    )
    return parser


def _load(args):
    overrides = {}
    if args.out is not None:
        overrides[("output", "directory")] = args.out
    if args.seed is not None:
        overrides[("output", "seed")] = args.seed
    cfg = parse_config(args.config, env=os.environ, overrides=overrides)
    # the output directory's nearest existing ancestor must be a writable directory; nothing is created yet
    probe = os.path.abspath(cfg.out_dir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError([f"output directory {cfg.out_dir!r} cannot be used: {probe!r} is not a writable directory"])
    return cfg


def _print_step(diag):
    print(
        f"step {diag.n:5d}  t={diag.t:.6g}  energy={diag.kinetic_energy:.9e}  "
        f"div_max={diag.div_max:.3e}  iters={diag.pred_iters}/{diag.corr_iters}"
    )


def _write_snapshot(cfg, scheme, state):
    base = f"fields_{state.n:06d}"
    u = scheme.ops.unpack(state.u)
    if cfg.output_format == "vtk":
        output.write_vtk(os.path.join(cfg.out_dir, base + ".vtk"), scheme.grid, u, state.p)
    else:
        output.write_fields_csv(cfg.out_dir, base, scheme.grid, u, state.p)


def _problem_on(cfg, grid):
    """The configured problem, which must have the dimension of the grid."""
    problem = mms_problem(cfg.problem)
    if problem.dim != grid.dim:
        raise ConfigError([f"problem {cfg.problem!r} is {problem.dim}D but the grid is {grid.dim}D"])
    return problem


def cmd_run(cfg, args):
    grid = cfg.build_grid()
    problem = _problem_on(cfg, grid)
    scheme = ProjectionScheme(grid, **cfg.scheme_kwargs())
    levels = scheme.iterate(problem.initial, problem.forcing, cfg.t_final, cfg.steps)

    output.write_text(os.path.join(cfg.out_dir, "config.resolved.ini"), cfg.to_ini())
    # each row and snapshot is written as its level arrives, so a failed step keeps the ones before it
    with output.open_diagnostics_csv(os.path.join(cfg.out_dir, "diagnostics.csv")) as csv_file:
        for state, diag in levels:
            if diag is not None:
                _print_step(diag)
                csv_file.write(output.diagnostics_row(diag) + "\n")
                csv_file.flush()
            if state.n == cfg.steps or (cfg.cadence > 0 and state.n % cfg.cadence == 0):
                _write_snapshot(cfg, scheme, state)
    print(
        f"run complete: {cfg.steps} steps to t={cfg.t_final:g}, "
        f"final energy {diag.kinetic_energy:.9e}, outputs in {cfg.out_dir}"
    )
    return 0


def _default_verify_grid():
    return uniform_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))


def cmd_verify(cfg, args):
    grid = _default_verify_grid() if args.config is None else cfg.build_grid()
    report = property_suite(grid, seed=cfg.seed)
    lines = [report.summary()]

    problem = mms_problem(cfg.problem)
    if problem.dim != grid.dim:
        problem = mms_problem("vortex2d" if grid.dim == 2 else "vortex3d")
    steps = min(cfg.steps, 8)
    margin, div_worst, failure = float("inf"), 0.0, None
    try:
        scheme = ProjectionScheme(grid, **cfg.scheme_kwargs())
        for _, diag in scheme.iterate(problem.initial, problem.forcing, min(cfg.t_final, 0.25), steps):
            if diag is not None:
                margin = min(margin, diag.energy_margin)
                div_worst = max(div_worst, diag.div_max)
    except SchemeError as exc:
        # the report keeps the property suite; main prints the error line and exits 1
        failure = exc
        lines.append(f"FAIL  short integration over {steps} steps: {exc}")
    energy_ok = margin >= -1e-9
    if failure is None:
        lines.append(
            f"{'pass' if energy_ok else 'FAIL'}  per-step energy inequality over {steps} steps: "
            f"worst relative margin {margin:.3e} (allowed >= -1e-09)"
        )
        # a step past this bound has raised, with the same poisson_tol
        lines.append(
            f"pass  post-correction divergence: worst {div_worst:.3e} (allowed <= {10.0 * cfg.poisson_tol:.1e})"
        )
    ok = failure is None and report.passed and energy_ok
    lines.append("verify: " + ("pass" if ok else "FAIL"))
    text = "\n".join(lines)
    print(text)
    output.write_text(os.path.join(cfg.out_dir, "verify_report.txt"), text)
    if failure is not None:
        raise failure
    return 0 if ok else 1


def cmd_operators_check(cfg, args):
    grid = _default_verify_grid() if args.config is None else cfg.build_grid()
    report = property_suite(grid, seed=cfg.seed)
    print(report.summary())
    paths = Operators(grid).export_matrices(os.path.join(cfg.out_dir, "matrices"))
    output.write_text(os.path.join(cfg.out_dir, "operators_report.txt"), report.summary())
    print(f"exported {len(paths)} matrices to {os.path.join(cfg.out_dir, 'matrices')}")
    return 0 if report.passed else 1


def cmd_convergence(cfg, args):
    if args.levels < 1:
        raise ConfigError([f"--levels must be >= 1, got {args.levels}"])
    grid = cfg.build_grid()
    flat = [a for a, n in enumerate(grid.shape) if n == 1]
    if args.levels > 1 and flat:
        # its direction-a block is empty, while the refined levels' are not: their errors do not compare
        raise ConfigError([f"convergence --levels {args.levels} cannot start from a grid with 1 cell along "
                           f"axis {flat[0]}: that level's error does not compare with the refined levels'"])
    problem = _problem_on(cfg, grid)
    levels = [(grid, cfg.steps)]
    while len(levels) < args.levels:
        grid, steps = levels[-1]
        levels.append((midpoint_refined(grid), 2 * steps))
    report = convergence_study(problem, levels, cfg.t_final, **cfg.scheme_kwargs())
    print(report.summary())
    output.write_study_csv(os.path.join(cfg.out_dir, "study.csv"), report)
    output.write_text(os.path.join(cfg.out_dir, "study_summary.txt"), report.summary())
    return 0 if report.passed() else 1


def cmd_translate(cfg, args):
    try:
        multiples = [int(tok) for tok in args.taus.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError([f"cannot parse --taus {args.taus!r} as integers"]) from None
    if not multiples or any(k < 1 for k in multiples):
        raise ConfigError([f"--taus must be positive integers, got {args.taus!r}"])
    if len(set(multiples)) < len(multiples):
        raise ConfigError([f"--taus repeats a multiple, got {args.taus!r}"])
    bad = [k for k in multiples if k >= cfg.steps]
    if bad:
        raise ConfigError([f"translates {bad} do not fit a {cfg.steps}-step trajectory"])
    grid = cfg.build_grid()
    problem = _problem_on(cfg, grid)
    scheme = ProjectionScheme(grid, **cfg.scheme_kwargs())
    sums = TranslateAccumulator(scheme.time_step(cfg.t_final, cfg.steps), multiples, scheme.projector)
    # a failed step raises out of this loop, before any table is printed or written
    for state, diag in scheme.iterate(problem.initial, problem.forcing, cfg.t_final, cfg.steps):
        if diag is not None:
            sums.add(scheme.ops.unpack(state.u_tilde_prev))
    rows = sums.rows()
    print(f"translate table for {cfg.problem} ({cfg.steps} steps, dt={sums.dt:.5g})")
    print("tau        steps  l2_translate_sq   star_translate_sq")
    for r in rows:
        print(f"{r.tau:<10.5g} {r.steps:<6d} {r.l2_sq:<17.10e} {r.star_sq:<17.10e}")
    print(f"summed step increments (exact tau=dt integral): {sums.l2[1]:.10e}")
    output.write_translate_csv(os.path.join(cfg.out_dir, "translate.csv"), rows)
    return 0 if all(r.bounded for r in rows) else 1


_COMMANDS = {"run": cmd_run, "verify": cmd_verify, "operators-check": cmd_operators_check,
             "convergence": cmd_convergence, "translate": cmd_translate}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
