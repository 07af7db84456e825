"""Run configuration: flat key=value files with section headers.

Every key has a default, unknown sections or keys are hard errors, and any
key can be overridden through the environment as MACSTAG_<SECTION>_<KEY>
(e.g. MACSTAG_TIME_STEPS=32). The resolved configuration is echoed next to
run outputs so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from .grid import MacGrid, graded_axis, uniform_axis
from .mms import PROBLEM_NAMES

__all__ = ["RunConfig", "ConfigError", "parse_config", "ENV_PREFIX", "DEFAULTS"]

ENV_PREFIX = "MACSTAG"

# (section, key) -> default, as strings exactly as they would sit in the file
DEFAULTS = {
    ("domain", "lo"): "0 0",
    ("domain", "hi"): "1 1",
    ("grid", "kind"): "uniform",
    ("grid", "n"): "8 8",
    ("grid", "ratio"): "1",
    ("grid", "coords_0"): "",
    ("grid", "coords_1"): "",
    ("grid", "coords_2"): "",
    ("time", "final"): "1.0",
    ("time", "steps"): "8",
    ("problem", "name"): "vortex2d",
    ("solver", "prediction_tol"): "1e-10",
    ("solver", "poisson_tol"): "1e-10",
    ("solver", "max_iterations"): "0",
    ("solver", "quad_order"): "3",
    ("output", "directory"): "out",
    ("output", "cadence"): "0",
    ("output", "format"): "csv",
    ("output", "seed"): "0",
}

_SECTIONS = ("domain", "grid", "time", "problem", "solver", "output")


class ConfigError(Exception):
    """Itemized configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(["invalid configuration:"] + [f"  - {e}" for e in self.errors]))


@dataclass
class RunConfig:
    domain_lo: tuple
    domain_hi: tuple
    grid_kind: str
    grid_n: tuple
    grid_ratio: float
    grid_coords: tuple | None
    t_final: float
    steps: int
    problem: str
    prediction_tol: float
    poisson_tol: float
    max_iterations: int
    quad_order: int
    out_dir: str
    cadence: int
    output_format: str
    seed: int

    @property
    def dim(self) -> int:
        if self.grid_kind == "coords":
            return len(self.grid_coords)
        return len(self.grid_n)

    def build_grid(self) -> MacGrid:
        if self.grid_kind == "coords":
            return MacGrid(self.grid_coords)
        axes = []
        for a in range(self.dim):
            lo, hi, n = self.domain_lo[a], self.domain_hi[a], self.grid_n[a]
            if self.grid_kind == "graded":
                axes.append(graded_axis(lo, hi, n, self.grid_ratio))
            else:
                axes.append(uniform_axis(lo, hi, n))
        return MacGrid(axes)

    def scheme_kwargs(self) -> dict:
        return {
            "prediction_tol": self.prediction_tol,
            "poisson_tol": self.poisson_tol,
            "max_iterations": self.max_iterations or None,
            "quad_order": self.quad_order,
        }

    def to_ini(self) -> str:
        """Resolved key=value echo, deterministic ordering."""
        values = {
            ("domain", "lo"): " ".join(repr(x) for x in self.domain_lo),
            ("domain", "hi"): " ".join(repr(x) for x in self.domain_hi),
            ("grid", "kind"): self.grid_kind,
            ("grid", "n"): " ".join(str(x) for x in self.grid_n),
            ("grid", "ratio"): repr(self.grid_ratio),
            ("time", "final"): repr(self.t_final),
            ("time", "steps"): str(self.steps),
            ("problem", "name"): self.problem,
            ("solver", "prediction_tol"): repr(self.prediction_tol),
            ("solver", "poisson_tol"): repr(self.poisson_tol),
            ("solver", "max_iterations"): str(self.max_iterations),
            ("solver", "quad_order"): str(self.quad_order),
            ("output", "directory"): self.out_dir,
            ("output", "cadence"): str(self.cadence),
            ("output", "format"): self.output_format,
            ("output", "seed"): str(self.seed),
        }
        if self.grid_kind == "coords":
            for a, coords in enumerate(self.grid_coords):
                values[("grid", f"coords_{a}")] = " ".join(repr(x) for x in coords)
        lines = []
        for sec in _SECTIONS:
            keys = sorted(k for (s, k) in values if s == sec)
            if not keys:
                continue
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {values[(sec, k)]}" for k in keys)
            lines.append("")
        return "\n".join(lines)


def _floats(text, what, errors):
    try:
        vals = tuple(float(tok) for tok in text.split())
    except ValueError:
        errors.append(f"{what}: cannot parse {text!r} as numbers")
        return ()
    if not all(math.isfinite(v) for v in vals):
        errors.append(f"{what}: values must be finite, got {text!r}")
    return vals


def _ints(text, what, errors):
    try:
        vals = tuple(int(tok) for tok in text.split())
    except ValueError:
        errors.append(f"{what}: cannot parse {text!r} as integers")
        return ()
    return vals


def _one_float(text, what, errors, default=0.0):
    try:
        val = float(text)
    except ValueError:
        errors.append(f"{what}: cannot parse {text!r} as a number")
        return default
    if not math.isfinite(val):
        errors.append(f"{what}: value must be finite, got {text!r}")
        return default
    return val


def _one_int(text, what, errors, default=0):
    try:
        return int(text)
    except ValueError:
        errors.append(f"{what}: cannot parse {text!r} as an integer")
        return default


def parse_config(path=None, *, text=None, env=None, overrides=None) -> RunConfig:
    """Assemble a RunConfig from defaults, a file, the environment, and overrides.

    Precedence, lowest to highest: defaults, file, MACSTAG_* environment
    variables, explicit overrides (CLI flags). Unknown keys in the file are
    itemized errors, not warnings.
    """
    values = dict(DEFAULTS)
    provided = set()
    errors = []

    if path is not None and text is not None:
        raise ValueError("pass either path or text, not both")
    source = None
    if path is not None:
        try:
            with open(path, "r") as fh:
                source = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    elif text is not None:
        source = text

    if source is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_file(io.StringIO(source))
        except configparser.Error as exc:
            raise ConfigError([f"cannot parse config: {exc}"]) from exc
        for sec in parser.sections():
            if sec not in _SECTIONS:
                errors.append(f"unknown section [{sec}]")
                continue
            for key, val in parser.items(sec):
                if (sec, key) not in DEFAULTS:
                    errors.append(f"unknown key {key!r} in section [{sec}]")
                else:
                    values[(sec, key)] = val
                    provided.add((sec, key))

    if env is not None:
        for sec, key in DEFAULTS:
            var = f"{ENV_PREFIX}_{sec.upper()}_{key.upper()}"
            if var in env:
                values[(sec, key)] = env[var]
                provided.add((sec, key))

    if overrides:
        for (sec, key), val in overrides.items():
            if (sec, key) not in DEFAULTS:
                raise ValueError(f"unknown override {sec}.{key}")
            values[(sec, key)] = str(val)
            provided.add((sec, key))

    if errors:
        raise ConfigError(errors)

    # conversion and validation, all problems reported together
    kind = values[("grid", "kind")].strip().lower()
    if kind not in ("uniform", "graded", "coords"):
        errors.append(f"grid.kind must be uniform, graded or coords, got {kind!r}")

    lo = _floats(values[("domain", "lo")], "domain.lo", errors)
    hi = _floats(values[("domain", "hi")], "domain.hi", errors)
    n = _ints(values[("grid", "n")], "grid.n", errors)
    ratio = _one_float(values[("grid", "ratio")], "grid.ratio", errors, 1.0)

    coords = None
    if kind == "coords":
        axes = []
        for a in range(3):
            raw = values[("grid", f"coords_{a}")].strip()
            if raw:
                axes.append(_floats(raw, f"grid.coords_{a}", errors))
        if len(axes) not in (2, 3):
            errors.append(f"grid.kind=coords needs coords_0..coords_{{1,2}}, got {len(axes)} axes")
        else:
            for a, c in enumerate(axes):
                if len(c) < 2:
                    errors.append(f"grid.coords_{a}: need at least two coordinates")
                elif any(b <= a_ for a_, b in zip(c, c[1:])):
                    errors.append(f"grid.coords_{a}: coordinates must be strictly increasing")
            # an explicitly declared domain must agree with the coordinate endpoints
            for name, declared, ends in (
                ("lo", lo, tuple(c[0] for c in axes)),
                ("hi", hi, tuple(c[-1] for c in axes)),
            ):
                if ("domain", name) in provided and tuple(declared) != ends:
                    errors.append(
                        f"domain.{name} {tuple(declared)} disagrees with the grid.coords endpoints {ends}"
                    )
            coords = tuple(axes)
            lo = tuple(c[0] for c in axes)
            hi = tuple(c[-1] for c in axes)
            n = tuple(len(c) - 1 for c in axes)
    else:
        if not (len(lo) == len(hi) == len(n)):
            errors.append(
                f"domain.lo, domain.hi and grid.n must agree in length, got {len(lo)}/{len(hi)}/{len(n)}"
            )
        elif len(n) not in (2, 3):
            errors.append(f"grid must be 2D or 3D, got {len(n)} axes")
        else:
            for a in range(len(n)):
                if hi[a] <= lo[a]:
                    errors.append(f"axis {a}: domain extent [{lo[a]}, {hi[a]}] is empty")
                if n[a] < 1:
                    errors.append(f"axis {a}: need at least one cell, got {n[a]}")
        if kind == "graded" and ratio <= 0:
            errors.append(f"grid.ratio must be positive, got {ratio}")
    if n and all(k == 1 for k in n):
        shape = "x".join(str(k) for k in n)
        errors.append(f"grid {shape} has no interior face: need at least 2 cells along one axis")

    t_final = _one_float(values[("time", "final")], "time.final", errors, 1.0)
    steps = _one_int(values[("time", "steps")], "time.steps", errors)
    if t_final <= 0:
        errors.append(f"time.final must be positive, got {t_final}")
    if steps < 1:
        errors.append(f"time.steps must be at least 1, got {steps}")

    problem = values[("problem", "name")].strip()
    if problem not in PROBLEM_NAMES:
        errors.append(f"problem.name {problem!r} is not registered; have {sorted(PROBLEM_NAMES)}")

    pred_tol = _one_float(values[("solver", "prediction_tol")], "solver.prediction_tol", errors, 1e-10)
    poisson_tol = _one_float(values[("solver", "poisson_tol")], "solver.poisson_tol", errors, 1e-10)
    max_iterations = _one_int(values[("solver", "max_iterations")], "solver.max_iterations", errors)
    quad_order = _one_int(values[("solver", "quad_order")], "solver.quad_order", errors, 3)
    for name, tol in (("prediction_tol", pred_tol), ("poisson_tol", poisson_tol)):
        if not 0 < tol < 1:
            errors.append(f"solver.{name} must lie in (0, 1), got {tol}")
    if max_iterations < 0:
        errors.append(f"solver.max_iterations must be >= 0 (0 means automatic), got {max_iterations}")
    if quad_order < 1:
        errors.append(f"solver.quad_order must be >= 1, got {quad_order}")

    out_dir = values[("output", "directory")].strip()
    cadence = _one_int(values[("output", "cadence")], "output.cadence", errors)
    out_fmt = values[("output", "format")].strip().lower()
    seed = _one_int(values[("output", "seed")], "output.seed", errors)
    if not out_dir:
        errors.append("output.directory must not be empty")
    if cadence < 0:
        errors.append(f"output.cadence must be >= 0, got {cadence}")
    if out_fmt not in ("csv", "vtk"):
        errors.append(f"output.format must be csv or vtk, got {out_fmt!r}")
    if seed < 0:
        errors.append(f"output.seed must be >= 0, got {seed}")

    if errors:
        raise ConfigError(errors)

    cfg = RunConfig(
        domain_lo=lo,
        domain_hi=hi,
        grid_kind=kind,
        grid_n=n,
        grid_ratio=ratio,
        grid_coords=coords,
        t_final=t_final,
        steps=steps,
        problem=problem,
        prediction_tol=pred_tol,
        poisson_tol=poisson_tol,
        max_iterations=max_iterations,
        quad_order=quad_order,
        out_dir=out_dir,
        cadence=cadence,
        output_format=out_fmt,
        seed=seed,
    )
    try:
        with np.errstate(all="ignore"):  # an absurd grid.ratio overflows before MacGrid rejects it
            cfg.build_grid()
    except ValueError as exc:
        raise ConfigError([f"grid.kind = {kind} cannot be built: {exc}"]) from exc
    return cfg
