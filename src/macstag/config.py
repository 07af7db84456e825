"""Run configuration: flat key=value files with section headers.

Each key is one entry of the table _KEYS, (section, key) -> (RunConfig
field, default as it sits in the file, parser); DEFAULTS, the conversion in
parse_config and the resolved echo RunConfig.to_ini are read off it. The
[solver] defaults are ProjectionScheme's keyword defaults. The
grid.coords_a keys fill the one field grid_coords: they are read for
grid.kind = coords only, and start at coords_0 with no gap. Unknown sections
or keys are hard errors, and any key can be overridden through the
environment as MACSTAG_<SECTION>_<KEY> (e.g. MACSTAG_TIME_STEPS=32). All
problems are itemized in one ConfigError; a value that does not parse is
reported once, and later checks see the key's default in its place. The
library's rules are not restated here: the [time], [problem] and [solver]
values pass through the checks of scheme.py and mms.py as they are parsed,
and the configured grid is built once during validation; each ValueError is
one item under its key. The resolved configuration is echoed next to run
outputs so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import MacGrid, graded_axis
from .mms import _registered
from .operators import interior_face_problem
from .scheme import ProjectionScheme, _fraction, _positive, _whole

__all__ = ["RunConfig", "ConfigError", "parse_config", "ENV_PREFIX", "DEFAULTS"]

ENV_PREFIX = "MACSTAG"


def _numbers(cast, many, text):
    """text as one cast (float or int) value, or as a tuple of them when many.

    A value that does not parse, or a float that is not finite, raises
    ValueError with the message itemized under its key.
    """
    noun = {float: ("a number", "numbers"), int: ("an integer", "integers")}[cast][many]
    try:
        value = tuple(cast(tok) for tok in text.split()) if many else cast(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as {noun}") from None
    if cast is float and not all(map(math.isfinite, value if many else (value,))):
        raise ValueError(f"value{'s' if many else ''} must be finite, got {text!r}")
    return value


_floats, _ints = partial(_numbers, float, True), partial(_numbers, int, True)
_float, _int = partial(_numbers, float, False), partial(_numbers, int, False)


def _word(text):
    return text.strip().lower()


def _checked(check, name, parse):
    """parse, then the library's own check of the value, which it calls name."""
    return lambda text: check(name, parse(text))


# the keyword defaults of ProjectionScheme, whose [solver] keys share their names
_SOLVER = ProjectionScheme.__init__.__kwdefaults__

# (section, key) -> (RunConfig field, default as it sits in the file, parser)
_KEYS = {
    ("domain", "lo"): ("domain_lo", "0 0", _floats),
    ("domain", "hi"): ("domain_hi", "1 1", _floats),
    ("grid", "kind"): ("grid_kind", "uniform", _word),
    ("grid", "n"): ("grid_n", "8 8", _ints),
    ("grid", "ratio"): ("grid_ratio", "1", _float),
    ("grid", "coords_0"): ("grid_coords", "", _floats),
    ("grid", "coords_1"): ("grid_coords", "", _floats),
    ("grid", "coords_2"): ("grid_coords", "", _floats),
    ("time", "final"): ("t_final", "1.0", _checked(_positive, "t_final", _float)),
    ("time", "steps"): ("steps", "8", _checked(_whole, "steps", _int)),
    ("problem", "name"): ("problem", "vortex2d", lambda text: _registered(text.strip())),
    **{("solver", tol): (tol, repr(_SOLVER[tol]), _checked(_fraction, tol, _float))
       for tol in ("prediction_tol", "poisson_tol")},
    ("solver", "quad_order"): ("quad_order", repr(_SOLVER["quad_order"]), _checked(_whole, "quad_order", _int)),
    ("output", "directory"): ("out_dir", "out", str.strip),
    ("output", "cadence"): ("cadence", "0", _int),
    ("output", "format"): ("output_format", "csv", _word),
    ("output", "seed"): ("seed", "0", _int),
}

# (section, key) -> default, as strings exactly as they would sit in the file
DEFAULTS = {sec_key: default for sec_key, (_, default, _) in _KEYS.items()}

_SECTIONS = tuple(dict.fromkeys(sec for sec, _ in _KEYS))
_COORDS = [sec_key for sec_key, (name, _, _) in _KEYS.items() if name == "grid_coords"]


class ConfigError(Exception):
    """Itemized configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(["invalid configuration:"] + [f"  - {e}" for e in self.errors]))


def _format(value) -> str:
    """A field as the file spells it: tuples space-joined, strings as they are, numbers by repr."""
    if isinstance(value, tuple):
        return " ".join(repr(x) for x in value)
    return value if isinstance(value, str) else repr(value)


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
    quad_order: int
    out_dir: str
    cadence: int
    output_format: str
    seed: int

    def build_grid(self) -> MacGrid:
        """The configured grid; a ValueError that grid.py raises for one axis is prefixed with that axis.

        Outside grid.kind = coords, domain.lo, domain.hi and grid.n must
        agree in length, or ValueError names their three lengths.
        """
        if self.grid_kind == "coords":
            return MacGrid(self.grid_coords)
        lo, hi, n = self.domain_lo, self.domain_hi, self.grid_n
        if not len(lo) == len(hi) == len(n):
            raise ValueError(f"domain.lo, domain.hi and grid.n must agree in length, got {len(lo)}/{len(hi)}/{len(n)}")
        ratio = self.grid_ratio if self.grid_kind == "graded" else 1.0  # ratio 1 is uniform_axis
        axes = []
        for a, bounds in enumerate(zip(lo, hi, n)):
            try:
                axes.append(graded_axis(*bounds, ratio))
            except ValueError as exc:
                raise ValueError(f"axis {a}: {exc}") from None
        return MacGrid(axes)

    def scheme_kwargs(self) -> dict:
        return {name: getattr(self, name) for name in _SOLVER}

    def to_ini(self) -> str:
        """Resolved key=value echo, deterministic ordering."""
        values = {k: _format(getattr(self, name)) for k, (name, _, _) in _KEYS.items() if k not in _COORDS}
        if self.grid_kind == "coords":
            values.update(zip(_COORDS, map(_format, self.grid_coords)))
        lines = []
        for sec in _SECTIONS:
            keys = sorted(k for (s, k) in values if s == sec)
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {values[(sec, k)]}" for k in keys)
            lines.append("")
        return "\n".join(lines)


def _read_coords(values, declared, c, errors):
    """Check the grid.coords_a keys and set grid_coords, the domain and grid_n from them in c.

    declared names the domain fields set explicitly; they must match the coordinate endpoints.
    """
    present = [a for a, k in enumerate(_COORDS) if values[k].strip()]
    axes = {}
    for a in present:
        try:
            axes[a] = _floats(values[_COORDS[a]])
        except ValueError as exc:
            errors.append(f"grid.coords_{a}: {exc}")
    if present != list(range(len(present))):
        gap = next(a for a in range(len(_COORDS)) if a not in present)
        errors.append(f"grid.coords_{gap} is missing: the coords keys start at coords_0 with no gap")
        return
    if len(axes) < len(present):
        return
    ends = {"lo": tuple(x[0] for x in axes.values()), "hi": tuple(x[-1] for x in axes.values())}
    for name, end in ends.items():
        if f"domain_{name}" in declared and c[f"domain_{name}"] != end:
            errors.append(f"domain.{name} {c[f'domain_{name}']} disagrees with the grid.coords endpoints {end}")
        c[f"domain_{name}"] = end
    c["grid_coords"] = tuple(axes.values())
    c["grid_n"] = tuple(len(x) - 1 for x in axes.values())


def parse_config(path=None, *, text=None, env=None, overrides=None) -> RunConfig:
    """Assemble a RunConfig from defaults, a file, the environment, and overrides.

    Precedence, lowest to highest: defaults, file, MACSTAG_* environment
    variables, explicit overrides (CLI flags). Unknown keys in the file are
    itemized errors, not warnings.
    """
    if path is not None and text is not None:
        raise ValueError("pass either path or text, not both")
    source = text
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc

    given, errors = {}, []  # (section, key) -> text set by the file, the environment or an override
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
                    given[(sec, key)] = val
    env = env or {}
    for sec, key in DEFAULTS:
        var = f"{ENV_PREFIX}_{sec.upper()}_{key.upper()}"
        if var in env:
            given[(sec, key)] = env[var]
    for (sec, key), val in (overrides or {}).items():
        if (sec, key) not in DEFAULTS:
            raise ValueError(f"unknown override {sec}.{key}")
        given[(sec, key)] = str(val)
    if errors:
        raise ConfigError(errors)
    values = {**DEFAULTS, **given}

    # conversion: a value that does not parse, or that the library's check of it rejects, is
    # itemized once and replaced by the key's default
    c, failed = {"grid_coords": None}, set()
    for (sec, key), (name, default, parse) in _KEYS.items():
        if (sec, key) in _COORDS:
            continue
        try:
            c[name] = parse(values[(sec, key)])
        except ValueError as exc:
            errors.append(f"{sec}.{key}: {exc}")
            c[name] = parse(default)
            failed.add(name)

    # the step t_final/steps, when both parsed: steps too many for t_final is itemized under steps
    if not failed & {"t_final", "steps"}:
        try:
            ProjectionScheme.time_step(c["t_final"], c["steps"])
        except ValueError as exc:
            errors.append(f"time.steps: {exc}")

    # validation, all problems reported together; the grid's rules are those of grid.py and
    # operators.py, itemized from one build of the configured grid
    kind = c["grid_kind"]
    known = kind in ("uniform", "graded", "coords")
    if not known:
        errors.append(f"grid.kind must be uniform, graded or coords, got {kind!r}")
    buildable = not failed & {"domain_lo", "domain_hi", "grid_n"}  # no default stands in for a bad value
    if kind == "coords":
        _read_coords(values, {f"domain_{k}" for s, k in given if s == "domain"} - failed, c, errors)
        buildable = c["grid_coords"] is not None
    cfg = RunConfig(**c)
    if known and buildable:
        try:
            with np.errstate(all="ignore"):  # an absurd grid.ratio overflows before MacGrid rejects it
                shape = cfg.build_grid().shape
        except ValueError as exc:
            errors.append(f"grid.kind = {kind} cannot be built: {exc}")
        else:
            if problem := interior_face_problem(shape):
                errors.append(problem)

    checks = [
        (not c["out_dir"], "output.directory must not be empty"),
        (c["cadence"] < 0, f"output.cadence must be >= 0, got {c['cadence']}"),
        (c["output_format"] not in ("csv", "vtk"), f"output.format must be csv or vtk, got {c['output_format']!r}"),
        (c["seed"] < 0, f"output.seed must be >= 0, got {c['seed']}"),
    ]
    errors.extend(message for bad, message in checks if bad)
    if errors:
        raise ConfigError(errors)
    return cfg
