#
# Configuration parsing, layered precedence, and validation reporting.
#

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macstag.config import DEFAULTS, ENV_PREFIX, ConfigError, parse_config

from conftest import BAD_NUMERIC_VALUES


def test_defaults():
    cfg = parse_config(None)
    assert cfg.dim == 2
    assert cfg.grid_kind == "uniform"
    assert cfg.grid_n == (8, 8)
    assert cfg.t_final == 1.0
    assert cfg.steps == 8
    assert cfg.problem == "vortex2d"
    assert cfg.prediction_tol == 1e-10
    assert cfg.poisson_tol == 1e-10
    assert cfg.out_dir == "out"
    assert cfg.output_format == "csv"
    assert cfg.seed == 0


def test_file_values(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(
        "[domain]\nlo = 0 0 0\nhi = 2 1 1\n"
        "[grid]\nkind = graded\nn = 4 4 4\nratio = 1.5\n"
        "[time]\nfinal = 0.25\nsteps = 16\n"
        "[problem]\nname = vortex3d\n"
        "[solver]\npoisson_tol = 1e-12\n"
        "[output]\ndirectory = results\ncadence = 4\nformat = vtk\nseed = 7\n"
    )
    cfg = parse_config(str(path))
    assert cfg.dim == 3
    assert cfg.domain_hi == (2.0, 1.0, 1.0)
    assert cfg.grid_kind == "graded"
    assert cfg.grid_ratio == 1.5
    assert cfg.steps == 16
    assert cfg.problem == "vortex3d"
    assert cfg.poisson_tol == 1e-12
    assert cfg.prediction_tol == 1e-10  # untouched default
    assert cfg.out_dir == "results"
    assert cfg.cadence == 4
    assert cfg.output_format == "vtk"
    assert cfg.seed == 7
    g = cfg.build_grid()
    assert g.shape == (4, 4, 4)
    widths = np.diff(g.axes[0])
    np.testing.assert_allclose(widths[1:] / widths[:-1], 1.5, rtol=1e-12)


def test_env_overrides_file(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text("[time]\nsteps = 16\n")
    env = {f"{ENV_PREFIX}_TIME_STEPS": "32", f"{ENV_PREFIX}_PROBLEM_NAME": "rest2d"}
    cfg = parse_config(str(path), env=env)
    assert cfg.steps == 32
    assert cfg.problem == "rest2d"


def test_overrides_beat_env(tmp_path):
    env = {f"{ENV_PREFIX}_OUTPUT_DIRECTORY": "from_env"}
    cfg = parse_config(None, env=env, overrides={("output", "directory"): "from_cli"})
    assert cfg.out_dir == "from_cli"


def test_unknown_keys_are_itemized():
    text = "[grid]\nn = 4 4\nwhat = 1\n[nonsense]\nx = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(None, text=text)
    msg = str(err.value)
    assert "what" in msg
    assert "nonsense" in msg
    # both problems reported in one pass
    assert msg.count("- ") >= 2


def test_validation_errors_collected():
    text = (
        "[domain]\nlo = 0 0\nhi = -1 1\n"
        "[time]\nfinal = -2\nsteps = 0\n"
        "[solver]\npoisson_tol = 0\n"
        "[problem]\nname = bogus\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(None, text=text)
    msg = str(err.value)
    for needle in ("extent", "final", "steps", "poisson_tol", "bogus"):
        assert needle in msg, f"missing {needle} in: {msg}"
    for text, key in BAD_NUMERIC_VALUES:
        with pytest.raises(ConfigError) as err:
            parse_config(None, text=text)
        assert len(err.value.errors) == 1 and key in err.value.errors[0], text


def test_dimension_mismatch():
    text = "[domain]\nlo = 0 0\nhi = 1 1 1\n"
    with pytest.raises(ConfigError):
        parse_config(None, text=text)


@pytest.mark.parametrize("axes", [1, 4])
def test_grid_must_be_2d_or_3d(axes):
    text = f"[domain]\nlo = {' 0' * axes}\nhi = {' 1' * axes}\n[grid]\nn = {' 4' * axes}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(None, text=text)
    assert err.value.errors == [f"grid must be 2D or 3D, got {axes} axes"]


def test_unparsable_file_and_bad_calls():
    with pytest.raises(ConfigError, match="cannot parse config: File contains no section headers"):
        parse_config(None, text="n = 4 4\n")
    # a bad call is a programming error, not a configuration one
    with pytest.raises(ValueError, match="pass either path or text, not both"):
        parse_config("case.ini", text="[grid]\nn = 4 4\n")
    with pytest.raises(ValueError, match="unknown override grid.bogus"):
        parse_config(None, overrides={("grid", "bogus"): "1"})


def test_coords_grid():
    text = (
        "[domain]\nlo = 0 0\nhi = 1 1\n"
        "[grid]\nkind = coords\nn = 3 2\n"
        "coords_0 = 0 0.2 0.7 1\ncoords_1 = 0 0.4 1\n"
    )
    cfg = parse_config(None, text=text)
    g = cfg.build_grid()
    assert g.shape == (3, 2)
    np.testing.assert_allclose(g.axes[0], [0.0, 0.2, 0.7, 1.0])


@pytest.mark.parametrize(
    "text",
    [
        "[grid]\nn = 1 1\n",
        "[domain]\nlo = 0 0 0\nhi = 1 1 1\n[grid]\nn = 1 1 1\n",
        "[grid]\nkind = coords\ncoords_0 = 0 1\ncoords_1 = 0 0.5\n",
    ],
    ids=["1x1", "1x1x1", "coords-1x1"],
)
def test_grid_without_interior_face(text):
    with pytest.raises(ConfigError, match="grid 1x1(x1)? has no interior face"):
        parse_config(None, text=text)


@pytest.mark.parametrize(
    "keys, missing",
    [(("coords_0", "coords_2"), "grid.coords_1"), (("coords_1", "coords_2"), "grid.coords_0")],
)
def test_coords_keys_without_gap(keys, missing):
    # a gap would renumber the axes, and the echo would not reproduce the file
    text = "[grid]\nkind = coords\n" + "".join(f"{key} = 0 0.5 1\n" for key in keys)
    with pytest.raises(ConfigError) as err:
        parse_config(None, text=text)
    assert len(err.value.errors) == 1 and missing in err.value.errors[0]


def test_coords_must_match_domain():
    text = (
        "[domain]\nlo = 0 0\nhi = 1 1\n"
        "[grid]\nkind = coords\nn = 2 2\ncoords_0 = 0 0.5 2\ncoords_1 = 0 0.5 1\n"
    )
    with pytest.raises(ConfigError):
        parse_config(None, text=text)


def test_resolved_echo_roundtrip(tmp_path):
    cfg = parse_config(None, overrides={("time", "steps"): "12", ("grid", "n"): "6 5"})
    echo = cfg.to_ini()
    cfg2 = parse_config(None, text=echo)
    assert cfg2 == cfg
    # echo is deterministic
    assert cfg2.to_ini() == echo


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/no/such/file.ini")


def test_file_is_read_as_utf8(tmp_path):
    # whatever the locale: a UTF-8 comment parses, and a byte that is not
    # UTF-8 is reported like an unreadable file
    path = tmp_path / "case.ini"
    path.write_text("# café\n[grid]\nn = 4 4\n", encoding="utf-8")
    assert parse_config(str(path)).grid_n == (4, 4)
    path.write_bytes(b"# caf\xe9\n[grid]\nn = 4 4\n")
    with pytest.raises(ConfigError, match=r"cannot read config file .*'utf-8' codec can't decode byte 0xe9"):
        parse_config(str(path))


def test_defaults_table_is_complete():
    # every key in the defaults table parses cleanly on its own
    for (section, key), value in DEFAULTS.items():
        if value == "":
            continue
        cfg = parse_config(None, text=f"[{section}]\n{key} = {value}\n")
        assert cfg is not None


# values for the config property below: valid, boundary, non-finite and
# unparsable tokens, with at most 6 cells per axis
CONFIG_TOKENS = {
    ("domain", "lo"): ["0 0", "0 0 0", "-1 0", "1 1", "-0.0 0", "inf 0", "x 0", "0"],
    ("domain", "hi"): ["1 1", "1 1 1", "2 1e-3", "0 1", "nan nan", "1 x", ""],
    ("grid", "kind"): ["uniform", "graded", "coords", " Coords ", "bogus"],
    ("grid", "n"): ["6 6", "1 2", "1 1", "2 1 3", "0 4", "-1 3", "2.5 2", "3", ""],
    ("grid", "ratio"): ["1", "1.5", "0.2", "0", "-1", "nan", "1e300", "x"],
    ("grid", "coords_0"): ["0 0.5 1", "0 1", "0 1e-3 0.2 0.7 0.9 1", "1 0", "0", "0 x 1", "nan 1"],
    ("grid", "coords_1"): ["0 0.5 1", "0 1", "-1 0 1", "0 0 1", "0 inf"],
    ("grid", "coords_2"): ["0 0.25 1", "0 1", "1 0.5", "x"],
    ("time", "final"): ["1.0", "1e-3", "0", "-2", "inf", "x"],
    ("time", "steps"): ["8", "1", "0", "-1", "1e3", "2.0", " 4 "],
    ("problem", "name"): ["vortex2d", "vortex3d", " rest2d ", "bogus"],
    ("solver", "prediction_tol"): ["1e-10", "0.5", "0", "1", "nan", "x"],
    ("solver", "poisson_tol"): ["1e-12", "1e-300", "1", "inf", "-1e-3"],
    ("solver", "max_iterations"): ["0", "7", "-1", "1.5"],
    ("solver", "quad_order"): ["3", "1", "0", "x"],
    ("output", "directory"): ["out", "a b", ""],
    ("output", "cadence"): ["0", "4", "-1", "x"],
    ("output", "format"): ["csv", "VTK", "bogus"],
    ("output", "seed"): ["0", "7", "-1", "123456789012345678901234567890", "x"],
}


@settings(max_examples=200)
@given(st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in CONFIG_TOKENS.items()}))
def test_config_is_accepted_or_itemized(chosen):
    # every config either parses or raises the itemized ConfigError, and an
    # accepted one is reproduced by its resolved echo
    sections = {}
    for (section, key), value in chosen.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
    try:
        cfg = parse_config(None, text=text)
    except ConfigError as err:
        assert err.errors
        return
    echo = cfg.to_ini()
    again = parse_config(None, text=echo)
    assert again == cfg
    assert again.to_ini() == echo
