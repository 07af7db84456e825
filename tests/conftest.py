import numpy as np
import pytest
from hypothesis import settings

from macstag.fields import VelocityField
from macstag.grid import MacGrid

# every property test replays the same examples on every run
settings.register_profile("macstag", derandomize=True, deadline=None)
settings.load_profile("macstag")

# one line per acceptance criterion, printed at the end of the session
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# config text with one bad numeric value each, and the key its error must
# name; each must be rejected before anything runs
BAD_NUMERIC_VALUES = [
    ("[solver]\npoisson_tol = nan\n", "solver.poisson_tol"),
    ("[solver]\nprediction_tol = 1e6\n", "solver.prediction_tol"),
    ("[solver]\nprediction_tol = 1\n", "solver.prediction_tol"),
    ("[time]\nfinal = inf\n", "time.final"),
    ("[grid]\nkind = graded\nratio = nan\n", "grid.ratio"),
    ("[grid]\nkind = graded\nratio = 1e300\n", "grid.kind = graded"),
    ("[grid]\nkind = graded\nratio = 1e-300\n", "grid.kind = graded"),
    ("[domain]\nhi = nan nan\n", "domain.hi"),
    ("[grid]\nn = 2.5 2\n", "grid.n"),
    ("[time]\nsteps = 1e3\n", "time.steps"),
    ("[grid]\nkind = coords\ncoords_0 = 0 x 1\ncoords_1 = 0 1\n", "grid.coords_0"),
]


def random_nonuniform_grid(rng, dim, max_cells=8, lo=0.0, hi=1.0):
    """Random strictly increasing axis partitions, at least 2 cells per axis."""
    axes = []
    for _ in range(dim):
        n = int(rng.integers(2, max_cells + 1))
        cuts = np.sort(rng.uniform(lo, hi, size=n - 1))
        # keep interior cuts separated so widths stay well above roundoff
        while n > 1 and np.min(np.diff(np.concatenate([[lo], cuts, [hi]]))) < 1e-3 * (hi - lo):
            cuts = np.sort(rng.uniform(lo, hi, size=n - 1))
        axes.append(np.concatenate([[lo], cuts, [hi]]))
    return MacGrid(axes)


class SelfAveragingField:
    """A field from outside macstag.mms that supplies its own face means and has no pointwise values.

    face_average(grid) returns fixed normal face values drawn from seed, and
    face_average(grid, t), a forcing's form, the same scaled by 1 + t. asked
    lists the arguments of every call.
    """

    def __init__(self, seed):
        self.seed, self.asked = seed, []

    def face_average(self, grid, *t):
        self.asked.append((grid, *t))
        rng = np.random.default_rng(self.seed)
        return VelocityField(grid, [(1.0 + sum(t)) * rng.standard_normal(grid.face_shape(i)) for i in range(grid.dim)])

    def __call__(self, *args):
        raise AssertionError("a self-averaging field was evaluated pointwise")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def read_vtk(path):
    """The title, coordinates, pressure and velocity of a legacy BINARY VTK file.

    Reads the layout write_vtk writes: ASCII header lines, and after each
    section header one block of big-endian doubles ended by a newline. Every
    header line is checked, and the file must be consumed exactly. The
    velocity comes back as one (x, y, z) row per cell.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def line():
        nonlocal pos
        end = buf.index(b"\n", pos)
        text, pos = buf[pos:end].decode(), end + 1
        return text

    def doubles(n):
        nonlocal pos
        values = np.frombuffer(buf, ">f8", n, pos)
        pos += 8 * n
        assert buf[pos:pos + 1] == b"\n"
        pos += 1
        return values

    assert line() == "# vtk DataFile Version 3.0"
    title = line()
    assert line() == "BINARY"
    assert line() == "DATASET RECTILINEAR_GRID"
    label, *dims = line().split(" ")
    assert label == "DIMENSIONS" and len(dims) == 3
    coords = []
    for axis, n in zip("XYZ", map(int, dims)):
        assert line() == f"{axis}_COORDINATES {n} double"
        coords.append(doubles(n))
    label, cells = line().split(" ")
    assert label == "CELL_DATA"
    cells = int(cells)
    assert line() == "SCALARS pressure double 1"
    assert line() == "LOOKUP_TABLE default"
    pressure = doubles(cells)
    assert line() == "VECTORS velocity double"
    velocity = doubles(3 * cells).reshape(cells, 3)
    assert pos == len(buf)
    return title, coords, pressure, velocity


def vtk_arrays(grid, u, p):
    """What a VTK snapshot of (u, p) holds: the three coordinate axes (a
    missing third one is [0]), the pressure with x fastest, and per cell the
    means of the two faces of each direction (a missing third one is 0)."""
    coords = list(grid.axes) + [np.zeros(1)] * (3 - grid.dim)
    means = []
    for i, comp in enumerate(u.components):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[i], hi[i] = slice(0, -1), slice(1, None)
        means.append((0.5 * (comp[tuple(lo)] + comp[tuple(hi)])).ravel(order="F"))
    means += [np.zeros(p.data.size)] * (3 - grid.dim)
    return coords, p.data.ravel(order="F"), np.stack(means, axis=1)


def assert_same_bits(actual, expected):
    """Equal shapes and equal IEEE bit patterns, so NaN payloads and the sign of zero count."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))
