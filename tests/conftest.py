import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
