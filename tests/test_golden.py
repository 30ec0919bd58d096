"""The non-fit subcommands on the shipped configs, byte for byte against tests/golden/.

Every change must leave these CSVs identical, header included, unless it
says which bytes it changes and why.  The golden of a config other than
h2_914nm.yaml sits in a folder named after it.  The fit CSVs are left
out: the synthetic data are exact, so their residual norms and standard
errors (~1e-15) are rounding noise.  Its last digits follow the order of
the pure-Python sums and the platform's math.exp, so any reordering of
the fit arithmetic or another libm changes them.
"""

import pytest

from csrskit.cli import main
from tests.conftest import REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "golden"


def _shipped(command, csv):
    """A golden of the shipped config, under its command-golden id."""
    return pytest.param("h2_914nm.yaml", command, csv, id=f"{command}-{csv}")


@pytest.mark.parametrize(
    "config,command,golden",
    [
        _shipped("phase-match", "phase_match.csv"),
        _shipped("efficiency", "efficiency_vs_length.csv"),
        _shipped("bend", "bend_accessibility.csv"),
        _shipped("screen", "raman_screen.csv"),
        ("h2_long_fiber.yaml", "efficiency", "h2_long_fiber/efficiency_vs_length.csv"),
    ],
)
def test_shipped_config_matches_golden(tmp_path, config, command, golden):
    assert main(["--config", str(REPO_ROOT / "configs" / config), "--out", str(tmp_path), command]) == 0
    csv = golden.rsplit("/", 1)[-1]
    assert (tmp_path / csv).read_bytes() == (GOLDEN / golden).read_bytes()
