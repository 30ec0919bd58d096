"""The non-fit subcommands on the shipped config, byte for byte against tests/golden/.

Every change must leave these CSVs identical, header included, unless it
says which bytes it changes and why.  The fit CSVs are left out: the
synthetic data are exact, so their residual norms and standard errors
(~1e-15) are rounding noise.  Its last digits follow the order of the
pure-Python sums and the platform's math.exp, so any reordering of the
fit arithmetic or another libm changes them.
"""

import pytest

from csrskit.cli import main
from tests.conftest import REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "golden"


@pytest.mark.parametrize(
    "command,csv",
    [
        ("phase-match", "phase_match.csv"),
        ("efficiency", "efficiency_vs_length.csv"),
        ("bend", "bend_accessibility.csv"),
        ("screen", "raman_screen.csv"),
    ],
)
def test_shipped_config_matches_golden(tmp_path, command, csv):
    assert main(["--config", str(REPO_ROOT / "configs" / "h2_914nm.yaml"), "--out", str(tmp_path), command]) == 0
    assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()
