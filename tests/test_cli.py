import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from csrskit import phasematch
from csrskit.cli import _linspace, main
from csrskit.config import SCHEMA, load_config
from tests.conftest import REPO_ROOT

SHIPPED = str(REPO_ROOT / "configs" / "h2_914nm.yaml")
LONG_FIBER = str(REPO_ROOT / "configs" / "h2_long_fiber.yaml")
CUTBACK_DATA = str(REPO_ROOT / "data" / "cutback_synthetic.csv")
BEND_DATA = str(REPO_ROOT / "data" / "bend_synthetic.csv")
EFFICIENCY_DATA = str(REPO_ROOT / "data" / "efficiency_synthetic.csv")


def run(*argv) -> int:
    return main(list(argv))


def read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


def modified_config(tmp_path, mutate, name="config.yaml", base=SHIPPED):
    with open(base) as stream:
        tree = yaml.safe_load(stream)
    # the copy lives outside configs/, so the catalog needs an absolute path
    tree["screening"]["catalog"] = str(REPO_ROOT / "configs" / "h2_lines.csv")
    mutate(tree)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def _numeric_leaves(node=None, path=()) -> list:
    """Key paths of every number in the shipped config."""
    if node is None:
        node = yaml.safe_load((REPO_ROOT / "configs" / "h2_914nm.yaml").read_text())
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _numeric_leaves(value, path + (key,))]
    if isinstance(node, list):
        return [leaf for index, value in enumerate(node) for leaf in _numeric_leaves(value, path + (index,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


_VALIDITY_NOTE = "warning: efficiencies above 1 are outside the undepleted-pump validity range"

#: A value that breaks each constraint of the schema.
_OUT_OF_RANGE = {
    "> 0": 0.0,
    ">= 0": -1.0,
    "in [0, 1]": 1.5,
    ">= 3": 2,
    "in [1, 1000]": 0.0,
    "in [0.01, 100]": 0.0,
    "in (1, 5] as a constant or in every table row": 1.0,
}


def _dotted(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


class TestPhaseMatch:
    def test_row_count_is_samples_plus_optimum(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "phase-match", "--pressures", "60:110:21") == 0
        header, rows = read_rows(tmp_path / "phase_match.csv")
        assert header == ["pressure_bar", "delta_beta_rad_per_m", "sinc2"]
        assert len(rows) == 22

    def test_optimum_row_inside_window(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "phase-match") == 0
        _, rows = read_rows(tmp_path / "phase_match.csv")
        p_opt, residual, sinc2 = (float(v) for v in rows[-1])
        assert 60.0 < p_opt < 100.0
        assert abs(residual) < 1e-6
        assert sinc2 == pytest.approx(1.0, abs=1e-9)

    def test_metadata_header(self, tmp_path):
        run("--config", SHIPPED, "--out", str(tmp_path), "phase-match")
        text = (tmp_path / "phase_match.csv").read_text()
        config = load_config(SHIPPED)
        assert text.startswith("# csrskit ")
        assert f"# config_digest: {config.digest()}" in text
        assert "# index_variant: zeisberger" in text
        assert "# config: {" in text

    def test_degenerate_scheme_exits_2(self, tmp_path, capsys):
        path = modified_config(
            tmp_path,
            lambda t: t["scheme"].update(
                {"pump1_nm": 1474.0, "pump2_nm": 914.0, "probe_nm": 914.0, "transition_cm1": None}
            ),
        )
        assert run("--config", path, "--out", str(tmp_path), "phase-match") == 2
        assert "no phase-matching root" in capsys.readouterr().err

    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize("window", [(110.0, 60.0, 11), (80.0, 80.0, 1), (80.0, 100.0, 1), (-5.0, 100.0, 11)])
    def test_grid_that_cannot_bracket_names_its_source(self, tmp_path, capsys, window, from_config):
        if from_config:
            path = modified_config(tmp_path, lambda t: t["sweeps"].update({"pressure_bar": list(window)}))
            argv, source = [], "sweeps.pressure_bar"
        else:
            path, argv, source = SHIPPED, [f"--pressures={':'.join(map(str, window))}"], "pressures"
        assert run("--config", path, "--out", str(tmp_path), "phase-match", *argv) == 2
        err = capsys.readouterr().err
        assert f"error: {source}: " in err
        assert "the window needs 0 <= start < stop" in err
        assert not (tmp_path / "phase_match.csv").exists()

    def test_gas_index_above_the_wall_index_exits_2(self, tmp_path, capsys):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "phase-match", "--pressures=60:6000:5") == 2
        err = capsys.readouterr().err
        assert "at 6000 bar the gas index 1.58" in err and "wall index 1.444" in err
        assert not (tmp_path / "phase_match.csv").exists()

    def test_deterministic_output(self, tmp_path):
        run("--config", SHIPPED, "--out", str(tmp_path / "a"), "phase-match", "--pressures", "60:110:11")
        run("--config", SHIPPED, "--out", str(tmp_path / "b"), "phase-match", "--pressures", "60:110:11")
        assert (tmp_path / "a" / "phase_match.csv").read_bytes() == (tmp_path / "b" / "phase_match.csv").read_bytes()


class TestEfficiency:
    def test_rows_match_module_recomputation(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "efficiency", "--lengths", "0.27:1.85:4") == 0
        from csrskit.efficiency import predicted_efficiency

        config = load_config(SHIPPED)
        model = config.efficiency_model()
        fields = config.light_fields()
        _, rows = read_rows(tmp_path / "efficiency_vs_length.csv")
        assert len(rows) == 5  # 4 samples + optimum row
        for length_text, eta_text in rows[:-1]:
            expected = predicted_efficiency(
                model, fields["pump1"], fields["pump2"], fields["probe"], float(length_text)
            )
            assert float(eta_text) == pytest.approx(expected, rel=1e-10)

    def test_reference_lengths_reproduce_curve(self, tmp_path):
        # the four cut-back lengths recompute to the fitted-curve values
        from csrskit.efficiency import predicted_efficiency

        config = load_config(SHIPPED)
        model = config.efficiency_model()
        fields = config.light_fields()
        # frozen from the lumped model: C P1 P2 L^2 exp(-2.16 dB/m * L)
        expected_pct = {
            0.27: 0.002524,
            1.16: 0.029926,
            1.47: 0.041192,
            1.85: 0.054006,
        }
        for length, eta_pct in expected_pct.items():
            eta = predicted_efficiency(model, fields["pump1"], fields["pump2"], fields["probe"], length)
            assert eta * 100 == pytest.approx(eta_pct, rel=0.05)

    def test_lossless_column_is_quadratic(self, tmp_path):
        assert (
            run(
                "--config",
                SHIPPED,
                "--out",
                str(tmp_path),
                "--loss-variant",
                "lossless",
                "efficiency",
                "--lengths",
                "1:4:4",
            )
            == 0
        )
        text = (tmp_path / "efficiency_vs_length.csv").read_text()
        assert "# loss_variant: lossless" in text
        assert "unbounded" in text  # lossless has no optimum length
        _, rows = read_rows(tmp_path / "efficiency_vs_length.csv")
        etas = {float(l): float(e) for l, e in rows}
        assert etas[2.0] / etas[1.0] == pytest.approx(4.0, rel=1e-12)
        assert etas[4.0] / etas[2.0] == pytest.approx(4.0, rel=1e-12)

    def test_efficiencies_above_one_are_reported_in_the_header_not_warned(self, tmp_path, capsys):
        argv = ["--config", SHIPPED, "--out", str(tmp_path), "--loss-variant", "lossless"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "efficiency", "--lengths", "1:400:5") == 0
        path = tmp_path / "efficiency_vs_length.csv"
        assert f"# {_VALIDITY_NOTE}\n" in path.read_text()
        assert capsys.readouterr().out == f"L_opt unbounded; {_VALIDITY_NOTE} -> {path}\n"
        _, rows = read_rows(path)
        assert max(float(eta) for _, eta in rows) > 1.0

    def test_an_optimum_above_one_is_reported_in_the_header_and_summary(self, tmp_path, capsys):
        # every sweep row is below 1 and only the optimum row, 9.18, is above it
        assert run("--config", LONG_FIBER, "--out", str(tmp_path), "efficiency", "--lengths", "1:5:5") == 0
        path = tmp_path / "efficiency_vs_length.csv"
        assert f"# {_VALIDITY_NOTE}\n" in path.read_text()
        assert capsys.readouterr().out == f"L_opt = 136.571 m, eta(L_opt) = 9.182; {_VALIDITY_NOTE} -> {path}\n"
        _, rows = read_rows(path)
        assert [float(eta) > 1.0 for _, eta in rows] == [False] * 5 + [True]

    def test_shipped_summary_has_no_validity_note(self, tmp_path, capsys):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "efficiency") == 0
        path = tmp_path / "efficiency_vs_length.csv"
        assert capsys.readouterr().out == f"L_opt = 4.021 m, eta(L_opt) = 0.0008666 -> {path}\n"
        assert "warning" not in path.read_text()

    def test_zero_power_gives_zero_column(self, tmp_path):
        path = modified_config(
            tmp_path,
            lambda t: (t["fields"]["pump1"].update({"power_w": 0.0}), t["fields"]["pump2"].update({"power_w": 0.0})),
        )
        assert run("--config", path, "--out", str(tmp_path), "efficiency", "--lengths", "1:10:5") == 0
        _, rows = read_rows(tmp_path / "efficiency_vs_length.csv")
        assert all(float(eta) == 0.0 for _, eta in rows)

    def test_bookkeeping_summaries(self, tmp_path):
        run("--config", SHIPPED, "--out", str(tmp_path), "efficiency")
        text = (tmp_path / "efficiency_vs_length.csv").read_text()
        assert "# bookkeeping_total_attenuation_db_per_m: 2.16" in text
        assert "# bookkeeping_signal_attenuation_db_per_m: 0.79" in text
        assert "projection" not in text

    @pytest.mark.parametrize(
        "path,value",
        [
            ("fields.pump1.power_w", 5e-324),
            ("model.coefficient_pct_per_w2m2", 5e-324),
            ("fields.pump1.attenuation_db_per_m", 1e300),
        ],
    )
    def test_an_efficiency_underflowing_to_zero_still_writes_the_rows(self, tmp_path, capsys, path, value):
        # these exited 2 with "per_w2_pct must be positive and finite, got 0.0" from the bookkeeping line
        config = modified_config(tmp_path, lambda tree: _set_leaf(tree, path, value))
        assert run("--config", config, "--out", str(tmp_path), "efficiency") == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "efficiency_vs_length.csv").read_text()
        note = "# bookkeeping: not computed (the efficiency at fields.fiber_length_m = 1.85 m underflows to 0)"
        assert [line for line in text.splitlines() if line.startswith(("# bookkeeping", "# per_w2"))] == [note]
        _, rows = read_rows(tmp_path / "efficiency_vs_length.csv")
        assert len(rows) == 101  # 100 sweep rows and the optimum
        assert all(math.isfinite(float(eta)) and float(eta) >= 0.0 for _, eta in rows)


class TestBend:
    def test_critical_radius_metadata(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "bend") == 0
        text = (tmp_path / "bend_accessibility.csv").read_text()
        assert "# critical_radius_m LP01/LP11: 0.237137" in text
        assert "# empirical_lp01_cutoff_m: 0.1 +/- 0.01" in text

    def test_flags_toggle_at_critical_radius(self, tmp_path):
        from csrskit.bendloss import critical_bend_radius

        config = load_config(SHIPPED)
        r_crit = critical_bend_radius(config.fiber_geometry(), 914.0)
        sweep = f"{r_crit * 0.999:.9f}:{r_crit * 1.001:.9f}:2"
        run("--config", SHIPPED, "--out", str(tmp_path), "bend", "--radii", sweep)
        _, rows = read_rows(tmp_path / "bend_accessibility.csv")
        assert rows[0][1] == "false" and rows[1][1] == "true"  # LP01 toggles
        assert rows[0][2] == "true" and rows[1][2] == "true"  # LP11 unaffected

    def test_all_accessible_above_critical(self, tmp_path):
        run("--config", SHIPPED, "--out", str(tmp_path), "bend", "--radii", "1:10:5")
        _, rows = read_rows(tmp_path / "bend_accessibility.csv")
        assert all(row[1] == "true" and row[2] == "true" for row in rows)


class TestScreen:
    def test_reference_channels_in_order(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "screen") == 0
        header, rows = read_rows(tmp_path / "raman_screen.csv")
        assert len(rows) == 2
        first = dict(zip(header, rows[0]))
        second = dict(zip(header, rows[1]))
        assert first["source"] == "pump2" and first["direction"] == "stokes"
        assert first["branch"] == "O" and first["j_lower"] == "2"
        assert float(first["wavelength_nm"]) == pytest.approx(1468.66, abs=0.02)
        assert second["source"] == "pump1" and second["direction"] == "anti-stokes"
        assert second["branch"] == "S" and second["j_lower"] == "0"
        assert float(second["wavelength_nm"]) == pytest.approx(1469.30, abs=0.02)
        assert float(first["rel_strength"]) >= float(second["rel_strength"])

    def test_empty_catalog_gives_empty_table(self, tmp_path):
        catalog = tmp_path / "empty.csv"
        catalog.write_text("nu0_cm1, e_lower_cm1, rel_strength, band, branch, j_lower\n")
        path = modified_config(tmp_path, lambda t: t["screening"].update({"catalog": str(catalog)}))
        assert run("--config", path, "--out", str(tmp_path), "screen") == 0
        _, rows = read_rows(tmp_path / "raman_screen.csv")
        assert rows == []

    def test_threshold_above_unity_empties_table(self, tmp_path):
        path = modified_config(tmp_path, lambda t: t["screening"].update({"strength_threshold": 1.1}))
        assert run("--config", path, "--out", str(tmp_path), "screen") == 0
        _, rows = read_rows(tmp_path / "raman_screen.csv")
        assert rows == []

    def test_missing_catalog_exits_2(self, tmp_path):
        path = modified_config(tmp_path, lambda t: t["screening"].update({"catalog": "nope.csv"}))
        assert run("--config", path, "--out", str(tmp_path), "screen") == 2

    def test_deterministic_output(self, tmp_path):
        run("--config", SHIPPED, "--out", str(tmp_path / "a"), "screen")
        run("--config", SHIPPED, "--out", str(tmp_path / "b"), "screen")
        assert (tmp_path / "a" / "raman_screen.csv").read_bytes() == (tmp_path / "b" / "raman_screen.csv").read_bytes()


class TestFit:
    def test_cutback_recovers_generator(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "fit", "--kind", "cutback", "--data", CUTBACK_DATA) == 0
        header, rows = read_rows(tmp_path / "fit_cutback.csv")
        values = {row[0]: float(row[1]) for row in rows}
        assert values["alpha_db_per_m"] == pytest.approx(0.37, abs=1e-10)
        assert values["intercept_db"] == pytest.approx(-0.8, abs=1e-10)

    def test_bend_recovers_generator(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "fit", "--kind", "bend", "--data", BEND_DATA) == 0
        _, rows = read_rows(tmp_path / "fit_bend.csv")
        values = {row[0]: float(row[1]) for row in rows}
        assert values["p_max"] == pytest.approx(83.0, rel=1e-6)
        assert values["b"] == pytest.approx(8.0, rel=1e-6)
        assert values["r0"] == pytest.approx(0.10, rel=1e-6)

    def test_efficiency_recovers_coefficient(self, tmp_path):
        assert (
            run("--config", SHIPPED, "--out", str(tmp_path), "fit", "--kind", "efficiency", "--data", EFFICIENCY_DATA)
            == 0
        )
        _, rows = read_rows(tmp_path / "fit_efficiency.csv")
        values = {row[0]: float(row[1]) for row in rows}
        assert values["coefficient_pct_per_w2m2"] == pytest.approx(0.0044, rel=1e-10)

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.1,1.0\n0.2,oops\n")
        assert run("--config", SHIPPED, "--out", str(tmp_path), "fit", "--kind", "cutback", "--data", str(bad)) == 2
        assert ":3" in capsys.readouterr().err

    def test_non_convergence_exits_3(self, tmp_path):
        code = run(
            "--config",
            SHIPPED,
            "--out",
            str(tmp_path),
            "fit",
            "--kind",
            "bend",
            "--data",
            BEND_DATA,
            "--max-iterations",
            "1",
        )
        assert code == 3
        assert (tmp_path / "fit_bend.csv").exists()  # best iterate still reported


class TestGlobalBehavior:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = modified_config(tmp_path, lambda t: t.update({"extra_block": {}}))
        assert run("--config", path, "--out", str(tmp_path), "screen") == 2
        assert "extra_block" in capsys.readouterr().err

    def test_projection_block_exits_2(self, tmp_path, capsys):
        # the long-fiber scenario is configs/h2_long_fiber.yaml, not a projection block
        path = modified_config(tmp_path, lambda t: t.update({"projection": {"pump1_power_w": 15.0}}))
        assert run("--config", path, "--out", str(tmp_path / "out"), "efficiency") == 2
        assert "error: config.projection: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [1.0, 0.5, -1.444])
    def test_wall_index_table_row_at_or_below_one_exits_2(self, tmp_path, capsys, n):
        # such a table loaded, and phase-match then failed with a bare "math domain error"
        table = {"table": [[900.0, 1.45], [1600.0, n]]}
        path = modified_config(tmp_path, lambda t: t["fiber"].update({"wall_index": table}))
        for command in ("phase-match", "bend"):
            assert run("--config", path, "--out", str(tmp_path / "out"), command) == 2
            assert f"error: fiber.wall_index: must be in (1, 5] as a constant or in every table row, got {table!r}" in (
                capsys.readouterr().err
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path,value,command",
        [
            ("fiber.wall_thickness_um", 5e-324, "phase-match"),  # was a ZeroDivisionError
            ("fiber.core_radius_um", 1e300, "phase-match"),  # was an OverflowError
            ("fiber.capillary_inner_radius_um", 5e-324, "bend"),  # was a ZeroDivisionError
            ("fiber.wall_index", 1e300, "phase-match"),  # was an OverflowError
        ],
    )
    def test_geometry_outside_its_physical_bounds_exits_2(self, tmp_path, capsys, path, value, command):
        config = modified_config(tmp_path, lambda tree: _set_leaf(tree, path, value))
        assert run("--config", config, "--out", str(tmp_path / "out"), command) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: must be in ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([[-0.5, 0.01]], "gives 0.7056274766767309 at the pump1 wavelength 1550.0 nm"),  # n < 1
            ([[-5.0, 0.01]], "gives no real index at the pump1 wavelength 1550.0 nm"),  # n^2 < 0
            ([[0.69, (1550.0 * 1e-3) ** 2]], "gives a pole at the pump1 wavelength 1550.0 nm"),
            (  # a glass index at the pumps and the probe
                [[0.69, (phasematch.signal_wavelength(914.0, 1550.0, 942.0) * 1e-3) ** 2], [1.5, 1e-4]],
                "gives a pole at the signal wavelength 1475.6",
            ),
            ([[30.0, 0.01]], "gives 5.5"),  # above the glass range
        ],
    )
    @pytest.mark.parametrize("command", ["phase-match", "efficiency", "bend", "screen"])
    def test_sellmeier_wall_index_is_checked_at_load(self, tmp_path, capsys, pairs, message, command):
        # bend, efficiency and screen used to exit 0, and phase-match named the library argument
        config = modified_config(tmp_path, lambda tree: _set_leaf(tree, "fiber.wall_index", {"sellmeier": pairs}))
        assert run("--config", config, "--out", str(tmp_path / "out"), command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: fiber.wall_index: the Sellmeier model {message}")
        assert err.rstrip().endswith("; it must be in (1, 5]")
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path), "screen") == 2

    def test_seed_recorded(self, tmp_path):
        run("--config", SHIPPED, "--out", str(tmp_path), "--seed", "42", "screen")
        assert "# seed: 42" in (tmp_path / "raman_screen.csv").read_text()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,option,csv",
        [
            ("phase-match", "pressures", "phase_match.csv"),
            ("efficiency", "lengths", "efficiency_vs_length.csv"),
            ("bend", "radii", "bend_accessibility.csv"),
        ],
    )
    def test_non_finite_range_exits_2(self, tmp_path, capsys, command, option, csv, bad):
        for text in (f"{bad}:100:5", f"1:{bad}:3"):
            assert run("--config", SHIPPED, "--out", str(tmp_path), command, f"--{option}={text}") == 2
            assert f"{option}: start and stop must be finite" in capsys.readouterr().err
        assert not (tmp_path / csv).exists()

    @pytest.mark.parametrize("text", ["abc:1:3", "1:5:2.5", "1:5"])
    def test_malformed_range_names_the_option(self, tmp_path, capsys, text):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "efficiency", "--lengths", text) == 2
        assert f"lengths: expected start:stop:count, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize(
        "command,key,csv",
        [
            ("phase-match", "pressure_bar", "phase_match.csv"),
            ("efficiency", "length_m", "efficiency_vs_length.csv"),
            ("bend", "radius_m", "bend_accessibility.csv"),
        ],
    )
    def test_non_finite_config_sweep_exits_2(self, tmp_path, capsys, command, key, csv, index, bad):
        def mutate(tree):
            tree["sweeps"][key][index] = bad

        path = modified_config(tmp_path, mutate)
        assert run("--config", path, "--out", str(tmp_path), command) == 2
        assert f"sweeps.{key}[{index}]: must be finite" in capsys.readouterr().err
        assert not (tmp_path / csv).exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("path", _numeric_leaves())
    def test_non_finite_config_leaf_exits_2(self, tmp_path, capsys, path, bad):
        def mutate(tree):
            node = tree
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad

        config = modified_config(tmp_path, mutate)
        assert run("--config", config, "--out", str(tmp_path / "out"), "screen") == 2
        assert f"{_dotted(path)}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path,bad",
        [(key.path, _OUT_OF_RANGE[key.constraint[0]]) for key in SCHEMA if key.constraint is not None],
    )
    def test_out_of_range_config_leaf_exits_2(self, tmp_path, capsys, path, bad):
        def mutate(tree):
            *blocks, name = path.split(".")
            node = tree
            for block in blocks:
                node = node[block]
            node[name] = bad

        config = modified_config(tmp_path, mutate)
        for command in ("screen", "phase-match", "efficiency"):
            assert run("--config", config, "--out", str(tmp_path / "out"), command) == 2
            assert f"error: {path}: must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        root = phasematch._illinois
        monkeypatch.setattr(phasematch, "_illinois", lambda *args: root(*args, max_iter=1))
        assert run("--config", SHIPPED, "--out", str(tmp_path), "phase-match") == 3
        assert "error: delta_beta not converged after 1 iterations" in capsys.readouterr().err
        assert not (tmp_path / "phase_match.csv").exists()

    def test_optimum_length_overflow_exits_2(self, tmp_path, capsys):
        def mutate(tree):
            for beam in ("pump1", "pump2", "probe"):
                tree["fields"][beam]["attenuation_db_per_m"] = 0.0
            tree["model"]["signal_attenuation_db_per_m"] = 1e-200

        out = tmp_path / "out"
        assert run("--config", modified_config(tmp_path, mutate), "--out", str(out), "efficiency") == 2
        assert "the optimum length or its efficiency overflows" in capsys.readouterr().err
        assert not (out / "efficiency_vs_length.csv").exists()

    @pytest.mark.parametrize(
        "command,option,key,grid,csv",
        [
            ("bend", "radii", "radius_m", (-1e308, 1e308, 3), "bend_accessibility.csv"),
            ("efficiency", "lengths", "length_m", (-1e308, 1e308, 3), "efficiency_vs_length.csv"),
            ("phase-match", "pressures", "pressure_bar", (-1e308, 1e308, 3), "phase_match.csv"),
        ],
    )
    def test_overflowing_span_exits_2(self, tmp_path, capsys, command, option, key, grid, csv):
        text = ":".join(repr(v) for v in grid)
        assert run("--config", SHIPPED, "--out", str(tmp_path), command, f"--{option}={text}") == 2
        assert f"{option}: the span stop - start overflows" in capsys.readouterr().err

        def mutate(tree):
            tree["sweeps"][key] = list(grid)

        assert run("--config", modified_config(tmp_path, mutate), "--out", str(tmp_path), command) == 2
        assert f"sweeps.{key}: the span stop - start overflows" in capsys.readouterr().err
        assert not (tmp_path / csv).exists()

    @pytest.mark.parametrize("variant", ["lossless", "lumped-exponential"])
    def test_efficiency_overflow_exits_2(self, tmp_path, capsys, variant):
        out = tmp_path / "out"
        common = ("--loss-variant", variant, "--out", str(out))
        assert run("--config", SHIPPED, *common, "efficiency", "--lengths=1e200:1e300:2") == 2
        assert "lengths: the efficiency at 1e+200 m overflows" in capsys.readouterr().err

        def sweep(tree):
            tree["sweeps"]["length_m"] = [1e200, 1e300, 2]

        assert run("--config", modified_config(tmp_path, sweep), *common, "efficiency") == 2
        assert "sweeps.length_m: the efficiency at 1e+200 m overflows" in capsys.readouterr().err

        def fiber(tree):
            tree["fields"]["fiber_length_m"] = 1e200

        assert run("--config", modified_config(tmp_path, fiber), *common, "efficiency") == 2
        assert "fields.fiber_length_m: the efficiency at 1e+200 m overflows" in capsys.readouterr().err
        assert not (out / "efficiency_vs_length.csv").exists()

    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize(
        "command,option,key,csv",
        [
            ("bend", "radii", "radius_m", "bend_accessibility.csv"),
            ("efficiency", "lengths", "length_m", "efficiency_vs_length.csv"),
        ],
    )
    def test_non_positive_sweep_names_its_source(self, tmp_path, capsys, command, option, key, csv, from_config):
        if from_config:

            def mutate(tree):
                tree["sweeps"][key] = [-1.0, 1.0, 3]

            config, extra, source = modified_config(tmp_path, mutate), (), f"sweeps.{key}"
        else:
            config, extra, source = SHIPPED, (f"--{option}=-1:1:3",), option
        assert run("--config", config, "--out", str(tmp_path), command, *extra) == 2
        assert f"{source}: values must be positive, got -1" in capsys.readouterr().err
        assert not (tmp_path / csv).exists()

    def test_cli_import_does_not_load_scipy(self):
        assert fresh_interpreter_packages(["import csrskit.cli"]) == []

    def test_no_subcommand_loads_numpy(self, tmp_path):
        def call(*argv):
            return f"assert csrskit.cli.main({['--config', SHIPPED, '--out', str(tmp_path), *argv]!r}) == 0"

        lines = ["import csrskit.cli"]
        lines += [call(command) for command in ("phase-match", "efficiency", "bend", "screen")]
        for kind, data in (("cutback", CUTBACK_DATA), ("efficiency", EFFICIENCY_DATA), ("bend", BEND_DATA)):
            lines.append(call("fit", "--kind", kind, "--data", data))
        assert fresh_interpreter_packages(lines) == []
        # the same run sees numpy once anything imports it, so the check above can fail
        assert fresh_interpreter_packages([*lines, "import numpy"]) == ["numpy"]

    @pytest.mark.parametrize(
        "argv,runs",
        [
            (["phase-match"], ["phasematch"]),
            (["efficiency"], []),
            (["bend"], ["bendloss"]),
            (["screen"], ["raman_screen"]),
            (["fit", "--kind", "cutback", "--data", CUTBACK_DATA], ["fitting"]),
            (["fit", "--kind", "efficiency", "--data", EFFICIENCY_DATA], ["fitting"]),
            (["fit", "--kind", "bend", "--data", BEND_DATA], ["fitting"]),
        ],
    )
    def test_each_subcommand_loads_only_the_modules_it_runs(self, tmp_path, argv, runs):
        code = "\n".join(
            [
                "import json, sys",
                "import csrskit.cli",
                f"code = csrskit.cli.main({['--config', SHIPPED, '--out', str(tmp_path), *argv]!r})",
                "loaded = sorted(m for m in sys.modules if m.startswith('csrskit'))",
                "print(json.dumps([code, 'yaml' in sys.modules, loaded]))",
            ]
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        code, yaml_loaded, loaded = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert not yaml_loaded
        base = ["csrskit", "csrskit.cli", "csrskit.config", "csrskit.core_model", "csrskit.efficiency"]
        assert loaded == sorted(base + [f"csrskit.{name}" for name in runs])

    def test_rerun_replaces_the_csv(self, tmp_path):
        assert run("--config", SHIPPED, "--out", str(tmp_path), "phase-match") == 0
        first = (tmp_path / "phase_match.csv").read_bytes()
        assert run("--config", SHIPPED, "--out", str(tmp_path), "phase-match") == 0
        assert [p.name for p in tmp_path.iterdir()] == ["phase_match.csv"]
        assert (tmp_path / "phase_match.csv").read_bytes() == first

    def test_rerun_writes_through_a_symlinked_csv(self, tmp_path):
        target = tmp_path / "kept.csv"
        target.write_text("stale\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "phase_match.csv").symlink_to(target)
        assert run("--config", SHIPPED, "--out", str(out), "phase-match") == 0
        assert (out / "phase_match.csv").is_symlink()
        assert target.read_text().startswith("# csrskit")


#: The scalar leaves in which configs/h2_long_fiber.yaml departs from the shipped config.
_SCENARIO_SCALARS = (
    "model.signal_attenuation_db_per_m",
    "fields.pump1.attenuation_db_per_m",
    "fields.pump2.attenuation_db_per_m",
    "fields.probe.attenuation_db_per_m",
    "fields.pump1.power_w",
    "fields.pump2.power_w",
    "fields.pump1.incoupling",
    "fields.pump2.incoupling",
    "fields.probe.incoupling",
    "fields.fiber_length_m",
)


def _set_leaf(tree, path, value):
    *blocks, name = path.split(".")
    node = tree
    for block in blocks:
        node = node[block]
    node[name] = value


class TestLongFiberScenario:
    """The scenario's own inputs are checked where the efficiency command reads them."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("path", _SCENARIO_SCALARS)
    def test_non_finite_scenario_leaf_exits_2(self, tmp_path, capsys, path, bad):
        config = modified_config(tmp_path, lambda tree: _set_leaf(tree, path, bad), base=LONG_FIBER)
        assert run("--config", config, "--out", str(tmp_path / "out"), "efficiency") == 2
        assert f"error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", _SCENARIO_SCALARS)
    def test_out_of_range_scenario_leaf_exits_2(self, tmp_path, capsys, path):
        constraint = next(key.constraint[0] for key in SCHEMA if key.path == path)
        bad = _OUT_OF_RANGE[constraint]
        config = modified_config(tmp_path, lambda tree: _set_leaf(tree, path, bad), base=LONG_FIBER)
        assert run("--config", config, "--out", str(tmp_path / "out"), "efficiency") == 2
        assert f"error: {path}: must be {constraint}, got {bad}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fiber_length_overflow_exits_2(self, tmp_path, capsys):
        def mutate(tree):
            _set_leaf(tree, "fields.fiber_length_m", 1e200)

        config = modified_config(tmp_path, mutate, base=LONG_FIBER)
        assert run("--config", config, "--out", str(tmp_path / "out"), "efficiency") == 2
        assert "error: fields.fiber_length_m: the efficiency at 1e+200 m overflows" in capsys.readouterr().err
        assert not (tmp_path / "out" / "efficiency_vs_length.csv").exists()

    def _with_attenuation(self, tmp_path, value):
        def mutate(tree):
            for path in _SCENARIO_SCALARS[:4]:
                _set_leaf(tree, path, value)

        return modified_config(tmp_path, mutate, base=LONG_FIBER)

    def test_optimum_length_overflow_exits_2(self, tmp_path, capsys):
        # 2 / (4 alpha) overflows to inf at 1e-320 dB/m on every beam
        out = tmp_path / "out"
        assert run("--config", self._with_attenuation(tmp_path, 1e-320), "--out", str(out), "efficiency") == 2
        assert "the optimum length or its efficiency overflows" in capsys.readouterr().err
        assert not (out / "efficiency_vs_length.csv").exists()

    def test_zero_attenuation_reports_an_unbounded_optimum(self, tmp_path):
        out = tmp_path / "out"
        assert run("--config", self._with_attenuation(tmp_path, 0.0), "--out", str(out), "efficiency") == 0
        text = (out / "efficiency_vs_length.csv").read_text()
        assert "# optimal_length_m: unbounded (zero total attenuation leaves the optimum length unbounded)" in text
        _, rows = read_rows(out / "efficiency_vs_length.csv")
        assert len(rows) == 25  # no optimum row


def fresh_interpreter_packages(lines) -> list:
    """Run lines in a fresh PYTHONPATH=src interpreter; return which of numpy and scipy it loaded."""
    report = "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))"
    code = "\n".join(["import json, sys", *lines, report])
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300]),
)


@given(start=_FINITE, stop=_FINITE, count=st.integers(min_value=1, max_value=500), same=st.booleans())
@settings(max_examples=500, deadline=None)
def test_linspace_matches_numpy_bit_for_bit(start, stop, count, same):
    if same:
        stop = start
    with np.errstate(all="ignore"):  # finite bounds far apart overflow to inf steps in both
        expected = np.linspace(start, stop, count).tolist()
    # hex strings, because == would hide a -0.0/0.0 swap that the CSV prints differently
    assert [x.hex() for x in _linspace(start, stop, count)] == [x.hex() for x in expected]
