import pytest
import yaml

from csrskit.cli import main
from csrskit.config import SCHEMA, ConfigError, load_config
from csrskit.core_model import FiberGeometry
from tests.conftest import REPO_ROOT

SHIPPED = REPO_ROOT / "configs" / "h2_914nm.yaml"
LONG_FIBER = REPO_ROOT / "configs" / "h2_long_fiber.yaml"

#: The leaves in which the long-fiber scenario departs from the shipped config.
SCENARIO_LEAVES = {
    "model.signal_attenuation_db_per_m": 0.0159,
    "fields.pump1.attenuation_db_per_m": 0.0159,
    "fields.pump2.attenuation_db_per_m": 0.0159,
    "fields.probe.attenuation_db_per_m": 0.0159,
    "fields.pump1.power_w": 15.0,
    "fields.pump2.power_w": 8.0,
    "fields.pump1.incoupling": 0.83,
    "fields.pump2.incoupling": 0.83,
    "fields.probe.incoupling": 0.83,
    "fields.fiber_length_m": 21.0,
    "sweeps.length_m": [1.0, 25.0, 25],
}


def minimal_tree() -> dict:
    return {
        "fiber": {"core_radius_um": 23.0, "wall_thickness_um": 1.28, "num_capillaries": 7},
        "gas": {
            "species": "H2",
            "refractivity_coefficients": [[1.6e-4, 5.5e-3]],
            "reference_pressure_bar": 1.01325,
            "reference_temperature_k": 273.15,
        },
        "scheme": {"pump1_nm": 1550.0, "pump2_nm": 942.0, "probe_nm": 914.0},
        "model": {"coefficient_pct_per_w2m2": 0.0044},
        "fields": {
            "fiber_length_m": 1.85,
            "pump1": {"power_w": 3.0},
            "pump2": {"power_w": 3.0},
            "probe": {"power_w": 0.001},
        },
        "screening": {"bandpass_center_nm": 1474.0, "bandpass_width_nm": 25.0, "catalog": "lines.csv"},
    }


def write_tree(tmp_path, tree, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return path


class TestShippedConfig:
    def test_loads_and_builds_domain_objects(self):
        config = load_config(SHIPPED)
        geom = config.fiber_geometry()
        assert isinstance(geom, FiberGeometry)
        assert geom.core_radius_um == 23.0
        assert geom.capillary_inner_radius_um == 18.3
        assert config.temperature_k() == 293.0
        assert config.index_variant() == "zeisberger"
        assert config.resonance_exclusion_rel() == 0.02
        scheme = config.scheme()
        assert scheme.signal_nm == pytest.approx(1475.618, abs=1e-3)
        fields = config.light_fields()
        assert fields["probe"].attenuation_db_per_m == 0.93
        assert config.catalog_path().exists()

    def test_long_fiber_scenario_differs_only_in_its_own_leaves(self):
        def leaves(node, path=""):
            if not isinstance(node, dict):
                return {path: node}
            flat = {}
            for name, child in node.items():
                flat.update(leaves(child, f"{path}.{name}".lstrip(".")))
            return flat

        shipped, scenario = leaves(load_config(SHIPPED).tree), leaves(load_config(LONG_FIBER).tree)
        assert scenario.keys() == shipped.keys()
        assert {path: value for path, value in scenario.items() if shipped[path] != value} == SCENARIO_LEAVES

    def test_digest_is_stable(self):
        a = load_config(SHIPPED)
        b = load_config(SHIPPED)
        assert a.digest() == b.digest()
        assert len(a.digest()) == 16
        assert a.normalized_json() == b.normalized_json()

    def test_loss_variant_override(self):
        config = load_config(SHIPPED)
        other = config.with_loss_variant("lossless")
        assert other.efficiency_model().loss_variant == "lossless"
        assert other.digest() != config.digest()
        with pytest.raises(ConfigError, match=r"^model\.loss_variant: must be one of"):
            config.with_loss_variant("bogus")


class TestValidation:
    def test_minimal_config_defaults(self, tmp_path):
        config = load_config(write_tree(tmp_path, minimal_tree()))
        tree = config.normalized()
        # defaults materialized into the normalized echo
        assert tree["fiber"]["capillary_inner_radius_um"] == pytest.approx(17.63, abs=0.01)
        assert tree["fiber"]["wall_index"] == 1.444
        assert tree["gas"]["temperature_k"] == 293.0
        assert tree["scheme"]["detuning_tolerance_cm1"] == 5.0
        assert tree["model"]["resonance_exclusion_rel"] == 0.03
        assert tree["model"]["loss_variant"] == "lumped-exponential"
        assert tree["fields"]["pump1"]["incoupling"] == 1.0
        assert tree["screening"]["strength_threshold"] == 0.01

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        tree = minimal_tree()
        tree["model"]["fudge_factor"] = 2.0
        with pytest.raises(ConfigError, match=r"model\.fudge_factor"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()
        tree["turbo"] = True
        with pytest.raises(ConfigError, match=r"config\.turbo"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()  # a scenario is a config of its own (configs/h2_long_fiber.yaml)
        tree["projection"] = {"pump1_power_w": 15.0, "pump2_power_w": 8.0}
        with pytest.raises(ConfigError, match=r"^config\.projection: unknown key$"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()
        tree["fields"]["pump1"]["phase"] = 0.0
        with pytest.raises(ConfigError, match=r"fields\.pump1\.phase"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()
        tree["fiber"].update({1: 2.0, "x": 3.0})  # keys of two types cannot be sorted together
        with pytest.raises(ConfigError, match=r"fiber\.1: unknown key"):
            load_config(write_tree(tmp_path, tree))

    def test_missing_block_and_key(self, tmp_path):
        tree = minimal_tree()
        del tree["screening"]
        with pytest.raises(ConfigError, match="screening"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()
        del tree["fiber"]["core_radius_um"]
        with pytest.raises(ConfigError, match=r"fiber\.core_radius_um"):
            load_config(write_tree(tmp_path, tree))

    def test_type_errors(self, tmp_path):
        tree = minimal_tree()
        tree["fiber"]["core_radius_um"] = "wide"
        with pytest.raises(ConfigError, match=r"fiber\.core_radius_um"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()
        tree["model"]["loss_variant"] = "quadratic"
        with pytest.raises(ConfigError, match="loss_variant"):
            load_config(write_tree(tmp_path, tree))
        tree = minimal_tree()
        tree["gas"]["refractivity_coefficients"] = [[1.0]]
        with pytest.raises(ConfigError, match="refractivity_coefficients"):
            load_config(write_tree(tmp_path, tree))

    def test_wall_index_forms(self, tmp_path):
        tree = minimal_tree()
        tree["fiber"]["wall_index"] = {"table": [[900.0, 1.45], [1600.0, 1.44]]}
        config = load_config(write_tree(tmp_path, tree))
        assert config.fiber_geometry().wall_refractive_index(1600.0) == 1.44
        tree["fiber"]["wall_index"] = {"sellmeier": [[0.6961663, 0.00467914], [0.4079426, 0.01351206]]}
        config = load_config(write_tree(tmp_path, tree))
        assert 1.4 < config.fiber_geometry().wall_refractive_index(1550.0) < 1.5
        tree["fiber"]["wall_index"] = {"sellmeier": [[0.69, 0.004]], "table": [[900.0, 1.45]]}
        with pytest.raises(ConfigError):
            load_config(write_tree(tmp_path, tree))
        tree["fiber"]["wall_index"] = {"table": [[900.0, 1.45], [900.0, 1.44]]}
        with pytest.raises(ConfigError, match="^fiber: wall-index table wavelengths must be distinct"):
            load_config(write_tree(tmp_path, tree))

    def test_untagged_sellmeier_pairs_with_a_large_b(self, tmp_path):
        tree = minimal_tree()
        tree["fiber"]["wall_index"] = {"sellmeier": [[12.0, 0.01]]}
        geom = load_config(write_tree(tmp_path, tree)).fiber_geometry()
        # sqrt(1 + 12 * 1 / (1 - 0.01)) at 1 um; a table reading gave 0.01
        assert geom.wall_refractive_index(1000.0) == pytest.approx(3.6223, abs=1e-4)

    def test_incoupling_all_is_an_unknown_key(self, tmp_path, capsys):
        # each beam's incoupling is set on the beam; there is no aggregate override
        tree = minimal_tree()
        tree["fields"]["incoupling_all"] = 0.83
        path = write_tree(tmp_path, tree)
        with pytest.raises(ConfigError, match=r"^fields\.incoupling_all: unknown key$"):
            load_config(path)
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "efficiency"]) == 2
        assert "error: fields.incoupling_all: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_catalog_path_relative_to_config(self, tmp_path):
        tree = minimal_tree()
        path = write_tree(tmp_path, tree)
        config = load_config(path)
        assert config.catalog_path() == tmp_path / "lines.csv"

    def test_sweep_block(self, tmp_path):
        tree = minimal_tree()
        tree["sweeps"] = {"pressure_bar": [60.0, 110.0, 11]}
        config = load_config(write_tree(tmp_path, tree))
        assert config.sweep("pressure_bar") == [60.0, 110.0, 11]
        assert config.sweep("length_m") is None
        tree["sweeps"] = {"pressure_bar": [60.0, 110.0]}
        with pytest.raises(ConfigError, match=r"sweeps\.pressure_bar"):
            load_config(write_tree(tmp_path, tree))

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("fiber: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)


def test_readme_names_every_schema_path():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [key.path for key in SCHEMA if f"`{key.path}`" not in readme]
    assert missing == []
