import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from csrskit import config as cfg
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


def _canonical(node):
    """A tree that compares equal only to a tree of the same types and values (nan equal to nan)."""
    if isinstance(node, dict):
        return {key: _canonical(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_canonical(value) for value in node]
    if isinstance(node, float):
        return ("float", "nan" if math.isnan(node) else node.hex())
    return (type(node).__name__, node)


_NUMBERS = st.one_of(st.floats(), st.integers())
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
_PAIRS = st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=1, max_size=3)
_LEAVES = {
    cfg._number: _NUMBERS,
    cfg._optional_number: st.one_of(st.none(), _NUMBERS),
    cfg._integer: st.integers(),
    cfg._pairs: _PAIRS,
    cfg._range: st.tuples(_NUMBERS, _NUMBERS, st.integers()).map(list),
    cfg._wall_index: st.one_of(_NUMBERS, st.dictionaries(st.sampled_from(["sellmeier", "table"]), _PAIRS, min_size=1)),
}


def _schema_trees(node=cfg._TREE):
    """Trees of SCHEMA's keys, each present or not, with leaves of their type (strings for the rest)."""
    return st.fixed_dictionaries(
        {},
        optional={
            name: _schema_trees(item) if isinstance(item, dict) else _LEAVES.get(item.parse, _TEXT)
            for name, item in node.items()
        },
    )


def _read_as_a_number_here(text: str) -> bool:
    """The listed difference: a decimal that YAML 1.1 reads as a string, such as 1e3 or 2.93e2."""
    return cfg._FLOAT.fullmatch(text) is not None and isinstance(yaml.safe_load(text), str)


def _strings(node):
    if isinstance(node, dict):
        return [s for value in node.values() for s in _strings(value)]
    if isinstance(node, list):
        return [s for value in node for s in _strings(value)]
    return [node] if isinstance(node, str) else []


class TestReader:
    """config._read_yaml against yaml.safe_load, the reader it replaces."""

    @pytest.mark.parametrize("path", [SHIPPED, LONG_FIBER], ids=lambda p: p.name)
    def test_shipped_configs_read_as_pyyaml_reads_them(self, path):
        text = path.read_text(encoding="utf-8")
        assert _canonical(cfg._read_yaml(text)) == _canonical(yaml.safe_load(text))

    @given(tree=_schema_trees(), style=st.sampled_from([False, None, True]))
    @settings(max_examples=300, deadline=None)
    def test_dumped_schema_trees_read_as_pyyaml_reads_them(self, tree, style):
        if any(_read_as_a_number_here(s) for s in _strings(tree)):
            return
        # block style, flow leaves, and the whole tree as one flow mapping; a flow collection is one line
        text = yaml.safe_dump(tree, default_flow_style=style, width=math.inf)
        assert _canonical(cfg._read_yaml(text)) == _canonical(yaml.safe_load(text))

    def test_nested_block_sequences_and_quoted_scalars(self):
        text = "a:\n- - 1\n  - '2'\n-\n  - \"x\\ty\"\n- [.inf, -.inf, .nan, null, true, false]\nb: 'it''s' # note\n"
        tree = cfg._read_yaml(text)
        assert _canonical(tree) == _canonical(yaml.safe_load(text))
        assert tree["a"][0] == [1, "2"] and tree["a"][1] == ["x\ty"] and tree["b"] == "it's"

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("a: &x 1\n", 1, "anchors are not accepted"),
            ("a: 1\nb: *x\n", 2, "aliases are not accepted"),
            ("a: !!float 1\n", 1, "tags are not accepted"),
            ("a: 1\n---\nb: 2\n", 2, "document markers are not accepted"),
            ("a: 1\n...\n", 2, "document markers are not accepted"),
            ("a: |\n  text\n", 1, "block scalars are not accepted"),
            ("a: >\n  text\n", 1, "block scalars are not accepted"),
            ("a:\n\tb: 1\n", 2, "tabs are not accepted"),
            ("a: 1\nb: 2\na: 3\n", 3, "duplicate key 'a'"),
            ("a:\n  w: {x: 1, x: 2}\n", 2, "duplicate or non-scalar key 'x'"),
            ("%YAML 1.1\na: 1\n", 1, "directives are not accepted"),
            ("? a\n: 1\n", 1, "complex keys are not accepted"),
            ("a: [1, 2\n  , 3]\n", 1, "'[' is not closed on its line"),
            ("a: 'x\n  y'\n", 1, "a quoted scalar must close on its line"),
            ("a: 1\n  b: 2\n", 2, "unexpected indentation"),
            ("a: b: c\n", 1, "'b: c' is not a plain scalar; quote it"),
            ("- a\nb: 1\n", 2, "this line does not continue the block above it"),
        ],
    )
    def test_constructs_outside_the_subset_are_named_with_their_line(self, tmp_path, text, line, message):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).startswith(f"{path}: line {line}: {message}")

    def test_exponents_without_a_dot_or_sign_are_numbers(self, tmp_path):
        text = "a: 2.93e2\nb: 1e3\nc: 1.0e3\n"
        assert yaml.safe_load(text) == {"a": "2.93e2", "b": "1e3", "c": "1.0e3"}  # YAML 1.1
        assert _canonical(cfg._read_yaml(text)) == _canonical({"a": 293.0, "b": 1000.0, "c": 1000.0})
        tree = minimal_tree()
        path = write_tree(tmp_path, tree)
        path.write_text(path.read_text().replace("temperature_k: 273.15", "temperature_k: 2.7315e2"))
        assert load_config(path).tree["gas"]["reference_temperature_k"] == 273.15

    def test_yes_no_on_off_are_strings(self):
        text = "a: yes\nb: no\nc: on\nd: off\n"
        assert yaml.safe_load(text) == {"a": True, "b": False, "c": True, "d": False}  # YAML 1.1
        assert cfg._read_yaml(text) == {"a": "yes", "b": "no", "c": "on", "d": "off"}

    def test_duplicate_keys_are_rejected(self):
        text = "fiber:\n  core_radius_um: 23.0\n  core_radius_um: 30.0\n"
        assert yaml.safe_load(text) == {"fiber": {"core_radius_um": 30.0}}  # YAML 1.1 keeps the last
        with pytest.raises(ConfigError, match=r"^line 3: duplicate key 'core_radius_um'$"):
            cfg._read_yaml(text)


def test_readme_names_every_schema_path():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [key.path for key in SCHEMA if f"`{key.path}`" not in readme]
    assert missing == []
