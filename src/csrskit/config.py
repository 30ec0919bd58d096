"""Toolkit configuration: a single YAML tree validated strictly on load.

Six blocks describe one conversion setup: fiber (geometry), gas
(dispersion data and operating temperature), scheme (the four
wavelengths), model (efficiency coefficient, loss variant, index
variant), fields (beam powers, attenuations, incoupling, fiber length)
and screening (bandpass and line catalog).  One optional block: sweeps
(default CLI ranges).  A scenario, such as a long low-loss fiber, is a
config file of its own, not a block of another one.

One table, SCHEMA, lists every leaf as (dotted path, type, default,
constraint), and it alone drives the validation: the allowed and
required keys of each block, the type and range check of each leaf, and
the defaults.  Unknown keys, missing keys and bad values are rejected
with a ConfigError naming their dotted path.  Omitted optional keys are
materialized with their defaults, so the normalized form echoed into
output metadata is complete and stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import yaml

from csrskit.bendloss import touching_capillary_radius
from csrskit.core_model import INDEX_VARIANTS, FiberGeometry, GasDispersion, WallIndexTable
from csrskit.efficiency import LOSS_VARIANTS, EfficiencyModel, LightField
from csrskit.phasematch import ConversionScheme
from csrskit.raman_screen import BandpassFilter

__all__ = ["SCHEMA", "ConfigError", "Key", "ToolkitConfig", "load_config"]


class ConfigError(ValueError):
    """Configuration file violates the schema."""


# -- leaf types: each parses a raw YAML value into its normalized form -------


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return number


def _optional_number(value, path: str) -> float | None:
    return None if value is None else _number(value, path)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _enum(*choices: str) -> Callable[[Any, str], str]:
    def parse(value, path: str) -> str:
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {list(choices)}, got {value!r}")
        return value

    return parse


def _pairs(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of [a, b] pairs")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{path}[{i}]: expected an [a, b] pair")
    return [[_number(a, f"{path}[{i}][0]"), _number(b, f"{path}[{i}][1]")] for i, (a, b) in enumerate(value)]


def _range(value, path: str) -> list:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected [start, stop, count]")
    start = _number(value[0], f"{path}[0]")
    stop = _number(value[1], f"{path}[1]")
    if not math.isfinite(stop - start):
        raise ConfigError(f"{path}: the span stop - start overflows")
    count = _integer(value[2], f"{path}[2]")
    if count < 1:
        raise ConfigError(f"{path}[2]: count must be >= 1")
    return [start, stop, count]


def _wall_index(value, path: str):
    """A constant, {sellmeier: [[B, C], ...]} (l in um) or {table: [[lambda_nm, n], ...]}."""
    if not isinstance(value, dict):
        return _number(value, path)
    if len(value) != 1 or not set(value) <= {"sellmeier", "table"}:
        raise ConfigError(f"{path}: give exactly one of 'sellmeier' or 'table', got {list(value)}")
    ((kind, rows),) = value.items()
    return {kind: _pairs(rows, f"{path}.{kind}")}


# -- constraints: (description, predicate) on one parsed, non-null leaf ------

POSITIVE = ("> 0", lambda v: v > 0)
NON_NEGATIVE = (">= 0", lambda v: v >= 0)
FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
AT_LEAST_3 = (">= 3", lambda v: v >= 3)
ABOVE_1 = (
    "> 1 as a constant or in every table row",
    lambda v: all(n > 1 for _, n in v.get("table", ())) if isinstance(v, dict) else v > 1,
)

#: Default markers: the key must be given, or it is left out of the echo when absent.
REQUIRED = "required"
OMITTED = "omitted"


@dataclass(frozen=True)
class Key:
    """One leaf of the configuration tree.

    default is a value, REQUIRED, OMITTED, or a function of the block's
    leaves normalized so far (a derived default).
    """

    path: str
    parse: Callable[[Any, str], Any]
    default: Any = REQUIRED
    constraint: tuple[str, Callable[[Any], bool]] | None = None


def _touching_radius(fiber: dict) -> float:
    return touching_capillary_radius(fiber["core_radius_um"], fiber["num_capillaries"])


SCHEMA = (
    Key("fiber.core_radius_um", _number, REQUIRED, POSITIVE),
    Key("fiber.num_capillaries", _integer, REQUIRED, AT_LEAST_3),
    Key("fiber.capillary_inner_radius_um", _number, _touching_radius, POSITIVE),
    Key("fiber.wall_thickness_um", _number, REQUIRED, POSITIVE),
    Key("fiber.wall_index", _wall_index, 1.444, ABOVE_1),
    Key("gas.species", _string),
    Key("gas.refractivity_coefficients", _pairs),
    Key("gas.reference_pressure_bar", _number, REQUIRED, POSITIVE),
    Key("gas.reference_temperature_k", _number, REQUIRED, POSITIVE),
    Key("gas.temperature_k", _number, 293.0, POSITIVE),
    Key("scheme.pump1_nm", _number, REQUIRED, POSITIVE),
    Key("scheme.pump2_nm", _number, REQUIRED, POSITIVE),
    Key("scheme.probe_nm", _number, REQUIRED, POSITIVE),
    Key("scheme.transition_cm1", _optional_number, None),
    Key("scheme.detuning_tolerance_cm1", _number, 5.0, NON_NEGATIVE),
    Key("model.coefficient_pct_per_w2m2", _number, REQUIRED, POSITIVE),
    Key("model.loss_variant", _enum(*LOSS_VARIANTS), "lumped-exponential"),
    Key("model.signal_attenuation_db_per_m", _number, 0.0, NON_NEGATIVE),
    Key("model.index_variant", _enum(*INDEX_VARIANTS), "zeisberger"),
    Key("model.resonance_exclusion_rel", _number, 0.03, NON_NEGATIVE),
    *(
        key
        for beam in ("pump1", "pump2", "probe")
        for key in (
            Key(f"fields.{beam}.power_w", _number, REQUIRED, NON_NEGATIVE),
            Key(f"fields.{beam}.attenuation_db_per_m", _number, 0.0, NON_NEGATIVE),
            Key(f"fields.{beam}.incoupling", _number, 1.0, FRACTION),
        )
    ),
    Key("fields.fiber_length_m", _number, REQUIRED, POSITIVE),
    Key("screening.bandpass_center_nm", _number, REQUIRED, POSITIVE),
    Key("screening.bandpass_width_nm", _number, REQUIRED, POSITIVE),
    Key("screening.strength_threshold", _number, 0.01, NON_NEGATIVE),
    Key("screening.catalog", _string),
    Key("sweeps.pressure_bar", _range, OMITTED),
    Key("sweeps.length_m", _range, OMITTED),
    Key("sweeps.radius_m", _range, OMITTED),
)

#: Blocks that may be left out; every other block is required.
_OPTIONAL_BLOCKS = ("sweeps",)


def _nest(keys) -> dict:
    """The table as a tree: block name -> sub-block or Key, in table order."""
    tree: dict = {}
    for key in keys:
        *blocks, name = key.path.split(".")
        node = tree
        for block in blocks:
            node = node.setdefault(block, {})
        node[name] = key
    return tree


_TREE = _nest(SCHEMA)


def _normalize(raw, spec: dict = _TREE, path: str = "") -> dict:
    label = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label}: expected a mapping")
    unknown = sorted(set(raw) - set(spec), key=str)  # YAML keys need not be strings
    if unknown:
        raise ConfigError(f"{label}.{unknown[0]}: unknown key")
    out: dict = {}
    for name, item in spec.items():
        if isinstance(item, dict):  # a block
            if name in raw:
                out[name] = _normalize(raw[name], item, f"{path}.{name}".lstrip("."))
            elif name not in _OPTIONAL_BLOCKS:
                raise ConfigError(f"{label}.{name}: required block is missing")
            continue
        if name in raw:
            value = item.parse(raw[name], item.path)
        elif item.default is REQUIRED:
            raise ConfigError(f"{item.path}: required key is missing")
        elif item.default is OMITTED:
            continue
        else:
            value = item.default(out) if callable(item.default) else item.default
        if item.constraint is not None and value is not None:
            description, holds = item.constraint
            if not holds(value):
                raise ConfigError(f"{item.path}: must be {description}, got {value!r}")
        out[name] = value
    return out


@dataclass(frozen=True)
class ToolkitConfig:
    """Validated configuration with builders for the domain objects."""

    tree: dict
    source_path: Path | None = None

    # -- echo / provenance --------------------------------------------------

    def normalized(self) -> dict:
        return json.loads(self.normalized_json())

    def normalized_json(self) -> str:
        return json.dumps(self.tree, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.normalized_json().encode("utf-8")).hexdigest()[:16]

    # -- builders ------------------------------------------------------------

    def fiber_geometry(self) -> FiberGeometry:
        f = self.tree["fiber"]
        wall = f["wall_index"]
        if isinstance(wall, dict):
            ((kind, rows),) = wall.items()
            wall = WallIndexTable(rows) if kind == "table" else rows
        return FiberGeometry(**{**f, "wall_index": wall})  # the block's keys are FiberGeometry's fields

    def gas_dispersion(self) -> GasDispersion:
        g = self.tree["gas"]
        return GasDispersion(
            species=g["species"],
            refractivity_coefficients=tuple(tuple(pair) for pair in g["refractivity_coefficients"]),
            reference_pressure_bar=g["reference_pressure_bar"],
            reference_temperature_k=g["reference_temperature_k"],
        )

    def temperature_k(self) -> float:
        return self.tree["gas"]["temperature_k"]

    def scheme(self) -> ConversionScheme:
        return ConversionScheme.from_pumps(**self.tree["scheme"])  # the block's keys are its parameters

    def light_fields(self) -> dict[str, LightField]:
        fields = self.tree["fields"]
        return {
            name: LightField(
                wavelength_nm=self.tree["scheme"][f"{name}_nm"],
                power_w=fields[name]["power_w"],
                attenuation_db_per_m=fields[name]["attenuation_db_per_m"],
                incoupling=fields[name]["incoupling"],
            )
            for name in ("pump1", "pump2", "probe")
        }

    def fiber_length_m(self) -> float:
        return self.tree["fields"]["fiber_length_m"]

    def efficiency_model(self) -> EfficiencyModel:
        m = self.tree["model"]
        return EfficiencyModel(
            coefficient_pct_per_w2m2=m["coefficient_pct_per_w2m2"],
            loss_variant=m["loss_variant"],
            signal_attenuation_db_per_m=m["signal_attenuation_db_per_m"],
        )

    def index_variant(self) -> str:
        return self.tree["model"]["index_variant"]

    def resonance_exclusion_rel(self) -> float:
        return self.tree["model"]["resonance_exclusion_rel"]

    def bandpass(self) -> BandpassFilter:
        s = self.tree["screening"]
        return BandpassFilter(center_nm=s["bandpass_center_nm"], width_nm=s["bandpass_width_nm"])

    def strength_threshold(self) -> float:
        return self.tree["screening"]["strength_threshold"]

    def catalog_path(self) -> Path:
        raw = Path(self.tree["screening"]["catalog"])
        if raw.is_absolute() or self.source_path is None:
            return raw
        return self.source_path.parent / raw

    def sweep(self, name: str) -> list | None:
        return self.tree.get("sweeps", {}).get(name)

    def with_loss_variant(self, variant: str) -> "ToolkitConfig":
        tree = json.loads(self.normalized_json())
        tree["model"]["loss_variant"] = variant
        return ToolkitConfig(tree=_normalize(tree), source_path=self.source_path)


def load_config(path: str | Path) -> ToolkitConfig:
    """Load and validate a configuration file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    config = ToolkitConfig(tree=_normalize(raw), source_path=path)
    try:  # what no single leaf shows: the geometry's proportions, a wall-index table's rows
        config.fiber_geometry()
    except ValueError as exc:
        raise ConfigError(f"fiber: {exc}") from exc
    return config
