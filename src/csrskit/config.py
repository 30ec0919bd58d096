"""Toolkit configuration: a single YAML tree validated strictly on load.

Six blocks describe one conversion setup: fiber (geometry), gas
(dispersion data and operating temperature), scheme (the four
wavelengths), model (efficiency coefficient, loss variant, index
variant), fields (beam powers, attenuations, incoupling, fiber length)
and screening (bandpass and line catalog).  Optional blocks: sweeps
(default CLI ranges) and projection (a long-fiber scaling scenario).

Unknown keys anywhere in the tree are rejected with their dotted path;
omitted optional keys are materialized with their defaults so that the
normalized form echoed into output metadata is complete and stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from csrskit.bendloss import touching_capillary_radius
from csrskit.core_model import FiberGeometry, GasDispersion
from csrskit.efficiency import LOSS_VARIANTS, EfficiencyModel, LightField
from csrskit.phasematch import ConversionScheme
from csrskit.raman_screen import BandpassFilter

__all__ = ["ConfigError", "ToolkitConfig", "load_config"]


class ConfigError(ValueError):
    """Configuration file violates the schema."""


def _require(block: dict, path: str, key: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return block[key]


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


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _check_keys(block: dict, path: str, allowed: set[str]) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(block) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}: unknown key")


def _wall_index(value, path: str):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, path)
    if isinstance(value, dict):
        _check_keys(value, path, {"sellmeier", "table"})
        if len(value) != 1:
            raise ConfigError(f"{path}: give exactly one of 'sellmeier' or 'table'")
        kind, rows = next(iter(value.items()))
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{path}.{kind}: expected a non-empty list of pairs")
        out = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                raise ConfigError(f"{path}.{kind}[{i}]: expected a [a, b] pair")
            out.append([_number(row[0], f"{path}.{kind}[{i}][0]"), _number(row[1], f"{path}.{kind}[{i}][1]")])
        return {kind: out}
    raise ConfigError(f"{path}: expected a number or a sellmeier/table mapping")


def _field_block(block, path: str) -> dict:
    _check_keys(block, path, {"power_w", "attenuation_db_per_m", "incoupling"})
    return {
        "power_w": _number(_require(block, path, "power_w"), f"{path}.power_w"),
        "attenuation_db_per_m": _number(block.get("attenuation_db_per_m", 0.0), f"{path}.attenuation_db_per_m"),
        "incoupling": _number(block.get("incoupling", 1.0), f"{path}.incoupling"),
    }


def _sweep(value, path: str) -> list:
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


_TOP_LEVEL = {"fiber", "gas", "scheme", "model", "fields", "screening", "sweeps", "projection"}


def _normalize(tree: dict) -> dict:
    _check_keys(tree, "config", _TOP_LEVEL)
    for block in ("fiber", "gas", "scheme", "model", "fields", "screening"):
        if block not in tree:
            raise ConfigError(f"config.{block}: required block is missing")

    fiber = tree["fiber"]
    _check_keys(
        fiber,
        "fiber",
        {"core_radius_um", "capillary_inner_radius_um", "wall_thickness_um", "num_capillaries", "wall_index"},
    )
    core = _number(_require(fiber, "fiber", "core_radius_um"), "fiber.core_radius_um")
    ncap = _integer(_require(fiber, "fiber", "num_capillaries"), "fiber.num_capillaries")
    norm_fiber = {
        "core_radius_um": core,
        "capillary_inner_radius_um": _number(
            fiber.get("capillary_inner_radius_um", touching_capillary_radius(core, ncap)),
            "fiber.capillary_inner_radius_um",
        ),
        "wall_thickness_um": _number(_require(fiber, "fiber", "wall_thickness_um"), "fiber.wall_thickness_um"),
        "num_capillaries": ncap,
        "wall_index": _wall_index(fiber.get("wall_index", 1.444), "fiber.wall_index"),
    }

    gas = tree["gas"]
    _check_keys(
        gas,
        "gas",
        {"species", "refractivity_coefficients", "reference_pressure_bar", "reference_temperature_k", "temperature_k"},
    )
    coeffs_raw = _require(gas, "gas", "refractivity_coefficients")
    if not isinstance(coeffs_raw, list) or not coeffs_raw:
        raise ConfigError("gas.refractivity_coefficients: expected a non-empty list of [B, C] pairs")
    coeffs = []
    for i, pair in enumerate(coeffs_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"gas.refractivity_coefficients[{i}]: expected a [B, C] pair")
        coeffs.append(
            [
                _number(pair[0], f"gas.refractivity_coefficients[{i}][0]"),
                _number(pair[1], f"gas.refractivity_coefficients[{i}][1]"),
            ]
        )
    species = _require(gas, "gas", "species")
    if not isinstance(species, str):
        raise ConfigError("gas.species: expected a string")
    norm_gas = {
        "species": species,
        "refractivity_coefficients": coeffs,
        "reference_pressure_bar": _number(
            _require(gas, "gas", "reference_pressure_bar"), "gas.reference_pressure_bar"
        ),
        "reference_temperature_k": _number(
            _require(gas, "gas", "reference_temperature_k"), "gas.reference_temperature_k"
        ),
        "temperature_k": _number(gas.get("temperature_k", 293.0), "gas.temperature_k"),
    }

    scheme = tree["scheme"]
    _check_keys(scheme, "scheme", {"pump1_nm", "pump2_nm", "probe_nm", "transition_cm1", "detuning_tolerance_cm1"})
    norm_scheme = {
        "pump1_nm": _number(_require(scheme, "scheme", "pump1_nm"), "scheme.pump1_nm"),
        "pump2_nm": _number(_require(scheme, "scheme", "pump2_nm"), "scheme.pump2_nm"),
        "probe_nm": _number(_require(scheme, "scheme", "probe_nm"), "scheme.probe_nm"),
        "transition_cm1": (
            None if scheme.get("transition_cm1") is None else _number(scheme["transition_cm1"], "scheme.transition_cm1")
        ),
        "detuning_tolerance_cm1": _number(scheme.get("detuning_tolerance_cm1", 5.0), "scheme.detuning_tolerance_cm1"),
    }

    model = tree["model"]
    _check_keys(
        model,
        "model",
        {
            "coefficient_pct_per_w2m2",
            "loss_variant",
            "signal_attenuation_db_per_m",
            "index_variant",
            "resonance_exclusion_rel",
        },
    )
    loss_variant = model.get("loss_variant", "lumped-exponential")
    if loss_variant not in LOSS_VARIANTS:
        raise ConfigError(f"model.loss_variant: must be one of {list(LOSS_VARIANTS)}, got {loss_variant!r}")
    index_variant = model.get("index_variant", "zeisberger")
    if index_variant not in ("zeisberger", "marcatili"):
        raise ConfigError(f"model.index_variant: must be 'zeisberger' or 'marcatili', got {index_variant!r}")
    norm_model = {
        "coefficient_pct_per_w2m2": _number(
            _require(model, "model", "coefficient_pct_per_w2m2"), "model.coefficient_pct_per_w2m2"
        ),
        "loss_variant": loss_variant,
        "signal_attenuation_db_per_m": _number(
            model.get("signal_attenuation_db_per_m", 0.0), "model.signal_attenuation_db_per_m"
        ),
        "index_variant": index_variant,
        "resonance_exclusion_rel": _number(model.get("resonance_exclusion_rel", 0.03), "model.resonance_exclusion_rel"),
    }

    fields = tree["fields"]
    _check_keys(fields, "fields", {"pump1", "pump2", "probe", "fiber_length_m", "incoupling_all"})
    norm_fields = {
        "pump1": _field_block(_require(fields, "fields", "pump1"), "fields.pump1"),
        "pump2": _field_block(_require(fields, "fields", "pump2"), "fields.pump2"),
        "probe": _field_block(_require(fields, "fields", "probe"), "fields.probe"),
        "fiber_length_m": _number(_require(fields, "fields", "fiber_length_m"), "fields.fiber_length_m"),
        # aggregate override: replaces every beam's incoupling when set
        "incoupling_all": (
            None
            if fields.get("incoupling_all") is None
            else _number(fields["incoupling_all"], "fields.incoupling_all")
        ),
    }

    screening = tree["screening"]
    _check_keys(
        screening, "screening", {"bandpass_center_nm", "bandpass_width_nm", "strength_threshold", "catalog"}
    )
    catalog = _require(screening, "screening", "catalog")
    if not isinstance(catalog, str):
        raise ConfigError("screening.catalog: expected a path string")
    norm_screening = {
        "bandpass_center_nm": _number(
            _require(screening, "screening", "bandpass_center_nm"), "screening.bandpass_center_nm"
        ),
        "bandpass_width_nm": _number(
            _require(screening, "screening", "bandpass_width_nm"), "screening.bandpass_width_nm"
        ),
        "strength_threshold": _number(screening.get("strength_threshold", 0.01), "screening.strength_threshold"),
        "catalog": catalog,
    }

    normalized = {
        "fiber": norm_fiber,
        "gas": norm_gas,
        "scheme": norm_scheme,
        "model": norm_model,
        "fields": norm_fields,
        "screening": norm_screening,
    }

    if "sweeps" in tree:
        sweeps = tree["sweeps"]
        _check_keys(sweeps, "sweeps", {"pressure_bar", "length_m", "radius_m"})
        normalized["sweeps"] = {
            key: _sweep(value, f"sweeps.{key}") for key, value in sorted(sweeps.items())
        }

    if "projection" in tree:
        projection = tree["projection"]
        _check_keys(
            projection,
            "projection",
            {
                "pump1_power_w",
                "pump2_power_w",
                "attenuation_db_per_m",
                "incoupling",
                "reference_length_m",
                "reference_efficiency",
            },
        )
        norm_projection = {
            "pump1_power_w": _number(_require(projection, "projection", "pump1_power_w"), "projection.pump1_power_w"),
            "pump2_power_w": _number(_require(projection, "projection", "pump2_power_w"), "projection.pump2_power_w"),
            "attenuation_db_per_m": _number(
                _require(projection, "projection", "attenuation_db_per_m"), "projection.attenuation_db_per_m"
            ),
            "incoupling": _number(_require(projection, "projection", "incoupling"), "projection.incoupling"),
            "reference_length_m": (
                None
                if projection.get("reference_length_m") is None
                else _number(projection["reference_length_m"], "projection.reference_length_m")
            ),
            "reference_efficiency": (
                None
                if projection.get("reference_efficiency") is None
                else _number(projection["reference_efficiency"], "projection.reference_efficiency")
            ),
        }
        normalized["projection"] = norm_projection

    return normalized


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
            wall = [tuple(pair) for pair in next(iter(wall.values()))]
        return FiberGeometry(
            core_radius_um=f["core_radius_um"],
            capillary_inner_radius_um=f["capillary_inner_radius_um"],
            wall_thickness_um=f["wall_thickness_um"],
            num_capillaries=f["num_capillaries"],
            wall_index=wall,
        )

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
        s = self.tree["scheme"]
        return ConversionScheme.from_pumps(
            probe_nm=s["probe_nm"],
            pump1_nm=s["pump1_nm"],
            pump2_nm=s["pump2_nm"],
            transition_cm1=s["transition_cm1"],
            detuning_tolerance_cm1=s["detuning_tolerance_cm1"],
        )

    def light_fields(self) -> dict[str, LightField]:
        s = self.tree["scheme"]
        wavelengths = {"pump1": s["pump1_nm"], "pump2": s["pump2_nm"], "probe": s["probe_nm"]}
        override = self.tree["fields"]["incoupling_all"]
        out = {}
        for name, lam in wavelengths.items():
            f = self.tree["fields"][name]
            out[name] = LightField(
                wavelength_nm=lam,
                power_w=f["power_w"],
                attenuation_db_per_m=f["attenuation_db_per_m"],
                incoupling=f["incoupling"] if override is None else override,
            )
        return out

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

    def projection(self) -> dict | None:
        return self.tree.get("projection")

    def with_loss_variant(self, variant: str) -> "ToolkitConfig":
        if variant not in LOSS_VARIANTS:
            raise ConfigError(f"loss variant override must be one of {list(LOSS_VARIANTS)}, got {variant!r}")
        tree = json.loads(json.dumps(self.tree))
        tree["model"]["loss_variant"] = variant
        return ToolkitConfig(tree=tree, source_path=self.source_path)


def load_config(path: str | Path) -> ToolkitConfig:
    """Load and validate a configuration file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping of blocks")
    tree = _normalize(raw)
    # fail fast on physically invalid values
    config = ToolkitConfig(tree=tree, source_path=path)
    config.fiber_geometry()
    config.gas_dispersion()
    for value, label in (
        (config.temperature_k(), "gas.temperature_k"),
        (config.fiber_length_m(), "fields.fiber_length_m"),
    ):
        if value <= 0:  # _number already rejected non-finite values
            raise ConfigError(f"{label}: must be a positive finite number")
    return config
