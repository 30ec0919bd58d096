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

import contextlib
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from csrskit.core_model import INDEX_VARIANTS, FiberGeometry, GasDispersion, WallIndexTable
from csrskit.efficiency import LOSS_VARIANTS, EfficiencyModel, LightField

if TYPE_CHECKING:  # imported where they are built, so that loading a config loads neither module
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
# Physical bounds of the cross-section (README, "Geometry bounds"): a core or
# capillary between 1 um and 1 mm in radius, a glass membrane between 10 nm
# and 100 um thick, and the index of a real glass.
RADIUS = ("in [1, 1000]", lambda v: 1.0 <= v <= 1e3)
MEMBRANE = ("in [0.01, 100]", lambda v: 0.01 <= v <= 100.0)


def _glass_index(n: float) -> bool:
    return 1.0 < n <= 5.0  # nan fails


GLASS_INDEX = (
    "in (1, 5] as a constant or in every table row",
    lambda v: all(_glass_index(n) for _, n in v.get("table", ())) if isinstance(v, dict) else _glass_index(v),
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
    from csrskit.bendloss import touching_capillary_radius

    return touching_capillary_radius(fiber["core_radius_um"], fiber["num_capillaries"])


SCHEMA = (
    Key("fiber.core_radius_um", _number, REQUIRED, RADIUS),
    Key("fiber.num_capillaries", _integer, REQUIRED, AT_LEAST_3),
    Key("fiber.capillary_inner_radius_um", _number, _touching_radius, RADIUS),
    Key("fiber.wall_thickness_um", _number, REQUIRED, MEMBRANE),
    Key("fiber.wall_index", _wall_index, 1.444, GLASS_INDEX),
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
        from csrskit.phasematch import ConversionScheme

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
        from csrskit.raman_screen import BandpassFilter

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


# -- the file format: the subset of YAML that SCHEMA needs (README, "Config file format") --

_CONSTANTS = {"null": None, "true": True, "false": False, ".nan": math.nan, ".inf": math.inf}
_CONSTANTS.update({"+.inf": math.inf, "-.inf": -math.inf})
_INTEGER = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+(?=[eE]))(?:[eE][-+]?[0-9]+)?")
_NOT_PLAIN = {"&": "anchors", "*": "aliases", "!": "tags", "|": "block scalars", ">": "block scalars"}
_NOT_PLAIN.update({"%": "directives", "@": "reserved indicators", "`": "reserved indicators"})
_QUOTED = re.compile(r"'((?:[^']|'')*)'|\"(?:[^\"\\]|\\.)*\"")
_KEY = re.compile(r"(.*?) *:(?: +|$)")
_KEY_END = re.compile(r" *:(?: +|$)")
_BLOCK_PLAIN = re.compile(r".*?(?= +#|$)")
_FLOW_PLAIN = re.compile(r"[^,\[\]{}]*?(?= *(?:[,\[\]{}]|:(?: |$)| #|$))")
_SPACES = re.compile(" *")


def _is_item(text: str) -> bool:
    return text == "-" or text.startswith("- ")


def _fail(number: int, what: str):
    raise ConfigError(f"line {number}: {what}")


class _Reader:
    """One file's lines, read as nested blocks by their indentation."""

    def __init__(self, text: str):
        self.lines = []  # [line number, indent, content] of each line that is not blank or a comment
        for number, raw in enumerate(text.splitlines(), 1):
            if "\t" in raw:
                _fail(number, "tabs are not accepted; indent with spaces")
            if raw.startswith(("---", "...")) and raw[3:4].strip() == "":
                _fail(number, "document markers are not accepted: a config is one document")
            if (content := raw.strip(" ")) and not content.startswith("#"):
                self.lines.append([number, len(raw) - len(raw.lstrip(" ")), content])

    def block(self, i: int, indent: int):
        """The node whose first line is lines[i], at this indent; returns (node, next line index)."""
        lines = self.lines
        number, _, content = lines[i]
        if _is_item(content):
            node = []
            while i < len(lines) and lines[i][1] == indent and _is_item(lines[i][2]):
                number, _, content = lines[i]
                rest = content[1:].lstrip(" ")
                if rest and rest[0] != "#":  # the item's node starts on this line, at the column of rest
                    lines[i] = [number, indent + len(content) - len(rest), rest]
                    value, i = self.block(i, lines[i][1])
                else:
                    value, i = self.child(i + 1, indent, items=False)
                node.append(value)
        elif self.key(content, number) is None:
            node, i = self.inline(content, number), i + 1
        else:
            node = {}
            while i < len(lines) and lines[i][1] == indent:
                number, _, content = lines[i]
                if _is_item(content) or (entry := self.key(content, number)) is None:
                    _fail(number, "expected 'key: value'")
                key, rest = entry
                if key in node:
                    _fail(number, f"duplicate key {key!r}")
                if rest and rest[0] != "#":
                    node[key], i = self.inline(rest, number), i + 1
                else:
                    node[key], i = self.child(i + 1, indent, items=True)
        if i < len(lines) and lines[i][1] > indent:
            _fail(lines[i][0], "unexpected indentation")
        return node, i

    def child(self, i: int, indent: int, items: bool):
        """The block under a 'key:' or '-' line, or null; a key's sequence may sit at the key's indent."""
        if i < len(self.lines):
            _, child_indent, content = self.lines[i]
            if child_indent > indent or (items and child_indent == indent and _is_item(content)):
                return self.block(i, child_indent)
        return None, i

    def key(self, content: str, number: int):
        """(key, rest of the line) when the line is 'key: ...', else None."""
        if content[0] in "'\"":
            key, end = self.quoted(content, 0, number)
            return None if (match := _KEY_END.match(content, end)) is None else (key, content[match.end() :])
        if content[0] in "[{" or not (match := _KEY.match(content)) or " #" in match[1]:  # a comment
            return None
        if not match[1]:
            _fail(number, "a key cannot be empty")
        return self.plain(match[1], number), content[match.end() :]

    def inline(self, text: str, number: int):
        """A block value or item on one line: a scalar or flow node, then at most a comment."""
        node, end = self.value(text, 0, number, _BLOCK_PLAIN)
        if (rest := text[end:].strip(" ")) and rest[0] != "#":
            _fail(number, f"unexpected {rest!r} after the value")
        return node

    def value(self, text: str, pos: int, number: int, plain: re.Pattern = _FLOW_PLAIN):
        """The scalar or flow node at text[pos:]; returns it and the end of the spaces after it."""
        pos = _SPACES.match(text, pos).end()
        if text[pos : pos + 1] in ("'", '"'):
            node, end = self.quoted(text, pos, number)
        elif text[pos : pos + 1] in ("[", "{"):
            node, end = self.collection(text, pos, number)
        else:
            token = plain.match(text, pos)[0]
            if plain is _FLOW_PLAIN and (not token or token[0] == ":"):
                _fail(number, "expected a value")
            node, end = self.plain(token, number), pos + len(token)
        return node, _SPACES.match(text, end).end()

    def collection(self, text: str, pos: int, number: int):
        """The flow sequence or mapping opening at text[pos], closed on this line; returns (node, end)."""
        opener, close, node = ("[", "]", []) if text[pos] == "[" else ("{", "}", {})
        pos = _SPACES.match(text, pos + 1).end()
        while not text.startswith(close, pos):
            if pos == len(text) or text[pos] == "#":
                _fail(number, f"'{opener}' is not closed on its line")
            item, pos = self.value(text, pos, number)
            if opener == "[":
                node.append(item)
            elif not text.startswith(":", pos):
                _fail(number, "expected ':' after a flow mapping key")
            elif isinstance(item, (list, dict)) or item in node:
                _fail(number, f"duplicate or non-scalar key {item!r}")
            else:
                node[item], pos = self.value(text, pos + 1, number)
            if text.startswith(",", pos):
                pos = _SPACES.match(text, pos + 1).end()
            elif pos < len(text) and not text.startswith((close, "#"), pos):  # the end is met at the loop's head
                _fail(number, f"expected ',' or '{close}'")
        return node, pos + 1

    def quoted(self, text: str, pos: int, number: int):
        if (match := _QUOTED.match(text, pos)) is None:
            _fail(number, "a quoted scalar must close on its line")
        if match[1] is not None:
            return match[1].replace("''", "'"), match.end()
        try:
            return json.loads(match[0]), match.end()
        except ValueError:
            _fail(number, f"a double-quoted scalar takes JSON's escapes only, got {match[0]}")

    def plain(self, text: str, number: int):
        """null, true, false, a decimal number (1e3 included), .nan or [+-].inf, or else a string."""
        text = text.rstrip(" ")
        if text[:1] in _NOT_PLAIN:
            _fail(number, f"{_NOT_PLAIN[text[0]]} are not accepted")
        if text[:2] in ("?", "? "):
            _fail(number, "complex keys are not accepted")
        if text.startswith((",", "]", "}", "#")) or _is_item(text) or ": " in text or text.endswith(":"):
            _fail(number, f"{text!r} is not a plain scalar; quote it")
        if text in _CONSTANTS:
            return _CONSTANTS[text]
        if _INTEGER.fullmatch(text):
            return int(text)
        return float(text) if _FLOAT.fullmatch(text) else text


def _read_yaml(text: str):
    """The tree of a config file; ConfigError "line N: ..." outside the accepted subset."""
    reader = _Reader(text.removeprefix("\ufeff"))  # a byte-order mark is not content
    if not reader.lines:
        return None
    node, i = reader.block(0, reader.lines[0][1])
    if i < len(reader.lines):
        _fail(reader.lines[i][0], "this line does not continue the block above it")
    return node


def load_config(path: str | Path) -> ToolkitConfig:
    """Load and validate a configuration file."""
    path = Path(path)
    try:
        raw = _read_yaml(path.read_text(encoding="utf-8"))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    config = ToolkitConfig(tree=_normalize(raw), source_path=path)
    try:  # what no single leaf shows: the geometry's proportions, a wall-index table's rows
        geometry = config.fiber_geometry()
    except ValueError as exc:
        raise ConfigError(f"fiber: {exc}") from exc
    if isinstance(wall := config.tree["fiber"]["wall_index"], dict) and "sellmeier" in wall:
        _check_sellmeier(geometry, config.tree["scheme"])
    return config


def _check_sellmeier(geometry: FiberGeometry, scheme: dict) -> None:
    """A Sellmeier wall index must be a glass index at the scheme's four wavelengths.

    Constants and tables are checked row by row in SCHEMA; a Sellmeier
    model can only be checked where it is evaluated.
    """
    from csrskit.phasematch import signal_wavelength

    wavelengths = {name: scheme[f"{name}_nm"] for name in ("pump1", "pump2", "probe")}
    with contextlib.suppress(ValueError):  # an infeasible scheme is reported where the scheme is built
        wavelengths["signal"] = signal_wavelength(scheme["probe_nm"], scheme["pump1_nm"], scheme["pump2_nm"])
    for name, nm in wavelengths.items():
        try:
            n = geometry.wall_refractive_index(nm)
            got = repr(n)
        except ZeroDivisionError:
            n, got = math.nan, "a pole"
        except (ValueError, OverflowError):  # the square root of a negative n^2, or a wavelength too large to square
            n, got = math.nan, "no real index"
        if not _glass_index(n):
            where = f"the {name} wavelength {nm!r} nm"
            raise ConfigError(f"fiber.wall_index: the Sellmeier model gives {got} at {where}; it must be in (1, 5]")
