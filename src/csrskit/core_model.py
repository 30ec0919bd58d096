"""Refractive-index physics for gas-filled anti-resonant hollow-core fibers.

Two ingredients make up the effective index of a leaky core mode:

Gas dispersion
    The filling gas contributes n_gas(lambda, p, T) through a two-term
    Sellmeier-style refractivity for n^2 - 1 at reference conditions,
    scaled with relative density (ideal-gas by default, with an optional
    compressibility hook for non-ideal corrections):

        n^2 - 1 = rho_rel * sum_i B_i * l^2 / (l^2 - C_i),   l in um
        rho_rel = (p / p_ref) * (T_ref / T) / Z(p, T)

    Coefficients are calibration inputs supplied by configuration, not
    constants baked into this module.

Waveguide contribution
    Leaky modes of a hollow capillary of radius r follow the Marcatili
    approximation n = 1 - (1/2) (j_{l,m} lambda / 2 pi r)^2, where
    j_{l,m} is the m-th zero of the Bessel function J_l.  For a core
    surrounded by thin glass capillary walls, the Zeisberger tube-fiber
    model adds a wall-reflection correction proportional to
    lambda^3 / r^3 and cot(phi), phi = (2 pi t / lambda) sqrt(n_w^2 -
    n_gas^2), which diverges at the wall resonances

        lambda_m = (2 t / m) sqrt(n_w^2 - 1).

    The analytic model is invalid close to a resonance, so evaluation
    inside a configurable guard band around any lambda_m raises
    ResonanceProximityError instead of returning a garbage number.

Unit conventions used throughout the package: wavelengths in nm,
transverse geometry in um, pressure in bar, temperature in K.  All
functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "MAX_AZIMUTHAL_ORDER",
    "MAX_RADIAL_ORDER",
    "DispersionDomainError",
    "ResonanceProximityError",
    "ModeLabel",
    "LP01",
    "LP11",
    "FiberGeometry",
    "GasDispersion",
    "WallIndexTable",
    "bessel_zero",
    "gas_index",
    "marcatili_mode_index",
    "resonance_wavelengths",
    "transmission_window",
    "weighted_index_curve",
    "core_index_curve",
    "effective_core_index",
]

#: Supported range of mode orders for bessel_zero / ModeLabel.
MAX_AZIMUTHAL_ORDER = 5
MAX_RADIAL_ORDER = 5

#: _BESSEL_ZEROS[l][m - 1] is the m-th positive zero j_{l,m} of J_l, written as
#: the shortest repr of the nearest double.  The tests check every entry for
#: exact equality against a reference zero finder.
_BESSEL_ZEROS = (
    (2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281, 14.930917708487787),
    (3.8317059702075125, 7.015586669815619, 10.173468135062722, 13.323691936314223, 16.470630050877634),
    (5.135622301840683, 8.417244140399866, 11.61984117214906, 14.795951782351262, 17.959819494987826),
    (6.380161895923984, 9.76102312998167, 13.015200721698434, 16.223466160318768, 19.409415226435012),
    (7.588342434503804, 11.064709488501185, 14.37253667161759, 17.615966049804832, 20.826932956962388),
    (8.771483815959954, 12.338604197466944, 15.70017407971167, 18.98013387517992, 22.217799896561267),
)

#: Default relative half-width of the guard band around wall resonances.
DEFAULT_RESONANCE_EXCLUSION = 0.03

INDEX_VARIANTS = ("zeisberger", "marcatili")

_TWO_PI = 2.0 * math.pi
_EIGHT_PI_CUBED = 8.0 * math.pi**3


class DispersionDomainError(ValueError):
    """Wavelength is at or below a pole of the refractivity formula, or the
    gas index reaches the wall index."""


class ResonanceProximityError(ValueError):
    """Wavelength falls inside the guard band around a wall resonance."""


def hash_once(cls):
    """Class decorator for a frozen dataclass: hash the field values once.

    The dataclass hash of the fields is computed on the first hash() call
    and returned from then on, so a value used as a cache key is hashed in
    Python once, not on every lookup.  Equality stays by value, and a
    field holding an unhashable value still fails on the first hash()
    call, not on construction.  The stored hash is left out of the pickled
    and copied state: str hashes are salted per process, so a copy
    computes its own.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def bessel_zero(l: int, m: int) -> float:
    """m-th positive zero of the Bessel function J_l.

    Supported range is 0 <= l <= 5, 1 <= m <= 5; values are read from a
    constant table accurate to well below 1e-10 absolute.
    """
    if not (0 <= l <= MAX_AZIMUTHAL_ORDER):
        raise ValueError(f"azimuthal order l={l} outside supported range 0..{MAX_AZIMUTHAL_ORDER}")
    if not (1 <= m <= MAX_RADIAL_ORDER):
        raise ValueError(f"radial order m={m} outside supported range 1..{MAX_RADIAL_ORDER}")
    return _BESSEL_ZEROS[l][m - 1]


@hash_once
@dataclass(frozen=True)
class ModeLabel:
    """LP_{l,m} mode label: azimuthal order l >= 0, radial order m >= 1."""

    l: int
    m: int

    def __post_init__(self) -> None:
        bessel_zero(self.l, self.m)  # validates the supported range

    @property
    def bessel_zero(self) -> float:
        return bessel_zero(self.l, self.m)

    def __str__(self) -> str:
        return f"LP{self.l}{self.m}"


LP01 = ModeLabel(0, 1)
LP11 = ModeLabel(1, 1)


@hash_once
@dataclass(frozen=True)
class WallIndexTable:
    """Wall-glass index from (lambda_nm, n) rows: linear interpolation,
    clamped to the end rows outside the tabulated range.

    The rows are stored sorted, as a tuple of float pairs, so a table is
    hashable and compares by value.
    """

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        rows = tuple(sorted((float(lam), float(n)) for lam, n in self.rows))
        if not rows:
            raise ValueError("a wall-index table needs at least one row")
        if any(a[0] == b[0] for a, b in zip(rows, rows[1:])):
            raise ValueError("wall-index table wavelengths must be distinct")
        object.__setattr__(self, "rows", rows)

    def __call__(self, wavelength_nm: float) -> float:
        rows = self.rows
        if wavelength_nm <= rows[0][0]:
            return rows[0][1]
        if wavelength_nm >= rows[-1][0]:
            return rows[-1][1]
        for (x0, y0), (x1, y1) in zip(rows, rows[1:]):
            if wavelength_nm <= x1:
                w = (wavelength_nm - x0) / (x1 - x0)
                return y0 + w * (y1 - y0)
        raise ValueError(f"wavelength {wavelength_nm!r} nm cannot be compared with the table")  # nan


#: A wall-glass index model: a constant, a callable lambda_nm -> n (such as a
#: WallIndexTable), or a sequence of (B_i, C_i) Sellmeier pairs (l in um).
WallIndexModel = float | Callable[[float], float] | Sequence


def _evaluate_wall_index(model: WallIndexModel, wavelength_nm: float) -> float:
    if isinstance(model, (int, float)):
        return float(model)
    if callable(model):
        return float(model(wavelength_nm))
    # Sellmeier pairs for n^2 - 1
    l2 = (wavelength_nm * 1e-3) ** 2
    n2m1 = 0.0
    for b, c in model:
        n2m1 += b * l2 / (l2 - c)
    return math.sqrt(1.0 + n2m1)


@hash_once
@dataclass(frozen=True)
class FiberGeometry:
    """Anti-resonant fiber cross-section.

    core_radius_um: hollow core radius r.
    capillary_inner_radius_um: inner radius of one cladding capillary.
    wall_thickness_um: capillary wall (glass membrane) thickness t.
    num_capillaries: number of capillaries surrounding the core.
    wall_index: glass index model for the capillary walls: a constant,
        a sequence of (B_i, C_i) Sellmeier pairs, a WallIndexTable or
        another callable.  Sellmeier pairs are stored as a tuple of
        tuples, so every geometry is hashable and later changes to the
        caller's list do not reach it; a callable must be a pure function
        of the wavelength.
    """

    core_radius_um: float
    capillary_inner_radius_um: float
    wall_thickness_um: float
    num_capillaries: int
    wall_index: WallIndexModel = 1.444

    def __post_init__(self) -> None:
        if not isinstance(self.wall_index, (int, float)) and not callable(self.wall_index):
            object.__setattr__(self, "wall_index", tuple(tuple(row) for row in self.wall_index))
        bad = [
            f"{name} must be positive and finite, got {value!r}"
            for name in ("core_radius_um", "capillary_inner_radius_um", "wall_thickness_um")
            if not 0.0 < (value := getattr(self, name)) < math.inf  # nan included
        ]
        if bad:
            raise ValueError("; ".join(bad))
        if self.num_capillaries < 3:
            raise ValueError("num_capillaries must be >= 3")
        if not self.capillary_inner_radius_um < self.core_radius_um * self.num_capillaries:
            raise ValueError("capillary_inner_radius_um is implausibly large for this core")

    def wall_refractive_index(self, wavelength_nm: float) -> float:
        """Wall glass index at the given vacuum wavelength."""
        return _evaluate_wall_index(self.wall_index, wavelength_nm)


@hash_once
@dataclass(frozen=True)
class GasDispersion:
    """Pressure/temperature-scalable refractive index of the filling gas.

    refractivity_coefficients holds (B_i, C_i) pairs of the two-term
    formula for n^2 - 1 at (reference_pressure_bar, reference_temperature_k),
    with the wavelength in um and C_i in um^2.  compressibility, when
    given, maps (p_bar, T_k) to the compression factor Z and must be a
    pure function; the default is the ideal gas, Z = 1.
    """

    species: str
    refractivity_coefficients: tuple[tuple[float, float], ...]
    reference_pressure_bar: float
    reference_temperature_k: float
    compressibility: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "refractivity_coefficients",
            tuple((float(b), float(c)) for b, c in self.refractivity_coefficients),
        )
        if self.reference_pressure_bar <= 0 or self.reference_temperature_k <= 0:
            raise ValueError("reference conditions must be strictly positive")

    def reference_refractivity(self, wavelength_nm: float) -> float:
        """n^2 - 1 at reference conditions."""
        l2 = (wavelength_nm * 1e-3) ** 2
        total = 0.0
        for b, c in self.refractivity_coefficients:
            if l2 <= c:
                raise DispersionDomainError(
                    f"wavelength {wavelength_nm} nm at or below the {math.sqrt(c) * 1e3:.1f} nm pole"
                )
            total += b * l2 / (l2 - c)
        return total

    def relative_density(self, pressure_bar: float, temperature_k: float) -> float:
        z = 1.0 if self.compressibility is None else self.compressibility(pressure_bar, temperature_k)
        return (pressure_bar / self.reference_pressure_bar) * (self.reference_temperature_k / temperature_k) / z


def gas_index(gas: GasDispersion, wavelength_nm: float, pressure_bar: float, temperature_k: float) -> float:
    """Gas refractive index n(lambda, p, T); exactly 1 at p = 0."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    if not pressure_bar >= 0.0:  # nan included
        raise ValueError("pressure must be non-negative")
    if temperature_k <= 0:
        raise ValueError("temperature must be positive")
    if not temperature_k < math.inf:
        raise ValueError(f"temperature must be finite, got {temperature_k!r}")
    if pressure_bar == 0.0:
        # still surfaces pole errors for invalid wavelengths
        gas.reference_refractivity(wavelength_nm)
        return 1.0
    rho = gas.relative_density(pressure_bar, temperature_k)
    return math.sqrt(1.0 + rho * gas.reference_refractivity(wavelength_nm))


def marcatili_mode_index(wavelength_nm: float, radius_um: float, mode: ModeLabel) -> float:
    """Leaky-mode index of a hollow capillary, 1 - (1/2)(j lambda / 2 pi r)^2.

    Raises ValueError, naming the argument, unless wavelength_nm and
    radius_um are positive and finite.
    """
    if not 0.0 < wavelength_nm < math.inf:  # nan included
        raise ValueError(f"wavelength_nm must be positive and finite, got {wavelength_nm!r}")
    if not 0.0 < radius_um < math.inf:
        raise ValueError(f"radius_um must be positive and finite, got {radius_um!r}")
    u = mode.bessel_zero * (wavelength_nm * 1e-9) / (2.0 * math.pi * radius_um * 1e-6)
    return 1.0 - 0.5 * u * u


def _first_resonance_nm(wall_thickness_um: float, wall_index: float) -> float:
    """lambda_1 = 2t sqrt(n_w^2 - 1) in nm; ValueError, naming the argument, unless 0 < t < inf and 1 < n_w < inf."""
    if not 0.0 < wall_thickness_um < math.inf:  # nan included
        raise ValueError(f"wall_thickness_um must be positive and finite, got {wall_thickness_um!r}")
    if not 1.0 < wall_index < math.inf:
        raise ValueError(f"wall_index must be finite and above 1, got {wall_index!r}")
    return 2.0 * wall_thickness_um * 1e3 * math.sqrt(wall_index**2 - 1.0)


def resonance_wavelengths(wall_thickness_um: float, wall_index: float, m_max: int) -> list[float]:
    """Wall resonance wavelengths lambda_m = (2t/m) sqrt(n_w^2 - 1), in nm.

    Returned in descending order, m = 1..m_max; ValueError names a bad argument.
    """
    lam1_nm = _first_resonance_nm(wall_thickness_um, wall_index)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return [lam1_nm / m for m in range(1, m_max + 1)]


def transmission_window(wavelength_nm: float, wall_thickness_um: float, wall_index: float) -> int:
    """Index of the transmission window containing the given wavelength.

    Window m spans (lambda_m, lambda_{m-1}); window 1 is everything above
    the first resonance.  A wavelength exactly on a resonance is assigned
    to the shorter-wavelength side; use the guard band in
    effective_core_index to reject such points outright.  ValueError names
    a bad argument.
    """
    if not 0.0 < wavelength_nm < math.inf:  # nan included
        raise ValueError(f"wavelength_nm must be positive and finite, got {wavelength_nm!r}")
    return int(math.floor(_first_resonance_nm(wall_thickness_um, wall_index) / wavelength_nm)) + 1


def _check_resonance_proximity(
    wavelength_nm: float, wall_thickness_um: float, wall_index: float, exclusion_rel: float
) -> None:
    lam1_nm = _first_resonance_nm(wall_thickness_um, wall_index)
    m_near = lam1_nm / wavelength_nm
    m_lo, m_hi = math.floor(m_near), math.ceil(m_near)
    # the orders either side of m_near, at least 1; a conditional costs less than max()
    for m in {m_lo if m_lo > 1 else 1, m_hi if m_hi > 1 else 1}:
        lam_m = lam1_nm / m
        if abs(wavelength_nm - lam_m) <= exclusion_rel * lam_m:
            raise ResonanceProximityError(
                f"{wavelength_nm:.2f} nm is within {exclusion_rel:.1%} of the m={m} "
                f"wall resonance at {lam_m:.2f} nm; the analytic index model is invalid there"
            )


def weighted_index_curve(
    geom: FiberGeometry,
    gas: GasDispersion,
    fields: Sequence[tuple[float, float, ModeLabel]],
    temperature_k: float,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> Callable[[float], float]:
    """Weighted sum of core-mode effective indices as a function of pressure (bar).

    fields holds one (weight, wavelength_nm, mode) triple per field; the
    returned function gives sum_i weight_i * n_eff(wavelength_i, mode_i, p),
    with core_index_curve's n_eff written in q = rho (n^2 - 1)_ref, m = 1 + q
    = n_gas^2 and s = sqrt(n_wall^2 - m) = n_gas sqrt(eps - 1):

        n_eff - 1 = q / (1 + n_gas) - (u^2 / 2 + W (n_wall^2 + m) / (2 s tan(k_t s))) / n_gas

    (u = j lambda / 2 pi r, W = j^2 lambda^3 / 8 pi^3 r^3, k_t = 2 pi t /
    lambda).  Both variants return one closure, and the variant, fixed when
    the curve is built, decides whether it adds the W term: "marcatili"
    drops it, so it never takes sqrt(n_wall^2 - m) and returns a value past
    the wall index too.  The weight_i (n_eff_i - 1) are summed in field
    order and the exact sum of the weights is added last: the vacuum part,
    which nearly cancels in a mismatch, adds no rounding.  The guard band
    (ResonanceProximityError; a nan or negative resonance_exclusion_rel is a
    ValueError), wavelength, temperature and pole checks run here, once per
    field.  The returned function checks the pressure, computes the gas
    density once (calling compressibility only above vacuum) and, for
    "zeisberger", raises DispersionDomainError for the first field at or
    above the wall index.
    """
    if variant not in INDEX_VARIANTS:
        raise ValueError(f"unknown index variant {variant!r}; expected one of {INDEX_VARIANTS}")
    if not resonance_exclusion_rel >= 0.0:  # nan included
        raise ValueError(f"resonance_exclusion_rel must be non-negative, got {resonance_exclusion_rel!r}")
    r_m = geom.core_radius_um * 1e-6
    t_m = geom.wall_thickness_um * 1e-6
    terms = []
    walls = []  # (wavelength_nm, n_wall) per field, for the domain error
    for weight, wavelength_nm, mode in fields:
        if not 0.0 < wavelength_nm < math.inf:  # nan included; the guard band divides by it
            raise ValueError(f"wavelength must be positive and finite, got {wavelength_nm!r}")
        n_wall = geom.wall_refractive_index(wavelength_nm)
        _check_resonance_proximity(wavelength_nm, geom.wall_thickness_um, n_wall, resonance_exclusion_rel)
        if temperature_k <= 0:
            raise ValueError("temperature must be positive")
        if not temperature_k < math.inf:
            raise ValueError(f"temperature must be finite, got {temperature_k!r}")
        refractivity = gas.reference_refractivity(wavelength_nm)
        lam_m = wavelength_nm * 1e-9
        j = _BESSEL_ZEROS[mode.l][mode.m - 1]  # ModeLabel checked the orders on construction
        u = j * lam_m / (_TWO_PI * r_m)
        phase_coefficient = _TWO_PI * t_m / lam_m
        wall_prefactor = j**2 * lam_m**3 / (_EIGHT_PI_CUBED * r_m**3)
        terms.append((weight, refractivity, 0.5 * u * u, n_wall**2, phase_coefficient, 0.5 * wall_prefactor))
        walls.append((wavelength_nm, n_wall))
    density_per_bar = gas.reference_temperature_k / temperature_k / gas.reference_pressure_bar
    compressibility = gas.compressibility
    weight_sum = math.fsum(term[0] for term in terms)
    wall_term = variant == "zeisberger"
    sqrt, tan = math.sqrt, math.tan

    def index_sum(pressure_bar: float) -> float:
        if not pressure_bar >= 0.0:  # nan included
            raise ValueError("pressure must be non-negative")
        rho = pressure_bar * density_per_bar
        if compressibility is not None and pressure_bar > 0.0:
            rho = rho / compressibility(pressure_bar, temperature_k)
        total = 0.0
        try:
            for weight, refractivity, half_u2, n_wall2, phase_coefficient, half_prefactor in terms:
                q = rho * refractivity
                m = 1.0 + q
                guided = half_u2
                if wall_term:
                    s = sqrt(n_wall2 - m)
                    guided = half_u2 + half_prefactor * (n_wall2 + m) / (s * tan(phase_coefficient * s))
                n_gas = sqrt(m)
                total += weight * (q / (1.0 + n_gas) - guided / n_gas)
        except (ValueError, ZeroDivisionError):  # s is imaginary or 0 for some field
            for (_, refractivity, _, n_wall2, _, _), (wavelength_nm, n_wall) in zip(terms, walls):
                m = 1.0 + rho * refractivity
                if wall_term and not n_wall2 - m > 0.0:
                    raise DispersionDomainError(
                        f"at {pressure_bar:g} bar the gas index {sqrt(m):.6g} at {wavelength_nm:g} nm reaches the "
                        f"wall index {n_wall:.6g}; the wall model needs the gas index below the wall index"
                    ) from None
            raise
        return total + weight_sum

    return index_sum


def core_index_curve(
    geom: FiberGeometry,
    gas: GasDispersion,
    wavelength_nm: float,
    temperature_k: float,
    mode: ModeLabel = LP01,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> Callable[[float], float]:
    """Effective index of a leaky core mode as a function of pressure (bar).

    variant "zeisberger" includes the thin-wall reflection correction of
    the Zeisberger tube-fiber model (hybrid-mode flavor),

        n_eff = n_gas - (j lambda / 2 pi r)^2 / (2 n_gas)
                - (j^2 lambda^3 / 8 pi^3 r^3) * (eps + 1) / (2 sqrt(eps - 1)) * cot(phi)

    with eps = (n_wall / n_gas)^2 and phi = (2 pi t / lambda)
    sqrt(n_wall^2 - n_gas^2).  variant "marcatili" drops the wall term.
    Callers that persist results should record the variant used.

    This is weighted_index_curve with the one field (1.0, wavelength_nm,
    mode), so its checks run once, here.
    """
    return weighted_index_curve(
        geom, gas, ((1.0, wavelength_nm, mode),), temperature_k, variant, resonance_exclusion_rel
    )


def effective_core_index(
    geom: FiberGeometry,
    gas: GasDispersion,
    wavelength_nm: float,
    pressure_bar: float,
    temperature_k: float,
    mode: ModeLabel = LP01,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> float:
    """Effective index of a leaky core mode at one pressure; see core_index_curve."""
    curve = core_index_curve(geom, gas, wavelength_nm, temperature_k, mode, variant, resonance_exclusion_rel)
    return curve(pressure_bar)
