"""Bend-induced coupling between core and capillary modes.

Bending tilts the effective-index landscape across the fiber cross
section.  A core mode with index n_core resonantly couples to a
capillary (cladding) mode with index n_clad < n_core once the bend
radius shrinks to

    R = d / (sqrt(n_core / n_clad) - 1),

where d is the core-center to capillary distance projected onto the
bend plane.  Both indices come from the capillary approximation
n = 1 - (1/2)(j lambda / 2 pi r)^2 evaluated with the respective radii.
Below R the mode is resonantly drained and effectively unusable; the
worst case is the bend plane aligned with a capillary, d = r_core +
r_capillary (the thin glass wall is neglected, t << r_capillary).

mode_accessibility takes each critical radius from a small cache keyed
by value on (geometry, wavelength, core mode, cladding mode), so a sweep
over bend radii solves each pairing once.  NoResonanceError is not
cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from csrskit.core_model import FiberGeometry, LP01, LP11, ModeLabel, marcatili_mode_index

__all__ = [
    "NoResonanceError",
    "ModeAccess",
    "DEFAULT_CLADDING_PAIRS",
    "EMPIRICAL_LP01_CUTOFF_M",
    "touching_capillary_radius",
    "capillary_center_distance",
    "critical_bend_radius",
    "mode_accessibility",
]


class NoResonanceError(ValueError):
    """No finite bend radius brings the two modes into resonance."""


#: Which cladding modes each core mode is paired against when assessing
#: suppression.  Pairing the fundamental core mode with the LP11-like
#: capillary mode reproduces the observed critical radius; it is a
#: calibration choice and can be overridden per call.
DEFAULT_CLADDING_PAIRS: dict[ModeLabel, tuple[ModeLabel, ...]] = {LP01: (LP11,)}

#: Observed cutoff below which the fundamental core mode of the probe no
#: longer propagates at all, (value, uncertainty) in m.  Reported as an
#: annotation next to the computed resonance radius; the two numbers
#: describe different mechanisms and need not agree.
EMPIRICAL_LP01_CUTOFF_M = (0.10, 0.01)


def touching_capillary_radius(core_radius_um: float, num_capillaries: int) -> float:
    """Inner radius of N identical capillaries mutually tangent around a core.

    Circle-packing geometry: N circles of radius rho on a ring of radius
    r_core + rho touch their neighbours when rho = r_core s / (1 - s),
    s = sin(pi / N).
    """
    if core_radius_um <= 0:
        raise ValueError("core radius must be positive")
    if num_capillaries < 3:
        raise ValueError("need at least 3 capillaries")
    s = math.sin(math.pi / num_capillaries)
    return core_radius_um * s / (1.0 - s)


def capillary_center_distance(
    geom: FiberGeometry, alignment: str = "worst-case", azimuth_rad: float = 0.0
) -> float:
    """Core-center to capillary distance projected onto the bend plane, um.

    Worst case returns d = r_core + r_capillary and ignores the azimuth.
    Angle-resolved returns the largest projection over the capillary ring
    for the given azimuth, which never exceeds the worst case; it raises
    ValueError unless azimuth_rad is finite.
    """
    d = geom.core_radius_um + geom.capillary_inner_radius_um
    if alignment == "worst-case":
        return d
    if alignment != "angle-resolved":
        raise ValueError("alignment must be 'worst-case' or 'angle-resolved'")
    if not math.isfinite(azimuth_rad):
        raise ValueError(f"azimuth_rad must be finite, got {azimuth_rad!r}")
    n = geom.num_capillaries
    return d * max(abs(math.cos(azimuth_rad + 2.0 * math.pi * k / n)) for k in range(n))


def critical_bend_radius(
    geom: FiberGeometry,
    wavelength_nm: float,
    core_mode: ModeLabel = LP01,
    clad_mode: ModeLabel = LP11,
    alignment: str = "worst-case",
    azimuth_rad: float = 0.0,
) -> float:
    """Bend radius at which the core mode index-matches a capillary mode, m.

    Raises NoResonanceError when the pairing has n_core <= n_clad, in
    which case no bend can bring the modes into resonance, and ValueError,
    naming it, unless wavelength_nm is positive and finite.
    """
    n_core = marcatili_mode_index(wavelength_nm, geom.core_radius_um, core_mode)
    n_clad = marcatili_mode_index(wavelength_nm, geom.capillary_inner_radius_um, clad_mode)
    if n_core <= n_clad:
        raise NoResonanceError(
            f"core mode {core_mode} (n = {n_core:.9f}) does not lie above cladding mode "
            f"{clad_mode} (n = {n_clad:.9f}); no resonant bend radius exists"
        )
    d_m = capillary_center_distance(geom, alignment, azimuth_rad) * 1e-6
    return d_m / (math.sqrt(n_core / n_clad) - 1.0)


@dataclass(frozen=True)
class ModeAccess:
    """Accessibility verdict for one core mode at a given bend radius."""

    mode: ModeLabel
    suppressed: bool
    limiting_radius_m: float | None
    critical_radii_m: dict = field(default_factory=dict)
    annotations: tuple[str, ...] = ()


def mode_accessibility(
    geom: FiberGeometry,
    wavelength_nm: float,
    bend_radius_m: float,
    modes: tuple[ModeLabel, ...] = (LP01, LP11),
    cladding_pairs: dict[ModeLabel, tuple[ModeLabel, ...]] | None = None,
    is_probe: bool = False,
    empirical_lp01_cutoff_m: tuple[float, float] = EMPIRICAL_LP01_CUTOFF_M,
) -> list[ModeAccess]:
    """Flag core modes as suppressed or accessible at one bend radius.

    A mode is suppressed when the bend radius lies below the largest
    critical radius produced by pairing it against its configured
    cladding mode set; modes without a configured pairing carry no
    resonance and stay accessible.  For the probe wavelength the
    empirically observed fundamental-mode cutoff is attached as an
    annotation alongside the computed resonance radius.

    Raises ValueError, naming the argument, unless bend_radius_m is
    positive and wavelength_nm positive and finite.  A bend radius of
    +inf, a straight fiber, is valid and suppresses nothing.  Critical
    radii come from a cache keyed by value; every call returns new
    ModeAccess objects, each with its own critical_radii_m dict.
    """
    if not bend_radius_m > 0.0:  # nan included
        raise ValueError(f"bend_radius_m must be positive, got {bend_radius_m!r}")
    if not 0.0 < wavelength_nm < math.inf:
        raise ValueError(f"wavelength_nm must be positive and finite, got {wavelength_nm!r}")
    pairs = DEFAULT_CLADDING_PAIRS if cladding_pairs is None else cladding_pairs
    out: list[ModeAccess] = []
    for mode in modes:
        radii: dict[ModeLabel, float] = {}
        for clad in pairs.get(mode, ()):
            try:
                radii[clad] = _cached_critical_radius(geom, wavelength_nm, mode, clad)
            except NoResonanceError:
                continue
        limiting = max(radii.values()) if radii else None
        suppressed = limiting is not None and bend_radius_m < limiting
        if is_probe and mode == LP01:
            cutoff, err = empirical_lp01_cutoff_m
            notes = (
                f"empirical LP01 cutoff at the probe wavelength: {cutoff:.2f} +/- {err:.2f} m "
                "(measured breakdown radius, distinct from the computed resonance radius)",
            )
        else:
            notes = ()
        out.append(ModeAccess(mode, suppressed, limiting, radii, notes))
    return out


#: (geometry, wavelength, mode pair) keys whose critical radius stays cached;
#: a bend sweep asks for one or two.
_RADIUS_CACHE_SIZE = 32


@lru_cache(maxsize=_RADIUS_CACHE_SIZE)
def _cached_critical_radius(
    geom: FiberGeometry, wavelength_nm: float, core_mode: ModeLabel, clad_mode: ModeLabel
) -> float:
    # a miss calls critical_bend_radius through the module namespace, so a
    # wrapper installed there sees every radius actually computed
    return critical_bend_radius(geom, wavelength_nm, core_mode, clad_mode)
