"""Four-wave-mixing phase matching in a gas-filled hollow-core fiber.

The conversion scheme couples four fields: a long pump (pump1), a short
pump (pump2) whose beat with pump1 drives a Raman coherence, a probe,
and the generated signal.  Energy conservation fixes the signal in
vacuum-wavenumber arithmetic,

    1/lambda_signal = 1/lambda_probe - 1/lambda_pump2 + 1/lambda_pump1,

and momentum conservation defines the mismatch of the propagation
constants beta = (2 pi / lambda) n_eff(p, lambda),

    delta_beta = beta_pump1 - beta_pump2 + beta_probe - beta_signal.

The long pump and the probe enter with +, the short pump and the signal
with -, so the vacuum 2 pi / lambda parts cancel exactly and only gas
and waveguide dispersion remain.  Increasing pressure raises the gas
contribution until it balances the (negative) waveguide contribution;
optimal_pressure locates that root.  Wavenumber (cm^-1) arithmetic is
the internal currency; all wavelengths are vacuum wavelengths in nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from csrskit.core_model import (
    DEFAULT_RESONANCE_EXCLUSION,
    FiberGeometry,
    GasDispersion,
    LP01,
    MAX_AZIMUTHAL_ORDER,
    MAX_RADIAL_ORDER,
    ModeLabel,
    hash_once,
    weighted_index_curve,
)

__all__ = [
    "FIELD_NAMES",
    "InfeasibleSchemeError",
    "SchemeDetuningError",
    "NoRootError",
    "NoSolutionError",
    "NoConvergenceError",
    "ConversionScheme",
    "PressureSolution",
    "AcceptanceWidth",
    "ThicknessSolution",
    "signal_wavelength",
    "raman_beat_thz",
    "mismatch_curve",
    "delta_beta",
    "optimal_pressure",
    "phase_matching_factor",
    "pressure_acceptance",
    "infer_wall_thickness",
]

FIELD_NAMES = ("pump1", "pump2", "probe", "signal")
_SIGNS = {"pump1": +1.0, "pump2": -1.0, "probe": +1.0, "signal": -1.0}
#: Speed of light in vacuum, exact by the SI definition of the metre.
_C_M_PER_S = 299_792_458.0
#: math.inf as a module name: phase_matching_factor checks each table point against it
_INF = math.inf
#: The first positive root of sinc^2(x) = 1/2.
_X_HALF = 1.3915573782515103


class InfeasibleSchemeError(ValueError):
    """The requested wavelength combination has no physical signal."""


class SchemeDetuningError(ValueError):
    """Pump beat is too far from the nominal Raman transition."""


class NoRootError(RuntimeError):
    """The mismatch does not change sign over the supplied bracket."""

    def __init__(self, message: str, lo: float, hi: float, f_lo: float, f_hi: float):
        super().__init__(f"{message}: f({lo:g}) = {f_lo:g}, f({hi:g}) = {f_hi:g}")
        self.lo = lo
        self.hi = hi
        self.f_lo = f_lo
        self.f_hi = f_hi


class NoSolutionError(RuntimeError):
    """An outer inversion problem has no solution inside its bracket."""


class NoConvergenceError(RuntimeError):
    """A bracketed root search used up its iterations before converging."""


def _require_wavelengths(**wavelengths_nm: float) -> None:
    """ValueError naming the first wavelength outside (0, inf); nan is outside too."""
    for name, value in wavelengths_nm.items():
        if not 0.0 < value < _INF:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def signal_wavelength(probe_nm: float, pump1_nm: float, pump2_nm: float) -> float:
    """Signal wavelength in nm from exact vacuum-wavenumber conservation."""
    _require_wavelengths(probe_nm=probe_nm, pump1_nm=pump1_nm, pump2_nm=pump2_nm)
    if 1.0 / pump2_nm < 1.0 / pump1_nm:
        raise InfeasibleSchemeError("pump2 must not be redder than pump1")
    inv_signal = 1.0 / probe_nm - 1.0 / pump2_nm + 1.0 / pump1_nm
    if inv_signal <= 0.0:
        raise InfeasibleSchemeError("scheme yields a non-positive signal wavenumber")
    return 1.0 / inv_signal


def raman_beat_thz(pump1_nm: float, pump2_nm: float) -> float:
    """Pump beat frequency c (1/lambda_pump2 - 1/lambda_pump1), in THz."""
    _require_wavelengths(pump1_nm=pump1_nm, pump2_nm=pump2_nm)
    return _C_M_PER_S * (1.0 / (pump2_nm * 1e-9) - 1.0 / (pump1_nm * 1e-9)) * 1e-12


@hash_once
@dataclass(frozen=True)
class ConversionScheme:
    """The four vacuum wavelengths of one conversion scheme, in nm.

    pump1 is the long pump, pump2 the short pump.  raman_shift_cm1 is the
    wavenumber difference the pumps actually drive (their beat); build
    schemes with from_pumps to have it validated against a nominal
    transition wavenumber.
    """

    pump1_nm: float
    pump2_nm: float
    probe_nm: float
    signal_nm: float
    raman_shift_cm1: float

    def __post_init__(self) -> None:
        _require_wavelengths(
            pump1_nm=self.pump1_nm, pump2_nm=self.pump2_nm, probe_nm=self.probe_nm, signal_nm=self.signal_nm
        )
        if self.signal_nm <= self.probe_nm:
            raise ValueError("signal must be red of the probe (raman_shift_cm1 must be positive)")
        inv_expected = 1.0 / self.probe_nm - self.raman_shift_cm1 * 1e-7
        if not abs(1.0 / self.signal_nm - inv_expected) <= 1e-9 * abs(1.0 / self.signal_nm):  # nan fails too
            raise ValueError("signal_nm inconsistent with probe_nm and raman_shift_cm1")

    @classmethod
    def from_pumps(
        cls,
        probe_nm: float,
        pump1_nm: float,
        pump2_nm: float,
        transition_cm1: float | None = None,
        detuning_tolerance_cm1: float = 5.0,
    ) -> "ConversionScheme":
        """Derive the signal and Raman shift from the pump pair.

        When transition_cm1 is given, the pump beat must match it within
        detuning_tolerance_cm1 or SchemeDetuningError is raised.
        """
        signal_nm = signal_wavelength(probe_nm, pump1_nm, pump2_nm)  # checks the wavelengths first
        shift_cm1 = 1e7 / pump2_nm - 1e7 / pump1_nm
        if transition_cm1 is not None:
            detuning = shift_cm1 - transition_cm1
            if abs(detuning) > detuning_tolerance_cm1:
                raise SchemeDetuningError(
                    f"pump beat {shift_cm1:.2f} cm^-1 is {detuning:+.2f} cm^-1 from the "
                    f"nominal transition at {transition_cm1:.2f} cm^-1 "
                    f"(tolerance {detuning_tolerance_cm1:g} cm^-1)"
                )
        return cls(
            pump1_nm=pump1_nm,
            pump2_nm=pump2_nm,
            probe_nm=probe_nm,
            signal_nm=signal_nm,
            raman_shift_cm1=shift_cm1,
        )

    def wavelengths_nm(self) -> dict[str, float]:
        return {
            "pump1": self.pump1_nm,
            "pump2": self.pump2_nm,
            "probe": self.probe_nm,
            "signal": self.signal_nm,
        }


def mismatch_curve(
    scheme: ConversionScheme,
    temperature_k: float,
    geom: FiberGeometry,
    gas: GasDispersion,
    modes: dict[str, ModeLabel] | ModeLabel | None = None,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> Callable[[float], float]:
    """Phase mismatch of the scheme as a function of pressure (bar), in rad/m.

    All four fields propagate in the fundamental mode unless modes
    supplies per-field overrides ({"pump1": ..., "probe": ...}) or a
    single ModeLabel for all of them.  The mode map and each field's
    pressure-independent index work are validated and computed once,
    here, so a ResonanceProximityError surfaces when the curve is built.

    Curves are cached by value: a later call with equal arguments (an
    equal but distinct geometry included) returns the same curve without
    rebuilding it.  Errors are not cached.  The cache assumes that the
    geometry's wall_index and the gas's compressibility, when callables,
    are pure functions.
    """
    return _mismatch_curve(scheme, temperature_k, geom, gas, _field_modes(modes), variant, resonance_exclusion_rel)


#: Every supported mode label by its (l, m) orders.  Curve-cache keys name
#: modes by these int pairs, which hash in C, and map back through this table
#: instead of building a label on each miss.
_MODE_LABELS = {
    (l, m): ModeLabel(l, m) for l in range(MAX_AZIMUTHAL_ORDER + 1) for m in range(1, MAX_RADIAL_ORDER + 1)
}
_ALL_LP01 = ((LP01.l, LP01.m),) * len(FIELD_NAMES)


def _field_modes(modes: dict[str, ModeLabel] | ModeLabel | None) -> tuple[tuple[int, int], ...]:
    """The (l, m) orders of each field's mode in FIELD_NAMES order; LP01 where modes gives none."""
    if modes is None:
        return _ALL_LP01
    if isinstance(modes, ModeLabel):
        return ((modes.l, modes.m),) * len(FIELD_NAMES)
    unknown = set(modes) - set(FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown field names in mode overrides: {sorted(unknown)}")
    return tuple((mode.l, mode.m) for mode in (modes.get(name, LP01) for name in FIELD_NAMES))


#: Designs whose curves stay cached; a design study works on one at a time.
_CURVE_CACHE_SIZE = 32


@lru_cache(maxsize=_CURVE_CACHE_SIZE)
def _mismatch_curve(
    scheme: ConversionScheme,
    temperature_k: float,
    geom: FiberGeometry,
    gas: GasDispersion,
    field_modes: tuple[tuple[int, int], ...],
    variant: str,
    resonance_exclusion_rel: float,
) -> Callable[[float], float]:
    # each field's index enters with its signed vacuum wavenumber +-2 pi / lambda, in scheme order
    fields = [
        (_SIGNS[name] * (2.0 * math.pi / (lam * 1e-9)), lam, _MODE_LABELS[orders])
        for (name, lam), orders in zip(scheme.wavelengths_nm().items(), field_modes)
    ]
    return weighted_index_curve(geom, gas, fields, temperature_k, variant, resonance_exclusion_rel)


def delta_beta(
    scheme: ConversionScheme,
    pressure_bar: float,
    temperature_k: float,
    geom: FiberGeometry,
    gas: GasDispersion,
    modes: dict[str, ModeLabel] | ModeLabel | None = None,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> float:
    """Phase mismatch of the scheme at one pressure, in rad/m; see mismatch_curve."""
    # mismatch_curve, inlined: a table calls this once per pressure
    field_modes = _ALL_LP01 if modes is None else _field_modes(modes)
    curve = _mismatch_curve(scheme, temperature_k, geom, gas, field_modes, variant, resonance_exclusion_rel)
    return curve(pressure_bar)


def phase_matching_factor(delta_beta_rad_per_m: float, length_m: float) -> float:
    """sinc^2(delta_beta L / 2) with sinc(x) = sin(x)/x, sinc(0) = 1.

    Raises ValueError unless length_m is finite and positive.
    """
    if not 0.0 < length_m < _INF:  # nan included
        raise ValueError(f"length_m must be finite and positive, got {length_m!r}")
    x = 0.5 * delta_beta_rad_per_m * length_m
    if x == 0.0:
        return 1.0
    s = math.sin(x) / x
    return s * s


@dataclass(frozen=True)
class PressureSolution:
    pressure_bar: float
    residual_rad_per_m: float
    iterations: int


@dataclass(frozen=True)
class AcceptanceWidth:
    lower_bar: float | None
    upper_bar: float | None
    width_bar: float
    bounded: bool


@dataclass(frozen=True)
class ThicknessSolution:
    thickness_um: float
    pressure_residual_bar: float
    iterations: int


def _illinois(
    f, a: float, b: float, fa: float, fb: float, xtol: float, ftol: float, what: str, unit: str, max_iter: int = 200
):
    """Root of f in [a, b] by the Illinois method (Dowell & Jarratt, BIT 11, 168 (1971)).

    fa = f(a) and fb = f(b), which the caller has, differ in sign (one may
    be 0).  Each iteration evaluates f once, at the secant point (or the
    midpoint, when that is not strictly inside), and keeps the sign change;
    an end kept twice in a row has its secant value halved.  Stops when
    |f(x)| < ftol or f(x) = 0, collapsing the bracket to x, or when the
    bracket is at most xtol wide, and returns (x, f(x), a, b, iterations).
    Raises NoConvergenceError after max_iter iterations.
    """
    negative_at_a = fa < 0.0 or fb > 0.0  # a 0 at a takes the sign opposite to b's
    moved = None  # the end the last iteration moved, "a" or "b"
    x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    iterations = 0
    while b - a > xtol:
        if iterations == max_iter:
            raise NoConvergenceError(
                f"{what} not converged after {max_iter} iterations: bracket [{a:.17g}, {b:.17g}] {unit}, "
                f"f({x:.17g}) = {fx:.3g} (tolerance {ftol:g})"
            )
        iterations += 1
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) < ftol or fx == 0.0:
            return x, fx, x, x, iterations
        if (fx < 0.0) == negative_at_a:
            a, fa = x, fx
            if moved == "a":
                fb *= 0.5
            moved = "a"
        else:
            b, fb = x, fx
            if moved == "b":
                fa *= 0.5
            moved = "b"
    return x, fx, a, b, iterations


def _pressure_root(mismatch, p_lo: float, p_hi: float, ftol: float) -> PressureSolution:
    """Root of mismatch in [p_lo, p_hi] to |mismatch| < ftol or a few ulps; NoRootError without a sign change."""
    f_lo, f_hi = mismatch(p_lo), mismatch(p_hi)
    if not f_lo * f_hi < 0.0:
        raise NoRootError("no sign change of delta_beta over the bracket", p_lo, p_hi, f_lo, f_hi)
    xtol = max(1e-15, 1e-14 * p_hi)  # a few ulps
    root, residual, _, _, iterations = _illinois(mismatch, p_lo, p_hi, f_lo, f_hi, xtol, ftol, "delta_beta", "bar")
    return PressureSolution(pressure_bar=root, residual_rad_per_m=residual, iterations=iterations)


def optimal_pressure(
    scheme: ConversionScheme,
    temperature_k: float,
    geom: FiberGeometry,
    gas: GasDispersion,
    bracket: tuple[float, float] = (1.0, 200.0),
    ftol_rad_per_m: float = 1e-6,
    modes: dict[str, ModeLabel] | ModeLabel | None = None,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> PressureSolution:
    """Pressure at which the scheme phase-matches (delta_beta = 0).

    NoRootError, with the end values, unless the mismatch changes sign over
    the bracket.  The Illinois method polishes the root to |delta_beta| <
    ftol_rad_per_m (or a bracket a few ulps wide), or raises
    NoConvergenceError; iterations counts the evaluations after the two at
    the ends.  ValueError, naming the argument, unless the bracket is finite
    with 0 <= p_lo < p_hi and ftol_rad_per_m is finite and positive.
    """
    p_lo, p_hi = bracket
    if not 0.0 <= p_lo < p_hi < _INF:  # nan included
        raise ValueError(f"bracket must satisfy 0 <= p_lo < p_hi and be finite, got {tuple(bracket)!r}")
    if not 0.0 < ftol_rad_per_m < _INF:
        raise ValueError(f"ftol_rad_per_m must be finite and positive, got {ftol_rad_per_m!r}")
    mismatch = mismatch_curve(scheme, temperature_k, geom, gas, modes, variant, resonance_exclusion_rel)
    return _pressure_root(mismatch, p_lo, p_hi, ftol_rad_per_m)


def pressure_acceptance(
    scheme: ConversionScheme,
    temperature_k: float,
    geom: FiberGeometry,
    gas: GasDispersion,
    length_m: float,
    p_opt_bar: float,
    scan_limits: tuple[float, float] | None = None,
    modes: dict[str, ModeLabel] | ModeLabel | None = None,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> AcceptanceWidth:
    """Full pressure width over which sinc^2(delta_beta L / 2) >= 1/2.

    The factor is 1/2 where |delta_beta| = 2 x_half / L.  delta_beta is
    taken to be monotone in pressure, as this model's mismatch is, so the
    factor stays >= 1/2 out to a side's scan limit exactly when it is >= 1/2
    at the limit; such a side is unbounded (width_bar = inf, bounded =
    False).  Otherwise the edge is the one root of delta_beta(p) -
    copysign(2 x_half / L, delta_beta(limit)) between p_opt_bar and the
    limit, found by the Illinois method from the two values in hand to a
    residual under 1e-9 rad/m or a bracket a few ulps wide.  When
    |delta_beta(p_opt_bar)| already exceeds 2 x_half / L, both edges are
    p_opt_bar.

    Raises ValueError, naming the argument, unless length_m is finite and
    positive, and p_opt_bar and both scan limits are finite with 0 <=
    scan_limits[0] <= p_opt_bar <= scan_limits[1].
    """
    if not (math.isfinite(length_m) and length_m > 0.0):
        raise ValueError(f"length_m must be finite and positive, got {length_m!r}")
    if not math.isfinite(p_opt_bar):
        raise ValueError(f"p_opt_bar must be finite, got {p_opt_bar!r}")
    if scan_limits is None:
        scan_limits = (0.0, 3.0 * p_opt_bar + 10.0)
    p_min, p_max = scan_limits
    if not (math.isfinite(p_min) and math.isfinite(p_max) and 0.0 <= p_min <= p_opt_bar <= p_max):
        raise ValueError(
            f"scan_limits must be finite with 0 <= scan_limits[0] <= p_opt_bar <= scan_limits[1], "
            f"got {tuple(scan_limits)!r} around p_opt_bar = {p_opt_bar!r}"
        )
    mismatch = mismatch_curve(scheme, temperature_k, geom, gas, modes, variant, resonance_exclusion_rel)
    d_opt = mismatch(p_opt_bar)
    half_width = 2.0 * _X_HALF / length_m  # the |delta_beta| where the factor is 1/2

    def edge(limit: float) -> float | None:
        if abs(d_opt) > half_width:  # p_opt is not a valid maximum for this length
            return p_opt_bar
        if limit == p_opt_bar:  # a side of zero span
            return None
        d_limit = mismatch(limit)
        if abs(d_limit) <= half_width:  # the factor is >= 1/2 out to the limit
            return None
        target = math.copysign(half_width, d_limit)
        (a, fa), (b, fb) = sorted([(p_opt_bar, d_opt - target), (limit, d_limit - target)])
        xtol = max(1e-15, 1e-14 * b)  # a few ulps
        return _illinois(lambda p: mismatch(p) - target, a, b, fa, fb, xtol, 1e-9, "acceptance edge", "bar")[0]

    lower = edge(p_min)
    upper = edge(p_max)
    bounded = lower is not None and upper is not None
    width = (upper - lower) if bounded else math.inf
    return AcceptanceWidth(lower_bar=lower, upper_bar=upper, width_bar=width, bounded=bounded)


#: Iteration cap of the wall-thickness search, which takes ~6 near the shipped design.
_MAX_THICKNESS_ITERATIONS = 100


def infer_wall_thickness(
    p_opt_measured_bar: float,
    scheme: ConversionScheme,
    temperature_k: float,
    geom: FiberGeometry,
    gas: GasDispersion,
    thickness_bracket_um: tuple[float, float],
    pressure_bracket: tuple[float, float] = (1.0, 200.0),
    thickness_tol_um: float = 1e-5,
    modes: dict[str, ModeLabel] | ModeLabel | None = None,
    variant: str = "zeisberger",
    resonance_exclusion_rel: float = DEFAULT_RESONANCE_EXCLUSION,
) -> ThicknessSolution:
    """Capillary wall thickness that reproduces a measured optimal pressure p_m.

    The thickness t of geom is the root of t -> delta_beta(p_m; t) in
    thickness_bracket_um, by the Illinois method to a bracket at most
    thickness_tol_um wide, whose midpoint t* is returned with the number of
    iterations (one uncached curve build and one evaluation each) and
    pressure_residual_bar = p_opt(t*) - p_m, p_opt solved over
    pressure_bracket as optimal_pressure does by default.  This premises
    that delta_beta rises monotonically with pressure, as this model's
    mismatch does: then p_opt(t) = p_m exactly where delta_beta(p_m; t) = 0.

    When p_m lies outside pressure_bracket or delta_beta(p_m; t) does not
    change sign over the thickness bracket, p_opt is solved at both ends and
    NoSolutionError reports the two pressures or the error of that solve, as
    it reports a failure at a bracket end or the iteration cap running out;
    a ResonanceProximityError inside the bracket propagates.  Raises
    ValueError, naming the argument and before any solve, unless
    thickness_bracket_um is finite with 0 < t_lo < t_hi, p_opt_measured_bar
    is finite, thickness_tol_um is finite and positive and both
    pressure_bracket ends are finite.
    """

    def mismatch(t_um: float):
        geom_t = replace(geom, wall_thickness_um=t_um)
        return _mismatch_curve.__wrapped__(
            scheme, temperature_k, geom_t, gas, field_modes, variant, resonance_exclusion_rel
        )

    def p_opt(t_um: float) -> float:
        return _pressure_root(mismatch(t_um), p_lo, p_hi, 1e-6).pressure_bar

    t_lo, t_hi = thickness_bracket_um
    if not 0.0 < t_lo < t_hi < _INF:  # nan included
        raise ValueError(
            f"thickness_bracket_um must be finite with 0 < t_lo < t_hi, got {tuple(thickness_bracket_um)!r}"
        )
    if not math.isfinite(p_opt_measured_bar):
        raise ValueError(f"p_opt_measured_bar must be finite, got {p_opt_measured_bar!r}")
    if not 0.0 < thickness_tol_um < _INF:
        raise ValueError(f"thickness_tol_um must be finite and positive, got {thickness_tol_um!r}")
    p_lo, p_hi = pressure_bracket
    if not (math.isfinite(p_lo) and math.isfinite(p_hi)):
        raise ValueError(f"pressure_bracket must be finite, got {tuple(pressure_bracket)!r}")
    try:
        # optimal_pressure's argument checks, made once for every thickness
        if not (0.0 <= p_lo < p_hi):
            raise ValueError("bracket must satisfy 0 <= p_lo < p_hi")
        field_modes = _field_modes(modes)
        d_lo = d_hi = 0.0
        if p_lo <= p_opt_measured_bar <= p_hi:
            d_lo, d_hi = mismatch(t_lo)(p_opt_measured_bar), mismatch(t_hi)(p_opt_measured_bar)
        if not d_lo * d_hi < 0.0:  # only for the diagnostics
            p_at_lo, p_at_hi = p_opt(t_lo), p_opt(t_hi)
    except Exception as exc:
        raise NoSolutionError(f"optimal_pressure failed at a thickness bracket endpoint: {exc}") from exc
    if not d_lo * d_hi < 0.0:
        raise NoSolutionError(
            f"measured pressure {p_opt_measured_bar:g} bar is not bracketed: "
            f"p_opt({t_lo:g} um) = {p_at_lo:.3f} bar, p_opt({t_hi:g} um) = {p_at_hi:.3f} bar"
        )
    try:
        _, _, a, b, iterations = _illinois(
            lambda t_um: mismatch(t_um)(p_opt_measured_bar), t_lo, t_hi, d_lo, d_hi, thickness_tol_um, 0.0,
            "wall thickness", "um", max_iter=_MAX_THICKNESS_ITERATIONS,
        )  # fmt: skip
    except NoConvergenceError as exc:
        raise NoSolutionError(str(exc)) from exc
    t_star = 0.5 * (a + b)
    residual = p_opt(t_star) - p_opt_measured_bar
    return ThicknessSolution(thickness_um=t_star, pressure_residual_bar=residual, iterations=iterations)
