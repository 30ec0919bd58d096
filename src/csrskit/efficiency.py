"""Conversion-efficiency model with attenuation corrections.

The undepleted-pump efficiency of the four-wave mixing process scales as

    eta = C * P_pump1 * P_pump2 * L^2 * sinc^2(delta_beta L / 2)

with the lumped coefficient C in % / (W^2 m^2) absorbing the nonlinear
susceptibility, mode area and driving-field factors.  The functions here
give eta at delta_beta = 0; a mismatch is applied by multiplying by
phasematch.phase_matching_factor(delta_beta, L).  Three loss variants
refine the L^2 envelope:

lossless
    eta = C P1 P2 L^2, no attenuation at all.
lumped-exponential
    the lossless value times exp(-(a1 + a2 + ap + as) L), all four
    linear attenuation coefficients applied to the full length.
amplitude-integral
    eta = C P1 P2 e^{-as L} [(1 - e^{-aL}) / a]^2 with
    a = (a1 + a2 + ap - as) / 2, i.e. the coherent growth integral of
    the signal amplitude under exponentially decaying drive; recovers
    L^2 as a -> 0.

Powers are multiplied by their incoupling fractions before use.
Efficiencies are returned as fractions; a result above 1 signals that
the undepleted-pump assumption broke down and raises a
ModelValidityWarning rather than being clamped.

A LightField converts its attenuation to 1/m and applies its incoupling
once, when it is built, and an EfficiencyModel converts its signal
attenuation once; the per-length entry points read those stored values,
so a sweep over lengths makes no dB conversion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

__all__ = [
    "LOSS_VARIANTS",
    "ModelValidityWarning",
    "UnboundedOptimumError",
    "LightField",
    "EfficiencyModel",
    "LengthOptimum",
    "LossBookkeeping",
    "alpha_linear",
    "predicted_efficiency",
    "optimal_length",
    "loss_bookkeeping",
]

LOSS_VARIANTS = ("lossless", "lumped-exponential", "amplitude-integral")

_LN10 = math.log(10.0)


class ModelValidityWarning(UserWarning):
    """Predicted efficiency left the regime where the model is valid."""


class UnboundedOptimumError(RuntimeError):
    """Efficiency has no interior maximum over fiber length."""


def alpha_linear(alpha_db_per_m: float) -> float:
    """Convert a power attenuation from dB/m to 1/m.

    Raises ValueError unless alpha_db_per_m is finite and non-negative.
    """
    if not 0.0 <= alpha_db_per_m < math.inf:  # nan included
        raise ValueError(f"alpha_db_per_m must be non-negative and finite, got {alpha_db_per_m!r}")
    return alpha_db_per_m * _LN10 / 10.0


class _DerivedState:
    """Base of a frozen dataclass whose __post_init__ also stores values
    derived from the fields, as non-field attributes.

    Equality, hash and repr read only the fields.  The pickled and copied
    state holds only the fields too, as it did before any value was
    stored, and loading it runs __post_init__ again, so a copy checks and
    derives its own values and a pickle written without them still loads.
    """

    def __getstate__(self) -> dict:
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()


@dataclass(frozen=True)
class LightField(_DerivedState):
    """One beam: vacuum wavelength, launched power, loss and incoupling.

    coupled_power_w, the power inside the fiber (power_w * incoupling), is
    stored when the field is built, as is the attenuation in 1/m.
    """

    wavelength_nm: float
    power_w: float
    attenuation_db_per_m: float = 0.0
    incoupling: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.wavelength_nm < math.inf:
            raise ValueError(f"wavelength_nm must be positive and finite, got {self.wavelength_nm!r}")
        if not 0.0 <= self.power_w < math.inf:
            raise ValueError(f"power_w must be non-negative and finite, got {self.power_w!r}")
        if not 0.0 <= self.attenuation_db_per_m < math.inf:
            raise ValueError(f"attenuation_db_per_m must be non-negative and finite, got {self.attenuation_db_per_m!r}")
        if not 0.0 <= self.incoupling <= 1.0:
            raise ValueError("incoupling must lie in [0, 1]")
        object.__setattr__(self, "coupled_power_w", self.power_w * self.incoupling)
        object.__setattr__(self, "_alpha_per_m", alpha_linear(self.attenuation_db_per_m))


@dataclass(frozen=True)
class EfficiencyModel(_DerivedState):
    """Lumped coefficient C in % / (W^2 m^2), loss variant, signal loss.

    C as a fraction (C / 100) and the signal attenuation in 1/m are stored
    when the model is built.
    """

    coefficient_pct_per_w2m2: float
    loss_variant: str = "lumped-exponential"
    signal_attenuation_db_per_m: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.coefficient_pct_per_w2m2 < math.inf:
            raise ValueError(
                f"coefficient_pct_per_w2m2 must be positive and finite, got {self.coefficient_pct_per_w2m2!r}"
            )
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.loss_variant!r}; expected one of {LOSS_VARIANTS}")
        if not 0.0 <= self.signal_attenuation_db_per_m < math.inf:
            raise ValueError(
                f"signal_attenuation_db_per_m must be non-negative and finite, got {self.signal_attenuation_db_per_m!r}"
            )
        object.__setattr__(self, "_fraction_per_w2m2", self.coefficient_pct_per_w2m2 / 100.0)
        object.__setattr__(self, "_signal_alpha_per_m", alpha_linear(self.signal_attenuation_db_per_m))


def _efficiency(
    model: EfficiencyModel, p1_w: float, p2_w: float, a1: float, a2: float, ap: float, length_m: float
) -> float:
    """The model's loss-variant formula on linear attenuations (1/m) of the
    two pumps and the probe; the model holds the signal's.  The one length
    check of the module."""
    if not 0.0 < length_m < math.inf:
        raise ValueError(f"length_m must be positive and finite, got {length_m!r}")
    base = model._fraction_per_w2m2 * p1_w * p2_w
    variant = model.loss_variant
    if variant == "lossless":
        return base * length_m**2
    a_s = model._signal_alpha_per_m
    if variant == "lumped-exponential":
        return base * length_m**2 * math.exp(-(a1 + a2 + ap + a_s) * length_m)
    # amplitude-integral
    a = 0.5 * (a1 + a2 + ap - a_s)
    growth = length_m if a == 0.0 else -math.expm1(-a * length_m) / a
    return base * math.exp(-a_s * length_m) * growth**2


def _warn_above_unity(eta: float) -> None:
    """Raise the ModelValidityWarning of an efficiency above 1, attributed to
    the caller of the public function that calls this."""
    warnings.warn(
        f"predicted efficiency {eta:.3g} exceeds 1; the undepleted-pump model is "
        "not valid at this operating point",
        ModelValidityWarning,
        stacklevel=3,
    )


def predicted_efficiency(
    model: EfficiencyModel,
    pump1: LightField,
    pump2: LightField,
    probe: LightField,
    length_m: float,
) -> float:
    """Conversion efficiency (fraction) at delta_beta = 0 for the configured loss variant.

    Warns with ModelValidityWarning when the result exceeds 1; the value
    is returned unclamped so the breakdown is visible to the caller.
    Raises ValueError unless length_m is positive and finite.
    """
    eta = _efficiency(
        model,
        pump1.coupled_power_w,
        pump2.coupled_power_w,
        pump1._alpha_per_m,
        pump2._alpha_per_m,
        probe._alpha_per_m,
        length_m,
    )
    if eta > 1.0:
        _warn_above_unity(eta)
    return eta


@dataclass(frozen=True)
class LengthOptimum:
    length_m: float
    efficiency: float


def optimal_length(
    model: EfficiencyModel,
    pump1: LightField,
    pump2: LightField,
    probe: LightField,
) -> LengthOptimum:
    """Fiber length maximizing the predicted efficiency, in closed form.

    With linear attenuations a1, a2, ap (the beams) and as (the signal):
    lumped-exponential L* = 2 / (a1 + a2 + ap + as); amplitude-integral
    L* = ln(1 + 2a/as) / a with a = (a1 + a2 + ap - as) / 2, and 2/as at
    a = 0.  Raises UnboundedOptimumError when the configured variant has
    no interior maximum (lossless always grows; lumped-exponential with
    zero total attenuation; amplitude-integral without signal loss or
    without drive loss saturates or grows monotonically), and
    OverflowError when the attenuations are so small that the optimum
    length or its efficiency is too large for a float.
    """
    a1, a2, ap = pump1._alpha_per_m, pump2._alpha_per_m, probe._alpha_per_m
    a_s = model._signal_alpha_per_m
    if model.loss_variant == "lossless":
        raise UnboundedOptimumError("lossless efficiency grows quadratically without bound")
    if model.loss_variant == "lumped-exponential":
        total = a1 + a2 + ap + a_s
        if total == 0.0:
            raise UnboundedOptimumError("zero total attenuation leaves the optimum length unbounded")
        length = 2.0 / total
    elif a_s == 0.0 or a1 + a2 + ap == 0.0:
        raise UnboundedOptimumError(
            "amplitude-integral variant needs both signal and drive attenuation for an interior optimum"
        )
    else:
        a = 0.5 * (a1 + a2 + ap - a_s)
        length = 2.0 / a_s if a == 0.0 else math.log1p(2.0 * a / a_s) / a
    if not math.isfinite(length):
        raise OverflowError("the optimum length overflows")
    efficiency = _efficiency(model, pump1.coupled_power_w, pump2.coupled_power_w, a1, a2, ap, length)
    return LengthOptimum(length_m=length, efficiency=efficiency)


@dataclass(frozen=True)
class LossBookkeeping:
    """Reconciliation of the length-squared coefficient with a measured
    per-W^2 efficiency at one length, under the lumped-exponential model."""

    total_attenuation_db_per_m: float
    signal_attenuation_db_per_m: float
    length_m: float
    survival_fraction: float


def loss_bookkeeping(
    coefficient_pct_per_w2m2: float,
    per_w2_pct: float,
    length_m: float,
    alpha_pump1_db: float,
    alpha_pump2_db: float,
    alpha_probe_db: float,
) -> LossBookkeeping:
    """Derive the total and signal attenuation implied by two fit results.

    Solves exp(-alpha_total_linear * L) = per_w2 / (C * L^2) for the total
    attenuation, then attributes to the signal whatever the three
    measured beam losses do not account for.  Raises ValueError, naming
    the argument, unless the coefficient, per_w2_pct and length_m are
    positive and finite and the three beam attenuations are finite.
    """
    for name, value in (
        ("coefficient_pct_per_w2m2", coefficient_pct_per_w2m2),
        ("per_w2_pct", per_w2_pct),
        ("length_m", length_m),
    ):
        if not 0.0 < value < math.inf:  # nan included
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    for name, value in (
        ("alpha_pump1_db", alpha_pump1_db),
        ("alpha_pump2_db", alpha_pump2_db),
        ("alpha_probe_db", alpha_probe_db),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    survival = per_w2_pct / (coefficient_pct_per_w2m2 * length_m**2)
    if survival == 0.0:
        raise ValueError("per_w2_pct / (coefficient_pct_per_w2m2 * length_m^2) underflows to 0")
    total_linear = -math.log(survival) / length_m
    total_db = total_linear * 10.0 / _LN10
    return LossBookkeeping(
        total_attenuation_db_per_m=total_db,
        signal_attenuation_db_per_m=total_db - (alpha_pump1_db + alpha_pump2_db + alpha_probe_db),
        length_m=length_m,
        survival_fraction=survival,
    )
