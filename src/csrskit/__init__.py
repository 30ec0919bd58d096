"""Numerical design toolkit for CW coherent Raman frequency conversion
in gas-filled anti-resonant hollow-core fibers.

The package answers the questions that come up when planning such an
experiment: at which gas pressure does the four-wave mixing process
phase-match, how does conversion efficiency scale with fiber length and
pump power, how tightly can the fiber be coiled before core modes couple
to the cladding capillaries, and which molecular Raman lines of the
filling gas dump parasitic photons into the signal bandpass.  A fitting
module recovers loss and saturation parameters from measured curves, and
a CLI turns configurations into plot-ready CSV tables.
"""

from csrskit.core_model import (
    FiberGeometry,
    GasDispersion,
    LP01,
    LP11,
    ModeLabel,
    bessel_zero,
    core_index_curve,
    effective_core_index,
    gas_index,
    marcatili_mode_index,
    resonance_wavelengths,
    transmission_window,
)
from csrskit.phasematch import (
    ConversionScheme,
    delta_beta,
    mismatch_curve,
    optimal_pressure,
    phase_matching_factor,
    pressure_acceptance,
    raman_beat_thz,
    signal_wavelength,
)
from csrskit.efficiency import (
    EfficiencyModel,
    LightField,
    alpha_linear,
    optimal_length,
    predicted_efficiency,
)

__version__ = "0.1.0"
