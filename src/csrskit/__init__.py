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

__version__ = "0.1.0"
