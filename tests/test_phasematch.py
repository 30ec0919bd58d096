import dataclasses
import math
import random
import statistics
import sys
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_M_PER_S

from csrskit import core_model, phasematch
from csrskit.config import load_config
from csrskit.core_model import (
    LP01,
    LP11,
    DispersionDomainError,
    FiberGeometry,
    GasDispersion,
    ModeLabel,
    ResonanceProximityError,
    core_index_curve,
    effective_core_index,
    gas_index,
    marcatili_mode_index,
)
from csrskit.phasematch import (
    AcceptanceWidth,
    ConversionScheme,
    InfeasibleSchemeError,
    NoConvergenceError,
    NoRootError,
    NoSolutionError,
    SchemeDetuningError,
    delta_beta,
    infer_wall_thickness,
    mismatch_curve,
    optimal_pressure,
    phase_matching_factor,
    pressure_acceptance,
    raman_beat_thz,
    signal_wavelength,
)
from tests.conftest import H2_COEFFICIENTS, REFERENCE_EXCLUSION, REPO_ROOT

T_K = 293.0


def degenerate_scheme() -> ConversionScheme:
    # pump1 equals the signal and pump2 equals the probe, so all four
    # propagation constants cancel pairwise
    shift = (1.0 / 914.0 - 1.0 / 1474.0) * 1e7
    return ConversionScheme(
        pump1_nm=1474.0, pump2_nm=914.0, probe_nm=914.0, signal_nm=1474.0, raman_shift_cm1=shift
    )


class TestSignalWavelength:
    def test_reference_scheme(self):
        # oracle: plain vacuum-wavenumber arithmetic
        expected = 1.0 / (1.0 / 914.0 - 1.0 / 942.0 + 1.0 / 1550.0)
        got = signal_wavelength(914.0, 1550.0, 942.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(1475.6, abs=0.05)

    def test_zero_shift_returns_probe(self):
        assert signal_wavelength(914.0, 1200.0, 1200.0) == pytest.approx(914.0, rel=1e-15)

    def test_probe_at_short_pump(self):
        # probing with the short pump itself still lands in the same band
        got = signal_wavelength(942.0, 1550.0, 942.0)
        assert got == pytest.approx(1550.0, rel=1e-12)

    @given(
        probe=st.floats(min_value=500.0, max_value=1200.0),
        pump1=st.floats(min_value=1300.0, max_value=1700.0),
        pump2=st.floats(min_value=900.0, max_value=1100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_wavenumber_conservation(self, probe, pump1, pump2):
        signal = signal_wavelength(probe, pump1, pump2)
        lhs = 1.0 / pump1 + 1.0 / probe
        rhs = 1.0 / pump2 + 1.0 / signal
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_infeasible_combinations(self):
        with pytest.raises(InfeasibleSchemeError):
            signal_wavelength(914.0, 942.0, 1550.0)  # pump2 redder than pump1
        with pytest.raises(InfeasibleSchemeError):
            signal_wavelength(50000.0, 10000.0, 500.0)  # shift exceeds probe energy


class TestRamanBeat:
    def test_speed_of_light_equals_scipy(self):
        assert phasematch._C_M_PER_S == C_M_PER_S

    def test_reference_pumps(self):
        expected = C_M_PER_S * (1.0 / 942e-9 - 1.0 / 1550e-9) * 1e-12
        assert raman_beat_thz(1550.0, 942.0) == pytest.approx(expected, rel=1e-15)
        assert raman_beat_thz(1550.0, 942.0) == pytest.approx(124.8, abs=0.05)

    def test_equal_pumps(self):
        assert raman_beat_thz(1064.0, 1064.0) == 0.0

    def test_octave_pair(self):
        assert raman_beat_thz(1550.0, 775.0) == pytest.approx(C_M_PER_S / 1550e-9 * 1e-12, rel=1e-14)
        assert raman_beat_thz(1550.0, 775.0) == pytest.approx(193.4, abs=0.05)


class TestConversionScheme:
    def test_from_pumps_derives_consistent_scheme(self, reference_scheme):
        s = reference_scheme
        assert s.signal_nm == pytest.approx(1475.618, abs=1e-3)
        assert s.raman_shift_cm1 == pytest.approx(1e7 / 942.0 - 1e7 / 1550.0, rel=1e-15)
        assert 1.0 / s.signal_nm == pytest.approx(1.0 / s.probe_nm - s.raman_shift_cm1 * 1e-7, rel=1e-12)

    def test_detuning_tolerance(self):
        # the rounded 1550/942 pump pair beats 8.85 cm^-1 above the nominal
        # transition, outside the 5 cm^-1 default
        with pytest.raises(SchemeDetuningError):
            ConversionScheme.from_pumps(914.0, 1550.0, 942.0, transition_cm1=4155.25)
        s = ConversionScheme.from_pumps(
            914.0, 1550.0, 942.0, transition_cm1=4155.25, detuning_tolerance_cm1=10.0
        )
        assert s.raman_shift_cm1 - 4155.25 == pytest.approx(8.85, abs=0.01)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, 0.0, -914.0])
    @pytest.mark.parametrize("name", ["probe_nm", "pump1_nm", "pump2_nm"])
    def test_from_pumps_names_a_bad_wavelength(self, name, wavelength):
        # nan gave a nan signal and inf a finite 30 749.6 nm one; with a transition, inf was a detuning error
        kwargs = {"probe_nm": 914.0, "pump1_nm": 1550.0, "pump2_nm": 942.0, name: wavelength}
        for transition in (None, 4155.25):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {wavelength!r}"):
                ConversionScheme.from_pumps(**kwargs, transition_cm1=transition)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf])
    def test_raman_beat_names_a_non_finite_pump(self, wavelength):
        # raman_beat_thz(inf, 942) gave 318.25 THz
        with pytest.raises(ValueError, match=f"^pump1_nm must be positive and finite, got {wavelength!r}"):
            raman_beat_thz(wavelength, 942.0)
        with pytest.raises(ValueError, match=f"^pump2_nm must be positive and finite, got {wavelength!r}"):
            raman_beat_thz(1550.0, wavelength)

    def test_direct_construction_rejects_non_finite_values(self, reference_scheme):
        with pytest.raises(ValueError, match="^signal_nm must be positive and finite, got nan"):
            dataclasses.replace(reference_scheme, signal_nm=math.nan)
        with pytest.raises(ValueError, match="^signal_nm inconsistent"):
            dataclasses.replace(reference_scheme, raman_shift_cm1=math.nan)

    def test_direct_construction_must_be_consistent(self):
        with pytest.raises(ValueError):
            ConversionScheme(1550.0, 942.0, 914.0, 1480.0, 4164.1)
        with pytest.raises(ValueError):
            ConversionScheme(1550.0, 942.0, 914.0, 900.0, (1e7 / 914 - 1e7 / 900))  # signal blue of probe


class TestPropagationConstant:
    """beta = (2 pi / lambda) n_eff, from effective_core_index."""

    @staticmethod
    def beta(lam, p, geom, gas, **kwargs):
        return 2.0 * math.pi / (lam * 1e-9) * effective_core_index(geom, gas, lam, p, T_K, **kwargs)

    def test_vacuum_limit(self, h2_gas):
        # enormous core: waveguide term negligible, beta -> 2 pi / lambda
        huge = FiberGeometry(1e6, 10.0, 1.28, 7, 1.444)
        beta = self.beta(1550.0, 0.0, huge, h2_gas, variant="marcatili")
        assert beta == pytest.approx(2.0 * math.pi / 1550e-9, rel=1e-12)

    def test_compositional_oracle(self, fiber_geom, h2_gas):
        # marcatili: n_eff = n_gas - (1 - n_capillary) / n_gas, from the two per-call forms
        lam, p = 1550.0, 50.0
        n_gas = gas_index(h2_gas, lam, p, T_K)
        n_capillary = marcatili_mode_index(lam, fiber_geom.core_radius_um, LP01)
        beta = self.beta(lam, p, fiber_geom, h2_gas, variant="marcatili")
        assert beta == pytest.approx(2.0 * math.pi / (lam * 1e-9) * (n_gas - (1.0 - n_capillary) / n_gas), rel=1e-15)
        assert beta > 0

    def test_monotone_in_pressure(self, fiber_geom, h2_gas):
        betas = [self.beta(1550.0, p, fiber_geom, h2_gas) for p in (0.0, 20.0, 60.0, 120.0)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))


class TestDeltaBeta:
    def test_degenerate_scheme_cancels_exactly(self, fiber_geom, h2_gas):
        db = delta_beta(
            degenerate_scheme(), 30.0, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        assert db == 0.0

    def test_vacuum_mismatch_closed_form(self, fiber_geom, h2_gas, reference_scheme):
        # at p = 0 (marcatili variant) only the waveguide term survives:
        # delta_beta = -(j01^2 / 4 pi r^2) (l_p1 - l_p2 + l_pr - l_s)
        s = reference_scheme
        j01 = LP01.bessel_zero
        comb_m = (s.pump1_nm - s.pump2_nm + s.probe_nm - s.signal_nm) * 1e-9
        expected = -(j01**2 / (4.0 * math.pi * (fiber_geom.core_radius_um * 1e-6) ** 2)) * comb_m
        got = delta_beta(
            s, 0.0, T_K, fiber_geom, h2_gas, variant="marcatili", resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        assert got == pytest.approx(expected, abs=1e-6)

    def test_continuous_and_monotone_over_bracket(self, fiber_geom, h2_gas, reference_scheme):
        ps = [1.0 + k * 0.5 for k in range(399)]
        dbs = [
            delta_beta(reference_scheme, p, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
            for p in ps
        ]
        assert all(b2 > b1 for b1, b2 in zip(dbs, dbs[1:]))
        steps = [abs(b2 - b1) for b1, b2 in zip(dbs, dbs[1:])]
        assert max(steps) < 1.0  # no jumps at 0.5 bar sampling

    def test_per_field_mode_override(self, fiber_geom, h2_gas, reference_scheme):
        base = delta_beta(
            reference_scheme, 30.0, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        mixed = delta_beta(
            reference_scheme,
            30.0,
            T_K,
            fiber_geom,
            h2_gas,
            modes={"probe": LP11},
            resonance_exclusion_rel=REFERENCE_EXCLUSION,
        )
        assert mixed != base
        with pytest.raises(ValueError):
            delta_beta(
                reference_scheme,
                30.0,
                T_K,
                fiber_geom,
                h2_gas,
                modes={"idler": LP01},
                resonance_exclusion_rel=REFERENCE_EXCLUSION,
            )

    @pytest.mark.parametrize("wavelength", [math.inf, math.nan])
    def test_non_finite_wavelength_is_named(self, reference_scheme, wavelength):
        # an infinite pump1 gave a nan mismatch; the scheme now refuses it before delta_beta sees it
        with pytest.raises(ValueError, match=f"^pump1_nm must be positive and finite, got {wavelength!r}"):
            dataclasses.replace(reference_scheme, pump1_nm=wavelength)


class TestOptimalPressure:
    def test_reference_configuration_root(self, fiber_geom, h2_gas, reference_scheme):
        sol = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        assert 60.0 < sol.pressure_bar < 100.0
        assert abs(sol.residual_rad_per_m) < 1e-6

    def test_dense_scan_oracle_agrees(self, fiber_geom, h2_gas, reference_scheme):
        sol = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        # independent oracle: first sign change on a 0.1 bar grid
        p = 60.0
        prev = delta_beta(reference_scheme, p, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
        crossing = None
        while p < 100.0:
            p += 0.1
            cur = delta_beta(reference_scheme, p, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
            if prev < 0.0 <= cur:
                crossing = p
                break
            prev = cur
        assert crossing is not None
        assert abs(sol.pressure_bar - crossing) <= 0.1

    def test_unconverged_search_raises_instead_of_returning_a_non_root(self):
        def f(x):
            return x**20 - 0.5

        # ten Illinois steps leave the root at 0.966 in [0.1098, 1.5]
        with pytest.raises(NoConvergenceError, match=r"^f not converged after 10 iterations: bracket \[0\.1098\d*, 1\.5\] x"):
            phasematch._illinois(f, 0.0, 1.5, f(0.0), f(1.5), 0.0, 1e-14, "f", "x", max_iter=10)
        # a one-sided secant step crept up from 0 and was still at x = 0.0444 after 200 steps
        root, residual, lo, hi, iterations = phasematch._illinois(f, 0.0, 1.5, f(0.0), f(1.5), 0.0, 1e-14, "f", "x")
        assert abs(residual) < 1e-14 and lo == hi == root and iterations <= 30

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("zero", [0.0, 1.0])
    def test_a_zero_at_either_end_is_the_root(self, sign, zero):
        def f(x):
            return sign * (x - zero)

        root, *_ = phasematch._illinois(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12, 0.0, "f", "x")
        assert abs(root - zero) <= 1e-12

    def test_non_convergence_propagates(self, fiber_geom, h2_gas, reference_scheme, monkeypatch):
        root = phasematch._illinois
        monkeypatch.setattr(phasematch, "_illinois", lambda *args: root(*args, max_iter=1))
        with pytest.raises(NoConvergenceError, match="delta_beta not converged after 1 iterations"):
            optimal_pressure(reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(bracket=(1.0, math.inf)), r"bracket must satisfy 0 <= p_lo < p_hi and be finite, got \(1\.0, inf\)"),
            (dict(bracket=(-math.inf, 200.0)), r"bracket must satisfy 0 <= p_lo < p_hi and be finite, got \(-inf, 200\.0\)"),
            (dict(bracket=(math.nan, 200.0)), r"bracket must satisfy 0 <= p_lo < p_hi and be finite, got \(nan, 200\.0\)"),
            (dict(ftol_rad_per_m=math.nan), r"ftol_rad_per_m must be finite and positive, got nan"),
            (dict(ftol_rad_per_m=0.0), r"ftol_rad_per_m must be finite and positive, got 0\.0"),
            (dict(ftol_rad_per_m=-1.0), r"ftol_rad_per_m must be finite and positive, got -1\.0"),
            (dict(ftol_rad_per_m=math.inf), r"ftol_rad_per_m must be finite and positive, got inf"),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_bad_arguments_rejected_before_the_curve(self, fiber_geom, h2_gas, reference_scheme, overrides, message):
        # the geometry alone would raise ResonanceProximityError under the default guard; an infinite end
        # used to fail in the curve with DispersionDomainError, and a tolerance that is not positive used to
        # run down to a collapsed bracket and return as if solved
        with pytest.raises(ValueError, match=message):
            optimal_pressure(reference_scheme, T_K, fiber_geom, h2_gas, **overrides)

    def test_bracket_independent(self, fiber_geom, h2_gas, reference_scheme):
        kwargs = dict(resonance_exclusion_rel=REFERENCE_EXCLUSION)
        roots = [
            optimal_pressure(reference_scheme, T_K, fiber_geom, h2_gas, bracket=b, **kwargs).pressure_bar
            for b in ((1.0, 200.0), (50.0, 150.0), (80.0, 110.0))
        ]
        assert max(roots) - min(roots) < 0.01

    def test_tolerance_refinement_stable(self, fiber_geom, h2_gas, reference_scheme):
        loose = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, ftol_rad_per_m=1e-6,
            resonance_exclusion_rel=REFERENCE_EXCLUSION,
        )
        tight = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, ftol_rad_per_m=5e-7,
            resonance_exclusion_rel=REFERENCE_EXCLUSION,
        )
        assert abs(loose.pressure_bar - tight.pressure_bar) < 0.01

    def test_degenerate_scheme_has_no_root(self, fiber_geom, h2_gas):
        with pytest.raises(NoRootError) as excinfo:
            optimal_pressure(
                degenerate_scheme(), T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
            )
        assert excinfo.value.f_lo == 0.0
        assert excinfo.value.f_hi == 0.0


class TestPhaseMatchingFactor:
    def test_perfect_matching(self):
        assert phase_matching_factor(0.0, 1.85) == 1.0

    def test_first_null(self):
        length = 1.85
        db = 2.0 * math.pi / length
        assert phase_matching_factor(db, length) == pytest.approx(0.0, abs=1e-30)

    def test_half_pi_argument(self):
        length = 2.0
        db = math.pi / length  # argument pi/2
        assert phase_matching_factor(db, length) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-12)
        assert phase_matching_factor(db, length) == pytest.approx(0.4053, abs=1e-4)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_length_is_named(self, length):
        with pytest.raises(ValueError, match=rf"length_m must be finite and positive, got {length!r}"):
            phase_matching_factor(1.0, length)

    @given(db=st.floats(min_value=-1e4, max_value=1e4), length=st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, db, length):
        val = phase_matching_factor(db, length)
        assert 0.0 <= val <= 1.0
        if abs(db * length) > 1e-6:  # below this 1 - sinc^2 underflows
            assert val < 1.0


#: design-sweep's design space, outside the wall-resonance guard band, with the scan limits varied
_ACCEPTANCE_CASES = dict(
    thickness=st.floats(1.235, 1.297),
    core_radius=st.floats(22.0, 24.0),
    temperature=st.floats(283.0, 303.0),
    length=st.floats(0.05, 30.0),
    p_offset=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    limits=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 400.0))),
)
#: the grid of the walk and gallop references
_SCAN_STEPS = st.one_of(st.just(2000), st.integers(1, 5000))


def _acceptance_case(thickness, core_radius, temperature, length, p_offset, limits):
    """pressure_acceptance's (args, kwargs) for one drawn case; rejects designs without a p_opt."""
    geom = FiberGeometry(core_radius, 18.3, thickness, 7, 1.444)
    gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)
    kwargs = dict(resonance_exclusion_rel=REFERENCE_EXCLUSION)
    try:
        p_root = optimal_pressure(_SCHEME, temperature, geom, gas, **kwargs).pressure_bar
    except (ResonanceProximityError, NoRootError):
        assume(False)
    p_opt = max(0.0, p_root + p_offset)
    if limits is not None:  # a fraction of the way down to 0 bar, a span above p_opt
        limits = (p_opt * limits[0], p_opt + limits[1])
    return (_SCHEME, temperature, geom, gas, length, p_opt, limits), kwargs


def _recorded(search, *args, **kwargs):
    """search's result (or its exception) and the pressure of each delta_beta it evaluated, in order."""
    pressures = []
    build = phasematch.mismatch_curve

    def recording_curve(*curve_args):
        curve = build(*curve_args)
        return lambda p: pressures.append(p) or curve(p)

    with mock.patch.object(phasematch, "mismatch_curve", recording_curve):
        try:
            return search(*args, **kwargs), pressures
        except Exception as exc:  # the comparison is the point: any type
            return exc, pressures


def _per_side(pressures, p_opt):
    """(lower, upper) evaluation counts after the first, at p_opt: the lower side is searched first, at
    pressures <= p_opt, so the upper side starts at the first pressure above p_opt."""
    rest = pressures[1:]
    split = next((i for i, p in enumerate(rest) if p > p_opt), len(rest))
    return split, len(rest) - split


def _assert_edges_near(searched, reference):
    """Both AcceptanceWidths are bounded or not alike, and each edge is missing in both or within 1e-6 bar."""
    assert searched.bounded == reference.bounded
    for edge, reference_edge in ((searched.lower_bar, reference.lower_bar), (searched.upper_bar, reference.upper_bar)):
        assert (edge is None) == (reference_edge is None)
        if edge is not None:
            assert abs(edge - reference_edge) <= 1e-6


class TestPressureAcceptance:
    @pytest.fixture()
    def p_opt(self, fiber_geom, h2_gas, reference_scheme):
        return optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        ).pressure_bar

    def test_doubling_length_halves_width(self, fiber_geom, h2_gas, reference_scheme, p_opt):
        kwargs = dict(resonance_exclusion_rel=REFERENCE_EXCLUSION)
        w1 = pressure_acceptance(reference_scheme, T_K, fiber_geom, h2_gas, 1.85, p_opt, **kwargs)
        w2 = pressure_acceptance(reference_scheme, T_K, fiber_geom, h2_gas, 3.70, p_opt, **kwargs)
        assert w1.bounded and w2.bounded
        assert w1.width_bar / w2.width_bar == pytest.approx(2.0, rel=0.05)

    def test_symmetric_to_first_order(self, fiber_geom, h2_gas, reference_scheme, p_opt):
        w = pressure_acceptance(
            reference_scheme, T_K, fiber_geom, h2_gas, 1.85, p_opt, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        ratio = (w.upper_bar - p_opt) / (p_opt - w.lower_bar)
        assert 0.8 <= ratio <= 1.25

    def test_short_fiber_is_unbounded(self, fiber_geom, h2_gas, reference_scheme, p_opt):
        w = pressure_acceptance(
            reference_scheme, T_K, fiber_geom, h2_gas, 1e-6, p_opt, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        assert isinstance(w, AcceptanceWidth)
        assert not w.bounded
        assert math.isinf(w.width_bar)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(scan_limits=(95.0, 200.0)), r"scan_limits must be finite with 0 <= scan_limits\[0\] <= p_opt_bar"),
            (dict(scan_limits=(200.0, 0.0)), r"scan_limits must be finite with 0 <= scan_limits\[0\] <= p_opt_bar"),
            (dict(scan_limits=(-10.0, 200.0)), r"scan_limits must be finite with 0 <= scan_limits\[0\] <= p_opt_bar"),
            (dict(scan_limits=(0.0, math.inf)), r"scan_limits must be finite"),
            (dict(p_opt_bar=math.nan), r"p_opt_bar must be finite, got nan"),
            (dict(length_m=math.inf), r"length_m must be finite and positive, got inf"),
            (dict(length_m=math.nan), r"length_m must be finite and positive, got nan"),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_bad_arguments_are_named(self, fiber_geom, h2_gas, reference_scheme, p_opt, overrides, message):
        kwargs = {"length_m": 1.85, "p_opt_bar": p_opt, "resonance_exclusion_rel": REFERENCE_EXCLUSION, **overrides}
        with pytest.raises(ValueError, match=message):
            pressure_acceptance(reference_scheme, T_K, fiber_geom, h2_gas, **kwargs)

    def test_scan_stays_inside_the_limits(self, fiber_geom, h2_gas, reference_scheme, monkeypatch):
        # 99.97... + (0 - 99.97...) * 2000 / 2000 rounds to a negative pressure
        p_opt = 99.9704742763209
        pressures = []
        build = phasematch.mismatch_curve

        def recording_curve(*args):
            curve = build(*args)
            return lambda p: pressures.append(p) or curve(p)

        monkeypatch.setattr(phasematch, "mismatch_curve", recording_curve)
        w = pressure_acceptance(
            reference_scheme, T_K, fiber_geom, h2_gas, 1e-6, p_opt, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        assert (w.lower_bar, w.upper_bar, w.bounded) == (None, None, False)
        assert 0.0 <= min(pressures) and max(pressures) <= 3.0 * p_opt + 10.0

    @given(scan_steps=_SCAN_STEPS, **_ACCEPTANCE_CASES)
    @settings(max_examples=200, deadline=None)
    def test_search_agrees_with_the_grid_walk(self, thickness, core_radius, temperature, length, p_offset, scan_steps, limits):
        args, kwargs = _acceptance_case(thickness, core_radius, temperature, length, p_offset, limits)
        searched = pressure_acceptance(*args, **kwargs)
        # the walk's edge is the midpoint of a bracket under 1e-6 bar wide around the first grid crossing
        _assert_edges_near(searched, _walk_acceptance(*args, scan_steps=scan_steps, **kwargs))

    @given(scan_steps=_SCAN_STEPS, **_ACCEPTANCE_CASES)
    @settings(max_examples=300, deadline=None)
    def test_search_equals_the_gallop(self, thickness, core_radius, temperature, length, p_offset, scan_steps, limits):
        args, kwargs = _acceptance_case(thickness, core_radius, temperature, length, p_offset, limits)
        p_opt = args[5]
        searched, searched_pressures = _recorded(pressure_acceptance, *args, **kwargs)
        galloped, galloped_pressures = _recorded(_gallop_acceptance, *args, scan_steps=scan_steps, **kwargs)
        if isinstance(galloped, AcceptanceWidth):
            assert isinstance(searched, AcceptanceWidth)
            _assert_edges_near(searched, galloped)
        else:
            assert type(searched) is type(galloped)
        # a poor secant costs at most about twice the gallop's evaluations on either side
        for got, gallop in zip(_per_side(searched_pressures, p_opt), _per_side(galloped_pressures, p_opt)):
            assert got <= 2 * gallop + 2

    @given(**_ACCEPTANCE_CASES)
    @settings(max_examples=300, deadline=None)
    def test_edges_solve_the_half_width(self, thickness, core_radius, temperature, length, p_offset, limits):
        # sinc^2(delta_beta L / 2) = 1/2 where |delta_beta| = 2 x_half / L
        args, kwargs = _acceptance_case(thickness, core_radius, temperature, length, p_offset, limits)
        scheme, temperature_k, geom, gas, length_m, p_opt, _ = args
        width = pressure_acceptance(*args, **kwargs)
        mismatch = mismatch_curve(scheme, temperature_k, geom, gas, **kwargs)
        half_width = 2.0 * phasematch._X_HALF / length_m
        for edge in (width.lower_bar, width.upper_bar):
            if edge is not None and edge != p_opt:
                assert abs(abs(mismatch(edge)) - half_width) < 1e-9

    @pytest.mark.parametrize("length", [0.3, 3.0, 30.0])
    @pytest.mark.parametrize(
        "shape",
        [lambda x: 1e-3 * x**3, lambda x: 0.01 * math.sinh(0.5 * x), lambda x: math.copysign(3.0 * abs(x) ** 0.5, x)],
        ids=["cubic", "sinh", "sqrt"],
    )
    def test_a_poor_secant_costs_evaluations_not_accuracy(self, monkeypatch, shape, length):
        # mismatches far from affine, odd about p_opt: the secant is a poor guess of the crossing
        p_opt = 90.0
        monkeypatch.setattr(phasematch, "mismatch_curve", lambda *args: lambda p: shape(p - p_opt))
        args = (_SCHEME, T_K, None, None, length, p_opt)  # the fake curve needs no geometry or gas
        searched, searched_pressures = _recorded(pressure_acceptance, *args)
        galloped, galloped_pressures = _recorded(_gallop_acceptance, *args)
        _assert_edges_near(searched, galloped)
        for got, gallop in zip(_per_side(searched_pressures, p_opt), _per_side(galloped_pressures, p_opt)):
            assert got <= 2 * gallop + 2

    def test_half_width_root(self):
        # sinc^2 falls from 1 to 0 on (0, pi), so its one root of sinc^2 = 1/2 there is the first
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda x: (mpmath.sin(x) / x) ** 2 - 0.5, (1.0, 3.0), solver="illinois")
        assert abs(phasematch._X_HALF - float(root)) <= 2 * math.ulp(phasematch._X_HALF)


class TestInferWallThickness:
    BRACKET = (1.26, 1.29)
    #: the shipped config's index settings; the default pressure brackets are design-sweep's
    SHIPPED = dict(variant="zeisberger", resonance_exclusion_rel=REFERENCE_EXCLUSION)

    def test_round_trip(self, fiber_geom, h2_gas, reference_scheme):
        forward = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        ).pressure_bar
        sol = infer_wall_thickness(
            forward, reference_scheme, T_K, fiber_geom, h2_gas, self.BRACKET,
            resonance_exclusion_rel=REFERENCE_EXCLUSION,
        )
        assert sol.thickness_um == pytest.approx(1.28, abs=1e-3)
        assert abs(sol.pressure_residual_bar) < 1e-3

    def test_measured_pressure_maps_to_reference_thickness(self, fiber_geom, h2_gas, reference_scheme):
        sol = infer_wall_thickness(
            83.0, reference_scheme, T_K, fiber_geom, h2_gas, self.BRACKET,
            resonance_exclusion_rel=REFERENCE_EXCLUSION,
        )
        assert sol.thickness_um == pytest.approx(1.28, abs=0.05)

    def test_monotone_thickness_to_pressure(self, fiber_geom, h2_gas, reference_scheme):
        from dataclasses import replace

        pressures = []
        for t in (1.26, 1.27, 1.28, 1.29):
            geom_t = replace(fiber_geom, wall_thickness_um=t)
            pressures.append(
                optimal_pressure(
                    reference_scheme, T_K, geom_t, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
                ).pressure_bar
            )
        assert all(b < a for a, b in zip(pressures, pressures[1:]))

    def test_iteration_cap_names_the_last_bracket(self, fiber_geom, h2_gas, reference_scheme, monkeypatch):
        monkeypatch.setattr(phasematch, "_MAX_THICKNESS_ITERATIONS", 2)
        p_measured = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        ).pressure_bar
        with pytest.raises(NoSolutionError, match=r"not converged after 2 iterations: bracket \[1\.2\d*, 1\.2\d*\] um"):
            infer_wall_thickness(
                p_measured, reference_scheme, T_K, fiber_geom, h2_gas, self.BRACKET,
                resonance_exclusion_rel=REFERENCE_EXCLUSION,
            )

    def test_trial_thicknesses_bypass_the_curve_cache(self, fiber_geom, h2_gas, reference_scheme):
        p_measured = optimal_pressure(
            reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
        ).pressure_bar
        before = phasematch._mismatch_curve.cache_info()
        infer_wall_thickness(
            p_measured, reference_scheme, T_K, fiber_geom, h2_gas, self.BRACKET,
            resonance_exclusion_rel=REFERENCE_EXCLUSION,
        )
        assert phasematch._mismatch_curve.cache_info() == before

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(pressure_bracket=(200.0, 1.0)), r"bracket must satisfy 0 <= p_lo < p_hi"),
            (dict(modes={"idler": LP11}), r"unknown field names in mode overrides: \['idler'\]"),
        ],
    )
    def test_bad_solver_arguments_name_the_endpoint(self, fiber_geom, h2_gas, reference_scheme, overrides, message):
        with pytest.raises(NoSolutionError, match=r"optimal_pressure failed at a thickness bracket endpoint: " + message):
            infer_wall_thickness(
                90.0, reference_scheme, T_K, fiber_geom, h2_gas, self.BRACKET,
                resonance_exclusion_rel=REFERENCE_EXCLUSION, **overrides,
            )

    @pytest.mark.parametrize(
        "argument,value,message",
        [
            ("thickness_bracket_um", (1.29, 1.27), r"must be finite with 0 < t_lo < t_hi, got \(1\.29, 1\.27\)"),
            ("thickness_bracket_um", (1.28, 1.28), r"must be finite with 0 < t_lo < t_hi, got \(1\.28, 1\.28\)"),
            ("thickness_bracket_um", (0.0, 1.29), r"must be finite with 0 < t_lo < t_hi, got \(0\.0, 1\.29\)"),
            ("thickness_bracket_um", (math.nan, 1.29), r"must be finite with 0 < t_lo < t_hi, got \(nan, 1\.29\)"),
            ("thickness_bracket_um", (1.26, math.inf), r"must be finite with 0 < t_lo < t_hi, got \(1\.26, inf\)"),
            ("p_opt_measured_bar", math.nan, r"must be finite, got nan"),
            ("p_opt_measured_bar", math.inf, r"must be finite, got inf"),
            ("thickness_tol_um", math.nan, r"must be finite and positive, got nan"),
            ("thickness_tol_um", math.inf, r"must be finite and positive, got inf"),
            ("thickness_tol_um", 0.0, r"must be finite and positive, got 0\.0"),
            ("pressure_bracket", (1.0, math.inf), r"must be finite, got \(1\.0, inf\)"),
            ("pressure_bracket", (math.nan, 200.0), r"must be finite, got \(nan, 200\.0\)"),
        ],
    )
    def test_bad_arguments_rejected_before_any_solve(
        self, fiber_geom, h2_gas, reference_scheme, monkeypatch, argument, value, message
    ):
        # each of these used to come back as a "solution" (a midpoint or a nan residual) or to fail in a solve
        monkeypatch.setattr(phasematch, "_illinois", None)  # a solve would fail with a TypeError
        monkeypatch.setattr(phasematch, "_mismatch_curve", None)  # and a curve build with an AttributeError
        args = dict(p_opt_measured_bar=90.0, thickness_bracket_um=self.BRACKET, thickness_tol_um=1e-5)
        args[argument] = value
        with pytest.raises(ValueError, match=argument + " " + message):
            infer_wall_thickness(
                scheme=reference_scheme, temperature_k=T_K, geom=fiber_geom, gas=h2_gas,
                resonance_exclusion_rel=REFERENCE_EXCLUSION, **args,
            )  # fmt: skip

    def test_unreachable_pressure_raises(self, fiber_geom, h2_gas, reference_scheme):
        with pytest.raises(NoSolutionError):
            infer_wall_thickness(
                200.0, reference_scheme, T_K, fiber_geom, h2_gas, self.BRACKET,
                resonance_exclusion_rel=REFERENCE_EXCLUSION,
            )

    @given(
        thickness=st.floats(1.235, 1.297),
        core_radius=st.floats(22.0, 24.0),
        temperature=st.floats(283.0, 303.0),
        below=st.floats(0.0, 1.0),
        above=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_iterations_stay_few(self, thickness, core_radius, temperature, below, above):
        # design-sweep's designs and brackets, outside the wall-resonance guard band
        geom = FiberGeometry(core_radius, 18.3, thickness, 7, 1.444)
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)
        bracket = (thickness - 0.005 - 0.015 * below, thickness + 0.005 + 0.015 * above)
        try:
            p_measured = optimal_pressure(_SCHEME, temperature, geom, gas, **self.SHIPPED).pressure_bar
            sol = infer_wall_thickness(p_measured, _SCHEME, temperature, geom, gas, bracket, **self.SHIPPED)
        except (ResonanceProximityError, NoSolutionError):
            assume(False)
        assert 1 <= sol.iterations <= 12  # plain false position took up to 4868
        assert abs(sol.thickness_um - thickness) <= 2e-5
        tight = infer_wall_thickness(
            p_measured, _SCHEME, temperature, geom, gas, bracket, thickness_tol_um=1e-10, **self.SHIPPED
        )
        assert abs(sol.thickness_um - tight.thickness_um) <= 1e-5

    def test_stalled_false_position_design(self):
        # plain false position took 1061 iterations on this design-sweep design (seed 1, design 5769)
        geom = FiberGeometry(23.479146295550514, 18.3, 1.249467713191475, 7, 1.444)
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)
        temperature = 285.8651302351945
        p_measured = optimal_pressure(_SCHEME, temperature, geom, gas, **self.SHIPPED).pressure_bar
        sol = infer_wall_thickness(
            p_measured, _SCHEME, temperature, geom, gas, (1.2384397812993273, 1.2565337830830117), **self.SHIPPED
        )
        assert sol.iterations <= 12
        assert sol.thickness_um == pytest.approx(1.249467713191475, abs=2e-5)


#: p_opt of the shipped design over the default bracket (1, 200) bar
_SHIPPED_P_OPT = float.fromhex("0x1.73190e639a0cep+6")


class TestShippedDesignPins:
    """Solver outputs on configs/h2_914nm.yaml, bit for bit (float.hex)."""

    @pytest.fixture(scope="class")
    def shipped(self):
        config = load_config(REPO_ROOT / "configs" / "h2_914nm.yaml")
        args = (config.scheme(), config.temperature_k(), config.fiber_geometry(), config.gas_dispersion())
        kwargs = dict(variant=config.index_variant(), resonance_exclusion_rel=config.resonance_exclusion_rel())
        return args, kwargs

    def test_optimal_pressure(self, shipped):
        args, kwargs = shipped
        sol = optimal_pressure(*args, **kwargs)
        assert sol.pressure_bar == _SHIPPED_P_OPT
        assert sol.residual_rad_per_m.hex() == "-0x1.9000000000000p-30"
        assert sol.iterations == 5

    @pytest.mark.parametrize(
        "length_m,lower,upper",
        [
            (1.85, "0x1.62cf472eb5473p+6", "0x1.834f96cbce146p+6"),
            (0.3, "0x1.0d3c8577e65e9p+6", "0x1.d60cf46f1f366p+6"),
        ],
    )
    def test_pressure_acceptance(self, shipped, length_m, lower, upper):
        args, kwargs = shipped
        width = pressure_acceptance(*args, length_m, _SHIPPED_P_OPT, **kwargs)
        assert (width.lower_bar.hex(), width.upper_bar.hex()) == (lower, upper)

    @pytest.mark.parametrize(
        "variant,pressure_bar,bits",
        [
            ("zeisberger", 0.0, "-0x1.f815085c70100p+4"),
            ("zeisberger", 60.0, "-0x1.7bfb3bde39800p+3"),
            ("zeisberger", 92.77, "-0x1.b1d3da4000000p-10"),
            ("zeisberger", 150.0, "0x1.5bc8f9f1cf000p+4"),
            ("marcatili", 0.0, "-0x1.42cdddd8e7560p+5"),
            ("marcatili", 60.0, "-0x1.c8fc0bb305000p+3"),
            ("marcatili", 92.77, "-0x1.a6b9b8df00000p-3"),
            ("marcatili", 150.0, "0x1.81a584ef9f000p+4"),
        ],
    )
    def test_delta_beta(self, shipped, variant, pressure_bar, bits):
        # both index variants share one curve closure; the variant's wall-term branch must not move a bit
        (scheme, t_k, geom, gas), kwargs = shipped
        got = delta_beta(scheme, pressure_bar, t_k, geom, gas, None, variant, kwargs["resonance_exclusion_rel"])
        assert got.hex() == bits

    def test_infer_wall_thickness(self, shipped):
        (scheme, t_k, geom, gas), kwargs = shipped
        sol = infer_wall_thickness(_SHIPPED_P_OPT, scheme, t_k, geom, gas, (1.26, 1.29), **kwargs)
        # plain false position gave 0x1.47ae147adee50p+0 after 26 iterations
        assert sol.thickness_um.hex() == "0x1.47ae145624ef4p+0"
        assert sol.iterations == 6

    @pytest.fixture()
    def evaluations(self, monkeypatch):
        """The pressures of every delta_beta evaluation on a curve built while the test runs."""
        pressures = []
        build = phasematch.weighted_index_curve

        def counting_build(*args):
            curve = build(*args)
            return lambda p: pressures.append(p) or curve(p)

        monkeypatch.setattr(phasematch, "weighted_index_curve", counting_build)
        phasematch._mismatch_curve.cache_clear()  # curves built before the patch would not count
        yield pressures
        phasematch._mismatch_curve.cache_clear()  # nor may counting curves outlive it

    def test_delta_beta_evaluations(self, shipped, evaluations):
        (scheme, t_k, geom, gas), kwargs = shipped
        solves = {
            "optimal_pressure": lambda: optimal_pressure(scheme, t_k, geom, gas, **kwargs),
            "acceptance 1.85 m": lambda: pressure_acceptance(scheme, t_k, geom, gas, 1.85, _SHIPPED_P_OPT, **kwargs),
            "acceptance 0.3 m": lambda: pressure_acceptance(scheme, t_k, geom, gas, 0.3, _SHIPPED_P_OPT, **kwargs),
            "inversion": lambda: infer_wall_thickness(_SHIPPED_P_OPT, scheme, t_k, geom, gas, (1.26, 1.29), **kwargs),
        }
        counts = {}
        for name, solve in solves.items():
            before = len(evaluations)
            solve()
            counts[name] = len(evaluations) - before
        # the secant-bisection root, the 60-step edge bisection and the nested inversion took 8, 61, 71 and 71;
        # the galloping edge search took 33 and 42
        assert counts == {"optimal_pressure": 7, "acceptance 1.85 m": 12, "acceptance 0.3 m": 13, "inversion": 15}


# --- reference: pressure_acceptance as a walk over every grid point -----------------


def _walk_acceptance(
    scheme, temperature_k, geom, gas, length_m, p_opt_bar, scan_limits=None, scan_steps=2000,
    modes=None, variant="zeisberger", resonance_exclusion_rel=0.03,
):
    """Each side stepped k = 1, 2, ... outward until the factor drops below 1/2, then bisected.

    The grid points are held inside the scan limits; without that, rounding
    can put the last point past a limit, below 0 bar on the lower side.
    """
    if scan_limits is None:
        scan_limits = (0.0, 3.0 * p_opt_bar + 10.0)
    mismatch = mismatch_curve(scheme, temperature_k, geom, gas, modes, variant, resonance_exclusion_rel)

    def factor(p):
        return phase_matching_factor(mismatch(p), length_m)

    def crossing(toward):
        prev_p = p_opt_bar
        if factor(p_opt_bar) < 0.5:
            return p_opt_bar
        for k in range(1, scan_steps + 1):
            p = p_opt_bar + (toward - p_opt_bar) * k / scan_steps
            p = max(p, toward) if toward < p_opt_bar else min(p, toward)
            if factor(p) < 0.5:
                a, b = prev_p, p
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    if factor(mid) >= 0.5:
                        a = mid
                    else:
                        b = mid
                    if abs(b - a) < 1e-6:
                        break
                return 0.5 * (a + b)
            prev_p = p
        return None

    lower = crossing(scan_limits[0])
    upper = crossing(scan_limits[1])
    bounded = lower is not None and upper is not None
    width = (upper - lower) if bounded else math.inf
    return AcceptanceWidth(lower_bar=lower, upper_bar=upper, width_bar=width, bounded=bounded)


# --- reference: pressure_acceptance as a galloping search over the grid -------------


def _gallop_acceptance(
    scheme, temperature_k, geom, gas, length_m, p_opt_bar, scan_limits=None, scan_steps=2000,
    modes=None, variant="zeisberger", resonance_exclusion_rel=0.03,
):
    """Each side's first grid index below 1/2 found by galloping (k = 1, 2, 4, ...) and bisecting
    over the integers, then refined from that grid pair to a bracket under 1e-6 bar wide around the
    root of factor - 1/2, whose midpoint is the edge."""
    if scan_limits is None:
        scan_limits = (0.0, 3.0 * p_opt_bar + 10.0)
    mismatch = phasematch.mismatch_curve(scheme, temperature_k, geom, gas, modes, variant, resonance_exclusion_rel)

    def excess(p):
        return phase_matching_factor(mismatch(p), length_m) - 0.5

    at_optimum = excess(p_opt_bar)

    def crossing(toward):
        def grid(k):
            p = p_opt_bar + (toward - p_opt_bar) * k / scan_steps
            return max(p, toward) if toward < p_opt_bar else min(p, toward)

        if at_optimum < 0.0:
            return p_opt_bar
        inside, k, f_inside = 0, 1, at_optimum
        while (f_k := excess(grid(k))) >= 0.0:
            if k == scan_steps:
                return None
            inside, k, f_inside = k, min(2 * k, scan_steps), f_k
        while k - inside > 1:
            mid = (inside + k) // 2
            f_mid = excess(grid(mid))
            if f_mid >= 0.0:
                inside, f_inside = mid, f_mid
            else:
                k, f_k = mid, f_mid
        (a, fa), (b, fb) = sorted([(grid(inside), f_inside), (grid(k), f_k)])
        _, _, a, b, _ = phasematch._illinois(excess, a, b, fa, fb, 1e-6, 0.0, "acceptance edge", "bar")
        return 0.5 * (a + b)

    lower = crossing(scan_limits[0])
    upper = crossing(scan_limits[1])
    bounded = lower is not None and upper is not None
    width = (upper - lower) if bounded else math.inf
    return AcceptanceWidth(lower_bar=lower, upper_bar=upper, width_bar=width, bounded=bounded)


# --- reference: the solvers before the Illinois solver ------------------------------


def _secant_bisection_root(f, lo, hi, ftol, what, max_iter=200):
    """optimal_pressure's root finder before the Illinois solver: bisection with a secant step."""
    f_lo = f(lo)
    f_hi = f(hi)
    if not (f_lo * f_hi < 0.0):
        raise NoRootError(f"no sign change of {what} over the bracket", lo, hi, f_lo, f_hi)
    a, b, fa, fb = lo, hi, f_lo, f_hi
    for _ in range(max_iter):
        x = 0.5 * (a + b)
        if fb != fa:
            secant = b - fb * (b - a) / (fb - fa)
            if a < secant < b:
                x = secant
        fx = f(x)
        if abs(fx) < ftol:
            return x
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if b - a <= max(1e-15, 1e-14 * max(abs(a), abs(b))):
            return x
    raise NoConvergenceError(f"{what} not converged after {max_iter} iterations")


def _secant_bisection_pressure(scheme, temperature_k, geom, gas, bracket, ftol_rad_per_m, variant, exclusion_rel):
    """optimal_pressure before the Illinois solver; returns the pressure."""
    p_lo, p_hi = bracket
    if not (0.0 <= p_lo < p_hi):
        raise ValueError("bracket must satisfy 0 <= p_lo < p_hi")
    mismatch = mismatch_curve(scheme, temperature_k, geom, gas, None, variant, exclusion_rel)
    return _secant_bisection_root(mismatch, p_lo, p_hi, ftol_rad_per_m, "delta_beta")


def _nested_inversion(
    p_measured, scheme, temperature_k, geom, gas, thickness_bracket_um, pressure_bracket, thickness_tol_um,
    variant, exclusion_rel,
):  # fmt: skip
    """infer_wall_thickness before the one-level search: Illinois false position on p_opt(t) - p_measured,
    each step a full pressure solve; returns the thickness."""

    def p_of_t(t_um):
        geom_t = dataclasses.replace(geom, wall_thickness_um=t_um)
        return _secant_bisection_pressure(scheme, temperature_k, geom_t, gas, pressure_bracket, 1e-6, variant, exclusion_rel)

    t_lo, t_hi = thickness_bracket_um
    try:
        g_lo = p_of_t(t_lo) - p_measured
        g_hi = p_of_t(t_hi) - p_measured
    except Exception as exc:
        raise NoSolutionError(f"optimal_pressure failed at a thickness bracket endpoint: {exc}") from exc
    if g_lo * g_hi >= 0.0:
        raise NoSolutionError(f"measured pressure {p_measured:g} bar is not bracketed")
    a, b, ga, gb = t_lo, t_hi, g_lo, g_hi
    sa, sb = ga, gb
    kept = None
    for _ in range(100):
        if b - a <= thickness_tol_um:
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        if sb != sa:
            secant = b - sb * (b - a) / (sb - sa)
            if a < secant < b:
                mid = secant
        gm = p_of_t(mid) - p_measured
        if gm == 0.0:
            return mid
        if ga * gm < 0.0:
            b, gb, sb = mid, gm, gm
            if kept == "a":
                sa *= 0.5
            kept = "a"
        else:
            a, ga, sa = mid, gm, gm
            if kept == "b":
                sb *= 0.5
            kept = "b"
    raise NoSolutionError("wall thickness not converged after 100 iterations")


def _crosses_the_guard_band(thickness_bracket_um, exclusion_rel, wall_index=1.444):
    """True when a field of _SCHEME lies within exclusion_rel of a wall resonance at some thickness in the bracket."""
    nm_per_um = 2e3 * math.sqrt(wall_index**2 - 1.0)  # lambda_m = nm_per_um t / m
    t_lo, t_hi = thickness_bracket_um
    for lam in _SCHEME.wavelengths_nm().values():
        for m in range(1, 10):
            # |lam - lambda_m| <= exclusion_rel lambda_m for t in [band_lo, band_hi], widened for rounding
            band_lo = m * lam / (nm_per_um * (1.0 + exclusion_rel)) * (1.0 - 1e-9)
            band_hi = m * lam / (nm_per_um * (1.0 - exclusion_rel)) * (1.0 + 1e-9)
            if band_lo <= t_hi and t_lo <= band_hi:
                return True
    return False


class TestSolversAgainstTheirPredecessors:
    """The Illinois solves against kept copies of the solvers they replace, on design-sweep's designs."""

    SHIPPED = dict(variant="zeisberger", exclusion_rel=REFERENCE_EXCLUSION)

    @given(
        thickness=st.floats(1.235, 1.297),
        core_radius=st.floats(22.0, 24.0),
        temperature=st.floats(283.0, 303.0),
        p_lo=st.one_of(st.just(1.0), st.floats(0.0, 100.0)),
        span=st.one_of(st.just(199.0), st.floats(1.0, 150.0)),
        ftol=st.sampled_from([1e-6, 1e-8, 1e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_optimal_pressure(self, thickness, core_radius, temperature, p_lo, span, ftol):
        geom = FiberGeometry(core_radius, 18.3, thickness, 7, 1.444)
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)
        bracket = (p_lo, p_lo + span)
        variant, exclusion = self.SHIPPED["variant"], self.SHIPPED["exclusion_rel"]
        old = _outcome(_secant_bisection_pressure, _SCHEME, temperature, geom, gas, bracket, ftol, variant, exclusion)
        new = _outcome(
            lambda: optimal_pressure(
                _SCHEME, temperature, geom, gas, bracket, ftol, None, variant, resonance_exclusion_rel=exclusion
            )
        )
        if isinstance(old, float):
            assert bracket[0] <= new.pressure_bar <= bracket[1]
            assert abs(new.residual_rad_per_m) < ftol
            assert new.residual_rad_per_m == delta_beta(_SCHEME, new.pressure_bar, temperature, geom, gas, None, variant, exclusion)
        else:
            assert isinstance(new, tuple) and new[0] is old[0]

    @given(
        thickness=st.floats(1.235, 1.297),
        core_radius=st.floats(22.0, 24.0),
        temperature=st.floats(283.0, 303.0),
        below=st.floats(0.0, 1.0),
        above=st.floats(0.0, 1.0),
        offset=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
        tol=st.sampled_from([1e-5, 1e-6, 1e-3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_infer_wall_thickness(self, thickness, core_radius, temperature, below, above, offset, tol):
        # design-sweep's designs and brackets, with brackets wholly outside the wall-resonance guard band
        bracket = (thickness - 0.005 - 0.015 * below, thickness + 0.005 + 0.015 * above)
        assume(not _crosses_the_guard_band(bracket, REFERENCE_EXCLUSION))
        geom = FiberGeometry(core_radius, 18.3, thickness, 7, 1.444)
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)
        variant, exclusion = self.SHIPPED["variant"], self.SHIPPED["exclusion_rel"]
        p_true = optimal_pressure(_SCHEME, temperature, geom, gas, variant=variant, resonance_exclusion_rel=exclusion)
        args = (p_true.pressure_bar + offset, _SCHEME, temperature, geom, gas, bracket, (1.0, 200.0), tol)
        old = _outcome(_nested_inversion, *args, variant, exclusion)
        new = _outcome(lambda: infer_wall_thickness(*args, None, variant, exclusion))
        if isinstance(old, float):
            # both are midpoints of brackets at most tol wide; the roots differ by the nested solve's ~3e-9 um
            assert abs(new.thickness_um - old) <= tol
        else:
            assert isinstance(new, tuple) and new[0] is old[0]


# --- reference: delta_beta as evaluated field by field, one call per pressure -----


def _reference_resonance_check(wavelength_nm, wall_thickness_um, wall_index, exclusion_rel):
    lam1_nm = 2.0 * wall_thickness_um * 1e3 * math.sqrt(wall_index**2 - 1.0)
    m_near = lam1_nm / wavelength_nm
    for m in {max(1, math.floor(m_near)), max(1, math.ceil(m_near))}:
        lam_m = lam1_nm / m
        if abs(wavelength_nm - lam_m) <= exclusion_rel * lam_m:
            raise ResonanceProximityError(
                f"{wavelength_nm:.2f} nm is within {exclusion_rel:.1%} of the m={m} "
                f"wall resonance at {lam_m:.2f} nm; the analytic index model is invalid there"
            )


def _reference_index(geom, gas, wavelength_nm, pressure_bar, temperature_k, mode, variant, exclusion_rel):
    if variant not in ("zeisberger", "marcatili"):
        raise ValueError(f"unknown index variant {variant!r}; expected one of {('zeisberger', 'marcatili')}")
    n_wall = geom.wall_refractive_index(wavelength_nm)
    _reference_resonance_check(wavelength_nm, geom.wall_thickness_um, n_wall, exclusion_rel)
    n_g = gas_index(gas, wavelength_nm, pressure_bar, temperature_k)
    lam_m = wavelength_nm * 1e-9
    r_m = geom.core_radius_um * 1e-6
    u = mode.bessel_zero * lam_m / (2.0 * math.pi * r_m)
    n_eff = n_g - 0.5 * u * u / n_g
    if variant == "marcatili":
        return n_eff
    t_m = geom.wall_thickness_um * 1e-6
    eps = (n_wall / n_g) ** 2
    phi = (2.0 * math.pi * t_m / lam_m) * math.sqrt(n_wall**2 - n_g**2)
    polarization_factor = (eps + 1.0) / (2.0 * math.sqrt(eps - 1.0))
    wall_term = (mode.bessel_zero**2 * lam_m**3 / (8.0 * math.pi**3 * r_m**3)) * polarization_factor / math.tan(phi)
    return n_eff - wall_term


def _reference_delta_beta(scheme, pressure_bar, temperature_k, geom, gas, modes, variant, exclusion_rel):
    if modes is None:
        mode_map = {name: LP01 for name in phasematch.FIELD_NAMES}
    elif isinstance(modes, ModeLabel):
        mode_map = {name: modes for name in phasematch.FIELD_NAMES}
    else:
        unknown = set(modes) - set(phasematch.FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown field names in mode overrides: {sorted(unknown)}")
        mode_map = {name: modes.get(name, LP01) for name in phasematch.FIELD_NAMES}
    total = 0.0
    for name, lam in scheme.wavelengths_nm().items():
        n_eff = _reference_index(geom, gas, lam, pressure_bar, temperature_k, mode_map[name], variant, exclusion_rel)
        beta = 2.0 * math.pi / (lam * 1e-9) * n_eff
        total += {"pump1": 1.0, "pump2": -1.0, "probe": 1.0, "signal": -1.0}[name] * beta
    return total


def _outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point: any type, any message
        return type(exc), str(exc)


#: Roundings allowed per unit of each term's size when two evaluations of one
#: weighted index sum sum_i w_i n_eff_i are compared.  Each evaluation rounds
#: about a dozen operations per field, each by at most eps relative; the size
#: of field i is |w_i| (n_gas + |wall term| kappa (1 + |phi / (sin phi cos
#: phi)|)): a rounding of n_wall^2 - n_gas^2 reaches the wall term magnified
#: by kappa = n_wall^2 / (n_wall^2 - n_gas^2), and its phase phi magnified by
#: |phi / (sin phi cos phi)| through tan.  The sum then rounds at most eps per
#: partial sum, each no larger than sum_i |w_i| n_eff_i.
_ROUNDINGS = 24


def _sum_tolerance(geom, gas, fields, pressure_bar, temperature_k, variant):
    """Largest difference between two roundings of the index sum over fields, (weight, wavelength_nm, mode) triples."""
    size = 0.0
    for weight, wavelength_nm, mode in fields:
        n_g = gas_index(gas, wavelength_nm, pressure_bar, temperature_k)
        field_size = n_g
        if variant == "zeisberger":
            lam_m, r_m = wavelength_nm * 1e-9, geom.core_radius_um * 1e-6
            n_wall = geom.wall_refractive_index(wavelength_nm)
            eps = (n_wall / n_g) ** 2
            phi = (2.0 * math.pi * geom.wall_thickness_um * 1e-6 / lam_m) * math.sqrt(n_wall**2 - n_g**2)
            wall = mode.bessel_zero**2 * lam_m**3 / (8.0 * math.pi**3 * r_m**3) * (eps + 1.0) / (2.0 * math.sqrt(eps - 1.0))
            kappa = n_wall**2 / (n_wall**2 - n_g**2)
            field_size += abs(wall / math.tan(phi)) * kappa * (1.0 + abs(phi / (math.sin(phi) * math.cos(phi))))
        size += abs(weight) * field_size
    return _ROUNDINGS * sys.float_info.epsilon * size


def _scheme_fields(scheme, modes):
    """The mismatch as (weight, wavelength_nm, mode) triples: each field's signed vacuum wavenumber."""
    signs = {"pump1": 1.0, "pump2": -1.0, "probe": 1.0, "signal": -1.0}
    return [
        (signs[name] * 2.0 * math.pi / (lam * 1e-9), lam, ModeLabel(l, m))
        for (name, lam), (l, m) in zip(scheme.wavelengths_nm().items(), phasematch._field_modes(modes))
    ]


def _agree(got, expected, tolerance):
    """Both the same error, type and message, or both values within tolerance() of each other."""
    if isinstance(expected, float) and isinstance(got, float):
        return abs(got - expected) <= tolerance()
    return got == expected


_SCHEME = ConversionScheme.from_pumps(914.0, 1550.0, 942.0, transition_cm1=4155.25, detuning_tolerance_cm1=10.0)
_MODES = st.builds(ModeLabel, st.integers(0, 2), st.integers(1, 3))
#: one fault per input: each replaces one argument with an invalid value
_FAULTS = {
    "pressure": lambda a: {**a, "pressure": -1.0},
    "temperature": lambda a: {**a, "temperature": 0.0},
    "variant": lambda a: {**a, "variant": "vectorial"},
    "field": lambda a: {**a, "modes": {"idler": LP11}},
    "pole": lambda a: {**a, "gas": GasDispersion("X", ((1e-4, 0.9),), 1.01325, 273.15)},  # pole at 949 nm
}


class TestMismatchCurve:
    def test_resonance_error_at_build(self, fiber_geom, h2_gas, reference_scheme):
        with pytest.raises(ResonanceProximityError, match="m=3"):
            mismatch_curve(reference_scheme, T_K, fiber_geom, h2_gas)  # the 3 % default guard holds the probe

    def test_pressure_error_at_call(self, fiber_geom, h2_gas, reference_scheme):
        curve = mismatch_curve(reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
        with pytest.raises(ValueError, match="pressure must be non-negative"):
            curve(-1e-3)
        with pytest.raises(ValueError, match="pressure must be non-negative"):
            delta_beta(reference_scheme, math.nan, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_rejected_before_the_solve(self, fiber_geom, h2_gas, reference_scheme, temperature):
        with pytest.raises(ValueError, match=f"temperature must be finite, got {temperature!r}"):
            optimal_pressure(
                reference_scheme, temperature, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION
            )

    def test_equal_values_share_one_cache_entry(self, h2_gas, reference_scheme):
        phasematch._mismatch_curve.cache_clear()
        curves = [
            mismatch_curve(
                dataclasses.replace(reference_scheme), T_K, FiberGeometry(23.0, 18.3, 1.28, 7, 1.444),
                dataclasses.replace(h2_gas), modes, resonance_exclusion_rel=REFERENCE_EXCLUSION,
            )  # fmt: skip
            for modes in (None, LP01, ModeLabel(0, 1), {"probe": ModeLabel(0, 1)})
        ]
        info = phasematch._mismatch_curve.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
        assert all(curve is curves[0] for curve in curves)

    def test_curve_cache_keys_modes_by_their_orders(self, fiber_geom, h2_gas, reference_scheme, monkeypatch):
        assert phasematch._field_modes(None) == ((0, 1),) * 4
        assert phasematch._field_modes({"probe": LP11}) == ((0, 1), (0, 1), (1, 1), (0, 1))
        phasematch._mismatch_curve.cache_clear()
        built = []
        bessel_zero = core_model.bessel_zero
        monkeypatch.setattr(core_model, "bessel_zero", lambda l, m: built.append((l, m)) or bessel_zero(l, m))
        args = (reference_scheme, 90.0, T_K, fiber_geom, h2_gas, {"probe": LP11}, "zeisberger", REFERENCE_EXCLUSION)
        value = delta_beta(*args)
        assert built == []  # a miss maps the orders to existing labels instead of building new ones
        tolerance = _sum_tolerance(fiber_geom, h2_gas, _scheme_fields(reference_scheme, {"probe": LP11}), 90.0, T_K, "zeisberger")
        assert abs(value - _reference_delta_beta(*args)) <= tolerance

    def test_equal_geometry_reuses_the_cached_curve(self, fiber_geom, h2_gas, reference_scheme):
        first = mismatch_curve(reference_scheme, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
        hits = phasematch._mismatch_curve.cache_info().hits
        copy = dataclasses.replace(fiber_geom)
        assert copy is not fiber_geom
        again = mismatch_curve(reference_scheme, T_K, copy, h2_gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
        assert phasematch._mismatch_curve.cache_info().hits == hits + 1
        assert again is first

    def test_list_and_tuple_wall_index_give_the_same_bits(self, h2_gas, reference_scheme):
        rows = [[1.0, 0.004], [0.08, 0.01]]  # Sellmeier pairs, n ~ 1.444 over the scheme
        listed = FiberGeometry(23.0, 18.3, 1.28, 7, rows)
        tupled = FiberGeometry(23.0, 18.3, 1.28, 7, ((1.0, 0.004), (0.08, 0.01)))
        assert listed == tupled and hash(listed) == hash(tupled)
        bits = []
        for geom in (listed, tupled):
            phasematch._mismatch_curve.cache_clear()  # each value is built, not looked up
            bits.append(delta_beta(reference_scheme, 90.0, T_K, geom, h2_gas, None, "zeisberger", REFERENCE_EXCLUSION).hex())
        assert bits[0] == bits[1]
        reference = _reference_delta_beta(reference_scheme, 90.0, T_K, tupled, h2_gas, None, "zeisberger", REFERENCE_EXCLUSION)
        tolerance = _sum_tolerance(tupled, h2_gas, _scheme_fields(reference_scheme, None), 90.0, T_K, "zeisberger")
        assert abs(float.fromhex(bits[0]) - reference) <= tolerance

    def test_resonance_error_raised_on_every_call(self, fiber_geom, h2_gas, reference_scheme):
        misses = phasematch._mismatch_curve.cache_info().misses
        for _ in range(3):  # the 3 % default guard holds the probe
            with pytest.raises(ResonanceProximityError, match="m=3"):
                delta_beta(reference_scheme, 90.0, T_K, fiber_geom, h2_gas)
        assert phasematch._mismatch_curve.cache_info().misses == misses + 3

    @pytest.mark.parametrize("exclusion", [math.nan, -0.5, -math.inf])
    def test_guard_band_cannot_be_switched_off(self, fiber_geom, h2_gas, reference_scheme, exclusion):
        # the probe lies 2.8 % from the m = 3 resonance; nan and -0.5 used to return -1.0258 rad/m at 90 bar
        message = f"resonance_exclusion_rel must be non-negative, got {exclusion!r}"
        with pytest.raises(ValueError, match=message):
            delta_beta(reference_scheme, 90.0, T_K, fiber_geom, h2_gas, resonance_exclusion_rel=exclusion)
        with pytest.raises(ValueError, match=message):
            core_index_curve(fiber_geom, h2_gas, 914.0, T_K, resonance_exclusion_rel=exclusion)

    def test_bad_bracket_rejected_before_the_curve(self, fiber_geom, h2_gas, reference_scheme):
        # the geometry alone would raise ResonanceProximityError under the default guard
        with pytest.raises(ValueError, match="bracket must satisfy"):
            optimal_pressure(reference_scheme, T_K, fiber_geom, h2_gas, bracket=(5.0, 1.0))

    @given(
        pressure=st.one_of(st.just(0.0), st.floats(0.0, 250.0)),
        temperature=st.floats(200.0, 400.0),
        core_radius=st.floats(10.0, 40.0),
        thickness=st.floats(0.4, 2.0),
        wall_index=st.sampled_from([1.444, ((0.6961663, 0.0046791), (0.4079426, 0.0135121), (0.8974794, 97.934))]),
        compressible=st.booleans(),
        modes=st.one_of(
            st.none(),
            _MODES,
            st.dictionaries(st.sampled_from(phasematch.FIELD_NAMES), _MODES, max_size=4),
        ),
        variant=st.sampled_from(["zeisberger", "marcatili"]),
        exclusion=st.floats(0.0, 0.05),
        fault=st.sampled_from([None, *_FAULTS]),
    )
    @settings(max_examples=400, deadline=None)
    def test_curve_equals_reference_delta_beta(
        self, pressure, temperature, core_radius, thickness, wall_index, compressible, modes, variant, exclusion, fault
    ):
        gas = GasDispersion(
            "H2", H2_COEFFICIENTS, 1.01325, 273.15, (lambda p, t: 1.0 + 6e-4 * p) if compressible else None
        )
        geom = FiberGeometry(core_radius, 18.3, thickness, 7, wall_index)
        args = dict(pressure=pressure, temperature=temperature, geom=geom, gas=gas, modes=modes, variant=variant)

        def evaluate(fn, a):
            return _outcome(
                fn, _SCHEME, a["pressure"], a["temperature"], a["geom"], a["gas"], a["modes"], a["variant"], exclusion
            )

        def curve(scheme, pressure, temperature, geom, gas, modes, variant, exclusion):
            return mismatch_curve(scheme, temperature, geom, gas, modes, variant, exclusion)(pressure)

        if fault is not None:
            # a single fault: the inputs without it must be valid
            assume(isinstance(evaluate(_reference_delta_beta, args), float))
            args = _FAULTS[fault](args)
        expected = evaluate(_reference_delta_beta, args)

        def tolerance():
            fields = _scheme_fields(_SCHEME, args["modes"])
            return _sum_tolerance(args["geom"], args["gas"], fields, args["pressure"], args["temperature"], args["variant"])

        assert _agree(evaluate(curve, args), expected, tolerance)
        assert _agree(evaluate(delta_beta, args), expected, tolerance)


# --- reference: the mismatch as a sum of one index closure per field ----------------


def _closure_index_curve(geom, gas, wavelength_nm, temperature_k, mode, variant, exclusion_rel):
    """core_index_curve as it was before the fields shared one kernel: one closure
    per field, each computing its own gas density."""
    if variant not in ("zeisberger", "marcatili"):
        raise ValueError(f"unknown index variant {variant!r}; expected one of {('zeisberger', 'marcatili')}")
    n_wall = geom.wall_refractive_index(wavelength_nm)
    _reference_resonance_check(wavelength_nm, geom.wall_thickness_um, n_wall, exclusion_rel)
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    if temperature_k <= 0:
        raise ValueError("temperature must be positive")
    refractivity = gas.reference_refractivity(wavelength_nm)
    reference_pressure = gas.reference_pressure_bar
    temperature_ratio = gas.reference_temperature_k / temperature_k
    compressibility = gas.compressibility
    lam_m = wavelength_nm * 1e-9
    r_m = geom.core_radius_um * 1e-6
    j = mode.bessel_zero
    u = j * lam_m / (2.0 * math.pi * r_m)
    half_u2 = 0.5 * u * u
    t_m = geom.wall_thickness_um * 1e-6
    n_wall2 = n_wall**2
    phase_coefficient = 2.0 * math.pi * t_m / lam_m
    wall_prefactor = j**2 * lam_m**3 / (8.0 * math.pi**3 * r_m**3)

    def n_eff_of(pressure_bar):
        if pressure_bar < 0:
            raise ValueError("pressure must be non-negative")
        if pressure_bar == 0.0:
            n_g = 1.0
        else:
            rho = (pressure_bar / reference_pressure) * temperature_ratio
            if compressibility is not None:
                rho = rho / compressibility(pressure_bar, temperature_k)
            n_g = math.sqrt(1.0 + rho * refractivity)
        n_eff = n_g - half_u2 / n_g
        if variant == "marcatili":
            return n_eff
        eps = (n_wall / n_g) ** 2
        try:
            phi = phase_coefficient * math.sqrt(n_wall2 - n_g**2)
            polarization_factor = (eps + 1.0) / (2.0 * math.sqrt(eps - 1.0))
            return n_eff - wall_prefactor * polarization_factor / math.tan(phi)
        except (ValueError, ZeroDivisionError):
            raise DispersionDomainError(
                f"at {pressure_bar:g} bar the gas index {n_g:.6g} at {wavelength_nm:g} nm reaches the "
                f"wall index {n_wall:.6g}; the wall model needs the gas index below the wall index"
            ) from None

    return n_eff_of


def _closure_mismatch(scheme, temperature_k, geom, gas, modes, variant, exclusion_rel):
    """The mismatch curve as a signed sum of four per-field closures, in scheme order."""
    signs = {"pump1": 1.0, "pump2": -1.0, "probe": 1.0, "signal": -1.0}
    terms = []
    for (name, lam), (l, m) in zip(scheme.wavelengths_nm().items(), phasematch._field_modes(modes)):
        n_eff = _closure_index_curve(geom, gas, lam, temperature_k, ModeLabel(l, m), variant, exclusion_rel)
        terms.append((signs[name] * (2.0 * math.pi / (lam * 1e-9)), n_eff))

    def mismatch(pressure_bar):
        total = 0.0
        for k0, n_eff in terms:
            total += k0 * n_eff(pressure_bar)
        return total

    return mismatch


def _curve_outcome(build, pressure):
    """The curve's value at pressure, or where and how it failed."""
    try:
        curve = build()
    except Exception as exc:  # the comparison is the point: any type, any message
        return "build", type(exc), str(exc)
    return _outcome(curve, pressure)


#: compression factor of a gas a little stiffer than ideal, pure in (p, T)
def _stiff(p, t):
    return 1.0 + 2e-5 * p * (293.0 / t)


class TestFusedMismatchKernel:
    @given(
        pressure=st.one_of(
            st.just(0.0), st.floats(0.0, 250.0), st.floats(4290.0, 4340.0), st.floats(-100.0, -1e-9)
        ),
        temperature=st.one_of(st.just(293.0), st.floats(200.0, 400.0)),
        core_radius=st.floats(10.0, 40.0),
        thickness=st.floats(0.4, 2.0),
        wall_index=st.sampled_from([1.444, ((0.6961663, 0.0046791), (0.4079426, 0.0135121), (0.8974794, 97.934))]),
        compressibility=st.sampled_from([None, _stiff]),
        modes=st.one_of(
            st.none(), st.sampled_from([LP01, LP11]), st.sampled_from(phasematch.FIELD_NAMES).map(lambda f: {f: LP11})
        ),
        variant=st.sampled_from(["zeisberger", "marcatili"]),
        exclusion=st.floats(0.0, 0.05),
    )
    @settings(max_examples=400, deadline=None)
    def test_fused_curve_equals_the_closure_sum(
        self, pressure, temperature, core_radius, thickness, wall_index, compressibility, modes, variant, exclusion
    ):
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, compressibility)
        geom = FiberGeometry(core_radius, 18.3, thickness, 7, wall_index)
        args = (_SCHEME, temperature, geom, gas, modes, variant, exclusion)
        fields = _scheme_fields(_SCHEME, modes)
        expected = _curve_outcome(lambda: _closure_mismatch(*args), pressure)
        assert _agree(
            _curve_outcome(lambda: mismatch_curve(*args), pressure),
            expected,
            lambda: _sum_tolerance(geom, gas, fields, pressure, temperature, variant),
        )
        for _, lam, mode in fields:
            field = (geom, gas, lam, temperature, mode, variant, exclusion)
            assert _agree(
                _curve_outcome(lambda: core_index_curve(*field), pressure),
                _curve_outcome(lambda: _closure_index_curve(*field), pressure),
                lambda: _sum_tolerance(geom, gas, [(1.0, lam, mode)], pressure, temperature, variant),
            )

    @pytest.mark.parametrize("compressibility", [None, _stiff])
    @pytest.mark.parametrize("wall_index", [1.444, ((1.0, 0.004), (0.08, 0.01))])
    def test_first_field_at_the_wall_index_names_itself(self, compressibility, wall_index):
        # from ~4300 bar on, the gas index of one field after another reaches the wall index
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, compressibility)
        geom = FiberGeometry(23.0, 18.3, 1.28, 7, wall_index)
        args = (_SCHEME, T_K, geom, gas, None, "zeisberger", REFERENCE_EXCLUSION)
        fused, closures = mismatch_curve(*args), _closure_mismatch(*args)
        named = set()
        fields = _scheme_fields(_SCHEME, None)
        for step in range(700):
            p = 4200.0 + step
            expected = _outcome(closures, p)
            assert _agree(_outcome(fused, p), expected, lambda: _sum_tolerance(geom, gas, fields, p, T_K, "zeisberger"))
            if not isinstance(expected, float):
                named.add(expected[1].split(" nm ")[0].rsplit(" ", 1)[1])
        # the probe's gas index reaches the wall first, then pump2's, then pump1's;
        # the error names the first field in scheme order that is past it
        assert named == {"914", "942", "1550"}

    def test_compressibility_called_once_per_pressure(self, fiber_geom):
        calls = []
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, lambda p, t: calls.append((p, t)) or 1.0)
        curve = mismatch_curve(_SCHEME, T_K, fiber_geom, gas, resonance_exclusion_rel=REFERENCE_EXCLUSION)
        curve(0.0)
        curve(90.0)
        assert calls == [(90.0, T_K)]


# --- reference: delta_beta to 40 significant digits ---------------------------------


def _exact_delta_beta(scheme, pressure_bar, temperature_k, geom, gas):
    """The LP01 Zeisberger mismatch of the given double inputs, evaluated in 40-digit arithmetic."""
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        signs = {"pump1": 1, "pump2": -1, "probe": 1, "signal": -1}
        r, t = mpf(geom.core_radius_um) * mpf("1e-6"), mpf(geom.wall_thickness_um) * mpf("1e-6")
        rho = (mpf(pressure_bar) / mpf(gas.reference_pressure_bar)) * (
            mpf(gas.reference_temperature_k) / mpf(temperature_k)
        )
        j = mpf(LP01.bessel_zero)
        total = mpf(0)
        for name, lam_nm in scheme.wavelengths_nm().items():
            lam = mpf(lam_nm) * mpf("1e-9")
            l2 = (mpf(lam_nm) * mpf("1e-3")) ** 2
            n_g = mpmath.sqrt(1 + rho * sum(mpf(b) * l2 / (l2 - mpf(c)) for b, c in gas.refractivity_coefficients))
            n_wall = mpf(geom.wall_refractive_index(lam_nm))
            u = j * lam / (2 * mpmath.pi * r)
            eps = (n_wall / n_g) ** 2
            phi = 2 * mpmath.pi * t / lam * mpmath.sqrt(n_wall**2 - n_g**2)
            wall = j**2 * lam**3 / (8 * mpmath.pi**3 * r**3) * (eps + 1) / (2 * mpmath.sqrt(eps - 1)) * mpmath.cot(phi)
            total += signs[name] * 2 * mpmath.pi / lam * (n_g - u**2 / (2 * n_g) - wall)
        return total


class TestKernelAccuracy:
    def test_no_less_accurate_than_the_closure_formula(self):
        # 300 seeded designs in design-sweep's ranges, outside the 2 % guard band
        rng = random.Random(0)
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)
        kernel, closure = [], []
        while len(kernel) < 300:
            geom = FiberGeometry(rng.uniform(22.0, 24.0), 18.3, rng.uniform(1.235, 1.297), 7, 1.444)
            temperature, pressure = rng.uniform(283.0, 303.0), rng.uniform(60.0, 110.0)
            args = (_SCHEME, pressure, temperature, geom, gas, None, "zeisberger", REFERENCE_EXCLUSION)
            try:
                value = delta_beta(*args)
            except ResonanceProximityError:
                continue
            exact = _exact_delta_beta(_SCHEME, pressure, temperature, geom, gas)
            kernel.append(float(abs(value - exact)))
            closure.append(float(abs(_reference_delta_beta(*args) - exact)))
        # measured: median 6.4e-11 and largest 1.0e-10 rad/m, against 9.3e-10 and 4.7e-9 for the closure formula
        assert statistics.median(kernel) <= statistics.median(closure)
        assert max(kernel) <= max(closure)
