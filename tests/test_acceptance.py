"""Acceptance suite: the toolkit's exit criteria.

Each test implements one numbered criterion at its stated tolerance and
prints a [PASS]/[FAIL] line (run with -s to see them).  Model-side
numbers are checked against the reference experiment's published
anchors; statistical criteria run seeded Monte-Carlo replicates.
"""

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from csrskit.bendloss import critical_bend_radius, touching_capillary_radius
from csrskit.cli import main
from csrskit.config import load_config
from csrskit.core_model import LP01, LP11, ModeLabel, transmission_window, resonance_wavelengths
from csrskit.efficiency import (
    EfficiencyModel,
    LightField,
    ModelValidityWarning,
    loss_bookkeeping,
    optimal_length,
    predicted_efficiency,
)
from csrskit.fitting import DataSeries, fit_bend_saturation, fit_cutback, fit_efficiency_length
from csrskit.phasematch import (
    delta_beta,
    optimal_pressure,
    raman_beat_thz,
    signal_wavelength,
)
from tests.conftest import REPO_ROOT

CONFIG = load_config(REPO_ROOT / "configs" / "h2_914nm.yaml")
LONG_FIBER = REPO_ROOT / "configs" / "h2_long_fiber.yaml"


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:2d}: {text}")
        raise
    print(f"[PASS] criterion {number:2d}: {text}")


def test_criterion_1_scheme_arithmetic():
    with criterion(1, "scheme arithmetic: signal wavelength and pump beat"):
        signal = signal_wavelength(914.0, 1550.0, 942.0)
        assert signal == pytest.approx(1475.6, abs=0.05)
        assert abs(signal - 1474.0) < 3.0  # published rounded target
        beat = raman_beat_thz(1550.0, 942.0)
        assert beat == pytest.approx(124.8, abs=0.05)
        assert abs(beat - 125.0) < 0.5  # published rounded value


def test_criterion_2_resonance_placement():
    with criterion(2, "wall resonance at 1.333 um; probe and short pump in window 3"):
        lams_nm = resonance_wavelengths(1.28, 1.444, 3)
        assert lams_nm[1] * 1e-3 == pytest.approx(1.333, abs=5e-4)
        assert abs(lams_nm[1] - 1330.0) < 30.0  # observed dip position
        assert transmission_window(914.0, 1.28, 1.444) == 3
        assert transmission_window(942.0, 1.28, 1.444) == 3


def test_criterion_3_phase_matching_pressure():
    with criterion(3, "optimal pressure in 60..100 bar, bracket-independent, scan-verified"):
        start = time.monotonic()
        scheme = CONFIG.scheme()
        geom = CONFIG.fiber_geometry()
        gas = CONFIG.gas_dispersion()
        t_k = CONFIG.temperature_k()
        kwargs = dict(variant=CONFIG.index_variant(), resonance_exclusion_rel=CONFIG.resonance_exclusion_rel())

        sol = optimal_pressure(scheme, t_k, geom, gas, **kwargs)
        assert 60.0 < sol.pressure_bar < 100.0
        print(f"        p_opt = {sol.pressure_bar:.2f} bar (anchor: 83 +/- 2 bar measured)")

        roots = [
            optimal_pressure(scheme, t_k, geom, gas, bracket=b, **kwargs).pressure_bar
            for b in ((1.0, 200.0), (60.0, 110.0), (85.0, 105.0))
        ]
        assert max(roots) - min(roots) < 0.01

        # independent dense-scan oracle: sign change on a 0.1 bar grid
        grid = np.arange(60.0, 100.0, 0.1)
        values = [delta_beta(scheme, p, t_k, geom, gas, **kwargs) for p in grid]
        signs = np.sign(values)
        (idx,) = np.nonzero(np.diff(signs) > 0)
        assert idx.size == 1
        assert grid[idx[0]] <= sol.pressure_bar <= grid[idx[0] + 1]
        assert time.monotonic() - start < 5.0


def test_criterion_4_efficiency_numbers():
    with criterion(4, "full-power efficiencies vs the 1.9 % and 0.27 % anchors"):
        lossless = EfficiencyModel(0.0044, "lossless")
        eta_max = predicted_efficiency(
            lossless, LightField(1550.0, 15.0), LightField(942.0, 8.0), LightField(914.0, 1e-3), 1.85
        )
        assert eta_max * 100 == pytest.approx(1.81, abs=0.01)
        assert abs(eta_max - 0.019) / 0.019 < 0.10

        book = loss_bookkeeping(0.0044, 0.006, 1.85, 0.07, 0.37, 0.93)
        lumped = EfficiencyModel(0.0044, "lumped-exponential", book.total_attenuation_db_per_m)
        eta = predicted_efficiency(
            lumped, LightField(1550.0, 12.6), LightField(942.0, 3.87), LightField(914.0, 1e-3), 1.85
        )
        assert eta * 100 == pytest.approx(0.29, abs=0.005)
        assert abs(eta - 0.0027) / 0.0027 < 0.10
        print(
            f"        eta(12.6 W x 3.87 W) = {eta * 100:.4f} % vs measured 0.27 % "
            f"(residual discrepancy {100 * (eta - 0.0027) / 0.0027:+.1f} %)"
        )


def test_criterion_5_loss_bookkeeping():
    with criterion(5, "attenuation bookkeeping reconciles the two fitted coefficients"):
        book = loss_bookkeeping(0.0044, 0.006, 1.85, 0.07, 0.37, 0.93)
        assert book.total_attenuation_db_per_m == pytest.approx(2.16, abs=0.01)
        assert book.signal_attenuation_db_per_m == pytest.approx(2.16 - (0.07 + 0.37 + 0.93), abs=0.01)
        print(
            f"        total = {book.total_attenuation_db_per_m:.3f} dB/m, "
            f"signal = {book.signal_attenuation_db_per_m:.3f} dB/m"
        )


def test_criterion_6_bend_radius():
    with criterion(6, "critical bend radius 0.237 m (within 20 % of 24 cm) and monotonicity"):
        geom = CONFIG.fiber_geometry()
        radius = critical_bend_radius(geom, 914.0, LP01, LP11)
        assert radius == pytest.approx(0.237, abs=5e-4)
        assert abs(radius - 0.24) / 0.24 < 0.20
        # derived touching-capillary geometry stays inside the same tolerance
        touching = replace(geom, capillary_inner_radius_um=touching_capillary_radius(23.0, 7))
        assert abs(critical_bend_radius(touching, 914.0, LP01, LP11) - 0.24) / 0.24 < 0.20

        # monotone increasing in the projected distance d (via capillary radius)
        radii = [
            critical_bend_radius(replace(geom, capillary_inner_radius_um=r), 914.0, LP01, LP11)
            for r in np.linspace(14.0, 22.0, 100)
        ]
        assert all(b > a for a, b in zip(radii, radii[1:]))

        # monotone decreasing in the cladding mode's Bessel zero, full
        # supported mode grid
        labels = [ModeLabel(l, m) for l in range(6) for m in range(1, 6)]
        pairs = sorted((lbl.bessel_zero, critical_bend_radius(geom, 914.0, LP01, lbl)) for lbl in labels)
        assert all(r2 < r1 for (_, r1), (_, r2) in zip(pairs, pairs[1:]))


def test_criterion_7_parasitic_screening():
    with criterion(7, "exactly the two known parasitic channels, none from the probe"):
        from csrskit.raman_screen import load_catalog, screen

        catalog = load_catalog(CONFIG.catalog_path())
        fields = CONFIG.light_fields()
        flags = screen(
            [fields["pump1"], fields["pump2"]],
            fields["probe"],
            catalog,
            CONFIG.bandpass(),
            CONFIG.strength_threshold(),
        )
        assert len(flags) == 2
        stokes = next(f for f in flags if f.direction == "stokes")
        anti = next(f for f in flags if f.direction == "anti-stokes")
        assert stokes.source == "pump2" and stokes.line.branch == "O" and stokes.line.j_lower == 2
        assert stokes.line.band == "1-0"
        assert abs(stokes.wavelength_nm - 1468.3) <= 1.0  # published: 1468.6 nm
        assert anti.source == "pump1" and anti.line.branch == "S" and anti.line.j_lower == 0
        assert anti.line.band == "0-0"
        assert abs(anti.wavelength_nm - 1469.4) <= 0.5  # published: 1469.3 nm
        half_width = CONFIG.bandpass().width_nm / 2
        assert all(abs(f.wavelength_nm - CONFIG.bandpass().center_nm) <= half_width for f in flags)
        assert not any(f.source == "probe" for f in flags)


def test_criterion_8_fit_recovery():
    with criterion(8, "fitters: exact on noiseless data, calibrated on 1000 noisy replicates"):
        start = time.monotonic()

        # exact recovery, residual below 1e-8
        x = np.linspace(0.1, 2.0, 12)
        for alpha in (0.07, 0.37, 0.93):
            res = fit_cutback(DataSeries(x, -alpha * x - 0.8))
            assert res.residual_norm < 1e-8
            assert res.parameters["alpha_db_per_m"] == pytest.approx(alpha, abs=1e-10)

        model = EfficiencyModel(0.0044, "lumped-exponential", 0.79)
        flds = (LightField(1550.0, 3.0, 0.07), LightField(942.0, 3.0, 0.37), LightField(914.0, 1e-3, 0.93))
        lengths = np.array([0.27, 1.16, 1.47, 1.85])
        etas = np.array([predicted_efficiency(model, *flds, length_m=l) for l in lengths])
        res = fit_efficiency_length(DataSeries(lengths, etas), model, *flds)
        assert res.residual_norm < 1e-8
        assert res.parameters["coefficient_pct_per_w2m2"] == pytest.approx(0.0044, rel=1e-10)

        xb = np.linspace(0.12, 0.60, 25)
        clean = 83.0 * (1.0 - np.exp(-8.0 * (xb - 0.10)))
        res = fit_bend_saturation(DataSeries(xb, clean))
        assert res.residual_norm < 1e-8
        assert res.parameters["p_max"] == pytest.approx(83.0, rel=1e-8)

        # 1000 seeded noisy replicates per case: the generating value must lie
        # within 3 standard errors in >= 99 % (cut-back) / >= 98 % (saturation)
        xc = np.linspace(0.0, 2.0, 20)
        for alpha in (0.07, 0.37, 0.93):
            hits = 0
            for k in range(1000):
                rng = np.random.default_rng([20260811, int(alpha * 1000), k])
                series = DataSeries(xc, -alpha * xc - 0.8 + rng.normal(0.0, 0.2, xc.size))
                fit = fit_cutback(series)
                if abs(fit.parameters["alpha_db_per_m"] - alpha) <= 3 * fit.standard_errors["alpha_db_per_m"]:
                    hits += 1
            assert hits >= 990, f"alpha={alpha}: {hits}/1000 inside 3 SE"

        hits_p = hits_r = 0
        for k in range(1000):
            rng = np.random.default_rng([20260811, 6, k])
            fit = fit_bend_saturation(DataSeries(xb, clean + rng.normal(0.0, 1.0, xb.size)))
            assert fit.converged
            if abs(fit.parameters["p_max"] - 83.0) <= 3 * fit.standard_errors["p_max"]:
                hits_p += 1
            if abs(fit.parameters["r0"] - 0.10) <= 3 * fit.standard_errors["r0"]:
                hits_r += 1
        assert hits_p >= 980, f"p_max: {hits_p}/1000 inside 3 SE"
        assert hits_r >= 980, f"r0: {hits_r}/1000 inside 3 SE"

        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        print(f"        Monte-Carlo block finished in {elapsed:.1f} s")


def test_criterion_9_model_properties():
    with criterion(9, "bilinearity, quadratic length scaling, loss limits, optimality"):
        start = time.monotonic()
        # bilinear in pump powers, every variant
        for variant in ("lossless", "lumped-exponential", "amplitude-integral"):
            model = EfficiencyModel(0.0044, variant, 0.5)
            base = (LightField(1550.0, 2.0, 0.1), LightField(942.0, 5.0, 0.2), LightField(914.0, 1e-3, 0.3))
            eta = predicted_efficiency(model, *base, length_m=1.5)
            scaled = predicted_efficiency(
                model,
                replace(base[0], power_w=2.0 * 1.7),
                replace(base[1], power_w=5.0 * 0.6),
                base[2],
                1.5,
            )
            assert scaled == pytest.approx(1.7 * 0.6 * eta, rel=1e-12)

        # exactly quadratic in length for the lossless variant
        model = EfficiencyModel(0.0044, "lossless")
        flds = (LightField(1550.0, 3.0), LightField(942.0, 3.0), LightField(914.0, 1e-3))
        ratio = predicted_efficiency(model, *flds, length_m=3.7) / predicted_efficiency(model, *flds, length_m=1.85)
        assert ratio == pytest.approx(4.0, rel=1e-14)

        # amplitude-integral converges to lossless as losses vanish
        tiny = 1e-9
        eta_ai = predicted_efficiency(
            EfficiencyModel(0.0044, "amplitude-integral", tiny),
            LightField(1550.0, 3.0, tiny),
            LightField(942.0, 3.0, tiny),
            LightField(914.0, 1e-3, tiny),
            1.85,
        )
        eta_ll = predicted_efficiency(model, *flds, length_m=1.85)
        assert abs(eta_ai - eta_ll) / eta_ll < 1e-6

        # first-order optimality of the length search
        am = EfficiencyModel(0.0044, "amplitude-integral", 0.3)
        aflds = (LightField(1550.0, 3.0, 0.3), LightField(942.0, 3.0, 0.3), LightField(914.0, 1e-3, 0.3))
        opt = optimal_length(am, *aflds)
        h = opt.length_m * 1e-6
        slope = (
            predicted_efficiency(am, *aflds, length_m=opt.length_m + h)
            - predicted_efficiency(am, *aflds, length_m=opt.length_m - h)
        ) / (2 * h)
        assert abs(slope) * opt.length_m / opt.efficiency < 1e-5

        # closed-form optimum of the lumped variant matches the search to 0.1 %
        lm = EfficiencyModel(0.0044, "lumped-exponential", 0.414)
        opt = optimal_length(lm, *flds)
        assert opt.length_m == pytest.approx(2.0 / (0.414 * math.log(10.0) / 10.0), rel=1e-3)
        assert time.monotonic() - start < 10.0


def test_criterion_10_documented_non_reproduction(tmp_path):
    with criterion(10, "long-fiber scenario config run next to the external 21 m / 70 % claim"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every eta > 1 stays inside the CLI's warning scope
            assert main(["--config", str(LONG_FIBER), "--out", str(tmp_path), "efficiency"]) == 0
        text = (tmp_path / "efficiency_vs_length.csv").read_text()
        header = [line[2:] for line in text.splitlines() if line.startswith("# ")]
        rows = {float(x): float(y) for x, y in (line.split(",") for line in text.splitlines()[len(header) + 1 :])}
        # the toolkit's own optimum under the lumped model, not the claim
        assert "optimal_length_m: 136.570591793" in header
        assert rows[21.0] == pytest.approx(1.1794, abs=1e-4)
        # the undepleted model leaves validity well before the claim's regime,
        # and the output says so instead of hiding it
        assert "warning: efficiencies above 1 are outside the undepleted-pump validity range" in header
        print(f"        L_opt = 136.6 m vs claimed 21 m; eta(21 m) = {rows[21.0]:.3f} vs claimed 0.70")


def test_long_fiber_scenario_bit_for_bit():
    """The long-fiber scenario's three numbers, as the efficiency model gives them.

    At the claimed optimum length of 21 m this model predicts eta = 1.1794,
    where the external claim is 0.70: above 1 the undepleted-pump model is
    outside its validity range.  Its own optimum lies at L* = 136.6 m with
    eta(L*) = 9.18.
    """
    config = load_config(LONG_FIBER)
    model, fields = config.efficiency_model(), config.light_fields().values()
    with pytest.warns(ModelValidityWarning):
        optimum = optimal_length(model, *fields)
        eta_21 = predicted_efficiency(model, *fields, config.fiber_length_m())
    assert config.fiber_length_m() == 21.0
    assert [optimum.length_m.hex(), optimum.efficiency.hex(), eta_21.hex()] == [
        "0x1.1124249b88af8p+7",  # 136.570591793 m
        "0x1.25cf2cc6824acp+3",  # 9.18153990527
        "0x1.2dee819a945dbp+0",  # 1.17942056679
    ]