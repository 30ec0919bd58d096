import math

import pytest

from csrskit import bendloss
from csrskit.bendloss import (
    NoResonanceError,
    capillary_center_distance,
    critical_bend_radius,
    mode_accessibility,
    touching_capillary_radius,
)
from csrskit.core_model import FiberGeometry, LP01, LP11, ModeLabel, marcatili_mode_index


def make_geom(r_cap: float = 18.3) -> FiberGeometry:
    return FiberGeometry(23.0, r_cap, 1.28, 7, 1.444)


class TestCapillaryGeometry:
    def test_touching_construction(self):
        # closed-form circle packing: rho = r s / (1 - s), s = sin(pi/N)
        s = math.sin(math.pi / 7.0)
        expected = 23.0 * s / (1.0 - s)
        got = touching_capillary_radius(23.0, 7)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(17.6, abs=0.05)

    def test_distance_is_sum_of_radii(self):
        assert capillary_center_distance(make_geom()) == pytest.approx(41.3, rel=1e-12)

    def test_degenerate_capillary(self):
        geom = make_geom(r_cap=1e-9)
        assert capillary_center_distance(geom) == pytest.approx(23.0, rel=1e-9)

    def test_angle_resolved_never_exceeds_worst_case(self):
        geom = make_geom()
        worst = capillary_center_distance(geom)
        for k in range(40):
            az = k * math.pi / 40.0
            assert capillary_center_distance(geom, "angle-resolved", az) <= worst + 1e-12

    def test_invalid_alignment(self):
        with pytest.raises(ValueError):
            capillary_center_distance(make_geom(), "diagonal")


class TestCriticalBendRadius:
    def test_reference_value(self):
        # independent evaluation of the full chain
        geom = make_geom()
        n_core = marcatili_mode_index(914.0, 23.0, LP01)
        n_clad = marcatili_mode_index(914.0, 18.3, LP11)
        expected = 41.3e-6 / (math.sqrt(n_core / n_clad) - 1.0)
        got = critical_bend_radius(geom, 914.0, LP01, LP11)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.237, abs=5e-4)

    def test_touching_geometry_value(self):
        geom = make_geom(r_cap=touching_capillary_radius(23.0, 7))
        got = critical_bend_radius(geom, 914.0, LP01, LP11)
        assert got == pytest.approx(0.211, abs=1e-3)
        # fundamental-to-fundamental pairing sits near one meter
        same = critical_bend_radius(geom, 914.0, LP01, LP01)
        assert same == pytest.approx(1.0, abs=0.01)

    def test_long_wavelength_limit_shrinks(self):
        # indices approach 1 as lambda -> 0, so R grows without bound
        geom = make_geom()
        radii = [critical_bend_radius(geom, lam, LP01, LP11) for lam in (1600.0, 800.0, 400.0, 200.0)]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_monotone_in_distance(self):
        radii = []
        for r_cap in [14.0 + 0.1 * k for k in range(100)]:
            geom = make_geom(r_cap=r_cap)
            radii.append(critical_bend_radius(geom, 914.0, LP01, LP11))
        # larger capillary raises both d and n_clad; net effect here is growth
        diffs = [b - a for a, b in zip(radii, radii[1:])]
        assert all(d > 0 for d in diffs)

    def test_monotone_in_cladding_bessel_zero(self):
        geom = make_geom()
        zeros = []
        radii = []
        for clad in (ModeLabel(0, 1), ModeLabel(1, 1), ModeLabel(2, 1), ModeLabel(0, 2), ModeLabel(3, 1)):
            zeros.append(clad.bessel_zero)
            radii.append(critical_bend_radius(geom, 914.0, LP01, clad))
        paired = sorted(zip(zeros, radii))
        assert all(r2 < r1 for (_, r1), (_, r2) in zip(paired, paired[1:]))

    def test_no_resonance_for_equal_radii(self):
        geom = FiberGeometry(23.0, 23.0, 1.28, 7, 1.444)
        with pytest.raises(NoResonanceError):
            critical_bend_radius(geom, 914.0, LP01, LP01)

    def test_no_resonance_when_cladding_mode_above(self):
        # big capillary: its fundamental sits above the core LP11
        geom = FiberGeometry(23.0, 40.0, 1.28, 7, 1.444)
        with pytest.raises(NoResonanceError):
            critical_bend_radius(geom, 914.0, LP11, LP01)


class TestModeAccessibility:
    def test_tight_coil_suppresses_fundamental_only(self):
        flags = {a.mode: a for a in mode_accessibility(make_geom(), 914.0, 0.05, is_probe=True)}
        assert flags[LP01].suppressed
        assert not flags[LP11].suppressed
        assert any("0.10" in note for note in flags[LP01].annotations)

    def test_gentle_coil_keeps_everything(self):
        flags = mode_accessibility(make_geom(), 914.0, 10.0)
        assert not any(a.suppressed for a in flags)

    def test_toggle_at_critical_radius(self):
        geom = make_geom()
        r_crit = critical_bend_radius(geom, 914.0, LP01, LP11)
        below = {a.mode: a for a in mode_accessibility(geom, 914.0, r_crit * 0.999)}
        above = {a.mode: a for a in mode_accessibility(geom, 914.0, r_crit * 1.001)}
        assert below[LP01].suppressed
        assert not above[LP01].suppressed

    def test_no_probe_annotation_for_other_fields(self):
        flags = {a.mode: a for a in mode_accessibility(make_geom(), 1550.0, 0.05, is_probe=False)}
        assert flags[LP01].annotations == ()

    def test_custom_pairing(self):
        geom = make_geom()
        flags = {
            a.mode: a
            for a in mode_accessibility(
                geom, 914.0, 0.3, cladding_pairs={LP01: (LP01, LP11), LP11: ()}
            )
        }
        # LP01 against the capillary fundamental has a ~1.2 m critical radius
        assert flags[LP01].suppressed
        assert flags[LP01].limiting_radius_m > 1.0


class TestNonFiniteInput:
    """Each case returned a number or the wrong error before it was named."""

    def test_nan_bend_radius(self):
        # reported LP01 as accessible
        with pytest.raises(ValueError, match="^bend_radius_m must be positive, got nan"):
            mode_accessibility(make_geom(), 914.0, math.nan)

    def test_straight_fiber_is_valid(self):
        flags = mode_accessibility(make_geom(), 914.0, math.inf)
        assert not any(a.suppressed for a in flags)
        assert flags[0].limiting_radius_m == critical_bend_radius(make_geom(), 914.0)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, 0.0])
    def test_bad_wavelength_in_accessibility_before_the_cache(self, wavelength):
        # nan gave a nan limiting radius and "not suppressed"
        before = bendloss._cached_critical_radius.cache_info()
        with pytest.raises(ValueError, match=f"^wavelength_nm must be positive and finite, got {wavelength!r}"):
            mode_accessibility(make_geom(), wavelength, 0.3)
        with pytest.raises(ValueError, match="^wavelength_nm"):  # no pairing to evaluate: still checked
            mode_accessibility(make_geom(), wavelength, 0.3, cladding_pairs={})
        assert bendloss._cached_critical_radius.cache_info() == before

    def test_nan_wavelength_in_critical_radius(self):
        with pytest.raises(ValueError, match="^wavelength_nm must be positive and finite, got nan"):
            critical_bend_radius(make_geom(), math.nan)

    def test_infinite_wavelength_is_named_not_a_missing_resonance(self):
        # raised NoResonanceError "n = -inf"
        with pytest.raises(ValueError, match="^wavelength_nm must be positive and finite, got inf") as info:
            critical_bend_radius(make_geom(), math.inf)
        assert not isinstance(info.value, NoResonanceError)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, -914.0])
    def test_marcatili_index_wavelength(self, wavelength):
        with pytest.raises(ValueError, match=f"^wavelength_nm must be positive and finite, got {wavelength!r}"):
            marcatili_mode_index(wavelength, 23.0, LP01)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
    def test_marcatili_index_radius(self, radius):
        with pytest.raises(ValueError, match=f"^radius_um must be positive and finite, got {radius!r}"):
            marcatili_mode_index(914.0, radius, LP01)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf])
    def test_angle_resolved_azimuth(self, azimuth):
        # returned nan
        with pytest.raises(ValueError, match=f"^azimuth_rad must be finite, got {azimuth!r}"):
            capillary_center_distance(make_geom(), "angle-resolved", azimuth)
        assert capillary_center_distance(make_geom(), "worst-case", azimuth) == pytest.approx(41.3)


class TestCriticalRadiusCache:
    """mode_accessibility takes critical radii from a cache keyed by value."""

    @pytest.fixture
    def computed(self, monkeypatch) -> list:
        """Every critical radius actually computed, counted at the module
        attribute that a cache miss calls."""
        bendloss._cached_critical_radius.cache_clear()
        calls = []
        solve = bendloss.critical_bend_radius
        monkeypatch.setattr(bendloss, "critical_bend_radius", lambda *a: calls.append(a) or solve(*a))
        return calls

    def test_matches_the_uncached_radius(self, computed):
        pairs = {LP01: (LP01, LP11, ModeLabel(0, 2)), LP11: (LP01, ModeLabel(2, 1))}
        for r_cap in (12.0, 18.3, 22.9):
            geom = make_geom(r_cap)
            for lam in (532.0, 914.0, 1550.0):
                for access in mode_accessibility(geom, lam, 0.3, cladding_pairs=pairs):
                    expected = {}
                    for clad in pairs[access.mode]:
                        try:
                            expected[clad] = critical_bend_radius(geom, lam, access.mode, clad)
                        except NoResonanceError:
                            pass
                    assert access.critical_radii_m == expected
                    assert access.limiting_radius_m == (max(expected.values()) if expected else None)

    def test_a_bend_sweep_computes_the_radius_once(self, computed):
        geom = make_geom()
        sweep = [mode_accessibility(geom, 914.0, 0.05 + 0.01 * k) for k in range(56)]
        assert len(computed) == 1  # it was 56
        assert [a[0].suppressed for a in sweep] == [0.05 + 0.01 * k < sweep[0][0].limiting_radius_m for k in range(56)]

    def test_an_equal_but_distinct_geometry_hits(self, computed):
        mode_accessibility(make_geom(), 914.0, 0.3)
        mode_accessibility(make_geom(), 914.0, 0.4)
        assert len(computed) == 1
        mode_accessibility(make_geom(18.4), 914.0, 0.3)
        mode_accessibility(make_geom(), 1550.0, 0.3)
        assert len(computed) == 3

    def test_no_resonance_is_not_cached(self, computed):
        geom = FiberGeometry(23.0, 23.0, 1.28, 7, 1.444)  # LP01/LP01 has no resonance
        for _ in range(3):
            (access,) = mode_accessibility(geom, 914.0, 0.3, modes=(LP01,), cladding_pairs={LP01: (LP01,)})
            assert access.critical_radii_m == {} and access.limiting_radius_m is None
        assert len(computed) == 3

    def test_each_call_gets_its_own_results(self, computed):
        first = mode_accessibility(make_geom(), 914.0, 0.3, is_probe=True)
        first[0].critical_radii_m[LP11] = -1.0
        first[0].critical_radii_m[LP01] = 5.0
        second = mode_accessibility(make_geom(), 914.0, 0.3, is_probe=True)
        assert second[0].critical_radii_m == {LP11: critical_bend_radius(make_geom(), 914.0)}
        assert second[0] is not first[0] and second[0].critical_radii_m is not first[0].critical_radii_m
        assert isinstance(second[0].annotations, tuple) and second[1].annotations == ()
