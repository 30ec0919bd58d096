import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from csrskit.core_model import (
    DispersionDomainError,
    FiberGeometry,
    GasDispersion,
    LP01,
    LP11,
    MAX_AZIMUTHAL_ORDER,
    MAX_RADIAL_ORDER,
    ModeLabel,
    ResonanceProximityError,
    WallIndexTable,
    bessel_zero,
    core_index_curve,
    effective_core_index,
    gas_index,
    marcatili_mode_index,
    resonance_wavelengths,
    transmission_window,
)
from csrskit.phasematch import ConversionScheme
from tests.conftest import H2_COEFFICIENTS, REFERENCE_EXCLUSION, REPO_ROOT

# immutable instance shared by the hypothesis property tests
_H2 = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15)


# --- independent oracle: power series of J_l plus bisection ------------------


def j_series(l: int, x: float) -> float:
    """Bessel J_l by its power series; plenty accurate for x < 15."""
    term = (x / 2.0) ** l / math.factorial(l)
    total = term
    for k in range(1, 60):
        term *= -((x / 2.0) ** 2) / (k * (k + l))
        total += term
    return total


def bisect_zero(l: int, lo: float, hi: float) -> float:
    f_lo = j_series(l, lo)
    assert f_lo * j_series(l, hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_lo * j_series(l, mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = j_series(l, lo)
    return 0.5 * (lo + hi)


class TestBesselZero:
    # frozen from the series/bisection oracle below
    CASES = [
        ((0, 1), 2.4048255577),
        ((1, 1), 3.8317059702),
        ((0, 2), 5.5200781103),
    ]

    @pytest.mark.parametrize("order,expected", CASES)
    def test_frozen_values(self, order, expected):
        assert bessel_zero(*order) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("order,bracket", [((0, 1), (2.0, 3.0)), ((1, 1), (3.0, 4.5)), ((0, 2), (5.0, 6.0))])
    def test_against_series_oracle(self, order, bracket):
        independent = bisect_zero(order[0], *bracket)
        assert bessel_zero(*order) == pytest.approx(independent, abs=1e-10)

    def test_deterministic(self):
        assert bessel_zero(2, 3) == bessel_zero(2, 3)

    @pytest.mark.parametrize("l,m", [(-1, 1), (6, 1), (0, 0), (0, 6)])
    def test_range_errors(self, l, m):
        with pytest.raises(ValueError):
            bessel_zero(l, m)

    @pytest.mark.parametrize(
        "l,m,match",
        [
            (-1, 1, "azimuthal order l=-1"),
            (6, 5, "azimuthal order l=6"),
            (5, 0, "radial order m=0"),
            (0, 6, "radial order m=6"),
        ],
    )
    def test_range_error_names_the_order(self, l, m, match):
        with pytest.raises(ValueError, match=match):
            bessel_zero(l, m)

    @pytest.mark.parametrize("l", range(MAX_AZIMUTHAL_ORDER + 1))
    @pytest.mark.parametrize("m", range(1, MAX_RADIAL_ORDER + 1))
    def test_table_equals_scipy_exactly(self, l, m):
        assert bessel_zero(l, m) == float(jn_zeros(l, m)[m - 1])

    def test_mode_label_carries_zero(self):
        assert ModeLabel(0, 1).bessel_zero == bessel_zero(0, 1)
        with pytest.raises(ValueError):
            ModeLabel(0, 0)


class TestGasIndex:
    def test_vacuum_is_exactly_one(self, h2_gas):
        for lam in (300.0, 914.0, 1550.0, 5000.0):
            assert gas_index(h2_gas, lam, 0.0, 293.0) == 1.0

    def test_double_reference_density_doubles_refractivity(self, h2_gas):
        lam = 1550.0
        n = gas_index(h2_gas, lam, 2.0 * h2_gas.reference_pressure_bar, h2_gas.reference_temperature_k)
        assert n**2 - 1.0 == pytest.approx(2.0 * h2_gas.reference_refractivity(lam), rel=1e-12)

    def test_dense_grid_cross_check(self, h2_gas):
        # interpolate the same formula on a fine grid around the target
        lam0, p, t = 914.0, 83.0, 293.0
        grid = [lam0 - 0.5 + 0.001 * k for k in range(1001)]
        values = [gas_index(h2_gas, lam, p, t) for lam in grid]
        i = min(range(len(grid)), key=lambda k: abs(grid[k] - lam0))
        assert grid[i] == pytest.approx(lam0, abs=1e-9)
        assert gas_index(h2_gas, lam0, p, t) == pytest.approx(values[i], abs=1e-12)

    def test_above_unity_when_pressurized(self, h2_gas):
        assert gas_index(h2_gas, 914.0, 1.0, 293.0) > 1.0

    @given(
        p_lo=st.floats(min_value=0.0, max_value=100.0),
        dp=st.floats(min_value=1e-3, max_value=100.0),
        lam=st.floats(min_value=300.0, max_value=3000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_pressure(self, p_lo, dp, lam):
        assert gas_index(_H2, lam, p_lo, 293.0) < gas_index(_H2, lam, p_lo + dp, 293.0)

    def test_pole_raises_domain_error(self, h2_gas):
        with pytest.raises(DispersionDomainError):
            gas_index(h2_gas, 70.0, 1.0, 293.0)

    @pytest.mark.parametrize(
        "pressure,temperature,message",
        [
            (math.nan, 293.0, "pressure must be non-negative"),
            (-1.0, 293.0, "pressure must be non-negative"),
            (10.0, math.nan, "temperature must be finite, got nan"),
            (10.0, math.inf, "temperature must be finite, got inf"),
            (10.0, 0.0, "temperature must be positive"),
        ],
    )
    def test_non_finite_conditions_rejected(self, h2_gas, pressure, temperature, message):
        with pytest.raises(ValueError, match=message):
            gas_index(h2_gas, 914.0, pressure, temperature)

    def test_compressibility_halves_density(self):
        gas = GasDispersion("H2", ((2e-4, 5e-3),), 1.0, 273.15, compressibility=lambda p, t: 2.0)
        ideal = GasDispersion("H2", ((2e-4, 5e-3),), 1.0, 273.15)
        assert gas_index(gas, 1000.0, 10.0, 273.15) == pytest.approx(
            gas_index(ideal, 1000.0, 5.0, 273.15), rel=1e-14
        )


class TestMarcatiliIndex:
    def test_reference_probe_value(self):
        # independent evaluation: u = j01 * lambda / (2 pi r)
        u = 2.4048255576957728 * 914e-9 / (2.0 * math.pi * 23e-6)
        assert marcatili_mode_index(914.0, 23.0, LP01) == pytest.approx(1.0 - 0.5 * u * u, rel=1e-14)
        assert marcatili_mode_index(914.0, 23.0, LP01) == pytest.approx(0.99988433, abs=5e-9)

    def test_higher_order_capillary_value(self):
        u = 3.8317059702075125 * 914e-9 / (2.0 * math.pi * 18.3e-6)
        assert marcatili_mode_index(914.0, 18.3, LP11) == pytest.approx(1.0 - 0.5 * u * u, rel=1e-14)
        assert marcatili_mode_index(914.0, 18.3, LP11) == pytest.approx(0.99953612, abs=5e-8)

    def test_short_wavelength_limit_monotone_to_one(self):
        lams = [500.0 / 2**k for k in range(12)]
        values = [marcatili_mode_index(lam, 23.0, LP01) for lam in lams]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert 1.0 - values[-1] < 1e-9

    @given(
        lam=st.floats(min_value=100.0, max_value=3000.0),
        radius=st.floats(min_value=5.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_scaling(self, lam, radius):
        n = marcatili_mode_index(lam, radius, LP01)
        assert 0.0 < n < 1.0
        # decreases as lambda / radius grows
        assert marcatili_mode_index(lam * 1.5, radius, LP01) < n
        assert marcatili_mode_index(lam, radius * 1.5, LP01) > n


class TestResonances:
    def test_reference_positions(self):
        lams = resonance_wavelengths(1.28, 1.444, 3)
        assert lams[1] == pytest.approx(1333.4, abs=0.5)  # m=2, near the observed 1330 nm dip
        assert lams[2] == pytest.approx(888.9, abs=0.5)  # m=3

    def test_harmonic_structure_exact(self):
        lams = resonance_wavelengths(0.97, 1.45, 6)
        for m, lam in enumerate(lams, start=1):
            assert lam == lams[0] / m
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_index_matched_wall_degenerates_to_zero(self):
        assert resonance_wavelengths(1.28, 1.0 + 1e-12, 2)[0] == pytest.approx(0.0, abs=1e-2)
        with pytest.raises(ValueError):
            resonance_wavelengths(1.28, 1.0, 2)

    @pytest.mark.parametrize(
        "function,args,name,value",
        [
            # returned [nan, nan] and [inf, inf]
            (resonance_wavelengths, (math.nan, 1.444, 2), "wall_thickness_um", math.nan),
            (resonance_wavelengths, (math.inf, 1.444, 2), "wall_thickness_um", math.inf),
            # a bare "math domain error"
            (resonance_wavelengths, (1.28, 0.9, 2), "wall_index", 0.9),
            (transmission_window, (914.0, 1.28, 1.0), "wall_index", 1.0),
            (transmission_window, (914.0, 1.28, math.nan), "wall_index", math.nan),
            (transmission_window, (914.0, 1.28, math.inf), "wall_index", math.inf),
            # window -2
            (transmission_window, (914.0, -1.0, 1.444), "wall_thickness_um", -1.0),
            # ZeroDivisionError
            (transmission_window, (0.0, 1.28, 1.444), "wavelength_nm", 0.0),
            (transmission_window, (math.nan, 1.28, 1.444), "wavelength_nm", math.nan),
        ],
    )
    def test_bad_arguments_are_named(self, function, args, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be (positive and finite|finite and above 1), got {value!r}$"):
            function(*args)

    def test_guard_band_names_a_wall_index_at_or_below_one(self):
        # the guard band shares the first-resonance formula; it raised a bare "math domain error"
        geom = FiberGeometry(23.0, 18.3, 1.28, 7, 0.9)
        with pytest.raises(ValueError, match="^wall_index must be finite and above 1, got 0.9$"):
            core_index_curve(geom, _H2, 914.0, 293.0)

    def test_window_classification(self):
        # probe and short pump live between the m=3 and m=2 resonances
        assert transmission_window(914.0, 1.28, 1.444) == 3
        assert transmission_window(942.0, 1.28, 1.444) == 3
        assert transmission_window(1550.0, 1.28, 1.444) == 2
        assert transmission_window(1475.6, 1.28, 1.444) == 2
        assert transmission_window(5000.0, 1.28, 1.444) == 1


class TestFiberGeometry:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FiberGeometry(-1.0, 18.0, 1.3, 7)
        with pytest.raises(ValueError):
            FiberGeometry(23.0, 18.0, 1.3, 2)
        with pytest.raises(ValueError):
            FiberGeometry(2.0, 18.0, 1.3, 7)  # capillary larger than N * core

    @pytest.mark.parametrize(
        "sizes,named",
        [
            ((23.0, 18.3, math.nan, 7), ["wall_thickness_um"]),  # was built
            ((23.0, 18.3, math.inf, 7), ["wall_thickness_um"]),  # was built
            ((math.inf, 18.3, 1.28, 7), ["core_radius_um"]),  # was built
            ((math.nan, 18.3, 1.28, 7), ["core_radius_um"]),  # blamed capillary_inner_radius_um
            ((23.0, -18.3, 0.0, 7), ["capillary_inner_radius_um", "wall_thickness_um"]),
        ],
    )
    def test_non_finite_or_non_positive_sizes_are_named(self, sizes, named):
        with pytest.raises(ValueError) as excinfo:
            FiberGeometry(*sizes)
        message = str(excinfo.value)
        assert message.split("; ") == [
            f"{name} must be positive and finite, got {sizes[i]!r}"
            for i, name in enumerate(("core_radius_um", "capillary_inner_radius_um", "wall_thickness_um"))
            if name in named
        ]

    def test_wall_index_models(self):
        const = FiberGeometry(23.0, 18.3, 1.28, 7, wall_index=1.444)
        assert const.wall_refractive_index(914.0) == 1.444
        table = FiberGeometry(23.0, 18.3, 1.28, 7, wall_index=WallIndexTable([(900.0, 1.45), (1600.0, 1.44)]))
        assert table.wall_refractive_index(900.0) == 1.45
        assert table.wall_refractive_index(1250.0) == pytest.approx(1.445)
        assert table.wall_refractive_index(2000.0) == 1.44
        # fused-silica style two-term Sellmeier pairs (leading Malitson terms)
        sell = FiberGeometry(
            23.0, 18.3, 1.28, 7, wall_index=[(0.6961663, 0.0684043**2), (0.4079426, 0.1162414**2)]
        )
        n = sell.wall_refractive_index(1550.0)
        assert 1.4 < n < 1.5

    def test_sequence_wall_index_is_stored_as_tuples(self):
        rows = [[0.6961663, 0.0046791], [0.4079426, 0.0135121]]
        listed = FiberGeometry(23.0, 18.3, 1.28, 7, wall_index=rows)
        tupled = FiberGeometry(23.0, 18.3, 1.28, 7, wall_index=((0.6961663, 0.0046791), (0.4079426, 0.0135121)))
        assert listed.wall_index == ((0.6961663, 0.0046791), (0.4079426, 0.0135121))
        assert listed == tupled and hash(listed) == hash(tupled)
        n = listed.wall_refractive_index(900.0)
        rows[0][0] = 1.6  # the caller's list no longer reaches the geometry
        assert listed.wall_refractive_index(900.0) == n

    def test_wall_index_table_is_a_sorted_hashable_value(self):
        table = WallIndexTable([[1600.0, 1.44], [900.0, 1.45]])
        assert table.rows == ((900.0, 1.45), (1600.0, 1.44))
        assert table == WallIndexTable(((900.0, 1.45), (1600.0, 1.44)))
        assert hash(table) == hash(WallIndexTable([(900, 1.45), (1600, 1.44)]))
        with pytest.raises(ValueError, match="cannot be compared"):
            table(float("nan"))
        with pytest.raises(ValueError, match="at least one row"):
            WallIndexTable([])
        with pytest.raises(ValueError, match="distinct"):
            WallIndexTable([(900.0, 1.45), (900.0, 1.44)])


class TestEffectiveCoreIndex:
    def test_vacuum_marcatili_variant_reduces_exactly(self, fiber_geom, h2_gas):
        for lam, mode in ((1550.0, LP01), (1777.0, LP11)):
            n = effective_core_index(fiber_geom, h2_gas, lam, 0.0, 293.0, mode, "marcatili")
            assert n == marcatili_mode_index(lam, fiber_geom.core_radius_um, mode)

    def test_monotone_in_pressure(self, fiber_geom, h2_gas):
        previous = None
        for p in (0.0, 10.0, 40.0, 80.0, 120.0):
            n = effective_core_index(fiber_geom, h2_gas, 1550.0, p, 293.0)
            if previous is not None:
                assert n > previous
            previous = n

    def test_wall_term_small_inside_window(self, fiber_geom, h2_gas):
        n_wall = 1.444
        # anti-resonant window centers: phi = (m + 1/2) pi
        for m in (1, 2):
            lam_c = 2.0 * 1.28e3 * math.sqrt(n_wall**2 - 1.0) / (m + 0.5)
            full = effective_core_index(fiber_geom, h2_gas, lam_c, 20.0, 293.0)
            bare = effective_core_index(fiber_geom, h2_gas, lam_c, 20.0, 293.0, variant="marcatili")
            assert abs(full - bare) < 1e-6
        # away from the exact center the wall term stays below 1e-5
        full = effective_core_index(fiber_geom, h2_gas, 1550.0, 20.0, 293.0)
        bare = effective_core_index(fiber_geom, h2_gas, 1550.0, 20.0, 293.0, variant="marcatili")
        assert 0 < abs(full - bare) < 1e-5

    def test_continuity_inside_window(self, fiber_geom, h2_gas):
        # 0.01 nm sampling: smooth slope only, no cot branch jumps
        lams = [1500.0 + 0.01 * k for k in range(200)]
        values = [
            effective_core_index(fiber_geom, h2_gas, lam, 30.0, 293.0, LP01, "zeisberger", REFERENCE_EXCLUSION)
            for lam in lams
        ]
        first = [b - a for a, b in zip(values, values[1:])]
        second = [b - a for a, b in zip(first, first[1:])]
        assert max(abs(d) for d in first) < 1e-8
        assert max(abs(d) for d in second) < 1e-9

    def test_guard_band_rejects_near_resonance(self, fiber_geom, h2_gas):
        # the probe at 914 nm sits 2.8 % from the m=3 resonance: inside the
        # 3 % default band, outside the 2 % reference band
        with pytest.raises(ResonanceProximityError):
            effective_core_index(fiber_geom, h2_gas, 914.0, 10.0, 293.0)
        n = effective_core_index(
            fiber_geom, h2_gas, 914.0, 10.0, 293.0, resonance_exclusion_rel=REFERENCE_EXCLUSION
        )
        assert 0.99 < n < 1.01
        with pytest.raises(ResonanceProximityError):
            effective_core_index(fiber_geom, h2_gas, 889.0, 10.0, 293.0, resonance_exclusion_rel=0.001)

    def test_unknown_variant_rejected(self, fiber_geom, h2_gas):
        with pytest.raises(ValueError):
            effective_core_index(fiber_geom, h2_gas, 1550.0, 10.0, 293.0, variant="vectorial")


class TestCoreIndexCurve:
    def test_checks_run_once_at_build(self, fiber_geom, h2_gas):
        # resonance, pole and temperature faults surface before any pressure is given
        with pytest.raises(ResonanceProximityError):
            core_index_curve(fiber_geom, h2_gas, 914.0, 293.0)
        with pytest.raises(DispersionDomainError):
            core_index_curve(fiber_geom, h2_gas, 50.0, 293.0, resonance_exclusion_rel=0.0)
        with pytest.raises(ValueError, match="temperature must be positive"):
            core_index_curve(fiber_geom, h2_gas, 1550.0, 0.0)

    def test_gas_index_at_the_wall_index_is_a_domain_error(self, fiber_geom, h2_gas):
        curve = core_index_curve(fiber_geom, h2_gas, 1550.0, 293.0)
        with pytest.raises(DispersionDomainError, match=r"at 6000 bar the gas index 1\.58\d* .* wall index 1\.444"):
            curve(6000.0)
        assert core_index_curve(fiber_geom, h2_gas, 1550.0, 293.0, variant="marcatili")(6000.0) > 1.444

    def test_pressure_checked_per_call(self, fiber_geom, h2_gas):
        curve = core_index_curve(fiber_geom, h2_gas, 1550.0, 293.0)
        assert curve(0.0) == effective_core_index(fiber_geom, h2_gas, 1550.0, 0.0, 293.0)
        for pressure in (-1.0, math.nan):
            with pytest.raises(ValueError, match="pressure must be non-negative"):
                curve(pressure)

    @pytest.mark.parametrize("wavelength", [0.0, -0.0, -914.0, math.nan, math.inf])
    def test_wavelength_must_be_positive_and_finite(self, fiber_geom, h2_gas, wavelength):
        # checked before the guard band, which divides by the wavelength
        message = f"wavelength must be positive and finite, got {wavelength!r}"
        with pytest.raises(ValueError, match=message):
            core_index_curve(fiber_geom, h2_gas, wavelength, 293.0)
        with pytest.raises(ValueError, match=message):
            effective_core_index(fiber_geom, h2_gas, wavelength, 80.0, 293.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_rejected_at_build(self, fiber_geom, h2_gas, temperature):
        with pytest.raises(ValueError, match=f"temperature must be finite, got {temperature!r}"):
            core_index_curve(fiber_geom, h2_gas, 1550.0, temperature)

    def test_compressibility_called_only_above_vacuum(self, fiber_geom):
        calls = []
        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, lambda p, t: calls.append((p, t)) or 2.0)
        curve = core_index_curve(fiber_geom, gas, 1550.0, 293.0, variant="marcatili")
        curve(0.0)
        assert calls == []
        half = curve(40.0)
        assert calls == [(40.0, 293.0)]
        ideal = core_index_curve(fiber_geom, _H2, 1550.0, 293.0, variant="marcatili")
        assert half == ideal(20.0)


class _CountingWallIndex:
    """A pure wall-index callable that counts how often it is hashed."""

    def __init__(self):
        self.hashes = 0

    def __call__(self, wavelength_nm):
        return 1.444

    def __hash__(self):
        self.hashes += 1
        return 1


class _UnhashableWallIndex:
    __hash__ = None

    def __call__(self, wavelength_nm):
        return 1.444


#: one instance of each value class whose hash is computed once
_VALUES = {
    "ModeLabel": lambda: ModeLabel(1, 2),
    "WallIndexTable": lambda: WallIndexTable([(900.0, 1.45), (1600.0, 1.44)]),
    "FiberGeometry": lambda: FiberGeometry(23.0, 18.3, 1.28, 7, ((0.6961663, 0.0046791), (0.4079426, 0.0135121))),
    "GasDispersion": lambda: GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15),
    "ConversionScheme": lambda: ConversionScheme.from_pumps(914.0, 1550.0, 942.0),
}

#: run in a child process: pickle a hashed GasDispersion, or load one and look it up
_PICKLE_CHILD = """
import pickle, sys
from csrskit.core_model import GasDispersion
fresh = GasDispersion("H2", ((1e-4, 0.01), (2e-5, 0.02)), 1.01325, 273.15)
if sys.argv[1] == "dump":
    hash(fresh)
    sys.stdout.write(pickle.dumps(fresh).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    assert loaded == fresh and loaded is not fresh
    assert hash(loaded) == hash(fresh), "the stored hash crossed processes"
    assert {fresh: "cached"}[loaded] == "cached"
"""


class TestHashOnce:
    @pytest.mark.parametrize("name", sorted(_VALUES))
    def test_equal_values_hash_alike(self, name):
        a, b = _VALUES[name](), _VALUES[name]()
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(a)

    def test_fields_are_hashed_once(self):
        wall_index = _CountingWallIndex()
        geom = FiberGeometry(23.0, 18.3, 1.28, 7, wall_index)
        assert wall_index.hashes == 0  # lazily, on first use
        first = hash(geom)
        assert hash(geom) == first and hash(geom) == first
        assert wall_index.hashes == 1

    def test_callables_hash_by_identity(self):
        def z(p, t):
            return 1.0

        gas = GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, z)
        assert gas == GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, z)
        assert gas != GasDispersion("H2", H2_COEFFICIENTS, 1.01325, 273.15, lambda p, t: 1.0)

    def test_unhashable_callable_constructs_and_fails_on_hash(self):
        geom = FiberGeometry(23.0, 18.3, 1.28, 7, _UnhashableWallIndex())
        assert geom.wall_refractive_index(914.0) == 1.444
        for _ in range(2):
            with pytest.raises(TypeError, match="unhashable"):
                hash(geom)

    def test_replace_gets_a_fresh_hash(self):
        geom = _VALUES["FiberGeometry"]()
        hash(geom)
        thicker = dataclasses.replace(geom, wall_thickness_um=1.29)
        assert thicker != geom
        assert hash(thicker) == hash(
            FiberGeometry(23.0, 18.3, 1.29, 7, ((0.6961663, 0.0046791), (0.4079426, 0.0135121)))
        )

    @pytest.mark.parametrize("name", sorted(_VALUES))
    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
    def test_copies_leave_the_stored_hash_behind(self, name, duplicate):
        value = _VALUES[name]()
        hash(value)
        twin = duplicate(value)
        assert twin == value
        assert "_hash" not in vars(twin)
        assert hash(twin) == hash(value)

    def test_pickled_value_hashes_by_the_loading_process(self):
        # str hashes are salted per process, so a stored hash must not travel
        def child(seed, mode, stdin=None):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO_ROOT / "src")}
            result = subprocess.run(
                [sys.executable, "-c", _PICKLE_CHILD, mode], input=stdin, capture_output=True, text=True, env=env
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        child("2", "load", child("1", "dump"))
