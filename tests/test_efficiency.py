import copy
import math
import pickle
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrskit import efficiency
from csrskit.efficiency import (
    LOSS_VARIANTS,
    EfficiencyModel,
    LightField,
    ModelValidityWarning,
    UnboundedOptimumError,
    alpha_linear,
    loss_bookkeeping,
    optimal_length,
    predicted_efficiency,
)
from csrskit.fitting import DataSeries, fit_efficiency_length

LN10 = math.log(10.0)


def fields(p1=3.0, p2=3.0, a1=0.0, a2=0.0, ap=0.0, i1=1.0, i2=1.0):
    return (
        LightField(1550.0, p1, a1, i1),
        LightField(942.0, p2, a2, i2),
        LightField(914.0, 0.001, ap),
    )


def solve_alpha_sum_db(c_full: float, c_per_w2: float, length: float) -> float:
    """Independent oracle: bisect exp(-a L) = c_per_w2 / (c_full L^2) for a."""
    target = c_per_w2 / (c_full * length**2)
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-mid * length) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * 10.0 / LN10


class TestAlphaLinear:
    def test_zero(self):
        assert alpha_linear(0.0) == 0.0

    def test_ten_db_per_m(self):
        assert alpha_linear(10.0) == pytest.approx(2.302585, abs=1e-6)

    def test_measured_pump_loss(self):
        assert alpha_linear(0.37) == pytest.approx(0.08519, abs=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            alpha_linear(-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_is_named(self, value):
        # nan and inf were passed through as nan and inf
        with pytest.raises(ValueError, match=f"^alpha_db_per_m must be non-negative and finite, got {value!r}"):
            alpha_linear(value)


class TestPredictedEfficiency:
    def test_lossless_reference_point(self):
        model = EfficiencyModel(0.0044, "lossless")
        pump1, pump2, probe = fields()
        eta = predicted_efficiency(model, pump1, pump2, probe, 1.85)
        assert eta == pytest.approx(0.0044 / 100 * 9.0 * 1.85**2, rel=1e-14)
        assert eta * 100 == pytest.approx(0.1355, abs=2e-4)

    def test_lumped_reproduces_per_w2_coefficient(self):
        # total attenuation from the independent bookkeeping solve
        total_db = solve_alpha_sum_db(0.0044, 0.006, 1.85)
        assert total_db == pytest.approx(2.16, abs=0.01)
        model = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=total_db)
        pump1, pump2, probe = fields()  # beam losses folded into the signal slot
        eta = predicted_efficiency(model, pump1, pump2, probe, 1.85)
        assert eta * 100 == pytest.approx(0.054, abs=1e-3)
        assert eta * 100 == pytest.approx(0.006 * 9.0, rel=1e-3)

    def test_split_attenuations_equivalent_to_lumped_total(self):
        # the lumped variant only sees the sum of the four coefficients
        model_a = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=0.79)
        pump1, pump2, probe = fields(a1=0.07, a2=0.37, ap=0.93)
        model_b = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=0.07 + 0.37 + 0.93 + 0.79)
        eta_a = predicted_efficiency(model_a, pump1, pump2, probe, 1.85)
        eta_b = predicted_efficiency(model_b, *fields(), length_m=1.85)
        assert eta_a == pytest.approx(eta_b, rel=1e-12)

    def test_quadratic_short_length_limit(self):
        model = EfficiencyModel(0.0044, "amplitude-integral", signal_attenuation_db_per_m=0.79)
        pump1, pump2, probe = fields(a1=0.07, a2=0.37, ap=0.93)
        c0 = 0.0044 / 100 * 9.0
        for length in (1e-3, 1e-4, 1e-5):
            eta = predicted_efficiency(model, pump1, pump2, probe, length)
            assert eta / length**2 == pytest.approx(c0, rel=1e-3 * length / 1e-5)

    def test_incoupling_scales_powers(self):
        model = EfficiencyModel(0.0044, "lossless")
        pump1, pump2, probe = fields(i1=0.83, i2=0.83)
        eta = predicted_efficiency(model, pump1, pump2, probe, 1.0)
        ref = predicted_efficiency(model, *fields(p1=3.0 * 0.83, p2=3.0 * 0.83), length_m=1.0)
        assert eta == pytest.approx(ref, rel=1e-14)

    @given(
        a=st.floats(min_value=1e-3, max_value=10.0),
        b=st.floats(min_value=1e-3, max_value=10.0),
        variant=st.sampled_from(["lossless", "lumped-exponential", "amplitude-integral"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bilinear_in_pump_powers(self, a, b, variant):
        model = EfficiencyModel(0.004, variant, signal_attenuation_db_per_m=0.5)
        p1, p2, pr = fields(p1=2.0, p2=5.0, a1=0.1, a2=0.2, ap=0.3)
        from dataclasses import replace

        eta = predicted_efficiency(model, p1, p2, pr, 1.5)
        eta_scaled = predicted_efficiency(
            model, replace(p1, power_w=2.0 * a), replace(p2, power_w=5.0 * b), pr, 1.5
        )
        assert eta_scaled == pytest.approx(a * b * eta, rel=1e-12)

    def test_exact_quadratic_in_length_for_lossless(self):
        model = EfficiencyModel(0.0044, "lossless")
        pump1, pump2, probe = fields()
        for length in (0.25, 0.5, 1.0, 2.0):
            ratio = predicted_efficiency(model, pump1, pump2, probe, 2 * length) / predicted_efficiency(
                model, pump1, pump2, probe, length
            )
            assert ratio == pytest.approx(4.0, rel=1e-14)

    def test_amplitude_integral_matches_lossless_at_vanishing_loss(self):
        tiny = 1e-9
        model_ai = EfficiencyModel(0.0044, "amplitude-integral", signal_attenuation_db_per_m=tiny)
        model_ll = EfficiencyModel(0.0044, "lossless")
        pump1, pump2, probe = fields(a1=tiny, a2=tiny, ap=tiny)
        eta_ai = predicted_efficiency(model_ai, pump1, pump2, probe, 1.85)
        eta_ll = predicted_efficiency(model_ll, *fields(), length_m=1.85)
        assert eta_ai == pytest.approx(eta_ll, rel=1e-6)

    def test_zero_exponent_uses_series_limit(self):
        # a = (a1 + a2 + ap - as)/2 = 0 with nonzero individual losses
        model = EfficiencyModel(0.0044, "amplitude-integral", signal_attenuation_db_per_m=0.6)
        pump1, pump2, probe = fields(a1=0.2, a2=0.2, ap=0.2)
        eta = predicted_efficiency(model, pump1, pump2, probe, 2.0)
        expected = 0.0044 / 100 * 9.0 * math.exp(-alpha_linear(0.6) * 2.0) * 2.0**2
        assert eta == pytest.approx(expected, rel=1e-12)

    def test_above_unity_warns_but_returns(self):
        model = EfficiencyModel(5000.0, "lossless")
        pump1, pump2, probe = fields(p1=10.0, p2=10.0)
        with pytest.warns(ModelValidityWarning, match="exceeds 1") as record:
            eta = predicted_efficiency(model, pump1, pump2, probe, 10.0)
        assert eta == 5000.0 / 100.0 * 10.0 * 10.0 * 10.0**2
        assert record[0].filename == __file__  # attributed to the caller


class TestFullPumpPower:
    """Efficiency at full pump powers: predicted_efficiency on fields built at those powers."""

    def test_per_w2_projection(self):
        # 0.006 %/W^2 at 1.85 m equals C = 0.0044 with 2.16 dB/m lumped loss
        total_db = solve_alpha_sum_db(0.0044, 0.006, 1.85)
        model = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=total_db)
        eta = predicted_efficiency(model, *fields(p1=12.6, p2=3.87), length_m=1.85)
        assert eta * 100 == pytest.approx(0.29, abs=0.005)

    def test_lossless_full_power(self):
        model = EfficiencyModel(0.0044, "lossless")
        eta = predicted_efficiency(model, *fields(p1=15.0, p2=8.0), length_m=1.85)
        assert eta * 100 == pytest.approx(1.81, abs=0.01)

    def test_zero_power(self):
        model = EfficiencyModel(0.0044, "lossless")
        assert predicted_efficiency(model, *fields(p1=0.0, p2=8.0), length_m=1.85) == 0.0


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
def test_length_outside_zero_to_infinity_is_named(length):
    model = EfficiencyModel(0.0044, "lossless")
    message = f"^length_m must be positive and finite, got {length!r}"
    with pytest.raises(ValueError, match=message):
        predicted_efficiency(model, *fields(), length)


class TestOptimalLength:
    def test_lumped_closed_form_21m(self):
        model = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=0.414)
        result = optimal_length(model, *fields())
        closed = 2.0 / (0.414 * LN10 / 10.0)
        assert closed == pytest.approx(21.0, abs=0.05)
        assert result.length_m == pytest.approx(closed, rel=1e-3)

    def test_lumped_closed_form_long_fiber(self):
        per_beam = 15.9e-3  # dB/m
        model = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=per_beam)
        result = optimal_length(model, *fields(a1=per_beam, a2=per_beam, ap=per_beam))
        closed = 2.0 / (4.0 * per_beam * LN10 / 10.0)
        assert closed == pytest.approx(136.6, abs=0.1)
        assert result.length_m == pytest.approx(closed, rel=1e-3)

    def test_amplitude_integral_first_order_condition(self):
        alpha = 0.3
        model = EfficiencyModel(0.0044, "amplitude-integral", signal_attenuation_db_per_m=alpha)
        flds = fields(a1=alpha, a2=alpha, ap=alpha)
        result = optimal_length(model, *flds)
        h = result.length_m * 1e-6
        eta_plus = predicted_efficiency(model, *flds, length_m=result.length_m + h)
        eta_minus = predicted_efficiency(model, *flds, length_m=result.length_m - h)
        derivative = (eta_plus - eta_minus) / (2 * h)
        assert abs(derivative) * result.length_m / result.efficiency < 1e-5

    def test_optimum_beyond_a_kilometre(self):
        # 0.001 dB/m on every beam: L* = 2 / (4 alpha) = 2171.47 m
        model = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=0.001)
        result = optimal_length(model, *fields(a1=0.001, a2=0.001, ap=0.001))
        assert result.length_m == pytest.approx(2171.47, abs=0.01)
        assert result.length_m == 2.0 / (4 * alpha_linear(0.001))
        with pytest.warns(ModelValidityWarning):  # 253: far outside the undepleted-pump regime
            eta = predicted_efficiency(model, *fields(a1=0.001, a2=0.001, ap=0.001), result.length_m)
        assert result.efficiency == eta

    @pytest.mark.parametrize("a_s", [0.1, 0.3, 0.9, 2.0])  # a > 0, a = 0, a < 0 and a << 0
    def test_amplitude_integral_closed_form_is_the_maximum(self, a_s):
        model = EfficiencyModel(0.0044, "amplitude-integral", signal_attenuation_db_per_m=a_s)
        flds = fields(a1=0.3, a2=0.3, ap=0.3)
        result = optimal_length(model, *flds)
        linear = [alpha_linear(x) for x in (0.3, 0.3, 0.3, a_s)]
        a = 0.5 * (sum(linear[:3]) - linear[3])
        expected = 2.0 / linear[3] if a == 0.0 else math.log1p(2.0 * a / linear[3]) / a
        assert result.length_m == expected
        for factor in (0.99, 1.01):
            assert predicted_efficiency(model, *flds, result.length_m * factor) < result.efficiency

    def test_too_little_attenuation_overflows(self):
        for a_s in (1e-200, 1e-320):  # a huge finite optimum, then an infinite one
            with pytest.raises(OverflowError):
                optimal_length(EfficiencyModel(0.0044, "lumped-exponential", a_s), *fields())

    def test_unbounded_cases(self):
        with pytest.raises(UnboundedOptimumError):
            optimal_length(EfficiencyModel(0.0044, "lossless"), *fields())
        with pytest.raises(UnboundedOptimumError):
            optimal_length(EfficiencyModel(0.0044, "lumped-exponential", 0.0), *fields())
        with pytest.raises(UnboundedOptimumError):
            optimal_length(EfficiencyModel(0.0044, "amplitude-integral", 0.0), *fields(a1=0.1, a2=0.1, ap=0.1))
        with pytest.raises(UnboundedOptimumError):
            optimal_length(EfficiencyModel(0.0044, "amplitude-integral", 0.5), *fields())


class TestLossBookkeeping:
    def test_reference_solve(self):
        report = loss_bookkeeping(0.0044, 0.006, 1.85, 0.07, 0.37, 0.93)
        oracle = solve_alpha_sum_db(0.0044, 0.006, 1.85)
        assert report.total_attenuation_db_per_m == pytest.approx(oracle, abs=1e-6)
        assert report.total_attenuation_db_per_m == pytest.approx(2.16, abs=0.01)
        assert report.signal_attenuation_db_per_m == pytest.approx(2.16 - 1.37, abs=0.01)

    def test_round_trip_with_lumped_model(self):
        report = loss_bookkeeping(0.0044, 0.006, 1.85, 0.07, 0.37, 0.93)
        model = EfficiencyModel(
            0.0044, "lumped-exponential", signal_attenuation_db_per_m=report.signal_attenuation_db_per_m
        )
        pump1, pump2, probe = fields(a1=0.07, a2=0.37, ap=0.93)
        eta = predicted_efficiency(model, pump1, pump2, probe, 1.85)
        assert eta * 100 == pytest.approx(0.006 * 9.0, rel=1e-9)


    @pytest.mark.parametrize("name", ["per_w2_pct", "length_m", "coefficient_pct_per_w2m2"])
    def test_nan_input_is_named(self, name):
        # a nan per_w2_pct or length_m returned an all-nan result
        args = dict(
            coefficient_pct_per_w2m2=0.0044, per_w2_pct=0.006, length_m=1.85, alpha_pump1_db=0.07,
            alpha_pump2_db=0.37, alpha_probe_db=0.93,
        )  # fmt: skip
        args[name] = math.nan
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got nan"):
            loss_bookkeeping(**args)

    def test_non_finite_beam_attenuation_is_named(self):
        with pytest.raises(ValueError, match="^alpha_probe_db must be finite, got inf"):
            loss_bookkeeping(0.0044, 0.006, 1.85, 0.07, 0.37, math.inf)


class TestFieldValidation:
    def test_light_field_invariants(self):
        with pytest.raises(ValueError):
            LightField(914.0, -1.0)
        with pytest.raises(ValueError):
            LightField(914.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            LightField(914.0, 1.0, 0.1, 1.2)

    def test_model_invariants(self):
        with pytest.raises(ValueError):
            EfficiencyModel(0.0)
        with pytest.raises(ValueError):
            EfficiencyModel(0.0044, "exponential-ish")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["wavelength_nm", "power_w", "attenuation_db_per_m"])
    def test_light_field_rejects_non_finite_values(self, name, value):
        kwargs = {"wavelength_nm": 914.0, "power_w": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be (positive|non-negative) and finite, got {value!r}"):
            LightField(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["coefficient_pct_per_w2m2", "signal_attenuation_db_per_m"])
    def test_model_rejects_non_finite_values(self, name, value):
        kwargs = {"coefficient_pct_per_w2m2": 0.0044, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be (positive|non-negative) and finite, got {value!r}"):
            EfficiencyModel(**kwargs)

    def test_zero_power_and_attenuation_stay_valid(self):
        assert LightField(914.0, 0.0, 0.0).coupled_power_w == 0.0
        assert EfficiencyModel(0.0044, "lumped-exponential", 0.0).signal_attenuation_db_per_m == 0.0


# -- stored attenuations: the same numbers as the dB-domain formulas ----------


def _db_domain_efficiency(variant, c_pct, p1, p2, a1_db, a2_db, ap_db, as_db, length):
    """The loss-variant formulas as they read when every call converted its
    attenuations from dB/m, kept here as the reference for the stored values."""
    base = c_pct / 100.0 * p1 * p2
    a1, a2, ap, a_s = (x * LN10 / 10.0 for x in (a1_db, a2_db, ap_db, as_db))
    if variant == "lossless":
        return base * length**2
    if variant == "lumped-exponential":
        return base * length**2 * math.exp(-(a1 + a2 + ap + a_s) * length)
    a = 0.5 * (a1 + a2 + ap - a_s)
    growth = length if a == 0.0 else -math.expm1(-a * length) / a
    return base * math.exp(-a_s * length) * growth**2


def _db_domain_optimal_length(variant, a1_db, a2_db, ap_db, as_db):
    """L* from the dB values, or None where the optimum is unbounded."""
    a1, a2, ap, a_s = (x * LN10 / 10.0 for x in (a1_db, a2_db, ap_db, as_db))
    if variant == "lossless":
        return None
    if variant == "lumped-exponential":
        total = a1 + a2 + ap + a_s
        return None if total == 0.0 else 2.0 / total
    if a_s == 0.0 or a1 + a2 + ap == 0.0:
        return None
    a = 0.5 * (a1 + a2 + ap - a_s)
    return 2.0 / a_s if a == 0.0 else math.log1p(2.0 * a / a_s) / a


_ATTENUATION = st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=5.0))
_FIELD = st.builds(
    LightField,
    wavelength_nm=st.floats(min_value=400.0, max_value=2000.0),
    power_w=st.floats(min_value=0.0, max_value=20.0),
    attenuation_db_per_m=_ATTENUATION,
    incoupling=st.floats(min_value=0.0, max_value=1.0),
)
_MODEL = st.builds(
    EfficiencyModel,
    coefficient_pct_per_w2m2=st.floats(min_value=1e-4, max_value=10.0),
    loss_variant=st.sampled_from(LOSS_VARIANTS),
    signal_attenuation_db_per_m=_ATTENUATION,
)
_LENGTH = st.floats(min_value=1e-3, max_value=50.0)


def _hexes(*values):
    return [float(v).hex() for v in values]


@given(model=_MODEL, pump1=_FIELD, pump2=_FIELD, probe=_FIELD, lengths=st.lists(_LENGTH, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_stored_attenuations_give_the_db_domain_numbers_bit_for_bit(model, pump1, pump2, probe, lengths):
    db = (pump1.attenuation_db_per_m, pump2.attenuation_db_per_m, probe.attenuation_db_per_m)
    as_db = model.signal_attenuation_db_per_m
    c, variant = model.coefficient_pct_per_w2m2, model.loss_variant
    p1 = pump1.power_w * pump1.incoupling
    p2 = pump2.power_w * pump2.incoupling
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelValidityWarning)
        for length in lengths:
            expected = _db_domain_efficiency(variant, c, p1, p2, *db, as_db, length)
            assert _hexes(predicted_efficiency(model, pump1, pump2, probe, length)) == _hexes(expected)
            bare = _db_domain_efficiency(variant, c, pump1.power_w, pump2.power_w, 0.0, 0.0, 0.0, as_db, length)
            loss_free = (LightField(f.wavelength_nm, f.power_w) for f in (pump1, pump2, probe))
            assert _hexes(predicted_efficiency(model, *loss_free, length)) == _hexes(bare)
    length = _db_domain_optimal_length(variant, *db, as_db)
    if length is None:
        with pytest.raises(UnboundedOptimumError):
            optimal_length(model, pump1, pump2, probe)
    else:
        result = optimal_length(model, pump1, pump2, probe)
        eta = _db_domain_efficiency(variant, c, p1, p2, *db, as_db, length)
        assert _hexes(result.length_m, result.efficiency) == _hexes(length, eta)


@given(
    model=_MODEL,
    pump1=_FIELD.filter(lambda f: f.power_w * f.incoupling > 0.0),
    pump2=_FIELD.filter(lambda f: f.power_w * f.incoupling > 0.0),
    probe=_FIELD,
    points=st.lists(st.tuples(_LENGTH, st.floats(min_value=1e-6, max_value=1.0)), min_size=2, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_efficiency_fit_gives_the_db_domain_numbers_bit_for_bit(model, pump1, pump2, probe, points):
    x, y = [p[0] for p in points], [p[1] for p in points]
    db = (pump1.attenuation_db_per_m, pump2.attenuation_db_per_m, probe.attenuation_db_per_m)
    p1 = pump1.power_w * pump1.incoupling
    p2 = pump2.power_w * pump2.incoupling
    shape = [
        _db_domain_efficiency(model.loss_variant, 1.0, p1, p2, *db, model.signal_attenuation_db_per_m, length)
        for length in x
    ]
    denom = sum(s * s for s in shape)
    if denom == 0.0:
        return  # the fit rejects a vanishing shape
    coeff = sum(s * yi for s, yi in zip(shape, y)) / denom
    wrss = 0.0
    for s, yi in zip(shape, y):
        r = yi - coeff * s
        wrss += r * r
    fit = fit_efficiency_length(DataSeries(x, y), model, pump1, pump2, probe)
    se = math.sqrt((wrss / (len(x) - 1)) / denom)
    got = (fit.parameters["coefficient_pct_per_w2m2"], fit.standard_errors["coefficient_pct_per_w2m2"])
    assert _hexes(*got, fit.residual_norm) == _hexes(coeff, se, math.sqrt(wrss))


_VALUES = [
    LightField(914.0, 0.5, 0.93, 0.8),
    LightField(1550.0, 3.0),
    EfficiencyModel(0.0044, "amplitude-integral", 0.79),
    EfficiencyModel(0.0044),
]


@pytest.mark.parametrize("value", _VALUES, ids=repr)
def test_stored_values_leave_the_value_semantics_alone(value):
    # equality, hash and repr see the fields only
    twin = replace(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert "_alpha" not in repr(value) and "coupled_power_w" not in repr(value)
    # a copy or a pickle carries the fields, and the loaded value derives its own stored values
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value) and repr(other) == repr(value)
        assert other.__dict__ == value.__dict__
    assert pickle.dumps(value).count(b"_alpha") == 0
    assert set(value.__getstate__()) == {f for f in type(value).__dataclass_fields__}


def test_a_replaced_value_recomputes_its_stored_values():
    field = LightField(914.0, 0.5, 0.93, 0.8)
    moved = replace(field, attenuation_db_per_m=0.07, incoupling=0.5)
    assert moved._alpha_per_m == alpha_linear(0.07) and moved.coupled_power_w == 0.25
    model = EfficiencyModel(0.0044, "lumped-exponential", 0.79)
    moved = replace(model, signal_attenuation_db_per_m=0.1, coefficient_pct_per_w2m2=0.5)
    assert moved._signal_alpha_per_m == alpha_linear(0.1) and moved._fraction_per_w2m2 == 0.005
    with pytest.raises(ValueError, match="^attenuation_db_per_m must be non-negative"):
        replace(field, attenuation_db_per_m=math.nan)


def _count_alpha_linear(monkeypatch) -> list:
    calls = []
    convert = efficiency.alpha_linear
    monkeypatch.setattr(efficiency, "alpha_linear", lambda db: calls.append(db) or convert(db))
    return calls


def test_an_efficiency_sweep_converts_no_attenuation(monkeypatch):
    """A 100-point sweep reads the attenuations stored when the fields and
    the model were built: no dB conversion per length (it made 400)."""
    calls = _count_alpha_linear(monkeypatch)
    flds = fields(a1=0.07, a2=0.37, ap=0.93)
    models = [EfficiencyModel(0.0044, variant, 0.79) for variant in LOSS_VARIANTS]
    assert len(calls) == 3 + len(LOSS_VARIANTS)  # one conversion per object
    del calls[:]
    for model in models:
        sweep = [predicted_efficiency(model, *flds, 0.1 + 0.25 * k) for k in range(100)]
        assert len(sweep) == 100 and calls == []
        if model.loss_variant != "lossless":
            optimal_length(model, *flds)
            assert calls == []
