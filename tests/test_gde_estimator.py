"""Tests for the online forecasters and the GPU demand estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gde import (
    GPUDemandEstimator,
    OrgLinearOnlineForecaster,
    PreviousWeekPeakForecaster,
    SeasonalQuantileForecaster,
    normal_quantile,
)


@pytest.fixture
def seasonal_history():
    """Two weeks of strongly diurnal demand for two organizations."""
    hours = 2 * 168
    t = np.arange(hours)
    org_a = 100 + 20 * np.sin(2 * np.pi * (t % 24) / 24.0)
    org_b = 50 + 5 * np.cos(2 * np.pi * (t % 24) / 24.0)
    return {"org-A": org_a, "org-B": org_b}


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_known_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.6449, abs=1e-3)
        assert normal_quantile(0.9) == pytest.approx(1.2816, abs=1e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)


class TestSeasonalQuantileForecaster:
    def test_tracks_diurnal_pattern(self, seasonal_history):
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        mu_peak, _ = forecaster.predict("org-A", start_hour=2 * 168 + 6, horizon=1)
        mu_trough, _ = forecaster.predict("org-A", start_hour=2 * 168 + 18, horizon=1)
        # hour-of-day 6 is the sine peak, hour 18 the trough
        assert mu_peak[0] > mu_trough[0]

    def test_unknown_org_returns_zeros(self, seasonal_history):
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        mu, sigma = forecaster.predict("ghost", 0, 4)
        assert np.allclose(mu, 0.0)
        assert mu.shape == (4,)

    def test_observe_extends_history(self, seasonal_history):
        forecaster = SeasonalQuantileForecaster().fit(seasonal_history)
        length = len(forecaster.history["org-A"])
        forecaster.observe("org-A", length, 500.0)
        assert forecaster.history["org-A"][-1] == 500.0

    def test_observe_fills_gaps(self):
        forecaster = SeasonalQuantileForecaster().fit({"o": np.array([1.0, 2.0])})
        forecaster.observe("o", 5, 9.0)
        assert len(forecaster.history["o"]) == 6
        assert forecaster.history["o"][5] == 9.0

    def test_observe_overwrites_existing_hour(self):
        forecaster = SeasonalQuantileForecaster().fit({"o": np.array([1.0, 2.0, 3.0])})
        forecaster.observe("o", 1, 7.0)
        assert forecaster.history["o"][1] == 7.0


def _reference_slot_stats(forecaster, org):
    """Frozen copy of the former 168-slot builder behind ``predict``."""
    series = np.asarray(forecaster.history.get(org, []), dtype=float)
    means = np.zeros(forecaster.period)
    stds = np.zeros(forecaster.period)
    if series.size == 0:
        return means, stds
    for slot in range(forecaster.period):
        values = series[slot :: forecaster.period] if slot < series.size else series[-1:]
        if values.size == 0:
            values = series[-1:]
        means[slot] = float(values.mean())
        stds[slot] = float(values.std()) if values.size > 1 else float(series.std())
    return means, stds


def _reference_predict(forecaster, org, start_hour, horizon):
    """Frozen copy of the former ``SeasonalQuantileForecaster.predict``."""
    series = np.asarray(forecaster.history.get(org, []), dtype=float)
    if series.size == 0:
        return np.zeros(horizon), np.ones(horizon)
    means, stds = _reference_slot_stats(forecaster, org)
    recent = series[-forecaster.recent_hours :]
    recent_level = float(recent.mean())
    slots = [(start_hour + h) % forecaster.period for h in range(horizon)]
    seasonal = means[slots]
    mu = (1.0 - forecaster.blend) * seasonal + forecaster.blend * recent_level
    sigma = np.maximum(stds[slots], 1e-3)
    return mu, sigma


@st.composite
def _seasonal_forecasters(draw):
    """A fitted forecaster whose one series is shorter than, exactly, or
    several times one period long, then edited by gap-filling and
    overwriting ``observe`` calls."""
    period = draw(st.sampled_from([168, 24]))
    length = draw(st.one_of(st.integers(0, 400), st.sampled_from([1, period, 2 * period])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["continuous", "integer", "constant"]))
    if style == "continuous":
        series = rng.gamma(2.0, 40.0, size=length)
    elif style == "integer":
        series = rng.integers(0, 6, size=length).astype(float)
    else:
        series = np.full(length, 7.0)
    forecaster = SeasonalQuantileForecaster(
        period=period, recent_hours=draw(st.sampled_from([0, 1, 12, 500]))
    ).fit({"o": series})
    edits = st.tuples(st.integers(0, 450), st.floats(0.0, 1e4, allow_nan=False))
    for hour, value in draw(st.lists(edits, max_size=5)):
        forecaster.observe("o", hour, value)
    return forecaster


class TestSeasonalQuantileReference:
    @settings(max_examples=300, deadline=None)
    @given(
        forecaster=_seasonal_forecasters(),
        org=st.sampled_from(["o", "ghost"]),
        start_hour=st.integers(-500, 5000),
        horizon=st.integers(1, 200),
    )
    def test_predict_matches_full_slot_profile(self, forecaster, org, start_hour, horizon):
        mu, sigma = forecaster.predict(org, start_hour, horizon)
        ref_mu, ref_sigma = _reference_predict(forecaster, org, start_hour, horizon)
        assert mu.tobytes() == ref_mu.tobytes()
        assert sigma.tobytes() == ref_sigma.tobytes()


class TestPreviousWeekPeakForecaster:
    def test_predicts_constant_peak(self, seasonal_history):
        forecaster = PreviousWeekPeakForecaster().fit(seasonal_history)
        mu, sigma = forecaster.predict("org-A", 2 * 168, 6)
        assert np.allclose(mu, np.max(seasonal_history["org-A"][-168:]))
        assert np.allclose(sigma, 0.0)


class TestOrgLinearOnlineForecaster:
    def test_falls_back_when_history_too_short(self):
        forecaster = OrgLinearOnlineForecaster().fit({"o": np.arange(50.0)})
        mu, sigma = forecaster.predict("o", 50, 4)
        assert mu.shape == (4,)

    def test_predicts_with_enough_history(self, seasonal_history):
        from repro.core.gde import OrgLinearConfig

        forecaster = OrgLinearOnlineForecaster(config=OrgLinearConfig(epochs=5)).fit(seasonal_history)
        mu, sigma = forecaster.predict("org-A", 2 * 168, 6)
        assert mu.shape == (6,)
        assert np.all(sigma >= 0)


class TestGPUDemandEstimator:
    def test_upper_bound_above_mean(self, seasonal_history):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        mu, _ = estimator.predict("org-A", 336, 4)
        upper = estimator.upper_bound("org-A", 336, 4, p=0.95)
        assert np.all(upper >= mu - 1e-9)

    def test_peak_and_aggregate(self, seasonal_history):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        peaks = estimator.peak_demand(336, 24, p=0.9)
        assert set(peaks) == {"org-A", "org-B"}
        assert estimator.aggregate_peak_demand(336, 24, 0.9) == pytest.approx(sum(peaks.values()))

    def test_unfitted_estimator_raises(self):
        with pytest.raises(RuntimeError):
            GPUDemandEstimator().predict("o", 0, 1)

    def test_observe_passthrough(self, seasonal_history):
        estimator = GPUDemandEstimator().fit(seasonal_history)
        estimator.observe("org-A", 400, 123.0)
        assert estimator.forecaster.history["org-A"][400] == 123.0
