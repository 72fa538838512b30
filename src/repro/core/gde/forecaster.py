"""Online demand forecasters used inside the scheduling loop.

The full OrgLinear model (``orglinear.py``) is what the forecasting
experiments evaluate; inside a running scheduler the GDE needs something
that can be queried thousands of times per simulated day and updated with
freshly observed demand.  All online forecasters implement the same small
interface:

``fit(history)``
    history: organization name -> hourly demand array (hour 0 = first hour).
``observe(org, hour_index, value)``
    Append/overwrite one observed demand point.
``predict(org, start_hour, horizon) -> (mu, sigma)``
    Gaussian forecast for ``horizon`` hours starting at ``start_hour``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

HOURS_PER_WEEK = 168


class OnlineForecaster(ABC):
    """Interface of forecasters pluggable into the GPU demand estimator."""

    def __init__(self) -> None:
        self.history: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def fit(self, history: Mapping[str, np.ndarray]) -> "OnlineForecaster":
        self.history = {org: list(map(float, series)) for org, series in history.items()}
        self._refit()
        return self

    def observe(self, org: str, hour_index: int, value: float) -> None:
        """Record the observed demand of ``org`` at ``hour_index``."""
        series = self.history.setdefault(org, [])
        if hour_index < len(series):
            series[hour_index] = float(value)
            return
        last = series[-1] if series else float(value)
        while len(series) < hour_index:
            series.append(last)
        series.append(float(value))

    def organizations(self) -> List[str]:
        return list(self.history)

    # ------------------------------------------------------------------
    def _refit(self) -> None:
        """Hook for forecasters that precompute statistics after ``fit``."""

    @abstractmethod
    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        """Gaussian (mu, sigma) forecast for the next ``horizon`` hours."""


class SeasonalQuantileForecaster(OnlineForecaster):
    """Hour-of-week seasonal profile with empirical dispersion.

    For every requested hour the forecaster takes the mean and standard
    deviation of past demand in the same hour-of-week slot, blended with a
    trailing short-term level so that recent shifts are tracked.  This is the
    default GDE predictor inside simulations: probabilistic, adaptive and
    cheap enough to query at every quota update.
    """

    name = "SeasonalQuantile"

    def __init__(self, period: int = HOURS_PER_WEEK, recent_hours: int = 12, blend: float = 0.1):
        super().__init__()
        self.period = period
        self.recent_hours = recent_hours
        self.blend = blend

    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        series = np.asarray(self.history.get(org, []), dtype=float)
        if series.size == 0:
            return np.zeros(horizon), np.ones(horizon)
        # Only the requested hour-of-week slots: a quota tick asks for one.
        seasonal = np.zeros(horizon)
        stds = np.zeros(horizon)
        for h in range(horizon):
            slot = (start_hour + h) % self.period
            values = series[slot :: self.period] if slot < series.size else series[-1:]
            seasonal[h] = float(values.mean())
            stds[h] = float(values.std()) if values.size > 1 else float(series.std())
        recent_level = float(series[-self.recent_hours :].mean())
        mu = (1.0 - self.blend) * seasonal + self.blend * recent_level
        sigma = np.maximum(stds, 1e-3)
        return mu, sigma


class PreviousWeekPeakForecaster(OnlineForecaster):
    """Naive conservative predictor: the previous week's peak, everywhere.

    This reproduces the production heuristic used before GFS and serves as
    the predictor of the GFS-e ablation.  The forecast is a point estimate
    (sigma = 0), so the ICDF upper bound coincides with the peak itself.
    """

    name = "PrevWeekPeak"

    def __init__(self, week_hours: int = HOURS_PER_WEEK):
        super().__init__()
        self.week_hours = week_hours

    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        series = np.asarray(self.history.get(org, []), dtype=float)
        if series.size == 0:
            return np.zeros(horizon), np.zeros(horizon)
        window = series[-self.week_hours :]
        peak = float(window.max())
        return np.full(horizon, peak), np.zeros(horizon)


class OrgLinearOnlineForecaster(OnlineForecaster):
    """OrgLinear wrapped for online use inside the scheduler.

    The model is trained once on the provided history (optionally refitted
    every ``refit_interval`` observed hours) and queried with the trailing
    input window.
    """

    name = "OrgLinearOnline"

    def __init__(self, config=None, attributes: Optional[Mapping[str, Mapping[str, str]]] = None):
        super().__init__()
        from .orglinear import OrgLinear, OrgLinearConfig

        self._config = config or OrgLinearConfig(epochs=30)
        self._model_cls = OrgLinear
        self.model: Optional[OrgLinear] = None
        self.attributes = dict(attributes or {})
        self._dataset = None

    def _refit(self) -> None:
        from .dataset import build_window_dataset

        attrs = {
            org: self.attributes.get(org, {"organization": org})
            for org in self.history
        }
        history = {org: np.asarray(series, dtype=float) for org, series in self.history.items()}
        usable = {
            org: series
            for org, series in history.items()
            if series.size >= self._config.input_length + self._config.horizon
        }
        if not usable:
            self.model = None
            return
        self._dataset = build_window_dataset(
            usable,
            attrs,
            input_length=self._config.input_length,
            horizon=self._config.horizon,
            stride=6,
        )
        self.model = self._model_cls(self._config).fit(self._dataset)

    def predict(self, org: str, start_hour: int, horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        series = np.asarray(self.history.get(org, []), dtype=float)
        if self.model is None or self._dataset is None or series.size < self._config.input_length:
            # Fallback: seasonal statistics when the model cannot run yet.
            fallback = SeasonalQuantileForecaster()
            fallback.history = {org: list(series)}
            return fallback.predict(org, start_hour, horizon)
        from .dataset import ForecastSample, WindowDataset

        window = series[-self._config.input_length :]
        sample = ForecastSample(
            org=org,
            history=window,
            target=np.zeros(self._config.horizon),
            start_hour=start_hour,
            business_index=self._dataset.vocabulary.encode(
                self.attributes.get(org, {"organization": org})
            ),
        )
        query = WindowDataset(
            input_length=self._config.input_length,
            horizon=self._config.horizon,
            samples=[sample],
            vocabulary=self._dataset.vocabulary,
            norm=dict(self._dataset.norm),
        )
        mu, sigma = self.model.predict(query)
        return mu[0][:horizon], sigma[0][:horizon]
